"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line; run `pytest -s tests/test_acceptance.py` to see them.
"""

import csv
import io
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import mk_record, reference_channel
from tracechan import (
    TIE_RTOL,
    AmcTable,
    Direction,
    Environment,
    PathType,
    PlanarArray,
    Rectangle,
    RtScenario,
    SubbandGrid,
    TraceSet,
    beamformed_power,
    build_channel_matrices,
    generate_codebook,
    generate_trace,
    ideal_beam_sweep,
    knife_edge_loss_db,
    metrics_to_csv,
    parse_trace_text,
    run_simulation,
    select_mcs,
    static_trajectory,
    steering_vector,
    sweep_power_table,
    trace_to_text,
)
from tracechan.scenario import build_rt_scenario, build_setup, load_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DATA_DIR = Path(__file__).resolve().parent / "data"
C = 299792458.0


def _check(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: {name} [{detail}]")
    assert ok, f"{name} [{detail}]"


def _run_config(name, workers=1):
    cfg = load_config(CONFIG_DIR / name)
    t0 = time.perf_counter()
    trace = generate_trace(build_rt_scenario(cfg))
    setup = build_setup(cfg)
    metrics = run_simulation(trace, setup, workers=workers)
    elapsed = time.perf_counter() - t0
    return trace, setup, metrics, elapsed


@pytest.fixture(scope="module")
def etoile():
    return _run_config("etoile.cfg")


@pytest.fixture(scope="module")
def etoile_wide():
    return _run_config("etoile_wide.cfg")


@pytest.fixture(scope="module")
def corner():
    return _run_config("corner.cfg")


EXACT_COLUMNS = (
    "los", "tx_beam_az_deg", "tx_beam_zen_deg", "rx_beam_az_deg", "rx_beam_zen_deg", "mcs",
)


def _cell_matches(column, got, want):
    if column in EXACT_COLUMNS:
        return got == want
    if column == "sinr_db":
        return abs(float(got) - float(want)) <= 1e-9
    return math.isclose(float(got), float(want), rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("name", ["corner", "etoile", "etoile_wide"])
def test_shipped_configs_match_stored_metrics(name, request):
    # tests/data/<name>_metrics.csv is the simulate output of configs/<name>.cfg:
    # beam, los and mcs exact, sinr_db within 1e-9 dB, the rest within 1e-12
    _, _, metrics, _ = request.getfixturevalue(name)
    got = list(csv.DictReader(io.StringIO(metrics_to_csv(metrics))))
    with open(DATA_DIR / f"{name}_metrics.csv", encoding="utf-8", newline="") as fh:
        want = list(csv.DictReader(fh))
    bad = [
        (float(w["t"]), c)
        for g, w in zip(got, want)
        for c in w
        if not _cell_matches(c, g[c], w[c])
    ]
    _check(
        f"{name} matches stored metrics",
        len(got) == len(want) and not bad,
        f"{len(got)} rows vs {len(want)} stored, {len(bad)} mismatched cells {bad[:3]}",
    )


def _steering_errors(metrics):
    """(true_az, error) per snapshot; the walk circles at 10 deg/s from 0."""
    out = []
    for m in metrics:
        true_az = 10.0 * m.t
        out.append((true_az, m.selection.tx_direction.azimuth_deg - true_az))
    return out


def _rmse(errors):
    return math.sqrt(sum(e * e for e in errors) / len(errors))


def test_beam_steering_accuracy(etoile, etoile_wide):
    _, _, metrics, elapsed = etoile
    _, _, metrics_w, elapsed_w = etoile_wide
    errs = _steering_errors(metrics)
    body = [e for az, e in errs if az <= 70.0 + 1e-9]
    rmse_body = _rmse(body)
    rmse_all = _rmse([e for _, e in errs])
    rmse_wide = _rmse([e for _, e in _steering_errors(metrics_w)])
    total = elapsed + elapsed_w
    ok = (
        rmse_body <= 1.0
        and rmse_all <= 1.5
        and rmse_wide <= rmse_all
        and total < 300.0
    )
    _check(
        "beam steering accuracy",
        ok,
        f"rmse[0,70]={rmse_body:.4f} deg (<=1.0), rmse_all={rmse_all:.4f} deg "
        f"(<=1.5), rmse 16x128={rmse_wide:.4f} deg (<= 16x16), {total:.1f} s "
        f"(<300)",
    )


def test_endfire_error_worst(etoile):
    _, _, metrics, _ = etoile
    errs = _steering_errors(metrics)
    body = max(abs(e) for az, e in errs if az <= 70.0 + 1e-9)
    endfire = max(abs(e) for az, e in errs if 75.0 - 1e-9 <= az <= 89.0 + 1e-9)
    _check(
        "end-fire steering degrades",
        endfire > body,
        f"max err [75,89]={endfire:.3f} deg > max err [0,70]={body:.3f} deg",
    )


def test_corner_sinr_jump(corner):
    _, _, metrics, _ = corner
    sinr = [m.sinr_db for m in metrics]
    jumps = [abs(b - a) for a, b in zip(sinr, sinr[1:])]
    _check(
        "corner transition SINR jump",
        max(jumps) >= 15.0,
        f"max one-snapshot jump={max(jumps):.2f} dB (>=15)",
    )


def test_throughput_delay_plateaus(corner):
    _, _, metrics, _ = corner
    los = [m for m in metrics if m.los]
    deep = [m for m in metrics if m.mcs is None or m.mcs == 0]
    ok = (
        len(los) > 0
        and all(m.mcs == 28 for m in los)
        and all(abs(m.delivered_bps - 122e6) <= 0.01 * 122e6 for m in los)
        and all(m.delay_s <= 0.6e-3 for m in los)
        and len(deep) > 0
        and any(m.mcs == 0 for m in deep)
        and all(m.delivered_bps <= 25e6 for m in deep)
        and all(m.delay_s >= 5e-3 for m in deep)
    )
    d_los = max(m.delay_s for m in los) if los else float("nan")
    d_deep = min(m.delay_s for m in deep) if deep else float("nan")
    _check(
        "throughput and delay plateaus",
        ok,
        f"{len(los)} LoS snapshots at MCS 28, 122 Mb/s, delay<={d_los * 1e3:.2f} ms; "
        f"{len(deep)} deep-NLoS snapshots <=25 Mb/s, delay>={d_deep * 1e3:.2f} ms",
    )


def _random_records(rng, t):
    n = int(rng.integers(1, 11))
    recs = []
    for pid in range(n):
        recs.append(
            mk_record(
                t=t,
                path_id=pid,
                path_type=PathType.REFLECTION,
                delay=float(rng.uniform(0.0, 1e-6)),
                gain_mag=float(10.0 ** rng.uniform(-8, -3)),
                phase=float(rng.uniform(-math.pi, math.pi)),
                aod_az=float(rng.uniform(-180.0, 180.0) % 360.0 - 180.0),
                aod_zen=float(rng.uniform(0.0, 180.0)),
                aoa_az=float(rng.uniform(-180.0, 180.0) % 360.0 - 180.0),
                aoa_zen=float(rng.uniform(0.0, 180.0)),
            )
        )
    return recs


def test_vectorized_channel_matches_scalar_reference():
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        grid = SubbandGrid(28e9, 100e6, int(rng.integers(1, 9)))
        lam = C / grid.carrier_hz
        tx_shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        rx_shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        spacing = float(rng.uniform(0.25, 1.0))
        bearings = (float(rng.uniform(-180, 180)), float(rng.uniform(-180, 180)))
        tx_arr = PlanarArray(*tx_shape, lam, spacing, bearings[0])
        rx_arr = PlanarArray(*rx_shape, lam, spacing, bearings[1])
        recs = _random_records(rng, float(rng.uniform(0, 10)))
        got = build_channel_matrices(recs, tx_arr, rx_arr, grid)
        ref = np.asarray(reference_channel(recs, tx_shape, rx_shape, spacing, bearings, grid))
        scale = max(1e-30, float(np.max(np.abs(ref))))
        worst = max(worst, float(np.max(np.abs(got.matrices - ref))) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed <= 60.0
    _check(
        "vectorized channel matches scalar reference",
        ok,
        f"200 randomized snapshots, worst rel err={worst:.2e} (<=1e-12), "
        f"{elapsed:.1f} s (<=60)",
    )


def test_free_space_gain_and_edge_loss():
    scen = RtScenario(
        environment=Environment(),
        carrier_hz=28e9,
        trajectories={
            0: static_trajectory([0.0, 0.0, 0.0], 0.0, 1.0, 1),
            1: static_trajectory([100.0, 0.0, 0.0], 0.0, 1.0, 1),
        },
        links=((0, 1),),
    )
    rec = generate_trace(scen).records[0]
    gain_db = 20.0 * math.log10(rec.gain_mag)
    j0 = knife_edge_loss_db(0.0)
    ok = abs(gain_db - (-101.39)) <= 0.01 and abs(j0 - 6.03) <= 0.01
    _check(
        "free-space gain and knife-edge loss",
        ok,
        f"100 m at 28 GHz -> {gain_db:.4f} dB (-101.39+-0.01), "
        f"J(0)={j0:.4f} dB (6.03+-0.01)",
    )


def test_matched_beams_recover_array_gain():
    grid = SubbandGrid(28e9, 100e6, 8)
    lam = C / grid.carrier_hz
    tx_arr = PlanarArray(16, 16, lam)
    rx_arr = PlanarArray(4, 4, lam)
    g = 3.7e-6
    p_tx = 2.5
    rec = mk_record(
        gain_mag=g, aod_az=37.3, aod_zen=81.2, aoa_az=-122.6, aoa_zen=95.4
    )
    chan = build_channel_matrices([rec], tx_arr, rx_arr, grid)
    w_tx = steering_vector(
        tx_arr, Direction.from_degrees(rec.aod_az, rec.aod_zen)
    ).vector / math.sqrt(tx_arr.n_elements)
    w_rx = steering_vector(
        rx_arr, Direction.from_degrees(rec.aoa_az, rec.aoa_zen)
    ).vector / math.sqrt(rx_arr.n_elements)
    _, total = beamformed_power(chan, w_tx, w_rx, p_tx)
    expected = p_tx * g * g * tx_arr.n_elements * rx_arr.n_elements
    rel = abs(total - expected) / expected
    _check(
        "matched beams recover full array gain",
        rel <= 1e-9,
        f"16x16 tx, 4x4 rx: rel err={rel:.2e} (<=1e-9)",
    )


def _round_trip_holds(rng):
    recs = []
    t = 0.0
    for _ in range(int(rng.integers(1, 4))):
        t += float(rng.uniform(0.01, 0.5))
        for pid in range(int(rng.integers(1, 7))):
            recs.append(
                mk_record(
                    t=t,
                    path_id=pid,
                    path_type=PathType.REFLECTION,
                    delay=float(rng.uniform(0, 1e-5)),
                    gain_mag=float(rng.uniform(0, 1e-3)),
                    phase=float(rng.uniform(-10, 10)),
                    aod_az=float(rng.uniform(-180.0, 179.9)),
                    aod_zen=float(rng.uniform(0.0, 180.0)),
                    aoa_az=float(rng.uniform(-180.0, 179.9)),
                    aoa_zen=float(rng.uniform(0.0, 180.0)),
                )
            )
    trace = TraceSet(tuple(recs))
    return parse_trace_text(trace_to_text(trace)).records == trace.records


def _reciprocity_holds():
    env = Environment(
        rectangles=(
            Rectangle(
                np.array([5.0, -10.0, 0.0]),
                np.array([0.0, 20.0, 0.0]),
                np.array([0.0, 0.0, 8.0]),
            ),
            Rectangle(
                np.array([-3.0, 6.0, 0.0]),
                np.array([14.0, 0.0, 0.0]),
                np.array([0.0, 0.0, 8.0]),
            ),
        )
    )
    a, b = [0.0, 0.0, 2.0], [3.0, 4.0, 1.5]

    def paths(p, q):
        scen = RtScenario(
            environment=env,
            carrier_hz=28e9,
            trajectories={
                0: static_trajectory(p, 0.0, 1.0, 1),
                1: static_trajectory(q, 0.0, 1.0, 1),
            },
            links=((0, 1),),
        )
        recs = generate_trace(scen).records
        return sorted(recs, key=lambda r: (r.path_type.value, r.delay))

    fwd, rev = paths(a, b), paths(b, a)
    if len(fwd) < 2 or len(fwd) != len(rev):
        return False
    for f, r in zip(fwd, rev):
        if not (
            abs(f.delay - r.delay) <= 1e-15 + 1e-12 * f.delay
            and abs(f.gain_mag - r.gain_mag) <= 1e-9 * f.gain_mag
            and abs(f.aod_az - r.aoa_az) <= 1e-9
            and abs(f.aod_zen - r.aoa_zen) <= 1e-9
            and abs(f.aoa_az - r.aod_az) <= 1e-9
            and abs(f.aoa_zen - r.aod_zen) <= 1e-9
        ):
            return False
    return True


def _argmax_optimal(rng):
    grid = SubbandGrid(28e9, 100e6, 4)
    lam = C / grid.carrier_hz
    tx_arr = PlanarArray(2, 4, lam)
    rx_arr = PlanarArray(2, 2, lam)
    cb_tx = generate_codebook(tx_arr, -180.0, 170.0, 30.0, 60.0, 120.0, 30.0)
    cb_rx = generate_codebook(rx_arr, -180.0, 170.0, 30.0, 60.0, 120.0, 30.0)
    recs = _random_records(rng, float(rng.uniform(0, 5)))
    chan = build_channel_matrices(recs, tx_arr, rx_arr, grid)
    table = sweep_power_table(chan, cb_tx, cb_rx, 1.0)
    sel = ideal_beam_sweep(chan, cb_tx, cb_rx, 1.0)
    # the first pair in row-major order within TIE_RTOL of the maximum wins
    first = int(np.flatnonzero(table >= table.max() * (1.0 - TIE_RTOL))[0])
    if (sel.tx_index, sel.rx_index) != divmod(first, table.shape[1]):
        return False
    return sel.power_w == table[sel.tx_index, sel.rx_index]


def _mcs_monotone():
    table = AmcTable.default()
    prev = -1
    for sinr in np.arange(-10.0, 30.0, 0.05):
        idx = select_mcs(float(sinr), table)
        idx = -1 if idx is None else idx
        if idx < prev:
            return False
        prev = idx
    return True


def _workers_deterministic(corner_run):
    trace, setup, metrics, _ = corner_run
    base = metrics_to_csv(metrics)
    return all(
        metrics_to_csv(run_simulation(trace, setup, workers=w)) == base
        for w in (2, 8)
    )


def test_property_suite(corner):
    rng = np.random.default_rng(7)
    round_trip = all(_round_trip_holds(rng) for _ in range(30))
    reciprocity = _reciprocity_holds()
    argmax = all(_argmax_optimal(rng) for _ in range(10))
    mcs = _mcs_monotone()
    workers = _workers_deterministic(corner)
    ok = round_trip and reciprocity and argmax and mcs and workers
    _check(
        "property suite",
        ok,
        f"trace round-trip={round_trip}, ray reciprocity={reciprocity}, "
        f"sweep argmax optimal={argmax}, MCS monotone={mcs}, "
        f"worker-count determinism={workers}",
    )
