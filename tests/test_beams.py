"""Codebook generation and exhaustive beam sweeps."""

import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CORNER_CFG, dft_codebook, mk_record
from tracechan import (
    TIE_RTOL,
    BeamCodebook,
    Direction,
    PlanarArray,
    SubbandGrid,
    beamformed_power,
    build_channel_matrices,
    generate_codebook,
    ideal_beam_sweep,
    ideal_beam_sweeps,
    select_best_pair,
    sweep_power_table,
)
from tracechan import beams
from tracechan.arrays import _wrap_azimuth
from tracechan.channel import ChannelMatrixSet, PathFactors
from tracechan.scenario import build_setup, load_config

LAM = 299792458.0 / 28e9
GRID = SubbandGrid(28e9, 100e6, 4)


def _channel(records, tx_arr, rx_arr):
    return build_channel_matrices(records, tx_arr, rx_arr, GRID)


def test_codebook_grid_counts():
    arr = PlanarArray(2, 2, LAM)
    cb = generate_codebook(arr, 0.0, 90.0, 1.0)
    assert len(cb) == 91 * 7  # default zenith grid 60..120 step 10
    cb = generate_codebook(arr, -180.0, 170.0, 10.0, 90.0, 90.0, 10.0)
    assert len(cb) == 36
    # azimuth-major: zenith spins fastest
    cb = generate_codebook(arr, 0.0, 10.0, 10.0, 60.0, 80.0, 10.0)
    assert [(d.azimuth_deg, d.zenith_deg) for d in cb.directions] == [
        (0.0, 60.0), (0.0, 70.0), (0.0, 80.0),
        (10.0, 60.0), (10.0, 70.0), (10.0, 80.0),
    ]


def test_codebook_step_rounding():
    arr = PlanarArray(1, 1, LAM)
    # 0.1 steps accumulate float error; the count must still be exact
    cb = generate_codebook(arr, 0.0, 1.0, 0.1, 90.0, 90.0, 1.0)
    assert len(cb) == 11


def test_codebook_rejects_bad_grid():
    arr = PlanarArray(1, 1, LAM)
    with pytest.raises(ValueError):
        generate_codebook(arr, 0.0, 10.0, 0.0)
    with pytest.raises(ValueError):
        generate_codebook(arr, 10.0, 0.0, 1.0)


def test_codebook_rows_unit_norm():
    arr = PlanarArray(4, 8, LAM)
    cb = generate_codebook(arr, -60.0, 60.0, 20.0)
    norms = np.linalg.norm(cb.weights, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_codebook_rejects_off_norm_and_nan_beams():
    with pytest.raises(ValueError) as exc:
        dft_codebook(1.5)
    assert str(exc.value) == "codebook beam 3 has weight norm 1.5, not within 1e-09 of 1"
    cols = dft_codebook().col_factors.copy()
    cols[3, 1] = np.nan
    with pytest.raises(ValueError) as exc:
        replace(dft_codebook(), col_factors=cols)
    assert str(exc.value) == "codebook beam 3 has weight norm nan, not within 1e-09 of 1"
    with pytest.raises(ValueError, match="beam 3 has weight norm 1.000000002"):
        dft_codebook(1.0 + 2e-9)
    # norms within 1e-9 of 1 are admitted: the sweep tests scale beams by
    # sqrt(1 - TIE_RTOL), 5e-13 below 1
    for scale in (1.0 - 9e-10, 1.0 + 9e-10, math.sqrt(1.0 - TIE_RTOL)):
        assert len(dft_codebook(scale)) == 4
    with pytest.raises(ValueError, match=r"^col_factors shape \(4,\) does not fit 4 beams$"):
        BeamCodebook(np.zeros(4), np.full(4, 90.0), np.ones((4, 1)), np.ones(4))


def test_codebook_factors_are_read_only():
    rows = np.ones((4, 1), dtype=complex)
    cb = replace(dft_codebook(), row_factors=rows)
    for f in (cb.row_factors, cb.col_factors):
        assert not f.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            f[0, 0] = 3.0
    rows[0, 0] = 3.0  # the caller's array stays its own and writeable
    assert cb.row_factors[0, 0] == 1.0
    generated = generate_codebook(PlanarArray(2, 3, LAM), -30.0, 30.0, 30.0)
    for f in (generated.row_factors, generated.col_factors):
        with pytest.raises(ValueError, match="read-only"):
            f[0] *= 3.0


def test_codebooks_compare_and_hash_by_value():
    arr = PlanarArray(2, 3, LAM, bearing_deg=20.0)
    a, b = (generate_codebook(arr, -60.0, 60.0, 30.0) for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != generate_codebook(arr, -60.0, 60.0, 20.0)  # other directions
    # the same directions with another array's factors
    assert a != generate_codebook(replace(arr, bearing_deg=30.0), -60.0, 60.0, 30.0)
    assert a != replace(a, row_factors=a.row_factors[:, :1], col_factors=a.col_factors[:, :1])
    assert a != "a codebook"
    cfg = load_config(CORNER_CFG)
    first, second = build_setup(cfg), build_setup(cfg)
    assert first == second and hash(first) == hash(second)
    # angles compare by value, as Direction labels do: -0.0 is 0.0, and a list
    # or a writeable array is the same codebook as the read-only arrays
    cb = dft_codebook()
    same = BeamCodebook([-0.0, 30.0, 90.0, -30.0], np.full(4, 90.0), cb.row_factors.copy(),
                        cb.col_factors)
    assert same == cb and hash(same) == hash(cb)
    moved = cb.zenith_deg.copy()
    moved[3] = math.nextafter(90.0, 0.0)
    assert replace(cb, zenith_deg=moved) != cb
    assert replace(cb, azimuth_deg=cb.azimuth_deg[::-1]) != cb


def _one_label_per_beam(*grid):
    """A codebook's labels as one Direction per grid point, azimuth-major."""
    az = _wrap_azimuth(beams._grid_points(*grid[:3]))
    zen = beams._grid_points(*grid[3:])
    return tuple(Direction(a, z) for a in az.tolist() for z in zen.tolist())


@pytest.mark.parametrize("grid", [(0.0, 90.0, 1.0, 60.0, 120.0, 10.0),
                                  (-180.0, 170.0, 10.0, 60.0, 120.0, 10.0),
                                  (170.0, 190.0, 0.1, 0.0, 180.0, 45.0),
                                  (-0.0, 0.0, 1.0, 90.0, 90.0, 1.0)])
def test_codebook_directions_are_the_grid_labels(grid):
    cb = generate_codebook(PlanarArray(2, 3, LAM), *grid)
    want = _one_label_per_beam(*grid)
    assert cb.directions == want
    # bit for bit, signed zeros too
    assert [repr((d.azimuth_deg, d.zenith_deg)) for d in cb.directions] == [
        repr((d.azimuth_deg, d.zenith_deg)) for d in want]
    assert cb.directions is cb.directions  # made once
    assert not cb.azimuth_deg.flags.writeable and not cb.zenith_deg.flags.writeable


def test_setup_makes_no_direction(monkeypatch):
    made = []
    check = Direction.__post_init__

    def spy(self):
        made.append(self)
        check(self)

    monkeypatch.setattr(Direction, "__post_init__", spy)
    setup = build_setup(load_config(CORNER_CFG))
    assert made == []
    # a sweep makes its winner's two labels, and directions makes every label once
    ch = _channel([mk_record(aod_az=30.0, aod_zen=80.0, aoa_az=-170.0, aoa_zen=100.0)],
                  setup.tx_array, setup.rx_array)
    sel = ideal_beam_sweep(ch, setup.tx_codebook, setup.rx_codebook, 1.0)
    assert made == [sel.tx_direction, sel.rx_direction]
    assert [(d.azimuth_deg, d.zenith_deg) for d in made] == [(30.0, 80.0), (-170.0, 100.0)]
    assert setup.tx_codebook.directions[sel.tx_index] == sel.tx_direction
    assert len(made) == 2 + len(setup.tx_codebook)
    setup.tx_codebook.directions
    assert len(made) == 2 + len(setup.tx_codebook)


def _first_bad_label(az, zen):
    """The message of the first beam whose Direction fails, azimuth before
    zenith, by the chained comparisons of one direction at a time; None if none."""
    for a, z in zip(az, zen):
        if not -180.0 <= a < 180.0:
            return f"azimuth {a!r} outside [-180, 180)"
        if not 0.0 <= z <= 180.0:
            return f"zenith {z!r} outside [0, 180]"
    return None


_LABEL_ANGLES = st.sampled_from([
    -180.0, math.nextafter(-180.0, -math.inf), 0.0, -0.0, 90.0, math.nextafter(180.0, 0.0),
    180.0, 180.1, -0.1, math.nan, math.inf, -math.inf])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_LABEL_ANGLES, _LABEL_ANGLES), min_size=1, max_size=6))
@example([(10.0, 90.0), (180.0, 190.0), (200.0, 90.0)])
def test_codebook_angles_fail_as_their_first_direction(labels):
    az, zen = (list(x) for x in zip(*labels))
    unit = np.ones((len(az), 1), complex)
    want = _first_bad_label(az, zen)
    if want is None:
        cb = BeamCodebook(az, zen, unit, unit)
        assert cb.directions == tuple(map(Direction, az, zen))
        return
    with pytest.raises(ValueError) as exc:
        BeamCodebook(az, zen, unit, unit)
    assert str(exc.value) == want
    bad = next(k for k, (a, z) in enumerate(labels) if _first_bad_label([a], [z]))
    with pytest.raises(ValueError) as exc:
        Direction(*labels[bad])
    assert str(exc.value) == want


def test_bad_codebook_grid_names_its_first_bad_zenith():
    arr = PlanarArray(2, 2, LAM)
    for grid, message in (((0.0, 10.0, 10.0, 170.0, 200.0, 10.0), "zenith 190.0 outside [0, 180]"),
                          ((0.0, 10.0, 10.0, -10.0, 20.0, 10.0), "zenith -10.0 outside [0, 180]")):
        with pytest.raises(ValueError) as exc:
            generate_codebook(arr, *grid)
        assert str(exc.value) == message
    with pytest.raises(ValueError, match=r"^azimuth 190 outside \[-180, 180\)$"):
        Direction(190, 90)
    with pytest.raises(ValueError, match=r"^zenith_deg shape \(3,\) does not fit 4 beams$"):
        BeamCodebook(np.zeros(4), np.zeros(3), np.ones((4, 1)), np.ones((4, 1)))
    with pytest.raises(ValueError, match=r"^azimuth_deg shape \(\) does not fit 1 beams$"):
        BeamCodebook(0.0, [90.0], np.ones((1, 1)), np.ones((1, 1)))


def _power_rows_by_plane(tx_paths, coef, rx_side, scale):
    """beams._power_rows' oracle: one amplitude plane per coefficient row, each
    added into the table in plane order."""
    table = np.zeros((*tx_paths.shape[:-1], rx_side[-1].shape[-1]))
    for k in range(coef.shape[-2]):
        amp = tx_paths * coef[..., k, None, :]
        for factor in rx_side:
            amp = amp @ factor
        table += amp.real**2 + amp.imag**2
    return scale * table


def _complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("n_channels", [1, 3])
@pytest.mark.parametrize("m", [1, 2, 8, 64])
@pytest.mark.parametrize("n_rows", [1, 2, 9])
@pytest.mark.parametrize("element_basis", [False, True])
@settings(max_examples=3, deadline=None, derandomize=True)
@given(extra_paths=st.integers(0, 9), n_rx_b=st.sampled_from([1, 8, 252]),
       seed=st.integers(0, 2**32 - 1))
@example(extra_paths=0, n_rx_b=252, seed=0)  # wide planes: m = 64 splits into blocks
def test_power_rows_block_is_the_plane_by_plane_sum(n_channels, m, n_rows, element_basis,
                                                    extra_paths, n_rx_b, seed):
    # a block of planes is one product per rx factor; every row is bit-equal to
    # the sum of planes taken one at a time, also where the blocks split m
    rng = np.random.default_rng(seed)
    p = m + extra_paths
    tx_paths = _complex_normal(rng, n_channels, n_rows, p)
    coef = _complex_normal(rng, n_channels, m, p) * rng.uniform(1e-3, 1e3, (n_channels, m, 1))
    if element_basis:
        rx_side = (_complex_normal(rng, n_channels, p, 16), _complex_normal(rng, 16, n_rx_b))
    else:
        rx_side = (_complex_normal(rng, n_channels, p, n_rx_b),)
    got = beams._power_rows(tx_paths, coef, rx_side, 0.25)
    want = _power_rows_by_plane(tx_paths, coef, rx_side, 0.25)
    assert got.tobytes() == want.tobytes()


def test_numpy_elides_a_temporary_of_16384_elements():
    # the premise of beams' rule against elided temporaries: numpy computes
    # a * b with a temporary b of 16,384 complex128 elements (256 KiB) or more
    # in b's buffer, as b * a, and allocates a new array one element below.
    # Where b * a and a * b round apart, a path's bits would then depend on how
    # many paths share its call
    rng = np.random.default_rng(0)
    was_tracing = tracemalloc.is_tracing()
    for n, elided in ((16383, False), (16384, True)):
        a, f = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
        tracemalloc.start()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        got = a * np.conj(f)
        peak = tracemalloc.get_traced_memory()[1] - start
        if not was_tracing:
            tracemalloc.stop()
        assert (peak < 24 * n) == elided  # one buffer of 16 n bytes, or two
        want = np.multiply(np.conj(f), a) if elided else np.multiply(a, np.conj(f))
        assert got.tobytes() == want.tobytes()


def test_sweep_table_matches_pairwise_power():
    rng = np.random.default_rng(3)
    tx_arr = PlanarArray(2, 3, LAM)
    rx_arr = PlanarArray(2, 2, LAM)
    recs = [
        mk_record(
            path_id=i,
            gain_mag=float(rng.uniform(0, 1e-4)),
            phase=float(rng.uniform(-math.pi, math.pi)),
            delay=float(rng.uniform(0, 1e-7)),
            aod_az=float(rng.uniform(-180, 179)),
            aod_zen=float(rng.uniform(30, 150)),
            aoa_az=float(rng.uniform(-180, 179)),
            aoa_zen=float(rng.uniform(30, 150)),
        )
        for i in range(5)
    ]
    ch = _channel(recs, tx_arr, rx_arr)
    cb_tx = generate_codebook(tx_arr, -40.0, 40.0, 20.0)
    cb_rx = generate_codebook(rx_arr, -90.0, 90.0, 45.0)
    table = sweep_power_table(ch, cb_tx, cb_rx, p_tx_w=0.5)
    assert table.shape == (len(cb_tx), len(cb_rx))
    for i in range(len(cb_tx)):
        for j in range(len(cb_rx)):
            _, want = beamformed_power(ch, cb_tx.weights[i], cb_rx.weights[j], 0.5)
            assert table[i, j] == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_sweep_selects_single_path_direction():
    tx_arr = PlanarArray(8, 8, LAM)
    rx_arr = PlanarArray(4, 4, LAM)
    rec = mk_record(aod_az=37.0, aod_zen=100.0, aoa_az=-140.0, aoa_zen=80.0)
    ch = _channel([rec], tx_arr, rx_arr)
    cb_tx = generate_codebook(tx_arr, 0.0, 90.0, 1.0)
    cb_rx = generate_codebook(rx_arr, -180.0, 170.0, 10.0)
    sel = ideal_beam_sweep(ch, cb_tx, cb_rx, 1.0)
    assert sel.tx_direction.azimuth_deg == 37.0
    assert sel.tx_direction.zenith_deg == 100.0
    assert sel.rx_direction.azimuth_deg == -140.0
    assert sel.rx_direction.zenith_deg == 80.0
    # matched pair attains the full array gain
    assert sel.power_w == pytest.approx(rec.gain_mag**2 * 64 * 16, rel=1e-9)


def test_sweep_zero_channel_picks_first_pair():
    tx_arr = PlanarArray(2, 2, LAM)
    rx_arr = PlanarArray(2, 2, LAM)
    ch = _channel([], tx_arr, rx_arr)
    sel = ideal_beam_sweep(ch, generate_codebook(tx_arr, 0, 20, 10),
                           generate_codebook(rx_arr, 0, 20, 10), 1.0)
    assert (sel.tx_index, sel.rx_index) == (0, 0)
    assert sel.power_w == 0.0


def test_sweep_tie_breaks_to_lowest_index():
    # duplicated codebook entries produce exact ties
    arr = PlanarArray(2, 2, LAM)
    rec = mk_record(aod_az=10.0, aod_zen=90.0, aoa_az=0.0, aoa_zen=90.0)
    ch = _channel([rec], arr, arr)
    base = generate_codebook(arr, 0.0, 10.0, 10.0, 90.0, 90.0, 10.0)
    dup = BeamCodebook(np.tile(base.azimuth_deg, 2), np.tile(base.zenith_deg, 2),
                       np.vstack([base.row_factors, base.row_factors]),
                       np.vstack([base.col_factors, base.col_factors]))
    sel = ideal_beam_sweep(ch, dup, dup, 1.0)
    assert sel.tx_index < len(base)
    assert sel.rx_index < len(base)


def test_sweep_tie_between_mirror_beams():
    # a single row along y cannot tell az from 180-az; first index wins
    arr = PlanarArray(1, 2, LAM)
    rec = mk_record(aod_az=30.0, aod_zen=90.0, aoa_az=0.0, aoa_zen=90.0)
    rx_arr = PlanarArray(1, 1, LAM)
    ch = _channel([rec], arr, rx_arr)
    # half-wavelength columns: column factor exp(j pi c sin(az)) at zenith 90
    cols = np.exp(1j * math.pi * np.outer(np.sin(np.radians([30.0, 150.0])), np.arange(2)))
    cb_tx = BeamCodebook([30.0, 150.0], [90.0, 90.0], np.ones((2, 1), dtype=complex), cols)
    cb_rx = generate_codebook(rx_arr, 0.0, 0.0, 1.0, 90.0, 90.0, 1.0)
    np.testing.assert_allclose(cb_tx.weights[0], cb_tx.weights[1], atol=1e-15)
    sel = ideal_beam_sweep(ch, cb_tx, cb_rx, 1.0)
    assert sel.tx_index == 0


def test_refining_grid_never_loses_power():
    tx_arr = PlanarArray(8, 8, LAM)
    rx_arr = PlanarArray(2, 2, LAM)
    rec = mk_record(aod_az=33.4, aod_zen=96.7, aoa_az=10.0, aoa_zen=90.0)
    ch = _channel([rec], tx_arr, rx_arr)
    cb_rx = generate_codebook(rx_arr, 0.0, 20.0, 10.0)
    coarse = generate_codebook(tx_arr, 0.0, 90.0, 10.0)
    fine = generate_codebook(tx_arr, 0.0, 90.0, 1.0)  # superset of coarse
    p_coarse = ideal_beam_sweep(ch, coarse, cb_rx, 1.0).power_w
    p_fine = ideal_beam_sweep(ch, fine, cb_rx, 1.0).power_w
    assert p_fine >= p_coarse * (1 - 1e-12)


def test_sweep_rejects_negative_power():
    arr = PlanarArray(1, 1, LAM)
    ch = _channel([mk_record()], arr, arr)
    cb = generate_codebook(arr, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        sweep_power_table(ch, cb, cb, -2.0)


def test_sweep_argmax_optimality_randomized():
    # the selected pair's power equals the table maximum, every channel
    rng = np.random.default_rng(11)
    tx_arr = PlanarArray(2, 4, LAM)
    rx_arr = PlanarArray(2, 2, LAM)
    cb_tx = generate_codebook(tx_arr, -60.0, 60.0, 30.0)
    cb_rx = generate_codebook(rx_arr, -60.0, 60.0, 30.0)
    for _ in range(20):
        recs = [
            mk_record(
                path_id=i,
                gain_mag=float(rng.uniform(0, 1e-4)),
                phase=float(rng.uniform(-math.pi, math.pi)),
                aod_az=float(rng.uniform(-180, 179)),
                aod_zen=float(rng.uniform(0, 180)),
                aoa_az=float(rng.uniform(-180, 179)),
                aoa_zen=float(rng.uniform(0, 180)),
            )
            for i in range(int(rng.integers(1, 7)))
        ]
        ch = _channel(recs, tx_arr, rx_arr)
        table = sweep_power_table(ch, cb_tx, cb_rx, 1.0)
        sel = ideal_beam_sweep(ch, cb_tx, cb_rx, 1.0)
        assert sel.power_w == table.max()
        assert table[sel.tx_index, sel.rx_index] == table.max()


def _dense_reference_table(ch, cb_tx, cb_rx, p_tx_w):
    # sum_k |w_rx^H H_k w_tx|^2 on the dense tensor, one pair at a time
    h = ch.matrices
    table = np.empty((len(cb_tx), len(cb_rx)))
    for i, w_tx in enumerate(cb_tx.weights):
        for j, w_rx in enumerate(cb_rx.weights):
            amp = np.array([w_rx.conj() @ h_k @ w_tx for h_k in h])
            table[i, j] = (p_tx_w / len(h)) * float(np.sum(np.abs(amp) ** 2))
    return table


@settings(max_examples=40, deadline=None)
@given(
    n_subbands=st.integers(1, 8),
    n_paths=st.integers(1, 8),
    rx_shape=st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3)]),
    seed=st.integers(0, 2**32 - 1),
)
# P on both sides of N_rx, and K on both sides of P
@example(n_subbands=8, n_paths=2, rx_shape=(2, 2), seed=0)
@example(n_subbands=1, n_paths=3, rx_shape=(2, 2), seed=1)
@example(n_subbands=8, n_paths=6, rx_shape=(1, 2), seed=2)
@example(n_subbands=3, n_paths=7, rx_shape=(1, 2), seed=3)
def test_factored_sweep_matches_dense_reference(n_subbands, n_paths, rx_shape, seed):
    rng = np.random.default_rng(seed)
    grid = SubbandGrid(28e9, 400e6, n_subbands)
    tx_arr = PlanarArray(2, 3, LAM, bearing_deg=float(rng.uniform(-90, 90)))
    rx_arr = PlanarArray(*rx_shape, LAM)
    recs = [
        mk_record(
            path_id=i,
            gain_mag=float(rng.uniform(0, 1e-4)),
            phase=float(rng.uniform(-math.pi, math.pi)),
            delay=float(rng.uniform(0, 2e-7)),
            aod_az=float(rng.uniform(-180, 179)),
            aod_zen=float(rng.uniform(0, 180)),
            aoa_az=float(rng.uniform(-180, 179)),
            aoa_zen=float(rng.uniform(0, 180)),
        )
        for i in range(n_paths)
    ]
    ch = build_channel_matrices(recs, tx_arr, rx_arr, grid)
    cb_tx = generate_codebook(tx_arr, -90.0, 90.0, 45.0)
    cb_rx = generate_codebook(rx_arr, -180.0, 90.0, 90.0, 60.0, 120.0, 60.0)
    table = sweep_power_table(ch, cb_tx, cb_rx, 0.5)
    want = _dense_reference_table(ch, cb_tx, cb_rx, 0.5)
    bound = 1e-12 * want.max()
    assert np.all(table >= 0.0)
    assert np.max(np.abs(table - want)) <= bound
    for i in range(len(cb_tx)):
        for j in range(len(cb_rx)):
            _, pairwise = beamformed_power(ch, cb_tx.weights[i], cb_rx.weights[j], 0.5)
            assert abs(pairwise - want[i, j]) <= bound
    sel = ideal_beam_sweep(ch, cb_tx, cb_rx, 0.5)
    # the first pair in row-major order within TIE_RTOL of the maximum wins
    first = int(np.flatnonzero(table >= table.max() * (1.0 - TIE_RTOL))[0])
    assert (sel.tx_index, sel.rx_index) == divmod(first, table.shape[1])
    assert sel.power_w == table[sel.tx_index, sel.rx_index]


def _pick(table, cb_tx, cb_rx):
    sel = select_best_pair(table, cb_tx, cb_rx)
    return sel.tx_index, sel.rx_index


@settings(max_examples=200, deadline=None)
@given(
    n_tx=st.integers(1, 6),
    n_rx=st.integers(1, 6),
    top=st.floats(1e-20, 1e3),
    data=st.data(),
)
def test_tie_rule_ignores_rounding_noise(n_tx, n_rx, top, data):
    # entries are either near-ties of the maximum (within 1e-13) or more than
    # 1e-10 below it; per-entry relative noise of 1e-14 never moves the pick
    n = n_tx * n_rx
    tied = data.draw(st.sets(st.integers(0, n - 1), min_size=1), label="tied")
    near = st.floats(-1e-13, 1e-13)
    below = st.floats(0.0, 1.0 - 1e-10)
    table = np.array([
        top * (1.0 + data.draw(near)) if i in tied else top * data.draw(below)
        for i in range(n)
    ]).reshape(n_tx, n_rx)
    eps = np.array(data.draw(st.lists(st.floats(-1e-14, 1e-14), min_size=n, max_size=n)))
    noisy = table * (1.0 + eps.reshape(n_tx, n_rx))
    arr = PlanarArray(1, 1, LAM)
    cb_tx = generate_codebook(arr, 0.0, n_tx - 1.0, 1.0, 90.0, 90.0, 1.0)
    cb_rx = generate_codebook(arr, 0.0, n_rx - 1.0, 1.0, 90.0, 90.0, 1.0)
    want = divmod(min(tied), n_rx)
    assert _pick(table, cb_tx, cb_rx) == want
    assert _pick(noisy, cb_tx, cb_rx) == want


def test_tie_rule_all_zero_table():
    arr = PlanarArray(1, 1, LAM)
    cb = generate_codebook(arr, 0.0, 2.0, 1.0, 90.0, 90.0, 1.0)
    sel = select_best_pair(np.zeros((3, 3)), cb, cb)
    assert (sel.tx_index, sel.rx_index, sel.power_w) == (0, 0, 0.0)


def _random_records(rng, n_paths):
    return [
        mk_record(
            path_id=i,
            gain_mag=float(rng.uniform(0, 1e-4)),
            phase=float(rng.uniform(-math.pi, math.pi)),
            delay=float(rng.uniform(0, 2e-7)),
            aod_az=float(rng.uniform(-180, 179)),
            aod_zen=float(rng.uniform(0, 180)),
            aoa_az=float(rng.uniform(-180, 179)),
            aoa_zen=float(rng.uniform(0, 180)),
        )
        for i in range(n_paths)
    ]


def _with_copies(cb, index, copies):
    """cb plus copies of beam index, each (before, k) a copy inserted before or
    after it whose powers are scaled by 1 - TIE_RTOL + k ulps: near-ties placed
    on the tie threshold, plus or minus rounding."""
    az, zen = list(cb.azimuth_deg), list(cb.zenith_deg)
    rows, cols = list(cb.row_factors), list(cb.col_factors)
    beam = (cb.row_factors[index], cb.col_factors[index], az[index], zen[index])
    for before, k in copies:
        at = index if before else index + 1
        rows.insert(at, beam[0] * math.sqrt(1.0 - TIE_RTOL + k * 2.0**-52))
        cols.insert(at, beam[1])
        az.insert(at, beam[2])
        zen.insert(at, beam[3])
        index += before
    return BeamCodebook(az, zen, np.array(rows), np.array(cols))


def _aimed_at_first_path(cb, array, records):
    """cb plus one beam aimed at the first record's arrival direction."""
    aim = generate_codebook(array, records[0].aoa_az, records[0].aoa_az, 1.0,
                            records[0].aoa_zen, records[0].aoa_zen, 1.0)
    return BeamCodebook(np.append(cb.azimuth_deg, aim.azimuth_deg),
                        np.append(cb.zenith_deg, aim.zenith_deg),
                        np.vstack([cb.row_factors, aim.row_factors]),
                        np.vstack([cb.col_factors, aim.col_factors]))


def _sweep_case(rng, n_subbands, n_paths, rx_shape, rx_beams, weak, aim_rx):
    """A channel and codebooks: paths after the first scaled by weak, and the
    rx codebook optionally holding a beam aimed at the first path."""
    grid = SubbandGrid(28e9, 400e6, n_subbands)
    tx_arr = PlanarArray(2, 3, LAM, bearing_deg=float(rng.uniform(-90, 90)))
    rx_arr = PlanarArray(*rx_shape, LAM)
    records = _random_records(rng, n_paths)
    records[1:] = [replace(r, gain_mag=r.gain_mag * weak) for r in records[1:]]
    ch = build_channel_matrices(records, tx_arr, rx_arr, grid)
    cb_tx = generate_codebook(tx_arr, -90.0, 90.0, 15.0)
    if rx_beams == 1:
        cb_rx = generate_codebook(rx_arr, 0.0, 0.0, 1.0, 90.0, 90.0, 1.0)
    else:
        cb_rx = generate_codebook(rx_arr, -180.0, 90.0, 90.0, 60.0, 120.0, 60.0)
    if aim_rx and records:
        cb_rx = _aimed_at_first_path(cb_rx, rx_arr, records)
    return ch, cb_tx, cb_rx


@settings(max_examples=150, deadline=None)
@given(
    n_subbands=st.integers(1, 8),
    n_paths=st.integers(0, 9),
    rx_shape=st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3)]),
    rx_beams=st.sampled_from([1, 8]),
    weak=st.sampled_from([1.0, 1e-3, 1e-9, 0.0]),
    aim_rx=st.booleans(),
    tx_copies=st.lists(st.tuples(st.booleans(), st.integers(-8, 8)), max_size=12),
    rx_copies=st.lists(st.tuples(st.booleans(), st.integers(-8, 8)), max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
# P on both sides of N_rx, K on both sides of P, one path (a single confirmed
# row), near-tied tx rows below and above the winner, and a one-beam rx
# codebook, on which BLAS runs every product as a matrix-vector product
# whatever the row count; with one path the bound is tight, so the two
# examples with a run of copies fail without the margin
@example(n_subbands=8, n_paths=1, rx_shape=(2, 2), rx_beams=8, weak=1.0, aim_rx=False,
         tx_copies=[], rx_copies=[], seed=0)
@example(n_subbands=8, n_paths=1, rx_shape=(1, 1), rx_beams=8, weak=1.0, aim_rx=False,
         tx_copies=[(True, k) for k in range(-6, 7)], rx_copies=[], seed=0)
@example(n_subbands=1, n_paths=1, rx_shape=(2, 2), rx_beams=8, weak=1.0, aim_rx=False,
         tx_copies=[(True, k) for k in range(-6, 7)], rx_copies=[], seed=1)
@example(n_subbands=1, n_paths=3, rx_shape=(2, 2), rx_beams=8, weak=1.0, aim_rx=False,
         tx_copies=[(True, 0)], rx_copies=[], seed=1)
@example(n_subbands=8, n_paths=3, rx_shape=(1, 2), rx_beams=8, weak=1.0, aim_rx=False,
         tx_copies=[(True, 1), (False, -1)], rx_copies=[(True, 0)], seed=2)
@example(n_subbands=2, n_paths=6, rx_shape=(2, 3), rx_beams=8, weak=1.0, aim_rx=False,
         tx_copies=[(True, -1), (True, 2)], rx_copies=[], seed=3)
@example(n_subbands=4, n_paths=2, rx_shape=(2, 2), rx_beams=1, weak=1.0, aim_rx=False,
         tx_copies=[(True, -1), (False, 1), (False, 2)], rx_copies=[], seed=4)
# the element basis (P > N_rx): one dominant path over at least N_rx weak
# ones, an rx beam aimed at it so that the Cauchy-Schwarz bound is nearly
# tight, and runs of near-tied tx copies around the tie threshold; K on both
# sides of P, and a one-beam rx codebook plus the aimed beam. The first four
# fail without the margin, and all five if only the top two rows are computed
@example(n_subbands=8, n_paths=5, rx_shape=(2, 2), rx_beams=8, weak=1e-9, aim_rx=True,
         tx_copies=[(True, k) for k in range(-6, 7)], rx_copies=[], seed=16)
@example(n_subbands=1, n_paths=5, rx_shape=(2, 2), rx_beams=8, weak=1e-9, aim_rx=True,
         tx_copies=[(True, k) for k in range(-6, 7)], rx_copies=[], seed=6)
@example(n_subbands=2, n_paths=7, rx_shape=(2, 3), rx_beams=8, weak=1e-9, aim_rx=True,
         tx_copies=[(True, k) for k in range(-6, 7)], rx_copies=[], seed=6)
@example(n_subbands=3, n_paths=8, rx_shape=(2, 3), rx_beams=1, weak=0.0, aim_rx=True,
         tx_copies=[(True, k) for k in range(-6, 7)], rx_copies=[(True, 0)], seed=0)
@example(n_subbands=1, n_paths=3, rx_shape=(1, 2), rx_beams=8, weak=1e-3, aim_rx=True,
         tx_copies=[(True, k) for k in range(-6, 7)], rx_copies=[], seed=8)
def test_bounded_sweep_matches_full_table(
    n_subbands, n_paths, rx_shape, rx_beams, weak, aim_rx, tx_copies, rx_copies, seed
):
    rng = np.random.default_rng(seed)
    ch, cb_tx, cb_rx = _sweep_case(rng, n_subbands, n_paths, rx_shape, rx_beams, weak, aim_rx)
    first = select_best_pair(sweep_power_table(ch, cb_tx, cb_rx, 0.5), cb_tx, cb_rx)
    cb_tx = _with_copies(cb_tx, first.tx_index, tx_copies)
    cb_rx = _with_copies(cb_rx, first.rx_index, rx_copies)
    want = select_best_pair(sweep_power_table(ch, cb_tx, cb_rx, 0.5), cb_tx, cb_rx)
    got = ideal_beam_sweep(ch, cb_tx, cb_rx, 0.5)
    assert (got.tx_index, got.rx_index) == (want.tx_index, want.rx_index)
    assert np.float64(got.power_w).tobytes() == np.float64(want.power_w).tobytes()


def _one_beam(cb):
    return BeamCodebook(cb.azimuth_deg[:1], cb.zenith_deg[:1], cb.row_factors[:1],
                        cb.col_factors[:1])


@settings(max_examples=150, deadline=None)
@given(
    n_subbands=st.integers(1, 12),
    extra_paths=st.integers(1, 24),
    rx_shape=st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3)]),
    one_tx_beam=st.booleans(),
    rx_beams=st.sampled_from([1, 8]),
    weak=st.sampled_from([1.0, 1e-3, 1e-9, 0.0]),
    aim_rx=st.booleans(),
    tx_copies=st.lists(st.tuples(st.booleans(), st.integers(-8, 8)), max_size=12),
    rx_copies=st.lists(st.tuples(st.booleans(), st.integers(-8, 8)), max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_subbands=8, extra_paths=1, rx_shape=(2, 2), one_tx_beam=False, rx_beams=8,
         weak=0.0, aim_rx=True, tx_copies=[], rx_copies=[], seed=0)
@example(n_subbands=1, extra_paths=3, rx_shape=(2, 3), one_tx_beam=False, rx_beams=1,
         weak=1e-3, aim_rx=True, tx_copies=[], rx_copies=[], seed=1)
# P > N_rx, K on both sides of P. The next example takes the Gram form of
# the bound (K > P, 104 tx beams), and has an rx beam aimed at a dominant
# path, so the bound is nearly tight: it fails without the margin. The last
# two have no bound, as the Gram form would cost about the table (25 paths
# on K = 2, or one tx beam): every bound is inf and every row is computed
@example(n_subbands=12, extra_paths=1, rx_shape=(2, 2), one_tx_beam=False, rx_beams=8,
         weak=1e-9, aim_rx=True, tx_copies=[(True, k) for k in range(-6, 7)], rx_copies=[],
         seed=16)
@example(n_subbands=2, extra_paths=21, rx_shape=(2, 2), one_tx_beam=False, rx_beams=8,
         weak=1e-9, aim_rx=True, tx_copies=[(True, k) for k in range(-6, 7)], rx_copies=[],
         seed=6)
@example(n_subbands=3, extra_paths=1, rx_shape=(2, 2), one_tx_beam=True, rx_beams=1,
         weak=1e-9, aim_rx=True, tx_copies=[], rx_copies=[], seed=0)
def test_element_basis_bound_covers_every_entry(
    n_subbands, extra_paths, rx_shape, one_tx_beam, rx_beams, weak, aim_rx, tx_copies,
    rx_copies, seed
):
    # P > N_rx: the rx side is in the element basis, and each row's bound is
    # at or above every computed entry of its row, also where it is tight;
    # the bounded sweep picks the table's pair
    rng = np.random.default_rng(seed)
    n_paths = rx_shape[0] * rx_shape[1] + extra_paths
    ch, cb_tx, cb_rx = _sweep_case(rng, n_subbands, n_paths, rx_shape, rx_beams, weak, aim_rx)
    if one_tx_beam:
        cb_tx = _one_beam(cb_tx)
    first = select_best_pair(sweep_power_table(ch, cb_tx, cb_rx, 0.5), cb_tx, cb_rx)
    cb_tx = _with_copies(cb_tx, first.tx_index, tx_copies)
    cb_rx = _with_copies(cb_rx, first.rx_index, rx_copies)
    tx_paths, coef, rx_side, scale = beams._sweep_factors(ch.paths, 1, ch.grid, cb_tx, cb_rx, 0.5)
    assert len(rx_side) == 2
    table = sweep_power_table(ch, cb_tx, cb_rx, 0.5)
    bound = beams._row_bounds(tx_paths, coef, rx_side, scale)
    assert np.all(bound[0, :, None] >= table)
    want = select_best_pair(table, cb_tx, cb_rx)
    got = ideal_beam_sweep(ch, cb_tx, cb_rx, 0.5)
    assert (got.tx_index, got.rx_index) == (want.tx_index, want.rx_index)
    assert np.float64(got.power_w).tobytes() == np.float64(want.power_w).tobytes()


def _scaled_codebook(rng, array, n_beams, scales):
    """n_beams beams of random unit-modulus factors, beam b's scaled by scales[b]."""
    phases = rng.uniform(-math.pi, math.pi, (n_beams, array.n_rows + array.n_cols))
    factors = np.exp(1j * phases)
    factors[:, :array.n_rows] *= np.asarray(scales)[:, None]
    return BeamCodebook(np.zeros(n_beams), np.full(n_beams, 90.0), factors[:, :array.n_rows],
                        factors[:, array.n_rows:])


def _at_upper_edge(cb, b):
    """cb with beam b rescaled to about the largest norm BeamCodebook admits,
    1 + _NORM_TOL less a few ulps of rounding in its check."""
    rows, unit = cb.row_factors.copy(), cb.row_factors[b] / np.linalg.norm(cb.weights[b])
    for ulps in range(64):
        rows[b] = unit * (1.0 + beams._NORM_TOL - ulps * 2.0**-52)
        try:
            return replace(cb, row_factors=rows)
        except ValueError:
            pass
    raise AssertionError(f"no norm within 64 ulps of 1 + _NORM_TOL admitted for beam {b}")


_norm_slack = st.floats(-1.0, 1.0).map(lambda t: 1.0 + t * (beams._NORM_TOL - 1e-14))


@settings(max_examples=150, deadline=None)
@given(
    n_subbands=st.integers(1, 6),
    extra_paths=st.integers(1, 8),
    rx_cols=st.integers(2, 4),
    tx_scales=st.lists(_norm_slack, min_size=1, max_size=10),
    rx_scales=st.lists(_norm_slack, min_size=1, max_size=6),
    aim=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# one subband and an rx beam aimed at the best tx row: Cauchy-Schwarz is
# tight, so that beam's entry exceeds the bound of a unit-norm margin
@example(n_subbands=1, extra_paths=1, rx_cols=2, tx_scales=[1.0, 1.0], rx_scales=[1.0],
         aim=True, seed=0)
def test_element_basis_sweep_admits_every_norm_the_codebook_does(
    n_subbands, extra_paths, rx_cols, tx_scales, rx_scales, aim, seed
):
    # P > N_rx: the rx weights enter the bound only through their norm, which
    # BeamCodebook admits within 1e-9 of 1; one rx beam sits at the upper edge
    rng = np.random.default_rng(seed)
    tx_arr, rx_arr = PlanarArray(2, 3, LAM), PlanarArray(1, rx_cols, LAM)
    ch = build_channel_matrices(_random_records(rng, rx_cols + extra_paths), tx_arr, rx_arr,
                                SubbandGrid(28e9, 400e6, n_subbands))
    cb_tx = _scaled_codebook(rng, tx_arr, len(tx_scales), tx_scales)
    cb_rx = _scaled_codebook(rng, rx_arr, len(rx_scales), rx_scales)
    edge = len(rx_scales) - 1
    if aim:  # the last rx beam along the best tx row's strongest rx-element direction
        tx_paths, coef, (a_rx_t, _), _ = beams._sweep_factors(ch.paths, 1, ch.grid, cb_tx,
                                                              cb_rx, 0.5)
        z = (tx_paths[0, :, None, :] * coef[0]) @ a_rx_t[0]  # (n_tx_b, m, N_rx)
        best = int(np.argmax((np.abs(z) ** 2).sum(axis=(1, 2))))
        v = np.linalg.svd(z[best])[2][0]  # w = v maximises sum_k |z_k . w^*|^2
        cols = cb_rx.col_factors.copy()
        cols[edge] = v * math.sqrt(rx_cols)
        cb_rx = replace(cb_rx, col_factors=cols)
    cb_rx = _at_upper_edge(cb_rx, edge)
    tx_paths, coef, rx_side, scale = beams._sweep_factors(ch.paths, 1, ch.grid, cb_tx, cb_rx, 0.5)
    assert len(rx_side) == 2
    table = sweep_power_table(ch, cb_tx, cb_rx, 0.5)
    assert np.all(beams._row_bounds(tx_paths, coef, rx_side, scale)[0, :, None] >= table)
    want = select_best_pair(table, cb_tx, cb_rx)
    got = ideal_beam_sweeps([ch], cb_tx, cb_rx, 0.5)[0]
    assert (got.tx_index, got.rx_index) == (want.tx_index, want.rx_index)
    assert np.float64(got.power_w).tobytes() == np.float64(want.power_w).tobytes()


@pytest.mark.parametrize("n_paths", [6, 20], ids=["gram-k-above-p", "gram-k-below-p"])
def test_element_basis_bound_is_the_cauchy_schwarz_sum(n_paths):
    # with K = 8 subbands and 4 rx elements, 91 tx beams take the Gram form,
    # and the bound is scale * sum_k |z_ik|^2, widened by the admitted norm
    # slack 2 * _NORM_TOL, up to its rounding margin, so it keeps no more
    # rows than that sum would
    rng = np.random.default_rng(n_paths)
    tx_arr, rx_arr = PlanarArray(2, 3, LAM), PlanarArray(2, 2, LAM)
    ch = build_channel_matrices(_random_records(rng, n_paths), tx_arr, rx_arr,
                                SubbandGrid(28e9, 400e6, 8))
    cb_tx = generate_codebook(tx_arr, -90.0, 90.0, 15.0)
    cb_rx = generate_codebook(rx_arr, -180.0, 90.0, 90.0, 60.0, 120.0, 60.0)
    tx_paths, coef, rx_side, scale = beams._sweep_factors(ch.paths, 1, ch.grid, cb_tx, cb_rx, 0.5)
    z = np.einsum("ip,kp,pn->ikn", tx_paths[0], ch.coef, ch.a_rx.T)
    exact = 0.5 / 8 * (np.abs(z) ** 2).sum(axis=(1, 2))
    bound = beams._row_bounds(tx_paths, coef, rx_side, scale)[0]
    np.testing.assert_allclose(bound, exact * (1 + 2 * beams._NORM_TOL), rtol=1e-9, atol=0.0)


@settings(max_examples=80, deadline=None)
@given(
    exponents=st.lists(st.floats(150.0, 160.0), min_size=1, max_size=8),
    null_rx=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# NaN bounds on finite tables whose maximum is not among the rows a NaN
# bound would leave: the element basis, with and without the nulling beam,
# and the path basis
@example(exponents=[154.0, 150.0, 150.0], null_rx=True, seed=0)
@example(exponents=[150.0, 150.0, 154.0], null_rx=False, seed=0)
@example(exponents=[156.0, 153.0], null_rx=True, seed=1)
def test_near_overflow_sweep_returns_the_tables_pair_or_raises(exponents, null_rx, seed):
    # gains of 1e150..1e160; three or more paths on the 1x2 rx array are the
    # element basis, one or two the path basis. With null_rx the one rx beam
    # (az -30) nulls the first path (az 30): its products overflow in the
    # bound (Q, or coef^H coef), which turns NaN, while the table stays
    # finite. The sweep picks the table's pair, or raises the table's
    # overflow line when its maximum is not finite
    rng = np.random.default_rng(seed)
    tx_arr, rx_arr = PlanarArray(2, 2, LAM), PlanarArray(1, 2, LAM)
    records = [replace(r, t=0.25, gain_mag=10.0**e)
               for r, e in zip(_random_records(rng, len(exponents)), exponents)]
    records[0] = replace(records[0], aoa_az=30.0, aoa_zen=90.0)
    ch = build_channel_matrices(records, tx_arr, rx_arr, GRID, t=0.25)
    cb_tx = generate_codebook(tx_arr, -60.0, 60.0, 30.0)
    if null_rx:
        cb_rx = generate_codebook(rx_arr, -30.0, -30.0, 1.0, 90.0, 90.0, 1.0)
    else:
        cb_rx = generate_codebook(rx_arr, -60.0, 60.0, 30.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error replaces numpy's overflow warnings
        try:
            table = sweep_power_table(ch, cb_tx, cb_rx, 1.0)
        except ValueError as exc:
            assert str(exc) == "received power at t=0.25 overflows to inf"
            with pytest.raises(ValueError, match=r"^received power at t=0\.25 overflows to inf$"):
                ideal_beam_sweep(ch, cb_tx, cb_rx, 1.0)
            return
        got = ideal_beam_sweep(ch, cb_tx, cb_rx, 1.0)
    want = select_best_pair(table, cb_tx, cb_rx)
    assert (got.tx_index, got.rx_index) == (want.tx_index, want.rx_index)
    assert np.float64(got.power_w).tobytes() == np.float64(want.power_w).tobytes()


def test_single_path_sweep_computes_two_rows(monkeypatch):
    # one path: the bound is tight, so only the two best-bounded tx rows of
    # the 637 are computed, and they hold the winner
    tx_arr = PlanarArray(16, 128, LAM)
    rx_arr = PlanarArray(4, 4, LAM)
    rec = mk_record(aod_az=37.0, aod_zen=100.0, aoa_az=-140.0, aoa_zen=80.0)
    ch = _channel([rec], tx_arr, rx_arr)
    cb_tx = generate_codebook(tx_arr, 0.0, 90.0, 1.0)
    cb_rx = generate_codebook(rx_arr, -180.0, 170.0, 10.0)
    rows = []
    kernel = beams._power_rows

    def counting(tx_paths, *args):  # tx rows confirmed, over every channel of the call
        rows.append(math.prod(tx_paths.shape[:-1]))
        return kernel(tx_paths, *args)

    monkeypatch.setattr(beams, "_power_rows", counting)
    sel = ideal_beam_sweep(ch, cb_tx, cb_rx, 1.0)
    assert rows == [2]
    assert (sel.tx_direction.azimuth_deg, sel.tx_direction.zenith_deg) == (37.0, 100.0)


def _spy(monkeypatch, name, record):
    """Replace beams.<name> by a wrapper that appends record(*args) on each call."""
    kernel = getattr(beams, name)

    def spying(*args):
        record(*args)
        return kernel(*args)

    monkeypatch.setattr(beams, name, spying)


def test_single_path_sweep_projects_one_zenith_group(monkeypatch):
    # the case above: the row-factor bound of the beam's zenith group (100 deg)
    # is the only one that reaches the tie threshold, so the column product is
    # formed for that group's 91 beams alone, and two of them are confirmed
    tx_arr, rx_arr = PlanarArray(16, 128, LAM), PlanarArray(4, 4, LAM)
    rec = mk_record(aod_az=37.0, aod_zen=100.0, aoa_az=-140.0, aoa_zen=80.0)
    ch = _channel([rec], tx_arr, rx_arr)
    cb_tx = generate_codebook(tx_arr, 0.0, 90.0, 1.0)
    cb_rx = generate_codebook(rx_arr, -180.0, 170.0, 10.0)
    projected, rows = [], []
    _spy(monkeypatch, "_project", lambda cb, b, *args: cb is cb_tx and projected.append(b.copy()))
    _spy(monkeypatch, "_power_rows", lambda tx_paths, *args: rows.append(tx_paths.shape[-2]))
    sel = ideal_beam_sweep(ch, cb_tx, cb_rx, 1.0)
    assert [len(b) for b in projected] == [91] and rows == [2]
    assert set(cb_tx.zenith_deg[projected[0]].tolist()) == {100.0}
    assert (sel.tx_direction.azimuth_deg, sel.tx_direction.zenith_deg) == (37.0, 100.0)


def test_many_path_element_basis_sweep_takes_the_whole_projection(monkeypatch):
    # the dense_replay shape: 64 paths on 64 subbands over corner's arrays and
    # codebooks, more paths than the 16 rx elements. No beam is pruned by its
    # row factor: the 252 tx beams are projected in one product, bounded by the
    # Gram form, and two rows are confirmed first, as with no row-factor bound
    setup = build_setup(load_config(CORNER_CFG))
    rng = np.random.default_rng(64)
    records = _random_records(rng, 64)
    records[0] = replace(records[0], gain_mag=1e-3)
    ch = build_channel_matrices(records, setup.tx_array, setup.rx_array,
                                SubbandGrid(28e9, 400e6, 64))
    cb_tx, cb_rx = setup.tx_codebook, setup.rx_codebook
    want = select_best_pair(sweep_power_table(ch, cb_tx, cb_rx, 1.0), cb_tx, cb_rx)
    rows = []
    _spy(monkeypatch, "_project", lambda cb, b, *args: rows.append(("project", len(b))))
    _spy(monkeypatch, "_power_rows", lambda tx_paths, *args: rows.append(tx_paths.shape[-2]))
    got = ideal_beam_sweep(ch, cb_tx, cb_rx, 1.0)
    assert rows[:2] == [("project", 252), 2], rows
    assert not any(isinstance(r, tuple) for r in rows[2:]), rows
    assert (got.tx_index, got.rx_index) == (want.tx_index, want.rx_index)
    assert np.float64(got.power_w).tobytes() == np.float64(want.power_w).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    n_subbands=st.integers(1, 8),
    n_paths=st.integers(1, 4),
    spacing=st.sampled_from([0.5, 0.7, 1.0]),
    bearing=st.sampled_from([0.0, 35.0, -120.0]),
    distinct=st.booleans(),
    zero=st.lists(st.booleans(), min_size=4, max_size=4),
    exponent=st.sampled_from([None, 150.0, 153.0, 154.0, 155.0]),
    aligned=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# one path exactly on a beam of both codebooks (K = 1, and K = 1 with grating
# lobes): the group bound of that beam's zenith exceeds its power only by the
# admitted norm slack (1 + _NORM_TOL)^2 and the rounding margin
@example(n_subbands=1, n_paths=1, spacing=0.5, bearing=0.0, distinct=False,
         zero=[False] * 4, exponent=None, aligned=True, seed=0)
@example(n_subbands=1, n_paths=1, spacing=1.0, bearing=35.0, distinct=False,
         zero=[False] * 4, exponent=None, aligned=True, seed=1)
# a gain of 1e154 overflows the bound (inf) while the table stays finite
@example(n_subbands=8, n_paths=3, spacing=0.7, bearing=-120.0, distinct=False,
         zero=[False, True, False, False], exponent=154.0, aligned=False, seed=2)
@example(n_subbands=5, n_paths=4, spacing=0.5, bearing=0.0, distinct=True,
         zero=[False, False, True, False], exponent=None, aligned=False, seed=3)
def test_group_bound_covers_every_row_of_its_group(
    n_subbands, n_paths, spacing, bearing, distinct, zero, exponent, aligned, seed
):
    # 1-4 paths on a 2x2 rx array are the path basis, where the sweep bounds each
    # tx beam's power by its row factor alone before projecting it. The bound is
    # at or above every computed entry of every row of its group, on a grid
    # codebook (7 row factors, one per zenith, tiled over the azimuths) and on a
    # hand-built one whose row factors all differ; spacings of 0.7 and 1.0
    # wavelengths have grating lobes. The sweep picks the table's pair, bit for bit
    rng = np.random.default_rng(seed)
    tx_arr = PlanarArray(3, 4, LAM, spacing=spacing, bearing_deg=bearing)
    rx_arr = PlanarArray(2, 2, LAM)
    cb_tx = (_scaled_codebook(rng, tx_arr, 24, np.ones(24)) if distinct
             else generate_codebook(tx_arr, -90.0, 90.0, 15.0))
    cb_rx = generate_codebook(rx_arr, -180.0, 90.0, 90.0, 60.0, 120.0, 60.0)
    records = [replace(r, gain_mag=0.0) if z else r
               for r, z in zip(_random_records(rng, n_paths), zero)]
    if exponent is not None:
        records[0] = replace(records[0], gain_mag=10.0**exponent)
    aligned = aligned and not distinct
    if aligned:  # one path, on tx beam 40 (az -15, zen 110) and rx beam 2 (az -90, zen 60)
        records = [mk_record(gain_mag=1e-4, aod_az=-15.0, aod_zen=110.0, aoa_az=-90.0,
                             aoa_zen=60.0)]
    ch = build_channel_matrices(records, tx_arr, rx_arr, SubbandGrid(28e9, 400e6, n_subbands))
    distinct_rows, _, group, _ = cb_tx._row_groups
    assert len(distinct_rows) == (24 if distinct else 7)
    coef, rx_side, scale = beams._rx_terms(ch.paths, 1, ch.grid, cb_rx, 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        upper = beams._group_bounds(distinct_rows @ ch.paths.tx_rows.T.conj(), coef, rx_side[0],
                                    scale, cb_tx)[0]
        table = beams._power_rows(*beams._sweep_factors(ch.paths, 1, ch.grid, cb_tx, cb_rx,
                                                        0.5))[0]
    assert np.all(upper[group][:, None] >= table)
    if aligned:
        assert table[40, 2] >= table.max() * (1 - 1e-12)
        assert upper[group[40]] <= table[40, 2] * (1 + 2 * beams._NORM_TOL + 1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error replaces numpy's overflow warnings
        try:
            want = select_best_pair(sweep_power_table(ch, cb_tx, cb_rx, 0.5), cb_tx, cb_rx)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                ideal_beam_sweep(ch, cb_tx, cb_rx, 0.5)
            return
        got = ideal_beam_sweep(ch, cb_tx, cb_rx, 0.5)
    assert (got.tx_index, got.rx_index) == (want.tx_index, want.rx_index)
    assert np.float64(got.power_w).tobytes() == np.float64(want.power_w).tobytes()


@pytest.mark.parametrize("n_tx_beams", [1, 2])
@pytest.mark.parametrize("n_paths", [3, 6])
def test_one_or_two_tx_beams_match_full_table(n_tx_beams, n_paths):
    # the two best-bounded rows are then the whole table
    rng = np.random.default_rng(n_paths)
    tx_arr = PlanarArray(2, 2, LAM)
    rx_arr = PlanarArray(2, 2, LAM)  # 3 paths: path basis; 6: element basis
    ch = _channel(_random_records(rng, n_paths), tx_arr, rx_arr)
    cb_tx = generate_codebook(tx_arr, 0.0, 10.0 * (n_tx_beams - 1), 10.0, 90.0, 90.0, 1.0)
    cb_rx = generate_codebook(rx_arr, -180.0, 170.0, 30.0)
    want = select_best_pair(sweep_power_table(ch, cb_tx, cb_rx, 1.0), cb_tx, cb_rx)
    got = ideal_beam_sweep(ch, cb_tx, cb_rx, 1.0)
    assert (got.tx_index, got.rx_index) == (want.tx_index, want.rx_index)
    assert np.float64(got.power_w).tobytes() == np.float64(want.power_w).tobytes()


def test_many_path_sweep_never_computes_the_full_table(monkeypatch):
    # 24 paths on 16 rx elements put the rx side in the element basis; the
    # bound must leave most of the 252 tx rows uncomputed
    tx_arr = PlanarArray(16, 16, LAM)
    rx_arr = PlanarArray(4, 4, LAM)
    rng = np.random.default_rng(7)
    records = _random_records(rng, 24)
    records[0] = replace(records[0], gain_mag=1e-3)
    ch = build_channel_matrices(records, tx_arr, rx_arr, SubbandGrid(28e9, 400e6, 16))
    cb_tx = generate_codebook(tx_arr, -180.0, 170.0, 10.0)
    cb_rx = generate_codebook(rx_arr, -180.0, 170.0, 10.0)
    rows = []
    kernel = beams._power_rows

    def counting(tx_paths, *args):  # tx rows confirmed, over every channel of the call
        rows.append(math.prod(tx_paths.shape[:-1]))
        return kernel(tx_paths, *args)

    monkeypatch.setattr(beams, "_power_rows", counting)
    got = ideal_beam_sweep(ch, cb_tx, cb_rx, 1.0)
    assert rows[0] == 2 and sum(rows) < len(cb_tx) // 10, rows
    monkeypatch.setattr(beams, "_power_rows", kernel)
    want = select_best_pair(sweep_power_table(ch, cb_tx, cb_rx, 1.0), cb_tx, cb_rx)
    assert (got.tx_index, got.rx_index, got.power_w) == (want.tx_index, want.rx_index, want.power_w)


@pytest.mark.parametrize("n_paths", [0, 1, 20])
def test_zero_bound_sweep_computes_no_row(monkeypatch, n_paths):
    # corner's codebooks; no paths, or only zero-gain ones (1 path is the path
    # basis, 20 paths on 16 rx elements the element basis): every bound is 0
    setup = build_setup(load_config(CORNER_CFG))
    rng = np.random.default_rng(11)
    records = [replace(r, gain_mag=0.0) for r in _random_records(rng, n_paths)]
    ch = build_channel_matrices(records, setup.tx_array, setup.rx_array, setup.grid)
    cb_tx, cb_rx = setup.tx_codebook, setup.rx_codebook
    want = select_best_pair(sweep_power_table(ch, cb_tx, cb_rx, 1.0), cb_tx, cb_rx)
    rows = []
    kernel = beams._power_rows

    def counting(tx_paths, *args):  # tx rows confirmed, over every channel of the call
        rows.append(math.prod(tx_paths.shape[:-1]))
        return kernel(tx_paths, *args)

    monkeypatch.setattr(beams, "_power_rows", counting)
    got = ideal_beam_sweep(ch, cb_tx, cb_rx, 1.0)
    assert rows == []
    assert (got.tx_index, got.rx_index) == (want.tx_index, want.rx_index) == (0, 0)
    assert np.float64(got.power_w).tobytes() == np.float64(want.power_w).tobytes()


@settings(max_examples=120, deadline=None)
@given(
    rows=st.lists(st.tuples(st.sampled_from([0, 1, 1, 2, 3, 5, 7]), st.booleans()),
                  min_size=1, max_size=8),
    n_subbands=st.integers(1, 6),
    rx_shape=st.sampled_from([(1, 2), (2, 2)]),
    tx_beams=st.sampled_from([1, 2, 21, 91]),
    rx_beams=st.sampled_from([1, 8]),
    sweep_bytes=st.sampled_from([1, 3000, 10000, 1 << 16]),
    seed=st.integers(0, 2**32 - 1),
)
# each row is (paths, all gains zero): outage rows (P = 0) between equal and
# mixed path counts, P on both sides of N_rx = 4, chunks of two 1-path
# channels of the 91-beam codebook, and zero-gain channels (every bound 0)
# in a chunk with live ones. The next three are on the table side of the
# element basis (P > N_rx, where the Gram form would cost about the table):
# 1, 2 and 21 tx beams, K above and below P, chunks of one channel and of
# several, and a zero-gain channel among them. The last one's 21 tx beams on
# K = 6 take the Gram form
@example(rows=[(1, False), (0, False), (1, True), (1, False), (5, False), (0, False),
               (3, False), (5, True)],
         n_subbands=4, rx_shape=(2, 2), tx_beams=91, rx_beams=8, sweep_bytes=3000, seed=0)
@example(rows=[(2, False), (2, True), (2, False)], n_subbands=1, rx_shape=(1, 2), tx_beams=1,
         rx_beams=1, sweep_bytes=1 << 16, seed=1)
@example(rows=[(0, False), (0, False)], n_subbands=3, rx_shape=(2, 2), tx_beams=2, rx_beams=8,
         sweep_bytes=1, seed=2)
@example(rows=[(5, False), (7, False), (5, True), (5, False), (7, False)], n_subbands=6,
         rx_shape=(2, 2), tx_beams=1, rx_beams=8, sweep_bytes=1 << 16, seed=3)
@example(rows=[(6, False), (6, False), (3, False), (6, False)], n_subbands=2, rx_shape=(2, 2),
         tx_beams=2, rx_beams=1, sweep_bytes=3000, seed=4)
@example(rows=[(5, False), (5, False), (7, True), (7, False)], n_subbands=1, rx_shape=(1, 2),
         tx_beams=21, rx_beams=8, sweep_bytes=1, seed=5)
@example(rows=[(5, False), (5, False), (7, False), (7, False)], n_subbands=6, rx_shape=(2, 2),
         tx_beams=21, rx_beams=8, sweep_bytes=10000, seed=6)
def test_batched_sweeps_match_per_channel_sweeps(
    rows, n_subbands, rx_shape, tx_beams, rx_beams, sweep_bytes, seed
):
    # one batch of channels against each channel swept alone: in a batch the
    # tx projection may be a matrix-matrix product, so a power may move in
    # its last bits, but no winner moves. A channel swept alone computes every
    # product as its table does, so its pick and power are the table's, bit
    # for bit. Where the element basis has no bound cheaper than the table,
    # the batch computes each tx row of each channel exactly once
    rng = np.random.default_rng(seed)
    grid = SubbandGrid(28e9, 400e6, n_subbands)
    tx_arr = PlanarArray(2, 3, LAM, bearing_deg=float(rng.uniform(-90, 90)))
    rx_arr = PlanarArray(*rx_shape, LAM)
    channels = [
        build_channel_matrices(
            [replace(r, t=0.1 * k, gain_mag=0.0 if zero else r.gain_mag)
             for r in _random_records(rng, n_paths)],
            tx_arr, rx_arr, grid, t=0.1 * k)
        for k, (n_paths, zero) in enumerate(rows)
    ]
    if tx_beams == 91:
        cb_tx = generate_codebook(tx_arr, -90.0, 90.0, 15.0)
    elif tx_beams == 21:
        cb_tx = generate_codebook(tx_arr, -90.0, 90.0, 30.0, 60.0, 120.0, 30.0)
    else:
        cb_tx = generate_codebook(tx_arr, 0.0, 10.0 * (tx_beams - 1), 10.0, 90.0, 90.0, 1.0)
    if rx_beams == 1:
        cb_rx = generate_codebook(rx_arr, 0.0, 0.0, 1.0, 90.0, 90.0, 1.0)
    else:
        cb_rx = generate_codebook(rx_arr, -180.0, 90.0, 90.0, 60.0, 120.0, 60.0)
    assert (len(cb_tx), len(cb_rx)) == (tx_beams, rx_beams)
    want = [ideal_beam_sweep(ch, cb_tx, cb_rx, 0.5) for ch in channels]
    for ch, w in zip(channels, want):
        t = select_best_pair(sweep_power_table(ch, cb_tx, cb_rx, 0.5), cb_tx, cb_rx)
        assert (w.tx_index, w.rx_index, w.power_w.hex()) == (t.tx_index, t.rx_index,
                                                            t.power_w.hex())
    seen = {}  # path count -> tx rows computed, over every channel of that count
    kernel = beams._power_rows

    def counting(tx_paths, *args):
        seen[tx_paths.shape[-1]] = seen.get(tx_paths.shape[-1], 0) + math.prod(tx_paths.shape[:-1])
        return kernel(tx_paths, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(beams, "_SWEEP_BYTES", sweep_bytes)
        mp.setattr(beams, "_power_rows", counting)
        got = ideal_beam_sweeps(channels, cb_tx, cb_rx, 0.5)
    for g, w in zip(got, want, strict=True):
        assert (g.tx_index, g.rx_index) == (w.tx_index, w.rx_index)
        assert g.power_w == pytest.approx(w.power_w, rel=1e-12, abs=0.0)
    n_rx = rx_arr.n_elements
    for p in {n_paths for n_paths, _ in rows}:
        m = min(n_subbands, p)  # coefficient rows
        if p > n_rx and p * (n_rx + m + tx_beams) >= m * tx_beams * n_rx:  # no Gram form
            assert seen[p] == tx_beams * sum(n_paths == p for n_paths, _ in rows)


@pytest.mark.parametrize("n_paths", [3, 6], ids=["path-basis", "element-basis"])
def test_batched_sweeps_group_channels_by_grid(n_paths):
    # channels with equal (K, P) on two grids that differ only in bandwidth
    # are swept apart: each one's pick and power are its own sweep's, bit for bit
    rng = np.random.default_rng(n_paths)
    tx_arr, rx_arr = PlanarArray(2, 3, LAM, bearing_deg=10.0), PlanarArray(2, 2, LAM)
    cb_tx = generate_codebook(tx_arr, -90.0, 90.0, 15.0)
    cb_rx = generate_codebook(rx_arr, -180.0, 90.0, 90.0, 60.0, 120.0, 60.0)
    channels = [build_channel_matrices(_random_records(rng, n_paths), tx_arr, rx_arr,
                                       SubbandGrid(28e9, bandwidth, 4))
                for bandwidth in (100e6, 400e6)]
    got = ideal_beam_sweeps(channels, cb_tx, cb_rx, 0.5)
    for g, ch in zip(got, channels, strict=True):
        w = ideal_beam_sweep(ch, cb_tx, cb_rx, 0.5)
        assert (g.tx_index, g.rx_index, g.power_w.hex()) == (w.tx_index, w.rx_index,
                                                            w.power_w.hex())


def test_batched_sweep_names_the_first_overflowing_channel():
    # every channel is swept before the first non-finite winner raises
    tx_arr, rx_arr = PlanarArray(2, 2, LAM), PlanarArray(1, 2, LAM)
    cb_tx = generate_codebook(tx_arr, -60.0, 60.0, 30.0)
    cb_rx = generate_codebook(rx_arr, -60.0, 60.0, 30.0)
    gains = {0.5: 1e-6, 0.25: 1e170, 0.75: 1e200}  # 1e170 squares past float64's range
    channels = [_channel([mk_record(t=t, gain_mag=g, aod_az=20.0)], tx_arr, rx_arr)
                for t, g in gains.items()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^received power at t=0\.25 overflows to inf$"):
            ideal_beam_sweeps(channels, cb_tx, cb_rx, 1.0)


def test_overflowing_sweep_table_raises_naming_the_time():
    tx_arr, rx_arr = PlanarArray(2, 2, LAM), PlanarArray(1, 2, LAM)
    ch = _channel([mk_record(t=0.5, gain_mag=1e200)], tx_arr, rx_arr)
    cb_tx = generate_codebook(tx_arr, -60.0, 60.0, 30.0)
    cb_rx = generate_codebook(rx_arr, -60.0, 60.0, 30.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error replaces numpy's overflow warnings
        with pytest.raises(ValueError, match=r"^received power at t=0\.5 overflows to inf$"):
            sweep_power_table(ch, cb_tx, cb_rx, 1.0)


def test_beam_weights_and_projection_match_dense_weights():
    arr = PlanarArray(3, 5, LAM, bearing_deg=20.0)
    cb = generate_codebook(arr, -60.0, 60.0, 20.0)
    dense = cb.weights
    assert dense.flags.c_contiguous
    for i in range(len(cb)):
        np.testing.assert_allclose(
            dense[i], np.kron(cb.row_factors[i], cb.col_factors[i]) / math.sqrt(15),
            rtol=0, atol=1e-15)
    rng = np.random.default_rng(5)
    ch = _channel(_random_records(rng, 4), arr, arr)
    np.testing.assert_allclose(
        beams._project(cb, np.arange(len(cb)), beams._row_products(cb, ch.paths.tx_rows),
                       ch.paths.tx_cols, 1)[0], dense @ ch.a_tx.conj(), rtol=0, atol=1e-14)


@pytest.mark.parametrize("kind", ["grid", "one-zenith", "one-beam"])
def test_projected_rows_are_rows_of_the_whole_products(kind):
    # every row _project gives, for the whole codebook or a subset of its beams
    # (a single beam too), is bit-equal to that row of the whole products
    # (F_r A_r^H) * (F_c A_c^H) / sqrt(N) over every beam: a one-row product,
    # of one beam or of one distinct row factor, would run as a matrix-vector
    # product and round apart
    arr = PlanarArray(3, 5, LAM, bearing_deg=20.0)
    cb = {"grid": lambda: generate_codebook(arr, -60.0, 60.0, 20.0),
          "one-zenith": lambda: generate_codebook(arr, -60.0, 60.0, 20.0, 80.0, 80.0, 1.0),
          "one-beam": lambda: generate_codebook(arr, 20.0, 20.0, 1.0, 80.0, 80.0, 1.0)}[kind]()
    paths = _channel(_random_records(np.random.default_rng(5), 6), arr, arr).paths
    whole = cb.row_factors @ paths.tx_rows.T.conj()
    whole *= cb.col_factors @ paths.tx_cols.T.conj()
    whole *= 1.0 / math.sqrt(cb.n_elements)
    rho = beams._row_products(cb, paths.tx_rows)
    for subset in ([len(cb) - 1], range(len(cb)), range(0, len(cb), 2)):
        subset = np.array(subset, np.intp)
        got = beams._project(cb, subset, rho, paths.tx_cols, 1)
        assert got.shape == (1, len(subset), 6)
        assert got[0].tobytes() == whole[subset].tobytes()


def test_a_group_bound_keeps_a_channel_live_past_zero_row_bounds():
    # one hand-built path whose column factor is exactly orthogonal to those of
    # the best-bounded row-factor group (beams 0 and 1): their rows and row
    # bounds are exactly 0, but beam 2's group bound is positive, so the
    # channel stays live, projects that group and picks the table's pair
    one = np.ones((1, 2), complex)
    paths = PathFactors(np.array([1e-4 + 0j]), np.array([1e-7]), one.copy(),
                        np.array([[1, -1]], complex), np.ones((1, 1), complex), one.copy())
    ch = ChannelMatrixSet(paths, SubbandGrid(28e9, 400e6, 2), 0.0)
    cb_tx = BeamCodebook(np.array([0.0, 10.0, 20.0]), np.full(3, 90.0),
                         np.array([[1, 1], [1, 1], [1, 1j]]), np.array([[1, 1], [1, 1], [1, -1]]))
    cb_rx = generate_codebook(PlanarArray(1, 2, LAM), -90.0, 90.0, 90.0, 90.0, 90.0, 1.0)
    table = sweep_power_table(ch, cb_tx, cb_rx, 1.0)
    assert not table[:2].any() and table[2].any()
    want = select_best_pair(table, cb_tx, cb_rx)
    got = ideal_beam_sweep(ch, cb_tx, cb_rx, 1.0)
    assert want.tx_index == 2 and (got.tx_index, got.rx_index) == (want.tx_index, want.rx_index)
    assert got.power_w.hex() == want.power_w.hex()


def test_one_beam_group_is_projected_with_another_group(monkeypatch):
    # every beam of this codebook has a row factor of its own, so the best-bounded
    # group is one beam: the first round projects a second group with it, and
    # the first confirm takes two rows, as a matrix-matrix product. The pick is
    # the table's, bit for bit
    rng = np.random.default_rng(8)
    tx_arr, rx_arr = PlanarArray(3, 4, LAM), PlanarArray(2, 2, LAM)
    cb_tx = _scaled_codebook(rng, tx_arr, 24, np.ones(24))
    cb_rx = generate_codebook(rx_arr, -180.0, 90.0, 90.0, 60.0, 120.0, 60.0)
    ch = _channel(_random_records(rng, 3), tx_arr, rx_arr)
    want = select_best_pair(sweep_power_table(ch, cb_tx, cb_rx, 1.0), cb_tx, cb_rx)
    projected, rows = [], []
    _spy(monkeypatch, "_project", lambda cb, b, *args: cb is cb_tx and projected.append(len(b)))
    _spy(monkeypatch, "_power_rows", lambda tx_paths, *args: rows.append(tx_paths.shape[-2]))
    got = ideal_beam_sweep(ch, cb_tx, cb_rx, 1.0)
    assert projected[0] == 2 and rows[0] == 2, (projected, rows)
    assert (got.tx_index, got.rx_index) == (want.tx_index, want.rx_index)
    assert got.power_w.hex() == want.power_w.hex()


@pytest.mark.parametrize("n_paths", [1, 3], ids=["path-basis", "element-basis"])
def test_overflowing_sweep_raises_naming_the_time(n_paths):
    # a 1x2 rx array takes three paths in the element basis
    tx_arr, rx_arr = PlanarArray(2, 2, LAM), PlanarArray(1, 2, LAM)
    records = [mk_record(t=0.25, path_id=p, gain_mag=1e170, aod_az=20.0 * p, aoa_az=-30.0 * p)
               for p in range(n_paths)]
    ch = _channel(records, tx_arr, rx_arr)
    cb_tx = generate_codebook(tx_arr, -60.0, 60.0, 30.0)
    cb_rx = generate_codebook(rx_arr, -60.0, 60.0, 30.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error replaces numpy's overflow warnings
        with pytest.raises(ValueError, match=r"^received power at t=0\.25 overflows to (inf|nan)$"):
            ideal_beam_sweep(ch, cb_tx, cb_rx, 1.0)


def _per_channel_picks(f, n, grid, cb_tx, cb_rx, p_tx_w):
    """The chunk sweep with its tie rule run one channel at a time: each channel's
    (tx index, rx index, power, table maximum), an oracle for _sweep_chunk."""
    tx_paths, coef, rx_side, scale = beams._sweep_factors(f, n, grid, cb_tx, cb_rx, p_tx_w)
    bound = beams._row_bounds(tx_paths, coef, rx_side, scale)
    n_tx = bound.shape[1]
    n_top = n_tx if np.isinf(bound).all() else min(2, n_tx)
    top = np.sort(np.argpartition(bound, -n_top, axis=1)[:, -n_top:], axis=1)
    top_paths = tx_paths if n_top == n_tx else np.take_along_axis(tx_paths, top[:, :, None], axis=1)
    table = beams._power_rows(top_paths, coef, rx_side, scale)
    threshold = table.max(axis=(1, 2)) * (1.0 - TIE_RTOL)
    inside = (bound >= threshold[:, None]).sum(axis=1) == (
        np.take_along_axis(bound, top, axis=1) >= threshold[:, None]).sum(axis=1)
    out = []
    for g in range(n):
        if not bound[g].any():
            out.append((0, 0, 0.0, 0.0))
            continue
        rows, t = top[g], table[g]
        if not inside[g]:
            rows = np.flatnonzero(bound[g] >= threshold[g])
            t = beams._power_rows(tx_paths[g, rows], coef[g], (rx_side[0][g], *rx_side[1:]), scale)
        k, ri = divmod(int(np.argmax(t >= t.max() * (1.0 - TIE_RTOL))), t.shape[1])
        out.append((int(rows[k]), ri, float(t[k, ri]), float(t.max())))
    return out


def _mirror_codebook(array):
    """Beams at az and 180 - az, zenith z and 180 - z: on a one-row array with no
    bearing their weights agree but for rounding, so up to four rows tie."""
    return generate_codebook(array, -150.0, 150.0, 30.0, 60.0, 120.0, 60.0)


@settings(max_examples=120, deadline=None)
@given(
    rows=st.lists(st.tuples(st.sampled_from([0, 1, 2, 5]), st.booleans()), min_size=1,
                  max_size=13),
    tx_kind=st.sampled_from(["grid", "mirror", "one"]),
    rx_shape=st.sampled_from([(1, 2), (2, 2)]),
    n_subbands=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
# one-path channels on the mirror codebook: two of four tied rows are the top
# rows, so every live channel confirms the rest; a zero-gain one among them
@example(rows=[(1, False), (1, True), (1, False)], tx_kind="mirror", rx_shape=(2, 2),
         n_subbands=2, seed=0)
# five paths on two rx elements and one subband: the element basis with no
# bound, whole tables; and a one-beam tx codebook
@example(rows=[(5, False)] * 13, tx_kind="mirror", rx_shape=(1, 2), n_subbands=1, seed=1)
@example(rows=[(5, False), (2, True), (0, False), (5, False)], tx_kind="one", rx_shape=(1, 2),
         n_subbands=3, seed=2)
def test_chunk_pick_is_the_per_channel_pick(rows, tx_kind, rx_shape, n_subbands, seed):
    # every channel of a chunk, picked in one vectorised pass (and a second
    # confirm where its tie threshold reaches rows outside the top ones), gets
    # the winner and the power bits of the same rule run on that channel alone
    rng = np.random.default_rng(seed)
    grid = SubbandGrid(28e9, 400e6, n_subbands)
    tx_arr = PlanarArray(1, 4, LAM) if tx_kind == "mirror" else PlanarArray(2, 3, LAM,
                                                                             bearing_deg=25.0)
    rx_arr = PlanarArray(*rx_shape, LAM)
    cb_tx = {"grid": lambda: generate_codebook(tx_arr, -90.0, 90.0, 15.0),
             "mirror": lambda: _mirror_codebook(tx_arr),
             "one": lambda: generate_codebook(tx_arr, 20.0, 20.0, 1.0, 90.0, 90.0, 1.0)}[tx_kind]()
    cb_rx = generate_codebook(rx_arr, -180.0, 90.0, 90.0, 60.0, 120.0, 60.0)
    channels = [build_channel_matrices(
        [replace(r, t=0.1 * k, gain_mag=0.0 if zero else r.gain_mag)
         for r in _random_records(rng, n_paths)], tx_arr, rx_arr, grid, t=0.1 * k)
        for k, (n_paths, zero) in enumerate(rows)]
    counts = np.array([len(ch.paths) for ch in channels])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(beams, "_SWEEP_BYTES", 1 << 40)  # one chunk per path count
        got = beams._sweep_spans(beams._stacked(channels), np.cumsum(counts) - counts, counts,
                                 [ch.time for ch in channels], grid, cb_tx, cb_rx, 0.5)
    got = list(zip(*(column.tolist() for column in got)))
    for p in set(counts.tolist()):
        members = np.flatnonzero(counts == p).tolist()
        group = [channels[i] for i in members]
        want = _per_channel_picks(beams._stacked(group), len(group), grid, cb_tx, cb_rx, 0.5)
        for i, (tx, rx, power, _) in zip(members, want):
            assert got[i][:2] == (tx, rx), f"channel {i}"
            assert got[i][2].hex() == power.hex(), f"channel {i}"
    for ch in channels[:1]:  # a one-channel chunk is the table's pick
        table = sweep_power_table(ch, cb_tx, cb_rx, 0.5)
        want = select_best_pair(table, cb_tx, cb_rx)
        alone = beams._sweep_chunk(beams._stacked([ch]), 1, grid, cb_tx, cb_rx, 0.5)
        assert [c.tolist() for c in alone][:3] == [[want.tx_index], [want.rx_index],
                                                  [want.power_w]]
        assert float(alone[2][0]).hex() == want.power_w.hex()


def test_mirror_ties_take_the_second_confirm(monkeypatch):
    # one path: the bound is tight, so the mirror twins of the winning row reach
    # its tie threshold and are confirmed after the two top rows
    tx_arr = PlanarArray(1, 4, LAM)
    cb_tx, cb_rx = _mirror_codebook(tx_arr), generate_codebook(PlanarArray(2, 2, LAM), 0.0,
                                                               0.0, 1.0, 90.0, 90.0, 1.0)
    ch = _channel([mk_record(aod_az=30.0, aod_zen=60.0)], tx_arr, PlanarArray(2, 2, LAM))
    rows, kernel = [], beams._power_rows

    def counting(tx_paths, *args):
        rows.append(tx_paths.shape[-2])
        return kernel(tx_paths, *args)

    monkeypatch.setattr(beams, "_power_rows", counting)
    got = ideal_beam_sweep(ch, cb_tx, cb_rx, 1.0)
    assert rows[0] == 2 and len(rows) == 2 and rows[1] > 2, rows
    monkeypatch.setattr(beams, "_power_rows", kernel)
    want = select_best_pair(sweep_power_table(ch, cb_tx, cb_rx, 1.0), cb_tx, cb_rx)
    assert (got.tx_index, got.rx_index, got.power_w) == (want.tx_index, want.rx_index,
                                                         want.power_w)


@settings(max_examples=100, deadline=None)
@given(
    zero=st.lists(st.booleans(), min_size=1, max_size=6),
    n_paths=st.integers(1, 5),
    tx_kind=st.sampled_from(["grid", "mirror", "one-zenith", "one-beam"]),
    n_subbands=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
# two one-path channels on the grid codebook, one of them zero-gain
@example(zero=[False, True], n_paths=1, tx_kind="grid", n_subbands=1, seed=0)
def test_every_group_in_round_one_picks_as_the_rounds(zero, n_paths, tx_kind, n_subbands, seed):
    # path-basis chunks (1-5 paths on 6 rx elements). With every group bound
    # patched to inf, as in the element basis, the first round projects every
    # beam in one product; the picks and power bits are those of the rounds
    # that the row-factor bounds take
    rng = np.random.default_rng(seed)
    grid = SubbandGrid(28e9, 400e6, n_subbands)
    tx_arr = PlanarArray(1, 4, LAM) if tx_kind == "mirror" else PlanarArray(2, 3, LAM,
                                                                             bearing_deg=25.0)
    rx_arr = PlanarArray(2, 3, LAM)
    cb_tx = {"grid": lambda: generate_codebook(tx_arr, -90.0, 90.0, 15.0),
             "mirror": lambda: _mirror_codebook(tx_arr),
             "one-zenith": lambda: generate_codebook(tx_arr, -90.0, 90.0, 30.0, 90.0, 90.0, 1.0),
             "one-beam": lambda: generate_codebook(tx_arr, 20.0, 20.0, 1.0, 90.0, 90.0, 1.0)
             }[tx_kind]()
    cb_rx = generate_codebook(rx_arr, -180.0, 90.0, 90.0, 60.0, 120.0, 60.0)
    channels = [build_channel_matrices(
        [replace(r, t=0.1 * k, gain_mag=0.0 if z else r.gain_mag)
         for r in _random_records(rng, n_paths)], tx_arr, rx_arr, grid, t=0.1 * k)
        for k, z in enumerate(zero)]
    f, n = beams._stacked(channels), len(channels)
    want = beams._sweep_chunk(f, n, grid, cb_tx, cb_rx, 0.5)
    projected = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(beams, "_group_bounds",
                   lambda rho, coef, *args: np.full((len(coef), len(rho)), np.inf))
        _spy(mp, "_project", lambda cb, b, *args: cb is cb_tx and projected.append(len(b)))
        got = beams._sweep_chunk(f, n, grid, cb_tx, cb_rx, 0.5)
    assert projected == [len(cb_tx)]
    assert [c.tolist() for c in got[:2]] == [c.tolist() for c in want[:2]]
    assert got[2].tobytes() == want[2].tobytes()


def test_second_round_projects_the_groups_that_reach_the_threshold(monkeypatch):
    # two paths at tx zeniths 70 and 100: the first round projects the 13 beams
    # of the best-bounded zenith group, and after its confirm the bounds of
    # three more groups still reach the tie threshold, so a second round
    # projects them. The pick is the table's, bit for bit
    tx_arr, rx_arr = PlanarArray(4, 4, LAM), PlanarArray(2, 2, LAM)
    cb_tx = generate_codebook(tx_arr, -90.0, 90.0, 15.0)
    cb_rx = generate_codebook(rx_arr, -180.0, 90.0, 90.0, 60.0, 120.0, 60.0)
    records = [mk_record(path_id=0, gain_mag=1e-4, aod_az=30.0, aod_zen=70.0, aoa_az=-90.0,
                         aoa_zen=60.0),
               mk_record(path_id=1, gain_mag=5e-5, aod_az=-45.0, aod_zen=100.0, aoa_az=0.0,
                         aoa_zen=120.0, delay=2e-7)]
    ch = build_channel_matrices(records, tx_arr, rx_arr, SubbandGrid(28e9, 400e6, 4))
    want = select_best_pair(sweep_power_table(ch, cb_tx, cb_rx, 1.0), cb_tx, cb_rx)
    projected = []
    _spy(monkeypatch, "_project", lambda cb, b, *args: cb is cb_tx and projected.append(b.copy()))
    got = ideal_beam_sweep(ch, cb_tx, cb_rx, 1.0)
    assert [len(b) for b in projected] == [13, 39]
    assert len(set(cb_tx.zenith_deg[projected[0]].tolist())) == 1
    assert (got.tx_index, got.rx_index) == (want.tx_index, want.rx_index)
    assert got.power_w.hex() == want.power_w.hex()
