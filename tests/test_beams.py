"""Codebook generation and exhaustive beam sweeps."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CORNER_CFG, mk_record
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
    dup = BeamCodebook(base.directions + base.directions,
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
    dirs = (Direction(30.0, 90.0), Direction(150.0, 90.0))
    # half-wavelength columns: column factor exp(j pi c sin(az)) at zenith 90
    cols = np.exp(1j * math.pi * np.outer(np.sin(np.radians([30.0, 150.0])), np.arange(2)))
    cb_tx = BeamCodebook(dirs, np.ones((2, 1), dtype=complex), cols)
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
    rows, cols, dirs = list(cb.row_factors), list(cb.col_factors), list(cb.directions)
    beam = (cb.row_factors[index], cb.col_factors[index], cb.directions[index])
    for before, k in copies:
        at = index if before else index + 1
        rows.insert(at, beam[0] * math.sqrt(1.0 - TIE_RTOL + k * 2.0**-52))
        cols.insert(at, beam[1])
        dirs.insert(at, beam[2])
        index += before
    return BeamCodebook(tuple(dirs), np.array(rows), np.array(cols))


def _aimed_at_first_path(cb, array, records):
    """cb plus one beam aimed at the first record's arrival direction."""
    aim = generate_codebook(array, records[0].aoa_az, records[0].aoa_az, 1.0,
                            records[0].aoa_zen, records[0].aoa_zen, 1.0)
    return BeamCodebook(cb.directions + aim.directions,
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
    return BeamCodebook(cb.directions[:1], cb.row_factors[:1], cb.col_factors[:1])


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
# the bound (K > P, 104 tx beams); the last two take the per-row loop, with
# more MACs in Q than in the loop (25 paths on K = 2, or one tx beam). All
# three have an rx beam aimed at a dominant path, so the bound is nearly
# tight, and all three fail without the margin
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
    tx_paths, coef, rx_side, scale = beams._sweep_factors([ch], cb_tx, cb_rx, 0.5)
    assert len(rx_side) == 2
    table = sweep_power_table(ch, cb_tx, cb_rx, 0.5)
    bound = beams._row_bounds(tx_paths, coef, rx_side, scale)
    assert np.all(bound[0, :, None] >= table)
    want = select_best_pair(table, cb_tx, cb_rx)
    got = ideal_beam_sweep(ch, cb_tx, cb_rx, 0.5)
    assert (got.tx_index, got.rx_index) == (want.tx_index, want.rx_index)
    assert np.float64(got.power_w).tobytes() == np.float64(want.power_w).tobytes()


@pytest.mark.parametrize("n_tx_beams, n_paths", [(91, 6), (91, 20), (1, 9)],
                         ids=["gram-k-above-p", "gram-k-below-p", "loop"])
def test_element_basis_bound_is_the_cauchy_schwarz_sum(n_tx_beams, n_paths):
    # with K = 8 subbands and 4 rx elements, 91 tx beams take the Gram form
    # and one tx beam the loop; either way the bound is scale * sum_k |z_ik|^2
    # up to its rounding margin, so it keeps no more rows than that sum would
    rng = np.random.default_rng(n_paths)
    tx_arr, rx_arr = PlanarArray(2, 3, LAM), PlanarArray(2, 2, LAM)
    ch = build_channel_matrices(_random_records(rng, n_paths), tx_arr, rx_arr,
                                SubbandGrid(28e9, 400e6, 8))
    cb_tx = generate_codebook(tx_arr, -90.0, 90.0, 15.0)
    cb_tx = cb_tx if n_tx_beams == 91 else _one_beam(cb_tx)
    cb_rx = generate_codebook(rx_arr, -180.0, 90.0, 90.0, 60.0, 120.0, 60.0)
    tx_paths, coef, rx_side, scale = beams._sweep_factors([ch], cb_tx, cb_rx, 0.5)
    assert len(tx_paths[0]) == n_tx_beams
    z = np.einsum("ip,kp,pn->ikn", tx_paths[0], ch.coef, ch.a_rx.T)
    exact = 0.5 / 8 * (np.abs(z) ** 2).sum(axis=(1, 2))
    bound = beams._row_bounds(tx_paths, coef, rx_side, scale)[0]
    np.testing.assert_allclose(bound, exact, rtol=1e-9, atol=0.0)


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
    tx_beams=st.sampled_from([1, 2, 91]),
    rx_beams=st.sampled_from([1, 8]),
    sweep_bytes=st.sampled_from([1, 3000, 10000, 1 << 16]),
    seed=st.integers(0, 2**32 - 1),
)
# each row is (paths, all gains zero): outage rows (P = 0) between equal and
# mixed path counts, P on both sides of N_rx = 4, chunks of two 1-path
# channels of the 91-beam codebook, and zero-gain channels (every bound 0)
# in a chunk with live ones
@example(rows=[(1, False), (0, False), (1, True), (1, False), (5, False), (0, False),
               (3, False), (5, True)],
         n_subbands=4, rx_shape=(2, 2), tx_beams=91, rx_beams=8, sweep_bytes=3000, seed=0)
@example(rows=[(2, False), (2, True), (2, False)], n_subbands=1, rx_shape=(1, 2), tx_beams=1,
         rx_beams=1, sweep_bytes=1 << 16, seed=1)
@example(rows=[(0, False), (0, False)], n_subbands=3, rx_shape=(2, 2), tx_beams=2, rx_beams=8,
         sweep_bytes=1, seed=2)
def test_batched_sweeps_match_per_channel_sweeps(
    rows, n_subbands, rx_shape, tx_beams, rx_beams, sweep_bytes, seed
):
    # one batch of channels against each channel swept alone: in a batch the
    # tx projection may be a matrix-matrix product, so a power may move in
    # its last bits, but no winner moves
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
    else:
        cb_tx = generate_codebook(tx_arr, 0.0, 10.0 * (tx_beams - 1), 10.0, 90.0, 90.0, 1.0)
    if rx_beams == 1:
        cb_rx = generate_codebook(rx_arr, 0.0, 0.0, 1.0, 90.0, 90.0, 1.0)
    else:
        cb_rx = generate_codebook(rx_arr, -180.0, 90.0, 90.0, 60.0, 120.0, 60.0)
    assert (len(cb_tx), len(cb_rx)) == (tx_beams, rx_beams)
    want = [ideal_beam_sweep(ch, cb_tx, cb_rx, 0.5) for ch in channels]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(beams, "_SWEEP_BYTES", sweep_bytes)
        got = ideal_beam_sweeps(channels, cb_tx, cb_rx, 0.5)
    for g, w in zip(got, want, strict=True):
        assert (g.tx_index, g.rx_index) == (w.tx_index, w.rx_index)
        assert g.power_w == pytest.approx(w.power_w, rel=1e-12, abs=0.0)


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
        beams._project(cb, ch.paths.tx_rows, ch.paths.tx_cols), dense @ ch.a_tx.conj(),
        rtol=0, atol=1e-14)


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
