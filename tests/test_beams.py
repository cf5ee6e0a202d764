"""Codebook generation and exhaustive beam sweeps."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mk_record
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
    select_best_pair,
    steering_vector,
    sweep_power_table,
)

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
                       np.vstack([base.weights, base.weights]))
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
    rows = [steering_vector(arr, d).vector / math.sqrt(2) for d in dirs]
    cb_tx = BeamCodebook(dirs, np.array(rows))
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
