"""Channel matrix assembly and beamformed power."""

import math

import numpy as np
import pytest

from conftest import mk_record, reference_channel
from tracechan import PlanarArray, SubbandGrid, beamformed_power, build_channel_matrices

LAM = 299792458.0 / 28e9
GRID1 = SubbandGrid(28e9, 100e6, 1)


def test_grid_validation_and_wavelength():
    assert GRID1.wavelength_m == pytest.approx(0.0107068735, abs=1e-9)
    with pytest.raises(ValueError):
        SubbandGrid(-1.0, 100e6, 4)
    with pytest.raises(ValueError):
        SubbandGrid(28e9, 100e6, 0)


def test_subband_offsets_centered():
    grid = SubbandGrid(28e9, 100e6, 8)
    offs = grid.offsets_hz()
    assert offs[0] == pytest.approx(-43.75e6)
    assert offs[-1] == pytest.approx(43.75e6)
    assert offs.sum() == pytest.approx(0.0, abs=1e-6)
    # K = 1 degenerates to the carrier itself
    assert GRID1.offsets_hz()[0] == 0.0


def test_single_path_siso():
    rec = mk_record(gain_mag=2e-5, phase=0.75)
    one = PlanarArray(1, 1, LAM)
    ch = build_channel_matrices([rec], one, one, GRID1)
    assert ch.matrices.shape == (1, 1, 1)
    expected = 2e-5 * complex(math.cos(0.75), math.sin(0.75))
    assert ch.matrices[0, 0, 0] == pytest.approx(expected, abs=1e-18)


def test_two_subband_delay_phase_flip():
    # tau = 1/B puts adjacent subband centers exactly pi apart
    b = 100e6
    rec = mk_record(delay=1.0 / b)
    one = PlanarArray(1, 1, LAM)
    grid = SubbandGrid(28e9, b, 2)
    ch = build_channel_matrices([rec], one, one, grid)
    h0, h1 = ch.matrices[0, 0, 0], ch.matrices[1, 0, 0]
    assert h1 == pytest.approx(-h0, abs=1e-12)


def test_destructive_interference():
    recs = [
        mk_record(path_id=0, phase=0.0),
        mk_record(path_id=1, phase=math.pi),
    ]
    one = PlanarArray(1, 1, LAM)
    ch = build_channel_matrices(recs, one, one, GRID1)
    assert abs(ch.matrices[0, 0, 0]) < 1e-15


def test_empty_group_zero_channel():
    tx = PlanarArray(2, 2, LAM)
    rx = PlanarArray(1, 2, LAM)
    ch = build_channel_matrices([], tx, rx, GRID1)
    assert ch.matrices.shape == (1, 2, 4)
    assert np.all(ch.matrices == 0)
    assert ch.time == 0.0
    assert build_channel_matrices([], tx, rx, GRID1, t=2.5).time == 2.5


def test_mixed_snapshot_rejected():
    one = PlanarArray(1, 1, LAM)
    recs = [mk_record(t=0.0), mk_record(t=0.1, path_id=1)]
    with pytest.raises(ValueError, match="single"):
        build_channel_matrices(recs, one, one, GRID1)
    # an explicit time must be the records' own
    assert build_channel_matrices(recs[:1], one, one, GRID1, t=0.0).time == 0.0
    with pytest.raises(ValueError, match="single"):
        build_channel_matrices(recs[:1], one, one, GRID1, t=0.5)


def test_matches_scalar_reference_randomized():
    rng = np.random.default_rng(7)
    grid = SubbandGrid(28e9, 100e6, 3)
    for _ in range(25):
        shape_tx = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        shape_rx = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        bearings = (float(rng.uniform(-90, 90)), float(rng.uniform(-90, 90)))
        tx_arr = PlanarArray(*shape_tx, LAM, 0.5, bearings[0])
        rx_arr = PlanarArray(*shape_rx, LAM, 0.5, bearings[1])
        n_paths = int(rng.integers(1, 6))
        recs = [
            mk_record(
                t=1.0,
                path_id=i,
                delay=float(rng.uniform(0, 1e-6)),
                gain_mag=float(rng.uniform(0, 1e-4)),
                phase=float(rng.uniform(-math.pi, math.pi)),
                aod_az=float(rng.uniform(-180, 179.9)),
                aod_zen=float(rng.uniform(0, 180)),
                aoa_az=float(rng.uniform(-180, 179.9)),
                aoa_zen=float(rng.uniform(0, 180)),
            )
            for i in range(n_paths)
        ]
        got = build_channel_matrices(recs, tx_arr, rx_arr, grid).matrices
        want = np.array(reference_channel(recs, shape_tx, shape_rx, 0.5, bearings, grid))
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * max(scale, 1e-30)


def test_beamformed_power_matched_single_path():
    tx = PlanarArray(4, 4, LAM)
    rx = PlanarArray(2, 2, LAM)
    g = 3e-6
    rec = mk_record(gain_mag=g, aod_az=20.0, aod_zen=95.0, aoa_az=-60.0, aoa_zen=85.0)
    ch = build_channel_matrices([rec], tx, rx, GRID1)
    from tracechan import Direction, steering_vector

    w_tx = steering_vector(tx, Direction(20.0, 95.0)).vector / 4.0
    w_rx = steering_vector(rx, Direction(-60.0, 85.0)).vector / 2.0
    per, total = beamformed_power(ch, w_tx, w_rx, p_tx_w=2.0)
    assert per.shape == (1,)
    assert total == pytest.approx(2.0 * g**2 * 16 * 4, rel=1e-12)


def test_beamformed_power_scales_quadratically_with_gain():
    one = PlanarArray(1, 1, LAM)
    w = np.ones(1, dtype=complex)
    _, p1 = beamformed_power(
        build_channel_matrices([mk_record(gain_mag=1e-5)], one, one, GRID1),
        w, w, 1.0,
    )
    _, p3 = beamformed_power(
        build_channel_matrices([mk_record(gain_mag=3e-5)], one, one, GRID1),
        w, w, 1.0,
    )
    assert p3 == pytest.approx(9 * p1, rel=1e-12)


def test_beamformed_power_bounded_by_total_gain():
    # |w^H H w| can never exceed sum of path gains times sqrt(N_tx N_rx)
    tx = PlanarArray(3, 3, LAM)
    rx = PlanarArray(2, 2, LAM)
    recs = [
        mk_record(path_id=i, gain_mag=1e-5, aod_az=10.0 * i, phase=0.4 * i)
        for i in range(4)
    ]
    ch = build_channel_matrices(recs, tx, rx, GRID1)
    from tracechan import Direction, steering_vector

    w_tx = steering_vector(tx, Direction(0.0, 90.0)).vector / 3.0
    w_rx = steering_vector(rx, Direction(0.0, 90.0)).vector / 2.0
    _, total = beamformed_power(ch, w_tx, w_rx, 1.0)
    bound = (4 * 1e-5) ** 2 * 9 * 4
    assert total <= bound * (1 + 1e-12)


def test_beamformed_power_validates_inputs():
    one = PlanarArray(1, 2, LAM)
    ch = build_channel_matrices([mk_record()], one, one, GRID1)
    good = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="shape"):
        beamformed_power(ch, np.ones(3) / math.sqrt(3), good, 1.0)
    with pytest.raises(ValueError, match="unit norm"):
        beamformed_power(ch, good * 2.0, good, 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        beamformed_power(ch, good, good, -1.0)


def test_power_splits_over_subbands():
    # flat channel: per-subband powers are equal and sum to the K = 1 value
    rec = mk_record(delay=0.0)
    one = PlanarArray(1, 1, LAM)
    w = np.ones(1, dtype=complex)
    grid8 = SubbandGrid(28e9, 100e6, 8)
    per8, tot8 = beamformed_power(
        build_channel_matrices([rec], one, one, grid8), w, w, 1.0
    )
    _, tot1 = beamformed_power(
        build_channel_matrices([rec], one, one, GRID1), w, w, 1.0
    )
    np.testing.assert_allclose(per8, per8[0])
    assert tot8 == pytest.approx(tot1, rel=1e-12)
