"""Channel matrix assembly and beamformed power."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mk_record, reference_channel
from tracechan import (
    PlanarArray,
    SubbandGrid,
    beamformed_power,
    build_channel_matrices,
    steering_matrix,
)
from tracechan.arrays import Direction
from tracechan.channel import _subband_terms

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
    # the factors are complex and have no columns
    grid = SubbandGrid(28e9, 100e6, 5)
    ch = build_channel_matrices([], tx, rx, grid)
    for a, shape in ((ch.coef, (5, 0)), (ch.a_rx, (2, 0)), (ch.a_tx, (4, 0))):
        assert a.shape == shape
        assert a.dtype == np.complex128


@pytest.mark.parametrize("side", ["aod", "aoa"])
@pytest.mark.parametrize("field,value", [
    ("az", math.nan), ("az", math.inf), ("az", -math.inf),
    ("zen", -0.1), ("zen", 180.1), ("zen", math.nan),
])
def test_bad_record_angles_rejected(side, field, value):
    # unchecked, a NaN azimuth would give a NaN channel
    tx = PlanarArray(2, 2, LAM)
    rx = PlanarArray(1, 2, LAM)
    recs = [mk_record(path_id=0), mk_record(path_id=1, **{f"{side}_{field}": value})]
    with pytest.raises(ValueError):
        build_channel_matrices(recs, tx, rx, GRID1)


@pytest.mark.parametrize("field", ["gain_mag", "phase", "delay"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_record_values_rejected(field, value):
    one = PlanarArray(1, 1, LAM)
    with pytest.raises(ValueError, match="non-finite"):
        build_channel_matrices([mk_record(**{field: value})], one, one, GRID1)


def test_channel_build_makes_no_direction(monkeypatch):
    # the record angles go to the steering code as arrays, never as objects
    rng = np.random.default_rng(11)
    recs = [
        mk_record(path_id=i, gain_mag=float(rng.uniform(0, 1e-4)),
                  phase=float(rng.uniform(-math.pi, math.pi)),
                  delay=float(rng.uniform(0, 1e-6)),
                  aod_az=float(rng.uniform(-180, 180)), aod_zen=float(rng.uniform(0, 180)),
                  aoa_az=float(rng.uniform(-180, 180)), aoa_zen=float(rng.uniform(0, 180)))
        for i in range(64)
    ]
    args = (recs, PlanarArray(16, 16, LAM), PlanarArray(4, 4, LAM), SubbandGrid(28e9, 400e6, 64))
    want = build_channel_matrices(*args)

    def refuse(self):
        raise AssertionError("a channel build constructed a Direction")

    monkeypatch.setattr(Direction, "__post_init__", refuse)
    got = build_channel_matrices(*args)
    for name in ("coef", "a_rx", "a_tx"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


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


_shapes = st.tuples(st.integers(1, 4), st.integers(1, 4))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tx_shape=_shapes, rx_shape=_shapes, n_paths=st.integers(0, 20),
       bearings=st.tuples(st.floats(-180.0, 180.0), st.floats(-180.0, 180.0)),
       seed=st.integers(0, 2**32 - 1))
# R = 1 or C = 1 on either side; P = 0, 1, below N_rx and above it
@example(tx_shape=(1, 4), rx_shape=(3, 1), n_paths=0, bearings=(37.0, -120.0), seed=1)
@example(tx_shape=(4, 1), rx_shape=(1, 2), n_paths=1, bearings=(-15.0, 90.0), seed=2)
@example(tx_shape=(3, 4), rx_shape=(4, 4), n_paths=9, bearings=(170.0, -45.0), seed=3)
@example(tx_shape=(2, 3), rx_shape=(2, 2), n_paths=11, bearings=(60.0, 12.5), seed=4)
def test_beamformed_power_matches_dense_channel_for_any_weights(tx_shape, rx_shape, n_paths,
                                                                 bearings, seed):
    # the path-factor contraction against p/K |w_rx^H H_k w_tx|^2 on the dense
    # tensor, for unit-norm weights that are not Kronecker products of a row
    # and a column factor, as every codebook beam is
    rng = np.random.default_rng(seed)
    tx_arr, rx_arr = (PlanarArray(*shape, LAM, bearing_deg=b)
                      for shape, b in zip((tx_shape, rx_shape), bearings))
    recs = [
        mk_record(path_id=p, gain_mag=float(rng.uniform(0.0, 1e-4)),
                  phase=float(rng.uniform(-math.pi, math.pi)), delay=float(rng.uniform(0, 1e-6)),
                  aod_az=float(rng.uniform(-180, 180)), aod_zen=float(rng.uniform(0, 180)),
                  aoa_az=float(rng.uniform(-180, 180)), aoa_zen=float(rng.uniform(0, 180)))
        for p in range(n_paths)
    ]
    grid = SubbandGrid(28e9, 400e6, int(rng.integers(1, 6)))
    ch = build_channel_matrices(recs, tx_arr, rx_arr, grid)
    weights = []
    for shape in (tx_shape, rx_shape):
        w = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert min(shape) == 1 or np.linalg.matrix_rank(w) > 1  # no Kronecker product
        weights.append(w.ravel() / np.linalg.norm(w))
    w_tx, w_rx = weights
    p_tx = float(rng.uniform(0.1, 10.0))

    per, total = beamformed_power(ch, w_tx, w_rx, p_tx)
    amp = np.einsum("u,kus,s->k", w_rx.conj(), ch.matrices, w_tx)
    want = p_tx / grid.n_subbands * np.abs(amp) ** 2
    # |w^H a| <= |a| = sqrt(N) for unit-norm w, so no subband exceeds scale
    scale = (p_tx / grid.n_subbands * sum(r.gain_mag for r in recs) ** 2
             * tx_arr.n_elements * rx_arr.n_elements)
    assert per.shape == (grid.n_subbands,)
    assert np.abs(per - want).max() <= 1e-12 * scale
    assert abs(total - want.sum()) <= 1e-12 * scale * grid.n_subbands


def test_power_overflow_raises_naming_the_time():
    one = PlanarArray(1, 1, LAM)
    ch = build_channel_matrices([mk_record(t=0.5, gain_mag=1e170)], one, one, GRID1)
    w = np.ones(1, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error replaces numpy's overflow warning
        with pytest.raises(ValueError, match=r"^received power at t=0\.5 overflows to inf$"):
            beamformed_power(ch, w, w, 1.0)


def test_beamformed_power_matched_single_path():
    tx = PlanarArray(4, 4, LAM)
    rx = PlanarArray(2, 2, LAM)
    g = 3e-6
    rec = mk_record(gain_mag=g, aod_az=20.0, aod_zen=95.0, aoa_az=-60.0, aoa_zen=85.0)
    ch = build_channel_matrices([rec], tx, rx, GRID1)
    w_tx = steering_matrix(tx, [20.0], [95.0])[:, 0] / 4.0
    w_rx = steering_matrix(rx, [-60.0], [85.0])[:, 0] / 2.0
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
    w_tx = steering_matrix(tx, [0.0], [90.0])[:, 0] / 3.0
    w_rx = steering_matrix(rx, [0.0], [90.0])[:, 0] / 2.0
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
    with pytest.raises(ValueError, match="w_rx must have unit norm"):  # NaN too
        beamformed_power(ch, good, np.array([np.nan, 0.0]), 1.0)
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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(k=st.integers(1, 100) | st.sampled_from([1, 2, 64, 65]),
       delays=st.lists(st.floats(0.0, 2e-6), min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_subband_terms_match_one_exponential_per_subband(k, delays, seed):
    rng = np.random.default_rng(seed)
    grid = SubbandGrid(28e9, 400e6, k)
    delay = np.array(delays)
    scale = rng.uniform(0.0, 1e-3, len(delay)) * np.exp(1j * rng.uniform(-math.pi, math.pi,
                                                                           len(delay)))
    got = _subband_terms(scale, delay, grid)
    want = scale[:, None] * np.exp(-2j * math.pi * np.multiply.outer(delay, grid.offsets_hz()))
    bound = 16 * np.finfo(float).eps * (1 + math.pi * grid.bandwidth_hz * delay) * np.abs(scale)
    assert (np.abs(got - want) <= bound[:, None]).all()
    # a path's terms are bit-equal whichever paths share the call, and a
    # channel's coef is its paths' terms transposed
    for p in range(len(delay)):
        assert _subband_terms(scale[p:p + 1], delay[p:p + 1], grid)[0].tobytes() == \
            got[p].tobytes()
    recs = [mk_record(path_id=p, delay=float(tau)) for p, tau in enumerate(delay)]
    ch = build_channel_matrices(recs, PlanarArray(1, 1, LAM), PlanarArray(1, 1, LAM), grid)
    assert ch.coef.flags.c_contiguous
    assert ch.coef.tobytes() == _subband_terms(ch.paths.phasor, ch.paths.delay, grid).T.tobytes()
