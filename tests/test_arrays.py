"""Array geometry, directions, and steering vectors."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracechan import (
    Direction,
    PlanarArray,
    generate_codebook,
    steering_factors,
    steering_matrix,
    steering_vector,
)
from tracechan.arrays import _phase_ramp, _wrap_azimuth

LAM = 299792458.0 / 28e9


def element_positions(array: PlanarArray) -> np.ndarray:
    """(N, 3) element positions in meters, row-major, bearing applied: an oracle for the
    steering phases, which the package computes from separable row and column factors."""
    pitch = array.spacing * array.wavelength_m
    r = np.arange(array.n_rows)
    c = np.arange(array.n_cols)
    # local frame: x = 0, y = column offset, z = row offset
    y = np.repeat(np.zeros(array.n_rows), array.n_cols) + np.tile(c * pitch, array.n_rows)
    z = np.repeat(r * pitch, array.n_cols)
    pos = np.column_stack([np.zeros(y.size), y, z])
    b = math.radians(array.bearing_deg)
    if b != 0.0:
        rot = np.array(
            [
                [math.cos(b), -math.sin(b), 0.0],
                [math.sin(b), math.cos(b), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        pos = pos @ rot.T
    return pos


def _unit(az_deg, zen_deg):
    """(sin z cos a, sin z sin a, cos z): the package's direction convention."""
    az, zen = math.radians(az_deg), math.radians(zen_deg)
    return np.array([math.sin(zen) * math.cos(az), math.sin(zen) * math.sin(az), math.cos(zen)])


def test_direction_validation():
    Direction(-180.0, 0.0)
    Direction(179.9, 180.0)
    with pytest.raises(ValueError):
        Direction(180.0, 90.0)
    with pytest.raises(ValueError):
        Direction(0.0, -0.1)
    with pytest.raises(ValueError):
        Direction(0.0, 180.1)


def test_wrap_azimuth_wraps():
    got = _wrap_azimuth([185.0, -185.0, 180.0, 540.0, 37.0])
    assert got.tolist() == [-175.0, 175.0, -180.0, -180.0, 37.0]


@settings(max_examples=300, deadline=None)
@given(az=st.lists(st.floats(-1e4, 1e4) | st.sampled_from([0.1, 180.0, -180.0, 540.0, -0.0]),
                   max_size=8))
def test_wrap_azimuth_is_the_scalar_formula(az):
    # the one azimuth wrap: elementwise, bit for bit the scalar formula; it
    # is not the identity in range
    got = _wrap_azimuth(az)
    for a, w in zip(az, got.tolist()):
        want = ((a + 180.0) % 360.0) - 180.0
        want = -180.0 if want >= 180.0 else want
        assert w.hex() == want.hex()
    assert _wrap_azimuth(0.1) == 0.09999999999999432


def test_unit_vectors_cardinal():
    # element p's phase toward a cardinal direction is k p.u over the element
    # positions, with u its unit vector
    arr = PlanarArray(3, 4, LAM, spacing=0.7, bearing_deg=30.0)
    pos = element_positions(arr)
    for az, zen, unit in ((0.0, 90.0, [1, 0, 0]), (90.0, 90.0, [0, 1, 0]),
                          (0.0, 0.0, [0, 0, 1]), (-180.0, 90.0, [-1, 0, 0])):
        np.testing.assert_allclose(_unit(az, zen), unit, atol=1e-15)
        got = steering_matrix(arr, [az], [zen])[:, 0]
        np.testing.assert_allclose(got, np.exp(2j * math.pi / LAM * (pos @ unit)), atol=1e-12)


def test_zenith_is_complement_of_elevation():
    # elevation +30 deg above horizon = zenith 60 deg: along the z axis of a
    # vertical pair the phase advances by k dz sin(30 deg)
    arr = PlanarArray(2, 1, LAM, spacing=0.5)
    dz = element_positions(arr)[1, 2]
    sv = steering_matrix(arr, [0.0], [60.0])[:, 0]
    assert np.angle(sv[1] / sv[0]) == pytest.approx(
        2 * math.pi / LAM * dz * math.sin(math.radians(30.0)))


def test_element_positions_row_major():
    arr = PlanarArray(2, 3, LAM, spacing=0.5)
    pos = element_positions(arr)
    pitch = 0.5 * LAM
    expected = [
        [0, 0, 0], [0, pitch, 0], [0, 2 * pitch, 0],
        [0, 0, pitch], [0, pitch, pitch], [0, 2 * pitch, pitch],
    ]
    np.testing.assert_allclose(pos, expected, atol=1e-15)


def test_element_positions_bearing_rotation():
    arr = PlanarArray(1, 2, LAM, spacing=0.5, bearing_deg=90.0)
    pos = element_positions(arr)
    pitch = 0.5 * LAM
    # rotating about z carries the +y column axis onto -x
    np.testing.assert_allclose(pos[1], [-pitch, 0, 0], atol=1e-15)


def test_array_validation():
    # each message names the field and its value
    with pytest.raises(ValueError, match=r"^n_rows must be >= 1, got 0$"):
        PlanarArray(0, 4, LAM)
    with pytest.raises(ValueError, match=r"^n_cols must be >= 1, got -2$"):
        PlanarArray(4, -2, LAM)
    with pytest.raises(ValueError, match=r"^wavelength_m must be > 0, got -1.0$"):
        PlanarArray(4, 4, -1.0)
    with pytest.raises(ValueError, match=r"^spacing must be > 0, got 0.0$"):
        PlanarArray(4, 4, LAM, spacing=0.0)
    assert PlanarArray(16, 16, LAM).n_elements == 256


def test_steering_boresight_all_ones():
    # boresight +x is orthogonal to every element offset
    arr = PlanarArray(4, 4, LAM)
    sv = steering_matrix(arr, [0.0], [90.0])[:, 0]
    np.testing.assert_allclose(sv, np.ones(16), atol=1e-12)


def test_steering_two_element_endfire():
    # half-wavelength pair along y, steered to +y: second element lags by pi
    arr = PlanarArray(1, 2, LAM, spacing=0.5)
    sv = steering_matrix(arr, [90.0], [90.0])[:, 0]
    np.testing.assert_allclose(sv, [1.0, -1.0], atol=1e-12)


def test_steering_unit_magnitude():
    arr = PlanarArray(3, 5, LAM, bearing_deg=25.0)
    sv = steering_matrix(arr, [-117.0], [71.0])[:, 0]
    np.testing.assert_allclose(np.abs(sv), 1.0, atol=1e-12)


def test_steering_matches_per_element_loop():
    arr = PlanarArray(3, 4, LAM, spacing=0.7, bearing_deg=33.0)
    sv = steering_matrix(arr, [25.0], [105.0])[:, 0]
    pos = element_positions(arr)
    r = _unit(25.0, 105.0)
    k0 = 2 * math.pi / LAM
    for i in range(arr.n_elements):
        expected = complex(math.cos(k0 * pos[i] @ r), math.sin(k0 * pos[i] @ r))
        assert sv[i] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("rows,cols", [(1, 2), (4, 4), (16, 16), (16, 128)])
def test_conjugate_match_attains_full_gain(rows, cols):
    arr = PlanarArray(rows, cols, LAM)
    a = steering_matrix(arr, [31.0], [97.0])[:, 0]
    w = a / math.sqrt(arr.n_elements)
    gain = abs(np.vdot(w, a)) ** 2
    assert gain == pytest.approx(arr.n_elements, rel=1e-12)


def test_bearing_equivariance():
    # rotating the array by b and the target by b leaves the response fixed
    b = 40.0
    arr0 = PlanarArray(4, 6, LAM)
    arrb = PlanarArray(4, 6, LAM, bearing_deg=b)
    sv0 = steering_matrix(arr0, [20.0], [90.0])[:, 0]
    svb = steering_matrix(arrb, [20.0 + b], [90.0])[:, 0]
    np.testing.assert_allclose(sv0, svb, atol=1e-12)


arrays = st.builds(
    PlanarArray,
    n_rows=st.integers(1, 16),
    n_cols=st.integers(1, 16),
    wavelength_m=st.just(LAM),
    spacing=st.floats(0.1, 2.0),
    bearing_deg=st.floats(-180.0, 180.0),
)
directions = st.builds(
    Direction,
    azimuth_deg=st.floats(-180.0, 180.0, exclude_max=True),
    zenith_deg=st.floats(0.0, 180.0),
)


@settings(max_examples=150, deadline=None)
@given(arr=arrays, dirs=st.lists(directions, min_size=1, max_size=12))
def test_steering_matrix_matches_element_positions(arr, dirs):
    got = steering_matrix(arr, [d.azimuth_deg for d in dirs], [d.zenith_deg for d in dirs])
    assert got.shape == (arr.n_elements, len(dirs))
    u = np.array([_unit(d.azimuth_deg, d.zenith_deg) for d in dirs]).T  # (3, D)
    want = np.exp(1j * (2 * math.pi / LAM) * (element_positions(arr) @ u))
    assert np.max(np.abs(got - want)) <= 1e-12
    # one formula: every column is bit-identical to the single-direction call
    for j, d in enumerate(dirs):
        assert got[:, j].tobytes() == steering_vector(arr, d).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    arr=arrays,
    az_lo=st.floats(-180.0, 0.0),
    az_span=st.floats(0.0, 179.0),
    az_step=st.floats(5.0, 60.0),
    zen_lo=st.floats(0.0, 90.0),
    zen_step=st.floats(5.0, 60.0),
)
# a zenith of 1.4e-305 leaves signed zeros in the weights, whose sign a
# multiply by 1 / sqrt(N) sets apart from steering_vector's divide
@example(arr=PlanarArray(8, 13, 0.0107068735, spacing=0.125, bearing_deg=180.0), az_lo=0.0,
         az_span=0.0, az_step=5.0, zen_lo=1.4380524758371243e-305, zen_step=5.0)
def test_codebook_weights_contiguous_unit_norm(arr, az_lo, az_span, az_step, zen_lo, zen_step):
    cb = generate_codebook(arr, az_lo, az_lo + az_span, az_step, zen_lo, 180.0, zen_step)
    assert cb.weights.shape == (len(cb), arr.n_elements)
    assert cb.weights.flags.c_contiguous
    np.testing.assert_allclose(np.linalg.norm(cb.weights, axis=1), 1.0, rtol=0, atol=1e-12)
    for d, w in zip(cb.directions, cb.weights):
        want = steering_vector(arr, d) / math.sqrt(arr.n_elements)
        assert w.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    arr=arrays,
    az_lo=st.floats(-400.0, 400.0),
    az_span=st.floats(0.0, 359.0),
    az_step=st.floats(0.5, 60.0),
    zen_lo=st.floats(0.0, 90.0),
    zen_step=st.floats(1.0, 60.0),
)
def test_codebook_factors_are_steering_factors(arr, az_lo, az_span, az_step, zen_lo, zen_step):
    # one row ramp per grid zenith, tiled over the azimuths, is bit-equal to
    # the row factors of every beam's own direction
    cb = generate_codebook(arr, az_lo, az_lo + az_span, az_step, zen_lo, 180.0, zen_step)
    rows, cols = steering_factors(arr, cb.azimuth_deg, cb.zenith_deg)
    assert cb.row_factors.tobytes() == rows.tobytes()
    assert cb.col_factors.tobytes() == cols.tobytes()


EPS = np.finfo(float).eps
# 1, 2, perfect squares, one below and above them, and primes
_RAMP_LENGTHS = st.integers(1, 300) | st.sampled_from(
    [1, 2, 3, 4, 5, 8, 9, 10, 16, 17, 127, 128, 144, 256, 257, 289, 293, 300])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=_RAMP_LENGTHS,
       phi=st.lists(st.floats(-3000.0, 3000.0) | st.sampled_from([0.0, -0.0, math.pi, 2500.0]),
                    min_size=1, max_size=6))
@example(n=300, phi=[2500.0, -2499.75, 0.1])
@example(n=1, phi=[-7.5])
def test_phase_ramp_matches_one_exponential_per_term(n, phi):
    phi = np.array(phi)
    got = _phase_ramp(phi, n)
    assert got.shape == (len(phi), n) and got.dtype == complex
    want = np.exp(1j * np.multiply.outer(phi, np.arange(n)))
    assert (np.abs(got - want) <= 8 * EPS * (1 + np.abs(phi)[:, None] * (n - 1))).all()
    assert (np.abs(np.abs(got) - 1.0) <= 4 * EPS).all()
    assert (got[:, 0] == 1.0).all()
    # a row is bit-equal whichever rows share its call
    for d in range(len(phi)):
        assert _phase_ramp(phi[d:d + 1], n)[0].tobytes() == got[d].tobytes()
