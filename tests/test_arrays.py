"""Array geometry, directions, and steering vectors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracechan import (
    Direction,
    PlanarArray,
    direction_unit_vector,
    element_positions,
    generate_codebook,
    steering_matrix,
    steering_vector,
)

LAM = 299792458.0 / 28e9


def test_direction_validation():
    Direction(-180.0, 0.0)
    Direction(179.9, 180.0)
    with pytest.raises(ValueError):
        Direction(180.0, 90.0)
    with pytest.raises(ValueError):
        Direction(0.0, -0.1)
    with pytest.raises(ValueError):
        Direction(0.0, 180.1)


def test_direction_from_degrees_wraps():
    assert Direction.from_degrees(185.0, 90.0).azimuth_deg == -175.0
    assert Direction.from_degrees(-185.0, 90.0).azimuth_deg == 175.0
    assert Direction.from_degrees(180.0, 90.0).azimuth_deg == -180.0
    assert Direction.from_degrees(540.0, 90.0).azimuth_deg == -180.0
    assert Direction.from_degrees(37.0, 98.5).azimuth_deg == 37.0


def test_unit_vectors_cardinal():
    np.testing.assert_allclose(
        direction_unit_vector(Direction(0.0, 90.0)), [1, 0, 0], atol=1e-15
    )
    np.testing.assert_allclose(
        direction_unit_vector(Direction(90.0, 90.0)), [0, 1, 0], atol=1e-15
    )
    np.testing.assert_allclose(
        direction_unit_vector(Direction(0.0, 0.0)), [0, 0, 1], atol=1e-15
    )
    np.testing.assert_allclose(
        direction_unit_vector(Direction(-180.0, 90.0)), [-1, 0, 0], atol=1e-15
    )


def test_zenith_is_complement_of_elevation():
    # elevation +30 deg above horizon = zenith 60 deg
    v = direction_unit_vector(Direction(0.0, 60.0))
    assert v[2] == pytest.approx(math.sin(math.radians(30.0)))


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
    with pytest.raises(ValueError):
        PlanarArray(0, 4, LAM)
    with pytest.raises(ValueError):
        PlanarArray(4, 4, -1.0)
    with pytest.raises(ValueError):
        PlanarArray(4, 4, LAM, spacing=0.0)
    assert PlanarArray(16, 16, LAM).n_elements == 256


def test_steering_boresight_all_ones():
    # boresight +x is orthogonal to every element offset
    arr = PlanarArray(4, 4, LAM)
    sv = steering_vector(arr, Direction(0.0, 90.0))
    np.testing.assert_allclose(sv.vector, np.ones(16), atol=1e-12)


def test_steering_two_element_endfire():
    # half-wavelength pair along y, steered to +y: second element lags by pi
    arr = PlanarArray(1, 2, LAM, spacing=0.5)
    sv = steering_vector(arr, Direction(90.0, 90.0))
    np.testing.assert_allclose(sv.vector, [1.0, -1.0], atol=1e-12)


def test_steering_unit_magnitude():
    arr = PlanarArray(3, 5, LAM, bearing_deg=25.0)
    sv = steering_vector(arr, Direction(-117.0, 71.0))
    np.testing.assert_allclose(np.abs(sv.vector), 1.0, atol=1e-12)


def test_steering_matches_per_element_loop():
    arr = PlanarArray(3, 4, LAM, spacing=0.7, bearing_deg=33.0)
    d = Direction(25.0, 105.0)
    sv = steering_vector(arr, d).vector
    pos = element_positions(arr)
    r = direction_unit_vector(d)
    k0 = 2 * math.pi / LAM
    for i in range(arr.n_elements):
        expected = complex(math.cos(k0 * pos[i] @ r), math.sin(k0 * pos[i] @ r))
        assert sv[i] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("rows,cols", [(1, 2), (4, 4), (16, 16), (16, 128)])
def test_conjugate_match_attains_full_gain(rows, cols):
    arr = PlanarArray(rows, cols, LAM)
    a = steering_vector(arr, Direction(31.0, 97.0)).vector
    w = a / math.sqrt(arr.n_elements)
    gain = abs(np.vdot(w, a)) ** 2
    assert gain == pytest.approx(arr.n_elements, rel=1e-12)


def test_bearing_equivariance():
    # rotating the array by b and the target by b leaves the response fixed
    d0 = Direction(20.0, 90.0)
    b = 40.0
    arr0 = PlanarArray(4, 6, LAM)
    arrb = PlanarArray(4, 6, LAM, bearing_deg=b)
    sv0 = steering_vector(arr0, d0).vector
    svb = steering_vector(arrb, Direction(20.0 + b, 90.0)).vector
    np.testing.assert_allclose(sv0, svb, atol=1e-12)


@pytest.mark.parametrize("arr", [
    PlanarArray(4, 4, LAM),
    PlanarArray(3, 5, LAM, spacing=0.7, bearing_deg=33.0),
    PlanarArray(16, 128, LAM, bearing_deg=-90.0),
])
def test_element_positions_cached_read_only(arr):
    cached = element_positions(arr)
    uncached = element_positions.__wrapped__(arr)
    assert cached.tobytes() == uncached.tobytes()
    # an equal array built separately hits the same entry
    assert element_positions(PlanarArray(**arr.__dict__)) is cached
    assert not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0, 0] = 1.0


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
    got = steering_matrix(arr, dirs)
    assert got.shape == (arr.n_elements, len(dirs))
    u = np.array([direction_unit_vector(d) for d in dirs]).T  # (3, D)
    want = np.exp(1j * (2 * math.pi / LAM) * (element_positions(arr) @ u))
    assert np.max(np.abs(got - want)) <= 1e-12
    # one formula: every column is bit-identical to the single-direction call
    for j, d in enumerate(dirs):
        assert got[:, j].tobytes() == steering_vector(arr, d).vector.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    arr=arrays,
    az_lo=st.floats(-180.0, 0.0),
    az_span=st.floats(0.0, 179.0),
    az_step=st.floats(5.0, 60.0),
    zen_lo=st.floats(0.0, 90.0),
    zen_step=st.floats(5.0, 60.0),
)
def test_codebook_weights_contiguous_unit_norm(arr, az_lo, az_span, az_step, zen_lo, zen_step):
    cb = generate_codebook(arr, az_lo, az_lo + az_span, az_step, zen_lo, 180.0, zen_step)
    assert cb.weights.shape == (len(cb), arr.n_elements)
    assert cb.weights.flags.c_contiguous
    np.testing.assert_allclose(np.linalg.norm(cb.weights, axis=1), 1.0, rtol=0, atol=1e-12)
    for d, w in zip(cb.directions, cb.weights):
        want = steering_vector(arr, d).vector / math.sqrt(arr.n_elements)
        assert w.tobytes() == want.tobytes()
