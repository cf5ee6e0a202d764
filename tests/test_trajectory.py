"""Trajectory kinds and the shared time grid."""

import math

import numpy as np
import pytest

from tracechan import (
    circular_trajectory,
    linear_trajectory,
    make_trajectory,
    static_trajectory,
)
from tracechan.trajectory import time_grid


def test_static():
    pos = static_trajectory([1.0, 2.0, 3.0], time_grid(0.0, 0.1, 5))
    assert len(pos) == 5
    np.testing.assert_allclose(pos, [[1, 2, 3]] * 5)


def test_linear():
    pos = linear_trajectory([0, 0, 1.5], [0, -1.5, 0], time_grid(0.0, 0.25, 3))
    np.testing.assert_allclose(pos[:, 1], [0.0, -0.375, -0.75])
    np.testing.assert_allclose(np.diff(pos, axis=0), [[0, -0.375, 0]] * 2)


def test_time_grid_is_multiplicative():
    times = time_grid(0.0, 0.1, 1001)
    # k * dt, not accumulated addition: index 1000 lands exactly on 100 * 1.0
    assert times[1000] == 0.1 * 1000
    assert times[3] == 0.1 * 3


def test_circular_radius_and_speed():
    pos = circular_trajectory([0, 0, 1.5], 55.0, 0.0, 10.0, time_grid(0.0, 0.1, 91))
    radii = np.linalg.norm(pos[:, :2], axis=1)
    np.testing.assert_allclose(radii, 55.0, atol=1e-9)
    # each 0.1 s step turns 10 deg/s * 0.1 s = 1 degree: a chord of 2 r sin(0.5 deg)
    chords = np.linalg.norm(np.diff(pos, axis=0), axis=1)
    np.testing.assert_allclose(chords, 2 * 55.0 * math.sin(math.radians(0.5)), atol=1e-9)
    # bearing after 9 s of 10 deg/s is 90 degrees
    np.testing.assert_allclose(pos[-1, :2], [0.0, 55.0], atol=1e-9)


def test_validation():
    with pytest.raises(ValueError):
        time_grid(0.0, -0.1, 5)
    with pytest.raises(ValueError):
        circular_trajectory([0, 0, 0], -5.0, 0.0, 1.0, time_grid(0.0, 0.1, 2))


def test_make_trajectory_dispatch():
    pos = make_trajectory(
        "linear", {"start": [0, 0, 0], "velocity": [1, 0, 0]}, time_grid(0.0, 0.5, 4)
    )
    assert pos[-1, 0] == pytest.approx(1.5)
    pos = make_trajectory("static", {"position": [5, 5, 5]}, time_grid(0.0, 1.0, 2))
    assert pos[1, 2] == 5.0
    pos = make_trajectory(
        "circular",
        {"center": [0, 0, 0], "radius": 2.0, "angle0_deg": 0.0, "rate_deg_s": 90.0},
        time_grid(0.0, 1.0, 3),
    )
    np.testing.assert_allclose(pos[1, :2], [0.0, 2.0], atol=1e-12)


def test_make_trajectory_errors_name_the_parameter():
    with pytest.raises(ValueError, match="velocity"):
        make_trajectory("linear", {"start": [0, 0, 0]}, time_grid(0.0, 0.1, 2))
    with pytest.raises(ValueError, match="unknown trajectory kind"):
        make_trajectory("warp", {}, time_grid(0.0, 0.1, 2))
