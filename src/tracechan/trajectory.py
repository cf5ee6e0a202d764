"""Sampled node trajectories with analytic velocities.

Built-in kinds: static, linear, circular. Arbitrary motion can be expressed
by constructing a Trajectory from explicit samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Trajectory",
    "static_trajectory",
    "linear_trajectory",
    "circular_trajectory",
    "make_trajectory",
]


@dataclass(frozen=True)
class Trajectory:
    """Positions and velocities sampled on a strictly increasing time grid."""

    times: np.ndarray  # (n,)
    positions: np.ndarray  # (n, 3)
    velocities: np.ndarray  # (n, 3)

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 1:
            raise ValueError("times must be a non-empty 1-d array")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.positions.shape != (t.size, 3) or self.velocities.shape != (t.size, 3):
            raise ValueError("positions and velocities must have shape (n, 3)")

    def __len__(self) -> int:
        return int(self.times.size)


def _time_grid(t0: float, dt: float, n: int) -> np.ndarray:
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    # multiply, never accumulate: k*dt keeps each grid time reproducible
    return t0 + dt * np.arange(n)


def static_trajectory(position, t0: float, dt: float, n: int) -> Trajectory:
    times = _time_grid(t0, dt, n)
    pos = np.tile(np.asarray(position, dtype=float), (n, 1))
    return Trajectory(times, pos, np.zeros((n, 3)))


def linear_trajectory(start, velocity, t0: float, dt: float, n: int) -> Trajectory:
    times = _time_grid(t0, dt, n)
    start = np.asarray(start, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    rel = (times - t0)[:, None]
    return Trajectory(times, start + rel * velocity, np.tile(velocity, (n, 1)))


def circular_trajectory(
    center,
    radius: float,
    angle0_deg: float,
    rate_deg_s: float,
    t0: float,
    dt: float,
    n: int,
) -> Trajectory:
    """Horizontal circle about center; tangential speed = omega * radius."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    times = _time_grid(t0, dt, n)
    center = np.asarray(center, dtype=float)
    ang = np.radians(angle0_deg + rate_deg_s * (times - t0))
    omega = math.radians(rate_deg_s)
    pos = center + radius * np.column_stack([np.cos(ang), np.sin(ang), np.zeros(n)])
    vel = omega * radius * np.column_stack([-np.sin(ang), np.cos(ang), np.zeros(n)])
    return Trajectory(times, pos, vel)


def make_trajectory(kind: str, params: dict, t0: float, dt: float, n: int) -> Trajectory:
    """Dispatch on kind: static, linear, or circular."""
    try:
        if kind == "static":
            return static_trajectory(params["position"], t0, dt, n)
        if kind == "linear":
            return linear_trajectory(params["start"], params["velocity"], t0, dt, n)
        if kind == "circular":
            return circular_trajectory(
                params["center"],
                float(params["radius"]),
                float(params["angle0_deg"]),
                float(params["rate_deg_s"]),
                t0, dt, n,
            )
    except KeyError as exc:
        raise ValueError(f"trajectory kind {kind!r} missing parameter {exc}") from None
    raise ValueError(f"unknown trajectory kind {kind!r}")
