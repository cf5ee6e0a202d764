"""Node positions sampled on the snapshot time grid.

Built-in kinds: static, linear, circular. Arbitrary motion can be expressed
by constructing a Trajectory from explicit samples. Trajectories only place
the nodes for the ray tracer; no velocity reaches the channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Trajectory",
    "time_grid",
    "static_trajectory",
    "linear_trajectory",
    "circular_trajectory",
    "make_trajectory",
]


@dataclass(frozen=True)
class Trajectory:
    """Positions sampled on a strictly increasing time grid."""

    times: np.ndarray  # (n,)
    positions: np.ndarray  # (n, 3)

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 1:
            raise ValueError("times must be a non-empty 1-d array")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.positions.shape != (t.size, 3):
            raise ValueError("positions must have shape (n, 3)")

    def __len__(self) -> int:
        return int(self.times.size)


def time_grid(t0: float, dt: float, n: int) -> np.ndarray:
    """The n grid times t0 + k*dt, k = 0..n-1."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    # multiply, never accumulate: k*dt keeps each grid time reproducible
    return t0 + dt * np.arange(n)


def static_trajectory(position, t0: float, dt: float, n: int) -> Trajectory:
    times = time_grid(t0, dt, n)
    return Trajectory(times, np.tile(np.asarray(position, dtype=float), (n, 1)))


def linear_trajectory(start, velocity, t0: float, dt: float, n: int) -> Trajectory:
    times = time_grid(t0, dt, n)
    start = np.asarray(start, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    return Trajectory(times, start + (times - t0)[:, None] * velocity)


def circular_trajectory(
    center,
    radius: float,
    angle0_deg: float,
    rate_deg_s: float,
    t0: float,
    dt: float,
    n: int,
) -> Trajectory:
    """Horizontal circle about center, swept at rate_deg_s."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    times = time_grid(t0, dt, n)
    center = np.asarray(center, dtype=float)
    ang = np.radians(angle0_deg + rate_deg_s * (times - t0))
    pos = center + radius * np.column_stack([np.cos(ang), np.sin(ang), np.zeros(n)])
    return Trajectory(times, pos)


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
