"""Node positions sampled on the snapshot time grid.

Built-in kinds: static, linear, circular. Each kind takes the grid times and
returns the (n, 3) positions at them, with motion measured from times[0];
arbitrary motion is any (n, 3) array. Positions only place the nodes for the
ray tracer; no velocity reaches the channel.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "time_grid",
    "static_trajectory",
    "linear_trajectory",
    "circular_trajectory",
    "make_trajectory",
]


def time_grid(t0: float, dt: float, n: int) -> np.ndarray:
    """The n grid times t0 + k*dt, k = 0..n-1."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    # multiply, never accumulate: k*dt keeps each grid time reproducible
    return t0 + dt * np.arange(n)


def _point(kind: str, name: str, value) -> np.ndarray:
    point = np.asarray(value, dtype=float)
    if point.shape != (3,):
        raise ValueError(f"{kind} trajectory: {name} must be a 3-vector, got {value!r}")
    return point


def _scalar(kind: str, name: str, value) -> float:
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{kind} trajectory: {name} must be a number, got {value!r}")
    return float(value)


def static_trajectory(position, times: np.ndarray) -> np.ndarray:
    position = _point("static", "position", position)
    return np.tile(position, (len(times), 1))


def linear_trajectory(start, velocity, times: np.ndarray) -> np.ndarray:
    start = _point("linear", "start", start)
    velocity = _point("linear", "velocity", velocity)
    return start + (times - times[0])[:, None] * velocity


def circular_trajectory(
    center, radius: float, angle0_deg: float, rate_deg_s: float, times: np.ndarray
) -> np.ndarray:
    """Horizontal circle about center, swept at rate_deg_s."""
    center = _point("circular", "center", center)
    radius = _scalar("circular", "radius", radius)
    angle0_deg = _scalar("circular", "angle0_deg", angle0_deg)
    rate_deg_s = _scalar("circular", "rate_deg_s", rate_deg_s)
    if radius <= 0:
        raise ValueError("radius must be positive")
    ang = np.radians(angle0_deg + rate_deg_s * (times - times[0]))
    return center + radius * np.column_stack([np.cos(ang), np.sin(ang), np.zeros(len(times))])


# kind -> (function, its parameter names before times)
_KINDS = {
    "static": (static_trajectory, ("position",)),
    "linear": (linear_trajectory, ("start", "velocity")),
    "circular": (circular_trajectory, ("center", "radius", "angle0_deg", "rate_deg_s")),
}


def make_trajectory(kind: str, params: dict, times: np.ndarray) -> np.ndarray:
    """Dispatch on kind: static, linear, or circular.

    params must hold exactly the kind's parameters, by name.
    """
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown trajectory kind {kind!r}")
    func, names = _KINDS[kind]
    missing = [name for name in names if name not in params]
    if missing:
        raise ValueError(f"trajectory kind {kind!r} missing parameter {missing[0]!r}")
    extra = [key for key in params if key not in names]
    if extra:
        raise ValueError(f"trajectory kind {kind!r} does not take {', '.join(map(repr, extra))}")
    return func(*(params[name] for name in names), times)
