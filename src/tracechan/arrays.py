"""Planar antenna array geometry and steering vectors.

Arrays are uniform planar arrays in the local y-z plane with boresight along
+x. Element (row r, col c) sits at (0, c*spacing*wavelength, r*spacing*wavelength)
before the bearing rotation; flattening is row-major (r outer, c inner).
A bearing rotates the whole array about the global z axis. Elements are
isotropic: every element has unit gain in every direction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Direction",
    "PlanarArray",
    "SteeringVector",
    "direction_unit_vector",
    "element_positions",
    "steering_vector",
]


@dataclass(frozen=True)
class Direction:
    """A propagation direction in the global frame, degrees.

    azimuth_deg in [-180, 180) from +x toward +y; zenith_deg in [0, 180]
    from +z. Zenith 90 is the horizon; zenith = 90 - elevation.
    """

    azimuth_deg: float
    zenith_deg: float

    def __post_init__(self) -> None:
        if not -180.0 <= self.azimuth_deg < 180.0:
            raise ValueError(f"azimuth {self.azimuth_deg!r} outside [-180, 180)")
        if not 0.0 <= self.zenith_deg <= 180.0:
            raise ValueError(f"zenith {self.zenith_deg!r} outside [0, 180]")

    @classmethod
    def from_degrees(cls, azimuth_deg: float, zenith_deg: float) -> "Direction":
        """Construct with the azimuth wrapped into [-180, 180)."""
        az = ((azimuth_deg + 180.0) % 360.0) - 180.0
        if az >= 180.0:  # guard rounding at the wrap point
            az = -180.0
        return cls(az, zenith_deg)

    @property
    def azimuth(self) -> float:
        """Azimuth in radians."""
        return math.radians(self.azimuth_deg)

    @property
    def zenith(self) -> float:
        """Zenith in radians."""
        return math.radians(self.zenith_deg)


def direction_unit_vector(d: Direction) -> np.ndarray:
    """Unit vector (sin z cos a, sin z sin a, cos z) for a Direction."""
    az, zen = d.azimuth, d.zenith
    sz = math.sin(zen)
    return np.array([sz * math.cos(az), sz * math.sin(az), math.cos(zen)])


@dataclass(frozen=True)
class PlanarArray:
    """Uniform planar array: geometry only, no RF chain modelling.

    spacing is in wavelengths (0.5 = half wavelength). wavelength_m is the
    carrier wavelength used both for element pitch and steering phases.
    """

    n_rows: int
    n_cols: int
    wavelength_m: float
    spacing: float = 0.5
    bearing_deg: float = 0.0

    def __post_init__(self) -> None:
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("array must have at least one row and column")
        if self.wavelength_m <= 0:
            raise ValueError("wavelength_m must be positive")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")

    @property
    def n_elements(self) -> int:
        return self.n_rows * self.n_cols


@functools.lru_cache(maxsize=64)
def element_positions(array: PlanarArray) -> np.ndarray:
    """(N, 3) element positions in meters, row-major, bearing applied.

    Cached per (frozen, hashable) array; the shared result is read-only.
    """
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
    pos.setflags(write=False)
    return pos


@dataclass(frozen=True)
class SteeringVector:
    """Array response toward one direction. Entries have unit magnitude."""

    direction: Direction
    vector: np.ndarray  # (N,) complex128


def steering_vector(array: PlanarArray, d: Direction) -> SteeringVector:
    """Un-normalized array response: exp(j*(2 pi / wavelength) * p . r(d))."""
    phases = _steering_phases(array, d)
    return SteeringVector(d, np.exp(1j * phases))


def _steering_phases(array: PlanarArray, d: Direction) -> np.ndarray:
    k = 2.0 * math.pi / array.wavelength_m
    return k * (element_positions(array) @ direction_unit_vector(d))
