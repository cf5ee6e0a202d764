"""Planar antenna array geometry and steering vectors.

Arrays are uniform planar arrays in the local y-z plane with boresight along
+x. Element (row r, col c) sits at (0, c*spacing*wavelength, r*spacing*wavelength)
before the bearing rotation; flattening is row-major (r outer, c inner).
A bearing rotates the whole array about the global z axis. Elements are
isotropic: every element has unit gain in every direction.

The response is separable. With pitch = spacing * wavelength, k = 2 pi /
wavelength, bearing b and a direction at azimuth a, zenith z, element (r, c)
has phase k * pitch * (c * alpha + r * beta), where

    alpha = sin z * (-sin b * cos a + cos b * sin a)   (along the rotated y axis)
    beta  = cos z                                      (along z)

so the response is the Kronecker product of a row factor exp(j k pitch r beta)
and a column factor exp(j k pitch c alpha). steering_factors computes these
factors, and it is the one steering formula of the package. The channel's
path factors and the beam codebooks keep the factors and contract weights
through them; one private helper, _responses, forms the Kronecker products
where whole responses are read (steering_matrix, a channel's a_rx and a_tx).

Each factor is a uniform phase ramp exp(j phi k), k = 0..n-1, and so are
the channel's subband coefficients over the subband index. One private
kernel, _ramp_tables, computes a ramp's two short exponential tables,
about 2 sqrt(n) complex exponentials a ramp instead of n, and _phase_ramp
forms every term from them: a direction costs about 2 (sqrt(R) + sqrt(C))
instead of R + C.

The row factor depends on the zenith alone, so a codebook takes one row
ramp per grid zenith (_row_factors) and its column factors per beam
(_col_factors); steering_factors is the two together.

Steering takes azimuth and zenith arrays in degrees, one entry per
direction; Direction only labels codebook beams and sweep winners, and
_check_angles is its range rule for one direction or for arrays of them.
Callers wrap azimuths with _wrap_azimuth, the one azimuth wrap of the
package.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

__all__ = [
    "Direction",
    "PlanarArray",
    "steering_factors",
    "steering_matrix",
    "steering_vector",
]


# Direction's ranges in degrees, (lo, hi, hi_open); a trace's angle columns take them too
_AZIMUTH_RANGE = (-180.0, 180.0, True)
_ZENITH_RANGE = (0.0, 180.0, False)


@dataclass(frozen=True)
class Direction:
    """A propagation direction in the global frame, degrees.

    azimuth_deg in [-180, 180) from +x toward +y; zenith_deg in [0, 180]
    from +z. Zenith 90 is the horizon; zenith = 90 - elevation.
    """

    azimuth_deg: float
    zenith_deg: float

    def __post_init__(self) -> None:
        _check_angles(self.azimuth_deg, self.zenith_deg)


def _within(x, bounds):
    """Whether x lies in bounds = (lo, hi, hi_open), elementwise for an array; NaN does not."""
    lo, hi, hi_open = bounds
    return (lo <= x) & ((x < hi) if hi_open else (x <= hi))


def _check_angles(az_deg, zen_deg) -> None:
    """Raise Direction's ValueError for the first direction outside its ranges.

    Takes two numbers or two arrays of one length, in degrees; NaN fails.
    A direction's azimuth is reported before its zenith.
    """
    ok_az = _within(az_deg, _AZIMUTH_RANGE)
    ok = ok_az & _within(zen_deg, _ZENITH_RANGE)
    if ok is True or np.all(ok):  # a plain bool for two in-range floats: no numpy call
        return
    i = int(np.argmin(np.ravel(ok)))
    if not np.ravel(ok_az)[i]:
        raise ValueError(f"azimuth {np.ravel(az_deg)[i].item()!r} outside [-180, 180)")
    raise ValueError(f"zenith {np.ravel(zen_deg)[i].item()!r} outside [0, 180]")


def _wrap_azimuth(az_deg: ArrayLike) -> np.ndarray:
    """Azimuths in degrees wrapped into [-180, 180), elementwise.

    Not the identity in range: 0.1 gives 0.09999999999999432. NaN and inf
    give NaN.
    """
    az = (np.asarray(az_deg, dtype=float) + 180.0) % 360.0 - 180.0
    return np.where(az >= 180.0, -180.0, az)  # guard rounding at the wrap point


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
        for name in ("n_rows", "n_cols"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("wavelength_m", "spacing", "bearing_deg"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name, rule, ok in (("n_rows", ">= 1", self.n_rows >= 1),
                               ("n_cols", ">= 1", self.n_cols >= 1),
                               ("wavelength_m", "> 0", self.wavelength_m > 0),
                               ("spacing", "> 0", self.spacing > 0)):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")

    @property
    def n_elements(self) -> int:
        return self.n_rows * self.n_cols


def steering_factors(
    array: PlanarArray, az_deg: ArrayLike, zen_deg: ArrayLike
) -> tuple[np.ndarray, np.ndarray]:
    """The (D, R) row and (D, C) column factors of D responses, unit modulus.

    Response d is the Kronecker product of row d of each factor (see
    steering_matrix). az_deg and zen_deg hold the D directions' azimuths and zeniths in
    degrees, taken as given (no wrap). Either factor may be a view of a wider array
    (see _phase_ramp).
    """
    zen = np.asarray(zen_deg, dtype=float)
    return _row_factors(array, zen), _col_factors(array, np.asarray(az_deg, dtype=float), zen)


def _k_pitch(array: PlanarArray) -> float:
    return 2.0 * math.pi / array.wavelength_m * (array.spacing * array.wavelength_m)


def _row_factors(array: PlanarArray, zen_deg: np.ndarray) -> np.ndarray:
    """steering_factors' (D, R) row factors, which depend on the zeniths alone."""
    return _phase_ramp(_k_pitch(array) * np.cos(np.radians(zen_deg)), array.n_rows)


def _col_factors(array: PlanarArray, az_deg: np.ndarray, zen_deg: np.ndarray) -> np.ndarray:
    """steering_factors' (D, C) column factors."""
    az, zen = np.radians(az_deg), np.radians(zen_deg)
    b = math.radians(array.bearing_deg)
    alpha = np.sin(zen) * (-math.sin(b) * np.cos(az) + math.cos(b) * np.sin(az))
    return _phase_ramp(_k_pitch(array) * alpha, array.n_cols)


def _phase_ramp(phi: np.ndarray, n: int) -> np.ndarray:
    """exp(1j * phi[:, None] * arange(n)): the (D, n) ramps of D phase steps phi, n >= 1.

    Term k = a m + b is the product coarse[:, a] * fine[:, b] of the
    _ramp_tables. The product writes a new array, not over a table, and runs
    along one row at a time, so a row is bit-equal whichever rows share its
    call. The result may be a view cut from a (D, m ceil(n / m)) array.
    """
    m = _ramp_width(n)
    # held first, so a ramp too long to hold fails before any exponential is taken
    ramps = np.empty((len(phi), -(-n // m), m), complex)
    coarse, fine = _ramp_tables(phi, n)
    np.multiply(coarse[:, :, None], fine[:, None, :], out=ramps)
    return ramps.reshape(len(phi), ramps.shape[1] * m)[:, :n]


def _ramp_width(n: int) -> int:
    """m = ceil(sqrt(n)), the fine table's width of an n-term ramp, n >= 1."""
    return math.isqrt(n - 1) + 1


def _ramp_tables(phi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (D, ceil(n / m)) coarse and (D, m) fine tables of n-term ramps, m = _ramp_width(n).

    exp(j phi k) = exp(j phi a m) exp(j phi b) for k = a m + b, so the
    coarse table over a < ceil(n / m) and the fine table over b < m give
    every term as one product: about 2 sqrt(n) complex exponentials a row
    instead of n. The one ramp kernel: _phase_ramp forms the products, and a
    caller that contracts a ramp with other terms may contract the tables
    instead (link._row_powers).
    """
    m = _ramp_width(n)
    fine = np.exp(1j * np.multiply.outer(phi, np.arange(m)))  # (D, m)
    coarse = np.exp(1j * np.multiply.outer(phi, np.arange(0, n, m)))  # (D, ceil(n / m))
    return coarse, fine


def steering_matrix(array: PlanarArray, az_deg: ArrayLike, zen_deg: ArrayLike) -> np.ndarray:
    """Un-normalized responses toward D directions, shape (N, D), one column each.

    az_deg and zen_deg are the directions' azimuths and zeniths in degrees.
    Column d is exp(j*(2 pi / wavelength) * p . r(d)) over the element
    positions p, assembled from its (R,) row and (C,) column factors. The
    result is the transposed view of a C-contiguous (D, N) array, so ``.T``
    gives the per-direction rows without a copy.
    """
    return _responses(*steering_factors(array, az_deg, zen_deg))


def _responses(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The (R*C, D) responses of (D, R) row and (D, C) column factors.

    Column d is the Kronecker product of row d of each factor. The result is
    the transposed view of a C-contiguous (D, R*C) array.
    """
    # (D, R, C) with c fastest, i.e. row-major element order along the last axes
    return (rows[:, :, None] * cols[:, None, :]).reshape(len(rows), rows.shape[1] * cols.shape[1]).T


def steering_vector(array: PlanarArray, d: Direction) -> np.ndarray:
    """Un-normalized (N,) array response: exp(j*(2 pi / wavelength) * p . r(d))."""
    return steering_matrix(array, [d.azimuth_deg], [d.zenith_deg])[:, 0]
