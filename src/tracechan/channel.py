"""Frequency-domain MIMO channel assembly from multipath records.

For each subband k with offset df_k from the carrier, the channel entry for
rx element u and tx element s is

    H_k[u, s] = sum_p g_p * exp(j phi_p) * exp(-j 2 pi df_k tau_p)
                * a_rx[u](aoa_p) * conj(a_tx[s](aod_p))

where g_p, phi_p, tau_p come from the trace record and a_rx / a_tx are
steering vectors at the recorded arrival / departure angles. path_factors
computes g_p exp(j phi_p) and both sides' row and column steering factors
of many paths at once, from the trace's columns (no Direction objects);
a snapshot's channel takes its paths' slice of them. phase_rad in the trace
is the total path phase at the carrier, so only the subband offset term is
applied here. Each snapshot's channel is taken at its own time: node motion
enters only through the recorded paths of later snapshots.

A snapshot with P paths gives a channel of rank at most P, so it is kept
factored: H_k = A_rx diag(c_k) A_tx^H with the (K, P) per-path subband
coefficients c and the snapshot's PathFactors, whose row and column
factors define the (N_rx, P) arrival and (N_tx, P) departure steering
matrices A_rx and A_tx. A channel stores only its PathFactors: c, A_rx,
A_tx and the dense (K, N_rx, N_tx) tensor are computed from them when
read. The subband offsets step evenly, so a path's coefficients are a
phase ramp over the subband index times one first term (_subband_ramp):
_subband_terms computes them as (P, K) rows, about 2 sqrt(K) complex
exponentials a path (see arrays._phase_ramp), and a row's bits do not
depend on which paths share the call. ChannelMatrixSet.coef and a beam
sweep, for its chunk of channels, compute the coefficients they need from
the factors they hold, bit-equal on the same paths. run_simulation's row
evaluation forms no (P, K) terms: it contracts the ramp's coarse and fine
tables (arrays._ramp_tables) with its paths' first terms and beam gains.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arrays import PlanarArray, _phase_ramp, _responses, _wrap_azimuth, steering_factors
from .traces import MpcRecord, TraceSet

__all__ = [
    "SubbandGrid",
    "ChannelMatrixSet",
    "PathFactors",
    "path_factors",
    "build_channel_matrices",
    "beamformed_power",
]

SPEED_OF_LIGHT = 299792458.0  # m/s
_NORM_TOL = 1e-9  # a beam weight norm this close to 1 counts as unit norm


@dataclass(frozen=True)
class SubbandGrid:
    """Carrier frequency plus K evenly spaced subband centers over bandwidth."""

    carrier_hz: float
    bandwidth_hz: float
    n_subbands: int = 64

    def __post_init__(self) -> None:
        for name in ("carrier_hz", "bandwidth_hz"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not isinstance(self.n_subbands, numbers.Integral):
            raise ValueError(f"n_subbands must be an integer, got {self.n_subbands!r}")
        if self.n_subbands < 1:
            raise ValueError(f"n_subbands must be >= 1, got {self.n_subbands!r}")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz


@dataclass(frozen=True, eq=False)
class PathFactors:
    """The per-path factors a channel is assembled from, one row per path.

    phasor is g_p exp(j phi_p), delay is tau_p in seconds, and each side's
    (rows, cols) are the row and column steering factors of the path's
    departure (tx) or arrival (rx) direction. A slice selects paths, so one
    link's factors can be computed at once and each snapshot's paths sliced
    out of them. Factors compare and hash by identity.
    """

    phasor: np.ndarray  # (P,) complex
    delay: np.ndarray  # (P,)
    tx_rows: np.ndarray  # (P, R_tx)
    tx_cols: np.ndarray  # (P, C_tx)
    rx_rows: np.ndarray  # (P, R_rx)
    rx_cols: np.ndarray  # (P, C_rx)

    def __len__(self) -> int:
        return len(self.delay)

    def __getitem__(self, paths: slice) -> PathFactors:
        return PathFactors(*(factor[paths] for factor in vars(self).values()))


@dataclass(frozen=True, eq=False)
class ChannelMatrixSet:
    """Per-subband channel H_k = a_rx diag(coef[k]) a_tx^H of one snapshot.

    paths is the snapshot's PathFactors. coef, and a_rx and a_tx, the
    (N_rx, P) and (N_tx, P) steering matrices whose column p is the
    Kronecker product of path p's row and column factors, are computed from
    them on every read. Channels compare and hash by identity.
    """

    paths: PathFactors
    grid: SubbandGrid
    time: float

    @property
    def coef(self) -> np.ndarray:
        """(K, P) per-path coefficients on each subband, a new C-ordered array."""
        return _subband_terms(self.paths.phasor, self.paths.delay, self.grid).T.copy()

    @property
    def a_rx(self) -> np.ndarray:
        """(N_rx, P) arrival steering vectors, one column per path."""
        return _responses(self.paths.rx_rows, self.paths.rx_cols)

    @property
    def a_tx(self) -> np.ndarray:
        """(N_tx, P) departure steering vectors, one column per path."""
        return _responses(self.paths.tx_rows, self.paths.tx_cols)

    @property
    def matrices(self) -> np.ndarray:
        """Dense (K, N_rx, N_tx) channel tensor, assembled on every read."""
        return np.einsum("kp,up,sp->kus", self.coef, self.a_rx, self.a_tx.conj(), optimize=True)


def path_factors(
    paths: TraceSet | Sequence[MpcRecord], tx_array: PlanarArray, rx_array: PlanarArray
) -> PathFactors:
    """The PathFactors of paths, in their order: one steering call per side.

    paths may span several snapshots; run_simulation passes one link's
    paths.
    """
    c = (paths if isinstance(paths, TraceSet) else TraceSet(paths)).columns
    tx_rows, tx_cols = steering_factors(tx_array, _wrap_azimuth(c["aod_az"]), c["aod_zen"])
    rx_rows, rx_cols = steering_factors(rx_array, _wrap_azimuth(c["aoa_az"]), c["aoa_zen"])
    return PathFactors(
        c["gain_mag"] * np.exp(1j * c["phase"]), c["delay"], tx_rows, tx_cols, rx_rows, rx_cols
    )


def build_channel_matrices(
    paths: TraceSet | Sequence[MpcRecord],
    tx_array: PlanarArray,
    rx_array: PlanarArray,
    grid: SubbandGrid,
    t: float | None = None,
) -> ChannelMatrixSet:
    """Assemble the factored per-subband channel of one snapshot.

    paths is the snapshot's TraceSet or MpcRecords, which must all share one
    (t, tx_id, rx_id). t defaults to the records' time, else 0.0; no paths
    give a channel with zero-path factors and all-zero matrices. No steering
    matrix or coefficient is computed here.
    """
    trace = paths if isinstance(paths, TraceSet) else TraceSet(paths)
    c = trace.columns
    if t is None:
        t = c["t"][0].item() if len(trace) else 0.0
    if ((c["t"] != t) | (c["tx_id"] != c["tx_id"][:1]) | (c["rx_id"] != c["rx_id"][:1])).any():
        raise ValueError("records must belong to a single (t, tx_id, rx_id) snapshot")
    return ChannelMatrixSet(path_factors(trace, tx_array, rx_array), grid, t)


def _subband_terms(scale: np.ndarray, delay: np.ndarray, grid: SubbandGrid) -> np.ndarray:
    """The (P, K) terms scale[p] exp(-j 2 pi df_k delay[p]) of P paths on grid's subbands.

    Each path's row is its _subband_ramp first term times the ramp of its
    step (arrays._phase_ramp): about 2 sqrt(K) complex exponentials a path
    instead of K. Every product writes a new array from named or view
    operands (see the rule in beams), so a path's row is bit-equal whichever
    paths share the call, and a channel's coef is the transposed rows of its
    paths.
    """
    first, phi = _subband_ramp(scale, delay, grid)
    return first[:, None] * _phase_ramp(phi, grid.n_subbands)


def _subband_ramp(scale: np.ndarray, delay: np.ndarray,
                  grid: SubbandGrid) -> tuple[np.ndarray, np.ndarray]:
    """The (P,) first terms and phase steps of P paths' subband terms over k.

    Subband k's center sits df_k = (k + 0.5) B/K - B/2 from the carrier, so
    the offsets step evenly from the first one, f_0 = B/(2K) - B/2, and a
    path's terms are its first term scale exp(-j 2 pi f_0 tau) times the
    phase ramp of step -2 pi (B/K) tau.
    """
    step = grid.bandwidth_hz / grid.n_subbands
    turn = np.exp(-2j * math.pi * (0.5 * step - grid.bandwidth_hz / 2) * delay)
    first = scale * turn
    return first, -2.0 * math.pi * step * delay


def _finite_power(power: float, t: float) -> float:
    """power, or ValueError naming the snapshot time t if it is inf or NaN."""
    if not math.isfinite(power):
        raise ValueError(f"received power at t={t!r} overflows to {float(power)}")
    return power


@np.errstate(over="ignore", invalid="ignore")  # an overflowed power raises instead
def beamformed_power(
    channel: ChannelMatrixSet,
    w_tx: np.ndarray,
    w_rx: np.ndarray,
    p_tx_w: float,
) -> tuple[np.ndarray, float]:
    """Received power through one beam pair: per subband and total, watts.

    P_k = (p_tx / K) * |w_rx^H H_k w_tx|^2. Both weight vectors must have
    unit norm (tolerance _NORM_TOL); transmit power splits evenly over subbands.
    The amplitude is contracted through the path factors: with W the (R, C)
    row-major reshape of w, w^H a[:, p] = ((rows @ W^*) * cols).sum(axis=1)[p]
    for any weights, and w_rx^H H_k w_tx = sum_p coef[k, p]
    (w_rx^H a_rx[:, p]) conj(w_tx^H a_tx[:, p]). A total that is not finite
    raises ValueError naming the channel's time (see _finite_power).
    """
    f = channel.paths
    gains = []  # w^H a[:, p] of the tx side, then the rx side
    for name, w, rows, cols in (("w_tx", w_tx, f.tx_rows, f.tx_cols),
                                ("w_rx", w_rx, f.rx_rows, f.rx_cols)):
        w, shape = np.asarray(w), (rows.shape[1], cols.shape[1])
        if w.shape != (shape[0] * shape[1],):
            raise ValueError(f"{name} must have shape ({shape[0] * shape[1]},), got {w.shape}")
        norm = math.sqrt(np.vdot(w, w).real)
        if not abs(norm - 1.0) <= _NORM_TOL:  # NaN too
            raise ValueError(f"{name} must have unit norm, got {norm!r}")
        proj = rows @ w.reshape(shape).conj()  # (P, C)
        gains.append((proj * cols).sum(axis=1))
    if p_tx_w < 0:
        raise ValueError("p_tx_w must be non-negative")

    tx_conj = gains[0].conj()
    amp = channel.coef @ (gains[1] * tx_conj)  # (K,)
    per_subband = (p_tx_w / channel.grid.n_subbands) * np.abs(amp) ** 2
    return per_subband, _finite_power(float(per_subband.sum()), channel.time)
