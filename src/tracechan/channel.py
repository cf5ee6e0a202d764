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
matrices A_rx and A_tx. The subband offsets step evenly, so a path's
coefficients are a phase ramp over the subband index times one first
term: _subband_terms computes them as (P, K) rows, about 2 sqrt(K)
complex exponentials a path (see arrays._phase_ramp), and
build_channel_matrices transposes them into coef. run_simulation computes
a block of rows' terms once, cuts each training row's channel out of
them, bit-equal to that row's build_channel_matrices, and takes every
row's power through its held pair from the same terms. Beam sweeps and
beamformed_power contract the factors directly. A_rx, A_tx and the dense
(K, N_rx, N_tx) tensor are assembled only when read.
"""

from __future__ import annotations

import math
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
# the record fields a channel is built from, in the order they are checked,
# and the names error messages give them
_FIELDS = {"gain_mag": "gain_mag", "phase": "phase_rad", "delay": "delay_s",
           "aod_az": "aod_az", "aoa_az": "aoa_az", "aod_zen": "aod_zen", "aoa_zen": "aoa_zen"}


@dataclass(frozen=True)
class SubbandGrid:
    """Carrier frequency plus K evenly spaced subband centers over bandwidth."""

    carrier_hz: float
    bandwidth_hz: float
    n_subbands: int = 64

    def __post_init__(self) -> None:
        if self.carrier_hz <= 0 or self.bandwidth_hz <= 0:
            raise ValueError("carrier_hz and bandwidth_hz must be positive")
        if self.n_subbands < 1:
            raise ValueError("n_subbands must be >= 1")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    def offsets_hz(self) -> np.ndarray:
        """Subband center offsets from the carrier: (k + 0.5) B/K - B/2."""
        k = np.arange(self.n_subbands)
        return (k + 0.5) * self.bandwidth_hz / self.n_subbands - self.bandwidth_hz / 2


@dataclass(frozen=True)
class PathFactors:
    """The per-path factors a channel is assembled from, one row per path.

    phasor is g_p exp(j phi_p), delay is tau_p in seconds, and each side's
    (rows, cols) are the row and column steering factors of the path's
    departure (tx) or arrival (rx) direction. A slice selects paths, so one
    link's factors can be computed at once and each snapshot's paths sliced
    out of them.
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


@dataclass(frozen=True)
class ChannelMatrixSet:
    """Per-subband channel H_k = a_rx diag(coef[k]) a_tx^H of one snapshot.

    paths is the snapshot's PathFactors. a_rx and a_tx, the (N_rx, P) and
    (N_tx, P) steering matrices whose column p is the Kronecker product of
    path p's row and column factors, are assembled from them on every read.
    """

    coef: np.ndarray  # (K, P) complex per-path coefficient on each subband
    paths: PathFactors
    grid: SubbandGrid
    time: float

    def __post_init__(self) -> None:
        if self.coef.shape != (self.grid.n_subbands, len(self.paths)):
            raise ValueError(f"coef shape {self.coef.shape} does not fit {len(self.paths)} "
                             f"paths on {self.grid.n_subbands} subbands")

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


def _check_fields(columns) -> None:
    """Raise ValueError naming the first bad channel field, in _FIELDS order.

    Non-finite values are reported first, then zeniths outside [0, 180].
    """
    fields = np.stack([columns[attr] for attr in _FIELDS])  # (7, P)
    names = list(_FIELDS.values())
    finite = np.isfinite(fields).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite {names[finite.argmin()]} in snapshot records")
    zen = fields[5:]
    in_range = ((zen >= 0.0) & (zen <= 180.0)).all(axis=1)
    if not in_range.all():
        raise ValueError(f"{names[5 + in_range.argmin()]} outside [0, 180] in snapshot records")


def path_factors(
    paths: TraceSet | Sequence[MpcRecord], tx_array: PlanarArray, rx_array: PlanarArray
) -> PathFactors:
    """The PathFactors of paths, in their order: one steering call per side.

    paths may span several snapshots; run_simulation passes one link's
    paths. A non-finite gain, phase, delay or azimuth, or a zenith outside
    [0, 180], on any path raises ValueError (see _check_fields).
    """
    c = (paths if isinstance(paths, TraceSet) else TraceSet(paths)).columns
    _check_fields(c)
    tx_rows, tx_cols = steering_factors(tx_array, _wrap_azimuth(c["aod_az"]), c["aod_zen"])
    rx_rows, rx_cols = steering_factors(rx_array, _wrap_azimuth(c["aoa_az"]), c["aoa_zen"])
    return PathFactors(
        c["gain_mag"] * np.exp(1j * c["phase"]), c["delay"], tx_rows, tx_cols, rx_rows, rx_cols
    )


def build_channel_matrices(
    paths: TraceSet | Sequence[MpcRecord] | PathFactors,
    tx_array: PlanarArray,
    rx_array: PlanarArray,
    grid: SubbandGrid,
    t: float | None = None,
) -> ChannelMatrixSet:
    """Assemble the factored per-subband channel of one snapshot.

    paths is the snapshot's paths: a TraceSet or MpcRecords, which must all
    share one (t, tx_id, rx_id), or their PathFactors for these arrays
    (run_simulation slices them out of its link's). t defaults to the
    records' time, else 0.0; no paths give a channel with zero-path factors
    and all-zero matrices. Records go through path_factors, so the same
    fields raise ValueError. No steering matrix is assembled here.
    """
    if not isinstance(paths, PathFactors):
        trace = paths if isinstance(paths, TraceSet) else TraceSet(paths)
        c = trace.columns
        if t is None:
            t = c["t"][0].item() if len(trace) else 0.0
        if ((c["t"] != t) | (c["tx_id"] != c["tx_id"][:1]) | (c["rx_id"] != c["rx_id"][:1])).any():
            raise ValueError("records must belong to a single (t, tx_id, rx_id) snapshot")
        paths = path_factors(trace, tx_array, rx_array)
    elif t is None:
        t = 0.0
    # (K, P) per-path complex coefficient on each subband, a new C-ordered array
    coef = _subband_terms(paths.phasor, paths.delay, grid).T.copy()
    return ChannelMatrixSet(coef, paths, grid, t)


def _subband_terms(scale: np.ndarray, delay: np.ndarray, grid: SubbandGrid) -> np.ndarray:
    """The (P, K) terms scale[p] exp(-j 2 pi df_k delay[p]) of P paths on grid's subbands.

    The offsets df_k = f_0 + k B/K step evenly from the first one, f_0, so a
    path's row is scale exp(-j 2 pi f_0 tau) times the phase ramp of step
    -2 pi (B/K) tau (arrays._phase_ramp): about 2 sqrt(K) complex
    exponentials a path instead of K. Every product writes a new array, so a
    path's row is bit-equal whichever paths share the call, and a channel's
    coef is the transposed rows of its paths.
    """
    step = grid.bandwidth_hz / grid.n_subbands
    first = scale * np.exp(-2j * math.pi * (0.5 * step - grid.bandwidth_hz / 2) * delay)
    return first[:, None] * _phase_ramp(-2.0 * math.pi * step * delay, grid.n_subbands)


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
    unit norm (tolerance 1e-9); transmit power splits evenly over subbands.
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
        if not abs(norm - 1.0) <= 1e-9:  # NaN too
            raise ValueError(f"{name} must have unit norm, got {norm!r}")
        gains.append(((rows @ w.reshape(shape).conj()) * cols).sum(axis=1))
    if p_tx_w < 0:
        raise ValueError("p_tx_w must be non-negative")

    amp = channel.coef @ (gains[1] * gains[0].conj())  # (K,)
    per_subband = (p_tx_w / channel.grid.n_subbands) * np.abs(amp) ** 2
    return per_subband, _finite_power(float(per_subband.sum()), channel.time)
