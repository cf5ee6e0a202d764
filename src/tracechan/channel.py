"""Frequency-domain MIMO channel assembly from multipath records.

For each subband k with offset df_k from the carrier, the channel entry for
rx element u and tx element s is

    H_k[u, s] = sum_p g_p * exp(j phi_p) * exp(-j 2 pi df_k tau_p)
                * a_rx[u](aoa_p) * conj(a_tx[s](aod_p))

where g_p, phi_p, tau_p come from the trace record and a_rx / a_tx are
steering vectors at the recorded arrival / departure angles. phase_rad in
the trace is the total path phase at the carrier, so only the subband offset
term is applied here. Each snapshot's channel is taken at its own time, as
in a trace-based channel model: node motion enters only through the
recorded paths of later snapshots.

A snapshot with P paths gives a channel of rank at most P, so it is kept
factored: H_k = A_rx diag(c_k) A_tx^H with the (K, P) per-path subband
coefficients c, the (N_rx, P) arrival steering matrix A_rx and the (N_tx, P)
departure steering matrix A_tx. Beamformed power and beam sweeps contract
these factors directly; the dense (K, N_rx, N_tx) tensor is built only when
``ChannelMatrixSet.matrices`` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arrays import Direction, PlanarArray, steering_matrix
from .traces import MpcRecord

__all__ = [
    "SubbandGrid",
    "ChannelMatrixSet",
    "build_channel_matrices",
    "beamformed_power",
]

SPEED_OF_LIGHT = 299792458.0  # m/s


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
class ChannelMatrixSet:
    """Per-subband channel H_k = a_rx diag(coef[k]) a_tx^H of one snapshot."""

    coef: np.ndarray  # (K, P) complex per-path coefficient on each subband
    a_rx: np.ndarray  # (N_rx, P) arrival steering vectors, one column per path
    a_tx: np.ndarray  # (N_tx, P) departure steering vectors, one column per path
    grid: SubbandGrid
    time: float

    def __post_init__(self) -> None:
        n_paths = self.coef.shape[1]
        if (self.coef.shape != (self.grid.n_subbands, n_paths)
                or self.a_rx.ndim != 2 or self.a_rx.shape[1] != n_paths
                or self.a_tx.ndim != 2 or self.a_tx.shape[1] != n_paths):
            raise ValueError(
                f"factor shapes coef {self.coef.shape}, a_rx {self.a_rx.shape}, "
                f"a_tx {self.a_tx.shape} do not form a {self.grid.n_subbands}-subband channel"
            )

    @property
    def matrices(self) -> np.ndarray:
        """Dense (K, N_rx, N_tx) channel tensor, assembled on every read."""
        return np.einsum("kp,up,sp->kus", self.coef, self.a_rx, self.a_tx.conj(), optimize=True)


def build_channel_matrices(
    records: Sequence[MpcRecord],
    tx_array: PlanarArray,
    rx_array: PlanarArray,
    grid: SubbandGrid,
    t: float | None = None,
) -> ChannelMatrixSet:
    """Assemble the factored per-subband channel of one snapshot group.

    records must all share one (t, tx_id, rx_id); t defaults to their time.
    An empty group yields a channel at time t (default 0.0) with no paths,
    whose matrices are all zero. Each side's steering factor is one
    steering_matrix call over the group's departure or arrival directions.
    """
    if not records:
        return ChannelMatrixSet(
            np.zeros((grid.n_subbands, 0), dtype=complex),
            np.zeros((rx_array.n_elements, 0), dtype=complex),
            np.zeros((tx_array.n_elements, 0), dtype=complex),
            grid,
            t or 0.0,
        )

    if t is None:
        t = records[0].t
    if any((r.t, r.tx_id, r.rx_id) != (t, records[0].tx_id, records[0].rx_id) for r in records):
        raise ValueError("records must belong to a single (t, tx_id, rx_id) snapshot")

    gains = np.array([r.gain_mag for r in records])
    phases = np.array([r.phase for r in records])
    delays = np.array([r.delay for r in records])
    for name, arr in (("gain_mag", gains), ("phase_rad", phases), ("delay_s", delays)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite {name} in snapshot records")

    a_tx = steering_matrix(
        tx_array, [Direction.from_degrees(r.aod_az, r.aod_zen) for r in records]
    )  # (N_tx, P)
    a_rx = steering_matrix(
        rx_array, [Direction.from_degrees(r.aoa_az, r.aoa_zen) for r in records]
    )  # (N_rx, P)

    # (K, P) per-path complex coefficient on each subband
    coef = gains * np.exp(1j * phases) * np.exp(
        -1j * 2.0 * math.pi * np.outer(grid.offsets_hz(), delays)
    )
    return ChannelMatrixSet(coef, a_rx, a_tx, grid, t)


def beamformed_power(
    channel: ChannelMatrixSet,
    w_tx: np.ndarray,
    w_rx: np.ndarray,
    p_tx_w: float,
) -> tuple[np.ndarray, float]:
    """Received power through one beam pair: per subband and total, watts.

    P_k = (p_tx / K) * |w_rx^H H_k w_tx|^2. Both weight vectors must have
    unit norm (tolerance 1e-9); transmit power splits evenly over subbands.
    The amplitude is contracted in the path domain:
    w_rx^H H_k w_tx = sum_p coef[k, p] (w_rx^H a_rx[:, p]) (a_tx[:, p]^H w_tx).
    """
    w_tx = np.asarray(w_tx)
    w_rx = np.asarray(w_rx)
    for name, w, n in (("w_tx", w_tx, channel.a_tx.shape[0]),
                       ("w_rx", w_rx, channel.a_rx.shape[0])):
        if w.shape != (n,):
            raise ValueError(f"{name} must have shape ({n},), got {w.shape}")
        norm = np.linalg.norm(w)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"{name} must have unit norm, got {norm!r}")
    if p_tx_w < 0:
        raise ValueError("p_tx_w must be non-negative")

    amp = channel.coef @ ((w_rx.conj() @ channel.a_rx) * (w_tx @ channel.a_tx.conj()))  # (K,)
    per_subband = (p_tx_w / channel.grid.n_subbands) * np.abs(amp) ** 2
    return per_subband, float(per_subband.sum())
