"""Grid codebooks and exhaustive beam-pair sweeps.

Codebook weights are steering vectors scaled to unit norm. The Hermitian
inner products inside the beamformed-power quadratic form supply the
conjugation, so a beam pointed exactly at a path's direction conjugate-matches
that path and attains the full array gain.

Sweeps contract the factored channel H_k = A_rx diag(c_k) A_tx^H without
forming it: the tx codebook is projected onto the P path steering vectors,
the rx side is taken in the path basis or the element basis, whichever is
smaller, and the K subbands are compressed to min(K, P) rows of the
triangular QR factor of the coefficient matrix. The power table is then a
sum of |amplitude|^2 planes, one per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import Direction, PlanarArray, steering_vector
from .channel import ChannelMatrixSet

__all__ = [
    "BeamCodebook",
    "BeamSelection",
    "generate_codebook",
    "sweep_power_table",
    "select_best_pair",
    "ideal_beam_sweep",
]


@dataclass(frozen=True)
class BeamCodebook:
    """Beams on a regular azimuth x zenith grid, azimuth-major order."""

    directions: tuple[Direction, ...]
    weights: np.ndarray  # (n_beams, N) complex, rows unit-norm

    def __len__(self) -> int:
        return len(self.directions)


def _grid_points(lo: float, hi: float, step: float) -> np.ndarray:
    if step <= 0:
        raise ValueError("grid step must be positive")
    if hi < lo:
        raise ValueError(f"grid upper bound {hi} below lower bound {lo}")
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(n)


def generate_codebook(
    array: PlanarArray,
    az_min_deg: float,
    az_max_deg: float,
    az_step_deg: float,
    zen_min_deg: float = 60.0,
    zen_max_deg: float = 120.0,
    zen_step_deg: float = 10.0,
) -> BeamCodebook:
    """Build a codebook over the az/zen grid; entry count n_az * n_zen."""
    az = _grid_points(az_min_deg, az_max_deg, az_step_deg)
    zen = _grid_points(zen_min_deg, zen_max_deg, zen_step_deg)
    directions: list[Direction] = []
    rows: list[np.ndarray] = []
    scale = 1.0 / math.sqrt(array.n_elements)
    for a in az:
        for z in zen:
            d = Direction.from_degrees(float(a), float(z))
            directions.append(d)
            rows.append(steering_vector(array, d).vector * scale)
    return BeamCodebook(tuple(directions), np.array(rows))


@dataclass(frozen=True)
class BeamSelection:
    """Winning beam pair of a sweep and the received power it achieves."""

    tx_index: int
    rx_index: int
    tx_direction: Direction
    rx_direction: Direction
    power_w: float


def sweep_power_table(
    channel: ChannelMatrixSet,
    tx_codebook: BeamCodebook,
    rx_codebook: BeamCodebook,
    p_tx_w: float,
) -> np.ndarray:
    """Total received power for every (tx beam, rx beam) pair, watts.

    Returns shape (n_tx_beams, n_rx_beams). Matches beamformed_power
    evaluated pairwise. With x = (a_tx^H w_tx) * (a_rx^T w_rx^*) the pair's
    per-subband amplitudes are coef @ x, and sum_k |coef @ x|^2 equals
    sum_j |r @ x|^2 for the QR factor r of coef, which has min(K, P) rows.
    """
    if p_tx_w < 0:
        raise ValueError("p_tx_w must be non-negative")
    tx_paths = tx_codebook.weights @ channel.a_tx.conj()  # (n_tx_b, P)
    wr_t = rx_codebook.weights.conj().T  # (N_rx, n_rx_b)
    a_rx_t = channel.a_rx.T  # (P, N_rx)
    n_paths, n_rx = a_rx_t.shape
    # rx side in the smaller basis: the P paths, else the N_rx elements
    rx_side = (a_rx_t @ wr_t,) if n_paths <= n_rx else (a_rx_t, wr_t)
    coef = channel.coef
    if coef.shape[0] > n_paths:
        coef = np.linalg.qr(coef, mode="r")  # (P, P) with r^H r = coef^H coef
    table = np.zeros((tx_paths.shape[0], wr_t.shape[1]))
    for row in coef:  # one (n_tx_b, n_rx_b) amplitude plane at a time
        amp = tx_paths * row
        for factor in rx_side:
            amp = amp @ factor
        table += amp.real**2 + amp.imag**2
    return (p_tx_w / channel.grid.n_subbands) * table


def select_best_pair(
    table: np.ndarray, tx_codebook: BeamCodebook, rx_codebook: BeamCodebook
) -> BeamSelection:
    """Winning pair of a (n_tx_beams, n_rx_beams) power table.

    Ties are broken by the total order (power desc, tx index asc, rx index
    asc): the first occurrence of the maximum in row-major order wins.
    """
    ti, ri = divmod(int(np.argmax(table)), table.shape[1])
    return BeamSelection(
        tx_index=ti,
        rx_index=ri,
        tx_direction=tx_codebook.directions[ti],
        rx_direction=rx_codebook.directions[ri],
        power_w=float(table[ti, ri]),
    )


def ideal_beam_sweep(
    channel: ChannelMatrixSet,
    tx_codebook: BeamCodebook,
    rx_codebook: BeamCodebook,
    p_tx_w: float,
) -> BeamSelection:
    """Exhaustive sweep over all beam pairs on one snapshot's channel.

    Training is ideal: no airtime is consumed and the channel does not
    change during the sweep. The winner is chosen by select_best_pair, so
    the result does not depend on evaluation schedule.
    """
    table = sweep_power_table(channel, tx_codebook, rx_codebook, p_tx_w)
    return select_best_pair(table, tx_codebook, rx_codebook)
