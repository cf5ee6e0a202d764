"""Grid codebooks and exhaustive beam-pair sweeps.

Codebook weights are steering vectors scaled to unit norm. The Hermitian
inner products inside the beamformed-power quadratic form supply the
conjugation, so a beam pointed exactly at a path's direction conjugate-matches
that path and attains the full array gain. A codebook's beams are in
azimuth-major order (zenith fastest), and its weights are one C-contiguous
(n_beams, N) array: the transpose of a single steering_matrix call, scaled
in place.

Sweeps contract the factored channel H_k = A_rx diag(c_k) A_tx^H without
forming it: the tx codebook is projected onto the P path steering vectors,
the rx side is taken in the path basis or the element basis, whichever is
smaller, and the K subbands are compressed to min(K, P) rows of the
triangular QR factor of the coefficient matrix. The power table is then a
sum of |amplitude|^2 planes, one per row.

The winner of a sweep is the first pair in row-major order (tx index, then
rx index) whose power is within TIE_RTOL of the table maximum. The mirror
beams of a planar array tie in exact arithmetic, so an exact argmax would
pick between them on rounding noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# steering_vector is not used here; perfbench/tests/test_perfbench.py reads
# tracechan.beams.steering_vector, so the name stays importable from beams
from .arrays import Direction, PlanarArray, steering_matrix, steering_vector  # noqa: F401
from .channel import ChannelMatrixSet

__all__ = [
    "TIE_RTOL",
    "BeamCodebook",
    "BeamSelection",
    "generate_codebook",
    "sweep_power_table",
    "select_best_pair",
    "ideal_beam_sweep",
]

# Relative tolerance under which two sweep powers count as tied. Mirror-image
# beams of a planar array (az and 180 - az for a vertical array) give powers
# that are equal in exact arithmetic and differ only by rounding, ~1e-15
# relative; 1e-12 absorbs that with room to spare, and is far below any
# physical difference between beams.
TIE_RTOL = 1e-12


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
    # the slack in n and the rounding of k*step may overshoot hi by an ulp
    return np.minimum(lo + step * np.arange(n), hi)


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
    directions = tuple(Direction.from_degrees(float(a), float(z)) for a in az for z in zen)
    weights = steering_matrix(array, directions).T  # (n_beams, N), C-contiguous
    weights *= 1.0 / math.sqrt(array.n_elements)
    return BeamCodebook(directions, weights)


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

    Powers within TIE_RTOL (relative) of the table maximum are tied, and the
    first tied pair in row-major order (tx index, then rx index) wins. So the
    pick does not hinge on the last bits of the float result. An all-zero
    table gives pair (0, 0).
    """
    tied = table >= table.max() * (1.0 - TIE_RTOL)
    ti, ri = divmod(int(np.argmax(tied)), table.shape[1])
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
