"""Grid codebooks and exhaustive beam-pair sweeps.

Codebook weights are steering vectors scaled to unit norm. The Hermitian
inner products inside the beamformed-power quadratic form supply the
conjugation, so a beam pointed exactly at a path's direction conjugate-matches
that path and attains the full array gain. A codebook's beams are in
azimuth-major order (zenith fastest). A planar array's response is the
Kronecker product of a row factor and a column factor, so a codebook keeps
only its (n_beams, R) row and (n_beams, C) column factors; the dense
(n_beams, N) weights are assembled when ``BeamCodebook.weights`` is read.
A codebook's factors are computed from its azimuth and zenith grid arrays,
by the same phase-ramp kernel as the channel's path factors; its Direction
objects only label the beams.

Sweeps contract the factored channel H_k = A_rx diag(c_k) A_tx^H without
forming it. A codebook with factors F_r, F_c is projected onto the P path
steering vectors straight from the channel's (P, R) and (P, C) path
factors A_r, A_c: (F_r A_r^H) * (F_c A_c^H) / sqrt(N), in
O(n_beams (R + C) P). The rx side is taken in the path basis or the element
basis, whichever is smaller (only the element basis assembles A_rx), and
the K subbands are compressed to min(K, P) rows of the triangular QR factor
of the coefficient matrix. A power table row is then a
sum of |amplitude|^2 rows, one per coefficient row.

The winner of a sweep is the first pair in row-major order (tx index, then
rx index) whose power is within TIE_RTOL of the table maximum. The mirror
beams of a planar array tie in exact arithmetic, so an exact argmax would
pick between them on rounding noise.

ideal_beam_sweeps finds that winner for each of many channels without
filling their tables. Each tx beam's row has an upper bound. In the path
basis a pair's power is a Rayleigh quotient of M = coef^H coef, bounded
through a Gershgorin bound on its largest eigenvalue. In the element basis
it is at most the squared norm of the pair's rx-element amplitudes, since
the rx weights have unit norm (Cauchy-Schwarz). Summed over the
coefficient rows, that norm is a quadratic form of the tx projection in a
P x P Gram matrix: one small product per channel, or one product per
coefficient row (many paths, or one tx beam), whichever takes fewer
multiply-adds. A NaN bound, from an overflowed product, reads inf. Only
the rows whose bound reaches the tie threshold of the best confirmed
power are computed, by the same row kernel as sweep_power_table.
Channels with equal coefficient shapes are swept together: their factors
are stacked on a leading channel axis, so each projection, the QR, the
bounds and the first confirm are one call per chunk of channels. The
winner is the one select_best_pair picks on the channel's
sweep_power_table. A one-channel sweep (ideal_beam_sweep) computes every
product as that table does, so its power is bit-equal too; in a batch the
tx projection is a matrix-matrix product, so a power may move in its last
bits, and a winner only if that carries a pair across the tie threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arrays import Direction, PlanarArray, _wrap_azimuth, steering_factors
# steering_vector is not used here; perfbench/tests/test_perfbench.py reads
# tracechan.beams.steering_vector, so the name stays importable from beams
from .arrays import steering_vector  # noqa: F401
from .channel import ChannelMatrixSet, _finite_power

__all__ = [
    "TIE_RTOL",
    "BeamCodebook",
    "BeamSelection",
    "generate_codebook",
    "sweep_power_table",
    "select_best_pair",
    "ideal_beam_sweep",
    "ideal_beam_sweeps",
]

# Relative tolerance under which two sweep powers count as tied. Mirror-image
# beams of a planar array (az and 180 - az for a vertical array) give powers
# that are equal in exact arithmetic and differ only by rounding, ~1e-15
# relative; 1e-12 absorbs that with room to spare, and is far below any
# physical difference between beams.
TIE_RTOL = 1e-12

# Error-budget unit of the row bound, eight unit roundoffs: each complex
# multiply or add moves its result by at most one unit of the magnitudes it
# touched.
_ERR_UNIT = 2.0**-50

# ideal_beam_sweeps projects the tx beams onto the paths of a chunk of
# channels at once, in a product of about this many bytes (at least one
# channel): few calls per link, and a long link never holds every training
# row's projection. Larger chunks buy little speed: on the arc_wide benchmark
# (2 vCPUs, 2 BLAS threads) 256 KiB ran 7 % faster for 0.5 MB more peak
# memory, and 1 MiB ran slower for 4 MB more.
_SWEEP_BYTES = 1 << 17


@dataclass(frozen=True)
class BeamCodebook:
    """Beams on a regular azimuth x zenith grid, azimuth-major order.

    Beam b's weights are the Kronecker product of row_factors[b] and
    col_factors[b] over sqrt(R * C): unit norm, in steering_matrix's
    row-major element order.
    """

    directions: tuple[Direction, ...]
    row_factors: np.ndarray  # (n_beams, R) complex, unit modulus
    col_factors: np.ndarray  # (n_beams, C) complex, unit modulus

    def __post_init__(self) -> None:
        n = len(self.directions)
        if (self.row_factors.ndim != 2 or self.row_factors.shape[0] != n
                or self.col_factors.ndim != 2 or self.col_factors.shape[0] != n):
            raise ValueError(
                f"factor shapes {self.row_factors.shape} and {self.col_factors.shape} "
                f"do not fit {n} beams"
            )

    def __len__(self) -> int:
        return len(self.directions)

    @property
    def n_elements(self) -> int:
        return self.row_factors.shape[1] * self.col_factors.shape[1]

    @property
    def weights(self) -> np.ndarray:
        """Dense (n_beams, N) weights, C-contiguous, assembled on every read."""
        w = self.row_factors[:, :, None] * self.col_factors[:, None, :]
        w = w.reshape(len(self), self.n_elements)
        w *= 1.0 / math.sqrt(self.n_elements)
        return w


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
    """Build a codebook over the az/zen grid; entry count n_az * n_zen.

    The labels are made first, so a bad zenith fails as a Direction; the
    factors come from the same wrapped angle arrays.
    """
    az = _wrap_azimuth(_grid_points(az_min_deg, az_max_deg, az_step_deg))
    zen = _grid_points(zen_min_deg, zen_max_deg, zen_step_deg)
    az, zen = np.repeat(az, zen.size), np.tile(zen, az.size)
    directions = tuple(map(Direction, az.tolist(), zen.tolist()))
    return BeamCodebook(directions, *steering_factors(array, az, zen))


@dataclass(frozen=True)
class BeamSelection:
    """Winning beam pair of a sweep and the received power it achieves."""

    tx_index: int
    rx_index: int
    tx_direction: Direction
    rx_direction: Direction
    power_w: float


def _project(codebook: BeamCodebook, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(n_beams, P) inner products ``codebook.weights @ a.conj()``, from the factors.

    a is the (N, P) steering matrix of the codebook's array whose column p
    is the Kronecker product of rows[p] and cols[p]: the (P, R) row and
    (P, C) column factors a ChannelMatrixSet keeps in its paths. Factors
    of another array shape fail in the products with ValueError.
    """
    t = codebook.row_factors @ rows.T.conj()
    t *= codebook.col_factors @ cols.T.conj()
    t *= 1.0 / math.sqrt(codebook.n_elements)
    return t


def _sweep_factors(
    channels: Sequence[ChannelMatrixSet],
    tx_codebook: BeamCodebook,
    rx_codebook: BeamCodebook,
    p_tx_w: float,
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...], float]:
    """The tx projections, coefficient rows, rx factors and scale of a sweep.

    channels share one (K, P) coefficient shape; every factor but the shared
    element-basis rx weights is stacked on a leading channel axis G. With
    x = (a_tx^H w_tx) * (a_rx^T w_rx^*) a pair's per-subband amplitudes are
    coef @ x, and sum_k |coef @ x|^2 equals sum_j |r @ x|^2 for the QR
    factor r of coef, which has min(K, P) rows. The tx projections of all
    channels are one _project product, (G, n_tx_b, P), and so are the rx
    projections in the path basis, (G, P, n_rx_b). With more paths than rx
    elements the rx side is the element-basis pair (G, P, N_rx) and
    (N_rx, n_rx_b), and only then is a_rx assembled.
    """
    if p_tx_w < 0:
        raise ValueError("p_tx_w must be non-negative")
    n, (k, p) = len(channels), channels[0].coef.shape
    paths = [ch.paths for ch in channels]

    def project(codebook, rows, cols):  # (n_beams, G, P), one product for every channel
        t = _project(codebook, np.concatenate([getattr(f, rows) for f in paths]),
                     np.concatenate([getattr(f, cols) for f in paths]))
        return t.reshape(len(codebook), n, p)

    tx_paths = project(tx_codebook, "tx_rows", "tx_cols").transpose(1, 0, 2)
    if p <= rx_codebook.n_elements:
        rx_side = (project(rx_codebook, "rx_rows", "rx_cols").conj().transpose(1, 2, 0),)
    else:
        rx_side = (np.stack([ch.a_rx.T for ch in channels]), rx_codebook.weights.conj().T)
    coef = np.stack([ch.coef for ch in channels])
    if k > p:
        coef = np.linalg.qr(coef, mode="r")  # (G, P, P) with r^H r = coef^H coef
    return tx_paths, coef, rx_side, p_tx_w / channels[0].grid.n_subbands


def _power_rows(
    tx_paths: np.ndarray, coef: np.ndarray, rx_side: tuple[np.ndarray, ...], scale: float
) -> np.ndarray:
    """Power table rows of the tx beams projected in tx_paths, watts.

    The one row kernel of every sweep: (..., rows, P) tx projections give
    (..., rows, n_rx_b) rows, where the leading axes, if any, are the
    channel axis of _sweep_factors. A stacked product runs one BLAS call per
    channel, so a channel's rows come out as they would alone. A row's bits
    do not depend on which other rows are computed with it, as long as
    there are at least two: BLAS runs a one-row product as a matrix-vector
    product, which rounds differently.
    """
    table = np.zeros((*tx_paths.shape[:-1], rx_side[-1].shape[-1]))
    for k in range(coef.shape[-2]):  # one amplitude plane per coefficient row
        amp = tx_paths * coef[..., k, None, :]
        for factor in rx_side:
            amp = amp @ factor
        table += amp.real**2 + amp.imag**2
    return scale * table


def _row_bounds(
    tx_paths: np.ndarray, coef: np.ndarray, rx_side: tuple[np.ndarray, ...], scale: float
) -> np.ndarray:
    """An upper bound on every power table row, one per tx beam, watts.

    Takes _sweep_factors' factors with or without the channel axis and
    returns (..., n_tx_b). Each channel's bound is computed from its own
    slice by the same operations as alone: a stacked product is one BLAS
    call per channel, and the rounding bounds below hold for a sum in any
    order. tx_paths is the computed projection, a matrix-matrix product for
    a batch and a matrix-vector product for one single-path channel, and
    the table rows are computed from the same tx_paths, so the margin below
    covers them either way.

    In the path basis, rx_side is (rx_paths,). With x = tx_paths[i] *
    rx_paths[:, l] and M = coef^H coef, pair (i, l) has power
    scale * x^H M x <= scale * lam * sum_p |tx_paths[i, p]|^2 g_p, where
    lam >= lambda_max(M) is the largest Gershgorin row sum of M and
    g_p = max_l |rx_paths[p, l]|^2.

    The factor 1 + margin makes the computed bound exceed the computed
    entries. In units of _ERR_UNIT, with m <= P coefficient rows: the amplitudes
    err by (P + 1) units of sum_p |tx_paths||coef||rx_paths|, which adds at
    most 2 (P + 1) sqrt(P) units to the power, since
    lambda_max(|coef|^T |coef|) <= trace(M) <= P lambda_max(M); M itself errs
    by (m + 1) units of |coef|^T |coef|, which moves lam by at most
    (m + 1) P units of lambda_max(M); the sums of squares, the row sums and
    this bound's own products add (m + 2) + (P + 1) + (P + 4) units. That is
    at most 3 P^2 + 6 P + 7 units, below 4 (P + 2)^2.

    In the element basis, rx_side is (a_rx^T, W^*) for the unit-norm rx
    weights w_l. With A = a_rx^T and z_ik = (tx_paths[i] * coef[k]) @ A,
    pair (i, l) has amplitude z_ik . w_l^* on coefficient row k, so by
    Cauchy-Schwarz its power is at most scale * B_i with
    B_i = sum_k |z_ik|^2 = t_i Q t_i^H, t_i = tx_paths[i] and
    Q = (A A^H) * (coef^T coef^*), a P x P Hermitian matrix. The cheaper of
    two forms computes B, by their complex multiply-accumulate counts: the
    Gram form builds Q and takes one (n_tx_b, P) @ (P, P) product,
    P^2 (N + m + n_tx_b) MACs with N rx elements and m coefficient rows;
    the loop takes one (n_tx_b, P) @ (P, N) product per coefficient row,
    m n_tx_b P N MACs. The Gram form wins unless P is near m N or above,
    or tx beams are few: with one, as m <= P, it never wins, and the loop
    runs at every P > N (the element basis), where it is the faster form.
    With N = 16, m = 64 and one BLAS thread (2 vCPUs), the Gram form took
    1.8-2.7 ms against the loop's 0.5-0.9 ms at P = 256, and 107-124
    against 1.1-2.0 ms at P = 2,048. The Gram form is taken only below
    m N, so its two P x P temporaries stay below 32 (m N)^2 bytes. On
    generated dense_replay traces (m = 64, N = 16, 252 tx beams, 2 vCPUs)
    the count switches at P = 778, while the Gram form's sweeps measured
    faster up to about 1,800 paths (354 against 481 ms a pass at
    P = 1,024, 937 against 941 ms at 1,792) but slower at 2,048 (1,164
    against 1,046 ms), with 15 MB more peak memory at 1,536 paths and
    52 MB more at 2,048.

    The computed B can cancel, so the margin has an absolute part too. Let
    zeta_ik = (|tx_paths[i]| * |coef[k]|) @ |A| and
    S_i = sum_k |zeta_ik|^2 = |t_i| Q_abs |t_i|^T, with
    Q_abs = (|A| |A|^T) * (|coef|^T |coef|). S_i <= sum_p |t_ip|^2 rho_p,
    where rho_p is row p's sum of the symmetric Q_abs (|t_p||t_q| <=
    (|t_p|^2 + |t_q|^2) / 2); rho takes two real products of P N m
    multiply-adds.

    In units of _ERR_UNIT, to first order: a table amplitude errs by (P + 1)
    units of zeta_ik . |w_l| in its first product and N units of
    |z_ik| . |w_l| in its second, at most (P + N + 1) units of
    |zeta_ik||w_l|, which moves its square by 2 (P + N + 1) units of
    |z_ik||zeta_ik||w_l|^2 and the sum over k by 2 (P + N + 1) units of
    S_i |w_l|^2; the stored weights' |w_l|^2 is within 2 units of 1, and the
    table's squares, m-term sum and scale add m + 2, so an entry is at most
    scale ((1 + (m + 4) units) B_i + 2 (P + N + 1) units of S_i). The Gram
    form's Q errs by N + m + 1 units of Q_abs, t Q by P more units of
    |t| Q_abs, and its real dot with t^* by 2 P + 1 more, so the computed B
    errs by at most N + m + 3 P + 2 units of S_i; the loop's z errs by
    P + 1 units of zeta, which moves its squares by 2 (P + 1) units of S_i,
    and its squares and sums add N + m + 1 units of B_i <= S_i, at most
    N + m + 2 P + 3 units of S_i. The computed slack
    sum is within 2 P + N + m + 5 units of its value, a second-order term,
    and this bound's own two multiplies, sum and scale add 4 units of S_i.
    So the relative part m + 4 units and the absolute part
    3 N + m + 5 P + 9 units of the slack sum cover every entry; the latter
    is below 6 (P + N + m), as P >= 2. The products of two error terms
    stay below one unit while P, N and m are below 2**20.

    In either basis a NaN bound, from an overflowed product (inf - inf or
    inf * 0 in M, Q or the slack), reads inf, so it drops no row. In the
    element basis an entry that overflows has an unscaled sum past the
    float range, and so has its bound, which is summed before it is scaled.
    """
    if len(rx_side) == 2:
        a_rx_t = rx_side[0]  # (..., P, N)
        n_tx, (m, p), n = tx_paths.shape[-2], coef.shape[-2:], a_rx_t.shape[-1]
        if p * (n + m + n_tx) < m * n_tx * n:  # the Gram form costs fewer MACs
            q = a_rx_t @ a_rx_t.conj().swapaxes(-1, -2)
            q *= coef.swapaxes(-1, -2) @ coef.conj()
            q = tx_paths @ q  # (..., n_tx_b, P)
            norms = (np.einsum("...p,...p->...", q.real, tx_paths.real)
                     + np.einsum("...p,...p->...", q.imag, tx_paths.imag))
        else:
            norms = np.zeros(tx_paths.shape[:-1])
            for k in range(m):  # one (..., n_tx_b, N_rx) plane at a time
                z = (tx_paths * coef[..., k, None, :]) @ a_rx_t
                norms += (z.real**2 + z.imag**2).sum(axis=-1)
        abs_a, abs_ct = np.abs(a_rx_t), np.abs(coef).swapaxes(-1, -2)
        rho = ((abs_a @ (abs_a.swapaxes(-1, -2) @ abs_ct)) * abs_ct).sum(axis=-1)  # (..., P)
        slack = (np.einsum("...ip,...ip,...p->...i", tx_paths.real, tx_paths.real, rho)
                 + np.einsum("...ip,...ip,...p->...i", tx_paths.imag, tx_paths.imag, rho))
        bound = scale * ((1.0 + (m + 4) * _ERR_UNIT) * norms
                         + (6 * (p + n + m) * _ERR_UNIT) * slack)
    else:
        rx_paths = rx_side[0]
        n_paths = coef.shape[-1]
        gram = coef.conj().swapaxes(-1, -2) @ coef  # (..., P, P)
        lam = np.abs(gram).sum(axis=-1).max(axis=-1, initial=0.0)  # (...)
        rx_gain = (rx_paths.real**2 + rx_paths.imag**2).max(axis=-1, initial=0.0)  # (..., P)
        gain = tx_paths.real**2 + tx_paths.imag**2  # (..., n_tx_b, P)
        margin = 4.0 * (n_paths + 2) ** 2 * _ERR_UNIT
        bound = (scale * lam * (1.0 + margin))[..., None] * (gain @ rx_gain[..., None])[..., 0]
    bound[np.isnan(bound)] = np.inf
    return bound


@np.errstate(over="ignore", invalid="ignore")  # an overflowed table raises instead
def sweep_power_table(
    channel: ChannelMatrixSet,
    tx_codebook: BeamCodebook,
    rx_codebook: BeamCodebook,
    p_tx_w: float,
) -> np.ndarray:
    """Total received power for every (tx beam, rx beam) pair, watts.

    Returns shape (n_tx_beams, n_rx_beams). Matches beamformed_power
    evaluated pairwise. A table maximum that is not finite raises
    ValueError naming the channel's time, as ideal_beam_sweep does.
    """
    table = _power_rows(*_sweep_factors([channel], tx_codebook, rx_codebook, p_tx_w))[0]
    _finite_power(table.max(), channel.time)
    return table


def _pick(
    table: np.ndarray, tx_rows, tx_codebook: BeamCodebook, rx_codebook: BeamCodebook
) -> BeamSelection:
    """select_best_pair's rule on the table rows of the tx beams tx_rows (ascending)."""
    tied = table >= table.max() * (1.0 - TIE_RTOL)
    k, ri = divmod(int(np.argmax(tied)), table.shape[1])
    ti = int(tx_rows[k])
    return BeamSelection(
        tx_index=ti,
        rx_index=ri,
        tx_direction=tx_codebook.directions[ti],
        rx_direction=rx_codebook.directions[ri],
        power_w=float(table[k, ri]),
    )


def select_best_pair(
    table: np.ndarray, tx_codebook: BeamCodebook, rx_codebook: BeamCodebook
) -> BeamSelection:
    """Winning pair of a (n_tx_beams, n_rx_beams) power table.

    Powers within TIE_RTOL (relative) of the table maximum are tied, and the
    first tied pair in row-major order (tx index, then rx index) wins. So the
    pick does not hinge on the last bits of the float result. An all-zero
    table gives pair (0, 0).
    """
    return _pick(table, range(table.shape[0]), tx_codebook, rx_codebook)


def ideal_beam_sweep(
    channel: ChannelMatrixSet,
    tx_codebook: BeamCodebook,
    rx_codebook: BeamCodebook,
    p_tx_w: float,
) -> BeamSelection:
    """Exhaustive sweep over all beam pairs on one snapshot's channel.

    The one-channel case of ideal_beam_sweeps, whose rules it follows. A
    one-channel sweep computes every product as sweep_power_table does, so
    its winner and power are bit-equal to select_best_pair on that table.
    """
    return ideal_beam_sweeps([channel], tx_codebook, rx_codebook, p_tx_w)[0]


@np.errstate(over="ignore", invalid="ignore")  # an overflowed winner raises instead
def ideal_beam_sweeps(
    channels: Sequence[ChannelMatrixSet],
    tx_codebook: BeamCodebook,
    rx_codebook: BeamCodebook,
    p_tx_w: float,
) -> list[BeamSelection]:
    """Exhaustive sweeps over all beam pairs, one per channel, in order.

    Training is ideal: no airtime is consumed and the channel does not
    change during a sweep. Each result is the pair select_best_pair picks
    on the channel's sweep_power_table, but only the tx rows whose bound
    (_row_bounds, in the path or the element basis) reaches the tie
    threshold are computed: first the two best-bounded rows, then every row
    whose bound clears best * (1 - TIE_RTOL). A row outside that set has no
    pair tied with the maximum, and the maximum's row is inside it. When
    every bound is 0 (no paths, or only zero-gain ones) no row is computed:
    the answer is the all-zero table's pair (0, 0) at 0 W.

    The channels are grouped by coefficient shape (K, P), and each group is
    swept in chunks of about _SWEEP_BYTES of tx projections: one projection
    product per side, one stacked QR, bound and two-row confirm per chunk.
    In a chunk of several channels the tx projection is a matrix-matrix
    product where one channel alone may take a matrix-vector one, so a
    power can differ from the one-channel sweep's in its last bits; the
    winner moves only if that carries a pair across the tie threshold.
    After every channel is swept, a winning power that is not finite
    raises ValueError naming the time of the first such channel.
    """
    results: list = [None] * len(channels)
    groups: dict = {}  # coefficient shape -> indices of its channels
    for i, ch in enumerate(channels):
        groups.setdefault(ch.coef.shape, []).append(i)
    for (_, n_paths), members in groups.items():
        per = max(1, _SWEEP_BYTES // (16 * len(tx_codebook) * max(n_paths, 1)))
        for lo in range(0, len(members), per):
            chunk = members[lo:lo + per]
            picks = _sweep_chunk([channels[i] for i in chunk], tx_codebook, rx_codebook, p_tx_w)
            for i, pick in zip(chunk, picks):
                results[i] = pick
    for ch, (_, peak) in zip(channels, results):
        _finite_power(peak, ch.time)
    return [sel for sel, _ in results]


def _sweep_chunk(
    channels: Sequence[ChannelMatrixSet],
    tx_codebook: BeamCodebook,
    rx_codebook: BeamCodebook,
    p_tx_w: float,
) -> list[tuple[BeamSelection, float]]:
    """ideal_beam_sweeps' winner and table maximum of each channel of one shape."""
    tx_paths, coef, rx_side, scale = _sweep_factors(channels, tx_codebook, rx_codebook, p_tx_w)
    bound = _row_bounds(tx_paths, coef, rx_side, scale)  # (G, n_tx_b)
    # every bound covers its row, so a channel whose bounds are all 0 has an
    # all-zero table, whose pair is (0, 0) at 0 W
    zero = (_pick(np.zeros((1, 1)), (0,), tx_codebook, rx_codebook), 0.0)
    live = bound.any(axis=1)
    if not live.any():
        return [zero] * len(channels)
    # two rows per channel keep BLAS on its GEMM kernel; a one-beam codebook's
    # full table is its one row
    n_top = min(2, bound.shape[1])
    top = np.sort(np.argpartition(bound, -n_top, axis=1)[:, -n_top:], axis=1)
    table = _power_rows(np.take_along_axis(tx_paths, top[:, :, None], axis=1),
                        coef, rx_side, scale)  # (G, n_top, n_rx_b)
    threshold = table.max(axis=(1, 2)) * (1.0 - TIE_RTOL)
    # the rows that may hold a tied pair are all among the top rows
    inside = (bound >= threshold[:, None]).sum(axis=1) == (
        np.take_along_axis(bound, top, axis=1) >= threshold[:, None]).sum(axis=1)
    out = []
    for g in range(len(channels)):
        if not live[g]:
            out.append(zero)
            continue
        rows, t = top[g], table[g]
        if not inside[g]:
            # these rows hold the maximum's row too, so they are two or more
            rows = np.flatnonzero(bound[g] >= threshold[g])
            t = _power_rows(tx_paths[g, rows], coef[g], (rx_side[0][g], *rx_side[1:]), scale)
        out.append((_pick(t, rows, tx_codebook, rx_codebook), t.max()))
    return out
