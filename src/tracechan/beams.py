"""Grid codebooks and exhaustive beam-pair sweeps.

Codebook weights are steering vectors scaled to unit norm, a BeamCodebook
invariant (its factors are read-only), so no caller re-checks a beam. The
Hermitian inner products inside the beamformed-power quadratic form supply
the conjugation, so a beam pointed exactly at a path's direction
conjugate-matches that path and attains the full array gain. A codebook's
beams are in azimuth-major order (zenith fastest). A planar array's response
is the Kronecker product of a row factor and a column factor, so a codebook
keeps only its (n_beams, R) row and (n_beams, C) column factors; the dense
(n_beams, N) weights are assembled when ``BeamCodebook.weights`` is read. A
codebook's factors are computed from its azimuth and zenith grid arrays, by
the same phase-ramp kernel as the channel's path factors. It keeps those
angles as arrays and makes a Direction label only where one is read: a
sweep's winner, or BeamCodebook.directions.

Sweeps contract the factored channel H_k = A_rx diag(c_k) A_tx^H without
forming it. A codebook with factors F_r, F_c is projected onto the P path
steering vectors straight from the channel's (P, R) and (P, C) path
factors A_r, A_c: (F_r A_r^H) * (F_c A_c^H) / sqrt(N), in
O(n_beams (R + C) P). The rx side is taken in the path basis or the element
basis, whichever is smaller (only the element basis assembles A_rx), and
the K subbands are compressed to min(K, P) rows of the triangular QR factor
of the coefficient matrix. A power table row is then a
sum of |amplitude|^2 rows, one per coefficient row, computed in blocks of
coefficient rows (_power_rows).

The winner of a sweep is the first pair in row-major order (tx index, then
rx index) whose power is within TIE_RTOL of the table maximum. The mirror
beams of a planar array tie in exact arithmetic, so an exact argmax would
pick between them on rounding noise.

One private entry, _sweep_spans, finds that winner for each of many
channels whose paths are spans of one PathFactors, by the same row kernel
as sweep_power_table: ideal_beam_sweeps stacks its channels' factors into
it, and run_simulation passes its blocks' factors. Where a bound costs
fewer multiply-adds than the table, only the tx rows whose upper bound
(_row_bounds) reaches the tie threshold of the best confirmed power are
computed. In the element basis the bound has one form, a Gram matrix's
quadratic form; where that costs about as much as the table, every row is
computed once instead. In the path basis a beam's row factor alone bounds
its power (_group_bounds), once per distinct row factor (a grid codebook
has one per zenith), so the beams of a group whose bound cannot reach the
threshold are not projected at all: the column product, the row bound and
the confirm are formed for the other groups' beams only. Channels on one
subband grid with equal path counts are swept together, in chunks, and
one vectorised pass of the tie rule (_first_tied) picks every winner of a
chunk (see ideal_beam_sweeps).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .arrays import (_ZENITH_RANGE, Direction, PlanarArray, _check_angles, _col_factors,
                     _responses, _row_factors, _within, _wrap_azimuth)
# steering_vector is not used here; perfbench/tests/test_perfbench.py reads
# tracechan.beams.steering_vector, so the name stays importable from beams
from .arrays import steering_vector  # noqa: F401
from .channel import (_NORM_TOL, ChannelMatrixSet, PathFactors, SubbandGrid, _finite_power,
                      _subband_terms)

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

# No elided temporaries: a complex product never takes a call result or an
# expression as an operand unless its output is explicit (out=, or an in-place *=
# such as _project's). numpy computes a * b with a temporary b of 16,384 elements or
# more as b * a in b's buffer; the two may round apart, by how many paths share a call.

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

# _sweep_spans sweeps the channels of one path count in chunks of about this
# many bytes (at least one channel), counted as the projections a channel
# holds, 16 bytes a path each: its projected tx rows (its row-factor products
# and one group's beams where the row-factor bound prunes, every beam
# elsewhere) and its rx side. So there are few calls per link, and a long link
# never holds every training row's projection. Larger chunks bought little
# speed when a chunk held every tx beam and no rx side: on the arc_wide
# benchmark (2 vCPUs, 2 BLAS threads) 256 KiB ran 7 % faster for 0.5 MB more
# peak memory, and 1 MiB ran slower for 4 MB more.
_SWEEP_BYTES = 1 << 17


@dataclass(frozen=True, eq=False)
class BeamCodebook:
    """Beams on a regular azimuth x zenith grid, azimuth-major order.

    Beam b points at azimuth_deg[b], zenith_deg[b], in Direction's ranges.
    Its weights are the Kronecker product of row_factors[b] and
    col_factors[b] over sqrt(R * C), in steering_matrix's row-major element
    order, and must have unit norm within _NORM_TOL (NaN fails too). The
    angles and factors are kept read-only; a writeable one is copied first.
    Codebooks compare and hash by their angles and the factors' shapes and
    bytes.
    """

    azimuth_deg: np.ndarray  # (n_beams,) float
    zenith_deg: np.ndarray  # (n_beams,) float
    row_factors: np.ndarray  # (n_beams, R) complex, unit modulus
    col_factors: np.ndarray  # (n_beams, C) complex, unit modulus

    @np.errstate(over="ignore", invalid="ignore")  # an overflowed norm fails the check
    def __post_init__(self) -> None:
        n = np.size(self.azimuth_deg)
        for name, dtype, ndim in (("azimuth_deg", float, 1), ("zenith_deg", float, 1),
                                  ("row_factors", complex, 2), ("col_factors", complex, 2)):
            f = np.asarray(getattr(self, name), dtype=dtype)
            if f.ndim != ndim or len(f) != n:
                raise ValueError(f"{name} shape {f.shape} does not fit {n} beams")
            if f.flags.writeable or f.strides[-1] != f.itemsize:  # copied: the caller keeps its own
                f = np.array(f, order="C")
                f.flags.writeable = False
            object.__setattr__(self, name, f)
        _check_angles(self.azimuth_deg, self.zenith_deg)
        r, c = self.row_factors.view(float), self.col_factors.view(float)  # real dots: |f|^2
        norm = np.sqrt(np.einsum("ij,ij->i", r, r) * np.einsum("ij,ij->i", c, c) / self.n_elements)
        if (bad := ~(np.abs(norm - 1.0) <= _NORM_TOL)).any():  # NaN too
            raise ValueError(f"codebook beam {bad.argmax()} has weight norm "
                             f"{float(norm[bad.argmax()])!r}, not within {_NORM_TOL!r} of 1")

    def _key(self) -> tuple:
        return (tuple(self.azimuth_deg.tolist()), tuple(self.zenith_deg.tolist()),
                *((f.shape, f.tobytes()) for f in (self.row_factors, self.col_factors)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BeamCodebook) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @cached_property
    def directions(self) -> tuple[Direction, ...]:
        """Every beam's Direction, in beam order, made on the first read."""
        return tuple(map(Direction, self.azimuth_deg.tolist(), self.zenith_deg.tolist()))

    def _direction(self, b: int) -> Direction:
        return Direction(float(self.azimuth_deg[b]), float(self.zenith_deg[b]))

    @cached_property
    def _row_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """The beams grouped by equal row factors, on the first sweep that reads them.

        Returns the (D, R) distinct row factors in order of first use, their
        (D,) squared norms, every beam's index into them and the largest
        group's beam count. Rows are grouped by their bytes in a dict:
        np.unique's first call costs 1.6 MB of RSS.
        """
        rows = np.ascontiguousarray(self.row_factors)
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
        counts = Counter(keys)  # in order of first use
        ids = {key: i for i, key in enumerate(counts)}
        group = np.array(list(map(ids.__getitem__, keys)), np.intp)
        distinct = np.frombuffer(b"".join(ids), complex).reshape(len(ids), rows.shape[1])
        norm2 = np.einsum("ij,ij->i", distinct.view(float), distinct.view(float))
        return distinct, norm2, group, max(counts.values(), default=0)

    def __len__(self) -> int:
        return len(self.azimuth_deg)

    @property
    def n_elements(self) -> int:
        return self.row_factors.shape[1] * self.col_factors.shape[1]

    @property
    def weights(self) -> np.ndarray:
        """Dense (n_beams, N) weights, C-contiguous, assembled on every read."""
        w = self.row_factors[:, :, None] * self.col_factors[:, None, :]
        w = w.reshape(len(self), self.n_elements)
        w /= math.sqrt(self.n_elements)  # as steering_matrix(...) / sqrt(N), signed zeros too
        return w


def _grid_size(lo: float, hi: float, step: float, name: str = "grid") -> int:
    """_grid_points' point count, in O(1); raises for bounds that make no grid."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} bounds must be finite, got {lo!r} and {hi!r}")
    if not 0 < step < math.inf:
        raise ValueError(f"{name} step must be finite and > 0, got {step!r}")
    if hi < lo:
        raise ValueError(f"{name} upper bound {hi!r} below lower bound {lo!r}")
    n = (hi - lo) / step + 1e-9
    if not n < 2**63:
        raise ValueError(f"{name} step {step!r} gives more than 2**63 points")
    return int(math.floor(n)) + 1


def _grid_points(lo: float, hi: float, step: float) -> np.ndarray:
    # the slack in n and the rounding of k*step may overshoot hi by an ulp
    return np.minimum(lo + step * np.arange(_grid_size(lo, hi, step)), hi)


def _check_bounds(az_min_deg: float, az_max_deg: float, az_step_deg: float,
                  zen_min_deg: float, zen_max_deg: float, zen_step_deg: float) -> None:
    """Raise generate_codebook's ValueError for bounds that make no codebook, in O(1).

    Azimuths are wrapped, so only a zenith can leave its range, and the one
    named is BeamCodebook's: the first grid point outside [0, 180]. Points
    increase, so all are inside if the first and last are, and else the
    first outside is the first point or one within a rounding of the
    (180 - min) / step-th.
    """
    _grid_size(az_min_deg, az_max_deg, az_step_deg, "azimuth grid")
    n = _grid_size(zen_min_deg, zen_max_deg, zen_step_deg, "zenith grid")
    last = min(zen_min_deg + zen_step_deg * (n - 1), zen_max_deg)
    if _within(zen_min_deg, _ZENITH_RANGE) and _within(last, _ZENITH_RANGE):
        return
    k = math.floor((_ZENITH_RANGE[1] - zen_min_deg) / zen_step_deg)
    ks = np.array([0, *range(max(k - 1, 0), min(k + 3, n))])
    _check_angles(np.zeros(ks.size), np.minimum(zen_min_deg + zen_step_deg * ks, zen_max_deg))


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

    A beam's row factor depends on its zenith alone, so one row ramp is
    taken per grid zenith and tiled over the azimuths; each ramp is
    bit-equal to steering_factors' (see arrays._phase_ramp).
    """
    _check_bounds(az_min_deg, az_max_deg, az_step_deg, zen_min_deg, zen_max_deg, zen_step_deg)
    az = _wrap_azimuth(_grid_points(az_min_deg, az_max_deg, az_step_deg))
    zen = _grid_points(zen_min_deg, zen_max_deg, zen_step_deg)
    rows = np.tile(_row_factors(array, zen), (az.size, 1))
    az, zen = np.repeat(az, zen.size), np.tile(zen, az.size)
    cols = _col_factors(array, az, zen)
    for f in (az, zen, rows, cols):  # fresh, so kept with no copy
        f.flags.writeable = False
    return BeamCodebook(az, zen, rows, cols)


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


def _gains(codebook: BeamCodebook, b: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(P,) gains w_{b[p]}^H a[:, p]: _project's entry (b[p], p) conjugated, O(R + C) a path."""
    row_f, col_f = codebook.row_factors[b].conj(), codebook.col_factors[b].conj()
    row_g, col_g = (rows * row_f).sum(axis=1), (cols * col_f).sum(axis=1)
    gain = row_g * col_g
    return gain / math.sqrt(codebook.n_elements)


def _stacked(channels: Sequence[ChannelMatrixSet]) -> PathFactors:
    """The channels' PathFactors concatenated in channel order, in new C-ordered arrays."""
    return PathFactors(*map(np.concatenate, zip(*(vars(ch.paths).values() for ch in channels))))


def _sweep_factors(
    f: PathFactors,
    n: int,
    grid: SubbandGrid,
    tx_codebook: BeamCodebook,
    rx_codebook: BeamCodebook,
    p_tx_w: float,
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...], float]:
    """The tx projections, coefficient rows, rx factors and scale of a sweep.

    f holds the paths of n channels on grid, P each, in channel order, in
    C-ordered arrays. Every factor but the shared element-basis rx weights
    is stacked on a leading channel axis G = n, and the (G, K, P)
    coefficients, each channel's bit-equal to its coef, are one
    _subband_terms call. With x = (a_tx^H w_tx) * (a_rx^T w_rx^*) a pair's
    per-subband amplitudes are coef @ x, and sum_k |coef @ x|^2 equals
    sum_j |r @ x|^2 for the QR factor r of coef, which has min(K, P) rows.
    The tx projections of all channels are one _project product,
    (G, n_tx_b, P), and so are the rx projections in the path basis,
    (G, P, n_rx_b). With more paths than rx elements the rx side is the
    element-basis pair (G, P, N_rx) and (N_rx, n_rx_b), and only then is
    a_rx assembled, in one _responses call.
    """
    tx_paths = _project(tx_codebook, f.tx_rows, f.tx_cols).reshape(len(tx_codebook), n, -1)
    return tx_paths.transpose(1, 0, 2), *_rx_terms(f, n, grid, rx_codebook, p_tx_w)


def _rx_terms(
    f: PathFactors, n: int, grid: SubbandGrid, rx_codebook: BeamCodebook, p_tx_w: float
) -> tuple[np.ndarray, tuple[np.ndarray, ...], float]:
    """_sweep_factors' coefficient rows, rx factors and scale: all but the tx projections."""
    if p_tx_w < 0:
        raise ValueError("p_tx_w must be non-negative")
    p = len(f) // n
    if p <= rx_codebook.n_elements:
        rx_paths = _project(rx_codebook, f.rx_rows, f.rx_cols).reshape(len(rx_codebook), n, p)
        rx_side = (rx_paths.conj().transpose(1, 2, 0),)
    else:
        a_rx_t = _responses(f.rx_rows, f.rx_cols).T  # (G P, N_rx), C-ordered
        rx_side = (a_rx_t.reshape(n, p, -1), rx_codebook.weights.conj().T)
    # a new C-ordered (G, K, P) array: a transposed view would keep a 16 K byte
    # stride on a size-1 axis at P = 1, which can take matmul off BLAS
    coef = _subband_terms(f.phasor, f.delay, grid).reshape(n, p, grid.n_subbands)
    coef = coef.transpose(0, 2, 1).copy()
    if grid.n_subbands > p:
        coef = np.linalg.qr(coef, mode="r")  # (G, P, P) with r^H r = coef^H coef
    return coef, rx_side, p_tx_w / grid.n_subbands


def _power_rows(
    tx_paths: np.ndarray, coef: np.ndarray, rx_side: tuple[np.ndarray, ...], scale: float
) -> np.ndarray:
    """Power table rows of the tx beams projected in tx_paths, watts.

    The one row kernel of every sweep: (..., rows, P) tx projections give
    (..., rows, n_rx_b) rows, where the leading axes, if any, are the
    channel axis of _sweep_factors. Each coefficient row k gives an
    amplitude plane (tx_paths * coef[k]) @ rx_side, and the planes are
    taken in blocks of about _SWEEP_BYTES: a block's planes are stacked
    into one (planes * rows, P) operand, so a block is one product per rx
    factor, and their |amplitude|^2 are added into the table in plane
    order. A stacked product runs one BLAS call per channel, so a
    channel's rows come out as they would alone. A row's bits do not
    depend on which other rows are computed with it, as long as a product
    has at least two: BLAS runs a one-row product as a matrix-vector
    product, which rounds differently. So one tx row is taken one plane at
    a time, and every row's bits are those of the plane-by-plane sum.
    """
    *lead, n_rows, p = tx_paths.shape
    table = np.zeros((*lead, n_rows, rx_side[-1].shape[-1]))
    m = coef.shape[-2]
    # bytes of one plane's widest array: its tx operand or a product
    plane = 16 * math.prod(tx_paths.shape[:-1]) * max(p, *(f.shape[-1] for f in rx_side))
    per = 1 if n_rows == 1 else max(1, _SWEEP_BYTES // max(plane, 1))
    for lo in range(0, m, per):
        block = tx_paths[..., None, :, :] * coef[..., lo:lo + per, None, :]  # (..., b, rows, P)
        amp = block.reshape(*lead, -1, p)
        del block
        for factor in rx_side:
            amp = amp @ factor
        power = amp.real**2
        power += amp.imag**2
        del amp  # freed before the next block is allocated
        power = power.reshape(*lead, -1, n_rows, power.shape[-1])
        for k in range(power.shape[-3]):  # in plane order, as one plane at a time
            table += power[..., k, :, :]
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
    Q = (A A^H) * (coef^T coef^*), a P x P Hermitian matrix. The Gram form
    computes B: it builds Q and takes one (n_tx_b, P) @ (P, P) product,
    P^2 (N + m + n_tx_b) complex multiply-accumulates (MACs) with N rx
    elements and m coefficient rows, while the table costs
    m n_tx_b N (P + n_rx_b). Where the Gram form costs at least
    m n_tx_b N P MACs, about the table's, no bound is computed: every row
    reads inf, and the sweep computes every row once. That is the case
    for one or two tx beams at every P > N (as m <= P), and for 252 tx
    beams from P = 778 at N = 16 and m = 64. There the table is the
    faster route: on a dense replay of 2,048 paths (one BLAS thread,
    2 vCPUs) the Gram form alone took 243 ms and the whole table 218-227.
    The Gram form is taken only below m N paths, so its two P x P
    temporaries stay below 32 (m N)^2 bytes.

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
    S_i |w_l|^2. BeamCodebook admits a beam whose computed norm is within
    tau = _NORM_TOL of 1, computed within R + C + 2 roundoffs (below N
    units), and storing w_l errs by 2 units, so |w_l|^2 is at most
    1 + 2 tau + (2 N + 3) units; the table's squares, m-term sum and scale
    add m + 2, so an entry is at most scale ((1 + 2 tau + (m + 2 N + 5)
    units) B_i + 2 (P + N + 1) units of S_i). The Gram form's Q errs by
    N + m + 1 units of Q_abs, t Q by P more units of |t| Q_abs, and its
    real dot with t^* by 2 P + 1 more, so the computed B errs by at most
    N + m + 3 P + 2 units of S_i. The computed slack sum is within
    2 P + N + m + 5 units of its value, a second-order term, and this
    bound's own two multiplies, sum and scale add 4 units of S_i. So the
    relative part 2 tau + (m + 2 N + 5) units and the absolute part
    3 N + m + 5 P + 9 units of the slack sum cover every entry; the latter
    is below 6 (P + N + m), as P >= 2. The products of two error terms
    (tau's too) stay below one unit while P, N and m are below 2**20.

    In either basis a NaN bound, from an overflowed product (inf - inf or
    inf * 0 in M, Q or the slack), reads inf, so it drops no row. An entry
    that overflows has an unscaled sum past the float range, and so has its
    bound, which is formed before it is scaled.
    """
    if len(rx_side) == 2:
        a_rx_t = rx_side[0]  # (..., P, N)
        n_tx, (m, p), n = tx_paths.shape[-2], coef.shape[-2:], a_rx_t.shape[-1]
        if p * (n + m + n_tx) >= m * n_tx * n:  # Gram form as dear as the table: no bound
            return np.full(tx_paths.shape[:-1], np.inf)
        q = a_rx_t @ a_rx_t.conj().swapaxes(-1, -2)
        q *= coef.swapaxes(-1, -2) @ coef.conj()
        q = tx_paths @ q  # (..., n_tx_b, P)
        norms = (np.einsum("...p,...p->...", q.real, tx_paths.real)
                 + np.einsum("...p,...p->...", q.imag, tx_paths.imag))
        abs_a, abs_ct = np.abs(a_rx_t), np.abs(coef).swapaxes(-1, -2)
        rho = ((abs_a @ (abs_a.swapaxes(-1, -2) @ abs_ct)) * abs_ct).sum(axis=-1)  # (..., P)
        slack = (np.einsum("...ip,...ip,...p->...i", tx_paths.real, tx_paths.real, rho)
                 + np.einsum("...ip,...ip,...p->...i", tx_paths.imag, tx_paths.imag, rho))
        bound = scale * ((1.0 + 2 * _NORM_TOL + (m + 2 * n + 5) * _ERR_UNIT) * norms
                         + (6 * (p + n + m) * _ERR_UNIT) * slack)
    else:
        rx_paths = rx_side[0]
        n_paths = coef.shape[-1]
        gram = coef.conj().swapaxes(-1, -2) @ coef  # (..., P, P)
        lam = np.abs(gram).sum(axis=-1).max(axis=-1, initial=0.0)  # (...)
        rx_gain = (rx_paths.real**2 + rx_paths.imag**2).max(axis=-1, initial=0.0)  # (..., P)
        gain = tx_paths.real**2 + tx_paths.imag**2  # (..., n_tx_b, P)
        margin = 4.0 * (n_paths + 2) ** 2 * _ERR_UNIT
        bound = (lam * (1.0 + margin))[..., None] * (gain @ rx_gain[..., None])[..., 0]
        bound *= scale
    bound[np.isnan(bound)] = np.inf
    return bound


def _group_bounds(
    rho: np.ndarray, coef: np.ndarray, rx_paths: np.ndarray, scale: float, codebook: BeamCodebook
) -> np.ndarray:
    """An upper bound on every power table row of each row-factor group, (G, D) watts.

    rho is the (D, G P) product of the codebook's D distinct row factors
    F_r[d] with the conjugated tx row factors of G channels of P paths, and
    coef, (rx_paths,) and scale are _rx_terms' path-basis terms for them.
    Beam b of group d projects onto path p as t_bp = rho_dp kappa_bp /
    sqrt(N), where kappa_bp is the C-term product of the beam's column
    factor with the path's, of unit modulus. By Cauchy-Schwarz
    |kappa_bp|^2 <= C |F_c[b]|^2, and BeamCodebook admits
    |F_r[d]|^2 |F_c[b]|^2 / N within tau = _NORM_TOL of 1, so
    |t_bp|^2 <= |rho_dp|^2 C (1 + tau)^2 / |F_r[d]|^2. A pair's power is
    scale sum_j |sum_p r_jp t_bp rx_paths[p, l]|^2 over the rows r_j of
    coef, at most scale lambda_max(r^H r) sum_p |t_bp|^2 g_p <=
    scale tr(r^H r) sum_p |t_bp|^2 g_p with g_p = max_l |rx_paths[p, l]|^2.
    So U_d = scale tr(r^H r) C (1 + tau)^2 / |F_r[d]|^2 sum_p |rho_dp|^2 g_p
    covers every entry of group d's rows, up to rounding. Unlike _row_bounds
    it needs no tx projection, and it is computed once per distinct row
    factor: on a grid codebook, once per grid zenith.

    The factor 1 + margin covers the computed entries. In units of
    _ERR_UNIT, to first order: an amplitude errs by P + 1 units of
    sum_p |r_jp| |t_bp| sqrt(g_p), whose squares sum over j to at most
    tr(r^H r) sum_p |t_bp|^2 g_p, so the power errs by 2 (P + 1) units of
    U; the table's squares, m-term sum and scale add m + 2. kappa's
    product, t's two multiplies and the path factors' moduli move |t|^2 by
    2 C + 8 units, the norm check's computed norms by R + C + 4 and
    |F_r[d]|^2 by R + 1; tr(r^H r) errs by m P + 1 units, and this bound's
    own squares, P-term sum and products by P + 8. That is
    m P + 3 P + m + 3 C + 2 R + 26 units; the products of two error terms
    stay below a unit while the sizes are below 2**20. An overflowed U, or
    a NaN one (inf * 0), reads inf.
    """
    distinct, norm2, _, _ = codebook._row_groups
    n_ch, m, p = coef.shape
    r, c = distinct.shape[1], codebook.col_factors.shape[1]
    power = (rho.real**2 + rho.imag**2).reshape(len(distinct), n_ch, p)
    rx_gain = (rx_paths.real**2 + rx_paths.imag**2).max(axis=-1, initial=0.0)  # (G, P)
    trace = (coef.real**2 + coef.imag**2).sum(axis=(-2, -1))
    margin = (m * p + 3 * p + m + 3 * c + 2 * r + 32) * _ERR_UNIT
    bound = ((1.0 + margin) * trace)[:, None] * np.einsum("dgp,gp->gd", power, rx_gain)
    bound *= c * (1.0 + _NORM_TOL) ** 2 / norm2
    bound *= scale  # last, as the table's: an entry whose sum overflows has an inf bound
    bound[np.isnan(bound)] = np.inf
    return bound


def _prunes(tx_codebook: BeamCodebook, rx_codebook: BeamCodebook, p: int) -> bool:
    """Whether a sweep of P paths bounds its tx beams by their row factor first.

    It does in the path basis, with two or more distinct row factors. In the
    element basis (more paths than rx elements) it does not: there every
    group's bound reached the tie threshold on the many-path benchmarks
    (47-76 paths on room_trace, 64 on dense_replay), and bounding the rest
    apart only cost a second Gram form and confirm: room_trace's training
    sweeps took 4.8 ms where they took 2.9 (in-process, one BLAS thread).
    """
    return p <= rx_codebook.n_elements and len(tx_codebook._row_groups[0]) > 1


def _beam_paths(codebook: BeamCodebook, beams: np.ndarray, rho: np.ndarray, cols: np.ndarray,
                n: int) -> np.ndarray:
    """_project's rows of the given beams, as (G, len(beams), P), from rho of _group_bounds.

    A subset of two or more rows of a matrix-matrix product is bit-equal to
    those rows of the whole product, so each row is _project's. A one-row
    product runs as a matrix-vector product, which rounds differently, so
    a single beam is computed with a second one.
    """
    rows = beams if len(beams) > 1 else np.append(beams, (beams[0] + 1) % len(codebook))
    t = rho[codebook._row_groups[2][rows]]
    t *= codebook.col_factors[rows] @ cols.T.conj()
    t *= 1.0 / math.sqrt(codebook.n_elements)
    return t[:len(beams)].reshape(len(beams), n, -1).transpose(1, 0, 2)


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
    table = _power_rows(*_sweep_factors(_stacked([channel]), 1, channel.grid, tx_codebook,
                                        rx_codebook, p_tx_w))[0]
    _finite_power(table.max(), channel.time)
    return table


def _first_tied(table: np.ndarray) -> tuple[np.ndarray, ...]:
    """select_best_pair's rule on the last two axes of table: row, column, power and maximum.

    Each leading index's (rows, cols) table gives the first pair in row-major
    order whose power is at least its maximum * (1 - TIE_RTOL). A table with
    a NaN ties no pair, so it gives pair (0, 0) and a NaN maximum.
    """
    peak = table.max(axis=(-2, -1))
    flat = table.reshape(*table.shape[:-2], -1)
    first = (flat >= (peak * (1.0 - TIE_RTOL))[..., None]).argmax(axis=-1)
    power = np.take_along_axis(flat, first[..., None], axis=-1)[..., 0]
    return (*np.divmod(first, table.shape[-1]), power, peak)


def _selection(tx: int, rx: int, power: float, tx_codebook: BeamCodebook,
               rx_codebook: BeamCodebook) -> BeamSelection:
    return BeamSelection(tx, rx, tx_codebook._direction(tx), rx_codebook._direction(rx), power)


def select_best_pair(
    table: np.ndarray, tx_codebook: BeamCodebook, rx_codebook: BeamCodebook
) -> BeamSelection:
    """Winning pair of a (n_tx_beams, n_rx_beams) power table.

    Powers within TIE_RTOL (relative) of the table maximum are tied, and the
    first tied pair in row-major order (tx index, then rx index) wins. So the
    pick does not hinge on the last bits of the float result. An all-zero
    table gives pair (0, 0).
    """
    tx, rx, power, _ = _first_tied(table)
    return _selection(int(tx), int(rx), float(power), tx_codebook, rx_codebook)


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
    pair tied with the maximum, and the maximum's row is inside it. Where
    the element basis has no bound (every bound inf), every row is computed
    once, in one call. When every bound is 0 (no paths, or only zero-gain
    ones) no row is computed: the answer is the all-zero table's pair
    (0, 0) at 0 W. In the path basis, with two or more distinct tx row
    factors, the beams are bounded by their row factor first
    (_group_bounds), and only the best-bounded group's beams are projected;
    another group is projected, bounded and confirmed only where its bound
    reaches the threshold. A kept row is a row of the whole projection, bit
    for bit: a subset of two or more rows of a matrix-matrix product is
    bit-equal to those rows of the whole product.

    The channels are grouped by subband grid, in order of each grid's first
    channel, and each grid's channels are stacked into one _sweep_spans
    call. It sweeps the channels of one path count in chunks of about
    _SWEEP_BYTES of projections: one projection product per side, one
    stacked QR, bound and two-row confirm, and one tie-rule pass per chunk.
    In a chunk of several channels the tx projection is a matrix-matrix
    product where one channel alone may take a matrix-vector one, and its
    columns are the chunk's paths, so a power can differ from the
    one-channel sweep's in its last bits; the winner moves only if that
    carries a pair across the tie threshold. After every channel of a grid
    is swept, a table maximum that is not finite raises ValueError naming
    the time of the grid's first such channel.
    """
    out: list = [None] * len(channels)
    by_grid: dict = {}  # grid -> indices of its channels
    for i, ch in enumerate(channels):
        by_grid.setdefault(ch.grid, []).append(i)
    for grid, members in by_grid.items():
        group = [channels[i] for i in members]
        counts = np.array([len(ch.paths) for ch in group], dtype=np.intp)
        picks = _sweep_spans(_stacked(group), np.cumsum(counts) - counts, counts,
                             [ch.time for ch in group], grid, tx_codebook, rx_codebook, p_tx_w)
        for i, *pick in zip(members, *(column.tolist() for column in picks)):
            out[i] = _selection(*pick, tx_codebook, rx_codebook)
    return out


@np.errstate(over="ignore", invalid="ignore")  # an overflowed winner raises instead
def _sweep_spans(
    f: PathFactors,
    starts: np.ndarray,
    counts: np.ndarray,
    times: Sequence[float],
    grid: SubbandGrid,
    tx_codebook: BeamCodebook,
    rx_codebook: BeamCodebook,
    p_tx_w: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The winners of channels on one grid whose paths are spans of f: tx index, rx index, power.

    Channel i, at times[i], has the paths f[starts[i]:starts[i] + counts[i]].
    The one sweep of ideal_beam_sweeps and of run_simulation's training.
    The channels of one path count are swept in chunks of about
    _SWEEP_BYTES of projections, in channel order, and a chunk takes its
    channels' spans with one take per factor. After every chunk is swept, a
    table maximum that is not finite raises ValueError naming the time of
    the first such channel.
    """
    tx, rx = np.zeros(len(counts), np.intp), np.zeros(len(counts), np.intp)
    power, peak = np.zeros(len(counts)), np.zeros(len(counts))
    for p in dict.fromkeys(counts.tolist()):  # np.unique's first call costs 1.6 MB of RSS
        members = np.flatnonzero(counts == p)
        # bytes a channel holds, over 16 P: its projected tx rows and its rx side
        if _prunes(tx_codebook, rx_codebook, p):
            distinct, _, _, widest = tx_codebook._row_groups
            rows = len(distinct) + max(widest, 2)  # row products, and one group's projections
        else:
            rows = len(tx_codebook)
        rows += len(rx_codebook) if p <= rx_codebook.n_elements else rx_codebook.n_elements
        per = max(1, _SWEEP_BYTES // (16 * rows * max(p, 1)))
        for lo in range(0, len(members), per):
            chunk = members[lo:lo + per]
            paths = (starts[chunk, None] + np.arange(p)).ravel()
            sub = PathFactors(*(factor.take(paths, axis=0) for factor in vars(f).values()))
            tx[chunk], rx[chunk], power[chunk], peak[chunk] = _sweep_chunk(
                sub, len(chunk), grid, tx_codebook, rx_codebook, p_tx_w)
    finite = np.isfinite(peak)
    if not finite.all():
        j = int(finite.argmin())
        _finite_power(float(peak[j]), times[j])
    return tx, rx, power


def _sweep_chunk(
    f: PathFactors,
    n: int,
    grid: SubbandGrid,
    tx_codebook: BeamCodebook,
    rx_codebook: BeamCodebook,
    p_tx_w: float,
) -> tuple[np.ndarray, ...]:
    """The tx index, rx index, power and table maximum of each of n channels of P paths each.

    f holds the channels' paths in channel order (see _sweep_factors).
    Where _prunes says so, each channel's row-factor groups are bounded
    first (_group_bounds), and only the beams of each channel's
    best-bounded group are projected and bounded by _row_bounds, over the
    whole chunk; elsewhere every beam is. The chunk's top projected rows
    are confirmed in one _power_rows call and every channel's winner is
    picked from them in one _first_tied pass. Only a channel with another
    row or group whose bound reaches its tie threshold confirms those rows
    too, and is picked on its own. The groups left out that reach it are
    projected and bounded first, and their two best-bounded rows confirmed,
    which may raise the threshold.
    """
    # every bound covers its row, so a channel whose bounds are all 0 has an
    # all-zero table, whose pair is (0, 0) at 0 W
    zero = np.zeros(n, np.intp), np.zeros(n, np.intp), np.zeros(n), np.zeros(n)
    pruned = _prunes(tx_codebook, rx_codebook, len(f) // n)
    if pruned:
        coef, rx_side, scale = _rx_terms(f, n, grid, rx_codebook, p_tx_w)
        distinct, _, group, _ = tx_codebook._row_groups
        rho = distinct @ f.tx_rows.T.conj()  # (D, G P)
        upper = _group_bounds(rho, coef, rx_side[0], scale, tx_codebook)  # (G, D)
        live = upper.any(axis=1)
        if not live.any():
            return zero
        chosen = np.zeros(len(distinct), bool)
        chosen[upper[live].argmax(axis=1)] = True
        keep = np.flatnonzero(chosen[group])
        if len(keep) == 1:  # a group of one beam, and another one: two top rows
            chosen[chosen.argmin()] = True
            keep = np.flatnonzero(chosen[group])
        tx_paths = _beam_paths(tx_codebook, keep, rho, f.tx_cols, n)
    else:
        tx_paths, coef, rx_side, scale = _sweep_factors(f, n, grid, tx_codebook, rx_codebook,
                                                        p_tx_w)
        keep = np.arange(len(tx_codebook))
    bound = _row_bounds(tx_paths, coef, rx_side, scale)  # (G, len(keep))
    if not pruned:
        live = bound.any(axis=1)
        if not live.any():
            return zero
    # two rows per channel keep BLAS on its GEMM kernel; with no bound (all inf)
    # the top rows are every projected row
    n_top = len(keep) if np.isinf(bound).all() else min(2, len(keep))
    top = np.sort(np.argpartition(bound, -n_top, axis=1)[:, -n_top:], axis=1)
    top_paths = tx_paths if n_top == len(keep) else np.take_along_axis(tx_paths, top[:, :, None],
                                                                       axis=1)
    k, rx, power, peak = _first_tied(_power_rows(top_paths, coef, rx_side, scale))
    threshold = peak * (1.0 - TIE_RTOL)
    # the rows that may hold a tied pair are all among the top rows, and in
    # the groups projected
    reach = bound >= threshold[:, None]
    redo = live & (reach.sum(axis=1) > (np.take_along_axis(bound, top, axis=1)
                                        >= threshold[:, None]).sum(axis=1))
    tx = keep[np.take_along_axis(top, k[:, None], axis=1)[:, 0]]
    if pruned:
        left = np.where(chosen, -np.inf, upper) >= threshold[:, None]  # (G, D)
        redo |= live & left.any(axis=1)
        left = left[redo].any(axis=0)
        if left.any():  # groups left out whose bound reaches a threshold
            extra = np.flatnonzero(left[group])
            extra_paths = _beam_paths(tx_codebook, extra, rho, f.tx_cols, n)
            keep = np.concatenate((keep, extra))
            order = np.argsort(keep)
            at = np.empty_like(order)  # a row's new position, by its old one
            at[order] = np.arange(len(order))
            keep, tx_paths = keep[order], np.concatenate((tx_paths, extra_paths), axis=1)[:, order]
            bound = np.concatenate((bound, _row_bounds(extra_paths, coef, rx_side, scale)),
                                   axis=1)[:, order]
            # the two best-bounded rows may now lie outside the first groups: confirm
            # them too, to raise the threshold, and count them with the top rows
            again = np.flatnonzero(redo)
            best = np.sort(np.argpartition(bound[again], -2, axis=1)[:, -2:], axis=1)
            table = _power_rows(np.take_along_axis(tx_paths[again], best[:, :, None], axis=1),
                                coef[again], (rx_side[0][again], *rx_side[1:]), scale)
            threshold[again] = np.maximum(threshold[again],
                                          table.max(axis=(1, 2)) * (1.0 - TIE_RTOL))
            top = np.concatenate((at[top], at[top[:, :2]]), axis=1)
            top[again, -2:] = best
            reach = bound >= threshold[:, None]
    for g in np.flatnonzero(redo).tolist():
        # these rows hold the maximum's row too, so they are two or more, but
        # for a channel whose extra rows' bounds fell short: add its top rows
        rows = np.flatnonzero(reach[g])
        if len(rows) < 2:
            reach[g, top[g]] = True
            rows = np.flatnonzero(reach[g])
        t = _power_rows(tx_paths[g, rows], coef[g], (rx_side[0][g], *rx_side[1:]), scale)
        k_g, rx[g], power[g], peak[g] = _first_tied(t)
        tx[g] = keep[rows[k_g]]
    return tuple(np.where(live, column, 0) for column in (tx, rx, power, peak))
