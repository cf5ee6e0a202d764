"""Link-level abstraction: SINR, rate adaptation, and the simulation columns.

snapshot_rows is the one snapshot schedule: it turns a trace and the
setup's time grid into row times and offsets into the link's paths,
outages included, and rejects a trace that is off the grid. run_simulation
keeps its rows as columns. It computes the link's path factors a block of
rows at a time, sweeps the block's training rows in one batched call on
their spans of those factors (ideal sweeps, no airtime, on a fixed
period), forward-fills the trained beam indices over the block, and
computes every row's received power through its held beams in one
vectorised pass over the same factors. Each row's power then maps to SINR,
the rate, and throughput and a queueing-flavored delay from an analytic
saturation model, a column at a time. No subband coefficients, channel or
per-row selection objects pass between these steps; LinkColumns builds a
row's LinkMetrics only when it is read, and metrics_to_csv writes the
columns.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .beams import BeamCodebook, BeamSelection, _gains, _sweep_spans
from .channel import PathFactors, SubbandGrid, _finite_power, _subband_terms, path_factors
# build_channel_matrices is not used here; perfbench/tests/test_perfbench.py reads
# tracechan.link.build_channel_matrices, so the name stays importable from link
from .channel import build_channel_matrices  # noqa: F401
from .arrays import PlanarArray
from .traces import PathType, TraceSet

__all__ = [
    "BOLTZMANN",
    "GRID_TOL_S",
    "SINR_FLOOR_DB",
    "LinkBudget",
    "AmcTable",
    "LinkMetrics",
    "LinkColumns",
    "SimulationSetup",
    "noise_power",
    "compute_sinr",
    "select_mcs",
    "throughput_delay",
    "snapshot_rows",
    "run_simulation",
    "metrics_to_csv",
    "METRICS_COLUMNS",
]

BOLTZMANN = 1.380649e-23  # J/K
SINR_FLOOR_DB = -200.0  # finite stand-in for "no signal"
GRID_TOL_S = 1e-9  # a trace time this close to a grid time sits on it

METRICS_COLUMNS = (
    "t",
    "los",
    "tx_beam_az_deg",
    "tx_beam_zen_deg",
    "rx_beam_az_deg",
    "rx_beam_zen_deg",
    "sinr_db",
    "mcs",
    "offered_bps",
    "delivered_bps",
    "delay_s",
)


@dataclass(frozen=True)
class LinkBudget:
    """Power and noise bookkeeping for one link."""

    tx_power_w: float
    bandwidth_hz: float
    noise_figure_db: float
    temperature_k: float = 290.0
    interference_w: float = 0.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name, ok, rule in (("tx_power_w", self.tx_power_w >= 0, ">= 0"),
                               ("bandwidth_hz", self.bandwidth_hz > 0, "> 0"),
                               ("temperature_k", self.temperature_k > 0, "> 0"),
                               ("interference_w", self.interference_w >= 0, ">= 0")):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        # compute_sinr divides by the noise plus interference power
        try:
            denom = noise_power(self) + self.interference_w
        except OverflowError:
            raise ValueError(f"noise_figure_db {self.noise_figure_db!r} overflows as a "
                             "linear ratio") from None
        if denom == 0.0:
            raise ValueError(f"noise_figure_db {self.noise_figure_db!r} and temperature_k "
                             f"{self.temperature_k!r} make the noise plus interference power 0 W")


def noise_power(budget: LinkBudget) -> float:
    """Thermal noise power over the full bandwidth, watts: kTB * NF."""
    return (
        BOLTZMANN
        * budget.temperature_k
        * budget.bandwidth_hz
        * 10.0 ** (budget.noise_figure_db / 10.0)
    )


def compute_sinr(p_rx_w: float, budget: LinkBudget) -> float:
    """SINR in dB over noise plus (fixed, default zero) interference."""
    if not 0 <= p_rx_w < math.inf:
        raise ValueError(f"p_rx_w must be >= 0 and finite, got {p_rx_w!r}")
    return _sinr_db(p_rx_w, noise_power(budget) + budget.interference_w)


def _sinr_db(p_rx_w: float, denom: float) -> float:
    """compute_sinr's value for a finite p_rx_w >= 0 over noise plus interference denom, watts."""
    if p_rx_w == 0.0:
        return SINR_FLOOR_DB
    return max(10.0 * math.log10(p_rx_w / denom), SINR_FLOOR_DB)


# 29-step spectral-efficiency ladder, bits/s/Hz, strictly increasing.
_DEFAULT_SE = (
    0.2344, 0.3066, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766, 1.6953, 1.9141,
    2.1602, 2.4063, 2.5703, 2.7305, 3.0293, 3.3223, 3.6094, 3.9023, 4.2129,
    4.5234, 4.8164, 5.1152, 5.3320, 5.5547, 5.8906, 6.2266, 6.5703, 6.9141,
    7.1602, 7.4063,
)
_AMC_GAP_DB = 3.0  # implementation margin over Shannon at each step


@dataclass(frozen=True)
class AmcTable:
    """MCS index -> (SINR threshold dB, spectral efficiency bits/s/Hz)."""

    thresholds_db: tuple[float, ...]
    spectral_efficiency: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.thresholds_db) != len(self.spectral_efficiency):
            raise ValueError("thresholds and efficiencies must have equal length")
        if not self.thresholds_db:
            raise ValueError("AMC table must not be empty")
        if not all(map(math.isfinite, (*self.thresholds_db, *self.spectral_efficiency))):
            raise ValueError("AMC thresholds and spectral efficiencies must be finite")
        if any(b <= a for a, b in zip(self.thresholds_db, self.thresholds_db[1:])):
            raise ValueError("thresholds must be strictly increasing")
        if any(b <= a for a, b in zip(self.spectral_efficiency, self.spectral_efficiency[1:])):
            raise ValueError("spectral efficiencies must be strictly increasing")
        if self.spectral_efficiency[0] <= 0:
            raise ValueError("spectral efficiencies must be positive")

    def __len__(self) -> int:
        return len(self.thresholds_db)

    @classmethod
    def default(cls) -> "AmcTable":
        """Ladder from 0.2344 to 7.4063 bits/s/Hz; threshold for each step is
        the Shannon SINR for that efficiency plus a 3 dB gap."""
        thr = tuple(
            10.0 * math.log10(2.0 ** se - 1.0) + _AMC_GAP_DB for se in _DEFAULT_SE
        )
        return cls(thr, _DEFAULT_SE)

    @classmethod
    def from_file(cls, path) -> "AmcTable":
        """Load a table from CSV columns mcs,sinr_threshold_db,spectral_efficiency."""
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh, restval="")  # a short row reads as ''
            required = {"mcs", "sinr_threshold_db", "spectral_efficiency"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise ValueError(
                    f"AMC table needs columns {sorted(required)}, got {reader.fieldnames}"
                )
            rows = sorted(
                ((int(r["mcs"]), float(r["sinr_threshold_db"]), float(r["spectral_efficiency"]))
                 for r in reader),
                key=lambda x: x[0],
            )
        if [m for m, _, _ in rows] != list(range(len(rows))):
            raise ValueError("AMC table mcs indices must be 0..n-1 without gaps")
        return cls(tuple(t for _, t, _ in rows), tuple(s for _, _, s in rows))


def select_mcs(sinr_db: float, table: AmcTable) -> int | None:
    """Largest index whose threshold is <= sinr_db; None below the first; NaN raises."""
    if math.isnan(sinr_db):
        raise ValueError("sinr_db must not be NaN")
    idx = bisect.bisect_right(table.thresholds_db, sinr_db) - 1
    return idx if idx >= 0 else None


@dataclass(frozen=True)
class LinkMetrics:
    """One output row of the simulation."""

    t: float
    los: bool
    selection: BeamSelection
    sinr_db: float
    mcs: int | None
    offered_bps: float
    delivered_bps: float
    delay_s: float


@dataclass(frozen=True)
class SimulationSetup:
    """Everything run_simulation needs besides the trace; times is the snapshot grid."""

    tx_array: PlanarArray
    rx_array: PlanarArray
    grid: SubbandGrid
    budget: LinkBudget
    amc: AmcTable
    tx_codebook: BeamCodebook
    rx_codebook: BeamCodebook
    training_period_s: float
    offered_bps: float
    overhead: float
    times: tuple[float, ...]
    base_delay_s: float = 0.5e-3
    saturation_delay_s: float = 7.5e-3
    tx_id: int = 0
    rx_id: int = 1

    def __post_init__(self) -> None:
        _check_link(self.training_period_s, self.offered_bps, self.overhead)
        t = np.asarray(self.times, dtype=float)
        if not (t.ndim == 1 and t.size and np.isfinite(t).all() and (np.diff(t) > 0).all()):
            raise ValueError("times must be a non-empty, finite, strictly increasing grid")


def _check_link(training_period_s: float, offered_bps: float, overhead: float) -> None:
    """SimulationSetup's rules for its training period, offered load and overhead."""
    if not training_period_s > 0:  # nan too
        raise ValueError(f"training_period_s must be positive, got {training_period_s!r}")
    _check_load(offered_bps, overhead)


def _check_load(offered_bps: float, overhead: float) -> None:
    """throughput_delay's rules for its offered load and overhead."""
    if not 0.0 <= overhead < 1.0:
        raise ValueError(f"overhead must be in [0, 1), got {overhead!r}")
    if not offered_bps >= 0:  # nan too
        raise ValueError(f"offered_bps must be >= 0, got {offered_bps!r}")


def throughput_delay(
    mcs: int | None,
    table: AmcTable,
    bandwidth_hz: float,
    offered_bps: float,
    overhead: float,
    base_delay_s: float = SimulationSetup.base_delay_s,
    saturation_delay_s: float = SimulationSetup.saturation_delay_s,
) -> tuple[float, float]:
    """Delivered rate and one-way delay from an analytic saturation model.

    Capacity C = SE * B * (1 - overhead); delivered = min(offered, C); the
    delay adds a queueing penalty that scales with the saturated fraction:
    base + saturation * max(0, 1 - C/offered). A None mcs transmits at the
    lowest rate with effectively zero goodput, so it behaves as C = 0.
    """
    _check_load(offered_bps, overhead)
    if mcs is not None and not 0 <= mcs < len(table):
        raise ValueError(f"mcs {mcs} outside table of {len(table)} entries")
    capacity = (
        0.0 if mcs is None else table.spectral_efficiency[mcs] * bandwidth_hz * (1.0 - overhead)
    )
    if offered_bps == 0.0:
        return 0.0, base_delay_s
    delivered = min(offered_bps, capacity)
    delay = base_delay_s + saturation_delay_s * max(0.0, 1.0 - capacity / offered_bps)
    return delivered, delay


def _nearest_slots(grid: np.typing.ArrayLike, times: np.typing.ArrayLike) -> np.ndarray:
    """Each time's np.argmin(np.abs(grid - t)) slot, for a strictly increasing grid.

    |grid - t| does not grow up to the first grid time at or above t, so a
    time's slot is the first one no farther than the nearer of that grid time
    and the one below it: argmin takes the first minimum, also where rounding
    ties distinct grid times far from t (past the end, or at inf or NaN, it
    may tie them all). A slot whose lower neighbour is farther is settled at
    once; the others are bisected together in about log2(len(grid)) steps.
    """
    grid, times = np.asarray(grid), np.asarray(times)
    hi = np.minimum(np.searchsorted(grid, times), len(grid) - 1)
    lower = np.maximum(hi - 1, 0)
    hi = np.where(np.abs(grid[lower] - times) <= np.abs(grid[hi] - times), lower, hi)
    best = np.abs(grid[hi] - times)
    lo = np.where(np.abs(grid[np.maximum(hi - 1, 0)] - times) > best, hi, 0)
    while (lo < hi).any():
        mid = (lo + hi) // 2
        near = ~(np.abs(grid[mid] - times) > best)  # NaN too
        lo, hi = np.where(near, lo, mid + 1), np.where(near, mid, hi)
    return hi


def snapshot_rows(trace: TraceSet, setup: SimulationSetup) -> tuple[list[float], np.ndarray]:
    """The (times, offsets) of the configured link's rows, one per grid time.

    setup.times is the configured snapshot grid. A grid time within
    GRID_TOL_S of a trace snapshot takes that snapshot's time and paths; any
    other grid time, a snapshot without paths or a gap in a measured trace,
    is an outage row with no paths, so an empty trace is all outages. Row
    i's paths are trace.link(tx_id, rx_id)[offsets[i]:offsets[i + 1]], read
    from the trace index's bounds, so the rows tile the link. A trace with
    records but none of the link, a link snapshot off the grid or past its
    end, or two on one grid time, raises ValueError for the earliest one.
    """
    link = (setup.tx_id, setup.rx_id)
    _, bounds, times, links = trace._index
    first, stop = links.get(link, (0, 0))
    if len(trace) and first == stop:
        raise ValueError(f"trace has no snapshots for link {link}")
    grid = np.asarray(setup.times, dtype=float)
    trace_times = times[first:stop]
    slots = _nearest_slots(grid, trace_times)
    # a slot's first snapshot is checked against its grid time, a later one
    # against the snapshot before it, which took the slot's time
    shared = np.diff(slots, prepend=-1) == 0
    ref = np.where(shared, np.roll(trace_times, 1), grid[slots])
    off = np.abs(ref - trace_times) > GRID_TOL_S
    if (off | shared).any():
        j = int((off | shared).argmax())  # the earliest bad snapshot
        t = float(trace_times[j])
        if off[j]:
            t0, end = float(grid[0]), float(grid[-1])
            if t > end:
                raise ValueError(f"snapshot t={t!r} is past the configured time grid's end "
                                 f"t={end!r}; duration_s must cover the trace")
            span = (f"dt={float(grid[1]) - t0!r} s from t={t0!r}"
                    if len(grid) > 1 else f"one sample at t={t0!r}")
            raise ValueError(f"snapshot t={t!r} is not on the configured time grid ({span}); "
                             "snapshot_dt_s must match the trace")
        raise ValueError(f"snapshots t={float(ref[j])!r} and t={t!r} share one grid time")
    row_times = grid.copy()
    row_times[slots] = trace_times
    offsets = np.zeros(len(grid) + 1, dtype=np.int64)
    offsets[slots + 1] = np.diff(bounds[first:stop + 1])
    return row_times.tolist(), np.cumsum(offsets, out=offsets)


# run_simulation takes the link's path factors, their (P, K) subband terms and the
# terms' product with the rows' beam gains, a block of rows of about this many bytes
# at a time: a long link is never held whole
_FACTOR_BYTES = 1 << 20


@np.errstate(over="ignore", invalid="ignore")  # a row whose power overflows raises instead
def _row_powers(factors: PathFactors, counts: np.ndarray, tx_index: np.ndarray,
                rx_index: np.ndarray, setup: SimulationSetup) -> np.ndarray:
    """Each row's power through beams tx_index[i], rx_index[i], watts, from its counts[i] paths.

    The rows' paths are factors, in row order. The paths' (P, K) _subband_terms, whose rows
    transposed are the coefficients of the rows' channels, are computed here. Only
    elementwise products with no elided temporary (see beams) and per-row sums run: no row
    depends on another.
    """
    has, power = counts > 0, np.zeros(len(counts))
    if has.any():
        rx_g = _gains(setup.rx_codebook, np.repeat(rx_index, counts), factors.rx_rows,
                      factors.rx_cols)
        tx_conj = _gains(setup.tx_codebook, np.repeat(tx_index, counts), factors.tx_rows,
                         factors.tx_cols).conj()
        x = rx_g * tx_conj
        terms = _subband_terms(factors.phasor, factors.delay, setup.grid)
        amp = np.add.reduceat(terms * x[:, None], (np.cumsum(counts) - counts)[has], axis=0)
        power[has] = (setup.budget.tx_power_w / setup.grid.n_subbands * np.abs(amp) ** 2).sum(1)
    return power


@dataclass(frozen=True)
class LinkColumns(Sequence):
    """run_simulation's rows as columns, one entry a row; row i reads as a LinkMetrics.

    tx_index and rx_index index the beams held at each row in tx_codebook and
    rx_codebook, and power_w is the row's power through them. Indexing and
    iteration build each row's LinkMetrics, and its beam Directions, when
    read; metrics_to_csv reads the columns.
    """

    t: tuple[float, ...]
    los: tuple[bool, ...]
    tx_index: tuple[int, ...]
    rx_index: tuple[int, ...]
    power_w: tuple[float, ...]
    sinr_db: tuple[float, ...]
    mcs: tuple[int | None, ...]
    delivered_bps: tuple[float, ...]
    delay_s: tuple[float, ...]
    offered_bps: float
    tx_codebook: BeamCodebook
    rx_codebook: BeamCodebook

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i: int) -> LinkMetrics:
        tx, rx = self.tx_index[i], self.rx_index[i]
        held = BeamSelection(tx, rx, self.tx_codebook._direction(tx),
                             self.rx_codebook._direction(rx), self.power_w[i])
        return LinkMetrics(self.t[i], self.los[i], held, self.sinr_db[i], self.mcs[i],
                           self.offered_bps, self.delivered_bps[i], self.delay_s[i])


def run_simulation(trace: TraceSet, setup: SimulationSetup) -> LinkColumns:
    """Link metrics for each row of snapshot_rows(trace, setup), as columns.

    An outage row has no paths: SINR floor, no MCS. Beams train on the
    first row and then on the first row at which the training period has
    elapsed since the last training, on the training row's own channel, and
    are held until the next training. A training row that is an outage finds
    no paths, so training stays due and the next row trains. The schedule
    depends only on the row times and on which rows have paths, so it is
    fixed up front. Each block of path_factors sweeps all of its training
    rows in one _sweep_spans call on their spans of the block's factors,
    forward-fills the trained beam indices over the block's rows, and
    computes every row's power through its held pair in one _row_powers
    pass, with no per-row channel or selection. SINR (compute_sinr's
    formula), MCS and rates are then filled in column by column. The first
    row whose power is not finite raises, after the rows before it are
    done; beams need no check, as a BeamCodebook has unit norm.
    """
    cb_tx, cb_rx = setup.tx_codebook, setup.rx_codebook
    tx, rx = setup.tx_array, setup.rx_array
    times, offsets = snapshot_rows(trace, setup)
    link_paths = trace.link(setup.tx_id, setup.rx_id)
    # row i holds a LOS record when the running LOS count grows over its paths
    n_los = np.concatenate(([0], np.cumsum(link_paths.columns["path_type"] == PathType.LOS)))
    los = (n_los[offsets[1:]] > n_los[offsets[:-1]]).tolist()
    counts = np.diff(offsets)
    trains, due = np.zeros(len(times), bool), -math.inf
    for i, (t, has) in enumerate(zip(times, (counts > 0).tolist())):
        trains[i] = t >= due - GRID_TOL_S
        if trains[i] and has:
            due = t + setup.training_period_s
    block = max(1, _FACTOR_BYTES // (16 * (tx.n_rows + tx.n_cols + rx.n_rows + rx.n_cols + 2
                                           + 2 * setup.grid.n_subbands)))  # bytes a path
    tx_index, rx_index = np.zeros(len(times), np.intp), np.zeros(len(times), np.intp)
    power, columns = np.zeros(len(times)), ([], [], [], [])  # sinr, mcs, delivered, delay
    first, last = 0, 0  # the next block's first row, and the latest training row before it
    while first < len(times):
        start = int(offsets[first])
        factors = path_factors(link_paths[start:max(int(offsets[first + 1]), start + block)],
                               tx, rx)
        end = int(np.searchsorted(offsets, start + len(factors), side="right")) - 1
        factors = factors[:int(offsets[end]) - start]  # the block's whole rows
        trained = np.flatnonzero(trains[first:end]) + first
        tx_index[trained], rx_index[trained], _ = _sweep_spans(
            factors, offsets[trained] - start, counts[trained],
            [times[i] for i in trained.tolist()], setup.grid, cb_tx, cb_rx,
            setup.budget.tx_power_w)
        # each row holds the pair of the latest training row at or before it
        src = np.maximum.accumulate(np.where(trains[first:end], np.arange(first, end), last))
        tx_index[first:end], rx_index[first:end] = tx_index[src], rx_index[src]
        power[first:end] = _row_powers(factors, counts[first:end], tx_index[first:end],
                                       rx_index[first:end], setup)
        finite = np.isfinite(power[first:end])
        stop = end if finite.all() else first + int(finite.argmin())
        for column, values in zip(columns, _rates(power[first:stop], setup)):
            column += values
        if stop < end:  # the rows before it are done
            _finite_power(float(power[stop]), times[stop])
        first, last = end, int(src[-1])
    return LinkColumns(tuple(times), tuple(los), *(tuple(a.tolist()) for a in (tx_index, rx_index,
                       power)), *map(tuple, columns), setup.offered_bps, cb_tx, cb_rx)


def _rates(power: np.ndarray, setup: SimulationSetup) -> tuple[tuple, ...]:
    """The sinr_db, mcs, delivered_bps and delay_s of rows of finite power, watts.

    Each row's SINR is compute_sinr's scalar formula and its MCS select_mcs's,
    so their bits are kept; each MCS's rates are one throughput_delay call.
    """
    denom = noise_power(setup.budget) + setup.budget.interference_w
    sinr = tuple(_sinr_db(p, denom) for p in power.tolist())
    mcs = tuple(select_mcs(s, setup.amc) for s in sinr)
    rates = {m: throughput_delay(m, setup.amc, setup.budget.bandwidth_hz, setup.offered_bps,
                                 setup.overhead, setup.base_delay_s, setup.saturation_delay_s)
             for m in dict.fromkeys(mcs)}  # in row order, so a bad load raises at the first row
    delivered, delay = zip(*map(rates.__getitem__, mcs)) if mcs else ((), ())
    return sinr, mcs, delivered, delay


def _text(column) -> map:
    """Each value of column as the repr of its float."""
    return map(repr, map(float, column))


def metrics_to_csv(metrics: LinkColumns) -> str:
    """Serialize run_simulation's rows, a column at a time; a None mcs is written as 0.

    Each float is written as its repr, and the beam angles are read from the
    codebooks' angle arrays.
    """
    beams = [angles.take(index).tolist()
             for cb, index in ((metrics.tx_codebook, metrics.tx_index),
                               (metrics.rx_codebook, metrics.rx_index))
             for angles in (cb.azimuth_deg, cb.zenith_deg)]
    cells = (
        _text(metrics.t),
        ("1" if los else "0" for los in metrics.los),
        *map(_text, beams),
        _text(metrics.sinr_db),
        ("0" if m is None else str(m) for m in metrics.mcs),
        itertools.repeat(repr(float(metrics.offered_bps)), len(metrics)),
        _text(metrics.delivered_bps),
        _text(metrics.delay_s),
    )
    return "\n".join([",".join(METRICS_COLUMNS), *map(",".join, zip(*cells))]) + "\n"
