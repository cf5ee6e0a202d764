"""Link-level abstraction: SINR, rate adaptation, and the snapshot loop.

snapshot_rows is the one snapshot schedule: it turns a trace and the
setup's time grid into row times and offsets into the link's paths,
outages included, and rejects a trace that is off the grid. run_simulation
computes the link's path factors a block of rows at a time, trains the
block's training rows in one batched sweep on their slices of them (ideal
sweeps, no airtime, on a fixed period), computes every row's received power
through the beams last trained in one vectorised pass over the same
factors, and walks the rows in order: map the power to SINR, pick the rate,
and derive throughput and a queueing-flavored delay from an analytic
saturation model. No subband coefficients pass between these steps.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .beams import BeamCodebook, BeamSelection, _gains, ideal_beam_sweeps
from .channel import (ChannelMatrixSet, PathFactors, SubbandGrid, _finite_power, _subband_terms,
                      path_factors)
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
        if not all(map(math.isfinite, vars(self).values())):
            raise ValueError(f"link budget values must be finite: {vars(self)}")
        if self.tx_power_w < 0 or self.bandwidth_hz <= 0:
            raise ValueError("tx_power_w must be >= 0 and bandwidth_hz > 0")
        if self.temperature_k <= 0 or self.interference_w < 0:
            raise ValueError("temperature_k must be > 0 and interference_w >= 0")


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
    denom = noise_power(budget) + budget.interference_w
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
        if not self.training_period_s > 0:  # nan too
            raise ValueError("training_period_s must be positive")
        t = np.asarray(self.times, dtype=float)
        if not (t.ndim == 1 and t.size and np.isfinite(t).all() and (np.diff(t) > 0).all()):
            raise ValueError("times must be a non-empty, finite, strictly increasing grid")


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
    if not 0.0 <= overhead < 1.0:
        raise ValueError("overhead must be in [0, 1)")
    if not offered_bps >= 0:  # nan too
        raise ValueError("offered_bps must be >= 0")
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
def _row_powers(factors: PathFactors, counts: np.ndarray, sels: list[BeamSelection],
                setup: SimulationSetup) -> list[float]:
    """Each row's power through its pair sels[i], watts, from its counts[i] paths in factors.

    The paths' (P, K) _subband_terms, whose rows transposed are the coefficients of the
    rows' channels, are computed here. Only elementwise products with no elided temporary
    (see beams) and per-row sums run: no row depends on another.
    """
    has, power = counts > 0, np.zeros(len(counts))
    if has.any():
        b = np.repeat([(sel.tx_index, sel.rx_index) for sel in sels], counts, axis=0)
        rx_g = _gains(setup.rx_codebook, b[:, 1], factors.rx_rows, factors.rx_cols)
        tx_conj = _gains(setup.tx_codebook, b[:, 0], factors.tx_rows, factors.tx_cols).conj()
        x = rx_g * tx_conj
        terms = _subband_terms(factors.phasor, factors.delay, setup.grid)
        amp = np.add.reduceat(terms * x[:, None], (np.cumsum(counts) - counts)[has], axis=0)
        power[has] = (setup.budget.tx_power_w / setup.grid.n_subbands * np.abs(amp) ** 2).sum(1)
    return power.tolist()


def run_simulation(trace: TraceSet, setup: SimulationSetup) -> list[LinkMetrics]:
    """Link metrics for each row of snapshot_rows(trace, setup).

    An outage row has no paths: SINR floor, no MCS. Beams train on the
    first row and then on the first row at which the training period has
    elapsed since the last training, on the training row's own channel, and
    are held until the next training. A training row that is an outage finds
    no paths, so training stays due and the next row trains. The schedule
    depends only on the row times and on which rows have paths, so it is
    fixed up front. Each block of path_factors trains all of its training
    rows in one ideal_beam_sweeps call on channels that hold the rows'
    slices of the block's factors; then _row_powers gives each row its
    power through the pair last trained from the same factors, with no held
    row's channel. The first row whose power is not finite raises; beams
    need no check, as a BeamCodebook has unit norm.
    """
    cb_tx, cb_rx = setup.tx_codebook, setup.rx_codebook
    tx, rx = setup.tx_array, setup.rx_array
    times, offsets = snapshot_rows(trace, setup)
    link_paths = trace.link(setup.tx_id, setup.rx_id)
    # row i holds a LOS record when the running LOS count grows over its paths
    n_los = np.concatenate(([0], np.cumsum(link_paths.columns["path_type"] == PathType.LOS)))
    los = (n_los[offsets[1:]] > n_los[offsets[:-1]]).tolist()
    trains, due = [], -math.inf
    for t, has in zip(times, (offsets[1:] > offsets[:-1]).tolist()):
        trains.append(t >= due - GRID_TOL_S)
        if trains[-1] and has:
            due = t + setup.training_period_s
    block = max(1, _FACTOR_BYTES // (16 * (tx.n_rows + tx.n_cols + rx.n_rows + rx.n_cols + 2
                                           + 2 * setup.grid.n_subbands)))  # bytes a path
    offsets = offsets.tolist()  # row i's paths are link_paths[offsets[i]:offsets[i + 1]]
    out, sel, first = [], None, 0  # first: the next block's first row
    while first < len(times):
        start = offsets[first]
        factors = path_factors(link_paths[start:max(offsets[first + 1], start + block)], tx, rx)
        end = bisect.bisect_right(offsets, start + len(factors)) - 1
        factors = factors[:offsets[end] - start]  # the block's whole rows
        trained = [i for i in range(first, end) if trains[i]]
        picks = dict(zip(trained, ideal_beam_sweeps(
            [ChannelMatrixSet(factors[offsets[i] - start:offsets[i + 1] - start], setup.grid,
                              times[i]) for i in trained], cb_tx, cb_rx, setup.budget.tx_power_w)))
        sels = [sel := picks.get(i, sel) for i in range(first, end)]  # the first row trains
        powers = _row_powers(factors, np.diff(offsets[first:end + 1]), sels, setup)
        for i, sel, p_rx in zip(range(first, end), sels, powers):
            sinr = compute_sinr(_finite_power(p_rx, times[i]), setup.budget)
            mcs = select_mcs(sinr, setup.amc)
            rate = throughput_delay(mcs, setup.amc, setup.budget.bandwidth_hz, setup.offered_bps,
                                    setup.overhead, setup.base_delay_s, setup.saturation_delay_s)
            held = BeamSelection(sel.tx_index, sel.rx_index, sel.tx_direction, sel.rx_direction,
                                 p_rx)
            out.append(LinkMetrics(times[i], los[i], held, sinr, mcs, setup.offered_bps, *rate))
        first = end
    return out


def _fmt(value: float) -> str:
    return repr(float(value))


def metrics_to_csv(metrics: list[LinkMetrics]) -> str:
    """Serialize metrics rows; a None mcs is reported as 0 (lowest rate)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(METRICS_COLUMNS)
    for m in metrics:
        writer.writerow(
            [
                _fmt(m.t),
                1 if m.los else 0,
                _fmt(m.selection.tx_direction.azimuth_deg),
                _fmt(m.selection.tx_direction.zenith_deg),
                _fmt(m.selection.rx_direction.azimuth_deg),
                _fmt(m.selection.rx_direction.zenith_deg),
                _fmt(m.sinr_db),
                0 if m.mcs is None else m.mcs,
                _fmt(m.offered_bps),
                _fmt(m.delivered_bps),
                _fmt(m.delay_s),
            ]
        )
    return out.getvalue()
