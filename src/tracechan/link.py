"""Link-level abstraction: SINR, rate adaptation, and the snapshot loop.

snapshot_rows is the one snapshot schedule: it turns a trace and the
setup's optional time grid into (time, records) rows, outages included, and
rejects a trace that is off the grid. run_simulation walks those rows in
training segments: build each row's channel at its own time, retrain beams
on a fixed period (ideal sweeps, no airtime), compute beamformed receive
power, map to SINR, pick the rate, and derive throughput and a
queueing-flavored delay from an analytic saturation model.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .beams import BeamCodebook, BeamSelection, ideal_beam_sweep
from .channel import SubbandGrid, beamformed_power, build_channel_matrices
from .arrays import PlanarArray
from .traces import MpcRecord, PathType, TraceSet

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
    "classify_los",
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
    if p_rx_w < 0:
        raise ValueError("p_rx_w must be >= 0")
    denom = noise_power(budget) + budget.interference_w
    if p_rx_w == 0.0:
        return SINR_FLOOR_DB
    return max(10.0 * math.log10(p_rx_w / denom), SINR_FLOOR_DB)


def classify_los(records: list[MpcRecord]) -> bool:
    """A snapshot is line-of-sight when it contains a LOS record."""
    return any(r.path_type is PathType.LOS for r in records)


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
    """Largest index whose threshold is <= sinr_db; None below the first."""
    idx = int(np.searchsorted(np.asarray(table.thresholds_db), sinr_db, side="right")) - 1
    return idx if idx >= 0 else None


def throughput_delay(
    mcs: int | None,
    table: AmcTable,
    bandwidth_hz: float,
    offered_bps: float,
    overhead: float,
    base_delay_s: float = 0.5e-3,
    saturation_delay_s: float = 7.5e-3,
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
    """Everything run_simulation needs besides the trace itself.

    times is the configured snapshot grid; None takes the rows from the
    trace's own snapshot times.
    """

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
    base_delay_s: float = 0.5e-3
    saturation_delay_s: float = 7.5e-3
    tx_id: int = 0
    rx_id: int = 1
    times: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.training_period_s > 0:  # nan too
            raise ValueError("training_period_s must be positive")
        if self.times is not None:
            t = np.asarray(self.times, dtype=float)
            if not (t.ndim == 1 and t.size and np.isfinite(t).all() and (np.diff(t) > 0).all()):
                raise ValueError("times must be a non-empty, finite, strictly increasing grid")


def snapshot_rows(
    trace: TraceSet, setup: SimulationSetup
) -> list[tuple[float, list[MpcRecord]]]:
    """The (time, records) rows of the configured link, in time order.

    setup.times is the configured snapshot grid. A grid time within
    GRID_TOL_S of a trace snapshot takes that snapshot's time and records;
    any other grid time is an outage row with no records, since the ray
    tracer writes no record for a snapshot without paths. A trace snapshot of
    the link off the grid, or two on one grid time, raises ValueError.
    Without a grid the rows are the trace's own snapshot times.
    """
    link = (setup.tx_id, setup.rx_id)
    trace_times = trace.snapshot_times(*link)
    if setup.times is None:
        if not trace_times:
            raise ValueError(f"trace has no snapshots for link {link}")
        return [(t, trace.group(t, *link)) for t in trace_times]
    grid = np.asarray(setup.times, dtype=float)
    rows: list[tuple[float, list[MpcRecord]]] = [(float(t), []) for t in grid]
    for t in trace_times:
        i = int(np.argmin(np.abs(grid - t)))
        if abs(rows[i][0] - t) > GRID_TOL_S:
            t0 = rows[0][0]
            span = (f"dt={rows[1][0] - t0!r} s from t={t0!r}"
                    if len(rows) > 1 else f"one sample at t={t0!r}")
            raise ValueError(
                f"snapshot t={t!r} is not on the configured time grid ({span}); "
                "snapshot_dt_s must match the trace"
            )
        if rows[i][1]:
            raise ValueError(f"snapshots t={rows[i][0]!r} and t={t!r} share one grid time")
        rows[i] = (t, trace.group(t, *link))
    return rows


def _segments(rows: list[tuple[float, list[MpcRecord]]], period: float) -> list[range]:
    """Row ranges of one training row plus the held rows up to the next.

    The first row trains, then the first row at which the period has elapsed
    since the last training. A training row without records is an outage: its
    sweep finds no paths, so training stays due and the next row trains.
    """
    starts: list[int] = []
    due = -math.inf
    for i, (t, records) in enumerate(rows):
        if t >= due - 1e-9:
            starts.append(i)
            if records:
                due = t + period
    return [range(a, b) for a, b in zip(starts, starts[1:] + [len(rows)])]


def _map(fn, items: list, workers: int) -> list:
    if workers == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def run_simulation(
    trace: TraceSet, setup: SimulationSetup, workers: int = 1
) -> list[LinkMetrics]:
    """Link metrics for each row of snapshot_rows(trace, setup).

    An outage row has no paths: SINR floor, no MCS. Beams train on the
    first row and then once the training period has elapsed, on the training
    row's own channel, and are held until the next training; a training row
    that is an outage leaves training due. Each row's channel is built once.
    Workers split the rows by training segment; results are identical for
    any worker count.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    rows = snapshot_rows(trace, setup)
    cb_tx, cb_rx = setup.tx_codebook, setup.rx_codebook
    p_tx = setup.budget.tx_power_w

    def evaluate(segment: range) -> list[LinkMetrics]:
        out = []
        for i in segment:
            t, records = rows[i]
            ch = build_channel_matrices(
                records, setup.tx_array, setup.rx_array, grid=setup.grid, t=t
            )
            if i == segment.start:
                sel = ideal_beam_sweep(ch, cb_tx, cb_rx, p_tx)
            _, p_rx = beamformed_power(
                ch, cb_tx.weights[sel.tx_index], cb_rx.weights[sel.rx_index], p_tx
            )
            sinr = compute_sinr(p_rx, setup.budget)
            mcs = select_mcs(sinr, setup.amc)
            delivered, delay = throughput_delay(
                mcs, setup.amc, setup.budget.bandwidth_hz, setup.offered_bps,
                setup.overhead, setup.base_delay_s, setup.saturation_delay_s,
            )
            out.append(LinkMetrics(
                t, classify_los(records), replace(sel, power_w=p_rx), sinr, mcs,
                setup.offered_bps, delivered, delay,
            ))
        return out

    segments = _segments(rows, setup.training_period_s)
    return [m for part in _map(evaluate, segments, workers) for m in part]


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
