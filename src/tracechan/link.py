"""Link-level abstraction: SINR, rate adaptation, and the snapshot loop.

The simulation walks a trace link snapshot by snapshot: build the channel,
retrain beams on a fixed period (ideal sweeps, no airtime), compute
beamformed receive power, map to SINR, pick the rate, and derive throughput
and a queueing-flavored delay from an analytic saturation model.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .beams import BeamCodebook, BeamSelection, ideal_beam_sweep
from .channel import (
    ChannelMatrixSet,
    NodeState,
    SubbandGrid,
    beamformed_power,
    build_channel_matrices,
)
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
    "snapshot_channel",
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
            reader = csv.DictReader(fh)
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
    if offered_bps < 0:
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
    """Everything run_simulation needs besides the trace itself."""

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

    def __post_init__(self) -> None:
        if self.training_period_s <= 0:
            raise ValueError("training_period_s must be positive")


def snapshot_channel(
    setup: SimulationSetup, records: list[MpcRecord], t: float
) -> ChannelMatrixSet:
    """Channel of the configured link from one snapshot's records, at time t.

    The channel is evaluated at its own snapshot time, where the Doppler
    phase ramp is 1, so node motion cannot change it: both nodes are passed
    as static.
    """
    static = NodeState.static()
    return build_channel_matrices(
        records, setup.tx_array, setup.rx_array, static, static, setup.grid, t_eval=t
    )


def _training_flags(times: list[float], period: float) -> list[bool]:
    flags = []
    due = times[0] if times else 0.0
    for t in times:
        if t >= due - 1e-9:
            flags.append(True)
            due = t + period
        else:
            flags.append(False)
    return flags


def _map(fn, items: list, workers: int) -> list:
    if workers == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _align_to_grid(grid: Sequence[float], trace_times: list[float]) -> list[float]:
    """Each grid time, replaced by the trace snapshot time within GRID_TOL_S of it."""
    known = np.asarray(trace_times, dtype=float)
    out = []
    for t in grid:
        i = int(np.searchsorted(known, t))
        near = [j for j in (i - 1, i) if 0 <= j < known.size and abs(known[j] - t) <= GRID_TOL_S]
        out.append(trace_times[near[0]] if near else float(t))
    return out


def run_simulation(
    trace: TraceSet,
    setup: SimulationSetup,
    workers: int = 1,
    times: Sequence[float] | None = None,
) -> list[LinkMetrics]:
    """Per-snapshot link metrics for the configured link of a trace.

    times is the snapshot grid to report, one row per grid time. A grid time
    within GRID_TOL_S of a trace snapshot takes that snapshot's time and
    records; any other grid time is an outage, evaluated on a channel with no
    paths (SINR floor, no MCS), since the ray tracer writes no record for a
    snapshot without paths. Trace snapshots off the grid are not evaluated.
    Without times the rows are the trace's own snapshot times.

    Beam training runs at the first snapshot and then whenever the training
    period has elapsed, always on the training snapshot's own channel; the
    winning pair is held until the next training. Each snapshot's channel is
    built once: a training snapshot's row is evaluated on the channel it was
    trained on. Results are identical for any worker count: snapshots are
    evaluated independently and reassembled in time order.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    link = (setup.tx_id, setup.rx_id)
    trace_times = trace.snapshot_times(*link)
    if times is not None:
        times = _align_to_grid(times, trace_times)
    elif trace_times:
        times = trace_times
    else:
        raise ValueError(f"trace has no snapshots for link {link}")
    groups = [trace.group(t, *link) for t in times]

    def evaluate(i: int, sel: BeamSelection, ch: ChannelMatrixSet) -> LinkMetrics:
        _, p_rx = beamformed_power(
            ch,
            setup.tx_codebook.weights[sel.tx_index],
            setup.rx_codebook.weights[sel.rx_index],
            setup.budget.tx_power_w,
        )
        sinr = compute_sinr(p_rx, setup.budget)
        mcs = select_mcs(sinr, setup.amc)
        delivered, delay = throughput_delay(
            mcs, setup.amc, setup.budget.bandwidth_hz, setup.offered_bps,
            setup.overhead, setup.base_delay_s, setup.saturation_delay_s,
        )
        return LinkMetrics(
            t=times[i],
            los=classify_los(groups[i]),
            selection=replace(sel, power_w=p_rx),
            sinr_db=sinr,
            mcs=mcs,
            offered_bps=setup.offered_bps,
            delivered_bps=delivered,
            delay_s=delay,
        )

    def train(i: int) -> tuple[BeamSelection, LinkMetrics]:
        ch = snapshot_channel(setup, groups[i], times[i])
        sel = ideal_beam_sweep(
            ch, setup.tx_codebook, setup.rx_codebook, setup.budget.tx_power_w
        )
        return sel, evaluate(i, sel, ch)

    flags = _training_flags(times, setup.training_period_s)
    training_idx = [i for i, f in enumerate(flags) if f]
    trained = dict(zip(training_idx, _map(train, training_idx, workers)))
    active: list[BeamSelection] = []  # the first snapshot always trains
    for i in range(len(times)):
        active.append(trained[i][0] if flags[i] else active[-1])

    def evaluate_held(i: int) -> LinkMetrics:
        return evaluate(i, active[i], snapshot_channel(setup, groups[i], times[i]))

    held_idx = [i for i, f in enumerate(flags) if not f]
    held = dict(zip(held_idx, _map(evaluate_held, held_idx, workers)))
    return [trained[i][1] if flags[i] else held[i] for i in range(len(times))]


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
