"""Scenario configuration: a YAML file describing one simulated link.

A config either points at an existing trace CSV (trace_path) or describes
geometry to ray-trace (tx_trajectory / rx_trajectory plus an optional
environment of reflecting rectangles). All other keys size the arrays,
codebooks, subband grid, and link budget. Parsing collects every problem it
can find before raising, so a config with three missing keys reports all
three at once.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import yaml

from .arrays import PlanarArray
from .beams import BeamCodebook, generate_codebook
from .channel import SubbandGrid
from .link import AmcTable, LinkBudget, SimulationSetup
from .raytrace import Environment, Rectangle, RtScenario
from .trajectory import Trajectory, make_trajectory, time_grid

__all__ = [
    "ConfigError",
    "ArraySpec",
    "CodebookSpec",
    "ScenarioConfig",
    "load_config",
    "parse_config",
    "n_snapshots",
    "dbm_to_watts",
    "build_arrays",
    "build_grid",
    "build_budget",
    "build_codebooks",
    "build_amc",
    "build_trajectories",
    "build_rt_scenario",
    "build_setup",
]


class ConfigError(ValueError):
    """Invalid or incomplete configuration; message lists every problem."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class ArraySpec:
    rows: int
    cols: int
    spacing: float
    bearing_deg: float


@dataclass(frozen=True)
class CodebookSpec:
    """Beam grid bounds in degrees; zenith-resolved (el_* already converted)."""

    az_min: float
    az_max: float
    az_step: float
    zen_min: float
    zen_max: float
    zen_step: float


@dataclass(frozen=True)
class ScenarioConfig:
    carrier_hz: float
    bandwidth_hz: float
    subbands: int
    txpower_dbm: float
    noise_figure_db: float
    tx_array: ArraySpec
    rx_array: ArraySpec
    tx_codebook: CodebookSpec
    rx_codebook: CodebookSpec
    training_period_s: float
    offered_bps: float
    overhead: float
    snapshot_dt_s: float
    duration_s: float
    trace_path: str | None = None
    environment: Environment | None = None
    tx_trajectory: dict | None = None
    rx_trajectory: dict | None = None
    tx_id: int = 0
    rx_id: int = 1
    temperature_k: float = 290.0
    interference_w: float = 0.0
    base_delay_s: float = 0.5e-3
    saturation_delay_s: float = 7.5e-3
    amc_table_path: str | None = None
    max_reflection_order: int = 4


def _as_float(value):
    # YAML 1.1 reads bare "1e9" as a string; accept numeric strings too
    if isinstance(value, bool):
        raise ValueError("boolean is not a number")
    return float(value)


def _as_finite(value):
    f = _as_float(value)
    if not math.isfinite(f):
        raise ValueError(f"{value!r} is not a finite number")
    return f


def _as_int(value):
    f = _as_finite(value)
    if f != int(f):
        raise ValueError(f"{value!r} is not an integer")
    return int(f)


def _as_vec3(value):
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ValueError(f"{value!r} is not a 3-element list")
    return [_as_finite(v) for v in value]


_REQUIRED = object()


class _Reader:
    """Pulls typed values out of a nested dict, recording every problem."""

    def __init__(self, raw: dict):
        self.raw = raw
        self.problems: list[str] = []

    def section(self, name: str) -> dict | None:
        value = self.raw.get(name)
        if value is None:
            self.problems.append(f"missing required section {name}")
            return None
        if not isinstance(value, dict):
            self.problems.append(f"{name} must be a mapping")
            return None
        return value

    def get(self, mapping: dict | None, key: str, dotted: str, cast, default=_REQUIRED):
        required = default is _REQUIRED
        if mapping is None:
            return None if required else default
        if key not in mapping:
            if required:
                self.problems.append(f"missing required key {dotted}")
                return None
            return default
        try:
            return cast(mapping[key])
        except (TypeError, ValueError) as exc:
            self.problems.append(f"{dotted}: {exc}")
            return None if required else default


def _parse_array(reader: _Reader, name: str) -> ArraySpec | None:
    sec = reader.section(name)
    rows = reader.get(sec, "rows", f"{name}.rows", _as_int)
    cols = reader.get(sec, "cols", f"{name}.cols", _as_int)
    spacing = reader.get(sec, "spacing", f"{name}.spacing", _as_finite)
    bearing = reader.get(sec, "bearing_deg", f"{name}.bearing_deg", _as_finite)
    if None in (rows, cols, spacing, bearing):
        return None
    return ArraySpec(rows, cols, spacing, bearing)


def _parse_codebook(reader: _Reader, name: str) -> CodebookSpec | None:
    sec = reader.section(name)
    az = [
        reader.get(sec, k, f"{name}.{k}", _as_finite)
        for k in ("az_min", "az_max", "az_step")
    ]
    if sec is None:
        return None
    has_zen = any(f"zen_{s}" in sec for s in ("min", "max", "step"))
    has_el = any(f"el_{s}" in sec for s in ("min", "max", "step"))
    if has_zen and has_el:
        reader.problems.append(f"{name}: give zen_* or el_* keys, not both")
        return None
    if has_el:
        el = [
            reader.get(sec, k, f"{name}.{k}", _as_finite)
            for k in ("el_min", "el_max", "el_step")
        ]
        if None in el:
            return None
        # elevation is 90 deg minus zenith, so the bounds swap roles
        zen = [90.0 - el[1], 90.0 - el[0], el[2]]
    else:
        zen = [
            reader.get(sec, k, f"{name}.{k}", _as_finite)
            for k in ("zen_min", "zen_max", "zen_step")
        ]
    if None in az or None in zen:
        return None
    return CodebookSpec(az[0], az[1], az[2], zen[0], zen[1], zen[2])


def _parse_environment(reader: _Reader) -> Environment | None:
    sec = reader.raw.get("environment")
    if sec is None:
        return None
    if not isinstance(sec, dict) or not isinstance(sec.get("rectangles"), list):
        reader.problems.append("environment must be a mapping with a rectangles list")
        return None
    rects = []
    for i, item in enumerate(sec["rectangles"]):
        dotted = f"environment.rectangles[{i}]"
        if not isinstance(item, dict):
            reader.problems.append(f"{dotted} must be a mapping")
            continue
        corner = reader.get(item, "corner", f"{dotted}.corner", _as_vec3)
        edge_u = reader.get(item, "edge_u", f"{dotted}.edge_u", _as_vec3)
        edge_v = reader.get(item, "edge_v", f"{dotted}.edge_v", _as_vec3)
        gamma = reader.get(item, "gamma", f"{dotted}.gamma", _as_finite, default=0.7)
        edges = item.get("diffracting_edges", [])
        if None in (corner, edge_u, edge_v):
            continue
        try:
            rects.append(
                Rectangle(corner, edge_u, edge_v, gamma, tuple(_as_int(e) for e in edges))
            )
        except (TypeError, ValueError) as exc:
            reader.problems.append(f"{dotted}: {exc}")
    return Environment(tuple(rects))


def _parse_trajectory(reader: _Reader, name: str) -> dict | None:
    sec = reader.raw.get(name)
    if sec is None:
        return None
    if not isinstance(sec, dict) or "kind" not in sec:
        reader.problems.append(f"{name} must be a mapping with a kind key")
        return None
    # every trajectory parameter is a 3-vector or a finite number
    return {
        key: value if key == "kind" else reader.get(
            sec, key, f"{name}.{key}", _as_vec3 if isinstance(value, list) else _as_finite
        )
        for key, value in sec.items()
    }


def parse_config(raw: dict, base_dir: str = ".") -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a mapping"])
    reader = _Reader(raw)
    # duration_s is checked below; an infinite training period (train once)
    # or offered load (saturate) is meaningful
    unbounded = {"duration_s", "training_period_s", "offered_bps"}
    top = {
        key: reader.get(raw, key, key, _as_float if key in unbounded else _as_finite)
        for key in (
            "carrier_hz",
            "bandwidth_hz",
            "txpower_dbm",
            "noise_figure_db",
            "training_period_s",
            "offered_bps",
            "overhead",
            "snapshot_dt_s",
            "duration_s",
        )
    }
    subbands = reader.get(raw, "subbands", "subbands", _as_int)

    tx_array = _parse_array(reader, "tx_array")
    rx_array = _parse_array(reader, "rx_array")
    tx_codebook = _parse_codebook(reader, "tx_codebook")
    rx_codebook = _parse_codebook(reader, "rx_codebook")

    trace_path = raw.get("trace_path")
    environment = _parse_environment(reader)
    tx_traj = _parse_trajectory(reader, "tx_trajectory")
    rx_traj = _parse_trajectory(reader, "rx_trajectory")

    if trace_path is not None:
        if tx_traj or rx_traj or environment is not None:
            reader.problems.append(
                "give either trace_path or ray-tracing sections "
                "(tx_trajectory/rx_trajectory/environment), not both"
            )
        trace_path = os.path.join(base_dir, str(trace_path))
    else:
        if tx_traj is None and rx_traj is None:
            reader.problems.append(
                "missing input: set trace_path or describe geometry with "
                "tx_trajectory and rx_trajectory"
            )
        elif tx_traj is None:
            reader.problems.append("missing required section tx_trajectory")
        elif rx_traj is None:
            reader.problems.append("missing required section rx_trajectory")

    for key in ("carrier_hz", "bandwidth_hz", "snapshot_dt_s"):
        if top[key] is not None and not top[key] > 0:
            reader.problems.append(f"{key} must be > 0")
    duration = top["duration_s"]
    if duration is not None and not 0 <= duration < math.inf:
        reader.problems.append("duration_s must be >= 0 and finite")

    amc_path = raw.get("amc_table_path")
    if amc_path is not None:
        amc_path = os.path.join(base_dir, str(amc_path))

    optional = {
        "tx_id": reader.get(raw, "tx_id", "tx_id", _as_int, default=0),
        "rx_id": reader.get(raw, "rx_id", "rx_id", _as_int, default=1),
        "temperature_k": reader.get(raw, "temperature_k", "temperature_k", _as_finite, default=290.0),
        "interference_w": reader.get(raw, "interference_w", "interference_w", _as_finite, default=0.0),
        "base_delay_s": reader.get(raw, "base_delay_s", "base_delay_s", _as_finite, default=0.5e-3),
        "saturation_delay_s": reader.get(
            raw, "saturation_delay_s", "saturation_delay_s", _as_finite, default=7.5e-3
        ),
        "max_reflection_order": reader.get(
            raw, "max_reflection_order", "max_reflection_order", _as_int, default=4
        ),
    }

    if optional["tx_id"] == optional["rx_id"]:
        reader.problems.append("tx_id and rx_id must differ")
    if reader.problems:
        raise ConfigError(reader.problems)

    return ScenarioConfig(
        carrier_hz=top["carrier_hz"],
        bandwidth_hz=top["bandwidth_hz"],
        subbands=subbands,
        txpower_dbm=top["txpower_dbm"],
        noise_figure_db=top["noise_figure_db"],
        tx_array=tx_array,
        rx_array=rx_array,
        tx_codebook=tx_codebook,
        rx_codebook=rx_codebook,
        training_period_s=top["training_period_s"],
        offered_bps=top["offered_bps"],
        overhead=top["overhead"],
        snapshot_dt_s=top["snapshot_dt_s"],
        duration_s=top["duration_s"],
        trace_path=trace_path,
        environment=environment,
        tx_trajectory=tx_traj,
        rx_trajectory=rx_traj,
        amc_table_path=amc_path,
        **optional,
    )


def load_config(path) -> ScenarioConfig:
    """Read a YAML config file; relative paths inside it resolve against it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError([f"config is not valid YAML: {exc}"]) from exc
    return parse_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def n_snapshots(cfg: ScenarioConfig) -> int:
    """Snapshot count of the t = 0, dt, ..., duration grid (ends inclusive)."""
    return int(math.floor(cfg.duration_s / cfg.snapshot_dt_s + 1e-9)) + 1


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def build_arrays(cfg: ScenarioConfig) -> tuple[PlanarArray, PlanarArray]:
    lam = SubbandGrid(cfg.carrier_hz, cfg.bandwidth_hz, cfg.subbands).wavelength_m

    def build(arr: ArraySpec) -> PlanarArray:
        return PlanarArray(arr.rows, arr.cols, lam, arr.spacing, arr.bearing_deg)

    return build(cfg.tx_array), build(cfg.rx_array)


def build_grid(cfg: ScenarioConfig) -> SubbandGrid:
    return SubbandGrid(cfg.carrier_hz, cfg.bandwidth_hz, cfg.subbands)


def build_budget(cfg: ScenarioConfig) -> LinkBudget:
    return LinkBudget(
        tx_power_w=dbm_to_watts(cfg.txpower_dbm),
        bandwidth_hz=cfg.bandwidth_hz,
        noise_figure_db=cfg.noise_figure_db,
        temperature_k=cfg.temperature_k,
        interference_w=cfg.interference_w,
    )


def build_codebooks(
    cfg: ScenarioConfig, tx_array: PlanarArray, rx_array: PlanarArray
) -> tuple[BeamCodebook, BeamCodebook]:
    def build(array: PlanarArray, cb: CodebookSpec) -> BeamCodebook:
        return generate_codebook(
            array, cb.az_min, cb.az_max, cb.az_step,
            cb.zen_min, cb.zen_max, cb.zen_step,
        )

    return build(tx_array, cfg.tx_codebook), build(rx_array, cfg.rx_codebook)


def build_amc(cfg: ScenarioConfig) -> AmcTable:
    if cfg.amc_table_path is None:
        return AmcTable.default()
    return AmcTable.from_file(cfg.amc_table_path)


def build_trajectories(cfg: ScenarioConfig) -> dict[int, Trajectory] | None:
    if cfg.tx_trajectory is None or cfg.rx_trajectory is None:
        return None
    n = n_snapshots(cfg)
    out = {}
    for node_id, section in ((cfg.tx_id, cfg.tx_trajectory), (cfg.rx_id, cfg.rx_trajectory)):
        params = {k: v for k, v in section.items() if k != "kind"}
        out[node_id] = make_trajectory(section["kind"], params, 0.0, cfg.snapshot_dt_s, n)
    return out


def build_rt_scenario(cfg: ScenarioConfig) -> RtScenario:
    trajectories = build_trajectories(cfg)
    if trajectories is None:
        raise ConfigError(
            ["config uses trace_path; ray tracing needs tx_trajectory and rx_trajectory"]
        )
    return RtScenario(
        environment=cfg.environment if cfg.environment is not None else Environment(),
        carrier_hz=cfg.carrier_hz,
        trajectories=trajectories,
        links=((cfg.tx_id, cfg.rx_id),),
        max_reflection_order=cfg.max_reflection_order,
    )


def build_setup(cfg: ScenarioConfig) -> SimulationSetup:
    """The link setup; a geometry config also fixes the snapshot grid, the
    same times build_trajectories samples, so every grid time is a row."""
    tx_array, rx_array = build_arrays(cfg)
    cb_tx, cb_rx = build_codebooks(cfg, tx_array, rx_array)
    times = None
    if cfg.tx_trajectory is not None and cfg.rx_trajectory is not None:
        times = tuple(time_grid(0.0, cfg.snapshot_dt_s, n_snapshots(cfg)).tolist())
    return SimulationSetup(
        tx_array=tx_array,
        rx_array=rx_array,
        grid=build_grid(cfg),
        budget=build_budget(cfg),
        amc=build_amc(cfg),
        tx_codebook=cb_tx,
        rx_codebook=cb_rx,
        training_period_s=cfg.training_period_s,
        offered_bps=cfg.offered_bps,
        overhead=cfg.overhead,
        base_delay_s=cfg.base_delay_s,
        saturation_delay_s=cfg.saturation_delay_s,
        tx_id=cfg.tx_id,
        rx_id=cfg.rx_id,
        times=times,
    )
