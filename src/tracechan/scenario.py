"""Scenario configuration: a YAML file describing one simulated link.

A config either points at an existing trace CSV (trace_path) or describes
geometry to ray-trace (tx_trajectory / rx_trajectory plus an optional
environment of reflecting rectangles). All other keys size the arrays,
codebooks, subband grid, and link budget. Parsing collects every problem it
can find before raising, so a config with three missing keys reports all
three at once. A key that no mapping takes is a problem too, so a misspelt
optional key is not silently replaced by its default.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import MISSING, dataclass, fields

import numpy as np
import yaml

from .arrays import PlanarArray
from .beams import generate_codebook
from .channel import SubbandGrid
from .link import AmcTable, LinkBudget, SimulationSetup, noise_power
from .raytrace import Environment, Rectangle, RtScenario
from .traces import _ID_LIMIT
from .trajectory import make_trajectory, time_grid

__all__ = [
    "ConfigError",
    "ArraySpec",
    "CodebookSpec",
    "ScenarioConfig",
    "load_config",
    "parse_config",
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
    tx_id: int = SimulationSetup.tx_id
    rx_id: int = SimulationSetup.rx_id
    temperature_k: float = LinkBudget.temperature_k
    interference_w: float = LinkBudget.interference_w
    base_delay_s: float = SimulationSetup.base_delay_s
    saturation_delay_s: float = SimulationSetup.saturation_delay_s
    amc_table_path: str | None = None
    max_reflection_order: int = RtScenario.max_reflection_order


def _yaml_text(value) -> str:
    """A config value as the config spells it, on one line, for messages."""
    if isinstance(value, dict):
        return "a mapping"
    if isinstance(value, list):
        return "a list"
    text = yaml.safe_dump(value, default_flow_style=True, width=math.inf)
    text = text.removesuffix("\n...\n").strip()
    if "\n" in text:  # a string with line breaks: double-quoted, breaks escaped
        text = yaml.safe_dump(value, default_style='"', width=math.inf).strip()
    return text


def _as_float(value):
    # YAML 1.1 reads bare "1e9" as a string; accept numeric strings too
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except ValueError:
            pass
    raise ValueError(f"expected a number, got {_yaml_text(value)}")


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


def _as_node_id(value):
    # traces hold node ids as int64 and accept none below 0
    i = _as_int(value)
    if not 0 <= i < _ID_LIMIT:
        raise ValueError(f"{value!r} is not in [0, 2**63)")
    return i


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

    def read(self, mapping: dict | None, prefix: str, table: dict) -> dict:
        """The values of table's keys in mapping, named prefix + key in problems.

        table maps a key to its cast, and an optional key to its default too:
        (cast,) or (cast, default). A required key that is missing or bad
        reads None.
        """
        return {key: self.get(mapping, key, prefix + key, *spec) for key, spec in table.items()}

    def reject_unknown(self, mapping: dict | None, keys, prefix: str = "") -> None:
        """Record every key of mapping that is not one of keys."""
        if isinstance(mapping, dict):
            self.problems.extend(f"unknown key {prefix}{k}" for k in mapping if k not in keys)


_ARRAY = {"rows": (_as_int,), "cols": (_as_int,), "spacing": (_as_finite,),
          "bearing_deg": (_as_finite,)}


def _parse_array(reader: _Reader, name: str) -> ArraySpec | None:
    sec = reader.section(name)
    reader.reject_unknown(sec, _ARRAY, f"{name}.")
    values = reader.read(sec, f"{name}.", _ARRAY)
    return None if None in values.values() else ArraySpec(**values)


# a codebook's azimuth bounds, and its zenith or its elevation bounds
_AXES = {axis: {f"{axis}_{s}": (_as_finite,) for s in ("min", "max", "step")}
         for axis in ("az", "zen", "el")}


def _parse_codebook(reader: _Reader, name: str) -> CodebookSpec | None:
    sec = reader.section(name)
    reader.reject_unknown(sec, [k for table in _AXES.values() for k in table], f"{name}.")
    az = reader.read(sec, f"{name}.", _AXES["az"])
    if sec is None:
        return None
    given = [axis for axis in ("zen", "el") if not _AXES[axis].keys().isdisjoint(sec)]
    if len(given) == 2:
        reader.problems.append(f"{name}: give zen_* or el_* keys, not both")
        return None
    axis = given[0] if given else "zen"
    zen = reader.read(sec, f"{name}.", _AXES[axis])
    if None in (*az.values(), *zen.values()):
        return None
    lo, hi, step = zen.values()
    if axis == "el":  # elevation is 90 deg minus zenith, so the bounds swap roles
        lo, hi = 90.0 - hi, 90.0 - lo
    return CodebookSpec(*az.values(), lo, hi, step)


_RECTANGLE = {"corner": (_as_vec3,), "edge_u": (_as_vec3,), "edge_v": (_as_vec3,),
              "gamma": (_as_finite, Rectangle.gamma)}


def _parse_environment(reader: _Reader) -> Environment | None:
    sec = reader.raw.get("environment")
    if sec is None:
        return None
    if not isinstance(sec, dict) or not isinstance(sec.get("rectangles"), list):
        reader.problems.append("environment must be a mapping with a rectangles list")
        return None
    reader.reject_unknown(sec, ("rectangles",), "environment.")
    rects = []
    for i, item in enumerate(sec["rectangles"]):
        dotted = f"environment.rectangles[{i}]"
        if not isinstance(item, dict):
            reader.problems.append(f"{dotted} must be a mapping")
            continue
        reader.reject_unknown(item, (*_RECTANGLE, "diffracting_edges"), f"{dotted}.")
        values = reader.read(item, f"{dotted}.", _RECTANGLE)
        edges = item.get("diffracting_edges", [])
        if None in values.values():
            continue
        try:
            if not isinstance(edges, list):
                raise ValueError(f"diffracting_edges must be a list, got {_yaml_text(edges)}")
            rects.append(Rectangle(**values, diffracting_edges=tuple(map(_as_int, edges))))
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


# the top-level keys are exactly the ScenarioConfig field names
_TOP_KEYS = tuple(f.name for f in fields(ScenarioConfig))
_DEFAULTS = {f.name: f.default for f in fields(ScenarioConfig) if f.default is not MISSING}

# the scalar top-level keys; an infinite training period (train once) or
# offered load (saturate) is meaningful, and duration_s is checked below
_SCALARS = {key: (cast, _DEFAULTS.get(key, _REQUIRED)) for key, cast in {
    "carrier_hz": _as_finite,
    "bandwidth_hz": _as_finite,
    "subbands": _as_int,
    "txpower_dbm": _as_finite,
    "noise_figure_db": _as_finite,
    "training_period_s": _as_float,
    "offered_bps": _as_float,
    "overhead": _as_finite,
    "snapshot_dt_s": _as_finite,
    "duration_s": _as_float,
    "tx_id": _as_node_id,
    "rx_id": _as_node_id,
    "temperature_k": _as_finite,
    "interference_w": _as_finite,
    "base_delay_s": _as_finite,
    "saturation_delay_s": _as_finite,
    "max_reflection_order": _as_int,
}.items()}


def parse_config(raw: dict, base_dir: str = ".") -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a mapping"])
    reader = _Reader(raw)
    reader.reject_unknown(raw, _TOP_KEYS)
    values = reader.read(raw, "", _SCALARS)
    values.update(
        tx_array=_parse_array(reader, "tx_array"),
        rx_array=_parse_array(reader, "rx_array"),
        tx_codebook=_parse_codebook(reader, "tx_codebook"),
        rx_codebook=_parse_codebook(reader, "rx_codebook"),
        environment=_parse_environment(reader),
        tx_trajectory=_parse_trajectory(reader, "tx_trajectory"),
        rx_trajectory=_parse_trajectory(reader, "rx_trajectory"),
    )
    # a null path counts as absent; a given one resolves against base_dir
    for key in ("trace_path", "amc_table_path"):
        if raw.get(key) is not None:
            values[key] = os.path.join(base_dir, str(raw[key]))

    tx_traj, rx_traj = values["tx_trajectory"], values["rx_trajectory"]
    if "trace_path" in values:
        if tx_traj or rx_traj or values["environment"] is not None:
            reader.problems.append(
                "give either trace_path or ray-tracing sections "
                "(tx_trajectory/rx_trajectory/environment), not both"
            )
    elif tx_traj is None and rx_traj is None:
        reader.problems.append(
            "missing input: set trace_path or describe geometry with "
            "tx_trajectory and rx_trajectory"
        )
    elif tx_traj is None:
        reader.problems.append("missing required section tx_trajectory")
    elif rx_traj is None:
        reader.problems.append("missing required section rx_trajectory")

    for key in ("carrier_hz", "bandwidth_hz", "snapshot_dt_s"):
        if values[key] is not None and not values[key] > 0:
            reader.problems.append(f"{key} must be > 0")
    if values["max_reflection_order"] < 0:
        reader.problems.append("max_reflection_order must be >= 0")
    # build_setup and noise_power take the dB values to linear ratios
    for key, offset in (("txpower_dbm", 30.0), ("noise_figure_db", 0.0)):
        if values[key] is not None:
            try:
                10.0 ** ((values[key] - offset) / 10.0)
            except OverflowError:
                reader.problems.append(f"{key}: {values[key]!r} overflows as a linear ratio")
    # compute_sinr divides by the noise plus interference power
    noise = [values[k] for k in ("bandwidth_hz", "noise_figure_db", "temperature_k",
                                 "interference_w")]
    try:
        if None not in noise and noise_power(LinkBudget(0.0, *noise)) + noise[3] == 0.0:
            reader.problems.append(f"noise_figure_db {noise[1]!r} and temperature_k "
                                   f"{noise[2]!r} make the noise plus interference power 0 W")
    except (ValueError, OverflowError):
        pass  # a value reported above, or by build_setup's LinkBudget
    duration = values["duration_s"]
    if duration is not None and not 0 <= duration < math.inf:
        reader.problems.append("duration_s must be >= 0 and finite")

    if values["tx_id"] == values["rx_id"]:
        reader.problems.append("tx_id and rx_id must differ")
    if reader.problems:
        raise ConfigError(reader.problems)
    return ScenarioConfig(**values)


class _DuplicateKeys:
    """Loader mixin that records the keys repeated within any one mapping.

    yaml.safe_load keeps the last of two equal keys, so a repeated key would
    silently drop the first value.
    """

    def __init__(self, stream):
        super().__init__(stream)
        self.repeated: dict = {}  # insertion-ordered set

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=True)
            try:
                if key in seen:
                    self.repeated[key] = None
                seen.add(key)
            except TypeError:
                pass  # unhashable: SafeLoader rejects the key itself
        return super().construct_mapping(node, deep=deep)


class _ConfigLoader(_DuplicateKeys, yaml.SafeLoader):
    """The pure-Python loader, whose error messages load_config reports."""


# the characters of text that libyaml is not given: all but printable ASCII lines
_NOT_PLAIN = re.compile(r"[^\n\x20-\x7e]")

if yaml.__with_libyaml__:
    class _FastConfigLoader(_DuplicateKeys, yaml.CSafeLoader):
        """The same loader on libyaml's parser, several times faster."""
else:
    _FastConfigLoader = _ConfigLoader


def _yaml_problem(exc: yaml.YAMLError) -> str:
    """One line for a YAML error: PyYAML's problem and its 1-based position."""
    problem, mark = getattr(exc, "problem", None), getattr(exc, "problem_mark", None)
    if not problem:  # a reader error: its first line names the character
        return str(exc).partition("\n")[0]
    where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark is not None else ""
    return problem.partition("\n")[0] + where


def _load_yaml(loader_class, stream):
    loader = loader_class(stream)
    try:
        return loader.get_single_data(), loader
    finally:
        loader.dispose()


def load_config(path) -> ScenarioConfig:
    """Read a YAML config file; relative paths inside it resolve against it.

    libyaml parses it when PyYAML has it and the text is printable ASCII
    lines. libyaml words its messages differently, and it reads tabs and
    byte-order marks differently from PyYAML. So the pure-Python loader
    parses any other text and any text that libyaml rejects, and gives the
    result or the message.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
        loaded = None
        if not _NOT_PLAIN.search(text):
            try:
                loaded = _load_yaml(_FastConfigLoader, text)
            except yaml.YAMLError:
                pass
        if loaded is None:
            fh.seek(0)
            try:
                loaded = _load_yaml(_ConfigLoader, fh)
            except yaml.YAMLError as exc:
                raise ConfigError([f"config is not valid YAML: {_yaml_problem(exc)}"]) from exc
    raw, loader = loaded
    if loader.repeated:
        raise ConfigError([f"duplicate key(s): {', '.join(map(str, loader.repeated))}"])
    return parse_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def _snapshot_times(cfg: ScenarioConfig) -> np.ndarray:
    """The t = 0, dt, ..., duration snapshot grid (ends inclusive)."""
    n = int(math.floor(cfg.duration_s / cfg.snapshot_dt_s + 1e-9)) + 1
    return time_grid(0.0, cfg.snapshot_dt_s, n)


def build_rt_scenario(cfg: ScenarioConfig) -> RtScenario:
    """The ray-tracing scenario: both nodes placed on the snapshot grid."""
    if cfg.tx_trajectory is None or cfg.rx_trajectory is None:
        raise ConfigError(
            ["config uses trace_path; ray tracing needs tx_trajectory and rx_trajectory"]
        )
    times = _snapshot_times(cfg)
    positions = {
        node: make_trajectory(sec["kind"], {k: v for k, v in sec.items() if k != "kind"}, times)
        for node, sec in ((cfg.tx_id, cfg.tx_trajectory), (cfg.rx_id, cfg.rx_trajectory))
    }
    return RtScenario(
        environment=cfg.environment if cfg.environment is not None else Environment(),
        carrier_hz=cfg.carrier_hz,
        times=times,
        positions=positions,
        links=((cfg.tx_id, cfg.rx_id),),
        max_reflection_order=cfg.max_reflection_order,
    )


def build_setup(cfg: ScenarioConfig) -> SimulationSetup:
    """The link setup: arrays, codebooks, subband grid, budget, AMC table
    and the snapshot grid, the times build_rt_scenario traces, so every grid
    time is a row whatever the trace source.
    """
    grid = SubbandGrid(cfg.carrier_hz, cfg.bandwidth_hz, cfg.subbands)
    tx_array, rx_array = (
        PlanarArray(a.rows, a.cols, grid.wavelength_m, a.spacing, a.bearing_deg)
        for a in (cfg.tx_array, cfg.rx_array)
    )
    cb_tx, cb_rx = (
        generate_codebook(array, cb.az_min, cb.az_max, cb.az_step,
                          cb.zen_min, cb.zen_max, cb.zen_step)
        for array, cb in ((tx_array, cfg.tx_codebook), (rx_array, cfg.rx_codebook))
    )
    return SimulationSetup(
        tx_array=tx_array,
        rx_array=rx_array,
        grid=grid,
        budget=LinkBudget(
            tx_power_w=10.0 ** ((cfg.txpower_dbm - 30.0) / 10.0),
            bandwidth_hz=cfg.bandwidth_hz,
            noise_figure_db=cfg.noise_figure_db,
            temperature_k=cfg.temperature_k,
            interference_w=cfg.interference_w,
        ),
        amc=(
            AmcTable.default() if cfg.amc_table_path is None
            else AmcTable.from_file(cfg.amc_table_path)
        ),
        tx_codebook=cb_tx,
        rx_codebook=cb_rx,
        training_period_s=cfg.training_period_s,
        offered_bps=cfg.offered_bps,
        overhead=cfg.overhead,
        times=tuple(_snapshot_times(cfg).tolist()),
        base_delay_s=cfg.base_delay_s,
        saturation_delay_s=cfg.saturation_delay_s,
        tx_id=cfg.tx_id,
        rx_id=cfg.rx_id,
    )
