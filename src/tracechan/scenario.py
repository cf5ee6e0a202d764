"""Scenario configuration: a YAML file describing one simulated link.

A config either points at an existing trace CSV (trace_path) or describes
geometry to ray-trace (tx_trajectory / rx_trajectory plus an optional
environment of reflecting rectangles). All other keys size the arrays,
codebooks, subband grid, and link budget.

parse_config builds the library objects section by section: the subband
grid, both arrays, the link budget, the environment and each trajectory on
the snapshot grid. Each object's constructor states its rules, and the
ValueError it raises is recorded as its section's problem under the
section's dotted key; a top-level key's problem goes under the key whose
library name starts the message. So a config with three bad sections
reports all three at once, one "<dotted key>: <problem>" line each. A key
that no mapping takes is a problem too, so a misspelt optional key is not
silently replaced by its default. The codebook bounds, the link's training
period, load and overhead, and the reflection order are checked by the
library's own O(1) checks, the ones generate_codebook, SimulationSetup and
RtScenario call; the codebooks and the AMC table are built by build_setup
alone, so tracing a geometry needs neither.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from functools import partial

import numpy as np
import yaml

from .arrays import PlanarArray
from .beams import _check_bounds, generate_codebook
from .channel import SubbandGrid
from .link import AmcTable, LinkBudget, SimulationSetup, _check_link
from .raytrace import Environment, Rectangle, RtScenario, _check_order
from .traces import _broken
from .trajectory import make_trajectory, time_grid

__all__ = [
    "ConfigError",
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
class ScenarioConfig:
    """A parsed config: the objects its sections build, and the values that
    build_setup and build_rt_scenario take as they are. Everything in it
    compares by value.
    """

    grid: SubbandGrid
    tx_array: PlanarArray
    rx_array: PlanarArray
    # generate_codebook's bounds after the array: azimuth then zenith min, max, step
    tx_codebook: tuple[float, ...]
    rx_codebook: tuple[float, ...]
    budget: LinkBudget
    training_period_s: float
    offered_bps: float
    overhead: float
    snapshot_dt_s: float
    times: tuple[float, ...]  # the t = 0, dt, ..., duration snapshot grid
    trace_path: str | None = None
    environment: Environment | None = None
    # each node's x, y, z at each grid time in turn, for a geometry config
    tx_positions: tuple[float, ...] | None = None
    rx_positions: tuple[float, ...] | None = None
    tx_id: int = SimulationSetup.tx_id
    rx_id: int = SimulationSetup.rx_id
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
        except OverflowError:  # an int too large for a float: inf, as float() reads its text
            return math.inf if value > 0 else -math.inf
        except ValueError:
            pass
    raise ValueError(f"expected a number, got {_yaml_text(value)}")


def _as_count(value):
    """A number for an integer field: an int when integral; the field's rule rejects any other."""
    f = _as_float(value)
    return int(f) if f.is_integer() else f


def _as_finite(value):
    f = _as_float(value)
    if not math.isfinite(f):
        raise ValueError(f"{value!r} is not a finite number")
    return f


def _as_watts(dbm):
    """A power in dBm, as the watts LinkBudget takes."""
    try:
        return 10.0 ** ((_as_finite(dbm) - 30.0) / 10.0)
    except OverflowError:
        raise ValueError(f"{dbm!r} overflows as a linear ratio") from None


def _as_node_id(value):
    node = value if isinstance(value, int) else _as_count(value)  # exact: a float would round
    problem = _broken(node, "node id", int, None)  # the trace's id rule
    if problem:
        raise ValueError(problem)
    return node


def _as_vec3(value, cast=_as_float):
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ValueError(f"{value!r} is not a 3-element list")
    return [cast(v) for v in value]


def _as_mapping(value):
    if not isinstance(value, dict):
        raise ValueError(f"expected a mapping, got {_yaml_text(value)}")
    return value


def _as_edges(value):
    if not isinstance(value, list):
        raise ValueError(f"expected a list, got {_yaml_text(value)}")
    return tuple(map(_as_count, value))


def _checked(check):
    """A maker for _Reader.build that returns its arguments once check passes them."""
    return lambda *args: check(*args) or args


_REQUIRED = object()


class _Reader:
    """Reads typed values out of a nested dict and builds objects from them,
    recording each key's first problem under its dotted key."""

    def __init__(self, raw: dict):
        self.raw = raw
        self.problems: dict[str, str] = {}

    def problem(self, key: str, text: str) -> None:
        self.problems.setdefault(key, text)

    def get(self, mapping: dict | None, key: str, dotted: str, cast, default=_REQUIRED):
        required = default is _REQUIRED
        if mapping is None:
            return None if required else default
        if key not in mapping:
            if required:
                self.problem(dotted, "missing required key")
                return None
            return default
        try:
            return cast(mapping[key])
        except (TypeError, ValueError) as exc:
            self.problem(dotted, str(exc))
            return None

    def read(self, mapping: dict | None, prefix: str, table: dict) -> dict:
        """The values of table's keys in mapping, named prefix + key in problems.

        table maps a key to its cast, and an optional key to its default too:
        (cast,) or (cast, default). A bad key, or a missing required one,
        reads None.
        """
        return {key: self.get(mapping, key, prefix + key, *spec) for key, spec in table.items()}

    def reject_unknown(self, mapping: dict | None, keys, prefix: str = "") -> None:
        """Record every key of mapping that is not one of keys."""
        if isinstance(mapping, dict):
            for k in mapping:
                if k not in keys:
                    self.problem(f"{prefix}{k}", "unknown key")

    def build(self, key: str, make, *args, names: dict | None = None):
        """make(*args), or None: if an argument is None (its problem is already
        recorded), or if make raises ValueError, recorded under key. names maps
        make's parameter names to top-level keys; a message that starts with
        one is recorded under that key instead, without the name.
        """
        if any(arg is None for arg in args):
            return None
        try:
            return make(*args)
        except ValueError as exc:
            name, _, rest = str(exc).partition(" ")
            if names and name in names:
                self.problem(names[name], rest)
            else:
                self.problem(key, str(exc))
            return None


_ARRAY = {"rows": (_as_count,), "cols": (_as_count,), "spacing": (_as_float,),
          "bearing_deg": (_as_float,)}
# the array section's key of each PlanarArray field that starts a message
_ARRAY_KEY_OF = {"n_rows": "rows", "n_cols": "cols", "spacing": "spacing",
                 "bearing_deg": "bearing_deg"}


def _parse_array(reader: _Reader, name: str, wavelength_m: float) -> PlanarArray | None:
    sec = reader.get(reader.raw, name, name, _as_mapping)
    reader.reject_unknown(sec, _ARRAY, f"{name}.")
    a = reader.read(sec, f"{name}.", _ARRAY)
    return reader.build(name, PlanarArray, a["rows"], a["cols"], wavelength_m, a["spacing"],
                        a["bearing_deg"],
                        names={field: f"{name}.{key}" for field, key in _ARRAY_KEY_OF.items()})


# a codebook's azimuth bounds, and its zenith or its elevation bounds
_AXES = {axis: {f"{axis}_{s}": (_as_float,) for s in ("min", "max", "step")}
         for axis in ("az", "zen", "el")}


def _parse_codebook(reader: _Reader, name: str) -> tuple[float, ...] | None:
    sec = reader.get(reader.raw, name, name, _as_mapping)
    reader.reject_unknown(sec, [k for table in _AXES.values() for k in table], f"{name}.")
    az = reader.read(sec, f"{name}.", _AXES["az"])
    if sec is None:
        return None
    given = [axis for axis in ("zen", "el") if not _AXES[axis].keys().isdisjoint(sec)]
    if len(given) == 2:
        reader.problem(name, "give zen_* or el_* keys, not both")
        return None
    axis = given[0] if given else "zen"
    lo, hi, step = reader.read(sec, f"{name}.", _AXES[axis]).values()
    if axis == "el" and None not in (lo, hi):
        # elevation is 90 deg minus zenith, so the bounds swap roles
        lo, hi = 90.0 - hi, 90.0 - lo
    return reader.build(name, _checked(_check_bounds), *az.values(), lo, hi, step)


_RECTANGLE = {"corner": (_as_vec3,), "edge_u": (_as_vec3,), "edge_v": (_as_vec3,),
              "gamma": (_as_float, Rectangle.gamma), "diffracting_edges": (_as_edges, ())}


def _parse_environment(reader: _Reader) -> Environment | None:
    sec = reader.raw.get("environment")
    if sec is None:
        return None
    if not isinstance(sec, dict) or not isinstance(sec.get("rectangles"), list):
        reader.problem("environment", "must be a mapping with a rectangles list")
        return None
    reader.reject_unknown(sec, ("rectangles",), "environment.")
    rects = []
    for i, item in enumerate(sec["rectangles"]):
        dotted = f"environment.rectangles[{i}]"
        if not isinstance(item, dict):
            reader.problem(dotted, "must be a mapping")
            continue
        reader.reject_unknown(item, _RECTANGLE, f"{dotted}.")
        rects.append(reader.build(dotted, Rectangle,
                                  *reader.read(item, f"{dotted}.", _RECTANGLE).values()))
    return Environment(tuple(rects))


def _parse_trajectory(reader: _Reader, name: str, times: np.ndarray):
    """The node's x, y, z at each of times in turn, as one flat tuple."""
    sec = reader.raw.get(name)
    if sec is None:
        return None
    if not isinstance(sec, dict) or "kind" not in sec:
        reader.problem(name, "must be a mapping with a kind key")
        return None
    # every trajectory parameter is a finite 3-vector or a finite number
    params = {
        key: reader.get(sec, key, f"{name}.{key}",
                        partial(_as_vec3, cast=_as_finite) if isinstance(value, list)
                        else _as_finite)
        for key, value in sec.items() if key != "kind"
    }
    if None in params.values():
        return None
    positions = reader.build(name, make_trajectory, sec["kind"], params, times)
    return None if positions is None else tuple(positions.ravel().tolist())


def _snapshot_times(dt: float, duration: float) -> np.ndarray:
    """The t = 0, dt, ..., duration snapshot grid (ends inclusive)."""
    if not dt > 0:
        raise ValueError(f"snapshot_dt_s must be > 0, got {dt!r}")
    if not 0 <= duration < math.inf:
        raise ValueError(f"duration_s must be >= 0 and finite, got {duration!r}")
    n = duration / dt + 1e-9
    if not n < 2**63:
        raise ValueError(f"snapshot_dt_s {dt!r} gives more than 2**63 snapshots")
    return time_grid(0.0, dt, int(n) + 1)


# the scalar top-level keys; an infinite training period (train once) or
# offered load (saturate) is meaningful
_SCALARS = {
    "carrier_hz": (_as_float,),
    "bandwidth_hz": (_as_float,),
    "subbands": (_as_count,),
    "txpower_dbm": (_as_watts,),
    "noise_figure_db": (_as_float,),
    "training_period_s": (_as_float,),
    "offered_bps": (_as_float,),
    "overhead": (_as_float,),
    "snapshot_dt_s": (_as_finite,),
    "duration_s": (_as_float,),
    "tx_id": (_as_node_id, SimulationSetup.tx_id),
    "rx_id": (_as_node_id, SimulationSetup.rx_id),
    "temperature_k": (_as_float, LinkBudget.temperature_k),
    "interference_w": (_as_float, LinkBudget.interference_w),
    "base_delay_s": (_as_finite, SimulationSetup.base_delay_s),
    "saturation_delay_s": (_as_finite, SimulationSetup.saturation_delay_s),
    "max_reflection_order": (_as_count, RtScenario.max_reflection_order),
}
_GEOMETRY = ("tx_trajectory", "rx_trajectory", "environment")
_PATHS = ("trace_path", "amc_table_path")
_TOP_KEYS = (*_SCALARS, "tx_array", "rx_array", "tx_codebook", "rx_codebook", *_GEOMETRY,
             *_PATHS)
# the top-level key of each library parameter name that starts a message
_KEY_OF = {**{key: key for key in _SCALARS}, "n_subbands": "subbands",
           "tx_power_w": "txpower_dbm"}


def parse_config(raw: dict, base_dir: str = ".") -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a mapping"])
    reader = _Reader(raw)
    reader.reject_unknown(raw, _TOP_KEYS)
    v = reader.read(raw, "", _SCALARS)
    build = partial(reader.build, names=_KEY_OF)
    grid = build("carrier_hz", SubbandGrid, v["carrier_hz"], v["bandwidth_hz"], v["subbands"])
    budget = build("txpower_dbm", LinkBudget, v["txpower_dbm"], v["bandwidth_hz"],
                   v["noise_figure_db"], v["temperature_k"], v["interference_w"])
    build("training_period_s", _checked(_check_link), v["training_period_s"], v["offered_bps"],
          v["overhead"])
    build("max_reflection_order", _checked(_check_order), v["max_reflection_order"])
    times = build("snapshot_dt_s", _snapshot_times, v["snapshot_dt_s"], v["duration_s"])
    if v["tx_id"] is not None and v["tx_id"] == v["rx_id"]:
        reader.problem("rx_id", f"must differ from tx_id {v['tx_id']!r}")
    # a section that needs a failed one is checked against a stand-in for it:
    # any wavelength or grid checks an array's or a trajectory's own keys
    wavelength_m = grid.wavelength_m if grid else 1.0
    tx_array, rx_array = (_parse_array(reader, name, wavelength_m)
                          for name in ("tx_array", "rx_array"))
    tx_codebook, rx_codebook = (_parse_codebook(reader, name)
                                for name in ("tx_codebook", "rx_codebook"))
    environment = _parse_environment(reader)
    tx_positions, rx_positions = (
        _parse_trajectory(reader, name, np.zeros(1) if times is None else times)
        for name in ("tx_trajectory", "rx_trajectory"))

    # a null path counts as absent; a given one resolves against base_dir
    paths = {key: os.path.join(base_dir, str(raw[key])) for key in _PATHS
             if raw.get(key) is not None}
    if "trace_path" in paths:
        if any(raw.get(key) is not None for key in _GEOMETRY):
            reader.problem("trace_path", "give either trace_path or ray-tracing sections "
                                         "(tx_trajectory/rx_trajectory/environment), not both")
    else:
        for name in _GEOMETRY[:2]:
            if raw.get(name) is None:
                reader.problem(name, "missing required section, or set trace_path")
    if reader.problems:
        raise ConfigError([f"{key}: {text}" for key, text in reader.problems.items()])
    return ScenarioConfig(
        grid=grid, tx_array=tx_array, rx_array=rx_array, tx_codebook=tx_codebook,
        rx_codebook=rx_codebook, budget=budget, times=tuple(times.tolist()),
        environment=environment, tx_positions=tx_positions, rx_positions=rx_positions,
        **paths, **{key: v[key] for key in (
            "training_period_s", "offered_bps", "overhead", "snapshot_dt_s", "tx_id", "rx_id",
            "base_delay_s", "saturation_delay_s", "max_reflection_order")},
    )


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


def build_rt_scenario(cfg: ScenarioConfig) -> RtScenario:
    """The ray-tracing scenario: both nodes placed on the snapshot grid."""
    if cfg.tx_positions is None:
        raise ConfigError(["trace_path: the config replays a trace; ray tracing needs "
                           "tx_trajectory and rx_trajectory"])
    return RtScenario(
        environment=cfg.environment if cfg.environment is not None else Environment(),
        carrier_hz=cfg.grid.carrier_hz,
        times=np.array(cfg.times),
        positions={node: np.array(flat).reshape(-1, 3) for node, flat in (
            (cfg.tx_id, cfg.tx_positions), (cfg.rx_id, cfg.rx_positions))},
        links=((cfg.tx_id, cfg.rx_id),),
        max_reflection_order=cfg.max_reflection_order,
    )


def build_setup(cfg: ScenarioConfig) -> SimulationSetup:
    """The link setup: the config's arrays, grid, budget and snapshot grid,
    the times build_rt_scenario traces, so every grid time is a row whatever
    the trace source; and the AMC table and codebooks, read and built here.
    """
    # the AMC file is read first: a missing one is reported before any large codebook is built
    path = cfg.amc_table_path
    amc = AmcTable.default() if path is None else AmcTable.from_file(path)
    return SimulationSetup(
        tx_array=cfg.tx_array,
        rx_array=cfg.rx_array,
        grid=cfg.grid,
        budget=cfg.budget,
        amc=amc,
        tx_codebook=generate_codebook(cfg.tx_array, *cfg.tx_codebook),
        rx_codebook=generate_codebook(cfg.rx_array, *cfg.rx_codebook),
        training_period_s=cfg.training_period_s,
        offered_bps=cfg.offered_bps,
        overhead=cfg.overhead,
        times=cfg.times,
        base_delay_s=cfg.base_delay_s,
        saturation_delay_s=cfg.saturation_delay_s,
        tx_id=cfg.tx_id,
        rx_id=cfg.rx_id,
    )
