"""Command line front end.

Subcommands:
  generate-trace  ray-trace a geometry config into a trace CSV
  validate        check a trace CSV for format and consistency findings
  simulate        run the link simulation and write per-snapshot metrics
  sweep           exhaustive beam sweep at one snapshot, written as a table

Exit codes: 0 success, 1 validation findings, 2 usage or config error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys

from .beams import select_best_pair, sweep_power_table
from .channel import build_channel_matrices
from .link import (GRID_TOL_S, SINR_FLOOR_DB, _nearest_slots, metrics_to_csv, run_simulation,
                   snapshot_rows)
from .raytrace import generate_trace
from .scenario import ConfigError, ScenarioConfig, build_rt_scenario, build_setup, load_config
from .traces import TraceFormatError, TraceSet, parse_trace, validate_trace, write_trace

POWER_FLOOR_DBM = -200.0


def _watts_to_dbm(p_w: float) -> float:
    if p_w <= 0:
        return POWER_FLOOR_DBM
    return max(10.0 * math.log10(p_w * 1000.0), POWER_FLOOR_DBM)


def _load_trace(cfg: ScenarioConfig, override: str | None) -> TraceSet:
    path = override if override is not None else cfg.trace_path
    if path is not None:
        return parse_trace(path)
    return generate_trace(build_rt_scenario(cfg))


def _cmd_generate_trace(args) -> int:
    cfg = load_config(args.config)
    trace = generate_trace(build_rt_scenario(cfg))
    write_trace(trace, args.out)
    snapshots = len(set(trace.columns["t"].tolist()))
    print(f"wrote {args.out}: {snapshots} snapshots, {len(trace)} path records")
    return 0


def _cmd_validate(args) -> int:
    trace = parse_trace(args.trace)
    report = validate_trace(trace)
    if report.ok:
        print(f"ok: {len(trace)} records, no findings")
        return 0
    for v in report.violations:
        print(v)
    print(f"{len(report.violations)} findings")
    return 1


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    trace = _load_trace(cfg, args.trace)
    setup = build_setup(cfg)
    metrics = run_simulation(trace, setup)
    text = metrics_to_csv(metrics)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    n = len(metrics)
    mean_sinr = sum(metrics.sinr_db) / n
    mean_thr = sum(metrics.delivered_bps) / n
    los_frac = sum(metrics.los) / n
    outages = sum(s <= SINR_FLOOR_DB for s in metrics.sinr_db)
    print(f"wrote {args.out}: {n} snapshots")
    print(f"outage snapshots: {outages} (SINR at the {SINR_FLOOR_DB:g} dB floor, "
          "counted in the means)")
    print(f"mean SINR: {mean_sinr:.2f} dB")
    print(f"mean delivered: {mean_thr / 1e6:.3f} Mb/s")
    print(f"LoS fraction: {los_frac:.3f}")
    return 0


def _pick_row(times: list[float], requested: float | None, dt: float) -> int:
    if requested is None:
        return 0
    best = int(_nearest_slots(times, [requested])[0])  # a tie takes the lower index
    # snap to the nearest grid time, but only within half a snapshot interval;
    # the negated test also rejects a NaN time, which no comparison holds for
    if not abs(times[best] - requested) <= dt / 2 + GRID_TOL_S:
        raise ConfigError([f"--time {requested} is not within {dt / 2} s of any snapshot "
                           f"(grid spans {times[0]} to {times[-1]})"])
    return best


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    trace = _load_trace(cfg, args.trace)
    setup = build_setup(cfg)
    times, offsets = snapshot_rows(trace, setup)
    pick = _pick_row(times, args.time, cfg.snapshot_dt_s)
    t, paths = times[pick], trace.link(setup.tx_id, setup.rx_id)[offsets[pick]:offsets[pick + 1]]
    cb_tx, cb_rx = setup.tx_codebook, setup.rx_codebook
    channel = build_channel_matrices(
        paths, setup.tx_array, setup.rx_array, grid=setup.grid, t=t
    )
    table = sweep_power_table(channel, cb_tx, cb_rx, setup.budget.tx_power_w)
    best = select_best_pair(table, cb_tx, cb_rx)
    # each beam's angles are spelt once; a cell joins its pair's with its power
    tx, rx = ([f"{a!r},{z!r}" for a, z in zip(cb.azimuth_deg.tolist(), cb.zenith_deg.tolist())]
              for cb in (cb_tx, cb_rx))
    dbm = list(map(repr, map(_watts_to_dbm, table.ravel().tolist())))
    rows = [f"{a},{b},{p}" for (a, b), p in zip(itertools.product(tx, rx), dbm)]
    rows.append(rows[best.tx_index * len(rx) + best.rx_index])  # winner repeated last
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("tx_az,tx_zen,rx_az,rx_zen,power_dbm\n" + "\n".join(rows) + "\n")

    d_tx, d_rx = best.tx_direction, best.rx_direction
    print(
        f"best at t={t}: tx=({d_tx.azimuth_deg:g}, {d_tx.zenith_deg:g}) deg, "
        f"rx=({d_rx.azimuth_deg:g}, {d_rx.zenith_deg:g}) deg, "
        f"power={_watts_to_dbm(best.power_w):.3f} dBm"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracechan",
        description="Trace-driven site-specific wireless link simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-trace", help="ray-trace a geometry config to a trace CSV")
    p.add_argument("--config", required=True, help="scenario config file (YAML)")
    p.add_argument("--out", required=True, help="output trace CSV path")

    p = sub.add_parser("validate", help="check a trace CSV for findings")
    p.add_argument("--trace", required=True, help="trace CSV path")

    p = sub.add_parser("simulate", help="run the link simulation over a trace")
    p.add_argument("--config", required=True, help="scenario config file (YAML)")
    p.add_argument("--out", required=True, help="output metrics CSV path")
    p.add_argument("--trace", help="trace CSV (overrides the config's source)")
    p.add_argument("--workers", type=int, choices=[1], default=1,
                   help="accepts only 1; kept so existing command lines still work")

    p = sub.add_parser("sweep", help="exhaustive beam sweep at one snapshot")
    p.add_argument("--config", required=True, help="scenario config file (YAML)")
    p.add_argument("--out", required=True, help="output sweep table CSV path")
    p.add_argument("--trace", help="trace CSV (overrides the config's source)")
    p.add_argument("--time", type=float, help="snapshot time (default: first)")

    return parser


# built once: each parse_args call fills a new namespace
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # the command's function is looked up when called, so a wrapper
        # installed under its name after import is the one that runs
        return globals()[f"_cmd_{args.command.replace('-', '_')}"](args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except TraceFormatError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy refuses an array too large for the config's sizes
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
