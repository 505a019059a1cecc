"""Command-line surface: validate inputs, run simulations, compare runs.

Exit codes: 0 success, 1 validation failure, 2 runtime failure, 3 comparison
mismatch. A matrix sweep writes one directory per cell and resumes an
interrupted sweep by skipping cells whose stored config hash already matches.
"""

import argparse
import copy
import dataclasses
import json
import os
import sys
from collections.abc import Iterator
from datetime import datetime

from . import metrics
from .config import ConfigError, RunConfig, STRATEGY_NAMES, apply_seed_override, load_config
from .demand import (NYC_BBOX, TIMESTAMP_FORMAT, CleaningReport, TripRequest,
                     generate_demand, parse_trips)
from .engine import RunResult, SimulationError, parse_record_line, run
from .fleet import Fleet, Strategy
from .road import RoadNetwork, TrafficState, load_network
from .zones import AdjacencySchedule, ZoneMap, load_zones

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_COMPARE = 3

LOAD_ERRORS = (OSError, ValueError)


@dataclasses.dataclass
class Inputs:
    net: RoadNetwork
    zone_map: ZoneMap
    sched: AdjacencySchedule
    requests: list[TripRequest]
    cleaning: CleaningReport | None
    traffic: TrafficState
    fleet: Fleet


def _error(text: object) -> None:
    """Errors go to stderr; ok, warning and report lines go to stdout."""
    print(f"error {text}", file=sys.stderr)


def load_inputs(cfg: RunConfig) -> Inputs:
    doc = cfg.doc
    network, demand = doc["network"], doc["demand"]
    net = load_network(cfg.path(network["nodes"]), cfg.path(network["edges"]),
                       network["speed_limit_mps"])
    zone_map, sched = load_zones(cfg.path(doc["zones"]))
    cleaning = None
    if "generate" in demand:
        gen = demand["generate"]
        requests = generate_demand(gen["rate_per_hour"], gen["duration_s"], zone_map.bbox(),
                                   zone_map=zone_map if gen["region"] == "zones" else None,
                                   party_probs=tuple(gen["party_probs"]),
                                   seed=demand["seed"],
                                   patience_range=tuple(gen["patience_range"]))
        horizon = gen["duration_s"]
    else:
        requests, cleaning = parse_trips(cfg.path(demand["file"]),
                                         bbox=tuple(demand.get("bbox", NYC_BBOX)),
                                         capacity=demand["capacity"],
                                         rng_seed=demand["seed"])
        horizon = max((r.request_time_s for r in requests), default=0.0)
    tr, fl = doc["traffic"], doc["fleet"]
    traffic = TrafficState.build(tr["schedule"], walk_seed=tr["walk_seed"],
                                 walk_step_s=tr["walk_step_s"],
                                 walk_sigma=tr["walk_sigma"], horizon_s=horizon)
    fleet = Fleet.place_uniform(net, fl["size"], fl["seed"], fl["capacity"])
    return Inputs(net, zone_map, sched, requests, cleaning, traffic, fleet)


# -- validate ------------------------------------------------------------


def cmd_validate(cfg: RunConfig) -> int:
    warnings: list[str] = []
    infos: list[str] = []

    doc = cfg.doc
    paths = [("network.nodes", doc["network"]["nodes"]),
             ("network.edges", doc["network"]["edges"]), ("zones", doc["zones"])]
    if "file" in doc["demand"]:
        paths.append(("demand.file", doc["demand"]["file"]))
    missing = [f"{label}: no such file {cfg.path(p)}" for label, p in paths
               if not os.path.exists(cfg.path(p))]
    if missing:
        for e in missing:
            _error(e)
        return EXIT_VALIDATION

    try:
        inputs = load_inputs(cfg)
    except LOAD_ERRORS as exc:
        _error(exc)
        return EXIT_VALIDATION

    net = inputs.net
    infos.append(f"network: {len(net.nodes)} nodes, {len(net.edges())} edges")
    if net.scc_count > 1:
        warnings.append(f"network: {net.scc_count} strongly connected components; "
                        "some trips may be unroutable")
    infos.append(f"zones: {len(inputs.zone_map)} zones, "
                 f"{len(inputs.sched.pairs())} adjacent pairs")

    if inputs.cleaning is not None:
        rep = inputs.cleaning
        infos.append("demand: " + ", ".join(rep.as_text().strip().splitlines()))
        rejected = rep.rows_read - rep.rows_kept
        if rep.rows_read and rejected:
            warnings.append(f"demand: {rejected} of {rep.rows_read} rows rejected "
                            f"({100.0 * rejected / rep.rows_read:.1f}%)")
    else:
        infos.append(f"demand: generated {len(inputs.requests)} requests")

    uncovered = sum(1 for r in inputs.requests
                    if inputs.zone_map.locate(r.pickup) is None)
    if uncovered:
        warnings.append(f"zones: {uncovered} of {len(inputs.requests)} pickups outside "
                        "all zones (nearest-centroid fallback applies)")
    radius = doc["sim"]["snap_radius_m"]
    unsnapped = sum(1 for r in inputs.requests
                    if net.nearest_node(r.pickup, radius) is None
                    or net.nearest_node(r.dropoff, radius) is None)
    if unsnapped:
        warnings.append(f"network: {unsnapped} requests beyond the {radius} m "
                        "snap radius (will be rejected as unroutable)")

    for line in infos:
        print(f"ok {line}")
    for line in warnings:
        print(f"warning {line}")
    return EXIT_OK


# -- run -----------------------------------------------------------------


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_run(cfg: RunConfig, inputs: Inputs, sched: AdjacencySchedule,
               result: RunResult) -> None:
    """A finished run's files, and its report line."""
    out_dir = cfg.path(cfg.doc["out"])
    os.makedirs(out_dir, exist_ok=True)
    _write(os.path.join(out_dir, "call_records.txt"),
           "".join(line + "\n" for line in result.record_lines()))
    _write(os.path.join(out_dir, "event_log.txt"),
           f"# amodsim {cfg.config_hash()}\n"
           + "".join(line + "\n" for line in result.event_log))
    epoch = inputs.cleaning.epoch if inputs.cleaning else None
    whole = metrics.whole_run(result.records)
    daily = metrics.aggregate(result.records, epoch)
    _write(os.path.join(out_dir, "summary.txt"), metrics.summary_text([whole, *daily]))
    _write(os.path.join(out_dir, "periodic.txt"), metrics.summary_text(
        metrics.periodic_rows(result.records, cfg.doc["sim"]["metric_period_s"])))
    _write(os.path.join(out_dir, "adjacency_final.txt"), sched.export_text())
    if inputs.cleaning is not None:
        _write(os.path.join(out_dir, "cleaning_report.txt"), inputs.cleaning.as_text())
    metadata = {
        "config": cfg.doc,
        "config_hash": cfg.config_hash(),
        "demand_fingerprint": cfg.demand_fingerprint(),
        "epoch": epoch.strftime(TIMESTAMP_FORMAT) if epoch else None,
        "counts": result.metadata,
    }
    _write(os.path.join(out_dir, "metadata.json"),
           json.dumps(metadata, sort_keys=True, indent=2) + "\n")

    print(f"run {out_dir}: calls={whole.n_calls} served={whole.n_success} "
          f"r_ts={metrics.fmt(whole.r_ts, 4)} t_apw_min={metrics.fmt(whole.t_apw_min, 2)}")


def _run_cells(cells: list[RunConfig]) -> Iterator[int]:
    """Simulate cells that share one demand (they differ in dispatch and out
    alone) in one pass over inputs loaded once. Then, cell by cell and in
    order, write the cell's files or report what failed it, and yield its
    exit code. A failure every cell shares is reported once."""
    try:
        inputs = load_inputs(cells[0])
    except LOAD_ERRORS as exc:
        _error(exc)
        yield from [EXIT_VALIDATION] * len(cells)
        return
    # Each cell starts from its own copy of what a run changes.
    states = [(inputs.fleet, inputs.sched)]
    states += [copy.deepcopy(states[0]) for _ in cells[1:]]
    try:
        results = run(inputs.requests,
                      [(fleet, sched, c.dispatch_config()) for c, (fleet, sched)
                       in zip(cells, states)],
                      inputs.net, inputs.zone_map, inputs.traffic,
                      cells[0].doc["sim"]["snap_radius_m"])
    except SimulationError as exc:  # in what every cell shares
        _error(exc)
        yield from [EXIT_RUNTIME] * len(cells)
        return
    for c, (_, sched) in zip(cells, states):
        result = results.pop(0)  # freed once written
        if isinstance(result, SimulationError):
            _error(result)
            yield EXIT_RUNTIME
        else:
            _write_run(c, inputs, sched, result)
            yield EXIT_OK


def cmd_run(cfg: RunConfig) -> int:
    return next(_run_cells([cfg]))


# -- compare -------------------------------------------------------------


def _daily(records: list, epoch: datetime | None) -> dict[float, metrics.MetricsSummary]:
    """A run's daily summaries by window start."""
    return {s.window_start_s: s for s in metrics.aggregate(records, epoch)}


def _read_meta(run_dir: str) -> dict:
    """A finished run's metadata.json, its trip-file epoch (if any) parsed to
    a datetime; ValueError, naming the file, if it lacks a field that compare
    or matrix reads."""
    path = os.path.join(run_dir, "metadata.json")
    with open(path, encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
            dispatch = meta["config"]["dispatch"]
            epoch = meta["epoch"]
            meta["epoch"] = datetime.strptime(epoch, TIMESTAMP_FORMAT) if epoch else None
            if all(isinstance(v, str) for v in (meta["config_hash"], meta["demand_fingerprint"],
                                                dispatch["strategy"])) \
                    and isinstance(dispatch["eat"], bool):
                return meta
        except (KeyError, TypeError, ValueError):
            pass
    raise ValueError(f"{path}: not the metadata of a finished run")


def _read_run(run_dir: str) -> tuple[dict, list]:
    """A finished run's metadata and call records; ValueError, naming the
    file and line, on a malformed record."""
    meta = _read_meta(run_dir)
    records = []
    path = os.path.join(run_dir, "call_records.txt")
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    records.append(parse_record_line(line))
                except ValueError as exc:
                    raise ValueError(f"{path}:{n}: {exc}") from exc
    return meta, records


def cmd_compare(dir_a: str, dir_b: str) -> int:
    try:
        meta_a, rec_a = _read_run(dir_a)
        meta_b, rec_b = _read_run(dir_b)
    except (OSError, ValueError) as exc:
        _error(exc)
        return EXIT_VALIDATION
    if meta_a["demand_fingerprint"] != meta_b["demand_fingerprint"]:
        _error("runs are not comparable: demand fingerprints differ "
               f"({meta_a['demand_fingerprint'][:12]} vs "
               f"{meta_b['demand_fingerprint'][:12]})")
        return EXIT_COMPARE

    # The expansion-enabled run is the reference side of the report.
    if not meta_a["config"]["dispatch"]["eat"] and meta_b["config"]["dispatch"]["eat"]:
        meta_a, rec_a, meta_b, rec_b = meta_b, rec_b, meta_a, rec_a
        dir_a, dir_b = dir_b, dir_a
    epoch = meta_a["epoch"]
    rows = [("whole-run", metrics.improvement(metrics.whole_run(rec_a),
                                              metrics.whole_run(rec_b)))]
    daily_a, daily_b = _daily(rec_a, epoch), _daily(rec_b, epoch)
    for k, start in enumerate(sorted(set(daily_a) & set(daily_b))):
        rows.append((f"day-{k}", metrics.improvement(daily_a[start], daily_b[start])))
    print(f"with-expansion    {meta_a['config']['dispatch']['strategy']}"
          f"{'-EAT' if meta_a['config']['dispatch']['eat'] else ''}: {dir_a}")
    print(f"without-expansion {meta_b['config']['dispatch']['strategy']}"
          f"{'-EAT' if meta_b['config']['dispatch']['eat'] else ''}: {dir_b}")
    print(metrics.comparison_text(rows), end="")
    return EXIT_OK


# -- matrix --------------------------------------------------------------


def _cell_name(strategy: Strategy, eat: bool) -> str:
    return f"{strategy.value.lower()}-{'eat' if eat else 'base'}"


def _cell_done(out_dir: str, config_hash: str) -> bool:
    try:
        return _read_meta(out_dir)["config_hash"] == config_hash
    except (OSError, ValueError):
        return False


def cmd_matrix(cfg: RunConfig, strategies: list[Strategy]) -> int:
    root = cfg.path(cfg.doc["out"])
    os.makedirs(root, exist_ok=True)
    cells: dict[str, RunConfig] = {}
    for strategy in strategies:
        for eat in (True, False):
            name = _cell_name(strategy, eat)
            cells[name] = cfg.cell(strategy, eat, os.path.join(cfg.doc["out"], name))
    pending = {name: c for name, c in cells.items()
               if not _cell_done(c.path(c.doc["out"]), c.config_hash())}
    # One pass runs every pending cell, each reporting in cell order. The
    # pass starts at the first report, so with no cell pending nothing loads.
    codes = _run_cells(list(pending.values()))
    failed: list[str] = []
    for name in cells:
        if name not in pending:
            print(f"skip {name}: already complete")
            continue
        code = next(codes)
        if code != EXIT_OK:
            failed.append(name)
            print(f"cell {name} failed with exit {code}")
    codes.close()  # frees the pass's inputs before the reports read the cells back

    done: dict[str, tuple[dict, list]] = {}
    for name in cells:
        if name in failed:  # its own error is already reported
            continue
        try:
            done[name] = _read_run(os.path.join(root, name))
        except (OSError, ValueError) as exc:
            _error(f"cell {name} left out of the reports: {exc}")

    rows = []
    for strategy in strategies:
        w = done.get(_cell_name(strategy, True))
        wo = done.get(_cell_name(strategy, False))
        if w is None or wo is None:
            continue
        rows.append((strategy.value, metrics.improvement(metrics.whole_run(w[1]),
                                                         metrics.whole_run(wo[1]))))
    if rows:
        report = metrics.comparison_text(rows)
        _write(os.path.join(root, "combined_report.txt"), report)
        print(report, end="")

    _write_plot_data(root, list(cells), done)
    return EXIT_RUNTIME if failed else EXIT_OK


def _write_plot_data(root: str, cells: list[str], done: dict) -> None:
    """Per-day series, one column per matrix cell, NA where a day is absent."""
    daily = {name: _daily(done[name][1], done[name][0]["epoch"])
             for name in cells if name in done}
    if not daily:
        return
    starts = sorted({t for series in daily.values() for t in series})
    names = [name for name in cells if name in daily]
    for fname, field in (("plot_wait_daily.tsv", "t_apw_min"), ("plot_rate_daily.tsv", "r_ts")):
        lines = ["\t".join(["day", *names])]
        for k, start in enumerate(starts):
            row = [str(k)]
            for name in names:
                s = daily[name].get(start)
                row.append(metrics.fmt(None if s is None else getattr(s, field), 4))
            lines.append("\t".join(row))
        _write(os.path.join(root, fname), "\n".join(lines) + "\n")


# -- entry point ---------------------------------------------------------


def _parse_strategies(text: str) -> list[Strategy]:
    names = [part.strip().upper() for part in text.split(",") if part.strip()]
    if not names:
        raise ConfigError("--strategies: empty list")
    bad = [n for n in names if n not in STRATEGY_NAMES]
    if bad:
        raise ConfigError(f"--strategies: unknown {bad}; expected {STRATEGY_NAMES}")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ConfigError(f"--strategies: repeated {repeated}")
    return [Strategy(n) for n in names]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amodsim",
        description="Zone-expansion fleet dispatch simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a config and its inputs")
    p_validate.add_argument("--config", required=True)

    p_run = sub.add_parser("run", help="simulate one configuration")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", help="override the output directory")
    p_run.add_argument("--seed-override", type=int,
                       help="re-seed demand/fleet/traffic streams from this base")

    p_compare = sub.add_parser("compare", help="improvement report for two finished runs")
    p_compare.add_argument("run_a")
    p_compare.add_argument("run_b")

    p_matrix = sub.add_parser("matrix", help="strategy sweep with and without expansion")
    p_matrix.add_argument("--config", required=True)
    p_matrix.add_argument("--out", help="override the sweep root directory")
    p_matrix.add_argument("--seed-override", type=int)
    p_matrix.add_argument("--strategies", default="NSS,SSS,OSS",
                          help="comma-separated subset of NSS,SSS,OSS")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "compare":
            return cmd_compare(args.run_a, args.run_b)
        cfg = load_config(args.config)
        if getattr(args, "out", None):
            cfg.doc["out"] = os.path.abspath(args.out)
        if getattr(args, "seed_override", None) is not None:
            apply_seed_override(cfg, args.seed_override)
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "run":
            return cmd_run(cfg)
        strategies = _parse_strategies(args.strategies)
        return cmd_matrix(cfg, strategies)
    except ConfigError as exc:
        _error(exc)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
