"""Benchmark: seeded amodsim workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 benches/run_bench.py --workload sparse-sss --seed 1 --seconds 35 --trace 0

The benchmark writes the workload's input files from --seed, then runs the
`run` (or `matrix`) subcommand in this process, one command at a time, until
--seconds have passed. Every command's outputs are checked. The last line of
standard output is one JSON object with keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones, with wall-clock
times scaled to a nominal host speed (see hostspeed.py); with --trace 1 they
are the per-layer ones from traced commands, alternated with untraced
commands so the tracing overhead can be measured.

Everything the benchmark writes goes under .bench_work/ in the checkout.
"""

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import hostspeed
import workloads
from spans import Tracer, mean, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
PINS_PATH = os.path.join(HERE, "pins.json")

DEFAULT_SEED = 1
HELDOUT_SEED = 1009
# A run keeps starting commands until --seconds have passed, and runs at
# least this many, so medians rest on several samples.
MIN_COMMANDS = 3
# Untraced commands cycle through this many input sets drawn from the seed,
# so a run's median covers several demand draws, not one.
VARIANTS = 4
# Host-speed sampling after each untraced command, as a share of its time.
HOST_SAMPLE_SHARE = 0.1

DIGESTED_FILES = ("call_records.txt", "event_log.txt", "summary.txt", "periodic.txt",
                  "adjacency_final.txt")

END_TO_END_UNITS = {"req_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics that are counts of work: they must repeat exactly.
COUNT_UNITS = {
    "road.eta_table.calls": "count",
    "road.route_astar.calls": "count",
    "geo.haversine.calls": "count",
    "dispatch.oss.calls": "count",
    "dispatch.oss.jobs_mean": "count",
    "dispatch.oss.actions": "count",
    "dispatch.decide.calls": "count",
    "dispatch.regions_mean": "count",
    "zones.rings.calls": "count",
    "zones.add_neighbor.calls": "count",
    "fleet.candidate_pool.calls": "count",
    "fleet.pool_size_mean": "count",
    "geo.nearest.calls": "count",
    "zones.locate.calls": "count",
    "demand.rows_rejected": "count",
    "engine.events": "count",
}
# Per-layer host times: the median over a run's traced commands.
TIME_UNITS = {
    "road.eta_table.self_s": "s",
    "road.eta_table.ms_p50": "ms",
    "road.eta_table.ms_p99": "ms",
    "road.route_astar.self_s": "s",
    "road.route_astar.ms_p50": "ms",
    "road.route_astar.ms_p99": "ms",
    "dispatch.oss.self_s": "s",
    "dispatch.oss.ms_p50": "ms",
    "dispatch.decide.self_s": "s",
    "dispatch.decide.ms_p50": "ms",
    "dispatch.decide.ms_p99": "ms",
    "fleet.candidate_pool.self_s": "s",
    "geo.nearest.self_s": "s",
    "zones.locate.self_s": "s",
    "road.load_network.s": "s",
    "zones.load.s": "s",
    "demand.load.s": "s",
    "cli.load_inputs.s": "s",
    "engine.self_s": "s",
    "fleet.validate_transitions.s": "s",
    "metrics.s": "s",
    "cli.self_s": "s",
}
PER_LAYER_UNITS = {**COUNT_UNITS, **TIME_UNITS, "trace.overhead_frac": "fraction"}


class BenchError(RuntimeError):
    pass


def import_program():
    """Import amodsim from this checkout's src/, and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "amodsim", "cli.py")):
        raise BenchError(f"no amodsim sources under {src}")
    sys.path.insert(0, src)
    import amodsim
    from amodsim import cli, dispatch, engine, geo, metrics, road, zones
    if not os.path.abspath(amodsim.__file__).startswith(src + os.sep):
        raise BenchError(f"amodsim imported from {amodsim.__file__}, not {src}")
    return {"cli": cli, "dispatch": dispatch, "engine": engine, "geo": geo,
            "metrics": metrics, "road": road, "zones": zones}


# -- probes ----------------------------------------------------------------


def install_setup_probes(tr: Tracer, m: dict) -> None:
    """The three boundaries that delimit set-up: input loading, the engine
    call, and the start of its event loop. The loop has no public entry, so
    the engine's private simulation class is wrapped there."""
    tr.span_probe(m["cli"], "load_inputs", "cli.load_inputs")
    tr.span_probe(m["cli"], "run", "engine.run",
                  after=lambda a, res: tr.observe("engine.events",
                                                  res.metadata["events_processed"]))
    tr.span_probe(m["engine"]._Simulation, "run", "engine.loop")


def install_layer_probes(tr: Tracer, m: dict) -> None:
    cli, engine, road, geo, zones = m["cli"], m["engine"], m["road"], m["geo"], m["zones"]
    install_setup_probes(tr, m)
    tr.span_probe(cli, "cmd_run", "cli.cmd_run")
    tr.span_probe(cli, "load_network", "road.load_network")
    tr.span_probe(cli, "load_zones", "zones.load")
    tr.span_probe(cli, "generate_demand", "demand.load")
    tr.span_probe(cli, "parse_trips", "demand.load",
                  after=lambda a, res: tr.observe("demand.rows_rejected",
                                                  res[1].rows_read - res[1].rows_kept))
    tr.span_probe(engine, "dispatch", "dispatch.decide", req=lambda a: a[0].id,
                  after=lambda a, res: tr.observe("dispatch.regions",
                                                  len(res.zones_searched)))
    tr.span_probe(engine, "oss_reschedule", "dispatch.oss",
                  after=lambda a, res: (tr.observe("dispatch.oss.jobs", len(a[0])),
                                        tr.observe("dispatch.oss.actions", len(res))))
    tr.span_probe(engine, "validate_transitions", "fleet.validate_transitions")
    tr.span_probe(m["dispatch"], "candidate_pool", "fleet.candidate_pool",
                  after=lambda a, res: tr.observe("fleet.pool_size", len(res)))
    tr.span_probe(road, "route_astar", "road.route_astar")
    tr.span_probe(road, "eta_table", "road.eta_table")
    for fn in ("aggregate", "periodic_rows", "summary_text", "comparison_text",
               "improvement"):
        tr.span_probe(m["metrics"], fn, "metrics")
    tr.span_probe(geo.NodeIndex, "nearest", "geo.nearest")
    tr.span_probe(zones.ZoneMap, "locate", "zones.locate")
    tr.span_probe(zones.AdjacencySchedule, "expand_frontier", "zones.rings")
    tr.span_probe(zones.AdjacencySchedule, "add_neighbor", "zones.add_neighbor")
    for mod in (road, geo, zones):
        tr.count_probe(mod, "haversine_m", "geo.haversine.calls")


def setup_seconds(tr: Tracer) -> float:
    """Input loading plus the engine's work before its first event
    (fleet snapping and node-to-zone resolution), summed over cells."""
    total = 0
    for i, name in enumerate(tr.names):
        if name == "cli.load_inputs":
            total += tr.ends[i] - tr.starts[i]
        elif name == "engine.loop":
            total += tr.starts[i] - tr.starts[tr.parents[i]]
    return total / 1e9


def layer_metrics(tr: Tracer) -> tuple[dict, dict]:
    """(counts, times) of one traced command."""
    durs = tr.durations()
    selfs = tr.self_times()
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    incl: dict[str, list[int]] = {}
    neighbor_links = 0
    for i, name in enumerate(tr.names):
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + selfs[i]
        incl.setdefault(name, []).append(durs[i])
        # Links the dispatcher adds; zone loading also adds the geometric ones.
        if name == "zones.add_neighbor" and tr.parents[i] >= 0 \
                and tr.names[tr.parents[i]] == "dispatch.decide":
            neighbor_links += 1

    def s(ns: int) -> float:
        return ns / 1e9

    def ms(q: float, name: str) -> float:
        return percentile(incl.get(name, []), q) / 1e6

    obs = tr.samples
    counts = {
        "road.eta_table.calls": calls.get("road.eta_table", 0),
        "road.route_astar.calls": calls.get("road.route_astar", 0),
        "geo.haversine.calls": tr.counts.get("geo.haversine.calls", 0),
        "dispatch.oss.calls": calls.get("dispatch.oss", 0),
        "dispatch.oss.jobs_mean": mean(obs.get("dispatch.oss.jobs", [])),
        "dispatch.oss.actions": sum(obs.get("dispatch.oss.actions", [])),
        "dispatch.decide.calls": calls.get("dispatch.decide", 0),
        "dispatch.regions_mean": mean(obs.get("dispatch.regions", [])),
        "zones.rings.calls": calls.get("zones.rings", 0),
        "zones.add_neighbor.calls": neighbor_links,
        "fleet.candidate_pool.calls": calls.get("fleet.candidate_pool", 0),
        "fleet.pool_size_mean": mean(obs.get("fleet.pool_size", [])),
        "geo.nearest.calls": calls.get("geo.nearest", 0),
        "zones.locate.calls": calls.get("zones.locate", 0),
        "demand.rows_rejected": sum(obs.get("demand.rows_rejected", [])),
        "engine.events": sum(obs.get("engine.events", [])),
    }
    times = {
        "road.eta_table.self_s": s(self_ns.get("road.eta_table", 0)),
        "road.eta_table.ms_p50": ms(50, "road.eta_table"),
        "road.eta_table.ms_p99": ms(99, "road.eta_table"),
        "road.route_astar.self_s": s(self_ns.get("road.route_astar", 0)),
        "road.route_astar.ms_p50": ms(50, "road.route_astar"),
        "road.route_astar.ms_p99": ms(99, "road.route_astar"),
        "dispatch.oss.self_s": s(self_ns.get("dispatch.oss", 0)),
        "dispatch.oss.ms_p50": ms(50, "dispatch.oss"),
        "dispatch.decide.self_s": s(self_ns.get("dispatch.decide", 0)),
        "dispatch.decide.ms_p50": ms(50, "dispatch.decide"),
        "dispatch.decide.ms_p99": ms(99, "dispatch.decide"),
        "fleet.candidate_pool.self_s": s(self_ns.get("fleet.candidate_pool", 0)),
        "geo.nearest.self_s": s(self_ns.get("geo.nearest", 0)),
        "zones.locate.self_s": s(self_ns.get("zones.locate", 0)),
        "road.load_network.s": s(sum(incl.get("road.load_network", []))),
        "zones.load.s": s(sum(incl.get("zones.load", []))),
        "demand.load.s": s(sum(incl.get("demand.load", []))),
        "cli.load_inputs.s": s(sum(incl.get("cli.load_inputs", []))),
        "engine.self_s": s(self_ns.get("engine.run", 0) + self_ns.get("engine.loop", 0)),
        "fleet.validate_transitions.s": s(sum(incl.get("fleet.validate_transitions", []))),
        "metrics.s": s(sum(incl.get("metrics", []))),
        "cli.self_s": s(self_ns.get("cli", 0) + self_ns.get("cli.cmd_run", 0)),
    }
    return counts, times


def largest_self_layer(tr: Tracer) -> str:
    totals: dict[str, int] = {}
    for name, st in zip(tr.names, tr.self_times()):
        totals[name] = totals.get(name, 0) + st
    return max(sorted(totals), key=lambda n: totals[n])


# -- output checks -----------------------------------------------------------


def digest_outputs(out_dir: str, cells: list[str]) -> dict[str, str]:
    digests = {}
    for cell in cells:
        for fname in DIGESTED_FILES:
            key = f"{cell}/{fname}" if cell else fname
            with open(os.path.join(out_dir, cell, fname), "rb") as fh:
                digests[key] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def digest_problems(digests: dict[str, str], reference: dict[str, str], what: str) -> list[str]:
    bad = sorted(f for f in reference if digests.get(f) != reference[f])
    return [f"output digests differ from the {what}: {bad}"] if bad else []


def check_cell(cell_dir: str, expected_requests: int | None) -> tuple[list[str], dict]:
    """Consistency of one run's outputs, recomputed independently of the
    program: one record per request, ordered times, and a summary and
    periodic table that agree with the records."""
    problems = []
    with open(os.path.join(cell_dir, "call_records.txt"), encoding="utf-8") as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    ids = set()
    waits = []
    for parts in lines:
        rid, req_t, outcome = int(parts[0]), float(parts[1]), parts[2]
        if rid in ids:
            problems.append(f"request {rid} has two records")
        ids.add(rid)
        if outcome == "PICKED_UP":
            pickup, dropoff = float(parts[3]), float(parts[4])
            if not req_t <= pickup <= dropoff:
                problems.append(f"request {rid}: times out of order")
            waits.append(pickup - req_t)
        elif outcome == "ABANDONED":
            if float(parts[3]) < req_t:
                problems.append(f"request {rid}: abandoned before it was made")
        elif outcome != "REJECTED":
            problems.append(f"request {rid}: unknown outcome {outcome}")
    n = len(lines)
    if expected_requests is not None and n != expected_requests:
        problems.append(f"{n} records for {expected_requests} requests")
    with open(os.path.join(cell_dir, "event_log.txt"), encoding="utf-8") as fh:
        arrivals = sum(1 for ln in fh if " REQUEST_ARRIVAL " in ln)
    if arrivals != n:
        problems.append(f"{arrivals} arrival events for {n} records")
    with open(os.path.join(cell_dir, "summary.txt"), encoding="utf-8") as fh:
        whole = fh.read().splitlines()[1].split("\t")
    served_rate = f"{len(waits) / n:.4f}" if n else "NA"
    mean_wait = f"{math.fsum(waits) / len(waits) / 60.0:.2f}" if waits else "NA"
    if whole[2:6] != [str(n), str(len(waits)), served_rate, mean_wait]:
        problems.append(f"summary row {whole[2:6]} disagrees with the records "
                        f"{[n, len(waits), served_rate, mean_wait]}")
    with open(os.path.join(cell_dir, "periodic.txt"), encoding="utf-8") as fh:
        periodic_calls = sum(int(row.split("\t")[2]) for row in fh.read().splitlines()[1:])
    if periodic_calls != n:
        problems.append(f"periodic rows count {periodic_calls} calls, records {n}")
    return problems, {"requests": n, "served_rate": served_rate, "mean_wait_min": mean_wait}


# -- commands ----------------------------------------------------------------


@dataclass
class Command:
    """One simulator command and what the benchmark saw of it."""
    variant: int
    wall_s: float
    setup_s: float
    tracer: Tracer
    host_speed: float = 0.0  # reference searches per second right after the command
    requests: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    cells: dict[str, dict] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


class Bench:
    """Runs the workload's command on one generated input set."""

    def __init__(self, program: dict, workload: str, inputs: workloads.Inputs, variant: int):
        self.program = program
        self.inputs = inputs
        self.variant = variant
        self.out_dir = os.path.join(inputs.dir, "out")
        wl = workloads.WORKLOADS[workload]
        if wl.command == "matrix":
            self.argv = ["matrix", "--config", inputs.config, "--strategies", wl.strategy]
            self.cells = [f"{wl.strategy.lower()}-eat", f"{wl.strategy.lower()}-base"]
        else:
            self.argv = ["run", "--config", inputs.config]
            self.cells = [""]

    def run_command(self, traced: bool) -> Command:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        tr = Tracer()
        if traced:
            install_layer_probes(tr, self.program)
        else:
            install_setup_probes(tr, self.program)
        captured = io.StringIO()
        gc.collect()
        root = tr.open("cli")
        try:
            with redirect_stdout(captured):
                code = self.program["cli"].main(self.argv)
        except Exception:  # a crashing command is a failed command, not a crashed benchmark
            traceback.print_exc()
            code = None
        finally:
            tr.close(root)
            tr.restore()
        cmd = Command(self.variant, (tr.ends[root] - tr.starts[root]) / 1e9,
                      setup_seconds(tr), tr)
        if code != 0:
            cmd.problems.append(f"exit code {code}: {captured.getvalue().strip()[-500:]}")
            return cmd
        cmd.digests = digest_outputs(self.out_dir, self.cells)
        for cell in self.cells:
            try:
                problems, summary = check_cell(os.path.join(self.out_dir, cell),
                                               self.inputs.csv_rows_kept)
            except (OSError, IndexError, ValueError) as exc:
                cmd.problems.append(f"{cell or 'run'}: unreadable outputs: {exc!r}")
                continue
            cmd.problems.extend(f"{cell or 'run'}: {p}" for p in problems)
            cmd.cells[cell] = summary
            cmd.requests += summary["requests"]
        return cmd


def make_benches(program: dict, workload: str, seed: int, run_dir: str,
                 variants: int) -> list[Bench]:
    return [Bench(program, workload,
                  workloads.generate(workload, seed, v, os.path.join(run_dir, f"inputs-{v}")), v)
            for v in range(variants)]


# -- environment record --------------------------------------------------------


def git_sha() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return None  # not a git checkout
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for fname in files:
            if fname.endswith(".py"):
                with open(os.path.join(dirpath, fname), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"git_sha": git_sha(), "python": platform.python_version(), "nproc": nproc,
            "src_lines": src_lines()}


# -- main ----------------------------------------------------------------------


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def write_pins(program: dict) -> int:
    """Re-pin the output digests of every workload and input variant on the
    default and the held-out seed. Only for a change that alters outputs on
    purpose, which the change must say."""
    pins: dict[str, dict] = {}
    for name in workloads.WORKLOADS:
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            run_dir = os.path.join(WORK, f"pin-{name}-s{seed}")
            shutil.rmtree(run_dir, ignore_errors=True)
            for bench in make_benches(program, name, seed, run_dir, VARIANTS):
                cmd = bench.run_command(traced=False)
                if cmd.problems:
                    print(f"error {name} seed {seed} variant {bench.variant}: {cmd.problems}",
                          file=sys.stderr)
                    return 1
                pins.setdefault(name, {}).setdefault(str(seed), {})[str(bench.variant)] = \
                    cmd.digests
            print(f"pinned {name} seed {seed}")
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def run_commands(benches: list[Bench], seconds: float,
                 traced: bool) -> tuple[list[Command], list[Command]]:
    """Closed loop, one command at a time, until `seconds` have passed.

    Returns the untraced commands and the traced ones. Untraced runs cycle
    through the input variants and sample the host's speed right after each
    command. Traced runs alternate an untraced and a traced command on
    variant 0, so host drift hits both sides alike."""
    plain: list[Command] = []
    tracedc: list[Command] = []
    t0 = time.perf_counter()
    while True:
        bench = benches[len(plain) % len(benches)]
        cmd = bench.run_command(traced=False)
        plain.append(cmd)
        if traced:
            tracedc.append(bench.run_command(traced=True))
        else:
            cmd.host_speed = statistics.median(
                hostspeed.samples_for(HOST_SAMPLE_SHARE * cmd.wall_s))
        enough = len(plain) >= (2 if traced else MIN_COMMANDS)
        if enough and time.perf_counter() - t0 >= seconds:
            return plain, tracedc


def median_of(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def check_commands(plain: list[Command], traced: list[Command],
                   pinned: dict) -> dict[int, Command]:
    """Add to each command's problems what only a comparison can show.

    Returns the first command of each input variant."""
    first: dict[int, Command] = {}
    for cmd in plain + traced:
        first.setdefault(cmd.variant, cmd)
        reference = pinned.get(str(cmd.variant)) or first[cmd.variant].digests
        what = "pinned" if str(cmd.variant) in pinned else "first command"
        if not cmd.problems:
            cmd.problems.extend(digest_problems(cmd.digests, reference, what))
    for cmd in traced:
        if sum(cmd.tracer.self_times()) != cmd.tracer.durations()[0]:
            cmd.problems.append("self times do not add up to the top-level span")
        if layer_metrics(cmd.tracer)[0] != layer_metrics(traced[0].tracer)[0]:
            cmd.problems.append("per-layer counts differ between traced commands")
    return first


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="re-pin output digests for the default and held-out seeds")
    args = parser.parse_args(argv)
    try:
        program = import_program()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.write_pins:
        return write_pins(program)
    if args.workload is None:
        parser.error("--workload is required")

    run_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    benches = make_benches(program, args.workload, args.seed, run_dir,
                           1 if args.trace else VARIANTS)
    plain, traced = run_commands(benches, args.seconds, bool(args.trace))
    commands = plain + traced
    pinned = load_pins().get(args.workload, {}).get(str(args.seed), {})
    firsts = check_commands(plain, traced, pinned)
    failed = 0
    for k, cmd in enumerate(commands):
        for p in cmd.problems:
            print(f"command {k} failed: {p}")
        failed += bool(cmd.problems)

    record = {"workload": args.workload, "seed": args.seed, "pinned": bool(pinned),
              "trace": args.trace, "commands": len(commands), **environment(),
              "inputs": {**benches[0].inputs.sizes(),
                         "requests": [firsts[v].requests for v in sorted(firsts)]}}
    print("record " + json.dumps(record, sort_keys=True))
    for v, cmd in sorted(firsts.items()):
        for cell, summary in cmd.cells.items():
            digests = " ".join(f"{f.split('/')[-1]}={h}" for f, h in sorted(cmd.digests.items())
                               if f.startswith(cell))
            print(f"variant {v} {cell or args.workload}: requests={summary['requests']} "
                  f"served_rate={summary['served_rate']} "
                  f"mean_wait_min={summary['mean_wait_min']} {digests}")
    for k, cmd in enumerate(plain):
        print(f"command {k}: variant={cmd.variant} wall_s={cmd.wall_s:.4f} "
              f"setup_s={cmd.setup_s:.4f} requests={cmd.requests} "
              f"host_speed={cmd.host_speed:.1f}")

    if args.trace:
        per_command = [layer_metrics(c.tracer) for c in traced]
        values = dict(per_command[0][0])
        for key in TIME_UNITS:
            values[key] = median_of([times[key] for _, times in per_command])
        values["trace.overhead_frac"] = (median_of([c.wall_s for c in traced]) /
                                         median_of([c.wall_s for c in plain]) - 1.0)
        units = PER_LAYER_UNITS
        print(f"largest self time: {largest_self_layer(traced[0].tracer)}")
        with open(os.path.join(run_dir, "spans.tsv"), "w", encoding="utf-8") as fh:
            fh.write(traced[0].tracer.spans_text())
    else:
        ok = [c for c in plain if not c.problems]
        measured = {"req_per_s": median_of([c.requests / c.wall_s for c in ok]),
                    "setup_s": median_of([c.setup_s for c in ok]),
                    "host_speed": median_of([c.host_speed for c in ok])}
        print("as measured, before host-speed scaling: " +
              " ".join(f"{k}={v:.4f}" for k, v in measured.items()))
        record["measured"] = measured
        values = {
            "req_per_s": median_of([c.requests / c.wall_s * hostspeed.NOMINAL / c.host_speed
                                    for c in ok]),
            "setup_s": median_of([c.setup_s * c.host_speed / hostspeed.NOMINAL for c in ok]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    result = {"correct": failed == 0, "attempted": len(commands), "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
