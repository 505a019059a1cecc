"""Self-tests for the benchmark itself.

Run from the root of a checkout with either of

    python3 benches/selftest.py
    python3 -m pytest benches/selftest.py

They check that the input generators are deterministic, that the output
check catches a single flipped byte, that self-time arithmetic is exact, and
that traced commands repeat their counts exactly.
"""

import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostspeed  # noqa: E402
import run_bench  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, percentile, self_times  # noqa: E402

SCRATCH = os.path.join(run_bench.WORK, "selftest")


def _fresh(name: str) -> str:
    path = os.path.join(SCRATCH, name)
    shutil.rmtree(path, ignore_errors=True)
    return path


def _files(directory: str) -> dict[str, bytes]:
    out = {}
    for fname in sorted(os.listdir(directory)):
        with open(os.path.join(directory, fname), "rb") as fh:
            out[fname] = fh.read()
    return out


def _bench(workload: str, seed: int) -> run_bench.Bench:
    return run_bench.make_benches(run_bench.import_program(), workload, seed,
                                  _fresh(f"{workload}-{seed}"), 1)[0]


def test_same_seed_gives_identical_inputs():
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 5, 0, _fresh(f"gen-{name}-a"))
        b = workloads.generate(name, 5, 0, _fresh(f"gen-{name}-b"))
        other_seed = workloads.generate(name, 6, 0, _fresh(f"gen-{name}-c"))
        other_variant = workloads.generate(name, 5, 1, _fresh(f"gen-{name}-d"))
        assert _files(a.dir) == _files(b.dir), name
        assert _files(a.dir) != _files(other_seed.dir), name
        assert _files(a.dir) != _files(other_variant.dir), name
        assert a.sizes() == b.sizes()


def test_patchy_inputs_have_the_advertised_shape():
    nodes, edges, zones, _ = workloads.patchy_city(5, 0)
    pairs = {(u, v) for u, v, _, _ in edges}
    assert any((v, u) not in pairs for u, v in pairs), "expected one-way edges"
    # the loader refuses edges shorter than 0.99 of the great-circle distance
    assert all(length >= 0.99 * workloads.haversine_m(*nodes[u], *nodes[v])
               for u, v, length, _ in edges)
    assert len(zones["features"]) == 25
    rows, kept = workloads.dirty_trips(5, 0, 700, 3600.0, (40.7, -74.0, 40.8, -73.9))
    assert len(rows) == 700 and 0 < kept < 700


def test_flipped_byte_fails_the_output_check():
    bench = _bench("sparse-sss", run_bench.DEFAULT_SEED)
    cmd = bench.run_command(traced=False)
    assert cmd.problems == []
    reference = dict(cmd.digests)
    assert run_bench.digest_problems(cmd.digests, reference, "first command") == []
    path = os.path.join(bench.out_dir, "call_records.txt")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[len(data) // 2] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(data)
    flipped = run_bench.digest_outputs(bench.out_dir, bench.cells)
    assert run_bench.digest_problems(flipped, reference, "first command") == [
        "output digests differ from the first command: ['call_records.txt']"]


def test_self_times_on_a_hand_built_tree():
    # cli(0..100) -> engine(10..80) -> dispatch(20..50) -> astar(30..45)
    #                                -> astar(60..70);  metrics(85..95)
    parents = [-1, 0, 1, 2, 1, 0]
    starts = [0, 10, 20, 30, 60, 85]
    ends = [100, 80, 50, 45, 70, 95]
    durations = [e - s for s, e in zip(starts, ends)]
    assert self_times(parents, durations) == [20, 30, 15, 15, 10, 10]
    assert sum(self_times(parents, durations)) == durations[0]

    tr = Tracer()
    tr.names = ["cli", "engine.run", "dispatch.decide", "road.route_astar",
                "road.route_astar", "metrics"]
    tr.parents, tr.starts, tr.ends = parents, starts, ends
    tr.reqs = [None, None, 7, None, None, None]
    counts, times = run_bench.layer_metrics(tr)
    assert counts["road.route_astar.calls"] == 2
    assert counts["dispatch.decide.calls"] == 1
    assert times["road.route_astar.self_s"] == 25 / 1e9
    assert times["dispatch.decide.self_s"] == 15 / 1e9
    assert times["engine.self_s"] == 30 / 1e9
    assert times["cli.self_s"] == 20 / 1e9
    assert times["metrics.s"] == 10 / 1e9
    assert percentile([15, 10], 50) == 10 and percentile([15, 10], 99) == 15


def test_host_speed_reference_work_is_fixed():
    # Changing the reference search rescales every end-to-end time metric.
    assert len(hostspeed.search(0)) == hostspeed.GRID ** 2
    assert sum(sum(hostspeed.search(src).values()) for src in range(3)) == 86847.0
    assert hostspeed.sample() > 0


def test_probes_are_removed_after_a_command():
    program = run_bench.import_program()
    before = (program["road"].route_astar, program["engine"].dispatch,
              program["zones"].ZoneMap.locate, program["geo"].haversine_m)
    tr = Tracer()
    run_bench.install_layer_probes(tr, program)
    assert program["road"].route_astar is not before[0]
    tr.restore()
    after = (program["road"].route_astar, program["engine"].dispatch,
             program["zones"].ZoneMap.locate, program["geo"].haversine_m)
    assert after == before


def test_two_traced_commands_give_identical_counts():
    bench = _bench("sparse-sss", run_bench.DEFAULT_SEED)
    first = bench.run_command(traced=True)
    second = bench.run_command(traced=True)
    assert first.problems == [] and second.problems == []
    assert first.digests == second.digests
    counts, _ = run_bench.layer_metrics(first.tracer)
    assert counts == run_bench.layer_metrics(second.tracer)[0]
    assert counts["road.eta_table.calls"] == counts["dispatch.decide.calls"] > 0
    assert counts["dispatch.oss.calls"] == 0
    durations = first.tracer.durations()
    assert sum(first.tracer.self_times()) == durations[0]


def main() -> int:
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc!r}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
