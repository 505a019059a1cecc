"""The benchmark's layer probes find every name they wrap in the program,
and read the real results of what they wrap.

benches/run_bench.py installs its probes outside the guarded part of a
command, so a renamed probe target would crash every traced run, and a
reshaped result would fail every traced command.
"""

import os

import pytest
import yaml

from test_cli import patchy_city

BENCHES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benches")


@pytest.fixture
def run_bench(monkeypatch):
    monkeypatch.syspath_prepend(BENCHES)  # undone after the test, with import_program's entry
    import run_bench
    return run_bench


def test_bench_layer_probes_resolve(run_bench):
    program = run_bench.import_program()
    tr = run_bench.Tracer()
    try:
        run_bench.install_layer_probes(tr, program)  # AttributeError names a missing target
        patched = list(tr._patched)
        assert all(callable(original) for _, _, original in patched)
    finally:
        tr.restore()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)


def test_a_traced_command_feeds_every_observation(run_bench, tmp_path):
    program = run_bench.import_program()
    cfg = os.path.join(str(tmp_path), "config.yaml")
    with open(cfg, "w") as fh:
        yaml.safe_dump(patchy_city(tmp_path), fh)  # OSS under a traffic schedule
    tr = run_bench.Tracer()
    try:
        run_bench.install_layer_probes(tr, program)
        code = program["cli"].main(["matrix", "--config", cfg, "--strategies", "OSS"])
    finally:
        tr.restore()
    assert code == 0
    assert {"engine.events", "dispatch.regions", "fleet.pool_size", "dispatch.oss.jobs",
            "demand.rows_rejected"} <= set(tr.samples)
