"""The benchmark's layer probes find every name they wrap in the program.

benches/run_bench.py installs its probes outside the guarded part of a
command, so a renamed probe target would crash every traced run.
"""

import os

BENCHES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benches")


def test_bench_layer_probes_resolve(monkeypatch):
    monkeypatch.syspath_prepend(BENCHES)  # undone after the test, with import_program's entry
    import run_bench
    program = run_bench.import_program()
    tr = run_bench.Tracer()
    try:
        run_bench.install_layer_probes(tr, program)  # AttributeError names a missing target
        patched = list(tr._patched)
        assert all(callable(original) for _, _, original in patched)
    finally:
        tr.restore()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
