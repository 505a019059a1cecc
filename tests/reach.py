"""Statements in the program's functions that neither the tests nor the
benchmark workloads reach.

    python tests/reach.py

Line-traces (sys.settrace) the tier-1 suite, run in this process, and then
the three benchmark workloads at seed 1, variant 0, on inputs that
benches/workloads.py writes into a temporary directory. For each module of
src/amodsim it prints every statement inside a function that neither run
executed; a compound statement that never ran stands for the statements in
it. Uses the standard library and pytest only; pytest does not collect this
file. Takes a few minutes.
"""

import ast
import contextlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "amodsim")
BENCHES = os.path.join(ROOT, "benches")


class LineTrace:
    """Lines executed in the files under one directory."""

    def __init__(self, prefix: str):
        self.prefix = prefix + os.sep
        self.hits: dict[str, set[int]] = {}
        self._local: dict[str, object] = {}

    def _tracer_for(self, path: str):
        lines = self.hits.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def __call__(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(self.prefix):
            return None
        if path not in self._local:
            self._local[path] = self._tracer_for(path)
        return self._local[path]

    def __enter__(self):
        sys.settrace(self)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def _own_lines(stmt: ast.stmt) -> range:
    """The lines of a statement that no statement nested in it holds: all of
    a simple statement, the header of a compound one."""
    first = min([d.lineno for d in getattr(stmt, "decorator_list", [])] + [stmt.lineno])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        return range(first, max(body[0].lineno, first + 1))
    return range(first, stmt.end_lineno + 1)


def _unreached(stmts: list[ast.stmt], hit: set[int]) -> list[ast.stmt]:
    out = []
    for stmt in stmts:
        if isinstance(stmt, (ast.Global, ast.Nonlocal)):
            continue  # compiles to no code
        if not hit.intersection(_own_lines(stmt)):
            out.append(stmt)
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # a nested definition is a function of its own
        for name in ("body", "orelse", "finalbody"):
            out.extend(_unreached(getattr(stmt, name, []), hit))
        for handler in getattr(stmt, "handlers", []):
            out.extend(_unreached(handler.body, hit))
        for case in getattr(stmt, "cases", []):
            out.extend(_unreached(case.body, hit))
    return out


def _function_bodies(tree: ast.AST) -> list[list[ast.stmt]]:
    """The body of every function, docstring left out."""
    bodies = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                body = body[1:]
            bodies.append(body)
    return bodies


def report(trace: LineTrace) -> str:
    lines = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        text = source.splitlines()
        hit = trace.hits.get(path, set())
        missed = sorted((s for body in _function_bodies(ast.parse(source))
                         for s in _unreached(body, hit)), key=lambda s: s.lineno)
        lines.append(f"{name}: {len(missed)} unreached")
        lines.extend(f"  {s.lineno}: {text[s.lineno - 1].strip()}" for s in missed)
    return "\n".join(lines) + "\n"


def run_tier1() -> int:
    import pytest
    os.chdir(ROOT)
    return int(pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]))


def run_workloads(tmp: str) -> list[str]:
    """The three workloads at seed 1, variant 0; the ones that fail."""
    sys.path.insert(0, BENCHES)
    import workloads
    from amodsim import cli
    failed = []
    for name, wl in workloads.WORKLOADS.items():
        inputs = workloads.generate(name, 1, 0, os.path.join(tmp, name))
        argv = ["run", "--config", inputs.config]
        if wl.command == "matrix":
            argv = ["matrix", "--config", inputs.config, "--strategies", wl.strategy]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                failed.append(name)
    return failed


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with LineTrace(SRC) as trace:
        code = run_tier1()
        with tempfile.TemporaryDirectory() as tmp:
            failed = run_workloads(tmp)
    print(report(trace), end="")
    if code or failed:
        print(f"incomplete: tier-1 exit {code}, failed workloads {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
