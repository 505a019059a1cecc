"""Spans recorded from outside the simulator, by wrapping its layer boundaries.

Each probe replaces one name where the caller looks it up (for example
`amodsim.engine.dispatch`, which the event loop calls, or
`amodsim.road.route_astar`, which the dispatcher reaches through the `road`
module). A span records its name, start and end in integer nanoseconds, the
span open when it began, and for dispatch spans the request id. Spans stay in
memory until the run ends. Self time is a span's duration minus the durations
of its direct children; because the clock is an integer, the self times of a
tree add up to its root's duration exactly.
"""

import math
import statistics
from time import perf_counter_ns


class Tracer:
    """Spans, counters and per-call observations of one command, plus the
    wrapped names to put back when it ends."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.reqs: list[int | None] = []
        self.counts: dict[str, int] = {}
        # per-call observations, e.g. candidate pool sizes
        self.samples: dict[str, list[float]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, req: int | None = None) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.reqs.append(req)
        self.ends.append(0)
        self._stack.append(i)
        self.starts.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter_ns()
        self._stack.pop()

    def observe(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    # -- probes ------------------------------------------------------------

    def span_probe(self, owner: object, attr: str, name: str, req=None, after=None) -> None:
        """Replace owner.attr by a wrapper that records one span per call.

        req(args) gives the span's request id; after(args, result) may
        record observations once the call returns.
        """
        fn = getattr(owner, attr)
        tracer = self

        def probe(*args, **kwargs):
            i = tracer.open(name, req(args) if req else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                after(args, result)
            return result

        self._replace(owner, attr, fn, probe)

    def count_probe(self, owner: object, attr: str, name: str) -> None:
        """Replace owner.attr by a wrapper that only counts calls."""
        fn = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        def probe(*args):
            counts[name] += 1
            return fn(*args)

        self._replace(owner, attr, fn, probe)

    def _replace(self, owner, attr, original, probe) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, probe)

    def restore(self) -> None:
        """Put every wrapped name back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def durations(self) -> list[int]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[int]:
        return self_times(self.parents, self.durations())

    def spans_text(self) -> str:
        """One tab-separated line per span, in start order."""
        lines = ["index\tname\tstart_ns\tend_ns\tparent\treq"]
        for i, name in enumerate(self.names):
            req = "" if self.reqs[i] is None else str(self.reqs[i])
            lines.append(f"{i}\t{name}\t{self.starts[i]}\t{self.ends[i]}\t"
                         f"{self.parents[i]}\t{req}")
        return "\n".join(lines) + "\n"


def self_times(parents: list[int], durations: list[int]) -> list[int]:
    """Duration of each span minus the time its direct children cover."""
    covered = [0] * len(durations)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += durations[i]
    return [d - c for d, c in zip(durations, covered)]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0
