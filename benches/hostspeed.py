"""Host speed, from a fixed pure-Python computation timed between commands.

On a shared host the interpreter's speed drifts by tens of percent over
seconds to minutes, so a wall-clock rate measured in one run and one measured
a few minutes later can differ by more than any change worth detecting. A
graph search of fixed size, written here and independent of the simulator,
slows down with the host. A run samples it right after every command, for a
tenth of that command's time, and scales the command's wall-clock figures by
NOMINAL / (median sample): the result is what the command would have taken
on a host running this search at NOMINAL searches per second.
"""

import gc
import heapq
import math
import time

GRID = 30
SEARCHES = 100  # one sample; about 0.13 s at NOMINAL
# Searches per second of the machine the benchmark was calibrated on: a
# shared 2-core virtual machine running Python 3.11.
NOMINAL = 750.0


def _grid() -> dict[int, list[tuple[int, float]]]:
    adj: dict[int, list[tuple[int, float]]] = {i: [] for i in range(GRID * GRID)}
    for r in range(GRID):
        for c in range(GRID):
            i = r * GRID + c
            for rr, cc in ((r + 1, c), (r, c + 1)):
                if rr < GRID and cc < GRID:
                    j = rr * GRID + cc
                    w = 1.0 + ((i * 7 + j * 13) % 10) / 10.0
                    adj[i].append((j, w))
                    adj[j].append((i, w))
    return adj


_ADJ = _grid()


def search(src: int) -> dict[int, float]:
    """Dijkstra from src over the fixed grid; the unit of reference work."""
    inf = math.inf
    dist = {src: 0.0}
    done = set()
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in _ADJ[u]:
            nd = d + w
            if nd < dist.get(v, inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def sample() -> float:
    """Reference searches per second, measured now."""
    gc.collect()
    t0 = time.perf_counter()
    for src in range(SEARCHES):
        search(src)
    return SEARCHES / (time.perf_counter() - t0)


def samples_for(seconds: float) -> list[float]:
    """Samples taken back to back for about `seconds`, at least one."""
    t_end = time.perf_counter() + seconds
    out = [sample()]
    while time.perf_counter() < t_end:
        out.append(sample())
    return out
