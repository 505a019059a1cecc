"""Directed road graph: loading, traffic multipliers, shortest-time routing.

Routing is time-frozen: the traffic multiplier in force at the query instant
applies to every edge of the returned route. Route times are therefore exact
sums of length / (speed * multiplier) over the chosen edges.
"""

import bisect
import heapq
import logging
import math
from dataclasses import dataclass

from .geo import EARTH_RADIUS_M, GeoPoint, NodeIndex, haversine_m

log = logging.getLogger(__name__)

# An edge may undercut the great-circle distance between its endpoints by at
# most this factor (survey noise in real datasets). The routing heuristic has
# to honor the same slack or it loses admissibility.
MIN_LENGTH_FACTOR = 0.99

# The constants of geo.haversine_m, for route_astar's inline copy of it.
_RAD_PER_DEG = math.pi / 180.0  # the factor math.radians multiplies by
_TWO_R = 2.0 * EARTH_RADIUS_M


class NetworkLoadError(ValueError):
    """Bad network input; `edge` is the index of the offending edge, if any."""

    def __init__(self, message: str, edge: int | None = None):
        super().__init__(message)
        self.edge = edge


class TrafficState:
    """Piecewise-constant global speed multiplier.

    Entries are (start_s, multiplier) with strictly increasing start times and
    multipliers in (0, 2]. Before the first entry the multiplier is 1.0.
    Instances are immutable snapshots; building a perturbed schedule returns a
    new object.
    """

    def __init__(self, entries: list[tuple[float, float]] | None = None):
        entries = sorted(entries or [])
        last_t = None
        for t, m in entries:
            if last_t is not None and t <= last_t:
                raise ValueError(f"duplicate schedule start time {t}")
            if not (0.0 < m <= 2.0):
                raise ValueError(f"multiplier out of (0, 2]: {m}")
            last_t = t
        self.entries = tuple((float(t), float(m)) for t, m in entries)
        self._starts = [t for t, _ in self.entries]

    def multiplier_at(self, t_s: float) -> float:
        idx = bisect.bisect_right(self._starts, t_s) - 1
        return 1.0 if idx < 0 else self.entries[idx][1]

    def max_multiplier(self) -> float:
        return max([1.0] + [m for _, m in self.entries])

    def change_times(self) -> list[float]:
        return [t for t, _ in self.entries if t > 0.0]

    @classmethod
    def build(cls, schedule: list[tuple[float, float]] | None,
              walk_seed: int | None = None, walk_step_s: float = 600.0,
              walk_sigma: float = 0.1, horizon_s: float = 0.0) -> "TrafficState":
        """Materialize a schedule, optionally perturbed by a seeded random walk.

        The walk multiplies the configured schedule value; walk values are
        clamped to [0.5, 1.5] and the product is capped at 2.0.
        """
        base = cls(schedule or [])
        if walk_seed is None or horizon_s <= 0.0 or walk_step_s <= 0.0:
            return base
        import random
        rng = random.Random(walk_seed)
        walks = [1.0]  # walks[k] is the walk value from step k on

        def walk_at(k: int) -> float:
            while len(walks) <= k:
                walks.append(min(1.5, max(0.5, walks[-1] + rng.gauss(0.0, walk_sigma))))
            return walks[max(k, 0)]

        out: list[tuple[float, float]] = []
        t = 0.0
        while t <= horizon_s:
            out.append((t, min(2.0, base.multiplier_at(t) * walk_at(len(out)))))
            t += walk_step_s
        # keep configured breakpoints that fall between walk steps
        for ts, m in base.entries:
            if ts <= horizon_s and all(abs(ts - t0) > 1e-9 for t0, _ in out):
                out.append((ts, min(2.0, m * walk_at(int(ts // walk_step_s)))))
        out.sort()
        return cls(out)


@dataclass(frozen=True)
class Route:
    """A path and the elapsed time at each of its nodes (0.0 at the first).

    Elapsed times are summed hop by hop in travel order, so the last one, the
    route's total time, is reproducible bit for bit.
    """
    nodes: tuple[int, ...]
    arrive_s: tuple[float, ...]

    @property
    def total_time_s(self) -> float:
        return self.arrive_s[-1]

    def node_at_elapsed(self, dt_s: float) -> int:
        """Last node passed after dt_s seconds on this route; the first node
        before departure."""
        return self.nodes[max(0, bisect.bisect_right(self.arrive_s, dt_s) - 1)]


class RoadNetwork:
    def __init__(self, nodes: dict[int, GeoPoint],
                 edges: list[tuple[int, int, float, float]],
                 speed_limit_mps: float):
        if speed_limit_mps <= 0:
            raise NetworkLoadError(f"speed limit must be positive, got {speed_limit_mps}")
        self.nodes = dict(nodes)
        self.speed_limit_mps = float(speed_limit_mps)
        self.adj: dict[int, list[tuple[int, float, float]]] = {n: [] for n in self.nodes}
        self.radj: dict[int, list[tuple[int, float, float]]] = {n: [] for n in self.nodes}
        for k, (u, v, length, speed) in enumerate(edges):
            if u not in self.nodes or v not in self.nodes:
                raise NetworkLoadError(
                    f"edge {k} references unknown node {u if u not in self.nodes else v}", k)
            if length <= 0 or speed <= 0:
                raise NetworkLoadError(f"edge {k} has non-positive length or speed", k)
            crow = haversine_m(self.nodes[u], self.nodes[v])
            if length < MIN_LENGTH_FACTOR * crow:
                raise NetworkLoadError(
                    f"edge {k} ({u}->{v}) length {length:.2f} m shorter than "
                    f"{MIN_LENGTH_FACTOR} * great-circle {crow:.2f} m", k)
            speed = min(speed, self.speed_limit_mps)
            self.adj[u].append((v, length, speed))
            self.radj[v].append((u, length, speed))
        for n in self.adj:
            self.adj[n].sort()
            self.radj[n].sort()
        # (lat, lon, cos(radians(lat))) of each node: the terms of the A*
        # heuristic's haversine that depend on the node alone.
        self.trig = {n: (p.lat, p.lon, math.cos(math.radians(p.lat)))
                     for n, p in self.nodes.items()}
        self._index: NodeIndex | None = None
        self.component = self._scc_ids()
        if self.scc_count > 1:
            log.warning("road graph is not strongly connected: %d components", self.scc_count)

    @property
    def scc_count(self) -> int:
        """Number of strongly connected components."""
        return max(self.component.values(), default=-1) + 1

    @property
    def index(self) -> NodeIndex:
        if self._index is None:
            self._index = NodeIndex(self.nodes)
        return self._index

    def nearest_node(self, p: GeoPoint, max_radius_m: float) -> int | None:
        return self.index.nearest(p, max_radius_m)

    def _scc_ids(self) -> dict[int, int]:
        """Strongly connected component id of each node, numbered 0, 1, ...
        by Kosaraju's algorithm. Two nodes reach each other exactly when
        their ids are equal."""
        # Both passes are iterative; recursion depth would be a hazard on
        # long chains. The first lists nodes in depth-first finishing order.
        finished: list[int] = []
        seen: set[int] = set()
        for root in sorted(self.nodes):
            if root in seen:
                continue
            seen.add(root)
            work = [(root, iter(self.adj[root]))]
            while work:
                node, it = work[-1]
                for nxt, _, _ in it:
                    if nxt not in seen:
                        seen.add(nxt)
                        work.append((nxt, iter(self.adj[nxt])))
                        break
                else:
                    work.pop()
                    finished.append(node)
        # Latest finished first, each unlabelled node starts a new id, which
        # every unlabelled node that reaches it takes too.
        component: dict[int, int] = {}
        sccs = 0
        for root in reversed(finished):
            if root in component:
                continue
            component[root] = sccs
            stack = [root]
            while stack:
                for prev, _, _ in self.radj[stack.pop()]:
                    if prev not in component:
                        component[prev] = sccs
                        stack.append(prev)
            sccs += 1
        return component


def _parse_lines(path: str):
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def load_network(nodes_path: str, edges_path: str, speed_limit_mps: float) -> RoadNetwork:
    """Read `node_id lat lon` and `from to length_m speed_mps` text files.

    Speeds above the limit are clamped, not rejected.
    """
    nodes: dict[int, GeoPoint] = {}
    for lineno, line in _parse_lines(nodes_path):
        parts = line.split()
        if len(parts) != 3:
            raise NetworkLoadError(f"{nodes_path}:{lineno}: expected 'id lat lon', got {line!r}")
        try:
            nid = int(parts[0])
            lat = float(parts[1])
            lon = float(parts[2])
        except ValueError as exc:
            raise NetworkLoadError(f"{nodes_path}:{lineno}: {exc}") from exc
        if nid < 0:
            raise NetworkLoadError(f"{nodes_path}:{lineno}: negative node id {nid}")
        if nid in nodes:
            raise NetworkLoadError(f"{nodes_path}:{lineno}: duplicate node id {nid}")
        try:
            nodes[nid] = GeoPoint(lat, lon)
        except ValueError as exc:
            raise NetworkLoadError(f"{nodes_path}:{lineno}: {exc}") from exc

    edges: list[tuple[int, int, float, float]] = []
    edge_lines: list[int] = []
    for lineno, line in _parse_lines(edges_path):
        parts = line.split()
        if len(parts) != 4:
            raise NetworkLoadError(f"{edges_path}:{lineno}: expected 'from to length speed', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            length, speed = float(parts[2]), float(parts[3])
        except ValueError as exc:
            raise NetworkLoadError(f"{edges_path}:{lineno}: {exc}") from exc
        edges.append((u, v, length, speed))
        edge_lines.append(lineno)
    try:
        return RoadNetwork(nodes, edges, speed_limit_mps)
    except NetworkLoadError as exc:
        if exc.edge is None:
            raise
        raise NetworkLoadError(f"{edges_path}:{edge_lines[exc.edge]}: {exc}") from exc


def route_astar(net: RoadNetwork, src: int, dst: int, at_s: float,
                traffic: TrafficState | None = None) -> Route | None:
    """Fastest route src -> dst under the multiplier in force at at_s.

    Returns None when dst is unreachable. Ties in the frontier break to the
    lower node id, so equal-cost searches are reproducible.
    """
    if src not in net.nodes:
        raise KeyError(f"unknown source node {src}")
    if dst not in net.nodes:
        raise KeyError(f"unknown destination node {dst}")
    if src == dst:
        return Route((src,), (0.0,))
    traffic = traffic or _NO_TRAFFIC
    mult = traffic.multiplier_at(at_s)
    # Admissible bound on remaining time: no edge beats the speed limit times
    # the largest multiplier, and no path is shorter than MIN_LENGTH_FACTOR
    # times the great-circle distance. The bound is
    # MIN_LENGTH_FACTOR * haversine_m(node, dst) / denom, computed inline from
    # net.trig with haversine_m's operations in the same order (math.radians
    # is a product with pi / 180, and min(1.0, s) is s if s < 1.0 else 1.0),
    # so every value has the same bits.
    denom = net.speed_limit_mps * traffic.max_multiplier()
    trig = net.trig
    dst_lat, dst_lon, dst_cos = trig[dst]
    sin, sqrt, asin, inf = math.sin, math.sqrt, math.asin, math.inf
    heappush, heappop, adj = heapq.heappush, heapq.heappop, net.adj
    best_g: dict[int, float] = {src: 0.0}
    parent: dict[int, tuple[int, float]] = {}
    heap: list[tuple[float, int, float]] = [(0.0, src, 0.0)]  # popped alone: f is moot
    while heap:
        _, node, g = heappop(heap)
        if g > best_g[node]:
            continue
        if node == dst:
            break
        for (nxt, length, speed) in adj[node]:
            hop = length / (speed * mult)
            ng = g + hop
            if ng < best_g.get(nxt, inf):
                best_g[nxt] = ng
                parent[nxt] = (node, hop)
                lat, lon, cos_lat = trig[nxt]
                h = (sin((dst_lat - lat) * _RAD_PER_DEG / 2.0) ** 2
                     + cos_lat * dst_cos * sin((dst_lon - lon) * _RAD_PER_DEG / 2.0) ** 2)
                s = sqrt(h)
                dist = _TWO_R * asin(s if s < 1.0 else 1.0)
                heappush(heap, (ng + MIN_LENGTH_FACTOR * dist / denom, nxt, ng))
    if dst not in parent:
        return None
    path = [dst]
    hops: list[float] = []
    while path[-1] != src:
        prev, hop = parent[path[-1]]
        path.append(prev)
        hops.append(hop)
    arrive = [0.0]
    for hop in reversed(hops):  # accumulate in travel order so the sum is reproducible
        arrive.append(arrive[-1] + hop)
    return Route(tuple(reversed(path)), tuple(arrive))


class ReverseSearch:
    """Reverse Dijkstra toward one destination that settles nodes on demand.

    Nodes settle in (time, node id) order under the multiplier in force at
    at_s. `settled` maps each settled node to its travel time to the
    destination; a node's value is final once it is there, and equals the
    total time of route_astar(net, node, dst, ...) on exactly-representable
    edge times. Stopping early and resuming later settles the same nodes
    with the same values as one uninterrupted scan.
    """

    def __init__(self, net: RoadNetwork, dst: int, at_s: float,
                 traffic: TrafficState | None = None):
        if dst not in net.nodes:
            raise KeyError(f"unknown destination node {dst}")
        self._radj = net.radj
        self._mult = (traffic or _NO_TRAFFIC).multiplier_at(at_s)
        self._tentative: dict[int, float] = {dst: 0.0}
        self._heap: list[tuple[float, int]] = [(0.0, dst)]
        self.settled: dict[int, float] = {}

    def settle(self, limit: float = math.inf) -> int | None:
        """Settle the closest unsettled node if its time is at most `limit`.

        Returns that node, or None when the frontier lies beyond `limit` or
        every reachable node is settled already.
        """
        heap = self._heap
        settled = self.settled
        tentative = self._tentative
        mult = self._mult
        while heap:
            d, node = heap[0]
            if node in settled:
                heapq.heappop(heap)
                continue
            if d > limit:
                return None
            heapq.heappop(heap)
            settled[node] = d
            for (prev, length, speed) in self._radj[node]:
                nd = d + length / (speed * mult)
                if nd < tentative.get(prev, math.inf):
                    tentative[prev] = nd
                    heapq.heappush(heap, (nd, prev))
            return node
        return None


def eta_table(net: RoadNetwork, dst: int, at_s: float,
              traffic: TrafficState | None = None,
              sources: set[int] | None = None) -> dict[int, float]:
    """Travel time to dst from every reachable node (or just `sources`).

    Runs a ReverseSearch until every source (or every reachable node) is
    settled. Unreachable sources are simply absent from the result.
    """
    search = ReverseSearch(net, dst, at_s, traffic)
    remaining = None if sources is None else set(sources)
    while remaining is None or remaining:
        node = search.settle()
        if node is None:
            break
        if remaining is not None:
            remaining.discard(node)
    if sources is None:
        return dict(search.settled)
    return {s: search.settled[s] for s in sources if s in search.settled}


_NO_TRAFFIC = TrafficState([])
