"""Directed road graph: loading, traffic multipliers, shortest-time routing.

Routing is time-frozen: the traffic multiplier in force at the query instant
applies to every edge of the returned route. Route times are therefore exact
sums of length / (speed * multiplier) over the chosen edges.
"""

import bisect
import heapq
import logging
import math
from array import array
from collections.abc import Container
from itertools import accumulate
from operator import itemgetter
from dataclasses import dataclass
from functools import cached_property

from .geo import EARTH_RADIUS_M, GeoPoint, NodeIndex, haversine_m

log = logging.getLogger(__name__)

# An edge may undercut the great-circle distance between its endpoints by at
# most this factor (survey noise in real datasets). The routing heuristic has
# to honor the same slack or it loses admissibility.
MIN_LENGTH_FACTOR = 0.99

# route_astar prunes against its bound times (1 + BOUND_SLACK). Given a
# reverse search that settled the source, the bound starts at that settled
# time, a sum of the same hop times in the other order, and a forward and a
# reverse sum of k hops differ by about k * 2**-53 relative. The slack covers
# that for any route of fewer than a million hops, so the first attempt
# reaches dst; an attempt that fell short would only rerun, never change the
# route.
BOUND_SLACK = 1e-9

# Landmark rows (RoadNetwork.landmarks) are Dijkstra sums, and a sum of k
# hops is off by at most about k * 2**-53 of its size, so a difference of two
# rows can overshoot the time it bounds by that share of both their sizes.
# Each stored value is moved down by LANDMARK_SLACK of its size and a
# destination's value up by three times that, which takes LANDMARK_SLACK of
# both sizes off every difference: more than their rounding, and than the
# rounding of the difference and of its rescaling to another multiplier
# (route_astar), for any landmark path of fewer than a million hops.
LANDMARK_SLACK = 1e-9

# An unbounded route_astar that falls short reruns with its bound raised by
# BOUND_RAISE, then BOUND_RAISE**2, and so on (or to the least key it dropped
# if that is higher), so a bound k attempts short has grown by
# BOUND_RAISE**(k * (k + 1) / 2) and overshoots by at most the last factor.
# On the bench's one-way network 1.03 pops the fewest nodes of 1.02, 1.025,
# 1.03 and 1.04, and of a fixed factor of 1.02, 1.05, 1.1 or 1.2, which
# take more attempts or overshoot further; the least dropped key alone
# (IDA*) pops eight times as many. A search whose landmark bound is no
# better than its great-circle bound starts from the latter, which is about
# where two attempts from 0 get to (the least key dropped, then the
# great-circle keys around the source), and raises as they would, by
# BOUND_RAISE**3 first: with an all-zero landmark table that pushes 5% fewer
# heap entries than a start from 0, and raising by BOUND_RAISE first 15% more.
BOUND_RAISE = 1.03

# The constants of geo.haversine_m, for route_astar's inline copy of it.
_RAD_PER_DEG = math.pi / 180.0  # the factor math.radians multiplies by
_TWO_R = 2.0 * EARTH_RADIUS_M

# A seeded traffic walk steps every walk_step_s, by a gaussian of walk_sigma.
DEFAULT_WALK_STEP_S = 600.0
DEFAULT_WALK_SIGMA = 0.1


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
        self._max = max([1.0] + [m for _, m in self.entries])

    def multiplier_at(self, t_s: float) -> float:
        idx = bisect.bisect_right(self._starts, t_s) - 1
        return 1.0 if idx < 0 else self.entries[idx][1]

    def max_multiplier(self) -> float:
        return self._max

    def change_times(self) -> list[float]:
        return [t for t, _ in self.entries if t > 0.0]

    @classmethod
    def build(cls, schedule: list[tuple[float, float]] | None,
              walk_seed: int | None = None, walk_step_s: float = DEFAULT_WALK_STEP_S,
              walk_sigma: float = DEFAULT_WALK_SIGMA, horizon_s: float = 0.0) -> "TrafficState":
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
        return self.nodes[self.index_at_elapsed(dt_s)]

    def index_at_elapsed(self, dt_s: float) -> int:
        """The index in `nodes` of node_at_elapsed(dt_s)."""
        return max(0, bisect.bisect_right(self.arrive_s, dt_s) - 1)


class RoadNetwork:
    """Nodes are numbered 0, 1, ... in ascending id order (`ids`,
    `index_of`), so a search that orders by index orders by id. Each node's
    (lat, lon, cos(radians(lat))), the terms of a great-circle distance that
    depend on that node alone, is computed once at load and kept by index.
    Edges are kept as flat arrays, node i's out-edges sorted at positions
    first[i]:first[i + 1]; the searches read the per-multiplier tables of
    `edge_times` instead."""

    def __init__(self, nodes: dict[int, GeoPoint],
                 edges: list[tuple[int, int, float, float]],
                 speed_limit_mps: float):
        if speed_limit_mps <= 0:
            raise NetworkLoadError(f"speed limit must be positive, got {speed_limit_mps}")
        self.nodes = dict(nodes)
        self.speed_limit_mps = float(speed_limit_mps)
        self.ids = sorted(self.nodes)
        self.index_of = index_of = {n: i for i, n in enumerate(self.ids)}
        self._ends = ends = [(p.lat, p.lon, math.cos(math.radians(p.lat)))
                             for p in map(self.nodes.__getitem__, self.ids)]
        sin, sqrt, asin = math.sin, math.sqrt, math.asin
        limit, get = self.speed_limit_mps, index_of.get
        out: list[list[tuple[int, float, float]]] = [[] for _ in self.ids]
        for k, (u, v, length, speed) in enumerate(edges):
            i, j = get(u), get(v)
            if i is None or j is None:
                raise NetworkLoadError(
                    f"edge {k} references unknown node {u if i is None else v}", k)
            if length <= 0 or speed <= 0:
                raise NetworkLoadError(f"edge {k} has non-positive length or speed", k)
            if not (length < math.inf and speed == speed):
                raise NetworkLoadError(f"edge {k} has a non-finite length or a NaN speed", k)
            # haversine_m(nodes[u], nodes[v]), inline as in route_astar
            lat1, lon1, cos1 = ends[i]
            lat2, lon2, cos2 = ends[j]
            s = sqrt(sin((lat2 - lat1) * _RAD_PER_DEG / 2.0) ** 2
                     + cos1 * cos2 * sin((lon2 - lon1) * _RAD_PER_DEG / 2.0) ** 2)
            crow = _TWO_R * asin(s if s < 1.0 else 1.0)
            if length < MIN_LENGTH_FACTOR * crow:
                raise NetworkLoadError(
                    f"edge {k} ({u}->{v}) length {length:.2f} m shorter than "
                    f"{MIN_LENGTH_FACTOR} * great-circle {crow:.2f} m", k)
            out[i].append((j, length, speed if speed < limit else limit))
        for row in out:
            row.sort()
        self._first = array("l", [0, *accumulate(map(len, out))])
        self._to = array("l", [v for row in out for v, _, _ in row])
        self._length = array("d", [length for row in out for _, length, _ in row])
        self._speed = array("d", [speed for row in out for _, _, speed in row])
        self._mult: float | None = None
        self._forward: list[list[tuple[int, float]]] = []
        self._reverse: list[list[tuple[int, float]]] = []
        self._index: NodeIndex | None = None
        self._landmarks: tuple[float, list[array]] | None = None
        # route_astar's per-node best time, parent and hop time, kept between
        # searches; `touched` lists the best times a search set, which the
        # next one resets (parents and hops are read only where it set them).
        self._scratch = ([math.inf] * len(self.ids), [-1] * len(self.ids),
                         [0.0] * len(self.ids), [])
        self.component = self._scc_ids(out)
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

    def edges(self) -> list[tuple[int, int, float, float]]:
        """Every edge as (from, to, length, speed), speeds clamped to the
        limit, in (from, to, length, speed) order."""
        ids, first = self.ids, self._first
        return [(ids[i], ids[self._to[k]], self._length[k], self._speed[k])
                for i in range(len(ids)) for k in range(first[i], first[i + 1])]

    def edge_times(self, mult: float) -> tuple[list[list[tuple[int, float]]],
                                                list[list[tuple[int, float]]]]:
        """(forward, reverse) tables under multiplier mult, by node index.

        forward[i] holds (next, time) for each out-edge of node i and
        reverse[i] holds (prev, time) for each in-edge. time is
        length / (speed * mult), one float per edge that both tables share,
        so every search reads the same bits. Only the last multiplier's
        tables are kept, and they are built on first use; a search that
        holds older ones keeps them alive.
        """
        if mult != self._mult:
            self._forward = self._reverse = []  # free the old tables before building
            first, to, length, speed = self._first, self._to, self._length, self._speed
            forward = []
            reverse: list[list[tuple[int, float]]] = [[] for _ in self.ids]
            for u in range(len(self.ids)):
                row = []
                for k in range(first[u], first[u + 1]):
                    v = to[k]
                    time_s = length[k] / (speed[k] * mult)
                    row.append((v, time_s))
                    reverse[v].append((u, time_s))
                forward.append(row)
            self._mult, self._forward, self._reverse = mult, forward, reverse
        return self._forward, self._reverse

    def landmarks(self, mult: float) -> tuple[float, list[array]]:
        """(m0, rows): for each landmark, by node index, a row of each
        node's time to it and a row of minus its time to each node, under
        multiplier m0, each value moved down by LANDMARK_SLACK of its size.
        For every row r and nodes v, w, r[v] - r[w] bounds the time from v
        to w under m0 from below, once r[w] is moved up (_landmark_terms),
        and is infinite only when v cannot reach w.

        The landmarks are the nodes farthest out along lat + lon, lat - lon
        and their opposites (lowest id on a tie): on a grid, a corner beyond
        the destination gives the exact time. The rows are built on first
        use from the edge_times tables of the multiplier in force then, m0,
        and serve every multiplier m scaled by m0 / m, since edge times are
        length / (speed * m).
        """
        if self._landmarks is None:
            forward, reverse = self.edge_times(mult)
            ends = self._ends
            picked: list[int] = []
            for a, b in ((1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0)):
                node = max(range(len(ends)), key=lambda i: a * ends[i][0] + b * ends[i][1])
                if node not in picked:
                    picked.append(node)
            rows = []
            for node in picked:
                rows.append(array("d", [t * (1.0 - LANDMARK_SLACK)
                                        for t in _dijkstra(reverse, node)]))
                rows.append(array("d", [-t * (1.0 + LANDMARK_SLACK)
                                        for t in _dijkstra(forward, node)]))
            self._landmarks = (mult, rows)
        return self._landmarks

    def _scc_ids(self, out: list[list[tuple[int, float, float]]]) -> dict[int, int]:
        """Strongly connected component id of each node, numbered 0, 1, ...
        by Kosaraju's algorithm over out, each node index's out-edges as
        (next index, length, speed). Two nodes reach each other exactly when
        their ids are equal."""
        # Both passes are iterative; recursion depth would be a hazard on
        # long chains. The first lists nodes in depth-first finishing order.
        finished: list[int] = []
        seen = [False] * len(out)
        for root in range(len(out)):
            if seen[root]:
                continue
            seen[root] = True
            work = [(root, iter(out[root]))]
            while work:
                node, it = work[-1]
                for nxt, _, _ in it:
                    if not seen[nxt]:
                        seen[nxt] = True
                        work.append((nxt, iter(out[nxt])))
                        break
                else:
                    work.pop()
                    finished.append(node)
        preds: list[list[int]] = [[] for _ in out]
        for u, row in enumerate(out):
            for v, _, _ in row:
                preds[v].append(u)
        # Latest finished first, each unlabelled node starts a new id, which
        # every unlabelled node that reaches it takes too.
        component = [-1] * len(out)
        sccs = 0
        for root in reversed(finished):
            if component[root] >= 0:
                continue
            component[root] = sccs
            stack = [root]
            while stack:
                for prev in preds[stack.pop()]:
                    if component[prev] < 0:
                        component[prev] = sccs
                        stack.append(prev)
            sccs += 1
        return dict(zip(self.ids, component))


def _dijkstra(rows: list[list[tuple[int, float]]], start: int) -> list[float]:
    """Time from start to every node index over rows, one row of (next,
    time) per node: forward rows give times from start, reverse rows times
    to it; inf where there is no path."""
    dist = [math.inf] * len(rows)
    dist[start] = 0.0
    heap = [(0.0, start)]
    heappush, heappop = heapq.heappush, heapq.heappop
    while heap:
        d, node = heappop(heap)
        if d > dist[node]:
            continue
        for nxt, time_s in rows[node]:
            nd = d + time_s
            if nd < dist[nxt]:
                dist[nxt] = nd
                heappush(heap, (nd, nxt))
    return dist


def _landmark_terms(rows: list[array], start: int, goal: int,
                    scale: float) -> list[tuple[float, array, float]]:
    """(bound, row, c) for each landmark row, best bound first: c is the
    row's value at node index goal moved up by three times LANDMARK_SLACK of
    its size, so that (row[v] - c) * scale bounds v's time to goal under the
    multiplier m0 / scale, and bound is that at start, with nan (a row that
    knows neither node) counted as -inf."""
    terms = []
    for row in rows:
        c = row[goal]
        c *= 1.0 + 3.0 * LANDMARK_SLACK if c > 0.0 else 1.0 - 3.0 * LANDMARK_SLACK
        lb = (row[start] - c) * scale
        terms.append((lb if lb == lb else -math.inf, row, c))
    terms.sort(key=itemgetter(0), reverse=True)
    return terms


def _parse_lines(path: str):
    """(line number, raw line, its whitespace-separated fields) of each line
    of path that is neither blank nor a comment; a leading byte-order mark
    is dropped."""
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            yield lineno, raw, parts


def load_network(nodes_path: str, edges_path: str, speed_limit_mps: float) -> RoadNetwork:
    """Read `node_id lat lon` and `from to length_m speed_mps` text files.

    Lengths must be positive and finite and speeds positive; speeds above
    the limit, +inf among them, are clamped, not rejected.
    """
    nodes: dict[int, GeoPoint] = {}
    for lineno, raw, parts in _parse_lines(nodes_path):
        if len(parts) != 3:
            raise NetworkLoadError(
                f"{nodes_path}:{lineno}: expected 'id lat lon', got {raw.strip()!r}")
        try:
            nid, lat, lon = int(parts[0]), float(parts[1]), float(parts[2])
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
    for lineno, raw, parts in _parse_lines(edges_path):
        if len(parts) != 4:
            raise NetworkLoadError(
                f"{edges_path}:{lineno}: expected 'from to length speed', got {raw.strip()!r}")
        try:
            edges.append((int(parts[0]), int(parts[1]), float(parts[2]), float(parts[3])))
        except ValueError as exc:
            raise NetworkLoadError(f"{edges_path}:{lineno}: {exc}") from exc
        edge_lines.append(lineno)
    try:
        return RoadNetwork(nodes, edges, speed_limit_mps)
    except NetworkLoadError as exc:
        if exc.edge is None:
            raise
        raise NetworkLoadError(f"{edges_path}:{edge_lines[exc.edge]}: {exc}") from exc


def route_astar(net: RoadNetwork, src: int, dst: int, at_s: float,
                traffic: TrafficState | None = None,
                search: "ReverseSearch | None" = None) -> Route | None:
    """Fastest route src -> dst under the multiplier in force at at_s.

    Returns None when dst is unreachable. Ties in the frontier break to the
    lower node id, so equal-cost searches are reproducible.

    The search bounds itself: it skips every node whose time so far plus a
    lower bound on its time to dst passes a bound b times
    (1 + BOUND_SLACK), and reruns with b raised until it reaches dst. Each
    node it keeps has the same heap key as in an unbounded search, so every
    attempt that reaches dst gives the same route, bit for bit. The lower
    bounds are the great-circle one under the multiplier in force and the
    landmark one: the best of the three rows of net.landmarks that bound
    src's time best, each row r giving r[node] - r[dst] (r[dst] moved up by
    the LANDMARK_SLACK argued there) scaled to the multiplier in force.
    Neither orders the heap. A node that cannot reach dst has an infinite
    landmark bound and is skipped; a row that knows neither node gives nan,
    which skips nothing. A src whose landmark bound is infinite gives None
    with no search.

    `search`, a ReverseSearch over net toward dst under the same multiplier,
    adds a third lower bound: a node's time to dst is at least its settled
    time if it has one, else the search's radius. A search toward another
    node or under another multiplier raises ValueError.

    b starts from the largest of src's three bounds: with src settled, its
    exact time, so only the nodes that can lie on a fastest route are kept;
    else the landmark bound, its slack given back, or the great-circle one.
    Each rerun raises b by a growing factor (BOUND_RAISE), or to the least
    key it dropped if that is higher. An underestimate costs one more
    attempt, never another route. An attempt that dropped no node that can
    reach dst was the unbounded search, so its None is final.
    """
    if src not in net.nodes:
        raise KeyError(f"unknown source node {src}")
    if dst not in net.nodes:
        raise KeyError(f"unknown destination node {dst}")
    traffic = traffic or _NO_TRAFFIC
    mult = traffic.multiplier_at(at_s)
    if search is not None and (search.net is not net or search.dst != dst
                               or search.mult != mult):
        raise ValueError(f"search toward node {search.dst} under multiplier {search.mult} "
                         f"cannot prune a route to node {dst} under {mult}")
    if src == dst:
        return Route((src,), (0.0,))
    forward, _ = net.edge_times(mult)
    # Nodes are indices from here on; index order is id order, so the heap's
    # (f, node, g) keys break ties as they would on ids.
    start, goal = net.index_of[src], net.index_of[dst]
    base, rows = net.landmarks(mult)
    scale = base / mult
    # The three rows that bound src's time best prune (repeated if there
    # are fewer): 3 rows pop a third fewer nodes than 2 on the bench's
    # one-way network, and 4 or more save few pops for their cost.
    terms = _landmark_terms(rows, start, goal, scale)
    src_lb, r1, c1 = terms[0]
    if src_lb == math.inf:
        return None
    (_, r2, c2), (_, r3, c3) = (terms[1:] + terms)[:2]
    # A settled node's tentative time is its time to dst, at most the radius;
    # an unsettled node's is at least its time to dst, itself at least the
    # radius. So min(tentative, radius) bounds every node's time from below.
    if search is None:
        lower, radius, known = None, 0.0, 0.0
    else:
        lower, radius = search._tentative, search.radius
        known = min(lower[start], radius)
    # Admissible bound on remaining time: no edge beats the speed limit times
    # the largest multiplier, and no path is shorter than MIN_LENGTH_FACTOR
    # times the great-circle distance. The bound is
    # MIN_LENGTH_FACTOR * haversine_m(node, dst) / denom, computed inline from
    # the network's node terms, read only for a node the landmark bound keeps,
    # with haversine_m's operations in the same order (math.radians is a
    # product with pi / 180, and min(1.0, s) is s if s < 1.0 else 1.0), so
    # every value has the same bits. It orders the heap. Pruning may use the
    # multiplier in force instead, a tighter bound that is still admissible,
    # as it only ever drops nodes whose every path to dst is slower than
    # `bound`.
    denom = net.speed_limit_mps * traffic.max_multiplier()
    denom_now = net.speed_limit_mps * mult
    per_m_now = MIN_LENGTH_FACTOR / denom_now
    raise_by = BOUND_RAISE
    b = haversine_m(net.nodes[src], net.nodes[dst]) * per_m_now
    if known >= src_lb and known > b:  # exact once src is settled
        b = known
    elif src_lb > b:  # with its slack given back
        b = src_lb + 4.0 * LANDMARK_SLACK * (abs(r1[start]) + abs(c1)) * scale
    else:
        raise_by = BOUND_RAISE ** 3
    ends = net._ends
    dst_lat, dst_lon, dst_cos = ends[goal]
    sin, sqrt, asin = math.sin, math.sqrt, math.asin
    heappush, heappop = heapq.heappush, heapq.heappop
    best_g, parent, hop_s, touched = net._scratch
    while True:
        for node in touched:
            best_g[node] = math.inf
        touched.clear()
        touched.append(start)
        best_g[start] = 0.0
        bound = b * (1.0 + BOUND_SLACK)
        least = math.inf  # the least key of a node dropped
        heap: list[tuple[float, int, float]] = [(0.0, start, 0.0)]  # popped alone: f is moot
        while heap:
            _, node, g = heappop(heap)
            if g > best_g[node]:
                continue
            if node == goal:
                break
            for nxt, hop in forward[node]:
                ng = g + hop
                if ng < best_g[nxt]:
                    # Every path through nxt this way is slower than the
                    # bound, so it is no route within it and takes part in
                    # no tie. At the goal, where every lower bound is 0 or
                    # just below, this drops an answer above the bound.
                    if lower is not None:
                        lb = lower[nxt]
                        key = ng + (lb if lb < radius else radius)
                        if key > bound:
                            if key < least:
                                least = key
                            continue
                    lb = r1[nxt] - c1
                    other = r2[nxt] - c2
                    if other > lb:
                        lb = other
                    other = r3[nxt] - c3
                    if other > lb:
                        lb = other
                    key = ng + lb * scale
                    if key > bound:
                        if key < least:
                            least = key
                        continue
                    lat, lon, cos_lat = ends[nxt]
                    h = (sin((dst_lat - lat) * _RAD_PER_DEG / 2.0) ** 2
                         + cos_lat * dst_cos * sin((dst_lon - lon) * _RAD_PER_DEG / 2.0) ** 2)
                    s = sqrt(h)
                    dist = _TWO_R * asin(s if s < 1.0 else 1.0)
                    key = ng + dist * per_m_now
                    if key > bound:
                        if key < least:
                            least = key
                        continue
                    best_g[nxt] = ng
                    parent[nxt] = node
                    hop_s[nxt] = hop
                    touched.append(nxt)
                    heappush(heap, (ng + MIN_LENGTH_FACTOR * dist / denom, nxt, ng))
        if best_g[goal] < math.inf or least == math.inf:
            break
        b = max(b * raise_by, least)
        raise_by *= BOUND_RAISE
    if best_g[goal] == math.inf:
        return None
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    path.reverse()
    arrive = [0.0]
    for node in path[1:]:  # accumulate in travel order so the sum is reproducible
        arrive.append(arrive[-1] + hop_s[node])
    return Route(tuple(net.ids[i] for i in path), tuple(arrive))


class RouteQuery:
    """The fastest route src -> dst under the multiplier in force at at_s,
    searched when `route` is first read and kept: a plan holds its trip as
    one, and only a trip someone rides is ever searched. route_astar is a
    pure function of its arguments, so the route does not depend on when
    it is read; reading it while the network still holds the tables of
    at_s's multiplier spares a rebuild (RoadNetwork.edge_times)."""

    def __init__(self, net: RoadNetwork, src: int, dst: int, at_s: float,
                 traffic: TrafficState | None = None):
        self.net, self.src, self.dst = net, src, dst
        self.at_s, self.traffic = at_s, traffic

    @cached_property
    def route(self) -> Route | None:
        """The route, None if dst cannot be reached."""
        return route_astar(self.net, self.src, self.dst, self.at_s, self.traffic)


class ReverseSearch:
    """Reverse Dijkstra toward one destination that settles nodes on demand.

    Nodes settle in (time, node id) order under the multiplier in force at
    at_s. `settled` maps each settled node to its travel time to the
    destination; a node's value is final once it is there, and equals the
    total time of route_astar(net, node, dst, ...) on exactly-representable
    edge times. Stopping early and resuming later settles the same nodes
    with the same values as one uninterrupted scan, also after the network
    has built tables for another multiplier: the search keeps its own.
    `net`, `dst` and `mult` name what it searches, and `radius` is the
    largest time settled so far (0.0 before the first settle); no unsettled
    node is closer to the destination.
    """

    def __init__(self, net: RoadNetwork, dst: int, at_s: float,
                 traffic: TrafficState | None = None):
        if dst not in net.nodes:
            raise KeyError(f"unknown destination node {dst}")
        self.net, self.dst = net, dst
        self.mult = (traffic or _NO_TRAFFIC).multiplier_at(at_s)
        _, self._reverse = net.edge_times(self.mult)
        self._ids = net.ids
        goal = net.index_of[dst]
        # By node index, as in the tables; a heap entry is stale once its
        # time exceeds the node's tentative time.
        self._tentative = [math.inf] * len(self._ids)
        self._tentative[goal] = 0.0
        self._heap: list[tuple[float, int]] = [(0.0, goal)]
        self.settled: dict[int, float] = {}
        self.radius = 0.0

    def settle(self, limit: float = math.inf,
               until: Container[int] | None = None) -> int | None:
        """Settle nodes in order while the closest unsettled one's time is at
        most `limit`, and return the first one in `until` (any node if None),
        as repeated one-node calls would reach it; None once the frontier
        lies beyond `limit` or every reachable node is settled."""
        heap, tentative, reverse = self._heap, self._tentative, self._reverse
        ids, settled = self._ids, self.settled
        heappop, heappush = heapq.heappop, heapq.heappush
        radius, found = self.radius, None
        while heap:
            d, node = heappop(heap)
            if d > tentative[node]:
                continue
            if d > limit:
                # A node is pushed only at a time below its last, so heap
                # entries are distinct: putting the least one back leaves
                # the pop order as it was.
                heappush(heap, (d, node))
                break
            for prev, time_s in reverse[node]:
                nd = d + time_s
                if nd < tentative[prev]:
                    tentative[prev] = nd
                    heappush(heap, (nd, prev))
            node_id = ids[node]
            settled[node_id] = radius = d
            if until is None or node_id in until:
                found = node_id
                break
        self.radius = radius
        return found


def eta_table(net: RoadNetwork, dst: int, at_s: float,
              traffic: TrafficState | None = None) -> dict[int, float]:
    """Travel time to dst from every node that can reach it: a drained
    ReverseSearch."""
    search = ReverseSearch(net, dst, at_s, traffic)
    search.settle(until=())
    return search.settled


_NO_TRAFFIC = TrafficState([])
