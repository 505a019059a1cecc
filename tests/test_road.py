"""Road network loading, traffic multipliers, and time-dependent routing."""

import codecs
import copy
import dataclasses
import hashlib
import heapq
import math
import pickle
import random
from array import array
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amodsim import road
from amodsim.geo import GeoPoint, haversine_m
from amodsim.road import (
    _landmark_terms,
    NetworkLoadError,
    ReverseSearch,
    RoadNetwork,
    Route,
    TrafficState,
    eta_table,
    load_network,
    route_astar,
)
import scenario_tools
from scenario_tools import (
    DYADIC_MULTIPLIERS,
    dijkstra_times,
    grid_network,
    hop_route,
    out_edges,
    random_network,
    reference_route_astar,
    travel_time_s,
    walk_node_at_elapsed,
)


def moved(net: RoadNetwork, dlat: float) -> RoadNetwork:
    """net with every node moved dlat degrees north. Moving away from the
    equator only shortens great circles, so every edge stays valid."""
    nodes = {n: GeoPoint(p.lat + dlat, p.lon) for n, p in net.nodes.items()}
    return RoadNetwork(nodes, net.edges(), net.speed_limit_mps)


def relabelled(net: RoadNetwork, rng: random.Random) -> RoadNetwork:
    """net with its nodes given sparse ids in shuffled order (say 7, 1000,
    3, ...), so id order is neither 0, 1, ... nor the old order."""
    new_id = dict(zip(net.ids, rng.sample(range(10 * len(net.nodes) + 10), len(net.nodes))))
    nodes = {new_id[n]: p for n, p in net.nodes.items()}
    edges = [(new_id[u], new_id[v], length, speed) for u, v, length, speed in net.edges()]
    return RoadNetwork(nodes, edges, net.speed_limit_mps)


def test_traffic_multiplier_piecewise():
    ts = TrafficState([(0.0, 1.0), (600.0, 1.5), (1200.0, 0.8)])
    assert ts.multiplier_at(-1.0) == 1.0
    assert ts.multiplier_at(0.0) == 1.0
    assert ts.multiplier_at(599.9) == 1.0
    assert ts.multiplier_at(600.0) == 1.5     # new value holds from its start
    assert ts.multiplier_at(1199.0) == 1.5
    assert ts.multiplier_at(1200.0) == 0.8
    assert ts.multiplier_at(1e9) == 0.8
    assert ts.max_multiplier() == 1.5
    assert ts.change_times() == [600.0, 1200.0]


def test_traffic_multiplier_matches_a_linear_scan():
    """The multiplier in force is that of the last entry starting at or
    before t, probed at each breakpoint, just around it, between breakpoints
    and outside the schedule."""
    rng = random.Random(7)
    for _ in range(3000):
        starts = sorted(rng.sample(range(-50, 200), rng.randint(0, 8)))
        entries = [(t * 7.5, rng.choice((0.25, 0.5, 1.0, 1.5, 2.0))) for t in starts]
        ts = TrafficState(entries)
        probes = [-1e9, 1e9, rng.uniform(-500.0, 1600.0)]
        for t, _ in entries:
            probes += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf), t + 3.75]
        for t in probes:
            expected = 1.0
            for start, m in entries:
                if start <= t:
                    expected = m
            assert ts.multiplier_at(t) == expected, (entries, t)


def test_traffic_defaults_and_validation():
    empty = TrafficState([])
    assert empty.multiplier_at(12345.0) == 1.0
    assert empty.max_multiplier() == 1.0
    assert empty.change_times() == []
    # max never drops under the implicit pre-schedule value of 1.0
    assert TrafficState([(0.0, 0.5)]).max_multiplier() == 1.0
    assert TrafficState([(0.0, 0.5), (60.0, 0.9), (120.0, 0.25)]).max_multiplier() == 1.0
    mixed = TrafficState([(0.0, 0.5), (60.0, 1.75), (120.0, 0.9), (180.0, 1.5)])
    assert mixed.max_multiplier() == 1.75
    assert mixed.max_multiplier() == 1.75  # kept from construction, asked twice
    with pytest.raises(ValueError):
        TrafficState([(0.0, 1.0), (0.0, 1.2)])
    with pytest.raises(ValueError):
        TrafficState([(0.0, 0.0)])
    with pytest.raises(ValueError):
        TrafficState([(0.0, 2.5)])


def test_traffic_walk_is_seeded_and_clamped():
    sched = [(0.0, 1.0), (3600.0, 1.8)]
    a = TrafficState.build(sched, walk_seed=9, walk_step_s=600.0,
                           walk_sigma=0.4, horizon_s=7200.0)
    b = TrafficState.build(sched, walk_seed=9, walk_step_s=600.0,
                           walk_sigma=0.4, horizon_s=7200.0)
    assert a.entries == b.entries
    assert len(a.entries) >= 13
    for t, m in a.entries:
        assert 0.0 < m <= 2.0
    c = TrafficState.build(sched, walk_seed=10, walk_step_s=600.0,
                           walk_sigma=0.4, horizon_s=7200.0)
    assert a.entries != c.entries
    plain = TrafficState.build(sched, walk_seed=None)
    assert plain.entries == TrafficState(sched).entries


def test_traffic_walk_breakpoints_between_steps_take_the_walk_in_force():
    def walk_after(k, seed, sigma):  # oracle: replay k walk steps from the seed
        rng = random.Random(seed)
        w = 1.0
        for _ in range(k):
            w = min(1.5, max(0.5, w + rng.gauss(0.0, sigma)))
        return w

    # a breakpoint before the first step takes the unperturbed walk
    built = TrafficState.build([(-300.0, 1.2), (0.0, 1.0), (900.0, 1.5)], walk_seed=7,
                               walk_step_s=600.0, walk_sigma=0.3, horizon_s=1800.0)
    w = [walk_after(k, 7, 0.3) for k in range(4)]
    assert built.entries == ((-300.0, 1.2), (0.0, w[0]), (600.0, w[1]),
                             (900.0, min(2.0, 1.5 * w[1])), (1200.0, min(2.0, 1.5 * w[2])),
                             (1800.0, min(2.0, 1.5 * w[3])))

    # Summed steps of 0.1 overshoot 1.6, so the walk stops at step 15 and the
    # breakpoint at the horizon reads step 16, past the last step taken.
    built = TrafficState.build([(0.0, 1.0), (1.6, 1.5)], walk_seed=3,
                               walk_step_s=0.1, walk_sigma=0.3, horizon_s=1.6)
    assert len(built.entries) == 17
    assert built.entries[-2][1] == walk_after(15, 3, 0.3)
    assert built.entries[-1] == (1.6, min(2.0, 1.5 * walk_after(16, 3, 0.3)))


def test_route_same_node_is_empty():
    net = grid_network(3, 3)
    r = route_astar(net, 4, 4, 0.0)
    assert r == Route((4,), (0.0,))
    assert r.total_time_s == 0.0


def test_route_across_grid():
    net = grid_network(3, 3)
    r = route_astar(net, 0, 8, 0.0)
    assert r is not None
    assert r.nodes[0] == 0 and r.nodes[-1] == 8
    assert len(r.nodes) == 5                # four 400 m hops
    assert r.total_time_s == 160.0          # 40 s per hop at 10 m/s
    assert r.arrive_s == (0.0, 40.0, 80.0, 120.0, 160.0)
    assert travel_time_s(net, 0, 8, 0.0) == 160.0


def test_route_respects_multiplier_at_query_time():
    net = grid_network(3, 3)
    ts = TrafficState([(100.0, 0.5)])
    assert travel_time_s(net, 0, 8, 99.0, ts) == 160.0
    assert travel_time_s(net, 0, 8, 100.0, ts) == 320.0


def test_route_unreachable_and_unknown():
    nodes = {0: GeoPoint(0.0, 0.0), 1: GeoPoint(0.0, 0.001)}
    net = RoadNetwork(nodes, [(0, 1, 200.0, 10.0)], speed_limit_mps=10.0)
    assert route_astar(net, 0, 1, 0.0) is not None
    assert route_astar(net, 1, 0, 0.0) is None
    assert travel_time_s(net, 1, 0, 0.0) is None
    with pytest.raises(KeyError):
        route_astar(net, 7, 0, 0.0)
    with pytest.raises(KeyError):
        route_astar(net, 0, 7, 0.0)


def test_route_tie_breaks_to_lower_node_id():
    # all nodes co-located: the heuristic is zero and both two-hop paths
    # cost exactly 2 s, so the expansion order decides the winner
    p = GeoPoint(0.0, 0.0)
    nodes = {0: p, 1: p, 2: p, 3: p}
    edges = [(0, 1, 10.0, 10.0), (0, 2, 10.0, 10.0),
             (1, 3, 10.0, 10.0), (2, 3, 10.0, 10.0)]
    net = RoadNetwork(nodes, edges, speed_limit_mps=10.0)
    r = route_astar(net, 0, 3, 0.0)
    assert r.nodes == (0, 1, 3)


# SHA-256 of the node sequences test_route_path_choice_is_pinned draws. A
# change to the search that keeps every route's time but takes another of
# several equal-time paths moves it; such a change must say so and re-pin.
PATH_CHOICE_SHA256 = "270580768e2c5797977aaf3d32887b91706c90fa34885c040bf9f10d80fcb711"


def test_route_path_choice_is_pinned():
    # Grids hold many equal-time paths, and the queries run under a
    # multiplier below the schedule's maximum, so the heuristic's bound is
    # loose and the expansion order decides which path is returned.
    rng = random.Random(20261018)
    traffic = TrafficState([(100.0, 0.5), (200.0, 2.0)])
    nets = {}
    digest = hashlib.sha256()
    for _ in range(1500):
        rows, cols = rng.randint(3, 12), rng.randint(3, 12)
        if (rows, cols) not in nets:
            nets[rows, cols] = grid_network(rows, cols)
        src, dst = rng.randrange(rows * cols), rng.randrange(rows * cols)
        at_s = rng.choice((0.0, 150.0))
        assert traffic.multiplier_at(at_s) < traffic.max_multiplier()
        route = route_astar(nets[rows, cols], src, dst, at_s, traffic)
        digest.update((" ".join(map(str, route.nodes)) + "\n").encode())
    assert digest.hexdigest() == PATH_CHOICE_SHA256


@given(data=st.data())
def test_route_matches_the_reference_search(data):
    """The inline heuristic gives the same paths and the same bits as the
    one that calls geo.haversine_m, at any latitude, under multipliers below
    and at the schedule's maximum, and on sparse, shuffled node ids."""
    kind = data.draw(st.sampled_from(["grid", "dyadic", "irregular", "sparse"]),
                     label="network")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="network seed"))
    if kind == "grid":
        net = grid_network(rng.randrange(1, 8), rng.randrange(2, 8))
    elif kind == "sparse":  # grids hold many ties, now between unordered ids
        net = relabelled(grid_network(rng.randrange(1, 8), rng.randrange(2, 8)), rng)
    else:
        net = random_network(rng, rng.randrange(2, 40), rng.randrange(0, 60),
                             dyadic=kind == "dyadic")
    dlat = data.draw(st.sampled_from([0.0, 40.7, -33.9, 59.9, -70.0]), label="latitude")
    net = moved(net, dlat)
    if kind == "irregular":
        low, high = sorted((rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)))
    else:
        low, high = DYADIC_MULTIPLIERS[0], DYADIC_MULTIPLIERS[-1]
    traffic = TrafficState([(0.0, low), (100.0, high)])
    nodes = sorted(net.nodes)
    for _ in range(8):
        src, dst = rng.choice(nodes), rng.choice(nodes)
        for at_s in (0.0, 100.0):
            got = route_astar(net, src, dst, at_s, traffic)
            want = reference_route_astar(net, src, dst, at_s, traffic)
            assert got.nodes == want.nodes, (src, dst, at_s)
            assert [t.hex() for t in got.arrive_s] == [t.hex() for t in want.arrive_s]


def one_way_network(rng: random.Random, n_nodes: int, n_edges: int) -> RoadNetwork:
    """Random one-way streets on a jittered 300 m grid: each edge joins a
    pair of nodes in one direction only, some twice over (parallel edges),
    with irregular lengths and speeds, so hop sums depend on their order.
    Often not strongly connected."""
    side = math.isqrt(n_nodes) + 1
    cell_deg = 300.0 / 111_194.9
    nodes = {i: GeoPoint((i // side + rng.uniform(-0.3, 0.3)) * cell_deg,
                         (i % side + rng.uniform(-0.3, 0.3)) * cell_deg)
             for i in range(n_nodes)}
    way: dict[frozenset[int], tuple[int, int]] = {}
    edges = []
    for _ in range(n_edges):
        u, v = rng.sample(range(n_nodes), 2) if n_nodes > 1 else (0, 0)
        if u == v:
            continue
        u, v = way.setdefault(frozenset((u, v)), (u, v))
        crow = haversine_m(nodes[u], nodes[v])
        edges.append((u, v, crow * rng.uniform(1.0, 1.4) + rng.uniform(0.5, 20.0),
                      rng.uniform(3.0, 12.0)))
    return RoadNetwork(nodes, edges, speed_limit_mps=12.0)


@settings(max_examples=120)
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(1, 40),
       n_edges=st.integers(0, 150), lat=st.sampled_from([0.0, 40.7, -60.0]),
       slack=st.sampled_from([road.BOUND_SLACK, 0.0]))
def test_bounded_route_matches_the_reference_search(seed, n_nodes, n_edges, lat, slack):
    """On one-way networks with parallel edges, moved off the equator, a
    route bounded from its source's great-circle time, or from the time a
    ReverseSearch settled for its source, just after or drained, is the
    reference route, bit for bit; an unreachable pair gives None. The
    multiplier in force is below the schedule's maximum, so pruning (by the
    multiplier in force) and heap order (by the maximum) use different
    bounds. So it is with BOUND_SLACK at 0.0."""
    rng = random.Random(seed)
    net = moved(relabelled(one_way_network(rng, n_nodes, n_edges), rng), lat)
    traffic = TrafficState([(0.0, rng.uniform(0.3, 0.9)), (100.0, rng.uniform(1.0, 2.0))])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(road, "BOUND_SLACK", slack)
        for _ in range(10):
            src, dst = rng.choice(net.ids), rng.choice(net.ids)
            want = reference_route_astar(net, src, dst, 0.0, traffic)
            search = ReverseSearch(net, dst, 0.0, traffic)
            assert (search.settle(until={src}) is not None) == (want is not None)
            for stage in ("just after", "drained"):
                for pruned_by in (None, search):
                    got = route_astar(net, src, dst, 0.0, traffic, search=pruned_by)
                    if want is None:
                        assert got is None
                        continue
                    assert got.nodes == want.nodes, (src, dst, stage, pruned_by)
                    assert [t.hex() for t in got.arrive_s] == [t.hex() for t in want.arrive_s]
                search.settle(until=())


@settings(max_examples=150)
@given(data=st.data())
def test_route_pruned_by_a_reverse_search_matches_the_reference_search(data):
    """Unpruned, and pruned by a ReverseSearch toward its destination that
    stopped before the source settled, just after, or drained, route_astar
    gives the reference route, bit for bit, under a multiplier below the
    schedule's maximum, so pruning (by the multiplier in force) and heap
    order (by the maximum) use different bounds; an unreachable source gives
    None. So it does with BOUND_SLACK at 0.0, where a first attempt that
    falls short by rounding reruns."""
    kind = data.draw(st.sampled_from(["grid", "dyadic", "irregular", "one-way"]),
                     label="network")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="network seed"))
    if kind == "grid":  # many equal-time paths, all on the shortest-path DAG
        net = grid_network(rng.randrange(1, 8), rng.randrange(2, 8))
    elif kind == "one-way":  # often not strongly connected
        net = relabelled(one_way_network(rng, rng.randrange(1, 40), rng.randrange(0, 120)), rng)
    else:
        net = random_network(rng, rng.randrange(2, 40), rng.randrange(0, 60),
                             dyadic=kind == "dyadic")
    if kind in ("grid", "dyadic"):
        low, high = DYADIC_MULTIPLIERS[0], DYADIC_MULTIPLIERS[-1]
    else:
        low, high = sorted((rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)))
    traffic = TrafficState([(0.0, low), (100.0, high)])
    at_s = data.draw(st.sampled_from([0.0, 100.0]), label="at_s")
    slack = data.draw(st.sampled_from([road.BOUND_SLACK, 0.0]), label="BOUND_SLACK")

    def settled(n: int) -> ReverseSearch:
        search = ReverseSearch(net, dst, at_s, traffic)
        for _ in range(n):
            search.settle()
        return search

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(road, "BOUND_SLACK", slack)
        for _ in range(6):
            src, dst = rng.choice(net.ids), rng.choice(net.ids)
            want = reference_route_astar(net, src, dst, at_s, traffic)
            drained = settled(0)
            reach = drained.settle(until={src}) is not None  # settles src, and no further
            after = len(drained.settled)
            before = settled(data.draw(st.integers(0, after - reach), label="settles before"))
            just_after = settled(after)
            drained.settle(until=())
            assert src not in before.settled
            assert (src in just_after.settled) == reach == (want is not None)
            for search in (None, before, just_after, drained):
                got = route_astar(net, src, dst, at_s, traffic, search=search)
                if want is None:
                    assert got is None
                    continue
                assert got.nodes == want.nodes, (src, dst, search and len(search.settled))
                assert [t.hex() for t in got.arrive_s] == [t.hex() for t in want.arrive_s]


def test_route_rejects_a_search_toward_another_node_or_under_another_multiplier():
    net = grid_network(3, 3)
    traffic = TrafficState([(0.0, 0.5), (100.0, 2.0), (200.0, 0.5)])
    search = ReverseSearch(net, 8, 0.0, traffic)
    search.settle()
    with pytest.raises(ValueError, match="toward node 8"):
        route_astar(net, 0, 7, 0.0, traffic, search=search)
    with pytest.raises(ValueError, match="under multiplier 0.5"):
        route_astar(net, 0, 8, 100.0, traffic, search=search)
    with pytest.raises(ValueError):
        route_astar(grid_network(3, 3), 0, 8, 0.0, traffic, search=search)
    # the same multiplier at another instant is the same search
    assert route_astar(net, 0, 8, 200.0, traffic, search=search) == route_astar(net, 0, 8, 0.0,
                                                                                 traffic)


def one_way_streets(rng: random.Random, side: int) -> RoadNetwork:
    """A jittered side x side street grid at 40.7 N whose rows and columns
    alternate one-way directions, every fourth one and the last two-way,
    with irregular lengths (1.02 to 1.35 times the great circle) and speeds
    (7 to 16 m/s) under a 25 m/s limit: the great-circle bound is loose."""
    cell_lat = 220.0 / 111_194.9
    cell_lon = cell_lat / math.cos(math.radians(40.7))
    nodes = {r * side + c: GeoPoint(40.7 + (r + rng.uniform(-0.3, 0.3)) * cell_lat,
                                    -73.99 + (c + rng.uniform(-0.3, 0.3)) * cell_lon)
             for r in range(side) for c in range(side)}
    edges = []
    for k in range(side):  # street k: row k, then column k
        two_way = k % 4 == 0 or k == side - 1
        for j in range(side - 1):
            for a, b in ((k * side + j, k * side + j + 1), (j * side + k, (j + 1) * side + k)):
                ways = [(a, b), (b, a)] if two_way else [(a, b) if k % 2 else (b, a)]
                for u, v in ways:
                    edges.append((u, v, haversine_m(nodes[u], nodes[v]) * rng.uniform(1.02, 1.35),
                                  rng.uniform(7.0, 16.0)))
    return RoadNetwork(nodes, edges, speed_limit_mps=25.0)


def landmark_test_network(kind: str, rng: random.Random) -> RoadNetwork:
    if kind == "one-way":  # parallel edges, often not strongly connected
        return relabelled(one_way_network(rng, rng.randrange(2, 40), rng.randrange(0, 150)), rng)
    if kind == "streets":
        return one_way_streets(rng, rng.randrange(2, 9))
    return random_network(rng, rng.randrange(2, 40), rng.randrange(0, 60), dyadic=False)


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["one-way", "streets", "irregular"]))
def test_landmark_bounds_never_exceed_the_true_time(seed, kind):
    """Under multipliers below, at and above the one the rows were built
    under, every row's bound on one node's time to another, as route_astar
    computes it, is at most the true time (forward Dijkstra); where the
    first cannot reach the second, anything goes. A row that knows neither
    node gives nan, which exceeds nothing."""
    rng = random.Random(seed)
    net = landmark_test_network(kind, rng)
    m0 = rng.uniform(0.3, 2.0)
    base, rows = net.landmarks(m0)
    assert base == m0 and net.landmarks(rng.uniform(0.3, 2.0)) == (base, rows)  # built once
    for mult in (rng.uniform(0.3, m0), m0, rng.uniform(m0, 2.0)):
        for src in rng.sample(net.ids, min(6, len(net.ids))):
            true = dijkstra_times(net, src, mult)
            for dst in net.ids:
                start, goal = net.index_of[src], net.index_of[dst]
                for lb, row, c in _landmark_terms(rows, start, goal, m0 / mult):
                    assert not (row[start] - c) * (m0 / mult) > true.get(dst, math.inf)
                    assert not lb > true.get(dst, math.inf)


@settings(max_examples=120)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["one-way", "streets", "irregular"]))
def test_landmark_pruned_route_matches_the_reference_search(seed, kind):
    """Rows built under one multiplier prune routes under a lower and a
    higher one: route_astar gives the plain A*'s path and bits, and None
    where dst cannot be reached."""
    rng = random.Random(seed)
    net = landmark_test_network(kind, rng)
    m0 = rng.uniform(0.5, 1.5)
    traffic = TrafficState([(0.0, m0), (100.0, rng.uniform(0.3, m0)),
                            (200.0, rng.uniform(m0, 2.0))])
    route_astar(net, net.ids[0], net.ids[-1], 0.0, traffic)  # builds the rows under m0
    assert net.landmarks(2.0)[0] == m0
    for _ in range(6):
        src, dst = rng.choice(net.ids), rng.choice(net.ids)
        for at_s in (100.0, 200.0, 0.0):
            want = reference_route_astar(net, src, dst, at_s, traffic)
            if want is None:
                assert route_astar(net, src, dst, at_s, traffic) is None
                continue
            got = route_astar(net, src, dst, at_s, traffic)
            assert got.nodes == want.nodes, (src, dst, at_s)
            assert [t.hex() for t in got.arrive_s] == [t.hex() for t in want.arrive_s]


def counted_heap(monkeypatch) -> list[int]:
    """[pushes, pops] of route_astar's heap from now on."""
    counts = [0, 0]

    def push(heap, item):
        counts[0] += 1
        heapq.heappush(heap, item)

    def pop(heap):
        counts[1] += 1
        return heapq.heappop(heap)

    monkeypatch.setattr(road, "heapq", SimpleNamespace(heappush=push, heappop=pop))
    return counts


def test_a_pair_no_landmark_knows_is_routed_and_a_trip_off_its_island_is_not_searched(
        monkeypatch):
    """An island of two nodes inside a grid's box, joined to each other
    only: no landmark (a grid corner) reaches it or is reached from it, so
    every row gives nan between them, which prunes nothing, and the route is
    found. A trip between the island and the grid has an infinite bound,
    and gives None with no search."""
    grid = grid_network(3, 3)
    nodes = dict(grid.nodes)
    nodes[100] = GeoPoint(nodes[0].lat + 0.001, nodes[0].lon + 0.001)
    nodes[101] = GeoPoint(nodes[0].lat + 0.001, nodes[0].lon + 0.002)
    crow = haversine_m(nodes[100], nodes[101])
    net = RoadNetwork(nodes, grid.edges() + [(100, 101, crow * 1.1, 9.0), (101, 100, crow * 1.2, 7.0)],
                      grid.speed_limit_mps)
    want = reference_route_astar(net, 100, 101, 0.0)
    got = route_astar(net, 100, 101, 0.0)
    assert got == want and len(got.nodes) == 2
    _, rows = net.landmarks(1.0)
    for row in rows:
        assert math.isnan(row[net.index_of[100]] - row[net.index_of[101]])
    counts = counted_heap(monkeypatch)
    for src, dst in ((100, 4), (4, 101), (8, 100), (101, 0)):
        assert route_astar(net, src, dst, 0.0) is None
        assert route_astar(net, src, dst, 0.0, search=ReverseSearch(net, dst, 0.0)) is None
    assert counts == [0, 0]


def test_landmarks_halve_the_pushes_of_unbounded_searches(monkeypatch):
    """On an irregular one-way street grid, where the great-circle bound is
    loose, unbounded searches pruned by the landmark rows push at most half
    as many heap entries as with an all-zero table, and as the plain A*
    oracle, and give the same routes."""
    rng = random.Random(24)
    net = one_way_streets(rng, 20)
    pairs = [(rng.choice(net.ids), rng.choice(net.ids)) for _ in range(30)]
    route_astar(net, *pairs[0], 0.0)  # builds the rows before the count
    counts = counted_heap(monkeypatch)

    def pushes() -> tuple[list[Route | None], int]:
        counts[0] = 0
        return [route_astar(net, src, dst, 0.0) for src, dst in pairs], counts[0]

    routes, with_rows = pushes()
    base, rows = net.landmarks(1.0)
    monkeypatch.setattr(net, "_landmarks", (base, [array("d", bytes(8 * len(r))) for r in rows]))
    zero_routes, with_zeros = pushes()
    plain = [0]
    real_push = scenario_tools.heapq.heappush

    def plain_push(heap, item):
        plain[0] += 1
        real_push(heap, item)

    monkeypatch.setattr(scenario_tools, "heapq", SimpleNamespace(heappush=plain_push,
                                                                 heappop=heapq.heappop))
    assert [reference_route_astar(net, src, dst, 0.0) for src, dst in pairs] == routes
    assert zero_routes == routes
    assert with_rows <= with_zeros / 2
    assert with_rows <= plain[0] / 2


def test_searches_no_landmark_bounds_start_from_the_great_circle(monkeypatch):
    """With an all-zero landmark table, unbounded searches start from the
    great-circle bound under the multiplier in force, not from 0: the
    routes are the plain A* oracle's, and the 30 searches of the test above
    push 13,129 heap entries, against 13,832 when they started from 0."""
    rng = random.Random(24)
    net = one_way_streets(rng, 20)
    pairs = [(rng.choice(net.ids), rng.choice(net.ids)) for _ in range(30)]
    base, rows = net.landmarks(1.0)
    monkeypatch.setattr(net, "_landmarks", (base, [array("d", bytes(8 * len(r))) for r in rows]))
    counts = counted_heap(monkeypatch)
    routes = [route_astar(net, src, dst, 0.0) for src, dst in pairs]
    assert routes == [reference_route_astar(net, src, dst, 0.0) for src, dst in pairs]
    assert counts[0] < 13_832


def test_route_node_at_elapsed():
    net = grid_network(3, 3)
    r = route_astar(net, 0, 8, 0.0)
    assert r.node_at_elapsed(-5.0) == 0
    assert r.node_at_elapsed(0.0) == 0
    assert r.node_at_elapsed(39.9) == 0
    assert r.node_at_elapsed(40.0) == r.nodes[1]
    assert r.node_at_elapsed(159.9) == r.nodes[3]
    assert r.node_at_elapsed(160.0) == 8
    assert r.node_at_elapsed(1e6) == 8


# Non-dyadic hop times, so running sums round; a 1e-15 s hop after a long
# one leaves the sum unchanged and gives two nodes the same arrival time.
HOP_TIMES = st.lists(st.one_of(st.floats(min_value=0.01, max_value=500.0), st.just(1e-15)),
                     max_size=12)


@given(HOP_TIMES, st.floats(min_value=0.0, max_value=1.0))
def test_node_at_elapsed_matches_the_hop_walk(hop_times, frac):
    nodes = tuple(range(100, 100 + len(hop_times) + 1))
    r = hop_route(nodes, tuple(hop_times))
    assert len(r.arrive_s) == len(nodes)
    end = r.total_time_s
    probes = [-1e-9, -5.0, end + 1e-6, end * 2 + 1.0, frac * end]
    for a, b in zip(r.arrive_s, r.arrive_s[1:]):
        probes += [a, b, a + (b - a) * frac, math.nextafter(b, -math.inf)]
    for dt in probes:
        assert r.node_at_elapsed(dt) == walk_node_at_elapsed(nodes, tuple(hop_times), dt), dt


def test_route_matches_dijkstra_exactly():
    rng = random.Random(1203)
    for trial in range(40):
        net = random_network(rng, rng.randrange(2, 41),
                                    extra_edges=rng.randrange(0, 60))
        mult = rng.choice(DYADIC_MULTIPLIERS)
        traffic = TrafficState([(0.0, mult)])
        src = rng.randrange(len(net.nodes))
        oracle = dijkstra_times(net, src, mult)
        adj = out_edges(net)
        for dst in rng.sample(sorted(net.nodes), min(6, len(net.nodes))):
            r = route_astar(net, src, dst, 0.0, traffic)
            assert r is not None, f"trial {trial}: {src}->{dst} unreachable"
            assert r.total_time_s == oracle[dst], f"trial {trial}: {src}->{dst}"
            # each hop is an edge whose time is the step in arrival times
            assert r.nodes[0] == src and r.nodes[-1] == dst
            assert len(r.arrive_s) == len(r.nodes) and r.arrive_s[0] == 0.0
            for i, (a, b) in enumerate(zip(r.nodes, r.nodes[1:])):
                step = r.arrive_s[i + 1] - r.arrive_s[i]
                assert any(v == b and length / (speed * mult) == step
                           for v, length, speed in adj[a])


def settled_in_order(search: ReverseSearch, steps: int | None = None) -> list[tuple[int, str]]:
    """(node, float.hex of its time) for each node search settles next, for
    `steps` nodes or until it runs out."""
    out = []
    while steps is None or len(out) < steps:
        node = search.settle()
        if node is None:
            break
        out.append((node, search.settled[node].hex()))
    return out


def test_search_outlives_the_tables_it_was_built_on():
    """The network keeps the edge times of one multiplier at a time. A
    ReverseSearch resumed after a route or another search under a second
    multiplier has rebuilt them settles what an uninterrupted search
    settles, bit for bit, and the other query reads the new times."""
    rng = random.Random(4242)
    low, high = 0.7, 1.3  # irregular times: sums depend on every bit
    traffic = TrafficState([(0.0, low), (100.0, high)])
    for _ in range(40):
        net = random_network(rng, rng.randrange(2, 40), rng.randrange(0, 60), dyadic=False)
        dst_a, dst_b, src = (rng.choice(net.ids) for _ in range(3))
        whole_a = settled_in_order(ReverseSearch(net, dst_a, 0.0, traffic))
        whole_b = settled_in_order(ReverseSearch(net, dst_b, 100.0, traffic))
        first = rng.randrange(len(whole_a) + 1)

        a = ReverseSearch(net, dst_a, 0.0, traffic)
        head = settled_in_order(a, first)
        route = route_astar(net, src, dst_b, 100.0, traffic)
        assert net.edge_times(high)[1] is not a._reverse  # rebuilt under the route
        assert route == reference_route_astar(net, src, dst_b, 100.0, traffic)
        assert head + settled_in_order(a) == whole_a

        a = ReverseSearch(net, dst_a, 0.0, traffic)
        head = settled_in_order(a, first)
        b = ReverseSearch(net, dst_b, 100.0, traffic)
        head_b = settled_in_order(b, rng.randrange(len(whole_b) + 1))
        assert head + settled_in_order(a) == whole_a
        assert head_b + settled_in_order(b) == whole_b


def step_until(search: ReverseSearch, limit: float, until: set[int]) -> int | None:
    """One-node settle(limit) steps until one settles a node in `until`:
    that node, or None where the steps stop first. Each step records its
    node at its time and moves the radius there."""
    while (node := search.settle(limit)) is not None:
        assert next(reversed(search.settled)) == node
        assert search.radius == search.settled[node] <= limit
        if node in until:
            return node
    return None


def settled_so_far(search: ReverseSearch) -> tuple[list[tuple[int, str]], str]:
    """(node, float.hex of its time) for each node settled, in order, and
    the radius."""
    return [(n, t.hex()) for n, t in search.settled.items()], search.radius.hex()


@settings(max_examples=200)
@given(data=st.data())
def test_settle_until_stops_where_one_node_steps_reach_a_target(data):
    """settle(limit, until) returns the node that one-node steps under the
    same limit settle first among `until`, or None where they stop short of
    all of them. It leaves the same settled times, in the same order, and
    the same radius, and the nodes left settle in the same order after it."""
    kind = data.draw(st.sampled_from(["grid", "dyadic", "irregular"]), label="network")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if kind == "grid":  # many equal-time ties, broken by node id
        net = grid_network(rng.randrange(1, 6), rng.randrange(2, 6))
    else:
        net = random_network(rng, rng.randrange(1, 30), rng.randrange(0, 60),
                             dyadic=kind == "dyadic")
    mult = rng.uniform(0.3, 2.0) if kind == "irregular" else rng.choice(DYADIC_MULTIPLIERS)
    traffic = TrafficState([(0.0, mult)])
    dst = rng.choice(net.ids)
    times = {float.fromhex(t) for _, t in settled_in_order(ReverseSearch(net, dst, 0.0, traffic))}
    # each settled time, and the float just below it, splits the order
    limits = sorted({math.inf, -1.0, *times, *(math.nextafter(t, -math.inf) for t in times)})
    looped = ReverseSearch(net, dst, 0.0, traffic)
    stepped = ReverseSearch(net, dst, 0.0, traffic)
    for _ in range(data.draw(st.integers(1, 5), label="calls")):
        limit = data.draw(st.sampled_from(limits), label="limit")
        # -1 is no node: a target that never settles
        until = data.draw(st.sets(st.sampled_from([-1, *net.ids]), max_size=6), label="until")
        assert looped.settle(limit, until) == step_until(stepped, limit, until)
        assert settled_so_far(looped) == settled_so_far(stepped)
    assert settled_in_order(looped) == settled_in_order(stepped)


@settings(max_examples=80)
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(1, 30),
       n_edges=st.integers(0, 90), mult=st.sampled_from([0.35, 0.8, 1.0, 1.45, 2.0]))
def test_route_time_matches_networkx(seed, n_nodes, n_edges, mult):
    """On random one-way networks, parallel edges included, the route's
    time is networkx's shortest-path length under length / (speed * mult),
    and there is a route exactly when networkx finds a path."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    nodes = {rng.randrange(10**6): GeoPoint(rng.uniform(40.0, 40.02), rng.uniform(-74.0, -73.98))
             for _ in range(n_nodes)}
    ids = sorted(nodes)
    limit = 12.0
    edges = []
    for _ in range(n_edges):
        u, v = rng.choice(ids), rng.choice(ids)
        if u != v:
            length = haversine_m(nodes[u], nodes[v]) * rng.uniform(1.0, 1.5) + rng.uniform(1.0, 50.0)
            edges.append((u, v, length, rng.uniform(2.0, 15.0)))
    net = RoadNetwork(nodes, edges, speed_limit_mps=limit)
    graph = nx.MultiDiGraph()
    graph.add_nodes_from(ids)
    graph.add_edges_from((u, v, {"time": length / (min(speed, limit) * mult)})
                         for u, v, length, speed in edges)
    traffic = TrafficState([(0.0, mult), (100.0, 2.0)])  # at_s 0 may run below the maximum
    for _ in range(10):
        src, dst = rng.choice(ids), rng.choice(ids)
        route = route_astar(net, src, dst, 0.0, traffic)
        try:
            want = nx.dijkstra_path_length(graph, src, dst, weight="time")
        except nx.NetworkXNoPath:
            assert route is None, (src, dst)
            continue
        assert route is not None, (src, dst)
        assert math.isclose(route.total_time_s, want, rel_tol=1e-9), (src, dst)


def test_eta_table_matches_point_queries():
    rng = random.Random(555)
    for trial in range(15):
        net = random_network(rng, rng.randrange(2, 31),
                                    extra_edges=rng.randrange(0, 40))
        mult = rng.choice(DYADIC_MULTIPLIERS)
        traffic = TrafficState([(0.0, mult)])
        dst = rng.randrange(len(net.nodes))
        table = eta_table(net, dst, 0.0, traffic)
        for src in net.nodes:
            t = travel_time_s(net, src, dst, 0.0, traffic)
            if t is None:
                assert src not in table
            else:
                assert table[src] == t, f"trial {trial}: {src}->{dst}"


def test_eta_table_rejects_unknown_destination():
    net = grid_network(3, 3)
    with pytest.raises(KeyError):
        eta_table(net, 99, 0.0)


def test_eta_table_skips_unreachable_sources():
    nodes = {0: GeoPoint(0.0, 0.0), 1: GeoPoint(0.0, 0.001), 2: GeoPoint(0.001, 0.0)}
    net = RoadNetwork(nodes, [(0, 1, 200.0, 10.0)], speed_limit_mps=10.0)
    assert eta_table(net, 1, 0.0) == {1: 0.0, 0: 20.0}


def test_network_counts_components():
    assert grid_network(3, 3).scc_count == 1
    assert set(grid_network(3, 3).component.values()) == {0}
    nodes = {i: GeoPoint(0.0, 0.001 * i) for i in range(4)}
    chain = [(i, i + 1, 200.0, 10.0) for i in range(3)]  # one-way: no way back
    net = RoadNetwork(nodes, chain, speed_limit_mps=10.0)
    assert net.scc_count == 4
    assert sorted(net.component.values()) == [0, 1, 2, 3]
    assert RoadNetwork({}, [], speed_limit_mps=10.0).scc_count == 0


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(1, 30),
       n_edges=st.integers(0, 60))
def test_component_ids_match_networkx(seed, n_nodes, n_edges):
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    nodes = {3 * i + 1: GeoPoint(rng.uniform(0.0, 0.01), rng.uniform(0.0, 0.01))
             for i in range(n_nodes)}
    ids = sorted(nodes)
    edges = []
    for _ in range(n_edges):  # one-way edges, never shorter than the great circle
        u, v = rng.choice(ids), rng.choice(ids)
        if u != v:
            edges.append((u, v, haversine_m(nodes[u], nodes[v]) + 1.0, 10.0))
    net = RoadNetwork(nodes, edges, speed_limit_mps=10.0)
    graph = nx.DiGraph()
    graph.add_nodes_from(ids)
    graph.add_edges_from((u, v) for u, v, _, _ in edges)
    sccs = list(nx.strongly_connected_components(graph))
    assert net.scc_count == len(sccs)
    assert set(net.component) == set(ids)
    # one id per component, and ids 0, 1, ... for different components
    per_scc = [{net.component[n] for n in scc} for scc in sccs]
    assert all(len(found) == 1 for found in per_scc)
    assert sorted(found.pop() for found in per_scc) == list(range(len(sccs)))


def test_speeds_clamp_to_network_limit():
    nodes = {0: GeoPoint(0.0, 0.0), 1: GeoPoint(0.0, 0.001)}
    net = RoadNetwork(nodes, [(0, 1, 200.0, 100.0)], speed_limit_mps=10.0)
    assert travel_time_s(net, 0, 1, 0.0) == 20.0


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


def test_load_network_roundtrip(tmp_path):
    nodes = _write(tmp_path / "n.txt",
                   "# id lat lon\n\n0 0.0 0.0\n1 0.0 0.004\n2 0.004 0.0\n")
    edges = _write(tmp_path / "e.txt",
                   "# from to length speed\n0 1 500 10\n1 0 500 10\n0 2 500 25\n")
    net = load_network(nodes, edges, speed_limit_mps=12.0)
    assert sorted(net.nodes) == [0, 1, 2]
    assert travel_time_s(net, 0, 1, 0.0) == 50.0
    assert travel_time_s(net, 0, 2, 0.0) == pytest.approx(500.0 / 12.0)  # clamped
    assert net.scc_count == 2


# Rows whose fault is in the edge file, each on its line 1.
EDGE_FILE_ROWS = {"0 5 100 10\n", "0 1 100 10 9\n", "0 1 -5 10\n", "0 1 100 0\n",
                  "0 1 300 10\n"}


@pytest.mark.parametrize("node_text,edge_text", [
    ("0 0.0\n", "0 0 100 10\n"),                              # short node line
    ("0 0.0 0.0\n0 1.0 1.0\n", ""),                           # duplicate id
    ("-1 0.0 0.0\n", ""),                                     # negative id
    ("0 abc 0.0\n", ""),                                      # bad float
    ("0 99.0 0.0\n", ""),                                     # latitude range
    ("0 0.0 0.0\n", "0 5 100 10\n"),                          # dangling edge
    ("0 0.0 0.0\n1 0.0 0.004\n", "0 1 100 10 9\n"),           # long edge line
    ("0 0.0 0.0\n1 0.0 0.004\n", "0 1 -5 10\n"),              # negative length
    ("0 0.0 0.0\n1 0.0 0.004\n", "0 1 100 0\n"),              # zero speed
    ("0 0.0 0.0\n1 0.0 0.004\n", "0 1 300 10\n"),             # shorter than crow
])
def test_load_network_rejects_bad_input(tmp_path, node_text, edge_text):
    nodes = _write(tmp_path / "n.txt", node_text)
    edges = _write(tmp_path / "e.txt", edge_text)
    with pytest.raises(NetworkLoadError) as info:
        load_network(nodes, edges, speed_limit_mps=10.0)
    if edge_text in EDGE_FILE_ROWS:
        assert str(info.value).startswith(f"{edges}:1: ")
    else:
        assert str(info.value).startswith(f"{nodes}:")


def test_load_network_edge_error_names_its_line(tmp_path):
    nodes = _write(tmp_path / "n.txt", "0 0.0 0.0\n1 0.0 0.004\n")
    edges = _write(tmp_path / "e.txt",
                   "# from to length speed\n0 1 500 10\n\n1 0 300 10\n")
    with pytest.raises(NetworkLoadError) as info:
        load_network(nodes, edges, speed_limit_mps=10.0)
    assert str(info.value).startswith(f"{edges}:4: edge 1 (1->0) length 300.00 m")


NON_FINITE = "edge 0 has a non-finite length or a NaN speed"


@pytest.mark.parametrize("edge_text,message", [
    ("0 1 nan 10\n", NON_FINITE), ("0 1 inf 10\n", NON_FINITE), ("0 1 100 nan\n", NON_FINITE),
    ("0 1 1e3x 10\n", "could not convert string to float: '1e3x'"),
])
def test_load_network_rejects_a_bad_edge_value_on_its_line(tmp_path, edge_text, message):
    """A non-finite length or a NaN speed would give nan or inf hop times,
    so a route between two nodes of one component could not be found. Such
    an edge, like a field that is no number, is an error naming its line.
    A +inf speed is clamped to the limit."""
    nodes = _write(tmp_path / "n.txt", "0 0.0 0.0\n1 0.0 0.004\n2 0.0 0.008\n")
    good = "1 0 500 10\n1 2 500 10\n2 1 500 10\n"
    edges = _write(tmp_path / "e.txt", edge_text + good)
    with pytest.raises(NetworkLoadError) as info:
        load_network(nodes, edges, speed_limit_mps=10.0)
    assert str(info.value) == f"{edges}:1: {message}"

    edges = _write(tmp_path / "e.txt", "0 1 500 inf\n" + good)
    net = load_network(nodes, edges, speed_limit_mps=10.0)
    assert net.edges()[0] == (0, 1, 500.0, 10.0)
    assert route_astar(net, 0, 2, 0.0).total_time_s == 100.0


def test_load_network_reads_files_that_start_with_a_byte_order_mark(tmp_path):
    """Excel and many Windows tools start a UTF-8 file with one: here the
    node file's first line is a comment and the edge file's an edge."""
    nodes, edges = tmp_path / "n.txt", tmp_path / "e.txt"
    nodes.write_bytes(codecs.BOM_UTF8 + b"# id lat lon\n0 0.0 0.0\n1 0.0 0.004\n")
    edges.write_bytes(codecs.BOM_UTF8 + b"0 1 500 10\n1 0 500 10\n")
    net = load_network(str(nodes), str(edges), speed_limit_mps=10.0)
    assert net.nodes == {0: GeoPoint(0.0, 0.0), 1: GeoPoint(0.0, 0.004)}
    assert net.edges() == [(0, 1, 500.0, 10.0), (1, 0, 500.0, 10.0)]


def test_load_network_line_rules_and_error_text(tmp_path):
    """Blank, whitespace-only and comment lines, indented or not, are
    skipped; fields part at any run of spaces or tabs, and CRLF ends a line
    as LF does. A line with the wrong number of fields is quoted stripped,
    its interior whitespace as written."""
    nodes, edges = tmp_path / "n.txt", tmp_path / "e.txt"
    node_text = b"  # id lat lon\r\n0\t0.0\t0.0\r\n \t \r\n\r\n1  0.0 \t 0.004 \r\n"
    nodes.write_bytes(node_text)
    edges.write_bytes(b"\t# from to length speed\r\n0\t1\t500\t10\r\n   \r\n 1 0  500 10\r\n")
    net = load_network(str(nodes), str(edges), speed_limit_mps=10.0)
    assert net.nodes == {0: GeoPoint(0.0, 0.0), 1: GeoPoint(0.0, 0.004)}
    assert net.edges() == [(0, 1, 500.0, 10.0), (1, 0, 500.0, 10.0)]

    nodes.write_bytes(node_text + b" \t2  0.5 \r\n")
    with pytest.raises(NetworkLoadError) as info:
        load_network(str(nodes), str(edges), speed_limit_mps=10.0)
    assert str(info.value) == f"{nodes}:6: expected 'id lat lon', got '2  0.5'"

    nodes.write_bytes(node_text)
    short = "0  1\t500"
    edges.write_bytes(b"# from to length speed\r\n\r\n  " + short.encode() + b"  \r\n")
    with pytest.raises(NetworkLoadError) as info:
        load_network(str(nodes), str(edges), speed_limit_mps=10.0)
    assert str(info.value) == f"{edges}:3: expected 'from to length speed', got {short!r}"


def node_pair(rng: random.Random, lat: float | None) -> tuple[GeoPoint, GeoPoint]:
    """Two nodes near latitude lat, from a metre to tens of kilometres
    apart; across the antimeridian where lat is None."""
    spread = rng.choice([1e-5, 1e-3, 0.05, 0.5])
    if lat is None:
        lat = rng.uniform(-80.0, 80.0)
        a = GeoPoint(lat, 180.0 - rng.uniform(0.0, spread))
        b = GeoPoint(lat + rng.uniform(-spread, spread), -180.0 + rng.uniform(0.0, spread))
    else:
        a = GeoPoint(lat + rng.uniform(-spread, spread), rng.uniform(-179.0, 179.0))
        b = GeoPoint(a.lat + rng.uniform(-spread, spread), a.lon + rng.uniform(-spread, spread))
    return (a, b) if rng.random() < 0.5 else (b, a)


@pytest.mark.parametrize("lat", [0.0, 40.7, -33.9, 59.9, -70.0, None])
def test_edge_check_agrees_with_haversine_bit_for_bit(lat):
    """The loader's great-circle check, computed inline from each node's
    terms, has haversine_m's bits: an edge of exactly MIN_LENGTH_FACTOR
    times haversine_m loads, and one a ulp shorter is rejected."""
    rng = random.Random(f"edge check {lat}")
    for _ in range(300):
        a, b = node_pair(rng, lat)
        crow = haversine_m(a, b)
        length = road.MIN_LENGTH_FACTOR * crow
        back = road.MIN_LENGTH_FACTOR * haversine_m(b, a)
        net = RoadNetwork({0: a, 1: b}, [(0, 1, length, 10.0), (1, 0, back, 10.0)], 10.0)
        assert net.edges() == [(0, 1, length, 10.0), (1, 0, back, 10.0)]
        short = math.nextafter(length, 0.0)
        with pytest.raises(NetworkLoadError) as info:
            RoadNetwork({0: a, 1: b}, [(0, 1, short, 10.0), (1, 0, back, 10.0)], 10.0)
        assert info.value.edge == 0
        assert str(info.value) == (f"edge 0 (0->1) length {short:.2f} m shorter than "
                                   f"{road.MIN_LENGTH_FACTOR} * great-circle {crow:.2f} m")


def test_geo_point_is_a_frozen_value():
    """Networks, plans and requests share points, and tests deep-copy
    fleets that hold plans: a point must neither change nor lose its value
    when copied or pickled."""
    p, q = GeoPoint(40.7, -73.9), GeoPoint(40.7, -73.9)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.lat = 0.0
    assert p == q and p is not q and hash(p) == hash(q) and {p: 1}[q] == 1
    assert p != GeoPoint(40.7, -73.8) and p != GeoPoint(40.8, -73.9)
    for copied in (copy.deepcopy([p])[0], pickle.loads(pickle.dumps(p))):
        assert copied == p and hash(copied) == hash(p)
        assert (copied.lat, copied.lon) == (40.7, -73.9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            copied.lon = 0.0


def test_edge_times_share_one_float_per_edge():
    """Each forward entry (v, t) of row u has a reverse entry (u, t) in row
    v holding the very same float, t = length / (speed * mult)."""
    rng = random.Random(2029)
    for _ in range(30):
        net = random_network(rng, rng.randrange(1, 30), rng.randrange(0, 60), dyadic=False)
        mult = rng.uniform(0.3, 2.0)
        forward, reverse = net.edge_times(mult)
        assert [(net.ids[u], net.ids[v], t) for u, row in enumerate(forward) for v, t in row] \
            == [(u, v, length / (speed * mult)) for u, v, length, speed in net.edges()]
        assert sum(map(len, reverse)) == sum(map(len, forward))
        for u, row in enumerate(forward):
            for v, t in row:
                assert any(prev == u and t2 is t for prev, t2 in reverse[v])
