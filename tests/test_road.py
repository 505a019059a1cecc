"""Road network loading, traffic multipliers, and time-dependent routing."""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amodsim.geo import GeoPoint, haversine_m
from amodsim.road import (
    BOUND_SLACK,
    NetworkLoadError,
    ReverseSearch,
    RoadNetwork,
    Route,
    TrafficState,
    eta_table,
    load_network,
    path_time,
    route_astar,
)
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
       n_edges=st.integers(0, 150), lat=st.sampled_from([0.0, 40.7, -60.0]))
def test_bounded_route_matches_the_reference_search(seed, n_nodes, n_edges, lat):
    """Any bound at least the answer gives the unbounded route, bit for bit;
    a bound below it gives None. The multiplier in force is below the
    schedule's maximum, so pruning (by the multiplier in force) and heap
    order (by the maximum) use different bounds."""
    rng = random.Random(seed)
    net = moved(relabelled(one_way_network(rng, n_nodes, n_edges), rng), lat)
    traffic = TrafficState([(0.0, rng.uniform(0.3, 0.9)), (100.0, rng.uniform(1.0, 2.0))])
    for _ in range(10):
        src, dst = rng.choice(net.ids), rng.choice(net.ids)
        want = reference_route_astar(net, src, dst, 0.0, traffic)
        if want is None:
            assert route_astar(net, src, dst, 0.0, traffic, within=math.inf) is None
            continue
        answer = want.total_time_s
        assert path_time(net, want.nodes, 0.0, traffic) == answer
        for within in (answer, math.nextafter(answer, math.inf), 1.5 * answer + 60.0,
                       math.inf):
            got = route_astar(net, src, dst, 0.0, traffic, within=within)
            assert got.nodes == want.nodes, (src, dst, within)
            assert [t.hex() for t in got.arrive_s] == [t.hex() for t in want.arrive_s]
        for within in (answer * (1.0 - 1e-6) - 1e-6, answer / 2.0 - 1.0):
            assert route_astar(net, src, dst, 0.0, traffic, within=within) is None


@settings(max_examples=150)
@given(data=st.data())
def test_route_pruned_by_a_reverse_search_matches_the_reference_search(data):
    """A route pruned by a ReverseSearch toward its destination, stopped at
    any radius at least the source's time, is the unpruned route, bit for
    bit, under a multiplier below the schedule's maximum; an unreachable
    source still gives None. The bound is the source's settled time, or
    looser."""
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
    for _ in range(6):
        src, dst = rng.choice(net.ids), rng.choice(net.ids)
        want = reference_route_astar(net, src, dst, at_s, traffic)
        search = ReverseSearch(net, dst, at_s, traffic)
        while src not in search.settled and search.settle() is not None:
            pass
        if want is None:
            assert src not in search.settled
            assert route_astar(net, src, dst, at_s, traffic, search=search) is None
            continue
        for _ in range(data.draw(st.integers(0, len(net.ids)), label="extra settles")):
            search.settle()
        assert search.radius >= search.settled[src]
        leg_s = search.settled[src]
        for within in (leg_s, 1.5 * leg_s + 60.0, math.inf):
            got = route_astar(net, src, dst, at_s, traffic, within=within, search=search)
            assert got.nodes == want.nodes, (src, dst, within)
            assert [t.hex() for t in got.arrive_s] == [t.hex() for t in want.arrive_s]


def test_route_at_the_slackened_bound_is_kept():
    """A route whose time equals within * (1 + BOUND_SLACK) exactly is kept,
    with or without a search: only a node strictly past the bound is
    pruned."""
    net = grid_network(3, 4)
    answer = route_astar(net, 0, 11, 0.0).total_time_s
    within = answer / (1.0 + BOUND_SLACK)
    while within * (1.0 + BOUND_SLACK) != answer:
        within = math.nextafter(within, math.inf if within * (1.0 + BOUND_SLACK) < answer
                                else -math.inf)
    search = ReverseSearch(net, 11, 0.0)
    while search.settle() is not None:
        pass
    for pruned_by in (None, search):
        route = route_astar(net, 0, 11, 0.0, within=within, search=pruned_by)
        assert route is not None and route.total_time_s == answer
        below = math.nextafter(within, -math.inf)
        assert route_astar(net, 0, 11, 0.0, within=below, search=pruned_by) is None


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


def test_path_time_takes_the_fastest_parallel_edge():
    net = RoadNetwork({0: GeoPoint(0.0, 0.0), 1: GeoPoint(0.0, 0.001), 2: GeoPoint(0.0, 0.002)},
                      [(0, 1, 150.0, 10.0), (0, 1, 120.0, 4.0), (0, 1, 200.0, 10.0),
                       (1, 2, 120.0, 6.0)], speed_limit_mps=10.0)
    traffic = TrafficState([(0.0, 0.5)])
    assert path_time(net, (0, 1, 2), 0.0, traffic) == 150.0 / 5.0 + 120.0 / 3.0
    assert path_time(net, (1,), 0.0, traffic) == 0.0
    assert path_time(net, (2, 1), 0.0, traffic) == math.inf  # no edge 2 -> 1


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
