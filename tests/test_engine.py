"""Event loop semantics, frozen end-to-end scenario, log replay checking."""

import heapq
import math
import weakref
from functools import cached_property
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amodsim import engine, road

from amodsim.demand import TripRequest, generate_demand
from amodsim.dispatch import Arrival, DispatchConfig, _EtaRanking
from amodsim.engine import (
    OUTCOME_ABANDONED,
    OUTCOME_PICKED_UP,
    CallRecord,
    EventKind,
    SimulationError,
    parse_record_line,
)
from amodsim.fleet import (Fleet, Strategy, Vehicle, VehicleStatus, job_start,
                           validate_transitions)
from amodsim.road import TrafficState
from amodsim.geo import GeoPoint
from amodsim.zones import AdjacencySchedule, Zone, ZoneMap, initial_adjacency
from scenario_tools import (
    DYADIC_MULTIPLIERS,
    GOLDEN_RECORD_LINES,
    GOLDEN_SPACING_DEG,
    box_polygon,
    copy_schedule,
    golden_city,
    golden_fleet,
    golden_requests,
    grid_network,
    replay_check,
    run_one,
    tile_zones,
)

D = GOLDEN_SPACING_DEG


def nss_eat():
    return DispatchConfig(strategy=Strategy.NSS, eat_enabled=True)


def one_zone_city(cols):
    net = grid_network(1, cols)
    zm = ZoneMap([Zone(0, box_polygon(-0.5 * D, 0.5 * D, -0.5 * D, (cols - 0.5) * D))])
    return net, zm, AdjacencySchedule([0])


def req(net, rid, t, pickup, dropoff, patience=3600.0):
    return TripRequest(rid, t, net.nodes[pickup],
                       net.nodes[dropoff], 1, patience)


def run_golden():
    net, zm, sched = golden_city()
    return run_one(golden_requests(), golden_fleet(), net, zm, sched, None, nss_eat())


# -- frozen scenario -----------------------------------------------------


def test_golden_scenario_records_are_frozen():
    result = run_golden()
    assert tuple(result.record_lines()) == GOLDEN_RECORD_LINES


def test_golden_scenario_metadata():
    net, zm, sched = golden_city()
    fleet = golden_fleet()
    result = run_one(golden_requests(), fleet, net, zm, sched, None, nss_eat())
    assert result.metadata == {
        "requests": 10,
        "picked_up": 7,
        "abandoned": 1,
        "rejected": {"no-vehicle": 2},
        "reassignments": 0,
        "adjacency_revision": 0,
        "zone_fallback_calls": 0,
        "snap_failures": 0,
        "events_processed": 33,
        "nodes_settled": 33,
        "oss_nodes_settled": 0,
    }
    assert sched.pairs() == [(0, 1), (1, 2), (1, 3), (2, 3)]
    assert validate_transitions(fleet.transitions()) == []


def test_golden_scenario_is_deterministic():
    a = run_golden()
    b = run_golden()
    assert a.event_log == b.event_log
    assert a.record_lines() == b.record_lines()
    report = replay_check(a.event_log, b.event_log)
    assert report.ok and report.diffs == []


def test_golden_waits():
    waits = [r.wait_s for r in run_golden().records]
    assert waits == [0.0, 0.0, 80.0, 80.0, None, 40.0, None, None, 40.0, 40.0]


# -- record line format --------------------------------------------------


def test_record_lines_round_trip():
    for rec in run_golden().records:
        assert parse_record_line(rec.line()) == rec


def test_record_line_shapes():
    picked = CallRecord(3, 48.0, "PICKED_UP", 128.0, 208.0, 1)
    assert picked.line() == "3 48.0 PICKED_UP 128.0 208.0 1"
    rejected = CallRecord(4, 60.0, "REJECTED", reject_reason="no-vehicle")
    assert rejected.line() == "4 60.0 REJECTED no-vehicle"
    gone = CallRecord(7, 200.0, "ABANDONED", abandon_time_s=275.0)
    assert gone.line() == "7 200.0 ABANDONED 275.0"
    assert gone.wait_s is None
    with pytest.raises(ValueError):
        parse_record_line("3 48.0 TELEPORTED 128.0")
    with pytest.raises(ValueError):
        parse_record_line("not a record")


def test_records_are_written_in_request_order_whatever_order_requests_end():
    net, zm, sched = one_zone_city(10)
    fleet = Fleet([Vehicle(0, 0), Vehicle(1, 9)])
    requests = [
        req(net, 0, 0.0, 0, 9),                   # 9 hops: dropped off at t=360
        req(net, 1, 10.0, 9, 8),                  # dropped off at t=50
        req(net, 2, 20.0, 5, 6),                  # no idle vehicle: rejected at t=20
        req(net, 3, 10.0, 5, 6),                  # ties with 1; rejected at t=10
    ]
    result = run_one(requests, fleet, net, zm, sched, None, nss_eat())
    assert result.record_lines() == [
        "0 0.0 PICKED_UP 0.0 360.0 0",
        "1 10.0 PICKED_UP 10.0 50.0 1",
        "3 10.0 REJECTED no-vehicle",
        "2 20.0 REJECTED no-vehicle",
    ]


# -- abandonment ---------------------------------------------------------


def test_abandonment_frees_vehicle_at_last_passed_node():
    net, zm, sched = one_zone_city(5)
    fleet = Fleet([Vehicle(0, 0)])
    requests = [
        req(net, 0, 0.0, 2, 4, patience=60.0),    # 80 s away: will give up at 60
        req(net, 1, 61.0, 1, 0),                  # picks up where the car stopped
    ]
    result = run_one(requests, fleet, net, zm, sched, None, nss_eat())
    assert result.record_lines() == [
        "0 0.0 ABANDONED 60.0",
        "1 61.0 PICKED_UP 61.0 101.0 0",          # at node 1 since t=40: no leg
    ]
    assert fleet.vehicle(0).status is VehicleStatus.IDLE
    assert fleet.vehicle(0).node == 0             # finished the second trip there


def test_pickup_wins_deadline_tie():
    net, zm, sched = one_zone_city(5)
    # exactly 80 s of patience against an 80 s approach: pickup happens
    requests = [req(net, 0, 0.0, 2, 3, patience=80.0)]
    result = run_one(requests, Fleet([Vehicle(0, 0)]), net, zm, sched, None, nss_eat())
    assert result.record_lines() == ["0 0.0 PICKED_UP 80.0 120.0 0"]
    assert result.metadata["abandoned"] == 0


def test_replanned_pickup_wins_deadline_tie():
    net, zm, sched = one_zone_city(5)
    # 80 s to the pickup at first; halved speeds at 40 s make the OSS
    # re-plan land the vehicle on node 2 at 120 s, the deadline itself
    requests = [req(net, 0, 0.0, 2, 4, patience=120.0)]
    cfg = DispatchConfig(strategy=Strategy.OSS, eat_enabled=True)
    result = run_one(requests, Fleet([Vehicle(0, 0)]), net, zm, sched,
                     TrafficState([(40.0, 0.5)]), cfg)
    assert result.record_lines() == ["0 0.0 PICKED_UP 120.0 280.0 0"]


# -- queued follow-up jobs -----------------------------------------------


def test_sss_queues_job_behind_running_trip():
    net, zm, sched = one_zone_city(5)
    fleet = Fleet([Vehicle(0, 0)])
    requests = [
        req(net, 0, 0.0, 0, 2),      # trip runs 0 -> 2, done at 80
        req(net, 1, 10.0, 3, 4),     # queued: depart 80, pickup 120
    ]
    cfg = DispatchConfig(strategy=Strategy.SSS, eat_enabled=True)
    result = run_one(requests, fleet, net, zm, sched, None, cfg)
    assert result.record_lines() == [
        "0 0.0 PICKED_UP 0.0 80.0 0",
        "1 10.0 PICKED_UP 120.0 160.0 0",
    ]
    # same demand under NSS: no idle vehicle when the second call lands
    net2, zm2, sched2 = one_zone_city(5)
    requests2 = [req(net2, 0, 0.0, 0, 2), req(net2, 1, 10.0, 3, 4)]
    result2 = run_one(requests2, Fleet([Vehicle(0, 0)]), net2, zm2, sched2, None, nss_eat())
    assert result2.record_lines() == [
        "0 0.0 PICKED_UP 0.0 80.0 0",
        "1 10.0 REJECTED no-vehicle",
    ]


# -- traffic and rescheduling --------------------------------------------


def test_oss_reassigns_when_a_better_vehicle_frees_up():
    net, zm, sched = one_zone_city(12)
    fleet = Fleet([Vehicle(0, 0), Vehicle(1, 9)])
    requests = [
        req(net, 0, 0.0, 10, 11),    # short hop for vehicle 1
        req(net, 1, 10.0, 11, 10),   # vehicle 0 crawls over from node 0
    ]
    traffic = TrafficState([(100.0, 0.5)])
    cfg = DispatchConfig(strategy=Strategy.OSS, eat_enabled=True)
    result = run_one(requests, fleet, net, zm, sched, traffic, cfg)
    # the slowdown doubles vehicle 0's remaining 9 hops; vehicle 1 is already
    # idle at the pickup node, so the waiting job moves to it
    assert result.record_lines() == [
        "0 0.0 PICKED_UP 40.0 80.0 1",
        "1 10.0 PICKED_UP 100.0 180.0 1",
    ]
    assert result.metadata["reassignments"] == 1
    assert fleet.vehicle(0).status is VehicleStatus.IDLE
    assert fleet.vehicle(0).node == 2            # parked where the recall hit
    assert any("TRAFFIC_CHANGE multiplier=0.5" in line for line in result.event_log)
    assert any("RESCHEDULE actions=1 reassigned=1" in line for line in result.event_log)
    assert validate_transitions(fleet.transitions()) == []


def test_pickup_fires_from_the_event_scheduled_last():
    # The queued job's pickup goes from 240 s to 320 s under the slowdown and
    # back to 240 s when it lifts, each time by a new pickup event. The first
    # event, at the same 240 s, must not fire: only the one scheduled last
    # for the request is live.
    net, zm, sched = one_zone_city(8)
    requests = [
        req(net, 0, 0.0, 0, 4),      # vehicle 0 is at the pickup; dropoff at 160
        req(net, 1, 10.0, 6, 7),     # queued behind it: 2 hops from node 4
    ]
    traffic = TrafficState([(50.0, 0.5), (100.0, 1.0)])
    cfg = DispatchConfig(strategy=Strategy.OSS, eat_enabled=True)
    result = run_one(requests, Fleet([Vehicle(0, 0)]), net, zm, sched, traffic, cfg)
    assert result.record_lines() == [
        "0 0.0 PICKED_UP 0.0 160.0 0",
        "1 10.0 PICKED_UP 240.0 280.0 0",
    ]
    lines = [line.split() for line in result.event_log]
    reschedules = [int(seq) for _, seq, kind, *text in lines if kind == "RESCHEDULE"
                   and text == ["actions=1", "reassigned=0"]]
    pickups = [(t, int(seq)) for t, seq, kind, *text in lines
               if kind == "ARRIVED_AT_PICKUP" and text[0] == "req=1"]
    assert len(reschedules) == 2
    assert len(pickups) == 1
    assert pickups[0][0] == "240.0" and pickups[0][1] > reschedules[1]


def test_nss_ignores_traffic_changes():
    net, zm, sched = one_zone_city(5)
    requests = [req(net, 0, 0.0, 4, 3)]           # planned before the slowdown
    traffic = TrafficState([(100.0, 0.5)])
    result = run_one(requests, Fleet([Vehicle(0, 0)]), net, zm, sched, traffic, nss_eat())
    # legs keep the times fixed at planning: pickup at 160 regardless
    assert result.record_lines() == ["0 0.0 PICKED_UP 160.0 200.0 0"]
    assert not any("RESCHEDULE" in line for line in result.event_log)
    assert any("TRAFFIC_CHANGE" in line for line in result.event_log)


def test_dispatch_sees_multiplier_in_force():
    net, zm, sched = one_zone_city(5)
    requests = [req(net, 0, 200.0, 4, 3)]         # arrives under the slowdown
    traffic = TrafficState([(100.0, 0.5)])
    result = run_one(requests, Fleet([Vehicle(0, 0)]), net, zm, sched, traffic, nss_eat())
    assert result.record_lines() == ["0 200.0 PICKED_UP 520.0 600.0 0"]


# -- event log -----------------------------------------------------------


def test_event_log_header_and_shape():
    # The engine writes events only; the `# amodsim <config hash>` header is
    # the caller's (cli.cmd_run writes it ahead of these lines).
    net, zm, sched = one_zone_city(5)
    result = run_one([req(net, 0, 0.0, 1, 2)], Fleet([Vehicle(0, 0)]),
                     net, zm, sched, None, nss_eat())
    assert not any(line.startswith("#") for line in result.event_log)
    for line in result.event_log:
        t, seq, kind = line.split()[:3]
        float(t)
        assert int(seq) >= 0
        assert kind in {"REQUEST_ARRIVAL", "ARRIVED_AT_PICKUP", "TRIP_COMPLETED",
                        "PASSENGER_ABANDONED", "TRAFFIC_CHANGE", "RESCHEDULE"}
    arrival = result.event_log[0]
    assert "req=0 zone=0 outcome=assigned vehicle=0 eta=40.0 rounds=1 adj=0" in arrival


def test_arrivals_take_the_sequence_numbers_reserved_for_them():
    net, zm, sched = one_zone_city(5)
    traffic = TrafficState([(10.0, 0.5), (30.0, 1.0)])    # both at arrival times
    requests = [req(net, 4, 45.0, 3, 4), req(net, 3, 30.0, 1, 0),
                req(net, 2, 10.0, 4, 3), req(net, 1, 10.0, 2, 3),
                req(net, 0, 0.0, 0, 1)]                   # vehicle 0 waits at node 0
    result = run_one(requests, Fleet([Vehicle(0, 0), Vehicle(1, 4)]), net, zm, sched,
                     traffic, nss_eat())
    n_changes, n_requests = 2, len(requests)
    lines = [line.split() for line in result.event_log]
    arrivals = [(int(seq), text[0]) for _, seq, kind, *text in lines
                if kind == "REQUEST_ARRIVAL"]
    assert arrivals == [(n_changes + i, f"req={i}") for i in range(n_requests)]
    # a traffic change logs ahead of the arrival at its instant
    assert [(t, seq, kind) for t, seq, kind, *_ in lines[2:4]] == [
        ("10.0", "0", "TRAFFIC_CHANGE"), ("10.0", "3", "REQUEST_ARRIVAL")]
    # the first event the run schedules takes the number after the arrivals
    assert lines[1][:4] == ["0.0", str(n_changes + n_requests), "ARRIVED_AT_PICKUP", "req=0"]
    runtime = [int(seq) for _, seq, kind, *_ in lines
               if kind not in ("REQUEST_ARRIVAL", "TRAFFIC_CHANGE")]
    assert min(runtime) == n_changes + n_requests


def test_the_queue_holds_one_arrival_at_a_time(monkeypatch):
    """No cell queues an input: the pass hands each traffic change and each
    arrival to every cell in turn, and drops what the cells share of an
    arrival (snapped ends, zone, trip route) before the next one is made."""
    net, zm, sched = golden_city()
    # a change tied with an arrival, one between arrivals, one after the last
    traffic = TrafficState([(48.0, 0.5), (150.0, 1.0), (400.0, 2.0)])
    cfgs = (nss_eat(), DispatchConfig(strategy=Strategy.SSS, eat_enabled=False))
    lone = [run_one(golden_requests(), golden_fleet(), net, zm, copy_schedule(sched), traffic,
                    cfg) for cfg in cfgs]
    queued = alive = made = 0
    inputs = (EventKind.REQUEST_ARRIVAL, EventKind.TRAFFIC_CHANGE)

    def push(heap, item):
        nonlocal queued
        heapq.heappush(heap, item)
        queued = max(queued, sum(1 for e in heap if e[2] in inputs))

    live = weakref.WeakSet()

    class Counted(Arrival):
        def __init__(self, *args):
            nonlocal alive, made
            super().__init__(*args)
            live.add(self)
            alive = max(alive, len(live))
            made += 1

    monkeypatch.setattr(engine, "heapq", SimpleNamespace(heappush=push, heappop=heapq.heappop,
                                                         merge=heapq.merge))
    monkeypatch.setattr(engine, "Arrival", Counted)
    cells = [(golden_fleet(), copy_schedule(sched), cfg) for cfg in cfgs]
    both = engine.run(golden_requests(), cells, net, zm, traffic)
    for got, want in zip(both, lone):
        assert len(got.records) == 10
        assert got.event_log == want.event_log
        assert sum("TRAFFIC_CHANGE" in line for line in got.event_log) == 3
    assert (queued, alive, made) == (0, 1, 10)


def routed_trips(monkeypatch) -> list[tuple[int, int, float]]:
    """The (src, dst, at_s) of every trip search from now on: the one a
    RouteQuery makes when its route is first read."""
    routed, search = [], road.RouteQuery.route.func

    def counted(query):
        routed.append((query.src, query.dst, query.at_s))
        return search(query)

    route = cached_property(counted)
    route.__set_name__(road.RouteQuery, "route")
    monkeypatch.setattr(road.RouteQuery, "route", route)
    return routed


def test_a_pass_equals_lone_runs_and_routes_each_trip_once(monkeypatch):
    net = grid_network(9, 9)
    zm = ZoneMap(tile_zones(9, 9, 3, 3, D))
    requests = generate_demand(120.0, 1800.0, zm.bbox(), zone_map=zm, seed=3,
                               patience_range=(300.0, 900.0))
    traffic = TrafficState([(600.0, 0.5), (1200.0, 1.0)])
    cfgs = [DispatchConfig(strategy=Strategy.NSS, eat_enabled=eat) for eat in (True, False)]

    def cell(cfg):
        return Fleet.place_uniform(net, 10, 4), initial_adjacency(zm), cfg

    routed = routed_trips(monkeypatch)
    lone, lone_routed = [], []
    for cfg in cfgs:
        fleet, sched, _ = cell(cfg)
        lone.append(run_one(requests, fleet, net, zm, sched, traffic, cfg))
        lone_routed.append(list(routed))
        routed.clear()
    both = engine.run(requests, [cell(cfg) for cfg in cfgs], net, zm, traffic)

    assert lone[0].record_lines() != lone[1].record_lines()
    for got, want in zip(both, lone):
        assert got.record_lines() == want.record_lines()
        assert got.event_log == want.event_log
        assert got.metadata == want.metadata
    assert both.metadata["events_processed"] == sum(r.metadata["events_processed"] for r in lone)
    # Each arrival's trip is searched at most once, by the first cell that
    # needs it, and only if some lone run searched it too.
    distinct = set(lone_routed[0]) | set(lone_routed[1])
    assert sorted(routed) == sorted(distinct)
    assert len(distinct) < len(lone_routed[0]) + len(lone_routed[1])


def overloaded_city():
    """A strongly connected 9x9 grid with more calls than its fleet can
    serve in time, and a traffic schedule of three changes."""
    net = grid_network(9, 9)
    zm = ZoneMap(tile_zones(9, 9, 3, 3, D))
    requests = generate_demand(240.0, 1800.0, zm.bbox(), zone_map=zm, seed=5,
                               patience_range=(200.0, 700.0))
    traffic = TrafficState([(500.0, 0.5), (1000.0, 1.25), (1500.0, 0.8)])
    return net, zm, requests, traffic


def test_oss_searches_the_trip_of_each_pickup_alone(monkeypatch):
    """A trip is searched once its passenger boards and never otherwise:
    not at dispatch, and not when OSS re-plans a job whose passenger then
    abandons it or whose plan a later pass replaces."""
    net, zm, requests, traffic = overloaded_city()
    assert net.scc_count == 1  # no routability check needs the trip
    routed = routed_trips(monkeypatch)
    cfg = DispatchConfig(strategy=Strategy.OSS, eat_enabled=True)
    result = run_one(requests, Fleet.place_uniform(net, 8, 6), net, zm, initial_adjacency(zm),
                     traffic, cfg)
    counts = result.metadata
    assert counts["abandoned"] > 0 and counts["reassignments"] > 0
    assert len(routed) == counts["picked_up"]
    assert len(set(routed)) == len(routed)  # no trip is searched twice


@pytest.mark.parametrize("cfgs", [
    [DispatchConfig(strategy=Strategy.NSS, eat_enabled=True)],
    [DispatchConfig(strategy=Strategy.SSS, eat_enabled=True)],
    [DispatchConfig(strategy=strategy, eat_enabled=eat) for strategy in Strategy
     for eat in (True, False)],
], ids=["Strategy.NSS", "Strategy.SSS", "six-cells"])
def test_a_run_builds_each_multiplier_tables_once(monkeypatch, cfgs):
    """A cell that does not re-plan searches its waiting trips at each
    traffic change, under the tables already built, and every cell of a
    pass takes a change before any cell dispatches under the new
    multiplier; so a pass of one cell or six builds tables once at the
    start and once per change."""
    net, zm, requests, traffic = overloaded_city()
    builds, real = [], road.RoadNetwork.edge_times

    def counted(self, mult):
        tables = real(self, mult)
        if not builds or tables[0] is not builds[-1][1]:
            builds.append((mult, tables[0]))
        return tables

    monkeypatch.setattr(road.RoadNetwork, "edge_times", counted)
    cells = [(Fleet.place_uniform(net, 8, 6), initial_adjacency(zm), cfg) for cfg in cfgs]
    for result in engine.run(requests, cells, net, zm, traffic):
        assert result.metadata["picked_up"] > 0
    assert [mult for mult, _ in builds] == [1.0, 0.5, 1.25, 0.8]
    assert len(builds) == len(traffic.change_times()) + 1


def test_a_ranking_enters_the_search_once_per_candidate_node_it_settles(monkeypatch):
    """An OSS run under traffic changes: each `best` call of a ranking
    enters ReverseSearch.settle once, and once more for each node it
    settles where a candidate waits, not once per node settled; and it
    settles the same nodes as a run whose searches step one node per call."""
    net, zm, requests, traffic = overloaded_city()
    cfg = DispatchConfig(strategy=Strategy.OSS, eat_enabled=True)
    real_settle, real_best = road.ReverseSearch.settle, _EtaRanking.best
    counts = {"entries": 0, "found": 0, "best": 0}

    def counted_settle(self, limit=math.inf, until=None):
        counts["entries"] += 1
        node = real_settle(self, limit, until)
        counts["found"] += node is not None
        return node

    def counted_best(self, *args):
        counts["best"] += 1
        return real_best(self, *args)

    def one_node_steps(self, limit=math.inf, until=None):
        node = real_settle(self, limit)
        while node is not None and until is not None and node not in until:
            node = real_settle(self, limit)
        return node

    def settled_nodes():
        result = run_one(requests, Fleet.place_uniform(net, 8, 6), net, zm,
                         initial_adjacency(zm), traffic, cfg)
        return result.metadata["nodes_settled"], result.metadata["oss_nodes_settled"]

    with monkeypatch.context() as mp:
        mp.setattr(road.ReverseSearch, "settle", counted_settle)
        mp.setattr(_EtaRanking, "best", counted_best)
        looped = settled_nodes()
    monkeypatch.setattr(road.ReverseSearch, "settle", one_node_steps)
    assert settled_nodes() == looped
    assert looped[1] > 0 and counts["found"] > 0
    assert counts["entries"] <= counts["best"] + counts["found"]
    assert 10 * counts["entries"] < sum(looped)


@pytest.mark.parametrize("strategy", [Strategy.SSS, Strategy.OSS])
def test_a_ranking_stops_only_where_a_candidate_waits_or_idle_vehicles_stand(monkeypatch,
                                                                            strategy):
    """Every node ReverseSearch.settle returns to a ranking's `best` holds a
    candidate of that call not yet settled, or idle vehicles: not the
    dropoff of an on-trip vehicle outside the region, or one too small for
    the party."""
    net, zm, requests, traffic = overloaded_city()
    real_settle, real_best = road.ReverseSearch.settle, _EtaRanking.best
    calls = []  # (nodes of the candidates, the fleet's idle index) of each best call running
    stops, strays = [], []

    def best(self, candidates, cap=math.inf, region=None):
        candidates = list(candidates)
        now = self._now
        nodes = {job_start(v, now)[0] for v in candidates
                 if region is None or (v.capacity >= self._seats
                                       and self._node_zone[v.current_node(now)] in region)}
        calls.append((nodes, self._fleet.idle_at if region is not None else {}))
        try:
            return real_best(self, candidates, cap, region)
        finally:
            calls.pop()

    def settle(self, limit=math.inf, until=None):
        node = real_settle(self, limit, until)
        if node is not None and calls:
            nodes, idle_at = calls[-1]
            stops.append(node)
            if node not in nodes and node not in idle_at:
                strays.append(node)
        return node

    monkeypatch.setattr(road.ReverseSearch, "settle", settle)
    monkeypatch.setattr(_EtaRanking, "best", best)
    result = run_one(requests, Fleet.place_uniform(net, 20, 6), net, zm, initial_adjacency(zm),
                     traffic, DispatchConfig(strategy=strategy, eat_enabled=True))
    assert result.metadata["picked_up"] > 0 and len(stops) > 100
    assert strays == []


def test_node_zones_are_resolved_only_where_read(monkeypatch):
    """A pass locates only calls' pickups and the nodes vehicles stand on
    when a call is dispatched, and under SSS and OSS the nodes of the trip
    routes of the on-trip vehicles then, which the fleet's on-trip index
    reads ahead; each once, to the zone an eager table holds."""
    net = grid_network(9, 9)
    zm = ZoneMap(tile_zones(9, 9, 3, 3, D))
    requests = generate_demand(20.0, 1800.0, zm.bbox(), zone_map=zm, seed=3,
                               patience_range=(300.0, 900.0))
    located = []
    real_locate, real_dispatch = ZoneMap.locate_or_nearest, engine.dispatch

    def locate(self, p):
        located.append(p)
        return real_locate(self, p)

    stood, routes, tables = set(), set(), []

    def spy(call, arrival, fleet, sched, node_zone, cfg):
        stood.update(v.current_node(arrival.now_s) for v in fleet)
        routes.update(n for v in fleet.on_trip.values() for n in v.plan.route_of_trip.nodes)
        tables.append(node_zone)
        return real_dispatch(call, arrival, fleet, sched, node_zone, cfg)

    monkeypatch.setattr(ZoneMap, "locate_or_nearest", locate)
    monkeypatch.setattr(engine, "dispatch", spy)
    for strategy in (Strategy.NSS, Strategy.SSS, Strategy.OSS):
        for seen in (located, stood, routes, tables):
            seen.clear()
        run_one(requests, Fleet.place_uniform(net, 3, 4), net, zm, initial_adjacency(zm), None,
                DispatchConfig(strategy=strategy))
        allowed = {net.nodes[n] for n in stood} | {r.pickup for r in requests}
        if strategy is not Strategy.NSS:
            allowed |= {net.nodes[n] for n in routes}
        assert set(located) <= allowed
        table = tables[0]
        assert all(t is table for t in tables) and 0 < len(table) < len(net.ids)
        for node, zone in table.items():
            assert zone == real_locate(zm, net.nodes[node])[0]


def test_replay_check_reports_diffs():
    base = ["# amodsim aaaa", "0.0 0 REQUEST_ARRIVAL req=0", "40.0 1 ARRIVED_AT_PICKUP req=0"]
    same = replay_check(base, list(base))
    assert same.ok and same.diffs == []

    drifted = list(base)
    drifted[2] = "41.0 1 ARRIVED_AT_PICKUP req=0"
    report = replay_check(base, drifted)
    assert not report.ok
    assert len(report.diffs) == 1 and "line 3" in report.diffs[0]

    shorter = replay_check(base, base[:2])
    assert not shorter.ok and "<missing>" in shorter.diffs[0]

    with pytest.raises(ValueError):
        replay_check(base, ["# amodsim bbbb"] + base[1:])


def test_replay_check_caps_reported_diffs():
    a = [f"{i}.0 {i} TRIP_COMPLETED req={i}" for i in range(20)]
    b = [f"{i}.5 {i} TRIP_COMPLETED req={i}" for i in range(20)]
    report = replay_check(a, b, max_diffs=3)
    assert not report.ok and len(report.diffs) == 3


# -- guards --------------------------------------------------------------


def test_duplicate_request_ids_rejected():
    net, zm, sched = one_zone_city(5)
    requests = [req(net, 0, 0.0, 1, 2), req(net, 0, 5.0, 2, 3)]
    with pytest.raises(SimulationError):
        run_one(requests, Fleet([Vehicle(0, 0)]), net, zm, sched, None, nss_eat())


def test_refused_fleet_operation_stops_the_run(monkeypatch):
    def refuse(v, request_id, now_s):
        raise ValueError(f"vehicle {v.id} refuses request {request_id}")

    monkeypatch.setattr(engine, "pick_up", refuse)
    net, zm, sched = one_zone_city(5)
    requests = [req(net, 0, 0.0, 2, 3)]
    with pytest.raises(SimulationError, match=r"^t=80\.0: vehicle 0 refuses request 0$"):
        run_one(requests, Fleet([Vehicle(0, 0)]), net, zm, sched, None, nss_eat())


def test_no_arrival_is_snapped_once_every_cell_has_failed(monkeypatch, caplog):
    """After the last live cell fails, the pass neither snaps the rest of
    the demand nor counts it in the snap-failure warning."""
    made = []

    class Counted(Arrival):
        def __init__(self, call, *args):
            super().__init__(call, *args)
            made.append(call.id)

    def boom(*args):
        raise SimulationError("boom")

    monkeypatch.setattr(engine, "Arrival", Counted)
    monkeypatch.setattr(engine, "dispatch", boom)
    net, zm, sched = one_zone_city(5)
    far = GeoPoint(0.5, 0.5)                      # beyond the snap radius
    requests = [req(net, 0, 0.0, 1, 2), TripRequest(1, 5.0, far, net.nodes[2], 1, 600.0)]
    traffic = TrafficState([(10.0, 0.5)])
    [outcome] = engine.run(requests, [(Fleet([Vehicle(0, 0)]), sched, nss_eat())], net, zm,
                           traffic)
    assert isinstance(outcome, SimulationError)
    assert made == [0]
    assert "snap radius" not in caplog.text


def test_empty_zone_map_rejected():
    net, _, _ = one_zone_city(5)
    with pytest.raises(SimulationError):
        run_one([], Fleet([]), net, ZoneMap([]), AdjacencySchedule([]), None, nss_eat())


def test_unsnappable_request_is_rejected_as_unroutable():
    net, zm, sched = one_zone_city(5)
    from amodsim.geo import GeoPoint
    far = GeoPoint(0.5, 0.5)                      # ~70 km off the line
    requests = [TripRequest(0, 0.0, far, net.nodes[2], 1, 600.0)]
    result = run_one(requests, Fleet([Vehicle(0, 0)]), net, zm, sched, None, nss_eat())
    assert result.record_lines() == ["0 0.0 REJECTED unroutable"]
    assert result.metadata["snap_failures"] == 1
    assert result.metadata["rejected"] == {"unroutable": 1}


def test_party_no_vehicle_fits_is_rejected_no_vehicle():
    net, zm, sched = one_zone_city(5)
    requests = [TripRequest(0, 0.0, net.nodes[2], net.nodes[4], 4, 600.0),
                TripRequest(1, 10.0, net.nodes[2], net.nodes[4], 1, 600.0)]
    fleet = Fleet([Vehicle(0, 0, capacity=1), Vehicle(1, 1, capacity=1)])
    result = run_one(requests, fleet, net, zm, sched, None, nss_eat())
    assert result.record_lines()[0] == "0 0.0 REJECTED no-vehicle"
    assert result.record_lines()[1].split()[2] == "PICKED_UP"
    assert result.metadata["rejected"] == {"no-vehicle": 1}


def test_conservation_of_requests():
    meta = run_golden().metadata
    assert meta["requests"] == meta["picked_up"] + meta["abandoned"] + \
        sum(meta["rejected"].values())


# -- random small cities ---------------------------------------------------

FAR = GeoPoint(0.5, 0.5)                          # beyond every snap radius here

# (time / 5 s, pickup node, dropoff node, patience, beyond the snap radius)
CALL = st.tuples(st.integers(0, 120), st.integers(0, 35), st.integers(0, 35),
                 st.integers(60, 900), st.integers(0, 9).map(lambda k: k == 0))
# Up to four vehicles for up to 40 calls in ten minutes: overloaded.
CITY = st.fixed_dictionaries({
    "rows": st.integers(2, 6),
    "cols": st.integers(2, 6),
    "zone_split": st.tuples(st.integers(1, 2), st.integers(1, 2)),
    "vehicles": st.lists(st.integers(0, 35), min_size=1, max_size=4),
    "calls": st.lists(CALL, min_size=5, max_size=40),
    "changes": st.lists(st.tuples(st.integers(1, 120), st.sampled_from(DYADIC_MULTIPLIERS)),
                        min_size=1, max_size=4, unique_by=lambda c: c[0]),
})


def run_city(city, strategy, eat):
    """One run on a fresh copy of city; asserts at every logged event that
    the engine holds state for exactly the requests some vehicle holds."""
    rows, cols = city["rows"], city["cols"]
    n = rows * cols
    net = grid_network(rows, cols)
    zm = ZoneMap(tile_zones(rows, cols, *city["zone_split"], D))
    fleet = Fleet([Vehicle(i, node % n) for i, node in enumerate(city["vehicles"])])
    requests = [TripRequest(i, 5.0 * t, FAR if far else net.nodes[a % n],
                            net.nodes[b % n], 1, float(patience))
                for i, (t, a, b, patience, far) in enumerate(city["calls"])]
    traffic = TrafficState(sorted((5.0 * t, m) for t, m in city["changes"]))
    emit = engine._Cell.emit

    def checked_emit(sim, kind, text):
        held = {p.request.id for v in sim.fleet for p in (v.plan, v.queued) if p is not None}
        assert set(sim.states) == held
        emit(sim, kind, text)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine._Cell, "emit", checked_emit)
        cfg = DispatchConfig(strategy=strategy, eat_enabled=eat)
        result = run_one(requests, fleet, net, zm, initial_adjacency(zm), traffic, cfg)
    return requests, fleet, result


@settings(max_examples=100)
@given(CITY)
def test_runs_on_small_cities_keep_their_invariants(city):
    for strategy in Strategy:
        for eat in (True, False):
            requests, fleet, result = run_city(city, strategy, eat)
            by_id = {r.id: r for r in requests}
            assert sorted(rec.request_id for rec in result.records) == sorted(by_id)
            for rec in result.records:
                patience = by_id[rec.request_id].patience_s
                if rec.outcome == OUTCOME_PICKED_UP:
                    assert rec.wait_s <= patience
                elif rec.outcome == OUTCOME_ABANDONED:
                    assert rec.abandon_time_s == rec.request_time_s + patience
            assert result.metadata["snap_failures"] == sum(c[4] for c in city["calls"])
            assert validate_transitions(fleet.transitions()) == []
            for v in fleet:  # each trace chains from Idle to the final status
                states = [VehicleStatus.IDLE] + [tr.dst for tr in v.transitions]
                assert [tr.src for tr in v.transitions] == states[:-1]
                assert states[-1] is v.status
            _, _, again = run_city(city, strategy, eat)
            assert again.record_lines() == result.record_lines()
            assert again.event_log == result.event_log
