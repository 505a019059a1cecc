"""Dispatch over both region schedules (expansion, one-ring baseline) and traffic re-planning."""

import copy
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amodsim import dispatch as dispatch_module
from amodsim import road
from amodsim.demand import TripRequest, generate_demand
from amodsim.dispatch import (
    Arrival,
    DispatchConfig,
    _EtaRanking,
    dispatch,
    oss_reschedule,
)
from amodsim.fleet import (Fleet, Plan, Strategy, Transition, Vehicle, VehicleStatus, assign,
                           candidate_pool, job_start, pick_up, waiting_job, waiting_jobs)
from amodsim.geo import GeoPoint, haversine_m
from amodsim.road import RoadNetwork, RouteQuery, TrafficState, route_astar
from amodsim.zones import AdjacencySchedule, Zone, ZoneMap, initial_adjacency
from scenario_tools import (
    DYADIC_MULTIPLIERS,
    GOLDEN_SPACING_DEG,
    box_polygon,
    full_scan_best,
    grid_network,
    hop_route,
    random_network,
    reference_oss_reschedule,
    run_one,
    tile_zones,
)

HOP_S = 40.0
D = GOLDEN_SPACING_DEG


def line_city(col_ranges, pairs, cols=None):
    """1 x N grid; zone k covers node columns col_ranges[k] = (lo, hi)."""
    cols = cols if cols is not None else max(hi for _, hi in col_ranges) + 1
    net = grid_network(1, cols)
    zones = [Zone(k, box_polygon(-0.5 * D, 0.5 * D, (lo - 0.5) * D, (hi + 0.5) * D))
             for k, (lo, hi) in enumerate(col_ranges)]
    zm = ZoneMap(zones)
    sched = AdjacencySchedule([z.id for z in zones])
    for a, b in pairs:
        sched.add_neighbor(a, b)
    node_zone = {}
    for nid in net.nodes:
        for k, (lo, hi) in enumerate(col_ranges):
            if lo <= nid <= hi:
                node_zone[nid] = k
                break
    return net, zm, sched, node_zone


def call_at(net, pickup_node, dropoff_node, rid=0, t=0.0, patience=600.0):
    return TripRequest(rid, t, net.nodes[pickup_node],
                       net.nodes[dropoff_node], 1, patience)


def run_dispatch(net, zm, sched, node_zone, vehicles, pickup, dropoff,
                 cfg, now=0.0, traffic=None):
    fleet = Fleet(vehicles)
    call = call_at(net, pickup, dropoff, t=now)
    return dispatch(call, Arrival(call, pickup, dropoff, zm, net, traffic), fleet, sched,
                    node_zone, cfg)


EAT = DispatchConfig(strategy=Strategy.NSS, eat_enabled=True)
BASE = DispatchConfig(strategy=Strategy.NSS, eat_enabled=False)


def test_expansion_keeps_widening_where_baseline_stops():
    # chain of zones 0-1-2; the only vehicle sits two rings away from the call
    city = line_city([(0, 0), (1, 3), (4, 4)], [(0, 1), (1, 2)])
    net, zm, sched, node_zone = city

    d = run_dispatch(net, zm, sched, node_zone, [Vehicle(0, 4)], 0, 2, EAT)
    assert d.assigned and d.vehicle_id == 0
    assert d.zones_searched == [frozenset({0, 1}), frozenset({0, 1, 2})]
    assert d.eta_s == 4 * HOP_S
    assert not d.adjacency_updated
    assert sched.pairs() == [(0, 1), (1, 2)]     # same component: no new link

    d = run_dispatch(net, zm, sched, node_zone, [Vehicle(0, 4)], 0, 2, BASE)
    assert not d.assigned
    assert d.reject_reason == "no-vehicle"
    assert d.zones_searched == [frozenset({0}), frozenset({1})]


def test_first_region_hit_targets_minimum_eta():
    net, zm, sched, node_zone = line_city([(0, 2), (3, 4)], [(0, 1)])
    vehicles = [Vehicle(0, 0), Vehicle(1, 4)]    # 3 hops vs 1 hop to node 3
    d = run_dispatch(net, zm, sched, node_zone, vehicles, 3, 4, EAT)
    assert d.vehicle_id == 1
    assert d.eta_s == HOP_S
    assert d.zones_searched == [frozenset({0, 1})]
    assert d.route_to_pickup.nodes == (4, 3)
    assert d.trip.route.nodes == (3, 4)


def test_eta_tie_breaks_to_lowest_vehicle_id():
    net, zm, sched, node_zone = line_city([(0, 4)], [])
    vehicles = [Vehicle(0, 0), Vehicle(1, 4)]    # both two hops from node 2
    d = run_dispatch(net, zm, sched, node_zone, vehicles, 2, 4, EAT)
    assert d.vehicle_id == 0 and d.eta_s == 2 * HOP_S
    # Swapped, node 0 settles before node 4 at the same distance, so vehicle
    # 1 is found first; the search must go on to settle vehicle 0 as well.
    vehicles = [Vehicle(0, 4), Vehicle(1, 0)]
    d = run_dispatch(net, zm, sched, node_zone, vehicles, 2, 4, EAT)
    assert d.vehicle_id == 0 and d.eta_s == 2 * HOP_S
    assert d.nodes_settled == 5


def test_global_fallback_links_winning_zone():
    # two components: 0-1 and 2-3; call in 0, vehicle across the break in 2
    city = line_city([(0, 0), (1, 2), (3, 4), (5, 5)], [(0, 1), (2, 3)])
    net, zm, sched, node_zone = city
    d = run_dispatch(net, zm, sched, node_zone, [Vehicle(0, 4)], 0, 1, EAT)
    assert d.assigned and d.vehicle_id == 0
    assert d.zones_searched == [frozenset({0, 1}), frozenset({0, 1, 2, 3})]
    assert d.adjacency_updated
    assert sched.pairs() == [(0, 1), (0, 2), (2, 3)]


def test_global_fallback_without_winner_keeps_adjacency():
    city = line_city([(0, 0), (1, 2), (3, 4), (5, 5)], [(0, 1), (2, 3)])
    net, zm, sched, node_zone = city
    d = run_dispatch(net, zm, sched, node_zone, [], 0, 1, EAT)
    assert not d.assigned and d.reject_reason == "no-vehicle"
    assert d.zones_searched == [frozenset({0, 1}), frozenset({0, 1, 2, 3})]
    assert not d.adjacency_updated
    assert sched.pairs() == [(0, 1), (2, 3)]


def test_component_covering_everything_skips_duplicate_global_round():
    net, zm, sched, node_zone = line_city([(0, 0), (1, 3), (4, 4)],
                                          [(0, 1), (1, 2)])
    d = run_dispatch(net, zm, sched, node_zone, [], 0, 2, EAT)
    # the last expansion already reached every zone; no extra global round
    assert d.zones_searched == [frozenset({0, 1}), frozenset({0, 1, 2})]
    assert d.reject_reason == "no-vehicle"
    # A vehicle in that last ring is found there. The ring equals the whole
    # city, but it is a ring of the call's component, so no link is added.
    d = run_dispatch(net, zm, sched, node_zone, [Vehicle(0, 4)], 0, 2, EAT)
    assert d.vehicle_id == 0
    assert d.zones_searched == [frozenset({0, 1}), frozenset({0, 1, 2})]
    assert not d.adjacency_updated
    assert sched.pairs() == [(0, 1), (1, 2)]


def test_isolated_zone_searches_itself_then_everywhere():
    city = line_city([(0, 1), (2, 3), (4, 4)], [(1, 2)])   # zone 0 isolated
    net, zm, sched, node_zone = city

    inside = run_dispatch(net, zm, sched, node_zone, [Vehicle(0, 1)], 0, 3, EAT)
    assert inside.vehicle_id == 0
    assert inside.zones_searched == [frozenset({0})]
    assert not inside.adjacency_updated

    # the baseline's ring is empty: it searches the zone alone and gives up
    base = run_dispatch(net, zm, sched, node_zone, [Vehicle(0, 4)], 0, 3, BASE)
    assert base.zones_searched == [frozenset({0})]
    assert not base.assigned and base.reject_reason == "no-vehicle"
    assert sched.pairs() == [(1, 2)] and not base.adjacency_updated

    far = run_dispatch(net, zm, sched, node_zone, [Vehicle(0, 4)], 0, 3, EAT)
    assert far.assigned
    assert far.zones_searched == [frozenset({0}), frozenset({0, 1, 2})]
    assert far.adjacency_updated
    assert sched.pairs() == [(0, 2), (1, 2)]


def test_baseline_prefers_call_zone_over_closer_ring_vehicle():
    net, zm, sched, node_zone = line_city([(0, 2), (3, 4)], [(0, 1)])
    vehicles = [Vehicle(0, 0), Vehicle(1, 3)]    # call at node 2
    base = run_dispatch(net, zm, sched, node_zone, vehicles, 2, 4, BASE)
    assert base.vehicle_id == 0                  # own zone searched alone first
    assert base.eta_s == 2 * HOP_S
    assert base.zones_searched == [frozenset({0})]
    eat = run_dispatch(net, zm, sched, node_zone, vehicles, 2, 4, EAT)
    assert eat.vehicle_id == 1                   # region-wide minimum instead
    assert eat.eta_s == HOP_S


def test_unroutable_rejections():
    net, zm, sched, node_zone = line_city([(0, 4)], [])
    call = call_at(net, 2, 4)        # location is fine; node snap came up empty
    d = dispatch(call, Arrival(call, None, 4, zm, net, None), Fleet([Vehicle(0, 0)]), sched,
                 node_zone, EAT)
    assert d.reject_reason == "unroutable"
    assert d.zones_searched == [frozenset({0})]

    # A one-way pair: each node is a component of its own. The vehicle sits
    # in the other zone, where the reverse call would add a link if it
    # ever reached the vehicle search.
    p = GeoPoint(0.0, 0.0)
    q = GeoPoint(0.0, 0.004)
    oneway = RoadNetwork({0: p, 1: q}, [(0, 1, 500.0, 10.0)], 10.0)
    assert oneway.component[0] != oneway.component[1]
    zm1 = ZoneMap([Zone(0, box_polygon(-0.01, 0.01, -0.01, 0.002)),
                   Zone(1, box_polygon(-0.01, 0.01, 0.002, 0.01))])
    sched1 = AdjacencySchedule([0, 1])
    fleet = Fleet([Vehicle(0, 0)])

    # reachable pickup, unreachable dropoff: rejected before any vehicle search
    call = TripRequest(0, 0.0, q, p, 1, 600.0)
    d = dispatch(call, Arrival(call, 1, 0, zm1, oneway, None), fleet, sched1, {0: 0, 1: 1}, EAT)
    assert d.reject_reason == "unroutable"
    assert d.zones_searched == [frozenset({1})]
    assert d.nodes_settled == 0
    assert not d.adjacency_updated and sched1.pairs() == []

    # the trip the other way crosses components too, and is routed
    call = TripRequest(1, 0.0, p, q, 1, 600.0)
    d = dispatch(call, Arrival(call, 0, 1, zm1, oneway, None), fleet, sched1, {0: 0, 1: 1}, EAT)
    assert d.vehicle_id == 0
    assert d.trip.route == route_astar(oneway, 0, 1, 0.0)


def count_searches(monkeypatch) -> list[tuple[int, int]]:
    """The (src, dst) of every road.route_astar call from now on."""
    calls = []

    def counted(net, src, dst, *rest, **kw):
        calls.append((src, dst))
        return route_astar(net, src, dst, *rest, **kw)

    monkeypatch.setattr(road, "route_astar", counted)
    return calls


def test_dispatch_routes_the_trip_only_for_a_winner(monkeypatch):
    """A rejected call's trip is never searched; a winner's decision
    carries the trip as a query, searched once, when first read."""
    net, zm, sched, node_zone = line_city([(0, 2), (3, 4)], [])
    searches = count_searches(monkeypatch)
    d = run_dispatch(net, zm, sched, node_zone, [Vehicle(0, 4)], 1, 2, BASE)
    assert d.reject_reason == "no-vehicle"
    assert searches == []       # same component: routable without a search

    d = run_dispatch(net, zm, sched, node_zone, [Vehicle(0, 0)], 1, 2, BASE)
    assert d.vehicle_id == 0
    assert searches == [(0, 1)]              # the winner's pickup leg alone
    assert (d.trip.src, d.trip.dst) == (1, 2)
    assert d.trip.route.nodes == (1, 2)      # the trip, searched when read
    assert d.trip.route.nodes == (1, 2)
    assert searches == [(0, 1), (1, 2)]      # and only once


def test_party_larger_than_a_vehicle_skips_it():
    net, zm, sched, node_zone = line_city([(0, 4)], [])
    fleet = Fleet([Vehicle(0, 2, capacity=1), Vehicle(1, 0, capacity=2)])
    pair = TripRequest(0, 0.0, net.nodes[2], net.nodes[4], 2, 600.0)
    d = dispatch(pair, Arrival(pair, 2, 4, zm, net, None), fleet, sched, node_zone, EAT)
    assert d.vehicle_id == 1 and d.eta_s == 2 * HOP_S    # not the one on the spot
    crowd = TripRequest(1, 0.0, net.nodes[2], net.nodes[4], 3, 600.0)
    for cfg in (EAT, BASE):
        d = dispatch(crowd, Arrival(crowd, 2, 4, zm, net, None), fleet, sched, node_zone, cfg)
        assert not d.assigned and d.reject_reason == "no-vehicle"


def test_dispatch_does_not_touch_vehicle_state():
    net, zm, sched, node_zone = line_city([(0, 4)], [])
    v = Vehicle(0, 0)
    d = run_dispatch(net, zm, sched, node_zone, [v], 2, 4, EAT)
    assert d.assigned
    assert v.status is VehicleStatus.IDLE and v.plan is None


def test_sss_considers_busy_vehicles():
    net, zm, sched, node_zone = line_city([(0, 4)], [])
    v = Vehicle(0, 0)
    assign(v, call_at(net, 1, 2, rid=9), route_astar(net, 0, 1, 0.0),
           RouteQuery(net, 1, 2, 0.0), 0.0)
    pick_up(v, 9, 0.0)                        # passenger already aboard
    fleet = Fleet([v])
    call = call_at(net, 3, 4, rid=1, t=32.0)

    arrival = Arrival(call, 3, 4, zm, net, None)
    nss = dispatch(call, arrival, fleet, sched, node_zone,
                   DispatchConfig(strategy=Strategy.NSS, eat_enabled=True))
    assert nss.reject_reason == "no-vehicle"

    sss = dispatch(call, arrival, fleet, sched, node_zone,
                   DispatchConfig(strategy=Strategy.SSS, eat_enabled=True))
    # 48 s left on the trip to node 2, then one hop to node 3
    assert sss.vehicle_id == 0
    assert sss.eta_s == 48.0 + HOP_S
    assert sss.route_to_pickup.nodes == (2, 3)


def test_dispatch_uses_traffic_at_call_time():
    net, zm, sched, node_zone = line_city([(0, 4)], [])
    slow = TrafficState([(0.0, 0.5)])
    d = run_dispatch(net, zm, sched, node_zone, [Vehicle(0, 0)], 2, 4, EAT,
                     traffic=slow)
    assert d.eta_s == 2 * HOP_S / 0.5


# -- OSS re-planning -----------------------------------------------------

OSS = DispatchConfig(strategy=Strategy.OSS, eat_enabled=True)


def en_route_job(net, vehicle, pickup, dropoff, rid, now=0.0, traffic=None):
    call = call_at(net, pickup, dropoff, rid=rid, t=now)
    assign(vehicle, call, route_astar(net, vehicle.node, pickup, now, traffic),
           RouteQuery(net, pickup, dropoff, now, traffic), now)


def reschedule(fleet, net, traffic, now):
    """One OSS pass over the fleet's waiting jobs, as the engine runs it."""
    return oss_reschedule(waiting_jobs(fleet), fleet, net, traffic, now, OSS)


def test_reschedule_requires_oss():
    with pytest.raises(ValueError):
        oss_reschedule([], Fleet([]), grid_network(1, 2), None, 0.0,
                       DispatchConfig(strategy=Strategy.SSS))


def test_reschedule_retimes_incumbent_under_new_traffic():
    net, _, _, _ = line_city([(0, 4)], [])
    v = Vehicle(0, 0)
    en_route_job(net, v, 4, 3, rid=0)             # pickup planned for t=160
    assert v.plan.pickup_time_s == 4 * HOP_S
    traffic = TrafficState([(100.0, 0.5)])        # halves speed from t=100

    actions = reschedule(Fleet([v]), net, traffic, 100.0)
    assert len(actions) == 1
    act = actions[0]
    assert not act.reassigned
    assert act.new_vehicle_id == 0
    # passed node 2 at t=80; two hops remain at 80 s each
    assert act.new_pickup_time_s == 100.0 + 160.0
    assert v.plan.pickup_time_s == 260.0
    assert v.plan.depart_s == 100.0
    assert v.status is VehicleStatus.EN_ROUTE_TO_PICKUP


def test_reschedule_is_quiet_when_nothing_changes():
    net, _, _, _ = line_city([(0, 4)], [])
    v = Vehicle(0, 0)
    en_route_job(net, v, 4, 3, rid=0)
    # at a hop boundary with unchanged traffic the re-timed pickup is identical
    actions = reschedule(Fleet([v]), net, None, 80.0)
    assert actions == []
    assert v.plan.pickup_time_s == 160.0


def test_reschedule_reassigns_past_threshold():
    net, _, _, _ = line_city([(0, 9)], [], cols=10)
    slowpoke = Vehicle(0, 0)
    en_route_job(net, slowpoke, 8, 9, rid=0)
    idle = Vehicle(1, 7)                          # one hop from the pickup
    fleet = Fleet([slowpoke, idle])

    actions = reschedule(fleet, net, None, 40.0)
    # incumbent: 7 hops left (280 s); idle: 1 hop (40 s); gap 240 s > 60 s
    assert len(actions) == 1
    act = actions[0]
    assert act.reassigned
    assert act.new_vehicle_id == 1
    assert act.new_pickup_time_s == 80.0
    assert slowpoke.status is VehicleStatus.IDLE
    assert slowpoke.node == 1                     # parked where it stood
    assert slowpoke.plan is None
    assert idle.status is VehicleStatus.EN_ROUTE_TO_PICKUP
    assert idle.plan.request.id == 0


def test_reschedule_keeps_incumbent_within_threshold():
    net, _, _, _ = line_city([(0, 4)], [])
    incumbent = Vehicle(0, 2)
    en_route_job(net, incumbent, 4, 3, rid=0)         # 2 hops: eta 80
    idle = Vehicle(1, 3)                              # 1 hop: eta 40, gap 40
    actions = reschedule(Fleet([incumbent, idle]), net, None, 0.0)
    assert all(not a.reassigned for a in actions)
    assert incumbent.plan.request.id == 0
    assert idle.status is VehicleStatus.IDLE


def test_reschedule_retimes_queued_leg_only():
    net, _, _, _ = line_city([(0, 9)], [], cols=10)
    v = Vehicle(0, 0)
    first = call_at(net, 1, 2, rid=1)
    assign(v, first, route_astar(net, 0, 1, 0.0), RouteQuery(net, 1, 2, 0.0), 0.0)
    pick_up(v, first.id, 0.0)
    second = call_at(net, 4, 5, rid=2)
    assign(v, second, route_astar(net, 2, 4, 0.0), RouteQuery(net, 4, 5, 0.0), 0.0)
    assert v.queued.pickup_time_s == 80.0 + 2 * HOP_S

    traffic = TrafficState([(40.0, 0.5)])
    actions = reschedule(Fleet([v]), net, traffic, 40.0)
    assert len(actions) == 1
    assert not actions[0].reassigned
    # the in-progress trip keeps its schedule; only the queued leg re-times
    assert v.plan.dropoff_time_s == 80.0
    assert v.queued.depart_s == 80.0
    assert v.queued.pickup_time_s == 80.0 + 2 * (HOP_S / 0.5)
    assert actions[0].new_pickup_time_s == 240.0


def test_reschedule_visits_jobs_first_come_first_served():
    net, _, _, _ = line_city([(0, 9)], [], cols=10)
    far_a = Vehicle(1, 0)                          # the earlier request, higher id
    far_b = Vehicle(0, 1)
    en_route_job(net, far_a, 8, 9, rid=0)
    en_route_job(net, far_b, 9, 8, rid=1)
    idle = Vehicle(2, 8)                           # either job would grab it
    fleet = Fleet([far_a, far_b, idle])

    actions = reschedule(fleet, net, None, 0.0)
    grabbed = [a for a in actions if a.reassigned]
    assert [a.request_id for a in grabbed] == [0]  # first job takes the idle car
    assert idle.plan.request.id == 0
    assert far_b.plan.request.id == 1              # second keeps its incumbent


def test_reschedule_skips_vehicles_too_small_for_the_party():
    net, _, _, _ = line_city([(0, 9)], [], cols=10)
    slowpoke = Vehicle(0, 0)
    call = TripRequest(0, 0.0, net.nodes[8], net.nodes[9], 2, 600.0)
    assign(slowpoke, call, route_astar(net, 0, 8, 0.0), RouteQuery(net, 8, 9, 0.0), 0.0)
    single = Vehicle(1, 7, capacity=1)            # one hop away, but one seat
    actions = reschedule(Fleet([slowpoke, single]), net, None, 40.0)
    assert all(not a.reassigned for a in actions)
    assert slowpoke.plan.request.id == 0
    assert single.status is VehicleStatus.IDLE


def released_then_rehired():
    """Two zones on a line, no adjacency. Calls 0 (pickup 9) and 1 (pickup
    8) arrive in zone 0, where vehicle 0 (node 5) and then vehicle 2 (node
    0) take them; vehicle 1 (node 10) sits in zone 1, out of their reach.
    Traffic halves speeds at t=40, and the OSS pass there hands call 0 to
    vehicle 1 and then call 1 to vehicle 0, now idle at node 6."""
    net, zm, sched, _ = line_city([(0, 9), (10, 19)], [])
    requests = [call_at(net, 9, 8, rid=0, t=0.0), call_at(net, 8, 7, rid=1, t=1.0)]
    fleet = Fleet([Vehicle(0, 5), Vehicle(1, 10), Vehicle(2, 0)])
    return net, zm, sched, requests, fleet, TrafficState([(40.0, 0.5)])


def test_reschedule_records_a_release_and_a_rehire_in_one_pass():
    I, E = VehicleStatus.IDLE, VehicleStatus.EN_ROUTE_TO_PICKUP
    net, _, _, _, fleet, traffic = released_then_rehired()
    en_route_job(net, fleet.vehicle(0), 9, 8, rid=0, now=0.0)
    en_route_job(net, fleet.vehicle(2), 8, 7, rid=1, now=1.0)
    actions = reschedule(fleet, net, traffic, 40.0)
    assert [(a.request_id, a.new_vehicle_id, a.reassigned) for a in actions] == [
        (0, 1, True), (1, 0, True)]
    assert fleet.vehicle(0).transitions == [
        Transition(0.0, 0, I, E), Transition(40.0, 0, E, I), Transition(40.0, 0, I, E)]
    assert fleet.vehicle(2).transitions[-1] == Transition(40.0, 2, E, I)

    net, zm, sched, requests, fleet, traffic = released_then_rehired()
    cfg = DispatchConfig(strategy=Strategy.OSS, eat_enabled=False)
    result = run_one(requests, fleet, net, zm, sched, traffic, cfg)
    assert result.metadata["reassignments"] == 2
    assert [r.vehicle_id for r in result.records] == [1, 0]
    pass_changes = [tr for tr in fleet.transitions() if tr.vehicle_id == 0 and tr.time_s == 40.0]
    assert pass_changes == [Transition(40.0, 0, E, I), Transition(40.0, 0, I, E)]


# -- winner-bounded ETA search against the full scan ----------------------


def busy_vehicle(net, vid, end_node, now, remaining_s):
    """An OnTrip vehicle of net whose trip ends at end_node, remaining_s
    after now."""
    v = Vehicle(vid, end_node)
    v.status = VehicleStatus.ON_TRIP
    job = TripRequest(-1, now, GeoPoint(0.0, 0.0), GeoPoint(0.0, 0.0), 1, 600.0)
    # a trip of no hops, picked up as it ends
    v.plan = Plan(job, hop_route((end_node,), ()), RouteQuery(net, end_node, end_node, now),
                  now, now + remaining_s)
    return v


def with_strays(net, rng, count):
    """net plus `count` nodes joined by at most one one-way edge each, so
    some nodes cannot reach the rest or cannot be reached from it."""
    nodes = dict(net.nodes)
    edges = net.edges()
    for _ in range(count):
        anchor = rng.choice(sorted(net.nodes))
        stray = len(nodes)
        p = nodes[anchor]
        nodes[stray] = GeoPoint(p.lat + rng.uniform(-0.002, 0.002),
                                p.lon + rng.uniform(-0.002, 0.002))
        length = 1.2 * haversine_m(nodes[stray], p) + 5.0
        way = rng.choice(("out", "in", "none"))
        if way == "out":
            edges.append((stray, anchor, length, 7.0))
        elif way == "in":
            edges.append((anchor, stray, length, 7.0))
    return RoadNetwork(nodes, edges, net.speed_limit_mps)


REMAINING_S = st.one_of(st.none(), st.sampled_from([0.0, 40.0, 80.0]),
                        st.floats(0.0, 900.0, allow_nan=False))


@settings(max_examples=300)  # equal-ETA ties that need the `<=` stop are rare
@given(data=st.data())
def test_ranking_matches_full_scan(data):
    kind = data.draw(st.sampled_from(["grid", "dyadic", "irregular"]), label="network")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="network seed"))
    if kind == "grid":  # many equal-time ties
        net = grid_network(rng.randrange(1, 6), rng.randrange(2, 6))
    else:
        net = random_network(rng, rng.randrange(2, 30), rng.randrange(0, 40),
                             dyadic=kind == "dyadic")
    net = with_strays(net, rng, rng.randrange(0, 3))
    mult = rng.uniform(0.3, 2.0) if kind == "irregular" else rng.choice(DYADIC_MULTIPLIERS)
    traffic = TrafficState([(0.0, mult)])
    now = data.draw(st.sampled_from([0.0, 317.25, 1000.1]), label="now")
    nodes = sorted(net.nodes)
    spec = data.draw(st.lists(st.tuples(st.sampled_from(nodes), REMAINING_S),
                              min_size=1, max_size=12), label="fleet")
    ids = data.draw(st.permutations(range(len(spec))), label="ids")
    vehicles = {vid: Vehicle(vid, node) if rem is None else busy_vehicle(net, vid, node, now, rem)
                for vid, (node, rem) in zip(ids, spec)}
    pickup = data.draw(st.sampled_from(nodes), label="pickup")

    ranking = _EtaRanking(pickup, net, traffic, now)
    region: set[int] = set()
    for _ in range(data.draw(st.integers(1, 4), label="regions")):
        nested = data.draw(st.booleans(), label="nested")
        rest = sorted(set(vehicles) - region)
        fresh = data.draw(st.sets(st.sampled_from(rest)) if rest else st.just(set()))
        region = region | fresh if nested else fresh
        candidates = data.draw(st.permutations([vehicles[i] for i in sorted(region)]))
        got, got_eta = ranking.best(candidates)
        want, want_eta = full_scan_best(candidates, pickup, net, traffic, now)
        assert (None if got is None else got.id) == (None if want is None else want.id)
        assert got_eta.hex() == want_eta.hex()


def test_ranking_drains_when_the_only_candidate_is_unreachable():
    nodes = {0: GeoPoint(0.0, 0.0), 1: GeoPoint(0.0, 0.001), 2: GeoPoint(0.001, 0.0)}
    net = RoadNetwork(nodes, [(0, 1, 200.0, 10.0), (1, 0, 200.0, 10.0), (1, 2, 200.0, 10.0)],
                      speed_limit_mps=10.0)
    stranded, near = Vehicle(0, 2), Vehicle(1, 1)   # node 2 has no way back
    ranking = _EtaRanking(0, net, None, 0.0)
    assert ranking.best([stranded]) == (None, math.inf)
    assert ranking.nodes_settled == 2               # all that can reach node 0
    assert full_scan_best([stranded], 0, net, None, 0.0) == (None, math.inf)
    # the next region reads the drained search
    assert ranking.best([stranded, near]) == (near, 20.0)
    assert ranking.nodes_settled == 2


def test_ranking_of_busy_vehicles_stops_at_best_eta_less_the_least_wait():
    """With no idle candidate, the search stops once the frontier passes
    the best ETA less the least wait still unsettled, not the best ETA."""
    net = grid_network(1, 8)  # HOP_S per hop from node 0
    near, far = busy_vehicle(net, 0, 1, 0.0, 100.0), busy_vehicle(net, 1, 6, 0.0, 300.0)
    ranking = _EtaRanking(0, net, None, 0.0)
    assert ranking.best([far, near]) == (near, 100.0 + HOP_S)
    # nodes 0 and 1; far's ETA is over 300 s, and stopping at the best ETA
    # alone would settle nodes 2 and 3 as well
    assert ranking.nodes_settled == 2
    assert full_scan_best([far, near], 0, net, None, 0.0) == (near, 100.0 + HOP_S)


def test_ranking_keeps_a_leg_whose_eta_rounds_to_the_best():
    """A lower-id vehicle whose wait plus leg rounds to the best ETA takes
    the tie, though its leg lies past the best ETA less its wait: the stop
    keeps a margin for the rounding."""
    nodes = {0: GeoPoint(0.0, 0.0), 1: GeoPoint(0.0, 0.001), 2: GeoPoint(0.001, 0.0)}
    leg_b = math.nextafter(240.0, math.inf)  # a leg one ulp over 24 s
    net = RoadNetwork(nodes, [(1, 0, 240.0, 10.0), (2, 0, leg_b, 10.0)], speed_limit_mps=10.0)
    a, b = busy_vehicle(net, 1, 1, 0.0, 1000.0), busy_vehicle(net, 0, 2, 0.0, 1000.0)
    assert leg_b / 10.0 > 1024.0 - 1000.0 and 1000.0 + leg_b / 10.0 == 1024.0
    ranking = _EtaRanking(0, net, None, 0.0)
    assert ranking.best([a, b]) == (b, 1024.0)
    assert full_scan_best([a, b], 0, net, None, 0.0) == (b, 1024.0)


# -- capped OSS ranking against the uncapped pass --------------------------


def oss_fleet(net, rng, traffic, count):
    """`count` vehicles, each idle, heading to a pickup, on a trip, or on a
    trip with a job queued behind it, all planned at t=0."""
    nodes = sorted(net.nodes)
    vehicles = []
    rids = iter(range(2 * count))

    def take_job(v):
        pickup, dropoff = rng.choice(nodes), rng.choice(nodes)
        start, _ = job_start(v, 0.0)
        assign(v, call_at(net, pickup, dropoff, rid=next(rids)),
               route_astar(net, start, pickup, 0.0, traffic),
               RouteQuery(net, pickup, dropoff, 0.0, traffic), 0.0)

    for vid in range(count):
        v = Vehicle(vid, rng.choice(nodes), capacity=rng.choice((1, 4)))
        state = rng.choice(("idle", "heading", "on-trip", "queued"))
        if state != "idle":
            take_job(v)
        if state in ("on-trip", "queued"):
            pick_up(v, v.plan.request.id, 0.0)
        if state == "queued":
            take_job(v)
        vehicles.append(v)
    return Fleet(vehicles)


def fleet_state_of(v):
    """Which of oss_fleet's four states v is in."""
    if v.status is VehicleStatus.ON_TRIP:
        return "on-trip" if v.queued is None else "queued"
    return {VehicleStatus.IDLE: "idle", VehicleStatus.EN_ROUTE_TO_PICKUP: "heading"}[v.status]


# the strategies under which a vehicle in each state may take a new job
TAKES_A_JOB = {"idle": set(Strategy), "heading": set(), "queued": set(),
               "on-trip": {Strategy.SSS, Strategy.OSS}}


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 12),
       strategy=st.sampled_from(Strategy), party_size=st.integers(1, 5))
def test_candidate_pool_matches_a_plain_filter(seed, count, strategy, party_size):
    """On fleets of idle, heading, on-trip and queued vehicles of 1 and 4
    seats, the pool is every vehicle with enough seats whose state may take
    a job under the strategy, in ascending id order."""
    rng = random.Random(seed)
    fleet = oss_fleet(grid_network(3, 3), rng, None, count)
    vehicles = rng.sample(fleet.vehicles, count)
    want = sorted((v for v in vehicles if v.capacity >= party_size
                   and strategy in TAKES_A_JOB[fleet_state_of(v)]), key=lambda v: v.id)
    got = candidate_pool(fleet, strategy, party_size)
    assert [id(v) for v in got] == [id(v) for v in want]


class CheckedAgainstUncapped(_EtaRanking):
    """The capped ranking, checked at each call against a fresh uncapped one:
    the same answer whenever the winner is within the cap, and no more nodes
    settled."""

    def __init__(self, *args):
        super().__init__(*args)
        self.args = args

    def best(self, candidates, cap=math.inf):
        got = super().best(candidates, cap)
        plain = _EtaRanking(*self.args)
        want = plain.best(candidates)
        assert got == (want if want[1] <= cap else (None, math.inf))
        assert self.nodes_settled <= plain.nodes_settled
        return got


def plan_state(plan):
    """A plan's fields with its trip query's ends, time and route."""
    if plan is None:
        return None
    trip = plan.trip
    return (plan.request, plan.route_to_pickup, trip.src, trip.dst, trip.at_s, trip.route,
            plan.depart_s, plan.pickup_time_s)


def fleet_state(fleet):
    return [(v.id, v.status, v.node, plan_state(v.plan), plan_state(v.queued)) for v in fleet]


@settings(max_examples=150)
@given(data=st.data())
def test_capped_reschedule_matches_the_uncapped_pass(data):
    kind = data.draw(st.sampled_from(["grid", "dyadic", "irregular"]), label="network")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if kind == "grid":  # many equal-time ties
        net = grid_network(rng.randrange(1, 5), rng.randrange(2, 6))
    else:
        net = random_network(rng, rng.randrange(2, 25), rng.randrange(0, 30),
                             dyadic=kind == "dyadic")
    if kind == "irregular":
        before, after = rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)
    else:
        before, after = rng.choice(DYADIC_MULTIPLIERS), rng.choice(DYADIC_MULTIPLIERS)
    fleet = oss_fleet(net, rng, TrafficState([(0.0, before)]), rng.randrange(1, 9))
    # the pass runs before any trip in progress ends
    ends = [v.plan.dropoff_time_s for v in fleet if v.status is VehicleStatus.ON_TRIP]
    now = data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="now") * min(ends, default=100.0)
    traffic = TrafficState([(0.0, before)] + ([(now, after)] if now > 0.0 else []))

    # thresholds at which the first job's best challenger wins or loses by
    # exactly nothing, or by one ulp either way
    thresholds = {0.0}
    jobs = waiting_jobs(fleet)
    if jobs:
        request, v = jobs[0]
        pickup = waiting_job(v, request.id).trip.src
        origin, depart = job_start(v, now)
        leg = route_astar(net, origin, pickup, now, traffic)
        _, best_eta = full_scan_best(candidate_pool(fleet, Strategy.OSS, request.party_size),
                                     pickup, net, traffic, now)
        if leg is not None and best_eta < math.inf:
            gap = ((depart - now) + leg.total_time_s) - best_eta
            thresholds |= {gap, math.nextafter(gap, -math.inf), math.nextafter(gap, math.inf)}
    threshold = data.draw(st.sampled_from(sorted(t for t in thresholds if t >= 0.0)),
                          label="threshold")
    cfg = DispatchConfig(strategy=Strategy.OSS, oss_reassign_threshold_s=threshold)

    oracle_fleet = copy.deepcopy(fleet)
    want = reference_oss_reschedule(waiting_jobs(oracle_fleet), oracle_fleet, net, traffic,
                                    now, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dispatch_module, "_EtaRanking", CheckedAgainstUncapped)
        got = oss_reschedule(waiting_jobs(fleet), fleet, net, traffic, now, cfg)
    assert got == want
    assert fleet_state(fleet) == fleet_state(oracle_fleet)


def test_every_bound_a_run_passes_holds_and_keeps_the_route(monkeypatch):
    """An overloaded OSS run under a traffic walk: each route_astar call
    that carries a bound gets one at least the route's time, and the same
    route, bit for bit, as the unbounded search."""
    net = grid_network(12, 12)
    zm = ZoneMap(tile_zones(12, 12, 3, 3, D))
    requests = generate_demand(240.0, 3600.0, zm.bbox(), zone_map=zm, seed=11,
                               patience_range=(300.0, 1800.0))
    traffic = TrafficState.build([(900.0, 1.3), (2400.0, 0.8)], walk_seed=12,
                                 walk_step_s=300.0, walk_sigma=0.15, horizon_s=5400.0)
    bounded = []

    def checked(net, src, dst, at_s, traffic=None, within=math.inf, **kw):
        route = route_astar(net, src, dst, at_s, traffic, within=within, **kw)
        if within < math.inf:
            bounded.append(within)
            assert route is not None and within >= route.total_time_s, (src, dst, within)
            plain = route_astar(net, src, dst, at_s, traffic)
            assert route.nodes == plain.nodes
            assert [t.hex() for t in route.arrive_s] == [t.hex() for t in plain.arrive_s]
        return route

    monkeypatch.setattr(road, "route_astar", checked)
    cfg = DispatchConfig(strategy=Strategy.OSS, eat_enabled=True)
    result = run_one(requests, Fleet.place_uniform(net, 15, 13), net, zm, initial_adjacency(zm),
                     traffic, cfg)
    assert len(result.records) == len(requests)
    # pickup legs of winners and OSS re-plans, some of which moved jobs
    assert result.metadata["reassignments"] > 0 and len(bounded) > len(requests)
