"""Vehicle state machine, candidate pools, the arrival-estimate oracle, fleet operations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amodsim.demand import TripRequest
from amodsim.fleet import (
    Fleet,
    Strategy,
    Transition,
    Vehicle,
    VehicleStatus,
    assign,
    candidate_pool,
    finish_trip,
    job_start,
    pick_up,
    release,
    replan,
    validate_transitions,
    waiting_job,
    waiting_jobs,
)
from amodsim.road import RouteQuery, route_astar
from scenario_tools import estimate_eta, grid_network

HOP_S = 40.0


def request(rid=0, pickup_node=4, dropoff_node=5, t=0.0):
    # locations are irrelevant at this layer; routing is by node
    from scenario_tools import golden_node_point
    return TripRequest(rid, t, golden_node_point(pickup_node),
                       golden_node_point(dropoff_node), 1, 600.0)


def start_trip(net, vehicle, pickup_node, dropoff_node, now_s, rid=0):
    """Assign and advance through the pickup so the vehicle is OnTrip."""
    leg = route_astar(net, vehicle.node, pickup_node, now_s)
    trip = RouteQuery(net, pickup_node, dropoff_node, now_s)
    plan = assign(vehicle, request(rid, pickup_node, dropoff_node), leg, trip, now_s)
    pick_up(vehicle, rid, now_s)
    return plan


def test_fleet_sorts_and_rejects_duplicates():
    fleet = Fleet([Vehicle(2, 0), Vehicle(0, 1), Vehicle(1, 2)])
    assert [v.id for v in fleet] == [0, 1, 2]
    assert len(fleet.vehicles) == 3
    assert fleet.vehicle(2).node == 0
    with pytest.raises(ValueError):
        Fleet([Vehicle(0, 0), Vehicle(0, 1)])


def test_place_uniform_is_seeded():
    net = grid_network(3, 3)
    a = Fleet.place_uniform(net, 5, seed=9)
    b = Fleet.place_uniform(net, 5, seed=9)
    c = Fleet.place_uniform(net, 5, seed=10)
    assert [v.node for v in a] == [v.node for v in b]
    assert [v.node for v in a] != [v.node for v in c]
    assert all(v.node in net.nodes for v in a)
    assert all(v.status is VehicleStatus.IDLE for v in a)
    assert Fleet.place_uniform(net, 0, seed=1).vehicles == []
    with pytest.raises(ValueError):
        Fleet.place_uniform(net, -1, seed=1)


def test_candidate_pool_by_strategy():
    net = grid_network(3, 3)
    idle = Vehicle(0, 0)
    en_route = Vehicle(1, 0)
    assign(en_route, request(1, 1, 2), route_astar(net, 0, 1, 0.0),
           RouteQuery(net, 1, 2, 0.0), 0.0)
    on_trip = Vehicle(2, 0)
    start_trip(net, on_trip, 1, 2, 0.0, rid=2)
    queued_up = Vehicle(3, 0)
    start_trip(net, queued_up, 1, 2, 0.0, rid=3)
    assign(queued_up, request(4, 5, 8), route_astar(net, 2, 5, 0.0),
           RouteQuery(net, 5, 8, 0.0), 0.0)
    fleet = Fleet([idle, en_route, on_trip, queued_up])

    assert [v.id for v in candidate_pool(fleet, Strategy.NSS, 1)] == [0]
    assert [v.id for v in candidate_pool(fleet, Strategy.SSS, 1)] == [0, 2]
    assert [v.id for v in candidate_pool(fleet, Strategy.OSS, 1)] == [0, 2]


def test_candidate_pool_skips_vehicles_too_small_for_the_party():
    fleet = Fleet([Vehicle(0, 0, capacity=1), Vehicle(1, 0, capacity=2),
                   Vehicle(2, 0, capacity=4)])
    assert [v.id for v in candidate_pool(fleet, Strategy.NSS, 1)] == [0, 1, 2]
    assert [v.id for v in candidate_pool(fleet, Strategy.SSS, 2)] == [1, 2]
    assert [v.id for v in candidate_pool(fleet, Strategy.OSS, 4)] == [2]
    assert candidate_pool(fleet, Strategy.NSS, 5) == []


def test_estimate_eta_idle_and_on_trip():
    net = grid_network(3, 3)
    idle = Vehicle(0, 0)
    assert estimate_eta(idle, 2, net, None, 100.0) == 2 * HOP_S

    busy = Vehicle(1, 0)
    start_trip(net, busy, 1, 2, 0.0, rid=7)
    # trip: depart 0, pickup at 40, dropoff at 80; at t=50 there are 30 s left
    assert busy.plan.dropoff_time_s == 2 * HOP_S
    assert estimate_eta(busy, 5, net, None, 50.0) == 30.0 + HOP_S
    assert estimate_eta(busy, 2, net, None, 50.0) == 30.0

    heading = Vehicle(2, 0)
    assign(heading, request(8, 1, 2), route_astar(net, 0, 1, 0.0),
           RouteQuery(net, 1, 2, 0.0), 0.0)
    with pytest.raises(ValueError):
        estimate_eta(heading, 5, net, None, 0.0)


def test_estimate_eta_unreachable_returns_none():
    from amodsim.geo import GeoPoint
    from amodsim.road import RoadNetwork
    nodes = {0: GeoPoint(0.0, 0.0), 1: GeoPoint(0.0, 0.001)}
    net = RoadNetwork(nodes, [(1, 0, 200.0, 10.0)], speed_limit_mps=10.0)
    assert estimate_eta(Vehicle(0, 0), 1, net, None, 0.0) is None


def test_assign_idle_fixes_timeline():
    net = grid_network(3, 3)
    v = Vehicle(0, 0)
    plan = assign(v, request(5, 1, 8), route_astar(net, 0, 1, 10.0),
                  RouteQuery(net, 1, 8, 10.0), now_s=10.0)
    assert v.status is VehicleStatus.EN_ROUTE_TO_PICKUP
    assert v.plan is plan and v.queued is None
    assert plan.request.id == 5
    assert plan.depart_s == 10.0
    assert plan.pickup_time_s == 10.0 + HOP_S
    assert plan.dropoff_time_s == 10.0 + HOP_S + 3 * HOP_S


def test_assign_on_trip_queues_behind_dropoff():
    net = grid_network(3, 3)
    v = Vehicle(0, 0)
    first = start_trip(net, v, 1, 2, 0.0, rid=1)
    queued = assign(v, request(2, 5, 8), route_astar(net, 2, 5, 0.0),
                    RouteQuery(net, 5, 8, 0.0), now_s=15.0)
    assert v.status is VehicleStatus.ON_TRIP
    assert v.queued is queued
    assert queued.depart_s == first.dropoff_time_s
    assert queued.pickup_time_s == first.dropoff_time_s + HOP_S
    with pytest.raises(ValueError):      # one queued job at most
        assign(v, request(3, 5, 8), route_astar(net, 2, 5, 0.0),
               RouteQuery(net, 5, 8, 0.0), 15.0)


def test_assign_rejects_mismatched_legs():
    net = grid_network(3, 3)
    v = Vehicle(0, 0)
    with pytest.raises(ValueError):      # trip must start where pickup ends
        assign(v, request(1, 1, 2), route_astar(net, 0, 1, 0.0),
               RouteQuery(net, 2, 5, 0.0), 0.0)
    with pytest.raises(ValueError):      # pickup leg must start at the vehicle
        assign(v, request(1, 2, 5), route_astar(net, 1, 2, 0.0),
               RouteQuery(net, 2, 5, 0.0), 0.0)
    assign(v, request(1, 1, 2), route_astar(net, 0, 1, 0.0),
           RouteQuery(net, 1, 2, 0.0), 0.0)
    with pytest.raises(ValueError):      # already heading to a pickup
        assign(v, request(2, 1, 2), route_astar(net, 0, 1, 0.0),
               RouteQuery(net, 1, 2, 0.0), 0.0)


def test_current_node_tracks_plan_progress():
    net = grid_network(3, 3)
    v = Vehicle(0, 0)
    assert v.current_node(50.0) == 0
    plan = assign(v, request(1, 2, 8), route_astar(net, 0, 2, 0.0),
                  RouteQuery(net, 2, 8, 0.0), 0.0)
    assert v.current_node(0.0) == 0
    assert v.current_node(39.9) == 0
    assert v.current_node(40.0) == plan.route_to_pickup.nodes[1]
    pick_up(v, 1, 0.0)
    assert v.current_node(100.0) == plan.route_of_trip.node_at_elapsed(100.0 - plan.pickup_time_s)
    assert v.current_node(plan.dropoff_time_s) == 8


def test_validate_transitions_catches_violations():
    I, E, O = VehicleStatus.IDLE, VehicleStatus.EN_ROUTE_TO_PICKUP, VehicleStatus.ON_TRIP
    clean = [Transition(0.0, 0, I, E), Transition(40.0, 0, E, O),
             Transition(80.0, 0, O, I), Transition(90.0, 0, I, E),
             Transition(95.0, 0, E, I)]
    assert validate_transitions(clean) == []

    assert validate_transitions([Transition(0.0, 0, I, O)])      # skip en-route
    assert validate_transitions([Transition(0.0, 0, I, I)])      # self loop
    # continuity: the recorded src must match the previous dst
    broken = [Transition(0.0, 0, I, E), Transition(10.0, 0, O, I)]
    assert any("last seen" in p for p in validate_transitions(broken))
    # per-vehicle timestamps must not run backwards
    rewound = [Transition(10.0, 0, I, E), Transition(5.0, 0, E, O)]
    assert any("out of order" in p for p in validate_transitions(rewound))
    # vehicles are tracked independently
    two = [Transition(0.0, 0, I, E), Transition(0.0, 1, I, E),
           Transition(40.0, 0, E, O), Transition(41.0, 1, E, O)]
    assert validate_transitions(two) == []
    # queueing a job changes no status, so an OnTrip self loop is as wrong
    # as an Idle one
    assert validate_transitions([Transition(0.0, 0, I, E), Transition(1.0, 0, E, O),
                                 Transition(2.0, 0, O, O)]) == \
        ["t=2.0: vehicle 0 illegal transition OnTrip -> OnTrip"]


# -- random sequences of fleet operations ----------------------------------

I, E, O = VehicleStatus.IDLE, VehicleStatus.EN_ROUTE_TO_PICKUP, VehicleStatus.ON_TRIP
# Half the steps are "next", the operation the vehicle's state calls for, so
# that long legal runs (queued jobs, their promotion at dropoff) are common.
# `pick` picks the request id and, at 0, 1 and 11, spoils an argument.
OPS = ("assign", "pick_up", "finish_trip", "release", "replan", "wait")
STEP = st.tuples(st.one_of(st.just("next"), st.sampled_from(OPS)), st.integers(0, 1),
                 st.integers(0, 8), st.integers(0, 8), st.integers(0, 11))
NEXT_OP = {I: ("assign",), E: ("pick_up",), O: ("finish_trip", "assign")}


def snapshot(fleet):
    return [(v.status, v.node, v.plan, v.queued) for v in fleet]


def same_state(a, b):
    return all(sa == sb and na == nb and pa is pb and qa is qb
               for (sa, na, pa, qa), (sb, nb, pb, qb) in zip(a, b))


def check_invariants(fleet, now):
    for v in fleet:
        assert (v.status is I) == (v.plan is None)
        assert v.queued is None or v.status is O
        if v.queued is not None:
            assert v.queued.depart_s == v.plan.dropoff_time_s


def test_waiting_jobs_are_first_come_first_served():
    net = grid_network(3, 3)

    def held(v, rid, t, pickup, dropoff):
        start, _ = job_start(v, 0.0)
        return assign(v, request(rid, pickup, dropoff, t), route_astar(net, start, pickup, 0.0),
                      RouteQuery(net, pickup, dropoff, 0.0), 0.0)

    queued_behind = Vehicle(0, 0)
    held(queued_behind, 9, 0.0, 0, 2)             # the trip in progress: left out
    pick_up(queued_behind, 9, 0.0)
    q = held(queued_behind, 4, 50.0, 5, 8)
    tie_lower_id = Vehicle(1, 3)
    t = held(tie_lower_id, 3, 50.0, 4, 7)         # same time as 4, lower id
    earliest = Vehicle(2, 6)
    e = held(earliest, 2, 20.0, 7, 1)
    on_trip = Vehicle(3, 8)
    held(on_trip, 1, 0.0, 8, 6)
    pick_up(on_trip, 1, 0.0)
    fleet = Fleet([queued_behind, tie_lower_id, earliest, on_trip, Vehicle(4, 2)])

    jobs = waiting_jobs(fleet)
    assert [(r.id, v.id) for r, v in jobs] == [(2, 2), (3, 1), (4, 0)]
    assert [waiting_job(v, r.id) for r, v in jobs] == [e, t, q]


@settings(max_examples=300)
@given(st.lists(STEP, max_size=60))
def test_fleet_operations_keep_the_state_machine(steps):
    """Legal operations move the state machine; illegal ones raise ValueError
    and change nothing. Legality is judged here from the vehicle's state."""
    net = grid_network(3, 3)
    fleet = Fleet([Vehicle(0, 0), Vehicle(1, 8)])
    now, next_id, trace = 0.0, 0, []
    for op, vid, a, b, pick in steps:
        if op == "wait":
            now += 7.5 * a
            continue
        v = fleet.vehicle(vid)
        if op == "next":
            op = NEXT_OP[v.status][pick % len(NEXT_OP[v.status])]
        held = [p.request.id for p in (v.plan, v.queued) if p is not None]
        rid = held[pick % len(held)] if held and pick != 11 else 99
        waiting = (v.queued if v.status is O else v.plan if v.status is E else None)
        is_waiting = waiting is not None and waiting.request.id == rid
        if op == "assign":
            start = v.node if v.plan is None else v.plan.route_of_trip.nodes[-1]
            leg = route_astar(net, b if pick == 0 else start, a, now)
            trip = RouteQuery(net, b if pick == 1 else a, b, now)
            legal = (v.status is not E and v.queued is None and leg.nodes[0] == start
                     and trip.src == a)
            call = lambda: assign(v, request(next_id, a, b), leg, trip, now)
        elif op == "replan":
            start = (v.plan.route_of_trip.nodes[-1] if v.status is O
                     else v.current_node(now))
            pickup = waiting.route_to_pickup.nodes[-1] if waiting is not None else a
            leg = route_astar(net, b if pick == 0 else start, pickup, now)
            trip = RouteQuery(net, pickup, b, now)
            legal = is_waiting and leg.nodes[0] == start
            call = lambda: replan(v, rid, leg, trip, now)
        elif op == "release":
            legal = is_waiting
            call = lambda: release(v, rid, now)
        elif op == "pick_up":
            legal = v.status is E and v.plan.request.id == rid
            call = lambda: pick_up(v, rid, now)
        else:
            legal = v.status is O and v.plan.request.id == rid
            call = lambda: finish_trip(v, rid, now)

        before = snapshot(fleet)
        src, node_now, plan, queued = v.status, v.current_node(now), v.plan, v.queued
        if not legal:
            with pytest.raises(ValueError):
                call()
            assert same_state(before, snapshot(fleet))
            continue
        out = call()
        others = [i for i in range(len(fleet.vehicles)) if i != vid]
        assert same_state([before[i] for i in others], [snapshot(fleet)[i] for i in others])
        if op == "assign":
            next_id += 1
            depart = now if src is I else plan.dropoff_time_s
            assert (out.depart_s, out.pickup_time_s, out.dropoff_time_s) == (
                depart, depart + leg.total_time_s,
                depart + leg.total_time_s + trip.route.total_time_s)
            assert (v.plan if src is I else v.queued) is out
        elif op == "replan":
            assert v.status is src and waiting_job(v, rid) is out
            assert out.route_to_pickup.nodes[0] == start
            assert out.depart_s == (plan.dropoff_time_s if src is O else now)
        elif op == "release":
            assert waiting_job(v, rid) is None
            if src is E:
                assert v.node == node_now and v.plan is None
            else:
                assert v.plan is plan and v.queued is None
        elif op == "finish_trip":
            assert out is plan
            assert v.node == plan.route_of_trip.nodes[-1]
            assert v.plan is queued and v.queued is None
        if op == "replan" or (src is O and op in ("assign", "release")):
            assert v.status is src  # re-timing, queueing or dropping a job
        else:
            trace.append(Transition(now, v.id, src, v.status))
        check_invariants(fleet, now)
    assert validate_transitions(trace) == []
    # each vehicle recorded exactly its own status changes, in order
    assert fleet.transitions() == sorted(trace, key=lambda tr: tr.vehicle_id)
