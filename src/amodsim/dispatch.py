"""Dispatching: one region-schedule search for each call, and OSS re-planning.

Both dispatch modes walk a schedule of zone regions and target the
lowest-ETA candidate inside the first region that holds one. One reverse
search from the pickup serves the whole schedule: for each region it settles
nodes only until the best ETA there is certain, and the next region resumes
it where it stopped.

- baseline: the call's zone alone, then its immediate ring, then give up;
- expansion: the call's zone with its ring, widened one adjacency ring at a
  time until it stops growing; then the whole city, recording a new
  adjacency link to the winning vehicle's zone.

What a call's dispatch reads that no cell of a pass changes (its snapped
ends, its zone, its trip query) is one Arrival, which the cells share. A
plan holds its trip as a road.RouteQuery, searched when the trip is first
read, at the pickup; an OSS pass gives each job it re-plans a fresh query,
so a trip that is never driven is never searched.
"""

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

from . import road
from .demand import TripRequest
from .fleet import (Fleet, Strategy, Vehicle, assign, candidate_pool, job_start, release,
                    replan, waiting_job)
from .road import RoadNetwork, Route, RouteQuery, TrafficState
from .zones import AdjacencySchedule, ZoneMap

REJECT_NO_VEHICLE = "no-vehicle"
REJECT_UNROUTABLE = "unroutable"


@dataclass
class DispatchConfig:
    strategy: Strategy = Strategy.NSS
    eat_enabled: bool = True
    oss_reassign_threshold_s: float = 60.0


@dataclass
class DispatchDecision:
    vehicle_id: int | None = None
    eta_s: float | None = None
    route_to_pickup: Route | None = None
    trip: RouteQuery | None = None
    reject_reason: str | None = None
    zones_searched: list[frozenset[int]] = field(default_factory=list)
    adjacency_updated: bool = False
    nodes_settled: int = 0

    @property
    def assigned(self) -> bool:
        return self.vehicle_id is not None


class _EtaRanking:
    """Lowest-ETA candidates against one pickup node, from one lazy search.

    A vehicle's ETA is its wait until it is free (fleet.job_start; zero when
    idle) plus the leg from where it is free. The leg comes from a
    ReverseSearch toward the pickup that settles nodes in time order and only
    as far as a query needs: no unsettled node is closer than the frontier,
    so no unsettled candidate's ETA is below its wait plus the frontier, and
    once the frontier passes the best ETA found less the least wait of the
    candidates unsettled, nothing unsettled can win. Later queries
    resume the same search. Winners and ETAs are those of a full scan
    followed by an id-ordered strict-`<` pick.
    """

    def __init__(self, pickup_node: int, net: RoadNetwork,
                 traffic: TrafficState | None, now_s: float):
        self._search = road.ReverseSearch(net, pickup_node, now_s, traffic)
        self._traffic = traffic
        self._now = now_s

    @property
    def nodes_settled(self) -> int:
        return len(self._search.settled)

    def leg(self, v: Vehicle) -> tuple[Route, float]:
        """v's route from job_start to the pickup, and its ETA. v is a
        candidate `best` returned, so its job_start node is settled: the
        settled time bounds the route search, and the search's settled times
        prune it to the nodes that can lie on a fastest route."""
        search = self._search
        node, depart = job_start(v, self._now)
        leg = road.route_astar(search.net, node, search.dst, self._now, self._traffic,
                               within=search.settled[node], search=search)
        assert leg is not None, f"vehicle {v.id} lost its route to node {search.dst}"
        return leg, (depart - self._now) + leg.total_time_s

    def best(self, candidates: list[Vehicle],
             cap: float = math.inf) -> tuple[Vehicle | None, float]:
        """The candidate with the lowest ETA, ties to the lowest id, if that
        ETA is at most `cap`; (None, inf) when no candidate reaches the
        pickup within it. The search settles nodes no further than `cap`."""
        settled = self._search.settled
        now = self._now
        best: Vehicle | None = None
        best_key = (math.inf, math.inf)
        waiting: dict[int, list[tuple[Vehicle, float]]] = {}
        least = math.inf  # the least departure of the unsettled candidates
        for v in candidates:
            node, depart = job_start(v, now)
            if node in settled:
                key = ((depart - now) + settled[node], v.id)
                if key < best_key:
                    best, best_key = v, key
            else:
                waiting.setdefault(node, []).append((v, depart))
                if depart < least:
                    least = depart
        # Every unsettled ETA is at least its wait plus the frontier, so the
        # search stops once the frontier passes the limit (the best ETA, or
        # the cap) less the least wait of the candidates unsettled at the
        # start. Once the candidate with that wait settles, its ETA, at least
        # the limit, puts the stop at the frontier already. The margin of two
        # ulps of the limit keeps every leg whose sum with its wait could
        # still round to the limit, so a lower-id vehicle there takes the tie.
        limit = min(best_key[0], cap)
        # The stop moves only when a waiting node settles, where settle returns.
        while waiting:
            node = self._search.settle(limit - (least - now) + 2.0 * math.ulp(limit), waiting)
            if node is None:
                break
            for v, depart in waiting.pop(node):
                key = ((depart - now) + settled[node], v.id)
                if key < best_key:
                    best, best_key = v, key
                    limit = min(key[0], cap)
        if best_key[0] > cap:
            return None, math.inf
        return best, best_key[0]


def _reroute(old: Route, start: int, net: RoadNetwork, traffic: TrafficState | None,
             now_s: float) -> Route:
    """A fresh route for the incumbent's pickup leg `old` from `start`, a
    node of it, to the pickup. The rest of old, re-timed under the traffic
    in force now, bounds the search (route_astar's `within`). The road graph
    never changes, so the route exists: a None here is a bad bound."""
    rest = old.nodes[old.nodes.index(start):]
    route = road.route_astar(net, start, rest[-1], now_s, traffic,
                             within=road.path_time(net, rest, now_s, traffic))
    assert route is not None, f"lost the route from node {start} to node {rest[-1]}"
    return route


def _regions(a_c: int, sched: AdjacencySchedule,
             expand: bool) -> Iterator[tuple[frozenset[int], bool]]:
    """The zone regions a call in zone a_c searches, in order, each with
    whether a winner there gets its zone linked to a_c."""
    neighbors = sched.neighbors(a_c)
    if not expand:
        yield frozenset({a_c}), False
        if neighbors:
            yield frozenset(neighbors), False
        return
    region = frozenset({a_c, *neighbors})
    yield region, False
    while neighbors:  # an isolated zone has no ring to widen
        wider = frozenset(sched.expand_frontier(set(region)))
        if wider == region:
            break  # connected component exhausted
        region = wider
        yield region, False
    # Reached only once no ring held a reachable candidate. The last ring
    # holds a_c, so a winner from the rest of the city lies outside a_c. A
    # last ring that already covers the city is not searched twice.
    everywhere = frozenset(sched.zone_ids())
    if everywhere > region:
        yield everywhere, True


class Arrival:
    """One call at its arrival, as every cell of a pass sees it: the network
    and traffic it is dispatched on, its snapped ends, its zone, and its
    trip query, searched at most once, when some cell first reads it: a
    routability check across components, or the pickup of a plan that holds
    it. None of it depends on a cell's fleet or adjacency, and every cell
    handles the call at the same instant, so the cells share one Arrival."""

    def __init__(self, call: TripRequest, pickup_node: int | None,
                 dropoff_node: int | None, zone_map: ZoneMap, net: RoadNetwork,
                 traffic: TrafficState | None):
        self.pickup_node = pickup_node
        self.dropoff_node = dropoff_node
        self.zone, self.zone_fallback = zone_map.locate_or_nearest(call.pickup)
        self.net = net
        self.traffic = traffic
        self.now_s = call.request_time_s
        self.trip = RouteQuery(net, pickup_node, dropoff_node, self.now_s, traffic)

    def routable(self) -> bool:
        """Whether both ends snapped and the dropoff can be reached. Nodes of
        one strongly connected component reach each other, so only a trip
        across components needs the search to tell; its route is kept."""
        p, d = self.pickup_node, self.dropoff_node
        if p is None or d is None:
            return False
        return self.net.component[p] == self.net.component[d] or self.trip.route is not None


def dispatch(call: TripRequest, arrival: Arrival, fleet: Fleet, sched: AdjacencySchedule,
             node_zone: dict[int, int], cfg: DispatchConfig) -> DispatchDecision:
    """Pick a vehicle for one call. Expansion may add one adjacency link on
    an out-of-component assignment; vehicle state is never touched."""
    a_c = arrival.zone
    decision = DispatchDecision()
    if not arrival.routable():
        decision.zones_searched.append(frozenset({a_c}))
        decision.reject_reason = REJECT_UNROUTABLE
        return decision

    now_s = arrival.now_s
    pool = candidate_pool(fleet, cfg.strategy, call.party_size)
    ranking = _EtaRanking(arrival.pickup_node, arrival.net, arrival.traffic, now_s)
    # A vehicle sits in the zone of its last-passed routing node.
    vzone = {v.id: node_zone[v.current_node(now_s)] for v in pool}
    winner = None
    for region, link in _regions(a_c, sched, cfg.eat_enabled):
        decision.zones_searched.append(region)
        winner, _ = ranking.best([v for v in pool if vzone[v.id] in region])
        if winner is not None:
            if link:
                sched.add_neighbor(a_c, vzone[winner.id])
                decision.adjacency_updated = True
            break
    decision.nodes_settled = ranking.nodes_settled
    if winner is None:
        decision.reject_reason = REJECT_NO_VEHICLE
        return decision
    decision.vehicle_id = winner.id
    decision.route_to_pickup, decision.eta_s = ranking.leg(winner)
    decision.trip = arrival.trip
    return decision


@dataclass
class RescheduleAction:
    request_id: int
    new_vehicle_id: int
    new_pickup_time_s: float
    reassigned: bool


class RescheduleActions(list[RescheduleAction]):
    """The actions of one OSS pass, in job order, and the number of nodes
    its rankings settled."""
    nodes_settled = 0


def oss_reschedule(jobs: list[tuple[TripRequest, Vehicle]], fleet: Fleet, net: RoadNetwork,
                   traffic: TrafficState | None, now_s: float,
                   cfg: DispatchConfig) -> RescheduleActions:
    """Re-plan every waiting pickup under the traffic in force now.

    Jobs are the fleet's waiting jobs (fleet.waiting_jobs), visited in the
    order given (first-come first-served). Each plan is read when its job is
    visited, not held in the list, so a re-planned job's old legs are freed
    as the pass goes. A waiting job moves to another vehicle only when that
    vehicle's fresh ETA beats the incumbent's fresh ETA by more than the
    configured threshold; otherwise the incumbent keeps the job with its
    pickup leg re-timed. Either way the job gets a fresh trip query under the
    traffic in force now, searched only if the pickup comes, and the old
    query is dropped unread. Trips already carrying a passenger are left
    alone. Candidates are drawn fleet-wide: re-planning is a refinement pass
    and has no zone scope.
    """
    if cfg.strategy is not Strategy.OSS:
        raise ValueError(f"rescheduling requires OSS, got {cfg.strategy.value}")
    actions = RescheduleActions()
    for request, v in jobs:
        rid = request.id
        old_plan = waiting_job(v, rid)
        pickup_node = old_plan.trip.src
        # job_start's node lies on the old leg, which may start there.
        node, depart = job_start(v, now_s)
        leg = _reroute(old_plan.route_to_pickup, node, net, traffic, now_s)
        incumbent_eta = (depart - now_s) + leg.total_time_s

        others = candidate_pool(fleet, Strategy.OSS, request.party_size)
        # A candidate with ETA e takes the job only if fl(incumbent_eta - e)
        # exceeds the threshold, which (rounding being monotone) needs e below
        # incumbent_eta - threshold in the reals. The cap, one ulp above that
        # difference rounded, lies above it, so capping the search loses no
        # candidate that could take the job.
        cap = math.nextafter(incumbent_eta - cfg.oss_reassign_threshold_s, math.inf)
        ranking = _EtaRanking(pickup_node, net, traffic, now_s)
        best, best_eta = ranking.best(others, cap)
        actions.nodes_settled += ranking.nodes_settled

        improves = best is not None and incumbent_eta - best_eta > cfg.oss_reassign_threshold_s
        trip = RouteQuery(net, pickup_node, old_plan.trip.dst, now_s, traffic)
        if improves:
            release(v, rid, now_s)
            new_leg, _ = ranking.leg(best)
            plan = assign(best, request, new_leg, trip, now_s)
            actions.append(RescheduleAction(rid, best.id, plan.pickup_time_s, True))
            continue
        plan = replan(v, rid, leg, trip, now_s)
        if plan.pickup_time_s != old_plan.pickup_time_s:
            actions.append(RescheduleAction(rid, v.id, plan.pickup_time_s, False))
    return actions
