"""Discrete-event simulation loop and its replayable event log.

One pass runs any number of cells, each a fleet, an adjacency schedule and
a dispatcher, over one demand. Within a cell, events are processed in
(time, sequence) order; the sequence number is fixed when an event is
scheduled, so ties at the same instant resolve by scheduling history and
every run of the same inputs pops the same events in the same order.
The traffic changes and the sorted requests reach the cells as one stream
of numbered inputs, in key order, and never wait in a queue: the pass hands
each input to every cell in turn, after the cell's own events keyed before
it. A cell keeps state for a request only while a vehicle holds it.
Leg durations are fixed when a job is planned; only the OSS strategy
re-plans waiting pickups when the traffic multiplier changes.
"""

import heapq
import logging
import math
from dataclasses import dataclass
from enum import Enum

from .demand import TripRequest
from .dispatch import Arrival, DispatchConfig, dispatch, oss_reschedule
from .fleet import (Fleet, Strategy, assign, finish_trip, pick_up, release,
                    validate_transitions, waiting_job, waiting_jobs)
from .road import RoadNetwork, TrafficState
from .zones import AdjacencySchedule, ZoneMap

log = logging.getLogger(__name__)

DEFAULT_SNAP_RADIUS_M = 1000.0


class SimulationError(RuntimeError):
    pass


class EventKind(Enum):
    REQUEST_ARRIVAL = "REQUEST_ARRIVAL"
    ARRIVED_AT_PICKUP = "ARRIVED_AT_PICKUP"
    TRIP_COMPLETED = "TRIP_COMPLETED"
    PASSENGER_ABANDONED = "PASSENGER_ABANDONED"
    TRAFFIC_CHANGE = "TRAFFIC_CHANGE"
    RESCHEDULE = "RESCHEDULE"


OUTCOME_PICKED_UP = "PICKED_UP"
OUTCOME_REJECTED = "REJECTED"
OUTCOME_ABANDONED = "ABANDONED"


@dataclass(frozen=True, slots=True)
class CallRecord:
    request_id: int
    request_time_s: float
    outcome: str
    pickup_time_s: float | None = None
    dropoff_time_s: float | None = None
    vehicle_id: int | None = None
    reject_reason: str | None = None
    abandon_time_s: float | None = None

    def line(self) -> str:
        if self.outcome == OUTCOME_PICKED_UP:
            return (f"{self.request_id} {self.request_time_s!r} {self.outcome} "
                    f"{self.pickup_time_s!r} {self.dropoff_time_s!r} {self.vehicle_id}")
        if self.outcome == OUTCOME_REJECTED:
            return f"{self.request_id} {self.request_time_s!r} {self.outcome} {self.reject_reason}"
        return f"{self.request_id} {self.request_time_s!r} {self.outcome} {self.abandon_time_s!r}"

    @property
    def wait_s(self) -> float | None:
        if self.pickup_time_s is None:
            return None
        return self.pickup_time_s - self.request_time_s


def parse_record_line(line: str) -> CallRecord:
    """Inverse of CallRecord.line(); round-trips every float exactly."""
    parts = line.split()
    try:
        rid, req_t, outcome = int(parts[0]), float(parts[1]), parts[2]
        if outcome == OUTCOME_PICKED_UP:
            return CallRecord(rid, req_t, outcome, float(parts[3]), float(parts[4]),
                              int(parts[5]))
        if outcome == OUTCOME_REJECTED:
            return CallRecord(rid, req_t, outcome, reject_reason=parts[3])
        if outcome == OUTCOME_ABANDONED:
            return CallRecord(rid, req_t, outcome, abandon_time_s=float(parts[3]))
    except (IndexError, ValueError) as exc:
        raise ValueError(f"bad call record line {line!r}") from exc
    raise ValueError(f"unknown outcome in call record line {line!r}")


@dataclass
class RunResult:
    records: list[CallRecord]
    event_log: list[str]
    metadata: dict

    def record_lines(self) -> list[str]:
        return [r.line() for r in self.records]


Cell = tuple[Fleet, AdjacencySchedule, DispatchConfig]


class _RequestState:
    """A request some vehicle holds: the vehicle, and the sequence number of
    the pickup event last scheduled for it. Any change of vehicle or pickup
    time schedules a new pickup event, so an older one is stale."""
    __slots__ = ("vehicle_id", "pickup_seq")

    def __init__(self, vehicle_id: int, pickup_seq: int):
        self.vehicle_id = vehicle_id
        self.pickup_seq = pickup_seq


class _Cell:
    """One dispatcher's run inside a pass: its own fleet, adjacency schedule,
    heap of the events it schedules (numbered after the pass's inputs),
    request states, log, records and counts. It refers to what the demand
    fixes, but not to the pass, so a finished pass is freed as soon as its
    last reference goes."""

    def __init__(self, fleet: Fleet, sched: AdjacencySchedule, cfg: DispatchConfig,
                 net: RoadNetwork, traffic: TrafficState, node_zone: dict[int, int],
                 inputs: int):
        self.fleet = fleet
        self.sched = sched
        self.cfg = cfg
        self.net = net
        self.traffic = traffic
        self.node_zone = node_zone
        self.heap: list[tuple[float, int, EventKind, tuple]] = []
        self.seq = inputs
        self.now = 0.0
        self.current_seq = -1
        self.events_processed = 0
        self.log_lines: list[str] = []
        self.records: list[CallRecord] = []
        self.reassignment_count = 0
        self.nodes_settled = 0
        self.oss_nodes_settled = 0
        self.adjacency_links = 0
        self.states: dict[int, _RequestState] = {}
        self.outcome: RunResult | SimulationError | None = None  # set when the cell ends

    # -- scheduling ----------------------------------------------------

    def schedule(self, t_s: float, kind: EventKind, payload: tuple) -> int:
        """Queue an event and return its sequence number."""
        if t_s < self.now:
            raise SimulationError(f"event {kind.value} scheduled in the past ({t_s} < {self.now})")
        heapq.heappush(self.heap, (t_s, self.seq, kind, payload))
        self.seq += 1
        return self.seq - 1

    def process(self, t: float, seq: int, kind: EventKind, payload: tuple) -> None:
        if t < self.now:
            raise SimulationError(f"time went backwards: {t} after {self.now}")
        self.now = t
        self.current_seq = seq
        try:
            self.HANDLERS[kind](self, *payload)
        except ValueError as exc:  # a fleet operation the state machine refused
            raise SimulationError(f"t={self.now!r}: {exc}") from exc
        self.events_processed += 1

    def advance(self, key: tuple[float, int]) -> None:
        """Process every queued event keyed before `key`, in key order."""
        heap = self.heap
        while heap and heap[0][:2] < key:
            self.process(*heapq.heappop(heap))

    def take(self, t: float, seq: int, kind: EventKind, payload: tuple) -> None:
        """Process one of the pass's inputs after every event keyed before it."""
        self.advance((t, seq))
        self.process(t, seq, kind, payload)

    def emit(self, kind: EventKind, text: str) -> None:
        self.log_lines.append(f"{self.now!r} {self.current_seq} {kind.value} {text}")

    def end(self, r: TripRequest, outcome: str, **fields) -> None:
        """Write the record of a request that has ended and forget its state,
        if a vehicle held it."""
        self.records.append(CallRecord(r.id, r.request_time_s, outcome, **fields))
        self.states.pop(r.id, None)

    # -- handlers ------------------------------------------------------

    def on_request_arrival(self, r: TripRequest, arrival: Arrival) -> None:
        req_id = r.id
        decision = dispatch(r, arrival, self.fleet, self.sched, self.node_zone, self.cfg)
        self.nodes_settled += decision.nodes_settled
        self.adjacency_links += decision.adjacency_updated
        if not decision.assigned:
            self.end(r, OUTCOME_REJECTED, reject_reason=decision.reject_reason)
            self.emit(EventKind.REQUEST_ARRIVAL,
                      f"req={req_id} zone={arrival.zone} outcome=rejected "
                      f"reason={decision.reject_reason} rounds={len(decision.zones_searched)}")
            return
        v = self.fleet.vehicle(decision.vehicle_id)
        plan = assign(v, r, decision.route_to_pickup, decision.trip, self.now)
        self.states[req_id] = _RequestState(
            v.id, self.schedule(plan.pickup_time_s, EventKind.ARRIVED_AT_PICKUP, (req_id,)))
        self.schedule(r.request_time_s + r.patience_s,
                      EventKind.PASSENGER_ABANDONED, (req_id,))
        self.emit(EventKind.REQUEST_ARRIVAL,
                  f"req={req_id} zone={arrival.zone} outcome=assigned "
                  f"vehicle={v.id} eta={decision.eta_s!r} rounds={len(decision.zones_searched)} "
                  f"adj={int(decision.adjacency_updated)}")

    def on_arrived_at_pickup(self, req_id: int) -> None:
        st = self.states.get(req_id)
        if st is None or st.pickup_seq != self.current_seq:
            return  # superseded by a re-plan or an abandonment
        v = self.fleet.vehicle(st.vehicle_id)
        pick_up(v, req_id, self.now)
        r = v.plan.request
        if self.now - r.request_time_s > r.patience_s:
            raise SimulationError(f"request {req_id} picked up after its patience ran out")
        self.schedule(v.plan.dropoff_time_s, EventKind.TRIP_COMPLETED, (req_id, v.id))
        self.emit(EventKind.ARRIVED_AT_PICKUP, f"req={req_id} vehicle={v.id}")

    def on_trip_completed(self, req_id: int, vehicle_id: int) -> None:
        plan = finish_trip(self.fleet.vehicle(vehicle_id), req_id, self.now)
        self.end(plan.request, OUTCOME_PICKED_UP, pickup_time_s=plan.pickup_time_s,
                 dropoff_time_s=self.now, vehicle_id=vehicle_id)
        self.emit(EventKind.TRIP_COMPLETED, f"req={req_id} vehicle={vehicle_id}")

    def on_passenger_abandoned(self, req_id: int) -> None:
        st = self.states.get(req_id)
        if st is None:
            return  # already dropped off
        v = self.fleet.vehicle(st.vehicle_id)
        job = waiting_job(v, req_id)
        if job is None:
            if v.plan is not None and v.plan.request.id == req_id:
                return  # the passenger is aboard
            raise SimulationError(f"abandonment for request {req_id} found no matching "
                                  f"job on vehicle {st.vehicle_id}")
        if job.pickup_time_s <= self.now:
            return  # the pickup due this same instant wins the tie
        release(v, req_id, self.now)
        self.end(job.request, OUTCOME_ABANDONED, abandon_time_s=self.now)
        self.emit(EventKind.PASSENGER_ABANDONED, f"req={req_id} vehicle={st.vehicle_id}")

    def on_traffic_change(self, multiplier: float) -> None:
        self.emit(EventKind.TRAFFIC_CHANGE, f"multiplier={multiplier!r}")
        if self.cfg.strategy is Strategy.OSS:
            # The reschedule at this instant gives every waiting job a fresh
            # trip query under the new multiplier.
            self.schedule(self.now, EventKind.RESCHEDULE, ())
            return
        # A waiting trip is searched under the multiplier it was planned at.
        # Search it now, while the network still holds that multiplier's
        # tables: read at its pickup, it would rebuild them, and the next
        # dispatch would rebuild the new ones.
        for request, v in waiting_jobs(self.fleet):
            waiting_job(v, request.id).trip.route

    def on_reschedule(self) -> None:
        actions = oss_reschedule(waiting_jobs(self.fleet), self.fleet, self.net, self.traffic,
                                 self.now, self.cfg)
        self.oss_nodes_settled += actions.nodes_settled
        reassigned = 0
        for act in actions:
            st = self.states[act.request_id]
            st.vehicle_id = act.new_vehicle_id
            st.pickup_seq = self.schedule(act.new_pickup_time_s, EventKind.ARRIVED_AT_PICKUP,
                                          (act.request_id,))
            if act.reassigned:
                reassigned += 1
        self.reassignment_count += reassigned
        self.emit(EventKind.RESCHEDULE, f"actions={len(actions)} reassigned={reassigned}")

    def finish(self, snap_failures: int, zone_fallbacks: int) -> None:
        """Drain the heap, check the run and keep its records as the outcome.
        The counts are the pass's, which a cell still live has seen whole."""
        self.advance((math.inf, math.inf))
        problems = validate_transitions(self.fleet.transitions())
        if problems:
            raise SimulationError("state machine violations: " + "; ".join(problems[:5]))
        if self.states:
            rid, st = next(iter(self.states.items()))  # the earliest left, in request order
            raise SimulationError(f"request {rid} never ended; vehicle "
                                  f"{st.vehicle_id} still holds it")
        records = sorted(self.records, key=lambda rec: (rec.request_time_s, rec.request_id))
        rejects: dict[str, int] = {}
        for rec in records:
            if rec.outcome == OUTCOME_REJECTED:
                rejects[rec.reject_reason] = rejects.get(rec.reject_reason, 0) + 1
        metadata = {
            "requests": len(records),
            "picked_up": sum(1 for rec in records if rec.outcome == OUTCOME_PICKED_UP),
            "abandoned": sum(1 for rec in records if rec.outcome == OUTCOME_ABANDONED),
            "rejected": rejects,
            "reassignments": self.reassignment_count,
            "adjacency_revision": self.adjacency_links,
            "zone_fallback_calls": zone_fallbacks,
            "snap_failures": snap_failures,
            "events_processed": self.events_processed,
            "nodes_settled": self.nodes_settled,
            "oss_nodes_settled": self.oss_nodes_settled,
        }
        self.outcome = RunResult(records, self.log_lines, metadata)

    # Plain functions, not bound methods, so that a cell holds no reference
    # to itself and is freed without waiting for the cycle collector.
    HANDLERS = {
        EventKind.REQUEST_ARRIVAL: on_request_arrival,
        EventKind.ARRIVED_AT_PICKUP: on_arrived_at_pickup,
        EventKind.TRIP_COMPLETED: on_trip_completed,
        EventKind.PASSENGER_ABANDONED: on_passenger_abandoned,
        EventKind.TRAFFIC_CHANGE: on_traffic_change,
        EventKind.RESCHEDULE: on_reschedule,
    }


class PassResult(list[RunResult | SimulationError]):
    """Each cell's result, or the error that failed it, in cell order; and
    the pass's own count of events processed over every cell."""

    def __init__(self, outcomes, metadata: dict):
        super().__init__(outcomes)
        self.metadata = metadata


class _NodeZones(dict[int, int]):
    """The zone of each node, resolved when dispatch first reads it. Its
    readers are the idle counts, the ranking's found idle vehicles, the
    on-trip vehicles' zone spans and the link step's winner, so only nodes
    where a vehicle stands or passes are ever read."""

    def __init__(self, net: RoadNetwork, zone_map: ZoneMap):
        super().__init__()
        self.net = net
        self.zone_map = zone_map

    def __missing__(self, node: int) -> int:
        zone = self[node] = self.zone_map.locate_or_nearest(self.net.nodes[node])[0]
        return zone


class _Simulation:
    """One pass over the sorted demand for every cell at once. The cells
    differ in their dispatcher alone, so the pass holds what the demand
    fixes (the network, the zones and the node-to-zone table, the requests,
    the traffic, the snap radius) and is the cells' one source of inputs:
    it numbers traffic change k as k and arrival i as T + i, after the T
    changes, and hands each input, in key order, to every cell in turn. So
    every cell takes a change before any cell dispatches the next arrival.
    A SimulationError in a cell takes that cell alone out of the pass."""

    def __init__(self, requests: list[TripRequest], cells: list[Cell], net: RoadNetwork,
                 zone_map: ZoneMap, traffic: TrafficState, snap_radius_m: float):
        self.net = net
        self.zone_map = zone_map
        self.traffic = traffic
        self.snap_radius_m = snap_radius_m
        self.requests = sorted(requests, key=lambda r: (r.request_time_s, r.id))
        ids = [r.id for r in self.requests]
        if len(set(ids)) != len(ids):
            raise SimulationError("duplicate request ids")
        if len(zone_map) == 0:
            raise SimulationError("at least one zone is required to dispatch")
        self.node_zone = _NodeZones(net, zone_map)
        self.changes = traffic.change_times()
        inputs = len(self.changes) + len(self.requests)
        self.cells = [_Cell(fleet, sched, cfg, net, traffic, self.node_zone, inputs)
                      for fleet, sched, cfg in cells]
        self.snap_failures = 0
        self.zone_fallbacks = 0

    def _live(self) -> list[_Cell]:
        return [cell for cell in self.cells if cell.outcome is None]

    @staticmethod
    def _step(cell: _Cell, step, *args) -> None:
        """One step of a cell; a SimulationError takes the cell out of the
        pass, as its outcome."""
        try:
            step(*args)
        except SimulationError as exc:
            cell.outcome = exc

    def _round(self, t: float, seq: int, kind: EventKind, payload: tuple) -> None:
        """One input in every live cell. An arrival is snapped once and
        dropped on return, so only one Arrival is ever alive; its trip query
        lives on in the plans of the cells that assigned the call."""
        live = self._live()
        if not live:
            return
        if kind is EventKind.REQUEST_ARRIVAL:
            r, = payload
            arrival = Arrival(r, self.net.nearest_node(r.pickup, self.snap_radius_m),
                              self.net.nearest_node(r.dropoff, self.snap_radius_m),
                              self.zone_map, self.net, self.traffic)
            self.snap_failures += arrival.pickup_node is None or arrival.dropoff_node is None
            self.zone_fallbacks += arrival.zone_fallback
            payload = (r, arrival)
        for cell in live:
            self._step(cell, cell.take, t, seq, kind, payload)

    def run(self) -> PassResult:
        for item in heapq.merge(
                ((t, k, EventKind.TRAFFIC_CHANGE, (self.traffic.multiplier_at(t),))
                 for k, t in enumerate(self.changes)),
                ((r.request_time_s, len(self.changes) + i, EventKind.REQUEST_ARRIVAL, (r,))
                 for i, r in enumerate(self.requests))):
            self._round(*item)
        for cell in self._live():
            self._step(cell, cell.finish, self.snap_failures, self.zone_fallbacks)
        if self.snap_failures:
            log.warning("%d of %d requests fall outside the road network snap radius",
                        self.snap_failures, len(self.requests))
        return PassResult((cell.outcome for cell in self.cells),
                          {"events_processed": sum(c.events_processed for c in self.cells)})


def run(requests: list[TripRequest], cells: list[Cell], net: RoadNetwork,
        zone_map: ZoneMap, traffic: TrafficState | None,
        snap_radius_m: float = DEFAULT_SNAP_RADIUS_M) -> PassResult:
    """Simulate one demand stream to completion for every cell, a
    (fleet, adjacency schedule, dispatcher) triple, in one pass.

    Each cell's fleet and schedule are mutated (final vehicle positions,
    adjacency links discovered during the run). A SimulationError in one
    cell fails that cell alone; one in the shared inputs fails the pass.
    """
    return _Simulation(requests, cells, net, zone_map, traffic or TrafficState([]),
                       snap_radius_m).run()
