"""Vehicles, their state machine and candidate pools.

A vehicle is Idle, EnRouteToPickup, or OnTrip. Strategies that assign busy
vehicles may queue exactly one future job behind the trip in progress; a
vehicle already heading to a pickup (or already holding a queued job) takes
no further work. The operations at the end of this module are the only code
that changes a vehicle's status, position or plans, and each vehicle keeps
the trace of its own status changes.
"""

import random
from dataclasses import dataclass
from enum import Enum

from .demand import DEFAULT_CAPACITY, TripRequest
from .road import RoadNetwork, Route, RouteQuery


class VehicleStatus(Enum):
    IDLE = "Idle"
    EN_ROUTE_TO_PICKUP = "EnRouteToPickup"
    ON_TRIP = "OnTrip"


class Strategy(Enum):
    NSS = "NSS"
    SSS = "SSS"
    OSS = "OSS"


# (from, to) pairs the state machine allows.
ALLOWED_TRANSITIONS = {
    (VehicleStatus.IDLE, VehicleStatus.EN_ROUTE_TO_PICKUP),
    (VehicleStatus.EN_ROUTE_TO_PICKUP, VehicleStatus.ON_TRIP),
    (VehicleStatus.EN_ROUTE_TO_PICKUP, VehicleStatus.IDLE),
    (VehicleStatus.ON_TRIP, VehicleStatus.IDLE),
    (VehicleStatus.ON_TRIP, VehicleStatus.EN_ROUTE_TO_PICKUP),
}


@dataclass
class Plan:
    """One accepted job: the pickup leg, the trip's query, and their fixed
    times.

    Times are set when the job is (re)planned and do not drift afterwards;
    replanning replaces the whole Plan. The trip is searched when its route
    or dropoff time is first read, which is at the pickup: a job that is
    released or re-planned before then never pays for it.
    """
    request: TripRequest
    route_to_pickup: Route
    trip: RouteQuery
    depart_s: float
    pickup_time_s: float

    @property
    def route_of_trip(self) -> Route:
        return self.trip.route

    @property
    def dropoff_time_s(self) -> float:
        return self.pickup_time_s + self.trip.route.total_time_s


@dataclass(frozen=True, slots=True)
class Transition:
    time_s: float
    vehicle_id: int
    src: VehicleStatus
    dst: VehicleStatus


class Vehicle:
    def __init__(self, vehicle_id: int, node: int, capacity: int = DEFAULT_CAPACITY):
        self.id = vehicle_id
        self.node = node  # meaningful when Idle; otherwise derived from plan
        self.capacity = capacity
        self.status = VehicleStatus.IDLE
        self.plan: Plan | None = None
        self.queued: Plan | None = None
        self.transitions: list[Transition] = []  # status changes, oldest first

    def current_node(self, now_s: float) -> int:
        """Last routing node passed at now_s."""
        if self.plan is None:
            return self.node
        if self.status is VehicleStatus.EN_ROUTE_TO_PICKUP:
            return self.plan.route_to_pickup.node_at_elapsed(now_s - self.plan.depart_s)
        return self.plan.route_of_trip.node_at_elapsed(now_s - self.plan.pickup_time_s)


class Fleet:
    def __init__(self, vehicles: list[Vehicle]):
        ids = [v.id for v in vehicles]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vehicle ids")
        self.vehicles = sorted(vehicles, key=lambda v: v.id)
        self._by_id = {v.id: v for v in self.vehicles}

    def __iter__(self):
        return iter(self.vehicles)

    def vehicle(self, vehicle_id: int) -> Vehicle:
        return self._by_id[vehicle_id]

    def transitions(self) -> list[Transition]:
        """Every vehicle's status changes, vehicle by vehicle in id order."""
        return [tr for v in self.vehicles for tr in v.transitions]

    @classmethod
    def place_uniform(cls, net: RoadNetwork, size: int, seed: int,
                      capacity: int = DEFAULT_CAPACITY) -> "Fleet":
        """Drop `size` idle vehicles on nodes sampled uniformly (with
        replacement) from the network."""
        if size < 0:
            raise ValueError(f"negative fleet size {size}")
        if not net.ids and size > 0:
            raise ValueError("cannot place vehicles on an empty network")
        rng = random.Random(seed)
        return cls([Vehicle(i, rng.choice(net.ids), capacity) for i in range(size)])


def candidate_pool(fleet: Fleet, strategy: Strategy, party_size: int) -> list[Vehicle]:
    """Vehicles eligible for a new assignment of party_size riders, ascending id.

    NSS considers idle vehicles only. SSS and OSS add vehicles currently on a
    trip, except those that already queued a follow-up job. A vehicle heading
    to a pickup, or with fewer seats than the party, is never eligible.
    """
    # Read once per call: on CPython 3.11 an enum member lookup costs about
    # 120 ns against under 10 ns for a local, and the scan visits every vehicle.
    idle, on_trip = VehicleStatus.IDLE, VehicleStatus.ON_TRIP
    busy_too = strategy in (Strategy.SSS, Strategy.OSS)
    return [v for v in fleet if v.capacity >= party_size and (
        v.status is idle or busy_too and v.status is on_trip and v.queued is None)]


# -- operations on a vehicle's commitments -----------------------------------


def _set_status(v: Vehicle, status: VehicleStatus, now_s: float) -> None:
    """The one write of a vehicle's status; a change joins its trace."""
    if status is not v.status:
        v.transitions.append(Transition(now_s, v.id, v.status, status))
        v.status = status


def job_start(v: Vehicle, now_s: float) -> tuple[int, float]:
    """Node and time a job planned now departs from: the current trip's
    dropoff for a vehicle on a trip, else where the vehicle is, now. The one
    rule for where and when a vehicle is next free, for dispatch and planning."""
    if v.status is VehicleStatus.ON_TRIP:
        return v.plan.trip.dst, v.plan.dropoff_time_s
    return v.current_node(now_s), now_s


def _schedule(v: Vehicle, request: TripRequest, route_to_pickup: Route, trip: RouteQuery,
              now_s: float) -> Plan:
    """Fix a job's timeline from job_start (depart, then the pickup leg, then
    the trip) and hold it: queued behind a trip, else as the job in hand."""
    node, depart = job_start(v, now_s)
    if route_to_pickup.nodes[0] != node:
        raise ValueError(f"vehicle {v.id}: pickup leg must start at node {node}")
    if trip.src != route_to_pickup.nodes[-1]:
        raise ValueError("trip leg must start at the pickup node")
    plan = Plan(request, route_to_pickup, trip, depart, depart + route_to_pickup.total_time_s)
    if v.status is VehicleStatus.ON_TRIP:
        v.queued = plan
    else:
        v.plan = plan
        _set_status(v, VehicleStatus.EN_ROUTE_TO_PICKUP, now_s)
    return plan


def assign(vehicle: Vehicle, request: TripRequest, route_to_pickup: Route,
           trip: RouteQuery, now_s: float) -> Plan:
    """Commit a vehicle to a request and fix the job's timeline.

    Idle vehicles leave immediately; OnTrip vehicles queue the job behind the
    current trip (departing from its dropoff node when it ends).
    """
    if vehicle.status is VehicleStatus.EN_ROUTE_TO_PICKUP:
        raise ValueError(f"vehicle {vehicle.id} is already heading to a pickup")
    if vehicle.queued is not None:
        raise ValueError(f"vehicle {vehicle.id} already queued a job")
    return _schedule(vehicle, request, route_to_pickup, trip, now_s)


def _waiting(v: Vehicle) -> Plan | None:
    """The job v holds and has not picked up yet, if any."""
    return v.queued if v.status is VehicleStatus.ON_TRIP else v.plan


def waiting_job(v: Vehicle, request_id: int) -> Plan | None:
    """The plan of request_id if v holds it and has not picked it up yet."""
    job = _waiting(v)
    return job if job is not None and job.request.id == request_id else None


def waiting_jobs(fleet: Fleet) -> list[tuple[TripRequest, Vehicle]]:
    """The request of every held job not picked up yet, with its vehicle,
    first come first served: by request time, then request id. A vehicle
    holds at most one such job, so waiting_job(v, request.id) is its plan."""
    jobs = [(job.request, v) for v in fleet if (job := _waiting(v)) is not None]
    jobs.sort(key=lambda rv: (rv[0].request_time_s, rv[0].id))
    return jobs


def replan(v: Vehicle, request_id: int, route_to_pickup: Route, trip: RouteQuery,
           now_s: float) -> Plan:
    """Re-time a waiting job with fresh legs from job_start(v, now_s)."""
    job = waiting_job(v, request_id)
    if job is None:
        raise ValueError(f"vehicle {v.id} holds no waiting job {request_id}")
    return _schedule(v, job.request, route_to_pickup, trip, now_s)


def release(v: Vehicle, request_id: int, now_s: float) -> None:
    """Drop a waiting job; a vehicle heading to its pickup parks at the last
    node it passed."""
    if waiting_job(v, request_id) is None:
        raise ValueError(f"vehicle {v.id} holds no waiting job {request_id}")
    if v.status is VehicleStatus.ON_TRIP:
        v.queued = None
        return
    v.node = v.current_node(now_s)
    v.plan = None
    _set_status(v, VehicleStatus.IDLE, now_s)


def pick_up(v: Vehicle, request_id: int, now_s: float) -> None:
    """The passenger of the job the vehicle is heading to boards."""
    if v.status is not VehicleStatus.EN_ROUTE_TO_PICKUP or v.plan.request.id != request_id:
        raise ValueError(f"vehicle {v.id} in {v.status.value} is not heading to "
                         f"request {request_id}")
    _set_status(v, VehicleStatus.ON_TRIP, now_s)


def finish_trip(v: Vehicle, request_id: int, now_s: float) -> Plan:
    """Drop off request_id's passenger and return the finished job; start
    the queued job, if any."""
    done = v.plan
    if v.status is not VehicleStatus.ON_TRIP or done.request.id != request_id:
        raise ValueError(f"vehicle {v.id} in {v.status.value} is not carrying "
                         f"request {request_id}")
    v.node = done.trip.dst
    v.plan, v.queued = v.queued, None
    _set_status(v, VehicleStatus.IDLE if v.plan is None else VehicleStatus.EN_ROUTE_TO_PICKUP,
                now_s)
    return done


def validate_transitions(trace: list[Transition]) -> list[str]:
    """Check a recorded transition trace against the state machine.

    Returns human-readable violations; empty list means the trace is clean.
    """
    problems = []
    last_state: dict[int, VehicleStatus] = {}
    last_time: dict[int, float] = {}
    for tr in trace:
        prev = last_state.get(tr.vehicle_id)
        if prev is not None and tr.src is not prev:
            problems.append(f"t={tr.time_s}: vehicle {tr.vehicle_id} left {tr.src.value} "
                            f"but was last seen in {prev.value}")
        if (tr.src, tr.dst) not in ALLOWED_TRANSITIONS:
            problems.append(f"t={tr.time_s}: vehicle {tr.vehicle_id} illegal transition "
                            f"{tr.src.value} -> {tr.dst.value}")
        if tr.vehicle_id in last_time and tr.time_s < last_time[tr.vehicle_id]:
            problems.append(f"t={tr.time_s}: vehicle {tr.vehicle_id} transition out of order")
        last_state[tr.vehicle_id] = tr.dst
        last_time[tr.vehicle_id] = tr.time_s
    return problems
