"""Vehicles, their state machine and candidate pools.

A vehicle is Idle, EnRouteToPickup, or OnTrip. Strategies that assign busy
vehicles may queue exactly one future job behind the trip in progress; a
vehicle already heading to a pickup (or already holding a queued job) takes
no further work.
"""

import random
from dataclasses import dataclass
from enum import Enum

from .demand import TripRequest
from .road import RoadNetwork, Route

DEFAULT_CAPACITY = 4


class VehicleStatus(Enum):
    IDLE = "Idle"
    EN_ROUTE_TO_PICKUP = "EnRouteToPickup"
    ON_TRIP = "OnTrip"


class Strategy(Enum):
    NSS = "NSS"
    SSS = "SSS"
    OSS = "OSS"


# (from, to) pairs the state machine allows. OnTrip -> OnTrip covers queueing
# a follow-up job without a status change.
ALLOWED_TRANSITIONS = {
    (VehicleStatus.IDLE, VehicleStatus.EN_ROUTE_TO_PICKUP),
    (VehicleStatus.EN_ROUTE_TO_PICKUP, VehicleStatus.ON_TRIP),
    (VehicleStatus.EN_ROUTE_TO_PICKUP, VehicleStatus.IDLE),
    (VehicleStatus.ON_TRIP, VehicleStatus.IDLE),
    (VehicleStatus.ON_TRIP, VehicleStatus.EN_ROUTE_TO_PICKUP),
    (VehicleStatus.ON_TRIP, VehicleStatus.ON_TRIP),
}


@dataclass
class Plan:
    """One accepted job: the pickup leg, the trip leg, and their fixed times.

    Times are set when the job is (re)planned and do not drift afterwards;
    replanning replaces the whole Plan.
    """
    request_id: int
    route_to_pickup: Route
    route_of_trip: Route
    depart_s: float
    pickup_time_s: float
    dropoff_time_s: float


class Vehicle:
    def __init__(self, vehicle_id: int, node: int, capacity: int = DEFAULT_CAPACITY):
        self.id = vehicle_id
        self.node = node  # meaningful when Idle; otherwise derived from plan
        self.capacity = capacity
        self.status = VehicleStatus.IDLE
        self.plan: Plan | None = None
        self.queued: Plan | None = None

    def __repr__(self):
        return f"Vehicle({self.id}, {self.status.value}, node={self.node})"

    def busy_until_s(self, now_s: float) -> float:
        if self.status is VehicleStatus.IDLE:
            return now_s
        last = self.queued or self.plan
        return last.dropoff_time_s

    def trip_end_node(self) -> int:
        """Where the vehicle will stand when its current commitments end."""
        last = self.queued or self.plan
        if last is None:
            return self.node
        return last.route_of_trip.nodes[-1]

    def current_node(self, now_s: float) -> int:
        """Last routing node passed at now_s."""
        if self.status is VehicleStatus.IDLE or self.plan is None:
            return self.node
        if self.status is VehicleStatus.EN_ROUTE_TO_PICKUP:
            if now_s < self.plan.depart_s:
                return self.plan.route_to_pickup.nodes[0]
            return self.plan.route_to_pickup.node_at_elapsed(now_s - self.plan.depart_s)
        if now_s < self.plan.pickup_time_s:
            return self.plan.route_of_trip.nodes[0]
        return self.plan.route_of_trip.node_at_elapsed(now_s - self.plan.pickup_time_s)


class Fleet:
    def __init__(self, vehicles: list[Vehicle]):
        ids = [v.id for v in vehicles]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vehicle ids")
        self.vehicles = sorted(vehicles, key=lambda v: v.id)
        self._by_id = {v.id: v for v in self.vehicles}

    def __len__(self):
        return len(self.vehicles)

    def __iter__(self):
        return iter(self.vehicles)

    def vehicle(self, vehicle_id: int) -> Vehicle:
        return self._by_id[vehicle_id]

    @classmethod
    def place_uniform(cls, net: RoadNetwork, size: int, seed: int,
                      capacity: int = DEFAULT_CAPACITY) -> "Fleet":
        """Drop `size` idle vehicles on nodes sampled uniformly (with
        replacement) from the network."""
        if size < 0:
            raise ValueError(f"negative fleet size {size}")
        node_ids = sorted(net.nodes)
        if not node_ids and size > 0:
            raise ValueError("cannot place vehicles on an empty network")
        rng = random.Random(seed)
        return cls([Vehicle(i, rng.choice(node_ids), capacity) for i in range(size)])


def candidate_pool(fleet: Fleet, strategy: Strategy, party_size: int) -> list[Vehicle]:
    """Vehicles eligible for a new assignment of party_size riders, ascending id.

    NSS considers idle vehicles only. SSS and OSS add vehicles currently on a
    trip, except those that already queued a follow-up job. A vehicle heading
    to a pickup, or with fewer seats than the party, is never eligible.
    """
    out = []
    for v in fleet:
        if v.capacity < party_size:
            continue
        if v.status is VehicleStatus.IDLE:
            out.append(v)
        elif strategy in (Strategy.SSS, Strategy.OSS) and \
                v.status is VehicleStatus.ON_TRIP and v.queued is None:
            out.append(v)
    return out


def assign(vehicle: Vehicle, request: TripRequest, route_to_pickup: Route,
           route_of_trip: Route, now_s: float) -> Plan:
    """Commit a vehicle to a request and fix the job's timeline.

    Idle vehicles leave immediately; OnTrip vehicles queue the job behind the
    current trip (departing from its dropoff node when it ends).
    """
    if route_of_trip.nodes[0] != route_to_pickup.nodes[-1]:
        raise ValueError("trip leg must start at the pickup node")
    if vehicle.status is VehicleStatus.EN_ROUTE_TO_PICKUP:
        raise ValueError(f"vehicle {vehicle.id} is already heading to a pickup")
    if vehicle.status is VehicleStatus.IDLE:
        if route_to_pickup.nodes[0] != vehicle.node:
            raise ValueError(f"pickup leg must start at vehicle node {vehicle.node}")
        depart = now_s
        pickup_t = depart + route_to_pickup.total_time_s
        plan = Plan(request.id, route_to_pickup, route_of_trip, depart, pickup_t,
                    pickup_t + route_of_trip.total_time_s)
        vehicle.plan = plan
        vehicle.status = VehicleStatus.EN_ROUTE_TO_PICKUP
        return plan
    # OnTrip
    if vehicle.queued is not None:
        raise ValueError(f"vehicle {vehicle.id} already queued a job")
    if route_to_pickup.nodes[0] != vehicle.trip_end_node():
        raise ValueError("queued pickup leg must start at the current trip's dropoff node")
    depart = vehicle.plan.dropoff_time_s
    pickup_t = depart + route_to_pickup.total_time_s
    plan = Plan(request.id, route_to_pickup, route_of_trip, depart, pickup_t,
                pickup_t + route_of_trip.total_time_s)
    vehicle.queued = plan
    return plan


@dataclass(frozen=True)
class Transition:
    time_s: float
    vehicle_id: int
    src: VehicleStatus
    dst: VehicleStatus


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
