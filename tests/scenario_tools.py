"""Builders and oracles shared across the test modules.

The exactness trick used by the routing/dispatch equivalence tests: edge
lengths are multiples of 10 m and speed*multiplier products divide them into
integer multiples of 1/8 s, so every path time is exactly representable and
path sums are order-independent. Comparisons against oracles can then demand
equality with zero tolerance.
"""

import csv
import heapq
import json
import math
import os
import random
from dataclasses import dataclass
from datetime import datetime

from amodsim import engine
from amodsim import demand
from amodsim.demand import TripRequest
from amodsim.dispatch import DispatchConfig, RescheduleAction
from amodsim.fleet import (Fleet, Strategy, Vehicle, VehicleStatus, assign, candidate_pool,
                           job_start, release, replan, waiting_job)
from amodsim.geo import METERS_PER_DEG_LAT, GeoPoint, Polygon, haversine_m
from amodsim.road import (MIN_LENGTH_FACTOR, RoadNetwork, Route, RouteQuery, TrafficState,
                          eta_table, route_astar)
from amodsim.zones import AdjacencySchedule, Zone, ZoneMap, initial_adjacency

GRID_SPEED_MPS = 10.0
GRID_SPEED_LIMIT_MPS = 11.176
DYADIC_SPEEDS = (2.0, 4.0, 5.0, 8.0, 10.0)
DYADIC_MULTIPLIERS = (0.5, 1.0, 2.0)


def grid_network(rows: int, cols: int, edge_len_m: float = 400.0,
                 speed_mps: float = GRID_SPEED_MPS,
                 speed_limit_mps: float = GRID_SPEED_LIMIT_MPS) -> RoadNetwork:
    """Four-neighbor grid; node id = row * cols + col, both directions."""
    spacing_deg = edge_len_m / METERS_PER_DEG_LAT
    nodes = {r * cols + c: GeoPoint(r * spacing_deg, c * spacing_deg)
             for r in range(rows) for c in range(cols)}
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            for rr, cc in ((r + 1, c), (r, c + 1)):
                if rr < rows and cc < cols:
                    j = rr * cols + cc
                    edges.append((i, j, edge_len_m, speed_mps))
                    edges.append((j, i, edge_len_m, speed_mps))
    return RoadNetwork(nodes, edges, speed_limit_mps)


def box_polygon(lat_lo: float, lat_hi: float, lon_lo: float, lon_hi: float) -> Polygon:
    return Polygon([GeoPoint(lat_lo, lon_lo), GeoPoint(lat_lo, lon_hi),
                    GeoPoint(lat_hi, lon_hi), GeoPoint(lat_hi, lon_lo)])


def box_feature(name: str, lat_lo: float, lat_hi: float, lon_lo: float, lon_hi: float) -> dict:
    ring = [[lon_lo, lat_lo], [lon_hi, lat_lo], [lon_hi, lat_hi],
            [lon_lo, lat_hi], [lon_lo, lat_lo]]
    return {"type": "Feature", "properties": {"name": name},
            "geometry": {"type": "Polygon", "coordinates": [ring]}}


def tile_zones(rows: int, cols: int, zone_rows: int, zone_cols: int,
               spacing_deg: float) -> list[Zone]:
    """Cover a rows x cols node grid with zone_rows x zone_cols box zones."""
    lat_cuts = [(-0.5 + rows * k / zone_rows) * spacing_deg for k in range(zone_rows + 1)]
    lon_cuts = [(-0.5 + cols * k / zone_cols) * spacing_deg for k in range(zone_cols + 1)]
    zones = []
    for zr in range(zone_rows):
        for zc in range(zone_cols):
            zid = zr * zone_cols + zc
            zones.append(Zone(zid, box_polygon(lat_cuts[zr], lat_cuts[zr + 1],
                                               lon_cuts[zc], lon_cuts[zc + 1])))
    return zones


# -- golden scenario -----------------------------------------------------

GOLDEN_EDGE_LEN_M = 400.0
GOLDEN_SPACING_DEG = GOLDEN_EDGE_LEN_M / METERS_PER_DEG_LAT

GOLDEN_SCRIPT = (
    # (request time, pickup node, dropoff node, patience)
    (0.0, 4, 5, 300.0),
    (20.0, 0, 6, 600.0),
    (32.0, 2, 8, 3600.0),
    (48.0, 7, 1, 600.0),
    (60.0, 6, 8, 90.0),
    (105.0, 3, 5, 60.0),
    (130.0, 0, 2, 60.0),
    (200.0, 6, 0, 75.0),
    (285.0, 4, 6, 3600.0),
    (300.0, 8, 4, 3600.0),
)

GOLDEN_VEHICLE_NODES = (0, 4, 8)

GOLDEN_RECORD_LINES = (
    "0 0.0 PICKED_UP 0.0 40.0 1",
    "1 20.0 PICKED_UP 20.0 100.0 0",
    "2 32.0 PICKED_UP 112.0 192.0 2",
    "3 48.0 PICKED_UP 128.0 208.0 1",
    "4 60.0 REJECTED no-vehicle",
    "5 105.0 PICKED_UP 145.0 225.0 0",
    "6 130.0 REJECTED no-vehicle",
    "7 200.0 ABANDONED 275.0",
    "8 285.0 PICKED_UP 325.0 405.0 0",
    "9 300.0 PICKED_UP 340.0 420.0 2",
)


def copy_schedule(sched: AdjacencySchedule) -> AdjacencySchedule:
    """An independent schedule with the same pairs."""
    dup = AdjacencySchedule(sched.zone_ids())
    for a, b in sched.pairs():
        dup.add_neighbor(a, b)
    return dup


def golden_node_point(nid: int) -> GeoPoint:
    row, col = divmod(nid, 3)
    return GeoPoint(row * GOLDEN_SPACING_DEG, col * GOLDEN_SPACING_DEG)


def golden_zone_boxes() -> list[tuple[float, float, float, float]]:
    d = GOLDEN_SPACING_DEG
    return [
        (-0.5 * d, 0.5 * d, -0.5 * d, 2.5 * d),   # bottom row nodes 0,1,2
        (0.5 * d, 1.5 * d, -0.5 * d, 2.5 * d),    # middle row nodes 3,4,5
        (1.5 * d, 2.5 * d, -0.5 * d, 0.5 * d),    # top-left corner node 6
        (1.5 * d, 2.5 * d, 0.5 * d, 2.5 * d),     # top row nodes 7,8
    ]


def golden_city() -> tuple[RoadNetwork, ZoneMap, object]:
    net = grid_network(3, 3, GOLDEN_EDGE_LEN_M)
    zones = [Zone(i, box_polygon(*b)) for i, b in enumerate(golden_zone_boxes())]
    zone_map = ZoneMap(zones)
    return net, zone_map, initial_adjacency(zone_map)


def golden_requests() -> list[TripRequest]:
    return [TripRequest(i, t, golden_node_point(a),
                        golden_node_point(b), 1, patience)
            for i, (t, a, b, patience) in enumerate(GOLDEN_SCRIPT)]


def golden_fleet() -> Fleet:
    return Fleet([Vehicle(i, n) for i, n in enumerate(GOLDEN_VEHICLE_NODES)])


def write_golden_inputs(dirpath: str) -> dict[str, str]:
    """Golden city as on-disk input files for the CLI."""
    os.makedirs(dirpath, exist_ok=True)
    paths = {
        "nodes": os.path.join(dirpath, "nodes.txt"),
        "edges": os.path.join(dirpath, "edges.txt"),
        "zones": os.path.join(dirpath, "zones.geojson"),
    }
    node_lines = []
    edge_lines = []
    for nid in range(9):
        p = golden_node_point(nid)
        node_lines.append(f"{nid} {p.lat!r} {p.lon!r}")
        r, c = divmod(nid, 3)
        for rr, cc in ((r + 1, c), (r, c + 1)):
            if rr < 3 and cc < 3:
                j = rr * 3 + cc
                edge_lines.append(f"{nid} {j} {GOLDEN_EDGE_LEN_M} {GRID_SPEED_MPS}")
                edge_lines.append(f"{j} {nid} {GOLDEN_EDGE_LEN_M} {GRID_SPEED_MPS}")
    with open(paths["nodes"], "w") as fh:
        fh.write("# id lat lon\n" + "\n".join(node_lines) + "\n")
    with open(paths["edges"], "w") as fh:
        fh.write("# from to length_m speed_mps\n" + "\n".join(edge_lines) + "\n")
    features = [box_feature(f"Z{i}", *b) for i, b in enumerate(golden_zone_boxes())]
    with open(paths["zones"], "w") as fh:
        json.dump({"type": "FeatureCollection", "features": features}, fh)
    return paths


def run_pass(requests: list[TripRequest], cells: list[engine.Cell], net: RoadNetwork,
             zone_map: ZoneMap, traffic: TrafficState | None,
             snap_radius_m: float = engine.DEFAULT_SNAP_RADIUS_M) -> engine.PassResult:
    """engine.run, with the first cell's SimulationError raised."""
    results = engine.run(requests, cells, net, zone_map, traffic, snap_radius_m)
    for result in results:
        if isinstance(result, engine.SimulationError):
            raise result
    return results


def run_one(requests: list[TripRequest], fleet: Fleet, net: RoadNetwork, zone_map: ZoneMap,
            sched: AdjacencySchedule, traffic: TrafficState | None, cfg: DispatchConfig,
            snap_radius_m: float = engine.DEFAULT_SNAP_RADIUS_M) -> engine.RunResult:
    """A pass of one cell."""
    [result] = run_pass(requests, [(fleet, sched, cfg)], net, zone_map, traffic, snap_radius_m)
    return result


# -- oracles -------------------------------------------------------------


def reference_parse_trips(csv_path: str, bbox: tuple[float, float, float, float] = demand.NYC_BBOX,
                          capacity: int = demand.DEFAULT_CAPACITY, rng_seed: int = 0,
                          ) -> tuple[list[TripRequest], demand.CleaningReport]:
    """demand.parse_trips read the plain way: a csv.DictReader dict per row
    and datetime.strptime for each timestamp."""
    report = demand.CleaningReport()
    kept = []
    with open(csv_path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in demand.COLUMNS if c not in header]
        if missing:
            raise demand.DemandFormatError(
                f"{csv_path}: missing columns {missing}; header {header}")
        for row in reader:
            report.rows_read += 1
            try:
                pickup_dt = datetime.strptime(row["pickup time"].strip(), demand.TIMESTAMP_FORMAT)
                dropoff_dt = datetime.strptime(row["dropoff time"].strip(),
                                               demand.TIMESTAMP_FORMAT)
                party = int(row["passenger count"].strip())
                plat = float(row["pickup lat"].strip())
                plon = float(row["pickup log"].strip())
                dlat = float(row["dropoff lat"].strip())
                dlon = float(row["dropoff log"].strip())
                if party < 1:
                    raise ValueError("party below 1")
            except (ValueError, TypeError, AttributeError):
                reason = demand.REJECT_UNPARSEABLE
            else:
                lon_min, lat_min, lon_max, lat_max = bbox
                if demand._coords_invalid(plat, plon) or demand._coords_invalid(dlat, dlon):
                    reason = demand.REJECT_BAD_COORDINATES
                elif not (lon_min <= plon <= lon_max and lat_min <= plat <= lat_max and
                          lon_min <= dlon <= lon_max and lat_min <= dlat <= lat_max):
                    reason = demand.REJECT_OUT_OF_BOUNDS
                elif dropoff_dt <= pickup_dt:
                    reason = demand.REJECT_NON_POSITIVE_DURATION
                elif party > capacity:
                    reason = demand.REJECT_OVERSIZE_PARTY
                else:
                    kept.append((pickup_dt, GeoPoint(plat, plon), GeoPoint(dlat, dlon), party))
                    continue
            report.rejections[reason] += 1
    report.rows_kept = len(kept)
    if not kept:
        return [], report
    epoch = report.epoch = min(item[0] for item in kept)
    order = sorted(range(len(kept)), key=lambda i: ((kept[i][0] - epoch).total_seconds(), i))
    rng = random.Random(rng_seed)
    requests = []
    for idx in order:
        pickup_dt, pickup, dropoff, party = kept[idx]
        patience = rng.uniform(demand.PATIENCE_MIN_S, demand.PATIENCE_MAX_S)
        requests.append(TripRequest(idx, (pickup_dt - epoch).total_seconds(), pickup, dropoff,
                                    party, patience))
    return requests, report


def out_edges(net: RoadNetwork) -> dict[int, list[tuple[int, float, float]]]:
    """(to, length, speed) of each node's out-edges, sorted, read from
    net.edges() rather than from the router's own tables."""
    adj: dict[int, list[tuple[int, float, float]]] = {n: [] for n in net.nodes}
    for u, v, length, speed in net.edges():
        adj[u].append((v, length, speed))
    return adj


def dijkstra_times(net: RoadNetwork, src: int, mult: float = 1.0) -> dict[int, float]:
    """Plain forward Dijkstra; hop cost expression matches the router's."""
    adj = out_edges(net)
    dist = {src: 0.0}
    done = set()
    heap = [(0.0, src)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for nxt, length, speed in adj[node]:
            nd = d + length / (speed * mult)
            if nd < dist.get(nxt, math.inf):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return dist


def reference_route_astar(net: RoadNetwork, src: int, dst: int, at_s: float,
                          traffic: TrafficState | None = None) -> Route | None:
    """A* whose bound calls geo.haversine_m for every node pushed: the oracle
    route_astar, which computes the same bound inline, must match path for
    path and bit for bit."""
    if src == dst:
        return Route((src,), (0.0,))
    traffic = traffic or TrafficState([])
    mult = traffic.multiplier_at(at_s)
    denom = net.speed_limit_mps * traffic.max_multiplier()
    dst_pt = net.nodes[dst]
    adj = out_edges(net)

    def h(n: int) -> float:
        return MIN_LENGTH_FACTOR * haversine_m(net.nodes[n], dst_pt) / denom

    best_g: dict[int, float] = {src: 0.0}
    parent: dict[int, tuple[int, float]] = {}
    heap: list[tuple[float, int, float]] = [(h(src), src, 0.0)]
    while heap:
        f, node, g = heapq.heappop(heap)
        if g > best_g.get(node, math.inf):
            continue
        if node == dst:
            break
        for (nxt, length, speed) in adj[node]:
            hop = length / (speed * mult)
            ng = g + hop
            if ng < best_g.get(nxt, math.inf):
                best_g[nxt] = ng
                parent[nxt] = (node, hop)
                heapq.heappush(heap, (ng + h(nxt), nxt, ng))
    if dst not in parent:
        return None
    path = [dst]
    hops: list[float] = []
    while path[-1] != src:
        prev, hop = parent[path[-1]]
        path.append(prev)
        hops.append(hop)
    return hop_route(tuple(reversed(path)), tuple(reversed(hops)))


def travel_time_s(net: RoadNetwork, src: int, dst: int, at_s: float,
                  traffic: TrafficState | None = None) -> float | None:
    """Point-to-point time by A*, one search per query."""
    route = route_astar(net, src, dst, at_s, traffic)
    return None if route is None else route.total_time_s


def hop_route(nodes: tuple[int, ...], hop_times_s: tuple[float, ...]) -> Route:
    """A Route over nodes whose hops take hop_times_s, summed in travel order."""
    arrive = [0.0]
    for ht in hop_times_s:
        arrive.append(arrive[-1] + ht)
    return Route(tuple(nodes), tuple(arrive))


def walk_node_at_elapsed(nodes: tuple[int, ...], hop_times_s: tuple[float, ...],
                         dt_s: float) -> int:
    """Last node passed after dt_s seconds, by walking the hops and summing
    their times; the oracle for Route.node_at_elapsed."""
    if dt_s < 0:
        return nodes[0]
    acc = 0.0
    last = nodes[0]
    for i, ht in enumerate(hop_times_s):
        acc += ht
        if acc > dt_s:
            break
        last = nodes[i + 1]
    return last


def free_after(v: Vehicle, now_s: float) -> tuple[int, float]:
    """Node and time a candidate (Idle, or OnTrip with nothing queued) is
    next free, read from its plan: where it stands now, else the current
    trip's dropoff node and time."""
    if v.plan is None:
        return v.node, now_s
    return v.plan.route_of_trip.nodes[-1], v.plan.dropoff_time_s


def estimate_eta(vehicle: Vehicle, pickup_node: int, net: RoadNetwork,
                 traffic: TrafficState | None, now_s: float) -> float | None:
    """Seconds until the vehicle could reach pickup_node, one route per vehicle.

    Idle: route from where it stands. OnTrip: remaining trip time plus a
    route from the trip's dropoff node, both under the traffic in force now.
    Returns None when no route exists. The exhaustive reference the
    dispatcher's single-scan ranking is checked against.
    """
    if vehicle.status is VehicleStatus.IDLE:
        return travel_time_s(net, vehicle.node, pickup_node, now_s, traffic)
    if vehicle.status is VehicleStatus.ON_TRIP:
        if vehicle.queued is not None:
            raise ValueError(f"vehicle {vehicle.id} already queued a job")
        node, free_s = free_after(vehicle, now_s)
        leg = travel_time_s(net, node, pickup_node, now_s, traffic)
        if leg is None:
            return None
        return (free_s - now_s) + leg
    raise ValueError(f"vehicle {vehicle.id} is {vehicle.status.value}; not in any candidate pool")


def winding_inside(poly: Polygon, p: GeoPoint) -> bool:
    """Angle-sum winding test; independent of the crossing-count code."""
    total = 0.0
    verts = poly.vertices
    for i in range(len(verts)):
        a = verts[i]
        b = verts[(i + 1) % len(verts)]
        ang_a = math.atan2(a.lat - p.lat, a.lon - p.lon)
        ang_b = math.atan2(b.lat - p.lat, b.lon - p.lon)
        d = ang_b - ang_a
        while d > math.pi:
            d -= 2.0 * math.pi
        while d < -math.pi:
            d += 2.0 * math.pi
        total += d
    return abs(total) > math.pi


def brute_nearest(points: dict[int, GeoPoint], p: GeoPoint,
                  max_radius_m: float) -> int | None:
    best = None
    best_d = math.inf
    for nid in sorted(points):
        d = haversine_m(points[nid], p)
        if d < best_d:
            best = nid
            best_d = d
    return best if best_d <= max_radius_m else None


def random_network(rng: random.Random, n_nodes: int, extra_edges: int = 0,
                   dyadic: bool = True) -> RoadNetwork:
    """Random strongly connected digraph.

    Nodes sit on a jittered grid; a random spanning tree (both directions)
    guarantees connectivity, then extra one-way edges add shortcuts and
    asymmetry. Dyadic networks have lengths that are multiples of 10 m and
    speeds from DYADIC_SPEEDS, so every path time is exactly representable;
    other networks have irregular lengths and speeds, whose path times
    depend on the order hop times are summed in. Lengths are never below
    the great-circle distance, so every edge passes the loader's sanity bound.
    """
    side = max(2, math.isqrt(n_nodes) + 1)
    cell_deg = 300.0 / METERS_PER_DEG_LAT
    nodes = {}
    for nid in range(n_nodes):
        r, c = divmod(nid, side)
        nodes[nid] = GeoPoint((r + rng.uniform(-0.3, 0.3)) * cell_deg,
                              (c + rng.uniform(-0.3, 0.3)) * cell_deg)

    def mk_edge(u: int, v: int) -> tuple[int, int, float, float]:
        crow = haversine_m(nodes[u], nodes[v])
        if not dyadic:
            return (u, v, crow * rng.uniform(1.0, 1.6) + rng.uniform(1.0, 30.0),
                    rng.uniform(2.0, 12.0))
        length = max(10.0, math.ceil(crow / 10.0) * 10.0)
        return (u, v, length, rng.choice(DYADIC_SPEEDS))

    edges = []
    order = list(range(n_nodes))
    rng.shuffle(order)
    for i in range(1, n_nodes):
        u = order[i]
        v = order[rng.randrange(i)]
        edges.append(mk_edge(u, v))
        edges.append(mk_edge(v, u))
    for _ in range(extra_edges):
        u = rng.randrange(n_nodes)
        v = rng.randrange(n_nodes)
        if u != v:
            edges.append(mk_edge(u, v))
    return RoadNetwork(nodes, edges, speed_limit_mps=10.0)


def full_scan_best(candidates: list[Vehicle], pickup_node: int, net: RoadNetwork,
                   traffic: TrafficState | None, now_s: float) -> tuple[Vehicle | None, float]:
    """Lowest-ETA candidate by a full scan: every candidate's leg from one
    eta_table, then an id-ordered strict-`<` pick (ties keep the lowest id).

    The ranking the dispatcher's winner-bounded search must reproduce;
    returns (None, inf) when no candidate can reach the pickup.
    """
    free = {v.id: free_after(v, now_s) for v in candidates}
    legs = eta_table(net, pickup_node, now_s, traffic)
    best, best_eta = None, math.inf
    for v in sorted(candidates, key=lambda v: v.id):
        node, free_s = free[v.id]
        leg = legs.get(node)
        if leg is None:
            continue
        eta = (free_s - now_s) + leg
        if eta < best_eta:
            best, best_eta = v, eta
    return best, best_eta


def reference_oss_reschedule(jobs: list[tuple[TripRequest, Vehicle]], fleet: Fleet,
                             net: RoadNetwork, traffic: TrafficState | None, now_s: float,
                             cfg: DispatchConfig) -> list[RescheduleAction]:
    """dispatch.oss_reschedule with an uncapped ranking: each job ranks every
    candidate by a full scan (full_scan_best), however far the winner lies
    from the incumbent."""
    actions: list[RescheduleAction] = []
    for request, v in jobs:
        rid = request.id
        old_plan = waiting_job(v, rid)
        pickup_node, dropoff_node = old_plan.trip.src, old_plan.trip.dst
        origin, depart = job_start(v, now_s)
        leg = route_astar(net, origin, pickup_node, now_s, traffic)
        incumbent_eta = None if leg is None else (depart - now_s) + leg.total_time_s

        others = candidate_pool(fleet, Strategy.OSS, request.party_size)
        best, best_eta = full_scan_best(others, pickup_node, net, traffic, now_s)

        improves = best is not None and (
            incumbent_eta is None or incumbent_eta - best_eta > cfg.oss_reassign_threshold_s)
        if not improves and leg is None:
            continue
        trip = RouteQuery(net, pickup_node, dropoff_node, now_s, traffic)
        if trip.route is None:
            continue
        if improves:
            release(v, rid, now_s)
            new_leg = route_astar(net, job_start(best, now_s)[0], pickup_node, now_s, traffic)
            plan = assign(best, request, new_leg, trip, now_s)
            actions.append(RescheduleAction(rid, best.id, plan.pickup_time_s, True))
            continue
        plan = replan(v, rid, leg, trip, now_s)
        if plan.pickup_time_s != old_plan.pickup_time_s:
            actions.append(RescheduleAction(rid, v.id, plan.pickup_time_s, False))
    return actions


def sign_test_p(wins: int, trials: int) -> float:
    """One-sided binomial tail P[X >= wins] under a fair coin."""
    if trials == 0:
        return 1.0
    total = sum(math.comb(trials, k) for k in range(wins, trials + 1))
    return total / (2 ** trials)


@dataclass
class ReplayReport:
    ok: bool
    diffs: list[str]


def replay_check(expected_log: list[str], actual_log: list[str],
                 max_diffs: int = 10) -> ReplayReport:
    """Compare two event logs line by line.

    Logs that declare different configurations (their header lines differ)
    are not comparable and raise instead of reporting a diff.
    """
    exp_head = expected_log[0] if expected_log and expected_log[0].startswith("#") else None
    act_head = actual_log[0] if actual_log and actual_log[0].startswith("#") else None
    if exp_head is not None and act_head is not None and exp_head != act_head:
        raise ValueError(f"logs are not comparable: {exp_head!r} vs {act_head!r}")
    diffs = []
    for i in range(max(len(expected_log), len(actual_log))):
        a = expected_log[i] if i < len(expected_log) else "<missing>"
        b = actual_log[i] if i < len(actual_log) else "<missing>"
        if a != b:
            diffs.append(f"line {i + 1}: {a!r} != {b!r}")
            if len(diffs) >= max_diffs:
                break
    return ReplayReport(not diffs, diffs)
