"""Seeded input generators for the benchmark workloads.

Each workload turns a benchmark seed into a directory of plain input files
(road network, zones, optional trip CSV, run config). The simulator sees only
those files; nothing here imports it, so a change to the program cannot
change its inputs. The same seed always writes the same bytes.

Three workloads:

- sparse-sss: light load on a dyadic 40x40 grid. Dispatch cost is the ETA
  scan, and OSS never runs.
- rush-oss: overload on the same grid with a traffic schedule and a seeded
  walk, so OSS rescheduling and A* routing dominate.
- patchy-pair: one matched NSS pair (expansion on and off) on an irregular,
  non-dyadic network with one-way streets, zones separated by gaps and a
  dirty trip CSV.
"""

import json
import math
import os
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta

EARTH_RADIUS_M = 6_371_000.0
METERS_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0

GRID_SIDE = 40
GRID_EDGE_M = 400.0
GRID_SPEED_MPS = 10.0
GRID_SPEED_LIMIT_MPS = 11.176
GRID_ZONE_SIDE = 4

PATCHY_SIDE = 35
PATCHY_SPACING_M = 220.0
PATCHY_ORIGIN = (40.70, -73.99)
PATCHY_ZONE_SIDE = 5
PATCHY_EPOCH = "2013-01-07 08:00:00"

CSV_HEADER = ("medallion", "pickup time", "dropoff time", "passenger count",
              "pickup log", "pickup lat", "dropoff log", "dropoff lat")


@dataclass
class Workload:
    command: str  # "run" or "matrix"; matrix runs expansion on and off
    strategy: str
    fleet_size: int
    rate_per_hour: float | None = None  # generated demand
    duration_s: float | None = None
    traffic: dict = field(default_factory=dict)
    csv_rows: int = 0  # trip-file demand
    csv_span_s: float = 0.0


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    "sparse-sss": Workload(
        command="run", strategy="SSS", fleet_size=300,
        rate_per_hour=300.0, duration_s=2400.0),
    "rush-oss": Workload(
        command="run", strategy="OSS", fleet_size=200,
        rate_per_hour=2000.0, duration_s=1200.0,
        traffic={"schedule": [[0.0, 1.0], [600.0, 0.7], [1500.0, 0.85]],
                 "walk_step_s": 300.0, "walk_sigma": 0.1}),
    "patchy-pair": Workload(
        command="matrix", strategy="NSS", fleet_size=120,
        csv_rows=700, csv_span_s=3600.0),
}


def _rng(workload: str, seed: int, variant: int, stream: str) -> random.Random:
    # str seeds hash through SHA-512, so streams are stable across processes.
    return random.Random(f"{workload}/{seed}/{variant}/{stream}")


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def _ring(points: list[tuple[float, float]]) -> list[list[float]]:
    """GeoJSON ring from (lat, lon) points, closed."""
    ring = [[lon, lat] for lat, lon in points]
    return ring + [ring[0]]


def _feature_collection(rings: list[list[list[float]]]) -> dict:
    return {"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {"name": f"zone-{i}"},
         "geometry": {"type": "Polygon", "coordinates": [ring]}}
        for i, ring in enumerate(rings)]}


# -- grid city -----------------------------------------------------------


def grid_city() -> tuple[dict[int, tuple[float, float]], list[tuple], dict]:
    """Four-neighbour dyadic grid and its 4x4 tile zones.

    Every hop takes exactly 40 s, so path sums are exact binary fractions.
    """
    d = GRID_EDGE_M / METERS_PER_DEG_LAT
    n = GRID_SIDE
    nodes = {r * n + c: (r * d, c * d) for r in range(n) for c in range(n)}
    edges = []
    for r in range(n):
        for c in range(n):
            i = r * n + c
            for rr, cc in ((r + 1, c), (r, c + 1)):
                if rr < n and cc < n:
                    j = rr * n + cc
                    edges.append((i, j, GRID_EDGE_M, GRID_SPEED_MPS))
                    edges.append((j, i, GRID_EDGE_M, GRID_SPEED_MPS))
    cuts = [(-0.5 + n * k / GRID_ZONE_SIDE) * d for k in range(GRID_ZONE_SIDE + 1)]
    rings = []
    for zr in range(GRID_ZONE_SIDE):
        for zc in range(GRID_ZONE_SIDE):
            lo_lat, hi_lat = cuts[zr], cuts[zr + 1]
            lo_lon, hi_lon = cuts[zc], cuts[zc + 1]
            rings.append(_ring([(lo_lat, lo_lon), (lo_lat, hi_lon),
                                (hi_lat, hi_lon), (hi_lat, lo_lon)]))
    return nodes, edges, _feature_collection(rings)


# -- patchy city ---------------------------------------------------------


def patchy_city(seed: int, variant: int) -> tuple[dict[int, tuple[float, float]], list[tuple],
                                                  dict, tuple[float, float, float, float]]:
    """Jittered street grid at mid latitude with irregular lengths and speeds.

    Rows and columns alternate one-way directions; every fourth one and the
    perimeter are two-way, so the graph stays strongly connected. A few
    two-way diagonals break the grid's regularity. Zones are star-shaped
    polygons, each inside its own cell of a 5x5 layout and shrunk away from
    the cell edges, so no two zones touch.
    """
    rng = _rng("patchy-pair", seed, variant, "network")
    n = PATCHY_SIDE
    lat0, lon0 = PATCHY_ORIGIN
    dlat = PATCHY_SPACING_M / METERS_PER_DEG_LAT
    dlon = PATCHY_SPACING_M / (METERS_PER_DEG_LAT * math.cos(math.radians(lat0)))
    nodes = {}
    for r in range(n):
        for c in range(n):
            nodes[r * n + c] = (lat0 + (r + rng.uniform(-0.3, 0.3)) * dlat,
                                lon0 + (c + rng.uniform(-0.3, 0.3)) * dlon)

    def two_way(k: int) -> bool:
        return k % 4 == 0 or k == n - 1

    edges = []

    def link(u: int, v: int) -> None:
        crow = haversine_m(*nodes[u], *nodes[v])
        edges.append((u, v, crow * rng.uniform(1.02, 1.35), rng.uniform(7.0, 16.0)))

    for r in range(n):
        for c in range(n - 1):
            a, b = r * n + c, r * n + c + 1
            if two_way(r):
                link(a, b)
                link(b, a)
            elif r % 2:
                link(a, b)
            else:
                link(b, a)
    for c in range(n):
        for r in range(n - 1):
            a, b = r * n + c, (r + 1) * n + c
            if two_way(c):
                link(a, b)
                link(b, a)
            elif c % 2:
                link(a, b)
            else:
                link(b, a)
    for r in range(n - 1):
        for c in range(n - 1):
            if rng.random() < 0.05:
                a, b = r * n + c, (r + 1) * n + c + 1
                link(a, b)
                link(b, a)

    # Zones: one star-shaped polygon per cell of a coarse layout.
    lat_lo, lon_lo = lat0 - 0.5 * dlat, lon0 - 0.5 * dlon
    lat_hi, lon_hi = lat0 + (n - 0.5) * dlat, lon0 + (n - 0.5) * dlon
    zrng = _rng("patchy-pair", seed, variant, "zones")
    k = PATCHY_ZONE_SIDE
    cell_lat = (lat_hi - lat_lo) / k
    cell_lon = (lon_hi - lon_lo) / k
    rings = []
    for zr in range(k):
        for zc in range(k):
            clat = lat_lo + (zr + 0.5) * cell_lat
            clon = lon_lo + (zc + 0.5) * cell_lon
            m = zrng.randint(5, 9)
            pts = []
            for i in range(m):
                ang = 2.0 * math.pi * (i + zrng.uniform(-0.3, 0.3)) / m
                rad = zrng.uniform(0.75, 0.95)
                pts.append((clat + 0.5 * cell_lat * rad * math.sin(ang),
                            clon + 0.5 * cell_lon * rad * math.cos(ang)))
            rings.append(_ring(pts))
    return nodes, edges, _feature_collection(rings), (lat_lo, lon_lo, lat_hi, lon_hi)


def dirty_trips(seed: int, variant: int, rows: int, span_s: float,
                box: tuple[float, float, float, float]) -> tuple[list[list[str]], int]:
    """Trip-record rows over the city box, about one in twelve of them dirty.

    Returns the rows and how many of them the cleaner must keep. Pickups are
    uniform over the box, so some fall in the gaps between zones.
    """
    rng = _rng("patchy-pair", seed, variant, "trips")
    epoch = datetime.strptime(PATCHY_EPOCH, "%Y-%m-%d %H:%M:%S")
    lat_lo, lon_lo, lat_hi, lon_hi = box
    fmt = "%Y-%m-%d %H:%M:%S"
    out = []
    kept = 0
    for i in range(rows):
        t0 = epoch + timedelta(seconds=rng.randint(0, int(span_s)))
        t1 = t0 + timedelta(seconds=rng.randint(120, 1800))
        party = rng.choices((1, 2, 3, 4), weights=(70, 15, 10, 5))[0]
        plat, plon = rng.uniform(lat_lo, lat_hi), rng.uniform(lon_lo, lon_hi)
        dlat, dlon = rng.uniform(lat_lo, lat_hi), rng.uniform(lon_lo, lon_hi)
        row = [f"M{i % 97:04d}", t0.strftime(fmt), t1.strftime(fmt), str(party),
               f"{plon:.6f}", f"{plat:.6f}", f"{dlon:.6f}", f"{dlat:.6f}"]
        defect = rng.randrange(60)
        if defect == 0:
            row[1] = "2013-13-45 25:61:00"  # unparseable
        elif defect == 1:
            row[3] = "two"  # unparseable
        elif defect == 2:
            row[4], row[5] = "0.000000", "0.000000"  # null island
        elif defect == 3:
            row[7] = f"{dlat + 1.5:.6f}"  # out of bounds
        elif defect == 4:
            row[2] = row[1]  # zero duration
        else:
            kept += 1
        out.append(row)
    return out, kept


# -- writing -------------------------------------------------------------


@dataclass
class Inputs:
    """Paths and sizes of one generated input set."""
    dir: str
    config: str
    nodes: int
    edges: int
    zones: int
    vehicles: int
    csv_rows_read: int | None = None
    csv_rows_kept: int | None = None

    def sizes(self) -> dict:
        return {"nodes": self.nodes, "edges": self.edges, "zones": self.zones,
                "vehicles": self.vehicles, "csv_rows_read": self.csv_rows_read,
                "csv_rows_kept": self.csv_rows_kept}


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def generate(workload: str, seed: int, variant: int, out_dir: str) -> Inputs:
    """Write the input files of one workload, seed and input variant into
    out_dir. Variants are independent draws from the same seed."""
    wl = WORKLOADS[workload]
    os.makedirs(out_dir, exist_ok=True)
    csv_rows = kept = None
    if wl.command == "matrix":
        nodes, edges, zones, box = patchy_city(seed, variant)
        rows, kept = dirty_trips(seed, variant, wl.csv_rows, wl.csv_span_s, box)
        csv_rows = len(rows)
        lines = [",".join(CSV_HEADER)] + [",".join(r) for r in rows]
        _write(os.path.join(out_dir, "trips.csv"), "\n".join(lines) + "\n")
        demand = {"seed": _rng(workload, seed, variant, "demand").randrange(2**31),
                  "file": "trips.csv", "capacity": 4}
        speed_limit = 25.0
    else:
        nodes, edges, zones = grid_city()
        demand = {"seed": _rng(workload, seed, variant, "demand").randrange(2**31),
                  "generate": {"rate_per_hour": wl.rate_per_hour,
                               "duration_s": wl.duration_s}}
        speed_limit = GRID_SPEED_LIMIT_MPS
    _write(os.path.join(out_dir, "nodes.txt"),
           "# id lat lon\n" + "".join(f"{i} {lat!r} {lon!r}\n"
                                      for i, (lat, lon) in sorted(nodes.items())))
    _write(os.path.join(out_dir, "edges.txt"),
           "# from to length_m speed_mps\n" + "".join(f"{u} {v} {ln!r} {sp!r}\n"
                                                      for u, v, ln, sp in edges))
    _write(os.path.join(out_dir, "zones.geojson"), json.dumps(zones, sort_keys=True) + "\n")
    traffic = dict(wl.traffic)
    if traffic:
        traffic["walk_seed"] = _rng(workload, seed, variant, "walk").randrange(2**31)
    config = {
        "network": {"nodes": "nodes.txt", "edges": "edges.txt",
                    "speed_limit_mps": speed_limit},
        "zones": "zones.geojson",
        "demand": demand,
        "fleet": {"size": wl.fleet_size,
                  "seed": _rng(workload, seed, variant, "fleet").randrange(2**31)},
        "traffic": traffic,
        "dispatch": {"strategy": wl.strategy, "eat": True},
        # Relative, so the config hash in the event-log header does not
        # depend on where the checkout lives.
        "out": "out",
    }
    cfg_path = os.path.join(out_dir, "config.yaml")
    _write(cfg_path, json.dumps(config, indent=2, sort_keys=True) + "\n")
    return Inputs(out_dir, cfg_path, len(nodes), len(edges), len(zones["features"]),
                  wl.fleet_size, csv_rows, kept)
