"""Dispatch zones: GeoJSON loading, containment lookup, adjacency schedule.

Zone adjacency starts from geometry (boundaries that touch within 1 m or
overlap) and can grow at runtime when the dispatcher discovers a useful link.
Neither the zone map nor the schedule counts anything a run does.
"""

import json
import logging
import math
from dataclasses import dataclass

from .geo import (_BOUNDARY_EPS_DEG, METERS_PER_DEG_LAT, GeoPoint, Polygon,
                  _segments_properly_intersect, candidate, closest, point_in_polygon,
                  unit_vector)
from .geo import haversine_m  # noqa: F401  (benches/run_bench.py counts calls through it)

log = logging.getLogger(__name__)

ADJACENCY_TOUCH_TOLERANCE_M = 1.0


class ZoneLoadError(ValueError):
    pass


@dataclass(frozen=True)
class Zone:
    id: int
    boundary: Polygon


class AdjacencySchedule:
    """Symmetric, irreflexive neighbor sets."""

    def __init__(self, zone_ids: list[int]):
        self._nbrs: dict[int, set[int]] = {z: set() for z in zone_ids}

    def zone_ids(self) -> list[int]:
        return sorted(self._nbrs)

    def neighbors(self, zone_id: int) -> list[int]:
        if zone_id not in self._nbrs:
            raise KeyError(f"unknown zone {zone_id}")
        return sorted(self._nbrs[zone_id])

    def add_neighbor(self, a: int, b: int) -> None:
        if a not in self._nbrs or b not in self._nbrs:
            raise KeyError(f"unknown zone in pair ({a}, {b})")
        if a == b:
            raise ValueError(f"zone {a} cannot neighbor itself")
        self._nbrs[a].add(b)
        self._nbrs[b].add(a)

    def expand_frontier(self, visited: set[int]) -> set[int]:
        """One breadth-first ring: visited plus every neighbor of visited."""
        out = set(visited)
        for z in visited:
            out.update(self._nbrs.get(z, ()))
        return out

    def pairs(self) -> list[tuple[int, int]]:
        out = []
        for a in sorted(self._nbrs):
            for b in sorted(self._nbrs[a]):
                if a < b:
                    out.append((a, b))
        return out

    def export_text(self) -> str:
        lines = [f"{a} {b}" for a, b in self.pairs()]
        return "\n".join(lines) + ("\n" if lines else "")


def _point_segment_dist_m(p: GeoPoint, a: GeoPoint, b: GeoPoint) -> float:
    # Local equirectangular projection around p; exact enough at 1 m scale.
    cos_lat = max(0.01, math.cos(math.radians(p.lat)))
    m_per_deg_lon = METERS_PER_DEG_LAT * cos_lat

    def xy(q: GeoPoint):
        return ((q.lon - p.lon) * m_per_deg_lon, (q.lat - p.lat) * METERS_PER_DEG_LAT)

    ax, ay = xy(a)
    bx, by = xy(b)
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    if seg2 == 0.0:
        return math.hypot(ax, ay)
    t = max(0.0, min(1.0, (-(ax) * dx - ay * dy) / seg2))
    cx, cy = ax + t * dx, ay + t * dy
    return math.hypot(cx, cy)


def _zones_touch(a: Polygon, b: Polygon) -> bool:
    pad = 2.0 * ADJACENCY_TOUCH_TOLERANCE_M / (METERS_PER_DEG_LAT * 0.01)
    if a.bbox[0] > b.bbox[2] + pad or b.bbox[0] > a.bbox[2] + pad or \
       a.bbox[1] > b.bbox[3] + pad or b.bbox[1] > a.bbox[3] + pad:
        return False
    # vertex of one within tolerance of the other's boundary
    for poly1, poly2 in ((a, b), (b, a)):
        n2 = len(poly2.vertices)
        for v in poly1.vertices:
            for i in range(n2):
                if _point_segment_dist_m(v, poly2.vertices[i],
                                         poly2.vertices[(i + 1) % n2]) <= ADJACENCY_TOUCH_TOLERANCE_M:
                    return True
    # proper edge crossing
    n1, n2 = len(a.vertices), len(b.vertices)
    for i in range(n1):
        p1, p2 = a._pts[i], a._pts[(i + 1) % n1]
        for j in range(n2):
            q1, q2 = b._pts[j], b._pts[(j + 1) % n2]
            if _segments_properly_intersect(p1, p2, q1, q2):
                return True
    # full containment (no boundary contact at all)
    if point_in_polygon(a.vertices[0], b) or point_in_polygon(b.vertices[0], a):
        return True
    return False


class ZoneMap:
    """Zone collection with containment lookup and a nearest-zone fallback.

    locate() returns the lowest-id zone containing the point, or None.
    locate_or_nearest() falls back to the zone with the nearest vertex-mean
    centroid.
    """

    def __init__(self, zones: list[Zone]):
        ids = [z.id for z in zones]
        if len(set(ids)) != len(ids):
            raise ZoneLoadError("duplicate zone ids")
        self.zones = sorted(zones, key=lambda z: z.id)
        # Each zone's box, widened as point_in_polygon widens it, with the
        # zone; and each centroid, in id order, for closest().
        eps = _BOUNDARY_EPS_DEG
        self._boxes = []
        for z in self.zones:
            lon_lo, lat_lo, lon_hi, lat_hi = z.boundary.bbox
            self._boxes.append((lon_lo - eps, lat_lo - eps, lon_hi + eps, lat_hi + eps, z))
        self._centroids = [candidate(z.id, z.boundary.centroid()) for z in self.zones]

    def __len__(self):
        return len(self.zones)

    def bbox(self) -> tuple[float, float, float, float]:
        """(lon_min, lat_min, lon_max, lat_max) of the box covering every zone."""
        boxes = [z.boundary.bbox for z in self.zones]
        return (min(b[0] for b in boxes), min(b[1] for b in boxes),
                max(b[2] for b in boxes), max(b[3] for b in boxes))

    def locate(self, p: GeoPoint) -> int | None:
        x, y = p.lon, p.lat
        for x_lo, y_lo, x_hi, y_hi, z in self._boxes:  # ascending id, so overlaps resolve low
            if x_lo <= x <= x_hi and y_lo <= y <= y_hi and point_in_polygon(p, z.boundary):
                return z.id
        return None

    def locate_or_nearest(self, p: GeoPoint) -> tuple[int, bool]:
        """The containing zone, else the one whose centroid is nearest, ties
        to the lowest id; and whether the point lies outside every zone."""
        z = self.locate(p)
        if z is None:
            _, nearest = closest(p, unit_vector(p), self._centroids, math.inf, None, math.inf)
            return nearest, True
        return z, False


def initial_adjacency(zone_map: ZoneMap) -> AdjacencySchedule:
    """Geometric adjacency: boundaries within 1 m of touching, or overlapping."""
    sched = AdjacencySchedule([z.id for z in zone_map.zones])
    zs = zone_map.zones
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            if _zones_touch(zs[i].boundary, zs[j].boundary):
                sched.add_neighbor(zs[i].id, zs[j].id)
    return sched


def load_zones(path: str) -> tuple[ZoneMap, AdjacencySchedule]:
    """Load a GeoJSON FeatureCollection of Polygon features, each of one
    ring; an altitude in a position is ignored.

    Zone ids follow feature order; a feature's `properties`, which must be
    an object, are otherwise ignored.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ZoneLoadError(f"{path}: {exc}") from exc
    kind = doc.get("type") if isinstance(doc, dict) else type(doc).__name__
    if kind != "FeatureCollection":
        raise ZoneLoadError(f"{path}: expected FeatureCollection, got {kind!r}")
    feats = doc.get("features")
    if not isinstance(feats, list) or not feats:
        raise ZoneLoadError(f"{path}: no features")
    zones: list[Zone] = []
    for i, feat in enumerate(feats):
        if not isinstance(feat, dict):
            raise ZoneLoadError(f"{path}: feature {i}: expected a JSON object")
        if not isinstance(feat.get("properties") or {}, dict):
            raise ZoneLoadError(f"{path}: feature {i}: properties must be a JSON object")
        geom = feat.get("geometry") or {}
        if not isinstance(geom, dict) or geom.get("type") != "Polygon":
            raise ZoneLoadError(f"{path}: feature {i}: only Polygon geometry is supported")
        rings = geom.get("coordinates")
        if not isinstance(rings, list) or not rings or not isinstance(rings[0], list) \
                or not rings[0]:
            raise ZoneLoadError(f"{path}: feature {i}: empty polygon")
        if len(rings) > 1:
            raise ZoneLoadError(f"{path}: feature {i}: interior rings are not supported")
        ring = rings[0]
        # GeoJSON rings repeat the first position at the end; drop it.
        if len(ring) >= 2 and ring[0] == ring[-1]:
            ring = ring[:-1]
        for j, pos in enumerate(ring):
            # [lon, lat], or [lon, lat, altitude] (RFC 7946 3.1.1)
            if not isinstance(pos, list) or len(pos) not in (2, 3) or not all(
                    type(c) in (int, float) for c in pos):
                raise ZoneLoadError(f"{path}: feature {i}: position {j}: "
                                    "expected 2 or 3 numbers, [lon, lat] or [lon, lat, alt]")
        try:
            verts = [GeoPoint(pos[1], pos[0]) for pos in ring]
            poly = Polygon(verts)
        except (TypeError, ValueError) as exc:
            raise ZoneLoadError(f"{path}: feature {i}: {exc}") from exc
        zones.append(Zone(i, poly))
    zmap = ZoneMap(zones)
    log.info("loaded %d zones from %s", len(zones), path)
    return zmap, initial_adjacency(zmap)
