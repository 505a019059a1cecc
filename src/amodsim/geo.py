"""Geodesic primitives: points, polygons, point-in-polygon, nearest-node lookup.

All distances are great-circle meters on a sphere of radius 6,371,000 m.
Polygon containment treats the boundary as inside.
"""

import math
from collections.abc import Iterator
from dataclasses import dataclass

EARTH_RADIUS_M = 6_371_000.0
METERS_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0  # 111194.9266...

# Collinearity tolerance for boundary tests, in degrees of perpendicular
# offset (~0.1 mm at the equator). Boundary membership is geometric, not
# exact-rational, so a hair of slack is required for points constructed
# through float arithmetic.
_BOUNDARY_EPS_DEG = 1e-9


@dataclass(frozen=True)
class GeoPoint:
    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"non-finite coordinate ({self.lat}, {self.lon})")
        if not (-90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude out of range: {self.lat}")
        if not (-180.0 <= self.lon <= 180.0):
            raise ValueError(f"longitude out of range: {self.lon}")


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters between two points."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def _on_segment(px, py, x1, y1, x2, y2) -> bool:
    # Perpendicular offset from the segment's line, scaled by segment length.
    cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
    seg_len = math.hypot(x2 - x1, y2 - y1)
    if seg_len == 0.0:
        return math.hypot(px - x1, py - y1) <= _BOUNDARY_EPS_DEG
    if abs(cross) / seg_len > _BOUNDARY_EPS_DEG:
        return False
    if min(x1, x2) - _BOUNDARY_EPS_DEG <= px <= max(x1, x2) + _BOUNDARY_EPS_DEG and \
       min(y1, y2) - _BOUNDARY_EPS_DEG <= py <= max(y1, y2) + _BOUNDARY_EPS_DEG:
        return True
    return False


def _segments_properly_intersect(p1, p2, p3, p4) -> bool:
    # Strict crossing test; shared endpoints do not count.
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if v > 0:
            return 1
        if v < 0:
            return -1
        return 0

    o1 = orient(p1, p2, p3)
    o2 = orient(p1, p2, p4)
    o3 = orient(p3, p4, p1)
    o4 = orient(p3, p4, p2)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


class Polygon:
    """Simple polygon given as an open exterior ring (first vertex not repeated).

    Vertices are validated at construction: at least three, no consecutive
    duplicates, no self-intersection between non-adjacent edges.
    """

    def __init__(self, vertices: list[GeoPoint]):
        if len(vertices) < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {len(vertices)}")
        if vertices[0] == vertices[-1]:
            raise ValueError("ring must be open: first vertex repeated as last")
        n = len(vertices)
        for i in range(n):
            if vertices[i] == vertices[(i + 1) % n]:
                raise ValueError(f"duplicate consecutive vertex at index {i}")
        pts = [(v.lon, v.lat) for v in vertices]
        for i in range(n):
            a1, a2 = pts[i], pts[(i + 1) % n]
            for j in range(i + 1, n):
                # skip edges sharing a vertex with edge i
                if j == i or (j + 1) % n == i or j == (i + 1) % n:
                    continue
                b1, b2 = pts[j], pts[(j + 1) % n]
                if _segments_properly_intersect(a1, a2, b1, b2):
                    raise ValueError(f"self-intersecting ring: edges {i} and {j} cross")
        self.vertices = list(vertices)
        self._pts = pts
        lons = [p[0] for p in pts]
        lats = [p[1] for p in pts]
        self.bbox = (min(lons), min(lats), max(lons), max(lats))

    def centroid(self) -> GeoPoint:
        """Arithmetic mean of the ring vertices. Used for coarse nearest-zone
        ranking, where a cheap stable center beats an exact area centroid."""
        n = len(self._pts)
        return GeoPoint(sum(p[1] for p in self._pts) / n, sum(p[0] for p in self._pts) / n)


def point_in_polygon(p: GeoPoint, poly: Polygon) -> bool:
    """Ray-casting containment in lon/lat plane coordinates. Points on the
    boundary count as inside."""
    x, y = p.lon, p.lat
    lon_min, lat_min, lon_max, lat_max = poly.bbox
    eps = _BOUNDARY_EPS_DEG
    if x < lon_min - eps or x > lon_max + eps or y < lat_min - eps or y > lat_max + eps:
        return False
    pts = poly._pts
    n = len(pts)
    inside = False
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
        if _on_segment(x, y, x1, y1, x2, y2):
            return True
        # Half-open vertex rule keeps each crossing counted exactly once.
        if (y1 > y) != (y2 > y):
            x_int = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_int:
                inside = not inside
    return inside


class NodeIndex:
    """Uniform lon/lat grid over a set of located nodes, cell edge ~500 m.

    nearest() returns exactly what a linear scan over all nodes would:
    the candidate cell window is padded conservatively and wraps at the
    antimeridian, so no node inside the search radius can be missed. Ties
    break to the lowest node id.
    """

    CELL_M = 500.0

    def __init__(self, locations: dict[int, GeoPoint]):
        self._loc = dict(locations)
        self._cells: dict[tuple[int, int], list[int]] = {}
        if not self._loc:
            self._lat0 = self._lon0 = 0.0
            self._dlat = self._dlon = 1.0
            return
        lats = [p.lat for p in self._loc.values()]
        lons = [p.lon for p in self._loc.values()]
        self._lat0 = min(lats)
        self._lon0 = min(lons)
        mid_lat = (min(lats) + max(lats)) / 2.0
        self._dlat = self.CELL_M / METERS_PER_DEG_LAT
        cos_mid = max(0.01, math.cos(math.radians(mid_lat)))
        self._dlon = self.CELL_M / (METERS_PER_DEG_LAT * cos_mid)
        for nid in sorted(self._loc):
            self._cells.setdefault(self._cell(self._loc[nid]), []).append(nid)
        rows = [c[0] for c in self._cells]
        cols = [c[1] for c in self._cells]
        self._row_range = (min(rows), max(rows))
        self._col_range = (min(cols), max(cols))

    def _cell(self, p: GeoPoint) -> tuple[int, int]:
        return (int(math.floor((p.lat - self._lat0) / self._dlat)),
                int(math.floor((p.lon - self._lon0) / self._dlon)))

    def nearest(self, p: GeoPoint, max_radius_m: float) -> int | None:
        if not self._loc or max_radius_m <= 0:
            return None
        # Conservative degree padding: any point within max_radius_m must
        # fall inside the padded window. Latitude: d >= R * dphi exactly.
        pad_lat = max_radius_m / METERS_PER_DEG_LAT
        # Longitude: d >= 2R asin(cos(phi_max) sin(dlam/2)), inverted; a
        # window that reaches a pole reaches every longitude.
        phi_max = abs(p.lat) + pad_lat
        s = 1.0 if phi_max >= 90.0 else \
            math.sin(max_radius_m / (2.0 * EARTH_RADIUS_M)) / math.cos(math.radians(phi_max))
        pad_lon = 180.0 if s >= 1.0 else math.degrees(2.0 * math.asin(s))
        ci_lo = max(self._row_range[0], int(math.floor((p.lat - pad_lat - self._lat0) / self._dlat)))
        ci_hi = min(self._row_range[1], int(math.floor((p.lat + pad_lat - self._lat0) / self._dlat)))
        # One column window around each copy of p's longitude, 360 degrees
        # apart, that reaches the nodes' longitudes: the padding can carry
        # the window across the antimeridian. Padding of 180 degrees takes
        # every column.
        qi = self._cell(p)[0]
        windows = []
        for lon in (p.lon, p.lon - 360.0, p.lon + 360.0):
            qj = int(math.floor((lon - self._lon0) / self._dlon))
            if pad_lon >= 180.0:
                windows.append((qj, *self._col_range))
                break
            cj_lo = max(self._col_range[0], int(math.floor((lon - pad_lon - self._lon0) / self._dlon)))
            cj_hi = min(self._col_range[1], int(math.floor((lon + pad_lon - self._lon0) / self._dlon)))
            if cj_lo <= cj_hi:
                windows.append((qj, cj_lo, cj_hi))
        if ci_lo > ci_hi or not windows:
            return None
        # Scan the windows ring by ring outward from p's cells. A node in
        # ring k of every window lies over k - 1 whole cells from p in
        # latitude or in longitude, which bounds its distance below: by the
        # latitude gap alone, or by the longitude bound above. That one
        # holds for every node within max_radius_m (so |lat| <= |p.lat| +
        # pad_lat) while pad_lon < 90, which keeps every window node within
        # 180 degrees of longitude of its copy of p; nodes beyond
        # max_radius_m cannot be the answer. The scan stops once the bound,
        # shrunk by a hair for rounding, exceeds the best distance; it goes
        # on at equality, so ties still reach the lowest id.
        cos_max = math.cos(math.radians(min(90.0, phi_max)))
        best_d = math.inf
        best_id = None
        rings = max(max(qi - ci_lo, ci_hi - qi, qj - cj_lo, cj_hi - qj)
                    for qj, cj_lo, cj_hi in windows)
        for k in range(rings + 1):
            if k > 1:
                lat_gap = (k - 1) * self.CELL_M
                lon_gap = 0.0 if pad_lon >= 90.0 else 2.0 * EARTH_RADIUS_M * math.asin(
                    cos_max * math.sin(math.radians((k - 1) * self._dlon) / 2.0))
                if min(lat_gap, lon_gap) * (1.0 - 1e-9) > best_d:
                    break
            for qj, cj_lo, cj_hi in windows:
                for ci, cj in self._ring(qi, qj, k, ci_lo, ci_hi, cj_lo, cj_hi):
                    for nid in self._cells.get((ci, cj), ()):
                        d = haversine_m(p, self._loc[nid])
                        if d < best_d or (d == best_d and nid < best_id):
                            best_d = d
                            best_id = nid
        if best_id is None or best_d > max_radius_m:
            return None
        return best_id

    @staticmethod
    def _ring(qi: int, qj: int, k: int, ci_lo: int, ci_hi: int,
              cj_lo: int, cj_hi: int) -> Iterator[tuple[int, int]]:
        """Cells at Chebyshev distance k from (qi, qj) inside the window."""
        cols = range(max(cj_lo, qj - k), min(cj_hi, qj + k) + 1)
        for ci in {qi - k, qi + k}:  # a set: ring 0 is one cell
            if ci_lo <= ci <= ci_hi:
                for cj in cols:
                    yield ci, cj
        for cj in {qj - k, qj + k}:
            if cj_lo <= cj <= cj_hi:
                for ci in range(max(ci_lo, qi - k + 1), min(ci_hi, qi + k - 1) + 1):
                    yield ci, cj
