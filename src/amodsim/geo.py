"""Geodesic primitives: points, polygons, point-in-polygon, nearest-node lookup.

All distances are great-circle meters on a sphere of radius 6,371,000 m.
Polygon containment treats the boundary as inside.
"""

import math
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
    # Polygon rejects repeated consecutive vertices, so the length is not 0.
    seg_len = math.hypot(x2 - x1, y2 - y1)
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
    """Uniform grid over the nodes' unit vectors (cos φ cos λ, cos φ sin λ,
    sin φ), cell edge CELL_M / EARTH_RADIUS_M.

    nearest() returns exactly what a linear scan over all nodes would, ties
    to the lowest node id. The unit sphere has no seam, so the antimeridian
    and the poles need no case of their own.
    """

    CELL_M = 250.0

    def __init__(self, locations: dict[int, GeoPoint]):
        self._cells: dict[tuple[int, int, int], list[tuple[int, GeoPoint]]] = {}
        for nid in sorted(locations):
            p = locations[nid]
            self._cells.setdefault(self._cell(p), []).append((nid, p))
        # The box of the occupied cells, (lowest, highest) on each axis.
        self._box = [(min(axis), max(axis)) for axis in zip(*self._cells)]

    def _cell(self, p: GeoPoint) -> tuple[int, int, int]:
        phi, lam = math.radians(p.lat), math.radians(p.lon)
        s = EARTH_RADIUS_M / self.CELL_M
        return (math.floor(math.cos(phi) * math.cos(lam) * s),
                math.floor(math.cos(phi) * math.sin(lam) * s),
                math.floor(math.sin(phi) * s))

    def nearest(self, p: GeoPoint, max_radius_m: float) -> int | None:
        if not self._cells or max_radius_m <= 0:
            return None
        # Scan cubic shells outward from p's cell. A node k shells away lies
        # over k - 1 cell edges from p along one axis, so its chord exceeds
        # (k - 1) * CELL_M / R, and a great-circle distance is at least R
        # times the chord. The scan stops once that bound, shrunk by a hair
        # for rounding, exceeds the best distance or the radius; it goes on
        # at equality, so ties still reach the lowest id. Once the shells
        # have looked up more cells than are occupied, one pass over every
        # cell is cheaper and ends the scan. Shells nearer than the box of
        # the occupied cells hold none, so the scan starts at the first that
        # reaches it, counting the cells before it as looked up.
        cells = self._cells
        origin = self._cell(p)
        best_d = math.inf
        best_id = None
        (x, y, z), ((x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi)) = origin, self._box
        k = max(x_lo - x, x - x_hi, y_lo - y, y - y_hi, z_lo - z, z - z_hi, 0)
        looked = (2 * k - 1) ** 3 if k else 0
        while (k - 1) * self.CELL_M * (1.0 - 1e-9) <= min(best_d, max_radius_m):
            shell = cells if looked > len(cells) else _shell(origin, k)
            for key in shell:
                for nid, q in cells.get(key, ()):
                    d = haversine_m(p, q)
                    if d < best_d or (d == best_d and nid < best_id):
                        best_d = d
                        best_id = nid
            if shell is cells:
                break
            looked += len(shell)
            k += 1
        return best_id if best_d <= max_radius_m else None


def _shell(cell: tuple[int, int, int], k: int) -> list[tuple[int, int, int]]:
    """Cells at Chebyshev distance k from `cell`."""
    x, y, z = cell
    if k == 0:
        return [cell]
    full = range(-k, k + 1)
    inner = range(-k + 1, k)
    return ([(x + a, y + b, z + c) for a in (-k, k) for b in full for c in full]
            + [(x + a, y + b, z + c) for a in inner for b in (-k, k) for c in full]
            + [(x + a, y + b, z + c) for a in inner for b in inner for c in (-k, k)])
