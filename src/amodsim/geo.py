"""Geodesic primitives: points, polygons, point-in-polygon, nearest-node lookup.

All distances are great-circle meters on a sphere of radius 6,371,000 m.
Polygon containment treats the boundary as inside.
"""

import math
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain, product, repeat

EARTH_RADIUS_M = 6_371_000.0
METERS_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0  # 111194.9266...

# Collinearity tolerance for boundary tests, in degrees of perpendicular
# offset (~0.1 mm at the equator). Boundary membership is geometric, not
# exact-rational, so a hair of slack is required for points constructed
# through float arithmetic.
_BOUNDARY_EPS_DEG = 1e-9

# closest() skips a candidate whose chord to the query, over the unit
# sphere, exceeds (best + CHORD_SLACK_M) * (1 + CHORD_SLACK) / R, where best
# is the best distance so far. Between unit vectors u and v the great-circle
# distance is R times the angle 2 * asin(|u - v| / 2), never less than
# R * |u - v|. Each stored component is a product of at most two cosines or
# sines of rounded radians values, so it is within about 4 * 2**-53 of the
# exact one, and a chord computed from two such vectors within about 2e-15
# of the exact chord: R times that is 1.3e-8 m. haversine_m is off by about
# as much, plus a few 2**-53 of its size, which its asin multiplies at most
# a thousandfold short of 0.002 rad from the antipode, where the chord falls
# short of the arc by over 7e6 m. The slack exceeds each of these several
# hundredfold, so a skipped candidate's haversine_m exceeds the best: it can
# neither win nor tie.
CHORD_SLACK = 1e-9
CHORD_SLACK_M = 1e-5


@dataclass(frozen=True, slots=True)
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


# A point to rank by distance, as (id, point, and the point's unit_vector).
Candidate = tuple[int, GeoPoint, float, float, float]


def unit_vector(p: GeoPoint) -> tuple[float, float, float]:
    """(cos φ cos λ, cos φ sin λ, sin φ) of p's latitude φ and longitude λ."""
    phi, lam = math.radians(p.lat), math.radians(p.lon)
    c = math.cos(phi)
    return c * math.cos(lam), c * math.sin(lam), math.sin(phi)


def candidate(cid: int, p: GeoPoint) -> Candidate:
    return (cid, p, *unit_vector(p))


def closest(p: GeoPoint, u: tuple[float, float, float], entries: Iterable[Candidate],
            best_d: float, best_id: int | None, cap: float) -> tuple[float, int | None]:
    """The nearer to p of the best so far, (best_d, best_id), and the
    nearest of `entries` within `cap` meters, as (distance, id), ties to the
    lowest id; u is p's unit_vector. haversine_m decides, computed only for
    the entries whose chord to p is within min(best_d, cap) and the slack
    for rounding (CHORD_SLACK): no other can win, tie or lie within cap."""
    ux, uy, uz = u
    reach = _chord_squared(min(best_d, cap))
    for cid, q, x, y, z in entries:
        dx, dy, dz = x - ux, y - uy, z - uz
        if dx * dx + dy * dy + dz * dz > reach:
            continue
        d = haversine_m(p, q)
        if d < best_d or (d == best_d and cid < best_id):
            best_d, best_id = d, cid
            reach = _chord_squared(min(d, cap))
    return best_d, best_id


def _chord_squared(d: float) -> float:
    """The squared chord over the unit sphere beyond which a point lies
    farther than d meters, with the slack (CHORD_SLACK) for rounding."""
    chord = (d + CHORD_SLACK_M) * (1.0 + CHORD_SLACK) / EARTH_RADIUS_M
    return chord * chord


def _on_segment(px, py, x1, y1, x2, y2) -> bool:
    # Outside the segment's box widened by eps: p below both ends' x - eps
    # is below the smaller one's, and so on (rounding is monotone).
    eps = _BOUNDARY_EPS_DEG
    if (px < x1 - eps and px < x2 - eps) or (px > x1 + eps and px > x2 + eps) or \
       (py < y1 - eps and py < y2 - eps) or (py > y1 + eps and py > y2 + eps):
        return False
    # Perpendicular offset from the segment's line, scaled by segment length.
    cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
    # Polygon rejects repeated consecutive vertices, so the length is not 0.
    return abs(cross) / math.hypot(x2 - x1, y2 - y1) <= _BOUNDARY_EPS_DEG


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
    """Uniform grid over the nodes' unit vectors (unit_vector), cell edge
    CELL_M / EARTH_RADIUS_M, under a coarse occupancy level that lists the
    occupied cells of each block of BLOCK cells a side.

    nearest() returns exactly what a linear scan over all nodes would, ties
    to the lowest node id. The unit sphere has no seam, so the antimeridian
    and the poles need no case of their own.
    """

    CELL_M = 250.0
    BLOCK = 4

    def __init__(self, locations: dict[int, GeoPoint]):
        self._cells: dict[int, list[Candidate]] = {}  # by _cell_key
        # The occupied cells' keys by block, built by the first far-shell scan.
        self._blocks: dict[tuple[int, int, int], list[int]] | None = None
        s, floor, cells = EARTH_RADIUS_M / self.CELL_M, math.floor, self._cells
        for nid in sorted(locations):
            p = locations[nid]
            x, y, z = unit_vector(p)
            # _cell, then _cell_key, inline
            key = (floor(x * s) + 0x8000) << 32 | (floor(y * s) + 0x8000) << 16 \
                | (floor(z * s) + 0x8000)
            cells.setdefault(key, []).append((nid, p, x, y, z))
        # The box of the occupied cells, (lowest, highest) on each axis: the
        # cells of the least and greatest components, as floor and the
        # scaling are monotone.
        self._box = [(floor(min(axis) * s), floor(max(axis) * s))
                     for axis in list(zip(*chain.from_iterable(cells.values())))[2:]]

    def _cell(self, u: tuple[float, float, float]) -> tuple[int, int, int]:
        s = EARTH_RADIUS_M / self.CELL_M
        return math.floor(u[0] * s), math.floor(u[1] * s), math.floor(u[2] * s)

    def nearest(self, p: GeoPoint, max_radius_m: float) -> int | None:
        if not self._cells or max_radius_m <= 0:
            return None
        # Scan cubic shells outward from p's cell. A node k shells away lies
        # over k - 1 cell edges from p along one axis, so its chord exceeds
        # (k - 1) * CELL_M / R, and a great-circle distance is at least R
        # times the chord. The scan stops once that bound, shrunk by a hair
        # for rounding, exceeds the best distance or the radius; it goes on
        # at equality, so ties still reach the lowest id. Shells nearer than
        # the box of the occupied cells hold none, so the scan starts at the
        # first that reaches it. Within the scanned shells, closest()
        # computes haversine_m only for the nodes whose chord to p is within
        # the best distance so far plus the chord margin (CHORD_SLACK_M, and
        # CHORD_SLACK of it), which no rounding can close. Shells 0 and 1,
        # which every scan from inside the box reaches, are looked up cell
        # by cell; farther shells only where the coarse level lists an
        # occupied cell. So a miss looks up at most the 27 cells of shells 0
        # and 1 and the occupied cells of the shells the rule admits, and no
        # empty cell beyond shell 1.
        cells = self._cells
        edge = self.CELL_M * (1.0 - 1e-9)
        u = unit_vector(p)
        x, y, z = origin = self._cell(u)
        best_d, best_id = math.inf, None
        (x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi) = self._box
        k = max(x_lo - x, x - x_hi, y_lo - y, y - y_hi, z_lo - z, z - z_hi, 0)
        if k <= 1:
            key = _cell_key(x, y, z)
            found = chain.from_iterable(map(cells.get, [key + o for o in _NEAR_KEYS], repeat(())))
            best_d, best_id = closest(p, u, found, best_d, best_id, max_radius_m)
            k = 2
        if (k - 1) * edge <= min(best_d, max_radius_m):
            shells = self._far_shells(origin, k, min(best_d, max_radius_m) / edge + 2.0)
            for k in sorted(shells):
                if (k - 1) * edge > min(best_d, max_radius_m):
                    break
                found = chain.from_iterable(map(cells.get, shells[k]))
                best_d, best_id = closest(p, u, found, best_d, best_id, max_radius_m)
        return best_id if best_d <= max_radius_m else None

    def _far_shells(self, origin: tuple[int, int, int], k: int,
                    last: float) -> dict[int, list[int]]:
        """The keys of the occupied cells k or more shells away from origin,
        by shell, from the blocks that meet the box of the cells up to
        `last` shells away (every block, if that box meets more blocks than
        there are)."""
        blocks = self._blocks
        if blocks is None:
            blocks = self._blocks = {}
            for key in self._cells:
                cx, cy, cz = _cell_of(key)
                blocks.setdefault((cx // self.BLOCK, cy // self.BLOCK, cz // self.BLOCK),
                                  []).append(key)
        if (2.0 * last / self.BLOCK + 2.0) ** 3 < len(blocks):
            n = int(last)
            groups = filter(None, map(blocks.get, product(
                *[range((c - n) // self.BLOCK, (c + n) // self.BLOCK + 1) for c in origin])))
        else:
            groups = blocks.values()
        x, y, z = origin
        shells: dict[int, list[int]] = {}
        for group in groups:
            for key in group:
                cx, cy, cz = _cell_of(key)
                d = max(abs(cx - x), abs(cy - y), abs(cz - z))
                if d >= k:
                    shells.setdefault(d, []).append(key)
        return shells


# A cell (x, y, z) is keyed by one int that holds each coordinate, offset by
# 2**15, in 16 bits, so that a neighbour's key is the cell's key plus a
# constant. Coordinates lie within R / CELL_M (25,485) of 0, and neighbours
# one more.
def _cell_key(x: int, y: int, z: int) -> int:
    return (x + 0x8000) << 32 | (y + 0x8000) << 16 | (z + 0x8000)


def _cell_of(key: int) -> tuple[int, int, int]:
    return (key >> 32) - 0x8000, (key >> 16 & 0xFFFF) - 0x8000, (key & 0xFFFF) - 0x8000


# The key offsets of the 27 cells of shells 0 and 1, which NodeIndex.nearest
# looks up cell by cell: p's own cell first, then those that share a face
# with it, an edge, and a corner, the likelier to hold the nearest node
# first.
_NEAR_KEYS = [(a << 32) + (b << 16) + c for a, b, c in
              sorted(product((-1, 0, 1), repeat=3), key=lambda o: sum(map(abs, o)))]
