"""Geodesic primitives: points, polygons, point-in-polygon, nearest-node lookup.

All distances are great-circle meters on a sphere of radius 6,371,000 m.
Polygon containment treats the boundary as inside.
"""

import math
from collections.abc import Iterable
from dataclasses import dataclass
from operator import itemgetter

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
    """k-d tree (Bentley, CACM 1975) over the nodes' unit vectors
    (unit_vector). Each split is at the median, on the two axes along which
    the nodes spread most, in turn, down to leaves of at most LEAF nodes;
    a city spreads along only two of the three.

    nearest() returns exactly what a linear scan over all nodes would, ties
    to the lowest node id. The unit sphere has no seam, so the antimeridian
    and the poles need no case of their own.
    """

    LEAF = 4

    def __init__(self, locations: dict[int, GeoPoint]):
        nodes = [candidate(nid, locations[nid]) for nid in sorted(locations)]
        self._root: tuple | list[Candidate] | None = None
        if nodes:
            spread = [max(axis) - min(axis) for axis in list(zip(*nodes))[2:]]
            axes = sorted(range(3), key=lambda a: -spread[a])[:2]
            self._root = self._build(nodes, axes, 0)

    def _build(self, nodes: list[Candidate], axes: list[int], depth: int):
        """A leaf, the list of at most LEAF nodes, or a split (axis, value,
        low, high): value is a stored component on that axis of a node of
        high, every node of low has at most that component, and every node
        of high at least."""
        if len(nodes) <= self.LEAF:
            return nodes
        axis = axes[depth % 2]
        nodes.sort(key=itemgetter(2 + axis))
        m = len(nodes) // 2
        return (axis, nodes[m][2 + axis], self._build(nodes[:m], axes, depth + 1),
                self._build(nodes[m:], axes, depth + 1))

    def nearest(self, p: GeoPoint, max_radius_m: float) -> int | None:
        if self._root is None or max_radius_m <= 0:
            return None
        # Walk the near side of each split first, down to the leaf that
        # holds p, and run closest() over each leaf reached. A far side is
        # skipped once its squared gap to the split plane exceeds the
        # squared chord that closest() admits (reach). That needs no slack
        # of its own: the split value is a stored component, and rounding is
        # monotone, so for each far node the gap rounds to at most its own
        # difference from u on that axis, and closest() would skip it.
        u = unit_vector(p)
        best_d, best_id = math.inf, None
        reach = _chord_squared(max_radius_m)
        stack = [(0.0, self._root)]
        while stack:
            gap, node = stack.pop()
            if gap > reach:
                continue
            while type(node) is tuple:
                axis, value, low, high = node
                d = u[axis] - value
                if d < 0.0:
                    stack.append((d * d, high))
                    node = low
                else:
                    stack.append((d * d, low))
                    node = high
            best_d, best_id = closest(p, u, node, best_d, best_id, max_radius_m)
            reach = _chord_squared(min(best_d, max_radius_m))
        return best_id if best_d <= max_radius_m else None
