"""Geodesic primitives: frozen distances, containment, nearest-node index."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amodsim import geo, zones
from amodsim.zones import Zone, ZoneMap
from amodsim.geo import (
    EARTH_RADIUS_M,
    METERS_PER_DEG_LAT,
    GeoPoint,
    NodeIndex,
    Polygon,
    haversine_m,
    point_in_polygon,
)
from scenario_tools import box_polygon, brute_nearest, grid_network, winding_inside

TIMES_SQUARE = GeoPoint(40.7580, -73.9855)
STATUE_OF_LIBERTY = GeoPoint(40.6892, -74.0445)

# Values computed once by hand from the sphere formula and frozen.
TS_TO_SOL_M = 9123.940211395844
HALF_CIRCUMFERENCE_M = 20015086.79602057


def test_meters_per_degree_latitude_constant():
    assert METERS_PER_DEG_LAT == 111194.92664455873
    assert METERS_PER_DEG_LAT == EARTH_RADIUS_M * math.pi / 180.0


def test_haversine_frozen_landmark_distance():
    assert haversine_m(TIMES_SQUARE, STATUE_OF_LIBERTY) == TS_TO_SOL_M


def test_haversine_basic_properties():
    assert haversine_m(TIMES_SQUARE, TIMES_SQUARE) == 0.0
    assert haversine_m(TIMES_SQUARE, STATUE_OF_LIBERTY) == \
        haversine_m(STATUE_OF_LIBERTY, TIMES_SQUARE)
    # antipodal pair caps at half the circumference
    a = GeoPoint(0.0, 0.0)
    b = GeoPoint(0.0, 180.0)
    assert haversine_m(a, b) == HALF_CIRCUMFERENCE_M


def test_haversine_one_degree_of_latitude():
    a = GeoPoint(10.0, 5.0)
    b = GeoPoint(11.0, 5.0)
    assert haversine_m(a, b) == pytest.approx(METERS_PER_DEG_LAT, rel=1e-12)


def test_geopoint_rejects_bad_coordinates():
    with pytest.raises(ValueError):
        GeoPoint(90.5, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, -180.5)
    with pytest.raises(ValueError):
        GeoPoint(math.nan, 0.0)


def test_polygon_validation():
    sq = box_polygon(0.0, 1.0, 0.0, 1.0)
    assert len(sq.vertices) == 4
    assert sq.bbox == (0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        Polygon([GeoPoint(0, 0), GeoPoint(0, 1)])
    with pytest.raises(ValueError):
        Polygon([GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(1, 1), GeoPoint(0, 0)])
    with pytest.raises(ValueError):
        Polygon([GeoPoint(0, 0), GeoPoint(0, 0), GeoPoint(1, 1)])
    with pytest.raises(ValueError):
        # bowtie
        Polygon([GeoPoint(0, 0), GeoPoint(1, 1), GeoPoint(1, 0), GeoPoint(0, 1)])


def test_polygon_centroid_is_vertex_mean():
    sq = box_polygon(0.0, 2.0, 0.0, 4.0)
    c = sq.centroid()
    assert c.lat == pytest.approx(1.0)
    assert c.lon == pytest.approx(2.0)


def test_point_in_polygon_boundary_counts_as_inside():
    sq = box_polygon(0.0, 1.0, 0.0, 1.0)
    assert point_in_polygon(GeoPoint(0.5, 0.5), sq)
    assert point_in_polygon(GeoPoint(0.0, 0.0), sq)          # vertex
    assert point_in_polygon(GeoPoint(0.0, 0.5), sq)          # edge midpoint
    assert point_in_polygon(GeoPoint(1.0, 1.0), sq)
    assert not point_in_polygon(GeoPoint(0.5, 1.0 + 1e-6), sq)
    assert not point_in_polygon(GeoPoint(-1e-6, 0.5), sq)


def test_point_in_polygon_concave():
    # L-shape: the notch in the upper right is outside.
    ell = Polygon([GeoPoint(0, 0), GeoPoint(0, 2), GeoPoint(1, 2),
                   GeoPoint(1, 1), GeoPoint(2, 1), GeoPoint(2, 0)])
    assert point_in_polygon(GeoPoint(0.5, 1.5), ell)
    assert point_in_polygon(GeoPoint(1.5, 0.5), ell)
    assert not point_in_polygon(GeoPoint(1.5, 1.5), ell)
    assert not point_in_polygon(GeoPoint(1.5, 2.0), ell)    # on an edge's line, past its end


def test_point_in_polygon_matches_winding_oracle():
    rng = random.Random(4021)
    for trial in range(40):
        n = rng.randrange(5, 10)
        # Star-shaped ring around a center. Jittered evenly spaced angles keep
        # every angular gap under pi, which guarantees a simple polygon.
        cx = rng.uniform(-5, 5)
        cy = rng.uniform(-5, 5)
        angles = [2 * math.pi * (k + rng.uniform(0.1, 0.9)) / n for k in range(n)]
        verts = [GeoPoint(cy + rng.uniform(0.5, 2.0) * math.sin(t),
                          cx + rng.uniform(0.5, 2.0) * math.cos(t))
                 for t in angles]
        poly = Polygon(verts)
        for _ in range(50):
            p = GeoPoint(rng.uniform(cy - 3, cy + 3), rng.uniform(cx - 3, cx + 3))
            assert point_in_polygon(p, poly) == winding_inside(poly, p), \
                f"trial {trial} point {p}"


def test_node_index_matches_linear_scan():
    rng = random.Random(77)
    for trial in range(20):
        pts = {}
        n = rng.randrange(1, 60)
        for nid in range(n):
            # mix a dense cluster with far outliers to stress the tree walk
            if rng.random() < 0.8:
                pts[nid] = GeoPoint(40.0 + rng.uniform(-0.01, 0.01),
                                    -74.0 + rng.uniform(-0.01, 0.01))
            else:
                pts[nid] = GeoPoint(40.0 + rng.uniform(-0.5, 0.5),
                                    -74.0 + rng.uniform(-0.5, 0.5))
        idx = NodeIndex(pts)
        for _ in range(30):
            q = GeoPoint(40.0 + rng.uniform(-0.6, 0.6),
                         -74.0 + rng.uniform(-0.6, 0.6))
            radius = rng.choice([50.0, 500.0, 5000.0, 100000.0, 2.1e7])
            assert idx.nearest(q, radius) == brute_nearest(pts, q, radius), \
                f"trial {trial} query {q} radius {radius}"

    def anywhere() -> GeoPoint:
        return GeoPoint(math.degrees(math.asin(rng.uniform(-1.0, 1.0))), rng.uniform(-180.0, 180.0))

    # Nodes over the whole sphere, which spread along all three axes, where
    # the one the tree never splits on matters.
    for trial in range(40):
        pts = {nid: anywhere() for nid in range(rng.randrange(1, 200))}
        idx = NodeIndex(pts)
        for _ in range(50):
            q = anywhere()
            radius = rng.choice([1e5, 1e6, 5e6, 2.1e7])
            assert idx.nearest(q, radius) == brute_nearest(pts, q, radius), \
                f"globe trial {trial} query {q} radius {radius}"
    # More coincident nodes, under shuffled ids, than a leaf holds, among
    # scattered ones: the median splits fall between equal components, and
    # the lowest id must still win.
    spot = GeoPoint(40.0, -74.0)
    ids = rng.sample(range(1000), 60)
    pts = {nid: spot for nid in ids[:40]}
    pts |= {nid: GeoPoint(40.0 + rng.uniform(-0.01, 0.01), -74.0 + rng.uniform(-0.01, 0.01))
            for nid in ids[40:]}
    idx = NodeIndex(pts)
    assert idx.nearest(spot, 1.0) == min(ids[:40])
    for _ in range(100):
        q = GeoPoint(40.0 + rng.uniform(-0.012, 0.012), -74.0 + rng.uniform(-0.012, 0.012))
        radius = rng.choice([50.0, 500.0, 5000.0])
        assert idx.nearest(q, radius) == brute_nearest(pts, q, radius), (q, radius)


def test_node_index_stops_early_on_the_bench_grid(monkeypatch):
    """1,000 m snaps on the benchmark's 40 x 40 grid, some from just outside
    it, read a handful of nodes each, not all 1,600."""
    net = grid_network(40, 40)
    idx = NodeIndex(net.nodes)
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return haversine_m(a, b)

    monkeypatch.setattr(geo, "haversine_m", counted)
    rng = random.Random(2024)
    edge = max(p.lat for p in net.nodes.values())
    per_query = []
    for _ in range(500):
        q = GeoPoint(rng.uniform(-0.01, edge + 0.01), rng.uniform(-0.01, edge + 0.01))
        calls = 0
        assert idx.nearest(q, 1000.0) == brute_nearest(net.nodes, q, 1000.0), q
        per_query.append(calls)
    assert sum(per_query) / len(per_query) < 8 and max(per_query) < 40, \
        (sum(per_query) / len(per_query), max(per_query))


class CountedWork:
    """Counts, through geo's module seams, the entries that NodeIndex.nearest
    passes to closest() and the haversine_m distances computed."""

    def __init__(self, monkeypatch):
        self.entries = self.distances = 0
        closest, distance = geo.closest, geo.haversine_m

        def counted_closest(p, u, entries, *rest):
            entries = list(entries)
            self.entries += len(entries)
            return closest(p, u, entries, *rest)

        def counted_distance(a, b):
            self.distances += 1
            return distance(a, b)

        monkeypatch.setattr(geo, "closest", counted_closest)
        monkeypatch.setattr(geo, "haversine_m", counted_distance)

    def reset(self):
        self.entries = self.distances = 0


def test_node_index_starts_at_the_shell_that_reaches_the_occupied_cells(monkeypatch):
    """A query off the network's edge does no work for the empty space
    between it and the nodes: from 1.5 km out, beyond the 1,000 m radius,
    it computes no haversine_m, and no query off the edge, however far
    out, passes closest() more than 32 of the 1,600 nodes; the answers stay
    those of a linear scan."""
    net = grid_network(40, 40)
    idx = NodeIndex(net.nodes)
    work = CountedWork(monkeypatch)
    rng = random.Random(77)
    top = max(p.lat for p in net.nodes.values())
    km = 1000.0 / METERS_PER_DEG_LAT
    looked = []
    for off_km in [rng.uniform(0.2, 1.3) for _ in range(100)] + [1.5, 2.0, 7.0, 300.0]:
        q = GeoPoint(top + off_km * km, rng.uniform(0.0, top))
        expected = brute_nearest(net.nodes, q, 1000.0)
        work.reset()
        assert idx.nearest(q, 1000.0) == expected, off_km
        looked.append((off_km, work.entries, work.distances))
    assert [distances for off_km, _, distances in looked if off_km >= 1.5] == [0, 0, 0, 0]
    assert max(entries for _, entries, _ in looked) <= 32, looked


def test_a_snap_miss_in_a_hole_of_the_network_skips_the_empty_cells(monkeypatch):
    """Queries in a hole of the network, farther than the radius from every
    node, compute no haversine_m and pass closest() at most 32 of the 1,344
    nodes each: the tree skips every split whose far side lies beyond the
    radius, so the hole costs nothing; the answers stay those of a linear
    scan."""
    net = grid_network(40, 40)
    pts = {nid: p for nid, p in net.nodes.items()
           if not (12 <= nid // 40 < 28 and 12 <= nid % 40 < 28)}
    idx = NodeIndex(pts)
    work = CountedWork(monkeypatch)
    spacing = 400.0 / METERS_PER_DEG_LAT
    rng = random.Random(16)
    looked = []
    while len(looked) < 200:
        q = GeoPoint(rng.uniform(11.0, 28.0) * spacing, rng.uniform(11.0, 28.0) * spacing)
        if brute_nearest(pts, q, 1000.0) is not None:
            continue
        work.reset()
        assert idx.nearest(q, 1000.0) is None, q
        looked.append((work.entries, work.distances))
    assert len(pts) == 1344
    assert max(distances for _, distances in looked) == 0, looked
    assert max(entries for entries, _ in looked) <= 32, max(looked)


def jittered_city(rng: random.Random) -> tuple[dict[int, GeoPoint], list[Polygon]]:
    """A 35 x 35 street grid at 40.7 N, 220 m apart, each node moved up to
    0.3 of that along each axis, and one star-shaped zone in each cell of a
    5 x 5 layout over it, shrunk away from the cell edges."""
    dlat = 220.0 / METERS_PER_DEG_LAT
    dlon = dlat / math.cos(math.radians(40.7))
    nodes = {r * 35 + c: GeoPoint(40.7 + (r + rng.uniform(-0.3, 0.3)) * dlat,
                                  -74.0 + (c + rng.uniform(-0.3, 0.3)) * dlon)
             for r in range(35) for c in range(35)}
    stars = []
    for zr in range(5):
        for zc in range(5):
            clat, clon = 40.7 + (7 * zr + 3) * dlat, -74.0 + (7 * zc + 3) * dlon
            m = rng.randint(5, 9)
            corners = []
            for i in range(m):
                a = 2 * math.pi * (i + rng.uniform(-0.3, 0.3)) / m
                k = 3.5 * rng.uniform(0.75, 0.95)
                corners.append(GeoPoint(clat + k * dlat * math.sin(a), clon + k * dlon * math.cos(a)))
            stars.append(Polygon(corners))
    return nodes, stars


def test_snaps_and_fallbacks_compute_few_distances_on_a_jittered_city(monkeypatch):
    """On a jittered street grid with gapped zones, a 1,000 m snap computes
    haversine_m for at most 3 nodes on average, and a nearest-centroid
    fallback over the 25 zones for at most 8 centroids: those within the
    chord bound of the best so far. The answers stay those of a scan."""
    rng = random.Random(700)
    nodes, stars = jittered_city(rng)
    idx = NodeIndex(nodes)
    zm = ZoneMap([Zone(i, poly) for i, poly in enumerate(stars)])
    lats, lons = [p.lat for p in nodes.values()], [p.lon for p in nodes.values()]
    queries = [GeoPoint(rng.uniform(min(lats), max(lats)), rng.uniform(min(lons), max(lons)))
               for _ in range(2000)]
    gaps = [q for q in queries if zm.locate(q) is None]
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return haversine_m(a, b)

    monkeypatch.setattr(geo, "haversine_m", counted)
    monkeypatch.setattr(zones, "haversine_m", counted)
    snapped = []
    for q in queries[:500]:
        calls = 0
        snapped.append((idx.nearest(q, 1000.0), calls))
    fallbacks = []
    for q in gaps:
        calls = 0
        fallbacks.append((zm.locate_or_nearest(q), calls))
    monkeypatch.undo()
    assert [nid for nid, _ in snapped] == [brute_nearest(nodes, q, 1000.0) for q in queries[:500]]
    assert [zone for zone, _ in fallbacks] == [
        (min(range(25), key=lambda i: haversine_m(q, stars[i].centroid())), True) for q in gaps]
    assert len(gaps) > 300
    per_snap = sum(n for _, n in snapped) / len(snapped)
    per_fallback = sum(n for _, n in fallbacks) / len(fallbacks)
    assert per_snap <= 3.0 and per_fallback <= 8.0, (per_snap, per_fallback)


def wrapped(lon: float) -> float:
    return (lon + 180.0) % 360.0 - 180.0


# (lat, lon, longitude step) of each lattice's centre: mid-latitudes, across
# the antimeridian, and around a pole, where one step of longitude is a few
# hundred meters and the lattice spans a quarter of the globe's longitudes.
LATTICES = [(0.0, 10.0, 0.003), (40.7, 10.0, 0.003), (-60.0, 10.0, 0.003), (80.0, 10.0, 0.003),
            (0.0, 179.99, 0.003), (-60.0, -179.995, 0.003), (89.97, 0.0, 6.0),
            (-89.97, 170.0, 6.0)]


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), lattice=st.sampled_from(LATTICES),
       radius=st.sampled_from([50.0, 300.0, 1500.0, 20000.0, 2.1e7]))
def test_node_index_ring_scan_misses_nothing_and_keeps_ties(seed, lattice, radius):
    """Lattice nodes with shuffled ids and queries on the half-lattice, so
    that several nodes are often equally near and the k-d tree walk must
    not stop before the lowest id, and near-ties the chord margin must keep;
    the index still answers as a full scan, also across the antimeridian
    and around a pole."""
    rng = random.Random(seed)
    lat0, lon0, lon_step = lattice
    step = 0.003
    spots = rng.sample([(r, c) for r in range(-8, 9) for c in range(-8, 9)], rng.randrange(1, 60))
    ids = rng.sample(range(1000), len(spots))
    pts = {nid: GeoPoint(lat0 + r * step, wrapped(lon0 + c * lon_step))
           for nid, (r, c) in zip(ids, spots)}
    # Near-ties the chord slack must keep: copies of nodes under other ids,
    # and nodes a few millimetres north or south of others, queried at each
    # pair's midpoint and at both ends.
    mm = 0.001 / METERS_PER_DEG_LAT
    ends = []
    for nid in rng.sample(sorted(set(range(2000)) - set(ids)), 6):
        base = pts[rng.choice(ids)]
        pts[nid] = GeoPoint(max(-90.0, min(90.0, base.lat + rng.choice([0, 1, -2, 5]) * mm)),
                            base.lon)
        ends += [base, pts[nid], GeoPoint((base.lat + pts[nid].lat) / 2, base.lon)]
    idx = NodeIndex(pts)
    for _ in range(25):
        q = GeoPoint(max(-90.0, min(90.0, lat0 + rng.randrange(-20, 21) * step / 2)),
                     wrapped(lon0 + rng.randrange(-20, 21) * lon_step / 2))
        assert idx.nearest(q, radius) == brute_nearest(pts, q, radius), (q, radius)
    for q in ends:
        assert idx.nearest(q, radius) == brute_nearest(pts, q, radius), (q, radius)


def test_node_index_wraps_the_antimeridian_and_reaches_the_poles():
    across = {1: GeoPoint(0.0, -179.9999), 2: GeoPoint(0.0, 179.99)}
    assert NodeIndex(across).nearest(GeoPoint(0.0, 179.9999), 5000.0) == 1  # 22 m, not 1,101 m
    assert NodeIndex(across).nearest(GeoPoint(0.0, -179.99), 5000.0) == 1
    polar = {1: GeoPoint(89.99996, 120.0), 2: GeoPoint(89.9, 0.0)}
    assert NodeIndex(polar).nearest(GeoPoint(89.99995, 0.0), 10.0) == 1  # 8.7 m over the pole
    assert NodeIndex(polar).nearest(GeoPoint(89.99995, 0.0), 100_000.0) == 1


def test_node_index_tie_breaks_to_lowest_id():
    pts = {5: GeoPoint(0.0, 0.001), 2: GeoPoint(0.0, -0.001)}
    idx = NodeIndex(pts)
    assert idx.nearest(GeoPoint(0.0, 0.0), 1000.0) == 2


def test_node_index_radius_and_empty():
    pts = {0: GeoPoint(0.0, 0.0)}
    idx = NodeIndex(pts)
    assert idx.nearest(GeoPoint(0.0, 0.5), 1000.0) is None
    assert idx.nearest(GeoPoint(0.0, 0.5), 60000.0) == 0
    assert idx.nearest(GeoPoint(0.0, 0.0), 0.0) is None
    assert NodeIndex({}).nearest(GeoPoint(0.0, 0.0), 1e9) is None
