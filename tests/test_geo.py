"""Geodesic primitives: frozen distances, containment, nearest-node index."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amodsim import geo
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
            # mix a dense cluster with far outliers to stress the cell walk
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


class CountedCells(dict):
    """A cell dict that counts its lookups."""
    looked = 0

    def get(self, key, default=None):
        self.looked += 1
        return super().get(key, default)


def test_node_index_starts_at_the_shell_that_reaches_the_occupied_cells():
    """A query off the network's edge looks up no cell nearer than the box
    of the occupied cells, and none at all when even that box lies beyond
    the radius (shells 0 to 5 are 1,331 cells at a 1,000 m radius); the
    answers stay those of a linear scan."""
    net = grid_network(40, 40)
    idx = NodeIndex(net.nodes)
    idx._cells = cells = CountedCells(idx._cells)
    rng = random.Random(77)
    top = max(p.lat for p in net.nodes.values())
    km = 1000.0 / METERS_PER_DEG_LAT
    looked = []
    for off_km in [rng.uniform(0.2, 1.3) for _ in range(100)] + [1.5, 2.0, 7.0, 300.0]:
        q = GeoPoint(top + off_km * km, rng.uniform(0.0, top))
        cells.looked = 0
        assert idx.nearest(q, 1000.0) == brute_nearest(net.nodes, q, 1000.0), off_km
        looked.append((off_km, cells.looked))
    assert [n for off_km, n in looked if off_km >= 1.5] == [0, 0, 0, 0]
    assert max(n for _, n in looked) < 1331


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
    that several nodes are often equally near and the shell scan must not
    stop before the lowest id; the index still answers as a full scan, also
    across the antimeridian and around a pole."""
    rng = random.Random(seed)
    lat0, lon0, lon_step = lattice
    step = 0.003
    spots = rng.sample([(r, c) for r in range(-8, 9) for c in range(-8, 9)], rng.randrange(1, 60))
    ids = rng.sample(range(1000), len(spots))
    pts = {nid: GeoPoint(lat0 + r * step, wrapped(lon0 + c * lon_step))
           for nid, (r, c) in zip(ids, spots)}
    idx = NodeIndex(pts)
    for _ in range(25):
        q = GeoPoint(max(-90.0, min(90.0, lat0 + rng.randrange(-20, 21) * step / 2)),
                     wrapped(lon0 + rng.randrange(-20, 21) * lon_step / 2))
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
