"""Zone containment, geometric adjacency, and the mutable neighbor schedule."""

import codecs
import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amodsim.geo import GeoPoint, METERS_PER_DEG_LAT, Polygon, haversine_m, point_in_polygon
from amodsim.zones import (
    AdjacencySchedule,
    Zone,
    ZoneLoadError,
    ZoneMap,
    _point_segment_dist_m,
    initial_adjacency,
    load_zones,
)
from scenario_tools import box_feature, box_polygon, copy_schedule, golden_city

DEG_PER_M = 1.0 / METERS_PER_DEG_LAT


def zone(zid, lat_lo, lat_hi, lon_lo, lon_hi):
    return Zone(zid, box_polygon(lat_lo, lat_hi, lon_lo, lon_hi))


def test_locate_prefers_lowest_id_on_overlap():
    zm = ZoneMap([zone(3, 0.0, 2.0, 0.0, 2.0), zone(1, 1.0, 3.0, 1.0, 3.0)])
    assert zm.locate(GeoPoint(0.5, 0.5)) == 3
    assert zm.locate(GeoPoint(2.5, 2.5)) == 1
    assert zm.locate(GeoPoint(1.5, 1.5)) == 1     # overlap resolves low
    assert zm.locate(GeoPoint(2.0, 2.0)) == 1     # shared boundary too
    assert zm.locate(GeoPoint(5.0, 5.0)) is None


def test_locate_or_nearest_flags_fallbacks():
    zm = ZoneMap([zone(0, 0.0, 1.0, 0.0, 1.0), zone(1, 0.0, 1.0, 2.0, 3.0)])
    assert zm.locate_or_nearest(GeoPoint(0.5, 0.5)) == (0, False)
    assert zm.locate_or_nearest(GeoPoint(0.5, 1.4)) == (0, True)   # nearer left centroid
    assert zm.locate_or_nearest(GeoPoint(0.5, 1.8)) == (1, True)
    assert zm.locate_or_nearest(GeoPoint(0.5, 1.5)) == (0, True)   # equidistant: lower id
    touching = ZoneMap([zone(1, 0.0, 1.0, 0.0, 1.0), zone(0, 0.0, 1.0, 1.0, 2.0)])
    assert touching.locate_or_nearest(GeoPoint(0.5, 1.0)) == (0, False)  # shared boundary


LATTICE_DEG = 0.01


@st.composite
def lattice_zones(draw):
    """One to six zones with corners on a 7 x 7 lattice at 40 N: boxes and
    triangles, so that zones share edges and vertices, overlap and leave
    gaps, and copies of an earlier zone's polygon under other ids, whose
    centroids are equally near every point."""
    ids = draw(st.lists(st.integers(0, 50), min_size=1, max_size=6, unique=True))
    corner = st.tuples(st.integers(0, 6), st.integers(0, 6))
    polys = []
    for _ in ids:
        kind = draw(st.sampled_from(["box", "triangle", "copy"]))
        if kind == "copy" and polys:
            polys.append(draw(st.sampled_from(polys)))
            continue
        (r0, c0), (r1, c1), (r2, c2) = draw(st.lists(corner, min_size=3, max_size=3,
                                                      unique=True))
        if kind == "triangle" and (r1 - r0) * (c2 - c0) != (r2 - r0) * (c1 - c0):
            corners = [(r0, c0), (r1, c1), (r2, c2)]
        else:
            lo_r, hi_r = min(r0, r1), max(r0, r1) + (r0 == r1)
            lo_c, hi_c = min(c0, c1), max(c0, c1) + (c0 == c1)
            corners = [(lo_r, lo_c), (lo_r, hi_c), (hi_r, hi_c), (hi_r, lo_c)]
        polys.append(Polygon([GeoPoint(40.0 + r * LATTICE_DEG, -74.0 + c * LATTICE_DEG)
                              for r, c in corners]))
    return [Zone(zid, poly) for zid, poly in zip(ids, polys)]


def locate_by_scan(zones, p):
    for z in sorted(zones, key=lambda z: z.id):
        if point_in_polygon(p, z.boundary):
            return z.id
    return None


def nearest_centroid_by_scan(zones, p):
    return min(sorted(zones, key=lambda z: z.id),
               key=lambda z: haversine_m(p, z.boundary.centroid())).id


@settings(max_examples=300)
@given(zones=lattice_zones(), data=st.data())
def test_zone_lookup_matches_a_scan_of_every_zone(zones, data):
    """locate and locate_or_nearest against a scan: the lowest-id zone whose
    polygon holds the point, else the lowest-id zone among those whose
    centroid is nearest. The points are every vertex, edge midpoint and
    centroid of the zones, midpoints between two centroids, and points
    drawn over and around the lattice."""
    zm = ZoneMap(zones)
    points = []
    for z in zones:
        verts = z.boundary.vertices
        points += verts + [GeoPoint((a.lat + b.lat) / 2, (a.lon + b.lon) / 2)
                           for a, b in zip(verts, verts[1:] + verts[:1])]
    centroids = [z.boundary.centroid() for z in zones]
    points += centroids + [GeoPoint((a.lat + b.lat) / 2, (a.lon + b.lon) / 2)
                           for a, b in itertools.combinations(centroids, 2)]
    offset = st.floats(-1.5, 7.5).map(lambda k: k * LATTICE_DEG)
    points += [GeoPoint(40.0 + dr, -74.0 + dc)
               for dr, dc in data.draw(st.lists(st.tuples(offset, offset), max_size=20))]
    for p in points:
        want = locate_by_scan(zones, p)
        assert zm.locate(p) == want, p
        fallback = (nearest_centroid_by_scan(zones, p), True) if want is None else (want, False)
        assert zm.locate_or_nearest(p) == fallback, p


def test_zone_map_rejects_duplicate_ids():
    with pytest.raises(ZoneLoadError):
        ZoneMap([zone(0, 0, 1, 0, 1), zone(0, 2, 3, 2, 3)])


def test_adjacency_from_shared_edges():
    # 2x2 tiling: rook moves touch along an edge, diagonals at one corner
    zm = ZoneMap([zone(0, 0, 1, 0, 1), zone(1, 0, 1, 1, 2),
                  zone(2, 1, 2, 0, 1), zone(3, 1, 2, 1, 2)])
    sched = initial_adjacency(zm)
    assert sched.pairs() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_adjacency_tolerance_is_one_meter():
    gap_small = 0.5 * DEG_PER_M   # half a meter apart: still neighbors
    gap_big = 3.0 * DEG_PER_M
    zm = ZoneMap([zone(0, 0, 1e-3, 0, 1e-3),
                  zone(1, 0, 1e-3, 1e-3 + gap_small, 2e-3),
                  zone(2, 0, 1e-3, 2e-3 + gap_big, 3e-3)])
    sched = initial_adjacency(zm)
    assert sched.pairs() == [(0, 1)]
    assert sched.neighbors(2) == []


def test_point_segment_distance_of_a_segment_that_projects_to_one_point():
    """Two distinct vertices whose offsets from the query point round to the
    same value project to one point: the distance is the one to a."""
    p, a, b = GeoPoint(10.0, -179.0), GeoPoint(10.0, 1e-300), GeoPoint(10.0, 2e-300)
    assert a != b and a.lon - p.lon == b.lon - p.lon
    assert _point_segment_dist_m(p, a, b) == 179.0 * (
        METERS_PER_DEG_LAT * math.cos(math.radians(10.0)))


def test_adjacency_from_overlap_and_containment():
    zm = ZoneMap([zone(0, 0, 10, 0, 10), zone(1, 2, 3, 2, 3),
                  zone(2, 9, 11, 9, 11)])
    sched = initial_adjacency(zm)
    # 1 sits fully inside 0; 2 overlaps 0's corner; 1 and 2 are far apart
    assert sched.pairs() == [(0, 1), (0, 2)]


def test_schedule_mutation():
    sched = AdjacencySchedule([0, 1, 2])
    assert sched.zone_ids() == [0, 1, 2]
    assert sched.pairs() == []
    sched.add_neighbor(2, 0)
    assert sched.neighbors(0) == [2]
    assert sched.neighbors(2) == [0]
    sched.add_neighbor(0, 2)     # a repeated pair is kept once
    assert sched.pairs() == [(0, 2)]
    with pytest.raises(ValueError):
        sched.add_neighbor(1, 1)
    with pytest.raises(KeyError):
        sched.add_neighbor(0, 9)
    with pytest.raises(KeyError):
        sched.neighbors(9)


def test_expand_frontier_adds_one_ring():
    sched = AdjacencySchedule([0, 1, 2, 3])
    sched.add_neighbor(0, 1)
    sched.add_neighbor(1, 2)
    sched.add_neighbor(2, 3)
    assert sched.expand_frontier({0}) == {0, 1}
    assert sched.expand_frontier({0, 1}) == {0, 1, 2}
    assert sched.expand_frontier({0, 1, 2, 3}) == {0, 1, 2, 3}
    assert sched.expand_frontier(set()) == set()


def test_schedule_copy_is_independent():
    sched = AdjacencySchedule([0, 1, 2])
    sched.add_neighbor(0, 1)
    dup = copy_schedule(sched)
    assert dup.pairs() == [(0, 1)]
    dup.add_neighbor(2, 1)
    assert dup.pairs() == [(0, 1), (1, 2)] and sched.pairs() == [(0, 1)]


def test_export_text_format():
    sched = AdjacencySchedule([0, 1, 2])
    assert sched.export_text() == ""
    sched.add_neighbor(2, 1)
    sched.add_neighbor(0, 2)
    assert sched.export_text() == "0 2\n1 2\n"


def test_golden_city_adjacency():
    _, zone_map, sched = golden_city()
    assert len(zone_map) == 4
    assert sched.pairs() == [(0, 1), (1, 2), (1, 3), (2, 3)]


def test_load_zones_geojson(tmp_path):
    doc = {"type": "FeatureCollection", "features": [
        box_feature("east", 0.0, 1.0, 1.0, 2.0),
        box_feature("west", 0.0, 1.0, 0.0, 1.0),
    ]}
    path = tmp_path / "z.geojson"
    path.write_text(json.dumps(doc))
    zmap, sched = load_zones(str(path))
    assert len(zmap) == 2
    assert zmap.locate(GeoPoint(0.5, 1.5)) == 0
    assert sched.pairs() == [(0, 1)]


def test_load_zones_reads_a_file_that_starts_with_a_byte_order_mark(tmp_path):
    doc = {"type": "FeatureCollection", "features": [
        box_feature("east", 0.0, 1.0, 1.0, 2.0),
        box_feature("west", 0.0, 1.0, 0.0, 1.0),
    ]}
    path = tmp_path / "z.geojson"
    path.write_bytes(codecs.BOM_UTF8 + json.dumps(doc).encode("utf-8"))
    zmap, sched = load_zones(str(path))
    assert [z.id for z in zmap.zones] == [0, 1]
    assert zmap.locate(GeoPoint(0.5, 1.5)) == 0
    assert sched.pairs() == [(0, 1)]


def test_load_zones_closed_ring(tmp_path):
    ring = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]
    doc = {"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {},
         "geometry": {"type": "Polygon", "coordinates": [ring]}},
    ]}
    path = tmp_path / "z.geojson"
    path.write_text(json.dumps(doc))
    zmap, _ = load_zones(str(path))
    assert len(zmap.zones[0].boundary.vertices) == 4    # repeated closing vertex dropped


def test_load_zones_reads_positions_with_an_altitude(tmp_path):
    """A [lon, lat, alt] position (RFC 7946 3.1.1) reads as its [lon, lat]:
    a 3-D square loads and locates like its 2-D copy."""
    flat = box_feature("square", 0.0, 1.0, 0.0, 1.0)
    raised = json.loads(json.dumps(flat))
    for k, pos in enumerate(raised["geometry"]["coordinates"][0]):
        pos.append(12.5 * k)
    raised["geometry"]["coordinates"][0][-1][2] = 0.0    # closing position repeats the first
    loaded = []
    for name, feat in [("flat", flat), ("raised", raised)]:
        path = tmp_path / f"{name}.geojson"
        path.write_text(json.dumps({"type": "FeatureCollection", "features": [feat]}))
        loaded.append(load_zones(str(path))[0])
    flat_map, raised_map = loaded
    assert raised_map.zones[0].boundary.vertices == flat_map.zones[0].boundary.vertices
    for q in [GeoPoint(0.5, 0.5), GeoPoint(1.0, 1.0), GeoPoint(1.5, 0.5), GeoPoint(-0.1, 0.3)]:
        assert raised_map.locate(q) == flat_map.locate(q)
        assert raised_map.locate_or_nearest(q) == flat_map.locate_or_nearest(q)


def test_load_zones_names_the_feature_of_a_hole_or_a_bad_position(tmp_path):
    """A hole, a position of other than 2 or 3 elements, and a position
    element that is not a number (a JSON true is not latitude 1) are
    refused, naming the feature and the position."""
    square = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
    hole = [[0.4, 0.4], [0.6, 0.4], [0.6, 0.6], [0.4, 0.4]]
    for rings, message in [
            ([square, hole], "feature 1: interior rings are not supported"),
            ([[[0, 0], [1, 0, 0, 0], [1, 1], [0, 0]]], "feature 1: position 1: expected"),
            ([[[0, 0], [1, 0], [1], [0, 0]]], "feature 1: position 2: expected"),
            ([[[0, 0], [1, 0, "high"], [1, 1], [0, 0]]], "feature 1: position 1: expected"),
            ([[[0, 0], [True, 0], [1, 1], [0, 0]]], "feature 1: position 1: expected")]:
        path = tmp_path / "bad.geojson"
        path.write_text(json.dumps({"type": "FeatureCollection", "features": [
            box_feature("west", 0.0, 1.0, -1.0, 0.0),
            {"geometry": {"type": "Polygon", "coordinates": rings}}]}))
        with pytest.raises(ZoneLoadError, match=message):
            load_zones(str(path))


@pytest.mark.parametrize("doc", [
    {"type": "FeatureCollection", "features": []},
    {"type": "Feature"},
    {"type": "FeatureCollection", "features": [
        {"geometry": {"type": "Point", "coordinates": [0, 0]}}]},
    {"type": "FeatureCollection", "features": [
        {"geometry": {"type": "Polygon", "coordinates": []}}]},
    {"type": "FeatureCollection", "features": [
        {"geometry": {"type": "Polygon",
                      "coordinates": [[[0, 0], [1, 0]]]}}]},
    # JSON that is valid but not made of objects where objects belong
    [1, 2],
    {"type": "FeatureCollection", "features": [1]},
    {"type": "FeatureCollection", "features": [[1, 2]]},
    {"type": "FeatureCollection", "features": [
        {"properties": [1], "geometry": {"type": "Polygon",
                                         "coordinates": [[[0, 0], [1, 0], [1, 1]]]}}]},
    {"type": "FeatureCollection", "features": [{"geometry": [1]}]},
    {"type": "FeatureCollection", "features": [
        {"geometry": {"type": "Polygon", "coordinates": {"0": [[0, 0]]}}}]},
    {"type": "FeatureCollection", "features": [
        {"geometry": {"type": "Polygon", "coordinates": [5]}}]},
    # a hole, which the zone model has no place for
    {"type": "FeatureCollection", "features": [
        {"geometry": {"type": "Polygon", "coordinates": [
            [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]],
            [[0.4, 0.4], [0.6, 0.4], [0.6, 0.6], [0.4, 0.4]]]}}]},
])
def test_load_zones_rejects_bad_documents(tmp_path, doc):
    path = tmp_path / "bad.geojson"
    path.write_text(json.dumps(doc))
    with pytest.raises(ZoneLoadError):
        load_zones(str(path))


def test_load_zones_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.geojson"
    path.write_text("{nope")
    with pytest.raises(ZoneLoadError):
        load_zones(str(path))
    with pytest.raises(ZoneLoadError):
        load_zones(str(tmp_path / "missing.geojson"))
