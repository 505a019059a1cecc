"""Trip CSV cleaning rules and the seeded synthetic demand generator."""

import codecs
import hashlib
import random
from datetime import datetime

import pytest

from amodsim.demand import (
    DemandFormatError,
    GenerationError,
    NYC_BBOX,
    PATIENCE_MAX_S,
    PATIENCE_MIN_S,
    TripRequest,
    generate_demand,
    parse_trips,
)
from amodsim.geo import GeoPoint
from amodsim.zones import Zone, ZoneMap
from scenario_tools import GOLDEN_SPACING_DEG, box_polygon, tile_zones

HEADER = ("medallion,pickup time,dropoff time,passenger count,"
          "pickup log,pickup lat,dropoff log,dropoff lat")

NYC_OK = ("-73.99", "40.75", "-73.97", "40.76")    # plon, plat, dlon, dlat
CHICAGO = ("-87.63", "41.88", "-87.62", "41.89")


def row(medallion="cab", pickup="2013-01-05 12:00:00",
        dropoff="2013-01-05 12:10:00", party="1", coords=NYC_OK):
    plon, plat, dlon, dlat = coords
    return f"{medallion},{pickup},{dropoff},{party},{plon},{plat},{dlon},{dlat}"


def write_csv(tmp_path, rows, name="trips.csv"):
    path = tmp_path / name
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    return str(path)


def test_parse_trips_keeps_clean_rows_and_sorts(tmp_path):
    path = write_csv(tmp_path, [
        row(medallion="late", pickup="2013-01-05 12:00:30",
            dropoff="2013-01-05 12:20:00"),
        row(medallion="early", pickup="2013-01-05 12:00:00",
            dropoff="2013-01-05 12:05:00", party="2"),
    ])
    requests, report = parse_trips(path, rng_seed=7)
    assert report.rows_read == 2 and report.rows_kept == 2
    assert report.rows_read == report.rows_kept + sum(report.rejections.values())
    assert report.epoch == datetime(2013, 1, 5, 12, 0, 0)
    assert [r.request_time_s for r in requests] == [0.0, 30.0]
    # ids number kept rows in file order, not output order
    assert [r.id for r in requests] == [1, 0]
    assert requests[0].party_size == 2
    assert requests[0].pickup == GeoPoint(40.75, -73.99)
    assert requests[0].dropoff == GeoPoint(40.76, -73.97)
    for r in requests:
        assert PATIENCE_MIN_S <= r.patience_s <= PATIENCE_MAX_S


def test_parse_trips_patience_is_seeded(tmp_path):
    rows = [row(pickup=f"2013-01-05 12:00:{s:02d}", dropoff="2013-01-05 13:00:00")
            for s in range(5)]
    path = write_csv(tmp_path, rows)
    a, _ = parse_trips(path, rng_seed=42)
    b, _ = parse_trips(path, rng_seed=42)
    c, _ = parse_trips(path, rng_seed=43)
    assert [r.patience_s for r in a] == [r.patience_s for r in b]
    assert [r.patience_s for r in a] != [r.patience_s for r in c]
    rng = random.Random(42)
    # patience attaches in time order: first request gets the first draw
    assert a[0].patience_s == rng.uniform(PATIENCE_MIN_S, PATIENCE_MAX_S)


def test_parse_trips_rejection_reasons(tmp_path):
    path = write_csv(tmp_path, [
        row(),                                                    # kept
        row(pickup="not-a-time"),                                 # unparseable
        row(party="0"),                                           # unparseable
        row(party="x"),                                           # unparseable
        row(coords=("0", "0", "-73.97", "40.76")),                # bad coords
        row(coords=("-73.99", "95.0", "-73.97", "40.76")),        # bad coords
        row(coords=("-73.99", "40.75", "nan", "40.76")),          # bad coords
        row(coords=CHICAGO),                                      # out of bounds
        row(dropoff="2013-01-05 12:00:00"),                       # zero duration
        row(party="5"),                                           # oversize
    ])
    requests, report = parse_trips(path, capacity=4)
    assert len(requests) == 1
    assert report.rows_read == 10 and report.rows_kept == 1
    assert report.rejections["unparseable"] == 3
    assert report.rejections["bad-coordinates"] == 3
    assert report.rejections["out-of-bounds"] == 1
    assert report.rejections["non-positive-duration"] == 1
    assert report.rejections["oversize-party"] == 1
    assert report.rows_read == report.rows_kept + sum(report.rejections.values())
    text = report.as_text()
    assert "rows_read 10" in text and "rejected[oversize-party] 1" in text


def test_parse_trips_one_reason_per_row(tmp_path):
    # each row trips several rules; only the first applicable reason counts
    path = write_csv(tmp_path, [
        row(pickup="garbage", coords=CHICAGO),
        row(coords=("0", "0", "0", "0"), dropoff="2013-01-05 11:00:00"),
        row(coords=CHICAGO, dropoff="2013-01-05 11:00:00"),
        row(dropoff="2013-01-05 11:00:00", party="9"),
    ])
    _, report = parse_trips(path)
    assert report.rejections["unparseable"] == 1
    assert report.rejections["bad-coordinates"] == 1
    assert report.rejections["out-of-bounds"] == 1
    assert report.rejections["non-positive-duration"] == 1
    assert report.rejections["oversize-party"] == 0
    assert report.rows_read == report.rows_kept + sum(report.rejections.values())


def test_parse_trips_epoch_ignores_rejected_rows(tmp_path):
    path = write_csv(tmp_path, [
        row(pickup="2013-01-05 09:00:00", coords=CHICAGO),    # earlier, rejected
        row(pickup="2013-01-05 12:00:00"),
    ])
    requests, report = parse_trips(path)
    assert report.epoch == datetime(2013, 1, 5, 12, 0, 0)
    assert requests[0].request_time_s == 0.0


def test_parse_trips_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("medallion,pickup time\nx,2013-01-05 12:00:00\n")
    with pytest.raises(DemandFormatError):
        parse_trips(str(path))
    # no request keeps the medallion, but the header must still carry it
    path.write_text(HEADER.replace("medallion,", "") + "\n")
    with pytest.raises(DemandFormatError, match=r"missing columns \['medallion'\]"):
        parse_trips(str(path))


def test_parse_trips_reads_a_file_that_starts_with_a_byte_order_mark(tmp_path):
    """Excel writes one; the first column must still be named `medallion`."""
    plain = write_csv(tmp_path, [row(), row(medallion="bad", party="0")])
    marked = tmp_path / "marked.csv"
    with open(plain, "rb") as fh:
        marked.write_bytes(codecs.BOM_UTF8 + fh.read())
    requests, report = parse_trips(str(marked), rng_seed=7)
    assert (requests, report) == parse_trips(plain, rng_seed=7)
    assert report.rows_read == 2 and len(requests) == 1


def test_parse_trips_empty_file(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(HEADER + "\n")
    requests, report = parse_trips(str(empty))
    assert requests == [] and report.rows_read == 0
    assert report.epoch is None


def test_trip_request_validation():
    p = GeoPoint(40.75, -73.99)
    with pytest.raises(ValueError):
        TripRequest(0, -1.0, p, p, 1, 300.0)
    with pytest.raises(ValueError):
        TripRequest(0, 0.0, p, p, 0, 300.0)
    with pytest.raises(ValueError):
        TripRequest(0, 0.0, p, p, 1, 10.0)
    with pytest.raises(ValueError):
        TripRequest(0, 0.0, p, p, 1, 4000.0)


def test_generate_demand_is_seeded():
    kw = dict(bbox=NYC_BBOX, seed=11, patience_range=(60.0, 600.0))
    a = generate_demand(120.0, 3600.0, **kw)
    b = generate_demand(120.0, 3600.0, **kw)
    c = generate_demand(120.0, 3600.0, bbox=NYC_BBOX, seed=12,
                        patience_range=(60.0, 600.0))
    assert a == b
    assert a != c
    assert 60 <= len(a) <= 220     # mean 120; bounds far out in the tails
    lon_min, lat_min, lon_max, lat_max = NYC_BBOX
    last_t = -1.0
    for i, r in enumerate(a):
        assert r.id == i
        assert r.request_time_s > last_t
        last_t = r.request_time_s
        assert r.request_time_s <= 3600.0
        assert lat_min <= r.pickup.lat <= lat_max
        assert lon_min <= r.dropoff.lon <= lon_max
        assert r.party_size in (1, 2, 3, 4)
        assert 60.0 <= r.patience_s <= 600.0


def test_generate_demand_zone_region():
    zm = ZoneMap([Zone(0, box_polygon(0.0, 0.01, 0.0, 0.01)),
                  Zone(1, box_polygon(0.02, 0.03, 0.02, 0.03))])
    reqs = generate_demand(600.0, 3600.0, zm.bbox(), zone_map=zm, seed=3)
    assert len(reqs) > 100
    for r in reqs:
        assert zm.locate(r.pickup) is not None
        assert zm.locate(r.dropoff) is not None


# SHA-256 of repr(requests) on the 20x20 desk city's nine zones: drawn over
# the zones, over their box alone, and over the zones less the middle one
# (whose box is the same, so only rejection tells the two apart).
DESK_DRAW_DIGESTS = {
    "zones": (109, "893a224755cb242b259adba9f6e4c38605046e26153e1386f7ce54bee84a7a48"),
    "box": (109, "893a224755cb242b259adba9f6e4c38605046e26153e1386f7ce54bee84a7a48"),
    "gapped": (106, "bdb4e1002bad101147bf129aafff97cd93d488b608af9f892207f2c0cb639b27"),
}


def test_generate_demand_draws_are_pinned_for_both_region_forms():
    zones = tile_zones(20, 20, 3, 3, GOLDEN_SPACING_DEG)
    zm = ZoneMap(zones)
    gapped = ZoneMap([z for z in zones if z.id != 4])
    assert gapped.bbox() == zm.bbox()
    kw = dict(bbox=zm.bbox(), seed=1000, patience_range=(60.0, 1800.0))
    drawn = {"zones": generate_demand(80.0, 5400.0, zone_map=zm, **kw),
             "box": generate_demand(80.0, 5400.0, **kw),
             "gapped": generate_demand(80.0, 5400.0, zone_map=gapped, **kw)}
    assert {name: (len(reqs), hashlib.sha256(repr(reqs).encode()).hexdigest())
            for name, reqs in drawn.items()} == DESK_DRAW_DIGESTS


def test_generate_demand_party_distribution():
    reqs = generate_demand(1000.0, 3600.0, bbox=NYC_BBOX, seed=5,
                           party_probs=(0.5, 0.5))
    sizes = {r.party_size for r in reqs}
    assert sizes == {1, 2}


def test_generate_demand_edge_cases_and_errors():
    assert generate_demand(0.0, 3600.0, bbox=NYC_BBOX, seed=1) == []
    assert generate_demand(100.0, 0.0, bbox=NYC_BBOX, seed=1) == []
    with pytest.raises(GenerationError):
        generate_demand(-1.0, 3600.0, bbox=NYC_BBOX, seed=1)
    with pytest.raises(GenerationError):
        generate_demand(10.0, 3600.0, bbox=(0.0, 0.0, 0.0, 1.0), seed=1)
    with pytest.raises(GenerationError):
        generate_demand(10.0, 3600.0, bbox=NYC_BBOX, seed=1,
                        party_probs=(0.5, 0.4))
    with pytest.raises(GenerationError):
        generate_demand(10.0, 3600.0, bbox=NYC_BBOX, seed=1,
                        patience_range=(10.0, 600.0))
    # an empty stream still checks every parameter
    for rate, duration in ((0.0, 3600.0), (10.0, 0.0)):
        with pytest.raises(GenerationError, match="party_probs"):
            generate_demand(rate, duration, bbox=NYC_BBOX, party_probs=(-1.0, 2.0))
        with pytest.raises(GenerationError, match="patience range"):
            generate_demand(rate, duration, bbox=NYC_BBOX, patience_range=(5000.0, 10.0))
