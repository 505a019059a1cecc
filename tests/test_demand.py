"""Trip CSV cleaning rules and the seeded synthetic demand generator."""

import codecs
import csv
import hashlib
import io
import random
from datetime import datetime

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from amodsim.demand import (
    COLUMNS,
    DemandFormatError,
    GenerationError,
    NYC_BBOX,
    PATIENCE_MAX_S,
    PATIENCE_MIN_S,
    TIMESTAMP_FORMAT,
    TripRequest,
    generate_demand,
    parse_timestamp,
    parse_trips,
)
from amodsim.geo import GeoPoint
from amodsim.zones import Zone, ZoneMap
from scenario_tools import GOLDEN_SPACING_DEG, box_polygon, reference_parse_trips, tile_zones

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


def outcome(parse, *args):
    """What parse(*args) returns, or ValueError if it raises one; a
    DemandFormatError with its message."""
    try:
        return parse(*args)
    except DemandFormatError as exc:
        return DemandFormatError, str(exc)
    except ValueError:
        return ValueError


def strptime_timestamp(text):
    return datetime.strptime(text, TIMESTAMP_FORMAT)


# What a perturbation writes: digits give out-of-range fields, the rest
# break the shape; an Arabic-Indic three is a digit to strptime alone.
PERTURB_CHARS = "0123456789x٣-: \t"


@given(st.datetimes(min_value=datetime(1000, 1, 1)),
       st.lists(st.tuples(st.integers(0, 99), st.sampled_from(PERTURB_CHARS)), max_size=3))
@example(datetime(2013, 2, 28, 23, 59, 59), [(9, "9")])     # Feb 29 in a common year
@example(datetime(2012, 2, 28, 23, 59, 59), [(9, "9")])     # and in a leap year
@example(datetime(2013, 1, 7, 8, 28, 36), [(17, "6")])      # second 66
def test_parse_timestamp_agrees_with_strptime(when, edits):
    """TIMESTAMP_FORMAT text with up to three characters overwritten
    parses as strptime parses it, or fails as strptime fails."""
    text = list(when.strftime(TIMESTAMP_FORMAT))
    for pos, char in edits:
        text[pos % len(text)] = char
    text = "".join(text)
    assert outcome(parse_timestamp, text) == outcome(strptime_timestamp, text)


@pytest.mark.parametrize("text,parsed", [
    ("2013-01-07 08:28:36", datetime(2013, 1, 7, 8, 28, 36)),
    ("0001-01-01 00:00:00", datetime(1, 1, 1)),
    ("9999-12-31 23:59:59", datetime(9999, 12, 31, 23, 59, 59)),
    ("2012-02-29 00:00:00", datetime(2012, 2, 29)),
    ("2013-1-7 8:5:3", datetime(2013, 1, 7, 8, 5, 3)),          # strptime's short fields
    ("2013-01-07\t08:28:36", datetime(2013, 1, 7, 8, 28, 36)),  # and its whitespace
    ("٢٠١٣-01-07 08:28:36", datetime(2013, 1, 7, 8, 28, 36)),
    ("2013-00-07 08:28:36", None), ("2013-13-07 08:28:36", None),
    ("2013-01-00 08:28:36", None), ("2013-01-32 08:28:36", None),
    ("2013-02-30 08:28:36", None), ("2013-01-07 24:28:36", None),
    ("2013-01-07 08:60:36", None), ("2013-01-07 08:28:60", None),
    ("2013-01-07 08:28:61", None), ("0000-01-07 08:28:36", None),
    ("2013-01-07T08:28:36", None), ("2013-01-07 08:28:36.5", None),
    ("+013-01-07 08:28:36", None), ("2013-01-07 08:28:3x", None),
    ("2013-0٣-07 08:28:36", None),             # a digit to int(), not to strptime's %m
])
def test_parse_timestamp_edges(text, parsed):
    expected = ValueError if parsed is None else parsed
    assert outcome(parse_timestamp, text) == outcome(strptime_timestamp, text) == expected


# The first two values are good; a field takes any of them one time in eight.
FUZZ_VALUES = {
    "time": ("2013-01-07 08:28:36", "2013-01-07 08:41:02", "2013-01-07 09:00:00",
             "2013-1-7 8:5:3", " 2013-01-07 08:30:00 ", "2013-02-30 08:00:00",
             "2013-01-07T08:28:36", "2013-13-45 25:61:00", "", "x"),
    "count": ("1", "3", "2", "5", "0", "x", " 2 ", ""),
    "lat": ("40.7", "40.8", "0", "nan", "95", ""),
    "log": ("-73.9", "-74.0", "0", "-87.6", "abc"),
    "medallion": ("M1", "a,b", 'say "hi"', ""),
}


def fuzz_trip_file(rng: random.Random) -> bytes:
    """A trip file that breaks the format's rules at random: a byte-order
    mark, CRLF, extra and repeated header names, blank, short and long rows,
    quoted fields, and timestamps strptime reads only its own slow way."""
    if rng.random() < 0.05:
        return codecs.BOM_UTF8 * rng.randrange(2)
    header = list(COLUMNS)
    rng.shuffle(header)
    for _ in range(rng.choice((0, 0, 1, 2))):
        header.insert(rng.randrange(len(header) + 1),
                      rng.choice(COLUMNS + ("fare", "medallion")))
    if rng.random() < 0.05:
        header.remove(rng.choice(COLUMNS))

    def value(name):
        pool = FUZZ_VALUES[name.split()[-1] if name in COLUMNS else "medallion"]
        return rng.choice(pool[:2] if rng.random() < 0.875 else pool)

    lines = [header]
    for _ in range(rng.randrange(12)):
        row = [value(name) for name in header]
        shape = rng.randrange(8)
        if shape == 0:
            row = []                                     # blank line
        elif shape == 1:
            row = row[:rng.randrange(len(row))]          # short row
        elif shape == 2:
            row += ["extra"] * rng.randrange(1, 3)       # long row
        lines.append(row)
    out = io.StringIO()
    csv.writer(out, lineterminator=rng.choice(("\n", "\r\n"))).writerows(lines)
    text = out.getvalue().encode()
    return codecs.BOM_UTF8 + text if rng.random() < 0.3 else text


def test_parse_trips_matches_a_dict_reader_and_strptime(tmp_path):
    """Requests, cleaning reports and header errors equal those of the
    plain DictReader and strptime reading on fuzzed files."""
    rng = random.Random(2032)
    path = tmp_path / "trips.csv"
    for _ in range(400):
        path.write_bytes(fuzz_trip_file(rng))
        args = (str(path), NYC_BBOX, rng.choice((2, 4)), rng.randrange(100))
        assert outcome(parse_trips, *args) == outcome(reference_parse_trips, *args)


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
