"""Trip demand: CSV ingestion with cleaning, and a seeded synthetic generator.

Request times are seconds relative to the earliest kept row. Every discarded
row is counted under exactly one rejection reason so the cleaning report
balances against rows read.
"""

import csv
import random
import re
from dataclasses import dataclass, field
from datetime import datetime
from operator import itemgetter

from .geo import GeoPoint

# lon_min, lat_min, lon_max, lat_max
NYC_BBOX = (-74.30, 40.45, -73.65, 41.00)

PATIENCE_MIN_S = 60.0
PATIENCE_MAX_S = 3600.0
# the largest party a vehicle carries, unless configured
DEFAULT_CAPACITY = 4
# weights of party sizes 1, 2, ... in generated demand
DEFAULT_PARTY_PROBS = (0.7, 0.15, 0.1, 0.05)

TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S"
_TIMESTAMP_SHAPE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}")

# The trip file's header; the dataset spells longitude as "log". All eight
# columns are required, including those no request keeps.
COLUMNS = ("medallion", "pickup time", "dropoff time", "passenger count",
           "pickup log", "pickup lat", "dropoff log", "dropoff lat")

REJECT_UNPARSEABLE = "unparseable"
REJECT_BAD_COORDINATES = "bad-coordinates"
REJECT_OUT_OF_BOUNDS = "out-of-bounds"
REJECT_NON_POSITIVE_DURATION = "non-positive-duration"
REJECT_OVERSIZE_PARTY = "oversize-party"
REJECTION_REASONS = (REJECT_UNPARSEABLE, REJECT_BAD_COORDINATES, REJECT_OUT_OF_BOUNDS,
                     REJECT_NON_POSITIVE_DURATION, REJECT_OVERSIZE_PARTY)


class DemandFormatError(ValueError):
    pass


class GenerationError(ValueError):
    pass


@dataclass(frozen=True)
class TripRequest:
    id: int
    request_time_s: float
    pickup: GeoPoint
    dropoff: GeoPoint
    party_size: int
    patience_s: float

    def __post_init__(self):
        if self.request_time_s < 0:
            raise ValueError(f"request {self.id}: negative request time")
        if self.party_size < 1:
            raise ValueError(f"request {self.id}: party size {self.party_size} < 1")
        if not (PATIENCE_MIN_S <= self.patience_s <= PATIENCE_MAX_S):
            raise ValueError(
                f"request {self.id}: patience {self.patience_s} outside "
                f"[{PATIENCE_MIN_S}, {PATIENCE_MAX_S}]")


@dataclass
class CleaningReport:
    rows_read: int = 0
    rows_kept: int = 0
    rejections: dict[str, int] = field(default_factory=lambda: {r: 0 for r in REJECTION_REASONS})
    epoch: datetime | None = None

    def as_text(self) -> str:
        lines = [f"rows_read {self.rows_read}", f"rows_kept {self.rows_kept}"]
        for reason in REJECTION_REASONS:
            lines.append(f"rejected[{reason}] {self.rejections[reason]}")
        if self.epoch is not None:
            lines.append(f"epoch {self.epoch.strftime(TIMESTAMP_FORMAT)}")
        return "\n".join(lines) + "\n"


def _coords_invalid(lat: float, lon: float) -> bool:
    if lat == 0.0 and lon == 0.0:  # null island rows are sensor dropouts
        return True
    return not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0)  # nan and inf fail


def parse_timestamp(text: str) -> datetime:
    """datetime.strptime(text, TIMESTAMP_FORMAT), with the format's own
    shape, `YYYY-MM-DD HH:MM:SS` in ASCII digits, sliced into datetime().

    Exact: on that shape strptime's field patterns take both digits or fail;
    what they refuse (month 0 or 13+, day 0 or 32+, hour 24+, minute 60+,
    second 62+) datetime() refuses too, and what they pass goes to datetime()
    (refusing Feb 30, second 60 or 61, year 0). Not fromisoformat: it
    accepts forms strptime rejects."""
    if _TIMESTAMP_SHAPE.fullmatch(text):
        return datetime(int(text[:4]), int(text[5:7]), int(text[8:10]),
                        int(text[11:13]), int(text[14:16]), int(text[17:]))
    return datetime.strptime(text, TIMESTAMP_FORMAT)


def parse_trips(csv_path: str, bbox: tuple[float, float, float, float] = NYC_BBOX,
                capacity: int = DEFAULT_CAPACITY, rng_seed: int = 0,
                ) -> tuple[list[TripRequest], CleaningReport]:
    """Read trip rows, keep the clean ones, attach seeded patience values.

    Returns requests sorted by (request_time_s, id); ids count kept rows in
    file order. One rejection reason per bad row, checked in a fixed order
    (parse errors, coordinates, bounds, duration, party size).

    Rows follow csv.DictReader's rules: blank rows are skipped uncounted,
    extra fields ignored and missing ones None (so unparseable); of a
    repeated column name the last counts. Timestamps: parse_timestamp.
    """
    report = CleaningReport()
    kept: list[tuple[datetime, GeoPoint, GeoPoint, int]] = []
    with open(csv_path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in COLUMNS if c not in header]
        if missing:
            raise DemandFormatError(f"{csv_path}: missing columns {missing}; header {header}")
        at = {name: i for i, name in enumerate(header)}  # a repeated name: its last column
        fields = itemgetter(*(at[c] for c in COLUMNS[1:]))
        lon_min, lat_min, lon_max, lat_max = bbox
        for row in reader:
            if not row:
                continue
            report.rows_read += 1
            row += [None] * (len(header) - len(row))
            try:
                pickup, dropoff, party, plon, plat, dlon, dlat = fields(row)
                pickup_dt = parse_timestamp(pickup.strip())
                dropoff_dt = parse_timestamp(dropoff.strip())
                party = int(party.strip())
                plat, plon = float(plat.strip()), float(plon.strip())
                dlat, dlon = float(dlat.strip()), float(dlon.strip())
                if party < 1:
                    raise ValueError("party below 1")
            except (ValueError, TypeError, AttributeError):
                report.rejections[REJECT_UNPARSEABLE] += 1
                continue
            if _coords_invalid(plat, plon) or _coords_invalid(dlat, dlon):
                report.rejections[REJECT_BAD_COORDINATES] += 1
                continue
            if not (lon_min <= plon <= lon_max and lat_min <= plat <= lat_max and
                    lon_min <= dlon <= lon_max and lat_min <= dlat <= lat_max):
                report.rejections[REJECT_OUT_OF_BOUNDS] += 1
                continue
            if dropoff_dt <= pickup_dt:
                report.rejections[REJECT_NON_POSITIVE_DURATION] += 1
                continue
            if party > capacity:
                report.rejections[REJECT_OVERSIZE_PARTY] += 1
                continue
            kept.append((pickup_dt, GeoPoint(plat, plon), GeoPoint(dlat, dlon), party))
    report.rows_kept = len(kept)
    if not kept:
        return [], report
    epoch = report.epoch = min(item[0] for item in kept)
    times = [(item[0] - epoch).total_seconds() for item in kept]
    rng = random.Random(rng_seed)
    requests = []
    for idx in sorted(range(len(kept)), key=times.__getitem__):  # ties in file order
        _, pickup, dropoff, party = kept[idx]
        patience = rng.uniform(PATIENCE_MIN_S, PATIENCE_MAX_S)
        requests.append(TripRequest(idx, times[idx], pickup, dropoff, party, patience))
    return requests, report


def generate_demand(rate_per_hour: float, duration_s: float,
                    bbox: tuple[float, float, float, float], *,
                    zone_map=None,
                    party_probs: tuple[float, ...] = DEFAULT_PARTY_PROBS,
                    seed: int = 0,
                    patience_range: tuple[float, float] = (PATIENCE_MIN_S, PATIENCE_MAX_S),
                    ) -> list[TripRequest]:
    """Poisson arrivals with uniform pickup/dropoff locations in `bbox`.

    Given a ZoneMap, points are rejection-sampled to its zones as well.
    Same seed, same output.
    """
    if rate_per_hour < 0:
        raise GenerationError(f"negative rate {rate_per_hour}")
    lon_min, lat_min, lon_max, lat_max = bbox
    if not (lon_max > lon_min and lat_max > lat_min):
        raise GenerationError(f"degenerate bbox {bbox}")
    if abs(sum(party_probs) - 1.0) > 1e-9 or any(p < 0 for p in party_probs):
        raise GenerationError(f"party_probs must be a distribution, got {party_probs}")
    lo_p, hi_p = patience_range
    if not (PATIENCE_MIN_S <= lo_p <= hi_p <= PATIENCE_MAX_S):
        raise GenerationError(f"patience range {patience_range} outside "
                              f"[{PATIENCE_MIN_S}, {PATIENCE_MAX_S}]")
    if rate_per_hour == 0.0 or duration_s <= 0.0:
        return []

    rng = random.Random(seed)
    rate_per_s = rate_per_hour / 3600.0

    def draw_point() -> GeoPoint:
        for _ in range(100_000):
            p = GeoPoint(rng.uniform(lat_min, lat_max), rng.uniform(lon_min, lon_max))
            if zone_map is None or zone_map.locate(p) is not None:
                return p
        raise GenerationError("rejection sampling failed; zones cover too little of their box")

    requests = []
    t = rng.expovariate(rate_per_s)
    rid = 0
    while t <= duration_s:
        pickup = draw_point()
        dropoff = draw_point()
        party = rng.choices(range(1, len(party_probs) + 1), weights=party_probs)[0]
        patience = rng.uniform(lo_p, hi_p)
        requests.append(TripRequest(rid, t, pickup, dropoff, party, patience))
        rid += 1
        t += rng.expovariate(rate_per_s)
    return requests
