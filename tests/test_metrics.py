"""Wait/success metrics, window aggregation, improvement arithmetic."""

import math
import random
from datetime import datetime

import pytest

import reference_results as ref
from amodsim.engine import CallRecord
from amodsim.metrics import (
    MetricsSummary,
    aggregate,
    comparison_text,
    horizon_s,
    improvement,
    improvement_pcts,
    periodic_rows,
    summarize,
    summary_text,
    whole_run,
)


def picked(rid, t, wait, trip=300.0, vehicle=0):
    return CallRecord(rid, t, "PICKED_UP", t + wait, t + wait + trip, vehicle)


def rejected(rid, t, reason="no-vehicle"):
    return CallRecord(rid, t, "REJECTED", reject_reason=reason)


def abandoned(rid, t, gone):
    return CallRecord(rid, t, "ABANDONED", abandon_time_s=gone)


MIXED = [
    picked(0, 0.0, 40.0),
    picked(1, 10.0, 100.0),
    rejected(2, 20.0),
    abandoned(3, 30.0, 90.0),
    picked(4, 40.0, 160.0),
]


def test_mean_wait_covers_picked_up_calls_only():
    assert whole_run(MIXED).t_apw_s == 100.0
    assert whole_run([rejected(0, 0.0), abandoned(1, 5.0, 65.0)]).t_apw_s is None
    assert whole_run([]).t_apw_s is None


def test_success_rate():
    assert whole_run(MIXED).r_ts == 3 / 5
    assert whole_run([rejected(0, 0.0)]).r_ts == 0.0
    assert whole_run([]).r_ts is None


def test_summary_counts_and_properties():
    s = summarize(MIXED, (0.0, 600.0))
    assert s == MetricsSummary(0.0, 600.0, 5, 3, 300.0)
    assert s.t_apw_s == 100.0
    assert s.r_ts == 0.6

    empty = summarize([], (0.0, 600.0))
    assert empty.t_apw_s is None and empty.r_ts is None

    unserved = summarize([rejected(0, 0.0)], (0.0, 600.0))
    assert unserved.t_apw_s is None     # no pickups: no wait, never zero
    assert unserved.r_ts == 0.0

    with pytest.raises(ValueError):
        MetricsSummary(0.0, 1.0, 1, 2, 0.0)
    with pytest.raises(ValueError):
        MetricsSummary(0.0, 1.0, 1, -1, 0.0)


def test_summary_row_formatting():
    s = summarize(MIXED, (0.0, 600.0))
    assert s.row() == "0.0\t600.0\t5\t3\t0.6000\t1.67"
    hole = summarize([], (600.0, 1200.0))
    assert hole.row() == "600.0\t1200.0\t0\t0\tNA\tNA"
    text = summary_text([s, hole])
    lines = text.splitlines()
    assert lines[0].split("\t") == ["window_start_s", "window_end_s", "n_calls",
                                    "n_success", "r_ts", "t_apw_min"]
    assert len(lines) == 3 and text.endswith("\n")


def test_improvement_percentages():
    # 8 min baseline against 6 with expansion: the baseline waits 1/3 longer
    time_pct, rate_pct = improvement_pcts(360.0, 480.0, 0.9, 0.8)
    assert time_pct == pytest.approx(100.0 / 3.0)
    assert rate_pct == pytest.approx(12.5)
    assert improvement_pcts(None, 480.0, 0.9, 0.8)[0] is None
    assert improvement_pcts(360.0, None, 0.9, 0.8)[0] is None
    assert improvement_pcts(0.0, 480.0, 0.9, 0.8)[0] is None
    assert improvement_pcts(360.0, 480.0, 0.9, 0.0)[1] is None
    assert improvement_pcts(360.0, 480.0, None, 0.8)[1] is None


def test_improvement_of_two_summaries():
    a = summarize(MIXED, (0.0, 600.0))
    b = summarize(MIXED[:3], (0.0, 600.0))
    rep = improvement(a, b)
    assert rep.time_improvement_pct == pytest.approx((70.0 / 100.0 - 1) * 100)
    assert rep.rate_improvement_pct == pytest.approx((0.6 / (2 / 3) - 1) * 100)


# -- the year-long benchmark sheets --------------------------------------


def test_benchmark_sheets_are_complete():
    for s in ref.STRATEGIES:
        assert len(ref.WAIT_MIN[s]) == len(ref.MONTHS) == 13
        assert len(ref.RATE_PCT[s]) == 13
        assert len(ref.IMPROVE_PCT[s]) == 13


def test_benchmark_improvement_sheet_consistency():
    """All 78 stated improvements follow from the raw pairs, except the four
    pinned cells, which disagree by more than the tolerance."""
    mismatches = {}
    for s in ref.STRATEGIES:
        for i, month in enumerate(ref.MONTHS):
            w_wait, wo_wait = ref.WAIT_MIN[s][i]
            w_rate, wo_rate = ref.RATE_PCT[s][i]
            stated_time, stated_rate = ref.IMPROVE_PCT[s][i]
            calc_time, calc_rate = improvement_pcts(w_wait, wo_wait,
                                                    w_rate, wo_rate)
            if abs(calc_time - stated_time) > ref.TOLERANCE_PP:
                mismatches[(month, s, "time")] = calc_time
            if abs(calc_rate - stated_rate) > ref.TOLERANCE_PP:
                mismatches[(month, s, "rate")] = calc_rate
    assert set(mismatches) == set(ref.PINNED_RECOMPUTED)
    for key, pinned in ref.PINNED_RECOMPUTED.items():
        assert mismatches[key] == pytest.approx(pinned, abs=1e-4)


def test_benchmark_headline_cells():
    # year-long NSS wait, year-long OSS rate, best monthly NSS wait
    t, _ = improvement_pcts(6.27, 8.14, None, None)
    assert round(t, 2) == 29.82
    _, r = improvement_pcts(None, None, 89.59, 83.22)
    assert round(r, 2) == 7.65
    t, _ = improvement_pcts(5.67, 8.49, None, None)
    assert round(t, 2) == 49.74


# -- aggregation ---------------------------------------------------------


def test_horizon_covers_latest_activity():
    assert horizon_s([]) == 0.0
    assert horizon_s([rejected(0, 50.0)]) == 50.0
    assert horizon_s([abandoned(0, 10.0, 70.0)]) == 70.0
    assert horizon_s(MIXED) == 500.0     # last dropoff: 40 + 160 + 300


def test_whole_run_aggregate():
    assert whole_run(MIXED) == summarize(MIXED, (0.0, 500.0))


def test_daily_aggregate_without_epoch():
    day = 86400.0
    records = [picked(0, 100.0, 40.0), picked(1, day - 1.0, 40.0),
               rejected(2, day + 5.0), picked(3, 3 * day + 10.0, 80.0)]
    out = aggregate(records)
    assert [(s.window_start_s, s.window_end_s) for s in out] == \
        [(0.0, day), (day, 2 * day), (3 * day, 4 * day)]   # day 2 empty: absent
    assert [s.n_calls for s in out] == [2, 1, 1]
    assert sum(s.n_calls for s in out) == len(records)


def test_daily_aggregate_with_midrun_epoch():
    # runs starting at 23:30 cross midnight 1800 s in
    epoch = datetime(2013, 1, 5, 23, 30, 0)
    records = [picked(0, 0.0, 40.0), picked(1, 1800.0, 40.0)]
    out = aggregate(records, epoch)
    assert [(s.window_start_s, s.window_end_s) for s in out] == \
        [(-84600.0, 1800.0), (1800.0, 88200.0)]
    assert [s.n_calls for s in out] == [1, 1]


def test_periodic_rows_include_empty_periods():
    records = [picked(0, 50.0, 40.0), picked(1, 1850.0, 40.0)]
    rows = periodic_rows(records, 600.0)
    # horizon = 1850 + 40 + 300 = 2190 -> four rows, last clamped
    assert [(r.window_start_s, r.window_end_s) for r in rows] == \
        [(0.0, 600.0), (600.0, 1200.0), (1200.0, 1800.0), (1800.0, 2190.0)]
    assert [r.n_calls for r in rows] == [1, 0, 0, 1]


def test_periodic_rows_edges():
    with pytest.raises(ValueError):
        periodic_rows([], 0.0)
    assert periodic_rows([], 600.0) == []


def test_periodic_rows_conserve_counts():
    rng = random.Random(31)
    records = [picked(i, rng.uniform(0, 5000), rng.uniform(60, 600))
               for i in range(40)]
    rows = periodic_rows(records, 600.0)
    assert sum(r.n_calls for r in rows) == 40
    assert sum(r.n_success for r in rows) == 40


def test_partition_additivity_is_exact():
    """Quarter-second waits make every partial sum exactly representable, so
    daily totals must equal the whole-run totals to the last bit."""
    rng = random.Random(99)
    for trial in range(20):
        records = []
        for i in range(120):
            t = rng.randrange(0, 4 * 86400 * 4) / 4.0
            wait = rng.randrange(4 * 60, 4 * 3600) / 4.0
            kind = rng.random()
            if kind < 0.7:
                records.append(picked(i, t, wait))
            elif kind < 0.85:
                records.append(rejected(i, t))
            else:
                records.append(abandoned(i, t, t + 60.0))
        whole = whole_run(records)
        days = aggregate(records)
        assert sum(d.n_calls for d in days) == whole.n_calls == 120
        assert sum(d.n_success for d in days) == whole.n_success
        assert math.fsum(d.sum_wait_s for d in days) == whole.sum_wait_s


def test_comparison_text_layout():
    a = summarize(MIXED, (0.0, 500.0))
    b = summarize(MIXED[:3], (0.0, 500.0))
    text = comparison_text([("whole-run", improvement(a, b)),
                            ("day-0", improvement(b, a))])
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0].split() == ["window", "wait_with_min", "wait_without_min",
                                "rate_with", "rate_without", "wait_improve_pct",
                                "rate_improve_pct"]
    assert lines[1].startswith("whole-run")
    assert text.endswith("\n")
