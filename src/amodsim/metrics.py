"""Quality-of-service metrics over call records.

Mean wait is defined over picked-up calls only: a call that was never served
has no pickup time, and counting its patience cap instead would bound the
metric artificially. Rejected and abandoned calls still count against the
service rate. Windows with no usable data report None, never zero.

Internal times are seconds; minutes appear only in formatted text, rounded to
two decimals.
"""

import math
from dataclasses import dataclass
from datetime import datetime

from .engine import OUTCOME_PICKED_UP, CallRecord

SECONDS_PER_DAY = 86400.0

SUMMARY_COLUMNS = ("window_start_s", "window_end_s", "n_calls", "n_success",
                   "r_ts", "t_apw_min")


@dataclass(frozen=True)
class MetricsSummary:
    window_start_s: float
    window_end_s: float
    n_calls: int
    n_success: int
    sum_wait_s: float

    def __post_init__(self):
        if self.n_success > self.n_calls:
            raise ValueError(f"{self.n_success} successes out of {self.n_calls} calls")
        if self.n_success < 0:
            raise ValueError(f"negative success count {self.n_success}")

    @property
    def t_apw_s(self) -> float | None:
        if self.n_success == 0:
            return None
        return self.sum_wait_s / self.n_success

    @property
    def t_apw_min(self) -> float | None:
        return None if self.t_apw_s is None else self.t_apw_s / 60.0

    @property
    def r_ts(self) -> float | None:
        if self.n_calls == 0:
            return None
        return self.n_success / self.n_calls

    def row(self) -> str:
        return "\t".join([
            repr(self.window_start_s),
            repr(self.window_end_s),
            str(self.n_calls),
            str(self.n_success),
            fmt(self.r_ts, 4),
            fmt(self.t_apw_min, 2),
        ])


def fmt(value: float | None, places: int) -> str:
    """A metric with fixed decimals; "NA" for a window with no data."""
    return "NA" if value is None else f"{value:.{places}f}"


def _waits(records: list[CallRecord]) -> list[float]:
    return [r.wait_s for r in records if r.outcome == OUTCOME_PICKED_UP]


def summarize(records: list[CallRecord], window: tuple[float, float]) -> MetricsSummary:
    waits = _waits(records)
    return MetricsSummary(window[0], window[1], len(records), len(waits),
                          math.fsum(waits))


@dataclass(frozen=True)
class ImprovementReport:
    with_eat: MetricsSummary
    without_eat: MetricsSummary
    time_improvement_pct: float | None
    rate_improvement_pct: float | None


def improvement_pcts(t_with_s: float | None, t_without_s: float | None,
                     r_with: float | None, r_without: float | None,
                     ) -> tuple[float | None, float | None]:
    """Improvement percentages from raw metric values.

    Wait improvement is relative to the value WITH expansion (how much longer
    the baseline waits), service-rate improvement relative to the value
    WITHOUT it (how much more gets served). Zero or missing denominators give
    None.
    """
    time_pct = None
    if t_with_s is not None and t_without_s is not None and t_with_s != 0.0:
        time_pct = (t_without_s / t_with_s - 1.0) * 100.0
    rate_pct = None
    if r_with is not None and r_without is not None and r_without != 0.0:
        rate_pct = (r_with / r_without - 1.0) * 100.0
    return time_pct, rate_pct


def improvement(with_eat: MetricsSummary, without_eat: MetricsSummary) -> ImprovementReport:
    time_pct, rate_pct = improvement_pcts(with_eat.t_apw_s, without_eat.t_apw_s,
                                          with_eat.r_ts, without_eat.r_ts)
    return ImprovementReport(with_eat, without_eat, time_pct, rate_pct)


def _activity_end_s(r: CallRecord) -> float:
    if r.dropoff_time_s is not None:
        return r.dropoff_time_s
    if r.abandon_time_s is not None:
        return r.abandon_time_s
    return r.request_time_s


def horizon_s(records: list[CallRecord]) -> float:
    return max((_activity_end_s(r) for r in records), default=0.0)


def _epoch_midnight_offset_s(epoch: datetime | None) -> float:
    if epoch is None:
        return 0.0
    midnight = epoch.replace(hour=0, minute=0, second=0, microsecond=0)
    return (epoch - midnight).total_seconds()


def whole_run(records: list[CallRecord]) -> MetricsSummary:
    """One summary from time zero to the end of the last activity."""
    return summarize(records, (0.0, horizon_s(records)))


def aggregate(records: list[CallRecord], epoch: datetime | None = None) -> list[MetricsSummary]:
    """Group records by the day of their request time and summarize each day.

    Day boundaries fall at local midnight of the calendar the epoch
    datetime anchors; without an epoch, time zero is treated as a
    midnight. Only days that contain records are returned, so counts are
    conserved against the whole-run summary.
    """
    offset = _epoch_midnight_offset_s(epoch)
    groups: dict[int, list[CallRecord]] = {}
    for r in records:
        groups.setdefault(int((r.request_time_s + offset) // SECONDS_PER_DAY), []).append(r)
    return [summarize(groups[k], (k * SECONDS_PER_DAY - offset,
                                  (k + 1) * SECONDS_PER_DAY - offset))
            for k in sorted(groups)]


def periodic_rows(records: list[CallRecord], period_s: float) -> list[MetricsSummary]:
    """One summary per elapsed period, empty periods included.

    The final period is flushed even when partial (its window is clamped to
    the run horizon). An empty record stream has no elapsed time and yields
    no rows.
    """
    if period_s <= 0.0:
        raise ValueError(f"period must be positive, got {period_s}")
    if not records:
        return []
    end_s = horizon_s(records)
    groups: dict[int, list[CallRecord]] = {}
    last_k = -1
    for r in records:
        k = int(r.request_time_s // period_s)
        groups.setdefault(k, []).append(r)
        last_k = max(last_k, k)
    n_rows = max(math.ceil(end_s / period_s), last_k + 1)
    rows = []
    for k in range(n_rows):
        start = k * period_s
        end = start + period_s
        if k == n_rows - 1:
            end = max(start, min(end, end_s))
        rows.append(summarize(groups.get(k, []), (start, end)))
    return rows


def summary_text(summaries: list[MetricsSummary]) -> str:
    lines = ["\t".join(SUMMARY_COLUMNS)]
    lines.extend(s.row() for s in summaries)
    return "\n".join(lines) + "\n"


def comparison_text(rows: list[tuple[str, ImprovementReport]]) -> str:
    """Aligned per-window wait/rate table for a with/without pair of runs."""
    header = (f"{'window':<12} {'wait_with_min':>13} {'wait_without_min':>16} "
              f"{'rate_with':>9} {'rate_without':>12} {'wait_improve_pct':>16} "
              f"{'rate_improve_pct':>16}")
    lines = [header]
    for label, rep in rows:
        w = rep.with_eat
        wo = rep.without_eat
        lines.append(
            f"{label:<12} {fmt(w.t_apw_min, 2):>13} {fmt(wo.t_apw_min, 2):>16} "
            f"{fmt(w.r_ts, 4):>9} {fmt(wo.r_ts, 4):>12} "
            f"{fmt(rep.time_improvement_pct, 2):>16} "
            f"{fmt(rep.rate_improvement_pct, 2):>16}")
    return "\n".join(lines) + "\n"
