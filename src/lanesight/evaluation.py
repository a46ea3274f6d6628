"""Metrics: identification accuracy curves and safety/comfort measures.

TTC protocol: measured against a chosen target from the instant the target's
center first occupies the ego's lane, using bumper-to-bumper gap divided by
closing speed, only at samples where the gap is actually closing. Runs where
the relevance window is empty or never closing report an undefined average
(None), which paired comparisons exclude rather than coercing to infinity.

Acceleration and jerk are computed on the log's grid, LOG_PERIOD for a run;
jerk is the difference quotient of acceleration between adjacent samples.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scene import TrajectoryLog


@dataclass(frozen=True)
class SafetyReport:
    avg_ttc: float | None
    mean_abs_accel: float
    max_jerk: float
    collision: bool
    trip_duration: float


def identification_accuracy(rows, thresholds) -> dict[str, tuple[float, ...]]:
    """Per-method accuracy at each of the IoU thresholds, in their order, from
    identification rows (t, method, chosen source id or None, IoU against the
    target's box, candidate count); a no-match has IoU 0 and counts as incorrect."""
    by_method: dict[str, list[float]] = {}
    for _, method, _, overlap, _ in rows:
        by_method.setdefault(method, []).append(overlap)
    curves = {}
    for method, overlaps in by_method.items():
        arr = np.asarray(overlaps)
        curves[method] = tuple(float(np.mean(arr >= th)) for th in thresholds)
    return curves


TTC_HORIZON = 30.0  # seconds; larger values mean no meaningful interaction
TTC_MIN_CLOSING = 0.1  # m/s; slower approach is treated as non-closing


def ttc_series(log: TrajectoryLog, ego_id: int,
               target_id: int) -> tuple[list[tuple[float, float]], float | None]:
    """Time-to-collision samples while closing, from the target's lane entry.

    Samples count only while the gap closes faster than TTC_MIN_CLOSING and
    the resulting TTC is below the horizon; a vanishing closing speed would
    otherwise contribute arbitrarily large, meaningless values.
    """
    ego_lane = log.column(ego_id, "lane").astype(int)
    tgt_lane = log.column(target_id, "lane").astype(int)
    in_lane = tgt_lane == ego_lane
    if not in_lane.any():
        return [], None
    start = int(np.argmax(in_lane))
    gap = (log.column(target_id, "s") - log.column(ego_id, "s")
           - 0.5 * (log.length_of(target_id) + log.length_of(ego_id)))
    closing = log.column(ego_id, "v") - log.column(target_id, "v")
    series = []
    for i in range(start, len(log.times)):
        if gap[i] > 0.0 and closing[i] > TTC_MIN_CLOSING:
            value = gap[i] / closing[i]
            if value <= TTC_HORIZON:
                series.append((float(log.times[i]), float(value)))
    if not series:
        return [], None
    return series, float(np.mean([v for _, v in series]))


def accel_jerk_metrics(log: TrajectoryLog, vehicle_id: int) -> tuple[float, float]:
    """(mean |a|, max |da/dt|) for one vehicle on the log's grid."""
    a = log.column(vehicle_id, "a")
    mean_abs = float(np.mean(np.abs(a)))
    if len(a) < 2:
        return mean_abs, 0.0
    jerk = np.diff(a) / log.dt
    return mean_abs, float(np.max(np.abs(jerk)))


def classification_metrics(predicted, truth) -> tuple[float | None, float | None,
                                                     float | None]:
    """(accuracy, true positive rate, false positive rate); a figure with no
    timestep to average over is None."""
    p = np.asarray(predicted, dtype=int)
    g = np.asarray(truth, dtype=int)
    accuracy = float(np.mean(p == g)) if p.size else None
    positives = int((g == 1).sum())
    negatives = int((g == 0).sum())
    tpr = float(((p == 1) & (g == 1)).sum() / positives) if positives else None
    fpr = float(((p == 1) & (g == 0)).sum() / negatives) if negatives else None
    return accuracy, tpr, fpr


def conflict_target_id(log: TrajectoryLog, ego_id: int) -> int | None:
    """First vehicle to enter the ego's lane ahead of the ego, if any."""
    ego_lane = log.column(ego_id, "lane").astype(int)
    ego_s = log.column(ego_id, "s")
    best = None  # (entry index, vehicle id)
    for vid in log.vehicle_ids:
        if vid == ego_id or log.kind_of(vid) == "truck":
            continue
        in_lane = log.column(vid, "lane").astype(int) == ego_lane
        if not in_lane.any() or in_lane[0]:
            continue
        entry = int(np.argmax(in_lane))
        if log.column(vid, "s")[entry] <= ego_s[entry]:
            continue
        if best is None or entry < best[0]:
            best = (entry, vid)
    return None if best is None else best[1]


def safety_report(log: TrajectoryLog, ego_id: int) -> SafetyReport:
    target_id = conflict_target_id(log, ego_id)
    avg_ttc = None
    if target_id is not None:
        _, avg_ttc = ttc_series(log, ego_id, target_id)
    mean_abs, max_jerk = accel_jerk_metrics(log, ego_id)
    return SafetyReport(avg_ttc=avg_ttc, mean_abs_accel=mean_abs, max_jerk=max_jerk,
                        collision=bool(log.collisions),
                        trip_duration=float(log.times[-1] - log.times[0]))


def compare_paired_runs(guided: list[SafetyReport], baseline: list[SafetyReport]) -> dict:
    """Paired per-metric differences oriented so positive means guided wins,
    as comparison.json's document; a pair missing a metric's value is skipped."""
    doc = {"pair_count": len(guided)}
    for metric, higher_is_better in (("avg_ttc", True), ("mean_abs_accel", False),
                                     ("max_jerk", False)):
        pairs = [(getattr(g, metric), getattr(b, metric)) for g, b in zip(guided, baseline)]
        diffs = [g - b if higher_is_better else b - g
                 for g, b in pairs if g is not None and b is not None]
        arr = np.asarray(diffs)
        doc[metric] = {"median_improvement": float(np.median(arr)) if diffs else None,
                       "improve_fraction": float(np.mean(arr > 0)) if diffs else None,
                       "pairs_compared": len(diffs)}
    return doc
