import math

import numpy as np
import pytest

from lanesight.evaluation import (
    SafetyReport,
    accel_jerk_metrics,
    classification_metrics,
    compare_paired_runs,
    identification_accuracy,
    ttc_series,
)
from lanesight.geometry import Box2D, iou
from lanesight.scene import LaneSpec, TrajectoryLog

LANES = LaneSpec()


def row(method, chosen_box, truth_box):
    """An identification row: (t, method, chosen source id, IoU, candidate count)."""
    if chosen_box is None:
        return (0.0, method, None, 0.0, 1)
    return (0.0, method, 1, iou(chosen_box, truth_box), 1)


def shifted_box(base: Box2D, frac: float) -> Box2D:
    # shift horizontally so that IoU(base, shifted) == (1-frac)/(1+frac)
    dx = frac * base.width
    return Box2D(base.u_min + dx, base.v_min, base.u_max + dx, base.v_max)


class TestIdentificationAccuracy:
    def test_perfect_matches(self):
        box = Box2D(0, 0, 100, 60)
        frames = [row("fused", box, box) for _ in range(5)]
        curves = identification_accuracy(frames, [0.5, 0.7, 0.9])
        assert curves["fused"] == (1.0, 1.0, 1.0)

    def test_all_no_match(self):
        box = Box2D(0, 0, 100, 60)
        frames = [row("baseline", None, box) for _ in range(4)]
        curves = identification_accuracy(frames, [0.5, 0.7])
        assert curves["baseline"] == (0.0, 0.0)

    def test_counting_with_known_ious(self):
        # 6 frames at IoU 0.9, 2 at 0.6, 2 misses:
        # accuracy 0.8 at th=0.5 and 0.6 at th=0.7
        base = Box2D(0, 0, 100, 60)
        frames = []
        for _ in range(6):
            frames.append(row("fused", shifted_box(base, 1 / 19), base))  # IoU 0.9
        for _ in range(2):
            frames.append(row("fused", shifted_box(base, 0.25), base))    # IoU 0.6
        for _ in range(2):
            frames.append(row("fused", None, base))
        curves = identification_accuracy(frames, [0.5, 0.7])
        assert curves["fused"][0] == pytest.approx(0.8)  # at 0.5
        assert curves["fused"][1] == pytest.approx(0.6)  # at 0.7

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(3)
        base = Box2D(0, 0, 100, 60)
        frames = [row("fused", shifted_box(base, rng.uniform(0, 0.9)), base)
                  for _ in range(60)]
        curves = identification_accuracy(frames, np.arange(0.1, 1.0, 0.1))
        accs = curves["fused"]
        assert all(b <= a + 1e-12 for a, b in zip(accs, accs[1:]))


def build_log(ego, target, dt=0.1, ego_lane=None, target_lane=None):
    """Two-vehicle log from per-sample (s, v) arrays plus lane index arrays."""
    n = len(ego["s"])
    times = np.arange(n) * dt
    data = {}
    for vid, d, lane in ((0, ego, ego_lane), (1, target, target_lane)):
        lane_arr = np.asarray(lane if lane is not None else np.full(n, 2), dtype=float)
        a = d.get("a", np.zeros(n))
        data[vid] = (np.asarray(d["s"], dtype=float),
                     np.full(n, LANES.center(2)),
                     np.asarray(d["v"], dtype=float),
                     np.asarray(a, dtype=float),
                     lane_arr)
    meta = {0: ("ego", 4.5, 1.8, 1.5), 1: ("car", 4.5, 1.8, 1.5)}
    return TrajectoryLog(times=times, dt=dt, meta=meta, data=data, plans=[],
                         ego_id=0, collisions=[], lanes=LANES)


class TestTtcSeries:
    def test_constant_closing_speed(self):
        # ego 20 m/s, target 10 m/s ahead with 50 m bumper gap at t=0
        n = 11
        t = np.arange(n) * 0.1
        log = build_log({"s": 20.0 * t, "v": np.full(n, 20.0)},
                        {"s": 54.5 + 10.0 * t, "v": np.full(n, 10.0)})
        series, avg = ttc_series(log, 0, 1)
        assert series[0][1] == pytest.approx(5.0)
        expected = np.mean([(50.0 - 10.0 * ti) / 10.0 for ti in t])
        assert avg == pytest.approx(expected)

    def test_non_closing_is_undefined(self):
        n = 11
        t = np.arange(n) * 0.1
        log = build_log({"s": 10.0 * t, "v": np.full(n, 10.0)},
                        {"s": 54.5 + 20.0 * t, "v": np.full(n, 20.0)})
        series, avg = ttc_series(log, 0, 1)
        assert series == [] and avg is None

    def test_target_never_in_lane_is_undefined(self):
        n = 11
        t = np.arange(n) * 0.1
        log = build_log({"s": 20.0 * t, "v": np.full(n, 20.0)},
                        {"s": 54.5 + 10.0 * t, "v": np.full(n, 10.0)},
                        target_lane=np.full(n, 1))
        series, avg = ttc_series(log, 0, 1)
        assert avg is None

    def test_window_starts_at_lane_entry(self):
        n = 11
        t = np.arange(n) * 0.1
        target_lane = np.concatenate([np.full(5, 1), np.full(n - 5, 2)])
        log = build_log({"s": 20.0 * t, "v": np.full(n, 20.0)},
                        {"s": 54.5 + 10.0 * t, "v": np.full(n, 10.0)},
                        target_lane=target_lane)
        series, _ = ttc_series(log, 0, 1)
        assert series[0][0] == pytest.approx(0.5)

    def test_positive_wherever_defined(self):
        rng = np.random.default_rng(8)
        n = 50
        t = np.arange(n) * 0.1
        ego_v = rng.uniform(10, 25, n)
        tgt_v = rng.uniform(10, 25, n)
        log = build_log({"s": np.cumsum(ego_v) * 0.1, "v": ego_v},
                        {"s": 80 + np.cumsum(tgt_v) * 0.1, "v": tgt_v})
        series, _ = ttc_series(log, 0, 1)
        assert all(val > 0 for _, val in series)


class TestAccelJerk:
    def test_constant_speed(self):
        n = 41
        log = build_log({"s": np.arange(n) * 2.0, "v": np.full(n, 20.0)},
                        {"s": np.arange(n) * 2.0 + 60, "v": np.full(n, 20.0)})
        assert accel_jerk_metrics(log, 0) == (0.0, 0.0)

    def test_constant_acceleration(self):
        n = 41
        a = np.full(n, 2.0)
        log = build_log({"s": np.zeros(n), "v": np.zeros(n), "a": a},
                        {"s": np.ones(n) * 60, "v": np.zeros(n)})
        mean_abs, max_jerk = accel_jerk_metrics(log, 0)
        assert mean_abs == pytest.approx(2.0)
        assert max_jerk == pytest.approx(0.0)

    def test_step_change_jerk(self):
        # acceleration drops 0 -> -4 across one 0.1 s sample: jerk 40
        a = np.concatenate([np.zeros(20), np.full(21, -4.0)])
        n = len(a)
        log = build_log({"s": np.zeros(n), "v": np.zeros(n), "a": a},
                        {"s": np.ones(n) * 60, "v": np.zeros(n)})
        _, max_jerk = accel_jerk_metrics(log, 0)
        assert max_jerk == pytest.approx(40.0)


class TestClassificationMetrics:
    def test_perfect(self):
        acc, tpr, fpr = classification_metrics([0, 1, 1, 0], [0, 1, 1, 0])
        assert (acc, tpr, fpr) == (1.0, 1.0, 0.0)

    def test_all_ones(self):
        acc, tpr, fpr = classification_metrics([1, 1, 1, 1], [0, 1, 0, 1])
        assert tpr == 1.0 and fpr == 1.0

    def test_printed_trace_counts(self):
        truth = [0, 0, 0, 0, 0, 0, 0, 1]
        pred = [0, 0, 0, 1, 0, 0, 0, 1]
        acc, tpr, fpr = classification_metrics(pred, truth)
        assert acc == pytest.approx(7 / 8)
        assert tpr == pytest.approx(1.0)
        assert fpr == pytest.approx(1 / 7)

    def test_undefined_figures_are_none(self):
        assert classification_metrics([0, 1], [0, 0]) == (0.5, None, 0.5)
        assert classification_metrics([1], [1]) == (1.0, 1.0, None)
        assert classification_metrics([], []) == (None, None, None)


def report(ttc, accel, jerk):
    return SafetyReport(avg_ttc=ttc, mean_abs_accel=accel, max_jerk=jerk,
                        collision=False, trip_duration=30.0)


class TestComparePairedRuns:
    def test_identical_runs(self):
        runs = [report(5.0, 1.0, 10.0) for _ in range(4)]
        cmp = compare_paired_runs(runs, list(runs))
        assert cmp["avg_ttc"]["median_improvement"] == 0.0
        assert cmp["mean_abs_accel"]["improve_fraction"] == 0.0
        assert cmp["max_jerk"]["median_improvement"] == 0.0

    def test_a_tie_keeps_a_positive_zero(self):
        # comparison.json writes the median as computed; == 0.0 also holds for -0.0
        runs = [report(5.0 + k, 1.0 + 0.1 * k, 10.0 + k) for k in range(4)]
        cmp = compare_paired_runs(runs, list(runs))
        for metric in ("avg_ttc", "mean_abs_accel", "max_jerk"):
            assert math.copysign(1.0, cmp[metric]["median_improvement"]) == 1.0

    def test_uniform_ttc_gain(self):
        base = [report(5.0, 1.0, 10.0) for _ in range(5)]
        guided = [report(6.5, 1.0, 10.0) for _ in range(5)]
        cmp = compare_paired_runs(guided, base)
        assert cmp["avg_ttc"]["median_improvement"] == pytest.approx(1.5)
        assert cmp["avg_ttc"]["improve_fraction"] == 1.0

    def test_undefined_ttc_excluded(self):
        base = [report(5.0, 1.0, 10.0), report(None, 1.0, 10.0)]
        guided = [report(6.0, 0.8, 9.0), report(None, 0.8, 9.0)]
        cmp = compare_paired_runs(guided, base)
        assert cmp["avg_ttc"]["pairs_compared"] == 1
        assert cmp["mean_abs_accel"]["pairs_compared"] == 2
        assert cmp["mean_abs_accel"]["improve_fraction"] == 1.0
