"""Target identification from detections, depth, and the cloud anchor point.

Two matchers share the anchor-containment shortlist:

  match_target           multi-candidate ties are broken by comparing each
                         candidate's depth estimate with the cloud-reported
                         distance d_g (minimum absolute difference wins);
  match_target_baseline  image-only fallback that picks the candidate whose
                         box center is nearest the anchor.

Depth estimates come from averaging seeded uniform pixel samples in the
shrunken lower quarter of each box, which keeps samples on the vehicle body
and measures its near face.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

from . import seeding
from .geometry import BehindCamera, Box2D, PixelPoint, project_anchor
from .params import POSITIVE, RUN_SEED, check_fields, rule
from .sensing import Detection, DepthMap, SensorFrame
from .twinlink import TwinRecord


class EmptyRegion(Exception):
    """A shrunken sampling region contains no whole pixel."""


@dataclass(frozen=True)
class DepthEstimate:
    index: int
    distance: float


@dataclass(frozen=True)
class IdentificationResult:
    t: float
    chosen: Detection | None
    method: str  # "fused" | "baseline"
    anchor: PixelPoint | None
    candidate_count: int

    @property
    def matched(self) -> bool:
        return self.chosen is not None


@dataclass(frozen=True)
class FusionParams:
    shrink: float = field(default=0.8, metadata=rule(lambda x: 0.0 < x <= 1.0))
    samples: int = field(default=16, metadata=POSITIVE)
    seed: int = field(default=0, metadata=RUN_SEED)

    def __post_init__(self):
        check_fields(self)


def shrink_box(b: Box2D, th: float) -> Box2D:
    """Scale width and height by th about the box center."""
    if not 0.0 < th <= 1.0:
        raise ValueError("shrink factor must be in (0, 1]")
    cu, cv = b.center
    half_w = 0.5 * th * b.width
    half_h = 0.5 * th * b.height
    return Box2D(cu - half_w, cv - half_h, cu + half_w, cv + half_h)


def _sample_region(b: Box2D, th: float) -> tuple[int, int, int, int] | None:
    """Whole-pixel bounds (u_lo, u_hi, v_lo, v_hi) of the shrunken lower quarter."""
    s = shrink_box(b, th)
    v_top = s.v_max - 0.25 * s.height
    u_lo, u_hi = math.ceil(s.u_min), math.floor(s.u_max - 1.0)
    v_lo, v_hi = math.ceil(v_top), math.floor(s.v_max - 1.0)
    if u_lo > u_hi or v_lo > v_hi:
        return None
    return u_lo, u_hi, v_lo, v_hi


def depth_evaluate(img_d: DepthMap, boxes: list[Box2D], th: float = FusionParams.shrink,
                   n: int = FusionParams.samples, seed: int = 0) -> list[DepthEstimate]:
    """Average n seeded uniform depth samples per box, in input order."""
    if n < 1:
        raise ValueError("need at least one sample point")
    rng = seeding.rng_for(seed, seeding.SAMPLER)
    estimates = []
    for i, box in enumerate(boxes):
        region = _sample_region(box, th)
        if region is None:
            raise EmptyRegion(f"box {i} has no whole pixel in its sampling region")
        u_lo, u_hi, v_lo, v_hi = region
        us = rng.integers(u_lo, u_hi + 1, size=n)
        vs = rng.integers(v_lo, v_hi + 1, size=n)
        total = math.fsum(img_d.values[v, u] for u, v in zip(us, vs))
        estimates.append(DepthEstimate(i, total / n))
    return estimates


def _candidates(anchor: PixelPoint, detections) -> list[int]:
    return [i for i, det in enumerate(detections) if det.box.contains(anchor.u, anchor.v)]


def match_target(anchor: PixelPoint, detections: list[Detection],
                 depths: list[DepthEstimate], d_g: float,
                 t: float = 0.0) -> IdentificationResult:
    """Pick the anchor-containing detection whose depth best matches d_g.

    A unique containment wins outright; zero containments yield a no-match
    result. Exact difference ties resolve to the smallest index.
    """
    if len(depths) != len(detections):
        raise ValueError("depth estimates must align with detections")
    cand = _candidates(anchor, detections)
    if not cand:
        return IdentificationResult(t, None, "fused", anchor, 0)
    if len(cand) == 1:
        return IdentificationResult(t, detections[cand[0]], "fused", anchor, 1)
    best = min(cand, key=lambda i: (abs(depths[i].distance - d_g), i))
    return IdentificationResult(t, detections[best], "fused", anchor, len(cand))


def match_target_baseline(anchor: PixelPoint, detections: list[Detection],
                          t: float = 0.0) -> IdentificationResult:
    """Image-only matcher: nearest box center among anchor-containing boxes."""
    cand = _candidates(anchor, detections)
    if not cand:
        return IdentificationResult(t, None, "baseline", anchor, 0)
    if len(cand) == 1:
        return IdentificationResult(t, detections[cand[0]], "baseline", anchor, 1)

    def center_dist(i: int) -> float:
        cu, cv = detections[i].box.center
        return (cu - anchor.u) ** 2 + (cv - anchor.v) ** 2

    best = min(cand, key=lambda i: (center_dist(i), i))
    return IdentificationResult(t, detections[best], "baseline", anchor, len(cand))


def identify(frame: SensorFrame, twin: TwinRecord, d_g: float,
             params: FusionParams, method: str = "fused") -> IdentificationResult:
    """Per-frame identification pipeline; degenerate frames yield no-match."""
    intr = frame.camera.intrinsics
    try:
        anchor = project_anchor(twin.position, frame.camera.extrinsics, intr)
    except BehindCamera:
        return IdentificationResult(frame.t, None, method, None, 0)
    if not (0.0 <= anchor.u < intr.width and 0.0 <= anchor.v < intr.height):
        return IdentificationResult(frame.t, None, method, anchor, 0)

    if method == "baseline":
        return match_target_baseline(anchor, frame.detections, t=frame.t)
    if method != "fused":
        raise ValueError(f"unknown method {method!r}")

    cand = _candidates(anchor, frame.detections)
    if len(cand) <= 1:
        chosen = frame.detections[cand[0]] if cand else None
        return IdentificationResult(frame.t, chosen, "fused", anchor, len(cand))

    evaluable = [i for i in cand
                 if _sample_region(frame.detections[i].box, params.shrink) is not None]
    if not evaluable:
        # no candidate offers depth pixels; fall back to the image-only rule
        result = match_target_baseline(anchor, frame.detections, t=frame.t)
        return IdentificationResult(frame.t, result.chosen, "fused", anchor, len(cand))
    subset = [frame.detections[i] for i in evaluable]
    depths = depth_evaluate(frame.depth, [d.box for d in subset],
                            th=params.shrink, n=params.samples, seed=params.seed)
    result = match_target(anchor, subset, depths, d_g, t=frame.t)
    return IdentificationResult(frame.t, result.chosen, "fused", anchor, len(cand))


def write_results_csv(rows, path):
    """rows: (t, method, chosen_source_id, gt_target_id, iou_vs_gt, candidate_count)"""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "method", "chosen_source_id", "gt_target_id",
                    "iou_vs_gt", "candidate_count"])
        for t, method, chosen_id, gt_id, iou_val, count in rows:
            w.writerow([f"{t:.2f}", method,
                        "" if chosen_id is None else chosen_id,
                        gt_id, f"{iou_val:.6f}", count])
