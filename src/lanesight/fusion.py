"""Target identification from detections, depth, and the cloud anchor point.

One decision order serves every frame. The cloud position projects to an
anchor pixel; an anchor behind the camera or off the image is a no-match.
The candidates are the boxes that contain the anchor, edges included; none
is a no-match. The "fused" method with several candidates picks, among those
with a depth sampling region, the least |depth estimate - d_g| (d_g is the
cloud-reported distance); every other case, "baseline" included, picks the
box center nearest the anchor. Equal costs go to the smallest index.

Depth estimates come from averaging seeded uniform pixel samples in the
shrunken lower quarter of each box, which keeps samples on the vehicle body
and measures its near face.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import seeding
from .geometry import BehindCamera, Box2D, PixelPoint, WorldPoint, project_anchor
from .params import RUN_SEED, Checked, rule
from .sensing import Detection, DepthMap, SensorFrame


@dataclass(frozen=True)
class IdentificationResult:
    chosen: Detection | None
    candidate_count: int


# the most depth samples per box: at it, on a 2-vCPU Xeon host, a default fuse-eval
# takes 18 s and peaks at 41 MB
MAX_FUSION_SAMPLES = 10**5


@dataclass(frozen=True)
class FusionParams(Checked):
    shrink: float = field(default=0.8, metadata=rule(lambda x: 0.0 < x <= 1.0))
    samples: int = field(default=16, metadata=rule(lambda x: 0 < x <= MAX_FUSION_SAMPLES))
    seed: int = field(default=0, metadata=RUN_SEED)


def shrink_box(b: Box2D, th: float) -> Box2D:
    """Scale width and height by th about the box center."""
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
                   n: int = FusionParams.samples, seed: int = 0) -> list[float]:
    """Average n seeded uniform depth samples per box (each with a sampling region)."""
    rng = seeding.rng_for(seed, seeding.SAMPLER)
    estimates = []
    for box in boxes:
        u_lo, u_hi, v_lo, v_hi = _sample_region(box, th)
        us = rng.integers(u_lo, u_hi + 1, size=n)
        vs = rng.integers(v_lo, v_hi + 1, size=n)
        total = math.fsum(img_d.at(u, v) for u, v in zip(us, vs))
        estimates.append(total / n)
    return estimates


def _choose(detections, pool: list[int], cost) -> Detection | None:
    """The detection at the pool index with the least (cost, index); None if empty."""
    best = min(pool, key=lambda i: (cost(i), i), default=None)
    return None if best is None else detections[best]


def _center_distance(anchor: PixelPoint, detections):
    """Cost: squared pixel distance from the anchor to a detection's box center."""
    def cost(i: int) -> float:
        cu, cv = detections[i].box.center
        return (cu - anchor.u) ** 2 + (cv - anchor.v) ** 2
    return cost


def identify(frame: SensorFrame, reported: WorldPoint, d_g: float,
             params: FusionParams, method: str = "fused") -> IdentificationResult:
    """Per-frame identification pipeline from the cloud-reported position;
    degenerate frames yield no-match."""
    intr = frame.camera.intrinsics
    try:
        anchor = project_anchor(reported, frame.camera.extrinsics, intr)
    except BehindCamera:
        return IdentificationResult(None, 0)
    if not (0.0 <= anchor.u < intr.width and 0.0 <= anchor.v < intr.height):
        return IdentificationResult(None, 0)

    dets = frame.detections
    cand = [i for i, det in enumerate(dets) if det.box.contains(anchor.u, anchor.v)]
    pool, cost = cand, _center_distance(anchor, dets)
    if method == "fused" and len(cand) > 1:
        evaluable = [i for i in cand if _sample_region(dets[i].box, params.shrink) is not None]
        if evaluable:
            estimates = depth_evaluate(frame.depth, [dets[i].box for i in evaluable],
                                       th=params.shrink, n=params.samples, seed=params.seed)
            depth = dict(zip(evaluable, estimates))
            pool, cost = evaluable, lambda i: abs(depth[i] - d_g)
    return IdentificationResult(_choose(dets, pool, cost), len(cand))
