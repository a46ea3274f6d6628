import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lanesight import fusion
from lanesight.geometry import (
    BehindCamera,
    Box2D,
    Camera,
    CameraExtrinsics,
    CameraIntrinsics,
    WorldPoint,
    project_anchor,
)
from lanesight.fusion import (
    FusionParams,
    depth_evaluate,
    identify,
    shrink_box,
)
from lanesight.scene import VehicleState
from lanesight.sensing import (
    Detection,
    DepthMap,
    DetectorNoiseModel,
    SensorFrame,
    render_depth_map,
    render_truth_boxes,
)
from lanesight.twinlink import gnss_distance

INTR = CameraIntrinsics(focal_length=0.005, pixel_size_x=5e-6, pixel_size_y=5e-6,
                        u0=480.0, v0=270.0, width=960, height=540)
CAM = Camera(CameraExtrinsics.looking_along_road(WorldPoint(0.0, 5.25, 1.4)), INTR)


def det(u0, v0, u1, v1, source=None):
    return Detection(Box2D(u0, v0, u1, v1), source_id=source)


def flat_depth(value, width=960, height=540):
    return DepthMap(width, height, np.full((height, width), float(value)))


class TestShrinkBox:
    def test_identity(self):
        b = Box2D(3.0, 4.0, 10.0, 20.0)
        assert shrink_box(b, 1.0) == b

    def test_twenty_percent_smaller(self):
        assert shrink_box(Box2D(0, 0, 100, 50), 0.8) == Box2D(10, 5, 90, 45)

    def test_center_preserved(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            u0, u1 = sorted(rng.uniform(0, 900, 2))
            v0, v1 = sorted(rng.uniform(0, 500, 2))
            before = Box2D(u0, v0, u1, v1)
            after = shrink_box(before, rng.uniform(0.05, 1.0))
            assert after.center == pytest.approx(before.center, abs=1e-9)


class TestDepthEvaluate:
    def test_constant_region_exact(self):
        img = flat_depth(18.69)
        box = Box2D(100, 100, 300, 260)
        for n, seed in ((1, 0), (16, 3), (64, 99)):
            (est,) = depth_evaluate(img, [box], th=0.8, n=n, seed=seed)
            assert est == pytest.approx(18.69, abs=1e-12)

    def test_input_order_preserved(self):
        values = np.full((540, 960), 1.0)
        values[:, :480] = 5.0
        values[:, 480:] = 9.0
        img = DepthMap(960, 540, values)
        left = Box2D(50, 50, 200, 200)
        right = Box2D(600, 50, 750, 200)
        ests = depth_evaluate(img, [right, left], n=8, seed=1)
        assert ests == [pytest.approx(9.0), pytest.approx(5.0)]

    def test_samples_confined_to_shrunken_lower_quarter(self):
        # poison every pixel outside the region; a clean estimate proves
        # all samples stayed inside
        box = Box2D(100, 100, 300, 260)
        s = shrink_box(box, 0.8)
        values = np.full((540, 960), np.nan)
        v_top = s.v_max - 0.25 * s.height
        values[int(np.ceil(v_top)):int(s.v_max), int(np.ceil(s.u_min)):int(s.u_max)] = 7.5
        img = DepthMap(960, 540, values)
        for seed in range(20):
            (est,) = depth_evaluate(img, [box], th=0.8, n=32, seed=seed)
            assert est == pytest.approx(7.5)

    def test_determinism(self):
        img = DepthMap(960, 540, 20.0 + np.random.default_rng(0).normal(0, 0.1, (540, 960)))
        boxes = [Box2D(100, 100, 300, 260), Box2D(400, 200, 600, 400)]
        a = depth_evaluate(img, boxes, th=0.8, n=16, seed=5)
        b = depth_evaluate(img, boxes, th=0.8, n=16, seed=5)
        assert a == b

    def test_noisy_estimates_concentrate(self):
        # with sigma=0.1 and n=64 the mean lands within 4*sigma/sqrt(n)
        # of truth in essentially all trials (acceptance runs 1000)
        rng = np.random.default_rng(12)
        box = Box2D(100, 100, 420, 360)
        hits = 0
        trials = 300
        for trial in range(trials):
            noise = rng.normal(0.0, 0.1, (400, 480))
            img = DepthMap(480, 400, np.full((400, 480), 18.69) + noise)
            (est,) = depth_evaluate(img, [box], th=0.8, n=64, seed=trial)
            if abs(est - 18.69) <= 4 * 0.1 / np.sqrt(64):
                hits += 1
        assert hits / trials >= 0.99


def painted(*layers):
    """A CAM-sized raster with each (detection, depth) painted over the ones before."""
    values = np.full((INTR.height, INTR.width), DepthMap.far_value)
    for d, depth in layers:
        values[int(d.box.v_min):int(d.box.v_max), int(d.box.u_min):int(d.box.u_max)] = depth
    return DepthMap(INTR.width, INTR.height, values)


def identify_at(u, v, dets, depth, d_g=20.0, method="fused"):
    """identify on a CAM frame of dets, for a reported position whose anchor is pixel (u, v)."""
    x = 20.0  # meters ahead of the camera
    position = WorldPoint(x, 5.25 - (u - INTR.u0) * x / INTR.fx,
                          1.4 - (v - INTR.v0) * x / INTR.fy)
    anchor = project_anchor(position, CAM.extrinsics, INTR)
    assert (anchor.u, anchor.v) == (pytest.approx(u), pytest.approx(v))
    frame = SensorFrame(t=0.0, detections=dets, depth=depth, camera=CAM)
    return identify(frame, position, d_g, FusionParams(), method)


class TestFusedMatch:
    def test_unique_containment_ignores_depths(self):
        a, b = det(100, 100, 200, 200, source=1), det(500, 100, 600, 200, source=2)
        res = identify_at(150, 150, [a, b], painted((a, 999.0), (b, 0.5)), d_g=1.0)
        assert res.chosen.source_id == 1
        assert res.candidate_count == 1

    def test_overlap_resolved_by_distance_difference(self):
        far = det(432, 264, 528, 345, source=2)
        near = det(374, 258, 586, 435, source=1)
        res = identify_at(480, 300, [far, near], painted((near, 8.46), (far, 18.69)),
                          d_g=18.7)
        assert res.chosen.source_id == 2
        assert res.candidate_count == 2

    def test_no_candidate(self):
        d = det(100, 100, 200, 200)
        res = identify_at(5, 5, [d], painted((d, 9.0)), d_g=9.0)
        assert res.chosen is None
        assert res.candidate_count == 0

    def test_depths_of_non_candidates_are_irrelevant(self):
        # the sampling regions (shrunken lower quarters) of a and b are disjoint
        a = det(400, 250, 560, 350, source=1)
        b = det(460, 200, 500, 320, source=2)
        outside = det(700, 400, 800, 500, source=3)
        for far in (5.0, 444.0):
            res = identify_at(480, 300, [a, b, outside],
                              painted((a, 18.0), (b, 9.0), (outside, far)), d_g=18.0)
            assert res.chosen.source_id == 1
            assert res.candidate_count == 2

    def test_exact_tie_breaks_to_smallest_index(self):
        a = det(400, 250, 560, 350, source=1)
        b = det(460, 200, 500, 320, source=2)
        depth = painted((a, 12.0), (b, 8.0))
        for order in ([a, b], [b, a]):
            res = identify_at(480, 300, order, depth, d_g=10.0)
            assert res.chosen is order[0]


class TestBaselineMatch:
    def test_unique_containment(self):
        res = identify_at(150, 150, [det(100, 100, 200, 200, source=7)], flat_depth(10.0),
                          method="baseline")
        assert res.chosen.source_id == 7

    def test_nested_boxes_resolved_by_center_distance(self):
        inner = det(440, 280, 520, 340, source=2)  # center (480, 310)
        outer = det(300, 150, 700, 500, source=1)  # center (500, 325)
        res = identify_at(481, 311, [outer, inner], flat_depth(10.0), method="baseline")
        assert res.chosen.source_id == 2

    def test_empty_detection_list(self):
        res = identify_at(10, 10, [], flat_depth(10.0), method="baseline")
        assert res.chosen is None
        assert res.candidate_count == 0


def build_frame(states, t=0.0, noise=None):
    truth = render_truth_boxes(states, CAM)
    depth = render_depth_map(truth, INTR, noise=noise)
    dets = [Detection(box, source_id=vid) for vid, box, _ in truth]
    return SensorFrame(t=t, detections=dets, depth=depth, camera=CAM)


def car(vid, s, y=5.25, v=17.0):
    return VehicleState(id=vid, kind="car", s=s, y=y, v=v, a=0.0, lane=1,
                        length=4.5, width=1.8, height=1.5, v_desired=v)


class TestIdentify:
    def test_single_detection_both_methods(self):
        states = [car(1, s=22.25)]
        frame = build_frame(states)
        reported = WorldPoint(22.25, 5.25, 0.75)
        d_g = gnss_distance(CAM.extrinsics.camera_center(), reported)
        params = FusionParams()
        fused = identify(frame, reported, d_g, params, method="fused")
        base = identify(frame, reported, d_g, params, method="baseline")
        assert fused.chosen.source_id == 1
        assert base.chosen.source_id == 1

    def test_overlapped_same_lane_pair_fused_selects_far_target(self):
        # the far vehicle is the cloud-tracked target; both cars ride the
        # same lane with a lateral stagger, so the anchor falls inside both
        # boxes and only the depth route can separate them
        near = car(1, s=8.46 + 2.25, y=4.6)
        target = car(2, s=18.69 + 2.25, y=5.65)
        frame = build_frame([near, target])
        reported = WorldPoint(target.s, target.y, 0.75)
        d_g = gnss_distance(CAM.extrinsics.camera_center(), reported)
        fused = identify(frame, reported, d_g, FusionParams(), method="fused")
        assert fused.candidate_count == 2
        assert fused.chosen.source_id == 2
        base = identify(frame, reported, d_g, FusionParams(), method="baseline")
        assert base.candidate_count == 2  # recorded; choice may differ

    def test_anchor_behind_camera_no_match(self):
        frame = build_frame([car(1, s=22.25)])
        reported = WorldPoint(-30.0, 5.25, 0.75)
        res = identify(frame, reported, 30.0, FusionParams(), method="fused")
        assert res.chosen is None
        assert res.candidate_count == 0

    def test_anchor_off_image_no_match(self):
        frame = build_frame([car(1, s=22.25)])
        reported = WorldPoint(10.0, 40.0, 0.75)
        res = identify(frame, reported, 35.0, FusionParams(), method="baseline")
        assert res.chosen is None

    def test_fused_without_sampling_region_uses_center_distance(self, monkeypatch):
        # both candidates are narrower than a pixel, so neither offers a depth
        # sample; the fused method then picks the box center nearest the anchor
        def no_depth(*args, **kwargs):
            raise AssertionError("depth read for boxes without a sampling region")

        monkeypatch.setattr(fusion, "depth_evaluate", no_depth)
        reported = WorldPoint(22.25, 5.25, 0.75)
        a = project_anchor(reported, CAM.extrinsics, INTR)
        off_center = det(a.u - 0.1, a.v - 0.1, a.u + 0.8, a.v + 0.8, source=1)
        centered = det(a.u - 0.4, a.v - 0.4, a.u + 0.4, a.v + 0.4, source=2)
        frame = SensorFrame(t=0.0, detections=[off_center, centered],
                            depth=flat_depth(10.0), camera=CAM)
        res = identify(frame, reported, 20.0, FusionParams(), method="fused")
        assert res.chosen is centered
        assert res.candidate_count == 2

    def test_branch_consistency_on_unique_candidates(self):
        rng = np.random.default_rng(31)
        params = FusionParams()
        for trial in range(40):
            states = [car(1, s=rng.uniform(12, 60)),
                      car(2, s=rng.uniform(12, 60), y=1.75)]
            frame = build_frame(states, noise=DetectorNoiseModel(seed=trial))
            reported = WorldPoint(states[0].s, states[0].y, 0.75)
            d_g = gnss_distance(CAM.extrinsics.camera_center(), reported)
            fused = identify(frame, reported, d_g, params, method="fused")
            base = identify(frame, reported, d_g, params, method="baseline")
            if fused.candidate_count == 1:
                assert base.chosen == fused.chosen


# A 192x108 camera (fx = fy = 200 px) keeps each drawn frame cheap. Two depth
# rasters: a flat one, on which every candidate ties, and whole-meter steps
# that deepen down and across the image, so nested boxes sample different
# depths and d_g can fall between them.
SMALL_INTR = CameraIntrinsics(pixel_size_x=25e-6, pixel_size_y=25e-6,
                              u0=96.0, v0=54.0, width=192, height=108)
SMALL_CAM = Camera(CameraExtrinsics.looking_along_road(WorldPoint(0.0, 5.25, 1.4)),
                   SMALL_INTR)
_ROWS, _COLS = np.mgrid[0:108, 0:192]
DEPTH_RASTERS = (flat_depth(15.0, 192, 108),
                 DepthMap(192, 108, np.floor(8.0 + 0.12 * _ROWS + 0.03 * _COLS)))
REACH = st.one_of(st.just(0.0), st.sampled_from([0.25, 0.5, 0.99, 1.0, 1.5]),
                  st.floats(0.0, 60.0), st.floats(2.0, 60.0))


def _clipped(u_min, v_min, u_max, v_max) -> Box2D:
    def clip(x, hi):
        return min(max(x, 0.0), hi)
    return Box2D(clip(u_min, 192.0), clip(v_min, 108.0), clip(u_max, 192.0), clip(v_max, 108.0))


@st.composite
def identification_cases(draw):
    """A frame whose boxes are nested around the anchor, sub-pixel, edge-on
    (zero reach puts the anchor on an edge), duplicated or unrelated."""
    # mostly an anchor near or on the image, once in ten one behind the camera
    u, v = draw(st.floats(-10.0, 202.0)), draw(st.floats(-10.0, 118.0))
    ahead = draw(st.sampled_from(range(10))) > 0
    x = draw(st.floats(3.0, 60.0) if ahead else st.floats(-5.0, 0.5))
    position = WorldPoint(x, 5.25 - (u - 96.0) * x / 200.0, 1.4 - (v - 54.0) * x / 200.0)
    try:
        anchor = project_anchor(position, SMALL_CAM.extrinsics, SMALL_INTR)
        au, av = anchor.u, anchor.v
    except BehindCamera:
        au, av = SMALL_INTR.u0, SMALL_INTR.v0
    dets = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["around", "around", "duplicate", "unrelated"]))
        if kind == "duplicate" and dets:
            dets.append(Detection(draw(st.sampled_from(dets)).box))
            continue
        if kind == "unrelated":
            u, v = draw(st.floats(0.0, 192.0)), draw(st.floats(0.0, 108.0))
            box = _clipped(u, v, u + draw(REACH), v + draw(REACH))
        else:
            box = _clipped(au - draw(REACH), av - draw(REACH),
                           au + draw(REACH), av + draw(REACH))
        dets.append(Detection(box, source_id=len(dets)))
    frame = SensorFrame(t=0.5, detections=dets, depth=draw(st.sampled_from(DEPTH_RASTERS)),
                        camera=SMALL_CAM)
    shrink = st.one_of(st.sampled_from([0.8, 1.0]), st.floats(0.0, 1.0, exclude_min=True))
    params = FusionParams(shrink=draw(shrink),
                          samples=draw(st.integers(1, 4)), seed=draw(st.integers(0, 3)))
    d_g = draw(st.one_of(st.sampled_from([10.0, 12.5, 15.0, 17.5, 20.0]),
                         st.floats(0.0, 30.0)))
    return frame, position, d_g, params


class TestSingleDecisionPath:
    @settings(max_examples=400, deadline=None)
    @given(case=identification_cases(), method=st.sampled_from(["fused", "baseline"]))
    def test_identify_matches_per_branch_reference(self, case, method):
        frame, reported, d_g, params = case
        got = identify(frame, reported, d_g, params, method=method)
        want = oracles.identify(frame, reported, d_g, params, method=method)
        assert got.chosen is want.chosen
        assert got.candidate_count == want.candidate_count
