import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lanesight.geometry import Box2D, Camera, CameraIntrinsics, WorldPoint, \
    project_cuboid_hull
from lanesight.scene import VehicleState
from lanesight.sensing import (
    DepthMap,
    DetectorNoiseModel,
    emulate_detections,
    render_depth_map,
    render_truth_boxes,
    write_depth_map,
)
from oracles import body_of, full_frame_depth_values, per_corner_hull, \
    per_corner_nearest_depth, per_corner_truth_boxes

INTR = CameraIntrinsics(focal_length=0.005, pixel_size_x=5e-6, pixel_size_y=5e-6,
                        u0=480.0, v0=270.0, width=960, height=540)
CAM = Camera(WorldPoint(0.0, 5.25, 1.4), INTR)
NOISELESS = DetectorNoiseModel(depth_noise_sigma=0.0)


def car(vid, s, y=5.25, v=17.0):
    return VehicleState(id=vid, kind="car", s=s, y=y, v=v, a=0.0, lane=1,
                        length=4.5, width=1.8, height=1.5, v_desired=v)


def truth_boxes(states, camera=CAM):
    return {vid: box for vid, box, _ in render_truth_boxes(states, camera)}


def depth_map(states, camera=CAM, noise=NOISELESS):
    return render_depth_map(render_truth_boxes(states, camera), camera.intrinsics, noise=noise)


class TestRenderTruthBoxes:
    def test_empty_states(self):
        assert render_truth_boxes([], CAM) == []

    def test_vehicle_dead_ahead_centered_on_principal_column(self):
        boxes = render_truth_boxes([car(1, s=20.0)], CAM)
        assert len(boxes) == 1
        _, box, _ = boxes[0]
        assert 0.5 * (box.u_min + box.u_max) == pytest.approx(INTR.u0, abs=1e-9)

    def test_nearer_vehicle_projects_strictly_larger(self):
        boxes = truth_boxes([car(1, s=10.0 + 2.25), car(2, s=20.0 + 2.25)])
        near, far = boxes[1], boxes[2]
        assert near.width > far.width
        assert near.height > far.height

    def test_vehicle_behind_camera_skipped(self):
        assert render_truth_boxes([car(1, s=-20.0)], CAM) == []


class TestRenderDepthMap:
    def test_background_only(self):
        dm = render_depth_map([], INTR, NOISELESS)
        assert np.all(dm.raster() == dm.far_value)

    def test_single_vehicle_planar_depth(self):
        # rear face exactly 20 m ahead of the camera plane
        dm = depth_map([car(1, s=20.0 + 2.25)])
        vals = np.unique(dm.raster())
        assert set(np.round(vals, 6)) == {20.0, 1000.0}
        boxes = truth_boxes([car(1, s=22.25)])
        b = boxes[1]
        inner = dm.raster()[int(b.v_min) + 1:int(b.v_max) - 1,
                          int(b.u_min) + 1:int(b.u_max) - 1]
        assert np.all(np.abs(inner - 20.0) < 1e-6)

    def test_overlap_resolves_nearest_wins(self):
        near = car(1, s=8.46 + 2.25)
        far = car(2, s=18.69 + 2.25)
        dm = depth_map([far, near])
        far_box = truth_boxes([far])[2]
        cu, cv = far_box.center
        assert dm.at(int(cu), int(cv)) == pytest.approx(8.46)

    def test_nearest_wins_is_minimum_over_layers(self):
        states = [car(1, s=12.0), car(2, s=18.0), car(3, s=30.0)]
        dm = depth_map(states)
        expected = {vid: min(
            [12.0 - 2.25, 18.0 - 2.25, 30.0 - 2.25][i] for i in range(3)
        ) for vid in (1,)}
        # every covered pixel equals the minimum rear-face depth of the
        # vehicles whose hull covers it
        hulls = render_truth_boxes(states, CAM)
        depths = {vid: s - 2.25 for vid, s in ((1, 12.0), (2, 18.0), (3, 30.0))}
        for v in range(0, INTR.height, 13):
            for u in range(0, INTR.width, 17):
                covering = [depths[vid] for vid, b, _ in hulls
                            if b.u_min <= u < b.u_max and b.v_min <= v < b.v_max]
                if covering:
                    assert dm.at(u, v) <= min(covering) + 1e-9

    def test_depth_noise_applies_only_on_vehicles(self):
        noise = DetectorNoiseModel(depth_noise_sigma=0.1, seed=3)
        dm = depth_map([car(1, s=22.25)], noise=noise)
        assert np.all(dm.raster()[0, :] == dm.far_value)  # sky row untouched
        box = truth_boxes([car(1, s=22.25)])[1]
        patch = dm.raster()[int(box.v_min) + 2:int(box.v_max) - 2,
                          int(box.u_min) + 2:int(box.u_max) - 2]
        assert patch.std() > 0.05
        assert abs(patch.mean() - 20.0) < 0.05


SMALL_INTR = CameraIntrinsics(width=192, height=108, u0=96.0, v0=54.0)

# Each vehicle is drawn from one region around the camera: ahead in and next
# to its lane, where hulls overlap; beside the camera, where hulls are clipped
# or off-image; or around the camera's own position, which puts corners at or
# behind the near plane.
REGIONS = {"ahead": ((12.0, 50.0), (2.5, 8.0)),
           "beside": ((-1.0, 12.0), (-25.0, 35.0)),
           "at_camera": ((-6.0, 3.0), (2.0, 8.0))}


@st.composite
def vehicle_sets(draw):
    states = []
    for vid in range(draw(st.integers(0, 8))):
        s_range, y_range = REGIONS[draw(st.sampled_from(sorted(REGIONS)))]
        states.append(VehicleState(
            id=vid, kind="car", s=draw(st.floats(*s_range)), y=draw(st.floats(*y_range)),
            v=17.0, a=0.0, lane=1, length=draw(st.floats(3.0, 16.0)),
            width=draw(st.floats(1.5, 2.6)), height=draw(st.floats(1.2, 4.0)),
            v_desired=17.0))
    return states


class TestArrayPathMatchesPerCornerReference:
    @settings(max_examples=150, deadline=None)
    @given(states=vehicle_sets(),
           position=st.tuples(st.floats(-2.0, 2.0), st.floats(3.0, 7.5), st.floats(0.8, 2.5)),
           intr=st.sampled_from([INTR, SMALL_INTR]),
           sigma=st.sampled_from([0.0, 0.1, 3.0]), seed=st.integers(0, 2**32 - 1))
    def test_boxes_and_raster_bit_equal(self, states, position, intr, sigma, seed):
        camera = Camera(WorldPoint(*position), intr)
        truth = render_truth_boxes(states, camera)
        assert [(vid, box) for vid, box, _ in truth] == per_corner_truth_boxes(states, camera)
        by_id = {state.id: state for state in states}
        for vid, _, depth in truth:
            assert depth == per_corner_nearest_depth(*body_of(by_id[vid]), camera.position)
        noise = DetectorNoiseModel(depth_noise_sigma=sigma, seed=seed)
        for model in (NOISELESS, noise):
            assert np.array_equal(render_depth_map(truth, intr, noise=model).raster(),
                                  full_frame_depth_values(states, camera, noise=model))

    @settings(max_examples=100, deadline=None)
    @given(states=vehicle_sets(),
           intr=st.sampled_from([INTR, SMALL_INTR]),
           sigma=st.sampled_from([0.0, 0.1]), seed=st.integers(0, 2**32 - 1),
           picks=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                    st.floats(0.0, 1.0, exclude_max=True)), max_size=12))
    @example(states=[], intr=SMALL_INTR, sigma=0.1, seed=0, picks=[(0.5, 0.5)])
    def test_lazy_map_reads_and_writes_the_full_frame(self, states, intr, sigma, seed,
                                                       picks):
        # each read path paints a fresh map, so none relies on another's painting
        camera = Camera(WorldPoint(0.0, 5.25, 1.4), intr)
        truth = render_truth_boxes(states, camera)
        noise = DetectorNoiseModel(depth_noise_sigma=sigma, seed=seed)
        expected = full_frame_depth_values(states, camera, noise=noise)

        def fresh():
            return render_depth_map(truth, intr, noise=noise)

        assert np.array_equal(fresh().raster(), expected)
        dm = fresh()
        for fu, fv in picks:
            u, v = int(fu * intr.width), int(fv * intr.height)
            assert dm.at(u, v) == expected[v, u]
        # the corners of the hulls' union box, and the pixels just outside it
        rects = [(math.floor(b.v_min), math.ceil(b.v_max), math.floor(b.u_min),
                  math.ceil(b.u_max)) for _, b, _ in truth] or [(0, 0, 0, 0)]
        top, bottom, left, right = zip(*rects)
        rows = {min(top) - 1, min(top), max(bottom) - 1, max(bottom)}
        cols = {min(left) - 1, min(left), max(right) - 1, max(right)}
        for v in rows & set(range(intr.height)):
            for u in cols & set(range(intr.width)):
                assert dm.at(u, v) == expected[v, u]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "frame.dpt"
            write_depth_map(fresh(), path)
            header = struct.pack("<4sII", b"DPT1", intr.width, intr.height)
            assert path.read_bytes() == header + expected.astype("<f4").tobytes()

    @settings(max_examples=200, deadline=None)
    @given(bodies=st.lists(st.tuples(
               st.tuples(st.floats(-5.0, 60.0), st.floats(-20.0, 30.0), st.floats(0.5, 2.0)),
               st.tuples(st.floats(0.5, 16.0), st.floats(0.5, 3.0), st.floats(0.5, 4.0))),
               max_size=8),
           position=st.tuples(st.floats(-2.0, 2.0), st.floats(3.0, 7.5), st.floats(0.8, 2.5)))
    # a visible body, one clipped sideways to zero width, and one whose rear
    # corners sit exactly on the near plane, which counts as behind it
    @example(bodies=[((20.0, 5.0, 1.0), (4.5, 1.8, 1.5)), ((3.0, -20.0, 1.0), (4.5, 1.8, 1.5)),
                     ((3.0, 5.0, 1.0), (5.0, 2.0, 1.5))], position=(0.0, 5.0, 1.4))
    def test_batch_hull_bit_equal(self, bodies, position):
        position = WorldPoint(*position)
        centers = np.array([c for c, _ in bodies]).reshape(-1, 3)
        dims = np.array([d for _, d in bodies]).reshape(-1, 3)
        visible, hulls, nearest = project_cuboid_hull(centers, dims, position, INTR)
        expected = [per_corner_hull(c, d, position, INTR) for c, d in bodies]
        assert visible.tolist() == [edges is not None for edges in expected]
        assert hulls == [edges for edges in expected if edges is not None]
        assert nearest == [per_corner_nearest_depth(c, d, position)
                           for (c, d), edges in zip(bodies, expected) if edges is not None]


def spread_boxes(n, rng):
    out = []
    for i in range(n):
        cu = rng.uniform(100, 860)
        cv = rng.uniform(100, 440)
        out.append((i, Box2D(cu - 20, cv - 15, cu + 20, cv + 15), 20.0))
    return out


class TestEmulateDetections:
    def test_noiseless_reproduces_truth_multiset(self):
        rng = np.random.default_rng(0)
        truth = spread_boxes(30, rng)
        noise = DetectorNoiseModel(edge_jitter_sigma=0.0, miss_prob=0.0, seed=9)
        dets = emulate_detections(truth, noise, INTR.width, INTR.height)
        assert sorted(d.source_id for d in dets) == sorted(i for i, _, _ in truth)
        truth_by_id = {i: box for i, box, _ in truth}
        for d in dets:
            assert d.box == truth_by_id[d.source_id]

    def test_miss_prob_one_drops_everything(self):
        rng = np.random.default_rng(0)
        truth = spread_boxes(20, rng)
        noise = DetectorNoiseModel(miss_prob=1.0, seed=1)
        assert emulate_detections(truth, noise, INTR.width, INTR.height) == []

    def test_seeded_jitter_is_repeatable_and_unbiased(self):
        rng = np.random.default_rng(4)
        truth = spread_boxes(10_000, rng)
        noise = DetectorNoiseModel(edge_jitter_sigma=2.0, seed=42)
        a = emulate_detections(truth, noise, INTR.width, INTR.height)
        b = emulate_detections(truth, noise, INTR.width, INTR.height)
        assert a == b
        truth_by_id = {i: box for i, box, _ in truth}
        disp = []
        for d in a:
            tb = truth_by_id[d.source_id]
            disp += [d.box.u_min - tb.u_min, d.box.v_min - tb.v_min,
                     d.box.u_max - tb.u_max, d.box.v_max - tb.v_max]
        n = len(disp)
        assert n == 40_000
        assert abs(np.mean(disp)) < 3 * 2.0 / np.sqrt(n)

    def test_false_positive_rate(self):
        rng = np.random.default_rng(3)
        truth = spread_boxes(5, rng)
        quiet = DetectorNoiseModel(false_positive_rate=0.0, seed=2)
        assert all(d.source_id is not None
                   for d in emulate_detections(truth, quiet, INTR.width, INTR.height))
        for rate in (3.0, 1.5):  # a Poisson mean per frame, so above 1 is valid
            # seed 2 draws spurious boxes at both rates
            noisy = DetectorNoiseModel(false_positive_rate=rate, seed=2)
            spurious = [d for d in emulate_detections(truth, noisy, INTR.width,
                                                      INTR.height)
                        if d.source_id is None]
            assert spurious
            for d in spurious:
                assert d.box.area > 0
                assert 0 <= d.box.u_min <= d.box.u_max <= INTR.width
                assert 0 <= d.box.v_min <= d.box.v_max <= INTR.height

    def test_emitted_boxes_have_positive_area_within_bounds(self):
        rng = np.random.default_rng(8)
        truth = []
        for i in range(300):
            u = rng.uniform(0, INTR.width - 5)
            v = rng.uniform(0, INTR.height - 5)
            truth.append((i, Box2D(u, v,
                                   min(u + rng.uniform(5, 80), INTR.width),
                                   min(v + rng.uniform(5, 60), INTR.height)), 20.0))
        noise = DetectorNoiseModel(edge_jitter_sigma=4.0, seed=5)
        for d in emulate_detections(truth, noise, INTR.width, INTR.height):
            assert d.box.area > 0
            assert 0 <= d.box.u_min <= d.box.u_max <= INTR.width
            assert 0 <= d.box.v_min <= d.box.v_max <= INTR.height


class TestDepthMapFile:
    def test_round_trip_bit_exact(self, tmp_path):
        # the DPT1 layout: magic, u32 LE width and height, then row-major f32 LE values
        rng = np.random.default_rng(7)
        values = rng.uniform(0.5, 900, size=(12, 16)).astype("<f4").astype(float)
        dm = DepthMap(16, 12, values)
        path = tmp_path / "frame.dpt"
        write_depth_map(dm, path)
        raw = path.read_bytes()
        assert struct.unpack("<4sII", raw[:12]) == (b"DPT1", 16, 12)
        assert len(raw) == 12 + 4 * 16 * 12
        back = np.frombuffer(raw[12:], dtype="<f4").reshape(12, 16).astype(float)
        assert np.array_equal(back, dm.raster())
        write_depth_map(DepthMap(16, 12, back), tmp_path / "frame2.dpt")
        assert (tmp_path / "frame2.dpt").read_bytes() == raw
