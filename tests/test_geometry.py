import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lanesight.geometry import (
    BehindCamera,
    Box2D,
    CameraIntrinsics,
    WorldPoint,
    iou,
    project_anchor,
    project_cuboid_hull,
    world_to_camera,
)
import oracles
from oracles import project_point_oracle, road_extrinsics

INTR = CameraIntrinsics(focal_length=0.005, pixel_size_x=5e-6, pixel_size_y=5e-6,
                        u0=480.0, v0=270.0, width=960, height=540)  # fx = fy = 1000 px
# an along-road camera at ORIGIN sees world point (z, -x, -y) at camera point (x, y, z)
ORIGIN = WorldPoint(0.0, 0.0, 0.0)
# -0.0 is left out: a negative zero coordinate can flip the sign of a zero
# camera coordinate against the matrix form, a sign that the + u0 and the
# divide of a projection drop (project_anchor's property draws -0.0 too)
COORD = st.floats(-1e4, 1e4).filter(lambda v: v != 0.0 or math.copysign(1.0, v) > 0)


def seen_at(x, y, z) -> WorldPoint:
    """The world point that the camera at ORIGIN sees at camera point (x, y, z)."""
    return WorldPoint(z, -x, -y)


def random_position(rng) -> WorldPoint:
    return WorldPoint(*rng.uniform(-5.0, 5.0, size=3))


class TestWorldToCamera:
    def test_road_axes(self):
        (p,) = world_to_camera(np.array([[1.0, 2.0, 3.0]]), ORIGIN)
        assert tuple(p) == (-2.0, -3.0, 1.0)

    def test_pure_translation(self):
        (p,) = world_to_camera(np.array([[0.0, 0.0, 0.0]]), WorldPoint(5.0, 0.0, 0.0))
        assert tuple(p) == (0.0, 0.0, -5.0)

    @settings(max_examples=300, deadline=None)
    @given(position=st.tuples(COORD, COORD, COORD),
           points=st.lists(st.tuples(COORD, COORD, COORD), min_size=1, max_size=8))
    @example(position=(0.0, 0.0, 0.0), points=[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
    def test_bit_equal_to_homogeneous_oracle(self, position, points):
        # the road rotation holds only 0 and +-1, so each row of the matrix
        # product is exactly one subtraction
        p, c, r = np.array(points), np.array(position), oracles.ROAD_AXES
        got = world_to_camera(p, WorldPoint(*position))
        assert got.tobytes() == (p @ r.T + (-r) @ c).tobytes()

    def test_moving_camera_and_points_together_changes_nothing(self):
        # integer coordinates keep every sum and difference exact
        rng = np.random.default_rng(11)
        for _ in range(25):
            points = rng.integers(-100, 100, size=(6, 3)).astype(float)
            position = rng.integers(-10, 10, size=3).astype(float)
            shift = rng.integers(-50, 50, size=3).astype(float)
            got = world_to_camera(points + shift, WorldPoint(*(position + shift)))
            assert got.tolist() == world_to_camera(points, WorldPoint(*position)).tolist()

    def test_preserves_pairwise_distance(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            position = random_position(rng)
            p, q = rng.uniform(-30, 30, size=(2, 3))
            fp, fq = world_to_camera(np.array([p, q]), position)
            d_in = np.linalg.norm(p - q)
            d_out = math.dist(fp, fq)
            assert d_out == pytest.approx(d_in, rel=1e-9)


class TestCameraToPixel:
    """The pinhole step alone, on the camera at ORIGIN: each test names the
    camera-frame point it projects."""

    def test_optical_axis_hits_principal_point(self):
        px = project_anchor(seen_at(0.0, 0.0, 10.0), ORIGIN, INTR)
        assert (px.u, px.v) == (480.0, 270.0)

    def test_offset_point(self):
        # p=(1,0,10) with fx=1000: u = 480 + 1000 * 1/10
        px = project_anchor(seen_at(1.0, 0.0, 10.0), ORIGIN, INTR)
        assert px.u == pytest.approx(580.0, abs=1e-12)
        assert px.v == pytest.approx(270.0, abs=1e-12)
        u_oracle, v_oracle = 480 + 1000 * 0.1, 270.0
        assert (px.u, px.v) == pytest.approx((u_oracle, v_oracle))

    def test_behind_camera(self):
        with pytest.raises(BehindCamera):
            project_anchor(seen_at(0.0, 0.0, 0.0), ORIGIN, INTR)
        with pytest.raises(BehindCamera):
            project_anchor(seen_at(0.0, 0.0, 0.4), ORIGIN, INTR)  # inside near plane

    def test_round_trip_through_back_projection(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            u = rng.uniform(0, INTR.width)
            v = rng.uniform(0, INTR.height)
            d = rng.uniform(INTR.near_plane + 0.01, 200.0)
            cam = seen_at((u - INTR.u0) * d / INTR.fx, (v - INTR.v0) * d / INTR.fy, d)
            px = project_anchor(cam, ORIGIN, INTR)
            assert px.u == pytest.approx(u, abs=1e-9)
            assert px.v == pytest.approx(v, abs=1e-9)


class TestProjectAnchor:
    def test_offset_camera_composition(self):
        px = project_anchor(WorldPoint(13.0, 5.25, 1.4), WorldPoint(3.0, 5.25, 1.4), INTR)
        assert (px.u, px.v) == (480.0, 270.0)

    def test_matches_matrix_oracle_on_seeded_pairs(self):
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 1000:
            position = random_position(rng)
            r, t = road_extrinsics(position)
            w = rng.uniform(-50, 50, size=3)
            z_c = (r @ w + t)[2]
            if z_c <= INTR.near_plane + 0.05:
                continue
            got = project_anchor(WorldPoint(*w), position, INTR)
            u, v, _ = project_point_oracle(r, t, w, INTR.focal_length, INTR.pixel_size_x,
                                           INTR.pixel_size_y, INTR.u0, INTR.v0)
            assert got.u == pytest.approx(u, rel=1e-9, abs=1e-9)
            assert got.v == pytest.approx(v, rel=1e-9, abs=1e-9)
            checked += 1

    def test_behind_camera_propagates(self):
        with pytest.raises(BehindCamera):
            project_anchor(seen_at(0.0, 0.0, -10.0), ORIGIN, INTR)

    @settings(max_examples=300, deadline=None)
    @given(mount=st.tuples(*[st.floats(-1e4, 1e4)] * 3),
           point=st.tuples(*[st.floats(-1e4, 1e4)] * 3))
    @example(mount=(0.0, 0.0, 0.0), point=(10.0, 0.0, 0.0))
    def test_bit_equal_to_per_point_path_along_road(self, mount, point):
        # the per-point oracle takes the general (R, t) route, one
        # matrix-vector product per point
        try:
            want = oracles.project_anchor(WorldPoint(*point), WorldPoint(*mount), INTR)
        except BehindCamera:
            with pytest.raises(BehindCamera):
                project_anchor(WorldPoint(*point), WorldPoint(*mount), INTR)
            return
        got = project_anchor(WorldPoint(*point), WorldPoint(*mount), INTR)
        assert (got.u, got.v) == (want.u, want.v)


def bodies(*rows):
    """World centers and (length, width, height) of bodies given as camera-frame
    (x, y, z, extent along x, along y, along z) rows of the camera at ORIGIN."""
    a = np.array(rows, dtype=float).reshape(-1, 6)
    return a[:, [2, 0, 1]] * (1.0, -1.0, -1.0), a[:, [5, 3, 4]]


def corners(center, dims):
    signs = np.array([(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    return np.asarray(center) + signs * (0.5 * np.asarray(dims))


class TestProjectCuboidHull:
    def test_unit_cube_on_axis(self):
        # Hull of the 8 projected corners, computed corner-by-corner by hand:
        # near face at z=9.5 dominates with half-extent 1000*0.5/9.5 px.
        visible, hulls, nearest = project_cuboid_hull(*bodies((0.0, 0.0, 10.0, 1.0, 1.0, 1.0)),
                                                      ORIGIN, INTR)
        half = 1000 * 0.5 / 9.5
        assert visible.tolist() == [True]
        assert nearest == [9.5]
        (u_min, v_min, u_max, v_max), = hulls
        assert u_min == pytest.approx(480 - half, abs=1e-9)
        assert u_max == pytest.approx(480 + half, abs=1e-9)
        assert v_min == pytest.approx(270 - half, abs=1e-9)
        assert v_max == pytest.approx(270 + half, abs=1e-9)

    def test_hull_contains_all_corner_projections(self):
        rng = np.random.default_rng(5)
        rows = [(rng.uniform(-3, 3), rng.uniform(-2, 2), rng.uniform(8, 40),
                 rng.uniform(0.5, 6.0), rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
                for _ in range(50)]
        centers, dims = bodies(*rows)
        visible, hulls, _ = project_cuboid_hull(centers, dims, ORIGIN, INTR)
        assert visible.all()
        for center, size, hull in zip(centers, dims, hulls):
            for corner in corners(center, size):
                px = project_anchor(WorldPoint(*corner), ORIGIN, INTR)
                u = min(max(px.u, 0.0), INTR.width)
                v = min(max(px.v, 0.0), INTR.height)
                assert Box2D(*hull).contains(u, v)

    def test_center_anchor_inside_hull(self):
        rng = np.random.default_rng(9)
        rows = [(rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(10, 50), 4.5, 1.8, 1.5)
                for _ in range(50)]
        centers, dims = bodies(*rows)
        visible, hulls, _ = project_cuboid_hull(centers, dims, ORIGIN, INTR)
        assert visible.all()
        for center, hull in zip(centers, hulls):
            px = project_anchor(WorldPoint(*center), ORIGIN, INTR)
            assert Box2D(*hull).contains(px.u, px.v)

    def test_offscreen_cuboid_clips_to_zero_width(self):
        visible, hulls, _ = project_cuboid_hull(*bodies((-30.0, 0.0, 10.0, 1.0, 1.0, 1.0)),
                                                ORIGIN, INTR)
        assert visible.tolist() == [True]
        assert Box2D(*hulls[0]).width == 0.0

    def test_corner_behind_camera_is_not_visible(self):
        # only the visible rows get a hull and a depth, in row order
        visible, hulls, nearest = project_cuboid_hull(
            *bodies((0.0, 0.0, 20.0, 1.0, 1.0, 1.0), (0.0, 0.0, 0.6, 1.0, 1.0, 1.0),
                    (0.0, 0.0, 10.0, 1.0, 1.0, 1.0)), ORIGIN, INTR)
        assert visible.tolist() == [True, False, True]
        assert nearest == [19.5, 9.5]
        assert hulls[0][2] - hulls[0][0] < hulls[1][2] - hulls[1][0]

    def test_offset_camera_equals_bodies_moved_the_other_way(self):
        rng = np.random.default_rng(13)
        rows = [(rng.uniform(-3, 3), rng.uniform(-2, 2), rng.uniform(8, 40),
                 rng.uniform(0.5, 6.0), rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
                for _ in range(30)]
        centers, dims = bodies(*rows)
        mount = np.array([4.0, 5.25, 1.4])
        got = project_cuboid_hull(centers + mount, dims, WorldPoint(*mount), INTR)
        want = project_cuboid_hull(centers, dims, ORIGIN, INTR)
        assert got[0].tolist() == want[0].tolist()
        assert np.allclose(got[1], want[1], rtol=1e-9, atol=1e-9)
        assert np.allclose(got[2], want[2], rtol=1e-9, atol=1e-9)

    def test_no_bodies(self):
        visible, hulls, nearest = project_cuboid_hull(*bodies(), ORIGIN, INTR)
        assert visible.shape == (0,) and hulls == [] and nearest == []


finite_boxes = st.builds(
    lambda u, v, w, h: Box2D(u, v, u + w, v + h),
    st.floats(-500, 500), st.floats(-500, 500),
    st.floats(0, 400), st.floats(0, 400),
)


class TestIou:
    def test_identical_boxes(self):
        b = Box2D(0.0, 0.0, 2.0, 2.0)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(Box2D(0, 0, 1, 1), Box2D(5, 5, 6, 6)) == 0.0

    def test_known_overlap(self):
        # inter = 1x2 = 2, union = 4 + 4 - 2 = 6
        assert iou(Box2D(0, 0, 2, 2), Box2D(1, 0, 3, 2)) == pytest.approx(1 / 3)

    def test_degenerate_box_yields_zero(self):
        line = Box2D(1.0, 0.0, 1.0, 5.0)
        assert iou(line, line) == 0.0
        assert iou(line, Box2D(0, 0, 2, 2)) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(a=finite_boxes, b=finite_boxes)
    def test_symmetric_and_bounded(self, a, b):
        ab, ba = iou(a, b), iou(b, a)
        assert ab == ba
        assert 0.0 <= ab <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(a=finite_boxes)
    def test_self_iou(self, a):
        expected = 1.0 if a.area > 0 else 0.0
        assert iou(a, a) == expected
