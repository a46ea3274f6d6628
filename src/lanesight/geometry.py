"""Camera model and 2D box algebra.

Coordinate conventions used throughout the package:

World frame (right-handed):
  - x: along the road, forward
  - y: left (0 at the road's right edge for lane math)
  - z: up

Camera frame (right-handed, standard computer vision):
  - x: right in the image
  - y: down in the image
  - z: forward along the optical axis

Image frame:
  - origin top-left, u right, v down, units pixels

One projection serves the anchor point and the 8 body corners alike:
`world_to_camera` on rows of points, then one near-plane check and divide.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import NONNEGATIVE, POSITIVE, check_fields


class BehindCamera(Exception):
    """Point is at or behind the camera near plane and cannot be imaged."""


@dataclass(frozen=True, slots=True)
class WorldPoint:
    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True)
class PixelPoint:
    u: float
    v: float
    depth: float


class CameraExtrinsics:
    """World-to-camera rigid transform: p_cam = R @ p_world + t."""

    def __init__(self, rotation, translation):
        r = np.asarray(rotation, dtype=float).reshape(3, 3)
        t = np.asarray(translation, dtype=float).reshape(3)
        if not np.allclose(r.T @ r, np.eye(3), atol=1e-9):
            raise ValueError("rotation matrix is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ValueError("rotation matrix determinant is not +1")
        self.rotation = r
        self.translation = t

    def camera_center(self) -> WorldPoint:
        """World position of the optical center (solves R c + t = 0)."""
        c = -self.rotation.T @ self.translation
        return WorldPoint(c[0], c[1], c[2])

    @classmethod
    def looking_along_road(cls, position: WorldPoint) -> "CameraExtrinsics":
        """Camera at `position` pointing down the +x road axis.

        Camera x = world -y (right), camera y = world -z (down),
        camera z = world +x (forward).
        """
        r = np.array([[0.0, -1.0, 0.0],
                      [0.0, 0.0, -1.0],
                      [1.0, 0.0, 0.0]])
        t = -r @ position.as_array()
        return cls(r, t)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics: focal length in meters, pixel pitch in m/px."""

    focal_length: float = field(default=0.005, metadata=POSITIVE)
    pixel_size_x: float = field(default=5e-6, metadata=POSITIVE)
    pixel_size_y: float = field(default=5e-6, metadata=POSITIVE)
    u0: float = field(default=480.0, metadata=NONNEGATIVE)
    v0: float = field(default=270.0, metadata=NONNEGATIVE)
    width: int = field(default=960, metadata=POSITIVE)
    height: int = field(default=540, metadata=POSITIVE)
    near_plane: float = field(default=0.5, metadata=POSITIVE)

    def __post_init__(self):
        check_fields(self)
        if not (self.u0 < self.width and self.v0 < self.height):
            raise ValueError("u0/v0: principal point must lie inside the image")

    @property
    def fx(self) -> float:
        """Focal length in horizontal pixels."""
        return self.focal_length / self.pixel_size_x

    @property
    def fy(self) -> float:
        """Focal length in vertical pixels."""
        return self.focal_length / self.pixel_size_y


@dataclass(frozen=True)
class Camera:
    """Extrinsics + intrinsics bundle for one mounted camera."""

    extrinsics: CameraExtrinsics
    intrinsics: CameraIntrinsics


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned pixel rectangle, u_min <= u_max and v_min <= v_max."""

    u_min: float
    v_min: float
    u_max: float
    v_max: float

    def __post_init__(self):
        if self.u_min > self.u_max or self.v_min > self.v_max:
            raise ValueError("box edges out of order")

    @property
    def width(self) -> float:
        return self.u_max - self.u_min

    @property
    def height(self) -> float:
        return self.v_max - self.v_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.u_min + self.u_max), 0.5 * (self.v_min + self.v_max))

    def contains(self, u: float, v: float) -> bool:
        """Closed-boundary containment: edges count as inside."""
        return self.u_min <= u <= self.u_max and self.v_min <= v <= self.v_max


_CORNER_SIGNS = np.array([(sx, sy, sz) for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)
                          for sz in (-1.0, 1.0)])


@dataclass(frozen=True)
class Cuboid3D:
    """Axis-aligned vehicle body rotated by yaw about the vertical axis."""

    center: WorldPoint
    length: float
    width: float
    height: float
    yaw: float = 0.0

    def __post_init__(self):
        if self.length <= 0 or self.width <= 0 or self.height <= 0:
            raise ValueError("cuboid dimensions must be positive")

    def corner_array(self) -> np.ndarray:
        """The 8 body corners in world coordinates, one per row."""
        cy, sy = math.cos(self.yaw), math.sin(self.yaw)
        half = (0.5 * self.length, 0.5 * self.width, 0.5 * self.height)
        dx, dy, dz = (_CORNER_SIGNS * half).T
        c = self.center
        return np.column_stack((c.x + dx * cy - dy * sy, c.y + dx * sy + dy * cy, c.z + dz))


def world_to_camera(points: np.ndarray, e: CameraExtrinsics) -> np.ndarray:
    """Apply the rigid world-to-camera transform to each row of `points`."""
    return points @ e.rotation.T + e.translation


def _pinhole(cam: np.ndarray, i: CameraIntrinsics):
    """Pixel coordinates (u, v) of camera-frame rows and their nearest depth.

    Raises BehindCamera when any row sits at or behind the near plane.
    """
    z = cam[:, 2]
    nearest = z.min()
    if nearest <= i.near_plane:
        raise BehindCamera(f"z_c={nearest:.3f} <= near_plane={i.near_plane:.3f}")
    return i.u0 + i.fx * (cam[:, 0] / z), i.v0 + i.fy * (cam[:, 1] / z), nearest


def project_anchor(p_w: WorldPoint, e: CameraExtrinsics, i: CameraIntrinsics) -> PixelPoint:
    """Project a world point into the image; may land outside the frame."""
    (u,), (v,), depth = _pinhole(world_to_camera(p_w.as_array()[None], e), i)
    return PixelPoint(u, v, depth)


def project_cuboid_hull(c: Cuboid3D, e: CameraExtrinsics,
                        i: CameraIntrinsics) -> tuple[Box2D, float]:
    """Axis-aligned hull of the 8 projected corners, clipped to the image, and
    the camera-frame depth of the nearest corner.

    Raises BehindCamera if any corner is behind the near plane; clipping may
    yield a zero-area box when the body is outside the frustum sideways.
    """
    us, vs, nearest = _pinhole(world_to_camera(c.corner_array(), e), i)
    u_min = min(max(us.min(), 0.0), float(i.width))
    u_max = min(max(us.max(), 0.0), float(i.width))
    v_min = min(max(vs.min(), 0.0), float(i.height))
    v_max = min(max(vs.max(), 0.0), float(i.height))
    return Box2D(u_min, v_min, u_max, v_max), nearest


def iou(a: Box2D, b: Box2D) -> float:
    """Intersection over union; 0 when the union has no area."""
    iw = min(a.u_max, b.u_max) - max(a.u_min, b.u_min)
    ih = min(a.v_max, b.v_max) - max(a.v_min, b.v_min)
    inter = max(0.0, iw) * max(0.0, ih)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union
