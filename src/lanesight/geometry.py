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

One projection serves the anchor point and the vehicle bodies alike:
`world_to_camera` on rows of points, then a near-plane check and a divide.
`project_cuboid_hull` takes every body of a frame at once, as rows of
centers and dimensions, and reports which bodies are wholly beyond the near
plane; `project_anchor` raises BehindCamera for a single point.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import NONNEGATIVE, POSITIVE, Checked


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
        camera z = world +x (forward). The rotation is the constant
        _ROAD_AXES, which went through the constructor's checks at import.
        """
        e = cls.__new__(cls)
        e.rotation = _ROAD_AXES
        e.translation = -_ROAD_AXES @ position.as_array()
        return e


_ROAD_AXES = CameraExtrinsics([[0.0, -1.0, 0.0],
                               [0.0, 0.0, -1.0],
                               [1.0, 0.0, 0.0]], np.zeros(3)).rotation
_ROAD_AXES.setflags(write=False)  # shared by every along-road camera


# the most pixels a frame may hold: at it, on a 2-vCPU Xeon host, a frame whose
# bodies fill the image takes 0.48 s and 244 MB to render and write, and its DPT1
# file is 64 MiB; a default simulate frame there peaks at 102 MB
MAX_IMAGE_PIXELS = 4096 * 4096


@dataclass(frozen=True)
class CameraIntrinsics(Checked):
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
        super().__post_init__()
        if not (self.u0 < self.width and self.v0 < self.height):
            raise ValueError("u0/v0: principal point must lie inside the image")
        if self.width * self.height > MAX_IMAGE_PIXELS:
            raise ValueError(f"width/height: the image holds more than the {MAX_IMAGE_PIXELS} "
                             "pixels a frame may hold")

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


# the 8 body corners as signs of the half extents, in (x, y, z) order
_CORNER_SIGNS = np.array([(sx, sy, sz) for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)
                          for sz in (-1.0, 1.0)])


def world_to_camera(points: np.ndarray, e: CameraExtrinsics) -> np.ndarray:
    """Apply the rigid world-to-camera transform to each row of `points`."""
    return points @ e.rotation.T + e.translation


def project_anchor(p_w: WorldPoint, e: CameraExtrinsics, i: CameraIntrinsics) -> PixelPoint:
    """Project a world point into the image; may land outside the frame.

    Raises BehindCamera when the point is at or behind the near plane.
    """
    (x, y, z), = world_to_camera(p_w.as_array()[None], e)
    if z <= i.near_plane:
        raise BehindCamera(f"z_c={z:.3f} <= near_plane={i.near_plane:.3f}")
    return PixelPoint(i.u0 + i.fx * (x / z), i.v0 + i.fy * (y / z), z)


def project_cuboid_hull(centers: np.ndarray, dims: np.ndarray, e: CameraExtrinsics,
                        i: CameraIntrinsics) -> tuple[np.ndarray, list[tuple], list[float]]:
    """Project axis-aligned bodies, one per row of `centers` and of `dims`
    (length, width, height), in one array pass.

    Returns (visible, hulls, nearest): `visible` marks the bodies whose 8
    corners all lie beyond the near plane; for those, in row order, `hulls`
    holds the (u_min, v_min, u_max, v_max) of the projected corners, clipped
    to the image, and `nearest` the camera-frame depth of the nearest corner.
    A body outside the frustum sideways clips to a zero-area hull.
    """
    corners = centers[:, None, :] + _CORNER_SIGNS * (0.5 * dims)[:, None, :]
    cam = world_to_camera(corners.reshape(-1, 3), e).reshape(-1, 8, 3)
    nearest = cam[:, :, 2].min(axis=1)
    visible = nearest > i.near_plane
    cam = cam[visible]
    z = cam[:, :, 2]
    us = i.u0 + i.fx * (cam[:, :, 0] / z)
    vs = i.v0 + i.fy * (cam[:, :, 1] / z)
    edges = np.stack((us.min(axis=1), vs.min(axis=1), us.max(axis=1), vs.max(axis=1)),
                     axis=1).tolist()
    w, h = float(i.width), float(i.height)
    # clipped one Python float at a time, which keeps a -0.0 edge as it is
    hulls = [(min(max(u0, 0.0), w), min(max(v0, 0.0), h), min(max(u1, 0.0), w),
              min(max(v1, 0.0), h)) for u0, v0, u1, v1 in edges]
    return visible, hulls, nearest[visible].tolist()


def iou(a: Box2D, b: Box2D) -> float:
    """Intersection over union; 0 when the union has no area."""
    iw = min(a.u_max, b.u_max) - max(a.u_min, b.u_min)
    ih = min(a.v_max, b.v_max) - max(a.v_min, b.v_min)
    inter = max(0.0, iw) * max(0.0, ih)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union
