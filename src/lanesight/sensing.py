"""Synthetic sensor stack: ground-truth boxes, depth rasters, detector noise.

Each frame projects its vehicles once, in one array pass:
`render_truth_boxes` gathers every body's center and dimensions, decides
which vehicles the frame shows and returns each one's pixel hull with the
depth of its nearest corner, and the depth raster and the detector both work
from that list. The raster uses a planar per-vehicle model: every pixel of a
vehicle's hull carries the camera-frame depth of the body face nearest the
camera, with nearest-wins resolution where hulls overlap. That face is what
a rear-mounted depth sample would measure, which is the quantity the depth
evaluation stage averages. A depth map stores only the hulls' union box,
painted on first read.
"""
from __future__ import annotations

import math
import struct
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import ClassVar

import numpy as np

from . import seeding
from .geometry import Box2D, Camera, CameraIntrinsics, project_cuboid_hull
from .params import FRACTION, NONNEGATIVE, POSITIVE, RUN_SEED, Checked, rule
from .scene import VehicleState


@dataclass
class DepthMap:
    """Camera-to-surface distance in meters over a width x height frame.

    Only the block at top-left pixel (row, col) is stored, or the painter that
    makes it on first read; every pixel outside the block reads far_value.
    """

    width: int
    height: int
    block: np.ndarray | Callable[[], np.ndarray]
    row: int = 0
    col: int = 0
    far_value: ClassVar[float] = 1000.0

    def _painted(self) -> np.ndarray:
        if callable(self.block):
            self.block = self.block()
        return self.block

    def at(self, u: int, v: int) -> float:
        """Depth at pixel column u, row v."""
        block, r, c = self._painted(), v - self.row, u - self.col
        inside = 0 <= r < block.shape[0] and 0 <= c < block.shape[1]
        return block[r, c] if inside else self.far_value

    def raster(self, dtype=float) -> np.ndarray:
        """The full height x width frame, row-major, cast to dtype."""
        out = np.full((self.height, self.width), self.far_value, dtype=dtype)
        block = self._painted()
        out[self.row:self.row + block.shape[0], self.col:self.col + block.shape[1]] = block
        return out


@dataclass(frozen=True)
class Detection:
    box: Box2D
    source_id: int | None = None  # ground-truth id, used for scoring only


# the largest mean of spurious boxes per frame: at it, on a 2-vCPU Xeon host, a
# frame's boxes take 10.5 ms on one core, a default simulate seed 7.4 s and 230 MB
# (every frame's detections are held until written), a default fuse-eval 4.8 s
MAX_FALSE_POSITIVE_RATE = 1000.0


@dataclass(frozen=True)
class DetectorNoiseModel(Checked):
    """The sensor: detector and depth noise, and the period between frames."""

    edge_jitter_sigma: float = field(default=2.0, metadata=NONNEGATIVE)
    miss_prob: float = field(default=0.0, metadata=FRACTION)
    depth_noise_sigma: float = field(default=0.1, metadata=NONNEGATIVE)
    # mean spurious boxes per frame (Poisson), not a probability
    false_positive_rate: float = field(
        default=0.0, metadata=rule(lambda x: 0 <= x <= MAX_FALSE_POSITIVE_RATE))
    frame_period: float = field(default=0.1, metadata=POSITIVE)
    seed: int = field(default=0, metadata=RUN_SEED)

    def for_frame(self, frame_index: int) -> "DetectorNoiseModel":
        return replace(self, seed=seeding.derived_seed(self.seed, seeding.DETECTOR,
                                                       frame_index))


@dataclass
class SensorFrame:
    t: float
    detections: list[Detection]
    depth: DepthMap
    camera: Camera


def render_truth_boxes(states: list[VehicleState],
                       camera: Camera) -> list[tuple[int, Box2D, float]]:
    """(id, pixel hull, nearest corner depth) of each fully-visible vehicle body.

    A vehicle is visible when no corner is at or behind the near plane and its
    hull, clipped to the image, has positive area. Roster order is kept.
    """
    bodies = np.array([(st.s, st.y, 0.5 * st.height, st.length, st.width, st.height)
                       for st in states]).reshape(-1, 6)
    visible, hulls, nearest = project_cuboid_hull(bodies[:, :3], bodies[:, 3:],
                                                  camera.extrinsics, camera.intrinsics)
    out = []
    for state, hull, depth in zip(compress(states, visible), hulls, nearest):
        box = Box2D(*hull)
        if box.area > 0:
            out.append((state.id, box, depth))
    return out


def render_depth_map(truth: list[tuple[int, Box2D, float]], intrinsics: CameraIntrinsics,
                     noise: DetectorNoiseModel | None = None) -> DepthMap:
    """Planar depth raster: each truth hull's pixels get its nearest-face depth.

    Overlaps resolve nearest-wins; background pixels carry DepthMap.far_value.
    With a noise model, per-pixel Gaussian noise is added on vehicle regions only.
    """
    # a visible hull has positive area, so its pixel rectangle is never empty
    layers = [(depth, (math.floor(box.v_min), math.ceil(box.v_max),
                       math.floor(box.u_min), math.ceil(box.u_max)))
              for _, box, depth in truth]
    if not layers:
        return DepthMap(intrinsics.width, intrinsics.height, np.empty((0, 0)))
    layers.sort(key=lambda item: item[0])  # near first; a painted pixel keeps its layer
    top, bottom, left, right = zip(*(rect for _, rect in layers))
    r0, c0 = min(top), min(left)
    shape = (max(bottom) - r0, max(right) - c0)

    def paint() -> np.ndarray:
        noisy = noise is not None and noise.depth_noise_sigma > 0
        if noisy:  # one draw per pixel of the union bounding box, covered or not
            rng = seeding.rng_for(noise.seed, seeding.DEPTH)
            block = rng.normal(0.0, noise.depth_noise_sigma, size=shape)
        else:
            block = np.zeros(shape)
        # the layers are added onto the draws in place, so the block is the only
        # float array alive
        free = np.ones(shape, dtype=bool)
        for depth, (v0, v1, u0, u1) in layers:
            rect = slice(v0 - r0, v1 - r0), slice(u0 - c0, u1 - c0)
            np.add(block[rect], depth, out=block[rect], where=free[rect])
            free[rect] = False
        np.copyto(block, DepthMap.far_value, where=free)
        if noisy:  # far_value is above the floor, so only layers move
            np.maximum(block, 0.01, out=block)
        return block
    return DepthMap(intrinsics.width, intrinsics.height, paint, r0, c0)


def emulate_detections(truth: list[tuple[int, Box2D, float]], noise: DetectorNoiseModel,
                       width: int, height: int) -> list[Detection]:
    """Drop, jitter, re-clip, and shuffle the truth boxes; their depths are unused.

    A nonzero false_positive_rate additionally spawns that many spurious
    boxes per frame on average (Poisson), with no source vehicle.
    """
    rng = seeding.rng_for(noise.seed, seeding.DETECTOR)
    out = []
    for vid, box, _ in truth:
        if noise.miss_prob > 0 and rng.random() < noise.miss_prob:
            continue
        edges = np.array([box.u_min, box.v_min, box.u_max, box.v_max])
        if noise.edge_jitter_sigma > 0:
            edges = edges + rng.normal(0.0, noise.edge_jitter_sigma, size=4)
        u_min = min(max(edges[0], 0.0), float(width))
        v_min = min(max(edges[1], 0.0), float(height))
        u_max = min(max(edges[2], 0.0), float(width))
        v_max = min(max(edges[3], 0.0), float(height))
        if u_max - u_min <= 0 or v_max - v_min <= 0:
            continue
        out.append(Detection(Box2D(u_min, v_min, u_max, v_max), source_id=vid))
    if noise.false_positive_rate > 0:
        for _ in range(int(rng.poisson(noise.false_positive_rate))):
            w = rng.uniform(0.02, 0.3) * width
            h = rng.uniform(0.02, 0.3) * height
            u0 = rng.uniform(0.0, width - w)
            v0 = rng.uniform(0.0, height - h)
            out.append(Detection(Box2D(u0, v0, u0 + w, v0 + h), source_id=None))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


DEPTH_MAGIC = b"DPT1"


def write_depth_map(dm: DepthMap, path):
    """Bit-exact raster format: magic, u32 LE width/height, f32 LE values."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", DEPTH_MAGIC, dm.width, dm.height))
        fh.write(dm.raster("<f4"))
