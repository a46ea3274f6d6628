"""Simulated vehicle-to-cloud channel with periodic publication and latency.

The store is single-writer (the simulation loop) and holds the full publish
history per vehicle, so queries at any timestamp see a consistent snapshot:
the newest record whose publish time is at most t - latency.

A vehicle's history is five typed columns, ``array("d")`` of publish time t
and the body centroid's x, y, z and the speed v, one row per publish, 8 B
per value. A publish appends one row; a query bisects the t column and
returns the visible row as a tuple.

Lane-change predictions come back on the same channel and live only here:
each car's advisories are two such columns, issued time and probability.
"""
from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field

from .geometry import WorldPoint
from .params import NONNEGATIVE, POSITIVE, Checked
from .scene import VehicleState


@dataclass(frozen=True)
class ChannelConfig(Checked):
    publish_period: float = field(default=0.1, metadata=POSITIVE)
    latency: float = field(default=0.0, metadata=NONNEGATIVE)


class ProbabilityOutOfRange(ValueError):
    """An advisory's probability is not in [0, 1]: NaN from an overflowing model."""


@dataclass
class TwinStore:
    records: dict[int, tuple[array, ...]] = field(default_factory=dict)  # t, x, y, z, v
    advisories: dict[int, tuple[array, array]] = field(default_factory=dict)  # t, p
    meta: dict[int, tuple[str, float]] = field(default_factory=dict)  # kind, length


def publish(store: TwinStore, state: VehicleState, t: float):
    """Append the vehicle's current pose; the anchor point is the body centroid."""
    cols = store.records.get(state.id)
    if cols is None:
        cols = store.records[state.id] = tuple(array("d") for _ in range(5))
        store.meta[state.id] = (state.kind, state.length)
    ts, xs, ys, zs, vs = cols
    ts.append(t)
    xs.append(state.s)
    ys.append(state.y)
    zs.append(0.5 * state.height)
    vs.append(state.v)


def _visible(times, t: float, latency: float) -> int:
    """How many of the ascending times are at most t - latency, give or take grid rounding."""
    return bisect_right(times, t - latency + 1e-12)


def query_target(store: TwinStore, vehicle_id: int, t: float,
                 cfg: ChannelConfig) -> tuple[float, float, float, float, float] | None:
    """The latest row (t, x, y, z, v) visible at time t given the channel latency,
    or None before the first."""
    cols = store.records.get(vehicle_id)
    i = _visible(cols[0], t, cfg.latency) if cols is not None else 0
    if i == 0:
        return None
    ts, xs, ys, zs, vs = cols
    i -= 1
    return ts[i], xs[i], ys[i], zs[i], vs[i]


def publish_advisory(store: TwinStore, vehicle_id: int, probability: float, t: float):
    """Append the vehicle's lane-change probability issued at t; ProbabilityOutOfRange,
    before any write, unless it lies in [0, 1]."""
    if not 0.0 <= probability <= 1.0:
        raise ProbabilityOutOfRange(f"probability {probability} out of range")
    cols = store.advisories.setdefault(vehicle_id, (array("d"), array("d")))
    cols[0].append(t)
    cols[1].append(probability)


def query_advisory(store: TwinStore, vehicle_id: int, t: float,
                   cfg: ChannelConfig) -> float | None:
    """The latest advisory's probability visible at time t, or None before the first."""
    cols = store.advisories.get(vehicle_id)
    i = _visible(cols[0], t, cfg.latency) if cols is not None else 0
    return cols[1][i - 1] if i else None


def gnss_distance(ego_camera_position: WorldPoint, reported: WorldPoint) -> float:
    """Euclidean distance from the camera to the cloud-reported position."""
    dx = ego_camera_position.x - reported.x
    dy = ego_camera_position.y - reported.y
    dz = ego_camera_position.z - reported.z
    return (dx * dx + dy * dy + dz * dz) ** 0.5
