"""Simulated vehicle-to-cloud channel with periodic publication and latency.

The store is single-writer (the simulation loop) and holds a run's full
history, so queries at any timestamp see a consistent snapshot: the newest
publish tick whose time is at most t - latency.

The roster never changes during a run and publishes whole at every tick, so
the history is tick-major: one ``array("d")`` of publish times, and per
vehicle, in id order, three typed columns of the body centroid's x and y and
the speed v, one row per tick, 8 B per value. A vehicle's kind, length and
centroid height z are fixed at its first publish. A query bisects the time
column once and returns the visible tick's rows.

Lane-change predictions come back on the same channel and live only here:
an inference round advises every car of its snapshot, so the rounds are one
time column and each car's advisories one probability column beside it.
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
    times: array = field(default_factory=lambda: array("d"))  # each publish tick
    records: dict[int, tuple[array, array, array]] = field(default_factory=dict)  # x, y, v
    meta: dict[int, tuple[str, float, float]] = field(default_factory=dict)  # kind, length, z
    issued: array = field(default_factory=lambda: array("d"))  # each inference round
    advisories: dict[int, array] = field(default_factory=dict)  # a car's p per round


def publish(store: TwinStore, vehicles: list[VehicleState], t: float):
    """Append the roster's poses at publish tick t; the anchor point is the body
    centroid. The first tick sets the roster, in id order, for every later one."""
    if not store.records:
        for veh in sorted(vehicles, key=lambda veh: veh.id):
            store.records[veh.id] = array("d"), array("d"), array("d")
            store.meta[veh.id] = veh.kind, veh.length, 0.5 * veh.height
    store.times.append(t)
    for veh in vehicles:
        xs, ys, vs = store.records[veh.id]
        xs.append(veh.s)
        ys.append(veh.y)
        vs.append(veh.v)


def _visible(times, t: float, latency: float) -> int:
    """How many of the ascending times are at most t - latency, give or take grid rounding."""
    return bisect_right(times, t - latency + 1e-12)


def query_target(store: TwinStore, t: float,
                 cfg: ChannelConfig) -> list[tuple[int, float, float, float, float]]:
    """The rows (id, x, y, z, v) of the latest tick visible at time t given the
    channel latency, in id order; none before the first."""
    i = _visible(store.times, t, cfg.latency) - 1
    return [] if i < 0 else [(vid, xs[i], ys[i], store.meta[vid][2], vs[i])
                             for vid, (xs, ys, vs) in store.records.items()]


def publish_advisory(store: TwinStore, probabilities: dict[int, float], t: float):
    """Append the round issued at t, {car id: lane-change probability}, which
    advises the same cars as every round before it; ProbabilityOutOfRange,
    before any write, unless each probability lies in [0, 1]."""
    for probability in probabilities.values():
        if not 0.0 <= probability <= 1.0:
            raise ProbabilityOutOfRange(f"probability {probability} out of range")
    store.issued.append(t)
    for vid, probability in probabilities.items():
        store.advisories.setdefault(vid, array("d")).append(probability)


def query_advisory(store: TwinStore, t: float, cfg: ChannelConfig) -> dict[int, float]:
    """{car id: probability} of the latest round visible at time t; {} before the first."""
    i = _visible(store.issued, t, cfg.latency) - 1
    return {} if i < 0 else {vid: probs[i] for vid, probs in store.advisories.items()}


def gnss_distance(ego_camera_position: WorldPoint, reported: WorldPoint) -> float:
    """Euclidean distance from the camera to the cloud-reported position."""
    dx = ego_camera_position.x - reported.x
    dy = ego_camera_position.y - reported.y
    dz = ego_camera_position.z - reported.z
    return (dx * dx + dy * dy + dz * dz) ** 0.5
