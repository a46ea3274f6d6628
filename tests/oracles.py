"""Independent reference computations used to pin expected test values.

These deliberately take different routes than the library code: homogeneous
matrix products for the rigid transform and an explicit intrinsics matrix
that is inverted numerically for the projection. The per-corner sensing
functions are the other kind of reference: a copy of an earlier
implementation that the current one must match bit for bit, which builds
each body's corners from its center and dimensions (a vehicle's are read off
its state's fields) and never calls the library's projection; so are the
roster-scanning simulator tick with its leader and follower queries, its
car-following model and its ego policy, the lane-change features with their
own lead/lag scan, the target identification with its none/unique/tie
branches written out in each matcher, the twin store as a list of
records per vehicle, searched by a key function, the lane-change MLP's
training and inference with their masked sigmoid, per-batch gathers and
gradient dictionary, and the closed-loop run that scores one car per forward
pass and rebuilds the guided ego's guidance on every publish tick. One
function here is no reference: the fit's own loss and gradients, built on the
library's kernel, which the finite-difference checks differentiate.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import replace

import numpy as np

import lanesight.pipeline
import lanesight.prediction
import lanesight.scene
import lanesight.twinlink
from lanesight import seeding
from lanesight.fusion import IdentificationResult, _sample_region, depth_evaluate
from lanesight.geometry import BehindCamera, Box2D, PixelPoint, WorldPoint
from lanesight.prediction import FEATURE_SIZE, SENTINEL_GAP, MlpModel
from lanesight.scene import (DriverParams, EgoMemory, IdmParams, ManeuverPlan, Scenario,
                             VehicleState, lateral_profile)
from lanesight.twinlink import NoData, TwinRecord


def rodrigues(axis, angle: float) -> np.ndarray:
    """Rotation matrix from axis-angle via the Rodrigues formula."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    k = np.array([[0.0, -a[2], a[1]],
                  [a[2], 0.0, -a[0]],
                  [-a[1], a[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def homogeneous_world_to_camera(r: np.ndarray, t: np.ndarray, p_world) -> np.ndarray:
    """4x4 [R|t] homogeneous transform applied to a 3D point."""
    m = np.eye(4)
    m[:3, :3] = r
    m[:3, 3] = np.asarray(t, dtype=float)
    ph = np.append(np.asarray(p_world, dtype=float), 1.0)
    return (m @ ph)[:3]


def intrinsics_matrix(z_c: float, f: float, d_x: float, d_y: float,
                      u0: float, v0: float) -> np.ndarray:
    """Depth-dependent matrix mapping homogeneous pixels to camera coords."""
    return np.array([
        [z_c * d_x / f, 0.0, -z_c * d_x * u0 / f],
        [0.0, z_c * d_y / f, -z_c * d_y * v0 / f],
        [0.0, 0.0, z_c],
    ])


def matrix_projection(p_cam, f: float, d_x: float, d_y: float,
                      u0: float, v0: float) -> tuple[float, float]:
    """Project by numerically inverting the intrinsics matrix."""
    p = np.asarray(p_cam, dtype=float)
    m = intrinsics_matrix(p[2], f, d_x, d_y, u0, v0)
    uvw = np.linalg.solve(m, p)
    assert abs(uvw[2] - 1.0) < 1e-9
    return uvw[0], uvw[1]


def project_point_oracle(r, t, p_world, f, d_x, d_y, u0, v0) -> tuple[float, float, float]:
    """Full world-to-pixel composition through the matrix forms."""
    p_cam = homogeneous_world_to_camera(np.asarray(r, float), np.asarray(t, float), p_world)
    u, v = matrix_projection(p_cam, f, d_x, d_y, u0, v0)
    return u, v, p_cam[2]


# Reference copy of the per-corner sensing path as it stood before the array
# projection and the bounding-box raster: each body's 8 corners are built from
# its center and dimensions (for a vehicle, read off its state's fields), every
# corner goes through its own rigid transform and perspective divide, and the
# depth raster is painted and masked over the full frame. The library must
# match it exactly for cameras built by CameraExtrinsics.looking_along_road.

def body_of(state):
    """A vehicle's body as (center, (length, width, height)), read off its state."""
    return (state.s, state.y, 0.5 * state.height), (state.length, state.width, state.height)


def per_corner_world(center, dims) -> list[tuple[float, float, float]]:
    (x, y, z), (hl, hw, hh) = center, (0.5 * d for d in dims)
    return [(x + dx, y + dy, z + dz)
            for dx in (-hl, hl) for dy in (-hw, hw) for dz in (-hh, hh)]


def per_corner_hull(center, dims, e, i):
    """(u_min, v_min, u_max, v_max) clipped to the image, or None when a
    corner is at or behind the near plane."""
    us, vs = [], []
    for corner in per_corner_world(center, dims):
        v = e.rotation @ np.array(corner, dtype=float) + e.translation
        if v[2] <= i.near_plane:
            return None
        us.append(i.u0 + i.fx * (v[0] / v[2]))
        vs.append(i.v0 + i.fy * (v[1] / v[2]))
    return (min(max(min(us), 0.0), float(i.width)), min(max(min(vs), 0.0), float(i.height)),
            min(max(max(us), 0.0), float(i.width)), min(max(max(vs), 0.0), float(i.height)))


def per_corner_nearest_depth(center, dims, e) -> float:
    """The smallest camera-frame z over the 8 corners, one transform each."""
    return min((e.rotation @ np.array(p, dtype=float) + e.translation)[2]
               for p in per_corner_world(center, dims))


def per_corner_truth_boxes(states, camera) -> list[tuple[int, Box2D]]:
    out = []
    for state in states:
        edges = per_corner_hull(*body_of(state), camera.extrinsics, camera.intrinsics)
        if edges is not None and Box2D(*edges).area > 0:
            out.append((state.id, Box2D(*edges)))
    return out


def full_frame_depth_values(states, camera, noise=None) -> np.ndarray:
    """The depth raster, painted and noised through a full-frame mask."""
    intr = camera.intrinsics
    values = np.full((intr.height, intr.width), 1000.0)
    by_id = {state.id: state for state in states}
    layers = []
    for vid, box in per_corner_truth_boxes(states, camera):
        depth = per_corner_nearest_depth(*body_of(by_id[vid]), camera.extrinsics)
        layers.append((depth, box))
    layers.sort(key=lambda item: -item[0])
    covered = np.zeros_like(values, dtype=bool)
    for depth, box in layers:
        u0, u1 = int(np.floor(box.u_min)), int(np.ceil(box.u_max))
        v0, v1 = int(np.floor(box.v_min)), int(np.ceil(box.v_max))
        values[v0:v1, u0:u1] = depth
        covered[v0:v1, u0:u1] = True
    if noise is not None and noise.depth_noise_sigma > 0 and covered.any():
        rng = seeding.rng_for(noise.seed, seeding.DEPTH)
        rows = np.flatnonzero(covered.any(axis=1))
        cols = np.flatnonzero(covered.any(axis=0))
        r0, r1 = rows[0], rows[-1] + 1
        c0, c1 = cols[0], cols[-1] + 1
        patch = covered[r0:r1, c0:c1]
        jitter = rng.normal(0.0, noise.depth_noise_sigma, size=patch.shape)
        region = values[r0:r1, c0:c1]
        values[r0:r1, c0:c1] = np.where(patch, np.maximum(region + jitter, 0.01), region)
    return values


# Reference copy of the simulator tick as it stood before the per-lane index:
# every leader and follower query scans the whole roster, and ties go to the
# first vehicle in roster order. scene.step must match it bit for bit. Its
# car-following model is a copy of the IDM as it stood before the library's
# one-body rewrite, with max/min clamps and every constant read from p.

def car_following_accel(follower: VehicleState, leader: VehicleState | None,
                        p: IdmParams) -> float:
    """Intelligent-Driver-Model acceleration, clamped to [a_min, a_max]."""
    v = follower.v
    vd = max(follower.v_desired, 0.1)
    acc = p.a_max * (1.0 - (v / vd) ** p.delta)
    if leader is not None:
        gap = leader.s - follower.s - 0.5 * (leader.length + follower.length)
        if gap <= 0.1:
            return p.a_min
        dv = v - leader.v
        s_star = p.jam_gap + max(0.0, v * p.time_headway
                                 + v * dv / (2.0 * math.sqrt(p.a_max * p.comfort_decel)))
        acc -= p.a_max * (s_star / gap) ** 2
    return min(max(acc, p.a_min), p.a_max)


def _bumper_gap(rear: VehicleState, front: VehicleState) -> float:
    return front.s - rear.s - 0.5 * (front.length + rear.length)


# Reference copy of the ego policy as it stood before it read the tick's lane
# index: the encroachment record, the acknowledged leader and the guided cap
# each scan the whole roster, and the leader is the nearest by min() over the
# roster, so ties go to the first in roster order.

def ego_policy(ego: VehicleState, others: list[VehicleState],
               guidance: dict[int, float] | None, params: DriverParams,
               idm: IdmParams, memory: EgoMemory, t: float) -> float:
    """Acceleration command for the ego under the selected policy."""
    guidance = guidance or {}
    guided = params.policy == "guided"

    if guided:
        for vid, prob in guidance.items():
            if prob > params.p_trigger:
                memory.alerted.add(vid)

    for other in others:
        if other.lane == ego.lane and other.s > ego.s and other.id not in memory.encroach_t:
            memory.encroach_t[other.id] = t

    def acknowledged(veh: VehicleState) -> bool:
        entered = memory.encroach_t.get(veh.id)
        if entered is None:
            return False
        if guided and veh.id in memory.alerted:
            return True
        return t >= entered + params.reaction_time

    ahead = [v for v in others if v.lane == ego.lane and v.s > ego.s and acknowledged(v)]
    leader = min(ahead, key=lambda v: v.s) if ahead else None
    follow_idm = idm
    if guided and leader is not None and leader.id in memory.alerted:
        # an advised driver hangs farther back behind the merged vehicle
        follow_idm = replace(idm, time_headway=max(idm.time_headway, params.aware_headway))
    acc = car_following_accel(ego, leader, follow_idm)

    if leader is not None and guided and leader.id in memory.alerted:
        # A forewarned merge is regulated comfortably unless genuinely
        # critical (short gap or short projected time to contact).
        gap = _bumper_gap(ego, leader)
        closing = ego.v - leader.v
        safe_time = closing <= 0.2 or gap / max(closing, 1e-9) >= params.aware_ttc_min
        if gap > params.aware_gap_min and safe_time:
            acc = max(acc, -idm.comfort_decel)
    elif leader is not None and leader.id not in memory.calmed:
        # Startle response: hard braking at a late-noticed closing cut-in,
        # held past the point of matched speed before the driver relaxes.
        if leader.id not in memory.startled:
            if ego.v > leader.v + 0.05:
                memory.startled.add(leader.id)
            else:
                memory.calmed.add(leader.id)
        if leader.id in memory.startled:
            if ego.v > leader.v - params.startle_overshoot:
                acc = min(acc, params.late_decel)
            else:
                memory.calmed.add(leader.id)

    if guided:
        # Ease off while a flagged vehicle is ahead in an adjacent lane: shed
        # speed toward the threat's pace (never below a caution floor), then
        # hold there; the cap is latched so a recovering threat does not pull
        # the ego into accelerate-brake churn.
        cap_v = None
        for other in others:
            if other.lane == ego.lane or abs(other.lane - ego.lane) != 1:
                continue
            if not 0.0 < other.s - ego.s <= params.react_range:
                continue
            if guidance.get(other.id, 0.0) > params.p_trigger:
                cap = max(other.v + params.guided_margin,
                          ego.v_desired - params.caution_drop)
                cap_v = cap if cap_v is None else min(cap_v, cap)
        if cap_v is None:
            memory.caution_v = None
        else:
            if memory.caution_v is not None:
                cap_v = min(cap_v, memory.caution_v)
            memory.caution_v = cap_v
            if ego.v > cap_v:
                acc = min(acc, params.guided_decel)
            elif ego.v > cap_v - 1.0:
                acc = min(acc, 0.0)

    acc = min(max(acc, idm.a_min), idm.a_max)
    if memory.decel_onset is None and acc < -0.5:
        memory.decel_onset = t
    return acc


# Reference copy of the lane-change features as they stood before they read a
# lane index: each slot scans every state, and strict comparisons give ties
# to the first vehicle in states order.

def features_from_states(states: list[VehicleState], subject_id: int,
                         lane_count: int) -> np.ndarray:
    """Subject speed plus (speed difference, bumper gap) for six neighbor slots.

    Slot order: lead/lag in the subject's own lane, the lane to its left,
    and the lane to its right. Absent neighbors carry (0, SENTINEL_GAP).
    """
    subject = {s.id: s for s in states}[subject_id]  # KeyError if absent
    feats = [subject.v]
    for lane in (subject.lane, subject.lane + 1, subject.lane - 1):
        if lane < 0 or lane >= lane_count:
            feats += [0.0, SENTINEL_GAP, 0.0, SENTINEL_GAP]
            continue
        lead = lag = None
        for other in states:
            if other.id == subject_id or other.lane != lane:
                continue
            if other.s > subject.s and (lead is None or other.s < lead.s):
                lead = other
            if other.s <= subject.s and (lag is None or other.s > lag.s):
                lag = other
        for neighbor in (lead, lag):
            if neighbor is None:
                feats += [0.0, SENTINEL_GAP]
            else:
                gap = abs(neighbor.s - subject.s) - 0.5 * (neighbor.length + subject.length)
                feats += [neighbor.v - subject.v, gap]
    return np.asarray(feats)


def _leader_in_lane(vehicles, me: VehicleState, lane: int) -> VehicleState | None:
    best = None
    for other in vehicles:
        if other.id == me.id or other.lane != lane or other.s <= me.s:
            continue
        if best is None or other.s < best.s:
            best = other
    return best


def _follower_in_lane(vehicles, me: VehicleState, lane: int) -> VehicleState | None:
    best = None
    for other in vehicles:
        if other.id == me.id or other.lane != lane or other.s > me.s:
            continue
        if best is None or other.s > best.s:
            best = other
    return best


def _gap_acceptable(scn: Scenario, veh: VehicleState, to_lane: int) -> bool:
    cfg = scn.cfg
    lead = _leader_in_lane(scn.vehicles, veh, to_lane)
    if lead is not None and _bumper_gap(veh, lead) <= cfg.min_lead_gap:
        return False
    lag = _follower_in_lane(scn.vehicles, veh, to_lane)
    if lag is not None and _bumper_gap(lag, veh) <= cfg.min_lag_gap:
        return False
    return True


def _maybe_trigger_changes(scn: Scenario):
    cfg = scn.cfg
    for vid in sorted(v.id for v in scn.pending_changers):
        veh = scn.vehicle(vid)
        if veh.lane >= scn.lanes.lane_count - 1:
            scn.pending_changers.remove(veh)
            continue
        if cfg.accident_s - veh.s > cfg.trigger_distance:
            continue
        to_lane = veh.lane + 1
        if _gap_acceptable(scn, veh, to_lane):
            plan = ManeuverPlan(vid, scn.t, scn.t + cfg.lane_change_duration,
                                veh.lane, to_lane)
            scn.plans.append(plan)
            scn.active_maneuvers[vid] = plan
            scn.pending_changers.remove(veh)


def _neighbor_accel(scn: Scenario, veh: VehicleState) -> float:
    lanes_to_watch = {veh.lane}
    plan = scn.active_maneuvers.get(veh.id)
    if plan is not None:
        lanes_to_watch.update((plan.from_lane, plan.to_lane))
    acc = None
    for lane in sorted(lanes_to_watch):
        leader = _leader_in_lane(scn.vehicles, veh, lane)
        a = car_following_accel(veh, leader, scn.cfg.idm)
        acc = a if acc is None else min(acc, a)
    return acc


def step(scn: Scenario, guidance: dict[int, float] | None = None):
    """Advance every vehicle by one dt_sim tick."""
    cfg = scn.cfg
    dt = cfg.dt_sim

    _maybe_trigger_changes(scn)

    accels: dict[int, float] = {}
    for veh in scn.vehicles:
        if veh.kind == "truck":
            accels[veh.id] = 0.0
        elif veh.id == scn.ego_id:
            others = [v for v in scn.vehicles if v.id != scn.ego_id]
            accels[veh.id] = ego_policy(veh, others, guidance, cfg.driver,
                                        cfg.idm, scn.memory, scn.t)
        else:
            accels[veh.id] = _neighbor_accel(scn, veh)

    for veh in scn.vehicles:
        a = accels[veh.id]
        new_v = max(0.0, veh.v + a * dt)
        veh.s += veh.v * dt
        veh.a = (new_v - veh.v) / dt
        veh.v = new_v

    scn.step_count += 1
    t_new = scn.t

    for vid, plan in list(scn.active_maneuvers.items()):
        veh = scn.vehicle(vid)
        q = min((t_new - plan.t_start) / (plan.t_end - plan.t_start), 1.0)
        origin = scn.lanes.center(plan.from_lane)
        target = scn.lanes.center(plan.to_lane)
        veh.y = origin + (target - origin) * lateral_profile(q)
        veh.lane = scn.lanes.lane_of(veh.y)
        if t_new >= plan.t_end:
            veh.y = target
            veh.lane = plan.to_lane
            del scn.active_maneuvers[vid]

    by_lane: dict[int, list[VehicleState]] = {}
    for veh in scn.vehicles:
        by_lane.setdefault(veh.lane, []).append(veh)
    for members in by_lane.values():
        members.sort(key=lambda v: v.s)
        for first, second in zip(members, members[1:]):
            if _bumper_gap(first, second) < 0.0:
                scn.collisions.append((t_new, first.id, second.id))


# Reference copy of target identification as it stood before the single
# decision path: the anchor goes through its own per-point transform and
# divide, and each matcher writes out its no-match, unique and tie branches.
# For valid methods, fusion.identify must choose the very same detection
# object, with the same anchor and candidate count.

def project_anchor(p_w, e, i) -> PixelPoint:
    v = e.rotation @ p_w.as_array() + e.translation
    x_c, y_c, z_c = v[0], v[1], v[2]
    if z_c <= i.near_plane:
        raise BehindCamera(f"z_c={z_c:.3f} <= near_plane={i.near_plane:.3f}")
    u = i.u0 + i.fx * (x_c / z_c)
    v = i.v0 + i.fy * (y_c / z_c)
    return PixelPoint(u, v, z_c)


def _candidates(anchor, detections) -> list[int]:
    return [i for i, det in enumerate(detections) if det.box.contains(anchor.u, anchor.v)]


def match_target(anchor, detections, depths, d_g, t=0.0) -> IdentificationResult:
    if len(depths) != len(detections):
        raise ValueError("depth estimates must align with detections")
    cand = _candidates(anchor, detections)
    if not cand:
        return IdentificationResult(t, None, "fused", anchor, 0)
    if len(cand) == 1:
        return IdentificationResult(t, detections[cand[0]], "fused", anchor, 1)
    best = min(cand, key=lambda i: (abs(depths[i] - d_g), i))
    return IdentificationResult(t, detections[best], "fused", anchor, len(cand))


def match_target_baseline(anchor, detections, t=0.0) -> IdentificationResult:
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


def identify(frame, twin, d_g, params, method="fused") -> IdentificationResult:
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


# Reference copy of the twin store as it stood before typed columns: each
# publish appends a TwinRecord to its vehicle's list, and a query bisects the
# list by publish time through a key function. records maps id -> list.
def publish(records: dict, state: VehicleState, t: float):
    record = TwinRecord(state.id, WorldPoint(state.s, state.y, 0.5 * state.height),
                        state.v, t)
    records.setdefault(state.id, []).append(record)


def query_target(records: dict, vehicle_id: int, t: float, cfg) -> TwinRecord:
    history = records.get(vehicle_id, [])
    bound = t - cfg.latency
    idx = bisect_right(history, bound + 1e-12, key=lambda r: r.publish_t)
    if idx == 0:
        raise NoData(f"no record for vehicle {vehicle_id} at or before t={bound:.3f}")
    return history[idx - 1]


# Linear-scan reference of the advisory query: advisories maps id -> a list of
# (issued t, probability) in issue order; the answer is the probability of the
# last one issued at or before t - latency, or None.
def query_advisory(advisories: dict, vehicle_id: int, t: float, cfg) -> float | None:
    seen = None
    for issued, probability in advisories.get(vehicle_id, []):
        if issued <= t - cfg.latency + 1e-12:
            seen = probability
    return seen


def kernel_loss_and_gradients(model: MlpModel, x: np.ndarray, y: np.ndarray):
    """Mean binary cross-entropy and its gradients on standardized inputs,
    through the forward and backward passes prediction.train runs: not a
    reference, but the fit's own kernel, for finite-difference checks.

    The loss is evaluated in logit form, log(1 + e^z) - y z, which is stable
    at saturation and differentiates exactly to the (p - y) error term.
    """
    z, hidden = lanesight.prediction._forward(model.w1, model.b1, model.w2, model.b2, x)
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    grads = lanesight.prediction._backward(model.w2, x, y, z, hidden)
    return loss, dict(zip(("w1", "b1", "w2", "b2"), grads))


# Reference copy of the lane-change MLP as it stood before its lean kernel:
# the sigmoid gathers and scatters through a sign mask, every batch is
# gathered from the dataset by index, the backward pass takes an outer
# product, and every batch's loss is computed. prediction.train and
# prediction.infer must match it bit for bit, NaN sign bits included.

def sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def forward(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    hidden = np.maximum(x @ model.w1.T + model.b1, 0.0)
    return hidden @ model.w2 + model.b2, hidden


def loss_and_gradients(model: MlpModel, x: np.ndarray, y: np.ndarray):
    n = len(y)
    z, hidden = forward(model, x)
    prob = sigmoid(z)
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    delta = (prob - y) / n
    grad_w2 = hidden.T @ delta
    grad_b2 = float(delta.sum())
    back = np.outer(delta, model.w2) * (hidden > 0)
    grad_w1 = back.T @ x
    grad_b1 = back.sum(axis=0)
    return loss, {"w1": grad_w1, "b1": grad_b1, "w2": grad_w2, "b2": grad_b2}


def train(dataset, cfg) -> MlpModel:
    """Seeded mini-batch gradient descent; the caller ensures two classes."""
    x = np.asarray([s.features for s in dataset], dtype=float)
    y = np.asarray([s.label for s in dataset], dtype=float)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0.0] = 1.0
    rng = seeding.rng_for(cfg.seed, seeding.TRAINING)
    scale = np.sqrt(2.0 / FEATURE_SIZE)
    model = MlpModel(
        w1=rng.normal(0.0, scale, size=(cfg.hidden, FEATURE_SIZE)),
        b1=np.zeros(cfg.hidden),
        w2=rng.normal(0.0, np.sqrt(1.0 / cfg.hidden), size=cfg.hidden),
        b2=0.0,
        feat_mean=mean,
        feat_std=std,
    )
    xs = model.standardize(x)
    n = len(y)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            _, grads = loss_and_gradients(model, xs[batch], y[batch])
            model.w1 -= cfg.learning_rate * grads["w1"]
            model.b1 -= cfg.learning_rate * grads["b1"]
            model.w2 -= cfg.learning_rate * grads["w2"]
            model.b2 -= cfg.learning_rate * grads["b2"]
    return model


def infer(model: MlpModel, features) -> float:
    x = np.asarray(features, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        prob = sigmoid(forward(model, model.standardize(x)[None, :])[0])
    return float(prob[0])


# Reference copy of pipeline.simulate_run's loop as it stood before one stacked
# forward pass per inference tick: each car's features go through their own
# call of the reference infer above, and a guided run rebuilds its guidance on
# every publish tick. It drives the library's scenario, tick (looked up on
# lanesight.scene at each call), twin store and snapshot, so
# pipeline.simulate_run must give the same log, store and guidance bit for bit.
def simulate_run(cfg, channel, model):
    scn = lanesight.scene.build_scenario(cfg)
    store = lanesight.twinlink.TwinStore()
    n_steps = int(round(cfg.duration / cfg.dt_sim))
    record_stride = lanesight.scene.grid_stride(lanesight.scene.LOG_PERIOD, cfg.dt_sim)
    publish_stride = lanesight.scene.grid_stride(channel.publish_period, cfg.dt_sim)
    infer_stride = lanesight.scene.grid_stride(lanesight.pipeline.INFER_PERIOD, cfg.dt_sim)
    guided = cfg.driver.policy == "guided"
    guidance = {}
    for k in range(n_steps + 1):
        t = scn.t
        if k % record_stride == 0:
            scn.record()
        if k % publish_stride == 0:
            for veh in scn.vehicles:
                lanesight.twinlink.publish(store, veh, t)
            if model is not None and k % infer_stride == 0:
                snapshot = lanesight.pipeline._twin_snapshot(store, t, channel, cfg.lanes)
                index = lanesight.scene._lane_index(snapshot)
                for subject in snapshot:
                    if subject.kind == "car":
                        feats = lanesight.prediction.features_from_states(
                            index, subject, cfg.lanes.lane_count)
                        lanesight.twinlink.publish_advisory(store, subject.id,
                                                            infer(model, feats), t)
            if guided:
                guidance = {}
                for vid in store.advisories:
                    prob = lanesight.twinlink.query_advisory(store, vid, t, channel)
                    if prob is not None:
                        guidance[vid] = prob
        if k < n_steps:
            lanesight.scene.step(scn, guidance if guided else None)
    return scn.build_log(lanesight.scene.LOG_PERIOD), store
