"""End-to-end runners: closed-loop simulation, corpus building, datasets.

The closed-loop runner owns the cadence logic: the scene is recorded on the
grid its log is read at, the whole roster publishes to the twin store every
channel period, and once per second the classifier scores every car of a twin
snapshot in one forward pass, whose advisories publish back on the same
channel as one round. The guided ego gets the flagged set, the cars whose
visible advisory is above `driver.p_trigger`, once per advisory round: it is
rebuilt on the publish tick where another round becomes visible through the
latency, and between them it is the same set. The store is the one home of a
run's predictions; `_traced` reads them for predict-eval. A run whose store
would be dropped (`train`'s runs, the baseline `closed-loop` leg) has no
channel and publishes nothing.

Work that never reads other work of its kind (a closed-loop pair's two legs,
the seeds of a training set or of a held-out evaluation, the sensor frames of
a finished log or of a fuse-eval corpus) fans out over the k CPUs of the
process's affinity mask, one item per run, leg or frame. Every random draw of
a frame comes from streams keyed by (seed, frame number), so a frame needs no
other frame. The calling process runs every k-th item itself; each of k - 1
forked helpers inherits the inputs by fork, runs its share and sends only its
results back, as one pickle through its own pipe, before it exits.
`taskset -c 0` runs it all in the calling process, and the outputs are
byte-identical at any CPU count.
"""
from __future__ import annotations

import os
import pickle
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import seeding
from .evaluation import SafetyReport, safety_report
from .fusion import FusionParams, identify
from .geometry import Box2D, Camera, CameraIntrinsics, WorldPoint, iou
from .params import DRAW_BOUND, FRACTION, POSITIVE, Checked, rule
from .prediction import MlpModel, TrainConfig, WindowParams, features_from_states, infer, \
    label_windows, nonchanger_negatives
from .scene import (
    CAR_DIMS,
    LOG_PERIOD,
    LaneSpec,
    ManeuverPlan,
    ScenarioConfig,
    TrajectoryLog,
    VehicleState,
    _lane_index,
    build_scenario,
    grid_stride,
    step,
)
from .sensing import Detection, DetectorNoiseModel, SensorFrame, emulate_detections, \
    render_depth_map, render_truth_boxes, write_depth_map
from .twinlink import ChannelConfig, TwinStore, _visible, gnss_distance, \
    publish, publish_advisory, query_advisory, query_target

INFER_PERIOD = 1.0  # seconds between per-vehicle predictions
DECISION_THRESHOLD = 0.5  # an advisory's probability at or above this sets its bit
REPORT_IOU = 0.7  # fuse-eval summaries report accuracy at this IoU threshold
ABREAST_OFFSET = (0.05, 0.3)  # fuse-eval: an abreast target's offset from the lane center
# the most frames a fuse-eval corpus may draw: on a 2-vCPU Xeon host about
# 7.6 min, with peaks of 518 MB in the calling process and 357 MB in its helper,
# which pickles its half of the rows back; on one CPU 11.5 min and 454 MB
MAX_CORPUS_FRAMES = 10**6


@dataclass(frozen=True)
class CameraMount(Checked):
    """Intrinsics plus the camera's pose offset from the ego body center."""

    intrinsics: CameraIntrinsics = field(default_factory=CameraIntrinsics)
    mount_forward: float = 2.0
    mount_up: float = field(default=1.4, metadata=POSITIVE)
    mount_left: float = 0.0

    def camera_for(self, ego: VehicleState) -> Camera:
        return Camera(WorldPoint(ego.s + self.mount_forward, ego.y + self.mount_left,
                                 self.mount_up), self.intrinsics)


def _cpu_count() -> int:  # of the affinity mask; 1 where there is none
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _share(fn, items: Sequence) -> tuple[list, Exception | None]:
    """[fn(item) for item in items] up to the first error, and that error."""
    results = []
    try:
        for item in items:
            results.append(fn(item))
    except Exception as exc:
        return results, exc
    return results, None


def _help(fn, items: Sequence, fd: int):
    """A forked helper: its share, written to fd as one pickle; an error that does
    not pickle goes as a RuntimeError naming it. It leaves by os._exit."""
    try:
        results, error = _share(fn, items)
        try:
            pickle.loads(pickle.dumps(error))
        except Exception:
            error = RuntimeError(f"a helper raised {error!r}, which does not pickle")
        with open(fd, "wb") as pipe:
            pipe.write(pickle.dumps((results, error)))
    finally:
        os._exit(0)


def _fan_out(fn, items: Sequence) -> list:
    """[fn(item) for item in items] over k = min(len(items), usable CPUs)
    processes, items being any sequence that slices, such as a range, and fn
    a partial that binds what the items share, the item coming last. The
    caller runs items[0::k], all of them before it reads a helper, and forked
    helper h = 1 .. k - 1 runs items[h::k] and sends its results through its
    own pipe; inputs reach it by fork. Results come in item order. Each process
    stops at its own first error; the error raised is the first in item order,
    as in one process. Every pipe is read to its end before its helper is
    reaped, and every helper is reaped on every path."""
    k = min(len(items), _cpu_count())
    if k < 2:
        return [fn(item) for item in items]
    helpers = []  # (pid, read end), helper h at index h - 1
    try:
        for h in range(1, k):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:
                _help(fn, items[h::k], write)
            os.close(write)  # before the next fork, so only helper h holds it
            helpers.append((pid, read))
        shares = [_share(fn, items[::k])]
        for _, read in helpers:
            with open(read, "rb", closefd=False) as pipe:
                sent = pipe.read()
            shares.append(pickle.loads(sent) if sent else
                          ([], RuntimeError("a helper exited without sending its results")))
    finally:
        for pid, read in helpers:
            os.close(read)
            os.waitpid(pid, 0)
    failed = [h + k * len(got) for h, (got, error) in enumerate(shares) if error is not None]
    if failed:  # at item i, process i % k stopped
        raise shares[min(failed) % k][1]
    return [shares[i % k][0][i // k] for i in range(len(items))]


def _twin_snapshot(store: TwinStore, t: float, channel: ChannelConfig,
                   lanes: LaneSpec) -> list[VehicleState]:
    return [VehicleState(id=vid, kind=store.meta[vid][0], s=x, y=y, v=v, a=0.0,
                         lane=lanes.lane_of(y), length=store.meta[vid][1], width=CAR_DIMS[1],
                         height=CAR_DIMS[2], v_desired=v)
            for vid, x, y, _, v in query_target(store, t, channel)]


def simulate_run(cfg: ScenarioConfig, channel: ChannelConfig | None,
                 model: MlpModel | None = None,
                 record_period: float = LOG_PERIOD) -> tuple[TrajectoryLog, TwinStore]:
    """Run one scenario: its log, recorded every record_period, and its twin store,
    where a model's predictions flow. With no channel nothing publishes, the
    model never runs and the store stays empty. The Scenario dies on return."""
    scn = build_scenario(cfg)
    store = TwinStore()
    n_steps = int(round(cfg.duration / cfg.dt_sim))
    record_stride = grid_stride(record_period, cfg.dt_sim)
    publish_stride = 0 if channel is None else grid_stride(channel.publish_period, cfg.dt_sim)
    infer_stride = grid_stride(INFER_PERIOD, cfg.dt_sim)
    guided = cfg.driver.policy == "guided"
    flagged: frozenset[int] = frozenset()
    shown = 0  # how many of the store's rounds flagged reflects

    for k in range(n_steps + 1):
        t = scn.t
        if k % record_stride == 0:
            scn.record()
        if publish_stride and k % publish_stride == 0:
            publish(store, scn.vehicles, t)
            if model is not None and k % infer_stride == 0:
                snapshot = _twin_snapshot(store, t, channel, cfg.lanes)  # in id order
                index = _lane_index(snapshot)
                cars = [subject for subject in snapshot if subject.kind == "car"]
                if cars:  # none while the latency hides every publish, or with no car
                    probs = infer(model, [features_from_states(index, car, cfg.lanes.lane_count)
                                          for car in cars])
                    publish_advisory(store, {car.id: p for car, p in zip(cars, probs)}, t)
            if guided:  # query_advisory's bound: its answer moves only when a round shows
                visible = _visible(store.issued, t, channel.latency)
                if visible != shown:
                    shown = visible
                    flagged = frozenset(vid for vid, p in query_advisory(store, t, channel).items()
                                        if p > cfg.driver.p_trigger)
        if k < n_steps:
            step(scn, flagged)
    return scn.build_log(record_period), store


def _frame_rows(log: TrajectoryLog, noise: DetectorNoiseModel) -> range:
    """The log row of each sensor frame, one every noise.frame_period."""
    return range(0, len(log.times), grid_stride(noise.frame_period, log.dt))


def _sensor_frame(truth: list[tuple[int, Box2D, float]], camera: Camera,
                  noise: DetectorNoiseModel, i: int, t: float) -> SensorFrame:
    """Frame i's depth raster and detections of its truth boxes, with frame i's noise."""
    intr = camera.intrinsics
    frame_noise = noise.for_frame(i)
    depth = render_depth_map(truth, intr, noise=frame_noise)
    dets = emulate_detections(truth, frame_noise, intr.width, intr.height)
    return SensorFrame(t=t, detections=dets, depth=depth, camera=camera)


def render_frames(log: TrajectoryLog, mount: CameraMount, noise: DetectorNoiseModel,
                  frames: Sequence[int]) -> list[SensorFrame]:
    """The given post-hoc sensor frames of a finished log, which has one every
    noise.frame_period; each holds its depth raster."""
    rows = _frame_rows(log, noise)
    rendered = []
    for i in frames:
        states = log.states_at(rows[i])
        ego = next(s for s in states if s.id == log.ego_id)
        others = [s for s in states if s.id != log.ego_id]
        camera = mount.camera_for(ego)
        rendered.append(_sensor_frame(render_truth_boxes(others, camera), camera, noise, i,
                                      float(log.times[rows[i]])))
    return rendered


def _sense_frame(log: TrajectoryLog, mount: CameraMount, noise: DetectorNoiseModel,
                 depth_dir: Path, i: int) -> tuple[float, list[Detection]]:
    (frame,) = render_frames(log, mount, noise, (i,))
    write_depth_map(frame.depth, depth_dir / f"frame_{i:05d}.dpt")
    return frame.t, frame.detections


def sense_log(log: TrajectoryLog, mount: CameraMount, noise: DetectorNoiseModel,
              depth_dir: Path) -> list[tuple[float, list[Detection]]]:
    """Render every frame of a finished log, writing frame i's depth raster to
    depth_dir/frame_<i>.dpt as soon as it is rendered; (t, detections) per frame.

    The frames fan out one by one, and each process holds one raster at a time.
    """
    return _fan_out(partial(_sense_frame, log, mount, noise, depth_dir),
                    range(len(_frame_rows(log, noise))))


def _samples(window: WindowParams, include_nonchangers: bool, cfg: ScenarioConfig):
    log, _ = simulate_run(cfg, None)
    samples = label_windows(log.plans, log, window)
    if include_nonchangers:
        samples.extend(nonchanger_negatives(log, log.plans, window))
    return samples


def build_dataset(cfg: ScenarioConfig, window: WindowParams, seeds,
                  include_nonchangers: bool = TrainConfig.include_nonchangers):
    """Labeled samples from fresh baseline runs over the given seeds.

    include_nonchangers augments the shifted-window negatives with samples
    from vehicles that never maneuver (queued or free-flowing traffic), so
    the classifier sees the full range of stay-put behavior.
    """
    runs = [replace(cfg, seed=int(seed)).with_policy("baseline") for seed in seeds]
    each = partial(_samples, window, include_nonchangers)
    return [sample for samples in _fan_out(each, runs) for sample in samples]


def _traced(channel: ChannelConfig, model: MlpModel, cfg: ScenarioConfig):
    """{car id: (round times, probabilities, probability >= DECISION_THRESHOLD)}
    off the run's advisory columns, and its maneuver plans."""
    log, store = simulate_run(cfg, channel, model=model)
    times, traces = np.array(store.issued), {}  # every car is advised each round
    for vid, col in store.advisories.items():
        probs = np.array(col)
        traces[vid] = times, probs, (probs >= DECISION_THRESHOLD).astype(int)
    return traces, log.plans


def prediction_runs(cfg: ScenarioConfig, model: MlpModel, seeds, channel: ChannelConfig):
    """Each seed's (traces, maneuver plans) from a baseline run with the model."""
    return _fan_out(partial(_traced, channel, model),
                    [replace(cfg, seed=seed).with_policy("baseline") for seed in seeds])


def ground_truth_bits(vehicle_id: int, times: np.ndarray, events: list[ManeuverPlan],
                      tau: float) -> np.ndarray:
    """Labels of the vehicle's trace times, consistent with the positive labeling window."""
    bits = np.zeros(len(times), dtype=int)
    for event in events:
        if event.vehicle_id != vehicle_id:
            continue
        lo, hi = event.t_end - tau, event.t_end
        bits |= ((times >= lo - 1e-9) & (times <= hi + 1e-9)).astype(int)
    return bits


def _leg(cfg: ScenarioConfig, channel: ChannelConfig, model: MlpModel, policy: str):
    """The policy's report; only the guided leg has a channel and runs the model."""
    guided = policy == "guided"
    log, _ = simulate_run(cfg.with_policy(policy), channel if guided else None,
                          model=model if guided else None)
    return safety_report(log, log.ego_id)


def closed_loop_pair(cfg: ScenarioConfig, model: MlpModel, seed: int,
                     channel: ChannelConfig) -> tuple[SafetyReport, SafetyReport]:
    """Guided and baseline reports for one seed on identical scenarios.

    Each run's log and store die with its report, before the next run in its
    process starts.
    """
    return tuple(_fan_out(partial(_leg, replace(cfg, seed=seed), channel, model),
                          ("guided", "baseline")))


@dataclass(frozen=True)
class FuseCorpusConfig(Checked):
    """Layout of the synthetic identification corpus.

    A configurable fraction of frames contains an overlapping same-lane
    pair in one of two arrangements: a nearer in-line car staggered to the
    opposite side of the lane from the cloud-tracked target, or a pair
    riding nearly abreast with a sub-lane lateral separation. The
    cloud-reported position carries seeded GNSS error, so the anchor point
    and D_g are consistently wrong together, as they would be live.
    """

    frames: int = field(default=500, metadata=rule(lambda x: 0 < x <= MAX_CORPUS_FRAMES))
    overlap_fraction: float = field(default=0.55, metadata=FRACTION)
    # of overlap frames; the rest are in-line
    abreast_fraction: float = field(default=0.9, metadata=FRACTION)
    gnss_sigma: tuple[float, float, float] = (0.4, 0.55, 0.45)
    target_range: tuple[float, float] = (14.0, 26.0)
    occluder_gap: tuple[float, float] = (4.5, 10.0)  # in-line: distance behind target
    stagger_range: tuple[float, float] = (0.25, 0.85)
    abreast_separation: tuple[float, float] = (0.75, 1.05)
    abreast_gap: tuple[float, float] = (1.0, 2.5)
    clutter_max: int = field(default=2, metadata=DRAW_BOUND)
    # IoU thresholds of the accuracy curves
    thresholds: tuple[float, ...] = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)

    def __post_init__(self):
        super().__post_init__()
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")
        if not any(abs(th - REPORT_IOU) < 1e-9 for th in self.thresholds):
            raise ValueError(f"thresholds must include the summary's {REPORT_IOU}")


def _corpus_vehicle(vid, s, y, v=17.0):
    length, width, height = CAR_DIMS
    return VehicleState(id=vid, kind="car", s=s, y=y, v=v, a=0.0, lane=1,
                        length=length, width=width, height=height, v_desired=v)


def _layout(corpus: FuseCorpusConfig, ego_y: float, rng: np.random.Generator) \
        -> list[VehicleState]:
    """One frame's vehicles, the target first."""
    lanes = LaneSpec()
    target_s = rng.uniform(*corpus.target_range)
    side = float(rng.choice((-1.0, 1.0)))
    if rng.random() < corpus.overlap_fraction:
        if rng.random() < corpus.abreast_fraction:
            target = _corpus_vehicle(1, s=target_s,
                                     y=ego_y + side * rng.uniform(*ABREAST_OFFSET))
            comp_y = target.y - side * rng.uniform(*corpus.abreast_separation)
            comp_s = target_s - rng.uniform(*corpus.abreast_gap)
            states = [target, _corpus_vehicle(2, s=comp_s, y=comp_y)]
        else:
            target = _corpus_vehicle(1, s=target_s,
                                     y=ego_y + side * rng.uniform(*corpus.stagger_range))
            occ_y = ego_y - side * rng.uniform(*corpus.stagger_range)
            occ_s = max(target_s - rng.uniform(*corpus.occluder_gap), 7.0)
            states = [target, _corpus_vehicle(2, s=occ_s, y=occ_y)]
    else:
        target = _corpus_vehicle(1, s=target_s,
                                 y=ego_y + side * rng.uniform(*corpus.stagger_range))
        states = [target]
    for c in range(int(rng.integers(0, corpus.clutter_max + 1))):
        lane = int(rng.choice((0, 2)))
        states.append(_corpus_vehicle(10 + c, s=rng.uniform(8.0, 45.0),
                                      y=lanes.center(lane) + rng.uniform(-0.5, 0.5)))
    return states


def _score_frame(corpus: FuseCorpusConfig, noise: DetectorNoiseModel, fusion: FusionParams,
                 seed: int, camera: Camera, ego_y: float, index: int):
    """None where the target does not show in frame index, else (whether the
    pair overlaps, the fused and the baseline row), each row (t, method, chosen
    source id or None, IoU against the target's box, candidate count). Every
    draw of the frame comes from a stream keyed by (seed, index)."""
    states = _layout(corpus, ego_y, seeding.rng_for(seed, seeding.CORPUS, index))
    truth = render_truth_boxes(states, camera)
    boxes = {vid: box for vid, box, _ in truth}
    if 1 not in boxes:
        return None
    frame = _sensor_frame(truth, camera, noise, index, float(index))

    gnss_rng = seeding.rng_for(seed, seeding.GNSS, index)
    err = gnss_rng.normal(0.0, 1.0, 3) * np.asarray(corpus.gnss_sigma)
    target = states[0]
    reported = WorldPoint(target.s + err[0], target.y + err[1], 0.5 * CAR_DIMS[2] + err[2])
    d_g = gnss_distance(camera.position, reported)

    frame_params = replace(fusion, seed=seeding.derived_seed(seed, seeding.SAMPLER, index))
    scored = []
    for method in ("fused", "baseline"):
        res = identify(frame, reported, d_g, frame_params, method=method)
        chosen = res.chosen
        scored.append((frame.t, method, None if chosen is None else chosen.source_id,
                       0.0 if chosen is None else float(iou(chosen.box, boxes[1])),
                       res.candidate_count))
    return 2 in boxes and iou(boxes[1], boxes[2]) > 0.0, scored


def build_fuse_corpus(corpus: FuseCorpusConfig, mount: CameraMount,
                      noise: DetectorNoiseModel, fusion: FusionParams,
                      seed: int) -> tuple[list[tuple], int, int]:
    """Score fused and baseline identification on synthetic corner cases:
    the rows of every frame that shows the target, the count of those frames
    and the count of them whose target overlaps a second car.

    The frames fan out one by one; frame i's layout, GNSS error, detector
    noise and depth samples are its own draws, whatever the frame count.
    """
    ego_y = LaneSpec().center(1)
    # the ego, and so the camera, sits at the same pose in every frame
    camera = mount.camera_for(_corpus_vehicle(-1, s=-mount.mount_forward, y=ego_y))
    shown = [row for row in _fan_out(partial(_score_frame, corpus, noise, fusion, seed,
                                             camera, ego_y), range(corpus.frames))
             if row is not None]
    return ([row for _, scored in shown for row in scored], len(shown),
            sum(overlaps for overlaps, _ in shown))
