"""Deterministic multi-lane highway micro-simulation.

The scenario reproduces an accident scene: two stopped trucks block the two
rightmost lanes, neighbor cars approach them, and a subset of neighbors
("potential changers") moves one lane left when close to the blockage. The
ego vehicle starts rearmost in the leftmost lane and is driven by one of two
reactive policies:

  guided    decelerates gently as soon as a neighbor ahead carries a high
            delivered lane-change probability, and acknowledges an alerted
            cut-in immediately;
  baseline  ignores neighbors until one's center enters the ego lane, then
            reacts after a fixed delay with a hard deceleration.

One per-lane order by s (``_lane_index``) answers every neighbour query:
``step``'s leaders and followers, the ego policy's reads ahead of the ego,
and the lane-change features, which index the states they are given. Ties
go to the first vehicle in the order the index was built from. A scenario
keeps one order from tick to tick. A tick first gives the ego its policy and
each active changer the least IDM acceleration over the lanes it spans, read
off the unmoved order; then one walk per lane, in ascending s, moves every
vehicle, each other neighbor first running the one IDM body, ``_idm``, on
the next vehicle in its lane at a larger s. The order stays in place while
no vehicle changes lane and each lane stays strictly ascending in s, else
``step`` rebuilds it. Integration is forward Euler at ``dt_sim``; the logged
acceleration is the realized (v_next - v) / dt so logs stay kinematically
consistent even when speeds clamp at zero. ``step`` records nothing: the
runner calls ``Scenario.record`` at the ticks it reads, into typed columns,
8 B per value, which ``Scenario.build_log`` copies into NumPy once.
"""
from __future__ import annotations

import csv
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from operator import attrgetter

import numpy as np

from . import seeding
from .params import FRACTION, NEGATIVE, NONNEGATIVE, POSITIVE, RUN_SEED, Checked, rule

CAR_DIMS = (4.5, 1.8, 1.5)
TRUCK_DIMS = (10.0, 2.5, 3.5)
LOG_PERIOD = 0.1  # seconds; exported logs, datasets and safety metrics use this grid
MAX_TICKS = 10**7  # the most dt_sim ticks a run may take: 27.8 h at 10 ms


class InfeasiblePlacement(Exception):
    """Vehicles could not be placed without overlap."""


@dataclass(frozen=True)
class LaneSpec(Checked):
    # the highest lane index is logged as int64
    lane_count: int = field(default=3, metadata=rule(lambda x: 2 <= x <= 2**63))
    lane_width: float = field(default=3.5, metadata=POSITIVE)
    road_length: float = field(default=300.0, metadata=POSITIVE)

    def center(self, lane: int) -> float:
        return (lane + 0.5) * self.lane_width

    def lane_of(self, y: float) -> int:
        return min(max(int(y // self.lane_width), 0), self.lane_count - 1)


@dataclass
class VehicleState:
    id: int
    kind: str  # "car" | "truck" | "ego"
    s: float
    y: float
    v: float
    a: float
    lane: int
    length: float
    width: float
    height: float
    v_desired: float


@dataclass(frozen=True)
class ManeuverPlan:
    vehicle_id: int
    t_start: float
    t_end: float
    from_lane: int
    to_lane: int


@dataclass(frozen=True)
class IdmParams(Checked):
    time_headway: float = field(default=1.2, metadata=POSITIVE)
    a_max: float = field(default=2.0, metadata=POSITIVE)
    comfort_decel: float = field(default=2.5, metadata=POSITIVE)
    a_min: float = field(default=-8.0, metadata=NEGATIVE)
    jam_gap: float = field(default=2.0, metadata=POSITIVE)
    delta: float = field(default=4.0, metadata=POSITIVE)

    @cached_property
    def _idm_terms(self) -> tuple[float, float, float, float, float, float]:
        """The constants as _idm reads them, its sqrt term computed once per params.

        Cached in the instance's ``__dict__``, which a frozen dataclass still
        allows, so a tick reads it without hashing the params.
        """
        return (self.a_max, self.delta, self.a_min, self.jam_gap, self.time_headway,
                2.0 * math.sqrt(self.a_max * self.comfort_decel))


@dataclass(frozen=True)
class DriverParams(Checked):
    policy: str = field(default="baseline",
                        metadata=rule(lambda x: x in ("guided", "baseline")))
    p_trigger: float = field(default=0.5, metadata=FRACTION)
    react_range: float = field(default=60.0, metadata=POSITIVE)
    guided_decel: float = field(default=-2.0, metadata=NEGATIVE)
    # keep this much closing speed over a flagged threat
    guided_margin: float = field(default=1.5, metadata=NONNEGATIVE)
    # never ease more than this below the desired speed
    caution_drop: float = field(default=5.0, metadata=NONNEGATIVE)
    # time headway kept behind a leader that was flagged
    aware_headway: float = field(default=1.8, metadata=POSITIVE)
    # an expected merge closer than this stays an emergency ...
    aware_gap_min: float = field(default=5.0, metadata=NONNEGATIVE)
    # ... as does one with less projected time to contact
    aware_ttc_min: float = field(default=3.5, metadata=NONNEGATIVE)
    late_decel: float = field(default=-6.0, metadata=NEGATIVE)
    reaction_time: float = field(default=0.75, metadata=NONNEGATIVE)
    # surprised braking sheds this much extra speed
    startle_overshoot: float = field(default=3.0, metadata=NONNEGATIVE)


@dataclass(frozen=True)
class ScenarioConfig(Checked):
    seed: int = field(default=0, metadata=RUN_SEED)
    dt_sim: float = field(default=0.01, metadata=POSITIVE)
    duration: float = field(default=30.0, metadata=NONNEGATIVE)
    lanes: LaneSpec = field(default_factory=LaneSpec)
    neighbor_count: int = field(default=6, metadata=NONNEGATIVE)
    potential_changer_count: int = field(default=3, metadata=NONNEGATIVE)
    ego_v0: float = field(default=19.0, metadata=NONNEGATIVE)
    neighbor_v0: float = field(default=17.0, metadata=NONNEGATIVE)
    accident_s: float = field(default=260.0, metadata=POSITIVE)
    spawn_min_s: float = field(default=20.0, metadata=NONNEGATIVE)
    spawn_max_s: float = field(default=80.0, metadata=POSITIVE)
    lane_change_duration: float = field(default=4.0, metadata=POSITIVE)
    trigger_distance: float = field(default=80.0, metadata=POSITIVE)
    min_lead_gap: float = field(default=15.0, metadata=NONNEGATIVE)
    min_lag_gap: float = field(default=10.0, metadata=NONNEGATIVE)
    min_spawn_gap: float = field(default=10.0, metadata=NONNEGATIVE)
    idm: IdmParams = field(default_factory=IdmParams)
    driver: DriverParams = field(default_factory=DriverParams)

    def __post_init__(self):
        super().__post_init__()
        if self.potential_changer_count > self.neighbor_count:
            raise ValueError("potential_changer_count exceeds neighbor_count")
        if self.spawn_max_s <= self.spawn_min_s:
            raise ValueError("spawn_max_s must exceed spawn_min_s")
        ticks = self.duration / self.dt_sim  # inf when a subnormal dt_sim overflows it
        if ticks == math.inf or round(ticks) > MAX_TICKS:
            raise ValueError(f"duration: duration / dt_sim is {ticks:.3g} ticks, above "
                             f"the {MAX_TICKS} a run may take")
        # every trigger time t is below duration, so t + lane_change_duration > t
        if self.lane_change_duration < math.ulp(self.duration):
            raise ValueError(f"lane_change_duration: below {math.ulp(self.duration):.3g} s, "
                             "a maneuver would end at the tick it starts")
        per_lane = self.lane_capacity  # the changers share one lane, the rest any right lane
        if self.potential_changer_count > per_lane:
            raise ValueError(f"potential_changer_count: the changer lane holds at most "
                             f"{per_lane} cars")
        room = per_lane * (self.lanes.lane_count - 1)
        if self.neighbor_count > room:
            raise ValueError(f"neighbor_count: the right lanes hold at most {room} cars")
        need = max(self.accident_s + 0.5 * TRUCK_DIMS[0], self.spawn_max_s + 0.5 * CAR_DIMS[0])
        if need > self.lanes.road_length:
            raise ValueError(f"road_length must be at least {need} to hold the blockage "
                             "and every spawn")

    @property
    def lane_capacity(self) -> int:
        """Cars one lane holds min_spawn_gap apart, bumper to bumper, in the spawn range."""
        return math.floor((self.spawn_max_s - self.spawn_min_s)
                          / (self.min_spawn_gap + CAR_DIMS[0])) + 1

    def with_policy(self, policy: str) -> "ScenarioConfig":
        return replace(self, driver=replace(self.driver, policy=policy))


@dataclass
class EgoMemory:
    """Per-run driver bookkeeping for the ego policies."""

    encroach_t: dict[int, float] = field(default_factory=dict)
    alerted: set[int] = field(default_factory=set)
    startled: set[int] = field(default_factory=set)
    calmed: set[int] = field(default_factory=set)
    caution_v: float | None = None  # latched ease target while alerts persist
    decel_onset: float | None = None


def _idm(follower: VehicleState, leader: VehicleState | None, terms) -> float:
    """Intelligent-Driver-Model acceleration, clamped to [a_min, a_max], from
    ``IdmParams._idm_terms``; each max/min is a comparison that keeps its first-wins rule."""
    a_max, delta, a_min, jam_gap, time_headway, sqrt_term = terms
    v, vd = follower.v, follower.v_desired
    vd = 0.1 if 0.1 > vd else vd
    try:  # speeds are never negative, so an overflowing term is one the clamp cuts to a_min
        acc = a_max * (1.0 - (v / vd) ** delta)
        if leader is not None:
            gap = leader.s - follower.s - 0.5 * (leader.length + follower.length)
            if gap <= 0.1:
                return a_min
            dv = v - leader.v
            brake = v * time_headway + v * dv / sqrt_term
            s_star = jam_gap + (brake if brake > 0.0 else 0.0)
            acc -= a_max * (s_star / gap) ** 2
    except OverflowError:
        return a_min
    acc = a_min if a_min > acc else acc
    return a_max if a_max < acc else acc


def lateral_profile(q: float) -> float:
    """Smooth monotone 0..1 blend with zero slope at both ends, for q in [0, 1]."""
    return q - math.sin(2.0 * math.pi * q) / (2.0 * math.pi)


def _lane_index(vehicles) -> dict[int, tuple[list[float], list[VehicleState]]]:
    """Each lane's (positions, vehicles) by ascending s; ties keep roster order."""
    by_lane: dict[int, list[VehicleState]] = {}
    for veh in vehicles:
        members = by_lane.get(veh.lane)
        if members is None:
            by_lane[veh.lane] = members = []
        members.append(veh)
    index = {}
    for lane, members in by_lane.items():
        members.sort(key=attrgetter("s"))
        index[lane] = ([v.s for v in members], members)
    return index


def _leader(index, me: VehicleState, lane: int) -> VehicleState | None:
    """Nearest vehicle strictly ahead of me in lane; the first in roster order on a tie."""
    keys, members = index.get(lane, ((), ()))
    i = bisect_right(keys, me.s)
    return members[i] if i < len(members) else None


def _follower(index, me: VehicleState, lane: int) -> VehicleState | None:
    """Nearest other vehicle at or behind me in lane; the first in roster order on a tie."""
    keys, members = index.get(lane, ((), ()))
    i = bisect_right(keys, me.s)
    while i:
        j = bisect_left(keys, keys[i - 1], 0, i)
        for other in members[j:i]:
            if other.id != me.id:
                return other
        i = j
    return None


def _bumper_gap(rear: VehicleState, front: VehicleState) -> float:
    return front.s - rear.s - 0.5 * (front.length + rear.length)


@lru_cache(maxsize=8)
def _aware_idm(idm: IdmParams, aware_headway: float) -> IdmParams:
    """idm with its time headway raised to aware_headway, built once per pair."""
    return replace(idm, time_headway=max(idm.time_headway, aware_headway))


def _ahead(index, me: VehicleState, lane: int) -> list[VehicleState]:
    """Vehicles strictly ahead of me in lane, nearest first, ties in index order."""
    keys, members = index.get(lane, ((), ()))
    return members[bisect_right(keys, me.s):]


def ego_policy(ego: VehicleState, index,
               guidance: dict[int, float] | None, params: DriverParams,
               idm: IdmParams, memory: EgoMemory, t: float) -> float:
    """Acceleration command for the ego under the selected policy, read from index."""
    guidance = guidance or {}
    guided = params.policy == "guided"

    if guided:
        for vid, prob in guidance.items():
            if prob > params.p_trigger:
                memory.alerted.add(vid)

    ahead = _ahead(index, ego, ego.lane)
    for other in ahead:
        memory.encroach_t.setdefault(other.id, t)

    def acknowledged(veh: VehicleState) -> bool:
        entered = memory.encroach_t.get(veh.id)
        if entered is None:
            return False
        if guided and veh.id in memory.alerted:
            return True
        return t >= entered + params.reaction_time

    leader = next((v for v in ahead if acknowledged(v)), None)
    follow_idm = idm
    if guided and leader is not None and leader.id in memory.alerted:
        # an advised driver hangs farther back behind the merged vehicle
        follow_idm = _aware_idm(idm, params.aware_headway)
    acc = _idm(ego, leader, follow_idm._idm_terms)

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
        for lane in (ego.lane - 1, ego.lane + 1):
            for other in _ahead(index, ego, lane):
                if other.s - ego.s > params.react_range:
                    break
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


class Scenario:
    """Mutable simulation state; advance with step(), record(), then build_log().

    The runner decides when to record(): it appends every vehicle's s, y, v,
    a and lane to typed columns (``array("d")`` and ``array("q")``, 8 B each).

    Only ``step`` moves a live scenario's vehicles, so the lane order it
    keeps in ``_index`` after a tick still holds at the start of the next.
    A caller may place vehicles (set s, v or lane) before the first step,
    which builds the order from the roster as it finds it.
    """

    def __init__(self, cfg: ScenarioConfig, vehicles: list[VehicleState],
                 ego_id: int, changer_ids: set[int]):
        self.cfg = cfg
        self.lanes = cfg.lanes
        self.vehicles = vehicles
        self.ego_id = ego_id
        self.changer_ids = set(changer_ids)
        # in id order, the order their plans are appended in
        self.pending_changers = sorted((v for v in vehicles if v.id in self.changer_ids),
                                       key=lambda v: v.id)
        self.active_maneuvers: dict[int, ManeuverPlan] = {}
        self.plans: list[ManeuverPlan] = []
        self.memory = EgoMemory()
        self.collisions: list[tuple[float, int, int]] = []
        self.step_count = 0
        self._by_id = {v.id: v for v in vehicles}
        self._index = None  # the lane order of the vehicles as they stand; see step
        self._times: list[float] = []
        self._rows: dict[int, tuple[array, ...]] = {  # s, y, v, a, lane
            v.id: (array("d"), array("d"), array("d"), array("d"), array("q"))
            for v in vehicles}

    @property
    def t(self) -> float:
        return self.step_count * self.cfg.dt_sim

    @property
    def ego(self) -> VehicleState:
        return self._by_id[self.ego_id]

    def vehicle(self, vid: int) -> VehicleState:
        return self._by_id[vid]

    def record(self):
        self._times.append(self.t)
        for v, (s, y, vel, a, lane) in zip(self.vehicles, self._rows.values()):
            s.append(v.s)
            y.append(v.y)
            vel.append(v.v)
            a.append(v.a)
            lane.append(v.lane)

    def build_log(self, dt: float) -> "TrajectoryLog":
        """The recorded ticks as a log whose grid period is dt, the recording period."""
        meta = {v.id: (v.kind, v.length, v.width, v.height) for v in self.vehicles}
        data = {vid: tuple(np.array(col) for col in cols)  # a copy: a view blocks appends
                for vid, cols in self._rows.items()}
        return TrajectoryLog(
            times=np.asarray(self._times),
            dt=dt,
            meta=meta,
            data=data,
            plans=list(self.plans),
            ego_id=self.ego_id,
            collisions=list(self.collisions),
            lanes=self.lanes,
        )


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    """Place trucks, neighbors, and the ego; same seed gives identical layout."""
    rng = seeding.rng_for(cfg.seed, seeding.SCENARIO)
    lanes = cfg.lanes
    vehicles: list[VehicleState] = []

    ego = VehicleState(id=0, kind="ego", s=0.0, y=lanes.center(lanes.lane_count - 1),
                       v=cfg.ego_v0, a=0.0, lane=lanes.lane_count - 1,
                       length=CAR_DIMS[0], width=CAR_DIMS[1], height=CAR_DIMS[2],
                       v_desired=cfg.ego_v0)
    vehicles.append(ego)

    changer_lane = lanes.lane_count - 2
    pitch = cfg.min_spawn_gap + CAR_DIMS[0]  # the least distance between two cars' s
    placed: dict[int, list[float]] = {}

    def fits(lane: int, s: float) -> bool:
        return all(abs(s - other) >= pitch for other in placed.setdefault(lane, []))

    def pack() -> list[tuple[int, float]]:  # for when uniform draws miss, near capacity
        # a lane's k cars take k sorted uniforms over the range less (k - 1)
        # pitches, the i-th moved i pitches up, and their ids shuffled
        placed.clear()
        members: dict[int, list[int]] = {}
        for i in range(cfg.neighbor_count):
            lane = changer_lane if i < cfg.potential_changer_count else None
            while lane is None or len(members.get(lane, ())) >= cfg.lane_capacity:
                lane = int(rng.integers(0, lanes.lane_count - 1))
            members.setdefault(lane, []).append(i)
        spots = [None] * cfg.neighbor_count
        for lane, ids in members.items():
            room = max(cfg.spawn_max_s - cfg.spawn_min_s - (len(ids) - 1) * pitch, 0.0)
            offsets = np.sort(rng.uniform(0.0, room, size=len(ids)))
            for k, (i, u) in enumerate(zip(rng.permutation(ids), offsets)):
                s = cfg.spawn_min_s + float(u) + k * pitch
                while not fits(lane, s):  # k pitches can fall an ulp short
                    if s == math.inf:
                        raise InfeasiblePlacement(f"seed {cfg.seed}: no spot for vehicle {i + 1}")
                    s = math.nextafter(s, math.inf)
                placed[lane].append(s)
                spots[i] = lane, s
        return spots

    spots = []
    for i in range(cfg.neighbor_count):
        for _ in range(1000):  # a non-changer redraws its right lane per attempt
            lane = (changer_lane if i < cfg.potential_changer_count
                    else int(rng.integers(0, lanes.lane_count - 1)))
            s = rng.uniform(cfg.spawn_min_s, cfg.spawn_max_s)
            if fits(lane, s):
                placed[lane].append(s)
                spots.append((lane, s))
                break
        else:
            spots = pack()
            break
    for i, (lane, s) in enumerate(spots):
        vehicles.append(VehicleState(id=i + 1, kind="car", s=s, y=lanes.center(lane),
                                     v=cfg.neighbor_v0, a=0.0, lane=lane,
                                     length=CAR_DIMS[0], width=CAR_DIMS[1],
                                     height=CAR_DIMS[2], v_desired=cfg.neighbor_v0))

    for j, lane in enumerate((0, 1)):
        vehicles.append(VehicleState(
            id=cfg.neighbor_count + 1 + j, kind="truck", s=cfg.accident_s,
            y=lanes.center(lane), v=0.0, a=0.0, lane=lane,
            length=TRUCK_DIMS[0], width=TRUCK_DIMS[1], height=TRUCK_DIMS[2],
            v_desired=0.0))

    return Scenario(cfg, vehicles, ego_id=0,
                    changer_ids=set(range(1, cfg.potential_changer_count + 1)))


def _gap_acceptable(scn: Scenario, index, veh: VehicleState, to_lane: int) -> bool:
    cfg = scn.cfg
    lead = _leader(index, veh, to_lane)
    if lead is not None and _bumper_gap(veh, lead) <= cfg.min_lead_gap:
        return False
    lag = _follower(index, veh, to_lane)
    if lag is not None and _bumper_gap(lag, veh) <= cfg.min_lag_gap:
        return False
    return True


def _maybe_trigger_changes(scn: Scenario, index):
    cfg = scn.cfg
    done = []  # triggered, or in the last lane with no lane to change to
    for veh in scn.pending_changers:
        if veh.lane >= scn.lanes.lane_count - 1:
            done.append(veh)
        elif (cfg.accident_s - veh.s <= cfg.trigger_distance
              and _gap_acceptable(scn, index, veh, veh.lane + 1)):
            plan = ManeuverPlan(veh.id, scn.t, scn.t + cfg.lane_change_duration,
                                veh.lane, veh.lane + 1)
            scn.plans.append(plan)
            scn.active_maneuvers[veh.id] = plan
            done.append(veh)
    if done:
        scn.pending_changers = [v for v in scn.pending_changers if v not in done]


def step(scn: Scenario, guidance: dict[int, float] | None = None):
    """Advance every vehicle by one dt_sim tick, in the order the module describes.

    The walk writes each new s into the kept order's keys, and ``_collide``
    tells whether that order still holds.
    """
    cfg = scn.cfg
    dt = cfg.dt_sim
    index = scn._index
    if index is None:
        index = _lane_index(scn.vehicles)

    _maybe_trigger_changes(scn, index)

    terms = cfg.idm._idm_terms
    maneuvers = scn.active_maneuvers
    cross: dict[int, float] = {}  # the accelerations of vehicles that read other lanes
    for vid, plan in maneuvers.items():
        veh = scn.vehicle(vid)
        cross[vid] = min(_idm(veh, _leader(index, veh, lane), terms)
                         for lane in sorted({veh.lane, plan.from_lane, plan.to_lane}))
    cross[scn.ego_id] = ego_policy(scn.ego, index, guidance, cfg.driver, cfg.idm,
                                   scn.memory, scn.t)
    for keys, members in index.values():
        last = len(members) - 1
        for j, veh in enumerate(members):
            if veh.id in cross:
                a = cross[veh.id]
            elif veh.kind == "truck":
                a = 0.0
            elif j == last:
                a = _idm(veh, None, terms)
            else:
                i = j + 1
                if keys[i] == keys[j]:  # a tie: the leader is past every equal s
                    i = bisect_right(keys, keys[j], i)
                a = _idm(veh, members[i] if i <= last else None, terms)
            v = veh.v
            new_v = v + a * dt
            new_v = new_v if new_v > 0.0 else 0.0  # as max(0.0, new_v): -0.0 gives 0.0
            keys[j] = veh.s = veh.s + v * dt  # the walk reads no key behind it
            veh.a = (new_v - v) / dt
            veh.v = new_v

    scn.step_count += 1
    t_new = scn.t

    regroup = False
    for vid, plan in list(maneuvers.items()):
        veh = scn.vehicle(vid)
        lane = veh.lane
        q = (t_new - plan.t_start) / (plan.t_end - plan.t_start)
        q = 1.0 if 1.0 < q else q
        origin = scn.lanes.center(plan.from_lane)
        target = scn.lanes.center(plan.to_lane)
        veh.y = origin + (target - origin) * lateral_profile(q)
        veh.lane = scn.lanes.lane_of(veh.y)
        if t_new >= plan.t_end:
            veh.y = target
            veh.lane = plan.to_lane
            del maneuvers[vid]
        regroup = regroup or veh.lane != lane

    if regroup or not _collide(index, t_new, scn.collisions, strict=True):
        index = _lane_index(scn.vehicles)
        _collide(index, t_new, scn.collisions, strict=False)
    scn._index = index


def _collide(index, t: float, collisions: list, strict: bool) -> bool:
    """Append each pair of lane neighbours in index that overlap at t. If strict,
    append none and return False once a lane is not strictly ascending in s,
    where a fresh index may differ: it gives ties (0.0 ties -0.0) to roster order."""
    count = len(collisions)
    for _, members in index.values():
        for first, second in zip(members, members[1:]):
            ds = second.s - first.s
            if strict and not ds > 0.0:
                del collisions[count:]
                return False
            if ds - 0.5 * (second.length + first.length) < 0.0:
                collisions.append((t, first.id, second.id))
    return True


@dataclass
class TrajectoryLog:
    """Time-indexed kinematic states for a constant vehicle roster."""

    times: np.ndarray
    dt: float
    meta: dict[int, tuple[str, float, float, float]]  # kind, length, width, height
    data: dict[int, tuple[np.ndarray, ...]]  # s, y, v, a, lane per vehicle
    plans: list[ManeuverPlan]
    ego_id: int
    collisions: list[tuple[float, int, int]]
    lanes: LaneSpec

    @property
    def vehicle_ids(self) -> list[int]:
        return sorted(self.data)

    def kind_of(self, vid: int) -> str:
        return self.meta[vid][0]

    def length_of(self, vid: int) -> float:
        return self.meta[vid][1]

    def column(self, vid: int, name: str) -> np.ndarray:
        idx = {"s": 0, "y": 1, "v": 2, "a": 3, "lane": 4}[name]
        return self.data[vid][idx]

    def state_at(self, vid: int, i: int) -> VehicleState:
        kind, length, width, height = self.meta[vid]
        s, y, v, a, lane = (self.data[vid][k][i] for k in range(5))
        return VehicleState(id=vid, kind=kind, s=float(s), y=float(y), v=float(v),
                            a=float(a), lane=int(lane), length=length, width=width,
                            height=height, v_desired=float(v))

    def states_at(self, i: int) -> list[VehicleState]:
        return [self.state_at(vid, i) for vid in self.vehicle_ids]


def grid_stride(period: float, dt: float) -> int:
    """Steps of dt per period; ValueError unless period is a whole multiple of dt."""
    stride = int(round(period / dt))
    if stride < 1 or abs(stride * dt - period) > 1e-9:
        raise ValueError(f"period {period} must be a multiple of dt {dt}")
    return stride


def extract_lane_changes(log: TrajectoryLog) -> list[ManeuverPlan]:
    """Recover maneuvers from lateral motion in a log.

    A lane-index transition marks the crossing; the end point is the first
    sample after it that is both near the new lane center (within 0.3 m)
    and laterally settled (per-sample motion below 1e-6 m). The start point
    mirrors this backwards.
    """
    events: list[ManeuverPlan] = []
    for vid in log.vehicle_ids:
        y = log.column(vid, "y")
        lane = log.column(vid, "lane").astype(int)
        n = len(y)
        k = 1
        while k < n:
            if lane[k] == lane[k - 1]:
                k += 1
                continue
            from_lane, to_lane = int(lane[k - 1]), int(lane[k])
            if abs(to_lane - from_lane) != 1:  # should not happen on sim logs
                k += 1
                continue
            j = k
            while j > 0 and abs(y[j] - y[j - 1]) > 1e-6:
                j -= 1
            t_start = float(log.times[j])
            j = k
            target = log.lanes.center(to_lane)
            while j < n - 1 and (abs(y[j] - y[j - 1]) > 1e-6
                                 or abs(y[j] - target) >= 0.3):
                j += 1
            t_end = float(log.times[j])
            if t_end > t_start:
                events.append(ManeuverPlan(vid, t_start, t_end, from_lane, to_lane))
            k = j + 1
    events.sort(key=lambda e: (e.t_start, e.vehicle_id))
    return events


def write_trajectory_csv(log: TrajectoryLog, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "id", "kind", "s", "y", "v", "a", "lane"])
        for i in range(0, len(log.times), grid_stride(LOG_PERIOD, log.dt)):
            for vid in log.vehicle_ids:
                s, y, v, a, lane = (log.data[vid][k][i] for k in range(5))
                w.writerow([f"{log.times[i]:.2f}", vid, log.kind_of(vid), f"{s:.6f}",
                            f"{y:.6f}", f"{v:.6f}", f"{a:.6f}", int(lane)])


def write_maneuvers_csv(plans: list[ManeuverPlan], path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "t_start", "t_end", "from_lane", "to_lane"])
        for p in plans:
            w.writerow([p.vehicle_id, f"{p.t_start:.3f}", f"{p.t_end:.3f}",
                        p.from_lane, p.to_lane])
