import copy
import hashlib
import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from lanesight.scene import (
    CAR_DIMS,
    TRUCK_DIMS,
    DriverParams,
    EgoMemory,
    IdmParams,
    LaneSpec,
    Scenario,
    ScenarioConfig,
    VehicleState,
    _follower,
    _idm,
    _lane_index,
    _leader,
    build_scenario,
    ego_policy,
    lateral_profile,
    step,
)

IDM = IdmParams()


def run_steps(scn: Scenario, n_steps: int, flagged_fn=None):
    """Advance n_steps ticks, recording every tick from the initial one.

    flagged_fn(t) supplies the per-tick flagged set.
    """
    scn.record()
    for _ in range(n_steps):
        step(scn, flagged_fn(scn.t) if flagged_fn is not None else frozenset())
        scn.record()


def make_car(vid=1, s=0.0, v=17.0, lane=0, v_desired=17.0, lanes=LaneSpec()):
    return VehicleState(id=vid, kind="car", s=s, y=lanes.center(lane), v=v, a=0.0,
                        lane=lane, length=4.5, width=1.8, height=1.5,
                        v_desired=v_desired)


class TestCarFollowing:
    def test_equilibrium_at_desired_speed(self):
        car = make_car(v=17.0, v_desired=17.0)
        assert _idm(car, None, IDM._idm_terms) == pytest.approx(0.0, abs=1e-9)

    def test_full_braking_on_stopped_leader(self):
        follower = make_car(vid=1, s=0.0, v=17.0)
        leader = make_car(vid=2, s=5.0 + 4.5, v=0.0)  # 5 m bumper gap
        assert _idm(follower, leader, IDM._idm_terms) == IDM.a_min

    def test_free_road_converges_to_desired_speed(self):
        # Integrate the model forward and check convergence (within 2% at 60 s).
        car = make_car(v=5.0, v_desired=17.0)
        dt = 0.01
        for _ in range(int(60 / dt)):
            a = _idm(car, None, IDM._idm_terms)
            assert a >= 0.0 or car.v > car.v_desired
            car.v = max(0.0, car.v + a * dt)
        assert abs(car.v - 17.0) / 17.0 < 0.02

    def test_accel_always_clamped(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            follower = make_car(vid=1, s=0.0, v=rng.uniform(0, 40))
            leader = make_car(vid=2, s=rng.uniform(1, 80), v=rng.uniform(0, 30))
            a = _idm(follower, leader, IDM._idm_terms)
            assert IDM.a_min <= a <= IDM.a_max


# Every constant differs from the defaults: delta 3.0 lets a negative speed push
# the free-road term above a_max, and a jam gap of 0.01 m keeps a stopped car
# at a 0.1 m gap off the a_min clamp. The aware-headway params are the ego's.
IDM_VARIANTS = (IDM, replace(IDM, a_max=1.5, comfort_decel=1.0, a_min=-4.0, jam_gap=0.01,
                             time_headway=0.6, delta=3.0), replace(IDM, time_headway=1.8))
idm_speeds = st.sampled_from([0.0, -0.0]) | st.floats(0.0, 40.0)


def idm_car(s=0.0, v=17.0, v_desired=17.0, length=4.5):
    return VehicleState(id=1, kind="car", s=s, y=0.0, v=v, a=0.0, lane=0,
                        length=length, width=1.8, height=1.5, v_desired=v_desired)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestIdmBodyMatchesOracle:
    @settings(max_examples=600, deadline=None)
    @given(follower=st.builds(idm_car, s=st.sampled_from([0.0, -0.0]) | st.floats(-50.0, 50.0),
                              v=idm_speeds | st.floats(-5.0, 0.0),
                              v_desired=st.sampled_from([0.0, -0.0, 0.05, 0.1])
                              | st.floats(-1.0, 40.0),
                              length=st.sampled_from([0.0, 4.5, 10.0])),
           leader=st.none() | st.builds(idm_car, s=st.sampled_from([0.0, 0.1, 0.05, -0.0])
                                        | st.floats(-60.0, 120.0),
                                        v=idm_speeds,
                                        length=st.sampled_from([0.0, 4.5, 10.0])))
    @example(follower=idm_car(v_desired=0.05), leader=None)  # v_desired below 0.1
    @example(follower=idm_car(v_desired=0.1), leader=None)  # ... and at it
    @example(follower=idm_car(v=0.0, length=0.0),
             leader=idm_car(s=0.1, v=0.0, length=0.0))  # gap at 0.1
    @example(follower=idm_car(v=0.0, length=0.0),
             leader=idm_car(s=0.05, v=0.0, length=0.0))  # ... and below it
    @example(follower=idm_car(v=5.0), leader=idm_car(s=30.0, v=30.0))  # negative s* term
    @example(follower=idm_car(v=-0.0), leader=idm_car(s=20.0, v=-0.0))  # -0.0 speeds
    @example(follower=idm_car(v=30.0), leader=idm_car(s=6.0, v=0.0))  # clamped at a_min
    @example(follower=idm_car(v=-4.0), leader=None)  # over a_max at delta 3.0
    def test_bit_equal_to_the_max_min_copy(self, follower, leader):
        # each call walks every params set, so a cache entry read for the
        # wrong params would show up as a mismatch
        for p in IDM_VARIANTS:
            want = bits(oracles.car_following_accel(follower, leader, p))
            assert bits(_idm(follower, leader, p._idm_terms)) == want

    @pytest.mark.parametrize("delta, follower, leader", [
        (300.0, idm_car(v=1e200, v_desired=1.0), None),  # the free-road term
        (4.0, idm_car(v=1e160, v_desired=1e160), idm_car(s=10.0, v=1e160)),  # the gap term
    ])
    def test_an_overflowing_term_gives_a_min(self, delta, follower, leader):
        # the max/min copy raises, where the clamp would have given a_min
        p = replace(IDM, delta=delta)
        with pytest.raises(OverflowError):
            oracles.car_following_accel(follower, leader, p)
        assert _idm(follower, leader, p._idm_terms) == p.a_min

    def test_terms_are_cached_per_params(self):
        terms = [p._idm_terms for p in IDM_VARIANTS]
        assert [p._idm_terms for p in IDM_VARIANTS] == terms
        assert all(p._idm_terms is t for p, t in zip(IDM_VARIANTS, terms))
        assert len(set(terms)) == len(terms)
        assert terms[1][5] == 2.0 * math.sqrt(1.5 * 1.0)


class TestLateralProfile:
    def test_endpoints(self):
        assert lateral_profile(0.0) == 0.0
        assert lateral_profile(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_midpoint(self):
        assert lateral_profile(0.5) == pytest.approx(0.5, abs=1e-12)

    def test_zero_slope_at_ends_by_finite_differences(self):
        h = 1e-6
        d0 = (lateral_profile(h) - lateral_profile(0.0)) / h
        d1 = (lateral_profile(1.0) - lateral_profile(1.0 - h)) / h
        assert abs(d0) < 1e-9
        assert abs(d1) < 1e-9

    def test_monotone(self):
        qs = np.linspace(0, 1, 200)
        vals = [lateral_profile(q) for q in qs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


@st.composite
def placement_configs(draw):
    """A scenario config whose neighbours fill its spawn range up to the bound.

    The spawn range is often a whole number of pitches long, or an ulp off
    it, so a lane holds its last car only at the exact spacing.
    """
    gap = draw(st.sampled_from([0.0, 10.0, 9.8, 0.1]) | st.floats(0.0, 20.0))
    pitch = gap + CAR_DIMS[0]
    spawn_min_s = draw(st.sampled_from([20.0, 0.0, 0.1]) | st.floats(0.0, 500.0))
    span = draw(st.integers(0, 6)) * pitch + draw(
        st.sampled_from([0.0, 0.0, 1e-9, -1e-9]) | st.floats(0.0, pitch))
    span = math.nextafter(span, draw(st.sampled_from([0.0, math.inf]))) if draw(
        st.booleans()) else span
    spawn_max_s = spawn_min_s + max(span, pitch / 2)
    lane_count = draw(st.integers(2, 5))
    cfg = ScenarioConfig(seed=draw(st.integers(0, 2**32)), spawn_min_s=spawn_min_s,
                         spawn_max_s=spawn_max_s, min_spawn_gap=gap,
                         accident_s=spawn_max_s + 50.0, neighbor_count=0,
                         potential_changer_count=0,
                         lanes=LaneSpec(lane_count=lane_count, road_length=spawn_max_s + 60.0))
    changers = draw(st.integers(0, cfg.lane_capacity))
    neighbors = draw(st.integers(changers, cfg.lane_capacity * (lane_count - 1)))
    return replace(cfg, neighbor_count=neighbors, potential_changer_count=changers)


def assert_placed_within_the_rules(cfg, scn):
    """Every neighbour sits in a right lane, the changers in the one left of the
    trucks, each at least min_spawn_gap from the next car, bumper to bumper."""
    lanes = cfg.lanes
    cars = [v for v in scn.vehicles if v.kind == "car"]
    assert [v.id for v in cars] == list(range(1, cfg.neighbor_count + 1))
    assert scn.changer_ids == set(range(1, cfg.potential_changer_count + 1))
    for car in cars:
        assert 0 <= car.lane <= lanes.lane_count - 2 and car.y == lanes.center(car.lane)
        assert cfg.spawn_min_s <= car.s <= cfg.spawn_max_s + 1e-9 * cfg.spawn_max_s
        if car.id in scn.changer_ids:
            assert car.lane == lanes.lane_count - 2
        for other in cars:
            if other.lane == car.lane and other is not car:
                assert abs(car.s - other.s) >= cfg.min_spawn_gap + CAR_DIMS[0]


class TestBuildScenario:
    def test_table_defaults_roster(self):
        scn = build_scenario(ScenarioConfig(seed=7))
        kinds = [v.kind for v in scn.vehicles]
        assert kinds.count("ego") == 1
        assert kinds.count("car") == 6
        assert kinds.count("truck") == 2
        for v in scn.vehicles:
            if v.kind == "truck":
                assert v.v == 0.0
        assert len(scn.changer_ids) == 3

    def test_no_neighbors(self):
        scn = build_scenario(ScenarioConfig(seed=1, neighbor_count=0,
                                            potential_changer_count=0))
        assert sorted(v.kind for v in scn.vehicles) == ["ego", "truck", "truck"]

    @pytest.mark.parametrize("lane_count", [2, 3, 4, 5])
    def test_a_truck_blocks_every_lane_but_the_egos(self, lane_count):
        cfg = ScenarioConfig(seed=1, neighbor_count=3, lanes=LaneSpec(lane_count=lane_count))
        scn = build_scenario(cfg)
        trucks = [v for v in scn.vehicles if v.kind == "truck"]
        assert [v.lane for v in trucks] == [lane for lane in range(lane_count)
                                            if lane != scn.ego.lane]
        assert all(v.s == cfg.accident_s and v.v == 0.0 for v in trucks)

    def test_same_seed_is_bit_identical(self):
        a = build_scenario(ScenarioConfig(seed=7))
        b = build_scenario(ScenarioConfig(seed=7))
        for va, vb in zip(a.vehicles, b.vehicles):
            assert va == vb

    def test_ego_rearmost_in_left_lane(self):
        scn = build_scenario(ScenarioConfig(seed=3))
        ego = scn.ego
        assert ego.lane == scn.lanes.lane_count - 1
        assert all(v.s > ego.s for v in scn.vehicles if v.id != ego.id)

    def test_over_capacity_is_refused_and_capacity_places(self):
        # over the spawn range's capacity the config itself is refused ...
        with pytest.raises(ValueError, match="potential_changer_count"):
            ScenarioConfig(seed=1, neighbor_count=6, potential_changer_count=6,
                           spawn_min_s=30.0, spawn_max_s=45.0)
        # ... and at it, three changers need 14.5 m spacing in a 30 m range,
        # which random draws miss, so the lane is packed
        cfg = ScenarioConfig(seed=1, neighbor_count=3, potential_changer_count=3,
                             spawn_min_s=30.0, spawn_max_s=60.0)
        assert_placed_within_the_rules(cfg, build_scenario(cfg))

    @pytest.mark.parametrize("neighbors,changers", [(10, 5), (10, 3), (9, 4), (8, 4)])
    def test_default_range_at_its_capacity_places_on_every_seed(self, neighbors, changers):
        # uniform draws placed none of seeds 1-50 for the first three, 16 for 8/4
        for seed in range(1, 51):
            cfg = ScenarioConfig(seed=seed, neighbor_count=neighbors,
                                 potential_changer_count=changers)
            assert_placed_within_the_rules(cfg, build_scenario(cfg))

    @settings(max_examples=300, deadline=None)
    @given(placement_configs())
    @example(ScenarioConfig(neighbor_count=10, potential_changer_count=5))
    # the range holds three cars only 14.3 m apart, and 20 + 2 * 14.3 is inexact
    @example(ScenarioConfig(neighbor_count=3, potential_changer_count=3,
                            min_spawn_gap=9.8, spawn_max_s=20.0 + 2 * 14.3))
    def test_every_config_within_the_bound_places(self, cfg):
        assert_placed_within_the_rules(cfg, build_scenario(cfg))

    def test_a_seed_the_uniform_draws_place_keeps_its_layout(self):
        # sha256 of every vehicle's lane and s, as uniform draws alone placed
        # them: the defaults and the 48-neighbour scene on seeds 1-20, and the
        # seeds of 8 neighbours, 4 changing, that the draws could fill
        dense = ScenarioConfig(neighbor_count=48, potential_changer_count=12,
                               spawn_max_s=540.0, accident_s=600.0,
                               lanes=LaneSpec(road_length=650.0))
        digest = hashlib.sha256()
        for cfg, seeds in ((ScenarioConfig(), range(1, 21)),
                           (ScenarioConfig(neighbor_count=8, potential_changer_count=4),
                            (1, 4, 6, 12, 13, 14)),
                           (dense, range(1, 21))):
            for seed in seeds:
                for v in build_scenario(replace(cfg, seed=seed)).vehicles:
                    digest.update(f"{v.id} {v.lane} {v.s.hex()}\n".encode())
        assert digest.hexdigest() == (
            "54b48601136c6b02925a43e16e0cc02dee77d56f6d5bae21fdfc982b9c5a004e")


class TestStep:
    def test_pure_kinematics_without_accel(self):
        cfg = ScenarioConfig(seed=1, neighbor_count=0, potential_changer_count=0)
        scn = build_scenario(cfg)
        s0 = scn.ego.s
        v0 = scn.ego.v
        step(scn)
        assert scn.ego.s == s0 + v0 * cfg.dt_sim
        assert scn.ego.v == v0  # at desired speed, zero accel

    def test_changer_triggers_exactly_once(self):
        cfg = ScenarioConfig(seed=5, neighbor_count=1, potential_changer_count=1,
                             spawn_min_s=100.0, spawn_max_s=110.0, duration=10.0)
        scn = build_scenario(cfg)
        run_steps(scn, int(cfg.duration / cfg.dt_sim))
        changer = next(iter(scn.changer_ids))
        plans = [p for p in scn.plans if p.vehicle_id == changer]
        assert len(plans) == 1
        assert plans[0].to_lane == plans[0].from_lane + 1

    def test_lane_changes_occur_in_most_seeds(self):
        # Monte-Carlo fixture: the reference scenario produces at least one
        # maneuver in >= 95% of 200 seeds.
        hit = 0
        for seed in range(200):
            cfg = ScenarioConfig(seed=seed, duration=20.0)
            scn = build_scenario(cfg)
            run_steps(scn, int(cfg.duration / cfg.dt_sim))
            if scn.plans:
                hit += 1
        assert hit >= 190

    def test_determinism_bit_identical_logs(self):
        logs = []
        for _ in range(2):
            cfg = ScenarioConfig(seed=11, duration=8.0)
            scn = build_scenario(cfg)
            run_steps(scn, int(cfg.duration / cfg.dt_sim))
            logs.append(scn.build_log(cfg.dt_sim))
        a, b = logs
        assert np.array_equal(a.times, b.times)
        for vid in a.vehicle_ids:
            for k in range(5):
                assert np.array_equal(a.data[vid][k], b.data[vid][k])
        assert a.plans == b.plans

    def test_kinematic_consistency_and_bounds(self):
        cfg = ScenarioConfig(seed=4, duration=12.0)
        scn = build_scenario(cfg)
        run_steps(scn, int(cfg.duration / cfg.dt_sim))
        log = scn.build_log(cfg.dt_sim)
        dt = cfg.dt_sim
        for vid in log.vehicle_ids:
            s, y, v, a = (log.column(vid, n) for n in ("s", "y", "v", "a"))
            assert np.all(v >= 0.0)
            assert np.all((y >= 0.0) & (y <= log.lanes.lane_count * log.lanes.lane_width))
            ds = np.diff(s) - v[:-1] * dt
            assert np.max(np.abs(ds)) <= 0.5 * IDM.a_max * dt * dt + 1e-12
            dv = np.diff(v) - a[1:] * dt
            assert np.max(np.abs(dv)) <= 1e-9


class TestEgoPolicy:
    def test_no_neighbors_matches_car_following(self):
        ego = make_car(vid=0, v=15.0, lane=2, v_desired=19.0)
        expected = _idm(ego, None, IDM._idm_terms)
        for policy in ("guided", "baseline"):
            got = ego_policy(ego, _lane_index([ego]), set(), DriverParams(policy=policy),
                             IDM, EgoMemory(), t=0.0)
            assert got == pytest.approx(expected)

    def test_guided_brakes_on_high_probability_ahead(self):
        lanes = LaneSpec()
        ego = make_car(vid=0, s=0.0, v=19.0, lane=2, v_desired=19.0, lanes=lanes)
        flagged = make_car(vid=1, s=40.0, v=17.0, lane=1, lanes=lanes)
        params = DriverParams(policy="guided")
        index = _lane_index([ego, flagged])
        acc = ego_policy(ego, index, {1}, params, IDM, EgoMemory(), t=5.0)
        assert acc == pytest.approx(params.guided_decel)
        # a car that is not flagged leaves the ego in free driving
        acc2 = ego_policy(ego, index, set(), params, IDM, EgoMemory(), t=5.0)
        assert acc2 == pytest.approx(0.0, abs=1e-9)

    def test_baseline_reacts_only_after_delay(self):
        lanes = LaneSpec()
        params = DriverParams(policy="baseline")
        memory = EgoMemory()
        ego = make_car(vid=0, s=0.0, v=19.0, lane=2, v_desired=19.0, lanes=lanes)
        intruder = make_car(vid=1, s=20.0, v=17.0, lane=2, lanes=lanes)
        # first sighting at t=1.0: no reaction until t reaches 1.0 + t_r
        index = _lane_index([ego, intruder])
        a0 = ego_policy(ego, index, set(), params, IDM, memory, t=1.0)
        assert a0 == pytest.approx(0.0, abs=1e-9)
        a1 = ego_policy(ego, index, set(), params, IDM, memory, t=1.5)
        assert a1 == pytest.approx(0.0, abs=1e-9)
        a2 = ego_policy(ego, index, set(), params, IDM, memory, t=1.75)
        assert a2 <= params.late_decel

    def test_guided_onset_at_first_tick_after_publication(self):
        # the changers flagged from t=5 s: deceleration begins at the
        # first guidance tick at or after 5 s
        cfg = ScenarioConfig(seed=2, duration=8.0).with_policy("guided")
        scn = build_scenario(cfg)
        flagged = frozenset(scn.changer_ids)
        tick = 0.1

        def flagged_fn(t):
            latest_tick = math.floor(t / tick + 1e-9) * tick
            return flagged if latest_tick >= 5.0 - 1e-9 else frozenset()

        run_steps(scn, int(cfg.duration / cfg.dt_sim), flagged_fn)
        onset = scn.memory.decel_onset
        assert onset is not None
        assert 5.0 - 1e-9 <= onset <= 5.0 + tick + 1e-9

    def test_guided_decelerates_earlier_on_paired_runs(self):
        # Oracle guidance: perfect foresight flags every potential changer.
        onsets = {}
        for policy in ("guided", "baseline"):
            cfg = ScenarioConfig(seed=21, duration=20.0).with_policy(policy)
            scn = build_scenario(cfg)
            flagged = frozenset(scn.changer_ids)
            flagged_fn = (lambda t: flagged) if policy == "guided" else None
            run_steps(scn, int(cfg.duration / cfg.dt_sim), flagged_fn)
            assert any(p.to_lane == scn.ego.lane for p in scn.plans)
            onsets[policy] = scn.memory.decel_onset
        assert onsets["guided"] is not None and onsets["baseline"] is not None
        assert onsets["guided"] < onsets["baseline"]


# Few distinct positions, so exact ties (0.0 against -0.0 among them) are common.
tied_positions = st.sampled_from([0.0, -0.0, 7.5, 20.0]) | st.floats(-50.0, 300.0)


@st.composite
def rosters(draw):
    """Vehicles in lanes 0..3 with tied positions, ids shuffled against roster order."""
    n = draw(st.integers(0, 12))
    ids = draw(st.permutations(range(n)))
    return [VehicleState(id=vid, kind="car", s=draw(tied_positions), y=0.0, v=17.0,
                         a=0.0, lane=draw(st.integers(0, 3)), length=CAR_DIMS[0],
                         width=CAR_DIMS[1], height=CAR_DIMS[2], v_desired=17.0)
            for vid in ids]


class TestLaneIndex:
    @settings(max_examples=400, deadline=None)
    @given(rosters())
    def test_queries_return_the_vehicles_the_roster_scans_return(self, roster):
        index = _lane_index(roster)
        for me in roster:
            for lane in range(-1, 5):  # lanes -1 and 4 are never occupied
                assert _leader(index, me, lane) is oracles._leader_in_lane(roster, me, lane)
                assert _follower(index, me, lane) is oracles._follower_in_lane(roster, me, lane)


def roster_car(vid, s, lane, v=17.0, kind="car", v_desired=17.0):
    length = TRUCK_DIMS[0] if kind == "truck" else CAR_DIMS[0]
    return VehicleState(id=vid, kind=kind, s=s, y=0.0, v=v, a=0.0, lane=lane, length=length,
                        width=CAR_DIMS[1], height=CAR_DIMS[2], v_desired=v_desired)


@st.composite
def ego_calls(draw):
    """A driver and a few policy calls, each on a fresh draw of one roster.

    Positions tie with the ego's own s (0.0 against -0.0 too) and sit at
    exactly react_range ahead of it; lanes include both road edges; guidance
    probabilities include p_trigger itself; ids are shuffled against s.
    """
    lane_count = draw(st.integers(2, 4))
    params = DriverParams(policy=draw(st.sampled_from(["guided", "baseline"])),
                          p_trigger=draw(st.sampled_from([0.5, 0.0])
                                         | st.floats(0.0, 1.0, exclude_max=True)),
                          react_range=draw(st.sampled_from([60.0, 12.5])),
                          guided_margin=draw(st.sampled_from([1.5, 0.0])),
                          reaction_time=draw(st.sampled_from([0.75, 0.0])))
    n = draw(st.integers(0, 8))
    ids = draw(st.permutations(range(1, n + 1)))
    lanes = st.integers(0, lane_count - 1)
    speeds = st.sampled_from([0.0, -0.0, 17.0]) | st.floats(0.0, 40.0)
    probs = st.sampled_from([params.p_trigger, 0.0, 1.0]) | st.floats(0.0, 1.0)
    calls, t = [], 0.0
    for _ in range(draw(st.integers(1, 4))):
        ego_s = draw(st.sampled_from([0.0, -0.0, 20.0]) | st.floats(-50.0, 300.0))
        positions = (st.sampled_from([ego_s, -ego_s, ego_s + 7.5, ego_s + params.react_range])
                     | st.floats(-50.0, 400.0))
        ego = roster_car(0, ego_s, draw(lanes), v=draw(speeds), kind="ego",
                      v_desired=draw(st.sampled_from([19.0, 0.0]) | st.floats(0.0, 40.0)))
        others = [roster_car(vid, draw(positions), draw(lanes), v=draw(speeds),
                          kind=draw(st.sampled_from(["car", "truck"]))) for vid in ids]
        guidance = draw(st.none() | st.dictionaries(st.integers(1, n + 1), probs))
        t += draw(st.sampled_from([0.0, 0.25, params.reaction_time]) | st.floats(0.0, 2.0))
        calls.append((ego, others, draw(st.integers(0, n)), guidance, t))
    return params, calls


class TestEgoPolicyMatchesRosterScans:
    @settings(max_examples=500, deadline=None)
    @given(ego_calls(), st.sampled_from(IDM_VARIANTS))
    # two acknowledged cars tie 30 m ahead: the first in roster order leads
    @example((DriverParams(policy="baseline", reaction_time=0.0),
              [(roster_car(0, 0.0, 2, v=19.0, kind="ego", v_desired=19.0),
                [roster_car(2, 30.0, 2, v=10.0), roster_car(1, 30.0, 2, v=15.0)], 0, None, 0.0)]),
             IDM)
    # a flagged car in the next lane at exactly react_range caps the ego
    @example((DriverParams(policy="guided"),
              [(roster_car(0, 20.0, 2, v=19.0, kind="ego", v_desired=19.0),
                [roster_car(1, 80.0, 1)], 0, {1: 1.0}, 0.0)]), IDM)
    def test_bit_equal_to_the_roster_scans(self, case, idm):
        params, calls = case
        memory, ref_memory = EgoMemory(), EgoMemory()
        for ego, others, at, guidance, t in calls:
            index = _lane_index(others[:at] + [ego] + others[at:])
            flagged = oracles.flagged_by(guidance, params.p_trigger)
            got = ego_policy(ego, index, flagged, params, idm, memory, t)
            want = oracles.ego_policy(ego, others, guidance, params, idm, ref_memory, t)
            assert bits(got) == bits(want)
            assert memory == ref_memory


@st.composite
def tied_scenarios(draw):
    """A small scenario whose vehicles are partly moved onto each other's s."""
    n = draw(st.integers(0, 60))
    spawn_gap = draw(st.sampled_from([0.0, 2.0, 10.0]))
    # room to place every neighbor in one lane, past the default spawn_min_s of 20
    spawn_max_s = 60.0 + 2 * n * (CAR_DIMS[0] + spawn_gap)
    accident_s = spawn_max_s + draw(st.floats(0.0, 60.0))
    cfg = ScenarioConfig(
        seed=draw(st.integers(0, 2**16)), neighbor_count=n,
        potential_changer_count=draw(st.integers(0, min(n, 12))),
        lanes=LaneSpec(lane_count=draw(st.integers(2, 4)),
                       road_length=accident_s + TRUCK_DIMS[0]),
        spawn_max_s=spawn_max_s, accident_s=accident_s, min_spawn_gap=spawn_gap,
        trigger_distance=draw(st.floats(20.0, spawn_max_s + 100.0)),
        min_lead_gap=draw(st.sampled_from([0.0, 5.0, 15.0])),
        min_lag_gap=draw(st.sampled_from([0.0, 10.0])))
    cfg = cfg.with_policy(draw(st.sampled_from(["guided", "baseline"])))
    scn = build_scenario(cfg)
    vehicles = scn.vehicles
    for _ in range(draw(st.integers(0, 6))):
        moved, anchor = draw(st.sampled_from(vehicles)), draw(st.sampled_from(vehicles))
        moved.s = -0.0 if anchor.s == 0.0 and draw(st.booleans()) else anchor.s
        moved.v = draw(st.floats(0.0, 25.0))
        if draw(st.booleans()):  # same lane as well: an exact tie in one lane
            moved.lane, moved.y = anchor.lane, anchor.y
    guidance = draw(st.none() | st.dictionaries(
        st.sampled_from([v.id for v in vehicles]), st.floats(0.0, 1.0), max_size=6))
    return scn, guidance, draw(st.integers(1, 100))


def assert_holds_the_lane_order(scn):
    """The lane order the scenario keeps is the one a fresh index of its roster gives."""
    held, fresh = scn._index, _lane_index(scn.vehicles)
    assert list(held) == list(fresh)  # the lanes, in walk order
    for lane, (keys, members) in fresh.items():
        held_keys, held_members = held[lane]
        assert [k.hex() for k in held_keys] == [k.hex() for k in keys]  # -0.0 too
        assert len(held_members) == len(members)
        assert all(a is b for a, b in zip(held_members, members))


def assert_steps_match_scanning_tick(scn, guidance, ticks):
    ref = copy.deepcopy(scn)
    scn.record()
    ref.record()
    for _ in range(ticks):
        step(scn, oracles.flagged_by(guidance, scn.cfg.driver.p_trigger))
        oracles.step(ref, guidance)
        assert_holds_the_lane_order(scn)
        scn.record()
        ref.record()
    got, want = scn.build_log(scn.cfg.dt_sim), ref.build_log(ref.cfg.dt_sim)
    assert np.array_equal(got.times, want.times)
    for vid in want.vehicle_ids:
        for k in range(5):
            assert got.data[vid][k].tobytes() == want.data[vid][k].tobytes()  # -0.0 too
    assert got.plans == want.plans
    assert got.collisions == want.collisions
    assert scn.memory == ref.memory


class TestStepMatchesRosterScans:
    @settings(max_examples=30, deadline=None)
    @given(tied_scenarios())
    def test_step_is_bit_identical_to_the_scanning_tick(self, case):
        assert_steps_match_scanning_tick(*case)

    def test_gap_check_takes_the_first_tied_follower(self):
        # A car and a truck tie 15.5 m behind a changer in its target lane. The
        # car, first in roster order, leaves an 11 m gap and the change starts;
        # the truck would leave 8.25 m, under min_lag_gap.
        cfg = ScenarioConfig(neighbor_count=2, potential_changer_count=1)
        lanes = cfg.lanes
        ego = make_car(vid=0, lane=2, v_desired=19.0)
        changer = make_car(vid=1, s=200.0, lane=0)
        car = make_car(vid=2, s=184.5, lane=1)
        truck = VehicleState(id=3, kind="truck", s=184.5, y=lanes.center(1), v=0.0, a=0.0,
                             lane=1, length=TRUCK_DIMS[0], width=TRUCK_DIMS[1],
                             height=TRUCK_DIMS[2], v_desired=0.0)
        scn = Scenario(cfg, [ego, changer, car, truck], ego_id=0, changer_ids={1})
        assert_steps_match_scanning_tick(scn, None, 3)
        assert [p.vehicle_id for p in scn.plans] == [1]


    def test_the_ego_leads_a_plain_follower(self):
        # the follower closes on the ego, whose acceleration came before the
        # walk, and reads it unmoved
        cfg = ScenarioConfig(neighbor_count=1, potential_changer_count=0)
        ego = roster_car(0, 50.0, 2, v=15.0, kind="ego", v_desired=19.0)
        follower = roster_car(1, 30.0, 2, v=25.0, v_desired=30.0)
        scn = Scenario(cfg, [follower, ego], ego_id=0, changer_ids=set())
        assert_steps_match_scanning_tick(scn, None, 50)
        assert _leader(scn._index, follower, 2) is ego

    def test_an_active_changer_leads_a_plain_follower(self):
        # the changer starts at once toward an empty lane; the follower behind
        # it reads it until it crosses, when the empty lane fills
        cfg = ScenarioConfig(neighbor_count=2, potential_changer_count=1)
        ego = roster_car(0, 0.0, 2, kind="ego", v_desired=19.0)
        changer = roster_car(1, 200.0, 0, v=10.0)
        follower = roster_car(2, 185.0, 0, v=17.0)
        scn = Scenario(cfg, [ego, changer, follower], ego_id=0, changer_ids={1})
        assert_steps_match_scanning_tick(scn, None, 1)
        assert scn.active_maneuvers and _leader(scn._index, follower, 0) is changer
        assert_steps_match_scanning_tick(scn, None, 420)
        assert (changer.lane, [p.vehicle_id for p in scn.plans]) == (1, [1])

    def test_a_lane_change_empties_one_lane_and_fills_another(self):
        cfg = ScenarioConfig(neighbor_count=1, potential_changer_count=1)
        ego = roster_car(0, 0.0, 2, kind="ego", v_desired=19.0)
        changer = roster_car(1, 200.0, 0, v=10.0)
        scn = Scenario(cfg, [ego, changer], ego_id=0, changer_ids={1})
        assert_steps_match_scanning_tick(scn, None, 420)
        assert list(scn._index) == [2, 1]

    def test_two_cars_reach_the_same_s_on_a_tick_without_a_lane_change(self):
        # In lane 0 a car runs onto a stopped truck's s; in lane 1 a car
        # reaches 0.0 where a truck stands at -0.0. A fresh order gives each
        # tie to roster order, against the order of the tick before.
        cfg = ScenarioConfig(neighbor_count=2, potential_changer_count=0)
        dt = cfg.dt_sim
        ego = roster_car(0, -100.0, 2, kind="ego", v_desired=19.0)
        truck = roster_car(1, 10.0 + 20.0 * dt, 0, v=0.0, kind="truck", v_desired=0.0)
        car = roster_car(2, 10.0, 0, v=20.0)
        signed_truck = roster_car(3, -0.0, 1, v=-0.0, kind="truck", v_desired=0.0)
        signed_car = roster_car(4, -(17.0 * dt), 1, v=17.0)
        scn = Scenario(cfg, [ego, truck, car, signed_truck, signed_car], ego_id=0,
                       changer_ids=set())
        assert_steps_match_scanning_tick(scn, None, 1)
        assert car.s == truck.s and bits(signed_truck.s) == bits(-0.0)
        assert bits(signed_car.s) == bits(0.0)
        assert scn._index[0][1] == [truck, car] and scn._index[1][1] == [signed_truck, signed_car]
        assert_steps_match_scanning_tick(scn, None, 3)


def assert_log_holds_the_first_ticks(log, rows, ticks):
    """Each log column is bit- and dtype-equal to the first ticks of its list."""
    for vid, cols in rows.items():
        for got, values in zip(log.data[vid], cols):
            want = np.asarray(values[:ticks])
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestRecording:
    @settings(max_examples=30, deadline=None)
    @given(tied_scenarios(), st.data())
    def test_log_columns_equal_the_states_collected_into_lists(self, case, data):
        scn, guidance, ticks = case
        dt = scn.cfg.dt_sim
        rows = {v.id: ([], [], [], [], []) for v in scn.vehicles}

        def collect():
            for v in scn.vehicles:
                for col, value in zip(rows[v.id], (v.s, v.y, v.v, v.a, v.lane)):
                    col.append(value)

        scn.record()
        collect()
        split = data.draw(st.integers(0, ticks))
        for k in range(ticks):
            if k == split:  # a log taken mid-run neither stops nor sees later ticks
                early = scn.build_log(dt)
            step(scn, oracles.flagged_by(guidance, scn.cfg.driver.p_trigger))
            scn.record()
            collect()
        if split == ticks:
            early = scn.build_log(dt)
        assert_log_holds_the_first_ticks(scn.build_log(dt), rows, ticks + 1)
        assert_log_holds_the_first_ticks(early, rows, split + 1)

    def test_a_recorded_value_is_retained_in_a_typed_slot(self):
        # boxed floats in lists retain about 24 B per value here, typed columns
        # about 8.3 B (8 B plus their growth reserve)
        cfg = ScenarioConfig(seed=7, neighbor_count=48, potential_changer_count=12,
                             spawn_max_s=540.0, accident_s=600.0,
                             lanes=LaneSpec(road_length=650.0))
        scn = build_scenario(cfg)
        ticks = 200
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run_steps(scn, ticks)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained / (ticks * len(scn.vehicles) * 5) < 12.0
