import os
import time
import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lanesight import cli, fusion, pipeline, prediction, scene, seeding, sensing
from lanesight.config import resolve_config
from lanesight.evaluation import identification_accuracy
from lanesight.fusion import FusionParams
from lanesight.pipeline import (
    DECISION_THRESHOLD,
    CameraMount,
    FuseCorpusConfig,
    build_dataset,
    build_fuse_corpus,
    closed_loop_pair,
    ground_truth_bits,
    render_frames,
    simulate_run,
)
from lanesight.prediction import TrainConfig, WindowParams, label_windows, \
    nonchanger_negatives, train
from lanesight.scene import LOG_PERIOD, ManeuverPlan, ScenarioConfig
from lanesight.sensing import DetectorNoiseModel
from lanesight.twinlink import ChannelConfig


def frame_scorer(corpus, noise, seed):
    """build_fuse_corpus's rows, and the one-frame function it fanned out."""
    scorers = []

    def serial(fn, items):
        scorers.append(fn)
        return [fn(item) for item in items]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_fan_out", serial)
        rows, _, _ = build_fuse_corpus(corpus, CameraMount(), noise, FusionParams(), seed)
    (score,) = scorers
    assert score.func is pipeline._score_frame
    return rows, score


def small_cfg(**kw):
    defaults = dict(seed=1, duration=10.0, neighbor_count=3,
                    potential_changer_count=2)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestSimulateRun:
    def test_publish_cadence(self):
        _, store = simulate_run(small_cfg(duration=3.0), ChannelConfig())
        times = store.times
        assert len(times) == 31  # t = 0.0 .. 3.0 inclusive at 0.1 s
        assert list(times) == pytest.approx(list(np.arange(31) * 0.1))

    def test_advisories_only_with_model(self):
        _, store = simulate_run(small_cfg(duration=2.0), ChannelConfig())
        assert store.advisories == {} and not store.issued

    def test_trace_cadence_with_model(self):
        data = build_dataset(small_cfg(duration=16.0), WindowParams(sample_rate=1.0),
                             seeds=[31, 32, 33])
        model = train(data, TrainConfig(hidden=8, epochs=20))
        log, store = simulate_run(small_cfg(duration=5.0), ChannelConfig(), model=model)
        assert store.advisories
        assert store.issued.tolist() == pytest.approx([0, 1, 2, 3, 4, 5])
        for vid, probs in store.advisories.items():
            assert log.kind_of(vid) == "car"
            assert len(probs) == 6 and all(0 <= p <= 1 for p in probs)

    def test_one_lane_index_per_inference_tick(self, model, monkeypatch):
        # the tick's snapshot is ordered once; every subject's features read that order
        real, built = pipeline._lane_index, []

        def counted(vehicles):
            built.append(len(vehicles))
            return real(vehicles)

        monkeypatch.setattr(pipeline, "_lane_index", counted)
        monkeypatch.setattr(prediction, "_lane_index", counted)
        log, store = simulate_run(small_cfg(duration=5.0), ChannelConfig(), model=model)
        assert built == [len(log.vehicle_ids)] * 6  # t = 0, 1, ..., 5
        assert len(store.advisories) > 1

    def test_log_matches_scenario_duration(self):
        log, _ = simulate_run(small_cfg(duration=4.0), ChannelConfig())
        assert log.times[-1] == pytest.approx(4.0)
        assert len(log.times) == round(4.0 / LOG_PERIOD) + 1

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), ticks=st.integers(0, 300),
           neighbors=st.integers(0, 6), changers=st.integers(0, 3),
           policy=st.sampled_from(["guided", "baseline"]), with_model=st.booleans(),
           k=st.sampled_from([1, 2, 5, 10]))
    def test_recording_every_k_ticks_keeps_every_kth_tick(self, model, seed, ticks,
                                                          neighbors, changers, policy,
                                                          with_model, k):
        cfg = small_cfg(seed=seed, duration=ticks * 0.01, neighbor_count=neighbors,
                        potential_changer_count=min(changers, neighbors))
        cfg = cfg.with_policy(policy)
        run_model = model if with_model else None
        want, every = simulate_run(cfg, ChannelConfig(), model=run_model,
                                   record_period=cfg.dt_sim)
        got, strided = simulate_run(cfg, ChannelConfig(), model=run_model,
                                    record_period=k * cfg.dt_sim)
        assert got.dt == k * cfg.dt_sim
        assert got.times.tobytes() == want.times[::k].tobytes()
        for vid in want.vehicle_ids:
            for col, full in zip(got.data[vid], want.data[vid]):
                assert col.tobytes() == full[::k].tobytes()  # -0.0 too
        assert got.plans == want.plans
        assert got.collisions == want.collisions
        assert strided.issued.tobytes() == every.issued.tobytes()
        assert strided.advisories.keys() == every.advisories.keys()
        for vid, col in every.advisories.items():
            assert strided.advisories[vid].tobytes() == col.tobytes()


class TestRenderFrames:
    def test_frame_count_and_contents(self):
        log, _ = simulate_run(small_cfg(duration=2.0), ChannelConfig())
        frames = render_frames(log, CameraMount(),
                               DetectorNoiseModel(seed=0, frame_period=0.5), range(5))
        assert len(frames) == 5
        for frame in frames:
            assert frame.depth.width == 960
            for det in frame.detections:
                assert det.source_id != log.ego_id

    def test_detections_reflect_vehicles_ahead(self):
        log, _ = simulate_run(small_cfg(duration=1.0), ChannelConfig())
        frames = render_frames(log, CameraMount(),
                               DetectorNoiseModel(edge_jitter_sigma=0.0, seed=0,
                                                  frame_period=1.0), range(2))
        # neighbors spawn ahead of the ego, so the first frame sees some
        assert len(frames[0].detections) >= 1

    def test_each_vehicle_projected_once_per_frame(self, monkeypatch):
        # the truth boxes, the depth raster and the detections share one
        # projection call per frame, with one row per non-ego vehicle
        rows = []
        project = sensing.project_cuboid_hull

        def counted(centers, dims, *args):
            rows.append(len(centers))
            return project(centers, dims, *args)

        monkeypatch.setattr(sensing, "project_cuboid_hull", counted)
        log, _ = simulate_run(ScenarioConfig(duration=1.0), ChannelConfig())
        frames = render_frames(log, CameraMount(), DetectorNoiseModel(frame_period=0.5),
                               range(3))
        assert len(frames) == 3
        assert rows == [len(log.vehicle_ids) - 1] * len(frames)


class TestGroundTruthBits:
    def test_window_marks_tail_of_maneuver(self):
        events = [ManeuverPlan(7, 10.0, 14.0, 1, 2)]
        bits = ground_truth_bits(7, np.arange(0.0, 21.0), events, tau=5.0)
        assert np.flatnonzero(bits).tolist() == [9, 10, 11, 12, 13, 14]

    def test_other_vehicles_ignored(self):
        events = [ManeuverPlan(8, 3.0, 7.0, 1, 2)]
        assert ground_truth_bits(7, np.arange(0.0, 10.0), events, tau=5.0).sum() == 0

    @pytest.mark.parametrize("duration,window", [
        (30.0, WindowParams()),
        (20.0, WindowParams()),  # the run's end cuts maneuvers off
        (30.0, WindowParams(tau_g=0.0)),  # the two windows share an edge row
        (30.0, WindowParams(tau=2.5, sample_rate=3.0)),  # 1/3 s is no whole number of rows
    ])
    def test_training_labels_are_the_scored_truth(self, duration, window):
        # train labels its samples from the plans predict-eval scores against,
        # and each label is the truth at the sample's own vehicle and time
        for seed in (1, 2, 3):
            cfg = ScenarioConfig(seed=seed, duration=duration).with_policy("baseline")
            log, _ = simulate_run(cfg, None)
            samples = (label_windows(log.plans, log, window)
                       + nonchanger_negatives(log, log.plans, window))
            assert log.plans and samples == pipeline._samples(window, True, cfg)
            for s in samples:
                truth = ground_truth_bits(s.vehicle_id, np.array([s.t]), log.plans, window.tau)
                assert s.label == truth[0], s


class TestTraced:
    @pytest.mark.parametrize("trained", [True, False])  # else every probability is 0.5
    def test_arrays_are_the_store_columns(self, model, monkeypatch, trained):
        if not trained:
            model = prediction.MlpModel(
                w1=np.zeros((2, prediction.FEATURE_SIZE)), b1=np.zeros(2), w2=np.zeros(2),
                b2=0.0, feat_mean=np.zeros(prediction.FEATURE_SIZE),
                feat_std=np.ones(prediction.FEATURE_SIZE))
        real, stores = pipeline.simulate_run, []

        def kept(*args, **kwargs):
            log, store = real(*args, **kwargs)
            stores.append(store)
            return log, store

        monkeypatch.setattr(pipeline, "simulate_run", kept)
        cfg = small_cfg(duration=8.0, seed=3)
        traces, plans = pipeline._traced(ChannelConfig(latency=0.25), model, cfg)
        (store,) = stores
        assert traces and traces.keys() == store.advisories.keys()
        for vid, (times, probs, bits) in traces.items():
            assert times.tobytes() == store.issued.tobytes()
            assert probs.tobytes() == store.advisories[vid].tobytes()
            assert bits.dtype.kind == "i"
            assert np.array_equal(bits, probs >= DECISION_THRESHOLD)
            assert trained or bits.all()  # a probability at the threshold sets its bit
        assert plans == simulate_run(cfg, ChannelConfig(latency=0.25), model)[0].plans


class TestBuildDataset:
    def test_includes_both_classes_and_balances(self):
        data = build_dataset(small_cfg(duration=16.0), WindowParams(sample_rate=1.0),
                             seeds=[41, 42, 43])
        labels = [s.label for s in data]
        assert 0 < sum(labels) < len(labels)

    def test_nonchanger_flag_off_reduces_negatives(self):
        with_extra = build_dataset(small_cfg(duration=16.0), WindowParams(sample_rate=1.0),
                                   seeds=[41], include_nonchangers=True)
        without = build_dataset(small_cfg(duration=16.0), WindowParams(sample_rate=1.0),
                                seeds=[41], include_nonchangers=False)
        neg_with = sum(1 for s in with_extra if s.label == 0)
        neg_without = sum(1 for s in without if s.label == 0)
        assert neg_with > neg_without


class TestFuseCorpus:
    def test_deterministic(self):
        corpus = FuseCorpusConfig(frames=60)
        noise = DetectorNoiseModel(seed=5)
        a = build_fuse_corpus(corpus, CameraMount(), noise, FusionParams(), seed=5)
        b = build_fuse_corpus(corpus, CameraMount(), noise, FusionParams(), seed=5)
        assert a == b  # every row, IoU included, and both counts
        assert len(a[0]) == 2 * a[1] > 0

    def test_fused_and_baseline_agree_on_unique_candidates(self):
        corpus = FuseCorpusConfig(frames=120)
        noise = DetectorNoiseModel(seed=2)
        rows, _, _ = build_fuse_corpus(corpus, CameraMount(), noise, FusionParams(), seed=2)
        by_frame = {}
        for row in rows:
            by_frame.setdefault(row[0], {})[row[1]] = row
        for methods in by_frame.values():
            fused, base = methods["fused"], methods["baseline"]
            if fused[4] == 1:  # one candidate
                assert base[2:] == fused[2:]  # chosen source id, IoU, candidate count

    def test_depth_is_painted_only_for_frames_that_read_it(self, monkeypatch):
        # only a fused identification with several candidates reads the raster,
        # so the other frames never draw their depth noise
        streams, evaluated = [], []
        rng_for, evaluate = sensing.seeding.rng_for, fusion.depth_evaluate

        def counted_rng(seed, stream, index=0):
            streams.append(stream)
            return rng_for(seed, stream, index)

        def counted_evaluate(*args, **kwargs):
            evaluated.append(1)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(sensing.seeding, "rng_for", counted_rng)
        monkeypatch.setattr(fusion, "depth_evaluate", counted_evaluate)
        # one process, so every frame is scored where the counts see it
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: 1)
        noise = DetectorNoiseModel(depth_noise_sigma=0.1, seed=4)
        _, frames, _ = build_fuse_corpus(FuseCorpusConfig(frames=40), CameraMount(), noise,
                                         FusionParams(), seed=4)
        painted = streams.count(seeding.DEPTH)
        assert 0 < painted == len(evaluated) < frames

    def test_a_frame_is_scored_alone(self):
        # frame i draws only from streams keyed by (seed, i): a shorter corpus
        # gives the first rows of a longer one, and each frame, scored by
        # itself in any order, gives its rows in the corpus
        noise = DetectorNoiseModel(seed=7)
        rows_40, _ = frame_scorer(FuseCorpusConfig(frames=40), noise, 7)
        rows_60, score = frame_scorer(FuseCorpusConfig(frames=60), noise, 7)
        assert 0 < len(rows_40) < len(rows_60)
        assert rows_60[:len(rows_40)] == rows_40
        assert {row[0] for row in rows_40} == {row[0] for row in rows_60 if row[0] < 40}
        alone = {i: score(i) for i in reversed(range(60))}
        assert [row for i in range(60) if alone[i] is not None
                for row in alone[i][1]] == rows_60

    def test_rows_hold_only_plain_values(self):
        # what a helper pickles back: no lanesight or NumPy object crosses the pipe
        corpus = FuseCorpusConfig(frames=40, overlap_fraction=1.0, clutter_max=4)
        _, score = frame_scorer(corpus, DetectorNoiseModel(seed=6), 6)
        shown = [frame for frame in map(score, range(corpus.frames)) if frame is not None]
        assert shown
        for overlaps, rows in shown:
            assert type(overlaps) is bool
            assert [row[1] for row in rows] == ["fused", "baseline"]
            for row in rows:
                assert type(row) is tuple and len(row) == 5
                assert all(type(value) in (str, int, float, type(None)) for value in row)
        chosen = {type(row[2]) for _, rows in shown for row in rows}
        assert chosen == {int, type(None)}

    def test_accuracy_monotone_in_threshold(self):
        corpus = FuseCorpusConfig(frames=150)
        noise = DetectorNoiseModel(seed=3)
        rows, _, _ = build_fuse_corpus(corpus, CameraMount(), noise, FusionParams(), seed=3)
        curves = identification_accuracy(rows, np.arange(0.3, 1.0, 0.05))
        for accs in curves.values():
            assert all(b <= a + 1e-12 for a, b in zip(accs, accs[1:]))


@pytest.fixture(scope="module")
def model():
    data = build_dataset(small_cfg(duration=16.0), WindowParams(sample_rate=1.0),
                         seeds=range(300, 312))
    return train(data, TrainConfig(hidden=16, epochs=60))


class TestClosedLoopPair:
    def test_pair_is_deterministic(self, model):
        cfg = small_cfg(duration=12.0)
        first = closed_loop_pair(cfg, model, seed=9, channel=ChannelConfig())
        second = closed_loop_pair(cfg, model, seed=9, channel=ChannelConfig())
        assert first == second

    def test_reports_cover_both_policies(self, model):
        guided, baseline = closed_loop_pair(small_cfg(duration=12.0), model, seed=4,
                                            channel=ChannelConfig())
        for report in (guided, baseline):
            assert report.trip_duration == pytest.approx(12.0)
            assert report.mean_abs_accel >= 0.0
            assert report.max_jerk >= 0.0

    def test_guided_onset_not_later_on_conflict_seeds(self, model, monkeypatch):
        # paired-run comparison on a handful of seeds; whenever both runs
        # see a lane change ahead, guided may not start braking later
        from dataclasses import replace
        real, scenarios = pipeline.build_scenario, []

        def kept(cfg):  # the ego's bookkeeping lives on the Scenario, which the run drops
            scenarios.append(real(cfg))
            return scenarios[-1]

        monkeypatch.setattr(pipeline, "build_scenario", kept)
        checked = 0
        for seed in range(6):
            onsets = {}
            for policy in ("guided", "baseline"):
                cfg = replace(small_cfg(duration=14.0),
                              seed=seed).with_policy(policy)
                log, _ = simulate_run(cfg, ChannelConfig(),
                                      model=model if policy == "guided" else None)
                if not log.plans:
                    onsets = None
                    break
                onsets[policy] = scenarios[-1].memory.decel_onset
            if onsets and onsets["guided"] is not None and onsets["baseline"] is not None:
                assert onsets["guided"] <= onsets["baseline"]
                checked += 1
        assert checked >= 2


def run_bytes(log, store):
    """Every column of a run's log and twin store as bytes, in store order, with
    the log's plans and collisions and the store's vehicle kinds, lengths and z."""
    def columns(table):
        return [(vid, [np.asarray(col).tobytes() for col in cols]) for vid, cols in table.items()]
    advisories = {vid: (col,) for vid, col in store.advisories.items()}
    return (log.times.tobytes(), columns(log.data), log.plans, log.collisions,
            store.times.tobytes(), columns(store.records), list(store.meta.items()),
            store.issued.tobytes(), columns(advisories))


class TestInferenceLoopMatchesOracle:
    """One stacked forward pass per inference tick, and the flagged set rebuilt
    only when another round becomes visible, give bit for bit what the car-by-car
    loop that rebuilds its guidance on every publish tick gives
    (oracles.simulate_run): the log, the store and the flagged set handed to
    every tick."""

    # 1.0 and just below it sit on the inference period; 7.0 outlasts the run; at
    # t = 4.1, t - 0.1 falls an ulp short of round 4, which only the 1e-12 slack shows
    @pytest.mark.parametrize("latency", [0.0, 0.05, 0.1, 0.25, 1.0, 1.0 - 1e-12, 7.0])
    @pytest.mark.parametrize("publish_period", [0.1, 0.2, 0.3])
    @pytest.mark.parametrize("policy", ["guided", "baseline"])
    def test_bit_equal(self, model, monkeypatch, policy, publish_period, latency):
        cfg = small_cfg(seed=7, duration=6.0, neighbor_count=8,
                        potential_changer_count=3).with_policy(policy)
        channel = ChannelConfig(publish_period=publish_period, latency=latency)
        model = replace(model, b2=model.b2 + 1.0)  # so a fifth of the advisories alert the ego
        real, handed = scene.step, {pipeline: [], scene: []}

        def recorder(calls):
            def recorded(scn, flagged=frozenset()):
                calls.append(sorted(flagged))
                real(scn, flagged)
            return recorded

        for module, calls in handed.items():
            monkeypatch.setattr(module, "step", recorder(calls))
        got = run_bytes(*simulate_run(cfg, channel, model=model))
        want = run_bytes(*oracles.simulate_run(cfg, channel, model))
        assert got == want
        assert handed[pipeline] == handed[scene]
        assert len(handed[pipeline]) == 600
        shown = [flagged for flagged in handed[pipeline] if flagged]
        if policy == "baseline" or latency > cfg.duration:
            assert not shown
        else:  # the guidance reaches the ego: some car is above its trigger
            assert shown


def _handshake(marker, item):
    """Item 2 writes the marker; item 1 waits up to 10 s for it."""
    if item == 2:
        marker.write_text("item 2 ran")
    deadline = time.monotonic() + 10.0
    while item == 1 and not marker.exists():
        if time.monotonic() > deadline:
            raise TimeoutError("item 1 waited 10 s for item 2")
        time.sleep(0.005)
    return item


def _fail_or_die(item):
    if item == 0:
        raise ValueError("item 0")
    if item == 1:
        os._exit(1)
    return item


def _fail_at(failing, ran, item):
    (ran / str(item)).touch()
    if item in failing:
        raise ValueError(f"item {item}")
    return item


def _die_at(dying, item):
    if item in dying:
        os._exit(1)
    return item


def _big(item):
    return bytes([item]) * 3_000_000  # larger than a pipe buffer


class _NeedsTwoArgs(Exception):
    """Pickles, but does not unpickle: its __init__ takes two arguments."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


class _HoldsALambda(Exception):
    def __init__(self):
        super().__init__("holds a lambda")
        self.hook = lambda: None


def _raise_unpicklable(kind, item):
    if item == 1:
        raise _NeedsTwoArgs(1, 2) if kind == "init" else _HoldsALambda()
    return item


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestFanOutOrder:
    """The caller runs its whole share before it waits on a helper; the error
    raised is the first in item order, as in one process."""

    def test_the_caller_runs_its_share_before_it_waits(self, monkeypatch, tmp_path):
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: 2)
        # the caller runs items 0 and 2, the helper item 1, which needs item 2 done
        assert pipeline._fan_out(partial(_handshake, tmp_path / "marker"), range(3)) \
            == [0, 1, 2]
        assert_no_child_left()

    # with two processes the caller runs items 0, 2 and 4, the helper 1 and 3;
    # with three the caller runs 0 and 3, helper 1 items 1 and 4, helper 2 item 2
    @pytest.mark.parametrize("failing, raised", [({1, 2}, 1), ({0, 1}, 0), ({2, 3}, 2),
                                                 ({3}, 3), ({1, 4}, 1), ({2}, 2),
                                                 ({4}, 4), ({3, 4}, 3)])
    def test_the_first_error_in_item_order_is_raised(self, monkeypatch, tmp_path, failing,
                                                     raised):
        for processes in (1, 2, 3):
            monkeypatch.setattr(pipeline, "_cpu_count", lambda: processes)
            ran = tmp_path / str(processes)
            ran.mkdir()
            with pytest.raises(ValueError, match=f"^item {raised}$"):
                pipeline._fan_out(partial(_fail_at, failing, ran), range(5))
            assert_no_child_left()
            for share in (list(range(part, 5, processes)) for part in range(processes)):
                stop = next((i for i, item in enumerate(share) if item in failing), len(share))
                # each process ran its items up to its own first error, and none after it
                assert [item for item in share if (ran / str(item)).exists()] \
                    == share[:stop + 1]


class TestFanOutPipes:
    """Each helper sends its results through its own pipe; no path leaves a
    child behind or waits forever."""

    @pytest.mark.parametrize("processes", [2, 3])
    def test_a_helper_that_dies_without_sending_raises(self, monkeypatch, processes):
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: processes)
        with pytest.raises(RuntimeError, match="^a helper exited without sending"):
            pipeline._fan_out(partial(_die_at, {1}), range(5))
        assert_no_child_left()

    def test_a_helper_dying_after_the_callers_error_still_raises_in_item_order(
            self, monkeypatch):
        # the caller fails at item 0; helper 1 dies at item 1, which comes later
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: 2)
        with pytest.raises(ValueError, match="^item 0$"):
            pipeline._fan_out(_fail_or_die, range(4))
        assert_no_child_left()

    @pytest.mark.parametrize("processes", [2, 3])
    def test_results_larger_than_a_pipe_buffer_come_back_intact(self, monkeypatch,
                                                                processes):
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: processes)
        got = pipeline._fan_out(_big, range(5))
        assert got == [_big(item) for item in range(5)]
        assert_no_child_left()

    @pytest.mark.parametrize("kind", ["init", "lambda"])
    def test_an_unpicklable_error_in_a_helper_surfaces_as_an_error(self, monkeypatch, kind):
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: 2)
        name = {"init": "_NeedsTwoArgs", "lambda": "_HoldsALambda"}[kind]
        with pytest.raises(RuntimeError, match=f"^a helper raised {name}\\(.*does not pickle$"):
            pipeline._fan_out(partial(_raise_unpicklable, kind), range(4))
        assert_no_child_left()


class RunRefs(list):
    """Weak references to each run's log, store and Scenario, in run order."""

    kept = frozenset()  # of "log" and "store": what the loop keeps by design


class TestOneRunAlive:
    """Every loop over runs drops a run's log, store and Scenario before the
    next run in its process starts; `simulate` keeps each seed's log and store
    until it writes, and drops its Scenario."""

    @pytest.fixture
    def runs(self, monkeypatch, tmp_path):
        real_run, real_build = pipeline.simulate_run, pipeline.build_scenario
        refs, scenarios = RunRefs(), []

        def tracked(cfg):
            scn = real_build(cfg)
            scenarios.append(weakref.ref(scn))
            return scn

        def checked(*args, **kwargs):
            alive = [name for run in refs for name, ref in run.items()
                     if name not in refs.kept and ref() is not None]
            assert not alive, f"an earlier run is still alive: {alive}"
            log, store = real_run(*args, **kwargs)
            refs.append({"log": weakref.ref(log), "store": weakref.ref(store),
                         "scenario": scenarios[-1]})
            with open(tmp_path / "run_pids", "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return log, store

        monkeypatch.setattr(pipeline, "build_scenario", tracked)
        monkeypatch.setattr(pipeline, "simulate_run", checked)
        monkeypatch.setattr(cli, "simulate_run", checked)
        # one process, so every run is made where refs sees it
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: 1)
        return refs

    def run_config(self):
        return resolve_config({
            "seeds": [1, 2],
            "scenario": {"duration": 2.0, "neighbor_count": 3, "potential_changer_count": 2},
            "camera": {"width": 192, "height": 108, "u0": 96.0, "v0": 54.0}})

    def test_closed_loop_pair(self, runs, model):
        closed_loop_pair(small_cfg(duration=2.0), model, seed=3, channel=ChannelConfig())
        assert len(runs) == 2

    def test_build_dataset(self, runs):
        build_dataset(small_cfg(duration=2.0), WindowParams(), seeds=[1, 2, 3])
        assert len(runs) == 3

    def test_simulate_command(self, runs, tmp_path):
        cfg = self.run_config()
        runs.kept = frozenset({"log", "store"})  # every seed runs before the first write
        compute, write, _ = cli.COMMANDS["simulate"]
        write(cfg, tmp_path, compute(cfg, None))
        assert len(runs) == 2
        assert all(run["scenario"]() is None for run in runs)

    def test_predict_eval_command(self, runs, tmp_path, model):
        cfg = self.run_config()
        compute, write, _ = cli.COMMANDS["predict-eval"]
        write(cfg, tmp_path, compute(cfg, model))
        assert len(runs) == 2

    def test_each_process_of_a_fan_out_holds_one_run(self, runs, monkeypatch, tmp_path):
        # a helper that finds an earlier run of its own alive fails its task,
        # and its AssertionError is raised here
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: 2)
        build_dataset(small_cfg(duration=2.0), WindowParams(), seeds=[1, 2, 3, 4])
        pids = (tmp_path / "run_pids").read_text().split()
        assert pids.count(str(os.getpid())) == len(runs) == 2  # seeds 1 and 3
        assert len(set(pids)) == 2 and len(pids) == 4  # a helper ran seeds 2 and 4

    def test_scenario_dies_with_its_run(self, monkeypatch):
        # the run gives the log's NumPy copy, not the Scenario's columns
        real, scenarios = pipeline.build_scenario, []

        def tracked(cfg):
            scn = real(cfg)
            scenarios.append(weakref.ref(scn))
            return scn

        monkeypatch.setattr(pipeline, "build_scenario", tracked)
        # held: both stay alive
        log, store = simulate_run(small_cfg(duration=2.0), ChannelConfig())
        assert len(scenarios) == 1 and scenarios[0]() is None
        assert len(log.times) == 21 and len(store.times) == 21
