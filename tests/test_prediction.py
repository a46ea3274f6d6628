import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from lanesight.prediction import (
    FEATURE_SIZE,
    SENTINEL_GAP,
    DegenerateDataset,
    LabeledSample,
    MlpModel,
    TrainConfig,
    WindowParams,
    _sigmoid,
    aggressive_filter,
    conservative_filter,
    features_from_states,
    infer,
    label_windows,
    load_model,
    save_model,
    train,
)
from lanesight.scene import LaneSpec, ManeuverPlan, VehicleState, _lane_index

LANES = LaneSpec()


def make_state(vid, s, lane=1, v=17.0):
    return VehicleState(id=vid, kind="car", s=s, y=LANES.center(lane), v=v, a=0.0,
                        lane=lane, length=4.5, width=1.8, height=1.5, v_desired=v)


def features(states, subject):
    """The subject's features, read from one lane index of all the states."""
    return features_from_states(_lane_index(states), subject, LANES.lane_count)


class TestFeatures:
    def test_lone_vehicle_all_sentinels(self):
        subject = make_state(1, 50.0, v=17.0)
        feats = features([subject], subject)
        assert feats[0] == 17.0
        assert list(feats[1:]) == [0.0, SENTINEL_GAP] * 6

    def test_own_lane_lead_slot(self):
        subject = make_state(1, 50.0, v=17.0)
        lead = make_state(2, 84.5, v=19.0)  # bumper gap 34.5 - 4.5 = 30
        feats = features([subject, lead], subject)
        assert feats[1] == pytest.approx(2.0)   # own-lead speed difference
        assert feats[2] == pytest.approx(30.0)  # own-lead gap

    def test_lag_and_adjacent_lane_slots(self):
        subject = make_state(1, 50.0, lane=1)
        own_lag = make_state(2, 30.0, lane=1, v=16.0)
        left_lead = make_state(3, 70.0, lane=2, v=20.0)
        right_lag = make_state(4, 45.0, lane=0, v=18.0)
        feats = features([subject, own_lag, left_lead, right_lag], subject)
        assert feats[3] == pytest.approx(-1.0)            # own lag dv
        assert feats[4] == pytest.approx(20.0 - 4.5)      # own lag gap
        assert feats[5] == pytest.approx(3.0)             # left lead dv
        assert feats[6] == pytest.approx(20.0 - 4.5)
        assert feats[7] == 0.0 and feats[8] == SENTINEL_GAP  # left lag absent
        assert feats[11] == pytest.approx(1.0)            # right lag dv
        assert feats[12] == pytest.approx(5.0 - 4.5)

    def test_rightmost_lane_has_sentinel_right_slots(self):
        subject = make_state(1, 50.0, lane=0)
        other = make_state(2, 60.0, lane=0)
        feats = features([subject, other], subject)
        assert list(feats[9:13]) == [0.0, SENTINEL_GAP, 0.0, SENTINEL_GAP]


def tie_state(vid, s, lane, v=17.0, length=4.5):
    return VehicleState(id=vid, kind="car", s=s, y=0.0, v=v, a=0.0, lane=lane,
                        length=length, width=1.8, height=1.5, v_desired=v)


@st.composite
def feature_rosters(draw):
    """States with tied s (0.0 against -0.0 too), ids shuffled against s, and
    lanes from one past each road edge inward."""
    lane_count = draw(st.integers(2, 4))
    ids = draw(st.permutations(range(draw(st.integers(1, 10)))))
    positions = st.sampled_from([0.0, -0.0, 7.5, 20.0]) | st.floats(-50.0, 300.0)
    speeds = st.sampled_from([0.0, -0.0, 17.0]) | st.floats(0.0, 40.0)
    states = [tie_state(vid, draw(positions), draw(st.integers(-1, lane_count)),
                        v=draw(speeds), length=draw(st.sampled_from([4.5, 10.0])))
              for vid in ids]
    return states, lane_count


class TestFeaturesMatchRosterScans:
    @settings(max_examples=500, deadline=None)
    @given(feature_rosters())
    # ties behind, level with and ahead of the subject, two by two
    @example(([tie_state(3, 20.0, 1), tie_state(2, 7.5, 1, v=12.0), tie_state(1, 7.5, 1),
               tie_state(0, 20.0, 1, v=9.0, length=10.0), tie_state(5, 0.0, 1, v=3.0),
               tie_state(4, -0.0, 1)], 3))
    def test_bit_equal_to_the_scanning_copy(self, case):
        states, lane_count = case
        index = _lane_index(states)  # one index serves every subject, as in a run
        for subject in states:
            got = features_from_states(index, subject, lane_count)
            want = oracles.features_from_states(states, subject.id, lane_count)
            assert type(got) is list and np.asarray(got).tobytes() == want.tobytes()


def constant_log(duration=120.0, dt=0.1):
    from lanesight.scene import TrajectoryLog
    n = int(round(duration / dt)) + 1
    times = np.arange(n) * dt
    ids = (1, 2)
    data = {}
    for vid, s0 in zip(ids, (0.0, 40.0)):
        s = s0 + 17.0 * times
        y = np.full(n, LANES.center(1))
        data[vid] = (s, y, np.full(n, 17.0), np.zeros(n), np.full(n, 1.0))
    meta = {vid: ("car", 4.5, 1.8, 1.5) for vid in ids}
    return TrajectoryLog(times=times, dt=dt, meta=meta, data=data, plans=[],
                         ego_id=1, collisions=[], lanes=LANES)


class TestLabelWindows:
    def test_window_geometry(self):
        log = constant_log()
        event = ManeuverPlan(1, 96.0, 100.0, 1, 2)
        samples = label_windows([event], log, WindowParams(tau=5.0, tau_g=3.0,
                                                          sample_rate=1.0))
        pos = sorted(s.t for s in samples if s.label == 1)
        neg = sorted(s.t for s in samples if s.label == 0)
        assert pos == pytest.approx([95.0, 96.0, 97.0, 98.0, 99.0, 100.0])
        assert neg == pytest.approx([87.0, 88.0, 89.0, 90.0, 91.0, 92.0])
        assert len(pos) == len(neg)

    def test_zero_gap_abuts(self):
        # the windows share the row at 95 s, which stays a positive only
        log = constant_log()
        event = ManeuverPlan(1, 96.0, 100.0, 1, 2)
        samples = label_windows([event], log, WindowParams(tau=5.0, tau_g=0.0,
                                                          sample_rate=1.0))
        pos = sorted(s.t for s in samples if s.label == 1)
        neg = sorted(s.t for s in samples if s.label == 0)
        assert pos == pytest.approx([95.0, 96.0, 97.0, 98.0, 99.0, 100.0])
        assert neg == pytest.approx([90.0, 91.0, 92.0, 93.0, 94.0])

    def test_windows_between_log_rows_keep_to_rows_inside(self):
        # a plan ends on the 0.01 s tick grid: the newest row at or below each
        # window's end, then a row every second back while inside the window
        event = ManeuverPlan(1, 92.37, 96.37, 1, 2)
        samples = label_windows([event], constant_log(), WindowParams(tau=5.0, tau_g=3.0,
                                                                      sample_rate=1.0))
        pos = [s.t for s in samples if s.label == 1]
        neg = [s.t for s in samples if s.label == 0]
        assert pos == pytest.approx([92.3, 93.3, 94.3, 95.3, 96.3])
        assert neg == pytest.approx([84.3, 85.3, 86.3, 87.3, 88.3])

    def test_cut_off_at_log_end(self):
        # the run ends at 12 s, before the plan's end: the window stays where the
        # plan puts it, and its rows past the log are dropped
        log = constant_log(duration=12.0)
        event = ManeuverPlan(1, 10.2, 14.2, 1, 2)
        samples = label_windows([event], log, WindowParams(tau=5.0, tau_g=3.0,
                                                          sample_rate=1.0))
        pos = [s.t for s in samples if s.label == 1]
        neg = [s.t for s in samples if s.label == 0]
        assert pos == pytest.approx([9.2, 10.2, 11.2])
        assert neg == pytest.approx([1.2, 2.2, 3.2, 4.2, 5.2, 6.2])

    def test_no_events(self):
        assert label_windows([], constant_log(), WindowParams()) == []

    def test_truncated_at_log_start(self):
        log = constant_log(duration=12.0)
        event = ManeuverPlan(1, 6.0, 10.0, 1, 2)
        samples = label_windows([event], log, WindowParams(tau=5.0, tau_g=3.0,
                                                          sample_rate=1.0))
        neg = [s for s in samples if s.label == 0]
        pos = [s for s in samples if s.label == 1]
        assert sorted(s.t for s in pos) == pytest.approx([5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        assert sorted(s.t for s in neg) == pytest.approx([0.0, 1.0, 2.0])  # clipped


def blob_dataset(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=FEATURE_SIZE)
    direction /= np.linalg.norm(direction)
    samples = []
    for i in range(n):
        label = i % 2
        center = direction * (2.0 if label else -2.0)
        feats = center + rng.normal(0.0, 0.5, FEATURE_SIZE)
        samples.append(LabeledSample(tuple(feats), label, float(i), 1))
    return samples


class TestTrain:
    def test_separable_dataset_high_heldout_accuracy(self):
        data = blob_dataset()
        model = train(data[:700], TrainConfig(hidden=32, epochs=60))
        probs = infer(model, [s.features for s in data[700:]])
        correct = sum((p >= 0.5) == bool(s.label) for p, s in zip(probs, data[700:]))
        assert correct / 300 >= 0.95

    def test_seeded_training_is_bit_identical(self):
        data = blob_dataset(n=200, seed=3)
        cfg = TrainConfig(hidden=32, epochs=20, seed=11)
        a = train(data, cfg)
        b = train(data, cfg)
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.b1, b.b1)
        assert np.array_equal(a.w2, b.w2)
        assert a.b2 == b.b2

    def test_gradients_match_central_finite_differences(self):
        rng = np.random.default_rng(7)
        model = MlpModel(
            w1=rng.normal(0, 0.4, (8, FEATURE_SIZE)),
            b1=rng.normal(0, 0.2, 8),
            w2=rng.normal(0, 0.4, 8),
            b2=0.1,
            feat_mean=np.zeros(FEATURE_SIZE),
            feat_std=np.ones(FEATURE_SIZE),
        )
        x = rng.normal(0, 1, (40, FEATURE_SIZE))
        y = rng.integers(0, 2, 40).astype(float)
        _, grads = oracles.kernel_loss_and_gradients(model, x, y)

        flat = [("w1", idx) for idx in np.ndindex(model.w1.shape)] \
            + [("b1", (i,)) for i in range(8)] \
            + [("w2", (i,)) for i in range(8)] + [("b2", ())]
        picks = rng.choice(len(flat), size=100, replace=False)
        h = 1e-5
        for p in picks:
            name, idx = flat[p]
            def loss_with(delta):
                m = MlpModel(model.w1.copy(), model.b1.copy(), model.w2.copy(),
                             model.b2, model.feat_mean, model.feat_std)
                if name == "b2":
                    m.b2 += delta
                else:
                    getattr(m, name)[idx] += delta
                return oracles.kernel_loss_and_gradients(m, x, y)[0]
            fd = (loss_with(h) - loss_with(-h)) / (2 * h)
            analytic = grads[name] if name == "b2" else grads[name][idx]
            denom = max(abs(fd), abs(analytic), 1e-6)
            assert abs(fd - analytic) / denom < 1e-4

    def test_single_class_rejected(self):
        data = [LabeledSample(tuple(np.zeros(FEATURE_SIZE)), 1, float(i), 1)
                for i in range(10)]
        with pytest.raises(DegenerateDataset):
            train(data)


class TestInfer:
    def zero_model(self, hidden=4):
        return MlpModel(np.zeros((hidden, FEATURE_SIZE)), np.zeros(hidden),
                        np.zeros(hidden), 0.0, np.zeros(FEATURE_SIZE),
                        np.ones(FEATURE_SIZE))

    def test_zero_weights_give_half(self):
        assert infer(self.zero_model(), [np.ones(FEATURE_SIZE)]) == [0.5]

    def test_output_in_open_interval(self):
        rng = np.random.default_rng(1)
        model = train(blob_dataset(200, seed=5), TrainConfig(hidden=32, epochs=10))
        for p in infer(model, rng.normal(0, 3, (50, FEATURE_SIZE))):
            assert 0.0 < p < 1.0

    def test_matches_hand_computed_forward_pass(self):
        # two active inputs, two hidden units, hand-evaluated
        model = self.zero_model(hidden=2)
        model.w1[0, 0], model.w1[0, 1] = 0.5, -0.25
        model.w1[1, 0], model.w1[1, 1] = -1.0, 0.75
        model.b1[:] = (0.1, -0.2)
        model.w2[:] = (0.3, 0.6)
        model.b2 = 0.05
        x = np.zeros(FEATURE_SIZE)
        x[0], x[1] = 1.0, 2.0
        h0 = max(0.5 * 1 - 0.25 * 2 + 0.1, 0.0)   # 0.1
        h1 = max(-1.0 * 1 + 0.75 * 2 - 0.2, 0.0)  # 0.3
        z = 0.3 * h0 + 0.6 * h1 + 0.05
        expected = 1.0 / (1.0 + np.exp(-z))
        assert infer(model, [x]) == [pytest.approx(expected, abs=1e-12)]


def bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


# NaN of either sign, the infinities, both zeros, subnormals and the exponent's
# edges around +-745, where e^-|z| underflows to 0
EDGE_FLOATS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                               5e-324, -5e-324, 1e-310, -1e-310, 745.0, -745.0,
                               709.8, -709.8, 36.8, -36.8])
ANY_FLOAT = EDGE_FLOATS | st.floats(allow_nan=True, allow_infinity=True)


def random_model(rng, hidden: int, scale: float) -> MlpModel:
    """Weights and biases drawn at the given scale, with a drawn feature scaling."""
    return MlpModel(rng.normal(0.0, scale, (hidden, FEATURE_SIZE)),
                    rng.normal(0.0, scale, hidden), rng.normal(0.0, scale, hidden),
                    float(rng.normal(0.0, scale)), rng.normal(0.0, 5.0, FEATURE_SIZE),
                    rng.uniform(0.1, 10.0, FEATURE_SIZE))


@st.composite
def training_cases(draw):
    """Labeled samples with both classes, some constant features, and a config
    whose batches may be partial or larger than the dataset and whose learning
    rate may drive the weights to inf or NaN."""
    n = draw(st.integers(2, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(0.0, draw(st.sampled_from([1e-3, 1.0, 40.0])), (n, FEATURE_SIZE))
    x[:, draw(st.lists(st.integers(0, FEATURE_SIZE - 1), max_size=3))] = 7.0
    y = rng.integers(0, 2, n)
    y[:2] = (0, 1)
    data = [LabeledSample(tuple(row), int(label), float(i), 1)
            for i, (row, label) in enumerate(zip(x, y))]
    rate = st.sampled_from([1e-3, 0.01, 0.5, 3.0, 1e3, 1e200]) | st.floats(1e-4, 10.0)
    cfg = TrainConfig(hidden=draw(st.integers(1, 64)), learning_rate=draw(rate),
                      epochs=draw(st.integers(1, 4)),
                      batch_size=draw(st.integers(1, n + 8)),
                      seed=draw(st.integers(0, 2**16)))
    return data, cfg


class TestKernelMatchesOracle:
    """Training and inference are bit-equal to the reference copy in oracles;
    the printed outputs round probabilities to 6 decimals and cannot show it."""

    @settings(max_examples=150, deadline=None)
    @given(training_cases())
    # 40 samples in batches of 7, the last one short, at a rate that ends in NaN
    @example((blob_dataset(40, seed=1),
              TrainConfig(hidden=8, learning_rate=1e200, epochs=2, batch_size=7)))
    def test_train_weights_bit_equal(self, case):
        """A fit the oracle ends with a non-finite weight is refused instead."""
        data, cfg = case
        with np.errstate(all="ignore"):
            want = oracles.train(data, cfg)
        if not all(np.isfinite(getattr(want, name)).all() for name in ("w1", "b1", "w2", "b2")):
            with pytest.raises(DegenerateDataset, match="^training diverged"):
                train(data, cfg)
            return
        got = train(data, cfg)
        for name in ("w1", "b1", "w2", "b2", "feat_mean", "feat_std"):
            assert bits(getattr(got, name)) == bits(getattr(want, name)), name

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 64), st.integers(0, 2**32 - 1), st.sampled_from([0.1, 1.0, 30.0]),
           st.lists(ANY_FLOAT, min_size=FEATURE_SIZE, max_size=FEATURE_SIZE))
    def test_infer_bit_equal(self, hidden, seed, scale, features):
        model = random_model(np.random.default_rng(seed), hidden, scale)
        with np.errstate(all="ignore"):
            assert bits(infer(model, [features])) == bits([oracles.infer(model, features)])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 70), st.integers(0, 2**32 - 1),
           st.sampled_from([0.1, 1.0, 30.0, 1e154, 1e160]),
           st.lists(st.tuples(st.integers(0, 69), st.integers(0, FEATURE_SIZE - 1), ANY_FLOAT),
                    max_size=6))
    # weights of 1e154 overflow 43 of these logits to inf of either sign and leave 3
    # finite; the NaN features give NaNs of both signs (1e160 gives NaN by inf - inf)
    @example(hidden=4, rows=48, seed=1, scale=1e154,
             edits=[(0, 0, math.nan), (1, 5, -math.nan)])
    def test_batched_infer_bit_equal_row_by_row(self, hidden, rows, seed, scale, edits):
        rng = np.random.default_rng(seed)
        model = random_model(rng, hidden, scale)
        x = rng.normal(0.0, 30.0, (rows, FEATURE_SIZE))
        for row, col, value in edits:
            x[row % rows, col] = value
        with np.errstate(all="ignore"):
            got = infer(model, x.tolist())  # as simulate_run passes them: one list per car
            assert isinstance(got, list) and all(type(prob) is float for prob in got)
            assert bits(got) == bits([p for row in x for p in infer(model, row[None])])
            assert bits(got) == bits([oracles.infer(model, row) for row in x])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(ANY_FLOAT, min_size=1, max_size=70))
    @example([math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf, 745.0, -745.0, 5e-324])
    def test_sigmoid_bit_equal(self, z):
        z = np.asarray(z, dtype=float)
        assert bits(_sigmoid(z)) == bits(oracles.sigmoid(z))


def trace(bits):
    return np.asarray(bits, dtype=int)


class TestFilters:
    def test_aggressive_printed_example(self):
        out = aggressive_filter(trace([0, 0, 0, 1, 0, 0, 0, 1]), tau_a=3)
        assert out.tolist() == [0, 0, 0, 1, 1, 1, 1, 1]

    def test_aggressive_all_zero_unchanged(self):
        out = aggressive_filter(trace([0] * 6), tau_a=4)
        assert out.tolist() == [0] * 6

    def test_aggressive_clips_at_end(self):
        out = aggressive_filter(trace([0, 0, 0, 0, 1]), tau_a=5)
        assert out.tolist() == [0, 0, 0, 0, 1]

    def test_aggressive_monotone_and_leaves_its_input(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            bits = rng.integers(0, 2, 30)
            tr = trace(bits)
            out = aggressive_filter(tr, tau_a=int(rng.integers(0, 6)))
            assert np.all(out >= tr)
            assert np.array_equal(tr, bits) and out.dtype == tr.dtype

    def test_conservative_printed_example(self):
        out = conservative_filter(trace([0, 0, 0, 1, 0, 0, 0, 1]), tau_c=3, thres=0.5)
        assert out.tolist() == [0] * 8

    def test_conservative_all_ones(self):
        out = conservative_filter(trace([1] * 8), tau_c=3, thres=0.5)
        assert out.tolist() == [0, 0, 0, 1, 1, 1, 1, 1]

    def test_conservative_window_of_one_is_identity(self):
        bits = [0, 1, 1, 0, 1, 0]
        out = conservative_filter(trace(bits), tau_c=0, thres=0.4)
        assert out.tolist() == bits

    def test_conservative_needs_positive_evidence(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            bits = rng.integers(0, 2, 40)
            tau_c = int(rng.integers(0, 6))
            out = conservative_filter(trace(bits), tau_c=tau_c, thres=0.0)
            for t, val in enumerate(out):
                if val == 1:
                    assert bits[max(0, t - tau_c):t + 1].sum() > 0

    def test_raw_positives_subset_of_aggressive(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, 60)
        out = aggressive_filter(trace(bits), tau_a=2)
        assert set(np.flatnonzero(bits)) <= set(np.flatnonzero(out))


class TestModelFile:
    def test_round_trip_bit_exact(self, tmp_path):
        model = train(blob_dataset(150, seed=2), TrainConfig(hidden=32, epochs=15))
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.w1, model.w1)
        assert np.array_equal(back.b1, model.b1)
        assert np.array_equal(back.w2, model.w2)
        assert back.b2 == model.b2
        assert np.array_equal(back.feat_mean, model.feat_mean)
        assert np.array_equal(back.feat_std, model.feat_std)
        x = np.full(FEATURE_SIZE, 0.7)
        assert infer(back, [x]) == infer(model, [x])

    def test_versioned_format(self, tmp_path):
        model = train(blob_dataset(100, seed=8), TrainConfig(hidden=32, epochs=5))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "lanesight-mlp-v1"
        assert doc["layer_sizes"] == [13, 32, 1]
        bad = dict(doc, format="other")
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        with pytest.raises(ValueError):
            load_model(tmp_path / "bad.json")
