import csv
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lanesight.cli import write_channel_csv
from lanesight.geometry import WorldPoint
from lanesight.scene import VehicleState
from lanesight.twinlink import (
    ChannelConfig,
    ProbabilityOutOfRange,
    TwinStore,
    gnss_distance,
    publish,
    publish_advisory,
    query_advisory,
    query_target,
)


def state(vid=1, s=0.0, v=17.0, y=5.25, height=1.5):
    return VehicleState(id=vid, kind="car", s=s, y=y, v=v, a=0.0, lane=1,
                        length=4.5, width=1.8, height=height, v_desired=v)


# grid points of the periods the pipeline publishes at, as k * dt_sim, and
# free times; exact repeats of a time are common
query_times = (st.builds(lambda k, period: k * period, st.integers(0, 40),
                         st.sampled_from([0.01, 0.1, 0.2, 0.3]))
               | st.sampled_from([0.0, -0.0, 0.1]) | st.floats(-1.0, 10.0))


def tick_times(draw) -> list[float]:
    """Strictly increasing times, as the runner's ticks are."""
    return sorted(set(draw(st.lists(query_times, max_size=30))))


@st.composite
def roster_histories(draw):
    """(roster, t) publishes in time order, as the runner makes them: at every
    tick the same vehicles, in a roster order that need not be id order, each
    with its own height, at positions and speeds drawn anew."""
    ids = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True))
    heights = {vid: draw(st.sampled_from([1.5, 3.2]) | st.floats(0.5, 4.0)) for vid in ids}
    positions = st.sampled_from([0.0, -0.0]) | st.floats(-50.0, 400.0)
    return [([state(vid=vid, s=draw(positions), y=draw(positions),
                    v=draw(st.floats(0.0, 40.0)), height=heights[vid]) for vid in ids], t)
            for t in tick_times(draw)]


@st.composite
def advisory_rounds(draw, cars=st.lists(st.integers(0, 5), max_size=3, unique=True)):
    """({car id: probability}, t) rounds in time order, each advising the same cars."""
    cars = draw(cars)
    probabilities = st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    return [({vid: draw(probabilities) for vid in cars}, t) for t in tick_times(draw)]


def oracle_records(history) -> dict:
    """The history as oracles.publish keeps it, one record list per vehicle."""
    records = {}
    for roster, t in history:
        for veh in roster:
            oracles.publish(records, veh, t)
    return records


def oracle_advisories(rounds) -> dict:
    """The rounds as oracles.query_advisory reads them, one (t, p) list per car."""
    advisories = {}
    for probabilities, t in rounds:
        for vid, probability in probabilities.items():
            advisories.setdefault(vid, []).append((t, probability))
    return advisories


def row_bits(row: tuple) -> tuple:
    """The row with each number as its exact bits, so -0.0 differs from 0.0."""
    return tuple(float(x).hex() for x in row)


class TestPublish:
    def test_first_publish(self):
        store = TwinStore()
        publish(store, [state()], 0.0)
        assert store.times.tolist() == [0.0]

    def test_records_in_time_order(self):
        store = TwinStore()
        for t in (0.0, 0.1, 0.2):
            publish(store, [state(s=17.0 * t)], t)
        assert store.times.tolist() == [0.0, 0.1, 0.2]

    def test_record_count_over_run(self):
        # 30 s at 0.1 s period: publishes at t = 0.0, 0.1, ..., 30.0
        store = TwinStore()
        period = 0.1
        n = int(round(30.0 / period))
        for k in range(n + 1):
            publish(store, [state(vid=2), state(vid=1)], k * period)
        assert len(store.times) == 301
        assert {vid: [len(col) for col in cols] for vid, cols in store.records.items()} == {
            1: [301] * 3, 2: [301] * 3}

    def test_position_is_body_centroid(self):
        store = TwinStore()
        publish(store, [state(s=12.0)], 0.0)
        ((_, x, y, z, _),) = query_target(store, 0.0, ChannelConfig())
        assert (x, y, z) == (12.0, 5.25, 0.75)

    def test_a_tick_is_one_time_and_three_typed_doubles_per_vehicle(self):
        store = TwinStore()
        publish(store, [state(vid=4, s=30.0, height=3.2), state(s=12.0, v=16.5)], 0.3)
        assert (store.times.typecode, store.times.tolist()) == ("d", [0.3])
        assert list(store.records) == [1, 4]  # id order, whatever the roster's
        assert [(col.typecode, col.tolist()) for col in store.records[1]] == [
            ("d", [12.0]), ("d", [5.25]), ("d", [16.5])]
        assert store.meta == {1: ("car", 4.5, 0.75), 4: ("car", 4.5, 1.6)}


class TestQueryTarget:
    def build(self, period=0.1, end=2.0):
        store = TwinStore()
        k = 0
        while k * period <= end + 1e-9:
            publish(store, [state(s=17.0 * k * period)], k * period)
            k += 1
        return store

    def test_zero_latency_at_publish_instant(self):
        store = self.build()
        ((_, x, _, _, _),) = query_target(store, 1.0, ChannelConfig(latency=0.0))
        assert x == pytest.approx(17.0 * 1.0)  # published at 1.0

    def test_latency_returns_stale_record(self):
        # latency 0.25 at t=1.0 leaves records up to 0.75 visible; the grid
        # point is 0.7
        store = self.build()
        ((_, x, _, _, _),) = query_target(store, 1.0, ChannelConfig(latency=0.25))
        assert x == pytest.approx(17.0 * 0.7)

    def test_before_first_publish(self):
        store = self.build()
        assert query_target(store, 0.5, ChannelConfig(latency=1.0)) == []
        assert query_target(TwinStore(), 1.0, ChannelConfig()) == []

    @settings(max_examples=300, deadline=None)
    @given(roster_histories(), st.lists(query_times, max_size=12),
           st.sampled_from([0.0, 0.1, 0.25]) | st.floats(0.0, 5.0))
    def test_equals_the_record_list_oracle(self, history, times, latency):
        store = TwinStore()
        for roster, t in history:
            publish(store, roster, t)
        records = oracle_records(history)
        cfg = ChannelConfig(latency=latency)
        for t in times + [p + latency for _, p in history]:  # the latency bound's edges
            want = [(vid, *row[1:]) for vid in sorted(records)
                    if (row := oracles.query_target(records, vid, t, cfg)) is not None]
            assert list(map(row_bits, query_target(store, t, cfg))) == list(map(row_bits, want))

    def test_monotone_staleness(self):
        store = self.build()
        previous = None
        for latency in (0.0, 0.05, 0.1, 0.3, 0.7, 1.0):
            ((_, x, _, _, _),) = query_target(store, 1.0, ChannelConfig(latency=latency))
            if previous is not None:
                assert x <= previous
            previous = x


class TestGnssDistance:
    def test_coincident(self):
        reported = WorldPoint(3.0, 4.0, 0.0)
        assert gnss_distance(WorldPoint(3.0, 4.0, 0.0), reported) == 0.0

    def test_pythagorean(self):
        reported = WorldPoint(3.0, 4.0, 0.0)
        assert gnss_distance(WorldPoint(0.0, 0.0, 0.0), reported) == pytest.approx(5.0)

    def test_symmetric_nonnegative(self):
        a = WorldPoint(1.0, -2.0, 0.5)
        b = WorldPoint(-4.0, 9.0, 1.0)
        d1 = gnss_distance(a, b)
        d2 = gnss_distance(b, a)
        assert d1 == d2 >= 0

    def test_staleness_error_bounded_by_kinematics(self):
        # target at constant 17 m/s, query with 0.5 s latency: reported
        # position trails truth by at most v * latency
        store = TwinStore()
        period, latency = 0.1, 0.5
        for k in range(0, 31):
            publish(store, [state(s=17.0 * k * period)], k * period)
        t = 3.0
        ((_, *reported, _),) = query_target(store, t, ChannelConfig(latency=latency))
        true_s = 17.0 * t
        ego_cam = WorldPoint(0.0, 5.25, 0.75)
        d_g = gnss_distance(ego_cam, WorldPoint(*reported))
        true_d = true_s - 0.0
        assert abs(d_g - true_d) <= 17.0 * latency + 1e-6


class TestAdvisories:
    def build(self):
        store = TwinStore()
        for k, prob in enumerate((0.2, 0.9, 0.4)):  # issued at 1.0, 2.0, 3.0
            publish_advisory(store, {1: prob, 3: 1.0 - prob}, float(k + 1))
        return store

    def test_rounds_are_one_time_column_and_a_probability_column_per_car(self):
        store = self.build()
        assert (store.issued.typecode, store.issued.tolist()) == ("d", [1.0, 2.0, 3.0])
        assert {vid: (col.typecode, col.tolist()) for vid, col in store.advisories.items()} == {
            1: ("d", [0.2, 0.9, 0.4]), 3: ("d", [1.0 - 0.2, 1.0 - 0.9, 1.0 - 0.4])}

    def test_none_before_the_first_advisory(self):
        store = self.build()
        assert query_advisory(store, 0.9, ChannelConfig()) == {}
        assert query_advisory(store, 1.4, ChannelConfig(latency=0.5)) == {}
        assert query_advisory(TwinStore(), 5.0, ChannelConfig()) == {}

    def test_newest_advisory_within_the_latency_bound(self):
        store = self.build()
        for t, latency, issued in ((1.0, 0.0, 1.0), (2.5, 0.0, 2.0), (3.0, 0.0, 3.0),
                                   (3.0, 0.5, 2.0), (3.5, 0.5, 3.0), (9.0, 0.0, 3.0)):
            prob = (0.2, 0.9, 0.4)[int(issued) - 1]  # the round issued then
            assert query_advisory(store, t, ChannelConfig(latency=latency)) == {
                1: prob, 3: 1.0 - prob}

    @settings(max_examples=300, deadline=None)
    @given(advisory_rounds(), st.lists(query_times, max_size=12),
           st.sampled_from([0.0, 0.1, 0.25]) | st.floats(0.0, 5.0))
    def test_equals_the_linear_scan_oracle(self, rounds, times, latency):
        store = TwinStore()
        for probabilities, t in rounds:
            publish_advisory(store, probabilities, t)
        advisories = oracle_advisories(rounds)
        cfg = ChannelConfig(latency=latency)
        for t in times + [issued + latency for _, issued in rounds]:  # the bound's edges
            want = {vid: p.hex() for vid in advisories
                    if (p := oracles.query_advisory(advisories, vid, t, cfg)) is not None}
            got = query_advisory(store, t, cfg)
            assert {vid: p.hex() for vid, p in got.items()} == want  # -0.0 too

    @pytest.mark.parametrize("prob", [-0.01, 1.01, float("nan")])
    def test_probability_outside_the_unit_interval_rejected(self, prob):
        store = self.build()
        before = store.issued.tobytes(), {vid: col.tobytes()
                                          for vid, col in store.advisories.items()}
        for round_ in ({1: 0.5, 3: prob}, {1: prob, 3: 0.5}, {1: 0.5, 3: 0.5, 4: prob}):
            with pytest.raises(ProbabilityOutOfRange,
                               match=re.escape(f"probability {prob} out of range")):
                publish_advisory(store, round_, 4.0)
        assert (store.issued.tobytes(),
                {vid: col.tobytes() for vid, col in store.advisories.items()}) == before

    def test_channel_csv_shows_the_newest_advisory_at_each_publish(self, tmp_path):
        store = self.build()
        for k in range(8):  # publishes at 0.0, 0.5, ..., 3.5
            publish(store, [state()], 0.5 * k)
        write_channel_csv(store, tmp_path / "channel.csv")
        with open(tmp_path / "channel.csv", newline="") as fh:
            probs = [(row["t"], row["probability"]) for row in csv.DictReader(fh)]
        assert probs == [("0.00", ""), ("0.50", ""), ("1.00", "0.200000"),
                         ("1.50", "0.200000"), ("2.00", "0.900000"), ("2.50", "0.900000"),
                         ("3.00", "0.400000"), ("3.50", "0.400000")]

    @settings(max_examples=100, deadline=None)
    @given(st.data(), roster_histories())
    def test_channel_csv_is_the_oracle_records_in_t_id_order(self, tmp_path_factory, data,
                                                             history):
        # each row: a vehicle's record, with the newest advisory issued by its t
        cars = st.lists(st.sampled_from(sorted(oracle_records(history) or [0])), unique=True)
        rounds = data.draw(advisory_rounds(cars=cars))
        store = TwinStore()
        for roster, t in history:
            publish(store, roster, t)
        for probabilities, t in rounds:
            publish_advisory(store, probabilities, t)
        advisories = oracle_advisories(rounds)
        want = [["t", "id", "x", "y", "z", "v", "probability"]]
        for t, vid, x, y, z, v in sorted(
                ((t, vid, x, y, z, v) for vid, records in oracle_records(history).items()
                 for t, x, y, z, v in records), key=lambda row: row[:2]):
            p = oracles.query_advisory(advisories, vid, t, ChannelConfig())
            want.append([f"{t:.2f}", str(vid), f"{x:.6f}", f"{y:.6f}", f"{z:.6f}", f"{v:.6f}",
                         "" if p is None else f"{p:.6f}"])
        path = tmp_path_factory.mktemp("channel") / "twin_channel.csv"
        write_channel_csv(store, path)
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == want
