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


def state(vid=1, s=0.0, v=17.0, y=5.25):
    return VehicleState(id=vid, kind="car", s=s, y=y, v=v, a=0.0, lane=1,
                        length=4.5, width=1.8, height=1.5, v_desired=v)


# grid points of the periods the pipeline publishes at, as k * dt_sim, and
# free times; exact repeats of a time are common
query_times = (st.builds(lambda k, period: k * period, st.integers(0, 40),
                         st.sampled_from([0.01, 0.1, 0.2, 0.3]))
               | st.sampled_from([0.0, -0.0, 0.1]) | st.floats(-1.0, 10.0))


@st.composite
def publish_histories(draw):
    """(state, t) publishes of vehicles 0..2 in time order, as the runner makes them."""
    times = sorted(draw(st.lists(query_times, max_size=30)))
    positions = st.sampled_from([0.0, -0.0]) | st.floats(-50.0, 400.0)
    return [(state(vid=draw(st.integers(0, 2)), s=draw(positions), y=draw(positions),
                   v=draw(st.floats(0.0, 40.0))), t) for t in times]


@st.composite
def advisory_histories(draw):
    """(vehicle id, probability, t) advisories of vehicles 0..2 in time order."""
    times = sorted(draw(st.lists(query_times, max_size=30)))
    probabilities = st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    return [(draw(st.integers(0, 2)), draw(probabilities), t) for t in times]


def row_bits(row: tuple) -> tuple:
    """The row (t, x, y, z, v) with each float as its exact bits, so -0.0 differs from 0.0."""
    return tuple(float(x).hex() for x in row)


class TestPublish:
    def test_first_publish(self):
        store = TwinStore()
        publish(store, state(), 0.0)
        times = store.records[1][0]
        assert len(times) == 1
        assert times[0] == 0.0

    def test_records_in_time_order(self):
        store = TwinStore()
        for t in (0.0, 0.1, 0.2):
            publish(store, state(s=17.0 * t), t)
        times = list(store.records[1][0])
        assert times == [0.0, 0.1, 0.2]

    def test_record_count_over_run(self):
        # 30 s at 0.1 s period: publishes at t = 0.0, 0.1, ..., 30.0
        store = TwinStore()
        period = 0.1
        n = int(round(30.0 / period))
        for k in range(n + 1):
            publish(store, state(), k * period)
        assert [len(col) for col in store.records[1]] == [301] * 5

    def test_position_is_body_centroid(self):
        store = TwinStore()
        publish(store, state(s=12.0), 0.0)
        _, x, y, z, _ = query_target(store, 1, 0.0, ChannelConfig())
        assert (x, y, z) == (12.0, 5.25, 0.75)

    def test_a_row_is_five_typed_doubles(self):
        store = TwinStore()
        publish(store, state(s=12.0, v=16.5), 0.3)
        assert [(col.typecode, col.tolist()) for col in store.records[1]] == [
            ("d", [0.3]), ("d", [12.0]), ("d", [5.25]), ("d", [0.75]), ("d", [16.5])]


class TestQueryTarget:
    def build(self, period=0.1, end=2.0):
        store = TwinStore()
        k = 0
        while k * period <= end + 1e-9:
            publish(store, state(s=17.0 * k * period), k * period)
            k += 1
        return store

    def test_zero_latency_at_publish_instant(self):
        store = self.build()
        row = query_target(store, 1, 1.0, ChannelConfig(latency=0.0))
        assert row[0] == pytest.approx(1.0)

    def test_latency_returns_stale_record(self):
        # latency 0.25 at t=1.0 leaves records up to 0.75 visible; the grid
        # point is 0.7
        store = self.build()
        row = query_target(store, 1, 1.0, ChannelConfig(latency=0.25))
        assert row[0] == pytest.approx(0.7)

    def test_before_first_publish(self):
        store = self.build()
        assert query_target(store, 1, 0.5, ChannelConfig(latency=1.0)) is None
        assert query_target(store, 99, 1.0, ChannelConfig()) is None

    @settings(max_examples=300, deadline=None)
    @given(publish_histories(), st.lists(query_times, max_size=12),
           st.sampled_from([0.0, 0.1, 0.25]) | st.floats(0.0, 5.0))
    def test_equals_the_record_list_oracle(self, history, times, latency):
        store, records = TwinStore(), {}
        for veh, t in history:
            publish(store, veh, t)
            oracles.publish(records, veh, t)
        cfg = ChannelConfig(latency=latency)
        published = [t for _, t in history]
        for t in times + [p + latency for p in published]:  # the latency bound's edges
            for vid in range(4):  # vehicle 3 never publishes
                want = oracles.query_target(records, vid, t, cfg)
                if want is None:
                    assert query_target(store, vid, t, cfg) is None
                    continue
                assert row_bits(query_target(store, vid, t, cfg)) == row_bits(want)

    def test_monotone_staleness(self):
        store = self.build()
        previous = None
        for latency in (0.0, 0.05, 0.1, 0.3, 0.7, 1.0):
            row = query_target(store, 1, 1.0, ChannelConfig(latency=latency))
            if previous is not None:
                assert row[0] <= previous
            previous = row[0]


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
            publish(store, state(s=17.0 * k * period), k * period)
        t = 3.0
        row = query_target(store, 1, t, ChannelConfig(latency=latency))
        true_s = 17.0 * t
        ego_cam = WorldPoint(0.0, 5.25, 0.75)
        d_g = gnss_distance(ego_cam, WorldPoint(*row[1:4]))
        true_d = true_s - 0.0
        assert abs(d_g - true_d) <= 17.0 * latency + 1e-6


class TestAdvisories:
    def build(self):
        store = TwinStore()
        for k, prob in enumerate((0.2, 0.9, 0.4)):  # issued at 1.0, 2.0, 3.0
            publish_advisory(store, 1, prob, float(k + 1))
        return store

    def test_a_row_is_two_typed_doubles(self):
        assert [(col.typecode, col.tolist()) for col in self.build().advisories[1]] == [
            ("d", [1.0, 2.0, 3.0]), ("d", [0.2, 0.9, 0.4])]

    def test_none_before_the_first_advisory(self):
        store = self.build()
        assert query_advisory(store, 1, 0.9, ChannelConfig()) is None
        assert query_advisory(store, 1, 1.4, ChannelConfig(latency=0.5)) is None
        assert query_advisory(store, 2, 5.0, ChannelConfig()) is None

    def test_newest_advisory_within_the_latency_bound(self):
        store = self.build()
        for t, latency, issued in ((1.0, 0.0, 1.0), (2.5, 0.0, 2.0), (3.0, 0.0, 3.0),
                                   (3.0, 0.5, 2.0), (3.5, 0.5, 3.0), (9.0, 0.0, 3.0)):
            prob = query_advisory(store, 1, t, ChannelConfig(latency=latency))
            assert prob == (0.2, 0.9, 0.4)[int(issued) - 1]  # the row issued then
            assert prob == store.advisories[1][1][int(issued) - 1]

    @settings(max_examples=300, deadline=None)
    @given(advisory_histories(), st.lists(query_times, max_size=12),
           st.sampled_from([0.0, 0.1, 0.25]) | st.floats(0.0, 5.0))
    def test_equals_the_linear_scan_oracle(self, history, times, latency):
        store, advisories = TwinStore(), {}
        for vid, prob, t in history:
            publish_advisory(store, vid, prob, t)
            advisories.setdefault(vid, []).append((t, prob))
        cfg = ChannelConfig(latency=latency)
        for t in times + [issued + latency for _, _, issued in history]:  # the bound's edges
            for vid in range(4):  # vehicle 3 is never advised
                want = oracles.query_advisory(advisories, vid, t, cfg)
                got = query_advisory(store, vid, t, cfg)
                assert (got is None) == (want is None)
                if want is not None:
                    assert float(got).hex() == float(want).hex()  # -0.0 too

    @pytest.mark.parametrize("prob", [-0.01, 1.01, float("nan")])
    def test_probability_outside_the_unit_interval_rejected(self, prob):
        store = self.build()
        before = {vid: [col.tobytes() for col in cols] for vid, cols in store.advisories.items()}
        for vid in (1, 2):  # an advised car, and one with no advisory yet
            with pytest.raises(ProbabilityOutOfRange,
                               match=re.escape(f"probability {prob} out of range")):
                publish_advisory(store, vid, prob, 4.0)
        assert {vid: [col.tobytes() for col in cols]
                for vid, cols in store.advisories.items()} == before

    def test_channel_csv_shows_the_newest_advisory_at_each_publish(self, tmp_path):
        store = self.build()
        for k in range(8):  # publishes at 0.0, 0.5, ..., 3.5
            publish(store, state(), 0.5 * k)
        write_channel_csv(store, tmp_path / "channel.csv")
        with open(tmp_path / "channel.csv", newline="") as fh:
            probs = [(row["t"], row["probability"]) for row in csv.DictReader(fh)]
        assert probs == [("0.00", ""), ("0.50", ""), ("1.00", "0.200000"),
                         ("1.50", "0.200000"), ("2.00", "0.900000"), ("2.50", "0.900000"),
                         ("3.00", "0.400000"), ("3.50", "0.400000")]
