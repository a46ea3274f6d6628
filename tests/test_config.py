import json
from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from lanesight.config import ConfigError, RunConfig, load_config, resolve_config, write_echo
from lanesight.fusion import FusionParams
from lanesight.params import Checked
from lanesight.pipeline import MAX_CORPUS_FRAMES, CameraMount, FuseCorpusConfig, \
    build_fuse_corpus
from lanesight.prediction import MAX_EPOCHS
from lanesight.sensing import MAX_FALSE_POSITIVE_RATE, DetectorNoiseModel
from lanesight.scene import MAX_TICKS, VehicleState


def write(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def _nested_classes(obj) -> list[type]:
    """The classes of every dataclass nested in obj's fields, at any depth."""
    found = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            found += [type(value), *_nested_classes(value)]
    return found


CHECKED_FIELDS = [(cls, f) for cls in _nested_classes(RunConfig())
                  for f in fields(cls) if "check" in f.metadata]


class TestResolve:
    def test_empty_document_uses_defaults(self):
        cfg = resolve_config({})
        assert cfg.seeds == [1]
        assert cfg.scenario.dt_sim == 0.01
        assert cfg.scenario.neighbor_count == 6
        assert cfg.channel.publish_period == 0.1
        assert cfg.filters.tau_a == 3

    def test_override_and_typed_accessors(self):
        cfg = resolve_config({"seeds": [7, 8],
                              "scenario": {"duration": 5.0, "neighbor_count": 2,
                                           "potential_changer_count": 1},
                              "driver": {"policy": "guided"},
                              "sensing": {"false_positive_rate": 1.5}})
        sc = replace(cfg.scenario, seed=7)
        assert sc.seed == 7 and sc.duration == 5.0
        assert sc.driver.policy == "guided"
        assert cfg.camera.intrinsics.width == 960
        assert cfg.sensing.false_positive_rate == 1.5  # a Poisson mean, not a fraction

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key: bogus"):
            resolve_config({"bogus": 1})

    def test_unknown_nested_key_reports_path(self):
        with pytest.raises(ConfigError, match="unknown key: scenario.warp"):
            resolve_config({"scenario": {"warp": 9}})

    def test_type_errors_report_path(self):
        with pytest.raises(ConfigError, match="scenario.dt_sim"):
            resolve_config({"scenario": {"dt_sim": "fast"}})
        with pytest.raises(ConfigError, match="camera.width"):
            resolve_config({"camera": {"width": 2.5}})

    @pytest.mark.parametrize("doc,match", [
        ({"scenario": {"dt_sim": -0.01}}, "scenario.dt_sim: value -0.01 out of range"),
        ({"driver": {"policy": "manual"}}, "driver.policy: value 'manual' out of range"),
        ({"scenario": {"neighbor_count": 1, "potential_changer_count": 2}}, "changer_count"),
        # the matcher and the filters read these values unchecked
        ({"fusion": {"shrink": 0.0}}, "fusion.shrink: value 0.0 out of range"),
        ({"fusion": {"shrink": 1.5}}, "fusion.shrink: value 1.5 out of range"),
        ({"fusion": {"samples": 0}}, "fusion.samples: value 0 out of range"),
        ({"filters": {"tau_a": -1}}, "filters.tau_a: value -1 out of range"),
        ({"filters": {"tau_c": -1}}, "filters.tau_c: value -1 out of range"),
        ({"filters": {"thres": 1.5}}, "filters.thres: value 1.5 out of range"),
    ])
    def test_range_errors(self, doc, match):
        with pytest.raises(ConfigError, match=match):
            resolve_config(doc)

    def test_a_run_takes_at_most_max_ticks(self):
        # MAX_TICKS at the default 10 ms is 100,000 s; a subnormal dt_sim makes
        # duration / dt_sim overflow to inf
        assert resolve_config({"scenario": {"duration": 100000.0}}).scenario.duration == 1e5
        assert MAX_TICKS == round(100000.0 / 0.01)
        for scenario in ({"duration": 100000.01}, {"dt_sim": 1e-300}, {"duration": 1e12},
                         {"dt_sim": 2.2250738585e-313}, {"dt_sim": 1e-9}):
            with pytest.raises(ConfigError, match="scenario.duration: .* above the 10000000"):
                resolve_config({"scenario": scenario})

    def test_corpus_frames_and_training_epochs_are_bounded(self):
        # each used to be accepted at any size, and its command then computed
        # practically forever before its first write
        assert resolve_config({"fuse_eval": {"frames": MAX_CORPUS_FRAMES}}).fuse_eval.frames \
            == MAX_CORPUS_FRAMES
        assert resolve_config({"training": {"epochs": MAX_EPOCHS}}).training.epochs == MAX_EPOCHS
        for section, key, bound in (("fuse_eval", "frames", MAX_CORPUS_FRAMES),
                                    ("training", "epochs", MAX_EPOCHS)):
            for value in (bound + 1, 10**12):
                with pytest.raises(ConfigError, match=f"{section}.{key}: value {value} out"):
                    resolve_config({section: {key: value}})

    def test_false_positive_rate_is_bounded(self):
        # 1e19 used to be accepted, and numpy's Poisson draw then failed with exit 3
        assert resolve_config({"sensing": {"false_positive_rate": MAX_FALSE_POSITIVE_RATE}}) \
            .sensing.false_positive_rate == MAX_FALSE_POSITIVE_RATE
        for value in (MAX_FALSE_POSITIVE_RATE + 1, 1e19, float("inf"), float("nan"), -1.0):
            with pytest.raises(ConfigError, match="^sensing.false_positive_rate: "):
                resolve_config({"sensing": {"false_positive_rate": value}})

    def test_road_holds_the_blockage_and_every_spawn(self):
        # the far end of the truck at accident_s, and the front of a car at spawn_max_s
        for scenario in ({"road_length": 100}, {"spawn_max_s": 400},
                         {"road_length": 264.9}):
            with pytest.raises(ConfigError, match="scenario.road_length"):
                resolve_config({"scenario": scenario})
        assert resolve_config({"scenario": {"road_length": 265}}).scenario.lanes.road_length == 265
        dense = {"neighbor_count": 48, "potential_changer_count": 12,
                 "spawn_max_s": 540, "accident_s": 600, "road_length": 650}
        assert resolve_config({"scenario": dense}).scenario.lanes.road_length == 650

    def test_spawn_range_holds_every_neighbor(self):
        # the default range holds 5 cars a lane: 60 m at 14.5 m per car, plus one
        for scenario, key in (({"neighbor_count": 11}, "neighbor_count"),
                              ({"neighbor_count": 200}, "neighbor_count"),
                              ({"neighbor_count": 6, "potential_changer_count": 6},
                               "potential_changer_count"),
                              ({"neighbor_count": 8, "lane_count": 2}, "neighbor_count")):
            with pytest.raises(ConfigError, match=f"scenario.{key}"):
                resolve_config({"scenario": scenario})
        at_bound = {"neighbor_count": 10, "potential_changer_count": 5}
        assert resolve_config({"scenario": at_bound}).scenario.neighbor_count == 10
        # the default, the dense benchmark scenario and the test_scene tied
        # scenarios, whose range fits every neighbor in one lane, all resolve
        dense = {"neighbor_count": 48, "potential_changer_count": 12,
                 "spawn_max_s": 540, "accident_s": 600, "road_length": 650}
        tied = [{"neighbor_count": n, "potential_changer_count": min(n, 12),
                 "min_spawn_gap": gap, "lane_count": 2,
                 "spawn_max_s": 60.0 + 2 * n * (4.5 + gap),
                 "accident_s": 60.0 + 2 * n * (4.5 + gap),
                 "road_length": 70.0 + 2 * n * (4.5 + gap)}
                for n in (0, 1, 60) for gap in (0.0, 2.0, 10.0)]
        for scenario in [{}, dense] + tied:
            assert resolve_config({"scenario": scenario}).scenario.neighbor_count \
                == scenario.get("neighbor_count", 6)

    def test_corpus_target_can_lie_beyond_the_near_plane(self):
        # the corpus camera sits at world x = 0, so the target's rear corners
        # are at depth target_s - 2.25, which must exceed the near plane
        for doc in ({"fuse_eval": {"target_range": [-5, -1]}},
                    {"fuse_eval": {"target_range": [1, 2.74]}},
                    {"fuse_eval": {"target_range": [1, 3.5]},
                     "camera": {"near_plane": 1.25}}):
            with pytest.raises(ConfigError, match="fuse_eval.target_range"):
                resolve_config(doc)
        cfg = resolve_config({"fuse_eval": {"target_range": [1, 3.5], "frames": 8}})
        assert cfg.fuse_eval.target_range == (1, 3.5)

    def test_corpus_target_must_reach_the_image(self):
        # the corpus camera sits at x = 0, so a target's front corners are at
        # depth at most max(target_range) + 2.25; from a camera 200 m up or
        # 100 m to the side even the nearest-imaged corner lies off the frame
        for doc, key in (({"camera": {"mount_up": 200}}, "camera.mount_up"),
                         ({"camera": {"mount_up": 30}}, "camera.mount_up"),
                         ({"camera": {"mount_left": 100}}, "camera.mount_left"),
                         ({"camera": {"mount_left": -100}}, "camera.mount_left")):
            with pytest.raises(ConfigError, match=key):
                resolve_config(doc)
        for doc in ({"camera": {"mount_up": 9}}, {"camera": {"mount_left": -15}}):
            resolve_config(doc)

    def test_seed_list_validation(self):
        with pytest.raises(ConfigError, match="seeds"):
            resolve_config({"seeds": []})
        with pytest.raises(ConfigError, match="seeds"):
            resolve_config({"seeds": ["one"]})


def test_the_walk_reaches_every_nested_section():
    walked = {cls.__name__ for cls, _ in CHECKED_FIELDS}
    assert {"LaneSpec", "IdmParams", "DriverParams", "CameraIntrinsics",
            "FuseCorpusConfig"} <= walked


@pytest.mark.parametrize("cls, f", CHECKED_FIELDS,
                         ids=[f"{cls.__name__}.{f.name}" for cls, f in CHECKED_FIELDS])
def test_direct_construction_enforces_every_field_rule(cls, f):
    # the rule holds without resolve_config: the class derives from Checked,
    # whose __post_init__ checks each field's rule
    assert issubclass(cls, Checked)
    bad = [value for value in (-1, 0, 1.5, 2**64) if not f.metadata["check"](value)]
    assert bad, f"no candidate breaks {cls.__name__}.{f.name}'s rule"
    with pytest.raises(ValueError) as raised:
        cls(**{f.name: bad[0]})
    assert str(raised.value).startswith(f"{f.name}: value")


class TestLoad:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_syntax_error_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"seeds": [1,]}')
        with pytest.raises(ConfigError, match="line 1"):
            load_config(path)

    def test_echo_round_trip(self, tmp_path):
        original = load_config(write(tmp_path, {"seeds": [3],
                                                "scenario": {"duration": 4.0}}))
        echo_path = tmp_path / "echo.json"
        write_echo(original, echo_path)
        reloaded = load_config(echo_path)
        assert reloaded.effective_dict() == original.effective_dict()


DEFAULTS = resolve_config({}).effective_dict()
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8)
numbers = st.integers(-3, 600) | st.floats(-10.0, 1000.0) | st.sampled_from(
    [0, 0.0, 0.01, 0.03, 0.1, 0.7, 1.0, 5e-324, 1e300, 10**400,
     float("inf"), float("nan")])


def near(default):
    """Values of the default's JSON type, weighted toward ones a run might use."""
    if isinstance(default, bool):
        plausible = st.booleans()
    elif isinstance(default, str):
        plausible = st.sampled_from(["guided", "baseline", "manual"])
    elif isinstance(default, list):
        plausible = st.lists(numbers, max_size=12) | st.just(default)
    else:
        plausible = numbers | st.just(default) | st.just(default * 2)
    return st.one_of(st.just(default), plausible, plausible, json_values)


KEYS = [(section, key, default) for section, keys in DEFAULTS.items()
        if isinstance(keys, dict) for key, default in keys.items()]


@st.composite
def overrides(draw):
    """A few keys set to values near their defaults, sometimes seeds or model_path."""
    doc = {}
    for section, key, default in draw(st.lists(st.sampled_from(KEYS), max_size=4)):
        doc.setdefault(section, {})[key] = draw(near(default))
    if draw(st.booleans()):
        doc["seeds"] = draw(st.lists(st.integers(-2, 5), max_size=3) | json_values)
    if draw(st.booleans()):
        doc["model_path"] = draw(st.none() | st.text(max_size=4) | json_values)
    return doc


documents = st.one_of(json_values, overrides(), overrides())


def build_command_objects(cfg):
    """Every domain object the five commands construct, without running them."""
    lanes = cfg.scenario.lanes
    ego = VehicleState(id=0, kind="ego", s=0.0, y=lanes.center(lanes.lane_count - 1),
                       v=cfg.scenario.ego_v0, a=0.0, lane=lanes.lane_count - 1,
                       length=4.5, width=1.8, height=1.5, v_desired=cfg.scenario.ego_v0)
    cfg.camera.camera_for(ego)
    for seed in cfg.seeds:
        for policy in ("guided", "baseline"):
            replace(cfg.scenario, seed=seed).with_policy(policy)
        replace(cfg.sensing, seed=seed).for_frame(0)
        replace(cfg.fusion, seed=seed)
    # a plan triggered at the last tick ends after it starts
    scenario = cfg.scenario
    last_tick = max(round(scenario.duration / scenario.dt_sim) - 1, 0) * scenario.dt_sim
    assert last_tick + scenario.lane_change_duration > last_tick


@settings(max_examples=300, deadline=None)
@given(documents)
@example({"scenario": {"dt_sim": 2.2250738585e-313}})  # period / dt_sim overflows to inf
@example({"scenario": {"lane_change_duration": 5e-324}})  # t + 5e-324 == t
def test_any_json_resolves_or_raises_config_error(doc):
    try:
        cfg = resolve_config(doc)
    except ConfigError:
        return
    build_command_objects(cfg)
    echoed = json.loads(json.dumps(cfg.effective_dict()))
    assert resolve_config(echoed) == cfg


@settings(max_examples=60, deadline=None)
@given(st.floats(0.5, 14.0), st.floats(-24.0, 24.0), st.floats(4.0, 40.0),
       st.floats(0.0, 2.0))
def test_a_rejected_corpus_camera_never_images_the_target(up, left, far, stagger):
    # drawn around the rules' edges (about 9 m up, 15 m aside by default),
    # with every target within 1 m of the far end: whatever the rules
    # reject, no corpus frame shows the target
    try:
        resolve_config({"camera": {"mount_up": up, "mount_left": left},
                        "fuse_eval": {"target_range": [far - 1.0, far],
                                      "stagger_range": [0.0, stagger]}})
        return
    except ConfigError as exc:
        assert "camera.mount_" in str(exc)
    corpus = FuseCorpusConfig(frames=40, target_range=(far - 1.0, far),
                              stagger_range=(0.0, stagger))
    _, frames, _ = build_fuse_corpus(corpus, CameraMount(mount_up=up, mount_left=left),
                                     DetectorNoiseModel(seed=3), FusionParams(seed=3), seed=3)
    assert frames == 0
