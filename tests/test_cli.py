import csv
import json
import os
import subprocess
import sys
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lanesight import cli, pipeline, sensing
from lanesight.cli import main
from lanesight.config import load_config
from lanesight.pipeline import simulate_run
from lanesight.prediction import FEATURE_SIZE, MlpModel, load_model, save_model

SMALL_CAMERA = {"width": 192, "height": 108, "u0": 96.0, "v0": 54.0}


def write_config(path: Path, **overrides) -> Path:
    doc = {
        "seeds": [1],
        "scenario": {"duration": 3.0, "neighbor_count": 2,
                     "potential_changer_count": 1},
        "camera": dict(SMALL_CAMERA),
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key].update(value)
        else:
            doc[key] = value
    path.write_text(json.dumps(doc))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestSimulate:
    def test_outputs_and_row_counts(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        sdir = out / "seed_1"
        rows = read_rows(sdir / "trajectory.csv")
        vehicles = 1 + 2 + 2  # ego + neighbors + trucks
        samples = int(3.0 / 0.1) + 1
        assert len(rows) == vehicles * samples
        assert (sdir / "maneuvers.csv").exists()
        assert (sdir / "twin_channel.csv").exists()
        assert (sdir / "detections.csv").exists()
        depth_files = sorted((sdir / "depth").glob("*.dpt"))
        assert len(depth_files) == samples
        assert (out / "config.echo.json").exists()

    def test_zero_duration(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", scenario={"duration": 0.0,
                                                          "neighbor_count": 0,
                                                          "potential_changer_count": 0})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "seed_1" / "trajectory.csv")
        assert len(rows) == 3  # initial state only: ego + two trucks
        # the one frame, at t = 0, as round(duration / frame_period) + 1 frames gives
        rasters = sorted((out / "seed_1" / "depth").iterdir())
        assert [p.name for p in rasters] == ["frame_00000.dpt"]
        assert rasters[0].stat().st_size == 12 + 4 * SMALL_CAMERA["width"] * SMALL_CAMERA["height"]
        detections = read_rows(out / "seed_1" / "detections.csv")
        assert sorted((row["t"], row["source_id"]) for row in detections) == [
            ("0.00", "1"), ("0.00", "2")]  # both trucks, ahead of the ego

    def test_malformed_config_no_partial_outputs(self, tmp_path):
        # besides the bad JSON, each document used to pass validation and fail
        # only once a command ran, after config.echo.json had been written
        docs = ["{not json"] + [json.dumps(doc) for doc in (
            {"camera": {"u0": 2000}},
            {"fuse_eval": {"thresholds": [0.9, 0.5]}},
            {"fuse_eval": {"thresholds": [0.5, 0.6]}},
            {"fuse_eval": {"gnss_sigma": ["a"]}},
            {"fuse_eval": {"target_range": [1]}},
            {"scenario": {"dt_sim": 0.03}},
            {"sensing": {"frame_period": 0.15}, "scenario": {"dt_sim": 0.1}},
            {"training": {"seed": -1}},
            {"fuse_eval": {"clutter_max": 10_000_000_000_000_000_000}},  # past int64
            # no target could ever lie beyond the near plane
            {"fuse_eval": {"target_range": [-5, -1], "frames": 5}},
            {"fuse_eval": {"target_range": [1, 2.74]}},
            # more cars than the spawn range can hold apart
            {"scenario": {"neighbor_count": 200}},
            {"scenario": {"lane_count": 2**63 + 1}},  # a lane index past int64
            # every corpus target would be imaged below or beside the frame
            {"camera": {"mount_up": 200}},
            {"camera": {"mount_up": 30}},
            {"camera": {"mount_left": 100}},
        )]
        cfg = tmp_path / "c.json"
        out = tmp_path / "out"
        for text in docs:
            cfg.write_text(text)
            for command in ("simulate", "fuse-eval", "train"):
                assert main([command, "--config", str(cfg), "--out", str(out)]) == 2, text
                assert not out.exists(), text
        # with no potential lane changer train has no lane change to label
        for neighbors in (0, 1):
            cfg.write_text(json.dumps({"scenario": {"neighbor_count": neighbors,
                                                    "potential_changer_count": 0}}))
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
            assert not out.exists()

    @pytest.mark.parametrize("scenario", [
        # five changers fill their lane, and five more cars the one beside it
        {"neighbor_count": 10, "potential_changer_count": 5},
        # three changers fit the spawn range only exactly 14.5 m apart
        {"neighbor_count": 3, "potential_changer_count": 3, "spawn_min_s": 30,
         "spawn_max_s": 59}])
    def test_a_spawn_range_at_its_capacity_runs(self, tmp_path, scenario):
        # no uniform draw placed these; they used to exit 2
        cfg = write_config(tmp_path / "c.json", scenario={**scenario, "duration": 1.0})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(list(out.glob("*/depth/*.dpt"))) == 11

    def test_depth_rasters_do_not_outlive_their_frame(self, tmp_path, monkeypatch):
        # each frame's raster is written as soon as the frame is rendered, so
        # by the time a process writes a frame, every raster it made before
        # its previous frame is dead; each process appends its counts to a file
        refs, written = [], tmp_path / "stale"
        write = pipeline.write_depth_map

        def write_and_track(dm, path):
            stale = sum(ref() is not None for ref in refs[:-1])
            refs.append(weakref.ref(dm))
            with open(written, "a") as fh:
                fh.write(f"{os.getpid()} {stale}\n")
            write(dm, path)

        monkeypatch.setattr(pipeline, "write_depth_map", write_and_track)
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: 2)
        cfg = write_config(tmp_path / "c.json")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        rows = [line.split() for line in written.read_text().splitlines()]
        assert [stale for _, stale in rows] == ["0"] * (int(3.0 / 0.1) + 1)
        assert len({pid for pid, _ in rows}) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": {"typo_key": 1}}))
        assert main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(first)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(second)]) == 0
        assert tree_bytes(first) == tree_bytes(second)

    def test_rerun_from_echo_reproduces_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        first = tmp_path / "a"
        assert main(["simulate", "--config", str(cfg), "--out", str(first)]) == 0
        echo = first / "config.echo.json"
        second = tmp_path / "b"
        assert main(["simulate", "--config", str(echo), "--out", str(second)]) == 0
        assert tree_bytes(first) == tree_bytes(second)

    def test_finer_frame_grid_keeps_the_log_files(self, tmp_path):
        # frames every 0.05 s are read from the run's one log, which then
        # holds ticks off the trajectory's 0.1 s grid that the csv skips
        outs = {}
        for period in (0.1, 0.05):
            cfg = write_config(tmp_path / f"{period}.json", sensing={"frame_period": period})
            outs[period] = tmp_path / str(period)
            assert main(["simulate", "--config", str(cfg), "--out", str(outs[period])]) == 0
        coarse, fine = (outs[p] / "seed_1" for p in (0.1, 0.05))
        frames = len(list((coarse / "depth").glob("*.dpt")))
        assert frames == int(3.0 / 0.1) + 1
        assert len(list((fine / "depth").glob("*.dpt"))) == 2 * frames - 1
        for name in ("trajectory.csv", "maneuvers.csv", "twin_channel.csv"):
            assert (fine / name).read_bytes() == (coarse / name).read_bytes(), name

    def test_maneuvers_csv_lists_every_plan(self, tmp_path):
        # a lane change first triggers after about 6 s; seed 2 plans one at 6.72 s
        cfg = write_config(tmp_path / "c.json", seeds=[2], scenario={"duration": 7.0})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        log, _ = simulate_run(replace(load_config(cfg).scenario, seed=2))
        plans = log.plans
        assert plans
        assert read_rows(out / "seed_2" / "maneuvers.csv") == [
            {"id": str(p.vehicle_id), "t_start": f"{p.t_start:.3f}",
             "t_end": f"{p.t_end:.3f}", "from_lane": str(p.from_lane),
             "to_lane": str(p.to_lane)} for p in plans]

    def test_seeds_override(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--seeds", "4,5"]) == 0
        assert (out / "seed_4").exists() and (out / "seed_5").exists()
        assert not (out / "seed_1").exists()


class TestFuseEval:
    def test_noiseless_separated_corpus_is_perfect(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            sensing={"edge_jitter_sigma": 0.0, "depth_noise_sigma": 0.0},
            fuse_eval={"frames": 40, "overlap_fraction": 0.0,
                       "gnss_sigma": [0.0, 0.0, 0.0], "clutter_max": 0},
        )
        out = tmp_path / "out"
        assert main(["fuse-eval", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "seed_1" / "curve.csv")
        for row in rows:
            if float(row["threshold"]) <= 0.95:
                assert float(row["accuracy_fused"]) == 1.0
                assert float(row["accuracy_baseline"]) == 1.0
        summary = json.loads((out / "seed_1" / "summary.json").read_text())
        assert summary["gap_at_0.7"] == 0.0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", fuse_eval={"frames": 30})
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["fuse-eval", "--config", str(cfg), "--out", str(first)]) == 0
        assert main(["fuse-eval", "--config", str(cfg), "--out", str(second)]) == 0
        assert tree_bytes(first) == tree_bytes(second)

    def test_identifications_csv_has_two_rows_per_shown_frame_in_corpus_order(self, tmp_path):
        # a far near plane hides the target in some frames, which get no row
        cfg_path = write_config(tmp_path / "c.json", camera={"near_plane": 18.0},
                                fuse_eval={"frames": 40})
        out = tmp_path / "out"
        assert main(["fuse-eval", "--config", str(cfg_path), "--out", str(out)]) == 0
        with open(out / "seed_1" / "identifications.csv", newline="") as fh:
            header, *lines = csv.reader(fh)
        assert header == ["t", "method", "chosen_source_id", "iou_vs_gt", "candidate_count"]
        cfg = load_config(cfg_path)
        rows, frames, _ = pipeline.build_fuse_corpus(
            cfg.fuse_eval, cfg.camera, replace(cfg.sensing, seed=1), cfg.fusion, 1)
        assert 0 < frames < 40
        assert len(lines) == 2 * frames
        assert {len(line) for line in lines} == {len(header)}
        assert [line[:2] for line in lines] == [[f"{t:.2f}", method] for t, method, *_ in rows]
        assert [line[1] for line in lines] == ["fused", "baseline"] * frames
        times = [float(line[0]) for line in lines[::2]]
        assert [float(line[0]) for line in lines[1::2]] == times
        assert times == sorted(set(times))

    def test_corpus_without_a_visible_target_exits_2_before_any_write(self, tmp_path,
                                                                      capsys):
        # the camera rules admit this near plane, but no drawn frame images the
        # target; this used to exit 3 after config.echo.json had been written
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"camera": {"near_plane": 23.5},
                                   "fuse_eval": {"frames": 2}}))
        out = tmp_path / "out"
        assert main(["fuse-eval", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "seed 1: no fuse-eval corpus frame shows the target" in capsys.readouterr().err


def train_tiny_model(tmp_path) -> Path:
    cfg = write_config(tmp_path / "train.json",
                       seeds=[11, 12, 13, 14],
                       scenario={"duration": 20.0, "neighbor_count": 4,
                                 "potential_changer_count": 2},
                       training={"epochs": 30, "hidden": 8})
    out = tmp_path / "train_out"
    code = main(["train", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    return out / "model.json"


class TestTrainAndPredict:
    def test_train_outputs(self, tmp_path):
        model_path = train_tiny_model(tmp_path)
        assert model_path.exists()
        doc = json.loads(model_path.read_text())
        assert doc["layer_sizes"] == [13, 8, 1]
        summary = json.loads((model_path.parent / "training_summary.json").read_text())
        assert summary["samples"] > 0 and summary["positives"] > 0

    def test_predict_eval_and_identity_filters(self, tmp_path):
        model_path = train_tiny_model(tmp_path)
        cfg = write_config(tmp_path / "eval.json",
                           seeds=[21],
                           scenario={"duration": 20.0, "neighbor_count": 4,
                                     "potential_changer_count": 2},
                           filters={"tau_a": 0, "tau_c": 0, "thres": 0.4},
                           model_path=str(model_path))
        out = tmp_path / "eval_out"
        assert main(["predict-eval", "--config", str(cfg), "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"raw", "aggressive", "conservative"}
        for row in read_rows(out / "seed_21" / "traces.csv"):
            assert row["raw"] == row["aggressive"] == row["conservative"]

    def test_filter_rate_properties_on_real_run(self, tmp_path):
        # verified on the run: propagation can only raise the true positive
        # rate, and window averaging here suppresses false alarms
        model_path = train_tiny_model(tmp_path)
        cfg = write_config(tmp_path / "eval.json",
                           seeds=[22, 23, 24],
                           scenario={"duration": 20.0, "neighbor_count": 4,
                                     "potential_changer_count": 2},
                           model_path=str(model_path))
        out = tmp_path / "eval_out"
        assert main(["predict-eval", "--config", str(cfg), "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        raw = metrics["raw"]
        assert metrics["aggressive"]["true_positive_rate"] >= raw["true_positive_rate"]
        assert metrics["conservative"]["false_positive_rate"] <= raw["false_positive_rate"]

    def test_predict_eval_requires_model(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["predict-eval", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()


    def test_undefined_figures_are_null_in_strict_json(self, tmp_path):
        # with no lane changer no timestep is positive, and with no neighbour
        # there is no timestep at all; such a figure is null, never NaN
        model_path = tmp_path / "model.json"
        save_model(MlpModel(w1=np.zeros((4, FEATURE_SIZE)), b1=np.zeros(4), w2=np.zeros(4),
                            b2=0.0, feat_mean=np.zeros(FEATURE_SIZE),
                            feat_std=np.ones(FEATURE_SIZE)), model_path)

        def not_json(constant):
            raise ValueError(f"{constant} is not JSON")

        rates = {"true_positive_rate", "false_positive_rate"}
        for neighbors, undefined in ((2, {"true_positive_rate"}), (0, rates | {"accuracy"})):
            cfg = write_config(tmp_path / "c.json", model_path=str(model_path),
                               scenario={"neighbor_count": neighbors,
                                         "potential_changer_count": 0})
            out = tmp_path / f"out_{neighbors}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["predict-eval", "--config", str(cfg), "--out", str(out)]) == 0
            metrics = json.loads((out / "metrics.json").read_text(), parse_constant=not_json)
            for figures in metrics.values():
                assert {name for name, value in figures.items() if value is None} == undefined


class TestClosedLoop:
    def test_single_seed_pair(self, tmp_path):
        model_path = train_tiny_model(tmp_path)
        cfg = write_config(tmp_path / "cl.json",
                           seeds=[3],
                           scenario={"duration": 20.0, "neighbor_count": 4,
                                     "potential_changer_count": 2},
                           model_path=str(model_path))
        out = tmp_path / "out"
        assert main(["closed-loop", "--config", str(cfg), "--out", str(out)]) == 0
        comparison = json.loads((out / "comparison.json").read_text())
        assert comparison["pair_count"] == 1
        for name in ("report_guided.json", "report_baseline.json"):
            report = json.loads((out / "seed_3" / name).read_text())
            assert report["trip_duration"] == pytest.approx(20.0)

    def test_misshaped_model_rejected_before_any_write(self, tmp_path):
        # a 5-feature model used to load, then fail with a broadcast error
        # (exit 3) after config.echo.json had been written; a model file that
        # is a JSON list, or whose b2 is a list, used to escape main with a
        # traceback; a NaN weight or a zero feat_std used to load, then fail
        # with exit 3 after config.echo.json had been written
        model = MlpModel(w1=np.zeros((4, 5)), b1=np.zeros(4), w2=np.zeros(4), b2=0.0,
                         feat_mean=np.zeros(5), feat_std=np.ones(5))
        model_path = tmp_path / "model.json"
        save_model(model, model_path)
        five_features = model_path.read_text()
        doc = json.loads(five_features)
        doc.update(w1=np.zeros((4, FEATURE_SIZE)).tolist(), feat_mean=[0.0] * FEATURE_SIZE,
                   feat_std=[1.0] * FEATURE_SIZE, b2=[0.0])
        fits = dict(doc, b2=0.0, layer_sizes=[FEATURE_SIZE, 4, 1])
        model_path.write_text(json.dumps(fits))
        load_model(model_path)  # each case below breaks one rule of a loadable model
        nan_weight = json.dumps(dict(fits, w2=[float("nan"), 0.0, 0.0, 0.0]))
        zero_std = json.dumps(dict(fits, feat_std=[0.0] * FEATURE_SIZE))
        cfg = write_config(tmp_path / "c.json", model_path=str(model_path))
        out = tmp_path / "out"
        for text in (five_features, "[1, 2]", json.dumps(doc), nan_weight, zero_std):
            model_path.write_text(text)
            for command in ("closed-loop", "predict-eval", "simulate"):
                assert main([command, "--config", str(cfg), "--out", str(out)]) == 2, command
                assert not out.exists(), command

    def test_never_positive_model_gives_identical_reports(self, tmp_path):
        model = MlpModel(w1=np.zeros((4, FEATURE_SIZE)), b1=np.zeros(4),
                         w2=np.zeros(4), b2=-30.0,
                         feat_mean=np.zeros(FEATURE_SIZE),
                         feat_std=np.ones(FEATURE_SIZE))
        model_path = tmp_path / "zero.json"
        save_model(model, model_path)
        cfg = write_config(tmp_path / "cl.json",
                           seeds=[5],
                           scenario={"duration": 15.0, "neighbor_count": 3,
                                     "potential_changer_count": 2},
                           model_path=str(model_path))
        out = tmp_path / "out"
        assert main(["closed-loop", "--config", str(cfg), "--out", str(out)]) == 0
        guided = (out / "seed_5" / "report_guided.json").read_text()
        baseline = (out / "seed_5" / "report_baseline.json").read_text()
        assert guided == baseline


class TestFanOut:
    """Every command gives the same bytes in one process and in two, and
    leaves no process behind."""

    @staticmethod
    def force_processes(monkeypatch, count: int):
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: count)

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_and_two_processes_give_identical_bytes(self, tmp_path, monkeypatch):
        scenario = {"duration": 12.0, "neighbor_count": 4, "potential_changer_count": 2}
        train_cfg = write_config(tmp_path / "train.json", seeds=[11, 12, 13],
                                 scenario={**scenario, "duration": 20.0},
                                 training={"epochs": 20, "hidden": 8})
        model_path = tmp_path / "model.json"
        cfg = write_config(tmp_path / "c.json", seeds=[21, 22], scenario=scenario,
                           model_path=str(model_path))
        trees = {}
        for count in (1, 2):
            self.force_processes(monkeypatch, count)
            out = tmp_path / f"cpus_{count}"
            assert main(["train", "--config", str(train_cfg), "--out", str(out / "train")]) == 0
            self.assert_no_child_left()
            if count == 1:
                model_path.write_bytes((out / "train" / "model.json").read_bytes())
            for command in ("predict-eval", "closed-loop"):
                assert main([command, "--config", str(cfg), "--out", str(out / command)]) == 0
                self.assert_no_child_left()
            trees[count] = tree_bytes(out)
        assert len(trees[1]) == 4 + 4 + 6 and trees[1] == trees[2]

    @pytest.mark.parametrize("command", ["train", "predict-eval", "closed-loop"])
    def test_a_failing_helper_fails_as_the_serial_path_does(self, tmp_path, monkeypatch,
                                                            capsys, command):
        real = pipeline.simulate_run

        def broken(cfg, *args, **kwargs):  # the helper's run: seed 2, baseline leg
            if cfg.seed == 2 and cfg.driver.policy == "baseline":
                raise RuntimeError("run broke")
            return real(cfg, *args, **kwargs)

        monkeypatch.setattr(pipeline, "simulate_run", broken)
        model_path = tmp_path / "model.json"
        save_model(MlpModel(w1=np.zeros((4, FEATURE_SIZE)), b1=np.zeros(4), w2=np.zeros(4),
                            b2=0.0, feat_mean=np.zeros(FEATURE_SIZE),
                            feat_std=np.ones(FEATURE_SIZE)), model_path)
        cfg = write_config(tmp_path / "c.json", seeds=[1, 2], model_path=str(model_path))
        out = tmp_path / "out"
        for count in (1, 2):
            self.force_processes(monkeypatch, count)
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
            assert not out.exists()
            assert capsys.readouterr().err == "error: run broke\n"
            self.assert_no_child_left()

    # 31 frames each; a narrow camera sees no vehicle in simulate's frames 5-21,
    # and set aside it misses the fuse-eval target in even and odd frames
    SENSE_CONFIGS = {
        "simulate": {"scenario": {"duration": 3.0, "neighbor_count": 2,
                                  "potential_changer_count": 1, "accident_s": 100},
                     "camera": {**SMALL_CAMERA, "focal_length": 0.02}},
        "fuse-eval": {"camera": {**SMALL_CAMERA, "focal_length": 0.02, "mount_left": 1.5},
                      "fuse_eval": {"frames": 31}},
    }

    def test_frames_give_identical_bytes_in_one_and_two_processes(self, tmp_path,
                                                                  monkeypatch):
        trees = {}
        for count in (1, 2):
            self.force_processes(monkeypatch, count)
            for command, doc in self.SENSE_CONFIGS.items():
                cfg = tmp_path / f"{command}.json"
                cfg.write_text(json.dumps({"seeds": [1], **doc}))
                out = tmp_path / f"cpus_{count}" / command
                assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
                self.assert_no_child_left()
            trees[count] = tree_bytes(tmp_path / f"cpus_{count}")
        assert trees[1] == trees[2]
        rasters = [data for name, data in trees[1].items() if name.endswith(".dpt")]
        assert len(rasters) == 31
        assert any(np.all(np.frombuffer(data[12:], "<f4") == 1000.0) for data in rasters)
        assert any(np.any(np.frombuffer(data[12:], "<f4") < 1000.0) for data in rasters)
        shown = {int(float(row["t"])) for row in read_rows(
            tmp_path / "cpus_1" / "fuse-eval" / "seed_1" / "identifications.csv")}
        assert {index % 2 for index in set(range(31)) - shown} == {0, 1}

    @settings(max_examples=4, deadline=None)
    @given(frames=st.integers(1, 7), seed=st.integers(1, 1000))
    @example(frames=2, seed=1)  # fewer frames than processes
    @example(frames=5, seed=2)  # divisible by neither 2 nor 3
    def test_any_process_count_gives_identical_bytes(self, tmp_path_factory, frames, seed):
        # simulate renders one frame per 0.1 s of scenario and one at t = 0,
        # so both commands sense `frames` frames
        docs = {"simulate": {"scenario": {"duration": (frames - 1) * 0.1, "neighbor_count": 2,
                                          "potential_changer_count": 1},
                             "camera": SMALL_CAMERA},
                "fuse-eval": {"camera": SMALL_CAMERA, "fuse_eval": {"frames": frames}}}
        root = tmp_path_factory.mktemp("fan_out")
        trees = []
        with pytest.MonkeyPatch.context() as mp:
            for count in (1, 2, 3):
                self.force_processes(mp, count)
                for command, doc in docs.items():
                    cfg = root / f"{command}.json"
                    cfg.write_text(json.dumps({"seeds": [seed], **doc}))
                    out = root / f"cpus_{count}" / command
                    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
                    self.assert_no_child_left()
                trees.append(tree_bytes(root / f"cpus_{count}"))
        assert trees[0] == trees[1] == trees[2]
        rasters = sum(name.endswith(".dpt") for name in trees[0])
        assert rasters == frames

    @pytest.mark.parametrize("command", ["simulate", "fuse-eval"])
    def test_a_frame_failing_in_a_helper_fails_as_the_serial_path_does(
            self, tmp_path, monkeypatch, capsys, command):
        real = sensing.DetectorNoiseModel.for_frame

        def broken(noise, index):  # a helper renders the odd frames, frame 1 in both commands
            if index % 2:
                raise RuntimeError(f"frame {index} broke")
            return real(noise, index)

        monkeypatch.setattr(sensing.DetectorNoiseModel, "for_frame", broken)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seeds": [1], **self.SENSE_CONFIGS[command]}))
        errors = set()
        for count in (1, 2):
            self.force_processes(monkeypatch, count)
            out = tmp_path / f"cpus_{count}"
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
            assert out.exists() == (command == "simulate")  # simulate writes as it runs
            errors.add(capsys.readouterr().err)
            self.assert_no_child_left()
        assert errors == {"error: frame 1 broke\n"}


class TestPreWriteFailures:
    """A failure before the first write exits 2 or 3 and creates no --out."""

    NESTED = "[" * 200_000 + "]" * 200_000  # past Python's recursion limit

    def test_config_nested_too_deeply_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "deep.json"
        cfg.write_text(self.NESTED)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "deep.json" in capsys.readouterr().err

    def test_model_nested_too_deeply_is_a_config_error(self, tmp_path, capsys):
        model_path = tmp_path / "deep_model.json"
        model_path.write_text(self.NESTED)
        cfg = write_config(tmp_path / "c.json", model_path=str(model_path))
        out = tmp_path / "out"
        assert main(["predict-eval", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "deep_model.json" in capsys.readouterr().err

    def test_any_other_failure_is_a_runtime_error(self, tmp_path, capsys, monkeypatch):
        def fail(cfg):
            raise RuntimeError("placement broke")

        monkeypatch.setattr(pipeline, "build_scenario", fail)
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        assert not out.exists()
        assert capsys.readouterr().err == "error: placement broke\n"


    @pytest.mark.parametrize("command", ["simulate", "fuse-eval", "train", "predict-eval",
                                         "closed-loop"])
    @pytest.mark.parametrize("scenario", [{"dt_sim": 1e-300}, {"duration": 1e12}])
    def test_a_run_of_unbounded_ticks_exits_2_before_any_write(self, tmp_path, capsys,
                                                               command, scenario):
        # each used to be accepted, and the run then looped practically forever
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": scenario}))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "config error: scenario.duration:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "fuse-eval", "train", "predict-eval",
                                         "closed-loop"])
    def test_a_maneuver_ending_at_its_start_exits_2_before_any_write(self, tmp_path, capsys,
                                                                     command):
        # t + lane_change_duration == t at a trigger time t: the plan used to
        # fail with exit 3 after config.echo.json had been written
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": {"lane_change_duration": 1e-300,
                                                "duration": 12.0}}))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "config error: scenario.lane_change_duration:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "fuse-eval", "train", "predict-eval",
                                         "closed-loop"])
    @pytest.mark.parametrize("section,key", [("fuse_eval", "frames"), ("training", "epochs")])
    def test_an_unbounded_corpus_or_training_exits_2_before_any_write(
            self, tmp_path, capsys, command, section, key):
        # each used to be accepted, and fuse-eval or train then computed
        # practically forever before its first write
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({section: {key: 10**12}}))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert f"config error: {section}.{key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict-eval", "closed-loop", "simulate"])
    def test_a_model_giving_a_nan_probability_exits_2_before_any_write(self, tmp_path,
                                                                      capsys, command):
        # finite weights this large overflow the forward pass to NaN; the
        # advisory used to fail with exit 3 after config.echo.json was written,
        # and NumPy's overflow warnings reached stderr ahead of the message
        model_path = tmp_path / "huge.json"
        save_model(MlpModel(w1=np.full((2, FEATURE_SIZE), 1e308), b1=np.zeros(2),
                            w2=np.array([1.0, -1.0]), b2=0.0,
                            feat_mean=np.zeros(FEATURE_SIZE),
                            feat_std=np.ones(FEATURE_SIZE)), model_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": {"duration": 5.0},
                                   "model_path": str(model_path)}))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would fail the run with exit 3
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"config error: model_path: {str(model_path)!r} gives a probability nan "
            "out of range\n")

    def test_train_on_one_class_exits_2_before_any_write(self, tmp_path, capsys):
        # no car changes lane within 3 s, so every sample is a negative; this
        # used to exit 3 after config.echo.json had been written
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": {"duration": 3.0}}))
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out), "--seeds", "1,2"]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "config error: training data has a single class\n"


class TestOnceExit3:
    """Configs that once made a command exit 3 now run, or exit 2 before any write."""

    COMMANDS = ["simulate", "fuse-eval", "train", "predict-eval", "closed-loop"]

    # a vehicle above its desired speed overflowed the IDM's (v / vd) ** delta
    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("idm", [{"delta": 1e12}, {"delta": 300, "a_max": 1e12}])
    def test_an_overflowing_idm_term_never_exits_3(self, tmp_path, capsys, command, idm):
        model_path = tmp_path / "model.json"
        save_model(MlpModel(w1=np.zeros((4, FEATURE_SIZE)), b1=np.zeros(4), w2=np.zeros(4),
                            b2=0.0, feat_mean=np.zeros(FEATURE_SIZE),
                            feat_std=np.ones(FEATURE_SIZE)), model_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"idm": idm, "scenario": {"duration": 4.0},
                                   "model_path": str(model_path)}))
        out = tmp_path / "out"
        code = main([command, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        # train on delta 1e12 sees no lane change in 4 s: a single class, exit 2
        assert code == (2 if command == "train" and idm["delta"] == 1e12 else 0), err
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("command", ["simulate", "fuse-eval"])
    def test_an_unbounded_false_positive_rate_exits_2_before_any_write(self, tmp_path,
                                                                       capsys, command):
        # simulate used to exit 3 after four files were written: numpy's Poisson
        # draw takes no mean this large
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sensing": {"false_positive_rate": 1e19}}))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "config error: sensing.false_positive_rate:" in capsys.readouterr().err


class TestModuleEntry:
    def test_python_m_lanesight_runs_the_cli(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", scenario={"duration": 0.0,
                                                          "neighbor_count": 0,
                                                          "potential_changer_count": 0})
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        for argv, code in ((["simulate", "--config", str(cfg), "--out", str(out)], 0),
                           (["train", "--config", str(cfg), "--out", str(out / "t")], 2)):
            result = subprocess.run([sys.executable, "-m", "lanesight", *argv], env=env,
                                    capture_output=True, text=True, timeout=120)
            assert result.returncode == code, result.stderr
        assert len(read_rows(out / "seed_1" / "trajectory.csv")) == 3
        assert not (out / "t").exists()
