"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with pytest -s; the test name carries the number)."""
import json
import math
import time

import numpy as np
import pytest

from lanesight.cli import main as cli_main
from lanesight.evaluation import compare_paired_runs, identification_accuracy
from lanesight.fusion import FusionParams, depth_evaluate, identify
from lanesight.geometry import Box2D, Camera, CameraExtrinsics, CameraIntrinsics, \
    WorldPoint, project_anchor
from lanesight.pipeline import CameraMount, FuseCorpusConfig, build_dataset, \
    build_fuse_corpus, closed_loop_pair
from lanesight.prediction import (
    FEATURE_SIZE,
    LabeledSample,
    MlpModel,
    TrainConfig,
    WindowParams,
    aggressive_filter,
    conservative_filter,
    infer,
    label_windows,
    train,
)
from lanesight.scene import LaneSpec, ManeuverPlan, ScenarioConfig, TrajectoryLog
from lanesight.sensing import DepthMap, Detection, DetectorNoiseModel, SensorFrame

from oracles import kernel_loss_and_gradients, project_point_oracle, rodrigues


def report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_printed_filter_columns():
    raw = np.array([0, 0, 0, 1, 0, 0, 0, 1])
    aggressive = aggressive_filter(raw, tau_a=3).tolist()
    conservative = conservative_filter(raw, tau_c=3, thres=0.5).tolist()
    ok = aggressive == [0, 0, 0, 1, 1, 1, 1, 1] and conservative == [0] * 8
    report(1, ok, f"aggressive={aggressive} conservative={conservative}")


def test_criterion_2_overlap_case_distance_matching():
    # two depth regions on one raster with an anchor inside both boxes
    values = np.full((540, 960), DepthMap.far_value)
    far_box = Box2D(432, 264, 528, 345)
    near_box = Box2D(374, 258, 586, 435)
    values[int(near_box.v_min):int(near_box.v_max),
           int(near_box.u_min):int(near_box.u_max)] = 8.46
    values[int(far_box.v_min):int(far_box.v_max),
           int(far_box.u_min):int(far_box.u_max)] = 18.69
    img = DepthMap(960, 540, values)
    detections = [Detection(far_box, source_id=1), Detection(near_box, source_id=2)]
    # the cloud anchor 18.7 m ahead, 0.561 m below the camera, projects to (480, 300)
    camera = Camera(CameraExtrinsics.looking_along_road(WorldPoint(0.0, 0.0, 1.4)),
                    CameraIntrinsics())
    frame = SensorFrame(0.0, detections, img, camera)
    reported = WorldPoint(18.7, 0.0, 0.839)
    params = FusionParams(shrink=0.8, samples=32, seed=0)
    depths = depth_evaluate(img, [far_box, near_box], th=params.shrink, n=params.samples,
                            seed=params.seed)
    ok_depths = (abs(depths[0] - 18.69) < 1e-9
                 and abs(depths[1] - 8.46) < 1e-9)
    fused = identify(frame, reported, 18.7, params, method="fused")
    baseline = identify(frame, reported, 18.7, params, method="baseline")
    ok = ok_depths and fused.chosen.source_id == 1 and fused.candidate_count == 2
    report(2, ok, f"fused picked source {fused.chosen.source_id} "
                  f"(baseline picked {baseline.chosen.source_id})")


def test_criterion_3_identification_accuracy_ordering():
    start = time.time()
    corpus = FuseCorpusConfig(frames=500)
    noise = DetectorNoiseModel(edge_jitter_sigma=2.0, depth_noise_sigma=0.1, seed=1)
    rows, frames, overlap_pairs = build_fuse_corpus(corpus, CameraMount(), noise,
                                                    FusionParams(), seed=1)
    overlap_fraction = overlap_pairs / frames
    thresholds = (0.5, 0.6, 0.7, 0.8, 0.9)
    curves = identification_accuracy(rows, thresholds)
    fused, base = curves["fused"], curves["baseline"]
    dominated = all(f >= b for f, b in zip(fused, base))
    at = thresholds.index(0.7)
    gap = fused[at] - base[at]
    elapsed = time.time() - start
    ok = overlap_fraction >= 0.30 and dominated and gap >= 0.05 and elapsed < 60
    report(3, ok, f"fused@0.7={fused[at]:.3f} baseline@0.7={base[at]:.3f} "
                  f"gap={gap:+.3f} overlap_pairs={overlap_fraction:.2f} "
                  f"dominated={dominated} ({elapsed:.1f}s)")


def test_criterion_4_projection_matches_matrix_oracle():
    intr = CameraIntrinsics(focal_length=0.005, pixel_size_x=5e-6, pixel_size_y=5e-6,
                            u0=480.0, v0=270.0, width=960, height=540)
    rng = np.random.default_rng(104)
    start = time.time()
    worst = 0.0
    checked = 0
    while checked < 1000:
        r = rodrigues(rng.normal(size=3), rng.uniform(-math.pi, math.pi))
        t = rng.uniform(-5, 5, 3)
        w = rng.uniform(-50, 50, 3)
        if (r @ w + t)[2] <= intr.near_plane + 0.05:
            continue
        got = project_anchor(WorldPoint(*w), CameraExtrinsics(r, t), intr)
        u, v, _ = project_point_oracle(r, t, w, intr.focal_length, intr.pixel_size_x,
                                       intr.pixel_size_y, intr.u0, intr.v0)
        scale = max(abs(u), abs(v), 1.0)
        worst = max(worst, abs(got.u - u) / scale, abs(got.v - v) / scale)
        checked += 1
    elapsed = time.time() - start
    ok = worst < 1e-9 and elapsed < 1.0
    report(4, ok, f"1000 pairs, worst relative error {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_5_depth_evaluation_statistics():
    start = time.time()
    box = Box2D(100, 100, 420, 360)
    # noiseless planar raster: exact recovery
    clean = DepthMap(480, 400, np.full((400, 480), 18.69))
    exact = all(depth_evaluate(clean, [box], th=0.8, n=n, seed=s)[0] == 18.69
                for n, s in ((1, 0), (16, 1), (64, 2)))
    # noisy raster: mean of 64 samples within 4*sigma/sqrt(64) almost surely
    rng = np.random.default_rng(205)
    sigma, n = 0.1, 64
    bound = 4 * sigma / math.sqrt(n)
    hits = 0
    trials = 1000
    for trial in range(trials):
        noisy = DepthMap(480, 400, 18.69 + rng.normal(0, sigma, (400, 480)))
        est = depth_evaluate(noisy, [box], th=0.8, n=n, seed=trial)[0]
        hits += abs(est - 18.69) <= bound
    elapsed = time.time() - start
    ok = exact and hits / trials >= 0.99 and elapsed < 30
    report(5, ok, f"exact={exact}, {hits}/{trials} within {bound:.3f} m "
                  f"({elapsed:.1f}s)")


def separable_dataset(n=1000, seed=6):
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=FEATURE_SIZE)
    direction /= np.linalg.norm(direction)
    out = []
    for i in range(n):
        label = i % 2
        feats = direction * (2.0 if label else -2.0) + rng.normal(0, 0.5, FEATURE_SIZE)
        out.append(LabeledSample(tuple(feats), label, float(i), 1))
    return out


def test_criterion_6_mlp_verification():
    start = time.time()
    rng = np.random.default_rng(66)
    model = MlpModel(w1=rng.normal(0, 0.4, (8, FEATURE_SIZE)),
                     b1=rng.normal(0, 0.2, 8), w2=rng.normal(0, 0.4, 8), b2=0.1,
                     feat_mean=np.zeros(FEATURE_SIZE), feat_std=np.ones(FEATURE_SIZE))
    # central differences are only valid away from rectifier kinks, so draw
    # inputs until every hidden pre-activation clears the perturbation size
    while True:
        x = rng.normal(0, 1, (40, FEATURE_SIZE))
        y = rng.integers(0, 2, 40).astype(float)
        preact = x @ model.w1.T + model.b1
        if np.min(np.abs(preact)) > 1e-4:
            break
    _, grads = kernel_loss_and_gradients(model, x, y)
    coords = [("w1", idx) for idx in np.ndindex(model.w1.shape)] \
        + [("b1", (i,)) for i in range(8)] + [("w2", (i,)) for i in range(8)] \
        + [("b2", ())]
    picks = rng.choice(len(coords), size=100, replace=False)
    h = 1e-5
    worst = 0.0
    for p in picks:
        name, idx = coords[p]

        def loss_with(delta):
            m = MlpModel(model.w1.copy(), model.b1.copy(), model.w2.copy(), model.b2,
                         model.feat_mean, model.feat_std)
            if name == "b2":
                m.b2 += delta
            else:
                getattr(m, name)[idx] += delta
            return kernel_loss_and_gradients(m, x, y)[0]

        fd = (loss_with(h) - loss_with(-h)) / (2 * h)
        analytic = grads[name] if name == "b2" else grads[name][idx]
        # floor keeps finite-difference roundoff on near-zero coordinates
        # from masquerading as gradient error
        worst = max(worst, abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-6))
    grad_ok = worst < 1e-4

    data = separable_dataset()
    trained = train(data[:700], TrainConfig(hidden=32, epochs=60, seed=3))
    correct = sum((infer(trained, s.features) >= 0.5) == bool(s.label)
                  for s in data[700:])
    heldout = correct / 300

    again = train(data[:700], TrainConfig(hidden=32, epochs=60, seed=3))
    deterministic = (np.array_equal(trained.w1, again.w1)
                     and np.array_equal(trained.b1, again.b1)
                     and np.array_equal(trained.w2, again.w2)
                     and trained.b2 == again.b2)
    elapsed = time.time() - start
    ok = grad_ok and heldout >= 0.95 and deterministic and elapsed < 60
    report(6, ok, f"gradcheck worst rel err {worst:.2e}, held-out {heldout:.3f}, "
                  f"bit-identical={deterministic} ({elapsed:.1f}s)")


def test_criterion_7_labeling_geometry():
    lanes = LaneSpec()
    n = 1201
    times = np.arange(n) * 0.1
    data = {1: (17.0 * times, np.full(n, lanes.center(1)), np.full(n, 17.0),
                np.zeros(n), np.full(n, 1.0))}
    log = TrajectoryLog(times=times, dt=0.1, meta={1: ("car", 4.5, 1.8, 1.5)},
                        data=data, plans=[], ego_id=1, collisions=[], lanes=lanes)
    event = ManeuverPlan(1, 96.0, 100.0, 1, 2)
    samples = label_windows([event], log, WindowParams(tau=5.0, tau_g=3.0,
                                                       sample_rate=1.0))
    pos = sorted(s.t for s in samples if s.label == 1)
    neg = sorted(s.t for s in samples if s.label == 0)
    ok = (pos == pytest.approx([95, 96, 97, 98, 99, 100])
          and neg == pytest.approx([87, 88, 89, 90, 91, 92])
          and len(pos) == len(neg))
    report(7, ok, f"positives {pos} negatives {neg}")


def test_criterion_8_closed_loop_directional_claims():
    start = time.time()
    cfg = ScenarioConfig()  # Table II defaults
    data = build_dataset(cfg, WindowParams(sample_rate=2.0), seeds=range(1000, 1060))
    model = train(data, TrainConfig(hidden=48, epochs=300, seed=0))
    guided, baseline = [], []
    for seed in range(50):
        g, b = closed_loop_pair(cfg, model, seed)
        guided.append(g)
        baseline.append(b)
    cmp = compare_paired_runs(guided, baseline)
    elapsed = time.time() - start
    metrics = (cmp["avg_ttc"], cmp["mean_abs_accel"], cmp["max_jerk"])
    fractions = tuple(m["improve_fraction"] for m in metrics)
    medians = tuple(m["median_improvement"] for m in metrics)
    ok = (all(f is not None and f >= 0.8 for f in fractions)
          and all(m is not None and m > 0 for m in medians)
          and elapsed < 300)
    report(8, ok, f"improve fractions ttc/accel/jerk = "
                  f"{fractions[0]:.2f}/{fractions[1]:.2f}/{fractions[2]:.2f}, "
                  f"medians = {medians[0]:.2f}s/{medians[1]:.3f}m/s^2/"
                  f"{medians[2]:.1f}m/s^3 over {cmp['pair_count']} pairs ({elapsed:.0f}s)")


def test_criterion_9_cli_determinism(tmp_path):
    def run_twice(command, config_doc, extra=()):
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(config_doc))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}_{tag}"
            code = cli_main([command, "--config", str(cfg_path), "--out", str(out),
                             *extra])
            assert code == 0, f"{command} exited {code}"
            outs.append({str(p.relative_to(out)): p.read_bytes()
                         for p in sorted(out.rglob("*")) if p.is_file()})
        return outs[0] == outs[1]

    camera = {"width": 192, "height": 108, "u0": 96.0, "v0": 54.0}
    small_scenario = {"duration": 3.0, "neighbor_count": 2,
                      "potential_changer_count": 1}
    train_doc = {"seeds": [11, 12, 13],
                 "scenario": {"duration": 16.0, "neighbor_count": 3,
                              "potential_changer_count": 2},
                 "camera": camera, "training": {"epochs": 20, "hidden": 8}}
    results = {
        "simulate": run_twice("simulate",
                              {"seeds": [1], "scenario": small_scenario,
                               "camera": camera}),
        "fuse-eval": run_twice("fuse-eval",
                               {"seeds": [1], "camera": camera,
                                "fuse_eval": {"frames": 40}}),
        "train": run_twice("train", train_doc),
    }
    model_path = tmp_path / "train_a" / "model.json"
    eval_doc = {"seeds": [21], "scenario": {"duration": 12.0, "neighbor_count": 3,
                                            "potential_changer_count": 2},
                "camera": camera, "model_path": str(model_path)}
    results["predict-eval"] = run_twice("predict-eval", eval_doc)
    results["closed-loop"] = run_twice("closed-loop", eval_doc)
    ok = all(results.values())
    report(9, ok, f"byte-identical reruns: {results}")
