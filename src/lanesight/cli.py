"""Batch command-line entry points.

Commands (each takes --config, --out, and an optional --seeds override):

  simulate      run scenarios and dump trajectory, maneuver, detection,
                depth-map, and twin-channel files per seed
  fuse-eval     build the synthetic corner-case corpus and emit the
                identification accuracy-vs-IoU curves for both matchers
  train         build a labeled dataset from fresh runs and fit the
                lane-change classifier
  predict-eval  replay held-out seeds through a trained model and report
                classification metrics for raw and filtered predictions
  closed-loop   paired guided/baseline runs per seed with safety reports
                and the paired comparison

This module owns the text output formats: each CSV file, written through one
helper, and the config echo. The DPT1 rasters and the model file keep theirs in
``sensing`` and ``prediction``, next to their readers.

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

# One BLAS thread unless the user sets one, before NumPy loads: runs and frames
# fan out over the CPUs, and an idle BLAS pool in the caller slows its helpers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .config import ConfigError, RunConfig, load_config
from .evaluation import classification_metrics, compare_paired_runs, identification_accuracy
from .pipeline import (
    REPORT_IOU,
    build_dataset,
    build_fuse_corpus,
    closed_loop_pair,
    ground_truth_bits,
    prediction_runs,
    sense_log,
    simulate_run,
)
from .prediction import (
    FEATURE_SIZE,
    DegenerateDataset,
    aggressive_filter,
    conservative_filter,
    load_model,
    save_model,
    train,
)
from .scene import LOG_PERIOD, InfeasiblePlacement, grid_stride
from .twinlink import ProbabilityOutOfRange, _visible


def _seed_dir(out: Path, seed: int) -> Path:
    path = out / f"seed_{seed}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _dump_json(doc, path, allow_nan: bool = True):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, allow_nan=allow_nan)


def _csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_echo(cfg: RunConfig, path):
    with open(path, "w") as fh:
        json.dump(cfg.effective_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_trajectory_csv(log, path):
    """One row per vehicle per LOG_PERIOD."""
    def rows():
        for i in range(0, len(log.times), grid_stride(LOG_PERIOD, log.dt)):
            for vid in log.vehicle_ids:
                s, y, v, a, lane = (log.data[vid][k][i] for k in range(5))
                yield (f"{log.times[i]:.2f}", vid, log.kind_of(vid), f"{s:.6f}", f"{y:.6f}",
                       f"{v:.6f}", f"{a:.6f}", int(lane))
    _csv(path, ("t", "id", "kind", "s", "y", "v", "a", "lane"), rows())


def write_maneuvers_csv(plans, path):
    _csv(path, ("id", "t_start", "t_end", "from_lane", "to_lane"),
         ((p.vehicle_id, f"{p.t_start:.3f}", f"{p.t_end:.3f}", p.from_lane, p.to_lane)
          for p in plans))


def write_channel_csv(store, path):
    """Each publish tick's rows in id order, with the newest advisory issued by its t."""
    def rows():
        for i, t in enumerate(store.times):
            r = _visible(store.issued, t, 0.0) - 1
            for vid, (xs, ys, vs) in store.records.items():
                probs = store.advisories.get(vid)
                yield (f"{t:.2f}", vid, f"{xs[i]:.6f}", f"{ys[i]:.6f}",
                       f"{store.meta[vid][2]:.6f}", f"{vs[i]:.6f}",
                       f"{probs[r]:.6f}" if probs and r >= 0 else "")
    _csv(path, ("t", "id", "x", "y", "z", "v", "probability"), rows())


def write_detections_csv(frames, path):
    """One row per detection; frames holds each frame's (t, detections)."""
    _csv(path, ("t", "source_id", "u_min", "v_min", "u_max", "v_max"),
         ((f"{t:.2f}", det.source_id, f"{det.box.u_min:.3f}", f"{det.box.v_min:.3f}",
           f"{det.box.u_max:.3f}", f"{det.box.v_max:.3f}")
          for t, detections in frames for det in detections))


def write_curve_csv(curves, path, thresholds):
    _csv(path, ("threshold", "accuracy_fused", "accuracy_baseline"),
         ((f"{th:.2f}", f"{acc_f:.6f}", f"{acc_b:.6f}")
          for th, acc_f, acc_b in zip(thresholds, curves["fused"], curves["baseline"])))


def write_identifications_csv(rows, path):
    """One row per identification; a blank chosen_source_id is no match."""
    _csv(path, ("t", "method", "chosen_source_id", "iou_vs_gt", "candidate_count"),
         ((f"{t:.2f}", method, chosen, f"{overlap:.6f}", candidates)
          for t, method, chosen, overlap, candidates in rows))


def write_dataset_csv(dataset, path):
    """One row per sample; each feature as the shortest decimal that reads back to it."""
    _csv(path, ["vehicle_id", "t", "label"] + [f"f{i}" for i in range(1, FEATURE_SIZE + 1)],
         ((s.vehicle_id, f"{s.t:.2f}", s.label, *map(repr, s.features)) for s in dataset))


def write_traces_csv(rows, path):
    """rows: (vehicle_id, t, probability, raw, aggressive, conservative)"""
    _csv(path, ("vehicle_id", "t", "probability", "raw", "aggressive", "conservative"),
         ((vid, f"{t:.2f}", f"{prob:.6f}", raw, agg, cons)
          for vid, t, prob, raw, agg, cons in rows))


def _load_model_for(cfg: RunConfig, required: bool):
    if not cfg.model_path:
        if required:
            raise ConfigError("model_path: required for this command")
        return None
    try:
        return load_model(cfg.model_path)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ConfigError(f"model_path: cannot load {cfg.model_path!r}: {exc}") from exc


def _simulate(cfg: RunConfig, model) -> list:
    """Each seed's (log, store), recorded on the coarsest grid that holds every
    trajectory row and every frame; a placement or a model can fail in any run."""
    dt = cfg.scenario.dt_sim
    record_period = math.gcd(grid_stride(LOG_PERIOD, dt),
                             grid_stride(cfg.sensing.frame_period, dt)) * dt
    return [simulate_run(replace(cfg.scenario, seed=seed), cfg.channel, model=model,
                         record_period=record_period) for seed in cfg.seeds]


def _simulate_files(cfg: RunConfig, out: Path, runs):
    for seed, (log, store) in zip(cfg.seeds, runs):
        sdir = _seed_dir(out, seed)
        write_trajectory_csv(log, sdir / "trajectory.csv")
        write_maneuvers_csv(log.plans, sdir / "maneuvers.csv")
        write_channel_csv(store, sdir / "twin_channel.csv")
        depth_dir = sdir / "depth"
        depth_dir.mkdir(exist_ok=True)
        # (t, detections) per frame; each raster is rendered, written and dropped
        detections = sense_log(log, cfg.camera, replace(cfg.sensing, seed=seed), depth_dir)
        write_detections_csv(detections, sdir / "detections.csv")


def _fuse_eval(cfg: RunConfig, model) -> list:
    """Per seed: its identification rows, accuracy curves and summary; ConfigError
    on a seed whose frames never show the target, which depends on the draw."""
    scored = []
    for seed in cfg.seeds:
        rows, frames, overlap_pairs = build_fuse_corpus(
            cfg.fuse_eval, cfg.camera, replace(cfg.sensing, seed=seed), cfg.fusion, seed)
        if frames == 0:
            raise ConfigError(f"seed {seed}: no fuse-eval corpus frame shows the target")
        curves = identification_accuracy(rows, cfg.fuse_eval.thresholds)
        at = [abs(th - REPORT_IOU) < 1e-9 for th in cfg.fuse_eval.thresholds].index(True)
        fused_07, base_07 = curves["fused"][at], curves["baseline"][at]
        scored.append((rows, curves, {
            "frames": frames,
            "overlap_pair_fraction": overlap_pairs / frames,
            "accuracy_fused_at_0.7": fused_07,
            "accuracy_baseline_at_0.7": base_07,
            "gap_at_0.7": fused_07 - base_07,
        }))
    return scored


def _fuse_eval_files(cfg: RunConfig, out: Path, scored: list):
    for seed, (rows, curves, summary) in zip(cfg.seeds, scored):
        sdir = _seed_dir(out, seed)
        write_curve_csv(curves, sdir / "curve.csv", cfg.fuse_eval.thresholds)
        write_identifications_csv(rows, sdir / "identifications.csv")
        _dump_json(summary, sdir / "summary.json")


def _train(cfg: RunConfig, model):
    """The training dataset and the model fitted to it; DegenerateDataset when
    the dataset is empty or holds a single class, which only the runs show."""
    dataset = build_dataset(cfg.scenario, cfg.window, cfg.seeds,
                            include_nonchangers=cfg.training.include_nonchangers)
    return dataset, train(dataset, cfg.training)


def _train_files(cfg: RunConfig, out: Path, fitted):
    dataset, model = fitted
    save_model(model, out / "model.json")
    write_dataset_csv(dataset, out / "dataset.csv")
    _dump_json({"samples": len(dataset),
                "positives": int(sum(s.label for s in dataset)),
                "train_seeds": list(cfg.seeds),
                "hidden": cfg.training.hidden,
                "epochs": cfg.training.epochs}, out / "training_summary.json")


def _predict_eval(cfg: RunConfig, model):
    """Per seed its trace rows (vehicle, t, probability, raw, aggressive and
    conservative bits), and each kind of bit's metrics over every seed."""
    combined = {"raw": ([], []), "aggressive": ([], []), "conservative": ([], [])}
    traced = []
    for traces, plans in prediction_runs(cfg.scenario, model, cfg.seeds, cfg.channel):
        rows = []
        for vid in sorted(traces):
            times, probs, raw = traces[vid]
            agg = aggressive_filter(raw, cfg.filters.tau_a)
            cons = conservative_filter(raw, cfg.filters.tau_c, cfg.filters.thres)
            truth = ground_truth_bits(vid, times, plans, cfg.window.tau)
            for name, bits in (("raw", raw), ("aggressive", agg), ("conservative", cons)):
                combined[name][0].extend(bits.tolist())
                combined[name][1].extend(truth.tolist())
            rows.extend((vid, *row) for row in zip(times.tolist(), probs.tolist(),
                                                   raw.tolist(), agg.tolist(), cons.tolist()))
        traced.append(rows)
    metrics = {}
    for name, (pred, truth) in combined.items():
        accuracy, tpr, fpr = classification_metrics(pred, truth)
        metrics[name] = {"accuracy": accuracy, "true_positive_rate": tpr,
                         "false_positive_rate": fpr,
                         "timesteps": len(pred)}
    return traced, metrics


def _predict_eval_files(cfg: RunConfig, out: Path, evaluated):
    traced, metrics = evaluated
    for seed, rows in zip(cfg.seeds, traced):
        write_traces_csv(rows, _seed_dir(out, seed) / "traces.csv")
    _dump_json(metrics, out / "metrics.json", allow_nan=False)


def _closed_loop(cfg: RunConfig, model):
    """Each seed's (guided, baseline) reports, and their paired comparison."""
    pairs = [closed_loop_pair(cfg.scenario, model, seed, cfg.channel) for seed in cfg.seeds]
    return pairs, compare_paired_runs(*zip(*pairs))  # guided reports, baseline reports


def _closed_loop_files(cfg: RunConfig, out: Path, compared):
    pairs, comparison = compared
    for seed, (guided, baseline) in zip(cfg.seeds, pairs):
        sdir = _seed_dir(out, seed)
        _dump_json(asdict(guided), sdir / "report_guided.json")
        _dump_json(asdict(baseline), sdir / "report_baseline.json")
    _dump_json(comparison, out / "comparison.json")


# name -> (compute(cfg, model), write(cfg, out, computed), whether it requires a
# model). compute does all of the command's work, so each failure it can meet
# comes before the first write, and returns only what write reads; write only
# formats and writes. The one exception is simulate's sense_log: it renders
# each raster as it writes it, so that one raster is alive per process.
COMMANDS = {
    "simulate": (_simulate, _simulate_files, False),
    "fuse-eval": (_fuse_eval, _fuse_eval_files, False),
    "train": (_train, _train_files, False),
    "predict-eval": (_predict_eval, _predict_eval_files, True),
    "closed-loop": (_closed_loop, _closed_loop_files, True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lanesight",
        description="Highway simulation, target identification, and "
                    "lane-change prediction experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the JSON run config")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seeds", default=None,
                         help="comma-separated override of the config seed list")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    compute, write, model_required = COMMANDS[args.command]
    try:  # nothing is written until every check and all of the work have passed
        cfg = load_config(args.config)
        if args.seeds is not None:
            try:
                cfg = replace(cfg, seeds=[int(s) for s in args.seeds.split(",") if s])
            except ValueError as exc:  # RunConfig's own message names the field
                raise ConfigError(f"--seeds: {str(exc).removeprefix('seeds: ')}") from exc
        computed = compute(cfg, _load_model_for(cfg, required=model_required))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_echo(cfg, out / "config.echo.json")
        write(cfg, out, computed)
    except (ConfigError, InfeasiblePlacement, DegenerateDataset) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ProbabilityOutOfRange as exc:  # only a model's forward pass gives one
        print(f"config error: model_path: {cfg.model_path!r} gives a {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
