"""The benchmark's workloads: inputs made from a seed, the CLI commands of one
iteration, and the checks on their outputs.

Each workload stresses different layers (see BENCHMARK.json for the why):

  sense   simulate, then fuse-eval: sensing rasters, the DPT1 writer and
          memory, then the same sensing layer plus fusion.identify, no writes
  drive   train, closed-loop with 48 neighbors, predict-eval: MLP training and
          the simulator at the default 9-vehicle density, then scene.step,
          twinlink and per-vehicle infer at high density

Paths handed to lanesight are relative to the checkout root, the working
directory of every benchmark process, so the outputs (and their digest)
do not depend on where the checkout lives.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path

DENSE_SCENARIO = {"neighbor_count": 48, "potential_changer_count": 12,
                  "spawn_max_s": 540, "accident_s": 600, "road_length": 650}
# lanesight seeds are drawn from here: the dense scenario can place its
# vehicles for each of them. Held-out seeds are offset to stay disjoint.
SEED_POOL = range(1, 201)
HELD_OUT_OFFSET = 1000
DPT_HEADER = 12
DEFAULT_DURATION = 30.0
TRAIN_SEED_COUNT = 3
HELD_OUT_SEED_COUNT = 2

# Sizes for the self-test: every command and check runs, in about a second.
SMALL = {"sim": {"scenario": {"duration": 2.0}},
         "fuse": {"fuse_eval": {"frames": 20}},
         "train": {"training": {"epochs": 5}},
         "loop": {"scenario": {"duration": 3.0}},
         "pred": {"scenario": {"duration": 3.0}}}


def _seeds(seed: int, count: int) -> list[int]:
    return random.Random(seed).sample(SEED_POOL, count)


def _csv(seeds) -> str:
    return ",".join(str(s) for s in seeds)


def _merge(base: dict, extra: dict) -> dict:
    out = {key: dict(value) if isinstance(value, dict) else value
           for key, value in base.items()}
    for key, value in extra.items():
        out[key] = {**out.get(key, {}), **value} if isinstance(value, dict) else value
    return out


def _duration(config: dict) -> float:
    return config.get("scenario", {}).get("duration", DEFAULT_DURATION)


def plan(workload: str, seed: int, small: bool) -> dict:
    """The workload's configs, seeds and command lines, made from `seed`.

    Every path is relative to the run directory `<run>` or the iteration's
    output directory `<iter>`, filled in later.
    """
    base = {"sim": {}, "fuse": {},
            "train": {},
            "loop": {"scenario": DENSE_SCENARIO, "model_path": "<iter>/train/model.json"},
            "pred": {"model_path": "<iter>/train/model.json"}}
    names = {"sense": ("sim", "fuse"), "drive": ("train", "loop", "pred")}[workload]
    configs = {name: _merge(base[name], SMALL[name] if small else {}) for name in names}
    if workload == "sense":
        sim_seeds, fuse_seeds = _seeds(seed, 1), _seeds(seed + 1, 1)
        seeds = {"simulate": sim_seeds, "fuse-eval": fuse_seeds}
        commands = [
            ("simulate", ["simulate", "--config", "<run>/sim.json",
                          "--out", "<iter>/sim", "--seeds", _csv(sim_seeds)]),
            ("fuse-eval", ["fuse-eval", "--config", "<run>/fuse.json",
                           "--out", "<iter>/fuse", "--seeds", _csv(fuse_seeds)]),
        ]
    else:
        train_seeds = _seeds(seed, TRAIN_SEED_COUNT)
        loop_seeds = _seeds(seed + 1, 1)
        held_out = [s + HELD_OUT_OFFSET for s in _seeds(seed + 2, HELD_OUT_SEED_COUNT)]
        seeds = {"train": train_seeds, "closed-loop": loop_seeds,
                 "predict-eval": held_out}
        commands = [
            ("train", ["train", "--config", "<run>/train.json", "--out", "<iter>/train",
                       "--seeds", _csv(train_seeds)]),
            ("closed-loop", ["closed-loop", "--config", "<run>/loop.json",
                             "--out", "<iter>/loop", "--seeds", _csv(loop_seeds)]),
            ("predict-eval", ["predict-eval", "--config", "<run>/pred.json",
                              "--out", "<iter>/pred", "--seeds", _csv(held_out)]),
        ]
    return {"workload": workload, "seeds": seeds, "configs": configs,
            "commands": commands,
            "durations": {name: _duration(config) for name, config in configs.items()}}


def fill(value, run: str, it: str):
    """Replace the <run> and <iter> placeholders inside strings, lists, dicts."""
    if isinstance(value, str):
        return value.replace("<run>", run).replace("<iter>", it)
    if isinstance(value, list):
        return [fill(v, run, it) for v in value]
    if isinstance(value, dict):
        return {k: fill(v, run, it) for k, v in value.items()}
    return value


def _load_json(path: Path, problems: list[str]):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"{path}: {exc}")
        return None


def check(p: dict, out: Path) -> tuple[list[str], dict]:
    """Check one iteration's outputs; return (problems, work and quality facts)."""
    problems: list[str] = []
    facts: dict = {}
    if p["workload"] == "sense":
        frames = 0
        expected = int(round(p["durations"]["sim"] / 0.1)) + 1
        for seed in p["seeds"]["simulate"]:
            sdir = out / "sim" / f"seed_{seed}"
            for name in ("trajectory.csv", "maneuvers.csv", "twin_channel.csv",
                         "detections.csv"):
                if not (sdir / name).is_file():
                    problems.append(f"missing {sdir / name}")
            dpt = sorted((sdir / "depth").glob("*.dpt"))
            if len(dpt) != expected:
                problems.append(f"{sdir}: {len(dpt)} .dpt files, expected {expected}")
            for path in dpt[:1]:
                with open(path, "rb") as fh:
                    head = fh.read(DPT_HEADER)
                w = int.from_bytes(head[4:8], "little")
                h = int.from_bytes(head[8:12], "little")
                if head[:4] != b"DPT1" or path.stat().st_size != DPT_HEADER + 4 * w * h:
                    problems.append(f"{path}: not a DPT1 raster")
            frames += len(dpt)
        gaps = []
        for seed in p["seeds"]["fuse-eval"]:
            sdir = out / "fuse" / f"seed_{seed}"
            for name in ("curve.csv", "identifications.csv"):
                if not (sdir / name).is_file():
                    problems.append(f"missing {sdir / name}")
            summary = _load_json(sdir / "summary.json", problems)
            if summary is None:
                continue
            fused = summary["accuracy_fused_at_0.7"]
            base = summary["accuracy_baseline_at_0.7"]
            if fused < base:
                problems.append(f"{sdir}: fused {fused} < baseline {base} at IoU 0.7")
            frames += summary["frames"]
            gaps.append(fused - base)
        facts["frames"] = frames
        if gaps:
            facts["id_gap_at_0.7"] = sum(gaps) / len(gaps)
    else:
        # Imported here: run.py imports this module without lanesight on its path.
        from lanesight.prediction import load_model
        try:
            load_model(out / "train" / "model.json")
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"model.json does not load: {exc}")
        summary = _load_json(out / "train" / "training_summary.json", problems)
        if summary is not None and summary.get("samples", 0) < 1:
            problems.append("training_summary.json: no samples")
        loop_seeds = p["seeds"]["closed-loop"]
        comparison = _load_json(out / "loop" / "comparison.json", problems)
        if comparison is not None and comparison.get("pair_count") != len(loop_seeds):
            problems.append(f"comparison.json: pair_count {comparison.get('pair_count')}"
                            f" != {len(loop_seeds)} seeds")
        for seed in loop_seeds:
            for policy in ("guided", "baseline"):
                _load_json(out / "loop" / f"seed_{seed}" / f"report_{policy}.json",
                           problems)
        metrics = _load_json(out / "pred" / "metrics.json", problems)
        if metrics is not None:
            facts["pred_accuracy_raw"] = metrics["raw"]["accuracy"]
        durations = p["durations"]
        facts["sim_s"] = (durations["train"] * TRAIN_SEED_COUNT
                          + 2 * durations["loop"] * len(loop_seeds)
                          + durations["pred"] * HELD_OUT_SEED_COUNT)
    return problems, facts


def tree_facts(root: Path) -> tuple[str, int]:
    """sha256 over every file's relative path and content, and total bytes."""
    digest = hashlib.sha256()
    total = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = Path(dirpath) / name
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(hashlib.file_digest(fh, "sha256").digest())
            total += path.stat().st_size
    return digest.hexdigest(), total
