"""lanesight benchmark: real CLI commands on two workloads.

Usage:
  python3 perfbench/run.py --workload {sense,drive}
                           --seed N --seconds S --trace {0,1} [--small]

Run from the root of a source checkout; the program is imported from
`src/`. A run is a sequence of rounds, each in a fresh worker process
(perfbench/worker.py): the worker sets up (imports, config load), then
runs iterations of the workload's commands until its share of --seconds
is spent. Every iteration writes to a scratch directory under
`.perfbench_work/`, is checked, hashed and deleted.

--trace 0 runs one measuring round between eight set-up-only rounds, and
reports the end-to-end metrics. --trace 1 alternates plain and traced rounds;
traced rounds record spans (perfbench/spans.py) and the run reports
per-layer metrics plus the tracing overhead (traced minus plain iteration
time).

stdout: a human-readable report; one JSON line {"report": ...} with every
end-to-end figure (median, tail percentile and sample count for timings;
"n/a" where a figure does not apply to the workload), the environment and
the output digest; then the result line {"correct", "attempted", "failed",
"metrics"}. Exits 1 without a result line if the benchmark cannot run.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("sense", "drive")
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
# A round is (traced, share of --seconds). Rounds with no share only set up:
# they are the extra set-up samples, taken before and after the measuring
# round so that their median spans the run's drift in machine speed. Traced
# and plain rounds alternate so that the tracing overhead is not confounded
# with that drift.
PLAIN_ROUNDS = ((False, 0.0),) * 4 + ((False, 1.0),) + ((False, 0.0),) * 4
TRACE_ROUNDS = ((False, 0.25), (True, 0.25), (False, 0.25), (True, 0.25))
TIME_LIMIT_S = 170.0
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
# The sense workload writes 301 DPT1 rasters (≈0.6 GB) per iteration.
FREE_BYTES_NEEDED = {"sense": 2 << 30}

COMMAND_METRICS = {"simulate": "simulate_s", "fuse-eval": "fuse_eval_s",
                   "closed-loop": "closed_loop_s", "train": "train_s",
                   "predict-eval": "predict_eval_s"}

# Gated metrics (BENCHMARK.json end_to_end): defined on every workload.
# command_ref is an iteration's command time over the mean time of a fixed
# reference computation run before each command and after the last one
# (worker.reference_s). On a shared host whose speed drifts by a third over
# minutes it is far steadier than command_s, which is reported, not gated.
END_TO_END = {"setup_s": "s", "command_ref": "x", "peak_rss_mb": "MB",
              "bytes_written": "bytes"}

# Every end-to-end figure the report prints, with its unit.
REPORT_UNITS = {"setup_s": "s", "command_s": "s", "command_ref": "x",
                "reference_s": "s", "simulate_s": "s",
                "fuse_eval_s": "s", "closed_loop_s": "s", "train_s": "s",
                "predict_eval_s": "s", "frames_per_s": "1/s", "sim_s_per_s": "s/s",
                "peak_rss_mb": "MB", "bytes_written": "bytes", "fail_ratio": "ratio",
                "id_gap_at_0.7": "fraction", "pred_accuracy_raw": "fraction"}

# Per-layer metrics (BENCHMARK.json per_layer), from traced iterations.
PER_LAYER = {
    "sensing.render_depth_map.calls": "count",
    "sensing.render_depth_map.busy_s": "s",
    "sensing.render_depth_map.self_s": "s",
    "sensing.render_depth_map.pixels": "count",
    "sensing.render_truth_boxes.busy_s": "s",
    "sensing.render_truth_boxes.boxes": "count",
    "sensing.emulate_detections.busy_s": "s",
    "sensing.emulate_detections.detections": "count",
    "geometry.world_to_camera.calls": "count",
    "geometry.project_cuboid_hull.calls": "count",
    "sensing.write_depth_map.busy_s": "s",
    "sensing.write_depth_map.bytes": "bytes",
    "cli.write.calls": "count",
    "cli.write.busy_s": "s",
    "cli.write.bytes": "bytes",
    "cli.self_s": "s",
    "fusion.identify.calls": "count",
    "fusion.identify.busy_s": "s",
    "fusion.identify.candidates": "count",
    "fusion.identify.no_match": "count",
    "fusion.identify.depth_evaluated": "count",
    "fusion.depth_evaluate.busy_s": "s",
    "fusion.depth_evaluate.samples": "count",
    "fusion.depth_read_ratio": "ratio",
    "scene.step.calls": "count",
    "scene.step.busy_s": "s",
    "scene.step.self_s": "s",
    "scene.step.vehicle_steps": "count",
    "scene.step.us_per_vehicle_step": "us",
    "scene.build_scenario.busy_s": "s",
    "scene.states_at.calls": "count",
    "twinlink.publish.calls": "count",
    "twinlink.publish.busy_s": "s",
    "twinlink.query_target.calls": "count",
    "twinlink.query_target.busy_s": "s",
    "twinlink.query_advisory.calls": "count",
    "twinlink.query_advisory.busy_s": "s",
    "prediction.features_from_states.calls": "count",
    "prediction.features_from_states.busy_s": "s",
    "prediction.infer.calls": "count",
    "prediction.infer.busy_s": "s",
    "pipeline.simulate_run.self_s": "s",
    "prediction.train.busy_s": "s",
    "prediction.train.sample_epochs_per_s": "1/s",
    "prediction.label_windows.busy_s": "s",
    "prediction.nonchanger_negatives.busy_s": "s",
    "pipeline.build_dataset.self_s": "s",
    "pipeline.render_frames.self_s": "s",
    "pipeline.build_fuse_corpus.self_s": "s",
    "pipeline.closed_loop_pair.self_s": "s",
    "evaluation.safety_report.busy_s": "s",
    "evaluation.identification_accuracy.busy_s": "s",
    "config.load_config.busy_s": "s",
    "seeding.rng_for.calls": "count",
    "seeding.derived_seed.calls": "count",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

# The span each workload is expected to spend the most self time in.
EXPECTED_TOP_SELF = {"sense": "sensing.render_depth_map", "drive": "scene.step"}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def timing(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (null below 21 samples, where that percentile would not exceed the
    median), and the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    if n > 20:
        p = math.floor(100 * (n - 10) / n)
        tail = {"p": p, "value": ordered[math.ceil(p * n / 100) - 1]}
    return {"median": statistics.median(ordered), "tail": tail, "n": n}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_round(plan: dict, run_dir: str, index: int, traced: bool, budget_s: float,
              deadline: float) -> dict:
    spec_path = WORK / plan["workload"] / f"spec-{index}.json"
    result_path = WORK / plan["workload"] / f"result-{index}.json"
    spans_path = WORK / "spans" / f"{plan['workload']}-round{index}.json"
    env = {**os.environ, **BLAS_THREADS}
    spec = {"plan": plan, "run": run_dir, "traced": traced, "budget_s": budget_s,
            "result": str(result_path), "spans": str(spans_path)}
    spec["spawned"] = time.monotonic()
    spec_path.write_text(json.dumps(spec))
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                          cwd=ROOT, env=env, timeout=timeout)
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"round {index} worker exited {proc.returncode}")
    result = json.loads(result_path.read_text())
    result["traced"] = traced
    if traced:
        result["spans"] = json.loads(spans_path.read_text())["spans"]
    return result


def layer_metrics(traced_rounds: list[dict], overhead_s: float,
                  plain_s: float) -> tuple[dict, list]:
    """Median over traced iterations of every PER_LAYER metric."""
    per_iteration = []
    self_totals: dict[str, list[float]] = {}
    for result in traced_rounds:
        for stats in spans.iteration_stats(result["spans"]):
            def get(name, field):
                return stats.get(name, {}).get(field, 0)
            values = {}
            for metric in PER_LAYER:
                name, field = metric.rsplit(".", 1)
                values[metric] = get(name, field)
            values["cli.self_s"] = sum(entry.get("self_s", 0.0)
                                       for name, entry in stats.items()
                                       if name.startswith("cli."))
            values["fusion.identify.depth_evaluated"] = (
                stats.get("fusion.depth_evaluate", {}).get("via", {})
                .get("fusion.identify", 0))
            pixels = get("sensing.render_depth_map", "pixels")
            values["fusion.depth_read_ratio"] = (
                get("fusion.depth_evaluate", "samples") / pixels if pixels else 0)
            steps = get("scene.step", "vehicle_steps")
            values["scene.step.us_per_vehicle_step"] = (
                1e6 * get("scene.step", "busy_s") / steps if steps else 0)
            busy = get("prediction.train", "busy_s")
            values["prediction.train.sample_epochs_per_s"] = (
                get("prediction.train", "sample_epochs") / busy if busy else 0)
            values["trace.overhead_s"] = overhead_s
            values["trace.overhead_ratio"] = overhead_s / plain_s
            per_iteration.append(values)
            for name, entry in stats.items():
                if "self_s" in entry:
                    self_totals.setdefault(name, []).append(entry["self_s"])
    metrics = {metric: {"value": statistics.median(v[metric] for v in per_iteration),
                        "unit": unit}
               for metric, unit in PER_LAYER.items()}
    top = sorted(((statistics.median(v), name) for name, v in self_totals.items()),
                 reverse=True)[:5]
    return metrics, [{"span": name, "self_s": s} for s, name in top]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smallest input sizes, for the self-test")
    args = parser.parse_args(argv)
    try:
        report, result = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_report(report)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


def run(args) -> tuple[dict, dict]:
    started = time.monotonic()
    if not (ROOT / "src" / "lanesight" / "cli.py").is_file():
        raise BenchError(f"no lanesight sources under {ROOT / 'src'}")
    free = shutil.disk_usage(ROOT).free
    needed = FREE_BYTES_NEEDED.get(args.workload, 0)
    if free < needed:
        raise BenchError(f"{args.workload} needs {needed >> 20} MiB free disk under "
                         f"{ROOT}, only {free >> 20} MiB are free")

    plan = workloads.plan(args.workload, args.seed, args.small)
    run_dir = f"{WORK.name}/{args.workload}"
    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    (WORK / args.workload).mkdir(parents=True)
    (WORK / "spans").mkdir(exist_ok=True)
    for old in (WORK / "spans").glob(f"{args.workload}-round*.json"):
        old.unlink()
    for name, doc in plan["configs"].items():
        path = WORK / args.workload / f"{name}.json"
        path.write_text(json.dumps(workloads.fill(doc, run_dir, f"{run_dir}/iter")))

    modes = TRACE_ROUNDS if args.trace else PLAIN_ROUNDS
    deadline = started + TIME_LIMIT_S
    try:
        rounds = [run_round(plan, run_dir, i, traced, share * args.seconds, deadline)
                  for i, (traced, share) in enumerate(modes)]
    finally:
        shutil.rmtree(WORK / args.workload, ignore_errors=True)

    plain = [r for r in rounds if not r["traced"]]
    measured = [r for r in plain if r["iterations"]]
    plain_iters = [it for r in measured for it in r["iterations"]]
    all_iters = [it for r in rounds for it in r["iterations"]]
    problems = [p for r in rounds for p in r["problems"]]
    digests = sorted({it["digest"] for it in all_iters})
    if len(digests) != 1:
        problems.append(f"outputs differ between iterations: {len(digests)} digests")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(it["failed"] for it in all_iters)

    totals = [sum(it["times"].values()) for it in plain_iters]
    figures = {
        "setup_s": timing([r["setup_s"] for r in plain]),
        "command_s": timing(totals),
        "command_ref": timing([total / it["reference_s"]
                               for it, total in zip(plain_iters, totals)]),
        "reference_s": timing([it["reference_s"] for it in plain_iters]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in measured),
        "bytes_written": statistics.median(it["bytes_written"] for it in plain_iters),
        "fail_ratio": failed / attempted,
    }
    for label, metric in COMMAND_METRICS.items():
        if label in plain_iters[0]["times"]:
            figures[metric] = timing([it["times"][label] for it in plain_iters])
    facts = plain_iters[0]["facts"]
    if "frames" in facts:
        figures["frames_per_s"] = timing([it["facts"]["frames"] / total
                                          for it, total in zip(plain_iters, totals)])
    if "sim_s" in facts:
        figures["sim_s_per_s"] = timing([it["facts"]["sim_s"] / total
                                         for it, total in zip(plain_iters, totals)])
    for key in ("id_gap_at_0.7", "pred_accuracy_raw"):
        if key in facts:
            figures[key] = facts[key]

    report = {
        "workload": args.workload, "seed": args.seed, "lanesight_seeds": plan["seeds"],
        "seconds": args.seconds, "trace": args.trace, "small": args.small,
        "end_to_end": {name: {"unit": unit, "value": figures.get(name, "n/a")}
                       for name, unit in REPORT_UNITS.items()},
        "output_sha256": digests[0] if len(digests) == 1 else digests,
        "problems": problems[:20],
        "environment": {
            "python": plain[0]["python"], "numpy": plain[0]["numpy"],
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "git_commit": git_commit(), "blas_threads": BLAS_THREADS,
        },
    }

    if args.trace:
        traced_totals = [sum(it["times"].values())
                         for r in rounds if r["traced"] for it in r["iterations"]]
        plain_s = statistics.median(totals)
        overhead = statistics.median(traced_totals) - plain_s
        metrics, top = layer_metrics([r for r in rounds if r["traced"]], overhead,
                                     plain_s)
        report["largest_self_time"] = top
        expected = EXPECTED_TOP_SELF.get(args.workload)
        if expected:
            report["largest_self_time_is"] = {"expected": expected,
                                              "holds": top[0]["span"] == expected}
    else:
        metrics = {name: {"value": figures[name]["median"]
                          if isinstance(figures[name], dict) else figures[name],
                          "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return report, result


def print_report(report: dict):
    print(f"lanesight benchmark: workload {report['workload']}, seed {report['seed']} "
          f"(lanesight seeds {report['lanesight_seeds']}), trace {report['trace']}")
    for name, entry in report["end_to_end"].items():
        value = entry["value"]
        if isinstance(value, dict):
            tail = value["tail"]
            tail_text = f"p{tail['p']} {tail['value']:.4f}" if tail else "tail n/a"
            text = f"median {value['median']:.4f}, {tail_text}, n={value['n']}"
        else:
            text = str(value)
        print(f"  {name:18s} {entry['unit']:8s} {text}")
    for problem in report["problems"]:
        print(f"  problem: {problem}")


if __name__ == "__main__":
    raise SystemExit(main())
