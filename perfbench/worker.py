"""One benchmark round in a fresh process: set up, then run iterations.

Usage: python3 perfbench/worker.py SPEC.json

The spec (written by run.py) names the workload plan, the run directory,
whether to record spans, the monotonic time at which run.py spawned this
process, and the wall-time budget for iterations. The result JSON goes to
the spec's `result` path; with tracing on, spans go to its `spans` path.
"""
from __future__ import annotations

import json
import resource
import shutil
import sys
import time
from pathlib import Path

# Size of the reference computation: about 0.06 s on one core of a Xeon VM.
REFERENCE_LOOP = 400_000
REFERENCE_PIXELS = 960 * 540
REFERENCE_PASSES = 10


def reference_s(np) -> float:
    """Wall time of a fixed computation that is not lanesight's: an
    interpreter loop and raster-sized array arithmetic, the program's own
    mix. Command times are divided by it so that drifts in the host's speed
    cancel out of the gated figure."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    raster = np.arange(REFERENCE_PIXELS, dtype=np.float64)
    for _ in range(REFERENCE_PASSES):
        raster = np.sqrt(raster * 1.0001 + 1.0)
    return time.perf_counter() - start


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    plan, run = spec["plan"], spec["run"]
    it = f"{run}/iter"
    attempted = 0
    problems: list[str] = []

    # Set-up: imports and config load.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from lanesight import cli
    from lanesight.config import load_config

    import numpy
    import workloads
    for name in plan["configs"]:
        load_config(f"{run}/{name}.json")
    setup_s = time.monotonic() - spec["spawned"]

    recorder = None
    if spec["traced"]:
        import spans
        recorder = spans.Recorder()
        recorder.install()

    iterations = []
    ready = time.monotonic()
    last_s = 0.0
    # Start another iteration only if it should end within the budget.
    while spec["budget_s"] > 0 and (
            not iterations or time.monotonic() - ready + last_s <= spec["budget_s"]):
        began = time.monotonic()
        out = Path(it)
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        if recorder is not None:
            before = dict(recorder.calls)
            root = recorder.open(spans.ROOT)
        times, reference, failed = {}, [], 0
        for label, argv in plan["commands"]:
            attempted += 1
            reference.append(reference_s(numpy))
            start = time.perf_counter()
            code = cli.main(workloads.fill(argv, run, it))
            times[label] = time.perf_counter() - start
            if code != 0:
                failed += 1
                problems.append(f"{label} exited {code}")
        if recorder is not None:
            recorder.close(root, {k: v - before[k] for k, v in recorder.calls.items()})
        reference.append(reference_s(numpy))
        found, facts = workloads.check(plan, out)
        problems.extend(found)
        digest, written = workloads.tree_facts(out)
        failed = min(len(times), failed + bool(found))
        iterations.append({"times": times,
                           "reference_s": sum(reference) / len(reference),
                           "failed": failed,
                           "digest": digest, "bytes_written": written,
                           "facts": facts})
        shutil.rmtree(out)
        last_s = time.monotonic() - began

    result = {"python": sys.version.split()[0], "numpy": numpy.__version__,
              "setup_s": setup_s, "attempted": attempted,
              "problems": problems,
              "iterations": iterations,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if recorder is not None:
        recorder.dump(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
