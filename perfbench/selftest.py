"""Self-test of the benchmark: a smallest-size pass over every workload.

Usage: python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its format and names the same metrics
as run.py; that every workload, plain and traced, prints a correct result
line with every declared metric and unit, and a report with every
end-to-end figure (a value, or "n/a" where it does not apply); that every
per-layer metric is non-zero on at least one workload, so a misspelt span
name shows; and that run.py fails without a result line where there are no
lanesight sources. Exits 1 if any check fails.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
failures: list[str] = []


def check(ok: bool, what: str):
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def check_benchmark_json() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                       "per_layer"}, "BENCHMARK.json has exactly the contract keys")
    names = [w["name"] for w in doc["workloads"]]
    check(names == list(run.WORKLOADS), "workloads match run.py")
    check(all(set(w) == {"name", "why"} and len(w["why"]) <= 200
              and "\n" not in w["why"] for w in doc["workloads"]),
          "each workload has a name and a one-line why of at most 200 characters")
    metrics = doc["end_to_end"] + doc["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    check(all(NAME.fullmatch(n) for n in all_names) and len(set(all_names)) == len(all_names),
          "names are well formed and used once")
    check(all(UNIT.fullmatch(m["unit"]) for m in metrics), "units are well formed")
    check({m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END,
          "end_to_end metrics and units match run.py")
    check({m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER,
          "per_layer metrics and units match run.py")
    check(all(0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
              for m in doc["end_to_end"]), "end_to_end bounds are within (0, 0.25]")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    check(setup["bound"] == max(m["bound"] for m in doc["end_to_end"]),
          "setup_s has the largest bound")
    return doc


def run_small(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def main() -> int:
    doc = check_benchmark_json()
    layer_nonzero = {name: False for name in run.PER_LAYER}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = run_small(workload, trace)
            label = f"{workload} --trace {trace}"
            check(proc.returncode == 0, f"{label} exits 0")
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(proc.stderr[-2000:])
                continue
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])["report"]
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{label} result is correct")
            declared = doc["per_layer" if trace else "end_to_end"]
            check({m: v["unit"] for m, v in result["metrics"].items()}
                  == {m["name"]: m["unit"] for m in declared},
                  f"{label} emits every declared metric with its unit")
            figures = report["end_to_end"]
            check({m: v["unit"] for m, v in figures.items()} == run.REPORT_UNITS
                  and all(v["value"] is not None for v in figures.values()),
                  f"{label} report has every end-to-end figure, or n/a")
            check(figures["fail_ratio"]["value"] == 0, f"{label} fail_ratio is 0")
            if trace:
                for name, value in result["metrics"].items():
                    layer_nonzero[name] |= value["value"] != 0
                expected = run.EXPECTED_TOP_SELF.get(workload)
                if expected:
                    print(f"info: {label} largest self time: "
                          f"{report['largest_self_time'][0]['span']}")
    missing = sorted(name for name, seen in layer_nonzero.items() if not seen)
    check(not missing, f"every per-layer metric is non-zero somewhere {missing or ''}")

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_small("sense", 0, cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without lanesight sources run.py fails and prints no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
