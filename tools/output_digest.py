"""Run a fixed set of lanesight commands and print a digest of every output file.

Usage: python3 tools/output_digest.py [--src DIR] [--against DIR] > digest.txt

The commands run in-process, in a fresh temporary directory, with relative
paths, so `config.echo.json` (which echoes `model_path`) does not depend on
where they ran. One line per output file, `sha256  path`, sorted by path.
The exit status is 1 if any command does not exit 0.

To check that a change keeps every output byte-identical, name the other
tree's checkout (for example the parent commit's):

    python3 tools/output_digest.py --against /path/to/parent

That digests this tree in-process and the other one in a subprocess, since
both import `lanesight`, prints each line that differs (`-` the other tree,
`+` this one) and exits 1 on any difference or failed command.

Every command fans its runs (`train`, `predict-eval`, `closed-loop`) or its
sensor frames (`simulate`, `fuse-eval`) out over the CPUs of the affinity
mask, so run the comparison once more on one CPU, where every run and frame
happens in the calling process; both must report the same digest:

    taskset -c 0 python3 tools/output_digest.py --against /path/to/parent

`--src` names the lanesight source tree to import (default: this checkout's
`src`). The set covers every command: `train` on seeds 1-3, `predict-eval` on
held-out seeds with the default filters, `train` on seeds 4-5 with one hidden
unit and a batch larger than the dataset (so each epoch is one short batch),
`predict-eval` on that model, `predict-eval` once more at the filters' edges
(`tau_a` 0, so the aggressive filter is the identity; a 7-wide conservative
window at threshold 0.2; a 2 s labeling window; a channel publishing every
0.2 s with 0.25 s latency), `closed-loop` on the default, on a 48-neighbour scene, on a
channel that publishes every 0.2 s with 0.25 s latency (so the guided run's
twin queries and advisories see stale rows off the default grid), on a latency
equal to the 1 s inference period (each round shows as the next is issued), on
a latency longer than the 10 s run (no advisory ever shows), at the guided
driver's lowest trigger, `driver.p_trigger` 0.0 (every car with a visible
advisory above 0 is flagged), and on 2 lanes (3 neighbours, the changers in
the rightmost lane) and on 4, each lane but the ego's blocked by a truck,
`simulate` with the trained model (6 s, so its 960x540 rasters take about
130 MB), `simulate` on the 48-neighbour scene (3 s: 31 rasters of 50 bodies
each, about 65 MB), `simulate` on two seeds of 2 s each (every seed runs
before the first write), `fuse-eval` on the default corpus, and `fuse-eval`
on two seeds of 300 frames that all hold an overlapping pair and up to four
clutter cars, so many frames have several candidates.

Two more runs reach the branches the others miss. `simulate` for 30 s (long
enough for lane changes, so `maneuvers.csv` has rows) with a frame every 3 s
(11 rasters, about 23 MB), missed detections, a false positive per frame on
average and noiseless depth. `fuse-eval` on 200 frames with the same detector,
a near plane at 18 m, so some frames do not show the target, and a GNSS error
wide enough that some reported positions fall behind the camera or off the
image.

One more run shows no vehicle at all: `simulate` for 0.5 s with the camera
1,000 m ahead of the ego, so its 6 frames hold no box and no detection and
`detections.csv` is its header alone.

The last two move the camera off the default pose, which every other run
keeps (`mount_left` 0, `mount_up` 1.4): `simulate` for 3 s with the camera
0.9 m right of the ego's center line, 1.5 m behind its center and 2.2 m up,
and `fuse-eval` on 200 frames of seed 3 with the camera 0.6 m left, 1.5 m
back and 2.2 m up (the corpus moves the ego so that the camera stays at
world x = 0).

The last five reach the twin channel's edges. `simulate` for 4 s with the
model on a channel that publishes every 0.05 s with 0.25 s latency, so
`twin_channel.csv` has rows between the trajectory's and the first round,
at t = 0, sees no publish and advises no car; `simulate` for 2 s with the
model and no neighbour, so no car is ever advised; `predict-eval` for 5 s
with 6 s latency, so no round ever shows and `traces.csv` is its header
alone; and `predict-eval` and `closed-loop` on a channel that publishes every
0.3 s with 0.7 s latency, a period that does not divide the 1 s inference
period.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

MODEL = {"model_path": "train/model.json"}
DENSE = {"neighbor_count": 48, "potential_changer_count": 12, "spawn_max_s": 540,
         "accident_s": 600, "road_length": 650}

# (command, config, seeds, output directory); each reads the ones before it
RUNS = (
    ("train", {}, "1,2,3", "train"),
    ("predict-eval", MODEL, "1001,1002", "pred"),
    ("train", {"training": {"batch_size": 1000, "hidden": 1, "epochs": 40}}, "4,5",
     "train_one"),
    ("predict-eval", {"model_path": "train_one/model.json"}, "1005,1006", "pred_one"),
    ("predict-eval", {**MODEL, "filters": {"tau_a": 0, "tau_c": 6, "thres": 0.2},
                      "window": {"tau": 2.0},
                      "channel": {"publish_period": 0.2, "latency": 0.25}}, "1003,1004",
     "pred_edges"),
    ("closed-loop", MODEL, "1,7", "loop"),
    ("closed-loop", {**MODEL, "scenario": DENSE}, "42", "loop_dense"),
    ("closed-loop", {**MODEL, "channel": {"publish_period": 0.2, "latency": 0.25}}, "1,7",
     "loop_latency"),
    ("closed-loop", {**MODEL, "channel": {"latency": 1.0}}, "1,7", "loop_latency_period"),
    ("closed-loop", {**MODEL, "scenario": {"duration": 10.0}, "channel": {"latency": 11.0}},
     "1", "loop_latency_beyond"),
    ("closed-loop", {**MODEL, "driver": {"p_trigger": 0.0}}, "1,7", "loop_trigger_0"),
    ("closed-loop", {**MODEL, "scenario": {"lane_count": 2, "neighbor_count": 3}}, "1,7",
     "loop_lanes_2"),
    ("closed-loop", {**MODEL, "scenario": {"lane_count": 4}}, "1,7", "loop_lanes_4"),
    ("simulate", {**MODEL, "scenario": {"duration": 6.0}}, "1", "sim"),
    ("simulate", {"scenario": {**DENSE, "duration": 3.0}}, "42", "sim_dense"),
    ("simulate", {"scenario": {"duration": 2.0}}, "1,2", "sim_seeds"),
    ("fuse-eval", {}, "1", "fuse"),
    ("fuse-eval", {"fuse_eval": {"frames": 300, "overlap_fraction": 1.0, "clutter_max": 4}},
     "1,2", "fuse_crowded"),
    ("simulate", {"scenario": {"duration": 30.0},
                  "sensing": {"frame_period": 3.0, "miss_prob": 0.2,
                              "false_positive_rate": 1.0, "depth_noise_sigma": 0.0}},
     "1", "sim_sensor_edges"),
    ("fuse-eval", {"camera": {"near_plane": 18.0},
                   "sensing": {"miss_prob": 0.2, "false_positive_rate": 1.0,
                               "depth_noise_sigma": 0.0},
                   "fuse_eval": {"frames": 200, "gnss_sigma": [3.0, 12.0, 0.45]}},
     "1", "fuse_edges"),
    ("simulate", {"scenario": {"duration": 0.5}, "camera": {"mount_forward": 1000.0}}, "1",
     "sim_empty"),
    ("simulate", {"scenario": {"duration": 3.0},
                  "camera": {"mount_left": -0.9, "mount_forward": -1.5, "mount_up": 2.2}},
     "1", "sim_offset_camera"),
    ("fuse-eval", {"camera": {"mount_left": 0.6, "mount_forward": -1.5, "mount_up": 2.2},
                   "fuse_eval": {"frames": 200}}, "3", "fuse_offset_camera"),
    ("simulate", {**MODEL, "scenario": {"duration": 4.0},
                  "channel": {"publish_period": 0.05, "latency": 0.25}}, "1", "sim_channel"),
    ("simulate", {**MODEL, "scenario": {"duration": 2.0, "neighbor_count": 0,
                                        "potential_changer_count": 0}}, "1", "sim_no_cars"),
    ("predict-eval", {**MODEL, "scenario": {"duration": 5.0}, "channel": {"latency": 6.0}},
     "1001", "pred_latency_beyond"),
    ("predict-eval", {**MODEL, "channel": {"publish_period": 0.3, "latency": 0.7}},
     "1001,1002", "pred_period_0_3"),
    ("closed-loop", {**MODEL, "channel": {"publish_period": 0.3, "latency": 0.7}}, "1,7",
     "loop_period_0_3"),
)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digest(src: str) -> tuple[list[str], int]:
    """The digest lines of every output file, and 1 if any command failed."""
    sys.path.insert(0, str(Path(src).resolve()))
    from lanesight.cli import main as lanesight

    failed = 0
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="lanesight-digest-") as work:
        os.chdir(work)
        try:
            for command, config, seeds, out in RUNS:
                Path(f"{out}.json").write_text(json.dumps(config))
                code = lanesight([command, "--config", f"{out}.json", "--out", out,
                                  "--seeds", seeds])
                if code != 0:
                    print(f"{command} --out {out}: exit {code}", file=sys.stderr)
                    failed = 1
            lines = [f"{sha256(path)}  {path.as_posix()}"
                     for path in sorted(Path(".").rglob("*")) if path.is_file()]
        finally:
            os.chdir(home)
    return lines, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="the lanesight source tree to import")
    parser.add_argument("--against", metavar="DIR",
                        help="a checkout to compare with: print the lines that differ")
    args = parser.parse_args(argv)
    if args.against is None:
        lines, failed = digest(args.src)
        print("\n".join(lines))
        return failed
    other = subprocess.Popen([sys.executable, __file__, "--src",
                              str(Path(args.against) / "src")],
                             stdout=subprocess.PIPE, text=True)
    lines, failed = digest(args.src)
    theirs = other.communicate()[0].splitlines()
    mine, other_lines = set(lines), set(theirs)
    diff = [f"- {line}" for line in theirs if line not in mine]
    diff += [f"+ {line}" for line in lines if line not in other_lines]
    print("\n".join(diff) if diff else f"same digest for all {len(lines)} files")
    return int(bool(diff or failed or other.returncode))


if __name__ == "__main__":
    raise SystemExit(main())
