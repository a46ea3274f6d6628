"""Span recorder for the traced benchmark run, and the per-layer numbers
derived from its spans.

`Recorder.install()` wraps the public functions of every lanesight module at
each name they are looked up under: the defining module, every module that
imported them by name (`cli` and `pipeline` do, `sensing` imports
`world_to_camera`), and module-level tables such as `cli.COMMANDS`.
In-function imports (`pipeline` imports `emulate_detections` and
`nonchanger_negatives` inside functions) read the defining module at call
time, so they see the wrapper too. Every `write_*` call made by `cli` gets
an extra `cli.write` span around it.

A span is (name, start, end, parent index, work counts). Spans stay in
memory and `dump()` writes them out once, at the end of the process.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

LAYERS = ("cli", "pipeline", "scene", "sensing", "geometry", "fusion",
          "twinlink", "prediction", "evaluation", "config", "seeding")

# Leaf functions called per vehicle, per corner or per random stream. A
# timed span around each would cost more than the work inside it and would
# move self time out of the caller, so these are only counted.
COUNT_ONLY_LAYERS = {"geometry", "seeding"}
COUNT_ONLY = {"scene.car_following_accel", "scene.lateral_profile"}

# Public methods wrapped like functions: (module, class, method).
METHODS = (("scene", "TrajectoryLog", "states_at"),)

ROOT = "bench.iteration"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _written(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


# Work counts recorded on a span: name -> f(args, kwargs, result) -> dict.
# Every lanesight call site passes these arguments explicitly.
COUNTERS = {
    "sensing.render_depth_map": lambda a, k, r: {"pixels": r.width * r.height},
    "sensing.render_truth_boxes": lambda a, k, r: {"boxes": len(r)},
    "sensing.emulate_detections": lambda a, k, r: {"detections": len(r)},
    "sensing.write_depth_map": _written,
    "cli.write": _written,
    "fusion.identify": lambda a, k, r: {"candidates": r.candidate_count,
                                        "no_match": int(r.chosen is None)},
    "fusion.depth_evaluate": lambda a, k, r: {"samples": len(r) * _arg(a, k, 3, "n")},
    "scene.step": lambda a, k, r: {"vehicle_steps": len(_arg(a, k, 0, "scn").vehicles)},
    "prediction.train": lambda a, k, r: {
        "sample_epochs": len(_arg(a, k, 0, "dataset")) * _arg(a, k, 1, "cfg").epochs},
}


class Recorder:
    """Records spans and call counts for the life of the process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), None, parent, None))
        self._stack.append(index)
        return index

    def close(self, index: int, counts: dict | None = None):
        name, start, _, parent, _ = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, counts)
        self._stack.pop()

    def timed(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index)
                raise
            self.close(index, counter and counter(args, kwargs, result))
            return result
        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls
        calls[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Replace lanesight's public functions by recording wrappers."""
        modules = {layer: importlib.import_module(f"lanesight.{layer}")
                   for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                count_only = layer in COUNT_ONLY_LAYERS or name in COUNT_ONLY
                wrapped[obj] = (self.counted if count_only else self.timed)(name, obj)
        for module in modules.values():
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                if isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            obj[key] = wrapped[value]
                elif inspect.isfunction(obj) and obj in wrapped:
                    namespace[attr] = wrapped[obj]
        cli = vars(modules["cli"])
        for attr, obj in list(cli.items()):
            if attr.startswith("write_") and inspect.isfunction(obj):
                cli[attr] = self.timed("cli.write", obj)
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, method, self.timed(f"{layer}.{method}", getattr(cls, method)))

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def iteration_stats(spans: list) -> list[dict]:
    """Per ROOT span: name -> {"calls", "busy_s", "self_s", "via", work counts}.

    Busy time is the summed duration of a name's spans; self time subtracts
    the part of each span that its child spans cover; "via" counts calls by
    the name of the calling span. Count-only functions appear through the
    call counts stored on the ROOT span.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    iterations = []
    stats = None
    for index, (name, start, end, parent, counts) in enumerate(spans):
        if name == ROOT:
            stats = {called: {"calls": n} for called, n in (counts or {}).items()}
            iterations.append(stats)
            continue
        if stats is None:
            continue
        entry = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                        "via": {}})
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += end - start - child_time[index]
        caller = spans[parent][0]
        entry["via"][caller] = entry["via"].get(caller, 0) + 1
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return iterations
