"""Run configuration: a single JSON document with strict validation.

The domain dataclasses are the schema. Each section of the document is one
``RunConfig`` field, and its keys are the fields of that field's dataclass:
the annotation gives the type, the default the default, and the
``field(metadata=...)`` rule the range (see ``params``). A nested dataclass
shares its parent's section (``scenario.lanes``, ``camera.intrinsics``)
unless it is named in ``OWN_SECTION``. Unknown keys are rejected, errors
report the dotted path of the offending key, and every domain object is built
here, so an invalid config fails before a command writes anything. The
resolved (defaults merged) document, ``RunConfig.effective_dict``, is echoed
next to command outputs by ``cli.write_echo``, so a run can be reproduced
from its own artifacts.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from operator import attrgetter
from typing import get_args, get_origin, get_type_hints

from .fusion import FusionParams
from .pipeline import ABREAST_OFFSET, INFER_PERIOD, CameraMount, FuseCorpusConfig
from .prediction import FilterParams, TrainConfig, WindowParams
from .scene import CAR_DIMS, LOG_PERIOD, ScenarioConfig, grid_stride
from .sensing import DetectorNoiseModel
from .twinlink import ChannelConfig


class ConfigError(Exception):
    pass


# Nested objects read from a top-level section of their own.
OWN_SECTION = ("idm", "driver")


@dataclass(frozen=True)
class RunConfig:
    """Run seeds, model path, and one domain object per top-level section."""

    seeds: list[int] = field(default_factory=lambda: [1])
    model_path: str | None = None
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    camera: CameraMount = field(default_factory=CameraMount)
    sensing: DetectorNoiseModel = field(default_factory=DetectorNoiseModel)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    fusion: FusionParams = field(default_factory=FusionParams)
    window: WindowParams = field(default_factory=WindowParams)
    filters: FilterParams = field(default_factory=FilterParams)
    training: TrainConfig = field(default_factory=TrainConfig)
    fuse_eval: FuseCorpusConfig = field(default_factory=FuseCorpusConfig)

    def __post_init__(self):
        if (not isinstance(self.seeds, list) or not self.seeds
                or not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0
                           for s in self.seeds)
                or len(set(self.seeds)) < len(self.seeds)):  # a seed names its outputs
            raise ValueError("seeds: expected a non-empty list of distinct nonnegative integers")
        if self.model_path is not None and not isinstance(self.model_path, str):
            raise ValueError("model_path: expected a string or null")
        for period in (self.channel.publish_period, self.sensing.frame_period,
                       INFER_PERIOD, LOG_PERIOD):
            try:
                grid_stride(period, self.scenario.dt_sim)
            except (ValueError, OverflowError) as exc:  # a subnormal dt_sim overflows
                raise ValueError(f"scenario.dt_sim: {exc}") from exc
        # the corpus camera sits at world x = 0, so a target's rear corners
        # are at depth target_s - CAR_DIMS[0] / 2
        corpus, mount, intr = self.fuse_eval, self.camera, self.camera.intrinsics
        if max(corpus.target_range) - 0.5 * CAR_DIMS[0] <= intr.near_plane:
            raise ValueError("fuse_eval.target_range: no target could lie beyond the "
                             "camera's near plane")
        # and its front corners at depth `far` at most. A target is imaged
        # nowhere higher than its roof seen from there, nor nearer the image
        # center than its body edge closest to the camera's side offset
        far = max(corpus.target_range) + 0.5 * CAR_DIMS[0]
        if intr.v0 + intr.fy * (mount.mount_up - CAR_DIMS[2]) / far >= intr.height:
            raise ValueError("camera.mount_up: every fuse_eval target would lie below "
                             "the image")
        reach = max(ABREAST_OFFSET[1], *map(abs, corpus.stagger_range)) + 0.5 * CAR_DIMS[1]
        edge = intr.width - intr.u0 if mount.mount_left > 0 else intr.u0
        if intr.fx * (abs(mount.mount_left) - reach) / far >= edge:
            raise ValueError("camera.mount_left: every fuse_eval target would lie beside "
                             "the image")

    def effective_dict(self) -> dict:
        doc = {"seeds": list(self.seeds), "model_path": self.model_path}
        for section, keys in _SCHEMA.items():
            doc[section] = {key: attrgetter(path)(self) for key, (path, _) in keys.items()}
        return doc


@functools.cache
def _fields(cls) -> tuple:
    """(field, resolved annotation) for each field of cls a config can set."""
    hints = get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in fields(cls) if not f.metadata.get("run_seed"))


def _section_of(name: str, parent: str | None) -> str:
    return name if parent is None or name in OWN_SECTION else parent


def _schema(cls, section: str | None, prefix: str, schema: dict) -> dict:
    """Add the keys cls reads to schema: section -> key -> (attribute path, type)."""
    for f, kind in _fields(cls):
        if is_dataclass(kind):
            _schema(kind, _section_of(f.name, section), f"{prefix}{f.name}.", schema)
        elif section is not None:
            schema.setdefault(section, {})[f.name] = (prefix + f.name, kind)
    return schema


_SCHEMA = _schema(RunConfig, None, "", {})


def _typed(value, kind, path: str):
    """The JSON value checked against a field annotation; lists become tuples."""
    if get_origin(kind) is tuple:
        args = get_args(kind)
        size = None if args[-1] is Ellipsis else len(args)
        if not isinstance(value, list) or not value or size not in (None, len(value)):
            raise ConfigError(f"{path}: expected a list of {size or 'one or more'} "
                              f"numbers, got {value!r}")
        return tuple(_typed(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
    if kind is float:
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):  # not a number, or an int past float range
            finite = False
        if not finite:
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    elif kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
    elif not isinstance(value, kind):
        raise ConfigError(f"{path}: expected {kind.__name__}, got {value!r}")
    return value


def _build(cls, given: dict, section: str | None):
    """Construct cls from the checked values; its rule errors become ConfigError."""
    kwargs = {}
    for f, kind in _fields(cls):
        if is_dataclass(kind):
            kwargs[f.name] = _build(kind, given, _section_of(f.name, section))
        elif f.name in given[section]:
            kwargs[f.name] = given[section][f.name]
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}" if section else str(exc)) from exc


def resolve_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document, merge it over the defaults, build objects."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    top = {"seeds", "model_path"}
    unknown = set(doc) - top - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown key: {sorted(unknown)[0]}")

    given = {None: {key: value for key, value in doc.items() if key in top}}
    for section, keys in _SCHEMA.items():
        values = doc.get(section, {})
        if not isinstance(values, dict):
            raise ConfigError(f"{section}: expected an object")
        unknown = set(values) - set(keys)
        if unknown:
            raise ConfigError(f"unknown key: {section}.{sorted(unknown)[0]}")
        given[section] = {key: _typed(value, keys[key][1], f"{section}.{key}")
                          for key, value in values.items()}
    return _build(RunConfig, given, None)


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {str(path)!r} is nested too deeply to parse") from exc
    return resolve_config(doc)
