"""Value rules for the fields of config-facing dataclasses.

A field declares its rule once, as ``field(default=..., metadata=POSITIVE)``,
and its dataclass derives from ``Checked``, whose ``__post_init__`` checks
every field's rule, so the rule holds whether the object is built from a JSON
config or directly. A dataclass with cross-field checks calls
``super().__post_init__()`` before them. Fields marked ``RUN_SEED`` are set
per run from the seed list and are not config keys.
"""
from __future__ import annotations

from dataclasses import fields


def rule(check) -> dict:
    return {"check": check}


POSITIVE = rule(lambda x: x > 0)
NONNEGATIVE = rule(lambda x: x >= 0)
NEGATIVE = rule(lambda x: x < 0)
FRACTION = rule(lambda x: 0.0 <= x <= 1.0)
# an upper bound drawn as rng.integers(0, x + 1), which needs x + 1 <= 2**63
DRAW_BOUND = rule(lambda x: 0 <= x < 2**63)
RUN_SEED = {"run_seed": True}


class Checked:
    """Base of a dataclass whose fields carry rules: construction raises
    ValueError naming the first field whose value breaks its rule."""

    def __post_init__(self):
        for f in fields(self):
            check = f.metadata.get("check")
            value = getattr(self, f.name)
            if check is not None and not check(value):
                raise ValueError(f"{f.name}: value {value!r} out of range")
