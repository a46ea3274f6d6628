"""Value rules for the fields of config-facing dataclasses.

A field declares its rule once, as ``field(default=..., metadata=POSITIVE)``,
and the dataclass's ``__post_init__`` calls ``check_fields``, so the rule holds
whether the object is built from a JSON config or directly. Fields marked
``RUN_SEED`` are set per run from the seed list and are not config keys.
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


def check_fields(obj):
    """Raise ValueError naming the first field whose value breaks its rule."""
    for f in fields(obj):
        check = f.metadata.get("check")
        value = getattr(obj, f.name)
        if check is not None and not check(value):
            raise ValueError(f"{f.name}: value {value!r} out of range")
