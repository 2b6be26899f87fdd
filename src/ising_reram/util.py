"""Seed derivation and dataclass (de)serialization helpers.

All randomness in the package flows through numpy Generators built from
SeedSequence keys, so that any (seed, purpose) pair maps to one reproducible
stream and parallel consumers never share state.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

_MASK64 = (1 << 64) - 1


def seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    """SeedSequence for a master seed plus a structured derivation key."""
    return np.random.SeedSequence([seed & _MASK64, *key])


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, *key)."""
    return np.random.default_rng(seed_sequence(seed, *key))


def derive_seed(seed: int, *key: int) -> int:
    """Collapse (seed, *key) to a plain 64-bit integer seed."""
    return int(seed_sequence(seed, *key).generate_state(1, np.uint64)[0])


def field_dict(obj) -> dict:
    """Shallow ``{field name: value}`` dict of a dataclass instance."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _matches(value, default) -> bool:
    """Does a decoded JSON value have the kind of a field's default?"""
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if isinstance(default, int):
        return isinstance(value, int)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_matches(v, default[0]) for v in value)
    return isinstance(value, type(default))


def is_finite(value) -> bool:
    """Is ``value`` a finite number?  An integer too large for a float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def check_finite(obj, error: type[ValueError]) -> None:
    """Raise ``error``, naming the field, unless every float field of dataclass
    ``obj`` holds a finite number (NaN, an infinity and an int beyond float
    range fail)."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(f.default, float) and not is_finite(value):
            raise error(f"{type(obj).__name__}.{f.name} must be finite: {value!r}")


def check_object(data, allowed, name: str, error: type[ValueError]) -> None:
    """Raise ``error`` unless ``data`` is a JSON object whose keys are all in ``allowed``."""
    if not isinstance(data, dict):
        raise error(f"{name} must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - set(allowed)
    if unknown:
        raise error(f"unknown {name} keys: {sorted(unknown)}")


def from_mapping(cls, data, error: type[ValueError]):
    """Build dataclass ``cls`` from a decoded JSON object.

    Keys must be field names and values must have the kind of the field's
    default (an int where an int is expected, a number for a float, a list of
    the default's items for a tuple); anything else raises ``error``.  The
    class's own checks run on construction and reject non-finite numbers.
    """
    defaults = {f.name: f.default for f in fields(cls)}
    check_object(data, defaults, cls.__name__, error)
    for key, value in data.items():
        if not _matches(value, defaults[key]):
            raise error(f"{cls.__name__}.{key} has the wrong type: {value!r}")
    return cls(**data)

