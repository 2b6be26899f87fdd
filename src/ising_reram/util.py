"""Seed derivation, dataclass serialization and report JSON helpers.

All randomness in the package flows through numpy Generators built from
SeedSequence keys, so that any (seed, purpose) pair maps to one reproducible
stream and parallel consumers never share state.
"""

from __future__ import annotations

from dataclasses import fields
from json.encoder import encode_basestring_ascii

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


def from_mapping(cls, data, error: type[ValueError]):
    """Build dataclass ``cls`` from a decoded JSON object.

    Keys must be field names and values must have the kind of the field's
    default (an int where an int is expected, a number for a float, a list of
    the default's items for a tuple); anything else raises ``error``.
    """
    if not isinstance(data, dict):
        raise error(f"{cls.__name__} section must be a JSON object, got {type(data).__name__}")
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = set(data) - set(defaults)
    if unknown:
        raise error(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    for key, value in data.items():
        if not _matches(value, defaults[key]):
            raise error(f"{cls.__name__}.{key} has the wrong type: {value!r}")
    return cls(**data)


_INF = float("inf")


class _FloatText(dict):
    """Memo of float -> JSON text, spelled as ``json.dumps`` spells it.

    Zeros are never stored: 0.0 and -0.0 are equal keys but print differently.
    NaN is never stored either, as it equals no key.
    """

    def __missing__(self, x: float) -> str:
        if x != x:
            return "NaN"
        if x == _INF:
            text = "Infinity"
        elif x == -_INF:
            text = "-Infinity"
        else:
            text = float.__repr__(x)
        if x:
            self[x] = text
        return text


def _emit(value, indent: str, floats: _FloatText, out: list) -> None:
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(floats[value])
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        out.append("[\n" + inner)
        if set(map(type, value)) == {float}:
            out.append(sep.join(map(floats.__getitem__, value)))
        else:
            for i, v in enumerate(value):
                if i:
                    out.append(sep)
                _emit(v, inner, floats, out)
        out.append("\n" + indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        out.append("{\n" + inner)
        for i, (key, v) in enumerate(sorted(value.items())):
            if i:
                out.append(sep)
            out.append(encode_basestring_ascii(key) + ": ")
            _emit(v, inner, floats, out)
        out.append("\n" + indent + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def indented_json(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for
    str-keyed dicts, lists, tuples, str, int, float, bool and None.

    The stdlib's C encoder is not used once ``indent`` is set; this emitter
    also prints each distinct float once, which matters for reports that
    repeat most of a vector from one iteration to the next.
    """
    out: list = []
    _emit(value, "", _FloatText(), out)
    return "".join(out)
