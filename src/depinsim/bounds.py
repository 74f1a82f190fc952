"""Declared ranges of numeric config fields, and the strict reader of JSON input files.

A field states its range once, as interval text such as "[0, 1]" or "(0, inf)" in its
metadata; `check_ranges` is the one check against it and `config-reference` prints it.
"""

from __future__ import annotations

import functools
import json
import operator
import re
from collections import Counter
from dataclasses import Field, field, fields
from typing import Callable, Dict, Optional, Tuple

_INTERVAL = re.compile(r"([\[(])(\S+), (\S+)([\])])")
_LOWER = {"[": operator.le, "(": operator.lt}  # lo <= value, lo < value
_UPPER = {"]": operator.le, ")": operator.lt}  # value <= hi, value < hi


def config_field(default, doc: str, bounds: Optional[str] = None) -> Field:
    """A config key: its default, its `config-reference` description and, if numeric, its range."""
    return field(default=default, metadata={"doc": doc} if bounds is None else {"doc": doc, "range": bounds})


def mirrored(cls: type, name: str, doc: str) -> Field:
    """A config key with the default and range of dataclass `cls`'s field `name`."""
    source = next(f for f in fields(cls) if f.name == name)
    return config_field(source.default, doc, source.metadata["range"])


@functools.lru_cache(maxsize=None)
def declared_ranges(cls: type) -> Tuple[tuple, ...]:
    """(name, interval text, lo, lower test, hi, upper test) per field of dataclass `cls` declaring a range."""
    ranges = []
    for f in fields(cls):
        if "range" in f.metadata:
            lower, lo, hi, upper = _INTERVAL.fullmatch(f.metadata["range"]).groups()
            ranges.append((f.name, f.metadata["range"], float(lo), _LOWER[lower], float(hi), _UPPER[upper]))
    return tuple(ranges)


def _check(name: str, text: str, lo: float, above, hi: float, below, value) -> None:
    """Raise a ValueError naming `name` unless `value` lies in the interval `text`; a tuple's range holds for
    each element, and NaN fails every comparison, so it is never in range."""
    if not (all(above(lo, x) and below(x, hi) for x in value) if isinstance(value, tuple)
            else above(lo, value) and below(value, hi)):
        raise ValueError(f"{name} must lie in {text}, got {value!r}")


@functools.lru_cache(maxsize=None)
def _range_checks(cls: type) -> Dict[str, Callable]:
    """`_check` bound to each range dataclass `cls` declares, by field name."""
    return {declared[0]: functools.partial(_check, *declared) for declared in declared_ranges(cls)}


def check_ranges(obj) -> None:
    """Raise a ValueError naming the first field of dataclass `obj` outside its declared range."""
    for name, check in _range_checks(type(obj)).items():
        check(getattr(obj, name))


def check_range(cls: type, name: str, value) -> None:
    """Raise a ValueError naming `name` unless `value` lies in the range `cls` declares for it (a KeyError if none)."""
    _range_checks(cls)[name](value)


def read_json(path: str):
    """The JSON value in UTF-8 file `path`.  An object that gives a key twice, at any depth, raises a
    ValueError naming the file and the key, where `json.load` would keep the last value unseen."""
    def unique(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
            raise ValueError(f"{path}: key {key!r} appears more than once in one object")
        return obj

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=unique)
