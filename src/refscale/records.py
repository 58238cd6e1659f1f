"""Records read from JSON: one table of the JSON types each field annotation
accepts, and the constructor that checks a record against it.

This module uses only the standard library, so every reader of outside
input (dataset, fixtures, artifacts, config) can import it.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields
from functools import lru_cache

__all__ = ["IngestError", "check_type", "build_record"]


class IngestError(ValueError):
    """Malformed or referentially inconsistent input record."""


# Accepted JSON types, and their description, for each field annotation of
# the record dataclasses. Types match exactly, so a bool is never a number,
# and a "List[str]" value must hold only strings. A number must be finite,
# except under "FloatOrNaN".
_FIELD_TYPES = {
    "str": ((str,), "a string"),
    "int": ((int,), "an integer"),
    "bool": ((bool,), "true or false"),
    "float": ((int, float), "a number"),
    "FloatOrNaN": ((int, float), "a number or NaN"),
    "Optional[int]": ((int, type(None)), "an integer or null"),
    "Optional[str]": ((str, type(None)), "a string or null"),
    "Optional[float]": ((int, float, type(None)), "a number or null"),
    "List[str]": ((list,), "a list of strings"),
}


def check_type(where: str, name: str, value, annotation: str) -> None:
    """Raise IngestError, prefixed by ``where``, unless ``value`` has a JSON
    type that the field annotation ``annotation`` accepts."""
    kinds, text = _FIELD_TYPES[annotation]
    if type(value) not in kinds or (
            annotation == "List[str]" and not all(type(v) is str for v in value)) or (
            annotation != "FloatOrNaN" and type(value) is float and not math.isfinite(value)):
        raise IngestError(f"{where}: {name} must be {text}, got {value!r}")


def build_record(cls, where: str, rec: dict):
    """``cls(**rec)`` once ``rec`` is an object holding every field without a
    default, each of a JSON type its annotation accepts; faults are prefixed by ``where``."""
    if type(rec) is not dict:
        raise IngestError(f"{where}: must be an object, got {type(rec).__name__}")
    for name, annotation, required in _fields(cls):
        if name in rec:
            check_type(where, name, rec[name], annotation)
        elif required:
            raise IngestError(f"{where}: missing field {name!r}")
    try:
        return cls(**rec)
    except (TypeError, IngestError) as err:
        raise IngestError(f"{where}: {err}") from err


@lru_cache(maxsize=None)
def _fields(cls) -> tuple:
    """(name, annotation, required) of each field of the dataclass ``cls``."""
    return tuple((f.name, f.type, f.default is MISSING and f.default_factory is MISSING)
                 for f in fields(cls))
