"""Records read from JSON: one table of the JSON types each field annotation
accepts, and the constructor that checks a record against it.

This module uses only the standard library, so every reader of outside
input (dataset, fixtures, artifacts, config) can import it.
"""

from __future__ import annotations

import math
from dataclasses import fields

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
    """``cls(**rec)`` after checking that ``rec`` is an object and each
    field's JSON type, with every fault prefixed by the record's position."""
    if type(rec) is not dict:
        raise IngestError(f"{where}: must be an object, got {type(rec).__name__}")
    for f in fields(cls):
        if f.name in rec:
            check_type(where, f.name, rec[f.name], f.type)
    try:
        return cls(**rec)
    except (TypeError, IngestError) as err:
        raise IngestError(f"{where}: {err}") from err
