"""Error categories that map onto distinct CLI exit codes, and the value
checks that the parameter records share."""

import math
import numbers
from dataclasses import fields

import numpy as np


class ConfigError(ValueError):
    """Bad configuration: unknown fields, invalid values, unusable flags."""


class DataError(ValueError):
    """Unusable input data: missing file, ragged rows, bad cells."""


class EvaluationError(RuntimeError):
    """An objective function failed while an optimizer was running."""


def is_integer(value) -> bool:
    """An integer, Python or numpy, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A finite real number, Python or numpy, and not a bool."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def as_python(value):
    """A numpy scalar as the Python number it holds; any other value as given.
    json writes Python numbers only."""
    return value.item() if isinstance(value, np.generic) else value


def check_seed(seed) -> None:
    """Raise ConfigError unless seed is a non-negative integer, as numpy's
    generators require."""
    if not is_integer(seed) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")


def check_bound(name: str, value, bounds: str) -> None:
    """Raise ConfigError unless the number `value` lies within `bounds`:
    ``at least N``, ``> N`` or an interval ``[a, b]``, ``(a, b]`` or
    ``(a, b)``; other bounds text raises ValueError. The message is
    ``{name} must be {bounds}, got {value!r}``, with ``in `` before an
    interval."""
    word, _, edge = bounds.rpartition(" ")
    if word in ("at least", ">"):
        inside = value >= float(edge) if word == "at least" else value > float(edge)
    else:
        low, high = map(float, bounds[1:-1].split(","))
        above = low < value if bounds[0] == "(" else low <= value
        below = value < high if bounds[-1] == ")" else value <= high
        inside, bounds = above and below, "in " + bounds
    if not inside:
        raise ConfigError(f"{name} must be {bounds}, got {value!r}")


def check_fields(record) -> None:
    """Raise ConfigError unless each ``int`` field of the dataclass holds an
    integer (`is_integer`), each ``float`` field a finite number
    (`is_number`), each ``bool`` field True or False and a ``seed`` field a
    non-negative integer; then unless each field in the class's ``BOUNDS``,
    which names them in field order, lies within its bounds (`check_bound`).
    A numpy scalar in a number field is stored as its Python number
    (`as_python`), so that json can write it into a model; a Python int or
    float stays as given.

    Messages start with the field name, so callers can prefix a path.
    """
    for f in fields(record):
        value, kind = getattr(record, f.name), getattr(f.type, "__name__", f.type)
        if f.name == "seed":
            check_seed(value)
        elif kind == "int" and not is_integer(value):
            raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        elif kind == "float" and not is_number(value):
            raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
        elif kind == "bool" and not isinstance(value, bool):
            raise ConfigError(f"{f.name} must be true or false, got {value!r}")
        if kind in ("int", "float"):
            object.__setattr__(record, f.name, as_python(value))
    for name, bounds in getattr(record, "BOUNDS", {}).items():
        check_bound(name, getattr(record, name), bounds)
