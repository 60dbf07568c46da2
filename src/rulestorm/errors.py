"""Error categories that map onto distinct CLI exit codes, and the value
checks that the parameter records share."""

import math
import numbers
from dataclasses import fields


class ConfigError(ValueError):
    """Bad configuration: unknown fields, invalid values, unusable flags."""


class DataError(ValueError):
    """Unusable input data: missing file, ragged rows, bad cells."""


class EvaluationError(RuntimeError):
    """An objective function failed while an optimizer was running."""


def check_seed(seed) -> None:
    """Raise ConfigError unless seed is a non-negative integer, as numpy's
    generators require."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")


def check_fields(record) -> None:
    """Raise ConfigError unless each ``int`` field of the dataclass holds an
    integer (Python or numpy, not bool), each ``float`` field a finite number
    (not bool), and a ``seed`` field a non-negative integer. Integers are
    stored as Python ints, so that json can write them into a model.

    Messages start with the field name, so callers can prefix a path.
    """
    for f in fields(record):
        value, kind = getattr(record, f.name), getattr(f.type, "__name__", f.type)
        if f.name == "seed":
            check_seed(value)
        elif kind == "int" and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        elif kind == "float" and (
            isinstance(value, bool)
            or not isinstance(value, numbers.Real)
            or not math.isfinite(value)
        ):
            raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
        if kind == "int":
            object.__setattr__(record, f.name, int(value))
