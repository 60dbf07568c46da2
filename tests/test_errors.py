"""Each parameter record's declared bounds: checked at their edges, worded
as declared."""

import math
from dataclasses import fields

import numpy as np
import pytest

from rulestorm.bso import BsoParams
from rulestorm.errors import ConfigError, check_bound
from rulestorm.fitness import FitnessWeights
from rulestorm.ga import GaParams
from rulestorm.rules import RuleSetShape
from rulestorm.training import ExperimentSettings

RECORDS = (BsoParams, GaParams, FitnessWeights, ExperimentSettings, RuleSetShape)
# values of the other fields under which any one field's edge is accepted
CONTEXT = {BsoParams: {"cluster_count": 1}, RuleSetShape: {"m": 1, "p": 2, "c": 2, "r": 2}}


def edges(kind: str, bounds: str):
    """(value, accepted) at each edge of `bounds`: a closed edge itself, and
    the nearest value of the field's kind just outside every edge."""

    def outside(edge: float, direction: float):
        return int(edge) + int(direction) if kind == "int" else math.nextafter(edge, direction * math.inf)

    if bounds[0] in "([":
        low, high = map(float, bounds[1:-1].split(","))
        yield from ((low, True), (outside(low, -1), False)) if bounds[0] == "[" else ((low, False),)
        yield from ((high, True), (outside(high, 1), False)) if bounds[-1] == "]" else ((high, False),)
    elif bounds.startswith("at least "):
        edge = float(bounds.rpartition(" ")[2])
        yield from ((int(edge) if kind == "int" else edge, True), (outside(edge, -1), False))
    else:
        yield float(bounds.rpartition(" ")[2]), False


CASES = [
    pytest.param(record, f.name, value, accepted, id=f"{record.__name__}.{f.name}={value!r}")
    for record in RECORDS
    for f in fields(record)
    if f.name in record.BOUNDS
    for value, accepted in edges(f.type, record.BOUNDS[f.name])
]


def test_every_record_declares_bounds_for_its_number_fields_in_field_order():
    for record in RECORDS:
        numbers = [f.name for f in fields(record) if f.type in ("int", "float")]
        assert list(record.BOUNDS) == [name for name in numbers if name in record.BOUNDS] != []
        assert "BOUNDS" not in vars(record(**CONTEXT.get(record, {})))


@pytest.mark.parametrize("record, name, value, accepted", CASES)
def test_each_declared_bound_accepts_its_closed_edges_and_refuses_just_outside(record, name, value, accepted):
    values = {**CONTEXT.get(record, {}), name: value}
    if accepted:
        assert getattr(record(**values), name) == value
        return
    bounds = record.BOUNDS[name]
    shown = f"in {bounds}" if bounds[0] in "([" else bounds
    with pytest.raises(ConfigError) as refused:
        record(**values)
    assert str(refused.value) == f"{name} must be {shown}, got {value!r}"


@pytest.mark.parametrize(
    "value, bounds, message",
    [
        (0, "at least 1", "x must be at least 1, got 0"),
        (0.0, "> 0", "x must be > 0, got 0.0"),
        (1.5, "[0, 1]", "x must be in [0, 1], got 1.5"),
        (0.0, "(0, 1]", "x must be in (0, 1], got 0.0"),
        (1.0, "(0, 1)", "x must be in (0, 1), got 1.0"),
        (10**400, "[0, 1]", f"x must be in [0, 1], got {10**400!r}"),
    ],
)
def test_check_bound_words_a_refusal_with_its_bounds_and_value(value, bounds, message):
    with pytest.raises(ConfigError) as refused:
        check_bound("x", value, bounds)
    assert str(refused.value) == message


@pytest.mark.parametrize("bounds", ["at most 3", "< 3", "1 to 3"])
def test_check_bound_refuses_bounds_text_it_cannot_read(bounds):
    with pytest.raises(ValueError):
        check_bound("x", 1, bounds)


@pytest.mark.parametrize("value", [1, 1.0, "yes", None, np.True_])
def test_a_bool_field_holds_true_or_false(value):
    with pytest.raises(ConfigError) as refused:
        ExperimentSettings(sum_scores=value)
    assert str(refused.value) == f"sum_scores must be true or false, got {value!r}"
