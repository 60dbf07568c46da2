"""Tests for the three-part rule-set quality score."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_components

from rulestorm.errors import ConfigError
from rulestorm.fitness import (
    FitnessBreakdown,
    FitnessWeights,
    balance_score,
    brevity_score,
    evaluate,
    match_count,
)
from rulestorm.membership import LabeledDataset
from rulestorm.rules import AND, OR, Rule, RuleSet


def make_labeled(labels, p=3, c=2):
    arr = np.asarray(labels, dtype=int)
    return LabeledDataset(labels=arr, classes=np.ones(arr.shape[0], dtype=int), p=p, c=c)


def ruleset_from(specs, m, p=3, c=2):
    """specs: list of (antecedents, consequent, connective)."""
    rules = tuple(Rule(tuple(a), cons, conn) for a, cons, conn in specs)
    return RuleSet(rules=rules, m=m, p=p, c=c)


# --------------------------------------------------------------- weights ---

def test_default_weights_are_equal_thirds():
    w = FitnessWeights()
    assert w.alpha == pytest.approx(1 / 3)
    assert w.beta == pytest.approx(1 / 3)
    assert w.gamma == pytest.approx(1 / 3)
    assert w.alpha + w.beta + w.gamma == pytest.approx(1.0)


def test_weights_normalize_to_unit_sum():
    w = FitnessWeights(2.0, 1.0, 1.0)
    assert w.alpha == pytest.approx(0.5)
    assert w.beta == pytest.approx(0.25)
    assert w.gamma == pytest.approx(0.25)


def test_weights_reject_all_zero():
    with pytest.raises(ConfigError):
        FitnessWeights(0.0, 0.0, 0.0)


def test_weights_reject_negative():
    with pytest.raises(ConfigError):
        FitnessWeights(-1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "weights", [(float("nan"), 1.0, 1.0), (1.0, float("inf"), 1.0), (1.0, 1.0, True), (1.0, "1", 1.0)]
)
def test_weights_reject_non_finite_or_non_numbers(weights):
    with pytest.raises(ConfigError, match="must be a finite number"):
        FitnessWeights(*weights)


# ------------------------------------------------------ brevity fixture ---

def test_brevity_fixture_six_rules():
    # six rules over six attributes with antecedent lengths 4,6,4,4,6,5
    lengths = [4, 6, 4, 4, 6, 5]
    specs = []
    for i, length in enumerate(lengths):
        ants = [1] * length + [0] * (6 - length)
        specs.append((ants, 1 + i % 2, AND))
    rs = ruleset_from(specs, m=6)
    assert brevity_score(rs) == pytest.approx(1.0 - 29.0 / 36.0, abs=1e-12)


def test_brevity_all_dont_care_is_one():
    rs = ruleset_from([((0, 0, 0), 1, AND), ((0, 0, 0), 2, OR)], m=3)
    assert brevity_score(rs) == pytest.approx(1.0)


def test_brevity_full_rules_is_zero():
    rs = ruleset_from([((1, 2, 3), 1, AND), ((3, 2, 1), 2, OR)], m=3)
    assert brevity_score(rs) == pytest.approx(0.0)


# ------------------------------------------------------ balance fixture ---

def test_balance_fixture_one_vs_five():
    # six rules, two classes, split 1/5
    specs = [(((1,) * 6), 2, AND) for _ in range(5)]
    specs.append((((1,) * 6), 1, AND))
    rs = ruleset_from(specs, m=6)
    assert balance_score(rs) == pytest.approx(1.0 - 4.0 / 6.0, abs=1e-12)


def test_balance_even_split_is_one():
    specs = [((1, 0), 1, AND), ((0, 1), 2, OR)]
    rs = ruleset_from(specs, m=2)
    assert balance_score(rs) == pytest.approx(1.0)


def test_balance_clamped_at_zero():
    # ten rules split 1/9 across two classes: penalty exceeds 1
    specs = [(((1, 0)), 2, AND) for _ in range(9)]
    specs.append(((1, 0), 1, AND))
    rs = ruleset_from(specs, m=2)
    assert balance_score(rs) == 0.0


# ------------------------------------------------------------- coverage ---

def test_match_count_and_coverage():
    ld = make_labeled([[1, 2, 1], [2, 2, 1], [2, 1, 2], [1, 1, 1]])
    and_rule = Rule((1, 2, 0), 1, AND)   # records 0 only
    or_rule = Rule((1, 2, 0), 1, OR)     # records 0, 1, 3
    empty_rule = Rule((0, 0, 0), 2, AND)  # everything
    assert match_count(and_rule, ld) == 1
    assert match_count(or_rule, ld) == 3
    assert match_count(empty_rule, ld) == 4
    rs = RuleSet(rules=(and_rule, or_rule), m=3, p=3, c=2)
    assert evaluate(rs, ld).g2 == pytest.approx((1 + 3) / (2 * 4))


def test_coverage_ignores_consequent():
    ld = make_labeled([[1, 1, 1], [2, 2, 2]])
    a = RuleSet(rules=(Rule((1, 0, 0), 1, AND),), m=3, p=3, c=2)
    b = RuleSet(rules=(Rule((1, 0, 0), 2, AND),), m=3, p=3, c=2)
    assert evaluate(a, ld).g2 == evaluate(b, ld).g2


# ------------------------------------------------------------ composite ---

def test_evaluate_combines_components():
    ld = make_labeled([[1, 2, 1], [2, 2, 1], [2, 1, 2], [1, 1, 1]])
    rs = ruleset_from([((1, 2, 0), 1, AND), ((0, 0, 2), 2, OR)], m=3)
    g1, g2, g3 = oracle_components(rs, ld)
    out = evaluate(rs, ld, FitnessWeights(1.0, 1.0, 1.0))
    assert isinstance(out, FitnessBreakdown)
    assert out.g1 == pytest.approx(g1, abs=1e-12)
    assert out.g2 == pytest.approx(g2, abs=1e-12)
    assert out.g3 == pytest.approx(g3, abs=1e-12)
    assert out.fitness == pytest.approx((g1 + g2 + g3) / 3.0, abs=1e-12)


def test_evaluate_respects_weighting():
    ld = make_labeled([[1, 2, 1], [2, 2, 1]])
    rs = ruleset_from([((1, 2, 0), 1, AND), ((0, 0, 2), 2, OR)], m=3)
    g1, g2, g3 = oracle_components(rs, ld)
    out = evaluate(rs, ld, FitnessWeights(1.0, 0.0, 0.0))
    assert out.fitness == pytest.approx(g1, abs=1e-12)
    out = evaluate(rs, ld, FitnessWeights(0.0, 3.0, 1.0))
    assert out.fitness == pytest.approx(0.75 * g2 + 0.25 * g3, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_evaluate_matches_oracle_on_random_instances(data):
    rng_seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(rng_seed)
    m = int(rng.integers(1, 6))
    p = int(rng.integers(2, 5))
    c = int(rng.integers(2, 4))
    r = int(rng.integers(c, c + 5))
    n = int(rng.integers(1, 30))
    labels = rng.integers(1, p + 1, size=(n, m))
    ld = make_labeled(labels, p=p, c=c)
    rules = []
    for _ in range(r):
        ants = rng.integers(0, p + 1, size=m)
        cons = int(rng.integers(1, c + 1))
        conn = AND if rng.random() < 0.5 else OR
        rules.append(Rule(tuple(int(a) for a in ants), cons, conn))
    rs = RuleSet(rules=tuple(rules), m=m, p=p, c=c)
    g1, g2, g3 = oracle_components(rs, ld)
    out = evaluate(rs, ld, FitnessWeights())
    assert out.g1 == pytest.approx(g1, abs=1e-9)
    assert out.g2 == pytest.approx(g2, abs=1e-9)
    assert out.g3 == pytest.approx(g3, abs=1e-9)
    assert out.fitness == pytest.approx((g1 + g2 + g3) / 3.0, abs=1e-9)
    assert 0.0 <= out.g1 <= 1.0
    assert 0.0 <= out.g2 <= 1.0
    assert 0.0 <= out.g3 <= 1.0
    assert 0.0 <= out.fitness <= 1.0
