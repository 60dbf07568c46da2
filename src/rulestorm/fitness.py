"""Composite quality score for a fuzzy rule set.

Three components, each in [0, 1] and larger-is-better:

* brevity    - rules use few antecedents,
* coverage   - rules match many training records (class played no part),
* balance    - rules are spread evenly across the classes.

The composite is a convex combination of the three under normalized weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_fields
from .membership import LabeledDataset
from .rules import Rule, RuleSet, match_fractions, match_mask, rule_arrays


@dataclass(frozen=True)
class FitnessWeights:
    """Relative importance of brevity, coverage, and balance.

    Values are normalized to sum to one; they must be non-negative and not
    all zero.
    """

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self) -> None:
        check_fields(self)
        for name in ("alpha", "beta", "gamma"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        total = self.alpha + self.beta + self.gamma
        if total <= 0:
            raise ConfigError("alpha, beta and gamma must not all be zero")
        object.__setattr__(self, "alpha", self.alpha / total)
        object.__setattr__(self, "beta", self.beta / total)
        object.__setattr__(self, "gamma", self.gamma / total)


@dataclass(frozen=True)
class FitnessBreakdown:
    g1: float
    g2: float
    g3: float
    fitness: float


def match_count(rule: Rule, ld: LabeledDataset) -> int:
    """Number of records whose fuzzified labels satisfy the rule."""
    return int(match_mask(rule, ld).sum())


def brevity_score(rs: RuleSet) -> float:
    """1 minus the mean fraction of active antecedents per rule."""
    ants, consequents, _, _ = rule_arrays(rs)
    return breakdown(ants[None], consequents[None], np.zeros((1, rs.r)), rs.c, FitnessWeights())[0].g1


def balance_score(rs: RuleSet) -> float:
    """1 minus the per-rule variance of class representation, floored at 0.

    The penalty is the mean squared deviation of per-class rule counts from
    the even share r/c, scaled by 1/r.
    """
    return float(class_balance(np.array([rule.consequent for rule in rs.rules]), rs.c))


def class_balance(consequents: np.ndarray, c: int) -> np.ndarray:
    """balance_score of rule tables with these consequents (..., r) in 1..c."""
    r = consequents.shape[-1]
    counts = np.count_nonzero(consequents[..., None] == np.arange(1, c + 1), axis=-2)
    v = np.mean((counts - r / c) ** 2, axis=-1)
    return np.maximum(0.0, 1.0 - v / r)


def breakdown(ants: np.ndarray, consequents: np.ndarray, fractions: np.ndarray, c: int, weights: FitnessWeights) -> list[FitnessBreakdown]:
    """Quality scores of Q rule tables given as arrays: antecedents
    (Q, r, m), consequents (Q, r) in 1..c and each rule's match fraction
    (Q, r). One FitnessBreakdown per table."""
    _, r, m = ants.shape
    g1 = 1.0 - np.count_nonzero(ants, axis=(1, 2)) / (r * m)
    g2 = sum(fractions.T) / r  # left to right over rules: this summation order is what trace.csv records
    g3 = class_balance(consequents, c)
    fitness = weights.alpha * g1 + weights.beta * g2 + weights.gamma * g3
    return [FitnessBreakdown(*row) for row in zip(g1.tolist(), g2.tolist(), g3.tolist(), fitness.tolist())]


def evaluate(rs: RuleSet, ld: LabeledDataset, weights: FitnessWeights | None = None) -> FitnessBreakdown:
    """Score a rule set against a fuzzified dataset."""
    ants, consequents, is_and, _ = rule_arrays(rs)
    return breakdown(ants[None], consequents[None], match_fractions(ld, ants, is_and)[None], rs.c, weights or FitnessWeights())[0]
