"""Fuzzy classification rules and their real-vector genotype encoding.

A genotype concatenates r blocks of m + 2 genes: m antecedent genes, one
class gene, one connective gene. Decoding rounds and clamps, then repairs the
result so no rule is empty and every class keeps at least one rule.

Training and inference score a whole rule table with `fold_rules`, over a
padded attribute-major table of membership degrees, of their ranks or of the
label indicators of the distinct label rows; `match_mask` is the rule-by-rule
reference for the crisp matches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .membership import LabeledDataset

AND = "AND"
OR = "OR"

# Bytes of one (rules, records) float64 temporary of the blocked rule kernels.
BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class Rule:
    antecedents: tuple[int, ...]  # 0 means dont-care, else a label in 1..p
    consequent: int               # class in 1..c
    connective: str               # AND or OR
    weight: float = 0.0

    def antecedent_count(self) -> int:
        return sum(1 for a in self.antecedents if a != 0)


@dataclass(frozen=True)
class RuleSet:
    rules: tuple[Rule, ...]
    m: int
    p: int
    c: int

    @property
    def r(self) -> int:
        return len(self.rules)


@dataclass(frozen=True)
class RuleSetShape:
    """Dimensions of a rule-set genotype: r rules over m attributes with p
    fuzzy labels and c classes. Needs r >= c so repair can cover every class."""

    m: int
    p: int
    c: int
    r: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.p < 2 or self.c < 2:
            raise ConfigError(
                f"need m >= 1, p >= 2, c >= 2, got m={self.m} p={self.p} c={self.c}"
            )
        if self.r < self.c:
            raise ConfigError(
                f"need at least one rule per class: r={self.r} < c={self.c}"
            )

    @property
    def genotype_length(self) -> int:
        return self.r * (self.m + 2)


def genotype_bounds(shape: RuleSetShape) -> tuple[np.ndarray, np.ndarray]:
    """Per-gene sampling bounds.

    Antecedent genes round into 0..p, class genes into 1..c, and the
    connective gene stays in [0, 1] around its 0.5 threshold.
    """
    lower = np.r_[np.full(shape.m, -0.49), 0.51, 0.0]
    upper = np.r_[np.full(shape.m, shape.p + 0.49), shape.c + 0.49, 1.0]
    return np.tile(lower, shape.r), np.tile(upper, shape.r)


def decode_arrays(
    genes: np.ndarray, shape: RuleSetShape
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Round genotypes (Q, L) to repaired rule arrays: antecedents (Q, r, m)
    in 0..p, consequents (Q, r) in 1..c and is_and (Q, r). Total on any reals."""
    genes = np.asarray(genes, dtype=float)
    if genes.ndim != 2 or genes.shape[1] != shape.genotype_length:
        raise ConfigError(
            f"genotype length {genes.shape} does not match {shape.genotype_length}"
        )
    block = genes.reshape(len(genes), shape.r, shape.m + 2)
    ants = np.clip(np.rint(block[..., : shape.m]), 0, shape.p).astype(int)
    consequents = np.clip(np.rint(block[..., shape.m]), 1, shape.c).astype(int)
    is_and = block[..., shape.m + 1] < 0.5

    # repair 1: an all-dont-care rule gets one antecedent switched on, at an
    # attribute chosen by rule position so identical rules repair differently
    tables, empty = np.nonzero(~ants.any(axis=2))
    ants[tables, empty, empty % shape.m] = 1

    # repair 2: a missing class takes the first rule of the largest class
    counts = np.count_nonzero(consequents[..., None] == np.arange(1, shape.c + 1), axis=1)
    for missing in range(shape.c):
        tables = np.flatnonzero(counts[:, missing] == 0)
        donor_class = np.argmax(counts[tables], axis=1)
        donor_rule = np.argmax(consequents[tables] == donor_class[:, None] + 1, axis=1)
        consequents[tables, donor_rule] = missing + 1
        counts[tables, donor_class] -= 1
        counts[tables, missing] += 1
    return ants, consequents, is_and


def decode(genes: np.ndarray, shape: RuleSetShape) -> RuleSet:
    """Round genes to a repaired rule set. Total on any real vector."""
    ants, consequents, is_and = (a[0] for a in decode_arrays(np.asarray(genes, dtype=float)[None], shape))
    rules = tuple(
        Rule(tuple(ants[i].tolist()), int(consequents[i]), AND if is_and[i] else OR)
        for i in range(shape.r)
    )
    return RuleSet(rules=rules, m=shape.m, p=shape.p, c=shape.c)


def rule_arrays(rs: RuleSet) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(antecedents, consequents, is_and, weights) arrays of a rule set."""
    return (
        np.array([rule.antecedents for rule in rs.rules], dtype=int).reshape(rs.r, rs.m),
        np.array([rule.consequent for rule in rs.rules], dtype=int),
        np.array([rule.connective == AND for rule in rs.rules], dtype=bool),
        np.array([rule.weight for rule in rs.rules], dtype=float),
    )


def encode(rs: RuleSet) -> np.ndarray:
    """Inverse of decode on repaired rule sets. AND -> 0.0, OR -> 1.0."""
    ants, consequents, is_and, _ = rule_arrays(rs)
    return np.column_stack([ants, consequents, ~is_and]).astype(float).ravel()


def match_mask(rule: Rule, ld: LabeledDataset) -> np.ndarray:
    """Boolean mask of records whose fuzzified labels satisfy the rule.

    AND needs every non-zero antecedent to equal the record's label; OR needs
    at least one. The class consequent plays no part. A rule with no active
    antecedents matches everything.
    """
    ants = np.asarray(rule.antecedents)
    active = ants != 0
    if not active.any():
        return np.ones(ld.n, dtype=bool)
    hits = ld.labels[:, active] == ants[active]
    return hits.all(axis=1) if rule.connective == AND else hits.any(axis=1)


def record_blocks(n: int, rules: int) -> list[slice]:
    """Record slices that keep an (rules, block) float64 array of a kernel
    within BLOCK_BYTES, with at least one record per block."""
    step = max(1, BLOCK_BYTES // (8 * max(1, rules)))
    return [slice(start, start + step) for start in range(0, n, step)]


def match_fractions(ld: LabeledDataset, ants: np.ndarray, is_and: np.ndarray) -> np.ndarray:
    """Fraction of the records that each rule matches, shape (r,). The match
    masks that `fold_rules` gives on `ld.indicators`, one column per distinct
    label row, are counted as `mask @ ld.multiplicities` in blocks of rows;
    the integer counts are divided by n once."""
    table, multiplicities = ld.indicators, ld.multiplicities
    counts = np.zeros(len(ants), dtype=np.int64)
    for block in record_blocks(table.shape[2], len(ants)):
        counts += fold_rules(table[:, :, block], ants, is_and).astype(np.int64) @ multiplicities[block]
    return counts / ld.n


def rule_weights(ants: np.ndarray, fractions: np.ndarray) -> np.ndarray:
    """Each rule's weight in [0, 1]: the mean of its brevity (1 minus its
    share of active antecedents) and its match fraction. Antecedents
    (..., r, m), fractions (..., r)."""
    return 0.5 * ((1.0 - np.count_nonzero(ants, axis=-1) / ants.shape[-1]) + fractions)


def with_weights(rs: RuleSet, ld: LabeledDataset, decimals: int | None = None) -> RuleSet:
    """Copy of the rule set with data-derived weights on every rule."""
    ants, _, is_and, _ = rule_arrays(rs)
    weights = rule_weights(ants, match_fractions(ld, ants, is_and)).tolist()
    if decimals is not None:
        # Python's round, not np.round: the two differ on some halfway cases
        weights = [round(w, decimals) for w in weights]
    rules = tuple(replace(rule, weight=w) for rule, w in zip(rs.rules, weights))
    return RuleSet(rules=rules, m=rs.m, p=rs.p, c=rs.c)


def fold_rules(table: np.ndarray, ants: np.ndarray, is_and: np.ndarray) -> np.ndarray:
    """Each rule's rows of an (m, p + 2, n) table padded as
    `membership.degree_table` is, combined over the attributes: min for AND
    rules, max for OR rules. Shape (r, n), in the table's dtype; a rule without
    antecedents gives label 0's row. On degrees this gives activations, on
    their ranks the activations' ranks, on label indicators match masks."""
    is_and = is_and | ~ants.any(axis=1)
    ants = np.where(is_and[:, None] | (ants != 0), ants, table.shape[1] - 1)
    # AND rules first, so each connective folds a contiguous run of rows; labels
    # are in 0..p + 1, so "clip" never clips, and unlike "raise" it needs no copy
    order = np.argsort(~is_and, kind="stable")
    idx, k = ants[order], np.count_nonzero(is_and)
    acc = table[0].take(idx[:, 0], axis=0, mode="clip")
    gathered = np.empty_like(acc)
    for j in range(1, len(table)):
        table[j].take(idx[:, j], axis=0, out=gathered, mode="clip")
        np.minimum(acc[:k], gathered[:k], out=acc[:k])
        np.maximum(acc[k:], gathered[k:], out=acc[k:])
    return acc.take(np.argsort(order), axis=0, out=gathered, mode="clip")
