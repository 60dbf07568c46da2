"""The attribute-major rule kernel against the scalar oracles.

`fold_rules` over the padded degree table of a `RuleObjective` and over
`LabeledDataset.indicators` must give, cell for cell, what
`inference.activation` and `rules.match_mask` give per rule and record;
`predict_dataset` must give what `inference.classify` gives per
record; `decode_arrays` must repair exactly as a rule-by-rule decoder does.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rulestorm.dataset import AttributeStats, Dataset
from rulestorm.fitness import FitnessWeights
from rulestorm.inference import Model, activation, classify, predict_dataset
from rulestorm.membership import build_partition, fuzzify_dataset
from rulestorm.rules import (
    AND,
    OR,
    Rule,
    RuleSet,
    RuleSetShape,
    decode,
    decode_arrays,
    fold_rules,
    match_mask,
    rule_arrays,
)
from rulestorm.training import RuleObjective

LOW, HIGH = 0.0, 10.0


def random_case(seed, n, m, p, c, r, zero_weights):
    """Records over and beyond [LOW, HIGH], some on partition peaks, and r
    rules with many don't-cares (all-don't-care rules included)."""
    rng = np.random.default_rng(seed)
    partitions = tuple(
        build_partition(AttributeStats(LOW, HIGH, False), p) for _ in range(m)
    )
    x = rng.uniform(LOW - 2.0, HIGH + 2.0, size=(n, m))
    peaks = np.linspace(LOW, HIGH, p)
    on_peak = rng.random((n, m)) < 0.3
    x[on_peak] = rng.choice(peaks, size=int(on_peak.sum()))
    y = rng.integers(1, c + 1, size=n)
    ds = Dataset(
        x=x,
        y=y,
        attribute_names=tuple(f"a{j}" for j in range(m)),
        class_values=tuple(float(k) for k in range(c)),
    )
    ants = np.where(rng.random((r, m)) < 0.5, 0, rng.integers(1, p + 1, size=(r, m)))
    weights = rng.choice([0.0, 0.25, 1.0], size=r) if zero_weights else rng.random(r)
    rules = tuple(
        Rule(
            tuple(ants[i].tolist()),
            int(rng.integers(1, c + 1)),
            AND if rng.random() < 0.5 else OR,
            float(weights[i]),
        )
        for i in range(r)
    )
    return ds, partitions, RuleSet(rules=rules, m=m, p=p, c=c)


case = dict(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 12),
    m=st.integers(1, 4),
    p=st.integers(2, 4),
    c=st.integers(2, 3),
    extra_rules=st.integers(0, 4),
    zero_weights=st.booleans(),
)


def objective_for(ds, partitions, rs):
    ld = fuzzify_dataset(ds, partitions)
    shape = RuleSetShape(m=rs.m, p=rs.p, c=rs.c, r=max(rs.r, rs.c))
    objective = RuleObjective(
        ld, shape, FitnessWeights(), 1.0, partitions, ds.x, majority=1
    )
    return ld, objective


@settings(max_examples=150, deadline=None)
@given(**case)
def test_fold_equals_activation_and_match_mask(seed, n, m, p, c, extra_rules, zero_weights):
    ds, partitions, rs = random_case(seed, n, m, p, c, c + extra_rules, zero_weights)
    ld, objective = objective_for(ds, partitions, rs)
    ants, _, is_and, _ = rule_arrays(rs)
    activations = fold_rules(objective.degrees, ants, is_and)
    matched = fold_rules(ld.indicators, ants, is_and)
    assert activations.shape == matched.shape == (rs.r, ds.n)
    assert objective.degrees.flags.c_contiguous and ld.indicators.flags.c_contiguous
    for i, rule in enumerate(rs.rules):
        assert matched[i].tolist() == match_mask(rule, ld).tolist()
        expected = [activation(rule, partitions, ds.x[k]) for k in range(ds.n)]
        assert activations[i].tolist() == expected


@settings(max_examples=150, deadline=None)
@given(sum_scores=st.booleans(), **case)
def test_predict_dataset_equals_classify(seed, n, m, p, c, extra_rules, zero_weights, sum_scores):
    ds, partitions, rs = random_case(seed, n, m, p, c, c + extra_rules, zero_weights)
    model = Model(
        partitions=partitions,
        rules=rs,
        class_values=ds.class_values,
        attribute_names=ds.attribute_names,
        majority_class=c,
        metadata={},
    )
    preds, scores = predict_dataset(model, ds, sum_scores=sum_scores)
    for k in range(ds.n):
        cls, score = classify(model, ds.x[k], sum_scores=sum_scores)
        assert (int(preds[k]), float(scores[k])) == (cls, score)


def test_generated_cases_cover_the_corner_cases():
    """The strategies above reach OR don't-cares, all-don't-care rules under
    both connectives, and records no rule scores above zero."""
    seen = set()
    for seed in range(200):
        ds, partitions, rs = random_case(seed, 8, 2, 3, 2, 4, zero_weights=seed % 2 == 0)
        for rule in rs.rules:
            if rule.connective == OR and 0 < rule.antecedent_count() < rs.m:
                seen.add("or-dont-care")
            if rule.antecedent_count() == 0:
                seen.add(f"empty-{rule.connective}")
        model = Model(partitions, rs, ds.class_values, ds.attribute_names, 1, {})
        _, scores = predict_dataset(model, ds)
        if np.any(scores == 0.0):
            seen.add("dead-record")
    assert seen == {"or-dont-care", "empty-AND", "empty-OR", "dead-record"}


def decode_oracle(genes, shape):
    """Rule-by-rule decoder with both repairs, written without arrays."""
    w = shape.m + 2
    ants, consequents, connectives = [], [], []
    for i in range(shape.r):
        block = genes[i * w : (i + 1) * w]
        row = [min(max(int(np.rint(g)), 0), shape.p) for g in block[: shape.m]]
        if not any(row):
            row[i % shape.m] = 1
        ants.append(row)
        consequents.append(min(max(int(np.rint(block[shape.m])), 1), shape.c))
        connectives.append(AND if block[shape.m + 1] < 0.5 else OR)
    for missing in range(1, shape.c + 1):
        counts = [consequents.count(k) for k in range(1, shape.c + 1)]
        if counts[missing - 1] == 0:
            donor_class = counts.index(max(counts)) + 1
            consequents[consequents.index(donor_class)] = missing
    return ants, consequents, connectives


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    m=st.integers(1, 5),
    p=st.integers(2, 4),
    c=st.integers(2, 4),
    extra_rules=st.integers(0, 4),
    empty_share=st.floats(0.0, 1.0),
)
def test_decode_equals_decode_arrays_under_both_repairs(seed, m, p, c, extra_rules, empty_share):
    shape = RuleSetShape(m=m, p=p, c=c, r=c + extra_rules)
    rng = np.random.default_rng(seed)
    genes = rng.uniform(-1.0, p + 1.0, size=shape.genotype_length).reshape(shape.r, m + 2)
    # all-don't-care rules force repair 1; one shared class forces repair 2
    genes[rng.random(shape.r) < empty_share, :m] = rng.uniform(-0.49, 0.49)
    genes[:, m] = rng.integers(1, c + 1)
    genes[:, m + 1] = rng.uniform(0.0, 1.0, size=shape.r)
    genes = genes.ravel()

    ants, consequents, is_and = decode_arrays(genes, shape)
    want_ants, want_consequents, want_connectives = decode_oracle(genes, shape)
    assert ants.tolist() == want_ants
    assert consequents.tolist() == want_consequents
    assert [AND if a else OR for a in is_and] == want_connectives
    assert decode(genes, shape) == RuleSet(
        rules=tuple(
            Rule(tuple(a), k, conn)
            for a, k, conn in zip(want_ants, want_consequents, want_connectives)
        ),
        m=m,
        p=p,
        c=c,
    )
