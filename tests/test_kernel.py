"""The attribute-major rule kernel against the scalar oracles.

`fold_rules` over the rank table of a `RuleObjective`, looked up in its
values, and over `LabeledDataset.indicators`, one column per distinct label
row, must give, cell for cell, what `inference.activation` and
`rules.match_mask` give per rule and record; the rank fold must give the
degree fold's bits, and match fractions the counts of a per-record table;
`predict_dataset` must give what `inference.classify` gives per
record, in any record blocking; `decode_arrays` must repair exactly as a
rule-by-rule decoder does; `RuleObjective.evaluate_batch` must give, in any
record blocking, exactly what `fitness.evaluate` and `classify` give per
genotype.
"""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rulestorm import rules
from rulestorm.dataset import AttributeStats, Dataset, majority_class
from rulestorm.fitness import FitnessWeights, evaluate
from rulestorm.inference import Model, activation, classify, predict_dataset, predict_scores
from rulestorm.membership import build_partition, degree_table, fuzzify_dataset, rank_table
from rulestorm.rules import (
    AND,
    OR,
    Rule,
    RuleSet,
    RuleSetShape,
    decode,
    decode_arrays,
    fold_rules,
    genotype_bounds,
    match_mask,
    rule_arrays,
    with_weights,
)
from rulestorm.training import RuleObjective

LOW, HIGH = 0.0, 10.0


def random_case(seed, n, m, p, c, r, zero_weights):
    """Records over and beyond [LOW, HIGH], some on partition peaks, and r
    rules with many don't-cares (all-don't-care rules included). In about a
    quarter of the cases one attribute is constant, with the degenerate
    partition that training gives it."""
    rng = np.random.default_rng(seed)
    partitions = tuple(
        build_partition(AttributeStats(LOW, HIGH, False), p) for _ in range(m)
    )
    x = rng.uniform(LOW - 2.0, HIGH + 2.0, size=(n, m))
    peaks = np.linspace(LOW, HIGH, p)
    on_peak = rng.random((n, m)) < 0.3
    x[on_peak] = rng.choice(peaks, size=int(on_peak.sum()))
    y = rng.integers(1, c + 1, size=n)
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
    if rng.random() < 0.25:
        j, value = int(rng.integers(m)), float(rng.uniform(LOW, HIGH))
        x[:, j] = value
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # build_partition warns about a constant attribute
            flat = build_partition(AttributeStats(value, value, True), p)
        partitions = partitions[:j] + (flat,) + partitions[j + 1 :]
    ds = Dataset(
        x=x,
        y=y,
        attribute_names=tuple(f"a{j}" for j in range(m)),
        class_values=tuple(float(k) for k in range(c)),
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


def distinct_rows(ld):
    """The distinct label rows (u, m) that the columns of `ld.indicators`
    stand for, read back from the table."""
    return np.argmax(ld.indicators[:, 1:-1, :], axis=1).T + 1


@settings(max_examples=150, deadline=None)
@given(**case)
def test_fold_equals_activation_and_match_mask(seed, n, m, p, c, extra_rules, zero_weights):
    ds, partitions, rs = random_case(seed, n, m, p, c, c + extra_rules, zero_weights)
    ld, objective = objective_for(ds, partitions, rs)
    ants, _, is_and, _ = rule_arrays(rs)
    activations = objective.values[fold_rules(objective.ranks, ants, is_and)]
    matched = fold_rules(ld.indicators, ants, is_and)
    rows = distinct_rows(ld)
    assert activations.shape == (rs.r, ds.n) and matched.shape == (rs.r, len(rows))
    assert objective.ranks.flags.c_contiguous and ld.indicators.flags.c_contiguous
    # the indicator columns are exactly the distinct label rows, each counted once
    one_hot = rows.T[:, None, :] == np.arange(p + 2)[:, None]
    one_hot[:, 0] = True
    assert ld.indicators.tolist() == one_hot.tolist()
    assert sorted(map(tuple, rows.tolist())) == sorted(set(map(tuple, ld.labels.tolist())))
    row_of = [rows.tolist().index(ld.labels[k].tolist()) for k in range(ds.n)]
    assert ld.multiplicities.tolist() == np.bincount(row_of, minlength=len(rows)).tolist()
    for i, rule in enumerate(rs.rules):
        assert matched[i, row_of].tolist() == match_mask(rule, ld).tolist()
        expected = [activation(rule, partitions, ds.x[k]) for k in range(ds.n)]
        assert activations[i].tolist() == expected


def assert_rank_fold_equals_degree_fold(partitions, x, p, ants, is_and):
    values, ranks = rank_table(partitions, x, p)
    degrees = degree_table(partitions, x, p)
    assert ranks.shape == degrees.shape and ranks.dtype == np.min_scalar_type(len(values) - 1)
    assert values[0] == 0.0 and values[-1] == 1.0 and np.all(np.diff(values) > 0.0)
    assert np.array_equal(values[ranks].view(np.int64), degrees.view(np.int64))
    folded = values[fold_rules(ranks, ants, is_and)]
    assert np.array_equal(folded.view(np.int64), fold_rules(degrees, ants, is_and).view(np.int64))
    return ranks.dtype


@settings(max_examples=150, deadline=None)
@given(**{**case, "n": st.integers(1, 40)})
def test_rank_fold_equals_degree_fold_bit_for_bit(seed, n, m, p, c, extra_rules, zero_weights):
    """Degenerate partitions, records on peaks and out of range, and
    all-don't-care rules come from random_case."""
    ds, partitions, rs = random_case(seed, n, m, p, c, c + extra_rules, zero_weights)
    ants, _, is_and, _ = rule_arrays(rs)
    assert_rank_fold_equals_degree_fold(partitions, ds.x, p, ants, is_and)


def test_rank_fold_equals_degree_fold_past_65535_distinct_degrees():
    """40,000 distinct values on each of two attributes give about 160,000
    distinct degrees, so the ranks need uint32."""
    rng = np.random.default_rng(5)
    x = rng.uniform(LOW - 2.0, HIGH + 2.0, size=(40_000, 2))
    partitions = (build_partition(AttributeStats(LOW, HIGH, False), 3),) * 2
    ants = np.array([[0, 0], [0, 0], [1, 0], [2, 3], [3, 1], [0, 2]])
    is_and = np.array([True, False, True, True, False, False])
    assert assert_rank_fold_equals_degree_fold(partitions, x, 3, ants, is_and) == np.uint32


@settings(max_examples=150, deadline=None)
@given(
    block_bytes=st.sampled_from([1, 200, 2000, rules.BLOCK_BYTES]),
    **{**case, "n": st.integers(1, 60), "m": st.integers(1, 3)},
)
def test_distinct_row_match_fractions_equal_full_table_counts(seed, n, m, p, c, extra_rules, zero_weights, block_bytes):
    """Few attributes and labels, so many records share a label row; small
    block budgets split the distinct rows into blocks down to one row."""
    ds, partitions, rs = random_case(seed, n, m, p, c, c + extra_rules, zero_weights)
    ld = fuzzify_dataset(ds, partitions)
    ants, _, is_and, _ = rule_arrays(rs)
    full = ld.labels.T[:, None, :] == np.arange(p + 2)[:, None]  # one column per record
    full[:, 0] = True
    counts = np.count_nonzero(fold_rules(full, ants, is_and), axis=1)
    assert counts.tolist() == [match_mask(rule, ld).sum() for rule in rs.rules]
    with mock.patch.object(rules, "BLOCK_BYTES", block_bytes):
        assert rules.match_fractions(ld, ants, is_and).tolist() == (counts / ds.n).tolist()


@settings(max_examples=150, deadline=None)
@given(
    sum_scores=st.booleans(),
    block_bytes=st.sampled_from([1, 200, 2000, rules.BLOCK_BYTES]),
    **{**case, "n": st.integers(1, 40)},
)
def test_predict_dataset_equals_classify(seed, n, m, p, c, extra_rules, zero_weights, sum_scores, block_bytes):
    """Small block budgets split the records into blocks down to one record
    each, with a ragged last block."""
    ds, partitions, rs = random_case(seed, n, m, p, c, c + extra_rules, zero_weights)
    model = Model(
        partitions=partitions,
        rules=rs,
        class_values=ds.class_values,
        attribute_names=ds.attribute_names,
        majority_class=c,
        metadata={},
    )
    with mock.patch.object(rules, "BLOCK_BYTES", block_bytes):
        preds, scores = predict_dataset(model, ds, sum_scores=sum_scores)
    for k in range(ds.n):
        cls, score = classify(model, ds.x[k], sum_scores=sum_scores)
        assert (int(preds[k]), float(scores[k])) == (cls, score)


def test_predict_dataset_peak_memory_does_not_grow_with_records():
    """Apart from its two (n,) outputs, predict_dataset's traced peak is the
    same on 20,000 and 80,000 records: it builds the degree table and the
    folds one record block at a time."""

    def peak_beyond_outputs(n):
        ds, partitions, rs = random_case(0, n, 8, 3, 2, 10, False)
        model = Model(partitions, rs, ds.class_values, ds.attribute_names, 1, {})
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            preds, scores = predict_dataset(model, ds)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return peak - preds.nbytes - scores.nbytes

    assert peak_beyond_outputs(80_000) <= peak_beyond_outputs(20_000) + 2**20


def test_generated_cases_cover_the_corner_cases():
    """The strategies above reach OR don't-cares, all-don't-care rules under
    both connectives, records no rule scores above zero and constant
    attributes."""
    seen = set()
    for seed in range(200):
        ds, partitions, rs = random_case(seed, 8, 2, 3, 2, 4, zero_weights=seed % 2 == 0)
        for rule in rs.rules:
            if rule.connective == OR and 0 < rule.antecedent_count() < rs.m:
                seen.add("or-dont-care")
            if rule.antecedent_count() == 0:
                seen.add(f"empty-{rule.connective}")
        if any(partition.degenerate for partition in partitions):
            seen.add("constant-attribute")
        model = Model(partitions, rs, ds.class_values, ds.attribute_names, 1, {})
        _, scores = predict_dataset(model, ds)
        if np.any(scores == 0.0):
            seen.add("dead-record")
    assert seen == {"or-dont-care", "empty-AND", "empty-OR", "dead-record", "constant-attribute"}


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
    tables=st.integers(1, 4),
)
def test_decode_equals_decode_arrays_under_both_repairs(seed, m, p, c, extra_rules, empty_share, tables):
    shape = RuleSetShape(m=m, p=p, c=c, r=c + extra_rules)
    rng = np.random.default_rng(seed)
    genes = rng.uniform(-1.0, p + 1.0, size=(tables, shape.r, m + 2))
    # all-don't-care rules force repair 1; a table whose rules share one
    # class forces repair 2, a table with random classes mostly does not
    genes[rng.random((tables, shape.r)) < empty_share, :m] = rng.uniform(-0.49, 0.49)
    shared = rng.random(tables) < 0.5
    genes[:, :, m] = np.where(
        shared[:, None], rng.integers(1, c + 1, size=(tables, 1)), rng.integers(1, c + 1, size=(tables, shape.r))
    )
    genes[:, :, m + 1] = rng.uniform(0.0, 1.0, size=(tables, shape.r))
    genes = genes.reshape(tables, shape.genotype_length)

    ants, consequents, is_and = decode_arrays(genes, shape)
    assert ants.shape == (tables, shape.r, m)
    for t in range(tables):
        want_ants, want_consequents, want_connectives = decode_oracle(genes[t], shape)
        assert ants[t].tolist() == want_ants
        assert consequents[t].tolist() == want_consequents
        assert [AND if a else OR for a in is_and[t]] == want_connectives
        assert decode(genes[t], shape) == RuleSet(
            rules=tuple(
                Rule(tuple(a), k, conn)
                for a, k, conn in zip(want_ants, want_consequents, want_connectives)
            ),
            m=m,
            p=p,
            c=c,
        )


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 30),
    m=st.integers(1, 4),
    c=st.integers(2, 3),
    extra_rules=st.integers(0, 3),
    tables=st.integers(1, 6),
    sum_scores=st.booleans(),
    accuracy_weight=st.sampled_from([0.0, 0.35, 1.0]),
    block_bytes=st.sampled_from([1, 200, 2000, rules.BLOCK_BYTES]),
)
def test_evaluate_batch_equals_per_genotype_oracles(
    seed, n, m, c, extra_rules, tables, sum_scores, accuracy_weight, block_bytes
):
    """Batches repeat genotypes and force both repairs; small block budgets
    split the records into blocks down to one record each."""
    p = 3
    ds, partitions, _ = random_case(seed, n, m, p, c, c, False)
    ld = fuzzify_dataset(ds, partitions)
    shape = RuleSetShape(m=m, p=p, c=c, r=c + extra_rules)
    weights = FitnessWeights(1.0, 2.0, 0.5)
    objective = RuleObjective(
        ld, shape, weights, accuracy_weight, partitions, ds.x, majority_class(ds), sum_scores
    )
    rng = np.random.default_rng(seed)
    lower, upper = genotype_bounds(shape)
    genes = rng.uniform(lower, upper, size=(tables, len(lower))).reshape(tables, shape.r, m + 2)
    genes[rng.random((tables, shape.r)) < 0.3, :m] = 0.2  # all-don't-care rules
    genes[rng.random(tables) < 0.4, :, m] = 1.0  # one class only: repair 2
    genes = genes.reshape(tables, -1)[rng.integers(0, tables, size=tables + 2)]  # repeats

    with mock.patch.object(rules, "BLOCK_BYTES", block_bytes):
        batch = objective.evaluate_batch(genes)
    assert len(batch) == len(genes)
    for genotype, got in zip(genes, batch):
        rule_set = decode(genotype, shape)
        quality = evaluate(rule_set, ld, weights)
        model = Model(
            partitions, with_weights(rule_set, ld), ds.class_values, ds.attribute_names,
            majority_class(ds), {},
        )
        # counted record by record, not through the blocked scorer the objective uses
        accuracy = sum(classify(model, ds.x[k], sum_scores)[0] == ds.y[k] for k in range(ds.n)) / ds.n
        assert got.breakdown == quality
        if accuracy_weight == 0.0:
            assert got.value == quality.fitness
        else:
            assert got.value == (1.0 - accuracy_weight) * quality.fitness + accuracy_weight * accuracy


def predict_scores_oracle(scores, consequents, c, majority, sum_scores):
    """One rule table's (classes, winning scores) with np.argmax."""
    totals = scores
    if sum_scores:
        totals = np.zeros((c, scores.shape[1]))
        for k, row in zip(consequents, scores):
            totals[k - 1] += row
        preds = np.argmax(totals, axis=0) + 1
    else:
        preds = consequents[np.argmax(scores, axis=0)]
    dead = ~np.any(scores > 0.0, axis=0)
    return np.where(dead, majority, preds), np.where(dead, 0.0, totals.max(axis=0))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    tables=st.integers(1, 5),
    r=st.integers(1, 6),
    n=st.integers(1, 10),
    c=st.integers(2, 4),
    sum_scores=st.booleans(),
)
def test_batched_predict_scores_equals_per_table_calls(seed, tables, r, n, c, sum_scores):
    """Scores from a few values, so ties and all-zero records are common."""
    rng = np.random.default_rng(seed)
    scores = rng.choice([0.0, 0.25, 0.5], size=(tables, r, n))
    consequents = rng.integers(1, c + 1, size=(tables, r))
    preds, best = predict_scores(scores, consequents, c, 2, sum_scores)
    assert preds.shape == best.shape == (tables, n)
    for t in range(tables):
        one_preds, one_best = predict_scores(scores[t : t + 1], consequents[t : t + 1], c, 2, sum_scores)
        want_preds, want_best = predict_scores_oracle(scores[t], consequents[t], c, 2, sum_scores)
        assert preds[t].tolist() == one_preds[0].tolist() == want_preds.tolist()
        assert best[t].tolist() == one_best[0].tolist() == want_best.tolist()
