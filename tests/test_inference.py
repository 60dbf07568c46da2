"""Tests for classification with a trained model and the derived metrics."""

import numpy as np
import pytest

from rulestorm.dataset import Dataset
from rulestorm.errors import ConfigError, DataError
from rulestorm.inference import (
    ConfusionCounts,
    Model,
    activation,
    binary_counts,
    classify,
    evaluate_model,
    predict_dataset,
    sensitivity,
    specificity,
)
from rulestorm.membership import FuzzyPartition, TriangularMF, build_partition
from rulestorm.dataset import AttributeStats
from rulestorm.rules import AND, OR, Rule, RuleSet


def unit_partitions(count):
    """Partitions over [0, 10] with p=3: peaks at 0, 5, 10."""
    return tuple(
        build_partition(AttributeStats(minimum=0.0, maximum=10.0, constant=False), 3)
        for _ in range(count)
    )


def make_model(rule_specs, m=2, c=2, majority=1, class_values=(0.0, 1.0)):
    rules = tuple(
        Rule(tuple(a), cons, conn, weight=w) for a, cons, conn, w in rule_specs
    )
    return Model(
        partitions=unit_partitions(m),
        rules=RuleSet(rules=rules, m=m, p=3, c=c),
        class_values=tuple(class_values),
        attribute_names=tuple(f"a{i+1}" for i in range(m)),
        majority_class=majority,
        metadata={},
    )


def make_dataset(x, y, class_values=(0.0, 1.0)):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    return Dataset(
        x=x,
        y=y,
        attribute_names=tuple(f"a{i+1}" for i in range(x.shape[1])),
        class_values=tuple(class_values),
    )


# -------------------------------------------------------------- activation ---

def test_activation_and_takes_min():
    parts = unit_partitions(2)
    rule = Rule((2, 3), 1, AND)
    # x=4 gives label-2 degree 0.8; x=6.5 gives label-3 degree 0.3
    assert activation(rule, parts, np.array([4.0, 6.5])) == pytest.approx(0.3)


def test_activation_or_takes_max():
    parts = unit_partitions(2)
    rule = Rule((2, 3), 1, OR)
    assert activation(rule, parts, np.array([4.0, 6.5])) == pytest.approx(0.8)


def test_activation_ignores_dont_care_positions():
    parts = unit_partitions(2)
    rule = Rule((2, 0), 1, AND)
    assert activation(rule, parts, np.array([5.0, 9.9])) == pytest.approx(1.0)


def test_activation_all_dont_care_is_one():
    parts = unit_partitions(2)
    rule = Rule((0, 0), 1, AND)
    assert activation(rule, parts, np.array([3.3, 7.7])) == 1.0


def test_activation_at_peaks_is_one():
    parts = unit_partitions(2)
    rule = Rule((1, 2), 1, AND)
    assert activation(rule, parts, np.array([0.0, 5.0])) == 1.0


def test_activation_clamps_out_of_range_values():
    parts = unit_partitions(2)
    rule = Rule((3, 1), 2, AND)
    assert activation(rule, parts, np.array([99.0, -42.0])) == 1.0


# ---------------------------------------------------------------- classify ---

def test_classify_picks_highest_scoring_rule():
    model = make_model([
        ((1, 0), 1, AND, 0.4),
        ((0, 1), 2, AND, 0.7),
    ])
    cls, score = classify(model, np.array([0.0, 0.0]))
    assert cls == 2
    assert score == pytest.approx(0.7)


def test_classify_tie_prefers_lower_rule_index():
    model = make_model([
        ((1, 0), 1, AND, 0.5),
        ((0, 0), 2, AND, 0.25),
        ((0, 0), 2, OR, 0.25),
        ((0, 1), 2, AND, 0.5),
    ])
    cls, score = classify(model, np.array([0.0, 0.0]))
    assert cls == 1
    assert score == pytest.approx(0.5)


def test_classify_zero_scores_falls_back_to_majority():
    model = make_model(
        [((1, 1), 1, AND, 0.9), ((1, 1), 2, AND, 0.8)], majority=2
    )
    cls, score = classify(model, np.array([10.0, 10.0]))
    assert cls == 2
    assert score == 0.0


def test_classify_zero_weight_rules_cannot_win():
    model = make_model(
        [((1, 0), 1, AND, 0.0), ((0, 1), 2, AND, 0.0)], majority=1
    )
    cls, score = classify(model, np.array([0.0, 0.0]))
    assert cls == 1
    assert score == 0.0


def test_classify_sum_aggregation_pools_class_scores():
    model = make_model([
        ((0, 0), 1, AND, 0.3),
        ((0, 0), 1, AND, 0.3),
        ((0, 0), 2, AND, 0.5),
    ])
    winner_cls, winner_score = classify(model, np.array([5.0, 5.0]))
    assert winner_cls == 2
    assert winner_score == pytest.approx(0.5)
    sum_cls, sum_score = classify(model, np.array([5.0, 5.0]), sum_scores=True)
    assert sum_cls == 1
    assert sum_score == pytest.approx(0.6)


def test_predict_dataset_matches_classify_per_record():
    rng = np.random.default_rng(8)
    model = make_model([
        ((1, 2), 1, AND, 0.62),
        ((2, 0), 2, OR, 0.41),
        ((0, 3), 2, AND, 0.55),
        ((3, 1), 1, OR, 0.3),
    ])
    x = rng.uniform(-2.0, 12.0, size=(40, 2))
    ds = make_dataset(x, rng.integers(1, 3, size=40))
    preds, scores = predict_dataset(model, ds)
    for i in range(ds.n):
        cls, score = classify(model, ds.x[i])
        assert preds[i] == cls
        assert scores[i] == pytest.approx(score, abs=1e-12)


def test_predict_dataset_attribute_mismatch_is_a_data_error():
    model = make_model([((1, 0), 1, AND, 0.5), ((0, 1), 2, AND, 0.5)])
    ds = make_dataset([[0.0, 5.0, 1.0]], [1])
    with pytest.raises(DataError, match="model expects 2 attributes, data has 3"):
        predict_dataset(model, ds)


def test_predictions_invariant_to_weight_rescaling():
    rng = np.random.default_rng(3)
    specs = [
        ((1, 2), 1, AND, 0.62),
        ((2, 0), 2, OR, 0.41),
        ((0, 3), 2, AND, 0.55),
        ((3, 1), 1, OR, 0.3),
    ]
    scaled = [(a, c, conn, w * 0.137) for a, c, conn, w in specs]
    m1 = make_model(specs)
    m2 = make_model(scaled)
    x = rng.uniform(0.0, 10.0, size=(60, 2))
    ds = make_dataset(x, rng.integers(1, 3, size=60))
    p1, _ = predict_dataset(m1, ds)
    p2, _ = predict_dataset(m2, ds)
    assert np.array_equal(p1, p2)


# ----------------------------------------------------------------- metrics ---

def test_sensitivity_fixture():
    counts = ConfusionCounts(tp=50, fp=0, tn=0, fn=10)
    assert round(sensitivity(counts), 4) == 0.8333


def test_specificity_fixture():
    counts = ConfusionCounts(tp=0, fp=10, tn=30, fn=0)
    assert specificity(counts) == pytest.approx(0.75)


def test_undefined_metrics_are_none():
    assert sensitivity(ConfusionCounts(tp=0, fp=3, tn=7, fn=0)) is None
    assert specificity(ConfusionCounts(tp=5, fp=0, tn=0, fn=5)) is None


def test_counts_reject_negative():
    with pytest.raises(ConfigError):
        ConfusionCounts(tp=-1, fp=0, tn=0, fn=0)


# ---------------------------------------------------------------- evaluate ---

def perfect_model():
    # label 1 on the first attribute -> class 1; label 3 -> class 2
    return make_model([
        ((1, 0), 1, AND, 0.8),
        ((3, 0), 2, AND, 0.8),
    ])


def test_evaluate_on_separable_data_is_perfect():
    x = np.array([[0.5, 5.0], [1.0, 2.0], [9.5, 5.0], [10.0, 8.0]])
    ds = make_dataset(x, [1, 1, 2, 2])
    report = evaluate_model(perfect_model(), ds)
    assert report.accuracy == 1.0
    assert report.counts == ConfusionCounts(tp=2, fp=0, tn=2, fn=0)
    assert report.sensitivity == 1.0
    assert report.specificity == 1.0


def test_evaluate_counts_match_hand_tally():
    # class 2 (original 1.0) is the positive class
    x = np.array([
        [0.5, 5.0],   # predicted 1, actual 1 -> TN
        [9.5, 5.0],   # predicted 2, actual 1 -> FP
        [0.8, 3.0],   # predicted 1, actual 2 -> FN
        [9.9, 1.0],   # predicted 2, actual 2 -> TP
        [9.0, 2.0],   # predicted 2, actual 2 -> TP
    ])
    ds = make_dataset(x, [1, 1, 2, 2, 2])
    report = evaluate_model(perfect_model(), ds)
    assert report.counts == ConfusionCounts(tp=2, fp=1, tn=1, fn=1)
    assert report.accuracy == pytest.approx(3.0 / 5.0)
    assert report.sensitivity == pytest.approx(2.0 / 3.0)
    assert report.specificity == pytest.approx(0.5)


def test_evaluate_compares_in_original_label_space():
    # model trained with original labels (3.0, 7.0); data coded the same way
    model = make_model(
        [((1, 0), 1, AND, 0.8), ((3, 0), 2, AND, 0.8)], class_values=(3.0, 7.0)
    )
    x = np.array([[0.0, 5.0], [10.0, 5.0]])
    ds = make_dataset(x, [1, 2], class_values=(3.0, 7.0))
    report = evaluate_model(model, ds)
    assert report.accuracy == 1.0
    # positive class defaults to the largest original label, 7.0
    assert report.counts.tp == 1
    assert report.counts.tn == 1


def test_evaluate_metric_permutation_invariance():
    rng = np.random.default_rng(17)
    x = rng.uniform(0.0, 10.0, size=(50, 2))
    y = rng.integers(1, 3, size=50)
    ds = make_dataset(x, y)
    order = rng.permutation(50)
    shuffled = make_dataset(x[order], y[order])
    a = evaluate_model(perfect_model(), ds)
    b = evaluate_model(perfect_model(), shuffled)
    assert a.counts == b.counts
    assert a.accuracy == b.accuracy


def test_evaluate_undefined_specificity_reported_as_none():
    x = np.array([[9.5, 5.0], [9.9, 1.0]])
    ds = make_dataset(x, [2, 2])  # positives only
    report = evaluate_model(perfect_model(), ds)
    assert report.specificity is None
    assert report.sensitivity == 1.0


def test_binary_counts_rejects_multiclass():
    rules = tuple(Rule((k, 0), k, AND, weight=0.5) for k in (1, 2, 3))
    model = Model(
        partitions=unit_partitions(2),
        rules=RuleSet(rules=rules, m=2, p=3, c=3),
        class_values=(0.0, 1.0, 2.0),
        attribute_names=("a1", "a2"),
        majority_class=1,
        metadata={},
    )
    ds = make_dataset(
        np.array([[0.0, 5.0], [5.0, 5.0]]), [1, 2], class_values=(0.0, 1.0)
    )
    with pytest.raises(ConfigError):
        binary_counts(model, ds)
    report = evaluate_model(model, ds)
    assert report.counts is None
    assert report.sensitivity is None
    assert report.specificity is None
    assert 0.0 <= report.accuracy <= 1.0


# -------------------------------------------------------------- validation ---

def test_model_rejects_partition_count_mismatch():
    with pytest.raises(ConfigError):
        Model(
            partitions=unit_partitions(3),
            rules=RuleSet(rules=(Rule((1, 0), 1, AND, 0.5), Rule((0, 1), 2, AND, 0.5)), m=2, p=3, c=2),
            class_values=(0.0, 1.0),
            attribute_names=("a1", "a2"),
            majority_class=1,
            metadata={},
        )


def test_model_rejects_label_count_mismatch():
    parts = tuple(
        build_partition(AttributeStats(minimum=0.0, maximum=10.0, constant=False), 4)
        for _ in range(2)
    )
    with pytest.raises(ConfigError):
        Model(
            partitions=parts,
            rules=RuleSet(rules=(Rule((1, 0), 1, AND, 0.5), Rule((0, 1), 2, AND, 0.5)), m=2, p=3, c=2),
            class_values=(0.0, 1.0),
            attribute_names=("a1", "a2"),
            majority_class=1,
            metadata={},
        )


def test_model_rejects_degenerate_partition_with_too_few_labels():
    lone = FuzzyPartition(mfs=(TriangularMF(1.0, 1.0, 1.0),), minimum=1.0, maximum=1.0, degenerate=True)
    with pytest.raises(ConfigError, match="1 labels"):
        Model(
            partitions=(lone, unit_partitions(1)[0]),
            rules=RuleSet(rules=(Rule((1, 0), 1, AND, 0.5), Rule((0, 1), 2, AND, 0.5)), m=2, p=3, c=2),
            class_values=(0.0, 1.0),
            attribute_names=("a1", "a2"),
            majority_class=1,
            metadata={},
        )


def test_model_rejects_majority_out_of_range():
    with pytest.raises(ConfigError):
        make_model([((1, 0), 1, AND, 0.5), ((0, 1), 2, AND, 0.5)], majority=3)


@pytest.mark.parametrize(
    "spec, message",
    [
        (((1, 0, 2), 1, AND, 0.5), r"\(1, 0, 2\)"),
        (((-1, 0), 1, AND, 0.5), "in 0..3"),
        (((4, 0), 1, OR, 0.5), "in 0..3"),
        (((1, 0), 0, AND, 0.5), "class 0 outside 1..2"),
        (((1, 0), 7, AND, 0.5), "class 7 outside 1..2"),
        (((1, 0), 1, AND, 1.5), "outside \\[0, 1\\]"),
        (((1, 0), 1, AND, -0.1), "outside \\[0, 1\\]"),
        (((1, 0), 1, AND, float("nan")), "outside \\[0, 1\\]"),
        (((1, 0), 1, AND, float("inf")), "outside \\[0, 1\\]"),
    ],
)
def test_model_rejects_bad_rule(spec, message):
    with pytest.raises(ConfigError, match=message):
        make_model([((0, 1), 2, AND, 0.5), spec])


def test_evaluate_model_predicts_once(monkeypatch):
    import rulestorm.inference as inference

    calls = []
    original = inference.predict_dataset

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(inference, "predict_dataset", counting)
    model = make_model([((1, 0), 1, AND, 0.6), ((3, 0), 2, AND, 0.6)])
    ds = make_dataset([[0.0, 5.0], [10.0, 5.0], [9.0, 1.0]], [1, 2, 1])
    report = evaluate_model(model, ds)
    assert len(calls) == 1
    assert report.counts == binary_counts(model, ds)
    assert report.accuracy == pytest.approx(2 / 3)
