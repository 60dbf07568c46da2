"""Tests for the training objective and the end-to-end training pipeline."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from oracles import reference_breakdown

from rulestorm import bso, ga
from rulestorm.bso import BsoParams
from rulestorm.dataset import Dataset, SplitSpec, attribute_stats, load_csv, majority_class, split
from rulestorm.errors import ConfigError, EvaluationError
from rulestorm.experiments import run_sweep
from rulestorm.fitness import FitnessWeights
from rulestorm.ga import GaParams
from rulestorm.inference import Model, classify, evaluate_model, predict_dataset
from rulestorm.membership import build_partition, fuzzify_dataset
from rulestorm.rules import RuleSetShape, decode, genotype_bounds, with_weights
from rulestorm.search import sample_population
from rulestorm.training import ExperimentSettings, RuleObjective, train_model


def separable_dataset(n=60, seed=0):
    """Class follows the first attribute's region; second attribute is noise."""
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(0.0, 10.0, size=n)
    x2 = rng.uniform(0.0, 10.0, size=n)
    y = np.where(x1 < 5.0, 1, 2)
    # pin the range so the partition peaks are stable
    x1[0], x1[1] = 0.0, 10.0
    y[0], y[1] = 1, 2
    x = np.column_stack([x1, x2])
    return Dataset(
        x=x,
        y=y.astype(int),
        attribute_names=("a1", "a2"),
        class_values=(0.0, 1.0),
    )


def make_objective(ds, p=3, r=4, accuracy_weight=0.5, weights=None):
    """The objective with its partitions, and the fuzzified split and shape
    that the oracles score against, built apart from it."""
    partitions = tuple(build_partition(s, p) for s in attribute_stats(ds))
    settings = ExperimentSettings(
        labels_per_attribute=p, rule_count=r, fitness_weights=weights or FitnessWeights(), accuracy_weight=accuracy_weight
    )
    objective = RuleObjective(ds, partitions, settings)
    return objective, fuzzify_dataset(ds, partitions), RuleSetShape(m=ds.m, p=p, c=ds.c, r=r), partitions


def test_objective_breakdown_matches_reference_scorer():
    ds = separable_dataset()
    objective, ld, shape, _ = make_objective(ds)
    lower, upper = genotype_bounds(shape)
    rng = np.random.default_rng(5)
    for genotype in sample_population(rng, lower, upper, 30):
        out = objective(genotype)
        g1, g2, g3, fitness = reference_breakdown(decode(genotype, shape), ld, FitnessWeights())
        assert out.breakdown.g1 == pytest.approx(g1, abs=1e-12)
        assert out.breakdown.g2 == pytest.approx(g2, abs=1e-12)
        assert out.breakdown.g3 == pytest.approx(g3, abs=1e-12)
        assert out.breakdown.fitness == pytest.approx(fitness, abs=1e-12)


def test_objective_zero_accuracy_weight_equals_quality_score():
    ds = separable_dataset()
    objective, ld, shape, _ = make_objective(ds, accuracy_weight=0.0)
    lower, upper = genotype_bounds(shape)
    rng = np.random.default_rng(6)
    for genotype in sample_population(rng, lower, upper, 10):
        out = objective(genotype)
        assert out.value == out.breakdown.fitness


def test_objective_blend_uses_inference_consistent_accuracy():
    ds = separable_dataset()
    aw = 0.35
    objective, ld, shape, partitions = make_objective(ds, accuracy_weight=aw)
    lower, upper = genotype_bounds(shape)
    rng = np.random.default_rng(7)
    for genotype in sample_population(rng, lower, upper, 15):
        rule_set = decode(genotype, shape)
        out = objective(genotype)
        # independent route: exact-weight model scored record by record by classify
        model = Model(
            partitions=partitions,
            rules=with_weights(rule_set, ld),
            class_values=ds.class_values,
            attribute_names=ds.attribute_names,
            majority_class=majority_class(ds),
            metadata={},
        )
        accuracy = sum(classify(model, ds.x[k])[0] == ds.y[k] for k in range(ds.n)) / ds.n
        expected = (1.0 - aw) * out.breakdown.fitness + aw * accuracy
        assert out.value == pytest.approx(expected, abs=1e-12)


SEARCHES = {
    "bso": lambda objective, lower, upper: bso.run(
        BsoParams(population_size=6, cluster_count=2, max_iterations=3, seed=1), objective, lower, upper
    ),
    "ga": lambda objective, lower, upper: ga.run_ga(
        GaParams(population_size=6, generations=3, seed=1), objective, lower, upper
    ),
}


class CountingObjective(RuleObjective):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches = []

    def evaluate_batch(self, genotypes):
        self.batches.append(len(genotypes))
        return super().evaluate_batch(genotypes)


@pytest.mark.parametrize("search", SEARCHES)
def test_search_scores_each_iteration_in_one_batch(search):
    ds = separable_dataset()
    plain, _, shape, partitions = make_objective(ds)
    objective = CountingObjective(ds, partitions, ExperimentSettings(rule_count=shape.r, accuracy_weight=0.5))
    lower, upper = genotype_bounds(shape)
    result = SEARCHES[search](objective, lower, upper)
    assert objective.batches == [6] + [6 if search == "bso" else 5] * 3
    per_genotype = SEARCHES[search](lambda g: plain(g), lower, upper)  # no evaluate_batch
    assert [replace(rec, elapsed_ms=0.0) for rec in per_genotype.trace.records] == [
        replace(rec, elapsed_ms=0.0) for rec in result.trace.records
    ]
    for ind in result.population:
        assert ind.evaluation == objective(ind.genotype)


def test_empty_batch_scores_nothing():
    objective, _, shape, _ = make_objective(separable_dataset())
    assert objective.evaluate_batch(np.empty((0, shape.genotype_length))) == []
    lower, upper = genotype_bounds(shape)
    result = ga.run_ga(GaParams(population_size=1, generations=2, seed=0), objective, lower, upper)
    assert result.evaluations == 1


@pytest.mark.parametrize("search", SEARCHES)
def test_failing_batch_raises_evaluation_error_with_iteration(search):
    objective, _, shape, _ = make_objective(separable_dataset())
    lower, upper = genotype_bounds(RuleSetShape(m=shape.m, p=shape.p, c=shape.c, r=shape.r + 1))
    with pytest.raises(EvaluationError, match="at iteration 0: genotype length"):
        SEARCHES[search](objective, lower, upper)


def test_objective_rejects_bad_accuracy_weight():
    ds = separable_dataset()
    with pytest.raises(ConfigError):
        make_objective(ds, accuracy_weight=1.5)


def test_train_model_learns_separable_data():
    ds = separable_dataset()
    result = train_model(
        ds,
        rule_count=4,
        optimizer="bso-ewma",
        bso_params=BsoParams(population_size=24, cluster_count=3, max_iterations=150, seed=3),
    )
    assert result.train_accuracy >= 0.8
    report = evaluate_model(result.model, ds)
    assert report.accuracy == result.train_accuracy


def test_train_accuracy_is_the_saved_models_accuracy(pid_path):
    # the objective's exact weights and the model's 4-decimal weights
    # classify some records of this split differently
    train, _ = split(load_csv(pid_path), SplitSpec(fraction=0.8, seed=1))
    result = train_model(train, optimizer="ga", ga_params=GaParams(generations=40, seed=1))
    assert result.train_accuracy == evaluate_model(result.model, train).accuracy


def test_constant_column_trains_and_predicts_as_classify(pid_path, tmp_path):
    """A constant attribute gets a degenerate partition, with one warning,
    and both the objective and predict_dataset score it through the
    vectorized degree table."""
    header, *body = pid_path.read_text().splitlines()
    path = tmp_path / "pima-constant.csv"
    path.write_text("\n".join([f"Flat,{header}"] + [f"7,{row}" for row in body]) + "\n")
    ds = load_csv(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = train_model(ds, bso_params=BsoParams(max_iterations=5, seed=0))
    assert [str(w.message) for w in caught if "constant attribute" in str(w.message)] == [
        "constant attribute (min == max == 7.0); every value maps to label 1 with degree 1"
    ]
    assert [partition.degenerate for partition in result.model.partitions] == [True] + [False] * 8
    preds, scores = predict_dataset(result.model, ds)
    assert ds.n == 768
    for k in range(ds.n):
        assert (int(preds[k]), float(scores[k])) == classify(result.model, ds.x[k])


def test_train_model_deterministic():
    ds = separable_dataset()
    kwargs = dict(
        rule_count=4,
        optimizer="bso-plain",
        bso_params=BsoParams(population_size=15, cluster_count=3, max_iterations=30, seed=11),
    )
    a = train_model(ds, **kwargs)
    b = train_model(ds, **kwargs)
    assert a.model.rules == b.model.rules
    assert a.model.metadata == b.model.metadata
    ta = [(r.iteration, r.best_value) for r in a.run.trace.records]
    tb = [(r.iteration, r.best_value) for r in b.run.trace.records]
    assert ta == tb


def test_train_model_ga_backend():
    ds = separable_dataset()
    result = train_model(
        ds,
        rule_count=4,
        optimizer="ga",
        ga_params=GaParams(population_size=20, generations=60, seed=2),
    )
    assert result.train_accuracy >= 0.75
    assert result.model.metadata["optimizer"] == "ga"


def test_train_model_mode_follows_optimizer_name():
    ds = separable_dataset()
    result = train_model(
        ds,
        rule_count=4,
        optimizer="bso-plain",
        bso_params=BsoParams(population_size=10, cluster_count=2, max_iterations=10, seed=1),
    )
    assert result.model.metadata["optimizer"] == "bso-plain"


def test_train_model_rejects_unknown_optimizer():
    ds = separable_dataset()
    with pytest.raises(ConfigError):
        train_model(ds, optimizer="tabu-search")


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"accuracy_weight": 2.0}, r"accuracy_weight must be in \[0, 1\], got 2.0"),
        ({"accuracy_weight": True}, "accuracy_weight must be a finite number"),
        ({"labels_per_attribute": 1}, "labels_per_attribute must be at least 2, got 1"),
        ({"rule_count": 0}, "rule_count must be at least 1, got 0"),
        ({"rule_count": 2.5}, "rule_count must be an integer"),
        ({"sum_scores": 1}, "sum_scores must be true or false, got 1"),
        ({"fitness_weights": None}, "fitness_weights must be a FitnessWeights, got None"),
        ({"bso_params": GaParams()}, "bso_params must be a BsoParams"),
    ],
)
def test_train_model_checks_its_settings_before_any_work(monkeypatch, settings, message):
    monkeypatch.setattr("rulestorm.training.build_partition", None)  # any work would fail here
    with pytest.raises(ConfigError, match=message):
        train_model(separable_dataset(), **settings)


def test_settings_refuse_a_bso_mode_through_train_model_and_run_sweep(monkeypatch):
    """The optimizer name alone picks BSO's mode, so a bso_params mode other
    than the default is refused rather than overwritten."""
    monkeypatch.setattr("rulestorm.training.build_partition", None)  # any work would fail here
    message = "bso_params.mode is not a setting; set optimizer to bso-ewma or bso-plain"
    plain = BsoParams(mode="plain")
    with pytest.raises(ConfigError, match=message):
        train_model(separable_dataset(), optimizer="bso-ewma", bso_params=plain)
    with pytest.raises(ConfigError, match=message):
        run_sweep(separable_dataset(), ExperimentSettings(bso_params=plain), ratios=(0.8,), seeds=(0,))
    assert ExperimentSettings(bso_params=BsoParams(mode="ewma")) == ExperimentSettings()


def test_settings_store_python_numbers():
    settings = ExperimentSettings(rule_count=np.int64(4), accuracy_weight=1)
    assert type(settings.rule_count) is int and type(settings.accuracy_weight) is float
    assert settings == ExperimentSettings(rule_count=4, accuracy_weight=1.0)


def test_numpy_floats_in_the_params_are_stored_as_python_floats():
    ds = separable_dataset()
    numpy_run = train_model(ds, bso_params=BsoParams(max_iterations=3, smoothing=np.float32(0.8)))
    python_run = train_model(ds, bso_params=BsoParams(max_iterations=3, smoothing=float(np.float32(0.8))))
    assert numpy_run.model.metadata["params_digest"] == python_run.model.metadata["params_digest"]
    weights = FitnessWeights(np.float32(1.0), 1.0, 1.0)
    assert type(weights.alpha) is float and weights == FitnessWeights()
    assert type(BsoParams(slope_divisor=np.float64(20.0)).slope_divisor) is float


def test_trained_model_weights_are_quantized():
    ds = separable_dataset()
    result = train_model(
        ds,
        rule_count=4,
        optimizer="bso-ewma",
        bso_params=BsoParams(population_size=10, cluster_count=2, max_iterations=10, seed=4),
    )
    for rule in result.model.rules.rules:
        assert rule.weight == round(rule.weight, 4)
        assert 0.0 <= rule.weight <= 1.0
