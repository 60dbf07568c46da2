"""Tests for the genetic-algorithm baseline optimizer."""

import numpy as np
import pytest

from rulestorm.errors import ConfigError, EvaluationError
from rulestorm.ga import GaParams, run_ga, tournament_pick
from rulestorm.search import Evaluation


def sphere_objective(x):
    return Evaluation(value=-float(np.dot(x, x)))


class ScriptedRng:
    def __init__(self, ints=()):
        self.ints = list(ints)

    def integers(self, high, size=None):
        return np.asarray(self.ints.pop(0))


# ------------------------------------------------------------- selection ---

def test_tournament_picks_best_of_sampled():
    values = np.array([0.1, 0.9, 0.5, 0.3])
    rng = ScriptedRng(ints=[[0, 2, 3]])
    assert tournament_pick(values, 3, rng) == 2


def test_tournament_tie_prefers_first_sampled():
    values = np.array([0.7, 0.7, 0.7])
    rng = ScriptedRng(ints=[[2, 1, 0]])
    assert tournament_pick(values, 3, rng) == 2


# ------------------------------------------------------------ parameters ---

def test_params_reject_bad_probability():
    with pytest.raises(ConfigError):
        GaParams(crossover_prob=1.2, seed=0)


def test_params_reject_zero_population():
    with pytest.raises(ConfigError):
        GaParams(population_size=0, seed=0)


def test_params_reject_zero_tournament():
    with pytest.raises(ConfigError):
        GaParams(tournament_size=0, seed=0)


def test_params_reject_negative_sigma():
    with pytest.raises(ConfigError):
        GaParams(mutation_sigma=-0.5, seed=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("mutation_sigma", float("nan")),
        ("population_size", 7.5),
        ("generations", False),
        ("seed", -1),
    ],
)
def test_params_reject_non_integer_counts_non_finite_reals_and_negative_seeds(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        GaParams(**{field: value})


# -------------------------------------------------------------- dynamics ---

def test_zero_generations_returns_initial_best():
    p = GaParams(population_size=12, generations=0, seed=9)
    result = run_ga(p, sphere_objective, np.full(3, -2.0), np.full(3, 2.0))
    assert len(result.trace.records) == 1
    assert result.evaluations == 12
    values = [ind.evaluation.value for ind in result.population]
    assert result.best.evaluation.value == max(values)


def test_no_variation_keeps_best_constant():
    p = GaParams(
        population_size=10, generations=20,
        crossover_prob=0.0, mutation_prob=0.0, seed=3,
    )
    result = run_ga(p, sphere_objective, np.full(3, -2.0), np.full(3, 2.0))
    best = [rec.best_value for rec in result.trace.records]
    assert len(set(best)) == 1


def test_deterministic_given_seed():
    p = GaParams(population_size=14, generations=25, seed=101)
    r1 = run_ga(p, sphere_objective, np.full(4, -3.0), np.full(4, 3.0))
    r2 = run_ga(p, sphere_objective, np.full(4, -3.0), np.full(4, 3.0))
    assert np.array_equal(r1.best.genotype, r2.best.genotype)
    t1 = [(rec.iteration, rec.best_value, rec.mean_value, rec.evaluations)
          for rec in r1.trace.records]
    t2 = [(rec.iteration, rec.best_value, rec.mean_value, rec.evaluations)
          for rec in r2.trace.records]
    assert t1 == t2


def test_best_trace_non_decreasing():
    p = GaParams(population_size=16, generations=60, seed=5)
    result = run_ga(p, sphere_objective, np.full(5, -4.0), np.full(5, 4.0))
    best = [rec.best_value for rec in result.trace.records]
    assert all(b >= a for a, b in zip(best, best[1:]))


def test_population_stays_in_bounds():
    lower, upper = np.full(4, -1.0), np.full(4, 1.5)
    p = GaParams(population_size=10, generations=30, mutation_sigma=2.0, seed=7)
    result = run_ga(p, sphere_objective, lower, upper)
    for ind in result.population:
        assert np.all(ind.genotype >= lower)
        assert np.all(ind.genotype <= upper)


def test_stagnation_stops_early():
    p = GaParams(
        population_size=8, generations=500, stagnation_window=5, seed=2,
    )
    result = run_ga(p, lambda x: Evaluation(value=0.0), np.zeros(3), np.ones(3))
    assert len(result.trace.records) == 6


def test_objective_failure_wrapped():
    calls = {"n": 0}

    def flaky(x):
        calls["n"] += 1
        if calls["n"] > 15:
            raise ValueError("boom")
        return Evaluation(value=float(x.sum()))

    p = GaParams(population_size=10, generations=50, seed=3)
    with pytest.raises(EvaluationError, match="iteration"):
        run_ga(p, flaky, np.zeros(2), np.ones(2))


def test_sphere_smoke():
    p = GaParams(population_size=30, generations=200, seed=1)
    result = run_ga(p, sphere_objective, np.full(3, -5.0), np.full(3, 5.0))
    assert result.best.evaluation.value >= -0.05
