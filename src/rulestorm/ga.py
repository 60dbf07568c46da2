"""Generational genetic algorithm over the same genotype space.

Comparison baseline: tournament selection, uniform crossover, per-gene
gaussian mutation clamped to bounds, and single-member elitism. Shares the
trace format and determinism contract with the clustering-based optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_fields
from .search import Population, RunResult

# perfbench/worker.py traces these names here; Population calls them now.
from .search import evaluate_objective, sample_population  # noqa: F401


@dataclass(frozen=True)
class GaParams:
    population_size: int = 50
    generations: int = 500
    tournament_size: int = 3
    crossover_prob: float = 0.9
    mutation_prob: float = 0.15
    mutation_sigma: float = 0.12
    stagnation_window: int = 50
    seed: int = 0

    BOUNDS = {
        "population_size": "at least 1", "generations": "at least 0", "tournament_size": "at least 1",
        "crossover_prob": "[0, 1]", "mutation_prob": "[0, 1]", "mutation_sigma": "at least 0",
        "stagnation_window": "at least 1",
    }

    def __post_init__(self) -> None:
        check_fields(self)


def tournament_pick(values: np.ndarray, contenders: np.ndarray) -> np.ndarray:
    """Each tournament's best-valued contender, one tournament per row of
    `contenders`' last axis; draws nothing. Ties go to the earliest contender."""
    best = np.argmax(values[contenders], axis=-1)
    return np.take_along_axis(contenders, best[..., None], axis=-1)[..., 0]


def run_ga(params: GaParams, objective, lower, upper) -> RunResult:
    """Maximize the objective; deterministic given params (one RNG stream).

    Stops at `generations`, or once stagnation_window consecutive
    generations pass without the best value improving by more than
    search.IMPROVEMENT_EPS.
    """
    pop = Population(
        objective, lower, upper, params.population_size, params.seed, params.stagnation_window
    )
    rng = pop.rng
    q, t, dims = params.population_size, params.tournament_size, pop.lower.shape[0]
    for generation in range(1, params.generations + 1):
        contenders = np.zeros((2, q - 1, t), dtype=np.int64)
        coins, mutate, z = np.zeros((3, q - 1, dims))  # uncrossed children keep zero coins: all from the first parent
        for slot in range(q - 1):
            contenders[0, slot] = rng.integers(q, size=t)
            contenders[1, slot] = rng.integers(q, size=t)
            if rng.random() < params.crossover_prob:
                rng.random(out=coins[slot])
            rng.random(out=mutate[slot])
            rng.standard_normal(out=z[slot])
        first, second = pop.genotypes[tournament_pick(pop.values, contenders)]
        children = np.where(coins < 0.5, first, second)
        children = np.where(mutate < params.mutation_prob, children + z * params.mutation_sigma, children)
        children = np.minimum(np.maximum(children, pop.lower), pop.upper)
        elite = int(np.argmax(pop.values))
        pop.evaluations = [pop.evaluations[elite], *pop.evaluate(children, generation)]
        pop.genotypes = np.vstack([pop.genotypes[elite], children])
        if pop.end_iteration(generation):
            break
    return pop.result()
