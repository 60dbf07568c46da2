"""Generational genetic algorithm over the same genotype space.

Comparison baseline: tournament selection, uniform crossover, per-gene
gaussian mutation clamped to bounds, and single-member elitism. Shares the
trace format and determinism contract with the clustering-based optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_fields
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

    def __post_init__(self) -> None:
        check_fields(self)
        if self.population_size < 1:
            raise ConfigError("population_size must be >= 1")
        if self.generations < 0:
            raise ConfigError("generations must be >= 0")
        if self.tournament_size < 1:
            raise ConfigError("tournament_size must be >= 1")
        for name in ("crossover_prob", "mutation_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.mutation_sigma < 0:
            raise ConfigError("mutation_sigma must be >= 0")
        if self.stagnation_window < 1:
            raise ConfigError("stagnation_window must be >= 1")


def tournament_pick(values: np.ndarray, size: int, rng) -> int:
    """Index of the best-valued member among `size` sampled with replacement.

    Ties go to the earliest sampled contender.
    """
    contenders = np.asarray(rng.integers(len(values), size=size))
    return int(contenders[int(np.argmax(values[contenders]))])


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
    dims = pop.lower.shape[0]
    for generation in range(1, params.generations + 1):
        elite = int(np.argmax(pop.values))
        children = np.empty_like(pop.genotypes)
        children[0] = pop.genotypes[elite]
        for slot in range(1, params.population_size):
            p1 = tournament_pick(pop.values, params.tournament_size, rng)
            p2 = tournament_pick(pop.values, params.tournament_size, rng)
            if rng.random() < params.crossover_prob:
                take_first = rng.random(dims) < 0.5
                child = np.where(take_first, pop.genotypes[p1], pop.genotypes[p2])
            else:
                child = pop.genotypes[p1].copy()
            mutate = rng.random(dims) < params.mutation_prob
            steps = rng.standard_normal(dims) * params.mutation_sigma
            child = np.where(mutate, child + steps, child)
            children[slot] = np.minimum(np.maximum(child, pop.lower), pop.upper)
        pop.evaluations = [pop.evaluations[elite], *pop.evaluate(children[1:], generation)]
        pop.genotypes = children
        if pop.end_iteration(generation):
            break
    return pop.result()
