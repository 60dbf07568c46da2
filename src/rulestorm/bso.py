"""Clustering-guided stochastic search over box-bounded real genotypes.

Each iteration groups the population with a small k-means into arrays of
member indices, takes each group's best member as its center (one (k, L)
array of rows), then builds one candidate per population slot: a base point
from one group or blended across two, each group giving its center or a
random member, perturbed by gaussian noise whose magnitude is annealed
through a logistic schedule. The slots take their draws one by one; the
candidates are then built in one (Q, L) array step. A slot is replaced only
by a strictly better candidate, so the best objective value never decreases.

Two candidate modes share one perturbation: "plain" moves the base itself;
"ewma" keeps a per-slot exponential moving average of selected bases and
moves that average instead, trading raw exploration for smoothed global
information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_fields
from .search import Population, RunResult

# perfbench/worker.py traces these names here; Population calls them now.
from .search import evaluate_objective, sample_population  # noqa: F401

MODES = ("plain", "ewma")

KMEANS_PASSES = 10


@dataclass(frozen=True)
class BsoParams:
    """Search-control knobs; every probability applies per candidate except
    replace_center_prob, which is rolled once per iteration."""

    population_size: int = 50
    cluster_count: int = 5
    max_iterations: int = 500
    slope_divisor: float = 20.0
    smoothing: float = 0.8
    noise_scale: float = 1.0
    noise_mean: float = 0.0
    noise_sigma: float = 1.0
    replace_center_prob: float = 0.2
    one_cluster_prob: float = 0.8
    use_center_prob: float = 0.4
    use_center_pair_prob: float = 0.5
    stagnation_window: int = 500
    mode: str = "ewma"
    seed: int = 0

    BOUNDS = {
        "population_size": "at least 1", "cluster_count": "at least 1", "max_iterations": "at least 0",
        "slope_divisor": "> 0", "smoothing": "(0, 1]", "noise_scale": "at least 0", "noise_sigma": "at least 0",
        "replace_center_prob": "[0, 1]", "one_cluster_prob": "[0, 1]", "use_center_prob": "[0, 1]",
        "use_center_pair_prob": "[0, 1]", "stagnation_window": "at least 1",
    }

    def __post_init__(self) -> None:
        check_fields(self)
        if self.cluster_count > self.population_size:
            raise ConfigError(
                f"cluster_count must be at most population_size, got {self.cluster_count} > {self.population_size}"
            )
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")


def cluster_population(genotypes: np.ndarray, values: np.ndarray, k: int, rng) -> tuple[list[np.ndarray], np.ndarray]:
    """Seeded k-means over genotypes. Returns each cluster's members, the
    ascending index arrays its last pass averaged into the means, and one
    array of each cluster's best-valued member, its center.

    Means start at k distinct members. A cluster emptied by reassignment is
    refilled with the worst-valued member of any cluster that still has two
    or more, so every cluster stays non-empty.
    """
    q = genotypes.shape[0]
    if not 1 <= k <= q:
        raise ConfigError(f"cluster count {k} out of range for population {q}")
    means = np.array(genotypes[rng.choice(q, size=k, replace=False)], dtype=float)
    assign = None
    for _ in range(KMEANS_PASSES):
        distances = ((genotypes[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        new_assign = np.argmin(distances, axis=1)
        counts = np.bincount(new_assign, minlength=k)
        for cluster_idx in np.flatnonzero(counts == 0):  # a refill never empties a cluster
            eligible = np.flatnonzero(counts[new_assign] >= 2)
            victim = eligible[np.argmin(values[eligible])]
            counts[new_assign[victim]] -= 1
            new_assign[victim] = cluster_idx
            counts[cluster_idx] += 1
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        members = [np.flatnonzero(assign == cluster_idx) for cluster_idx in range(k)]
        means = np.array([genotypes[rows].mean(axis=0) for rows in members])
    return members, np.array([rows[np.argmax(values[rows])] for rows in members])


def anneal_ramp(nc: int, params: BsoParams) -> float:
    """Logistic ramp of iteration nc: starts near 1 and decays towards 0 as
    the iteration count passes the halfway mark."""
    z = (0.5 * params.max_iterations - nc) / params.slope_divisor
    try:
        return 1.0 / (1.0 + math.exp(-z))
    except OverflowError:  # exp(-z) is past the largest float: the ramp is 0
        return 0.0


def select_base(members: list[np.ndarray], genotypes: np.ndarray, centers: np.ndarray, params: BsoParams, rng) -> np.ndarray:
    """Pick the starting point for one candidate.

    Picks one uniformly chosen cluster (always, when only one exists) or two
    distinct ones, then takes each picked cluster's row of `centers` or a
    random member of it, and blends two at a uniform random coefficient.
    The draws come in that order: the branch, the clusters, the center
    coin, the members in cluster order, the coefficient. A one-cluster base
    is the row of `centers` or `genotypes` itself, not a copy: `run` copies
    it into its batch of bases.
    """
    k = len(members)
    if rng.random() < params.one_cluster_prob or k == 1:
        picked, center_prob = [rng.integers(k)], params.use_center_prob
    else:
        picked, center_prob = rng.choice(k, size=2, replace=False), params.use_center_pair_prob
    use_center = rng.random() < center_prob
    points = [centers[c] if use_center else genotypes[members[c][rng.integers(len(members[c]))]] for c in picked]
    if len(points) == 1:
        return points[0]
    lam = rng.random()
    return lam * points[0] + (1.0 - lam) * points[1]


def generate_candidate(bases: np.ndarray, ewma: np.ndarray, steps: np.ndarray, z: np.ndarray, params: BsoParams, lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Perturb a (Q, L) batch of bases into bound-clamped candidates; draws
    nothing. Row i moves by steps[i] (its draw times the iteration's
    `anneal_ramp`) along noise_mean + noise_sigma * z[i]. Plain mode moves
    the base itself; averaged mode moves the base folded into the slot's
    running average in `ewma`, scaled by noise_scale. Returns the
    candidates and the points they moved from."""
    if params.mode == "plain":
        points, scale = bases, 1.0
    else:
        points, scale = params.smoothing * bases + (1.0 - params.smoothing) * ewma, params.noise_scale
    candidates = points + (scale * steps)[:, None] * (params.noise_mean + params.noise_sigma * z)
    return np.minimum(np.maximum(candidates, lower), upper), points


def run(params: BsoParams, objective, lower, upper) -> RunResult:
    """Maximize the objective; deterministic given params (one RNG stream).

    Each iteration takes every slot's draws in turn (its base, then its
    step, then its noise row), then builds all the candidates in one
    `generate_candidate` step. Stops at max_iterations, or once
    stagnation_window consecutive iterations pass without the best value
    improving by more than search.IMPROVEMENT_EPS.
    """
    pop = Population(
        objective, lower, upper, params.population_size, params.seed, params.stagnation_window
    )
    rng = pop.rng
    ewma = pop.genotypes.copy()  # the slots' running averages; plain mode never reads them
    bases, z = np.empty_like(ewma), np.empty_like(ewma)
    steps = np.empty(params.population_size)
    for nc in range(1, params.max_iterations + 1):
        members, best = cluster_population(pop.genotypes, pop.values, params.cluster_count, rng)
        centers = pop.genotypes[best]
        if rng.random() < params.replace_center_prob:
            centers[rng.integers(len(best))] = rng.uniform(pop.lower, pop.upper)

        for slot in range(params.population_size):
            bases[slot] = select_base(members, pop.genotypes, centers, params, rng)
            steps[slot] = rng.random()
            rng.standard_normal(out=z[slot])
        candidates, points = generate_candidate(
            bases, ewma, steps * anneal_ramp(nc, params), z, params, pop.lower, pop.upper
        )

        for slot, evaluation in enumerate(pop.evaluate(candidates, nc)):
            if evaluation.value > pop.values[slot]:
                pop.genotypes[slot] = candidates[slot]
                pop.evaluations[slot] = evaluation
                ewma[slot] = points[slot]
        if pop.end_iteration(nc):
            break
    return pop.result()
