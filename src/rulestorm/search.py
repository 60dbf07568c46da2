"""Shared plumbing for the population-based optimizers.

Both optimizers maximize a user-supplied objective over a box-bounded real
vector, keep one sequential RNG stream for full determinism, and report the
same per-iteration convergence trace. `Population` is the loop they share;
each optimizer adds only how it breeds candidates and which ones survive.
"""

from __future__ import annotations

import csv
import time
from dataclasses import astuple, dataclass

import numpy as np

from .errors import EvaluationError
from .fitness import FitnessBreakdown

# Improvements at or below this size do not reset the stagnation counter.
IMPROVEMENT_EPS = 1e-9

TRACE_HEADER = (
    "iteration",
    "best_G",
    "mean_G",
    "g1",
    "g2",
    "g3",
    "evaluations",
    "elapsed_ms",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):  # np.float64 too, whose repr names its type
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write the header, then each row's values: floats as repr, bools as
    true/false, None as an empty cell."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([_fmt(value) for value in row] for row in rows)


@dataclass(frozen=True)
class Evaluation:
    """Objective value to maximize, with optional rule-score components."""

    value: float
    breakdown: FitnessBreakdown | None = None


@dataclass(frozen=True)
class Individual:
    genotype: np.ndarray
    evaluation: Evaluation


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    best_value: float
    mean_value: float
    g1: float | None
    g2: float | None
    g3: float | None
    evaluations: int
    elapsed_ms: float


@dataclass(frozen=True)
class ConvergenceTrace:
    records: tuple[TraceRecord, ...]

    def best_values(self) -> list[float]:
        return [rec.best_value for rec in self.records]

    def write_csv(self, path) -> None:
        write_csv(path, TRACE_HEADER, map(astuple, self.records))


@dataclass(frozen=True)
class RunResult:
    best: Individual
    trace: ConvergenceTrace
    population: tuple[Individual, ...]
    evaluations: int


def sample_population(rng, lower: np.ndarray, upper: np.ndarray, count: int) -> np.ndarray:
    """Uniform per-gene samples within [lower, upper], one row per member."""
    return rng.uniform(lower, upper, size=(count, lower.shape[0]))


def evaluate_objective(objective, genotypes: np.ndarray, iteration: int) -> list[Evaluation]:
    """Evaluate a (Q, L) batch with one `evaluate_batch` call if the objective
    has one, else genotype by genotype; wraps failures with iteration context."""
    try:
        if hasattr(objective, "evaluate_batch"):
            return objective.evaluate_batch(genotypes)
        return [objective(g) for g in genotypes]
    except Exception as exc:
        raise EvaluationError(
            f"objective evaluation failed at iteration {iteration}: {exc}"
        ) from exc


class TraceBuilder:
    """Accumulates per-iteration records against a shared wall clock."""

    def __init__(self) -> None:
        self._start = time.perf_counter()
        self._records: list[TraceRecord] = []

    def record(self, iteration: int, values: np.ndarray, evaluations_list, total_evaluations: int) -> None:
        best_idx = int(np.argmax(values))
        breakdown = evaluations_list[best_idx].breakdown
        self._records.append(
            TraceRecord(
                iteration=iteration,
                best_value=float(values[best_idx]),
                mean_value=float(values.mean()),
                g1=None if breakdown is None else breakdown.g1,
                g2=None if breakdown is None else breakdown.g2,
                g3=None if breakdown is None else breakdown.g3,
                evaluations=total_evaluations,
                elapsed_ms=(time.perf_counter() - self._start) * 1000.0,
            )
        )

    def build(self) -> ConvergenceTrace:
        return ConvergenceTrace(records=tuple(self._records))


class Population:
    """One search's bounds, RNG stream, members, evaluation count and trace.

    Construction samples `size` members uniformly within the bounds and
    evaluates them as iteration 0. Each iteration, the optimizer breeds with
    `rng`, scores candidates with `evaluate`, installs the survivors in
    `genotypes` and `evaluations`, and calls `end_iteration`.
    """

    def __init__(self, objective, lower, upper, size: int, seed: int, stagnation_window: int) -> None:
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        self.rng = np.random.default_rng(seed)
        self.evaluation_count = 0
        self._objective = objective
        self._window = stagnation_window
        self._stagnant = 0
        self._trace = TraceBuilder()
        self.genotypes = sample_population(self.rng, self.lower, self.upper, size)
        self.evaluations = self.evaluate(self.genotypes, 0)
        self.values = np.array([ev.value for ev in self.evaluations])
        self._best = float(self.values.max())
        self._trace.record(0, self.values, self.evaluations, self.evaluation_count)

    def evaluate(self, genotypes, iteration: int) -> list[Evaluation]:
        """Evaluations of the iteration's candidates, in order; the only
        caller of the objective, through `evaluate_objective`."""
        self.evaluation_count += len(genotypes)
        return evaluate_objective(self._objective, np.asarray(genotypes, dtype=float), iteration)

    def end_iteration(self, iteration: int) -> bool:
        """Refresh `values`, record the trace; True once the best value has
        not improved by more than IMPROVEMENT_EPS for stagnation_window
        consecutive iterations."""
        self.values = np.array([ev.value for ev in self.evaluations])
        new_best = float(self.values.max())
        if new_best > self._best + IMPROVEMENT_EPS:
            self._stagnant = 0
        else:
            self._stagnant += 1
        self._best = max(self._best, new_best)
        self._trace.record(iteration, self.values, self.evaluations, self.evaluation_count)
        return self._stagnant >= self._window

    def result(self) -> RunResult:
        population = tuple(
            Individual(genotype=self.genotypes[i].copy(), evaluation=self.evaluations[i])
            for i in range(len(self.evaluations))
        )
        return RunResult(
            best=population[int(np.argmax(self.values))],
            trace=self._trace.build(),
            population=population,
            evaluations=self.evaluation_count,
        )
