"""Batch experiment drivers: ratio/seed sweeps, parameter grids, convergence
benchmarks.

Every driver trains complete models through :func:`rulestorm.training.train_model`
and reduces the results to flat CSV rows for external plotting. Cells are
independent: each one derives its split and optimizer streams from its own
(ratio, seed) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .bso import BsoParams
from .dataset import Dataset, SplitSpec, split
from .errors import ConfigError
from .fitness import FitnessWeights
from .ga import GaParams
from .inference import evaluate_model
from .training import OPTIMIZERS, train_model

__all__ = [
    "ExperimentSettings",
    "SweepRun",
    "SweepResult",
    "run_sweep",
    "write_sweep_csv",
    "ParamSweepRow",
    "run_param_sweep",
    "write_param_sweep_csv",
    "BenchmarkRow",
    "run_benchmark",
    "write_benchmark_csv",
]

SWEEP_HEADER = (
    "ratio",
    "optimizer",
    "seeds",
    "failures",
    "mean_test_accuracy",
    "std_test_accuracy",
    "min_test_accuracy",
    "max_test_accuracy",
    "mean_train_accuracy",
    "mean_sensitivity",
    "mean_specificity",
    "mean_iterations",
    "mean_evaluations",
    "errors",
)

PARAM_SWEEP_HEADER = (
    "smoothing",
    "slope_divisor",
    "ratio",
    "seed",
    "train_accuracy",
    "test_accuracy",
    "sensitivity",
    "specificity",
    "best_value",
    "iterations",
    "error",
)

BENCHMARK_HEADER = (
    "fraction",
    "optimizer",
    "train_records",
    "threshold",
    "reached",
    "iterations_to_threshold",
    "elapsed_ms_to_threshold",
    "best_value",
    "iterations_run",
    "evaluations",
    "error",
)


@dataclass(frozen=True)
class ExperimentSettings:
    """Everything shared by all cells of an experiment; per-cell seeds are
    injected into copies of the optimizer params."""

    labels_per_attribute: int = 3
    rule_count: int = 10
    fitness_weights: FitnessWeights | None = None
    accuracy_weight: float = 1.0
    bso_params: BsoParams = field(default_factory=BsoParams)
    ga_params: GaParams = field(default_factory=GaParams)
    sum_scores: bool = False


@dataclass(frozen=True)
class SweepRun:
    """Outcome of one (ratio, optimizer, seed) training run."""

    ratio: float
    optimizer: str
    seed: int
    error: str | None = None
    train_accuracy: float | None = None
    test_accuracy: float | None = None
    sensitivity: float | None = None
    specificity: float | None = None
    best_value: float | None = None
    iterations: int | None = None
    evaluations: int | None = None
    best_values: tuple[float, ...] = ()


@dataclass(frozen=True)
class SweepResult:
    runs: tuple[SweepRun, ...]
    ratios: tuple[float, ...]
    optimizers: tuple[str, ...]
    seeds: tuple[int, ...]

    def cell_runs(self, ratio: float, optimizer: str) -> tuple[SweepRun, ...]:
        return tuple(
            r for r in self.runs if r.ratio == ratio and r.optimizer == optimizer
        )


def _train(train: Dataset, settings: ExperimentSettings, optimizer: str, seed: int):
    """Train one model with the settings, both optimizers seeded with `seed`."""
    return train_model(
        train,
        labels_per_attribute=settings.labels_per_attribute,
        rule_count=settings.rule_count,
        fitness_weights=settings.fitness_weights,
        accuracy_weight=settings.accuracy_weight,
        optimizer=optimizer,
        bso_params=replace(settings.bso_params, seed=seed),
        ga_params=replace(settings.ga_params, seed=seed),
        sum_scores=settings.sum_scores,
    )


def _train_and_score(
    ds: Dataset, settings: ExperimentSettings, ratio: float, optimizer: str, seed: int
) -> SweepRun:
    try:
        train, test = split(ds, SplitSpec(fraction=ratio, seed=seed))
        result = _train(train, settings, optimizer, seed)
        report = evaluate_model(result.model, test, sum_scores=settings.sum_scores)
    except Exception as exc:  # cell failures are recorded, never raised
        return SweepRun(
            ratio=ratio,
            optimizer=optimizer,
            seed=seed,
            error=f"{type(exc).__name__}: {exc}",
        )
    records = result.run.trace.records
    return SweepRun(
        ratio=ratio,
        optimizer=optimizer,
        seed=seed,
        train_accuracy=result.train_accuracy,
        test_accuracy=report.accuracy,
        sensitivity=report.sensitivity,
        specificity=report.specificity,
        best_value=result.run.best.evaluation.value,
        iterations=records[-1].iteration,
        evaluations=result.run.evaluations,
        best_values=result.run.trace.best_values(),
    )


def run_sweep(
    ds: Dataset,
    settings: ExperimentSettings,
    ratios: tuple[float, ...],
    seeds: tuple[int, ...],
    optimizers: tuple[str, ...] = OPTIMIZERS,
) -> SweepResult:
    """Train and evaluate one model per (ratio, optimizer, seed) combination.

    Failures inside a cell are captured on its row; the sweep always
    completes.
    """
    for ratio in ratios:
        if not 0.0 < ratio < 1.0:
            raise ConfigError(f"sweep ratios must be in (0, 1), got {ratio}")
    for optimizer in optimizers:
        if optimizer not in OPTIMIZERS:
            raise ConfigError(
                f"optimizer must be one of {OPTIMIZERS}, got {optimizer!r}"
            )
    runs = [
        _train_and_score(ds, settings, ratio, optimizer, seed)
        for ratio in ratios
        for optimizer in optimizers
        for seed in seeds
    ]
    return SweepResult(
        runs=tuple(runs),
        ratios=tuple(ratios),
        optimizers=tuple(optimizers),
        seeds=tuple(seeds),
    )


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def _std(values: list[float]) -> float | None:
    if not values:
        return None
    mu = sum(values) / len(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def summarize_sweep(result: SweepResult) -> list[dict]:
    """One summary row per (ratio, optimizer): seed count, failures, and
    mean/std/min/max statistics over the successful runs."""
    rows = []
    for ratio in result.ratios:
        for optimizer in result.optimizers:
            runs = result.cell_runs(ratio, optimizer)
            ok = [r for r in runs if r.error is None]
            accs = [r.test_accuracy for r in ok]
            sens = [r.sensitivity for r in ok if r.sensitivity is not None]
            spec = [r.specificity for r in ok if r.specificity is not None]
            errors = sorted({r.error for r in runs if r.error is not None})
            rows.append(
                {
                    "ratio": ratio,
                    "optimizer": optimizer,
                    "seeds": len(runs),
                    "failures": len(runs) - len(ok),
                    "mean_test_accuracy": _mean(accs),
                    "std_test_accuracy": _std(accs),
                    "min_test_accuracy": min(accs) if accs else None,
                    "max_test_accuracy": max(accs) if accs else None,
                    "mean_train_accuracy": _mean(
                        [r.train_accuracy for r in ok]
                    ),
                    "mean_sensitivity": _mean(sens),
                    "mean_specificity": _mean(spec),
                    "mean_iterations": _mean(
                        [float(r.iterations) for r in ok]
                    ),
                    "mean_evaluations": _mean(
                        [float(r.evaluations) for r in ok]
                    ),
                    "errors": "; ".join(errors),
                }
            )
    return rows


def write_sweep_csv(result: SweepResult, path) -> None:
    import csv

    rows = summarize_sweep(result)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SWEEP_HEADER)
        for row in rows:
            writer.writerow([_fmt(row[column]) for column in SWEEP_HEADER])


@dataclass(frozen=True)
class ParamSweepRow:
    smoothing: float
    slope_divisor: float
    ratio: float
    seed: int
    error: str | None = None
    train_accuracy: float | None = None
    test_accuracy: float | None = None
    sensitivity: float | None = None
    specificity: float | None = None
    best_value: float | None = None
    iterations: int | None = None


def run_param_sweep(
    ds: Dataset,
    settings: ExperimentSettings,
    e_values: tuple[float, ...],
    k_values: tuple[float, ...],
    ratio: float = 0.8,
    seed: int = 0,
    optimizer: str = "bso-ewma",
) -> list[ParamSweepRow]:
    """Grid of runs varying only the averaging weight and the step-anneal
    slope divisor; everything else (split, seed, budget) is held fixed."""
    for e in e_values:
        if not 0.0 < e <= 1.0:
            raise ConfigError(f"smoothing values must be in (0, 1], got {e}")
    for k in k_values:
        if k <= 0:
            raise ConfigError(f"slope divisor values must be > 0, got {k}")
    rows = []
    for e in e_values:
        for k in k_values:
            grid_settings = replace(
                settings,
                bso_params=replace(
                    settings.bso_params, smoothing=e, slope_divisor=k
                ),
            )
            run = _train_and_score(ds, grid_settings, ratio, optimizer, seed)
            rows.append(
                ParamSweepRow(
                    smoothing=e,
                    slope_divisor=k,
                    ratio=ratio,
                    seed=seed,
                    error=run.error,
                    train_accuracy=run.train_accuracy,
                    test_accuracy=run.test_accuracy,
                    sensitivity=run.sensitivity,
                    specificity=run.specificity,
                    best_value=run.best_value,
                    iterations=run.iterations,
                )
            )
    return rows


def write_param_sweep_csv(rows: list[ParamSweepRow], path) -> None:
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(PARAM_SWEEP_HEADER)
        for row in rows:
            writer.writerow(
                [_fmt(getattr(row, column)) for column in PARAM_SWEEP_HEADER]
            )


@dataclass(frozen=True)
class BenchmarkRow:
    fraction: float
    optimizer: str
    train_records: int | None
    threshold: float
    reached: bool = False
    iterations_to_threshold: int | None = None
    elapsed_ms_to_threshold: float | None = None
    best_value: float | None = None
    iterations_run: int | None = None
    evaluations: int | None = None
    error: str | None = None


def run_benchmark(
    ds: Dataset,
    settings: ExperimentSettings,
    fractions: tuple[float, ...],
    threshold: float,
    seed: int = 0,
    optimizers: tuple[str, ...] = OPTIMIZERS,
) -> list[BenchmarkRow]:
    """For each training-data fraction and optimizer, record how many
    iterations and how much wall clock it took for the best objective value
    to first reach the threshold; rows that never reach it are kept as
    did-not-finish rather than raised."""
    if not 0.0 < threshold <= 1.0:
        raise ConfigError(f"threshold must be in (0, 1], got {threshold}")
    for fraction in fractions:
        if not 0.0 < fraction <= 1.0:
            raise ConfigError(f"fractions must be in (0, 1], got {fraction}")
    rows = []
    for fraction in fractions:
        for optimizer in optimizers:
            try:
                if fraction == 1.0:
                    train = ds
                else:
                    train, _ = split(ds, SplitSpec(fraction=fraction, seed=seed))
                result = _train(train, settings, optimizer, seed)
            except Exception as exc:
                rows.append(
                    BenchmarkRow(
                        fraction=fraction,
                        optimizer=optimizer,
                        train_records=None,
                        threshold=threshold,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            records = result.run.trace.records
            hit = next(
                (r for r in records if r.best_value >= threshold), None
            )
            rows.append(
                BenchmarkRow(
                    fraction=fraction,
                    optimizer=optimizer,
                    train_records=train.n,
                    threshold=threshold,
                    reached=hit is not None,
                    iterations_to_threshold=None if hit is None else hit.iteration,
                    elapsed_ms_to_threshold=None if hit is None else hit.elapsed_ms,
                    best_value=result.run.best.evaluation.value,
                    iterations_run=records[-1].iteration,
                    evaluations=result.run.evaluations,
                )
            )
    return rows


def write_benchmark_csv(rows: list[BenchmarkRow], path) -> None:
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(BENCHMARK_HEADER)
        for row in rows:
            record = []
            for column in BENCHMARK_HEADER:
                value = getattr(row, column)
                if column == "iterations_to_threshold" and not row.reached:
                    value = "DNF" if row.error is None else ""
                record.append(_fmt(value))
            writer.writerow(record)
