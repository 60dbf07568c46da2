"""Batch experiment drivers: ratio/seed sweeps, parameter grids, convergence
benchmarks.

Every driver runs its cells through :func:`run_cell` and reduces the results
to flat CSV rows for external plotting. Cells are independent: each one
derives its split and optimizer streams from its own (fraction, seed) pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import astuple, dataclass, fields, replace

from .bso import BsoParams
from .dataset import Dataset, SplitSpec, split
from .errors import ConfigError, check_seed
from .inference import EvaluationReport, evaluate_model
from .rules import RuleSetShape
from .search import TraceRecord, write_csv
from .training import OPTIMIZERS, ExperimentSettings, TrainingResult, check_optimizer, train_model

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


@dataclass(frozen=True)
class SweepRun:
    """Outcome of one (fraction, optimizer, seed) cell. The test metrics are
    None when nothing was scored, and everything after `error` when it failed."""

    ratio: float
    optimizer: str
    seed: int
    error: str | None = None
    train_records: int | None = None
    train_accuracy: float | None = None
    test_accuracy: float | None = None
    sensitivity: float | None = None
    specificity: float | None = None
    best_value: float | None = None
    iterations: int | None = None
    evaluations: int | None = None
    records: tuple[TraceRecord, ...] = ()

    @property
    def best_values(self) -> tuple[float, ...]:
        return tuple(record.best_value for record in self.records)


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


def train_cell(
    ds: Dataset, settings: ExperimentSettings, spec: SplitSpec, optimizer: str
) -> tuple[Dataset, TrainingResult, EvaluationReport | None]:
    """Split `ds` by `spec`, train on the train side with both optimizers
    seeded by the spec's seed, and score the held-out side. Returns the train
    side, the training result and the held-out report, which is None when the
    spec is full: the model then trains on every record and nothing is scored."""
    train, test = (ds, None) if spec.full else split(ds, spec)
    seeded = {name: replace(getattr(settings, name), seed=spec.seed) for name in ("bso_params", "ga_params")}
    result = train_model(train, optimizer=optimizer, **{**vars(settings), **seeded})
    report = None if test is None else evaluate_model(result.model, test, sum_scores=settings.sum_scores)
    return train, result, report


def run_cell(
    ds: Dataset, settings: ExperimentSettings, fraction: float, optimizer: str, seed: int
) -> SweepRun:
    """The :func:`train_cell` of a (fraction, seed) split, where fraction 1
    trains on every record. A failure is recorded on the run, never raised."""
    run = SweepRun(ratio=fraction, optimizer=optimizer, seed=seed)
    try:
        train, result, report = train_cell(ds, settings, SplitSpec(fraction, seed, allow_full=True), optimizer)
    except Exception as exc:  # cell failures are recorded, never raised
        return replace(run, error=f"{type(exc).__name__}: {exc}")
    if report is not None:
        run = replace(run, test_accuracy=report.accuracy, sensitivity=report.sensitivity, specificity=report.specificity)
    records = result.run.trace.records
    return replace(
        run,
        train_records=train.n,
        train_accuracy=result.train_accuracy,
        best_value=result.run.best.evaluation.value,
        iterations=records[-1].iteration,
        evaluations=result.run.evaluations,
        records=records,
    )


def _check_cells(name: str, fractions, seeds, optimizers, allow_full: bool) -> None:
    """Refuse a seed, a (fraction, seed) pair that makes no split, whose
    fraction is reported as `name`, and an optimizer name."""
    for seed in seeds:
        check_seed(seed)
    for fraction, seed in itertools.product(fractions, seeds):
        SplitSpec(fraction, seed, allow_full=allow_full, name=name)
    for optimizer in optimizers:
        check_optimizer(optimizer)


def _check_lists(verb: str, lists: dict) -> None:
    """Refuse an empty list, which would run no cell, and a repeated value,
    which would train the same cell twice."""
    for name, values in lists.items():
        if not values:
            raise ConfigError(f"{verb} {name} must not be empty")
        if len(set(values)) < len(values):
            raise ConfigError(f"{verb} {name} must be distinct, got {list(values)}")


def check_sweep(ratios, seeds, optimizers) -> None:
    """Refuse the values :func:`run_sweep` refuses, before any data is read."""
    _check_cells("sweep ratios (--ratios)", ratios, seeds, optimizers, allow_full=False)
    _check_lists("sweep", {"ratios": ratios, "seeds": seeds, "optimizers": optimizers})


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
    check_sweep(ratios, seeds, optimizers)
    RuleSetShape(m=ds.m, p=settings.labels_per_attribute, c=ds.c, r=settings.rule_count)  # needs the data
    runs = [
        run_cell(ds, settings, ratio, optimizer, seed)
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
    rows = summarize_sweep(result)
    write_csv(path, SWEEP_HEADER, ([row[c] for c in SWEEP_HEADER] for row in rows))


@dataclass(frozen=True)
class ParamSweepRow:
    smoothing: float
    slope_divisor: float
    ratio: float
    seed: int
    # the fields from here on are the cell's SweepRun fields of the same name
    train_accuracy: float | None = None
    test_accuracy: float | None = None
    sensitivity: float | None = None
    specificity: float | None = None
    best_value: float | None = None
    iterations: int | None = None
    error: str | None = None


PARAM_SWEEP_HEADER = tuple(f.name for f in fields(ParamSweepRow))


def check_param_sweep(e_values, k_values, ratio: float, seed: int) -> None:
    """Refuse the values :func:`run_param_sweep` refuses, before any data is read."""
    _check_cells("param-sweep split fraction (--split-fraction)", (ratio,), (seed,), (), allow_full=False)
    _check_lists("param-sweep", {"e (--e-values)": e_values, "K (--k-values)": k_values})
    for name, param, values in (("e (--e-values)", "smoothing", e_values), ("K (--k-values)", "slope_divisor", k_values)):
        for value in values:
            try:
                BsoParams(**{param: value})
            except ConfigError as exc:
                raise ConfigError(f"param-sweep {name}: {exc}") from None


def run_param_sweep(
    ds: Dataset,
    settings: ExperimentSettings,
    e_values: tuple[float, ...],
    k_values: tuple[float, ...],
    ratio: float = 0.8,
    seed: int = 0,
) -> list[ParamSweepRow]:
    """Grid of bso-ewma runs varying only the averaging weight and the
    step-anneal slope divisor; everything else (split, seed, budget) is held
    fixed.

    Every value is checked before the first cell runs, so a bad or repeated
    value raises ConfigError rather than fill the grid with failed rows.
    """
    check_param_sweep(e_values, k_values, ratio, seed)
    RuleSetShape(m=ds.m, p=settings.labels_per_attribute, c=ds.c, r=settings.rule_count)  # needs the data
    rows = []
    for e, k in itertools.product(e_values, k_values):
        bso_params = replace(settings.bso_params, smoothing=e, slope_divisor=k)
        run = run_cell(ds, replace(settings, bso_params=bso_params), ratio, OPTIMIZERS[0], seed)
        results = (getattr(run, name) for name in PARAM_SWEEP_HEADER[4:])
        rows.append(ParamSweepRow(e, k, ratio, seed, *results))
    return rows


def write_param_sweep_csv(rows: list[ParamSweepRow], path) -> None:
    write_csv(path, PARAM_SWEEP_HEADER, map(astuple, rows))


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


BENCHMARK_HEADER = tuple(f.name for f in fields(BenchmarkRow))


def check_benchmark(fractions, threshold: float, seed: int, optimizers) -> None:
    """Refuse the values :func:`run_benchmark` refuses, before any data is read."""
    if not 0.0 < threshold <= 1.0:
        raise ConfigError(f"threshold must be in (0, 1], got {threshold}")
    _check_cells("benchmark fractions (--ratios)", fractions, (seed,), optimizers, allow_full=True)
    _check_lists("benchmark", {"fractions (--ratios)": fractions, "optimizers": optimizers})


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
    check_benchmark(fractions, threshold, seed, optimizers)
    RuleSetShape(m=ds.m, p=settings.labels_per_attribute, c=ds.c, r=settings.rule_count)  # needs the data
    rows = []
    for fraction in fractions:
        for optimizer in optimizers:
            run = run_cell(ds, settings, fraction, optimizer, seed)
            hit = next((r for r in run.records if r.best_value >= threshold), None)
            rows.append(
                BenchmarkRow(
                    fraction=fraction,
                    optimizer=optimizer,
                    train_records=run.train_records,
                    threshold=threshold,
                    reached=hit is not None,
                    iterations_to_threshold=None if hit is None else hit.iteration,
                    elapsed_ms_to_threshold=None if hit is None else hit.elapsed_ms,
                    best_value=run.best_value,
                    iterations_run=run.iterations,
                    evaluations=run.evaluations,
                    error=run.error,
                )
            )
    return rows


def write_benchmark_csv(rows: list[BenchmarkRow], path) -> None:
    """A row that ran to the end without reaching the threshold reads DNF."""
    ended = [
        row if row.reached or row.error else replace(row, iterations_to_threshold="DNF")
        for row in rows
    ]
    write_csv(path, BENCHMARK_HEADER, map(astuple, ended))
