"""Batch experiment drivers: sweeps, parameter grids, and benchmarks."""

import csv

import pytest
from conftest import make_noise_dataset, make_separable_dataset

from rulestorm import experiments
from rulestorm.bso import BsoParams
from rulestorm.errors import ConfigError
from rulestorm.experiments import (
    BENCHMARK_HEADER,
    PARAM_SWEEP_HEADER,
    SWEEP_HEADER,
    ExperimentSettings,
    check_benchmark,
    check_param_sweep,
    check_sweep,
    run_benchmark,
    run_cell,
    run_param_sweep,
    run_sweep,
    summarize_sweep,
    write_rows,
)
from rulestorm.ga import GaParams
from rulestorm.training import OPTIMIZERS


def fast_settings(**overrides) -> ExperimentSettings:
    base = dict(
        rule_count=4,
        bso_params=BsoParams(
            population_size=10,
            cluster_count=2,
            max_iterations=8,
            stagnation_window=20,
        ),
        ga_params=GaParams(population_size=10, generations=8),
    )
    base.update(overrides)
    return ExperimentSettings(**base)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_sweep_cardinality_and_summary_shape():
    ds = make_separable_dataset()
    result = run_sweep(
        ds,
        fast_settings(),
        ratios=(0.7, 0.8),
        seeds=(0, 1),
        optimizers=("bso-ewma", "ga"),
    )
    assert len(result.runs) == 8
    rows = summarize_sweep(result)
    assert len(rows) == 4
    assert all(row.seeds == 2 for row in rows)
    assert all(row.failures == 0 for row in rows)
    assert all(0.0 <= row.mean_test_accuracy <= 1.0 for row in rows)


def test_sweep_single_cell_has_zero_std():
    ds = make_separable_dataset()
    result = run_sweep(
        ds, fast_settings(), ratios=(0.8,), seeds=(3,), optimizers=("bso-ewma",)
    )
    rows = summarize_sweep(result)
    assert len(rows) == 1
    assert rows[0].std_test_accuracy == 0.0
    assert rows[0].min_test_accuracy == rows[0].max_test_accuracy


def test_sweep_records_cell_failure_and_continues():
    # 0.99 of 60 records leaves a single test record: the split must refuse,
    # and the refusal lands on the row instead of aborting the sweep.
    ds = make_separable_dataset()
    result = run_sweep(
        ds, fast_settings(), ratios=(0.99, 0.8), seeds=(0,), optimizers=("bso-ewma",)
    )
    failed = result.cell_runs(0.99, "bso-ewma")[0]
    good = result.cell_runs(0.8, "bso-ewma")[0]
    assert failed.error is not None and "DataError" in failed.error
    assert good.error is None
    rows = summarize_sweep(result)
    by_ratio = {row.ratio: row for row in rows}
    assert by_ratio[0.99].failures == 1
    assert by_ratio[0.99].mean_test_accuracy is None
    assert by_ratio[0.99].errors != ""
    assert by_ratio[0.8].failures == 0


def test_sweep_best_values_are_monotone():
    ds = make_separable_dataset()
    result = run_sweep(
        ds, fast_settings(), ratios=(0.75,), seeds=(0, 1), optimizers=("bso-ewma", "ga")
    )
    for run in result.runs:
        values = run.best_values
        assert len(values) >= 1
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_sweep_rejects_bad_inputs():
    ds = make_separable_dataset()
    with pytest.raises(ConfigError):
        run_sweep(ds, fast_settings(), ratios=(1.2,), seeds=(0,))
    with pytest.raises(ConfigError):
        run_sweep(
            ds, fast_settings(), ratios=(0.8,), seeds=(0,), optimizers=("sgd",)
        )


def refuse_cells(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a cell ran before the driver checked its values")

    monkeypatch.setattr(experiments, "run_cell", refuse)


@pytest.mark.parametrize(
    "ratios, seeds, optimizers",
    [
        ((0.8, 0.8), (0, 1), ("ga",)),
        ((0.8,), (1, 1), ("ga",)),
        ((0.8,), (0,), ("ga", "ga")),
        ((0.8,), (0, -1), ("ga",)),
        ((0.8,), (True,), ("ga",)),
    ],
)
def test_sweep_rejects_duplicates_and_negative_seeds_before_any_cell(
    monkeypatch, ratios, seeds, optimizers
):
    refuse_cells(monkeypatch)
    with pytest.raises(ConfigError):
        run_sweep(make_separable_dataset(), fast_settings(), ratios, seeds, optimizers)


# Each driver, its check, and values of its keywords that some good-path
# test runs; a bad case overrides some of them.
CHECKS = {run_sweep: check_sweep, run_param_sweep: check_param_sweep, run_benchmark: check_benchmark}
GOOD = {
    run_sweep: [
        dict(ratios=(0.8,), seeds=(3,), optimizers=("bso-ewma",)),
        dict(ratios=(0.99, 0.8), seeds=(0,), optimizers=("bso-ewma",)),
        dict(ratios=(0.75,), seeds=(0, 1), optimizers=("bso-ewma", "ga")),
        dict(ratios=(0.8,), seeds=(0,), optimizers=OPTIMIZERS),
    ],
    run_param_sweep: [
        dict(e_values=(1.0,), k_values=(20.0,), ratio=0.8, seed=5),
        dict(e_values=(0.5,), k_values=(10.0, 20.0), ratio=0.8, seed=0),
        dict(e_values=(0.5,), k_values=(20.0,), ratio=0.99, seed=0),
    ],
    run_benchmark: [
        dict(fractions=(0.25, 0.5, 1.0), threshold=0.5, seed=0, optimizers=OPTIMIZERS),
        dict(fractions=(1.0,), threshold=0.01, seed=0, optimizers=OPTIMIZERS),
        dict(fractions=(1.0,), threshold=1.0, seed=0, optimizers=OPTIMIZERS),
        dict(fractions=(0.99,), threshold=0.5, seed=0, optimizers=("ga",)),
    ],
}
BAD = [
    (run_sweep, dict(seeds=(0, -1)), "seed must be a non-negative integer, got -1"),
    (run_sweep, dict(seeds=(True,)), "seed must be a non-negative integer, got True"),
    (run_sweep, dict(ratios=(1.2,)), "sweep ratios (--ratios) must be in (0, 1), got 1.2"),
    (run_sweep, dict(ratios=(1.0,)), "sweep ratios (--ratios) must be in (0, 1), got 1.0"),
    (run_sweep, dict(optimizers=("sgd",)), "optimizer must be one of"),
    (run_sweep, dict(ratios=(0.8, 0.8)), "sweep ratios must be distinct, got [0.8, 0.8]"),
    (run_sweep, dict(seeds=(1, 1)), "sweep seeds must be distinct, got [1, 1]"),
    (run_sweep, dict(optimizers=("ga", "ga")), "sweep optimizers must be distinct"),
    (run_sweep, dict(ratios=()), "sweep ratios must not be empty"),
    (run_sweep, dict(seeds=()), "sweep seeds must not be empty"),
    (run_sweep, dict(optimizers=()), "sweep optimizers must not be empty"),
    (run_sweep, dict(ratios=(), seeds=(0, -1)), "seed must be a non-negative integer, got -1"),
    (run_param_sweep, dict(seed=-1), "seed must be a non-negative integer, got -1"),
    (run_param_sweep, dict(ratio=1.0), "param-sweep split fraction (--split-fraction) must be in (0, 1), got 1.0"),
    (run_param_sweep, dict(k_values=(20.0, float("nan"))), "K (--k-values): slope_divisor must be a finite number"),
    (run_param_sweep, dict(k_values=(-1.0,)), "K (--k-values): slope_divisor must be > 0"),
    (run_param_sweep, dict(e_values=(0.0,)), "e (--e-values): smoothing must be in (0, 1]"),
    (run_param_sweep, dict(e_values=(0.5, 0.5)), "param-sweep e (--e-values) must be distinct"),
    (run_param_sweep, dict(k_values=(20.0, 20.0)), "param-sweep K (--k-values) must be distinct"),
    (run_param_sweep, dict(e_values=()), "param-sweep e (--e-values) must not be empty"),
    (run_param_sweep, dict(k_values=()), "param-sweep K (--k-values) must not be empty"),
    (run_benchmark, dict(seed=-1), "seed must be a non-negative integer, got -1"),
    (run_benchmark, dict(threshold=0.0), "threshold must be in (0, 1], got 0.0"),
    (run_benchmark, dict(threshold=1.5), "threshold must be in (0, 1], got 1.5"),
    (run_benchmark, dict(fractions=(0.0,)), "benchmark fractions (--ratios) must be in (0, 1], got 0.0"),
    (run_benchmark, dict(optimizers=("sgd",)), "optimizer must be one of"),
    (run_benchmark, dict(fractions=(1.0, 1.0)), "benchmark fractions (--ratios) must be distinct"),
    (run_benchmark, dict(optimizers=("ga", "ga")), "benchmark optimizers must be distinct"),
    (run_benchmark, dict(fractions=()), "benchmark fractions (--ratios) must not be empty"),
    (run_benchmark, dict(optimizers=()), "benchmark optimizers must not be empty"),
]


@pytest.mark.parametrize(
    "driver, bad, message", BAD, ids=[f"{driver.__name__}-{message}" for driver, _, message in BAD]
)
def test_check_refuses_what_its_driver_refuses_before_any_cell(monkeypatch, driver, bad, message):
    refuse_cells(monkeypatch)
    values = {**GOOD[driver][0], **bad}
    with pytest.raises(ConfigError) as refused:
        driver(make_separable_dataset(), fast_settings(), **values)
    assert message in str(refused.value)
    with pytest.raises(ConfigError) as checked:
        CHECKS[driver](**values)
    assert str(checked.value) == str(refused.value)


def test_drivers_reject_bad_values_before_any_cell(monkeypatch):
    # each check passes the values the good-path tests run; only the rule
    # table's shape, which needs the data, is left to the driver
    refuse_cells(monkeypatch)
    ds = make_separable_dataset()
    for driver, check in CHECKS.items():
        for values in GOOD[driver]:
            assert check(**values) is None
        # one rule cannot cover both classes
        with pytest.raises(ConfigError, match="at least one rule per class"):
            driver(ds, fast_settings(rule_count=1), **GOOD[driver][0])


def test_cell_at_full_fraction_trains_on_every_record_and_scores_nothing():
    ds = make_separable_dataset()
    run = run_cell(ds, fast_settings(), 1.0, "ga", 0)
    assert run.error is None
    assert run.train_records == ds.n
    assert run.test_accuracy is run.sensitivity is run.specificity is None
    assert run.best_values == tuple(r.best_value for r in run.records)
    assert run.iterations == run.records[-1].iteration


def test_cell_records_failure_instead_of_raising():
    run = run_cell(make_separable_dataset(), fast_settings(), 0.8, "sgd", 0)
    assert run.error.startswith("ConfigError: optimizer must be one of")
    assert run.train_records is None and run.records == ()


def test_sweep_csv_round_trip(tmp_path):
    ds = make_separable_dataset()
    result = run_sweep(
        ds, fast_settings(), ratios=(0.8,), seeds=(0, 1), optimizers=("bso-ewma",)
    )
    path = tmp_path / "sweep.csv"
    write_rows(summarize_sweep(result), path)
    rows = read_csv(path)
    assert rows[0] == list(SWEEP_HEADER)
    assert len(rows) == 2
    assert float(rows[1][rows[0].index("mean_test_accuracy")]) <= 1.0


def test_param_sweep_grid_shape():
    ds = make_separable_dataset()
    rows = run_param_sweep(
        ds,
        fast_settings(),
        e_values=(0.5, 1.0),
        k_values=(10.0, 20.0),
        ratio=0.8,
        seed=0,
    )
    assert len(rows) == 4
    assert {(r.smoothing, r.slope_divisor) for r in rows} == {
        (0.5, 10.0),
        (0.5, 20.0),
        (1.0, 10.0),
        (1.0, 20.0),
    }
    assert all(r.error is None for r in rows)


def test_param_sweep_full_smoothing_matches_plain_mode():
    # At full smoothing the running average is the base itself, and the noise
    # scale defaults to 1, so candidates coincide with plain mode draws.
    ds = make_separable_dataset()
    settings = fast_settings(
        bso_params=BsoParams(
            population_size=10,
            cluster_count=2,
            max_iterations=8,
            stagnation_window=20,
            noise_scale=1.0,
        )
    )
    [ewma_row] = run_param_sweep(
        ds, settings, e_values=(1.0,), k_values=(20.0,), ratio=0.8, seed=5
    )
    plain = run_sweep(
        ds, settings, ratios=(0.8,), seeds=(5,), optimizers=("bso-plain",)
    ).runs[0]
    assert ewma_row.best_value == plain.best_value
    assert ewma_row.test_accuracy == plain.test_accuracy
    assert ewma_row.train_accuracy == plain.train_accuracy


def test_param_sweep_rejects_bad_grid():
    ds = make_separable_dataset()
    with pytest.raises(ConfigError):
        run_param_sweep(ds, fast_settings(), e_values=(0.0,), k_values=(20.0,))
    with pytest.raises(ConfigError):
        run_param_sweep(ds, fast_settings(), e_values=(0.5,), k_values=(-1.0,))


def test_param_sweep_csv(tmp_path):
    ds = make_separable_dataset()
    rows = run_param_sweep(
        ds, fast_settings(), e_values=(0.5,), k_values=(10.0, 20.0)
    )
    path = tmp_path / "grid.csv"
    write_rows(rows, path)
    table = read_csv(path)
    assert table[0] == list(PARAM_SWEEP_HEADER)
    assert table[0][-1] == "error"
    assert len(table) == 3


def test_param_sweep_error_row_ends_in_its_error(tmp_path):
    # 0.99 of 60 records leaves a single test record, so the split fails
    rows = run_param_sweep(
        make_separable_dataset(), fast_settings(), e_values=(0.5,), k_values=(20.0,), ratio=0.99
    )
    path = tmp_path / "grid.csv"
    write_rows(rows, path)
    header, row = read_csv(path)
    assert header[-1] == "error" and row[-1].startswith("DataError: ")
    assert row[:4] == ["0.5", "20.0", "0.99", "0"]
    assert row[4:-1] == [""] * 6


def test_benchmark_row_coverage_and_full_fraction():
    ds = make_separable_dataset()
    rows = run_benchmark(
        ds, fast_settings(), fractions=(0.25, 0.5, 1.0), threshold=0.5, seed=0
    )
    assert len(rows) == 9  # three fractions x three optimizers
    assert {r.optimizer for r in rows} == {"bso-ewma", "bso-plain", "ga"}
    full = [r for r in rows if r.fraction == 1.0]
    assert all(r.train_records == ds.n for r in full)
    assert all(r.error is None for r in rows)


def test_benchmark_trivial_threshold_reached_at_iteration_zero():
    ds = make_separable_dataset()
    rows = run_benchmark(
        ds, fast_settings(), fractions=(1.0,), threshold=0.01, seed=0
    )
    assert all(r.reached for r in rows)
    assert all(r.iterations_to_threshold == 0 for r in rows)
    assert all(r.elapsed_ms_to_threshold is not None for r in rows)


def test_benchmark_unreachable_threshold_is_dnf_not_error(tmp_path):
    ds = make_noise_dataset()
    rows = run_benchmark(
        ds, fast_settings(), fractions=(1.0,), threshold=1.0, seed=0
    )
    assert all(not r.reached for r in rows)
    assert all(r.error is None for r in rows)
    assert all(r.iterations_to_threshold == "DNF" for r in rows)
    path = tmp_path / "bench.csv"
    write_rows(rows, path)
    table = read_csv(path)
    assert table[0] == list(BENCHMARK_HEADER)
    column = table[0].index("iterations_to_threshold")
    assert all(row[column] == "DNF" for row in table[1:])


def test_benchmark_error_row_format(tmp_path):
    rows = run_benchmark(
        make_separable_dataset(), fast_settings(), fractions=(0.99,), threshold=0.5, optimizers=("ga",)
    )
    path = tmp_path / "bench.csv"
    write_rows(rows, path)
    header, row = read_csv(path)
    assert header[-1] == "error" and row[-1].startswith("DataError: ")
    cell = dict(zip(header, row))
    assert cell["reached"] == "false"
    assert cell["iterations_to_threshold"] == ""
    assert cell["train_records"] == "" and cell["evaluations"] == ""


def test_benchmark_rejects_bad_inputs():
    ds = make_separable_dataset()
    with pytest.raises(ConfigError):
        run_benchmark(ds, fast_settings(), fractions=(0.5,), threshold=0.0)
    with pytest.raises(ConfigError):
        run_benchmark(ds, fast_settings(), fractions=(0.5,), threshold=1.5)
    with pytest.raises(ConfigError):
        run_benchmark(ds, fast_settings(), fractions=(0.0,), threshold=0.5)


def test_sweep_header_is_the_sweep_row_fields_in_table_order():
    assert SWEEP_HEADER == (
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


def test_an_integer_threshold_is_written_as_a_float(tmp_path):
    # a config file may give the threshold as 1
    rows = run_benchmark(make_noise_dataset(), fast_settings(), fractions=(1.0,), threshold=1, optimizers=("ga",))
    assert [type(row.threshold) for row in rows] == [float]
    write_rows(rows, tmp_path / "bench.csv")
    header, row = read_csv(tmp_path / "bench.csv")
    assert dict(zip(header, row))["threshold"] == "1.0"
