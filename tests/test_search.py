"""The population loop that both optimizers share."""

import numpy as np
import pytest

from rulestorm.bso import BsoParams, run
from rulestorm.ga import GaParams, run_ga
from rulestorm.search import IMPROVEMENT_EPS, ConvergenceTrace, Evaluation, TraceRecord

Q = 8
DIMS = 3


def run_bso(objective, iterations, window):
    params = BsoParams(
        population_size=Q, cluster_count=2, max_iterations=iterations,
        stagnation_window=window, seed=3,
    )
    return run(params, objective, np.zeros(DIMS), np.ones(DIMS))


def run_genetic(objective, iterations, window):
    params = GaParams(
        population_size=Q, generations=iterations, stagnation_window=window, seed=3
    )
    return run_ga(params, objective, np.zeros(DIMS), np.ones(DIMS))


# (runner, objective calls per iteration): the GA carries its elite over
OPTIMIZERS = pytest.mark.parametrize(
    "runner, per_iteration", [(run_bso, Q), (run_genetic, Q - 1)], ids=["bso", "ga"]
)


class Counting:
    """Each call scores `step` more than the one before it."""

    def __init__(self, step: float) -> None:
        self.step = step
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return Evaluation(value=self.calls * self.step)


@OPTIMIZERS
@pytest.mark.parametrize("iterations", [0, 1, 6])
def test_evaluation_count_matches_calls_and_trace(runner, per_iteration, iterations):
    objective = Counting(0.0)  # never improves: the window decides nothing here
    result = runner(objective, iterations, window=100)
    expected = Q + per_iteration * iterations
    assert result.evaluations == objective.calls == expected
    assert result.trace.records[-1].evaluations == expected
    assert [rec.iteration for rec in result.trace.records] == list(range(iterations + 1))
    assert [rec.evaluations for rec in result.trace.records] == [
        Q + per_iteration * i for i in range(iterations + 1)
    ]


@OPTIMIZERS
def test_gains_within_eps_stop_at_the_stagnation_window(runner, per_iteration):
    # every iteration raises the best value by per_iteration * step <= eps
    objective = Counting(0.5 * IMPROVEMENT_EPS / per_iteration)
    result = runner(objective, iterations=50, window=4)
    assert result.trace.records[-1].iteration == 4
    values = result.trace.best_values()
    assert all(b > a for a, b in zip(values, values[1:]))


@OPTIMIZERS
def test_gains_above_eps_keep_the_search_going(runner, per_iteration):
    objective = Counting(2.0 * IMPROVEMENT_EPS / per_iteration)
    result = runner(objective, iterations=12, window=4)
    assert result.trace.records[-1].iteration == 12


def test_trace_csv_bytes(tmp_path):
    # row 0 is what an objective without a breakdown records: empty g cells;
    # row 2 what one whose breakdown holds numpy floats records
    f64 = np.float64
    trace = ConvergenceTrace(
        records=(
            TraceRecord(0, 0.30000000000000004, -0.5, None, None, None, 8, 0.25),
            TraceRecord(1, 1.0, 0.1, 0.5, 1e-05, 0.30000000000000004, 16, 12.0),
            TraceRecord(2, 1.0, 0.5, f64(0.5), f64(1e-05), f64(0.30000000000000004), 24, 13.5),
        )
    )
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    assert path.read_bytes() == (
        b"iteration,best_G,mean_G,g1,g2,g3,evaluations,elapsed_ms\r\n"
        b"0,0.30000000000000004,-0.5,,,,8,0.25\r\n"
        b"1,1.0,0.1,0.5,1e-05,0.30000000000000004,16,12.0\r\n"
        b"2,1.0,0.5,0.5,1e-05,0.30000000000000004,24,13.5\r\n"
    )

