"""The population loop that both optimizers share."""

import hashlib
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_bso_run, reference_ga_run, reference_objective

from rulestorm.bso import BsoParams, run
from rulestorm.dataset import Dataset, attribute_stats
from rulestorm.ga import GaParams, run_ga
from rulestorm.membership import build_partition
from rulestorm.rules import RuleSetShape, genotype_bounds
from rulestorm.search import IMPROVEMENT_EPS, ConvergenceTrace, Evaluation, TraceRecord, sample_population
from rulestorm.training import OPTIMIZERS as TRAINING_OPTIMIZERS
from rulestorm.training import ExperimentSettings, RuleObjective

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



# ------------------------------------------------------- whole-search oracle ---

@st.composite
def tiny_searches(draw, optimizer):
    """A 40-record split over up to three attributes with two or three
    labels each, settings of up to four rules, and the params of a short
    search whose small stagnation window stops some runs early; each
    breeding probability is 0, its default or 1, so every masked branch
    runs alone too."""
    m, p, c = draw(st.integers(1, 3)), draw(st.integers(2, 3)), draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.integers(1, c + 1, size=40)
    y[:c] = np.arange(1, c + 1)
    ds = Dataset(
        x=rng.uniform(0.0, 10.0, size=(40, m)),
        y=y,
        attribute_names=tuple(f"a{j}" for j in range(m)),
        class_values=tuple(float(k) for k in range(c)),
    )
    training = ExperimentSettings(
        labels_per_attribute=p,
        rule_count=draw(st.integers(c, 4)),
        accuracy_weight=draw(st.sampled_from([0.0, 0.35, 1.0])),
        sum_scores=draw(st.booleans()),
    )
    size, iterations = draw(st.integers(1, 8)), draw(st.integers(0, 6))
    common = dict(population_size=size, stagnation_window=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**31)))
    if optimizer == "ga":
        params = GaParams(
            generations=iterations,
            tournament_size=draw(st.integers(1, 3)),
            crossover_prob=draw(st.sampled_from([0.0, GaParams.crossover_prob, 1.0])),
            mutation_prob=draw(st.sampled_from([0.0, GaParams.mutation_prob, 1.0])),
            **common,
        )
    else:
        params = BsoParams(
            max_iterations=iterations,
            cluster_count=draw(st.integers(1, size)),
            replace_center_prob=draw(st.sampled_from([0.0, BsoParams.replace_center_prob, 1.0])),
            one_cluster_prob=draw(st.sampled_from([0.0, BsoParams.one_cluster_prob, 1.0])),
            use_center_prob=draw(st.sampled_from([0.0, BsoParams.use_center_prob, 1.0])),
            use_center_pair_prob=draw(st.sampled_from([0.0, BsoParams.use_center_pair_prob, 1.0])),
            mode=optimizer.removeprefix("bso-"),
            **common,
        )
    return ds, training, params


@pytest.mark.parametrize("optimizer", TRAINING_OPTIMIZERS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_search_equals_the_slot_by_slot_oracle(optimizer, data):
    """A whole run on the training objective gives, bit for bit, the trace
    without elapsed_ms, the evaluation count and the best genotype of the
    oracle run on the genotype-by-genotype objective."""
    ds, training, params = data.draw(tiny_searches(optimizer))
    partitions = tuple(build_partition(stats, training.labels_per_attribute) for stats in attribute_stats(ds))
    lower, upper = genotype_bounds(training.rule_shape(ds))
    system, oracle = (run_ga, reference_ga_run) if optimizer == "ga" else (run, reference_bso_run)
    result = system(params, RuleObjective(ds, partitions, training), lower, upper)
    trace, evaluations, best = oracle(params, reference_objective(ds, partitions, training), lower, upper)
    assert [astuple(record)[:-1] for record in result.trace.records] == trace
    assert result.evaluations == evaluations
    assert result.best.genotype.tobytes() == best.tobytes()


# ------------------------------------------------------------ draw patterns ---

LOWER, UPPER = genotype_bounds(RuleSetShape(m=3, p=3, c=2, r=3))


def population_draws(rng):
    return [sample_population(rng, LOWER, UPPER, 8) for _ in range(3)]


def first_means_draws(rng):
    """k-means' draw of the members that seed its means."""
    return [rng.choice(q, size=k, replace=False) for q, k in ((50, 5), (8, 3), (6, 6), (7, 1), (1, 1))]


def center_draws(rng):
    """An iteration's coin for replacing a center, the center and its new row."""
    return [draw for _ in range(6) for draw in (rng.random(), rng.integers(5), rng.uniform(LOWER, UPPER))]


def bso_slot_draws(rng, k=4, members=(3, 1, 5, 2), one_cluster_prob=0.5, use_center_prob=0.4):
    """A slot's draws in select_base's order, then its step and noise row:
    the branch, one cluster or a pair, the center coin, a member of each
    picked cluster unless the coin picked the centers, lam for a pair."""
    draws, row = [], np.empty(len(LOWER))
    for _ in range(12):
        branch = rng.random()
        picked = [rng.integers(k)] if branch < one_cluster_prob else rng.choice(k, size=2, replace=False)
        coin = rng.random()
        picks = [] if coin < use_center_prob else [rng.integers(members[c]) for c in picked]
        lam = [rng.random()] if len(picked) == 2 else []
        step = rng.random()
        rng.standard_normal(out=row)
        draws += [branch, *picked, coin, *picks, *lam, step, row.copy()]
    return draws


def ga_slot_draws(rng, q=8, tournament_size=3, crossover_prob=0.5):
    """A child's draws in run_ga's order: two tournaments, the crossover
    coin, the crossover mask when the coin says so, the mutate row and the
    noise row."""
    draws, dims = [], len(LOWER)
    for _ in range(12):
        first, second, coin = rng.integers(q, size=tournament_size), rng.integers(q, size=tournament_size), rng.random()
        mask = [rng.random(dims)] if coin < crossover_prob else []
        draws += [first, second, coin, *mask, rng.random(dims), rng.standard_normal(dims)]
    return draws


# each pattern's draws from default_rng(0) and the sha256 of them, every
# number as a little-endian float64, recorded on numpy 2.4
DRAW_PATTERNS = {
    "sample_population": (population_draws, "020436fc1d47fe648989a7a53636051e45c0bb6dfaa53d3cee2aa9c2819a083d"),
    "k-means first means": (first_means_draws, "bd12d656f7f64f0623a13c184a8ec3c6ebdf2d8bce5e122efe0807740065bfc2"),
    "bso center replacement": (center_draws, "46a909ca2518ed72e0477a2beddaffbe97a86f621e42b404137378643e7d4c76"),
    "bso slot": (bso_slot_draws, "4cd5e37a94c2278368c0d0172608d4444d28aa19296a214c1781dc622e711671"),
    "ga slot": (ga_slot_draws, "e68d377acc71680bf025ec68f7dd31007077e05896d1219892c3cada30f08906"),
}


def draw_digest(draws) -> str:
    return hashlib.sha256(np.concatenate([np.asarray(d, dtype="<f8").ravel() for d in draws]).tobytes()).hexdigest()


def test_seeded_draw_patterns_keep_their_digests():
    """numpy's streams for the draws the searches take: a moved stream
    changes every seeded model and trace, and the message names it."""
    digests = {name: draw_digest(draws(np.random.default_rng(0))) for name, (draws, _) in DRAW_PATTERNS.items()}
    moved = [name for name, (_, pinned) in DRAW_PATTERNS.items() if digests[name] != pinned]
    assert not moved, f"draw patterns moved: {moved}; digests now {digests}"
