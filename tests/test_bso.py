"""Tests for the clustering-based stochastic optimizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulestorm.bso import (
    BsoParams,
    anneal_ramp,
    cluster_population,
    generate_candidate,
    run,
    select_base,
    step_size,
)
from rulestorm.errors import ConfigError, EvaluationError
from rulestorm.search import Evaluation, sample_population


class ScriptedRng:
    """Test double replaying queued draws for each generator method."""

    def __init__(self, randoms=(), ints=(), choices=(), normals=(), uniforms=()):
        self.randoms = list(randoms)
        self.ints = list(ints)
        self.choices = list(choices)
        self.normals = list(normals)
        self.uniforms = list(uniforms)

    def random(self):
        return self.randoms.pop(0)

    def integers(self, high):
        return self.ints.pop(0)

    def choice(self, n, size=None, replace=True):
        return np.asarray(self.choices.pop(0))

    def standard_normal(self, size=None):
        return np.asarray(self.normals.pop(0))

    def uniform(self, low, high, size=None):
        return np.asarray(self.uniforms.pop(0))


def sphere_objective(x):
    return Evaluation(value=-float(np.dot(x, x)))


def params_with(**kw):
    base = dict(seed=7)
    base.update(kw)
    return BsoParams(**base)


# -------------------------------------------------------------- step size ---

def test_step_size_midpoint_halves_s():
    p = params_with(max_iterations=100, slope_divisor=20.0)
    assert step_size(50, p, s=0.8) == pytest.approx(0.4, abs=1e-12)


def test_step_size_zero_s_is_zero():
    p = params_with(max_iterations=100)
    for nc in (0, 10, 100):
        assert step_size(nc, p, s=0.0) == 0.0


def test_step_size_flat_slope_limit():
    p = params_with(max_iterations=100, slope_divisor=1e12)
    assert step_size(0, p, s=0.6) == pytest.approx(0.3, rel=1e-6)


def test_step_size_decays_over_iterations():
    p = params_with(max_iterations=200, slope_divisor=20.0)
    values = [step_size(nc, p, s=1.0) for nc in range(0, 201, 25)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[0] > 0.9
    assert values[-1] < 0.01


# (max_iterations, slope_divisor, nc, s) and s * scipy.special.expit(z),
# recorded when step_size still called scipy; z = (T / 2 - nc) / divisor.
PINNED_STEPS = [
    ((500, 20.0, 250, 0.7), 0.35),  # the midpoint, z = 0
    ((500, 1.0, 1, 0.3), 0.3),  # z = 249: the ramp is exactly 1.0
    ((500, 20.0, 1, 0.3), 0.2999988246877747),  # the default first iteration
    ((500, 20.0, 450, 0.9), 4.0858081832190954e-05),  # deep annealing
    ((500, 20.0, 500, 0.9), 3.353975355767905e-06),  # the default last iteration
    ((3001, 1.0, 2210, 0.5), 3.69007415700629e-309),  # z = -709.5: subnormal, not 0
    ((60, 1e-3, 29, 0.9), 0.9),  # z = 1000, before the midpoint
    ((60, 1e-3, 31, 0.9), 0.0),  # z = -1000: exp(-z) overflows, the ramp is 0
]


@pytest.mark.parametrize(("case", "expected"), PINNED_STEPS)
def test_step_size_matches_pinned_logistic(case, expected):
    max_iterations, slope_divisor, nc, s = case
    p = params_with(max_iterations=max_iterations, slope_divisor=slope_divisor)
    assert step_size(nc, p, s) == expected


@settings(max_examples=200, deadline=None)
@given(
    max_iterations=st.integers(0, 3001),
    slope_divisor=st.sampled_from([1e-3, 0.7, 2.4, 20.0, 1e12]),
    nc=st.integers(0, 3001),
    s=st.floats(0.0, 1.0),
    plain=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_candidate_step_is_step_size_from_the_iteration_ramp(max_iterations, slope_divisor, nc, s, plain, seed):
    """run computes the ramp once per iteration; a candidate built from it
    moves by exactly step_size(nc, params, s), and step_size is s * ramp."""
    p = params_with(max_iterations=max_iterations, slope_divisor=slope_divisor, mode="plain" if plain else "ewma")
    ramp = anneal_ramp(nc, p)
    assert step_size(nc, p, s) == s * ramp
    z = np.random.default_rng(seed).standard_normal(4)
    base, state = np.linspace(-1.0, 1.0, 4), np.full(4, 0.25)
    cand, _ = generate_candidate(
        base, None if plain else state, ramp, p, ScriptedRng(randoms=[s], normals=[z]),
        lower=np.full(4, -50.0), upper=np.full(4, 50.0),
    )
    noise = p.noise_mean + p.noise_sigma * z
    xi = step_size(nc, p, s)
    expected = base + xi * noise if plain else p.smoothing * base + (1.0 - p.smoothing) * state + p.noise_scale * xi * noise
    assert cand.view(np.int64).tolist() == np.clip(expected, -50.0, 50.0).view(np.int64).tolist()


# ----------------------------------------------------------- initialization ---

def test_sample_population_respects_bounds():
    rng = np.random.default_rng(3)
    lower = np.array([-0.49] * 50 + [0.51] * 25 + [0.0] * 25)
    upper = np.array([3.49] * 50 + [2.49] * 25 + [1.0] * 25)
    pop = sample_population(rng, lower, upper, 120)  # 12000 genes
    assert pop.shape == (120, 100)
    assert np.all(pop >= lower)
    assert np.all(pop <= upper)


def test_sample_population_single_member():
    rng = np.random.default_rng(0)
    pop = sample_population(rng, np.zeros(4), np.ones(4), 1)
    assert pop.shape == (1, 4)


def test_sample_population_deterministic():
    lower, upper = np.zeros(6), np.ones(6)
    a = sample_population(np.random.default_rng(42), lower, upper, 10)
    b = sample_population(np.random.default_rng(42), lower, upper, 10)
    assert np.array_equal(a, b)


# -------------------------------------------------------------- clustering ---

def test_cluster_each_point_alone_when_k_equals_q():
    genos = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
    values = np.array([1.0, 2.0, 3.0, 4.0])
    clusters = cluster_population(genos, values, k=4, rng=np.random.default_rng(1))
    assert sorted(tuple(c.members) for c in clusters) == [(0,), (1,), (2,), (3,)]
    for c in clusters:
        assert c.center == c.members[0]


def test_cluster_single_cluster_center_is_best():
    rng = np.random.default_rng(5)
    genos = rng.normal(size=(12, 3))
    values = rng.uniform(size=12)
    clusters = cluster_population(genos, values, k=1, rng=np.random.default_rng(2))
    assert len(clusters) == 1
    assert sorted(clusters[0].members) == list(range(12))
    assert clusters[0].center == int(np.argmax(values))


def test_cluster_separated_blobs_recovered():
    rng = np.random.default_rng(11)
    blob_a = rng.normal(loc=0.0, scale=0.3, size=(30, 4))
    blob_b = rng.normal(loc=10.0, scale=0.3, size=(30, 4))
    genos = np.vstack([blob_a, blob_b])
    values = rng.uniform(size=60)
    clusters = cluster_population(genos, values, k=2, rng=np.random.default_rng(9))
    groups = sorted([sorted(c.members) for c in clusters])
    assert groups == [list(range(30)), list(range(30, 60))]
    # center = best-value member of each blob, verified by an independent argmax
    for c in clusters:
        members = list(c.members)
        assert c.center == members[int(np.argmax(values[members]))]


def test_cluster_identical_genotypes_fills_empty_clusters():
    genos = np.ones((6, 3))
    values = np.array([0.5, 0.1, 0.9, 0.3, 0.7, 0.2])
    clusters = cluster_population(genos, values, k=3, rng=np.random.default_rng(0))
    assert len(clusters) == 3
    all_members = sorted(i for c in clusters for i in c.members)
    assert all_members == list(range(6))
    assert all(len(c.members) >= 1 for c in clusters)


def test_cluster_deterministic():
    rng = np.random.default_rng(13)
    genos = rng.normal(size=(20, 5))
    values = rng.uniform(size=20)
    a = cluster_population(genos, values, k=4, rng=np.random.default_rng(77))
    b = cluster_population(genos, values, k=4, rng=np.random.default_rng(77))
    assert [(tuple(c.members), c.center) for c in a] == [
        (tuple(c.members), c.center) for c in b
    ]


# ---------------------------------------------------------- base selection ---

def test_select_base_one_cluster_center_branch():
    genos = np.array([[0.0, 0.0], [2.0, 4.0], [6.0, 8.0]])
    values = np.array([0.1, 0.9, 0.5])
    clusters = cluster_population(genos, values, k=1, rng=np.random.default_rng(0))
    centers = [genos[c.center] for c in clusters]
    p = params_with(one_cluster_prob=1.0, use_center_prob=1.0)
    rng = ScriptedRng(randoms=[0.3, 0.2], ints=[0])
    base = select_base(clusters, genos, centers, p, rng)
    assert np.array_equal(base, genos[1])  # best member of the only cluster


def test_select_base_one_cluster_member_branch():
    genos = np.array([[0.0, 0.0], [2.0, 4.0], [6.0, 8.0]])
    values = np.array([0.1, 0.9, 0.5])
    clusters = cluster_population(genos, values, k=1, rng=np.random.default_rng(0))
    centers = [genos[c.center] for c in clusters]
    p = params_with(one_cluster_prob=1.0, use_center_prob=0.0)
    members = sorted(clusters[0].members)
    rng = ScriptedRng(randoms=[0.3, 0.7], ints=[0, 2])
    base = select_base(clusters, genos, centers, p, rng)
    assert np.array_equal(base, genos[members[2]])


def test_select_base_two_cluster_center_blend():
    genos = np.array([[0.0, 0.0], [2.0, 4.0]])
    values = np.array([0.4, 0.6])
    clusters = cluster_population(genos, values, k=2, rng=np.random.default_rng(1))
    clusters = sorted(clusters, key=lambda c: c.members[0])
    centers = [genos[c.center] for c in clusters]
    p = params_with(one_cluster_prob=0.0, use_center_pair_prob=1.0)
    rng = ScriptedRng(randoms=[0.9, 0.2, 0.5], choices=[(0, 1)])
    base = select_base(clusters, genos, centers, p, rng)
    assert np.allclose(base, [1.0, 2.0])  # midpoint of (0,0) and (2,4)


def test_select_base_two_cluster_member_blend():
    genos = np.array([[0.0, 0.0], [2.0, 4.0]])
    values = np.array([0.4, 0.6])
    clusters = cluster_population(genos, values, k=2, rng=np.random.default_rng(1))
    clusters = sorted(clusters, key=lambda c: c.members[0])
    centers = [genos[c.center] for c in clusters]
    p = params_with(one_cluster_prob=0.0, use_center_pair_prob=0.0)
    # u1, u3, member picks within each cluster, lambda
    rng = ScriptedRng(randoms=[0.9, 0.7, 0.25], choices=[(0, 1)], ints=[0, 0])
    base = select_base(clusters, genos, centers, p, rng)
    expected = 0.25 * genos[0] + 0.75 * genos[1]
    assert np.allclose(base, expected)


def test_select_base_single_cluster_forces_one_cluster_branch():
    genos = np.array([[1.0, 1.0], [3.0, 3.0]])
    values = np.array([0.2, 0.8])
    clusters = cluster_population(genos, values, k=1, rng=np.random.default_rng(0))
    centers = [genos[c.center] for c in clusters]
    p = params_with(one_cluster_prob=0.0, use_center_prob=1.0)
    rng = ScriptedRng(randoms=[0.99, 0.1], ints=[0])
    base = select_base(clusters, genos, centers, p, rng)
    assert np.array_equal(base, genos[1])


def test_select_base_always_center_under_forcing_probs():
    rng = np.random.default_rng(21)
    genos = rng.normal(size=(15, 4))
    values = rng.uniform(size=15)
    clusters = cluster_population(genos, values, k=3, rng=np.random.default_rng(3))
    centers = [genos[c.center] for c in clusters]
    p = params_with(one_cluster_prob=1.0, use_center_prob=1.0)
    center_rows = {tuple(c) for c in centers}
    for _ in range(25):
        base = select_base(clusters, genos, centers, p, rng)
        assert tuple(base) in center_rows


# ----------------------------------------------------- candidate generation ---

def test_candidate_smoothing_one_zero_scale_returns_base():
    p = params_with(mode="ewma", smoothing=1.0, noise_scale=0.0, noise_sigma=1.0)
    base = np.array([0.5, -1.5, 2.0])
    state = np.array([9.0, 9.0, 9.0])
    rng = ScriptedRng(randoms=[0.4], normals=[[1.0, -2.0, 0.5]])
    cand, new_state = generate_candidate(
        base, state, ramp=anneal_ramp(10, p), params=p, rng=rng,
        lower=np.full(3, -10.0), upper=np.full(3, 10.0),
    )
    assert np.array_equal(cand, base)
    assert np.array_equal(new_state, base)


def test_candidate_smoothing_halfway_updates_state():
    p = params_with(mode="ewma", smoothing=0.5)
    base = np.full(3, 2.0)
    state = np.zeros(3)
    rng = ScriptedRng(randoms=[0.0], normals=[[0.0, 0.0, 0.0]])
    _, new_state = generate_candidate(
        base, state, ramp=anneal_ramp(0, p), params=p, rng=rng,
        lower=np.full(3, -10.0), upper=np.full(3, 10.0),
    )
    assert np.allclose(new_state, 1.0)


def test_candidate_plain_zero_noise_returns_base():
    p = params_with(mode="plain", noise_sigma=0.0, noise_mean=0.0)
    base = np.array([1.0, 2.0, 3.0])
    rng = ScriptedRng(randoms=[0.77], normals=[[5.0, -5.0, 5.0]])
    cand, new_state = generate_candidate(
        base, None, ramp=anneal_ramp(3, p), params=p, rng=rng,
        lower=np.zeros(3), upper=np.full(3, 4.0),
    )
    assert np.array_equal(cand, base)
    assert new_state is None


def test_candidate_clamped_to_bounds():
    p = params_with(mode="plain", noise_sigma=100.0, max_iterations=10)
    lower, upper = np.zeros(4), np.ones(4)
    rng = np.random.default_rng(2)
    for _ in range(50):
        cand, _ = generate_candidate(
            np.full(4, 0.5), None, ramp=anneal_ramp(0, p), params=p, rng=rng, lower=lower, upper=upper
        )
        assert np.all(cand >= lower)
        assert np.all(cand <= upper)


def test_candidate_modes_share_rng_stream_when_degenerate():
    # smoothing 1 + unit noise scale makes the averaged mode reproduce the
    # plain update draw-for-draw under one seed
    base = np.array([0.3, -0.2, 1.1])
    lower, upper = np.full(3, -5.0), np.full(3, 5.0)
    plain = params_with(mode="plain")
    averaged = params_with(mode="ewma", smoothing=1.0, noise_scale=1.0)
    c1, _ = generate_candidate(
        base, None, ramp=anneal_ramp(5, plain), params=plain, rng=np.random.default_rng(123),
        lower=lower, upper=upper,
    )
    c2, _ = generate_candidate(
        base, base.copy(), ramp=anneal_ramp(5, averaged), params=averaged, rng=np.random.default_rng(123),
        lower=lower, upper=upper,
    )
    assert np.allclose(c1, c2, atol=1e-15)


# ------------------------------------------------------------------- run ---

def test_run_zero_iterations_returns_initial_best():
    p = params_with(population_size=10, cluster_count=2, max_iterations=0, seed=5)
    result = run(p, sphere_objective, np.full(3, -2.0), np.full(3, 2.0))
    assert len(result.trace.records) == 1
    assert result.evaluations == 10
    values = [ind.evaluation.value for ind in result.population]
    assert result.best.evaluation.value == max(values)


def test_run_deterministic_given_seed():
    p = params_with(population_size=12, cluster_count=3, max_iterations=15, seed=99)
    r1 = run(p, sphere_objective, np.full(4, -3.0), np.full(4, 3.0))
    r2 = run(p, sphere_objective, np.full(4, -3.0), np.full(4, 3.0))
    assert np.array_equal(r1.best.genotype, r2.best.genotype)
    t1 = [(rec.iteration, rec.best_value, rec.mean_value, rec.evaluations)
          for rec in r1.trace.records]
    t2 = [(rec.iteration, rec.best_value, rec.mean_value, rec.evaluations)
          for rec in r2.trace.records]
    assert t1 == t2


def test_run_best_trace_non_decreasing():
    p = params_with(population_size=15, cluster_count=3, max_iterations=40, seed=4)
    result = run(p, sphere_objective, np.full(5, -4.0), np.full(5, 4.0))
    best = [rec.best_value for rec in result.trace.records]
    assert all(b >= a for a, b in zip(best, best[1:]))
    assert result.best.evaluation.value == best[-1]


def test_run_population_stays_in_bounds():
    lower, upper = np.full(4, -1.5), np.full(4, 2.5)
    p = params_with(population_size=10, cluster_count=2, max_iterations=25, seed=8)
    result = run(p, sphere_objective, lower, upper)
    for ind in result.population:
        assert np.all(ind.genotype >= lower)
        assert np.all(ind.genotype <= upper)
    assert np.all(result.best.genotype >= lower)
    assert np.all(result.best.genotype <= upper)


def test_run_stagnation_stops_early():
    p = params_with(
        population_size=8, cluster_count=2, max_iterations=500,
        stagnation_window=5, seed=1,
    )
    result = run(p, lambda x: Evaluation(value=0.0), np.zeros(3), np.ones(3))
    assert len(result.trace.records) == 6  # initial record + 5 stagnant iterations
    assert all(rec.best_value == 0.0 for rec in result.trace.records)


def test_run_wraps_objective_failures_with_iteration_context():
    calls = {"n": 0}

    def flaky(x):
        calls["n"] += 1
        if calls["n"] > 12:
            raise ValueError("boom")
        return Evaluation(value=float(x.sum()))

    p = params_with(population_size=10, cluster_count=2, max_iterations=50, seed=3)
    with pytest.raises(EvaluationError, match="iteration"):
        run(p, flaky, np.zeros(2), np.ones(2))


def test_run_modes_agree_under_degenerate_noise():
    # zero noise and full smoothing: both modes reduce to pure hill climbing
    # over selected bases and must match draw for draw
    common = dict(
        population_size=8, cluster_count=2, max_iterations=12,
        noise_sigma=0.0, noise_mean=0.0, seed=55,
    )
    plain = BsoParams(mode="plain", **common)
    averaged = BsoParams(mode="ewma", smoothing=1.0, noise_scale=0.0, **common)
    lower, upper = np.full(3, -2.0), np.full(3, 2.0)
    r1 = run(plain, sphere_objective, lower, upper)
    r2 = run(averaged, sphere_objective, lower, upper)
    for a, b in zip(r1.population, r2.population):
        assert np.array_equal(a.genotype, b.genotype)
    t1 = [(rec.iteration, rec.best_value, rec.mean_value) for rec in r1.trace.records]
    t2 = [(rec.iteration, rec.best_value, rec.mean_value) for rec in r2.trace.records]
    assert t1 == t2


@pytest.mark.parametrize("mode", ["plain", "ewma"])
def test_run_sphere_smoke(mode):
    p = BsoParams(
        mode=mode, population_size=20, cluster_count=4,
        max_iterations=150, seed=0,
    )
    result = run(p, sphere_objective, np.full(3, -5.0), np.full(3, 5.0))
    assert result.best.evaluation.value >= -0.05


# ------------------------------------------------------------- validation ---

def test_params_reject_more_clusters_than_members():
    with pytest.raises(ConfigError):
        BsoParams(population_size=5, cluster_count=6, seed=0)


def test_params_reject_bad_slope_divisor():
    with pytest.raises(ConfigError):
        BsoParams(slope_divisor=0.0, seed=0)


def test_params_reject_unknown_mode():
    with pytest.raises(ConfigError):
        BsoParams(mode="simulated-annealing", seed=0)


def test_params_reject_zero_smoothing():
    with pytest.raises(ConfigError):
        BsoParams(smoothing=0.0, seed=0)


def test_params_reject_negative_sigma():
    with pytest.raises(ConfigError):
        BsoParams(noise_sigma=-1.0, seed=0)


def test_params_reject_probability_out_of_range():
    with pytest.raises(ConfigError):
        BsoParams(one_cluster_prob=1.5, seed=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("slope_divisor", math.nan),
        ("noise_sigma", math.nan),
        ("noise_scale", True),
        ("population_size", 5.5),
        ("max_iterations", 2.5),
        ("cluster_count", True),
        ("seed", -2),
        ("seed", 1.0),
    ],
)
def test_params_reject_non_integer_counts_non_finite_reals_and_negative_seeds(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        BsoParams(**{field: value})


def test_params_accept_numpy_integers_and_python_ints_for_reals():
    p = BsoParams(population_size=np.int64(10), cluster_count=np.int32(2), slope_divisor=20, seed=np.uint8(3))
    assert p.population_size == 10 and p.seed == 3
    # stored as Python ints, which json (and so save_model) can write
    assert type(p.population_size) is int and type(p.seed) is int
    assert p.slope_divisor == 20 and type(p.slope_divisor) is int
