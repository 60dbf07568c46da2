"""Tests for the clustering-based stochastic optimizer."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rulestorm import bso
from rulestorm.bso import (
    BsoParams,
    anneal_ramp,
    cluster_population,
    generate_candidate,
    run,
    select_base,
)
from rulestorm.errors import ConfigError, EvaluationError
from rulestorm.search import Evaluation, sample_population


class ScriptedRng:
    """Test double replaying queued draws for each generator method."""

    def __init__(self, randoms=(), ints=(), choices=()):
        self.randoms = list(randoms)
        self.ints = list(ints)
        self.choices = list(choices)

    def random(self):
        return self.randoms.pop(0)

    def integers(self, high):
        return self.ints.pop(0)

    def choice(self, n, size=None, replace=True):
        return np.asarray(self.choices.pop(0))


def sphere_objective(x):
    return Evaluation(value=-float(np.dot(x, x)))


def params_with(**kw):
    base = dict(seed=7)
    base.update(kw)
    return BsoParams(**base)


# ------------------------------------------------------------ annealed step ---

def annealed_step(nc, p, s):
    """A slot's step as run hands it to generate_candidate: its draw s times
    the iteration's anneal_ramp, taken over the array of steps."""
    return float((np.array([s]) * anneal_ramp(nc, p))[0])


def test_annealed_step_midpoint_halves_s():
    p = params_with(max_iterations=100, slope_divisor=20.0)
    assert annealed_step(50, p, s=0.8) == pytest.approx(0.4, abs=1e-12)


def test_annealed_step_zero_s_is_zero():
    p = params_with(max_iterations=100)
    for nc in (0, 10, 100):
        assert annealed_step(nc, p, s=0.0) == 0.0


def test_annealed_step_flat_slope_limit():
    p = params_with(max_iterations=100, slope_divisor=1e12)
    assert annealed_step(0, p, s=0.6) == pytest.approx(0.3, rel=1e-6)


def test_annealed_step_decays_over_iterations():
    p = params_with(max_iterations=200, slope_divisor=20.0)
    values = [annealed_step(nc, p, s=1.0) for nc in range(0, 201, 25)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[0] > 0.9
    assert values[-1] < 0.01


# (max_iterations, slope_divisor, nc, s) and s * scipy.special.expit(z),
# recorded when the ramp still called scipy; z = (T / 2 - nc) / divisor.
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
def test_annealed_step_matches_pinned_logistic(case, expected):
    max_iterations, slope_divisor, nc, s = case
    p = params_with(max_iterations=max_iterations, slope_divisor=slope_divisor)
    assert annealed_step(nc, p, s) == expected


@settings(max_examples=200, deadline=None)
@given(
    max_iterations=st.integers(0, 3001),
    slope_divisor=st.sampled_from([1e-3, 0.7, 2.4, 20.0, 1e12]),
    nc=st.integers(0, 3001),
    s=st.floats(0.0, 1.0),
    plain=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_candidate_moves_by_s_times_the_iteration_ramp(max_iterations, slope_divisor, nc, s, plain, seed):
    """run computes the ramp once per iteration; a candidate built from it
    moves by exactly s * anneal_ramp(nc, params)."""
    p = params_with(max_iterations=max_iterations, slope_divisor=slope_divisor, mode="plain" if plain else "ewma")
    z = np.random.default_rng(seed).standard_normal(4)
    base, state = np.linspace(-1.0, 1.0, 4), np.full(4, 0.25)
    cand, _ = generate_candidate(
        base[None], state[None], np.array([annealed_step(nc, p, s)]), z[None], p,
        lower=np.full(4, -50.0), upper=np.full(4, 50.0),
    )
    noise = p.noise_mean + p.noise_sigma * z
    xi = s * anneal_ramp(nc, p)
    assert annealed_step(nc, p, s) == xi
    expected = base + xi * noise if plain else p.smoothing * base + (1.0 - p.smoothing) * state + p.noise_scale * xi * noise
    assert cand[0].view(np.int64).tolist() == np.clip(expected, -50.0, 50.0).view(np.int64).tolist()


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

@dataclass(frozen=True)
class Cluster:
    members: tuple[int, ...]  # population indices, ascending
    center: int               # index of the best-valued member


def reference_clusters(genotypes, values, k, rng):
    """k-means as a list of Cluster records, rebuilt from the final
    assignment with one refill check per cluster: the oracle of
    cluster_population."""
    q = genotypes.shape[0]
    means = np.array(genotypes[rng.choice(q, size=k, replace=False)], dtype=float)
    assign = None
    for _ in range(bso.KMEANS_PASSES):
        distances = ((genotypes[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        new_assign = np.argmin(distances, axis=1)
        counts = np.bincount(new_assign, minlength=k)
        for cluster_idx in range(k):
            if counts[cluster_idx] > 0:
                continue
            eligible = np.flatnonzero(counts[new_assign] >= 2)
            victim = int(eligible[np.argmin(values[eligible])])
            counts[new_assign[victim]] -= 1
            new_assign[victim] = cluster_idx
            counts[cluster_idx] += 1
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for cluster_idx in range(k):
            members = np.flatnonzero(assign == cluster_idx)
            means[cluster_idx] = genotypes[members].mean(axis=0)
    clusters = []
    for cluster_idx in range(k):
        members = tuple(int(i) for i in np.flatnonzero(assign == cluster_idx))
        center = members[int(np.argmax(values[list(members)]))]
        clusters.append(Cluster(members=members, center=center))
    return clusters


@st.composite
def clustering_cases(draw):
    """A population whose rows come from a small pool, so that rows repeat,
    with values that often tie, and a cluster count from 1 to q."""
    q, n = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    genes = st.sampled_from([0.0, 1.0, -2.5]) | st.floats(-3.0, 3.0)
    pool = draw(arrays(np.float64, (draw(st.integers(1, q)), n), elements=genes))
    rows = draw(st.lists(st.integers(0, len(pool) - 1), min_size=q, max_size=q))
    values = draw(arrays(np.float64, q, elements=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0)))
    return pool[rows], values, draw(st.integers(1, q)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(case=clustering_cases())
@example(case=(np.ones((6, 3)), np.array([0.5, 0.1, 0.9, 0.3, 0.7, 0.2]), 3, 0))
@example(case=(np.ones((5, 2)), np.zeros(5), 5, 1))
def test_clusters_equal_the_record_oracle(case):
    genotypes, values, k, seed = case
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    members, best = cluster_population(genotypes, values, k, rng)
    clusters = reference_clusters(genotypes, values, k, oracle_rng)
    assert [tuple(rows.tolist()) for rows in members] == [c.members for c in clusters]
    assert best.tolist() == [c.center for c in clusters]
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_cluster_each_point_alone_when_k_equals_q():
    genos = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
    values = np.array([1.0, 2.0, 3.0, 4.0])
    members, best = cluster_population(genos, values, k=4, rng=np.random.default_rng(1))
    assert sorted(tuple(rows) for rows in members) == [(0,), (1,), (2,), (3,)]
    for rows, center in zip(members, best):
        assert center == rows[0]


def test_cluster_single_cluster_center_is_best():
    rng = np.random.default_rng(5)
    genos = rng.normal(size=(12, 3))
    values = rng.uniform(size=12)
    members, best = cluster_population(genos, values, k=1, rng=np.random.default_rng(2))
    assert len(members) == 1
    assert sorted(members[0]) == list(range(12))
    assert best[0] == int(np.argmax(values))


def test_cluster_separated_blobs_recovered():
    rng = np.random.default_rng(11)
    blob_a = rng.normal(loc=0.0, scale=0.3, size=(30, 4))
    blob_b = rng.normal(loc=10.0, scale=0.3, size=(30, 4))
    genos = np.vstack([blob_a, blob_b])
    values = rng.uniform(size=60)
    members, best = cluster_population(genos, values, k=2, rng=np.random.default_rng(9))
    groups = sorted([sorted(rows) for rows in members])
    assert groups == [list(range(30)), list(range(30, 60))]
    # center = best-value member of each blob, verified by an independent argmax
    for rows, center in zip(members, best):
        rows = list(rows)
        assert center == rows[int(np.argmax(values[rows]))]


def test_cluster_identical_genotypes_fills_empty_clusters():
    genos = np.ones((6, 3))
    values = np.array([0.5, 0.1, 0.9, 0.3, 0.7, 0.2])
    members, best = cluster_population(genos, values, k=3, rng=np.random.default_rng(0))
    assert len(members) == 3 and len(best) == 3
    all_members = sorted(i for rows in members for i in rows)
    assert all_members == list(range(6))
    assert all(len(rows) >= 1 for rows in members)


def test_cluster_deterministic():
    rng = np.random.default_rng(13)
    genos = rng.normal(size=(20, 5))
    values = rng.uniform(size=20)
    a = cluster_population(genos, values, k=4, rng=np.random.default_rng(77))
    b = cluster_population(genos, values, k=4, rng=np.random.default_rng(77))
    assert [tuple(rows) for rows in a[0]] == [tuple(rows) for rows in b[0]]
    assert a[1].tolist() == b[1].tolist()


# ---------------------------------------------------------- base selection ---

def reference_base(clusters, genotypes, centers, params, rng):
    """A base from a list of Cluster records and a list of center rows, with
    the one- and two-cluster branches written out apart: the oracle of
    select_base."""
    u1 = rng.random()
    if u1 < params.one_cluster_prob or len(clusters) == 1:
        cluster_idx = int(rng.integers(len(clusters)))
        if rng.random() < params.use_center_prob:
            return centers[cluster_idx]
        members = clusters[cluster_idx].members
        return genotypes[members[int(rng.integers(len(members)))]]
    pair = rng.choice(len(clusters), size=2, replace=False)
    first, second = int(pair[0]), int(pair[1])
    if rng.random() < params.use_center_pair_prob:
        x1, x2 = centers[first], centers[second]
    else:
        m1 = clusters[first].members[int(rng.integers(len(clusters[first].members)))]
        m2 = clusters[second].members[int(rng.integers(len(clusters[second].members)))]
        x1, x2 = genotypes[m1], genotypes[m2]
    lam = rng.random()
    return lam * x1 + (1.0 - lam) * x2


PROBS = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def base_cases(draw):
    """A clustered population (k from 1 to 6), params whose probabilities
    include 0 and 1, and perhaps one center row replaced."""
    k = draw(st.integers(1, 6))
    q, n = draw(st.integers(k, 10)), draw(st.integers(1, 4))
    genotypes = draw(arrays(np.float64, (q, n), elements=st.floats(-3.0, 3.0)))
    values = draw(arrays(np.float64, q, elements=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0)))
    params = params_with(
        one_cluster_prob=draw(PROBS), use_center_prob=draw(PROBS), use_center_pair_prob=draw(PROBS)
    )
    replaced = draw(st.none() | st.tuples(st.integers(0, k - 1), arrays(np.float64, n, elements=st.floats(-3.0, 3.0))))
    return genotypes, values, k, params, replaced, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(case=base_cases())
def test_select_base_equals_the_two_branch_oracle(case):
    genotypes, values, k, params, replaced, seed = case
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    members, best = cluster_population(genotypes, values, k, rng)
    clusters = reference_clusters(genotypes, values, k, oracle_rng)
    centers = genotypes[best]
    oracle_centers = [genotypes[c.center] for c in clusters]
    if replaced is not None:
        centers[replaced[0]] = oracle_centers[replaced[0]] = replaced[1]
    for _ in range(8):
        base = select_base(members, genotypes, centers, params, rng)
        assert base.tobytes() == reference_base(clusters, genotypes, oracle_centers, params, oracle_rng).tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def clustered(genos, values, k, seed):
    """Members and center rows of genos, the two-cluster ones ordered by
    their first member."""
    members, best = cluster_population(genos, values, k=k, rng=np.random.default_rng(seed))
    order = sorted(range(k), key=lambda c: members[c][0])
    return [members[c] for c in order], genos[best[order]]


def test_select_base_one_cluster_center_branch():
    genos = np.array([[0.0, 0.0], [2.0, 4.0], [6.0, 8.0]])
    values = np.array([0.1, 0.9, 0.5])
    members, centers = clustered(genos, values, k=1, seed=0)
    p = params_with(one_cluster_prob=1.0, use_center_prob=1.0)
    rng = ScriptedRng(randoms=[0.3, 0.2], ints=[0])
    base = select_base(members, genos, centers, p, rng)
    assert np.array_equal(base, genos[1])  # best member of the only cluster


def test_select_base_one_cluster_member_branch():
    genos = np.array([[0.0, 0.0], [2.0, 4.0], [6.0, 8.0]])
    values = np.array([0.1, 0.9, 0.5])
    members, centers = clustered(genos, values, k=1, seed=0)
    p = params_with(one_cluster_prob=1.0, use_center_prob=0.0)
    rows = sorted(members[0])
    rng = ScriptedRng(randoms=[0.3, 0.7], ints=[0, 2])
    base = select_base(members, genos, centers, p, rng)
    assert np.array_equal(base, genos[rows[2]])


def test_select_base_two_cluster_center_blend():
    genos = np.array([[0.0, 0.0], [2.0, 4.0]])
    values = np.array([0.4, 0.6])
    members, centers = clustered(genos, values, k=2, seed=1)
    p = params_with(one_cluster_prob=0.0, use_center_pair_prob=1.0)
    rng = ScriptedRng(randoms=[0.9, 0.2, 0.5], choices=[(0, 1)])
    base = select_base(members, genos, centers, p, rng)
    assert np.allclose(base, [1.0, 2.0])  # midpoint of (0,0) and (2,4)


def test_select_base_two_cluster_member_blend():
    genos = np.array([[0.0, 0.0], [2.0, 4.0]])
    values = np.array([0.4, 0.6])
    members, centers = clustered(genos, values, k=2, seed=1)
    p = params_with(one_cluster_prob=0.0, use_center_pair_prob=0.0)
    # u1, u3, member picks within each cluster, lambda
    rng = ScriptedRng(randoms=[0.9, 0.7, 0.25], choices=[(0, 1)], ints=[0, 0])
    base = select_base(members, genos, centers, p, rng)
    expected = 0.25 * genos[0] + 0.75 * genos[1]
    assert np.allclose(base, expected)


def test_select_base_single_cluster_forces_one_cluster_branch():
    genos = np.array([[1.0, 1.0], [3.0, 3.0]])
    values = np.array([0.2, 0.8])
    members, centers = clustered(genos, values, k=1, seed=0)
    p = params_with(one_cluster_prob=0.0, use_center_prob=1.0)
    rng = ScriptedRng(randoms=[0.99, 0.1], ints=[0])
    base = select_base(members, genos, centers, p, rng)
    assert np.array_equal(base, genos[1])


def test_select_base_always_center_under_forcing_probs():
    rng = np.random.default_rng(21)
    genos = rng.normal(size=(15, 4))
    values = rng.uniform(size=15)
    members, centers = clustered(genos, values, k=3, seed=3)
    p = params_with(one_cluster_prob=1.0, use_center_prob=1.0)
    center_rows = {tuple(c) for c in centers}
    for _ in range(25):
        base = select_base(members, genos, centers, p, rng)
        assert tuple(base) in center_rows


# ----------------------------------------------------- candidate generation ---

def reference_candidate(base, ewma_state, ramp, params, s, z, lower, upper):
    """One slot's candidate, built on its own from the slot's two draws (step
    s, noise row z): the oracle of the batched step. Returns the candidate
    and the point it moved from (the base in plain mode, the updated running
    average otherwise)."""
    xi = s * ramp
    noise = params.noise_mean + params.noise_sigma * z
    if params.mode == "plain":
        point = base
        candidate = base + xi * noise
    else:
        point = params.smoothing * base + (1.0 - params.smoothing) * ewma_state
        candidate = point + params.noise_scale * xi * noise
    return np.minimum(np.maximum(candidate, lower), upper), point


def one_slot(p, base, state, s, z, nc, lower, upper):
    """generate_candidate on a one-slot batch: that slot's candidate and point."""
    cands, points = generate_candidate(
        np.array([base], dtype=float), np.array([state], dtype=float), np.array([annealed_step(nc, p, s)]),
        np.array([z], dtype=float), p, lower, upper,
    )
    return cands[0], points[0]


GENES = st.floats(-4.0, 4.0) | st.sampled_from([0.0, -0.0])


@st.composite
def candidate_batches(draw):
    """A (Q, L) batch of bases, averages and noise rows with Q steps, bounds
    that hold 0, one iteration's ramp and params of either mode."""
    q, n = draw(st.integers(1, 7)), draw(st.integers(1, 11))
    rows = arrays(np.float64, (q, n), elements=GENES)
    params = params_with(
        mode=draw(st.sampled_from(["plain", "ewma"])),
        smoothing=draw(st.floats(0.0, 1.0, exclude_min=True)),
        noise_scale=draw(st.floats(0.0, 3.0)),
        noise_mean=draw(st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0])),
        noise_sigma=draw(st.floats(0.0, 3.0)),
    )
    return dict(
        bases=draw(rows),
        ewma=draw(rows),
        s=draw(arrays(np.float64, q, elements=st.floats(0.0, 1.0) | st.just(0.0))),
        z=draw(rows),
        ramp=draw(st.sampled_from([0.0, 1e-300, 0.5, 1.0]) | st.floats(0.0, 1.0)),
        params=params,
        lower=draw(arrays(np.float64, n, elements=st.floats(-3.0, 0.0) | st.just(-0.0))),
        upper=draw(arrays(np.float64, n, elements=st.floats(0.0, 3.0) | st.just(-0.0))),
    )


def signed_zero_batch(mode, ramp):
    """Bases, averages and noise with -0.0 and +0.0 genes, and a zero step."""
    return dict(
        bases=np.array([[-0.0, 0.0, 1.5], [2.0, -0.0, -1.0]]),
        ewma=np.array([[0.5, -0.0, 0.0], [-0.0, -0.0, 3.0]]),
        s=np.array([0.0, 0.7]),
        z=np.array([[1.0, -0.0, 0.3], [0.0, -2.0, 1.0]]),
        ramp=ramp,
        params=params_with(mode=mode, smoothing=0.6, noise_scale=1.5),
        lower=np.full(3, -3.0),
        upper=np.full(3, 3.0),
    )


@settings(max_examples=200, deadline=None)
@given(batch=candidate_batches())
@example(batch=signed_zero_batch("plain", 0.0))
@example(batch=signed_zero_batch("ewma", 0.0))
@example(batch=signed_zero_batch("plain", 1e-300))
@example(batch=signed_zero_batch("ewma", 1e-300))
def test_batched_candidates_equal_the_per_slot_oracle_bit_for_bit(batch):
    b = batch
    cands, points = generate_candidate(
        b["bases"], b["ewma"], b["s"] * b["ramp"], b["z"], b["params"], b["lower"], b["upper"]
    )
    for i in range(len(b["bases"])):
        cand, point = reference_candidate(
            b["bases"][i], b["ewma"][i], b["ramp"], b["params"], b["s"][i], b["z"][i], b["lower"], b["upper"]
        )
        assert cands[i].tobytes() == cand.tobytes()
        assert points[i].tobytes() == point.tobytes()


def test_candidate_smoothing_one_zero_scale_returns_base():
    p = params_with(mode="ewma", smoothing=1.0, noise_scale=0.0, noise_sigma=1.0)
    base = np.array([0.5, -1.5, 2.0])
    cand, point = one_slot(
        p, base, state=[9.0, 9.0, 9.0], s=0.4, z=[1.0, -2.0, 0.5], nc=10,
        lower=np.full(3, -10.0), upper=np.full(3, 10.0),
    )
    assert np.array_equal(cand, base)
    assert np.array_equal(point, base)


def test_candidate_smoothing_halfway_updates_state():
    p = params_with(mode="ewma", smoothing=0.5)
    _, point = one_slot(
        p, base=np.full(3, 2.0), state=np.zeros(3), s=0.0, z=np.zeros(3), nc=0,
        lower=np.full(3, -10.0), upper=np.full(3, 10.0),
    )
    assert np.allclose(point, 1.0)


def test_candidate_plain_zero_noise_returns_base():
    p = params_with(mode="plain", noise_sigma=0.0, noise_mean=0.0)
    base = np.array([1.0, 2.0, 3.0])
    cand, point = one_slot(
        p, base, state=[9.0, 9.0, 9.0], s=0.77, z=[5.0, -5.0, 5.0], nc=3,
        lower=np.zeros(3), upper=np.full(3, 4.0),
    )
    assert np.array_equal(cand, base)
    assert np.array_equal(point, base)  # plain mode moves the base itself


def test_candidate_clamped_to_bounds():
    p = params_with(mode="plain", noise_sigma=100.0, max_iterations=10)
    lower, upper = np.zeros(4), np.ones(4)
    rng = np.random.default_rng(2)
    s, z = np.empty(50), np.empty((50, 4))
    for slot in range(50):  # each slot's draws in turn, as run takes them
        s[slot] = rng.random()
        rng.standard_normal(out=z[slot])
    bases = np.full((50, 4), 0.5)
    cands, _ = generate_candidate(bases, bases, s * anneal_ramp(0, p), z, p, lower, upper)
    assert np.all(cands >= lower)
    assert np.all(cands <= upper)


def test_candidate_modes_agree_when_degenerate():
    # smoothing 1 + unit noise scale makes the averaged mode reproduce the
    # plain update on the same draws
    base = np.array([0.3, -0.2, 1.1])
    lower, upper = np.full(3, -5.0), np.full(3, 5.0)
    rng = np.random.default_rng(123)
    s, z = rng.random(), rng.standard_normal(3)
    plain = params_with(mode="plain")
    averaged = params_with(mode="ewma", smoothing=1.0, noise_scale=1.0)
    c1, _ = one_slot(plain, base, base, s, z, nc=5, lower=lower, upper=upper)
    c2, _ = one_slot(averaged, base, base, s, z, nc=5, lower=lower, upper=upper)
    assert np.allclose(c1, c2, atol=1e-15)


def test_noise_rows_drawn_into_a_batch_are_the_per_slot_stream():
    # run draws each slot's noise row in place; the stream is the one that
    # per-slot standard_normal(L) calls give
    a, b = np.random.default_rng(8), np.random.default_rng(8)
    z = np.empty((5, 7))
    for slot in range(5):
        assert a.random() == b.random()
        a.standard_normal(out=z[slot])
        assert z[slot].tobytes() == b.standard_normal(7).tobytes()


# ------------------------------------------------------------------- run ---

def test_run_zero_iterations_returns_initial_best():
    p = params_with(population_size=10, cluster_count=2, max_iterations=0, seed=5)
    result = run(p, sphere_objective, np.full(3, -2.0), np.full(3, 2.0))
    assert len(result.trace.records) == 1
    assert result.evaluations == 10
    values = [ind.evaluation.value for ind in result.population]
    assert result.best.evaluation.value == max(values)


def test_run_builds_each_iteration_candidates_in_one_call(monkeypatch):
    shapes = []
    original = bso.generate_candidate

    def counting(bases, *args):
        shapes.append(bases.shape)
        return original(bases, *args)

    monkeypatch.setattr(bso, "generate_candidate", counting)
    p = params_with(population_size=6, cluster_count=2, max_iterations=9)
    result = run(p, sphere_objective, np.full(3, -2.0), np.full(3, 2.0))
    assert len(result.trace.records) == 1 + 9
    assert shapes == [(6, 3)] * 9


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
