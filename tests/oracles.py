"""Plain reference implementations of the search and of the rule kernel,
for the tests to compare the optimizers, the training objective, the
decoder and the class pick with.

Each oracle is written out step by step, sharing no code with the piece it
checks: k-means as cluster records, base selection with its two branches
apart, one slot's candidate on its own, the decoder rule by rule, one rule
table's class pick with np.argmax, the objective genotype by genotype, and
whole BSO and GA runs that breed, score and keep one slot at a time.
"""

from dataclasses import dataclass

import numpy as np

from rulestorm import bso
from rulestorm.bso import anneal_ramp
from rulestorm.dataset import majority_class
from rulestorm.fitness import evaluate
from rulestorm.ga import tournament_pick
from rulestorm.inference import Model, classify
from rulestorm.membership import fuzzify_dataset
from rulestorm.rules import AND, OR, RuleSetShape, decode, with_weights
from rulestorm.search import IMPROVEMENT_EPS, Evaluation


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


def decode_oracle(genes, shape):
    """Rule-by-rule decoder with both repairs, written without arrays."""
    w = shape.m + 2
    ants, consequents, connectives = [], [], []
    for i in range(shape.r):
        block = genes[i * w : (i + 1) * w]
        row = [min(max(int(np.rint(g)), 0), shape.p) for g in block[: shape.m]]
        if not any(row):
            row[i % shape.m] = 1
        ants.append(row)
        consequents.append(min(max(int(np.rint(block[shape.m])), 1), shape.c))
        connectives.append(AND if block[shape.m + 1] < 0.5 else OR)
    for missing in range(1, shape.c + 1):
        counts = [consequents.count(k) for k in range(1, shape.c + 1)]
        if counts[missing - 1] == 0:
            donor_class = counts.index(max(counts)) + 1
            consequents[consequents.index(donor_class)] = missing
    return ants, consequents, connectives


def predict_scores_oracle(scores, consequents, c, majority, sum_scores):
    """One rule table's (classes, winning scores) with np.argmax."""
    totals = scores
    if sum_scores:
        totals = np.zeros((c, scores.shape[1]))
        for k, row in zip(consequents, scores):
            totals[k - 1] += row
        preds = np.argmax(totals, axis=0) + 1
    else:
        preds = consequents[np.argmax(scores, axis=0)]
    dead = ~np.any(scores > 0.0, axis=0)
    return np.where(dead, majority, preds), np.where(dead, 0.0, totals.max(axis=0))


def reference_objective(ds, partitions, settings):
    """The training objective genotype by genotype: `fitness.evaluate`'s
    quality score, blended with the accuracy that `classify` gives, record
    by record, to the model of the genotype's rules at their exact weights."""
    ld = fuzzify_dataset(ds, partitions)
    shape = RuleSetShape(m=ds.m, p=settings.labels_per_attribute, c=ds.c, r=settings.rule_count)
    w = settings.accuracy_weight

    def objective(genotype):
        rule_set = decode(genotype, shape)
        quality = evaluate(rule_set, ld, settings.fitness_weights)
        if w == 0.0:
            return Evaluation(value=quality.fitness, breakdown=quality)
        model = Model(
            partitions, with_weights(rule_set, ld), ds.class_values, ds.attribute_names,
            majority_class(ds), {"sum_scores": settings.sum_scores},
        )
        accuracy = sum(classify(model, ds.x[k])[0] == ds.y[k] for k in range(ds.n)) / ds.n
        return Evaluation(value=(1.0 - w) * quality.fitness + w * accuracy, breakdown=quality)

    return objective


class ReferenceRun:
    """One search's members, evaluation count, stagnation count and trace,
    kept in lists and advanced one call at a time."""

    def __init__(self, objective, lower, upper, size, seed, window):
        self.objective, self.window = objective, window
        self.rng = np.random.default_rng(seed)
        self.genotypes = self.rng.uniform(lower, upper, size=(size, len(lower)))
        self.calls = 0
        self.evaluations = [self.score(g) for g in self.genotypes]
        self.best, self.stagnant, self.trace = max(self.values()), 0, []
        self.record(0)

    def score(self, genotype):
        self.calls += 1
        return self.objective(genotype)

    def values(self):
        return [e.value for e in self.evaluations]

    def record(self, iteration):
        values = self.values()
        best = self.evaluations[values.index(max(values))]
        g = best.breakdown
        self.trace.append((iteration, best.value, float(np.mean(values)), g.g1, g.g2, g.g3, self.calls))

    def stops(self, iteration):
        """Record the iteration; True once the best value has gained no more
        than IMPROVEMENT_EPS for `window` iterations in a row."""
        new_best = max(self.values())
        self.stagnant = 0 if new_best > self.best + IMPROVEMENT_EPS else self.stagnant + 1
        self.best = max(self.best, new_best)
        self.record(iteration)
        return self.stagnant >= self.window

    def outcome(self):
        """The trace as (iteration, best, mean, g1, g2, g3, evaluations)
        rows, the evaluation count and the first best genotype."""
        values = self.values()
        return self.trace, self.calls, self.genotypes[values.index(max(values))]


def reference_bso_run(params, objective, lower, upper):
    """bso.run slot by slot: each slot draws its base, step and noise row
    and builds its candidate alone; then each candidate is scored and kept
    when strictly better."""
    run = ReferenceRun(objective, lower, upper, params.population_size, params.seed, params.stagnation_window)
    rng, genotypes = run.rng, run.genotypes
    ewma = genotypes.copy()
    for nc in range(1, params.max_iterations + 1):
        clusters = reference_clusters(genotypes, np.array(run.values()), params.cluster_count, rng)
        centers = [genotypes[c.center].copy() for c in clusters]
        if rng.random() < params.replace_center_prob:
            centers[int(rng.integers(len(clusters)))] = rng.uniform(lower, upper)
        moves = []
        for slot in range(params.population_size):
            # a copy: the base may be a row of genotypes, which the slots replace below
            base = np.array(reference_base(clusters, genotypes, centers, params, rng))
            s = rng.random()
            z = rng.standard_normal(len(lower))
            moves.append(reference_candidate(base, ewma[slot], anneal_ramp(nc, params), params, s, z, lower, upper))
        for slot, (candidate, point) in enumerate(moves):
            evaluation = run.score(candidate)
            if evaluation.value > run.evaluations[slot].value:
                genotypes[slot], run.evaluations[slot], ewma[slot] = candidate, evaluation, point
        if run.stops(nc):
            break
    return run.outcome()


def reference_ga_run(params, objective, lower, upper):
    """ga.run_ga child by child: the first best member carries over, and
    each other child is bred from two tournament picks gene by gene, clamped
    and scored before the next is bred."""
    run = ReferenceRun(objective, lower, upper, params.population_size, params.seed, params.stagnation_window)
    rng, dims = run.rng, len(lower)
    for generation in range(1, params.generations + 1):
        values = run.values()
        elite = values.index(max(values))
        children, scored = [run.genotypes[elite].copy()], [run.evaluations[elite]]
        values = np.array(values)
        for _ in range(1, params.population_size):
            first = run.genotypes[tournament_pick(values, params.tournament_size, rng)]
            second = run.genotypes[tournament_pick(values, params.tournament_size, rng)]
            child = first.copy()
            if rng.random() < params.crossover_prob:
                coins = rng.random(dims)
                child = np.array([first[j] if coins[j] < 0.5 else second[j] for j in range(dims)])
            mutate = rng.random(dims)
            steps = rng.standard_normal(dims) * params.mutation_sigma
            for j in range(dims):
                if mutate[j] < params.mutation_prob:
                    child[j] += steps[j]
            child = np.minimum(np.maximum(child, lower), upper)
            children.append(child)
            scored.append(run.score(child))
        run.genotypes, run.evaluations = np.array(children), scored
        if run.stops(generation):
            break
    return run.outcome()
