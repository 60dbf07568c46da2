"""Plain reference implementations of the search, of the rule kernel and
of the data layer, for the tests to compare the optimizers, the training
objective, the quality score, the decoder, the class pick, the CSV loader
and the fuzzifier with.

Each oracle is written out step by step, sharing no code with the piece it
checks: k-means as cluster records, base selection with its two branches
apart, one slot's candidate on its own, one tournament at a time, the CSV
loader cell by cell, one record's label by argmax, the decoder rule by rule,
one rule table's class pick with np.argmax, the quality score rule by rule,
the objective genotype by genotype, and whole BSO and GA runs that breed,
score and keep one slot at a time. `encode`, the decoder's inverse, and
`antecedent_count` are helpers that only the tests use.
"""

import csv
from dataclasses import dataclass

import numpy as np

from rulestorm import bso
from rulestorm.bso import anneal_ramp
from rulestorm.dataset import Dataset, majority_class
from rulestorm.errors import ConfigError, DataError
from rulestorm.fitness import evaluate
from rulestorm.inference import Model, classify
from rulestorm.membership import FuzzyPartition, degree, fuzzify_dataset
from rulestorm.rules import AND, OR, RuleSetShape, decode, match_mask, rule_arrays, with_weights
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
    select_base's rows blended as run blends them."""
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


def reference_load_csv(path, label=None):
    """load_csv as it was before the numpy path: csv.reader, float() per cell.

    Kept here verbatim in behaviour, independent of the helpers that
    rulestorm.dataset shares between its two parse paths.
    """
    if not path.is_file():
        raise DataError(f"data file not found: {path}")
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: not a readable CSV file: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file")
    width = len(rows[0])
    if width < 2:
        raise DataError(f"{path}: need at least one attribute and a label column")

    def number(cell):
        try:
            return float(cell)
        except ValueError:
            return None

    if isinstance(label, str):
        if label not in rows[0]:
            raise ConfigError(f"label column {label!r} not in header {rows[0]}")
        label_idx = rows[0].index(label)
        header = rows[0]
    else:
        label_idx = width - 1 if label is None else label
        if not 0 <= label_idx < width:
            raise ConfigError(f"label column index {label_idx} out of range for {width} columns")
        header = rows[0] if number(rows[0][label_idx]) is None else None
    if header is not None:
        names = tuple(h for i, h in enumerate(header) if i != label_idx)
        body, first_line = rows[1:], 2
    else:
        names = tuple(f"a{j + 1}" for j in range(width - 1))
        body, first_line = rows, 1
    if not body:
        raise DataError(f"{path}: no data rows")

    x = np.empty((len(body), width - 1), dtype=float)
    raw_labels = np.empty(len(body), dtype=float)
    for i, row in enumerate(body):
        line = first_line + i
        if len(row) != width:
            raise DataError(f"{path}: row {line} has {len(row)} cells, expected {width}")
        col_out = 0
        for j, cell in enumerate(row):
            value = number(cell)
            if value is None:
                kind = "label" if j == label_idx else "attribute"
                raise DataError(
                    f"{path}: row {line}, column {j + 1} has non-numeric {kind} cell {cell!r}"
                )
            if j == label_idx:
                raw_labels[i] = value
            else:
                x[i, col_out] = value
                col_out += 1
    bad = ~(np.isfinite(x).all(axis=1) & np.isfinite(raw_labels))
    if bad.any():
        i = int(np.argmax(bad))
        cell = next(c for c in body[i] if not np.isfinite(float(c)))
        raise DataError(f"{path}: row {first_line + i} has non-finite cell {cell!r}")
    class_values = tuple(float(v) for v in np.unique(raw_labels))
    if len(class_values) < 2:
        raise DataError(f"{path}: need at least two distinct class labels, found {class_values}")
    remap = {v: k + 1 for k, v in enumerate(class_values)}
    y = np.array([remap[v] for v in raw_labels], dtype=int)
    return Dataset(x=x, y=y, attribute_names=names, class_values=class_values)


def fuzzify(partition: FuzzyPartition, x: float) -> int:
    """Label with the highest degree; ties go to the smaller label index."""
    degs = [degree(partition, k, x) for k in range(1, partition.p + 1)]
    return int(np.argmax(degs)) + 1


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


def encode(rs):
    """Inverse of decode on repaired rule sets. AND -> 0.0, OR -> 1.0."""
    ants, consequents, is_and, _ = rule_arrays(rs)
    return np.column_stack([ants, consequents, ~is_and]).astype(float).ravel()


def antecedent_count(rule):
    return sum(1 for a in rule.antecedents if a != 0)


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


def oracle_components(rs, ld):
    """Independent plain-Python computation of all three components."""
    r, m, n, c = rs.r, rs.m, ld.n, rs.c
    total_len = 0
    total_match = 0
    for rule in rs.rules:
        active = [(j, a) for j, a in enumerate(rule.antecedents) if a != 0]
        total_len += len(active)
        for i in range(n):
            if not active:
                hit = True
            elif rule.connective == "AND":
                hit = all(ld.labels[i][j] == a for j, a in active)
            else:
                hit = any(ld.labels[i][j] == a for j, a in active)
            if hit:
                total_match += 1
    g1 = 1.0 - total_len / (r * m)
    g2 = total_match / (r * n)
    counts = [0] * c
    for rule in rs.rules:
        counts[rule.consequent - 1] += 1
    v = sum((nj - r / c) ** 2 for nj in counts) / c
    g3 = max(0.0, 1.0 - v / r)
    return g1, g2, g3


def reference_breakdown(rs, ld, w):
    """The quality score rule by rule over `rules.match_mask`, sharing no
    code with `fitness.breakdown` or `rules.match_fractions`."""
    g1 = 1.0 - sum(antecedent_count(rule) for rule in rs.rules) / (rs.r * rs.m)
    g2 = sum(int(match_mask(rule, ld).sum()) for rule in rs.rules) / (rs.r * ld.n)
    counts = [sum(rule.consequent == k for rule in rs.rules) for k in range(1, rs.c + 1)]
    variance = sum((count - rs.r / rs.c) ** 2 for count in counts) / rs.c
    g3 = max(0.0, 1.0 - variance / rs.r)
    return g1, g2, g3, w.alpha * g1 + w.beta * g2 + w.gamma * g3


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


def reference_pick(values, size, rng):
    """One tournament: the best-valued of `size` members sampled with
    replacement, ties to the earliest sampled: the oracle of tournament_pick
    on that draw."""
    contenders = rng.integers(len(values), size=size)
    return int(contenders[int(np.argmax(values[contenders]))])


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
            first = run.genotypes[reference_pick(values, params.tournament_size, rng)]
            second = run.genotypes[reference_pick(values, params.tournament_size, rng)]
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
