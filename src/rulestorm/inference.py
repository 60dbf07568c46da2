"""Classification with a trained model and the standard binary metrics.

A record is scored by every rule (rule weight times antecedent activation);
the highest-scoring rule assigns the class. Activations use min for AND and
max for OR over the membership degrees of the non-don't-care antecedents.
`activation` and `classify` do this for one record and are the reference
that `predict_dataset` is tested against. `predict_dataset` and the training
objective's accuracy share `score_blocks`. Its record blocks hold at most
BLOCK_BYTES // (8 · max(Q·r, m·(p + 2))) records, so that a block's degree
table and its (Q·r, records) fold both stay within `rules.BLOCK_BYTES`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DataError, as_python, is_integer, is_number
from .membership import FuzzyPartition, degree, degree_table
from .rules import AND, OR, Rule, RuleSet, fold_rules, record_blocks, rule_arrays, workspace_array

# perfbench/worker.py traces this name here; predict_dataset no longer calls it.
from .membership import degree_matrix  # noqa: F401


@dataclass(frozen=True)
class Model:
    """Everything needed to classify: fitted partitions, weighted rules, the
    label coding, and enough metadata to reproduce training. ConfigError
    unless it holds m partitions and string names, an integer p
    (`errors.is_integer`), c distinct finite class values (`errors.is_number`),
    a majority class in 1..c, and rules with m integer antecedents in 0..p,
    an integer class in 1..c, connective AND or OR and a finite weight in
    [0, 1]; `metadata["sum_scores"]`, when present, is True or False, and
    json can write the metadata, whose keys at every depth are strings. A
    numpy scalar among those numbers or among the metadata's values is
    stored as its Python number (`errors.as_python`), so that
    `model_io.save_model` can write it."""

    partitions: tuple[FuzzyPartition, ...]
    rules: RuleSet
    class_values: tuple[float, ...]   # original label per internal class 1..c
    attribute_names: tuple[str, ...]
    majority_class: int               # internal class predicted at zero score
    metadata: Mapping[str, object]

    def __post_init__(self) -> None:
        m, p, c = self.rules.m, self.rules.p, self.rules.c
        if len(self.partitions) != m:
            raise ConfigError(f"{len(self.partitions)} partitions for {m} attributes")
        if not is_integer(p):
            raise ConfigError(f"labels_per_attribute must be an integer, got {p!r}")
        for part in self.partitions:
            if part.p != p:
                raise ConfigError(f"partition has {part.p} labels but rules use {p}")
        if len(self.class_values) != c:
            raise ConfigError(f"{len(self.class_values)} class values for {c} classes")
        if not all(map(is_number, self.class_values)) or len(set(self.class_values)) != c:
            raise ConfigError(f"class values {self.class_values}: need distinct finite numbers")
        if len(self.attribute_names) != m or not all(isinstance(n, str) for n in self.attribute_names):
            raise ConfigError(f"need {m} attribute names, all strings, got {self.attribute_names}")
        if not is_integer(self.majority_class) or not 1 <= self.majority_class <= c:
            raise ConfigError(f"majority class must be an integer in 1..{c}, got {self.majority_class!r}")
        if not self.rules.rules:
            raise ConfigError("a model needs at least one rule")
        for i, rule in enumerate(self.rules.rules, start=1):
            if not all(map(is_integer, rule.antecedents)):
                raise ConfigError(f"rule {i} antecedents {rule.antecedents}: each antecedent must be an integer")
            if len(rule.antecedents) != m or not all(0 <= a <= p for a in rule.antecedents):
                raise ConfigError(f"rule {i} antecedents {rule.antecedents}: need {m} labels in 0..{p}")
            if not is_integer(rule.consequent):
                raise ConfigError(f"rule {i} class must be an integer, got {rule.consequent!r}")
            if not 1 <= rule.consequent <= c:
                raise ConfigError(f"rule {i} class {rule.consequent} outside 1..{c}")
            if rule.connective not in (AND, OR):
                raise ConfigError(f"rule {i} connective must be AND or OR, got {rule.connective!r}")
            if not (is_number(rule.weight) and 0.0 <= rule.weight <= 1.0):
                raise ConfigError(f"rule {i} weight {rule.weight!r} outside [0, 1]")
        if not isinstance(self.metadata.get("sum_scores", False), bool):
            raise ConfigError(f"metadata.sum_scores must be true or false, got {self.metadata['sum_scores']!r}")
        metadata = {key: as_python(value) for key, value in self.metadata.items()}
        try:
            json.dumps(metadata, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"metadata must hold only what json can write: {exc}") from None
        if not _string_keys(metadata):  # json would write a key as a string: the model would load back unequal
            raise ConfigError("metadata keys must be strings, at every depth")
        object.__setattr__(self, "metadata", metadata)
        rules = tuple(
            Rule(tuple(map(as_python, rule.antecedents)), as_python(rule.consequent), rule.connective, as_python(rule.weight))
            for rule in self.rules.rules
        )
        object.__setattr__(self, "rules", RuleSet(rules, as_python(m), as_python(p), as_python(c)))
        object.__setattr__(self, "class_values", tuple(map(as_python, self.class_values)))
        object.__setattr__(self, "majority_class", as_python(self.majority_class))


def _string_keys(value) -> bool:
    """Whether every dict in a json-writable value, at any depth, has only string keys."""
    if isinstance(value, dict):
        return all(isinstance(key, str) and _string_keys(item) for key, item in value.items())
    return not isinstance(value, (list, tuple)) or all(map(_string_keys, value))


def activation(rule: Rule, partitions: tuple[FuzzyPartition, ...], x: np.ndarray) -> float:
    """Combined membership degree of a record in the rule's antecedent.

    AND takes the minimum over active antecedents, OR the maximum; a rule
    with no active antecedents activates fully.
    """
    degrees = [
        degree(partitions[j], label, float(x[j]))
        for j, label in enumerate(rule.antecedents)
        if label != 0
    ]
    if not degrees:
        return 1.0
    return min(degrees) if rule.connective == AND else max(degrees)


def classify(model: Model, x: np.ndarray) -> tuple[int, float]:
    """Predict one record: (internal class, winning score), by the model's
    decision rule. The single best rule wins, ties to the lower rule index,
    unless the model's metadata sets sum_scores: then per-class totals
    compete, ties to the smaller class index. All-zero scores fall back to
    the majority class at score 0.
    """
    scores = np.array(
        [
            rule.weight * activation(rule, model.partitions, x)
            for rule in model.rules.rules
        ]
    )
    if not np.any(scores > 0.0):
        return model.majority_class, 0.0
    if model.metadata.get("sum_scores", False):
        class_totals = np.zeros(model.rules.c)
        for rule, score in zip(model.rules.rules, scores):
            class_totals[rule.consequent - 1] += score
        winner = int(np.argmax(class_totals))
        return winner + 1, float(class_totals[winner])
    winner = int(np.argmax(scores))
    return model.rules.rules[winner].consequent, float(scores[winner])


def predict_scores(scores: np.ndarray, consequents: np.ndarray, c: int, majority: int, sum_scores: bool) -> tuple[np.ndarray, np.ndarray]:
    """(classes, winning scores), each (Q, n), from non-negative rule scores
    (Q, r, n) of Q tables with consequents (Q, r), as classify picks them."""
    if sum_scores:
        totals = np.zeros((len(scores), c, scores.shape[2]))
        tables = np.arange(len(scores))
        for i in range(scores.shape[1]):  # rules add in rule order
            totals[tables, consequents[:, i] - 1] += scores[:, i]
        scores, consequents = totals, np.broadcast_to(np.arange(1, c + 1), (len(scores), c))
    # a running strict-> max keeps the first of equal maxima, as np.argmax does
    best = scores[:, 0].copy()
    preds = np.repeat(consequents[:, :1], scores.shape[2], axis=1)
    for i in range(1, scores.shape[1]):
        np.copyto(preds, consequents[:, i, None], where=scores[:, i] > best)
        np.maximum(best, scores[:, i], out=best)
    preds[best == 0.0] = majority  # no score above zero
    return preds, best


def score_blocks(table_of, n, ants, consequents, is_and, weights, p, c, majority, sum_scores, values=None, workspace=None):
    """Yield (block, classes (Q, b), winning scores (Q, b)) per record block
    for Q weighted rule tables: antecedents (Q, r, m), the rest (Q, r).
    `table_of(block)` gives the block's (m, p + 2, b) degree table or, with
    `values`, its rank table (`membership.rank_table`): the folded ranks are
    cast to np.intp and looked up in `values`, which gives the bits that
    folding the degrees gives. The fold, the cast and the lookup write into
    `workspace` (`rules.workspace_array`; a fresh one when None), which a
    caller keeps across calls so that no block allocates and page-faults its
    temporaries anew; what is yielded is never part of it."""
    workspace = {} if workspace is None else workspace
    q, r, m = ants.shape
    ants, is_and = ants.reshape(q * r, m), is_and.reshape(q * r)
    for block in record_blocks(n, max(q * r, m * (p + 2))):
        scores = fold_rules(table_of(block), ants, is_and, workspace)
        if values is not None:
            # take with intp indices is the fast path; ranks index values, so "clip" never clips
            idx = workspace_array(workspace, "idx", scores.shape, np.intp)
            np.copyto(idx, scores)
            scores = values.take(idx, out=workspace_array(workspace, "scores", idx.shape, values.dtype), mode="clip")
        scores = scores.reshape(q, r, scores.shape[1])  # q may be 0: a GA of one breeds no child
        scores *= weights[..., None]
        preds, best = predict_scores(scores, consequents, c, majority, sum_scores)
        yield block, preds, best


def predict_dataset(model: Model, ds: Dataset, sum_scores: bool | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized classify over all records: (classes, scores); `sum_scores` overrides the model's rule."""
    sum_scores = model.metadata.get("sum_scores", False) if sum_scores is None else sum_scores
    rs = model.rules
    if ds.m != rs.m:
        raise DataError(f"attribute count mismatch: model expects {rs.m} attributes, data has {ds.m}")
    preds, best = np.empty(ds.n, dtype=int), np.empty(ds.n)
    for block, block_preds, block_best in score_blocks(
        lambda block: degree_table(model.partitions, ds.x[block], rs.p), ds.n,
        *(a[None] for a in rule_arrays(rs)), rs.p, rs.c, model.majority_class, sum_scores,
    ):
        preds[block], best[block] = block_preds[0], block_best[0]
    return preds, best


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ConfigError("confusion counts must be non-negative")


def sensitivity(counts: ConfusionCounts) -> float | None:
    """True-positive rate; None when there are no actual positives."""
    denom = counts.tp + counts.fn
    return None if denom == 0 else counts.tp / denom


def specificity(counts: ConfusionCounts) -> float | None:
    """True-negative rate; None when there are no actual negatives."""
    denom = counts.tn + counts.fp
    return None if denom == 0 else counts.tn / denom


@dataclass(frozen=True)
class EvaluationReport:
    counts: ConfusionCounts | None   # None for non-binary models
    sensitivity: float | None
    specificity: float | None
    accuracy: float
    n: int


def binary_counts(model: Model, ds: Dataset) -> ConfusionCounts:
    """Confusion counts of a binary model, as `report_from_predictions` counts them."""
    if model.rules.c != 2:
        raise ConfigError(
            f"sensitivity/specificity need a binary model, got {model.rules.c} classes"
        )
    return evaluate_model(model, ds).counts


def evaluate_model(model: Model, ds: Dataset) -> EvaluationReport:
    """Accuracy for any class count; confusion-based metrics when binary."""
    preds, _ = predict_dataset(model, ds)
    return report_from_predictions(model, ds, preds)


def report_from_predictions(model: Model, ds: Dataset, preds: np.ndarray) -> EvaluationReport:
    """The evaluation report for predictions that `predict_dataset` made.

    Predictions and true labels are compared in the original label coding,
    so a model evaluates correctly on any split regardless of which classes
    the split happens to contain. A binary model's positive class is its
    largest class value.
    """
    pred_orig = np.asarray(model.class_values, dtype=float)[preds - 1]
    true_orig = np.asarray(ds.class_values, dtype=float)[ds.y - 1]
    counts = None
    if model.rules.c == 2:
        positive = max(model.class_values)
        pred_pos, true_pos = pred_orig == positive, true_orig == positive
        counts = ConfusionCounts(
            tp=int(np.sum(pred_pos & true_pos)),
            fp=int(np.sum(pred_pos & ~true_pos)),
            tn=int(np.sum(~pred_pos & ~true_pos)),
            fn=int(np.sum(~pred_pos & true_pos)),
        )
    return EvaluationReport(
        counts=counts,
        sensitivity=None if counts is None else sensitivity(counts),
        specificity=None if counts is None else specificity(counts),
        accuracy=float(np.mean(pred_orig == true_orig)),
        n=ds.n,
    )
