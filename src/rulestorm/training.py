"""End-to-end model training: fit partitions, search rule space, weight rules.

The search maximizes a blend of the rule-set quality score and the training
accuracy of the weighted rule set:

    objective = (1 - accuracy_weight) * G + accuracy_weight * train_accuracy

The quality score G alone never looks at whether a rule's class agrees with
the records it matches, so consequents would be left to chance; blending in
training accuracy makes the search produce a working classifier while
accuracy_weight = 0 recovers the pure quality-score objective.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from . import bso, ga
from .dataset import Dataset, attribute_stats, majority_class
from .errors import ConfigError, check_fields
from .fitness import FitnessWeights, breakdown
from .inference import Model, evaluate_model, score_blocks
from .membership import FuzzyPartition, build_partition, fuzzify_dataset, rank_table
from .rules import RuleSetShape, decode, decode_arrays, genotype_bounds
from .rules import match_fractions, rule_weights, with_weights
from .search import Evaluation, RunResult

# perfbench/worker.py traces these names here; the objective no longer calls them.
from .fitness import balance_score  # noqa: F401
from .membership import degree_matrix  # noqa: F401
from .rules import match_mask  # noqa: F401

# The first is the default, and the only one that uses bso.smoothing.
OPTIMIZERS = ("bso-ewma", "bso-plain", "ga")

WEIGHT_DECIMALS = 4


class RuleObjective:
    """Objective over genotypes for one training split, built from the split,
    its fitted partitions and the run's `settings`, which also give the rule
    `shape`. Fuzzifies the split into `ld` and takes its majority class.

    Builds the padded attribute-major table of membership degrees once,
    coded by rank (`membership.rank_table`): a uint8, uint16 or uint32 table
    `ranks` and the sorted distinct degrees `values`, so the accuracy term
    folds small integers and looks the activations up per block. Match
    fractions fold the label indicators of the distinct label rows,
    `ld.indicators`. `evaluate_batch` scores a whole batch of candidates
    with one fold of all their rules per record block, so the cost per batch
    is a fixed number of vector operations. Those operations write into one
    `workspace` of block buffers that lives as long as the objective, so a
    block reuses memory that is already paged in rather than faulting in
    fresh pages for its temporaries.
    """

    def __init__(self, train: Dataset, partitions: tuple[FuzzyPartition, ...], settings: ExperimentSettings) -> None:
        self.ld = fuzzify_dataset(train, partitions)
        self.shape = settings.rule_shape(train)  # refuses fewer rules than classes
        self.majority = majority_class(train)
        self.settings = settings  # the blend's weights and the decision rule
        self.values, self.ranks = rank_table(partitions, train.x, self.shape.p)
        self.workspace = {}  # the accuracy kernel's block buffers, kept for every batch

    def _train_accuracy(self, ants, consequents, is_and, fractions) -> np.ndarray:
        """Training accuracy (Q,) of Q rule tables, counted in record blocks."""
        correct = np.zeros(len(ants), dtype=int)
        for block, preds, _ in score_blocks(
            lambda block: self.ranks[:, :, block], self.ld.n, ants, consequents, is_and,
            rule_weights(ants, fractions), self.shape.p, self.shape.c, self.majority, self.settings.sum_scores,
            self.values, self.workspace,
        ):
            correct += np.count_nonzero(preds == self.ld.classes[block], axis=1)
        return correct / self.ld.n

    def evaluate_batch(self, genotypes: np.ndarray) -> list[Evaluation]:
        """Evaluations of a (Q, L) batch of genotypes, in order."""
        ants, consequents, is_and = decode_arrays(genotypes, self.shape)
        q, r, m = ants.shape
        fractions = match_fractions(self.ld, ants.reshape(q * r, m), is_and.reshape(q * r)).reshape(q, r)
        quality = breakdown(ants, consequents, fractions, self.shape.c, self.settings.fitness_weights)
        w = self.settings.accuracy_weight  # at 0 the value is the quality score: 1.0 * G + 0.0 * 0.0
        accuracy = self._train_accuracy(ants, consequents, is_and, fractions).tolist() if w else [0.0] * q
        return [Evaluation(value=(1.0 - w) * b.fitness + w * acc, breakdown=b) for b, acc in zip(quality, accuracy)]

    def __call__(self, genotype: np.ndarray) -> Evaluation:
        return self.evaluate_batch(np.asarray(genotype, dtype=float)[None])[0]


@dataclass(frozen=True)
class TrainingResult:
    model: Model
    run: RunResult  # run.best.evaluation.breakdown: the winner's quality components
    train_accuracy: float  # the saved model's accuracy on its training split


def params_digest(payload: dict) -> str:
    """Short stable digest of a parameter mapping, for model metadata."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def check_optimizer(optimizer) -> None:
    if optimizer not in OPTIMIZERS:
        raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {optimizer!r}")


@dataclass(frozen=True)
class ExperimentSettings:
    """The settings of a training run, with their defaults and checks. The
    field names are train_model's keywords; the optimizer params carry the
    seed, and the optimizer name, never `bso_params.mode`, picks BSO's mode."""

    labels_per_attribute: int = 3
    rule_count: int = 10
    fitness_weights: FitnessWeights = field(default_factory=FitnessWeights)
    accuracy_weight: float = 1.0
    bso_params: bso.BsoParams = field(default_factory=bso.BsoParams)
    ga_params: ga.GaParams = field(default_factory=ga.GaParams)
    sum_scores: bool = False

    BOUNDS = {"labels_per_attribute": "at least 2", "rule_count": "at least 1", "accuracy_weight": "[0, 1]"}

    def __post_init__(self) -> None:
        check_fields(self)
        object.__setattr__(self, "accuracy_weight", float(self.accuracy_weight))
        for name, kind in (("fitness_weights", FitnessWeights), ("bso_params", bso.BsoParams), ("ga_params", ga.GaParams)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        if self.bso_params.mode != bso.BsoParams.mode:
            raise ConfigError("bso_params.mode is not a setting; set optimizer to bso-ewma or bso-plain")

    def rule_shape(self, ds: Dataset) -> RuleSetShape:
        """The shape of the rule tables these settings search on `ds`."""
        return RuleSetShape(m=ds.m, p=self.labels_per_attribute, c=ds.c, r=self.rule_count)


def train_model(train: Dataset, *, optimizer: str = OPTIMIZERS[0], **settings) -> TrainingResult:
    """Fit partitions on the training split, search for rules, weight them.
    The keywords are the ExperimentSettings fields.

    Deterministic given the optimizer parameters (which carry the seed).
    """
    check_optimizer(optimizer)
    s = ExperimentSettings(**settings)
    partitions = tuple(build_partition(stats, s.labels_per_attribute) for stats in attribute_stats(train))
    objective = RuleObjective(train, partitions, s)
    ld, shape, majority = objective.ld, objective.shape, objective.majority
    lower, upper = genotype_bounds(shape)

    if optimizer == "ga":
        section, params = "ga", s.ga_params
        run_result = ga.run_ga(params, objective, lower, upper)
    else:
        section, params = "bso", replace(s.bso_params, mode=optimizer.removeprefix("bso-"))
        run_result = bso.run(params, objective, lower, upper)

    del objective  # frees its rank table before the model is scored
    best_rules = decode(run_result.best.genotype, shape)
    weighted = with_weights(best_rules, ld, decimals=WEIGHT_DECIMALS)

    # every setting but the optimizer records, which stay sections of the digest
    recorded = {f.name: getattr(s, f.name) for f in fields(s) if f.name not in ("bso_params", "ga_params")}
    recorded["fitness_weights"] = list(astuple(s.fitness_weights))
    metadata = {
        "optimizer": optimizer,
        "seed": params.seed,
        **recorded,
        "train_records": train.n,
        "params_digest": params_digest({section: params.__dict__, **recorded}),
    }
    model = Model(
        partitions=partitions,
        rules=weighted,
        class_values=train.class_values,
        attribute_names=train.attribute_names,
        majority_class=majority,
        metadata=metadata,
    )
    return TrainingResult(
        model=model,
        run=run_result,
        train_accuracy=evaluate_model(model, train).accuracy,
    )
