"""Model persistence: a versioned, human-inspectable JSON document.

The file carries the label coding, each attribute's membership-function
breakpoints, the rule table with the weights the model holds, and the
training metadata, sum_scores included. Serialization is canonical (sorted
keys, fixed indentation), so identical models produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ConfigError, DataError
from .inference import Model
from .membership import FuzzyPartition, TriangularMF
from .rules import AND, OR, Rule, RuleSet

FORMAT_TAG = "rulestorm-model/1"


def model_to_document(model: Model) -> dict:
    return {
        "format": FORMAT_TAG,
        "attributes": [
            {
                "name": name,
                "minimum": part.minimum,
                "maximum": part.maximum,
                "degenerate": part.degenerate,
                "membership_functions": [[mf.a, mf.b, mf.c] for mf in part.mfs],
            }
            for name, part in zip(model.attribute_names, model.partitions)
        ],
        "labels_per_attribute": model.rules.p,
        "classes": {
            "values": list(model.class_values),
            "majority": model.majority_class,
        },
        "rules": [
            {
                "antecedents": list(rule.antecedents),
                "class": rule.consequent,
                "connective": rule.connective,
                "weight": rule.weight,
            }
            for rule in model.rules.rules
        ],
        "metadata": dict(model.metadata),
    }


def save_model(model: Model, path: str | Path) -> None:
    document = model_to_document(model)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require(document, key: str, context: str):
    if not isinstance(document, dict):
        raise DataError(f"model file: {context.strip(' .') or 'document'} must be an object")
    if key not in document:
        raise DataError(f"model file is missing {context}{key!r}")
    return document[key]


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise DataError(f"model file: {what} must be a list, got {value!r}")
    return value


def _integer(value, what: str) -> int:
    # bool is an int subclass, but true/false is not a label
    if type(value) is not int:
        raise DataError(f"model file: {what} must be an integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    if type(value) not in (int, float):
        raise DataError(f"model file: {what} must be a number, got {value!r}")
    return float(value)


def _partition(entry) -> FuzzyPartition:
    mfs = []
    for mf in _list(_require(entry, "membership_functions", "attribute "), "membership_functions"):
        if not isinstance(mf, list) or len(mf) != 3:
            raise DataError(f"model file: a membership function must be [a, b, c], got {mf!r}")
        a, b, c = (_number(v, "a breakpoint") for v in mf)
        mfs.append(TriangularMF(a=a, b=b, c=c))
    degenerate = entry.get("degenerate", False)
    if not isinstance(degenerate, bool):
        raise DataError(f"model file: degenerate must be true or false, got {degenerate!r}")
    return FuzzyPartition(
        mfs=tuple(mfs),
        minimum=_number(_require(entry, "minimum", "attribute "), "minimum"),
        maximum=_number(_require(entry, "maximum", "attribute "), "maximum"),
        degenerate=degenerate,
    )


def _rule(entry) -> Rule:
    connective = _require(entry, "connective", "rule ")
    if connective not in (AND, OR):
        raise DataError(f"rule connective must be AND or OR, got {connective!r}")
    antecedents = _list(_require(entry, "antecedents", "rule "), "antecedents")
    return Rule(
        antecedents=tuple(_integer(a, "an antecedent") for a in antecedents),
        consequent=_integer(_require(entry, "class", "rule "), "a rule class"),
        connective=connective,
        weight=_number(_require(entry, "weight", "rule "), "a rule weight"),
    )


def model_from_document(document: dict) -> Model:
    """The model a document describes; DataError or ConfigError if it is not
    a well-typed, consistent model document."""
    tag = _require(document, "format", "")
    if tag != FORMAT_TAG:
        raise DataError(
            f"unsupported model format {tag!r}; this build reads {FORMAT_TAG!r}"
        )
    attributes = _list(_require(document, "attributes", ""), "attributes")
    names = tuple(_require(entry, "name", "attribute ") for entry in attributes)
    partitions = tuple(_partition(entry) for entry in attributes)
    classes = _require(document, "classes", "")
    class_values = tuple(
        _number(v, "a class value") for v in _list(_require(classes, "values", "classes."), "classes.values")
    )
    p = _integer(_require(document, "labels_per_attribute", ""), "labels_per_attribute")
    rules = tuple(_rule(entry) for entry in _list(_require(document, "rules", ""), "rules"))
    metadata = document.get("metadata", {})
    if not isinstance(metadata, dict):
        raise DataError(f"model file: metadata must be an object, got {metadata!r}")
    if not isinstance(metadata.get("sum_scores", False), bool):
        raise DataError(f"model file: metadata.sum_scores must be true or false, got {metadata['sum_scores']!r}")
    return Model(
        partitions=partitions,
        rules=RuleSet(rules=rules, m=len(partitions), p=p, c=len(class_values)),
        class_values=class_values,
        attribute_names=names,
        majority_class=_integer(_require(classes, "majority", "classes."), "classes.majority"),
        metadata=metadata,
    )


def load_model(path: str | Path) -> Model:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"model file not found: {path}")
    try:
        with open(path) as fh:
            document = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise DataError("model file must contain a JSON object")
    try:
        return model_from_document(document)
    except ConfigError as exc:
        raise DataError(f"invalid model file: {exc}") from exc
