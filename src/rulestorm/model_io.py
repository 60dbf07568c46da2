"""Model persistence: a versioned, human-inspectable JSON document.

The file carries the label coding, each attribute's membership-function
breakpoints, the rule table with 4-decimal weights, and the training
metadata. Serialization is canonical (sorted keys, fixed indentation), so
identical models produce byte-identical files.
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
                "weight": round(rule.weight, 4),
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


def _require(document: dict, key: str, context: str):
    if key not in document:
        raise DataError(f"model file is missing {context}{key!r}")
    return document[key]


def model_from_document(document: dict) -> Model:
    tag = _require(document, "format", "")
    if tag != FORMAT_TAG:
        raise DataError(
            f"unsupported model format {tag!r}; this build reads {FORMAT_TAG!r}"
        )
    attributes = _require(document, "attributes", "")
    partitions = []
    names = []
    for entry in attributes:
        names.append(_require(entry, "name", "attribute "))
        mfs = tuple(
            TriangularMF(a=float(a), b=float(b), c=float(c))
            for a, b, c in _require(entry, "membership_functions", "attribute ")
        )
        partitions.append(
            FuzzyPartition(
                mfs=mfs,
                minimum=float(_require(entry, "minimum", "attribute ")),
                maximum=float(_require(entry, "maximum", "attribute ")),
                degenerate=bool(entry.get("degenerate", False)),
            )
        )
    classes = _require(document, "classes", "")
    class_values = tuple(float(v) for v in _require(classes, "values", "classes."))
    p = int(_require(document, "labels_per_attribute", ""))
    rules = []
    for entry in _require(document, "rules", ""):
        connective = _require(entry, "connective", "rule ")
        if connective not in (AND, OR):
            raise DataError(f"rule connective must be AND or OR, got {connective!r}")
        rules.append(
            Rule(
                antecedents=tuple(int(a) for a in _require(entry, "antecedents", "rule ")),
                consequent=int(_require(entry, "class", "rule ")),
                connective=connective,
                weight=float(_require(entry, "weight", "rule ")),
            )
        )
    rule_set = RuleSet(
        rules=tuple(rules), m=len(partitions), p=p, c=len(class_values)
    )
    return Model(
        partitions=tuple(partitions),
        rules=rule_set,
        class_values=class_values,
        attribute_names=tuple(names),
        majority_class=int(_require(classes, "majority", "classes.")),
        metadata=document.get("metadata", {}),
    )


def load_model(path: str | Path) -> Model:
    path = Path(path)
    if not path.exists():
        raise DataError(f"model file not found: {path}")
    try:
        with open(path) as fh:
            document = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise DataError("model file must contain a JSON object")
    try:
        return model_from_document(document)
    except ConfigError as exc:
        raise DataError(f"invalid model file: {exc}") from exc
