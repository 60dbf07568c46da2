"""Model persistence: a versioned, human-inspectable JSON document.

The file carries the label coding, each attribute's membership-function
breakpoints, the rule table with the weights the model holds, and the
training metadata, sum_scores included. Serialization is canonical (sorted
keys, fixed indentation), so identical models produce byte-identical files.

Loading checks only the document's shape (format tag, objects, lists, keys,
[a, b, c] triples) and maps its values as they stand onto `Model` and
`FuzzyPartition`, which check them; a JSON integer in a float slot loads as a
float. Any refusal is a DataError.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ConfigError, DataError, is_number
from .inference import Model
from .membership import FuzzyPartition, TriangularMF
from .rules import Rule, RuleSet

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
    """Write the model's document. The text is built before the file is
    opened, so a model that json cannot write leaves the file as it was."""
    text = json.dumps(model_to_document(model), indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


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


def _float(value):
    # a JSON integer in a float slot loads as a float; the model checks the rest
    return float(value) if type(value) is int and is_number(value) else value


def _partition(entry) -> FuzzyPartition:
    mfs = _list(_require(entry, "membership_functions", "attribute "), "membership_functions")
    for mf in mfs:
        if not isinstance(mf, list) or len(mf) != 3:
            raise DataError(f"model file: a membership function must be [a, b, c], got {mf!r}")
    return FuzzyPartition(
        mfs=tuple(TriangularMF(*map(_float, mf)) for mf in mfs),
        minimum=_float(_require(entry, "minimum", "attribute ")),
        maximum=_float(_require(entry, "maximum", "attribute ")),
        degenerate=entry.get("degenerate", False),
    )


def _rule(entry) -> Rule:
    return Rule(
        antecedents=tuple(_list(_require(entry, "antecedents", "rule "), "antecedents")),
        consequent=_require(entry, "class", "rule "),
        connective=_require(entry, "connective", "rule "),
        weight=_float(_require(entry, "weight", "rule ")),
    )


def model_from_document(document: dict) -> Model:
    """The model a document describes. DataError if the document is not
    shaped as a model document, or if `Model` refuses a value it holds."""
    tag = _require(document, "format", "")
    if tag != FORMAT_TAG:
        raise DataError(f"unsupported model format {tag!r}; this build reads {FORMAT_TAG!r}")
    attributes = _list(_require(document, "attributes", ""), "attributes")
    classes = _require(document, "classes", "")
    class_values = tuple(map(_float, _list(_require(classes, "values", "classes."), "classes.values")))
    metadata = document.get("metadata", {})
    if not isinstance(metadata, dict):
        raise DataError(f"model file: metadata must be an object, got {metadata!r}")
    try:
        partitions = tuple(map(_partition, attributes))
        rules = tuple(map(_rule, _list(_require(document, "rules", ""), "rules")))
        p = _require(document, "labels_per_attribute", "")
        return Model(
            partitions=partitions,
            rules=RuleSet(rules=rules, m=len(partitions), p=p, c=len(class_values)),
            class_values=class_values,
            attribute_names=tuple(_require(entry, "name", "attribute ") for entry in attributes),
            majority_class=_require(classes, "majority", "classes."),
            metadata=metadata,
        )
    except ConfigError as exc:
        raise DataError(f"invalid model file: {exc}") from exc


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
    return model_from_document(document)
