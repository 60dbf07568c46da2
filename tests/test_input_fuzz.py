"""Fuzzing of the two input boundaries: model documents and CSV files.

Whatever a file holds, loading it either succeeds or raises DataError or
ConfigError (exit codes 3 and 2); no other exception may escape.
"""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulestorm.dataset import AttributeStats, load_csv
from rulestorm.errors import ConfigError, DataError
from rulestorm.inference import Model
from rulestorm.membership import build_partition
from rulestorm.model_io import load_model, model_from_document, model_to_document
from rulestorm.rules import AND, OR, Rule, RuleSet

INPUT_ERRORS = (DataError, ConfigError)


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    """One file that every example overwrites."""
    return tmp_path_factory.mktemp("fuzz") / "input"


def base_document() -> dict:
    partitions = tuple(
        build_partition(AttributeStats(minimum=lo, maximum=hi, constant=False), 3)
        for lo, hi in ((0.0, 10.0), (-3.0, 3.0))
    )
    rules = (
        Rule(antecedents=(1, 0), consequent=1, connective=AND, weight=0.5),
        Rule(antecedents=(3, 2), consequent=2, connective=OR, weight=0.25),
        Rule(antecedents=(0, 1), consequent=2, connective=AND, weight=1.0),
    )
    model = Model(
        partitions=partitions,
        rules=RuleSet(rules=rules, m=2, p=3, c=2),
        class_values=(0.0, 1.0),
        attribute_names=("a1", "a2"),
        majority_class=1,
        metadata={"seed": 0},
    )
    return json.loads(json.dumps(model_to_document(model)))


def json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 5)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3),
    json_containers,
    max_leaves=6,
)


def node_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from node_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from node_paths(value, prefix + (i,))


def mutate(document, path, value, delete: bool):
    if not path:
        return value
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return document


def assert_labels_match(model, document) -> None:
    """A loaded model's labels are exactly the document's integers."""
    assert model.rules.p == document["labels_per_attribute"]
    assert model.majority_class == document["classes"]["majority"]
    assert len(model.rules.rules) == len(document["rules"])
    for rule, entry in zip(model.rules.rules, document["rules"]):
        assert rule.antecedents == tuple(entry["antecedents"])
        assert rule.consequent == entry["class"]
        assert all(type(a) is int for a in rule.antecedents)
        assert type(rule.consequent) is int


def assert_partitions_valid(model) -> None:
    """Every loaded breakpoint is finite and ordered, every name a string."""
    for name, partition in zip(model.attribute_names, model.partitions):
        assert isinstance(name, str)
        assert np.isfinite([partition.minimum, partition.maximum]).all()
        assert partition.minimum <= partition.maximum
        for mf in partition.mfs:
            assert np.isfinite([mf.a, mf.b, mf.c]).all()
            assert mf.a <= mf.b <= mf.c


def test_base_document_loads():
    document = base_document()
    model = model_from_document(document)
    assert_labels_match(model, document)
    assert_partitions_valid(model)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_model_documents_load_or_raise_input_errors(data):
    document = base_document()
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(node_paths(document))))
        value = data.draw(JSON_VALUES)
        document = mutate(document, path, value, delete=bool(path) and data.draw(st.booleans()))
    try:
        model = model_from_document(document)
    except INPUT_ERRORS:
        return
    assert_labels_match(model, document)
    assert_partitions_valid(model)


NUMBER_SLOTS = (
    ("attributes", 0, "membership_functions", 1, 0),
    ("attributes", 0, "membership_functions", 1, 1),
    ("attributes", 1, "membership_functions", 2, 2),
    ("attributes", 1, "minimum"),
    ("attributes", 0, "maximum"),
)


@settings(max_examples=200, deadline=None)
@given(
    edits=st.lists(
        st.tuples(st.sampled_from(NUMBER_SLOTS), st.floats(allow_nan=True, allow_infinity=True)),
        min_size=1,
        max_size=3,
    )
)
def test_loaded_partitions_are_finite_and_ordered(edits):
    document = base_document()
    for slot, value in edits:
        document = mutate(document, slot, value, delete=False)
    try:
        model = model_from_document(document)
    except INPUT_ERRORS:
        return
    assert_partitions_valid(model)


INTEGER_SLOTS = (
    ("rules", 1, "antecedents", 0),
    ("rules", 2, "class"),
    ("classes", "majority"),
    ("labels_per_attribute",),
)


@settings(max_examples=200, deadline=None)
@given(
    slot=st.sampled_from(INTEGER_SLOTS),
    value=st.one_of(
        st.integers(-2, 5),
        st.floats(allow_nan=True),
        st.booleans(),
        st.text(max_size=2),
        st.none(),
    ),
)
def test_integer_fields_accept_only_json_integers(slot, value):
    document = mutate(base_document(), slot, value, delete=False)
    if type(value) is not int:
        with pytest.raises(DataError, match="must be an integer"):
            model_from_document(document)
        return
    try:
        model = model_from_document(document)
    except ConfigError:
        return  # an integer outside the model's range
    assert_labels_match(model, document)


@settings(max_examples=100, deadline=None)
@given(content=st.binary(max_size=64))
def test_arbitrary_model_file_bytes_load_or_raise_data_error(input_file, content):
    input_file.write_bytes(content)
    with pytest.raises(DataError):
        load_model(input_file)


CELLS = st.one_of(
    st.integers(-5, 5).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", " ", "nan", "inf", "-inf", "a1", "label", "1e999", " 2 ", "0x1", "1_0"]),
    st.text(max_size=4),
)


def check_loaded(ds) -> None:
    assert ds.x.shape == (ds.n, len(ds.attribute_names))
    assert np.isfinite(ds.x).all()
    assert ds.c >= 2
    assert set(np.unique(ds.y)) <= set(range(1, ds.c + 1))


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.lists(CELLS, min_size=0, max_size=4), max_size=6),
    label=st.one_of(st.none(), st.integers(-1, 4), st.sampled_from(["a1", "label", "x"])),
)
def test_csv_rows_load_or_raise_input_errors(input_file, rows, label):
    with open(input_file, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    try:
        ds = load_csv(input_file, label)
    except INPUT_ERRORS:
        return
    check_loaded(ds)


@settings(max_examples=200, deadline=None)
@given(content=st.binary(max_size=80), label=st.one_of(st.none(), st.integers(0, 2)))
def test_arbitrary_csv_bytes_load_or_raise_input_errors(input_file, content, label):
    input_file.write_bytes(content)
    try:
        ds = load_csv(input_file, label)
    except INPUT_ERRORS:
        return
    check_loaded(ds)
