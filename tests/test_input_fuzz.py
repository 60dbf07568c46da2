"""Fuzzing of the two input boundaries: model documents and CSV files.

Whatever a file holds, loading it either succeeds or raises an input error:
DataError (exit code 3) for a model document, DataError or ConfigError (exit
codes 3 and 2) for a CSV file; no other exception may escape. A model built
in code is refused exactly where the same values in a document are. load_csv
must also give exactly what the row-by-row loader gave, whichever of its two
parse paths a file takes.
"""

import csv
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_load_csv

from rulestorm import dataset
from rulestorm.dataset import AttributeStats, load_csv
from rulestorm.errors import ConfigError, DataError
from rulestorm.inference import Model
from rulestorm.membership import FuzzyPartition, TriangularMF, build_partition
from rulestorm.model_io import load_model, model_from_document, model_to_document
from rulestorm.rules import AND, OR, Rule, RuleSet

INPUT_ERRORS = (DataError, ConfigError)


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    """One file that every example overwrites."""
    return tmp_path_factory.mktemp("fuzz") / "input"


def base_document() -> dict:
    partitions = tuple(
        build_partition(AttributeStats(minimum=lo, maximum=hi), 3)
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
    except DataError:
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
    except DataError:
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
    except DataError:
        return  # an integer outside the model's range
    assert_labels_match(model, document)


OTHER_SLOTS = (
    ("attributes", 1, "name"),
    ("attributes", 0, "degenerate"),
    ("classes", "values", 0),
    ("classes", "values", 1),
    ("rules", 0, "connective"),
    ("rules", 1, "weight"),
    ("metadata", "sum_scores"),
)


def model_in_code(document) -> Model:
    """The model that a well-shaped document describes, built from its
    Python values as they stand, without model_io."""
    attributes, classes = document["attributes"], document["classes"]
    partitions = tuple(
        FuzzyPartition(
            mfs=tuple(TriangularMF(*mf) for mf in entry["membership_functions"]),
            minimum=entry["minimum"],
            maximum=entry["maximum"],
            degenerate=entry["degenerate"],
        )
        for entry in attributes
    )
    rules = tuple(Rule(tuple(e["antecedents"]), e["class"], e["connective"], e["weight"]) for e in document["rules"])
    return Model(
        partitions=partitions,
        rules=RuleSet(rules=rules, m=len(attributes), p=document["labels_per_attribute"], c=len(classes["values"])),
        class_values=tuple(classes["values"]),
        attribute_names=tuple(entry["name"] for entry in attributes),
        majority_class=classes["majority"],
        metadata=document["metadata"],
    )


@settings(max_examples=300, deadline=None)
@given(
    edits=st.lists(
        st.tuples(st.sampled_from(NUMBER_SLOTS + INTEGER_SLOTS + OTHER_SLOTS), JSON_VALUES),
        min_size=1,
        max_size=3,
    )
)
def test_a_model_built_in_code_is_refused_exactly_where_a_loaded_one_is(edits):
    document = base_document()
    for slot, value in edits:
        document = mutate(document, slot, value, delete=False)
    try:
        loaded = model_from_document(document)
    except DataError:
        with pytest.raises(ConfigError):
            model_in_code(document)
        return
    assert model_in_code(document) == loaded


def test_json_integers_in_float_slots_load_as_floats():
    document = base_document()
    for entry in document["attributes"]:
        entry["membership_functions"] = [[int(v) for v in mf] for mf in entry["membership_functions"]]
        entry["minimum"], entry["maximum"] = int(entry["minimum"]), int(entry["maximum"])
    document["classes"]["values"] = [0, 1]
    document["rules"][2]["weight"] = 1
    model = model_from_document(document)
    values = [v for part in model.partitions for mf in part.mfs for v in (mf.a, mf.b, mf.c)]
    values += [v for part in model.partitions for v in (part.minimum, part.maximum)]
    values += [*model.class_values, *(rule.weight for rule in model.rules.rules)]
    assert all(type(v) is float for v in values)
    assert model == model_from_document(base_document())


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


def load_outcome(load, path, label):
    """Everything a load returns, bit for bit, or the error it raises."""
    try:
        ds = load(path, label)
    except Exception as exc:  # the outcome under comparison
        # A decoder that reads the file in chunks reports offsets within the
        # chunk; only those may differ.
        return type(exc), re.sub(r"position \d+(-\d+)?", "position N", str(exc))
    return (
        ds.x.shape, ds.x.dtype, ds.x.tobytes(), ds.y.shape, ds.y.dtype, ds.y.tobytes(),
        ds.attribute_names, tuple(map(type, ds.class_values)),
        np.array(ds.class_values).tobytes(),
    )


def assert_loads_as_reference(path, label) -> None:
    expected = load_outcome(reference_load_csv, path, label)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. loadtxt's "input contained no data"
        actual = load_outcome(load_csv, path, label)
    assert actual == expected


NUMERIC_CELLS = st.one_of(
    st.integers(-20, 20).map(str),
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(["0.5", "-0", "+.5", "1e3", " 2 ", "7.", "1e-320", "\t3", '"4"', '"1"2']),
)
LABEL_CELLS = st.sampled_from(["0", "1", "2", "-1", "0.5", "1.0", '"1"'])
ODD_CELLS = st.sampled_from([
    "1_0", "٣", "nan", "inf", "1e999", "#1", "", " ", "x", '"1\n"', '"2\r\n"',
    '"3\r"', '"1,5"', '"1\n2"', '1"2"', '""', '"', "0x1", "1\x0c",
])
LINE_ENDS = st.sampled_from(["\r\n", "\n", "\r"])


@st.composite
def csv_texts(draw):
    """Mostly well-formed numeric tables, a few lines or cells made odd."""
    width = draw(st.integers(2, 4))
    lines = []
    if draw(st.booleans()):
        names = st.sampled_from(["a1", "a2", "label", "x", '"q"', '"a\nb"'])
        lines.append(",".join(draw(names) for _ in range(width)))
    for _ in range(draw(st.integers(0, 6))):
        cells = [draw(NUMERIC_CELLS) for _ in range(width - 1)] + [draw(LABEL_CELLS)]
        lines.append(",".join(cells))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["blank", "whitespace", "ragged", "cell"]))
        if kind == "blank" or not lines:
            lines.insert(at, "")
        elif kind == "whitespace":
            lines.insert(at, draw(st.sampled_from([" ", "\t", " , "])))
        elif kind == "ragged":
            line = lines[at - 1]
            lines[at - 1] = line + ",1" if draw(st.booleans()) else line.rsplit(",", 1)[0]
        else:
            cells = lines[at - 1].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(ODD_CELLS)
            lines[at - 1] = ",".join(cells)
    mixed = draw(st.booleans())
    end = draw(LINE_ENDS)
    ends = [draw(LINE_ENDS) if mixed else end for _ in lines]
    if lines and not draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + e for line, e in zip(lines, ends))


@settings(max_examples=600, deadline=None)
@given(text=csv_texts(), label=st.sampled_from([None, None, 0, 1, 5, "label", "a1", "x"]))
def test_load_csv_equals_row_by_row_reference(input_file, text, label):
    with open(input_file, "w", newline="") as handle:
        handle.write(text)
    assert_loads_as_reference(input_file, label)


@pytest.mark.parametrize(
    "content",
    [
        "",
        "a,label\r\n",
        "a,label\n\n",
        "1,0\r\n2,1\r\n",
        "1,0\n2,1",
        "1,0\r2,1\r",
        "a,label\n1,0\n\n2,1\n",
        "a,label\n1,0\n \n2,1\n",
        '"1",0\n"2\n",1\n',
        "1_0,0\n2,1\n",
        "٣,0\n2,1\n",
        "nan,0\n2,1\n",
        "1e999,0\n2,1\n",
        "#1,0\n2,1\n",
        pytest.param("0" * 131072 + "1,0\n2,1\n", id="field-over-csv-limit"),
        b"a,label\n1,0\n\x80,1\n",
        "\u00e2ge,label\n1,0\n2,1\n",
    ],
)
def test_load_csv_edge_files_equal_reference(input_file, content):
    input_file.write_bytes(content if isinstance(content, bytes) else content.encode())
    assert_loads_as_reference(input_file, None)


@pytest.mark.parametrize("label", [None, 0])
def test_header_cell_spanning_lines_loads_as_reference(input_file, label):
    # Read alone, the first line is a two-cell header, and the lines after it
    # parse as a numeric body; csv reads the first two lines as one row.
    input_file.write_bytes(b'a,"b\n"1",0\n5,0\n6,1\n')
    assert_loads_as_reference(input_file, label)


def csv_rows_bytes(rows) -> bytes:
    with io.StringIO(newline="") as handle:
        csv.writer(handle).writerows(rows)
        return handle.getvalue().encode()


@settings(max_examples=600, deadline=None)
@given(
    content=st.one_of(
        csv_texts().map(str.encode),
        st.lists(st.lists(CELLS, min_size=0, max_size=4), max_size=6).map(csv_rows_bytes),
        st.binary(max_size=80),
    ),
    label=st.sampled_from([None, None, 0, 1, 5, "label", "a1", "x"]),
    chunk=st.integers(1, 24),
)
def test_load_csv_in_small_chunks_equals_row_by_row_reference(input_file, content, label, chunk):
    # The files above fit in one chunk of the default size; chunks of a few
    # bytes split each of them into several, at every kind of line.
    input_file.write_bytes(content)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset, "CHUNK_BYTES", chunk)
        assert_loads_as_reference(input_file, label)


@pytest.mark.parametrize(
    "content",
    [
        b'a,label\n1,0\n"2\n",1\n3,0\n',  # a quoted newline, which float() reads past
        b'a,label\n0,"1\n"1",1\n2,0\n',  # cut after "1, each side parses as a row
        b'a,label\n"1",0\n"2",1\n"3","0"\n',
        b"a,label\r\n1,0\r\n2,1\r\n3,0\r\n",
        b"a,label\r\r\n1,0\r\n2,1\r\n",  # csv reads an empty second row
        b"1,0\n22,1\n3,0",  # no final newline
        b"a,label\n1,0\n2,1\n\n",  # a blank last line
        b"a,label\n1,0\n\n\n\n2,1\n",
        b"a,label\n1,0\n2,1\n3,nan\n",
    ],
)
def test_lines_straddling_chunk_boundaries_load_as_reference(input_file, monkeypatch, content):
    input_file.write_bytes(content)
    for chunk in range(1, len(content) + 1):
        monkeypatch.setattr(dataset, "CHUNK_BYTES", chunk)
        assert_loads_as_reference(input_file, None)
