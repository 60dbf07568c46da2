"""Fuzzing of the two input boundaries: model documents and CSV files.

Whatever a file holds, loading it either succeeds or raises DataError or
ConfigError (exit codes 3 and 2); no other exception may escape. load_csv
must also give exactly what the row-by-row loader gave, whichever of its two
parse paths a file takes.
"""

import csv
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulestorm.dataset import AttributeStats, Dataset, load_csv
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
