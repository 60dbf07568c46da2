"""Tests for model save/load round-tripping."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rulestorm import model_io
from rulestorm.bso import BsoParams
from rulestorm.dataset import AttributeStats, Dataset
from rulestorm.errors import ConfigError, DataError
from rulestorm.ga import GaParams
from rulestorm.inference import Model, predict_dataset
from rulestorm.membership import FuzzyPartition, TriangularMF, build_partition
from rulestorm.model_io import FORMAT_TAG, load_model, save_model
from rulestorm.rules import AND, OR, Rule, RuleSet
from rulestorm.training import OPTIMIZERS, train_model


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(0)
    x1 = rng.uniform(0.0, 10.0, size=50)
    x2 = rng.uniform(-3.0, 3.0, size=50)
    x1[0], x1[1] = 0.0, 10.0
    y = np.where(x1 < 5.0, 1, 2)
    y[0], y[1] = 1, 2
    ds = Dataset(
        x=np.column_stack([x1, x2]),
        y=y.astype(int),
        attribute_names=("a1", "a2"),
        class_values=(0.0, 1.0),
    )
    result = train_model(
        ds,
        rule_count=4,
        optimizer="bso-ewma",
        bso_params=BsoParams(population_size=12, cluster_count=3, max_iterations=20, seed=9),
    )
    return ds, result.model


def test_round_trip_preserves_fields(tmp_path, trained):
    _, model = trained
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.rules == model.rules
    assert loaded.partitions == model.partitions
    assert loaded.class_values == model.class_values
    assert loaded.attribute_names == model.attribute_names
    assert loaded.majority_class == model.majority_class
    assert dict(loaded.metadata) == dict(model.metadata)


def test_round_trip_preserves_predictions(tmp_path, trained):
    ds, model = trained
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    rng = np.random.default_rng(4)
    probe = Dataset(
        x=rng.uniform(-5.0, 15.0, size=(80, 2)),
        y=rng.integers(1, 3, size=80),
        attribute_names=ds.attribute_names,
        class_values=ds.class_values,
    )
    p1, s1 = predict_dataset(model, probe)
    p2, s2 = predict_dataset(loaded, probe)
    assert np.array_equal(p1, p2)
    assert np.array_equal(s1, s2)


def hand_built(rules, sum_scores):
    """A two-attribute, two-class model over [0, 10] with three labels per
    attribute; rules are (antecedents, connective, weight), of classes 1, 2,
    1, ... in turn."""
    part = build_partition(AttributeStats(minimum=0.0, maximum=10.0), 3)
    return Model(
        partitions=(part, part),
        rules=RuleSet(
            rules=tuple(Rule(ants, i % 2 + 1, conn, weight) for i, (ants, conn, weight) in enumerate(rules)),
            m=2, p=3, c=2,
        ),
        class_values=(0.0, 1.0),
        attribute_names=("a1", "a2"),
        majority_class=1,
        metadata={"sum_scores": sum_scores},
    )


# every record pair over a grid that takes in the label peaks 0, 5 and 10
GRID = np.array([(a, b) for a in np.arange(-1.0, 11.5, 0.5) for b in np.arange(-1.0, 11.5, 0.5)])


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    """One directory whose model.json every example overwrites."""
    return tmp_path_factory.mktemp("hand-built")


@settings(max_examples=100, deadline=None)
@given(
    rules=st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.sampled_from([AND, OR]),
            st.floats(0.0, 1.0),
        ),
        min_size=1,
        max_size=6,
    ),
    sum_scores=st.booleans(),
)
# the two weights differ only past the 4th decimal, and decide the class
@example(rules=[((0, 0), AND, 0.12343), ((0, 0), AND, 0.12344)], sum_scores=False)
@example(rules=[((0, 0), AND, 0.12343), ((0, 0), AND, 0.12344)], sum_scores=True)
def test_a_saved_model_scores_bit_for_bit_as_the_model(model_dir, rules, sum_scores):
    model = hand_built(rules, sum_scores)
    save_model(model, model_dir / "model.json")
    loaded = load_model(model_dir / "model.json")
    assert loaded.rules == model.rules
    probe = Dataset(x=GRID, y=np.ones(len(GRID), dtype=int), attribute_names=("a1", "a2"), class_values=(0.0, 1.0))
    (p1, s1), (p2, s2) = predict_dataset(model, probe), predict_dataset(loaded, probe)
    assert p1.tolist() == p2.tolist()
    assert s1.view(np.int64).tolist() == s2.view(np.int64).tolist()


def test_save_is_byte_deterministic(tmp_path, trained):
    _, model = trained
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, a)
    save_model(model, b)
    assert a.read_bytes() == b.read_bytes()


def test_a_save_that_fails_leaves_the_file_as_it_was(tmp_path, trained, monkeypatch):
    _, model = trained
    path = tmp_path / "model.json"
    save_model(model, path)
    before = path.read_bytes()
    monkeypatch.setattr(model_io, "model_to_document", lambda model: {"tags": {"a"}})
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        save_model(model, path)
    assert path.read_bytes() == before


def test_numpy_scalars_in_the_metadata_are_stored_as_python_values(tmp_path, trained):
    _, model = trained
    metadata = {**model.metadata, "train_records": np.int64(5), "accuracy_weight": np.float32(0.5), "tag": np.str_("x")}
    built = Model(**{**model.__dict__, "metadata": metadata})
    assert built.metadata == {**model.metadata, "train_records": 5, "accuracy_weight": 0.5, "tag": "x"}
    assert [type(built.metadata[key]) for key in ("train_records", "accuracy_weight", "tag")] == [int, float, str]
    save_model(built, tmp_path / "model.json")
    assert load_model(tmp_path / "model.json") == built


@pytest.mark.parametrize(
    "extra",
    [{"tags": {"a"}}, {"digest": b"ab"}, {"train_records": np.arange(2)}, {"nested": {"n": np.int64(5)}}, {1: "a"}],
)
def test_a_model_refuses_metadata_json_cannot_write(trained, extra):
    _, model = trained
    with pytest.raises(ConfigError, match="^metadata must hold only what json can write: "):
        Model(**{**model.__dict__, "metadata": {**model.metadata, **extra}})


@pytest.mark.parametrize("metadata", [{1: "x"}, {"a": {1: "x"}}, {"a": [{"b": 1}, {None: 2}]}, {True: 1}])
def test_a_model_refuses_metadata_keys_that_are_not_strings(trained, metadata):
    _, model = trained
    with pytest.raises(ConfigError, match="^metadata must load back from json unchanged, but loads back as "):
        Model(**{**model.__dict__, "metadata": metadata})


JSON_KEYS = st.one_of(st.text(max_size=3), st.integers(), st.booleans(), st.none())
JSON_LIKE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3)),
    lambda children: st.one_of(
        st.dictionaries(JSON_KEYS, children, max_size=3),
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(metadata=st.dictionaries(JSON_KEYS, JSON_LIKE, max_size=4))
@example(metadata={"a": (1, 2)})
@example(metadata={"a": float("nan")})
@example(metadata={"a": [1, (2, 3)]})
@example(metadata={"a": [1, {"b": None}], "c": float("inf")})  # loads back equal
def test_a_model_refuses_its_metadata_or_loads_back_equal(trained, metadata):
    _, model = trained
    try:
        built = Model(**{**model.__dict__, "metadata": metadata})
    except ConfigError:
        return
    text = json.dumps(model_io.model_to_document(built), indent=2, sort_keys=True)
    assert model_io.model_from_document(json.loads(text)) == built


@pytest.mark.parametrize("sum_scores", [False, True])
@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_every_trained_model_loads_back_equal(tmp_path, trained, optimizer, sum_scores):
    ds, _ = trained
    model = train_model(
        ds, rule_count=3, optimizer=optimizer, sum_scores=sum_scores,
        bso_params=BsoParams(population_size=6, cluster_count=2, max_iterations=3, seed=1),
        ga_params=GaParams(population_size=6, generations=3, seed=1),
    ).model
    save_model(model, tmp_path / "model.json")
    assert load_model(tmp_path / "model.json") == model


def test_a_model_built_from_numpy_scalars_saves_and_loads_back_equal(tmp_path):
    part = build_partition(AttributeStats(minimum=np.float64(0.0), maximum=np.float32(10.0)), 3)
    model = Model(
        partitions=(part, FuzzyPartition(mfs=tuple(TriangularMF(*np.array([mf.a, mf.b, mf.c])) for mf in part.mfs),
                                         minimum=np.float64(0.0), maximum=np.float64(10.0))),
        rules=RuleSet(
            rules=(Rule((np.int64(1), np.int32(0)), np.int64(1), AND, np.float32(0.5)),
                   Rule((0, np.uint8(3)), 2, OR, np.float64(0.25))),
            m=np.int64(2), p=np.int64(3), c=2,
        ),
        class_values=tuple(np.array([0.0, 1.0], dtype=np.float32)),
        attribute_names=("a1", "a2"),
        majority_class=np.int64(1),
        metadata={"sum_scores": False},
    )
    save_model(model, tmp_path / "model.json")
    assert load_model(tmp_path / "model.json") == model


def test_document_has_format_tag_and_rule_table(tmp_path, trained):
    _, model = trained
    path = tmp_path / "model.json"
    save_model(model, path)
    document = json.loads(path.read_text())
    assert document["format"] == FORMAT_TAG
    assert len(document["rules"]) == model.rules.r
    for row in document["rules"]:
        assert set(row) == {"antecedents", "class", "connective", "weight"}
        assert row["weight"] == round(row["weight"], 4)
    assert len(document["attributes"]) == model.rules.m
    for attr in document["attributes"]:
        assert len(attr["membership_functions"]) == model.rules.p


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_model(tmp_path / "nope.json")


def test_load_turns_an_unreadable_file_into_a_data_error(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    path.write_text("{}")

    def deny(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(model_io, "open", deny, raising=False)
    with pytest.raises(DataError, match="cannot read model file"):
        load_model(path)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DataError, match="JSON"):
        load_model(path)


def test_load_rejects_wrong_format_tag(tmp_path, trained):
    _, model = trained
    path = tmp_path / "model.json"
    save_model(model, path)
    document = json.loads(path.read_text())
    document["format"] = "someone-elses-model/9"
    path.write_text(json.dumps(document))
    with pytest.raises(DataError, match="format"):
        load_model(path)


def test_load_rejects_missing_required_key(tmp_path, trained):
    _, model = trained
    path = tmp_path / "model.json"
    save_model(model, path)
    document = json.loads(path.read_text())
    del document["rules"]
    path.write_text(json.dumps(document))
    with pytest.raises(DataError, match="rules"):
        load_model(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("antecedents", [-1, 0], "labels in 0..3"),
        ("antecedents", [1, 0, 2], "need 2 labels"),
        ("class", 7, "class 7"),
        ("weight", 2.0, "weight"),
    ],
)
def test_load_rejects_invalid_rule(tmp_path, trained, field, value, message):
    _, model = trained
    path = tmp_path / "model.json"
    save_model(model, path)
    document = json.loads(path.read_text())
    document["rules"][0][field] = value
    path.write_text(json.dumps(document))
    with pytest.raises(DataError, match=message):
        load_model(path)
