"""Tests for model save/load round-tripping."""

import json

import numpy as np
import pytest

from rulestorm.bso import BsoParams
from rulestorm.dataset import Dataset
from rulestorm.errors import DataError
from rulestorm.inference import predict_dataset
from rulestorm.model_io import FORMAT_TAG, load_model, save_model
from rulestorm.training import train_model


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


def test_save_is_byte_deterministic(tmp_path, trained):
    _, model = trained
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, a)
    save_model(model, b)
    assert a.read_bytes() == b.read_bytes()


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
