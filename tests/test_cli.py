"""Command-line behavior: artifacts, output, config merging, exit codes."""

import csv
import dataclasses
import itertools
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import REPO_ROOT, make_separable_dataset
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rulestorm
from rulestorm import cli, experiments
from rulestorm.bso import BsoParams
from rulestorm.cli import main
from rulestorm.dataset import AttributeStats, Dataset, SplitSpec, load_csv, split
from rulestorm.fitness import FitnessWeights
from rulestorm.ga import GaParams
from rulestorm.inference import Model, evaluate_model, predict_dataset, report_from_predictions
from rulestorm.membership import build_partition
from rulestorm.model_io import load_model, save_model
from rulestorm.rules import AND, Rule, RuleSet
from rulestorm.training import ExperimentSettings


def write_dataset_csv(path, ds):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(ds.attribute_names) + ["label"])
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.x[i]]
            row.append(repr(float(ds.class_values[int(ds.y[i]) - 1])))
            writer.writerow(row)


def write_fast_config(path, **extra):
    config = {
        "rule_count": 4,
        "bso": {
            "population_size": 10,
            "cluster_count": 2,
            "max_iterations": 6,
            "stagnation_window": 20,
        },
        "ga": {"population_size": 10, "generations": 6},
        **extra,
    }
    with open(path, "w") as handle:
        json.dump(config, handle)
    return path


@pytest.fixture()
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    write_dataset_csv(path, make_separable_dataset())
    return path


@pytest.fixture()
def fast_config(tmp_path):
    return write_fast_config(tmp_path / "config.json")


def test_train_emits_model_and_trace(tmp_path, data_csv, fast_config, capsys):
    out = tmp_path / "run"
    code = main(
        [
            "train",
            "--data",
            str(data_csv),
            "--config",
            str(fast_config),
            "--out",
            str(out),
            "--seed",
            "0",
        ]
    )
    assert code == 0
    assert (out / "model.json").exists()
    assert (out / "trace.csv").exists()
    stdout = capsys.readouterr().out
    assert "quality components" in stdout
    assert "g1=" in stdout and "G=" in stdout
    assert "train accuracy" in stdout
    assert "held-out accuracy" in stdout
    with open(out / "trace.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][0] == "iteration"
    assert len(rows) >= 2


def test_train_is_byte_deterministic(tmp_path, data_csv, fast_config):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert (
            main(
                [
                    "train",
                    "--data",
                    str(data_csv),
                    "--config",
                    str(fast_config),
                    "--out",
                    str(out),
                    "--seed",
                    "7",
                ]
            )
            == 0
        )
        outs.append(out)
    first = (outs[0] / "model.json").read_bytes()
    second = (outs[1] / "model.json").read_bytes()
    assert first == second

    def stable_trace(path):
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        drop = rows[0].index("elapsed_ms")
        return [row[:drop] + row[drop + 1 :] for row in rows]

    assert stable_trace(outs[0] / "trace.csv") == stable_trace(outs[1] / "trace.csv")


def test_trained_model_file_is_a_rule_table(tmp_path, fast_config):
    # six attributes, three labels each, six rules: the saved rule block must
    # read as one row per rule with antecedents, class, connective, weight
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, size=(40, 6))
    y = np.where(x[:, 0] > 0.5, 1.0, 0.0)
    path = tmp_path / "wide.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"a{j}" for j in range(6)] + ["label"])
        for i in range(40):
            writer.writerow([repr(float(v)) for v in x[i]] + [repr(float(y[i]))])
    config = write_fast_config(tmp_path / "wide_config.json", rule_count=6)
    out = tmp_path / "wide_run"
    assert (
        main(
            [
                "train",
                "--data",
                str(path),
                "--config",
                str(config),
                "--out",
                str(out),
                "--seed",
                "1",
            ]
        )
        == 0
    )
    document = json.loads((out / "model.json").read_text())
    rules = document["rules"]
    assert len(rules) == 6
    for row in rules:
        assert set(row) == {"antecedents", "class", "connective", "weight"}
        assert len(row["antecedents"]) == 6
        assert row["connective"] in ("AND", "OR")
        assert row["weight"] == round(row["weight"], 4)


def perfect_model(tmp_path):
    """One attribute on [0, 10]; low region is class 0.0, high is 1.0."""
    partition = build_partition(AttributeStats(0.0, 10.0, False), 3)
    model = Model(
        partitions=(partition,),
        rules=RuleSet(
            rules=(
                Rule(antecedents=(1,), consequent=1, connective=AND, weight=0.6),
                Rule(antecedents=(3,), consequent=2, connective=AND, weight=0.6),
            ),
            m=1,
            p=3,
            c=2,
        ),
        class_values=(0.0, 1.0),
        attribute_names=("a1",),
        majority_class=1,
        metadata={},
    )
    path = tmp_path / "perfect_model.json"
    save_model(model, path)
    return path


def test_evaluate_reports_perfect_accuracy(tmp_path, capsys):
    model_path = perfect_model(tmp_path)
    data_path = tmp_path / "clean.csv"
    with open(data_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["a1", "label"])
        for v in (0.0, 1.0, 2.0, 4.0):
            writer.writerow([repr(v), "0.0"])
        for v in (6.0, 8.0, 9.0, 10.0):
            writer.writerow([repr(v), "1.0"])
    code = main(["evaluate", str(model_path), "--data", str(data_path)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "accuracy: 1.0000" in stdout
    assert "confusion: tp=4 fp=0 tn=4 fn=0" in stdout


def test_evaluate_prints_undefined_metric_and_exits_zero(tmp_path, capsys):
    # No record carries the model's positive label, so the sensitivity
    # denominator is zero; the metric prints as "undefined", not an error.
    model_path = perfect_model(tmp_path)
    data_path = tmp_path / "shifted_labels.csv"
    with open(data_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["a1", "label"])
        for v, label in ((6.0, "2.0"), (8.0, "3.0"), (9.0, "2.0")):
            writer.writerow([repr(v), label])
    code = main(["evaluate", str(model_path), "--data", str(data_path)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "sensitivity: undefined" in stdout
    assert "specificity:" in stdout


def test_evaluate_writes_predictions(tmp_path, data_csv, fast_config):
    out = tmp_path / "run"
    main(
        [
            "train",
            "--data",
            str(data_csv),
            "--config",
            str(fast_config),
            "--out",
            str(out),
            "--seed",
            "0",
        ]
    )
    code = main(
        [
            "evaluate",
            str(out / "model.json"),
            "--data",
            str(data_csv),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with open(out / "predictions.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["record", "true_label", "predicted_label", "score"]
    assert len(rows) == 1 + 60


def test_evaluate_with_out_predicts_once(tmp_path, capsys, monkeypatch):
    model_path = perfect_model(tmp_path)
    data_path = tmp_path / "clean.csv"
    with open(data_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["a1", "label"])
        for v, label in ((0.0, "0.0"), (2.0, "1.0"), (9.0, "1.0")):
            writer.writerow([repr(v), label])
    calls = []
    original = cli.predict_dataset

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "predict_dataset", counted)
    out = tmp_path / "scored"
    code = main(["evaluate", str(model_path), "--data", str(data_path), "--out", str(out)])
    assert code == 0
    assert len(calls) == 1
    assert "accuracy: 0.6667" in capsys.readouterr().out
    with open(out / "predictions.csv", newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    assert [row[2] for row in rows] == ["0.0", "0.0", "1.0"]


@pytest.mark.parametrize("config", [{"out": None}, {}])
def test_evaluate_without_an_out_directory_writes_no_predictions(tmp_path, monkeypatch, capsys, config):
    # null in a config file means "not set", the same as a missing key
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    data_path = write_one_attribute_csv(tmp_path / "data.csv", [(0.0, 0.0), (9.0, 1.0)])
    model_path = perfect_model(tmp_path)
    code = main(["evaluate", str(model_path), "--data", str(data_path), "--config", str(config_path)])
    assert code == 0
    assert "predictions:" not in capsys.readouterr().out
    assert list(cwd.iterdir()) == []


def write_one_attribute_csv(path, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["a1", "label"])
        writer.writerows(rows)
    return path


def test_predictions_csv_equals_csv_writer_output(tmp_path):
    """predictions.csv holds the bytes a csv.writer gives, row by row."""
    model = Model(
        partitions=(build_partition(AttributeStats(0.0, 10.0, False), 3),),
        rules=RuleSet(
            rules=(
                Rule(antecedents=(1,), consequent=2, connective=AND, weight=0.75),
                Rule(antecedents=(3,), consequent=1, connective=AND, weight=0.0001),
            ),
            m=1,
            p=3,
            c=3,
        ),
        class_values=(-1.5, 0.25, 3.0),
        attribute_names=("a1",),
        majority_class=3,
        metadata={},
    )
    model_path = tmp_path / "model.json"
    save_model(model, model_path)
    data_path = write_one_attribute_csv(
        tmp_path / "data.csv",
        [(3, -2), (5.5, 0.5), (5, 3), (0, -2), (10, 0.5), (7, 3), (1.25, 0.5)],
    )
    out = tmp_path / "scored"
    assert main(["evaluate", str(model_path), "--data", str(data_path), "--out", str(out)]) == 0

    loaded = load_model(model_path)
    ds = load_csv(data_path)
    internal, scores = predict_dataset(loaded, ds)
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("record", "true_label", "predicted_label", "score"))
        for i in range(ds.n):
            true = ds.class_values[int(ds.y[i]) - 1]
            predicted = loaded.class_values[int(internal[i]) - 1]
            writer.writerow((i, repr(true), repr(predicted), repr(float(scores[i]))))
    written = (out / "predictions.csv").read_bytes()
    assert written == reference.read_bytes()
    assert b"\r\n0,-2.0,0.25,0.30000000000000004\r\n1,0.5,-1.5,1e-05\r\n2,3.0,3.0,0.0\r\n" in written


def csv_writer_predictions(path, ds, model, classes, scores):
    """predictions.csv as csv.writer writes it, one row at a time."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("record", "true_label", "predicted_label", "score"))
        for i in range(ds.n):
            true = ds.class_values[int(ds.y[i]) - 1]
            predicted = model.class_values[int(classes[i]) - 1]
            writer.writerow((i, repr(true), repr(predicted), repr(float(scores[i]))))
    return path.read_bytes()


def one_attribute_model(class_values):
    c = len(class_values)
    return Model(
        partitions=(build_partition(AttributeStats(0.0, 10.0, False), 3),),
        rules=RuleSet(
            rules=tuple(
                Rule(antecedents=(1 + k % 3,), consequent=1 + k, connective=AND, weight=0.5)
                for k in range(c)
            ),
            m=1,
            p=3,
            c=c,
        ),
        class_values=tuple(class_values),
        attribute_names=("a1",),
        majority_class=1,
        metadata={},
    )


# Scores a rule table can give and ones it cannot: signed zeros, nan, inf,
# subnormals, and values whose repr switches to or from exponent notation.
SPECIAL_SCORES = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-310, 1e16, 1e-05)
SCORES = st.one_of(st.sampled_from(SPECIAL_SCORES), st.floats())
CLASS_VALUES = st.sampled_from([-1.5, 0.0, 0.25, 1.0, 2.0, 3.0, 1e16])


@st.composite
def prediction_cases(draw):
    """(data class values, model class values, scores, seed for the labels)."""
    data_values = sorted(draw(st.sets(CLASS_VALUES, min_size=2, max_size=3)))
    model_values = sorted(draw(st.sets(CLASS_VALUES, min_size=2, max_size=3)))
    if draw(st.booleans()):
        # every score differs from every other, bit for bit
        scores = draw(
            st.lists(SCORES, min_size=1, max_size=300, unique_by=lambda v: struct.pack("<d", v))
        )
    else:
        runs = draw(st.lists(st.tuples(SCORES, st.integers(1, 80)), min_size=1, max_size=12))
        scores = [value for value, length in runs for _ in range(length)]
    return data_values, model_values, scores, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(case=prediction_cases())
@example(case=([0.0, 1.0], [-1.5, 0.25, 3.0], [*SPECIAL_SCORES, 0.0, -0.0], 0))
@example(case=([0.0, 1.0, 2.0], [0.0, 1.0], [0.3] * 500 + [-0.0] * 7 + [0.3] * 9, 1))
def test_write_predictions_equals_csv_writer(predictions_dir, case):
    data_values, model_values, scores, seed = case
    rng = np.random.default_rng(seed)
    n = len(scores)
    ds = Dataset(
        x=np.zeros((n, 1)),
        y=rng.integers(1, len(data_values) + 1, size=n),
        attribute_names=("a1",),
        class_values=tuple(data_values),
    )
    model = one_attribute_model(model_values)
    classes = rng.integers(1, len(model_values) + 1, size=n)
    scores = np.array(scores, dtype=np.float64)
    cli.write_predictions(predictions_dir / "predictions.csv", ds, model, classes, scores)
    expected = csv_writer_predictions(predictions_dir / "reference.csv", ds, model, classes, scores)
    assert (predictions_dir / "predictions.csv").read_bytes() == expected


@pytest.fixture(scope="module")
def predictions_dir(tmp_path_factory):
    """One directory whose files every example overwrites."""
    return tmp_path_factory.mktemp("predictions")


def test_sum_scores_predictions_on_a_split_equal_csv_writer_output(tmp_path, pid_path, capsys):
    config = tmp_path / "sum.json"
    config.write_text(json.dumps({"sum_scores": True, "bso": {"max_iterations": 6}}))
    out = tmp_path / "run"
    main(["train", "--data", str(pid_path), "--config", str(config), "--out", str(out), "--seed", "0"])
    args = ["--data", str(pid_path), "--split-fraction", "0.8", "--seed", "0", "--out", str(out)]
    assert main(["evaluate", str(out / "model.json"), *args]) == 0
    assert "records: 154\n" in capsys.readouterr().out

    model = load_model(out / "model.json")
    assert model.metadata["sum_scores"] is True
    _, held_out = split(load_csv(pid_path), SplitSpec(fraction=0.8, seed=0))
    classes, scores = predict_dataset(model, held_out, sum_scores=True)
    # the summed scores are not the winner-take-all ones, so the file shows
    # which decision rule evaluate used
    assert not np.array_equal(scores, predict_dataset(model, held_out, sum_scores=False)[1])
    expected = csv_writer_predictions(tmp_path / "reference.csv", held_out, model, classes, scores)
    assert (out / "predictions.csv").read_bytes() == expected


@pytest.mark.parametrize("verb", ["train", "evaluate"])
def test_out_naming_a_file_is_a_config_error_before_any_work(
    tmp_path, fast_config, capsys, monkeypatch, verb
):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(experiments, "train_model", refuse)  # train trains through experiments.train_cell
    monkeypatch.setattr(cli, "predict_dataset", refuse)
    data_path = write_one_attribute_csv(
        tmp_path / "data.csv", [(v, int(v > 5)) for v in range(11)]
    )
    out = tmp_path / "afile"
    out.write_text("keep")
    model = [str(perfect_model(tmp_path))] if verb == "evaluate" else []
    code = main(
        [verb, *model, "--data", str(data_path), "--config", str(fast_config), "--out", str(out)]
    )
    assert code == 2
    assert "output directory" in capsys.readouterr().err
    assert out.read_text() == "keep"


@pytest.mark.parametrize(
    "key, value",
    [
        ("sum_scores", "no"),
        ("sum_scores", 1),
        ("label", 1.5),
        ("label", True),
        ("ratios", 0.8),
        ("ratios", ["0.8"]),
        ("out", ["a"]),
        ("data", 5),
        ("seed", "1"),
        ("seed", 1.0),
        ("labels_per_attribute", 2.5),
        ("rule_count", True),
        ("seeds", [0.5]),
        ("e_values", ["x"]),
        ("k_values", 3),
        ("accuracy_weight", "1"),
        ("split_fraction", True),
        ("threshold", [0.7]),
        ("optimizer", 5),
        ("optimizer", ["ga", 1]),
        # a dotted key is a field of a section, checked where the section is read
        ("bso.slope_divisor", float("nan")),
        ("bso.noise_sigma", float("nan")),
        ("ga.mutation_sigma", float("nan")),
        ("bso.population_size", 5.5),
        ("bso.max_iterations", 2.5),
        ("ga.population_size", 7.5),
        ("bso.cluster_count", True),
        ("fitness_weights.alpha", float("nan")),
        ("fitness_weights.beta", float("inf")),
        pytest.param("accuracy_weight", 10**400, id="accuracy_weight-integer-too-large-for-a-float"),
    ],
)
def test_config_value_of_wrong_json_type_is_a_config_error(
    tmp_path, data_csv, capsys, key, value
):
    config = write_fast_config(tmp_path / "typed.json")
    document = json.loads(config.read_text())
    section, _, name = key.rpartition(".")
    (document.setdefault(section, {}) if section else document)[name] = value
    config.write_text(json.dumps(document))
    out = tmp_path / "run"
    code = main(["train", "--data", str(data_csv), "--config", str(config), "--out", str(out)])
    assert code == 2
    assert f"config: {key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("antecedent", ["x", 1.7])
def test_evaluate_model_with_non_integer_antecedent_is_a_data_error(
    tmp_path, data_csv, capsys, antecedent
):
    model_path = perfect_model(tmp_path)
    document = json.loads(model_path.read_text())
    document["rules"][0]["antecedents"][0] = antecedent
    model_path.write_text(json.dumps(document))
    code = main(["evaluate", str(model_path), "--data", str(data_csv)])
    assert code == 3
    assert "antecedent must be an integer" in capsys.readouterr().err


def test_evaluate_split_scores_held_out_side(tmp_path, data_csv, fast_config, capsys):
    out = tmp_path / "run"
    main(
        [
            "train",
            "--data",
            str(data_csv),
            "--config",
            str(fast_config),
            "--out",
            str(out),
            "--seed",
            "0",
        ]
    )
    code = main(
        [
            "evaluate",
            str(out / "model.json"),
            "--data",
            str(data_csv),
            "--split-fraction",
            "0.8",
            "--seed",
            "0",
        ]
    )
    assert code == 0
    assert "records: 12" in capsys.readouterr().out


def test_evaluate_uses_the_models_sum_scores(tmp_path, pid_path, capsys):
    config = tmp_path / "sum.json"
    config.write_text(json.dumps({"sum_scores": True, "bso": {"max_iterations": 6}}))
    out = tmp_path / "run"
    main(["train", "--data", str(pid_path), "--config", str(config), "--out", str(out), "--seed", "0"])
    printed = capsys.readouterr().out
    held_out = printed.split("held-out accuracy: ")[1].split()[0]
    code = main(["evaluate", str(out / "model.json"), "--data", str(pid_path), "--split-fraction", "0.8", "--seed", "0"])
    assert code == 0
    assert f"accuracy: {held_out}\n" in capsys.readouterr().out


def test_a_sum_scores_model_scores_the_same_in_the_library_train_cell_and_evaluate(tmp_path, pid_path, capsys):
    """The model's own decision rule scores it, wherever it is scored."""
    trained_with = ExperimentSettings(sum_scores=True, bso_params=BsoParams(max_iterations=30))
    ds = load_csv(pid_path)
    spec = SplitSpec(fraction=0.8, seed=0)
    train, result, report = experiments.train_cell(ds, trained_with, spec, "bso-ewma")
    _, held_out = split(ds, spec)
    assert evaluate_model(result.model, held_out) == report
    assert evaluate_model(result.model, train).accuracy == result.train_accuracy
    # by the single best rule, the same model scores otherwise
    assert report.accuracy != report_from_predictions(
        result.model, held_out, predict_dataset(result.model, held_out, sum_scores=False)[0]
    ).accuracy
    save_model(result.model, tmp_path / "model.json")
    code = main(["evaluate", str(tmp_path / "model.json"), "--data", str(pid_path), "--split-fraction", "0.8", "--seed", "0"])
    assert code == 0
    assert f"accuracy: {report.accuracy:.4f}\n" in capsys.readouterr().out


def test_evaluate_model_with_non_boolean_sum_scores_is_a_data_error(tmp_path, data_csv, capsys):
    model_path = perfect_model(tmp_path)
    document = json.loads(model_path.read_text())
    document["metadata"]["sum_scores"] = "yes"
    model_path.write_text(json.dumps(document))
    code = main(["evaluate", str(model_path), "--data", str(data_csv)])
    assert code == 3
    assert "metadata.sum_scores must be true or false" in capsys.readouterr().err


def test_evaluate_config_with_non_boolean_sum_scores_is_a_config_error(tmp_path, data_csv, capsys):
    config = tmp_path / "sum.json"
    config.write_text(json.dumps({"sum_scores": 1}))
    code = main(["evaluate", str(perfect_model(tmp_path)), "--data", str(data_csv), "--config", str(config)])
    assert code == 2
    assert "config: sum_scores must be true or false, got 1" in capsys.readouterr().err


def test_evaluate_attribute_mismatch_is_a_data_error(tmp_path, data_csv, capsys):
    model_path = perfect_model(tmp_path)  # expects one attribute
    code = main(["evaluate", str(model_path), "--data", str(data_csv)])
    assert code == 3
    assert "attribute count mismatch" in capsys.readouterr().err


def test_missing_data_flag_is_a_config_error(capsys):
    code = main(["train"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["evaluate", "{tmp}/missing/model.json"],  # the model file is not looked for
        ["sweep", "--seeds", "0,0"],  # nor the seeds checked
        ["train", "--split-fraction", "1.5"],  # nor the split
    ],
)
def test_missing_data_exits_2_before_anything_else_is_checked_or_read(tmp_path, capsys, args):
    out = tmp_path / "out"
    code = main([arg.format(tmp=tmp_path) for arg in args] + ["--out", str(out)])
    assert code == 2
    assert "a dataset is required: pass --data or set it in the config" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_is_rejected(tmp_path, data_csv, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"rule_cout": 5}))
    code = main(["train", "--data", str(data_csv), "--config", str(config)])
    assert code == 2
    assert "rule_cout" in capsys.readouterr().err


def test_bad_optimizer_param_names_its_section(tmp_path, data_csv, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"bso": {"smoothing": 0.0}}))
    code = main(["train", "--data", str(data_csv), "--config", str(config)])
    assert code == 2
    assert "bso" in capsys.readouterr().err


def test_malformed_config_json(tmp_path, data_csv, capsys):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    code = main(["train", "--data", str(data_csv), "--config", str(config)])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_data_file_is_a_data_error(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "nope.csv")])
    assert code == 3
    assert "data error" in capsys.readouterr().err


def test_non_finite_data_cell_is_a_data_error(data_csv, fast_config, capsys):
    rows = data_csv.read_text().splitlines()
    cells = rows[3].split(",")
    cells[1] = "nan"
    rows[3] = ",".join(cells)
    data_csv.write_text("\n".join(rows) + "\n")
    code = main(["train", "--data", str(data_csv), "--config", str(fast_config)])
    assert code == 3
    assert "row 4 has non-finite cell 'nan'" in capsys.readouterr().err


def test_attribute_range_too_wide_to_partition_is_a_data_error(tmp_path, data_csv, fast_config, capsys):
    rows = data_csv.read_text().splitlines()
    for i in range(1, len(rows)):
        cells = rows[i].split(",")
        cells[0] = ("-1e308", "1e308")[i % 2]
        rows[i] = ",".join(cells)
    data_csv.write_text("\n".join(rows) + "\n")
    code = main(["train", "--data", str(data_csv), "--config", str(fast_config), "--out", str(tmp_path)])
    assert code == 3
    assert "too wide to partition" in capsys.readouterr().err


def test_evaluate_invalid_model_rule_is_a_data_error(tmp_path, data_csv, capsys):
    model_path = perfect_model(tmp_path)
    document = json.loads(model_path.read_text())
    document["rules"][0]["antecedents"] = [-1]
    model_path.write_text(json.dumps(document))
    code = main(["evaluate", str(model_path), "--data", str(data_csv)])
    assert code == 3
    assert "labels in 0..3" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("membership_functions", [[0.0, 0.0, 5.0], [NAN, NAN, NAN], [5.0, 10.0, 10.0]], "finite a <= b <= c"),
        ("membership_functions", [[0.0, 0.0, 5.0], [0.0, 5.0, INF], [5.0, 10.0, 10.0]], "finite a <= b <= c"),
        ("membership_functions", [[0.0, 0.0, 5.0], [6.0, 5.0, 10.0], [5.0, 10.0, 10.0]], "finite a <= b <= c"),
        ("minimum", 10.0 + 1e9, "finite minimum <= maximum"),
        ("maximum", NAN, "finite minimum <= maximum"),
        pytest.param("minimum", 10**400, "finite minimum <= maximum", id="minimum-integer-too-large-for-a-float"),
        ("name", [1, 2], "need 1 attribute names, all strings"),
    ],
)
def test_evaluate_invalid_model_attribute_is_a_data_error(tmp_path, data_csv, capsys, key, value, message):
    model_path = perfect_model(tmp_path)
    document = json.loads(model_path.read_text())
    document["attributes"][0][key] = value
    model_path.write_text(json.dumps(document))
    code = main(["evaluate", str(model_path), "--data", str(data_csv)])
    assert code == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("values", [[NAN, 1.0], [INF, 1.0], [0.0, NAN], [0.0, 0.0]])
def test_evaluate_model_with_bad_class_values_is_a_data_error(tmp_path, pid_path, capsys, values):
    # scored, each list gives a wrong report: the real values are [0.0, 1.0]
    document = json.loads((REPO_ROOT / "perfbench" / "score_model.json").read_text())
    document["classes"]["values"] = values
    model_path, out = tmp_path / "model.json", tmp_path / "out"
    model_path.write_text(json.dumps(document))
    code = main(["evaluate", str(model_path), "--data", str(pid_path), "--out", str(out)])
    assert code == 3
    assert "need distinct finite numbers" in capsys.readouterr().err
    assert not out.exists()


def test_bso_mode_in_config_is_a_config_error(tmp_path, data_csv, capsys):
    config = write_fast_config(tmp_path / "mode.json")
    document = json.loads(config.read_text())
    document["bso"]["mode"] = "plain"
    config.write_text(json.dumps(document))
    code = main(["train", "--data", str(data_csv), "--config", str(config), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "bso.mode" in err and "optimizer" in err
    assert not (tmp_path / "model.json").exists()


def test_seed_flag_overrides_config_seed(tmp_path, data_csv):
    # the flag seeds the split and the optimizer, as the config's seed would
    argv = ["train", "--data", str(data_csv)]
    flagged, configured = tmp_path / "flag", tmp_path / "config"
    one, two = write_fast_config(tmp_path / "one.json", seed=1), write_fast_config(tmp_path / "two.json", seed=2)
    assert main([*argv, "--config", str(one), "--seed", "2", "--out", str(flagged)]) == 0
    assert main([*argv, "--config", str(two), "--out", str(configured)]) == 0
    assert load_model(flagged / "model.json").metadata["seed"] == 2
    assert (flagged / "model.json").read_bytes() == (configured / "model.json").read_bytes()


@pytest.mark.parametrize("key, value", [("bso.seed", -2), ("ga.seed", -1), ("bso.seed", 7), ("ga.seed", 3)])
@pytest.mark.parametrize("verb", list(cli.COMMANDS))
def test_section_seed_is_refused_before_any_file_is_read(tmp_path, capsys, monkeypatch, verb, key, value):
    # the verb's seed (each sweep cell's entry in --seeds) is the only seed
    def refuse(*args, **kwargs):
        raise AssertionError("a file was read before the config was checked")

    monkeypatch.setattr(cli, "load_model", refuse)
    monkeypatch.setattr(cli, "load_csv", refuse)
    section, _, name = key.partition(".")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({section: {name: value}}))
    model = ["model.json"] if verb == "evaluate" else []
    out = tmp_path / "run"
    code = main([verb, *model, "--data", "x.csv", "--config", str(config), "--out", str(out)])
    assert code == 2
    option = "seeds" if verb == "sweep" else "seed"
    assert f"config error: config: {key} is not a parameter; set {option} (--{option})\n" in capsys.readouterr().err
    assert not out.exists()


def test_label_flag_accepts_column_index(tmp_path, fast_config):
    # label in the first column of a headerless file
    ds = make_separable_dataset()
    path = tmp_path / "flipped.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        for i in range(ds.n):
            label = float(ds.class_values[int(ds.y[i]) - 1])
            writer.writerow([repr(label)] + [repr(float(v)) for v in ds.x[i]])
    out = tmp_path / "run"
    code = main(
        [
            "train",
            "--data",
            str(path),
            "--label",
            "0",
            "--config",
            str(fast_config),
            "--out",
            str(out),
        ]
    )
    assert code == 0


def test_sweep_command_writes_summary(tmp_path, data_csv, fast_config, capsys):
    out = tmp_path / "sweep_out"
    code = main(
        [
            "sweep",
            "--data",
            str(data_csv),
            "--config",
            str(fast_config),
            "--ratios",
            "0.8",
            "--seeds",
            "0,1",
            "--optimizer",
            "bso-ewma,ga",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with open(out / "sweep.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 3  # header + two optimizer rows
    assert "sweep:" in capsys.readouterr().out


def _artifact_bytes_of_two_runs(tmp_path, data_csv, fast_config, verb, flags, artifact):
    blobs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        args = [verb, "--data", str(data_csv), "--config", str(fast_config), *flags, "--out", str(out)]
        assert main(args) == 0
        blob = (out / artifact).read_bytes()
        if verb == "benchmark":  # elapsed_ms_to_threshold is wall-clock time
            lines = [line.split(b",") for line in blob.split(b"\r\n")]
            drop = lines[0].index(b"elapsed_ms_to_threshold")
            blob = b"\r\n".join(b",".join(line[:drop] + line[drop + 1 :]) for line in lines)
        blobs.append(blob)
    assert blobs[0].count(b"\r\n") > 1
    return blobs


def test_sweep_csv_is_deterministic_across_runs(tmp_path, data_csv, fast_config):
    flags = ["--ratios", "0.8", "--seeds", "0,1", "--optimizer", "bso-ewma"]
    blobs = _artifact_bytes_of_two_runs(tmp_path, data_csv, fast_config, "sweep", flags, "sweep.csv")
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize(
    "verb, flags, artifact",
    [
        ("param-sweep", ["--e-values", "0.5,1.0", "--k-values", "20"], "param_sweep.csv"),
        ("benchmark", ["--ratios", "0.5,1.0", "--threshold", "0.6"], "benchmark.csv"),
    ],
)
def test_experiment_csv_is_deterministic_across_runs(tmp_path, data_csv, fast_config, verb, flags, artifact):
    blobs = _artifact_bytes_of_two_runs(tmp_path, data_csv, fast_config, verb, flags, artifact)
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
        (["sweep", "--seeds", "0,-1"], "seed must be a non-negative integer, got -1"),
        (["sweep", "--ratios", "0.8,0.8", "--seeds", "0,1", "--optimizer", "ga"], "sweep ratios must be distinct"),
        (["sweep", "--ratios", "0.8", "--seeds", "0,0"], "sweep seeds must be distinct"),
        (["sweep", "--ratios", "0.8", "--seeds", "0", "--optimizer", "ga,ga"], "sweep optimizers must be distinct"),
        (["param-sweep", "--k-values", "20,nan"], "slope_divisor must be a finite number, got nan"),
        (["param-sweep", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
        (["benchmark", "--seed", "-1", "--optimizer", "ga"], "seed must be a non-negative integer, got -1"),
        # the message names the option given, not the section it is copied into
        (["train", "--seed", "-1"], "config error: seed must be a non-negative integer, got -1"),
        (["param-sweep", "--k-values", "nan"], "K (--k-values): slope_divisor must be a finite number, got nan"),
        (["param-sweep", "--e-values", "0"], "e (--e-values): smoothing must be in (0, 1]"),
        (["param-sweep", "--e-values", "0.5,0.5", "--k-values", "20"], "param-sweep e (--e-values) must be distinct"),
        (["param-sweep", "--k-values", "20,20"], "param-sweep K (--k-values) must be distinct"),
        (["benchmark", "--ratios", "0.5,0.5"], "benchmark fractions (--ratios) must be distinct"),
        (["benchmark", "--ratios", "0.5", "--optimizer", "ga,ga"], "benchmark optimizers must be distinct"),
        (["param-sweep", "--split-fraction", "1"], "param-sweep split fraction (--split-fraction) must be in (0, 1), got 1.0"),
        (["benchmark", "--threshold", "1.5"], "config error: threshold must be in (0, 1], got 1.5"),
        (["sweep", "--optimizer", "sgd"], "optimizer must be one of ('bso-ewma', 'bso-plain', 'ga'), got 'sgd'"),
        (["benchmark", "--optimizer", "sgd"], "optimizer must be one of ('bso-ewma', 'bso-plain', 'ga'), got 'sgd'"),
        (["sweep", "--seeds", ""], "config error: sweep seeds must not be empty"),
        (["sweep", "--ratios", ""], "config error: sweep ratios must not be empty"),
        (["sweep", "--optimizer", ""], "config error: sweep optimizers must not be empty"),
        (["benchmark", "--ratios", ""], "config error: benchmark fractions (--ratios) must not be empty"),
        (["benchmark", "--optimizer", ""], "config error: benchmark optimizers must not be empty"),
        (["param-sweep", "--e-values", ""], "config error: param-sweep e (--e-values) must not be empty"),
        (["param-sweep", "--k-values", ""], "config error: param-sweep K (--k-values) must not be empty"),
    ],
)
def test_bad_experiment_value_is_a_config_error_before_any_cell(
    tmp_path, data_csv, fast_config, capsys, monkeypatch, argv, message
):
    # every value is checked before the data file is read
    def refuse(*args, **kwargs):
        raise AssertionError("a file was read or a cell started before the values were checked")

    monkeypatch.setattr(experiments, "train_model", refuse)
    monkeypatch.setattr(cli, "load_csv", refuse)
    monkeypatch.setattr(cli, "load_model", refuse)
    out = tmp_path / "run"
    code = main([*argv, "--data", str(data_csv), "--config", str(fast_config), "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "verb, flags",
    [
        ("sweep", ["--ratios", "0.8", "--seeds", "0"]),
        ("param-sweep", ["--e-values", "0.5", "--k-values", "20"]),
        ("benchmark", ["--ratios", "1.0"]),
    ],
)
@pytest.mark.parametrize(
    "setting, message",
    [
        ({"accuracy_weight": 2.0}, "config: accuracy_weight must be in [0, 1], got 2.0"),
        ({"labels_per_attribute": 1}, "config: labels_per_attribute must be at least 2, got 1"),
        ({"rule_count": 1}, "need at least one rule per class: r=1 < c=2"),
        ({"sum_scores": 1}, "config: sum_scores must be true or false, got 1"),
    ],
)
def test_bad_training_setting_stops_every_experiment_before_any_cell(
    tmp_path, data_csv, capsys, monkeypatch, verb, flags, setting, message
):
    def refuse(*args, **kwargs):
        raise AssertionError("a cell started before the settings were checked")

    monkeypatch.setattr(experiments, "train_model", refuse)
    config = write_fast_config(tmp_path / "bad.json", **setting)
    out = tmp_path / "run"
    code = main([verb, *flags, "--data", str(data_csv), "--config", str(config), "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_param_sweep_command(tmp_path, data_csv, fast_config, capsys):
    out = tmp_path / "grid_out"
    code = main(
        [
            "param-sweep",
            "--data",
            str(data_csv),
            "--config",
            str(fast_config),
            "--e-values",
            "0.5,1.0",
            "--k-values",
            "20",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with open(out / "param_sweep.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 3
    assert "param-sweep:" in capsys.readouterr().out


def test_benchmark_command(tmp_path, data_csv, fast_config, capsys):
    out = tmp_path / "bench_out"
    code = main(
        [
            "benchmark",
            "--data",
            str(data_csv),
            "--config",
            str(fast_config),
            "--ratios",
            "1.0",
            "--threshold",
            "0.01",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with open(out / "benchmark.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 4  # header + three optimizers
    stdout = capsys.readouterr().out
    assert "benchmark:" in stdout
    assert "reached" in stdout


def test_sweep_config_with_workers_is_a_config_error(tmp_path, data_csv, capsys):
    config = write_fast_config(tmp_path / "workers.json", workers=2)
    code = main(
        ["sweep", "--data", str(data_csv), "--config", str(config), "--seeds", "0"]
    )
    assert code == 2
    assert "workers" in capsys.readouterr().err


def test_bad_sweep_ratio_is_a_config_error(tmp_path, data_csv, capsys):
    code = main(
        ["sweep", "--data", str(data_csv), "--ratios", "1.4", "--seeds", "0"]
    )
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_runs_without_scipy(tmp_path, data_csv, fast_config):
    # numpy is the only runtime dependency: a train must not load scipy
    script = (
        "import sys\n"
        "import rulestorm.cli\n"
        "code = rulestorm.cli.main(sys.argv[1:])\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        "sys.exit(code)\n"
    )
    src = str(Path(rulestorm.__file__).resolve().parent.parent)
    args = ["train", "--data", str(data_csv), "--config", str(fast_config), "--out", str(tmp_path / "run")]
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_sweep_refuses_the_seed_flag(tmp_path, data_csv, fast_config, capsys, monkeypatch):
    # each sweep cell takes its seed from --seeds, so a --seed would do nothing
    def refuse(*args, **kwargs):
        raise AssertionError("a cell started")

    monkeypatch.setattr(experiments, "train_model", refuse)
    argv = ["sweep", "--data", str(data_csv), "--config", str(fast_config), "--seeds", "0"]
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--ratios", "0.8", "--seed", "9", "--out", str(tmp_path / "run")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed 9" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("verb", ["evaluate", "param-sweep"])
def test_several_ratios_fail_before_any_file_is_read(tmp_path, capsys, monkeypatch, verb, source):
    # the single split is one number: a list is a type error
    def refuse(*args, **kwargs):
        raise AssertionError("a file was read before --split-fraction was checked")

    monkeypatch.setattr(cli, "load_model", refuse)
    monkeypatch.setattr(cli, "load_csv", refuse)
    config = tmp_path / "ratios.json"
    config.write_text(json.dumps({"split_fraction": [0.7, 0.8]}))
    ratios = ["--split-fraction", "0.7,0.8"] if source == "flag" else ["--config", str(config)]
    model = [str(perfect_model(tmp_path))] if verb == "evaluate" else []
    data = str(tmp_path / "missing.csv")
    argv = [verb, *model, "--data", data, *ratios, "--out", str(tmp_path / "run")]
    if source == "flag":
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        code, message = exit_info.value.code, "argument --split-fraction: invalid float value: '0.7,0.8'"
    else:
        code, message = main(argv), "config error: config: split_fraction must be a number, got [0.7, 0.8]"
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "verb, fraction",
    [("train", f) for f in ("1.5", "0", "-0.1")] + [(v, f) for v in ("evaluate", "param-sweep") for f in ("1.5", "0", "-0.1", "1")],
)
def test_out_of_range_split_fraction_fails_before_any_file_is_read(tmp_path, capsys, monkeypatch, verb, fraction):
    # train alone may train on every record
    def refuse(*args, **kwargs):
        raise AssertionError("a file was read before --split-fraction was checked")

    monkeypatch.setattr(cli, "load_model", refuse)
    monkeypatch.setattr(cli, "load_csv", refuse)
    model = [str(tmp_path / "model.json")] if verb == "evaluate" else []
    out = tmp_path / "run"
    code = main([verb, *model, "--data", str(tmp_path / "missing.csv"), "--split-fraction", fraction, "--out", str(out)])
    assert code == 2
    bounds = "(0, 1]" if verb == "train" else "(0, 1)"
    message = f"config error: {verb} split fraction (--split-fraction) must be in {bounds}, got {float(fraction)}\n"
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "verb, ratio",
    [("sweep", r) for r in (1.4, 1.0, 0.0, -0.1)] + [("benchmark", r) for r in (1.5, 0.0, -0.1)],
)
def test_out_of_range_ratio_fails_before_any_file_is_read(tmp_path, capsys, monkeypatch, verb, ratio, source):
    # sweep and benchmark split once per entry of --ratios; benchmark alone may train on every record
    def refuse(*args, **kwargs):
        raise AssertionError("a file was read before --ratios was checked")

    monkeypatch.setattr(cli, "load_csv", refuse)
    config = tmp_path / "ratios.json"
    config.write_text(json.dumps({"ratios": [0.5, ratio]}))
    ratios = ["--ratios", f"0.5,{ratio}"] if source == "flag" else ["--config", str(config)]
    out = tmp_path / "run"
    code = main([verb, "--data", str(tmp_path / "missing.csv"), *ratios, "--out", str(out)])
    assert code == 2
    name = "sweep ratios (--ratios) must be in (0, 1)" if verb == "sweep" else "benchmark fractions (--ratios) must be in (0, 1]"
    assert f"config error: {name}, got {ratio}\n" in capsys.readouterr().err
    assert not out.exists()


def _valid_value(key):
    """A value of `key` that some verb takes, as a config value and as flag text."""
    value = next(default for default, *_ in cli.OPTIONS[key][1].values() if default is not None)
    return value, cli._shown(value)


@pytest.mark.parametrize(
    "verb, key",
    [(verb, key) for verb in cli.COMMANDS for key, (_, verbs) in cli.OPTIONS.items() if verb not in verbs],
)
def test_config_key_is_refused_wherever_its_flag_is(tmp_path, capsys, monkeypatch, verb, key):
    def refuse(*args, **kwargs):
        raise AssertionError("a file was read before the config was checked")

    monkeypatch.setattr(cli, "load_model", refuse)
    monkeypatch.setattr(cli, "load_csv", refuse)
    value, text = _valid_value(key)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    model = ["model.json"] if verb == "evaluate" else []
    out = tmp_path / "run"
    code = main([verb, *model, "--data", "x.csv", "--config", str(config), "--out", str(out)])
    assert code == 2
    assert f"config error: config: {verb} does not take {key}\n" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit) as exit_info:
        main([verb, *model, "--" + key.replace("_", "-"), text])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("ratios", ["0.8", ""])
@pytest.mark.parametrize("verb", ["evaluate", "param-sweep"])
def test_ratios_flag_is_refused_where_a_single_split_is_made(tmp_path, capsys, verb, ratios):
    # an empty list no longer means "score the whole file" on evaluate alone
    model = [str(perfect_model(tmp_path))] if verb == "evaluate" else []
    with pytest.raises(SystemExit) as exit_info:
        main([verb, *model, "--data", str(tmp_path / "missing.csv"), "--ratios", ratios])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: --ratios {ratios}".strip() in capsys.readouterr().err


def test_split_fraction_flag_sets_the_train_split(tmp_path, data_csv, fast_config, capsys):
    argv = ["train", "--data", str(data_csv), "--config", str(fast_config), "--out", str(tmp_path)]
    assert main([*argv, "--split-fraction", "0.5"]) == 0
    assert capsys.readouterr().out.count("(30 records") == 2  # the train and held-out sides
    assert main([*argv, "--split-fraction", "1"]) == 0
    printed = capsys.readouterr().out
    assert "(60 records)" in printed and "held-out" not in printed


def test_evaluate_refuses_a_negative_seed_without_a_split(tmp_path, data_csv, capsys):
    code = main(["evaluate", str(perfect_model(tmp_path)), "--data", str(data_csv), "--seed", "-1"])
    assert code == 2
    assert "config error: seed must be a non-negative integer, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("ratios", ["0.8", ""])
def test_sweep_refuses_a_negative_seed_before_any_file_is_read(tmp_path, capsys, monkeypatch, ratios):
    # even a sweep with no ratio, and so no cell, refuses it
    def refuse(*args, **kwargs):
        raise AssertionError("a file was read before --seeds was checked")

    monkeypatch.setattr(cli, "load_csv", refuse)
    out = tmp_path / "run"
    code = main(["sweep", "--data", str(tmp_path / "missing.csv"), "--ratios", ratios, "--seeds", "0,-1", "--out", str(out)])
    assert code == 2
    assert "config error: seed must be a non-negative integer, got -1\n" in capsys.readouterr().err
    assert not out.exists()


def test_train_refuses_a_configured_optimizer_before_any_file_is_read(tmp_path, capsys, monkeypatch):
    # the flag's choices refuse it while parsing; a config value before the data is read
    def refuse(*args, **kwargs):
        raise AssertionError("a file was read before the optimizer was checked")

    monkeypatch.setattr(cli, "load_csv", refuse)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"optimizer": "sgd"}))
    out = tmp_path / "run"
    code = main(["train", "--data", str(tmp_path / "missing.csv"), "--config", str(config), "--out", str(out)])
    assert code == 2
    message = "config error: optimizer must be one of ('bso-ewma', 'bso-plain', 'ga'), got 'sgd'\n"
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["train", "evaluate"])
def test_a_failed_run_leaves_no_output_directory(tmp_path, capsys, verb):
    out = tmp_path / "new" / "run"
    model = [str(perfect_model(tmp_path))] if verb == "evaluate" else []
    code = main([verb, *model, "--data", str(tmp_path / "missing.csv"), "--out", str(out)])
    assert code == 3
    assert "data file not found" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_out_below_a_file_is_a_config_error_before_any_work(tmp_path, capsys):
    (tmp_path / "afile").write_text("keep")
    code = main(["train", "--data", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "afile" / "run")])
    assert code == 2
    assert f"{tmp_path / 'afile'} is not a directory" in capsys.readouterr().err


def test_evaluate_of_a_directory_is_a_data_error(tmp_path, data_csv, capsys):
    code = main(["evaluate", str(tmp_path), "--data", str(data_csv)])
    assert code == 3
    assert f"data error: model file not found: {tmp_path}" in capsys.readouterr().err


def test_one_config_drives_train_and_evaluate_on_the_same_split(tmp_path, pid_path, capsys):
    config = write_fast_config(tmp_path / "split.json", split_fraction=0.7, out=str(tmp_path / "run"))
    common = ["--data", str(pid_path), "--config", str(config), "--seed", "0"]
    assert main(["train", *common]) == 0
    held_out = capsys.readouterr().out.split("held-out accuracy: ")[1].split()[:2]
    assert held_out[1] == "(230"
    assert main(["evaluate", str(tmp_path / "run" / "model.json"), *common]) == 0
    printed = capsys.readouterr().out
    assert "records: 230\n" in printed
    assert f"accuracy: {held_out[0]}\n" in printed


# argparse wraps help to the terminal width; COLUMNS=80 fixes it.
HELP = {
    "": """\
usage: rulestorm [-h] {train,evaluate,sweep,param-sweep,benchmark} ...

Train and study weighted fuzzy rule classifiers.

positional arguments:
  {train,evaluate,sweep,param-sweep,benchmark}
    train               fit a model, write model.json and trace.csv
    evaluate            score a saved model on a dataset
    sweep               train per (ratio, optimizer, seed) cell, write
                        sweep.csv
    param-sweep         vary averaging weight and anneal slope, write
                        param_sweep.csv
    benchmark           iterations/time to reach a target value, write
                        benchmark.csv

options:
  -h, --help            show this help message and exit
""",
    "train": """\
usage: rulestorm train [-h] [--config CONFIG] [--data DATA] [--label LABEL]
                       [--out OUT] [--seed SEED]
                       [--split-fraction SPLIT_FRACTION]
                       [--optimizer {bso-ewma,bso-plain,ga}]

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON config file; flags override it
  --data DATA           CSV file of attributes plus one label column
  --label LABEL         label column: header name, or 0-based index for
                        headerless files
  --out OUT             output directory (default .)
  --seed SEED           seed for the data split and the optimizer (default 0)
  --split-fraction SPLIT_FRACTION
                        train share of the held-out split; 1 trains on every
                        record (default 0.8)
  --optimizer {bso-ewma,bso-plain,ga}
                        search backend (default bso-ewma)
""",
    "evaluate": """\
usage: rulestorm evaluate [-h] [--config CONFIG] [--data DATA] [--label LABEL]
                          [--out OUT] [--seed SEED]
                          [--split-fraction SPLIT_FRACTION]
                          model

positional arguments:
  model                 model.json produced by train

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON config file; flags override it
  --data DATA           CSV file of attributes plus one label column
  --label LABEL         label column: header name, or 0-based index for
                        headerless files
  --out OUT             directory to write predictions.csv to (default: none
                        written)
  --seed SEED           seed for the --split-fraction split (default 0)
  --split-fraction SPLIT_FRACTION
                        score the held-out side of the split with this train
                        share (default: score the whole file)
""",
    "sweep": """\
usage: rulestorm sweep [-h] [--config CONFIG] [--data DATA] [--label LABEL]
                       [--out OUT] [--ratios RATIOS] [--seeds SEEDS]
                       [--optimizer OPTIMIZER]

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON config file; flags override it
  --data DATA           CSV file of attributes plus one label column
  --label LABEL         label column: header name, or 0-based index for
                        headerless files
  --out OUT             output directory (default .)
  --ratios RATIOS       train fractions (default 0.7,0.75,0.8,0.85)
  --seeds SEEDS         cell seeds (default 0,1,2,3,4)
  --optimizer OPTIMIZER
                        search backends (default bso-ewma,bso-plain,ga)
""",
    "param-sweep": """\
usage: rulestorm param-sweep [-h] [--config CONFIG] [--data DATA]
                             [--label LABEL] [--out OUT] [--seed SEED]
                             [--split-fraction SPLIT_FRACTION]
                             [--e-values E_VALUES] [--k-values K_VALUES]

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON config file; flags override it
  --data DATA           CSV file of attributes plus one label column
  --label LABEL         label column: header name, or 0-based index for
                        headerless files
  --out OUT             output directory (default .)
  --seed SEED           seed for the data split and the optimizer (default 0)
  --split-fraction SPLIT_FRACTION
                        train share of the held-out split (default 0.8)
  --e-values E_VALUES   averaging weights in (0, 1] (default
                        0.2,0.4,0.6,0.8,1)
  --k-values K_VALUES   anneal slope divisors > 0 (default 5,10,20,40)
""",
    "benchmark": """\
usage: rulestorm benchmark [-h] [--config CONFIG] [--data DATA]
                           [--label LABEL] [--out OUT] [--seed SEED]
                           [--ratios RATIOS] [--threshold THRESHOLD]
                           [--optimizer OPTIMIZER]

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON config file; flags override it
  --data DATA           CSV file of attributes plus one label column
  --label LABEL         label column: header name, or 0-based index for
                        headerless files
  --out OUT             output directory (default .)
  --seed SEED           seed for the data split and the optimizer (default 0)
  --ratios RATIOS       training-data fractions in (0,1] (default 0.25,0.5,1)
  --threshold THRESHOLD
                        target best objective value (default 0.7)
  --optimizer OPTIMIZER
                        search backends (default bso-ewma,bso-plain,ga)
""",
}


@pytest.mark.parametrize("verb", HELP)
def test_help_text(capsys, monkeypatch, verb):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([verb, "--help"] if verb else ["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == HELP[verb]


def test_readme_option_table_matches_the_cli_table():
    """README lists one row per option and default: its flag, its config
    key, the verbs that take it with that default, the default and the
    config type."""
    want = {}
    for key, (kind, verbs) in cli.OPTIONS.items():
        for verb, (default, *_) in verbs.items():
            flag = f"`--{key.replace('_', '-')}`"
            shown = "none" if default is None else f"`{cli._shown(default)}`"
            want.setdefault((flag, f"`{key}`", shown, kind.text), set()).add(verb)
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    start = lines.index("| Flag | Config key | Verbs | Default | Config type |")
    rows = itertools.takewhile(lambda line: line.startswith("| "), lines[start + 2:])
    got = {}
    for row in rows:
        flag, key, names, default, kind = row[2:-2].split(" | ")
        got[flag, key, default, kind] = set(names.split(", "))
    assert got == want


def test_readme_settings_table_matches_the_records():
    """README lists one row per settable key of the training settings and of
    the fitness_weights, bso and ga sections: its default, type and the
    bounds its record declares."""
    kinds = {"int": "an integer", "float": "a number", "bool": "true or false"}
    want = []
    for prefix, record in (("", ExperimentSettings), ("fitness_weights.", FitnessWeights), ("bso.", BsoParams), ("ga.", GaParams)):
        for f in dataclasses.fields(record):
            if f.type in kinds and f.name != "seed":
                bounds = record.BOUNDS.get(f.name, "none")
                want.append(f"| `{prefix}{f.name}` | `{json.dumps(f.default)}` | {kinds[f.type]} | {bounds} |")
    assert len(want) == 27 and [f.name for f in dataclasses.fields(ExperimentSettings) if f.type in kinds] == list(cli.SETTINGS_KEYS)
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    start = lines.index("| Config key | Default | Type | Bounds |")
    assert list(itertools.takewhile(lambda line: line.startswith("| "), lines[start + 2:])) == want
