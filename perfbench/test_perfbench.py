"""The benchmark's own tests: a wrong output must be counted as failed.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from rulestorm import cli, inference, rules, training  # noqa: E402

SEED = 987


def run_worker(tmp_path, workload, reference=HERE / "reference.json"):
    """One operation through the worker's own loop; returns its JSON result."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = worker.main([
            "--mode", "run", "--workload", workload, "--seed", str(SEED), "--ops", "1",
            "--inputs", str(tmp_path), "--out", str(tmp_path / "out"),
            "--reference", str(reference),
        ])
    assert code == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def flip_first_prediction(monkeypatch, module):
    original = inference.predict_dataset

    def wrong(model, ds, sum_scores=False):
        preds, scores = original(model, ds, sum_scores)
        preds = preds.copy()
        preds[0] = 3 - preds[0]
        return preds, scores

    monkeypatch.setattr(module, "predict_dataset", wrong)


def test_recorded_output_passes_and_a_changed_model_fails(tmp_path, monkeypatch):
    assert run_worker(tmp_path, "train-pima")["failed"] == 0

    original = training.with_weights

    def heavier(rs, ld, decimals=None):
        out = original(rs, ld, decimals)
        first = replace(out.rules[0], weight=min(1.0, out.rules[0].weight + 0.0001))
        return replace(out, rules=(first, *out.rules[1:]))

    monkeypatch.setattr(training, "with_weights", heavier)
    result = run_worker(tmp_path, "train-pima")
    assert result["failed"] == 1
    assert any("model differs from the reference" in p for p in result["problems"])


def test_unrecorded_output_is_checked_against_the_oracle(tmp_path, monkeypatch):
    unrecorded = tmp_path / "none.json"
    assert run_worker(tmp_path, "train-pima", unrecorded)["failed"] == 0
    flip_first_prediction(monkeypatch, inference)
    result = run_worker(tmp_path, "train-pima", unrecorded)
    assert result["failed"] == 1
    assert any("oracle" in p for p in result["problems"])


def test_a_raising_operation_is_counted(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(training, "decode", broken)
    result = run_worker(tmp_path, "train-pima")
    assert (result["attempted"], result["failed"]) == (1, 1)


def test_score_predictions_are_checked(tmp_path, monkeypatch):
    gen.write_table(ROOT / "data" / "pima.csv", tmp_path / "score.csv", 400, SEED)
    shutil.copyfile(HERE / "score_model.json", tmp_path / "model.json")
    assert run_worker(tmp_path, "score")["failed"] == 0
    flip_first_prediction(monkeypatch, cli)
    result = run_worker(tmp_path, "score")
    assert result["failed"] == 1


def test_trace_invariants():
    records = [SimpleNamespace(best_value=v, evaluations=e) for v, e in ((0.5, 4), (0.4, 8))]
    run = SimpleNamespace(
        trace=SimpleNamespace(records=records, best_values=lambda: [0.5, 0.4]), evaluations=8
    )
    assert worker.trace_problems(run, 4, 4, 1) == ["best-value trace decreases"]
    assert len(worker.trace_problems(run, 4, 3, 1)) == 2


def test_self_time_subtracts_children_and_targets_are_restored():
    original = rules.decode

    def outer():
        return rules.decode(np.zeros(1), None)

    holder = {"outer": outer}
    with tracer.installed([(rules, "decode", None), (holder, "outer", None)]) as rec:
        with pytest.raises(Exception):
            holder["outer"]()
    assert rules.decode is original and holder["outer"] is outer
    assert rec.names[1] == "rules.decode" and rec.parents == [-1, 0]
    summary = rec.summary()
    outer_span = summary[rec.names[0]]
    assert outer_span["self_s"] == pytest.approx(
        outer_span["incl_s"] - summary["rules.decode"]["incl_s"]
    )


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
