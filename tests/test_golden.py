"""Pinned output bytes of `rulestorm train`.

Each case runs `rulestorm train` in-process and compares sha256 digests of
its model.json, of its trace.csv without the wall-clock elapsed_ms column and
of its stdout (output directory replaced by OUT) with tests/golden.json. A
change to the program that alters any result fails here. After a change that
alters results on purpose, re-record the digests, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from rulestorm.cli import main

ROOT = Path(__file__).resolve().parent.parent
PIMA = ROOT / "data" / "pima.csv"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

# name: (config, extra train arguments, constant first column)
CASES = {
    "bso-ewma-defaults": ({}, ["--optimizer", "bso-ewma"], False),
    "bso-plain-defaults": ({}, ["--optimizer", "bso-plain"], False),
    "ga-defaults": ({}, ["--optimizer", "ga"], False),
    # the logistic ramp falls from about 1 to about 0 within the run
    "bso-annealed": ({"bso": {"max_iterations": 60, "slope_divisor": 2.4}}, [], False),
    "ga-stagnation": ({"ga": {"generations": 200, "stagnation_window": 5}}, ["--optimizer", "ga"], False),
    "sum-scores": ({"sum_scores": True, "bso": {"max_iterations": 30}}, [], False),
    "accuracy-weight-0": ({"accuracy_weight": 0, "bso": {"max_iterations": 30}}, [], False),
    "constant-column": ({"bso": {"max_iterations": 30}}, ["--optimizer", "bso-plain"], True),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trace_rows(path: Path) -> list[list[str]]:
    """trace.csv rows without the wall-clock elapsed_ms column."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    drop = rows[0].index("elapsed_ms")
    return [row[:drop] + row[drop + 1 :] for row in rows]


def run_case(name: str, work: Path) -> tuple[dict, list[list[str]]]:
    """Digests of one case's train run, and its trace rows."""
    config, extra, constant = CASES[name]
    data = PIMA
    if constant:
        header, *body = PIMA.read_text().splitlines()
        data = work / "pima-constant.csv"
        data.write_text("\n".join([f"Flat,{header}"] + [f"7,{row}" for row in body]) + "\n")
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config))
    out = work / "out"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the constant column's warning
        code = main(["train", "--data", str(data), "--config", str(config_path),
                     "--seed", "0", "--out", str(out), *extra])
    assert code == 0
    rows = trace_rows(out / "trace.csv")
    digests = {
        "model": sha256((out / "model.json").read_bytes()),
        "trace": sha256("\n".join(",".join(row) for row in rows).encode()),
        "stdout": sha256(printed.getvalue().replace(str(out), "OUT").encode()),
    }
    return digests, rows


@pytest.mark.parametrize("name", sorted(CASES))
def test_train_outputs_match_golden_digests(name, tmp_path):
    digests, rows = run_case(name, tmp_path)
    if name == "ga-stagnation":  # header, generation 0 and fewer than 200 generations
        assert len(rows) < 1 + 1 + 200
    assert digests == json.loads(GOLDEN.read_text())[name]


def test_golden_file_has_exactly_the_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    recorded = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as work:
            recorded[case] = run_case(case, Path(work))[0]
        print(case, recorded[case]["model"][:12], file=sys.stderr)
    GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
