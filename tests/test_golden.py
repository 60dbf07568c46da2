"""Pinned output bytes of the `rulestorm` verbs.

Each train case runs `rulestorm train` in-process and compares sha256 digests
of its model.json, of its trace.csv without the wall-clock elapsed_ms column
and of its stdout (output directory replaced by OUT) with tests/golden.json.
Each CLI case does the same for the file another verb writes (benchmark.csv
without its elapsed_ms_to_threshold column) and its stdout without the
"(… ms)" figures. A change to the program that alters any result fails here.
After a change that alters results on purpose, re-record the digests, and say
why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import csv
import hashlib
import io
import json
import re
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from rulestorm.cli import main

ROOT = Path(__file__).resolve().parent.parent
PIMA = ROOT / "data" / "pima.csv"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

OPTIMIZERS = ("bso-ewma", "bso-plain", "ga")

# name: (config, extra train arguments, seed, constant first column)
CASES = {
    **{f"{optimizer}-defaults": ({}, ["--optimizer", optimizer], 0, False) for optimizer in OPTIMIZERS},
    # the logistic ramp falls from about 1 to about 0 within the run
    "bso-annealed": ({"bso": {"max_iterations": 60, "slope_divisor": 2.4}}, [], 0, False),
    "ga-stagnation": ({"ga": {"generations": 200, "stagnation_window": 5}}, ["--optimizer", "ga"], 0, False),
    "sum-scores": ({"sum_scores": True, "bso": {"max_iterations": 30}}, [], 0, False),
    "accuracy-weight-0": ({"accuracy_weight": 0, "bso": {"max_iterations": 30}}, [], 0, False),
    "constant-column": ({"bso": {"max_iterations": 30}}, ["--optimizer", "bso-plain"], 0, True),
    # plain mode with smoothing and noise_scale off their defaults: only the
    # averaged mode may read them (noise_mean moves both modes' noise)
    "bso-plain-averaging": (
        {"bso": {"max_iterations": 30, "smoothing": 0.3, "noise_scale": 2.5, "noise_mean": 0.1}},
        ["--optimizer", "bso-plain"],
        2,
        False,
    ),
    # the default run of each optimizer on the other seeds
    **{
        f"{optimizer}-seed-{seed}": ({}, ["--optimizer", optimizer], seed, False)
        for optimizer in OPTIMIZERS
        for seed in range(1, 5)
    },
}

# the small config of `bash .github/checks.sh experiment-csvs`
SMALL = {
    "bso": {"population_size": 10, "cluster_count": 2, "max_iterations": 15},
    "ga": {"population_size": 10, "generations": 15},
}
# name: (verb and its arguments, config, file written, wall-clock column)
CLI_CASES = {
    "cli-sweep": (["sweep", "--ratios", "0.7,0.8", "--seeds", "0,1"], SMALL, "sweep.csv", None),
    "cli-param-sweep": (
        ["param-sweep", "--e-values", "0.5,1.0", "--k-values", "10,20"], SMALL, "param_sweep.csv", None
    ),
    "cli-benchmark": (
        ["benchmark", "--ratios", "0.5,1.0", "--threshold", "0.68"],
        SMALL,
        "benchmark.csv",
        "elapsed_ms_to_threshold",
    ),
    # the held-out side of the 0.8 / seed-0 split that train makes
    "cli-evaluate": (
        ["evaluate", str(ROOT / "perfbench" / "score_model.json"), "--split-fraction", "0.8", "--seed", "0"],
        {},
        "predictions.csv",
        None,
    ),
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
    config, extra, seed, constant = CASES[name]
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
                     "--seed", str(seed), "--out", str(out), *extra])
    assert code == 0
    rows = trace_rows(out / "trace.csv")
    digests = {
        "model": sha256((out / "model.json").read_bytes()),
        "trace": sha256("\n".join(",".join(row) for row in rows).encode()),
        "stdout": sha256(printed.getvalue().replace(str(out), "OUT").encode()),
    }
    return digests, rows


def without_column(path: Path, name: str | None) -> bytes:
    """The file's bytes, with the column headed `name` removed."""
    if name is None:
        return path.read_bytes()
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    drop = rows[0].index(name)
    kept = io.StringIO()
    csv.writer(kept).writerows(row[:drop] + row[drop + 1 :] for row in rows)
    return kept.getvalue().encode()


def run_cli_case(name: str, work: Path) -> dict:
    """Digests of one CLI case's output file and stdout."""
    argv, config, written, clock = CLI_CASES[name]
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config))
    out = work / "out"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main([*argv, "--data", str(PIMA), "--config", str(config_path), "--out", str(out)])
    assert code == 0
    stdout = re.sub(r" \([^()]* ms\)", "", printed.getvalue().replace(str(out), "OUT"))
    return {"file": sha256(without_column(out / written, clock)), "stdout": sha256(stdout.encode())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_train_outputs_match_golden_digests(name, tmp_path):
    digests, rows = run_case(name, tmp_path)
    if name == "ga-stagnation":  # header, generation 0 and fewer than 200 generations
        assert len(rows) < 1 + 1 + 200
    assert digests == json.loads(GOLDEN.read_text())[name]


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_outputs_match_golden_digests(name, tmp_path):
    assert run_cli_case(name, tmp_path) == json.loads(GOLDEN.read_text())[name]


def test_golden_file_has_exactly_the_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted({**CASES, **CLI_CASES})


if __name__ == "__main__":
    recorded = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as work:
            recorded[case] = run_case(case, Path(work))[0]
        print(case, recorded[case]["model"][:12], file=sys.stderr)
    for case in sorted(CLI_CASES):
        with tempfile.TemporaryDirectory() as work:
            recorded[case] = run_cli_case(case, Path(work))
        print(case, recorded[case]["file"][:12], file=sys.stderr)
    GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
