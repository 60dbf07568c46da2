"""One benchmark run inside a fresh process.

`run.py` starts this file with `PYTHONPATH` set to the checkout's `src` and
`PERFBENCH_T0` set to the monotonic clock reading taken just before the
process was started. The worker imports the program, sets the workload up,
then runs operations one after another (a closed loop with one caller) until
the time is spent, checks every output, and prints one JSON line.

Modes:
  probe  set up only and report the set-up time;
  run    set up, then time untraced operations;
  trace  set up under tracing, then alternate an untraced and a traced run
         of the same operation and report per-layer figures.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Shortened runs: lowering max_iterations also rescales the anneal schedule,
# and the record counts stay those of the full workloads.
PIMA_ITERATIONS = 30
WIDE_GENERATIONS = 2
# Operations of a train run cycle through optimizer seeds 0..OP_SEEDS-1,
# starting at the workload seed, so that every run covers nearly the same
# work. A train-pima operation with seed t does what `rulestorm train --seed t`
# does with bso.max_iterations=30, and every one has a reference digest.
OP_SEEDS = 6
SPLIT_FRACTION = 0.8
# Held-out records checked against the scalar classify oracle per operation.
ORACLE_RECORDS = 1000
SCORE_ORACLE_ROWS = 300

WORKLOADS = ("train-pima", "train-wide", "score")
LAYERS = (
    "dataset", "membership", "rules", "fitness", "training", "search",
    "bso", "ga", "inference", "model_io", "cli",
)


def sha256_file(path: Path) -> str:
    with open(path, "rb") as fh:
        digest = hashlib.sha256()
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def trace_digest(path: Path) -> str:
    """Digest of trace.csv with the wall-clock elapsed_ms column dropped."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("elapsed_ms")
    text = "\n".join(",".join(c for j, c in enumerate(r) if j != drop) for r in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def import_program() -> dict[str, float]:
    """Import the program the way the CLI does, timing the scipy share."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import scipy.special  # noqa: F401
    t2 = time.perf_counter()
    import rulestorm.cli
    t3 = time.perf_counter()
    if not Path(rulestorm.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"rulestorm imported from {rulestorm.cli.__file__}, not {SRC}")
    return {"import_s": t3 - t0, "import_scipy_s": t2 - t1}


# ---------------------------------------------------------------- checks


def trace_problems(run, population: int, per_iteration: int, iterations: int) -> list[str]:
    """Invariants of a returned search run that hold for every seed."""
    problems = []
    best = run.trace.best_values()
    if any(b < a for a, b in zip(best, best[1:])):
        problems.append("best-value trace decreases")
    if len(run.trace.records) != iterations + 1:
        problems.append(f"{len(run.trace.records) - 1} iterations run, expected {iterations}")
    expected = population + per_iteration * iterations
    if run.evaluations != expected or run.trace.records[-1].evaluations != expected:
        problems.append(
            f"evaluation count {run.evaluations} (trace {run.trace.records[-1].evaluations}),"
            f" expected {expected}"
        )
    return problems


def oracle_problems(model, test, limit: int) -> list[str]:
    """Held-out predictions must equal the scalar classify oracle."""
    from rulestorm import inference

    preds, scores = inference.predict_dataset(model, test)
    for i in range(min(test.n, limit)):
        cls, score = inference.classify(model, test.x[i])
        if cls != preds[i] or score != scores[i]:
            return [f"record {i}: predicted {preds[i]} ({scores[i]!r}), oracle {cls} ({score!r})"]
    return []


def digest_problems(actual: dict, expected: dict | None) -> list[str]:
    if expected is None:
        return []
    return [
        f"{key} differs from the reference"
        for key, value in expected.items()
        if actual.get(key) != value
    ]


# ---------------------------------------------------------------- workloads


@dataclass
class Run:
    workload: str
    seed: int
    inputs: Path
    out: Path
    reference: dict
    state: dict = field(default_factory=dict)

    def op_seed(self, k: int) -> int:
        """Optimizer seed of the k-th operation; train-pima also splits by it."""
        return (self.seed + k) % OP_SEEDS

    def reference_key(self, k: int) -> str:
        if self.workload == "train-pima":
            return str(self.op_seed(k))
        if self.workload == "train-wide":
            return f"{self.seed}/{self.op_seed(k)}"
        return str(self.seed)

    def expected(self, k: int) -> dict | None:
        return self.reference.get(self.workload, {}).get(self.reference_key(k))


def setup(run: Run) -> None:
    from rulestorm import dataset, model_io

    if run.workload == "score":
        run.state["model"] = model_io.load_model(run.inputs / "model.json")
        return
    if run.workload == "train-pima":
        ds = dataset.load_csv(ROOT / "data" / "pima.csv")
        seeds = range(OP_SEEDS)
    else:
        ds = dataset.load_csv(run.inputs / "wide.csv")
        seeds = (run.seed,)
    run.state["loaded"] = ds.n
    run.state["splits"] = {
        t: dataset.split(ds, dataset.SplitSpec(fraction=SPLIT_FRACTION, seed=t)) for t in seeds
    }


def split_of(run: Run, k: int):
    """(train, test) used by the k-th operation."""
    splits = run.state["splits"]
    return splits[run.op_seed(k)] if run.workload == "train-pima" else splits[run.seed]


def operation(run: Run, k: int):
    """The timed work of one operation; returns what the check needs."""
    from rulestorm import bso, cli, ga, model_io, training

    if run.workload == "score":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([
                "evaluate", str(run.inputs / "model.json"),
                "--data", str(run.inputs / "score.csv"), "--out", str(run.out),
            ])
        return code, buf.getvalue()
    train, _ = split_of(run, k)
    if run.workload == "train-pima":
        result = training.train_model(
            train, optimizer="bso-ewma",
            bso_params=bso.BsoParams(max_iterations=PIMA_ITERATIONS, seed=run.op_seed(k)),
        )
    else:
        result = training.train_model(
            train, optimizer="ga",
            ga_params=ga.GaParams(generations=WIDE_GENERATIONS, seed=run.op_seed(k)),
        )
    model_io.save_model(result.model, run.out / "model.json")
    return result


def check(run: Run, k: int, output) -> tuple[dict, list[str], int, int]:
    """(digests, problems, objective calls, records scored) of one operation."""
    if run.workload == "score":
        return check_score(run, output)
    from rulestorm import model_io

    result = output
    result.run.trace.write_csv(run.out / "trace.csv")
    digests = {
        "model": sha256_file(run.out / "model.json"),
        "trace": trace_digest(run.out / "trace.csv"),
    }
    problems = digest_problems(digests, run.expected(k))
    if run.workload == "train-pima":
        problems += trace_problems(result.run, 50, 50, PIMA_ITERATIONS)
    else:
        problems += trace_problems(result.run, 50, 49, WIDE_GENERATIONS)
    train, test = split_of(run, k)
    model = model_io.load_model(run.out / "model.json")
    problems += oracle_problems(model, test, ORACLE_RECORDS)
    calls = result.run.evaluations
    return digests, problems, calls, calls * train.n


def check_score(run: Run, output) -> tuple[dict, list[str], int, int]:
    from rulestorm import inference

    code, printed = output
    if code != 0:
        return {}, [f"evaluate exited with {code}"], 1, 0
    model = run.state["model"]
    positive = repr(max(model.class_values))
    counts = dict.fromkeys(("tp", "fp", "tn", "fn"), 0)
    # One streaming pass that keeps only the rows the oracle checks, so the
    # check adds next to nothing to the measured process's peak_rss_mb.
    rows, n_rows = [], 0
    with open(run.out / "predictions.csv", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            _, true, pred, _ = row
            counts[("t" if true == pred else "f") + ("p" if pred == positive else "n")] += 1
            if n_rows < SCORE_ORACLE_ROWS:
                rows.append(row)
            n_rows += 1
    confusion = [counts[key] for key in ("tp", "fp", "tn", "fn")]
    digests = {"predictions": sha256_file(run.out / "predictions.csv"), "confusion": confusion}
    problems = digest_problems(digests, run.expected(0))
    if f"confusion: tp={confusion[0]} fp={confusion[1]} tn={confusion[2]} fn={confusion[3]}" not in printed:
        problems.append("printed confusion counts disagree with predictions.csv")
    with open(run.inputs / "score.csv", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        source = [row for _, row in zip(range(SCORE_ORACLE_ROWS), reader)]
    if n_rows != run.state.setdefault("rows", n_rows):
        problems.append(f"{n_rows} predictions, earlier operations wrote {run.state['rows']}")
    for i, row in enumerate(source):
        cls, score = inference.classify(model, [float(v) for v in row[:-1]])
        expected = (repr(float(row[-1])), repr(model.class_values[cls - 1]), repr(score))
        if tuple(rows[i][1:]) != expected:
            problems.append(f"row {i}: wrote {rows[i][1:]}, oracle {list(expected)}")
            break
    return digests, problems, 1, n_rows


# ---------------------------------------------------------------- tracing


def trace_targets():
    """Every place a module of the program looks up another layer's function."""
    from rulestorm import (
        bso, cli, dataset, ga, inference, membership, model_io, rules, search, training,
    )

    def keep_values(args, result):
        return args[1].copy()

    def keep_result(args, result):
        return result

    return [
        (dataset, "load_csv", None), (dataset, "split", None),
        (cli, "load_csv", None),
        (training, "attribute_stats", None), (training, "majority_class", None),
        (training, "build_partition", None), (training, "fuzzify_dataset", None),
        (training, "degree_matrix", None), (membership, "degree_matrix", None),
        (inference, "degree_matrix", None),
        (training, "decode", keep_result), (training, "match_mask", None),
        (training, "with_weights", None), (training, "genotype_bounds", None),
        (rules, "match_mask", None),
        (training, "balance_score", None),
        (training, "train_model", None),
        (training.RuleObjective, "__call__", None),
        (training.RuleObjective, "_train_accuracy", None),
        (bso, "evaluate_objective", None), (bso, "sample_population", None),
        (ga, "evaluate_objective", None), (ga, "sample_population", None),
        (search.TraceBuilder, "record", None),
        (bso, "run", keep_result), (bso, "cluster_population", keep_values),
        (bso, "select_base", None), (bso, "generate_candidate", None),
        (ga, "run_ga", None), (ga, "tournament_pick", None),
        (cli, "main", None), (cli.COMMANDS, "evaluate", None),
        (cli, "evaluate_model", None), (cli, "predict_dataset", None),
        (inference, "predict_dataset", None), (inference, "binary_counts", None),
        (model_io, "save_model", None), (model_io, "load_model", None),
        (cli, "load_model", None),
    ]


def search_shares(rec) -> dict[str, float]:
    """Search-efficiency shares, from values seen at the traced boundaries."""
    out = dict.fromkeys(
        ("rules.distinct_rule_share", "rules.distinct_ruleset_share",
         "bso.improved_slot_share", "bso.evals_after_last_gain_share"), 0.0)
    objective = "training.RuleObjective.__call__"
    decoded = [
        rs for idx, rs in rec.kept.get("rules.decode", [])
        if rec.parents[idx] >= 0 and rec.names[rec.parents[idx]] == objective
    ]
    if decoded:
        rules = [(r.antecedents, r.connective) for rs in decoded for r in rs.rules]
        sets = {tuple((r.antecedents, r.consequent, r.connective) for r in rs.rules) for rs in decoded}
        out["rules.distinct_rule_share"] = len(set(rules)) / len(rules)
        out["rules.distinct_ruleset_share"] = len(sets) / len(decoded)
    runs = rec.kept.get("bso.run", [])
    if runs:
        import numpy as np

        final = runs[-1][1]
        seen = [v for _, v in rec.kept["bso.cluster_population"]]
        seen.append(np.array([ind.evaluation.value for ind in final.population]))
        improved = sum(int(np.sum(b != a)) for a, b in zip(seen, seen[1:]))
        out["bso.improved_slot_share"] = improved / (len(final.population) * (len(seen) - 1))
        records = final.trace.records
        gain = max(
            (i for i in range(1, len(records)) if records[i].best_value > records[i - 1].best_value),
            default=0,
        )
        out["bso.evals_after_last_gain_share"] = (
            (final.evaluations - records[gain].evaluations) / final.evaluations
        )
    return out


def layer_metrics(setup_rec, rec, result, wall: float, rows_loaded: int) -> dict[str, float]:
    """Per-layer figures of the traced set-up plus one traced operation."""
    import numpy as np

    op = rec.summary()
    both = dict(op)
    for name, s in setup_rec.summary().items():
        if name in both:
            both[name] = {
                "calls": both[name]["calls"] + s["calls"],
                "incl_s": both[name]["incl_s"] + s["incl_s"],
                "self_s": both[name]["self_s"] + s["self_s"],
                "durations": np.concatenate([both[name]["durations"], s["durations"]]),
            }
        else:
            both[name] = s
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "durations": np.zeros(0)}

    def get(name):
        return both.get(name, empty)

    objective = get("training.RuleObjective.__call__")
    durations = objective["durations"]
    load = get("dataset.load_csv")
    m = {
        "training.objective_calls": objective["calls"],
        "training.objective_self_s": objective["self_s"],
        "training.objective_us_p50": float(np.percentile(durations, 50)) * 1e6 if len(durations) else 0.0,
        "training.objective_us_p99": float(np.percentile(durations, 99)) * 1e6 if len(durations) else 0.0,
        "training.train_accuracy_s": get("training.RuleObjective._train_accuracy")["incl_s"],
        "rules.decode_calls": get("rules.decode")["calls"],
        "rules.decode_s": get("rules.decode")["incl_s"],
        "rules.match_mask_calls": get("rules.match_mask")["calls"],
        "rules.match_mask_s": get("rules.match_mask")["incl_s"],
        "rules.with_weights_s": get("rules.with_weights")["incl_s"],
        "fitness.balance_score_s": get("fitness.balance_score")["incl_s"],
        "search.evaluate_objective_s": get("search.evaluate_objective")["self_s"],
        "search.trace_record_s": get("search.TraceBuilder.record")["incl_s"],
        "bso.cluster_calls": get("bso.cluster_population")["calls"],
        "bso.cluster_s": get("bso.cluster_population")["incl_s"],
        "bso.select_base_s": get("bso.select_base")["incl_s"],
        "bso.generate_s": get("bso.generate_candidate")["incl_s"],
        "ga.generations": (len(result.run.trace.records) - 1) if "ga.run_ga" in op else 0,
        "ga.tournament_s": get("ga.tournament_pick")["incl_s"],
        "ga.breed_self_s": get("ga.run_ga")["self_s"],
        "dataset.load_csv_s": load["incl_s"],
        "dataset.load_csv_rows_per_s": rows_loaded / load["incl_s"] if load["calls"] else 0.0,
        "dataset.split_s": get("dataset.split")["incl_s"],
        "membership.degree_matrix_calls": get("membership.degree_matrix")["calls"],
        "membership.degree_matrix_s": get("membership.degree_matrix")["incl_s"],
        "membership.fuzzify_dataset_s": get("membership.fuzzify_dataset")["incl_s"],
        "inference.predict_dataset_calls": get("inference.predict_dataset")["calls"],
        "inference.predict_dataset_s": get("inference.predict_dataset")["incl_s"],
        "inference.evaluate_model_s": get("inference.evaluate_model")["incl_s"],
        "model_io.save_model_s": get("model_io.save_model")["incl_s"],
        "model_io.load_model_s": get("model_io.load_model")["incl_s"],
        "cli.evaluate_self_s": get("cli.cmd_evaluate")["self_s"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            s["self_s"] for name, s in both.items() if name.split(".", 1)[0] == layer
        )
    covered = sum(s["self_s"] for s in op.values())
    m["trace.covered_share"] = covered / wall
    m["trace.spans"] = len(rec.names)
    m.update(search_shares(rec))
    return m


# ---------------------------------------------------------------- main loop


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(run: Run, k: int):
    t0, c0 = time.perf_counter(), time.process_time()
    output = operation(run, k)
    return output, time.perf_counter() - t0, time.process_time() - c0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", type=int, default=0, help="run exactly this many operations")
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    args = parser.parse_args(argv)
    t_spawn = float(os.environ.get("PERFBENCH_T0", time.perf_counter()))

    imports = import_program()
    import numpy
    import scipy

    import tracer

    args.out.mkdir(parents=True, exist_ok=True)
    reference = json.loads(args.reference.read_text()) if args.reference.is_file() else {}
    run = Run(args.workload, args.seed, args.inputs, args.out, reference)

    if args.mode == "trace":
        with tracer.installed(trace_targets()) as setup_rec:
            setup(run)
    else:
        setup(run)
    t_begin = time.perf_counter()
    result = {"setup_s": t_begin - t_spawn, **imports}
    if args.mode == "probe":
        print(json.dumps(result))
        return 0

    walls, cpus, traced_walls, calls, records, layers, digests = [], [], [], [], [], [], []
    attempted = failed = 0
    problems: list[str] = []

    def one(k: int, traced: bool) -> None:
        nonlocal attempted, failed
        attempted += 1
        try:
            if traced:
                with tracer.installed(trace_targets()) as rec:
                    output, wall, cpu = timed(run, k)
            else:
                output, wall, cpu = timed(run, k)
            found, wrong, n_calls, n_records = check(run, k, output)
        except Exception:
            failed += 1
            problems.append(f"op {k}: {traceback.format_exc(limit=3)}")
            return
        digests.append([run.reference_key(k), found])
        if wrong:
            failed += 1
            problems.extend(f"op {k}: {p}" for p in wrong)
            return
        if traced:
            traced_walls.append(wall)
            train_result = output if run.workload != "score" else None
            rows_loaded = run.state.get("loaded") or run.state["rows"]
            layers.append(layer_metrics(setup_rec, rec, train_result, wall, rows_loaded))
            rec.write_csv(run.out / "spans.csv")
        else:
            walls.append(wall)
            cpus.append(cpu)
            calls.append(n_calls)
            records.append(n_records)

    k = 0
    while True:
        if args.mode == "trace":
            one(0, traced=False)
            one(0, traced=True)
        else:
            one(k, traced=False)
        k += 1
        elapsed = time.perf_counter() - t_begin
        if args.ops:
            if k >= args.ops:
                break
        elif elapsed + elapsed / k > args.seconds:
            break

    result.update(
        attempted=attempted, failed=failed, problems=problems[:20], digests=digests,
        walls=walls, cpus=cpus, calls=calls, records=records,
        peak_rss_mb=peak_rss_mb(),
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    )
    if args.mode == "trace" and layers:
        merged = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        merged["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        merged["import_s"] = imports["import_s"]
        merged["import_scipy_s"] = imports["import_scipy_s"]
        result["layers"] = merged
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
