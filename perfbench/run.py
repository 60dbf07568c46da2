"""rulestorm benchmark: end-to-end and per-layer figures for three workloads.

    python3 perfbench/run.py --workload train-pima --seed 3 --seconds 36 --trace 0

runs one workload in fresh single-threaded processes from the root of a
checkout. It writes its generated inputs and outputs under `.perfbench-work/`
and prints, as the last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`. `--trace 0` gives the end-to-end metrics and
`--trace 1` the per-layer metrics of a traced run. See perfbench/README.md for
the workloads and metrics.

Other modes:
    --steadiness     run every workload on seeds 0..9, twice, and report
                     whether the two sets agree within the bounds; writes
                     perfbench/baseline.json
    --record-reference  record reference output digests for seeds 0..9
                     into perfbench/reference.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import OP_SEEDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
PIMA = ROOT / "data" / "pima.csv"
WORKER = HERE / "worker.py"

# Rows of the generated train-wide and score tables.
WIDE_ROWS = 20_000
SCORE_ROWS = 200_000
# Seeds of the steadiness sets and of the recorded reference digests.
RUNS = 10
# Extra set-up-only processes per run; setup_s is the median over these and
# the measuring process.
SETUP_PROBES = 4
# Every process of one run must have ended by then.
RUN_DEADLINE_S = 170
# Workloads whose outputs --record-reference records for every seed; a
# train-pima operation does not depend on the workload seed.
PER_SEED_REFERENCE = ("train-wide", "score")
COUNT_METRICS = (
    "training.objective_calls", "rules.decode_calls", "rules.match_mask_calls",
    "inference.predict_dataset_calls", "ga.generations",
    "rules.distinct_rule_share", "rules.distinct_ruleset_share",
    "bso.improved_slot_share", "bso.evals_after_last_gain_share",
)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def require_checkout() -> None:
    missing = [
        str(p.relative_to(ROOT))
        for p in (ROOT / "src" / "rulestorm" / "__init__.py", PIMA, ROOT / "BENCHMARK.json")
        if not p.is_file()
    ]
    if missing:
        raise BenchError(f"not a rulestorm checkout, missing: {', '.join(missing)}")


def prepare_inputs(workload: str, seed: int) -> Path:
    """Generate the seeded inputs of one workload; the program gets only these.

    A generated table is reused only by runs with the same workload, seed,
    row count, generator and source table.
    """
    import gen

    rows = {"train-wide": WIDE_ROWS, "score": SCORE_ROWS}.get(workload, 0)
    source = hashlib.sha256(Path(gen.__file__).read_bytes() + PIMA.read_bytes())
    inputs = WORK / "inputs" / f"{workload}-{seed}-{rows}-{source.hexdigest()[:16]}"
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "train-wide":
        gen.write_table(PIMA, inputs / "wide.csv", rows, seed)
    elif workload == "score":
        gen.write_table(PIMA, inputs / "score.csv", rows, seed)
        shutil.copyfile(HERE / "score_model.json", inputs / "model.json")
    return inputs


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def worker(mode: str, workload: str, seed: int, inputs: Path, *extra: str,
           deadline: float = math.inf) -> dict:
    """Start one worker process, wait for it and return its JSON result.

    The process is killed if it is still running at `deadline` (monotonic).
    """
    out = WORK / "out" / workload
    cmd = [
        sys.executable, str(WORKER), "--mode", mode, "--workload", workload,
        "--seed", str(seed), "--inputs", str(inputs), "--out", str(out), *extra,
    ]
    env = child_env()
    env["PERFBENCH_T0"] = repr(time.perf_counter())
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {mode} {workload} seed {seed} exited with {proc.returncode}")
    return json.loads(lines[-1])


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100 * (1 - 10 / n))
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, dict]:
    """(metric values, sample counts) of an untraced run."""
    walls = res["walls"]
    samples = {
        "setup_s": setups,
        "wall_s": walls,
        "cpu_s": res["cpus"],
        "evals_per_s": [c / w for c, w in zip(res["calls"], walls)],
        "records_per_s": [r / w for r, w in zip(res["records"], walls)],
    }
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["peak_rss_mb"] = res["peak_rss_mb"]
    return values, {name: len(v) for name, v in samples.items()} | {"peak_rss_mb": 1}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    inputs = prepare_inputs(workload, seed)
    load_before = os.getloadavg()
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(worker("probe", workload, seed, inputs, deadline=deadline)["setup_s"])
    res = worker(
        "trace" if trace else "run", workload, seed, inputs, "--seconds", str(seconds),
        deadline=deadline,
    )
    load_after = os.getloadavg()
    setups.append(res["setup_s"])

    for problem in res["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        **res["versions"],
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
    }
    print("env: " + json.dumps(env))
    print(f"workload {workload} seed {seed}: ops {res['attempted']}, ops_failed {res['failed']}")

    units = {m["name"]: m["unit"] for m in spec()["end_to_end"] + spec()["per_layer"]}
    if trace:
        if "layers" not in res:
            raise BenchError("no traced operation succeeded")
        values = res["layers"]
        counts = {}
    else:
        if not res["walls"]:
            raise BenchError("no operation succeeded")
        values, counts = end_to_end(res, setups)
        tail = tail_percentile(res["walls"])
        if tail:
            print(f"wall_s p{tail[0]}: {tail[1]:.6g} s")
    for name, value in values.items():
        samples = f" (median of {counts[name]})" if counts.get(name, 1) > 1 else ""
        print(f"{name}: {value:.6g} {units.get(name, '')}{samples}")
    wanted = [m["name"] for m in spec()["per_layer" if trace else "end_to_end"]]
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in wanted},
    }


def bench_command(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run the benchmark command for one workload; returns its result
    with the run's environment record under "env"."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[5:]) for line in lines if line.startswith("env: "))
    return json.loads(lines[-1]) | {"env": env}


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def steadiness() -> int:
    """Run every workload twice over seeds 0..RUNS-1 and compare the sets.

    Two sets agree on a metric when their medians differ by at most its
    bound, in either direction, and each set's spread is within the bound.
    setup_s is exempt from the spread test, as in the benchmark contract.
    """
    bench = spec()
    seconds = bench["run_seconds"]
    sets = []
    for _ in range(2):
        results = {}
        for workload in WORKLOADS:
            per_seed = [bench_command(workload, seed, seconds, 0) for seed in range(RUNS)]
            traced = bench_command(workload, 0, seconds, 1)
            results[workload] = (per_seed, traced)
        sets.append(results)

    first = sets[0][WORKLOADS[0]][0][0]["env"]
    env = {key: first[key] for key in ("nproc", "python", "numpy", "scipy")}
    baseline = {"run_seconds": seconds, "runs": RUNS, "env": env, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        rows = {}
        for metric in bench["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            values = [[r["metrics"][name]["value"] for r in results[workload][0]] for results in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            drift = (medians[1] - medians[0]) / medians[0] * (1 if lower else -1)
            agree = abs(drift) <= bound and (name == "setup_s" or max(spreads) <= bound)
            ok &= agree
            rows[name] = {
                "values": values, "median": medians, "spread": spreads,
                "drift": drift, "bound": bound, "agree": agree,
            }
            print(
                f"{workload:10} {name:14} medians {medians[0]:.5g} / {medians[1]:.5g}"
                f"  spreads {spreads[0]:.3f} / {spreads[1]:.3f}  bound {bound}"
                f"  {'agree' if agree else 'DISAGREE'}"
            )
        counts = [
            {c: results[workload][1]["metrics"][c]["value"] for c in COUNT_METRICS}
            for results in sets
        ]
        failed = sum(r["failed"] for results in sets for r in results[workload][0])
        ok &= counts[0] == counts[1] and failed == 0
        print(f"{workload:10} counts repeat: {counts[0] == counts[1]}, ops_failed: {failed}")
        traced = sets[0][workload][1]["metrics"]
        baseline["workloads"][workload] = {
            "end_to_end": rows,
            "loadavg_1min_before": [
                [r["env"]["loadavg_before"][0] for r in results[workload][0]] for results in sets
            ],
            "per_layer_seed0": {name: m["value"] for name, m in traced.items()},
            "counts_repeat": counts[0] == counts[1],
        }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


def record_reference() -> int:
    """Record output digests of the current program for seeds 0..RUNS-1."""
    jobs = [("train-pima", 0, OP_SEEDS)] + [
        (workload, seed, OP_SEEDS if workload == "train-wide" else 1)
        for workload in PER_SEED_REFERENCE for seed in range(RUNS)
    ]
    reference: dict[str, dict] = {}
    for workload, seed, ops in jobs:
        inputs = prepare_inputs(workload, seed)
        res = worker(
            "run", workload, seed, inputs, "--ops", str(ops),
            "--reference", str(WORK / "no-reference.json"),
        )
        if res["failed"]:
            raise BenchError(f"{workload} seed {seed}: {res['problems']}")
        reference.setdefault(workload, {}).update(dict(res["digests"]))
        print(f"recorded {workload} seed {seed}", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        require_checkout()
        if args.seed < 0:
            raise BenchError("--seed must be >= 0")
        if args.steadiness:
            return steadiness()
        if args.record_reference:
            return record_reference()
        if args.workload is None:
            raise BenchError("--workload is required")
        seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
