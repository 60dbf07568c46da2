"""The benchmark's tracing hooks still fit the program.

`perfbench/worker.py` names each function it traces by its owner and key,
and `perfbench/tracer.py` swaps those entries for timed wrappers. A renamed
or deleted name would otherwise surface only in a traced benchmark run.
Both files are loaded as they stand and left unchanged.
"""

import importlib.util
import sys

import numpy as np
from conftest import REPO_ROOT

from rulestorm import bso, cli, ga
from rulestorm.search import Evaluation


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", REPO_ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the file runs
    spec.loader.exec_module(module)
    return module


worker, tracer = load("worker"), load("tracer")


def lookup(owner, key):
    """The entry as tracer.installed reads it: a dict's item, or an
    attribute defined on the module or class itself."""
    return owner[key] if isinstance(owner, dict) else vars(owner)[key]


def test_every_trace_target_resolves():
    missing = []
    for owner, key, _ in worker.trace_targets():
        try:
            if not callable(lookup(owner, key)):
                missing.append(f"{getattr(owner, '__name__', owner)}.{key} is not callable")
        except KeyError:
            missing.append(f"{getattr(owner, '__name__', 'dict')}.{key}")
    assert missing == []


def test_installing_the_tracer_wraps_every_target_and_restores_it():
    targets = worker.trace_targets()
    originals = [lookup(owner, key) for owner, key, _ in targets]
    with tracer.installed(targets) as rec:
        for (owner, key, _), original in zip(targets, originals):
            assert lookup(owner, key).__wrapped__ is original
        assert ga.tournament_pick(np.array([1.0, 3.0]), np.array([[0, 1], [0, 0]])).tolist() == [1, 0]
    assert rec.names == ["ga.tournament_pick"]
    assert all(lookup(owner, key) is original for (owner, key, _), original in zip(targets, originals))


def test_the_search_helpers_record_spans_in_a_run():
    """A traced name that the searches stopped calling still resolves, but
    reads 0 in every benchmark run: one tiny run of each search must reach
    every search helper that the worker traces."""
    lower, upper = np.zeros(3), np.ones(3)

    def objective(x):
        return Evaluation(value=-float(np.dot(x, x)))

    with tracer.installed(worker.trace_targets()) as rec:
        bso.run(bso.BsoParams(population_size=6, cluster_count=2, max_iterations=2), objective, lower, upper)
        ga.run_ga(ga.GaParams(population_size=6, generations=2), objective, lower, upper)
    helpers = ("bso.cluster_population", "bso.select_base", "bso.generate_candidate", "ga.tournament_pick")
    assert [name for name in helpers if name not in rec.names] == []


def test_evaluate_with_out_records_the_score_spans(tmp_path):
    """The score workload's per-layer figures come from these spans: a small
    traced `evaluate --out` must reach the degrees, the batch prediction and
    the CSV loader, through the names the worker traces (`load_csv` through
    `cli`'s own lookup; a span is named after the defining module)."""
    model, data = REPO_ROOT / "perfbench" / "score_model.json", REPO_ROOT / "data" / "pima.csv"
    with tracer.installed(worker.trace_targets()) as rec:
        assert cli.main(["evaluate", str(model), "--data", str(data), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "predictions.csv").exists()
    spans = ("membership.degree_matrix", "inference.predict_dataset", "dataset.load_csv")
    assert [name for name in spans if name not in rec.names] == []
