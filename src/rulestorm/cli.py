"""Command-line front end.

Verbs: train, evaluate, sweep, param-sweep, benchmark. Options come from an
optional JSON config file plus command-line flags; a flag given on the command
line always wins over the file. Every run is reproducible: the config plus
seed determine all emitted artifacts except wall-clock columns.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .bso import BsoParams
from .dataset import Dataset, SplitSpec, load_csv, split
from .errors import ConfigError, DataError, check_seed
from .experiments import (
    run_benchmark,
    run_param_sweep,
    run_sweep,
    summarize_sweep,
    write_benchmark_csv,
    write_param_sweep_csv,
    write_sweep_csv,
)
from .fitness import FitnessWeights
from .ga import GaParams
from .inference import Model, evaluate_model, predict_dataset, report_from_predictions
from .model_io import load_model, save_model
from .training import OPTIMIZERS, ExperimentSettings, train_model

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> bool:
    return _integer(value) or isinstance(value, float)


def _string(value) -> bool:
    return isinstance(value, str)


def _list_of(check):
    return lambda value: isinstance(value, list) and all(map(check, value))


# The JSON type of each top-level config value, unless it is null (which
# means "not set"). Seeds are integers, as --seeds parses them.
CONFIG_TYPES = {
    "data": ("a string", _string),
    "label": ("a string or an integer", lambda v: _string(v) or _integer(v)),
    "out": ("a string", _string),
    "seed": ("an integer", _integer),
    "optimizer": (
        "a string or a list of strings",
        lambda v: _string(v) or _list_of(_string)(v),
    ),
    "split_fraction": ("a number", _number),
    "ratios": ("a list of numbers", _list_of(_number)),
    "seeds": ("a list of integers", _list_of(_integer)),
    "e_values": ("a list of numbers", _list_of(_number)),
    "k_values": ("a list of numbers", _list_of(_number)),
    "threshold": ("a number", _number),
}
# ExperimentSettings fields that are top-level config keys; the record checks
# their values.
SETTINGS_KEYS = ("labels_per_attribute", "rule_count", "accuracy_weight", "sum_scores")
# Recognized top-level config-file keys (everything else is a schema error);
# the three sections are objects, checked where they are read.
CONFIG_KEYS = set(CONFIG_TYPES) | set(SETTINGS_KEYS) | {"fitness_weights", "bso", "ga"}

DEFAULT_RATIOS = (0.7, 0.75, 0.8, 0.85)
DEFAULT_SEEDS = (0, 1, 2, 3, 4)
DEFAULT_FRACTIONS = (0.25, 0.5, 1.0)
DEFAULT_E_VALUES = (0.2, 0.4, 0.6, 0.8, 1.0)
DEFAULT_K_VALUES = (5.0, 10.0, 20.0, 40.0)


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers: {exc}")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {exc}")


def _name_list(text: str) -> tuple[str, ...]:
    return tuple(part for part in text.split(",") if part != "")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rulestorm",
        description="Train and study weighted fuzzy rule classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--data", help="CSV file of attributes plus one label column")
    common.add_argument(
        "--label",
        help="label column: header name, or 0-based index for headerless files",
    )
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--out", help="output directory (default: current)")
    common.add_argument(
        "--seed", type=int, help="seed for the data split and the optimizer"
    )

    train = sub.add_parser(
        "train", parents=[common], help="fit a model, write model.json and trace.csv"
    )
    train.add_argument(
        "--optimizer", choices=OPTIMIZERS, help="search backend (default bso-ewma)"
    )

    evaluate = sub.add_parser(
        "evaluate", parents=[common], help="score a saved model on a dataset"
    )
    evaluate.add_argument("model", help="model.json produced by train")
    evaluate.add_argument(
        "--ratios",
        type=_float_list,
        help="single train fraction: score the held-out side of that split "
        "(default: score the whole file)",
    )

    sweep = sub.add_parser(
        "sweep",
        parents=[common],
        help="train per (ratio, optimizer, seed) cell, write sweep.csv",
    )
    sweep.add_argument(
        "--ratios", type=_float_list, help="train fractions (default 0.7,0.75,0.8,0.85)"
    )
    sweep.add_argument(
        "--seeds", type=_int_list, help="cell seeds (default 0,1,2,3,4)"
    )
    sweep.add_argument(
        "--optimizer",
        type=_name_list,
        help="comma-separated backends (default all three)",
    )

    grid = sub.add_parser(
        "param-sweep",
        parents=[common],
        help="vary averaging weight and anneal slope, write param_sweep.csv",
    )
    grid.add_argument(
        "--e-values",
        type=_float_list,
        help="averaging weights in (0,1] (default 0.2,0.4,0.6,0.8,1.0)",
    )
    grid.add_argument(
        "--k-values",
        type=_float_list,
        help="anneal slope divisors > 0 (default 5,10,20,40)",
    )
    grid.add_argument(
        "--ratios", type=_float_list, help="single train fraction (default 0.8)"
    )

    bench = sub.add_parser(
        "benchmark",
        parents=[common],
        help="iterations/time to reach a target value, write benchmark.csv",
    )
    bench.add_argument(
        "--ratios",
        type=_float_list,
        help="training-data fractions in (0,1] (default 0.25,0.5,1.0)",
    )
    bench.add_argument(
        "--threshold", type=float, help="target best objective value (default 0.7)"
    )
    bench.add_argument(
        "--optimizer",
        type=_name_list,
        help="comma-separated backends (default all three)",
    )
    return parser


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(document, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(document) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"config: unknown key(s) {', '.join(unknown)}")
    for key, (kind, valid) in CONFIG_TYPES.items():
        value = document.get(key)
        if value is not None and not valid(value):
            raise ConfigError(f"config: {key} must be {kind}, got {value!r}")
    return document


def _pick(args: argparse.Namespace, config: dict, key: str, default):
    """Flag value if given, else config-file value, else the default."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    if key in config and config[key] is not None:
        return config[key]
    return default


def _section(config: dict, name: str, cls, seed: int | None = None, seed_flag: bool = False):
    """Build `cls` from the config sub-object `name`, with field-path errors
    such as ``config: bso.population_size must be an integer``.

    A `seed` fills in for a missing one in the sub-object; an explicit --seed
    flag (`seed_flag`) overrides the sub-object's own.
    """
    values = {} if config.get(name) is None else config[name]
    if not isinstance(values, dict):
        raise ConfigError(f"config: {name} must be an object")
    unknown = sorted(set(values) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"config: {name}.{unknown[0]} is not a parameter")
    if name == "bso" and "mode" in values:
        raise ConfigError("config: bso.mode is not a parameter; set optimizer to bso-ewma or bso-plain")
    if seed is not None:
        values = {**values, "seed": seed} if seed_flag else {"seed": seed, **values}
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"config: {name}.{exc}") from None


def _load_dataset(args, config) -> Dataset:
    data = _pick(args, config, "data", None)
    if data is None:
        raise ConfigError("a dataset is required: pass --data or set it in the config")
    label = _pick(args, config, "label", None)
    if isinstance(label, str) and label.isdigit():
        label = int(label)
    return load_csv(data, label)


def _out_dir(args, config) -> Path:
    """The output directory, created if missing; commands resolve it first."""
    out = Path(_pick(args, config, "out", "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # FileExistsError when out names a file
        raise ConfigError(f"cannot use {out} as the output directory: {exc}") from exc
    return out


def _settings(config: dict, seed: int | None = None, seed_flag: bool = False) -> ExperimentSettings:
    """The training settings the config sets; the record's defaults fill in
    the rest."""
    sections = {
        "fitness_weights": _section(config, "fitness_weights", FitnessWeights),
        "bso_params": _section(config, "bso", BsoParams, seed, seed_flag),
        "ga_params": _section(config, "ga", GaParams, seed, seed_flag),
    }
    values = {key: config[key] for key in SETTINGS_KEYS if config.get(key) is not None}
    try:
        return ExperimentSettings(**sections, **values)
    except ConfigError as exc:
        raise ConfigError(f"config: {exc}") from None


def _setup(args):
    """Config, output directory, seed, settings and dataset of a training
    command, read in that order so that bad options fail before any data is
    read and before any work starts.
    """
    config = load_config(args.config)
    out = _out_dir(args, config)
    seed = _pick(args, config, "seed", 0)
    check_seed(seed)  # before it is copied into the bso and ga sections
    settings = _settings(config, seed, args.seed is not None)
    return config, out, seed, settings, _load_dataset(args, config)


def _metric(value: float | None, digits: int = 4) -> str:
    return "undefined" if value is None else f"{value:.{digits}f}"


def cmd_train(args) -> int:
    config, out, seed, settings, ds = _setup(args)
    optimizer = _pick(args, config, "optimizer", "bso-ewma")
    fraction = float(_pick(args, config, "split_fraction", 0.8))
    if fraction == 1.0:
        train, test = ds, None
    else:
        train, test = split(ds, SplitSpec(fraction=fraction, seed=seed))

    result = train_model(train, optimizer=optimizer, **vars(settings))

    model_path = out / "model.json"
    trace_path = out / "trace.csv"
    save_model(result.model, model_path)
    result.run.trace.write_csv(trace_path)

    b = result.breakdown
    print(f"best objective value: {result.run.best.evaluation.value:.6f}")
    print(
        f"quality components: g1={b.g1:.6f} g2={b.g2:.6f} g3={b.g3:.6f} "
        f"G={b.fitness:.6f}"
    )
    print(f"train accuracy: {result.train_accuracy:.4f} ({train.n} records)")
    if test is not None:
        report = evaluate_model(result.model, test, sum_scores=settings.sum_scores)
        print(
            f"held-out accuracy: {report.accuracy:.4f} ({report.n} records, "
            f"sensitivity {_metric(report.sensitivity)}, "
            f"specificity {_metric(report.specificity)})"
        )
    print(f"model: {model_path}")
    print(f"trace: {trace_path}")
    return EXIT_OK


def write_predictions(
    path: Path, ds: Dataset, model: Model, classes: np.ndarray, scores: np.ndarray
) -> None:
    """Write one ``record,true_label,predicted_label,score`` row per record.

    The bytes are those of a csv.writer given ``(i, repr(true), repr(predicted),
    repr(score))``: no cell needs quoting, and rows end in ``\\r\\n``. Each
    distinct score and each (true, predicted) label pair is formatted once.
    Scores are told apart by their bits, so ``-0.0`` stays apart from ``0.0``.
    """
    c = len(model.class_values)
    labels = np.array(
        [f",{t!r},{p!r}," for t in ds.class_values for p in model.class_values],
        dtype=object,
    )
    distinct, codes = np.unique(scores.view(np.int64), return_inverse=True)
    texts = np.array([f"{v!r}\r\n" for v in distinct.view(np.float64).tolist()], dtype=object)
    with open(path, "w", newline="") as handle:
        handle.write("record,true_label,predicted_label,score\r\n")
        handle.writelines(
            map(
                "{}{}{}".format,
                range(ds.n),
                labels[(ds.y - 1) * c + (classes - 1)].tolist(),
                texts[codes].tolist(),
            )
        )


def cmd_evaluate(args) -> int:
    config = load_config(args.config)
    out = _out_dir(args, config) if _pick(args, config, "out", None) is not None else None
    settings = _settings(config)  # checked as the training commands check it
    model = load_model(args.model)
    ds = _load_dataset(args, config)
    ratios = _pick(args, config, "ratios", None)
    if ratios:
        if len(ratios) != 1:
            raise ConfigError(
                f"evaluate takes a single split ratio, got {len(ratios)}"
            )
        seed = int(_pick(args, config, "seed", 0))
        _, ds = split(ds, SplitSpec(fraction=ratios[0], seed=seed))
    sum_scores = settings.sum_scores if config.get("sum_scores") is not None else model.metadata.get("sum_scores", False)

    internal, scores = predict_dataset(model, ds, sum_scores=sum_scores)
    report = report_from_predictions(model, ds, internal)
    print(f"records: {report.n}")
    print(f"accuracy: {_metric(report.accuracy)}")
    print(f"sensitivity: {_metric(report.sensitivity)}")
    print(f"specificity: {_metric(report.specificity)}")
    if report.counts is not None:
        c = report.counts
        print(f"confusion: tp={c.tp} fp={c.fp} tn={c.tn} fn={c.fn}")

    if out is not None:
        predictions_path = out / "predictions.csv"
        write_predictions(predictions_path, ds, model, internal, scores)
        print(f"predictions: {predictions_path}")
    return EXIT_OK


def _optimizer_list(args, config) -> tuple[str, ...]:
    names = _pick(args, config, "optimizer", OPTIMIZERS)
    return (names,) if isinstance(names, str) else tuple(names)


def cmd_sweep(args) -> int:
    config, out, _, settings, ds = _setup(args)
    ratios = tuple(_pick(args, config, "ratios", DEFAULT_RATIOS))
    seeds = tuple(_pick(args, config, "seeds", DEFAULT_SEEDS))
    optimizers = _optimizer_list(args, config)

    result = run_sweep(ds, settings, ratios, seeds, optimizers)
    path = out / "sweep.csv"
    write_sweep_csv(result, path)
    for row in summarize_sweep(result):
        mean = row["mean_test_accuracy"]
        std = row["std_test_accuracy"]
        detail = (
            f"accuracy {mean:.4f} +/- {std:.4f}"
            if mean is not None
            else "all cells failed"
        )
        failures = f", {row['failures']} failed" if row["failures"] else ""
        print(
            f"ratio {row['ratio']:.2f} {row['optimizer']:>9}: {detail} "
            f"({row['seeds']} seeds{failures})"
        )
    print(f"sweep: {path}")
    return EXIT_OK


def cmd_param_sweep(args) -> int:
    config, out, seed, settings, ds = _setup(args)
    e_values = tuple(_pick(args, config, "e_values", DEFAULT_E_VALUES))
    k_values = tuple(_pick(args, config, "k_values", DEFAULT_K_VALUES))
    ratios = _pick(args, config, "ratios", (0.8,))
    if len(ratios) != 1:
        raise ConfigError(f"param-sweep takes a single split ratio, got {len(ratios)}")

    rows = run_param_sweep(
        ds, settings, e_values, k_values, ratio=float(ratios[0]), seed=seed
    )
    path = out / "param_sweep.csv"
    write_param_sweep_csv(rows, path)
    for row in rows:
        score = (
            f"test accuracy {row.test_accuracy:.4f}"
            if row.error is None
            else f"failed: {row.error}"
        )
        print(f"e={row.smoothing:g} K={row.slope_divisor:g}: {score}")
    print(f"param-sweep: {path}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    config, out, seed, settings, ds = _setup(args)
    fractions = tuple(_pick(args, config, "ratios", DEFAULT_FRACTIONS))
    threshold = float(_pick(args, config, "threshold", 0.7))
    optimizers = _optimizer_list(args, config)

    rows = run_benchmark(
        ds, settings, fractions, threshold, seed=seed, optimizers=optimizers
    )
    path = out / "benchmark.csv"
    write_benchmark_csv(rows, path)
    for row in rows:
        if row.error is not None:
            status = f"failed: {row.error}"
        elif row.reached:
            status = (
                f"reached {row.threshold:g} at iteration "
                f"{row.iterations_to_threshold} "
                f"({row.elapsed_ms_to_threshold:.0f} ms)"
            )
        else:
            status = f"DNF after {row.iterations_run} iterations"
        print(f"fraction {row.fraction:g} {row.optimizer:>9}: {status}")
    print(f"benchmark: {path}")
    return EXIT_OK


COMMANDS = {
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "param-sweep": cmd_param_sweep,
    "benchmark": cmd_benchmark,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # anything else is a runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
