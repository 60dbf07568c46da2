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
from typing import Callable, NamedTuple

import numpy as np

from .bso import BsoParams
from .dataset import Dataset, SplitSpec, load_csv, split
from .errors import ConfigError, DataError, check_seed
from .experiments import run_benchmark, run_param_sweep, run_sweep, summarize_sweep
from .experiments import write_benchmark_csv, write_param_sweep_csv, write_sweep_csv
from .fitness import FitnessWeights
from .ga import GaParams
from .inference import Model, evaluate_model, predict_dataset, report_from_predictions
from .model_io import load_model, save_model
from .training import OPTIMIZERS, ExperimentSettings, train_model

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def _json(*types):
    """Check for a JSON value of one of `types`, refusing bools."""
    return lambda value: isinstance(value, types) and not isinstance(value, bool)


def _list_of(check):
    return lambda value: isinstance(value, list) and all(map(check, value))


class Kind(NamedTuple):
    """An option's type: as exit-2 messages name it, as the JSON check of a
    config value tests it, and the argparse keywords that parse its flag."""

    text: str
    valid: Callable
    flag: dict


def _name_list(text: str) -> tuple[str, ...]:
    return tuple(part for part in text.split(",") if part != "")


def _list_kind(noun: str, valid, parse) -> Kind:
    """A JSON list of `valid` values; a comma-separated flag."""

    def parse_list(text: str) -> tuple:
        try:
            return tuple(map(parse, _name_list(text)))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}: {exc}")

    return Kind(f"a list of {noun}", _list_of(valid), {"type": parse_list})


STRING = Kind("a string", _json(str), {})
NUMBER = Kind("a number", _json(int, float), {"type": float})
INTEGER = Kind("an integer", _json(int), {"type": int})
LABEL = Kind("a string or an integer", _json(str, int), {})
NAMES = Kind(
    "a string or a list of strings",
    lambda value: _json(str)(value) or _list_of(_json(str))(value),
    {"type": _name_list},
)
NUMBERS = _list_kind("numbers", _json(int, float), float)
INTEGERS = _list_kind("integers", _json(int), int)
TRAINING = ("train", "sweep", "param-sweep", "benchmark")
EVERY = ("evaluate", *TRAINING)
SEEDED = ("train", "param-sweep", "benchmark")  # each sweep cell has its own seed


def _each(verbs: tuple[str, ...], default, text: str) -> dict:
    return dict.fromkeys(verbs, (default, text))


# Each top-level config key that is not a training setting, as key: (kind,
# {verb: (default, help)}) in the order a verb lists its flags; a verb takes
# the options that list it. A third item holds argparse keywords that replace
# the kind's; a None help means no flag. A null config value means "not set".
OPTIONS = {
    "data": (STRING, _each(EVERY, None, "CSV file of attributes plus one label column")),
    "label": (
        LABEL, _each(EVERY, None, "label column: header name, or 0-based index for headerless files")
    ),
    "out": (STRING, {
        **_each(TRAINING, ".", "output directory"),
        "evaluate": (None, "directory to write predictions.csv to (default: none written)"),
    }),
    "seed": (INTEGER, {
        **_each(SEEDED, 0, "seed for the data split and the optimizer"),
        "evaluate": (0, "seed for the --ratios split"),
    }),
    "split_fraction": (NUMBER, {"train": (0.8, None)}),
    "e_values": (NUMBERS, {
        "param-sweep": ((0.2, 0.4, 0.6, 0.8, 1.0), "averaging weights in (0,1]")
    }),
    "k_values": (NUMBERS, {"param-sweep": ((5.0, 10.0, 20.0, 40.0), "anneal slope divisors > 0")}),
    "ratios": (NUMBERS, {
        "evaluate": (None, "single train fraction: score the held-out side of that split "
                     "(default: score the whole file)"),
        "sweep": ((0.7, 0.75, 0.8, 0.85), "train fractions"),
        "param-sweep": ((0.8,), "single train fraction"),
        "benchmark": ((0.25, 0.5, 1.0), "training-data fractions in (0,1]"),
    }),
    "seeds": (INTEGERS, {"sweep": ((0, 1, 2, 3, 4), "cell seeds")}),
    "threshold": (NUMBER, {"benchmark": (0.7, "target best objective value")}),
    "optimizer": (NAMES, {
        "train": (OPTIMIZERS[0], "search backend", {"choices": OPTIMIZERS}),
        **_each(("sweep", "benchmark"), OPTIMIZERS, "search backends"),
    }),
}
# ExperimentSettings fields that are top-level config keys; the record checks
# their values.
SETTINGS_KEYS = ("labels_per_attribute", "rule_count", "accuracy_weight", "sum_scores")
# Recognized top-level config-file keys (everything else is a schema error);
# the three sections are objects, checked where they are read.
CONFIG_KEYS = set(OPTIONS) | set(SETTINGS_KEYS) | {"fitness_weights", "bso", "ga"}


def _shown(default) -> str:
    if isinstance(default, tuple):
        return ",".join(map(_shown, default))
    return f"{default:g}" if isinstance(default, float) else str(default)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per verb, whose one-line help is its command's
    docstring, with a flag for each option of the verb that has a help."""
    parser = argparse.ArgumentParser(
        prog="rulestorm",
        description="Train and study weighted fuzzy rule classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, command in COMMANDS.items():
        # no abbreviations: sweep --seed must not pass for --seeds
        verb_parser = sub.add_parser(verb, help=command.__doc__, allow_abbrev=False)
        verb_parser.add_argument("--config", help="JSON config file; flags override it")
        for key, (kind, verbs) in OPTIONS.items():
            default, text, *override = verbs.get(verb, (None, None))
            if text is None:
                continue
            if default is not None:
                text += f" (default {_shown(default)})"
            flag = override[0] if override else kind.flag
            verb_parser.add_argument("--" + key.replace("_", "-"), help=text, **flag)
        if verb == "evaluate":
            verb_parser.add_argument("model", help="model.json produced by train")
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
    for key, (kind, _) in OPTIONS.items():
        value = document.get(key)
        if value is not None and not kind.valid(value):
            raise ConfigError(f"config: {key} must be {kind.text}, got {value!r}")
    return document


def _pick(args: argparse.Namespace, config: dict, key: str):
    """Flag value if given, else config-file value, else the verb's default
    (None for a verb that does not take the option)."""
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key)
    if value is None:
        value = OPTIONS[key][1].get(args.command, (None,))[0]
    return value


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
    data = _pick(args, config, "data")
    if data is None:
        raise ConfigError("a dataset is required: pass --data or set it in the config")
    label = _pick(args, config, "label")
    if isinstance(label, str) and label.isdigit():
        label = int(label)
    return load_csv(data, label)


def _out_dir(args, config) -> Path | None:
    """The output directory, created if missing (None when evaluate is given
    none); commands resolve it first."""
    if _pick(args, config, "out") is None:
        return None
    out = Path(_pick(args, config, "out"))
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
    """Config, output directory, seed and settings of a training command,
    read in that order so that bad options fail before any data is read and
    before any work starts.
    """
    config = load_config(args.config)
    out = _out_dir(args, config)
    seed = _pick(args, config, "seed")
    if seed is not None:  # sweep takes no --seed
        check_seed(seed)  # before it is copied into the bso and ga sections
    settings = _settings(config, seed, getattr(args, "seed", None) is not None)
    return config, out, seed, settings


def _single_ratio(args, config):
    """The one split ratio that evaluate and param-sweep take, checked before
    any file is read; None when evaluate is given no ratio."""
    ratios = _pick(args, config, "ratios")
    if args.command == "evaluate" and not ratios:
        return None
    if len(ratios) != 1:
        raise ConfigError(f"{args.command} takes a single split ratio, got {len(ratios)}")
    return ratios[0]


def _metric(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.4f}"


def cmd_train(args) -> int:
    """fit a model, write model.json and trace.csv"""
    config, out, seed, settings = _setup(args)
    ds = _load_dataset(args, config)
    optimizer = _pick(args, config, "optimizer")
    fraction = float(_pick(args, config, "split_fraction"))
    train, test = (ds, None) if fraction == 1.0 else split(ds, SplitSpec(fraction, seed))

    result = train_model(train, optimizer=optimizer, **vars(settings))

    model_path = out / "model.json"
    trace_path = out / "trace.csv"
    save_model(result.model, model_path)
    result.run.trace.write_csv(trace_path)

    b = result.breakdown
    print(f"best objective value: {result.run.best.evaluation.value:.6f}")
    print(f"quality components: g1={b.g1:.6f} g2={b.g2:.6f} g3={b.g3:.6f} G={b.fitness:.6f}")
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
    """score a saved model on a dataset"""
    config = load_config(args.config)
    out = _out_dir(args, config)
    settings = _settings(config)  # checked as the training commands check it
    ratio = _single_ratio(args, config)
    model = load_model(args.model)
    ds = _load_dataset(args, config)
    if ratio is not None:
        _, ds = split(ds, SplitSpec(ratio, int(_pick(args, config, "seed"))))
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
    names = _pick(args, config, "optimizer")
    return (names,) if isinstance(names, str) else tuple(names)


def cmd_sweep(args) -> int:
    """train per (ratio, optimizer, seed) cell, write sweep.csv"""
    config, out, _, settings = _setup(args)
    ds = _load_dataset(args, config)
    ratios = tuple(_pick(args, config, "ratios"))
    seeds = tuple(_pick(args, config, "seeds"))
    optimizers = _optimizer_list(args, config)

    result = run_sweep(ds, settings, ratios, seeds, optimizers)
    path = out / "sweep.csv"
    write_sweep_csv(result, path)
    for row in summarize_sweep(result):
        mean = row["mean_test_accuracy"]
        std = row["std_test_accuracy"]
        detail = "all cells failed" if mean is None else f"accuracy {mean:.4f} +/- {std:.4f}"
        failures = f", {row['failures']} failed" if row["failures"] else ""
        print(
            f"ratio {row['ratio']:.2f} {row['optimizer']:>9}: {detail} ({row['seeds']} seeds{failures})"
        )
    print(f"sweep: {path}")
    return EXIT_OK


def cmd_param_sweep(args) -> int:
    """vary averaging weight and anneal slope, write param_sweep.csv"""
    config, out, seed, settings = _setup(args)
    ratio = float(_single_ratio(args, config))
    ds = _load_dataset(args, config)
    e_values = tuple(_pick(args, config, "e_values"))
    k_values = tuple(_pick(args, config, "k_values"))

    rows = run_param_sweep(ds, settings, e_values, k_values, ratio=ratio, seed=seed)
    path = out / "param_sweep.csv"
    write_param_sweep_csv(rows, path)
    for row in rows:
        score = f"failed: {row.error}" if row.error else f"test accuracy {row.test_accuracy:.4f}"
        print(f"e={row.smoothing:g} K={row.slope_divisor:g}: {score}")
    print(f"param-sweep: {path}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    """iterations/time to reach a target value, write benchmark.csv"""
    config, out, seed, settings = _setup(args)
    ds = _load_dataset(args, config)
    fractions = tuple(_pick(args, config, "ratios"))
    threshold = float(_pick(args, config, "threshold"))
    optimizers = _optimizer_list(args, config)

    rows = run_benchmark(ds, settings, fractions, threshold, seed=seed, optimizers=optimizers)
    path = out / "benchmark.csv"
    write_benchmark_csv(rows, path)
    for row in rows:
        if row.error is not None:
            status = f"failed: {row.error}"
        elif row.reached:
            status = (
                f"reached {row.threshold:g} at iteration {row.iterations_to_threshold} "
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
    args = build_parser().parse_args(argv)
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
