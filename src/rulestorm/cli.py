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
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .bso import BsoParams
from .dataset import Dataset, SplitSpec, load_csv, split
from .errors import ConfigError, DataError, check_seed
from .experiments import check_benchmark, check_param_sweep, check_sweep, run_benchmark, run_param_sweep, run_sweep
from .experiments import summarize_sweep, train_cell, write_benchmark_csv, write_param_sweep_csv, write_sweep_csv
from .fitness import FitnessWeights
from .ga import GaParams
from .inference import Model, predict_dataset, report_from_predictions
from .model_io import load_model, save_model
from .training import OPTIMIZERS, ExperimentSettings, check_optimizer

# perfbench/worker.py traces this name here; train scores through train_cell.
from .inference import evaluate_model  # noqa: F401

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
# the options that list it, as flags and config keys. A third item holds
# argparse keywords that replace the kind's. A null config value is "not set".
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
        "evaluate": (0, "seed for the --split-fraction split"),
    }),
    "split_fraction": (NUMBER, {
        "train": (0.8, "train share of the held-out split; 1 trains on every record"),
        "evaluate": (None, "score the held-out side of the split with this train share "
                     "(default: score the whole file)"),
        "param-sweep": (0.8, "train share of the held-out split"),
    }),
    "e_values": (NUMBERS, {
        "param-sweep": ((0.2, 0.4, 0.6, 0.8, 1.0), f"averaging weights in {BsoParams.BOUNDS['smoothing']}")
    }),
    "k_values": (NUMBERS, {"param-sweep": ((5.0, 10.0, 20.0, 40.0), f"anneal slope divisors {BsoParams.BOUNDS['slope_divisor']}")}),
    "ratios": (NUMBERS, {
        "sweep": ((0.7, 0.75, 0.8, 0.85), "train fractions"),
        "benchmark": ((0.25, 0.5, 1.0), "training-data fractions in (0,1]"),
    }),
    "seeds": (INTEGERS, {"sweep": ((0, 1, 2, 3, 4), "cell seeds")}),
    "threshold": (NUMBER, {"benchmark": (0.7, "target best objective value")}),
    "optimizer": (NAMES, {
        "train": (OPTIMIZERS[0], "search backend", {"choices": OPTIMIZERS}),
        **_each(("sweep", "benchmark"), OPTIMIZERS, "search backends"),
    }),
}
# ExperimentSettings fields that are top-level config keys, those that are not
# records; the record checks their values.
SETTINGS_KEYS = tuple(f.name for f in fields(ExperimentSettings) if not is_dataclass(f.default_factory))
# Recognized top-level config-file keys (everything else is a schema error);
# the three sections are objects, checked where they are read.
CONFIG_KEYS = set(OPTIONS) | set(SETTINGS_KEYS) | {"fitness_weights", "bso", "ga"}


def _shown(default) -> str:
    if isinstance(default, tuple):
        return ",".join(map(_shown, default))
    return f"{default:g}" if isinstance(default, float) else str(default)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per verb, whose one-line help is its command's
    docstring, with a flag for each option of the verb."""
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
            if verb not in verbs:
                continue
            default, text, *override = verbs[verb]
            if default is not None:
                text += f" (default {_shown(default)})"
            flag = override[0] if override else kind.flag
            verb_parser.add_argument("--" + key.replace("_", "-"), help=text, **flag)
        if verb == "evaluate":
            verb_parser.add_argument("model", help="model.json produced by train")
    return parser


def load_config(path: str | None, verb: str) -> dict:
    """The config file's object, each option's value checked for its type and the verb."""
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
    for key, (kind, verbs) in OPTIONS.items():
        value = document.get(key)
        if value is not None and not kind.valid(value):
            raise ConfigError(f"config: {key} must be {kind.text}, got {value!r}")
        if value is not None and verb not in verbs:
            raise ConfigError(f"config: {verb} does not take {key}")
    return document


def _pick(args: argparse.Namespace, config: dict, key: str):
    """Flag value if given, else config-file value, else the verb's default.
    The value of a list option is a tuple; one name stands for a list of one."""
    default = OPTIONS[key][1][args.command][0]
    value = getattr(args, key)
    if value is None:
        value = config.get(key)
    if value is None:
        return default
    if isinstance(default, tuple):
        return (value,) if isinstance(value, str) else tuple(value)
    return value


def _section(config: dict, name: str, cls, seed_option: str):
    """Build `cls` from the config sub-object `name`, with field-path errors
    such as ``config: bso.population_size must be an integer``. A key that is
    not a field is refused, and so are the fields that another option sets:
    the verb's `seed_option` seeds the optimizer."""
    values = {} if config.get(name) is None else config[name]
    if not isinstance(values, dict):
        raise ConfigError(f"config: {name} must be an object")
    set_by = {"mode": "; set optimizer to bso-ewma or bso-plain", "seed": f"; set {seed_option} (--{seed_option})"}
    settable = {f.name for f in fields(cls)} - set_by.keys()
    for key in sorted(set(values) - settable):
        raise ConfigError(f"config: {name}.{key} is not a parameter{set_by.get(key, '')}")
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"config: {name}.{exc}") from None


def _load_dataset(options: dict) -> Dataset:
    label = options["label"]
    if isinstance(label, str) and label.isdigit():
        label = int(label)
    return load_csv(options["data"], label)


def _out_dir(out: str | None) -> Path | None:
    """The output directory (None when evaluate is given none), refused when
    it or its nearest existing parent is not a directory."""
    if out is None:
        return None
    out = Path(out)
    nearest = next(path for path in (out, *out.parents) if path.exists())
    if not nearest.is_dir():
        raise ConfigError(f"cannot use {out} as the output directory: {nearest} is not a directory")
    return out


def _output(out: Path, name: str, write: Callable[[Path], None]) -> Path:
    """Write file `name` into `out` with `write`, creating `out` only now, so
    that a refused or failed run leaves no output directory behind."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use {out} as the output directory: {exc}") from exc
    write(out / name)
    return out / name


def _settings(config: dict, verb: str) -> ExperimentSettings:
    """The training settings the config sets; the record's defaults fill in
    the rest."""
    seed_option = "seeds" if verb == "sweep" else "seed"
    sections = {
        "fitness_weights": _section(config, "fitness_weights", FitnessWeights, seed_option),
        "bso_params": _section(config, "bso", BsoParams, seed_option),
        "ga_params": _section(config, "ga", GaParams, seed_option),
    }
    values = {key: config[key] for key in SETTINGS_KEYS if config.get(key) is not None}
    try:
        return ExperimentSettings(**sections, **values)
    except ConfigError as exc:
        raise ConfigError(f"config: {exc}") from None


def _setup(args):
    """Options, split, settings and output directory of a command, read in
    that order, a missing dataset first, so that bad options fail before any
    data is read or work starts. The options hold each option of the verb,
    picked once, and the config's sum_scores, None when unset, to override
    a model's decision rule. The split is None for a verb without one.
    """
    config = load_config(args.config, args.command)
    options = {key: _pick(args, config, key) for key, (_, verbs) in OPTIONS.items() if args.command in verbs}
    if options["data"] is None:
        raise ConfigError("a dataset is required: pass --data or set it in the config")
    fraction = options.get("split_fraction")
    name = f"{args.command} split fraction (--split-fraction)"
    spec = None if fraction is None else SplitSpec(fraction, options["seed"], allow_full=args.command == "train", name=name)
    settings = _settings(config, args.command)
    options["sum_scores"] = config.get("sum_scores")
    return options, _out_dir(options["out"]), spec, settings


def _metric(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.4f}"


def cmd_train(args) -> int:
    """fit a model, write model.json and trace.csv"""
    options, out, spec, settings = _setup(args)
    check_optimizer(options["optimizer"])
    ds = _load_dataset(options)
    train, result, report = train_cell(ds, settings, spec, options["optimizer"])

    model_path = _output(out, "model.json", lambda path: save_model(result.model, path))
    trace_path = _output(out, "trace.csv", result.run.trace.write_csv)

    b = result.breakdown
    print(f"best objective value: {result.run.best.evaluation.value:.6f}")
    print(f"quality components: g1={b.g1:.6f} g2={b.g2:.6f} g3={b.g3:.6f} G={b.fitness:.6f}")
    print(f"train accuracy: {result.train_accuracy:.4f} ({train.n} records)")
    if report is not None:
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
    options, out, spec, settings = _setup(args)
    check_seed(options["seed"])  # refused even when no split uses it
    model = load_model(args.model)
    ds = _load_dataset(options)
    if spec is not None:
        _, ds = split(ds, spec)

    internal, scores = predict_dataset(model, ds, sum_scores=options["sum_scores"])
    report = report_from_predictions(model, ds, internal)
    print(f"records: {report.n}")
    print(f"accuracy: {_metric(report.accuracy)}")
    print(f"sensitivity: {_metric(report.sensitivity)}")
    print(f"specificity: {_metric(report.specificity)}")
    if report.counts is not None:
        c = report.counts
        print(f"confusion: tp={c.tp} fp={c.fp} tn={c.tn} fn={c.fn}")

    if out is not None:
        predictions_path = _output(
            out, "predictions.csv", lambda path: write_predictions(path, ds, model, internal, scores)
        )
        print(f"predictions: {predictions_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    """train per (ratio, optimizer, seed) cell, write sweep.csv"""
    options, out, _, settings = _setup(args)
    values = options["ratios"], options["seeds"], options["optimizer"]
    check_sweep(*values)
    ds = _load_dataset(options)
    result = run_sweep(ds, settings, *values)
    path = _output(out, "sweep.csv", lambda path: write_sweep_csv(result, path))
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
    options, out, spec, settings = _setup(args)
    values = options["e_values"], options["k_values"], spec.fraction, spec.seed
    check_param_sweep(*values)
    ds = _load_dataset(options)
    rows = run_param_sweep(ds, settings, *values)
    path = _output(out, "param_sweep.csv", lambda path: write_param_sweep_csv(rows, path))
    for row in rows:
        score = f"failed: {row.error}" if row.error else f"test accuracy {row.test_accuracy:.4f}"
        print(f"e={row.smoothing:g} K={row.slope_divisor:g}: {score}")
    print(f"param-sweep: {path}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    """iterations/time to reach a target value, write benchmark.csv"""
    options, out, _, settings = _setup(args)
    values = options["ratios"], float(options["threshold"]), options["seed"], options["optimizer"]
    check_benchmark(*values)
    ds = _load_dataset(options)
    rows = run_benchmark(ds, settings, *values)
    path = _output(out, "benchmark.csv", lambda path: write_benchmark_csv(rows, path))
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
