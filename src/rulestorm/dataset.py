"""Tabular CSV ingestion, per-attribute statistics and stratified splitting."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class Dataset:
    """Numeric records with integer class labels remapped to 1..c.

    ``class_values`` holds the original label value for each internal class,
    in ascending order, so internal class k corresponds to
    ``class_values[k - 1]``.
    """

    x: np.ndarray
    y: np.ndarray
    attribute_names: tuple[str, ...]
    class_values: tuple[float, ...]

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def m(self) -> int:
        return self.x.shape[1]

    @property
    def c(self) -> int:
        return len(self.class_values)


@dataclass(frozen=True)
class AttributeStats:
    minimum: float
    maximum: float
    constant: bool


@dataclass(frozen=True)
class SplitSpec:
    fraction: float
    seed: int


def _parse_cell(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def load_csv(path: str | Path, label: int | str | None = None) -> Dataset:
    """Load a CSV of numeric attributes plus one class-label column.

    The label column is picked by header name, by 0-based index, or defaults
    to the last column. The first row is treated as a header when its label
    cell does not parse as a number.

    Raises DataError for unusable files and ConfigError for an unusable
    ``label`` argument.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"data file not found: {path}")
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: not a readable CSV file: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file")

    width = len(rows[0])
    if width < 2:
        raise DataError(f"{path}: need at least one attribute and a label column")

    if isinstance(label, str):
        if label not in rows[0]:
            raise ConfigError(f"label column {label!r} not in header {rows[0]}")
        label_idx = rows[0].index(label)
        header: list[str] | None = rows[0]
    else:
        label_idx = width - 1 if label is None else label
        if not 0 <= label_idx < width:
            raise ConfigError(
                f"label column index {label_idx} out of range for {width} columns"
            )
        header = rows[0] if _parse_cell(rows[0][label_idx]) is None else None

    if header is not None:
        names = tuple(h for i, h in enumerate(header) if i != label_idx)
        body = rows[1:]
        first_line = 2
    else:
        names = tuple(f"a{j + 1}" for j in range(width - 1))
        body = rows
        first_line = 1

    if not body:
        raise DataError(f"{path}: no data rows")

    x = np.empty((len(body), width - 1), dtype=float)
    raw_labels = np.empty(len(body), dtype=float)
    for i, row in enumerate(body):
        line = first_line + i
        if len(row) != width:
            raise DataError(
                f"{path}: row {line} has {len(row)} cells, expected {width}"
            )
        col_out = 0
        for j, cell in enumerate(row):
            value = _parse_cell(cell)
            if value is None:
                kind = "label" if j == label_idx else "attribute"
                raise DataError(
                    f"{path}: row {line}, column {j + 1} has non-numeric {kind} cell {cell!r}"
                )
            if j == label_idx:
                raw_labels[i] = value
            else:
                x[i, col_out] = value
                col_out += 1

    bad = ~(np.isfinite(x).all(axis=1) & np.isfinite(raw_labels))
    if bad.any():
        i = int(np.argmax(bad))
        cell = next(c for c in body[i] if not np.isfinite(float(c)))
        raise DataError(f"{path}: row {first_line + i} has non-finite cell {cell!r}")

    class_values = tuple(float(v) for v in np.unique(raw_labels))
    if len(class_values) < 2:
        raise DataError(
            f"{path}: need at least two distinct class labels, found {class_values}"
        )
    remap = {v: k + 1 for k, v in enumerate(class_values)}
    y = np.array([remap[v] for v in raw_labels], dtype=int)

    x.setflags(write=False)
    y.setflags(write=False)
    return Dataset(x=x, y=y, attribute_names=names, class_values=class_values)


def attribute_stats(ds: Dataset) -> tuple[AttributeStats, ...]:
    """Per-attribute minimum and maximum over the given records."""
    stats = []
    for j in range(ds.m):
        lo = float(ds.x[:, j].min())
        hi = float(ds.x[:, j].max())
        stats.append(AttributeStats(minimum=lo, maximum=hi, constant=lo == hi))
    return tuple(stats)


def majority_class(ds: Dataset) -> int:
    """Most frequent internal class; ties go to the smaller class index."""
    counts = np.bincount(ds.y, minlength=ds.c + 1)[1:]
    return int(np.argmax(counts)) + 1


def _subset(ds: Dataset, idx: np.ndarray) -> Dataset:
    x = ds.x[idx].copy()
    y = ds.y[idx].copy()
    x.setflags(write=False)
    y.setflags(write=False)
    return Dataset(
        x=x, y=y, attribute_names=ds.attribute_names, class_values=ds.class_values
    )


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Seeded stratified split into (train, test).

    The train side gets round(fraction * n) records overall; per-class counts
    follow the class proportions to within one record, and every class keeps
    at least one record on each side.
    """
    if not 0.0 < spec.fraction < 1.0:
        raise ConfigError(f"split fraction must be in (0, 1), got {spec.fraction}")
    n_train = round(spec.fraction * ds.n)
    c = ds.c
    class_counts = np.array([np.sum(ds.y == j) for j in range(1, c + 1)])
    if n_train < c or ds.n - n_train < c or np.any(class_counts < 2):
        raise DataError(
            f"split fraction {spec.fraction} cannot keep every class non-empty "
            f"on both sides (n={ds.n}, class counts={class_counts.tolist()})"
        )

    ideal = spec.fraction * class_counts
    take = np.floor(ideal).astype(int)
    # hand out the remaining seats by largest fractional remainder
    remainders = ideal - take
    for j in np.argsort(-remainders, kind="stable")[: n_train - take.sum()]:
        take[j] += 1
    # keep one record per class on each side, then re-balance to the total
    take = np.clip(take, 1, class_counts - 1)
    while take.sum() > n_train:
        candidates = np.flatnonzero(take > 1)
        j = candidates[np.argmax(take[candidates] - ideal[candidates])]
        take[j] -= 1
    while take.sum() < n_train:
        candidates = np.flatnonzero(take < class_counts - 1)
        j = candidates[np.argmin(take[candidates] - ideal[candidates])]
        take[j] += 1

    rng = np.random.default_rng(spec.seed)
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for j in range(1, c + 1):
        members = np.flatnonzero(ds.y == j)
        order = rng.permutation(len(members))
        cut = take[j - 1]
        train_idx.append(members[order[:cut]])
        test_idx.append(members[order[cut:]])
    return (
        _subset(ds, np.sort(np.concatenate(train_idx))),
        _subset(ds, np.sort(np.concatenate(test_idx))),
    )
