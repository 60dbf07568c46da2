"""Tabular CSV ingestion, per-attribute statistics and stratified splitting."""

from __future__ import annotations

import csv
import io
from dataclasses import InitVar, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, check_bound, check_fields

# load_csv's numeric path parses the body in chunks of about this many bytes,
# so that no full-width table of the file is alive at once.
CHUNK_BYTES = 1 << 20


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


@dataclass(frozen=True)
class SplitSpec:
    """The train share and seed of a stratified split. `fraction` must be in
    HELD_OUT, so that records are held out; with `allow_full` it may be in
    FULL, where 1 trains on every record. A refused fraction is reported as
    `name`."""

    HELD_OUT = "(0, 1)"
    FULL = "(0, 1]"

    fraction: float
    seed: int
    allow_full: InitVar[bool] = False
    name: InitVar[str] = "split fraction"

    def __post_init__(self, allow_full: bool, name: str) -> None:
        check_fields(self)
        check_bound(name, self.fraction, self.FULL if allow_full else self.HELD_OUT)

    @property
    def full(self) -> bool:
        """Whether the train side is every record, with none held out."""
        return self.fraction == 1.0


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

    The file's bytes are read once and hold UTF-8 text. numpy's C reader
    parses the body of a well-formed ASCII file in chunks of whole lines,
    each copied straight into the returned arrays; any file it rejects or
    might read differently from ``csv`` (a non-ASCII body, blank lines, bare
    ``\\r`` line ends, quoted newlines, a header row that spans lines, ragged
    rows, non-numeric or non-finite cells, spellings such as ``1_0`` that only
    ``float()`` accepts) is decoded and goes through the row-by-row scan,
    which returns the same arrays or names the offending row, column and cell.

    Raises DataError for unusable files and ConfigError for an unusable
    ``label`` argument.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"data file not found: {path}")
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"{path}: not a readable CSV file: {exc}") from exc
    parsed = _parse_numeric(path, data, label)
    if parsed is None:
        parsed = _scan_rows(path, _decode(path, data), label)
    del data  # before np.unique adds its own temporaries
    names, x, raw_labels = parsed

    values, inverse = np.unique(raw_labels, return_inverse=True)
    class_values = tuple(values.tolist())
    if len(class_values) < 2:
        raise DataError(
            f"{path}: need at least two distinct class labels, found {class_values}"
        )
    y = (inverse + 1).astype(int, copy=False)

    x.setflags(write=False)
    y.setflags(write=False)
    return Dataset(x=x, y=y, attribute_names=names, class_values=class_values)


def _decode(path: Path, data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a readable CSV file: {exc}") from exc


def _columns(
    path: Path, first: list[str], label: int | str | None
) -> tuple[int, tuple[str, ...], bool]:
    """(label column, attribute names, whether the first row is a header)."""
    width = len(first)
    if width < 2:
        raise DataError(f"{path}: need at least one attribute and a label column")

    if isinstance(label, str):
        if label not in first:
            raise ConfigError(f"label column {label!r} not in header {first}")
        label_idx = first.index(label)
        has_header = True
    else:
        label_idx = width - 1 if label is None else label
        if not 0 <= label_idx < width:
            raise ConfigError(
                f"label column index {label_idx} out of range for {width} columns"
            )
        has_header = _parse_cell(first[label_idx]) is None

    if has_header:
        names = tuple(h for i, h in enumerate(first) if i != label_idx)
    else:
        names = tuple(f"a{j + 1}" for j in range(width - 1))
    return int(label_idx), names, has_header


def _has_long_line(data: bytes, pos: int, limit: int) -> bool:
    """Whether a line of ``data`` from ``pos`` on is longer than ``limit``.

    Each step jumps to the last newline within ``limit + 1`` bytes, so a file
    takes about ``len(data) / limit`` steps.
    """
    while len(data) - pos > limit:
        newline = data.rfind(b"\n", pos, pos + limit + 1)
        if newline < 0:
            return True
        pos = newline + 1
    return False


def _parse_numeric(
    path: Path, data: bytes, label: int | str | None
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray] | None:
    """(names, x, raw labels) parsed by np.loadtxt, or None to use the scan.

    None whenever the row-by-row scan might raise or return something else:
    any error in the first row, a first row that runs on past its line, a
    csv field over ``csv.field_size_limit()``, a bare ``\\r``, a non-ASCII
    body, a chunk that loadtxt parses into more or fewer rows than it has
    lines (it skips blank lines and joins quoted newlines), a ragged or
    unparsable cell, or a non-finite value. The body is parsed in chunks of
    about ``CHUNK_BYTES`` that end at a newline, so only one chunk's table is
    alive besides the result.
    """
    first_line = data[: data.find(b"\n") + 1 or len(data)]
    # A header whose quoted cell runs on past its line goes to the scan: csv
    # then reads on into the empty second line.
    try:
        header = csv.reader((first_line.decode("utf-8"), ""))
        label_idx, names, has_header = _columns(path, next(header), label)
    except (UnicodeDecodeError, csv.Error, ConfigError, DataError):
        return None
    start = len(first_line) if has_header else 0
    newlines = data.count(b"\n", start)
    # a bare \r in the header line too: csv reads an empty row after "a,b\r\r\n"
    returns = data.count(b"\r")
    if (
        header.line_num > 1
        or returns and returns != data.count(b"\r\n")
        or start == len(data)
        or _has_long_line(data, start, csv.field_size_limit())
    ):
        return None
    width = len(names) + 1
    x = np.empty((newlines + (not data.endswith(b"\n")), width - 1))
    raw_labels = np.empty(x.shape[0])
    row = 0
    while start < len(data):
        end = len(data)
        if end - start > CHUNK_BYTES:
            # after the chunk's last newline, or the first one past a long line
            end = data.rfind(b"\n", start, start + CHUNK_BYTES) + 1 or data.find(b"\n", start) + 1 or end
        chunk = data[start:end]
        # Only ASCII has as many characters as bytes, loadtxt warns on a chunk
        # of blank lines, and an odd number of quotes means that a quoted
        # field runs on past the chunk's end.
        if not chunk.isascii() or chunk.isspace() or chunk.count(b'"') % 2:
            return None
        try:
            table = np.loadtxt(
                io.BytesIO(chunk), delimiter=",", quotechar='"', comments=None, ndmin=2,
                encoding="utf-8",
            )
        except ValueError:
            return None
        lines = chunk.count(b"\n") + (not chunk.endswith(b"\n"))
        if table.shape != (lines, width) or not np.isfinite(table).all():
            return None
        x[row : row + lines, :label_idx] = table[:, :label_idx]
        x[row : row + lines, label_idx:] = table[:, label_idx + 1 :]
        raw_labels[row : row + lines] = table[:, label_idx]
        row += lines
        start = end
    return names, x, raw_labels


def _scan_rows(
    path: Path, text: str, label: int | str | None
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """(names, x, raw labels) by calling float() on every cell, row by row.

    The path for files that np.loadtxt rejects or might read differently;
    its errors name the row, column and cell at fault.
    """
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise DataError(f"{path}: not a readable CSV file: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file")

    label_idx, names, has_header = _columns(path, rows[0], label)
    width = len(names) + 1
    body = rows[1:] if has_header else rows
    first_line = 2 if has_header else 1
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
    return names, x, raw_labels


def attribute_stats(ds: Dataset) -> tuple[AttributeStats, ...]:
    """Per-attribute minimum and maximum over the given records."""
    return tuple(AttributeStats(minimum=float(ds.x[:, j].min()), maximum=float(ds.x[:, j].max())) for j in range(ds.m))


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
