"""Uniform triangular fuzzy partitions over attribute ranges."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import AttributeStats, Dataset
from .errors import ConfigError, DataError


@dataclass(frozen=True)
class TriangularMF:
    """Triangle breakpoints. a == b makes a left shoulder that saturates at 1
    below b; b == c makes a right shoulder that saturates at 1 above b."""

    a: float
    b: float
    c: float


@dataclass(frozen=True)
class FuzzyPartition:
    """Labels over [minimum, maximum]: finite breakpoints, a <= b <= c."""

    mfs: tuple[TriangularMF, ...]
    minimum: float
    maximum: float
    degenerate: bool = False

    def __post_init__(self) -> None:
        for mf in self.mfs:
            if not -np.inf < mf.a <= mf.b <= mf.c < np.inf:  # also false for nan
                raise ConfigError(f"membership function {[mf.a, mf.b, mf.c]}: need finite a <= b <= c")
        if not -np.inf < self.minimum <= self.maximum < np.inf:
            raise ConfigError(f"range [{self.minimum}, {self.maximum}]: need finite minimum <= maximum")

    @property
    def p(self) -> int:
        return len(self.mfs)


def build_partition(stats: AttributeStats, p: int) -> FuzzyPartition:
    """Evenly spaced triangular partition with p labels over [min, max].

    Peaks sit at min + (k-1) * (max-min) / (p-1); the outer labels are
    shoulders. A constant attribute yields a degenerate partition where every
    value belongs to label 1 with degree 1.
    """
    if p < 2:
        raise ConfigError(f"a partition needs at least 2 labels, got p={p}")
    lo, hi = stats.minimum, stats.maximum
    if not np.isfinite(hi - lo):
        raise DataError(f"attribute range [{lo}, {hi}] is too wide to partition")
    if stats.constant or lo == hi:
        warnings.warn(
            f"constant attribute (min == max == {lo}); every value maps to "
            "label 1 with degree 1"
        )
        mfs = tuple(TriangularMF(lo, lo, lo) for _ in range(p))
        return FuzzyPartition(mfs=mfs, minimum=lo, maximum=hi, degenerate=True)

    peaks = np.linspace(lo, hi, p)
    mfs = [TriangularMF(lo, lo, float(peaks[1]))]
    for k in range(1, p - 1):
        mfs.append(TriangularMF(float(peaks[k - 1]), float(peaks[k]), float(peaks[k + 1])))
    mfs.append(TriangularMF(float(peaks[p - 2]), hi, hi))
    return FuzzyPartition(mfs=tuple(mfs), minimum=lo, maximum=hi)


def _triangle(mf: TriangularMF, x: float) -> float:
    if x <= mf.a:
        return 1.0 if mf.a == mf.b else 0.0
    if x >= mf.c:
        return 1.0 if mf.b == mf.c else 0.0
    if x == mf.b:
        return 1.0
    if x < mf.b:
        return (x - mf.a) / (mf.b - mf.a)
    return (mf.c - x) / (mf.c - mf.b)


def degree(partition: FuzzyPartition, k: int, x: float) -> float:
    """Membership degree of x in label k (1-based).

    x is clamped to the partition range before evaluation, so the shoulders
    absorb out-of-range values.
    """
    if not 1 <= k <= partition.p:
        raise ConfigError(f"label {k} outside 1..{partition.p}")
    if partition.degenerate:
        return 1.0 if k == 1 else 0.0
    x = min(max(x, partition.minimum), partition.maximum)
    return _triangle(partition.mfs[k - 1], x)


def degree_matrix(partition: FuzzyPartition, xs: np.ndarray) -> np.ndarray:
    """Vectorized degrees: shape (len(xs), p). Matches degree() per cell."""
    xs = np.asarray(xs, dtype=float)
    if partition.degenerate:
        out = np.zeros((xs.shape[0], partition.p))
        out[:, 0] = 1.0
        return out
    x = np.clip(xs, partition.minimum, partition.maximum)
    out = np.empty((x.shape[0], partition.p))
    for idx, mf in enumerate(partition.mfs):
        d = np.where(x == mf.b, 1.0, 0.0)
        if mf.a < mf.b:
            rising = (x > mf.a) & (x < mf.b)
            d = np.where(rising, (x - mf.a) / (mf.b - mf.a), d)
        else:
            d = np.where(x <= mf.a, 1.0, d)
        if mf.b < mf.c:
            falling = (x > mf.b) & (x < mf.c)
            d = np.where(falling, (mf.c - x) / (mf.c - mf.b), d)
        else:
            d = np.where(x >= mf.c, 1.0, d)
        out[:, idx] = d
    return out


def degree_table(partitions: tuple[FuzzyPartition, ...], x: np.ndarray, p: int) -> np.ndarray:
    """Degrees of every record in every label, shape (m, p + 2, n), indexed
    [attribute, label, record]. Label 0 holds 1.0 and label p + 1 holds 0.0,
    the neutral elements of min and max: the AND and OR don't-cares."""
    table = np.zeros((len(partitions), p + 2, x.shape[0]))
    table[:, 0] = 1.0
    for j, partition in enumerate(partitions):
        table[j, 1 : p + 1] = degree_matrix(partition, x[:, j]).T
    return table


def rank_table(partitions: tuple[FuzzyPartition, ...], x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """`degree_table` coded by rank: (values, ranks) with values[ranks] equal
    to the degree table bit for bit. values holds the sorted distinct degrees,
    0.0 and 1.0 included; ranks has the degree table's shape, in the smallest
    unsigned dtype that holds len(values) - 1. values is increasing, so the
    min or max of ranks is the rank of the min or max of degrees, and
    `rules.fold_rules` folds ranks as it folds degrees. Each attribute's
    degrees are computed once per distinct value."""
    distinct = [np.unique(x[:, j], return_inverse=True) for j in range(x.shape[1])]
    degrees = [degree_matrix(partition, xs) for partition, (xs, _) in zip(partitions, distinct)]
    values = np.unique(np.concatenate([[0.0, 1.0], *(d.ravel() for d in degrees)]))
    ranks = np.empty((len(partitions), p + 2, x.shape[0]), dtype=np.min_scalar_type(len(values) - 1))
    ranks[:, 0] = np.searchsorted(values, 1.0)
    ranks[:, p + 1] = np.searchsorted(values, 0.0)
    for j, (d, (_, inverse)) in enumerate(zip(degrees, distinct)):
        ranks[j, 1 : p + 1] = np.searchsorted(values, d).T[:, inverse]
    return values, ranks


def fuzzify(partition: FuzzyPartition, x: float) -> int:
    """Label with the highest degree; ties go to the smaller label index."""
    degs = [degree(partition, k, x) for k in range(1, partition.p + 1)]
    return int(np.argmax(degs)) + 1


@dataclass(frozen=True)
class LabeledDataset:
    """Fuzzified records: one label in 1..p per attribute, plus the class.
    Rule matches are counted on the distinct label rows (`indicators`,
    `multiplicities`); a training split has far fewer of them than records."""

    labels: np.ndarray
    classes: np.ndarray
    p: int
    c: int

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def m(self) -> int:
        return self.labels.shape[1]

    @cached_property
    def _distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct label rows (u, m) and the record count of each: what
        np.unique(labels, axis=0, return_counts=True) gives, up to the order
        of the rows, about ten times faster."""
        rows = self.labels[np.lexsort(self.labels.T)]
        starts = np.flatnonzero(np.r_[True, np.any(rows[1:] != rows[:-1], axis=1)])
        return rows[starts], np.diff(np.r_[starts, len(rows)])

    @property
    def multiplicities(self) -> np.ndarray:
        """How many records have each distinct label row, in the order of
        the columns of `indicators`."""
        return self._distinct[1]

    @cached_property
    def indicators(self) -> np.ndarray:
        """Crisp labels of the distinct label rows, shape (m, p + 2, u) and
        padded as `degree_table` pads degrees: [j, k, i] is whether distinct
        row i has label k on attribute j. Records that share a label row
        match the same rules, so match counts are the masks that
        `fold_rules` gives on this table weighted by `multiplicities`. C
        order, so each (j, k) row that `fold_rules` gathers is contiguous."""
        rows = self._distinct[0]
        table = np.ascontiguousarray(rows.T[:, None, :] == np.arange(self.p + 2)[:, None])
        table[:, 0] = True
        table.setflags(write=False)
        return table


def fuzzify_dataset(
    ds: Dataset, partitions: tuple[FuzzyPartition, ...]
) -> LabeledDataset:
    if len(partitions) != ds.m:
        raise ConfigError(
            f"got {len(partitions)} partitions for {ds.m} attributes"
        )
    ps = {pt.p for pt in partitions}
    if len(ps) != 1:
        raise ConfigError(f"partitions disagree on label count: {sorted(ps)}")
    labels = np.empty((ds.n, ds.m), dtype=int)
    for j, pt in enumerate(partitions):
        labels[:, j] = np.argmax(degree_matrix(pt, ds.x[:, j]), axis=1) + 1
    labels.setflags(write=False)
    return LabeledDataset(labels=labels, classes=ds.y, p=ps.pop(), c=ds.c)
