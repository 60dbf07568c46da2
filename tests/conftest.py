from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from rulestorm.dataset import Dataset
from rulestorm.membership import FuzzyPartition, TriangularMF

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def pid_path() -> Path:
    return REPO_ROOT / "data" / "pima.csv"


def make_separable_dataset(n=60, seed=0) -> Dataset:
    """Class follows the first attribute's region; second attribute is noise."""
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(0.0, 10.0, size=n)
    x2 = rng.uniform(0.0, 10.0, size=n)
    y = np.where(x1 < 5.0, 1, 2)
    # pin the range so the partition peaks are stable
    x1[0], x1[1] = 0.0, 10.0
    y[0], y[1] = 1, 2
    x = np.column_stack([x1, x2])
    return Dataset(
        x=x,
        y=y.astype(int),
        attribute_names=("a1", "a2"),
        class_values=(0.0, 1.0),
    )


def make_noise_dataset(n=40, seed=7) -> Dataset:
    """Labels are independent coin flips: no attribute carries signal."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, 2))
    y = rng.integers(1, 3, size=n)
    y[0], y[1] = 1, 2
    return Dataset(
        x=x,
        y=y.astype(int),
        attribute_names=("a1", "a2"),
        class_values=(0.0, 1.0),
    )


# Breakpoints that sit on signed zeros, are subnormal or are far apart. A
# partition's numbers must span a finite width, so none is beyond 8e307.
BREAKPOINTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, 1e-300, 8e307, -8e307]),
    st.floats(-8e307, 8e307),
)


@st.composite
def any_partition(draw, p):
    """Any valid FuzzyPartition with p labels, not only the uniform ones that
    build_partition makes. Its numbers come from a few shared ones, so left and
    right shoulders, a == b == c, overlapping and gapped triangles, and -0.0
    beside 0.0 are common; about one in ten is degenerate."""
    number = st.sampled_from(draw(st.lists(BREAKPOINTS, min_size=1, max_size=5)))
    mfs = tuple(TriangularMF(*sorted(draw(st.tuples(number, number, number)))) for _ in range(p))
    minimum, maximum = sorted(draw(st.tuples(number, number)))
    return FuzzyPartition(mfs, minimum, maximum, degenerate=draw(st.integers(0, 9)) == 0)


def values_near(partition: FuzzyPartition) -> list[float]:
    """Each of the partition's numbers, the float either side of it, +-0.0
    and +-inf: where a degree changes branch or is clipped."""
    numbers = [partition.minimum, partition.maximum, *(v for mf in partition.mfs for v in (mf.a, mf.b, mf.c))]
    near = [float(np.nextafter(v, toward)) for v in numbers for toward in (-np.inf, np.inf)]
    return [*map(float, numbers), *near, -0.0, 0.0, np.inf, -np.inf]
