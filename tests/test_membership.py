import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import any_partition, values_near
from oracles import fuzzify

from rulestorm.dataset import AttributeStats, load_csv
from rulestorm.errors import ConfigError
from rulestorm.membership import (
    FuzzyPartition,
    TriangularMF,
    build_partition,
    degree,
    degree_matrix,
    fuzzify_dataset,
)


def part(lo, hi, p):
    return build_partition(AttributeStats(lo, hi), p)


class TestBuildPartition:
    def test_three_label_peaks(self):
        pt = part(0.0, 10.0, 3)
        assert pt.mfs == (
            TriangularMF(0.0, 0.0, 5.0),
            TriangularMF(0.0, 5.0, 10.0),
            TriangularMF(5.0, 10.0, 10.0),
        )

    def test_two_label_partition(self):
        pt = part(0.0, 10.0, 2)
        assert pt.mfs == (TriangularMF(0.0, 0.0, 10.0), TriangularMF(0.0, 10.0, 10.0))

    def test_minimum_labels_enforced(self):
        with pytest.raises(ConfigError):
            part(0.0, 1.0, 1)

    def test_constant_attribute_degenerates_with_warning(self):
        with pytest.warns(UserWarning):
            pt = part(4.0, 4.0, 3)
        assert pt.degenerate
        assert pt.p == 3


UNIT_MFS = (TriangularMF(0.0, 0.0, 0.5), TriangularMF(0.0, 0.5, 1.0), TriangularMF(0.5, 1.0, 1.0))


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(degenerate="no"), "degenerate must be true or false, got 'no'"),
        (dict(degenerate=1), "degenerate must be true or false, got 1"),
        (dict(degenerate=np.True_), "degenerate must be true or false"),
        (dict(mfs=(TriangularMF("0", 0.0, 0.5),) + UNIT_MFS[1:]), "finite a <= b <= c"),
        (dict(mfs=(TriangularMF(False, 0.0, 0.5),) + UNIT_MFS[1:]), "finite a <= b <= c"),
        (dict(mfs=UNIT_MFS[:2] + (TriangularMF(0.5, 1.0, None),)), "finite a <= b <= c"),
        (dict(minimum="0"), "finite minimum <= maximum"),
        (dict(maximum=True), "finite minimum <= maximum"),
        (dict(maximum=10**400), "finite minimum <= maximum"),
        (dict(minimum=-1e308, maximum=1e308), "too wide for its degrees"),
        (dict(mfs=UNIT_MFS[:2] + (TriangularMF(0.5, 1.0, 1.7e308),), minimum=-1e308), "too wide"),
    ],
)
def test_a_partition_checks_every_value_it_holds(change, message):
    with pytest.raises(ConfigError, match=message):
        FuzzyPartition(**{"mfs": UNIT_MFS, "minimum": 0.0, "maximum": 1.0, **change})


@st.composite
def partitions_and_values(draw):
    """(partition, values): any valid FuzzyPartition of 1 to 5 labels, and
    values at each of its numbers, a float either side of each, at +-0.0, at
    +-inf, and anywhere."""
    pt = draw(any_partition(draw(st.integers(1, 5))))
    xs = [*values_near(pt), *draw(st.lists(st.floats(allow_nan=False), max_size=10))]
    return pt, draw(st.permutations(xs))


class TestDegree:
    def test_two_label_shoulder_value(self):
        # first label of a 2-label partition on [0, 10] at x = 2.5
        assert degree(part(0, 10, 2), 1, 2.5) == pytest.approx(0.75)

    def test_peak_degrees_are_one(self):
        pt = part(0, 10, 3)
        for k, x in ((1, 0.0), (2, 5.0), (3, 10.0)):
            assert degree(pt, k, x) == 1.0

    def test_midpoint_between_first_two_peaks(self):
        pt = part(0, 10, 3)
        assert degree(pt, 1, 2.5) == pytest.approx(0.5)
        assert degree(pt, 2, 2.5) == pytest.approx(0.5)
        assert degree(pt, 3, 2.5) == 0.0

    def test_out_of_range_clamps(self):
        pt = part(0, 10, 3)
        assert degree(pt, 1, -99.0) == 1.0
        assert degree(pt, 3, 99.0) == 1.0

    def test_degenerate_partition_all_mass_on_first_label(self):
        with pytest.warns(UserWarning):
            pt = part(4.0, 4.0, 3)
        assert degree(pt, 1, 4.0) == 1.0
        assert degree(pt, 2, 4.0) == 0.0
        assert degree(pt, 1, 123.0) == 1.0

    def test_bad_label_index(self):
        pt = part(0, 10, 3)
        with pytest.raises(ConfigError):
            degree(pt, 0, 1.0)
        with pytest.raises(ConfigError):
            degree(pt, 4, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        lo=st.floats(-1e3, 1e3),
        width=st.floats(1e-3, 1e3),
        p=st.integers(2, 7),
        frac=st.lists(st.floats(0, 1), min_size=1, max_size=20),
    )
    def test_partition_of_unity(self, lo, width, p, frac):
        pt = part(lo, lo + width, p)
        for f in frac:
            x = lo + f * width
            total = sum(degree(pt, k, x) for k in range(1, p + 1))
            assert abs(total - 1.0) <= 1e-9

    @settings(max_examples=300, deadline=None)
    @given(case=partitions_and_values())
    @example(case=(FuzzyPartition(UNIT_MFS, 0.0, 1.0), [-0.0, 0.0, 0.25, 0.5, 1.0, -1.0, 2.0]))
    @example(case=(FuzzyPartition((TriangularMF(0.0, 0.0, 0.0), TriangularMF(-0.0, 0.0, 0.0)), 0.0, 0.0), [-0.0, 0.0]))
    @example(case=(FuzzyPartition((TriangularMF(-1.0, -0.0, -0.0), TriangularMF(0.0, 0.0, 1.0)), -0.0, 0.0), [-0.0, 0.0]))
    @example(case=(FuzzyPartition((TriangularMF(5e-324, 10.0, 20.0),), 0.0, 30.0), [0.0, -0.0, 5e-324, 30.0]))
    # x - a (x = -0.0, a = 0.0) and c - x (c = -0.0, x = 0.0) are -0.0 here
    @example(case=(FuzzyPartition((TriangularMF(0.0, 0.5, 1.0), TriangularMF(-1.0, -0.5, -0.0)), -1.0, 1.0), [-0.0, 0.0]))
    def test_matrix_path_equals_scalar_degree_bit_for_bit(self, case):
        pt, xs = case
        mat = degree_matrix(pt, np.array(xs))
        assert mat.shape == (len(xs), pt.p)
        expected = np.array([[degree(pt, k, x) for k in range(1, pt.p + 1)] for x in xs])
        assert np.array_equal(mat.view(np.int64), expected.view(np.int64))


class TestFuzzify:
    def test_worked_examples(self):
        pt = part(0, 10, 3)
        assert fuzzify(pt, 7.6) == 3  # degrees (0, 0.48, 0.52)
        assert fuzzify(pt, 5.0) == 2
        assert fuzzify(pt, 2.5) == 1  # 0.5 / 0.5 tie goes to the smaller label

    def test_clamping(self):
        pt = part(0, 10, 3)
        assert fuzzify(pt, -3.0) == 1
        assert fuzzify(pt, 13.0) == 3

    @settings(max_examples=40, deadline=None)
    @given(
        lo=st.integers(-50, 50),
        width=st.integers(1, 100),
        p=st.integers(2, 6),
        fracs=st.lists(st.floats(0, 1), min_size=2, max_size=12),
    )
    def test_labels_monotone_in_x(self, lo, width, p, fracs):
        pt = part(float(lo), float(lo + width), p)
        xs = sorted(lo + f * width for f in fracs)
        labels = [fuzzify(pt, x) for x in xs]
        assert labels == sorted(labels)

    @settings(max_examples=40, deadline=None)
    @given(
        lo=st.integers(-20, 20),
        width=st.integers(1, 40),
        p=st.integers(2, 5),
        scale=st.integers(1, 8),
        shift=st.integers(-30, 30),
        fracs=st.lists(st.floats(0, 1), min_size=1, max_size=10),
    )
    def test_labels_invariant_under_affine_rescale(
        self, lo, width, p, scale, shift, fracs
    ):
        src = part(float(lo), float(lo + width), p)
        dst = part(float(scale * lo + shift), float(scale * (lo + width) + shift), p)
        peaks = np.linspace(lo, lo + width, p)
        mids = (peaks[:-1] + peaks[1:]) / 2
        for f in fracs:
            x = lo + f * width
            if np.min(np.abs(mids - x)) < 1e-6 * width:
                continue  # exact tie points may flip under rescaling noise
            assert fuzzify(dst, scale * x + shift) == fuzzify(src, x)


class TestFuzzifyDataset:
    def test_against_per_cell_argmax(self, pid_path):
        from rulestorm.dataset import attribute_stats

        ds = load_csv(pid_path)
        parts = tuple(build_partition(s, 3) for s in attribute_stats(ds))
        ld = fuzzify_dataset(ds, parts)
        assert ld.labels.shape == (768, 8)
        assert ld.classes.tolist() == ds.y.tolist()
        assert ld.p == 3 and ld.c == 2
        rng = np.random.default_rng(0)
        for i in rng.choice(768, size=40, replace=False):
            for j in range(8):
                assert ld.labels[i, j] == fuzzify(parts[j], ds.x[i, j])

    def test_partition_count_must_match(self, pid_path):
        ds = load_csv(pid_path)
        with pytest.raises(ConfigError):
            fuzzify_dataset(ds, (part(0, 1, 3),))

    def test_labels_in_range(self, pid_path):
        from rulestorm.dataset import attribute_stats

        ds = load_csv(pid_path)
        for p in (2, 3, 5):
            parts = tuple(build_partition(s, p) for s in attribute_stats(ds))
            ld = fuzzify_dataset(ds, parts)
            assert ld.labels.min() >= 1 and ld.labels.max() <= p
