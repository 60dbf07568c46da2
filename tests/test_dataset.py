import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulestorm import dataset
from rulestorm.dataset import (
    AttributeStats,
    Dataset,
    SplitSpec,
    attribute_stats,
    load_csv,
    majority_class,
    split,
)
from rulestorm.errors import ConfigError, DataError


def write_csv(path, rows, header=None):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if header:
            w.writerow(header)
        w.writerows(rows)
    return path


class TestLoadCsv:
    def test_reference_corpus_shape(self, pid_path):
        ds = load_csv(pid_path)
        assert ds.n == 768
        assert ds.m == 8
        assert ds.c == 2

    def test_reference_corpus_label_mapping(self, pid_path):
        ds = load_csv(pid_path)
        assert ds.class_values == (0.0, 1.0)
        assert set(np.unique(ds.y)) == {1, 2}

    def test_reference_corpus_majority_fraction(self, pid_path):
        # independent tally straight off the file
        with open(pid_path) as fh:
            rows = list(csv.reader(fh))[1:]
        zeros = sum(1 for r in rows if r[-1] == "0")
        assert zeros == 500
        ds = load_csv(pid_path)
        assert np.sum(ds.y == 1) == 500
        assert np.sum(ds.y == 1) / ds.n == pytest.approx(500 / 768)
        assert majority_class(ds) == 1

    def test_reference_corpus_age_minimum(self, pid_path):
        ds = load_csv(pid_path)
        age = ds.x[:, ds.attribute_names.index("Age")]
        assert age.min() == 21.0

    def test_remap_preserves_sorted_order(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", [[1.0, 5], [2.0, -1], [3.0, 5], [4.0, 2]])
        ds = load_csv(p)
        assert ds.class_values == (-1.0, 2.0, 5.0)
        assert ds.y.tolist() == [3, 1, 3, 2]

    def test_header_detected_from_label_cell(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", [[1, 0], [2, 1]], header=["v", "cls"])
        ds = load_csv(p)
        assert ds.attribute_names == ("v",)
        assert ds.n == 2

    def test_headerless_gets_generated_names(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", [[1, 2, 0], [2, 1, 1]])
        ds = load_csv(p)
        assert ds.attribute_names == ("a1", "a2")

    def test_label_by_name(self, tmp_path):
        p = write_csv(
            tmp_path / "t.csv", [[1, 0, 9], [2, 1, 8]], header=["v", "cls", "w"]
        )
        ds = load_csv(p, label="cls")
        assert ds.m == 2
        assert ds.x[:, 1].tolist() == [9.0, 8.0]
        assert ds.y.tolist() == [1, 2]

    def test_label_by_index(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", [[0, 7], [1, 8]])
        ds = load_csv(p, label=0)
        assert ds.x[:, 0].tolist() == [7.0, 8.0]
        assert ds.y.tolist() == [1, 2]

    @pytest.mark.parametrize(
        "content",
        [
            None,  # data/pima.csv
            '"v","w","label"\r\n1,2,0\r\n3,4.5,1\r\n',  # R's write.csv quotes names
            "1,2,0\n3,4.5,1",
            "\u00e2ge,label\n1,0\n2,1\n",  # only the header is decoded; the body is ASCII
        ],
    )
    def test_well_formed_files_skip_the_row_scan(self, tmp_path, pid_path, monkeypatch, content):
        def refuse(*args):
            raise AssertionError("the row-by-row scan ran on a well-formed file")

        chunks = []

        def count_chunks(*args, **kwargs):
            chunks.append(args[0])
            return loadtxt(*args, **kwargs)

        path = pid_path
        if content is not None:
            path = tmp_path / "t.csv"
            path.write_bytes(content.encode())
        loadtxt = np.loadtxt
        monkeypatch.setattr(dataset, "_scan_rows", refuse)
        monkeypatch.setattr(dataset.np, "loadtxt", count_chunks)
        rows = 768 if content is None else 2
        # with 4-byte chunks each body line of these files is a chunk of its own
        for chunk, calls in ((dataset.CHUNK_BYTES, 1), (4, rows)):
            chunks.clear()
            monkeypatch.setattr(dataset, "CHUNK_BYTES", chunk)
            assert load_csv(path).n == rows
            assert len(chunks) == calls

    # float() reads both cells as 3; numpy's reader reads the second one too,
    # but the fast path counts bytes as characters, so only ASCII bodies take it
    @pytest.mark.parametrize("cell", ["\u0663", "\u00a03"], ids=["arabic-indic-3", "nbsp-3"])
    def test_non_ascii_body_takes_the_row_scan(self, tmp_path, monkeypatch, cell):
        scanned = []

        def spy(*args):
            scanned.append(args[0])
            return scan(*args)

        scan = dataset._scan_rows
        path = tmp_path / "t.csv"
        path.write_bytes(f"a,label\n1,0\n{cell},1\n".encode())
        monkeypatch.setattr(dataset, "_scan_rows", spy)
        assert load_csv(path).x.tolist() == [[1.0], [3.0]]
        assert scanned == [path]

    def test_load_holds_the_file_and_one_chunk_beside_its_result(self, tmp_path):
        # Beside the arrays it returns, the numeric path holds the file's
        # bytes, one chunk and the chunk's table; a full-width table of every
        # row would add about as much again as the result.
        rows = 200_000
        rng = np.random.default_rng(0)
        table = np.column_stack([
            rng.integers(0, 200, size=(rows, 4)),
            rng.normal(size=(rows, 3)).round(3),
            rng.integers(0, 2, size=rows),
        ])
        path = tmp_path / "big.csv"
        np.savetxt(
            path, table, fmt=["%d"] * 4 + ["%.3f"] * 3 + ["%d"], delimiter=",",
            header="a,b,c,d,e,f,g,label", comments="",
        )
        tracemalloc.start()
        try:
            ds = load_csv(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.x.tobytes() == table[:, :-1].tobytes()
        # the file is about 7 MB; 8 MiB is eight chunks of the default size
        assert peak - kept < path.stat().st_size + 8 * 2**20

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "nope.csv")

    def test_unreadable_file_is_a_data_error(self, tmp_path, monkeypatch):
        p = write_csv(tmp_path / "t.csv", [[1, 0], [2, 1]])

        def deny(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(dataset, "open", deny, raising=False)
        with pytest.raises(DataError, match="not a readable CSV file"):
            load_csv(p)

    def test_ragged_row_reports_location(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", [[1, 0], [2, 1, 3], [3, 1]])
        with pytest.raises(DataError, match="row 2"):
            load_csv(p)

    def test_non_numeric_attribute_reports_location(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", [[1, 0], ["oops", 1]])
        with pytest.raises(DataError, match=r"row 2.*column 1"):
            load_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_reports_row(self, tmp_path, cell):
        p = write_csv(tmp_path / "t.csv", [[1, 0], [2, 1], [cell, 1]])
        with pytest.raises(DataError, match=f"row 3.*{cell!r}"):
            load_csv(p)

    def test_non_finite_label_rejected(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", [[1, 0], [2, 1], [3, "inf"]])
        with pytest.raises(DataError, match="non-finite"):
            load_csv(p)

    def test_single_class_rejected(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", [[1, 0], [2, 0]])
        with pytest.raises(DataError, match="distinct"):
            load_csv(p)

    def test_unknown_label_name_rejected(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", [[1, 0], [2, 1]], header=["v", "cls"])
        with pytest.raises(ConfigError):
            load_csv(p, label="nope")

    def test_label_index_out_of_range(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", [[1, 0], [2, 1]])
        with pytest.raises(ConfigError):
            load_csv(p, label=5)


class TestAttributeStats:
    def test_min_max(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", [[1, 9, 0], [4, 9, 1], [-2, 9, 1]])
        stats = attribute_stats(load_csv(p))
        assert stats[0] == AttributeStats(minimum=-2.0, maximum=4.0)
        assert stats[0].minimum < stats[0].maximum
        assert stats[1] == AttributeStats(minimum=9.0, maximum=9.0)
        assert stats[1].minimum == stats[1].maximum == 9.0

    def test_reference_corpus_age_stats(self, pid_path):
        ds = load_csv(pid_path)
        s = attribute_stats(ds)[ds.attribute_names.index("Age")]
        assert s.minimum == 21.0
        assert s.maximum == 81.0
        assert s.minimum < s.maximum


def multiset(ds: Dataset):
    rows = [tuple(r) + (int(c),) for r, c in zip(ds.x.tolist(), ds.y.tolist())]
    return sorted(rows)


class TestSplit:
    def test_reference_corpus_eighty_percent(self, pid_path):
        ds = load_csv(pid_path)
        tr, te = split(ds, SplitSpec(fraction=0.8, seed=7))
        assert tr.n == 614  # round(0.8 * 768)
        assert te.n == 154
        for side in (tr, te):
            assert np.sum(side.y == 1) >= 1 and np.sum(side.y == 2) >= 1

    def test_round_trip_multiset(self, pid_path):
        ds = load_csv(pid_path)
        tr, te = split(ds, SplitSpec(fraction=0.7, seed=3))
        combined = sorted(multiset(tr) + multiset(te))
        assert combined == multiset(ds)

    def test_deterministic(self, pid_path):
        ds = load_csv(pid_path)
        a = split(ds, SplitSpec(fraction=0.8, seed=11))
        b = split(ds, SplitSpec(fraction=0.8, seed=11))
        assert np.array_equal(a[0].x, b[0].x) and np.array_equal(a[0].y, b[0].y)
        assert np.array_equal(a[1].x, b[1].x) and np.array_equal(a[1].y, b[1].y)

    @pytest.mark.parametrize("fraction, seed", [(0.8, -1), (0.8, 1.0), (float("nan"), 0)])
    def test_spec_rejects_negative_seed_and_non_finite_fraction(self, fraction, seed):
        with pytest.raises(ConfigError):
            SplitSpec(fraction=fraction, seed=seed)

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5, 1.0])
    def test_spec_holds_records_out(self, fraction):
        with pytest.raises(ConfigError, match=rf"^split fraction must be in \(0, 1\), got {fraction}$"):
            SplitSpec(fraction=fraction, seed=0)

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_full_spec_takes_one_and_names_its_option(self, fraction):
        assert SplitSpec(1.0, 0, allow_full=True).full and not SplitSpec(0.8, 0, allow_full=True).full
        with pytest.raises(ConfigError, match=rf"^train share must be in \(0, 1\], got {fraction}$"):
            SplitSpec(fraction, 0, allow_full=True, name="train share")

    def test_seed_changes_partition(self, pid_path):
        ds = load_csv(pid_path)
        a = split(ds, SplitSpec(fraction=0.8, seed=1))
        b = split(ds, SplitSpec(fraction=0.8, seed=2))
        assert not np.array_equal(a[0].x, b[0].x)

    def test_half_split_balanced_two_class(self, tmp_path):
        p = write_csv(
            tmp_path / "t.csv", [[1, 0], [2, 0], [3, 1], [4, 1]]
        )
        ds = load_csv(p)
        tr, te = split(ds, SplitSpec(fraction=0.5, seed=0))
        assert tr.n == te.n == 2
        assert sorted(tr.y.tolist()) == [1, 2]
        assert sorted(te.y.tolist()) == [1, 2]

    def test_stratification_within_one_record(self, pid_path):
        ds = load_csv(pid_path)
        for seed in range(3):
            tr, _ = split(ds, SplitSpec(fraction=0.8, seed=seed))
            for j in (1, 2):
                expected = 0.8 * np.sum(ds.y == j)
                assert abs(np.sum(tr.y == j) - expected) <= 1.0

    def test_class_starvation_rejected(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", [[1, 0], [2, 1], [3, 1], [4, 1]])
        ds = load_csv(p)
        with pytest.raises(DataError):
            split(ds, SplitSpec(fraction=0.9, seed=0))

    def test_mapping_carried_to_both_sides(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", [[1, 5], [2, 5], [3, 9], [4, 9]])
        ds = load_csv(p)
        tr, te = split(ds, SplitSpec(fraction=0.5, seed=0))
        assert tr.class_values == te.class_values == (5.0, 9.0)

    @settings(max_examples=30, deadline=None)
    @given(
        n_per_class=st.lists(st.integers(2, 12), min_size=2, max_size=4),
        fraction=st.floats(0.2, 0.8),
        seed=st.integers(0, 2**31),
    )
    def test_split_properties_random(self, n_per_class, fraction, seed):
        rng = np.random.default_rng(seed)
        xs, ys = [], []
        for j, nj in enumerate(n_per_class):
            xs.append(rng.normal(size=(nj, 3)))
            ys.extend([j + 1] * nj)
        x = np.vstack(xs)
        y = np.array(ys)
        ds = Dataset(
            x=x,
            y=y,
            attribute_names=("a1", "a2", "a3"),
            class_values=tuple(float(j + 1) for j in range(len(n_per_class))),
        )
        n_train = round(fraction * ds.n)
        c = len(n_per_class)
        if n_train < c or ds.n - n_train < c:
            with pytest.raises(DataError):
                split(ds, SplitSpec(fraction=fraction, seed=seed))
            return
        tr, te = split(ds, SplitSpec(fraction=fraction, seed=seed))
        assert tr.n == n_train
        assert sorted(multiset(tr) + multiset(te)) == multiset(ds)
        for j in range(1, c + 1):
            assert np.sum(tr.y == j) >= 1 and np.sum(te.y == j) >= 1
