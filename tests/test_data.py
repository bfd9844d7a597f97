"""Loaders, split protocol, standardization leak guard, aggregation."""

import statistics

import numpy as np
import pytest

from pacgibbs.data import (
    aggregate,
    binary_labels,
    load_sequences,
    load_vectors,
    make_splits,
    materialize_vector_split,
    one_vs_rest_tasks,
)
from pacgibbs.errors import DataFormatError, InvalidArgumentError


@pytest.fixture
def vector_file(tmp_path):
    path = tmp_path / "vec.csv"
    path.write_text("1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
    return str(path)


@pytest.fixture
def sequence_file(tmp_path):
    path = tmp_path / "seq.csv"
    path.write_text("fam1,ABBA\nfam2,BAAB\nfam1,AABB\n")
    return str(path)


class TestLoadVectors:
    def test_well_formed(self, vector_file):
        ds = load_vectors(vector_file)
        assert len(ds) == 3
        assert ds.dim == 2
        assert ds.class_names == ["a", "b"]
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.vectors[1] == pytest.approx([3.0, 4.0])

    def test_missing_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,a\n3.0,b\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_vectors(str(path))

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,x,a\n")
        with pytest.raises(DataFormatError, match="line 1"):
            load_vectors(str(path))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_cell_names_line(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"1.0,2.0,a\n{cell},2.0,b\n")
        with pytest.raises(DataFormatError, match="line 2: non-finite"):
            load_vectors(str(path))

    def test_unknown_label_with_class_list(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,a\n1.0,2.0,zz\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_vectors(str(path), classes=["a", "b"])

    def test_unlabeled_markers(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("1.0,2.0,a\n3.0,4.0,?\n5.0,6.0,\n")
        ds = load_vectors(str(path))
        assert ds.labels.tolist() == [0, -1, -1]

    def test_header_and_label_column(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("lbl,f1,f2\na,1.0,2.0\nb,3.0,4.0\n")
        ds = load_vectors(str(path), label_column=0, has_header=True)
        assert len(ds) == 2
        assert ds.vectors[0] == pytest.approx([1.0, 2.0])


class TestLoadSequences:
    def test_round_trip_tokens(self, sequence_file):
        ds = load_sequences(sequence_file)
        assert ds.alphabet == "AB"
        letters = "".join(ds.alphabet[t] for t in ds.sequences[0])
        assert letters == "ABBA"

    def test_unknown_letter(self, tmp_path):
        path = tmp_path / "bad.csv"
        # blank lines count: the error names the file line, not the row index
        path.write_text("fam1,ABBA\n\n\nfam1,ABZA\n")
        with pytest.raises(DataFormatError, match="line 4: letter 'Z'"):
            load_sequences(str(path), alphabet="AB")

    def test_too_short(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("fam1,A\n")
        with pytest.raises(DataFormatError, match="line 1"):
            load_sequences(str(path))

    def test_alphabet_cap(self, tmp_path):
        letters = "".join(chr(ord("A") + i) for i in range(23))
        path = tmp_path / "big.csv"
        path.write_text(f"fam1,{letters}\n")
        with pytest.raises(DataFormatError, match="22"):
            load_sequences(str(path))


class TestOneVsRest:
    def test_two_class_mirror(self, vector_file):
        ds = load_vectors(vector_file)
        tasks = one_vs_rest_tasks(ds)
        assert [t.positive_class for t in tasks] == [0, 1]

    def test_eight_class_counts(self):
        from pacgibbs.data import Dataset

        labels = np.repeat(np.arange(8), 5)
        ds = Dataset(
            kind="vector",
            labels=labels,
            class_names=[f"c{i}" for i in range(8)],
            vectors=np.zeros((40, 2)),
        )
        tasks = one_vs_rest_tasks(ds)
        assert len(tasks) == 8
        for t in tasks:
            pos = (labels == t.positive_class).sum()
            assert pos == 5
            assert len(labels) - pos == 35

    def test_single_class_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("1.0,2.0,a\n3.0,4.0,a\n")
        with pytest.raises(InvalidArgumentError):
            one_vs_rest_tasks(load_vectors(str(path)))


def blob_dataset(n_per_class=20, n_classes=2, seed=0):
    from pacgibbs.data import Dataset

    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n_per_class * n_classes, 3))
    labels = np.repeat(np.arange(n_classes), n_per_class)
    return Dataset(
        kind="vector",
        labels=labels,
        class_names=[f"c{i}" for i in range(n_classes)],
        vectors=vectors,
    )


class TestMakeSplits:
    def test_deterministic(self):
        ds = blob_dataset()
        task = one_vs_rest_tasks(ds)[0]
        a = make_splits(ds, task, 3, 0.25, seed=5)
        b = make_splits(ds, task, 3, 0.25, seed=5)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.train_l, s2.train_l)
            assert np.array_equal(s1.train_u, s2.train_u)
            assert np.array_equal(s1.test, s2.test)

    def test_disjoint_and_stratified(self):
        ds = blob_dataset(n_per_class=21)
        task = one_vs_rest_tasks(ds)[0]
        for split in make_splits(ds, task, 20, 0.25, seed=1):
            train, pool, test = set(split.train_l), set(split.train_u), set(split.test)
            assert not train & test
            assert not train & pool
            assert not pool & test
            # per-class train counts within 1 of half
            for cls in (0, 1):
                n_cls = (ds.labels == cls).sum()
                in_train = sum(ds.labels[i] == cls for i in split.train_l)
                assert abs(in_train - n_cls / 2) <= 0.5

    def test_pool_comes_from_test_half(self):
        ds = blob_dataset(n_per_class=24)
        task = one_vs_rest_tasks(ds)[0]
        for split in make_splits(ds, task, 5, 0.25, seed=2):
            full_test_half = set(split.train_u) | set(split.test)
            assert set(split.train_u) <= full_test_half
            assert len(split.train_u) == round(0.25 * 12) * 2

    def test_zero_fraction_leaves_test_untouched(self):
        ds = blob_dataset()
        task = one_vs_rest_tasks(ds)[0]
        for split in make_splits(ds, task, 3, 0.0, seed=3):
            assert split.train_u.size == 0
            assert split.train_l.size + split.test.size == len(ds)

    def test_twenty_partitions_distinct(self):
        ds = blob_dataset(n_per_class=30)
        task = one_vs_rest_tasks(ds)[0]
        splits = make_splits(ds, task, 20, 0.25, seed=4)
        assert len({tuple(s.train_l) for s in splits}) == 20

    def test_tiny_class_rejected(self):
        from pacgibbs.data import Dataset

        ds = Dataset(
            kind="vector",
            labels=np.array([0, 1, 1, 1]),
            class_names=["a", "b"],
            vectors=np.zeros((4, 2)),
        )
        with pytest.raises(InvalidArgumentError):
            make_splits(ds, one_vs_rest_tasks(ds)[0], 1)


class TestStandardization:
    def test_train_mean_zero_variance_one(self):
        ds = blob_dataset(n_per_class=25, seed=7)
        ds.vectors = ds.vectors * 3.0 + 5.0
        task = one_vs_rest_tasks(ds)[0]
        split = make_splits(ds, task, 1, 0.25, seed=8)[0]
        X_l, y_l, X_u, X_test, y_test = materialize_vector_split(ds, split)
        train = np.vstack([X_l, X_u])
        assert np.abs(train.mean(axis=0)).max() < 1e-10
        assert train.std(axis=0) == pytest.approx(np.ones(3), abs=1e-10)

    def test_no_leak_from_test_rows(self):
        ds = blob_dataset(n_per_class=25, seed=9)
        task = one_vs_rest_tasks(ds)[0]
        split = make_splits(ds, task, 1, 0.0, seed=10)[0]
        materialize_vector_split(ds, split)
        mean_before, std_before = split.feat_mean.copy(), split.feat_std.copy()
        ds.vectors[split.test] += 100.0  # corrupt test rows only
        split2 = make_splits(ds, task, 1, 0.0, seed=10)[0]
        materialize_vector_split(ds, split2)
        assert split2.feat_mean == pytest.approx(mean_before)
        assert split2.feat_std == pytest.approx(std_before)

    def test_binary_labels(self):
        ds = blob_dataset()
        idx = np.arange(len(ds))
        y = binary_labels(ds, idx, positive_class=1)
        assert set(y.tolist()) == {-1, 1}
        assert (y == 1).sum() == 20


class TestAggregate:
    def test_identical_values(self):
        mean, std = aggregate([0.9, 0.9, 0.9])
        assert mean == pytest.approx(90.0)
        assert std == 0.0

    def test_two_point_formula(self):
        mean, std = aggregate([0.8, 1.0])
        assert mean == pytest.approx(90.0)
        assert std == pytest.approx(14.142135623730951, abs=1e-9)

    def test_against_stdlib_statistics(self):
        rng = np.random.default_rng(11)
        vals = rng.uniform(0.5, 1.0, size=20).tolist()
        mean, std = aggregate(vals)
        assert mean == pytest.approx(100.0 * statistics.fmean(vals), abs=1e-9)
        assert std == pytest.approx(100.0 * statistics.stdev(vals), abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            aggregate([])
