import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kernelmix.data import (
    LabeledDataset,
    diameter,
    holdout_split,
    kfold_split,
    load_dataset,
    load_features,
    split_by_label,
    standardize,
)
from kernelmix.errors import ConfigError, DataError
from kernelmix.rng import stream
from oracles import reference_holdout_split, reference_kfold_split


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "d.csv", "f1,f2,label\n1,2,1\n3,4,-1\n5,6,1\n")
        ds = load_dataset(path)
        assert ds.n == 3 and ds.dim == 2
        assert ds.labels.tolist() == [1, -1, 1]
        assert np.array_equal(ds.features, [[1, 2], [3, 4], [5, 6]])

    def test_01_labels_mapped(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,label\n1,0\n2,1\n")
        ds = load_dataset(path)
        assert ds.labels.tolist() == [-1, 1]

    def test_label_column_anywhere(self, tmp_path):
        path = write(tmp_path, "d.csv", "label,a,b\n1,1,2\n-1,3,4\n")
        ds = load_dataset(path)
        assert np.allclose(ds.features, [[1, 2], [3, 4]])

    def test_bad_alphabet(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,label\n1,2\n2,3\n")
        with pytest.raises(DataError):
            load_dataset(path)

    def test_parse_error_names_line(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,label\n1,1\nx,-1\n")
        with pytest.raises(DataError, match=":3"):
            load_dataset(path)

    def test_field_count_mismatch(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b,label\n1,2,1\n1,1\n")
        with pytest.raises(DataError, match=":3"):
            load_dataset(path)

    def test_non_finite_rejected(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,label\nnan,1\n2,-1\n")
        with pytest.raises(DataError):
            load_dataset(path)

    def test_single_class_loads_but_does_not_split(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,label\n1,1\n2,1\n")
        ds = load_dataset(path)
        assert ds.labels.tolist() == [1, 1]
        with pytest.raises(DataError, match="both classes"):
            split_by_label(ds)

    def test_missing_header(self, tmp_path):
        path = write(tmp_path, "d.csv", "")
        with pytest.raises(DataError):
            load_dataset(path)


def test_unknown_format_refused(tmp_path):
    path = write(tmp_path, "d.arff", "a,label\n1,1\n")
    with pytest.raises(DataError, match="^unknown dataset format 'arff'$"):
        load_dataset(path, format="arff")
    with pytest.raises(DataError, match="^unknown dataset format 'arff'$"):
        load_features(path, "arff", 1)


class TestLoadLibsvm:
    def test_sparse_fill(self, tmp_path):
        path = write(tmp_path, "d.svm", "+1 1:0.5 3:2.0\n-1 2:1.0\n")
        ds = load_dataset(path, format="libsvm")
        assert ds.dim == 3
        assert np.allclose(ds.features[0], [0.5, 0.0, 2.0])
        assert np.allclose(ds.features[1], [0.0, 1.0, 0.0])
        assert ds.labels.tolist() == [1, -1]

    def test_explicit_width(self, tmp_path):
        path = write(tmp_path, "d.svm", "+1 1:1\n-1 1:2\n")
        ds = load_dataset(path, format="libsvm", n_features=4)
        assert ds.dim == 4

    def test_bad_entry(self, tmp_path):
        path = write(tmp_path, "d.svm", "+1 1:0.5 oops\n")
        with pytest.raises(DataError, match=":1"):
            load_dataset(path, format="libsvm")


class TestLoadFeatures:
    def test_label_dropped_and_optional(self, tmp_path):
        labeled = write(tmp_path, "a.csv", "f1,label,f2\n1,1,2\n3,-1,4\n")
        bare = write(tmp_path, "b.csv", "f1,f2\n1,2\n3,4\n")
        sparse = write(tmp_path, "c.svm", "# comment\n+1 1:1 2:2\n2:4 1:3\n")
        for path, fmt in ((labeled, "csv"), (bare, "csv"), (sparse, "libsvm")):
            assert np.array_equal(load_features(path, fmt, 2), [[1, 2], [3, 4]])


@settings(max_examples=40, deadline=None)
@given(
    X=arrays(
        float,
        st.tuples(st.integers(1, 6), st.integers(1, 4)),
        elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    ),
    data=st.data(),
)
def test_csv_and_libsvm_load_identically(X, data):
    n, d = X.shape
    y = data.draw(arrays(int, n, elements=st.sampled_from([-1, 1])))
    names = ",".join(f"f{j}" for j in range(d))
    csv_text = f"{names},label\n" + "".join(
        ",".join(repr(float(v)) for v in row) + f",{label}\n" for row, label in zip(X, y)
    )
    svm_text = "".join(
        f"{label} " + " ".join(f"{j + 1}:{float(v)!r}" for j, v in enumerate(row) if v != 0) + "\n"
        for row, label in zip(X, y)
    )
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, svm_path = Path(tmp, "d.csv"), Path(tmp, "d.svm")
        csv_path.write_text(csv_text)
        svm_path.write_text(svm_text)
        from_csv = load_dataset(str(csv_path))
        from_svm = load_dataset(str(svm_path), format="libsvm", n_features=d)
        assert np.array_equal(from_csv.labels, y) and np.array_equal(from_svm.labels, y)
        for features in (
            from_svm.features,
            load_features(str(csv_path), "csv", d),
            load_features(str(svm_path), "libsvm", d),
        ):
            assert np.array_equal(features, from_csv.features)
        assert np.array_equal(from_csv.features, X)


class TestSplit:
    def test_order_preserved(self):
        ds = LabeledDataset(np.arange(6).reshape(3, 2), np.array([1, -1, 1]))
        pos, neg = split_by_label(ds)
        assert np.allclose(pos, [[0, 1], [4, 5]])
        assert np.allclose(neg, [[2, 3]])

    def test_empty_class(self):
        ds = LabeledDataset(np.zeros((2, 1)), np.array([1, 1]))
        with pytest.raises(DataError):
            split_by_label(ds)

    def test_balanced(self):
        rng = stream(0)
        ds = LabeledDataset(rng.normal(size=(10, 2)), np.array([1, -1] * 5))
        pos, neg = split_by_label(ds)
        assert len(pos) == len(neg) == 5

    def test_reconcat_is_permutation(self):
        for seed in range(5):
            rng = stream(seed)
            n = int(rng.integers(4, 20))
            X = rng.normal(size=(n, 3))
            y = np.where(rng.uniform(size=n) < 0.5, 1, -1)
            y[0], y[1] = 1, -1  # both classes present
            ds = LabeledDataset(X, y)
            stacked = np.vstack(split_by_label(ds))
            assert sorted(map(tuple, stacked)) == sorted(map(tuple, X))


class TestStandardize:
    def test_two_point_column(self):
        ds = LabeledDataset(np.array([[1.0], [3.0]]), np.array([1, -1]))
        out, mean, std = standardize(ds)
        assert np.allclose(out.features[:, 0], [-1.0, 1.0])
        assert mean[0] == 2.0
        assert std[0] == 1.0  # population std, divisor n

    def test_constant_column(self):
        ds = LabeledDataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), np.array([1, -1, 1]))
        out, _mean, std = standardize(ds)
        assert np.allclose(out.features[:, 0], 0.0)
        assert std[0] == 0.0

    def test_idempotent(self):
        rng = stream(3)
        ds = LabeledDataset(rng.normal(size=(20, 4)), np.where(rng.uniform(size=20) < 0.5, 1, -1))
        once = standardize(ds)[0]
        twice = standardize(once)[0]
        assert np.abs(twice.features - once.features).max() <= 1e-12


class TestKfold:
    def test_stratified_balanced(self):
        ds = LabeledDataset(np.arange(20).reshape(10, 2), np.array([1, -1] * 5))
        folds = kfold_split(ds, 5, seed=1)
        for _train, val in folds:
            assert len(val) == 2
            assert sorted(ds.labels[val].tolist()) == [-1, 1]

    def test_deterministic(self):
        ds = LabeledDataset(np.arange(24).reshape(12, 2), np.array([1, -1] * 6))
        a = kfold_split(ds, 3, seed=9)
        b = kfold_split(ds, 3, seed=9)
        for (ta, va), (tb, vb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(va, vb)

    def test_partition(self):
        rng = stream(4)
        n = 23
        ds = LabeledDataset(rng.normal(size=(n, 2)), np.where(rng.uniform(size=n) < 0.4, 1, -1))
        folds = kfold_split(ds, 4, seed=0)
        seen = np.concatenate([val for _t, val in folds])
        assert sorted(seen.tolist()) == list(range(n))
        for train, val in folds:
            assert np.intersect1d(train, val).size == 0

    def test_k_out_of_range(self):
        ds = LabeledDataset(np.zeros((4, 1)), np.array([1, -1, 1, -1]))
        with pytest.raises(ConfigError):
            kfold_split(ds, 1, seed=0)
        with pytest.raises(ConfigError):
            kfold_split(ds, 5, seed=0)


labels_strategy = st.lists(st.sampled_from([-1, 1]), min_size=2, max_size=40).map(np.array)


def labeled(labels):
    return LabeledDataset(np.zeros((labels.shape[0], 1)), labels)


@settings(max_examples=150, deadline=None)
@given(labels=labels_strategy, data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_kfold_split_matches_reference(labels, data, seed):
    k = data.draw(st.integers(2, labels.shape[0]))
    folds = kfold_split(labeled(labels), k, seed)
    reference = reference_kfold_split(labels, k, seed)
    assert len(folds) == len(reference) == k
    for (train, val), (ref_train, ref_val) in zip(folds, reference):
        assert np.array_equal(train, ref_train) and np.array_equal(val, ref_val)
        assert train.dtype == ref_train.dtype and val.dtype == ref_val.dtype
        assert np.all(np.diff(train) > 0) and np.all(np.diff(val) > 0)
        assert np.array_equal(np.union1d(train, val), np.arange(labels.shape[0]))
    seen = np.concatenate([val for _train, val in folds])
    assert np.array_equal(np.sort(seen), np.arange(labels.shape[0]))  # disjoint and covering


@settings(max_examples=150, deadline=None)
@given(labels=labels_strategy, fraction=st.floats(0.01, 0.99), seed=st.integers(0, 2**32 - 1))
def test_holdout_split_matches_reference(labels, fraction, seed):
    train, test = holdout_split(labeled(labels), fraction, seed)
    ref_train, ref_test = reference_holdout_split(labels, fraction, seed)
    assert np.array_equal(train, ref_train) and np.array_equal(test, ref_test)
    assert train.dtype == ref_train.dtype and test.dtype == ref_test.dtype
    assert np.all(np.diff(train) > 0) and np.all(np.diff(test) > 0)
    assert np.array_equal(np.union1d(train, test), np.arange(labels.shape[0]))
    assert np.intersect1d(train, test).size == 0
    for cls in (1, -1):
        size = int((labels == cls).sum())
        expected = min(size, max(1, round(fraction * size)))
        assert int((labels[test] == cls).sum()) == expected


class TestDiameter:
    def test_three_four_five(self):
        ds = LabeledDataset(np.array([[0.0, 0.0], [3.0, 4.0]]), np.array([1, -1]))
        assert diameter(ds) == pytest.approx(5.0)

    def test_single_point(self):
        ds = LabeledDataset(np.array([[2.0, 2.0]]), np.array([1]))
        assert diameter(ds) == 0.0

    def test_no_rows(self):
        assert diameter(LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int))) == 0.0

    @pytest.mark.parametrize("n", [2, 64, 65, 150])
    def test_bit_identical_to_the_whole_condensed_max(self, n):
        # the running max over ragged blocks of 64 rows
        from scipy.spatial.distance import pdist

        X = stream(7, n).normal(size=(n, 3))
        ds = LabeledDataset(X, np.where(np.arange(n) % 2, 1, -1))
        assert diameter(ds) == math.sqrt(pdist(X, "sqeuclidean").max())

    def test_unit_square(self):
        corners = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        brute = max(
            math.dist(corners[i], corners[j])
            for i in range(4)
            for j in range(4)
        )
        ds = LabeledDataset(corners, np.array([1, 1, -1, -1]))
        assert diameter(ds) == pytest.approx(brute)
        assert brute == pytest.approx(math.sqrt(2))

    def test_large_n_bound(self):
        rng = stream(5)
        X = rng.normal(size=(2500, 2))
        ds = LabeledDataset(X, np.where(rng.uniform(size=2500) < 0.5, 1, -1))
        sub = X[stream(6).choice(2500, size=300, replace=False)]
        from scipy.spatial.distance import pdist

        assert diameter(ds) >= pdist(sub).max()
