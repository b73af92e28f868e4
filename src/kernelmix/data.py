"""Dataset ingestion, class-conditional splitting, standardization and folds.

Datasets are immutable after load: every operation returns new arrays and
never mutates its input, so values are safe to share across workers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .errors import DataError
from .rng import stream

#: Largest n for which the diameter is computed exactly over all pairs.
EXACT_DIAMETER_LIMIT = 2000


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with binary labels in {-1, +1}.

    A single-class dataset is valid; :func:`split_by_label` refuses it.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        if features.ndim != 2:
            raise DataError("features must be a 2-d matrix")
        if labels.shape != (features.shape[0],):
            raise DataError(
                f"label count {labels.shape} does not match {features.shape[0]} rows"
            )
        if not np.isfinite(features).all():
            raise DataError("features contain non-finite entries")
        bad = set(np.unique(labels)) - {-1, 1}
        if bad:
            raise DataError(f"labels must be -1/+1, found {sorted(bad)}")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class ClassSplit:
    """Rows of each class in their original order."""

    positives: np.ndarray
    negatives: np.ndarray

    @property
    def n_plus(self) -> int:
        return self.positives.shape[0]

    @property
    def n_minus(self) -> int:
        return self.negatives.shape[0]


@dataclass(frozen=True)
class DatasetStats:
    """Column statistics of the source data: the inverse transform of
    :func:`standardize` (population std, divisor n)."""

    per_feature_mean: np.ndarray
    per_feature_std: np.ndarray


def _map_labels(raw: np.ndarray) -> np.ndarray:
    values = set(np.unique(raw).tolist())
    if values <= {-1.0, 1.0}:
        return raw.astype(int)
    if values <= {0.0, 1.0}:
        return np.where(raw == 0, -1, 1).astype(int)
    raise DataError(f"unsupported label alphabet {sorted(values)}; expected -1/+1 or 0/1")


def _open(path: str):
    try:
        return open(path, newline="")
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None


def _read_csv(path: str) -> tuple[list[str] | None, np.ndarray]:
    """Header and float rows of a CSV file; the header is None for an empty file.

    Every row must have one field per header column, and every field must
    parse as a finite float.
    """
    with _open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return None, np.zeros((0, 0))
        header = [h.strip() for h in header]
        rows = []
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(header):
                raise DataError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(rec)}"
                )
            try:
                values = [float(v) for v in rec]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            if not all(math.isfinite(v) for v in values):
                raise DataError(f"{path}:{lineno}: non-finite value")
            rows.append(values)
    return header, np.asarray(rows, dtype=float).reshape(-1, len(header))


def _read_libsvm(path: str, n_features: int | None) -> tuple[list[float | None], np.ndarray]:
    """Labels (None where a line has none) and dense features of a LIBSVM file.

    A line's first token is its label unless it is an ``idx:val`` entry.
    Indices are 1-based and at most ``n_features`` (default: the largest
    index seen); missing entries read as 0 and ``#`` lines are skipped.
    """
    entries, labels, max_idx = [], [], 0
    with _open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            label = None
            if ":" not in parts[0]:
                try:
                    label = float(parts[0])
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad label {parts[0]!r}") from None
                if not math.isfinite(label):
                    raise DataError(f"{path}:{lineno}: bad label {parts[0]!r}")
                parts = parts[1:]
            pairs = {}
            for tok in parts:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad entry {tok!r}") from None
                if idx < 1:
                    raise DataError(f"{path}:{lineno}: indices are 1-based, got {idx}")
                if not math.isfinite(val):
                    raise DataError(f"{path}:{lineno}: non-finite value in {tok!r}")
                pairs[idx] = val
                max_idx = max(max_idx, idx)
            labels.append(label)
            entries.append(pairs)
    d = n_features if n_features is not None else max_idx
    if max_idx > d:
        raise DataError(f"{path}: feature index {max_idx} exceeds n_features={d}")
    features = np.zeros((len(entries), d))
    for i, pairs in enumerate(entries):
        for idx, val in pairs.items():
            features[i, idx - 1] = val
    return labels, features


def load_dataset(path: str, format: str = "csv", n_features: int | None = None) -> LabeledDataset:
    """Load a dataset from ``csv`` (header with a 'label' column) or ``libsvm``.

    {0,1} labels are mapped to {-1,+1}. Rows with non-finite entries are
    rejected, not imputed.
    """
    if format == "csv":
        header, table = _read_csv(path)
        if header is None:
            raise DataError(f"{path}: empty file, header row required")
        if "label" not in header:
            raise DataError(f"{path}: header must contain a 'label' column")
        label_col = header.index("label")
        raw_labels = table[:, label_col]
        features = np.delete(table, label_col, axis=1)
    elif format == "libsvm":
        raw_labels, features = _read_libsvm(path, n_features)
        if None in raw_labels:
            raise DataError(f"{path}: every row needs a label")
        raw_labels = np.asarray(raw_labels, dtype=float)
    else:
        raise DataError(f"unknown dataset format {format!r}")
    if features.shape[0] == 0:
        raise DataError(f"{path}: no data rows")
    return LabeledDataset(features, _map_labels(raw_labels))


def load_features(path: str, format: str, dim: int) -> np.ndarray:
    """Feature rows (n x dim) for prediction, validated as :func:`load_dataset` does.

    A CSV ``label`` column or a LIBSVM label token is optional and dropped.
    An empty or header-only file gives 0 rows.
    """
    if format == "csv":
        header, table = _read_csv(path)
        if header is None:
            return np.zeros((0, dim))
        if "label" in header:
            table = np.delete(table, header.index("label"), axis=1)
        if table.shape[0] == 0:
            return np.zeros((0, dim))
        if table.shape[1] != dim:
            raise DataError(f"{path}: {table.shape[1]} feature columns, model expects {dim}")
        return table
    if format == "libsvm":
        return _read_libsvm(path, dim)[1]
    raise DataError(f"unknown dataset format {format!r}")


def split_by_label(ds: LabeledDataset) -> ClassSplit:
    """Split rows into the two class-conditional samples, order preserved."""
    pos = ds.features[ds.labels == 1]
    neg = ds.features[ds.labels == -1]
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        raise DataError("both classes must be nonempty")
    return ClassSplit(positives=pos, negatives=neg)


def standardize(ds: LabeledDataset) -> tuple[LabeledDataset, DatasetStats]:
    """Center/scale each column to mean 0 and population std 1 (divisor n).

    Constant columns are left at 0 and their std recorded as 0 so that the
    same transform can be replayed on prediction inputs.
    """
    if ds.n < 2:
        raise DataError("standardize needs n >= 2")
    mean = ds.features.mean(axis=0)
    std = ds.features.std(axis=0)  # ddof=0
    out = apply_standardization(ds.features, mean, std)
    return LabeledDataset(out, ds.labels), DatasetStats(per_feature_mean=mean, per_feature_std=std)


def apply_standardization(features: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Center by ``mean`` and scale by ``std``; columns with std 0 become 0.

    :func:`standardize` uses it on the training rows, and prediction replays
    it with the mean and std stored in the model.
    """
    features = np.asarray(features, dtype=float)
    std = np.asarray(std, dtype=float)
    out = (features - mean) / np.where(std > 0, std, 1.0)
    out[:, std == 0] = 0.0
    return out


def kfold_split(ds: LabeledDataset, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stratified k-fold partition, deterministic under ``seed``.

    Validation folds are disjoint, cover all indices, and keep the class
    proportions within one sample of the global ones.
    """
    if not 2 <= k <= ds.n:
        raise DataError(f"k must lie in [2, {ds.n}], got {k}")
    all_idx = np.arange(ds.n)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls_key, cls in enumerate((1, -1)):
        idx = all_idx[ds.labels == cls]
        idx = stream(seed, cls_key).permutation(idx)
        for j in range(k):
            folds[j].extend(idx[j::k].tolist())
    out = []
    for j in range(k):
        val = np.array(sorted(folds[j]), dtype=int)
        train = np.setdiff1d(all_idx, val)
        out.append((train, val))
    return out


def diameter(ds: LabeledDataset) -> float:
    """Max pairwise Euclidean distance: exact for n <= EXACT_DIAMETER_LIMIT,
    the bounding-box diagonal (an upper bound) beyond."""
    if ds.n <= 1:
        return 0.0
    if ds.n <= EXACT_DIAMETER_LIMIT:
        return float(pdist(ds.features).max())
    return float(np.linalg.norm(ds.features.max(axis=0) - ds.features.min(axis=0)))
