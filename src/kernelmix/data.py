"""Dataset ingestion, class-conditional splitting, standardization and folds.

Datasets are immutable after load: every operation returns new arrays and
never mutates its input, so values are safe to share across workers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .kernels import distance_blocks
from .rng import stream


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
        if features.ndim != 2 or features.shape[1] == 0:
            raise DataError("features must be a 2-d matrix with at least one column")
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


def _read(path: str, format: str, n_features: int | None, labeled: bool):
    """(raw labels, features) of a ``csv`` or ``libsvm`` file.

    Labels are None where the file has none; a ``labeled`` read refuses
    that, and an empty CSV file, instead.
    """
    if format == "csv":
        header, table = _read_csv(path)
        if header is None and labeled:
            raise DataError(f"{path}: empty file, header row required")
        if header is None or "label" not in header:
            if labeled:
                raise DataError(f"{path}: header must contain a 'label' column")
            return None, table
        label_col = header.index("label")
        return table[:, label_col], np.delete(table, label_col, axis=1)
    if format == "libsvm":
        labels, features = _read_libsvm(path, n_features)
        if labeled and None in labels:
            raise DataError(f"{path}: every row needs a label")
        return labels, features
    raise DataError(f"unknown dataset format {format!r}")


def load_dataset(path: str, format: str = "csv", n_features: int | None = None) -> LabeledDataset:
    """Load a dataset from ``csv`` (header with a 'label' column) or ``libsvm``.

    {0,1} labels are mapped to {-1,+1}. Rows with non-finite entries are
    rejected, not imputed.
    """
    raw_labels, features = _read(path, format, n_features, labeled=True)
    if features.shape[0] == 0:
        raise DataError(f"{path}: no data rows")
    return LabeledDataset(features, _map_labels(np.asarray(raw_labels, dtype=float)))


def load_features(path: str, format: str, dim: int) -> np.ndarray:
    """Feature rows (n x dim) for prediction, validated as :func:`load_dataset` does.

    A CSV ``label`` column or a LIBSVM label token is optional and dropped.
    An empty or header-only file gives 0 rows.
    """
    features = _read(path, format, dim, labeled=False)[1]
    if features.shape[0] == 0:
        return np.zeros((0, dim))
    if features.shape[1] != dim:
        raise DataError(f"{path}: {features.shape[1]} feature columns, model expects {dim}")
    return features


def split_by_label(ds: LabeledDataset) -> tuple[np.ndarray, np.ndarray]:
    """The rows of each class, (positives, negatives), order preserved."""
    pos = ds.features[ds.labels == 1]
    neg = ds.features[ds.labels == -1]
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        raise DataError("both classes must be nonempty")
    return pos, neg


def standardize(ds: LabeledDataset) -> tuple[LabeledDataset, np.ndarray, np.ndarray]:
    """Center/scale each column to mean 0 and population std 1 (divisor n).

    Returns the new dataset and the column mean and std. Constant columns
    are left at 0 and their std recorded as 0 so that the same transform can
    be replayed on prediction inputs. A mean or std that overflows (squared
    deviations past the float limit) is refused: no model could replay it.
    """
    if ds.n < 2:
        raise DataError("standardize needs n >= 2")
    with np.errstate(over="ignore"):
        mean = ds.features.mean(axis=0)
        std = ds.features.std(axis=0)  # ddof=0
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        raise DataError("a column's mean or std overflows; rescale the data or pass --no-standardize")
    out = apply_standardization(ds.features, mean, std)
    return LabeledDataset(out, ds.labels), mean, std


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


def _class_permutations(ds: LabeledDataset, seed: int, *path: int) -> list[np.ndarray]:
    """Row indices of each class, (positives, negatives), each permuted by
    the stream (seed, *path, class key)."""
    all_idx = np.arange(ds.n)
    return [
        stream(seed, *path, key).permutation(all_idx[ds.labels == cls])
        for key, cls in enumerate((1, -1))
    ]


def kfold_split(ds: LabeledDataset, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stratified k-fold partition, deterministic under ``seed``.

    Validation folds are disjoint, cover all indices, and keep the class
    proportions within one sample of the global ones.
    """
    if not 2 <= k <= ds.n:
        raise ConfigError(f"k must lie in [2, {ds.n}], got {k}")
    perms = _class_permutations(ds, seed)
    vals = [np.sort(np.concatenate([idx[j::k] for idx in perms])) for j in range(k)]
    return [(np.setdiff1d(np.arange(ds.n), val), val) for val in vals]


def holdout_split(ds: LabeledDataset, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Stratified (train, test) row indices, deterministic under ``seed``:
    each class holds out max(1, round(fraction * class size)) rows."""
    perms = _class_permutations(ds, seed, 19)
    test = np.sort(np.concatenate([p[: max(1, int(round(fraction * p.size)))] for p in perms]))
    return np.setdiff1d(np.arange(ds.n), test), test


def diameter(ds: LabeledDataset) -> float:
    """Max pairwise Euclidean distance, exact over all pairs of rows (0.0 below two rows).

    A running max over :func:`~kernelmix.kernels.distance_blocks`.
    """
    return math.sqrt(max((b.max(initial=0.0) for _, b in distance_blocks(ds.features)), default=0.0))
