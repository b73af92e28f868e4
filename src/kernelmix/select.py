"""Model selection: CV and MMD bandwidth search, their comparison harness,
and relaxed kernel feature selection.

The MMD selector scores each candidate Gaussian kernel directly on the
class-conditional samples and never trains a classifier, which is where its
speed advantage over cross-validation comes from. Relaxed feature selection
works on the random features of a :class:`FeatureBank`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset, kfold_split, split_by_label
from .errors import ConfigError, DataError
from .kernels import BaseKernel
from .mmd import MixtureWeights, mmd_scores
from .rff import FeatureBank, build_feature_matrix
from .rng import stream
from .svm import SvmModel, TrainConfig, accuracy, train


def log_grid(lo: float = 1e-20, hi: float = 1e3, count: int = 24) -> np.ndarray:
    """Strictly increasing log-spaced bandwidth (gamma) grid."""
    if not (0 < lo < hi) or count < 1:
        raise ConfigError("grid bounds must satisfy 0 < lo < hi with count >= 1")
    return np.geomspace(lo, hi, count)


def _check_grid(gammas) -> np.ndarray:
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim != 1 or gammas.shape[0] == 0:
        raise ConfigError("bandwidth grid must be a nonempty vector")
    if (gammas <= 0).any() or (np.diff(gammas) <= 0).any():
        raise ConfigError("bandwidth grid must be positive and strictly increasing")
    return gammas


def _child_seed(seed: int, *path: int) -> int:
    return int(stream(seed, *path).integers(2**63))


def _train_single_kernel(
    ds: LabeledDataset,
    gamma: float,
    draws: int,
    cfg: TrainConfig,
    bank_seed: int,
) -> SvmModel:
    kernel = BaseKernel.from_gamma("gaussian", gamma)
    bank = FeatureBank.generate(
        [kernel], MixtureWeights(np.array([1.0])), draws, ds.dim, bank_seed
    )
    Phi = build_feature_matrix(ds.features, bank)
    return train(Phi, ds.labels, cfg, bank=bank)


def cv_bandwidth_select(
    ds: LabeledDataset,
    gammas,
    folds: int,
    cfg: TrainConfig,
    draws: int,
    seed: int,
) -> tuple[float, list[dict]]:
    """Mean validation accuracy per gamma over stratified folds.

    Returns (argmax gamma, per-gamma rows). Ties break toward the smaller
    gamma (the grid is increasing and argmax takes the first maximum).
    """
    gammas = _check_grid(gammas)
    rows = []
    for gi, gamma in enumerate(gammas):
        accs = []
        for fi, (train_idx, val_idx) in enumerate(kfold_split(ds, folds, seed)):
            train_ds = LabeledDataset(ds.features[train_idx], ds.labels[train_idx])
            val_ds = LabeledDataset(ds.features[val_idx], ds.labels[val_idx])
            model = _train_single_kernel(
                train_ds, gamma, draws, cfg, _child_seed(seed, 5, gi, fi)
            )
            accs.append(accuracy(model, val_ds))
        accs = np.array(accs)
        rows.append(
            {
                "gamma": float(gamma),
                "cv_mean": float(accs.mean()),
                "cv_std": float(accs.std(ddof=0)),
            }
        )
    best = int(np.argmax([r["cv_mean"] for r in rows]))
    return float(gammas[best]), rows


def mmd_bandwidth_select(
    ds: LabeledDataset,
    gammas,
    estimator: str = "auto",
) -> tuple[float, list[dict], bool]:
    """Score each gamma by the class-conditional MMD; no training involved.

    Returns (argmax gamma, per-gamma rows, degenerate flag). All-zero scores
    set the flag and the tie rule returns the smallest gamma.
    """
    gammas = _check_grid(gammas)
    split = split_by_label(ds)
    if split.n_plus < 2 or split.n_minus < 2:
        raise DataError("MMD selection needs at least 2 samples per class")
    kernels = [BaseKernel.from_gamma("gaussian", g) for g in gammas]
    scores = mmd_scores(kernels, split.positives, split.negatives, estimator=estimator)
    rows = [{"gamma": float(g), "mmd_score": s.value} for g, s in zip(gammas, scores)]
    values = np.array([r["mmd_score"] for r in rows])
    degenerate = bool(values.max() == 0.0)
    best = int(np.argmax(values))  # first maximum = smallest gamma on ties
    return float(gammas[best]), rows, degenerate


@dataclass(frozen=True)
class SelectionReport:
    gammas: np.ndarray
    cv_mean: np.ndarray
    cv_std: np.ndarray
    mmd_scores: np.ndarray
    cv_gamma: float
    mmd_gamma: float
    agreement: bool
    cv_seconds: float
    mmd_seconds: float
    test_accuracy: dict = field(default_factory=dict)
    degenerate: bool = False

    def rows(self) -> list[dict]:
        return [
            {
                "gamma": float(g),
                "cv_mean": float(cm),
                "cv_std": float(cs),
                "mmd_score": float(ms),
            }
            for g, cm, cs, ms in zip(self.gammas, self.cv_mean, self.cv_std, self.mmd_scores)
        ]

    def to_dict(self) -> dict:
        return {
            "rows": self.rows(),
            "cv_gamma": self.cv_gamma,
            "mmd_gamma": self.mmd_gamma,
            "agreement_within_one_step": self.agreement,
            "cv_seconds": self.cv_seconds,
            "mmd_seconds": self.mmd_seconds,
            "test_accuracy": self.test_accuracy,
            "degenerate": self.degenerate,
        }


def _stratified_holdout(
    ds: LabeledDataset, fraction: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    test_idx: list[int] = []
    all_idx = np.arange(ds.n)
    for cls_key, cls in enumerate((1, -1)):
        idx = stream(seed, 19, cls_key).permutation(all_idx[ds.labels == cls])
        take = max(1, int(round(fraction * idx.shape[0])))
        test_idx.extend(idx[:take].tolist())
    test_idx = np.array(sorted(test_idx))
    train_idx = np.setdiff1d(all_idx, test_idx)
    return (
        LabeledDataset(ds.features[train_idx], ds.labels[train_idx]),
        LabeledDataset(ds.features[test_idx], ds.labels[test_idx]),
    )


def compare_selection(
    ds: LabeledDataset,
    gammas,
    folds: int,
    cfg: TrainConfig,
    draws: int,
    seed: int,
    test_fraction: float = 0.25,
) -> SelectionReport:
    """Run both selectors, then train final models (CV pick, MMD pick, and
    the MMD-weighted mixture over the whole grid) and score them on a
    held-out stratified split."""
    gammas = _check_grid(gammas)
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test fraction must lie in (0, 1), got {test_fraction}")
    train_ds, test_ds = _stratified_holdout(ds, test_fraction, seed)

    t0 = time.perf_counter()
    cv_gamma, cv_rows = cv_bandwidth_select(train_ds, gammas, folds, cfg, draws, seed)
    cv_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    mmd_gamma, mmd_rows, degenerate = mmd_bandwidth_select(train_ds, gammas)
    mmd_seconds = time.perf_counter() - t0

    cv_model = _train_single_kernel(train_ds, cv_gamma, draws, cfg, _child_seed(seed, 23))
    mmd_model = _train_single_kernel(train_ds, mmd_gamma, draws, cfg, _child_seed(seed, 29))

    kernels = [BaseKernel.from_gamma("gaussian", g) for g in gammas]
    weights = MixtureWeights.from_scores([r["mmd_score"] for r in mmd_rows])
    mix_bank = FeatureBank.generate(
        kernels, weights, draws, train_ds.dim, _child_seed(seed, 31)
    )
    mix_Phi = build_feature_matrix(train_ds.features, mix_bank)
    mix_model = train(mix_Phi, train_ds.labels, cfg, bank=mix_bank)

    gamma_index = {float(g): i for i, g in enumerate(gammas)}
    agreement = abs(gamma_index[cv_gamma] - gamma_index[mmd_gamma]) <= 1

    return SelectionReport(
        gammas=gammas,
        cv_mean=np.array([r["cv_mean"] for r in cv_rows]),
        cv_std=np.array([r["cv_std"] for r in cv_rows]),
        mmd_scores=np.array([r["mmd_score"] for r in mmd_rows]),
        cv_gamma=cv_gamma,
        mmd_gamma=mmd_gamma,
        agreement=agreement,
        cv_seconds=cv_seconds,
        mmd_seconds=mmd_seconds,
        test_accuracy={
            "cv": accuracy(cv_model, test_ds),
            "mmd": accuracy(mmd_model, test_ds),
            "mixture": accuracy(mix_model, test_ds),
        },
        degenerate=degenerate,
    )


# -- relaxed kernel feature selection ----------------------------------------


@dataclass(frozen=True)
class FeatureMask:
    """Relaxed scores and the rounded binary mask with sum(mask) = m_sel."""

    omega: np.ndarray
    mask: np.ndarray
    m_sel: int
    objective: float
    initial_objective: float


def project_capped_box(v: np.ndarray, cap: float) -> np.ndarray:
    """Euclidean projection of v onto {u in [0,1]^d : sum(u) <= cap}, cap >= 0.

    The projection is clip(v - tau, 0, 1) with tau = 0 when that already
    meets the budget, else the tau > 0 at which the sum equals cap, found by
    bisection on the nonincreasing sum (Wang & Lu, arXiv:1503.01002).
    """
    v = np.asarray(v, dtype=float)
    p = np.clip(v, 0.0, 1.0)
    if p.sum() <= cap:
        return p
    lo, hi = 0.0, float(v.max())  # sum(clip(v - hi)) = 0 <= cap
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.clip(v - mid, 0.0, 1.0).sum() > cap:
            lo = mid
        else:
            hi = mid
    return np.clip(v - hi, 0.0, 1.0)


def relaxed_objective(X, y, bank: FeatureBank, omega, eps: float):
    """Objective (and gradient) of the relaxed selection problem at omega.

    It is y^T (V V^T + eps n I)^{-1} y, with V the column-centered weighted
    random features of the omega-scaled inputs, all kernels in one block.
    """
    if not isinstance(bank, FeatureBank):
        raise ConfigError("relaxed selection needs a FeatureBank")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    omega = np.asarray(omega, dtype=float)
    n = X.shape[0]
    xi = np.vstack(bank.frequencies)
    scale = np.repeat(np.sqrt(2.0 * bank.weights.weights), bank.draws)
    theta = (X * omega) @ xi.T + np.concatenate(bank.phases)
    V = scale * np.cos(theta)
    V -= V.mean(axis=0)
    reg = eps * n
    A = V.T @ V + reg * np.eye(V.shape[1])
    u = V.T @ y
    alpha = np.linalg.solve(A, u)
    objective = float((y @ y - u @ alpha) / reg)
    g = (y - V @ alpha) / reg
    # dJ/dPhi: dJ/dV = -2 g (V^T g)^T, centered over the rows as V was
    dJ_dPhi = -2.0 * np.outer(g - g.mean(), V.T @ g)
    S = dJ_dPhi * (-scale * np.sin(theta))
    grad = np.sum(X * (S @ xi), axis=0)
    if not math.isfinite(objective):
        raise ConfigError("selection objective is not finite; increase eps")
    return objective, grad


def kernel_feature_select(
    X: np.ndarray,
    y: np.ndarray,
    bank: FeatureBank,
    m_sel: int,
    eps: float | None = None,
    steps: int = 150,
    step_size: float = 1.0,
) -> FeatureMask:
    """Projected gradient descent on the relaxed feature-selection objective.

    Starts at the uniform point (m_sel/d) * ones and keeps omega in
    {v in [0,1]^d : sum v <= m_sel}. Steps use backtracking (halve until the
    projected step decreases the objective), so the returned iterate never
    scores worse than the uniform start. The final mask sets the m_sel
    largest relaxed scores to 1. ``eps`` defaults to 0.001/n.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    if not 1 <= m_sel <= d:
        raise ConfigError(f"m_sel must lie in [1, {d}]")
    if eps is None:
        eps = 0.001 / n
    cap = float(m_sel)
    omega = np.full(d, m_sel / d)
    objective, grad = relaxed_objective(X, y, bank, omega, eps)
    initial_obj = objective
    eta = step_size
    for _ in range(steps):
        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0:
            break
        moved = False
        for _halving in range(40):
            candidate = project_capped_box(omega - (eta / gnorm) * grad, cap)
            cand_obj, cand_grad = relaxed_objective(X, y, bank, candidate, eps)
            if cand_obj < objective:
                omega, objective, grad = candidate, cand_obj, cand_grad
                eta = min(eta * 1.5, step_size)
                moved = True
                break
            eta /= 2.0
        if not moved:
            break
    order = np.argsort(-omega, kind="stable")
    mask = np.zeros(d, dtype=bool)
    mask[order[:m_sel]] = True
    return FeatureMask(
        omega=omega,
        mask=mask,
        m_sel=m_sel,
        objective=objective,
        initial_objective=initial_obj,
    )
