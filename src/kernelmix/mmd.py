"""MMD estimators over class-conditional samples and the mixture weights.

Two empirical estimators are provided. The general one sums two
within-class U-statistics (diagonal removed) and subtracts twice the
cross-class sample average:

    squared = 1/(n+(n+-1)) sum_{i!=j} k(x_i,x_j)
            + 1/(n-(n--1)) sum_{i!=j} k(y_i,y_j)
            - 2/(n+ n-)    sum_{i,j}  k(x_i,y_j)

For balanced classes a single U-statistic over paired draws z_i = (x_i, y_i)
is available, with core

    h(z_i,z_j) = k(x_i,x_j) + k(y_i,y_j) - k(x_i,y_j) - k(x_j,y_i).

Both `squared` values are kept signed (they are unbiased for the squared
population MMD and can dip below zero); `value` clamps at zero before the
square root. Mixture weights are the normalized per-kernel `value`s. Every
estimate comes from :func:`mmd_scores`; :func:`mmd_score` scores one kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError
from .kernels import BaseKernel, distance_blocks, kernel_values
from .rng import stream

ESTIMATORS = ("biased", "unbiased_balanced")


@dataclass(frozen=True)
class MmdScore:
    squared: float
    estimator: str

    @property
    def value(self) -> float:
        return math.sqrt(max(self.squared, 0.0))


@dataclass(frozen=True)
class MixtureWeights:
    """Simplex weights over the base kernels, plus a degeneracy flag.

    Weights are normalized here alone, and only when their sum is more than
    m eps from 1: dividing by the sum rounds each weight, so dividing a
    normalized vector again can move it. m eps bounds the rounding of m
    divisions and one sum, so normalized weights, a model file's among
    them, are kept bit for bit. ``degenerate`` is set when every kernel
    scored exactly zero and the uniform fallback was used.
    """

    weights: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)  # a copy: the caller's array may change
        if w.ndim != 1 or w.shape[0] == 0:
            raise ConfigError("weights must be a nonempty vector")
        total = w.sum()
        if (w < 0).any() or not (math.isfinite(total) and total > 0.0):
            raise ConfigError("weights must be finite, nonnegative and not all zero")
        if abs(total - 1.0) > w.shape[0] * np.finfo(float).eps:
            w = w / total
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_scores(cls, values) -> "MixtureWeights":
        """Normalize per-kernel MMD values onto the simplex.

        All-zero values (e.g. identical class samples) fall back to uniform
        weights with the ``degenerate`` flag set.
        """
        values = np.asarray(values, dtype=float)
        if values.sum() == 0.0:
            m = values.shape[0]
            return cls(weights=np.full(m, 1.0 / m), degenerate=True)
        return cls(weights=values)


def mmd_scores(
    kernels: list[BaseKernel],
    pos: np.ndarray,
    neg: np.ndarray,
    estimator: str = "auto",
) -> list[MmdScore]:
    """Score every kernel from one shared pass of pairwise distances.

    ``estimator="auto"`` takes the balanced U-statistic when n+ = n- and the
    biased form otherwise. Both walk the pairs i < j within each class and
    every pair across in :func:`~kernelmix.kernels.distance_blocks` of 64
    rows, adding up each kernel's sum block by block. A kernel's values on
    a block come from :func:`~kernelmix.kernels.kernel_values`, so one block
    and one kernel's values are alive at a time: O(64 n) memory. For the
    balanced estimator row i of ``pos`` pairs with row i of ``neg``, so its
    cross sum runs off the cross pairs' diagonal, and identical classes
    score exactly 0.0.
    """
    if not kernels:
        raise ConfigError("need at least one base kernel")
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    neg = np.atleast_2d(np.asarray(neg, dtype=float))
    n_plus, n_minus = pos.shape[0], neg.shape[0]
    if estimator == "auto":
        estimator = "unbiased_balanced" if n_plus == n_minus else "biased"
    if estimator not in ESTIMATORS:
        raise ConfigError(f"unknown estimator {estimator!r}")
    if pos.shape[1] != neg.shape[1]:
        raise ConfigError(f"dimension mismatch {pos.shape[1]} vs {neg.shape[1]}")
    if estimator == "biased" and (n_plus < 2 or n_minus < 2):
        raise DataError("each class needs at least 2 samples")
    if estimator == "unbiased_balanced":
        if n_plus != n_minus:
            raise DataError(
                f"unbalanced classes ({n_plus} vs {n_minus}); use the biased estimator"
            )
        if n_plus < 2:
            raise DataError("need at least 2 paired samples")
        if np.array_equal(pos, neg):
            return [MmdScore(0.0, estimator) for _ in kernels]

    # within-class pairs i < j, then every cross pair; one sum per kernel each
    sums = []
    for pair in ((pos,), (neg,), (pos, neg)):
        totals = [0.0] * len(kernels)
        for start, block in distance_blocks(*pair):
            for l, K in enumerate(kernel_values(kernels, block)):
                if K.ndim == 2 and estimator == "unbiased_balanced":
                    # k(x_i,y_j) + k(x_j,y_i) summed over i < j is the cross pairs summed
                    # off their diagonal: K[:, start:]'s, every (m + 1)-th entry from start
                    K.reshape(-1)[start :: K.shape[1] + 1] = 0.0
                totals[l] += K.sum()
                del K  # one array of kernel values alive at a time
            del block  # and one block of distances
        sums.append(totals)

    scores = []
    for within_pos, within_neg, cross in zip(*sums):
        if estimator == "biased":
            squared = (
                2.0 * within_pos / (n_plus * (n_plus - 1))
                + 2.0 * within_neg / (n_minus * (n_minus - 1))
                - 2.0 * cross / (n_plus * n_minus)
            )
        else:
            squared = 2.0 * (within_pos + within_neg - cross) / (n_plus * (n_plus - 1))
        scores.append(MmdScore(float(squared), estimator))
    return scores


def mmd_score(
    kernel: BaseKernel,
    pos: np.ndarray,
    neg: np.ndarray,
    estimator: str = "auto",
) -> MmdScore:
    """One kernel's score from :func:`mmd_scores` (same estimators and routing)."""
    return mmd_scores([kernel], pos, neg, estimator)[0]


def mixing_weights(
    kernels: list[BaseKernel],
    pos: np.ndarray,
    neg: np.ndarray,
    estimator: str = "auto",
) -> MixtureWeights:
    """Per-kernel MMD values normalized onto the simplex."""
    scores = mmd_scores(kernels, pos, neg, estimator)
    return MixtureWeights.from_scores([s.value for s in scores])


# -- population references for Gaussian measures ---------------------------

def gaussian_mmd_squared_closed_form(
    mu_p: np.ndarray,
    mu_q: np.ndarray,
    sigma2: float,
    rho: float,
) -> float:
    """Closed-form squared MMD between N(mu_p, s^2 I) and N(mu_q, s^2 I).

    Under a Gaussian kernel with bandwidth rho it is
    2 (rho^2 / (rho^2 + 2 s^2))^(d/2) (1 - exp(-||mu_p - mu_q||^2 / (2 rho^2 + 4 s^2))),
    from convolving the kernel with both measures; it is validated against a
    Monte-Carlo oracle.
    """
    if sigma2 < 0:
        raise ConfigError("sigma2 must be nonnegative")
    if rho <= 0:
        raise ConfigError("rho must be positive")
    mu_p = np.atleast_1d(np.asarray(mu_p, dtype=float))
    mu_q = np.atleast_1d(np.asarray(mu_q, dtype=float))
    if mu_p.shape != mu_q.shape:
        raise ConfigError("mean vectors must share a dimension")
    d = mu_p.shape[0]
    gap = float(np.dot(mu_p - mu_q, mu_p - mu_q))
    rho2, s2 = rho**2, float(sigma2)
    return 2.0 * (rho2 / (rho2 + 2.0 * s2)) ** (d / 2.0) * (
        1.0 - math.exp(-gap / (2.0 * rho2 + 4.0 * s2))
    )


def gaussian_mmd_closed_form(
    mu_p: np.ndarray,
    mu_q: np.ndarray,
    sigma2: float,
    rho: float,
) -> float:
    """Population MMD (square root of the closed form, clamped at 0)."""
    return math.sqrt(max(gaussian_mmd_squared_closed_form(mu_p, mu_q, sigma2, rho), 0.0))


# -- simulation probes ------------------------------------------------------

Sampler = Callable[[np.random.Generator, int], np.ndarray]


def mmd_convergence_probe(
    sample_p: Sampler,
    sample_q: Sampler,
    kernel: BaseKernel,
    population_mmd: float,
    n_grid: list[int],
    trials: int,
    seed: int,
) -> dict:
    """Mean absolute error of the MMD estimate against its population value.

    Returns one row per sample size plus the fitted log-log slope of the
    error curve (the rate check; theory predicts roughly -1/2).
    """
    rows = []
    for gi, n in enumerate(n_grid):
        errs = []
        for t in range(trials):
            rng = stream(seed, gi, t)
            pos = sample_p(rng, n)
            neg = sample_q(rng, n)
            est = mmd_score(kernel, pos, neg).value
            errs.append(abs(est - population_mmd))
        rows.append({"n": n, "mean_abs_error": float(np.mean(errs))})
    log_n = np.log([r["n"] for r in rows])
    log_e = np.log([max(r["mean_abs_error"], 1e-300) for r in rows])
    slope = float(np.polyfit(log_n, log_e, 1)[0])
    return {"rows": rows, "slope": slope}
