"""Shift-invariant base kernels, Gram matrices and their mixtures.

All built-in families are bounded by 1, attain 1 on the diagonal, and are
translation invariant. Every value comes from :func:`kernel_of_distance` on
a distance in the family's ``metric``: gaussian exp(-||x-y||^2 / (2 rho^2)),
laplacian exp(-||x-y|| / rho). ANOVA, the product of per-coordinate Gaussian
factors with one shared rho, is the Gaussian kernel under its own name.
gamma = 1/(2 rho^2) is accepted as an alternative parameterization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ConfigError

FAMILIES = ("gaussian", "laplacian", "anova")


@dataclass(frozen=True)
class BaseKernel:
    """A kernel family plus its bandwidth rho (> 0)."""

    family: str
    rho: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown kernel family {self.family!r}")
        if not (self.rho > 0 and math.isfinite(self.rho)):
            raise ConfigError(f"bandwidth rho must be positive, got {self.rho}")

    @classmethod
    def from_gamma(cls, family: str, gamma: float) -> "BaseKernel":
        if not (gamma > 0 and math.isfinite(gamma)):
            raise ConfigError(f"gamma must be positive, got {gamma}")
        return cls(family, math.sqrt(1.0 / (2.0 * gamma)))

    @property
    def gamma(self) -> float:
        return 1.0 / (2.0 * self.rho**2)

    @property
    def metric(self) -> str:
        """The distance the family is a function of (a scipy ``cdist`` metric)."""
        return "euclidean" if self.family == "laplacian" else "sqeuclidean"


def kernel_matrix(kernel: BaseKernel, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """Kernel evaluations between the rows of X and Y (Y defaults to X).

    With Y omitted this is the Gram matrix of X. ``cdist`` computes the
    distance of each pair with one loop in which swapping the two rows only
    flips signs before squaring, so the Gram matrix is exactly symmetric with
    exact 1.0 on the diagonal (for finite X).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = X if Y is None else np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise ConfigError(f"dimension mismatch {X.shape[1]} vs {Y.shape[1]}")
    return kernel_of_distance(kernel, cdist(X, Y, kernel.metric))


#: exp(x) rounds to exactly 0.0 for every x below this, and numpy's exp is
#: many times slower on such arguments than on ordinary ones.
_EXP_IS_ZERO_BELOW = -745.2


def kernel_of_distance(kernel: BaseKernel, dist: np.ndarray) -> np.ndarray:
    """Kernel values from distances in the family's ``metric``.

    Arguments whose exp underflows to 0.0 are written as 0.0 without calling
    exp, which leaves every value bit-identical.
    """
    scale = kernel.rho if kernel.family == "laplacian" else 2.0 * kernel.rho**2
    arg = dist / -scale
    return np.exp(arg, out=np.zeros_like(arg), where=~(arg < _EXP_IS_ZERO_BELOW))


def mixture_gram(kernels: list[BaseKernel], weights: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Entrywise mixture sum_l w_l K^l over the base kernels."""
    weights = np.asarray(weights, dtype=float)
    if len(kernels) != weights.shape[0] or len(kernels) == 0:
        raise ConfigError(
            f"{len(kernels)} kernels but {weights.shape[0]} weights"
        )
    out = np.zeros((np.atleast_2d(X).shape[0],) * 2)
    for w, kernel in zip(weights, kernels):
        out += w * kernel_matrix(kernel, X)
    return out
