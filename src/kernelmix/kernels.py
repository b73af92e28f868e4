"""Shift-invariant base kernels, Gram matrices and their mixtures.

All built-in families are bounded by 1, attain 1 on the diagonal, and are
translation invariant. Every value comes from :func:`kernel_values` on
squared distances: gaussian exp(-||x-y||^2 / (2 rho^2)), laplacian
exp(-||x-y|| / rho), whose distance is the square root. gamma = 1/(2 rho^2)
is accepted as an alternative parameterization.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

FAMILIES = ("gaussian", "laplacian")


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


#: Rows of X per block of :func:`distance_blocks`.
_BLOCK_ROWS = 64


def distance_blocks(X: np.ndarray, Y: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, block)``, squared Euclidean distances of X's rows [start, start + 64).

    Against Y a block is rows x m. With Y omitted it holds its rows' pairs
    j > i, condensed, so the blocks end to end are ``pdist``'s layout. A
    block accumulates (x_k - y_k)^2 one coordinate at a time in column
    order, scipy's ``cdist``/``pdist`` order, so the bits equal theirs with
    ``"sqeuclidean"``. Each x_k - y_k comes from one product [x_k, 1]
    [1, -y_k]^T, whose two terms are exact, so it is rounded once, as a
    subtraction is. Swapping two rows only flips signs before squaring, so
    the distances of X to itself are exactly symmetric, with exact zeros on
    the diagonal. No scratch is kept across a yield, so a caller that drops
    each block before the next holds one block at a time.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    within = Y is None
    Y = X if within else np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise ConfigError(f"dimension mismatch {X.shape[1]} vs {Y.shape[1]}")
    (n, d), m = X.shape, Y.shape[0]
    left = np.ones((d, n, 2))
    left[:, :, 0] = X.T
    right = np.ones((d, 2, m))
    np.negative(Y.T, out=right[:, 1])
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, min(start + _BLOCK_ROWS, n))
        # within X, a block's rows pair with the rows after its first
        cols = slice(start + 1 if within else 0, m)
        block = np.matmul(left[0, rows], right[0, :, cols])
        block *= block
        term = np.empty_like(block)
        for k in range(1, d):
            np.matmul(left[k, rows], right[k, :, cols], out=term)
            term *= term
            block += term
        del term
        if within:  # keep the pairs j > i
            block = block[np.arange(block.shape[1]) >= np.arange(block.shape[0])[:, None]]
        yield start, block
        del block


def kernel_matrix(kernel: BaseKernel, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """Kernel evaluations between the rows of X and Y (Y defaults to X).

    With Y omitted this is the Gram matrix of X, exactly symmetric with
    exact 1.0 on the diagonal (for finite X; see :func:`distance_blocks`).
    It is :func:`_gram` with one kernel of weight 1.0: x * 1.0 == x and
    0 + x == x, so every entry is the kernel's value itself.
    """
    return _gram([kernel], [1.0], X, Y)


#: exp(x) rounds to exactly 0.0 for every x below this, and numpy's exp is
#: many times slower on such arguments than on ordinary ones.
_EXP_IS_ZERO_BELOW = -745.2


def _exp(arg: np.ndarray, smallest: float) -> np.ndarray:
    """exp of ``arg``, a fresh C-contiguous array, written into it; ``smallest`` is its minimum.

    When no argument underflows, exp runs in place. Otherwise the int64
    indices of the arguments whose exp does not underflow (NaN among them)
    gather them, exp runs in place on them, and they are put back over the
    zeroed array, the rest being the 0.0 that exp would return. exp is
    elementwise, so both paths give the bits of exp on every argument.
    Callers pass one distance block at most, so the gather holds at most a
    block's indices and values. A NaN ``smallest`` takes the gather path.
    """
    if smallest >= _EXP_IS_ZERO_BELOW:
        return np.exp(arg, out=arg)
    flat = arg.reshape(-1)
    kept = np.flatnonzero(~(flat < _EXP_IS_ZERO_BELOW))
    values = flat.take(kept)
    np.exp(values, out=values)
    flat.fill(0.0)
    flat.put(kept, values)
    return arg


def kernel_values(kernels: list[BaseKernel], squared: np.ndarray) -> Iterator[np.ndarray]:
    """Yield each kernel's values on the squared distances, in order.

    The largest squared distance is taken once. The square root, of the
    array and of that entry, is taken once, at the first Laplacian kernel.
    A kernel's smallest exp argument is the largest distance over -scale:
    the square root and correctly rounded division by a positive constant
    are monotone. That argument picks the path of :func:`_exp`. Each array
    is yielded fresh and not kept, so a caller that drops it before asking
    for the next holds one kernel's values at a time.
    """
    largest = squared.max(initial=0.0)
    dist = None
    for kernel in kernels:
        if kernel.family == "laplacian":
            if dist is None:
                dist, largest_dist = np.sqrt(squared), np.sqrt(largest)
            yield _exp(dist / -kernel.rho, largest_dist / -kernel.rho)
        else:
            scale = 2.0 * kernel.rho**2
            yield _exp(squared / -scale, largest / -scale)


def mixture_gram(kernels: list[BaseKernel], weights: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Entrywise mixture sum_l w_l K^l over the base kernels; see :func:`_gram`."""
    weights = np.asarray(weights, dtype=float)
    if len(kernels) != weights.shape[0] or len(kernels) == 0:
        raise ConfigError(
            f"{len(kernels)} kernels but {weights.shape[0]} weights"
        )
    return _gram(kernels, weights, X, X)


def _gram(kernels: list[BaseKernel], weights, X: np.ndarray, Y: np.ndarray | None) -> np.ndarray:
    """sum_l w_l K^l between the rows of X and Y (Y defaults to X), summed into zeros.

    Filled one block of :func:`distance_blocks` of X against Y at a time,
    whose right-hand operand is built once. Each kernel's values on the
    block are scaled in place and added, in kernel order, so besides the
    sum, about 8 n m bytes, the pass holds one block's distances (and
    their square roots with a Laplacian kernel) and one kernel's values on
    them. Every entry is computed as on the whole matrix, so the bits do
    not depend on the blocks.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = X if Y is None else np.atleast_2d(np.asarray(Y, dtype=float))
    out = np.zeros((X.shape[0], Y.shape[0]))
    for start, block in distance_blocks(X, Y):
        rows = out[start : start + block.shape[0]]
        values = kernel_values(kernels, block)
        del block  # held by the generator until its last kernel
        for w in weights:
            K = next(values)
            K *= w
            rows += K
            del K  # dropped before the next kernel's values are made
        del values  # and the block's distances before the next block's
    return out
