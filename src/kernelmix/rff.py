"""Spectral samplers, random feature blocks, and the weighted feature matrix.

The per-draw feature is sqrt(2) * cos(<x, xi> + b) (Rahimi & Recht, 2007),
written here once, in :func:`feature_block`; the kernel estimate of a pair
(x, y) is the mean over draws of phi(x) phi(y). Kernel l's weighted block
sqrt(w_l) * phi_l is written once too, in :func:`weighted_block`, which
:func:`build_feature_matrix` and the probe pass of ``diagnose`` both call.
X xi^T is formed in the 256-column panels of :func:`_panels`, which
``diagnose`` builds one at a time, so its panels carry Phi's bits.
One copy lives elsewhere: :func:`kernelmix.select.relaxed_objective`
builds sqrt(2 w_l) cos(theta) itself, because its gradient needs the phase
theta = <x, xi> + b for the sin, which these functions do not return. The
1/sqrt(D) normalization is applied at the classifier, never here, so the two
factors are not double-counted. A bank is stored by its parameters alone;
the model file that names them is read and written by :mod:`kernelmix.svm`.

Spectral (Bochner dual) laws per family, for bandwidth rho:

  gaussian   xi_k ~ Normal(0, 1/rho^2) per coordinate
  laplacian  xi = z / (rho |g|), z ~ Normal(0, I_d), g ~ Normal(0, 1)

The Laplacian law is the multivariate Cauchy, with density
proportional to (1 + rho^2 ||xi||^2)^(-(d+1)/2), the dual of the Euclidean
Laplacian exp(-||x - y|| / rho) in every dimension; each coordinate is
Cauchy(0, 1/rho). It has no second moment (sigma_p^2 = inf, so the
pointwise error bound refuses it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, is_integer
from .kernels import BaseKernel
from .mmd import MixtureWeights
from .rng import stream


def spectral_second_moment(kernel: BaseKernel, dim: int) -> float:
    """sigma_p^2 = E ||xi||^2 under the kernel's spectral law (inf for Cauchy)."""
    if kernel.family == "laplacian":
        return math.inf
    return dim / kernel.rho**2


def sample_frequencies(
    kernel: BaseKernel,
    draws: int,
    dim: int,
    seed: int,
    kernel_index: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (xi, b): frequencies from the spectral law, phases uniform [0, 2pi).

    The stream is keyed by (seed, kernel_index), so each base kernel's bank
    regenerates identically no matter the order of generation.
    """
    if not is_integer(draws, 1):
        raise ConfigError(f"draws must be a positive integer, got {draws!r}")
    rng = stream(seed, kernel_index)
    if kernel.family == "laplacian":
        z = rng.normal(size=(draws, dim))
        xi = z / (kernel.rho * np.abs(rng.normal(size=(draws, 1))))
    else:
        xi = rng.normal(0.0, 1.0 / kernel.rho, size=(draws, dim))
    b = rng.uniform(0.0, 2.0 * math.pi, size=draws)
    return xi, b


#: The projection X xi^T is formed in column panels this wide.
_PANEL_COLUMNS = 256


def _panels(draws: int) -> list[slice]:
    """``draws`` columns as panels of ``_PANEL_COLUMNS``, counted from column 0; the last may be narrower."""
    return [slice(start, min(start + _PANEL_COLUMNS, draws)) for start in range(0, draws, _PANEL_COLUMNS)]


def feature_block(X: np.ndarray, xi: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """All D features of one kernel for every row of X (n x D), in one buffer.

    The buffer is ``out`` when given (a float64 n x D array or view,
    returned) and a fresh array otherwise: X xi^T is written into it one
    panel of :func:`_panels` at a time and sqrt(2) cos(. + b) runs over it
    in place, so a caller reuses one n x D buffer for every kernel and bank,
    or writes each block into its column slice of Phi.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != xi.shape[1]:
        raise ConfigError(f"dimension mismatch {X.shape[1]} vs {xi.shape[1]}")
    theta = np.empty((X.shape[0], xi.shape[0])) if out is None else out
    for cols in _panels(xi.shape[0]):
        np.matmul(X, xi[cols].T, out=theta[:, cols])
    theta += b
    np.cos(theta, out=theta)
    theta *= math.sqrt(2.0)
    return theta


@dataclass(frozen=True)
class FeatureBank:
    """Sampled frequencies and phases for every base kernel.

    Reconstructible from (kernels, weights, draws, dim, seed) alone; the
    arrays are regenerated deterministically, which is also how a model file
    stores a bank (parameters only, never the frequencies).
    """

    kernels: tuple[BaseKernel, ...]
    weights: MixtureWeights
    draws: int
    dim: int
    seed: int
    frequencies: tuple[np.ndarray, ...]
    phases: tuple[np.ndarray, ...]

    @classmethod
    def generate(
        cls,
        kernels: list[BaseKernel],
        weights: MixtureWeights,
        draws: int,
        dim: int,
        seed: int,
    ) -> "FeatureBank":
        if len(kernels) != len(weights.weights):
            raise ConfigError(f"{len(kernels)} kernels but {len(weights.weights)} weights")
        freqs, phases = [], []
        for idx, kernel in enumerate(kernels):
            xi, b = sample_frequencies(kernel, draws, dim, seed, kernel_index=idx)
            freqs.append(xi)
            phases.append(b)
        return cls(
            kernels=tuple(kernels),
            weights=weights,
            draws=draws,
            dim=dim,
            seed=seed,
            frequencies=tuple(freqs),
            phases=tuple(phases),
        )

    @property
    def total_features(self) -> int:
        return len(self.kernels) * self.draws


def weighted_block(
    X: np.ndarray, bank: FeatureBank, l: int, out: np.ndarray | None = None, cols: slice = slice(None)
) -> np.ndarray:
    """Kernel l's block of Phi, sqrt(w_l) * sqrt(2) cos(X xi_l^T + b_l) (n x D).

    Only the draws in ``cols`` when given: a panel of :func:`_panels` gives
    those columns bit for bit. Written into ``out`` as :func:`feature_block`
    does. The weight pass is skipped when w_l = 1: x * 1.0 == x.
    """
    block = feature_block(X, bank.frequencies[l][cols], bank.phases[l][cols], out=out)
    scale = math.sqrt(bank.weights.weights[l])
    if scale != 1.0:
        block *= scale
    return block


def build_feature_matrix(X: np.ndarray, bank: FeatureBank) -> np.ndarray:
    """Concatenated weighted feature matrix Phi (n x mD).

    Block l is :func:`weighted_block`, sqrt(w_l) * sqrt(2) * cos(X xi_l^T +
    b_l); blocks appear in kernel order, so entries are bounded by
    sqrt(2 * max_l w_l). Each weighted block is written into its column
    slice of Phi.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != bank.dim:
        raise ConfigError(f"data dim {X.shape[1]} does not match bank dim {bank.dim}")
    Phi = np.empty((X.shape[0], bank.total_features))
    D = bank.draws
    for l in range(len(bank.kernels)):
        weighted_block(X, bank, l, out=Phi[:, l * D : (l + 1) * D])
    return Phi
