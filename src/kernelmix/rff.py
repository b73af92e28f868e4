"""Spectral samplers, random feature blocks, and the weighted feature matrix.

The per-draw feature is sqrt(2) * cos(<x, xi> + b) (Rahimi & Recht, 2007),
written once, in the in-place map that :func:`feature_block` and
:func:`build_feature_matrix` share; the kernel estimate of a pair (x, y) is the
mean over draws of phi(x) phi(y). The 1/sqrt(D) normalization is applied
at the classifier, never here, so the two factors are not double-counted.

Spectral (Bochner dual) laws per family, for bandwidth rho:

  gaussian, anova  xi_k ~ Normal(0, 1/rho^2) per coordinate
  laplacian        xi = z / (rho |g|), z ~ Normal(0, I_d), g ~ Normal(0, 1)

ANOVA with one shared rho is the Gaussian kernel, so it shares the Gaussian
law. The Laplacian law is the multivariate Cauchy, with density
proportional to (1 + rho^2 ||xi||^2)^(-(d+1)/2), the dual of the Euclidean
Laplacian exp(-||x - y|| / rho) in every dimension; each coordinate is
Cauchy(0, 1/rho). It has no second moment (sigma_p^2 = inf, so the
pointwise error bound refuses it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
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
    if draws < 1:
        raise ConfigError("need at least one draw")
    rng = stream(seed, kernel_index)
    if kernel.family == "laplacian":
        z = rng.normal(size=(draws, dim))
        xi = z / (kernel.rho * np.abs(rng.normal(size=(draws, 1))))
    else:
        xi = rng.normal(0.0, 1.0 / kernel.rho, size=(draws, dim))
    b = rng.uniform(0.0, 2.0 * math.pi, size=draws)
    return xi, b


def feature_block(X: np.ndarray, xi: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All D features of one kernel for every row of X (n x D), in one buffer."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != xi.shape[1]:
        raise ConfigError(f"dimension mismatch {X.shape[1]} vs {xi.shape[1]}")
    return _feature_map(X @ xi.T, b)


def _feature_map(theta: np.ndarray, b: np.ndarray) -> np.ndarray:
    """theta <- sqrt(2) cos(theta + b) in place, b broadcast over the rows."""
    theta += b
    np.cos(theta, out=theta)
    theta *= math.sqrt(2.0)
    return theta


@dataclass(frozen=True)
class FeatureBank:
    """Sampled frequencies and phases for every base kernel.

    Reconstructible from (kernels, weights, draws, dim, seed) alone; the
    arrays are regenerated deterministically, which is also how banks are
    serialized (parameters only, never the frequencies).
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

    def to_dict(self) -> dict:
        return {
            "kernels": [{"family": k.family, "rho": k.rho} for k in self.kernels],
            "weights": self.weights.weights.tolist(),
            "degenerate": self.weights.degenerate,
            "draws": self.draws,
            "dim": self.dim,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FeatureBank":
        kernels = [BaseKernel(k["family"], k["rho"]) for k in payload["kernels"]]
        weights = MixtureWeights(
            np.asarray(payload["weights"], dtype=float),
            degenerate=bool(payload.get("degenerate", False)),
        )
        return cls.generate(kernels, weights, payload["draws"], payload["dim"], payload["seed"])


def build_feature_matrix(X: np.ndarray, bank: FeatureBank, out: np.ndarray | None = None) -> np.ndarray:
    """Concatenated weighted feature matrix Phi (n x mD).

    Block l holds sqrt(w_l) * sqrt(2) * cos(X xi_l^T + b_l); blocks appear
    in kernel order, so entries are bounded by sqrt(2 * max_l w_l). Each
    block's projection is written into its column slice of Phi, which is
    ``out`` when given (a float64 n x mD array or view; it is returned) and
    a fresh array otherwise; the feature map and the weights then run once
    over the whole of Phi, in place. The weight pass is skipped when every
    weight is 1, as for a single kernel: x * 1.0 == x.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != bank.dim:
        raise ConfigError(f"data dim {X.shape[1]} does not match bank dim {bank.dim}")
    shape = (X.shape[0], bank.total_features)
    if out is not None and (out.shape != shape or out.dtype != np.float64):
        raise ValueError(f"out must be a float64 array of shape {shape}, got {out.dtype} {out.shape}")
    Phi = np.empty(shape) if out is None else out
    D = bank.draws
    for l, xi in enumerate(bank.frequencies):
        np.matmul(X, xi.T, out=Phi[:, l * D : (l + 1) * D])
    _feature_map(Phi, np.concatenate(bank.phases))
    scale = np.sqrt(bank.weights.weights)
    if np.any(scale != 1.0):
        Phi *= np.repeat(scale, D)
    return Phi
