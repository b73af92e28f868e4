"""Computable complexity bounds and feature-matrix concentration checks.

The Rademacher bound is reported in both argument conventions found in the
source material: ``erfc_bound`` follows the derivation, with argument
sqrt(192) * ||Phi||_F / |||Phi|||_2, while ``erfc_bound_display`` uses the
displayed erfc(sqrt(192 D)). The sharper-than ordering against the
Khintchine bound is asserted on the derivation-faithful variant.

The non-asymptotic spectral bounds for radial kernels carry e^{2n log 3}
factors and are vacuous at any usable n; they are documented here and not
computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .errors import ConfigError
from .kernels import BaseKernel, kernel_of_distance, mixture_gram
from .mmd import MixtureWeights
from .rff import FeatureBank, build_feature_matrix, feature_block, sample_frequencies
from .rng import stream


@dataclass(frozen=True)
class ComplexityReport:
    n: int
    draws: int
    m: int
    R: float
    frobenius_norm: float
    spectral_norm: float
    trace_quartic: float  # Tr((Phi Phi^T)^2)
    erfc_bound: float
    erfc_bound_display: float
    khintchine_bound: float
    gaussian_bound: float


def complexity_bounds(Phi: np.ndarray, R: float, draws: int, m: int) -> ComplexityReport:
    """Rademacher/Gaussian complexity upper bounds for one feature matrix.

    erfc_bound         (R / (n D)) sqrt(pi/192) |||Phi|||_2 erfc(sqrt(192) fro/spec)
    erfc_bound_display same prefactor with erfc(sqrt(192 D))
    khintchine_bound   (R / (n D sqrt(m))) sqrt(23/44) ||Phi||_F
    gaussian_bound     (R / (n D)) (2 sqrt(pi T4)/fro + fro/(2 spec^2) e^{-fro^4/(4 T4)})
    """
    Phi = np.asarray(Phi, dtype=float)
    if Phi.ndim != 2:
        raise ConfigError("Phi must be a matrix")
    singular = np.linalg.svd(Phi, compute_uv=False)
    fro = float(np.sqrt((singular**2).sum()))
    spec = float(singular[0])
    if fro == 0.0:
        raise ConfigError("complexity bounds undefined for a zero matrix")
    trace_quartic = float((singular**4).sum())
    n = Phi.shape[0]
    pre = R / (n * draws)
    erfc_bound = pre * math.sqrt(math.pi / 192.0) * spec * float(erfc(math.sqrt(192.0) * fro / spec))
    erfc_display = pre * math.sqrt(math.pi / 192.0) * spec * float(erfc(math.sqrt(192.0 * draws)))
    khintchine = (R / (n * draws * math.sqrt(m))) * math.sqrt(23.0 / 44.0) * fro
    gaussian = pre * (
        2.0 * math.sqrt(math.pi * trace_quartic) / fro
        + fro / (2.0 * spec**2) * math.exp(-(fro**4) / (4.0 * trace_quartic))
    )
    return ComplexityReport(
        n=n,
        draws=draws,
        m=m,
        R=R,
        frobenius_norm=fro,
        spectral_norm=spec,
        trace_quartic=trace_quartic,
        erfc_bound=erfc_bound,
        erfc_bound_display=erfc_display,
        khintchine_bound=khintchine,
        gaussian_bound=gaussian,
    )


def _mixture_setup(X, kernels, weights, seeds):
    if not seeds:
        raise ConfigError("need at least one seed (trial)")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not isinstance(weights, MixtureWeights):
        weights = MixtureWeights(np.asarray(weights, dtype=float))
    return X, weights


def frobenius_concentration(
    X: np.ndarray,
    kernels: list[BaseKernel],
    weights,
    draws: int,
    seeds: list[int],
) -> dict:
    """Relative deviation | ||Phi||_F^2 - D Tr(K^w) | / (D Tr(K^w)) per seed."""
    X, weights = _mixture_setup(X, kernels, weights, seeds)
    Kw = mixture_gram(kernels, weights.weights, X)
    reference = draws * float(np.trace(Kw))
    rows = []
    for seed in seeds:
        bank = FeatureBank.generate(kernels, weights, draws, X.shape[1], seed)
        Phi = build_feature_matrix(X, bank)
        fro_sq = float((Phi**2).sum())
        rows.append({"seed": seed, "relative_deviation": abs(fro_sq - reference) / reference})
    devs = np.array([r["relative_deviation"] for r in rows])
    return {
        "draws": draws,
        "trace_reference": reference,
        "rows": rows,
        "max_deviation": float(devs.max()),
        "mean_deviation": float(devs.mean()),
    }


def spectral_concentration(
    X: np.ndarray,
    kernels: list[BaseKernel],
    weights,
    draws: int,
    seeds: list[int],
) -> dict:
    """Relative deviation | |||Phi|||_2^2 - D |||K^w|||_2 | / (D |||K^w|||_2)."""
    X, weights = _mixture_setup(X, kernels, weights, seeds)
    n = X.shape[0]
    if n > 2000:
        raise ConfigError("dense eigensolve limited to n <= 2000")
    Kw = mixture_gram(kernels, weights.weights, X)
    spec_K = float(np.linalg.eigvalsh(Kw)[-1])
    reference = draws * spec_K
    rows = []
    for seed in seeds:
        bank = FeatureBank.generate(kernels, weights, draws, X.shape[1], seed)
        Phi = build_feature_matrix(X, bank)
        spec_sq = float(np.linalg.eigvalsh(Phi @ Phi.T)[-1])
        rows.append({"seed": seed, "relative_deviation": abs(spec_sq - reference) / reference})
    devs = np.array([r["relative_deviation"] for r in rows])
    return {
        "draws": draws,
        "spectral_reference": reference,
        "rows": rows,
        "max_deviation": float(devs.max()),
        "mean_deviation": float(devs.mean()),
    }


def pointwise_error_bound(
    eps: float,
    draws: int,
    dim: int,
    sigma_p: float,
    diam: float,
) -> dict:
    """Probability bound 2^8 (sigma_p diam / eps)^2 exp(-D eps^2 / (4(d+2))).

    Clamped at 1; when vacuous, ``required_draws`` reports the smallest D
    that would push the raw bound below 0.05. Only finite-second-moment
    samplers are supported (the Cauchy/Laplacian sampler is refused).
    """
    if eps <= 0:
        raise ConfigError("eps must be positive")
    if not math.isfinite(sigma_p):
        raise ConfigError(
            "pointwise bound needs a finite spectral second moment; "
            "the Laplacian/Cauchy sampler has none"
        )
    prefactor = 2.0**8 * (sigma_p * diam / eps) ** 2
    raw = prefactor * math.exp(-draws * eps**2 / (4.0 * (dim + 2)))
    target = 0.05
    if prefactor <= target:
        required = 1
    else:
        required = math.ceil(4.0 * (dim + 2) / eps**2 * math.log(prefactor / target))
    return {
        "bound": min(1.0, raw),
        "raw_bound": raw,
        "vacuous": raw >= 1.0,
        "required_draws": required,
        "required_draws_target": target,
    }


def empirical_sup_error(
    kernel: BaseKernel,
    draws: int,
    X: np.ndarray,
    pairs: int,
    seed: int,
) -> float:
    """Max |RFF estimate - k| over sampled row pairs, one shared bank, all
    pairs at once in O(pairs * D) memory."""
    if pairs < 1:
        raise ConfigError("need at least one pair")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rng = stream(seed, 41)
    xi, b = sample_frequencies(kernel, draws, X.shape[1], seed)
    i, j = rng.integers(0, X.shape[0], size=(pairs, 2)).T
    phi_i, phi_j = feature_block(X[i], xi, b), feature_block(X[j], xi, b)
    estimate = np.einsum("pk,pk->p", phi_i, phi_j) / draws
    diff = X[i] - X[j]
    dist = np.einsum("pk,pk->p", diff, diff)
    if kernel.metric == "euclidean":
        dist = np.sqrt(dist)
    return float(np.abs(estimate - kernel_of_distance(kernel, dist)).max())
