"""Computable complexity bounds and feature-matrix concentration checks.

The Rademacher bound is reported in both argument conventions found in the
source material: ``erfc_bound`` follows the derivation, with argument
sqrt(192) * ||Phi||_F / |||Phi|||_2, while ``erfc_bound_display`` uses the
displayed erfc(sqrt(192 D)). The sharper-than ordering against the
Khintchine bound is asserted on the derivation-faithful variant.

Every quantity of Phi is read from one Gram G, the smaller of Phi Phi^T and
Phi^T Phi, with no SVD:

  ||Phi||_F^2          = tr G
  |||Phi|||_2^2        = lambda_max(G)
  Tr((Phi Phi^T)^2)    = ||G||_F^2

Only the top eigenvalue of any matrix is ever needed, so lambda_max comes
from Lanczos (ARPACK's ``eigsh``) started from a fixed vector, never from
the full spectrum. :func:`probe_pass` builds each (D, seed) bank and Phi
once, and the mixture Gram K^w once per run. K^w is a dense n x n matrix,
so the pass refuses n > 2000 before building anything.

The non-asymptotic spectral bounds for radial kernels carry e^{2n log 3}
factors and are vacuous at any usable n; they are documented here and not
computed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

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


def _top_eigenvalue(G: np.ndarray) -> float:
    """lambda_max of a symmetric matrix by implicitly restarted Lanczos.

    The start vector is fixed, so reruns are bit-identical; it is a positive
    pseudo-random vector rather than ones, which fails when G 1 = 0. ARPACK
    needs k < n, so a 1 x 1 matrix is its own eigenvalue.
    """
    # imported here: scipy.sparse.linalg adds ~1.3 MB and ~13 ms to every
    # command, and only diagnose reads an eigenvalue
    from scipy.sparse.linalg import eigsh

    n = G.shape[0]
    if n == 1:
        return float(G[0, 0])
    v0 = stream(0).uniform(0.5, 1.5, n)
    return float(eigsh(G, k=1, which="LA", v0=v0, tol=0, return_eigenvectors=False)[0])


def complexity_bounds(Phi: np.ndarray, R: float, draws: int, m: int) -> ComplexityReport:
    """Rademacher/Gaussian complexity upper bounds for one feature matrix.

    erfc_bound         (R / (n D)) sqrt(pi/192) |||Phi|||_2 erfc(sqrt(192) fro/spec)
    erfc_bound_display same prefactor with erfc(sqrt(192 D))
    khintchine_bound   (R / (n D sqrt(m))) sqrt(23/44) ||Phi||_F
    gaussian_bound     (R / (n D)) (2 sqrt(pi T4)/fro + fro/(2 spec^2) e^{-fro^4/(4 T4)})
    """
    # imported here, like eigsh: only diagnose reads a bound
    from scipy.special import erfc

    Phi = np.asarray(Phi, dtype=float)
    if Phi.ndim != 2:
        raise ConfigError("Phi must be a matrix")
    G = Phi @ Phi.T if Phi.shape[0] <= Phi.shape[1] else Phi.T @ Phi
    fro = math.sqrt(float(np.trace(G)))
    if fro == 0.0:
        raise ConfigError("complexity bounds undefined for a zero matrix")
    spec = math.sqrt(_top_eigenvalue(G))
    trace_quartic = float(np.einsum("ij,ij->", G, G))
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


def probe_pass(
    X: np.ndarray,
    kernels: list[BaseKernel],
    weights,
    sweep: list[int],
    seeds: list[int],
    R: float,
) -> list[tuple[ComplexityReport, dict, dict]]:
    """(bounds report, Frobenius probe, spectral probe) for each D in ``sweep``.

    One bank, one Phi and one :func:`complexity_bounds` report per seed in
    ``seeds``; the probes reduce those reports against the K^w reference,
    and the first seed's report is the bounds row. Every Phi is built in
    place into a C-contiguous view of one buffer sized for the largest D,
    so the pass holds one n x m max(sweep) Phi and one Gram at a time.
    """
    if not seeds:
        raise ConfigError("need at least one seed (trial)")
    if not sweep or not all(isinstance(D, numbers.Integral) and D >= 1 for D in sweep):
        raise ConfigError(f"the draw sweep must be a nonempty list of positive integers, got {list(sweep)}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] > 2000:
        raise ConfigError("the mixture Gram K^w is a dense n x n matrix; diagnose is limited to n <= 2000")
    if not isinstance(weights, MixtureWeights):
        weights = MixtureWeights(np.asarray(weights, dtype=float))
    Kw = mixture_gram(kernels, weights.weights, X)
    trace_kw, spectral_kw = float(np.trace(Kw)), _top_eigenvalue(Kw)
    del Kw
    n, m = X.shape[0], len(kernels)
    buffer = np.empty(n * m * max(sweep))
    out = []
    for draws in sweep:
        reports = []
        for seed in seeds:
            bank = FeatureBank.generate(kernels, weights, draws, X.shape[1], seed)
            Phi = build_feature_matrix(X, bank, out=buffer[: n * m * draws].reshape(n, m * draws))
            reports.append(complexity_bounds(Phi, R, draws, m))
        fro = frobenius_concentration(reports, trace_kw)
        out.append((reports[0], fro, spectral_concentration(reports, spectral_kw)))
    return out


def _deviations(squares: list[float], reference: float, name: str) -> dict:
    devs = np.array([abs(value - reference) / reference for value in squares])
    return {name: reference, "max_deviation": float(devs.max()), "mean_deviation": float(devs.mean())}


# Two named reductions rather than one: perfbench/tracing.py times each by name.
def frobenius_concentration(reports: list[ComplexityReport], trace_kw: float) -> dict:
    """Relative deviation | ||Phi||_F^2 - D tr(K^w) | / (D tr(K^w)), one report per seed."""
    squares = [r.frobenius_norm**2 for r in reports]
    return _deviations(squares, reports[0].draws * trace_kw, "trace_reference")


def spectral_concentration(reports: list[ComplexityReport], spectral_kw: float) -> dict:
    """Relative deviation | |||Phi|||_2^2 - D |||K^w|||_2 | / (D |||K^w|||_2), one report per seed."""
    squares = [r.spectral_norm**2 for r in reports]
    return _deviations(squares, reports[0].draws * spectral_kw, "spectral_reference")


def pointwise_error_bound(
    eps: float,
    draws: int,
    dim: int,
    sigma_p: float,
    diam: float,
) -> dict:
    """Probability bound 2^8 (sigma_p diam / eps)^2 exp(-D eps^2 / (4(d+2))).

    Clamped at 1; when vacuous, ``required_draws`` reports the smallest D
    that would push the raw bound below 0.05. The Laplacian (Cauchy)
    sampler has an infinite sigma_p and no bound: it gets ``{"skipped": ...}``.
    """
    if eps <= 0:
        raise ConfigError("eps must be positive")
    if not math.isfinite(sigma_p):
        return {"skipped": "infinite spectral second moment (Laplacian sampler)"}
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
