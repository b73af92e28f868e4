"""Computable complexity bounds and feature-matrix concentration checks.

The Rademacher bound is reported in both argument conventions found in the
source material: ``erfc_bound`` follows the derivation, with argument
sqrt(192) * ||Phi||_F / |||Phi|||_2, while ``erfc_bound_display`` uses the
displayed erfc(sqrt(192 D)). The sharper-than ordering against the
Khintchine bound is asserted on the derivation-faithful variant.

Every quantity of Phi is read from its n x n Gram G = Phi Phi^T, with no SVD:

  ||Phi||_F^2          = tr G
  |||Phi|||_2^2        = lambda_max(G)
  Tr((Phi Phi^T)^2)    = ||G||_F^2

Phi's m kernel blocks Phi_l (n x D each) estimate D w_l K^l, so G =
sum_l Phi_l Phi_l^T is summed block by block in kernel order, the finite-D
twin of K^w = sum_l w_l K^l. A block of at most n columns is one panel; a
wider one is summed as about ceil(D / n) column panels of near-equal width,
none wider than n.

Only the top eigenvalue of any matrix is ever needed, so lambda_max comes
from a numpy Lanczos iteration started from a fixed vector, never from the
full spectrum; the top eigenvalue of each small tridiagonal comes from
Sturm-sequence bisection. erfc is needed only in its far tail (every
argument is at least sqrt(192)), where Cephes' rational approximation,
ported here, gives scipy.special.erfc's bits. :func:`probe_pass` builds each
(D, seed) bank once and each column of its kernel blocks once, never the
whole Phi, and the mixture Gram K^w once per run. So it holds at most three
n x n arrays whatever m and D are. K^w is a dense n x n matrix, so the pass
refuses n > 2000 before building anything.

The non-asymptotic spectral bounds for radial kernels carry e^{2n log 3}
factors and are vacuous at any usable n; they are documented here and not
computed.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .kernels import BaseKernel, kernel_values, mixture_gram
from .mmd import MixtureWeights
from .rff import FeatureBank, feature_block, sample_frequencies, weighted_block
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


# Cephes ndtr.c, the x >= 8 branch of erfc: exp(-x^2) R(x) / S(x), where S
# is monic (p1evl's leading 1) and the coefficients are the doubles Cephes
# stores; scipy.special.erfc runs this branch, so the bits agree.
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_MAXLOG = 7.09782712893383996843e2  # Cephes' log(DBL_MAX): erfc is 0.0 once x^2 exceeds it


def _erfc_tail(x: float) -> float:
    """erfc(x) for x >= 8, bit for bit as Cephes computes it; refuses smaller x and NaN."""
    if not x >= 8.0:
        raise ValueError(f"the erfc tail holds for x >= 8, got {x!r}")
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    p = _ERFC_R[0]
    for c in _ERFC_R[1:]:
        p = p * x + c
    q = x + _ERFC_S[0]
    for c in _ERFC_S[1:]:
        q = q * x + c
    return math.exp(z) * p / q


#: Lanczos vectors kept before a restart from the top Ritz vector.
_LANCZOS_BASIS = 100


def _top_eigenvalue(G: np.ndarray) -> float:
    """lambda_max of a symmetric positive semidefinite matrix by Lanczos.

    Each step reorthogonalizes against the whole basis (classical
    Gram-Schmidt, twice), so the Ritz residual beta_j |s_j| (the step's
    norm times the last entry of the top eigenvector of the tridiagonal
    T_j) bounds the error; the iteration stops when it falls to rounding,
    eps * theta. A run that fills ``_LANCZOS_BASIS`` vectors first restarts
    from its top Ritz vector. The start vector is fixed, so reruns are
    bit-identical; it is a positive pseudo-random vector rather than ones,
    which fails when G 1 = 0.
    """
    n = G.shape[0]
    if n == 1:
        return float(G[0, 0])
    start = stream(0).uniform(0.5, 1.5, n)
    V = np.empty((min(n, _LANCZOS_BASIS), n))
    while True:
        V[0] = start / np.linalg.norm(start)
        alpha, beta = [], []
        for j in range(V.shape[0]):
            w = G @ V[j]
            alpha.append(float(V[j] @ w))
            for _ in range(2):
                w -= (V[: j + 1] @ w) @ V[: j + 1]
            norm = float(np.linalg.norm(w))
            if not math.isfinite(norm):  # a NaN residual would never fall to rounding
                raise ConfigError("lambda_max is undefined for a matrix with a non-finite entry")
            theta, ritz = _top_ritz_pair(alpha, beta)
            if norm * abs(ritz[-1]) <= np.finfo(float).eps * abs(theta):
                return theta
            if j + 1 < V.shape[0]:
                beta.append(norm)
                V[j + 1] = w / norm
        start = ritz @ V


def _pivots(diag: list[float], squares: list[float]) -> list[float]:
    """Pivots of the LDL^T factorization of the tridiagonal (diag, off-diagonal^2 = squares).

    A zero pivot counts as a tiny negative one, as in LAPACK's Sturm counts.
    """
    pivots = [diag[0]]
    for a, b2 in zip(diag[1:], squares):
        pivots.append(a - b2 / (pivots[-1] or -sys.float_info.min))
    return pivots


def _top_ritz_pair(alpha: list[float], beta: list[float]) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and unit eigenvector of the tridiagonal (alpha, beta).

    The eigenvalue comes from bisection on Sturm counts: T - x I has as many
    positive pivots as T has eigenvalues above x. The eigenvector comes
    from the twisted factorization at that eigenvalue (Dhillon & Parlett):
    it is anchored at the index where the two one-sided factorizations
    meet best, so its small entries, among them the last one that sets the
    Ritz residual, are products of well-determined pivot ratios.
    """
    squares = [b * b for b in beta]
    lo = max(alpha)
    hi = max(a + left + right for a, left, right in zip(alpha, [0.0, *beta], [*beta, 0.0]))
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if any(d > 0.0 for d in _pivots([a - mid for a in alpha], squares)):
            lo = mid
        else:
            hi = mid
    diag = [a - hi for a in alpha]
    down = _pivots(diag, squares)
    up = _pivots(diag[::-1], squares[::-1])[::-1]
    k = len(diag)
    twist = min(range(k), key=lambda i: abs(down[i] + up[i] - diag[i]))
    y = np.zeros(k)
    y[twist] = 1.0
    for i in range(twist - 1, -1, -1):
        y[i] = -beta[i] * y[i + 1] / (down[i] or -sys.float_info.min)
    for i in range(twist, k - 1):
        y[i + 1] = -beta[i] * y[i] / (up[i + 1] or -sys.float_info.min)
    return hi, y / np.linalg.norm(y)


#: Panel edges fall on multiples of this many columns (of the largest power
#: of two up to n when n is smaller), so BLAS tiles a panel's projection as
#: it tiles the whole block's, and every entry of Phi keeps its bits.
_PANEL_ALIGN = 16


def _panels(draws: int, n: int) -> list[slice]:
    """A kernel block's ``draws`` columns as contiguous panels at most n wide.

    A block of at most n columns is one panel. A wider one is split at
    aligned edges into panels whose widths differ by at most one alignment
    unit: ceil(draws / n) of them, or a few more when the widest aligned
    width that fits is well under n.
    """
    if draws <= n:
        return [slice(0, draws)]
    unit = min(_PANEL_ALIGN, 1 << (n.bit_length() - 1))
    units = -(-draws // unit)
    count = -(-units // (n // unit))
    edges = [min(unit * (units * i // count), draws) for i in range(count + 1)]
    return [slice(start, stop) for start, stop in zip(edges, edges[1:])]


def _kernel_block_gram(panels, out: np.ndarray | None = None, term: np.ndarray | None = None) -> np.ndarray:
    """G = sum_p P_p P_p^T over the column panels P_p of Phi, in column order.

    The first panel's Gram is G itself, written into ``out`` when given, and
    each later panel's, written into ``term`` when given, is added to it. A
    panel is used before the next is asked for, so ``panels`` may be a
    generator that rebuilds one buffer.
    """
    panels = iter(panels)
    first = next(panels)
    G = np.matmul(first, first.T, out=out)
    for panel in panels:
        G += np.matmul(panel, panel.T, out=term)
    return G


def complexity_bounds(Phi: np.ndarray, R: float, draws: int, m: int) -> ComplexityReport:
    """Rademacher/Gaussian complexity upper bounds for one feature matrix.

    erfc_bound         (R / (n D)) sqrt(pi/192) |||Phi|||_2 erfc(sqrt(192) fro/spec)
    erfc_bound_display same prefactor with erfc(sqrt(192 D))
    khintchine_bound   (R / (n D sqrt(m))) sqrt(23/44) ||Phi||_F
    gaussian_bound     (R / (n D)) (2 sqrt(pi T4)/fro + fro/(2 spec^2) e^{-fro^4/(4 T4)})

    Phi holds m kernel blocks of ``draws`` columns each. The n x n Gram is
    the sum of the Grams of the blocks' column panels (see :func:`_panels`),
    as :func:`probe_pass` forms it one panel at a time, so both give the
    same bits.
    """
    Phi = np.asarray(Phi, dtype=float)
    if Phi.ndim != 2:
        raise ConfigError("Phi must be a matrix")
    if m < 1 or draws < 1 or Phi.shape[1] != m * draws:
        raise ConfigError(f"Phi has {Phi.shape[1]} columns, not m * draws = {m} * {draws} with m, draws >= 1")
    panels = _panels(draws, Phi.shape[0])
    G = _kernel_block_gram(Phi[:, l * draws : (l + 1) * draws][:, cols] for l in range(m) for cols in panels)
    return _report(G, Phi.shape[0], R, draws, m)


def _report(G: np.ndarray, n: int, R: float, draws: int, m: int) -> ComplexityReport:
    """The complexity report of the n-row feature matrix whose Gram is G."""
    fro = math.sqrt(float(np.trace(G)))
    if fro == 0.0:
        raise ConfigError("complexity bounds undefined for a zero matrix")
    spec = math.sqrt(_top_eigenvalue(G))
    trace_quartic = float(np.einsum("ij,ij->", G, G))
    pre = R / (n * draws)
    erfc_bound = pre * math.sqrt(math.pi / 192.0) * spec * _erfc_tail(math.sqrt(192.0) * fro / spec)
    erfc_display = pre * math.sqrt(math.pi / 192.0) * spec * _erfc_tail(math.sqrt(192.0 * draws))
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
) -> list[tuple[ComplexityReport, dict]]:
    """(bounds report, concentration row) for each D in ``sweep``.

    One bank and one complexity report per seed in ``seeds``; the first
    seed's report is the bounds row. The concentration row,
    ``{"draws": D, **frobenius, **spectral}``, is a row of ``diagnose``'s
    table: the reports' deviations from tr(K^w) = n (unit diagonals, simplex
    weights) and from lambda_max(K^w).

    The Gram G = Phi Phi^T is always the n x n sum over column panels:
    :func:`kernelmix.rff.weighted_block` builds each panel of each block
    sqrt(w_l) Phi_l, at most n columns wide (see :func:`_panels`), into one
    n x min(D_max, n) buffer, and its Gram, written into one n x n buffer,
    is added to G, itself one n x n buffer. So Phi is never held, and
    besides the banks the pass holds at most three n x n arrays, about
    8 * 3n^2 bytes, whatever m and D are. The reports equal
    :func:`complexity_bounds` on a fresh Phi bit for bit.
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
    spectral_kw = _top_eigenvalue(mixture_gram(kernels, weights.weights, X))
    n, m = X.shape[0], len(kernels)
    buffer = np.empty(n * min(max(sweep), n))
    # G and one panel's Gram, allocated once and reused by every bank: fresh
    # n x n arrays per bank fragment the heap and raise the peak RSS
    grams = (np.empty((n, n)), np.empty((n, n)))
    out = []
    for draws in sweep:
        reports = []
        for seed in seeds:
            bank = FeatureBank.generate(kernels, weights, draws, X.shape[1], seed)
            panels = (
                weighted_block(X, bank, l, out=buffer[: n * (cols.stop - cols.start)].reshape(n, -1), cols=cols)
                for l in range(m)
                for cols in _panels(draws, n)
            )
            reports.append(_report(_kernel_block_gram(panels, *grams), n, R, draws, m))
            del bank  # dropped before the next trial's bank is drawn
        fro, spec = frobenius_concentration(reports, float(n)), spectral_concentration(reports, spectral_kw)
        out.append((reports[0], {"draws": draws, **fro, **spec}))
    return out


def _deviations(squares: list[float], reference: float, name: str) -> dict:
    devs = np.array([abs(value - reference) / reference for value in squares])
    return {f"{name}_max_deviation": float(devs.max()), f"{name}_mean_deviation": float(devs.mean())}


# Two named reductions rather than one: perfbench/tracing.py times each by name.
def frobenius_concentration(reports: list[ComplexityReport], trace_kw: float) -> dict:
    """Relative deviation | ||Phi||_F^2 - D tr(K^w) | / (D tr(K^w)), one report per seed."""
    squares = [r.frobenius_norm**2 for r in reports]
    return _deviations(squares, reports[0].draws * trace_kw, "frobenius")


def spectral_concentration(reports: list[ComplexityReport], spectral_kw: float) -> dict:
    """Relative deviation | |||Phi|||_2^2 - D |||K^w|||_2 | / (D |||K^w|||_2), one report per seed."""
    squares = [r.spectral_norm**2 for r in reports]
    return _deviations(squares, reports[0].draws * spectral_kw, "spectral")


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
    squared = np.einsum("pk,pk->p", diff, diff)
    return float(np.abs(estimate - next(kernel_values([kernel], squared))).max())
