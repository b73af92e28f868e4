"""Computable complexity bounds and feature-matrix concentration checks.

The Rademacher bound ``erfc_bound`` takes the derivation's argument
sqrt(192) ||Phi||_F / |||Phi|||_2 (erfc of the displayed sqrt(192 D) is 0.0
at every D >= 4) and must not exceed the Khintchine bound.

Every quantity of Phi is read from its n x n Gram G = Phi Phi^T, with no SVD:

  ||Phi||_F^2          = tr G
  |||Phi|||_2^2        = lambda_max(G)
  Tr((Phi Phi^T)^2)    = ||G||_F^2

Phi's m kernel blocks Phi_l (n x D each) estimate D w_l K^l, so G =
sum_l Phi_l Phi_l^T is summed block by block in kernel order, the finite-D
twin of K^w = sum_l w_l K^l. Each block is summed in the panels that
:mod:`kernelmix.rff` projects it in, and each panel's Gram is added into G's
upper triangle 128 rows at a time. G is kept as those upper-triangle strips,
about half an n x n array, and every quantity above is read from them.

Only the top eigenvalue of any matrix is ever needed, so lambda_max comes
from a numpy Lanczos iteration started from a fixed vector, never from the
full spectrum of G or K^w; numpy's ``eigh`` solves only the Lanczos
tridiagonals, at most 100 x 100. erfc is needed only in its far tail (every
argument is at least sqrt(192)), where Cephes' rational approximation,
ported here, gives scipy.special.erfc's bits. :func:`probe_pass` builds each
(D, seed) bank once and each column of its kernel blocks once, never the
whole Phi, and the mixture Gram K^w once per run.

The non-asymptotic spectral bounds for radial kernels carry e^{2n log 3}
factors and are vacuous at any usable n; they are documented here and not
computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, is_integer, is_positive
from .kernels import BaseKernel, kernel_values, mixture_gram
from .mmd import MixtureWeights
from .rff import _PANEL_COLUMNS, FeatureBank, _panels, feature_block, sample_frequencies, weighted_block
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


def _top_eigenvalue(G: np.ndarray | _UpperStrips) -> float:
    """lambda_max of a symmetric positive semidefinite matrix by Lanczos.

    G is read only through its shape and the product G @ v, so it may be a
    dense array or :class:`_UpperStrips`.

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


def _top_ritz_pair(alpha: list[float], beta: list[float]) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and unit eigenvector of the tridiagonal (alpha, beta), at most _LANCZOS_BASIS wide."""
    values, vectors = np.linalg.eigh(np.diag(alpha) + np.diag(beta, -1))  # eigh reads the lower triangle
    return float(values[-1]), vectors[:, -1]


#: Rows of G per strip of :func:`_kernel_block_gram`.
_STRIP_ROWS = 128


class _UpperStrips:
    """A symmetric n x n matrix held as the row strips of its upper triangle.

    Strip i holds rows [128 i, 128 i + h) and columns [128 i, n) (h = 128
    but for the last strip). The strips lie end to end in one flat buffer of
    sum_i h (n - 128 i), about n (n + 128) / 2 doubles. Each strip's leading
    h x h diagonal block is stored whole.
    """

    def __init__(self, n: int):
        widths = range(n, 0, -_STRIP_ROWS)
        sizes = [min(_STRIP_ROWS, width) * width for width in widths]
        buffer = np.empty(sum(sizes))
        ends = np.cumsum(sizes)
        self.shape = (n, n)
        self.strips = [buffer[end - size : end].reshape(-1, width) for width, size, end in zip(widths, sizes, ends)]

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """G v, each strip S_i read as its rows of G and, past its diagonal block, their mirror R_i^T."""
        y = np.zeros(self.shape[0])
        for start, strip in zip(range(0, self.shape[0], _STRIP_ROWS), self.strips):
            h = strip.shape[0]
            y[start : start + h] += strip @ v[start:]
            y[start + h :] += strip[:, h:].T @ v[start : start + h]
        return y

    def trace(self) -> float:
        """tr G, summed as ``np.trace`` sums the whole diagonal, so with its bits."""
        return float(np.concatenate([np.diagonal(strip) for strip in self.strips]).sum())

    def frobenius_squared(self) -> float:
        """||G||_F^2 = sum_i (2 ||S_i||_F^2 - ||D_i||_F^2), D_i the diagonal block of strip S_i."""
        total = 0.0
        for strip in self.strips:
            block = strip[:, : strip.shape[0]]
            total += 2.0 * float(np.einsum("ij,ij->", strip, strip)) - float(np.einsum("ij,ij->", block, block))
        return total


def _kernel_block_gram(panels, G: _UpperStrips) -> _UpperStrips:
    """G = sum_p P_p P_p^T over the column panels P_p of Phi, in column order, into ``G``.

    G is zero-filled, and each panel's Gram is formed on and above the
    diagonal only, one strip of ``_STRIP_ROWS`` rows at a time, into one
    strip-sized scratch that is added to G's strip. Each diagonal block is
    then mirrored inside itself, so G is exactly symmetric. A panel is used
    before the next is asked for, so ``panels`` may be a generator that
    rebuilds one buffer.
    """
    n = G.shape[0]
    scratch = np.empty(min(n, _STRIP_ROWS) * n)
    for strip in G.strips:
        strip.fill(0.0)
    for panel in panels:
        for start, strip in zip(range(0, n, _STRIP_ROWS), G.strips):
            part = scratch[: strip.size].reshape(strip.shape)
            np.matmul(panel[start : start + _STRIP_ROWS], panel[start:].T, out=part)
            strip += part
    for strip in G.strips:
        block = strip[:, : strip.shape[0]]
        lower = np.tril_indices(block.shape[0], -1)
        block[lower] = block.T[lower]
    return G


def complexity_bounds(Phi: np.ndarray, R: float, draws: int, m: int) -> ComplexityReport:
    """Rademacher/Gaussian complexity upper bounds for one feature matrix.

    erfc_bound       (R / (n D)) sqrt(pi/192) |||Phi|||_2 erfc(sqrt(192) fro/spec)
    khintchine_bound (R / (n D sqrt(m))) sqrt(23/44) ||Phi||_F
    gaussian_bound   (R / (n D)) (2 sqrt(pi T4)/fro + fro/(2 spec^2) e^{-fro^4/(4 T4)})

    Phi has a row and m kernel blocks of ``draws`` columns; R is finite and
    positive. Its Gram is summed over the panels of :func:`kernelmix.rff._panels`
    of each block, as :func:`probe_pass` sums it, so both give the same bits.
    """
    Phi = np.asarray(Phi, dtype=float)
    if not (is_integer(m, 1) and is_integer(draws, 1) and Phi.shape[1:] == (m * draws,) and Phi.shape[0] > 0):
        raise ConfigError(f"Phi {Phi.shape} needs a row and m * draws = {m!r} * {draws!r} columns, integers >= 1")
    if not is_positive(R):
        raise ConfigError(f"R must be finite and positive, got {R!r}")
    panels = (Phi[:, l * draws : (l + 1) * draws][:, cols] for l in range(m) for cols in _panels(draws))
    return _report(_kernel_block_gram(panels, _UpperStrips(Phi.shape[0])), Phi.shape[0], R, draws, m)


def _report(G: _UpperStrips, n: int, R: float, draws: int, m: int) -> ComplexityReport:
    """The complexity report of the n-row feature matrix whose Gram is G."""
    fro = math.sqrt(G.trace())
    if fro == 0.0:
        raise ConfigError("complexity bounds undefined for a zero matrix")
    spec = math.sqrt(_top_eigenvalue(G))
    trace_quartic = G.frobenius_squared()
    pre = R / (n * draws)
    erfc_bound = pre * math.sqrt(math.pi / 192.0) * spec * _erfc_tail(math.sqrt(192.0) * fro / spec)
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
        khintchine_bound=khintchine,
        gaussian_bound=gaussian,
    )


MAX_ROWS = 2000


def check_rows(n: int) -> None:
    """Refuse more than :data:`MAX_ROWS` rows: K^w is a dense n x n Gram, and the walks before it are O(n^2)."""
    if n > MAX_ROWS:
        raise ConfigError(f"the mixture Gram K^w is a dense n x n matrix; diagnose is limited to n <= {MAX_ROWS}")


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

    :func:`kernelmix.rff.weighted_block` builds each block sqrt(w_l) Phi_l
    one panel of :func:`kernelmix.rff._panels` at a time, with Phi's bits,
    into one n x min(D_max, 256) buffer, and :func:`_kernel_block_gram` adds
    the panel's Gram into G = Phi Phi^T (see :class:`_UpperStrips`). So Phi
    is never held: whatever m and D are, the bank phase holds the banks and
    about 8 (n (n + 128) / 2 + 128 n + 256 n) bytes, G's strips, one strip
    of scratch and one panel. The K^w phase before it holds K^w, 8 n^2
    bytes, sets the pass's peak and refuses n > :data:`MAX_ROWS`. The
    reports equal :func:`complexity_bounds` on a fresh Phi bit for bit. X
    needs a row and a column, and R must be finite and positive.
    """
    if not seeds:
        raise ConfigError("need at least one seed (trial)")
    if not sweep or not all(is_integer(D, 1) for D in sweep):
        raise ConfigError(f"the draw sweep must be a nonempty list of positive integers, got {list(sweep)}")
    if not is_positive(R):
        raise ConfigError(f"R must be finite and positive, got {R!r}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or 0 in X.shape:
        raise ConfigError(f"X must be a matrix with at least one row and one column, got shape {X.shape}")
    check_rows(X.shape[0])
    if not isinstance(weights, MixtureWeights):
        weights = MixtureWeights(np.asarray(weights, dtype=float))
    spectral_kw = _top_eigenvalue(mixture_gram(kernels, weights.weights, X))
    n, m = X.shape[0], len(kernels)
    buffer = np.empty(n * min(max(sweep), _PANEL_COLUMNS))
    # G's strips, allocated once and reused by every bank: a fresh buffer per
    # bank fragments the heap and raises the peak RSS
    G = _UpperStrips(n)
    out = []
    for draws in sweep:
        reports = []
        for seed in seeds:
            bank = FeatureBank.generate(kernels, weights, draws, X.shape[1], seed)
            panels = (
                weighted_block(X, bank, l, out=buffer[: n * (cols.stop - cols.start)].reshape(n, -1), cols=cols)
                for l in range(m)
                for cols in _panels(draws)
            )
            reports.append(_report(_kernel_block_gram(panels, G), n, R, draws, m))
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
    An overflow on the way is a ConfigError naming --eps when it happens at
    sigma_p diam = 1 too (an eps^2 of 0 among them), else a DataError.
    """
    if not is_positive(eps):
        raise ConfigError(f"eps must be finite and positive, got {eps!r}")
    if not math.isfinite(sigma_p):
        return {"skipped": "infinite spectral second moment (Laplacian sampler)"}
    target = 0.05
    # at a unit sigma_p diam first: an overflow there is --eps's alone
    for scale, refusal in (
        (1.0, ConfigError(f"the pointwise bound overflows at --eps {eps:g} whatever the data; raise --eps")),
        (sigma_p * diam, DataError(f"the pointwise bound overflows at diameter {diam:g}; rescale the data (or drop --no-standardize)")),
    ):
        try:  # a square past the float limit raises, and so do the ceil of inf and a division by an eps**2 of 0
            prefactor = 2.0**8 * (scale / eps) ** 2
            raw = prefactor * math.exp(-draws * eps**2 / (4.0 * (dim + 2)))
            required = 1 if prefactor <= target else math.ceil(4.0 * (dim + 2) / eps**2 * math.log(prefactor / target))
        except (OverflowError, ZeroDivisionError):
            raise refusal from None
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
    if not (is_integer(draws, 1) and is_integer(pairs, 1)):
        raise ConfigError(f"draws and pairs must be positive integers, got {draws!r} and {pairs!r}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or 0 in X.shape:
        raise ConfigError(f"X must be a matrix with at least one row and one column, got shape {X.shape}")
    rng = stream(seed, 41)
    xi, b = sample_frequencies(kernel, draws, X.shape[1], seed)
    i, j = rng.integers(0, X.shape[0], size=(pairs, 2)).T
    phi_i, phi_j = feature_block(X[i], xi, b), feature_block(X[j], xi, b)
    estimate = np.einsum("pk,pk->p", phi_i, phi_j) / draws
    diff = X[i] - X[j]
    squared = np.einsum("pk,pk->p", diff, diff)
    return float(np.abs(estimate - next(kernel_values([kernel], squared))).max())
