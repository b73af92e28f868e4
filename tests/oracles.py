"""Independent reference implementations the tests check the package against.

Everything here is deliberately naive (explicit loops, scalar math,
numpy's default generator rather than the package streams) so that a bug
in the package cannot hide in a shared code path.
"""

import math

import numpy as np


def oracle_kernel(family: str, rho: float, x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if family == "gaussian":
        return math.exp(-sum((a - b) ** 2 for a, b in zip(x, y)) / (2 * rho**2))
    if family == "laplacian":
        return math.exp(-math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y))) / rho)
    raise ValueError(family)


def feature_map(x: np.ndarray, xi: np.ndarray, b: float) -> float:
    """Single random feature sqrt(2) * cos(<x, xi> + b)."""
    return math.sqrt(2.0) * math.cos(float(np.dot(x, xi)) + b)


def naive_gram(family: str, rho: float, X) -> np.ndarray:
    n = len(X)
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            K[i, j] = oracle_kernel(family, rho, X[i], X[j])
    return K


def naive_mmd_biased_squared(family: str, rho: float, pos, neg) -> float:
    n_plus, n_minus = len(pos), len(neg)
    a = 0.0
    for i in range(n_plus):
        for j in range(n_plus):
            if i != j:
                a += oracle_kernel(family, rho, pos[i], pos[j])
    b = 0.0
    for i in range(n_minus):
        for j in range(n_minus):
            if i != j:
                b += oracle_kernel(family, rho, neg[i], neg[j])
    c = 0.0
    for i in range(n_plus):
        for j in range(n_minus):
            c += oracle_kernel(family, rho, pos[i], neg[j])
    return (
        a / (n_plus * (n_plus - 1))
        + b / (n_minus * (n_minus - 1))
        - 2.0 * c / (n_plus * n_minus)
    )


def naive_mmd_unbiased_squared(family: str, rho: float, pos, neg) -> float:
    n0 = len(pos)
    total = 0.0
    for i in range(n0):
        for j in range(n0):
            if i != j:
                total += (
                    oracle_kernel(family, rho, pos[i], pos[j])
                    + oracle_kernel(family, rho, neg[i], neg[j])
                    - oracle_kernel(family, rho, pos[i], neg[j])
                    - oracle_kernel(family, rho, pos[j], neg[i])
                )
    return total / (n0 * (n0 - 1))


def mc_gaussian_mmd_squared(mu_p, mu_q, sigma2, rho, draws=10**6, seed=123):
    """Monte-Carlo estimate (and its standard error) of the population
    squared MMD between N(mu_p, sigma2 I) and N(mu_q, sigma2 I)."""
    rng = np.random.default_rng(seed)
    mu_p = np.atleast_1d(np.asarray(mu_p, dtype=float))
    mu_q = np.atleast_1d(np.asarray(mu_q, dtype=float))
    d = mu_p.shape[0]
    s = math.sqrt(sigma2)
    xp = rng.normal(size=(draws, d)) * s + mu_p
    xp2 = rng.normal(size=(draws, d)) * s + mu_p
    yq = rng.normal(size=(draws, d)) * s + mu_q
    yq2 = rng.normal(size=(draws, d)) * s + mu_q

    def k(a, b):
        return np.exp(-((a - b) ** 2).sum(axis=1) / (2 * rho**2))

    h = k(xp, xp2) + k(yq, yq2) - k(xp, yq2) - k(xp2, yq)
    return float(h.mean()), float(h.std(ddof=1) / math.sqrt(draws))


def reference_gram_svm(K, y, lam, epochs=3000, step=0.5):
    """Full-batch subgradient descent on the kernel-expansion objective

        (1/n) sum_i hinge(y_i ((K omega)_i + b)) + (lam/2) omega^T K omega

    Returns the averaged iterate (omega, b). Small-n test oracle only.
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    n = K.shape[0]
    omega = np.zeros(n)
    b = 0.0
    om_avg = np.zeros(n)
    b_avg = 0.0
    for t in range(1, epochs + 1):
        f = K @ omega + b
        active = 1.0 - y * f > 0
        g_om = lam * (K @ omega) - K @ (y * active) / n
        g_b = -(y * active).mean()
        eta = step / math.sqrt(t)
        omega = omega - eta * g_om
        b = b - eta * g_b
        om_avg += (omega - om_avg) / t
        b_avg += (b - b_avg) / t
    return om_avg, b_avg


def reference_train(
    Phi,
    y,
    R,
    lam,
    epochs,
    step_size,
    draws,
    batch_size=None,
    rng=None,
):
    """Projected subgradient training as first written, step by step.

    Every step slices its batch out of Phi (full batch included), takes the
    subgradient over the rows with a positive hinge margin, and every epoch
    re-evaluates the objective at the averaged iterate. ``rng`` supplies the
    per-epoch row order in mini-batch mode. Returns (beta_avg, offset,
    objective history).
    """
    Phi = np.asarray(Phi, dtype=float)
    y = np.asarray(y, dtype=float)
    n, total = Phi.shape
    radius = R / math.sqrt(total)
    root = math.sqrt(draws)
    beta = np.zeros(total)
    offset = 0.0
    beta_avg = np.zeros(total)
    offset_avg = 0.0
    steps = 0
    history = []
    for _ in range(epochs):
        if batch_size is None:
            batches = [np.arange(n)]
        else:
            order = rng.permutation(n)
            batches = [order[i : i + batch_size] for i in range(0, n, batch_size)]
        for batch in batches:
            P, yb = Phi[batch], y[batch]
            margins = 1.0 - yb * (P @ beta / root + offset)
            active = margins > 0.0
            g_beta = lam * beta
            g_offset = 0.0
            if active.any():
                ya = yb[active]
                g_beta = g_beta - (P[active].T @ ya) / (len(batch) * root)
                g_offset = -float(ya.sum()) / len(batch)
            steps += 1
            eta = step_size / math.sqrt(steps)
            beta = beta - eta * g_beta
            norm = float(np.linalg.norm(beta))
            if norm > radius:
                beta = beta * (radius / norm)
            offset -= eta * g_offset
            beta_avg += (beta - beta_avg) / steps
            offset_avg += (offset - offset_avg) / steps
        margins = 1.0 - y * (Phi @ beta_avg / root + offset_avg)
        history.append(float(np.maximum(margins, 0.0).mean() + 0.5 * lam * beta_avg @ beta_avg))
    return beta_avg, offset_avg, history


def reference_relaxed_objective(X, y, bank, omega, eps):
    """The relaxed feature-selection objective and gradient as first written.

    One feature block per kernel, centered by the dense n x n matrix
    H = I - 11^T/n, with the gradient chained back block by block.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    omega = np.asarray(omega, dtype=float)
    n = X.shape[0]
    Xm = X * omega
    H = np.eye(n) - np.full((n, n), 1.0 / n)
    thetas, phis = [], []
    for w, xi, b in zip(bank.weights.weights, bank.frequencies, bank.phases):
        theta = Xm @ xi.T + b
        thetas.append(theta)
        phis.append(math.sqrt(2.0 * w) * np.cos(theta))
    V = H @ np.hstack(phis)
    reg = eps * n
    A = V.T @ V + reg * np.eye(V.shape[1])
    u = V.T @ y
    alpha = np.linalg.solve(A, u)
    objective = float((y @ y - u @ alpha) / reg)
    g = (y - V @ alpha) / reg
    dJ_dPhi = H @ (-2.0 * np.outer(g, V.T @ g))
    grad = np.zeros_like(omega)
    col = 0
    for w, xi, theta in zip(bank.weights.weights, bank.frequencies, thetas):
        block = dJ_dPhi[:, col : col + bank.draws]
        S = block * (-math.sqrt(2.0 * w) * np.sin(theta))
        grad += np.sum(X * (S @ xi), axis=0)
        col += bank.draws
    return objective, grad


def svd_complexity_bounds(Phi, R, draws, m) -> dict:
    """The complexity report read from a full SVD of Phi, as first written."""
    from scipy.special import erfc

    singular = np.linalg.svd(np.asarray(Phi, dtype=float), compute_uv=False)
    fro = float(np.sqrt((singular**2).sum()))
    spec = float(singular[0])
    trace_quartic = float((singular**4).sum())
    n = Phi.shape[0]
    pre = R / (n * draws)
    return {
        "n": n,
        "draws": draws,
        "m": m,
        "R": R,
        "frobenius_norm": fro,
        "spectral_norm": spec,
        "trace_quartic": trace_quartic,
        "erfc_bound": pre * math.sqrt(math.pi / 192.0) * spec * float(erfc(math.sqrt(192.0) * fro / spec)),
        "khintchine_bound": (R / (n * draws * math.sqrt(m))) * math.sqrt(23.0 / 44.0) * fro,
        "gaussian_bound": pre * (
            2.0 * math.sqrt(math.pi * trace_quartic) / fro
            + fro / (2.0 * spec**2) * math.exp(-(fro**4) / (4.0 * trace_quartic))
        ),
    }


def eigsh_top_eigenvalue(G) -> float:
    """lambda_max by ARPACK's implicitly restarted Lanczos, as the package first computed it."""
    from scipy.sparse.linalg import eigsh

    from kernelmix.rng import stream

    n = G.shape[0]
    if n == 1:
        return float(G[0, 0])
    v0 = stream(0).uniform(0.5, 1.5, n)
    return float(eigsh(G, k=1, which="LA", v0=v0, tol=0, return_eigenvectors=False)[0])


def _per_seed_probe(X, kernels, weights, draws, seeds, square_norm, reference_of_gram):
    from kernelmix.mmd import MixtureWeights
    from kernelmix.rff import FeatureBank, build_feature_matrix

    X = np.atleast_2d(np.asarray(X, dtype=float))
    weights = np.asarray(weights, dtype=float)
    Kw = sum(w * naive_gram(k.family, k.rho, X) for w, k in zip(weights, kernels))
    reference = draws * reference_of_gram(Kw)
    devs = []
    for seed in seeds:
        bank = FeatureBank.generate(kernels, MixtureWeights(weights), draws, X.shape[1], seed)
        devs.append(abs(square_norm(build_feature_matrix(X, bank)) - reference) / reference)
    return {"reference": reference, "max_deviation": max(devs), "mean_deviation": float(np.mean(devs))}


def oracle_frobenius_concentration(X, kernels, weights, draws, seeds) -> dict:
    """Per-seed ||Phi||_F^2 against D tr(K^w): each Phi built anew, K^w from the naive Gram."""
    return _per_seed_probe(
        X, kernels, weights, draws, seeds, lambda Phi: float((Phi**2).sum()), lambda K: float(np.trace(K))
    )


def oracle_spectral_concentration(X, kernels, weights, draws, seeds) -> dict:
    """Per-seed |||Phi|||_2^2 (from an SVD) against D |||K^w|||_2."""
    return _per_seed_probe(
        X,
        kernels,
        weights,
        draws,
        seeds,
        lambda Phi: float(np.linalg.svd(Phi, compute_uv=False)[0] ** 2),
        lambda K: float(np.linalg.eigvalsh(K)[-1]),
    )


def reference_kfold_split(labels, k: int, seed: int) -> list:
    """Stratified k-fold partition assembled in per-class Python lists. It draws
    from the package stream (seed, class key), because that stream defines
    which rows land in which fold."""
    from kernelmix.rng import stream

    labels = np.asarray(labels)
    all_idx = np.arange(labels.shape[0])
    folds = [[] for _ in range(k)]
    for cls_key, cls in enumerate((1, -1)):
        idx = stream(seed, cls_key).permutation(all_idx[labels == cls])
        for j in range(k):
            folds[j].extend(idx[j::k].tolist())
    out = []
    for j in range(k):
        val = np.array(sorted(folds[j]), dtype=int)
        out.append((np.setdiff1d(all_idx, val), val))
    return out


def reference_holdout_split(labels, fraction: float, seed: int) -> tuple:
    """Stratified (train, test) holdout assembled in a Python list, on the
    package stream (seed, 19, class key) that defines the split."""
    from kernelmix.rng import stream

    labels = np.asarray(labels)
    all_idx = np.arange(labels.shape[0])
    test_idx = []
    for cls_key, cls in enumerate((1, -1)):
        idx = stream(seed, 19, cls_key).permutation(all_idx[labels == cls])
        take = max(1, int(round(fraction * idx.shape[0])))
        test_idx.extend(idx[:take].tolist())
    test_idx = np.array(sorted(test_idx))
    return np.setdiff1d(all_idx, test_idx), test_idx
