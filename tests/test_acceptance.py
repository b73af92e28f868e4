"""End-to-end acceptance suite: one test per shipped criterion.

Each test prints a `[criterion N] ... PASS` line with the measured
quantities (visible under `pytest -s`); the asserts carry the same numbers,
so a red test names the criterion that failed and by how much.
"""

import math
import time

import numpy as np

from kernelmix import cli
from kernelmix.data import standardize
from kernelmix.diagnostics import complexity_bounds, empirical_sup_error, probe_pass
from kernelmix.kernels import FAMILIES, BaseKernel, kernel_matrix
from kernelmix.mmd import (
    MixtureWeights,
    gaussian_mmd_closed_form,
    gaussian_mmd_squared_closed_form,
    mixing_weights,
    mmd_convergence_probe,
    mmd_score,
)
from kernelmix.rff import FeatureBank, build_feature_matrix, feature_block, sample_frequencies
from kernelmix.rng import stream
from kernelmix.select import compare_selection, kernel_feature_select, relaxed_objective
from kernelmix.svm import TrainConfig, hinge_objective, hinge_subgradient, train
from kernelmix.synthetic import planted_feature_dataset, two_gaussian_dataset
from oracles import (
    mc_gaussian_mmd_squared,
    naive_mmd_biased_squared,
    naive_mmd_unbiased_squared,
    reference_gram_svm,
)


def test_criterion_01_mmd_oracle_equivalence():
    """Both estimators match the naive double-loop oracle to 1e-12."""
    t0 = time.perf_counter()
    rng = stream(1001)
    worst = 0.0
    for i in range(50):
        family = FAMILIES[i % len(FAMILIES)]
        rho = float(rng.uniform(0.4, 2.5))
        kernel = BaseKernel(family, rho)
        n_plus = int(rng.integers(2, 31))
        n_minus = int(rng.integers(2, 31))
        d = int(rng.integers(1, 5))
        pos = rng.normal(size=(n_plus, d))
        neg = rng.normal(size=(n_minus, d)) + rng.normal()
        got = mmd_score(kernel, pos, neg, estimator="biased").squared
        want = naive_mmd_biased_squared(family, rho, pos, neg)
        worst = max(worst, abs(got - want))
        n0 = min(n_plus, n_minus)
        got_u = mmd_score(kernel, pos[:n0], neg[:n0], estimator="unbiased_balanced").squared
        want_u = naive_mmd_unbiased_squared(family, rho, pos[:n0], neg[:n0])
        worst = max(worst, abs(got_u - want_u))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 5.0
    print(f"[criterion 1] oracle equivalence: worst |diff|={worst:.2e}, {elapsed:.2f}s PASS")


def test_criterion_02_convergence_rate():
    """Log-log error slope against the population MMD lies in [-0.7, -0.3]."""
    t0 = time.perf_counter()
    kernel = BaseKernel("gaussian", 1.0)
    shift = np.array([1.0, 0.0])
    population = gaussian_mmd_closed_form(np.zeros(2), shift, 1.0, 1.0)
    probe = mmd_convergence_probe(
        lambda rng, n: rng.normal(size=(n, 2)),
        lambda rng, n: rng.normal(size=(n, 2)) + shift,
        kernel,
        population,
        n_grid=[50, 100, 200, 400, 800, 1600, 3200],
        trials=20,
        seed=7,
    )
    elapsed = time.perf_counter() - t0
    assert -0.7 <= probe["slope"] <= -0.3
    assert elapsed < 60.0
    print(f"[criterion 2] convergence rate: slope={probe['slope']:.3f}, {elapsed:.1f}s PASS")


CLOSED_FORM_SETTINGS = [
    # (mu_p, mu_q, sigma2, rho)
    ([0.0], [1.0], 1.0, 1.0),
    ([0.0, 0.0], [1.0, 0.0], 1.0, 1.0),
    ([0.0, 0.0, 0.0], [0.4, 0.4, 0.4], 0.5, 2.0),
    ([0.0], [0.5], 2.0, 0.8),
]


def test_criterion_03_closed_form_vs_monte_carlo():
    """Frozen closed form matches a 10^6-draw Monte-Carlo oracle within 3 SE,
    plus the exact sigma=0 Dirac limit."""
    worst_sigmas = 0.0
    for idx, (mu_p, mu_q, sigma2, rho) in enumerate(CLOSED_FORM_SETTINGS):
        mc, se = mc_gaussian_mmd_squared(mu_p, mu_q, sigma2, rho, draws=10**6, seed=500 + idx)
        closed = gaussian_mmd_squared_closed_form(mu_p, mu_q, sigma2, rho)
        pulls = abs(closed - mc) / se
        worst_sigmas = max(worst_sigmas, pulls)
        assert pulls <= 3.0, (mu_p, mu_q, sigma2, rho, closed, mc, se)
    mu_p, mu_q, rho = np.array([0.0, 0.0]), np.array([1.0, 2.0]), 1.3
    dirac = 2.0 - 2.0 * math.exp(-float(np.dot(mu_p - mu_q, mu_p - mu_q)) / (2.0 * rho**2))
    got = gaussian_mmd_squared_closed_form(mu_p, mu_q, 0.0, rho)
    assert abs(got - dirac) <= 1e-10
    print(
        f"[criterion 3] closed form vs Monte Carlo: worst {worst_sigmas:.2f} SE over "
        f"{len(CLOSED_FORM_SETTINGS) + 1} settings (Dirac limit exact) PASS"
    )


def test_criterion_04_rff_fidelity():
    """Sup error over 100 pairs at D=2048 is <= 0.05 in >= 95 of 100 seeds."""
    t0 = time.perf_counter()
    kernel = BaseKernel("gaussian", 1.0)
    passes = 0
    for seed in range(100):
        X = stream(900 + seed).uniform(0.0, 1.0, size=(50, 1))
        err = empirical_sup_error(kernel, 2048, X, pairs=100, seed=seed)
        passes += err <= 0.05
    elapsed = time.perf_counter() - t0
    assert passes >= 95
    assert elapsed < 30.0
    print(f"[criterion 4] RFF fidelity: {passes}/100 seeds within 0.05, {elapsed:.1f}s PASS")


def test_criterion_04b_laplacian_rff_fidelity():
    """The Laplacian bank's features estimate the Euclidean Laplacian that MMD
    scores: max |Phi Phi^T / D - K| <= 0.05 over 200 rows at d = 5 and d = 20."""
    draws = 20_000
    worst = {}
    for dim in (5, 20):
        kernel = BaseKernel.from_gamma("laplacian", 0.5 / dim)
        X = stream(1014, dim).normal(size=(200, dim))
        xi, b = sample_frequencies(kernel, draws, dim, seed=dim)
        Phi = feature_block(X, xi, b)
        worst[dim] = float(np.abs(Phi @ Phi.T / draws - kernel_matrix(kernel, X)).max())
        assert worst[dim] <= 0.05, (dim, worst[dim])
    print(
        f"[criterion 4b] Laplacian RFF fidelity at D={draws}: max error "
        f"{worst[5]:.4f} (d=5), {worst[20]:.4f} (d=20) <= 0.05 PASS"
    )


def test_criterion_05_frobenius_concentration():
    """Relative Frobenius deviation <= 0.05 at D=4096 and shrinking in D."""
    X = stream(1005).normal(size=(100, 3))
    kernel = BaseKernel("gaussian", 1.0)
    seeds = list(range(10))
    rows = probe_pass(X, [kernel], [1.0], [1024, 4096, 16384], seeds, R=1.0)
    at_1024, at_4096, at_16384 = (row for _report, row in rows)
    assert at_4096["frobenius_max_deviation"] <= 0.05
    assert at_16384["frobenius_mean_deviation"] < at_1024["frobenius_mean_deviation"]
    print(
        f"[criterion 5] Frobenius concentration: max@4096={at_4096['frobenius_max_deviation']:.4f}, "
        f"mean@1024={at_1024['frobenius_mean_deviation']:.4f} > "
        f"mean@16384={at_16384['frobenius_mean_deviation']:.4f} PASS"
    )


def test_criterion_06_bound_ordering():
    """Derivation-faithful erfc bound <= Khintchine bound on 100 random matrices."""
    violations = 0
    for seed in range(100):
        Phi = stream(1006, seed).normal(size=(50, 32))
        report = complexity_bounds(Phi, R=2.0, draws=16, m=2)
        violations += report.erfc_bound > report.khintchine_bound
    assert violations == 0
    print("[criterion 6] bound ordering: 0 violations on 100 matrices PASS")


def test_criterion_07_simplex_invariants():
    """Mixing weights form an exact simplex on 1000 instances incl. degenerate."""
    rng = stream(1007)
    checked = 0
    for i in range(1000):
        m = int(rng.integers(1, 5))
        kernels = [BaseKernel("gaussian", float(r)) for r in rng.uniform(0.3, 3.0, size=m)]
        n = int(rng.integers(2, 8))
        pos = rng.normal(size=(n, 2))
        if i % 10 == 0:
            neg = pos.copy()  # degenerate: all scores zero, uniform fallback
        else:
            neg = rng.normal(size=(n, 2)) + rng.normal()
        weights = mixing_weights(kernels, pos, neg)
        assert abs(weights.weights.sum() - 1.0) <= 1e-12
        assert (weights.weights >= 0.0).all()
        if i % 10 == 0:
            assert weights.degenerate
            assert np.allclose(weights.weights, 1.0 / m)
        checked += 1
    assert checked == 1000
    print("[criterion 7] simplex invariants: 1000/1000 instances PASS")


def test_criterion_08a_ball_feasibility():
    rng = stream(1008)
    Phi = rng.normal(size=(80, 16))
    y = np.where(rng.uniform(size=80) < 0.5, 1.0, -1.0)
    y[:2] = [1.0, -1.0]
    cfg = TrainConfig(R=1.0, lam=0.01, epochs=30, batch_size=16, step_size=2.0)
    model = train(Phi, y, cfg)
    radius = cfg.R / math.sqrt(16)
    worst = model.meta["max_post_step_norm"]
    assert worst <= radius + 1e-9
    print(f"[criterion 8a] ball feasibility: max ||beta||={worst:.6f} <= {radius:.6f}+1e-9 PASS")


def test_criterion_08b_subgradient_finite_differences():
    rng = stream(1009)
    Phi = rng.normal(size=(40, 6))
    y = np.where(rng.uniform(size=40) < 0.5, 1.0, -1.0)
    lam, draws = 0.3, 6
    checked, trials, worst = 0, 0, 0.0
    while checked < 100 and trials < 10_000:
        trials += 1
        beta = rng.normal(size=6) * 0.3
        b0 = float(rng.normal() * 0.3)
        margins = 1.0 - y * (Phi @ beta / math.sqrt(draws) + b0)
        if np.abs(margins).min() < 1e-3:
            continue
        g_beta, g_b0 = hinge_subgradient(Phi, y, beta, b0, lam, draws)
        h = 1e-6
        fd = np.zeros(7)
        for k in range(6):
            e = np.zeros(6)
            e[k] = h
            fd[k] = (
                hinge_objective(Phi, y, beta + e, b0, lam, draws)
                - hinge_objective(Phi, y, beta - e, b0, lam, draws)
            ) / (2 * h)
        fd[6] = (
            hinge_objective(Phi, y, beta, b0 + h, lam, draws)
            - hinge_objective(Phi, y, beta, b0 - h, lam, draws)
        ) / (2 * h)
        full = np.concatenate([g_beta, [g_b0]])
        rel = np.linalg.norm(full - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
        checked += 1
    assert checked == 100
    assert worst <= 1e-5
    print(f"[criterion 8b] subgradient vs FD: worst rel err {worst:.2e} at 100 points PASS")


def test_criterion_08c_separable_training():
    rng = stream(1010)
    x = np.concatenate([rng.uniform(0.5, 1.5, 30), rng.uniform(-1.5, -0.5, 30)])
    Phi, y = x[:, None], np.sign(x)
    model = train(Phi, y, TrainConfig(R=10.0, lam=0.0, epochs=50, step_size=0.5))
    dv = Phi @ model.beta + model.offset
    accuracy = float((np.where(dv >= 0, 1, -1) == y).mean())
    assert accuracy == 1.0
    print("[criterion 8c] separable training accuracy 1.0 within 50 epochs PASS")


def test_criterion_08d_rff_vs_gram_reference():
    """RFF-trained accuracy within 0.03 of the exact-Gram reference SVM."""

    def balanced(n, seed):
        rng = stream(seed, 77)
        half = n // 2
        mu = (1.2 / math.sqrt(5)) * np.ones(5)
        X = np.vstack([rng.normal(size=(half, 5)) + mu, rng.normal(size=(half, 5)) - mu])
        y = np.concatenate([np.ones(half), -np.ones(half)])
        return X, y

    lam, gamma, draws = 0.01, 0.1, 8192
    kernel = BaseKernel.from_gamma("gaussian", gamma)
    worst = 0.0
    for seed in (0, 1):
        Xtr, ytr = balanced(100, seed)
        Xte, yte = balanced(400, seed + 50)
        K = kernel_matrix(kernel, Xtr)
        om, b = reference_gram_svm(K, ytr, lam=lam, epochs=3000, step=0.5)
        ref = float((np.where(kernel_matrix(kernel, Xte, Xtr) @ om + b >= 0, 1, -1) == yte).mean())
        bank = FeatureBank.generate([kernel], MixtureWeights(np.array([1.0])), draws, 5, seed + 100)
        model = train(
            build_feature_matrix(Xtr, bank),
            ytr,
            TrainConfig(R=200.0, lam=lam, epochs=400, step_size=1.0),
            bank=bank,
        )
        dv = build_feature_matrix(Xte, bank) @ model.beta / math.sqrt(draws) + model.offset
        rff = float((np.where(dv >= 0, 1, -1) == yte).mean())
        worst = max(worst, abs(ref - rff))
        assert abs(ref - rff) <= 0.03, (seed, ref, rff)
    print(f"[criterion 8d] RFF vs exact-Gram reference: worst |acc diff|={worst:.4f} <= 0.03 PASS")


def test_criterion_09_selection_harness():
    """MMD vs CV bandwidth agreement, mixture accuracy, and wall-clock ratio."""
    t0 = time.perf_counter()
    gammas = np.array([10.0**e for e in range(-4, 5)])
    cfg = TrainConfig(R=30.0, lam=0.01, epochs=40, step_size=0.5)
    reports = []
    for seed in range(10):
        ds = two_gaussian_dataset(n=400, dim=5, separation=1.2, seed=seed)
        ds = standardize(ds)[0]
        reports.append(compare_selection(ds, gammas, folds=5, cfg=cfg, draws=256, seed=seed))
    agreements = sum(r.agreement for r in reports)
    assert agreements >= 8
    mixture = np.array([r.test_accuracy["mixture"] for r in reports])
    best_single = np.array(
        [max(r.test_accuracy["cv"], r.test_accuracy["mmd"]) for r in reports]
    )
    assert mixture.mean() >= best_single.mean() - 0.02
    clock_ratios = [r.mmd_seconds / r.cv_seconds for r in reports]
    assert max(clock_ratios) <= 0.1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        f"[criterion 9] selection: agreement {agreements}/10, mixture mean "
        f"{mixture.mean():.3f} vs best single {best_single.mean():.3f}-0.02, "
        f"worst clock ratio {max(clock_ratios):.3f}, {elapsed:.0f}s PASS"
    )


def test_criterion_10_feature_selection():
    """Planted feature recovered in >= 9/10 seeds; gradient matches FD to 1e-4."""
    kernel = BaseKernel.from_gamma("gaussian", 0.5)
    hits = 0
    for seed in range(10):
        ds, planted = planted_feature_dataset(n=120, dim=8, seed=seed)
        bank = FeatureBank.generate([kernel], MixtureWeights(np.array([1.0])), 128, 8, seed + 200)
        mask = kernel_feature_select(ds.features, ds.labels.astype(float), bank, m_sel=3, steps=120)
        hits += bool(mask.mask[planted])
    assert hits >= 9

    ds, _planted = planted_feature_dataset(n=60, dim=6, seed=0)
    bank = FeatureBank.generate([kernel], MixtureWeights(np.array([1.0])), 64, 6, 5)
    y = ds.labels.astype(float)
    rng = stream(1011)
    eps = 0.001 / 60
    worst = 0.0
    for _ in range(20):
        omega = rng.uniform(0.2, 0.8, size=6)
        _obj, grad = relaxed_objective(ds.features, y, bank, omega, eps)
        fd = np.zeros(6)
        h = 1e-6
        for k in range(6):
            e = np.zeros(6)
            e[k] = h
            op, _ = relaxed_objective(ds.features, y, bank, omega + e, eps)
            om, _ = relaxed_objective(ds.features, y, bank, omega - e, eps)
            fd[k] = (op - om) / (2 * h)
        worst = max(worst, np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12))
    assert worst <= 1e-4
    print(
        f"[criterion 10] feature selection: planted recovered {hits}/10, "
        f"gradient worst rel err {worst:.2e} PASS"
    )


def _write_benchmark_csv(path, n=40, seed=0):
    rng = stream(seed, 99)
    half = n // 2
    pos = rng.normal(size=(half, 2)) + 1.5
    neg = rng.normal(size=(n - half, 2)) - 1.5
    lines = ["f1,f2,label"]
    for row in pos:
        lines.append(f"{row[0]},{row[1]},1")
    for row in neg:
        lines.append(f"{row[0]},{row[1]},-1")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_criterion_11_cli_determinism(tmp_path):
    """Every command re-run with the same inputs and seed writes identical bytes."""
    data = _write_benchmark_csv(tmp_path / "d.csv")
    model = str(tmp_path / "model.json")
    commands = {
        "score": ["score", "--data", data, "--gammas", "0.1,1.0", "--seed", "5",
                  "--out", str(tmp_path / "scores")],
        "train": ["train", "--data", data, "--gammas", "0.5", "--draws", "64",
                  "--R", "20", "--lam", "0.01", "--epochs", "40", "--seed", "5",
                  "--out", model],
        "predict": ["predict", "--model", model, "--data", data,
                    "--out", str(tmp_path / "pred.csv")],
        "select": ["select", "--data", data, "--gammas", "0.1,1.0", "--folds", "3",
                   "--draws", "32", "--epochs", "10", "--seed", "5",
                   "--out", str(tmp_path / "sel")],
        "diagnose": ["diagnose", "--data", data, "--gammas", "0.5", "--draws", "64",
                     "--trials", "2", "--pairs", "5", "--seed", "5",
                     "--out", str(tmp_path / "diag")],
    }
    outputs = {
        "score": ["scores.json", "scores.csv"],
        "train": ["model.json", "model.json.log.json"],
        "predict": ["pred.csv"],
        "select": ["sel.json", "sel.csv"],
        "diagnose": ["diag.json", "diag.complexity.csv", "diag.concentration.csv"],
    }
    for name, argv in commands.items():
        assert cli.main(argv) == 0, name
    first = {
        name: [(tmp_path / f).read_bytes() for f in files]
        for name, files in outputs.items()
    }
    for name, argv in commands.items():
        assert cli.main(argv) == 0, name
    for name, files in outputs.items():
        again = [(tmp_path / f).read_bytes() for f in files]
        assert again == first[name], f"{name} outputs changed between identical runs"
    print("[criterion 11] CLI determinism: 5 commands, byte-identical reruns PASS")
