"""The four benchmark workloads: inputs, one operation each, and output checks.

Inputs come from this file's own numpy code and the benchmark seed, never
from ``kernelmix.synthetic``, so no change to the program can alter a
workload. Checks use tolerances, not digests: a change that only reorders
floating-point sums still passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time

import numpy as np

from kernelmix import cli
from kernelmix import select as kselect
from kernelmix.data import LabeledDataset
from kernelmix.svm import TrainConfig

#: Criterion 9 of the acceptance suite: MMD selection at least 10x faster
#: than k-fold CV. Checked on every `select` operation; never loosened.
MMD_CV_RATIO_MAX = 0.1


class CheckFailed(Exception):
    """An operation returned an error code or an output outside tolerance."""


def two_gaussians(rng, n_pos, n_neg, dim, shift):
    """Rows of N(+shift*1, I) and N(-shift*1, I) in shuffled order, labels +/-1."""
    X = np.vstack(
        [rng.standard_normal((n_pos, dim)) + shift, rng.standard_normal((n_neg, dim)) - shift]
    )
    y = np.concatenate([np.ones(n_pos, dtype=int), -np.ones(n_neg, dtype=int)])
    order = rng.permutation(n_pos + n_neg)
    return X[order], y[order]


def write_csv(path, X, y):
    header = ",".join([f"x{j}" for j in range(X.shape[1])] + ["label"])
    np.savetxt(path, np.column_stack([X, y]), delimiter=",", header=header, comments="", fmt="%.17g")


def standardized(X):
    """Column standardization with the population std, as the CLI applies it."""
    return (X - X.mean(axis=0)) / X.std(axis=0)


def gamma_list(gammas):
    return ",".join(repr(float(g)) for g in gammas)


def call_cli(argv):
    """Run the CLI in-process; raise CheckFailed on a non-zero exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise CheckFailed(f"kernelmix {argv[0]} exited {rc}: {err.getvalue().strip()}")


def dir_bytes(path):
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


class Workload:
    """One set of inputs and the operation the closed loop repeats.

    ``setup`` makes the inputs (and may run several times); ``op`` is the
    timed operation and returns its raw outputs; ``check`` validates them
    outside the timed region and returns the operation's metrics;
    ``finish`` runs checks that need all operations' outputs.
    """

    name = ""
    input_rows = 0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def path(self, name):
        return os.path.join(self.workdir, name)

    def finish(self):
        pass


class Fit(Workload):
    name = "fit"
    why = (
        "train then predict via the CLI; two Gaussians, n=4000+4000 held out, d=10, "
        "m=8 Gaussian kernels, D=512 (Phi 4000x4096), 30 full-batch epochs; svm-heavy"
    )
    n, dim = 4000, 10
    input_rows = 2 * n
    gammas = np.geomspace(1e-3, 10.0, 8)

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        shift = 1.2 / math.sqrt(self.dim)
        X, y = two_gaussians(rng, self.n // 2, self.n // 2, self.dim, shift)
        self.X_test, self.y_test = two_gaussians(rng, self.n // 2, self.n // 2, self.dim, shift)
        write_csv(self.path("train.csv"), X, y)
        write_csv(self.path("test.csv"), self.X_test, self.y_test)
        # Bayes rule for these means: sign of the projection on the all-ones direction
        bayes = np.where(self.X_test.sum(axis=1) >= 0, 1, -1)
        self.bayes_accuracy = float((bayes == self.y_test).mean())

    def op(self):
        out = self.path("fit-out")
        os.makedirs(out, exist_ok=True)
        model = os.path.join(out, "model.json")
        t0 = time.perf_counter()
        call_cli(
            ["train", "--data", self.path("train.csv"), "--gammas", gamma_list(self.gammas),
             "--draws", "512", "--R", "30", "--lam", "0.01", "--epochs", "30",
             "--seed", str(self.seed), "--out", model]
        )
        t1 = time.perf_counter()
        call_cli(
            ["predict", "--model", model, "--data", self.path("test.csv"),
             "--out", os.path.join(out, "pred.csv")]
        )
        t2 = time.perf_counter()
        return {"train_s": t1 - t0, "predict_s": t2 - t1, "out": out}

    def check(self, result):
        pred = np.loadtxt(os.path.join(result["out"], "pred.csv"), delimiter=",", skiprows=1, ndmin=2)
        require(pred.shape == (self.n, 4), f"prediction table has shape {pred.shape}, want ({self.n}, 4)")
        require(np.isfinite(pred[:, 1]).all(), "non-finite decision values")
        require(np.isin(pred[:, 3], (-1, 1)).all(), "labels outside {-1, +1}")
        accuracy = float((pred[:, 3] == self.y_test).mean())
        # the RFF model may trail the Bayes rule on the same rows, never by much
        require(
            self.bayes_accuracy - 0.04 <= accuracy <= self.bayes_accuracy + 0.02,
            f"test accuracy {accuracy:.4f} vs Bayes {self.bayes_accuracy:.4f}",
        )
        return {
            "train_s": result["train_s"],
            "predict_s": result["predict_s"],
            "test_accuracy": accuracy,
            "output_bytes": dir_bytes(result["out"]),
        }


class Score(Workload):
    name = "score"
    why = (
        "score via the CLI; unbalanced n+=3000, n-=1800, d=20, shift 0.2, 8 alternating "
        "gaussian/laplacian kernels; kernels+mmd only, biased estimator, Euclidean cdist"
    )
    n_pos, n_neg, dim = 3000, 1800, 20
    input_rows = n_pos + n_neg
    gammas = np.geomspace(1e-3, 10.0, 8)
    families = ("gaussian", "laplacian") * 4
    rtol = 1e-7

    def setup(self):
        rng = np.random.default_rng([self.seed, 2])
        self.X, self.y = two_gaussians(rng, self.n_pos, self.n_neg, self.dim, 0.2)
        write_csv(self.path("score.csv"), self.X, self.y)
        self.squared_seen = []

    def op(self):
        out = self.path("score-out")
        os.makedirs(out, exist_ok=True)
        t0 = time.perf_counter()
        call_cli(
            ["score", "--data", self.path("score.csv"), "--families", ",".join(self.families),
             "--gammas", gamma_list(self.gammas), "--seed", str(self.seed),
             "--out", os.path.join(out, "scores")]
        )
        return {"score_s": time.perf_counter() - t0, "out": out}

    def check(self, result):
        with open(os.path.join(result["out"], "scores.json")) as fh:
            payload = json.load(fh)
        rows = payload["kernels"]
        require(len(rows) == len(self.gammas), f"{len(rows)} kernel rows, want {len(self.gammas)}")
        require(payload["degenerate"] is False, "degenerate weights")
        require((payload["n_plus"], payload["n_minus"]) == (self.n_pos, self.n_neg), "class sizes")
        weights = np.array([r["weight"] for r in rows])
        require((weights >= 0).all() and abs(weights.sum() - 1.0) <= 1e-9, f"weights off the simplex: {weights}")
        require(all(r["estimator"] == "biased" for r in rows), "estimator is not 'biased'")
        self.squared_seen.append([r["squared"] for r in rows])
        return {"score_s": result["score_s"], "output_bytes": dir_bytes(result["out"])}

    def finish(self):
        """Compare every operation's squared MMDs with this file's own estimator."""
        Z = standardized(self.X)
        pos, neg = Z[self.y == 1], Z[self.y == -1]

        def sqdist(A, B):
            D = (A * A).sum(1)[:, None] + (B * B).sum(1)[None, :] - 2.0 * A @ B.T
            return np.maximum(D, 0.0)

        pairs = [sqdist(pos, pos), sqdist(neg, neg), sqdist(pos, neg)]
        for D in pairs[:2]:
            np.fill_diagonal(D, 0.0)
        reference = []
        for family, gamma in zip(self.families, self.gammas):
            rho = math.sqrt(1.0 / (2.0 * gamma))
            if family == "laplacian":
                sums = [np.exp(-np.sqrt(D) / rho).sum() for D in pairs]
            else:
                sums = [np.exp(-gamma * D).sum() for D in pairs]
            p, q = len(pos), len(neg)
            reference.append(
                (sums[0] - p) / (p * (p - 1)) + (sums[1] - q) / (q * (q - 1)) - 2.0 * sums[2] / (p * q)
            )
        reference = np.array(reference)
        for seen in self.squared_seen:
            seen = np.array(seen)
            require(
                np.allclose(seen, reference, rtol=self.rtol, atol=0.0),
                f"squared MMDs {seen} differ from reference {reference}",
            )


class Select(Workload):
    name = "select"
    why = (
        "library compare_selection: two Gaussians n=1200, d=5, standardized, 9-point grid "
        "1e-4..1e4, 5 folds, D=256, 40 epochs; 48 small SVM fits vs one MMD pass"
    )
    n, dim = 1200, 5
    input_rows = n
    gammas = np.array([10.0**e for e in range(-4, 5)])
    accuracy_floor = 0.75

    def setup(self):
        rng = np.random.default_rng([self.seed, 3])
        X, y = two_gaussians(rng, self.n // 2, self.n // 2, self.dim, 1.2 / math.sqrt(self.dim))
        self.ds = LabeledDataset(standardized(X), y)
        self.cfg = TrainConfig(R=30.0, lam=0.01, epochs=40, step_size=0.5, seed=self.seed)

    def op(self):
        t0 = time.perf_counter()
        report = kselect.compare_selection(self.ds, self.gammas, 5, self.cfg, 256, self.seed)
        return {"select_s": time.perf_counter() - t0, "report": report}

    def check(self, result):
        report = result["report"]
        ratio = report.mmd_seconds / report.cv_seconds
        require(ratio <= MMD_CV_RATIO_MAX, f"criterion 9: mmd/cv time ratio {ratio:.4f} > {MMD_CV_RATIO_MAX}")
        require(not report.degenerate, "degenerate MMD scores")
        accuracies = report.test_accuracy
        # The CV pick's final model is refit on a fresh bank and can land far
        # below its CV mean at small gamma (seed 17: gamma 1e-3, CV mean 0.89,
        # test 0.61), so it only has to be a fraction.
        require(
            0.0 <= accuracies["cv"] <= 1.0
            and all(self.accuracy_floor <= accuracies[k] <= 1.0 for k in ("mmd", "mixture")),
            f"test accuracies out of range: {accuracies}",
        )
        return {
            "select_s": result["select_s"],
            "cv_select_s": report.cv_seconds,
            "mmd_select_s": report.mmd_seconds,
            "test_accuracy": accuracies["mixture"],
            "output_bytes": 0,
        }


class Diagnose(Workload):
    name = "diagnose"
    why = (
        "diagnose via the CLI; two Gaussians n=800, d=5, gammas 0.05/0.5/5, draw sweep "
        "512,2048, 3 trials; the only workload running the SVD, eigensolves, mixture Gram"
    )
    n, dim = 800, 5
    input_rows = n

    def setup(self):
        rng = np.random.default_rng([self.seed, 4])
        X, y = two_gaussians(rng, self.n // 2, self.n // 2, self.dim, 1.2 / math.sqrt(self.dim))
        write_csv(self.path("diagnose.csv"), X, y)

    def op(self):
        out = self.path("diagnose-out")
        os.makedirs(out, exist_ok=True)
        t0 = time.perf_counter()
        call_cli(
            ["diagnose", "--data", self.path("diagnose.csv"), "--gammas", "0.05,0.5,5",
             "--draw-sweep", "512,2048", "--trials", "3", "--seed", str(self.seed),
             "--out", os.path.join(out, "diag")]
        )
        return {"diagnose_s": time.perf_counter() - t0, "out": out}

    def check(self, result):
        with open(os.path.join(result["out"], "diag.json")) as fh:
            payload = json.load(fh)
        require(payload["ordering_violation"] is False, "bound ordering violated")
        rows = payload["concentration"]
        require(len(rows) == 2, f"{len(rows)} concentration rows, want 2")
        deviations = [v for row in rows for k, v in row.items() if k.endswith("_deviation")]
        require(len(deviations) == 8 and all(math.isfinite(v) for v in deviations), f"deviations {deviations}")
        require(math.isfinite(payload["empirical_sup_error"]), "non-finite empirical sup error")
        return {"diagnose_s": result["diagnose_s"], "output_bytes": dir_bytes(result["out"])}


WORKLOADS = {w.name: w for w in (Fit, Score, Select, Diagnose)}
