import math

import numpy as np
import pytest
from scipy.special import erfc

from kernelmix.diagnostics import (
    complexity_bounds,
    empirical_sup_error,
    frobenius_concentration,
    pointwise_error_bound,
    spectral_concentration,
)
from kernelmix.errors import ConfigError
from kernelmix.kernels import FAMILIES, BaseKernel
from kernelmix.mmd import MixtureWeights
from kernelmix.rff import sample_frequencies, spectral_second_moment
from kernelmix.rng import stream
from oracles import feature_map, oracle_kernel

GAUSS1 = BaseKernel("gaussian", 1.0)


def sigma_p(kernel, dim):
    """sqrt of the spectral second moment, as the diagnose command computes it."""
    return math.sqrt(spectral_second_moment(kernel, dim))


class TestComplexityBounds:
    def test_scalar_matrix(self):
        Phi = np.array([[math.sqrt(2.0)]])
        report = complexity_bounds(Phi, R=1.0, draws=1, m=1)
        fro = spec = math.sqrt(2.0)
        assert report.frobenius_norm == pytest.approx(fro)
        assert report.spectral_norm == pytest.approx(spec)
        assert report.khintchine_bound == pytest.approx(math.sqrt(23.0 / 44.0) * fro)
        want_erfc = math.sqrt(math.pi / 192.0) * spec * erfc(math.sqrt(192.0))
        assert report.erfc_bound == pytest.approx(want_erfc)
        assert report.erfc_bound <= report.khintchine_bound
        assert report.gaussian_bound == pytest.approx(
            2.0 * math.sqrt(math.pi * 4.0) / fro + fro / (2.0 * spec**2) * math.exp(-(fro**4) / 16.0)
        )

    def test_khintchine_scales_linearly(self):
        Phi = stream(100).normal(size=(10, 6))
        a = complexity_bounds(Phi, R=2.0, draws=6, m=1)
        b = complexity_bounds(3.0 * Phi, R=2.0, draws=6, m=1)
        assert b.khintchine_bound == pytest.approx(3.0 * a.khintchine_bound)

    def test_ordering_on_random_matrices(self):
        for seed in range(25):
            Phi = stream(101, seed).normal(size=(12, 8))
            report = complexity_bounds(Phi, R=1.5, draws=4, m=2)
            assert report.erfc_bound <= report.khintchine_bound
            assert report.erfc_bound >= 0.0
            assert report.gaussian_bound >= 0.0
            assert np.isfinite(report.gaussian_bound)

    def test_trace_quartic_identity(self):
        Phi = stream(102).normal(size=(9, 5))
        report = complexity_bounds(Phi, R=1.0, draws=5, m=1)
        gram = Phi @ Phi.T
        want = np.linalg.norm(gram) ** 2  # Tr((PhiPhi^T)^2) = ||PhiPhi^T||_F^2
        assert report.trace_quartic == pytest.approx(want, rel=1e-10)

    def test_spectral_norm_identity(self):
        Phi = stream(103).normal(size=(7, 4))
        report = complexity_bounds(Phi, R=1.0, draws=4, m=1)
        gram_spec = np.linalg.eigvalsh(Phi @ Phi.T)[-1]
        assert report.spectral_norm**2 == pytest.approx(gram_spec, rel=1e-10)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ConfigError):
            complexity_bounds(np.zeros((3, 3)), R=1.0, draws=3, m=1)


class TestConcentration:
    def test_trace_reference_is_n_for_unit_diagonal(self):
        X = stream(104).normal(size=(12, 3))
        kernels = [GAUSS1, BaseKernel("gaussian", 2.0)]
        w = MixtureWeights(np.array([0.25, 0.75]))
        report = frobenius_concentration(X, kernels, w, draws=16, seeds=[0, 1])
        assert report["trace_reference"] == pytest.approx(16 * 12)

    def test_frobenius_deviation_small_at_large_draws(self):
        X = stream(105).normal(size=(30, 2))
        report = frobenius_concentration(X, [GAUSS1], [1.0], draws=4096, seeds=[0, 1, 2])
        assert report["max_deviation"] <= 0.05

    def test_single_draw_runs_without_assertion(self):
        X = stream(106).normal(size=(10, 2))
        report = frobenius_concentration(X, [GAUSS1], [1.0], draws=1, seeds=[0, 1])
        assert len(report["rows"]) == 2  # deviations are large here; report only

    def test_spectral_one_hot_matches_single_kernel(self):
        X = stream(107).normal(size=(15, 2))
        kernels = [GAUSS1, BaseKernel("gaussian", 3.0)]
        one_hot = spectral_concentration(X, kernels, [1.0, 0.0], draws=256, seeds=[3])
        single = spectral_concentration(X, [GAUSS1], [1.0], draws=256, seeds=[3])
        assert one_hot["spectral_reference"] == pytest.approx(single["spectral_reference"])

    def test_spectral_size_guard(self):
        with pytest.raises(ConfigError):
            spectral_concentration(np.zeros((2001, 2)), [GAUSS1], [1.0], draws=4, seeds=[0])


class TestPointwiseBound:
    def test_monotone_in_draws(self):
        values = [
            pointwise_error_bound(0.2, D, 4, sigma_p(GAUSS1, 4), 2.0)["raw_bound"]
            for D in (10, 100, 1000, 10000)
        ]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_vanishes_for_large_eps(self):
        assert pointwise_error_bound(1e6, 100, 2, 1.0, 2.0)["bound"] <= 1e-12

    def test_vacuous_example_reports_required_draws(self):
        report = pointwise_error_bound(0.1, 10**4, 2, 1.0, 2.0)
        raw = 2.0**8 * (1.0 * 2.0 / 0.1) ** 2 * math.exp(-10**4 * 0.1**2 / (4 * 4))
        assert report["raw_bound"] == pytest.approx(raw)
        assert raw == pytest.approx(197.678, abs=0.01)
        assert report["bound"] == 1.0 and report["vacuous"]
        better = pointwise_error_bound(0.1, report["required_draws"], 2, 1.0, 2.0)
        assert better["raw_bound"] <= 0.05 * (1 + 1e-9)

    def test_refuses_cauchy_sampler(self):
        with pytest.raises(ConfigError):
            pointwise_error_bound(0.1, 100, 2, sigma_p(BaseKernel("laplacian", 1.0), 2), 2.0)

    def test_sigma_p_gaussian(self):
        assert sigma_p(BaseKernel("gaussian", 2.0), 8) == pytest.approx(math.sqrt(8) / 2.0)


class TestEmpiricalSupError:
    def test_shrinks_with_draws(self):
        wins = 0
        smalls, larges = [], []
        for seed in range(10):
            X = stream(300, seed).uniform(0.0, 1.0, size=(20, 1))
            small = empirical_sup_error(GAUSS1, 128, X, pairs=1, seed=seed)
            large = empirical_sup_error(GAUSS1, 8192, X, pairs=1, seed=seed)
            wins += large <= small
            smalls.append(small)
            larges.append(large)
        assert wins >= 9
        assert np.mean(larges) < np.mean(smalls)

    def test_deterministic(self):
        X = stream(109).uniform(0.0, 1.0, size=(15, 2))
        assert empirical_sup_error(GAUSS1, 256, X, pairs=20, seed=5) == empirical_sup_error(
            GAUSS1, 256, X, pairs=20, seed=5
        )

    def test_typical_magnitude(self):
        X = stream(110).uniform(0.0, 1.0, size=(50, 1))
        err = empirical_sup_error(GAUSS1, 2048, X, pairs=100, seed=0)
        assert 0.0 < err <= 0.2

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_per_pair_loop(self, family):
        # the scalar loop over the same sampled pairs and the same bank;
        # summation order differs, hence the 1e-12 tolerance
        kernel = BaseKernel(family, 0.9)
        X = stream(111).normal(size=(30, 3))
        draws, pairs, seed = 64, 40, 7
        xi, b = sample_frequencies(kernel, draws, 3, seed)
        worst = 0.0
        for i, j in stream(seed, 41).integers(0, 30, size=(pairs, 2)):
            approx = sum(
                feature_map(X[i], xi[k], b[k]) * feature_map(X[j], xi[k], b[k])
                for k in range(draws)
            ) / draws
            worst = max(worst, abs(approx - oracle_kernel(family, 0.9, X[i], X[j])))
        assert abs(empirical_sup_error(kernel, draws, X, pairs, seed) - worst) <= 1e-12
