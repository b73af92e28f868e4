import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from kernelmix.errors import ConfigError
from kernelmix.kernels import FAMILIES, BaseKernel, kernel_matrix, kernel_of_distance, mixture_gram
from kernelmix.rng import stream
from oracles import naive_gram, oracle_kernel


def pair(kernel, x, y):
    """k(x, y) through the package's one formula, a 1 x 1 kernel_matrix."""
    return float(kernel_matrix(kernel, x, y)[0, 0])


class TestBaseKernel:
    def test_gamma_roundtrip(self):
        k = BaseKernel.from_gamma("gaussian", 0.5)
        assert k.rho == pytest.approx(1.0)
        assert k.gamma == pytest.approx(0.5)

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            BaseKernel("gaussian", 0.0)
        with pytest.raises(ConfigError):
            BaseKernel("sigmoid", 1.0)


class TestEvalKernel:
    """Single-pair values, checked against the scalar oracle."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_diagonal_is_one(self, family):
        x = np.array([0.3, -1.2, 4.0])
        assert pair(BaseKernel(family, 0.7), x, x) == 1.0

    def test_gaussian_value(self):
        k = BaseKernel.from_gamma("gaussian", 0.5)
        got = pair(k, np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_laplacian_value(self):
        k = BaseKernel("laplacian", 1.0)
        got = pair(k, np.array([0.0, 0.0]), np.array([3.0, 4.0]))
        assert got == pytest.approx(math.exp(-5.0), abs=1e-15)

    def test_anova_matches_gaussian_shared_rho(self):
        # the oracle's ANOVA is the per-coordinate product formula
        x, y = np.array([0.1, 0.9]), np.array([-0.4, 1.3])
        a = pair(BaseKernel("anova", 0.8), x, y)
        assert a == pair(BaseKernel("gaussian", 0.8), x, y)
        assert a == pytest.approx(oracle_kernel("anova", 0.8, x, y), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            pair(BaseKernel("gaussian", 1.0), np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_range_symmetry_shift_invariance(self, family):
        kernel = BaseKernel(family, 1.3)
        rng = stream(11)
        for _ in range(25):
            x, y, t = rng.normal(size=(3, 4))
            v = pair(kernel, x, y)
            assert 0.0 < v <= 1.0
            assert v == pytest.approx(oracle_kernel(family, 1.3, x, y), abs=1e-15)
            assert v == pytest.approx(pair(kernel, y, x), abs=1e-15)
            assert abs(v - pair(kernel, x + t, y + t)) <= 1e-12


class TestGram:
    def test_single_row(self):
        K = kernel_matrix(BaseKernel("gaussian", 1.0), np.array([[1.0, 2.0]]))
        assert K.shape == (1, 1) and K[0, 0] == 1.0

    def test_identical_rows(self):
        K = kernel_matrix(BaseKernel("laplacian", 2.0), np.array([[1.0], [1.0]]))
        assert np.allclose(K, 1.0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_bruteforce(self, family):
        X = stream(12).normal(size=(3, 4))
        K = kernel_matrix(BaseKernel(family, 0.9), X)
        assert np.abs(K - naive_gram(family, 0.9, X)).max() <= 1e-14

    def test_exact_symmetry_and_unit_diagonal(self):
        X = stream(13).normal(size=(30, 5))
        K = kernel_matrix(BaseKernel("gaussian", 1.0), X)
        assert np.array_equal(K, K.T)
        assert np.all(np.diag(K) == 1.0)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("rho", [0.7, 0.02])  # 0.02: most values underflow to 0.0
    def test_bit_identical_to_mirrored_upper_triangle(self, family, rho):
        # the Gram matrix used to be exp of the scaled cdist, rebuilt as
        # triu(K) + triu(K, 1).T with a unit diagonal
        kernel = BaseKernel(family, rho)
        scale = rho if family == "laplacian" else 2.0 * rho**2
        for seed in range(6):
            X = 3.0 * stream(15, seed).normal(size=(20 + 7 * seed, 1 + seed))
            K = np.exp(-cdist(X, X, kernel.metric) / scale)
            mirrored = np.triu(K) + np.triu(K, 1).T
            np.fill_diagonal(mirrored, 1.0)
            assert np.array_equal(kernel_matrix(kernel, X), mirrored)

    def test_non_finite_distances_propagate(self):
        dist = np.array([np.nan, np.inf, 0.0, 1e6])
        K = kernel_of_distance(BaseKernel("gaussian", 1.0), dist)
        assert np.isnan(K[0]) and K[1:].tolist() == [0.0, 1.0, 0.0]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_psd(self, family):
        for seed in range(3):
            X = stream(14, seed).normal(size=(50, 3))
            K = kernel_matrix(BaseKernel(family, 1.1), X)
            assert np.linalg.eigvalsh(K)[0] >= -1e-8


class TestMixture:
    def test_single_kernel(self):
        X = stream(15).normal(size=(5, 2))
        k = BaseKernel("gaussian", 1.0)
        assert np.allclose(mixture_gram([k], [1.0], X), kernel_matrix(k, X))

    def test_identical_components(self):
        X = stream(16).normal(size=(4, 2))
        k = BaseKernel("gaussian", 2.0)
        assert np.allclose(mixture_gram([k, k], [0.5, 0.5], X), kernel_matrix(k, X), atol=1e-15)

    def test_weighted_sum(self):
        X = stream(17).normal(size=(4, 3))
        k1, k2 = BaseKernel("gaussian", 1.0), BaseKernel("gaussian", 2.0)
        expected = 0.3 * kernel_matrix(k1, X) + 0.7 * kernel_matrix(k2, X)
        assert np.abs(mixture_gram([k1, k2], [0.3, 0.7], X) - expected).max() <= 1e-14

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            mixture_gram([BaseKernel("gaussian", 1.0)], [0.5, 0.5], np.zeros((2, 1)))

    def test_spectral_norm_triangle(self):
        X = stream(18).normal(size=(25, 3))
        kernels = [BaseKernel("gaussian", r) for r in (0.5, 1.0, 3.0)]
        w = np.array([0.2, 0.5, 0.3])
        mix = np.linalg.eigvalsh(mixture_gram(kernels, w, X))[-1]
        parts = sum(
            wl * np.linalg.eigvalsh(kernel_matrix(k, X))[-1] for wl, k in zip(w, kernels)
        )
        assert mix <= parts + 1e-8
