import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelmix.errors import ConfigError
from kernelmix.kernels import BaseKernel, mixture_gram
from kernelmix.mmd import MixtureWeights
from kernelmix.rff import (
    FeatureBank,
    _panels,
    build_feature_matrix,
    feature_block,
    sample_frequencies,
    spectral_second_moment,
)
from kernelmix.rng import stream
from kernelmix.svm import SvmModel, model_from_dict, model_to_dict
from oracles import feature_map, oracle_kernel

GAUSS1 = BaseKernel("gaussian", 1.0)


class TestSamplers:
    def test_gaussian_variance(self):
        xi, _b = sample_frequencies(BaseKernel("gaussian", 1.0), 10**5, 3, seed=0)
        var = xi.var(axis=0)
        assert np.all(np.abs(var - 1.0) <= 0.05)

    def test_gaussian_variance_scales_with_rho(self):
        xi, _b = sample_frequencies(BaseKernel("gaussian", 2.0), 10**5, 2, seed=1)
        assert np.all(np.abs(xi.var(axis=0) - 0.25) <= 0.05 * 0.25)

    def test_laplacian_cauchy_quantiles(self):
        xi, _b = sample_frequencies(BaseKernel("laplacian", 1.0), 10**5, 2, seed=2)
        med = np.median(xi, axis=0)
        q75, q25 = np.percentile(xi, [75, 25], axis=0)
        iqr = q75 - q25  # Cauchy(scale 1) has IQR exactly 2
        assert np.all(np.abs(med) <= 0.02)
        assert np.all(np.abs(iqr - 2.0) <= 0.05 * 2.0)

    def test_phases_in_range(self):
        _xi, b = sample_frequencies(GAUSS1, 1000, 2, seed=3)
        assert np.all((0.0 <= b) & (b < 2.0 * math.pi))

    def test_deterministic(self):
        a = sample_frequencies(GAUSS1, 50, 4, seed=9)
        b = sample_frequencies(GAUSS1, 50, 4, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_stream_keyed_by_kernel_index(self):
        a = sample_frequencies(GAUSS1, 50, 4, seed=9, kernel_index=0)
        b = sample_frequencies(GAUSS1, 50, 4, seed=9, kernel_index=1)
        assert not np.array_equal(a[0], b[0])

    def test_second_moment(self):
        assert spectral_second_moment(BaseKernel("gaussian", 2.0), 8) == 2.0
        assert math.isinf(spectral_second_moment(BaseKernel("laplacian", 1.0), 3))


class TestFeatureMap:
    @staticmethod
    def one(x, xi, b):
        return feature_block(np.atleast_2d(x), np.atleast_2d(xi), np.array([b]))[0, 0]

    def test_at_origin(self):
        assert self.one(np.zeros(2), np.ones(2), 0.0) == pytest.approx(math.sqrt(2.0))

    def test_quarter_period_zero(self):
        x, xi = np.array([1.0]), np.array([math.pi / 4.0])
        got = self.one(x, xi, math.pi / 4.0)
        assert abs(got) <= 1e-12

    def test_half_period(self):
        got = self.one(np.array([1.0, 0.0]), np.array([math.pi, 0.0]), 0.0)
        assert got == pytest.approx(-math.sqrt(2.0))

    def test_amplitude_bound(self):
        rng = stream(50)
        for _ in range(30):
            x, xi = rng.normal(size=(2, 3))
            assert abs(self.one(x, xi, float(rng.uniform(0, 2 * math.pi)))) <= math.sqrt(2.0)


def kernel_approx(x, y, xi, b):
    """Monte-Carlo estimate (1/D) sum_j phi(x; xi_j) phi(y; xi_j) from feature_block."""
    fx, fy = feature_block(np.vstack([x, y]), xi, b)
    return float(fx @ fy / xi.shape[0])


class TestKernelApprox:
    def test_single_draw_identity(self):
        rng = stream(51)
        x, y = rng.normal(size=(2, 3))
        xi = rng.normal(size=(1, 3))
        b = rng.uniform(0, 2 * math.pi, size=1)
        want = 2.0 * math.cos(float(x @ xi[0]) + b[0]) * math.cos(float(y @ xi[0]) + b[0])
        assert kernel_approx(x, y, xi, b) == pytest.approx(want, abs=1e-12)

    def test_diagonal_accuracy(self):
        x = np.array([0.3, -0.8])
        xi, b = sample_frequencies(GAUSS1, 4096, 2, seed=5)
        assert abs(kernel_approx(x, x, xi, b) - 1.0) <= 0.05

    def test_unbiasedness_over_banks(self):
        rng = stream(52)
        x, y = rng.uniform(0, 1, size=(2, 2))
        want = oracle_kernel("gaussian", 1.0, x, y)
        errs = []
        for seed in range(100):
            xi, b = sample_frequencies(GAUSS1, 100, 2, seed=seed)
            errs.append(kernel_approx(x, y, xi, b) - want)
        errs = np.array(errs)
        assert abs(errs.mean()) <= 3.0 * errs.std(ddof=1) / 10.0

    def test_double_angle_identity_on_diagonal(self):
        # (1/D) sum 2cos^2(t) - 1 == (1/D) sum cos(2t)
        x = np.array([0.7, 0.1])
        xi, b = sample_frequencies(GAUSS1, 256, 2, seed=6)
        lhs = kernel_approx(x, x, xi, b) - 1.0
        rhs = np.cos(2.0 * (xi @ x + b)).mean()
        assert lhs == pytest.approx(rhs, abs=1e-12)


def _bank(kernels, weights, draws=64, dim=2, seed=0):
    return FeatureBank.generate(kernels, MixtureWeights(np.asarray(weights, dtype=float)), draws, dim, seed)


class TestFeatureBank:
    def test_dimensions(self):
        bank = _bank([GAUSS1, BaseKernel("gaussian", 2.0)], [0.4, 0.6])
        assert bank.total_features == 128
        assert all(xi.shape == (64, 2) for xi in bank.frequencies)

    def test_regeneration_identical(self):
        kernels = [GAUSS1, BaseKernel("laplacian", 1.0)]
        a = _bank(kernels, [0.5, 0.5], seed=7)
        b = _bank(kernels, [0.5, 0.5], seed=7)
        for xa, xb in zip(a.frequencies, b.frequencies):
            assert np.array_equal(xa, xb)

    def test_serialization_roundtrip(self):
        # a bank is stored by its parameters in the model file and drawn again
        bank = _bank([GAUSS1, BaseKernel("gaussian", 0.5)], [0.3, 0.7], seed=11)
        model = SvmModel(beta=np.zeros(bank.total_features), offset=0.0, R=1.0, lam=1.0, draws=bank.draws, bank=bank)
        clone = model_from_dict(json.loads(json.dumps(model_to_dict(model)))).bank
        for xa, xb in zip(bank.frequencies, clone.frequencies):
            assert np.array_equal(xa, xb)
        for pa, pb in zip(bank.phases, clone.phases):
            assert np.array_equal(pa, pb)
        assert np.array_equal(bank.weights.weights, clone.weights.weights)
        assert (clone.kernels, clone.draws, clone.dim, clone.seed) == (bank.kernels, bank.draws, bank.dim, bank.seed)

    @pytest.mark.parametrize("draws", [0, -1, 2.0, True])
    def test_draws_must_be_a_positive_integer(self, draws):
        # a float or a bool is refused as a config value, not by numpy's TypeError
        with pytest.raises(ConfigError, match="draws must be a positive integer"):
            _bank([GAUSS1], [1.0], draws=draws)

    def test_weight_count_mismatch(self):
        with pytest.raises(ConfigError):
            _bank([GAUSS1], [0.5, 0.5])


class TestFeatureMatrix:
    def test_entry_bound_single_kernel(self):
        bank = _bank([GAUSS1], [1.0], draws=128)
        Phi = build_feature_matrix(stream(60).normal(size=(10, 2)), bank)
        assert Phi.shape == (10, 128)
        assert np.abs(Phi).max() <= math.sqrt(2.0)

    def test_zero_weight_block(self):
        bank = _bank([GAUSS1, BaseKernel("gaussian", 3.0)], [1.0, 0.0])
        Phi = build_feature_matrix(stream(61).normal(size=(5, 2)), bank)
        assert np.all(Phi[:, 64:] == 0.0)

    def test_entry_bound_mixture(self):
        w = [0.2, 0.8]
        bank = _bank([GAUSS1, BaseKernel("gaussian", 2.0)], w)
        Phi = build_feature_matrix(stream(62).normal(size=(8, 2)), bank)
        assert np.abs(Phi).max() <= math.sqrt(2.0 * max(w)) + 1e-12

    def test_gram_approximation(self):
        X = stream(63).normal(size=(20, 2))
        kernels = [GAUSS1, BaseKernel("gaussian", 2.0)]
        w = [0.3, 0.7]
        bank = _bank(kernels, w, draws=4096, seed=3)
        Phi = build_feature_matrix(X, bank)
        approx = Phi @ Phi.T / bank.draws
        exact = mixture_gram(kernels, np.array(w), X)
        assert np.abs(approx - exact).max() <= 0.1

    def test_bit_identical_to_stacked_blocks(self):
        kernels = [GAUSS1, BaseKernel("laplacian", 0.5), BaseKernel("gaussian", 2.0)]
        bank = _bank(kernels, [0.2, 0.5, 0.3], draws=32)
        X = stream(64).normal(size=(25, 2))
        stacked = np.hstack(
            [
                math.sqrt(w) * feature_block(X, xi, b)
                for w, xi, b in zip(bank.weights.weights, bank.frequencies, bank.phases)
            ]
        )
        assert np.array_equal(build_feature_matrix(X, bank), stacked)

    def test_unit_weight_leaves_the_features(self):
        # a single kernel has weight 1, so Phi is its feature block bit for bit
        bank = _bank([BaseKernel("laplacian", 0.5)], [1.0], draws=32)
        X = stream(65).normal(size=(25, 2))
        assert np.array_equal(build_feature_matrix(X, bank), feature_block(X, bank.frequencies[0], bank.phases[0]))

    def test_dimension_mismatch(self):
        bank = _bank([GAUSS1], [1.0], dim=3)
        with pytest.raises(ConfigError):
            build_feature_matrix(np.zeros((2, 2)), bank)

    def test_feature_block_matches_feature_map(self):
        xi, b = sample_frequencies(GAUSS1, 16, 2, seed=12)
        X = stream(64).normal(size=(4, 2))
        block = feature_block(X, xi, b)
        for i in range(4):
            for j in range(16):
                assert block[i, j] == pytest.approx(feature_map(X[i], xi[j], b[j]), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        dim=st.integers(1, 60),
        draws=st.integers(1, 600),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_feature_block_bit_identical_to_expression(self, n, dim, draws, seed):
        # the column stack of sqrt(2) cos(X xi_p^T + b_p) over the 256-column panels p
        rng = stream(seed)
        X = rng.normal(scale=3.0, size=(n, dim))
        xi = rng.standard_cauchy(size=(draws, dim))
        b = rng.uniform(0.0, 2.0 * math.pi, size=draws)
        want = np.hstack([math.sqrt(2.0) * np.cos(X @ xi[p].T + b[p]) for p in _panels(draws)])
        assert np.array_equal(feature_block(X, xi, b), want)
