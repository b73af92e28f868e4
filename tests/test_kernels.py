import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist, pdist

from kernelmix import kernels
from kernelmix.errors import ConfigError
from kernelmix.kernels import (
    _EXP_IS_ZERO_BELOW,
    FAMILIES,
    BaseKernel,
    distance_blocks,
    kernel_matrix,
    kernel_values,
    mixture_gram,
)
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
        with pytest.raises(ConfigError, match="gamma must be positive"):
            BaseKernel.from_gamma("gaussian", 0)


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


def _points(seed, rows, dim, scale, on_grid, layout):
    """rows x dim floats, some rows repeated when on a grid, in ``layout``."""
    rng = stream(seed, rows, dim)
    X = rng.integers(-3, 4, size=(rows, dim)) * scale if on_grid else rng.normal(scale=scale, size=(rows, dim))
    if layout == "fortran":
        return np.asfortranarray(X)
    if layout == "strided":  # every other row and column of a larger array
        wide = np.full((2 * rows, 2 * dim), np.nan)
        wide[::2, ::2] = X
        return wide[::2, ::2]
    return X


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _walked(X, Y=None):
    """The walk's blocks laid end to end: n x m against Y, condensed without."""
    return np.concatenate([block for _, block in distance_blocks(X, Y)])


class TestSquaredDistances:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 70),
        m=st.integers(1, 70),
        dim=st.integers(1, 24),
        seed=st.integers(0, 2**16),
        scale=st.sampled_from([1e-3, 1.0, 7.5, 1e3]),
        on_grid=st.booleans(),
        layouts=st.tuples(*[st.sampled_from(["c", "fortran", "strided"])] * 2),
    )
    def test_bit_identical_to_scipy(self, n, m, dim, seed, scale, on_grid, layouts):
        X = _points(seed, n, dim, scale, on_grid, layouts[0])
        Y = _points(seed + 1, m, dim, scale, on_grid, layouts[1])
        cross, within = _walked(X, Y), _walked(X)
        assert _same_bits(cross, cdist(X, Y, "sqeuclidean"))
        assert _same_bits(within, pdist(X, "sqeuclidean"))
        assert _same_bits(np.sqrt(cross), cdist(X, Y, "euclidean"))
        assert _same_bits(np.sqrt(within), pdist(X, "euclidean"))

    @pytest.mark.parametrize("dim", [8, 9, 16, 24])
    def test_long_rows_sum_in_column_order(self, dim):
        # from 8 coordinates on, a pairwise sum would group the squares
        # differently; blocks of 64 rows and a ragged last block
        X = _points(dim, 75, dim, 3.0, False, "c")
        Y = _points(dim + 1, 41, dim, 3.0, False, "c")
        assert _same_bits(_walked(X, Y), cdist(X, Y, "sqeuclidean"))
        assert _same_bits(_walked(X), pdist(X, "sqeuclidean"))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 70),
        m=st.integers(1, 40),
        dim=st.integers(1, 12),
        seed=st.integers(0, 2**16),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        on_grid=st.booleans(),
    )
    def test_block_size_leaves_the_bits(self, n, m, dim, seed, scale, on_grid):
        # every entry is summed the same way in any block
        X = _points(seed, n, dim, scale, on_grid, "c")
        Y = _points(seed + 1, m, dim, scale, on_grid, "c")
        cross, within = _walked(X, Y), _walked(X)
        for rows in (1, 7, 32, n + 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(kernels, "_BLOCK_ROWS", rows)
                assert _same_bits(_walked(X, Y), cross)
                assert _same_bits(_walked(X), within)

    @pytest.mark.parametrize("n", [64, 65, 150])
    def test_blocks_start_every_64_rows_and_the_last_is_ragged(self, n):
        X = _points(n, n, 3, 1.0, False, "c")
        Y = _points(n + 1, 41, 3, 1.0, False, "c")
        cross = list(distance_blocks(X, Y))
        within = list(distance_blocks(X))
        starts = list(range(0, n, kernels._BLOCK_ROWS))
        assert [start for start, _ in cross] == starts == [start for start, _ in within]
        for (start, block), (_, pairs) in zip(cross, within):
            rows = min(kernels._BLOCK_ROWS, n - start)
            assert block.shape == (rows, 41)
            # row i pairs with the n - 1 - i rows after it
            assert pairs.shape == (sum(n - 1 - i for i in range(start, start + rows)),)
            assert _same_bits(block, cdist(X[start : start + rows], Y, "sqeuclidean"))


#: The smallest positive normal double; no kernel value lies in (0, DBL_MIN).
DBL_MIN = sys.float_info.min

#: exp arguments that straddle ln(DBL_MIN), below which exp is subnormal, and
#: the point where it underflows to zero, with the specials
_EXP_ELEMENTS = st.one_of(
    st.floats(-800.0, 50.0),
    st.floats(-709.0, -708.0),
    st.floats(-746.0, -744.0),
    st.sampled_from([
        0.0, -0.0, math.inf, -math.inf, math.nan, -745.2, -708.4,
        _EXP_IS_ZERO_BELOW, math.nextafter(_EXP_IS_ZERO_BELOW, -math.inf),
    ]),
)
_EXP_ARGUMENTS = arrays(np.float64, st.integers(1, 300), elements=_EXP_ELEMENTS)
_GAMMAS = [1e-4, 0.37, 1.0, 100.0, 1e4]


class TestExpPaths:
    def masked(self, arg):
        return np.exp(arg, out=np.zeros_like(arg), where=~(arg < _EXP_IS_ZERO_BELOW))

    @settings(max_examples=200, deadline=None)
    @given(arg=_EXP_ARGUMENTS)
    def test_plain_exp_equals_masked(self, arg):
        # the contract: exp's bits wherever exp is a normal double or NaN, which
        # is at or above ln(DBL_MIN), and 0.0 where it is subnormal or zero
        exp = np.exp(arg)
        assert _same_bits(np.where(np.abs(exp) < DBL_MIN, 0.0, exp), self.masked(arg))

    def test_gather_crosses_chunk_edges(self):
        # a large array of underflowing and kept arguments, NaN and +-inf
        # among them, gathered in one pass
        arg = stream(17).uniform(-1500.0, 10.0, size=(379, 379))
        arg.flat[::997], arg.flat[5::1009], arg.flat[7::1013] = np.nan, -np.inf, np.inf
        assert _same_bits(kernels._exp(arg.copy(), -np.inf), self.masked(arg))

    @settings(max_examples=200, deadline=None)
    @given(arg=_EXP_ARGUMENTS, rows=st.sampled_from([1, 3]))
    def test_kernel_values_equals_masked(self, arg, rows):
        # a Gaussian with rho = 1 takes -squared / 2 as the exp argument,
        # and halving is exact
        squared = -2.0 * (np.tile(arg, (rows, 1)) if rows > 1 else arg)
        got = next(kernel_values([BaseKernel("gaussian", 1.0)], squared))
        assert _same_bits(got, self.masked(squared / -2.0))

    @settings(max_examples=200, deadline=None)
    @given(
        arg=arrays(np.float64, st.integers(0, 300), elements=_EXP_ELEMENTS),
        rows=st.sampled_from([1, 3]),
        family=st.sampled_from(FAMILIES),
        gamma=st.sampled_from(_GAMMAS),
    )
    def test_block_max_decides_like_the_smallest_argument(self, arg, rows, family, gamma):
        # distances that straddle ln(DBL_MIN) * scale, with NaN, +-inf, zeros and
        # empty blocks; the largest distance over -scale is the smallest
        # argument, so one max per block serves every kernel
        kernel = BaseKernel.from_gamma(family, gamma)
        scale = kernel.rho if family == "laplacian" else 2.0 * kernel.rho**2
        dist = np.tile(arg * -scale, (rows, 1)) if rows > 1 else arg * -scale
        squared = dist
        if family == "laplacian":  # the square of a distance not below zero
            squared = dist * dist
            dist = np.sqrt(squared)
        largest = dist.max(initial=0.0)
        smallest = (dist / -scale).min(initial=0.0)
        assert (math.isnan(largest / -scale) and math.isnan(smallest)) or largest / -scale == smallest
        assert _same_bits(next(kernel_values([kernel], squared)), self.masked(dist / -scale))

    @settings(max_examples=100, deadline=None)
    @given(
        arg=arrays(np.float64, st.integers(0, 120), elements=_EXP_ELEMENTS),
        family=st.sampled_from(FAMILIES),
        gamma=st.sampled_from(_GAMMAS),
    )
    def test_kernel_values_are_never_subnormal(self, arg, family, gamma):
        # squared distances whose exp arguments are ``arg``, by the kernel's own scale
        kernel = BaseKernel.from_gamma(family, gamma)
        scale = kernel.rho if family == "laplacian" else 2.0 * kernel.rho**2
        dist = np.abs(arg) * scale
        values = next(kernel_values([kernel], dist * dist if family == "laplacian" else dist))
        assert not ((values != 0.0) & (np.abs(values) < DBL_MIN)).any()

    @settings(max_examples=100, deadline=None)
    @given(
        arg=arrays(np.float64, st.integers(0, 120), elements=_EXP_ELEMENTS),
        drawn=st.lists(
            st.builds(BaseKernel.from_gamma, st.sampled_from(FAMILIES), st.sampled_from(_GAMMAS)),
            max_size=4,
        ),
    )
    def test_shared_pass_equals_each_kernel_alone(self, arg, drawn):
        # two or more Laplacians share one square root and one max, mixed
        # in with Gaussians; gamma = 1e4 gathers for both families
        kernels = [
            BaseKernel.from_gamma("laplacian", 1e4),
            BaseKernel.from_gamma("gaussian", 1.0),
            BaseKernel.from_gamma("laplacian", 0.37),
            *drawn,
        ]
        squared = np.abs(arg)
        shared = list(kernel_values(kernels, squared))
        assert len(shared) == len(kernels)
        for kernel, values in zip(kernels, shared):
            assert _same_bits(values, next(kernel_values([kernel], squared)))


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
    @pytest.mark.parametrize("rho", [0.7, 0.02])  # 0.02: most values are subnormal or 0.0
    def test_bit_identical_to_mirrored_upper_triangle(self, family, rho):
        # the Gram matrix used to be exp of the scaled cdist, rebuilt as
        # triu(K) + triu(K, 1).T with a unit diagonal; a subnormal exp is 0.0
        kernel = BaseKernel(family, rho)
        scale = rho if family == "laplacian" else 2.0 * rho**2
        metric = {"gaussian": "sqeuclidean", "laplacian": "euclidean"}[family]
        for seed in range(6):
            X = 3.0 * stream(15, seed).normal(size=(20 + 7 * seed, 1 + seed))
            K = np.exp(-cdist(X, X, metric) / scale)
            K[K < DBL_MIN] = 0.0
            mirrored = np.triu(K) + np.triu(K, 1).T
            np.fill_diagonal(mirrored, 1.0)
            assert np.array_equal(kernel_matrix(kernel, X), mirrored)

    def test_non_finite_distances_propagate(self):
        squared = np.array([np.nan, np.inf, 0.0, 1e6])
        K = next(kernel_values([BaseKernel("gaussian", 1.0)], squared))
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
        assert _same_bits(mixture_gram([k], [1.0], X), kernel_matrix(k, X))

    def test_identical_components(self):
        X = stream(16).normal(size=(4, 2))
        k = BaseKernel("gaussian", 2.0)
        assert np.allclose(mixture_gram([k, k], [0.5, 0.5], X), kernel_matrix(k, X), atol=1e-15)

    def test_weighted_sum(self):
        X = stream(17).normal(size=(4, 3))
        k1, k2 = BaseKernel("gaussian", 1.0), BaseKernel("gaussian", 2.0)
        expected = 0.3 * kernel_matrix(k1, X) + 0.7 * kernel_matrix(k2, X)
        assert np.abs(mixture_gram([k1, k2], [0.3, 0.7], X) - expected).max() <= 1e-14

    def test_bit_identical_to_summed_kernel_matrices(self):
        # one shared distance pass per metric gives the bits of one
        # kernel_matrix per kernel
        X = stream(19).normal(scale=2.0, size=(37, 4))
        kernels = [BaseKernel("gaussian", 0.4), BaseKernel("laplacian", 1.5), BaseKernel("gaussian", 3.0), BaseKernel("laplacian", 0.05)]
        w = np.array([0.1, 0.2, 0.3, 0.4])
        expected = np.zeros((37, 37))
        for wl, k in zip(w, kernels):
            expected += wl * kernel_matrix(k, X)
        assert _same_bits(mixture_gram(kernels, w, X), expected)

    @settings(max_examples=60, deadline=None)
    @given(
        families=st.lists(st.sampled_from(FAMILIES), min_size=1, max_size=4),
        data=st.data(),
        n=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_weighted_sum_into_zeros(self, families, data, n, seed):
        # both sums start from zeros and add each scaled kernel in order;
        # any nonnegative weights, zero among them, keep the bits
        m = len(families)
        rhos = data.draw(st.lists(st.floats(0.05, 10.0), min_size=m, max_size=m))
        w = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=m, max_size=m)))
        bank = [BaseKernel(f, r) for f, r in zip(families, rhos)]
        X = stream(seed, 2).normal(scale=2.0, size=(n, 3))
        expected = np.zeros((n, n))
        for wl, k in zip(w, bank):
            expected += wl * kernel_matrix(k, X)
        assert _same_bits(mixture_gram(bank, w, X), expected)

    def test_memory_holds_one_kernel_beside_the_sum(self):
        # the distances, the sum and one kernel's values: no scaled copy of
        # each kernel's values
        n = 300
        X = stream(20).normal(size=(n, 3))
        bank = [BaseKernel("gaussian", rho) for rho in (0.5, 1.0, 2.0)]
        w = np.array([0.2, 0.3, 0.5])
        mixture_gram(bank, w, X[:4])  # lazy set-up outside the measurement
        tracemalloc.start()
        try:
            mixture_gram(bank, w, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 8 * n * n, peak

    @pytest.mark.parametrize("n", [37, 150])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_row_blocks_keep_the_bits_of_the_whole_matrix(self, n, family):
        # n is not a multiple of the block; rho = 0.02 takes exp's gather
        # path in every block, the other kernels the in-place one
        X = stream(21, n).normal(scale=2.0, size=(n, 3))
        bank = [BaseKernel(family, 0.02), BaseKernel("gaussian", 0.7), BaseKernel(family, 3.0)]
        w = np.array([0.3, 0.5, 0.2])
        values = kernel_values(bank, _walked(X, X))
        expected = next(values) * w[0]
        for wl, K in zip(w[1:], values):
            expected += wl * K
        assert _same_bits(mixture_gram(bank, w, X), expected)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_memory_holds_the_sum_and_one_row_block(self, family):
        # a row block's distances, their square roots (Laplacian) and one
        # kernel's values beside the n x n sum; 64 KiB for numpy's buffers
        n = 300
        X = stream(22).normal(size=(n, 3))
        bank = [BaseKernel(family, rho) for rho in (0.5, 1.0, 2.0)]
        w = np.array([0.2, 0.3, 0.5])
        mixture_gram(bank, w, X[:4])  # lazy set-up outside the measurement
        tracemalloc.start()
        try:
            mixture_gram(bank, w, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 8 * n * n + 3 * 8 * kernels._BLOCK_ROWS * n + 64 * 1024
        assert peak <= bound, (peak, bound)

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
