import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kernelmix.data import LabeledDataset, diameter
from kernelmix.errors import ConfigError, DataError
from kernelmix.kernels import FAMILIES, BaseKernel
from kernelmix.mmd import (
    ESTIMATORS,
    MixtureWeights,
    gaussian_mmd_closed_form,
    gaussian_mmd_squared_closed_form,
    mixing_weights,
    mmd_convergence_probe,
    mmd_score,
    mmd_scores,
)
from kernelmix.rng import stream
from oracles import naive_mmd_biased_squared, naive_mmd_unbiased_squared

GAUSS1 = BaseKernel("gaussian", 1.0)


class TestBiased:
    def test_identical_sets(self):
        # within-class averages drop the diagonal while the cross average
        # keeps the matched pairs, so coinciding samples give k(0,2) - 1
        pos = np.array([[0.0], [2.0]])
        score = mmd_score(GAUSS1, pos, pos.copy(), "biased")
        expected = naive_mmd_biased_squared("gaussian", 1.0, pos, pos)
        assert score.squared == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(math.exp(-2.0) - 1.0, abs=1e-12)
        assert score.value == 0.0  # clamped before the square root

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_naive_oracle(self, family):
        rng = stream(31)
        for _ in range(5):
            n_plus = int(rng.integers(2, 12))
            n_minus = int(rng.integers(2, 12))
            pos = rng.normal(size=(n_plus, 3))
            neg = rng.normal(size=(n_minus, 3)) + 0.5
            got = mmd_score(BaseKernel(family, 0.8), pos, neg, "biased").squared
            want = naive_mmd_biased_squared(family, 0.8, pos, neg)
            assert got == pytest.approx(want, abs=1e-12)

    def test_permutation_invariance(self):
        rng = stream(32)
        pos = rng.normal(size=(6, 2))
        neg = rng.normal(size=(9, 2))
        base = mmd_score(GAUSS1, pos, neg, "biased").squared
        shuffled = mmd_score(
            GAUSS1, pos[rng.permutation(6)], neg[rng.permutation(9)], "biased"
        ).squared
        assert shuffled == pytest.approx(base, abs=1e-12)

    def test_swap_symmetry(self):
        rng = stream(33)
        pos, neg = rng.normal(size=(5, 2)), rng.normal(size=(7, 2))
        assert mmd_score(GAUSS1, pos, neg, "biased").squared == pytest.approx(
            mmd_score(GAUSS1, neg, pos, "biased").squared, abs=1e-12
        )

    def test_small_class_rejected(self):
        with pytest.raises(DataError):
            mmd_score(GAUSS1, np.zeros((1, 1)), np.zeros((3, 1)), "biased")

    def test_monotone_separation(self):
        # biased squared for {0,eps} vs {t,t+eps} grows with t >= 0
        eps = 1e-3
        values = []
        for t in np.linspace(0.0, 4.0, 9):
            pos = np.array([[0.0], [eps]])
            neg = np.array([[t], [t + eps]])
            values.append(mmd_score(GAUSS1, pos, neg, "biased").squared)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestUnbiasedBalanced:
    def test_degenerate_pairing(self):
        pos = stream(34).normal(size=(4, 2))
        score = mmd_score(GAUSS1, pos, pos.copy(), "unbiased_balanced")
        assert score.squared == 0.0

    def test_two_pair_example(self):
        k = BaseKernel.from_gamma("gaussian", 0.5)
        pos, neg = np.array([[0.0], [1.0]]), np.array([[3.0], [4.0]])
        score = mmd_score(k, pos, neg, "unbiased_balanced")
        expected = 2 * math.exp(-0.5) - math.exp(-8.0) - math.exp(-2.0)
        assert score.squared == pytest.approx(expected, abs=1e-12)
        assert score.value == pytest.approx(math.sqrt(expected), abs=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_naive_oracle(self, family):
        rng = stream(35)
        for _ in range(5):
            n0 = int(rng.integers(2, 12))
            pos = rng.normal(size=(n0, 2))
            neg = rng.normal(size=(n0, 2)) + 0.3
            got = mmd_score(BaseKernel(family, 1.2), pos, neg, "unbiased_balanced").squared
            want = naive_mmd_unbiased_squared(family, 1.2, pos, neg)
            assert got == pytest.approx(want, abs=1e-12)

    def test_negative_squared_clamps_value(self):
        rng = stream(36)
        # same distribution: squared fluctuates around 0, find a negative one
        found = False
        for t in range(20):
            pos = stream(36, t).normal(size=(6, 1))
            neg = stream(37, t).normal(size=(6, 1))
            score = mmd_score(GAUSS1, pos, neg, "unbiased_balanced")
            if score.squared < 0:
                assert score.value == 0.0
                found = True
                break
        assert found, "expected at least one negative squared draw under the null"

    def test_swap_is_termwise_invariant(self):
        rng = stream(38)
        pos, neg = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        a = mmd_score(GAUSS1, pos, neg, "unbiased_balanced").squared
        b = mmd_score(GAUSS1, neg, pos, "unbiased_balanced").squared
        assert a == pytest.approx(b, abs=1e-12)

    def test_unbalanced_rejected(self):
        with pytest.raises(DataError):
            mmd_score(GAUSS1, np.zeros((3, 1)), np.zeros((4, 1)), "unbiased_balanced")


class TestRouting:
    def test_auto_balanced(self):
        rng = stream(39)
        pos, neg = rng.normal(size=(4, 1)), rng.normal(size=(4, 1))
        assert mmd_score(GAUSS1, pos, neg).estimator == "unbiased_balanced"

    def test_auto_unbalanced(self):
        rng = stream(40)
        pos, neg = rng.normal(size=(4, 1)), rng.normal(size=(5, 1))
        assert mmd_score(GAUSS1, pos, neg).estimator == "biased"

    def test_override(self):
        rng = stream(41)
        pos, neg = rng.normal(size=(4, 1)), rng.normal(size=(4, 1))
        assert mmd_score(GAUSS1, pos, neg, estimator="biased").estimator == "biased"

    def test_unknown(self):
        with pytest.raises(ConfigError):
            mmd_score(GAUSS1, np.zeros((2, 1)), np.zeros((2, 1)), estimator="magic")


RHO = st.floats(0.3, 3.0)
COORD = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def kernel_lists(draw):
    """Every family at least once, plus up to three more, in any order."""
    specs = [(family, draw(RHO)) for family in FAMILIES]
    specs += draw(st.lists(st.tuples(st.sampled_from(FAMILIES), RHO), max_size=3))
    return [BaseKernel(family, rho) for family, rho in draw(st.permutations(specs))]


@st.composite
def class_samples(draw, balanced):
    dim = draw(st.integers(1, 3))
    n_plus = draw(st.integers(2, 7))
    n_minus = n_plus if balanced else draw(st.integers(2, 7).filter(lambda n: n != n_plus))
    pos = draw(arrays(np.float64, (n_plus, dim), elements=COORD))
    neg = draw(arrays(np.float64, (n_minus, dim), elements=COORD))
    return pos, neg


class TestListScorer:
    @settings(max_examples=60, deadline=None)
    @given(kernels=kernel_lists(), samples=class_samples(balanced=False))
    def test_unbalanced_matches_naive_biased(self, kernels, samples):
        pos, neg = samples
        scores = mmd_scores(kernels, pos, neg)
        assert [s.estimator for s in scores] == ["biased"] * len(kernels)
        for kernel, score in zip(kernels, scores):
            want = naive_mmd_biased_squared(kernel.family, kernel.rho, pos, neg)
            assert abs(score.squared - want) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(kernels=kernel_lists(), samples=class_samples(balanced=True))
    def test_balanced_matches_naive_oracles(self, kernels, samples):
        pos, neg = samples
        paired = mmd_scores(kernels, pos, neg)
        biased = mmd_scores(kernels, pos, neg, estimator="biased")
        assert [s.estimator for s in paired] == ["unbiased_balanced"] * len(kernels)
        for kernel, p, b in zip(kernels, paired, biased):
            want_p = naive_mmd_unbiased_squared(kernel.family, kernel.rho, pos, neg)
            want_b = naive_mmd_biased_squared(kernel.family, kernel.rho, pos, neg)
            assert abs(p.squared - want_p) <= 1e-12
            assert abs(b.squared - want_b) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(kernels=kernel_lists(), samples=class_samples(balanced=True))
    def test_identical_classes_score_exactly_zero(self, kernels, samples):
        pos, _neg = samples
        scores = mmd_scores(kernels, pos, pos.copy())
        assert [s.squared for s in scores] == [0.0] * len(kernels)
        assert mixing_weights(kernels, pos, pos.copy()).degenerate

    def test_single_kernel_entry_points_agree(self):
        rng = stream(48)
        pos, neg = rng.normal(size=(6, 2)), rng.normal(size=(6, 2)) + 0.4
        kernels = [BaseKernel(f, 0.9) for f in FAMILIES]
        scores = mmd_scores(kernels, pos, neg)
        assert scores == [mmd_score(k, pos, neg) for k in kernels]
        assert scores == [mmd_score(k, pos, neg, "unbiased_balanced") for k in kernels]
        biased = mmd_scores(kernels, pos, neg, "biased")
        assert biased == [mmd_score(k, pos, neg, "biased") for k in kernels]

    @settings(max_examples=60, deadline=None)
    @given(
        kernels=kernel_lists(),
        samples=class_samples(balanced=False),
        seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
    )
    def test_biased_invariant_to_row_shuffles(self, kernels, samples, seeds):
        pos, neg = samples
        shuffled_pos = pos[np.random.default_rng(seeds[0]).permutation(len(pos))]
        shuffled_neg = neg[np.random.default_rng(seeds[1]).permutation(len(neg))]
        base = mmd_scores(kernels, pos, neg, "biased")
        for a, b in zip(base, mmd_scores(kernels, shuffled_pos, shuffled_neg, "biased")):
            # kernel values lie in [0, 1], so the squared MMD lies in [-2, 2]
            assert abs(a.squared - b.squared) <= 1e-12 * max(abs(a.squared), 1.0)

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_memory_holds_one_distance_block_and_one_kernel(self, estimator):
        # small-gamma Gaussians never gather, so a kernel's values are one
        # array the size of the block they come from
        n = 400
        rng = stream(49)
        pos, neg = rng.normal(size=(n, 5)), rng.normal(size=(n, 5)) + 0.3
        kernels = [BaseKernel.from_gamma("gaussian", g) for g in (1e-3, 1e-2, 0.1)]
        mmd_scores(kernels, pos[:4], neg[:4], estimator)  # caches outside the measurement
        tracemalloc.start()
        try:
            mmd_scores(kernels, pos, neg, estimator)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the cross block plus one kernel's values on it is 2x; all three
        # blocks at once would be about 2x before any kernel value
        cross_block = 8 * n * n
        assert peak < 2.5 * cross_block, (peak, cross_block)

    @pytest.mark.parametrize("what", ["biased", "unbiased_balanced", "diameter"])
    def test_memory_grows_linearly_with_the_rows(self, what):
        # one block of 64 rows of distances against every row, its square
        # roots, one kernel's values and, at gamma = 100, the gather's int64
        # indices and values: five arrays the size of a block, so doubling
        # the rows about doubles the peak; a whole cross block or condensed
        # array would quadruple it
        kernels = [
            BaseKernel.from_gamma(family, gamma)
            for family, gamma in (("gaussian", 0.1), ("laplacian", 1.0), ("gaussian", 100.0))
        ]
        peaks = {}
        for n in (300, 600):
            rng = stream(51, n)
            pos, neg = rng.normal(size=(n, 5)), rng.normal(size=(n, 5)) + 0.3
            ds = LabeledDataset(np.vstack([pos, neg]), np.repeat([1, -1], n))
            if what == "diameter":
                run, columns = (lambda: diameter(ds)), 2 * n
            else:
                run, columns = (lambda: mmd_scores(kernels, pos, neg, what)), n
            run()  # caches outside the measurement
            tracemalloc.start()
            try:
                run()
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[600] <= 2.3 * peaks[300], peaks
        block = 8 * 64 * columns
        assert peaks[600] <= 6 * block + 64 * 1024, (peaks, block)

    def test_gathering_gaussians_hold_no_more_than_a_laplacian_grid(self):
        # large-gamma Gaussians gather the arguments whose exp does not
        # underflow: besides the block and the arguments, one boolean mask
        # and the gathered values, which a Laplacian grid's square roots
        # outweigh
        n = 2000
        rng = stream(50)
        pos, neg = rng.normal(size=(n, 10)), rng.normal(size=(n, 10)) + 0.5
        peaks = {}
        for family in FAMILIES:
            kernels = [BaseKernel.from_gamma(family, g) for g in np.logspace(-3, 1, 8)]
            mmd_scores(kernels, pos[:4], neg[:4])  # caches outside the measurement
            tracemalloc.start()
            try:
                mmd_scores(kernels, pos, neg)
                peaks[family] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        mask = n * n  # one byte per entry of the cross block
        assert peaks["gaussian"] <= peaks["laplacian"] + mask, peaks

    def test_rejects_empty_list_and_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            mmd_scores([], np.zeros((3, 1)), np.ones((3, 1)))
        with pytest.raises(ConfigError):
            mmd_scores([GAUSS1], np.zeros((3, 1)), np.ones((3, 2)))


class TestMixingWeights:
    def test_single_kernel(self):
        rng = stream(42)
        w = mixing_weights([GAUSS1], rng.normal(size=(3, 1)), rng.normal(size=(3, 1)) + 2)
        assert w.weights.tolist() == [1.0]

    def test_proportional_to_values(self):
        rng = stream(43)
        pos = rng.normal(size=(8, 2))
        neg = rng.normal(size=(8, 2)) + 1.0
        kernels = [BaseKernel("gaussian", r) for r in (0.5, 1.0, 2.0)]
        weights = mixing_weights(kernels, pos, neg)
        values = np.array([mmd_score(k, pos, neg).value for k in kernels])
        assert np.allclose(weights.weights, values / values.sum(), atol=1e-12)
        assert not weights.degenerate

    def test_degenerate_uniform(self):
        pos = stream(44).normal(size=(5, 2))
        kernels = [BaseKernel("gaussian", r) for r in (0.5, 1.0)]
        weights = mixing_weights(kernels, pos, pos.copy())
        assert weights.degenerate
        assert np.allclose(weights.weights, 0.5)

    def test_simplex_invariants(self):
        rng = stream(45)
        for _ in range(50):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(2, 9))
            pos = rng.normal(size=(n, 2))
            neg = rng.normal(size=(n, 2)) + rng.normal()
            kernels = [BaseKernel("gaussian", float(r)) for r in rng.uniform(0.3, 3.0, size=m)]
            w = mixing_weights(kernels, pos, neg).weights
            assert abs(w.sum() - 1.0) <= 1e-12
            assert (w >= 0).all()


class TestClosedForm:
    def test_equal_means_zero(self):
        mu = np.array([0.3, -0.7])
        assert gaussian_mmd_squared_closed_form(mu, mu, 1.5, 0.9) == 0.0

    def test_dirac_limit(self):
        mu_p, mu_q, rho = np.array([0.0, 0.0]), np.array([1.0, 2.0]), 1.3
        gap = 5.0
        dirac = 2.0 - 2.0 * math.exp(-gap / (2.0 * rho**2))
        got = gaussian_mmd_squared_closed_form(mu_p, mu_q, 0.0, rho)
        assert got == pytest.approx(dirac, abs=1e-12)
        value = gaussian_mmd_closed_form(mu_p, mu_q, 0.0, rho)
        assert value == pytest.approx(math.sqrt(dirac), abs=1e-12)

    def test_frozen_monte_carlo_reference(self):
        # 10^6-draw oracle (tests/oracles.py, seed 123) at d=1, mu 0 -> 1,
        # sigma^2 = 1, rho = 1 gave 0.177360 +- 0.000628.
        mc, se = 0.17736040281879204, 0.0006283417813775918
        conv = gaussian_mmd_squared_closed_form([0.0], [1.0], 1.0, 1.0)
        assert abs(conv - mc) <= 3 * se

    def test_bad_args(self):
        with pytest.raises(ConfigError):
            gaussian_mmd_squared_closed_form([0.0], [1.0], -1.0, 1.0)
        with pytest.raises(ConfigError):
            gaussian_mmd_squared_closed_form([0.0], [1.0], 1.0, 0.0)


class TestProbes:
    def test_convergence_probe_deterministic(self):
        pop = gaussian_mmd_closed_form(np.zeros(2), np.array([1.0, 0.0]), 1.0, 1.0)
        sample_p = lambda rng, n: rng.normal(size=(n, 2))
        sample_q = lambda rng, n: rng.normal(size=(n, 2)) + np.array([1.0, 0.0])
        a = mmd_convergence_probe(sample_p, sample_q, GAUSS1, pop, [50, 100], trials=3, seed=5)
        b = mmd_convergence_probe(sample_p, sample_q, GAUSS1, pop, [50, 100], trials=3, seed=5)
        assert a == b

    def test_null_errors_shrink(self):
        sampler = lambda rng, n: rng.normal(size=(n, 1))
        probe = mmd_convergence_probe(sampler, sampler, GAUSS1, 0.0, [20, 320], trials=10, seed=8)
        rows = probe["rows"]
        assert rows[-1]["mean_abs_error"] < rows[0]["mean_abs_error"]


class TestMixtureWeightsType:
    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            MixtureWeights(np.array([0.5, -0.1]))

    def test_normalizes(self):
        w = MixtureWeights(np.array([2.0, 2.0]))
        assert np.allclose(w.weights, 0.5)

    @pytest.mark.parametrize("weights", [[0.0, 0.0], [math.nan, 1.0], [math.inf, 1.0]])
    def test_rejects_degenerate(self, weights):
        with pytest.raises(ConfigError, match="finite, nonnegative and not all zero"):
            MixtureWeights(np.array(weights))

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=8))
    def test_from_scores_lies_on_the_simplex(self, values):
        w = MixtureWeights.from_scores(values)
        assert (w.weights >= 0.0).all()
        assert abs(w.weights.sum() - 1.0) <= 1e-12
        all_zero = all(v == 0.0 for v in values)
        assert w.degenerate == all_zero
        if all_zero:
            assert w.weights.tolist() == [1.0 / len(values)] * len(values)
