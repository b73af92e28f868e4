import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from kernelmix import diagnostics
from kernelmix.diagnostics import (
    _erfc_tail,
    _top_eigenvalue,
    _UpperStrips,
    complexity_bounds,
    empirical_sup_error,
    frobenius_concentration,
    pointwise_error_bound,
    probe_pass,
    spectral_concentration,
)
from kernelmix.errors import ConfigError, DataError
from kernelmix.kernels import FAMILIES, BaseKernel, mixture_gram
from kernelmix.mmd import MixtureWeights, mixing_weights
from kernelmix.rff import (
    FeatureBank,
    _panels,
    build_feature_matrix,
    sample_frequencies,
    spectral_second_moment,
    weighted_block,
)
from kernelmix.rng import stream
from kernelmix.synthetic import two_gaussian_dataset
from oracles import (
    eigsh_top_eigenvalue,
    feature_map,
    oracle_frobenius_concentration,
    oracle_kernel,
    oracle_spectral_concentration,
    svd_complexity_bounds,
)

GAUSS1 = BaseKernel("gaussian", 1.0)


def probe(X, kernels, weights, draws, seeds):
    """(report, concentration row) of one D, bounds on the first seed."""
    return probe_pass(X, kernels, weights, [draws], seeds, 1.0)[0]


@st.composite
def feature_matrices(draw):
    """(Phi, draws, m) with n < mD, n > mD, n = mD or rank below min(n, mD)."""
    m, draws = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    total = m * draws
    shape = draw(st.sampled_from(("n < mD", "n > mD", "n = mD", "rank-deficient")))
    if shape == "n < mD" and total > 1:
        n = draw(st.integers(1, total - 1))
    elif shape == "n > mD":
        n = draw(st.integers(total + 1, total + 10))
    else:
        n = total if shape != "rank-deficient" else draw(st.integers(2, 12))
    rng = stream(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(0.1, 10.0))
    if shape == "rank-deficient" and min(n, total) > 1:
        rank = draw(st.integers(1, min(n, total) - 1))
        Phi = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, total))
    else:
        Phi = rng.normal(size=(n, total))
    return scale * Phi, draws, m


def sigma_p(kernel, dim):
    """sqrt of the spectral second moment, as the diagnose command computes it."""
    return math.sqrt(spectral_second_moment(kernel, dim))


@st.composite
def psd_grams(draw):
    """A A^T with sides 1-60; A has fewer columns than rows in the rank-deficient cases."""
    n = draw(st.integers(1, 60))
    cols = draw(st.integers(1, n - 1)) if n > 1 and draw(st.booleans()) else n
    A = stream(draw(st.integers(0, 2**32 - 1))).normal(size=(n, cols))
    return draw(st.floats(1e-3, 1e3)) * (A @ A.T)


class TestTopEigenvalue:
    @settings(max_examples=200, deadline=None)
    @given(G=psd_grams())
    def test_matches_full_spectrum(self, G):
        assert math.isclose(_top_eigenvalue(G), np.linalg.eigvalsh(G)[-1], rel_tol=1e-12)

    @pytest.mark.parametrize(
        "G",
        [
            np.eye(7),
            np.ones((9, 9)),
            np.array([[2.5]]),
            np.array([[2.0, 1.0], [1.0, 3.0]]),
            np.array([[2.0, -2.0], [-2.0, 2.0]]),  # G 1 = 0: a ones start vector fails here
            np.kron(np.eye(3), np.array([[1.0, -1.0], [-1.0, 1.0]])) + np.diag(np.arange(6) / 10.0),
            mixture_gram([BaseKernel.from_gamma("gaussian", 1e4)], np.ones(1), stream(113).normal(size=(300, 3))),
        ],
        ids=["identity", "ones-rank-1", "1x1", "2x2", "ones-in-null-space", "blocks", "Kw-gamma-1e4"],
    )
    def test_named_cases(self, G):
        assert math.isclose(_top_eigenvalue(G), np.linalg.eigvalsh(G)[-1], rel_tol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(value=st.floats(0.0, 1e300))
    def test_one_by_one_is_its_entry(self, value):
        # the start vector normalizes to exactly [1.0], so the first step returns the entry
        assert _top_eigenvalue(np.array([[value]])) == value

    def test_reruns_bit_identical(self):
        A = stream(114).normal(size=(80, 30))
        G = A @ A.T
        assert _top_eigenvalue(G) == _top_eigenvalue(G)

    @pytest.mark.parametrize("gram", ["Kw", "PhiPhiT-512", "PhiPhiT-2048"])
    def test_matches_arpack_on_benchmark_grams(self, benchmark_grams, gram):
        # the diagnose benchmark's Grams: n = 800, gammas 0.05/0.5/5, D = 512 and 2048
        G = benchmark_grams[gram]
        assert math.isclose(_top_eigenvalue(G), eigsh_top_eigenvalue(G), rel_tol=1e-14)

    @pytest.mark.parametrize("basis", [2, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_restarts_converge_with_a_small_basis(self, monkeypatch, basis, seed):
        monkeypatch.setattr(diagnostics, "_LANCZOS_BASIS", basis)
        A = stream(115, seed).normal(size=(60, 60))
        G = A @ A.T
        assert math.isclose(_top_eigenvalue(G), np.linalg.eigvalsh(G)[-1], rel_tol=1e-12)

    def test_restarts_when_the_basis_fills(self, monkeypatch):
        # eigenvalues evenly spaced on [0, 1]: the top one is only 1/399 from
        # the next, so Lanczos needs more steps than the basis holds
        G = np.diag(np.linspace(0.0, 1.0, 400))
        steps = []
        ritz_pair = diagnostics._top_ritz_pair
        monkeypatch.setattr(diagnostics, "_top_ritz_pair", lambda a, b: steps.append(len(a)) or ritz_pair(a, b))
        assert math.isclose(_top_eigenvalue(G), 1.0, rel_tol=1e-12)
        assert max(steps) == diagnostics._LANCZOS_BASIS
        assert steps.count(1) >= 2, "no restart"


@pytest.fixture(scope="module")
def benchmark_grams():
    ds = two_gaussian_dataset(n=800, dim=5, seed=3)
    kernels = [BaseKernel.from_gamma("gaussian", g) for g in (0.05, 0.5, 5.0)]
    y = ds.labels
    weights = mixing_weights(kernels, ds.features[y == 1], ds.features[y == -1])
    grams = {"Kw": mixture_gram(kernels, weights.weights, ds.features)}
    for draws in (512, 2048):
        Phi = build_feature_matrix(ds.features, FeatureBank.generate(kernels, weights, draws, 5, seed=3))
        grams[f"PhiPhiT-{draws}"] = Phi @ Phi.T
    return grams


class TestErfcTail:
    @settings(max_examples=500, deadline=None)
    @given(x=st.floats(math.sqrt(192.0), 27.0))
    def test_bit_identical_to_scipy(self, x):
        assert _erfc_tail(x) == erfc(x)

    def test_bit_identical_at_every_display_argument(self):
        # the paper's displayed argument sqrt(192 D) for D = 1 ... 10^4, which is
        # also erfc_bound's argument at an integer stable rank ||Phi||_F^2 / |||Phi|||_2^2
        arguments = [math.sqrt(192.0 * draws) for draws in range(1, 10_001)]
        assert [_erfc_tail(x) for x in arguments] == erfc(arguments).tolist()

    def test_underflow_cutoff(self):
        # exp(-x^2) is taken as 0.0 once x^2 exceeds Cephes' MAXLOG
        cutoff = math.sqrt(709.782712893384)
        for x in (math.nextafter(cutoff, 0.0), cutoff, math.nextafter(cutoff, math.inf), 40.0, math.inf):
            assert _erfc_tail(x) == erfc(x), x
        assert _erfc_tail(math.nextafter(cutoff, 0.0)) > 0.0
        assert _erfc_tail(math.nextafter(cutoff, math.inf)) == 0.0

    @pytest.mark.parametrize("x", [math.nextafter(8.0, 0.0), 1.0, 0.0, -9.0, math.nan, -math.inf])
    def test_refuses_outside_the_tail(self, x):
        with pytest.raises(ValueError):
            _erfc_tail(x)


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

    @pytest.mark.parametrize(
        "columns, draws, m", [(8, 3, 2), (8, 7, 1), (8, 2, 3), (0, 5, 0), (3, -3, -1), (4, 2.0, 2), (3, 3, True)]
    )
    def test_columns_other_than_m_blocks_rejected(self, columns, draws, m):
        with pytest.raises(ConfigError, match="m \\* draws"):
            complexity_bounds(stream(105).normal(size=(4, columns)), R=1.0, draws=draws, m=m)

    @pytest.mark.parametrize("rows, R", [(0, 1.0), (4, -2.0), (4, 0.0), (4, math.inf), (4, math.nan)])
    def test_rows_and_R_checked_before_the_gram(self, monkeypatch, rows, R):
        calls = []
        monkeypatch.setattr(diagnostics, "_kernel_block_gram", lambda *a: calls.append(a))
        with pytest.raises(ConfigError):
            complexity_bounds(stream(105).normal(size=(rows, 6)), R=R, draws=3, m=2)
        assert calls == []

    def test_zero_matrix_rejected(self):
        with pytest.raises(ConfigError):
            complexity_bounds(np.zeros((3, 3)), R=1.0, draws=3, m=1)

    # numpy warns about inf * 0 and an overflowing Gram on its way to the refusal
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning", "ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("entry", [math.nan, math.inf, 1e200])
    def test_non_finite_matrix_rejected(self, entry):
        Phi = np.zeros((3, 3))
        Phi[1, 2] = entry
        with pytest.raises(ConfigError):
            complexity_bounds(Phi, R=1.0, draws=3, m=1)

    @settings(max_examples=200, deadline=None)
    @given(case=feature_matrices(), R=st.floats(0.1, 100.0))
    def test_matches_svd_oracle(self, case, R):
        # the erfc term underflows to 0 near erfc(26.5); the absolute floor
        # covers the subnormal results just above it
        Phi, draws, m = case
        got, want = asdict(complexity_bounds(Phi, R, draws, m)), svd_complexity_bounds(Phi, R, draws, m)
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert math.isclose(got[key], value, rel_tol=1e-10, abs_tol=1e-300), key


class TestConcentration:
    def test_trace_reference_is_n_for_unit_diagonal(self):
        # tr(K^w) = n, so each seed's ||Phi||_F^2 deviates from D n
        X = stream(104).normal(size=(12, 3))
        kernels = [GAUSS1, BaseKernel("gaussian", 2.0)]
        w = MixtureWeights(np.array([0.25, 0.75]))
        _report, row = probe(X, kernels, w, draws=16, seeds=[0, 1])
        devs = [
            abs(float((build_feature_matrix(X, FeatureBank.generate(kernels, w, 16, 3, seed)) ** 2).sum()) - 16 * 12)
            / (16 * 12)
            for seed in (0, 1)
        ]
        assert row["frobenius_max_deviation"] == pytest.approx(max(devs), rel=1e-12)
        assert row["frobenius_mean_deviation"] == pytest.approx(np.mean(devs), rel=1e-12)

    def test_frobenius_deviation_small_at_large_draws(self):
        X = stream(105).normal(size=(30, 2))
        _report, row = probe(X, [GAUSS1], [1.0], draws=4096, seeds=[0, 1, 2])
        assert row["frobenius_max_deviation"] <= 0.05

    def test_single_draw_runs_without_assertion(self):
        X = stream(106).normal(size=(10, 2))
        _report, row = probe(X, [GAUSS1], [1.0], draws=1, seeds=[0, 1])
        # deviations are large here; report only
        assert math.isfinite(row["frobenius_max_deviation"]) and math.isfinite(row["spectral_max_deviation"])

    def test_spectral_one_hot_matches_single_kernel(self):
        X = stream(107).normal(size=(15, 2))
        kernels = [GAUSS1, BaseKernel("gaussian", 3.0)]
        one_hot = probe(X, kernels, [1.0, 0.0], draws=256, seeds=[3])[1]
        single = probe(X, [GAUSS1], [1.0], draws=256, seeds=[3])[1]
        for key in ("spectral_max_deviation", "spectral_mean_deviation"):
            assert one_hot[key] == pytest.approx(single[key])

    def test_spectral_size_guard(self):
        with pytest.raises(ConfigError):
            probe(np.zeros((2001, 2)), [GAUSS1], [1.0], draws=4, seeds=[0])

    @pytest.mark.parametrize(
        "n, sweep, seeds",
        [(12, [4, 64], [1, 0, 2]), (40, [3, 8], [9, 5, 2]), (20, [10], [4])],
    )
    def test_matches_per_seed_oracles(self, n, sweep, seeds):
        # n = 40 with D = 3 or 8 puts n above mD: each block is one panel
        X = stream(112, n).normal(size=(n, 3))
        kernels = [BaseKernel("gaussian", 0.7), BaseKernel("laplacian", 1.5)]
        weights = [0.3, 0.7]
        rows = probe_pass(X, kernels, weights, sweep, seeds, 2.0)
        assert len(rows) == len(sweep)
        for draws, (report, row) in zip(sweep, rows):
            assert row["draws"] == draws
            want_fro = oracle_frobenius_concentration(X, kernels, weights, draws, seeds)
            want_spec = oracle_spectral_concentration(X, kernels, weights, draws, seeds)
            for name, want in (("frobenius", want_fro), ("spectral", want_spec)):
                assert row[f"{name}_max_deviation"] == pytest.approx(want["max_deviation"], rel=1e-12)
                assert row[f"{name}_mean_deviation"] == pytest.approx(want["mean_deviation"], rel=1e-12)
            bank = FeatureBank.generate(kernels, MixtureWeights(np.array(weights)), draws, 3, seeds[0])
            Phi = build_feature_matrix(X, bank)
            assert asdict(report) == pytest.approx(svd_complexity_bounds(Phi, 2.0, draws, 2), rel=1e-10)

    @pytest.mark.parametrize("sweep", [[], [0], [-3], [64, 0], [True], [64, 2.0]])
    def test_sweep_checked_before_any_work(self, monkeypatch, sweep):
        calls = []
        monkeypatch.setattr(diagnostics, "mixture_gram", lambda *a: calls.append(a))
        with pytest.raises(ConfigError, match="draw sweep"):
            probe_pass(np.zeros((5, 2)), [GAUSS1], [1.0], sweep, [0], 1.0)
        assert calls == []

    @pytest.mark.parametrize(
        "shape, R", [((0, 2), 1.0), ((5, 0), 1.0), ((5, 2), -2.0), ((5, 2), 0.0), ((5, 2), math.inf), ((5, 2), math.nan)]
    )
    def test_rows_columns_and_R_checked_before_any_work(self, monkeypatch, shape, R):
        calls = []
        monkeypatch.setattr(diagnostics, "mixture_gram", lambda *a: calls.append(a))
        monkeypatch.setattr(diagnostics.FeatureBank, "generate", lambda *a: calls.append(a))
        with pytest.raises(ConfigError):
            probe_pass(np.zeros(shape), [GAUSS1], [1.0], [64], [0], R)
        assert calls == []

    def test_bit_identical_to_fresh_feature_matrices(self):
        # three seeds, so each D sums three Grams from the shared buffers; every
        # number must match a fresh Phi's, and the bounds row is the first seed's
        X = stream(113).normal(size=(30, 3))
        kernels = [BaseKernel("gaussian", 0.7), BaseKernel("laplacian", 1.5), BaseKernel("gaussian", 3.0)]
        weights = MixtureWeights(np.array([0.2, 0.5, 0.3]))
        sweep, seeds = [7, 40, 16], [5, 0, 1]
        rows = probe_pass(X, kernels, weights, sweep, seeds, 2.0)
        Kw = mixture_gram(kernels, weights.weights, X)
        trace_kw, spectral_kw = float(np.trace(Kw)), _top_eigenvalue(Kw)
        for draws, (report, row) in zip(sweep, rows):
            trials = [
                complexity_bounds(
                    build_feature_matrix(X, FeatureBank.generate(kernels, weights, draws, 3, seed)), 2.0, draws, 3
                )
                for seed in seeds
            ]
            assert report == trials[0]
            assert row == {
                "draws": draws,
                **frobenius_concentration(trials, trace_kw),
                **spectral_concentration(trials, spectral_kw),
            }

    def test_memory_holds_one_block_and_two_grams(self):
        # n > mD at D = 16 and n <= mD at the others: at every D the pass
        # holds one panel of at most 256 columns, G and one strip of a
        # panel's Gram, never Phi nor a whole n x D block
        n, d, sweep = 100, 5, [16, 64, 1024]
        X = stream(114).normal(size=(n, d))
        kernels = [BaseKernel("gaussian", 0.5), BaseKernel("laplacian", 1.0), BaseKernel("gaussian", 2.0),
                   BaseKernel("gaussian", 8.0)]
        weights = [0.1, 0.2, 0.3, 0.4]
        probe_pass(X, kernels, weights, [4], [0], 1.0)  # lazy imports and caches outside the measurement
        tracemalloc.start()
        try:
            probe_pass(X, kernels, weights, sweep, [5, 0, 1], 1.0)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 512 KiB covers the banks and numpy's fixed ufunc buffers
        bound = 8 * 3 * n * n + 512 * 1024
        assert peak <= bound, (peak, bound)

    def test_memory_does_not_grow_with_the_draw_count(self):
        # a kernel block eight times wider than at D = 2n is summed in more
        # panels of at most 256 columns: the peak grows by less than the
        # wider bank, and stays within three n x n arrays
        n, d = 200, 2
        X = stream(116).normal(size=(n, d))
        kernels = [BaseKernel("gaussian", 0.8), BaseKernel("laplacian", 2.0)]
        weights = [0.4, 0.6]
        probe_pass(X, kernels, weights, [4], [0], 1.0)  # lazy imports and caches outside the measurement
        peaks = []
        for draws in (2 * n, 16 * n):
            tracemalloc.start()
            try:
                probe_pass(X, kernels, weights, [draws], [3, 0], 1.0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        bank = len(kernels) * 16 * n * (d + 1) * 8  # frequencies and phases at D = 16n
        assert peaks[1] - peaks[0] <= bank, (peaks, bank)
        assert peaks[1] <= 8 * 3 * n * n + 512 * 1024, peaks

    def test_memory_does_not_grow_with_the_kernel_count(self):
        # n <= mD, so the Gram is summed one panel of a kernel block at a time:
        # five more kernels add their banks and less than one block
        n, draws = 200, 512
        X = stream(115).normal(size=(n, 5))
        peaks = []
        for m in (1, 6):
            kernels = [BaseKernel("gaussian", rho) for rho in np.geomspace(0.3, 3.0, m)]
            weights = np.full(m, 1.0 / m)
            probe_pass(X, kernels, weights, [4], [0], 1.0)  # lazy imports and caches outside the measurement
            tracemalloc.start()
            try:
                probe_pass(X, kernels, weights, [draws], [0], 1.0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 8 * n * draws, peaks


class TestPanels:
    @settings(max_examples=300, deadline=None)
    @given(draws=st.integers(1, 5000))
    def test_aligned_panels_cover_the_block_once(self, draws):
        # every edge on a multiple of 256 counted from column 0; only the last panel may be narrower
        panels = _panels(draws)
        assert [p.start for p in panels] == list(range(0, draws, 256))
        assert [p.stop for p in panels] == [min(p.start + 256, draws) for p in panels]
        assert panels[-1].stop == draws and 0 < panels[-1].stop - panels[-1].start <= 256

    def test_panels_keep_the_bits_of_the_whole_block(self):
        # the whole block is projected panel by panel too, so a block built
        # from one panel's draws is that panel's columns on any BLAS and at
        # any dimension, also a small n with d >= 33
        kernels = [BaseKernel.from_gamma("gaussian", g) for g in (0.05, 0.5, 5.0)]
        weights = MixtureWeights(np.array([0.2, 0.3, 0.5]))
        for n, dim in ((800, 5), (60, 3), (7, 2), (3, 33), (17, 50)):
            X = stream(117).normal(size=(n, dim))
            for draws in (2048, 2047, 1000, 300, 257, 37):
                bank = FeatureBank.generate(kernels, weights, draws, dim, 0)
                panels = _panels(draws)
                for l in range(3):
                    whole = weighted_block(X, bank, l)
                    assert np.array_equal(np.hstack([weighted_block(X, bank, l, cols=c) for c in panels]), whole)


@st.composite
def panelled_matrices(draw):
    """(Phi, panels): n in 1..300 rows, crossing strip edges, split into panels down to one column."""
    n, columns = draw(st.integers(1, 300)), draw(st.integers(1, 40))
    cuts = draw(st.lists(st.integers(1, columns - 1), max_size=columns - 1)) if columns > 1 else []
    edges = [0, *sorted(set(cuts)), columns]
    Phi = stream(draw(st.integers(0, 2**32 - 1))).normal(size=(n, columns))
    return Phi, [slice(a, b) for a, b in zip(edges, edges[1:])]


def dense(G):
    """The n x n matrix whose upper strips G holds, each strip's rows and their mirror."""
    n = G.shape[0]
    full = np.empty((n, n))
    for start, strip in zip(range(0, n, 128), G.strips):
        full[start : start + strip.shape[0], start:] = strip
        full[start:, start : start + strip.shape[0]] = strip.T
    return full


class TestKernelBlockGram:
    @settings(max_examples=150, deadline=None)
    @given(case=panelled_matrices())
    def test_symmetric_and_equal_to_the_whole_gram(self, case):
        Phi, panels = case
        G = dense(diagnostics._kernel_block_gram((Phi[:, cols] for cols in panels), _UpperStrips(Phi.shape[0])))
        want = Phi @ Phi.T
        assert np.array_equal(G, G.T)
        assert np.abs(G - want).max() <= 1e-14 * np.abs(want).max()

    @settings(max_examples=150, deadline=None)
    @given(case=panelled_matrices(), seed=st.integers(0, 2**32 - 1))
    def test_strip_reads_equal_the_dense_reads(self, case, seed):
        Phi, panels = case
        G = diagnostics._kernel_block_gram((Phi[:, cols] for cols in panels), _UpperStrips(Phi.shape[0]))
        full = dense(G)
        v = stream(seed).normal(size=G.shape[0])
        # rounding of a product is bounded by the product of the magnitudes
        assert np.abs(G @ v - full @ v).max() <= 1e-14 * (np.abs(full) @ np.abs(v)).max()
        assert G.trace() == np.trace(full)
        assert math.isclose(G.frobenius_squared(), np.einsum("ij,ij->", full, full), rel_tol=1e-13)
        assert math.isclose(_top_eigenvalue(G), _top_eigenvalue(full), rel_tol=1e-13)

    def test_one_row(self):
        G = diagnostics._kernel_block_gram(iter([np.array([[3.0, -1.0]])]), _UpperStrips(1))
        assert [strip.tolist() for strip in G.strips] == [[[10.0]]]
        assert _top_eigenvalue(G) == G.trace() == G.frobenius_squared() ** 0.5 == 10.0

    def test_bit_identical_across_strips_and_panels(self):
        # n = 300 spans three 128-row strips, D = 300 two panels and D = 64
        # one; G is reused by all four banks, so each must refill it whole
        X = stream(118).normal(size=(300, 3))
        kernels = [BaseKernel("gaussian", 0.7), BaseKernel("laplacian", 1.5)]
        weights = MixtureWeights(np.array([0.4, 0.6]))
        sweep, seeds = [300, 64], [2, 3]
        rows = probe_pass(X, kernels, weights, sweep, seeds, 1.0)
        spectral_kw = _top_eigenvalue(mixture_gram(kernels, weights.weights, X))
        for draws, (report, row) in zip(sweep, rows):
            fresh = [
                complexity_bounds(build_feature_matrix(X, FeatureBank.generate(kernels, weights, draws, 3, seed)), 1.0, draws, 2)
                for seed in seeds
            ]
            assert report == fresh[0]
            assert row == {"draws": draws, **frobenius_concentration(fresh, 300.0), **spectral_concentration(fresh, spectral_kw)}

    def test_bit_identical_to_a_fresh_phi_at_high_dimension(self):
        # n = 3 rows of d = 33 columns, D = 511: two panels whose bits, under
        # panel edges fitted to one BLAS at d <= 20, differed from Phi's
        X = stream(121, 2).normal(size=(3, 33))
        kernels = [BaseKernel("gaussian", 0.7), BaseKernel("gaussian", 3.0)]
        weights = MixtureWeights(np.array([0.4, 0.6]))
        report, _row = probe_pass(X, kernels, weights, [511], [0], 2.0)[0]
        Phi = build_feature_matrix(X, FeatureBank.generate(kernels, weights, 511, 33, 0))
        assert report == complexity_bounds(Phi, 2.0, 511, 2)

    def test_memory_holds_one_gram_one_strip_and_one_panel(self):
        # D = 700 is wider than a panel and not a multiple of 256: the pass
        # holds G, one 128-row strip and one panel of at most 256 columns
        n = 600
        X = stream(119).normal(size=(n, 5))
        kernels = [BaseKernel("gaussian", 0.5), BaseKernel("laplacian", 2.0)]
        weights = [0.3, 0.7]
        probe_pass(X, kernels, weights, [4], [0], 1.0)  # lazy imports and caches outside the measurement
        tracemalloc.start()
        try:
            probe_pass(X, kernels, weights, [100, 700], [0, 1], 1.0)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 512 KiB covers the banks and numpy's fixed ufunc buffers
        bound = 8 * (n * n + 128 * n + 256 * n) + 512 * 1024
        assert peak <= bound, (peak, bound)

    @pytest.mark.parametrize("n", [300, 600])
    def test_bank_phase_holds_the_strips_one_strip_and_one_panel(self, n):
        # the bank phase alone: three panels per kernel block go through
        # weighted_block into the Gram's upper strips, then into a report
        draws = 700
        X = stream(120).normal(size=(n, 5))
        kernels = [BaseKernel("gaussian", 0.5), BaseKernel("laplacian", 2.0)]
        bank = FeatureBank.generate(kernels, MixtureWeights(np.array([0.3, 0.7])), draws, 5, 0)

        def report():
            buffer = np.empty(n * 256)
            panels = (
                weighted_block(X, bank, l, out=buffer[: n * (cols.stop - cols.start)].reshape(n, -1), cols=cols)
                for l in range(len(kernels))
                for cols in _panels(draws)
            )
            return diagnostics._report(diagnostics._kernel_block_gram(panels, _UpperStrips(n)), n, 1.0, draws, len(kernels))

        report()  # lazy imports and caches outside the measurement
        tracemalloc.start()
        try:
            report()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        strips = sum(min(128, n - start) * (n - start) for start in range(0, n, 128))
        # the 512 KiB covers the Lanczos basis and numpy's fixed ufunc buffers
        bound = 8 * (strips + 128 * n + 256 * n) + 512 * 1024
        assert peak <= bound, (peak, bound)


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

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_eps_must_be_finite_and_positive(self, eps):
        with pytest.raises(ConfigError, match="eps must be finite and positive"):
            pointwise_error_bound(eps, 100, 2, 1.0, 2.0)

    @pytest.mark.parametrize("diam", [1e154, math.inf])  # a finite diameter whose square overflows, an infinite one
    def test_overflowing_prefactor_is_a_data_error(self, diam):
        with pytest.raises(DataError, match="the pointwise bound overflows at diameter"):
            pointwise_error_bound(0.1, 100, 2, 1.0, diam)

    @pytest.mark.parametrize("eps", [1e-200, 1e-160])  # eps^2 underflows to 0; (1/eps)^2 overflows
    @pytest.mark.parametrize("diam", [0.0, 1.0, 1e154])
    def test_overflow_at_a_unit_scale_is_the_eps_flags(self, eps, diam):
        # the bound overflows at sigma_p diam = 1 too, so the flag is to blame, not the data
        with pytest.raises(ConfigError, match="overflows at --eps .* raise --eps"):
            pointwise_error_bound(eps, 100, 2, 1.0, diam)

    def test_refuses_cauchy_sampler(self):
        bound = pointwise_error_bound(0.1, 100, 2, sigma_p(BaseKernel("laplacian", 1.0), 2), 2.0)
        assert bound == {"skipped": "infinite spectral second moment (Laplacian sampler)"}

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

    @pytest.mark.parametrize("shape, draws, pairs", [((0, 2), 64, 5), ((5, 0), 64, 5), ((5, 2), 64, 2.0), ((5, 2), 2.0, 5)])
    def test_refused_before_any_bank(self, monkeypatch, shape, draws, pairs):
        calls = []
        monkeypatch.setattr(diagnostics, "sample_frequencies", lambda *a: calls.append(a))
        with pytest.raises(ConfigError):
            empirical_sup_error(GAUSS1, draws, np.zeros(shape), pairs, seed=0)
        assert calls == []

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
