import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kernelmix.cli import DATA_GAMMAS
from kernelmix.data import LabeledDataset, holdout_split, split_by_label, standardize
from kernelmix.errors import ConfigError, DataError
from kernelmix.kernels import BaseKernel
from kernelmix.mmd import MixtureWeights, mixing_weights
from kernelmix.rff import FeatureBank
from kernelmix.rng import stream
from kernelmix.select import (
    compare_selection,
    cv_bandwidth_select,
    kernel_feature_select,
    mmd_bandwidth_select,
    project_capped_box,
    relaxed_objective,
)
from kernelmix.svm import TrainConfig
from kernelmix.synthetic import planted_feature_dataset, two_gaussian_dataset
from oracles import reference_relaxed_objective

FAST_CFG = TrainConfig(R=20.0, lam=0.01, epochs=15, step_size=0.5)


def small_task(seed=0, n=60):
    ds = two_gaussian_dataset(n=n, dim=3, separation=1.5, seed=seed)
    return standardize(ds)[0]


class TestGrid:
    def test_default_range(self):
        grid = DATA_GAMMAS
        assert grid[0] == pytest.approx(1e-20)
        assert grid[-1] == pytest.approx(1e3)
        assert (np.diff(grid) > 0).all()


class TestMmdSelect:
    def test_single_gamma(self):
        ds = small_task()
        best, rows, degenerate = mmd_bandwidth_select(ds, [0.5])
        assert best == 0.5 and len(rows) == 1 and not degenerate

    def test_degenerate_identical_classes(self):
        X = stream(90).normal(size=(6, 2))
        ds = LabeledDataset(
            np.vstack([X, X]), np.concatenate([np.ones(6, dtype=int), -np.ones(6, dtype=int)])
        )
        best, rows, degenerate = mmd_bandwidth_select(ds, [0.01, 0.1, 1.0])
        assert degenerate
        assert best == 0.01  # tie rule: smallest gamma
        assert all(r["mmd_score"] == 0.0 for r in rows)

    def test_scores_vary_smoothly(self):
        ds = small_task()
        _best, rows, _deg = mmd_bandwidth_select(ds, np.geomspace(1e-4, 1e2, 13))
        scores = [r["mmd_score"] for r in rows]
        assert all(np.isfinite(scores))
        gaps = np.abs(np.diff(scores))
        assert gaps.max() <= 0.8  # simulation-frozen bound for this task

    @pytest.mark.parametrize(
        "labels",
        [
            [1, -1, -1],  # the biased estimator's class-size check
            [1, -1],  # the paired U-statistic's sample-count check
        ],
        ids=["unbalanced", "balanced"],
    )
    def test_needs_two_per_class(self, labels):
        ds = LabeledDataset(np.zeros((len(labels), 1)), np.array(labels))
        with pytest.raises(DataError):
            mmd_bandwidth_select(ds, [1.0])


class TestCvSelect:
    def test_single_gamma(self):
        ds = small_task()
        best, rows = cv_bandwidth_select(ds, [0.5], folds=3, cfg=FAST_CFG, draws=32, seed=0)
        assert best == 0.5 and len(rows) == 1

    def test_argmax_definition(self):
        ds = small_task()
        gammas = [0.001, 0.1, 10.0]
        best, rows = cv_bandwidth_select(ds, gammas, folds=3, cfg=FAST_CFG, draws=32, seed=0)
        means = [r["cv_mean"] for r in rows]
        assert best == gammas[int(np.argmax(means))]
        assert max(means) - means[gammas.index(best)] <= 0.01 * max(means)

    def test_deterministic(self):
        ds = small_task()
        a = cv_bandwidth_select(ds, [0.1, 1.0], folds=3, cfg=FAST_CFG, draws=32, seed=4)
        b = cv_bandwidth_select(ds, [0.1, 1.0], folds=3, cfg=FAST_CFG, draws=32, seed=4)
        assert a == b

    def test_rejects_unsorted_grid(self):
        ds = small_task()
        with pytest.raises(ConfigError):
            cv_bandwidth_select(ds, [1.0, 0.1], folds=3, cfg=FAST_CFG, draws=32, seed=0)


class TestCompareSelection:
    def test_single_gamma_trivially_agrees(self):
        ds = small_task(n=80)
        report = compare_selection(ds, [0.5], folds=3, cfg=FAST_CFG, draws=32, seed=0)
        assert report.agreement
        assert report.cv_gamma == report.mmd_gamma == 0.5

    def test_report_shape_and_determinism(self):
        ds = small_task(n=80)
        gammas = [0.01, 0.1, 1.0]
        a = compare_selection(ds, gammas, folds=3, cfg=FAST_CFG, draws=32, seed=1)
        b = compare_selection(ds, gammas, folds=3, cfg=FAST_CFG, draws=32, seed=1)
        assert len(a.rows) == 3
        assert {"cv", "mmd", "mixture"} <= set(a.test_accuracy)
        # to_dict leaves out the timings, which differ between runs
        da, db = a.to_dict(), b.to_dict()
        assert da == db

    def test_mixture_weights_match_mixing_weights(self, monkeypatch):
        ds = small_task(seed=3, n=80)
        gammas = [0.01, 0.1, 1.0, 10.0]
        banks = []
        generate = FeatureBank.generate.__func__

        def spy(cls, *args, **kwargs):
            bank = generate(cls, *args, **kwargs)
            banks.append(bank)
            return bank

        monkeypatch.setattr(FeatureBank, "generate", classmethod(spy))
        compare_selection(ds, gammas, folds=3, cfg=FAST_CFG, draws=32, seed=5)
        mixture = [b.weights for b in banks if len(b.kernels) == len(gammas)]
        train_idx, _test_idx = holdout_split(ds, 0.25, 5)
        train_ds = LabeledDataset(ds.features[train_idx], ds.labels[train_idx])
        kernels = [BaseKernel.from_gamma("gaussian", g) for g in gammas]
        expected = mixing_weights(kernels, *split_by_label(train_ds))
        assert len(mixture) == 1
        assert np.array_equal(mixture[0].weights, expected.weights)
        assert mixture[0].degenerate == expected.degenerate


class TestProjection:
    def test_random_vectors(self):
        rng = stream(91)
        for _ in range(50):
            d = int(rng.integers(2, 12))
            cap = float(rng.uniform(1.0, d))
            v = rng.normal(scale=3.0, size=d)
            p = project_capped_box(v, cap)
            assert np.all(p >= 0.0) and np.all(p <= 1.0)
            assert p.sum() <= cap + 1e-9

    def test_feasible_point_unchanged(self):
        v = np.array([0.2, 0.3, 0.1])
        assert np.array_equal(project_capped_box(v.copy(), 2.0), v)

    def test_exact_projection_not_rescaling(self):
        # rescaling (2, 0.5) after clamping gives (2/3, 1/3); the nearest
        # feasible point is (1, 0)
        p = project_capped_box(np.array([2.0, 0.5]), 1.0)
        assert np.allclose(p, [1.0, 0.0], atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        u=arrays(np.float64, st.integers(1, 12), elements=st.floats(-3.0, 4.0)),
        cap_fraction=st.floats(0.0, 1.2),
    )
    def test_kkt_conditions(self, u, cap_fraction):
        cap = cap_fraction * u.shape[0]
        p = project_capped_box(u, cap)
        assert np.all(p >= 0.0) and np.all(p <= 1.0)
        assert p.sum() <= cap + 1e-9
        # p = clip(u - tau, 0, 1) for some tau >= 0: the tau each coordinate
        # allows must overlap
        free = (p > 0.0) & (p < 1.0)
        lo = max([0.0, *u[p == 0.0], *(u - p)[free]])
        hi = min([np.inf, *(u[p == 1.0] - 1.0), *(u - p)[free]])
        assert lo <= hi + 1e-9
        # either tau = 0 or the budget is tight
        if p.sum() < cap - 1e-9:
            assert np.array_equal(p, np.clip(u, 0.0, 1.0))


class TestFeatureSelect:
    def _bank(self, dim, seed=0, draws=96):
        kernel = BaseKernel.from_gamma("gaussian", 0.5)
        return FeatureBank.generate([kernel], MixtureWeights(np.array([1.0])), draws, dim, seed)

    def test_all_features_when_budget_full(self):
        ds, _planted = planted_feature_dataset(n=40, dim=4, seed=0)
        mask = kernel_feature_select(
            ds.features, ds.labels.astype(float), self._bank(4), m_sel=4, steps=10
        )
        assert mask.mask.all()

    def test_descent_never_worse_than_uniform(self):
        ds, _planted = planted_feature_dataset(n=50, dim=5, seed=1)
        mask = kernel_feature_select(
            ds.features, ds.labels.astype(float), self._bank(5, seed=2), m_sel=2, steps=60
        )
        assert mask.objective <= mask.initial_objective
        assert mask.mask.sum() == 2

    def test_relaxed_iterate_feasible(self):
        ds, _planted = planted_feature_dataset(n=50, dim=6, seed=2)
        mask = kernel_feature_select(
            ds.features, ds.labels.astype(float), self._bank(6, seed=3), m_sel=3, steps=60
        )
        assert np.all(mask.omega >= 0.0) and np.all(mask.omega <= 1.0)
        assert mask.omega.sum() <= 3.0 + 1e-9

    def test_planted_feature_recovered(self):
        hits = 0
        for seed in range(3):
            ds, planted = planted_feature_dataset(n=100, dim=6, seed=seed)
            mask = kernel_feature_select(
                ds.features, ds.labels.astype(float), self._bank(6, seed=seed + 10), m_sel=2, steps=80
            )
            hits += bool(mask.mask[planted])
        assert hits == 3

    def test_rff_gradient_matches_finite_differences(self):
        ds, _planted = planted_feature_dataset(n=40, dim=5, seed=3)
        bank = self._bank(5, seed=4, draws=48)
        y = ds.labels.astype(float)
        rng = stream(92)
        eps = 0.001 / 40
        for _ in range(20):
            omega = rng.uniform(0.2, 0.8, size=5)
            _obj, grad = relaxed_objective(ds.features, y, bank, omega, eps)
            fd = np.zeros(5)
            h = 1e-6
            for k in range(5):
                e = np.zeros(5)
                e[k] = h
                op, _ = relaxed_objective(ds.features, y, bank, omega + e, eps)
                om, _ = relaxed_objective(ds.features, y, bank, omega - e, eps)
                fd[k] = (op - om) / (2 * h)
            assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12) <= 1e-4

    def test_matches_reference_objective(self):
        rng = stream(93)
        for seed in range(5):
            n, dim = 30 + 10 * seed, 4
            X = rng.normal(size=(n, dim))
            y = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
            kernels = [
                BaseKernel.from_gamma(f, g)
                for f, g in (("gaussian", 0.2), ("laplacian", 0.5), ("gaussian", 1.0))
            ]
            weights = MixtureWeights(rng.uniform(0.1, 1.0, size=3))
            bank = FeatureBank.generate(kernels, weights, 24, dim, seed)
            omega = rng.uniform(0.0, 1.0, size=dim)
            eps = 0.001 / n
            obj, grad = relaxed_objective(X, y, bank, omega, eps)
            want_obj, want_grad = reference_relaxed_objective(X, y, bank, omega, eps)
            assert abs(obj - want_obj) <= 1e-9 * abs(want_obj)
            assert np.linalg.norm(grad - want_grad) <= 1e-7 * np.linalg.norm(want_grad)

    def test_bad_budget(self):
        ds, _planted = planted_feature_dataset(n=20, dim=3, seed=6)
        for m_sel in (0, 4, True, 2.0):
            with pytest.raises(ConfigError):
                kernel_feature_select(ds.features, ds.labels.astype(float), self._bank(3), m_sel=m_sel)
