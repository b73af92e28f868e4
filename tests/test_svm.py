import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelmix.data import LabeledDataset
from kernelmix.errors import ConfigError, DataError, ModelIntegrityError
from kernelmix.kernels import BaseKernel
from kernelmix.mmd import MixtureWeights
from kernelmix.rff import FeatureBank, build_feature_matrix
from kernelmix import svm
from kernelmix.rng import stream
from kernelmix.svm import (
    SvmModel,
    TrainConfig,
    _outputs,
    accuracy,
    decision_values,
    hinge_objective,
    hinge_subgradient,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    save_model,
    train,
)
from oracles import reference_train


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def separable_feature_matrix(n=60, seed=42):
    rng = stream(seed)
    x = np.concatenate([rng.uniform(0.5, 1.5, n // 2), rng.uniform(-1.5, -0.5, n // 2)])
    return x[:, None], np.sign(x)


class TestTrain:
    def test_separable_reaches_full_accuracy(self):
        Phi, y = separable_feature_matrix()
        model = train(Phi, y, TrainConfig(R=10.0, lam=0.0, epochs=50, step_size=0.5))
        dv = Phi @ model.beta / math.sqrt(Phi.shape[1]) + model.offset
        assert (np.where(dv >= 0, 1, -1) == y).all()

    def test_huge_lambda_shrinks_beta(self):
        Phi, y = separable_feature_matrix()
        # step must scale like 1/lambda for the strongly regularized regime
        model = train(Phi, y, TrainConfig(R=10.0, lam=1e6, epochs=100, step_size=1e-6))
        assert np.linalg.norm(model.beta) <= 1e-2

    def test_tiny_radius_gives_majority_offset(self):
        rng = stream(70)
        Phi = rng.normal(size=(60, 4))
        y = np.concatenate([np.ones(40), -np.ones(20)])
        model = train(Phi, y, TrainConfig(R=1e-9, lam=0.0, epochs=100, step_size=0.5))
        dv = Phi @ model.beta / 2.0 + model.offset
        assert (np.where(dv >= 0, 1, -1) == 1).all()

    def test_ball_feasibility_every_step(self):
        Phi, y = separable_feature_matrix()
        cfg = TrainConfig(R=0.5, lam=0.0, epochs=30, step_size=2.0)
        model = train(Phi, y, cfg)
        radius = cfg.R / math.sqrt(Phi.shape[1])
        assert model.meta["max_post_step_norm"] <= radius + 1e-9
        assert np.linalg.norm(model.beta) <= radius + 1e-9

    @pytest.mark.parametrize("batch_size", [None, 16])
    def test_one_norm_per_step_when_the_ball_never_fires(self, batch_size, monkeypatch):
        # the norm _project measures is the post-step norm when beta stays inside
        Phi, y = separable_feature_matrix()
        norm, calls = np.linalg.norm, []
        monkeypatch.setattr(np.linalg, "norm", lambda a: calls.append(a) or norm(a))
        cfg = TrainConfig(R=1e6, lam=0.1, epochs=5, batch_size=batch_size, step_size=0.5)
        model = train(Phi, y, cfg)
        steps = cfg.epochs * (1 if batch_size is None else math.ceil(len(y) / batch_size))
        assert model.meta["max_post_step_norm"] < cfg.R / math.sqrt(Phi.shape[1])
        assert len(calls) == steps

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 40),
        total=st.integers(1, 12),
        batch_size=st.one_of(st.none(), st.integers(1, 50)),
        R=st.floats(1e-3, 50.0),
    )
    def test_ball_feasibility_property(self, seed, n, total, batch_size, R):
        rng = stream(seed)
        Phi = rng.normal(scale=3.0, size=(n, total))
        y = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
        y[:2] = [1.0, -1.0]
        cfg = TrainConfig(R=R, lam=0.01, epochs=5, batch_size=batch_size, step_size=2.0)
        model = train(Phi, y, cfg)
        radius = R / math.sqrt(total)
        assert model.meta["max_post_step_norm"] <= radius + 1e-9
        assert np.linalg.norm(model.beta) <= radius + 1e-9

    def test_objective_history_non_increasing(self):
        Phi, y = separable_feature_matrix()
        model = train(Phi, y, TrainConfig(R=10.0, lam=0.1, epochs=40, step_size=0.5))
        hist = np.array(model.meta["objective_history"])
        assert (np.diff(hist) <= 1e-3).all()

    def test_duplicating_rows_changes_nothing_full_batch(self):
        Phi, y = separable_feature_matrix()
        cfg = TrainConfig(R=5.0, lam=0.1, epochs=25, step_size=0.5)
        a = train(Phi, y, cfg)
        b = train(np.vstack([Phi, Phi]), np.concatenate([y, y]), cfg)
        assert np.abs(a.beta - b.beta).max() <= 1e-6
        assert abs(a.offset - b.offset) <= 1e-6

    def test_minibatch_deterministic_given_seed(self):
        Phi, y = separable_feature_matrix()
        cfg = TrainConfig(R=5.0, lam=0.1, epochs=10, batch_size=8, step_size=0.5, seed=3)
        a = train(Phi, y, cfg)
        b = train(Phi, y, cfg)
        assert np.array_equal(a.beta, b.beta) and a.offset == b.offset

    @pytest.mark.parametrize(
        "batch_size, R",
        [
            (None, 10.0),
            (None, 0.5),  # the ball projection fires
            (16, 10.0),
            (50, 0.5),
        ],
    )
    def test_matches_reference_trainer(self, batch_size, R):
        rng = stream(47)
        Phi = rng.normal(size=(120, 24))
        y = np.where(Phi[:, 0] + rng.normal(size=120) > 0, 1.0, -1.0)
        cfg = TrainConfig(R=R, lam=0.05, epochs=15, batch_size=batch_size, step_size=0.5, seed=4)
        # D = 8 draws per kernel of a 3-kernel bank, so D != mD = 24
        kernels = [BaseKernel("gaussian", rho) for rho in (0.5, 1.0, 2.0)]
        bank = FeatureBank.generate(kernels, MixtureWeights(np.ones(3)), 8, 2, 0)
        model = train(Phi, y, cfg, bank=bank)
        beta, offset, history = reference_train(
            Phi, y, R, 0.05, 15, 0.5, 8, batch_size=batch_size, rng=stream(4, 3, 0)
        )
        assert np.linalg.norm(model.beta - beta) <= 1e-12 * np.linalg.norm(beta)
        assert abs(model.offset - offset) <= 1e-12 * max(abs(offset), 1e-300)
        np.testing.assert_allclose(model.meta["objective_history"], history, rtol=1e-12, atol=0)

    def test_hinge_part_reuse_is_bit_identical(self, monkeypatch):
        # full batch forms ya @ Phi and its image under Phi once per active
        # set; on two well-separated Gaussians with a wide ball the set
        # shrinks as margins reach 1. The comparison clears the cache before
        # every step, so every step forms both anew.
        rng = stream(90)
        X = np.vstack([rng.normal(size=(40, 2)) + 3.0, rng.normal(size=(40, 2)) - 3.0])
        y = np.concatenate([np.ones(40), -np.ones(40)])
        bank = FeatureBank.generate([BaseKernel("gaussian", 2.0)], MixtureWeights(np.ones(1)), 32, 2, 0)
        Phi = build_feature_matrix(X, bank)
        cfg = TrainConfig(R=300.0, lam=1e-3, epochs=200)
        real = svm.hinge_subgradient
        masks = []

        def recording(*args, hinge=None, **kwargs):
            result = real(*args, hinge=hinge, **kwargs)
            masks.append(hinge["active"])
            return result

        monkeypatch.setattr(svm, "hinge_subgradient", recording)
        cached = train(Phi, y, cfg, bank=bank)

        def clearing(*args, hinge=None, **kwargs):
            hinge.clear()
            return real(*args, hinge=hinge, **kwargs)

        monkeypatch.setattr(svm, "hinge_subgradient", clearing)
        fresh = train(Phi, y, cfg, bank=bank)

        changes = sum(not np.array_equal(a, b) for a, b in zip(masks, masks[1:]))
        assert len(masks) == 200 and 10 <= changes < 199
        assert _same_bits(cached.beta, fresh.beta)
        assert _same_bits(np.float64(cached.offset), np.float64(fresh.offset))
        for key in ("objective_history", "max_post_step_norm"):
            assert _same_bits(np.array(cached.meta[key]), np.array(fresh.meta[key]))

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            train(np.ones((4, 2)), np.ones(4), TrainConfig())

    def test_non_finite_rejected(self):
        Phi = np.ones((4, 2))
        Phi[0, 0] = np.nan
        with pytest.raises(DataError):
            train(Phi, np.array([1, -1, 1, -1]), TrainConfig())

    @pytest.mark.parametrize("entry", [np.inf, -np.inf])
    def test_infinite_rejected(self, entry):
        # the last entry of the second row block that the check reads
        Phi = np.ones((40_000, 2))
        Phi[-1, -1] = entry
        with pytest.raises(DataError, match="non-finite"):
            train(Phi, np.tile([1, -1], 20_000), TrainConfig())

    def test_empty_feature_matrix_needs_both_classes(self):
        with pytest.raises(DataError, match="both classes"):
            train(np.ones((0, 2)), np.ones(0), TrainConfig())

    def test_feature_matrix_must_match_the_labels(self):
        with pytest.raises(ConfigError, match="does not match 3 labels"):
            train(np.ones((4, 2)), [1, -1, 1], TrainConfig())

    def test_feature_matrix_needs_columns(self):
        with pytest.raises(ConfigError, match="no columns"):
            train(np.ones((4, 0)), [1, -1, 1, -1], TrainConfig())

    def test_bad_config(self):
        for bad in (
            {"R": -1.0},
            {"lam": float("nan")},
            {"step_size": float("nan")},
            {"epochs": 0},
            {"epochs": 2.5},
            {"epochs": float("nan")},
            {"batch_size": 2.5},
            {"seed": -1},
            {"seed": 1.5},
            # a bool is not an integer
            {"epochs": True},
            {"batch_size": True},
            {"seed": False},
        ):
            with pytest.raises(ConfigError):
                TrainConfig(**bad)
        # NumPy integers are integers
        cfg = TrainConfig(epochs=np.int64(5), batch_size=np.int64(5), seed=np.int64(5))
        assert cfg.epochs == cfg.batch_size == cfg.seed == 5

    def test_minibatch_shuffle_leaves_the_bank_streams_alone(self, monkeypatch):
        # stream(seed, k) draws kernel k of a bank at that seed, so a shuffle on a
        # one-element path would order the steps by a kernel's frequencies
        paths = []

        def spy(seed, *path):
            paths.append(path)
            return stream(seed, *path)

        monkeypatch.setattr(svm, "stream", spy)
        Phi, y = separable_feature_matrix()
        train(Phi, y, TrainConfig(epochs=2, batch_size=8, seed=3))
        assert paths and all(len(path) >= 2 for path in paths)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 40),
        total=st.integers(1, 12),
        extra=st.integers(0, 10),
        R=st.floats(1e-2, 50.0),
        lam=st.sampled_from([0.0, 0.01, 0.5]),
    )
    def test_one_batch_minibatch_is_full_batch(self, seed, n, total, extra, R, lam):
        # with batch_size >= n every epoch is one step over a permutation of all rows
        rng = stream(seed)
        Phi = rng.normal(scale=2.0, size=(n, total))
        y = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
        y[:2] = [1.0, -1.0]
        full = train(Phi, y, TrainConfig(R=R, lam=lam, epochs=6, step_size=0.5))
        mini = train(Phi, y, TrainConfig(R=R, lam=lam, epochs=6, step_size=0.5, batch_size=n + extra))
        # relative to |beta|, or to one step's size where the average cancels
        scale = max(np.linalg.norm(full.beta), np.abs(Phi).max())
        assert np.linalg.norm(mini.beta - full.beta) <= 1e-12 * scale
        assert abs(mini.offset - full.offset) <= 1e-12 * max(abs(full.offset), 1e-300)
        np.testing.assert_allclose(
            mini.meta["objective_history"], full.meta["objective_history"], rtol=1e-12, atol=0
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 40),
        total=st.integers(1, 12),
        epochs=st.integers(1, 30),
        R=st.sampled_from([1e-3, 0.1, 1e3]) | st.floats(1e-2, 50.0),
        lam=st.sampled_from([0.0, 0.01, 0.5]),
    )
    def test_carried_scores_give_the_objective_of_the_model(self, seed, n, total, epochs, R, lam):
        # full batch never forms Phi @ beta after the first active set: the
        # last epoch's objective, read from the carried scores, is the
        # model's own, whether or not the ball fires
        rng = stream(seed)
        Phi = rng.normal(scale=2.0, size=(n, total))
        y = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
        y[:2] = [1.0, -1.0]
        model = train(Phi, y, TrainConfig(R=R, lam=lam, epochs=epochs, step_size=0.5))
        want = hinge_objective(Phi, y, model.beta, model.offset, lam, model.draws)
        assert model.meta["objective_history"][-1] == pytest.approx(want, rel=1e-12, abs=0)


class TestSubgradient:
    def test_no_active_row_leaves_the_penalty_alone(self):
        # every margin is past 1, so the hinge part is the sum over no rows: zeros
        Phi, y = separable_feature_matrix()
        beta, lam, cache = np.array([4.0]), 0.3, {}
        for hinge in (None, cache, cache):  # without the cache, then formed into it and read back
            g_beta, g_offset = hinge_subgradient(Phi, y, beta, 0.0, lam, 1, hinge=hinge)
            assert g_beta.tolist() == (lam * beta).tolist() and g_offset == 0.0
        assert not cache["active"].any() and cache["image"].tolist() == [0.0] * len(y)

    def test_matches_finite_differences_off_kink(self):
        rng = stream(71)
        Phi = rng.normal(size=(40, 6))
        y = np.where(rng.uniform(size=40) < 0.5, 1.0, -1.0)
        lam, draws = 0.3, 6
        checked = 0
        trial = 0
        while checked < 100:
            trial += 1
            beta = rng.normal(size=6) * 0.3
            b0 = float(rng.normal() * 0.3)
            margins = 1.0 - y * (Phi @ beta / math.sqrt(draws) + b0)
            if np.abs(margins).min() < 1e-3:
                continue  # too close to the hinge kink for a clean gradient
            g_beta, g_b0 = hinge_subgradient(Phi, y, beta, b0, lam, draws)
            h = 1e-6
            fd_beta = np.zeros(6)
            for k in range(6):
                e = np.zeros(6)
                e[k] = h
                fd_beta[k] = (
                    hinge_objective(Phi, y, beta + e, b0, lam, draws)
                    - hinge_objective(Phi, y, beta - e, b0, lam, draws)
                ) / (2 * h)
            fd_b0 = (
                hinge_objective(Phi, y, beta, b0 + h, lam, draws)
                - hinge_objective(Phi, y, beta, b0 - h, lam, draws)
            ) / (2 * h)
            denom = max(np.linalg.norm(fd_beta), 1e-12)
            assert np.linalg.norm(g_beta - fd_beta) / denom <= 1e-5
            assert abs(g_b0 - fd_b0) <= 1e-5 * max(abs(fd_b0), 1.0)
            checked += 1
            assert trial < 10_000


def fitted_model(draws=32, seed=0):
    kernel = BaseKernel("gaussian", 1.0)
    bank = FeatureBank.generate([kernel], MixtureWeights(np.array([1.0])), draws, 2, seed)
    rng = stream(80, seed)
    X = np.vstack([rng.normal(size=(20, 2)) + 1.5, rng.normal(size=(20, 2)) - 1.5])
    y = np.concatenate([np.ones(20), -np.ones(20)])
    Phi = build_feature_matrix(X, bank)
    model = train(Phi, y, TrainConfig(R=20.0, lam=0.01, epochs=60, step_size=0.5), bank=bank)
    return model, X, y, Phi


class TestPrediction:
    def test_zero_beta_returns_offset(self):
        model, X, _y, _Phi = fitted_model()
        stripped = SvmModel(
            beta=np.zeros_like(model.beta),
            offset=0.7,
            R=model.R,
            lam=model.lam,
            draws=model.draws,
            bank=model.bank,
        )
        assert decision_values(stripped, X[0]) == pytest.approx([0.7])

    def test_matches_feature_matrix_rows(self):
        model, X, _y, Phi = fitted_model()
        dv = decision_values(model, X)
        direct = Phi @ model.beta / math.sqrt(model.draws) + model.offset
        assert np.abs(dv - direct).max() <= 1e-12

    def test_cauchy_schwarz_bound(self):
        model, X, _y, _Phi = fitted_model()
        bound = model.R * math.sqrt(2.0) + abs(model.offset)  # max_l w_l <= 1
        assert np.abs(decision_values(model, X)).max() <= bound

    def test_standardization_replayed_on_raw_rows(self):
        model, X, _y, _Phi = fitted_model()
        mean, std = np.array([0.5, -1.0]), np.array([2.0, 0.0])  # std 0: that column becomes 0
        scaled = replace(model, standardization={"mean": mean.tolist(), "std": std.tolist()})
        Z = np.column_stack([(X[:, 0] - 0.5) / 2.0, np.zeros(len(X))])
        assert _same_bits(svm.outputs(scaled, X)[0], decision_values(model, Z))
        # a one-column X would broadcast against the two-column record: refused first
        with pytest.raises(ConfigError, match="does not match bank dim"):
            svm.outputs(scaled, X[:, :1])

    def test_sign_and_tie_rule(self):
        model, X, _y, _Phi = fitted_model()
        dv = decision_values(model, X)
        pred = predict(model, X)
        assert np.array_equal(pred, np.where(dv >= 0, 1, -1))

    def test_flipping_parameters_flips_predictions(self):
        model, X, _y, _Phi = fitted_model()
        flipped = SvmModel(
            beta=-model.beta,
            offset=-model.offset,
            R=model.R,
            lam=model.lam,
            draws=model.draws,
            bank=model.bank,
        )
        dv = decision_values(model, X)
        keep = np.abs(dv) > 1e-12  # exact ties both map to +1
        assert np.array_equal(predict(flipped, X)[keep], -predict(model, X)[keep])

    def test_soft_output(self):
        model, X, _y, _Phi = fitted_model()
        zero = SvmModel(
            beta=np.zeros_like(model.beta),
            offset=0.0,
            R=model.R,
            lam=model.lam,
            draws=model.draws,
            bank=model.bank,
        )
        Phi = build_feature_matrix(X, model.bank)
        assert _outputs(zero, Phi[:1])[2][0] == pytest.approx(0.5)
        p = _outputs(model, Phi)[2]
        assert np.all((p > 0.0) & (p < 1.0))
        dv = decision_values(model, X)
        order = np.argsort(dv)
        assert (np.diff(p[order]) >= -1e-15).all()

    def test_perfect_and_constant_reference_points(self):
        model, X, y, _Phi = fitted_model()
        pred = predict(model, X)
        acc = accuracy(model, LabeledDataset(X, y.astype(int)))
        assert 0.0 <= acc <= 1.0
        assert acc == (pred == y).mean()


class TestPersistence:
    def test_roundtrip_predictions_identical(self, tmp_path):
        model, X, _y, _Phi = fitted_model()
        path = str(tmp_path / "model.json")
        save_model(model, path)
        loaded = load_model(path)
        assert np.abs(decision_values(loaded, X) - decision_values(model, X)).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(scores=st.lists(st.floats(1e-6, 1e3), min_size=2, max_size=5), seed=st.integers(0, 2**32 - 1))
    def test_reload_keeps_the_weights_and_decision_values_bit_for_bit(self, scores, seed):
        # the scores are normalized once, and the file's normalized weights are kept as they are
        kernels = [BaseKernel("gaussian", 0.5 * (l + 1)) for l in range(len(scores))]
        bank = FeatureBank.generate(kernels, MixtureWeights.from_scores(scores), 16, 2, seed)
        X = stream(81, seed).normal(size=(30, 2))
        model = train(build_feature_matrix(X, bank), np.tile([1.0, -1.0], 15), TrainConfig(epochs=3), bank=bank)
        loaded = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        assert _same_bits(loaded.bank.weights.weights, bank.weights.weights)
        assert _same_bits(decision_values(loaded, X), decision_values(model, X))

    def test_checksum_guards_bank_params(self, tmp_path):
        model, _X, _y, _Phi = fitted_model()
        payload = model_to_dict(model)
        payload["bank"]["seed"] += 1  # bank no longer matches the checksum
        with pytest.raises(ModelIntegrityError, match="checksum"):
            model_from_dict(payload)

    def test_corrupted_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not valid json")
        with pytest.raises(ModelIntegrityError):
            load_model(str(path))

    def test_beta_length_guard(self):
        model, _X, _y, _Phi = fitted_model()
        payload = model_to_dict(model)
        payload["beta"] = payload["beta"][:-1]
        with pytest.raises(ModelIntegrityError):
            model_from_dict(payload)

    def test_standardization_embedded(self, tmp_path):
        model, _X, _y, _Phi = fitted_model()
        path = str(tmp_path / "model.json")
        save_model(replace(model, standardization={"mean": [0.0, 0.0], "std": [1.0, 1.0]}), path)
        loaded = load_model(path)
        assert loaded.standardization == {"mean": [0.0, 0.0], "std": [1.0, 1.0]}
