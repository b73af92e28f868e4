import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelmix import cli, diagnostics, rff, select, svm
from kernelmix.data import load_dataset, split_by_label, standardize
from kernelmix.errors import ModelIntegrityError
from kernelmix.kernels import BaseKernel
from kernelmix.mmd import mixing_weights
from kernelmix.rff import FeatureBank, build_feature_matrix, sample_frequencies
from kernelmix.rng import stream
from kernelmix.svm import _checksum, load_model


def write_dataset(path, n=40, seed=0, gap=3.0):
    rng = stream(seed, 99)
    half = n // 2
    pos = rng.normal(size=(half, 2)) + gap / 2.0
    neg = rng.normal(size=(n - half, 2)) - gap / 2.0
    lines = ["f1,f2,label"]
    for row in pos:
        lines.append(f"{row[0]},{row[1]},1")
    for row in neg:
        lines.append(f"{row[0]},{row[1]},-1")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_identical_classes(path, n=6, seed=1):
    X = stream(seed).normal(size=(n, 2))
    lines = ["f1,f2,label"]
    for row in X:
        lines.append(f"{row[0]},{row[1]},1")
    for row in X:
        lines.append(f"{row[0]},{row[1]},-1")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if the command reads a file, makes data, or runs an MMD
    pass or a Phi build."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("a bad flag reached the data, an MMD pass or a Phi build")

    for name in ("load_dataset", "load_features", "load_model", "two_gaussian_dataset",
                 "mixing_weights", "build_feature_matrix"):
        monkeypatch.setattr(cli, name, refuse)


def assert_refused_at_parse(tmp_path, capsys, command, flag, *values):
    """``command flag values...`` on a 40-row file (the synthetic preset for a
    --synthetic-* flag) exits 3 naming the flag and writes nothing."""
    data = write_dataset(tmp_path / "d.csv", n=40)
    source = ["--synthetic", "two-gaussian"] if flag.startswith("--synthetic") else ["--data", data]
    if command == "predict":
        source = ["--model", str(tmp_path / "m.json"), *source]
    assert cli.main([command, *source, flag, *values, "--out", str(tmp_path / "out")]) == 3
    assert flag in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


COUNT = ("0", "-1", "1.5", "x")
TRAINING = {"--draws": COUNT, "--R": ("0", "-1", "x"), "--lam": ("-1", "x"),
            "--epochs": COUNT, "--step-size": ("0", "-1", "x")}
SYNTHETIC = {"--synthetic-n": ("0", "x"), "--synthetic-dim": ("-1", "x")}
SEED = ("-1", "x")
FAMILIES = ("nope", "gaussian,bogus", ",", "anova")

# Bad values per command and value flag. The nan/inf training values, the
# test fraction's range, diagnose's --R/--eps/--pairs/--trials/--draw-sweep
# and the synthetic sizes are further rows, in the tests named after them below.
BAD_FLAGS = {
    "score": {"--seed": SEED, "--gammas": ("0", "-1", "nan", "inf", "x", "0.5,-1", ","),
              "--families": FAMILIES},
    "train": {"--seed": SEED, "--gammas": ("0", "nan"), "--families": FAMILIES, **TRAINING,
              "--batch-size": COUNT},
    "predict": {"--seed": SEED},
    "select": {"--seed": SEED, **SYNTHETIC, "--gammas": ("0", "inf", "x", "1,0.1", "0.5,0.5"),
               "--folds": ("1", "0", "x"), **TRAINING, "--test-fraction": ("nan", "inf", "x")},
    "diagnose": {"--seed": SEED, **SYNTHETIC, "--gammas": ("-1", "inf"), "--families": FAMILIES,
                 "--draws": ("0", "-1", "x", "64,0"), "--trials": ("-1", "x"), "--R": ("x",),
                 "--eps": ("nan", "inf", "x"), "--pairs": ("-1", "x")},
}


@pytest.mark.parametrize(
    "command, flag, value",
    [
        pytest.param(command, flag, value, id=f"{command} {flag} {value}")
        for command, flags in BAD_FLAGS.items()
        for flag, values in flags.items()
        for value in values
    ],
)
def test_bad_flag_refused_at_parse(tmp_path, capsys, no_work, command, flag, value):
    assert_refused_at_parse(tmp_path, capsys, command, flag, value)


@pytest.mark.parametrize("key, value", [("schedule", "constant"), ("no_offset", True)])
def test_removed_training_flags_exit_3(tmp_path, capsys, no_work, key, value):
    """train has one step rule and always fits the offset, so neither the old
    flag nor its --config key is accepted."""
    flag = "--" + key.replace("_", "-")
    assert_refused_at_parse(tmp_path, capsys, "train", flag, *([] if value is True else [value]))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({key: value}))
    args = ["train", "--data", str(tmp_path / "d.csv"), "--config", str(config),
            "--out", str(tmp_path / "m.json")]
    assert cli.main(args) == 3
    assert flag in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "d.csv"]


@pytest.mark.parametrize("command", ["score", "train", "diagnose"])
def test_family_count_mismatch_refused_before_load(tmp_path, capsys, no_work, command):
    data = write_dataset(tmp_path / "d.csv", n=40)
    args = [command, "--data", data, "--families", "gaussian,laplacian", "--gammas", "1",
            "--out", str(tmp_path / "out")]
    assert cli.main(args) == 3
    assert "2 families vs 1 gammas" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


@pytest.mark.parametrize("command", ["score", "train", "diagnose"])
@pytest.mark.parametrize("name, text", [("labels.csv", "label\n1\n-1\n1\n-1\n1\n"), ("labels.svm", "1\n-1\n1\n-1\n1\n")])
def test_label_only_file_exit_2(tmp_path, capsys, command, name, text):
    # labels but no feature column: refused as data before any distance,
    # score or model is computed, with unbalanced classes as with balanced
    data = tmp_path / name
    data.write_text(text)
    fmt = "libsvm" if name.endswith(".svm") else "csv"
    assert cli.main([command, "--data", str(data), "--format", fmt, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "data error: features must be a 2-d matrix with at least one column\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


class TestScore:
    def test_single_kernel_weight_one(self, tmp_path):
        data = write_dataset(tmp_path / "d.csv")
        out = str(tmp_path / "scores")
        assert cli.main(["score", "--data", data, "--gammas", "0.5", "--out", out]) == 0
        payload = json.loads((tmp_path / "scores.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["kernels"][0]["weight"] == 1.0
        assert not payload["degenerate"]
        csv_text = (tmp_path / "scores.csv").read_text()
        assert csv_text.splitlines()[0] == "family,rho,gamma,estimator,squared,value,weight"

    def test_degenerate_flag(self, tmp_path):
        data = write_identical_classes(tmp_path / "d.csv")
        out = str(tmp_path / "scores")
        assert cli.main(["score", "--data", data, "--gammas", "0.1,1.0", "--out", out]) == 0
        payload = json.loads((tmp_path / "scores.json").read_text())
        assert payload["degenerate"] is True
        weights = [k["weight"] for k in payload["kernels"]]
        assert weights == [0.5, 0.5]

    def test_rerun_byte_identical(self, tmp_path):
        data = write_dataset(tmp_path / "d.csv")
        out = str(tmp_path / "scores")
        args = ["score", "--data", data, "--gammas", "0.1,1.0", "--seed", "7", "--out", out]
        assert cli.main(args) == 0
        first = (tmp_path / "scores.json").read_bytes(), (tmp_path / "scores.csv").read_bytes()
        assert cli.main(args) == 0
        second = (tmp_path / "scores.json").read_bytes(), (tmp_path / "scores.csv").read_bytes()
        assert first == second

    def test_scores_each_kernel_once(self, tmp_path, monkeypatch):
        calls = []
        score_all = cli.mmd_scores

        def spy(kernels, *args, **kwargs):
            calls.append(len(kernels))
            return score_all(kernels, *args, **kwargs)

        monkeypatch.setattr(cli, "mmd_scores", spy)
        data = write_dataset(tmp_path / "d.csv")
        out = str(tmp_path / "scores")
        args = ["score", "--data", data, "--families", "gaussian,laplacian,gaussian",
                "--gammas", "0.1,1.0,3.0", "--out", out]
        assert cli.main(args) == 0
        assert calls == [3]
        rows = json.loads((tmp_path / "scores.json").read_text())["kernels"]
        values = np.array([r["value"] for r in rows])
        assert np.allclose([r["weight"] for r in rows], values / values.sum(), rtol=1e-15, atol=0)

    def test_missing_file_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        code = cli.main(["score", "--data", missing, "--out", str(tmp_path / "s")])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_bad_gamma_exit_3(self, tmp_path):
        data = write_dataset(tmp_path / "d.csv")
        code = cli.main(["score", "--data", data, "--gammas", "-1.0", "--out", str(tmp_path / "s")])
        assert code == 3


class TestTrainPredict:
    def run_train(self, tmp_path, **overrides):
        data = write_dataset(tmp_path / "train.csv")
        model_path = str(tmp_path / "model.json")
        args = [
            "train",
            "--data",
            data,
            "--gammas",
            "0.5",
            "--draws",
            "64",
            "--R",
            "20",
            "--lam",
            "0.01",
            "--epochs",
            "60",
            "--out",
            model_path,
        ]
        for key, value in overrides.items():
            args.append(key)
            if value != "":
                args.append(str(value))
        assert cli.main(args) == 0
        return data, model_path

    def test_separable_reaches_full_accuracy_in_log(self, tmp_path):
        _data, model_path = self.run_train(tmp_path)
        log = json.loads((tmp_path / "model.json.log.json").read_text())
        assert log["train_accuracy"] == 1.0
        assert len(log["objective_history"]) == 60

    def test_model_roundtrip_matches_in_process(self, tmp_path):
        data, model_path = self.run_train(tmp_path)
        # the CLI standardized before training; the loaded model replays it on raw rows
        dv = svm.decision_values(load_model(model_path), load_dataset(data).features)

        pred_path = str(tmp_path / "pred.csv")
        assert cli.main(["predict", "--model", model_path, "--data", data, "--out", pred_path]) == 0
        rows = (tmp_path / "pred.csv").read_text().splitlines()
        assert rows[0] == "index,decision_value,soft_output,label"
        got = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.abs(got - dv).max() <= 1e-12

    def test_predict_reproduces_accuracy(self, tmp_path):
        data, model_path = self.run_train(tmp_path)
        pred_path = str(tmp_path / "pred.csv")
        assert cli.main(["predict", "--model", model_path, "--data", data, "--out", pred_path]) == 0
        rows = (tmp_path / "pred.csv").read_text().splitlines()[1:]
        labels = np.array([int(r.split(",")[3]) for r in rows])
        truth = load_dataset(data).labels
        log = json.loads((tmp_path / "model.json.log.json").read_text())
        assert (labels == truth).mean() == log["train_accuracy"]

    def test_corrupted_model_exit_4(self, tmp_path):
        data, model_path = self.run_train(tmp_path)
        payload = json.loads((tmp_path / "model.json").read_text())
        payload["bank"]["seed"] += 1
        (tmp_path / "model.json").write_text(json.dumps(payload))
        code = cli.main(["predict", "--model", model_path, "--data", data, "--out", str(tmp_path / "p.csv")])
        assert code == 4

    def test_predict_accepts_libsvm(self, tmp_path):
        data, model_path = self.run_train(tmp_path)
        ds = load_dataset(data)
        lines = []
        for row, label in zip(ds.features, ds.labels):
            lines.append(f"{label:+d} 1:{row[0]} 2:{row[1]}")
        sparse = tmp_path / "d.svm"
        sparse.write_text("\n".join(lines) + "\n")
        csv_out, svm_out = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert cli.main(["predict", "--model", model_path, "--data", data, "--out", csv_out]) == 0
        assert cli.main([
            "predict", "--model", model_path, "--data", str(sparse),
            "--format", "libsvm", "--out", svm_out,
        ]) == 0
        a = [r.split(",")[3] for r in (tmp_path / "a.csv").read_text().splitlines()[1:]]
        b = [r.split(",")[3] for r in (tmp_path / "b.csv").read_text().splitlines()[1:]]
        assert a == b

    def test_no_standardize_roundtrip(self, tmp_path):
        data, model_path = self.run_train(tmp_path, **{"--no-standardize": ""})
        model = load_model(model_path)
        assert model.standardization is None
        assert cli.main([
            "predict", "--model", model_path, "--data", data, "--out", str(tmp_path / "p.csv"),
        ]) == 0

    def test_empty_data_predicts_nothing(self, tmp_path):
        data, model_path = self.run_train(tmp_path)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = cli.main(["predict", "--model", model_path, "--data", str(empty), "--out", str(tmp_path / "p.csv")])
        assert code == 0
        assert (tmp_path / "p.csv").read_text() == "index,decision_value,soft_output,label\n"

    def test_header_only_predicts_nothing(self, tmp_path):
        _data, model_path = self.run_train(tmp_path)
        header = tmp_path / "header.csv"
        header.write_text("f1,f2,label\n")
        out = tmp_path / "p.csv"
        assert cli.main(["predict", "--model", model_path, "--data", str(header), "--out", str(out)]) == 0
        assert out.read_text() == "index,decision_value,soft_output,label\n"

    @pytest.mark.parametrize(
        "name,text",
        [
            ("nan.csv", "f1,f2\n0.5,1.0\nnan,1.0\n"),
            ("inf.csv", "f1,f2,label\n0.5,inf,1\n"),
            ("narrow.csv", "f1\n0.5\n"),
            ("zero.svm", "1 0:5.0\n"),
            ("wide.svm", "1 1:0.5 3:1.0\n"),
        ],
    )
    def test_invalid_rows_exit_2(self, tmp_path, name, text):
        _data, model_path = self.run_train(tmp_path)
        bad = tmp_path / name
        bad.write_text(text)
        fmt = "libsvm" if name.endswith(".svm") else "csv"
        out = tmp_path / "p.csv"
        args = ["predict", "--model", model_path, "--data", str(bad), "--format", fmt, "--out", str(out)]
        assert cli.main(args) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "name,text,fmt,message",
        [
            ("empty.csv", "", "csv", "empty file, header row required"),
            ("unlabeled.csv", "f1,f2\n0.5,1.0\n", "csv", "header must contain a 'label' column"),
            ("unlabeled.svm", "1 1:0.5\n2:1.0\n", "libsvm", "every row needs a label"),
            ("header.csv", "f1,f2,label\n", "csv", "no data rows"),
        ],
    )
    def test_training_data_refusals_exit_2(self, tmp_path, capsys, name, text, fmt, message):
        bad = tmp_path / name
        bad.write_text(text)
        out = tmp_path / "model.json"
        args = ["train", "--data", str(bad), "--format", fmt, "--out", str(out)]
        assert cli.main(args) == 2
        assert capsys.readouterr().err == f"data error: {bad}: {message}\n"
        assert not out.exists()

    def test_unlabeled_rows_match_labeled(self, tmp_path):
        data, model_path = self.run_train(tmp_path)
        features = load_dataset(data).features.tolist()
        (tmp_path / "u.csv").write_text(
            "f1,f2\n" + "".join(f"{a!r},{b!r}\n" for a, b in features)
        )
        (tmp_path / "u.svm").write_text("".join(f"1:{a!r} 2:{b!r}\n" for a, b in features))
        outputs = []
        for name, fmt in (("u.csv", "csv"), ("u.svm", "libsvm")):
            out = tmp_path / (name + ".pred")
            args = ["predict", "--model", model_path, "--data", str(tmp_path / name),
                    "--format", fmt, "--out", str(out)]
            assert cli.main(args) == 0
            outputs.append(out.read_bytes())
        assert cli.main(["predict", "--model", model_path, "--data", data, "--out", str(tmp_path / "l.pred")]) == 0
        assert outputs == [(tmp_path / "l.pred").read_bytes()] * 2

    @pytest.mark.parametrize(
        "field", ["weights", "kernels[1].rho", "beta[0]=nan", "offset", "standardization.mean[0]"]
    )
    def test_tampered_model_exit_4(self, tmp_path, field):
        data, model_path = self.run_train(tmp_path, **{"--gammas": "0.5,2.0"})
        payload = json.loads((tmp_path / "model.json").read_text())
        if field == "weights":
            payload["bank"]["weights"][0] *= 1.01
        elif field == "kernels[1].rho":
            payload["bank"]["kernels"][1]["rho"] *= 1.01
        elif field == "beta[0]=nan":
            payload["beta"][0] = math.nan
        elif field == "offset":
            payload["offset"] += 0.01
        else:
            payload["standardization"]["mean"][0] += 0.01
        (tmp_path / "model.json").write_text(json.dumps(payload))
        code = cli.main(["predict", "--model", model_path, "--data", data, "--out", str(tmp_path / "p.csv")])
        assert code == 4

    @pytest.mark.parametrize("weights", [[0.0, 0.0], [math.nan, 1.0]])
    def test_degenerate_weights_exit_4(self, tmp_path, weights):
        data, model_path = self.run_train(tmp_path, **{"--gammas": "0.5,2.0"})
        bank = load_model(model_path).bank
        payload = json.loads((tmp_path / "model.json").read_text())
        payload["bank"]["weights"] = weights
        # a consistent checksum, so only the weights can fail the load
        payload["frequency_checksum"] = _checksum(payload, bank)
        (tmp_path / "model.json").write_text(json.dumps(payload))
        out = tmp_path / "p.csv"
        code = cli.main(["predict", "--model", model_path, "--data", data, "--out", str(out)])
        assert code == 4
        assert not out.exists()

    def test_anova_model_exit_4(self, tmp_path, capsys):
        """A model naming the removed ``anova`` family fails to load, even with a
        consistent checksum (the alias drew the Gaussian kernel's frequencies)."""
        data, model_path = self.run_train(tmp_path)
        bank = load_model(model_path).bank
        payload = json.loads((tmp_path / "model.json").read_text())
        payload["bank"]["kernels"][0]["family"] = "anova"
        payload["frequency_checksum"] = _checksum(payload, bank)
        (tmp_path / "model.json").write_text(json.dumps(payload))
        out = tmp_path / "p.csv"
        code = cli.main(["predict", "--model", model_path, "--data", data, "--out", str(out)])
        assert code == 4
        assert "malformed model document: unknown kernel family 'anova'" in capsys.readouterr().err
        assert not out.exists()

    def test_model_bytes_deterministic(self, tmp_path):
        _data, model_path = self.run_train(tmp_path)
        first = (tmp_path / "model.json").read_bytes()
        self.run_train(tmp_path)
        assert (tmp_path / "model.json").read_bytes() == first

    @pytest.mark.parametrize(
        "record",
        [
            [[0.0, 0.0], [1.0, 1.0]],
            {"mean": [0.0, 0.0]},
            {"mean": [0.0, 0.0, 0.0], "std": [1.0, 1.0, 1.0]},
            {"mean": [0.0], "std": [1.0]},
            {"mean": [math.nan, 0.0], "std": [1.0, 1.0]},
            {"mean": [0.0, 0.0], "std": [-1.0, 1.0]},
            {"mean": [0.0, 0.0], "std": [1.0, 1.0], "scale": 2.0},
        ],
        ids=["list", "no-std", "too-long", "too-short", "nan-mean", "negative-std", "extra-key"],
    )
    def test_malformed_standardization_exit_4(self, tmp_path, capsys, record):
        data, model_path = self.run_train(tmp_path)
        bank = load_model(model_path).bank
        payload = json.loads((tmp_path / "model.json").read_text())
        payload["standardization"] = record
        # a consistent checksum, so only the record can fail the load
        payload["frequency_checksum"] = _checksum(payload, bank)
        (tmp_path / "model.json").write_text(json.dumps(payload))
        with pytest.raises(ModelIntegrityError, match="malformed model document"):
            load_model(model_path)
        out = tmp_path / "p.csv"
        code = cli.main(["predict", "--model", model_path, "--data", data, "--out", str(out)])
        assert code == 4
        assert "malformed model document" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, bad",
        [
            (("offset",), "text"),
            (("R",), "text"),
            (("beta", 0), "text"),
            (("lambda",), True),
            (("standardization", "mean", 0), "text"),
            (("standardization", "std", 1), "text"),
            (("bank", "kernels", 1, "rho"), "text"),
            (("bank", "weights", 0), "text"),
            (("bank", "draws"), 64.0),
            (("bank", "dim"), 2.0),
            (("bank", "seed"), True),
            (("bank", "degenerate"), "no"),
            (("bank", "degenerate"), "missing"),
        ],
        ids=lambda value: "-".join(map(str, value)) if isinstance(value, tuple) else str(value),
    )
    def test_json_types_are_strict_exit_4(self, tmp_path, capsys, path, bad):
        # numbers must be JSON numbers and draws, dim and seed JSON integers,
        # never a bool or a string holding a number; degenerate must be a
        # JSON bool. The bank's seed is 1, so "seed": true regenerates it.
        data, model_path = self.run_train(tmp_path, **{"--gammas": "0.5,2.0", "--seed": 1})
        bank = load_model(model_path).bank
        payload = json.loads((tmp_path / "model.json").read_text())
        *parents, key = path
        owner = payload
        for step in parents:
            owner = owner[step]
        if bad == "missing":
            del owner[key]
        else:
            owner[key] = repr(owner[key]) if bad == "text" else bad
        # a consistent checksum, so only the field's type can fail the load
        payload["frequency_checksum"] = _checksum(payload, bank)
        (tmp_path / "model.json").write_text(json.dumps(payload))
        with pytest.raises(ModelIntegrityError, match="malformed model document"):
            load_model(model_path)
        out = tmp_path / "p.csv"
        code = cli.main(["predict", "--model", model_path, "--data", data, "--out", str(out)])
        assert code == 4
        assert "malformed model document" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, message",
        [("draws", "beta has 128 entries, not 2 kernels * 1000000000000 draws"),
         ("dim", "standardization must hold finite vectors of length 1000000000000, std >= 0")],
        ids=["draws", "dim"],
    )
    def test_stated_sizes_checked_before_the_bank_is_drawn_exit_4(self, tmp_path, capsys, monkeypatch, key, message):
        # a bank of 10^12 draws or dimensions cannot be allocated: the sizes
        # the document states are checked against its own arrays first
        data, model_path = self.run_train(tmp_path, **{"--gammas": "0.5,2.0"})
        payload = json.loads((tmp_path / "model.json").read_text())
        payload["bank"][key] = 10**12
        (tmp_path / "model.json").write_text(json.dumps(payload))

        def refuse(*_args, **_kwargs):
            raise AssertionError("drew the bank before checking the stated sizes")

        monkeypatch.setattr(FeatureBank, "generate", refuse)
        with pytest.raises(ModelIntegrityError, match="malformed model document"):
            load_model(model_path)
        out = tmp_path / "p.csv"
        code = cli.main(["predict", "--model", model_path, "--data", data, "--out", str(out)])
        assert code == 4
        assert capsys.readouterr().err == f"model integrity error: malformed model document: {message}\n"
        assert not out.exists()

    def test_unstandardized_dim_too_large_to_draw_exit_4(self, tmp_path, capsys):
        # no standardization record bounds dim, so the bank is drawn: 8 x 10^15
        # frequencies are 56.8 PiB, beyond any address space, so the
        # allocation fails at once under any overcommit setting
        data, model_path = self.run_train(
            tmp_path, **{"--gammas": "0.5,2.0", "--draws": "8", "--no-standardize": ""}
        )
        payload = json.loads((tmp_path / "model.json").read_text())
        payload["bank"]["dim"] = 10**15
        (tmp_path / "model.json").write_text(json.dumps(payload))
        out = tmp_path / "p.csv"
        code = cli.main(["predict", "--model", model_path, "--data", data, "--out", str(out)])
        assert code == 4
        assert capsys.readouterr().err.startswith("model integrity error: malformed model document: Unable to allocate")
        assert not out.exists()


@st.composite
def small_csvs(draw):
    """(CSV text, rows) of a two-class problem with 1-3 columns, some of them constant."""
    n, dim = draw(st.integers(4, 16)), draw(st.integers(1, 3))
    labels = [1, 1, -1, -1] + draw(st.lists(st.sampled_from([1, -1]), min_size=n - 4, max_size=n - 4))
    value = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    columns = []
    for _ in range(dim):
        if draw(st.booleans()):
            columns.append([draw(value)] * n)
        else:
            columns.append(draw(st.lists(value, min_size=n, max_size=n)))
    rows = [[column[i] for column in columns] for i in range(n)]
    header = ",".join(f"f{j}" for j in range(dim)) + ",label"
    lines = [header] + [",".join(map(repr, row)) + f",{label}" for row, label in zip(rows, labels)]
    return "\n".join(lines) + "\n"


@settings(max_examples=25, deadline=None)
@given(text=small_csvs(), standardized=st.booleans())
def test_library_outputs_on_raw_rows_equal_cli_predict(text, standardized):
    # a loaded model scores raw rows: the library replays the model's
    # standardization exactly as `kernelmix predict` does, bit for bit
    with tempfile.TemporaryDirectory() as tmp:
        data, model_path, pred = (os.path.join(tmp, name) for name in ("d.csv", "m.json", "p.csv"))
        with open(data, "w") as fh:
            fh.write(text)
        args = ["train", "--data", data, "--gammas", "0.5,2", "--draws", "8", "--epochs", "3", "--out", model_path]
        assert cli.main(args + ([] if standardized else ["--no-standardize"])) == 0
        assert cli.main(["predict", "--model", model_path, "--data", data, "--out", pred]) == 0
        with open(pred) as fh:
            table = [line.split(",") for line in fh.read().splitlines()[1:]]
        model = load_model(model_path)
        assert (model.standardization is not None) == standardized
        raw = load_dataset(data).features
        dv, labels, soft = svm.outputs(model, raw)
        assert [repr(float(v)) for v in dv] == [row[1] for row in table]
        assert [repr(float(v)) for v in soft] == [row[2] for row in table]
        assert [str(int(v)) for v in labels] == [row[3] for row in table]
        assert svm.decision_values(model, raw).tobytes() == dv.tobytes()
        assert svm.predict(model, raw).tobytes() == labels.tobytes()


@pytest.mark.parametrize("command", ["train", "select"])
@pytest.mark.parametrize("flag", ["--R", "--lam", "--step-size"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_training_flags_exit_3(tmp_path, capsys, no_work, command, flag, value):
    assert_refused_at_parse(tmp_path, capsys, command, flag, value)


class TestSelect:
    def test_single_gamma_one_row(self, tmp_path):
        data = write_dataset(tmp_path / "d.csv", n=60)
        out = str(tmp_path / "sel")
        args = [
            "select", "--data", data, "--gammas", "0.5", "--folds", "3",
            "--draws", "32", "--epochs", "10", "--out", out,
        ]
        assert cli.main(args) == 0
        lines = (tmp_path / "sel.csv").read_text().splitlines()
        assert lines[0] == "gamma,cv_mean,cv_std,mmd_score"
        assert len(lines) == 2

    def test_seed_reproducible_bytes(self, tmp_path):
        data = write_dataset(tmp_path / "d.csv", n=60)
        out = str(tmp_path / "sel")
        args = [
            "select", "--data", data, "--gammas", "0.1,1.0", "--folds", "3",
            "--draws", "32", "--epochs", "10", "--seed", "3", "--out", out,
        ]
        assert cli.main(args) == 0
        first = (tmp_path / "sel.csv").read_bytes(), (tmp_path / "sel.json").read_bytes()
        assert cli.main(args) == 0
        assert ((tmp_path / "sel.csv").read_bytes(), (tmp_path / "sel.json").read_bytes()) == first

    def test_synthetic_preset(self, tmp_path):
        out = str(tmp_path / "sel")
        args = [
            "select", "--synthetic", "two-gaussian", "--synthetic-n", "80",
            "--synthetic-dim", "3", "--gammas", "0.1,1.0", "--folds", "3",
            "--draws", "32", "--epochs", "10", "--out", out,
        ]
        assert cli.main(args) == 0
        payload = json.loads((tmp_path / "sel.json").read_text())
        assert "agreement_within_one_step" in payload

    def test_needs_data_or_synthetic(self, tmp_path):
        assert cli.main(["select", "--out", str(tmp_path / "sel")]) == 3

    @pytest.mark.parametrize("fraction", ["0", "1", "1.5", "-0.2"])
    def test_test_fraction_outside_unit_interval_exit_3(self, tmp_path, capsys, no_work, fraction):
        assert_refused_at_parse(tmp_path, capsys, "select", "--test-fraction", fraction)

    def test_folds_above_training_rows_exit_3(self, tmp_path, capsys, monkeypatch):
        # the upper bound depends on the data: 40 rows hold out 10, leaving 30
        def refuse(*_args, **_kwargs):
            raise AssertionError("ran an MMD pass or built a Phi before the fold check")

        monkeypatch.setattr(select, "mmd_scores", refuse)
        monkeypatch.setattr(select, "build_feature_matrix", refuse)
        data = write_dataset(tmp_path / "d.csv", n=40)
        args = ["select", "--data", data, "--gammas", "0.5", "--folds", "31", "--out", str(tmp_path / "sel")]
        assert cli.main(args) == 3
        assert "config error: k must lie in [2, 30], got 31" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


class TestDiagnose:
    def test_outputs_and_sweep(self, tmp_path):
        data = write_dataset(tmp_path / "d.csv", n=30)
        out = str(tmp_path / "diag")
        args = [
            "diagnose", "--data", data, "--gammas", "0.5", "--draw-sweep", "64,128",
            "--trials", "2", "--pairs", "10", "--out", out,
        ]
        assert cli.main(args) == 0
        payload = json.loads((tmp_path / "diag.json").read_text())
        assert len(payload["complexity"]) == 2
        assert payload["ordering_violation"] is False
        header = (tmp_path / "diag.complexity.csv").read_text().splitlines()[0]
        assert "erfc_bound" in header and "erfc_bound_display" in header
        conc = (tmp_path / "diag.concentration.csv").read_text().splitlines()
        assert len(conc) == 3  # header + one row per D

    def test_estimator_reaches_the_weights(self, tmp_path, monkeypatch):
        estimators = []
        weigh = cli.mixing_weights

        def spy(*args, **kwargs):
            estimators.append(kwargs.get("estimator"))
            return weigh(*args, **kwargs)

        monkeypatch.setattr(cli, "mixing_weights", spy)
        data = write_dataset(tmp_path / "d.csv", n=30)
        args = [
            "diagnose", "--data", data, "--gammas", "0.5", "--draws", "64", "--trials", "1",
            "--pairs", "5", "--estimator", "biased", "--out", str(tmp_path / "diag"),
        ]
        assert cli.main(args) == 0
        assert estimators == ["biased"]

    def test_rerun_byte_identical(self, tmp_path):
        data = write_dataset(tmp_path / "d.csv", n=30)
        out = str(tmp_path / "diag")
        args = [
            "diagnose", "--data", data, "--gammas", "0.5", "--draws", "64",
            "--trials", "2", "--pairs", "5", "--seed", "11", "--out", out,
        ]
        assert cli.main(args) == 0
        first = (tmp_path / "diag.json").read_bytes()
        assert cli.main(args) == 0
        assert (tmp_path / "diag.json").read_bytes() == first

    def test_trials_follow_seed(self, tmp_path):
        # the trial banks are --seed ... --seed+trials-1 and the first is the
        # bounds bank, so the concentration rows move with --seed
        data = write_dataset(tmp_path / "d.csv", n=30)
        payloads = {}
        for seed in (0, 7):
            out = tmp_path / f"diag{seed}"
            args = [
                "diagnose", "--data", data, "--gammas", "0.5,2", "--draws", "32,64",
                "--trials", "2", "--pairs", "5", "--seed", str(seed), "--out", str(out),
            ]
            assert cli.main(args) == 0
            payloads[seed] = json.loads(out.with_suffix(".json").read_text())
        ds = standardize(load_dataset(data))[0]
        kernels = [BaseKernel.from_gamma("gaussian", gamma) for gamma in (0.5, 2.0)]
        weights = mixing_weights(kernels, *split_by_label(ds))
        rows = diagnostics.probe_pass(ds.features, kernels, weights, [32, 64], [7, 8], 10.0)
        assert payloads[7]["concentration"] == [row for _report, row in rows]
        assert payloads[7]["concentration"] != payloads[0]["concentration"]
        for draws, row in zip((32, 64), payloads[7]["complexity"]):
            Phi = build_feature_matrix(ds.features, FeatureBank.generate(kernels, weights, draws, 2, 7))
            assert row == asdict(diagnostics.complexity_bounds(Phi, 10.0, draws, 2))

    def test_ordering_violation_exits_nonzero(self, tmp_path, monkeypatch):
        # the ordering cannot be violated by real data; check the wiring by
        # forcing a violating report through the computation
        from kernelmix.diagnostics import ComplexityReport

        def fake_report(G, n, R, draws, m):
            return ComplexityReport(
                n=n, draws=draws, m=m, R=R,
                frobenius_norm=1.0, spectral_norm=1.0, trace_quartic=1.0,
                erfc_bound=2.0, erfc_bound_display=0.0,
                khintchine_bound=1.0, gaussian_bound=1.0,
            )

        monkeypatch.setattr(diagnostics, "_report", fake_report)
        data = write_dataset(tmp_path / "d.csv", n=20)
        args = [
            "diagnose", "--data", data, "--gammas", "0.5", "--draws", "16",
            "--trials", "1", "--pairs", "2", "--out", str(tmp_path / "diag"),
        ]
        assert cli.main(args) == 1

    @pytest.fixture
    def refuse_builds(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("built a feature matrix or Gram before the check")

        for module, name in ((cli, "build_feature_matrix"), (diagnostics, "weighted_block"),
                             (diagnostics, "mixture_gram")):
            monkeypatch.setattr(module, name, refuse)

    def test_size_check_runs_before_any_feature_matrix(self, tmp_path, capsys, refuse_builds):
        args = [
            "diagnose", "--synthetic", "two-gaussian", "--synthetic-n", "2100",
            "--draws", "2048", "--trials", "3", "--out", str(tmp_path / "diag"),
        ]
        assert cli.main(args) == 3
        assert "n <= 2000" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--R", "-1"],
            ["--R", "0"],
            ["--R", "nan"],
            ["--R", "inf"],
            ["--eps", "0"],
            ["--eps", "-1"],
            ["--eps", "-1", "--families", "laplacian,gaussian"],
            ["--pairs", "0"],
        ],
        ids=" ".join,
    )
    def test_scalar_flags_checked_before_any_work(self, tmp_path, capsys, no_work, flags):
        assert_refused_at_parse(tmp_path, capsys, "diagnose", *flags)

    @pytest.mark.parametrize("sweep", ["1.5", "0,64", "-5", "64,inf", "nan"])
    def test_draw_sweep_needs_positive_integers(self, tmp_path, capsys, no_work, sweep):
        assert_refused_at_parse(tmp_path, capsys, "diagnose", "--draw-sweep", sweep)

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_no_trials_exit_3(self, tmp_path, capsys, no_work, trials):
        assert_refused_at_parse(tmp_path, capsys, "diagnose", "--trials", trials)

    def test_draws_and_draw_sweep_are_one_flag(self):
        def draws(*flags):
            return cli.build_parser().parse_args(["diagnose", *flags, "--out", "o"]).draws

        assert draws() == [2048]
        assert draws("--draws", "64") == [64]
        assert draws("--draws", "64,128") == draws("--draw-sweep", "64,128") == [64, 128]
        assert draws("--draws", "64", "--draw-sweep", "128") == [128]


@pytest.mark.parametrize("command", ["select", "diagnose"])
@pytest.mark.parametrize("flag,value", [("--synthetic-n", "-5"), ("--synthetic-dim", "0")])
def test_synthetic_size_flags_exit_3(tmp_path, capsys, no_work, command, flag, value):
    assert_refused_at_parse(tmp_path, capsys, command, flag, value)


@pytest.mark.parametrize("command", ["select", "diagnose"])
def test_data_and_synthetic_together_exit_3(tmp_path, capsys, no_work, command):
    # one input or the other: neither is silently dropped
    data = write_dataset(tmp_path / "d.csv", n=40)
    args = [command, "--data", data, "--synthetic", "two-gaussian", "--out", str(tmp_path / "out")]
    assert cli.main(args) == 3
    assert capsys.readouterr().err == f"config error: {command} takes --data or --synthetic, not both\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        data = write_dataset(tmp_path / "d.csv")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"gammas": "0.5", "seed": 9}))
        out = str(tmp_path / "scores")
        assert cli.main(["score", "--data", data, "--config", str(config), "--out", out]) == 0
        payload = json.loads((tmp_path / "scores.json").read_text())
        assert payload["seed"] == 9
        # explicit flag wins over the config value
        assert cli.main([
            "score", "--data", data, "--config", str(config), "--seed", "4", "--out", out,
        ]) == 0
        payload = json.loads((tmp_path / "scores.json").read_text())
        assert payload["seed"] == 4

    @pytest.mark.parametrize(
        "flags, seed",
        [
            (["--config", "{cfg}"], 9),
            (["--config={cfg}"], 9),
            (["--conf", "{cfg}"], 9),
            (["--config={cfg}", "--seed", "4"], 4),
            (["--config", "{cfg}", "--seed=4"], 4),
            (["--conf", "{cfg}", "--seed=4"], 4),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else f"seed {v}",
    )
    def test_every_spelling_loads_the_file(self, tmp_path, flags, seed):
        data = write_dataset(tmp_path / "d.csv")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"gammas": "0.5", "seed": 9}))

        def score(prefix, *flags):
            out = str(tmp_path / prefix)
            assert cli.main(["score", "--data", data, *flags, "--out", out]) == 0
            return (tmp_path / f"{prefix}.json").read_bytes(), (tmp_path / f"{prefix}.csv").read_bytes()

        expected = score("expected", "--gammas", "0.5", "--seed", str(seed))
        assert score("spelled", *(flag.format(cfg=config) for flag in flags)) == expected
        assert json.loads(expected[0])["seed"] == seed

    def test_bad_file_value_refused_under_override(self, tmp_path, capsys, no_work):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"epochs": 0}))
        data = write_dataset(tmp_path / "d.csv")
        args = ["train", "--data", data, "--config", str(config), "--epochs", "5",
                "--out", str(tmp_path / "m.json")]
        assert cli.main(args) == 3
        assert "--epochs" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "d.csv"]

    def test_invalid_config_exit_3(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("[1,2]")
        assert cli.main(["score", "--config", str(bad), "--out", "x"]) == 3

    def test_config_values_checked_like_flags(self, tmp_path, capsys, no_work):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"epochs": 0}))
        data = write_dataset(tmp_path / "d.csv")
        args = ["train", "--data", data, "--config", str(config), "--out", str(tmp_path / "m.json")]
        assert cli.main(args) == 3
        assert "--epochs" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "d.csv"]

    def test_unknown_flag_exit_3(self):
        assert cli.main(["score", "--nope"]) == 3

    def test_threads_validated(self, tmp_path):
        data = write_dataset(tmp_path / "d.csv")
        code = cli.main(["score", "--data", data, "--threads", "0", "--out", str(tmp_path / "s")])
        assert code == 3


def test_import_leaves_out_scipy_stats_and_exports_resolve():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    check = (
        "import sys, kernelmix\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats imported'\n"
        "missing = [n for n in kernelmix.__all__ if not hasattr(kernelmix, n)]\n"
        "assert not missing, missing\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_no_command_loads_scipy(tmp_path):
    # every command, diagnose included, runs on numpy and the standard library
    src = os.path.dirname(os.path.dirname(cli.__file__))
    data = write_dataset(tmp_path / "d.csv", n=30)
    check = (
        "import sys\n"
        "from kernelmix import cli\n"
        "def run(*args):\n"
        "    assert cli.main(list(args)) == 0, args\n"
        f"data = {data!r}\n"
        "run('score', '--data', data, '--families', 'laplacian,gaussian', '--gammas', '0.5,2', '--out', 'score')\n"
        "run('train', '--data', data, '--gammas', '0.5,2', '--draws', '8', '--epochs', '2', '--out', 'model.json')\n"
        "run('predict', '--model', 'model.json', '--data', data, '--out', 'pred.csv')\n"
        "run('select', '--data', data, '--gammas', '0.5,2', '--folds', '2', '--draws', '8', '--epochs', '2', '--out', 'sel')\n"
        "run('diagnose', '--data', data, '--gammas', '0.5,2', '--draws', '16', '--trials', '2', '--pairs', '5', '--out', 'diag')\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", check], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def load_tracing():
    """perfbench/tracing.py, loaded by path (perfbench is not a package)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(root, "perfbench", "tracing.py")
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_targets_resolve():
    # perfbench/tracing.py wraps these names on every traced operation; one
    # that no longer resolves fails every traced benchmark run
    tracing = load_tracing()
    missing = []
    for _name, module_name, attr, _work in tracing.TARGETS:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}.{attr}")
    assert not missing, missing


@pytest.mark.parametrize("seed, seeds_built", [(0, 3), (1, 3), (7, 3)])
def test_traced_diagnose_builds_each_phi_once(tmp_path, monkeypatch, seed, seeds_built):
    # the probe pass builds each (D, trial seed, kernel) block once, in that
    # order, whatever --seed is, and never a whole Phi, not even at D = 8
    # where n = 30 > mD: a block of D = 300 columns as panels of at most 256
    # columns, covering its columns once, in order; one mixture Gram per
    # run, built without a kernel_matrix call
    tracing = load_tracing()
    data = write_dataset(tmp_path / "d.csv", n=30)
    gammas, sweep = (0.5, 2.0, 8.0), (8, 16, 300)
    args = [
        "diagnose", "--data", data, "--gammas", "0.5,2,8", "--draw-sweep", "8,16,300",
        "--trials", str(seeds_built), "--pairs", "5", "--seed", str(seed), "--out", str(tmp_path / "diag"),
    ]
    probing, blocks = [], []
    real_pass, real_block = cli.probe_pass, rff.feature_block

    def counted_pass(*pass_args):
        probing.append(True)
        try:
            return real_pass(*pass_args)
        finally:
            probing.pop()

    def counted_block(X, xi, b, out=None):
        if probing:
            blocks.append((xi.shape[0], b.tobytes()))
        return real_block(X, xi, b, out=out)

    monkeypatch.setattr(cli, "probe_pass", counted_pass)
    monkeypatch.setattr(rff, "feature_block", counted_block)
    tracer = tracing.Tracer()
    code, first = tracer.run_op(lambda: cli.main(args))
    assert code == 0
    metrics = tracing.layer_metrics(tracer.spans[first:], first, 30, 0)
    kernels = [BaseKernel.from_gamma("gaussian", gamma) for gamma in gammas]
    want = [
        (draws, sample_frequencies(kernel, draws, 2, trial, kernel_index=l)[1].tobytes())
        for draws in sweep
        for trial in range(seed, seed + seeds_built)
        for l, kernel in enumerate(kernels)
    ]
    assert len(want) == len(kernels) * len(sweep) * seeds_built
    calls = iter(blocks)
    for draws, phases in want:
        covered = []
        while sum(width for width, _ in covered) < draws:
            covered.append(next(calls))
        assert all(width <= 256 for width, _ in covered)
        assert sum(width for width, _ in covered) == draws
        assert b"".join(panel for _, panel in covered) == phases
    assert next(calls, None) is None
    assert metrics["rff.phi_builds"] == 0
    assert sum(span[0] == "kernels.mixture_gram" for span in tracer.spans[first:]) == 1
    assert metrics["kernels.kernel_matrix_calls"] == 0
