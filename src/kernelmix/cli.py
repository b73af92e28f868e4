"""Command-line surface: score, train, predict, select, diagnose.

Every command is deterministic given its inputs and --seed; primary output
files are byte-identical across reruns. Exit codes are a stable contract:
0 success, 2 data error, 3 config error, 4 model-integrity error (1 is
reserved for diagnostic assertion failures).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from .data import diameter, load_dataset, load_features, split_by_label, standardize
from .diagnostics import (
    ComplexityReport,
    check_rows,
    empirical_sup_error,
    pointwise_error_bound,
    probe_pass,
)
from .errors import ConfigError, DataError, ModelIntegrityError, is_positive
from .kernels import FAMILIES, BaseKernel
from .mmd import ESTIMATORS, MixtureWeights, mixing_weights, mmd_scores
from .rff import FeatureBank, build_feature_matrix, spectral_second_moment
from .select import compare_selection
from .svm import TrainConfig, _outputs, load_model, outputs, save_model, train
from .synthetic import two_gaussian_dataset

SCHEMA_VERSION = 1

#: 9-point grid of the built-in two-Gaussian benchmark.
BENCHMARK_GAMMAS = tuple(10.0**e for e in range(-4, 5))
#: 24-point grid ``select`` searches on a --data file.
DATA_GAMMAS = np.geomspace(1e-20, 1e3, 24)

EXIT_OK = 0
EXIT_DIAGNOSTIC = 1
EXIT_DATA = 2
EXIT_CONFIG = 3
EXIT_MODEL = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through ConfigError (3)
    def error(self, message):
        raise ConfigError(message)


def _write_json(path: str, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[dict]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(row[col]) for col in header))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _bank_kernels(args) -> list[BaseKernel]:
    families, gammas = args.families, args.gammas
    if len(families) == 1:
        families = families * len(gammas)
    if len(families) != len(gammas):
        raise ConfigError(
            f"{len(families)} families vs {len(gammas)} gammas; give one family "
            "or one per gamma"
        )
    return [BaseKernel.from_gamma(fam, g) for fam, g in zip(families, gammas)]


def _train_config(args) -> TrainConfig:
    """The TrainConfig of the training flags the command declares."""
    names = {f.name for f in fields(TrainConfig)} & vars(args).keys()
    return TrainConfig(**{name: getattr(args, name) for name in names})


def _load_input(args):
    """The command's rows and the model file's standardization record.

    The rows are the --data file or, on the commands that offer it, the
    built-in --synthetic benchmark, never both. Either is standardized
    unless --no-standardize, and the record is then None.
    """
    synthetic = getattr(args, "synthetic", None)
    if synthetic and args.data is not None:
        raise ConfigError(f"{args.command} takes --data or --synthetic, not both")
    if synthetic:
        ds = two_gaussian_dataset(n=args.synthetic_n, dim=args.synthetic_dim, seed=args.seed)
    elif args.data is None:
        raise ConfigError(f"{args.command} needs --data or --synthetic")
    else:
        ds = load_dataset(args.data, format=args.format)
    if args.no_standardize:
        return ds, None
    ds, mean, std = standardize(ds)
    return ds, {"mean": mean.tolist(), "std": std.tolist()}


# -- commands ----------------------------------------------------------------


def cmd_score(args) -> int:
    kernels = _bank_kernels(args)
    ds = _load_input(args)[0]
    pos, neg = split_by_label(ds)
    scores = mmd_scores(kernels, pos, neg, estimator=args.estimator)
    weights = MixtureWeights.from_scores([s.value for s in scores])
    rows = [
        {
            "family": k.family,
            "rho": k.rho,
            "gamma": k.gamma,
            "estimator": s.estimator,
            "squared": s.squared,
            "value": s.value,
            "weight": float(w),
        }
        for k, s, w in zip(kernels, scores, weights.weights)
    ]
    payload = {
        "command": "score",
        "seed": args.seed,
        "n_plus": len(pos),
        "n_minus": len(neg),
        "degenerate": weights.degenerate,
        "kernels": rows,
    }
    _write_json(args.out + ".json", payload)
    _write_csv(
        args.out + ".csv",
        ["family", "rho", "gamma", "estimator", "squared", "value", "weight"],
        rows,
    )
    print(f"wrote {args.out}.json and {args.out}.csv")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _train_config(args)
    kernels = _bank_kernels(args)
    ds, standardization = _load_input(args)
    weights = mixing_weights(kernels, *split_by_label(ds), estimator=args.estimator)
    bank = FeatureBank.generate(kernels, weights, args.draws, ds.dim, args.seed)
    Phi = build_feature_matrix(ds.features, bank)
    model = replace(train(Phi, ds.labels, cfg, bank=bank), standardization=standardization)
    save_model(model, args.out)
    log = {
        "command": "train",
        "seed": args.seed,
        "weights": weights.weights.tolist(),
        "degenerate": weights.degenerate,
        "objective_history": model.meta["objective_history"],
        "final_objective": model.meta["objective_history"][-1],
        "train_accuracy": float((_outputs(model, Phi)[1] == ds.labels).mean()),
    }
    _write_json(args.log or args.out + ".log.json", log)
    print(f"wrote model {args.out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = load_model(args.model)
    dv, labels, soft = outputs(model, load_features(args.data, args.format, model.bank.dim))
    rows = [
        {
            "index": i,
            "decision_value": float(dv[i]),
            "soft_output": float(soft[i]),
            "label": int(labels[i]),
        }
        for i in range(len(dv))
    ]
    _write_csv(args.out, ["index", "decision_value", "soft_output", "label"], rows)
    print(f"wrote {args.out} ({len(rows)} predictions)")
    return EXIT_OK


def cmd_select(args) -> int:
    cfg = _train_config(args)
    ds = _load_input(args)[0]
    gammas = args.gammas or (BENCHMARK_GAMMAS if args.synthetic else DATA_GAMMAS)
    report = compare_selection(
        ds, gammas, args.folds, cfg, args.draws, args.seed, test_fraction=args.test_fraction
    )
    _write_csv(args.out + ".csv", ["gamma", "cv_mean", "cv_std", "mmd_score"], report.rows)
    _write_json(args.out + ".json", {"command": "select", "seed": args.seed, **report.to_dict()})
    print(
        f"cv_gamma={report.cv_gamma:g} mmd_gamma={report.mmd_gamma:g} agreement="
        f"{report.agreement} (cv {report.cv_seconds:.3f}s, mmd {report.mmd_seconds:.3f}s)",
        file=sys.stderr,
    )
    print(f"wrote {args.out}.csv and {args.out}.json")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    kernels = _bank_kernels(args)
    ds = _load_input(args)[0]
    check_rows(ds.n)  # before the O(n^2) diameter and MMD walks
    sigma_p = math.sqrt(spectral_second_moment(kernels[0], ds.dim))
    pointwise = pointwise_error_bound(args.eps, args.draws[-1], ds.dim, sigma_p, diameter(ds))
    weights = mixing_weights(kernels, *split_by_label(ds), estimator=args.estimator)
    rows = probe_pass(ds.features, kernels, weights, args.draws, list(range(args.seed, args.seed + args.trials)), args.R)

    complexity_rows = [asdict(report) for report, _row in rows]
    violation = any(r["erfc_bound"] > r["khintchine_bound"] for r in complexity_rows)
    concentration_rows = [row for _report, row in rows]
    sup_err = empirical_sup_error(kernels[0], args.draws[-1], ds.features, args.pairs, args.seed)

    payload = {
        "command": "diagnose",
        "seed": args.seed,
        "complexity": complexity_rows,
        "concentration": concentration_rows,
        "pointwise_bound": pointwise,
        "empirical_sup_error": sup_err,
        "ordering_violation": violation,
    }
    _write_json(args.out + ".json", payload)
    _write_csv(
        args.out + ".complexity.csv",
        [f.name for f in fields(ComplexityReport)],
        complexity_rows,
    )
    _write_csv(args.out + ".concentration.csv", list(concentration_rows[0]), concentration_rows)
    print(f"wrote {args.out}.json and CSV tables")
    if violation:
        print("bound ordering violated: erfc_bound > khintchine_bound", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    return EXIT_OK


# -- argument plumbing --------------------------------------------------------


def _flag(convert, ok, what: str):
    """An argparse ``type=`` that converts with ``convert`` and refuses a value
    failing ``ok``, so a bad flag exits 3 while the command line is parsed."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")

    return parse


def _list(convert):
    return lambda text: [convert(tok) for tok in text.split(",") if tok.strip()]


_SEED = _flag(int, lambda v: v >= 0, "a nonnegative integer")
_COUNT = _flag(int, lambda v: v >= 1, "a positive integer")
_FOLDS = _flag(int, lambda v: v >= 2, "an integer >= 2")
_POSITIVE = _flag(float, is_positive, "finite and positive")
_NONNEGATIVE = _flag(float, lambda v: math.isfinite(v) and v >= 0, "finite and nonnegative")
_FRACTION = _flag(float, lambda v: 0 < v < 1, "in (0, 1)")
_GAMMAS = _flag(
    _list(float), lambda vs: vs and all(map(is_positive, vs)), "a comma list of positive finite numbers"
)
_GRID = _flag(_GAMMAS, lambda vs: vs == sorted(set(vs)), "a strictly increasing comma list")
_FAMILIES = _flag(
    _list(str.strip), lambda fs: fs and set(fs) <= set(FAMILIES), f"a comma list of {'|'.join(FAMILIES)}"
)
_DRAWS = _flag(_list(int), lambda vs: vs and min(vs) >= 1, "a comma list of positive integers")


def _add_common(p: _Parser) -> None:
    p.add_argument("--seed", type=_SEED, default=0, help="master seed; all streams derive from it")
    p.add_argument("--config", default=None, help="JSON file of defaults; flags override it")


def _add_data(p: _Parser, required: bool = True) -> None:
    p.add_argument("--data", required=required, default=None, help="input dataset path")
    p.add_argument("--format", choices=("csv", "libsvm"), default="csv")
    p.add_argument(
        "--no-standardize",
        action="store_true",
        help="skip column standardization (default: standardize)",
    )


def _add_bank(p: _Parser) -> None:
    p.add_argument(
        "--families",
        type=_FAMILIES,
        default="gaussian",
        help=f"kernel family, or comma list matching --gammas ({'|'.join(FAMILIES)})",
    )
    p.add_argument("--gammas", type=_GAMMAS, default="1.0", help="comma list of gamma = 1/(2 rho^2) values")
    p.add_argument("--estimator", choices=("auto", *ESTIMATORS), default="auto",
                   help="biased: the unbiased two-sample U-statistic MMD^2_u; unbiased_balanced: the paired statistic, which depends on row order; auto: unbiased_balanced exactly when n+ = n-")


def _add_training(p: _Parser, draws: int, R: float, lam: float, epochs: int) -> None:
    p.add_argument("--draws", type=_COUNT, default=draws, help="random features per base kernel (D)")
    p.add_argument("--R", type=_POSITIVE, default=R, help="coefficient ball parameter")
    p.add_argument("--lam", type=_NONNEGATIVE, default=lam, help="regularization weight")
    p.add_argument("--epochs", type=_COUNT, default=epochs)
    p.add_argument("--step-size", type=_POSITIVE, default=0.5)


def _add_synthetic(p: _Parser, n: int) -> None:
    p.add_argument("--synthetic", choices=("two-gaussian",), default=None, help="use the built-in benchmark instead of --data")
    p.add_argument("--synthetic-n", type=_COUNT, default=n)
    p.add_argument("--synthetic-dim", type=_COUNT, default=5)


def build_parser() -> _Parser:
    parser = _Parser(prog="kernelmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="per-kernel MMD scores and mixture weights; writes OUT.json/OUT.csv (columns: family,rho,gamma,estimator,squared,value,weight)")
    _add_common(p)
    _add_data(p)
    _add_bank(p)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("train", help="full pipeline: score, weight, draw features, train SVM; writes the model JSON and a training log")
    _add_common(p)
    _add_data(p)
    _add_bank(p)
    _add_training(p, draws=512, R=10.0, lam=1.0, epochs=100)
    p.add_argument("--batch-size", type=_COUNT, default=None)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--log", default=None, help="training log path (default: OUT.log.json)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score a data file with a saved model; writes CSV (columns: index,decision_value,soft_output,label)")
    p.add_argument("--config", default=None, help="JSON file of defaults; flags override it")  # no --seed: predict draws nothing
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=("csv", "libsvm"), default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("select", help="CV vs MMD bandwidth comparison; writes OUT.csv (columns: gamma,cv_mean,cv_std,mmd_score) and OUT.json")
    _add_common(p)
    _add_data(p, required=False)
    _add_synthetic(p, n=400)
    p.add_argument("--gammas", type=_GRID, default=None, help="increasing comma list; default: benchmark grid (synthetic) or the 10^-20..10^3 grid")
    p.add_argument("--folds", type=_FOLDS, default=5)
    # weak lam: the harness needs real margins
    _add_training(p, draws=256, R=30.0, lam=0.01, epochs=40)
    p.add_argument("--test-fraction", type=_FRACTION, default=0.25)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("diagnose", help="complexity bounds and concentration tables; writes OUT.json, OUT.complexity.csv, OUT.concentration.csv")
    _add_common(p)
    _add_data(p, required=False)
    _add_synthetic(p, n=100)
    _add_bank(p)
    p.add_argument("--draws", "--draw-sweep", type=_DRAWS, default="2048", help="D, or a comma list of D values (one table row per D)")
    p.add_argument("--trials", type=_COUNT, default=5, help="banks per concentration estimate, at seeds --seed ... --seed+trials-1; the first is the bounds bank, so each D draws --trials banks")
    p.add_argument("--R", type=_POSITIVE, default=10.0)
    p.add_argument("--eps", type=_POSITIVE, default=0.1, help="accuracy for the pointwise bound")
    p.add_argument("--pairs", type=_COUNT, default=100, help="pairs for the empirical sup error")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_diagnose)

    return parser


def _config_flags(argv: list[str]) -> list[str]:
    """The entries of the --config file named in ``argv`` as flags, or []."""
    finder = _Parser(add_help=False)
    finder.add_argument("--config")
    path = finder.parse_known_args(argv)[0].config
    if path is None:
        return []
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    flags: list[str] = []
    for key, value in sorted(payload.items()):
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        elif value is not False:
            flags.extend([flag, str(value)])
    return flags


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        # argparse keeps a flag's last value: explicit flags win, file values are checked
        args = parser.parse_args(argv[:1] + _config_flags(argv) + argv[1:])
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ModelIntegrityError as exc:
        print(f"model integrity error: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
