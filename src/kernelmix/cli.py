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
from dataclasses import asdict, fields

import numpy as np

from .data import (
    LabeledDataset,
    apply_standardization,
    diameter,
    load_dataset,
    load_features,
    split_by_label,
    standardize,
)
from .diagnostics import (
    ComplexityReport,
    complexity_bounds,
    empirical_sup_error,
    frobenius_concentration,
    pointwise_error_bound,
    spectral_concentration,
)
from .errors import ConfigError, DataError, ModelIntegrityError
from .kernels import BaseKernel
from .mmd import MixtureWeights, mixing_weights, mmd_scores
from .rff import FeatureBank, build_feature_matrix, spectral_second_moment
from .select import compare_selection, log_grid
from .svm import TrainConfig, _outputs, load_model, save_model, train
from .synthetic import two_gaussian_dataset

SCHEMA_VERSION = 1

#: 9-point grid of the built-in two-Gaussian benchmark.
BENCHMARK_GAMMAS = tuple(10.0**e for e in range(-4, 5))

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
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[dict]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(row[col]) for col in header))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_floats(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise ConfigError("empty numeric list")
    return values


def _bank_kernels(args) -> list[BaseKernel]:
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    gammas = _parse_floats(args.gammas)
    if len(families) == 1:
        families = families * len(gammas)
    if len(families) != len(gammas):
        raise ConfigError(
            f"{len(families)} families vs {len(gammas)} gammas; give one family "
            "or one per gamma"
        )
    return [BaseKernel.from_gamma(fam, g) for fam, g in zip(families, gammas)]


def _load_input(args):
    """The --data file, standardized unless --no-standardize; (dataset, stats or None)."""
    ds = load_dataset(args.data, format=args.format)
    if args.no_standardize:
        return ds, None
    return standardize(ds)


def _synthetic_or_data(args) -> LabeledDataset:
    """The built-in --synthetic benchmark (always standardized) or the --data file."""
    if args.synthetic:
        ds = two_gaussian_dataset(n=args.synthetic_n, dim=args.synthetic_dim, seed=args.seed)
        return standardize(ds)[0]
    if args.data is None:
        raise ConfigError(f"{args.command} needs --data or --synthetic")
    return _load_input(args)[0]


# -- commands ----------------------------------------------------------------


def cmd_score(args) -> int:
    ds, _stats = _load_input(args)
    split = split_by_label(ds)
    kernels = _bank_kernels(args)
    scores = mmd_scores(kernels, split.positives, split.negatives, estimator=args.estimator)
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
        "n_plus": split.n_plus,
        "n_minus": split.n_minus,
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
    ds, stats = _load_input(args)
    split = split_by_label(ds)
    kernels = _bank_kernels(args)
    weights = mixing_weights(kernels, split.positives, split.negatives, estimator=args.estimator)
    bank = FeatureBank.generate(kernels, weights, args.draws, ds.dim, args.seed)
    Phi = build_feature_matrix(ds.features, bank)
    cfg = TrainConfig(
        R=args.R,
        lam=args.lam,
        epochs=args.epochs,
        batch_size=args.batch_size,
        step_size=args.step_size,
        schedule=args.schedule,
        seed=args.seed,
        fit_offset=not args.no_offset,
    )
    model = train(Phi, ds.labels, cfg, bank=bank)
    standardization = None
    if stats is not None:
        standardization = {
            "mean": stats.per_feature_mean.tolist(),
            "std": stats.per_feature_std.tolist(),
        }
    save_model(model, args.out, standardization=standardization)
    log = {
        "command": "train",
        "seed": args.seed,
        "weights": weights.weights.tolist(),
        "degenerate": weights.degenerate,
        "objective_history": model.meta["objective_history"],
        "final_objective": model.meta["final_objective"],
        "train_accuracy": float((_outputs(model, Phi)[1] == ds.labels).mean()),
    }
    _write_json(args.log or args.out + ".log.json", log)
    print(f"wrote model {args.out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = load_model(args.model)
    features = load_features(args.data, args.format, model.bank.dim)
    standardization = model.meta.get("standardization")
    if standardization is not None:
        features = apply_standardization(
            features, standardization["mean"], standardization["std"]
        )
    dv, labels, soft = _outputs(model, build_feature_matrix(features, model.bank))
    rows = [
        {
            "index": i,
            "decision_value": float(dv[i]),
            "soft_output": float(soft[i]),
            "label": int(labels[i]),
        }
        for i in range(features.shape[0])
    ]
    _write_csv(args.out, ["index", "decision_value", "soft_output", "label"], rows)
    print(f"wrote {args.out} ({len(rows)} predictions)")
    return EXIT_OK


def cmd_select(args) -> int:
    ds = _synthetic_or_data(args)
    if args.gammas:
        gammas = np.array(_parse_floats(args.gammas))
    else:
        gammas = np.array(BENCHMARK_GAMMAS) if args.synthetic else log_grid()
    cfg = TrainConfig(
        R=args.R,
        lam=args.lam,
        epochs=args.epochs,
        step_size=args.step_size,
        seed=args.seed,
    )
    report = compare_selection(
        ds, gammas, args.folds, cfg, args.draws, args.seed, test_fraction=args.test_fraction
    )
    _write_csv(args.out + ".csv", ["gamma", "cv_mean", "cv_std", "mmd_score"], report.rows())
    payload = report.to_dict()
    # wall-clock timings are not reproducible; keep them off the primary outputs
    cv_seconds = payload.pop("cv_seconds")
    mmd_seconds = payload.pop("mmd_seconds")
    _write_json(args.out + ".json", {"command": "select", "seed": args.seed, **payload})
    print(
        f"cv_gamma={report.cv_gamma:g} mmd_gamma={report.mmd_gamma:g} "
        f"agreement={report.agreement} (cv {cv_seconds:.3f}s, mmd {mmd_seconds:.3f}s)",
        file=sys.stderr,
    )
    print(f"wrote {args.out}.csv and {args.out}.json")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    ds = _synthetic_or_data(args)
    kernels = _bank_kernels(args)
    split = split_by_label(ds)
    weights = mixing_weights(kernels, split.positives, split.negatives, estimator=args.estimator)
    sweep = [int(v) for v in _parse_floats(args.draw_sweep)] if args.draw_sweep else [args.draws]
    seeds = list(range(args.trials))

    complexity_rows, concentration_rows = [], []
    violation = False
    for draws in sweep:
        bank = FeatureBank.generate(kernels, weights, draws, ds.dim, args.seed)
        Phi = build_feature_matrix(ds.features, bank)
        report = complexity_bounds(Phi, args.R, draws, len(kernels))
        complexity_rows.append(asdict(report))
        if report.erfc_bound > report.khintchine_bound:
            violation = True
        fro = frobenius_concentration(ds.features, kernels, weights, draws, seeds)
        spec = spectral_concentration(ds.features, kernels, weights, draws, seeds)
        concentration_rows.append(
            {
                "draws": draws,
                "frobenius_max_deviation": fro["max_deviation"],
                "frobenius_mean_deviation": fro["mean_deviation"],
                "spectral_max_deviation": spec["max_deviation"],
                "spectral_mean_deviation": spec["mean_deviation"],
            }
        )

    first = kernels[0]
    sigma_p = math.sqrt(spectral_second_moment(first, ds.dim))
    if math.isfinite(sigma_p):
        pointwise = pointwise_error_bound(args.eps, sweep[-1], ds.dim, sigma_p, diameter(ds))
    else:
        pointwise = {"skipped": "infinite spectral second moment (Laplacian sampler)"}
    sup_err = empirical_sup_error(first, sweep[-1], ds.features, args.pairs, args.seed)

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


def _add_common(p: _Parser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed; all streams derive from it")
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
        default="gaussian",
        help="kernel family, or comma list matching --gammas (gaussian|laplacian|anova)",
    )
    p.add_argument("--gammas", default="1.0", help="comma list of gamma = 1/(2 rho^2) values")
    p.add_argument("--estimator", choices=("auto", "biased", "unbiased_balanced"), default="auto")


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
    p.add_argument("--draws", type=int, default=512, help="random features per base kernel (D)")
    p.add_argument("--R", type=float, default=10.0, help="coefficient ball parameter")
    p.add_argument("--lam", type=float, default=1.0, help="regularization weight")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--step-size", type=float, default=0.5)
    p.add_argument("--schedule", choices=("inv_sqrt", "constant"), default="inv_sqrt")
    p.add_argument("--no-offset", action="store_true", help="disable the unregularized offset term")
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--log", default=None, help="training log path (default: OUT.log.json)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score a data file with a saved model; writes CSV (columns: index,decision_value,soft_output,label)")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=("csv", "libsvm"), default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("select", help="CV vs MMD bandwidth comparison; writes OUT.csv (columns: gamma,cv_mean,cv_std,mmd_score) and OUT.json")
    _add_common(p)
    _add_data(p, required=False)
    p.add_argument("--synthetic", choices=("two-gaussian",), default=None, help="use the built-in benchmark instead of --data")
    p.add_argument("--synthetic-n", type=int, default=400)
    p.add_argument("--synthetic-dim", type=int, default=5)
    p.add_argument("--gammas", default=None, help="comma list; default: benchmark grid (synthetic) or the 10^-20..10^3 grid")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--draws", type=int, default=256)
    p.add_argument("--R", type=float, default=30.0)
    p.add_argument("--lam", type=float, default=0.01, help="weak default: the harness needs real margins")
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--step-size", type=float, default=0.5)
    p.add_argument("--test-fraction", type=float, default=0.25)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("diagnose", help="complexity bounds (both erfc variants, labeled) and concentration tables; writes OUT.json, OUT.complexity.csv, OUT.concentration.csv")
    _add_common(p)
    _add_data(p, required=False)
    p.add_argument("--synthetic", choices=("two-gaussian",), default=None)
    p.add_argument("--synthetic-n", type=int, default=100)
    p.add_argument("--synthetic-dim", type=int, default=5)
    _add_bank(p)
    p.add_argument("--draws", type=int, default=2048)
    p.add_argument("--draw-sweep", default=None, help="comma list of D values (one table row per D)")
    p.add_argument("--trials", type=int, default=5, help="seeds per concentration estimate")
    p.add_argument("--R", type=float, default=10.0)
    p.add_argument("--eps", type=float, default=0.1, help="accuracy for the pointwise bound")
    p.add_argument("--pairs", type=int, default=100, help="pairs for the empirical sup error")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_diagnose)

    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        path = argv[idx + 1]
    except IndexError:
        raise ConfigError("--config needs a path") from None
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    # config supplies defaults; explicit flags take precedence
    extra: list[str] = []
    for key, value in sorted(payload.items()):
        flag = "--" + key.replace("_", "-")
        if flag in argv:
            continue
        if isinstance(value, bool):
            if value:
                extra.append(flag)
        else:
            extra.extend([flag, str(value)])
    head, tail = argv[:1], argv[1:]
    return head + extra + tail


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        if argv:
            argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
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
