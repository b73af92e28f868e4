"""Norm-ball-constrained linear SVM on random features.

Training minimizes

    (1/n) sum_i [1 - y_i (beta^T Phi_i / sqrt(D) + b0)]_+  +  (lam/2) ||beta||^2

by projected (stochastic) subgradient descent, projecting beta back onto
the ball ||beta||_2 <= R / sqrt(mD) after every step of size
step_size / sqrt(t). The offset b0 is trained unregularized and
unconstrained. The returned model carries the averaged iterate, which is
feasible by convexity of the ball.

A model scores raw rows: :func:`outputs`, which every prediction goes
through, replays the model's column standardization before it builds Phi.
The model file's format, bank included, is read and written here alone.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset, apply_standardization
from .errors import ConfigError, DataError, ModelIntegrityError, is_integer
from .kernels import BaseKernel
from .mmd import MixtureWeights
from .rff import FeatureBank, build_feature_matrix
from .rng import stream

MODEL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    R: float = 10.0
    lam: float = 1.0
    epochs: int = 100
    batch_size: int | None = None  # None = full batch (deterministic path)
    step_size: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.R) and self.R > 0):
            raise ConfigError(f"R must be finite and positive, got {self.R}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(f"lambda must be finite and nonnegative, got {self.lam}")
        if not is_integer(self.epochs, 1):
            raise ConfigError(f"epochs must be a positive integer, got {self.epochs!r}")
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ConfigError(f"step size must be finite and positive, got {self.step_size}")
        if self.batch_size is not None and not is_integer(self.batch_size, 1):
            raise ConfigError(f"batch size must be a positive integer, got {self.batch_size!r}")
        if not is_integer(self.seed, 0):
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass(frozen=True)
class SvmModel:
    beta: np.ndarray
    offset: float
    R: float
    lam: float
    draws: int  # D, draws per base kernel
    bank: FeatureBank | None = None
    # {"mean": [...], "std": [...]} of the training columns, replayed on raw rows; None when trained unscaled
    standardization: dict | None = None
    meta: dict = field(default_factory=dict)  # training telemetry; never written to the model file


def _margins(scores: np.ndarray, y: np.ndarray, offset: float, draws: int) -> np.ndarray:
    """Hinge arguments 1 - y_i f(x_i), given ``scores = Phi @ beta``."""
    return 1.0 - y * (scores / math.sqrt(draws) + offset)


def _objective(
    scores: np.ndarray,
    y: np.ndarray,
    beta: np.ndarray,
    offset: float,
    lam: float,
    draws: int,
) -> float:
    """The objective at (beta, offset) given ``scores = Phi @ beta``."""
    margins = _margins(scores, y, offset, draws)
    return float(np.maximum(margins, 0.0).mean() + 0.5 * lam * beta @ beta)


def hinge_objective(
    Phi: np.ndarray,
    y: np.ndarray,
    beta: np.ndarray,
    offset: float,
    lam: float,
    draws: int,
) -> float:
    return _objective(Phi @ beta, y, beta, offset, lam, draws)


def hinge_subgradient(
    Phi: np.ndarray,
    y: np.ndarray,
    beta: np.ndarray,
    offset: float,
    lam: float,
    draws: int,
    scores: np.ndarray | None = None,
    hinge: dict | None = None,
) -> tuple[np.ndarray, float]:
    """Subgradient of the full objective at (beta, offset).

    ``scores`` is ``Phi @ beta`` when the caller already has it. At points
    where every margin is away from the hinge kink this is the gradient
    proper (checked against finite differences in the tests).

    The hinge part depends on the active set alone. ``hinge`` is a dict the
    caller keeps across calls on the same Phi and y: it holds the last
    active set with its hinge part, which is formed again only when the set
    changes. The result has the same bits either way.
    """
    n = Phi.shape[0]
    if scores is None:
        scores = Phi @ beta
    active = _margins(scores, y, offset, draws) > 0.0
    if hinge is not None and np.array_equal(active, hinge.get("active")):
        term = hinge["term"]
    else:
        term = None
        if active.any():
            # zeros in place of the inactive rows: no copy of the active part of Phi
            ya = np.where(active, y, 0.0)
            term = (ya @ Phi) / (n * math.sqrt(draws)), -float(ya.sum()) / n
        if hinge is not None:
            hinge.update(active=active, term=term)
    if term is None:
        return lam * beta, 0.0
    return lam * beta - term[0], term[1]


def _project(beta: np.ndarray, radius: float) -> tuple[np.ndarray, float]:
    """beta projected onto the ball of ``radius``, and the measured norm of
    the result (taken again only when the ball fired)."""
    norm = float(np.linalg.norm(beta))
    if norm > radius:
        beta = beta * (radius / norm)
        norm = float(np.linalg.norm(beta))
    return beta, norm


def train(
    Phi: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    bank: FeatureBank | None = None,
) -> SvmModel:
    """Fit the constrained SVM on a prebuilt feature matrix.

    D, the number of random features per base kernel, is ``bank.draws``
    when a bank is given, else the full feature count (single-kernel
    convention). The bank, when supplied, is kept on the model so it can
    score raw inputs later.
    """
    Phi = np.asarray(Phi, dtype=float)
    y = np.asarray(y, dtype=float)
    if Phi.ndim != 2 or Phi.shape[0] != y.shape[0]:
        raise ConfigError(f"feature matrix {Phi.shape} does not match {y.shape[0]} labels")
    if Phi.shape[1] == 0:
        raise ConfigError("feature matrix has no columns")
    # in row blocks of about 65,536 entries: no n x mD mask, and as fast as one
    rows = max(1, 2**16 // max(1, Phi.shape[1]))
    if not all(np.isfinite(Phi[start : start + rows]).all() for start in range(0, Phi.shape[0], rows)):
        raise DataError("feature matrix contains non-finite entries")
    if len(set(np.sign(y).tolist())) < 2:
        raise DataError("training needs both classes present")
    draws = bank.draws if bank is not None else Phi.shape[1]

    n, total = Phi.shape
    full_batch = cfg.batch_size is None
    radius = cfg.R / math.sqrt(total)
    beta = np.zeros(total)
    offset = 0.0
    beta_avg = np.zeros(total)
    offset_avg = 0.0
    # Full batch: Phi @ beta of the current iterate and, since the scores are
    # linear in beta, their running average, which equals Phi @ beta_avg.
    scores = np.zeros(n)
    scores_avg = np.zeros(n)
    # Full batch: the last active set and its hinge part (see hinge_subgradient)
    hinge = {} if full_batch else None
    steps = 0
    max_norm = 0.0  # largest ||beta|| of a projected iterate
    objective_history: list[float] = []
    rng = stream(cfg.seed, 3, 0)  # one-element paths (seed, k) are the banks' streams

    for _epoch in range(cfg.epochs):
        if full_batch:
            batches = [slice(None)]  # a view of Phi, not a copy
        else:
            batches = np.split(rng.permutation(n), range(cfg.batch_size, n, cfg.batch_size))
        for batch in batches:
            g_beta, g_offset = hinge_subgradient(
                Phi[batch], y[batch], beta, offset, cfg.lam, draws,
                scores=scores if full_batch else None, hinge=hinge,
            )
            steps += 1
            eta = cfg.step_size / math.sqrt(steps)
            beta, norm = _project(beta - eta * g_beta, radius)
            offset -= eta * g_offset
            max_norm = max(max_norm, norm)
            beta_avg += (beta - beta_avg) / steps
            offset_avg += (offset - offset_avg) / steps
            if full_batch:
                scores = Phi @ beta
                scores_avg += (scores - scores_avg) / steps
        if full_batch:
            objective = _objective(scores_avg, y, beta_avg, offset_avg, cfg.lam, draws)
        else:
            objective = hinge_objective(Phi, y, beta_avg, offset_avg, cfg.lam, draws)
        objective_history.append(objective)

    meta = {"objective_history": objective_history, "max_post_step_norm": max_norm}
    return SvmModel(
        beta=beta_avg,
        offset=offset_avg,
        R=cfg.R,
        lam=cfg.lam,
        draws=draws,
        bank=bank,
        meta=meta,
    )


def _outputs(model: SvmModel, Phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decision values, labels and soft outputs of the rows of a prebuilt Phi.

    f = beta^T phi^w(x) / sqrt(D) + b0; a decision value of exactly 0 maps
    to label +1; the soft output is the logistic of f, clamped inside (0, 1).
    """
    dv = Phi @ model.beta / math.sqrt(model.draws) + model.offset
    labels = np.where(dv >= 0.0, 1, -1)
    with np.errstate(over="ignore"):
        soft = np.clip(1.0 / (1.0 + np.exp(-dv)), 1e-15, 1.0 - 1e-15)
    return dv, labels, soft


def outputs(model: SvmModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decision values, labels and soft outputs of the raw rows of X, after
    the model's standardization, when it has one, is replayed on them."""
    if model.bank is None:
        raise ConfigError("model has no feature bank; score feature rows directly")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.bank.dim:  # checked before the replay, which would broadcast
        raise ConfigError(f"data dim {X.shape[1]} does not match bank dim {model.bank.dim}")
    if model.standardization is not None:
        X = apply_standardization(X, model.standardization["mean"], model.standardization["std"])
    return _outputs(model, build_feature_matrix(X, model.bank))


def decision_values(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """f(x) = beta^T phi^w(x) / sqrt(D) + b0 for every raw row of X."""
    return outputs(model, X)[0]


def predict(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """Labels in {-1, +1} of the raw rows of X; a decision value of exactly 0 maps to +1."""
    return outputs(model, X)[1]


def accuracy(model: SvmModel, ds: LabeledDataset) -> float:
    """Fraction of the raw rows of ``ds`` whose predicted label is correct."""
    return float((outputs(model, ds.features)[1] == ds.labels).mean())


# -- persistence -------------------------------------------------------------


def _checksum(document: dict, bank: FeatureBank) -> str:
    """SHA-256 of the model document and of the bank it regenerates.

    The document (every field but the checksum) is hashed as canonical JSON,
    so any change to the kernels, weights, beta, offset, R, lambda or
    standardization shows; the regenerated frequencies and phases are hashed
    as little-endian doubles, so a generator that no longer reproduces the
    bank shows too.
    """
    fields = {k: v for k, v in document.items() if k != "frequency_checksum"}
    digest = hashlib.sha256(json.dumps(fields, sort_keys=True).encode())
    for xi, b in zip(bank.frequencies, bank.phases):
        digest.update(np.ascontiguousarray(xi, dtype="<f8").tobytes())
        digest.update(np.ascontiguousarray(b, dtype="<f8").tobytes())
    return digest.hexdigest()


def model_to_dict(model: SvmModel) -> dict:
    if (bank := model.bank) is None:
        raise ConfigError("only bank-backed models are serializable")
    document = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "bank": {
            "kernels": [{"family": k.family, "rho": k.rho} for k in bank.kernels],
            "weights": bank.weights.weights.tolist(),
            "degenerate": bank.weights.degenerate,
            "draws": bank.draws,
            "dim": bank.dim,
            "seed": bank.seed,
        },
        "R": model.R,
        "lambda": model.lam,
        "beta": model.beta.tolist(),
        "offset": model.offset,
        "standardization": model.standardization,
    }
    document["frequency_checksum"] = _checksum(document, bank)
    return document


def _number(value, what: str) -> float:
    """A JSON number: an int or a float, never a bool or a string."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a JSON number, got {value!r}")
    return float(value)


def _numbers(values, what: str) -> np.ndarray:
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of JSON numbers, got {values!r}")
    return np.array([_number(value, what) for value in values], dtype=float)


def model_from_dict(payload: dict) -> SvmModel:
    """The model a parsed :func:`model_to_dict` document names.

    First every field must have its JSON type (no bool, string or float is
    coerced); then every stated size must match the arrays the document
    carries (beta holds m * draws entries, a standardization record dim
    each) and beta and the offset must be finite; only then is the bank
    drawn and the checksum verified. Each failure is a ModelIntegrityError,
    among them a bank too large to draw (a null standardization bounds no
    ``dim`` by an array).
    """
    try:
        spec = payload["bank"]
        kernels = [BaseKernel(k["family"], _number(k["rho"], "rho")) for k in spec["kernels"]]
        degenerate = spec["degenerate"]
        if type(degenerate) is not bool:
            raise ValueError(f"degenerate must be true or false, got {degenerate!r}")
        weights = MixtureWeights(_numbers(spec["weights"], "weights"), degenerate=degenerate)
        draws, dim, seed = (spec[key] for key in ("draws", "dim", "seed"))
        for key, value, least in (("draws", draws, 1), ("dim", dim, 1), ("seed", seed, 0)):
            if not is_integer(value, least):  # never a bool, a float or a string
                raise ValueError(f"{key} must be a JSON integer >= {least}, got {value!r}")
        beta = _numbers(payload["beta"], "beta")
        offset, R, lam = (_number(payload[key], key) for key in ("offset", "R", "lambda"))
        expected = payload["frequency_checksum"]
        record = payload["standardization"]
        if record is not None:
            if not isinstance(record, dict) or record.keys() != {"mean", "std"}:
                raise ValueError("standardization must be null or hold exactly mean and std")
            mean, std = (_numbers(record[key], key) for key in ("mean", "std"))
            if not mean.shape == std.shape == (dim,) or not np.isfinite([mean, std]).all() or (std < 0).any():
                raise ValueError(f"standardization must hold finite vectors of length {dim}, std >= 0")
            record = {"mean": mean.tolist(), "std": std.tolist()}
        if beta.size != len(kernels) * draws:
            raise ValueError(f"beta has {beta.size} entries, not {len(kernels)} kernels * {draws} draws")
        if not (np.isfinite(beta).all() and math.isfinite(offset)):
            raise ValueError("beta and offset must be finite")
        bank = FeatureBank.generate(kernels, weights, draws, dim, seed)
        if _checksum(payload, bank) != expected:
            raise ModelIntegrityError("model checksum mismatch: the file was changed or its bank does not regenerate")
    except (KeyError, TypeError, ValueError, ConfigError, MemoryError) as exc:
        raise ModelIntegrityError(f"malformed model document: {exc}") from None
    return SvmModel(beta=beta, offset=offset, R=R, lam=lam, draws=draws, bank=bank, standardization=record)


def save_model(model: SvmModel, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_model(path: str) -> SvmModel:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ModelIntegrityError(f"{path}: not valid JSON ({exc})") from None
    return model_from_dict(payload)
