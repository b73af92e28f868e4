"""Norm-ball-constrained linear SVM on random features.

Training minimizes

    (1/n) sum_i [1 - y_i (beta^T Phi_i / sqrt(D) + b0)]_+  +  (lam/2) ||beta||^2

by projected (stochastic) subgradient descent, projecting beta back onto
the ball ||beta||_2 <= R / sqrt(mD) after every step. The offset b0 is
trained unregularized and unconstrained (can be disabled). The returned
model carries the averaged iterate, which is feasible by convexity of the
ball.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset
from .errors import ConfigError, DataError, ModelIntegrityError
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
    schedule: str = "inv_sqrt"  # or "constant"
    seed: int = 0
    fit_offset: bool = True

    def __post_init__(self):
        if self.R <= 0:
            raise ConfigError("R must be positive")
        if self.lam < 0:
            raise ConfigError("lambda must be nonnegative")
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if self.schedule not in ("inv_sqrt", "constant"):
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        if self.step_size <= 0:
            raise ConfigError("step size must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError("batch size must be positive")


@dataclass(frozen=True)
class SvmModel:
    beta: np.ndarray
    offset: float
    R: float
    lam: float
    draws: int  # D, draws per base kernel
    bank: FeatureBank | None = None
    meta: dict = field(default_factory=dict)

    @property
    def radius(self) -> float:
        return self.R / math.sqrt(self.beta.shape[0])


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
) -> tuple[np.ndarray, float]:
    """Subgradient of the full objective at (beta, offset).

    ``scores`` is ``Phi @ beta`` when the caller already has it. At points
    where every margin is away from the hinge kink this is the gradient
    proper (checked against finite differences in the tests).
    """
    n = Phi.shape[0]
    if scores is None:
        scores = Phi @ beta
    active = _margins(scores, y, offset, draws) > 0.0
    g_beta = lam * beta
    g_offset = 0.0
    if active.any():
        # zeros in place of the inactive rows: no copy of the active part of Phi
        ya = np.where(active, y, 0.0)
        g_beta = g_beta - (ya @ Phi) / (n * math.sqrt(draws))
        g_offset = -float(ya.sum()) / n
    return g_beta, g_offset


def _project(beta: np.ndarray, radius: float) -> np.ndarray:
    norm = float(np.linalg.norm(beta))
    if norm > radius:
        return beta * (radius / norm)
    return beta


def train(
    Phi: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    draws: int | None = None,
    bank: FeatureBank | None = None,
) -> SvmModel:
    """Fit the constrained SVM on a prebuilt feature matrix.

    ``draws`` is D, the number of random features per base kernel; it
    defaults to ``bank.draws`` when a bank is given, else to the full
    feature count (single-kernel convention). The bank, when supplied, is
    kept on the model so it can score raw inputs later.
    """
    Phi = np.asarray(Phi, dtype=float)
    y = np.asarray(y, dtype=float)
    if Phi.ndim != 2 or Phi.shape[0] != y.shape[0]:
        raise ConfigError(f"feature matrix {Phi.shape} does not match {y.shape[0]} labels")
    if not np.isfinite(Phi).all():
        raise DataError("feature matrix contains non-finite entries")
    if len(set(np.sign(y).tolist())) < 2:
        raise DataError("training needs both classes present")
    if draws is None:
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
    steps = 0
    max_norm = 0.0  # largest ||beta|| of a projected iterate
    objective_history: list[float] = []
    rng = stream(cfg.seed, 3)

    for _epoch in range(cfg.epochs):
        if full_batch:
            batches = [None]
        else:
            order = rng.permutation(n)
            batches = [
                order[i : i + cfg.batch_size] for i in range(0, n, cfg.batch_size)
            ]
        for batch in batches:
            if full_batch:
                g_beta, g_offset = hinge_subgradient(
                    Phi, y, beta, offset, cfg.lam, draws, scores=scores
                )
            else:
                g_beta, g_offset = hinge_subgradient(
                    Phi[batch], y[batch], beta, offset, cfg.lam, draws
                )
            steps += 1
            eta = cfg.step_size
            if cfg.schedule == "inv_sqrt":
                eta /= math.sqrt(steps)
            beta = _project(beta - eta * g_beta, radius)
            if cfg.fit_offset:
                offset -= eta * g_offset
            max_norm = max(max_norm, float(np.linalg.norm(beta)))
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

    meta = {
        "epochs": cfg.epochs,
        "seed": cfg.seed,
        "steps": steps,
        "final_objective": objective_history[-1],
        "objective_history": objective_history,
        "max_post_step_norm": max_norm,
    }
    return SvmModel(
        beta=beta_avg,
        offset=offset_avg if cfg.fit_offset else 0.0,
        R=cfg.R,
        lam=cfg.lam,
        draws=draws,
        bank=bank,
        meta=meta,
    )


def _features(model: SvmModel, X: np.ndarray) -> np.ndarray:
    if model.bank is None:
        raise ConfigError("model has no feature bank; score feature rows directly")
    return build_feature_matrix(np.atleast_2d(X), model.bank)


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


def decision_values(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """f(x) = beta^T phi^w(x) / sqrt(D) + b0 for every row of X."""
    return _outputs(model, _features(model, X))[0]


def predict(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """Labels in {-1, +1}; a decision value of exactly 0 maps to +1."""
    return _outputs(model, _features(model, X))[1]


def accuracy(model: SvmModel, ds: LabeledDataset) -> float:
    """Fraction of the rows of ``ds`` whose predicted label is correct."""
    return float((_outputs(model, _features(model, ds.features))[1] == ds.labels).mean())


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


def model_to_dict(model: SvmModel, standardization: dict | None = None) -> dict:
    if model.bank is None:
        raise ConfigError("only bank-backed models are serializable")
    document = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "bank": model.bank.to_dict(),
        "R": model.R,
        "lambda": model.lam,
        "beta": model.beta.tolist(),
        "offset": model.offset,
        "standardization": standardization,
    }
    document["frequency_checksum"] = _checksum(document, model.bank)
    return document


def model_from_dict(payload: dict) -> SvmModel:
    try:
        bank = FeatureBank.from_dict(payload["bank"])
        expected = payload["frequency_checksum"]
        beta = np.asarray(payload["beta"], dtype=float)
        model = SvmModel(
            beta=beta,
            offset=float(payload["offset"]),
            R=float(payload["R"]),
            lam=float(payload["lambda"]),
            draws=bank.draws,
            bank=bank,
            meta={"standardization": payload.get("standardization")},
        )
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise ModelIntegrityError(f"malformed model document: {exc}") from None
    if beta.shape != (bank.total_features,):
        raise ModelIntegrityError(
            f"beta shape {beta.shape} does not match bank size {bank.total_features}"
        )
    if not (np.isfinite(beta).all() and math.isfinite(model.offset)):
        raise ModelIntegrityError("beta and offset must be finite")
    if _checksum(payload, bank) != expected:
        raise ModelIntegrityError(
            "model checksum mismatch: the file was changed or its bank does not regenerate"
        )
    return model


def save_model(model: SvmModel, path: str, standardization: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model, standardization), fh, sort_keys=True, indent=2)
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
