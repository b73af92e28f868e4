"""Synthetic benchmark generators used by the selection harness and tests."""

from __future__ import annotations

import math

import numpy as np

from .data import LabeledDataset
from .rng import stream


def two_gaussian_dataset(
    n: int = 400,
    dim: int = 5,
    separation: float = 1.2,
    seed: int = 0,
) -> LabeledDataset:
    """Balanced draw from two isotropic Gaussians with means +/- mu.

    mu = (separation / sqrt(dim)) * ones, so ||mu_+ - mu_-|| = 2 * separation
    regardless of dimension and the Bayes accuracy is Phi(separation).
    """
    rng = stream(seed, 7)
    half = n // 2
    mu = (separation / math.sqrt(dim)) * np.ones(dim)
    pos = rng.normal(size=(half, dim)) + mu
    neg = rng.normal(size=(n - half, dim)) - mu
    features = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(half, dtype=int), -np.ones(n - half, dtype=int)])
    order = rng.permutation(n)
    return LabeledDataset(features[order], labels[order])


def planted_feature_dataset(
    n: int = 120,
    dim: int = 8,
    seed: int = 0,
) -> tuple[LabeledDataset, int]:
    """Labels depend on one planted coordinate; the rest are noise.

    The planted index defaults to seed % dim so recovery tests cannot pass
    by positional tie-breaking. Returns (dataset, planted index).
    """
    rng = stream(seed, 13)
    informative = seed % dim
    features = rng.normal(size=(n, dim))
    # keep the informative coordinate away from zero so labels are stable
    features[:, informative] += np.where(features[:, informative] >= 0, 0.5, -0.5)
    labels = np.where(features[:, informative] >= 0, 1, -1)
    return LabeledDataset(features, labels), informative
