"""Multiple kernel learning from MMD scores of class-conditional samples.

Pipeline: score a bank of shift-invariant base kernels by the MMD between
the two class-conditional empirical measures, turn the scores into simplex
mixture weights, draw mixture-weighted random Fourier features, and train a
norm-ball-constrained linear SVM on them. Diagnostics expose computable
complexity bounds and feature-matrix concentration checks.
"""

from .data import (
    LabeledDataset,
    diameter,
    kfold_split,
    load_dataset,
    split_by_label,
    standardize,
)
from .errors import ConfigError, DataError, KernelmixError, ModelIntegrityError
from .kernels import BaseKernel, mixture_gram
from .mmd import (
    MixtureWeights,
    MmdScore,
    gaussian_mmd_closed_form,
    gaussian_mmd_squared_closed_form,
    mixing_weights,
    mmd_score,
    mmd_scores,
)
from .rff import FeatureBank, build_feature_matrix, sample_frequencies
from .svm import SvmModel, TrainConfig, load_model, predict, save_model, train

__version__ = "0.1.0"

__all__ = [
    "BaseKernel",
    "ConfigError",
    "DataError",
    "FeatureBank",
    "KernelmixError",
    "LabeledDataset",
    "MixtureWeights",
    "MmdScore",
    "ModelIntegrityError",
    "SvmModel",
    "TrainConfig",
    "build_feature_matrix",
    "diameter",
    "gaussian_mmd_closed_form",
    "gaussian_mmd_squared_closed_form",
    "kfold_split",
    "load_dataset",
    "load_model",
    "mixing_weights",
    "mixture_gram",
    "mmd_score",
    "mmd_scores",
    "predict",
    "sample_frequencies",
    "save_model",
    "split_by_label",
    "standardize",
    "train",
]
