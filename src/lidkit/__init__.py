"""lidkit — characterizing adversarial examples by the intrinsic
dimensionality of their local neighborhoods.

The library is organized bottom-up:

- ``microgradnet``: a tiny dense-network stack (forward, backprop-to-input,
  SGD training) built on numpy so gradients are available everywhere.
- ``neighborhood``: minibatches and the exact k-nearest-neighbor distance
  kernel, with its single-query form ``knn_profile``.
- ``characteristics``: the maximum-likelihood local intrinsic
  dimensionality estimator plus kernel-density and predictive-uncertainty
  scores.
- ``attacks``: fast-gradient, iterative, saliency-pair, and optimization
  attacks, plus the noise kinds matched to them.
- ``detector``: per-layer feature extraction, logistic-regression
  detectors, AUC evaluation, transfer and tuning utilities.
- ``harness``: dataset generators, flat-file configs, experiment recipes,
  and report serialization.
- ``blas``: holds numpy's BLAS at one thread while the pipeline runs.

The package itself exports the names of the README's library tour and the
error classes; everything else is imported from its own module.
"""

from .attacks import AttackConfig
from .characteristics import mle_lid
from .detector import extract_features, held_out_auc, train_detector
from .errors import (
    DegenerateProfileError,
    EmptyPositiveClassError,
    ExhaustedFeaturesError,
    InfiniteEstimateError,
    LidkitError,
    NoDirectionError,
    NumericOverflowError,
    ParseError,
    ShapeError,
    TrainingDivergedError,
)
from .neighborhood import Minibatch, knn_profile

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "LidkitError", "ShapeError", "NumericOverflowError",
    "TrainingDivergedError", "DegenerateProfileError",
    "InfiniteEstimateError", "NoDirectionError", "ExhaustedFeaturesError",
    "EmptyPositiveClassError", "ParseError",
    # the library tour
    "AttackConfig", "Minibatch", "extract_features", "knn_profile", "mle_lid",
    "train_detector", "held_out_auc",
]
