"""lidkit — characterizing adversarial examples by the intrinsic
dimensionality of their local neighborhoods.

The library is organized bottom-up:

- ``microgradnet``: a tiny dense-network stack (forward, backprop-to-input,
  SGD training) built on numpy so gradients are available everywhere.
- ``neighborhood``: minibatch sampling and the exact k-nearest-neighbor
  distance kernel, with its single-query form ``knn_profile``.
- ``characteristics``: the maximum-likelihood local intrinsic
  dimensionality estimator plus kernel-density and predictive-uncertainty
  scores.
- ``attacks``: fast-gradient, iterative, saliency-pair, and optimization
  attacks, plus matched-magnitude noise baselines.
- ``detector``: per-layer feature extraction, logistic-regression
  detectors, AUC evaluation, transfer and tuning utilities.
- ``harness``: dataset generators, flat-file configs, experiment recipes,
  and report serialization.
"""

from .characteristics import (
    BuConfig,
    KdConfig,
    LidEstimate,
    bayes_uncertainty_batch,
    kernel_density,
    lid_of_distances,
    minmax_normalize,
    mle_lid,
)
from .attacks import (
    ATTACK_KINDS,
    AttackConfig,
    AttackOutcome,
    adaptive_opt_lid,
    bim_a,
    bim_b,
    fgm,
    gaussian_l2_noise,
    jsma,
    matched_noise,
    minmax_pixel_noise,
    opt_l2,
    run_attack,
)
from .detector import (
    FEATURE_KINDS,
    DetectorModel,
    FeatureMatrix,
    TuningResult,
    adaptive_failure_rate,
    auc,
    extract_features,
    features_from,
    features_sweep,
    held_out_auc,
    layerwise_auc,
    lid_feature_row,
    load_detector,
    load_feature_matrix,
    prepare_batch,
    save_detector,
    save_feature_matrix,
    score,
    select_kind,
    train_detector,
    train_detectors,
    transfer_evaluate,
    tune_parameter,
)
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
from .microgradnet import (
    ActivationStack,
    CrossEntropy,
    CustomScalar,
    LayerSpec,
    LogitMargin,
    Network,
    SgdConfig,
    activations_batch,
    backprop_to_input,
    forward_capture,
    init_network,
    input_gradient,
    load_network,
    logit_jacobian,
    predict,
    predict_batch,
    save_network,
    train_sgd,
)
from .neighborhood import (
    DistanceProfile,
    Minibatch,
    distances_to,
    knn_profile,
    nearest_distances,
    sample_minibatch,
    squared_distances,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "LidkitError", "ShapeError", "NumericOverflowError",
    "TrainingDivergedError", "DegenerateProfileError",
    "InfiniteEstimateError", "NoDirectionError", "ExhaustedFeaturesError",
    "EmptyPositiveClassError", "ParseError",
    # network
    "LayerSpec", "Network", "ActivationStack", "SgdConfig",
    "CrossEntropy", "LogitMargin", "CustomScalar",
    "init_network", "train_sgd", "forward_capture", "activations_batch",
    "predict", "predict_batch", "input_gradient", "backprop_to_input",
    "logit_jacobian", "save_network", "load_network",
    # neighborhoods
    "Minibatch", "DistanceProfile", "sample_minibatch", "squared_distances",
    "nearest_distances", "knn_profile", "distances_to",
    # characteristics
    "LidEstimate", "KdConfig", "BuConfig", "mle_lid", "lid_of_distances",
    "kernel_density", "bayes_uncertainty_batch",
    "minmax_normalize",
    # attacks
    "ATTACK_KINDS", "AttackConfig", "AttackOutcome", "run_attack",
    "fgm", "bim_a", "bim_b", "jsma", "opt_l2", "adaptive_opt_lid",
    "gaussian_l2_noise", "minmax_pixel_noise", "matched_noise",
    # detector
    "FEATURE_KINDS", "FeatureMatrix", "DetectorModel", "TuningResult",
    "prepare_batch", "features_from", "features_sweep", "extract_features",
    "select_kind",
    "lid_feature_row", "train_detector", "train_detectors", "score", "auc",
    "held_out_auc",
    "transfer_evaluate", "layerwise_auc", "tune_parameter",
    "adaptive_failure_rate", "save_feature_matrix", "load_feature_matrix",
    "save_detector", "load_detector",
]
