"""Expansion-based local intrinsic dimensionality and companion signals.

The centerpiece is the maximum-likelihood LID estimate from a neighborhood
distance profile:

    lid(x) = -((1/k) sum_i log(r_i / r_k))^-1 = -(mean_i log r_i - log r_k)^-1

with r_1 <= ... <= r_k the profile distances, invariant to rescaling them all
by a positive constant.  ``lid_of_distances`` takes the second form for every
k of a sweep from one ``log`` of the sorted distances.  The kernel density and
uncertainty signals are the classic comparison points: a class-conditional
Gaussian-kernel score and the variance of stochastic dropout predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import microgradnet
from .errors import DegenerateProfileError, InfiniteEstimateError, ShapeError
from .neighborhood import DistanceProfile


@dataclass(frozen=True)
class LidEstimate:
    value: float
    k: int
    layer_index: int = 0


@dataclass(frozen=True)
class KdConfig:
    """Gaussian kernel exp(-||q - r||^2 / sigma^2); sigma must be positive."""

    bandwidth_sigma: float

    def __post_init__(self):
        if not self.bandwidth_sigma > 0.0:
            raise ValueError("bandwidth must be positive")


@dataclass(frozen=True)
class BuConfig:
    """Number of stochastic passes (seeds base_seed .. base_seed+T-1)."""

    num_runs: int = 50
    base_seed: int = 0

    def __post_init__(self):
        if self.num_runs < 2:
            raise ValueError("variance needs at least two runs")


def mle_lid(profile: DistanceProfile, layer_index: int = 0) -> LidEstimate:
    """Maximum-likelihood LID of one neighborhood distance profile.

    Any zero distance inside the profile makes the log-ratio undefined and
    raises DegenerateProfileError; all distances equal (every log-ratio zero)
    means unbounded concentration and raises InfiniteEstimateError.  The
    returned value is always finite and positive.
    """
    d = profile.distances
    if d[0] <= 0.0:
        raise DegenerateProfileError("zero distance inside the profile")
    mean_log_ratio = float(np.mean(np.log(d / d[-1])))
    if mean_log_ratio == 0.0:
        raise InfiniteEstimateError("all neighbor distances are equal")
    return LidEstimate(value=-1.0 / mean_log_ratio, k=profile.k,
                       layer_index=layer_index)


def lid_of_distances(sorted_distances: np.ndarray, ks) -> np.ndarray:
    """(len(ks), n) LID at each k in ``ks`` (1..K, any order) of ascending
    (n, K) distance rows, from one ``log``: -1/m, m the mean of the first k
    logs less the k-th, so row v reads ``d[:, :ks[v]]`` alone.  A zero first
    distance raises DegenerateProfileError.  A prefix of equal logs (their
    mean may round below the last) or m >= 0 raises InfiniteEstimateError,
    so every value returned is finite and positive."""
    d = np.asarray(sorted_distances, dtype=float)
    if d.ndim != 2 or not all(1 <= k <= d.shape[1] for k in ks):
        raise ShapeError("expected (n, K) sorted distances and ks in 1..K")
    if np.any(d[:, 0] <= 0.0):
        raise DegenerateProfileError("zero distance inside a profile")
    logs = np.log(d)
    m = np.array([logs[:, :k].mean(axis=1) - logs[:, k - 1] for k in ks])
    tied = logs[:, np.subtract(ks, 1)].T == logs[:, 0]
    if np.any(tied | (m >= 0.0)):
        raise InfiniteEstimateError("all neighbor distances are equal")
    return -1.0 / m


def kernel_density(query, class_refs: np.ndarray, config: KdConfig) -> float:
    """Mean Gaussian-kernel affinity of a query to same-class references.

    The kernel is unnormalized (exp of negative scaled squared distance), so
    scores live in (0, 1] and are comparable across queries for a fixed
    bandwidth.
    """
    q = np.asarray(query, dtype=float)
    refs = np.asarray(class_refs, dtype=float)
    if refs.ndim != 2 or refs.shape[0] < 1:
        raise ValueError("need at least one same-class reference")
    if q.ndim != 1 or q.shape[0] != refs.shape[1]:
        raise ShapeError("query and references do not align")
    sq = ((refs - q) ** 2).sum(axis=1)
    return float(np.mean(np.exp(-sq / config.bandwidth_sigma ** 2)))


def bayes_uncertainty_batch(net, xs: np.ndarray, config: BuConfig) -> np.ndarray:
    """Dropout-variance uncertainty for each row of ``xs``.

    Runs T stochastic passes with seeds base_seed..base_seed+T-1, then takes
    the sample variance (ddof=1) of each class probability over the runs and
    averages the variances across classes.
    """
    xs = np.asarray(xs, dtype=float)
    runs = np.stack([
        microgradnet.activations_batch(net, xs, mode="stochastic",
                                       seed=config.base_seed + t)[-1]
        for t in range(config.num_runs)
    ])
    return runs.var(axis=0, ddof=1).mean(axis=1)


def minmax_normalize(values: np.ndarray) -> np.ndarray:
    """Affine map of a 1-D array onto [0, 1]; a constant array maps to zeros."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ShapeError("expected a 1-D array")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    span = v.max() - v.min()
    if span == 0.0:
        return np.zeros_like(v)
    return (v - v.min()) / span
