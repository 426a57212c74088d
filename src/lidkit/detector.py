"""Minibatch feature extraction, logistic-regression detectors, and AUC tooling.

The training-phase loop: a minibatch of normal examples spawns an adversarial
and a magnitude-matched noisy counterpart per member, per-layer characteristics
of every example are computed against the normal batch's activations, and a
logistic-regression detector learns to separate adversarial rows (positive)
from normal and noisy rows (negative).

Feature kinds and their column layouts (D = number of feature layers, i.e.
activation levels including the input):

* ``lid``       D columns, one LID estimate per level
* ``kd``        D columns, one class-conditional kernel-density score per level
* ``bu``        1 column, dropout-variance uncertainty
* ``kd_bu``     2 columns: KD at the pre-softmax level plus BU
* ``combined``  lid block + kd block + bu column (2D + 1 columns)

Feature extraction is split into ``prepare_batch`` (attacks, noise, and
activations — everything independent of k and sigma) and ``features_sweep``
(the characteristic computations).  A sweep over k or sigma computes one
distance matrix per (source, level) and serves every swept value from it;
``features_from`` is a sweep of one value, and ``extract_features`` composes
``prepare_batch`` with it.

Detectors are L2-penalised logistic regressions, as scikit-learn's
``LogisticRegression`` with its default C = 1, fitted to convergence by
Newton's method (IRLS).  ``train_detectors`` fits a list of matrices: fits
that share a row count and a kept width run as one stacked Newton iteration,
in which each fit stops on its own and is bitwise equal to fitting it alone.
``train_detector`` is a list of one.  ``tune_parameter`` prepares each
(attack, batch) once, tunes k and sigma from that one preparation, and fits
each fold's whole grid in one call.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import characteristics, microgradnet
from .attacks import (AttackConfig, gaussian_l2_noise, minmax_pixel_noise,
                      run_attacks)
# unused here; benchmark/child.py's _install checks this binding is traced
from .attacks import run_attack  # noqa: F401
from .characteristics import BuConfig, KdConfig, lid_of_distances
# scalar oracles, unused here; benchmark/child.py's traced run patches them here
from .characteristics import kernel_density, mle_lid  # noqa: F401
from .errors import (ConvergenceWarning, EmptyPositiveClassError, ParseError,
                     ShapeError)
from .neighborhood import Minibatch, nearest_distances, squared_distances
from .neighborhood import knn_profile  # noqa: F401  (see mle_lid above)

FEATURE_KINDS = ("lid", "kd", "bu", "kd_bu", "combined")
BU_KINDS = ("bu", "kd_bu", "combined")  # the kinds that read the BU column
SOURCES = ("normal", "noisy", "adversarial")


@dataclass(frozen=True)
class FeatureMatrix:
    """Characteristic rows with binary labels and row provenance.

    Label 1 marks adversarial rows and label 0 everything else; the invariant
    that positives are exactly the adversarial-provenance rows is checked on
    construction.
    """

    features: np.ndarray
    labels: np.ndarray
    provenance: tuple
    feature_kind: str

    def __post_init__(self):
        f = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "provenance", tuple(self.provenance))
        if self.feature_kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature kind {self.feature_kind!r}")
        if f.ndim != 2 or y.shape != (f.shape[0],) or len(self.provenance) != f.shape[0]:
            raise ShapeError("features, labels, and provenance do not align")
        if not np.all(np.isfinite(f)):
            raise ValueError("features must be finite")
        prov = np.fromiter(self.provenance, dtype=object, count=len(y))
        known = (prov[:, None] == np.array(SOURCES, dtype=object)).any(axis=1)
        bad = np.flatnonzero(~known | ((y == 1) != (prov == "adversarial")))
        if bad.size and not known[bad[0]]:  # the first bad row names the error
            raise ValueError(f"unknown provenance {prov[bad[0]]!r}")
        if bad.size:
            raise ValueError("positive labels must be exactly the adversarial rows")
        f.setflags(write=False)
        y.setflags(write=False)

    def __len__(self):
        return self.features.shape[0]


def select_kind(fm: FeatureMatrix, kind: str) -> FeatureMatrix:
    """Slice a ``combined`` matrix down to one feature kind's columns."""
    if fm.feature_kind != "combined":
        raise ValueError("can only slice a combined feature matrix")
    if kind == "combined":
        return fm
    width = fm.features.shape[1]
    depth = (width - 1) // 2
    if width != 2 * depth + 1:
        raise ShapeError("combined matrix width is not 2*depth+1")
    if kind == "lid":
        cols = list(range(depth))
    elif kind == "kd":
        cols = list(range(depth, 2 * depth))
    elif kind == "bu":
        cols = [2 * depth]
    elif kind == "kd_bu":
        cols = [depth + depth - 2, 2 * depth]  # pre-softmax KD, then BU
    else:
        raise ValueError(f"unknown feature kind {kind!r}")
    return FeatureMatrix(features=fm.features[:, cols], labels=fm.labels,
                         provenance=fm.provenance, feature_kind=kind)


def save_feature_matrix(fm: FeatureMatrix, path) -> None:
    """CSV with header <kind>_0..<kind>_{F-1}, label, provenance: the column
    names record the feature kind."""
    width = fm.features.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"{fm.feature_kind}_{i}" for i in range(width)]
                        + ["label", "provenance"])
        for row, lab, prov in zip(fm.features, fm.labels, fm.provenance):
            writer.writerow([repr(v) for v in row.tolist()] + [int(lab), prov])


def load_feature_matrix(path, feature_kind: str | None = None) -> FeatureMatrix:
    """Read a matrix written by ``save_feature_matrix``.

    The kind is the one its header records; ``feature_kind``, if given, must
    agree with it.  Raises ParseError otherwise, or if the header names no
    one kind.
    """
    rows, labels, provenance = [], [], []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        width = len(header) - 2
        kinds = {name.rpartition("_")[0] for name in header[:width]}
        recorded = kinds.pop() if len(kinds) == 1 else None
        if recorded not in FEATURE_KINDS:
            raise ParseError(1, f"{path}: the feature columns name no one "
                                f"feature kind")
        if feature_kind not in (None, recorded):
            raise ParseError(1, f"{path} holds {recorded} features, not "
                                f"{feature_kind}")
        for record in reader:
            rows.append([float(v) for v in record[:width]])
            labels.append(int(record[width]))
            provenance.append(record[width + 1])
    return FeatureMatrix(features=np.array(rows, dtype=float),
                         labels=np.array(labels), provenance=tuple(provenance),
                         feature_kind=recorded)


# --------------------------------------------------------------------------
# feature extraction


@dataclass
class BatchArtifacts:
    """Everything about one (minibatch, attack) pair that k/sigma sweeps reuse.

    ``levels[source]`` holds per-activation-level matrices for the normal,
    adversarial, and noisy variants of the batch; ``notes`` records attacks
    that failed or raised and were kept as failures.
    """

    net: object
    batch: Minibatch
    attack_kind: str
    labels: np.ndarray
    outcomes: list
    success: np.ndarray
    noisy: np.ndarray
    levels: dict
    preds: dict
    seed: int
    notes: list


def prepare_batch(net, normal_batch: Minibatch, attack_cfg: AttackConfig,
                  seed: int, *, workers: int = 1) -> BatchArtifacts:
    """Attack every batch member and build the noisy counterparts.

    ``attacks.run_attacks`` attacks the rows; its failure reasons become
    notes.  Example j draws its noise with ``seed + j`` at its own attack's
    magnitude, or at the batch's smallest one where the attack moved nothing.
    """
    xs = normal_batch.vectors
    n = xs.shape[0]
    labels = microgradnet.predict_batch(net, xs)
    outcomes, reasons = run_attacks(net, xs, labels, attack_cfg,
                                    refs=normal_batch, workers=workers)
    notes = [f"example {j}: {r}" for j, r in enumerate(reasons) if r]
    success = np.array([o.success for o in outcomes], dtype=bool)

    lo, hi = attack_cfg.clip_min, attack_cfg.clip_max
    noisy = np.empty_like(xs)
    if attack_cfg.kind != "jsma":  # L2 noise; jsma's is min/max pixel flips
        mags = np.array([o.l2_perturbation for o in outcomes])
        positive = mags[mags > 0]
        if positive.size == 0:
            raise EmptyPositiveClassError("no attack moved any example")
        floor = float(positive.min())
        for j in range(n):
            mag = float(mags[j]) if mags[j] > 0 else floor
            noisy[j] = gaussian_l2_noise(xs[j], mag, seed + j,
                                         clip_min=lo, clip_max=hi)
    else:
        counts = np.array([
            int(np.count_nonzero(o.adversarial != xs[j]))
            for j, o in enumerate(outcomes)
        ])
        positive = counts[counts > 0]
        floor = int(positive.min()) if positive.size else 2
        for j in range(n):
            cnt = int(counts[j]) if counts[j] > 0 else floor
            noisy[j] = minmax_pixel_noise(xs[j], cnt, seed + j,
                                          clip_min=lo, clip_max=hi)

    adv = np.stack([o.adversarial for o in outcomes])
    levels = {
        "normal": microgradnet.activations_batch(net, xs),
        "adversarial": microgradnet.activations_batch(net, adv),
        "noisy": microgradnet.activations_batch(net, noisy),
    }
    preds = {src: np.argmax(levels[src][-1], axis=1) for src in SOURCES}
    return BatchArtifacts(net=net, batch=normal_batch,
                          attack_kind=attack_cfg.kind, labels=labels,
                          outcomes=outcomes, success=success, noisy=noisy,
                          levels=levels, preds=preds, seed=seed, notes=notes)


def _reference_levels(art: BatchArtifacts, reference):
    if reference is None:
        return art.levels["normal"], art.preds["normal"]
    levels = microgradnet.activations_batch(art.net, reference.vectors)
    return levels, np.argmax(levels[-1], axis=1)


def _lid_columns(sq: np.ndarray, ks, exclude_self: bool) -> np.ndarray:
    """(len(ks), n) LID of each query row at each k, from one sort of sq."""
    near = nearest_distances(sq, max(ks), exclude_self=exclude_self)
    return lid_of_distances(near, ks)


def _kd_columns(sq: np.ndarray, pred, ref_pred, kds, exclude: bool):
    """(len(kds), n) KD of each query row for every sigma: its mean affinity
    to the references of its predicted class, 0 where none is left, from
    one block of ``sq`` per class (see ``_sweep_blocks``)."""
    out = np.zeros((len(kds), sq.shape[0]))
    for c in np.flatnonzero(np.bincount(pred)):
        rows = np.flatnonzero(pred == c)
        block = sq[np.ix_(rows, np.flatnonzero(ref_pred == c))]
        left = (np.count_nonzero(block > 0.0, axis=1) if exclude
                else np.full(rows.size, block.shape[1]))
        for m in np.flatnonzero(np.bincount(left)[1:]) + 1:
            at = left == m
            group = block[at]
            if m < block.shape[1]:  # keep each row's m non-zero distances
                group = group[group > 0.0].reshape(-1, m)
            for v, kd_cfg in enumerate(kds):
                out[v, rows[at]] = np.exp(
                    -group / kd_cfg.bandwidth_sigma ** 2).mean(axis=1)
    return out


def _sweep_blocks(art: BatchArtifacts, ks, kds, reference):
    """(lid, kd): ``lid[source][v]`` is the (n, D) LID block for ``ks[v]``
    and ``kd[source][v]`` the KD block for ``kds[v]``.

    Each (source, level) computes one distance matrix, however many values
    there are.  LID sorts it once to the largest k and estimates every k
    from one ``log`` (``lid_of_distances``).  KD gathers one block per
    predicted class, its queries against the same-class references, and
    takes one ``exp`` and one row-wise mean per sigma; a query whose class
    has no reference left scores 0 (the empty-neighborhood limit).  In
    training mode a normal query leaves out every reference at distance
    zero from it, for LID and KD alike: its own row and exact duplicates.
    KD masks and reshapes together the rows of a block that keep the same
    number of references, which is usually every row, less its own; a row
    with duplicates keeps fewer and joins a smaller group.  Each row-wise
    mean is bitwise the mean over that row alone.  The scalar oracles agree
    to ``squared_distances``' bound, zeros exactly.
    """
    ref_levels, ref_pred = _reference_levels(art, reference)
    shape = (len(art.batch), art.net.depth)
    lid = {source: np.zeros((len(ks),) + shape) for source in SOURCES}
    kd = {source: np.zeros((len(kds),) + shape) for source in SOURCES}
    for source in SOURCES:
        exclude = reference is None and source == "normal"
        for i, (q, r) in enumerate(zip(art.levels[source], ref_levels)):
            sq = squared_distances(q, r)
            if kds:
                kd[source][:, :, i] = _kd_columns(sq, art.preds[source],
                                                  ref_pred, kds, exclude)
            if ks:
                lid[source][:, :, i] = _lid_columns(sq, ks, exclude)
    return lid, kd


def _bu_column(art: BatchArtifacts, bu_cfg: BuConfig) -> dict:
    inputs = {"normal": art.batch.vectors,
              "adversarial": np.stack([o.adversarial for o in art.outcomes]),
              "noisy": art.noisy}
    return {src: characteristics.bayes_uncertainty_batch(art.net, inputs[src],
                                                         bu_cfg)[:, None]
            for src in SOURCES}


def features_sweep(art: BatchArtifacts, feature_kind: str, ks,
                   sigmas=(1.0,), *, bu: BuConfig | None = None,
                   reference: Minibatch | None = None) -> list:
    """One FeatureMatrix per swept value, in the order given, duplicates kept.

    Sweep k with ``ks`` or the KD bandwidth with ``sigmas``; the other holds
    a single value, which every matrix shares.  Matrix v equals
    ``features_from(art, feature_kind, ks[v],
    kd=KdConfig(bandwidth_sigma=sigmas[v]), ...)``, but the distances behind
    it are computed once per (source, level) for all values together.  A kind
    that reads BU (bu, kd_bu, combined) needs ``bu``.

    With ``reference=None`` the batch itself is the reference (the training
    phase, where normal queries leave themselves out); otherwise all queries
    are profiled against the given minibatch with no self-exclusion, which is
    how held-out examples are scored.  Rows are ordered normal, noisy, then
    the successful adversarials.
    """
    if feature_kind not in FEATURE_KINDS:
        raise ValueError(f"unknown feature kind {feature_kind!r}")
    ks, kds = list(ks), [KdConfig(bandwidth_sigma=s) for s in sigmas]
    if not ks or not kds:
        raise ValueError("a sweep needs at least one k and one sigma")
    if len(ks) > 1 and len(kds) > 1:
        raise ValueError("sweep k or sigma, not both")
    need_lid = feature_kind in ("lid", "combined")
    need_kd = feature_kind in ("kd", "kd_bu", "combined")
    need_bu = feature_kind in BU_KINDS
    if need_lid and min(ks) < 1:
        raise ValueError(f"k must be at least 1, got {min(ks)}")
    if need_bu and bu is None:
        raise ValueError(f"feature kind {feature_kind!r} reads BU and needs "
                         f"a BuConfig")
    if not art.success.any():
        raise EmptyPositiveClassError(
            f"every {art.attack_kind} attack failed on this batch")
    lid, kd = (_sweep_blocks(art, ks if need_lid else [],
                             kds if need_kd else [], reference)
               if need_lid or need_kd else ({}, {}))
    if feature_kind == "kd_bu":
        pre_softmax = art.net.depth - 2
        kd = {s: b[:, :, [pre_softmax]] for s, b in kd.items()}
    bu_col = _bu_column(art, bu) if need_bu else None
    keep = np.flatnonzero(art.success)
    n = len(art.batch)
    labels = np.concatenate([np.zeros(2 * n, dtype=int),
                             np.ones(keep.size, dtype=int)])
    provenance = (("normal",) * n + ("noisy",) * n
                  + ("adversarial",) * keep.size)
    matrices = []
    for v in range(max(len(ks), len(kds))):
        parts = []
        if need_lid:  # a single k serves every value: v % 1 == 0
            parts.append({s: b[v % len(ks)] for s, b in lid.items()})
        if need_kd:
            parts.append({s: b[v % len(kds)] for s, b in kd.items()})
        if need_bu:
            parts.append(bu_col)
        per_source = {
            src: np.hstack([p[src] for p in parts]) for src in SOURCES
        }
        features = np.vstack([
            per_source["normal"],
            per_source["noisy"],
            per_source["adversarial"][keep],
        ])
        matrices.append(FeatureMatrix(features=features, labels=labels,
                                      provenance=provenance,
                                      feature_kind=feature_kind))
    return matrices


def features_from(art: BatchArtifacts, feature_kind: str, k: int, *,
                  kd: KdConfig | None = None, bu: BuConfig | None = None,
                  reference: Minibatch | None = None) -> FeatureMatrix:
    """Assemble a FeatureMatrix from prepared artifacts: ``features_sweep``
    over the single value (k, kd), whose docstring gives the row layout and
    the reference rules."""
    kd = kd or KdConfig(bandwidth_sigma=1.0)
    return features_sweep(art, feature_kind, [k], [kd.bandwidth_sigma],
                          bu=bu, reference=reference)[0]


def extract_features(net, normal_batch: Minibatch, attack_cfg: AttackConfig,
                     k: int, feature_kind: str, seed: int, *,
                     kd: KdConfig | None = None, bu: BuConfig | None = None,
                     reference: Minibatch | None = None,
                     workers: int = 1) -> FeatureMatrix:
    """One-shot feature extraction: prepare_batch + features_from."""
    art = prepare_batch(net, normal_batch, attack_cfg, seed, workers=workers)
    return features_from(art, feature_kind, k, kd=kd, bu=bu,
                         reference=reference)


def lid_feature_row(net, xs, reference: Minibatch, k: int) -> np.ndarray:
    """(n, D) held-out LID of a stack of examples against a reference."""
    q_levels = microgradnet.activations_batch(net, xs)
    ref_levels = microgradnet.activations_batch(net, reference.vectors)
    return np.column_stack([_lid_columns(squared_distances(q, r), [k], False)[0]
                            for q, r in zip(q_levels, ref_levels)])


# --------------------------------------------------------------------------
# logistic-regression detector


@dataclass(frozen=True)
class DetectorModel:
    """Logistic regression with the training scaler frozen inside.

    ``kept_features`` lists the original column indices that survived the
    zero-variance drop; ``feature_mean``/``feature_std`` refer to those
    columns only.
    """

    weights: np.ndarray
    bias: float
    feature_mean: np.ndarray
    feature_std: np.ndarray
    kept_features: tuple
    feature_kind: str
    training_attack: str


def _sigmoid(t):
    return 1.0 / (1.0 + np.exp(-np.clip(t, -35.0, 35.0)))


def _standardize(features: FeatureMatrix):
    """(z, mean, std, kept) of one matrix: zero-variance columns dropped with
    a warning, the rest scaled to zero mean and unit variance."""
    y = features.labels
    if y.min() == y.max():
        raise ValueError("detector training needs both classes present")
    raw = features.features
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    kept = np.flatnonzero(std > 0.0)
    if kept.size < raw.shape[1]:
        dropped = sorted(set(range(raw.shape[1])) - set(kept.tolist()))
        warnings.warn(f"dropping zero-variance feature columns {dropped}")
    if kept.size == 0:
        raise ValueError("all features have zero variance")
    z = (raw[:, kept] - mean[kept]) / std[kept]
    return z, mean[kept], std[kept], kept


# the L2 penalty on the weights (not the intercept): scikit-learn's C = 1
PENALTY = 1.0
# a fit has converged once its largest undamped Newton step is below this
STEP_TOL = 1e-10


def _descend(z: np.ndarray, y: np.ndarray, epochs: int, lr: float):
    """(W, B, converged) of P penalised logistic fits on ``z`` (P, n, D) and
    ``y`` (P, n), run as one stacked Newton (IRLS) iteration from zero.

    Each fit minimises the summed log-loss plus ``PENALTY / 2 * |w|^2``, the
    intercept unpenalised.  An iteration computes the gradient and Hessian
    on the design augmented with a column of ones, solves for the Newton
    step and takes ``lr`` of it.  A fit whose largest undamped step is below
    ``STEP_TOL`` has converged, and leaves the stack after that step; one
    still in it after ``epochs`` iterations has not.  The stacked
    ``np.matmul`` and ``np.linalg.solve`` make one BLAS or LAPACK call per
    slice with that slice's shape and strides, and every other step is
    elementwise or per slice, so each fit is bitwise equal to fitting it
    alone.
    """
    fits, n, width = z.shape
    x = np.concatenate([z, np.ones((fits, n, 1))], axis=2)
    done = np.zeros((fits, width + 1))
    converged = np.zeros(fits, dtype=bool)
    live = np.arange(fits)
    beta = done.copy()
    weights = np.arange(width)  # penalised; the intercept, last, is not
    for _ in range(epochs):
        p = _sigmoid(np.matmul(x, beta[:, :, None])[:, :, 0])
        xt = x.transpose(0, 2, 1)
        grad = np.matmul(xt, (p - y)[:, :, None])
        grad[:, weights, 0] += PENALTY * beta[:, weights]
        hess = np.matmul(xt, x * (p * (1.0 - p))[:, :, None])
        hess[:, weights, weights] += PENALTY
        step = np.linalg.solve(hess, grad)[:, :, 0]
        beta -= lr * step
        stop = np.abs(step).max(axis=1) < STEP_TOL
        if stop.any():
            done[live[stop]] = beta[stop]
            converged[live[stop]] = True
            go = ~stop
            live, x, y, beta = live[go], x[go], y[go], beta[go]
            if not live.size:
                break
    done[live] = beta
    return done[:, :width], done[:, width], converged


def train_detectors(matrices, *, epochs: int = 5000, lr: float = 1.0,
                    training_attack: str = "unknown") -> list:
    """Fit one logistic regression per FeatureMatrix, returned in input order.

    Features are standardized to zero mean and unit variance; zero-variance
    columns are dropped with a warning and recorded.  Each fit minimises the
    log-loss plus an L2 penalty on the weights (``_descend``) by Newton
    steps from zero: ``epochs`` caps the iterations (0 leaves the zero
    model) and ``lr`` in (0, 1] damps each step.  A fit still short of
    ``STEP_TOL`` at the cap warns with a ``ConvergenceWarning`` that names
    its index.  Fits that share a row count and a kept width run as one
    stack, and each is bitwise equal to fitting it alone.
    """
    if not 0.0 < lr <= 1.0:
        raise ValueError(f"lr must lie in (0, 1], got {lr}")
    if epochs < 0:
        raise ValueError(f"epochs must be at least 0, got {epochs}")
    fits = [_standardize(fm) for fm in matrices]
    groups = {}
    for i, (z, *_) in enumerate(fits):
        groups.setdefault(z.shape, []).append(i)
    models = [None] * len(fits)
    for members in groups.values():
        W, B, converged = _descend(np.stack([fits[i][0] for i in members]),
                                   np.stack([matrices[i].labels
                                             for i in members]),
                                   epochs, lr)
        W.setflags(write=False)
        for row, i in enumerate(members):
            if not converged[row]:
                warnings.warn(ConvergenceWarning(i, epochs))
            _, mean, std, kept = fits[i]
            models[i] = DetectorModel(
                weights=W[row], bias=float(B[row]), feature_mean=mean,
                feature_std=std, kept_features=tuple(kept.tolist()),
                feature_kind=matrices[i].feature_kind,
                training_attack=training_attack)
    return models


def train_detector(features: FeatureMatrix, *, epochs: int = 5000,
                   lr: float = 1.0,
                   training_attack: str = "unknown") -> DetectorModel:
    """Fit one logistic regression: ``train_detectors`` on a batch of one."""
    return train_detectors([features], epochs=epochs, lr=lr,
                           training_attack=training_attack)[0]


def score(model: DetectorModel, features) -> np.ndarray:
    """Detection probabilities in (0,1), standardized by the frozen scaler."""
    raw = features.features if isinstance(features, FeatureMatrix) else \
        np.asarray(features, dtype=float)
    if raw.ndim != 2:
        raise ShapeError("expected a (n, F) feature array")
    cols = list(model.kept_features)
    if raw.shape[1] <= max(cols):
        raise ShapeError("feature matrix is narrower than the model expects")
    z = (raw[:, cols] - model.feature_mean) / model.feature_std
    return _sigmoid(z @ model.weights + model.bias)


def save_detector(model: DetectorModel, path) -> None:
    payload = {
        "format": "lidkit-detector-v1",
        "weights": model.weights.tolist(),
        "bias": model.bias,
        "scaler": {"mean": model.feature_mean.tolist(),
                   "std": model.feature_std.tolist(),
                   "kept_features": list(model.kept_features)},
        "feature_kind": model.feature_kind,
        "training_attack": model.training_attack,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_detector(path) -> DetectorModel:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("format") != "lidkit-detector-v1":
        raise ValueError("not a serialized detector")
    return DetectorModel(
        weights=np.array(data["weights"], dtype=float),
        bias=float(data["bias"]),
        feature_mean=np.array(data["scaler"]["mean"], dtype=float),
        feature_std=np.array(data["scaler"]["std"], dtype=float),
        kept_features=tuple(data["scaler"]["kept_features"]),
        feature_kind=data["feature_kind"],
        training_attack=data["training_attack"],
    )


# --------------------------------------------------------------------------
# evaluation


def auc(scores_pos, scores_neg) -> float:
    """Mann-Whitney statistic: P(pos > neg) with ties counting one half.

    Computed from average ranks, which is exact (half-integer rank sums stay
    exact in floating point at these sizes).
    """
    pos = np.asarray(scores_pos, dtype=float)
    neg = np.asarray(scores_neg, dtype=float)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both score lists must be nonempty")
    combined = np.concatenate([pos, neg])
    _, inverse, counts = np.unique(combined, return_inverse=True,
                                   return_counts=True)
    cum = np.cumsum(counts)
    avg_rank = cum - (counts - 1) / 2.0
    ranks = avg_rank[inverse]
    u = ranks[:pos.size].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


def held_out_auc(model: DetectorModel, features: FeatureMatrix) -> float:
    s = score(model, features)
    return auc(s[features.labels == 1], s[features.labels == 0])


def transfer_evaluate(model: DetectorModel, features: FeatureMatrix) -> float:
    """AUC of a frozen model (weights and scaler) on another attack's features."""
    if model.feature_kind != features.feature_kind:
        raise ValueError(
            f"feature kinds differ: model {model.feature_kind}, "
            f"features {features.feature_kind}"
        )
    return held_out_auc(model, features)


def layerwise_auc(features: FeatureMatrix) -> list:
    """Per-column AUC of raw feature values, no trained model involved.

    Meant for per-level single-feature matrices (the lid kind); returns
    (level_index, auc) pairs of length equal to the feature-layer count.
    """
    pos = features.features[features.labels == 1]
    neg = features.features[features.labels == 0]
    return [(i, auc(pos[:, i], neg[:, i]))
            for i in range(features.features.shape[1])]


# --------------------------------------------------------------------------
# parameter tuning


@dataclass(frozen=True)
class TuningResult:
    grid: tuple
    mean_auc: tuple
    per_attack_auc: dict
    selected: float


def _cv_auc(matrices, folds: int, seed: int, *, epochs: int = 5000,
            lr: float = 1.0) -> list:
    """Mean validation AUC over simple shuffled folds, one per matrix.

    The matrices must be one sweep's values over the same rows: they share
    the first one's labels, provenance and fold assignment, and each fold
    fits all of them in one ``train_detectors`` call with ``epochs`` and
    ``lr``.
    """
    labels = matrices[0].labels
    n = labels.size
    order = np.random.default_rng(seed).permutation(n)
    assignment = np.empty(n, dtype=int)
    assignment[order] = np.arange(n) % folds
    provenance = np.array(matrices[0].provenance)
    scores = [[] for _ in matrices]
    for f in range(folds):
        val = assignment == f
        for part in (val, ~val):
            if labels[part].min() == labels[part].max():
                raise ValueError("degenerate folds: a split lost one class")
        train_provenance = tuple(provenance[~val])
        models = train_detectors([
            FeatureMatrix(features=m.features[~val], labels=labels[~val],
                          provenance=train_provenance,
                          feature_kind=m.feature_kind)
            for m in matrices], epochs=epochs, lr=lr)
        y = labels[val]
        for per_matrix, m, model in zip(scores, matrices, models):
            s = score(model, m.features[val])
            per_matrix.append(auc(s[y == 1], s[y == 0]))
    return [float(np.mean(per_matrix)) for per_matrix in scores]


def tune_parameter(net, batches, grids: dict, attack_cfgs, *, folds: int = 3,
                   seed: int = 0, epochs: int = 5000,
                   lr: float = 1.0) -> dict:
    """Grid-search k (lid) and the bandwidth sigma (kd) by internal CV.

    ``grids`` maps "lid" to a k grid and/or "kd" to a sigma grid; the result
    maps each to its TuningResult, in that order.  Each (attack, batch) is
    prepared once and every kind sweeps its whole grid from that preparation
    (``features_sweep``); the mean cross-validated AUC of every grid value is
    taken per attack, each fold fitting the whole grid at once with the
    detector settings ``epochs`` and ``lr``, and the value with the highest
    mean across attacks wins; ties go to the smaller value.
    """
    if not grids:
        raise ValueError("grids must be nonempty")
    if not set(grids) <= {"lid", "kd"}:
        raise ValueError("only the lid (k) and kd (sigma) parameters are tunable")
    grids = {kind: sorted(grid) for kind, grid in grids.items()}
    if not all(grids.values()):
        raise ValueError("grid must be nonempty")
    artifacts = [
        [prepare_batch(net, b, cfg, seed + 101 * ai + 7919 * bi)
         for bi, b in enumerate(batches)]
        for ai, cfg in enumerate(attack_cfgs)
    ]
    results = {}
    for kind, grid in grids.items():
        sweep = ({"ks": [int(v) for v in grid]} if kind == "lid" else
                 {"ks": [1], "sigmas": [float(v) for v in grid]})  # kd reads no k
        aucs = []  # aucs[attack][grid index]
        for arts in artifacts:
            per_batch = [features_sweep(art, kind, **sweep) for art in arts]
            first = [by_value[0] for by_value in per_batch]
            labels = np.concatenate([m.labels for m in first])
            provenance = tuple(p for m in first for p in m.provenance)
            joined = [FeatureMatrix(
                features=np.vstack([by_value[g].features
                                    for by_value in per_batch]),
                labels=labels, provenance=provenance, feature_kind=kind)
                for g in range(len(grid))]
            aucs.append(_cv_auc(joined, folds, seed, epochs=epochs, lr=lr))
        means = [float(np.mean(cell)) for cell in zip(*aucs)]
        best = int(np.argmax(means))  # first max on an ascending grid = smallest
        results[kind] = TuningResult(
            grid=tuple(grid), mean_auc=tuple(means),
            per_attack_auc={cfg.kind: tuple(a)
                            for cfg, a in zip(attack_cfgs, aucs)},
            selected=grid[best])
    return results


# --------------------------------------------------------------------------
# adaptive-attack evaluation


def score_outcomes(net, detectors: dict, outcomes, refs: Minibatch, k: int,
                   threshold: float = 0.5) -> list:
    """(scores, flagged) per scenario for each attack outcome: successes are
    scored from one ``lid_feature_row`` call, failures flagged unscored."""
    hits = [j for j, out in enumerate(outcomes) if out.success]
    scores = [{} for _ in outcomes]
    if hits:
        rows = lid_feature_row(net, np.stack([outcomes[j].adversarial
                                              for j in hits]), refs, k)
        for scen, cols in (("scenario1", slice(None)),
                           ("scenario2", [net.depth - 2])):
            for j, s in zip(hits, score(detectors[scen], rows[:, cols])):
                scores[j][scen] = float(s)
    return [(s, {scen: not s or s[scen] >= threshold
                 for scen in ("scenario1", "scenario2")}) for s in scores]


def adaptive_failure_rate(net, detectors: dict, inputs, labels,
                          refs: Minibatch, attack_cfg: AttackConfig, *,
                          k: int = 20, threshold: float = 0.5) -> dict:
    """Failure rates of the detector-aware attack under both knowledge scenarios.

    ``detectors`` maps "scenario1" (all feature layers) and "scenario2"
    (pre-softmax level only) to trained lid-kind models.  An attack on an
    input fails a scenario if it cannot flip the prediction or if that
    scenario's detector flags the crafted example at the given score
    threshold.  Returns both rates plus per-input records.
    """
    if set(detectors) != {"scenario1", "scenario2"}:
        raise ValueError("need exactly the scenario1 and scenario2 detectors")
    if len(inputs) == 0:
        raise ValueError("need at least one input to attack")
    cfg = replace(attack_cfg, kind="adaptive_opt", adaptive_k=k)
    outcomes, _ = run_attacks(net, inputs, labels, cfg, refs=refs)
    records = []
    failures = {"scenario1": 0, "scenario2": 0}
    scored = score_outcomes(net, detectors, outcomes, refs, k, threshold)
    for j, (out, (scores, flagged)) in enumerate(zip(outcomes, scored)):
        record = {"index": j, "success": bool(out.success),
                  "l2": out.l2_perturbation}
        record.update({f"score_{scen}": s for scen, s in scores.items()})
        for scen in failures:
            failures[scen] += flagged[scen]
            record[f"failed_{scen}"] = flagged[scen]
        records.append(record)
    return {
        "scenario1_failure_rate": failures["scenario1"] / len(records),
        "scenario2_failure_rate": failures["scenario2"] / len(records),
        "per_input": records,
    }
