"""Experiment recipes: seeded end-to-end chains from data to report.

Every recipe builds the same base pipeline — generate (or load) a dataset,
train the classifier on the training slice, keep the correctly classified
test-slice examples, split those 80/20 into detector-train and detector-test
ids, and carve the detector-train side into reference minibatches — then runs
its own analysis on top.  Detector-test examples never touch detector
training or scaler fitting; the id sets are checked disjoint and recorded.
"""

from __future__ import annotations

import platform
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .. import detector as det
from .. import microgradnet
from ..attacks import ATTACK_KINDS, run_attacks
from ..blas import single_thread
from ..characteristics import BuConfig, KdConfig, minmax_normalize
from ..detector import FeatureMatrix
from ..errors import (ConvergenceWarning, DegenerateProfileError,
                      LidkitError, ParseError)
from ..microgradnet import SgdConfig
from ..neighborhood import Minibatch
from .config import ExperimentConfig, default_layers, parse_layers
from .data import Dataset, gen_synthetic, load_csv
from .report import ExperimentReport, save_report

RECIPE_NAMES = ("table1", "table2", "table4", "table5", "fig2", "fig3", "fig4")

_DATASET_DEFAULTS = {
    "two_moons": {"noise": 0.1, "ambient_dim": 16},
    "gaussian_blobs": {},
    "uniform_manifold": {"m": 2, "ambient_d": 10},
}


def _environment() -> dict:
    from .. import __version__

    return {"python": platform.python_version(), "numpy": np.__version__,
            "lidkit": __version__}


def check_split_hygiene(train_ids, test_ids) -> None:
    """Raise if any id appears on both sides; recipes call this unconditionally."""
    overlap = set(int(i) for i in train_ids) & set(int(i) for i in test_ids)
    if overlap:
        raise RuntimeError(
            f"train/test contamination: ids {sorted(overlap)[:10]} on both sides")


@dataclass
class Pipeline:
    cfg: ExperimentConfig
    dataset: Dataset
    net: object
    train_ids: np.ndarray
    test_ids: np.ndarray
    train_batches: list
    test_batch: Minibatch
    reference: Minibatch
    notes: list
    seeds: dict
    artifacts: dict = field(default_factory=dict)
    features: dict = field(default_factory=dict)


def load_dataset(cfg: ExperimentConfig) -> Dataset:
    """The config's CSV, or its generator's first n_train + n_test rows."""
    if cfg.dataset_csv is not None:
        return load_csv(cfg.dataset_csv)
    params = {**_DATASET_DEFAULTS[cfg.dataset_name], **cfg.dataset_params}
    return gen_synthetic(cfg.dataset_name, cfg.n_train + cfg.n_test,
                         cfg.seed, **params)


def train_network(cfg: ExperimentConfig, data: Dataset):
    """The config's classifier, trained by SGD on the first n_train rows."""
    specs = parse_layers(cfg.layers or default_layers(data.n_classes),
                         data.features.shape[1])
    if specs[-1].out_dim < data.n_classes:
        raise ValueError("output layer is narrower than the label range")
    pretrain = slice(0, cfg.n_train)
    return microgradnet.train_sgd(
        data.features[pretrain], data.labels[pretrain], specs,
        SgdConfig(epochs=cfg.net_epochs, learning_rate=cfg.net_lr,
                  batch_size=cfg.net_batch, seed=cfg.seed))


@single_thread()
def build_pipeline(cfg: ExperimentConfig) -> Pipeline:
    cfg.validate()
    notes = []
    seeds = {"master": cfg.seed, "network": cfg.seed, "split": cfg.seed + 1}
    data = load_dataset(cfg)
    if cfg.dataset_csv is not None:
        notes.append(f"dataset loaded from {cfg.dataset_csv}")
    else:
        seeds["dataset"] = cfg.seed
    if len(data) < cfg.n_train + cfg.n_test:
        raise ValueError(
            f"dataset has {len(data)} rows, need n_train+n_test = "
            f"{cfg.n_train + cfg.n_test}")
    if data.n_classes < 2:
        raise ValueError("dataset must contain at least two classes")

    if cfg.net_path is not None:
        net = microgradnet.load_network(cfg.net_path)
        if net.input_dim != data.features.shape[1]:
            raise ValueError("loaded network does not match the dataset width")
        notes.append(f"network loaded from {cfg.net_path}")
    else:
        net = train_network(cfg, data)

    pool_ids = np.arange(cfg.n_train, cfg.n_train + cfg.n_test)
    preds = microgradnet.predict_batch(net, data.features[pool_ids])
    correct = pool_ids[preds == data.labels[pool_ids]]
    accuracy = correct.size / pool_ids.size
    notes.append(f"classifier accuracy on the held-out pool: {accuracy:.3f} "
                 f"({correct.size}/{pool_ids.size} kept)")

    rng = np.random.default_rng(cfg.seed + 1)
    shuffled = correct[rng.permutation(correct.size)]
    cut = int(0.8 * shuffled.size)
    train_ids, test_ids = shuffled[:cut], shuffled[cut:]
    check_split_hygiene(train_ids, test_ids)
    if test_ids.size < 4:
        raise ValueError("test split too small; raise dataset.n_test")

    size = cfg.minibatch_size
    n_full = train_ids.size // size
    if n_full == 0:
        raise ValueError(
            f"only {train_ids.size} detector-training examples for minibatch "
            f"size {size}; lower batch.size or raise dataset.n_test")
    leftover = train_ids.size - n_full * size
    if leftover:
        notes.append(f"{leftover} detector-training examples beyond the last "
                     f"full minibatch are unused")
    train_batches = [
        Minibatch(member_ids=train_ids[i * size:(i + 1) * size],
                  vectors=data.features[train_ids[i * size:(i + 1) * size]],
                  source="normal")
        for i in range(n_full)
    ]
    test_batch = Minibatch(member_ids=test_ids,
                           vectors=data.features[test_ids], source="normal")
    return Pipeline(cfg=cfg, dataset=data, net=net, train_ids=train_ids,
                    test_ids=test_ids, train_batches=train_batches,
                    test_batch=test_batch, reference=train_batches[0],
                    notes=notes, seeds=seeds)


def _noise_seed(cfg: ExperimentConfig, attack_kind: str, batch_index: int) -> int:
    base = (cfg.seed + 1) * 7 + ATTACK_KINDS.index(attack_kind)
    return base * 1_000_000 + batch_index * 10_000


def batch_artifacts(pl: Pipeline, attack_kind: str, index: int | None):
    """Prepared artifacts of train batch ``index``, or of the test batch for
    None, computed once per (attack, batch); their notes go to ``pl.notes``."""
    key = (attack_kind, index)
    if key not in pl.artifacts:
        batch = pl.test_batch if index is None else pl.train_batches[index]
        seed = _noise_seed(pl.cfg, attack_kind, 99 if index is None else index)
        art = det.prepare_batch(pl.net, batch, pl.cfg.attack_config(attack_kind),
                                seed, workers=pl.cfg.workers)
        pl.notes.extend(f"{attack_kind}: {note}" for note in art.notes)
        pl.artifacts[key] = art
    return pl.artifacts[key]


def train_artifacts(pl: Pipeline, attack_kind: str) -> list:
    """Prepared attack artifacts of every train batch, for one kind."""
    return [batch_artifacts(pl, attack_kind, bi)
            for bi in range(len(pl.train_batches))]


def artifacts_for(pl: Pipeline, attack_kind: str):
    """Prepared (train list, test) attack artifacts for one kind."""
    return (train_artifacts(pl, attack_kind),
            batch_artifacts(pl, attack_kind, None))


def _bu_config(cfg: ExperimentConfig) -> BuConfig:
    return BuConfig(num_runs=cfg.bu_runs, base_seed=(cfg.seed + 2) * 1_000_003)


def combined_train_features(pl: Pipeline, attack_kind: str) -> FeatureMatrix:
    """The train batches' combined-kind FeatureMatrix for one attack.

    A degenerate neighborhood in a training batch (an exact activation
    collision) is handled by resampling that batch once from the
    detector-train pool; a second failure propagates.
    """
    key = (attack_kind, "train")
    if key in pl.features:
        return pl.features[key]
    cfg = pl.cfg
    kd_cfg = KdConfig(bandwidth_sigma=cfg.sigma)
    bu_cfg = _bu_config(cfg)
    acfg = cfg.attack_config(attack_kind)
    mats = []
    for bi, art in enumerate(train_artifacts(pl, attack_kind)):
        try:
            mats.append(det.features_from(art, "combined", cfg.k, kd=kd_cfg,
                                          bu=bu_cfg))
        except DegenerateProfileError:
            rng = np.random.default_rng(cfg.seed + 4242 + bi)
            redraw = rng.choice(pl.train_ids, size=len(art.batch),
                                replace=False)
            batch = Minibatch(member_ids=redraw,
                              vectors=pl.dataset.features[redraw],
                              source="normal")
            pl.notes.append(
                f"{attack_kind}: batch {bi} had a degenerate neighborhood; "
                f"resampled once")
            art = det.prepare_batch(pl.net, batch, acfg,
                                    _noise_seed(cfg, attack_kind, bi) + 5_000,
                                    workers=cfg.workers)
            pl.artifacts[(attack_kind, bi)] = art
            mats.append(det.features_from(art, "combined", cfg.k, kd=kd_cfg,
                                          bu=bu_cfg))
    pl.features[key] = FeatureMatrix(
        features=np.vstack([m.features for m in mats]),
        labels=np.concatenate([m.labels for m in mats]),
        provenance=tuple(p for m in mats for p in m.provenance),
        feature_kind="combined")
    return pl.features[key]


def combined_features(pl: Pipeline, attack_kind: str):
    """(train, test) combined-kind FeatureMatrix pair for one attack; the
    test batch is scored against ``pl.reference``."""
    key = (attack_kind, "test")
    if key not in pl.features:
        # attack the test batch before the train features can resample a
        # batch, so the notes keep their order: attacks, then resamples
        _, test_art = artifacts_for(pl, attack_kind)
        combined_train_features(pl, attack_kind)
        cfg = pl.cfg
        pl.features[key] = det.features_from(
            test_art, "combined", cfg.k,
            kd=KdConfig(bandwidth_sigma=cfg.sigma), bu=_bu_config(cfg),
            reference=pl.reference)
    return (pl.features[(attack_kind, "train")], pl.features[key])


def _fit(pl: Pipeline, matrices: list, attack_kind: str) -> list:
    """One detector per matrix, fitted together by ``train_detectors``; in
    input order, a note per fit that dropped columns and per fit that
    stopped at the iteration cap (its ``ConvergenceWarning``)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        models = det.train_detectors(matrices,
                                     epochs=pl.cfg.detector_epochs,
                                     lr=pl.cfg.detector_lr,
                                     training_attack=attack_kind)
    capped = set()
    for w in caught:
        if issubclass(w.category, ConvergenceWarning):
            capped.add(w.message.index)
        else:
            warnings.warn_explicit(w.message, w.category, w.filename,
                                   w.lineno)
    for i, (features, model) in enumerate(zip(matrices, models)):
        label = f"{attack_kind}/{features.feature_kind}"
        if len(model.kept_features) < features.features.shape[1]:
            dropped = sorted(set(range(features.features.shape[1]))
                             - set(model.kept_features))
            pl.notes.append(f"{label}: dropped zero-variance feature "
                            f"columns {dropped}")
        if i in capped:
            pl.notes.append(f"{label}: detector fit stopped at the cap of "
                            f"{pl.cfg.detector_epochs} Newton iterations "
                            f"before converging")
    return models


# --------------------------------------------------------------------------
# individual recipes


def check_bu_has_dropout(pl: Pipeline) -> None:
    """Reject the kinds that read BU (bu, kd_bu, combined) before any attack
    runs if the network has no dropout layer with a positive rate: every
    stochastic pass then gives the same output, so BU is 0 up to rounding
    and carries no signal."""
    reads_bu = [kind for kind in pl.cfg.feature_kinds if kind in det.BU_KINDS]
    if reads_bu and not any(spec.kind == "dropout" and spec.dropout_rate > 0
                            for spec in pl.net.layers):
        raise ValueError(f"feature kind {reads_bu[0]!r} needs a dropout "
                         f"layer in the network; without one BU is 0 up to "
                         f"rounding")


def _recipe_table1(pl: Pipeline, report: ExperimentReport) -> None:
    check_bu_has_dropout(pl)
    rows = []
    for attack_kind in pl.cfg.attacks:
        train_fm, test_fm = combined_features(pl, attack_kind)
        kinds = pl.cfg.feature_kinds
        models = _fit(pl, [det.select_kind(train_fm, kind) for kind in kinds],
                      attack_kind)
        for feature_kind, model in zip(kinds, models):
            te = det.select_kind(test_fm, feature_kind)
            rows.append({
                "attack": attack_kind,
                "feature_kind": feature_kind,
                "auc": det.held_out_auc(model, te),
                "train_rows": len(train_fm),
                "test_rows": len(te),
            })
    report.tables["auc_by_attack_and_feature"] = rows


def _recipe_table2(pl: Pipeline, report: ExperimentReport) -> None:
    check_bu_has_dropout(pl)
    source_attack = "fgm" if "fgm" in pl.cfg.attacks else pl.cfg.attacks[0]
    if source_attack != "fgm":
        report.notes.append(f"fgm not configured; transfer source is "
                            f"{source_attack}")
    train_fm, _ = combined_features(pl, source_attack)
    kinds = pl.cfg.feature_kinds
    models = _fit(pl, [det.select_kind(train_fm, kind) for kind in kinds],
                  source_attack)
    rows = []
    for feature_kind, model in zip(kinds, models):
        for attack_kind in pl.cfg.attacks:
            _, test_fm = combined_features(pl, attack_kind)
            te = det.select_kind(test_fm, feature_kind)
            rows.append({
                "trained_on": source_attack,
                "feature_kind": feature_kind,
                "tested_on": attack_kind,
                "auc": det.transfer_evaluate(model, te),
            })
    report.tables["transfer_auc"] = rows


def _recipe_table5(pl: Pipeline, report: ExperimentReport) -> None:
    rows = []
    for attack_kind in pl.cfg.attacks:
        train_arts = train_artifacts(pl, attack_kind)
        outcomes = [o for art in train_arts for o in art.outcomes]
        labels = np.concatenate([art.labels for art in train_arts])
        adv_preds = np.concatenate([art.preds["adversarial"]
                                    for art in train_arts])
        success = np.array([o.success for o in outcomes])
        l2_success = [o.l2_perturbation for o in outcomes if o.success]
        rows.append({
            "attack": attack_kind,
            "n": len(outcomes),
            "success_rate": float(success.mean()),
            "post_attack_accuracy": float((adv_preds == labels).mean()),
            "mean_l2_perturbation": float(np.mean(l2_success)) if l2_success
            else 0.0,
            "mean_iterations": float(np.mean([o.iterations_used
                                              for o in outcomes])),
        })
        if not l2_success:
            report.notes.append(f"{attack_kind}: no successful attacks; "
                                f"mean L2 reported as 0")
    report.tables["perturbation_and_accuracy"] = rows


def _recipe_fig2(pl: Pipeline, report: ExperimentReport) -> None:
    focus = "opt" if "opt" in pl.cfg.attacks else pl.cfg.attacks[0]
    auc_points = []
    auc_rows = []
    for attack_kind in pl.cfg.attacks:
        _, test_fm = combined_features(pl, attack_kind)
        te_lid = det.select_kind(test_fm, "lid")
        for level, value in det.layerwise_auc(te_lid):
            auc_points.append({"series": attack_kind, "x": level, "y": value})
            auc_rows.append({"attack": attack_kind, "level": level,
                             "auc": value})
    report.series["layerwise_auc"] = auc_points
    report.tables["layerwise_auc"] = auc_rows

    _, test_fm = combined_features(pl, focus)
    te_lid = det.select_kind(test_fm, "lid")
    normalized = minmax_normalize(te_lid.features[:, -1])
    dist_points = []
    means = {}
    for prov in ("normal", "noisy", "adversarial"):
        mask = np.array([p == prov for p in te_lid.provenance])
        for i, value in enumerate(normalized[mask]):
            dist_points.append({"series": prov, "x": i, "y": float(value)})
        means[prov] = float(np.mean(te_lid.features[mask, -1]))
    report.series[f"final_level_lid_{focus}"] = dist_points
    report.tables["final_level_mean_lid"] = [
        {"attack": focus, "provenance": prov, "mean_lid": value}
        for prov, value in means.items()
    ]


def _recipe_fig3(pl: Pipeline, report: ExperimentReport) -> None:
    cfg = pl.cfg
    results = det.tune_parameter(
        pl.net, pl.train_batches,
        {"lid": cfg.tune_grid_k, "kd": cfg.tune_grid_sigma},
        [cfg.attack_config(a) for a in cfg.attacks], folds=cfg.folds,
        seed=cfg.seed + 5, epochs=cfg.detector_epochs, lr=cfg.detector_lr)
    selected_rows = []
    for feature_kind, result in results.items():
        parameter = {"lid": "k", "kd": "sigma"}[feature_kind]
        points = []
        for attack_kind, values in result.per_attack_auc.items():
            for x, y in zip(result.grid, values):
                points.append({"series": attack_kind, "x": float(x),
                               "y": float(y)})
        for x, y in zip(result.grid, result.mean_auc):
            points.append({"series": "mean", "x": float(x), "y": float(y)})
        report.series[f"tuning_{feature_kind}_{parameter}"] = points
        selected_rows.append({"feature_kind": feature_kind,
                              "parameter": parameter,
                              "selected": float(result.selected),
                              "best_mean_auc": float(max(result.mean_auc))})
    report.tables["tuning_selected"] = selected_rows


def _recipe_fig4(pl: Pipeline, report: ExperimentReport) -> None:
    cfg = pl.cfg
    sizes = tuple(cfg.fig4_sizes)
    n_queries = cfg.fig4_queries
    needed = max(sizes) + n_queries
    if pl.train_ids.size < needed:
        raise ValueError(
            f"fig4 needs {needed} detector-training examples "
            f"({n_queries} queries + reference pool {max(sizes)}); "
            f"only {pl.train_ids.size} available — raise dataset.n_test")
    query_ids = pl.train_ids[:n_queries]
    ref_pool = pl.train_ids[n_queries:]
    queries = Minibatch(member_ids=query_ids,
                        vectors=pl.dataset.features[query_ids],
                        source="normal")
    points = []
    for attack_kind in cfg.attacks:
        acfg = cfg.attack_config(attack_kind)
        query_art = det.prepare_batch(pl.net, queries, acfg,
                                      _noise_seed(cfg, attack_kind, 98),
                                      workers=cfg.workers)
        test_art = batch_artifacts(pl, attack_kind, None)
        for size in sizes:
            ref_ids = ref_pool[:size]
            reference = Minibatch(member_ids=ref_ids,
                                  vectors=pl.dataset.features[ref_ids],
                                  source="normal")
            ks = [max(1, int(round(fraction * size)))
                  for fraction in np.arange(0.1, 1.0, 0.1)]
            train_fms = det.features_sweep(query_art, "lid", ks,
                                           reference=reference)
            test_fms = det.features_sweep(test_art, "lid", ks,
                                          reference=reference)
            models = _fit(pl, train_fms, attack_kind)
            for k, model, test_fm in zip(ks, models, test_fms):
                points.append({
                    "series": f"{attack_kind}/batch_{size}",
                    "x": k,
                    "y": det.held_out_auc(model, test_fm),
                })
    report.series["auc_vs_k_by_batch_size"] = points
    report.tables["auc_vs_k_by_batch_size"] = [
        {"series": p["series"], "k": p["x"], "auc": p["y"]} for p in points
    ]


def _recipe_table4(pl: Pipeline, report: ExperimentReport) -> None:
    cfg = pl.cfg
    base_attack = "opt"
    tr_lid = det.select_kind(combined_train_features(pl, base_attack), "lid")
    pre_softmax = pl.net.depth - 2
    tr_pre = FeatureMatrix(features=tr_lid.features[:, [pre_softmax]],
                           labels=tr_lid.labels,
                           provenance=tr_lid.provenance, feature_kind="lid")
    detectors = dict(zip(("scenario1", "scenario2"),
                         _fit(pl, [tr_lid, tr_pre], base_attack)))

    n_inputs = min(cfg.table4_inputs, len(pl.test_batch))
    if n_inputs < cfg.table4_inputs:
        report.notes.append(f"table4 inputs capped at {n_inputs} by the "
                            f"test split size")
    inputs = pl.test_batch.vectors[:n_inputs]
    input_labels = pl.dataset.labels[pl.test_ids[:n_inputs]]
    acfg = cfg.attack_config("adaptive_opt")
    result = det.adaptive_failure_rate(pl.net, detectors, inputs,
                                       input_labels, pl.reference, acfg,
                                       k=cfg.k)

    # plain-opt baseline on the same inputs, scored by the same detectors
    opt_outcomes, _ = run_attacks(pl.net, inputs, input_labels,
                                  cfg.attack_config(base_attack))
    plain = [flagged for _, flagged in det.score_outcomes(
        pl.net, detectors, opt_outcomes, pl.reference, cfg.k)]
    report.tables["adaptive_failure_rates"] = [
        {"scenario": scen,
         "adaptive_failure_rate": result[f"{scen}_failure_rate"],
         "plain_opt_detection_rate": sum(f[scen] for f in plain) / n_inputs,
         "n_inputs": n_inputs}
        for scen in ("scenario1", "scenario2")
    ]
    report.tables["adaptive_per_input"] = [
        {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
         for k, v in record.items()}
        for record in result["per_input"]
    ]


_RECIPES = {
    "table1": _recipe_table1,
    "table2": _recipe_table2,
    "table4": _recipe_table4,
    "table5": _recipe_table5,
    "fig2": _recipe_fig2,
    "fig3": _recipe_fig3,
    "fig4": _recipe_fig4,
}


@single_thread()
def run_recipe(name: str, cfg: ExperimentConfig, *,
               write: bool = True) -> ExperimentReport:
    """Run one named recipe and (by default) write its report to cfg.out_dir."""
    if name not in RECIPE_NAMES:
        raise ValueError(f"unknown recipe {name!r}; choose from {RECIPE_NAMES}")
    cfg.validate()
    sizing_note = None
    if name == "fig4":
        needed = max(cfg.fig4_sizes) + cfg.fig4_queries
        # rough sizing: 80% of the correct pool must cover queries + references
        required_pool = int(needed / 0.8 / 0.9) + 50
        if cfg.n_test < required_pool:
            sizing_note = (f"dataset.n_test raised from {cfg.n_test} to "
                           f"{required_pool} to fill the fig4 reference pool")
            cfg = replace(cfg, n_test=required_pool)
    report = ExperimentReport(recipe=name, config=cfg.to_dict(),
                              seeds={}, environment=_environment())
    if sizing_note:
        report.notes.append(sizing_note)
    stage = "pipeline"
    try:
        pl = build_pipeline(cfg)
        stage = name
        _RECIPES[name](pl, report)
    except ParseError:
        raise
    except LidkitError as err:
        raise RuntimeError(f"recipe {name} failed during {stage}: {err}") from err
    report.seeds = pl.seeds
    report.notes = pl.notes + report.notes
    report.split = {"train_ids": sorted(int(i) for i in pl.train_ids),
                    "test_ids": sorted(int(i) for i in pl.test_ids),
                    "disjoint": True}
    report.validate()
    if write:
        save_report(report, cfg.out_dir)
    return report
