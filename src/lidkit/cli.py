"""Command-line entry points.

Every subcommand reads the same flat config format (see the README for the
key list); ``--seed``, ``--out``, and ``--workers`` override the config.
The stages that touch data run on the recipes' pipeline: ``train-net``
trains the network ``build_pipeline`` would, ``attack`` attacks the recipes'
detector-training minibatches, and ``extract-features`` attacks those and
the held-out batch.  So ``train-detector`` on
``features_<attack>_<kind>.csv`` and ``evaluate`` on
``features_<attack>_<kind>_test.csv`` give table1's AUC for that cell.  A
feature file's header records its kind, which ``train-detector`` fits and
``feature.kinds`` must list.  Exit codes: 0 success, 1 validation problem
(bad flags, bad config, missing files), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import attacks, detector, microgradnet
from .errors import LidkitError, ParseError, ShapeError
from .harness import config as config_mod
from .harness import recipes
from .harness.data import save_csv
from .harness.report import _jsonable


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so we control exit codes."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lidkit",
                     description="Adversarial-example characterization by "
                                 "local intrinsic dimensionality.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", help="override the output directory")
    common.add_argument("--workers", type=int,
                        help="worker pool size for example-level attack work")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("gen-data", "generate a synthetic dataset CSV"),
        ("train-net", "train a classifier and save it"),
        ("attack", "attack the detector-training minibatches and write "
                   "outcome CSVs"),
        ("extract-features", "write train and held-out feature matrices for "
                             "the configured kinds"),
        ("train-detector", "fit a detector on a saved feature matrix"),
        ("evaluate", "score a saved detector on a saved feature matrix"),
        ("tune", "grid-search k (lid) or sigma (kd) and write the curve"),
    ]:
        sub.add_parser(name, parents=[common], help=help_text)
    recipe = sub.add_parser("recipe", parents=[common],
                            help="run a full experiment recipe")
    recipe.add_argument("name", choices=recipes.RECIPE_NAMES)
    return parser


def _load_config(args) -> config_mod.ExperimentConfig:
    cfg = config_mod.ExperimentConfig()
    if args.config:
        if not os.path.exists(args.config):
            raise ValueError(f"config file not found: {args.config}")
        cfg = config_mod.load_config(args.config, base=cfg)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if args.workers is not None:
        cfg.workers = args.workers
    return cfg


def _out_dir(cfg) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def _pipeline_on_saved_net(cfg) -> recipes.Pipeline:
    if cfg.net_path is None:
        raise ValueError("this command needs network.path in the config")
    return recipes.build_pipeline(cfg)


def _cmd_gen_data(cfg) -> int:
    cfg.validate()
    data = recipes.load_dataset(cfg)
    path = os.path.join(_out_dir(cfg), "dataset.csv")
    save_csv(data, path)
    print(f"wrote {len(data)} examples x {data.features.shape[1]} features "
          f"to {path}")
    return 0


def _cmd_train_net(cfg) -> int:
    cfg.validate()
    data = recipes.load_dataset(cfg)
    net = recipes.train_network(cfg, data)
    rest = slice(cfg.n_train, None)
    holdout = data.features[rest]
    if holdout.shape[0]:
        acc = float(np.mean(microgradnet.predict_batch(net, holdout)
                            == data.labels[rest]))
        print(f"holdout accuracy: {acc:.3f}")
    path = os.path.join(_out_dir(cfg), "network.net.json")
    microgradnet.save_network(net, path)
    print(f"wrote {path}")
    return 0


def _cmd_attack(cfg) -> int:
    pl = _pipeline_on_saved_net(cfg)
    out_dir = _out_dir(cfg)
    for kind in cfg.attacks:
        train_arts = recipes.train_artifacts(pl, kind)
        ids = [i for art in train_arts for i in art.batch.member_ids]
        outcomes = [o for art in train_arts for o in art.outcomes]
        path = os.path.join(out_dir, f"attack_{kind}.csv")
        attacks.save_attack_outcomes(path, ids, outcomes, kind)
        n_ok = sum(o.success for o in outcomes)
        print(f"{kind}: {n_ok}/{len(outcomes)} successful -> {path}")
    return 0


def _cmd_extract_features(cfg) -> int:
    pl = _pipeline_on_saved_net(cfg)
    recipes.check_bu_has_dropout(pl)
    out_dir = _out_dir(cfg)
    attack_kind = cfg.attacks[0]
    train_fm, test_fm = recipes.combined_features(pl, attack_kind)
    for kind in cfg.feature_kinds:
        for suffix, combined in (("", train_fm), ("_test", test_fm)):
            fm = detector.select_kind(combined, kind)
            path = os.path.join(out_dir,
                                f"features_{attack_kind}_{kind}{suffix}.csv")
            detector.save_feature_matrix(fm, path)
            print(f"{kind}: {len(fm)} rows x {fm.features.shape[1]} features "
                  f"-> {path}")
    return 0


def _cmd_train_detector(cfg) -> int:
    if cfg.features_csv is None:
        raise ValueError("train-detector needs io.features_csv in the config")
    cfg.validate()
    fm = detector.load_feature_matrix(cfg.features_csv)
    if fm.feature_kind not in cfg.feature_kinds:
        raise ParseError(1, f"{cfg.features_csv} holds {fm.feature_kind} "
                            f"features, which feature.kinds "
                            f"({', '.join(cfg.feature_kinds)}) does not list")
    model = detector.train_detector(fm, epochs=cfg.detector_epochs,
                                    lr=cfg.detector_lr,
                                    training_attack=cfg.attacks[0])
    path = os.path.join(_out_dir(cfg), "detector.json")
    detector.save_detector(model, path)
    print(f"trained on {len(fm)} rows ({fm.feature_kind}); wrote {path}")
    return 0


def _cmd_evaluate(cfg) -> int:
    if cfg.model_path is None or cfg.features_csv is None:
        raise ValueError(
            "evaluate needs io.model_path and io.features_csv in the config")
    cfg.validate()
    model = detector.load_detector(cfg.model_path)
    fm = detector.load_feature_matrix(cfg.features_csv, model.feature_kind)
    value = detector.held_out_auc(model, fm)
    path = os.path.join(_out_dir(cfg), "evaluation.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"auc": value, "feature_kind": model.feature_kind,
                   "training_attack": model.training_attack,
                   "n_rows": len(fm)}, fh, indent=2, sort_keys=True)
    print(f"auc: {value:.4f} ({len(fm)} rows) -> {path}")
    return 0


def _cmd_tune(cfg) -> int:
    pl = recipes.build_pipeline(cfg)
    grid = cfg.tune_grid_k if cfg.tune_target == "lid" else cfg.tune_grid_sigma
    result = detector.tune_parameter(
        pl.net, pl.train_batches, {cfg.tune_target: grid},
        [cfg.attack_config(a) for a in cfg.attacks], folds=cfg.folds,
        seed=cfg.seed + 5, epochs=cfg.detector_epochs,
        lr=cfg.detector_lr)[cfg.tune_target]
    out_dir = _out_dir(cfg)
    path = os.path.join(out_dir, "tuning.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable({
            "target": cfg.tune_target,
            "grid": list(result.grid),
            "mean_auc": list(result.mean_auc),
            "per_attack_auc": result.per_attack_auc,
            "selected": result.selected,
        }), fh, indent=2, sort_keys=True)
    print(f"selected {cfg.tune_target} parameter: {result.selected} -> {path}")
    return 0


def _cmd_recipe(cfg, name: str) -> int:
    report = recipes.run_recipe(name, cfg)
    print(f"recipe {name} complete; report in {cfg.out_dir}")
    for table, rows in report.tables.items():
        print(f"  table {table}: {len(rows)} rows")
    for series, points in report.series.items():
        print(f"  series {series}: {len(points)} points")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train-net": _cmd_train_net,
    "attack": _cmd_attack,
    "extract-features": _cmd_extract_features,
    "train-detector": _cmd_train_detector,
    "evaluate": _cmd_evaluate,
    "tune": _cmd_tune,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _load_config(args)
        if args.command == "recipe":
            return _cmd_recipe(cfg, args.name)
        return _COMMANDS[args.command](cfg)
    except (_UsageError, ParseError, ValueError, ShapeError,
            FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (LidkitError, RuntimeError) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 — last-resort runtime mapping
        print(f"unexpected error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
