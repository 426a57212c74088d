"""Exit codes and artifact flow of the command-line interface."""

import csv
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from lidkit.cli import main
from lidkit.detector import load_feature_matrix
from lidkit.harness.config import ExperimentConfig, load_config
from lidkit.harness.data import load_csv
from lidkit.harness.recipes import run_recipe
from lidkit.harness.report import load_report

_BASE = """
dataset.name = gaussian_blobs
dataset.param.dim = 2
dataset.n_train = 120
dataset.n_test = 60
network.layers = dense:8,relu,dropout:0.2,dense:2,softmax
network.epochs = 10
batch.size = 25
feature.k = 8
feature.bu_runs = 4
feature.kinds = lid, combined
attack.list = opt, fgm
attack.*.max_iters = 20
detector.epochs = 600
seed = 2
"""


def _write_cfg(tmp_path, name, extra=""):
    path = tmp_path / name
    path.write_text(_BASE + extra)
    return str(path)


def test_full_workflow_through_the_cli(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = _write_cfg(tmp_path, "base.cfg")

    assert main(["gen-data", "--config", cfg, "--out", out]) == 0
    data = load_csv(f"{out}/dataset.csv")
    assert len(data) == 180 and data.features.shape[1] == 2

    assert main(["train-net", "--config", cfg, "--out", out]) == 0
    shown = capsys.readouterr().out
    assert "holdout accuracy" in shown

    with_net = _write_cfg(tmp_path, "net.cfg",
                          f"network.path = {out}/network.net.json\n")
    assert main(["attack", "--config", with_net, "--out", out]) == 0
    header = open(f"{out}/attack_opt.csv").readline()
    assert header.startswith("id,attack_kind,success")
    assert (tmp_path / "out" / "attack_fgm.csv").exists()

    assert main(["extract-features", "--config", with_net, "--out", out]) == 0
    fm = load_feature_matrix(f"{out}/features_opt_lid.csv", "lid")
    assert fm.features.shape[1] == 6  # one column per activation level
    assert (tmp_path / "out" / "features_opt_combined.csv").exists()

    with_features = _write_cfg(
        tmp_path, "features.cfg",
        f"io.features_csv = {out}/features_opt_lid.csv\n")
    assert main(["train-detector", "--config", with_features,
                 "--out", out]) == 0

    with_model = _write_cfg(
        tmp_path, "model.cfg",
        f"io.features_csv = {out}/features_opt_lid.csv\n"
        f"io.model_path = {out}/detector.json\n")
    assert main(["evaluate", "--config", with_model, "--out", out]) == 0
    evaluation = json.load(open(f"{out}/evaluation.json"))
    assert 0.0 <= evaluation["auc"] <= 1.0
    assert evaluation["feature_kind"] == "lid"
    assert evaluation["training_attack"] == "opt"


@pytest.mark.filterwarnings("ignore:dropping zero-variance")
def test_cli_stages_reproduce_the_recipes(tmp_path):
    """The CLI runs on the recipes' pipeline: its detector scores table1's
    (opt, lid) cell bit for bit, and it attacks table5's rows."""
    out = str(tmp_path / "out")
    cfg = _write_cfg(tmp_path, "base.cfg")
    assert main(["gen-data", "--config", cfg, "--out", out]) == 0
    assert main(["train-net", "--config", cfg, "--out", out]) == 0
    with_net = _write_cfg(tmp_path, "net.cfg",
                          f"network.path = {out}/network.net.json\n")
    assert main(["attack", "--config", with_net, "--out", out]) == 0
    assert main(["extract-features", "--config", with_net, "--out", out]) == 0
    trained = _write_cfg(tmp_path, "train.cfg",
                         f"io.features_csv = {out}/features_opt_lid.csv\n")
    assert main(["train-detector", "--config", trained, "--out", out]) == 0
    scored = _write_cfg(tmp_path, "score.cfg",
                        f"io.features_csv = {out}/features_opt_lid_test.csv\n"
                        f"io.model_path = {out}/detector.json\n")
    assert main(["evaluate", "--config", scored, "--out", out]) == 0
    evaluation = json.load(open(f"{out}/evaluation.json"))

    def recipe(name):
        return run_recipe(name, load_config(cfg, base=ExperimentConfig()),
                          write=False)

    table1 = recipe("table1")
    cell, = [row for row in table1.tables["auc_by_attack_and_feature"]
             if (row["attack"], row["feature_kind"]) == ("opt", "lid")]
    assert evaluation["auc"] == cell["auc"]
    assert evaluation["n_rows"] == cell["test_rows"]

    with open(f"{out}/attack_opt.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    opt, = [row for row in recipe("table5").tables["perturbation_and_accuracy"]
            if row["attack"] == "opt"]
    assert len(rows) == opt["n"]
    assert sum(int(r["success"]) for r in rows) == round(
        opt["success_rate"] * opt["n"])
    assert {int(r["id"]) for r in rows} <= set(table1.split["train_ids"])


_QUICK_START = """\
dataset.name = gaussian_blobs
dataset.param.dim = 2
dataset.n_train = 500
dataset.n_test = 200
network.layers = dense:16,relu,dense:2,softmax
batch.size = 50
feature.k = 10
attack.list = opt, fgm
"""


def test_feature_files_carry_their_kind_at_the_quick_start_config(
        tmp_path, capsys):
    """The README quick start's network has no dropout: extract-features
    refuses the bu kind, and train-detector fits the kind a file holds."""
    out = str(tmp_path / "out")
    path = tmp_path / "exp.cfg"
    path.write_text(_QUICK_START)
    cfg = str(path)

    def run(command, extra=""):
        path.write_text(_QUICK_START + f"network.path = {out}/network.net.json\n"
                        + extra)
        return main([command, "--config", cfg, "--out", out])

    assert main(["gen-data", "--config", cfg, "--out", out]) == 0
    assert main(["train-net", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    # the default kinds include bu: refused before any file is written
    assert run("extract-features") == 1
    assert "dropout" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("features_*"))

    assert run("extract-features", "feature.kinds = lid, kd\n") == 0
    kd_file = f"{out}/features_opt_kd.csv"
    assert load_feature_matrix(kd_file).feature_kind == "kd"
    assert run("train-detector", f"feature.kinds = lid, kd\n"
                                 f"io.features_csv = {kd_file}\n") == 0
    assert "(kd)" in capsys.readouterr().out
    assert json.load(open(f"{out}/detector.json"))["feature_kind"] == "kd"
    # a kind the config does not list, and a model of another kind
    assert run("train-detector", f"feature.kinds = lid\n"
                                 f"io.features_csv = {kd_file}\n") == 1
    assert "holds kd features" in capsys.readouterr().err
    assert run("evaluate", f"io.features_csv = {out}/features_opt_lid_test.csv\n"
                           f"io.model_path = {out}/detector.json\n") == 1
    assert "holds lid features, not kd" in capsys.readouterr().err


def test_tune_writes_the_selected_parameter(tmp_path):
    out = str(tmp_path / "out")
    cfg = _write_cfg(tmp_path, "tune.cfg",
                     "dataset.n_test = 80\n"
                     "attack.list = opt\n"
                     "tune.grid.k = 5,8\n"
                     "tune.folds = 2\n")
    assert main(["tune", "--config", cfg, "--out", out]) == 0
    tuning = json.load(open(f"{out}/tuning.json"))
    assert tuning["target"] == "lid"
    assert tuning["grid"] == [5, 8]
    assert tuning["selected"] in (5, 8)
    assert len(tuning["mean_auc"]) == 2


def test_recipe_runs_and_writes_a_report(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = _write_cfg(tmp_path, "recipe.cfg", "dataset.n_test = 80\n")
    assert main(["recipe", "fig2", "--config", cfg, "--out", out]) == 0
    assert "recipe fig2 complete" in capsys.readouterr().out
    report = load_report(out)
    assert report.recipe == "fig2"
    assert report.split["train_ids"]


def test_usage_problems_exit_with_one(tmp_path, capsys):
    assert main([]) == 1
    assert main(["launch-missiles"]) == 1
    assert main(["recipe", "table9"]) == 1
    assert main(["gen-data", "--config", str(tmp_path / "absent.cfg")]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("detector.momentum = 0.9\n")
    assert main(["gen-data", "--config", str(bad)]) == 1
    small = tmp_path / "small.cfg"
    small.write_text("dataset.n_train = 5\n")
    assert main(["gen-data", "--config", str(small)]) == 1
    no_net = tmp_path / "no_net.cfg"
    no_net.write_text("")
    assert main(["attack", "--config", str(no_net)]) == 1
    assert main(["evaluate", "--config", str(no_net)]) == 1
    capsys.readouterr()


def test_runtime_failures_exit_with_two(tmp_path, capsys):
    # attacks that cannot flip anything leave no positive class downstream
    cfg = _write_cfg(tmp_path, "dud.cfg",
                     "dataset.n_test = 80\n"
                     "attack.list = fgm\n"
                     "attack.fgm.epsilon = 1e-12\n")
    out = str(tmp_path / "out")
    assert main(["recipe", "fig2", "--config", cfg, "--out", out]) == 2
    assert "runtime error" in capsys.readouterr().err


def test_module_entry_point_prints_help():
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        __import__("lidkit").__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "lidkit", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "usage" in proc.stdout


def test_console_script_is_installed():
    exe = shutil.which("lidkit")
    assert exe, "console script missing from PATH"
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "usage" in proc.stdout
