"""Golden reports: Tier-1 fails when any recipe's numbers change.

One small config runs table1, fig3, fig4 and table4, which together reach
every feature path: train-mode and held-out LID/KD/BU, tuning and the
adaptive attack.  The test pins the sha256 of each written ``report.json``
(its ``config.out_dir`` fixed to ``"golden"``) and of each attack's train and
test ``combined`` FeatureMatrix.

The goldens record the numpy, BLAS and Python versions that made them.  In
that environment the bytes must match.  Elsewhere the values are compared to
1e-9 relative instead, and the test prints why.

A change that means to move the numbers regenerates the goldens with

    PYTHONPATH=src python tests/test_golden.py --regenerate

and states the per-cell AUC deltas in CHANGES.md.  Before it overwrites a
golden report, ``--regenerate`` prints the largest absolute change of each
numeric column of every table and series against it.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from lidkit.harness import recipes
from lidkit.harness.config import ExperimentConfig
from lidkit.harness.report import save_report

GOLDEN = Path(__file__).parent / "golden"
RECIPES = ("table1", "fig3", "fig4", "table4")
ATTACKS = ("fgm", "opt")
REL_TOL = 1e-9


def golden_config() -> ExperimentConfig:
    """A fresh config each call: fig4 may raise ``n_test`` in place."""
    return ExperimentConfig(
        n_train=300, n_test=150, net_epochs=15, net_lr=0.1,
        layers="dense:32,relu,dropout:0.2,dense:32,relu,dense:2,softmax",
        minibatch_size=40, k=8, attacks=ATTACKS,
        attack_overrides={"opt": {"max_iters": 20,
                                  "opt_binary_search_steps": 3,
                                  "opt_c_min": 10.0}},
        bu_runs=6, detector_epochs=300, folds=2,
        tune_grid_k=(5, 10), tune_grid_sigma=(0.1, 1.0),
        table4_inputs=4, fig4_sizes=(40,), fig4_queries=20, seed=1)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 — older numpy has no dict mode
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas,
            "python": platform.python_version()}


def report_bytes(name: str, out_dir: Path) -> bytes:
    report = recipes.run_recipe(name, golden_config(), write=False)
    report.config["out_dir"] = "golden"
    save_report(report, out_dir)
    return (out_dir / "report.json").read_bytes()


def feature_arrays() -> dict:
    pl = recipes.build_pipeline(golden_config())
    arrays = {}
    for attack in ATTACKS:
        train_fm, test_fm = recipes.combined_features(pl, attack)
        for split, fm in (("train", train_fm), ("test", test_fm)):
            arrays[f"{attack}_{split}_features"] = fm.features
            arrays[f"{attack}_{split}_labels"] = fm.labels.astype(np.int64)
            arrays[f"{attack}_{split}_provenance"] = np.array(fm.provenance)
    return arrays


def feature_digest(arrays: dict, attack: str, split: str) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(
        arrays[f"{attack}_{split}_features"], dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(
        arrays[f"{attack}_{split}_labels"], dtype=np.int64).tobytes())
    h.update("|".join(arrays[f"{attack}_{split}_provenance"].tolist()).encode())
    return h.hexdigest()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _assert_close(got, want, path="report"):
    """Recursive comparison: floats to REL_TOL, everything else exactly."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for key in want:
            if path == "report" and key == "environment":
                continue
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float) or isinstance(got, float):
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0), \
            f"{path}: {got!r} != {want!r}"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def golden():
    digests = json.loads((GOLDEN / "digests.json").read_text())
    same_env = digests["environment"] == environment()
    if not same_env:
        print(f"golden environment {digests['environment']} differs from "
              f"{environment()}: comparing values to {REL_TOL} relative, "
              f"not bytes")
    return digests, same_env


@pytest.fixture(scope="module")
def features():
    return feature_arrays()


@pytest.mark.parametrize("name", RECIPES)
def test_report_matches_golden(name, golden, tmp_path):
    digests, same_env = golden
    got = report_bytes(name, tmp_path)
    if same_env:
        assert _sha(got) == digests["reports"][name], (
            f"{name} report.json changed; diff it against "
            f"tests/golden/{name}.report.json")
    else:
        want = json.loads((GOLDEN / f"{name}.report.json").read_text())
        _assert_close(json.loads(got), want)


@pytest.mark.parametrize("attack", ATTACKS)
@pytest.mark.parametrize("split", ("train", "test"))
def test_combined_features_match_golden(attack, split, golden, features):
    digests, same_env = golden
    if same_env:
        assert (feature_digest(features, attack, split)
                == digests["features"][f"{attack}_{split}"])
    else:
        with np.load(GOLDEN / "features.npz") as want:
            for part in ("features", "labels", "provenance"):
                key = f"{attack}_{split}_{part}"
                if part == "features":
                    np.testing.assert_allclose(features[key], want[key],
                                               rtol=REL_TOL, atol=0.0)
                else:
                    np.testing.assert_array_equal(features[key], want[key])


def report_deltas(got: dict, want: dict) -> list:
    """One line per column of every table and series in two reports: the
    largest absolute change of its numeric cells from ``want`` to ``got``,
    or a note that its rows, columns or other values changed."""
    lines = []
    for part in ("tables", "series"):
        for title in sorted(set(want[part]) | set(got[part])):
            old, new = want[part].get(title, []), got[part].get(title, [])
            if (len(old) != len(new)
                    or any(o.keys() != n.keys() for o, n in zip(old, new))):
                lines.append(f"{part}.{title}: rows or columns changed")
                continue
            for key in sorted({key for row in old for key in row}):
                pairs = [(o[key], n[key]) for o, n in zip(old, new)
                         if key in o]
                if all(type(v) in (int, float) for pair in pairs
                       for v in pair):
                    change = max(abs(n - o) for o, n in pairs)
                    lines.append(f"{part}.{title}.{key}: largest change "
                                 f"{change:.3g}")
                elif any(o != n for o, n in pairs):
                    lines.append(f"{part}.{title}.{key}: values changed")
    return lines


def regenerate() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in RECIPES:
            data = report_bytes(name, Path(tmp) / name)
            path = GOLDEN / f"{name}.report.json"
            if path.exists():
                for line in report_deltas(json.loads(data),
                                          json.loads(path.read_text())):
                    print(f"{name} {line}")
            path.write_bytes(data)
            reports[name] = _sha(data)
    arrays = feature_arrays()
    np.savez_compressed(GOLDEN / "features.npz", **arrays)
    digests = {
        "environment": environment(),
        "reports": reports,
        "features": {f"{a}_{s}": feature_digest(arrays, a, s)
                     for a in ATTACKS for s in ("train", "test")},
    }
    (GOLDEN / "digests.json").write_text(
        json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_golden.py --regenerate")
    regenerate()
