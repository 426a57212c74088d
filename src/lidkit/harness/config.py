"""Experiment configuration: a dataclass plus a flat key=value file format.

The file grammar is line-oriented: blank lines and ``#`` comments are
ignored, everything else must be ``key=value`` with dotted section keys
(``attack.fgm.epsilon=0.3``).  Unknown keys are rejected with the offending
line number so typos fail loudly.  The full key list lives in the README.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

import numpy as np

from ..attacks import ATTACK_KINDS, AttackConfig
from ..detector import FEATURE_KINDS
from ..errors import ParseError
from ..microgradnet import LayerSpec
from .data import GENERATOR_NAMES

# attack.<kind>.<field> overrides accepted in config files
_ATTACK_FIELD_TYPES = {
    "epsilon": float,
    "max_iters": int,
    "clip_min": float,
    "clip_max": float,
    "sign_step": bool,
    "opt_learning_rate": float,
    "opt_binary_search_steps": int,
    "opt_c_min": float,
    "opt_c_max": float,
    "adaptive_alpha_min": float,
    "adaptive_alpha_max": float,
    "adaptive_alpha_steps": int,
    "adaptive_k": int,
}

_DEFAULT_SIGMA_GRID = tuple(float(v) for v in np.logspace(-2.0, 1.0, 10,
                                                          endpoint=False))
_DEFAULT_K_GRID = tuple(range(10, 100, 10))


@dataclass
class ExperimentConfig:
    """Everything a recipe needs; field defaults are the desk-scale setup."""

    dataset_name: str = "two_moons"
    dataset_params: dict = field(default_factory=dict)
    dataset_csv: str | None = None
    n_train: int = 2000
    n_test: int = 500
    layers: str = ""  # empty = default architecture for the dataset's shape
    net_epochs: int = 40
    net_lr: float = 0.3
    net_batch: int = 32
    net_path: str | None = None
    attacks: tuple = ("fgm", "bim_a", "bim_b", "jsma", "opt")
    attack_overrides: dict = field(default_factory=dict)
    feature_kinds: tuple = ("lid", "kd", "bu", "kd_bu")
    k: int = 20
    sigma: float = 0.2
    bu_runs: int = 50
    minibatch_size: int = 100
    detector_epochs: int = 5000
    detector_lr: float = 1.0
    folds: int = 3
    tune_target: str = "lid"
    tune_grid_k: tuple = _DEFAULT_K_GRID
    tune_grid_sigma: tuple = _DEFAULT_SIGMA_GRID
    table4_inputs: int = 12
    fig4_sizes: tuple = (100, 1000)
    fig4_queries: int = 100
    features_csv: str | None = None
    model_path: str | None = None
    seed: int = 1
    out_dir: str = "out"
    workers: int = 1

    def validate(self) -> None:
        if self.dataset_csv is None and self.dataset_name not in GENERATOR_NAMES:
            raise ValueError(f"unknown dataset {self.dataset_name!r}")
        for path_attr in ("dataset_csv", "net_path", "features_csv", "model_path"):
            path = getattr(self, path_attr)
            if path is not None and not os.path.exists(path):
                raise ValueError(f"{path_attr} does not exist: {path}")
        if self.minibatch_size < self.k + 1:
            raise ValueError("minibatch_size must be at least k+1")
        if self.n_train < 10 or self.n_test < 10:
            raise ValueError("n_train and n_test must be at least 10")
        for a in self.attacks:
            if a not in ATTACK_KINDS:
                raise ValueError(f"unknown attack {a!r}")
        for kind in self.feature_kinds:
            if kind not in FEATURE_KINDS:
                raise ValueError(f"unknown feature kind {kind!r}")
        if self.tune_target not in ("lid", "kd"):
            raise ValueError("tune_target must be lid or kd")
        if self.workers < 1 or self.folds < 2:
            raise ValueError("workers must be >= 1 and folds >= 2")
        if not 0.0 < self.sigma:
            raise ValueError("sigma must be positive")
        if self.detector_epochs < 1:
            raise ValueError("detector_epochs must be at least 1")
        if not 0.0 < self.detector_lr <= 1.0:
            raise ValueError(f"detector_lr must lie in (0, 1], got "
                             f"{self.detector_lr}")
        if self.bu_runs < 2:
            raise ValueError("bu_runs must be at least 2")
        if self.table4_inputs < 2 or self.fig4_queries < 2:
            raise ValueError("table4_inputs and fig4_queries must be >= 2")
        # fig4's smallest k is round(0.1 * size), and a LID estimate needs
        # k >= 2: one distance has a zero log-ratio and no finite estimate
        if any(size < 15 for size in self.fig4_sizes):
            raise ValueError(f"fig4_sizes must all be at least 15, got "
                             f"{tuple(self.fig4_sizes)}")

    def attack_config(self, kind: str) -> AttackConfig:
        """AttackConfig for one kind with ``*`` then kind-specific overrides."""
        merged = {}
        merged.update(self.attack_overrides.get("*", {}))
        merged.update(self.attack_overrides.get(kind, {}))
        kwargs = {"kind": kind, "max_iters": 50}
        ranges = {"opt_c": list(AttackConfig.__dataclass_fields__["opt_c_range"].default),
                  "adaptive_alpha": list(
                      AttackConfig.__dataclass_fields__["adaptive_alpha_range"].default)}
        for name, value in merged.items():
            if name.endswith("_min") or name.endswith("_max"):
                base = name[:-4]
                ranges[base][0 if name.endswith("_min") else 1] = value
            else:
                kwargs[name] = value
        kwargs["opt_c_range"] = tuple(ranges["opt_c"])
        kwargs["adaptive_alpha_range"] = tuple(ranges["adaptive_alpha"])
        kwargs.setdefault("adaptive_k", self.k)
        kwargs["seed"] = kwargs.get("seed", self.seed * 1000 + 17)
        return AttackConfig(**kwargs)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out


def parse_layers(text: str, input_dim: int) -> tuple:
    """Layer grammar: comma-separated ``dense:OUT``, ``relu``, ``dropout:RATE``,
    ``softmax``; input widths are chained from ``input_dim``."""
    specs = []
    width = input_dim
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError("empty layer token")
        name, _, arg = token.partition(":")
        if name == "dense":
            out = int(arg)
            specs.append(LayerSpec("dense", width, out))
            width = out
        elif name == "relu":
            specs.append(LayerSpec("relu", width, width))
        elif name == "dropout":
            specs.append(LayerSpec("dropout", width, width,
                                   dropout_rate=float(arg)))
        elif name == "softmax":
            specs.append(LayerSpec("softmax", width, width))
        else:
            raise ValueError(f"unknown layer token {token!r}")
    return tuple(specs)


def default_layers(n_classes: int) -> str:
    return ("dense:64,relu,dropout:0.2,dense:64,relu,dropout:0.2,"
            f"dense:32,relu,dense:{n_classes},softmax")


# --------------------------------------------------------------------------
# file parsing


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_number_list(raw: str):
    """Comma list (``10,20,30``) or range syntax ``start:stop:step``."""
    if ":" in raw and "," not in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ValueError("range syntax is start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("range step must be positive")
        values = np.arange(start, stop, step)
        return tuple(float(v) for v in values)
    return tuple(float(v) for v in raw.split(","))


def _parse_name_list(raw: str) -> tuple:
    return tuple(v.strip() for v in raw.split(",") if v.strip())


_SCALAR_KEYS = {
    "seed": ("seed", int),
    "out_dir": ("out_dir", str),
    "workers": ("workers", int),
    "dataset.name": ("dataset_name", str),
    "dataset.csv": ("dataset_csv", str),
    "dataset.n_train": ("n_train", int),
    "dataset.n_test": ("n_test", int),
    "network.layers": ("layers", str),
    "network.epochs": ("net_epochs", int),
    "network.lr": ("net_lr", float),
    "network.batch_size": ("net_batch", int),
    "network.path": ("net_path", str),
    "feature.k": ("k", int),
    "feature.sigma": ("sigma", float),
    "feature.bu_runs": ("bu_runs", int),
    "batch.size": ("minibatch_size", int),
    "detector.epochs": ("detector_epochs", int),
    "detector.lr": ("detector_lr", float),
    "tune.folds": ("folds", int),
    "tune.target": ("tune_target", str),
    "recipe.table4.inputs": ("table4_inputs", int),
    "recipe.fig4.queries": ("fig4_queries", int),
    "io.features_csv": ("features_csv", str),
    "io.model_path": ("model_path", str),
}

_LIST_KEYS = {
    "attack.list": ("attacks", _parse_name_list),
    "feature.kinds": ("feature_kinds", _parse_name_list),
    "tune.grid.k": ("tune_grid_k",
                    lambda raw: tuple(int(v) for v in _parse_number_list(raw))),
    "tune.grid.sigma": ("tune_grid_sigma", _parse_number_list),
    "recipe.fig4.sizes": ("fig4_sizes",
                          lambda raw: tuple(int(v) for v in _parse_number_list(raw))),
}


def parse_config_text(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Apply key=value lines on top of defaults (or ``base``); strict keys."""
    cfg = base or ExperimentConfig()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(lineno, f"expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        try:
            if key in _SCALAR_KEYS:
                attr, typ = _SCALAR_KEYS[key]
                setattr(cfg, attr, typ(raw))
            elif key in _LIST_KEYS:
                attr, parse = _LIST_KEYS[key]
                setattr(cfg, attr, parse(raw))
            elif key.startswith("dataset.param."):
                # shape-like params (e.g. ambient_dim) must stay integers
                try:
                    value = int(raw)
                except ValueError:
                    value = float(raw)
                cfg.dataset_params[key[len("dataset.param."):]] = value
            elif key.startswith("attack."):
                _, kind, field_name = key.split(".", 2)
                if kind != "*" and kind not in ATTACK_KINDS:
                    raise ValueError(f"unknown attack kind {kind!r}")
                if field_name not in _ATTACK_FIELD_TYPES:
                    raise ValueError(f"unknown attack field {field_name!r}")
                typ = _ATTACK_FIELD_TYPES[field_name]
                value = _parse_bool(raw) if typ is bool else typ(raw)
                cfg.attack_overrides.setdefault(kind, {})[field_name] = value
            else:
                raise ValueError(f"unknown key {key!r}")
        except ParseError:
            raise
        except ValueError as err:
            raise ParseError(lineno, str(err)) from None
    return cfg


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base=base)
