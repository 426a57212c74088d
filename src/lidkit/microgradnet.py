"""Small dense feedforward classifiers with full activation capture.

The point of this module is not speed but transparency: every forward pass can
return the activations of every layer (the input counts as layer 0), and exact
input gradients are available for any cotangent at any level.  That is what
the neighborhood characteristics and the attacks are built on.

Conventions, fixed once and relied on everywhere:

* A dense layer stores ``weight`` with shape ``(out_dim, in_dim)`` and computes
  ``weight @ a + bias``.
* Dropout in deterministic mode multiplies activations by ``(1 - rate)``.
  In stochastic mode it multiplies by a 0/1 mask drawn as
  ``default_rng(seed).random(out_dim) >= rate``, with one draw per dropout
  layer in network order.  Stochastic mode exists for uncertainty estimates;
  gradients and training always use the deterministic scaling.
* The final layer is always softmax, and ``per_layer[-2]`` of an activation
  stack holds the pre-softmax logits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NumericOverflowError, ShapeError, TrainingDivergedError

LAYER_KINDS = ("dense", "relu", "dropout", "softmax")


@dataclass(frozen=True)
class LayerSpec:
    """Shape and kind of one layer.

    Non-dense layers must preserve width (``in_dim == out_dim``) and
    ``dropout_rate`` is only meaningful (and only allowed to be nonzero) for
    dropout layers, where it must lie in ``[0, 1)``.
    """

    kind: str
    in_dim: int
    out_dim: int
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("layer dimensions must be positive")
        if self.kind != "dense" and self.in_dim != self.out_dim:
            raise ValueError(f"{self.kind} layer must preserve width")
        if self.kind == "dropout":
            if not 0.0 <= self.dropout_rate < 1.0:
                raise ValueError("dropout rate must be in [0, 1)")
        elif self.dropout_rate != 0.0:
            raise ValueError(f"dropout_rate is meaningless for {self.kind}")


@dataclass
class Network:
    """A validated stack of layers plus parameters for the dense ones.

    ``weights[i]`` / ``biases[i]`` are None unless ``layers[i]`` is dense.
    Parameter arrays are frozen (read-only) on construction; training builds a
    new Network rather than mutating one.
    """

    layers: tuple[LayerSpec, ...]
    weights: list
    biases: list
    rng_seed: int = 0

    def __post_init__(self):
        self.layers = tuple(self.layers)
        if not self.layers:
            raise ValueError("network needs at least one layer")
        if self.layers[-1].kind != "softmax":
            raise ValueError("last layer must be softmax")
        if sum(1 for s in self.layers if s.kind == "softmax") != 1:
            raise ValueError("exactly one softmax layer is allowed")
        for prev, cur in zip(self.layers, self.layers[1:]):
            if cur.in_dim != prev.out_dim:
                raise ValueError(
                    f"layer widths do not chain: {prev.out_dim} -> {cur.in_dim}"
                )
        if len(self.weights) != len(self.layers) or len(self.biases) != len(self.layers):
            raise ValueError("params must align with layers")
        for spec, w, b in zip(self.layers, self.weights, self.biases):
            if spec.kind != "dense":
                if w is not None or b is not None:
                    raise ValueError(f"{spec.kind} layer cannot carry parameters")
                continue
            if w is None or b is None:
                raise ValueError("dense layer is missing parameters")
            if w.shape != (spec.out_dim, spec.in_dim) or b.shape != (spec.out_dim,):
                raise ValueError("parameter shapes do not match the layer spec")
            w.setflags(write=False)
            b.setflags(write=False)

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def depth(self) -> int:
        """Number of activation levels an ActivationStack holds (layers + input)."""
        return len(self.layers) + 1


@dataclass(frozen=True)
class ActivationStack:
    """Per-layer activations of one forward pass.

    ``per_layer[0]`` is the input itself, ``per_layer[-1]`` the softmax
    output, so the stack has ``depth = len(layers) + 1`` entries.
    """

    per_layer: tuple
    predicted_class: int
    probs: np.ndarray


# --------------------------------------------------------------------------
# objectives for input gradients


@dataclass(frozen=True)
class CrossEntropy:
    """Cross-entropy of the softmax output against a fixed integer label."""

    label: int


# --------------------------------------------------------------------------
# forward passes


def _dropout_masks(net: Network, seed: int) -> dict:
    """Stochastic 0/1 masks, one per dropout layer, drawn in network order."""
    rng = np.random.default_rng(seed)
    masks = {}
    for i, spec in enumerate(net.layers):
        if spec.kind == "dropout":
            masks[i] = (rng.random(spec.out_dim) >= spec.dropout_rate).astype(float)
    return masks


def _forward_rows(net: Network, x: np.ndarray, masks=None, weights=None,
                  biases=None) -> list:
    """Run one row ``x`` of shape (in_dim,) or a batch (n, in_dim) through the net.

    Returns all depth levels, each with ``x``'s leading shape.  ``masks`` of
    None means deterministic dropout scaling.  ``weights`` and ``biases``
    replace the net's own parameter lists, as a training step's do.
    """
    weights = net.weights if weights is None else weights
    biases = net.biases if biases is None else biases
    acts = [x]
    a = x
    for i, spec in enumerate(net.layers):
        if spec.kind == "dense":
            a = a.dot(weights[i].T) + biases[i]
        elif spec.kind == "relu":
            a = np.maximum(a, 0.0)
        elif spec.kind == "dropout":
            if masks is None:
                a = a * (1.0 - spec.dropout_rate)
            else:
                a = a * masks[i]
        else:  # softmax
            z = a - a.max(axis=-1, keepdims=True)
            e = np.exp(z)
            a = e / e.sum(axis=-1, keepdims=True)
        acts.append(a)
    return acts


def forward_row(net: Network, x: np.ndarray, masks=None) -> list:
    """Every activation level of one row ``x`` of shape (in_dim,), as 1-D arrays.

    They are bitwise the rows of ``activations_batch`` on ``x[None, :]``:
    ``np.dot`` hands a 1-D ``x`` and a (1, d) row to the same BLAS call, and
    the softmax reduces over the last axis either way.  No validation, so
    callers on a hot path pay only for the pass itself.
    """
    return _forward_rows(net, x, masks)


def as_row(net: Network, x) -> np.ndarray:
    """``x`` as one float input row, or ShapeError unless it is (in_dim,)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != net.input_dim:
        raise ShapeError(
            f"expected input of shape ({net.input_dim},), got {x.shape}"
        )
    return x


def _as_batch(net: Network, xs) -> np.ndarray:
    """``xs`` as a float input batch, or ShapeError unless it is (n, in_dim)."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != net.input_dim:
        raise ShapeError(
            f"expected batch of shape (n, {net.input_dim}), got {xs.shape}"
        )
    return xs


def _masks_for(net: Network, mode: str, seed: int | None):
    """Dropout masks for ``mode``: None (deterministic) or one draw per seed."""
    if mode == "stochastic":
        if seed is None:
            raise ValueError("stochastic mode requires a seed")
        return _dropout_masks(net, seed)
    if mode != "deterministic":
        raise ValueError(f"unknown mode {mode!r}")
    return None


def forward_capture(net: Network, x, mode: str = "deterministic",
                    seed: int | None = None) -> ActivationStack:
    """Forward one example and capture every activation level.

    ``mode`` is "deterministic" or "stochastic"; stochastic requires ``seed``
    and draws dropout masks per the module-level contract.  Ties in the
    predicted class go to the lowest class index.
    """
    x = as_row(net, x)
    per_layer = tuple(forward_row(net, x, _masks_for(net, mode, seed)))
    probs = per_layer[-1]
    return ActivationStack(per_layer=per_layer,
                           predicted_class=int(np.argmax(probs)),
                           probs=probs)


def activations_batch(net: Network, xs: np.ndarray, mode: str = "deterministic",
                      seed: int | None = None) -> list:
    """All activation levels for a whole (n, in_dim) batch at once.

    In stochastic mode every row shares the masks for ``seed``: a batch call
    zeroes exactly the units that n single-example calls with that seed
    would, and values agree to floating-point rounding (BLAS may sum matmul
    products in a different order for different row counts).
    """
    return _forward_rows(net, _as_batch(net, xs), _masks_for(net, mode, seed))


def predict(net: Network, x) -> int:
    return int(np.argmax(forward_row(net, as_row(net, x))[-1]))


def predict_batch(net: Network, xs: np.ndarray) -> np.ndarray:
    """Predicted class of every row of an (n, in_dim) batch; ShapeError otherwise."""
    return np.argmax(_forward_rows(net, _as_batch(net, xs))[-1], axis=1)


# --------------------------------------------------------------------------
# backward passes


def backprop_row(net: Network, levels, index: int,
                 cotangent: np.ndarray) -> np.ndarray:
    """``backprop_to_input`` without its checks, for ``forward_row`` levels."""
    g = cotangent
    for li in range(index - 1, -1, -1):
        spec = net.layers[li]
        if spec.kind == "dense":
            g = g.dot(net.weights[li])
        elif spec.kind == "relu":
            g = g * (levels[li] > 0.0)
        elif spec.kind == "dropout":
            g = g * (1.0 - spec.dropout_rate)
        else:  # softmax, whose output is level li + 1
            p = levels[li + 1]
            g = p * (g - np.dot(g, p))
    return g


def backprop_to_input(net: Network, per_layer, index: int,
                      cotangent: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the input of a scalar whose cotangent sits at level ``index``.

    ``per_layer`` comes from a deterministic forward pass; ``index`` counts
    activation levels, so ``index = net.depth - 2`` seeds at the pre-softmax
    logits.
    """
    g = np.asarray(cotangent, dtype=float)
    if g.shape != per_layer[index].shape:
        raise ShapeError("cotangent shape does not match the activation level")
    return backprop_row(net, per_layer, index, g)


def cross_entropy_gradient(net: Network, levels, label: int) -> np.ndarray:
    """``input_gradient``'s arithmetic at ``forward_row`` levels already
    computed: CrossEntropy(label) pulled back from the logits.  Raises
    NumericOverflowError if any level is non-finite."""
    if not np.isfinite(np.concatenate(levels)).all():
        raise NumericOverflowError("forward pass produced non-finite values")
    cot = levels[-1].copy()
    cot[label] -= 1.0
    return backprop_row(net, levels, net.depth - 2, cot)


def input_gradient(net: Network, x, objective) -> np.ndarray:
    """Exact gradient of the CrossEntropy(label) objective w.r.t. the input.

    Attacks that need another objective backpropagate its cotangent with
    ``backprop_to_input``.  Gradients always use deterministic dropout
    scaling.  Raises NumericOverflowError if the forward pass is non-finite.
    """
    if not isinstance(objective, CrossEntropy):
        raise TypeError(f"unknown objective {objective!r}")
    if not 0 <= objective.label < net.output_dim:
        raise ValueError("label out of range")
    levels = forward_row(net, as_row(net, x))
    return cross_entropy_gradient(net, levels, objective.label)


def logit_jacobian(net: Network, x) -> np.ndarray:
    """Jacobian of the pre-softmax logits w.r.t. the input, shape (C, in_dim)."""
    levels = forward_row(net, as_row(net, x))
    return logit_jacobian_at(net, levels)


def logit_jacobian_at(net: Network, levels) -> np.ndarray:
    """``logit_jacobian`` at ``forward_row`` levels: one VJP per class."""
    n_class = net.output_dim
    rows = np.empty((n_class, net.input_dim))
    for c in range(n_class):
        cot = np.zeros(n_class)
        cot[c] = 1.0
        rows[c] = backprop_row(net, levels, net.depth - 2, cot)
    return rows


# --------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class SgdConfig:
    epochs: int = 40
    learning_rate: float = 0.3
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1 or self.learning_rate <= 0:
            raise ValueError("invalid training configuration")


def init_network(layer_specs, seed: int) -> Network:
    """Glorot-uniform weights (limit sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for spec in layer_specs:
        if spec.kind == "dense":
            limit = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
            weights.append(rng.uniform(-limit, limit, (spec.out_dim, spec.in_dim)))
            biases.append(np.zeros(spec.out_dim))
        else:
            weights.append(None)
            biases.append(None)
    return Network(layers=tuple(layer_specs), weights=weights, biases=biases,
                   rng_seed=seed)


def _batch_loss_and_grads(net, weights, biases, xb, yb):
    """Mean cross-entropy over a batch plus parameter gradients.

    Works on mutable parameter lists so the training loop does not have to
    rebuild a Network every step.  Dropout uses deterministic scaling.
    """
    acts = _forward_rows(net, xb, weights=weights, biases=biases)
    # shift the logits by their row max; softmax and cross-entropy in one go
    z = acts[-2] - acts[-2].max(axis=1, keepdims=True)
    logsum = np.log(np.exp(z).sum(axis=1))
    n = xb.shape[0]
    loss = float(np.mean(logsum - z[np.arange(n), yb]))
    probs = np.exp(z - logsum[:, None])
    g = probs
    g[np.arange(n), yb] -= 1.0
    g /= n
    grads_w = [None] * len(net.layers)
    grads_b = [None] * len(net.layers)
    for i in range(len(net.layers) - 2, -1, -1):
        spec = net.layers[i]
        if spec.kind == "dense":
            grads_w[i] = g.T @ acts[i]
            grads_b[i] = g.sum(axis=0)
            g = g @ weights[i]
        elif spec.kind == "relu":
            g = g * (acts[i] > 0.0)
        elif spec.kind == "dropout":
            g = g * (1.0 - spec.dropout_rate)
    return loss, grads_w, grads_b


def train_sgd(features: np.ndarray, labels: np.ndarray, layer_specs,
              config: SgdConfig) -> Network:
    """Train a freshly initialized network with plain minibatch SGD.

    Examples are shuffled once per epoch with the run's generator.  A
    non-finite batch loss raises TrainingDivergedError carrying the 0-based
    epoch index.
    """
    xs = np.asarray(features, dtype=float)
    ys = np.asarray(labels)
    if xs.ndim != 2 or xs.shape[0] != ys.shape[0]:
        raise ShapeError("features and labels do not align")
    if xs.shape[1] != layer_specs[0].in_dim:
        raise ShapeError("feature width does not match the first layer")
    n_class = layer_specs[-1].out_dim
    if ys.min() < 0 or ys.max() >= n_class:
        raise ValueError("labels out of range for the output layer")
    net = init_network(layer_specs, config.seed)
    weights = [None if w is None else w.copy() for w in net.weights]
    biases = [None if b is None else b.copy() for b in net.biases]
    rng = np.random.default_rng(config.seed)
    n = xs.shape[0]
    lr = config.learning_rate
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            loss, gw, gb = _batch_loss_and_grads(net, weights, biases,
                                                 xs[idx], ys[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch)
            for i in range(len(net.layers)):
                if gw[i] is not None:
                    weights[i] = weights[i] - lr * gw[i]
                    biases[i] = biases[i] - lr * gb[i]
    return Network(layers=net.layers, weights=weights, biases=biases,
                   rng_seed=config.seed)


# --------------------------------------------------------------------------
# serialization (.net.json by convention)


def to_json_dict(net: Network) -> dict:
    params = []
    for w, b in zip(net.weights, net.biases):
        if w is None:
            params.append(None)
        else:
            params.append({"weight": w.tolist(), "bias": b.tolist()})
    return {
        "format": "lidkit-network-v1",
        "seed": net.rng_seed,
        "layers": [
            {"kind": s.kind, "in_dim": s.in_dim, "out_dim": s.out_dim,
             "dropout_rate": s.dropout_rate}
            for s in net.layers
        ],
        "params": params,
    }


def from_json_dict(data: dict) -> Network:
    if data.get("format") != "lidkit-network-v1":
        raise ValueError("not a serialized network")
    specs = tuple(
        LayerSpec(kind=d["kind"], in_dim=d["in_dim"], out_dim=d["out_dim"],
                  dropout_rate=d.get("dropout_rate", 0.0))
        for d in data["layers"]
    )
    weights, biases = [], []
    for p in data["params"]:
        if p is None:
            weights.append(None)
            biases.append(None)
        else:
            weights.append(np.array(p["weight"], dtype=float))
            biases.append(np.array(p["bias"], dtype=float))
    return Network(layers=specs, weights=weights, biases=biases,
                   rng_seed=data.get("seed", 0))


def save_network(net: Network, path) -> None:
    """Write a network as JSON; round-trips bit-exactly (floats via repr)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(net), fh)


def load_network(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))
