"""Forward, backward, training, and serialization of the layered classifier."""

import numpy as np
import pytest

from lidkit.errors import (NumericOverflowError, ShapeError,
                           TrainingDivergedError)
from lidkit.harness.config import default_layers, parse_layers
from lidkit.microgradnet import (CrossEntropy, LayerSpec, Network, SgdConfig,
                                 _forward_rows, activations_batch,
                                 backprop_row, backprop_to_input,
                                 cross_entropy_gradient, forward_capture,
                                 forward_row, from_json_dict,
                                 init_network, input_gradient, load_network,
                                 logit_jacobian, predict, predict_batch,
                                 save_network, to_json_dict, train_sgd)


def _softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def _linear_net(weight, bias):
    """dense -> softmax with explicit parameters."""
    weight = np.asarray(weight, dtype=float)
    bias = np.asarray(bias, dtype=float)
    out_dim, in_dim = weight.shape
    specs = (LayerSpec("dense", in_dim, out_dim),
             LayerSpec("softmax", out_dim, out_dim))
    return Network(layers=specs, weights=[weight, None], biases=[bias, None])


# --------------------------------------------------------------------------
# layer and network validation


def test_layer_spec_validation():
    with pytest.raises(ValueError):
        LayerSpec("conv", 2, 2)
    with pytest.raises(ValueError):
        LayerSpec("dense", 0, 2)
    with pytest.raises(ValueError):
        LayerSpec("relu", 2, 3)  # non-dense layers must preserve width
    with pytest.raises(ValueError):
        LayerSpec("dropout", 2, 2, dropout_rate=1.0)
    with pytest.raises(ValueError):
        LayerSpec("dense", 2, 2, dropout_rate=0.5)  # rate is dropout-only


def test_network_requires_single_trailing_softmax():
    dense = LayerSpec("dense", 2, 2)
    soft = LayerSpec("softmax", 2, 2)
    with pytest.raises(ValueError):
        Network(layers=(dense,), weights=[np.eye(2)], biases=[np.zeros(2)])
    with pytest.raises(ValueError):
        Network(layers=(soft, soft), weights=[None, None], biases=[None, None])


def test_network_checks_width_chaining_and_params():
    with pytest.raises(ValueError, match="chain"):
        Network(layers=(LayerSpec("dense", 2, 3), LayerSpec("softmax", 2, 2)),
                weights=[np.ones((3, 2)), None], biases=[np.zeros(3), None])
    with pytest.raises(ValueError, match="missing"):
        Network(layers=(LayerSpec("dense", 2, 2), LayerSpec("softmax", 2, 2)),
                weights=[None, None], biases=[None, None])
    with pytest.raises(ValueError, match="shapes"):
        Network(layers=(LayerSpec("dense", 2, 2), LayerSpec("softmax", 2, 2)),
                weights=[np.ones((3, 2)), None], biases=[np.zeros(3), None])
    with pytest.raises(ValueError, match="parameters"):
        Network(layers=(LayerSpec("dense", 2, 2), LayerSpec("softmax", 2, 2)),
                weights=[np.eye(2), np.eye(2)], biases=[np.zeros(2), np.zeros(2)])


def test_network_dimensions():
    net = _linear_net(np.eye(2), np.zeros(2))
    assert net.input_dim == 2
    assert net.output_dim == 2
    assert net.depth == 3  # input, logits, probabilities


# --------------------------------------------------------------------------
# forward passes


def test_forward_capture_hand_computed():
    net = _linear_net([[1.0, 0.0], [0.0, -1.0]], [0.5, 0.0])
    x = np.array([0.3, 0.2])
    stack = forward_capture(net, x)
    logits = np.array([0.8, -0.2])
    np.testing.assert_allclose(stack.per_layer[0], x)
    np.testing.assert_allclose(stack.per_layer[1], logits)
    np.testing.assert_allclose(stack.probs, _softmax(logits), rtol=1e-14)
    assert stack.predicted_class == 0
    assert stack.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_prediction_tie_goes_to_lowest_class():
    net = _linear_net(np.zeros((3, 2)), np.zeros(3))
    assert predict(net, [0.4, 0.9]) == 0


def test_deterministic_dropout_scales_activations():
    specs = parse_layers("dense:2,dropout:0.25,dense:2,softmax", 2)
    net = init_network(specs, seed=4)
    stack = forward_capture(net, np.array([0.6, -0.2]))
    np.testing.assert_allclose(stack.per_layer[2], stack.per_layer[1] * 0.75)


def test_stochastic_masks_follow_the_seed_contract():
    specs = parse_layers("dense:3,dropout:0.5,dense:2,softmax", 2)
    net = init_network(specs, seed=8)
    x = np.array([0.4, 0.7])
    seed = 123
    stack = forward_capture(net, x, mode="stochastic", seed=seed)
    mask = (np.random.default_rng(seed).random(3) >= 0.5).astype(float)
    np.testing.assert_array_equal(stack.per_layer[2], stack.per_layer[1] * mask)


def test_stochastic_batch_shares_masks_with_single_calls():
    specs = parse_layers("dense:4,relu,dropout:0.3,dense:2,softmax", 3)
    net = init_network(specs, seed=2)
    xs = np.random.default_rng(0).random((5, 3))
    batch_levels = activations_batch(net, xs, mode="stochastic", seed=77)
    for j in range(5):
        single = forward_capture(net, xs[j], mode="stochastic", seed=77)
        for level, rows in enumerate(batch_levels):
            # identical dropout pattern; values only to rounding, because
            # BLAS may reorder matmul sums for different row counts
            np.testing.assert_array_equal(rows[j] == 0.0,
                                          single.per_layer[level] == 0.0)
            np.testing.assert_allclose(rows[j], single.per_layer[level],
                                       rtol=1e-12, atol=1e-15)


def test_forward_mode_validation():
    net = _linear_net(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="seed"):
        forward_capture(net, [0.1, 0.2], mode="stochastic")
    with pytest.raises(ValueError, match="mode"):
        forward_capture(net, [0.1, 0.2], mode="sideways")
    with pytest.raises(ShapeError):
        forward_capture(net, [0.1, 0.2, 0.3])
    with pytest.raises(ShapeError):
        activations_batch(net, np.ones((2, 3)))


def test_predict_batch_matches_singles(blob_net, blob_data):
    xs = blob_data.features[:10]
    singles = [predict(blob_net, x) for x in xs]
    np.testing.assert_array_equal(predict_batch(blob_net, xs), singles)


def test_predict_batch_takes_only_a_batch_of_input_width(blob_net):
    with pytest.raises(ShapeError):
        predict_batch(blob_net, np.zeros(2))  # one row, not a batch of one
    with pytest.raises(ShapeError):
        predict_batch(blob_net, np.zeros((3, 5)))


# --------------------------------------------------------------------------
# the row path against the batch path and the per-layer backward pass


def _default_net(n_classes, input_dim, seed=3):
    """The default architecture, Glorot weights and small random biases."""
    net = init_network(parse_layers(default_layers(n_classes), input_dim), seed)
    rng = np.random.default_rng(seed)
    biases = [None if b is None else rng.normal(0.0, 0.1, b.shape)
              for b in net.biases]
    return Network(layers=net.layers, weights=net.weights, biases=biases)


def _layer_vjp(net, index, per_layer, g):
    """Pull a cotangent at the output of layer ``index`` back to its input:
    the per-layer step that ``backprop_row`` runs inline."""
    spec = net.layers[index]
    if spec.kind == "dense":
        return net.weights[index].T @ g
    if spec.kind == "relu":
        return g * (per_layer[index] > 0.0)
    if spec.kind == "dropout":
        return g * (1.0 - spec.dropout_rate)
    p = per_layer[index + 1]
    return p * (g - np.dot(g, p))


def _matmul_levels(net, xs):
    """Deterministic levels of an (n, in_dim) batch with ``xs @ W.T`` layers."""
    levels = [xs]
    for spec, w, b in zip(net.layers, net.weights, net.biases):
        a = levels[-1]
        if spec.kind == "dense":
            a = a @ w.T + b
        elif spec.kind == "relu":
            a = np.maximum(a, 0.0)
        elif spec.kind == "dropout":
            a = a * (1.0 - spec.dropout_rate)
        else:
            e = np.exp(a - a.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
        levels.append(a)
    return levels


NETS = [(c, d) for c in (2, 3) for d in (1, 2, 100)]


@pytest.mark.parametrize("n_classes,input_dim", NETS)
@pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
def test_forward_row_is_bitwise_the_batch_of_one(n_classes, input_dim, mode):
    net = _default_net(n_classes, input_dim)
    seed = 11 if mode == "stochastic" else None
    for x in np.random.default_rng(input_dim).random((40, input_dim)):
        batch = activations_batch(net, x[None, :], mode=mode, seed=seed)
        row = forward_capture(net, x, mode=mode, seed=seed).per_layer
        assert len(row) == len(batch) == net.depth
        for r, b in zip(row, batch):
            assert r.shape == b[0].shape
            assert r.tobytes() == b[0].tobytes()


@pytest.mark.parametrize("n_classes,input_dim", NETS)
def test_forward_pass_is_bitwise_its_matmul_form(n_classes, input_dim):
    net = _default_net(n_classes, input_dim)
    xs = np.random.default_rng(input_dim).random((40, input_dim))
    for n in (1, 2, 40):
        got = activations_batch(net, xs[:n])
        assert all(g.tobytes() == w.tobytes()
                   for g, w in zip(got, _matmul_levels(net, xs[:n]), strict=True))
    for x in xs:
        assert all(r.tobytes() == w[0].tobytes() for r, w in
                   zip(forward_row(net, x), _matmul_levels(net, x[None, :]),
                       strict=True))


@pytest.mark.parametrize("n_classes,input_dim", NETS)
def test_backprop_row_is_bitwise_the_per_layer_loop(n_classes, input_dim):
    net = _default_net(n_classes, input_dim)
    rng = np.random.default_rng(input_dim)
    for x in rng.random((40, input_dim)):
        levels = forward_row(net, x)
        # seeded at the logits, and at the softmax output for its own VJP
        for index in (net.depth - 2, net.depth - 1):
            cot = rng.normal(size=n_classes)
            want = cot
            for li in range(index - 1, -1, -1):
                want = _layer_vjp(net, li, levels, want)
            got = backprop_row(net, levels, index, cot)
            assert got.tobytes() == want.tobytes()


# --------------------------------------------------------------------------
# gradients


def test_cross_entropy_gradient_linear_analytic():
    w = np.array([[1.0, -2.0], [0.5, 0.3]])
    b = np.array([0.1, -0.4])
    net = _linear_net(w, b)
    x = np.array([0.7, 0.2])
    label = 1
    p = _softmax(w @ x + b)
    onehot = np.array([0.0, 1.0])
    expected = w.T @ (p - onehot)
    np.testing.assert_allclose(input_gradient(net, x, CrossEntropy(label)),
                               expected, rtol=1e-13)


def test_gradient_objective_validation():
    net = _linear_net(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        input_gradient(net, [0.1, 0.2], CrossEntropy(5))
    with pytest.raises(TypeError):
        input_gradient(net, [0.1, 0.2], "loss")


def test_gradient_raises_on_overflowing_forward():
    net = _linear_net(np.full((2, 2), 1e308), np.zeros(2))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericOverflowError):
            input_gradient(net, [2.0, 2.0], CrossEntropy(0))


def _overflow_cases():
    """(net, x, label) whose forward pass overflows to -inf where a later
    level hides it: behind a ReLU, and in a non-label logit the softmax
    sends to a probability of 0.  Every later level is finite."""
    huge = [[-1e308, -1e308], [0.5, 0.5]]
    relu_net = Network(
        layers=(LayerSpec("dense", 2, 2), LayerSpec("relu", 2, 2),
                LayerSpec("dense", 2, 2), LayerSpec("softmax", 2, 2)),
        weights=[np.array(huge), None, np.eye(2), None],
        biases=[np.zeros(2), None, np.zeros(2), None])
    return [(relu_net, np.array([2.0, 2.0]), 0),
            (_linear_net(huge, np.zeros(2)), np.array([2.0, 2.0]), 1)]


@pytest.mark.parametrize("case", [0, 1], ids=["relu", "softmax"])
def test_gradient_raises_on_an_overflow_a_later_level_hides(case):
    net, x, label = _overflow_cases()[case]
    with np.errstate(over="ignore", invalid="ignore"):
        levels = forward_row(net, x)
        hidden = 1 if case == 0 else net.depth - 2
        assert levels[hidden][0] == -np.inf
        assert all(np.isfinite(a).all() for a in levels[hidden + 1:])
        with pytest.raises(NumericOverflowError):
            cross_entropy_gradient(net, levels, label)
        with pytest.raises(NumericOverflowError):
            input_gradient(net, x, CrossEntropy(label))


def test_logit_jacobian_of_linear_net_is_the_weight_matrix():
    w = np.array([[1.5, -0.5], [0.2, 2.0]])
    net = _linear_net(w, np.array([1.0, -1.0]))
    np.testing.assert_allclose(logit_jacobian(net, [0.3, 0.9]), w, rtol=1e-14)


def test_backprop_rejects_misshaped_cotangent():
    net = _linear_net(np.eye(2), np.zeros(2))
    per_layer = forward_capture(net, [0.1, 0.2]).per_layer
    with pytest.raises(ShapeError):
        backprop_to_input(net, per_layer, 1, np.zeros(3))


# --------------------------------------------------------------------------
# initialization and training


def test_init_network_is_seeded_glorot_with_zero_biases():
    specs = parse_layers("dense:4,relu,dense:2,softmax", 3)
    a = init_network(specs, seed=6)
    b = init_network(specs, seed=6)
    limit0 = np.sqrt(6.0 / (3 + 4))
    assert np.all(np.abs(a.weights[0]) <= limit0)
    np.testing.assert_array_equal(a.weights[0], b.weights[0])
    np.testing.assert_array_equal(a.biases[0], np.zeros(4))
    assert a.rng_seed == 6


def test_training_learns_the_blobs(blob_net, blob_data, blob_holdout):
    features, labels = blob_holdout
    accuracy = float(np.mean(predict_batch(blob_net, features) == labels))
    assert accuracy >= 0.9


def test_training_is_deterministic(blob_data):
    specs = parse_layers("dense:4,relu,dense:2,softmax", 2)
    cfg = SgdConfig(epochs=3, learning_rate=0.2, batch_size=8, seed=5)
    a = train_sgd(blob_data.features[:64], blob_data.labels[:64], specs, cfg)
    b = train_sgd(blob_data.features[:64], blob_data.labels[:64], specs, cfg)
    for wa, wb in zip(a.weights, b.weights):
        if wa is not None:
            np.testing.assert_array_equal(wa, wb)


def test_zero_epochs_returns_the_initialization(blob_data):
    specs = parse_layers("dense:4,relu,dense:2,softmax", 2)
    cfg = SgdConfig(epochs=0, learning_rate=0.2, batch_size=8, seed=5)
    trained = train_sgd(blob_data.features[:32], blob_data.labels[:32], specs,
                        cfg)
    init = init_network(specs, seed=5)
    for wt, wi in zip(trained.weights, init.weights):
        if wt is not None:
            np.testing.assert_array_equal(wt, wi)


def _batch_loss_and_grads(net, weights, biases, xb, yb):
    """Mean cross-entropy over a batch plus parameter gradients: the plain
    per-array training step that ``train_sgd`` must match bit for bit."""
    acts = _forward_rows(net, xb, weights=weights, biases=biases)
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


def _oracle_sgd(features, labels, specs, config):
    """``train_sgd`` as one gathered batch and one update per weight and
    bias array per step."""
    xs, ys = np.asarray(features, dtype=float), np.asarray(labels)
    net = init_network(specs, config.seed)
    weights = [None if w is None else w.copy() for w in net.weights]
    biases = [None if b is None else b.copy() for b in net.biases]
    rng = np.random.default_rng(config.seed)
    for epoch in range(config.epochs):
        order = rng.permutation(xs.shape[0])
        for start in range(0, xs.shape[0], config.batch_size):
            idx = order[start:start + config.batch_size]
            loss, gw, gb = _batch_loss_and_grads(net, weights, biases,
                                                 xs[idx], ys[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch)
            for i in range(len(net.layers)):
                if gw[i] is not None:
                    weights[i] = weights[i] - config.learning_rate * gw[i]
                    biases[i] = biases[i] - config.learning_rate * gb[i]
    return weights, biases


ORACLE_NETS = [
    # (layers, n_classes, n, batch, epochs, lr, seed)
    ("default", 2, 96, 32, 3, 0.3, 1),       # dropout, batches divide n
    ("default", 3, 100, 32, 3, 0.3, 2),      # last batch holds 4 rows
    ("dense:8,relu,dense:{c},softmax", 2, 50, 16, 4, 0.2, 4),
    ("dense:8,relu,dense:6,relu,dense:{c},softmax", 3, 37, 8, 2, 0.1, 5),
    ("default", 3, 40, 32, 0, 0.3, 6),       # epochs=0: the initialization
]


@pytest.mark.parametrize("layers,n_classes,n,batch,epochs,lr,seed",
                         ORACLE_NETS)
def test_training_is_bitwise_the_per_array_step(layers, n_classes, n, batch,
                                                epochs, lr, seed):
    text = (default_layers(n_classes) if layers == "default"
            else layers.format(c=n_classes))
    specs = parse_layers(text, 5)
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(n, 5))
    ys = np.arange(n) % n_classes
    cfg = SgdConfig(epochs=epochs, learning_rate=lr, batch_size=batch,
                    seed=seed)
    net = train_sgd(xs, ys, specs, cfg)
    want_w, want_b = _oracle_sgd(xs, ys, specs, cfg)
    for got, want in zip(net.weights + net.biases, want_w + want_b,
                         strict=True):
        assert (got is None) == (want is None)
        if want is not None:
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_training_reports_the_epoch_it_diverged_in():
    # one batch per epoch: epoch 0's loss is huge but finite, and its step
    # of lr 10 overflows epoch 1's logits
    specs = parse_layers("dense:4,relu,dense:2,softmax", 2)
    xs = np.full((16, 2), 1e200)
    ys = np.arange(16) % 2
    cfg = SgdConfig(epochs=3, learning_rate=10.0, batch_size=16, seed=0)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDivergedError) as err:
            train_sgd(xs, ys, specs, cfg)
        with pytest.raises(TrainingDivergedError) as want:
            _oracle_sgd(xs, ys, specs, cfg)
    assert err.value.epoch == want.value.epoch == 1


def test_a_minus_inf_logit_outside_the_label_does_not_stop_training():
    # the loss folds the softmax in, so a -inf logit in another class costs
    # nothing; only a non-finite loss means divergence
    specs = (LayerSpec("dense", 4, 2), LayerSpec("softmax", 2, 2))
    cfg = SgdConfig(epochs=2, learning_rate=0.1, batch_size=4, seed=0)
    init = init_network(specs, cfg.seed)
    w = init.weights[0]
    across = w[0] - (w[0] @ w[1]) / (w[1] @ w[1]) * w[1]  # orthogonal to w[1]
    xs = np.tile(-1.5e308 * across / np.abs(across).max(), (8, 1))
    ys = np.ones(8, dtype=int)
    with np.errstate(over="ignore"):
        logits = activations_batch(init, xs)[1]
        assert np.all(logits[:, 0] == -np.inf)
        assert np.isfinite(logits[:, 1]).all()
        net = train_sgd(xs, ys, specs, cfg)
        want_w, want_b = _oracle_sgd(xs, ys, specs, cfg)
    assert net.weights[0].tobytes() == want_w[0].tobytes() == w.tobytes()
    assert net.biases[0].tobytes() == want_b[0].tobytes()


def test_training_input_validation(blob_data):
    specs = parse_layers("dense:4,relu,dense:2,softmax", 2)
    cfg = SgdConfig(epochs=1, learning_rate=0.1, batch_size=8, seed=0)
    with pytest.raises(ShapeError):
        train_sgd(blob_data.features[:10], blob_data.labels[:9], specs, cfg)
    with pytest.raises(ShapeError):  # (n, 1) labels broadcast in the loss
        train_sgd(blob_data.features[:10], blob_data.labels[:10, None],
                  specs, cfg)
    with pytest.raises(ShapeError):
        train_sgd(np.ones((10, 3)), np.zeros(10, dtype=int), specs, cfg)
    with pytest.raises(ValueError):
        train_sgd(blob_data.features[:10], np.full(10, 7), specs, cfg)
    with pytest.raises(ValueError, match="empty training set"):
        train_sgd(np.zeros((0, 2)), np.zeros(0, dtype=int), specs, cfg)
    with pytest.raises(ValueError):
        SgdConfig(epochs=1, learning_rate=0.0, batch_size=8, seed=0)


# --------------------------------------------------------------------------
# serialization


def test_network_round_trips_bit_exactly(tmp_path, blob_net, blob_data):
    path = tmp_path / "net.net.json"
    save_network(blob_net, path)
    loaded = load_network(path)
    assert loaded.layers == blob_net.layers
    for wa, wb in zip(loaded.weights, blob_net.weights):
        if wb is not None:
            np.testing.assert_array_equal(wa, wb)
    xs = blob_data.features[:20]
    np.testing.assert_array_equal(predict_batch(loaded, xs),
                                  predict_batch(blob_net, xs))


def test_deserialization_rejects_other_payloads():
    with pytest.raises(ValueError, match="serialized"):
        from_json_dict({"format": "something-else"})
    data = to_json_dict(_linear_net(np.eye(2), np.zeros(2)))
    assert data["format"] == "lidkit-network-v1"
