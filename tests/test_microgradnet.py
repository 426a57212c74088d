"""Forward, backward, training, and serialization of the layered classifier."""

import numpy as np
import pytest

from lidkit.errors import NumericOverflowError, ShapeError
from lidkit.harness.config import default_layers, parse_layers
from lidkit.microgradnet import (CrossEntropy, LayerSpec, Network, SgdConfig,
                                 activations_batch, backprop_row,
                                 backprop_to_input, forward_capture,
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


def test_training_input_validation(blob_data):
    specs = parse_layers("dense:4,relu,dense:2,softmax", 2)
    cfg = SgdConfig(epochs=1, learning_rate=0.1, batch_size=8, seed=0)
    with pytest.raises(ShapeError):
        train_sgd(blob_data.features[:10], blob_data.labels[:9], specs, cfg)
    with pytest.raises(ShapeError):
        train_sgd(np.ones((10, 3)), np.zeros(10, dtype=int), specs, cfg)
    with pytest.raises(ValueError):
        train_sgd(blob_data.features[:10], np.full(10, 7), specs, cfg)
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
