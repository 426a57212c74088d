"""The single-row attack steps against their per-call reference forms.

The attacks step on ``microgradnet.forward_row`` and ``backprop_row``: one
forward per iterate, no per-step validation.  The reference below is the
per-call form they replaced, kept as the oracle: ``_bim`` ran ``predict`` and
then ``input_gradient`` on each iterate, ``jsma`` ran ``predict`` and
``logit_jacobian``, and ``_opt_descent`` ran ``activations_batch`` and
``backprop_to_input`` on ``_margin_cotangent``.  Installed over the live
functions, the reference must give bitwise-equal outcomes, and raise the
same error at the same step.  The batch entry point ``run_attacks`` is held
to per-row ``run_attack`` the same way.
"""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from lidkit import attacks, microgradnet
from lidkit.attacks import (ATTACK_KINDS, AttackConfig, run_attack,
                            run_attacks)
from lidkit.errors import (ExhaustedFeaturesError, NoDirectionError,
                           NumericOverflowError, ShapeError)
from lidkit.harness.config import parse_layers
from lidkit.harness.data import gen_synthetic
from lidkit.microgradnet import (CrossEntropy, LayerSpec, Network, SgdConfig,
                                 predict_batch, train_sgd)
from lidkit.neighborhood import Minibatch

# --------------------------------------------------------------------------
# the reference: per-call forms, each step through the public wrappers


def _levels(net, x):
    return tuple(r[0] for r in microgradnet.activations_batch(net, x[None, :]))


def ref_predict(net, x):
    return int(np.argmax(_levels(net, np.asarray(x, dtype=float))[-1]))


def ref_input_gradient(net, x, objective):
    if not isinstance(objective, CrossEntropy):
        raise TypeError(f"unknown objective {objective!r}")
    if not 0 <= objective.label < net.output_dim:
        raise ValueError("label out of range")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != net.input_dim:
        raise ShapeError("bad input shape")
    per_layer = _levels(net, x)
    for a in per_layer:
        if not np.all(np.isfinite(a)):
            raise NumericOverflowError("forward pass produced non-finite values")
    cot = per_layer[-1].copy()
    cot[objective.label] -= 1.0
    return microgradnet.backprop_to_input(net, per_layer, net.depth - 2, cot)


def ref_logit_jacobian(net, x):
    per_layer = _levels(net, np.asarray(x, dtype=float))
    n_class = net.output_dim
    rows = np.empty((n_class, net.input_dim))
    for c in range(n_class):
        cot = np.zeros(n_class)
        cot[c] = 1.0
        rows[c] = microgradnet.backprop_to_input(net, per_layer,
                                                 net.depth - 2, cot)
    return rows


def ref_bim(net, x, label, cfg, stop_early):
    x = np.asarray(x, dtype=float)
    step_size = cfg.epsilon / cfg.max_iters
    cur = x
    iterations = 0
    for _ in range(cfg.max_iters):
        g = ref_input_gradient(net, cur, CrossEntropy(label))
        norm = float(np.linalg.norm(g))
        if norm == 0.0:
            if iterations == 0:
                raise NoDirectionError("input gradient is exactly zero")
            break
        step = step_size * np.sign(g) if cfg.sign_step else step_size * g / norm
        cur = np.clip(cur + step, cfg.clip_min, cfg.clip_max)
        iterations += 1
        if stop_early and ref_predict(net, cur) != label:
            break
    return attacks._finish(net, x, label, cur, iterations)


def ref_jsma(net, x, label, cfg):
    x = np.asarray(x, dtype=float)
    probs = _levels(net, x)[-1]
    ranked = np.argsort(-probs, kind="stable")
    target = int(ranked[1] if ranked[0] == label else ranked[0])
    cur = x.copy()
    iterations = 0
    for _ in range(cfg.max_iters):
        if ref_predict(net, cur) != label:
            break
        jac = ref_logit_jacobian(net, cur)
        alpha = jac[target]
        beta = jac.sum(axis=0) - alpha
        pair = attacks._best_pair(cur, alpha, beta, cfg)
        if pair is None:
            raise ExhaustedFeaturesError(partial=cur, iterations=iterations)
        p, q, toward_max = pair
        value = cfg.clip_max if toward_max else cfg.clip_min
        cur[p] = value
        cur[q] = value
        iterations += 1
    return attacks._finish(net, x, label, cur, iterations)


def ref_margin_cotangent(logits, label):
    others = np.delete(np.arange(logits.shape[0]), label)
    runner = others[int(np.argmax(logits[others]))]
    cot = np.zeros_like(logits)
    cot[label] = 1.0
    cot[runner] = -1.0
    return cot


def ref_opt_descent(net, x, label, cfg, c, alpha, presoftmax_refs, k, w0):
    lo, hi = cfg.clip_min, cfg.clip_max
    span = hi - lo
    logits_index = net.depth - 2
    w = w0.copy()
    best = None
    for _ in range(cfg.max_iters):
        xt = lo + span * (np.tanh(w) + 1.0) / 2.0
        delta = xt - x
        per_layer = _levels(net, xt)
        logits = per_layer[logits_index]
        probs = per_layer[-1]
        margin = float(logits[label] - np.max(np.delete(logits, label)))
        pred = int(np.argmax(probs))
        lid = None
        lid_cot = None
        if alpha > 0.0:
            lid, lid_cot = attacks._lid_value_and_cotangent(
                logits, presoftmax_refs, k)
        if pred != label:
            l2 = float(np.linalg.norm(delta))
            objective = l2 ** 2 + (alpha * lid if lid is not None else 0.0)
            key = (lid is None and alpha > 0.0, objective)
            if best is None or key < best["key"]:
                best = {"key": key, "adversarial": xt.copy(), "lid": lid}
        cot = np.zeros_like(logits)
        if margin > 0.0:
            cot += c * ref_margin_cotangent(logits, label)
        if alpha > 0.0 and lid_cot is not None:
            cot += alpha * lid_cot
        grad_x = 2.0 * delta
        if np.any(cot != 0.0):
            grad_x = grad_x + microgradnet.backprop_to_input(
                net, per_layer, logits_index, cot)
        grad_w = grad_x * span * (1.0 - np.tanh(w) ** 2) / 2.0
        w -= cfg.opt_learning_rate * grad_w
    return best, cfg.max_iters


@contextmanager
def reference_steps():
    """Run the attacks on the reference steps while the block is open."""
    patches = ((attacks, "_bim", ref_bim), (attacks, "jsma", ref_jsma),
               (attacks, "_opt_descent", ref_opt_descent),
               (attacks, "input_gradient", ref_input_gradient),
               (microgradnet, "predict", ref_predict))
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, fn in patches:
            setattr(mod, name, fn)
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


def _result(net, x, label, cfg, refs=None):
    """An attack's outcome, or its error with the state the error carries."""
    try:
        out = run_attack(net, x, label, cfg, refs=refs)
    except ExhaustedFeaturesError as err:
        return ("exhausted", np.array(err.partial).tobytes(), err.iterations)
    except (NoDirectionError, NumericOverflowError) as err:
        return (type(err).__name__,)
    return ("outcome", out.adversarial.tobytes(), out.success,
            out.iterations_used, np.float64(out.l2_perturbation).tobytes())


def _both(net, x, label, cfg, refs=None):
    with reference_steps():
        expected = _result(net, x, label, cfg, refs)
    return expected, _result(net, x, label, cfg, refs)


# --------------------------------------------------------------------------
# networks and rows


@pytest.fixture(scope="module")
def three_class():
    """A 3-class net with a dropout layer, its holdout rows and references."""
    data = gen_synthetic("gaussian_blobs", 160, seed=8, classes=3, dim=5,
                         spread=0.12)
    specs = parse_layers("dense:12,relu,dropout:0.2,dense:10,relu,dense:3,"
                         "softmax", 5)
    net = train_sgd(data.features[:120], data.labels[:120], specs,
                    SgdConfig(epochs=15, learning_rate=0.3, batch_size=16,
                              seed=2))
    refs = Minibatch(member_ids=np.arange(30), vectors=data.features[:30])
    return net, data.features[120:], refs


def _linear_net(weight, bias):
    weight = np.asarray(weight, dtype=float)
    out_dim, in_dim = weight.shape
    return Network(layers=(LayerSpec("dense", in_dim, out_dim),
                           LayerSpec("softmax", out_dim, out_dim)),
                   weights=[weight, None],
                   biases=[np.asarray(bias, dtype=float), None])


_SMALL = dict(max_iters=12, opt_binary_search_steps=3, adaptive_k=6,
              adaptive_alpha_steps=2, seed=4)


@pytest.mark.parametrize("variant", [
    {},
    {"sign_step": True},
    {"clip_min": -0.25, "clip_max": 1.25},
])
def test_every_kind_matches_the_reference_bit_for_bit(three_class, variant):
    net, xs, refs = three_class
    labels = predict_batch(net, xs)
    successes = 0
    for j in range(8):
        for kind in ATTACK_KINDS:
            cfg = AttackConfig(kind=kind, epsilon=0.4, **{**_SMALL, **variant})
            cfg = replace(cfg, seed=cfg.seed + j)
            expected, got = _both(net, xs[j], int(labels[j]), cfg, refs)
            assert got == expected, (kind, j)
            successes += got[0] == "outcome" and got[2]
    assert 0 < successes < 8 * len(ATTACK_KINDS)  # both kinds of outcome


def test_two_class_opt_and_bim_match_the_reference(moons_net, moons_holdout):
    xs, ys = moons_holdout
    for j in range(6):
        for kind in ("bim_a", "bim_b", "opt", "jsma"):
            cfg = AttackConfig(kind=kind, max_iters=25, seed=j)
            expected, got = _both(moons_net, xs[j], int(ys[j]), cfg)
            assert got == expected, (kind, j)


def test_jsma_exhaustion_matches_the_reference():
    # pair (0, 1) is admissible once; after it saturates none is left
    net = _linear_net([[-1.0, -1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]],
                      [5.0, 0.0])
    x = np.array([0.2, 0.3, 0.5, 0.5])
    expected, got = _both(net, x, 0, AttackConfig(kind="jsma", max_iters=5))
    assert got == expected
    assert got[0] == "exhausted" and got[2] == 1
    # identical rows: nothing is admissible at step 0
    flat = _linear_net([[1.0, 2.0, 0.5], [1.0, 2.0, 0.5]], [1.0, 0.0])
    expected, got = _both(flat, np.full(3, 0.5), 0,
                          AttackConfig(kind="jsma", max_iters=5))
    assert got == expected
    assert got[0] == "exhausted" and got[2] == 0


def test_zero_gradient_raises_at_step_zero_like_the_reference():
    net = _linear_net(np.zeros((2, 2)), np.zeros(2))
    for kind in ("fgm", "bim_a", "bim_b"):
        expected, got = _both(net, np.array([0.5, 0.5]), 0,
                              AttackConfig(kind=kind))
        assert got == expected == ("NoDirectionError",)


def _overflow_net(behind_relu):
    """Logits (x0, 3): label 1 holds until x0 > 3, and bim's steps raise x0.

    A first-layer unit holds x0 * 1e308, which overflows once x0 passes
    1.79.  Its inf reaches the output as nan; behind a ReLU, the unit holds
    -inf instead, which the ReLU turns back into 0, so only the hidden level
    is non-finite."""
    d, s = LayerSpec("dense", 2, 2), LayerSpec("softmax", 2, 2)
    bias = np.array([0.0, 3.0])
    if not behind_relu:
        return Network(layers=(d, d, s),
                       weights=[np.array([[1e308, 0.0], [0.0, 1.0]]),
                                np.array([[1e-308, 0.0], [0.0, 0.0]]), None],
                       biases=[np.zeros(2), bias, None])
    return Network(layers=(d, LayerSpec("relu", 2, 2), d, s),
                   weights=[np.array([[-1e308, 0.0], [1.0, 0.0]]), None,
                            np.array([[0.0, 1.0], [0.0, 0.0]]), None],
                   biases=[np.zeros(2), None, bias, None])


@pytest.mark.parametrize("behind_relu", [False, True])
def test_overflow_raises_at_the_same_step_as_the_reference(behind_relu):
    """Each budget steps x0 by 0.2 from 0.5, so the first budget that
    raises pins the step; both forms agree on every budget."""
    net = _overflow_net(behind_relu)
    x = np.array([0.5, 0.5])
    raised = []
    with np.errstate(over="ignore", invalid="ignore"):
        for kind in ("bim_a", "bim_b"):
            for budget in range(1, 11):
                cfg = AttackConfig(kind=kind, epsilon=0.2 * budget,
                                   max_iters=budget, clip_max=4.0)
                expected, got = _both(net, x, 1, cfg)
                assert got == expected, (kind, budget)
                if got == ("NumericOverflowError",):
                    raised.append((kind, budget))
    assert ("bim_b", 7) not in raised and ("bim_b", 8) in raised


# --------------------------------------------------------------------------
# the batch entry point against per-row run_attack


def _bits(out):
    return (out.adversarial.tobytes(), out.success, out.iterations_used,
            np.float64(out.l2_perturbation).tobytes())


def test_run_attacks_is_run_attack_per_row_at_seed_plus_j(three_class):
    net, xs, refs = three_class
    xs = xs[:6]
    labels = predict_batch(net, xs)
    for kind in ATTACK_KINDS:
        cfg = AttackConfig(kind=kind, epsilon=0.4, **_SMALL)
        outcomes, reasons = run_attacks(net, xs, labels, cfg, refs=refs)
        assert reasons == [None] * len(xs)
        for j, out in enumerate(outcomes):
            row_cfg = replace(cfg, seed=cfg.seed + j)
            want = run_attack(net, xs[j], int(labels[j]), row_cfg, refs=refs)
            assert _bits(out) == _bits(want), (kind, j)
        if kind == "opt":  # the row seed reaches the attack
            unseeded = [run_attack(net, x, int(y), cfg)
                        for x, y in zip(xs, labels)]
            assert any(_bits(a) != _bits(b)
                       for a, b in zip(outcomes[1:], unseeded[1:]))


def test_run_attacks_turns_a_zero_gradient_into_a_failed_outcome():
    net = _linear_net(np.zeros((2, 2)), np.zeros(2))
    xs = np.array([[0.5, 0.5], [0.2, 0.7]])
    for kind in ("fgm", "bim_a", "bim_b"):
        outcomes, reasons = run_attacks(net, xs, [0, 0],
                                        AttackConfig(kind=kind))
        assert reasons == ["zero input gradient"] * 2
        for x, out in zip(xs, outcomes):
            assert _bits(out) == (x.tobytes(), False, 0,
                                  np.float64(0.0).tobytes())


def test_run_attacks_keeps_an_exhausted_saliency_attacks_partial_iterate():
    net = _linear_net([[-1.0, -1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]],
                      [5.0, 0.0])
    x = np.array([0.2, 0.3, 0.5, 0.5])
    cfg = AttackConfig(kind="jsma", max_iters=5)
    with pytest.raises(ExhaustedFeaturesError) as caught:
        run_attack(net, x, 0, cfg)
    partial = np.asarray(caught.value.partial, dtype=float)
    (out,), reasons = run_attacks(net, x[None, :], [0], cfg)
    assert reasons == ["exhausted feature pairs"]
    assert _bits(out) == (partial.tobytes(), False, caught.value.iterations,
                          np.float64(np.linalg.norm(partial - x)).tobytes())
    assert not np.array_equal(partial, x)


def test_run_attacks_on_two_threads_matches_one(three_class):
    net, xs, refs = three_class
    labels = predict_batch(net, xs[:6])
    for kind in ATTACK_KINDS:
        cfg = AttackConfig(kind=kind, epsilon=0.4, **_SMALL)
        runs = [run_attacks(net, xs[:6], labels, cfg, refs=refs,
                            workers=workers) for workers in (1, 2)]
        assert runs[0][1] == runs[1][1]
        assert ([_bits(o) for o in runs[0][0]]
                == [_bits(o) for o in runs[1][0]]), kind


def test_run_attacks_rejects_misaligned_labels(three_class):
    net, xs, _ = three_class
    with pytest.raises(ShapeError):
        run_attacks(net, xs[:3], [0, 1], AttackConfig(kind="fgm"))


# --------------------------------------------------------------------------
# the wrappers that now run on the row kernels


def test_wrappers_match_their_reference_forms(three_class):
    net, xs, _ = three_class
    for x in xs[:10]:
        for label in range(3):
            np.testing.assert_array_equal(
                microgradnet.input_gradient(net, x, CrossEntropy(label)),
                ref_input_gradient(net, x, CrossEntropy(label)))
        np.testing.assert_array_equal(microgradnet.logit_jacobian(net, x),
                                      ref_logit_jacobian(net, x))
        assert microgradnet.predict(net, x) == ref_predict(net, x)
        for mode, seed in (("deterministic", None), ("stochastic", 3)):
            stack = microgradnet.forward_capture(net, x, mode, seed)
            rows = microgradnet.activations_batch(net, x[None, :], mode, seed)
            for got, want in zip(stack.per_layer, rows, strict=True):
                np.testing.assert_array_equal(got, want[0])
