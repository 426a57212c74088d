"""Gradient, saliency, and optimizer attacks plus magnitude-matched noise."""

from dataclasses import replace

import numpy as np
import pytest

from lidkit.attacks import (ATTACK_KINDS, AttackConfig, AttackOutcome,
                            _best_pair, _lid_value_and_cotangent,
                            adaptive_opt_lid, bim_a, bim_b, fgm,
                            gaussian_l2_noise, jsma,
                            minmax_pixel_noise, opt_l2, run_attack,
                            save_attack_outcomes)
from lidkit.errors import NoDirectionError
from lidkit.microgradnet import (CrossEntropy, LayerSpec, Network,
                                 input_gradient, predict, predict_batch)
from lidkit.neighborhood import Minibatch


def _linear_net(weight, bias):
    weight = np.asarray(weight, dtype=float)
    bias = np.asarray(bias, dtype=float)
    out_dim, in_dim = weight.shape
    specs = (LayerSpec("dense", in_dim, out_dim),
             LayerSpec("softmax", out_dim, out_dim))
    return Network(layers=specs, weights=[weight, None], biases=[bias, None])


def _correct_points(net, data, count):
    """First `count` holdout rows the network classifies correctly."""
    xs, ys = data
    preds = predict_batch(net, xs)
    keep = np.flatnonzero(preds == ys)[:count]
    return xs[keep], ys[keep]


# --------------------------------------------------------------------------
# configuration


def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(kind="gan")
    with pytest.raises(ValueError):
        AttackConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        AttackConfig(max_iters=0)
    with pytest.raises(ValueError):
        AttackConfig(clip_min=1.0, clip_max=0.0)
    with pytest.raises(ValueError):
        AttackConfig(opt_c_range=(10.0, 1.0))
    with pytest.raises(ValueError):
        AttackConfig(adaptive_alpha_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        AttackConfig(adaptive_k=0)
    assert set(ATTACK_KINDS) == {"fgm", "bim_a", "bim_b", "jsma", "opt",
                                 "adaptive_opt"}


# --------------------------------------------------------------------------
# single-step and iterated gradient attacks


def test_fgm_takes_one_normalized_gradient_step():
    net = _linear_net([[2.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    x = np.array([0.6, 0.4])
    label = predict(net, x)
    cfg = AttackConfig(kind="fgm", epsilon=0.25)
    out = fgm(net, x, label, cfg)
    g = input_gradient(net, x, CrossEntropy(label))
    expected = np.clip(x + 0.25 * g / np.linalg.norm(g), 0.0, 1.0)
    np.testing.assert_allclose(out.adversarial, expected, rtol=1e-12)
    assert out.iterations_used == 1
    assert out.l2_perturbation == pytest.approx(
        float(np.linalg.norm(out.adversarial - x)))
    assert out.success == (predict(net, out.adversarial) != label)


def test_fgm_sign_step_variant():
    net = _linear_net([[2.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    x = np.array([0.6, 0.4])
    label = predict(net, x)
    cfg = AttackConfig(kind="fgm", epsilon=0.1, sign_step=True)
    out = fgm(net, x, label, cfg)
    g = input_gradient(net, x, CrossEntropy(label))
    expected = np.clip(x + 0.1 * np.sign(g), 0.0, 1.0)
    np.testing.assert_allclose(out.adversarial, expected, rtol=1e-12)


def test_zero_gradient_has_no_attack_direction():
    net = _linear_net(np.zeros((2, 2)), np.zeros(2))
    cfg = AttackConfig(kind="fgm")
    with pytest.raises(NoDirectionError):
        fgm(net, [0.5, 0.5], 0, cfg)
    with pytest.raises(NoDirectionError):
        bim_a(net, [0.5, 0.5], 0, cfg)


def test_single_iteration_bim_equals_fgm():
    net = _linear_net([[1.0, -1.0], [0.5, 2.0]], [0.1, -0.1])
    x = np.array([0.3, 0.7])
    label = predict(net, x)
    cfg = AttackConfig(kind="bim_b", epsilon=0.2, max_iters=1)
    np.testing.assert_allclose(
        bim_b(net, x, label, cfg).adversarial,
        fgm(net, x, label, AttackConfig(kind="fgm", epsilon=0.2)).adversarial,
        rtol=1e-12)


def test_iterated_attacks_respect_the_iteration_contract(blob_net,
                                                         blob_holdout):
    xs, ys = _correct_points(blob_net, blob_holdout, 6)
    cfg = AttackConfig(epsilon=0.5, max_iters=20)
    for x, y in zip(xs, ys):
        full = bim_b(blob_net, x, int(y), replace(cfg, kind="bim_b"))
        early = bim_a(blob_net, x, int(y), replace(cfg, kind="bim_a"))
        assert full.iterations_used == 20
        assert early.iterations_used <= full.iterations_used
        if early.success:
            assert predict(blob_net, early.adversarial) != int(y)
        assert np.all(early.adversarial >= 0.0)
        assert np.all(early.adversarial <= 1.0)


# --------------------------------------------------------------------------
# saliency-pair attack


def test_best_pair_prefers_the_highest_saliency_product():
    cur = np.full(3, 0.5)
    alpha = np.array([2.0, 1.0, -3.0])
    beta = np.array([-1.0, -2.0, 4.0])
    cfg = AttackConfig()
    assert _best_pair(cur, alpha, beta, cfg) == (0, 1, True)


def test_best_pair_falls_back_to_the_lower_box_edge():
    cur = np.full(2, 0.5)
    alpha = np.array([-1.0, -2.0])
    beta = np.array([2.0, 1.0])
    cfg = AttackConfig()
    assert _best_pair(cur, alpha, beta, cfg) == (0, 1, False)


def test_best_pair_skips_saturated_features():
    cur = np.array([1.0, 0.5, 0.5])  # feature 0 cannot move further up
    alpha = np.array([5.0, 1.0, 1.0])
    beta = np.array([-5.0, -1.0, -1.0])
    cfg = AttackConfig()
    assert _best_pair(cur, alpha, beta, cfg) == (1, 2, True)


def test_best_pair_returns_none_when_nothing_is_admissible():
    cur = np.full(2, 0.5)
    alpha = np.array([1.0, 1.0])
    beta = np.array([1.0, 1.0])
    assert _best_pair(cur, alpha, beta, AttackConfig()) is None


def test_saliency_attack_moves_features_to_box_edges(moons_net, moons_holdout):
    xs, ys = _correct_points(moons_net, moons_holdout, 8)
    cfg = AttackConfig(kind="jsma", max_iters=10)
    successes = 0
    for x, y in zip(xs, ys):
        out = jsma(moons_net, x, int(y), cfg)
        changed = np.flatnonzero(out.adversarial != x)
        assert np.all(np.isin(out.adversarial[changed], [0.0, 1.0]))
        assert changed.size <= 2 * out.iterations_used
        if out.success:
            successes += 1
            assert predict(moons_net, out.adversarial) != int(y)
    assert successes >= 1


# --------------------------------------------------------------------------
# optimizer attack


def test_optimizer_attack_finds_small_in_box_perturbations(blob_net,
                                                           blob_holdout):
    xs, ys = _correct_points(blob_net, blob_holdout, 5)
    cfg = AttackConfig(kind="opt", max_iters=30, seed=3)
    for x, y in zip(xs, ys):
        out = opt_l2(blob_net, x, int(y), cfg)
        assert out.success
        assert predict(blob_net, out.adversarial) != int(y)
        # the tanh parameterization can never leave the clip box
        assert np.all(out.adversarial >= 0.0)
        assert np.all(out.adversarial <= 1.0)
        assert out.l2_perturbation == pytest.approx(
            float(np.linalg.norm(out.adversarial - x)))


def test_optimizer_attack_is_seed_deterministic(blob_net, blob_holdout):
    xs, ys = _correct_points(blob_net, blob_holdout, 1)
    cfg = AttackConfig(kind="opt", max_iters=25, seed=11)
    a = opt_l2(blob_net, xs[0], int(ys[0]), cfg)
    b = opt_l2(blob_net, xs[0], int(ys[0]), cfg)
    np.testing.assert_array_equal(a.adversarial, b.adversarial)
    assert a.iterations_used == b.iterations_used


def _refs_batch(blob_data, start=0, size=40):
    rows = blob_data.features[start:start + size]
    return Minibatch(member_ids=np.arange(start, start + size), vectors=rows)


def test_detector_aware_attack_needs_enough_references(blob_net, blob_data,
                                                       blob_holdout):
    xs, ys = _correct_points(blob_net, blob_holdout, 1)
    cfg = AttackConfig(kind="adaptive_opt", max_iters=10, adaptive_k=20,
                       seed=5)
    small = _refs_batch(blob_data, size=10)
    with pytest.raises(ValueError, match="adaptive_k"):
        adaptive_opt_lid(blob_net, xs[0], int(ys[0]), small, cfg)
    with pytest.raises(ValueError, match="reference"):
        run_attack(blob_net, xs[0], int(ys[0]), cfg, refs=None)


def test_detector_aware_attack_with_collapsed_weight_range(blob_net,
                                                           blob_data,
                                                           blob_holdout):
    xs, ys = _correct_points(blob_net, blob_holdout, 1)
    cfg = AttackConfig(kind="adaptive_opt", max_iters=20, adaptive_k=10,
                       adaptive_alpha_range=(1e-3, 1e-3), seed=5)
    refs = _refs_batch(blob_data, size=40)
    out = adaptive_opt_lid(blob_net, xs[0], int(ys[0]), refs, cfg)
    # a collapsed range runs exactly one optimizer search
    assert out.iterations_used == cfg.max_iters * cfg.opt_binary_search_steps
    assert np.all(out.adversarial >= 0.0) and np.all(out.adversarial <= 1.0)


def test_lid_cotangent_matches_central_differences():
    """d(lid)/da with the k-nearest membership frozen, as the adaptive
    attack uses it; steps of 1e-6 leave the membership unchanged here."""
    rng = np.random.default_rng(12)
    for d, n, k in ((3, 25, 5), (8, 40, 12), (2, 30, 29)):
        refs = rng.standard_normal((n, d))
        a = rng.standard_normal(d) * 0.5
        lid, cot = _lid_value_and_cotangent(a, refs, k)
        assert lid > 0.0
        h = 1e-6
        numeric = np.empty(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            up, _ = _lid_value_and_cotangent(a + e, refs, k)
            down, _ = _lid_value_and_cotangent(a - e, refs, k)
            numeric[i] = (up - down) / (2 * h)
        np.testing.assert_allclose(cot, numeric, rtol=1e-5,
                                   atol=1e-7 * np.abs(numeric).max())
    # a reference at distance zero leaves the penalty unevaluable
    assert _lid_value_and_cotangent(refs[3], refs, 5) == (None, None)


def test_run_attack_dispatches_every_kind(moons_net, moons_data,
                                          moons_holdout):
    xs, ys = _correct_points(moons_net, moons_holdout, 1)
    rows = moons_data.features[:30]
    refs = Minibatch(member_ids=np.arange(30), vectors=rows)
    for kind in ATTACK_KINDS:
        cfg = AttackConfig(kind=kind, max_iters=8, adaptive_k=5, seed=2)
        out = run_attack(moons_net, xs[0], int(ys[0]), cfg, refs=refs)
        assert isinstance(out, AttackOutcome)


# --------------------------------------------------------------------------
# magnitude-matched noise


def test_gaussian_noise_hits_the_exact_magnitude_before_clipping():
    x = np.zeros(6)
    for magnitude in (1e-4, 0.3, 7.0):
        noisy = gaussian_l2_noise(x, magnitude, seed=9, clip_min=-1e9,
                                  clip_max=1e9)
        assert np.linalg.norm(noisy - x) == pytest.approx(magnitude,
                                                          abs=1e-9 * max(magnitude, 1.0))
    with pytest.raises(ValueError):
        gaussian_l2_noise(x, 0.0, seed=0)


def test_gaussian_noise_is_clipped_and_deterministic():
    x = np.full(4, 0.5)
    a = gaussian_l2_noise(x, 5.0, seed=3)
    b = gaussian_l2_noise(x, 5.0, seed=3)
    np.testing.assert_array_equal(a, b)
    assert np.all(a >= 0.0) and np.all(a <= 1.0)


def test_pixel_noise_flips_exactly_count_interior_features():
    x = np.full(10, 0.5)
    noisy = minmax_pixel_noise(x, 3, seed=4)
    changed = np.flatnonzero(noisy != x)
    assert changed.size == 3
    assert np.all(np.isin(noisy[changed], [0.0, 1.0]))
    with pytest.raises(ValueError):
        minmax_pixel_noise(x, 0, seed=0)
    # counts beyond the width are capped, not rejected
    capped = minmax_pixel_noise(x, 99, seed=1)
    assert np.all(np.isin(capped, [0.0, 1.0]))


# --------------------------------------------------------------------------
# batch output


def test_attack_outcomes_round_trip_through_csv(tmp_path):
    outcomes = [
        AttackOutcome(adversarial=np.array([0.25, 0.75]), success=True,
                      iterations_used=3, l2_perturbation=0.125),
        AttackOutcome(adversarial=np.array([0.1, 0.9]), success=False,
                      iterations_used=0, l2_perturbation=0.0),
    ]
    path = tmp_path / "attack.csv"
    save_attack_outcomes(path, [10, 11], outcomes, "fgm")
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["id", "attack_kind", "success", "iterations",
                      "l2_perturbation", "x_0", "x_1"]
    first = lines[1].split(",")
    assert first[0] == "10" and first[1] == "fgm" and first[2] == "1"
    assert float(first[4]) == 0.125
    np.testing.assert_array_equal([float(first[5]), float(first[6])],
                                  outcomes[0].adversarial)


def test_attack_outcome_writer_validation(tmp_path):
    out = AttackOutcome(adversarial=np.array([0.5]), success=True,
                        iterations_used=1, l2_perturbation=0.1)
    with pytest.raises(ValueError, match="align"):
        save_attack_outcomes(tmp_path / "a.csv", [1, 2], [out], "fgm")
    with pytest.raises(ValueError, match="nothing"):
        save_attack_outcomes(tmp_path / "b.csv", [], [], "fgm")
