"""Feature matrices, logistic-regression detectors, and ranking evaluation."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidkit import detector, neighborhood
from lidkit.attacks import AttackConfig
from lidkit.characteristics import BuConfig, KdConfig, kernel_density, mle_lid
from lidkit.detector import (FEATURE_KINDS, FeatureMatrix, _cv_auc,
                             adaptive_failure_rate, auc, extract_features,
                             features_from, features_sweep, held_out_auc,
                             layerwise_auc,
                             lid_feature_row, load_detector,
                             load_feature_matrix, prepare_batch,
                             save_detector, save_feature_matrix, score,
                             select_kind, train_detector, train_detectors,
                             transfer_evaluate, tune_parameter)
from lidkit.errors import (ConvergenceWarning, DegenerateProfileError,
                           EmptyPositiveClassError, ParseError, ShapeError)
from lidkit.microgradnet import (LayerSpec, Network, activations_batch,
                                 forward_capture, predict_batch)
from lidkit.neighborhood import (Minibatch, distances_to, knn_profile,
                                 squared_distances)


def _fm(features, labels, provenance, kind="lid"):
    return FeatureMatrix(features=np.asarray(features, dtype=float),
                         labels=np.asarray(labels, dtype=int),
                         provenance=tuple(provenance), feature_kind=kind)


def _sigmoid(t):
    return 1.0 / (1.0 + np.exp(-t))


# --------------------------------------------------------------------------
# feature-matrix container


def test_feature_matrix_ties_labels_to_provenance():
    with pytest.raises(ValueError, match="adversarial"):
        _fm([[1.0], [2.0]], [1, 0], ("normal", "noisy"))
    with pytest.raises(ValueError, match="adversarial"):
        _fm([[1.0]], [0], ("adversarial",))
    with pytest.raises(ValueError, match="provenance"):
        _fm([[1.0]], [0], ("benign",))


def test_feature_matrix_names_the_first_bad_row():
    # unknown provenance is checked before the label of the same row
    with pytest.raises(ValueError, match="^unknown provenance 'stolen'$"):
        _fm([[1.0]] * 3, [0, 1, 1], ("normal", "stolen", "adversarial"))
    with pytest.raises(ValueError, match="^unknown provenance None$"):
        _fm([[1.0]] * 2, [1, 0], (None, "noisy"))
    with pytest.raises(ValueError, match="^positive labels must be exactly "
                                         "the adversarial rows$"):
        _fm([[1.0]] * 3, [1, 0, 0], ("noisy", "stolen", "normal"))
    fm = _fm([[1.0]] * 3, [0, 1, 0], ("noisy", "adversarial", "normal"))
    assert fm.provenance == ("noisy", "adversarial", "normal")


def test_feature_matrix_shape_and_value_checks():
    with pytest.raises(ShapeError):
        _fm([[1.0], [2.0]], [0], ("normal", "noisy"))
    with pytest.raises(ValueError, match="finite"):
        _fm([[np.nan]], [0], ("normal",))
    with pytest.raises(ValueError, match="kind"):
        _fm([[1.0]], [0], ("normal",), kind="entropy")
    fm = _fm([[1.0]], [0], ("normal",))
    assert len(fm) == 1
    with pytest.raises(ValueError):
        fm.features[0, 0] = 2.0


def test_combined_matrix_slices_into_named_kinds():
    # three activation levels: columns are lid 0-2, kd 3-5, then one bu column
    rows = np.array([[0, 1, 2, 3, 4, 5, 6],
                     [10, 11, 12, 13, 14, 15, 16]], dtype=float)
    fm = _fm(rows, [0, 1], ("normal", "adversarial"), kind="combined")
    np.testing.assert_array_equal(select_kind(fm, "lid").features,
                                  rows[:, 0:3])
    np.testing.assert_array_equal(select_kind(fm, "kd").features,
                                  rows[:, 3:6])
    np.testing.assert_array_equal(select_kind(fm, "bu").features,
                                  rows[:, 6:7])
    # kd_bu = the pre-softmax level's density plus the uncertainty column
    np.testing.assert_array_equal(select_kind(fm, "kd_bu").features,
                                  rows[:, [4, 6]])
    assert select_kind(fm, "combined") is fm


def test_select_kind_validation():
    lid_only = _fm([[1.0]], [0], ("normal",))
    with pytest.raises(ValueError, match="combined"):
        select_kind(lid_only, "lid")
    four_col = _fm(np.ones((1, 4)), [0], ("normal",), kind="combined")
    with pytest.raises(ShapeError):
        select_kind(four_col, "lid")
    ok = _fm(np.ones((1, 7)), [0], ("normal",), kind="combined")
    with pytest.raises(ValueError, match="kind"):
        select_kind(ok, "entropy")


def test_feature_matrix_round_trips_through_csv(tmp_path):
    rng = np.random.default_rng(6)
    fm = _fm(rng.standard_normal((5, 3)), [0, 0, 0, 1, 1],
             ("normal", "normal", "noisy", "adversarial", "adversarial"))
    path = tmp_path / "features.csv"
    save_feature_matrix(fm, path)
    loaded = load_feature_matrix(path, "lid")
    np.testing.assert_array_equal(loaded.features, fm.features)
    np.testing.assert_array_equal(loaded.labels, fm.labels)
    assert loaded.provenance == fm.provenance
    # the header records the kind, which the loader reads back or checks
    save_feature_matrix(_fm(fm.features[:, :2], fm.labels, fm.provenance,
                            "kd_bu"), path)
    assert path.read_text().startswith("kd_bu_0,kd_bu_1,label,provenance")
    assert load_feature_matrix(path).feature_kind == "kd_bu"
    with pytest.raises(ParseError, match="holds kd_bu features, not kd"):
        load_feature_matrix(path, "kd")
    path.write_text("feature_0,label,provenance\n0.5,0,normal\n")
    with pytest.raises(ParseError, match="no one feature kind"):
        load_feature_matrix(path, "lid")


# --------------------------------------------------------------------------
# detector training and scoring


def _separable():
    return _fm([[0.0], [0.1], [1.0], [1.1]], [0, 0, 1, 1],
               ("normal", "noisy", "adversarial", "adversarial"))


def test_detector_separates_separable_features():
    model = train_detector(_separable(), training_attack="fgm")
    assert held_out_auc(model, _separable()) == 1.0
    assert model.training_attack == "fgm"
    assert model.feature_kind == "lid"


def test_detector_needs_both_classes():
    fm = _fm([[0.0], [1.0]], [0, 0], ("normal", "noisy"))
    with pytest.raises(ValueError, match="both classes"):
        train_detector(fm)


def test_detector_drops_constant_columns_with_a_warning():
    fm = _fm([[5.0, 0.0], [5.0, 0.2], [5.0, 1.0], [5.0, 1.2]], [0, 0, 1, 1],
             ("normal", "noisy", "adversarial", "adversarial"))
    with pytest.warns(UserWarning, match="zero-variance"):
        model = train_detector(fm)
    assert model.kept_features == (1,)
    constant = _fm([[3.0], [3.0]], [0, 1], ("normal", "adversarial"))
    with pytest.warns(UserWarning, match="zero-variance"):
        with pytest.raises(ValueError, match="variance"):
            train_detector(constant)


def test_scores_use_the_frozen_training_scaler():
    fm = _separable()
    model = train_detector(fm)
    raw = fm.features
    np.testing.assert_array_equal(model.feature_mean, raw.mean(axis=0))
    np.testing.assert_array_equal(model.feature_std, raw.std(axis=0))
    test = np.array([[0.4], [2.0]])
    z = (test - model.feature_mean) / model.feature_std
    expected = _sigmoid(z @ model.weights + model.bias)
    np.testing.assert_allclose(score(model, test), expected, rtol=1e-12)


def test_score_shape_validation():
    model = train_detector(_separable())
    with pytest.raises(ShapeError):
        score(model, np.ones(3))
    wide = _fm(np.hstack([_separable().features] * 2), [0, 0, 1, 1],
               ("normal", "noisy", "adversarial", "adversarial"), kind="kd")
    narrow_model = train_detector(wide)
    with pytest.raises(ShapeError):
        score(narrow_model, np.ones((2, 1)))


def test_detector_round_trips_through_json(tmp_path):
    model = train_detector(_separable(), training_attack="opt")
    path = tmp_path / "detector.json"
    save_detector(model, path)
    loaded = load_detector(path)
    np.testing.assert_array_equal(loaded.weights, model.weights)
    assert loaded.bias == model.bias
    np.testing.assert_array_equal(loaded.feature_mean, model.feature_mean)
    assert loaded.kept_features == model.kept_features
    assert loaded.training_attack == "opt"
    path.write_text('{"format": "other"}')
    with pytest.raises(ValueError, match="serialized"):
        load_detector(path)


def test_shuffled_labels_score_near_chance():
    rng = np.random.default_rng(0)
    features = rng.standard_normal((200, 3))
    labels = rng.integers(0, 2, 200)
    prov = tuple("adversarial" if y else "normal" for y in labels)
    train = _fm(features[:100], labels[:100], prov[:100])
    test = _fm(features[100:], labels[100:], prov[100:])
    model = train_detector(train)
    assert abs(held_out_auc(model, test) - 0.5) <= 0.1


def _newton_oracle(features, epochs, lr):
    """The scalar fit that ``train_detectors`` stacks: standardize, then
    ridge-penalised Newton on one matrix alone, in 2-D arithmetic.  Returns
    (weights, bias, kept, mean, std, iterations, converged)."""
    y = features.labels
    raw = features.features
    mean, std = raw.mean(axis=0), raw.std(axis=0)
    kept = np.flatnonzero(std > 0.0)
    z = (raw[:, kept] - mean[kept]) / std[kept]
    x = np.hstack([z, np.ones((z.shape[0], 1))])
    width = kept.size
    beta = np.zeros(width + 1)
    iterations, converged = 0, False
    for _ in range(epochs):
        p = 1.0 / (1.0 + np.exp(-np.clip(x @ beta, -35.0, 35.0)))
        grad = x.T @ (p - y)
        grad[:width] += detector.PENALTY * beta[:width]
        hess = x.T @ (x * (p * (1.0 - p))[:, None])
        hess[np.arange(width), np.arange(width)] += detector.PENALTY
        step = np.linalg.solve(hess, grad)
        beta -= lr * step
        iterations += 1
        if np.abs(step).max() < detector.STEP_TOL:
            converged = True
            break
    return (beta[:width], beta[width], tuple(kept.tolist()), mean[kept],
            std[kept], iterations, converged)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@st.composite
def _fit_inputs(draw):
    """1-4 matrices over two row counts and up to three columns, some
    constant; class shifts from none to separable."""
    rows = draw(st.sampled_from([(6, 9), (8, 8), (12, 5)]))
    matrices = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.sampled_from(rows))
        width = draw(st.integers(1, 3))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        labels = (rng.permutation(n) < draw(st.integers(1, n - 1))).astype(int)
        shift = draw(st.sampled_from([0.0, 0.3, 1.0, 6.0]))
        features = rng.standard_normal((n, width)) + shift * labels[:, None]
        constant = draw(st.lists(st.booleans(), min_size=width,
                                 max_size=width))
        if all(constant):
            constant[0] = False
        features[:, constant] = 2.5
        prov = ["normal" if y == 0 else "adversarial" for y in labels]
        matrices.append(_fm(features, labels, prov))
    return matrices


@settings(max_examples=30, deadline=None)
@given(matrices=_fit_inputs(), epochs=st.sampled_from([0, 1, 100]),
       lr=st.sampled_from([1.0, 0.5]))
def test_stacked_fits_equal_the_scalar_descent_bitwise(matrices, epochs, lr):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        models = train_detectors(matrices, epochs=epochs, lr=lr,
                                 training_attack="bim_a")
    capped = {w.message.index for w in caught
              if issubclass(w.category, ConvergenceWarning)}
    assert len(models) == len(matrices)
    for i, (fm, model) in enumerate(zip(matrices, models)):
        w, b, kept, mean, std, _, converged = _newton_oracle(fm, epochs, lr)
        assert _bits(model.weights) == _bits(w)
        assert _bits(model.bias) == _bits(b)
        assert model.kept_features == kept
        assert _bits(model.feature_mean) == _bits(mean)
        assert _bits(model.feature_std) == _bits(std)
        assert model.training_attack == "bim_a"
        assert (i in capped) == (not converged)
    if epochs == 100:
        assert not capped


def _penalised_gradient(model, fm):
    """Gradient of the summed log-loss plus PENALTY/2 |w|^2 at the model."""
    z = ((fm.features[:, list(model.kept_features)] - model.feature_mean)
         / model.feature_std)
    residual = _sigmoid(z @ model.weights + model.bias) - fm.labels
    return np.append(z.T @ residual + detector.PENALTY * model.weights,
                     residual.sum())


def test_stacked_fits_stop_on_their_own_and_raise_as_before():
    # separable classes have no finite unpenalised optimum; the penalty
    # gives them one, and Newton reaches it
    rng = np.random.default_rng(3)
    labels = np.repeat([0, 1], 20)
    prov = ["normal"] * 20 + ["adversarial"] * 20
    noisy = _fm(rng.standard_normal((40, 2)) + 0.2 * labels[:, None],
                labels, prov)
    separable = _fm(rng.standard_normal((40, 2)) + 8.0 * labels[:, None],
                    labels, prov)
    matrices = [separable, noisy, _separable()]
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        models = train_detectors(matrices, epochs=50)
    for fm, model in zip(matrices, models):
        w, b, _, _, _, iterations, converged = _newton_oracle(fm, 50, 1.0)
        assert converged and iterations < 50
        assert _bits(model.weights) == _bits(w)
        assert _bits(model.bias) == _bits(b)
        assert np.all(np.isfinite(model.weights))
        assert np.abs(_penalised_gradient(model, fm)).max() < 1e-8
    assert held_out_auc(models[0], separable) == 1.0

    single_class = _fm([[0.0], [1.0]], [0, 0], ("normal", "noisy"))
    with pytest.raises(ValueError, match="both classes"):
        train_detectors([noisy, single_class])
    constant = _fm([[3.0], [3.0]], [0, 1], ("normal", "adversarial"))
    with pytest.warns(UserWarning, match="zero-variance"):
        with pytest.raises(ValueError, match="all features have zero variance"):
            train_detectors([noisy, constant])


def test_fits_warn_with_their_index_when_they_stop_at_the_cap():
    noisy = _fm([[0.0], [0.3], [1.0], [0.2], [0.9]], [0, 0, 1, 1, 0],
                ("normal", "noisy", "adversarial", "adversarial", "normal"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        train_detectors([_separable(), noisy], epochs=1)
    assert all(w.category is ConvergenceWarning for w in caught)
    assert sorted(str(w.message) for w in caught) == [
        f"detector fit {i} stopped at the cap of 1 Newton iterations before "
        f"converging" for i in (0, 1)]


def test_detector_settings_are_checked():
    for lr in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="lr must lie in"):
            train_detectors([_separable()], lr=lr)
    with pytest.raises(ValueError, match="epochs must be at least 0"):
        train_detectors([_separable()], epochs=-1)
    with pytest.warns(ConvergenceWarning):
        zero = train_detector(_separable(), epochs=0)
    assert not zero.weights.any() and zero.bias == 0.0


# --------------------------------------------------------------------------
# ranking measures


def test_auc_known_values():
    assert auc([0.9, 0.4], [0.5, 0.1]) == 0.75
    assert auc([1.0, 1.0], [1.0, 0.0]) == 0.75  # one tie counts one half
    assert auc([2.0, 3.0], [0.0, 1.0]) == 1.0
    assert auc([0.0], [1.0]) == 0.0
    with pytest.raises(ValueError):
        auc([], [1.0])


def test_auc_complement_symmetry():
    rng = np.random.default_rng(8)
    pos = rng.integers(0, 5, 20) / 4.0
    neg = rng.integers(0, 5, 30) / 4.0
    assert auc(pos, neg) + auc(neg, pos) == 1.0


def test_auc_equals_exhaustive_pair_counting():
    rng = np.random.default_rng(9)
    for _ in range(5):
        p, n = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        pool = rng.integers(0, 12, p + n) / 3.0
        pos, neg = pool[:p], pool[p:]
        pairs = sum(float(np.sum(a > neg)) + 0.5 * float(np.sum(a == neg))
                    for a in pos)
        assert auc(pos, neg) == pairs / (p * n)


def test_transfer_requires_matching_feature_kinds():
    model = train_detector(_separable())
    other = _fm([[0.0], [1.0]], [0, 1], ("normal", "adversarial"), kind="kd")
    with pytest.raises(ValueError, match="kinds differ"):
        transfer_evaluate(model, other)


def test_layerwise_auc_scores_each_column_alone():
    features = np.array([[0.0, 1.0, 0.0],
                         [0.0, 0.2, 0.1],
                         [0.0, 0.9, 0.9],
                         [0.0, 0.1, 1.0]])
    fm = _fm(features, [0, 0, 1, 1],
             ("normal", "noisy", "adversarial", "adversarial"))
    result = layerwise_auc(fm)
    assert [level for level, _ in result] == [0, 1, 2]
    assert result[0][1] == 0.5  # constant column: every comparison ties
    assert result[2][1] == 1.0  # last column separates perfectly


def test_cross_validation_rejects_single_class_folds():
    fm = _fm(np.arange(12.0).reshape(6, 2), [1, 0, 0, 0, 0, 0],
             ("adversarial", "normal", "normal", "normal", "noisy", "noisy"))
    with pytest.raises(ValueError, match="degenerate folds"):
        _cv_auc([fm], folds=3, seed=0)


# --------------------------------------------------------------------------
# end-to-end feature extraction


@pytest.fixture(scope="module")
def moons_batch(moons_data):
    return Minibatch(member_ids=np.arange(30),
                     vectors=moons_data.features[:30])


def test_extracted_features_have_block_structure(moons_net, moons_batch):
    cfg = AttackConfig(kind="fgm", epsilon=0.5, seed=100)
    art = prepare_batch(moons_net, moons_batch, cfg, seed=500)
    n_success = int(art.success.sum())
    assert n_success >= 1
    fm = features_from(art, "lid", k=10)
    depth = moons_net.depth
    assert fm.features.shape == (60 + n_success, depth)
    assert fm.provenance[:30] == ("normal",) * 30
    assert fm.provenance[30:60] == ("noisy",) * 30
    assert fm.provenance[60:] == ("adversarial",) * n_success
    np.testing.assert_array_equal(fm.labels[:60], np.zeros(60, dtype=int))
    np.testing.assert_array_equal(fm.labels[60:], np.ones(n_success, dtype=int))
    combined = features_from(art, "combined", k=10,
                             kd=KdConfig(bandwidth_sigma=0.5),
                             bu=BuConfig(num_runs=4, base_seed=1))
    assert combined.features.shape[1] == 2 * depth + 1
    pair = features_from(art, "kd_bu", k=10,
                         kd=KdConfig(bandwidth_sigma=0.5),
                         bu=BuConfig(num_runs=4, base_seed=1))
    assert pair.features.shape[1] == 2


def test_extraction_is_seed_reproducible(moons_net, moons_batch):
    cfg = AttackConfig(kind="fgm", epsilon=0.5, seed=100)
    a = extract_features(moons_net, moons_batch, cfg, k=10,
                         feature_kind="lid", seed=500)
    b = extract_features(moons_net, moons_batch, cfg, k=10,
                         feature_kind="lid", seed=500)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.provenance == b.provenance


def test_saliency_noise_counterparts_move_features_to_extremes(moons_net,
                                                               moons_batch):
    cfg = AttackConfig(kind="jsma", max_iters=12, seed=100)
    art = prepare_batch(moons_net, moons_batch, cfg, seed=321)
    for j in range(len(moons_batch)):
        changed = art.noisy[j] != moons_batch.vectors[j]
        assert np.all(np.isin(art.noisy[j][changed], [0.0, 1.0]))


def test_unmoved_batch_has_no_positive_class(moons_batch):
    specs = (LayerSpec("dense", 6, 2), LayerSpec("softmax", 2, 2))
    flat_net = Network(layers=specs, weights=[np.zeros((2, 6)), None],
                       biases=[np.zeros(2), None])
    cfg = AttackConfig(kind="fgm", epsilon=0.5, seed=0)
    with pytest.raises(EmptyPositiveClassError, match="moved"):
        prepare_batch(flat_net, moons_batch, cfg, seed=7)


def test_failed_attacks_keep_negative_rows_only(moons_net, moons_batch):
    # a step this small moves every input but flips none of them
    cfg = AttackConfig(kind="fgm", epsilon=1e-8, seed=100)
    art = prepare_batch(moons_net, moons_batch, cfg, seed=11)
    assert not art.success.any()
    with pytest.raises(EmptyPositiveClassError):
        features_from(art, "lid", k=10)


def _widest(net):
    return max(max(spec.in_dim, spec.out_dim) for spec in net.layers)


def _assert_within_kernel_bound(got, want, kind, width):
    """LID or KD values against their single-query oracle, under the
    distance kernel's contract: the same zeros, and otherwise what its
    relative bound on a squared distance, rel = (2d + 4) u / GRAM_TOL,
    allows.  A distance moves by at most rel / 2 relative, so an LID
    estimate k / |sum log(r_i / r_k)| moves by at most rel * LID^2 to first
    order; the factor 2 leaves room for second-order terms and the oracle's
    own rounding.  A KD affinity exp(-x) moves by at most x e^-x rel <=
    rel / e absolutely, and so does a mean of them."""
    rel = (2 * width + 4) * 2.0 ** -53 / neighborhood.GRAM_TOL
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    tol = 2 * rel * want ** 2 if kind == "lid" else rel
    assert np.all(np.abs(got - want) <= tol)


def test_single_example_feature_row_matches_profile_math(moons_net,
                                                         moons_data):
    refs = Minibatch(member_ids=np.arange(40, 80),
                     vectors=moons_data.features[40:80])
    ref_levels = activations_batch(moons_net, refs.vectors)
    xs = moons_data.features[[5, 90]]
    for k in (8, 2, 40):
        rows = lid_feature_row(moons_net, xs, refs, k=k)
        assert rows.shape == (len(xs), moons_net.depth)
        for x, row in zip(xs, rows):
            alone = lid_feature_row(moons_net, x[None], refs, k=k)
            assert alone.shape == (1, moons_net.depth)
            want = np.array([mle_lid(knn_profile(q, Minibatch(
                member_ids=np.arange(40), vectors=ref_levels[i]), k)).value
                for i, q in enumerate(forward_capture(moons_net, x).per_layer)])
            for got in (row, alone[0]):
                _assert_within_kernel_bound(got, want, "lid",
                                            _widest(moons_net))
    # held-out rows never exclude: an example inside the reference batch
    # meets itself at distance zero
    with pytest.raises(DegenerateProfileError):
        lid_feature_row(moons_net, moons_data.features[41:42], refs, k=8)


def _oracle_features(art, kind, k, kd, reference):
    """features_from through the single-query knn_profile + mle_lid and
    kernel_density, one query, level and source at a time."""
    if reference is None:
        ref_levels, ref_pred = art.levels["normal"], art.preds["normal"]
    else:
        ref_levels = activations_batch(art.net, reference.vectors)
        ref_pred = np.argmax(ref_levels[-1], axis=1)
    blocks = {}
    for source in ("normal", "noisy", "adversarial"):
        exclude = reference is None and source == "normal"
        block = np.zeros((len(art.batch), art.net.depth))
        for i, (level, r) in enumerate(zip(art.levels[source], ref_levels)):
            refs = Minibatch(member_ids=np.arange(len(r)), vectors=r)
            for j, q in enumerate(level):
                if kind == "lid":
                    prof = knn_profile(q, refs, k, exclude_self=exclude)
                    block[j, i] = mle_lid(prof).value
                    continue
                keep = ref_pred == art.preds[source][j]
                if exclude:
                    keep &= distances_to(q, refs) > 0.0
                if keep.any():
                    block[j, i] = kernel_density(q, r[keep], kd)
        blocks[source] = block
    return np.vstack([blocks["normal"], blocks["noisy"],
                      blocks["adversarial"][art.success]])


def _class0_reference(net, data):
    """Only class-0 references, so class-1 queries have none: KD 0.0."""
    pool = np.arange(100, 160)
    ids = pool[predict_batch(net, data.features[pool]) == 0]
    return Minibatch(member_ids=ids, vectors=data.features[ids])


@pytest.mark.parametrize("kind", ["lid", "kd"])
@pytest.mark.parametrize("mode", ["train", "heldout"])
def test_batch_features_equal_single_query_oracles(kind, mode, moons_net,
                                                   moons_data, moons_batch):
    art = prepare_batch(moons_net, moons_batch,
                        AttackConfig(kind="fgm", epsilon=0.5, seed=100),
                        seed=500)
    reference = (_class0_reference(moons_net, moons_data)
                 if mode == "heldout" else None)
    kd = KdConfig(bandwidth_sigma=0.3)
    got = features_from(art, kind, 7, kd=kd, reference=reference).features
    want = _oracle_features(art, kind, 7, kd, reference)
    _assert_within_kernel_bound(got, want, kind, _widest(moons_net))
    if kind == "kd" and mode == "heldout":
        assert np.any(got == 0.0)


def _kd_row_loop(sq, pred, ref_pred, sigma, exclude):
    """KD one query row at a time: the mean over the row's kept affinities."""
    keep = pred[:, None] == ref_pred
    if exclude:
        keep &= sq > 0.0
    affinity = np.exp(-sq / sigma ** 2)
    out = np.zeros(sq.shape[0])
    for j in np.flatnonzero(keep.any(axis=1)):
        out[j] = affinity[j, keep[j]].mean()
    return out


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("mode", ["train", "heldout"])
def test_kd_class_blocks_equal_the_per_row_mean(seed, mode):
    rng = np.random.default_rng(seed)
    refs = rng.integers(0, 4, (40, 3)) * 0.1  # grid points: duplicate rows
    refs = np.vstack([refs, refs[:4], [[9.0, 9.0, 9.0]]])
    # the class is a function of the point, so duplicates share one; the
    # last point is alone in class 4
    ref_pred = np.rint(refs.sum(axis=1) * 10).astype(int) % 4
    ref_pred[-1] = 4
    if mode == "train":
        queries, pred = refs, ref_pred
    else:  # a class 5 no reference has, and queries that sit on references
        queries = np.vstack([rng.random((20, 3)), refs[:5]])
        pred = np.concatenate([rng.integers(0, 6, 20), ref_pred[:5]])
    sq = squared_distances(queries, refs)
    kds = [KdConfig(bandwidth_sigma=s) for s in (0.05, 0.3, 2.0)]
    got = detector._kd_columns(sq, pred, ref_pred, kds, mode == "train")
    for v, kd in enumerate(kds):
        want = _kd_row_loop(sq, pred, ref_pred, kd.bandwidth_sigma,
                            mode == "train")
        assert got[v].tobytes() == want.tobytes()
    same = pred[:, None] == ref_pred
    if mode == "train":
        # rows with a duplicate drop two or more zeros; the lone row keeps none
        assert (((sq == 0.0) & same).sum(axis=1) >= 2).any()
        assert np.all(got[:, -1] == 0.0)
    else:
        assert np.all(got[:, pred == 5] == 0.0)
        assert ((sq == 0.0) & same).any()  # zero distances are kept
    assert np.all(got[:, same.any(axis=1) & (pred != 4)] > 0.0)


@pytest.fixture(scope="module")
def fgm_art(moons_net, moons_batch):
    return prepare_batch(moons_net, moons_batch,
                         AttackConfig(kind="fgm", epsilon=0.5, seed=100),
                         seed=500)


def _with_duplicate(draw, values):
    """``values`` plus a copy of one of them at a drawn position."""
    values = list(values)
    values.insert(draw(st.integers(0, len(values))),
                  values[draw(st.integers(0, len(values) - 1))])
    return values


@settings(max_examples=20, deadline=None)
@given(data=st.data(), mode=st.sampled_from(["train", "heldout"]))
def test_sweep_blocks_equal_features_from_and_the_oracles(data, mode,
                                                          fgm_art, moons_net,
                                                          moons_data):
    art = fgm_art
    reference = (_class0_reference(moons_net, moons_data)
                 if mode == "heldout" else None)
    # every neighbour a row has: the whole reference, or the batch less
    # the row itself (the moons batch has no duplicate activations)
    widest = len(art.batch) - 1 if reference is None else len(reference)
    # k = 1 is a one-distance profile, whose LID is infinite
    ks = data.draw(st.lists(st.integers(2, widest), min_size=1, max_size=4))
    ks = _with_duplicate(data.draw, ks + [widest])
    sigmas = _with_duplicate(data.draw, data.draw(st.lists(
        st.floats(0.05, 5.0), min_size=1, max_size=3)))
    swept = features_sweep(art, "lid", ks, reference=reference)
    assert len(swept) == len(ks)
    for k, fm in zip(ks, swept):
        one = features_from(art, "lid", k, reference=reference)
        assert fm.features.tobytes() == one.features.tobytes()
        assert fm.provenance == one.provenance
        want = _oracle_features(art, "lid", k, None, reference)
        _assert_within_kernel_bound(fm.features, want, "lid",
                                    _widest(moons_net))
    swept = features_sweep(art, "kd", [ks[0]], sigmas, reference=reference)
    assert len(swept) == len(sigmas)
    for sigma, fm in zip(sigmas, swept):
        kd = KdConfig(bandwidth_sigma=sigma)
        one = features_from(art, "kd", ks[0], kd=kd, reference=reference)
        assert fm.features.tobytes() == one.features.tobytes()
        want = _oracle_features(art, "kd", None, kd, reference)
        _assert_within_kernel_bound(fm.features, want, "kd",
                                    _widest(moons_net))
    if reference is None:
        # a max k past the neighbours a train-mode row has left
        with pytest.raises(ValueError, match="k must be") as one:
            features_from(art, "lid", widest + 1)
        with pytest.raises(ValueError, match="k must be") as got:
            features_sweep(art, "lid", ks + [widest + 1])
        assert str(got.value) == str(one.value)


def test_sweep_serves_every_kind_and_checks_its_values(fgm_art):
    kd, bu = KdConfig(bandwidth_sigma=0.3), BuConfig(num_runs=4, base_seed=1)
    for kind in ("combined", "kd_bu", "bu"):
        swept = features_sweep(fgm_art, kind, [9, 3, 9], [0.3], bu=bu)
        for k, fm in zip((9, 3, 9), swept):
            one = features_from(fgm_art, kind, k, kd=kd, bu=bu)
            assert fm.features.tobytes() == one.features.tobytes()
            assert fm.feature_kind == kind
    with pytest.raises(ValueError, match="not both"):
        features_sweep(fgm_art, "combined", [3, 5], [0.1, 0.3])
    with pytest.raises(ValueError, match="at least one"):
        features_sweep(fgm_art, "lid", [])
    with pytest.raises(ValueError, match="k must be"):
        features_sweep(fgm_art, "lid", [4, 0])
    with pytest.raises(ValueError, match="bandwidth"):
        features_sweep(fgm_art, "kd", [4], [1.0, 0.0])


def test_kinds_that_read_bu_need_a_bu_config(fgm_art):
    for kind in ("bu", "kd_bu", "combined"):
        with pytest.raises(ValueError, match="needs a BuConfig"):
            features_from(fgm_art, kind, 9)
        with pytest.raises(ValueError, match="needs a BuConfig"):
            features_sweep(fgm_art, kind, [3, 9])


def test_zero_distance_without_exclusion_is_degenerate(moons_net,
                                                       moons_batch):
    art = prepare_batch(moons_net, moons_batch,
                        AttackConfig(kind="fgm", epsilon=0.5, seed=100),
                        seed=500)
    with pytest.raises(DegenerateProfileError):
        features_from(art, "lid", 5, reference=moons_batch)


# --------------------------------------------------------------------------
# parameter tuning


def test_tuning_sweeps_the_grid_and_reports_per_attack(blob_net, blob_data):
    batches = [
        Minibatch(member_ids=np.arange(20), vectors=blob_data.features[:20]),
        Minibatch(member_ids=np.arange(20, 40),
                  vectors=blob_data.features[20:40]),
    ]
    cfgs = [AttackConfig(kind="opt", max_iters=15, seed=1)]
    result = tune_parameter(blob_net, batches, {"lid": [5, 3]}, cfgs,
                            folds=2, seed=0)["lid"]
    assert result.grid == (3, 5)
    assert len(result.mean_auc) == 2
    assert set(result.per_attack_auc) == {"opt"}
    assert result.selected in result.grid
    assert all(0.0 <= v <= 1.0 for v in result.mean_auc)


def test_tuning_fits_each_folds_grid_in_one_stacked_descent(blob_net,
                                                            blob_data,
                                                            monkeypatch):
    stacks = []
    real = detector._descend

    def descend(z, y, epochs, lr):
        stacks.append(z.shape[0])
        return real(z, y, epochs, lr)

    monkeypatch.setattr(detector, "_descend", descend)
    batches = [Minibatch(member_ids=np.arange(20),
                         vectors=blob_data.features[:20])]
    cfgs = [AttackConfig(kind="fgm", epsilon=0.5, seed=1),
            AttackConfig(kind="bim_a", epsilon=0.5, max_iters=5, seed=2)]
    tune_parameter(blob_net, batches, {"lid": [3, 5, 8]}, cfgs, folds=2,
                   seed=0)
    # one descent per (attack, fold), each stacking the whole grid
    assert stacks == [3] * len(cfgs) * 2


def test_tuning_validation(blob_net):
    with pytest.raises(ValueError, match="tunable"):
        tune_parameter(blob_net, [], {"bu": [1]}, [])
    with pytest.raises(ValueError, match="nonempty"):
        tune_parameter(blob_net, [], {"lid": []}, [])
    with pytest.raises(ValueError, match="nonempty"):
        tune_parameter(blob_net, [], {}, [])


def test_adaptive_rate_needs_both_scenario_detectors(blob_net):
    model = train_detector(_separable())
    with pytest.raises(ValueError, match="scenario"):
        adaptive_failure_rate(blob_net, {"scenario1": model}, [], [],
                              refs=None, attack_cfg=AttackConfig(kind="opt"))
    both = {"scenario1": model, "scenario2": model}
    with pytest.raises(ValueError, match="at least one input"):
        adaptive_failure_rate(blob_net, both, [], [], refs=None,
                              attack_cfg=AttackConfig(kind="opt"))


def test_outcomes_are_scored_from_one_feature_call(moons_net, moons_data,
                                                   fgm_art, monkeypatch):
    refs = Minibatch(member_ids=np.arange(40, 80),
                     vectors=moons_data.features[40:80])
    lid = features_from(fgm_art, "lid", 8)
    pre = [moons_net.depth - 2]
    detectors = {"scenario1": train_detector(lid),
                 "scenario2": train_detector(_fm(lid.features[:, pre],
                                                 lid.labels, lid.provenance))}
    # every third attack failed
    outcomes = [replace(out, success=False) if j % 3 == 0 else out
                for j, out in enumerate(fgm_art.outcomes)]
    stacks = []
    real = detector.lid_feature_row

    def lid_feature_row(net, xs, reference, k):
        stacks.append(len(xs))
        return real(net, xs, reference, k)

    monkeypatch.setattr(detector, "lid_feature_row", lid_feature_row)
    got = detector.score_outcomes(moons_net, detectors, outcomes, refs, 8)
    # one reference forward pass and one distance matrix per level
    assert stacks == [sum(out.success for out in outcomes)]
    for out, (scores, flagged) in zip(outcomes, got):
        if not out.success:
            assert scores == {}
            assert flagged == {"scenario1": True, "scenario2": True}
            continue
        row = real(moons_net, out.adversarial[None], refs, 8)
        alone = {"scenario1": score(detectors["scenario1"], row)[0],
                 "scenario2": score(detectors["scenario2"], row[:, pre])[0]}
        for scen, s in alone.items():
            # scored alone, its activations and distances round differently
            assert scores[scen] == pytest.approx(s, rel=1e-9, abs=0.0)
            assert flagged[scen] == (scores[scen] >= 0.5)


def test_feature_kind_list_is_closed():
    assert FEATURE_KINDS == ("lid", "kd", "bu", "kd_bu", "combined")
