"""Feature matrices, logistic-regression detectors, and ranking evaluation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidkit import detector
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
from lidkit.errors import (DegenerateProfileError, EmptyPositiveClassError,
                           ShapeError)
from lidkit.microgradnet import (LayerSpec, Network, activations_batch,
                                 forward_capture, predict_batch)
from lidkit.neighborhood import Minibatch, distances_to, knn_profile


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


def _descent_oracle(features, epochs, lr):
    """The scalar fit that ``train_detectors`` stacks: standardize, then
    full-batch gradient descent on one matrix alone.  Returns (weights, bias,
    kept, mean, std, updates), ``updates`` counting the descent steps made."""
    y = features.labels
    raw = features.features
    mean, std = raw.mean(axis=0), raw.std(axis=0)
    kept = np.flatnonzero(std > 0.0)
    z = (raw[:, kept] - mean[kept]) / std[kept]
    n = z.shape[0]
    w = np.zeros(kept.size)
    b = 0.0
    prev_loss = np.inf
    updates = 0
    for _ in range(epochs):
        p = 1.0 / (1.0 + np.exp(-np.clip(z @ w + b, -35.0, 35.0)))
        eps = 1e-12
        loss = -float(np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
        if prev_loss - loss < 1e-8:
            break
        prev_loss = loss
        g = p - y
        w -= lr * (z.T @ g) / n
        b -= lr * float(g.mean())
        updates += 1
    return w, b, tuple(kept.tolist()), mean[kept], std[kept], updates


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@st.composite
def _fit_inputs(draw):
    """1-4 matrices over two row counts and up to three columns, some
    constant; class shifts from none (early stops) to separable (runs long)."""
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
@given(matrices=_fit_inputs(), epochs=st.sampled_from([0, 1, 40, 1500]),
       lr=st.sampled_from([0.1, 0.5]))
def test_stacked_fits_equal_the_scalar_descent_bitwise(matrices, epochs, lr):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        models = train_detectors(matrices, epochs=epochs, lr=lr,
                                 training_attack="bim_a")
    assert len(models) == len(matrices)
    for fm, model in zip(matrices, models):
        w, b, kept, mean, std, _ = _descent_oracle(fm, epochs, lr)
        assert _bits(model.weights) == _bits(w)
        assert _bits(model.bias) == _bits(b)
        assert model.kept_features == kept
        assert _bits(model.feature_mean) == _bits(mean)
        assert _bits(model.feature_std) == _bits(std)
        assert model.training_attack == "bim_a"


def test_stacked_fits_stop_on_their_own_and_raise_as_before():
    rng = np.random.default_rng(3)
    labels = np.repeat([0, 1], 20)
    prov = ["normal"] * 20 + ["adversarial"] * 20
    noisy = _fm(rng.standard_normal((40, 2)) + 0.2 * labels[:, None],
                labels, prov)
    separable = _fm(rng.standard_normal((40, 2)) + 8.0 * labels[:, None],
                    labels, prov)
    fits = [_descent_oracle(fm, 3000, 0.1) for fm in (separable, noisy)]
    assert fits[0][-1] == 3000 and fits[1][-1] < 1000
    models = train_detectors([separable, noisy], epochs=3000)
    for fit, model in zip(fits, models):
        assert _bits(model.weights) == _bits(fit[0])
        assert _bits(model.bias) == _bits(fit[1])

    single_class = _fm([[0.0], [1.0]], [0, 0], ("normal", "noisy"))
    with pytest.raises(ValueError, match="both classes"):
        train_detectors([noisy, single_class])
    constant = _fm([[3.0], [3.0]], [0, 1], ("normal", "adversarial"))
    with pytest.warns(UserWarning, match="zero-variance"):
        with pytest.raises(ValueError, match="all features have zero variance"):
            train_detectors([noisy, constant])


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


def test_single_example_feature_row_matches_profile_math(moons_net,
                                                         moons_data):
    refs = Minibatch(member_ids=np.arange(40, 80),
                     vectors=moons_data.features[40:80])
    ref_levels = activations_batch(moons_net, refs.vectors)
    for x, k in ((moons_data.features[5], 8), (moons_data.features[90], 2),
                 (moons_data.features[5], 40)):
        row = lid_feature_row(moons_net, x, refs, k=k)
        assert row.shape == (moons_net.depth,)
        for i, q in enumerate(forward_capture(moons_net, x).per_layer):
            level_refs = Minibatch(member_ids=np.arange(40),
                                   vectors=ref_levels[i])
            assert row[i] == mle_lid(knn_profile(q, level_refs, k)).value
    # held-out rows never exclude: an example inside the reference batch
    # meets itself at distance zero
    with pytest.raises(DegenerateProfileError):
        lid_feature_row(moons_net, moons_data.features[41], refs, k=8)


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
    assert got.tobytes() == want.tobytes()
    if kind == "kd" and mode == "heldout":
        assert np.any(got == 0.0)


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
        assert fm.features.tobytes() == want.tobytes()
    swept = features_sweep(art, "kd", [ks[0]], sigmas, reference=reference)
    assert len(swept) == len(sigmas)
    for sigma, fm in zip(sigmas, swept):
        kd = KdConfig(bandwidth_sigma=sigma)
        one = features_from(art, "kd", ks[0], kd=kd, reference=reference)
        assert fm.features.tobytes() == one.features.tobytes()
        want = _oracle_features(art, "kd", None, kd, reference)
        assert fm.features.tobytes() == want.tobytes()
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
    result = tune_parameter(blob_net, batches, [5, 3], "lid", cfgs,
                            folds=2, seed=0)
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
    tune_parameter(blob_net, batches, [3, 5, 8], "lid", cfgs, folds=2, seed=0)
    # one descent per (attack, fold), each stacking the whole grid
    assert stacks == [3] * len(cfgs) * 2


def test_tuning_validation(blob_net):
    with pytest.raises(ValueError, match="tunable"):
        tune_parameter(blob_net, [], [1], "bu", [])
    with pytest.raises(ValueError, match="nonempty"):
        tune_parameter(blob_net, [], [], "lid", [])


def test_adaptive_rate_needs_both_scenario_detectors(blob_net):
    model = train_detector(_separable())
    with pytest.raises(ValueError, match="scenario"):
        adaptive_failure_rate(blob_net, {"scenario1": model}, [], [],
                              refs=None, attack_cfg=AttackConfig(kind="opt"))


def test_feature_kind_list_is_closed():
    assert FEATURE_KINDS == ("lid", "kd", "bu", "kd_bu", "combined")
