"""The pipeline's one-thread BLAS pin, and bits that do not depend on it."""

from contextlib import contextmanager

import numpy as np
import pytest

from lidkit import blas, cli, microgradnet
from lidkit.harness import recipes
from lidkit.harness.config import ExperimentConfig, default_layers, parse_layers
from lidkit.neighborhood import squared_distances

CONTROLS = blas._controls()
needs_control = pytest.mark.skipif(CONTROLS is None,
                                   reason="no OpenBLAS thread control found")

_SMALL = dict(dataset_name="gaussian_blobs", dataset_params={"dim": 2},
              n_train=120, n_test=60, layers="dense:8,relu,dense:2,softmax",
              net_epochs=2, attacks=("fgm",), feature_kinds=("lid",), k=8,
              minibatch_size=25, detector_epochs=50, seed=2)


def _count():
    return CONTROLS[0]()


@contextmanager
def _threads(n):
    """The library's count set to n for the block, the old one restored."""
    get, put = CONTROLS
    before = get()
    put(n)
    try:
        yield
    finally:
        put(before)


@pytest.fixture
def counts_in_training(monkeypatch):
    """train_sgd, patched to record the BLAS thread count it runs under."""
    seen, train = [], microgradnet.train_sgd

    def recording(*args, **kwargs):
        seen.append(_count())
        return train(*args, **kwargs)

    monkeypatch.setattr(microgradnet, "train_sgd", recording)
    return seen


def _cli_config(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text("dataset.name = gaussian_blobs\ndataset.param.dim = 2\n"
                    "dataset.n_train = 120\ndataset.n_test = 60\n"
                    "network.layers = dense:8,relu,dense:2,softmax\n"
                    "network.epochs = 2\nseed = 2\n")
    return str(path)


@needs_control
def test_every_entry_point_runs_on_one_thread_and_restores_the_count(
        tmp_path, counts_in_training):
    with _threads(2):
        recipes.build_pipeline(ExperimentConfig(**_SMALL))
        assert _count() == 2
        recipes.run_recipe("fig2", ExperimentConfig(**_SMALL), write=False)
        assert _count() == 2
        assert cli.main(["train-net", "--config", _cli_config(tmp_path),
                         "--out", str(tmp_path / "out")]) == 0
        assert _count() == 2
    # run_recipe nests build_pipeline, which trains: one thread in there too
    assert counts_in_training == [1, 1, 1]


@needs_control
def test_the_count_comes_back_after_an_exception(monkeypatch):
    def failing(*args, **kwargs):
        assert _count() == 1
        raise RuntimeError("training failed")

    monkeypatch.setattr(microgradnet, "train_sgd", failing)
    with _threads(2):
        with pytest.raises(RuntimeError, match="training failed"):
            recipes.run_recipe("fig2", ExperimentConfig(**_SMALL), write=False)
        assert _count() == 2


@needs_control
def test_nested_uses_restore_in_order():
    with _threads(2):
        with blas.single_thread():
            assert _count() == 1
            with blas.single_thread():
                assert _count() == 1
            assert _count() == 1
        assert _count() == 2


def test_without_a_control_the_manager_does_nothing(monkeypatch):
    before = None if CONTROLS is None else _count()
    monkeypatch.setattr(blas, "_controls", lambda: None)
    with blas.single_thread():
        if CONTROLS is not None:
            assert _count() == before


@needs_control
def test_the_forward_pass_keeps_its_bits_at_any_thread_count():
    # the 1000 x 64 x 64 product wakes the second thread when it may
    specs = parse_layers(default_layers(2), 16)
    net = microgradnet.init_network(specs, seed=3)
    xs = np.random.default_rng(0).normal(size=(1000, 16))
    with _threads(1):
        one = microgradnet.activations_batch(net, xs)
    with _threads(2):
        two = microgradnet.activations_batch(net, xs)
    for a, b in zip(one, two):
        np.testing.assert_array_equal(a, b)


@needs_control
def test_the_neighbour_kernel_keeps_its_bits_at_any_thread_count():
    rng = np.random.default_rng(1)
    queries = np.maximum(rng.normal(size=(548, 64)), 0.0)
    refs = np.maximum(rng.normal(size=(1000, 64)), 0.0)
    with _threads(1):
        one = squared_distances(queries, refs)
    with _threads(2):
        two = squared_distances(queries, refs)
    np.testing.assert_array_equal(one, two)
