"""Dimensionality estimates, kernel densities, and dropout-variance signals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidkit.characteristics import (BuConfig, KdConfig,
                                    bayes_uncertainty_batch, kernel_density,
                                    lid_of_distances, minmax_normalize,
                                    mle_lid)
from lidkit.errors import (DegenerateProfileError, InfiniteEstimateError,
                           ShapeError)
from lidkit.harness.config import parse_layers
from lidkit.microgradnet import activations_batch, init_network
from lidkit.neighborhood import DistanceProfile


def _profile(distances):
    d = np.asarray(distances, dtype=float)
    return DistanceProfile(distances=d, k=d.shape[0])


# --------------------------------------------------------------------------
# maximum-likelihood estimate


def test_two_point_profile_closed_form():
    # distances (1, 2): mean log-ratio is -ln(2)/2, so the estimate is 2/ln 2
    est = mle_lid(_profile([1.0, 2.0]))
    assert est.value == pytest.approx(2.8853900817779268, rel=1e-12)
    assert est.value == pytest.approx(2.0 / math.log(2.0), rel=1e-12)
    assert est.k == 2


def test_power_law_profile_closed_form():
    # r_i = (i/k)^(1/m) gives the analytic value k*m / (k ln k - ln k!)
    k, m = 100, 4
    distances = (np.arange(1, k + 1) / k) ** (1.0 / m)
    expected = k * m / (k * math.log(k) - math.lgamma(k + 1))
    est = mle_lid(_profile(distances))
    assert expected == pytest.approx(4.133186006826572, rel=1e-12)
    assert est.value == pytest.approx(expected, rel=1e-10)


def test_estimate_carries_layer_index():
    est = mle_lid(_profile([1.0, 2.0]), layer_index=3)
    assert est.layer_index == 3
    assert mle_lid(_profile([1.0, 2.0])).layer_index == 0


def test_zero_distance_inside_profile_is_degenerate():
    with pytest.raises(DegenerateProfileError):
        mle_lid(_profile([0.0, 1.0]))


def test_equal_distances_have_no_finite_estimate():
    with pytest.raises(InfiniteEstimateError):
        mle_lid(_profile([1.0, 1.0, 1.0]))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6),
       scale=st.sampled_from([1e-3, 0.25, 1.0, 7.0, 1e3]))
def test_estimate_is_scale_invariant(seed, scale):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 40))
    d = np.sort(rng.random(k)) + rng.uniform(0.01, 1.0)
    base = mle_lid(_profile(d)).value
    scaled = mle_lid(_profile(scale * d)).value
    assert scaled == pytest.approx(base, rel=1e-12)


def test_row_wise_estimates_match_single_profiles():
    rng = np.random.default_rng(17)
    rows = np.sort(rng.random((8, 12)), axis=1) + 0.05
    values = lid_of_distances(rows, [rows.shape[1]])[0]
    singles = [mle_lid(_profile(r)).value for r in rows]
    np.testing.assert_allclose(values, singles, rtol=1e-13)


def test_row_wise_estimates_share_the_degeneracy_rules():
    with pytest.raises(ShapeError):
        lid_of_distances(np.array([1.0, 2.0]), [2])
    for k in (0, 3):
        with pytest.raises(ShapeError):
            lid_of_distances(np.array([[1.0, 2.0]]), [2, k])
    with pytest.raises(DegenerateProfileError):
        lid_of_distances(np.array([[0.0, 1.0], [1.0, 2.0]]), [2])
    with pytest.raises(InfiniteEstimateError):
        lid_of_distances(np.array([[1.0, 1.0], [1.0, 2.0]]), [2])
    with pytest.raises(InfiniteEstimateError):  # k = 1 is a tie with itself
        lid_of_distances(np.array([[1.0, 2.0]]), [2, 1])


def test_distances_tied_after_log_have_no_finite_estimate():
    # one ulp apart, so the ratio form of mle_lid sees a gap and returns a
    # huge finite value, but log rounds both to the same number
    r = 5.0
    row = np.array([[np.nextafter(r, 0.0), r]])
    assert np.log(row[0, 0]) == np.log(r)
    assert -1.0 / np.mean(np.log(row / r)) > 1e15
    with pytest.raises(InfiniteEstimateError):
        lid_of_distances(row, [2])


def test_equal_distances_whose_mean_log_rounds_low_are_ties():
    # mean(log 7, x5) comes out one ulp below log 7: without the tie rule
    # the mean log-ratio is -2.2e-16 and the estimate 4.5e15
    row = np.full((1, 5), 7.0)
    logs = np.log(row)
    assert logs.mean(axis=1)[0] < logs[0, -1]
    with pytest.raises(InfiniteEstimateError):
        lid_of_distances(row, [5])


@pytest.mark.parametrize("k, moved, toward, above", [
    (7, -1, np.inf, False),  # last distance one ulp up; mean rounds onto it
    (3, 0, 0.0, True),  # first one ulp down; mean rounds above the last log
])
def test_mean_log_ratio_rounding_to_or_above_zero_has_no_finite_estimate(
        k, moved, toward, above):
    # one distance one ulp off the rest, its log distinct, yet the prefix
    # mean log-ratio m rounds to 0 or above (then -1/m would be negative):
    # the first r on a grid for which that happens
    for r in np.linspace(1.1, 50.0, 3000):
        row = np.full((1, k), r)
        row[0, moved] = np.nextafter(r, toward)
        logs = np.log(row)
        m = logs.mean(axis=1)[0] - logs[0, -1]
        if logs[0, 0] < logs[0, -1] and (m > 0.0 if above else m == 0.0):
            break
    else:
        pytest.fail("no grid value rounds the mean log-ratio as wanted")
    with pytest.raises(InfiniteEstimateError):
        lid_of_distances(row, [k])


def _oracle_rtol(profile: np.ndarray) -> float:
    """Relative gap allowed between lid_of_distances and mle_lid on one
    ascending profile of k distances, from first-order rounding bounds.

    With u the unit roundoff, M = max |log r_i| and m the mean log-ratio:
    each log is within one ulp, 2u|log r_i|; a sum of k terms in any order
    is off by at most (k - 1) u times the sum of their magnitudes.  The
    prefix form (mean of log r_i, less log r_k) is then off by at most
    (k + 4) u M + u |m|.  The ratio form (mean of log(r_i / r_k)) rounds
    each ratio, u, and each log of it, 4 u M, and sums terms of one sign,
    so it is off by at most u + 4 u M + k u |m|.  Their gap e bounds the
    relative gap of -1/m by e / (|m| - e), and each division adds u.
    """
    u = np.finfo(float).eps / 2
    k = profile.size
    big = np.abs(np.log(profile)).max()
    m = abs(np.mean(np.log(profile / profile[-1])))
    e = (k + 8) * u * big + u + (k + 1) * u * m
    return e / (m - e) + 2 * u


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 6),
       width=st.integers(2, 60),
       drawn=st.lists(st.integers(2, 60), min_size=1, max_size=5),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_one_log_pass_serves_every_k(seed, n, width, drawn, scale):
    rng = np.random.default_rng(seed)
    ks = [min(k, width) for k in drawn + drawn[::-1]]  # repeats, unsorted
    steps = rng.random((n, width - 1)) * (rng.random((n, width - 1)) < 0.7)
    steps[:, 0] += 0.05  # ties after the first gap only
    first = rng.uniform(0.05, 2.0, size=(n, 1))
    d = scale * np.hstack([first, first + np.cumsum(steps, axis=1)])
    values = lid_of_distances(d, ks)
    assert values.shape == (len(ks), n)
    for v, k in enumerate(ks):
        alone = lid_of_distances(d[:, :k], [k])[0]
        assert values[v].tobytes() == alone.tobytes()
        for j in range(n):
            oracle = mle_lid(_profile(d[j, :k])).value
            assert abs(values[v, j] - oracle) <= _oracle_rtol(d[j, :k]) * oracle


# --------------------------------------------------------------------------
# kernel density


def test_kernel_density_single_reference():
    cfg = KdConfig(bandwidth_sigma=0.5)
    # one reference at distance 0.3: exp(-0.09 / 0.25)
    value = kernel_density([0.0, 0.0], np.array([[0.3, 0.0]]), cfg)
    assert value == pytest.approx(math.exp(-0.09 / 0.25), rel=1e-12)


def test_kernel_density_averages_over_references():
    cfg = KdConfig(bandwidth_sigma=1.0)
    refs = np.array([[0.0], [1.0]])
    expected = (1.0 + math.exp(-1.0)) / 2.0
    assert kernel_density([0.0], refs, cfg) == pytest.approx(expected, rel=1e-12)


def test_kernel_density_validation():
    cfg = KdConfig(bandwidth_sigma=1.0)
    with pytest.raises(ValueError):
        kernel_density([0.0], np.empty((0, 1)), cfg)
    with pytest.raises(ShapeError):
        kernel_density([0.0, 1.0], np.ones((2, 3)), cfg)
    with pytest.raises(ValueError):
        KdConfig(bandwidth_sigma=0.0)


# --------------------------------------------------------------------------
# dropout-variance uncertainty


def test_uncertainty_requires_two_runs():
    with pytest.raises(ValueError):
        BuConfig(num_runs=1)


def test_uncertainty_is_zero_without_dropout(blob_net, blob_data):
    values = bayes_uncertainty_batch(blob_net, blob_data.features[:5],
                                     BuConfig(num_runs=4, base_seed=0))
    np.testing.assert_array_equal(values, np.zeros(5))


def _dropout_net():
    specs = parse_layers("dense:6,relu,dropout:0.4,dense:2,softmax", 2)
    return init_network(specs, seed=12)


def test_uncertainty_matches_direct_variance_of_stochastic_passes():
    net = _dropout_net()
    xs = np.random.default_rng(0).random((4, 2))
    cfg = BuConfig(num_runs=6, base_seed=100)
    runs = np.stack([
        activations_batch(net, xs, mode="stochastic", seed=100 + t)[-1]
        for t in range(6)
    ])
    expected = runs.var(axis=0, ddof=1).mean(axis=1)
    np.testing.assert_allclose(bayes_uncertainty_batch(net, xs, cfg), expected,
                               rtol=0, atol=0)


def test_uncertainty_is_seed_deterministic():
    net = _dropout_net()
    xs = np.random.default_rng(1).random((3, 2))
    a = bayes_uncertainty_batch(net, xs, BuConfig(num_runs=8, base_seed=42))
    b = bayes_uncertainty_batch(net, xs, BuConfig(num_runs=8, base_seed=42))
    np.testing.assert_array_equal(a, b)


# --------------------------------------------------------------------------
# normalization helper


def test_minmax_normalize_maps_onto_unit_interval():
    out = minmax_normalize(np.array([2.0, 4.0, 3.0]))
    np.testing.assert_allclose(out, [0.0, 1.0, 0.5])


def test_minmax_normalize_constant_input_gives_zeros():
    np.testing.assert_array_equal(minmax_normalize(np.full(4, 9.0)),
                                  np.zeros(4))


def test_minmax_normalize_validation():
    with pytest.raises(ShapeError):
        minmax_normalize(np.ones((2, 2)))
    with pytest.raises(ValueError):
        minmax_normalize(np.array([1.0, np.inf]))
