"""Minibatch containers and exact nearest-neighbor distances."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidkit import neighborhood
from lidkit.errors import DegenerateProfileError, ShapeError
from lidkit.neighborhood import (DistanceProfile, Minibatch, distances_to,
                                 knn_profile, nearest_distances,
                                 squared_distances)


# --------------------------------------------------------------------------
# Minibatch


def test_minibatch_freezes_vectors():
    b = Minibatch(member_ids=(0, 1), vectors=np.eye(2))
    with pytest.raises(ValueError):
        b.vectors[0, 0] = 5.0


def test_minibatch_coerces_ids_to_ints():
    b = Minibatch(member_ids=np.array([3, 1]), vectors=np.eye(2))
    assert b.member_ids == (3, 1)
    assert all(isinstance(i, int) for i in b.member_ids)
    assert len(b) == 2


def test_minibatch_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="unique"):
        Minibatch(member_ids=(1, 1), vectors=np.eye(2))


def test_minibatch_rejects_misaligned_ids():
    with pytest.raises(ValueError, match="align"):
        Minibatch(member_ids=(0,), vectors=np.eye(2))


def test_minibatch_rejects_unknown_source():
    with pytest.raises(ValueError, match="source"):
        Minibatch(member_ids=(0,), vectors=np.ones((1, 2)), source="stolen")


def test_minibatch_rejects_bad_shapes_and_values():
    with pytest.raises(ShapeError):
        Minibatch(member_ids=(0,), vectors=np.ones(3))
    with pytest.raises(ShapeError):
        Minibatch(member_ids=(), vectors=np.ones((0, 2)))
    with pytest.raises(ValueError, match="finite"):
        Minibatch(member_ids=(0,), vectors=np.array([[np.nan, 1.0]]))


# --------------------------------------------------------------------------
# DistanceProfile


def test_profile_requires_exactly_k_ascending_distances():
    with pytest.raises(ShapeError):
        DistanceProfile(distances=np.array([1.0, 2.0]), k=3)
    with pytest.raises(ValueError, match="ascending"):
        DistanceProfile(distances=np.array([2.0, 1.0]), k=2)
    with pytest.raises(ValueError):
        DistanceProfile(distances=np.array([-1.0, 2.0]), k=2)


def test_profile_rejects_zero_largest_distance():
    with pytest.raises(DegenerateProfileError):
        DistanceProfile(distances=np.array([0.0, 0.0]), k=2)


def test_profile_allows_zero_inner_distance():
    prof = DistanceProfile(distances=np.array([0.0, 1.0]), k=2)
    np.testing.assert_array_equal(prof.distances, [0.0, 1.0])


# --------------------------------------------------------------------------
# distances and sampling


def test_distances_to_preserves_row_order():
    refs = Minibatch(member_ids=(0, 1, 2),
                     vectors=np.array([[0.0], [2.0], [1.0]]))
    np.testing.assert_array_equal(distances_to([0.0], refs), [0.0, 2.0, 1.0])


def test_distances_to_rejects_width_mismatch():
    refs = Minibatch(member_ids=(0,), vectors=np.ones((1, 3)))
    with pytest.raises(ShapeError):
        distances_to([1.0, 2.0], refs)


# --------------------------------------------------------------------------
# knn_profile


def _line_refs():
    return Minibatch(member_ids=(0, 1, 2, 3),
                     vectors=np.array([[0.0], [1.0], [2.0], [3.0]]))


def test_knn_profile_on_a_line_with_self_exclusion():
    prof = knn_profile([0.0], _line_refs(), k=2, exclude_self=True)
    np.testing.assert_array_equal(prof.distances, [1.0, 2.0])
    assert prof.k == 2


def test_knn_profile_keeps_zero_distance_without_exclusion():
    prof = knn_profile([0.0], _line_refs(), k=2, exclude_self=False)
    np.testing.assert_array_equal(prof.distances, [0.0, 1.0])


def test_knn_profile_zero_kth_distance_is_degenerate():
    refs = Minibatch(member_ids=(0, 1), vectors=np.zeros((2, 1)))
    with pytest.raises(DegenerateProfileError):
        knn_profile([0.0], refs, k=2)


def test_knn_profile_k_bounds_shrink_with_exclusion():
    refs = Minibatch(member_ids=(0, 1, 2),
                     vectors=np.array([[0.0], [0.0], [1.0]]))
    # both zero-distance rows vanish, so only one neighbor remains
    prof = knn_profile([0.0], refs, k=1, exclude_self=True)
    np.testing.assert_array_equal(prof.distances, [1.0])
    with pytest.raises(ValueError, match=r"\[1, 1\]"):
        knn_profile([0.0], refs, k=2, exclude_self=True)
    with pytest.raises(ValueError):
        knn_profile([0.0], refs, k=0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_knn_profile_matches_full_sort(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    d = int(rng.integers(1, 5))
    pts = rng.random((n, d))
    refs = Minibatch(member_ids=np.arange(n), vectors=pts)
    q = rng.random(d)
    k = int(rng.integers(1, n + 1))
    naive = np.sort(np.sqrt(((pts - q) ** 2).sum(axis=1)))[:k]
    prof = knn_profile(q, refs, k)
    np.testing.assert_array_equal(prof.distances, naive)


# --------------------------------------------------------------------------
# batch kernel against the single-query oracle


def _oracle_rows(queries, refs, k, exclude_self):
    """knn_profile per query; a zero k-th distance means k zero distances."""
    batch = Minibatch(member_ids=np.arange(len(refs)), vectors=refs)
    rows = []
    for q in queries:
        try:
            rows.append(knn_profile(q, batch, k,
                                    exclude_self=exclude_self).distances)
        except DegenerateProfileError:
            rows.append(np.zeros(k))
    return np.array(rows)


def _cloud(rng, rows, width, style):
    if style == "grid":  # exact ties
        return rng.integers(0, 3, (rows, width)).astype(float)
    if style == "tenths":  # ties broken or made by rounding (0.1 + 0.2 ...)
        return rng.integers(0, 6, (rows, width)) * 0.1
    return rng.random((rows, width)) * 10.0 ** rng.uniform(-3, 3)


def _gram_rtol(width):
    """Relative bound on a distance the kernel does not recompute: the Gram
    form's (2d + 4) u over ``GRAM_TOL`` (``squared_distances``' docstring).
    It bounds the squared distance; the square root halves it, which leaves
    room for the oracle's own rounding, a few u."""
    return (2 * width + 4) * 2.0 ** -53 / neighborhood.GRAM_TOL


def _assert_kernel_contract(got, want, width):
    """``got`` holds ``want``'s zeros exactly and is within the kernel's
    bound of every other value."""
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=_gram_rtol(width), atol=0.0)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       style=st.sampled_from(["grid", "tenths", "continuous"]),
       exclude_self=st.booleans(),
       blocks=st.sampled_from(["one", "few", "all"]))
def test_kernel_rows_match_knn_profile(seed, style, exclude_self, blocks):
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 70))
    refs = _cloud(rng, int(rng.integers(1, 30)), width, style)
    # duplicate references, and queries that sit on references
    refs = np.vstack([refs, refs[rng.integers(0, len(refs),
                                              int(rng.integers(0, 4)))]])
    queries = np.vstack([_cloud(rng, int(rng.integers(1, 9)), width, style),
                         refs[rng.integers(0, len(refs),
                                           int(rng.integers(0, 4)))]])
    k = int(rng.integers(1, len(refs) + 1))
    # BLOCK_FLOATS sized so blocks hold one query, three, or every query
    per_query = len(refs)
    block = {"one": 1, "few": 3 * per_query + 1, "all": 10**9}[blocks]
    try:
        want = _oracle_rows(queries, refs, k, exclude_self)
    except ValueError:
        want = None  # some query has fewer than k non-zero distances
    with mock.patch.object(neighborhood, "BLOCK_FLOATS", block):
        sq = squared_distances(queries, refs)
        if want is None:
            with pytest.raises(ValueError, match="k must be"):
                nearest_distances(sq, k, exclude_self=exclude_self)
            return
        got = nearest_distances(sq, k, exclude_self=exclude_self)
    _assert_kernel_contract(got, want, width)
    batch = Minibatch(member_ids=np.arange(len(refs)), vectors=refs)
    _assert_kernel_contract(np.sqrt(sq), np.array(
        [distances_to(q, batch) for q in queries]), width)


def test_kernel_block_holds_one_query_for_many_references():
    rng = np.random.default_rng(4)
    width = 3
    refs = rng.random((neighborhood.BLOCK_FLOATS // 2 + 1, width))
    queries = rng.random((3, width))
    got = nearest_distances(squared_distances(queries, refs), 5)
    _assert_kernel_contract(got, _oracle_rows(queries, refs, 5, False), width)


def test_kernel_recomputes_cancelled_entries_exactly():
    # near-duplicates far from the origin: |q|^2 + |r|^2 is about 1.3e10
    # and a distance about 1e-5, so the Gram form alone keeps no digit of it
    rng = np.random.default_rng(7)
    width = 64
    refs = 1e4 + 1e-6 * rng.standard_normal((20, width))
    refs = np.vstack([refs, refs[[2, 2, 9]], np.zeros((1, width))])
    queries = np.vstack([1e4 + 1e-6 * rng.standard_normal((6, width)),
                         refs[[2, 9, 0]]])
    batch = Minibatch(member_ids=np.arange(len(refs)), vectors=refs)
    want = np.array([distances_to(q, batch) for q in queries])
    scale = (queries ** 2).sum(axis=1)[:, None] + (refs ** 2).sum(axis=1)
    # far below the threshold, so the kernel must have recomputed these
    below = want ** 2 <= neighborhood.GRAM_TOL * scale / 2
    assert below.sum() == len(queries) * (len(refs) - 1)
    got = np.sqrt(squared_distances(queries, refs))
    assert got[below].tobytes() == want[below].tobytes()
    np.testing.assert_array_equal(np.count_nonzero(got == 0.0, axis=1),
                                  np.count_nonzero(want == 0.0, axis=1))
    _assert_kernel_contract(got, want, width)


def test_kernel_exclusion_needs_k_distances_left():
    sq = np.array([[0.0, 0.0, 1.0], [0.0, 4.0, 1.0]])
    np.testing.assert_array_equal(nearest_distances(sq, 1, exclude_self=True),
                                  [[1.0], [1.0]])
    with pytest.raises(ValueError, match=r"\[1, 1\]"):
        nearest_distances(sq, 2, exclude_self=True)
    with pytest.raises(ValueError):
        nearest_distances(sq, 0)
    np.testing.assert_array_equal(nearest_distances(sq, 2),
                                  [[0.0, 0.0], [0.0, 1.0]])


def test_kernel_shape_validation():
    with pytest.raises(ShapeError):
        squared_distances(np.ones((2, 3)), np.ones((4, 2)))
    with pytest.raises(ShapeError):
        squared_distances(np.ones(3), np.ones((4, 3)))


def test_kernel_sums_exactly_where_the_norms_overflow():
    # |q|^2 overflows to inf, so the Gram form gives inf - inf = NaN on the
    # diagonal; the recompute must give distances_to's zero there
    refs = np.array([[1e160] * 3, [0.0] * 3, [1e160, 1e160, 2e160],
                     [1.0, 2.0, 3.0]])
    queries = refs[[0, 1, 3]]
    batch = Minibatch(member_ids=np.arange(len(refs)), vectors=refs)
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.array([distances_to(q, batch) for q in queries])
        got = np.sqrt(squared_distances(queries, refs))
    assert got.tobytes() == want.tobytes()
    assert want[0, 0] == 0.0


@pytest.mark.parametrize("width", range(71))
def test_kernel_rows_equal_distances_to_at_narrow_widths(width):
    # every width the default net has (2 to 64) and past it; width 0 gives
    # zeros
    rng = np.random.default_rng(width)
    for style in ("grid", "tenths", "continuous"):
        refs = _cloud(rng, 12, width, style)
        refs = np.vstack([refs, refs[[0, 0, 5]]])  # duplicate references
        queries = np.vstack([_cloud(rng, 7, width, style), refs[[0, 3]]])
        batch = Minibatch(member_ids=np.arange(len(refs)), vectors=refs)
        want = np.array([distances_to(q, batch) for q in queries])
        for block in (1, neighborhood.BLOCK_FLOATS):
            with mock.patch.object(neighborhood, "BLOCK_FLOATS", block):
                got = np.sqrt(squared_distances(queries, refs))
            _assert_kernel_contract(got, want, width)
    if width == 0:
        assert not got.any()
