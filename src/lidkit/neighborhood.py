"""Minibatches and k-nearest-neighbor distances.

Neighborhoods are computed brute-force (every pairwise L2 distance).
``squared_distances`` + ``nearest_distances`` are the batch kernel, to a bound
it states; ``distances_to`` + ``knn_profile`` are its single-query oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProfileError, ShapeError

MINIBATCH_SOURCES = ("normal", "adversarial", "noisy")

# squared_distances blocks: rows * m <= BLOCK_FLOATS, so a block's distances
# and the temporaries made from them stay small; fastest of the sizes timed
# over the benchmark workloads' shapes (ROADMAP "Measured")
BLOCK_FLOATS = 1 << 16
GRAM_TOL = 1e-6  # squared_distances' recompute threshold, relative


@dataclass(frozen=True)
class Minibatch:
    """A set of vectors sampled from one origin (normal, adversarial, noisy).

    ``member_ids`` are the sampled rows' identifiers in their source dataset
    and must be unique; ``vectors`` is the matching (n, d) float array, frozen
    on construction.
    """

    member_ids: tuple
    vectors: np.ndarray
    source: str = "normal"

    def __post_init__(self):
        object.__setattr__(self, "member_ids", tuple(int(i) for i in self.member_ids))
        v = np.asarray(self.vectors, dtype=float)
        object.__setattr__(self, "vectors", v)
        if self.source not in MINIBATCH_SOURCES:
            raise ValueError(f"unknown source {self.source!r}")
        if v.ndim != 2 or v.shape[0] < 1:
            raise ShapeError("vectors must be a non-empty (n, d) array")
        if len(self.member_ids) != v.shape[0]:
            raise ValueError("member_ids and vectors do not align")
        if len(set(self.member_ids)) != len(self.member_ids):
            raise ValueError("member_ids must be unique")
        if not np.all(np.isfinite(v)):
            raise ValueError("minibatch vectors must be finite")
        v.setflags(write=False)

    def __len__(self):
        return self.vectors.shape[0]


@dataclass(frozen=True)
class DistanceProfile:
    """The k smallest reference distances from one query, ascending.

    The largest distance must be strictly positive; a zero there means the
    neighborhood is degenerate and no profile is constructed for it.
    """

    distances: np.ndarray
    k: int

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=float)
        object.__setattr__(self, "distances", d)
        if d.ndim != 1 or d.shape[0] != self.k or self.k < 1:
            raise ShapeError("profile must hold exactly k distances")
        if np.any(d < 0.0) or not np.all(np.isfinite(d)):
            raise ValueError("distances must be finite and non-negative")
        if np.any(np.diff(d) < 0.0):
            raise ValueError("distances must be ascending")
        if d[-1] <= 0.0:
            raise DegenerateProfileError("largest neighbor distance is zero")
        d.setflags(write=False)


def distances_to(query, refs: Minibatch) -> np.ndarray:
    """L2 distance from ``query`` to every reference row, in row order."""
    q = np.asarray(query, dtype=float)
    if q.ndim != 1 or q.shape[0] != refs.vectors.shape[1]:
        raise ShapeError(
            f"query of shape {q.shape} does not match references of width "
            f"{refs.vectors.shape[1]}"
        )
    return np.sqrt(((refs.vectors - q) ** 2).sum(axis=1))


def knn_profile(query, refs: Minibatch, k: int, *,
                exclude_self: bool = False) -> DistanceProfile:
    """Exact k-nearest-neighbor distance profile of a query against a minibatch.

    ``exclude_self=True`` removes every reference at distance zero (the query
    itself, and any exact duplicate of it).  Ties are broken by lower row
    index; with self-exclusion off, a zero k-th distance raises
    DegenerateProfileError.
    """
    dists = distances_to(query, refs)
    if exclude_self:
        dists = dists[dists > 0.0]
    if not 1 <= k <= dists.shape[0]:
        raise ValueError(
            f"k must be in [1, {dists.shape[0]}] for this neighborhood, got {k}"
        )
    order = np.argsort(dists, kind="stable")
    return DistanceProfile(distances=dists[order[:k]], k=k)


def squared_distances(queries, refs) -> np.ndarray:
    """(n, m) squared L2 distances from query rows to reference rows.

    ``|q|^2 + |r|^2 - 2 q.r`` from one matrix product per block of query rows
    errs by about (2d + 4) u (|q|^2 + |r|^2) at most (width d, u = 2^-53), so
    entries not above ``GRAM_TOL * (|q|^2 + |r|^2)``, NaN where the norms
    overflow included, are summed again as ``distances_to`` sums them: the
    zeros are its zeros, and other entries are within (2d + 4) u /
    ``GRAM_TOL`` relative.  Bits do not depend on the BLAS thread count
    (measured at widths 2-64).  They may depend on the block a row falls
    in: a row alone in its block takes BLAS's matrix-vector path, and
    against 100 references blocks of a dozen rows or fewer gave other bits
    than one block of every row, while against 1,000 references every
    block of two or more rows gave the same bits.
    """
    q = np.asarray(queries, dtype=float)
    r = np.asarray(refs, dtype=float)
    if q.ndim != 2 or r.ndim != 2 or q.shape[1] != r.shape[1]:
        raise ShapeError(f"queries {q.shape} do not match references {r.shape}")
    step = max(1, BLOCK_FLOATS // max(1, r.shape[0]))
    r_norms, r_neg2 = (r * r).sum(axis=1), -2.0 * r.T  # exact: a power of 2
    out = np.empty((q.shape[0], r.shape[0]))
    for start in range(0, q.shape[0], step):
        rows, block = q[start:start + step], out[start:start + step]
        scale = (rows * rows).sum(axis=1)[:, None] + r_norms
        np.matmul(rows, r_neg2, out=block)
        block += scale
        i, j = np.divmod(np.flatnonzero(~(block > GRAM_TOL * scale)), len(r))
        block[i, j] = ((r[j] - rows[i]) ** 2).sum(axis=1)
    return out


def nearest_distances(sq: np.ndarray, k: int, *,
                      exclude_self: bool = False) -> np.ndarray:
    """(n, k) ascending nearest distances, from squared distances.

    Row i is ``knn_profile(query_i, refs, k, exclude_self=...).distances``
    to ``sq``'s bound, with the same zeros: ``exclude_self`` skips a row's
    zero distances and raises ValueError if fewer than k remain; otherwise
    zeros stay in.  The first k' columns are the answer for every k' <= k.

    The row sort and the square root of its head run in place in one copy
    of ``sq``, which the call leaves unchanged.  Sorting whole rows was
    faster than partitioning first at the shapes the benchmark workloads
    run (k = 900 of 1,000 references, k = 20-90 of 100); a partition wins
    only at k well below m ~ 1,000.
    """
    sq = np.array(sq, dtype=float)
    skip = (np.count_nonzero(sq == 0.0, axis=1) if exclude_self
            else np.zeros(sq.shape[0], dtype=int))
    last = int(skip.max(initial=0)) + k
    if k < 1 or last > sq.shape[1]:
        raise ValueError(f"k must be in [1, {sq.shape[1] - last + k}] for "
                         f"this neighborhood, got {k}")
    sq.sort(axis=1)
    head = sq[:, :last]
    np.sqrt(head, out=head)
    if not skip.any():
        return head[:, :k]
    return np.take_along_axis(head, skip[:, None] + np.arange(k), axis=1)
