"""Batched coverage-region membership kernels.

Coverage regions (:class:`repro.core.coverage.RegionHull` /
:class:`~repro.core.coverage.KCoverage`) already answer vectorized
point-set queries — one facet-margin test per region, every row decided
on its own.  The helpers here organize those calls for the two
consumers that used to issue them per point:

* :func:`membership_matrix` — evaluate a list of regions against one
  stacked query set, returning the full (regions x points) boolean
  matrix.  This is what the rule engines' batched template selection
  uses to classify every generic 2Q block of a circuit at once.
* :func:`first_covering_k` — the smallest covering K per point over an
  ordered K-coverage sequence, narrowing the query set as points
  resolve so each K-polytope sees each point at most once.  This is the
  kernel behind :meth:`repro.core.coverage.CoverageSet.min_k`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..obs import metrics
from .backend import active_backend

__all__ = ["first_covering_k", "membership_matrix"]


def membership_matrix(regions: Sequence, coords: np.ndarray) -> np.ndarray:
    """Boolean membership of every point in every region.

    Args:
        regions: objects exposing ``contains((N, 3)) -> (N,) bool``
            (``RegionHull`` or ``KCoverage`` instances).
        coords: query points, shape ``(N, 3)`` (or a single triple) —
            any backend's array type; the hull tests themselves run on
            the host (the facets come from scipy's qhull), so adapter
            arrays transfer back to numpy once at this edge.

    Returns:
        Array of shape ``(len(regions), N)``; row ``r`` is one batched
        ``contains`` evaluation of region ``r``.
    """
    coords = np.atleast_2d(active_backend().to_numpy(coords, "float"))
    metrics.histogram(
        "repro.kernels.membership_batch", metrics.BATCH_SIZE_BUCKETS
    ).observe(len(coords))
    if len(regions) == 0:
        return np.zeros((0, len(coords)), dtype=bool)
    return np.stack([region.contains(coords) for region in regions])


def first_covering_k(coverages: Sequence, coords: np.ndarray) -> np.ndarray:
    """Smallest covering K per point (``len(coverages) + 1`` if none).

    ``coverages`` is an ordered sequence of objects with an integer
    ``k`` attribute and a vectorized ``contains``; points already
    resolved at a smaller K are excluded from later queries, so the
    total membership work is one narrowing ``contains`` sweep.  Like
    :func:`membership_matrix`, adapter arrays are normalized to numpy
    once at this edge (the hulls are host-side).
    """
    coords = np.atleast_2d(active_backend().to_numpy(coords, "float"))
    result = np.full(len(coords), len(coverages) + 1, dtype=int)
    unresolved = np.arange(len(coords))
    for coverage in coverages:
        if not len(unresolved):
            break
        hit = coverage.contains(coords[unresolved])
        result[unresolved[hit]] = coverage.k
        unresolved = unresolved[~hit]
    return result
