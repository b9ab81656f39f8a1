"""Batched numerics kernels for the compilation hot paths.

The compiler's inner loop — classify every consolidated 2Q block by its
Weyl coordinates, test the coordinates against coverage polytopes, and
price the cheapest covering template — was originally executed one gate
at a time.  This package hosts the stacked-array versions of those
kernels so consumers can collect their 2Q blocks and make one vectorized
call per circuit instead of one scalar call per gate:

* :func:`weyl_coordinates_many` — Weyl-coordinate extraction over an
  ``(N, 4, 4)`` unitary stack, replicating the scalar
  :func:`repro.quantum.weyl.weyl_coordinates` recipe operation-for-
  operation so the batched path is bit-identical to the scalar one
  (the scalar function is itself a batch-size-1 wrapper over this
  kernel).  Rows whose vectorized fold fails validation fall back to
  the exact scalar :func:`repro.quantum.kak.kak_decompose`.
* :func:`canonicalize_coordinates_many` — vectorized Weyl-chamber
  folding with per-row convergence, matching the scalar
  :func:`repro.quantum.weyl.canonicalize_coordinates` exactly.
* :func:`membership_matrix` / :func:`first_covering_k` — coverage-region
  membership over all N query points with one facet-margin test per
  region (the kernel behind ``CoverageSet.min_k`` and the rule engines'
  batched template selection).

All kernels are written against :mod:`repro.kernels.backend` — an
:class:`~repro.kernels.backend.ArrayBackend` registry resolving numpy
(the tested, bit-parity default), torch, or cupy namespaces via
``REPRO_ARRAY_BACKEND``, ``CompilerConfig(array_backend=...)``, or
:func:`~repro.kernels.backend.use_array_backend`.  Results round-trip
back to numpy at every public edge, so digests stay bit-stable on the
numpy path and adapter paths promise ``allclose`` agreement.

The batched cache kernel lives with its store:
:meth:`repro.service.cache.DecompositionCache.lookup_many`.

Note that :func:`repro.quantum.weyl.batched_weyl_coordinates` (the
Monte-Carlo sampling path behind coverage point clouds) is a distinct,
deliberately looser vectorization: it follows the common canonicaliza-
tion branch at measure-zero chamber boundaries, which is fine for Haar
sampling but not for classifying circuit gates (CNOT/SWAP/iSWAP sit
exactly on those boundaries).  The kernels here are the parity-exact
compilation path.
"""

from .backend import (
    ArrayBackend,
    ArrayBackendError,
    active_backend,
    available_backends,
    get_namespace,
    register_backend,
    registered_backends,
    resolve_backend,
    use_array_backend,
)
from .membership import first_covering_k, membership_matrix
from .weyl_batch import canonicalize_coordinates_many, weyl_coordinates_many

__all__ = [
    "ArrayBackend",
    "ArrayBackendError",
    "active_backend",
    "available_backends",
    "canonicalize_coordinates_many",
    "first_covering_k",
    "get_namespace",
    "membership_matrix",
    "register_backend",
    "registered_backends",
    "resolve_backend",
    "use_array_backend",
    "weyl_coordinates_many",
]
