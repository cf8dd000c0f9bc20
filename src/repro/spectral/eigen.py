"""Eigenvalue computations for the (generalized) Laplacian.

For graphs up to :data:`DENSE_CUTOFF` vertices we use dense symmetric
eigensolvers (exact, simple); above that we switch to shift-invert
Lanczos (``scipy.sparse.linalg.eigsh``) on one sparse factorization,
which only extracts the low end of the spectrum. The quantities of
interest are:

* ``lambda_2`` — algebraic connectivity of ``L`` (drives Theorems 1.1/1.2);
* the Fiedler vector — used by the sweep-cut Cheeger heuristic;
* ``mu_2`` — second-smallest eigenvalue of ``L S^{-1}``, computed through
  the symmetrized form ``S^{-1/2} L S^{-1/2}`` (same spectrum, Lemma 1.13).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from repro.errors import DisconnectedGraphError, SpectralError
from repro.graphs.graph import Graph
from repro.spectral.laplacian import (
    laplacian_matrix,
    laplacian_sparse,
    symmetrized_laplacian,
)
from repro.types import FloatArray
from repro.utils.validation import check_array_1d

__all__ = [
    "DENSE_CUTOFF",
    "laplacian_spectrum",
    "algebraic_connectivity",
    "fiedler_vector",
    "generalized_spectrum",
    "generalized_lambda2",
    "spectral_gap_ratio",
]

#: Graphs with at most this many vertices use dense eigensolvers.
DENSE_CUTOFF = 1500

#: Eigenvalues below this are treated as (numerically) zero.
ZERO_TOLERANCE = 1e-9

#: Shift of the sparse shift-invert solve: ``L`` is singular, but
#: ``L - _SHIFT * I`` with a small negative shift is positive definite.
_SHIFT = -1e-3


def laplacian_spectrum(graph: Graph) -> FloatArray:
    """All Laplacian eigenvalues in ascending order (dense solve)."""
    if graph.num_vertices > DENSE_CUTOFF:
        raise SpectralError(
            f"full spectrum requested for n={graph.num_vertices} > {DENSE_CUTOFF}; "
            "use algebraic_connectivity for large graphs"
        )
    values = scipy.linalg.eigvalsh(laplacian_matrix(graph))
    return np.clip(values, 0.0, None)


def _lowest_two_sparse(matrix: sp.spmatrix) -> tuple[FloatArray, FloatArray]:
    """Two smallest eigenpairs of a sparse symmetric PSD matrix, ascending.

    Shift-invert Lanczos around :data:`_SHIFT`. The shifted matrix is
    positive definite, so it is factored once without pivoting and with
    a symmetric fill-reducing ordering (minimum degree on ``A^T + A``);
    SuperLU's default COLAMD ordering targets unsymmetric matrices and
    leaves 7.2 M nonzeros in ``L + U`` on torus(200), against 3.1 M with
    this one. ARPACK starts from a fixed vector, so repeated solves
    return bit-identical values. Eigenvalues are clipped at zero.
    """
    n = matrix.shape[0]
    start = np.random.default_rng(0).standard_normal(n)
    shifted = (matrix - _SHIFT * sp.identity(n, format="csc")).tocsc()
    factor = scipy.sparse.linalg.splu(
        shifted,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    inverse = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=factor.solve, dtype=np.float64
    )
    try:
        values, vectors = scipy.sparse.linalg.eigsh(
            matrix, k=2, sigma=_SHIFT, which="LM", OPinv=inverse, v0=start
        )
    except scipy.sparse.linalg.ArpackNoConvergence:
        # Fallback: smallest-algebraic without shift-invert (slower).
        values, vectors = scipy.sparse.linalg.eigsh(
            matrix, k=2, which="SA", v0=start, maxiter=50 * n
        )
    order = np.argsort(values)
    return np.clip(values[order], 0.0, None), vectors[:, order]


def algebraic_connectivity(graph: Graph, strict: bool = True) -> float:
    """Second-smallest Laplacian eigenvalue ``lambda_2`` (Fiedler value).

    With ``strict=True`` (the default, what the theory code wants)
    raises :class:`DisconnectedGraphError` when the graph is
    disconnected (``lambda_2 = 0`` by Lemma 1.4 (2)); the protocol
    analysis needs a connected network. ``strict=False`` instead reports
    ``0.0`` for disconnected (or single-vertex) graphs — the live
    topology tracking in :mod:`repro.scenarios` records the degradation
    through a partition window rather than crashing on it.
    """
    if graph.num_vertices == 1:
        if not strict:
            return 0.0
        raise DisconnectedGraphError("lambda_2 undefined for a single vertex")
    if graph.num_vertices <= DENSE_CUTOFF:
        spectrum = laplacian_spectrum(graph)
        lambda2 = float(spectrum[1])
    else:
        values, _ = _lowest_two_sparse(laplacian_sparse(graph))
        lambda2 = float(values[1])
    if lambda2 < ZERO_TOLERANCE:
        if not strict:
            return 0.0
        raise DisconnectedGraphError(
            f"{graph.name} appears disconnected (lambda_2 = {lambda2:.2e})"
        )
    return lambda2


def fiedler_vector(graph: Graph) -> FloatArray:
    """Unit eigenvector for ``lambda_2`` of ``L``.

    For disconnected graphs raises; ties between eigenvectors are resolved
    by the eigensolver and are acceptable for the sweep-cut heuristic.
    """
    if graph.num_vertices > DENSE_CUTOFF:
        values, vectors = _lowest_two_sparse(laplacian_sparse(graph))
    else:
        values, vectors = scipy.linalg.eigh(laplacian_matrix(graph))
    if values[1] < ZERO_TOLERANCE:
        raise DisconnectedGraphError(f"{graph.name} appears disconnected")
    return vectors[:, 1]


def generalized_spectrum(graph: Graph, speeds: object) -> FloatArray:
    """All eigenvalues of ``L S^{-1}`` in ascending order.

    Computed from the symmetrized form ``S^{-1/2} L S^{-1/2}`` which has
    the same spectrum (Lemma 1.13) but is symmetric.
    """
    if graph.num_vertices > DENSE_CUTOFF:
        raise SpectralError(
            f"full generalized spectrum requested for n={graph.num_vertices}; "
            "use generalized_lambda2 instead"
        )
    values = scipy.linalg.eigvalsh(symmetrized_laplacian(graph, speeds))
    return np.clip(values, 0.0, None)


def generalized_lambda2(graph: Graph, speeds: object) -> float:
    """Second-smallest eigenvalue ``mu_2`` of ``L S^{-1}``.

    By Corollary 1.16 this lies in ``[lambda_2/s_max, lambda_2/s_min]``.
    """
    speeds_array = check_array_1d(speeds, "speeds", length=graph.num_vertices)
    if graph.num_vertices <= DENSE_CUTOFF:
        spectrum = generalized_spectrum(graph, speeds_array)
        mu2 = float(spectrum[1])
    else:
        inv_sqrt = sp.diags(1.0 / np.sqrt(speeds_array))
        sym = inv_sqrt @ laplacian_sparse(graph) @ inv_sqrt
        values, _ = _lowest_two_sparse(sym)
        mu2 = float(values[1])
    if mu2 < ZERO_TOLERANCE:
        raise DisconnectedGraphError(
            f"{graph.name} appears disconnected (mu_2 = {mu2:.2e})"
        )
    return mu2


def spectral_gap_ratio(graph: Graph, strict: bool = True) -> float:
    """``Delta / lambda_2`` — the graph factor in the paper's bounds.

    ``strict=False`` returns ``inf`` for disconnected graphs (where
    ``lambda_2 = 0``) instead of raising, so per-round traces can record
    the bound degrading to infinity through a partition window.
    """
    lambda2 = algebraic_connectivity(graph, strict=strict)
    if lambda2 == 0.0:
        return float("inf")
    return graph.max_degree / lambda2
