"""Dense symmetric-matrix algebra used by every solver.

All functions operate on plain ``numpy`` arrays.  Matrices are symmetrized
once, at construction time (``sym_matrix``); downstream code may then assume
exact symmetry.  ``sym_eigen`` fixes eigenvector signs so that the vectors
it returns are deterministic; ``spectral_fns``, the kernel of every matrix
function, skips that step because ``V f(L) V.T`` does not depend on them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionError, InvalidInput, InvalidParameter, SingularMatrix

__all__ = [
    "EigenPair",
    "sym_matrix",
    "sym_eigen",
    "spectral_fns",
    "fro_norm",
    "eig_floor",
    "sq_distances",
    "MATRIX_FUNCTIONS",
]

#: Relative floor below which an eigenvalue is treated as zero in ``log`` and
#: ``invsqrt`` (scaled by max(1, trace/n)).
EIG_FLOOR_REL = 1e-12

_SPECTRAL_MAPS = {
    "sqrt": lambda v: np.sqrt(np.clip(v, 0.0, None)),
    "invsqrt": lambda v: 1.0 / np.sqrt(v),
    "log": np.log,
    "exp": np.exp,
}
MATRIX_FUNCTIONS = tuple(_SPECTRAL_MAPS)


class EigenPair(NamedTuple):
    """Eigendecomposition with values sorted in nonincreasing order."""

    values: np.ndarray   # shape (n,)
    vectors: np.ndarray  # shape (n, n), orthonormal columns


def sym_matrix(entries) -> np.ndarray:
    """Symmetric part ``(M + M.T) / 2`` of a square, nonempty, finite matrix.

    Raises ``DimensionError`` if the array is not square and ``InvalidInput``
    if it is empty or contains non-finite values.  Symmetrising once, at
    construction, keeps all later operations drift-free.
    """
    m = np.asarray(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise InvalidInput("matrix dimension must be >= 1")
    if not np.isfinite(m).all():
        raise InvalidInput("matrix contains non-finite entries")
    return (m + m.T) / 2.0


def sym_eigen(M) -> EigenPair:
    """Eigendecomposition of a symmetric matrix.

    Returns eigenvalues in nonincreasing order and unit eigenvectors whose
    first nonzero component is positive, which makes repeated calls (and all
    downstream results) deterministic.
    """
    m = sym_matrix(M)
    values, vectors = np.linalg.eigh(m)
    values = values[::-1].copy()
    vectors = np.ascontiguousarray(vectors[:, ::-1])
    for j in range(vectors.shape[1]):
        nonzero = np.flatnonzero(vectors[:, j])
        if nonzero.size and vectors[nonzero[0], j] < 0:
            vectors[:, j] = -vectors[:, j]
    return EigenPair(values, vectors)


def eig_floor(M) -> float:
    """Smallest eigenvalue magnitude treated as positive for ``M``.

    Scale-adaptive: ``1e-12 * max(1, trace(M)/n)``.
    """
    m = np.asarray(M, dtype=float)
    n = m.shape[0]
    return EIG_FLOOR_REL * max(1.0, float(np.trace(m)) / n)


def spectral_fns(M: np.ndarray, *tags: str, extremes: bool = False) -> tuple:
    """Several functions of one symmetric matrix from a single ``eigh``.

    ``M`` is not validated: it must be a float array that is symmetric up
    to roundoff (``eigh`` reads only its lower triangle), such as the output
    of ``sym_matrix`` or a congruence ``A @ S @ A``.  Returns one symmetric
    matrix ``V f(L) V.T`` per tag, in the order given, followed, when
    ``extremes`` is set, by the pair ``(smallest, largest)`` eigenvalue.

    ``log`` and ``invsqrt`` need the smallest eigenvalue at or above
    ``eig_floor(M)``; ``sqrt`` clips negative eigenvalues to zero; ``exp``
    needs nothing.

    Raises
    ------
    InvalidParameter
        For an unknown tag.
    InvalidInput
        When the spectrum is not finite (a NaN or infinite entry in ``M``).
    SingularMatrix
        When ``log`` or ``invsqrt`` meets an eigenvalue below the floor.
    """
    for f in tags:
        if f not in MATRIX_FUNCTIONS:
            raise InvalidParameter(f"unknown matrix function tag {f!r}")
    values, vectors = np.linalg.eigh(M)
    if not np.isfinite(values).all():
        raise InvalidInput("matrix has a non-finite spectrum")
    lowest = float(values[0])
    if "log" in tags or "invsqrt" in tags:
        floor = eig_floor(M)
        if lowest < floor:
            raise SingularMatrix(
                f"{'/'.join(tags)} needs eigenvalues >= {floor:.3e}; got {lowest:.3e}"
            )
    out = []
    for f in tags:
        x = (vectors * _SPECTRAL_MAPS[f](values)) @ vectors.T
        out.append((x + x.T) / 2.0)
    if extremes:
        out.append((lowest, float(values[-1])))
    return tuple(out)


def fro_norm(X) -> float:
    """Frobenius norm of a matrix."""
    return float(np.linalg.norm(np.asarray(X, dtype=float), "fro"))


def sq_distances(rows: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of an (n, p) array.

    Uses the Gram identity ``|x_i|^2 + |x_j|^2 - 2 <x_i, x_j>``, so memory
    is O(n^2 + np).  The result is exactly symmetric, with a zero diagonal
    and no negative entries.
    """
    # Distances ignore translation; centring first keeps the identity from
    # cancelling away all precision on rows that share a large offset.
    x = rows - rows.mean(axis=0)
    g = x @ x.T
    sq = np.diag(g)
    d2 = sq[:, None] + sq[None, :] - 2.0 * g
    d2 = (d2 + d2.T) / 2.0
    np.fill_diagonal(d2, 0.0)
    return np.clip(d2, 0.0, None, out=d2)
