"""Dense/sparse matrix primitives shared by the solvers.

Conventions
-----------
- sparse matrices are scipy CSR (row-major with per-row offsets); column
  access is served by a one-time transposed/CSC copy where needed
- dense matrices are float64 ndarrays; all accumulation is double precision
- Gram outputs are symmetrized post hoc so ``G == G.T`` holds bitwise
- linear solves use a general pivoted LU factorization unless the caller
  states that the matrix is symmetric positive definite by construction
  (``invert(m, spd=True)``, a Cholesky). The aligned systems carry the
  non-symmetric cross term X^T B, so the solvers claim SPD only for a warm
  block with no decay weight on a warm item: there the block is X^T X
  times a non-negative scale plus lambda1 I with lambda1 > 0
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .errors import CapacityError, SingularMatrixError

# Largest dense intermediate we will allocate by default (bytes).
DEFAULT_MEMORY_BUDGET = 16 * 2**30

# Reciprocal condition estimate below which a system is treated as singular.
RCOND_FLOOR = 1e-12


def check_dense_budget(rows, cols, what="matrix"):
    """Raise CapacityError if a rows x cols float64 array exceeds the budget."""
    nbytes = int(rows) * int(cols) * 8
    if nbytes > DEFAULT_MEMORY_BUDGET:
        raise CapacityError(
            f"dense {what} of shape ({rows}, {cols}) needs {nbytes} bytes, "
            f"exceeding the {DEFAULT_MEMORY_BUDGET}-byte memory budget"
        )


def _symmetrize(c):
    # exact: 0.5*(a+b) == 0.5*(b+a) in IEEE arithmetic
    return 0.5 * (c + c.T)


def gram(a):
    """Compute ``A^T A`` as a dense symmetric float64 matrix.

    Parameters
    ----------
    a : scipy sparse matrix or ndarray, shape (m, n)

    Returns
    -------
    ndarray, shape (n, n), bitwise symmetric.
    """
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError(f"gram requires a nonempty matrix, got shape {a.shape}")
    check_dense_budget(a.shape[1], a.shape[1], what="Gram matrix")
    if sp.issparse(a):
        c = (a.T @ a).toarray().astype(np.float64, copy=False)
    else:
        a = np.asarray(a, dtype=np.float64)
        c = a.T @ a
    return _symmetrize(c)


def _square(m):
    """m as float64 and its 1-norm; ValueError unless m is square."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m, (np.abs(m).sum(axis=0).max() if m.size else 0.0)


def _lu_factor(m):
    """Pivoted LU of a square matrix; raises on singularity."""
    m, anorm = _square(m)
    lu, piv, info = lapack.dgetrf(m)
    if info > 0:
        raise SingularMatrixError(
            f"matrix is exactly singular (zero pivot at index {info - 1})",
            pivot=info - 1,
        )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgetrf")
    rcond, _ = lapack.dgecon(lu, anorm, norm="1")
    _require_rcond(rcond, lu)
    return lu, piv


def _require_rcond(rcond, factor):
    """Raise SingularMatrixError unless rcond >= RCOND_FLOOR (a NaN fails too)."""
    if not rcond >= RCOND_FLOOR:
        # the factor's smallest |diagonal| entry marks the offending pivot
        pivot = int(np.argmin(np.abs(np.diag(factor))))
        raise SingularMatrixError(
            f"matrix is singular to working precision "
            f"(rcond={rcond:.3e} < {RCOND_FLOOR:.0e}, pivot {pivot}); "
            f"raise the ridge terms if this came from a solver",
            pivot=pivot,
        )


def solve_general(m, rhs):
    """Solve ``M @ S = RHS`` with a general pivoted LU factorization.

    Never assumes symmetry. Raises SingularMatrixError (with the pivot
    index) if M is singular to working precision (rcond < 1e-12).

    ``rhs`` may be a vector or a matrix of stacked right-hand sides; the
    solution has the same shape.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    squeeze = rhs.ndim == 1
    b = rhs[:, None] if squeeze else rhs
    if b.shape[0] != m.shape[0]:
        raise ValueError(
            f"rhs has {b.shape[0]} rows, system matrix has {m.shape[0]}"
        )
    lu, piv = _lu_factor(m)
    x, info = lapack.dgetrs(lu, piv, b)
    if info != 0:
        raise SingularMatrixError(f"dgetrs failed with info={info}", pivot=None)
    x = np.ascontiguousarray(x)
    return x[:, 0] if squeeze else x


def invert(m, spd=False):
    """Dense inverse of a square matrix.

    By default solve_general against the identity. With ``spd`` (the caller
    knows m is symmetric positive definite by construction) a Cholesky
    factorization (dpotrf, only m's upper triangle is read) and dpotri,
    mirrored from the upper triangle so the inverse is bitwise symmetric. A
    non-positive pivot or rcond < 1e-12 raises SingularMatrixError.
    """
    if not spd:
        return solve_general(m, np.eye(m.shape[0]))
    m, anorm = _square(m)
    c, info = lapack.dpotrf(m)
    if info > 0:
        raise SingularMatrixError(
            f"matrix is not positive definite to working precision "
            f"(leading minor {info})", pivot=info - 1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    rcond, _ = lapack.dpocon(c, anorm)
    _require_rcond(rcond, c)
    inv, info = lapack.dpotri(c, overwrite_c=1)
    if info != 0:
        raise SingularMatrixError(f"dpotri failed with info={info}", pivot=None)
    lower = np.tril_indices(len(inv), -1)
    inv[lower] = inv.T[lower]
    return inv
