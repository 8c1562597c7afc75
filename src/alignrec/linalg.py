"""Dense/sparse matrix primitives shared by the solvers.

Conventions
-----------
- sparse matrices are scipy CSR (row-major with per-row offsets); column
  access is served by a one-time transposed/CSC copy where needed
- dense matrices are float64 ndarrays; all accumulation is double precision
- Gram outputs are symmetrized post hoc so ``G == G.T`` holds bitwise
- linear solves use a general pivoted LU factorization. An inverse goes
  through the symmetric positive definite core the caller names
  (``invert(m, spd=...)``): Cholesky on the core, LU only on the Schur
  complement of the rest, so ``spd=True`` is a plain Cholesky inverse and
  ``spd=False`` a plain LU one. The aligned systems are X^T X (scaled by
  w1 >= 0 under MSLIM) plus lambda1 I with lambda1 > 0, plus the cross term
  X^T B = alpha X^T X G diag(d), which is zero off the columns whose decay
  weight d is nonzero; so the solvers name the items without decay weight
  as the core, unless a term that couples every item (lambda0 FF^T) or a
  zero lambda1 (MSLIM) leaves none
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, lapack

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
    """m as float64; ValueError unless m is square."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _norm1(m):
    return np.abs(m).sum(axis=0).max() if m.size else 0.0


def _lu_solve(m, b, rows=None, anorm=None):
    """(X, rcond): ``M @ X = B`` by pivoted LU, B a matrix of stacked
    right-hand sides. ``rows`` maps m's positions to the rows named in
    errors; ``anorm`` is the 1-norm the rcond is taken against (m's own by
    default)."""
    m = _square(m)
    anorm = _norm1(m) if anorm is None else anorm
    lu, piv, info = lapack.dgetrf(m)
    if info > 0:
        pivot = _named(info - 1, rows)
        raise SingularMatrixError(
            f"matrix is exactly singular (zero pivot at index {pivot})", pivot=pivot)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgetrf")
    rcond, _ = lapack.dgecon(lu, anorm, norm="1")
    _require_rcond(rcond, lu, rows)
    x, info = lapack.dgetrs(lu, piv, b)
    if info != 0:
        raise SingularMatrixError(f"dgetrs failed with info={info}", pivot=None)
    return np.ascontiguousarray(x), rcond


def _cholesky(m, rows=None):
    """(R, rcond): the upper Cholesky factor of a symmetric positive definite
    m (dpotrf, which reads only m's upper triangle) and dpocon's rcond."""
    m = _square(m)
    anorm = _norm1(m)
    c, info = lapack.dpotrf(m)
    if info > 0:
        raise SingularMatrixError(
            f"matrix is not positive definite to working precision "
            f"(leading minor {info})", pivot=_named(info - 1, rows))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    rcond, _ = lapack.dpocon(c, anorm)
    _require_rcond(rcond, c, rows)
    return c, rcond


def _cholesky_inverse(c):
    """The inverse from the Cholesky factor ``c`` (overwritten): dpotri,
    mirrored from the upper triangle so it is bitwise symmetric."""
    inv, info = lapack.dpotri(c, overwrite_c=1)
    if info != 0:
        raise SingularMatrixError(f"dpotri failed with info={info}", pivot=None)
    np.copyto(inv, inv.T, where=np.tri(len(inv), k=-1, dtype=bool))
    return inv


def _tri(c, b, trans=0):
    """R^-1 b (R^-T b with ``trans``), R the upper triangle of ``c``: dtrtrs."""
    return lapack.dtrtrs(c, b, trans=trans)[0]


def _named(pivot, rows):
    return pivot if rows is None else int(rows[pivot])


def _require_rcond(rcond, factor, rows=None):
    """Raise SingularMatrixError unless rcond >= RCOND_FLOOR (a NaN fails too)."""
    if not rcond >= RCOND_FLOOR:
        # the factor's smallest |diagonal| entry marks the offending pivot
        pivot = _named(int(np.argmin(np.abs(np.diag(factor)))), rows)
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
    x = _lu_solve(m, b)[0]
    return x[:, 0] if squeeze else x


def _core_mask(spd, n):
    """``invert``'s spd argument as a boolean mask over n rows."""
    core = np.asarray(spd)
    if core.dtype != bool or core.shape not in ((), (n,)):
        raise ValueError(f"spd must be a bool or a boolean mask over the {n} rows, got {spd!r}")
    return np.broadcast_to(core, (n,))


def invert(m, spd=False, return_rcond=False):
    """Dense inverse of a square matrix, through its symmetric positive
    definite core.

    ``spd`` names the rows N whose block K = M_NN the caller knows to be
    symmetric positive definite by construction: True (all), False (none)
    or a boolean mask. The rest, D, may be anything. K is factored by
    Cholesky, K = R^T R (dpotrf, dpocon), and inverted from R (dpotri,
    mirrored, so Z = K^-1 is bitwise symmetric). D goes through the Schur
    complement T = M_DD - M_DN Z M_ND by pivoted LU (dgetrf, dgecon):

        P_NN = Z + Z M_ND T^-1 M_DN Z,   P_ND = -Z M_ND T^-1,
        P_DN = -T^-1 M_DN Z,             P_DD = T^-1

    (Golub & Van Loan, Matrix Computations, on block elimination). T is
    formed from the triangular solves R^-T M_ND and R^-T M_DN^T, as an LU
    forms its trailing block, and its rcond is taken against the 1-norms of
    the two terms it is the difference of, so a T that cancels to rounding
    noise (M singular to working precision) fails the floor.

    With D empty this is the Cholesky inverse of m, with N empty
    solve_general against the identity. A non-positive Cholesky pivot, or
    an rcond below 1e-12 in either factorization, raises
    SingularMatrixError naming a row of m. With ``return_rcond`` the result
    is (inverse, the smaller rcond).
    """
    m = _square(m)
    n = len(m)
    core = _core_mask(spd, n)
    if core.all():
        c, rcond = _cholesky(m)
        p = _cholesky_inverse(c)
    elif not core.any():
        p, rcond = _lu_solve(m, np.eye(n))
    else:
        N, D = np.flatnonzero(core), np.flatnonzero(~core)
        m_n, m_d = m.take(N, axis=0), m.take(D, axis=0)
        k, m_nd = m_n.take(N, axis=1), m_n.take(D, axis=1)
        del m_n
        c, rcond = _cholesky(k, rows=N)
        del k
        y_nd, y_dn = _tri(c, m_nd, 1), _tri(c, m_d.take(N, axis=1).T, 1)
        m_dd, s = m_d.take(D, axis=1), y_dn.T @ y_nd  # T = M_DD - S, S = M_DN Z M_ND
        t_inv, t_rcond = _lu_solve(m_dd - s, np.eye(len(D)), rows=D,
                                   anorm=_norm1(m_dd) + _norm1(s))
        u, w = _tri(c, y_nd), t_inv @ _tri(c, y_dn).T  # Z M_ND and T^-1 M_DN Z
        z = blas.dgemm(1.0, u, w, beta=1.0, c=_cholesky_inverse(c), overwrite_c=1)
        p = np.empty_like(m)
        for rows, left, right in ((N, z, -(u @ t_inv)), (D, -w, t_inv)):
            block = np.empty((len(rows), n))
            block[:, N], block[:, D] = left, right
            p[rows] = block
        rcond = min(rcond, t_rcond)
    return (p, rcond) if return_rcond else p
