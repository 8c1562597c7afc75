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
- an inverse holds one items x items working array beside its input: the
  core is factored in its own buffer, and ``invert(m, overwrite=True)``,
  for a caller that owns m and reads it no more (EASE's private copy of
  its system, not MSLIM's K, which its direct columns read again), writes
  the inverse into m's buffer
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

# Rows or columns that a blockwise pass over an n x n array takes at a
# time: a block's scratch stays a small share of n^2 at a few hundred
# items, and the passes' call overhead small at a few thousand.
_BLOCK = 16


def row_blocks(n):
    """Slices of _BLOCK rows (or columns) that cover n."""
    return [slice(lo, lo + _BLOCK) for lo in range(0, n, _BLOCK)]


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
    """m's 1-norm, its largest column sum of |m|: LAPACK's infinity norm of
    m^T (dlange), which is Fortran-ordered when m is C-ordered, so no |m|
    copy is made. It sums each column in row order, as numpy would."""
    return lapack.dlange("I", m.T)


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


def _cholesky(k, rows=None):
    """(R, rcond): the upper Cholesky factor of a symmetric positive definite
    C-ordered k and dpocon's rcond. dpotrf factors k^T, which is k's own
    buffer in Fortran order and equals k, in place (it reads k's lower
    triangle), so k is destroyed and R is stored in it."""
    anorm = _norm1(k)
    c, info = lapack.dpotrf(k.T, overwrite_a=1)
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
    """The inverse from the Fortran-ordered Cholesky factor ``c``, in its
    buffer: dpotri, mirrored from the upper triangle so it is bitwise
    symmetric. The mirror goes a block of columns at a time: the columns
    below a block's diagonal block lie apart from the rows it copies, so no
    copy of the whole inverse is made."""
    inv, info = lapack.dpotri(c, overwrite_c=1)
    if info != 0:
        raise SingularMatrixError(f"dpotri failed with info={info}", pivot=None)
    for at in row_blocks(len(inv)):
        inv[at.stop:, at] = inv[at, at.stop:].T
        d = inv[at, at]
        np.copyto(d, d.T, where=np.tri(len(d), k=-1, dtype=bool))
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


def invert(m, spd=False, return_rcond=False, overwrite=False):
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

    K is gathered (or, with D empty, copied) and factored in place; it must
    be bitwise symmetric, as it is by construction in the solvers, because
    the factorization reads its lower triangle. ``overwrite`` is for a
    caller that owns m and needs it no more, such as a fit's private copy of
    its system: m's contents are then destroyed, and with N nonempty the
    inverse is written into m's buffer (with D empty it is m's buffer read
    in Fortran order) instead of a new array. A caller that reads m again,
    or shares it, leaves ``overwrite`` off; m is then left untouched. The
    inverse's bytes do not depend on it.
    """
    m = _square(m)
    n = len(m)
    core = _core_mask(spd, n)
    if core.all():
        c, rcond = _cholesky(m if overwrite else m.copy())
        p = _cholesky_inverse(c)
    elif not core.any():
        p, rcond = _lu_solve(m, np.eye(n))
    else:
        N, D = np.flatnonzero(core), np.flatnonzero(~core)
        k, m_nd = m[np.ix_(N, N)], m[np.ix_(N, D)]
        m_dn, m_dd = m[np.ix_(D, N)], m[np.ix_(D, D)]
        c, rcond = _cholesky(k, rows=N)
        y_nd, y_dn = _tri(c, m_nd, 1), _tri(c, m_dn.T, 1)
        s = y_dn.T @ y_nd  # T = M_DD - S, S = M_DN Z M_ND
        t_inv, t_rcond = _lu_solve(m_dd - s, np.eye(len(D)), rows=D,
                                   anorm=_norm1(m_dd) + _norm1(s))
        del m_nd, m_dn, m_dd, s
        u, w = _tri(c, y_nd), t_inv @ _tri(c, y_dn).T  # Z M_ND and T^-1 M_DN Z
        del y_nd, y_dn
        z = blas.dgemm(1.0, u, w, beta=1.0, c=_cholesky_inverse(c), overwrite_c=1)
        p = m if overwrite else np.empty_like(m)
        # a block of rows at a time, so that the scratch is a few rows, not |N| x n
        for rows, left, right in ((N, z, -(u @ t_inv)), (D, -w, t_inv)):
            for at in row_blocks(len(rows)):
                block = np.empty((len(rows[at]), n))
                block[:, N], block[:, D] = left[at], right[at]
                p[rows[at]] = block
        rcond = min(rcond, t_rcond)
    return (p, rcond) if return_rcond else p
