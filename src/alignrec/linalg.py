"""Dense/sparse matrix primitives shared by the solvers.

Conventions
-----------
- sparse matrices are scipy CSR (row-major with per-row offsets); column
  access is served by a one-time transposed/CSC copy where needed
- dense matrices are float64 ndarrays; all accumulation is double precision
- an inner-product matrix (X^T X, or Z Z^T as ``gram(Z.T)``) is formed only
  by ``gram``, bitwise symmetric by construction: its input is first made
  canonical CSR or contiguous, so the product sums each pair in one order
- linear solves use a general pivoted LU factorization. An inverse
  (``invert(m, spd=...)``) follows one rule: the symmetric positive
  definite core the caller names is factored by Cholesky, and the rest,
  the Schur complement of the core or, with no core, all of m, is inverted
  in place by LU (dgetrf, dgetri), so ``spd=True`` is a plain Cholesky
  inverse and ``spd=False`` a plain LU one. The aligned systems are X^T X
  (scaled by w1 >= 0 under MSLIM) plus lambda1 I, plus lambda0 FF^T under
  EASE with features, plus the cross term X^T B = alpha X^T X G diag(d),
  which is zero off the columns whose decay weight d is nonzero; so the
  solvers name the items without decay weight as the core, unless a zero
  lambda1 (MSLIM) leaves none
- on every route an inverse checks, and returns, m's own reciprocal
  condition number in the 1-norm, 1 / (||m||_1 ||m^-1||_1), exactly: the
  inverse is formed in full anyway, so its norm is one O(n^2) pass
- an inverse holds one items x items working array beside its input: the
  core is factored and the rest inverted in their own buffers, and
  ``invert(m, overwrite=True)``, for a caller that owns m and reads it no
  more (EASE's private copy of its system, not MSLIM's K, which its direct
  columns read again), writes the inverse into m's buffer
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


def gram(a):
    """``A^T A`` of a sparse matrix or an array a, shape (m, n), as a dense
    (n, n) float64 matrix, bitwise symmetric by construction: the product
    sums pair (i, j) in the order of (j, i) when a is canonical sparse
    (sorted indices, no duplicates) or C- or F-contiguous (numpy then calls
    BLAS's symmetric rank-k update), so any other a is first copied, into
    canonical CSR or a C-contiguous array."""
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError(f"gram requires a nonempty matrix, got shape {a.shape}")
    check_dense_budget(a.shape[1], a.shape[1], what="Gram matrix")
    if sp.issparse(a):
        if not getattr(a, "has_canonical_format", False):
            a = a.tocsr(copy=True)
            a.sum_duplicates()
        return (a.T @ a).toarray().astype(np.float64, copy=False)
    a = np.asarray(a, dtype=np.float64)
    if not (a.flags.c_contiguous or a.flags.f_contiguous):
        a = np.ascontiguousarray(a)
    return a.T @ a


def _square(m):
    """m as float64; ValueError unless m is square."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _norm1(m):
    """m's 1-norm, its largest column sum of |m|: LAPACK's dlange on m or on
    m^T, whichever is Fortran-ordered, so that no copy of m is made. It sums
    each column in row order, as numpy would."""
    return lapack.dlange("1", m) if m.flags.f_contiguous else lapack.dlange("I", m.T)


def _named(pivot, rows):
    return pivot if rows is None else int(rows[pivot])


def _require_pivots(info, rows=None):
    """Raise unless dgetrf's ``info`` is 0: an exactly zero pivot raises
    SingularMatrixError naming its row (of ``rows``)."""
    if info > 0:
        pivot = _named(info - 1, rows)
        raise SingularMatrixError(
            f"matrix is exactly singular (zero pivot at index {pivot})", pivot=pivot)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgetrf")


def _require_rcond(rcond, pivots):
    """Raise SingularMatrixError unless rcond >= RCOND_FLOOR (a NaN fails
    too), naming the row at the smallest of the factors' |diagonal|
    entries ``pivots``."""
    if not rcond >= RCOND_FLOOR:
        pivot = int(np.argmin(pivots))
        raise SingularMatrixError(
            f"matrix is singular to working precision "
            f"(rcond={rcond:.3e} < {RCOND_FLOOR:.0e}, pivot {pivot}); "
            f"raise the ridge terms if this came from a solver",
            pivot=pivot,
        )


def _cholesky(k, rows=None):
    """The upper Cholesky factor R of a symmetric positive definite C-ordered
    k, in k's buffer: dpotrf factors k^T, which is k's own buffer in Fortran
    order and equals k, in place (it reads k's lower triangle). A pivot that
    is not positive raises SingularMatrixError naming its row (of ``rows``)."""
    c, info = lapack.dpotrf(k.T, overwrite_a=1)
    if info > 0:
        raise SingularMatrixError(
            f"matrix is not positive definite to working precision "
            f"(leading minor {info})", pivot=_named(info - 1, rows))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return c


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


def _lu_inverse(a, rows=None):
    """(A^-1, the |diagonal| of its LU factor U): the inverse of a C-ordered
    a, in a's buffer. dgetrf factors a^T, which is a's buffer in Fortran
    order, in place, and dgetri inverts it there, with no identity
    right-hand side: A^-T read in C order is A^-1. dgetri's workspace is
    _BLOCK columns. An exactly zero pivot raises SingularMatrixError naming
    its row (of ``rows``)."""
    lu, piv, info = lapack.dgetrf(a.T, overwrite_a=1)
    _require_pivots(info, rows)
    pivots = np.abs(np.diag(lu))
    inv, info = lapack.dgetri(lu, piv, lwork=_BLOCK * len(lu), overwrite_lu=1)
    if info != 0:
        raise SingularMatrixError(f"dgetri failed with info={info}", pivot=None)
    return inv.T, pivots


def _tri(c, b, trans=0):
    """R^-1 b (R^-T b with ``trans``), R the upper triangle of ``c``: dtrtrs,
    in b's buffer when b is Fortran-ordered."""
    return lapack.dtrtrs(c, b, trans=trans, overwrite_b=1)[0]


def solve_general(m, rhs):
    """Solve ``M @ S = RHS`` with a general pivoted LU factorization.

    Never assumes symmetry. Raises SingularMatrixError (with the pivot
    index) if M is singular to working precision: dgecon's estimate of its
    1-norm rcond is below 1e-12, since no inverse is formed whose norm
    would give it exactly.

    ``rhs`` may be a vector or a matrix of stacked right-hand sides; the
    solution has the same shape.
    """
    m = _square(m)
    rhs = np.asarray(rhs, dtype=np.float64)
    squeeze = rhs.ndim == 1
    b = rhs[:, None] if squeeze else rhs
    if b.shape[0] != m.shape[0]:
        raise ValueError(
            f"rhs has {b.shape[0]} rows, system matrix has {m.shape[0]}"
        )
    anorm = _norm1(m)
    lu, piv, info = lapack.dgetrf(m)
    _require_pivots(info)
    rcond, _ = lapack.dgecon(lu, anorm, norm="1")
    _require_rcond(rcond, np.abs(np.diag(lu)))
    x, info = lapack.dgetrs(lu, piv, b)
    if info != 0:
        raise SingularMatrixError(f"dgetrs failed with info={info}", pivot=None)
    x = np.ascontiguousarray(x)
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
    Cholesky, K = R^T R (dpotrf), and inverted from R (dpotri, mirrored, so
    Z = K^-1 is bitwise symmetric). D goes through the Schur complement
    T = M_DD - M_DN Z M_ND, inverted by pivoted LU (dgetrf, dgetri):

        P_NN = Z + Z M_ND T^-1 M_DN Z,   P_ND = -Z M_ND T^-1,
        P_DN = -T^-1 M_DN Z,             P_DD = T^-1

    (Golub & Van Loan, Matrix Computations, on block elimination). T is
    formed from the triangular solves R^-T M_ND and R^-T M_DN^T, as an LU
    forms its trailing block. With D empty this is the Cholesky inverse of
    m, with N empty its LU inverse (T = M).

    The inverse P is checked on every route by m's own reciprocal condition
    number in the 1-norm, 1 / (||M||_1 ||P||_1) (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 15), with ||M||_1 taken before
    any step in place: below 1e-12 (or NaN) raises SingularMatrixError
    naming the row of m at the smallest |diagonal| entry of the factors R
    and U. A non-positive Cholesky pivot or an exactly zero LU pivot raises
    it earlier, naming its row. With ``return_rcond`` the result is
    (inverse, rcond).

    K is gathered (or, with D empty, copied) and factored in place; it must
    be bitwise symmetric, as it is by construction in the solvers, because
    the factorization reads its lower triangle. ``overwrite`` is for a
    caller that owns m and needs it no more, such as a fit's private copy of
    its system: m's contents are then destroyed, and the inverse is written
    into m's buffer (with D empty it is m's buffer read in Fortran order)
    instead of a new array. A caller that reads m again, or shares it,
    leaves ``overwrite`` off; m is then left untouched. The inverse's bytes
    do not depend on it.
    """
    m = _square(m)
    n = len(m)
    core = _core_mask(spd, n)
    anorm = _norm1(m)
    if core.all():
        c = _cholesky(m if overwrite else m.copy())
        pivots = np.abs(np.diag(c))
        p = _cholesky_inverse(c)
    elif not core.any():
        p, pivots = _lu_inverse(m if overwrite else m.copy())
    else:
        N, D = np.flatnonzero(core), np.flatnonzero(~core)
        # M_ND in Fortran order and M_DN in C order, so that the triangular
        # solves take them, and then their results, in place; a row gather,
        # then a take, needs no index buffer
        k, t = m[np.ix_(N, N)], m[np.ix_(D, D)]
        m_nd, m_dn = m.T[D].take(N, 1).T, m[D].take(N, 1)
        pivots = np.empty(n)
        c = _cholesky(k, rows=N)
        pivots[N] = np.abs(np.diag(c))
        y_nd, y_dn = _tri(c, m_nd, 1), _tri(c, m_dn.T, 1)
        t -= y_dn.T @ y_nd  # T = M_DD - M_DN Z M_ND
        t_inv, pivots[D] = _lu_inverse(t, rows=D)
        u, w = _tri(c, y_nd), t_inv @ _tri(c, y_dn).T  # Z M_ND and T^-1 M_DN Z
        del m_nd, m_dn, y_nd, y_dn
        z = blas.dgemm(1.0, u, w, beta=1.0, c=_cholesky_inverse(c), overwrite_c=1)
        u = u @ t_inv
        u *= -1.0  # P_ND
        w *= -1.0  # P_DN
        p = m if overwrite else np.empty_like(m)
        # a block of rows at a time, so that the scratch is a few rows, not |N| x n
        for rows, left, right in ((N, z, u), (D, w, t_inv)):
            for at in row_blocks(len(rows)):
                block = np.empty((len(rows[at]), n))
                block[:, N], block[:, D] = left[at], right[at]
                p[rows[at]] = block
    rcond = 1.0 / (anorm * _norm1(p))
    _require_rcond(rcond, pivots)
    return (p, rcond) if return_rcond else p
