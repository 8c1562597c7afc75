"""Closed-form item-item solvers and score prediction.

Two backbones share the aligned-system structure:

- EASE: one global ridge system with the zero-diagonal constraint folded
  in through a Lagrangian diagonal correction
- modified SLIM: per-column weighted ridge with a diagonal penalty gamma1
  instead of the hard constraint, negatives down-weighted by w1. Every
  column's system is one shared matrix K plus a low-rank term from the
  users who clicked the item, so K is inverted once and each column takes
  a Sherman-Morrison-Woodbury step with a small capacitance solve (a
  closed form when no user clicked it). The Woodbury columns share Y = X Q,
  users x items with Q = K^-1 (times I + H when a clicked item has a decay
  weight), formed once per fit as Y^T. They are ordered by click count and
  cut into groups whose padded gather of Y^T fits a cell budget
  (_GROUP_CELLS, 2^18, and at most half of Y): a group gathers Y^T once and
  forms all its capacitances in one sparse product, and P U products over
  64 columns at a time apply the updates. A column solves its full system
  directly when the capacitance would be as large as K or fails the rcond
  check, and every column does when K itself is singular.

Both start from S = X^T (X + B), with X^T B taken from the Gram; an
alignment matrix B acts when it is given with alpha != 0. Every fit
solves on a partition of the items into W and the empty training columns
C it eliminates exactly (see FitContext); the general route is the
partition with C empty. A FitContext of the training matrix holds one
Gram per partition and, per B, X^T B on its decay columns D only: X^T B =
alpha X^T X G diag(d) is zero where the decay weight d is. X^T B is
non-symmetric, but off D the shared matrix is X^T X (times w1 >= 0 under
MSLIM) plus lambda1 I, which with lambda1 > 0 is symmetric positive
definite: its inverse takes a Cholesky on that core and an LU only on the
|D| x |D| Schur complement (linalg.invert). EASE with lambda0 FF^T, which
couples every item, and MSLIM with lambda1 = 0 invert by LU alone. A fit
whose weights are not all finite raises SolverError.
"""

from __future__ import annotations

import logging
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp

from .data import read_exact, read_item_id, read_json, write_json
from .errors import FormatError, SingularMatrixError, SolverError
from .linalg import check_dense_budget, gram, invert, row_blocks, solve_general

log = logging.getLogger(__name__)

MODEL_MAGIC = b"AITM0001"
# the solvers whose models save_model writes
SOLVERS = ("ease", "mslim", "itemknn")


@dataclass
class EaseConfig:
    lambda0: float = 0.0
    lambda1: float = 1.0

    def __post_init__(self):
        # chained tests, so that NaN and infinity are refused too
        if not 0 <= self.lambda0 < np.inf:
            raise ValueError(f"lambda0 must be finite and >= 0, got {self.lambda0}")
        if not 0 < self.lambda1 < np.inf:
            raise ValueError(f"lambda1 must be finite and > 0, got {self.lambda1}")


@dataclass
class MslimConfig:
    w1: float = 0.5
    lambda1: float = 0.0
    gamma1: float = 0.0
    w0: float = 1.0

    def __post_init__(self):
        if not 0 < self.w0 < np.inf:
            raise ValueError(f"w0 must be finite and > 0, got {self.w0}")
        for name in ("w1", "lambda1", "gamma1"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


@dataclass
class ItemModel:
    """Fitted item-item weights plus provenance.

    diagnostics carries wall time and fit residual summaries; it is the
    one part of a persisted model that may differ between identical runs.
    """

    theta: np.ndarray
    solver: str
    config: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    item_ids: tuple | None = None


def _feature_item_gram(F):
    """Item x item overlap FF^T for the collective feature term."""
    m = F.concat() if hasattr(F, "concat") else F
    if sp.issparse(m):
        return (m @ m.T).toarray().astype(np.float64, copy=False)
    m = np.asarray(m, dtype=np.float64)
    return m @ m.T


def _check_finite(theta):
    """Raise SolverError naming the columns of theta that hold NaN or infinity."""
    bad = np.flatnonzero(~np.isfinite(theta).all(axis=0))
    if len(bad):
        raise SolverError(
            f"{len(bad)} of {theta.shape[1]} columns have non-finite weights "
            f"(first: column {bad[0]}); check the inputs for NaN or infinity",
            columns=bad.tolist(),
        )


@dataclass(frozen=True)
class _System:
    """S = X^T (X + B) over a fit's items W, beside the empty columns C it
    eliminates (none on the general route), as the Gram plus X^T B, which is
    zero off the decay columns, the items whose decay weight d is nonzero."""

    items: np.ndarray      # W
    cold: np.ndarray       # C
    X: sp.csr_matrix       # X's W columns
    gram: np.ndarray       # X^T X over W; shared by every fit, so never changed in place
    decay: np.ndarray      # boolean mask over W: the decay columns D
    xtb: np.ndarray | None  # X^T B on D; None when B does not act
    wc: np.ndarray | None  # S_WC on the distinct columns of C; None when B does not act
    cold_index: np.ndarray | None  # each item of C's column of wc

    def shared(self, scale, lambda1):
        """A fresh scale S + lambda1 I over W."""
        s = self.gram.copy()
        if self.decay.any():
            s[:, self.decay] += self.xtb
        s *= scale
        s.flat[::len(s) + 1] += lambda1
        return s

    def restrict(self, a):
        """The W x W block of an items x items ``a``; ``a`` itself when C is empty."""
        return a[np.ix_(self.items, self.items)] if len(self.cold) else a

    def theta(self, theta_w, p, scale, k=None):
        """The n x n theta: ``theta_w`` on W x W, a column of C as k^-1 (scale
        S_WC), by p = k^-1 or, if p is None, by LU (SingularMatrixError if k
        is singular), and zero elsewhere; ``theta_w`` itself if C is empty."""
        if not len(self.cold):
            return theta_w
        n = len(self.items) + len(self.cold)
        theta = np.zeros((n, n))
        theta[np.ix_(self.items, self.items)] = theta_w
        if self.wc is not None:
            rhs = scale * self.wc
            cold = p @ rhs if p is not None else solve_general(k, rhs)
            theta[np.ix_(self.items, self.cold)] = cold[:, self.cold_index]
        return theta


class FitContext:
    """What every fit on one training matrix X shares.

    Items with an empty training column (C, the cold items under the cold
    protocol) have zero rows in X^T X and X^T B, so with W the other items
    the aligned systems are block upper-triangular with a lambda1 I corner.
    A fit that may eliminate C (fit_ease unless lambda0 > 0 with F,
    fit_mslim with lambda1 > 0) does so exactly: the C rows of theta are
    zero, theta_WW is the solver on the warm block, and a cold column is the
    warm block's inverse times its column of S_WC (scaled by w1 under
    MSLIM). Cold items whose warm rows of G and decay weights are equal byte
    for byte share one solved column, copied to each, so their scores tie
    exactly. The other fits, and any fit on a matrix with no empty column or
    only empty ones (``block`` False), take the general route: C is empty.

    The context holds, built on first use, one Gram per partition and, per
    partition and alignment matrix B (its G object, alpha and d), a
    _System: X^T B on the decay columns and the distinct columns of S_WC,
    from one B.xtb call. It is safe to share between threads.
    """

    def __init__(self, X):
        self.X = sp.csr_matrix(X)
        n = self.X.shape[1]
        clicked = np.bincount(self.X.indices, minlength=n) > 0
        self.warm, self.cold = np.flatnonzero(clicked), np.flatnonzero(~clicked)
        self.block = 0 < len(self.cold) < n
        self._parts, self._systems = {}, {}
        self._lock = threading.Lock()

    def system(self, B, eliminate):
        """The _System of alignment B (None or alpha = 0: no alignment) that
        eliminates C if ``eliminate`` and ``block``, else eliminates nothing."""
        eliminate = eliminate and self.block
        aligned = B is not None and B.alpha != 0.0
        key = (eliminate, id(B.G), B.alpha, B.d.tobytes()) if aligned else (eliminate,)
        with self._lock:
            if eliminate not in self._parts:
                W, C = ((self.warm, self.cold) if eliminate else
                        (np.arange(self.X.shape[1]), self.cold[:0]))
                X = self.X[:, W] if eliminate else self.X
                self._parts[eliminate] = (W, C, X, gram(X))
            if key not in self._systems:
                # the entry keeps B.G alive, so no other G can take its id
                self._systems[key] = (B.G if aligned else None,
                                      self._system(B if aligned else None, eliminate))
            return self._systems[key][1]

    def _system(self, B, eliminate):
        W, C, X, a = self._parts[eliminate]
        if B is None:
            return _System(W, C, X, a, np.zeros(len(W), dtype=bool), None, None, None)
        keys = np.ascontiguousarray(np.vstack([B.G[np.ix_(W, C)], B.d[None, C]]).T)
        _, first, index = np.unique(keys.view(np.dtype((np.void, keys.shape[1] * 8))).ravel(),
                                    return_index=True, return_inverse=True)
        decay = B.d[W] != 0.0
        xtb = B.xtb(a, rows=W if len(C) else None, cols=np.concatenate([W[decay], C[first]]))
        k = int(decay.sum())
        return _System(W, C, X, a, decay, xtb[:, :k], np.ascontiguousarray(xtb[:, k:]),
                       index.ravel())


def _context(X, context):
    """``context``, checked to be of X, or a new FitContext of X."""
    if context is None:
        return FitContext(X)
    if context.X is not X:
        X = sp.csr_matrix(X)
        if context.X.shape != X.shape:
            raise ValueError(f"the fit context is of a {context.X.shape} matrix, X is {X.shape}")
        if not all(np.array_equal(getattr(context.X, f), getattr(X, f))
                   for f in ("indptr", "indices", "data")):
            raise ValueError("the fit context is of another matrix than X")
    return context


def _fitted(theta, solver, cfg, aligned, X, t0, **diagnostics):
    """The fit's ItemModel: its config plus use_alignment, and its diagnostics."""
    diagnostics.update(n_items=int(X.shape[1]), n_users=int(X.shape[0]),
                       wall_time_s=time.perf_counter() - t0)
    return ItemModel(theta=theta, solver=solver,
                     config={**asdict(cfg), "use_alignment": aligned},
                     diagnostics=diagnostics)


def _route_facts(ctx, system, core, rcond):
    """How a fit solved, for its sidecar: the route (general when ``system``
    eliminates nothing), the factorization of its shared inverse by its
    Cholesky core ``core`` (a mask, or a bool for all or none), that
    inverse's smallest rcond (None if it failed) to 3 significant digits,
    since the estimators' last bits follow the memory alignment of the
    factor, and the empty columns solved (each distinct eliminated one once)."""
    distinct = 0 if system.wc is None else system.wc.shape[1]
    factorization = "cholesky" if np.all(core) else "cholesky+lu" if np.any(core) else "lu"
    return {"route": "block" if len(system.cold) else "general",
            "factorization": factorization,
            "rcond_min": None if rcond is None else float(f"{rcond:.3g}"),
            "cold_columns_solved": len(ctx.cold) - len(system.cold) + distinct}


def _ease_weights(p, lambda1, items):
    """EASE's theta from P = M^-1, before its diagonal is zeroed, written
    over P (which it returns), a block of rows at a time; ``items`` names P's
    columns in errors.

    theta = I - lambda1 P - P diag(I - lambda1 P) / diag(P), rounded element
    for element as the out-of-place formula rounds it. Its off-diagonal
    I - lambda1 P, 0 - lambda1 p, is formed as (-lambda1) p + 0.0: the sum
    turns a -0 into the +0 that 0 - lambda1 * 0 gives, where -(lambda1 * 0)
    alone would be -0.
    """
    dp = np.diag(p).copy()
    degenerate = np.flatnonzero(dp == 0.0)
    if len(degenerate):
        cols = items[degenerate].tolist()
        raise SolverError(f"degenerate items {cols}: zero diagonal in the inverse",
                          columns=cols)
    scale = (1.0 - lambda1 * dp) / dp
    for at in row_blocks(len(p)):
        rows, block = p[at], p[at].copy()
        np.multiply(block, -lambda1, out=rows)
        rows += 0.0
        i = np.arange(len(rows))
        rows[i, at.start + i] += 1.0
        rows -= block * scale[None, :]
    return p


def fit_ease(X, cfg, F=None, B=None, context=None):
    """Closed-form aligned EASE fit.

    Inverts M = X^T (X + B) + lambda1 I + lambda0 FF^T once, forms the
    unconstrained solution theta_tilde = I - lambda1 P, then applies the
    diagonal correction theta = theta_tilde - P diag(theta_tilde)/diag(P)
    so self-similarities vanish. With B absent (or alpha = 0) and
    lambda0 = 0 this is the textbook EASE estimator. ``context`` is a
    FitContext of X to share between fits. Without lambda0 FF^T the fit
    eliminates the empty columns C (theta_WC = M_WW^-1 S_WC), and M's core
    on the items without decay weight, X^T X + lambda1 I, is symmetric
    positive definite and inverted by Cholesky; the decay columns go through
    its Schur complement by LU. M is the fit's own copy, so it is inverted
    in place (``invert(..., overwrite=True)``), and on the general route
    theta is formed over the inverse (see _ease_weights).
    """
    t0 = time.perf_counter()
    ctx = _context(X, context)
    aligned = B is not None and B.alpha != 0.0
    feature = cfg.lambda0 > 0 and F is not None  # F F^T couples every item: general LU
    system = ctx.system(B, not feature)
    m = system.shared(1.0, cfg.lambda1)
    if feature:
        m += cfg.lambda0 * _feature_item_gram(F)
    core = False if feature else ~system.decay
    try:
        p, rcond = invert(m, spd=core, return_rcond=True, overwrite=True)
    except SingularMatrixError as e:
        raise SolverError(
            f"aligned system is singular ({e}); increase lambda1"
        ) from e
    del m
    # the weights go over P, except where the cold columns still need P
    theta_w = _ease_weights(p.copy() if len(system.cold) else p, cfg.lambda1, system.items)
    theta = system.theta(theta_w, p, 1.0)
    _check_finite(theta)
    diag_residual = float(np.abs(np.diag(theta)).max())
    np.fill_diagonal(theta, 0.0)
    return _fitted(theta, "ease", cfg, aligned, ctx.X, t0, diag_residual_max=diag_residual,
                   **_route_facts(ctx, system, core, rcond))


_ROUTES = ("rank_one", "woodbury", "direct")  # diagnostics count the columns of each

# Most cells a Woodbury group gathers from Y^T = (X Q)^T at once, counted
# padded: its columns x (their largest click count + 1) x items, 2^18
# float64s (2 MiB)
_GROUP_CELLS = 2**18


def _group_cells(users, width):
    """A Woodbury group's gather budget: _GROUP_CELLS, and at most half of
    the ``users`` x ``width`` cells of Y^T, which the fit holds beside it."""
    return min(_GROUP_CELLS, users * width // 2)


def _woodbury_groups(cols, r, width, cells):
    """``cols`` ordered by click count ``r``, ties by column, cut into groups
    whose padded gather, columns x (largest r + 1) x ``width`` items, holds
    at most ``cells``; a column alone may exceed it."""
    cols = cols[np.argsort(r[cols], kind="stable")]
    groups, start = [], 0
    for j, rj in enumerate(r[cols].tolist()):
        if j > start and (j + 1 - start) * (rj + 1) * width > cells:
            groups.append(cols[start:j])
            start = j
    if len(cols):
        groups.append(cols[start:])
    return groups


def _slots(g, Xcsr, Xcsc):
    """The click rows of the m Woodbury columns ``g``, column j's r_j rows
    padded to R = max r + 1 slots. Returns (r, pad, a): pad is m x R, the
    user in slot c < r_j of column j and 0 elsewhere; a is the sparse factor
    with one row per slot, row j R + c being X's row pad[j, c] with item k
    moved to column k m + j when c < r_j, and empty otherwise."""
    m, lo = len(g), Xcsc.indptr[g]
    r = Xcsc.indptr[g + 1] - lo
    R, n = int(r.max()) + 1, Xcsr.shape[1]
    live = (np.arange(R) < r[:, None]).ravel()
    rows = Xcsc.indices[np.repeat(lo - np.cumsum(r) + r, r) + np.arange(r.sum())]
    pad = np.zeros(m * R, dtype=np.intp)
    pad[live] = rows
    first, per_row = Xcsr.indptr[rows], np.diff(Xcsr.indptr)[rows]
    lens = np.zeros(m * R, dtype=np.intp)
    lens[live] = per_row
    indptr = np.concatenate([[0], np.cumsum(lens)])
    at = np.repeat(first - indptr[:-1][live], per_row) + np.arange(indptr[-1])
    cols = Xcsr.indices[at] * m + np.repeat(np.repeat(np.arange(m), r), per_row)
    return r, pad.reshape(m, R), sp.csr_matrix((Xcsr.data[at], cols, indptr),
                                               shape=(m * R, n * m))


def _woodbury_group(g, p, yt, Xcsr, Xcsc, cfg, theta, zr, route):
    """Solve the capacitances of the Woodbury columns ``g``. A column i that
    passes the rcond check gets the Woodbury route in ``route``, X_i^T z_x
    in its column of ``theta`` and z_r in ``zr``, z = (z_x, z_r) its
    capacitance solution; the others keep the direct route.

    One gather of ``yt`` = Y^T at the group's slots (see _slots), with P's
    row i in column j's slot r_j, times the sparse factor gives every
    capacitance I + W P U, transposed, but its last row, which is that
    gather at item i; one bincount over the factor's entries gives every
    X_i^T z_x.
    """
    w_gap, n, m = cfg.w0 - cfg.w1, len(yt), len(g)
    r, pad, a = _slots(g, Xcsr, Xcsc)
    R, j = pad.shape[1], np.arange(m)
    gy = yt.take(pad, axis=1)  # gy[k, j, c] = Y[pad[j, c], k]
    gy[:, j, r] = p[g].T
    scale = np.full((m, 1, R), w_gap)
    scale[j, 0, r] = cfg.gamma1
    wp = gy[g, j] * scale[:, 0]  # the capacitances' last columns W p
    # cap_t[j, a, c] = sum_k X[pad[j, a], k] gy[k, j, c]
    cap_t = (a @ gy.reshape(n * m, R)).reshape(m, R, R)
    del gy  # the group's largest array, not needed by the solves
    cap_t *= scale
    cap_t[j, r] = wp
    cap_t.reshape(m, R * R)[:, ::R + 1] += 1.0
    z = np.zeros((m, R))
    for c, rc in enumerate(r.tolist()):
        cap = cap_t[c, :rc + 1, :rc + 1].T
        try:
            z[c, :rc + 1] = solve_general(cap, wp[c, :rc + 1])
        except SingularMatrixError:
            continue  # e.g. a negative update (w1 > w0): solve S_i directly
        route[g[c]] = 1
    theta[:, g] = np.bincount(a.indices, a.data * np.repeat(z.ravel(), np.diff(a.indptr)),
                              n * m).reshape(n, m)
    zr[g] = z[j, r]


def _woodbury_columns(wood, r, p, m, Xcsr, Xcsc, cfg, theta, route, workers):
    """Solve the Woodbury columns ``wood`` into ``theta``, setting their
    ``route``; a column whose capacitance fails the rcond check keeps the
    direct route.

    With U = [X_i^T, e_i], W = [w_gap V_i; gamma1 e_i^T] and p = P e_i,
    S_i^-1 e_i = p - P U z, z = (I + W P U)^-1 W p, where V_i P = X_i Q is
    Y = X Q at X_i's rows. Y^T is formed once, in blocks of users; the
    groups (see _woodbury_groups) solve their capacitances on ``workers``
    threads, and then P U applies every update, 64 columns at a time.
    """
    n, users = len(p), Xcsr.shape[0]
    cells = _group_cells(users, n)
    # in blocks of half a group's gather, so that one users x items array
    # exists at a time
    q = p if m is None else m @ p
    yt, step = np.empty((n, users)), max(1, cells // n // 2)
    for lo in range(0, users, step):
        yt[:, lo:lo + step] = (Xcsr[lo:lo + step] @ q).T
    del q
    zr = np.zeros(n)
    _run(lambda g: _woodbury_group(g, p, yt, Xcsr, Xcsc, cfg, theta, zr, route),
         _woodbury_groups(wood, r, n, cells), workers)
    del yt  # the updates need only P and theta
    # 64 columns at a time: a gemm over every column packs all of U into
    # BLAS's buffer, which grows the fit's peak RSS by about n^2 float64s
    done = np.flatnonzero(route == 1)
    for lo in range(0, len(done), 64):
        d = done[lo:lo + 64]
        s = p @ theta[:, d]  # P X_i^T z_x
        np.subtract(p[:, d] * (1.0 - zr[d]), s, out=s)
        s *= -(cfg.lambda1 + cfg.gamma1)
        theta[:, d] = s
    theta[done, done] += 1.0


def _direct_column(i, k, m, Xcsr, Xcsc, cfg, theta, failures):
    """Solve column i's full system S_i = K + w_gap X_i^T V_i + gamma1 e_i e_i^T
    into ``theta``; V_i = X_i M, or X_i when ``m`` is None."""
    w_gap = cfg.w0 - cfg.w1
    a = k.copy()
    if w_gap != 0.0 and Xcsc.indptr[i + 1] > Xcsc.indptr[i]:
        xi = Xcsr[Xcsc.indices[Xcsc.indptr[i]:Xcsc.indptr[i + 1]]]
        a += w_gap * ((xi.T @ xi).toarray() if m is None else np.asarray(xi.T @ (xi @ m)))
    a[i, i] += cfg.gamma1
    rhs = a[:, i].copy()
    rhs[i] -= cfg.lambda1 + cfg.gamma1
    try:
        theta[:, i] = solve_general(a, rhs)
    except SingularMatrixError as e:
        failures.append((i, str(e)))


def _run(fn, tasks, workers):
    """Call ``fn`` on each task, on ``workers`` threads when more than one."""
    if workers <= 1 or len(tasks) <= 1:
        for t in tasks:
            fn(t)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(fn, tasks))  # re-raises a task's exception


def fit_mslim(X, cfg, B=None, workers=1, context=None):
    """Per-column weighted ridge fit (modified SLIM).

    Column i is t = e_i - (lambda1 + gamma1) S_i^-1 e_i, the solution of S_i t
    = S_i e_i - (lambda1 + gamma1) e_i, where S_i = X^T W_i (X + B) + lambda1 I
    + gamma1 e_i e_i^T and W_i weights the r_i users who clicked item i by w0,
    the rest by w1. So S_i = K + (w0 - w1) X_i^T V_i + gamma1 e_i e_i^T with V_i
    = X_i + B[rows_i] and one shared K = w1 X^T (X + B) + lambda1 I, inverted
    once. A column with no click update takes a closed form, any other a
    Woodbury step; S_i is solved directly when r_i + 1 >= n, its capacitance
    fails the rcond check, or K is singular. V_i P = X_i Q with Q = M P and
    M = I + H, H = B's item map, or Q = P when no column of K has a decay
    weight: Y = X Q is formed once, the Woodbury columns go in groups by
    click count (see _woodbury_groups), each with one gather of Y^T and one
    sparse product for all its capacitances (see _woodbury_group), and P U
    products over 64 columns at a time apply the Woodbury updates. Threads take whole groups,
    and direct columns one by one, and no column's arithmetic depends on
    its group, so neither workers nor the grouping change the result.

    ``context`` is a FitContext of X to share between fits. With lambda1 > 0
    it eliminates the empty columns C, fitting the warm columns on the warm
    block alone, and sets a cold column to K_WW^-1 K_WC (counted as a closed
    form), whatever gamma1 is. With lambda1 = 0 and one empty column, K is
    singular and the general route names the singular columns; with two or
    more, every S_i has the zero row of an empty column c != i, so the fit
    raises naming all n columns before it factors anything.
    """
    t0 = time.perf_counter()
    ctx = _context(X, context)
    if cfg.lambda1 == 0.0 and len(ctx.cold) >= 2:
        cols = list(range(ctx.X.shape[1]))
        raise SolverError(
            f"{len(cols)} of {len(cols)} column systems are singular (lambda1 = 0 and "
            f"{len(ctx.cold)} empty training columns, each a zero row of every other "
            f"column's system); increase lambda1 or gamma1",
            columns=cols,
        )
    aligned = B is not None and B.alpha != 0.0
    system = ctx.system(B, cfg.lambda1 > 0)
    Xcsr, k = system.X, system.shared(cfg.w1, cfg.lambda1)
    n = len(k)
    m = None  # V_i = X_i M; M = I + H only when an item of K has a decay weight
    if system.decay.any():
        m = np.eye(n) + system.restrict(B.item_map())
    Xcsc = Xcsr.tocsc()
    core = ~system.decay if cfg.lambda1 > 0 else False  # w1 X^T X + lambda1 I is SPD
    try:
        p, rcond = invert(k, spd=core, return_rcond=True)
    except SingularMatrixError:
        p = rcond = None  # every column solves directly; a singular one fails

    theta = np.zeros((n, n))
    route = np.full(n, 2, dtype=np.int8)
    failures = []
    r = np.diff(Xcsc.indptr) if cfg.w0 != cfg.w1 else np.zeros(n, dtype=np.intp)
    if p is not None:
        # S_i = K + gamma1 e_i e_i^T: Sherman-Morrison in closed form
        denom = 1.0 + cfg.gamma1 * np.diag(p)
        one = np.flatnonzero((r == 0) & (denom != 0.0))
        theta[:, one] = -(cfg.lambda1 + cfg.gamma1) * (p[:, one] / denom[one])
        theta[one, one] += 1.0
        route[one] = 0
        # r_i + 1 >= n, n the item count of the whole fit, solves directly on either route
        wood = np.flatnonzero((r > 0) & (r < ctx.X.shape[1] - 1))
        if len(wood):
            _woodbury_columns(wood, r, p, m, Xcsr, Xcsc, cfg, theta, route, workers)
    _run(lambda i: _direct_column(i, k, m, Xcsr, Xcsc, cfg, theta, failures),
         np.flatnonzero(route == 2).tolist(), workers)
    failures = [(int(system.items[i]), e) for i, e in failures]
    try:
        theta = system.theta(theta, p, cfg.w1, k)
    except SingularMatrixError as e:
        failures += [(int(c), str(e)) for c in system.cold]
    route = np.concatenate([route, np.zeros(len(system.cold), dtype=np.int8)])
    if failures:
        failures.sort(key=lambda t: t[0])
        cols = [i for i, _ in failures]
        raise SolverError(
            f"{len(failures)} of {ctx.X.shape[1]} column systems are singular "
            f"(first: column {cols[0]}: {failures[0][1]}); "
            f"increase lambda1 or gamma1",
            columns=cols,
        )
    _check_finite(theta)
    routes = dict(zip(_ROUTES, np.bincount(route, minlength=3).tolist()))
    return _fitted(theta, "mslim", cfg, aligned, ctx.X, t0, columns_by_route=routes,
                   diag_residual_max=float(np.abs(np.diag(theta)).max()),
                   **_route_facts(ctx, system, core, rcond))


def itemknn_scores(X_user_rows, G):
    """Metadata-only scores: each user's clicks summed through G."""
    return np.asarray(X_user_rows @ np.asarray(G, dtype=np.float64))


def predict(model, X_user_rows):
    """Scores = X_rows @ theta, with every training positive pinned at -inf."""
    X_user_rows = sp.csr_matrix(X_user_rows)
    scores = np.asarray(X_user_rows @ model.theta)
    scores[X_user_rows.nonzero()] = -np.inf
    return scores


def popularity_scores(X):
    """Every user gets the item click-count vector (popularity baseline)."""
    counts = np.asarray(X.sum(axis=0)).ravel()
    return np.tile(counts, (X.shape[0], 1))


def random_scores(n_users, n_items, seed=0):
    """Seeded uniform-noise scores (random-ranking baseline)."""
    return np.random.default_rng(seed).standard_normal((n_users, n_items))


def save_model(model, path):
    """Write the dense binary weight file plus a JSON sidecar at path + '.json'."""
    theta = np.ascontiguousarray(model.theta, dtype="<f8")
    n = theta.shape[0]
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<IQ", 0, n))
        ids = model.item_ids
        fh.write(struct.pack("<B", 1 if ids else 0))
        if ids:
            for item_id in ids:
                raw = item_id.encode("utf-8")
                fh.write(struct.pack("<H", len(raw)))
                fh.write(raw)
        fh.write(theta.tobytes())
    sidecar = {
        "solver": model.solver,
        "config": model.config,
        "diagnostics": model.diagnostics,
        "n_items": n,
    }
    write_json(path + ".json", sidecar)


def load_model(path):
    """Read a model written by save_model.

    A sidecar that is not JSON or names another item count or an unknown
    solver, a bad magic, a layout mode other than the dense 0, a file that
    ends early, or bytes past the last column raise FormatError.
    """
    sidecar = read_json(path + ".json")
    with open(path, "rb") as fh:
        magic = fh.read(len(MODEL_MAGIC))
        if magic != MODEL_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, not a model file")
        mode, n = struct.unpack("<IQ", read_exact(fh, 12, path))
        if mode != 0:
            raise FormatError(f"{path}: model layout mode {mode} is not the dense mode 0")
        check_dense_budget(n, n, what="model matrix")
        (has_ids,) = struct.unpack("<B", read_exact(fh, 1, path))
        item_ids = tuple(read_item_id(fh, path) for _ in range(n)) if has_ids else None
        raw = read_exact(fh, 8 * n * n, path)
        theta = np.frombuffer(raw, dtype="<f8").reshape(n, n).copy()
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after the last model column")
    if sidecar.get("n_items") != n:
        raise FormatError(f"{path}.json: n_items is {sidecar.get('n_items')!r}, "
                          f"the model file holds {n}")
    if sidecar.get("solver") not in SOLVERS:
        raise FormatError(f"{path}.json: solver {sidecar.get('solver')!r} is not one of {SOLVERS}")
    return ItemModel(
        theta=theta,
        solver=sidecar["solver"],
        config=sidecar["config"],
        diagnostics=sidecar["diagnostics"],
        item_ids=item_ids,
    )
