"""Closed-form item-item solvers and score prediction.

Two backbones share the aligned-system structure:

- EASE: one global ridge system with the zero-diagonal constraint folded
  in through a Lagrangian diagonal correction
- modified SLIM: per-column weighted ridge with a diagonal penalty gamma1
  instead of the hard constraint, negatives down-weighted by w1. Every
  column's system is one shared matrix K plus a low-rank term from the
  users who clicked the item, so K is inverted once and each column takes
  a Sherman-Morrison-Woodbury step with a small capacitance solve (a
  closed form when no user clicked it). A column solves its full system
  directly when the capacitance would be as large as K or fails the rcond
  check, and every column does when K itself is singular.

Both start from S = X^T (X + B), formed in one place with X^T B taken from
the Gram; an alignment matrix B acts when it is given with alpha != 0. X^T B
is non-symmetric, so every solve here uses a general pivoted factorization.
A fit whose weights are not all finite raises SolverError.
"""

from __future__ import annotations

import logging
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp

from .data import read_exact, read_item_id, read_json, write_json
from .errors import FormatError, SingularMatrixError, SolverError
from .linalg import gram, solve_general, invert, check_dense_budget

log = logging.getLogger(__name__)

MODEL_MAGIC = b"AITM0001"


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


def _aligned_system(X, B):
    """(CSR X, S = X^T (X + B), whether B acts); B acts if given with alpha != 0."""
    X = sp.csr_matrix(X)
    g = gram(X)
    if B is None or B.alpha == 0.0:
        return X, g, False
    s = B.xtb(g)
    s += g
    return X, s, True


def _fitted(theta, solver, cfg, aligned, X, t0, **diagnostics):
    """The fit's ItemModel: its config plus use_alignment, and its diagnostics."""
    diagnostics.update(n_items=int(X.shape[1]), n_users=int(X.shape[0]),
                       wall_time_s=time.perf_counter() - t0)
    return ItemModel(theta=theta, solver=solver,
                     config={**asdict(cfg), "use_alignment": aligned},
                     diagnostics=diagnostics)


def fit_ease(X, cfg, F=None, B=None):
    """Closed-form aligned EASE fit.

    Inverts M = X^T (X + B) + lambda1 I + lambda0 FF^T once, forms the
    unconstrained solution theta_tilde = I - lambda1 P, then applies the
    diagonal correction theta = theta_tilde - P diag(theta_tilde)/diag(P)
    so self-similarities vanish. With B absent (or alpha = 0) and
    lambda0 = 0 this is the textbook EASE estimator.
    """
    t0 = time.perf_counter()
    X, m, aligned = _aligned_system(X, B)
    n = X.shape[1]
    m.flat[::n + 1] += cfg.lambda1
    if cfg.lambda0 > 0 and F is not None:
        m += cfg.lambda0 * _feature_item_gram(F)
    try:
        p = invert(m)
    except SingularMatrixError as e:
        raise SolverError(
            f"aligned system is singular ({e}); increase lambda1"
        ) from e
    dp = np.diag(p)
    degenerate = np.flatnonzero(dp == 0.0)
    if len(degenerate):
        raise SolverError(
            f"degenerate items {degenerate.tolist()}: zero diagonal in the inverse",
            columns=degenerate.tolist(),
        )
    # the correction is applied in place: one n x n buffer fewer at peak
    theta = np.eye(n) - cfg.lambda1 * p
    theta -= p * (np.diag(theta) / dp)[None, :]
    _check_finite(theta)
    diag_residual = float(np.abs(np.diag(theta)).max())
    np.fill_diagonal(theta, 0.0)
    return _fitted(theta, "ease", cfg, aligned, X, t0, diag_residual_max=diag_residual)


_ROUTES = ("rank_one", "woodbury", "direct")  # diagnostics count the columns of each


def _mslim_columns(cols, k, p, m, q, Xcsr, Xcsc, cfg, theta, route, failures):
    """Solve the listed columns into ``theta``; ``route[i]`` indexes _ROUTES.

    The clicking users' rows X_i give V_i = X_i M and V_i P = X_i Q, so a
    Woodbury column needs one sparse product with a dense n x n matrix.
    """
    w_gap, shift, n = cfg.w0 - cfg.w1, cfg.lambda1 + cfg.gamma1, k.shape[0]
    for i in cols:
        rows = Xcsc.indices[Xcsc.indptr[i]:Xcsc.indptr[i + 1]] if w_gap != 0.0 else ()
        r = len(rows)
        xi = Xcsr[rows] if r else None
        s = None  # S_i^-1 e_i
        if p is not None and r == 0 and 1.0 + cfg.gamma1 * p[i, i] != 0.0:
            # S_i = K + gamma1 e_i e_i^T: Sherman-Morrison in closed form
            s, route[i] = p[:, i] / (1.0 + cfg.gamma1 * p[i, i]), 0
        elif p is not None and 0 < r < n - 1:
            # Woodbury with U = [X_i^T, e_i] and W = [w_gap V_i; gamma1 e_i^T]:
            # S_i^-1 e_i = p - P U (I + W P U)^-1 W p
            vp = xi @ q
            cap = np.empty((r + 1, r + 1))
            cap[:r, :r] = w_gap * (xi @ vp.T).T
            cap[:r, r] = w_gap * vp[:, i]
            cap[r] = cfg.gamma1 * np.append(xi @ p[i], p[i, i])
            wp = cap[:, r].copy()
            cap.flat[::r + 2] += 1.0
            try:
                z = solve_general(cap, wp)
            except SingularMatrixError:
                pass  # e.g. a negative update (w1 > w0): solve S_i directly
            else:
                s, route[i] = p[:, i] * (1.0 - z[r]) - p @ (xi.T @ z[:r]), 1
        if s is not None:
            theta[:, i] = -shift * s
            theta[i, i] += 1.0
            continue
        route[i] = 2
        a = k.copy()
        if r:
            a += w_gap * np.asarray(xi.T @ (xi @ m))
        a[i, i] += cfg.gamma1
        rhs = a[:, i].copy()
        rhs[i] -= shift
        try:
            theta[:, i] = solve_general(a, rhs)
        except SingularMatrixError as e:
            failures.append((i, str(e)))


def fit_mslim(X, cfg, B=None, workers=1):
    """Per-column weighted ridge fit (modified SLIM).

    Column i is t = e_i - (lambda1 + gamma1) S_i^-1 e_i, the solution of S_i t
    = S_i e_i - (lambda1 + gamma1) e_i, where S_i = X^T W_i (X + B) + lambda1 I
    + gamma1 e_i e_i^T and W_i weights the r_i users who clicked item i by w0,
    the rest by w1. So S_i = K + (w0 - w1) X_i^T V_i + gamma1 e_i e_i^T with V_i
    = X_i + B[rows_i] and one shared K = w1 X^T (X + B) + lambda1 I, inverted
    once. A column with no click update takes a closed form, any other a
    Woodbury step; S_i is solved directly when r_i + 1 >= n, its capacitance
    fails the rcond check, or K is singular. Workers never change the result.
    """
    t0 = time.perf_counter()
    Xcsr, k, aligned = _aligned_system(X, B)
    Xcsc = Xcsr.tocsc()
    n = Xcsr.shape[1]
    k *= cfg.w1
    k.flat[::n + 1] += cfg.lambda1
    m = np.eye(n) + (B.item_map() if aligned else 0.0)  # V_i = X_i M
    try:
        p = invert(k)
    except SingularMatrixError:
        p = q = None  # every column solves directly; a singular one fails
    else:
        q = m @ p if aligned else p

    theta = np.zeros((n, n))
    route = np.zeros(n, dtype=np.int8)
    failures = []
    args = (k, p, m, q, Xcsr, Xcsc, cfg, theta, route, failures)
    if workers <= 1:
        _mslim_columns(range(n), *args)
    else:
        chunks = np.array_split(np.arange(n), workers)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(_mslim_columns, chunk, *args) for chunk in chunks if len(chunk)]
            for f in futs:
                f.result()
    if failures:
        failures.sort(key=lambda t: t[0])
        cols = [i for i, _ in failures]
        raise SolverError(
            f"{len(failures)} of {n} column systems are singular "
            f"(first: column {cols[0]}: {failures[0][1]}); "
            f"increase lambda1 or gamma1",
            columns=cols,
        )
    _check_finite(theta)
    routes = dict(zip(_ROUTES, np.bincount(route, minlength=3).tolist()))
    return _fitted(theta, "mslim", cfg, aligned, Xcsr, t0, columns_by_route=routes)


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

    A sidecar that is not JSON, a bad magic, a layout mode other than the
    dense 0, a file that ends early, or bytes past the last column raise
    FormatError.
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
    return ItemModel(
        theta=theta,
        solver=sidecar["solver"],
        config=sidecar["config"],
        diagnostics=sidecar["diagnostics"],
        item_ids=item_ids,
    )
