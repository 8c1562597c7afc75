"""Closed-form item-item solvers and score prediction.

Two backbones share the aligned-system structure:

- EASE: one global ridge system with the zero-diagonal constraint folded
  in through a Lagrangian diagonal correction
- modified SLIM: per-column weighted ridge with a diagonal penalty gamma1
  instead of the hard constraint, negatives down-weighted by w1

Both accept an alignment matrix B whose cross term X^T B lands inside the
inverted system; that term is non-symmetric, so every solve here uses a
general pivoted factorization.
"""

from __future__ import annotations

import json
import logging
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .data import write_json
from .errors import FormatError, SingularMatrixError, SolverError
from .linalg import gram, solve_general, invert, check_dense_budget

log = logging.getLogger(__name__)

MODEL_MAGIC = b"AITM0001"


@dataclass
class EaseConfig:
    lambda0: float = 0.0
    lambda1: float = 1.0

    def __post_init__(self):
        if self.lambda0 < 0:
            raise ValueError(f"lambda0 must be >= 0, got {self.lambda0}")
        if self.lambda1 <= 0:
            raise ValueError(f"lambda1 must be > 0, got {self.lambda1}")


@dataclass
class MslimConfig:
    w1: float = 0.5
    lambda1: float = 0.0
    gamma1: float = 0.0
    w0: float = 1.0

    def __post_init__(self):
        if self.w0 <= 0:
            raise ValueError(f"w0 must be > 0, got {self.w0}")
        if self.w1 < 0:
            raise ValueError(f"w1 must be >= 0, got {self.w1}")
        if self.lambda1 < 0:
            raise ValueError(f"lambda1 must be >= 0, got {self.lambda1}")
        if self.gamma1 < 0:
            raise ValueError(f"gamma1 must be >= 0, got {self.gamma1}")


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


def fit_ease(X, cfg, F=None, B=None, memory_budget=None):
    """Closed-form aligned EASE fit.

    Inverts M = X^T X + lambda0 FF^T + lambda1 I + X^T B once, forms the
    unconstrained solution theta_tilde = I - lambda1 P, then applies the
    diagonal correction theta = theta_tilde - P diag(theta_tilde)/diag(P)
    so self-similarities vanish. With B absent and lambda0 = 0 this is
    the textbook EASE estimator.
    """
    t0 = time.perf_counter()
    X = sp.csr_matrix(X)
    n = X.shape[1]
    m = gram(X, memory_budget=memory_budget) + cfg.lambda1 * np.eye(n)
    if cfg.lambda0 > 0 and F is not None:
        m += cfg.lambda0 * _feature_item_gram(F)
    if B is not None:
        m += B.xtb(memory_budget=memory_budget)
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
    theta_tilde = np.eye(n) - cfg.lambda1 * p
    theta = theta_tilde - p * (np.diag(theta_tilde) / dp)[None, :]
    diag_residual = float(np.abs(np.diag(theta)).max())
    np.fill_diagonal(theta, 0.0)

    diagnostics = {
        "diag_residual_max": diag_residual,
        "n_items": int(n),
        "n_users": int(X.shape[0]),
        "wall_time_s": time.perf_counter() - t0,
    }
    return ItemModel(
        theta=theta,
        solver="ease",
        config={"lambda0": cfg.lambda0, "lambda1": cfg.lambda1,
                "use_alignment": B is not None},
        diagnostics=diagnostics,
    )


def _mslim_columns(cols, base, Xcsr, Xcsc, Bd, cfg, theta, failures):
    w_gap = cfg.w0 - cfg.w1
    n = base.shape[0]
    for i in cols:
        a = base.copy()
        rows = Xcsc.indices[Xcsc.indptr[i] : Xcsc.indptr[i + 1]]
        if w_gap != 0.0 and len(rows):
            sub = Xcsr[rows]
            a += w_gap * (sub.T @ sub).toarray()
            if Bd is not None:
                a += w_gap * (sub.T @ Bd[rows])
        rhs = a[:, i].copy()
        a[np.arange(n), np.arange(n)] += cfg.lambda1
        a[i, i] += cfg.gamma1
        try:
            theta[:, i] = solve_general(a, rhs)
        except SingularMatrixError as e:
            failures.append((i, str(e)))


def fit_mslim(X, cfg, B=None, workers=1, memory_budget=None):
    """Per-column weighted ridge fit (modified SLIM).

    Column i solves (X^T W_i X + X^T W_i B + lambda1 I + Gamma_i) t =
    (X^T W_i X + X^T W_i B)_{.i} with W_i putting w0 on users who clicked
    item i and w1 elsewhere, and Gamma_i = gamma1 at (i, i) only. The
    weighted Grams are assembled as w1 * (full Gram) + (w0 - w1) * (Gram
    over clicking users only). Columns solve independently, so worker
    count never changes the result.
    """
    t0 = time.perf_counter()
    Xcsr = sp.csr_matrix(X)
    Xcsc = Xcsr.tocsc()
    n = Xcsr.shape[1]
    g = gram(Xcsr, memory_budget=memory_budget)
    Bd = None
    xtb = 0.0
    if B is not None and B.alpha != 0.0:
        Bd = B.materialize(memory_budget=memory_budget)
        xtb = np.asarray(Xcsr.T @ Bd)
    base = np.ascontiguousarray(cfg.w1 * (g + xtb))

    theta = np.zeros((n, n))
    failures = []
    if workers <= 1:
        _mslim_columns(range(n), base, Xcsr, Xcsc, Bd, cfg, theta, failures)
    else:
        chunks = np.array_split(np.arange(n), workers)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futs = [
                pool.submit(_mslim_columns, chunk, base, Xcsr, Xcsc,
                            Bd, cfg, theta, failures)
                for chunk in chunks if len(chunk)
            ]
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
    diagnostics = {
        "n_items": int(n),
        "n_users": int(Xcsr.shape[0]),
        "wall_time_s": time.perf_counter() - t0,
    }
    return ItemModel(
        theta=theta,
        solver="mslim",
        config={"w0": cfg.w0, "w1": cfg.w1, "lambda1": cfg.lambda1,
                "gamma1": cfg.gamma1, "use_alignment": Bd is not None},
        diagnostics=diagnostics,
    )


def itemknn_scores(X_user_rows, G):
    """Metadata-only scores: each user's clicks summed through G."""
    return np.asarray(X_user_rows @ np.asarray(G, dtype=np.float64))


def predict(model, X_user_rows, mask_train=True, candidates=None):
    """Scores = X_rows @ theta, with optional masking.

    mask_train pins every training positive at -inf; candidates (item
    columns) pins everything outside the pool at -inf.
    """
    X_user_rows = sp.csr_matrix(X_user_rows)
    scores = np.asarray(X_user_rows @ model.theta)
    if mask_train:
        r, c = X_user_rows.nonzero()
        scores[r, c] = -np.inf
    if candidates is not None:
        keep = np.zeros(scores.shape[1], dtype=bool)
        keep[np.asarray(candidates)] = True
        scores[:, ~keep] = -np.inf
    return scores


def popularity_scores(X):
    """Every user gets the item click-count vector (popularity baseline)."""
    counts = np.asarray(X.sum(axis=0)).ravel()
    return np.tile(counts, (X.shape[0], 1))


def random_scores(n_users, n_items, seed=0):
    """Seeded uniform-noise scores (random-ranking baseline)."""
    return np.random.default_rng(seed).standard_normal((n_users, n_items))


def _topk_columns(theta, k):
    n = theta.shape[1]
    k = min(k, n)
    idx = np.empty((n, k), dtype=np.uint32)
    vals = np.empty((n, k))
    for j in range(n):
        col = theta[:, j]
        order = np.lexsort((np.arange(n), -np.abs(col)))[:k]
        order = np.sort(order)
        idx[j] = order
        vals[j] = col[order]
    return idx, vals


def save_model(model, path, top_k=None):
    """Write the binary weight file plus a JSON sidecar at path + '.json'.

    top_k keeps only the k largest-magnitude entries per column (ties
    toward the lower row index); None stores the dense matrix.
    """
    theta = np.ascontiguousarray(model.theta, dtype="<f8")
    n = theta.shape[0]
    mode = 0 if top_k is None else 1
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<IQ", mode, n))
        ids = model.item_ids
        fh.write(struct.pack("<B", 1 if ids else 0))
        if ids:
            for item_id in ids:
                raw = item_id.encode("utf-8")
                fh.write(struct.pack("<H", len(raw)))
                fh.write(raw)
        if mode == 0:
            fh.write(theta.tobytes())
        else:
            idx, vals = _topk_columns(theta, top_k)
            fh.write(struct.pack("<I", idx.shape[1]))
            for j in range(n):
                fh.write(idx[j].astype("<u4").tobytes())
                fh.write(vals[j].astype("<f8").tobytes())
    sidecar = {
        "solver": model.solver,
        "config": model.config,
        "diagnostics": model.diagnostics,
        "storage": "dense" if mode == 0 else "topk",
        "top_k": top_k,
        "n_items": n,
    }
    write_json(path + ".json", sidecar)


def load_model(path, memory_budget=None):
    """Read a model written by save_model.

    A bad magic, a file that ends early, or bytes past the last column
    raise FormatError.
    """
    with open(path + ".json", "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    with open(path, "rb") as fh:

        def read(size):
            raw = fh.read(size)
            if len(raw) != size:
                raise FormatError(f"{path}: model file ends early")
            return raw

        magic = fh.read(len(MODEL_MAGIC))
        if magic != MODEL_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, not a model file")
        mode, n = struct.unpack("<IQ", read(12))
        check_dense_budget(n, n, memory_budget, what="model matrix")
        (has_ids,) = struct.unpack("<B", read(1))
        item_ids = None
        if has_ids:
            ids = []
            for _ in range(n):
                (ln,) = struct.unpack("<H", read(2))
                ids.append(read(ln).decode("utf-8"))
            item_ids = tuple(ids)
        if mode == 0:
            theta = np.frombuffer(read(8 * n * n), dtype="<f8").reshape(n, n).copy()
        else:
            (k,) = struct.unpack("<I", read(4))
            theta = np.zeros((n, n))
            for j in range(n):
                idx = np.frombuffer(read(4 * k), dtype="<u4")
                vals = np.frombuffer(read(8 * k), dtype="<f8")
                theta[idx, j] = vals
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after the last model column")
    return ItemModel(
        theta=theta,
        solver=sidecar["solver"],
        config=sidecar["config"],
        diagnostics=sidecar["diagnostics"],
        item_ids=item_ids,
    )
