"""Metadata-similarity construction and the click/metadata alignment matrix.

Pipeline: per-attribute smoothed cosine similarities -> quadratic mixing
with learned non-negative coefficients -> popularity-decay column weights
-> B = alpha * X @ G_mixed @ diag(d). Cold items have all-zero training
columns, so their columns of B are driven purely by metadata similarity.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .linalg import check_dense_budget, row_blocks
from . import evaluation

log = logging.getLogger(__name__)

_DECAYS = ("step_linear", "exponential")


@dataclass
class AlignmentConfig:
    """Knobs for similarity smoothing and the alignment scale.

    alpha = 0 is allowed and turns alignment off (the no-metadata
    baseline); beta = 0 likewise disables the popularity boost.
    """

    delta: float = 0.0
    alpha: float = 1.0
    beta: float = 0.0
    percentile: float = 10.0
    decay: str = "step_linear"

    def __post_init__(self):
        # a chained test, so that NaN and infinity are refused too
        for name in ("delta", "alpha", "beta"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not 0 < self.percentile <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {self.percentile}")
        if self.decay not in _DECAYS:
            raise ValueError(f"decay must be one of {_DECAYS}, got {self.decay!r}")


def attribute_pairs(n):
    """Unordered index pairs (k, l), k < l, in lexicographic order."""
    return [(k, l) for k in range(n) for l in range(k + 1, n)]


@dataclass
class MixCoefficients:
    """Non-negative weights for first- and second-order similarity terms.

    ``second_order`` follows attribute_pairs(n) ordering.
    """

    first_order: np.ndarray
    second_order: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.first_order = np.asarray(self.first_order, dtype=np.float64)
        self.second_order = np.asarray(self.second_order, dtype=np.float64)
        n = len(self.first_order)
        want = n * (n - 1) // 2
        if len(self.second_order) != want:
            raise ValueError(
                f"{n} attributes need {want} second-order coefficients, "
                f"got {len(self.second_order)}"
            )
        if (self.first_order < 0).any() or (self.second_order < 0).any():
            raise ValueError("mix coefficients must be non-negative")

    @property
    def n_attributes(self):
        return len(self.first_order)

    @property
    def nnz(self):
        return int(np.count_nonzero(self.first_order) + np.count_nonzero(self.second_order))

    def to_dict(self):
        return {
            "first_order": [float(x) for x in self.first_order],
            "second_order": [float(x) for x in self.second_order],
        }

    @classmethod
    def from_dict(cls, d):
        """Build from a config mapping; a missing second_order means zeros."""
        n = len(d["first_order"])
        return cls(first_order=d["first_order"],
                   second_order=d.get("second_order", np.zeros(n * (n - 1) // 2)))


def default_mix(n_attributes):
    return MixCoefficients(
        first_order=np.ones(n_attributes),
        second_order=np.zeros(n_attributes * (n_attributes - 1) // 2),
    )


def smoothed_cosine(Z, delta=0.0):
    """Item-item cosine similarity with an additive denominator constant.

    G_ij = (z_i . z_j) / (||z_i|| ||z_j|| + delta). The delta term shrinks
    similarities involving short feature vectors. Rows that are entirely
    zero produce zero similarity, including at delta = 0.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    m = getattr(Z, "matrix", Z)
    n = m.shape[0]
    check_dense_budget(n, n, what="similarity matrix")
    if sp.issparse(m):
        inner = (m @ m.T).toarray().astype(np.float64, copy=False)
        norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=1)).ravel())
    else:
        m = np.asarray(m, dtype=np.float64)
        inner = m @ m.T
        norms = np.linalg.norm(m, axis=1)
    # in place: G takes inner's buffer; denom, then G's transpose, are the scratch
    denom = np.outer(norms, norms)
    denom += delta
    pos = denom > 0
    g = np.divide(inner, denom, out=inner, where=pos)
    del denom
    np.copyto(g, 0.0, where=~pos)
    g += g.T.copy()
    g *= 0.5
    return g


def mix_similarities(blocks, mu):
    """Weighted sum of similarity blocks plus symmetrized pair products.

    Returns sum_k mu_k G^(k) + sum_{k<l} mu_kl * 0.5 (G^(k) G^(l) +
    G^(l) G^(k)). Symmetric whenever the inputs are.
    """
    blocks = [np.asarray(b, dtype=np.float64) for b in blocks]
    if len(blocks) != mu.n_attributes:
        raise ValueError(
            f"{len(blocks)} blocks but {mu.n_attributes} first-order coefficients"
        )
    shapes = {b.shape for b in blocks}
    if len(shapes) > 1:
        raise ValueError(f"similarity blocks disagree on shape: {sorted(shapes)}")
    n = blocks[0].shape[0]
    out = np.zeros((n, n))
    # a block of rows at a time, so that the scratch beside ``out`` is that
    # block's, with the same operations in the same order on every cell
    for coef, g in zip(mu.first_order, blocks):
        if coef != 0.0:
            for at in row_blocks(n):
                out[at] += coef * g[at]
    for coef, (k, l) in zip(mu.second_order, attribute_pairs(len(blocks))):
        if coef != 0.0:
            prod = blocks[k] @ blocks[l]
            for at in row_blocks(n):
                out[at] += coef * 0.5 * (prod[at] + prod[:, at].T)
    return out


def fit_mix_coefficients(blocks, X_train, validation, grid):
    """Pick the grid point whose metadata-only scores rank validation best.

    Scores are X_train @ G_mixed, judged by the first evaluation.SELECTION
    metric that evaluation.validation_metrics gives on ``validation`` (a
    cold or a warm split), which forms them on the validation pool only.
    Ties prefer fewer nonzero coefficients, then earlier grid position. A
    one-point grid is returned without scoring.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("empty coefficient grid")
    if len(grid) == 1:
        return grid[0]
    metric, best = evaluation.SELECTION[0], None
    for idx, mu in enumerate(grid):
        g = mix_similarities(blocks, mu)
        key = (evaluation.validation_metrics(X_train, g, validation)[metric], -mu.nnz)
        del g  # one mixed similarity alive at a time
        if best is None or key > best[0]:
            best = (key, idx, mu)
    log.info("mix grid: picked point %d of %d (%s=%.4f)",
             best[1], len(grid), metric, best[0][0])
    return best[2]


def _click_percentile(X, cfg):
    """Per-item training click counts and their cfg.percentile-th percentile."""
    r = np.asarray(X.sum(axis=0)).ravel()
    return r, float(np.percentile(r, cfg.percentile))


def popularity_falls_back(X, cfg):
    """Whether popularity_regularizer(X, cfg) takes its p = 0 fallback."""
    return _click_percentile(X, cfg)[1] == 0.0


def popularity_regularizer(X, cfg):
    """Per-item decay weights d_j from training click counts.

    step_linear: d_j = (beta/p)(p - r_j) for r_j <= p, else 0, where p is
    the cfg.percentile-th percentile of click counts. exponential:
    d_j = beta * 2^(-r_j / p) (half-life p). The cold-start rule: p = 0
    (at least that share of items unclicked, as under the cold protocol)
    gives d_j = beta on unclicked items and 0 elsewhere, the p -> 0 limit
    of both.
    """
    r, p = _click_percentile(X, cfg)
    if p == 0.0:
        return np.where(r == 0, float(cfg.beta), 0.0)
    if cfg.decay == "step_linear":
        return np.where(r <= p, (cfg.beta / p) * (p - r), 0.0)
    return cfg.beta * np.exp2(-r / p)


@dataclass
class AlignmentMatrix:
    """B = alpha * X @ G @ diag(d), held in factored form.

    The solvers need B only through X^T B = X^T X H, with the item map
    H = alpha * G @ diag(d), so B itself is built only when asked.
    """

    X: sp.csr_matrix
    G: np.ndarray
    d: np.ndarray
    alpha: float

    @property
    def shape(self):
        return (self.X.shape[0], self.G.shape[1])

    def item_map(self):
        """H = alpha * G @ diag(d), items x items, so that B = X @ H."""
        return self.alpha * self.G * self.d[None, :]

    def materialize(self):
        check_dense_budget(*self.shape, what="alignment matrix")
        return self.alpha * np.asarray(self.X @ self.G) * self.d[None, :]

    def xtb(self, xtx, rows=None, cols=None):
        """X^T B as a dense items x items matrix, from the Gram xtx = X^T X.

        Given an item index array ``rows``, xtx is the Gram's (rows, rows)
        block, which is exact when no click of X falls outside ``rows``.
        Given ``cols``, only those columns of X^T B are formed.
        """
        g, d = self.G, self.d
        if rows is not None:
            g = g[rows]
        if cols is not None:
            g, d = g[:, cols], d[cols]
        check_dense_budget(xtx.shape[0], g.shape[1], what="X^T B")
        out = xtx @ g
        out *= self.alpha
        out *= d[None, :]
        return out


def align(X, G, cfg, d=None):
    """Build the alignment matrix B = alpha * X @ G @ diag(d).

    ``d`` defaults to popularity_regularizer(X, cfg); pass an explicit
    vector to reuse one across solver fits.
    """
    G = np.asarray(G, dtype=np.float64)
    if X.shape[1] != G.shape[0] or G.shape[0] != G.shape[1]:
        raise ValueError(
            f"X has {X.shape[1]} items but similarity is {G.shape}"
        )
    if d is None:
        d = popularity_regularizer(X, cfg)
    d = np.asarray(d, dtype=np.float64)
    if d.shape != (G.shape[0],):
        raise ValueError(f"decay vector has shape {d.shape}, expected ({G.shape[0]},)")
    return AlignmentMatrix(X=sp.csr_matrix(X), G=G, d=d, alpha=float(cfg.alpha))
