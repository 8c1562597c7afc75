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

from .linalg import check_dense_budget
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
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
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


def smoothed_cosine(Z, delta=0.0, memory_budget=None):
    """Item-item cosine similarity with an additive denominator constant.

    G_ij = (z_i . z_j) / (||z_i|| ||z_j|| + delta). The delta term shrinks
    similarities involving short feature vectors. Rows that are entirely
    zero produce zero similarity, including at delta = 0.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    m = getattr(Z, "matrix", Z)
    n = m.shape[0]
    check_dense_budget(n, n, memory_budget, what="similarity matrix")
    if sp.issparse(m):
        inner = (m @ m.T).toarray()
        norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=1)).ravel())
    else:
        m = np.asarray(m, dtype=np.float64)
        inner = m @ m.T
        norms = np.linalg.norm(m, axis=1)
    denom = np.outer(norms, norms) + delta
    with np.errstate(invalid="ignore", divide="ignore"):
        g = np.where(denom > 0, inner / np.where(denom > 0, denom, 1.0), 0.0)
    return 0.5 * (g + g.T)


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
    for coef, g in zip(mu.first_order, blocks):
        if coef != 0.0:
            out += coef * g
    for coef, (k, l) in zip(mu.second_order, attribute_pairs(len(blocks))):
        if coef != 0.0:
            prod = blocks[k] @ blocks[l]
            out += coef * 0.5 * (prod + prod.T)
    return out


def fit_mix_coefficients(blocks, X_train, validation, grid, k=10):
    """Pick the grid point whose metadata-only scores rank validation best.

    Scores are X_train @ G_mixed, judged by ndcg@k on the pool that
    evaluation.validation_scenario picks for ``validation`` (a cold or a
    warm split). Ties prefer fewer nonzero coefficients, then earlier grid
    position. A one-point grid is returned without scoring.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("empty coefficient grid")
    if len(grid) == 1:
        return grid[0]
    scenario, use = evaluation.validation_scenario(validation)

    best = None
    for idx, mu in enumerate(grid):
        g = mix_similarities(blocks, mu)
        scores = np.asarray(X_train @ g)
        report = evaluation.evaluate_scenario(
            scores, validation, scenario, ks=(k,), use=use, with_ci=False
        )
        ndcg = report.metric("ndcg", k).mean
        key = (ndcg, -mu.nnz)
        if best is None or key > best[0]:
            best = (key, idx, mu)
    log.info("mix grid: picked point %d of %d (ndcg@%d=%.4f)",
             best[1], len(grid), k, best[0][0])
    return best[2]


def popularity_regularizer(X, cfg):
    """Per-item decay weights d_j from training click counts.

    step_linear: d_j = (beta/p)(p - r_j) for r_j <= p, else 0, where p is
    the cfg.percentile-th percentile of click counts. exponential:
    d_j = beta * 2^(-r_j / p) (half-life p). If p = 0, falls back to
    d_j = beta on unclicked items only, with a warning.
    """
    r = np.asarray(X.sum(axis=0)).ravel()
    p = float(np.percentile(r, cfg.percentile))
    if p == 0.0:
        log.warning(
            "popularity percentile %.4g is 0 (many unclicked items); "
            "using d=beta on unclicked items only", cfg.percentile
        )
        return np.where(r == 0, float(cfg.beta), 0.0)
    if cfg.decay == "step_linear":
        return np.where(r <= p, (cfg.beta / p) * (p - r), 0.0)
    return cfg.beta * np.exp2(-r / p)


@dataclass
class AlignmentMatrix:
    """Lazy B = alpha * X @ G @ diag(d).

    Held in factored form; solvers pull X^T B (items x items) without
    ever materializing the users x items product unless asked.
    """

    X: sp.csr_matrix
    G: np.ndarray
    d: np.ndarray
    alpha: float

    @property
    def shape(self):
        return (self.X.shape[0], self.G.shape[1])

    def materialize(self, memory_budget=None):
        check_dense_budget(self.X.shape[0], self.G.shape[1], memory_budget,
                           what="alignment matrix")
        if self.alpha == 0.0:
            return np.zeros(self.shape)
        return self.alpha * np.asarray(self.X @ self.G) * self.d[None, :]

    def xtb(self, memory_budget=None):
        """X^T B as a dense items x items matrix."""
        n = self.G.shape[1]
        check_dense_budget(n, n, memory_budget, what="X^T B")
        if self.alpha == 0.0:
            return np.zeros((n, n))
        xtx_g = (self.X.T @ (self.X @ self.G))
        return self.alpha * np.asarray(xtx_g) * self.d[None, :]


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
