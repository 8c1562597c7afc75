"""Ranking metrics, scenario evaluation, and bootstrap confidence intervals.

hr@k is truncated recall: hits-in-top-k / min(k, |relevant|). ndcg@k
discounts hits by 1/log2(1+rank) and normalizes by the ideal prefix sum
over min(k, |relevant|) positions. Score ties always break toward the
lower item index so reruns and reorderings reproduce the same tables.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

SCENARIOS = ("cold", "warm", "all", "leave_one_out")


@dataclass
class RankedList:
    """One user's ranking restricted to a candidate pool."""

    user: int
    ranked: np.ndarray
    relevant: np.ndarray


@dataclass
class MetricResult:
    name: str
    k: int
    users: np.ndarray
    per_user: np.ndarray
    ci: tuple | None = None

    @property
    def mean(self):
        return float(self.per_user.mean())


def rank_candidates(scores_row, candidates):
    """Candidates in descending score order, ties toward lower item index."""
    candidates = np.asarray(candidates)
    s = np.asarray(scores_row)[candidates]
    order = np.lexsort((candidates, -s))
    return candidates[order]


def _relevant_ranks(rl):
    """Sorted 1-based ranks of the relevant items that appear in the pool."""
    return np.flatnonzero(np.isin(rl.ranked, rl.relevant)) + 1


def _screen(lists):
    kept = [rl for rl in lists if len(rl.relevant) > 0]
    dropped = len(lists) - len(kept)
    if dropped:
        log.warning("%d users have no relevant items and are excluded", dropped)
    if not kept:
        raise ValueError("no users with a nonempty relevant set")
    return kept


def hr_at_k(lists, k):
    """Truncated recall at k, one value per user plus the mean."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    lists = _screen(lists)
    users = np.array([rl.user for rl in lists])
    vals = np.empty(len(lists))
    for i, rl in enumerate(lists):
        ranks = _relevant_ranks(rl)
        vals[i] = np.count_nonzero(ranks <= k) / min(k, len(rl.relevant))
    return MetricResult(name="hr", k=k, users=users, per_user=vals)


def ndcg_at_k(lists, k):
    """Normalized discounted cumulative gain at k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    lists = _screen(lists)
    users = np.array([rl.user for rl in lists])
    vals = np.empty(len(lists))
    for i, rl in enumerate(lists):
        ranks = _relevant_ranks(rl)
        hit = ranks[ranks <= k]
        dcg = float(np.sum(1.0 / np.log2(1.0 + hit)))
        ideal = np.arange(1, min(k, len(rl.relevant)) + 1)
        idcg = float(np.sum(1.0 / np.log2(1.0 + ideal)))
        vals[i] = dcg / idcg
    return MetricResult(name="ndcg", k=k, users=users, per_user=vals)


_METRICS = {"hr": hr_at_k, "ndcg": ndcg_at_k}


def bootstrap_ci(per_user_values, resamples=500, fraction=0.20, seed=0):
    """Percentile bootstrap of the mean over user subsamples.

    Each resample draws ceil(fraction * n) users with replacement; the
    interval is the (2.5, 97.5) percentile range of the resample means.
    """
    values = np.asarray(per_user_values, dtype=np.float64)
    n = len(values)
    if n < 5:
        raise ValueError(f"confidence interval undefined for {n} users (need >= 5)")
    m = math.ceil(fraction * n)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(resamples, m))
    means = values[idx].mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])
    return float(lo), float(hi)


@dataclass
class EvalReport:
    scenario: str
    n_users: int
    metrics: list

    def metric(self, name, k):
        for m in self.metrics:
            if m.name == name and m.k == k:
                return m
        raise KeyError(f"no metric {name}@{k} in report")

    def to_dict(self):
        out = {"scenario": self.scenario, "n_users": self.n_users, "metrics": []}
        for m in self.metrics:
            entry = {"name": m.name, "k": m.k, "mean": m.mean}
            if m.ci is not None:
                entry["ci_low"], entry["ci_high"] = m.ci
                entry["ci_level"] = 0.95
            out["metrics"].append(entry)
        return out

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self):
        lines = [f"scenario: {self.scenario}  users: {self.n_users}"]
        header = f"{'metric':<8}{'k':>4}{'mean':>10}{'ci95_low':>11}{'ci95_high':>11}"
        lines.append(header)
        lines.append("-" * len(header))
        for m in self.metrics:
            lo = f"{m.ci[0]:.4f}" if m.ci else "-"
            hi = f"{m.ci[1]:.4f}" if m.ci else "-"
            lines.append(f"{m.name:<8}{m.k:>4}{m.mean:>10.4f}{lo:>11}{hi:>11}")
        return "\n".join(lines) + "\n"


def _pairs_to_lists(scores, pairs, candidates, train_X):
    """Group held-out (user, item) pairs into per-user ranked lists."""
    users = np.unique(pairs[:, 0])
    order = np.argsort(pairs[:, 0], kind="stable")
    sorted_items = pairs[order, 1]
    bounds = np.searchsorted(pairs[order, 0], users, side="right")
    lists = []
    prev = 0
    indptr, indices = train_X.indptr, train_X.indices
    for u, stop in zip(users, bounds):
        relevant = np.unique(sorted_items[prev:stop])
        prev = stop
        s = np.asarray(scores[u], dtype=np.float64).copy()
        s[indices[indptr[u] : indptr[u + 1]]] = -np.inf
        lists.append(RankedList(user=int(u), ranked=rank_candidates(s, candidates),
                                relevant=relevant))
    return lists


def build_ranked_lists(scores, split, scenario, use="test"):
    """Construct per-user candidate rankings for one evaluation scenario.

    cold/warm/all read a cold split's held-out pools (use picks val or
    test); leave_one_out ranks each warm-split user's held-out click
    against that user's negatives. Training positives score -inf first.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    if scenario == "leave_one_out":
        if not hasattr(split, "heldout"):
            raise ValueError("leave_one_out needs a warm split")
        if use != "test":
            raise ValueError("warm splits have a single held-out set")
        lists = []
        for u in range(len(split.heldout)):
            cand = np.concatenate(([split.heldout[u]], split.negatives[u]))
            lists.append(RankedList(
                user=u,
                ranked=rank_candidates(scores[u], cand),
                relevant=np.array([split.heldout[u]]),
            ))
        return lists

    if not hasattr(split, "cold_val"):
        raise ValueError(f"scenario {scenario!r} needs a cold split")
    if use not in ("val", "test"):
        raise ValueError(f"use must be 'val' or 'test', got {use!r}")
    warm = split.warm_val if use == "val" else split.warm_test
    cold = split.cold_val if use == "val" else split.cold_test
    n_items = split.train.n_items
    cold_mask = np.zeros(n_items, dtype=bool)
    cold_mask[split.cold_cols] = True
    if scenario == "cold":
        pairs, candidates = cold, np.flatnonzero(cold_mask)
    elif scenario == "warm":
        pairs, candidates = warm, np.flatnonzero(~cold_mask)
    else:
        pairs, candidates = np.concatenate([warm, cold]), np.arange(n_items)
    if len(pairs) == 0 or len(candidates) == 0:
        raise ValueError(f"scenario {scenario!r} has an empty candidate pool or no held-out interactions")
    return _pairs_to_lists(scores, pairs, candidates, split.train.X)


def validation_scenario(split):
    """The (scenario, use) pair that model selection scores on ``split``.

    A warm split ranks its held-out clicks (leave_one_out, test). A cold
    split ranks its cold validation pool, or the whole validation pool
    (all) when no cold validation pairs exist.
    """
    if hasattr(split, "heldout"):
        return "leave_one_out", "test"
    return ("cold" if len(split.cold_val) else "all"), "val"


def evaluate_scenario(scores, split, scenario, ks=(10,), metrics=("hr", "ndcg"),
                      use="test", with_ci=True, resamples=500, fraction=0.20,
                      seed=None):
    """Score one scenario and return an EvalReport with optional CIs.

    The bootstrap seed defaults to the split's own seed so a rerun of the
    same experiment reproduces the intervals byte for byte.
    """
    lists = build_ranked_lists(scores, split, scenario, use=use)
    if seed is None:
        seed = split.seed
    results = []
    for name in metrics:
        if name not in _METRICS:
            raise ValueError(f"unknown metric {name!r}, have {sorted(_METRICS)}")
        for k in ks:
            res = _METRICS[name](lists, k)
            if with_ci:
                try:
                    res.ci = bootstrap_ci(res.per_user, resamples=resamples,
                                          fraction=fraction, seed=seed)
                except ValueError:
                    log.warning("skipping CI for %s@%d: too few users", name, k)
            results.append(res)
    n_users = len(results[0].users) if results else 0
    return EvalReport(scenario=scenario, n_users=n_users, metrics=results)
