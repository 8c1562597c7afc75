"""Ranking metrics, scenario evaluation, and bootstrap confidence intervals.

hr@k is truncated recall: hits-in-top-k / min(k, |relevant|). ndcg@k
discounts hits by 1/log2(1+rank) and normalizes by the ideal prefix sum
over min(k, |relevant|) positions. Score ties always break toward the
lower item index so reruns and reorderings reproduce the same tables.

Each scenario ranks every user's pool once (``build_ranked_lists``), to
depth max(ks) and ``_RANK_CELLS`` pool cells at a time, into one users x
depth array. One ``np.searchsorted`` of its keys user * n_items + item into
the sorted relevant keys gives the hit-rank table that every metric and k
reads. Caller-built lists go ``_HIT_CHUNK`` at a time, padded with -1, so
the table's scratch memory is a few MB whatever the number of users.

The pipeline forms no users x items score matrix: a score source forms
one block of users at a time, at most ``_SCORE_CELLS`` scores
(``rank_scenarios`` for test evaluation, ``validation_metrics`` for
selection). A CSR times dense product sums each entry over its row's
clicks in stored order, whatever the other rows, so a block's scores
equal those rows of the full product bit for bit, and the blocked ranks
equal the full matrix's.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

log = logging.getLogger(__name__)

SCENARIOS = ("cold", "warm", "all", "leave_one_out")
METRICS = ("hr", "ndcg")

# model selection compares these validation metrics in this order; mix
# selection reads the first, the solver grid search all of them
_SELECTION_K = 10
SELECTION = (f"ndcg@{_SELECTION_K}", f"hr@{_SELECTION_K}")


@dataclass
class RankedList:
    """One user's ranking of a candidate pool; if truncated, only its top places."""

    user: int
    ranked: np.ndarray
    relevant: np.ndarray
    truncated: bool = False


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
    """Candidates in descending score order, ties toward lower item index.

    Non-finite scores have a fixed place: +inf ranks before every finite
    score, -inf (masked training positives) after every finite score, and
    NaN after -inf; ties within each class go to the lower item index.
    """
    candidates = np.asarray(candidates)
    s = np.asarray(scores_row)[candidates]
    order = np.lexsort((candidates, -s))
    return candidates[order]


@dataclass(frozen=True, eq=False)
class RankedLists:
    """Ranked lists as arrays: row i of ``ranked`` ranks user ``users[i]``,
    ``relevant`` holds the sorted keys user * n_items + item. ``len``,
    integer indexing and iteration give RankedList views, ``+`` a list."""

    users: np.ndarray
    ranked: np.ndarray
    relevant: np.ndarray
    n_items: int
    truncated: bool

    def __len__(self):
        return len(self.users)

    def __getitem__(self, i):
        user, n = int(self.users[i]), self.n_items
        lo, hi = np.searchsorted(self.relevant, [user * n, user * n + n])
        return RankedList(user, self.ranked[i], self.relevant[lo:hi] % n, self.truncated)

    def __iter__(self):
        cuts = np.searchsorted(self.relevant, self.users[1:] * self.n_items).tolist()
        items = self.relevant % self.n_items
        return map(RankedList, self.users.tolist(), self.ranked,
                   [items[a:b] for a, b in zip([0] + cuts, cuts + [len(items)])],
                   repeat(self.truncated))

    def __add__(self, other):
        return list(self) + list(other)


# caller-built lists per RankedLists in _hit_ranks: few enough that one
# chunk's int64 keys stay a few MB at any user count, many enough to amortize
_HIT_CHUNK = 128


def _hit_ranks(lists):
    """The table every metric and k of ``lists`` reduces over: per user with
    relevant items (the rest are excluded with one warning) the user, the
    relevant count, the hit count, the sorted 1-based hit ranks,
    concatenated user by user, and the shortest truncated list's depth or None.

    A RankedLists' hits are one ``np.searchsorted`` of its keys into its
    relevant keys; -1 padding never hits. Other lists go ``_HIT_CHUNK`` at a
    time into a RankedLists keyed on their place in the chunk.
    """
    if isinstance(lists, RankedLists) and len(lists):
        users, n, relevant = lists.users, lists.n_items, lists.relevant
        keys = users[:, None] * n + lists.ranked
        found = relevant.take(np.searchsorted(relevant, keys), mode="clip") == keys
        row, col = np.nonzero(found & (lists.ranked >= 0))
        return (users, np.diff(np.searchsorted(relevant, np.append(users, users[-1] + 1) * n)),
                np.bincount(row, minlength=len(users)), col + 1,
                lists.ranked.shape[1] if lists.truncated else None)
    kept = [rl for rl in lists if len(rl.relevant) > 0]
    if len(kept) < len(lists):
        log.warning("%d users have no relevant items and are excluded",
                    len(lists) - len(kept))
    if not kept:
        raise ValueError("no users with a nonempty relevant set")
    parts = []
    for lo in range(0, len(kept), _HIT_CHUNK):
        chunk = kept[lo : lo + _HIT_CHUNK]
        ranked = np.full((len(chunk), max(len(rl.ranked) for rl in chunk)), -1, dtype=np.int64)
        for row, rl in zip(ranked, chunk):
            row[: len(rl.ranked)] = rl.ranked
        relevant = np.concatenate([rl.relevant for rl in chunk]).astype(np.int64, copy=False)
        width, rows = int(max(ranked.max(initial=0), relevant.max())) + 1, np.arange(len(chunk))
        keys = np.repeat(rows, [len(rl.relevant) for rl in chunk]) * width + relevant
        parts.append(_hit_ranks(RankedLists(rows, ranked, np.sort(keys), width, False))[1:4])
    return (np.array([rl.user for rl in kept]), *map(np.concatenate, zip(*parts)),
            min((len(rl.ranked) for rl in kept if rl.truncated), default=None))


def _metric(table, name, k):
    """hr@k or ndcg@k per user of a hit-rank table.

    dcg is np.sum over each user's rank-ordered discounts (row-wise, per hit
    count) and idcg np.sum over a discount prefix, so both equal the
    per-user 1-D sums bit for bit.
    """
    users, n_relevant, n_hits, ranks, truncated = table
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if truncated is not None and k > truncated:
        raise ValueError(f"k = {k} reads past lists truncated at depth {truncated}")
    hits = np.bincount(np.repeat(np.arange(len(users)), n_hits)[ranks <= k],
                       minlength=len(users))
    depth = np.minimum(n_relevant, k)
    if name == "hr":
        return MetricResult(name=name, k=k, users=users, per_user=hits / depth)
    disc = 1.0 / np.log2(1.0 + np.arange(1, k + 1))
    starts = np.cumsum(n_hits) - n_hits
    dcg = np.zeros(len(users))
    for h in np.unique(hits[hits > 0]):
        rows = np.flatnonzero(hits == h)
        dcg[rows] = disc[ranks[starts[rows, None] + np.arange(h)] - 1].sum(axis=1)
    idcg = np.array([np.sum(disc[:m]) for m in range(k + 1)])
    return MetricResult(name=name, k=k, users=users, per_user=dcg / idcg[depth])


def hr_at_k(lists, k):
    """Truncated recall at k, one value per user plus the mean."""
    return _metric(_hit_ranks(lists), "hr", k)


def ndcg_at_k(lists, k):
    """Normalized discounted cumulative gain at k."""
    return _metric(_hit_ranks(lists), "ndcg", k)


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


def _pools(split, scenario, use):
    """(users, pool rows, sorted relevant keys user * n_items + item): a cold
    split's val or test pairs against the cold, warm or full item pool (one
    row for all users), or a warm split's held-out click, then its negatives."""
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    if scenario == "leave_one_out":
        if not hasattr(split, "heldout"):
            raise ValueError("leave_one_out needs a warm split")
        if use != "test":
            raise ValueError("warm splits have a single held-out set")
        users = np.arange(len(split.heldout))
        return (users, np.column_stack((split.heldout, split.negatives)),
                users * split.train.n_items + split.heldout)

    if not hasattr(split, "cold_val"):
        raise ValueError(f"scenario {scenario!r} needs a cold split")
    if use not in ("val", "test"):
        raise ValueError(f"use must be 'val' or 'test', got {use!r}")
    held = (split.warm_val, split.cold_val) if use == "val" else (split.warm_test, split.cold_test)
    cold = np.isin(np.arange(split.train.n_items), split.cold_cols)
    pairs, pool = {"cold": (held[1], np.flatnonzero(cold)),
                   "warm": (held[0], np.flatnonzero(~cold)),
                   "all": (np.concatenate(held), np.arange(len(cold)))}[scenario]
    if len(pairs) == 0 or len(pool) == 0:
        raise ValueError(f"scenario {scenario!r} has an empty candidate pool or no held-out interactions")
    # distinct pairs sorted by (user, item): each user's run is its relevant set
    n = len(cold)
    relevant = np.unique(pairs[:, 0].astype(np.int64) * n + pairs[:, 1])
    return np.unique(relevant // n), pool[None, :], relevant


def _pool_items(pools, n):
    """The distinct items of ``pools`` in ascending order (np.unique's), by
    one count over the n items."""
    return np.flatnonzero(np.bincount(pools.ravel(), minlength=n))


def _pool_columns(items, pools, n):
    """Each pool cell's position in ``items`` (ascending, holding every pool
    item; np.searchsorted's), through an item -> position map over n items."""
    column = np.zeros(n, dtype=np.intp)
    column[items] = np.arange(len(items))
    return column[pools]


# pool cells per ranking block: a block's scratch stays near a MB at any user count
_RANK_CELLS = 2**16
# scores a score source forms per block (2 MiB of float64), whatever the user count
_SCORE_CELLS = 2**18


def build_ranked_lists(scores, split, scenario, use="test", depth=None, items=None, pooled=None):
    """A RankedLists of the first ``depth`` places (None: all) of each user's
    pool of one scenario, in ``rank_candidates`` order: training positives
    (the block's CSR entries, read from ``indptr``/``indices``) masked to
    -inf, so they and any -inf score rank after every finite score, NaN
    after them, ties toward the lower item index. Per block of
    ``_RANK_CELLS`` pool cells, one ``np.lexsort`` orders each row's cells up
    to and tied with its depth-th key (the whole row when that key is NaN).

    ``scores`` is users x items; given ``items`` (ascending, holding every
    pool item), it is instead one row per ranked user, in ``_pools`` order,
    and one column per entry of ``items``. Or it is a score source: a
    callable ``scores(u, cols)`` that returns, as a new array, the scores of
    one block's users ``u`` at their pool cells ``cols`` (columns of
    ``items``, or item indices). With a score source or per-user pools, a
    block also holds at most ``_SCORE_CELLS`` // len(items) users (every
    item when None), so a source that forms whole rows forms at most
    ``_SCORE_CELLS`` scores at a time, and per-user pools find their
    positives in a block x columns mask of as many bools.
    ``pooled``: ``_pools``' result.
    """
    users, pools, relevant = _pools(split, scenario, use) if pooled is None else pooled
    X = split.train.X
    n = X.shape[1]
    ncols = n if items is None else len(items)
    rows, cols = ((users, pools) if items is None else
                  (np.arange(len(users)), _pool_columns(items, pools, n)))
    width = pools.shape[1]
    if depth is not None and depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    depth = width if depth is None else min(depth, width)
    step = max(1, _RANK_CELLS // width)
    if callable(scores) or len(pools) > 1:
        step = min(step, max(1, _SCORE_CELLS // ncols))
    # each item's place in a shared pool, else its column of the scores; -1: none
    place = np.full(n, -1)
    if len(pools) == 1:
        place[pools[0]] = np.arange(width)
    else:
        place[np.arange(n) if items is None else items] = np.arange(ncols)
    ranked = np.empty((len(users), depth), dtype=pools.dtype)
    for lo in range(0, len(users), step):
        u = users[lo : lo + step]
        pool = pools[lo : lo + step] if len(pools) > 1 else pools
        col = cols[lo : lo + step] if len(cols) > 1 else cols
        key = (scores(u, col) if callable(scores) else
               scores[rows[lo : lo + step, None], col]).astype(np.float64, copy=False)
        # positives: the block's CSR entries, read from indptr/indices at their places
        count = X.indptr[u + 1] - X.indptr[u]
        entry = np.repeat(X.indptr[u] - np.cumsum(count) + count, count)
        row = np.repeat(np.arange(len(u)), count)
        at = place[X.indices[entry + np.arange(len(entry))]]
        row, at = row[at >= 0], at[at >= 0]
        if len(pools) == 1:
            key[row, at] = -np.inf
        else:
            # per-user pools: a users x columns mask of the positives, read at the pool cells
            mask = np.zeros((len(u), ncols), dtype=bool)
            mask[row, at] = True
            key[mask.take(col + (np.arange(len(u)) * ncols)[:, None])] = -np.inf
        np.negative(key, out=key)
        cut = np.partition(key, depth - 1, axis=1)[:, depth - 1 : depth]
        row, col = np.nonzero((key <= cut) | np.isnan(cut))
        items = np.broadcast_to(pool, key.shape)[row, col]
        first = np.searchsorted(row, np.arange(len(u)))[:, None] + np.arange(depth)
        ranked[lo : lo + step] = items[np.lexsort((items, key[row, col], row))][first]
    return RankedLists(users, ranked, relevant, X.shape[1], depth < width)


def rank_scenarios(score_rows, split, scenarios, depth):
    """{scenario: ``build_ranked_lists``' RankedLists to ``depth``} of each
    test scenario of ``scenarios``, from one pass over the training rows in
    blocks of ``_SCORE_CELLS`` scores: ``score_rows(lo, hi)`` forms the
    scores of rows lo..hi on every item once per block, and each scenario
    ranks its users among those rows from them. Users ascend and relevant
    keys sort by user, so the blocks' lists concatenate to the lists of the
    whole score matrix.
    """
    n_users, n = split.train.X.shape
    pooled = {s: _pools(split, s, "test") for s in scenarios}
    parts = {s: [] for s in pooled}
    step = max(1, _SCORE_CELLS // n)
    for lo in range(0, n_users, step):
        hi = lo + step
        block = score_rows(lo, hi)
        for s, (users, pools, relevant) in pooled.items():
            a, b = np.searchsorted(users, [lo, hi])
            if a == b:
                continue
            c, d = np.searchsorted(relevant, [lo * n, hi * n])
            parts[s].append(build_ranked_lists(
                lambda u, col: block.take(col + ((u - lo) * n)[:, None]), split, s, depth=depth,
                pooled=(users[a:b], pools if len(pools) == 1 else pools[a:b], relevant[c:d])))
    return {s: RankedLists(*(np.concatenate([getattr(p, f) for p in ps])
                             for f in ("users", "ranked", "relevant")), n, ps[0].truncated)
            for s, ps in parts.items()}


def validation_scenario(split):
    """The (scenario, use) pair that model selection scores on ``split``.

    A warm split ranks its held-out clicks (leave_one_out, test). A cold
    split ranks its cold validation pool, or the whole validation pool
    (all) when no cold validation pairs exist.
    """
    if hasattr(split, "heldout"):
        return "leave_one_out", "test"
    return ("cold" if len(split.cold_val) else "all"), "val"


def validation_metrics(X, T, split):
    """The SELECTION metrics of the scores X @ T on the validation target,
    keyed like SELECTION: the one scorer of mix selection and the solver
    grid search.

    Only the validation users' rows and the pool items' columns of X @ T
    are formed, one block of users at a time as X[u] @ T[:, items], at most
    ``_SCORE_CELLS`` scores. A CSR times dense product sums each entry over
    its row's clicks in stored order, whatever the other rows and columns,
    so the ranks are those of the full scores bit for bit, and equal
    columns of T give exact ties.
    """
    scenario, use = validation_scenario(split)
    pooled = _pools(split, scenario, use)
    items = _pool_items(pooled[1], X.shape[1])
    # C order, so that no block's product copies T to C order first
    T = np.ascontiguousarray(T if len(items) == T.shape[1] else T[:, items])

    def scores(u, cols):
        return np.asarray(X[u] @ T).take(cols + (np.arange(len(u)) * len(items))[:, None])

    rep = evaluate_scenario(scores, split, scenario, ks=(_SELECTION_K,), use=use,
                            with_ci=False, items=items, pooled=pooled)
    return {f"{m.name}@{m.k}": m.mean for m in rep.metrics}


def evaluate_scenario(scores, split, scenario, ks=(10,), metrics=METRICS,
                      use="test", with_ci=True, resamples=500, fraction=0.20,
                      seed=None, items=None, pooled=None):
    """Score one scenario and return an EvalReport with optional CIs.

    The pool is ranked once, to depth max(ks), and its hit ranks are
    computed once; every metric and k reduces over that table. The bootstrap
    seed defaults to the split's own seed so a rerun of the same experiment
    reproduces the intervals byte for byte. ``scores``, ``items`` and
    ``pooled`` are as in ``build_ranked_lists``; ``scores`` may also be the
    scenario's RankedLists, ranked already (``rank_scenarios``).
    """
    if not ks or not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool)
                         and k >= 1 for k in ks):
        raise ValueError(f"ks must be a nonempty sequence of integers >= 1, got {ks!r}")
    for name in metrics:
        if name not in METRICS:
            raise ValueError(f"unknown metric {name!r}, have {list(METRICS)}")
    table = _hit_ranks(scores if isinstance(scores, RankedLists) else
                       build_ranked_lists(scores, split, scenario, use=use, depth=max(ks),
                                          items=items, pooled=pooled))
    if seed is None:
        seed = split.seed
    results = []
    for name in metrics:
        for k in ks:
            res = _metric(table, name, k)
            if with_ci:
                try:
                    res.ci = bootstrap_ci(res.per_user, resamples=resamples,
                                          fraction=fraction, seed=seed)
                except ValueError:
                    log.warning("skipping CI for %s@%d: too few users", name, k)
            results.append(res)
    return EvalReport(scenario=scenario, n_users=len(table[0]), metrics=results)
