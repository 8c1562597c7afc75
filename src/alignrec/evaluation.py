"""Ranking metrics, scenario evaluation, and bootstrap confidence intervals.

hr@k is truncated recall: hits-in-top-k / min(k, |relevant|). ndcg@k
discounts hits by 1/log2(1+rank) and normalizes by the ideal prefix sum
over min(k, |relevant|) positions. Score ties always break toward the
lower item index so reruns and reorderings reproduce the same tables.

Every ranking is one walk, ``rank_scenarios``: a score source forms the
scores of a block of training rows on one column set, at most
``_SCORE_CELLS`` at a time, and ``build_ranked_lists`` ranks each pool
there to depth max(ks) with one stable argsort per row. A cold split's
'all' is merged from its users' cold and warm prefixes, never ranked as
one pool. A CSR times dense product sums each entry over its row's clicks
in stored order, whatever the other rows, so the blocked ranks equal the
full matrix's, and no users x items score matrix is formed. One
``np.searchsorted`` of the ranked keys user * n_items + item into the
sorted relevant keys gives the hit-rank table that every metric and k
reads; caller-built lists go ``_HIT_CHUNK`` at a time, padded with -1.
"""

from __future__ import annotations

import json
import logging
import math
from collections import namedtuple
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
    integer indexing and iteration give RankedList views. A score block's
    lists also hold each place's sort ``keys`` (``build_ranked_lists``)."""

    users: np.ndarray
    ranked: np.ndarray
    relevant: np.ndarray
    n_items: int
    truncated: bool
    keys: np.ndarray | None = None

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


# resample indices drawn per chunk: a chunk's scratch stays near a MB
# whatever the user count
_DRAW_CELLS = 2**16


def bootstrap_ci(per_user_values, resamples=500, fraction=0.20, seed=0):
    """Percentile bootstrap of the mean over user subsamples.

    Each resample draws m = ceil(fraction * n) users with replacement; the
    interval is the (2.5, 97.5) percentile range of the resample means. It
    is therefore the spread of an m-user subsample mean, not of the n-user
    mean a report prints beside it: about 1/sqrt(fraction) as wide, 2.2x at
    the default fraction 0.2. Given one row of n values it returns (lo, hi);
    given a stack of rows over the same n users (one per metric and k), one
    interval per row, all from the same draws. The draws come
    ``_DRAW_CELLS`` indices at a time; chunked ``Generator.integers`` rows
    equal one draw, so the intervals do not depend on the chunk.
    """
    values = np.asarray(per_user_values, dtype=np.float64)
    rows = np.atleast_2d(values)
    n = rows.shape[1]
    if n < 5:
        raise ValueError(f"confidence interval undefined for {n} users (need >= 5)")
    m = math.ceil(fraction * n)
    rng = np.random.default_rng(seed)
    means = np.empty((len(rows), resamples))
    step = max(1, _DRAW_CELLS // m)
    for lo in range(0, resamples, step):
        idx = rng.integers(0, n, size=(min(step, resamples - lo), m))
        for row, mean in zip(rows, means):
            mean[lo : lo + len(idx)] = row[idx].mean(axis=1)
    cis = [(float(lo), float(hi)) for lo, hi in (np.percentile(r, [2.5, 97.5]) for r in means)]
    return cis[0] if values.ndim == 1 else cis


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
    """{pool: (item rows, sorted relevant keys user * n_items + item)} of
    ``scenario``: a cold split's val or test pairs against its cold or warm
    items (one row for all users, in item order; both for 'all'), or a warm
    split's held-out clicks against each user's held-out item and negatives."""
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    n = split.train.n_items
    if scenario == "leave_one_out":
        if not hasattr(split, "heldout"):
            raise ValueError("leave_one_out needs a warm split")
        if use != "test":
            raise ValueError("warm splits have a single held-out set")
        return {scenario: (np.column_stack((split.heldout, split.negatives)),
                           np.arange(len(split.heldout)) * n + split.heldout)}

    if not hasattr(split, "cold_val"):
        raise ValueError(f"scenario {scenario!r} needs a cold split")
    if use not in ("val", "test"):
        raise ValueError(f"use must be 'val' or 'test', got {use!r}")
    held = {p: getattr(split, f"{p}_{use}") for p in ("cold", "warm")}
    cold = np.isin(np.arange(n), split.cold_cols)
    # distinct pairs sorted by (user, item): each user's run is its relevant set
    return {p: (np.flatnonzero(cold == (p == "cold"))[None, :],
                np.unique(held[p][:, 0].astype(np.int64) * n + held[p][:, 1]))
            for p in (("cold", "warm") if scenario == "all" else (scenario,))}


def _pool_items(pools, n):
    """The distinct items of ``pools`` in ascending order (np.unique's), by
    one count over the n items."""
    return np.flatnonzero(np.bincount(pools.ravel(), minlength=n))


def _pool_columns(items, pools, n):
    """Each pool cell's position in ascending ``items`` (np.searchsorted's;
    -1 for an item it lacks), through an item -> position map over n items."""
    column = np.full(n, -1)
    column[items] = np.arange(len(items))
    return column[pools]


# pool cells per ranking block: a block's scratch stays near a MB at any user count
_RANK_CELLS = 2**16
# scores a score source forms per block (2 MiB of float64), whatever the user count
_SCORE_CELLS = 2**18

ScoreBlock = namedtuple("ScoreBlock", "scores positive lo column users pool")


def build_ranked_lists(scores, split, scenario, use="test", depth=None):
    """A RankedLists of the first ``depth`` places (None: all) of each user's
    pool of one scenario, in ``rank_candidates`` order: training positives
    masked to -inf, so they and any -inf score rank after every finite
    score, NaN after them, ties toward the lower item index.

    ``scores`` is users x items, or a ScoreBlock: rows ``lo``, ``lo`` + 1,
    ... scored on the columns that ``column`` maps items to, with their
    training positives marked in ``positive``; its ``users`` rank the one
    ``pool`` that ``scenario`` names (one item row for all or one per user,
    in item order), ``_RANK_CELLS`` cells at a time. Its lists carry each
    place's negated score as ``keys`` and no relevant items.
    """
    if not isinstance(scores, ScoreBlock):
        depth = split.train.n_items if depth is None else depth
        return rank_scenarios(lambda lo, hi: scores[lo:hi], split, (scenario,), depth, use)[scenario]
    b, n = scores, split.train.n_items
    ncols, width = b.scores.shape[1], b.pool.shape[1]
    depth = min(depth, width)
    shared = len(b.pool) == 1
    cols = b.column[b.pool]
    step = max(1, _RANK_CELLS // width)
    ranked = np.empty((len(b.users), depth), dtype=b.pool.dtype)
    keys = np.empty((len(b.users), depth))
    for lo in range(0, len(b.users), step):
        u = b.users[lo : lo + step]
        pool, col = (b.pool, cols) if shared else (b.pool[lo : lo + step], cols[lo : lo + step])
        flat = col + ((u - b.lo) * ncols)[:, None]
        key = b.scores.take(flat).astype(np.float64, copy=False)
        np.copyto(key, -np.inf, where=b.positive.take(flat))
        np.negative(key, out=key)
        # one stable argsort per row of the cells up to and tied with its
        # depth-th key (the whole row when that key is NaN), in pool order,
        # padded with NaN, which sorts last
        cut = np.partition(key, depth - 1, axis=1)[:, depth - 1 : depth]
        row, col = np.nonzero((key <= cut) | np.isnan(cut))
        at = np.arange(len(row)) - np.searchsorted(row, row)
        cell = np.full((len(u), at.max() + 1), np.nan)
        cell[row, at] = key[row, col]
        item = np.zeros(cell.shape, dtype=pool.dtype)
        item[row, at] = np.broadcast_to(pool, key.shape)[row, col]
        order = np.argsort(cell, axis=1, kind="stable")[:, :depth]
        ranked[lo : lo + step] = np.take_along_axis(item, order, 1)
        keys[lo : lo + step] = np.take_along_axis(cell, order, 1)
    return RankedLists(b.users, ranked, np.empty(0, dtype=np.int64), n, depth < width, keys)


def rank_scenarios(score_rows, split, scenarios, depth, use="test", columns=None):
    """{scenario: RankedLists to ``depth``}: the one walk over the training
    rows. ``score_rows(lo, hi)`` scores rows lo..hi on ``columns``
    (ascending, every pool item; None: all), ``_SCORE_CELLS`` at most, and
    ``build_ranked_lists`` ranks each pool there once for the users that
    need it. 'all' merges its users' cold and warm prefixes by key, then
    item: a top place of a union is a top place of its part.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    X = split.train.X
    n_users, n = X.shape
    columns = np.arange(n) if columns is None else columns
    # each item's column of the scores; -1: none
    column = _pool_columns(columns, np.arange(n), n)
    wanted, need = {}, {}
    for s in scenarios:
        pools = _pools(split, s, use)
        relevant = np.sort(np.concatenate([r for _, r in pools.values()]))
        if len(relevant) == 0:
            raise ValueError(f"scenario {s!r} has an empty candidate pool or no held-out interactions")
        users = np.unique(relevant // n)
        parts = [p for p, (pool, _) in pools.items() if pool.size]
        wanted[s] = users, relevant, sum(pools[p][0].shape[1] for p in parts), parts
        for p in parts:
            # pools in item order, so that the stable sort breaks ties by item
            need[p] = (np.union1d(need[p][0], users) if p in need else users,
                       np.sort(pools[p][0], axis=1))
    out = {s: [] for s in wanted}
    step = max(1, _SCORE_CELLS // len(columns))
    for lo in range(0, n_users, step):
        hi = min(lo + step, n_users)
        block, lists = score_rows(lo, hi), {}
        # the block's training positives, its CSR entries read from
        # indptr/indices, marked once for every pool ranked in it
        at = column[X.indices[X.indptr[lo] : X.indptr[hi]]]
        row = np.repeat(np.arange(hi - lo), np.diff(X.indptr[lo : hi + 1]))
        positive = np.zeros(block.shape, dtype=bool)
        positive[row[at >= 0], at[at >= 0]] = True
        for p, (users, pool) in need.items():
            a, b = np.searchsorted(users, [lo, hi])
            if a < b:
                lists[p] = build_ranked_lists(ScoreBlock(
                    block, positive, lo, column, users[a:b], pool if len(pool) == 1 else pool[a:b]),
                    split, p, depth=depth)
        for s, (users, _, width, parts) in wanted.items():
            rows = users[slice(*np.searchsorted(users, [lo, hi]))]
            if len(rows) == 0:
                continue
            got = [(lists[p], np.searchsorted(lists[p].users, rows)) for p in parts]
            ranked = np.hstack([g.ranked[i] for g, i in got])
            if len(got) > 1:
                keys = np.hstack([g.keys[i] for g, i in got])
                order = np.lexsort((ranked, keys))[:, : min(depth, width)]
                ranked = np.take_along_axis(ranked, order, 1)
            out[s].append(ranked)
    return {s: RankedLists(users, np.concatenate(out[s]), relevant, n, depth < width)
            for s, (users, relevant, width, _) in wanted.items()}


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
    grid search. The walk forms X[lo:hi] @ T[:, items] on the pool items;
    equal columns of T give exact ties.
    """
    scenario, use = validation_scenario(split)
    n = X.shape[1]
    pools = _pools(split, scenario, use).values()
    items = _pool_items(np.concatenate([pool.ravel() for pool, _ in pools]), n)
    # C order, so that no block's product copies T to C order first
    T = np.ascontiguousarray(T if len(items) == n else T[:, items])
    lists = rank_scenarios(lambda lo, hi: np.asarray(X[lo:hi] @ T), split, (scenario,),
                           _SELECTION_K, use, columns=items)
    rep = evaluate_scenario(lists[scenario], split, scenario, ks=(_SELECTION_K,), use=use,
                            with_ci=False)
    return {f"{m.name}@{m.k}": m.mean for m in rep.metrics}


def evaluate_scenario(scores, split, scenario, ks=(10,), metrics=METRICS,
                      use="test", with_ci=True, resamples=500, fraction=0.20,
                      seed=None):
    """Score one scenario and return an EvalReport with optional CIs.

    The pool is ranked once, to depth max(ks), and its hit ranks are
    computed once; every metric and k reduces over that table, and one
    bootstrap draw gives every interval. The bootstrap seed defaults to the
    split's own seed so a rerun of the same experiment reproduces the
    intervals byte for byte. ``scores`` is users x items, or the scenario's
    RankedLists, ranked already (``rank_scenarios``).
    """
    if not ks or not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool)
                         and k >= 1 for k in ks):
        raise ValueError(f"ks must be a nonempty sequence of integers >= 1, got {ks!r}")
    for name in metrics:
        if name not in METRICS:
            raise ValueError(f"unknown metric {name!r}, have {list(METRICS)}")
    table = _hit_ranks(scores if isinstance(scores, RankedLists) else
                       build_ranked_lists(scores, split, scenario, use=use, depth=max(ks)))
    results = [_metric(table, name, k) for name in metrics for k in ks]
    if with_ci:
        try:
            cis = bootstrap_ci(np.stack([res.per_user for res in results]), resamples=resamples,
                               fraction=fraction, seed=split.seed if seed is None else seed)
        except ValueError:
            log.warning("skipping CIs for %s: too few users", scenario)
        else:
            for res, ci in zip(results, cis):
                res.ci = ci
    return EvalReport(scenario=scenario, n_users=len(table[0]), metrics=results)
