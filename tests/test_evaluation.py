"""Ranking metrics, scenario pools, and the bootstrap interval."""

import dataclasses
import logging
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from alignrec import (
    ColdSplit,
    Dataset,
    EvalReport,
    RankedList,
    WarmSplit,
    bootstrap_ci,
    evaluate_scenario,
    hr_at_k,
    ndcg_at_k,
)
from alignrec import evaluation
from alignrec.evaluation import build_ranked_lists, rank_candidates


def _lists(ranked, relevant):
    return [RankedList(user=0, ranked=np.asarray(ranked), relevant=np.asarray(relevant))]


@pytest.fixture
def cold_split():
    """Hand-built 4-user, 6-item split with items 4 and 5 cold."""
    dense = np.array([
        [1, 1, 0, 0, 0, 0],
        [0, 1, 1, 0, 0, 0],
        [1, 0, 0, 1, 0, 0],
        [0, 0, 1, 1, 0, 0],
    ], dtype=np.float64)
    train = Dataset(
        X=sp.csr_matrix(dense),
        user_ids=tuple(f"u{i}" for i in range(4)),
        item_ids=tuple(f"i{j}" for j in range(6)),
        interactions=np.argwhere(dense > 0).astype(np.int64),
    )
    return ColdSplit(
        train=train,
        warm_val=np.array([[0, 2]]),
        warm_test=np.array([[1, 3]]),
        cold_val=np.array([[2, 4]]),
        cold_test=np.array([[0, 4], [1, 5]]),
        cold_item_ids=("i4", "i5"),
        seed=0,
    )


# ----------------------------------------------------------------- ranking

def test_rank_candidates_orders_by_score_then_index():
    scores = np.array([5.0, 5.0, 9.0, 1.0])
    np.testing.assert_array_equal(rank_candidates(scores, [0, 1, 2]), [2, 0, 1])


def test_rank_candidates_ignores_items_outside_pool():
    scores = np.array([100.0, 1.0, 2.0])
    np.testing.assert_array_equal(rank_candidates(scores, [1, 2]), [2, 1])


def test_hr_counts_hits_against_truncated_denominator():
    lists = _lists([7, 3, 9, 1], [7, 9, 1])
    # hits in top 2 = 1, denominator min(2, 3) = 2
    assert hr_at_k(lists, 2).per_user[0] == pytest.approx(0.5)
    assert hr_at_k(lists, 4).per_user[0] == pytest.approx(1.0)


def test_hr_single_hit_at_top():
    assert hr_at_k(_lists([4, 2, 8], [4]), 1).per_user[0] == pytest.approx(1.0)


def test_ndcg_two_hits_at_ranks_one_and_three():
    lists = _lists([7, 3, 9, 1, 2], [7, 9])
    assert ndcg_at_k(lists, 10).per_user[0] == pytest.approx(
        0.9197207891481876, abs=1e-15
    )


def test_ndcg_perfect_prefix_is_one():
    assert ndcg_at_k(_lists([5, 1, 2], [5]), 3).per_user[0] == pytest.approx(1.0)


def test_ndcg_miss_is_zero():
    assert ndcg_at_k(_lists([5, 1, 2], [2]), 1).per_user[0] == pytest.approx(0.0)


def test_ndcg_ideal_truncates_at_k():
    lists = _lists([7, 3, 9], [7, 3, 9])
    ideal = 1.0 + 1.0 / np.log2(3)
    assert ndcg_at_k(lists, 2).per_user[0] == pytest.approx((1.0 + 1.0 / np.log2(3)) / ideal)


def test_metrics_reject_bad_k():
    with pytest.raises(ValueError, match="k must be"):
        hr_at_k(_lists([1], [1]), 0)


def test_users_without_relevant_items_are_dropped_with_warning(caplog):
    lists = _lists([1, 2], [1]) + [RankedList(user=1, ranked=np.array([1, 2]),
                                              relevant=np.array([], dtype=np.int64))]
    with caplog.at_level(logging.WARNING):
        res = hr_at_k(lists, 1)
    assert res.users.tolist() == [0]
    assert "1 users have no relevant items" in caplog.text


def test_all_users_empty_is_an_error():
    empty = [RankedList(user=0, ranked=np.array([1]), relevant=np.array([], dtype=np.int64))]
    with pytest.raises(ValueError, match="nonempty relevant"):
        ndcg_at_k(empty, 1)


def _reference_metrics(rl, k):
    """hr@k and ndcg@k of one list, one list at a time (the direct path)."""
    ranks = np.flatnonzero(np.isin(rl.ranked, rl.relevant)) + 1
    hit = ranks[ranks <= k]
    depth = min(k, len(rl.relevant))
    dcg = float(np.sum(1.0 / np.log2(1.0 + hit)))
    idcg = float(np.sum(1.0 / np.log2(1.0 + np.arange(1, depth + 1))))
    return len(hit) / depth, dcg / idcg


@st.composite
def ranked_lists(draw):
    """Lists over pools of up to 40 items, with relevant sets that may be
    empty, reach past the pool, or fill most of it (8+ hits within k)."""
    lists = []
    for user in range(draw(st.integers(1, 12))):
        pool = draw(st.permutations(range(draw(st.integers(1, 40)))))
        relevant = draw(st.lists(st.integers(0, 45), max_size=40, unique=True))
        lists.append(RankedList(user=user, ranked=np.array(pool, dtype=np.int64),
                                relevant=np.array(relevant, dtype=np.int64)))
    return lists


@settings(max_examples=100, deadline=None)
@given(lists=ranked_lists(), k=st.integers(1, 30))
def test_metrics_over_the_hit_rank_table_equal_the_per_list_path(lists, k):
    kept = [rl for rl in lists if len(rl.relevant)]
    if not kept:
        return
    ref = np.array([_reference_metrics(rl, k) for rl in kept])
    for res, col in ((hr_at_k(lists, k), 0), (ndcg_at_k(lists, k), 1)):
        assert res.users.tolist() == [rl.user for rl in kept]
        # exact: the table sums each user's discounts like the per-list np.sum
        assert res.per_user.tolist() == ref[:, col].tolist()


def _reference_table(lists):
    """The hit-rank table built one np.isin per list (the direct path)."""
    kept = [rl for rl in lists if len(rl.relevant)]
    ranks = [np.flatnonzero(np.isin(rl.ranked, rl.relevant)) + 1 for rl in kept]
    return (np.array([rl.user for rl in kept]), np.array([len(rl.relevant) for rl in kept]),
            np.array([len(r) for r in ranks]), np.concatenate(ranks))


@st.composite
def wide_ranked_lists(draw):
    """Lists of mixed lengths over item ids up to 2**40 (or a small range, so
    hits are common), with relevant items in and out of the pool and some
    lists with none."""
    top = draw(st.sampled_from([20, 2**40]))
    lists = []
    for user in range(draw(st.integers(1, 12))):
        pool = draw(st.lists(st.integers(0, top), max_size=30, unique=True))
        inside = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
        outside = draw(st.lists(st.integers(0, top), max_size=4))
        relevant = np.unique(np.array(inside + outside, dtype=np.int64))
        lists.append(RankedList(user=user, ranked=np.array(pool, dtype=np.int64),
                                relevant=relevant))
    return lists


@settings(max_examples=200, deadline=None)
@given(lists=wide_ranked_lists())
def test_chunked_hit_rank_table_equals_one_isin_per_list(lists):
    if not any(len(rl.relevant) for rl in lists):
        return
    # a chunk of 3 lists, so most examples cross chunk boundaries
    with mock.patch.object(evaluation, "_HIT_CHUNK", 3):
        table = evaluation._hit_ranks(lists)
    for got, want in zip(table, _reference_table(lists)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_padding_never_hits_even_where_its_key_is_a_relevant_key():
    # row 1's padding key 1 * width - 1 is row 0's key of its relevant item
    # width - 1 = 2**40, both for caller lists and for an array block
    lists = [RankedList(user=0, ranked=np.array([5, 6]), relevant=np.array([2**40])),
             RankedList(user=1, ranked=np.array([7]), relevant=np.array([7]))]
    table = evaluation._hit_ranks(lists)
    assert table[2].tolist() == [0, 1] and table[3].tolist() == [1]
    block = evaluation.RankedLists(users=np.array([0, 1]), ranked=np.array([[0, 1], [1, -1]]),
                                   relevant=np.array([2, 4]), n_items=3, truncated=False)
    table = evaluation._hit_ranks(block)
    assert table[2].tolist() == [0, 1] and table[3].tolist() == [1]


def test_hit_rank_table_scratch_memory_is_bounded():
    rng = np.random.default_rng(0)
    lists = [RankedList(user=u, ranked=rng.permutation(1000),
                        relevant=rng.choice(1000, size=3, replace=False))
             for u in range(4096)]
    tracemalloc.start()
    try:
        evaluation._hit_ranks(lists)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one pass over all 4M candidates at once would hold 32 MB of int64 keys
    assert peak < 8 * 2**20


def _split_over(clicked, cold_items=(), held=None, heldout=None, negatives=None):
    """A cold split (held pairs as both val and test, split by ``cold_items``)
    or, given ``heldout``, a warm split, over the boolean ``clicked`` matrix."""
    n_users, n_items = clicked.shape
    item_ids = tuple(f"i{j}" for j in range(n_items))
    train = Dataset(X=sp.csr_matrix(clicked.astype(np.float64)),
                    user_ids=tuple(f"u{u}" for u in range(n_users)), item_ids=item_ids,
                    interactions=np.argwhere(clicked).astype(np.int64))
    if heldout is not None:
        return WarmSplit(train=train, heldout=heldout, negatives=negatives, seed=0,
                         min_user_clicks=1)
    is_cold = np.isin(held[:, 1], cold_items)
    return ColdSplit(train=train, warm_val=held[~is_cold], warm_test=held[~is_cold],
                     cold_val=held[is_cold], cold_test=held[is_cold],
                     cold_item_ids=tuple(item_ids[j] for j in cold_items), seed=0)


def _reference_lists(scores, split, scenario):
    """Every user's full ``rank_candidates`` list, one user at a time."""
    clicked = split.train.X.toarray() != 0
    if scenario == "leave_one_out":
        entries = [(u, np.concatenate(([h], split.negatives[u])), np.array([h]))
                   for u, h in enumerate(split.heldout)]
    else:
        cold = np.isin(np.arange(split.train.n_items), split.cold_cols)
        pool = {"cold": np.flatnonzero(cold), "warm": np.flatnonzero(~cold),
                "all": np.arange(len(cold))}[scenario]
        pairs = {"cold": split.cold_test, "warm": split.warm_test,
                 "all": np.concatenate((split.warm_test, split.cold_test))}[scenario]
        entries = [(u, pool, np.unique(pairs[pairs[:, 0] == u, 1]))
                   for u in np.unique(pairs[:, 0]).tolist()]
    return [RankedList(user=u, relevant=rel,
                       ranked=rank_candidates(np.where(clicked[u], -np.inf, scores[u]), pool))
            for u, pool, rel in entries]


@st.composite
def scored_scenarios(draw):
    """Scores from a few values (ties, NaN, +-inf, -0.0) on a small split with
    random training positives, also inside the pools, and one scenario; a
    leave_one_out pool is the held-out item, then negatives in any order."""
    n_users, n_items = draw(st.integers(1, 8)), draw(st.integers(2, 12))
    cells = n_users * n_items
    scores = np.array(draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0,
                                                     1.0, 2.5]),
                                    min_size=cells, max_size=cells))).reshape(n_users, n_items)
    clicked = np.array(draw(st.lists(st.booleans(), min_size=cells, max_size=cells)))
    clicked = clicked.reshape(n_users, n_items)
    scenario = draw(st.sampled_from(evaluation.SCENARIOS))
    if scenario == "leave_one_out":
        width = draw(st.integers(2, n_items))
        pools = np.array([draw(st.permutations(range(n_items)))[:width] for _ in range(n_users)])
        return scores, _split_over(clicked, heldout=pools[:, 0], negatives=pools[:, 1:]), scenario
    cold = draw(st.lists(st.integers(0, n_items - 1), min_size=1, max_size=n_items - 1,
                         unique=True))
    warm = sorted(set(range(n_items)) - set(cold))
    user = st.integers(0, n_users - 1)
    held = draw(st.lists(st.tuples(user, st.sampled_from(cold)), min_size=1, max_size=10))
    held += draw(st.lists(st.tuples(user, st.sampled_from(warm)), min_size=1, max_size=10))
    return scores, _split_over(clicked, sorted(cold), np.array(held)), scenario


@settings(max_examples=150, deadline=None)
@given(case=scored_scenarios(), depth=st.sampled_from([1, 10, 40]),
       cells=st.sampled_from([1, 37, evaluation._RANK_CELLS]))
def test_block_prefix_equals_the_full_sort(case, depth, cells):
    scores, split, scenario = case
    ref = _reference_lists(scores, split, scenario)
    # one user per block, an odd size that splits some pools' users, the default
    with mock.patch.object(evaluation, "_RANK_CELLS", cells):
        got = build_ranked_lists(scores, split, scenario, depth=depth)
        rep = evaluate_scenario(scores, split, scenario, ks=(1, depth), with_ci=False)
    assert [rl.user for rl in got] == [rl.user for rl in ref]
    for g, r in zip(got, ref):
        assert g.ranked.dtype == r.ranked.dtype
        np.testing.assert_array_equal(g.ranked, r.ranked[:depth])
        np.testing.assert_array_equal(g.relevant, r.relevant)
        assert g.truncated == (depth < len(r.ranked))
    for k in (1, depth):
        assert rep.metric("hr", k).per_user.tolist() == hr_at_k(ref, k).per_user.tolist()
        assert rep.metric("ndcg", k).per_user.tolist() == ndcg_at_k(ref, k).per_user.tolist()


@st.composite
def ranker_cases(draw):
    """Item weights theta with duplicated columns (exact ties) and inf/NaN
    products on a small split, and some of its test scenarios: a cold
    split's cold pool of no item (then no 'cold' scenario) up to all but
    one, with cold and warm test pairs, or a warm split whose held-out item
    sorts anywhere among its negatives."""
    n_users, n_items = draw(st.integers(1, 9)), draw(st.integers(2, 12))
    clicked = np.array(draw(st.lists(st.booleans(), min_size=n_users * n_items,
                                     max_size=n_users * n_items))).reshape(n_users, n_items)
    base = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, -1.0, 1 / 3, np.inf, -np.inf,
                                                   np.nan]),
                                  min_size=n_items * n_items, max_size=n_items * n_items)))
    columns = draw(st.lists(st.integers(0, n_items - 1), min_size=n_items, max_size=n_items))
    theta = base.reshape(n_items, n_items)[:, columns]
    if draw(st.booleans()):
        width = draw(st.integers(2, n_items))
        pools = np.array([draw(st.permutations(range(n_items)))[:width] for _ in range(n_users)])
        return theta, _split_over(clicked, heldout=pools[:, 0], negatives=pools[:, 1:]), \
            ["leave_one_out"]
    cold = draw(st.lists(st.integers(0, n_items - 1), max_size=n_items - 1, unique=True))
    warm = sorted(set(range(n_items)) - set(cold))
    user = st.integers(0, n_users - 1)
    held = draw(st.lists(st.tuples(user, st.sampled_from(cold)), min_size=1, max_size=6)) \
        if cold else []
    held += draw(st.lists(st.tuples(user, st.sampled_from(warm)), min_size=1, max_size=6))
    scenarios = draw(st.sets(st.sampled_from(["cold", "warm", "all"] if cold else ["warm", "all"]),
                             min_size=1))
    return theta, _split_over(clicked, sorted(cold), np.array(held)), \
        [s for s in evaluation.SCENARIOS if s in scenarios]


@settings(max_examples=150, deadline=None)
@given(case=ranker_cases(), depth=st.integers(1, 14), cells=st.sampled_from([1, 7, 2**18]),
       pool_only=st.booleans())
def test_one_ranker_ranks_every_pool_like_its_full_sort(case, depth, cells, pool_only):
    """The one walk, on every item or on the pool items only, in blocks of
    one row (many hold no user of a scenario), a few rows or all rows,
    against each user's full ``rank_candidates`` sort of its pool; 'all',
    merged from its cold and warm prefixes, against the direct sort of
    every item. The scores are X @ theta, as validation forms them: the
    walk masks the training positives itself."""
    theta, split, scenarios = case
    n = split.train.n_items
    scores = np.asarray(split.train.X @ theta)
    columns = None
    if pool_only:
        columns = evaluation._pool_items(np.concatenate([
            pool.ravel() for s in scenarios
            for pool, _ in evaluation._pools(split, s, "test").values()]), n)
    with mock.patch.object(evaluation, "_SCORE_CELLS", cells):
        got = evaluation.rank_scenarios(
            lambda lo, hi: scores[lo:hi] if columns is None else scores[lo:hi][:, columns],
            split, scenarios, depth, columns=columns)
    assert list(got) == scenarios
    for scenario in scenarios:
        ref = _reference_lists(scores, split, scenario)
        assert [rl.user for rl in got[scenario]] == [rl.user for rl in ref]
        for g, r in zip(got[scenario], ref):
            assert g.ranked.dtype == r.ranked.dtype
            np.testing.assert_array_equal(g.ranked, r.ranked[:depth])
            np.testing.assert_array_equal(g.relevant, r.relevant)
            assert g.truncated == (depth < len(r.ranked))


@settings(max_examples=100, deadline=None)
@given(case=scored_scenarios(), depth=st.sampled_from([1, 3, 40]))
def test_array_hit_table_equals_one_isin_per_view(case, depth):
    scores, split, scenario = case
    lists = build_ranked_lists(scores, split, scenario, depth=depth)
    views = list(lists)
    assert len(views) == len(lists)
    for i, v in enumerate(views):
        w = lists[i - len(lists) if i % 2 else i]
        assert (v.user, v.truncated) == (w.user, w.truncated)
        assert np.array_equal(v.ranked, w.ranked) and np.array_equal(v.relevant, w.relevant)
    table = evaluation._hit_ranks(lists)
    for got, want in zip(table, _reference_table(views)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert table[4] == (lists.ranked.shape[1] if views[0].truncated else None)
    # padding past every row never hits, though user u's padding key u * n - 1
    # is user u - 1's key of item n - 1
    padded = dataclasses.replace(
        lists, ranked=np.pad(lists.ranked, ((0, 0), (0, 2)), constant_values=-1))
    for got, want in zip(evaluation._hit_ranks(padded)[:4], table):
        assert got.tolist() == want.tolist()


def _block_ranking_scratch(n_users=4096, n_items=1000):
    """tracemalloc peak of ``build_ranked_lists`` to depth 10 on an 'all' pool
    of ``n_items``, less what its outputs still hold."""
    rng = np.random.default_rng(0)
    held = np.column_stack((np.arange(n_users), rng.integers(0, n_items, n_users)))
    split = _split_over(rng.random((n_users, n_items)) < 0.02, held=held)
    scores = rng.random((n_users, n_items))
    tracemalloc.start()
    try:
        lists = build_ranked_lists(scores, split, "all", depth=10)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lists) == n_users
    return peak - current


def test_block_ranking_scratch_memory_is_bounded():
    # 2**16-cell blocks with one gather: about 1.7 MiB; 2**18-cell blocks
    # take over 6 MiB, more when each user's whole score row is copied first
    assert _block_ranking_scratch() < 3 * 2**20


def test_evaluate_scenario_refuses_bad_ks_before_ranking(cold_split, monkeypatch):
    def no_ranking(*args, **kwargs):
        raise AssertionError("ranked before checking ks")

    monkeypatch.setattr(evaluation, "build_ranked_lists", no_ranking)
    scores = np.ones((4, 6))
    for ks in ((), [], (0,), (10, -1), (2.5,), (True,), ("10",)):
        with pytest.raises(ValueError, match="ks must be"):
            evaluate_scenario(scores, cold_split, "all", ks=ks, with_ci=False)


def test_metrics_refuse_k_past_a_truncated_list():
    lists = [RankedList(user=0, ranked=np.array([7, 3, 9]), relevant=np.array([9, 4]),
                        truncated=True)]
    assert hr_at_k(lists, 3).per_user.tolist() == [0.5]
    for metric in (hr_at_k, ndcg_at_k):
        with pytest.raises(ValueError, match="past lists truncated at depth 3"):
            metric(lists, 4)
    # a caller-built list is full by default: any k reads it, as before
    assert hr_at_k(_lists([7, 3, 9], [9, 4]), 10).per_user.tolist() == [0.5]


def test_build_ranked_lists_refuses_a_depth_below_one(cold_split):
    with pytest.raises(ValueError, match="depth must be"):
        build_ranked_lists(np.ones((4, 6)), cold_split, "all", depth=0)


def test_evaluate_scenario_ranks_non_finite_scores_by_the_stated_rule(cold_split):
    """+inf first, then finite scores descending, then -inf (masked
    positives too), then NaN; ties toward the lower item index."""
    indptr, indices = cold_split.train.X.indptr, cold_split.train.X.indices
    rng = np.random.default_rng(5)
    values = np.array([np.nan, np.inf, -np.inf, 0.0, 1.0, 2.5])
    for _ in range(20):
        scores = rng.choice(values, size=(4, 6))
        for scenario, use in (("all", "test"), ("all", "val"), ("cold", "test")):
            lists = []
            for rl in build_ranked_lists(scores, cold_split, scenario, use=use):
                s = scores[rl.user].copy()
                s[indices[indptr[rl.user] : indptr[rl.user + 1]]] = -np.inf
                order = sorted(np.unique(rl.ranked).tolist(),
                               key=lambda j: (math.isnan(s[j]), -s[j] if s[j] == s[j] else 0, j))
                lists.append(RankedList(user=rl.user, ranked=np.array(order),
                                        relevant=rl.relevant))
            rep = evaluate_scenario(scores, cold_split, scenario, ks=(1, 2, 3), use=use,
                                    with_ci=False)
            for k in (1, 2, 3):
                ref = np.array([_reference_metrics(rl, k) for rl in lists])
                assert rep.metric("hr", k).per_user.tolist() == ref[:, 0].tolist()
                assert rep.metric("ndcg", k).per_user.tolist() == ref[:, 1].tolist()


def test_evaluate_scenario_warns_once_per_call_not_per_metric(cold_split, caplog,
                                                              monkeypatch):
    import alignrec.evaluation as evaluation

    rank = evaluation.rank_scenarios

    def with_an_empty_user(*args, **kwargs):
        return {s: list(lists) + [RankedList(user=3, ranked=np.array([4, 5]),
                                             relevant=np.array([], dtype=np.int64))]
                for s, lists in rank(*args, **kwargs).items()}

    monkeypatch.setattr(evaluation, "rank_scenarios", with_an_empty_user)
    scores = np.random.default_rng(2).random((4, 6))
    with caplog.at_level(logging.WARNING):
        rep = evaluate_scenario(scores, cold_split, "cold", ks=(1, 2), with_ci=False)
    assert rep.n_users == 2
    assert caplog.text.count("have no relevant items") == 1


# --------------------------------------------------------------- bootstrap

def test_bootstrap_constant_values_collapse():
    lo, hi = bootstrap_ci(np.full(50, 0.3), seed=0)
    assert lo == pytest.approx(0.3) and hi == pytest.approx(0.3)


def test_bootstrap_is_seed_deterministic():
    rng = np.random.default_rng(40)
    vals = rng.random(100)
    assert bootstrap_ci(vals, seed=1) == bootstrap_ci(vals, seed=1)
    assert bootstrap_ci(vals, seed=1) != bootstrap_ci(vals, seed=2)


def test_bootstrap_brackets_the_sample_mean():
    rng = np.random.default_rng(41)
    vals = rng.normal(0.5, 0.1, size=400)
    lo, hi = bootstrap_ci(vals, seed=3)
    assert lo < vals.mean() < hi


def _one_draw_interval(values, resamples, fraction, seed):
    """The interval from one draw of every resample at once, then one mean
    per resample row: the bootstrap before it drew in chunks."""
    m = math.ceil(fraction * len(values))
    idx = np.random.default_rng(seed).integers(0, len(values), size=(resamples, m))
    lo, hi = np.percentile(values[idx].mean(axis=1), [2.5, 97.5])
    return float(lo), float(hi)


@pytest.mark.parametrize("n,fraction", [(57, 0.2), (60, 0.2), (23, 1.0), (46, 0.5)])
def test_chunked_bootstrap_draws_give_the_one_draw_intervals(n, fraction):
    # m = 12, 12, 23 and 23: odd and even; values over many scales
    rng = np.random.default_rng(n)
    stack = rng.normal(size=(3, n)) * 10.0 ** rng.integers(-8, 8, size=(3, n))
    m = math.ceil(fraction * n)
    want = [_one_draw_interval(v, 150, fraction, 11) for v in stack]
    for rows in range(1, 101):
        with mock.patch.object(evaluation, "_DRAW_CELLS", rows * m):
            assert bootstrap_ci(stack, resamples=150, fraction=fraction, seed=11) == want
            assert bootstrap_ci(stack[1], resamples=150, fraction=fraction, seed=11) == want[1]


def test_bootstrap_scratch_memory_is_bounded_at_20000_users():
    # one draw of all 500 resamples: 30.5 MiB of indices and gathered values
    # for one row of 20000 users, once per metric and k
    stack = np.random.default_rng(3).random((4, 20000))
    tracemalloc.start()
    try:
        cis = bootstrap_ci(stack, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cis) == 4
    assert peak < 2 * 2**20


def test_evaluate_scenario_draws_the_bootstrap_once_per_report():
    rng = np.random.default_rng(8)
    split = _split_over(rng.random((40, 12)) < 0.3,
                        held=np.column_stack((np.arange(40), rng.integers(0, 12, 40))))
    scores = rng.random((40, 12))
    with mock.patch.object(evaluation, "bootstrap_ci", wraps=evaluation.bootstrap_ci) as draw:
        rep = evaluate_scenario(scores, split, "all", ks=(1, 5), resamples=50)
    assert draw.call_count == 1
    for m in rep.metrics:
        assert m.ci == bootstrap_ci(m.per_user, resamples=50, seed=split.seed)


def test_reported_interval_is_the_spread_of_a_subsample_mean():
    # a report's interval is the percentile spread of the mean of
    # ceil(fraction * n) users drawn with replacement under the split's seed,
    # not of the n-user mean printed beside it: at fraction 0.2 it is about
    # sqrt(5) = 2.2 times as wide as the n-user mean's
    rng = np.random.default_rng(9)
    n_users, n_items = 400, 30
    held = np.column_stack((np.arange(n_users), rng.integers(0, n_items, n_users)))
    clicked = rng.random((n_users, n_items)) < 0.2
    clicked[held[:, 0], held[:, 1]] = False
    split = _split_over(clicked, held=held)
    scores = rng.random((n_users, n_items))
    hr = evaluate_scenario(scores, split, "all", ks=(10,), resamples=400).metric("hr", 10)
    m = math.ceil(0.2 * n_users)
    idx = np.random.default_rng(split.seed).integers(0, n_users, size=(400, m))
    means = hr.per_user[idx].mean(axis=1)
    assert hr.ci == tuple(float(v) for v in np.percentile(means, [2.5, 97.5]))
    whole = evaluate_scenario(scores, split, "all", ks=(10,), resamples=400, fraction=1.0)
    lo, hi = whole.metric("hr", 10).ci
    assert 1.9 < (hr.ci[1] - hr.ci[0]) / (hi - lo) < 2.6


def test_bootstrap_needs_five_users():
    with pytest.raises(ValueError, match="need >= 5"):
        bootstrap_ci(np.ones(4))


# ------------------------------------------------------------------ report

def test_report_lookup_and_serialization():
    from alignrec import MetricResult

    rep = EvalReport(scenario="cold", n_users=3, metrics=[
        MetricResult(name="hr", k=10, users=np.arange(3), per_user=np.array([0.0, 0.5, 1.0]),
                     ci=(0.2, 0.8)),
    ])
    assert rep.metric("hr", 10).mean == pytest.approx(0.5)
    with pytest.raises(KeyError):
        rep.metric("ndcg", 10)
    payload = rep.to_dict()
    assert payload["metrics"][0]["ci_low"] == 0.2
    assert rep.to_json().endswith("\n")
    text = rep.to_text()
    assert "scenario: cold" in text and "ci95_low" in text


# -------------------------------------------------------------- scenarios

def test_cold_scenario_ranks_only_cold_items(cold_split):
    scores = np.zeros((4, 6))
    scores[:, 0] = 100.0  # warm item must never enter the cold pool
    scores[2, 4] = 1.0
    lists = build_ranked_lists(scores, cold_split, "cold", use="val")
    assert len(lists) == 1
    np.testing.assert_array_equal(np.sort(lists[0].ranked), [4, 5])
    rep = evaluate_scenario(scores, cold_split, "cold", ks=(1,), use="val", with_ci=False)
    assert rep.metric("hr", 1).mean == pytest.approx(1.0)


def test_warm_scenario_excludes_cold_items(cold_split):
    scores = np.ones((4, 6))
    lists = build_ranked_lists(scores, cold_split, "warm", use="test")
    assert set(lists[0].ranked.tolist()) == {0, 1, 2, 3}


def test_all_scenario_covers_every_item(cold_split):
    scores = np.ones((4, 6))
    lists = build_ranked_lists(scores, cold_split, "all", use="test")
    assert sorted(lists[0].ranked.tolist()) == [0, 1, 2, 3, 4, 5]


def test_training_positives_are_masked_out(cold_split):
    scores = np.zeros((4, 6))
    scores[1, 1] = 50.0  # user 1 clicked item 1 in train
    scores[1, 3] = 1.0
    lists = build_ranked_lists(scores, cold_split, "warm", use="test")
    assert lists[0].ranked[0] == 3


def test_val_and_test_pools_differ(cold_split):
    scores = np.random.default_rng(0).random((4, 6))
    val = build_ranked_lists(scores, cold_split, "cold", use="val")
    test = build_ranked_lists(scores, cold_split, "cold", use="test")
    assert {rl.user for rl in val} == {2}
    assert {rl.user for rl in test} == {0, 1}


def test_unknown_scenario_or_split_mismatch_raises(cold_split):
    scores = np.ones((4, 6))
    with pytest.raises(ValueError, match="scenario"):
        build_ranked_lists(scores, cold_split, "tepid")
    with pytest.raises(ValueError, match="warm split"):
        build_ranked_lists(scores, cold_split, "leave_one_out")
    with pytest.raises(ValueError, match="use"):
        build_ranked_lists(scores, cold_split, "cold", use="train")


def test_leave_one_out_ranks_heldout_against_negatives():
    train = Dataset(
        X=sp.csr_matrix(np.array([[1.0, 0, 0, 0, 0]])),
        user_ids=("u0",),
        item_ids=tuple(f"i{j}" for j in range(5)),
        interactions=np.array([[0, 0]]),
    )
    split = WarmSplit(
        train=train,
        heldout=np.array([1]),
        negatives=np.array([[2, 3, 4]]),
        seed=0,
        min_user_clicks=1,
    )
    scores = np.array([[0.0, 5.0, 4.0, 3.0, 2.0]])
    rep = evaluate_scenario(scores, split, "leave_one_out", ks=(1,), with_ci=False)
    assert rep.metric("hr", 1).mean == pytest.approx(1.0)
    worst = np.array([[0.0, -5.0, 4.0, 3.0, 2.0]])
    rep = evaluate_scenario(worst, split, "leave_one_out", ks=(3,), with_ci=False)
    assert rep.metric("hr", 3).mean == pytest.approx(0.0)


def test_evaluate_scenario_attaches_seeded_intervals(cold_split):
    # too few users for an interval: evaluation proceeds with ci = None
    scores = np.random.default_rng(1).random((4, 6))
    rep = evaluate_scenario(scores, cold_split, "all", ks=(2,), with_ci=True)
    assert rep.metric("hr", 2).ci is None


def test_evaluate_scenario_ci_uses_split_seed():
    rng = np.random.default_rng(7)
    dense = (rng.random((30, 10)) < 0.4).astype(np.float64)
    dense[:, 8:] = 0.0
    train = Dataset(
        X=sp.csr_matrix(dense),
        user_ids=tuple(f"u{i}" for i in range(30)),
        item_ids=tuple(f"i{j}" for j in range(10)),
        interactions=np.argwhere(dense > 0).astype(np.int64),
    )
    cold_test = np.array([[u, 8 + (u % 2)] for u in range(30)])
    split = ColdSplit(
        train=train,
        warm_val=np.empty((0, 2), dtype=np.int64),
        warm_test=np.empty((0, 2), dtype=np.int64),
        cold_val=cold_test.copy(),
        cold_test=cold_test,
        cold_item_ids=("i8", "i9"),
        seed=123,
    )
    scores = rng.random((30, 10))
    a = evaluate_scenario(scores, split, "cold", ks=(1,))
    assert a.metric("hr", 1).ci == bootstrap_ci(a.metric("hr", 1).per_user, seed=123)
    c = evaluate_scenario(scores, split, "cold", ks=(1,), seed=999)
    assert c.metric("hr", 1).ci == bootstrap_ci(a.metric("hr", 1).per_user, seed=999)


def test_evaluate_scenario_rejects_unknown_metric(cold_split):
    scores = np.ones((4, 6))
    with pytest.raises(ValueError, match="unknown metric"):
        evaluate_scenario(scores, cold_split, "all", metrics=("mrr",), with_ci=False)


@st.composite
def validation_cases(draw):
    """A training matrix, item weights T whose products tie, overflow or hold
    NaN, and a validation target: a cold split with or without cold
    validation pairs (the cold or the all pool), or a warm split."""
    n_users, n_items = draw(st.integers(1, 8)), draw(st.integers(2, 12))
    clicked = np.array(draw(st.lists(st.booleans(), min_size=n_users * n_items,
                                     max_size=n_users * n_items))).reshape(n_users, n_items)
    T = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, -1.0, 0.1, 1 / 3, 1e308,
                                                np.inf, np.nan]),
                               min_size=n_items * n_items, max_size=n_items * n_items)))
    T = T.reshape(n_items, n_items)
    kind = draw(st.sampled_from(["cold", "all", "leave_one_out"]))
    if kind == "leave_one_out":
        width = draw(st.integers(2, n_items))
        pools = np.array([draw(st.permutations(range(n_items)))[:width] for _ in range(n_users)])
        return clicked, T, _split_over(clicked, heldout=pools[:, 0], negatives=pools[:, 1:])
    cold = draw(st.lists(st.integers(0, n_items - 1), min_size=1, max_size=n_items - 1,
                         unique=True))
    warm = sorted(set(range(n_items)) - set(cold))
    user = st.integers(0, n_users - 1)
    held = draw(st.lists(st.tuples(user, st.sampled_from(warm)), min_size=1, max_size=10))
    if kind == "cold":
        held += draw(st.lists(st.tuples(user, st.sampled_from(cold)), min_size=1,
                              max_size=10))
    return clicked, T, _split_over(clicked, sorted(cold), np.array(held))


@settings(max_examples=150, deadline=None)
@given(case=validation_cases())
def test_pool_only_validation_scores_rank_like_full_width_predict(case):
    from alignrec import ItemModel, predict

    clicked, T, split = case
    X = split.train.X
    scenario, use = evaluation.validation_scenario(split)
    full = predict(ItemModel(theta=T, solver="test"), X)
    # the one scorer of selection against the full-width scores it replaced
    rep = evaluate_scenario(full, split, scenario, ks=(10,), use=use, with_ci=False)
    assert evaluation.validation_metrics(X, T, split) == {
        f"{m.name}@{m.k}": m.mean for m in rep.metrics}


@settings(max_examples=100, deadline=None)
@given(n_items=st.integers(1, 40), data=st.data())
def test_pool_items_and_columns_equal_unique_and_searchsorted(n_items, data):
    # a shared pool row, or per-user pools that may repeat items across users
    rows = data.draw(st.integers(1, 6))
    width = data.draw(st.integers(1, n_items))
    pools = np.array([data.draw(st.permutations(range(n_items)))[:width] for _ in range(rows)])
    items = evaluation._pool_items(pools, n_items)
    assert np.array_equal(items, np.unique(pools))
    assert np.array_equal(evaluation._pool_columns(items, pools, n_items),
                          np.searchsorted(items, pools))


# ------------------------------------------------------------ blocked scores

def _pipeline(split, scenarios, ks=(1, 10), resamples=20):
    """An experiment pipeline holding ``split`` and no model yet, whose
    evaluate stage ranks ``scenarios``."""
    from alignrec.experiment import _Pipeline

    protocol = "warm" if hasattr(split, "heldout") else "cold"
    pipe = _Pipeline({"seed": 0, "workers": 1, "output": "unused", "_path": "config.yaml",
                      "split": {"protocol": protocol}, "_alignment": None,
                      "evaluation": {"metrics": list(evaluation.METRICS), "ks": list(ks),
                                     "scenarios": list(scenarios), "resamples": resamples,
                                     "fraction": 0.5}})
    pipe.split_ = split
    return pipe


@st.composite
def blocked_cases(draw):
    """A split, item weights theta with duplicated columns (exact ties) and
    inf/NaN products, and the test scenarios of its protocol: a cold split's
    cold, warm and all (any of them may have no users) or a warm split's
    leave_one_out."""
    n_users, n_items = draw(st.integers(1, 9)), draw(st.integers(2, 10))
    clicked = np.array(draw(st.lists(st.booleans(), min_size=n_users * n_items,
                                     max_size=n_users * n_items))).reshape(n_users, n_items)
    base = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, -1.0, 1 / 3, 1e308, np.inf,
                                                   -np.inf, np.nan]),
                                  min_size=n_items * n_items, max_size=n_items * n_items)))
    columns = draw(st.lists(st.integers(0, n_items - 1), min_size=n_items, max_size=n_items))
    theta = base.reshape(n_items, n_items)[:, columns]
    if draw(st.booleans()):
        width = draw(st.integers(2, n_items))
        pools = np.array([draw(st.permutations(range(n_items)))[:width] for _ in range(n_users)])
        split = _split_over(clicked, heldout=pools[:, 0], negatives=pools[:, 1:])
        return theta, split, ["leave_one_out"]
    cold = draw(st.lists(st.integers(0, n_items - 1), min_size=1, max_size=n_items - 1,
                         unique=True))
    held = draw(st.lists(st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1)),
                         min_size=1, max_size=12))
    return theta, _split_over(clicked, sorted(cold), np.array(held)), ["cold", "warm", "all"]


@settings(max_examples=120, deadline=None)
@given(case=blocked_cases(), cells=st.sampled_from([1, evaluation._SCORE_CELLS, 2**40]))
def test_blocked_scores_report_like_the_dense_score_matrix(case, cells):
    """The evaluate stage and the validation scorer, one block of users at a
    time (one row, the default budget, everything in one block), against
    the dense users x items contract path: report JSON bytes and metric
    dicts are equal, and a scenario without users fails the same way."""
    from alignrec import ItemModel, predict

    theta, split, scenarios = case
    model = ItemModel(theta=theta, solver="test")
    X, dense = split.train.X, predict(model, split.train.X)
    pipe = _pipeline(split, scenarios)
    pipe.model = model
    ev = pipe.cfg["evaluation"]
    try:
        want = {s: evaluate_scenario(dense, split, s, ks=tuple(ev["ks"]),
                                     resamples=ev["resamples"], fraction=ev["fraction"]).to_json()
                for s in scenarios}
    except ValueError as e:
        with mock.patch.object(evaluation, "_SCORE_CELLS", cells), \
                pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
            pipe.evaluate()
    else:
        with mock.patch.object(evaluation, "_SCORE_CELLS", cells):
            pipe.evaluate()
        assert {s: rep.to_json() for s, rep in pipe.reports.items()} == want

    scenario, use = evaluation.validation_scenario(split)
    try:
        want = {f"{m.name}@{m.k}": m.mean for m in evaluate_scenario(
            dense, split, scenario, ks=(10,), use=use, with_ci=False).metrics}
    except ValueError as e:
        with mock.patch.object(evaluation, "_SCORE_CELLS", cells), \
                pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
            evaluation.validation_metrics(X, theta, split)
    else:
        with mock.patch.object(evaluation, "_SCORE_CELLS", cells):
            assert evaluation.validation_metrics(X, theta, split) == want


def _peak_bytes(fn):
    """tracemalloc peak of ``fn()`` above what was allocated when it started."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def _tall_split(rng, n_users=20000, n_items=100, cold=20, negatives=None):
    """A split of ``n_users`` with five clicks each among the first n_items -
    cold items: a cold split holding one test pair per user, or given
    ``negatives`` per user, a warm split holding one held-out item per user
    and its negatives, all unclicked."""
    clicked = np.zeros((n_users, n_items), dtype=bool)
    warm = n_items - cold
    clicked[np.arange(n_users)[:, None], rng.random((n_users, warm)).argsort(axis=1)[:, :5]] = True
    if negatives is None:
        held = np.column_stack((np.arange(n_users), rng.integers(0, n_items, n_users)))
        return _split_over(clicked, cold_items=list(range(warm, n_items)), held=held)
    # unclicked items drawn from all n_items, so the pools cover every item
    pools = (rng.random((n_users, n_items)) + clicked).argsort(axis=1)[:, : 1 + negatives]
    return _split_over(clicked, heldout=pools[:, 0], negatives=pools[:, 1:])


def _few_blocks(split, theta, depth):
    """A few score blocks, theta, and a few users x depth rank tables; the
    users x items score matrix alone must not fit."""
    n_users, n_items = split.train.X.shape
    bound = 4 * evaluation._SCORE_CELLS * 8 + theta.nbytes + 4 * n_users * depth * 8
    assert bound < n_users * n_items * 8
    return bound


def test_evaluate_score_memory_is_a_few_blocks_on_a_tall_split():
    from alignrec import ItemModel

    rng = np.random.default_rng(0)
    split = _tall_split(rng)
    pipe = _pipeline(split, ["cold", "warm", "all"], ks=(10,), resamples=10)
    pipe.model = ItemModel(theta=rng.random((100, 100)), solver="test")
    # one predict of all 20000 rows is 16 MB by itself (22 MiB peak measured)
    assert _peak_bytes(pipe.evaluate) < _few_blocks(split, pipe.model.theta, depth=10)
    assert pipe.reports["all"].n_users == 20000


def test_leave_one_out_validation_memory_is_a_few_blocks_on_a_tall_split():
    rng = np.random.default_rng(1)
    split = _tall_split(rng, negatives=4)
    theta = rng.random((100, 100))
    # X[users] @ T over every pool item at once is 16 MB (23 MiB peak measured)
    peak = _peak_bytes(lambda: evaluation.validation_metrics(split.train.X, theta, split))
    assert peak < _few_blocks(split, theta, depth=5)
