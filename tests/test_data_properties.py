"""Property tests for interaction loading, splitting and split persistence.

``reference_load`` is the dict-based id indexing and dedup that
``load_interactions`` used before it moved to numpy; the loader must agree
with it exactly on random logs. ``reference_warm_split`` is the per-user
loop that ``make_warm_split`` ran before its block-vectorized draw.
"""

import csv
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from alignrec import (
    Dataset,
    EmptyDatasetError,
    load_interactions,
    load_split,
    make_cold_split,
    make_warm_split,
    save_cold_split,
    save_warm_split,
)
from alignrec import data

THRESHOLD = 0.5
SETTINGS = settings(max_examples=40, deadline=None)

# ids with the delimiter, quotes, spaces inside, a NUL and non-ASCII text
_ID_CHARS = st.sampled_from(list("ab,\"' \x00é"))
ids = st.text(_ID_CHARS, min_size=1, max_size=4).filter(lambda s: s == s.strip())
id_pools = st.lists(ids, min_size=1, max_size=6, unique=True)
# small stamps make ties; the extremes check the int64 range
stamps = st.one_of(st.integers(0, 3), st.sampled_from([-(2**63), 2**63 - 1]))


def reference_load(rows, has_ts, threshold=THRESHOLD):
    """Kept ids in first-appearance order, then the most recent event per pair.

    ``rows`` are (user, item, value, timestamp) tuples in file order; the
    winner of a duplicate pair has the largest (timestamp, position) key,
    and winners stay in input order.
    """
    kept = [(u, it, ts if has_ts else 0) for u, it, value, ts in rows if value >= threshold]
    user_ids, item_ids, umap, imap = [], [], {}, {}
    for u, it, _ in kept:
        if u not in umap:
            umap[u] = len(user_ids)
            user_ids.append(u)
        if it not in imap:
            imap[it] = len(item_ids)
            item_ids.append(it)
    best = {}
    for pos, (u, it, ts) in enumerate(kept):
        key = (umap[u], imap[it])
        if key not in best or (ts, pos) >= best[key]:
            best[key] = (ts, pos)
    order = sorted(best, key=lambda k: best[k][1])
    timestamps = [best[k][0] for k in order] if has_ts else None
    return tuple(user_ids), tuple(item_ids), [list(k) for k in order], timestamps


@st.composite
def logs(draw):
    users, items = draw(id_pools), draw(id_pools)
    row = st.tuples(st.sampled_from(users), st.sampled_from(items),
                    st.sampled_from([0.0, 0.2, 1.0, 3.0]), stamps)
    return draw(st.lists(row, min_size=1, max_size=30)), draw(st.booleans())


def _write_log(path, rows, has_ts):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["user", "item", "value"] + (["timestamp"] if has_ts else []))
        for u, it, value, ts in rows:
            w.writerow([u, it, value] + ([ts] if has_ts else []))


@SETTINGS
@given(log=logs())
def test_load_matches_dict_reference(log):
    rows, has_ts = log
    user_ids, item_ids, pairs, timestamps = reference_load(rows, has_ts)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.csv")
        _write_log(path, rows, has_ts)
        if not pairs:
            with pytest.raises(EmptyDatasetError):
                load_interactions(path, binarize_threshold=THRESHOLD)
            return
        d = load_interactions(path, binarize_threshold=THRESHOLD)
    assert d.user_ids == user_ids and d.item_ids == item_ids
    assert all(type(i) is str for i in d.user_ids + d.item_ids)
    assert d.interactions.dtype == np.int64 and d.interactions.tolist() == pairs
    if has_ts:
        assert d.timestamps.dtype == np.int64 and d.timestamps.tolist() == timestamps
    else:
        assert d.timestamps is None
    assert d.X.dtype == np.float64 and d.X.shape == (len(user_ids), len(item_ids))
    dense = np.zeros(d.X.shape)
    dense[tuple(np.array(pairs).T)] = 1.0
    np.testing.assert_array_equal(d.X.toarray(), dense)


def reference_index_ids(ids):
    """The np.unique numbering that ``data._index_ids`` replaced: sort an
    object array (fixed-width strings would drop trailing NULs), then
    renumber the distinct ids by first appearance."""
    distinct, first, inverse = np.unique(
        np.array(ids, dtype=object), return_index=True, return_inverse=True)
    order = np.argsort(first)
    code = np.empty_like(order)
    code[order] = np.arange(len(order))
    return code[inverse], tuple(distinct[order].tolist())


@SETTINGS
@given(pool=st.lists(st.text(st.sampled_from(list("a\x00é€,")), max_size=3), min_size=1,
                     max_size=5),
       draws=st.data())
def test_index_ids_matches_the_np_unique_numbering(pool, draws):
    # repeats, non-ASCII ids, and ids that differ only by trailing NULs
    pool += [p + "\x00" for p in pool]
    ids = draws.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    code, distinct = data._index_ids(ids)
    want_code, want_distinct = reference_index_ids(ids)
    assert code.dtype == want_code.dtype and code.tolist() == want_code.tolist()
    assert distinct == want_distinct and all(type(i) is str for i in distinct)


@st.composite
def datasets(draw, n_users, n_items, min_clicks=1):
    """A Dataset with odd ids, each user holding min_clicks..n_items - 1 items."""
    user_ids = draw(st.lists(ids, min_size=n_users, max_size=n_users, unique=True))
    item_ids = draw(st.lists(ids, min_size=n_items, max_size=n_items, unique=True))
    rows = []
    for u in range(n_users):
        mine = draw(st.lists(st.integers(0, n_items - 1), min_size=min_clicks,
                             max_size=n_items - 1, unique=True))
        rows += [(u, it) for it in mine]
    pairs = np.array(rows, dtype=np.int64)
    order = draw(st.permutations(range(len(pairs))))
    timestamps = None
    if draw(st.booleans()):
        timestamps = np.array(draw(st.lists(stamps, min_size=len(pairs),
                                            max_size=len(pairs))), dtype=np.int64)
    return Dataset.from_pairs(pairs[list(order)], user_ids, item_ids, timestamps)


def _assert_same_dataset(a, b):
    assert a.user_ids == b.user_ids and a.item_ids == b.item_ids
    assert a.interactions.dtype == b.interactions.dtype
    np.testing.assert_array_equal(a.interactions, b.interactions)
    if a.timestamps is None:
        assert b.timestamps is None
    else:
        assert a.timestamps.dtype == b.timestamps.dtype
        np.testing.assert_array_equal(a.timestamps, b.timestamps)
    assert a.X.dtype == b.X.dtype and a.X.shape == b.X.shape
    assert (sp.csr_matrix(a.X) != b.X).nnz == 0


@SETTINGS
@given(d=datasets(n_users=5, n_items=6), seed=st.integers(0, 2**16))
def test_cold_split_round_trips_exactly(d, seed):
    split = make_cold_split(d, cold_fraction=0.34, seed=seed)
    with tempfile.TemporaryDirectory() as out:
        save_cold_split(split, out)
        back = load_split(out)
    _assert_same_dataset(split.train, back.train)
    for name in ("warm_val", "warm_test", "cold_val", "cold_test"):
        want, got = getattr(split, name), getattr(back, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
    assert (back.cold_item_ids, back.seed) == (split.cold_item_ids, split.seed)


@SETTINGS
@given(d=datasets(n_users=4, n_items=7, min_clicks=2), seed=st.integers(0, 2**16))
def test_warm_split_round_trips_exactly(d, seed):
    split = make_warm_split(d, min_user_clicks=2, negatives=1, seed=seed)
    with tempfile.TemporaryDirectory() as out:
        save_warm_split(split, out)
        back = load_split(out)
    _assert_same_dataset(split.train, back.train)
    for name in ("heldout", "negatives"):
        want, got = getattr(split, name), getattr(back, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
    assert (back.min_user_clicks, back.seed) == (split.min_user_clicks, split.seed)


def reference_warm_split(d, min_user_clicks, negatives, exclude=None):
    """The per-user leave-one-out loop, without its negative draw.

    Returns the kept users, their held-out positions in ``d.interactions``
    and each one's candidate negatives: the items outside its history and
    other than its ``exclude`` entry. The first user with fewer than
    ``negatives`` candidates raises the ValueError that names it.
    """
    counts = np.asarray(d.X.sum(axis=1)).ravel()
    keep_users = np.flatnonzero(counts >= min_user_clicks)
    order = np.argsort(d.interactions[:, 0], kind="stable")
    bounds = np.searchsorted(d.interactions[order, 0], [keep_users, keep_users + 1])
    drop_positions, candidates = [], []
    for row, u in enumerate(keep_users):
        mine = order[bounds[0, row] : bounds[1, row]]
        if d.timestamps is not None:
            ts = d.timestamps[mine]
            drop_positions.append(mine[np.flatnonzero(ts == ts.max())[-1]])
        else:
            drop_positions.append(mine[-1])
        banned = d.interactions[mine, 1]
        if exclude is not None:
            banned = np.append(banned, exclude[u])
        free = np.setdiff1d(np.arange(d.n_items), banned)
        if len(free) < negatives:
            raise ValueError(
                f"user {d.user_ids[u]!r} has {len(free)} non-history items, "
                f"cannot draw {negatives} negatives"
            )
        candidates.append(free)
    return keep_users, np.array(drop_positions, dtype=np.int64), candidates


@settings(max_examples=100, deadline=None)
@given(d=datasets(n_users=6, n_items=8), min_user_clicks=st.integers(1, 4),
       negatives=st.integers(1, 3), exclude=st.none() | st.lists(
           st.integers(0, 7), min_size=6, max_size=6).map(np.array),
       seed=st.integers(0, 2**16))
def test_warm_split_matches_the_per_user_loop(d, min_user_clicks, negatives, exclude, seed):
    args = dict(min_user_clicks=min_user_clicks, negatives=negatives, seed=seed,
                exclude=exclude)
    try:
        keep_users, drop, candidates = reference_warm_split(
            d, min_user_clicks, negatives, exclude)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            make_warm_split(d, **args)
        assert str(got.value) == str(err)
        return
    if len(keep_users) == 0:
        with pytest.raises(EmptyDatasetError):
            make_warm_split(d, **args)
        return
    split = make_warm_split(d, **args)

    np.testing.assert_array_equal(split.heldout, d.interactions[drop, 1])
    kept = np.isin(d.interactions[:, 0], keep_users)
    kept[drop] = False
    pairs = d.interactions[kept]
    pairs[:, 0] = np.searchsorted(keep_users, pairs[:, 0])
    want = Dataset.from_pairs(pairs, [d.user_ids[u] for u in keep_users], d.item_ids,
                              None if d.timestamps is None else d.timestamps[kept])
    _assert_same_dataset(split.train, want)

    assert split.negatives.shape == (len(keep_users), negatives)
    for negs, free in zip(split.negatives, candidates):
        # distinct, ascending, and all of them when exactly that many are free
        assert (np.diff(negs) > 0).all() and np.isin(negs, free).all()
    with mock.patch.object(data, "_DRAW_CELLS", 1):  # one user per block
        one = make_warm_split(d, **args)
    np.testing.assert_array_equal(one.negatives, split.negatives)
