"""Interaction loading, cold/warm splitting, and split persistence."""

import dataclasses
import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from alignrec import (
    Dataset,
    EmptyDatasetError,
    FormatError,
    ParseError,
    load_interactions,
    load_split,
    make_cold_split,
    make_warm_split,
    save_cold_split,
    save_warm_split,
)
from alignrec import data
from alignrec.cli import exit_code_for
from alignrec.synthetic import planted_dataset, write_dataset_csvs


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _sorted_rows(pairs):
    pairs = np.asarray(pairs)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]


# ---------------------------------------------------------------- loading

def test_load_binarizes_at_threshold(tmp_path):
    p = _write(tmp_path / "x.csv", "user,item,value\na,i1,5\nb,i2,2\nc,i3,4\n")
    d = load_interactions(p, binarize_threshold=3.5)
    assert d.n_users == 2 and d.n_items == 2
    assert d.user_ids == ("a", "c") and d.item_ids == ("i1", "i3")
    assert d.X.sum() == 2


def test_load_indexes_ids_in_first_appearance_order(tmp_path):
    p = _write(tmp_path / "x.csv", "user,item,value\nz,j,1\na,i,1\nz,i,1\n")
    d = load_interactions(p)
    assert d.user_ids == ("z", "a") and d.item_ids == ("j", "i")
    np.testing.assert_array_equal(d.interactions, [[0, 0], [1, 1], [0, 1]])
    assert d.item_index == {"j": 0, "i": 1}


def test_load_parses_timestamps(tmp_path):
    p = _write(tmp_path / "x.csv", "user,item,value,timestamp\na,i,1,7\nb,j,1,3\n")
    d = load_interactions(p)
    np.testing.assert_array_equal(d.timestamps, [7, 3])


def test_load_without_timestamp_column_keeps_none(tmp_path):
    p = _write(tmp_path / "x.csv", "user,item,value\na,i,1\n")
    assert load_interactions(p).timestamps is None


def test_load_dedups_to_most_recent_timestamp(tmp_path):
    p = _write(
        tmp_path / "x.csv",
        "user,item,value,timestamp\na,i,1,5\na,i,1,9\na,i,1,7\nb,i,1,1\n",
    )
    d = load_interactions(p)
    assert len(d.interactions) == 2
    row = list(d.interactions[:, 0]).index(0)
    assert d.timestamps[row] == 9


def test_load_dedups_to_last_position_without_timestamps(tmp_path):
    p = _write(tmp_path / "x.csv", "user,item,value\na,i,1\nb,j,1\na,i,1\n")
    d = load_interactions(p)
    # the surviving (a, i) row sorts after (b, j) in input order
    np.testing.assert_array_equal(d.interactions, [[1, 1], [0, 0]])


def test_load_reads_tsv(tmp_path):
    p = _write(tmp_path / "x.tsv", "user\titem\tvalue\na\ti\t1\n")
    assert load_interactions(p, format="tsv").n_users == 1


def test_load_rejects_unknown_format(tmp_path):
    p = _write(tmp_path / "x.csv", "user,item,value\na,i,1\n")
    with pytest.raises(ValueError, match="format"):
        load_interactions(p, format="psv")


def test_load_rejects_missing_header(tmp_path):
    p = _write(tmp_path / "x.csv", "a,i,1\nb,j,1\n")
    with pytest.raises(FormatError, match="header"):
        load_interactions(p)


def test_load_rejects_empty_file(tmp_path):
    p = _write(tmp_path / "x.csv", "")
    with pytest.raises(FormatError, match="empty file"):
        load_interactions(p)


def test_load_reports_line_number_for_bad_field_count(tmp_path):
    p = _write(tmp_path / "x.csv", "user,item,value\na,i,1\nb,j\n")
    with pytest.raises(ParseError, match="line 3") as err:
        load_interactions(p)
    assert err.value.line_number == 3 and str(err.value).startswith(f"{p}: line 3: ")


def test_load_reports_bad_value(tmp_path):
    p = _write(tmp_path / "x.csv", "user,item,value\na,i,much\n")
    with pytest.raises(ParseError, match="bad value"):
        load_interactions(p)


def test_load_rejects_non_finite_value(tmp_path):
    p = _write(tmp_path / "x.csv", "user,item,value\na,i,nan\n")
    with pytest.raises(ParseError, match="non-finite"):
        load_interactions(p)


def test_load_rejects_empty_ids(tmp_path):
    p = _write(tmp_path / "x.csv", "user,item,value\na,,1\n")
    with pytest.raises(ParseError, match="empty user or item id"):
        load_interactions(p)


def test_load_rejects_bad_timestamp(tmp_path):
    p = _write(tmp_path / "x.csv", "user,item,value,timestamp\na,i,1,lately\n")
    with pytest.raises(ParseError, match="bad timestamp"):
        load_interactions(p)


def test_load_rejects_timestamp_outside_int64(tmp_path):
    p = _write(tmp_path / "x.csv",
               f"user,item,value,timestamp\na,i,1,5\na,i,1,{2**63}\n")
    with pytest.raises(ParseError, match="line 3: bad timestamp"):
        load_interactions(p)


def test_load_raises_when_nothing_clears_threshold(tmp_path):
    p = _write(tmp_path / "x.csv", "user,item,value\na,i,0.2\n")
    with pytest.raises(EmptyDatasetError, match="threshold"):
        load_interactions(p)


# ------------------------------------------------------------- cold split

@pytest.fixture(scope="module")
def planted():
    d, _ = planted_dataset(n_users=120, n_items=40, n_topics=4, seed=11)
    return d


def test_cold_split_sizes_and_conservation(planted):
    split = make_cold_split(planted, seed=0)
    assert len(split.cold_item_ids) == 8  # round(0.2 * 40)
    total = (
        len(split.train.interactions) + len(split.warm_val) + len(split.warm_test)
        + len(split.cold_val) + len(split.cold_test)
    )
    assert total == len(planted.interactions)


def test_cold_split_purity(planted):
    split = make_cold_split(planted, seed=0)
    cold = set(split.cold_cols.tolist())
    assert not cold & set(split.train.interactions[:, 1].tolist())
    assert not cold & set(split.warm_val[:, 1].tolist())
    assert not cold & set(split.warm_test[:, 1].tolist())
    assert set(split.cold_val[:, 1].tolist()) <= cold
    assert set(split.cold_test[:, 1].tolist()) <= cold


def test_cold_split_halves_each_cold_item(planted):
    split = make_cold_split(planted, seed=0)
    for col in split.cold_cols:
        nv = int((split.cold_val[:, 1] == col).sum())
        nt = int((split.cold_test[:, 1] == col).sum())
        assert abs(nv - nt) <= 1 and nv + nt > 0


def test_cold_split_keeps_all_users(planted):
    split = make_cold_split(planted, seed=0)
    assert split.train.n_users == planted.n_users
    assert split.train.user_ids == planted.user_ids


def test_cold_split_is_seed_deterministic(planted):
    a = make_cold_split(planted, seed=7)
    b = make_cold_split(planted, seed=7)
    assert a.cold_item_ids == b.cold_item_ids
    np.testing.assert_array_equal(a.train.interactions, b.train.interactions)
    np.testing.assert_array_equal(a.cold_val, b.cold_val)
    c = make_cold_split(planted, seed=8)
    assert c.cold_item_ids != a.cold_item_ids


def test_cold_split_rejects_degenerate_fractions(planted):
    with pytest.raises(ValueError, match="no cold item"):
        make_cold_split(planted, cold_fraction=0.001)
    with pytest.raises(ValueError, match="no warm items"):
        make_cold_split(planted, cold_fraction=0.999)
    with pytest.raises(ValueError, match="sum to 1"):
        make_cold_split(planted, warm_fractions=(0.8, 0.3, 0.1))


def test_cold_split_round_trips_through_disk(planted, tmp_path):
    split = make_cold_split(planted, seed=3)
    save_cold_split(split, str(tmp_path / "s"))
    back = load_split(str(tmp_path / "s"))
    assert back.cold_item_ids == split.cold_item_ids
    assert back.seed == split.seed
    assert back.train.user_ids == split.train.user_ids
    assert back.train.item_ids == split.train.item_ids
    assert (back.train.X != split.train.X).nnz == 0
    for name in ("warm_val", "warm_test", "cold_val", "cold_test"):
        np.testing.assert_array_equal(
            _sorted_rows(getattr(back, name)), _sorted_rows(getattr(split, name))
        )


# ------------------------------------------------------------- warm split

def test_warm_split_drops_short_users(tmp_path):
    rows = ["user,item,value"]
    rows += [f"a,i{j},1" for j in range(4)]
    rows += ["b,i8,1", "b,i9,1"]  # too short to qualify; donates negative items
    p = _write(tmp_path / "x.csv", "\n".join(rows) + "\n")
    d = load_interactions(p)
    split = make_warm_split(d, min_user_clicks=3, negatives=2, seed=0)
    assert split.train.user_ids == ("a",)
    assert np.asarray(split.train.X.sum(axis=1)).ravel().tolist() == [3.0]


def test_warm_split_holds_out_largest_timestamp(tmp_path):
    p = _write(
        tmp_path / "x.csv",
        "user,item,value,timestamp\na,i0,1,3\na,i1,1,9\na,i2,1,5\nz,i9,1,1\n",
    )
    d = load_interactions(p)
    split = make_warm_split(d, min_user_clicks=3, negatives=1, seed=0)
    assert d.item_ids[split.heldout[0]] == "i1"


def test_warm_split_breaks_timestamp_ties_by_position(tmp_path):
    p = _write(
        tmp_path / "x.csv",
        "user,item,value,timestamp\na,i0,1,9\na,i1,1,9\na,i2,1,5\nz,i9,1,1\n",
    )
    d = load_interactions(p)
    split = make_warm_split(d, min_user_clicks=3, negatives=1, seed=0)
    assert d.item_ids[split.heldout[0]] == "i1"


def test_warm_split_without_timestamps_holds_out_last_row(tmp_path):
    p = _write(tmp_path / "x.csv", "user,item,value\na,i0,1\na,i2,1\na,i1,1\nz,i9,1\n")
    d = load_interactions(p)
    split = make_warm_split(d, min_user_clicks=3, negatives=1, seed=0)
    assert d.item_ids[split.heldout[0]] == "i1"


def test_warm_split_negatives_are_distinct_and_outside_history():
    d, _ = planted_dataset(n_users=60, n_items=50, n_topics=5, seed=2)
    split = make_warm_split(d, min_user_clicks=10, negatives=20, seed=2)
    for row in range(split.train.n_users):
        negs = split.negatives[row]
        assert len(set(negs.tolist())) == 20
        history = set(split.train.interactions[split.train.interactions[:, 0] == row, 1].tolist())
        history.add(int(split.heldout[row]))
        assert not history & set(negs.tolist())


def test_warm_split_is_seed_deterministic():
    d, _ = planted_dataset(n_users=60, n_items=50, n_topics=5, seed=2)
    a = make_warm_split(d, min_user_clicks=10, negatives=20, seed=4)
    b = make_warm_split(d, min_user_clicks=10, negatives=20, seed=4)
    np.testing.assert_array_equal(a.heldout, b.heldout)
    np.testing.assert_array_equal(a.negatives, b.negatives)
    c = make_warm_split(d, min_user_clicks=10, negatives=20, seed=5)
    assert not np.array_equal(a.negatives, c.negatives)


def test_warm_split_names_user_when_negatives_run_out(tmp_path):
    rows = ["user,item,value"] + [f"greedy,i{j},1" for j in range(4)]
    p = _write(tmp_path / "x.csv", "\n".join(rows) + "\n")
    d = load_interactions(p)
    with pytest.raises(ValueError, match="'greedy' has 0 non-history items"):
        make_warm_split(d, min_user_clicks=3, negatives=2, seed=0)


def test_warm_split_names_user_short_only_through_the_excluded_item(tmp_path):
    rows = ["user,item,value"] + [f"a,i{j},1" for j in range(3)] + ["z,i3,1", "z,i4,1"]
    d = load_interactions(_write(tmp_path / "x.csv", "\n".join(rows) + "\n"))
    # exactly two free items: both are drawn
    split = make_warm_split(d, min_user_clicks=3, negatives=2, seed=0)
    assert split.negatives.tolist() == [[3, 4]]
    with pytest.raises(ValueError, match="'a' has 1 non-history items, cannot draw 2"):
        make_warm_split(d, min_user_clicks=3, negatives=2, seed=0, exclude=np.array([3, 0]))


def test_warm_split_names_user_when_negatives_reach_the_item_count(tmp_path):
    p = _write(tmp_path / "x.csv", "user,item,value\na,i0,1\nz,i1,1\nz,i2,1\n")
    d = load_interactions(p)
    with pytest.raises(ValueError, match="'a' has 2 non-history items, cannot draw 3"):
        make_warm_split(d, min_user_clicks=1, negatives=3, seed=0)


def test_warm_split_rejects_a_threshold_below_one_click(tmp_path):
    d = load_interactions(_write(tmp_path / "x.csv", "user,item,value\na,i0,1\nz,i1,1\n"))
    with pytest.raises(ValueError, match="min_user_clicks must be >= 1, got 0"):
        make_warm_split(d, min_user_clicks=0, negatives=1, seed=0)


def test_warm_split_draws_each_free_item_uniformly():
    # 3000 identical users: items 0 and 1 clicked, 8 free items, 3 negatives
    n = 3000
    pairs = np.column_stack((np.repeat(np.arange(n), 2), np.tile([0, 1], n)))
    d = Dataset.from_pairs(pairs, [f"u{i}" for i in range(n)], [f"i{j}" for j in range(10)])
    negs = make_warm_split(d, min_user_clicks=2, negatives=3, seed=7).negatives
    assert negs.min() >= 2 and (np.diff(negs, axis=1) > 0).all()
    freq = np.bincount(negs.ravel(), minlength=10)[2:] / n
    sigma = np.sqrt(3 / 8 * (5 / 8) / n)
    assert np.all(np.abs(freq - 3 / 8) < 4 * sigma), freq


def test_warm_split_draw_scratch_memory_is_bounded():
    rng = np.random.default_rng(0)
    n_users, n_items = 1100, 1000
    pairs = np.column_stack((np.repeat(np.arange(n_users), 20),
                             np.concatenate([rng.choice(n_items, 20, replace=False)
                                             for _ in range(n_users)])))
    d = Dataset.from_pairs(pairs, [f"u{i}" for i in range(n_users)],
                           [f"i{j}" for j in range(n_items)])
    tracemalloc.start()
    try:
        split = make_warm_split(d, min_user_clicks=10, negatives=100, seed=0)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert split.negatives.shape == (n_users, 100)
    # one 2**20-cell block would hold 16 MB of keys and argpartition indices
    assert peak - current < 8 * 2**20


def test_warm_split_rejects_empty_qualifying_set(tmp_path):
    p = _write(tmp_path / "x.csv", "user,item,value\na,i,1\n")
    d = load_interactions(p)
    with pytest.raises(EmptyDatasetError, match="at least 5"):
        make_warm_split(d, min_user_clicks=5, negatives=1, seed=0)


def test_warm_split_round_trips_through_disk(tmp_path):
    d, _ = planted_dataset(n_users=60, n_items=50, n_topics=5, seed=2)
    split = make_warm_split(d, min_user_clicks=10, negatives=20, seed=2)
    save_warm_split(split, str(tmp_path / "s"))
    back = load_split(str(tmp_path / "s"))
    assert back.min_user_clicks == split.min_user_clicks
    assert back.seed == split.seed
    np.testing.assert_array_equal(back.heldout, split.heldout)
    np.testing.assert_array_equal(back.negatives, split.negatives)
    assert (back.train.X != split.train.X).nnz == 0


def test_load_split_rejects_incomplete_warm_test_file(tmp_path):
    d, _ = planted_dataset(n_users=60, n_items=50, n_topics=5, seed=2)
    split = make_warm_split(d, min_user_clicks=10, negatives=5, seed=2)
    save_warm_split(split, str(tmp_path / "s"))
    test_file = tmp_path / "s" / "test.csv"
    lines = test_file.read_text(encoding="utf-8").splitlines()
    test_file.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match="one row per user"):
        load_split(str(tmp_path / "s"))


def test_load_split_rejects_short_negatives_file(tmp_path):
    d, _ = planted_dataset(n_users=60, n_items=50, n_topics=5, seed=2)
    split = make_warm_split(d, min_user_clicks=10, negatives=5, seed=2)
    save_warm_split(split, str(tmp_path / "s"))
    neg_file = tmp_path / "s" / "negatives.csv"
    lines = neg_file.read_text(encoding="utf-8").splitlines()
    neg_file.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match="negatives"):
        load_split(str(tmp_path / "s"))


@pytest.mark.parametrize("name", ["test", "negatives"])
def test_load_split_rejects_a_ranked_item_in_the_training_history(tmp_path, name):
    d, _ = planted_dataset(n_users=60, n_items=50, n_topics=5, seed=2)
    split = make_warm_split(d, min_user_clicks=10, negatives=5, seed=2)
    save_warm_split(split, str(tmp_path / "s"))
    # the first row of the file names a user; give it one of that user's training items
    path = tmp_path / "s" / f"{name}.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[1].split(",")
    user = fields[0]
    u = split.train.user_ids.index(user)
    fields[1] = split.train.item_ids[split.train.X[u].indices[0]]
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match=f"{name}.csv: the {name} item .* of user '{user}' is in") as e:
        load_split(str(tmp_path / "s"))
    assert exit_code_for(e.value) == 3


def test_load_split_rejects_a_negative_that_is_the_held_out_item(tmp_path):
    d, _ = planted_dataset(n_users=60, n_items=80, n_topics=4, seed=3)
    split = make_warm_split(d, min_user_clicks=5, negatives=20, seed=1)
    save_warm_split(split, str(tmp_path / "s"))
    # user 0's first negative becomes that user's test item, which evaluation
    # would then rank twice and count as two hits
    user, item = (tmp_path / "s" / "test.csv").read_text(encoding="utf-8").splitlines()[1] \
        .split(",")[:2]
    path = tmp_path / "s" / "negatives.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[1].split(",")[0] == user
    lines[1] = f"{user},{item}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match=f"negatives.csv: the negative item '{item}' of "
                                          f"user '{user}' is that user's held-out") as e:
        load_split(str(tmp_path / "s"))
    assert exit_code_for(e.value) == 3


def test_load_split_peak_memory_per_pair_row_is_bounded(tmp_path):
    d, _ = planted_dataset(n_users=400, n_items=300, n_topics=5, seed=2)
    split = make_warm_split(d, min_user_clicks=5, negatives=60, seed=2)
    assert split.negatives.size >= 20_000
    save_warm_split(split, str(tmp_path / "s"))
    rows = sum(len(split_file.read_text(encoding="utf-8").splitlines()) - 1
               for split_file in (tmp_path / "s").glob("*.csv"))
    tracemalloc.start()
    try:
        load_split(str(tmp_path / "s"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a tuple per pair in a set of seen pairs, plus Python int lists, cost
    # about 130 bytes a row; three int64s a row plus the sort stay under 100
    assert peak < 100 * rows, peak / rows


def test_load_interactions_peak_memory_per_kept_row_is_bounded(tmp_path):
    rng = np.random.default_rng(5)
    rows = 40_000
    users, items = rng.integers(0, 2000, rows), rng.integers(0, 500, rows)
    p = _write(tmp_path / "x.csv", "user,item,value,timestamp\n" + "".join(
        f"user{u},item{i},{v},{1_600_000_000 + t}\n"
        for t, (u, i, v) in enumerate(zip(users, items, rng.integers(0, 4, rows)))))
    tracemalloc.start()
    try:
        d = load_interactions(p, binarize_threshold=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = len(d.interactions)
    assert kept > rows // 2
    # two id strings and a Python int a row in lists cost about 230 bytes a
    # kept row; numbered as read, three int64s a row plus the dedup sort
    # stay under 150
    assert peak < 150 * kept, peak / kept


@pytest.mark.parametrize("timestamps", [False, True])
def test_pairs_writer_scratch_does_not_grow_with_the_row_count(tmp_path, timestamps):
    d = Dataset.from_pairs(np.array([[0, 0]]), [f"u{k}" for k in range(100)],
                           [f"i,{k}" for k in range(50)])
    fields = (data._csv_fields(d.user_ids), data._csv_fields(d.item_ids))
    rng = np.random.default_rng(6)
    peaks = []
    for rows in (2**15, 2**17):
        pairs = np.column_stack([rng.integers(0, 100, rows), rng.integers(0, 50, rows)])
        ts = np.arange(rows, dtype=np.int64) + 1_600_000_000 if timestamps else None
        tracemalloc.start()
        try:
            data._write_pairs_csv(str(tmp_path / "w.csv"), d, pairs, ts, fields=fields)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one string join over every row grew the scratch 4x with the rows (29 MiB
    # at 2^17 rows with timestamps); a block of rows at a time holds it level
    assert peaks[1] < 1.1 * peaks[0], peaks


# --------------------------------------------------------- benchmark inputs

# sha256 of write_dataset_csvs output. The benchmark's inputs are these
# files, so a change to the shared pairs writer must not move their bytes.
_PLANTED_DIGESTS = {
    "interactions": "ba613df3e3ffaca0f1443902c9721cf6a19f6aa1520b2398eb87590e508224d6",
    "noise": "5dc92f0871a06cfd603edb854dba2b7d9272788e2914483218961ff7c2d0db96",
    "text": "5f19073bfdc7161599ef381502f6404aaf18e0119d767660edb5ec40aa3610ca",
    "topic": "42d75d63217d32ec9b9338c6f8d24251611bb6618d5d425f28718937bac47e03",
}
_ODD_ID_DIGESTS = {
    "interactions": "9337142a1a7654d92ce29c0d780f58cab5f76416f37911cd44db2ed1fa6fb983",
    "noise": "549675cd3506c433bafaa66da616e8a7ee421ef53eb41098e1a13338745e724b",
    "text": "c2534827968e52e2d0d479ef162afd6aaece3894abfbae7d9003c6c61ce61b8b",
    "topic": "ba910899ce170afa4e942c44a1fccade78edf3e78317c9d23e9e75d9ffef0f54",
}


def _digests(dataset, meta, outdir):
    paths = write_dataset_csvs(dataset, meta, str(outdir))
    return {k: hashlib.sha256(Path(p).read_bytes()).hexdigest() for k, p in paths.items()}


def test_write_dataset_csvs_bytes_are_pinned(tmp_path):
    d, meta = planted_dataset(n_users=40, n_items=16, n_topics=4, seed=7, clicks=(3, 6))
    assert _digests(d, meta, tmp_path / "planted") == _PLANTED_DIGESTS
    # ids with commas and quotes, and no timestamps (rows are numbered)
    odd = dataclasses.replace(
        d, timestamps=None,
        user_ids=tuple(f'u,{u}"q' if u % 3 == 0 else f"u {u}" for u in range(d.n_users)),
        item_ids=tuple(f'i"{j},x' if j % 2 else f"i{j}" for j in range(d.n_items)))
    assert _digests(odd, meta, tmp_path / "odd") == _ODD_ID_DIGESTS


def test_split_files_equal_the_csv_writer_bytes_for_awkward_ids(tmp_path):
    # ids holding commas, quotes, newlines, spaces and nothing at all are
    # quoted once by the csv rules; every file is what csv.writer writes, and
    # a warm split reads back to the same split
    import csv

    user_ids = ("plain", 'say "hi"', "a,b", "two\nlines", "tab\there", " padded ", "")
    item_ids = ("i0", 'q"', "x,y,z", "nl\n", "é ü", "", "last")
    rng = np.random.default_rng(0)
    clicked = rng.random((len(user_ids), len(item_ids))) < 0.5
    clicked[:, :2], clicked[:, -1] = True, False  # two clicks and one free item each
    pairs = np.argwhere(clicked).astype(np.int64)
    stamps = rng.integers(0, 10**12, size=len(pairs))
    d = Dataset.from_pairs(pairs, user_ids, item_ids, stamps)
    split = make_warm_split(d, min_user_clicks=2, negatives=1, seed=0)
    save_warm_split(split, str(tmp_path / "s"))

    def reference(rows, header):
        with open(tmp_path / "ref.csv", "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
        return (tmp_path / "ref.csv").read_bytes()

    t = split.train
    ids = lambda p: [(t.user_ids[u], t.item_ids[i]) for u, i in p]  # noqa: E731
    train = [(u, i, "1", s) for (u, i), s in zip(ids(t.interactions), t.timestamps.tolist())]
    users = np.arange(len(split.heldout))
    negatives = np.column_stack([np.repeat(users, split.negatives.shape[1]),
                                 split.negatives.ravel()])
    assert (tmp_path / "s" / "train.csv").read_bytes() == reference(
        train, ["user", "item", "value", "timestamp"])
    assert (tmp_path / "s" / "test.csv").read_bytes() == reference(
        [(u, i, "1") for u, i in ids(np.column_stack([users, split.heldout]))],
        ["user", "item", "value"])
    assert (tmp_path / "s" / "negatives.csv").read_bytes() == reference(
        ids(negatives), ["user", "item"])
    back = load_split(str(tmp_path / "s"))
    assert back.train.user_ids == t.user_ids and back.train.item_ids == t.item_ids
    assert np.array_equal(back.heldout, split.heldout)
    assert np.array_equal(back.negatives, split.negatives)


@pytest.mark.parametrize("protocol", ["cold", "warm"])
def test_split_with_carriage_returns_in_ids_reads_back(tmp_path, protocol):
    # a csv writer with a "\n" terminator leaves a bare "\r" unquoted, and the
    # reader would end the row there
    user_ids = ("cr\rlf", "\r\n") + tuple(f"u{i}" for i in range(6))
    item_ids = ("cr\rlf", "\r\n") + tuple(f"i{j}" for j in range(8))
    rng = np.random.default_rng(3)
    clicked = rng.random((len(user_ids), len(item_ids))) < 0.5
    clicked[:, :3] = True
    pairs = np.argwhere(clicked).astype(np.int64)
    d = Dataset.from_pairs(pairs, user_ids, item_ids, rng.integers(0, 100, size=len(pairs)))
    out = str(tmp_path / "s")
    if protocol == "cold":
        split = make_cold_split(d, seed=0)
        save_cold_split(split, out)
        held = ("warm_val", "warm_test", "cold_val", "cold_test")
    else:
        split = make_warm_split(d, min_user_clicks=2, negatives=2, seed=0)
        save_warm_split(split, out)
        held = ("heldout", "negatives")
    back = load_split(out)
    assert back.train.user_ids == user_ids and back.train.item_ids == item_ids
    assert np.array_equal(back.train.interactions, split.train.interactions)
    assert np.array_equal(back.train.timestamps, split.train.timestamps)
    for name in held:
        assert np.array_equal(getattr(back, name), getattr(split, name)), name
