"""Interaction-log ingestion and deterministic train/validation/test splits.

Two protocols are provided:

- cold: a seeded fraction of items is removed from training entirely; their
  interactions go to cold validation/test pools, the rest split 80/10/10
- warm: leave-one-out per user (last click by timestamp, else input order)
  with 100 seeded negatives drawn uniformly outside the user's history

Both are pure functions of (dataset, seed) and reproduce byte-identically.
"""

from __future__ import annotations

import array
import contextlib
import csv
import io
import json
import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import EmptyDatasetError, FormatError, ParseError

_DELIMITERS = {"csv": ",", "tsv": "\t"}
# Users x items cells per block of the warm split's negative draw (2 MiB
# of float64 keys). On a 4k x 1k log, blocks of 2**20 cells raised the
# peak RSS of a process making the outer and nested splits from 82 to 103 MiB.
_DRAW_CELLS = 2**18
# Rows _write_pairs_csv joins into one string at a time
_WRITE_ROWS = 2**14


@dataclass
class Dataset:
    """Binarized interaction matrix with id maps and the raw event list.

    ``interactions`` keeps the deduplicated events as (user_row, item_col)
    pairs in input-file order; leave-one-out ordering and split conservation
    checks both need it. ``timestamps`` is aligned to it, or None when the
    source had no timestamp column.
    """

    X: sp.csr_matrix
    user_ids: tuple
    item_ids: tuple
    interactions: np.ndarray
    timestamps: np.ndarray | None = None

    @classmethod
    def from_pairs(cls, pairs, user_ids, item_ids, timestamps=None):
        """Wrap distinct (user_row, item_col) ``pairs`` with X holding a 1 at each."""
        X = sp.csr_matrix(
            (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
            shape=(len(user_ids), len(item_ids)),
            dtype=np.float64,
        )
        return cls(X=X, user_ids=tuple(user_ids), item_ids=tuple(item_ids),
                   interactions=pairs, timestamps=timestamps)

    @property
    def n_users(self):
        return len(self.user_ids)

    @property
    def n_items(self):
        return len(self.item_ids)

    @cached_property
    def item_index(self):
        return {it: j for j, it in enumerate(self.item_ids)}


@dataclass
class ColdSplit:
    """Item cold-start split.

    ``train`` keeps the full user and item index; cold columns are all-zero.
    Held-out pools are (user_row, item_col) arrays against that index.
    """

    train: Dataset
    warm_val: np.ndarray
    warm_test: np.ndarray
    cold_val: np.ndarray
    cold_test: np.ndarray
    cold_item_ids: tuple
    seed: int

    @cached_property
    def cold_cols(self):
        index = self.train.item_index
        return np.array(sorted(index[i] for i in self.cold_item_ids), dtype=np.int64)


@dataclass
class WarmSplit:
    """Leave-one-out split over users with enough history.

    ``train`` is reindexed to the qualifying users only (full item index).
    Row u of ``heldout``/``negatives`` belongs to train user row u.
    """

    train: Dataset
    heldout: np.ndarray
    negatives: np.ndarray
    seed: int
    min_user_clicks: int = 20


@contextlib.contextmanager
def open_utf8(path, newline=""):
    """Open ``path`` as UTF-8 text; bytes that are not UTF-8 raise FormatError."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: bytes that are not UTF-8 ({e.reason})") from None


def load_interactions(path, format="csv", binarize_threshold=0.5):
    """Read a `user,item,value[,timestamp]` log and binarize it.

    Rows with value >= binarize_threshold become 1-entries; the rest are
    dropped. Ids are indexed densely in first-appearance order among kept
    rows, numbered as they are read: a kept row adds its user's and item's
    numbers (and timestamp) to int64 arrays, and only the distinct ids are
    kept as strings. Duplicate (user, item) pairs keep the most recent
    occurrence (largest timestamp, else latest position).
    """
    if format not in _DELIMITERS:
        raise ValueError(f"format must be one of {sorted(_DELIMITERS)}, got {format!r}")
    user_codes, item_codes = {}, {}
    users, items, stamps = array.array("q"), array.array("q"), array.array("q")
    with open_utf8(path) as fh:
        reader = csv.reader(fh, delimiter=_DELIMITERS[format])
        header = next(reader, None)
        if header is None:
            raise FormatError(f"{path}: empty file, expected a header row")
        header = [h.strip().lower() for h in header]
        if header not in (["user", "item", "value"], ["user", "item", "value", "timestamp"]):
            raise FormatError(
                f"{path}: header must be user,item,value[,timestamp], got {header}"
            )
        has_ts = len(header) == 4
        try:
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ParseError(
                        f"expected {len(header)} fields, got {len(row)}", line_number=lineno
                    )
                user, item = row[0].strip(), row[1].strip()
                if not user or not item:
                    raise ParseError("empty user or item id", line_number=lineno)
                try:
                    value = float(row[2])
                except ValueError:
                    raise ParseError(f"bad value {row[2]!r}", line_number=lineno) from None
                if not math.isfinite(value):
                    raise ParseError(f"non-finite value {row[2]!r}", line_number=lineno)
                ts = 0
                if has_ts:
                    try:
                        ts = _timestamp(row[3])
                    except ValueError:
                        raise ParseError(
                            f"bad timestamp {row[3]!r}", line_number=lineno
                        ) from None
                if value >= binarize_threshold:
                    users.append(user_codes.setdefault(user, len(user_codes)))
                    items.append(item_codes.setdefault(item, len(item_codes)))
                    stamps.append(ts)
        except ParseError as e:
            e.args = (f"{path}: {e}",)  # name the file; line_number stays
            raise
    if not users:
        raise EmptyDatasetError(f"{path}: no interactions at threshold {binarize_threshold}")

    user_rows, item_cols = np.frombuffer(users, np.int64), np.frombuffer(items, np.int64)
    user_ids, item_ids = tuple(user_codes), tuple(item_codes)
    stamps = np.frombuffer(stamps, np.int64)
    # dedup: a stable sort on (pair, timestamp) puts each pair's occurrence
    # with the largest (timestamp, position) last; keep it, in input order
    key = user_rows * len(item_ids) + item_cols
    order = np.lexsort((stamps, key))
    last = np.append(key[order][1:] != key[order][:-1], True)
    keep = np.sort(order[last])
    pairs = np.column_stack([user_rows[keep], item_cols[keep]])
    return Dataset.from_pairs(pairs, user_ids, item_ids, stamps[keep] if has_ts else None)


def _timestamp(text):
    """Parse a timestamp; ValueError unless it is an integer that fits int64."""
    ts = int(text)
    if not -(2**63) <= ts < 2**63:
        raise ValueError(f"timestamp {text!r} is out of the int64 range")
    return ts


def make_cold_split(d, cold_fraction=0.20, warm_fractions=(0.80, 0.10, 0.10), seed=0):
    """Sample cold items and split the rest 80/10/10 by interaction.

    Cold items' interactions go half to cold_val, half to cold_test (per
    item, seeded; an odd leftover lands on a seeded coin flip). Users are
    never dropped, so an all-cold-history user keeps an empty train row.
    """
    if not 0 < cold_fraction < 1:
        raise ValueError(f"cold_fraction must be in (0, 1), got {cold_fraction}")
    if len(warm_fractions) != 3 or abs(sum(warm_fractions) - 1.0) > 1e-9:
        raise ValueError(f"warm_fractions must sum to 1, got {warm_fractions}")
    n_cold = int(round(cold_fraction * d.n_items))
    if n_cold < 1:
        raise ValueError(
            f"cold_fraction {cold_fraction} of {d.n_items} items yields no cold item"
        )
    if n_cold >= d.n_items:
        raise ValueError("cold_fraction leaves no warm items")

    rng = np.random.default_rng(seed)
    cold_cols = np.sort(rng.choice(d.n_items, size=n_cold, replace=False))
    cold_mask = np.isin(d.interactions[:, 1], cold_cols)
    cold_pos, warm_pos = np.flatnonzero(cold_mask), np.flatnonzero(~cold_mask)

    cv_parts, ct_parts = [], []
    items_of = d.interactions[cold_pos, 1]
    for col in cold_cols:
        mine = cold_pos[items_of == col]
        perm = rng.permutation(len(mine))
        n_val = len(mine) // 2
        if len(mine) % 2 == 1 and rng.integers(0, 2) == 1:
            n_val += 1
        cv_parts.append(mine[perm[:n_val]])
        ct_parts.append(mine[perm[n_val:]])
    cold_val_pos = np.concatenate(cv_parts) if cv_parts else np.empty(0, dtype=np.int64)
    cold_test_pos = np.concatenate(ct_parts) if ct_parts else np.empty(0, dtype=np.int64)

    perm = rng.permutation(len(warm_pos))
    n = len(warm_pos)
    n_train = int(round(warm_fractions[0] * n))
    n_val = int(round((warm_fractions[0] + warm_fractions[1]) * n)) - n_train
    train_pos = np.sort(warm_pos[perm[:n_train]])
    wv_pos = warm_pos[perm[n_train : n_train + n_val]]
    wt_pos = warm_pos[perm[n_train + n_val :]]

    train_ts = d.timestamps[train_pos] if d.timestamps is not None else None
    return ColdSplit(
        train=Dataset.from_pairs(d.interactions[train_pos], d.user_ids, d.item_ids, train_ts),
        warm_val=d.interactions[np.sort(wv_pos)],
        warm_test=d.interactions[np.sort(wt_pos)],
        cold_val=d.interactions[np.sort(cold_val_pos)],
        cold_test=d.interactions[np.sort(cold_test_pos)],
        cold_item_ids=tuple(sorted(d.item_ids[c] for c in cold_cols)),
        seed=seed,
    )


def make_warm_split(d, min_user_clicks=20, negatives=100, seed=0, exclude=None):
    """Leave-one-out split with seeded negative samples.

    Users with fewer than min_user_clicks interactions are dropped. The
    held-out click is the last one (largest timestamp, ties and missing
    timestamps resolved by input order). Negatives are a uniform draw
    without replacement from the items outside the user's full history and
    other than ``exclude[u]`` (one item per user row of ``d``, optional),
    stored in ascending item order. The draw gives every item of a block
    of users a uniform key, history cells +inf, and keeps the
    ``negatives`` smallest keys per row; keys are drawn in row-major order,
    so the result does not depend on the block size.
    """
    for name, value in (("min_user_clicks", min_user_clicks), ("negatives", negatives)):
        if value < 1:  # a kept user needs a click to hold out
            raise ValueError(f"{name} must be >= 1, got {value}")
    counts = np.diff(d.X.indptr)
    keep_users = np.flatnonzero(counts >= min_user_clicks)
    if len(keep_users) == 0:
        raise EmptyDatasetError(
            f"no users with at least {min_user_clicks} interactions"
        )
    free = d.n_items - counts[keep_users]
    if exclude is not None:
        free -= np.asarray(d.X[keep_users, exclude[keep_users]]).ravel() == 0
    short = np.flatnonzero(free < negatives)
    if len(short):
        raise ValueError(
            f"user {d.user_ids[keep_users[short[0]]]!r} has {free[short[0]]} "
            f"non-history items, cannot draw {negatives} negatives"
        )

    users, pos = d.interactions[:, 0], np.arange(len(d.interactions))
    order = np.lexsort((pos, pos if d.timestamps is None else d.timestamps, users))
    drop_positions = order[np.searchsorted(users[order], keep_users, side="right") - 1]

    rng = np.random.default_rng(seed)
    negs = np.empty((len(keep_users), negatives), dtype=np.int64)
    step = max(1, _DRAW_CELLS // d.n_items)
    for start in range(0, len(keep_users), step):
        block = keep_users[start : start + step]
        keys = rng.random((len(block), d.n_items))
        hist = d.X[block].tocoo()
        keys[hist.row, hist.col] = np.inf
        if exclude is not None:
            keys[np.arange(len(block)), exclude[block]] = np.inf
        picked = np.argpartition(keys, negatives - 1, axis=1)[:, :negatives]
        negs[start : start + len(block)] = np.sort(picked, axis=1)

    remap = np.full(d.n_users, -1, dtype=np.int64)
    remap[keep_users] = np.arange(len(keep_users))
    keep_mask = remap[d.interactions[:, 0]] >= 0
    keep_mask[drop_positions] = False
    train_positions = np.flatnonzero(keep_mask)
    pairs = d.interactions[train_positions]
    pairs[:, 0] = remap[pairs[:, 0]]
    ts = d.timestamps[train_positions] if d.timestamps is not None else None
    return WarmSplit(
        train=Dataset.from_pairs(pairs, [d.user_ids[u] for u in keep_users], d.item_ids, ts),
        heldout=d.interactions[drop_positions, 1],
        negatives=negs,
        seed=seed,
        min_user_clicks=min_user_clicks,
    )


def _csv_fields(values):
    """Each value as csv.writer writes it inside a row (quoted when it holds a
    comma, a quote or a line break), as an object array. A bare carriage
    return is quoted too: with a newline terminator the writer leaves it
    bare, and the reader would end the row there."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    fields = []
    for v in values:
        # an empty second field: a row of one empty field would be written as ""
        w.writerow((v, ""))
        field = buf.getvalue()[:-2]
        fields.append(f'"{field}"' if "\r" in field and field[0] != '"' else field)
        buf.seek(0)
        buf.truncate()
    return np.array(fields, dtype=object)


def _write_pairs_csv(path, dataset, pairs, timestamps=None, values=True, fields=None):
    """Write (user_row, item_col) ``pairs`` as rows of ``dataset``'s ids.

    The header is user,item[,value][,timestamp]; every value is 1. Each id
    is quoted once by the csv rules (``fields``: the ``_csv_fields`` of the
    user and the item ids, computed when not given), and each block of
    _WRITE_ROWS rows is one string join of its cells and their separators:
    the bytes csv.writer would write, without its per-row cost, and with
    scratch that does not grow with the row count.
    """
    header = ["user", "item"]
    if values:
        header.append("value")
    if timestamps is not None:
        header.append("timestamp")
    users, items = fields or (_csv_fields(dataset.user_ids), _csv_fields(dataset.item_ids))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(pairs), _WRITE_ROWS):
            block = pairs[lo:lo + _WRITE_ROWS]
            columns = [users[block[:, 0]], items[block[:, 1]]]
            if values:
                columns.append("1")
            if timestamps is not None:
                stamps = np.asarray(timestamps[lo:lo + _WRITE_ROWS])
                columns.append(list(map(str, stamps.tolist())))
            cells = np.empty((len(block), 2 * len(columns)), dtype=object)
            for j, column in enumerate(columns):
                cells[:, 2 * j] = column
            cells[:, 1::2] = ","
            cells[:, -1] = "\n"
            fh.write("".join(cells.ravel().tolist()))


def write_json(path, payload):
    """Write payload as JSON with sorted keys, so equal payloads give equal bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


class _Fields(dict):
    """A JSON object read from the file ``path``: a missing key raises
    FormatError naming the file and the key, not a bare KeyError."""

    def __init__(self, path, pairs):
        super().__init__(pairs)
        self.path = path

    def __missing__(self, key):
        raise FormatError(f"{self.path}: missing key {key!r}")


def read_json(path):
    """Read a JSON file; text that is not JSON (or not UTF-8) raises
    FormatError, and so does reading a key that one of its objects lacks."""
    with open_utf8(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=lambda pairs: _Fields(path, pairs))
        except json.JSONDecodeError as e:
            raise FormatError(f"{path}: not valid JSON ({e})") from None


def read_exact(fh, size, path):
    """Read exactly ``size`` bytes from binary ``fh``; FormatError if it ends early."""
    raw = fh.read(size)
    if len(raw) != size:
        raise FormatError(f"{path}: truncated file, it ends early")
    return raw


def read_item_id(fh, path):
    """Read one length-prefixed UTF-8 item id from binary ``fh``.

    FormatError if the file ends early or the id is not UTF-8.
    """
    (size,) = struct.unpack("<H", read_exact(fh, 2, path))
    raw = read_exact(fh, size, path)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: item id {raw!r} is not UTF-8") from None


def _save_split(split, outdir, held, **manifest):
    """Write train.csv, one CSV per held-out pair array, and manifest.json.

    The manifest carries the full id vocabularies so empty rows and columns
    survive the round trip. negatives.csv has no value column.
    """
    os.makedirs(outdir, exist_ok=True)
    t = split.train
    fields = (_csv_fields(t.user_ids), _csv_fields(t.item_ids))
    _write_pairs_csv(os.path.join(outdir, "train.csv"), t, t.interactions, t.timestamps,
                     fields=fields)
    for name, pairs in held.items():
        _write_pairs_csv(os.path.join(outdir, f"{name}.csv"), t, pairs,
                         values=name != "negatives", fields=fields)
    write_json(os.path.join(outdir, "manifest.json"), dict(
        manifest, seed=split.seed, user_ids=list(t.user_ids), item_ids=list(t.item_ids),
        files={name: f"{name}.csv" for name in ("train", *held)},
    ))


def save_cold_split(split, outdir):
    """Persist a cold split as train/val/test CSVs plus a JSON manifest.

    Validation and test files mix warm and cold rows; the manifest's cold
    item list separates them again on load.
    """
    _save_split(split, outdir, {
        "val": np.concatenate([split.warm_val, split.cold_val]),
        "test": np.concatenate([split.warm_test, split.cold_test]),
    }, protocol="cold", cold_item_ids=list(split.cold_item_ids))


def save_warm_split(split, outdir):
    """Persist a warm split: train/test CSVs, negatives CSV, JSON manifest.

    test.csv holds each user's held-out item; negatives.csv holds a
    user,item row per negative, user by user.
    """
    rows = np.arange(len(split.heldout))
    n_neg = split.negatives.shape[1]
    _save_split(split, outdir, {
        "test": np.column_stack([rows, split.heldout]),
        "negatives": np.column_stack([np.repeat(rows, n_neg), split.negatives.ravel()]),
    }, protocol="warm", min_user_clicks=split.min_user_clicks, negatives_per_user=int(n_neg))


def _read_pairs_csv(path, umap, imap):
    """Read a file written by _write_pairs_csv back into pairs and timestamps.

    ``umap``/``imap`` map ids to rows and columns. A header other than
    user,item[,value][,timestamp] (an empty file included), a row of the
    wrong width, an unknown id or a bad timestamp raises FormatError naming
    the line; so does, once every row has been read, the first row that
    repeats an earlier (user, item) pair. Each row is kept as three int64s
    (user, item, line), so no Python object lives per row.
    """
    rows, stamps = array.array("q"), array.array("q")
    with open_utf8(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:2] != ["user", "item"] or header[2:] not in (
                [], ["value"], ["timestamp"], ["value", "timestamp"]):
            raise FormatError(
                f"{path}:1: header must be user,item[,value][,timestamp], got {header}")
        has_ts = header[-1] == "timestamp"
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise FormatError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            u, it = umap.get(row[0]), imap.get(row[1])
            if u is None or it is None:
                raise FormatError(f"{path}:{lineno}: unknown user or item in {row[:2]}")
            rows.append(u)
            rows.append(it)
            rows.append(lineno)
            if has_ts:
                try:
                    stamps.append(_timestamp(row[-1]))
                except ValueError:
                    raise FormatError(f"{path}:{lineno}: bad timestamp {row[-1]!r}") from None
    rows = np.frombuffer(rows, dtype=np.int64).reshape(-1, 3)
    key = rows[:, 0] * len(imap) + rows[:, 1]
    order = np.argsort(key, kind="stable")  # equal keys stay in file order
    repeats = order[1:][key[order[1:]] == key[order[:-1]]]
    if len(repeats):
        u, it, lineno = rows[repeats.min()]
        raise FormatError(f"{path}:{lineno}: repeated pair {[list(umap)[u], list(imap)[it]]}")
    return rows[:, :2].copy(), np.frombuffer(stamps, dtype=np.int64) if has_ts else None


def load_split(dirpath):
    """Load a persisted split directory; returns ColdSplit or WarmSplit.

    A key missing from the manifest, a seed that is not an integer, a cold
    item list that is empty or holds an unknown or repeated id, a training
    click on a cold item, a held-out pair or negative that lies in that
    user's training history, and a negative that is the user's held-out
    item raise FormatError naming the file and the offending key, id or
    user.
    """
    path = os.path.join(dirpath, "manifest.json")
    manifest = read_json(path)
    user_ids = tuple(manifest["user_ids"])
    item_ids = tuple(manifest["item_ids"])
    umap = {u: i for i, u in enumerate(user_ids)}
    imap = {it: j for j, it in enumerate(item_ids)}

    def file(name):
        return os.path.join(dirpath, manifest["files"][name])

    def read(name):
        return _read_pairs_csv(file(name), umap, imap)

    if manifest["protocol"] not in ("cold", "warm"):
        raise FormatError(f"{dirpath}: unknown split protocol {manifest['protocol']!r}")
    if type(manifest["seed"]) is not int:
        raise FormatError(f"{path}: seed must be an integer, got {manifest['seed']!r}")
    pairs, ts = read("train")
    train = Dataset.from_pairs(pairs, user_ids, item_ids, ts)
    test, _ = read("test")
    n_items = len(item_ids)
    if manifest["protocol"] == "cold":
        val, _ = read("val")
        cold_ids = tuple(manifest["cold_item_ids"])
        if not cold_ids:
            raise FormatError(f"{path}: cold_item_ids is empty")
        seen = set()
        for c in cold_ids:
            if c in seen or c not in imap:
                raise FormatError(f"{path}: {'repeated' if c in seen else 'unknown'} "
                                  f"cold item {c!r} in cold_item_ids")
            seen.add(c)
        cold_cols = np.array(sorted(imap[c] for c in cold_ids), dtype=np.int64)
        clicked = np.flatnonzero(np.isin(pairs[:, 1], cold_cols))
        if len(clicked):
            u, it = pairs[clicked[0]]
            raise FormatError(f"{file('train')}: user {user_ids[u]!r} clicks the cold item "
                              f"{item_ids[it]!r}")
        held = (("val", val), ("test", test))
    else:
        if len(test) != len(user_ids) or len(np.unique(test[:, 0])) != len(user_ids):
            raise FormatError(f"{dirpath}: test file must hold exactly one row per user")
        n_neg = manifest["negatives_per_user"]
        negs, _ = read("negatives")
        if np.any(np.bincount(negs[:, 0], minlength=len(user_ids)) != n_neg):
            raise FormatError(f"{dirpath}: negatives file must hold {n_neg} rows per user")
        heldout = np.empty(len(user_ids), dtype=np.int64)
        heldout[test[:, 0]] = test[:, 1]
        # a negative equal to the held-out item would be ranked, and hit, twice
        clash = np.flatnonzero(negs[:, 1] == heldout[negs[:, 0]])
        if len(clash):
            u, it = negs[clash[0]]
            raise FormatError(f"{file('negatives')}: the negative item {item_ids[it]!r} of "
                              f"user {user_ids[u]!r} is that user's held-out test item")
        held = (("test", test), ("negatives", negs))
    # evaluation would mask a ranked item inside the user's training history
    # as a training positive, silently
    trained = pairs[:, 0] * n_items + pairs[:, 1]
    for name, rows in held:
        inside = np.flatnonzero(np.isin(rows[:, 0] * n_items + rows[:, 1], trained))
        if len(inside):
            u, it = rows[inside[0]]
            raise FormatError(f"{file(name)}: the {name} item {item_ids[it]!r} of user "
                              f"{user_ids[u]!r} is in that user's training history")
    if manifest["protocol"] == "cold":
        in_cold_v = np.isin(val[:, 1], cold_cols)
        in_cold_t = np.isin(test[:, 1], cold_cols)
        return ColdSplit(
            train=train,
            warm_val=val[~in_cold_v],
            warm_test=test[~in_cold_t],
            cold_val=val[in_cold_v],
            cold_test=test[in_cold_t],
            cold_item_ids=cold_ids,
            seed=manifest["seed"],
        )
    by_user = np.argsort(negs[:, 0], kind="stable")
    return WarmSplit(
        train=train,
        heldout=heldout,
        negatives=negs[by_user, 1].reshape(len(user_ids), n_neg),
        seed=manifest["seed"],
        min_user_clicks=manifest["min_user_clicks"],
    )
