"""Interaction-log ingestion and deterministic train/validation/test splits.

Two protocols are provided:

- cold: a seeded fraction of items is removed from training entirely; their
  interactions go to cold validation/test pools, the rest split 80/10/10
- warm: leave-one-out per user (last click by timestamp, else input order)
  with 100 seeded negatives drawn outside the user's history

Both are pure functions of (dataset, seed) and reproduce byte-identically.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import EmptyDatasetError, FormatError, ParseError

_DELIMITERS = {"csv": ",", "tsv": "\t"}


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

    @property
    def n_users(self):
        return len(self.user_ids)

    @property
    def n_items(self):
        return len(self.item_ids)

    @cached_property
    def user_index(self):
        return {u: i for i, u in enumerate(self.user_ids)}

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


def _open_rows(path, fmt):
    if fmt not in _DELIMITERS:
        raise ValueError(f"format must be one of {sorted(_DELIMITERS)}, got {fmt!r}")
    fh = open(path, "r", encoding="utf-8", newline="")
    return fh, csv.reader(fh, delimiter=_DELIMITERS[fmt])


def load_interactions(path, format="csv", binarize_threshold=0.5):
    """Read a `user,item,value[,timestamp]` log and binarize it.

    Rows with value >= binarize_threshold become 1-entries; the rest are
    dropped. Ids are indexed densely in first-appearance order among kept
    rows. Duplicate (user, item) pairs keep the most recent occurrence
    (largest timestamp, else latest position).
    """
    fh, reader = _open_rows(path, format)
    users, items, stamps = [], [], []
    with fh:
        header = next(reader, None)
        if header is None:
            raise FormatError(f"{path}: empty file, expected a header row")
        header = [h.strip().lower() for h in header]
        if header not in (["user", "item", "value"], ["user", "item", "value", "timestamp"]):
            raise FormatError(
                f"{path}: header must be user,item,value[,timestamp], got {header}"
            )
        has_ts = len(header) == 4
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
                    ts = int(row[3])
                except ValueError:
                    raise ParseError(
                        f"bad timestamp {row[3]!r}", line_number=lineno
                    ) from None
            if value >= binarize_threshold:
                users.append(user)
                items.append(item)
                stamps.append(ts)
    if not users:
        raise EmptyDatasetError(f"{path}: no interactions at threshold {binarize_threshold}")

    user_ids, item_ids = [], []
    umap, imap = {}, {}
    for u, it in zip(users, items):
        if u not in umap:
            umap[u] = len(user_ids)
            user_ids.append(u)
        if it not in imap:
            imap[it] = len(item_ids)
            item_ids.append(it)

    # dedup: keep the occurrence with the largest (timestamp, position) key
    best = {}
    for pos, (u, it, ts) in enumerate(zip(users, items, stamps)):
        key = (umap[u], imap[it])
        if key not in best or (ts, pos) >= best[key]:
            best[key] = (ts, pos)
    order = sorted(best, key=lambda k: best[k][1])
    pairs = np.array(order, dtype=np.int64).reshape(len(order), 2)
    timestamps = np.array([best[k][0] for k in order], dtype=np.int64) if has_ts else None

    X = sp.csr_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
        shape=(len(user_ids), len(item_ids)),
        dtype=np.float64,
    )
    return Dataset(
        X=X,
        user_ids=tuple(user_ids),
        item_ids=tuple(item_ids),
        interactions=pairs,
        timestamps=timestamps,
    )


def _dataset_from_rows(base, keep_positions):
    keep_positions = np.sort(keep_positions)
    pairs = base.interactions[keep_positions]
    ts = base.timestamps[keep_positions] if base.timestamps is not None else None
    X = sp.csr_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
        shape=(base.n_users, base.n_items),
        dtype=np.float64,
    )
    return Dataset(
        X=X,
        user_ids=base.user_ids,
        item_ids=base.item_ids,
        interactions=pairs,
        timestamps=ts,
    )


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
    is_cold = np.zeros(d.n_items, dtype=bool)
    is_cold[cold_cols] = True

    pos = np.arange(len(d.interactions))
    cold_mask = is_cold[d.interactions[:, 1]]
    cold_pos, warm_pos = pos[cold_mask], pos[~cold_mask]

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
    train_pos = warm_pos[perm[:n_train]]
    wv_pos = warm_pos[perm[n_train : n_train + n_val]]
    wt_pos = warm_pos[perm[n_train + n_val :]]

    def held(positions):
        positions = np.sort(positions)
        return d.interactions[positions].copy()

    return ColdSplit(
        train=_dataset_from_rows(d, train_pos),
        warm_val=held(wv_pos),
        warm_test=held(wt_pos),
        cold_val=held(cold_val_pos),
        cold_test=held(cold_test_pos),
        cold_item_ids=tuple(sorted(d.item_ids[c] for c in cold_cols)),
        seed=seed,
    )


def make_warm_split(d, min_user_clicks=20, negatives=100, seed=0):
    """Leave-one-out split with seeded negative samples.

    Users with fewer than min_user_clicks interactions are dropped. The
    held-out click is the last one (largest timestamp, ties and missing
    timestamps resolved by input order). Negatives are distinct items
    outside the user's full history.
    """
    if negatives < 1:
        raise ValueError(f"negatives must be >= 1, got {negatives}")
    counts = np.asarray(d.X.sum(axis=1)).ravel()
    keep_users = np.flatnonzero(counts >= min_user_clicks)
    if len(keep_users) == 0:
        raise EmptyDatasetError(
            f"no users with at least {min_user_clicks} interactions"
        )

    order = np.argsort(d.interactions[:, 0], kind="stable")
    bounds = np.searchsorted(d.interactions[order, 0], [keep_users, keep_users + 1])
    rng = np.random.default_rng(seed)

    heldout = np.empty(len(keep_users), dtype=np.int64)
    negs = np.empty((len(keep_users), negatives), dtype=np.int64)
    drop_positions = np.empty(len(keep_users), dtype=np.int64)
    all_items = np.arange(d.n_items)
    for row, u in enumerate(keep_users):
        mine = order[bounds[0, row] : bounds[1, row]]
        if d.timestamps is not None:
            ts = d.timestamps[mine]
            last = mine[np.flatnonzero(ts == ts.max())[-1]]
        else:
            last = mine[-1]
        drop_positions[row] = last
        heldout[row] = d.interactions[last, 1]
        history = d.interactions[mine, 1]
        candidates = np.setdiff1d(all_items, history, assume_unique=False)
        if len(candidates) < negatives:
            raise ValueError(
                f"user {d.user_ids[u]!r} has {len(candidates)} non-history items, "
                f"cannot draw {negatives} negatives"
            )
        negs[row] = rng.choice(candidates, size=negatives, replace=False)

    keep_mask = np.zeros(len(d.interactions), dtype=bool)
    user_kept = np.zeros(d.n_users, dtype=bool)
    user_kept[keep_users] = True
    keep_mask[user_kept[d.interactions[:, 0]]] = True
    keep_mask[drop_positions] = False
    train_positions = np.flatnonzero(keep_mask)

    remap = np.full(d.n_users, -1, dtype=np.int64)
    remap[keep_users] = np.arange(len(keep_users))
    pairs = d.interactions[train_positions].copy()
    pairs[:, 0] = remap[pairs[:, 0]]
    ts = d.timestamps[train_positions] if d.timestamps is not None else None
    X = sp.csr_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
        shape=(len(keep_users), d.n_items),
        dtype=np.float64,
    )
    train = Dataset(
        X=X,
        user_ids=tuple(d.user_ids[u] for u in keep_users),
        item_ids=d.item_ids,
        interactions=pairs,
        timestamps=ts,
    )
    return WarmSplit(
        train=train,
        heldout=heldout,
        negatives=negs,
        seed=seed,
        min_user_clicks=min_user_clicks,
    )


def _write_pairs_csv(path, dataset, pairs, timestamps=None):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        cols = ["user", "item", "value"] + (["timestamp"] if timestamps is not None else [])
        w.writerow(cols)
        for k, (u, it) in enumerate(pairs):
            row = [dataset.user_ids[u], dataset.item_ids[it], "1"]
            if timestamps is not None:
                row.append(str(int(timestamps[k])))
            w.writerow(row)


def write_json(path, payload):
    """Write payload as JSON with sorted keys, so equal payloads give equal bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_cold_split(split, outdir):
    """Persist a cold split as train/val/test CSVs plus a JSON manifest.

    Validation and test files mix warm and cold rows; the manifest's cold
    item list separates them again on load. The manifest also carries the
    full id vocabularies so empty rows/columns survive the round trip.
    """
    os.makedirs(outdir, exist_ok=True)
    t = split.train
    _write_pairs_csv(os.path.join(outdir, "train.csv"), t, t.interactions, t.timestamps)
    val = np.concatenate([split.warm_val, split.cold_val])
    test = np.concatenate([split.warm_test, split.cold_test])
    _write_pairs_csv(os.path.join(outdir, "val.csv"), t, val)
    _write_pairs_csv(os.path.join(outdir, "test.csv"), t, test)
    write_json(
        os.path.join(outdir, "manifest.json"),
        {
            "protocol": "cold",
            "seed": split.seed,
            "cold_item_ids": list(split.cold_item_ids),
            "user_ids": list(t.user_ids),
            "item_ids": list(t.item_ids),
            "files": {"train": "train.csv", "val": "val.csv", "test": "test.csv"},
        },
    )


def save_warm_split(split, outdir):
    """Persist a warm split: train/test CSVs, negatives CSV, JSON manifest."""
    os.makedirs(outdir, exist_ok=True)
    t = split.train
    _write_pairs_csv(os.path.join(outdir, "train.csv"), t, t.interactions, t.timestamps)
    test = np.column_stack([np.arange(len(split.heldout)), split.heldout])
    _write_pairs_csv(os.path.join(outdir, "test.csv"), t, test)
    with open(os.path.join(outdir, "negatives.csv"), "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["user", "item"])
        for row in range(split.negatives.shape[0]):
            for it in split.negatives[row]:
                w.writerow([t.user_ids[row], t.item_ids[it]])
    write_json(
        os.path.join(outdir, "manifest.json"),
        {
            "protocol": "warm",
            "seed": split.seed,
            "min_user_clicks": split.min_user_clicks,
            "negatives_per_user": int(split.negatives.shape[1]),
            "user_ids": list(t.user_ids),
            "item_ids": list(t.item_ids),
            "files": {
                "train": "train.csv",
                "test": "test.csv",
                "negatives": "negatives.csv",
            },
        },
    )


def _read_pairs_csv(path, umap, imap):
    fh, reader = _open_rows(path, "csv")
    pairs, stamps = [], []
    with fh:
        header = next(reader)
        has_ts = len(header) == 4
        for row in reader:
            if not row:
                continue
            pairs.append((umap[row[0]], imap[row[1]]))
            if has_ts:
                stamps.append(int(row[3]))
    pairs = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)
    ts = np.array(stamps, dtype=np.int64) if has_ts else None
    return pairs, ts


def load_split(dirpath):
    """Load a persisted split directory; returns ColdSplit or WarmSplit."""
    with open(os.path.join(dirpath, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    user_ids = tuple(manifest["user_ids"])
    item_ids = tuple(manifest["item_ids"])
    umap = {u: i for i, u in enumerate(user_ids)}
    imap = {it: j for j, it in enumerate(item_ids)}

    def dataset_of(name, timestamps_ok=True):
        pairs, ts = _read_pairs_csv(os.path.join(dirpath, manifest["files"][name]), umap, imap)
        X = sp.csr_matrix(
            (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
            shape=(len(user_ids), len(item_ids)),
            dtype=np.float64,
        )
        return Dataset(X=X, user_ids=user_ids, item_ids=item_ids,
                       interactions=pairs, timestamps=ts if timestamps_ok else None)

    if manifest["protocol"] == "cold":
        train = dataset_of("train")
        val, _ = _read_pairs_csv(os.path.join(dirpath, manifest["files"]["val"]), umap, imap)
        test, _ = _read_pairs_csv(os.path.join(dirpath, manifest["files"]["test"]), umap, imap)
        cold_ids = tuple(manifest["cold_item_ids"])
        cold_cols = np.array(sorted(imap[c] for c in cold_ids), dtype=np.int64)
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
    if manifest["protocol"] == "warm":
        train = dataset_of("train")
        test, _ = _read_pairs_csv(os.path.join(dirpath, manifest["files"]["test"]), umap, imap)
        if len(test) != len(user_ids) or len(np.unique(test[:, 0])) != len(user_ids):
            raise FormatError(f"{dirpath}: test file must hold exactly one row per user")
        heldout = np.empty(len(user_ids), dtype=np.int64)
        heldout[test[:, 0]] = test[:, 1]
        n_neg = manifest["negatives_per_user"]
        negatives = np.empty((len(user_ids), n_neg), dtype=np.int64)
        fill = np.zeros(len(user_ids), dtype=np.int64)
        fh, reader = _open_rows(os.path.join(dirpath, manifest["files"]["negatives"]), "csv")
        with fh:
            next(reader)
            for row in reader:
                if not row:
                    continue
                u = umap[row[0]]
                negatives[u, fill[u]] = imap[row[1]]
                fill[u] += 1
        if not np.all(fill == n_neg):
            raise FormatError(f"{dirpath}: negatives file does not cover every user")
        return WarmSplit(
            train=train,
            heldout=heldout,
            negatives=negatives,
            seed=manifest["seed"],
            min_user_clicks=manifest["min_user_clicks"],
        )
    raise FormatError(f"{dirpath}: unknown split protocol {manifest['protocol']!r}")
