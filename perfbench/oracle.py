"""Correctness checks on the artifacts one ``run`` verb leaves behind.

Every check reads persisted files only, through the package's public
readers (``load_split``, ``load_model``), so the checks survive internal
rewrites of the pipeline. The ranking oracle is deliberately brute force:
dense scores ``X_train @ theta``, training positives pinned at -inf, and a
held-out item's rank is one plus the number of candidates that score
higher, or score equal with a lower item index.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

K = 10
TOLERANCE = 1e-12
CHUNK = 2048     # users ranked per block, to bound the candidate-score block


def expected_files(protocol, scenarios):
    split_files = ["train.csv", "test.csv", "manifest.json"]
    split_files.append("val.csv" if protocol == "cold" else "negatives.csv")
    files = ["manifest.json", "model.bin", "model.bin.json", "grid_trace.csv"]
    files += [os.path.join("splits", f) for f in split_files]
    for s in scenarios:
        files += [f"report_{s}.json", f"report_{s}.txt"]
    return files


def missing_artifacts(outdir, protocol, scenarios):
    """Artifacts the run should have written but did not, plus a leftover marker."""
    missing = [f for f in expected_files(protocol, scenarios)
               if not os.path.isfile(os.path.join(outdir, f))]
    if os.path.exists(os.path.join(outdir, "INCOMPLETE")):
        missing.append("INCOMPLETE marker left behind")
    return missing


def grid_statuses(outdir):
    """The status column of grid_trace.csv, one entry per grid point."""
    with open(os.path.join(outdir, "grid_trace.csv"), encoding="utf-8", newline="") as fh:
        return [row["status"] for row in csv.DictReader(fh)]


def report_metric(outdir, scenario, name):
    with open(os.path.join(outdir, f"report_{scenario}.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    for m in rep["metrics"]:
        if m["name"] == name and m["k"] == K:
            return float(m["mean"]), int(rep["n_users"])
    raise KeyError(f"report_{scenario}.json has no {name}@{K}")


def scores(split, theta):
    """Dense ``X_train @ theta`` with every training positive at -inf."""
    X = split.train.X.tocsr()
    out = np.asarray(X @ theta, dtype=np.float64)
    rows = np.repeat(np.arange(X.shape[0]), np.diff(X.indptr))
    out[rows, X.indices] = -np.inf
    return out


def _heldout(split, scenario):
    """(user, item) test pairs and the sorted candidate pool of a cold split."""
    n_items = split.train.n_items
    cold = np.zeros(n_items, dtype=bool)
    cold[split.cold_cols] = True
    if scenario == "cold":
        return split.cold_test, np.flatnonzero(cold)
    if scenario == "warm":
        return split.warm_test, np.flatnonzero(~cold)
    return np.concatenate([split.warm_test, split.cold_test]), np.arange(n_items)


def _ranks(scores, users, items, candidates):
    """1-based rank of items[i] for users[i] among candidates."""
    ranks = np.empty(len(users), dtype=np.int64)
    for lo in range(0, len(users), CHUNK):
        hi = lo + CHUNK
        u, it = users[lo:hi], items[lo:hi]
        cand = candidates[lo:hi] if candidates.ndim == 2 else candidates[None, :]
        s_c = scores[u[:, None], cand]
        s_r = scores[u, it][:, None]
        ahead = (s_c > s_r) | ((s_c == s_r) & (cand < it[:, None]))
        ranks[lo:hi] = 1 + ahead.sum(axis=1)
    return ranks


def rederive(split, scores, scenario):
    """Brute-force (hr@K, ndcg@K, users) of one test scenario."""
    if scenario == "leave_one_out":
        users = np.arange(len(split.heldout))
        items = split.heldout
        cand = np.column_stack([split.heldout, split.negatives])
        ranks = _ranks(scores, users, items, cand)
        hit = ranks <= K
        hr = hit.astype(np.float64)
        ndcg = np.where(hit, 1.0 / np.log2(1.0 + ranks), 0.0)
        return float(hr.mean()), float(ndcg.mean()), len(users)

    pairs, pool = _heldout(split, scenario)
    pairs = np.unique(pairs, axis=0)           # sorted by user, then item
    ranks = _ranks(scores, pairs[:, 0], pairs[:, 1], pool)
    users, n_rel = np.unique(pairs[:, 0], return_counts=True)
    owner = np.repeat(np.arange(len(users)), n_rel)
    hit = ranks <= K
    hits = np.bincount(owner, weights=hit, minlength=len(users))
    dcg = np.bincount(owner, weights=np.where(hit, 1.0 / np.log2(1.0 + ranks), 0.0),
                      minlength=len(users))
    depth = np.minimum(K, n_rel)
    ideal = np.cumsum(1.0 / np.log2(2.0 + np.arange(K)))[depth - 1]
    return float((hits / depth).mean()), float((dcg / ideal).mean()), len(users)


def check_model(theta, solver):
    """Problems with the fitted weights: non-finite entries, EASE self-weights."""
    problems = []
    if not np.isfinite(theta).all():
        problems.append("theta has non-finite entries")
    if solver == "ease" and np.any(np.diag(theta) != 0.0):
        problems.append("EASE theta has a nonzero diagonal entry")
    return problems
