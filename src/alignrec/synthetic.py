"""Planted-structure synthetic datasets for tests and demos.

Items belong to latent topics; users subscribe to a few topics and click
mostly inside them. Metadata carries a noisy topic indicator (predictive)
and a pure-noise label (useless), so cold-start lift, mix-coefficient
selection, and overfitting behaviors can all be exercised at desk scale.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from .data import Dataset, _write_pairs_csv


def planted_dataset(n_users=2000, n_items=400, n_topics=20, seed=0,
                    clicks=(12, 24), user_topics=(2, 3), p_out=0.05,
                    label_noise=0.08, n_noise_labels=None):
    """Generate a topic-structured click dataset plus item metadata.

    Returns (dataset, meta) where meta holds per-item label lists for the
    'topic' attribute (true topic, flipped with probability label_noise)
    and the 'noise' attribute (uniform random), the true topic array, and
    per-item text built from the noisy label.
    """
    rng = np.random.default_rng(seed)
    item_topic = np.arange(n_items) % n_topics
    if n_noise_labels is None:
        n_noise_labels = n_topics

    rows = []
    for u in range(n_users):
        k_t = int(rng.integers(user_topics[0], user_topics[1] + 1))
        topics = rng.choice(n_topics, size=k_t, replace=False)
        pool = np.flatnonzero(np.isin(item_topic, topics))
        m = int(rng.integers(clicks[0], clicks[1] + 1))
        chosen = set()
        while len(chosen) < m:
            if rng.random() < p_out:
                chosen.add(int(rng.integers(n_items)))
            else:
                chosen.add(int(pool[rng.integers(len(pool))]))
        # Emit in random order so the last-click heldout is not biased
        # toward high item indices.
        ordered = np.array(sorted(chosen), dtype=np.int64)
        rows.append(np.column_stack([np.full(m, u), ordered[rng.permutation(m)]]))
    pairs = np.concatenate(rows)

    labeled = item_topic.copy()
    flip = rng.random(n_items) < label_noise
    labeled[flip] = rng.integers(0, n_topics, size=int(flip.sum()))
    topic_labels = [[f"t{t:02d}"] for t in labeled]
    noise_labels = [[f"n{int(x):02d}"] for x in rng.integers(0, n_noise_labels, size=n_items)]
    texts = [f"topic {lab[0]} item" for lab in topic_labels]

    dataset = Dataset.from_pairs(
        pairs,
        user_ids=[f"u{u:05d}" for u in range(n_users)],
        item_ids=[f"i{j:05d}" for j in range(n_items)],
        timestamps=np.arange(len(pairs), dtype=np.int64),
    )
    meta = {
        "item_topic": item_topic,
        "topic_labels": topic_labels,
        "noise_labels": noise_labels,
        "texts": texts,
    }
    return dataset, meta


def write_dataset_csvs(dataset, meta, outdir):
    """Write interactions.csv plus one metadata CSV per attribute.

    Produces the exact on-disk formats the loaders expect; used by demos
    and the end-to-end CLI tests.
    """
    os.makedirs(outdir, exist_ok=True)
    paths = {"interactions": os.path.join(outdir, "interactions.csv")}
    ts = dataset.timestamps
    if ts is None:
        ts = np.arange(len(dataset.interactions))
    _write_pairs_csv(paths["interactions"], dataset, dataset.interactions, ts)
    columns = {"topic": meta["topic_labels"], "noise": meta["noise_labels"],
               "text": [[text] for text in meta["texts"]]}
    for name, per_item in columns.items():
        paths[name] = os.path.join(outdir, f"{name}.csv")
        with open(paths[name], "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["item", "value"])
            w.writerows((dataset.item_ids[j], v) for j, values in enumerate(per_item)
                        for v in values)
    return paths
