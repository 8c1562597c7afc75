"""The benchmark's traced sample still yields every per-layer metric.

Runs ``perfbench/worker.py trace`` in a fresh interpreter on tiny versions
of the benchmark's three workloads and checks that every tracer target
still exists and that the spans give every ``per_layer`` metric that
BENCHMARK.json lists. A metric goes missing when the function it wraps is
renamed, removed or no longer called, which makes the benchmark's result
incomplete. ``trace.run_s`` and ``trace.overhead_s`` come from
``perfbench/run.py``, not from the spans, so they are not checked here.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from alignrec import load_split
from alignrec.synthetic import planted_dataset, write_dataset_csvs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

import tracer  # noqa: E402
import workloads  # noqa: E402

# planted sizes small enough for a sample in about a second
TINY = {
    "cold-ease": ({"n_users": 300, "n_items": 80}, {}),
    "cold-mslim": ({"n_users": 200, "n_items": 50}, {}),
    "warm-loo": ({"n_users": 300, "n_items": 80},
                 {"split": {"protocol": "warm", "negatives": 20, "min_user_clicks": 10}}),
}


def _per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    return names - {"trace.run_s", "trace.overhead_s"}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_sample_reports_every_per_layer_metric(tmp_path, name):
    data, config = TINY[name]
    w = workloads.WORKLOADS[name]
    w = dataclasses.replace(w, data=dict(w.data, **data), config=dict(w.config, **config))
    dataset, meta = planted_dataset(seed=7, **w.data)
    paths = write_dataset_csvs(dataset, meta, tmp_path / "data")
    cfg = workloads.experiment_config(w, {k: str(v) for k, v in paths.items()}, 7)
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(cfg, sort_keys=False), encoding="utf-8")
    result, spans = tmp_path / "result.json", tmp_path / "spans.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "worker.py"), "trace",
         "--config", str(config_path), "--output", str(tmp_path / "out"),
         "--result", str(result), "--spans", str(spans)],
        check=True, cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    out = json.loads(result.read_text(encoding="utf-8"))
    assert out["exit"] == 0
    assert out["absent"] == []
    rec = json.loads(spans.read_text(encoding="utf-8"))
    assert rec["probe_failed"] == []
    # the CLI's `run` enters through run_experiment, the root of every span
    assert [s["parent"] for s in rec["spans"]
            if s["name"] == "experiment.run_experiment"] == [None]
    metrics = tracer.layer_metrics(rec["spans"], set(rec["installed"]),
                                   set(rec["probe_failed"]))
    assert sorted(_per_layer_names() - set(metrics)) == []
    # every pool ranks only to depth max(ks) = 10, and every tiny pool holds
    # at least 10 items, so a return to full sorts shows here
    assert metrics["evaluation.candidates_ranked"] == 10 * metrics["evaluation.users_ranked"]
    # validation scores only the pool, so predict runs once, in evaluate
    train = load_split(str(tmp_path / "out" / "splits")).train
    assert metrics["solvers.predict.bytes"] == train.n_users * train.n_items * 8
    # one fit context per training matrix, on the block and the general route
    # alike: one Gram and one cross term
    assert metrics["linalg.gram.per_matrix"] == metrics["alignment.apply.per_matrix"] == 1.0
    if name == "cold-mslim":
        # per grid point, one inverse of the shared warm block K_WW plus one
        # solve per clicked item (its Woodbury capacitance, or its direct
        # system when r_i + 1 >= n); the cold columns are one product with
        # that inverse and solve nothing. The cold refit adopts the grid's
        # winner instead of fitting it again.
        points = metrics["experiment.grid_points"]
        clicked = int((np.diff(train.X.tocsc().indptr) > 0).sum())
        assert 0 < clicked < data["n_items"]
        assert metrics["linalg.factor.calls"] == points * (1 + clicked)
