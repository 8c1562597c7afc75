"""Checks on the benchmark's own oracle and tracer.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracer  # noqa: E402
from alignrec import (  # noqa: E402
    EaseConfig,
    evaluate_scenario,
    fit_ease,
    make_cold_split,
    make_warm_split,
)
from alignrec.synthetic import planted_dataset  # noqa: E402


def _span(start, end, parent=None, name="x.f"):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "thread": 0, "error": None}


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = _span(0.0, 10.0)
    children = [_span(1.0, 4.0, 0), _span(3.0, 5.0, 0), _span(8.0, 12.0, 0)]
    assert tracer._self_time(parent, children) == pytest.approx(10.0 - 4.0 - 2.0)


@pytest.mark.parametrize("protocol", ["cold", "warm"])
def test_oracle_matches_package_metrics_with_ties(protocol):
    dataset, _ = planted_dataset(n_users=300, n_items=80, n_topics=8, seed=5)
    if protocol == "cold":
        split = make_cold_split(dataset, seed=5)
        scenarios = ("cold", "warm", "all")
    else:
        split = make_warm_split(dataset, min_user_clicks=10, negatives=30, seed=5)
        scenarios = ("leave_one_out",)
    theta = fit_ease(split.train.X, EaseConfig(lambda1=5.0)).theta
    # coarse weights make many exact score ties, so the tie-break is exercised
    scores = oracle.scores(split, np.round(theta, 1))
    for scenario in scenarios:
        rep = evaluate_scenario(scores, split, scenario, ks=(10,), with_ci=False)
        hr, ndcg, users = oracle.rederive(split, scores, scenario)
        assert users == rep.n_users
        assert abs(hr - rep.metric("hr", 10).mean) <= oracle.TOLERANCE
        assert abs(ndcg - rep.metric("ndcg", 10).mean) <= oracle.TOLERANCE


def test_missing_target_is_absent_not_zero(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", (
        ("alignrec.linalg", None, "no_such_function", "linalg.gram", None),))
    t = tracer.Tracer()
    assert t.install() == ["linalg.gram"]
    metrics = tracer.layer_metrics([], t.installed, t.probe_failed)
    assert "linalg.gram.s" not in metrics and "linalg.gram.calls" not in metrics
    assert "linalg.self_s" not in metrics and "linalg.singular" not in metrics


def test_uncalled_target_is_absent_and_sums_keep_the_called_part():
    installed = {"linalg.invert", "linalg.solve_general", "linalg.gram"}
    spans = [dict(_span(0.0, 2.0, name="linalg.invert"), flops=5.0)]
    metrics = tracer.layer_metrics(spans, installed, set())
    assert metrics["linalg.factor.s"] == metrics["linalg.invert.s"] == 2.0
    assert metrics["linalg.factor.calls"] == 1 and metrics["linalg.lu_flops"] == 5.0
    assert metrics["linalg.self_s"] == 2.0 and metrics["linalg.singular"] == 0
    for name in ("linalg.solve_general.s", "linalg.solve_general.calls",
                 "linalg.gram.s", "linalg.gram.per_matrix", "data.self_s"):
        assert name not in metrics


def test_times_are_scaled_by_the_probed_speed():
    import run

    bench = run.Bench(run.WORKLOADS["warm-loo"], 1, 0, "unused")
    bench.samples["run"] = [{"wall_s": w, "speed": v, "maxrss_mib": 1.0}
                            for w, v in ((2.0, 1.0), (3.0, 0.5), (9.0, 0.5), (1.0, None))]
    bench.samples["setup"] = [{"wall_s": 0.4, "speed": 0.75}]
    metrics = bench.metrics()
    assert metrics["run_s"] == pytest.approx(2.0)
    assert metrics["setup_s"] == pytest.approx(0.3)


def test_probe_speed_is_the_mean_reference_share_of_its_ticks():
    import worker

    probe = worker.SpeedProbe()
    probe.ticks.extend([worker.TICK_REF_S, 2 * worker.TICK_REF_S])
    probe.start()
    # stopped well within its first interval, so it adds no tick of its own
    assert probe.speed() == pytest.approx(0.75)
    idle = worker.SpeedProbe()
    idle.start()
    assert idle.speed() is None
