"""Config validation, grid search mechanics, and the pipeline verbs."""

import csv
import dataclasses
import json
import logging
import os
import re

import numpy as np
import pytest
import yaml

from alignrec import ConfigError, SolverError, grid_search, load_config, run_experiment
from alignrec import data, evaluation
from alignrec.errors import StageError
from alignrec.experiment import (
    VERB_STAGES,
    _Pipeline,
    build_grid,
    compare_reports,
    run_evaluate,
    run_featurize,
    run_fit,
    run_split,
    write_trace_csv,
)
from alignrec import load_model, load_split


# ------------------------------------------------------------------ config

def test_load_config_applies_defaults(planted_config):
    cfg = load_config(planted_config())
    assert cfg["data"]["format"] == "csv"
    assert cfg["data"]["binarize_threshold"] == 0.5
    assert cfg["split"]["protocol"] == "cold"
    assert cfg["evaluation"]["ks"] == [10]
    assert cfg["evaluation"]["scenarios"] == ["cold", "warm", "all"]
    assert cfg["evaluation"]["resamples"] == 500
    mu = cfg["alignment"]["mu_grid"]
    assert len(mu) == 1 and mu[0].first_order.tolist() == [1.0]


def test_load_config_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "ghost.yaml"))


def test_load_config_rejects_bad_yaml(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("seed: [unclosed", encoding="utf-8")
    with pytest.raises(ConfigError, match="YAML"):
        load_config(str(p))


def test_load_config_requires_seed(planted_config):
    path = planted_config()
    cfg = yaml.safe_load(open(path, encoding="utf-8"))
    del cfg["seed"]
    open(path, "w", encoding="utf-8").write(yaml.safe_dump(cfg))
    with pytest.raises(ConfigError, match="seed"):
        load_config(path)


def test_load_config_requires_existing_interactions(planted_config):
    path = planted_config()
    cfg = yaml.safe_load(open(path, encoding="utf-8"))
    cfg["data"]["interactions"] = "nowhere.csv"
    open(path, "w", encoding="utf-8").write(yaml.safe_dump(cfg))
    with pytest.raises(ConfigError, match="interactions file not found"):
        load_config(path)


def _rewrite(path, mutate):
    cfg = yaml.safe_load(open(path, encoding="utf-8"))
    mutate(cfg)
    open(path, "w", encoding="utf-8").write(yaml.safe_dump(cfg))
    return path


def test_load_config_rejects_bad_protocol(planted_config):
    path = _rewrite(planted_config(), lambda c: c["split"].update(protocol="lukewarm"))
    with pytest.raises(ConfigError, match="protocol"):
        load_config(path)


def test_load_config_rejects_unknown_solver(planted_config):
    path = _rewrite(planted_config(), lambda c: c["solver"].update(name="svd"))
    with pytest.raises(ConfigError, match="solver.name"):
        load_config(path)


def test_load_config_rejects_foreign_grid_key(planted_config):
    path = _rewrite(planted_config(), lambda c: c["solver"].update(grid={"w1": [0.5]}))
    with pytest.raises(ConfigError, match="not valid for ease"):
        load_config(path)


def test_load_config_rejects_empty_grid_values(planted_config):
    path = _rewrite(planted_config(), lambda c: c["solver"].update(grid={"lambda1": []}))
    with pytest.raises(ConfigError, match="nonempty list"):
        load_config(path)


def test_load_config_rejects_duplicate_attributes(planted_config):
    path = _rewrite(planted_config(),
                    lambda c: c.update(attributes=c["attributes"] * 2))
    with pytest.raises(ConfigError, match="duplicate attribute"):
        load_config(path)


def test_load_config_requires_one_attribute(planted_config):
    path = _rewrite(planted_config(), lambda c: c.update(attributes=[]))
    with pytest.raises(ConfigError, match="at least one attribute"):
        load_config(path)


def test_load_config_validates_mu_grid(planted_config):
    path = _rewrite(
        planted_config(),
        lambda c: c["alignment"].update(mu_grid=[{"first_order": [-1.0]}]),
    )
    with pytest.raises(ConfigError, match="mu_grid"):
        load_config(path)
    path = _rewrite(
        planted_config(name="exp2"),
        lambda c: c["alignment"].update(
            mu_grid=[{"first_order": [1.0, 1.0], "second_order": [0.0]}]),
    )
    with pytest.raises(ConfigError, match="for 1 attributes"):
        load_config(path)


def test_load_config_accepts_readme_mu_grid(planted_config):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = re.search(r"```yaml\n(.*?)```", fh.read(), re.S).group(1)
    points = yaml.safe_load(block)["alignment"]["mu_grid"]
    assert len(points) == 2 and "second_order" not in points[0]
    path = planted_config(attributes=("topic", "noise", "text"),
                          alignment={"mu_grid": points})
    mu = load_config(path)["alignment"]["mu_grid"]
    assert [m.to_dict() for m in mu] == [
        {"first_order": [1.0, 0.0, 0.0], "second_order": [0.0, 0.0, 0.0]},
        {"first_order": [1.0, 1.0, 0.0], "second_order": [0.5, 0.0, 0.0]},
    ]


def test_load_config_rejects_scenario_protocol_mismatch(planted_config):
    path = _rewrite(planted_config(),
                    lambda c: c.update(evaluation={"scenarios": ["leave_one_out"]}))
    with pytest.raises(ConfigError, match="does not match protocol"):
        load_config(path)
    path = _rewrite(planted_config(protocol="warm", name="exp2"),
                    lambda c: c.update(evaluation={"scenarios": ["cold"]}))
    with pytest.raises(ConfigError, match="does not match protocol"):
        load_config(path)


def test_load_config_rejects_unknown_scenario(planted_config):
    path = _rewrite(planted_config(),
                    lambda c: c.update(evaluation={"scenarios": ["tepid"]}))
    with pytest.raises(ConfigError, match="unknown scenario"):
        load_config(path)


def test_workers_precedence_flag_env_config(planted_config, monkeypatch):
    cfg = load_config(planted_config(workers=5))
    monkeypatch.delenv("ALIGNREC_WORKERS", raising=False)
    assert _Pipeline(cfg).workers == 5
    monkeypatch.setenv("ALIGNREC_WORKERS", "3")
    assert _Pipeline(cfg).workers == 3
    assert _Pipeline(cfg, workers=2).workers == 2


def test_pipeline_requires_output(planted_config):
    cfg = load_config(planted_config())
    cfg["output"] = None
    with pytest.raises(ConfigError, match="output"):
        _Pipeline(cfg)


# ------------------------------------------------------------- grid search

def test_build_grid_preserves_declaration_order():
    points = build_grid({"grid": {"lambda1": [0.1, 1.0], "alpha": [0.0, 2.0]}})
    assert points == [
        {"lambda1": 0.1, "alpha": 0.0},
        {"lambda1": 0.1, "alpha": 2.0},
        {"lambda1": 1.0, "alpha": 0.0},
        {"lambda1": 1.0, "alpha": 2.0},
    ]
    assert build_grid({"grid": {}}) == [{}]


def test_grid_search_picks_lexicographic_best():
    points = [{"x": 0}, {"x": 1}, {"x": 2}]
    metrics = {
        0: {"ndcg@10": 0.5, "hr@10": 0.9},
        1: {"ndcg@10": 0.7, "hr@10": 0.1},
        2: {"ndcg@10": 0.7, "hr@10": 0.2},
    }
    best, idx, trace = grid_search(points, lambda p: metrics[p["x"]])
    assert idx == 2 and best == {"x": 2}
    assert [row["status"] for row in trace] == ["ok"] * 3


def test_grid_search_exact_tie_keeps_earlier_point():
    points = [{"x": 0}, {"x": 1}]
    best, idx, _ = grid_search(points, lambda p: {"ndcg@10": 0.5, "hr@10": 0.5})
    assert idx == 0


def test_grid_search_records_and_skips_failures():
    def evaluate(point):
        if point["x"] == 0:
            raise SolverError("synthetic failure")
        return {"ndcg@10": 0.4, "hr@10": 0.4}

    best, idx, trace = grid_search([{"x": 0}, {"x": 1}], evaluate)
    assert idx == 1
    assert trace[0]["status"] == "failed"
    assert "synthetic failure" in trace[0]["error"]
    assert trace[1]["status"] == "ok"


def test_grid_search_aggregates_total_failure():
    def evaluate(point):
        raise SolverError(f"bad point {point['x']}")

    with pytest.raises(SolverError, match="every grid point failed"):
        grid_search([{"x": 0}, {"x": 1}], evaluate)


def test_grid_search_rejects_empty_grid():
    with pytest.raises(ConfigError, match="empty"):
        grid_search([], lambda p: {})


def test_grid_search_worker_count_does_not_change_selection():
    points = [{"x": i} for i in range(6)]

    def evaluate(p):
        return {"ndcg@10": [0.3, 0.9, 0.2, 0.9, 0.1, 0.5][p["x"]], "hr@10": 0.0}

    a = grid_search(points, evaluate, workers=1)
    b = grid_search(points, evaluate, workers=3)
    assert a[1] == b[1] == 1
    assert [r["metrics"] for r in a[2]] == [r["metrics"] for r in b[2]]


def test_trace_csv_layout(tmp_path):
    trace = [
        {"index": 0, "params": {"lambda1": 0.5}, "wall_time_s": 0.25,
         "status": "ok", "error": "", "metrics": {"ndcg@10": 0.5, "hr@10": 0.25}},
        {"index": 1, "params": {"lambda1": 1.0}, "wall_time_s": 0.5,
         "status": "failed", "error": "boom", "metrics": {}},
    ]
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "index,lambda1,ndcg@10,hr@10,wall_time_s,status,error"
    assert lines[1] == "0,0.5,0.5,0.25,0.250000,ok,"
    assert lines[2] == "1,1.0,'','',0.500000,failed,boom"


# ---------------------------------------------------------------- pipeline

def test_run_experiment_cold_end_to_end(planted_config):
    path = planted_config(grid={"lambda1": [0.5, 2.0]})
    outdir = run_experiment(path)
    names = sorted(os.listdir(outdir))
    assert "INCOMPLETE" not in names
    for required in ("grid_trace.csv", "manifest.json", "model.bin", "model.bin.json",
                     "report_all.json", "report_all.txt", "report_cold.json",
                     "report_cold.txt", "report_warm.json", "report_warm.txt", "splits"):
        assert required in names

    manifest = json.loads(open(os.path.join(outdir, "manifest.json"), encoding="utf-8").read())
    assert manifest["protocol"] == "cold"
    assert manifest["grid_size"] == 2
    assert manifest["selected"]["lambda1"] in (0.5, 2.0)
    assert manifest["mix"]["first_order"] == [1.0]

    model = load_model(os.path.join(outdir, "model.bin"))
    assert model.theta.shape == (60, 60)
    assert model.item_ids is not None

    report = json.loads(open(os.path.join(outdir, "report_cold.json"), encoding="utf-8").read())
    names = {(m["name"], m["k"]) for m in report["metrics"]}
    assert names == {("hr", 10), ("ndcg", 10)}
    assert all("ci_low" in m for m in report["metrics"])

    split = load_split(os.path.join(outdir, "splits"))
    assert split.seed == 3

    trace = open(os.path.join(outdir, "grid_trace.csv"), encoding="utf-8").read().splitlines()
    assert trace[0].startswith("index,lambda1,")
    assert len(trace) == 3


def test_run_experiment_selects_nonzero_ridge_over_overfit(tmp_path):
    """On topic-structured clicks, the unregularized point loses validation."""
    import alignrec.synthetic as synthetic

    dataset, meta = synthetic.planted_dataset(
        n_users=500, n_items=160, n_topics=8, seed=7, clicks=(22, 28), p_out=0.3)
    paths = synthetic.write_dataset_csvs(dataset, meta, tmp_path / "data")
    cfg = {
        "seed": 7,
        "data": {"interactions": str(paths["interactions"])},
        "split": {"protocol": "warm", "min_user_clicks": 20, "negatives": 100},
        "attributes": [{"name": "topic", "kind": "categorical", "path": str(paths["topic"])}],
        "alignment": {"delta": 0.5, "alpha": 0.0, "beta": 0.0},
        "solver": {"name": "mslim", "grid": {"w1": [1.0], "lambda1": [0.0, 8.0], "gamma1": [0.0]}},
        "output": str(tmp_path / "out"),
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    outdir = run_experiment(str(path))
    manifest = json.loads(open(os.path.join(outdir, "manifest.json"), encoding="utf-8").read())
    assert manifest["selected"]["lambda1"] == 8.0
    trace = open(os.path.join(outdir, "grid_trace.csv"), encoding="utf-8").read()
    assert trace.count(",ok,") == 2  # the unregularized point fits but ranks worse


def _comparable(path):
    """File content with the wall-time fields stripped."""
    name = os.path.basename(path)
    if name == "grid_trace.csv":
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("wall_time_s")
        return [[c for i, c in enumerate(row) if i != drop] for row in rows]
    if name == "model.bin.json":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["diagnostics"].pop("wall_time_s")
        return payload
    with open(path, "rb") as fh:
        return fh.read()


def _artifacts(outdir):
    return {os.path.relpath(os.path.join(root, f), outdir):
            _comparable(os.path.join(root, f))
            for root, _, files in os.walk(outdir) for f in files}


_TWO_MIXES = {"mu_grid": [{"first_order": [1.0, 0.0], "second_order": [0.0]},
                          {"first_order": [1.0, 1.0], "second_order": [0.0]}]}


def test_warm_run_is_byte_identical_across_worker_counts(planted_config, tmp_path):
    config = planted_config(protocol="warm", negatives=20,
                            attributes=("topic", "noise"), alignment=_TWO_MIXES,
                            grid={"lambda1": [0.5, 2.0, 8.0]})
    one = _artifacts(run_experiment(config, output=str(tmp_path / "one"), workers=1))
    four = _artifacts(run_experiment(config, output=str(tmp_path / "four"), workers=4))
    assert "report_leave_one_out.json" in one and "INCOMPLETE" not in one
    assert one == four


def test_selection_scores_all_pool_without_cold_validation_pairs(planted_config,
                                                                  monkeypatch):
    make = data.make_cold_split
    monkeypatch.setattr(data, "make_cold_split", lambda *a, **k: dataclasses.replace(
        make(*a, **k), cold_val=np.empty((0, 2), dtype=np.int64)))
    score = evaluation.evaluate_scenario
    scored = []

    def spy(scores, split, scenario, **kwargs):
        if not kwargs.get("with_ci", True):
            scored.append((scenario, kwargs["use"]))
        return score(scores, split, scenario, **kwargs)

    monkeypatch.setattr(evaluation, "evaluate_scenario", spy)
    run_experiment(planted_config(attributes=("topic", "noise"), alignment=_TWO_MIXES,
                                  grid={"lambda1": [0.5, 2.0]}))
    # two mix points, then two solver grid points
    assert scored == [("all", "val")] * 4


def test_run_logs_one_timing_line_per_stage(planted_config, caplog):
    caplog.set_level(logging.INFO, logger="alignrec.experiment")
    run_experiment(planted_config())
    stages = [m.group(1) for r in caplog.records
              if (m := re.fullmatch(r"stage (\S+): \d+\.\d{3} s", r.getMessage()))]
    assert stages == list(VERB_STAGES["run"]) == [
        "load", "split", "persist-split", "featurize", "fit-mix", "grid-search",
        "persist-trace", "refit", "persist-model", "evaluate", "persist-reports",
        "persist-manifest",
    ]


def test_run_split_writes_only_the_split(planted_config):
    path = planted_config()
    split_dir = run_split(path)
    assert sorted(os.listdir(split_dir)) == [
        "manifest.json", "test.csv", "train.csv", "val.csv"]
    out = os.path.dirname(split_dir)
    assert "model.bin" not in os.listdir(out)


def test_run_featurize_persists_blocks(planted_config):
    path = planted_config()
    feat_dir = run_featurize(path)
    files = sorted(os.listdir(feat_dir))
    assert "topic.json" in files
    assert any(f.startswith("topic.") and f.endswith(".npy") for f in files)


def test_run_fit_then_evaluate(planted_config):
    path = planted_config(grid={"lambda1": [0.5]})
    outdir = run_fit(path)
    files = os.listdir(outdir)
    assert "model.bin" in files and "INCOMPLETE" not in files
    assert not any(f.startswith("report_") for f in files)
    run_evaluate(path)
    files = os.listdir(outdir)
    assert "report_cold.json" in files and "report_all.txt" in files


def test_failed_fit_leaves_incomplete_marker(tmp_path):
    # duplicate item columns + a zero-regularized grid: every point fails
    rows = ["user,item,value"]
    for u in range(6):
        rows += [f"u{u},a,1", f"u{u},b,1", f"u{u},f{u},1"]
    data_path = tmp_path / "x.csv"
    data_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    meta = tmp_path / "m.csv"
    meta.write_text("item,value\na,t0\nb,t0\n", encoding="utf-8")
    cfg = {
        "seed": 0,
        "data": {"interactions": str(data_path)},
        "split": {"protocol": "warm", "min_user_clicks": 3, "negatives": 1},
        "attributes": [{"name": "t", "kind": "categorical", "path": str(meta)}],
        "alignment": {"alpha": 0.0},
        "solver": {"name": "mslim", "grid": {"w1": [1.0], "lambda1": [0.0]}},
        "output": str(tmp_path / "out"),
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    with pytest.raises(StageError) as excinfo:
        run_fit(str(path))
    assert excinfo.value.stage == "grid-search"
    assert str(path) in str(excinfo.value)
    assert os.path.exists(tmp_path / "out" / "INCOMPLETE")


# ----------------------------------------------------------------- reports

def _report_json(tmp_path, name, hr, ndcg):
    payload = {
        "scenario": "cold",
        "n_users": 10,
        "metrics": [
            {"name": "hr", "k": 10, "mean": hr},
            {"name": "ndcg", "k": 10, "mean": ndcg},
        ],
    }
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


def test_compare_reports_lift_row(tmp_path):
    a = _report_json(tmp_path, "a.json", hr=0.10, ndcg=0.20)
    b = _report_json(tmp_path, "b.json", hr=0.15, ndcg=0.20)
    table = compare_reports([a, b])
    lift = table.strip().splitlines()[-1]
    assert lift.startswith("lift")
    assert "+50.0%" in lift and "+0.0%" in lift


def test_compare_reports_zero_baseline_is_not_a_ratio(tmp_path):
    a = _report_json(tmp_path, "a.json", hr=0.0, ndcg=0.2)
    b = _report_json(tmp_path, "b.json", hr=0.5, ndcg=0.1)
    lift = compare_reports([a, b]).strip().splitlines()[-1]
    assert "n/a" in lift and "-50.0%" in lift


def test_compare_reports_single_report_has_no_lift_row(tmp_path):
    a = _report_json(tmp_path, "a.json", hr=0.1, ndcg=0.2)
    table = compare_reports([a])
    assert "lift" not in table
    assert "hr@10" in table


def test_compare_reports_rejects_empty_list():
    with pytest.raises(ValueError, match="no reports"):
        compare_reports([])
