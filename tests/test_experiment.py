"""Config validation, grid search mechanics, and the pipeline verbs."""

import csv
import dataclasses
import json
import logging
import os
import re
import time
import weakref

import numpy as np
import pytest
import yaml
from scipy.linalg import lapack

from alignrec import ConfigError, SolverError, grid_search, load_config, run_experiment
from alignrec import alignment, data, evaluation, features, linalg, solvers, synthetic
from alignrec.cli import main
from alignrec.errors import StageError
from alignrec.features import write_embeddings_text
from alignrec.experiment import (
    _SCHEMA,
    VERB_STAGES,
    _Pipeline,
    build_grid,
    compare_reports,
    run_verb,
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


def test_verbs_require_the_data_files_their_stages_read(planted_config):
    path = planted_config()
    cfg = yaml.safe_load(open(path, encoding="utf-8"))
    cfg["data"]["interactions"] = "nowhere.csv"
    open(path, "w", encoding="utf-8").write(yaml.safe_dump(cfg))
    load_config(path)  # values only: whether a file exists is the verb's question
    with pytest.raises(ConfigError, match="interactions file not found"):
        run_verb("split", path)
    path = planted_config(name="attr")
    cfg = yaml.safe_load(open(path, encoding="utf-8"))
    cfg["attributes"][0]["path"] = "nowhere.csv"
    open(path, "w", encoding="utf-8").write(yaml.safe_dump(cfg))
    with pytest.raises(ConfigError, match="attribute 'topic': file not found"):
        run_verb("featurize", path)
    assert not os.path.exists(os.path.join(os.path.dirname(path), "out"))
    run_verb("split", path)  # the split never reads the attribute file


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


def test_readme_config_block_matches_the_schema(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = re.search(r"```yaml\n(.*?)```", fh.read(), re.S).group(1)
    shown = yaml.safe_load(block)
    assert list(shown) == list(_SCHEMA["config"])
    for section in ("data", "split", "alignment", "solver", "evaluation"):
        assert list(shown[section]) == list(_SCHEMA[section]), section
    assert set().union(*shown["attributes"]) == set(_SCHEMA["attributes[]"])
    assert set().union(*shown["alignment"]["mu_grid"]) == set(_SCHEMA["alignment.mu_grid[]"])
    grid_comments = re.findall(r"# (ease|mslim|itemknn): (.+)", block)
    grid_keys = {name: () if keys.startswith("none") else tuple(keys.split(", "))
                 for name, keys in grid_comments}
    assert grid_keys == _SCHEMA["solver.grid"]

    # the block loads as written once its relative data paths exist
    dataset, meta = synthetic.planted_dataset(n_users=40, n_items=60, n_topics=6, seed=1)
    synthetic.write_dataset_csvs(dataset, meta, tmp_path / "data")
    write_embeddings_text(str(tmp_path / "data" / "items.emb"), dataset.item_ids,
                          np.ones((60, 2)))
    path = tmp_path / "config.yaml"
    path.write_text(block, encoding="utf-8")
    mu = load_config(str(path))["alignment"]["mu_grid"]
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


@pytest.mark.parametrize("key, values, want", [
    ("scenarios", [], "a nonempty list"),
    ("scenarios", ["cold", "cold"], "a list without repeats"),
    ("scenarios", ["cold", "all", "cold"], "a list without repeats"),
    ("ks", [10, 10], "a list without repeats"),
    ("ks", [5, 10, 5], "a list without repeats"),
    ("metrics", ["hr", "ndcg", "hr"], "a list without repeats"),
])
def test_load_config_refuses_an_empty_or_repeated_evaluation_list(planted_config, key, values,
                                                                   want):
    path = _rewrite(planted_config(), lambda c: c.update(evaluation={key: values}))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"evaluation.{key} must be {want}, got {values!r}"


def test_run_with_empty_scenarios_exits_2_before_any_stage(planted_config):
    path = _rewrite(planted_config(), lambda c: c.update(evaluation={"scenarios": []}))
    assert main(["run", "--config", str(path)]) == 2
    assert not os.path.exists(os.path.join(os.path.dirname(path), "out"))


def test_workers_precedence_flag_config(planted_config, monkeypatch):
    cfg = load_config(planted_config(workers=5))
    monkeypatch.setenv("ALIGNREC_WORKERS", "3")  # no longer a source
    assert _Pipeline(cfg).workers == 5
    assert _Pipeline(cfg, workers=2).workers == 2


@pytest.mark.parametrize("workers", [0, -3])
def test_run_experiment_refuses_a_bad_worker_count_before_any_stage(planted_config, caplog,
                                                                    workers):
    path = planted_config()
    with pytest.raises(ConfigError, match=f"workers must be a positive integer, got {workers}"):
        run_experiment(path, workers=workers)
    assert "stage " not in caplog.text
    assert not os.path.exists(os.path.join(os.path.dirname(path), "out"))


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


class _Fit:
    """Stand-in for a fitted model: identity-comparable and weakly referenceable."""

    def __init__(self, index):
        self.index = index


def _scored(table):
    """evaluate_point returning table[x] as metrics and a fresh _Fit."""
    return lambda p: (table[p["x"]], _Fit(p["x"]))


def test_grid_search_picks_lexicographic_best():
    points = [{"x": 0}, {"x": 1}, {"x": 2}]
    metrics = {
        0: {"ndcg@10": 0.5, "hr@10": 0.9},
        1: {"ndcg@10": 0.7, "hr@10": 0.1},
        2: {"ndcg@10": 0.7, "hr@10": 0.2},
    }
    best, idx, trace, fitted = grid_search(points, _scored(metrics))
    assert idx == 2 and best == {"x": 2}
    assert fitted.index == 2
    assert [row["status"] for row in trace] == ["ok"] * 3
    # trace rows hold no fitted objects
    assert all(set(row) == {"index", "params", "wall_time_s", "status", "error", "metrics"}
               for row in trace)


def test_grid_search_exact_tie_keeps_earlier_point():
    points = [{"x": 0}, {"x": 1}]
    best, idx, _, fitted = grid_search(points, _scored([{"ndcg@10": 0.5, "hr@10": 0.5}] * 2))
    assert idx == 0 and fitted.index == 0


def test_grid_search_records_and_skips_failures():
    def evaluate(point):
        if point["x"] == 0:
            raise SolverError("synthetic failure")
        return {"ndcg@10": 0.4, "hr@10": 0.4}, _Fit(point["x"])

    best, idx, trace, fitted = grid_search([{"x": 0}, {"x": 1}], evaluate)
    assert idx == 1 and fitted.index == 1
    assert trace[0]["status"] == "failed"
    assert "synthetic failure" in trace[0]["error"]
    assert trace[1]["status"] == "ok"


def test_grid_search_never_returns_a_failed_point():
    # a failure after the running best leaves that best and its fit in place
    def evaluate(point):
        if point["x"] == 2:
            raise SolverError("synthetic failure")
        return {"ndcg@10": 0.1 * point["x"], "hr@10": 0.0}, _Fit(point["x"])

    _, idx, trace, fitted = grid_search([{"x": i} for i in range(3)], evaluate)
    assert idx == 1 and fitted.index == 1
    assert [row["status"] for row in trace] == ["ok", "ok", "failed"]


def test_grid_search_keeps_no_losing_fit_alive():
    ndcg = [0.5, 0.9, 0.1, 0.2]
    refs = []

    def evaluate(p):
        # while point x runs, only the best fit among points < x is alive
        earlier = range(p["x"])
        alive = [i for i, ref in enumerate(refs) if ref() is not None]
        assert alive == ([max(earlier, key=ndcg.__getitem__)] if earlier else [])
        fit = _Fit(p["x"])
        refs.append(weakref.ref(fit))
        return {"ndcg@10": ndcg[p["x"]], "hr@10": 0.0}, fit

    *_, fitted = grid_search([{"x": i} for i in range(4)], evaluate)
    assert refs[1]() is fitted


def test_grid_search_aggregates_total_failure():
    def evaluate(point):
        raise SolverError(f"bad point {point['x']}")

    with pytest.raises(SolverError, match="every grid point failed"):
        grid_search([{"x": 0}, {"x": 1}], evaluate)


def test_grid_search_rejects_empty_grid():
    with pytest.raises(ConfigError, match="empty"):
        grid_search([], lambda p: ({}, None))


def test_grid_search_worker_count_does_not_change_selection():
    points = [{"x": i} for i in range(6)]
    ndcg = [0.3, 0.9, 0.2, 0.9, 0.1, 0.5]

    def evaluate(p):
        if p["x"] == 1:
            time.sleep(0.05)  # the tied later point 3 finishes first under workers
        return {"ndcg@10": ndcg[p["x"]], "hr@10": 0.0}, _Fit(p["x"])

    a = grid_search(points, evaluate, workers=1)
    b = grid_search(points, evaluate, workers=3)
    assert a[1] == b[1] == 1
    assert a[0] == b[0] and a[3].index == b[3].index == 1
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


def test_run_records_the_raw_yaml_values(planted_config):
    # the typed configs coerce nothing: a YAML integer stays an integer in the artifacts
    outdir = run_experiment(planted_config(alignment={"alpha": 1},
                                           grid={"lambda1": [1], "alpha": [0, 2]}))
    with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
        assert '"alpha": 1,' in fh.read()
    with open(os.path.join(outdir, "grid_trace.csv"), encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][1:3] == ["alpha", "lambda1"]
    assert [row[1:3] for row in rows[1:]] == [["0", "1"], ["2", "1"]]


def test_cold_run_records_cold_coverage(planted_config):
    outdir = run_experiment(planted_config())
    with open(os.path.join(outdir, "model.bin.json"), encoding="utf-8") as fh:
        coverage = json.load(fh)["diagnostics"]["cold_coverage"]
    theta = load_model(os.path.join(outdir, "model.bin")).theta
    cold = load_split(os.path.join(outdir, "splits")).cold_cols
    assert coverage == np.count_nonzero(theta[:, cold].any(axis=0)) / len(cold)
    assert coverage > 0  # the alignment term reaches cold items


def test_cold_coverage_counts_only_finite_weights(planted_config, monkeypatch):
    fit = solvers.fit_ease
    nan_col = []

    def poisoned(X, cfg, **kwargs):
        # one cold item's column turns all NaN, which scores no item
        model = fit(X, cfg, **kwargs)
        nan_col[:] = [int(np.flatnonzero(np.asarray(X.sum(axis=0)).ravel() == 0)[0])]
        model.theta[:, nan_col[0]] = np.nan
        return model

    monkeypatch.setattr(solvers, "fit_ease", poisoned)
    outdir = run_verb("fit", planted_config())
    with open(os.path.join(outdir, "model.bin.json"), encoding="utf-8") as fh:
        coverage = json.load(fh)["diagnostics"]["cold_coverage"]
    cold = load_split(os.path.join(outdir, "splits")).cold_cols
    theta = load_model(os.path.join(outdir, "model.bin")).theta[:, cold]
    assert nan_col[0] in cold
    assert coverage == np.count_nonzero((np.isfinite(theta) & (theta != 0)).any(axis=0)) / len(cold)
    assert coverage < 1.0


def test_cold_mslim_run_records_its_column_routes(planted_config):
    # 150 users over 30 items: cold columns take the closed form, and the most
    # clicked items have r_i + 1 >= n, so they are solved directly
    outdir = run_experiment(planted_config(solver="mslim", n_items=30, clicks=(3, 8)))
    with open(os.path.join(outdir, "model.bin.json"), encoding="utf-8") as fh:
        routes = json.load(fh)["diagnostics"]["columns_by_route"]
    r = np.diff(load_split(os.path.join(outdir, "splits")).train.X.tocsc().indptr)
    n = len(r)
    assert routes == {"direct": int((r + 1 >= n).sum()), "rank_one": int((r == 0).sum()),
                      "woodbury": int(((r > 0) & (r + 1 < n)).sum())}
    assert min(routes.values()) > 0


def test_mslim_run_records_its_diagonal_residual(planted_config):
    # MSLIM penalizes theta's diagonal instead of zeroing it: the sidecar
    # records the largest |theta_ii| that the stored model keeps
    outdir = run_experiment(planted_config(solver="mslim", n_items=30, clicks=(3, 8)))
    with open(os.path.join(outdir, "model.bin.json"), encoding="utf-8") as fh:
        residual = json.load(fh)["diagnostics"]["diag_residual_max"]
    theta = load_model(os.path.join(outdir, "model.bin")).theta
    assert residual == float(np.abs(np.diag(theta)).max()) > 0


def test_cold_itemknn_run_stores_the_mixed_similarity(planted_config):
    path = planted_config(solver="itemknn", grid={})
    assert main(["run", "--config", path]) == 0
    cfg = load_config(path)
    outdir = cfg["output"]
    dataset = data.load_interactions(cfg["data"]["interactions"])
    blocks = features.build_feature_set(cfg["attributes"], dataset.item_index).blocks
    sims = [alignment.smoothed_cosine(b, cfg["_alignment"].delta) for b in blocks]
    G = alignment.mix_similarities(sims, cfg["alignment"]["mu_grid"][0])
    theta = load_model(os.path.join(outdir, "model.bin")).theta
    assert theta.dtype == G.dtype and theta.tobytes() == G.tobytes()
    with open(os.path.join(outdir, "model.bin.json"), encoding="utf-8") as fh:
        sidecar = json.load(fh)
    assert sidecar["solver"] == "itemknn"
    # alpha never enters the itemknn model, so only delta is recorded
    assert sidecar["config"] == {"delta": cfg["_alignment"].delta}
    for scenario in ("cold", "warm", "all"):
        assert os.path.exists(os.path.join(outdir, f"report_{scenario}.json"))


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


def _count_fits(monkeypatch, solver):
    """Wrap solvers.fit_<solver> on the module; returns the list of fitted models."""
    name = f"fit_{solver}"
    fit, fits = getattr(solvers, name), []

    def spy(*args, **kwargs):
        fits.append(fit(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(solvers, name, spy)
    return fits


@pytest.mark.parametrize("solver,grid", [
    ("ease", {"lambda1": [0.5, 2.0, 8.0]}),
    ("mslim", {"lambda1": [0.5, 2.0, 8.0], "w1": [0.5]}),
])
def test_cold_run_fits_each_grid_point_once(planted_config, monkeypatch, solver, grid):
    config = planted_config(solver=solver, grid=grid)
    fits = _count_fits(monkeypatch, solver)
    outdir = run_experiment(config)
    assert len(fits) == 3
    # model.bin holds, bit for bit, a direct fit of the selected point
    with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
        selected = json.load(fh)["selected"]
    pipe = _Pipeline(load_config(config))
    for stage in ("load", "split", "featurize", "fit-mix"):
        pipe._stage(stage)
    direct = pipe._fit_point(pipe.split_.train.X, pipe.d, selected)
    assert np.array_equal(load_model(os.path.join(outdir, "model.bin")).theta, direct.theta)


def test_warm_run_refits_the_winner_once(planted_config, monkeypatch):
    config = planted_config(protocol="warm", negatives=20, grid={"lambda1": [0.5, 2.0, 8.0]})
    fits = _count_fits(monkeypatch, "ease")
    run_experiment(config)
    assert len(fits) == 3 + 1


def test_nested_warm_negatives_never_hold_the_outer_heldout_item(planted_config):
    pipe = _Pipeline(load_config(planted_config(protocol="warm", negatives=20)))
    for stage in ("load", "split", "featurize", "fit-mix"):
        pipe._stage(stage)
    outer, nested = pipe.split_, pipe.val
    row = {u: r for r, u in enumerate(outer.train.user_ids)}
    heldout = outer.heldout[[row[u] for u in nested.train.user_ids]]
    assert len(heldout) > 100
    assert not (nested.negatives == heldout[:, None]).any()


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
    split_dir = run_verb("split", path)
    assert sorted(os.listdir(split_dir)) == [
        "manifest.json", "test.csv", "train.csv", "val.csv"]
    out = os.path.dirname(split_dir)
    assert "model.bin" not in os.listdir(out)


def test_run_featurize_persists_blocks(planted_config):
    path = planted_config()
    feat_dir = run_verb("featurize", path)
    files = sorted(os.listdir(feat_dir))
    assert "topic.json" in files
    assert any(f.startswith("topic.") and f.endswith(".npy") for f in files)


def test_run_fit_then_evaluate(planted_config):
    path = planted_config(grid={"lambda1": [0.5]})
    outdir = run_verb("fit", path)
    files = os.listdir(outdir)
    assert "model.bin" in files and "INCOMPLETE" not in files
    assert not any(f.startswith("report_") for f in files)
    run_verb("evaluate", path)
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
        run_verb("fit", str(path))
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


def _run_facts(outdir):
    with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(os.path.join(outdir, "model.bin.json"), encoding="utf-8") as fh:
        return manifest, json.load(fh)["diagnostics"]


def test_cold_run_records_its_route_and_branch_facts(planted_config):
    # a cold mslim grid whose lambda1 = 0 point fails: the cold items' empty
    # columns leave its K singular
    outdir = run_experiment(planted_config(solver="mslim",
                                           grid={"lambda1": [0.0, 0.5], "w1": [0.5]}))
    manifest, facts = _run_facts(outdir)
    assert manifest["grid_failed"] == 1 and manifest["grid_size"] == 2
    # a fifth of the items have no training click, so the 10th percentile is 0
    assert manifest["popularity_fallback"] is True
    assert facts["route"] == "block" and facts["factorization"] == "cholesky"
    split = load_split(os.path.join(outdir, "splits"))
    theta = load_model(os.path.join(outdir, "model.bin")).theta
    cold, warm = split.cold_cols, np.setdiff1d(np.arange(split.train.n_items), split.cold_cols)
    pipe = _Pipeline(load_config(planted_config(solver="mslim", name="again")))
    for stage in ("load", "split", "featurize", "fit-mix"):
        pipe._stage(stage)
    G = pipe.G
    assert facts["cold_columns_solved"] == len({G[warm, c].tobytes() for c in cold})
    assert len({theta[:, c].tobytes() for c in cold}) <= facts["cold_columns_solved"]


def test_cold_run_logs_the_decay_rule_once(planted_config, caplog):
    # a fifth of the items have no training click, so the 10th percentile is 0
    with caplog.at_level(logging.INFO, logger="alignrec"):
        manifest, _ = _run_facts(run_experiment(planted_config()))
    rules = [r for r in caplog.records if "unclicked" in r.getMessage()]
    assert [r.levelno for r in rules] == [logging.INFO]
    assert manifest["popularity_fallback"] is True


def test_warm_run_records_the_general_route_and_no_fallback(planted_config):
    manifest, facts = _run_facts(run_experiment(planted_config(protocol="warm", negatives=20)))
    assert manifest["grid_failed"] == 0
    assert manifest["popularity_fallback"] is False
    assert facts["route"] == "general" and facts["factorization"] == "cholesky+lu"
    assert facts["cold_columns_solved"] == 0


def test_run_records_missing_embeddings_per_attribute(planted_config):
    path = planted_config()
    cfg = yaml.safe_load(open(path, encoding="utf-8"))
    items = data.load_interactions(cfg["data"]["interactions"]).item_ids
    emb = os.path.join(os.path.dirname(path), "items.emb")
    # every item but the first has a vector
    write_embeddings_text(emb, items[1:], np.ones((len(items) - 1, 2)))
    _rewrite(path, lambda c: c["attributes"].append(
        {"name": "vec", "kind": "embedding_file", "path": emb}))
    manifest, _ = _run_facts(run_experiment(path))
    assert manifest["missing_embeddings"] == {"vec": 1}


def test_runs_record_the_smallest_rcond_of_their_shared_inverse(planted_config):
    # a warm EASE run: its core by Cholesky, the decay columns by LU
    _, facts = _run_facts(run_experiment(planted_config(protocol="warm", negatives=20,
                                                        name="warm")))
    assert facts["factorization"] == "cholesky+lu"
    assert isinstance(facts["rcond_min"], float)
    assert linalg.RCOND_FLOOR <= facts["rcond_min"] <= 1.0
    # a cold MSLIM run: dpocon's rcond of K_WW = w1 X_W^T X_W + lambda1 I, to
    # the 3 significant digits recorded
    outdir = run_experiment(planted_config(solver="mslim", name="cold"))
    manifest, facts = _run_facts(outdir)
    assert facts["factorization"] == "cholesky"
    X = load_split(os.path.join(outdir, "splits")).train.X
    X_warm = X[:, np.flatnonzero(X.getnnz(axis=0))]
    point = manifest["selected"]
    k = point["w1"] * (X_warm.T @ X_warm).toarray() + point["lambda1"] * np.eye(X_warm.shape[1])
    c, info = lapack.dpotrf(k)
    assert info == 0
    rcond = lapack.dpocon(c, np.abs(k).sum(axis=0).max())[0]
    assert facts["rcond_min"] == float(f"{rcond:.3g}")
