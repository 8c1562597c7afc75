"""Config-driven experiment pipeline.

One YAML config fully determines a run: load -> split -> featurize ->
pick mix coefficients on validation -> grid-search solver hyperparameters
on validation -> refit the winner -> evaluate test scenarios -> write
reports, model artifact, and a run manifest. Reruns with the same config
and seed are byte-identical except for recorded wall times (the grid
trace and the model sidecar carry timings by design).
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import yaml

from . import alignment, data, evaluation, features, solvers
from .errors import ConfigError, SingularMatrixError, SolverError, StageError

log = logging.getLogger(__name__)

WORKERS_ENV = "ALIGNREC_WORKERS"

_SOLVERS = ("ease", "mslim", "itemknn")
_GRID_KEYS = {
    "ease": ("lambda0", "lambda1", "alpha"),
    "mslim": ("w1", "lambda1", "gamma1", "alpha"),
    "itemknn": ("alpha",),
}
_SELECT_K = 10


def _require(cfg, key, where):
    if key not in cfg:
        raise ConfigError(f"missing required key {where}.{key}" if where else
                          f"missing required key {key}")
    return cfg[key]


def load_config(path):
    """Parse and validate a YAML experiment config.

    Relative paths inside the file resolve against the file's directory.
    Raises ConfigError before any compute when something is off.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = yaml.safe_load(fh)
        except yaml.YAMLError as e:
            raise ConfigError(f"{path}: not valid YAML: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    if "seed" not in cfg:
        raise ConfigError(f"{path}: a seed is required")
    cfg["seed"] = int(cfg["seed"])

    dat = _require(cfg, "data", "")
    dat["interactions"] = resolve(_require(dat, "interactions", "data"))
    if not os.path.exists(dat["interactions"]):
        raise ConfigError(f"interactions file not found: {dat['interactions']}")
    dat.setdefault("format", "csv")
    dat.setdefault("binarize_threshold", 0.5)

    spl = cfg.setdefault("split", {})
    protocol = spl.setdefault("protocol", "cold")
    if protocol not in ("cold", "warm"):
        raise ConfigError(f"split.protocol must be cold or warm, got {protocol!r}")
    spl.setdefault("cold_fraction", 0.20)
    spl.setdefault("fractions", [0.80, 0.10, 0.10])
    spl.setdefault("min_user_clicks", 20)
    spl.setdefault("negatives", 100)

    specs = []
    for i, a in enumerate(cfg.get("attributes", [])):
        for key in ("name", "kind"):
            if key not in a:
                raise ConfigError(f"attributes[{i}] is missing {key!r}")
        spec = features.AttributeSpec(
            name=a["name"], kind=a["kind"],
            path=resolve(_require(a, "path", f"attributes[{i}]")),
            vocab_size=int(a.get("vocab_size", 1000)),
        )
        if not os.path.exists(spec.path):
            raise ConfigError(f"attribute {spec.name!r}: file not found: {spec.path}")
        specs.append(spec)
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate attribute names: {names}")
    cfg["attributes"] = specs

    ali = cfg.setdefault("alignment", {})
    ali.setdefault("delta", 0.0)
    ali.setdefault("alpha", 1.0)
    ali.setdefault("beta", 0.0)
    ali.setdefault("percentile", 10.0)
    ali.setdefault("decay", "step_linear")
    n_attr = len(specs)
    mu_grid = []
    for i, point in enumerate(ali.get("mu_grid", [])):
        try:
            mu_grid.append(alignment.MixCoefficients.from_dict(point))
        except (KeyError, ValueError) as e:
            raise ConfigError(f"alignment.mu_grid[{i}]: {e}") from e
        if mu_grid[-1].n_attributes != n_attr:
            raise ConfigError(
                f"alignment.mu_grid[{i}] has {mu_grid[-1].n_attributes} "
                f"first-order coefficients for {n_attr} attributes"
            )
    if not mu_grid:
        if n_attr == 0:
            raise ConfigError("at least one attribute is required")
        mu_grid = [alignment.default_mix(n_attr)]
    ali["mu_grid"] = mu_grid

    sol = cfg.setdefault("solver", {})
    name = sol.setdefault("name", "ease")
    if name not in _SOLVERS:
        raise ConfigError(f"solver.name must be one of {_SOLVERS}, got {name!r}")
    grid = sol.setdefault("grid", {})
    if not isinstance(grid, dict):
        raise ConfigError("solver.grid must map parameter names to value lists")
    for key, values in grid.items():
        if key not in _GRID_KEYS[name]:
            raise ConfigError(
                f"solver.grid key {key!r} not valid for {name} "
                f"(valid: {_GRID_KEYS[name]})"
            )
        if not isinstance(values, list) or not values:
            raise ConfigError(f"solver.grid.{key} must be a nonempty list")

    ev = cfg.setdefault("evaluation", {})
    ev.setdefault("metrics", ["hr", "ndcg"])
    ev.setdefault("ks", [10])
    default_scenarios = ["cold", "warm", "all"] if protocol == "cold" else ["leave_one_out"]
    ev.setdefault("scenarios", default_scenarios)
    for s in ev["scenarios"]:
        if s not in evaluation.SCENARIOS:
            raise ConfigError(f"unknown scenario {s!r}")
        if (s == "leave_one_out") != (protocol == "warm"):
            raise ConfigError(f"scenario {s!r} does not match protocol {protocol!r}")
    ev.setdefault("resamples", 500)
    ev.setdefault("fraction", 0.20)

    cfg.setdefault("workers", 1)
    cfg.setdefault("output", None)
    cfg["_path"] = path
    return cfg


def build_grid(solver_cfg):
    """Cross-product of the declared value lists, in declaration order."""
    grid = solver_cfg.get("grid", {})
    if not grid:
        return [{}]
    keys = list(grid.keys())
    return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]


def grid_search(points, evaluate_point, workers=1):
    """Evaluate every grid point and pick the best on validation.

    evaluate_point(point) must return {"ndcg@10": ..., "hr@10": ...}.
    Selection maximizes (ndcg@10, hr@10) lexicographically; exact ties go
    to the earlier point. Points that raise a numerical error are recorded
    as failed and skipped; if everything fails, the errors are aggregated.
    """
    points = list(points)
    if not points:
        raise ConfigError("empty hyperparameter grid")

    def run_one(idx):
        t0 = time.perf_counter()
        row = {"index": idx, "params": points[idx], "wall_time_s": None,
               "status": "ok", "error": "", "metrics": {}}
        try:
            row["metrics"] = evaluate_point(points[idx])
        except (SolverError, SingularMatrixError, np.linalg.LinAlgError) as e:
            row["status"] = "failed"
            row["error"] = str(e)
        row["wall_time_s"] = time.perf_counter() - t0
        return row

    if workers <= 1:
        trace = [run_one(i) for i in range(len(points))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            trace = list(pool.map(run_one, range(len(points))))

    best = None
    for row in trace:
        if row["status"] != "ok":
            continue
        key = (row["metrics"]["ndcg@10"], row["metrics"]["hr@10"])
        if best is None or key > best[0]:
            best = (key, row["index"])
    if best is None:
        details = "; ".join(f"point {r['index']} {r['params']}: {r['error']}" for r in trace)
        raise SolverError(f"every grid point failed: {details}")
    return points[best[1]], best[1], trace


def write_trace_csv(trace, path):
    param_keys = []
    for row in trace:
        for k in row["params"]:
            if k not in param_keys:
                param_keys.append(k)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["index"] + param_keys + ["ndcg@10", "hr@10", "wall_time_s", "status", "error"])
        for row in trace:
            m = row["metrics"]
            w.writerow(
                [row["index"]]
                + [repr(row["params"].get(k, "")) for k in param_keys]
                + [repr(m.get("ndcg@10", "")), repr(m.get("hr@10", "")),
                   f"{row['wall_time_s']:.6f}", row["status"], row["error"]]
            )


# verb -> its stages in order; stage "grid-search" runs _Pipeline.grid_search
_FIT_STAGES = ("load", "split", "persist-split", "featurize", "fit-mix",
               "grid-search", "persist-trace", "refit", "persist-model")
VERB_STAGES = {
    "split": ("load", "split", "persist-split"),
    "featurize": ("load", "featurize", "persist-features"),
    "fit": _FIT_STAGES + ("persist-manifest",),
    "evaluate": ("load-split", "load-model", "evaluate", "persist-reports"),
    "run": _FIT_STAGES + ("evaluate", "persist-reports", "persist-manifest"),
}
_REFIT_VERBS = ("fit", "run")


class _Pipeline:
    """Shared state for one experiment run; one method per stage."""

    def __init__(self, cfg, seed=None, workers=None, output=None):
        self.cfg = cfg
        self.seed = cfg["seed"] if seed is None else int(seed)
        if workers is None:
            workers = os.environ.get(WORKERS_ENV, cfg.get("workers") or 1)
        self.workers = int(workers)
        out = output or cfg.get("output")
        if not out:
            raise ConfigError("an output directory is required (--output or config output)")
        self.output = out
        self.split_dir = os.path.join(out, "splits")
        self.feature_dir = os.path.join(out, "features")
        self.model_path = os.path.join(out, "model.bin")
        self.report_paths = {}
        self.protocol = cfg["split"]["protocol"]

    def _stage(self, name):
        """Run one stage, log its wall time, and tag any failure with it."""
        t0 = time.perf_counter()
        try:
            getattr(self, name.replace("-", "_"))()
        except Exception as e:
            raise StageError(name, self.cfg["_path"], e) from e
        log.info("stage %s: %.3f s", name, time.perf_counter() - t0)

    # stages -------------------------------------------------------------
    def load(self):
        dat = self.cfg["data"]
        self.dataset = data.load_interactions(
            dat["interactions"], format=dat["format"],
            binarize_threshold=dat["binarize_threshold"],
        )

    def split(self):
        spl = self.cfg["split"]
        if self.protocol == "cold":
            self.split_ = data.make_cold_split(
                self.dataset, cold_fraction=spl["cold_fraction"],
                warm_fractions=tuple(spl["fractions"]), seed=self.seed,
            )
        else:
            self.split_ = data.make_warm_split(
                self.dataset, min_user_clicks=spl["min_user_clicks"],
                negatives=spl["negatives"], seed=self.seed,
            )

    def persist_split(self):
        save = data.save_cold_split if self.protocol == "cold" else data.save_warm_split
        save(self.split_, self.split_dir)

    def featurize(self):
        self.features = features.build_feature_set(self.cfg["attributes"],
                                                   self.dataset.item_index)
        delta = self.cfg["alignment"]["delta"]
        self.sims = [alignment.smoothed_cosine(b, delta) for b in self.features.blocks]

    def persist_features(self):
        os.makedirs(self.feature_dir, exist_ok=True)
        for block in self.features.blocks:
            features.save_block(block, os.path.join(self.feature_dir, block.attribute))

    def fit_mix(self):
        """Fix the validation target, then pick the mix coefficients on it.

        The target is the cold split itself, or under the warm protocol a
        nested leave-one-out split of the training users (seed + 1). Every
        grid point shares the decay vectors built here.
        """
        spl, train = self.cfg["split"], self.split_.train
        acfg = self._align_cfg(self.cfg["alignment"]["alpha"])
        self.d = alignment.popularity_regularizer(train.X, acfg)
        if self.protocol == "cold":
            self.val, self.val_d = self.split_, self.d
        else:
            self.val = data.make_warm_split(
                train, min_user_clicks=max(1, spl["min_user_clicks"] - 1),
                negatives=spl["negatives"], seed=self.seed + 1,
            )
            self.val_d = alignment.popularity_regularizer(self.val.train.X, acfg)
        grid = self.cfg["alignment"]["mu_grid"]
        self.mu = alignment.fit_mix_coefficients(
            self.sims, self.val.train.X, self.val, grid, k=_SELECT_K)
        self.G = alignment.mix_similarities(self.sims, self.mu)

    def grid_search(self):
        # the module-level grid_search, not this method
        self.best_point, self.best_index, self.trace = grid_search(
            build_grid(self.cfg["solver"]), self._validation_metrics,
            workers=self.workers,
        )

    def persist_trace(self):
        write_trace_csv(self.trace, os.path.join(self.output, "grid_trace.csv"))

    def refit(self):
        self.model = self._fit_point(self.split_.train.X, self.d, self.best_point)
        self.model.item_ids = self.dataset.item_ids

    def persist_model(self):
        solvers.save_model(self.model, self.model_path)

    def load_split(self):
        self.split_ = data.load_split(self.split_dir)

    def load_model(self):
        self.model = solvers.load_model(self.model_path)

    def evaluate(self):
        ev = self.cfg["evaluation"]
        scores = solvers.predict(self.model, self.split_.train.X)
        self.reports = {
            scenario: evaluation.evaluate_scenario(
                scores, self.split_, scenario, ks=tuple(ev["ks"]),
                metrics=tuple(ev["metrics"]), use="test", with_ci=True,
                resamples=ev["resamples"], fraction=ev["fraction"], seed=self.seed,
            )
            for scenario in ev["scenarios"]
        }

    def persist_reports(self):
        for scenario, rep in self.reports.items():
            stem = os.path.join(self.output, f"report_{scenario}")
            for ext, text in ((".json", rep.to_json()), (".txt", rep.to_text())):
                with open(stem + ext, "w", encoding="utf-8") as fh:
                    fh.write(text)
            self.report_paths[scenario] = stem + ".json"

    def persist_manifest(self):
        data.write_json(os.path.join(self.output, "manifest.json"), {
            "config": os.path.abspath(self.cfg["_path"]),
            "protocol": self.protocol,
            "seed": self.seed,
            "solver": self.cfg["solver"]["name"],
            "mix": self.mu.to_dict(),
            "alignment": {k: self.cfg["alignment"][k]
                          for k in ("delta", "alpha", "beta", "percentile", "decay")},
            "selected": self.best_point,
            "selected_index": self.best_index,
            "grid_size": len(self.trace),
            "files": {
                "model": "model.bin",
                "trace": "grid_trace.csv",
                "splits": "splits",
                "reports": {s: os.path.basename(p) for s, p in self.report_paths.items()},
            },
        })

    # solver fitting -----------------------------------------------------
    def _align_cfg(self, alpha):
        a = self.cfg["alignment"]
        return alignment.AlignmentConfig(
            delta=a["delta"], alpha=alpha, beta=a["beta"],
            percentile=a["percentile"], decay=a["decay"],
        )

    def _fit_point(self, X, d, point):
        name = self.cfg["solver"]["name"]
        alpha = point.get("alpha", self.cfg["alignment"]["alpha"])
        acfg = self._align_cfg(alpha)
        if name == "itemknn":
            return solvers.ItemModel(
                theta=self.G, solver="itemknn",
                config={"alpha": alpha, "delta": acfg.delta},
                diagnostics={"n_items": int(X.shape[1]), "n_users": int(X.shape[0])},
            )
        B = alignment.align(X, self.G, acfg, d=d)
        if name == "ease":
            cfg = solvers.EaseConfig(
                lambda0=point.get("lambda0", 0.0),
                lambda1=point.get("lambda1", 1.0),
            )
            return solvers.fit_ease(X, cfg, F=self.features, B=B)
        cfg = solvers.MslimConfig(
            w1=point.get("w1", 0.5),
            lambda1=point.get("lambda1", 0.0),
            gamma1=point.get("gamma1", 0.0),
        )
        return solvers.fit_mslim(X, cfg, B=B, workers=1)

    def _validation_metrics(self, point):
        X = self.val.train.X
        scores = solvers.predict(self._fit_point(X, self.val_d, point), X)
        scenario, use = evaluation.validation_scenario(self.val)
        rep = evaluation.evaluate_scenario(
            scores, self.val, scenario, ks=(_SELECT_K,), use=use, with_ci=False)
        return {f"{m}@{_SELECT_K}": rep.metric(m, _SELECT_K).mean for m in ("ndcg", "hr")}


def _run(verb, config_path, seed=None, workers=None, output=None):
    """Run the stages of ``verb`` in order; returns the pipeline.

    The verbs that refit hold an INCOMPLETE marker in the output directory
    from before their first stage until after their last, so a failed run
    leaves it behind.
    """
    pipe = _Pipeline(load_config(config_path), seed=seed, workers=workers, output=output)
    marker = os.path.join(pipe.output, "INCOMPLETE")
    if verb in _REFIT_VERBS:
        os.makedirs(pipe.output, exist_ok=True)
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("run in progress or failed; outputs may be partial\n")
    for name in VERB_STAGES[verb]:
        pipe._stage(name)
    if verb in _REFIT_VERBS:
        os.remove(marker)
    return pipe


def run_split(config_path, seed=None, output=None):
    """`split` verb: build and persist the split only; returns its directory."""
    return _run("split", config_path, seed=seed, output=output).split_dir


def run_featurize(config_path, output=None):
    """`featurize` verb: encode every attribute and persist the blocks."""
    return _run("featurize", config_path, output=output).feature_dir


def run_fit(config_path, seed=None, workers=None, output=None):
    """`fit` verb: split, featurize, tune, refit; no test evaluation."""
    return _run("fit", config_path, seed=seed, workers=workers, output=output).output


def run_evaluate(config_path, output=None):
    """`evaluate` verb: score a persisted model on the persisted split.

    Returns the report JSON path of each scenario.
    """
    return _run("evaluate", config_path, output=output).report_paths


def run_experiment(config_path, seed=None, workers=None, output=None):
    """End-to-end run; returns the output directory path.

    Writes splits/, model.bin(+.json), grid_trace.csv, report_*.json/.txt,
    and manifest.json. An INCOMPLETE marker exists while the run is in
    flight or after a failure.
    """
    return _run("run", config_path, seed=seed, workers=workers, output=output).output


def compare_reports(paths):
    """Human lift table across report JSON files.

    With exactly two reports the last row shows the percent change of the
    second over the first, per metric column.
    """
    rows = []
    for p in paths:
        with open(p, "r", encoding="utf-8") as fh:
            rows.append((p, json.load(fh)))
    if not rows:
        raise ValueError("no reports given")
    columns = [(m["name"], m["k"]) for m in rows[0][1]["metrics"]]
    width = max(len(p) for p, _ in rows + [("lift", None)]) + 2
    head = "report".ljust(width) + "".join(f"{n}@{k}".rjust(12) for n, k in columns)
    lines = [head, "-" * len(head)]

    def cell(rep, name, k):
        for m in rep["metrics"]:
            if m["name"] == name and m["k"] == k:
                return m["mean"]
        return None

    for p, rep in rows:
        vals = [cell(rep, n, k) for n, k in columns]
        lines.append(p.ljust(width) + "".join(
            f"{v:12.4f}" if v is not None else f"{'-':>12}" for v in vals
        ))
    if len(rows) == 2:
        cells = []
        for n, k in columns:
            a, b = cell(rows[0][1], n, k), cell(rows[1][1], n, k)
            if a in (None, 0) or b is None:
                cells.append(f"{'n/a':>12}")
            else:
                cells.append(f"{100.0 * (b - a) / a:+11.1f}%")
        lines.append("lift".ljust(width) + "".join(cells))
    return "\n".join(lines) + "\n"
