"""Config-driven experiment pipeline.

One YAML config fully determines a run: load -> split -> featurize ->
pick mix coefficients on validation -> fit and score each solver grid
point once on validation -> refit the winner (cold: adopt its model;
warm: fit it on the outer training matrix) -> evaluate test scenarios ->
write reports, model artifact, and a run manifest. Reruns with the same
config and seed are byte-identical except for recorded wall times (the
grid trace and the model sidecar carry timings by design).
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import itertools
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import yaml

from . import alignment, data, evaluation, features, solvers
from .errors import ConfigError, FormatError, SingularMatrixError, SolverError, StageError

log = logging.getLogger(__name__)

_REQUIRED = object()  # the config must give the key
_OPTIONAL = object()  # the key has no default; when absent it stays absent

# section -> {key: default}; the one statement of the keys a config may hold
_SCHEMA = {
    "config": {"seed": _REQUIRED, "data": _REQUIRED, "split": {}, "attributes": [],
               "alignment": {}, "solver": {}, "evaluation": {}, "workers": 1, "output": None},
    "data": {"interactions": _REQUIRED, "format": "csv", "binarize_threshold": 0.5},
    "split": {"protocol": "cold", "cold_fraction": 0.20, "fractions": [0.80, 0.10, 0.10],
              "min_user_clicks": 20, "negatives": 100},
    "attributes[]": {"name": _REQUIRED, "kind": _REQUIRED, "path": _REQUIRED,
                     "vocab_size": features.AttributeSpec.vocab_size},
    "alignment": {**{f.name: f.default for f in dataclasses.fields(alignment.AlignmentConfig)},
                  "mu_grid": []},
    "alignment.mu_grid[]": {"first_order": _REQUIRED, "second_order": _OPTIONAL},
    "solver": {"name": "ease", "grid": {}},
    # solver name -> the keys its grid may sweep; a key left out is not swept
    "solver.grid": {"ease": ("lambda0", "lambda1", "alpha"),
                    "mslim": ("w1", "lambda1", "gamma1", "alpha"), "itemknn": ()},
    # scenarios: the protocol's own, filled in by load_config
    "evaluation": {"metrics": list(evaluation.METRICS), "ks": [10], "scenarios": _OPTIONAL,
                   "resamples": 500, "fraction": 0.20},
}


def _section(raw, where, schema):
    """``raw`` with ``schema``'s defaults filled in.

    Raises ConfigError when ``raw`` is not a mapping, holds a key that
    ``schema`` lacks, or lacks a required key.
    """
    _check(isinstance(raw, dict), where, raw, "a mapping")
    for key in raw:
        if key not in schema:
            raise ConfigError(f"key {key!r} not valid for {where} "
                              f"(valid: {', '.join(schema) or 'none'})")
    for key, default in schema.items():
        if key not in raw and default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r} in {where}")
    return {**{k: copy.deepcopy(d) for k, d in schema.items()
               if d is not _REQUIRED and d is not _OPTIONAL}, **raw}


def _check(ok, where, value, want):
    if not ok:
        raise ConfigError(f"{where} must be {want}, got {value!r}")


def _positive_int(value):
    return type(value) is int and value >= 1


def _distinct(values):
    return all(v not in values[:i] for i, v in enumerate(values))


def _point_configs(acfg, solver, point):
    """The AlignmentConfig and solver config of one grid point (None for itemknn)."""
    acfg = dataclasses.replace(acfg, alpha=point.get("alpha", acfg.alpha))
    if solver == "itemknn":
        return acfg, None
    make = solvers.EaseConfig if solver == "ease" else solvers.MslimConfig
    return acfg, make(**{k: v for k, v in point.items() if k != "alpha"})


def load_config(path):
    """Parse a YAML experiment config and check all of it.

    Every section must be a mapping of the keys in ``_SCHEMA``; absent keys
    take their defaults. The values are checked by building, once, the
    typed objects the stages use: the AlignmentConfig (kept under
    ``"_alignment"``), the AttributeSpecs, the MixCoefficients and each
    grid point's solver config. Relative paths inside the file resolve
    against the file's directory. Raises ConfigError before any stage runs;
    only the checks that need the dataset wait for the split stage. Whether
    the data files exist is left to the verb (``_require_inputs``), since
    not every verb reads them.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except (yaml.YAMLError, UnicodeDecodeError) as e:
            raise ConfigError(f"{path}: not valid YAML: {e}") from e
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p, where):
        _check(isinstance(p, str) and p, where, p, "a path")
        return p if os.path.isabs(p) else os.path.join(base, p)

    cfg = _section(raw, "config", _SCHEMA["config"])
    for key in ("data", "split", "alignment", "solver", "evaluation"):
        cfg[key] = _section(cfg[key], key, _SCHEMA[key])
    dat, spl, ali, sol, ev = (cfg[key] for key in ("data", "split", "alignment", "solver",
                                                     "evaluation"))
    _check(type(cfg["seed"]) is int, "seed", cfg["seed"], "an integer")
    _check(_positive_int(cfg["workers"]), "workers", cfg["workers"], "a positive integer")
    if cfg["output"] is not None:
        cfg["output"] = resolve(cfg["output"], "output")

    dat["interactions"] = resolve(dat["interactions"], "data.interactions")
    _check(dat["format"] in data._DELIMITERS, "data.format", dat["format"], "csv or tsv")
    _check(type(dat["binarize_threshold"]) in (int, float), "data.binarize_threshold",
           dat["binarize_threshold"], "a number")
    protocol = spl["protocol"]
    _check(protocol in ("cold", "warm"), "split.protocol", protocol, "cold or warm")
    _check(type(spl["cold_fraction"]) in (int, float) and 0 < spl["cold_fraction"] < 1,
           "split.cold_fraction", spl["cold_fraction"], "in (0, 1)")
    _check(isinstance(spl["fractions"], list) and len(spl["fractions"]) == 3
           and all(type(f) in (int, float) and f >= 0 for f in spl["fractions"])
           and abs(sum(spl["fractions"]) - 1.0) <= 1e-9,
           "split.fractions", spl["fractions"], "three non-negative numbers that sum to 1")
    for key in ("min_user_clicks", "negatives"):
        _check(_positive_int(spl[key]), f"split.{key}", spl[key], "a positive integer")

    _check(isinstance(cfg["attributes"], list), "attributes", cfg["attributes"], "a list")
    specs = []
    for i, a in enumerate(cfg["attributes"]):
        where = f"attributes[{i}]"
        a = _section(a, where, _SCHEMA["attributes[]"])
        _check(isinstance(a["name"], str), where + ".name", a["name"], "a string")
        _check(_positive_int(a["vocab_size"]), where + ".vocab_size", a["vocab_size"],
               "a positive integer")
        try:
            specs.append(features.AttributeSpec(**dict(a, path=resolve(a["path"], where))))
        except ValueError as e:
            raise ConfigError(f"{where}: {e}") from e
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate attribute names: {names}")
    cfg["attributes"] = specs

    try:
        acfg = alignment.AlignmentConfig(**{k: v for k, v in ali.items() if k != "mu_grid"})
    except (TypeError, ValueError) as e:
        raise ConfigError(f"alignment: {e}") from e
    cfg["_alignment"] = acfg
    _check(isinstance(ali["mu_grid"], list), "alignment.mu_grid", ali["mu_grid"], "a list")
    mu_grid = []
    for i, point in enumerate(ali["mu_grid"]):
        where = f"alignment.mu_grid[{i}]"
        try:
            mu_grid.append(alignment.MixCoefficients.from_dict(
                _section(point, where, _SCHEMA["alignment.mu_grid[]"])))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{where}: {e}") from e
        if mu_grid[-1].n_attributes != len(specs):
            raise ConfigError(f"{where} has {mu_grid[-1].n_attributes} "
                              f"first-order coefficients for {len(specs)} attributes")
    if not mu_grid:
        if not specs:
            raise ConfigError("at least one attribute is required")
        mu_grid = [alignment.default_mix(len(specs))]
    ali["mu_grid"] = mu_grid

    name, grid_keys = sol["name"], _SCHEMA["solver.grid"]
    _check(name in grid_keys, "solver.name", name, f"one of {tuple(grid_keys)}")
    grid = _section(sol["grid"], f"{name} grid", dict.fromkeys(grid_keys[name], _OPTIONAL))
    for key, values in grid.items():
        _check(isinstance(values, list) and values, f"solver.grid.{key}", values,
               "a nonempty list")
    for point in build_grid(sol):
        try:
            _point_configs(acfg, name, point)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"solver.grid point {point}: {e}") from e

    _check(isinstance(ev["metrics"], list) and ev["metrics"]
           and all(m in evaluation.METRICS for m in ev["metrics"]), "evaluation.metrics",
           ev["metrics"], f"a nonempty list drawn from {evaluation.METRICS}")
    _check(isinstance(ev["ks"], list) and ev["ks"] and all(map(_positive_int, ev["ks"])),
           "evaluation.ks", ev["ks"], "a nonempty list of positive integers")
    ev.setdefault("scenarios",
                  ["cold", "warm", "all"] if protocol == "cold" else ["leave_one_out"])
    _check(isinstance(ev["scenarios"], list) and ev["scenarios"], "evaluation.scenarios",
           ev["scenarios"], "a nonempty list")
    for s in ev["scenarios"]:
        if s not in evaluation.SCENARIOS:
            raise ConfigError(f"unknown scenario {s!r}")
        if (s == "leave_one_out") != (protocol == "warm"):
            raise ConfigError(f"scenario {s!r} does not match protocol {protocol!r}")
    # a repeated entry would rank a scenario twice or list a metric twice in every report
    for key in ("metrics", "ks", "scenarios"):
        _check(_distinct(ev[key]), f"evaluation.{key}", ev[key], "a list without repeats")
    _check(_positive_int(ev["resamples"]), "evaluation.resamples", ev["resamples"],
           "a positive integer")
    _check(type(ev["fraction"]) in (int, float) and 0 < ev["fraction"] <= 1,
           "evaluation.fraction", ev["fraction"], "in (0, 1]")
    cfg["_path"] = path
    return cfg


def build_grid(solver_cfg):
    """Cross-product of the declared value lists, in declaration order."""
    grid = solver_cfg.get("grid", {})
    keys = list(grid)
    return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]


def grid_search(points, evaluate_point, workers=1):
    """Fit and score every grid point; returns (point, index, trace, fitted).

    evaluate_point(point) must return (metrics, fitted), metrics holding
    every evaluation.SELECTION metric. Selection maximizes those metrics in
    order, then the earlier index, in any finish order; only the running
    best's fitted is kept. Points that raise a numerical error are recorded
    as failed and skipped; if everything fails, the errors are aggregated.
    """
    points = list(points)
    if not points:
        raise ConfigError("empty hyperparameter grid")
    best = {}
    lock = threading.Lock()

    def run_one(idx):
        t0 = time.perf_counter()
        row = {"index": idx, "params": points[idx], "wall_time_s": None,
               "status": "ok", "error": "", "metrics": {}}
        try:
            row["metrics"], fitted = evaluate_point(points[idx])
        except (SolverError, SingularMatrixError, np.linalg.LinAlgError) as e:
            row["status"] = "failed"
            row["error"] = str(e)
        else:
            key = (*(row["metrics"][m] for m in evaluation.SELECTION), -idx)
            with lock:
                if not best or key > best["key"]:
                    best.update(key=key, index=idx, fitted=fitted)
        row["wall_time_s"] = time.perf_counter() - t0
        return row

    if workers <= 1:
        trace = [run_one(i) for i in range(len(points))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            trace = list(pool.map(run_one, range(len(points))))
    if not best:
        details = "; ".join(f"point {r['index']} {r['params']}: {r['error']}" for r in trace)
        raise SolverError(f"every grid point failed: {details}")
    return points[best["index"]], best["index"], trace, best["fitted"]


def write_trace_csv(trace, path):
    param_keys = []
    for row in trace:
        for k in row["params"]:
            if k not in param_keys:
                param_keys.append(k)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["index", *param_keys, *evaluation.SELECTION, "wall_time_s", "status",
                    "error"])
        for row in trace:
            w.writerow(
                [row["index"]]
                + [repr(row["params"].get(k, "")) for k in param_keys]
                + [repr(row["metrics"].get(m, "")) for m in evaluation.SELECTION]
                + [f"{row['wall_time_s']:.6f}", row["status"], row["error"]]
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
# verb -> the _Pipeline attribute run_verb returns: where the verb wrote
_VERB_RESULT = {"split": "split_dir", "featurize": "feature_dir", "fit": "output",
                "evaluate": "report_paths", "run": "output"}


class _Pipeline:
    """Shared state for one experiment run; one method per stage."""

    def __init__(self, cfg, seed=None, workers=None, output=None):
        self.cfg = cfg
        self.seed = cfg["seed"] if seed is None else int(seed)
        self.workers = cfg["workers"] if workers is None else workers
        _check(_positive_int(self.workers), "workers", self.workers, "a positive integer")
        out = output or cfg["output"]
        if not out:
            raise ConfigError("an output directory is required (--output or config output)")
        self.output = out
        self.split_dir = os.path.join(out, "splits")
        self.feature_dir = os.path.join(out, "features")
        self.model_path = os.path.join(out, "model.bin")
        self.report_paths = {}
        self.protocol = cfg["split"]["protocol"]
        self.acfg = cfg["_alignment"]

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
        self.sims = [alignment.smoothed_cosine(b, self.acfg.delta)
                     for b in self.features.blocks]

    def persist_features(self):
        os.makedirs(self.feature_dir, exist_ok=True)
        for block in self.features.blocks:
            features.save_block(block, os.path.join(self.feature_dir, block.attribute))

    def fit_mix(self):
        """Fix the validation target, then pick the mix coefficients on it.

        The target is the cold split itself, or under the warm protocol a
        nested leave-one-out split of the training users (seed + 1) whose
        negatives never hold the user's outer held-out item. Every
        grid point shares the decay vectors built here.
        """
        spl, train = self.cfg["split"], self.split_.train
        self.d = alignment.popularity_regularizer(train.X, self.acfg)
        if self.protocol == "cold":
            self.val, self.val_d = self.split_, self.d
        else:
            self.val = data.make_warm_split(
                train, min_user_clicks=max(1, spl["min_user_clicks"] - 1),
                negatives=spl["negatives"], seed=self.seed + 1,
                exclude=self.split_.heldout,
            )
            self.val_d = alignment.popularity_regularizer(self.val.train.X, self.acfg)
        self.popularity_fallback = any(alignment.popularity_falls_back(s.train.X, self.acfg)
                                       for s in (self.split_, self.val))
        if self.popularity_fallback:
            log.info("popularity percentile %.4g is 0: d = beta on unclicked items only",
                     self.acfg.percentile)
        grid = self.cfg["alignment"]["mu_grid"]
        self.mu = alignment.fit_mix_coefficients(self.sims, self.val.train.X, self.val, grid)
        self.G = alignment.mix_similarities(self.sims, self.mu)
        del self.sims  # the per-attribute n x n blocks: nothing after the mix reads them

    def grid_search(self):
        # the module-level grid_search; its model is None under the warm protocol.
        # Every point fits the validation matrix through one context, dropped after.
        context = solvers.FitContext(self.val.train.X)
        self.best_point, self.best_index, self.trace, self.model = grid_search(
            build_grid(self.cfg["solver"]),
            lambda point: self._validation_metrics(point, context), workers=self.workers,
        )

    def persist_trace(self):
        write_trace_csv(self.trace, os.path.join(self.output, "grid_trace.csv"))

    def refit(self):
        if self.model is None:  # warm protocol: the grid fitted the nested split
            self.model = self._fit_point(self.split_.train.X, self.d, self.best_point)
        self.model.item_ids = self.dataset.item_ids
        if self.protocol == "cold":
            # the fraction of cold items the model can score at all
            cold = self.model.theta[:, self.split_.cold_cols]
            scored = np.isfinite(cold) & (cold != 0.0)
            self.model.diagnostics["cold_coverage"] = float(np.mean(scored.any(axis=0)))

    def persist_model(self):
        solvers.save_model(self.model, self.model_path)

    def load_split(self):
        self.split_ = data.load_split(self.split_dir)

    def load_model(self):
        """Read model.bin and check that it scores the split's items in order,
        with finite weights, as every fit checks its own."""
        model = solvers.load_model(self.model_path)
        try:
            solvers._check_finite(model.theta)
        except SolverError as e:
            raise FormatError(f"{self.model_path}: {e}") from None
        ids = self.split_.train.item_ids
        if len(model.theta) != len(ids):
            raise FormatError(f"{self.model_path}: the model has {len(model.theta)} items, "
                              f"the split has {len(ids)}")
        if model.item_ids is not None and model.item_ids != ids:
            j = next(j for j, (a, b) in enumerate(zip(model.item_ids, ids)) if a != b)
            raise FormatError(f"{self.model_path}: item {j} is {model.item_ids[j]!r} in the "
                              f"model but {ids[j]!r} in the split")
        self.model = model

    def evaluate(self):
        """Rank every test scenario in one pass over the training rows, each
        block's scores one ``predict`` of ``evaluation._SCORE_CELLS`` cells,
        so no users x items matrix exists; the blocked ranks equal the full
        matrix's bit for bit (see ``evaluation``). Then report each one."""
        ev, X = self.cfg["evaluation"], self.split_.train.X
        lists = evaluation.rank_scenarios(lambda lo, hi: solvers.predict(self.model, X[lo:hi]),
                                          self.split_, ev["scenarios"], depth=max(ev["ks"]))
        # the bootstrap takes the split's own seed, so evaluate repeats run's reports
        self.reports = {
            scenario: evaluation.evaluate_scenario(
                lists[scenario], self.split_, scenario, ks=tuple(ev["ks"]),
                metrics=tuple(ev["metrics"]), use="test", with_ci=True,
                resamples=ev["resamples"], fraction=ev["fraction"],
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
            "alignment": dataclasses.asdict(self.acfg),
            "selected": self.best_point,
            "selected_index": self.best_index,
            "grid_size": len(self.trace),
            "grid_failed": sum(row["status"] == "failed" for row in self.trace),
            "popularity_fallback": self.popularity_fallback,
            # items with no vector in each embedding file, given zero rows
            "missing_embeddings": {
                block.attribute: block.missing
                for spec, block in zip(self.cfg["attributes"], self.features.blocks)
                if spec.kind == "embedding_file"},
            "files": {
                "model": "model.bin",
                "trace": "grid_trace.csv",
                "splits": "splits",
                "reports": {s: os.path.basename(p) for s, p in self.report_paths.items()},
            },
        })

    # solver fitting -----------------------------------------------------
    def _fit_point(self, X, d, point, context=None):
        name = self.cfg["solver"]["name"]
        acfg, solver_cfg = _point_configs(self.acfg, name, point)
        if name == "itemknn":
            return solvers.ItemModel(
                theta=self.G, solver="itemknn",
                config={"delta": acfg.delta},
                diagnostics={"n_items": int(X.shape[1]), "n_users": int(X.shape[0])},
            )
        B = alignment.align(X, self.G, acfg, d=d)
        # looked up per call, so a wrapper set on the module after import sees every fit
        if name == "ease":
            return solvers.fit_ease(X, solver_cfg, F=self.features, B=B, context=context)
        return solvers.fit_mslim(X, solver_cfg, B=B, context=context)

    def _validation_metrics(self, point, context):
        """(metrics, model) of one grid point; the model only if fitted on the run's split."""
        X = self.val.train.X
        model = self._fit_point(X, self.val_d, point, context)
        metrics = evaluation.validation_metrics(X, model.theta, self.val)
        return metrics, model if self.val is self.split_ else None


def _require_inputs(cfg, stages):
    """Raise ConfigError for a data file that one of ``stages`` reads and that is missing."""
    files = [("interactions file", cfg["data"]["interactions"])] if "load" in stages else []
    if "featurize" in stages:
        files += [(f"attribute {s.name!r}: file", s.path) for s in cfg["attributes"]]
    for what, path in files:
        if not os.path.exists(path):
            raise ConfigError(f"{what} not found: {path}")


def run_verb(verb, config_path, seed=None, workers=None, output=None):
    """Run the stages of ``verb`` (``VERB_STAGES[verb]``) in order.

    Returns what the verb wrote: the split directory (split), the feature
    directory (featurize), each scenario's report JSON path by scenario
    (evaluate), or the output directory (fit, run). A verb whose stages
    refit holds an INCOMPLETE marker in the output directory from before
    its first stage until after its last, so a failed run leaves it behind.
    """
    stages = VERB_STAGES[verb]
    pipe = _Pipeline(load_config(config_path), seed=seed, workers=workers, output=output)
    _require_inputs(pipe.cfg, stages)
    marker = os.path.join(pipe.output, "INCOMPLETE")
    if "refit" in stages:
        log.info("grid-search workers: %d", pipe.workers)
        os.makedirs(pipe.output, exist_ok=True)
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("run in progress or failed; outputs may be partial\n")
    for name in stages:
        pipe._stage(name)
    if "refit" in stages:
        os.remove(marker)
    return getattr(pipe, _VERB_RESULT[verb])


def run_experiment(config_path, seed=None, workers=None, output=None):
    """End-to-end run; returns the output directory path.

    Writes splits/, model.bin(+.json), grid_trace.csv, report_*.json/.txt,
    and manifest.json. An INCOMPLETE marker exists while the run is in
    flight or after a failure.
    """
    return run_verb("run", config_path, seed=seed, workers=workers, output=output)


def compare_reports(paths):
    """Human lift table across report JSON files.

    With exactly two reports the last row shows the percent change of the
    second over the first, per metric column.
    """
    rows = [(p, data.read_json(p)) for p in paths]
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
