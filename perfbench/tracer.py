"""Outside-in layer tracing for one ``run`` verb.

Spans are recorded by wrapping the package's public functions at the
attribute the caller reads: ``experiment`` reaches the layers through
module attributes (``solvers.fit_ease``, ``evaluation.evaluate_scenario``),
``solvers`` imported ``gram``/``invert``/``solve_general`` into its own
namespace, and the alignment matrix exposes ``xtb``/``materialize`` on its
class. No file of the package is changed. A target that no longer exists
is skipped; a metric none of whose targets exists, or whose functions the
run never called, is left out of the result rather than reported as zero.

A span carries name, start, end, parent, thread, the exception type it
raised (if any) and a few computed counts. Spans stay in memory and are
written as JSON when the traced process ends; ``layer_metrics`` turns
them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
import zlib


def _matrix_key(X):
    """Content fingerprint of a CSR training matrix."""
    return [list(X.shape), int(X.nnz), zlib.crc32(X.indptr.tobytes()),
            zlib.crc32(X.indices.tobytes())]


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _lu_flops(n, nrhs):
    # one LU factorization (2/3 n^3) plus a forward and back solve per rhs
    return 2.0 / 3.0 * n ** 3 + 2.0 * n * n * nrhs


def _grid_probe(args, kwargs, result):
    return {"points": len(result[2]), "workers": int(kwargs.get("workers", 1)),
            "failed": sum(1 for row in result[2] if row["status"] != "ok")}


def _ranked_probe(args, kwargs, result):
    return {"users": len(result), "candidates": int(sum(len(rl.ranked) for rl in result))}


def _solve_probe(args, kwargs, result):
    rhs = args[1]
    return {"flops": _lu_flops(args[0].shape[0], 1 if rhs.ndim == 1 else rhs.shape[1])}


# (module, attribute owner inside the module or None, attribute, span name, probe)
TARGETS = (
    ("alignrec.experiment", None, "run_experiment", "experiment.run_experiment", None),
    ("alignrec.experiment", None, "grid_search", "experiment.grid_search", _grid_probe),
    ("alignrec.data", None, "load_interactions", "data.load_interactions", None),
    ("alignrec.data", None, "make_cold_split", "data.split", None),
    ("alignrec.data", None, "make_warm_split", "data.split", None),
    ("alignrec.data", None, "save_cold_split", "data.save_split",
     lambda a, k, r: {"bytes": _dir_bytes(a[1])}),
    ("alignrec.data", None, "save_warm_split", "data.save_split",
     lambda a, k, r: {"bytes": _dir_bytes(a[1])}),
    ("alignrec.features", None, "build_feature_set", "features.build_feature_set", None),
    ("alignrec.alignment", None, "smoothed_cosine", "alignment.smoothed_cosine", None),
    ("alignrec.alignment", None, "fit_mix_coefficients", "alignment.fit_mix", None),
    ("alignrec.alignment", None, "mix_similarities", "alignment.mix_similarities", None),
    ("alignrec.alignment", None, "popularity_regularizer",
     "alignment.popularity_regularizer", None),
    ("alignrec.alignment", None, "align", "alignment.align", None),
    ("alignrec.alignment", "AlignmentMatrix", "xtb", "alignment.xtb",
     lambda a, k, r: {"matrix": _matrix_key(a[0].X)}),
    ("alignrec.alignment", "AlignmentMatrix", "materialize", "alignment.materialize",
     lambda a, k, r: {"bytes": a[0].X.shape[0] * a[0].G.shape[1] * 8,
                      "matrix": _matrix_key(a[0].X)}),
    ("alignrec.solvers", None, "gram", "linalg.gram",
     lambda a, k, r: {"matrix": _matrix_key(a[0])}),
    ("alignrec.solvers", None, "invert", "linalg.invert",
     lambda a, k, r: {"flops": _lu_flops(a[0].shape[0], a[0].shape[0])}),
    ("alignrec.solvers", None, "solve_general", "linalg.solve_general", _solve_probe),
    ("alignrec.solvers", None, "fit_ease", "solvers.fit_ease", None),
    ("alignrec.solvers", None, "fit_mslim", "solvers.fit_mslim", None),
    ("alignrec.solvers", None, "predict", "solvers.predict",
     lambda a, k, r: {"bytes": a[1].shape[0] * a[0].theta.shape[1] * 8}),
    ("alignrec.solvers", None, "save_model", "solvers.save_model", None),
    ("alignrec.evaluation", None, "evaluate_scenario", "evaluation.evaluate_scenario", None),
    ("alignrec.evaluation", None, "build_ranked_lists", "evaluation.build_ranked_lists",
     _ranked_probe),
    ("alignrec.evaluation", None, "bootstrap_ci", "evaluation.bootstrap_ci", None),
)


class Tracer:
    """Records spans from wrapped functions; one instance per traced process."""

    def __init__(self):
        self.spans = []
        self.installed = set()   # span names with at least one live target
        self.probe_failed = set()
        self._stacks = {}        # thread id -> stack of open span indices
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()

    def install(self):
        """Wrap every target that exists; returns the span names skipped."""
        missing = set()
        for module, owner, attr, name, probe in TARGETS:
            try:
                holder = importlib.import_module(module)
                if owner is not None:
                    holder = getattr(holder, owner)
                fn = getattr(holder, attr)
            except (ImportError, AttributeError):
                missing.add(name)
                continue
            setattr(holder, attr, self._wrap(fn, name, probe))
            self.installed.add(name)
        return sorted(missing - self.installed)

    def _open(self, name):
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                # a worker thread's first span belongs to the main thread's
                # innermost open span (the grid search that spawned it)
                main = self._stacks.get(self._main) if tid != self._main else None
                parent = main[-1] if main else None
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": parent, "thread": tid, "error": None}
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        with self._lock:
            self._stacks[span["thread"]].pop()

    def _wrap(self, fn, name, probe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                span["error"] = type(e).__name__
                raise
            finally:
                self._close(span)
            if probe is not None:
                try:
                    span.update(probe(args, kwargs, result))
                except Exception:
                    # the callee's signature or result changed shape
                    self.probe_failed.add(name)
            return result
        return traced


def _self_time(span, children):
    """Span duration minus the union of its children's intervals."""
    lo, hi = span["start"], span["end"]
    covered, cur_lo, cur_hi = 0.0, None, None
    for c in sorted(children, key=lambda c: c["start"]):
        a, b = max(c["start"], lo), min(c["end"], hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (hi - lo) - covered


LAYERS = ("data", "features", "alignment", "linalg", "solvers", "evaluation", "experiment")

# Metrics of the JSON result, name -> (unit, better), in report order. Each
# is reached on every workload, so a present metric is a measurement: the
# alignment products (xtb on EASE, materialize on MSLIM), the dense solves
# (invert on EASE, solve_general on MSLIM) and the two fits are summed.
PER_LAYER = {
    "data.load_interactions.s": ("s", "lower"),
    "data.split.s": ("s", "lower"),
    "data.split.calls": ("count", "lower"),
    "data.save_split.s": ("s", "lower"),
    "data.save_split.bytes": ("B", "lower"),
    "features.build_feature_set.s": ("s", "lower"),
    "alignment.smoothed_cosine.s": ("s", "lower"),
    "alignment.mix_similarities.calls": ("count", "lower"),
    "alignment.popularity_regularizer.calls": ("count", "lower"),
    "alignment.apply.s": ("s", "lower"),
    "alignment.apply.calls": ("count", "lower"),
    "alignment.apply.per_matrix": ("1", "lower"),
    "linalg.gram.s": ("s", "lower"),
    "linalg.gram.calls": ("count", "lower"),
    "linalg.gram.per_matrix": ("1", "lower"),
    "linalg.factor.s": ("s", "lower"),
    "linalg.factor.calls": ("count", "lower"),
    "linalg.lu_flops": ("flop", "lower"),
    "solvers.fit.self_s": ("s", "lower"),
    "solvers.predict.s": ("s", "lower"),
    "solvers.predict.bytes": ("B", "lower"),
    "solvers.save_model.s": ("s", "lower"),
    "evaluation.evaluate_scenario.self_s": ("s", "lower"),
    "evaluation.build_ranked_lists.s": ("s", "lower"),
    "evaluation.users_ranked": ("count", "lower"),
    "evaluation.candidates_ranked": ("count", "lower"),
    "evaluation.bootstrap_ci.s": ("s", "lower"),
    "experiment.grid_search.s": ("s", "lower"),
    "experiment.grid_points": ("count", "lower"),
    "experiment.grid_search.busy_frac": ("1", "higher"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Printed in the text report only: the per-function split of the sums
# above and the failure counters, which only some workloads reach.
DETAIL = {
    "alignment.fit_mix.s": ("s", "lower"),
    "alignment.xtb.s": ("s", "lower"),
    "alignment.xtb.calls": ("count", "lower"),
    "alignment.xtb.per_matrix": ("1", "lower"),
    "alignment.materialize.s": ("s", "lower"),
    "alignment.materialize.bytes": ("B", "lower"),
    "linalg.invert.s": ("s", "lower"),
    "linalg.solve_general.s": ("s", "lower"),
    "linalg.solve_general.calls": ("count", "lower"),
    "linalg.singular": ("count", "lower"),
    "solvers.fit_ease.self_s": ("s", "lower"),
    "solvers.fit_mslim.self_s": ("s", "lower"),
    "experiment.grid_points_failed": ("count", "lower"),
}


def layer_metrics(spans, installed, probe_failed):
    """Per-layer metrics (``PER_LAYER`` and ``DETAIL``) of one traced run.

    ``installed`` and ``probe_failed`` are the span-name sets a Tracer
    kept. A metric is left out, rather than reported as zero, when none of
    its spans was installed, none was recorded, or a count it needs could
    not be read from a call. The failure counters are reported whenever a
    span they count was installed.
    """
    children = [[] for _ in spans]
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    by_name = {}
    for i, s in enumerate(spans):
        s["self"] = _self_time(s, children[i])
        by_name.setdefault(s["name"], []).append(s)

    out = {}

    def put(metric, names, fn, need_probe=False):
        names = (names,) if isinstance(names, str) else names
        if not installed.intersection(names):
            return
        if need_probe and probe_failed.intersection(names):
            return
        got = [s for n in names for s in by_name.get(n, [])]
        value = fn(got) if got else None
        if value is not None:
            out[metric] = value

    def total(key):
        # a call that raised carries no counts
        return lambda ss: float(sum(s.get(key, 0) for s in ss))

    def dur(ss):
        return float(sum(s["end"] - s["start"] for s in ss))

    def per_matrix(ss):
        # calls that raised carry no fingerprint
        distinct = {repr(s["matrix"]) for s in ss if "matrix" in s}
        return len(ss) / len(distinct) if distinct else None

    apply = ("alignment.xtb", "alignment.materialize")
    factor = ("linalg.invert", "linalg.solve_general")
    fits = ("solvers.fit_ease", "solvers.fit_mslim")
    put("data.load_interactions.s", "data.load_interactions", dur)
    put("data.split.s", "data.split", dur)
    put("data.split.calls", "data.split", len)
    put("data.save_split.s", "data.save_split", dur)
    put("data.save_split.bytes", "data.save_split", total("bytes"), True)
    put("features.build_feature_set.s", "features.build_feature_set", dur)
    put("alignment.smoothed_cosine.s", "alignment.smoothed_cosine", dur)
    put("alignment.fit_mix.s", "alignment.fit_mix", dur)
    put("alignment.mix_similarities.calls", "alignment.mix_similarities", len)
    put("alignment.popularity_regularizer.calls", "alignment.popularity_regularizer", len)
    put("alignment.apply.s", apply, dur)
    put("alignment.apply.calls", apply, len)
    put("alignment.apply.per_matrix", apply, per_matrix, True)
    put("alignment.xtb.s", "alignment.xtb", dur)
    put("alignment.xtb.calls", "alignment.xtb", len)
    put("alignment.xtb.per_matrix", "alignment.xtb", per_matrix, True)
    put("alignment.materialize.s", "alignment.materialize", dur)
    put("alignment.materialize.bytes", "alignment.materialize", total("bytes"), True)
    put("linalg.gram.s", "linalg.gram", dur)
    put("linalg.gram.calls", "linalg.gram", len)
    put("linalg.gram.per_matrix", "linalg.gram", per_matrix, True)
    put("linalg.factor.s", factor, dur)
    put("linalg.factor.calls", factor, len)
    put("linalg.lu_flops", factor, total("flops"), True)
    put("linalg.invert.s", "linalg.invert", dur)
    put("linalg.solve_general.s", "linalg.solve_general", dur)
    put("linalg.solve_general.calls", "linalg.solve_general", len)
    put("solvers.fit.self_s", fits, total("self"))
    put("solvers.fit_ease.self_s", "solvers.fit_ease", total("self"))
    put("solvers.fit_mslim.self_s", "solvers.fit_mslim", total("self"))
    put("solvers.predict.s", "solvers.predict", dur)
    put("solvers.predict.bytes", "solvers.predict", total("bytes"), True)
    put("solvers.save_model.s", "solvers.save_model", dur)
    put("evaluation.evaluate_scenario.self_s", "evaluation.evaluate_scenario", total("self"))
    put("evaluation.build_ranked_lists.s", "evaluation.build_ranked_lists", dur)
    put("evaluation.users_ranked", "evaluation.build_ranked_lists", total("users"), True)
    put("evaluation.candidates_ranked", "evaluation.build_ranked_lists",
        total("candidates"), True)
    put("evaluation.bootstrap_ci.s", "evaluation.bootstrap_ci", dur)
    put("experiment.grid_search.s", "experiment.grid_search", dur)
    put("experiment.grid_points", "experiment.grid_search", total("points"), True)

    grid = [i for i, s in enumerate(spans)
            if s["name"] == "experiment.grid_search" and "workers" in s]
    if grid and "experiment.grid_search" not in probe_failed:
        busy = sum(c["end"] - c["start"] for i in grid for c in children[i])
        capacity = sum(spans[i]["workers"] * (spans[i]["end"] - spans[i]["start"])
                       for i in grid)
        out["experiment.grid_search.busy_frac"] = busy / capacity
    for layer in LAYERS:
        put(f"{layer}.self_s", [n for n in installed if n.split(".")[0] == layer],
            total("self"))

    linalg = [n for n in installed if n.startswith("linalg.")]
    if linalg:
        out["linalg.singular"] = float(sum(
            1 for n in linalg for s in by_name.get(n, [])
            if s["error"] == "SingularMatrixError"))
    if "experiment.grid_search" in installed and "experiment.grid_search" not in probe_failed:
        out["experiment.grid_points_failed"] = total("failed")(
            by_name.get("experiment.grid_search", []))
    return out
