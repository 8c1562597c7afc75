#!/usr/bin/env python3
"""alignrec benchmark: the ``run`` verb end to end on planted workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold-ease --seed 1 --seconds 40 --trace 0

The seed makes the planted dataset and is the experiment seed. Generating
and writing the data happens before any timing. For ``--seconds`` seconds
the benchmark then runs cycles of fresh-interpreter samples (``worker.py``):

- ``--trace 0``: two set-up samples (import, config, load) and one
  untraced ``run`` sample per cycle; reports the end-to-end metrics, each
  a median over its samples.
- ``--trace 1``: one untraced and one traced ``run`` sample per cycle;
  reports the per-layer metrics (medians over traced samples) and the
  tracing overhead, traced minus untraced ``run_s``. The per-function
  split in ``tracer.DETAIL`` is printed in the text report only. The
  spans of the last traced sample stay in
  ``.perfbench_work/spans_<workload>_s<seed>.json``.

``run_s`` and ``setup_s`` are wall times scaled to a reference host
speed. The speed of a shared host changes by up to 2x, within seconds and
from minute to minute (CPU time moves with wall time, so it is the CPU
that slows, not waiting), which made the medians of plain wall time
spread by up to a third between runs of the same code. Each sample's wall time
is therefore multiplied by the speed that ``worker.SpeedProbe`` measured
beside it, in the same process on the same CPU: the result is the
sample's time at the reference speed. The plain wall-time medians and
every sample are printed in the ``env`` line; the per-layer metrics are
plain wall times.

Operations are the worker processes, the grid points of every run and the
correctness checks on its artifacts (``oracle.py``). The last line of
stdout is the JSON result; the exit code is 1 when a correctness check
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

from tracer import DETAIL, PER_LAYER, layer_metrics  # noqa: E402
from workloads import WORKLOADS, experiment_config  # noqa: E402

# Stop starting cycles once the next one might end past this: the
# benchmark must exit within 180 s.
BUDGET_S = 150.0
MIN_RUNS = {0: 3, 1: 1}
SETUPS_PER_CYCLE = 2
# One BLAS thread on every workload, and worker.py passes ``--workers 1``
# to the verb: their product stays within any core count, and a single
# thread is the least exposed to other load on a shared host.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
    "ndcg_at_10": "1", "hr_at_10": "1", "ok_frac": "1",
}
UNITS = dict(END_TO_END, **{k: u for k, (u, _) in {**PER_LAYER, **DETAIL}.items()})


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Bench:
    """One benchmark invocation: a workspace, samples and the checks on them."""

    def __init__(self, w, seed, trace, workspace):
        self.w, self.seed, self.trace, self.ws = w, seed, trace, workspace
        self.attempted = 0
        self.failures = []      # (message, is a correctness failure)
        self.samples = {"setup": [], "run": [], "trace": []}
        self.layers = []
        self.absent = set()
        self.reports = None
        self.quality = {}
        self.started = time.monotonic()

    # bookkeeping ------------------------------------------------------
    def check(self, ok, what, correctness=True):
        self.attempted += 1
        if not ok:
            self.failures.append((what, correctness))
        return ok

    @property
    def correct(self):
        return not any(c for _, c in self.failures)

    def remaining(self):
        return BUDGET_S - (time.monotonic() - self.started)

    # inputs -----------------------------------------------------------
    def make_inputs(self):
        import yaml
        from alignrec.synthetic import planted_dataset, write_dataset_csvs

        dataset, meta = planted_dataset(seed=self.seed, **self.w.data)
        paths = write_dataset_csvs(dataset, meta, os.path.join(self.ws, "data"))
        cfg = experiment_config(self.w, {k: str(v) for k, v in paths.items()}, self.seed)
        self.config = os.path.join(self.ws, "config.yaml")
        with open(self.config, "w", encoding="utf-8") as fh:
            yaml.safe_dump(cfg, fh, sort_keys=False)

    # samples ----------------------------------------------------------
    def _worker(self, mode, tag, *extra):
        result = os.path.join(self.ws, f"{tag}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
               "--config", self.config, "--result", result, *extra]
        with open(os.path.join(self.ws, f"{tag}.log"), "wb") as log:
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                      timeout=max(1.0, self.remaining() + 20.0))
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        if not self.check(code == 0 and os.path.isfile(result),
                          f"{tag}: worker exited with {code}"):
            with open(os.path.join(self.ws, f"{tag}.log"), encoding="utf-8",
                      errors="replace") as fh:
                sys.stderr.write(fh.read()[-4000:])
            return None
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)

    def setup_sample(self, n):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = self._worker("setup", f"setup{n}")
        if out is not None:
            out["wall_s"] = out["ready"] - t0
            self.samples["setup"].append(out)

    def run_sample(self, n, traced):
        tag = f"{'trace' if traced else 'run'}{n}"
        outdir = os.path.join(self.ws, tag)
        spans = os.path.join(WORK, f"spans_{self.w.name}_s{self.seed}.json")
        out = self._worker("trace" if traced else "run", tag, "--output", outdir,
                           *(["--spans", spans] if traced else []))
        if out is None:
            return
        if self.check(out["exit"] == 0, f"{tag}: run verb exited with {out['exit']}"):
            try:
                self.check_artifacts(tag, outdir)
            except Exception as e:
                # unreadable artifacts are a failed check, not a crash
                traceback.print_exc()
                self.check(False, f"{tag}: checking the artifacts raised {e!r}")
        out["wall_s"] = out["run_s"]
        self.samples["trace" if traced else "run"].append(out)
        if traced:
            with open(spans, encoding="utf-8") as fh:
                rec = json.load(fh)
            self.absent.update(out["absent"])
            self.layers.append(layer_metrics(
                rec["spans"], set(rec["installed"]), set(rec["probe_failed"])))
        shutil.rmtree(outdir, ignore_errors=True)

    # checks -----------------------------------------------------------
    def check_artifacts(self, tag, outdir):
        import oracle

        protocol = self.w.config["split"]["protocol"]
        scenarios = self.w.config["evaluation"]["scenarios"]
        missing = oracle.missing_artifacts(outdir, protocol, scenarios)
        if not self.check(not missing, f"{tag}: missing artifacts {missing}"):
            return
        for i, status in enumerate(oracle.grid_statuses(outdir)):
            self.check(status == "ok", f"{tag}: grid point {i} has status {status!r}",
                       correctness=False)
        reports = {}
        for s in scenarios:
            with open(os.path.join(outdir, f"report_{s}.json"), "rb") as fh:
                reports[s] = fh.read()
        if self.reports is not None:
            self.check(reports == self.reports,
                       f"{tag}: report JSON differs from the first run of this seed")
            return
        self.reports = reports
        self.rederive(tag, outdir, scenarios)

    def rederive(self, tag, outdir, scenarios):
        import oracle
        from alignrec.data import load_split
        from alignrec.solvers import load_model

        split = load_split(os.path.join(outdir, "splits"))
        model = load_model(os.path.join(outdir, "model.bin"))
        problems = oracle.check_model(model.theta, self.w.config["solver"]["name"])
        if not self.check(not problems, f"{tag}: {problems}"):
            return
        scores = oracle.scores(split, model.theta)
        for s in scenarios:
            hr, ndcg, users = oracle.rederive(split, scores, s)
            rep_hr, rep_users = oracle.report_metric(outdir, s, "hr")
            rep_ndcg, _ = oracle.report_metric(outdir, s, "ndcg")
            self.check(users == rep_users and abs(hr - rep_hr) <= oracle.TOLERANCE
                       and abs(ndcg - rep_ndcg) <= oracle.TOLERANCE,
                       f"{tag}: {s} report (hr {rep_hr!r}, ndcg {rep_ndcg!r}, "
                       f"{rep_users} users) != oracle ({hr!r}, {ndcg!r}, {users})")
            if s == self.w.scenario:
                self.quality = {"ndcg_at_10": rep_ndcg, "hr_at_10": rep_hr}

    # measuring ---------------------------------------------------------
    def measure(self, seconds):
        """Sample in cycles until the next cycle would end past ``seconds``."""
        start = time.monotonic()
        n, longest = 0, 0.0
        while True:
            t0 = time.monotonic()
            if self.trace:
                self.run_sample(n, traced=False)
                self.run_sample(n, traced=True)
            else:
                for j in range(SETUPS_PER_CYCLE):
                    self.setup_sample(SETUPS_PER_CYCLE * n + j)
                self.run_sample(n, traced=False)
            n += 1
            now = time.monotonic()
            longest = max(longest, now - t0)
            if not self.correct or self.remaining() < 1.5 * longest:
                break
            if n >= MIN_RUNS[self.trace] and now + (now - start) / n > start + seconds:
                break

    def metrics(self):
        """Medians over samples; a metric without samples is left out."""
        med = statistics.median
        out = {}
        if self.trace:
            # plain wall times on both sides
            runs = [s["wall_s"] for s in self.samples["run"]]
            traced = [s["wall_s"] for s in self.samples["trace"]]
            for k in (*PER_LAYER, *DETAIL):
                vals = [m[k] for m in self.layers if k in m]
                if vals:
                    out[k] = med(vals)
            if runs and traced:
                out["trace.run_s"] = med(traced)
                out["trace.overhead_s"] = med(traced) - med(runs)
            return out
        if self.samples["run"]:
            out["run_s"] = med(scaled(self.samples["run"]))
            out["peak_rss_mb"] = med(s["maxrss_mib"] for s in self.samples["run"])
        if self.samples["setup"]:
            out["setup_s"] = med(scaled(self.samples["setup"]))
        out.update(self.quality)
        out["ok_frac"] = (self.attempted - len(self.failures)) / max(1, self.attempted)
        return out


def scaled(samples):
    """Wall times at the reference speed, of the samples the probe saw."""
    return [s["wall_s"] * s["speed"] for s in samples if s["speed"] is not None]


def dominant_layer(metrics):
    """The layer with the largest self time among traced metrics."""
    layers = {k.split(".")[0]: v for k, v in metrics.items()
              if k.count(".") == 1 and k.endswith(".self_s")}
    return max(layers, key=layers.get) if layers else None


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "grid_workers": 1,
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "alignrec", "__init__.py")):
        print(f"no alignrec package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # pin before numpy is first imported; the workers inherit the pins
    os.environ.update({v: str(BLAS_THREADS) for v in THREAD_VARS})
    sys.path.insert(0, SRC)
    w = WORKLOADS[args.workload]
    workspace = os.path.join(WORK, f"{w.name}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workspace)
    bench = Bench(w, args.seed, args.trace, workspace)
    try:
        bench.make_inputs()
        bench.measure(args.seconds)
    finally:
        shutil.rmtree(workspace, ignore_errors=True)

    metrics = bench.metrics()

    def sampled(kind, key):
        return [None if s[key] is None else round(s[key], 4) for s in bench.samples[kind]]

    # CPU time beside wall time shows whether a slow sample lost its time
    # to waiting or ran on a slower host; speed is what the probe saw
    def wall_median(kind):
        walls = [s["wall_s"] for s in bench.samples[kind]]
        return statistics.median(walls) if walls else None

    record = dict(environment(), workload=w.name, seed=args.seed, data=w.data,
                  samples={k: len(v) for k, v in bench.samples.items()},
                  run_wall_s=wall_median("run"), setup_wall_s=wall_median("setup"),
                  run_wall_s_samples=sampled("run", "wall_s"),
                  run_cpu_s_samples=sampled("run", "cpu_s"),
                  setup_wall_s_samples=sampled("setup", "wall_s"),
                  setup_cpu_s_samples=sampled("setup", "cpu_s"),
                  run_speed_samples=sampled("run", "speed"),
                  setup_speed_samples=sampled("setup", "speed"))
    if args.trace:
        record.update(dominant_layer=dominant_layer(metrics),
                      expected_dominant=w.dominant, absent=sorted(bench.absent))
    print("env " + json.dumps(record, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:42s} {value:16.6f} {UNITS[name]}")
    failed = len(bench.failures)
    print(f"failed_frac {failed / max(1, bench.attempted):.6f} "
          f"({failed} of {bench.attempted} operations)")
    for what, _ in bench.failures:
        print(f"FAILED: {what}", file=sys.stderr)
    print(json.dumps({
        "correct": bench.correct,
        "attempted": max(1, bench.attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()
                    if k not in DETAIL},
    }))
    return 0 if bench.correct else 1


if __name__ == "__main__":
    sys.exit(main())
