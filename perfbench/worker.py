"""One measured sample, run in a fresh interpreter by ``run.py``.

Modes:

- ``setup``: import the package, validate the config and load the
  interactions, then report the monotonic clock. The parent subtracts the
  time it started this process, so the sample spans a fresh interpreter
  to a loaded ``Dataset``.
- ``run``: call ``alignrec.cli.main(["run", ...])`` once and report its
  wall time, exit code and the process's peak RSS.
- ``trace``: the same with every layer wrapped by ``tracer.Tracer``; the
  spans are written to ``--spans`` when the verb returns.

Every mode pins the process to one CPU and runs a ``SpeedProbe`` thread
beside the measured work, from before the first import to the end of the
sample. The probe times a fixed bytecode loop every ``INTERVAL_S``; its
``speed`` is the mean of ``TICK_REF_S / tick`` over the timed part of the
sample (the whole process for ``setup``, the verb for ``run``): the share
of the reference host speed this CPU gave the process, on average over
that wall time. ``run.py`` multiplies wall times by it.

The result is one JSON object written to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


# One tick is a fixed bytecode loop of TICK_LOOP iterations, one every
# INTERVAL_S (about 1% of the CPU). TICK_REF_S is a fixed constant, so that
# scaled times stay comparable across checkouts: about a tick's time on an
# uncontended core of the reference host (2 vCPUs, Python 3.11).
TICK_LOOP = 3000
INTERVAL_S = 0.02
TICK_REF_S = 1.3e-4


class SpeedProbe(threading.Thread):
    """Samples how fast this process's CPU runs fixed code, during a sample.

    The host's speed changes within seconds, so calibrating before and
    after a sample misses most of it; sampling in the same process, on the
    same pinned CPU, sees what the measured code sees.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.ticks = []
        self._halt = threading.Event()

    def run(self):
        while not self._halt.wait(INTERVAL_S):
            t0 = time.perf_counter()
            acc = 0
            for i in range(TICK_LOOP):
                acc += i % 7
            self.ticks.append(time.perf_counter() - t0)

    def speed(self, first=0):
        """Stop sampling; the mean of ``TICK_REF_S / tick`` over the ticks
        from index ``first`` on, or None if there are none."""
        self._halt.set()
        self.join()
        ticks = self.ticks[first:]
        if not ticks:
            return None
        return sum(TICK_REF_S / t for t in ticks) / len(ticks)


def cpu_s():
    """User plus system CPU time of this process so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main():
    # the probe must share the CPU the measured code runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe()
    probe.start()
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "run", "trace"))
    p.add_argument("--config", required=True)
    p.add_argument("--output")
    p.add_argument("--result", required=True)
    p.add_argument("--spans")
    args = p.parse_args()

    out = {}
    if args.mode == "setup":
        import alignrec
        cfg = alignrec.load_config(args.config)
        dat = cfg["data"]
        alignrec.load_interactions(dat["interactions"], format=dat["format"],
                                   binarize_threshold=dat["binarize_threshold"])
        out["ready"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        out["cpu_s"] = cpu_s()
        out["speed"] = probe.speed()
    else:
        import alignrec.cli
        from tracer import Tracer

        tracer = Tracer() if args.mode == "trace" else None
        if tracer is not None:
            out["absent"] = tracer.install()
        # one grid worker, whatever ALIGNREC_WORKERS says
        argv = ["run", "--config", args.config, "--output", args.output, "--workers", "1"]
        first = len(probe.ticks)
        t0, c0 = time.perf_counter(), cpu_s()
        out["exit"] = alignrec.cli.main(argv)
        out["run_s"] = time.perf_counter() - t0
        out["cpu_s"] = cpu_s() - c0
        out["speed"] = probe.speed(first)
        if tracer is not None:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"spans": tracer.spans, "installed": sorted(tracer.installed),
                           "probe_failed": sorted(tracer.probe_failed)}, fh)
    out["maxrss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
