"""Command-line front end.

Verbs: split, featurize, fit, evaluate, run, report. Exit codes: 0 on
success, 2 for configuration problems, 3 for data/file problems, 4 for
numerical failures. For fit and run, the --workers flag overrides the
config worker count; both must be positive integers.
"""

from __future__ import annotations

import argparse
import ctypes
import logging
import sys

from . import experiment
from .errors import (
    CapacityError,
    ConfigError,
    EmptyDatasetError,
    FormatError,
    ParseError,
    SingularMatrixError,
    SolverError,
    StageError,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_DATA_ERRORS = (ParseError, FormatError, EmptyDatasetError, FileNotFoundError, OSError, KeyError)
_NUMERICAL_ERRORS = (SolverError, SingularMatrixError, CapacityError, FloatingPointError)


def exit_code_for(exc):
    if isinstance(exc, StageError) and exc.__cause__ is not None:
        return exit_code_for(exc.__cause__)
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, _NUMERICAL_ERRORS):
        return EXIT_NUMERICAL
    if isinstance(exc, _DATA_ERRORS):
        return EXIT_DATA
    return EXIT_CONFIG if isinstance(exc, ValueError) else EXIT_DATA


def build_parser():
    parser = argparse.ArgumentParser(
        prog="alignrec",
        description="Closed-form item-item recommenders with metadata alignment",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, seed=True, workers=False):
        p.add_argument("--config", required=True, help="experiment config (YAML)")
        p.add_argument("--output", help="output directory (overrides config)")
        if seed:
            p.add_argument("--seed", type=int, help="seed override")
        if workers:
            p.add_argument("--workers", type=int, help="worker count override")

    common(sub.add_parser("split", help="build and persist the train/val/test split"))
    common(sub.add_parser("featurize", help="encode metadata attributes"), seed=False)
    common(sub.add_parser("fit", help="tune on validation and fit the final model"),
           workers=True)
    common(sub.add_parser("evaluate", help="evaluate a fitted model on the test split"),
           seed=False)
    common(sub.add_parser("run", help="end-to-end: split, featurize, fit, evaluate"),
           workers=True)

    rep = sub.add_parser("report", help="print a lift table across report files")
    rep.add_argument("reports", nargs="+", help="report JSON files (baseline first)")
    return parser


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_heap():
    """Serve allocations up to 32 MiB from the heap and keep up to 64 MiB of
    it when freed (glibc's mallopt; a no-op where there is none).

    Every fit allocates and frees several n x n float64 arrays, 8 MB each at
    1000 items. Under glibc's adaptive defaults they are mapped fresh and
    returned to the kernel between fits, so each fit pays a page fault and a
    zero fill per page, whose cost follows the host's memory load; kept on
    the heap, the next fit reuses the same pages.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None):
    _keep_freed_heap()
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "report":
            print(experiment.compare_reports(args.reports), end="")
            return EXIT_OK
        flags = {k: v for k, v in vars(args).items() if k not in ("verb", "config")}
        # `run` enters through run_experiment, the library's end-to-end entry
        out = (experiment.run_experiment(args.config, **flags) if args.verb == "run"
               else experiment.run_verb(args.verb, args.config, **flags))
        for path in out.values() if isinstance(out, dict) else [out]:
            print(path)
    except Exception as e:
        code = exit_code_for(e)
        log.error("%s", e)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
