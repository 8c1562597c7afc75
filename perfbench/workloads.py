"""The benchmark's workloads and the layer -> end-to-end metric map.

Each workload is a planted dataset (``alignrec.synthetic.planted_dataset``)
plus one YAML experiment config. The dataset seed and the config seed are
both the benchmark's ``--seed``; the program only ever sees the CSVs and
the YAML file.

Which end-to-end metric each layer's per-layer metrics should move, and
the workload that exercises or bypasses the layer. A change that claims a
gain on a layer names its metric and workload from this table.

    layer       moves                  exercised by              bypassed by
    data        run_s, setup_s         warm-loo                  cold-mslim
    features    run_s                  all (small; a guard)      -
    alignment   run_s, peak_rss_mb     cold-ease, cold-mslim     -
    linalg      run_s                  cold-mslim, cold-ease     warm-loo
    solvers     run_s, peak_rss_mb     cold-mslim, cold-ease     warm-loo
    evaluation  run_s                  cold-ease, warm-loo       cold-mslim
    experiment  run_s                  all                       -

``linalg.gram.per_matrix`` and ``alignment.apply.per_matrix`` (calls per
distinct training matrix; 1.0 means no recomputation across grid points)
are the waste ratios a shared per-matrix fit context should move.
"""

from __future__ import annotations

from dataclasses import dataclass

_COLD_EVAL = {"scenarios": ["cold", "warm", "all"], "ks": [10]}
_ALIGNMENT = {"delta": 0.5, "alpha": 1.0, "beta": 5.0, "percentile": 10.0,
              "decay": "step_linear"}


@dataclass(frozen=True)
class Workload:
    name: str
    dominant: str          # layer the traced run should show on top
    scenario: str          # report whose hr@10/ndcg@10 are the quality metrics
    data: dict             # planted_dataset keyword arguments (seed added)
    attributes: tuple      # (name, kind) pairs; names match write_dataset_csvs
    config: dict           # config sections besides seed, data and attributes


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="cold-ease",
            dominant="evaluation",
            scenario="cold",
            data={"n_users": 5000, "n_items": 1000, "n_topics": 20, "label_noise": 0.02},
            attributes=(("topic", "categorical"), ("noise", "categorical"),
                        ("text", "text")),
            config={
                "split": {"protocol": "cold"},
                "alignment": dict(_ALIGNMENT, mu_grid=[
                    {"first_order": [1.0, 0.0, 1.0], "second_order": [0.0, 0.0, 0.0]},
                    {"first_order": [1.0, 1.0, 1.0], "second_order": [0.0, 0.0, 0.0]},
                ]),
                "solver": {"name": "ease", "grid": {"lambda1": [50.0, 100.0, 200.0]}},
                "evaluation": _COLD_EVAL,
            },
        ),
        Workload(
            name="cold-mslim",
            dominant="linalg",
            scenario="cold",
            data={"n_users": 2000, "n_items": 400, "n_topics": 20, "label_noise": 0.02},
            attributes=(("topic", "categorical"), ("noise", "categorical")),
            config={
                "split": {"protocol": "cold"},
                "alignment": dict(_ALIGNMENT),
                "solver": {"name": "mslim",
                           "grid": {"w1": [0.5], "lambda1": [5.0], "gamma1": [100.0]}},
                "evaluation": _COLD_EVAL,
            },
        ),
        Workload(
            name="warm-loo",
            dominant="data",
            scenario="leave_one_out",
            data={"n_users": 4000, "n_items": 1000, "n_topics": 20},
            attributes=(("topic", "categorical"), ("noise", "categorical")),
            config={
                "split": {"protocol": "warm", "negatives": 100, "min_user_clicks": 10},
                "alignment": dict(_ALIGNMENT, mu_grid=[
                    {"first_order": [1.0, 0.0], "second_order": [0.0]},
                    {"first_order": [1.0, 1.0], "second_order": [0.0]},
                ]),
                "solver": {"name": "ease", "grid": {"lambda1": [50.0, 200.0]}},
                "evaluation": {"scenarios": ["leave_one_out"], "ks": [10]},
            },
        ),
    )
}


def experiment_config(w, paths, seed):
    """The YAML config (as a dict) for workload ``w`` on generated ``paths``."""
    cfg = {"seed": int(seed), "data": {"interactions": paths["interactions"]},
           "attributes": [{"name": n, "kind": k, "path": paths[n]}
                          for n, k in w.attributes]}
    cfg.update(w.config)
    return cfg
