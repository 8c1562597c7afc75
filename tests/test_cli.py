"""Argument parsing and process exit codes for the command-line verbs."""

import json
import os

import pytest
import yaml

from alignrec import ConfigError, SolverError
from alignrec.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERICAL,
    EXIT_OK,
    build_parser,
    exit_code_for,
    main,
)
from alignrec.errors import FormatError, ParseError, SingularMatrixError, StageError


# ----------------------------------------------------------------- parsing

def test_parser_accepts_every_verb(tmp_path):
    parser = build_parser()
    for verb in ("split", "featurize", "fit", "evaluate", "run"):
        args = parser.parse_args([verb, "--config", "c.yaml"])
        assert args.verb == verb and args.config == "c.yaml"
    args = parser.parse_args(["report", "a.json", "b.json"])
    assert args.reports == ["a.json", "b.json"]


def test_parser_requires_config():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run"])


def test_parser_rejects_unknown_verb():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train", "--config", "c.yaml"])


def test_parser_worker_flag_only_on_fit_and_run():
    parser = build_parser()
    assert parser.parse_args(["fit", "--config", "c", "--workers", "4"]).workers == 4
    assert parser.parse_args(["run", "--config", "c", "--workers", "4"]).workers == 4
    with pytest.raises(SystemExit):
        parser.parse_args(["split", "--config", "c", "--workers", "4"])


# -------------------------------------------------------------- exit codes

def test_exit_code_mapping():
    assert exit_code_for(ConfigError("x")) == EXIT_CONFIG
    assert exit_code_for(ParseError("x")) == EXIT_DATA
    assert exit_code_for(FormatError("x")) == EXIT_DATA
    assert exit_code_for(FileNotFoundError("x")) == EXIT_DATA
    assert exit_code_for(SolverError("x")) == EXIT_NUMERICAL
    assert exit_code_for(SingularMatrixError("x")) == EXIT_NUMERICAL
    assert exit_code_for(ValueError("x")) == EXIT_CONFIG


def test_exit_code_unwraps_stage_cause():
    try:
        try:
            raise SolverError("inner")
        except SolverError as e:
            raise StageError("grid-search", "cfg.yaml", e) from e
    except StageError as wrapped:
        assert exit_code_for(wrapped) == EXIT_NUMERICAL


def test_main_returns_config_code_for_missing_file(tmp_path, caplog):
    code = main(["run", "--config", str(tmp_path / "absent.yaml")])
    assert code == EXIT_CONFIG


def test_main_returns_config_code_for_bad_config(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("seed: 1\n", encoding="utf-8")
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG


# -------------------------------------------------------------- happy path

def test_main_runs_split_and_prints_outdir(planted_config, capsys):
    path = planted_config()
    assert main(["split", "--config", path]) == EXIT_OK
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("splits")
    assert os.path.exists(os.path.join(printed, "train.csv"))


def test_main_full_run_then_report(planted_config, capsys):
    path = planted_config(grid={"lambda1": [0.5]})
    assert main(["run", "--config", path]) == EXIT_OK
    outdir = capsys.readouterr().out.strip().splitlines()[-1]
    cold = os.path.join(outdir, "report_cold.json")
    warm = os.path.join(outdir, "report_warm.json")
    assert main(["report", cold, warm]) == EXIT_OK
    table = capsys.readouterr().out
    assert "ndcg@10" in table and table.splitlines()[-1].startswith("lift")


def test_main_seed_flag_overrides_config(planted_config, capsys):
    path = planted_config()
    assert main(["split", "--config", path, "--seed", "99"]) == EXIT_OK
    split_dir = capsys.readouterr().out.strip()
    manifest = json.loads(
        open(os.path.join(split_dir, "manifest.json"), encoding="utf-8").read())
    assert manifest["seed"] == 99


def test_main_output_flag_redirects_artifacts(planted_config, tmp_path, capsys):
    path = planted_config()
    target = str(tmp_path / "elsewhere")
    assert main(["split", "--config", path, "--output", target]) == EXIT_OK
    assert os.path.isdir(os.path.join(target, "splits"))


# ------------------------------------------------------------ failure path

def test_main_evaluate_without_fit_is_a_data_error(planted_config):
    assert main(["evaluate", "--config", planted_config()]) == EXIT_DATA


def test_main_numerical_failure_exit_and_marker(tmp_path):
    rows = ["user,item,value"]
    for u in range(6):
        rows += [f"u{u},a,1", f"u{u},b,1", f"u{u},f{u},1"]
    data = tmp_path / "x.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    meta = tmp_path / "m.csv"
    meta.write_text("item,value\na,t0\nb,t0\n", encoding="utf-8")
    cfg = {
        "seed": 0,
        "data": {"interactions": str(data)},
        "split": {"protocol": "warm", "min_user_clicks": 3, "negatives": 1},
        "attributes": [{"name": "t", "kind": "categorical", "path": str(meta)}],
        "alignment": {"alpha": 0.0},
        "solver": {"name": "mslim", "grid": {"w1": [1.0], "lambda1": [0.0]}},
        "output": str(tmp_path / "out"),
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["run", "--config", str(path)]) == EXIT_NUMERICAL
    assert os.path.exists(tmp_path / "out" / "INCOMPLETE")


def test_main_workers_flag_beats_env(planted_config, monkeypatch, capsys):
    monkeypatch.setenv("ALIGNREC_WORKERS", "not-a-number")
    path = planted_config()
    # a broken env var is a config error when consulted
    assert main(["fit", "--config", path]) == EXIT_CONFIG
    monkeypatch.setenv("ALIGNREC_WORKERS", "2")
    assert main(["fit", "--config", path, "--workers", "1"]) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda raw: raw[:10], id="truncated-header"),
    pytest.param(lambda raw: raw[:-8], id="truncated-theta"),
    pytest.param(lambda raw: raw + b"\0", id="trailing-bytes"),
])
def test_main_evaluate_corrupt_model_is_a_data_error(planted_config, capsys, corrupt):
    path = planted_config()
    assert main(["fit", "--config", path]) == EXIT_OK
    model = os.path.join(capsys.readouterr().out.strip(), "model.bin")
    with open(model, "rb") as fh:
        raw = fh.read()
    with open(model, "wb") as fh:
        fh.write(corrupt(raw))
    assert main(["evaluate", "--config", path]) == EXIT_DATA
