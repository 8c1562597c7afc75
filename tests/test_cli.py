"""Argument parsing and process exit codes for the command-line verbs."""

import json
import os
import pathlib
import shutil
import struct
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import yaml

from alignrec import ConfigError, SolverError, cli, load_model
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
from alignrec.features import write_embeddings_binary, write_embeddings_text


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


def test_main_evaluate_reads_no_interactions_file(planted_config, caplog, capsys):
    # evaluate reads splits/ and model.bin only; the verbs that load the
    # interactions still refuse a missing file before any stage runs
    path = planted_config()
    assert main(["fit", "--config", path]) == EXIT_OK
    data_dir = os.path.join(os.path.dirname(path), "data")
    os.rename(os.path.join(data_dir, "interactions.csv"), os.path.join(data_dir, "moved.csv"))
    assert main(["evaluate", "--config", path]) == EXIT_OK
    caplog.clear()
    assert main(["split", "--config", path]) == EXIT_CONFIG
    assert "interactions file not found" in caplog.text and "stage " not in caplog.text
    capsys.readouterr()


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


@pytest.mark.parametrize("verb", ["fit", "run"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_main_bad_workers_flag_fails_before_any_stage(planted_config, caplog, verb, workers):
    path = planted_config()
    assert main([verb, "--config", path, "--workers", workers]) == EXIT_CONFIG
    assert f"workers must be a positive integer, got {workers}" in caplog.text
    assert "stage " not in caplog.text
    assert not os.path.exists(os.path.join(os.path.dirname(path), "out"))


def test_main_evaluate_reproduces_a_seeded_runs_reports(planted_config, capsys):
    # the reports bootstrap with the split's seed, not the config's
    path = planted_config(seed=7)
    assert main(["run", "--config", path, "--seed", "3"]) == EXIT_OK
    outdir = capsys.readouterr().out.strip()
    names = sorted(n for n in os.listdir(outdir) if n.startswith("report_"))
    assert len(names) == 6
    before = {n: pathlib.Path(outdir, n).read_bytes() for n in names}
    assert main(["evaluate", "--config", path]) == EXIT_OK
    capsys.readouterr()
    assert {n: pathlib.Path(outdir, n).read_bytes() for n in names} == before


def test_main_relative_output_resolves_against_the_config(planted_config, tmp_path,
                                                          monkeypatch, capsys):
    path = planted_config()
    with open(path, encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    cfg["output"] = "rel-out"
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg, fh)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert main(["split", "--config", path]) == EXIT_OK
    capsys.readouterr()
    assert os.path.isdir(os.path.join(os.path.dirname(path), "rel-out", "splits"))
    assert os.listdir(elsewhere) == []


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda raw: raw[:10], id="truncated-header"),
    pytest.param(lambda raw: raw[:-8], id="truncated-theta"),
    pytest.param(lambda raw: raw + b"\0", id="trailing-bytes"),
    pytest.param(lambda raw: raw.replace(b"i00001", b"i\xff0001", 1), id="non-utf8-item-id"),
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


def test_main_evaluate_model_with_a_non_dense_layout_is_a_data_error(planted_config, capsys,
                                                                     caplog):
    # a well-formed file of the former top-k layout (mode 1, keeping all n
    # rows of each column): only the dense mode 0 is read
    path = planted_config()
    assert main(["fit", "--config", path]) == EXIT_OK
    model = os.path.join(capsys.readouterr().out.strip(), "model.bin")
    theta = load_model(model).theta
    n = theta.shape[0]
    with open(model, "rb") as fh:
        raw = fh.read()
    columns = b"".join(np.arange(n, dtype="<u4").tobytes() + theta[:, j].astype("<f8").tobytes()
                       for j in range(n))
    with open(model, "wb") as fh:
        fh.write(raw[:8] + struct.pack("<I", 1) + raw[12:len(raw) - 8 * n * n])
        fh.write(struct.pack("<I", n) + columns)
    assert main(["evaluate", "--config", path]) == EXIT_DATA
    assert f"{model}: model layout mode 1 is not the dense mode 0" in caplog.text


def test_main_evaluate_model_with_other_item_count_is_a_data_error(planted_config, capsys,
                                                                  caplog):
    path = planted_config()
    other = planted_config(n_items=50, name="other")
    outdirs = []
    for config in (path, other):
        assert main(["fit", "--config", config]) == EXIT_OK
        outdirs.append(capsys.readouterr().out.strip())
    for name in ("model.bin", "model.bin.json"):
        shutil.copy(os.path.join(outdirs[1], name), os.path.join(outdirs[0], name))
    assert main(["evaluate", "--config", path]) == EXIT_DATA
    assert "the model has 50 items, the split has 60" in caplog.text


def test_main_evaluate_model_with_other_item_ids_is_a_data_error(planted_config, capsys,
                                                                 caplog):
    path = planted_config()
    assert main(["fit", "--config", path]) == EXIT_OK
    model = os.path.join(capsys.readouterr().out.strip(), "model.bin")
    with open(model, "rb") as fh:
        raw = fh.read()
    with open(model, "wb") as fh:
        fh.write(raw.replace(b"i00001", b"x00001", 1))
    assert main(["evaluate", "--config", path]) == EXIT_DATA
    assert "is 'x00001' in the model but 'i00001' in the split" in caplog.text


@pytest.mark.parametrize("target,stage", [
    pytest.param("splits/manifest.json", "load-split", id="split-manifest"),
    pytest.param("model.bin.json", "load-model", id="model-sidecar"),
])
def test_main_evaluate_truncated_json_is_a_data_error(planted_config, capsys, caplog,
                                                      target, stage):
    path = planted_config()
    assert main(["fit", "--config", path]) == EXIT_OK
    target = os.path.join(capsys.readouterr().out.strip(), target)
    with open(target, "rb") as fh:
        raw = fh.read()
    with open(target, "wb") as fh:
        fh.write(raw[: len(raw) // 2])
    assert main(["evaluate", "--config", path]) == EXIT_DATA
    assert f"stage '{stage}' failed" in caplog.text
    assert f"{target}: not valid JSON" in caplog.text


def test_main_report_truncated_json_is_a_data_error(tmp_path, caplog):
    report = tmp_path / "report_cold.json"
    report.write_text('{"metrics": [', encoding="utf-8")
    assert main(["report", str(report)]) == EXIT_DATA
    assert f"{report}: not valid JSON" in caplog.text


def test_main_split_featurize_and_evaluate_run_after_fit(planted_config, capsys):
    path = planted_config()
    assert main(["fit", "--config", path]) == EXIT_OK
    for verb in ("split", "featurize", "evaluate"):
        assert main([verb, "--config", path]) == EXIT_OK
    capsys.readouterr()


def test_main_interactions_parse_error_names_the_file(planted_config, caplog):
    path = planted_config()
    data = os.path.join(os.path.dirname(path), "data", "interactions.csv")
    _edit_lines(data, lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:])
    assert main(["split", "--config", path]) == EXIT_DATA
    assert f"{data}: line 3: expected 4 fields, got 3" in caplog.text


def _edit_lines(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in edit(lines)))


def _unused_negative(lines):
    """A negatives.csv row for the first user, with an item not yet among its negatives."""
    user = lines[1].split(",")[0]
    taken = {line.split(",")[1] for line in lines[1:] if line.split(",")[0] == user}
    item = min({line.split(",")[1] for line in lines[1:]} - taken)
    return f"{user},{item}"


@pytest.mark.parametrize("protocol,name,edit,message", [
    pytest.param("cold", "train.csv",
                 lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + ",soon"] + lines[2:],
                 "train.csv:2: bad timestamp 'soon'", id="bad-timestamp"),
    pytest.param("cold", "val.csv", lambda lines: lines[:2] + ["lonely"] + lines[2:],
                 "val.csv:3: expected 3 fields, got 1", id="short-row"),
    pytest.param("cold", "test.csv", lambda lines: lines + ["nobody,i00000,1"],
                 "unknown user or item in ['nobody', 'i00000']", id="unknown-user"),
    pytest.param("cold", "train.csv", lambda lines: lines[:2] + [lines[1]] + lines[2:],
                 "train.csv:3: repeated pair", id="repeated-row"),
    pytest.param("warm", "negatives.csv", lambda lines: lines + [_unused_negative(lines)],
                 "negatives file must hold 20 rows per user", id="extra-negative"),
    pytest.param("warm", "negatives.csv", lambda lines: lines + [lines[1]],
                 "repeated pair", id="repeated-negative"),
    pytest.param("cold", "train.csv", lambda lines: [],
                 "train.csv:1: header must be user,item[,value][,timestamp], got []",
                 id="empty-train"),
    pytest.param("cold", "train.csv", lambda lines: ["a,b,c,d"] + lines[1:],
                 "train.csv:1: header must be user,item[,value][,timestamp], "
                 "got ['a', 'b', 'c', 'd']", id="foreign-header"),
])
def test_main_evaluate_corrupt_split_is_a_data_error(planted_config, capsys, caplog,
                                                     protocol, name, edit, message):
    path = planted_config(protocol=protocol, negatives=20)
    assert main(["split", "--config", path]) == EXIT_OK
    _edit_lines(os.path.join(capsys.readouterr().out.strip(), name), edit)
    # load-split runs before load-model, so the missing model is never reached
    assert main(["evaluate", "--config", path]) == EXIT_DATA
    assert "stage 'load-split' failed" in caplog.text and message in caplog.text


@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda m: m.update(seed="abc"), "seed must be an integer, got 'abc'",
                 id="string-seed"),
    pytest.param(lambda m: m.update(cold_item_ids=[]), "cold_item_ids is empty",
                 id="no-cold-item"),
    pytest.param(lambda m: m["cold_item_ids"].append("zzz"),
                 "unknown cold item 'zzz' in cold_item_ids", id="unknown-cold-item"),
    pytest.param(lambda m: m["cold_item_ids"].append(m["cold_item_ids"][0]),
                 "repeated cold item 'i000", id="repeated-cold-item"),
])
def test_main_evaluate_bad_split_manifest_is_a_data_error(planted_config, capsys, caplog,
                                                         edit, message):
    path = planted_config()
    assert main(["split", "--config", path]) == EXIT_OK
    manifest = os.path.join(capsys.readouterr().out.strip(), "manifest.json")
    with open(manifest, encoding="utf-8") as fh:
        payload = json.load(fh)
    edit(payload)
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    assert main(["evaluate", "--config", path]) == EXIT_DATA
    assert "stage 'load-split' failed" in caplog.text
    assert f"{manifest}: {message}" in caplog.text


@pytest.mark.parametrize("verb,name,key", [
    *[pytest.param("split", "manifest.json", key, id=f"manifest-{key}")
      for key in ("user_ids", "item_ids", "protocol", "seed", "files", "files.val",
                  "cold_item_ids")],
    *[pytest.param("fit", "model.bin.json", key, id=f"sidecar-{key}")
      for key in ("config", "diagnostics")],
])
def test_main_evaluate_names_the_file_of_a_missing_key(planted_config, capsys, caplog,
                                                       verb, name, key):
    path = planted_config()
    assert main([verb, "--config", path]) == EXIT_OK
    target = os.path.join(capsys.readouterr().out.strip(), name)
    with open(target, encoding="utf-8") as fh:
        payload = json.load(fh)
    *parents, last = key.split(".")
    entry = payload
    for parent in parents:
        entry = entry[parent]
    del entry[last]
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    assert main(["evaluate", "--config", path]) == EXIT_DATA
    stage = "load-split" if verb == "split" else "load-model"
    assert f"stage '{stage}' failed" in caplog.text
    assert f"{target}: missing key {last!r}" in caplog.text


@pytest.mark.parametrize("cold,message", [
    pytest.param(False, "test.csv: the test item {item!r} of user {user!r} is in that "
                 "user's training history", id="test-pair-in-train"),
    pytest.param(True, "train.csv: user {user!r} clicks the cold item {item!r}",
                 id="click-on-a-cold-item"),
])
def test_main_evaluate_split_with_a_forbidden_training_click_is_a_data_error(
        planted_config, capsys, caplog, cold, message):
    # a test pair, warm or cold, appended to the training clicks
    path = planted_config()
    assert main(["split", "--config", path]) == EXIT_OK
    splits = capsys.readouterr().out.strip()
    with open(os.path.join(splits, "manifest.json"), encoding="utf-8") as fh:
        cold_ids = set(json.load(fh)["cold_item_ids"])
    with open(os.path.join(splits, "test.csv"), encoding="utf-8") as fh:
        rows = [line.split(",")[:2] for line in fh.read().splitlines()[1:]]
    user, item = next((u, i) for u, i in rows if (i in cold_ids) == cold)
    _edit_lines(os.path.join(splits, "train.csv"), lambda lines: lines + [
        ",".join([user, item, "1", "0"][: len(lines[0].split(","))])])
    assert main(["evaluate", "--config", path]) == EXIT_DATA
    assert "stage 'load-split' failed" in caplog.text
    assert os.path.join(splits, message.format(user=user, item=item)) in caplog.text


@pytest.mark.parametrize("target,edit,message", [
    pytest.param("model.bin", lambda raw: raw[:-8] + struct.pack("<d", np.nan),
                 "1 of 60 columns have non-finite weights (first: column 59)", id="nan-weight"),
    pytest.param("model.bin.json", lambda raw: raw.replace(b'"n_items": 60', b'"n_items": 7'),
                 "n_items is 7, the model file holds 60", id="other-item-count"),
    pytest.param("model.bin.json",
                 lambda raw: raw.replace(b'"solver": "ease"', b'"solver": "nonsense"'),
                 "solver 'nonsense' is not one of", id="unknown-solver"),
])
def test_main_evaluate_inconsistent_model_is_a_data_error(planted_config, capsys, caplog,
                                                          target, edit, message):
    path = planted_config()
    assert main(["fit", "--config", path]) == EXIT_OK
    target = os.path.join(capsys.readouterr().out.strip(), target)
    with open(target, "rb") as fh:
        raw = fh.read()
    assert edit(raw) != raw
    with open(target, "wb") as fh:
        fh.write(edit(raw))
    assert main(["evaluate", "--config", path]) == EXIT_DATA
    assert "stage 'load-model' failed" in caplog.text
    assert f"{target}: {message}" in caplog.text


def _write_metadata_csv(path, ids, matrix):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("item,value\n" + "".join(f"{item},t\n" for item in ids))


_WRITERS = {".tsv": write_embeddings_text, ".bin": write_embeddings_binary,
            ".csv": _write_metadata_csv}


@pytest.mark.parametrize("suffix,corrupt,message", [
    pytest.param(".tsv", lambda raw: raw.replace(b"\t0.5,", b"\t0.5,abc,", 1),
                 "bad embedding value", id="text-bad-float"),
    pytest.param(".tsv", lambda raw: raw.replace(b"i00000", b"i\xff0000", 1),
                 "not UTF-8", id="text-bad-id"),
    pytest.param(".tsv", lambda raw: raw.replace(b"i00001", b"i00000", 1),
                 "emb.tsv:3: repeated id 'i00000'", id="text-repeated-id"),
    pytest.param(".tsv", lambda raw: raw.replace(b"\ni", b"\nx"),
                 "emb.tsv: no embedding id matches the dataset items", id="text-no-match"),
    pytest.param(".tsv", lambda raw: raw.replace(b"\t0.5,", b"\tnan,", 1),
                 "emb.tsv:2: non-finite embedding value in 'nan,0.5'", id="text-nan"),
    pytest.param(".bin",
                 lambda raw: raw.replace(struct.pack("<d", 0.5), struct.pack("<d", np.inf), 1),
                 "emb.bin: non-finite embedding value for id 'i00000'", id="binary-inf"),
    pytest.param(".bin", lambda raw: raw.replace(b"i00000", b"i\xff0000", 1),
                 "is not UTF-8", id="binary-bad-id"),
    pytest.param(".bin", lambda raw: raw.replace(b"i00001", b"i00000", 1),
                 "emb.bin: repeated id 'i00000'", id="binary-repeated-id"),
    pytest.param(".bin", lambda raw: raw[:12], "truncated", id="binary-truncated-header"),
    pytest.param(".bin", lambda raw: raw + b"\0", "trailing bytes", id="binary-trailing-bytes"),
    pytest.param(".csv", lambda raw: raw.replace(b"i00001,t", b"i00001,t,u", 1),
                 "emb.csv:3: expected 2 fields, got 3", id="metadata-wide-row"),
])
def test_main_featurize_corrupt_embeddings_is_a_data_error(planted_config, caplog,
                                                           suffix, corrupt, message):
    path = planted_config()
    emb = os.path.join(os.path.dirname(path), "emb" + suffix)
    _WRITERS[suffix](emb, [f"i{j:05d}" for j in range(60)], np.full((60, 2), 0.5))
    with open(emb, "rb") as fh:
        raw = fh.read()
    with open(emb, "wb") as fh:
        fh.write(corrupt(raw))
    with open(path, encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    kind = "categorical" if suffix == ".csv" else "embedding_file"
    cfg["attributes"] = [{"name": "emb", "kind": kind, "path": emb}]
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg, fh)
    assert main(["featurize", "--config", path]) == EXIT_DATA
    assert message in caplog.text


@pytest.mark.parametrize("prepare,verb,target,old", [
    pytest.param(None, "split", "data/interactions.csv", b"u00001", id="interactions"),
    pytest.param(None, "featurize", "data/topic.csv", b"t01", id="metadata-csv"),
    pytest.param("split", "evaluate", "out/splits/train.csv", b"u00001", id="split-csv"),
])
def test_main_non_utf8_data_is_a_data_error(planted_config, capsys, caplog,
                                            prepare, verb, target, old):
    path = planted_config()
    if prepare:
        assert main([prepare, "--config", path]) == EXIT_OK
    target = os.path.join(os.path.dirname(path), target)
    with open(target, "rb") as fh:
        raw = fh.read()
    assert old in raw
    with open(target, "wb") as fh:
        fh.write(raw.replace(old, old[:1] + b"\xff" + old[2:], 1))
    assert main([verb, "--config", path]) == EXIT_DATA
    assert "not UTF-8" in caplog.text and os.path.basename(target) in caplog.text
    capsys.readouterr()


@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda c: c.update(split="cold"), "split must be a mapping, got 'cold'",
                 id="split-not-a-mapping"),
    pytest.param(lambda c: c.update(seed=[1]), "seed must be an integer, got [1]",
                 id="seed-not-an-integer"),
    pytest.param(lambda c: c.update(attributes=5), "attributes must be a list, got 5",
                 id="attributes-not-a-list"),
    pytest.param(lambda c: c["alignment"].update(alpah=0.0),
                 "key 'alpah' not valid for alignment", id="alignment-unknown-key"),
    pytest.param(lambda c: c["solver"].update(nmae="mslim"),
                 "key 'nmae' not valid for solver", id="solver-unknown-key"),
    pytest.param(lambda c: c.update(evaluation={"fraction": 0}),
                 "evaluation.fraction must be in (0, 1], got 0", id="zero-fraction"),
    pytest.param(lambda c: c.update(evaluation={"ks": [0], "metrics": ["map"]}),
                 "evaluation.metrics must be a nonempty list drawn from ('hr', 'ndcg'), "
                 "got ['map']", id="unknown-metric"),
    pytest.param(lambda c: c.update(evaluation={"ks": [0]}),
                 "evaluation.ks must be a nonempty list of positive integers, got [0]",
                 id="zero-k"),
    pytest.param(lambda c: c.update(evaluation={"ks": ["10"], "resamples": 0}),
                 "evaluation.ks must be a nonempty list of positive integers, got ['10']",
                 id="string-k"),
    pytest.param(lambda c: c.update(evaluation={"resamples": 0}),
                 "evaluation.resamples must be a positive integer, got 0", id="zero-resamples"),
    pytest.param(lambda c: c["solver"].update(grid={"lambda1": [0]}),
                 "solver.grid point {'lambda1': 0}: lambda1 must be finite and > 0, got 0",
                 id="zero-lambda1"),
    pytest.param(lambda c: c["alignment"].update(decay="linear"),
                 "alignment: decay must be one of", id="unknown-decay"),
    pytest.param(lambda c: c["alignment"].update(delta=-1),
                 "alignment: delta must be finite and >= 0, got -1", id="negative-delta"),
    pytest.param(lambda c: c["alignment"].update(alpha=float("nan")),
                 "alignment: alpha must be finite and >= 0, got nan", id="nan-alpha"),
    pytest.param(lambda c: c["alignment"].update(beta=float("inf")),
                 "alignment: beta must be finite and >= 0, got inf", id="infinite-beta"),
    pytest.param(lambda c: c["solver"].update(grid={"lambda1": [float("nan")]}),
                 "lambda1 must be finite and > 0, got nan", id="nan-lambda1"),
    pytest.param(lambda c: c["solver"].update(name="mslim", grid={"gamma1": [float("inf")]}),
                 "gamma1 must be finite and >= 0, got inf", id="infinite-gamma1"),
    pytest.param(lambda c: c.update(sed=3), "key 'sed' not valid for config", id="top-typo"),
    pytest.param(lambda c: c.update(workers=0), "workers must be a positive integer, got 0",
                 id="zero-workers"),
    pytest.param(lambda c: c["solver"].update(name="itemknn", grid={"alpha": [0.5, 2.0]}),
                 "key 'alpha' not valid for itemknn grid (valid: none)", id="itemknn-alpha"),
    pytest.param(lambda c: c.update(output=5), "output must be a path, got 5", id="bad-output"),
    pytest.param(lambda c: c["data"].update(format="parquet"),
                 "data.format must be csv or tsv, got 'parquet'", id="unknown-format"),
    pytest.param(lambda c: c["data"].update(binarize_threshold="high"),
                 "data.binarize_threshold must be a number, got 'high'", id="bad-threshold"),
    pytest.param(lambda c: c["split"].update(cold_fraction=1.5),
                 "split.cold_fraction must be in (0, 1), got 1.5", id="cold-fraction-above-1"),
    pytest.param(lambda c: c["split"].update(fractions=[0.5, 0.5, 0.5]),
                 "split.fractions must be three non-negative numbers that sum to 1",
                 id="fractions-sum"),
    pytest.param(lambda c: c["split"].update(negatives=0),
                 "split.negatives must be a positive integer, got 0", id="zero-negatives"),
    pytest.param(lambda c: c["attributes"][0].update(vocab=5),
                 "key 'vocab' not valid for attributes[0]", id="attribute-typo"),
    pytest.param(lambda c: c["attributes"][0].update(vocab_size="big"),
                 "attributes[0].vocab_size must be a positive integer, got 'big'",
                 id="bad-vocab-size"),
    pytest.param(lambda c: c["alignment"].update(mu_grid=[{"first_order": [1.0],
                                                           "second_ordr": []}]),
                 "key 'second_ordr' not valid for alignment.mu_grid[0]", id="mu-grid-typo"),
])
def test_main_run_rejects_bad_config_before_any_stage(planted_config, caplog, edit, message):
    path = planted_config()
    with open(path, encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    edit(cfg)
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg, fh)
    assert main(["run", "--config", path]) == EXIT_CONFIG
    assert message in caplog.text
    assert "stage " not in caplog.text
    # the output directory (and so its INCOMPLETE marker) is never made
    assert not os.path.exists(os.path.join(os.path.dirname(path), "out"))


def test_main_non_utf8_config_is_a_config_error(planted_config, caplog):
    path = planted_config()
    with open(path, "ab") as fh:
        fh.write(b"# \xff\n")
    assert main(["run", "--config", path]) == EXIT_CONFIG
    assert "not valid YAML" in caplog.text


# ------------------------------------------------------------------ memory

def test_main_keeps_freed_heap_through_mallopt(planted_config, capsys):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    with mock.patch("alignrec.cli.ctypes.CDLL", return_value=SimpleNamespace(mallopt=mallopt)):
        assert main(["split", "--config", planted_config()]) == EXIT_OK
    assert calls == [(cli._M_MMAP_THRESHOLD, 32 << 20), (cli._M_TRIM_THRESHOLD, 64 << 20)]


@pytest.mark.parametrize("missing", [OSError("no libc"), AttributeError("mallopt"),
                                     TypeError("no handle")])
def test_main_runs_without_mallopt(planted_config, capsys, missing):
    with mock.patch("alignrec.cli.ctypes.CDLL", side_effect=missing):
        assert main(["split", "--config", planted_config()]) == EXIT_OK
