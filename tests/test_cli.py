import csv
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import helpers
import survfuse
from survfuse import cli
from survfuse.cli import main
from survfuse.datakit import SplitSet
from survfuse.netmodel import load_checkpoint
from survfuse.surveval import build_metrics


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main(["synth", "--patients", "40", "--genes", "12", "--causal", "4",
               "--censor", "0.3", "--noise", "0.1", "--seed", "0",
               "--embedding-dim", "7", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def splits_file(data_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("splits") / "splits.json"
    rc = main(["splits", "--clinical", str(data_dir / "clinical.csv"),
               "--reps", "2", "--seed", "0", "--out", str(path)])
    assert rc == 0
    return path


def write_config(path, data_dir, splits_file, out_dir, **extra):
    cfg = {
        "variant": "fused",
        "schedule": "alternate",
        "preset": "mmmt-default",
        "epochs": 2,
        "lr": 1e-3,
        "batch": 16,
        "dropout": 0.1,
        "seed": 5,
        "expression": str(data_dir / "expression.csv"),
        "embeddings": str(data_dir / "embeddings.csv"),
        "clinical": str(data_dir / "clinical.csv"),
        "edge_list": str(data_dir / "edges.tsv"),
        "splits": str(splits_file),
        "out": str(out_dir),
    }
    cfg.update(extra)
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return path


@pytest.fixture(scope="module")
def trained(data_dir, splits_file, tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    config = write_config(root / "run.json", data_dir, splits_file,
                          root / "out")
    rc = main(["train", str(config), "--rep", "0"])
    assert rc == 0
    return {"config": config, "out": root / "out"}


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_writes_four_files(data_dir):
    for name in ("clinical.csv", "expression.csv", "embeddings.csv",
                 "edges.tsv"):
        assert (data_dir / name).is_file()
    rows = read_rows(data_dir / "clinical.csv")
    assert rows[0] == ["sample_id", "patient_id", "time_days", "event",
                       "grade"]
    assert len(rows) == 41


def test_synth_reruns_are_checksum_identical(data_dir, tmp_path):
    rc = main(["synth", "--patients", "40", "--genes", "12", "--causal", "4",
               "--censor", "0.3", "--noise", "0.1", "--seed", "0",
               "--embedding-dim", "7", "--out", str(tmp_path)])
    assert rc == 0
    for name in ("clinical.csv", "expression.csv", "embeddings.csv",
                 "edges.tsv"):
        assert sha(tmp_path / name) == sha(data_dir / name), name


def test_synth_zero_censoring(tmp_path):
    rc = main(["synth", "--patients", "10", "--genes", "6", "--causal", "2",
               "--censor", "0", "--noise", "0", "--seed", "3",
               "--embedding-dim", "4", "--out", str(tmp_path)])
    assert rc == 0
    rows = read_rows(tmp_path / "clinical.csv")[1:]
    assert all(row[3] == "1" for row in rows)


def test_synth_missing_required_flag_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--patients", "10", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--genes" in capsys.readouterr().err


def test_synth_bad_parameters_exit_2(tmp_path):
    rc = main(["synth", "--patients", "10", "--genes", "5", "--causal", "9",
               "--out", str(tmp_path)])
    assert rc == 2


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def test_splits_default_is_fifteen_reps(data_dir, tmp_path):
    path = tmp_path / "splits.json"
    rc = main(["splits", "--clinical", str(data_dir / "clinical.csv"),
               "--out", str(path)])
    assert rc == 0
    split_set = SplitSet.load(path)
    assert len(split_set.repetitions) == 15
    assert split_set.train_frac == 0.8
    assert split_set.grouping == "patient"
    # 40 patients at 0.8 -> 32 train / 8 test
    assert len(split_set.repetitions[0][0]) == 32
    assert len(split_set.repetitions[0][1]) == 8


def test_splits_reruns_byte_identical(data_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["splits", "--clinical",
                     str(data_dir / "clinical.csv"), "--seed", "4",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_splits_bad_fraction_exits_2(data_dir, tmp_path):
    rc = main(["splits", "--clinical", str(data_dir / "clinical.csv"),
               "--train-frac", "1.5", "--out", str(tmp_path / "s.json")])
    assert rc == 2


def test_splits_unreadable_input_exits_1(tmp_path, capsys):
    rc = main(["splits", "--clinical", str(tmp_path / "absent.csv"),
               "--out", str(tmp_path / "s.json")])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_run_artifacts(trained):
    out = trained["out"]
    assert (out / "run_config.json").is_file()
    rep = out / "rep00"
    for artifact in ("final/manifest.json", "best/manifest.json",
                     "history.csv", "summary.json"):
        assert (rep / artifact).is_file(), artifact
    echo = json.loads((out / "run_config.json").read_text())
    assert echo["variant"] == "fused" and echo["epochs"] == 2


def test_train_summary_echoes_profile(trained):
    summary = json.loads((trained["out"] / "rep00" / "summary.json")
                         .read_text())
    assert summary["profile"] == {
        "epochs": 2, "base_lr": 1e-3, "weight_decay": 4e-4,
        "batch_size": 16, "dropout_p": 0.1, "seed": 5}
    assert summary["rep"] == 0
    assert summary["n_train"] == 32 and summary["n_test"] == 8
    metrics = summary["test_metrics"]
    assert metrics["c_index"] is not None
    assert metrics["micro_f1"] is not None
    assert summary["mask_nonzeros"] >= summary["n_genes"]


def test_train_preset_defaults_echoed_without_overrides(data_dir, splits_file,
                                                        tmp_path):
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out", epochs=0, lr=None, batch=None,
                          dropout=None, seed=None)
    assert main(["train", str(config)]) == 0
    summary = json.loads((tmp_path / "out" / "rep00" / "summary.json")
                         .read_text())
    assert summary["profile"] == {
        "epochs": 0, "base_lr": 1e-4, "weight_decay": 4e-4,
        "batch_size": 32, "dropout_p": 0.25, "seed": 0}


def test_train_stdout_reports_metrics(data_dir, splits_file, tmp_path, capsys):
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out")
    assert main(["train", str(config), "--rep", "1"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("rep 1: c_index=")
    assert "micro_f1=" in line


def test_train_rerun_is_bit_identical(trained, data_dir, splits_file,
                                      tmp_path):
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out")
    assert main(["train", str(config), "--rep", "0"]) == 0
    first = trained["out"] / "rep00"
    second = tmp_path / "out" / "rep00"
    assert (first / "summary.json").read_bytes() == \
        (second / "summary.json").read_bytes()
    assert (first / "history.csv").read_bytes() == \
        (second / "history.csv").read_bytes()
    for name in sorted(p.name for p in (first / "final").iterdir()):
        assert sha(first / "final" / name) == sha(second / "final" / name), name


@pytest.mark.parametrize("variant,modality", [
    ("fused", "embeddings"), ("gene-only", "expression"),
    ("image-only", "embeddings")])
def test_train_drops_samples_missing_a_needed_modality(
        data_dir, splits_file, tmp_path, capsys, variant, modality):
    """A run on a cohort with one row of a modality its variant needs removed
    drops that sample from the cohort and the splits, warns once on stderr,
    and trains; eval of the checkpoint applies the same rule."""
    rows = (data_dir / f"{modality}.csv").read_text().splitlines(keepends=True)
    dropped = rows[1].split(",", 1)[0]
    (tmp_path / f"{modality}.csv").write_text("".join(rows[:1] + rows[2:]))
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out", variant=variant,
                          **{modality: str(tmp_path / f"{modality}.csv")})
    capsys.readouterr()
    assert main(["train", str(config), "--rep", "0"]) == 0
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"warning: dropped 1 samples missing a modality the {variant} "
        "variant needs",
        "warning: dropped 1 split sample ids not in the loaded cohort"]
    summary = json.loads((tmp_path / "out" / "rep00" / "summary.json")
                         .read_text())
    train_ids, test_ids = SplitSet.load(splits_file).repetitions[0]
    assert dropped in train_ids + test_ids
    assert summary["n_train"] + summary["n_test"] == \
        len(train_ids) + len(test_ids) - 1
    out = tmp_path / "metrics.json"
    assert main(["eval", "--config", str(config), "--model",
                 str(tmp_path / "out" / "rep00" / "final"), "--rep", "0",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == summary["test_metrics"]
    assert "dropped 1 samples" in capsys.readouterr().err


def test_train_all_reps_aggregates(data_dir, splits_file, tmp_path):
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out")
    assert main(["train", str(config), "--all-reps"]) == 0
    assert (tmp_path / "out" / "rep00").is_dir()
    assert (tmp_path / "out" / "rep01").is_dir()
    aggregate = json.loads((tmp_path / "out" / "aggregate.json").read_text())
    assert aggregate["reps"] == 2
    block = aggregate["metrics"]["c_index"]
    assert len(block["values"]) == 2
    assert block["mean"] == pytest.approx(np.mean(block["values"]))
    assert block["std"] == pytest.approx(np.std(block["values"], ddof=1))


def test_train_all_reps_writes_what_single_rep_runs_write(data_dir,
                                                          splits_file,
                                                          tmp_path):
    """Each repetition of --all-reps, the last one trained after the
    unstandardized cohort is released, writes the bytes a --rep run does."""
    config = write_config(tmp_path / "all.json", data_dir, splits_file,
                          tmp_path / "all")
    assert main(["train", str(config), "--all-reps"]) == 0
    for rep in (0, 1):
        config = write_config(tmp_path / f"rep{rep}.json", data_dir,
                              splits_file, tmp_path / f"one{rep}")
        assert main(["train", str(config), "--rep", str(rep)]) == 0
        for name in ("history.csv", "summary.json", "final/params.bin"):
            assert sha(tmp_path / "all" / f"rep{rep:02d}" / name) == \
                sha(tmp_path / f"one{rep}" / f"rep{rep:02d}" / name), \
                (rep, name)


class _StopAtTrain(Exception):
    pass


def test_train_holds_one_expression_matrix_when_training(tmp_path,
                                                         monkeypatch):
    """At the entry of train() under `train --rep 0`, the traced memory
    holds the standardized expression matrix and the network, and no
    unstandardized copy of the matrix."""
    data = tmp_path / "data"
    assert main(["synth", "--patients", "600", "--genes", "400", "--causal",
                 "4", "--seed", "3", "--embedding-dim", "2",
                 "--out", str(data)]) == 0
    splits = tmp_path / "splits.json"
    assert main(["splits", "--clinical", str(data / "clinical.csv"),
                 "--reps", "1", "--out", str(splits)]) == 0
    config = write_config(tmp_path / "run.json", data, splits,
                          tmp_path / "out", variant="gene-only",
                          schedule="survival-only", preset="smst-gene")
    held = {}

    def stop_at_train(network, cohort, *args, **kwargs):
        held["matrix"] = cohort.expression.nbytes
        held["other"] = (tracemalloc.get_traced_memory()[0]
                         - network.param_vector.nbytes)
        raise _StopAtTrain

    monkeypatch.setattr("survfuse.cli.train", stop_at_train)
    tracemalloc.start()
    try:
        with pytest.raises(_StopAtTrain):
            main(["train", str(config), "--rep", "0"])
    finally:
        tracemalloc.stop()
    assert held["matrix"] >= 600 * 300 * 8
    assert held["matrix"] < held["other"] < 1.5 * held["matrix"]


def test_train_gene_only_survival_run(data_dir, splits_file, tmp_path):
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out", variant="gene-only",
                          schedule="survival-only", epochs=1)
    assert main(["train", str(config)]) == 0
    summary = json.loads((tmp_path / "out" / "rep00" / "summary.json")
                         .read_text())
    assert summary["heads"] == "survival"
    assert summary["test_metrics"]["c_index"] is not None
    assert summary["test_metrics"]["micro_f1"] is None


def test_train_incompatible_heads_fail_fast(data_dir, splits_file, tmp_path,
                                            capsys):
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out", heads="survival")
    assert main(["train", str(config)]) == 2
    assert "heads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("schedule,heads", helpers.SCHEDULE_HEAD_COMBOS)
def test_train_accepts_exactly_the_heads_its_schedule_needs(
        data_dir, splits_file, tmp_path, capsys, schedule, heads):
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out", schedule=schedule, heads=heads,
                          epochs=0)
    rc = main(["train", str(config)])
    err = capsys.readouterr().err
    if (schedule, heads) in helpers.ACCEPTED_SCHEDULE_HEADS:
        assert rc == 0, err
    else:
        missing = "survival" if heads == "grade" else "grade"
        assert rc == 2
        assert f"needs a {missing} head" in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("schedule,heads", [
    ("alternate", "both"), ("joint-add", "both"),
    ("survival-only", "survival"), ("grade-only", "grade")])
def test_train_default_heads_follow_schedule(data_dir, splits_file, tmp_path,
                                             schedule, heads):
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out", schedule=schedule, epochs=0)
    assert main(["train", str(config)]) == 0
    summary = json.loads((tmp_path / "out" / "rep00" / "summary.json")
                         .read_text())
    assert summary["heads"] == heads


def test_override_takes_each_flag_named_like_a_config_field():
    """A command's flags replace the config fields of the same name; unset
    flags and fields without a flag keep the file's values."""
    parser = cli._build_parser()
    base = cli.RunConfig(seed=3, clinical="c.csv", expression="x.csv",
                         embeddings="m.csv", edge_list="e.tsv")
    assert base.override(parser.parse_args(["train", "run.json"])) == base
    train = parser.parse_args([
        "train", "run.json", "--variant", "gene-only", "--schedule",
        "joint-add", "--heads", "both", "--preset", "smst-gene", "--epochs",
        "4", "--lr", "0.5", "--weight-decay", "0.25", "--batch", "6",
        "--dropout", "0.125", "--seed", "9", "--splits", "s.json", "--out",
        "o/", "--rep", "2", "--verbose"])
    assert base.override(train) == dataclasses.replace(
        base, variant="gene-only", schedule="joint-add", heads="both",
        preset="smst-gene", epochs=4, lr=0.5, weight_decay=0.25, batch=6,
        dropout=0.125, seed=9, splits="s.json", out="o/")
    evaluate = parser.parse_args([
        "eval", "--config", "run.json", "--model", "m/", "--out", "k.json",
        "--splits", "t.json", "--tie-rule", "strict", "--aggregation",
        "patient"])
    assert base.override(evaluate) == dataclasses.replace(
        base, splits="t.json", out="k.json", tie_rule="strict",
        aggregation="patient")


@pytest.mark.parametrize("value,extra", [
    ("foo", {"variant": "foo"}),
    ("none", {"heads": "none", "schedule": "survival-only"})],
    ids=["variant", "heads"])
def test_train_unknown_choice_in_config_exits_2_before_reading_data(
        data_dir, splits_file, tmp_path, capsys, value, extra):
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out", **extra)
    assert main(["train", str(config)]) == 2
    err = capsys.readouterr().err
    assert repr(value) in err
    assert "dropped" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["variant", "schedule", "heads", "preset"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_unknown_model_choice_in_config_exits_2_before_reading_data(
        data_dir, splits_file, tmp_path, capsys, command, key):
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out", **{key: "weird"})
    if command == "train":
        argv = ["train", str(config)]
    else:
        # The model does not exist: the config check must come first.
        argv = ["eval", "--config", str(config),
                "--model", str(tmp_path / "no-model"),
                "--out", str(tmp_path / "metrics.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"run.json: unknown {key} 'weird' (choose from " in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,choices", [
    (["train", "run.json", "--variant"], ("gene-only", "image-only", "fused")),
    (["train", "run.json", "--schedule"],
     ("alternate", "joint-add", "survival-only", "grade-only")),
    (["train", "run.json", "--heads"], ("survival", "grade", "both")),
    (["eval", "--out", "m.json", "--require"], ("survival", "grade", "both")),
    (["train", "run.json", "--preset"],
     ("mmmt-default", "smst-gene", "smst-image")),
    (["eval", "--out", "m.json", "--tie-rule"], ("half", "strict")),
    (["eval", "--out", "m.json", "--aggregation"], ("sample", "patient")),
])
def test_choice_flags_list_every_table_key(capsys, argv, choices):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(choice in err for choice in choices)


@pytest.mark.parametrize("flag, value, type_name", [
    ("--epochs", "1.5", "int"), ("--lr", "abc", "float")])
def test_number_flags_take_their_config_type(capsys, flag, value, type_name):
    """A key flag parses its value as the key's JSON type."""
    with pytest.raises(SystemExit) as exc:
        main(["train", "run.json", flag, value])
    assert exc.value.code == 2
    assert (f"argument {flag}: invalid {type_name} value: {value!r}"
            in capsys.readouterr().err)


def test_train_rep_out_of_range_exits_2(data_dir, splits_file, tmp_path):
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out")
    assert main(["train", str(config), "--rep", "5"]) == 2


def test_train_unknown_config_key_exits_2(data_dir, splits_file, tmp_path,
                                          capsys):
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out", learning_rate=0.1)
    assert main(["train", str(config)]) == 2
    assert "learning_rate" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("epochs", "3"), ("seed", 1.5), ("seed", "7"), ("lr", "1e-3"),
    ("dropout", [0.1]), ("out", 5), ("splits", 7), ("epochs", True)])
def test_mistyped_config_value_exits_2_before_reading_data(
        data_dir, splits_file, tmp_path, capsys, key, value):
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out", **{key: value})
    assert main(["train", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"run.json: {key} must be" in err and repr(value) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["flag", "file"])
def test_train_negative_seed_exits_2_before_reading_or_writing(
        data_dir, tmp_path, capsys, where):
    """The splits path names no file, which would fail first (exit 1) if
    any input were read before the seed is checked."""
    config = write_config(tmp_path / "run.json", data_dir,
                          tmp_path / "absent.json", tmp_path / "out",
                          **({"seed": -1} if where == "file" else {}))
    args = ["train", str(config)] + (["--seed", "-1"] if where == "flag"
                                     else [])
    assert main(args) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["synth", "splits"])
def test_negative_seed_exits_2_and_writes_nothing(data_dir, tmp_path, capsys,
                                                  command):
    out = tmp_path / "out"
    args = (["synth", "--patients", "10", "--genes", "6", "--causal", "2",
             "--embedding-dim", "2", "--out", str(out)]
            if command == "synth" else
            ["splits", "--clinical", str(data_dir / "clinical.csv"),
             "--out", str(out)])
    assert main(args + ["--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("flag,value,field", [
    ("--lr", "nan", "base_lr"), ("--lr", "inf", "base_lr"),
    ("--weight-decay", "nan", "weight_decay"),
    ("--weight-decay", "inf", "weight_decay")])
def test_non_finite_rate_flag_exits_2_before_reading_data(
        data_dir, splits_file, tmp_path, capsys, flag, value, field):
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out")
    assert main(["train", str(config), flag, value]) == 2
    err = capsys.readouterr().err
    assert f"{field} must be" in err and value in err
    assert "dropped" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,field", [("lr", "base_lr"),
                                       ("weight_decay", "weight_decay")])
def test_non_finite_rate_in_config_exits_2_before_reading_data(
        data_dir, splits_file, tmp_path, capsys, key, field):
    # json writes and reads NaN, so run.json can carry one.
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out", **{key: float("nan")})
    assert "NaN" in config.read_text()
    assert main(["train", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"{field} must be" in err and "nan" in err
    assert not (tmp_path / "out").exists()


def test_config_number_fields_take_integers_and_null(data_dir, splits_file,
                                                     tmp_path):
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out", lr=1, weight_decay=None, epochs=1)
    assert main(["train", str(config)]) == 0


@pytest.mark.parametrize("key", ["tie_rule", "aggregation"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_unknown_scoring_choice_in_config_exits_2_before_reading_data(
        trained, data_dir, splits_file, tmp_path, capsys, command, key):
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out", **{key: "weird"})
    if command == "train":
        argv = ["train", str(config)]
    else:
        argv = ["eval", "--config", str(config),
                "--model", str(trained["out"] / "rep00" / "final"),
                "--out", str(tmp_path / "metrics.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert key in err and "'weird'" in err and "run.json" in err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "metrics.json").exists()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["train", "eval"])
def test_duplicate_expression_column_exits_1(trained, data_dir, splits_file,
                                             tmp_path, capsys, command):
    """A header that repeats a gene is rejected by train and by eval of a
    checkpoint alike, naming the file, line and column."""
    rows = read_rows(data_dir / "expression.csv")
    assert rows[0][1] == "G0001"
    expression = tmp_path / "expression.csv"
    with open(expression, "w", newline="") as fh:
        csv.writer(fh).writerows([rows[0] + ["G0001"]]
                                 + [row + ["0.0"] for row in rows[1:]])
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out", expression=str(expression))
    args = {"train": ["train", str(config), "--rep", "0"],
            "eval": ["eval", "--config", str(config), "--model",
                     str(trained["out"] / "rep00" / "final"), "--rep", "0",
                     "--out", str(tmp_path / "metrics.json")]}[command]
    capsys.readouterr()
    assert main(args) == 1
    assert capsys.readouterr().err == \
        "error: expression.csv:1: duplicate column 'G0001'\n"
    assert not (tmp_path / "metrics.json").exists()


def test_eval_matches_training_report(trained, tmp_path):
    out = tmp_path / "metrics.json"
    rc = main(["eval", "--config", str(trained["config"]),
               "--model", str(trained["out"] / "rep00" / "final"),
               "--rep", "0", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    for key in ("c_index", "micro_auc", "micro_ap", "micro_f1", "accuracy",
                "f1_per_class"):
        assert report[key] is not None, key
    summary = json.loads((trained["out"] / "rep00" / "summary.json")
                         .read_text())
    assert report == summary["test_metrics"]


def test_patient_aggregation_rejects_samples_that_disagree(
        trained, data_dir, splits_file, tmp_path, capsys):
    """Two test samples given one patient: eval per patient fails naming
    the patient while their survival labels differ, and scores once they
    agree."""
    first, second = SplitSet.load(splits_file).repetitions[0][1][:2]
    rows = read_rows(data_dir / "clinical.csv")
    by_id = {row[0]: row for row in rows[1:]}
    patient = by_id[first][1]
    by_id[second][1] = patient
    assert by_id[first][2:4] != by_id[second][2:4]
    clinical = tmp_path / "clinical.csv"

    def write_clinical():
        with open(clinical, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    write_clinical()
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out", clinical=str(clinical),
                          aggregation="patient")
    out = tmp_path / "metrics.json"
    args = ["eval", "--config", str(config), "--model",
            str(trained["out"] / "rep00" / "final"), "--rep", "0",
            "--out", str(out)]
    capsys.readouterr()
    assert main(args) == 1
    assert capsys.readouterr().err == (
        f"error: patient {patient!r}: samples disagree on time_days or "
        "event\n")
    assert not out.exists()
    by_id[second][2:4] = by_id[first][2:4]
    write_clinical()
    assert main(args) == 0
    assert out.is_file()


def test_eval_require_matches_heads(trained, data_dir, splits_file, tmp_path,
                                    capsys):
    out = tmp_path / "metrics.json"
    models = {"both": (trained["config"], trained["out"] / "rep00" / "final")}
    for heads, variant, schedule in (("survival", "gene-only", "survival-only"),
                                     ("grade", "fused", "grade-only")):
        config = write_config(tmp_path / f"{heads}.json", data_dir,
                              splits_file, tmp_path / heads, variant=variant,
                              schedule=schedule, epochs=0)
        assert main(["train", str(config)]) == 0
        models[heads] = (config, tmp_path / heads / "rep00" / "final")
    capsys.readouterr()
    # --require passes exactly when the model has every head it names.
    accepted = {("survival", "survival"), ("survival", "both"),
                ("grade", "grade"), ("grade", "both"), ("both", "both")}
    for require in ("survival", "grade", "both"):
        for heads, (config, model) in models.items():
            rc = main(["eval", "--config", str(config), "--model", str(model),
                       "--require", require, "--out", str(out)])
            err = capsys.readouterr().err
            if (require, heads) in accepted:
                assert rc == 0, (require, heads, err)
            else:
                missing = "survival" if heads == "grade" else "grade"
                assert rc == 2, (require, heads)
                assert f"without a {missing} head" in err


def test_eval_risks_bypass_equals_direct_metrics(data_dir, tmp_path):
    rows = read_rows(data_dir / "clinical.csv")[1:]
    risks_path = tmp_path / "risks.csv"
    with open(risks_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "risk"])
        for row in rows:
            writer.writerow([row[0], repr(-float(row[2]))])
    out = tmp_path / "metrics.json"
    rc = main(["eval", "--risks", str(risks_path),
               "--clinical", str(data_dir / "clinical.csv"),
               "--out", str(out)])
    assert rc == 0
    expect = build_metrics(
        risks=[-float(r[2]) for r in rows],
        times=[float(r[2]) for r in rows],
        events=[int(r[3]) for r in rows])
    assert json.loads(out.read_text()) == expect


def test_eval_risks_and_model_conflict(trained, tmp_path):
    rc = main(["eval", "--risks", str(tmp_path / "r.csv"),
               "--model", "somewhere", "--out", str(tmp_path / "m.json")])
    assert rc == 2


@pytest.mark.parametrize("flag, value", [
    ("--config", "nope.json"), ("--splits", "nope.json"), ("--rep", "7"),
    ("--aggregation", "patient")])
def test_eval_risks_refuses_the_model_flags(tmp_path, capsys, flag, value):
    """Only a model is scored with a run config, a split file, a repetition
    and an aggregation; --risks refuses each before it reads any input."""
    out = tmp_path / "m.json"
    rc = main(["eval", "--risks", str(tmp_path / "absent.csv"),
               "--clinical", str(tmp_path / "absent.csv"), flag, value,
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: eval {flag} is only read with --model; --risks scores the "
        "risks file as given\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "km"])
@pytest.mark.parametrize("drop_last", [False, True],
                         ids=["extra-row", "extra-and-missing"])
def test_risk_row_for_an_unknown_sample_exits_1(data_dir, tmp_path, capsys,
                                                command, drop_last):
    """A risks row for a sample the clinical table lacks is an error, as an
    expression row is, and is reported before a clinical sample the file
    lacks."""
    clinical = read_rows(data_dir / "clinical.csv")[1:]
    kept = clinical[:-1] if drop_last else clinical
    risks = tmp_path / "risks.csv"
    risks.write_text("sample_id,risk\n" + "".join(
        f"{row[0]},{i}\n" for i, row in enumerate(kept))
        + "NOT-A-SAMPLE,0.5\n")
    out = tmp_path / "out.csv"
    rc = main([command, "--risks", str(risks), "--clinical",
               str(data_dir / "clinical.csv"), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: risks.csv: sample 'NOT-A-SAMPLE' not in clinical table\n")
    assert not out.exists()


def test_eval_missing_sample_in_risks_exits_1(data_dir, tmp_path, capsys):
    risks_path = tmp_path / "risks.csv"
    risks_path.write_text("sample_id,risk\nP0001-S01,0.5\n")
    rc = main(["eval", "--risks", str(risks_path),
               "--clinical", str(data_dir / "clinical.csv"),
               "--out", str(tmp_path / "m.json")])
    assert rc == 1
    assert "missing sample" in capsys.readouterr().err


def test_eval_risks_overlong_field_exits_1(data_dir, tmp_path, capsys):
    risks_path = tmp_path / "risks.csv"
    risks_path.write_text("sample_id,risk\nS1,0.5\nS2," + "9" * 131073 + "\n")
    rc = main(["eval", "--risks", str(risks_path),
               "--clinical", str(data_dir / "clinical.csv"),
               "--out", str(tmp_path / "m.json")])
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: risks.csv:3: field larger than field limit (131072)\n"


def test_eval_without_model_or_risks_exits_2(tmp_path):
    assert main(["eval", "--out", str(tmp_path / "m.json")]) == 2


def test_eval_risks_without_clinical_names_the_flag(tmp_path, capsys):
    rc = main(["eval", "--risks", str(tmp_path / "r.csv"),
               "--out", str(tmp_path / "m.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--clinical" in err and "run config" not in err


def test_eval_clinical_needs_risks(trained, tmp_path, capsys):
    """A model is scored on the run config's clinical file, so a --clinical
    that would be ignored is refused."""
    rc = main(["eval", "--config", str(trained["config"]),
               "--model", str(trained["out"] / "rep00" / "final"),
               "--clinical", str(tmp_path / "absent.csv"),
               "--out", str(tmp_path / "m.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--clinical" in err and "--risks" in err
    assert not (tmp_path / "m.json").exists()


def _resealed_copy(trained, tmp_path, name, data):
    """A copy of the trained final checkpoint whose file ``name`` holds
    ``data``, listed in checksums.txt under its new digest."""
    ckpt = tmp_path / "ckpt"
    shutil.copytree(trained["out"] / "rep00" / "final", ckpt)
    (ckpt / name).write_bytes(data)
    checksums = ckpt / "checksums.txt"
    checksums.write_text("".join(
        f"{sha(ckpt / name)}  {name}\n" if line.endswith("  " + name)
        else line + "\n" for line in checksums.read_text().splitlines()))
    return ckpt


@pytest.mark.parametrize("edit, message", [
    (lambda rows, cols: (rows, np.where(cols == cols.max(), 12, cols)),
     "mask.bin: coordinates out of range [0, 12)"),
    (lambda rows, cols: (rows, np.concatenate((cols[1:2], cols[:1], cols[2:]))),
     "mask.bin: coordinates are not strictly increasing in row-major order"),
], ids=["out-of-range", "unsorted"])
def test_eval_rejects_bad_mask_bin(trained, tmp_path, capsys, edit, message):
    ckpt = trained["out"] / "rep00" / "final"
    rows, cols = np.frombuffer((ckpt / "mask.bin").read_bytes(),
                               "<i4").reshape(2, -1)
    assert rows[0] == rows[1]
    rows, cols = edit(rows, cols)
    data = np.concatenate((rows, cols)).astype("<i4").tobytes()
    ckpt = _resealed_copy(trained, tmp_path, "mask.bin", data)
    rc = main(["eval", "--config", str(trained["config"]),
               "--model", str(ckpt), "--out", str(tmp_path / "m.json")])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.pop("genes"), "manifest.json: missing 'genes'"),
    (lambda m: m.pop("config"), "manifest.json: missing 'config'"),
    (lambda m: m.pop("params"), "manifest.json: missing 'params'"),
    (lambda m: m["config"].update(colour="blue"),
     "manifest.json: NetworkConfig.__init__() got an unexpected keyword "
     "argument 'colour'"),
    (lambda m: m["config"].update(variant="weird"),
     "manifest.json: unknown variant 'weird'"),
    (lambda m: m["genes"].append("EXTRA"), "manifest.json: 13 genes for "
                                           "gene_dim 12"),
    (lambda m: m["config"].update(trunk_dims=[]),
     "manifest.json: trunk_dims must name at least one layer"),
], ids=["no-genes", "no-config", "no-params", "unknown-config-key",
        "unknown-variant", "extra-gene", "empty-trunk"])
def test_eval_rejects_malformed_manifest(trained, tmp_path, capsys, edit,
                                         message):
    manifest = json.loads(
        (trained["out"] / "rep00" / "final" / "manifest.json").read_text())
    edit(manifest)
    ckpt = _resealed_copy(trained, tmp_path, "manifest.json",
                          json.dumps(manifest).encode())
    rc = main(["eval", "--config", str(trained["config"]),
               "--model", str(ckpt), "--out", str(tmp_path / "m.json")])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_eval_rejects_version_1_checkpoint(trained, tmp_path, capsys):
    manifest = json.loads(
        (trained["out"] / "rep00" / "final" / "manifest.json").read_text())
    manifest["version"] = 1
    ckpt = _resealed_copy(trained, tmp_path, "manifest.json",
                          json.dumps(manifest).encode())
    rc = main(["eval", "--config", str(trained["config"]),
               "--model", str(ckpt), "--out", str(tmp_path / "m.json")])
    assert rc == 1
    assert ("error: checkpoint version 1 is not supported"
            in capsys.readouterr().err)


def test_eval_missing_out_directory_exits_2_before_loading(trained, tmp_path,
                                                           capsys):
    out = tmp_path / "nodir" / "m.json"
    # The model does not exist either: the output check must come first.
    rc = main(["eval", "--config", str(trained["config"]),
               "--model", str(tmp_path / "no-model"), "--out", str(out)])
    assert rc == 2
    assert str(out) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_invalid_splits_json_names_the_file(trained, data_dir, splits_file,
                                            tmp_path, capsys, command):
    bad = tmp_path / "splits.json"
    config = write_config(tmp_path / "run.json", data_dir, bad,
                          tmp_path / "out")
    args = ["train", str(config)] if command == "train" else [
        "eval", "--config", str(config), "--model",
        str(trained["out"] / "rep00" / "final"), "--out",
        str(tmp_path / "m.json")]
    payload = json.loads(splits_file.read_text())
    rep0 = payload["repetitions"][0]
    for body, message in (
            ("", f"invalid JSON in split file {bad}"),
            (json.dumps({**payload, "seed": "x"}),
             f"error: malformed split file {bad}"),
            (json.dumps({**payload, "train_frac": "y"}),
             f"error: malformed split file {bad}"),
            (json.dumps({**payload, "repetitions": [
                {**rep0, "train": "P0001-S01"}]}),
             f"error: malformed split file {bad}: train side 'P0001-S01' "
             "is not a list of sample ids"),
            (json.dumps({**payload, "repetitions": [{**rep0, "train": [1]}]}),
             f"error: malformed split file {bad}: train side holds 1, not "
             "a sample id string")):
        bad.write_text(body)
        assert main(args) == 1
        assert message in capsys.readouterr().err


def test_split_file_listing_a_sample_twice_exits_1(data_dir, splits_file,
                                                  tmp_path, capsys):
    """A test side that repeats training ids would score the model on
    samples it trained on; train refuses the file before it trains."""
    payload = json.loads(splits_file.read_text())
    rep0 = payload["repetitions"][0]
    bad = tmp_path / "splits.json"
    bad.write_text(json.dumps({**payload, "repetitions": [
        {"train": rep0["train"] + rep0["train"][:3],
         "test": rep0["test"] + rep0["train"][:5]}]}))
    config = write_config(tmp_path / "run.json", data_dir, bad,
                          tmp_path / "out")
    assert main(["train", str(config), "--rep", "0"]) == 1
    assert capsys.readouterr().err == (
        f"error: malformed split file {bad}: repetition 0: sample "
        f"{rep0['train'][0]!r} is listed twice\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_split_file_is_checked_before_any_data_is_read(
        trained, data_dir, splits_file, tmp_path, capsys, command):
    """A bad split file, or a --rep it does not hold, is reported ahead of
    a data file that is missing."""
    config = tmp_path / "run.json"
    args = ["train", str(config)] if command == "train" else [
        "eval", "--config", str(config), "--model",
        str(trained["out"] / "rep00" / "final"), "--out",
        str(tmp_path / "m.json")]
    bad = tmp_path / "splits.json"
    bad.write_text(json.dumps({"seed": 0}))
    write_config(config, data_dir, bad, tmp_path / "out",
                 clinical=str(tmp_path / "absent.csv"))
    assert main(args) == 1
    assert f"error: malformed split file {bad}" in capsys.readouterr().err

    write_config(config, data_dir, splits_file, tmp_path / "out",
                 expression=str(tmp_path / "absent.csv"))
    assert main(args + ["--rep", "9"]) == 2
    assert "error: --rep 9 outside [0, 2) repetitions" in \
        capsys.readouterr().err


def test_eval_checks_rep_before_reading_the_checkpoint(trained, tmp_path,
                                                       capsys):
    """An out-of-range --rep is reported ahead of a checkpoint that does
    not exist."""
    rc = main(["eval", "--config", str(trained["config"]),
               "--model", str(tmp_path / "nowhere"), "--rep", "99",
               "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: --rep 99 outside [0, 2) repetitions\n"


def test_eval_checks_out_directory_before_reading_the_run_config(
        trained, tmp_path, capsys):
    out = tmp_path / "nodir" / "m.json"
    rc = main(["eval", "--config", str(tmp_path / "nope.json"),
               "--model", str(trained["out"] / "rep00" / "final"),
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: output directory {out.parent} of {out} does not exist\n")


@pytest.mark.parametrize("command", ["train-all-reps", "train-rep", "eval"])
def test_split_file_without_repetitions_exits_1(trained, data_dir, tmp_path,
                                                capsys, command):
    bad = tmp_path / "splits.json"
    bad.write_text(json.dumps({"seed": 0, "train_frac": 0.8,
                               "grouping": "patient", "repetitions": []}))
    config = write_config(tmp_path / "run.json", data_dir, bad,
                          tmp_path / "out")
    out = tmp_path / "m.json"
    args = {"train-all-reps": ["train", str(config), "--all-reps"],
            "train-rep": ["train", str(config), "--rep", "0"],
            "eval": ["eval", "--config", str(config), "--model",
                     str(trained["out"] / "rep00" / "final"),
                     "--out", str(out)]}[command]
    assert main(args) == 1
    assert capsys.readouterr().err == \
        f"error: malformed split file {bad}: no repetitions\n"
    assert not (tmp_path / "out").exists() and not out.exists()


@pytest.mark.parametrize("how", ["given", "emptied"])
@pytest.mark.parametrize("rep_args, empty_rep", [
    (["--rep", "1"], 1), (["--all-reps"], 1)], ids=["rep", "all-reps"])
def test_train_empty_test_side_fails_before_training(
        data_dir, splits_file, tmp_path, capsys, how, rep_args, empty_rep):
    """A test side left empty, as given or once the ids the cohort lacks
    are dropped, fails before any repetition trains; under --all-reps the
    empty side of a later repetition does too."""
    payload = json.loads(splits_file.read_text())
    payload["repetitions"][empty_rep]["test"] = (
        [] if how == "given" else ["absent-1", "absent-2"])
    splits = tmp_path / "splits.json"
    splits.write_text(json.dumps(payload))
    config = write_config(tmp_path / "run.json", data_dir, splits,
                          tmp_path / "out")
    capsys.readouterr()
    assert main(["train", str(config), *rep_args]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"error: repetition {empty_rep} has an empty test side"
    assert not (tmp_path / "out" / "rep00").exists()
    assert not (tmp_path / "out" / f"rep{empty_rep:02d}").exists()


def test_eval_empty_test_side_exits_1(trained, data_dir, splits_file,
                                      tmp_path, capsys):
    payload = json.loads(splits_file.read_text())
    payload["repetitions"][0]["test"] = ["absent-1"]
    splits = tmp_path / "splits.json"
    splits.write_text(json.dumps(payload))
    config = write_config(tmp_path / "run.json", data_dir, splits,
                          tmp_path / "out")
    out = tmp_path / "metrics.json"
    capsys.readouterr()
    assert main(["eval", "--config", str(config), "--model",
                 str(trained["out"] / "rep00" / "final"), "--rep", "0",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == \
        "error: repetition 0 has an empty test side"
    assert not out.exists()


@pytest.mark.parametrize("variant", ["fused", "image-only"])
@pytest.mark.parametrize("how", ["given", "emptied"])
@pytest.mark.parametrize("rep_args", [["--rep", "1"], ["--all-reps"]],
                         ids=["rep", "all-reps"])
def test_train_empty_train_side_fails_before_training(
        data_dir, splits_file, tmp_path, capsys, variant, how, rep_args):
    """A train side left empty in repetition 1 is a data fault (exit 1)
    found before anything trains: under --all-reps repetition 0 is not
    trained first."""
    payload = json.loads(splits_file.read_text())
    payload["repetitions"][1]["train"] = (
        [] if how == "given" else ["absent-1", "absent-2"])
    splits = tmp_path / "splits.json"
    splits.write_text(json.dumps(payload))
    config = write_config(tmp_path / "run.json", data_dir, splits,
                          tmp_path / "out", variant=variant)
    capsys.readouterr()
    assert main(["train", str(config), *rep_args]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == \
        "error: repetition 1 has an empty train side"
    assert not list((tmp_path / "out").glob("rep*"))


def test_eval_empty_train_side_exits_1(trained, data_dir, splits_file,
                                       tmp_path, capsys):
    payload = json.loads(splits_file.read_text())
    payload["repetitions"][0]["train"] = []
    splits = tmp_path / "splits.json"
    splits.write_text(json.dumps(payload))
    config = write_config(tmp_path / "run.json", data_dir, splits,
                          tmp_path / "out")
    out = tmp_path / "metrics.json"
    capsys.readouterr()
    assert main(["eval", "--config", str(config), "--model",
                 str(trained["out"] / "rep00" / "final"), "--rep", "0",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == \
        "error: repetition 0 has an empty train side"
    assert not out.exists()


def _clinical_copy(data_dir, path, edit):
    """Write clinical.csv to ``path`` with ``edit`` applied to its rows
    (a dict from sample id to its row, header excluded)."""
    rows = read_rows(data_dir / "clinical.csv")
    edit({row[0]: row for row in rows[1:]})
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


@pytest.mark.parametrize("rep_args", [["--rep", "1"], ["--all-reps"]],
                         ids=["rep", "all-reps"])
def test_train_patient_labels_disagree_fails_before_training(
        data_dir, splits_file, tmp_path, capsys, rep_args):
    """Under patient aggregation, two test samples of repetition 1 given
    one patient but different labels fail the run before any repetition
    trains or writes a checkpoint."""
    first, second = SplitSet.load(splits_file).repetitions[1][1][:2]
    patient = None

    def join(by_id):
        nonlocal patient
        patient = by_id[second][1] = by_id[first][1]
        assert by_id[first][2:4] != by_id[second][2:4]

    clinical = _clinical_copy(data_dir, tmp_path / "clinical.csv", join)
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out", clinical=str(clinical),
                          aggregation="patient")
    capsys.readouterr()
    assert main(["train", str(config), *rep_args]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: patient {patient!r}: samples disagree on time_days or "
        "event")
    assert not list((tmp_path / "out").glob("rep*"))


def test_train_without_comparable_pairs_fails_before_any_checkpoint(
        data_dir, splits_file, tmp_path, capsys):
    """Every test sample censored leaves no pair to score concordance on:
    the first epoch's evaluation fails, before best/ or final/ is
    written."""
    test_ids = SplitSet.load(splits_file).repetitions[0][1]

    def censor(by_id):
        for sid in test_ids:
            by_id[sid][3] = "0"

    clinical = _clinical_copy(data_dir, tmp_path / "clinical.csv", censor)
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out", clinical=str(clinical))
    capsys.readouterr()
    assert main(["train", str(config), "--rep", "0"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == \
        "error: no comparable pairs for concordance"
    assert not (tmp_path / "out" / "rep00").exists()


# ---------------------------------------------------------------------------
# km
# ---------------------------------------------------------------------------


def km_inputs(tmp_path, rows):
    clinical = tmp_path / "clinical.csv"
    risks = tmp_path / "risks.csv"
    with open(clinical, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "patient_id", "time_days", "event",
                         "grade"])
        for sid, _, time, event in rows:
            writer.writerow([sid, sid, repr(time), event, 0])
    with open(risks, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "risk"])
        for sid, risk, _, _ in rows:
            writer.writerow([sid, repr(risk)])
    return clinical, risks


def test_km_three_even_groups(tmp_path, capsys):
    rows = [(f"S{i}", float(i), float(10 - i), 1) for i in range(9)]
    clinical, risks = km_inputs(tmp_path, rows)
    out = tmp_path / "km.csv"
    rc = main(["km", "--risks", str(risks), "--clinical", str(clinical),
               "--out", str(out)])
    assert rc == 0
    assert "3/3/3" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "group,time,survival,at_risk,events"
    groups = {line.split(",")[0] for line in lines[1:]}
    assert groups == {"Low", "Mid", "High"}
    assert len(lines) == 10


def test_km_no_events_gives_flat_curves(tmp_path):
    rows = [(f"S{i}", float(i), float(i + 1), 0) for i in range(9)]
    clinical, risks = km_inputs(tmp_path, rows)
    out = tmp_path / "km.csv"
    assert main(["km", "--risks", str(risks), "--clinical", str(clinical),
                 "--out", str(out)]) == 0
    assert out.read_text() == "group,time,survival,at_risk,events\n"


def test_km_death_after_last_censoring_drops_to_zero(tmp_path):
    # Low group: two early censorings then a death
    rows = [("S0", 0.0, 1.0, 0), ("S1", 1.0, 2.0, 0), ("S2", 2.0, 5.0, 1),
            ("S3", 5.0, 1.0, 1), ("S4", 6.0, 2.0, 1), ("S5", 7.0, 3.0, 0),
            ("S6", 8.0, 1.5, 1), ("S7", 9.0, 2.5, 1), ("S8", 10.0, 0.5, 1)]
    clinical, risks = km_inputs(tmp_path, rows)
    out = tmp_path / "km.csv"
    assert main(["km", "--risks", str(risks), "--clinical", str(clinical),
                 "--out", str(out)]) == 0
    low = [line.split(",") for line in out.read_text().splitlines()[1:]
           if line.startswith("Low,")]
    assert low == [["Low", "5.0", "0.0", "1", "1"]]


def test_km_svg_output(tmp_path):
    rows = [(f"S{i}", float(i), float(10 - i), 1) for i in range(9)]
    clinical, risks = km_inputs(tmp_path, rows)
    svg = tmp_path / "km.svg"
    assert main(["km", "--risks", str(risks), "--clinical", str(clinical),
                 "--out", str(tmp_path / "km.csv"), "--svg", str(svg)]) == 0
    assert svg.read_text().startswith("<svg ")


def test_km_too_few_samples_exits_1(tmp_path, capsys):
    rows = [("S0", 0.0, 1.0, 1), ("S1", 1.0, 2.0, 1)]
    clinical, risks = km_inputs(tmp_path, rows)
    rc = main(["km", "--risks", str(risks), "--clinical", str(clinical),
               "--out", str(tmp_path / "km.csv")])
    assert rc == 1
    assert "tertiles" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--out", "--svg"])
def test_km_missing_out_directory_exits_2_before_loading(tmp_path, capsys,
                                                         flag):
    outputs = {"--out": str(tmp_path / "km.csv"),
               "--svg": str(tmp_path / "km.svg")}
    outputs[flag] = str(tmp_path / "nodir" / "km")
    # Neither input exists: the output check must come first.
    rc = main(["km", "--risks", str(tmp_path / "r.csv"),
               "--clinical", str(tmp_path / "c.csv"),
               *(token for pair in outputs.items() for token in pair)])
    assert rc == 2
    assert outputs[flag] in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "km"])
@pytest.mark.parametrize("risk", [float("nan"), float("inf")])
def test_non_finite_risk_names_file_and_line(tmp_path, capsys, command, risk):
    rows = [(f"S{i}", risk if i == 4 else float(i), float(10 - i), 1)
            for i in range(9)]
    clinical, risks = km_inputs(tmp_path, rows)
    rc = main([command, "--risks", str(risks), "--clinical", str(clinical),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert (f"error: risks.csv:6: non-finite number {repr(risk)!r}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["train", "eval", "km"])
@pytest.mark.parametrize("field, value, message", [
    ("time_days", "-5.0", "negative time_days -5.0"),
    ("event", "2", "event 2 is not 0 or 1"),
    ("grade", "7", "grade 7 outside [0, 3)"),
], ids=["time", "event", "grade"])
def test_bad_clinical_value_names_file_and_line(data_dir, splits_file,
                                                tmp_path, capsys, command,
                                                field, value, message):
    rows = read_rows(data_dir / "clinical.csv")
    rows[4][rows[0].index(field)] = value  # line 5 of the file
    clinical = tmp_path / "clinical.csv"
    with open(clinical, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    risks = tmp_path / "risks.csv"
    risks.write_text("sample_id,risk\n" + "".join(
        f"{row[0]},{i}\n" for i, row in enumerate(rows[1:])))
    if command == "train":
        config = write_config(tmp_path / "run.json", data_dir, splits_file,
                              tmp_path / "out", clinical=str(clinical))
        args = ["train", str(config)]
    else:
        args = [command, "--risks", str(risks), "--clinical", str(clinical),
                "--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert f"error: clinical.csv:5: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"],
                         ids=["lf", "crlf", "cr"])
def test_non_utf8_edge_list_names_file_and_line(data_dir, splits_file,
                                                tmp_path, capsys, ending):
    edges = tmp_path / "edges.tsv"
    edges.write_bytes(ending.join([b"# interactions", b"", b"G0001\tG0002",
                                   b"G0003\tG00\xff4", b""]))
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out", edge_list=str(edges))
    assert main(["train", str(config)]) == 1
    assert "error: edges.tsv:4: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("command, name, code", [
    ("train", "run.json", 2), ("eval", "run.json", 2),
    ("train", "splits.json", 1), ("eval", "splits.json", 1),
    ("eval", "checksums.txt", 1)])
def test_non_utf8_json_and_checksums_name_file_and_line(
        trained, data_dir, splits_file, tmp_path, capsys, command, name,
        code):
    """run.json is a configuration file (exit 2, like its invalid JSON); the
    split file and a checkpoint's checksums.txt are data (exit 1)."""
    ckpt = tmp_path / "ckpt"
    shutil.copytree(trained["out"] / "rep00" / "final", ckpt)
    splits = tmp_path / "splits.json"
    shutil.copy(splits_file, splits)
    config = write_config(tmp_path / "run.json", data_dir, splits,
                          tmp_path / "out")
    path = {"run.json": config, "splits.json": splits,
            "checksums.txt": ckpt / "checksums.txt"}[name]
    lines = path.read_bytes().split(b"\n")
    lines[1] = b"\xff" + lines[1]
    path.write_bytes(b"\n".join(lines))
    out = tmp_path / "m.json"
    args = ["train", str(config), "--rep", "0"] if command == "train" else [
        "eval", "--config", str(config), "--model", str(ckpt),
        "--out", str(out)]
    assert main(args) == code
    assert capsys.readouterr().err == f"error: {name}:2: not UTF-8 text\n"
    assert not (tmp_path / "out").exists() and not out.exists()


@pytest.mark.parametrize("kind", ["clinical", "expression", "embeddings",
                                  "risks"])
def test_non_utf8_sample_table_names_file_and_line(data_dir, splits_file,
                                                   tmp_path, capsys, kind):
    name = f"{kind}.csv"
    if kind == "risks":
        text = "sample_id,risk\n" + "".join(
            f"{row[0]},{i}\n"
            for i, row in enumerate(read_rows(data_dir / "clinical.csv")[1:]))
        lines = text.encode().split(b"\n")
    else:
        lines = (data_dir / name).read_bytes().split(b"\n")
    lines[4] = lines[4].replace(b",", b",\xff", 1)  # line 5 of the file
    path = tmp_path / name
    path.write_bytes(b"\n".join(lines))
    if kind == "risks":
        args = ["eval", "--risks", str(path), "--clinical",
                str(data_dir / "clinical.csv"), "--out", str(tmp_path / "out")]
    else:
        config = write_config(tmp_path / "run.json", data_dir, splits_file,
                              tmp_path / "out", **{kind: str(path)})
        args = ["train", str(config)]
    assert main(args) == 1
    assert f"error: {name}:5: not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / ".survfuse-cache" / f"{name}.bin").exists()


@pytest.mark.parametrize("command", ["eval", "km"])
@pytest.mark.parametrize("body, message", [
    ("", "risks.csv: empty file"),
    ("sample,risk\nS0,0.5\n",
     "risks.csv: expected columns sample_id,risk, got sample,risk"),
    ("sample_id,risk\nS0,0.5\n\nS1,0.5,7\n",
     "risks.csv:4: expected 2 columns, got 3"),
    ("sample_id,risk\nS0,0.5\nS1,0.7\nS0,0.9\n",
     "risks.csv:4: duplicate sample id 'S0'"),
    ("sample_id,risk\nS0,0.5\nS1,high\nS1,0.9\n",
     "risks.csv:3: unparseable number 'high'"),
], ids=["empty", "header", "columns", "duplicate", "number-before-duplicate"])
def test_bad_risks_file_names_file_and_line(tmp_path, capsys, command, body,
                                            message):
    rows = [(f"S{i}", float(i), float(10 - i), 1) for i in range(9)]
    clinical, risks = km_inputs(tmp_path, rows)
    risks.write_text(body)
    rc = main([command, "--risks", str(risks), "--clinical", str(clinical),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Package entry: one BLAS thread
# ---------------------------------------------------------------------------

_SRC = str(Path(survfuse.__file__).resolve().parents[1])
# Every variable OpenBLAS reads its thread count from, in its order.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _env(**threads):
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    return {**env, "PYTHONPATH": _SRC, **threads}


def test_import_loads_nothing_and_keeps_an_explicit_thread_count():
    code = ("import json, os, sys\n"
            "import survfuse\n"
            "print(json.dumps(['numpy' in sys.modules,\n"
            "                  os.environ.get('OPENBLAS_NUM_THREADS')]))\n")
    for threads, expect in (({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")):
        done = subprocess.run([sys.executable, "-c", code], env=_env(**threads),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [False, expect]


def _wide_train(tmp_path, tag, code, threads):
    """history.csv and final/params.bin of a one-epoch fused train on 80
    patients with 1000-dim embeddings, wide enough for OpenBLAS to thread,
    run into out-TAG in a child as ``python`` ``code`` ``train CONFIG`` under
    the thread variables ``threads``."""
    data, splits = tmp_path / "data", tmp_path / "splits.json"
    if not data.exists():
        assert main(["synth", "--patients", "80", "--genes", "30", "--seed",
                     "3", "--embedding-dim", "1000", "--out", str(data)]) == 0
        assert main(["splits", "--clinical", str(data / "clinical.csv"),
                     "--reps", "1", "--out", str(splits)]) == 0
    out = tmp_path / f"out-{tag}"
    config = write_config(tmp_path / "run.json", data, splits, out, epochs=1,
                          dropout=None, lr=None, batch=None)
    done = subprocess.run([sys.executable, *code, "train", str(config)],
                          env=_env(**threads), capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return [(out / "rep00" / name).read_bytes()
            for name in ("history.csv", "final/params.bin")]


_CLI = ("-m", "survfuse")
_SKIP_ONE_CORE = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="on one core OpenBLAS runs one thread "
                                      "whether or not survfuse pins it, so "
                                      "this cannot fail")


@_SKIP_ONE_CORE
def test_train_bytes_do_not_depend_on_the_blas_thread_default(tmp_path):
    """A fused run writes the same history and parameters with the thread
    count unset as with it at 1."""
    assert _wide_train(tmp_path, "unset", _CLI, {}) == _wide_train(
        tmp_path, "one", _CLI, {"OPENBLAS_NUM_THREADS": "1"})


@_SKIP_ONE_CORE
def test_train_bytes_do_not_depend_on_what_imports_numpy_first(tmp_path):
    """A caller that imports numpy before survfuse, with the thread count
    unset, loads OpenBLAS threaded; ``cli.main(["train", ...])`` must still
    write the bytes of ``python -m survfuse train``, because train pins one
    thread itself. It can fail only on a machine with more than one usable
    CPU; there, without that pin, it does."""
    numpy_first = ("-c", "import sys, numpy\n"
                         "from survfuse.cli import main\n"
                         "sys.exit(main(sys.argv[1:]))")
    assert _wide_train(tmp_path, "numpy-first", numpy_first, {}) == \
        _wide_train(tmp_path, "cli", _CLI, {})


# ---------------------------------------------------------------------------
# What the benchmark shim relies on
# ---------------------------------------------------------------------------

_SHIM = Path(_SRC).parent / "perfbench" / "shim.py"


def test_benchmark_shim_contracts_hold(data_dir, splits_file, tmp_path):
    """A traced one-epoch train through perfbench/shim.py. The shim names a
    dense kernel call's layer by the identity of the ``layer.weights`` it
    receives, and counts Adam's parameters from the mapping ``adam_step``
    receives; both must still hold."""
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out", epochs=1)
    report = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, str(_SHIM), str(report), "1", "train", str(config),
         "--rep", "0"],
        env=_env(OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 0, done.stderr
    recorded = json.loads(report.read_text())
    net = load_checkpoint(tmp_path / "out" / "rep00" / "final")
    assert recorded["counts"]["numcore.adam_params"] == net.param_vector.size
    kernel_layers = [span[4] for span in recorded["spans"] if span[0] in (
        "numcore.dense_forward", "numcore.dense_backward")]
    assert kernel_layers and None not in kernel_layers
    assert set(kernel_layers) == {
        layer.name for layer in net.all_layers()} - {"gene.masked"}
