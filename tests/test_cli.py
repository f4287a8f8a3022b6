import csv
import hashlib
import json

import numpy as np
import pytest

from survfuse.cli import main
from survfuse.datakit import SplitSet
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


def test_train_drops_samples_missing_a_needed_modality(data_dir, splits_file,
                                                      tmp_path, capsys):
    """A fused run on a cohort with one embedding row removed drops that
    sample from the cohort and the splits, warns on stderr, and trains; eval
    of the checkpoint applies the same rule."""
    rows = (data_dir / "embeddings.csv").read_text().splitlines(keepends=True)
    dropped = rows[1].split(",", 1)[0]
    (tmp_path / "embeddings.csv").write_text("".join(rows[:1] + rows[2:]))
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "out",
                          embeddings=str(tmp_path / "embeddings.csv"))
    capsys.readouterr()
    assert main(["train", str(config), "--rep", "0"]) == 0
    err = capsys.readouterr().err
    assert "dropped 1 samples missing a modality the fused variant needs" in err
    assert "dropped 1 split sample ids not in the loaded cohort" in err
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


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


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


def test_eval_require_matches_heads(trained, data_dir, splits_file, tmp_path):
    out = tmp_path / "metrics.json"
    rc = main(["eval", "--config", str(trained["config"]),
               "--model", str(trained["out"] / "rep00" / "final"),
               "--require", "both", "--out", str(out)])
    assert rc == 0
    config = write_config(tmp_path / "run.json", data_dir, splits_file,
                          tmp_path / "run_out", variant="gene-only",
                          schedule="survival-only", epochs=0)
    assert main(["train", str(config)]) == 0
    rc = main(["eval", "--config", str(config),
               "--model", str(tmp_path / "run_out" / "rep00" / "final"),
               "--require", "grade", "--out", str(out)])
    assert rc == 2


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


def test_eval_missing_sample_in_risks_exits_1(data_dir, tmp_path, capsys):
    risks_path = tmp_path / "risks.csv"
    risks_path.write_text("sample_id,risk\nP0001-S01,0.5\n")
    rc = main(["eval", "--risks", str(risks_path),
               "--clinical", str(data_dir / "clinical.csv"),
               "--out", str(tmp_path / "m.json")])
    assert rc == 1
    assert "missing sample" in capsys.readouterr().err


def test_eval_without_model_or_risks_exits_2(tmp_path):
    assert main(["eval", "--out", str(tmp_path / "m.json")]) == 2


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
