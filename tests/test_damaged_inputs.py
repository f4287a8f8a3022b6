"""Damaged inputs fail cleanly (ROADMAP item 3's gate).

One hypothesis test damages one file of a tiny run at a time: 40 patients,
12 genes, 6-dim embeddings and a 1-epoch fused checkpoint. It then runs, in
process, each of ``train run.json --rep 0`` and ``eval --model`` that reads
the damaged file.

- *Targeted damage* is always invalid. It must give exit 1 or 2 and an
  ``error:`` line naming an input file: the damaged one, the checkpoint file
  whose check failed, or the modality file whose rows no longer join.
- *Repetition rules* (an empty side; under patient aggregation, a test-side
  patient whose samples disagree) give exit 1 and their own messages.
- *Random byte damage* may give exit 0, 1 or 2, but no exception escapes.
- A failed ``train`` leaves no ``repNN/``, and a failed ``eval`` no metrics.
- A damaged ``.survfuse-cache`` entry is a silent miss: exit 0, and the same
  outputs as the cold run.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from survfuse.cli import main

# train's output directory is a flag, not a run.json key, so no damage to
# run.json can send its writes out of the example's directory.
_TRAIN = ["train", "run.json", "--rep", "0", "--out", "out"]
_EVAL = ["eval", "--config", "run.json", "--model", "model", "--out",
         "metrics.json"]
_CHECKPOINT = ("model/checksums.txt", "model/manifest.json", "model/mask.bin",
               "model/params.bin")
# The commands that read each file. eval takes its gene panel from the
# checkpoint, so it never reads the edge list.
_READERS = {"run.json": ("train", "eval"), "splits.json": ("train", "eval"),
            "clinical.csv": ("train", "eval"),
            "expression.csv": ("train", "eval"),
            "embeddings.csv": ("train", "eval"), "edges.tsv": ("train",),
            **{name: ("eval",) for name in _CHECKPOINT}}
_TEXT = ("run.json", "splits.json", "clinical.csv", "expression.csv",
         "embeddings.csv", "edges.tsv", "model/checksums.txt")
_DATA_ROWS = 40  # one sample per patient
# The outputs a cache hit must leave as the cold run did.
_OUTPUTS = ("out/rep00/history.csv", "out/rep00/summary.json",
            "out/rep00/final/params.bin", "out/rep00/best/params.bin",
            "metrics.json")


@contextlib.contextmanager
def _inside(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The undamaged run, with relative paths so every example's files hold
    the same bytes, and the outputs of its cold train and eval."""
    root = tmp_path_factory.mktemp("damage")
    with _inside(root):
        assert _run(["synth", "--patients", "40", "--genes", "12",
                     "--causal", "4", "--seed", "0", "--embedding-dim", "6",
                     "--out", "."])[0] == 0
        assert _run(["splits", "--clinical", "clinical.csv", "--reps", "1",
                     "--seed", "0", "--out", "splits.json"])[0] == 0
        config = {"epochs": 1, "lr": 1e-3, "batch": 16, "seed": 3,
                  "variant": "fused", "aggregation": "patient",
                  "expression": "expression.csv",
                  "embeddings": "embeddings.csv", "clinical": "clinical.csv",
                  "edge_list": "edges.tsv", "splits": "splits.json"}
        Path("run.json").write_text(json.dumps(config, indent=2) + "\n")
        assert _run(_TRAIN)[0] == 0
        shutil.copytree("out/rep00/final", "model")
        assert _run(_EVAL)[0] == 0
        cold = {name: Path(name).read_bytes() for name in _OUTPUTS}
        shutil.rmtree("out")
        os.remove("metrics.json")
    return root, cold


def _lines(data):
    return data.decode().split("\n")


def _join(lines):
    return "\n".join(lines).encode()


# Each damage is a tuple whose first item names its kind. An offset into
# a file is taken modulo the file's length.
_OFFSET = st.integers(0, 1 << 20)
_BAD_CONFIG_VALUES = [("epochs", "3"), ("epochs", 1.5), ("lr", "fast"),
                      ("lr", [1]), ("seed", True), ("variant", 5),
                      ("out", 7), ("splits", 0), ("aggregation", 1),
                      ("batch", {"n": 16})]
_TOKEN_COLUMNS = {"clinical.csv": (0, 2, 3, 4),  # a patient id may be any
                  "expression.csv": range(13), "embeddings.csv": range(7)}

_targeted = st.one_of(
    st.tuples(st.just("config-type"), st.sampled_from(_BAD_CONFIG_VALUES)),
    st.tuples(st.just("token"),
              st.sampled_from(sorted(_TOKEN_COLUMNS)),
              st.integers(1, _DATA_ROWS), st.integers(0, 12),
              st.sampled_from(["?x", "", "nan", "inf"])),
    st.tuples(st.just("width"),
              st.sampled_from(["clinical.csv", "expression.csv",
                               "embeddings.csv", "edges.tsv"]),
              st.integers(0, _DATA_ROWS), st.sampled_from([-1, 1])),
    st.tuples(st.just("not-utf8"), st.sampled_from(_TEXT),
              _OFFSET),
    st.tuples(st.just("truncate"),
              st.sampled_from(["run.json", "splits.json", *_CHECKPOINT]),
              _OFFSET),
    st.tuples(st.just("checksum-line"), st.just("model/checksums.txt"),
              st.integers(0, 2)),
    st.tuples(st.just("flip"),
              st.sampled_from(["model/manifest.json", "model/mask.bin",
                               "model/params.bin"]),
              _OFFSET, st.integers(0, 7)),
    st.tuples(st.just("empty-side"), st.sampled_from(["train", "test"])),
    st.tuples(st.just("patients-disagree")),
)
_random = st.tuples(st.just("random"), st.sampled_from(sorted(_READERS)),
                    _OFFSET, st.integers(0, 255))
_cache = st.tuples(st.just("cache"),
                   st.sampled_from(["expression.csv", "embeddings.csv"]),
                   _OFFSET,
                   st.sampled_from(["flip", "truncate"]))


def _damage(work, damage):
    """Apply ``damage`` in ``work``. Returns ``{command: argv}`` for the
    commands to run, the exit codes allowed, the message a failure's error
    line must hold and the file names one of which it must hold (None
    checks neither)."""
    kind, *args = damage
    if kind == "no-repetitions":
        payload = json.loads((work / "splits.json").read_text())
        (work / "splits.json").write_text(
            json.dumps({**payload, "repetitions": []}))
        return ({"train": _TRAIN, "eval": _EVAL}, {1},
                "malformed split file splits.json: no repetitions", None)
    if kind == "input-order":
        # eval reads the output directory, the run config, the split file
        # and --rep, the checkpoint, then the data; train the same, less
        # the checkpoint. --rep 99 is reported ahead of a missing
        # checkpoint and missing data.
        shutil.rmtree(work / "model")
        os.remove(work / "expression.csv")
        return ({"train": ["train", "run.json", "--rep", "99", "--out", "out"],
                 "eval": _EVAL + ["--rep", "99"]}, {2},
                "--rep 99 outside [0, 1) repetitions", None)
    if kind == "config-type":
        (key, value), = args
        config = json.loads((work / "run.json").read_text())
        (work / "run.json").write_text(json.dumps({**config, key: value}))
        return _commands("run.json"), {2}, f"run.json: {key} must be ", None
    if kind == "empty-side":
        side, = args
        payload = json.loads((work / "splits.json").read_text())
        payload["repetitions"][0][side] = []
        (work / "splits.json").write_text(json.dumps(payload))
        return (_commands("splits.json"), {1},
                f"repetition 0 has an empty {side} side", None)
    if kind == "patients-disagree":
        # The second test sample joins the first one's patient.
        first, second = json.loads(
            (work / "splits.json").read_text())["repetitions"][0]["test"][:2]
        lines = _lines((work / "clinical.csv").read_bytes())
        fields = {line.split(",")[0]: line.split(",") for line in lines[1:]
                  if line}
        patient = fields[first][1]
        lines = [",".join([second, patient, *fields[second][2:]])
                 if line.startswith(second + ",") else line
                 for line in lines]
        (work / "clinical.csv").write_bytes(_join(lines))
        return (_commands("clinical.csv"), {1},
                f"patient {patient!r}: samples disagree on time_days or "
                "event", None)
    if kind == "cache":
        name, at, how = args
        entry = work / ".survfuse-cache" / f"{name}.bin"
        data = bytearray(entry.read_bytes())
        pos = at % len(data)
        if how == "flip":
            data[pos] ^= 0x01
        else:
            del data[pos:]
        entry.write_bytes(bytes(data))
        return {"train": _TRAIN, "eval": _EVAL}, {0}, None, None

    name, *args = args
    path = work / name
    data = path.read_bytes()
    names = {Path(name).name}
    if kind == "random":
        at, byte = args
        pos = at % len(data)
        path.write_bytes(data[:pos] + bytes([byte]) + data[pos + 1:])
        return _commands(name), {0, 1, 2}, None, None
    if kind == "token":
        line, column, token = args
        column = _TOKEN_COLUMNS[name][column % len(_TOKEN_COLUMNS[name])]
        lines = _lines(data)
        fields = lines[line].split(",")
        fields[column] = token
        lines[line] = ",".join(fields)
        path.write_bytes(_join(lines))
        if name == "clinical.csv" and column == 0:
            # The modality rows of the renamed sample no longer join.
            names = {"expression.csv", "embeddings.csv"}
        return _commands(name), {1}, None, names
    if kind == "width":
        line, change = args
        lines = _lines(data)
        if name == "edges.tsv":
            line = min(line, len(lines) - 2)
            sep = "\t"
        else:
            sep = ","
        lines[line] = (lines[line].rsplit(sep, 1)[0] if change < 0
                       else lines[line] + sep + "1")
        path.write_bytes(_join(lines))
        return _commands(name), {1}, None, names
    if kind == "not-utf8":
        at, = args
        pos = at % len(data)
        path.write_bytes(data[:pos] + b"\xff" + data[pos:])
        line = data[:pos].count(b"\n") + 1
        return (_commands(name), {2 if name == "run.json" else 1},
                f"{Path(name).name}:{line}: not UTF-8 text", None)
    if kind == "truncate":
        at, = args
        # A JSON file cut before its last brace is never valid, nor is a
        # checksums.txt that lost more than its final newline.
        end = data.rindex(b"}") if name.endswith("json") else len(data) - 1
        path.write_bytes(data[:at % end])
        if name.startswith("model/"):
            names = {Path(n).name for n in _CHECKPOINT}
        codes = {2} if name == "run.json" else {1}
        return _commands(name), codes, None, names
    if kind == "checksum-line":
        index, = args
        lines = _lines(data)
        lines[index] = lines[index].replace("  ", " ")
        path.write_bytes(_join(lines))
        return (_commands(name), {1},
                f"checksums.txt:{index + 1}: malformed checksum line", None)
    if kind == "resigned":
        # The file is cut short or given a non-UTF-8 byte, and its
        # checksums.txt line rewritten to match, so only its parse fails.
        how, = args
        at = len(data) // 2
        data = data[:at] if how == "cut" else data[:at] + b"\xff" + data[at:]
        path.write_bytes(data)
        listed = f"  {Path(name).name}"
        checksums = work / "model" / "checksums.txt"
        checksums.write_bytes(_join([
            hashlib.sha256(data).hexdigest() + listed
            if line.endswith(listed) else line
            for line in _lines(checksums.read_bytes())]))
        line = data[:at].count(b"\n") + 1
        message = (f"invalid JSON in {name}" if how == "cut" else
                   f"{Path(name).name}:{line}: not UTF-8 text")
        return _commands(name), {1}, message, None
    if kind == "flip":
        at, bit = args
        pos = at % len(data)
        path.write_bytes(data[:pos] + bytes([data[pos] ^ 1 << bit])
                         + data[pos + 1:])
        return (_commands(name), {1},
                f"checksum mismatch for {Path(name).name}", None)
    raise AssertionError(f"unknown damage {kind!r}")


def _commands(name):
    return {command: {"train": _TRAIN, "eval": _EVAL}[command]
            for command in _READERS[name]}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(damage=st.one_of(_targeted, _random, _random, _cache))
@example(damage=("no-repetitions",))
@example(damage=("input-order",))
@example(damage=("not-utf8", "run.json", 100))
@example(damage=("not-utf8", "splits.json", 100))
@example(damage=("not-utf8", "model/checksums.txt", 100))
@example(damage=("resigned", "model/manifest.json", "cut"))
@example(damage=("resigned", "model/manifest.json", "not-utf8"))
def test_damaged_input_fails_cleanly_naming_the_file(base, damage):
    root, cold = base
    keep_cache = damage[0] == "cache"
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "run"
        shutil.copytree(root, work, ignore=None if keep_cache else
                        shutil.ignore_patterns(".survfuse-cache"))
        commands, codes, message, names = _damage(work, damage)
        with _inside(work):
            for command, argv in commands.items():
                code, err = _run(argv)
                assert code in codes, (command, damage, err)
                if code == 0:
                    continue
                if command == "train":
                    assert not list(Path("out").glob("rep*")), damage
                else:
                    assert not Path("metrics.json").exists(), damage
                errors = [line for line in err.splitlines()
                          if line.startswith("error: ")]
                assert errors, (command, damage, err)
                if message is not None:
                    assert message in errors[0], (command, damage, err)
                if names is not None:
                    assert any(n in errors[0] for n in names), \
                        (command, damage, err)
        if keep_cache:
            for name in _OUTPUTS:
                assert (work / name).read_bytes() == cold[name], name
