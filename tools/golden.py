#!/usr/bin/env python3
"""Digests of the bytes that survfuse commands write, in two tiers.

    python3 tools/golden.py [--write]    print the fast tier's digests as JSON,
                                         or store them in tests/golden.json
    python3 tools/golden.py --full [--write]      the same for the full tier
    python3 tools/golden.py --full --against DIR  compare with parent tree DIR

A tier is a list of steps run in order, in process, inside one new work
directory with relative paths, so no output names a temporary path. A step
is a survfuse command run through ``survfuse.cli.main``, whose stdout,
stderr and exit code go to logs/NAME.out, .err and .rc, or a file written
by a rule. A tier's digests are the sha256 of every file the work directory
then holds, keyed by path, less each ``.survfuse-cache`` beside the inputs:
a cache, whose reader fingerprint hashes datakit.py's own bytes.

The fast tier, which Tier-1 checks, makes eight tiny runs and keeps five
digests of each, keyed ``run/file``. The full tier runs the README
walkthrough and the edge cases listed above ``_FULL``. A float64 run's bits
depend on numpy and on the BLAS kernels that run it, so tests/golden.json
stores both tiers under an envelope: numpy's version, the core that numpy's
bundled OpenBLAS runs on, and its thread count. A change that moves a byte
on purpose rewrites the digests with --write.

``--full --against DIR`` takes a parent tree made with ``git archive`` and
runs the full tier on DIR/src and on this tree, in two children at one
thread. It prints each file that moved and exits 1 if any did, keeping both
work directories and naming them; 0 if all are identical; 2 on bad usage.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))

from survfuse import cli  # noqa: E402  (sets the BLAS thread default first)

import numpy as np  # noqa: E402

GOLDEN = _ROOT / "tests" / "golden.json"
_TOOL = str(Path(__file__).resolve())
_FILES = ("history.csv", "summary.json", "final/params.bin",
          "best/params.bin")
_INPUTS = (("expression", "expression.csv"), ("embeddings", "embeddings.csv"),
           ("clinical", "clinical.csv"), ("edge_list", "edges.tsv"),
           ("splits", "splits.json"))
_BASE = {"variant": "fused", "schedule": "alternate",
         "preset": "mmmt-default", "seed": 1}
# eval label -> the checkpoint it scores and its extra flags.
_EVALS = {"best": ("best",), "final": ("final",), "final-again": ("final",),
          "patient": ("final", "--aggregation", "patient")}
_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


# Rules for derived files: each takes the text of its source file.

def _rows(text):
    """The comma-separated fields of each line. A line ends at LF alone, so
    the CR of a CRLF ending stays in the last field, and a rule that sets
    or drops that field drops the CR."""
    return [line.split(",") for line in text.removesuffix("\n").split("\n")]


def _csv(rows, end="\n"):
    return "".join(",".join(row) + end for row in rows)


def _risks(clinical):
    """risk = grade - time_days / 1000, printed as C's %.17g."""
    return _csv([["sample_id", "risk"]] + [
        [r[0], "%.17g" % (float(r[4]) - float(r[2]) / 1000)]
        for r in _rows(clinical)[1:]])


def _bad_clinical(clinical):
    """Grade 7 on line 5, and a row short of its grade on line 9."""
    rows = _rows(clinical)
    rows[4][4] = "7"
    rows[8] = rows[8][:4]
    return _csv(rows)


def _nan_risks(risks):
    """Risk nan on line 4, and line 6's id repeated on line 8."""
    rows = _rows(risks)
    rows[3][1] = "nan"
    rows[7][0] = rows[5][0]
    return _csv(rows)


def _short_risks(risks):
    """A row of one field on line 3, and a bad token on line 6."""
    rows = _rows(risks)
    rows[2] = rows[2][:1]
    rows[5][1] = "high"
    return _csv(rows)


def _crlf_quoted(text):
    """CRLF line endings, and the first field of every even line quoted."""
    rows = _rows(text.replace("\r\n", "\n"))
    for row in rows[1::2]:
        row[0] = f'"{row[0]}"'
    return _csv(rows, "\r\n")


def _hub(edges):
    """G0100 linked to 180 more genes, G0001-G0180."""
    return edges + "".join(f"G0100\tG{i:04d}\n" for i in range(1, 181))


def _complete_graph(expression):
    """Every pair of the genes in the expression header, in symbol order."""
    genes = expression.splitlines()[0].split(",")[1:]
    return "".join(f"{a}\t{b}\n" for i, a in enumerate(genes)
                   for b in genes[i + 1:])


def _messy_edges(edges):
    """Nearly the same graph, messily written: a header, comments and blank
    lines, each edge twice (space-separated, then reversed and
    tab-separated), a self-pair, symbols outside the panel, and the lines
    in a seeded shuffle. Every edge of G0013 is left out."""
    body = []
    for n, line in enumerate(edges.splitlines(), start=1):
        a, b = line.split("\t")
        if "G0013" in (a, b):
            continue
        body += [f"{a} {b}", f"{b}\t{a}"]
        if n % 50 == 0:
            body += [f"# line {n}", ""]
    body += ["G0007\tG0007", "XNOVEL1 G0002", "XNOVEL2\tXNOVEL3"]
    order = np.random.default_rng(1).permutation(len(body))
    return ("gene1 gene2\n# a messy copy of edges.tsv\n\n"
            + "".join(body[i] + "\n" for i in order))


def _drop_7th(text):
    """Less every 7th row after the header."""
    lines = text.splitlines(keepends=True)
    return "".join(line for i, line in enumerate(lines) if i == 0 or i % 7)


def _drop_11th_reversed(text):
    """Less every 11th row after the header, the rest in reverse order."""
    head, *rows = text.splitlines(keepends=True)
    kept = [row for i, row in enumerate(rows, start=1) if i % 11]
    return head + "".join(reversed(kept))


def _paired(clinical):
    """Every second row takes the row before's patient_id, time and event."""
    rows = _rows(clinical)
    for i in range(2, len(rows), 2):
        rows[i][1:4] = rows[i - 1][1:4]
    return _csv(rows)


# A step is (name, action). A list action is a survfuse command, logged as
# logs/NAME.*; a str is the text of file NAME; (source, rule) writes file
# NAME as rule(text of source), or, at rule None, copies the file or
# directory source.

def _copies(source, dest, *names):
    return [(f"{dest}/{name}", (f"{source}/{name}", None)) for name in names]


def _eval(name, label):
    model, *flags = _EVALS[label]
    return (f"eval-{name}-{label}",
            ["eval", "--config", f"{name}.json", "--model",
             f"out-{name}/rep00/{model}", "--rep", "0", *flags,
             "--out", f"eval-{name}-{label}.json"])


def _run(name, data="data", keys=None, flags=(), evals=("final",)):
    """Write run config NAME.json on the data directory ``data``, train it
    (rep 0 unless ``flags`` hold --all-reps) and eval each of ``evals``.
    Keys of ``keys`` that _BASE lacks come first, as in the stored
    fused-paired.json."""
    keys = keys or {}
    config = {k: v for k, v in keys.items() if k not in _BASE}
    config.update({**_BASE, **keys})
    config.update({key: f"{data}/{file}" for key, file in _INPUTS})
    config["out"] = f"out-{name}/"
    rep = [] if "--all-reps" in flags else ["--rep", "0"]
    return [(f"{name}.json", json.dumps(config, indent=2) + "\n"),
            (f"train-{name}", ["train", f"{name}.json", *rep, *flags]),
            *(_eval(name, label) for label in evals)]


_GENE = {"variant": "gene-only", "schedule": "survival-only",
         "preset": "smst-gene"}
_IMAGE = {"variant": "image-only", "schedule": "survival-only",
          "preset": "smst-image"}
_TINY = ("--epochs", "3", "--batch", "8")
# The fast tier's runs, each train --rep 0 then eval of final: name ->
# (data directory, run.json keys, train flags). smst-image runs its preset's
# 50 epochs, in which weights near zero take steps whose gradients are near
# Adam's eps (_EPS), so a change of one ulp in it shows. "ragged" ends on a
# batch of 4 of 32 training samples. "complete-graph" links every pair of
# 182 genes, so the masked layer's 33,124 values take two Adam blocks.
_FAST_RUNS = {
    "fused": ("base", {}, _TINY),
    "smst-gene": ("base", _GENE, _TINY),
    "smst-image": ("base", _IMAGE, ("--batch", "8")),
    "joint-add": ("base", {"schedule": "joint-add"}, _TINY),
    "survival-both-heads": ("base", {"schedule": "survival-only"},
                            (*_TINY, "--heads", "both")),
    "ragged": ("base", {}, ("--epochs", "3", "--batch", "7")),
    "complete-graph": ("complete", {}, ("--epochs", "2", "--batch", "8")),
    "patient": ("paired", {"aggregation": "patient"}, _TINY),
}
_FAST = [
    *((f"synth-{d}", f"synth --patients 40 --genes {genes} --causal 4 "
                     f"--seed 3 --embedding-dim 8 --out {d}".split())
      for d, genes in (("base", 12), ("complete", 182))),
    ("complete/edges.tsv", ("complete/expression.csv", _complete_graph)),
    *_copies("base", "paired", "expression.csv", "embeddings.csv",
             "edges.tsv"),
    ("paired/clinical.csv", ("base/clinical.csv", _paired)),
    *((f"splits-{d}", f"splits --clinical {d}/clinical.csv --reps 1 --seed 1 "
                      f"--out {d}/splits.json".split())
      for d in ("base", "complete", "paired")),
    *(step for name, (data, keys, flags) in _FAST_RUNS.items()
      for step in _run(name, data, keys, flags)),
]

_CSVS = ("clinical.csv", "expression.csv", "embeddings.csv")
_THREE = ("--epochs", "3")
# The full tier, on the README walkthrough's synthetic data:
#   - eval --risks and km --svg on risks derived by a fixed rule, and three
#     commands that must fail, each on a copy of an input with two faults,
#     so the error names the first in file order;
#   - the 30-epoch fused train for seeds 1 and 7, each with eval of best,
#     final, and final per patient; seed 1 then evaluates final once more,
#     reading the parse cache the earlier commands wrote;
#   - 3-epoch gene-only and image-only runs;
#   - seed 1 again into a copy of seed 7's output directory, so each
#     checkpoint is written over one already there (seed 1's best epoch is
#     26 of 0-29; seed 7's, like the 3-epoch runs', is its last);
#   - CRLF inputs with every other sample id quoted, so the CSV reader
#     switches between its quote-free path and csv.reader;
#   - 3 epochs each on edge lists in which G0100 links 179 others (one
#     masked column sums 180 terms; the walkthrough's deepest sums 15), in
#     which every pair of the 200 genes links (40,000 masked values, so the
#     gradient spans two Adam blocks of _ADAM_CHUNK = 32,768), and on the
#     messy one of _messy_edges (G0013 leaves the panel, the rest remap);
#   - batch 24: 13 batches of 24 and one of 8 from 320 samples, so every
#     epoch forms weight gradients at two batch heights;
#   - 2 epochs of all 5 repetitions, which trains all but the last while
#     the unstandardized cohort is still held, and writes aggregate.json;
#   - joint-add, so every backward pass carries both heads' gradients, and
#     survival-only with both heads, so the grade head never trains;
#   - on inputs less every 7th expression row and every 11th embedding row
#     (the rest reversed), fused, gene-only and image-only trains, which
#     drop 88, 57 and 36 of 400 samples, warn, and gather the embedding rows
#     they keep into clinical order;
#   - on 200 patients with two samples each (shared labels), split by
#     patient, 10 epochs under "aggregation": "patient" and "tie_rule":
#     "strict", so both best/ and the metrics take them.
_FULL = [
    ("synth", "synth --patients 400 --genes 200 --causal 20 --censor 0.3 "
              "--noise 0.1 --seed 7 --embedding-dim 1000 --out data/".split()),
    ("splits", "splits --clinical data/clinical.csv --reps 5 --train-frac 0.8 "
               "--group patient --seed 1 --out data/splits.json".split()),
    ("risks.csv", ("data/clinical.csv", _risks)),
    ("eval-risks", "eval --risks risks.csv --clinical data/clinical.csv "
                   "--out eval-risks.json".split()),
    ("km", "km --risks risks.csv --clinical data/clinical.csv --out km.csv "
           "--svg km.svg".split()),
    ("data-bad/clinical.csv", ("data/clinical.csv", _bad_clinical)),
    ("splits-bad", "splits --clinical data-bad/clinical.csv --reps 5 "
                   "--out data-bad/splits.json".split()),
    ("risks-nan.csv", ("risks.csv", _nan_risks)),
    ("eval-risks-bad", "eval --risks risks-nan.csv --clinical "
                       "data/clinical.csv --out eval-risks-bad.json".split()),
    ("risks-short.csv", ("risks.csv", _short_risks)),
    ("km-bad", "km --risks risks-short.csv --clinical data/clinical.csv "
               "--out km-bad.csv".split()),
    *_run("fused-1", evals=("best", "final", "patient")),
    *_run("fused-7", keys={"seed": 7}, evals=("best", "final", "patient")),
    _eval("fused-1", "final-again"),
    *_run("smst-gene", keys={**_GENE, "seed": 7}, flags=_THREE,
          evals=("best", "final")),
    *_run("smst-image", keys={**_IMAGE, "seed": 7}, flags=_THREE,
          evals=("best", "final")),
    ("out-fused-1-over-7", ("out-fused-7", None)),
    *_run("fused-1-over-7", evals=("best", "final")),
    *_copies("data", "data-crlf", "embeddings.csv", "edges.tsv",
             "splits.json"),
    ("data-crlf/clinical.csv", ("data/clinical.csv", _crlf_quoted)),
    ("data-crlf/expression.csv", ("data/expression.csv", _crlf_quoted)),
    *_run("fused-crlf", "data-crlf"),
    *_copies("data", "data-hub", *_CSVS, "splits.json"),
    ("data-hub/edges.tsv", ("data/edges.tsv", _hub)),
    *_run("fused-hub", "data-hub", flags=_THREE),
    *_copies("data", "data-complete", *_CSVS, "splits.json"),
    ("data-complete/edges.tsv", ("data/expression.csv", _complete_graph)),
    *_run("fused-complete", "data-complete", flags=_THREE),
    *_copies("data", "data-messy", *_CSVS, "splits.json"),
    ("data-messy/edges.tsv", ("data/edges.tsv", _messy_edges)),
    *_run("fused-messy", "data-messy", flags=_THREE),
    *_run("fused-ragged", flags=(*_THREE, "--batch", "24")),
    *_run("fused-all", flags=("--all-reps", "--epochs", "2"), evals=()),
    *_run("fused-joint", keys={"schedule": "joint-add"}, flags=_THREE),
    *_run("fused-untrained", keys={"schedule": "survival-only"},
          flags=(*_THREE, "--heads", "both")),
    *_copies("data", "data-incomplete", "clinical.csv", "edges.tsv",
             "splits.json"),
    ("data-incomplete/expression.csv", ("data/expression.csv", _drop_7th)),
    ("data-incomplete/embeddings.csv",
     ("data/embeddings.csv", _drop_11th_reversed)),
    *_run("fused-incomplete", "data-incomplete", flags=_THREE),
    *_run("smst-gene-incomplete", "data-incomplete", _GENE,
          ("--epochs", "2"), evals=()),
    *_run("smst-image-incomplete", "data-incomplete", _IMAGE,
          ("--epochs", "2"), evals=()),
    *_copies("data", "data-paired", "expression.csv", "embeddings.csv",
             "edges.tsv"),
    ("data-paired/clinical.csv", ("data/clinical.csv", _paired)),
    ("splits-paired", "splits --clinical data-paired/clinical.csv --reps 5 "
                      "--train-frac 0.8 --group patient --seed 1 "
                      "--out data-paired/splits.json".split()),
    *_run("fused-paired", "data-paired",
          keys={"aggregation": "patient", "tie_rule": "strict"},
          flags=("--epochs", "10"), evals=("best", "final")),
]
_TIERS = {"fast": _FAST, "full": _FULL}


def envelope() -> str:
    # Imported here: --against runs this file on parent trees that lack it.
    from survfuse.numcore import openblas_info
    core, threads = openblas_info()
    return (f"numpy {np.__version__}, OpenBLAS core {core}, "
            f"BLAS threads {threads}")


def _command(name, argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = 1
    Path("logs").mkdir(exist_ok=True)
    for suffix, text in (("out", out.getvalue()), ("err", err.getvalue()),
                         ("rc", f"{rc}\n")):
        Path("logs", f"{name}.{suffix}").write_bytes(text.encode())


def _file(name, action) -> None:
    path = Path(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(action, str):
        path.write_bytes(action.encode())
        return
    source, rule = action
    if rule is not None:
        path.write_bytes(rule(Path(source).read_bytes().decode()).encode())
    elif Path(source).is_dir():
        shutil.copytree(source, path)
    else:
        shutil.copyfile(source, path)


def run_tier(tier: str, work: Path) -> dict[str, str]:
    """Run ``tier``'s steps inside ``work``; sha256 of every file it then
    holds, keyed by path, less .survfuse-cache directories."""
    old = os.getcwd()
    os.chdir(work)
    try:
        for name, action in _TIERS[tier]:
            (_command if isinstance(action, list) else _file)(name, action)
    finally:
        os.chdir(old)
    return {path.relative_to(work).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(work.rglob("*")) if path.is_file()
            and ".survfuse-cache" not in path.relative_to(work).parts}


def digests(tier: str) -> dict[str, str]:
    """The digests ``tier`` stores; the fast tier's are keyed ``run/file``,
    and each of its commands must succeed."""
    with tempfile.TemporaryDirectory() as tmp:
        found = run_tier(tier, Path(tmp))
        if tier == "full":
            return found
        for rc in sorted((Path(tmp) / "logs").glob("*.rc")):
            if rc.read_text() != "0\n":
                raise SystemExit(f"golden: survfuse {rc.stem} failed:\n"
                                 + rc.with_suffix(".err").read_text())
    return {f"{run}/{name}": found[path] for run in _FAST_RUNS
            for name, path in [*((f, f"out-{run}/rep00/{f}") for f in _FILES),
                               ("eval.json", f"eval-{run}-final.json")]}


# Run in a child: runs the full tier on the survfuse package under argv[1],
# imported before this script could put its own tree's first, in argv[3].
_CHILD = """import json, runpy, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import survfuse
tool = runpy.run_path(sys.argv[2])
json.dump(tool["run_tier"]("full", Path(sys.argv[3])), sys.stdout)
"""


def against(parent: Path) -> int:
    """Run the full tier on ``parent``'s src/ and on this tree's, in two
    children side by side, each at one thread, and print every file whose
    digest differs."""
    if not (parent / "src" / "survfuse").is_dir():
        print(f"golden: no survfuse package under {parent}/src",
              file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix="golden-"))
    children = {}
    for side, src in (("parent", parent / "src"), ("change", _ROOT / "src")):
        (work / side).mkdir()
        children[side] = subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(src.resolve()), _TOOL,
             str(work / side)], env={**os.environ, **_THREADS},
            stdout=subprocess.PIPE, text=True)
    print(f"golden: running the full tier on {parent}/src and this tree in "
          f"{work}", file=sys.stderr)
    outs = {side: child.communicate()[0] for side, child in children.items()}
    for side, child in children.items():
        if child.returncode != 0:
            print(f"golden: the {side} tree's run failed; its work is in "
                  f"{work / side}", file=sys.stderr)
            return 2
    old, new = (json.loads(outs[side]) for side in children)
    moved = sorted(key for key in old.keys() | new.keys()
                   if old.get(key) != new.get(key))
    for key in moved:
        print(key)
    if moved:
        print(f"golden: {len(moved)} of {len(old | new)} files moved; both "
              f"trees' outputs are in {work}", file=sys.stderr)
        return 1
    shutil.rmtree(work)
    print(f"golden: all {len(old)} files identical", file=sys.stderr)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="store the tier's digests in tests/golden.json")
    parser.add_argument("--full", action="store_true",
                        help="the full tier, not the fast one")
    parser.add_argument("--against", metavar="DIR", type=Path,
                        help="with --full: compare with the parent tree DIR")
    args = parser.parse_args()
    if args.against is not None:
        if not args.full or args.write:
            parser.error("--against takes --full and not --write")
        return against(args.against)
    tier = "full" if args.full else "fast"
    found = {"envelope": envelope(), "digests": digests(tier)}
    if args.write:
        stored = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        stored.setdefault(found["envelope"], {})[tier] = found["digests"]
        GOLDEN.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
        print(f"golden: wrote {len(found['digests'])} {tier} digests for "
              f"{found['envelope']} to {GOLDEN}", file=sys.stderr)
    else:
        json.dump(found, sys.stdout, indent=2)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
