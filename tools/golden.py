#!/usr/bin/env python3
"""Digests of the bytes that a set of tiny survfuse runs write.

    python3 tools/golden.py           print this envelope's digests as JSON
    python3 tools/golden.py --write   store them in tests/golden.json

Every run goes through ``survfuse.cli.main`` in this one process, inside a
new temporary directory: ``train --rep 0`` then ``eval`` of its final
checkpoint. A run's digests are the sha256 of its history.csv,
summary.json, final/params.bin, best/params.bin and eval metrics file. The
runs, each of one path:

  - fused alternate;
  - gene-only smst-gene, and image-only smst-image for its preset's 50
    epochs, in which some weights near zero take steps whose gradients are
    near Adam's eps (_EPS), so a change of one ulp in it shows;
  - fused joint-add, so every backward pass carries both heads;
  - fused survival-only with both heads, so the grade head never trains;
  - fused with batch 7 on 32 training samples, a ragged last batch of 4;
  - fused on 182 genes whose edge list links every pair, so the masked
    layer's 33,124 values take two Adam blocks of 32,768;
  - fused with "aggregation": "patient" on a cohort in which every second
    clinical row joins the previous row's patient and labels.

A float64 run's bits depend on numpy and on the BLAS kernels that run it,
so the digests are stored under an envelope: numpy's version, the core
that numpy's bundled OpenBLAS runs on, and its thread count. The test that
reads tests/golden.json runs this script in a child with one BLAS thread
and skips, naming the envelope, where the file holds none for it. A change
that moves a byte on purpose rewrites the digests with --write.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))

from survfuse import cli  # noqa: E402  (sets the BLAS thread default first)

import numpy as np  # noqa: E402

GOLDEN = _ROOT / "tests" / "golden.json"
_FILES = ("history.csv", "summary.json", "final/params.bin",
          "best/params.bin")
_COMPLETE_GENES = 182

# name -> (data set, run.json keys beyond the data paths, train flags); a
# run trains 3 epochs at batch 8 unless these say otherwise.
_RUNS = {
    "fused": ("base", {}, []),
    "smst-gene": ("base", {"variant": "gene-only", "preset": "smst-gene",
                           "schedule": "survival-only"}, []),
    "smst-image": ("base", {"variant": "image-only", "preset": "smst-image",
                            "schedule": "survival-only", "epochs": None}, []),
    "joint-add": ("base", {"schedule": "joint-add"}, []),
    "survival-both-heads": ("base", {"schedule": "survival-only"},
                            ["--heads", "both"]),
    "ragged": ("base", {}, ["--batch", "7"]),
    "complete-graph": ("complete", {}, ["--epochs", "2"]),
    "patient": ("paired", {"aggregation": "patient"}, []),
}


def _openblas() -> tuple[str, str]:
    """The core name and thread count of numpy's bundled OpenBLAS, each
    "unknown" where numpy has no such library or it lacks the call."""
    core = threads = "unknown"
    root = Path(np.__file__).resolve().parent
    for path in sorted([*root.parent.glob("numpy.libs/*openblas*"),
                        *root.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        name = getattr(lib, "scipy_openblas_get_corename64_", None)
        count = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if name is not None:
            name.argtypes, name.restype = [], ctypes.c_char_p
            core = name().decode()
        if count is not None:
            count.argtypes, count.restype = [], ctypes.c_int
            threads = str(count())
        break
    return core, threads


def envelope() -> str:
    core, threads = _openblas()
    return (f"numpy {np.__version__}, OpenBLAS core {core}, "
            f"BLAS threads {threads}")


def _main(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise SystemExit(f"golden: survfuse {' '.join(map(str, argv))} "
                         f"exited {rc}")


def _make_data(work: Path) -> dict[str, Path]:
    data = {"base": work / "base", "complete": work / "complete",
            "paired": work / "paired"}
    for name, genes in (("base", 12), ("complete", _COMPLETE_GENES)):
        _main(["synth", "--patients", 40, "--genes", genes, "--causal", 4,
               "--seed", 3, "--embedding-dim", 8, "--out", data[name]])
    names = [f"G{i:04d}" for i in range(1, _COMPLETE_GENES + 1)]
    (data["complete"] / "edges.tsv").write_text("".join(
        f"{a}\t{b}\n" for i, a in enumerate(names) for b in names[i + 1:]))
    data["paired"].mkdir()
    for name in ("expression.csv", "embeddings.csv", "edges.tsv"):
        (data["paired"] / name).write_bytes((data["base"] / name).read_bytes())
    lines = (data["base"] / "clinical.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for i in range(1, len(rows), 2):
        rows[i][1:4] = rows[i - 1][1:4]
    (data["paired"] / "clinical.csv").write_text(
        "\n".join([lines[0], *map(",".join, rows)]) + "\n")
    for path in data.values():
        _main(["splits", "--clinical", path / "clinical.csv", "--reps", 1,
               "--seed", 1, "--out", path / "splits.json"])
    return data


def digests() -> dict[str, str]:
    """sha256 of every file each run writes, keyed ``run/file``."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        data = _make_data(work)
        for run, (data_set, keys, flags) in _RUNS.items():
            d = data[data_set]
            config = work / f"{run}.json"
            config.write_text(json.dumps({
                "variant": "fused", "schedule": "alternate",
                "preset": "mmmt-default", "seed": 1, "epochs": 3, "batch": 8,
                "expression": str(d / "expression.csv"),
                "embeddings": str(d / "embeddings.csv"),
                "clinical": str(d / "clinical.csv"),
                "edge_list": str(d / "edges.tsv"),
                "splits": str(d / "splits.json"),
                "out": str(work / run), **keys}))
            _main(["train", config, "--rep", 0, *flags])
            rep = work / run / "rep00"
            _main(["eval", "--config", config, "--model", rep / "final",
                   "--out", rep / "eval.json"])
            for name in (*_FILES, "eval.json"):
                out[f"{run}/{name}"] = hashlib.sha256(
                    (rep / name).read_bytes()).hexdigest()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="store the digests in tests/golden.json")
    args = parser.parse_args()
    found = {"envelope": envelope(), "digests": digests()}
    if args.write:
        stored = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        stored[found["envelope"]] = found["digests"]
        GOLDEN.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
        print(f"golden: wrote {len(found['digests'])} digests for "
              f"{found['envelope']} to {GOLDEN}", file=sys.stderr)
    else:
        json.dump(found, sys.stdout, indent=2)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
