"""The bytes of a set of tiny runs, against the fast tier's digests in
golden.json.

``tools/golden.py`` makes the runs and prints their digests; a change that
moves a byte on purpose rewrites golden.json with ``tools/golden.py
--write`` (and ``--full --write`` for the full tier) and says why.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_TOOL = _ROOT / "tools" / "golden.py"
_GOLDEN = _ROOT / "tests" / "golden.json"
# Every variable OpenBLAS reads its thread count from.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def test_tiny_runs_write_the_golden_bytes():
    """All runs happen in one child with one BLAS thread: a process that
    imported numpy before survfuse keeps OpenBLAS's own thread default."""
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    done = subprocess.run([sys.executable, str(_TOOL)],
                          env={**env, "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    stored = json.loads(_GOLDEN.read_text())
    if found["envelope"] not in stored:
        pytest.skip(f"golden.json holds no digests for {found['envelope']}")
    expect = stored[found["envelope"]]["fast"]
    moved = sorted(key for key in expect.keys() | found["digests"].keys()
                   if expect.get(key) != found["digests"].get(key))
    assert not moved, f"bytes moved in {', '.join(moved)}"


def test_against_needs_a_tree_with_survfuse(tmp_path):
    """--full --against DIR is bad usage, exit 2, where DIR/src holds no
    survfuse package, and says so before running anything."""
    done = subprocess.run([sys.executable, str(_TOOL), "--full", "--against",
                           str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert f"no survfuse package under {tmp_path}" in done.stderr
    assert not done.stdout


def test_suite_runs_at_one_blas_thread():
    """conftest.py sets the thread count before numpy loads, so this process
    reads one thread; "unknown" where numpy bundles no OpenBLAS."""
    spec = importlib.util.spec_from_file_location("golden_tool", _TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.envelope().rsplit(", ", 1)[1] in ("BLAS threads 1",
                                                  "BLAS threads unknown")
