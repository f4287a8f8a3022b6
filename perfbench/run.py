"""The survfuse benchmark: one closed-loop client driving the survfuse CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workload's inputs are generated from the
seed under .bench_work/ (deleted when the run ends). Then the client runs the
workload's commands one after another, each as its own process through
perfbench/shim.py, until --seconds have passed and the workload's minimum
number of rounds is done. Reruns of a seed must write the same bytes.
Every child gets OPENBLAS_NUM_THREADS=1 (and the OpenMP and MKL equivalents),
because survfuse promises to run on one core.

With --trace 0 the end-to-end metrics are measured; with --trace 1 the shim
records spans at every layer boundary and the per-layer metrics are reported,
and the spans are written to .bench_out/. Every command's output is checked;
a failed command or check counts in "failed". The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Workloads, metrics
and their meaning are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SHIM = Path(__file__).resolve().parent / "shim.py"
WORK = ROOT / ".bench_work"
TRACE_OUT = ROOT / ".bench_out"

# A run must end within 180 s; no command may run past this many seconds
# after the run started.
DEADLINE_S = 170.0

CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

# Dense layers of the fused network; the masked gene layer has no dense
# kernel, so its time shows in netmodel.forward/backward self time.
FUSED_DENSE_LAYERS = ("gene.compress", "trunk.0", "trunk.1", "trunk.2",
                      "survival.0", "survival.1", "grade.0", "grade.1")

clock = time.monotonic


class BenchError(Exception):
    """The benchmark itself cannot run (missing program, bad arguments)."""


# ---------------------------------------------------------------------------
# Running one command
# ---------------------------------------------------------------------------

@dataclass
class Command:
    argv: list[str]
    start: float
    wall_s: float
    rss_mb: float
    code: int
    report: dict

    def span(self, name: str) -> list:
        """The first span of that name: [name, start, end, parent, ...]."""
        return next(s for s in self.report["spans"] if s[0] == name)


class Client:
    """Runs survfuse commands one at a time and collects failure messages."""

    def __init__(self, work: Path, trace: bool, deadline: float):
        self.work = work
        self.trace = trace
        self.deadline = deadline
        self.env = {**os.environ, **CHILD_ENV}
        self.errors: list[str] = []
        self.commands: list[Command] = []

    def run(self, *argv: str) -> Command:
        n = len(self.commands)
        report_path = self.work / f"report{n}.json"
        err_path = self.work / f"stderr{n}.txt"
        with open(err_path, "wb") as err:
            start = clock()
            proc = subprocess.Popen(
                [sys.executable, str(SHIM), str(report_path),
                 "1" if self.trace else "0", *argv],
                cwd=self.work, env=self.env, stdout=subprocess.DEVNULL,
                stderr=err)
            killer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = clock() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        report = {}
        if report_path.is_file():
            report = json.loads(report_path.read_text(encoding="utf-8"))
            report_path.unlink()
        cmd = Command(list(argv), start, wall, usage.ru_maxrss / 1024.0,
                      proc.returncode, report)
        self.commands.append(cmd)
        if cmd.code != 0:
            tail = err_path.read_text(encoding="utf-8", errors="replace")[-400:]
            self.errors.append(f"{' '.join(argv)} exited {cmd.code}: "
                               f"{tail.strip()}")
        return cmd

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.errors.append(message)
        return ok


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Round:
    """One pass of the closed loop: train then eval, or one scoring request.
    When a command fails or an output check fails, every command of the
    round counts as failed."""

    commands: dict[str, Command] = field(default_factory=dict)
    wall_s: float = 0.0
    ok: bool = True


class TrainingWorkload:
    """survfuse synth + splits once per run, then rounds of train and eval.
    A round evaluates the checkpoints in ``evaluated`` in turn: first the
    final one, whose metrics must equal summary.json's, then the best one,
    as the README walkthrough does."""

    patients: int
    genes: int
    causal: int
    min_rounds: int
    evaluated: tuple[str, ...]
    extra_config: dict = {}

    def __init__(self, client: Client, seed: int):
        self.client = client
        self.seed = seed
        self.reference: dict[str, bytes] = {}
        self.report: dict | None = None
        self.batch_size: int | None = None

    def prepare(self) -> None:
        c = self.client
        c.run("synth", "--patients", str(self.patients), "--genes",
              str(self.genes), "--causal", str(self.causal), "--censor", "0.3",
              "--noise", "0.1", "--seed", str(self.seed),
              "--embedding-dim", "1000", "--out", "data/")
        c.run("splits", "--clinical", "data/clinical.csv", "--reps", "1",
              "--train-frac", "0.8", "--group", "patient", "--seed",
              str(self.seed), "--out", "data/splits.json")
        if c.errors:
            raise BenchError("input generation failed: " + "; ".join(c.errors))
        self.write_edges()
        config = {
            "variant": "fused", "schedule": "alternate",
            "preset": "mmmt-default", "seed": self.seed,
            "expression": "data/expression.csv",
            "embeddings": "data/embeddings.csv",
            "clinical": "data/clinical.csv", "edge_list": "data/edges.tsv",
            "splits": "data/splits.json", "out": "out/", **self.extra_config}
        (c.work / "run.json").write_text(json.dumps(config), encoding="utf-8")

    def write_edges(self) -> None:
        """Keep survfuse synth's edge list."""

    def round(self, i: int) -> Round:
        c = self.client
        out = f"out{i}"
        r = Round()
        start = clock()
        r.commands["train"] = c.run("train", "run.json", "--rep", "0",
                                    "--out", out)
        for j, model in enumerate(self.evaluated):
            if r.commands["train"].code == 0:
                r.commands[f"eval{j} {model}"] = c.run(
                    "eval", "--config", "run.json", "--model",
                    f"{out}/rep00/{model}", "--rep", "0",
                    "--out", f"{out}/eval{j}.json")
        r.wall_s = clock() - start
        r.ok = all(cmd.code == 0 for cmd in r.commands.values()) and \
            len(r.commands) == 1 + len(self.evaluated) and self.check(i, out)
        shutil.rmtree(c.work / out, ignore_errors=True)
        return r

    def check(self, i: int, out: str) -> bool:
        c = self.client
        names = ["rep00/history.csv", "rep00/summary.json"]
        names += [f"eval{j}.json" for j in range(len(self.evaluated))]
        paths = [c.work / out / name for name in names]
        if not c.check(all(p.is_file() for p in paths),
                       f"round {i}: missing output files"):
            return False
        history, summary, *evals = (p.read_bytes() for p in paths)
        recorded = json.loads(summary)
        profile = recorded["profile"]
        rows = history.decode().count("\n") - 1
        want = profile["epochs"] * math.ceil(
            recorded["n_train"] / profile["batch_size"])
        ok = c.check(rows == want,
                     f"round {i}: history.csv has {rows} rows, expected {want}")
        report = json.loads(evals[0])
        ok &= c.check(report == recorded["test_metrics"],
                      f"round {i}: eval of final differs from summary.json")
        if self.report is None:
            self.report = report
            self.batch_size = profile["batch_size"]
        # Every rewrite of a file, in a later round or by a repeated eval of
        # one checkpoint, must match the first write byte for byte.
        written = [("history.csv", history), ("summary.json", summary)]
        written += [(f"metrics of {m}", b) for m, b in zip(self.evaluated, evals)]
        for name, blob in written:
            ok &= c.check(blob == self.reference.setdefault(name, blob),
                          f"round {i}: {name} differs from its first write")
        return ok


class Walkthrough(TrainingWorkload):
    patients, genes, causal = 400, 200, 20
    evaluated = ("final", "best")
    # A second round checks that a rerun writes the same bytes.
    min_rounds = 2


class PaperPanel(TrainingWorkload):
    patients, genes = 160, 10673
    edges = 62435
    # One round keeps the benchmark's total run time in budget. Evaluating
    # each checkpoint twice gives four eval timings per run (one varies by
    # +-15% on a shared machine) and a rerun to compare byte for byte.
    evaluated = ("final", "best", "final", "best")
    min_rounds = 1
    # Two epochs keep train() near 7 s. A 300-gene planted module and a
    # larger rate let so short a run learn enough signal that test_c_index
    # is steady across seeds rather than a coin flip.
    causal = 300
    extra_config = {"epochs": 2, "lr": 1e-3}

    def write_edges(self) -> None:
        """Top survfuse synth's edge list (which holds the planted module)
        up to the paper's edge count with random gene pairs."""
        path = self.client.work / "data/edges.tsv"
        edges = {tuple(line.split("\t")) for line in
                 path.read_text(encoding="utf-8").splitlines()}
        width = max(4, len(str(self.genes)))
        names = [f"G{i + 1:0{width}d}" for i in range(self.genes)]
        rng = np.random.default_rng([self.seed, 1])
        while len(edges) < self.edges:
            for a, b in rng.integers(0, self.genes, size=(self.edges, 2)):
                if a != b and len(edges) < self.edges:
                    x, y = names[a], names[b]
                    edges.add((x, y) if x < y else (y, x))
        path.write_text("".join(f"{a}\t{b}\n" for a, b in sorted(edges)),
                        encoding="utf-8")


class CohortScoring:
    """One large clinical table and several risk vectors; each request runs
    survfuse eval --risks then survfuse km --svg on the next risk file."""

    samples = 12000
    risk_files = 4
    # Requests vary by +-20% on a shared machine; ten give a steady median.
    min_rounds = 10
    # No training runs, so no dense-layer kernel is timed.
    batch_size = None

    def __init__(self, client: Client, seed: int):
        self.client = client
        self.seed = seed
        self.reference: dict[tuple[int, str], bytes] = {}
        self.report: dict | None = None

    def prepare(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        n = self.samples
        hazard = rng.standard_normal(n)
        # Day-resolution times make ties; 30% of samples are censored at a
        # uniform fraction of their event time.
        event_days = rng.exponential(1000.0 * np.exp(-hazard))
        event = rng.random(n) >= 0.3
        days = np.where(event, event_days, event_days * rng.random(n))
        self.days = np.maximum(1, np.round(days)).astype(np.int64)
        self.event = event.astype(np.int64)
        grade = np.searchsorted(np.quantile(hazard, [1 / 3, 2 / 3]), hazard)
        ids = [f"P{i + 1:05d}-S01" for i in range(n)]
        with open(self.client.work / "clinical.csv", "w", encoding="utf-8") as fh:
            fh.write("sample_id,patient_id,time_days,event,grade\n")
            for i, sid in enumerate(ids):
                fh.write(f"{sid},{sid[:6]},{self.days[i]},{self.event[i]},"
                         f"{grade[i]}\n")
        # Risks of models of decreasing skill, rounded so that ties occur.
        self.risks = []
        for k in range(self.risk_files):
            risk = np.round(hazard + (0.5 + k * 0.5) * rng.standard_normal(n), 3)
            self.risks.append(risk)
            with open(self.client.work / f"risks{k}.csv", "w",
                      encoding="utf-8") as fh:
                fh.write("sample_id,risk\n")
                fh.writelines(f"{sid},{v!r}\n"
                              for sid, v in zip(ids, risk.tolist()))
        self.expected = [pair_count_c_index(r, self.days, self.event)
                         for r in self.risks]

    def round(self, i: int) -> Round:
        c = self.client
        k = i % self.risk_files
        r = Round()
        start = clock()
        r.commands["eval"] = c.run(
            "eval", "--risks", f"risks{k}.csv", "--clinical", "clinical.csv",
            "--out", f"metrics{i}.json")
        r.commands["km"] = c.run(
            "km", "--risks", f"risks{k}.csv", "--clinical", "clinical.csv",
            "--out", f"km{i}.csv", "--svg", f"km{i}.svg")
        r.wall_s = clock() - start
        r.ok = all(cmd.code == 0 for cmd in r.commands.values()) and \
            self.check(i, k)
        for name in (f"metrics{i}.json", f"km{i}.csv", f"km{i}.svg"):
            (c.work / name).unlink(missing_ok=True)
        return r

    def check(self, i: int, k: int) -> bool:
        c = self.client
        paths = {ext: c.work / f"{stem}{i}.{ext}" for stem, ext in
                 (("metrics", "json"), ("km", "csv"), ("km", "svg"))}
        if not c.check(all(p.is_file() for p in paths.values()),
                       f"request {i}: missing output files"):
            return False
        blobs = {ext: p.read_bytes() for ext, p in paths.items()}
        got = json.loads(blobs["json"])["c_index"]
        ok = c.check(abs(got - self.expected[k]) <= 1e-12,
                     f"request {i}: c_index {got!r} != pair count "
                     f"{self.expected[k]!r}")
        ok &= c.check(km_is_valid(blobs["csv"].decode()),
                      f"request {i}: a KM curve leaves [0, 1] or increases")
        ok &= c.check(blobs["svg"].startswith(b"<svg"),
                      f"request {i}: km --svg wrote no SVG")
        for name, blob in blobs.items():
            ref = self.reference.setdefault((k, name), blob)
            ok &= c.check(blob == ref,
                          f"request {i}: {name} differs from the first "
                          f"request on risks{k}.csv")
        if i == 0:
            self.report = json.loads(blobs["json"])
        return ok


WORKLOADS = {"walkthrough": Walkthrough, "paper-panel": PaperPanel,
             "cohort-scoring": CohortScoring}


def pair_count_c_index(risks, days, events, chunk: int = 1000) -> float:
    """Harrell's C by counting pairs in row chunks: pairs (j, i) with
    t_j < t_i and an event at j; concordant when risk_j > risk_i, half
    credit for tied risks. Integer counts keep the result exact."""
    concordant = tied = total = 0
    for lo in range(0, len(days), chunk):
        t, r = days[lo:lo + chunk, None], risks[lo:lo + chunk, None]
        comparable = (t < days[None, :]) & (events[lo:lo + chunk, None] == 1)
        total += int(comparable.sum())
        concordant += int((comparable & (r > risks[None, :])).sum())
        tied += int((comparable & (r == risks[None, :])).sum())
    return (concordant + 0.5 * tied) / total


def km_is_valid(text: str) -> bool:
    last: dict[str, float] = {}
    for row in csv.DictReader(text.splitlines()):
        s = float(row["survival"])
        if not 0.0 <= s <= last.get(row["group"], 1.0):
            return False
        last[row["group"]] = s
    return len(last) == 3


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(workload, rounds: list[Round]) -> tuple[dict, dict]:
    """(metrics for the result line, extra figures for the text report)."""
    walls = [r.wall_s for r in rounds]
    peak = statistics.median(
        max(cmd.rss_mb for cmd in r.commands.values()) for r in rounds)
    evals = [cmd for r in rounds for key, cmd in r.commands.items()
             if key.startswith("eval")]
    if isinstance(workload, CohortScoring):
        setups = [cmd.span("surveval.build_metrics")[1] - cmd.start
                  for cmd in evals]
        rate = workload.samples * len(rounds) / sum(walls)
        p50, p90 = np.percentile(walls, [50, 90])
        extra = {"score_request_p50_s": (p50, "s"),
                 "score_request_p90_s": (p90, "s"),
                 "scoring_samples_per_s": (rate, "1/s")}
    else:
        trains = [r.commands["train"] for r in rounds]
        spans = [cmd.span("training.train") for cmd in trains]
        setups = [span[1] - cmd.start for cmd, span in zip(trains, spans)]
        rate = statistics.median(
            cmd.report["counts"]["training.samples"] / (span[2] - span[1])
            for cmd, span in zip(trains, spans))
        extra = {"train_wall_s": (statistics.median(c.wall_s for c in trains), "s"),
                 "train_samples_per_s": (rate, "1/s"),
                 "test_micro_f1": (workload.report["micro_f1"], "ratio")}
    extra["eval_wall_s"] = (statistics.median(c.wall_s for c in evals), "s")
    extra["eval_commands"] = (len(evals), "count")
    extra["rounds"] = (len(rounds), "count")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "round_wall_s": (statistics.median(walls), "s"),
        "samples_per_s": (rate, "1/s"),
        "peak_rss_mb": (peak, "MB"),
        "test_c_index": (workload.report["c_index"], "ratio"),
    }
    return metrics, extra


# Spans and counts behind the per-layer metrics. Every traced run reports
# all of them; a layer that a workload never calls reads 0.
BUSY = ("datakit.load_cohort", "datakit.standardize_expression",
        "datakit.read_clinical", "genegraph.parse_edge_list",
        "genegraph.build_adjacency", "numcore.adam_step",
        "numcore.dense_forward", "numcore.dense_backward",
        "numcore.activation", "numcore.activation_backward",
        "numcore.dropout", "netmodel.forward", "netmodel.backward",
        "netmodel.assemble", "netmodel.save_checkpoint",
        "netmodel.load_checkpoint", "netmodel.predict", "training.train",
        "training.loss", "training.evaluate_network", "surveval.c_index",
        "surveval.km_curve", "surveval.micro_auc_ap",
        "surveval.build_metrics")
SELF = ("netmodel.forward", "netmodel.backward", "training.train")
MODULES = ("datakit", "genegraph", "numcore", "netmodel", "training",
           "surveval")
COUNTS = ("datakit.values_parsed", "genegraph.mask_nnz",
          "numcore.adam_params", "netmodel.checkpoint_bytes",
          "training.iterations")


def span_totals(spans: list[list]) -> tuple[dict, dict, dict]:
    """Per span name: busy seconds, self seconds and calls."""
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, start, end, parent, *_ in spans:
        d = end - start
        busy[name] = busy.get(name, 0.0) + d
        self_s[name] = self_s.get(name, 0.0) + d
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            pname = spans[parent][0]
            self_s[pname] = self_s.get(pname, 0.0) - d
    return busy, self_s, calls


def iteration_times(spans: list[list]) -> list[float]:
    """Training iterations run from one select_task call to the next, or to
    the epoch's evaluation, the first checkpoint write or train's exit."""
    out = []
    for train in (s for s in spans if s[0] == "training.train"):
        marks = sorted(s[1] for s in spans if s[0] == "training.select_task"
                       and train[1] <= s[1] <= train[2])
        stops = sorted([s[1] for s in spans if s[0] in (
            "training.evaluate_network", "netmodel.save_checkpoint")
            and train[1] <= s[1] <= train[2]] + marks + [train[2]])
        for m in marks:
            out.append(min(t for t in stops if t > m) - m)
    return out


def layer_times(spans: list[list], batch: int) -> dict[str, list[float]]:
    """Per-call dense-kernel time of each layer in training passes at the
    full batch size (forward passes called from train itself, not from
    predict)."""
    out: dict[str, list[float]] = {}
    for name, start, end, parent, layer, rows in spans:
        if layer is None or rows != batch or parent < 0:
            continue
        owner = spans[parent]
        if owner[0] == "netmodel.forward":
            if owner[3] < 0 or spans[owner[3]][0] != "training.train":
                continue
            key = f"netmodel.layer.{layer}.fwd_s"
        else:
            key = f"netmodel.layer.{layer}.bwd_s"
        out.setdefault(key, []).append(end - start)
    return out


def per_layer(rounds: list[Round], batch: int | None) -> dict:
    """Per-round sums (median over rounds) of busy time, self time and
    counts; per-call medians for layer kernels at the training batch size,
    training iterations and cohort loads."""
    per_round = []
    layers: dict[str, list[float]] = {}
    iterations: list[float] = []
    loads: list[float] = []
    startups = []
    for r in rounds:
        row = dict.fromkeys(
            [f"{n}.busy_s" for n in BUSY] + [f"{n}.self_s" for n in SELF]
            + [f"{m}.self_s" for m in MODULES]
            + ["numcore.adam_step.calls", *COUNTS], 0.0)
        for cmd in r.commands.values():
            spans = cmd.report["spans"]
            busy, self_s, calls = span_totals(spans)
            for name in BUSY:
                row[f"{name}.busy_s"] += busy.get(name, 0.0)
            for name, value in self_s.items():
                row[f"{name.split('.')[0]}.self_s"] += value
                if name in SELF:
                    row[f"{name}.self_s"] += value
            row["numcore.adam_step.calls"] += calls.get("numcore.adam_step", 0)
            for name in COUNTS:
                row[name] += cmd.report["counts"].get(name, 0)
            for key, values in layer_times(spans, batch).items():
                layers.setdefault(key, []).extend(values)
            iterations.extend(iteration_times(spans))
            loads.extend(s[2] - s[1] for s in spans
                         if s[0] == "datakit.load_cohort")
            startups.append(cmd.report["main_start"] - cmd.start)
        row["trace.round_wall_s"] = r.wall_s
        per_round.append(row)

    m = {"cli.startup_s": (statistics.median(startups), "s"),
         "datakit.load_cohort.call_s": (statistics.median(loads or [0.0]), "s")}
    for key in per_round[0]:
        unit = {"s": "s", "bytes": "B"}.get(key.rsplit("_", 1)[-1], "count")
        m[key] = (statistics.median(row[key] for row in per_round), unit)
    for layer in FUSED_DENSE_LAYERS:
        for kind in ("fwd_s", "bwd_s"):
            key = f"netmodel.layer.{layer}.{kind}"
            m[key] = (statistics.median(layers.get(key, [0.0])), "s")
    p50, p95 = np.percentile(iterations or [0.0], [50, 95])
    m["training.iteration_s.p50"] = (p50, "s")
    m["training.iteration_s.p95"] = (p95, "s")
    iters = m["training.iterations"][0]
    m["training.update_ratio"] = (
        m["numcore.adam_step.calls"][0] / iters if iters else 0.0, "ratio")
    busy = m["training.train.busy_s"][0]
    m["training.train.span_coverage"] = (
        1.0 - m["training.train.self_s"][0] / busy if busy else 0.0, "ratio")
    return m


# ---------------------------------------------------------------------------
# Environment and entry point
# ---------------------------------------------------------------------------

def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **CHILD_ENV}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "survfuse" / "cli.py").is_file():
        raise BenchError(f"no survfuse sources under {ROOT / 'src'}")
    start = clock()
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "data").mkdir(parents=True)
    client = Client(work, trace, start + DEADLINE_S)
    try:
        workload = WORKLOADS[name](client, seed)
        workload.prepare()
        print(f"inputs generated in {clock() - start:.3f} s")
        rounds: list[Round] = []
        loop_start = clock()
        while True:
            rounds.append(workload.round(len(rounds)))
            now = clock()
            longest = max(x.wall_s for x in rounds)
            if now + longest > start + DEADLINE_S:
                break
            if now - loop_start >= seconds and len(rounds) >= workload.min_rounds:
                break
        if trace:
            TRACE_OUT.mkdir(exist_ok=True)
            with open(TRACE_OUT / f"{name}-seed{seed}.json", "w",
                      encoding="utf-8") as fh:
                json.dump([{"argv": c.argv, "start": c.start, "wall_s": c.wall_s,
                            "spans": c.report.get("spans", [])}
                           for c in client.commands], fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    # Timings stay valid when only an output check failed.
    timed = [r for r in rounds if r.commands and
             all(cmd.code == 0 for cmd in r.commands.values())]
    if not timed or workload.report is None:
        raise BenchError("no round completed: " + "; ".join(client.errors))
    if trace:
        metrics, extra = per_layer(timed, workload.batch_size), {}
    else:
        metrics, extra = end_to_end(workload, timed)
    client.check(len(rounds) >= workload.min_rounds,
                 f"only {len(rounds)} round(s) fit before the deadline")
    attempted = sum(len(r.commands) for r in rounds)
    failed = sum(len(r.commands) for r in rounds if not r.ok)
    for i, r in enumerate(rounds):
        walls = ", ".join(f"{k} {c.wall_s:.3f} s" for k, c in r.commands.items())
        print(f"round {i}: {r.wall_s:.3f} s ({walls}){'' if r.ok else ' FAILED'}")
    for line in client.errors:
        print(f"FAILED: {line}")
    for key, (value, unit) in {**metrics, **extra}.items():
        print(f"{key} = {value:.6g} {unit}")
    print(f"failure_ratio = {failed / attempted:.6g} "
          f"({failed} of {attempted} commands)")
    for key, value in environment().items():
        print(f"env.{key} = {value}")
    return {"correct": not client.errors, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    # Turn SIGTERM into SystemExit so the running child is killed and reaped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
