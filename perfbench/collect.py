"""Run the benchmark over several seeds and summarise it per workload.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/NAME.json
        [--compare perfbench/results/BASE.json]

Run from the repository root. This runs perfbench/run.py once per seed and
workload of BENCHMARK.json, for its run_seconds, with tracing off, taking the
workloads in turn for each seed so that every workload's runs spread over the
whole collection (the machine's speed drifts over minutes), then once per
workload with tracing on (first seed). It
reports each end-to-end metric's median, quartiles and spread (the distance
between the quartiles as a share of the median, quartiles as
statistics.quantiles(values, n=4) gives them), the traced per-layer figures,
the tracing overhead (traced minus untraced wall time of one round), and the
environment. With --compare it also prints each median's change against an
earlier summary, marking a change worse than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def bench(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run's result line."""
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        cwd=run.ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def seed_list(text: str) -> list[int]:
    """Seeds LO-HI, both included."""
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def main() -> int:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    base = (json.loads(args.compare.read_text(encoding="utf-8"))["workloads"]
            if args.compare else {})

    seconds = spec["run_seconds"]
    summary: dict = {"environment": run.environment(), "seeds": args.seeds,
                     "run_seconds": seconds, "workloads": {}}
    runs = {w["name"]: [] for w in spec["workloads"]}
    for seed in args.seeds:
        for workload in runs:
            runs[workload].append(bench(workload, seed, seconds, False))
    for workload, results in runs.items():
        traced = bench(workload, args.seeds[0], seconds, True)
        metrics = {name: summarise([r["metrics"][name]["value"] for r in results])
                   for name in results[0]["metrics"]}
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in results + [traced]),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": metrics,
            "per_layer": layers,
            "trace_overhead_s": (layers["trace.round_wall_s"]
                                 - metrics["round_wall_s"]["median"]),
        }
        print(f"{workload}: correct={summary['workloads'][workload]['correct']}")
        for name, m in metrics.items():
            flag = "" if m["spread"] is None or m["spread"] < bounds[name] / 3 \
                else "  <-- spread >= bound/3"
            print(f"  {name:16s} median {m['median']:.6g}  q1 {m['q1']:.6g}  "
                  f"q3 {m['q3']:.6g}  spread {m['spread']:.4f}  "
                  f"bound {bounds[name]}{flag}")
            if workload in base:
                old = base[workload]["end_to_end"][name]["median"]
                worse = (m["median"] - old) / old * (1 if lower[name] else -1)
                mark = "  <-- worse than bound" if worse > bounds[name] else ""
                print(f"  {'':16s} vs {old:.6g}: {worse:+.4f} worse{mark}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
