"""End-to-end acceptance gate.

Every test prints one ``[criterion N] PASS/FAIL`` line (through the
capture manager, so the lines stay visible under default capture) and
fails the suite when its bound is missed.
"""

import functools
import json
import multiprocessing
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import helpers
import oracles
from survfuse.cli import main as cli_main
from survfuse.datakit import gen_splits, standardize_expression, synth_gen
from survfuse.genegraph import build_adjacency
from survfuse.netmodel import NetworkConfig, assemble
from survfuse.numcore import RngStream
from survfuse.surveval import (
    accuracy_and_micro_f1,
    c_index,
    km_curve,
    per_class_f1,
)
from survfuse.training import (
    cox_loss,
    evaluate_network,
    nll_loss,
    profile_preset,
    select_task,
    train,
)

TABLE_GRADE_CM = [[850, 232, 0], [418, 721, 0], [2, 0, 451]]
TABLE_JOINT_CM = [[763, 319, 0], [443, 693, 3], [1, 0, 452]]


@pytest.fixture(scope="module")
def report(pytestconfig):
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")

    def _report(n: int, ok: bool, detail: str) -> None:
        line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(f"\n{line}", flush=True)
        else:
            print(f"\n{line}", flush=True)
        assert ok, line

    return _report


# ---------------------------------------------------------------------------
# 1-2: published confusion-matrix fixtures
# ---------------------------------------------------------------------------


def test_criterion_1_grade_fixture(report):
    start = time.perf_counter()
    cm = np.array(TABLE_GRADE_CM)
    accuracy, micro_f1 = accuracy_and_micro_f1(cm)
    f1_iv = per_class_f1(cm, 2)
    elapsed = time.perf_counter() - start
    ok = (accuracy == 2022 / 2674 and micro_f1 == 2022 / 2674
          and abs(accuracy - 0.756) <= 5e-4
          and abs(f1_iv - 902 / 904) < 1e-12
          and abs(f1_iv - 0.998) <= 0.005
          and elapsed < 1.0)
    report(1, ok, f"accuracy {accuracy:.6f} (=2022/2674), "
                  f"class-IV F1 {f1_iv:.6f} (=902/904), {elapsed:.2f}s")


def test_criterion_2_joint_fixture(report):
    start = time.perf_counter()
    cm = np.array(TABLE_JOINT_CM)
    accuracy, _ = accuracy_and_micro_f1(cm)
    elapsed = time.perf_counter() - start
    ok = (accuracy == 1908 / 2674
          and abs(accuracy - 0.716) <= 0.005
          and elapsed < 1.0)
    report(2, ok, f"accuracy {accuracy:.6f} (=1908/2674, "
                  f"|delta to 0.716| = {abs(accuracy - 0.716):.4f}), "
                  f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3: concordance against brute force
# ---------------------------------------------------------------------------


def test_criterion_3_c_index_oracle(report):
    start = time.perf_counter()
    gen = np.random.default_rng(20240822)
    worst = 0.0
    checked = 0
    while checked < 1000:
        n = int(gen.integers(2, 51))
        if gen.random() < 0.5:
            times = gen.choice([1.0, 2.0, 3.0, 5.0, 8.0], size=n)
        else:
            times = np.round(gen.exponential(5.0, size=n), 2)
        events = gen.integers(0, 2, size=n)
        risks = np.round(gen.standard_normal(n), 1)
        rule = "half" if checked % 2 == 0 else "strict"
        expect = oracles.cindex_pairs(list(risks), list(times),
                                      list(events), rule)
        if expect is None:
            continue
        got = c_index(risks, times, events, tie_rule=rule)
        worst = max(worst, abs(got - expect))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 10.0
    report(3, ok, f"1000 instances, worst |dev| {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4: analytic gradients vs finite differences, all variants and heads
# ---------------------------------------------------------------------------


def test_criterion_4_gradient_suite(report):
    start = time.perf_counter()
    n, k = 6, 3
    times = np.array([3.0, 1.0, 4.0, 2.0, 5.0, 2.5])
    events = np.array([1, 1, 0, 1, 1, 0])
    grades = np.array([0, 2, 1, 1, 0, 2])
    worst = 0.0
    for variant, heads in helpers.VARIANT_HEAD_COMBOS:
        net = helpers.micro_network(variant, heads, seed=11)
        helpers.randomize_params(net, seed=23)
        data_gen = np.random.default_rng(31)
        gene_x = (data_gen.standard_normal((n, 12))
                  if variant in ("fused", "gene-only") else None)
        image_x = (data_gen.standard_normal((n, 7))
                   if variant in ("fused", "image-only") else None)
        rng = RngStream(7, 22)

        def loss_value():
            trace = net.forward(gene_x=gene_x, image_x=image_x,
                                mode="train", rng=rng, key=(1,))
            total = 0.0
            if net.config.with_survival:
                total += cox_loss(trace.outputs["survival"], times, events)[0]
            if net.config.with_grade:
                total += nll_loss(trace.outputs["grade"], grades)[0]
            return total

        trace = net.forward(gene_x=gene_x, image_x=image_x,
                            mode="train", rng=rng, key=(1,))
        d_survival = None
        d_grade = None
        if net.config.with_survival:
            _, d_survival = cox_loss(trace.outputs["survival"], times, events)
        if net.config.with_grade:
            _, d_grade = nll_loss(trace.outputs["grade"], grades)
        analytic = helpers.expanded(
            net.backward(trace, d_survival=d_survival, d_grade=d_grade))
        numeric = oracles.fd_param_gradients(net.params(), loss_value)
        for name, fd in numeric.items():
            worst = max(worst, oracles.rel_err(analytic[name], fd))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    report(4, ok, f"9 variant/head combos (n={n}, p=12, k={k}), worst "
                  f"rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5: off-mask weights cannot influence the forward pass
# ---------------------------------------------------------------------------


def test_criterion_5_mask_invariance(report):
    start = time.perf_counter()
    all_identical = True
    for seed in range(100):
        net = helpers.micro_network("fused", "both", seed=seed,
                                    mask_seed=seed)
        helpers.randomize_params(net, seed=seed + 1000)
        mask, values = net.mask, net.params()["gene.masked.values"]
        dense = np.zeros((mask.dim, mask.dim))
        dense[mask.rows, mask.cols] = values
        hold = np.zeros_like(dense)
        hold[mask.rows, mask.cols] = 1.0
        junk_gen = np.random.default_rng(seed + 2000)
        poisoned = dense + (1.0 - hold) * (
            1e6 + junk_gen.standard_normal(dense.shape))
        twin = helpers.micro_network("fused", "both", seed=seed,
                                     mask_seed=seed)
        helpers.randomize_params(twin, seed=seed + 1000)
        twin_values = twin.params()["gene.masked.values"]
        twin_values[...] = helpers.masked_from_dense(twin.mask, poisoned)
        data_gen = np.random.default_rng(seed + 3000)
        gene_x = data_gen.standard_normal((5, 12))
        image_x = data_gen.standard_normal((5, 7))
        a = net.predict(gene_x=gene_x, image_x=image_x)
        b = twin.predict(gene_x=gene_x, image_x=image_x)
        same = (np.array_equal(twin_values, values)
                and np.array_equal(a["survival"], b["survival"])
                and np.array_equal(a["grade"], b["grade"]))
        all_identical = all_identical and same
    elapsed = time.perf_counter() - start
    ok = all_identical and elapsed < 10.0
    report(5, ok, f"100 poisoned dense twins bit-identical, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6: product-limit oracle and the drop-to-zero shape
# ---------------------------------------------------------------------------


def test_criterion_6_km_oracle(report):
    start = time.perf_counter()
    gen = np.random.default_rng(99)
    worst = 0.0
    structure_ok = True
    for _ in range(50):
        n = int(gen.integers(1, 31))
        times = gen.choice([1.0, 2.0, 3.0, 5.0, 8.0, 13.0], size=n)
        events = gen.integers(0, 2, size=n)
        curve = km_curve(times, events)
        rows = oracles.km_hand(list(times), list(events))
        structure_ok = structure_ok and len(curve) == len(rows)
        for i, (u, s, n_u, d_u) in enumerate(rows):
            worst = max(worst, abs(curve.survival[i] - s))
            structure_ok = structure_ok and curve.event_times[i] == u \
                and curve.at_risk[i] == n_u and curve.events[i] == d_u
    # all censorings first, then one death: the curve must end at zero
    drop = km_curve([1.0, 2.0, 3.0, 4.0, 5.0], [0, 0, 0, 0, 1])
    drop_ok = (len(drop) == 1 and drop.event_times[0] == 5.0
               and drop.at_risk[0] == 1 and drop.survival[0] == 0.0)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and structure_ok and drop_ok
    report(6, ok, f"50 instances, worst |dev| {worst:.2e}, "
                  f"death-after-last-censoring curve ends at 0: {drop_ok}")


# ---------------------------------------------------------------------------
# 7: alternation parity
# ---------------------------------------------------------------------------


def test_criterion_7_scheduler_parity(report):
    parity_ok = True
    for total in range(1, 501):
        survival = sum(select_task(c, "alternate") == ("survival",)
                       for c in range(1, total + 1))
        parity_ok = parity_ok and abs(survival - (total - survival)) <= 1
    # and on a real training history with an odd iteration count
    cohort, graph, _ = synth_gen(patients=40, genes=12, causal_genes=4,
                                 censor_rate=0.3, label_noise=0.1, seed=0,
                                 embedding_dim=7)
    profile = profile_preset("mmmt-default", epochs=3, base_lr=1e-3,
                             batch_size=16, dropout_p=0.1, seed=0)
    config = NetworkConfig(variant="fused", heads="both", gene_dim=12,
                           image_dim=7, grade_classes=3, gene_branch_dim=5,
                           trunk_dims=(8, 5, 4), head_hidden_dim=3,
                           dropout_p=profile.dropout_p)
    net = assemble(config, build_adjacency(graph), RngStream(profile.seed, 31))
    _, history = train(net, cohort, list(cohort.sample_ids), profile)
    counts = Counter(r.task for r in history.records)
    run_ok = (len(history.records) == 9
              and abs(counts["survival"] - counts["grade"]) <= 1)
    ok = parity_ok and run_ok
    report(7, ok, f"counts differ <= 1 for runs of 1..500 iterations and a "
                  f"9-iteration training history {counts}")


# ---------------------------------------------------------------------------
# 8-9: synthetic end-to-end experiment
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _synth_inputs():
    """The experiment's cohort, mask and splits, built once per process."""
    cohort, graph, _ = synth_gen(patients=400, genes=200, causal_genes=20,
                                 censor_rate=0.3, label_noise=0.1,
                                 seed=20240822)
    splits = gen_splits(zip(cohort.sample_ids, cohort.sample_patients),
                        reps=5, train_frac=0.8, seed=1)
    return cohort, build_adjacency(graph), splits


def _synth_run(job):
    """Train and score one job; returns (c_index, micro_f1, seconds). It
    reads nothing but its arguments, so it can run in a worker process."""
    variant, heads, preset, schedule, rep = job
    cohort, mask, splits = _synth_inputs()
    start = time.perf_counter()
    train_ids, test_ids = splits.repetitions[rep]
    std = standardize_expression(cohort, train_ids)
    profile = profile_preset(preset, schedule=schedule, seed=100 + rep)
    config = NetworkConfig(
        variant=variant, heads=heads,
        gene_dim=len(cohort.gene_order),
        image_dim=1000, grade_classes=3, dropout_p=profile.dropout_p)
    net = assemble(config, mask, RngStream(profile.seed, 31))
    net, _ = train(net, std, train_ids, profile)
    report = evaluate_network(net, std, test_ids)
    return report["c_index"], report["micro_f1"], time.perf_counter() - start


@pytest.fixture(scope="module")
def synth_experiment():
    """The 15 jobs run on every CPU this process may use, in spawned
    workers that each build the inputs once from their seeds; with one CPU
    they run in this process."""
    jobs = [("fused", "both", "mmmt-default", "alternate", rep)
            for rep in range(5)]
    for rep in range(5):
        jobs += [("gene-only", "survival", "smst-gene", "survival-only", rep),
                 ("gene-only", "grade", "smst-gene", "grade-only", rep)]
    workers = min(len(os.sched_getaffinity(0)), len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(_synth_run, jobs))
    else:
        results = [_synth_run(job) for job in jobs]
    by_schedule = {}
    for job, result in zip(jobs, results):
        by_schedule.setdefault(job[3], []).append(result)
    return {"fused": [(c, f1) for c, f1, _ in by_schedule["alternate"]],
            "gene_c": [c for c, _, _ in by_schedule["survival-only"]],
            "gene_f1": [f1 for _, f1, _ in by_schedule["grade-only"]],
            "max_run_seconds": max(took for _, _, took in results)}


def test_criterion_8_synthetic_end_to_end(report, synth_experiment):
    fused = synth_experiment["fused"]
    wins = sum(c >= 0.75 and f1 >= 0.70 for c, f1 in fused)
    slowest = synth_experiment["max_run_seconds"]
    ok = wins >= 4 and slowest <= 300.0
    pairs = ", ".join(f"({c:.3f}, {f1:.3f})" for c, f1 in fused)
    report(8, ok, f"{wins}/5 seeds with c>=0.75 and f1>=0.70 [{pairs}], "
                  f"slowest run {slowest:.0f}s")


def test_criterion_9_fused_beats_gene_only_on_means(report, synth_experiment):
    fused_c = float(np.mean([c for c, _ in synth_experiment["fused"]]))
    fused_f1 = float(np.mean([f1 for _, f1 in synth_experiment["fused"]]))
    gene_c = float(np.mean(synth_experiment["gene_c"]))
    gene_f1 = float(np.mean(synth_experiment["gene_f1"]))
    ok = fused_c >= gene_c and fused_f1 >= gene_f1
    report(9, ok, f"fused means (c {fused_c:.3f}, f1 {fused_f1:.3f}) vs "
                  f"gene-only means (c {gene_c:.3f}, f1 {gene_f1:.3f})")


# ---------------------------------------------------------------------------
# 10: command-line determinism
# ---------------------------------------------------------------------------


def test_criterion_10_cli_determinism(report, tmp_path):
    data = tmp_path / "data"
    assert cli_main(["synth", "--patients", "30", "--genes", "10",
                     "--causal", "3", "--censor", "0.3", "--noise", "0.1",
                     "--seed", "1", "--embedding-dim", "6",
                     "--out", str(data)]) == 0
    splits = tmp_path / "splits.json"
    assert cli_main(["splits", "--clinical", str(data / "clinical.csv"),
                     "--reps", "2", "--seed", "0", "--out", str(splits)]) == 0
    metrics = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        config = tmp_path / f"run_{tag}.json"
        config.write_text(json.dumps({
            "variant": "fused", "schedule": "alternate",
            "preset": "mmmt-default", "epochs": 2, "lr": 1e-3, "batch": 8,
            "dropout": 0.1, "seed": 5,
            "expression": str(data / "expression.csv"),
            "embeddings": str(data / "embeddings.csv"),
            "clinical": str(data / "clinical.csv"),
            "edge_list": str(data / "edges.tsv"),
            "splits": str(splits), "out": str(out_dir)}) + "\n")
        assert cli_main(["train", str(config), "--rep", "0"]) == 0
        out = tmp_path / f"metrics_{tag}.json"
        assert cli_main(["eval", "--config", str(config),
                         "--model", str(out_dir / "rep00" / "final"),
                         "--rep", "0", "--out", str(out)]) == 0
        metrics.append(out.read_bytes())
    ok = metrics[0] == metrics[1] and len(metrics[0]) > 2
    report(10, ok, f"two train+eval passes, metrics JSON byte-identical: "
                   f"{metrics[0] == metrics[1]}")
