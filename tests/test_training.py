import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from survfuse.datakit import Cohort, synth_gen
from survfuse.errors import ConfigError, DataError, NumericError
from survfuse.genegraph import build_adjacency
from survfuse.netmodel import NetworkConfig, assemble, load_checkpoint
from survfuse.numcore import RngStream
from survfuse.training import (
    TrainingProfile,
    cox_loss,
    evaluate_network,
    nll_loss,
    preset_names,
    profile_preset,
    select_task,
    train,
)


def micro_cohort(seed, patients=40):
    cohort, graph, _ = synth_gen(patients=patients, genes=12, causal_genes=4,
                                 censor_rate=0.3, label_noise=0.1, seed=seed,
                                 embedding_dim=7)
    return cohort, build_adjacency(graph)


def paired_cohort(seed, patients=80):
    """micro_cohort with every odd sample moved to the previous sample's
    patient and survival labels, so each patient holds two samples."""
    cohort, mask = micro_cohort(seed, patients)
    first = [i - i % 2 for i in range(len(cohort))]
    return dataclasses.replace(
        cohort, sample_patients=[cohort.sample_patients[i] for i in first],
        time=cohort.time[first], event=cohort.event[first]), mask


def micro_net(mask, seed, heads="both", dropout_p=0.1):
    cfg = NetworkConfig(variant="fused", heads=heads, gene_dim=12,
                        image_dim=7, grade_classes=3, gene_branch_dim=5,
                        trunk_dims=(8, 5, 4), head_hidden_dim=3,
                        dropout_p=dropout_p)
    return assemble(cfg, mask, RngStream(seed, 31))


def micro_profile(seed, **overrides):
    base = dict(epochs=3, base_lr=1e-3, weight_decay=0.0, batch_size=8,
                dropout_p=0.1, schedule="alternate", seed=seed)
    base.update(overrides)
    return TrainingProfile(**base)


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


def test_preset_values():
    mm = profile_preset("mmmt-default")
    assert (mm.epochs, mm.base_lr, mm.weight_decay, mm.batch_size) == \
        (30, 1e-4, 4e-4, 32)
    assert mm.schedule == "alternate" and mm.dropout_p == 0.25
    si = profile_preset("smst-image")
    assert (si.epochs, si.base_lr, si.weight_decay, si.batch_size) == \
        (50, 5e-4, 4e-4, 8)
    sg = profile_preset("smst-gene")
    assert (sg.epochs, sg.base_lr, sg.weight_decay, sg.batch_size) == \
        (50, 2e-3, 5e-4, 64)
    assert si.schedule == sg.schedule == "survival-only"
    assert preset_names() == ("mmmt-default", "smst-gene", "smst-image")


def test_preset_overrides_and_unknown():
    p = profile_preset("mmmt-default", epochs=2, seed=9)
    assert p.epochs == 2 and p.seed == 9 and p.base_lr == 1e-4
    with pytest.raises(ConfigError):
        profile_preset("mmmt")


def test_profile_validation():
    with pytest.raises(ConfigError):
        micro_profile(0, epochs=-1)
    with pytest.raises(ConfigError):
        micro_profile(0, batch_size=0)
    with pytest.raises(ConfigError):
        micro_profile(0, base_lr=0.0)
    with pytest.raises(ConfigError):
        micro_profile(0, weight_decay=-0.1)
    with pytest.raises(ConfigError):
        micro_profile(0, dropout_p=1.0)
    with pytest.raises(ConfigError):
        micro_profile(0, schedule="roundrobin")
    with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
        micro_profile(-1)


# ---------------------------------------------------------------------------
# Cox loss
# ---------------------------------------------------------------------------


def test_cox_single_event_is_zero():
    loss, grad = cox_loss(np.array([0.7]), [3.0], [1])
    assert loss == 0.0
    assert np.allclose(grad, 0.0, atol=1e-15)


def test_cox_no_events_flagged_as_zero():
    loss, grad = cox_loss(np.array([[0.5], [0.1]]), [1.0, 2.0], [0, 0])
    assert loss == 0.0
    assert grad.shape == (2, 1)
    assert not grad.any()


def test_cox_two_sample_fixture():
    """t=[2,5], d=[1,1], y=[0.8,0.2]: only the first event has a non-trivial
    risk set, giving (log(e^0.8 + e^0.2) - 0.8) / 2."""
    loss, _ = cox_loss(np.array([0.8, 0.2]), [2.0, 5.0], [1, 1])
    assert loss == pytest.approx(0.21878, abs=5e-5)
    expect = (math.log(math.exp(0.8) + math.exp(0.2)) - 0.8) / 2.0
    assert loss == pytest.approx(expect, rel=1e-14)


def test_cox_matches_scalar_oracle_with_ties():
    gen = np.random.default_rng(90)
    for _ in range(25):
        n = int(gen.integers(2, 12))
        times = gen.choice([1.0, 2.0, 3.0, 5.0, 8.0], size=n)
        events = gen.integers(0, 2, size=n)
        risks = gen.standard_normal(n)
        loss, _ = cox_loss(risks, times, events)
        expect = oracles.cox_scalar(list(risks), list(times), list(events))
        assert abs(loss - expect) < 1e-12


def test_cox_permutation_invariance():
    gen = np.random.default_rng(91)
    risks = gen.standard_normal(8)
    times = gen.choice([1.0, 2.0, 4.0], size=8)
    events = gen.integers(0, 2, size=8)
    events[0] = 1
    loss, grad = cox_loss(risks, times, events)
    perm = gen.permutation(8)
    loss_p, grad_p = cox_loss(risks[perm], times[perm], events[perm])
    assert loss_p == pytest.approx(loss, rel=1e-13)
    assert np.allclose(grad_p, grad[perm], atol=1e-13)


def test_cox_shift_invariance():
    gen = np.random.default_rng(92)
    risks = gen.standard_normal(6)
    times = [1.0, 3.0, 2.0, 5.0, 4.0, 2.0]
    events = [1, 0, 1, 1, 0, 1]
    loss, grad = cox_loss(risks, times, events)
    loss_s, grad_s = cox_loss(risks + 37.5, times, events)
    assert loss_s == pytest.approx(loss, rel=1e-12)
    assert np.allclose(grad_s, grad, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_cox_gradient_sums_to_zero(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, 15))
    risks = gen.standard_normal(n) * 2
    times = np.round(gen.exponential(3.0, size=n), 1)
    events = gen.integers(0, 2, size=n)
    if events.sum() == 0:
        events[0] = 1
    _, grad = cox_loss(risks, times, events)
    assert abs(float(grad.sum())) < 1e-12


def test_cox_gradient_matches_fd():
    gen = np.random.default_rng(93)
    risks = gen.standard_normal(7)
    times = np.round(gen.exponential(2.0, size=7), 1) + 0.1
    events = [1, 0, 1, 1, 0, 1, 1]
    _, grad = cox_loss(risks, times, events)
    fd = oracles.fd_array_gradient(lambda v: cox_loss(v, times, events)[0],
                                   risks)
    assert oracles.rel_err(grad, fd) < 1e-6


def test_cox_preserves_column_shape():
    risks = np.array([[0.3], [0.1], [0.5]])
    _, grad = cox_loss(risks, [1.0, 2.0, 3.0], [1, 1, 0])
    assert grad.shape == (3, 1)


def test_cox_length_mismatch():
    with pytest.raises(DataError):
        cox_loss(np.zeros(3), [1.0, 2.0], [1, 0])


# ---------------------------------------------------------------------------
# NLL loss
# ---------------------------------------------------------------------------


def test_nll_uniform_rows():
    lp = np.full((4, 3), -math.log(3.0))
    loss, grad = nll_loss(lp, [0, 1, 2, 1])
    assert loss == pytest.approx(math.log(3.0), rel=1e-15)
    expect = np.zeros((4, 3))
    expect[np.arange(4), [0, 1, 2, 1]] = -0.25
    assert np.array_equal(grad, expect)


def test_nll_matches_scalar_oracle():
    gen = np.random.default_rng(94)
    logits = gen.standard_normal((5, 3)) * 2
    lp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    labels = gen.integers(0, 3, size=5)
    loss, _ = nll_loss(lp, labels)
    assert abs(loss - oracles.nll_scalar(lp.tolist(), labels.tolist())) < 1e-13


def test_nll_gradient_matches_fd():
    gen = np.random.default_rng(95)
    lp = gen.standard_normal((4, 3))
    labels = np.array([2, 0, 1, 1])
    _, grad = nll_loss(lp, labels)
    fd = oracles.fd_array_gradient(lambda v: nll_loss(v, labels)[0], lp)
    assert oracles.rel_err(grad, fd) < 1e-6


def test_nll_out_of_range_label_names_sample():
    lp = np.zeros((3, 3))
    with pytest.raises(DataError, match="index 1"):
        nll_loss(lp, [0, 3, 1])
    with pytest.raises(DataError, match="index 2"):
        nll_loss(lp, [0, 1, -1])


def test_nll_shape_mismatch():
    with pytest.raises(DataError):
        nll_loss(np.zeros((3, 3)), [0, 1])


# ---------------------------------------------------------------------------
# Task schedule
# ---------------------------------------------------------------------------


def test_select_task_alternation():
    assert select_task(1, "alternate") == ("survival",)
    assert select_task(2, "alternate") == ("grade",)
    assert select_task(7, "alternate") == ("survival",)
    assert select_task(3, "joint-add") == ("survival", "grade")
    assert select_task(4, "survival-only") == ("survival",)
    assert select_task(5, "grade-only") == ("grade",)


def test_select_task_counter_starts_at_one():
    with pytest.raises(ValueError):
        select_task(0, "alternate")
    with pytest.raises(ConfigError):
        select_task(1, "random")


@given(st.integers(1, 400))
def test_alternation_counts_differ_by_at_most_one(total):
    counts = {"survival": 0, "grade": 0}
    for c in range(1, total + 1):
        (task,) = select_task(c, "alternate")
        counts[task] += 1
    assert abs(counts["survival"] - counts["grade"]) <= 1
    assert counts["survival"] + counts["grade"] == total


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def test_train_zero_epochs_is_noop():
    cohort, mask = micro_cohort(1)
    net = micro_net(mask, 1)
    before = {k: v.copy() for k, v in net.params().items()}
    net, history = train(net, cohort, list(cohort.sample_ids),
                         micro_profile(1, epochs=0))
    assert not history.records
    for name, value in net.params().items():
        assert np.array_equal(value, before[name]), name


def test_train_alternates_and_decays_lr():
    cohort, mask = micro_cohort(2)
    net = micro_net(mask, 2)
    profile = micro_profile(2, epochs=3)
    net, history = train(net, cohort, list(cohort.sample_ids), profile)
    # 40 samples / batch 8 = 5 iterations per epoch
    assert len(history.records) == 15
    counts = Counter(r.task for r in history.records)
    assert abs(counts["survival"] - counts["grade"]) <= 1
    assert [r.iteration for r in history.records] == list(range(1, 16))
    by_epoch = {r.epoch: r.lr for r in history.records}
    assert by_epoch[0] == profile.base_lr
    assert by_epoch[2] < by_epoch[1] < by_epoch[0]
    tasks_in_order = [r.task for r in history.records[:4]]
    assert tasks_in_order == ["survival", "grade", "survival", "grade"]


def test_train_is_bit_reproducible():
    cohort, mask = micro_cohort(3)
    runs = []
    for _ in range(2):
        net = micro_net(mask, 3)
        net, _ = train(net, cohort, list(cohort.sample_ids), micro_profile(3))
        runs.append(net.params())
    for name, value in runs[0].items():
        assert np.array_equal(value, runs[1][name]), name


def test_train_loss_decreases_on_most_seeds():
    wins = 0
    for seed in range(5):
        cohort, mask = micro_cohort(seed)
        net = micro_net(mask, seed)
        net, history = train(net, cohort, list(cohort.sample_ids),
                             micro_profile(seed, epochs=8))
        first = np.mean([r.loss for r in history.records if r.epoch == 0])
        last = np.mean([r.loss for r in history.records if r.epoch == 7])
        wins += bool(last < first)
    assert wins >= 4


def test_train_skips_zero_event_survival_batches():
    cohort, mask = micro_cohort(4)
    censored = dataclasses.replace(cohort, event=np.zeros_like(cohort.event))
    net = micro_net(mask, 4, heads="survival")
    before = {k: v.copy() for k, v in net.params().items()}
    net, history = train(net, censored, list(censored.sample_ids),
                         micro_profile(4, schedule="survival-only"))
    assert history.records
    assert all(r.zero_event_batch for r in history.records)
    assert all(r.loss == 0.0 for r in history.records)
    for name, value in net.params().items():
        assert np.array_equal(value, before[name]), name


def test_train_head_coverage_checked():
    cohort, mask = micro_cohort(5)
    net = micro_net(mask, 5, heads="grade")
    with pytest.raises(ConfigError, match="survival head"):
        train(net, cohort, list(cohort.sample_ids),
              micro_profile(5, schedule="alternate"))
    with pytest.raises(ConfigError):
        train(net, cohort, list(cohort.sample_ids),
              micro_profile(5, schedule="survival-only"))


@pytest.mark.parametrize("schedule,heads", helpers.SCHEDULE_HEAD_COMBOS)
def test_train_accepts_exactly_the_heads_its_schedule_needs(schedule, heads):
    cohort, mask = micro_cohort(5)
    net = micro_net(mask, 5, heads=heads)
    ids = list(cohort.sample_ids)
    profile = micro_profile(5, schedule=schedule, epochs=0)
    if (schedule, heads) in helpers.ACCEPTED_SCHEDULE_HEADS:
        train(net, cohort, ids, profile)
    else:
        missing = "survival" if heads == "grade" else "grade"
        with pytest.raises(ConfigError, match=f"needs a {missing} head"):
            train(net, cohort, ids, profile)


def test_train_empty_ids_rejected():
    cohort, mask = micro_cohort(6)
    net = micro_net(mask, 6)
    with pytest.raises(ConfigError):
        train(net, cohort, [], micro_profile(6))


def test_train_aborts_on_non_finite_loss(monkeypatch):
    cohort, mask = micro_cohort(7)
    net = micro_net(mask, 7)

    def bad_cox(risks, times, events):
        return math.inf, np.zeros_like(np.asarray(risks, dtype=float))

    monkeypatch.setattr("survfuse.training.cox_loss", bad_cox)
    with pytest.raises(NumericError, match="iteration 1"):
        train(net, cohort, list(cohort.sample_ids), micro_profile(7))


def test_train_writes_checkpoints_and_history(tmp_path):
    cohort, mask = micro_cohort(8)
    ids = list(cohort.sample_ids)
    net = micro_net(mask, 8)
    net, history = train(net, cohort, ids[:32], micro_profile(8, epochs=2),
                         eval_ids=ids[32:], out_dir=tmp_path / "run")
    assert (tmp_path / "run" / "final" / "manifest.json").is_file()
    assert (tmp_path / "run" / "best" / "manifest.json").is_file()
    lines = (tmp_path / "run" / "history.csv").read_text().splitlines()
    assert lines[0] == "iteration,epoch,task,loss,lr"
    assert len(lines) == 1 + len(history.records)
    assert history.best_epoch in (0, 1)
    assert len(history.snapshots) == 2
    final = load_checkpoint(tmp_path / "run" / "final")
    for name, value in net.params().items():
        assert np.array_equal(value, final.params()[name]), name


def test_train_best_tracks_validation_score(tmp_path):
    cohort, mask = micro_cohort(9)
    ids = list(cohort.sample_ids)
    net = micro_net(mask, 9)
    _, history = train(net, cohort, ids[:32], micro_profile(9, epochs=4),
                       eval_ids=ids[32:], out_dir=tmp_path / "run")
    best = history.best_epoch
    scores = [s.score for s in history.snapshots]
    assert best is not None
    assert scores[best] == max(s for s in scores if s is not None)


def test_best_checkpoint_holds_best_epoch_not_final(tmp_path):
    """Adam updates parameters in place, so best/ must hold the parameters
    as they were when the best epoch ended. On this seed the best epoch (0)
    is not the last one and scores differently from it, so a best/ written
    from the live parameters at the end would hold the final weights."""
    cohort, mask = micro_cohort(20)
    ids = list(cohort.sample_ids)
    net = micro_net(mask, 20)
    net, history = train(net, cohort, ids[:32],
                         micro_profile(20, epochs=6, weight_decay=4e-4),
                         eval_ids=ids[32:], out_dir=tmp_path / "run")
    best_epoch = history.best_epoch
    assert best_epoch is not None and best_epoch < len(history.snapshots) - 1
    best = load_checkpoint(tmp_path / "run" / "best")
    final = load_checkpoint(tmp_path / "run" / "final")
    assert evaluate_network(best, cohort, ids[32:]) == \
        history.snapshots[best_epoch].report
    assert evaluate_network(final, cohort, ids[32:]) == \
        history.snapshots[-1].report
    assert history.snapshots[-1].score != history.snapshots[best_epoch].score
    assert not np.array_equal(best.param_vector, final.param_vector)
    assert np.array_equal(net.param_vector, final.param_vector)


@pytest.mark.parametrize("tie_rule", ["half", "strict"])
def test_best_follows_the_score_the_run_reports(tmp_path, monkeypatch,
                                                tie_rule):
    """Under patient aggregation best_epoch is the first epoch with the
    highest patient-level score, and best/ scored with the run's settings
    gives that epoch's report back. On this seed the per-sample score with
    half-credit ties would have picked another epoch."""
    cohort, mask = paired_cohort(33)
    ids = list(cohort.sample_ids)
    per_sample = []

    def also_per_sample(network, cohort, ids, *settings):
        report = evaluate_network(network, cohort, ids)
        per_sample.append(np.mean([report["c_index"], report["micro_f1"]]))
        return evaluate_network(network, cohort, ids, *settings)

    monkeypatch.setattr("survfuse.training.evaluate_network", also_per_sample)
    _, history = train(micro_net(mask, 33), cohort, ids[:56],
                       micro_profile(33, epochs=8), eval_ids=ids[56:],
                       out_dir=tmp_path / "run", tie_rule=tie_rule,
                       aggregation="patient")
    scores = [snap.score for snap in history.snapshots]
    best_epoch = history.best_epoch
    assert best_epoch == scores.index(max(scores)) < len(scores) - 1
    assert best_epoch != per_sample.index(max(per_sample))
    report = evaluate_network(load_checkpoint(tmp_path / "run" / "best"),
                              cohort, ids[56:], tie_rule, "patient")
    assert report == history.snapshots[best_epoch].report
    assert report["n_events"] == \
        int(cohort.event[cohort.rows(ids[56:])][::2].sum())
    assert float(np.mean([report["c_index"], report["micro_f1"]])) == \
        history.snapshots[best_epoch].score


@pytest.mark.parametrize("schedule, scored", [
    ("alternate", ("c_index", "micro_f1")),
    ("survival-only", ("c_index",)),
    ("grade-only", ("micro_f1",)),
])
def test_epoch_score_averages_the_tasks_the_schedule_trains(schedule, scored):
    """With both heads built, the epoch score reads only the metrics of the
    tasks the schedule trains, though the report holds both."""
    cohort, mask = micro_cohort(11)
    ids = list(cohort.sample_ids)
    _, history = train(micro_net(mask, 11), cohort, ids[:32],
                       micro_profile(11, epochs=2, schedule=schedule),
                       eval_ids=ids[32:])
    assert [snap.epoch for snap in history.snapshots] == [0, 1]
    for snap in history.snapshots:
        assert None not in (snap.report["c_index"], snap.report["micro_f1"])
        assert snap.score == float(np.mean([snap.report[k] for k in scored]))


def _scripted_scores(monkeypatch, scores):
    """Make epoch e score ``scores[e]``: its report's c-index and micro-F1
    both read it. Returns the list that collects a copy of
    ``param_vector`` as each epoch's evaluation sees it."""
    seen = []

    def scripted(network, cohort, ids, *settings):
        seen.append(network.param_vector.copy())
        score = scores[len(seen) - 1]
        return {**evaluate_network(network, cohort, ids, *settings),
                "c_index": score, "micro_f1": score}

    monkeypatch.setattr("survfuse.training.evaluate_network", scripted)
    return seen


@pytest.mark.parametrize("scores, best_epoch", [
    ([0.1, 0.3, 0.5, 0.2, 0.4], 2),
    ([0.1, 0.3, 0.2, 0.5], 3),
    ([None, None, None], None),
], ids=["before-last", "last", "none-scored"])
def test_best_params_file_holds_best_epoch_snapshot(tmp_path, monkeypatch,
                                                    scores, best_epoch):
    cohort, mask = micro_cohort(21)
    ids = list(cohort.sample_ids)
    seen = _scripted_scores(monkeypatch, scores)
    net, history = train(micro_net(mask, 21), cohort, ids[:32],
                         micro_profile(21, epochs=len(scores)),
                         eval_ids=ids[32:], out_dir=tmp_path / "run")
    assert history.best_epoch == best_epoch
    want = net.param_vector if best_epoch is None else seen[best_epoch]
    assert (tmp_path / "run" / "best" / "params.bin").read_bytes() == \
        want.astype("<f8").tobytes()
    assert np.array_equal(load_checkpoint(tmp_path / "run" / "best")
                          .param_vector, want)
    assert np.array_equal(load_checkpoint(tmp_path / "run" / "final")
                          .param_vector, net.param_vector)


@pytest.mark.parametrize("earlier_run", [False, True],
                         ids=["fresh", "over-earlier-run"])
def test_failed_run_leaves_best_unloadable(tmp_path, monkeypatch,
                                           earlier_run):
    """A run that fails after an improving epoch has begun to overwrite
    best/; neither what it wrote nor an earlier run's best/ may load."""
    cohort, mask = micro_cohort(22)
    ids = list(cohort.sample_ids)
    out = tmp_path / "run"
    if earlier_run:
        train(micro_net(mask, 22), cohort, ids[:32], micro_profile(22),
              eval_ids=ids[32:], out_dir=out)
        load_checkpoint(out / "best")
    _scripted_scores(monkeypatch, [0.5, 0.4, 0.3])
    calls = 0

    def cox_fails_in_epoch_1(risks, times, events):
        nonlocal calls
        calls += 1
        if calls > 2:  # 32 samples in batches of 8: 2 survival steps an epoch
            return math.inf, np.zeros_like(np.asarray(risks, dtype=float))
        return cox_loss(risks, times, events)

    monkeypatch.setattr("survfuse.training.cox_loss", cox_fails_in_epoch_1)
    with pytest.raises(NumericError, match="epoch 1"):
        train(micro_net(mask, 22), cohort, ids[:32], micro_profile(22),
              eval_ids=ids[32:], out_dir=out)
    with pytest.raises(DataError, match="missing checksums.txt"):
        load_checkpoint(out / "best")


@pytest.mark.parametrize("with_out_dir", [False, True],
                         ids=["no-out-dir", "out-dir"])
def test_train_holds_no_model_copy_beyond_adam_moments(tmp_path,
                                                       with_out_dir):
    """train() allocates the two Adam moments and nothing else as large as
    the model, whether or not it writes checkpoints."""
    cohort, mask = micro_cohort(23)
    ids = list(cohort.sample_ids)
    # 1.06M parameters, nearly all in gene.compress and trunk.0, so that
    # per-batch arrays stay far below one model-sized vector.
    cfg = NetworkConfig(variant="fused", heads="both", gene_dim=12,
                        image_dim=7, grade_classes=3, gene_branch_dim=2000,
                        trunk_dims=(512, 4), head_hidden_dim=3,
                        dropout_p=0.1)
    net = assemble(cfg, mask, RngStream(23, 31))
    model_bytes = net.param_vector.nbytes
    tracemalloc.start()
    try:
        train(net, cohort, ids[:32], micro_profile(23), eval_ids=ids[32:],
              out_dir=tmp_path / "run" if with_out_dir else None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2 * model_bytes < peak < 2.5 * model_bytes


def test_train_makes_no_copy_of_the_training_rows():
    """Batches are gathered from the cohort's own expression matrix: with a
    network far smaller than that matrix, train()'s peak stays a fraction of
    it, where a copy of the training rows would be 0.8 of it."""
    n, p = 2000, 1000
    gen = np.random.default_rng(24)
    mask = helpers.random_mask(p, 24)
    cohort = Cohort(sample_ids=[f"S{i}" for i in range(n)],
                    sample_patients=[f"P{i}" for i in range(n)],
                    time=gen.uniform(1.0, 100.0, n), event=gen.integers(0, 2, n),
                    grade=gen.integers(0, 3, n), gene_order=mask.genes,
                    expression=gen.standard_normal((n, p)))
    cfg = NetworkConfig(variant="gene-only", heads="survival", gene_dim=p,
                        trunk_dims=(4,), head_hidden_dim=2, dropout_p=0.1)
    net = assemble(cfg, mask, RngStream(24, 31))
    matrix_bytes = cohort.expression.nbytes
    assert net.param_vector.nbytes < matrix_bytes / 100
    profile = micro_profile(24, epochs=1, schedule="survival-only")
    tracemalloc.start()
    try:
        train(net, cohort, cohort.sample_ids[:1600], profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * matrix_bytes


# ---------------------------------------------------------------------------
# Evaluation helpers
# ---------------------------------------------------------------------------


def test_image_only_network_reads_no_expression():
    """An image-only network scores the same report on a cohort with and
    without its expression matrix."""
    cohort, _ = micro_cohort(10)
    ids = list(cohort.sample_ids)
    img_cfg = NetworkConfig(variant="image-only", heads="both", image_dim=7,
                            trunk_dims=(8, 4), head_hidden_dim=3)
    img_net = assemble(img_cfg, None, RngStream(0, 31))
    bare = dataclasses.replace(cohort, gene_order=(), expression=None)
    assert bare.expression.shape == (len(ids), 0)
    assert evaluate_network(img_net, bare, ids) == \
        evaluate_network(img_net, cohort, ids)


def test_evaluate_network_reports_available_heads():
    cohort, mask = micro_cohort(11)
    ids = list(cohort.sample_ids)
    both = evaluate_network(micro_net(mask, 11), cohort, ids)
    assert both["c_index"] is not None and 0.0 <= both["c_index"] <= 1.0
    assert both["accuracy"] is not None and both["micro_f1"] is not None
    assert both["n_samples"] == len(ids)
    assert both["n_events"] == int(cohort.event.sum())
    grade_only = evaluate_network(micro_net(mask, 11, heads="grade"),
                                  cohort, ids)
    assert grade_only["c_index"] is None and grade_only["n_events"] is None
    assert grade_only["micro_f1"] is not None


def test_patient_aggregation_scores_each_patient_once():
    """Under patient aggregation the survival block scores each patient's
    median risk against its labels, and its counts are of patients whatever
    the heads; the grade block stays per sample."""
    cohort, mask = paired_cohort(12)
    ids = list(cohort.sample_ids)[40:]
    rows = cohort.rows(ids)
    net = micro_net(mask, 12)
    risks = net.predict(gene_x=cohort.expression[rows],
                        image_x=cohort.embedding[rows])["survival"]
    medians = np.median(risks.reshape(-1, 2), axis=1)
    times, events = cohort.time[rows][::2], cohort.event[rows][::2]
    for tie_rule in ("half", "strict"):
        report = evaluate_network(net, cohort, ids, tie_rule, "patient")
        assert report["n_events"] == int(events.sum())
        assert report["c_index"] == oracles.cindex_pairs(
            medians, times, events, tie_rule)
        assert report["micro_f1"] == evaluate_network(
            net, cohort, ids)["micro_f1"]
    for heads in ("both", "survival"):
        report = evaluate_network(micro_net(mask, 12, heads=heads), cohort,
                                  ids, "half", "patient")
        assert (report["n_samples"], report["n_events"]) == \
            (len(ids) // 2, int(events.sum()))
