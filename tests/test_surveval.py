import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from survfuse.errors import DataError, UndefinedResultError
from survfuse.surveval import (
    ConfusionMatrix,
    accuracy_and_micro_f1,
    build_metrics,
    c_index,
    confusion,
    km_curve,
    km_export_csv,
    km_export_svg,
    micro_auc_ap,
    per_class_f1,
    predicted_classes,
    _midranks,
    risk_tertiles,
    save_metrics,
)

# Published grade fixture: rows true II/III/IV, columns predicted.
GRADE_CM = np.array([[850, 232, 0], [418, 721, 0], [2, 0, 451]])


def random_survival(gen, n, tie_pool=None):
    if tie_pool is None:
        times = np.round(gen.exponential(5.0, size=n), 1) + 0.1
    else:
        times = gen.choice(tie_pool, size=n)
    events = gen.integers(0, 2, size=n)
    risks = np.round(gen.standard_normal(n), 2)
    return risks, times, events


# ---------------------------------------------------------------------------
# Concordance
# ---------------------------------------------------------------------------


def test_c_index_perfect_and_reversed():
    times = [1.0, 2.0, 3.0]
    events = [1, 1, 1]
    assert c_index([3.0, 2.0, 1.0], times, events) == 1.0
    assert c_index([1.0, 2.0, 3.0], times, events) == 0.0


def test_c_index_tie_rules():
    risks = [1.0, 1.0]
    times = [1.0, 2.0]
    events = [1, 0]
    assert c_index(risks, times, events) == 0.5
    assert c_index(risks, times, events, tie_rule="strict") == 0.0
    with pytest.raises(ValueError):
        c_index(risks, times, events, tie_rule="none")


def test_c_index_censored_sample_not_an_index_event():
    # the censored early subject contributes no pairs as j
    risks = [0.0, 5.0, 1.0]
    times = [1.0, 2.0, 3.0]
    events = [0, 1, 1]
    # only comparable pair: j=1 (event, t=2) vs i=2 (t=3); 5.0 > 1.0
    assert c_index(risks, times, events) == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.booleans())
def test_c_index_matches_pair_oracle(seed, with_ties, strict):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, 20))
    pool = np.array([1.0, 2.0, 3.0, 5.0]) if with_ties else None
    risks, times, events = random_survival(gen, n, pool)
    rule = "strict" if strict else "half"
    expect = oracles.cindex_pairs(list(risks), list(times), list(events), rule)
    if expect is None:
        with pytest.raises(UndefinedResultError):
            c_index(risks, times, events, tie_rule=rule)
    else:
        assert c_index(risks, times, events, tie_rule=rule) == \
            pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("rule", ["half", "strict"])
def test_c_index_equals_matrix_formula_bit_for_bit(rule):
    # Day-resolution times and one-decimal risks: many ties of both kinds.
    gen = np.random.default_rng(2024)
    n = 3000
    times = gen.integers(0, 400, size=n).astype(np.float64)
    risks = np.round(gen.standard_normal(n), 1)
    events = (gen.random(n) < 0.7).astype(np.int64)
    expect = oracles.cindex_matrix(risks, times, events, rule)
    assert c_index(risks, times, events, tie_rule=rule) == expect
    # No comparable pair: every event shares the latest time.
    times[events == 1] = times.max()
    assert oracles.cindex_matrix(risks, times, events, rule) is None
    with pytest.raises(UndefinedResultError):
        c_index(risks, times, events, tie_rule=rule)


def test_c_index_undefined_cases():
    with pytest.raises(UndefinedResultError):
        c_index([1.0, 2.0], [3.0, 4.0], [0, 0])
    with pytest.raises(UndefinedResultError):
        c_index([1.0], [3.0], [1])
    with pytest.raises(UndefinedResultError):
        c_index([1.0, 2.0], [3.0, 3.0], [1, 1])


def test_c_index_input_validation():
    with pytest.raises(DataError):
        c_index([1.0, 2.0], [1.0], [1])
    with pytest.raises(DataError):
        c_index([1.0, np.nan], [1.0, 2.0], [1, 1])
    with pytest.raises(DataError):
        c_index([1.0, 2.0], [1.0, 2.0], [1, 2])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_c_index_negation_sums_to_one(seed):
    gen = np.random.default_rng(seed)
    risks, times, events = random_survival(gen, 10,
                                           np.array([1.0, 2.0, 4.0]))
    events[0] = 1
    times[0] = 1.0
    times[1] = 4.0
    forward = c_index(risks, times, events)
    backward = c_index(-risks, times, events)
    assert forward + backward == pytest.approx(1.0, abs=1e-12)


def test_c_index_monotone_transform_invariance():
    gen = np.random.default_rng(7)
    risks, times, events = random_survival(gen, 12)
    events[:2] = 1
    base = c_index(risks, times, events)
    assert c_index(3.0 * risks + 11.0, times, events) == base
    assert c_index(np.tanh(risks), times, events) == base


# ---------------------------------------------------------------------------
# Kaplan-Meier
# ---------------------------------------------------------------------------


def test_km_single_event_drops_to_zero():
    curve = km_curve([5.0], [1])
    assert list(curve.event_times) == [5.0]
    assert list(curve.survival) == [0.0]
    assert list(curve.at_risk) == [1]
    assert list(curve.events) == [1]


def test_km_no_events_is_flat():
    curve = km_curve([1.0, 2.0, 3.0], [0, 0, 0])
    assert len(curve) == 0


def test_km_hand_worked_example():
    curve = km_curve([1.0, 2.0, 3.0, 4.0, 5.0], [1, 0, 1, 1, 0])
    assert list(curve.event_times) == [1.0, 3.0, 4.0]
    assert list(curve.at_risk) == [5, 3, 2]
    assert list(curve.events) == [1, 1, 1]
    expect = [4.0 / 5.0, 4.0 / 5.0 * 2.0 / 3.0, 4.0 / 5.0 * 2.0 / 3.0 / 2.0]
    assert np.allclose(curve.survival, expect, atol=1e-15)


def test_km_tied_events_share_a_step():
    curve = km_curve([2.0, 2.0, 3.0], [1, 1, 0])
    assert list(curve.event_times) == [2.0]
    assert list(curve.events) == [2]
    assert curve.survival[0] == pytest.approx(1.0 / 3.0, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_km_matches_hand_oracle(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(1, 25))
    times = gen.choice([1.0, 2.0, 3.0, 5.0, 8.0, 13.0], size=n)
    events = gen.integers(0, 2, size=n)
    curve = km_curve(times, events)
    rows = oracles.km_hand(list(times), list(events))
    assert len(curve) == len(rows)
    for i, (u, s, n_u, d_u) in enumerate(rows):
        assert curve.event_times[i] == u
        assert curve.survival[i] == pytest.approx(s, abs=1e-12)
        assert curve.at_risk[i] == n_u
        assert curve.events[i] == d_u


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_km_curve_properties(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(1, 30))
    times = gen.choice([1.0, 2.0, 4.0, 7.0], size=n)
    events = gen.integers(0, 2, size=n)
    curve = km_curve(times, events)
    s = curve.survival
    assert np.all((s >= 0.0) & (s <= 1.0))
    assert np.all(np.diff(s) <= 1e-15)
    assert np.all(np.diff(curve.at_risk) <= 0)
    assert np.all(np.diff(curve.event_times) > 0)
    if len(curve) and events[times.argmax()] == 1 and \
            (times == times.max()).sum() == 1:
        assert s[-1] == 0.0


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 1.0, 2.5, 4.0, 9.0]),
                          st.integers(0, 1)), min_size=1, max_size=40),
       st.sampled_from([0.0, 2.5, 9.0]))
def test_km_matches_hand_oracle_with_censoring_at_event_times(rows, shared):
    # One event and one censoring always share a time.
    rows = rows + [(shared, 1), (shared, 0)]
    times = np.array([t for t, _ in rows])
    events = np.array([e for _, e in rows])
    curve = km_curve(times, events)
    assert curve.at_risk.dtype == np.int64
    assert curve.events.dtype == np.int64
    expect = oracles.km_hand(list(times), list(events))
    assert curve.event_times.tolist() == [u for u, _, _, _ in expect]
    assert curve.survival.tolist() == [s for _, s, _, _ in expect]
    assert curve.at_risk.tolist() == [n_u for _, _, n_u, _ in expect]
    assert curve.events.tolist() == [d_u for _, _, _, d_u in expect]


def test_c_index_and_km_memory_stays_linear():
    # Pair matrices at n=20,000 would take 400 MB each.
    gen = np.random.default_rng(5)
    n = 20_000
    times = gen.integers(0, 5000, size=n).astype(np.float64)
    risks = np.round(gen.standard_normal(n), 3)
    events = (gen.random(n) < 0.7).astype(np.int64)
    tracemalloc.start()
    try:
        c_index(risks, times, events)
        km_curve(times, events)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_km_rejects_bad_input():
    with pytest.raises(DataError):
        km_curve([-1.0], [1])
    with pytest.raises(DataError):
        km_curve([1.0, 2.0], [1])
    with pytest.raises(DataError):
        km_curve([1.0], [3])


# ---------------------------------------------------------------------------
# Risk groups
# ---------------------------------------------------------------------------


def test_tertiles_split_nine_evenly():
    groups = risk_tertiles(np.arange(9.0))
    assert groups.labels == ("Low",) * 3 + ("Mid",) * 3 + ("High",) * 3
    assert groups.cut_low < groups.cut_high


def test_tertiles_all_equal_is_all_low():
    groups = risk_tertiles([2.0] * 6)
    assert groups.labels == ("Low",) * 6
    assert groups.cut_low == groups.cut_high == 2.0


def test_tertiles_need_three():
    with pytest.raises(ValueError):
        risk_tertiles([1.0, 2.0])


def test_tertiles_order_independent_of_input_order():
    gen = np.random.default_rng(3)
    risks = gen.standard_normal(20)
    perm = gen.permutation(20)
    a = risk_tertiles(risks)
    b = risk_tertiles(risks[perm])
    assert a.cut_low == b.cut_low and a.cut_high == b.cut_high
    assert tuple(np.array(a.labels)[perm]) == b.labels


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def test_confusion_counts_small_case():
    cm = confusion([0, 1, 1, 2, 0], [0, 1, 2, 2, 1], k=3)
    assert cm.counts.tolist() == [[1, 0, 0], [1, 1, 0], [0, 1, 1]]
    assert cm.total == 5


def test_confusion_validation_names_offender():
    with pytest.raises(DataError, match="index 1"):
        confusion([0, 3], [0, 1], k=3)
    with pytest.raises(DataError, match="true"):
        confusion([0, 1], [0, -1], k=3)
    with pytest.raises(DataError):
        confusion([0], [0, 1], k=3)
    with pytest.raises(DataError):
        ConfusionMatrix(counts=np.array([[1, -1], [0, 2]]))
    with pytest.raises(DataError):
        ConfusionMatrix(counts=np.zeros((2, 3)))


def test_predicted_classes_break_ties_low():
    lp = np.log(np.array([[0.4, 0.4, 0.2], [0.1, 0.2, 0.7]]))
    assert predicted_classes(lp).tolist() == [0, 2]


def test_grade_fixture_accuracy():
    cm = ConfusionMatrix(counts=GRADE_CM)
    accuracy, micro_f1 = accuracy_and_micro_f1(cm)
    assert accuracy == 2022 / 2674
    assert micro_f1 == accuracy
    assert accuracy == pytest.approx(0.7562, abs=5e-4)


def test_grade_fixture_class_f1():
    cm = ConfusionMatrix(counts=GRADE_CM)
    assert per_class_f1(cm, 2) == pytest.approx(902 / 904, abs=1e-15)
    assert per_class_f1(cm, 2) == pytest.approx(0.9978, abs=5e-4)
    for c in range(3):
        assert per_class_f1(cm, c) == pytest.approx(
            oracles.f1_from_counts(GRADE_CM.tolist(), c), abs=1e-15)


def test_per_class_f1_absent_class_is_zero():
    cm = ConfusionMatrix(counts=np.array([[3, 0], [0, 0]]))
    assert per_class_f1(cm, 1) == 0.0
    with pytest.raises(ValueError):
        per_class_f1(cm, 2)


def test_empty_confusion_is_undefined():
    with pytest.raises(UndefinedResultError):
        accuracy_and_micro_f1(ConfusionMatrix(counts=np.zeros((3, 3))))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_accuracy_equals_micro_f1_for_single_label(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(1, 40))
    k = int(gen.integers(2, 5))
    pred = gen.integers(0, k, size=n)
    true = gen.integers(0, k, size=n)
    cm = confusion(pred, true, k)
    assert cm.counts.tolist() == oracles.confusion_count(pred, true, k)
    accuracy, micro_f1 = accuracy_and_micro_f1(cm)
    assert accuracy == micro_f1


# ---------------------------------------------------------------------------
# Pooled AUC / AP
# ---------------------------------------------------------------------------


def softmax_rows(gen, n, k):
    logits = gen.standard_normal((n, k)) * 2
    return np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)


def test_micro_auc_ap_perfect_predictions():
    scores = np.eye(3)[[0, 1, 2, 1, 0]]
    # one-hot rows: every positive pooled score is 1, every negative 0
    auc, ap = micro_auc_ap(scores, [0, 1, 2, 1, 0])
    assert auc == 1.0
    assert ap == 1.0


def test_micro_auc_ap_uniform_scores():
    scores = np.full((6, 3), 1.0 / 3.0)
    auc, ap = micro_auc_ap(scores, [0, 1, 2, 0, 1, 2])
    assert auc == pytest.approx(0.5, abs=1e-12)
    assert ap == pytest.approx(1.0 / 3.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_micro_auc_ap_matches_pooled_oracle(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, 25))
    k = int(gen.integers(2, 5))
    scores = softmax_rows(gen, n, k)
    labels = gen.integers(0, k, size=n)
    auc, ap = micro_auc_ap(scores, labels)
    pooled, ind = oracles.pooled_one_vs_rest(scores.tolist(), labels.tolist())
    assert auc == pytest.approx(oracles.binary_auc_pairs(pooled, ind),
                                abs=1e-12)
    assert ap == pytest.approx(oracles.binary_ap_blocks(pooled, ind),
                               abs=1e-12)


def test_micro_auc_ap_handles_tied_scores():
    scores = np.array([[0.5, 0.5], [0.5, 0.5], [0.8, 0.2]])
    labels = [0, 1, 0]
    auc, ap = micro_auc_ap(scores, labels)
    pooled, ind = oracles.pooled_one_vs_rest(scores.tolist(), labels)
    assert auc == pytest.approx(oracles.binary_auc_pairs(pooled, ind),
                                abs=1e-12)
    assert ap == pytest.approx(oracles.binary_ap_blocks(pooled, ind),
                               abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_midranks_equal_block_loop(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, 40))
    k = int(gen.integers(2, 5))
    # Rows drawn from a few fixed score vectors tie most pooled scores.
    palette = softmax_rows(gen, 3, k)
    scores = palette[gen.integers(0, 3, size=n)]
    labels = gen.integers(0, k, size=n)
    pooled = scores.reshape(-1)
    pos = (np.eye(k, dtype=np.int64)[labels].reshape(-1) == 1)
    expect = oracles.midranks_loop(pooled)
    assert _midranks(pooled).tolist() == expect.tolist()
    n_pos, n_neg = int(pos.sum()), len(pooled) - int(pos.sum())
    auc = (expect[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    assert micro_auc_ap(scores, labels)[0] == auc


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                          st.integers(0, 1)), min_size=1, max_size=30))
def test_micro_auc_matches_pair_oracle_on_heavy_ties(rows):
    # Two classes, scores on a five-point grid: nearly every pooled score is
    # tied. The midrank sum and the pair count are the same exact integer
    # multiple of 0.5, so the two AUCs agree exactly.
    scores = np.array([[p, 1.0 - p] for p, _ in rows])
    labels = [y for _, y in rows]
    pooled, ind = oracles.pooled_one_vs_rest(scores.tolist(), labels)
    auc, _ = micro_auc_ap(scores, labels)
    assert auc == oracles.binary_auc_pairs(pooled, ind)


def test_micro_auc_ap_monotone_affine_invariance():
    # a*s + (1-a)/k keeps rows summing to 1 and preserves score order
    gen = np.random.default_rng(17)
    scores = softmax_rows(gen, 20, 3)
    labels = gen.integers(0, 3, size=20)
    auc, ap = micro_auc_ap(scores, labels)
    squeezed = 0.25 * scores + 0.75 / 3.0
    auc2, ap2 = micro_auc_ap(squeezed, labels)
    assert auc2 == pytest.approx(auc, abs=1e-12)
    assert ap2 == pytest.approx(ap, abs=1e-12)


def test_micro_auc_ap_validation():
    with pytest.raises(DataError, match="sum to 1"):
        micro_auc_ap(np.array([[0.9, 0.3], [0.5, 0.5]]), [0, 1])
    with pytest.raises(DataError):
        micro_auc_ap(np.ones((2, 1)), [0, 0])
    with pytest.raises(DataError):
        micro_auc_ap(np.full((2, 2), 0.5), [0, 2])
    with pytest.raises(DataError):
        micro_auc_ap(np.full((3, 2), 0.5), [0, 1])


# ---------------------------------------------------------------------------
# Reports and exports
# ---------------------------------------------------------------------------


def test_build_metrics_schema_is_stable():
    empty = build_metrics()
    assert set(empty) == {"c_index", "micro_auc", "micro_ap", "micro_f1",
                          "accuracy", "f1_per_class", "confusion_matrix",
                          "n_samples", "n_events"}
    assert empty["c_index"] is None and empty["n_samples"] == 0


def test_build_metrics_survival_only():
    report = build_metrics(risks=[2.0, 1.0, 0.5], times=[1.0, 2.0, 3.0],
                           events=[1, 1, 0])
    assert report["c_index"] == 1.0
    assert report["n_samples"] == 3 and report["n_events"] == 2
    assert report["accuracy"] is None and report["confusion_matrix"] is None


def test_build_metrics_grade_only():
    lp = np.log(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]]))
    report = build_metrics(log_probs=lp, true_grades=[0, 1, 2])
    assert report["accuracy"] == 1.0 and report["micro_f1"] == 1.0
    assert report["micro_auc"] == 1.0
    assert report["f1_per_class"] == [1.0, 1.0, 1.0]
    assert report["confusion_matrix"] == np.eye(3, dtype=int).tolist()
    assert report["n_samples"] == 3 and report["n_events"] is None
    assert report["c_index"] is None


def test_save_metrics_deterministic(tmp_path):
    report = build_metrics(risks=[2.0, 1.0], times=[1.0, 2.0], events=[1, 1])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_metrics(report, a)
    save_metrics(report, b)
    assert a.read_bytes() == b.read_bytes()
    parsed = json.loads(a.read_text())
    assert parsed["c_index"] == report["c_index"]
    assert a.read_text().endswith("\n")


def test_km_export_csv(tmp_path):
    curves = {
        "Low": km_curve([1.0, 2.0, 3.0], [1, 0, 1]),
        "High": km_curve([1.0, 1.5], [1, 1]),
    }
    path = tmp_path / "km.csv"
    km_export_csv(curves, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "group,time,survival,at_risk,events"
    assert len(lines) == 1 + 2 + 2
    first = lines[1].split(",")
    assert first[0] == "Low" and float(first[1]) == 1.0
    assert float(first[2]) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert first[3] == "3" and first[4] == "1"


def test_km_export_csv_empty_curve_writes_header_only(tmp_path):
    path = tmp_path / "km.csv"
    km_export_csv({"Low": km_curve([1.0], [0])}, path)
    assert path.read_text() == "group,time,survival,at_risk,events\n"


def test_km_export_svg(tmp_path):
    curves = {
        "Low": km_curve([1.0, 4.0], [1, 1]),
        "Mid": km_curve([2.0, 3.0], [1, 0]),
        "High": km_curve([1.5], [1]),
    }
    path = tmp_path / "km.svg"
    km_export_svg(curves, path)
    text = path.read_text()
    assert text.startswith("<svg ")
    assert text.count("<path ") == 3
    for name in ("Low", "Mid", "High"):
        assert f">{name}</text>" in text
    with pytest.raises(ValueError):
        km_export_svg({str(i): km_curve([1.0], [1]) for i in range(4)},
                      tmp_path / "big.svg")


def test_km_export_svg_deterministic(tmp_path):
    curves = {"Low": km_curve([1.0, 2.0], [1, 1])}
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    km_export_svg(curves, a)
    km_export_svg(curves, b)
    assert a.read_bytes() == b.read_bytes()
