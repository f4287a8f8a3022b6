"""Survival and classification metrics plus their report/plot exports.

Everything in here is a pure function of arrays; nothing touches the
network types. Risk scores follow the convention that HIGHER risk means
SHORTER expected survival.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, UndefinedResultError

GROUP_NAMES = ("Low", "Mid", "High")
# Step-plot strokes for up to three risk groups.
_SVG_COLORS = ("#1f77b4", "#ff7f0e", "#d62728")


def _vec(values, name: str) -> np.ndarray:
    a = np.asarray(values, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(a)):
        raise DataError(f"{name} contains non-finite values")
    return a


def _events_vec(events) -> np.ndarray:
    e = np.asarray(events).reshape(-1)
    if not np.isin(e, (0, 1)).all():
        raise DataError("event indicators must be 0 or 1")
    return e.astype(np.int64)


# ---------------------------------------------------------------------------
# Concordance
# ---------------------------------------------------------------------------

def c_index(risks, times, events, tie_rule: str = "half") -> float:
    """Concordance over pairs (i, j) with t_j < t_i and an observed event
    at j: concordant when risk_j > risk_i. Tied risks score 0.5 under the
    default rule; ``tie_rule='strict'`` scores them 0.

    Samples are walked by time, latest first, one group of equal times at a
    time. A Fenwick tree over dense risk ranks holds every sample already
    walked, which is every sample that outlived the current group. Each event
    in the group reads from it how many of those have a lower risk
    (concordant) and how many an equal one (tied); then the whole group is
    inserted. That is O(n log n) time and O(n) memory. The three pair counts
    are exact integers and the score is formed from them by the same float
    operations as the pairwise definition, so the result is bit-identical to
    counting every pair.
    """
    if tie_rule not in ("half", "strict"):
        raise ValueError(f"tie_rule must be 'half' or 'strict', got {tie_rule!r}")
    y = _vec(risks, "risks")
    t = _vec(times, "times")
    d = _events_vec(events)
    if not (len(y) == len(t) == len(d)):
        raise DataError("risks, times, events must have equal lengths")
    distinct_risks, rank = np.unique(y, return_inverse=True)
    order = np.argsort(t, kind="stable")[::-1]
    t_desc = t[order]
    starts = np.flatnonzero(np.r_[True, t_desc[1:] != t_desc[:-1]])
    stops = np.r_[starts[1:], len(t)]
    rank_desc = rank[order].tolist()
    event_desc = d[order].tolist()
    size = len(distinct_risks)
    tree = [0] * (size + 1)  # tree[k] covers ranks [k - (k & -k), k)
    at_rank = [0] * size
    concordant = tied = total = 0
    for start, stop in zip(starts.tolist(), stops.tolist()):
        for r, e in zip(rank_desc[start:stop], event_desc[start:stop]):
            if e:
                k = r
                while k:
                    concordant += tree[k]
                    k &= k - 1
                tied += at_rank[r]
                total += start
        for r in rank_desc[start:stop]:
            at_rank[r] += 1
            k = r + 1
            while k <= size:
                tree[k] += 1
                k += k & -k
    if total == 0:
        raise UndefinedResultError("no comparable pairs for concordance")
    score = np.int64(concordant)
    if tie_rule == "half":
        score = score + 0.5 * np.int64(tied)
    return float(score / total)


# ---------------------------------------------------------------------------
# Kaplan-Meier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KMCurve:
    """Product-limit estimate stepped at the distinct observed event times."""

    event_times: np.ndarray
    survival: np.ndarray
    at_risk: np.ndarray
    events: np.ndarray

    def __len__(self) -> int:
        return len(self.event_times)


def km_curve(times, events) -> KMCurve:
    """S(t) = prod over event times u <= t of (1 - d_u / n_u), where n_u
    counts subjects still at risk at u. Censored subjects leave the risk
    set without creating a step. No events yields an empty (flat) curve.

    d_u is how often u repeats among the event times, and n_u is n less the
    subjects whose time is below u, found by binary search in the sorted
    times. That is O(n log n) time and O(n) memory. Both counts are exact
    integers, so the factors and the product are the ones the definition
    gives.
    """
    t = _vec(times, "times")
    if np.any(t < 0):
        raise DataError("survival times must be non-negative")
    d = _events_vec(events)
    if len(t) != len(d):
        raise DataError("times and events must have equal lengths")
    event_times, n_events = np.unique(t[d == 1], return_counts=True)
    at_risk = len(t) - np.searchsorted(np.sort(t), event_times, "left")
    factors = 1.0 - n_events / np.maximum(at_risk, 1)
    return KMCurve(event_times=event_times, survival=np.cumprod(factors),
                   at_risk=at_risk, events=n_events)


# ---------------------------------------------------------------------------
# Risk stratification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiskGroups:
    labels: tuple[str, ...]
    cut_low: float
    cut_high: float


def risk_tertiles(risks) -> RiskGroups:
    """33/66-percentile stratification: Low <= p33 < Mid <= p66 < High.
    Percentiles use linear interpolation; boundary samples fall to the
    lower group, so all-equal risks put everyone in Low."""
    y = _vec(risks, "risks")
    if len(y) < 3:
        raise ValueError(f"need >= 3 samples to form tertiles, got {len(y)}")
    p33 = float(np.percentile(y, 33))
    p66 = float(np.percentile(y, 66))
    labels = tuple(
        "Low" if v <= p33 else ("Mid" if v <= p66 else "High") for v in y)
    return RiskGroups(labels=labels, cut_low=p33, cut_high=p66)


# ---------------------------------------------------------------------------
# Classification metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfusionMatrix:
    """Integer counts, rows = true class, columns = predicted class."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise DataError(f"confusion matrix must be square, got {c.shape}")
        if np.any(c < 0):
            raise DataError("confusion matrix counts must be non-negative")
        object.__setattr__(self, "counts", c)

    @property
    def k(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(pred_classes, true_classes, k: int) -> ConfusionMatrix:
    p = np.asarray(pred_classes, dtype=np.int64).reshape(-1)
    t = np.asarray(true_classes, dtype=np.int64).reshape(-1)
    if len(p) != len(t):
        raise DataError("prediction and truth lengths differ")
    for name, v in (("predicted", p), ("true", t)):
        bad = np.nonzero((v < 0) | (v >= k))[0]
        if len(bad):
            raise DataError(
                f"{name} class {v[bad[0]]} out of range [0, {k}) "
                f"at sample index {bad[0]}")
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (t, p), 1)
    return ConfusionMatrix(counts=counts)


def predicted_classes(log_probs) -> np.ndarray:
    """Argmax per row; ties break to the lowest class index."""
    lp = np.asarray(log_probs, dtype=np.float64)
    return lp.argmax(axis=1)


def accuracy_and_micro_f1(cm: ConfusionMatrix) -> tuple[float, float]:
    """Accuracy = trace/total; micro-F1 pools TP/FP/FN over classes. For
    single-label multi-class input the two coincide exactly."""
    if cm.total == 0:
        raise UndefinedResultError("empty confusion matrix")
    c = cm.counts
    tp = np.diag(c).sum()
    fp = c.sum(axis=0).sum() - tp
    fn = c.sum(axis=1).sum() - tp
    accuracy = float(tp / cm.total)
    micro_f1 = float(2 * tp / (2 * tp + fp + fn)) if tp + fp + fn else 0.0
    return accuracy, micro_f1


def per_class_f1(cm: ConfusionMatrix, class_index: int) -> float:
    """Harmonic mean of one class's precision and recall; 0 when the class
    never appears in truth or predictions."""
    if not 0 <= class_index < cm.k:
        raise ValueError(f"class index {class_index} out of range [0, {cm.k})")
    c = cm.counts
    tp = int(c[class_index, class_index])
    pred = int(c[:, class_index].sum())
    true = int(c[class_index, :].sum())
    if tp == 0:
        return 0.0
    precision = tp / pred
    recall = tp / true
    return float(2 * precision * recall / (precision + recall))


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``; each block of equal values, sorted
    positions i..j, shares the midrank (i + j) / 2 + 1."""
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_values[1:] != sorted_values[:-1]])
    ends = np.r_[starts[1:], len(values)] - 1
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def micro_auc_ap(scores, true_classes) -> tuple[float, float]:
    """Micro-averaged one-vs-rest ROC-AUC and average precision.

    Labels are binarized one-vs-rest and all n*k (score, indicator) pairs
    are pooled. AUC uses the Mann-Whitney midrank formulation (ties get
    half credit); AP accumulates precision-weighted recall increments over
    the distinct pooled thresholds, descending.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(true_classes, dtype=np.int64).reshape(-1)
    if s.ndim != 2 or s.shape[0] != len(y):
        raise DataError(f"scores shape {s.shape} does not match {len(y)} labels")
    n, k = s.shape
    if k < 2:
        raise DataError("need at least 2 classes")
    if np.any((y < 0) | (y >= k)):
        raise DataError(f"true class out of range [0, {k})")
    if not np.allclose(s.sum(axis=1), 1.0, atol=1e-6):
        raise DataError("score rows must sum to 1")

    onehot = np.zeros((n, k), dtype=np.int64)
    onehot[np.arange(n), y] = 1
    pos = onehot.reshape(-1).astype(bool)
    pooled = s.reshape(-1)
    n_pos = int(pos.sum())
    n_neg = len(pooled) - n_pos

    ranks = _midranks(pooled)
    auc = (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

    # AP over distinct thresholds, high scores first.
    desc = np.argsort(-pooled, kind="stable")
    sorted_pos = pos[desc].astype(np.float64)
    sorted_vals = pooled[desc]
    tp_cum = np.cumsum(sorted_pos)
    count = np.arange(1, len(pooled) + 1)
    # last index of each distinct-value block
    block_end = np.nonzero(np.diff(sorted_vals, append=np.nan) != 0)[0]
    tp_at = tp_cum[block_end]
    precision_at = tp_at / count[block_end]
    recall_at = tp_at / n_pos
    recall_prev = np.concatenate([[0.0], recall_at[:-1]])
    ap = float(np.sum((recall_at - recall_prev) * precision_at))
    return float(auc), ap


# ---------------------------------------------------------------------------
# Report and plot exports
# ---------------------------------------------------------------------------

def build_metrics(risks=None, times=None, events=None,
                  log_probs=None, true_grades=None, k: int | None = None,
                  tie_rule: str = "half") -> dict:
    """Assemble the standard metrics dictionary; task blocks whose inputs
    are absent come back as nulls so the report schema is stable."""
    report: dict = {
        "c_index": None,
        "micro_auc": None,
        "micro_ap": None,
        "micro_f1": None,
        "accuracy": None,
        "f1_per_class": None,
        "confusion_matrix": None,
        "n_samples": 0,
        "n_events": None,
    }
    if risks is not None:
        t = _vec(times, "times")
        d = _events_vec(events)
        report["c_index"] = c_index(risks, t, d, tie_rule=tie_rule)
        report["n_samples"] = len(t)
        report["n_events"] = int(d.sum())
    if log_probs is not None:
        lp = np.asarray(log_probs, dtype=np.float64)
        if k is None:
            k = lp.shape[1]
        y = np.asarray(true_grades, dtype=np.int64).reshape(-1)
        cm = confusion(predicted_classes(lp), y, k)
        accuracy, micro_f1 = accuracy_and_micro_f1(cm)
        auc, ap = micro_auc_ap(np.exp(lp), y)
        report.update(
            micro_auc=auc, micro_ap=ap, micro_f1=micro_f1, accuracy=accuracy,
            f1_per_class=[per_class_f1(cm, c) for c in range(k)],
            confusion_matrix=cm.counts.tolist(),
            n_samples=len(y),
        )
    return report


def save_metrics(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def km_export_csv(curves: dict[str, KMCurve], path) -> None:
    """One row per (group, event time): group,time,survival,at_risk,events."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("group,time,survival,at_risk,events\n")
        for group, curve in curves.items():
            for i in range(len(curve)):
                fh.write(f"{group},{float(curve.event_times[i])!r},"
                         f"{float(curve.survival[i])!r},{int(curve.at_risk[i])},"
                         f"{int(curve.events[i])}\n")


def km_export_svg(curves: dict[str, KMCurve], path,
                  width: int = 640, height: int = 420) -> None:
    """Minimal self-contained step plot of up to three curves."""
    if len(curves) > 3:
        raise ValueError("SVG export supports at most three groups")
    pad = 50.0
    t_max = max((float(c.event_times[-1]) for c in curves.values() if len(c)),
                default=1.0)
    t_max = t_max if t_max > 0 else 1.0

    def sx(t: float) -> float:
        return pad + (width - 2 * pad) * t / t_max

    def sy(s: float) -> float:
        return pad + (height - 2 * pad) * (1.0 - s)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{sy(0.0)}" x2="{width - pad}" y2="{sy(0.0)}" '
        'stroke="black"/>',
        f'<line x1="{pad}" y1="{sy(0.0)}" x2="{pad}" y2="{sy(1.0)}" '
        'stroke="black"/>',
        f'<text x="{pad - 8}" y="{sy(1.0) + 4}" text-anchor="end" '
        'font-size="11">1.0</text>',
        f'<text x="{pad - 8}" y="{sy(0.0) + 4}" text-anchor="end" '
        'font-size="11">0.0</text>',
    ]
    for idx, (group, curve) in enumerate(curves.items()):
        color = _SVG_COLORS[idx]
        points = [(0.0, 1.0)]
        for t, s in zip(curve.event_times, curve.survival):
            prev_s = points[-1][1]
            points.append((float(t), prev_s))
            points.append((float(t), float(s)))
        d = " ".join(
            f"{'M' if i == 0 else 'L'}{sx(t):.2f},{sy(s):.2f}"
            for i, (t, s) in enumerate(points))
        parts.append(f'<path d="{d}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width - pad + 4}" y="{pad + 14 * idx + 4}" '
            f'font-size="11" fill="{color}">{group}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
