"""Reference implementations used as oracles by the test suite.

Everything here is written the slow, literal way (explicit loops, scalar
math, no vectorization) and independently of the package internals, so
agreement between the two routes is evidence of correctness rather than a
shared bug.
"""

import math

import numpy as np

SELU_SCALE = 1.0507009873554804934193349852946
SELU_SHIFT = 1.6732632423543772848170429916717


def matmul_loops(a, b):
    a = [list(map(float, row)) for row in np.atleast_2d(a)]
    b = [list(map(float, row)) for row in np.atleast_2d(b)]
    n, m, k = len(a), len(b), len(b[0])
    out = [[0.0] * k for _ in range(n)]
    for i in range(n):
        for j in range(k):
            acc = 0.0
            for l in range(m):
                acc += a[i][l] * b[l][j]
            out[i][j] = acc
    return np.asarray(out)


def relu_scalar(v):
    return v if v > 0 else 0.0


def selu_scalar(v):
    if v > 0:
        return SELU_SCALE * v
    return SELU_SCALE * SELU_SHIFT * (math.exp(v) - 1.0)


def sigmoid_scalar(v):
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def log_softmax_row(row):
    m = max(row)
    z = sum(math.exp(v - m) for v in row)
    return [v - m - math.log(z) for v in row]


def cox_scalar(risks, times, events):
    """Negative Cox partial log-likelihood, evaluated per event from the
    definition: risk sets are everyone with t_j >= t_i, averaged over the
    observed events."""
    n = len(risks)
    n_events = sum(events)
    if n_events == 0:
        return 0.0
    total = 0.0
    for i in range(n):
        if events[i] != 1:
            continue
        denom = sum(math.exp(risks[j]) for j in range(n)
                    if times[j] >= times[i])
        total += risks[i] - math.log(denom)
    return -total / n_events


def nll_scalar(log_probs, labels):
    return -sum(log_probs[i][labels[i]]
                for i in range(len(labels))) / len(labels)


def cindex_pairs(risks, times, events, tie_rule="half"):
    """Concordance by exhaustive pair enumeration. Returns None when no
    pair is comparable."""
    num = 0.0
    den = 0
    n = len(risks)
    for j in range(n):
        if events[j] != 1:
            continue
        for i in range(n):
            if times[j] < times[i]:
                den += 1
                if risks[j] > risks[i]:
                    num += 1.0
                elif risks[j] == risks[i] and tie_rule == "half":
                    num += 0.5
    if den == 0:
        return None
    return num / den


def cindex_matrix(risks, times, events, tie_rule="half"):
    """Concordance from three n x n boolean pair matrices, the way the
    package computed it before it counted pairs with a Fenwick tree. Returns
    None when no pair is comparable. Quadratic memory: small n only."""
    y = np.asarray(risks, dtype=np.float64)
    t = np.asarray(times, dtype=np.float64)
    d = np.asarray(events, dtype=np.int64)
    # comparable[j, i]: j died strictly before i was last seen
    comparable = (t[:, None] < t[None, :]) & (d[:, None] == 1)
    total = int(comparable.sum())
    if total == 0:
        return None
    concordant = comparable & (y[:, None] > y[None, :])
    tied = comparable & (y[:, None] == y[None, :])
    score = concordant.sum()
    if tie_rule == "half":
        score = score + 0.5 * tied.sum()
    return float(score / total)


def midranks_loop(values):
    """1-based midranks by walking each tied block of the stably sorted
    values; returns a float64 array in input order."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_values = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def km_hand(times, events):
    """Product-limit estimate computed step by step; returns a list of
    (event_time, survival, at_risk, n_events) tuples."""
    rows = []
    s = 1.0
    for u in sorted({t for t, e in zip(times, events) if e == 1}):
        n_u = sum(1 for t in times if t >= u)
        d_u = sum(1 for t, e in zip(times, events) if t == u and e == 1)
        s *= 1.0 - d_u / n_u
        rows.append((u, s, n_u, d_u))
    return rows


def binary_auc_pairs(scores, labels):
    """Mann-Whitney AUC with half credit on ties, one pair at a time."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def binary_ap_blocks(scores, labels):
    """Average precision by walking distinct thresholds from the top; tied
    scores enter together as one block."""
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    rows = [(scores[i], labels[i]) for i in order]
    n_pos = sum(labels)
    ap = 0.0
    prev_recall = 0.0
    tp = 0
    seen = 0
    i = 0
    while i < len(rows):
        j = i
        while j + 1 < len(rows) and rows[j + 1][0] == rows[i][0]:
            j += 1
        for k in range(i, j + 1):
            seen += 1
            tp += rows[k][1]
        recall = tp / n_pos
        ap += (recall - prev_recall) * (tp / seen)
        prev_recall = recall
        i = j + 1
    return ap


def pooled_one_vs_rest(prob_rows, labels):
    """Flatten an n x k score table into n*k binary (score, indicator)
    pairs, row by row."""
    scores, ind = [], []
    for row, y in zip(prob_rows, labels):
        for c, s in enumerate(row):
            scores.append(float(s))
            ind.append(1 if c == y else 0)
    return scores, ind


def confusion_count(pred, true, k):
    counts = [[0] * k for _ in range(k)]
    for p, t in zip(pred, true):
        counts[int(t)][int(p)] += 1
    return counts


def f1_from_counts(counts, c):
    tp = counts[c][c]
    pred = sum(row[c] for row in counts)
    true = sum(counts[c])
    if tp == 0:
        return 0.0
    precision, recall = tp / pred, tp / true
    return 2 * precision * recall / (precision + recall)


def adam_scalar(p, g, m, v, t, rate, wd=0.0, b1=0.9, b2=0.999, eps=1e-8):
    """One hand-written scalar Adam update; returns (p, m, v)."""
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    p = p - rate * m_hat / (math.sqrt(v_hat) + eps) - rate * wd * p
    return p, m, v


def adam_arrays(params, grads, moments, t, rate, wd=0.0, b1=0.9, b2=0.999,
                eps=1e-8):
    """The out-of-place array Adam update with decoupled weight decay, written
    as the textbook formula: returns fresh (params, moments) dicts, where
    moments maps each name to its (m, v) pair. Inputs are left untouched."""
    new_params, new_moments = {}, {}
    for name, p in params.items():
        g = grads[name]
        m, v = moments[name]
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        step = rate * m_hat / (np.sqrt(v_hat) + eps)
        if wd:
            step = step + rate * wd * p
        new_params[name] = p - step
        new_moments[name] = (m, v)
    return new_params, new_moments


def standardize_two_pass(train_rows, rows):
    """Column z-scores fitted on train_rows by explicit accumulation,
    applied to rows; zero-variance columns map to 0."""
    n, p = len(train_rows), len(train_rows[0])
    means, stds = [], []
    for c in range(p):
        mu = sum(r[c] for r in train_rows) / n
        var = sum((r[c] - mu) ** 2 for r in train_rows) / n
        means.append(mu)
        stds.append(math.sqrt(var))
    out = []
    for r in rows:
        out.append([(r[c] - means[c]) / stds[c] if stds[c] > 0 else 0.0
                    for c in range(p)])
    return np.asarray(out)


def rel_err(analytic, numeric):
    """Worst relative error with the unit floor in the denominator."""
    a = np.asarray(analytic, dtype=np.float64)
    f = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1.0)
    return float(np.max(np.abs(a - f) / denom))


def fd_array_gradient(f, x, eps=1e-5):
    """Central differences of the scalar f(x) w.r.t. a standalone array."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2.0 * eps)
    return g


def fd_param_gradients(params, f, eps=1e-5):
    """Central differences of the scalar f() w.r.t. every entry of every
    parameter array, perturbing the live arrays in place."""
    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr)
        flat, gf = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f()
            flat[i] = orig - eps
            lo = f()
            flat[i] = orig
            gf[i] = (hi - lo) / (2.0 * eps)
        grads[name] = g
    return grads
