"""Reference implementations used as oracles by the test suite.

Everything here is written the slow, literal way (explicit loops, scalar
math, no vectorization) and independently of the package internals, so
agreement between the two routes is evidence of correctness rather than a
shared bug.
"""

import csv
import math
import os

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


def mask_dense(mask):
    """The p x p 0/1 matrix of an adjacency mask, one nonzero at a time."""
    out = [[0.0] * mask.dim for _ in range(mask.dim)]
    for r, c in zip(mask.rows.tolist(), mask.cols.tolist()):
        out[r][c] = 1.0
    return np.asarray(out).reshape(mask.dim, mask.dim)


def masked_product_loops(x, mask, values):
    """``x @ W`` for the p x p matrix W holding ``values`` at the mask's
    coordinates, in scipy's dense @ CSR order (``csc_matvecs`` over the
    transpose): every output starts at 0.0, and each nonzero, in row-major
    order, does ``y[n][c] = y[n][c] + v * x[n][r]`` for every row n. Python
    rounds each multiply and each add on its own."""
    xs = [list(map(float, row)) for row in np.atleast_2d(x)]
    out = [[0.0] * mask.dim for _ in xs]
    for r, c, v in zip(mask.rows.tolist(), mask.cols.tolist(),
                       map(float, values)):
        for n, row in enumerate(xs):
            out[n][c] = out[n][c] + v * row[r]
    return np.asarray(out).reshape(len(xs), mask.dim)


def masked_gradient_column_gathers(x, d_pre, mask, chunk):
    """A masked layer's weight gradient as its backward pass once formed
    it: for each slice of ``chunk // batch`` nonzeros, gather the columns
    ``x[:, rows]`` and ``d_pre[:, cols]`` and sum the batch with
    ``einsum("nk,nk->k")``. Fancy indexing on columns returns F-ordered
    (batch, k) arrays, and that layout fixes einsum's summation order."""
    out = np.empty(mask.nnz)
    step = max(1, chunk // len(d_pre))
    for lo in range(0, mask.nnz, step):
        span = slice(lo, lo + step)
        np.einsum("nk,nk->k", x[:, mask.rows[span]], d_pre[:, mask.cols[span]],
                  out=out[span])
    return out


def uniform_init_draws(gen, layers):
    """Initial weights of ``layers``, in order, drawn as ``assemble``'s
    docstring states them with one ``gen.uniform`` array per layer: a dense
    (d_in, d_out) layer from U(+-sqrt(6/(d_in+d_out))), and a masked layer
    from U(-1, 1), each nonzero (r, c) then times sqrt(6/(nonzeros in
    column c + nonzeros in row r))."""
    draws = []
    for layer in layers:
        mask = getattr(layer, "mask", None)
        if mask is not None:
            rows, cols = mask.rows.tolist(), mask.cols.tolist()
            limits = [math.sqrt(6.0 / (cols.count(c) + rows.count(r)))
                      for r, c in zip(rows, cols)]
            draws.append(gen.uniform(-1.0, 1.0, size=len(rows))
                         * np.array(limits))
        else:
            d_in, d_out = layer.weights.shape
            limit = math.sqrt(6.0 / (d_in + d_out))
            draws.append(gen.uniform(-limit, limit, size=(d_in, d_out)))
    return draws


def adjacency_set_sort(genes, edges):
    """Row and column lists of the adjacency mask with self-loops over
    ``genes`` and the symbol pairs ``edges``, built as a set of ``(i, j)``
    pairs and sorted."""
    index = {g: i for i, g in enumerate(genes)}
    coords = {(i, i) for i in range(len(genes))}
    for a, b in edges:
        i, j = index[a], index[b]
        coords.add((i, j))
        coords.add((j, i))
    ordered = sorted(coords)
    return [r for r, _ in ordered], [c for _, c in ordered]


# A first data line made only of these words (case-insensitive) is a header.
EDGE_HEADER_WORDS = {
    "gene1", "gene2", "genea", "geneb", "gene_a", "gene_b",
    "protein1", "protein2", "proteina", "proteinb", "protein_a", "protein_b",
    "source", "target", "node1", "node2", "from", "to",
    "symbol1", "symbol2", "interactor_a", "interactor_b",
}


def edge_list_sets(path):
    """An interaction edge list read line by line in text mode into a set
    of canonical ``(min, max)`` symbol tuples.

    Returns ``(genes, edges, error)``: the symbols in order of first
    appearance (a self-pair's included, a header's not), the edge set
    (self-pairs dropped), and the message of the error that ends the read,
    or None. On an error, genes and edges are None.
    """
    name = os.path.basename(path)
    genes, seen, edges = [], set(), set()
    first_data_line = True
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 2:
                return None, None, (
                    f"{name}:{lineno}: expected 2 columns, got {len(tokens)}")
            if first_data_line:
                first_data_line = False
                if all(t.lower() in EDGE_HEADER_WORDS for t in tokens):
                    continue
            a, b = tokens
            for g in (a, b):
                if g not in seen:
                    seen.add(g)
                    genes.append(g)
            if a != b:
                edges.add((a, b) if a <= b else (b, a))
    return tuple(genes), frozenset(edges), None


def csv_sample_rows(path, columns=None):
    """A sample-keyed CSV read by ``csv.reader`` alone, record by record.

    Returns ``(header, rows, error)``: the header once it passes its checks
    (else None), the ``(line, row)`` pairs of the non-blank body records read
    before any error, each numbered by the physical line it starts on, and
    the message of the error that ends the read (None if none does). The
    header must equal ``columns`` when given and hold at least 2 columns, no
    name twice; a body record must be as wide as the header and have a new
    sample id.
    """
    name = os.path.basename(path)
    header, rows, seen = None, [], set()
    start = 1
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            for record in reader:
                if header is None:
                    if columns is not None and tuple(record) != columns:
                        return None, [], (
                            f"{name}: expected columns {','.join(columns)}, "
                            f"got {','.join(record)}")
                    if len(record) < 2:
                        return None, [], (
                            f"{name}: header needs sample_id + features")
                    for i, column in enumerate(record):
                        if column in record[:i]:
                            return None, [], (
                                f"{name}:1: duplicate column {column!r}")
                    header = record
                elif record:
                    if len(record) != len(header):
                        return header, rows, (
                            f"{name}:{start}: expected {len(header)} columns, "
                            f"got {len(record)}")
                    if record[0] in seen:
                        return header, rows, (
                            f"{name}:{start}: duplicate sample id {record[0]!r}")
                    seen.add(record[0])
                    rows.append((start, record))
                start = reader.line_num + 1
        except csv.Error as exc:
            return header, rows, f"{name}:{start}: {exc}"
    if header is None:
        return None, [], f"{name}: empty file"
    return header, rows, None


def sample_table_error(path, columns):
    """The error reading a clinical table (``columns`` the five clinical
    names) or a risk table (``sample_id,risk``), found by walking its
    records in file order; None when the table is valid.

    ``csv_sample_rows`` gives the records read before any malformed one. In
    each record, every number is checked left to right: ``time_days`` and
    ``risk`` are finite floats, ``event`` and ``grade`` integers that fit
    int64. Then a clinical record's labels are checked, in this order:
    time_days >= 0, event 0 or 1, grade 0, 1 or 2. The first record that
    fails names the error; when none does, the malformed record, if any.
    """
    name = os.path.basename(path)
    _, rows, error = csv_sample_rows(path, columns)
    for line, record in rows:
        where = f"{name}:{line}"
        value = {}
        for column, token in zip(columns, record):
            if column in ("time_days", "risk"):
                try:
                    value[column] = float(token)
                except ValueError:
                    return f"{where}: unparseable number {token!r}"
                if math.isnan(value[column]) or math.isinf(value[column]):
                    return f"{where}: non-finite number {token!r}"
            elif column in ("event", "grade"):
                try:
                    value[column] = int(token)
                except ValueError:
                    return f"{where}: unparseable integer {token!r}"
                if not -2 ** 63 <= value[column] < 2 ** 63:
                    return f"{where}: integer {token!r} out of range"
        if "time_days" not in value:
            continue
        if value["time_days"] < 0:
            return f"{where}: negative time_days {value['time_days']!r}"
        if value["event"] not in (0, 1):
            return f"{where}: event {value['event']} is not 0 or 1"
        if value["grade"] not in (0, 1, 2):
            return f"{where}: grade {value['grade']} outside [0, 3)"
    return error


def relu_scalar(v):
    return v if v > 0 else 0.0


def selu_scalar(v):
    if v > 0:
        return SELU_SCALE * v
    return SELU_SCALE * SELU_SHIFT * (math.exp(v) - 1.0)


def relu_selu_backward_from_pre(kind, upstream, pre, out):
    """The relu and selu backward rules with the input's sign read from the
    pre-activation ``pre`` itself, not from the forward output ``out``."""
    if kind == "relu":
        return upstream * (pre > 0)
    if kind == "selu":
        return upstream * np.where(pre > 0, SELU_SCALE,
                                   out + SELU_SCALE * SELU_SHIFT)
    raise ValueError(f"no rule for {kind!r}")


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


def standardize_per_sample(train_rows, rows):
    """Per-gene z-score the way the row-per-sample cohort did it: moments
    over the stacked training rows, then each row transformed on its own;
    zero-variance genes map to 0. Returns (rows, mean, std)."""
    x = np.stack(train_rows).astype(np.float64)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    safe = np.where(std > 0, std, 1.0)
    live = std > 0
    return [np.where(live, (v - mean) / safe, 0.0) for v in rows], mean, std


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
