import json
import math
import tempfile
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import neighbors
from survfuse import datakit
from survfuse.datakit import (
    Cohort,
    SplitSet,
    _sample_rows,
    gen_splits,
    load_cohort,
    read_clinical,
    read_risks,
    save_cohort,
    standardize_expression,
    synth_gen,
)
from survfuse.errors import ConfigError, DataError
from survfuse.surveval import c_index


def small_cohort(**overrides):
    """Three samples, two genes, 3-wide embeddings; ``overrides`` replace
    whole columns."""
    columns = dict(sample_ids=("S1", "S2", "S3"),
                   sample_patients=("P1", "P1", "P2"),
                   time=[10.0, 5.0, 8.5], event=[1, 0, 1], grade=[0, 1, 2],
                   gene_order=("GA", "GB"),
                   expression=np.tile([0.1, 0.2], (3, 1)),
                   embedding=np.tile([1.0, 2.0, 3.0], (3, 1)))
    columns.update(overrides)
    return Cohort(**columns)


# ---------------------------------------------------------------------------
# Cohort model
# ---------------------------------------------------------------------------


def test_cohort_basic_accessors():
    cohort = small_cohort()
    assert len(cohort) == 3
    assert cohort.sample_ids == ("S1", "S2", "S3")
    assert cohort.sample_patients == ("P1", "P1", "P2")
    assert cohort.expression[cohort.rows(["S3", "S1"])].shape == (2, 2)
    assert cohort.embedding[cohort.rows(["S1"])].tolist() == [[1.0, 2.0, 3.0]]
    assert cohort.time[cohort.rows(["S2", "S3"])].tolist() == [5.0, 8.5]
    assert cohort.event[cohort.rows(["S1", "S2"])].tolist() == [1, 0]
    assert cohort.grade[cohort.rows(["S1", "S2", "S3"])].tolist() == [0, 1, 2]
    with pytest.raises(DataError, match="unknown sample"):
        cohort.rows(["S9"])
    assert [s.sample_id for s in cohort.samples] == ["S1", "S2", "S3"]
    first = cohort.samples[0]
    assert (first.patient_id, first.time, first.event, first.grade) == \
        ("P1", 10.0, 1, 0)
    assert first.expression.tolist() == [0.1, 0.2]


def test_cohort_missing_modality_rows():
    # A matrix left out is n x 0: no sample carries the modality, and every
    # sample carries the others.
    cohort = small_cohort(embedding=None)
    assert cohort.embedding.shape == (3, 0)
    assert [s.image_embedding for s in cohort.samples] == [None] * 3
    assert [s.expression.tolist() for s in cohort.samples] == [[0.1, 0.2]] * 3
    assert cohort.expression[cohort.rows(["S3", "S1"])].shape == (2, 2)
    assert cohort.time[cohort.rows(["S1", "S3"])].tolist() == [10.0, 8.5]
    assert cohort.dropped == ()
    bare = small_cohort(gene_order=(), expression=None)
    assert bare.expression.shape == (3, 0)
    assert [s.expression for s in bare.samples] == [None] * 3
    assert bare.samples[2].image_embedding.tolist() == [1.0, 2.0, 3.0]


def test_cohort_validation():
    assert len(small_cohort()) == 3
    with pytest.raises(DataError, match="duplicate sample"):
        small_cohort(sample_ids=("S1", "S1", "S3"))
    with pytest.raises(DataError, match="expression width"):
        small_cohort(expression=np.ones((3, 1)))
    # Every sample carries each modality the cohort has: a gene panel with
    # no expression matrix is one no sample fills.
    with pytest.raises(DataError, match="expression width 0 != gene count 2"):
        small_cohort(expression=None)
    # One matrix holds every embedding, so widths cannot differ by sample;
    # what can go wrong is the row count.
    with pytest.raises(DataError, match="embedding matrix"):
        small_cohort(embedding=np.ones((2, 3)))
    with pytest.raises(DataError, match="grade"):
        small_cohort(grade=[0, 3, 1])
    with pytest.raises(DataError, match="negative time"):
        small_cohort(time=[10.0, -1.0, 8.5])
    with pytest.raises(DataError, match="event"):
        small_cohort(event=[1, 2, 0])
    # The first bad sample is the one reported.
    with pytest.raises(DataError, match="'S2': negative time"):
        small_cohort(time=[10.0, -1.0, 8.5], grade=[0, 1, 3])
    with pytest.raises(DataError, match="sample_patients"):
        small_cohort(sample_patients=("P1", "P2"))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cohort_rejects_non_finite_times(bad):
    # NaN and +inf pass the sign rule (t < 0 is False for them).
    with pytest.raises(DataError,
                       match=f"^sample 'S2': non-finite time_days {bad!r}$"):
        small_cohort(time=[10.0, bad, 8.5])
    # Finiteness is checked before the sign, and before the other labels.
    with pytest.raises(DataError, match="'S1': non-finite time_days"):
        small_cohort(time=[bad, -1.0, 8.5], grade=[3, 1, 2])


def test_gene_subset_reorders_columns():
    cohort = small_cohort()
    sub = cohort.gene_subset(["GB"])
    assert sub.gene_order == ("GB",)
    assert sub.expression[sub.rows(["S1"])].tolist() == [[0.2]]
    swapped = cohort.gene_subset(["GB", "GA"])
    assert swapped.expression[swapped.rows(["S1"])].tolist() == [[0.2, 0.1]]
    with pytest.raises(DataError, match="not in cohort"):
        cohort.gene_subset(["GZ"])


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------


def paths(tmp_path):
    return (tmp_path / "clinical.csv", tmp_path / "expr.csv",
            tmp_path / "emb.csv")


def test_save_load_round_trip_is_bit_exact(tmp_path):
    cohort, _, _ = synth_gen(patients=12, genes=5, causal_genes=2,
                             censor_rate=0.4, label_noise=0.2, seed=3,
                             embedding_dim=4)
    clinical, expr, emb = paths(tmp_path)
    save_cohort(cohort, clinical, expr, emb)
    loaded = load_cohort(clinical, expr, emb)
    assert loaded.sample_ids == cohort.sample_ids
    assert loaded.gene_order == cohort.gene_order
    for s, t in zip(cohort.samples, loaded.samples):
        assert (s.patient_id, s.time, s.event, s.grade) == \
            (t.patient_id, t.time, t.event, t.grade)
        assert np.array_equal(s.expression, t.expression)
        assert np.array_equal(s.image_embedding, t.image_embedding)


def test_save_cohort_is_byte_deterministic(tmp_path):
    cohort = small_cohort()
    first = paths(tmp_path / "a")
    second = paths(tmp_path / "b")
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    save_cohort(cohort, *first)
    save_cohort(cohort, *second)
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()


def test_multi_sample_patient_fixture(tmp_path):
    # 469 patients carrying 953 samples total (15 with three, 454 with two)
    rows = [(f"P{p:04d}-S{s}", f"P{p:04d}", float(p + 1), p % 2, p % 3,
             [float(p)])
            for p in range(469) for s in range(3 if p < 15 else 2)]
    sids, pids, times, events, grades, expression = zip(*rows)
    cohort = Cohort(sample_ids=sids, sample_patients=pids, time=times,
                    event=events, grade=grades, gene_order=("GA",),
                    expression=expression)
    assert len(cohort) == 953
    clinical, expr, _ = paths(tmp_path)
    save_cohort(cohort, clinical, expr)
    loaded = load_cohort(clinical, expr)
    assert len(loaded) == 953
    assert len(set(loaded.sample_patients)) == 469


def test_load_cohort_keeps_modality_free_rows(tmp_path, recwarn):
    clinical, expr, _ = paths(tmp_path)
    clinical.write_text(
        "sample_id,patient_id,time_days,event,grade\n"
        "S1,P1,10.0,1,0\n"
        "S2,P2,5.0,0,1\n")
    expr.write_text("sample_id,GA\nS1,0.5\n")
    # A row the expression file lacks is dropped, without a warning.
    cohort = load_cohort(clinical, expr)
    assert not recwarn.list
    assert cohort.sample_ids == ("S1",)
    assert cohort.dropped == ("S2",)
    assert cohort.expression[cohort.rows(["S1"])].tolist() == [[0.5]]
    with pytest.raises(DataError, match="unknown sample id 'S2'"):
        cohort.rows(["S2"])
    # With no modality file, every row is kept and none has a modality.
    bare = load_cohort(clinical)
    assert bare.sample_ids == ("S1", "S2")
    assert bare.dropped == ()
    assert bare.time[bare.rows(["S2"])].tolist() == [5.0]
    assert [(s.expression, s.image_embedding) for s in bare.samples] == \
        [(None, None)] * 2


def _keep_rows(path, order):
    """Rewrite the sample-keyed CSV at ``path`` to hold its body rows at
    positions ``order``, in that order."""
    header, *rows = path.read_text().splitlines(keepends=True)
    path.write_text(header + "".join(rows[i] for i in order))


# How a modality file's rows are laid out relative to the clinical rows:
# ``gap`` makes each file lack a different set of rows.
_LAYOUTS = {
    "clinical-order": lambda rows, gap: rows,
    "missing": lambda rows, gap: [r for r in rows if r % gap],
    "reversed": lambda rows, gap: rows[::-1],
    "missing-reversed": lambda rows, gap: [r for r in rows if r % gap][::-1],
}


@pytest.mark.parametrize("emb_layout", _LAYOUTS)
@pytest.mark.parametrize("expr_layout", _LAYOUTS)
def test_load_cohort_keeps_the_rows_every_file_fills(tmp_path, expr_layout,
                                                     emb_layout):
    cohort, _, _ = synth_gen(patients=12, genes=5, causal_genes=2,
                             censor_rate=0.4, label_noise=0.2, seed=3,
                             embedding_dim=4)
    clinical, expr, emb = paths(tmp_path)
    save_cohort(cohort, clinical, expr, emb)
    filled = set(range(12))
    for path, layout, gap in ((expr, expr_layout, 3), (emb, emb_layout, 4)):
        order = _LAYOUTS[layout](list(range(12)), gap)
        _keep_rows(path, order)
        filled &= set(order)
    kept = [i for i in range(12) if i in filled]
    loaded = load_cohort(clinical, expr, emb)
    assert loaded.sample_ids == tuple(cohort.sample_ids[i] for i in kept)
    assert loaded.sample_patients == tuple(cohort.sample_patients[i]
                                           for i in kept)
    assert loaded.dropped == tuple(sid for i, sid in enumerate(
        cohort.sample_ids) if i not in filled)
    assert loaded.gene_order == cohort.gene_order
    for name in ("time", "event", "grade", "expression", "embedding"):
        value = getattr(loaded, name)
        assert value.tobytes() == getattr(cohort, name)[kept].tobytes(), name
        assert value.flags.c_contiguous, name


@pytest.mark.parametrize("emb_layout, shared", [
    ("clinical-order", True), ("reversed", True), ("missing", False)])
def test_load_cohort_hands_over_a_parse_in_kept_order(tmp_path, monkeypatch,
                                                      emb_layout, shared):
    """A file whose rows are the kept rows, in order, is the cohort's
    matrix uncopied. The expression file holds every clinical row, so it
    is only while the embedding file lacks none."""
    cohort, _, _ = synth_gen(patients=12, genes=5, causal_genes=2,
                             censor_rate=0.4, label_noise=0.2, seed=3,
                             embedding_dim=4)
    clinical, expr, emb = paths(tmp_path)
    save_cohort(cohort, clinical, expr, emb)
    _keep_rows(emb, _LAYOUTS[emb_layout](list(range(12)), 5))
    parses = {}
    cached_parse = datakit._cached_parse

    def recorded(path):
        parses[Path(path).name] = table = cached_parse(path)
        return table

    monkeypatch.setattr(datakit, "_cached_parse", recorded)
    loaded = load_cohort(clinical, expr, emb)
    assert np.shares_memory(loaded.expression, parses["expr.csv"].values) \
        == shared
    assert np.shares_memory(loaded.embedding, parses["emb.csv"].values) \
        == (emb_layout != "reversed")
    assert len(loaded) == (9 if emb_layout == "missing" else 12)


def test_load_cohort_may_drop_every_row(tmp_path):
    clinical, expr, emb = paths(tmp_path)
    save_cohort(small_cohort(), clinical, expr, emb)
    _keep_rows(expr, [0, 1])
    _keep_rows(emb, [2])
    loaded = load_cohort(clinical, expr, emb)
    assert len(loaded) == 0
    assert loaded.dropped == ("S1", "S2", "S3")
    assert loaded.expression.shape == (0, 2)
    assert loaded.embedding.shape == (0, 3)


def test_load_cohort_error_reports(tmp_path):
    clinical, expr, _ = paths(tmp_path)
    clinical.write_text(
        "sample_id,patient_id,time_days,event,grade\nS1,P1,10.0,1,0\n")
    expr.write_text("sample_id,GA\nS9,0.5\n")
    with pytest.raises(DataError, match="'S9'"):
        load_cohort(clinical, expr)
    expr.write_text("sample_id,GA\nS1,abc\n")
    with pytest.raises(DataError, match="expr.csv:2"):
        load_cohort(clinical, expr)
    expr.write_text("sample_id,GA\nS1,0.5,0.7\n")
    with pytest.raises(DataError, match="columns"):
        load_cohort(clinical, expr)
    expr.write_text("sample_id,GA\nS1,0.5\nS1,0.7\n")
    with pytest.raises(DataError, match="duplicate"):
        load_cohort(clinical, expr)


def test_read_clinical_validation(tmp_path):
    path = tmp_path / "clinical.csv"
    path.write_text("sample,patient\nS1,P1\n")
    with pytest.raises(DataError, match="expected columns"):
        read_clinical(path)
    path.write_text("")
    with pytest.raises(DataError, match="empty"):
        read_clinical(path)
    path.write_text(
        "sample_id,patient_id,time_days,event,grade\nS1,P1,ten,1,0\n")
    with pytest.raises(DataError, match="clinical.csv:2"):
        read_clinical(path)
    path.write_text(
        "sample_id,patient_id,time_days,event,grade\n"
        "S1,P1,10.0,1,0\nS1,P2,3.0,0,1\n")
    with pytest.raises(DataError, match="duplicate"):
        read_clinical(path)
    # A bad number on an earlier line wins over a later duplicate, and
    # rows are checked in file order, columns left to right.
    path.write_text(
        "sample_id,patient_id,time_days,event,grade\n"
        "S1,P1,ten,1,0\nS1,P2,3.0,0,1\n")
    with pytest.raises(DataError, match="clinical.csv:2: unparseable number"):
        read_clinical(path)
    path.write_text(
        "sample_id,patient_id,time_days,event,grade\n"
        "S1,P1,10.0,1,0\nS2,P2,3.0,x,1\nS3,P3,nan,0,1\n")
    with pytest.raises(DataError,
                       match="clinical.csv:3: unparseable integer 'x'"):
        read_clinical(path)
    # int() accepts this token but it does not fit the int64 column.
    path.write_text(
        "sample_id,patient_id,time_days,event,grade\n"
        "S1,P1,10.0,1,0\nS2,P2,3.0,0,99999999999999999999\n")
    with pytest.raises(DataError, match="clinical.csv:3: integer "
                                        "'99999999999999999999' out of range"):
        read_clinical(path)


def test_read_clinical_range_rule(tmp_path):
    """time_days >= 0, event 0/1 and grade in [0, 3) are checked on read,
    naming the first bad line; an out-of-range value ranks like a bad
    number."""
    path = tmp_path / "clinical.csv"
    head = "sample_id,patient_id,time_days,event,grade\nS1,P1,10.0,1,0\n"
    for row, message in (("S2,P2,-5.0,1,0", "negative time_days -5.0"),
                         ("S2,P2,5.0,2,0", "event 2 is not 0 or 1"),
                         ("S2,P2,5.0,1,7", r"grade 7 outside \[0, 3\)"),
                         ("S2,P2,5.0,1,-1", r"grade -1 outside \[0, 3\)"),
                         ("S2,P2,-1.0,2,9", "negative time_days")):
        path.write_text(head + row + "\n")
        with pytest.raises(DataError, match=f"clinical.csv:3: {message}"):
            read_clinical(path)
    # The earlier line wins over a later bad number, column count or
    # duplicate id ...
    for later in ("S3,P3,ten,1,0", "S3,P3,1.0,1", "S1,P3,1.0,1,0"):
        path.write_text(head + "S2,P2,5.0,1,3\n" + later + "\n")
        with pytest.raises(DataError, match="clinical.csv:3: grade 3"):
            read_clinical(path)
    # ... and a bad number on an earlier line wins over a later range fault.
    path.write_text(head + "S2,P2,5.0,x,0\nS3,P3,-2.0,1,0\n")
    with pytest.raises(DataError, match="clinical.csv:3: unparseable integer"):
        read_clinical(path)
    path.write_text(head + "S2,P2,-0.0,0,2\n")
    assert read_clinical(path).grade.tolist() == [0, 2]


def test_read_clinical_preserves_order(tmp_path):
    path = tmp_path / "clinical.csv"
    path.write_text(
        "sample_id,patient_id,time_days,event,grade\n"
        "S2,P1,3.0,0,1\nS1,P1,10.0,1,0\n")
    table = read_clinical(path)
    assert table.sample_ids == ["S2", "S1"]
    assert table.patient_ids == ["P1", "P1"]
    assert (table.time.dtype, table.event.dtype, table.grade.dtype) == \
        (np.float64, np.int64, np.int64)
    assert (table.time[1], table.event[1], table.grade[1]) == (10.0, 1, 0)


_EDGE_FLOATS = [-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308,
                -1e308, 1.7976931348623157e308]
_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_save_load_round_trip_keeps_every_bit(data):
    n = data.draw(st.integers(3, 6))
    p = data.draw(st.integers(1, 4))
    d = data.draw(st.integers(1, 3))

    def matrix(width):
        drawn = data.draw(st.lists(_finite, min_size=n * width,
                                   max_size=n * width))
        edges = np.tile(_EDGE_FLOATS, (n, 1))
        return np.hstack([np.reshape(drawn, (n, width)), edges])

    expression, embedding = matrix(p), matrix(d)
    cohort = Cohort(
        sample_ids=[f"S{i}" for i in range(n)],
        sample_patients=[f"P{i // 2}" for i in range(n)],
        time=data.draw(st.lists(st.floats(min_value=0.0, allow_infinity=False),
                                min_size=n, max_size=n)),
        event=data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
        grade=data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
        gene_order=[f"G{j}" for j in range(expression.shape[1])],
        expression=expression, embedding=embedding)
    with tempfile.TemporaryDirectory() as tmp:
        files = paths(Path(tmp))
        save_cohort(cohort, *files)
        loaded = load_cohort(*files)
    assert loaded.sample_ids == cohort.sample_ids
    assert loaded.sample_patients == cohort.sample_patients
    assert loaded.gene_order == cohort.gene_order
    assert np.array_equal(loaded.time.view(np.int64), cohort.time.view(np.int64))
    assert np.array_equal(loaded.event, cohort.event)
    assert np.array_equal(loaded.grade, cohort.grade)
    assert loaded.dropped == ()
    assert np.array_equal(loaded.expression.view(np.int64),
                          expression.view(np.int64))
    assert np.array_equal(loaded.embedding.view(np.int64),
                          embedding.view(np.int64))


@pytest.mark.parametrize("which", ["expr", "emb"])
@pytest.mark.parametrize("token,problem", [
    ("x", "unparseable number 'x'"),
    ("", "unparseable number ''"),
    ("0x10", "unparseable number '0x10'"),
    ("nan", "non-finite number 'nan'"),
    ("-inf", "non-finite number '-inf'"),
    ("1e400", "non-finite number '1e400'"),
])
def test_bad_token_mid_row_names_file_line_and_token(tmp_path, which, token,
                                                     problem):
    clinical, expr, emb = paths(tmp_path)
    clinical.write_text("sample_id,patient_id,time_days,event,grade\n"
                        "S1,P1,10.0,1,0\nS2,P2,5.0,0,1\n")
    gen = np.random.default_rng(0)
    for path in (expr, emb):
        rows = [["sample_id", *(f"F{j}" for j in range(199))]]
        for sid in ("S1", "S2"):
            rows.append([sid, *map(repr, gen.standard_normal(199).tolist())])
        if path.stem == which:
            rows[2][149] = token  # column 150 of 200, on line 3
        path.write_text("".join(",".join(row) + "\n" for row in rows))
    with pytest.raises(DataError) as exc:
        load_cohort(clinical, expr, emb)
    assert str(exc.value) == f"{which}.csv:3: {problem}"


_ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])
# Unquoted fields hold no quote, comma or line break; quoted ones may hold
# all three, and NUL.
_UNQUOTED = st.text(alphabet="ab \x00", max_size=3)
_QUOTED = st.text(alphabet='ab,"\r\n\x00', max_size=4).map(
    lambda s: '"' + s.replace('"', '""') + '"')
_RECORD = st.lists(st.one_of(_UNQUOTED, _QUOTED), min_size=1,
                   max_size=3).map(",".join)
_TWO_FIELDS = st.tuples(_UNQUOTED, st.one_of(_UNQUOTED, _QUOTED)).map(
    ",".join)
# Raw text: stray or unbalanced quotes, lone line breaks, NUL.
_RAW = st.text(alphabet='a,"\r\n\x00', max_size=6)
_LINE = st.one_of(
    st.tuples(st.one_of(_TWO_FIELDS, _TWO_FIELDS, _TWO_FIELDS, _RECORD,
                        st.just("")), _ENDINGS).map("".join),
    _RAW)


@settings(max_examples=300, deadline=None)
@given(header=st.one_of(st.just("sample_id,risk"), _RECORD),
       ending=_ENDINGS, body=st.lists(_LINE, max_size=8),
       final_newline=st.booleans(),
       columns=st.sampled_from([None, ("sample_id", "risk")]))
def test_sample_rows_match_csv_reader_oracle(header, ending, body,
                                            final_newline, columns):
    text = header + ending + "".join(body)
    if not final_newline:
        text = text.rstrip("\r\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_text(text, encoding="utf-8", newline="")
        got_header, rows, error = None, [], None
        try:
            reader = _sample_rows(path, columns)
            got_header = next(reader)
            for lineno_row in reader:
                rows.append(lineno_row)
        except DataError as exc:
            error = str(exc)
        assert (got_header, rows, error) == \
            oracles.csv_sample_rows(path, columns)


_CLINICAL_COLUMNS = ("sample_id", "patient_id", "time_days", "event",
                     "grade")
# Tokens that break a column's parse, and ones that break its label rule.
_BAD_TOKENS = {
    "time_days": ["x", "", "0x10", "nan", "-inf", "1e400"],
    "risk": ["x", "", "0x10", "nan", "inf", "1e400"],
    "event": ["x", "1.0", "1e3", "99999999999999999999"],
    "grade": ["", "0.5", "-9999999999999999999"],
}
_OUT_OF_RANGE = {"time_days": ["-1.5", "-5e-324"], "event": ["2", "-1"],
                 "grade": ["3", "-1", "7"]}


def _table_csv(data, columns):
    """A valid table with ``columns``, damaged by one to three faults (a
    bad or out-of-range token, a wrong width, a repeated id), as CSV text
    with blank lines and quoted fields, some spanning lines, around them."""
    clinical = len(columns) == 5
    rows = []
    for i in range(data.draw(st.integers(1, 6))):
        if clinical:
            rows.append([f"S{i}", f"P{i // 2}", repr(data.draw(st.floats(
                0.0, 1e6))), str(data.draw(st.integers(0, 1))),
                str(data.draw(st.integers(0, 2)))])
        else:
            rows.append([f"S{i}", repr(data.draw(_finite))])
    kinds = st.sampled_from(["token", "range", "width", "id"] if clinical
                            else ["token", "width", "id"])
    # Up to two faults a row and three in all, at least one; a row's width
    # changes after its tokens do.
    faults = [(row, kind) for row in rows
              for kind in data.draw(st.lists(kinds, max_size=2))][:3] or [
        (data.draw(st.sampled_from(rows)), data.draw(kinds))]
    for row, fault in sorted(faults, key=lambda fault: fault[1] == "width"):
        if fault in ("token", "range"):
            j = data.draw(st.integers(len(columns) - (3 if clinical else 1),
                                      len(columns) - 1))
            tokens = _BAD_TOKENS if fault == "token" else _OUT_OF_RANGE
            row[j] = data.draw(st.sampled_from(tokens[columns[j]]))
        elif fault == "width":
            if len(row) > 1 and data.draw(st.booleans()):
                row.pop()
            else:
                row.append("0")
        else:
            row[0] = data.draw(st.sampled_from(rows))[0]
    lines = [",".join(columns)]
    for row in rows:
        lines += [""] * data.draw(st.integers(0, 1))
        if data.draw(st.booleans()):
            # Quote a field; a quoted id may hold a line break.
            j = data.draw(st.integers(0, len(row) - 1))
            if j == 0 and data.draw(st.booleans()):
                row = [row[0][:1] + "\n" + row[0][1:], *row[1:]]
            row = [f'"{v}"' if k == j else v for k, v in enumerate(row)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_first_fault_in_file_order_matches_oracle(data):
    """Whatever faults a clinical or risk table holds, the error reading it
    names the first one in file order, as a line-by-line walk finds it."""
    columns, read = data.draw(st.sampled_from([
        (_CLINICAL_COLUMNS, read_clinical), (("sample_id", "risk"),
                                             read_risks)]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_text(_table_csv(data, columns), encoding="utf-8")
        try:
            read(path)
            error = None
        except DataError as exc:
            error = str(exc)
        assert error == oracles.sample_table_error(path, columns)


def test_error_lines_count_physical_lines(tmp_path):
    path = tmp_path / "r2.csv"
    head = 'sample_id,risk\n"S\n1",0.5\n'
    path.write_text(head + "S2,0.7\nS3,zz\n")
    with pytest.raises(DataError, match="^r2.csv:5: unparseable number 'zz'$"):
        read_risks(path)
    path.write_text(head + "S2,0.7\nS3,0.1,0.2\n")
    with pytest.raises(DataError, match="^r2.csv:5: expected 2 columns, got 3$"):
        read_risks(path)
    # The row itself is numbered by its first line.
    path.write_text(head.replace("0.5", "x"))
    with pytest.raises(DataError, match="^r2.csv:2: unparseable number 'x'$"):
        read_risks(path)


@pytest.mark.parametrize("quote", ["", '"'])
def test_overlong_field_is_a_data_error(tmp_path, quote):
    """csv's field limit gives the same error whether the line takes the
    quote-free path or csv.reader; a field at the limit is read."""
    limit = 131072
    path = tmp_path / "t.csv"
    for field in ("x" * limit, "x" * (limit + 1)):
        path.write_text(f"sample_id,a,b\nS0,1,2\nS1,{quote}{field}{quote},2\n")
        if len(field) == limit:
            assert list(_sample_rows(path))[2] == (3, ["S1", field, "2"])
        else:
            with pytest.raises(DataError) as exc:
                list(_sample_rows(path))
            assert str(exc.value) == \
                f"t.csv:3: field larger than field limit ({limit})"


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"],
                         ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("filler", [0, 2000], ids=["first-block", "later"])
@pytest.mark.parametrize("second, message", [
    ("S0,0.5", "t.csv:{bad}: not UTF-8 text"),
    ("S0,0.5,7", "t.csv:2: expected 2 columns, got 3"),
    ("S0,x", "t.csv:2: unparseable number 'x'"),
    ('"S0', "t.csv:{bad}: not UTF-8 text"),
], ids=["valid", "width", "number", "open-quote"])
def test_non_utf8_byte_is_reported_after_earlier_lines(tmp_path, ending,
                                                      filler, second,
                                                      message):
    """The lines before the first non-UTF-8 byte are all read, in the
    decoder's block or before it, so an error on them comes first; a
    quoted record still open at the bad byte ends at it."""
    lines = (["sample_id,risk", second]
             + [f"S{i},0.{i}" for i in range(1, filler + 1)])
    bad = len(lines) + 1
    path = tmp_path / "t.csv"
    path.write_bytes(ending.encode().join(
        [line.encode() for line in lines] + [b"S\xff,0.1", b"S9999,0.2", b""]))
    with pytest.raises(DataError) as exc:
        read_risks(path)
    assert str(exc.value) == message.format(bad=bad)
    rows = []
    with pytest.raises(DataError):
        for row in _sample_rows(path, ("sample_id", "risk")):
            rows.append(row)
    if second == "S0,0.5":
        assert rows[1:] == [(i, line.split(","))
                            for i, line in enumerate(lines[1:], start=2)]


def _wide_expression_files(tmp_path):
    """A 160 x 2,000 expression file and its clinical table."""
    n, p = 160, 2000
    gen = np.random.default_rng(1)
    cohort = small_cohort(
        sample_ids=[f"S{i}" for i in range(n)],
        sample_patients=[f"P{i}" for i in range(n)],
        time=gen.exponential(size=n), event=gen.integers(0, 2, size=n),
        grade=gen.integers(0, 3, size=n),
        gene_order=[f"G{j}" for j in range(p)],
        expression=gen.standard_normal((n, p)), embedding=None)
    clinical, expr, _ = paths(tmp_path)
    save_cohort(cohort, clinical, expr)
    return cohort, clinical, expr


def _traced_load(clinical, expr):
    tracemalloc.start()
    try:
        loaded = load_cohort(clinical, expr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return loaded, peak


def test_load_cohort_peak_memory_stays_near_matrix_size(tmp_path):
    cohort, clinical, expr = _wide_expression_files(tmp_path)
    loaded, peak = _traced_load(clinical, expr)
    assert np.array_equal(loaded.expression, cohort.expression)
    # Holding every token of the file at once would take about 24 MB.
    assert peak < 3 * (loaded.expression.nbytes + loaded.embedding.nbytes)


def test_warm_load_peak_memory_stays_near_matrix_size(tmp_path):
    cohort, clinical, expr = _wide_expression_files(tmp_path)
    load_cohort(clinical, expr)
    assert _entry(expr).is_file()
    loaded, peak = _traced_load(clinical, expr)
    assert np.array_equal(loaded.expression, cohort.expression)
    assert peak < 3 * (loaded.expression.nbytes + loaded.embedding.nbytes)


# ---------------------------------------------------------------------------
# Parse cache
# ---------------------------------------------------------------------------


def _entry(path):
    return path.parent / ".survfuse-cache" / f"{path.name}.bin"


def _cohort_bits(cohort):
    """Every column of ``cohort``, arrays as dtype, shape and bytes."""
    return [value if isinstance(value, tuple)
            else (value.dtype, value.shape, value.tobytes())
            for value in (getattr(cohort, name) for name in (
                "sample_ids", "sample_patients", "gene_order", "time",
                "event", "grade", "expression", "embedding", "dropped"))]


def _count_parses(monkeypatch):
    """Count the rows ``datakit`` converts from text from now on."""
    calls = []

    def counted(tokens, where):
        calls.append(where)
        return float_tokens(tokens, where)

    float_tokens = datakit._float_tokens
    monkeypatch.setattr(datakit, "_float_tokens", counted)
    return calls


def _cached_files(tmp_path, layout="clinical-order"):
    """Clinical, expression and embedding files of a 12-sample cohort with
    -0.0 and a subnormal among the values, each loaded once; with layout
    "reversed" or "subset" the modality rows are in reverse clinical order
    or only every other clinical row."""
    cohort, _, _ = synth_gen(patients=12, genes=5, causal_genes=2,
                             censor_rate=0.4, label_noise=0.2, seed=3,
                             embedding_dim=4)
    cohort.expression[0, :2] = -0.0, 5e-324
    clinical, expr, emb = paths(tmp_path)
    save_cohort(cohort, clinical, expr, emb)
    if layout != "clinical-order":
        order = range(11, -1, -1) if layout == "reversed" else range(0, 12, 2)
        for path in (expr, emb):
            _keep_rows(path, order)
    return cohort, load_cohort(clinical, expr, emb), (clinical, expr, emb)


@pytest.mark.parametrize("layout", ["clinical-order", "reversed", "subset"])
def test_warm_load_parses_nothing_and_equals_cold_load(tmp_path, monkeypatch,
                                                       layout):
    cohort, cold, files = _cached_files(tmp_path, layout)
    assert sorted(p.name for p in (tmp_path / ".survfuse-cache").iterdir()) \
        == ["emb.csv.bin", "expr.csv.bin"]
    def refuse(tokens, where):
        raise AssertionError("a warm load converted text")

    monkeypatch.setattr(datakit, "_float_tokens", refuse)
    warm = load_cohort(*files)
    assert _cohort_bits(warm) == _cohort_bits(cold)
    kept = slice(None, None, 2 if layout == "subset" else 1)
    assert cold.sample_ids == cohort.sample_ids[kept]
    assert cold.dropped == (cohort.sample_ids[1::2] if layout == "subset"
                            else ())
    for name in ("time", "expression", "embedding"):
        assert getattr(cold, name).tobytes() == \
            getattr(cohort, name)[kept].tobytes()


def test_changed_byte_forces_a_reparse(tmp_path, monkeypatch):
    clinical, expr, _ = paths(tmp_path)
    save_cohort(small_cohort(), clinical, expr)
    load_cohort(clinical, expr)
    text = expr.read_text()
    expr.write_text(text.replace("0.2", "0.3", 1))
    calls = _count_parses(monkeypatch)
    assert load_cohort(clinical, expr).expression.tolist() == [
        [0.1, 0.3], [0.1, 0.2], [0.1, 0.2]]
    assert len(calls) == 3
    assert load_cohort(clinical, expr).expression[0].tolist() == [0.1, 0.3]
    assert len(calls) == 3

    # A bad number is reported as a cold parse reports it, every time.
    expr.write_text(text.replace("0.1", "0.x", 1))
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    for path in (clinical, expr):
        (fresh / path.name).write_bytes(path.read_bytes())
    messages = []
    for files in ((clinical, expr), (clinical, expr),
                  (fresh / clinical.name, fresh / expr.name)):
        with pytest.raises(DataError) as exc:
            load_cohort(*files)
        messages.append(str(exc.value))
    assert messages == ["expr.csv:2: unparseable number '0.x'"] * 3
    assert not (fresh / ".survfuse-cache").exists()


def test_file_changed_during_parse_is_not_cached(tmp_path, monkeypatch):
    clinical, expr, _ = paths(tmp_path)
    save_cohort(small_cohort(), clinical, expr)
    parse = datakit._parse_feature_csv

    def parse_then_edit(path):
        table = parse(path)
        expr.write_text(expr.read_text().replace("0.2", "0.3"))
        return table

    monkeypatch.setattr(datakit, "_parse_feature_csv", parse_then_edit)
    assert load_cohort(clinical, expr).expression[:, 1].tolist() == [0.2] * 3
    assert list((tmp_path / ".survfuse-cache").iterdir()) == []
    monkeypatch.setattr(datakit, "_parse_feature_csv", parse)
    assert load_cohort(clinical, expr).expression[:, 1].tolist() == [0.3] * 3


def _with_field(blob, **fields):
    header, payload = blob.split(b"\n", 1)
    return json.dumps({**json.loads(header), **fields}).encode() + b"\n" \
        + payload


@pytest.mark.parametrize("damage", [
    lambda blob: None,
    lambda blob: blob[:-3],
    lambda blob: blob + b"\0",
    lambda blob: blob[:-1] + bytes([blob[-1] ^ 1]),
    lambda blob: blob.replace(b'"P0003-S01"', b'"P0003-S09"'),
    lambda blob: blob.replace(b'"G0002"', b'"G0009"'),
    lambda blob: b"[" + blob,
    lambda blob: b"",
    lambda blob: _with_field(blob, reader="0" * 64),
    lambda blob: _with_field(blob, shape=[10 ** 9, 10 ** 9]),
], ids=["missing", "truncated", "extra-byte", "payload-bit", "sample-id",
        "column-name", "header-json", "empty", "fingerprint", "shape"])
def test_damaged_entry_is_a_miss_and_is_rewritten(tmp_path, monkeypatch,
                                                  damage):
    _, cold, files = _cached_files(tmp_path)
    entry = _entry(files[1])
    good = entry.read_bytes()
    damaged = damage(good)
    if damaged is None:
        entry.unlink()
    else:
        entry.write_bytes(damaged)
    calls = _count_parses(monkeypatch)
    assert _cohort_bits(load_cohort(*files)) == _cohort_bits(cold)
    assert len(calls) == 12
    assert entry.read_bytes() == good


def test_unwritable_cache_location_loads_and_writes_nothing(tmp_path, capfd):
    clinical, expr, emb = paths(tmp_path)
    save_cohort(small_cohort(), clinical, expr, emb)
    blocker = tmp_path / ".survfuse-cache"
    blocker.write_text("not a directory\n")
    listing = sorted(tmp_path.iterdir())
    capfd.readouterr()
    for _ in range(2):
        cohort = load_cohort(clinical, expr, emb)
        assert _cohort_bits(cohort) == _cohort_bits(small_cohort())
    assert sorted(tmp_path.iterdir()) == listing
    assert blocker.read_text() == "not a directory\n"
    assert capfd.readouterr() == ("", "")


# ---------------------------------------------------------------------------
# Standardization
# ---------------------------------------------------------------------------


def test_standardize_train_moments():
    cohort, _, _ = synth_gen(patients=20, genes=6, causal_genes=2,
                             censor_rate=0.2, label_noise=0.0, seed=5,
                             embedding_dim=3)
    train_ids = list(cohort.sample_ids)[:12]
    out = standardize_expression(cohort, train_ids)
    x = out.expression[out.rows(train_ids)]
    assert np.allclose(x.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(x.std(axis=0), 1.0, atol=1e-12)
    assert out.expression.shape == cohort.expression.shape
    assert out.gene_order == cohort.gene_order


def test_standardize_constant_gene_maps_to_zero():
    cohort = small_cohort(
        sample_ids=[f"S{i}" for i in range(4)],
        sample_patients=[f"P{i}" for i in range(4)],
        time=[10.0] * 4, event=[1] * 4, grade=[0] * 4,
        expression=[[5.0, float(i)] for i in range(4)],
        embedding=np.tile([1.0, 2.0, 3.0], (4, 1)))
    out = standardize_expression(cohort, ["S0", "S1", "S2", "S3"])
    assert not out.expression[out.rows(list(cohort.sample_ids))][:, 0].any()


def test_standardize_matches_two_pass_oracle():
    cohort, _, _ = synth_gen(patients=15, genes=4, causal_genes=2,
                             censor_rate=0.2, label_noise=0.0, seed=8,
                             embedding_dim=3)
    ids = list(cohort.sample_ids)
    train_ids, test_ids = ids[:9], ids[9:]
    out = standardize_expression(cohort, train_ids)
    expect = oracles.standardize_two_pass(
        cohort.expression[cohort.rows(train_ids)].tolist(),
        cohort.expression[cohort.rows(test_ids)].tolist())
    assert np.allclose(out.expression[out.rows(test_ids)], expect, atol=1e-12)


def test_standardize_equals_per_sample_oracle_bit_for_bit():
    cohort, _, _ = synth_gen(patients=30, genes=9, causal_genes=3,
                             censor_rate=0.2, label_noise=0.0, seed=12,
                             embedding_dim=3)
    x = cohort.expression.copy()
    x[:, 4] = 2.5  # a zero-variance gene
    cohort = small_cohort(**{name: getattr(cohort, name) for name in (
        "sample_ids", "sample_patients", "time", "event", "grade",
        "gene_order", "embedding")}, expression=x)
    ids = list(cohort.sample_ids)
    train_ids = ids[::3] + ids[1::3]
    out = standardize_expression(cohort, train_ids)
    rows = {s.sample_id: s.expression for s in cohort.samples}
    expect, _, _ = oracles.standardize_per_sample(
        [rows[sid] for sid in train_ids], [rows[sid] for sid in ids])
    assert np.array_equal(out.expression[out.rows(ids)], np.stack(expect))
    assert not out.expression[:, 4].any()


def test_standardize_requires_train_ids():
    with pytest.raises(ConfigError):
        standardize_expression(small_cohort(), [])


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


def ten_patient_pairs():
    # two samples per patient so grouping matters
    return [(f"P{p}-S{s}", f"P{p}") for p in range(10) for s in range(2)]


def test_splits_cut_sizes_by_patient():
    splits = gen_splits(ten_patient_pairs(), reps=5)
    assert len(splits.repetitions) == 5
    for train, test in splits.repetitions:
        train_p = {sid.split("-")[0] for sid in train}
        test_p = {sid.split("-")[0] for sid in test}
        assert len(train_p) == 8 and len(test_p) == 2
        assert not train_p & test_p
        assert len(train) == 16 and len(test) == 4


def test_splits_partition_exactly():
    pairs = ten_patient_pairs()
    all_ids = {sid for sid, _ in pairs}
    splits = gen_splits(pairs, reps=15)
    assert len(splits.repetitions) == 15
    for train, test in splits.repetitions:
        assert set(train) | set(test) == all_ids
        assert not set(train) & set(test)


def test_splits_patient_grouping_never_straddles():
    pairs = ten_patient_pairs()
    patient_of = dict(pairs)
    splits = gen_splits(pairs, reps=10, seed=4)
    for train, test in splits.repetitions:
        assert not {patient_of[s] for s in train} & \
            {patient_of[s] for s in test}


def test_splits_sample_grouping_cuts_by_sample():
    pairs = ten_patient_pairs()
    patient_of = dict(pairs)
    splits = gen_splits(pairs, reps=10, grouping="sample", seed=0)
    sizes = {(len(tr), len(te)) for tr, te in splits.repetitions}
    assert sizes == {(16, 4)}
    straddled = any(
        {patient_of[s] for s in tr} & {patient_of[s] for s in te}
        for tr, te in splits.repetitions)
    assert straddled


def test_splits_rounding_is_half_up():
    pairs = [(f"S{i}", f"P{i}") for i in range(3)]
    splits = gen_splits(pairs, reps=1, train_frac=0.5)
    train, test = splits.repetitions[0]
    assert len(train) == 2 and len(test) == 1


def test_splits_deterministic_per_seed():
    pairs = ten_patient_pairs()
    a = gen_splits(pairs, reps=4, seed=9)
    b = gen_splits(pairs, reps=4, seed=9)
    c = gen_splits(pairs, reps=4, seed=10)
    assert a == b
    assert a != c


def test_splits_cover_cohort_pairs():
    cohort = small_cohort()
    splits = gen_splits(zip(cohort.sample_ids, cohort.sample_patients),
                        reps=2, train_frac=0.5)
    for train, test in splits.repetitions:
        assert set(train) | set(test) == set(cohort.sample_ids)


def test_splits_validation():
    pairs = ten_patient_pairs()
    with pytest.raises(ConfigError):
        gen_splits(pairs, reps=0)
    with pytest.raises(ConfigError):
        gen_splits(pairs, reps=1, train_frac=0.0)
    with pytest.raises(ConfigError):
        gen_splits(pairs, reps=1, train_frac=1.0)
    with pytest.raises(ConfigError):
        gen_splits(pairs, reps=1, grouping="hospital")
    with pytest.raises(ConfigError, match="empty side"):
        gen_splits([("S1", "P1"), ("S2", "P2")], reps=1, train_frac=0.9)


def test_splitset_round_trip(tmp_path):
    splits = gen_splits(ten_patient_pairs(), reps=3, seed=2)
    path = tmp_path / "splits.json"
    splits.save(path)
    assert SplitSet.load(path) == splits
    again = tmp_path / "splits2.json"
    splits.save(again)
    assert path.read_bytes() == again.read_bytes()


def test_splitset_load_rejects_malformed(tmp_path):
    path = tmp_path / "splits.json"
    path.write_text(json.dumps({"seed": 0}))
    with pytest.raises(DataError, match="malformed"):
        SplitSet.load(path)
    gen_splits(ten_patient_pairs(), reps=1).save(path)
    payload = json.loads(path.read_text())
    for key, value in (("seed", "x"), ("train_frac", "y")):
        path.write_text(json.dumps({**payload, key: value}))
        with pytest.raises(DataError,
                           match="malformed split file .*splits.json"):
            SplitSet.load(path)
    # Each side must be a list of sample id strings.
    rep0 = payload["repetitions"][0]
    for side, message in (
            ("S0", "test side 'S0' is not a list of sample ids"),
            ({"S0": 1}, "test side {'S0': 1} is not a list of sample ids"),
            (["S0", 7], "test side holds 7, not a sample id string"),
            ([None], "test side holds None, not a sample id string")):
        path.write_text(json.dumps(
            {**payload, "repetitions": [{**rep0, "test": side}]}))
        with pytest.raises(DataError) as info:
            SplitSet.load(path)
        assert str(info.value) == f"malformed split file {path}: {message}"


# ---------------------------------------------------------------------------
# Synthetic cohorts
# ---------------------------------------------------------------------------


def test_synth_deterministic_per_seed():
    a = synth_gen(patients=10, genes=8, causal_genes=3, censor_rate=0.3,
                  label_noise=0.1, seed=6, embedding_dim=4)
    b = synth_gen(patients=10, genes=8, causal_genes=3, censor_rate=0.3,
                  label_noise=0.1, seed=6, embedding_dim=4)
    c = synth_gen(patients=10, genes=8, causal_genes=3, censor_rate=0.3,
                  label_noise=0.1, seed=7, embedding_dim=4)
    assert np.array_equal(a[1].pairs, b[1].pairs)
    assert np.array_equal(a[0].expression[a[0].rows(a[0].sample_ids)],
                          b[0].expression[b[0].rows(b[0].sample_ids)])
    assert np.array_equal(a[2].risk, b[2].risk)
    assert not np.array_equal(a[2].risk, c[2].risk)


def test_synth_ids_and_shapes():
    cohort, graph, truth = synth_gen(patients=5, genes=7, causal_genes=2,
                                     censor_rate=0.2, label_noise=0.0,
                                     seed=1, embedding_dim=6)
    assert cohort.sample_ids == tuple(f"P{i:04d}-S01" for i in range(1, 6))
    assert cohort.sample_patients == tuple(f"P{i:04d}" for i in range(1, 6))
    assert cohort.gene_order == graph.genes
    assert len(graph.genes) == 7
    assert cohort.expression[cohort.rows(cohort.sample_ids)].shape == (5, 7)
    assert cohort.embedding[cohort.rows(cohort.sample_ids)].shape == (5, 6)
    assert truth.beta.shape == (7,)
    assert np.count_nonzero(truth.beta) == 2


def test_synth_zero_censoring_observes_every_event():
    cohort, _, _ = synth_gen(patients=30, genes=5, causal_genes=2,
                             censor_rate=0.0, label_noise=0.0, seed=2,
                             embedding_dim=3)
    assert cohort.event[cohort.rows(cohort.sample_ids)].min() == 1


def test_synth_censor_rate_roughly_hit():
    cohort, _, _ = synth_gen(patients=400, genes=20, causal_genes=5,
                             censor_rate=0.3, label_noise=0.0, seed=3,
                             embedding_dim=3)
    frac = 1.0 - cohort.event[cohort.rows(cohort.sample_ids)].mean()
    assert abs(frac - 0.3) < 0.1


def test_synth_noise_free_grades_follow_risk_tertiles():
    cohort, _, truth = synth_gen(patients=60, genes=10, causal_genes=3,
                                 censor_rate=0.2, label_noise=0.0, seed=4,
                                 embedding_dim=3)
    p33, p66 = np.percentile(truth.risk, 33), np.percentile(truth.risk, 66)
    expect = np.where(truth.risk <= p33, 0,
                      np.where(truth.risk <= p66, 1, 2))
    assert np.array_equal(cohort.grade[cohort.rows(cohort.sample_ids)], expect)
    counts = np.bincount(expect, minlength=3)
    assert counts.min() >= 15


def test_synth_label_noise_corrupts_some_grades():
    clean, _, truth = synth_gen(patients=200, genes=10, causal_genes=3,
                                censor_rate=0.2, label_noise=0.0, seed=5,
                                embedding_dim=3)
    noisy, _, _ = synth_gen(patients=200, genes=10, causal_genes=3,
                            censor_rate=0.2, label_noise=0.3, seed=5,
                            embedding_dim=3)
    flips = (clean.grade[clean.rows(clean.sample_ids)] !=
             noisy.grade[noisy.rows(noisy.sample_ids)]).mean()
    assert 0.15 < flips < 0.45


def test_synth_planted_risk_is_strong():
    cohort, _, truth = synth_gen(patients=400, genes=200, causal_genes=20,
                                 censor_rate=0.3, label_noise=0.1, seed=11,
                                 embedding_dim=5)
    rows = cohort.rows(cohort.sample_ids)
    ci = c_index(truth.risk, cohort.time[rows], cohort.event[rows])
    assert ci >= 0.95


def test_synth_causal_genes_are_connected():
    _, graph, truth = synth_gen(patients=5, genes=40, causal_genes=8,
                                censor_rate=0.2, label_noise=0.0, seed=9,
                                embedding_dim=3)
    causal = {graph.genes[i] for i in truth.causal_index}
    start = next(iter(causal))
    seen = {start}
    queue = deque([start])
    while queue:
        g = queue.popleft()
        for nb in neighbors(graph, g):
            if nb in causal and nb not in seen:
                seen.add(nb)
                queue.append(nb)
    assert seen == causal


def test_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
        gen_splits(ten_patient_pairs(), reps=1, seed=-1)
    with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
        synth_gen(patients=10, genes=5, causal_genes=2, censor_rate=0.2,
                  label_noise=0.1, seed=-1)


def test_split_file_listing_a_sample_twice_is_malformed(tmp_path):
    """An id may appear once per repetition, on one side; gen_splits'
    files always pass."""
    path = tmp_path / "splits.json"
    gen_splits(ten_patient_pairs(), reps=2, seed=3).save(path)
    assert len(SplitSet.load(path).repetitions) == 2
    payload = json.loads(path.read_text())
    train, test = (payload["repetitions"][1][side] for side in ("train",
                                                                 "test"))
    for rep1, sid in (({"train": train, "test": test + train[1:3]}, train[1]),
                      ({"train": train[:3] + train[2:], "test": test},
                       train[2]),
                      ({"train": train, "test": test[:1] * 2}, test[0])):
        path.write_text(json.dumps(
            {**payload, "repetitions": [payload["repetitions"][0], rep1]}))
        with pytest.raises(DataError) as exc:
            SplitSet.load(path)
        assert str(exc.value) == (f"malformed split file {path}: repetition "
                                  f"1: sample {sid!r} is listed twice")


def test_synth_validation():
    kwargs = dict(patients=10, genes=5, causal_genes=2, censor_rate=0.2,
                  label_noise=0.1, seed=0)
    with pytest.raises(ConfigError):
        synth_gen(**{**kwargs, "patients": 2})
    with pytest.raises(ConfigError):
        synth_gen(**{**kwargs, "causal_genes": 6})
    with pytest.raises(ConfigError):
        synth_gen(**{**kwargs, "causal_genes": 0})
    with pytest.raises(ConfigError):
        synth_gen(**{**kwargs, "censor_rate": 1.0})
    with pytest.raises(ConfigError):
        synth_gen(**{**kwargs, "label_noise": -0.1})
    with pytest.raises(ConfigError):
        synth_gen(**{**kwargs, "embedding_dim": 0})
