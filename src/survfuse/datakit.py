"""Cohort data model, CSV ingestion, split generation, synthetic cohorts.

File formats (all CSV, UTF-8):
  clinical    columns sample_id, patient_id, time_days, event, grade
  expression  first column sample_id, remaining headers are gene symbols
  embedding   first column sample_id, remaining headers are dimension indices
  risks       columns sample_id, risk

A ``Cohort`` is stored by column: sample ids with their patient ids, a
float64 time array, int64 event and grade arrays, and one float64 matrix
per modality with one row per sample. A cohort holds only complete samples:
``load_cohort`` keeps the clinical rows that every given modality file
fills, and is the one place that drops the others (listed in
``Cohort.dropped``). Gathering a design matrix is one row index, restricting
the gene panel one column index, and standardizing one whole-matrix
operation.

Every sample-keyed file goes through one reader, ``_sample_rows``. Its header
goes through ``csv.reader``. A body line with no ``"`` is split on commas,
which gives the row ``csv.reader`` would, and a line with nothing but its
line ending is blank. A line with a ``"``, or one long enough that it might
hold a field over ``csv.field_size_limit()``, goes to ``csv.reader``, which
pulls in any further lines a quoted record spans and raises on an overlong
field. Errors name the physical line a record starts on.

The readers convert a whole expression or embedding row, or a whole
clinical or risk column, with one ``np.array(tokens, dtype=...)`` call and
one ``isfinite`` check; a clinical table's label rules (``_LABEL_RULES``)
are checked over whole columns too. numpy converts each Python ``str`` by
calling ``float()`` (``int()`` for integers) on it, so the values are
bit-identical to a token-by-token parse. Only input that fails is walked
token by token, in file order, to raise the first fault naming its file,
line and token.

Floats are written with repr() so every load/save round-trip is bit-exact.

An expression or embedding file is parsed once per content: the checked
parse (feature names, sample ids, float64 matrix, all in file order) is kept
in ``.survfuse-cache/<file name>.bin`` beside the file. An entry is used only
when it was written for the sha256 of the file's current bytes by this
reader (the sha256 of this module's source, ``sys.version``, numpy's version
and the byte order), and its own checksum holds; anything else is a miss,
and a miss parses the file. Only a parse that completed is stored, so errors
are reported from the file every time. A cache that cannot be written is
skipped without a message. Entries are trusted as far as the files beside
them.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError
from .genegraph import (GeneGraph, canonical_pairs, file_sha256, read_text,
                        text_lines, write_json)
from .numcore import RngStream

# Fixed stream ids so different random purposes never share a sequence.
_STREAM_SPLITS = 11
_STREAM_SYNTH = 12

DEFAULT_GRADE_NAMES = ("II", "III", "IV")


@dataclass(frozen=True)
class Sample:
    """One tissue sample: identifiers, optional modalities, outcome labels."""

    sample_id: str
    patient_id: str
    time: float
    event: int
    grade: int
    expression: np.ndarray | None = None
    image_embedding: np.ndarray | None = None


# The rules on a sample's labels, one ``(column, test, message)`` each, in
# the order a sample's faults are reported: ``test`` flags a value, or each
# value of an array, that breaks the rule, and ``message(value)`` describes
# a flagged value.
_LABEL_RULES = (
    ("time_days", lambda t: ~np.isfinite(t),
     lambda t: f"non-finite time_days {t!r}"),
    ("time_days", lambda t: t < 0, lambda t: f"negative time_days {t!r}"),
    ("event", lambda e: (e != 0) & (e != 1),
     lambda e: f"event {e} is not 0 or 1"),
    ("grade", lambda g: (g < 0) | (g >= len(DEFAULT_GRADE_NAMES)),
     lambda g: f"grade {g} outside [0, {len(DEFAULT_GRADE_NAMES)})"),
)


def _broken_rule(values: dict, rules) -> str | None:
    """The message of the first of ``rules`` that ``values`` (column ->
    scalar) breaks, or None."""
    for column, test, message in rules:
        if test(values[column]):
            return message(values[column])
    return None


@dataclass(frozen=True, eq=False)
class Cohort:
    """Samples stored by column, one row per sample.

    ``expression`` is n x len(gene_order) and ``embedding`` n x width, both
    float64, and every sample carries a row of each. A matrix left out is
    n x 0: the cohort has no such modality. ``dropped`` lists the clinical
    samples the loader left out for lacking a modality, in clinical order.
    ``rows(ids)`` is the one map from sample ids to row positions: a caller
    takes it once and indexes each column it needs with it.
    """

    sample_ids: tuple[str, ...]
    sample_patients: tuple[str, ...]
    time: np.ndarray
    event: np.ndarray
    grade: np.ndarray
    gene_order: tuple[str, ...] = ()
    expression: np.ndarray | None = None
    embedding: np.ndarray | None = None
    dropped: tuple[str, ...] = ()

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        ids = tuple(self.sample_ids)
        n = len(ids)
        put("sample_ids", ids)
        put("sample_patients", tuple(self.sample_patients))
        put("gene_order", tuple(self.gene_order))
        put("dropped", tuple(self.dropped))
        put("time", np.asarray(self.time, dtype=np.float64))
        put("event", np.asarray(self.event, dtype=np.int64))
        put("grade", np.asarray(self.grade, dtype=np.int64))
        for name in ("expression", "embedding"):
            matrix = getattr(self, name)
            matrix = (np.zeros((n, 0)) if matrix is None
                      else np.asarray(matrix, dtype=np.float64))
            if matrix.ndim != 2 or matrix.shape[0] != n:
                raise DataError(
                    f"{name} matrix of shape {matrix.shape} for {n} samples")
            put(name, matrix)
        for name in ("sample_patients", "time", "event", "grade"):
            if np.shape(getattr(self, name)) != (n,):
                raise DataError(f"cohort column {name} does not have {n} rows")

        index = {sid: i for i, sid in enumerate(ids)}
        if len(index) != n:
            raise DataError("duplicate sample ids in cohort")
        put("_index", index)
        p, width = len(self.gene_order), self.expression.shape[1]
        if width != p:
            raise DataError(f"expression width {width} != gene count {p}")
        labels = dict(zip(("time_days", "event", "grade"),
                          (self.time, self.event, self.grade)))
        bad = np.zeros(n, dtype=bool)
        for column, test, _ in _LABEL_RULES:
            bad |= test(labels[column])
        if bad.any():
            # The first bad sample, and its first problem.
            i = int(np.argmax(bad))
            sample = {column: v[i].item() for column, v in labels.items()}
            raise DataError(
                f"sample {ids[i]!r}: {_broken_rule(sample, _LABEL_RULES)}")

    def __len__(self) -> int:
        return len(self.sample_ids)

    @property
    def samples(self) -> tuple[Sample, ...]:
        """One ``Sample`` per row; its modality arrays are views of the
        matrix rows, or None where the cohort has no such modality."""
        expression, embedding = (
            matrix if matrix.shape[1] else itertools.repeat(None)
            for matrix in (self.expression, self.embedding))
        return tuple(
            Sample(sample_id=sid, patient_id=pid, time=t, event=e, grade=g,
                   expression=x, image_embedding=m)
            for sid, pid, t, e, g, x, m in zip(
                self.sample_ids, self.sample_patients, self.time.tolist(),
                self.event.tolist(), self.grade.tolist(), expression,
                embedding))

    def rows(self, ids) -> np.ndarray:
        """Row positions of ``ids``, in the order given."""
        index = self._index
        try:
            return np.array([index[sid] for sid in ids], dtype=np.intp)
        except KeyError as exc:
            raise DataError(f"unknown sample id {exc.args[0]!r}") from None

    def gene_subset(self, keep) -> "Cohort":
        """Restrict expression columns to ``keep`` (in the given order)."""
        index = {g: i for i, g in enumerate(self.gene_order)}
        missing = [g for g in keep if g not in index]
        if missing:
            raise DataError(f"genes not in cohort: {missing[:5]}")
        cols = np.asarray([index[g] for g in keep], dtype=np.intp)
        return replace(self, gene_order=tuple(keep),
                       expression=self.expression[:, cols])


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

_CLINICAL_COLUMNS = ("sample_id", "patient_id", "time_days", "event", "grade")
_RISK_COLUMNS = ("sample_id", "risk")
_INT64 = np.iinfo(np.int64)


def _parse_float(token: str, where: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DataError(f"{where}: unparseable number {token!r}") from None
    if not math.isfinite(value):
        raise DataError(f"{where}: non-finite number {token!r}")
    return value


def _parse_int(token: str, where: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise DataError(f"{where}: unparseable integer {token!r}") from None
    if not _INT64.min <= value <= _INT64.max:
        raise DataError(f"{where}: integer {token!r} out of range")
    return value


# How a token of each numeric column type is parsed on its own.
_PARSERS = {np.float64: _parse_float, np.int64: _parse_int}


def _float_tokens(tokens, where) -> np.ndarray:
    """``tokens`` as a float64 array, converted in one call.

    Only when that conversion fails, or yields a non-finite value, are the
    tokens walked one at a time through ``_parse_float``, so the error names
    the first bad token; ``where(i)`` is the file:line of token ``i``.
    """
    try:
        values = np.array(tokens, dtype=np.float64)
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    return np.array([_parse_float(tok, where(i)) for i, tok in enumerate(tokens)])


def _may_hold_long_field(text: str, limit: int) -> bool:
    """Whether ``text`` might hold a field longer than ``limit`` characters.

    Such a field covers at least one whole aligned block of ``limit // 2``
    characters, so a line with a comma in every block holds none.
    """
    block = limit // 2
    return any(text.find(",", i, i + block) < 0
               for i in range(0, len(text), block))


def _sample_rows(path, columns=None):
    """Read a sample-keyed CSV: yield its header, then ``(lineno, row)`` for
    every non-blank body row, ``lineno`` being the line the row starts on.

    The header must be exactly ``columns`` when they are given, and hold at
    least 2 columns otherwise; no column name may repeat. Each body row must
    be as wide as the header and start with a sample id not seen before; any
    other row, a record ``csv`` rejects, or a byte that is not UTF-8 raises
    naming the file and line.
    """
    name = Path(path).name
    limit = csv.field_size_limit()
    lines = text_lines(path, DataError)
    with contextlib.closing(lines):
        reader = csv.reader(lines)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise DataError(f"{name}:1: {exc}") from None
        if header is None:
            raise DataError(f"{name}: empty file")
        if columns is not None and tuple(header) != columns:
            raise DataError(f"{name}: expected columns {','.join(columns)}, "
                            f"got {','.join(header)}")
        if len(header) < 2:
            raise DataError(f"{name}: header needs sample_id + features")
        names: set[str] = set()
        for column in header:
            if column in names:
                raise DataError(f"{name}:1: duplicate column {column!r}")
            names.add(column)
        yield header
        width = len(header)
        seen: set[str] = set()
        lineno = reader.line_num
        for line in lines:
            lineno += 1
            start = lineno
            text = line.rstrip("\r\n")
            if not text:
                continue
            if '"' in text or (len(text) > limit
                               and _may_hold_long_field(text, limit)):
                # csv.reader pulls any further lines a quoted record spans.
                record = csv.reader(itertools.chain([line], lines))
                try:
                    row = next(record)
                except csv.Error as exc:
                    raise DataError(f"{name}:{start}: {exc}") from None
                lineno += record.line_num - 1
            else:
                row = text.split(",")
            if len(row) != width:
                raise DataError(
                    f"{name}:{start}: expected {width} columns, got {len(row)}")
            if row[0] in seen:
                raise DataError(
                    f"{name}:{start}: duplicate sample id {row[0]!r}")
            seen.add(row[0])
            yield start, row


class _FeatureTable(NamedTuple):
    """An expression or embedding file as parsed, in file order."""

    columns: list[str]
    sample_ids: list[str]
    values: np.ndarray


def _parse_feature_csv(path) -> _FeatureTable:
    """Parse an expression/embedding file: the header names the feature
    columns, each body row is a sample id followed by its values. Each row
    is converted as it is read."""
    name = Path(path).name
    reader = _sample_rows(path)
    header = next(reader)
    width = len(header) - 1
    ids: list[str] = []
    values = np.empty((0, width))
    for lineno, row in reader:
        n = len(ids)
        if n == len(values):
            # Grows in place: no view of ``values`` is alive here.
            values.resize((2 * n + 1, width), refcheck=False)
        values[n] = _float_tokens(row[1:], lambda _: f"{name}:{lineno}")
        ids.append(row[0])
    values.resize((len(ids), width), refcheck=False)
    return _FeatureTable(header[1:], ids, values)


_CACHE_DIR = ".survfuse-cache"
_CACHE_FORMAT = "survfuse-feature-parse"


@functools.cache
def _reader_fingerprint() -> str:
    """Changes with anything that could change a parse, so that no cache
    entry outlives the reader that wrote it."""
    digest = hashlib.sha256(Path(__file__).read_bytes())
    digest.update(f"\0{sys.version}\0{np.__version__}\0{sys.byteorder}"
                  .encode())
    return digest.hexdigest()


def _content_sha256(table: _FeatureTable) -> str:
    digest = hashlib.sha256(
        json.dumps([table.columns, table.sample_ids]).encode())
    digest.update(table.values)
    return digest.hexdigest()


def _load_entry(entry: Path, key: dict) -> _FeatureTable | None:
    """The table cached in ``entry`` under ``key``, or None when the entry is
    missing, damaged, or stored under another key."""
    try:
        with open(entry, "rb") as fh:
            header = json.loads(fh.readline())
            if not isinstance(header, dict) or any(
                    header.get(k) != v for k, v in key.items()):
                return None
            n, width = header["shape"]
            # Check the size before allocating, so no damaged shape allocates.
            if os.fstat(fh.fileno()).st_size - fh.tell() != 8 * n * width:
                return None
            table = _FeatureTable(header["columns"], header["sample_ids"],
                                  np.empty((n, width)))
            fh.readinto(table.values)
    except (OSError, ValueError, TypeError, KeyError):
        return None
    if (len(table.columns) != width or len(table.sample_ids) != n
            or _content_sha256(table) != header["content_sha256"]):
        return None
    return table


def _store_entry(entry: Path, key: dict, table: _FeatureTable, path) -> None:
    """Write ``table`` to ``entry`` under ``key``: to a temporary file, then
    renamed over it, so no reader sees a torn entry. Nothing is stored when
    the CSV at ``path`` no longer hashes to the key, or where the cache
    directory cannot be made or written."""
    tmp = None
    try:
        entry.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(".tmp", entry.name, entry.parent)
        header = {**key, "shape": table.values.shape,
                  "columns": table.columns, "sample_ids": table.sample_ids,
                  "content_sha256": _content_sha256(table)}
        with open(fd, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            fh.write(table.values)
        # Hashing again shows that the bytes parsed are the bytes keyed.
        if file_sha256(path) == key["csv_sha256"]:
            os.replace(tmp, entry)
            tmp = None
    except OSError:
        pass
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _cached_parse(path) -> _FeatureTable:
    """``_parse_feature_csv(path)``, read from the file's cache entry when
    it holds the parse of these exact bytes by this reader."""
    path = Path(path)
    entry = path.parent / _CACHE_DIR / f"{path.name}.bin"
    key = {"format": _CACHE_FORMAT, "csv_sha256": file_sha256(path),
           "reader": _reader_fingerprint()}
    table = _load_entry(entry, key)
    if table is None:
        table = _parse_feature_csv(path)
        _store_entry(entry, key, table, path)
    return table


def _read_feature_csv(path, row_of: dict[str, int]):
    """An expression/embedding file matched to the clinical rows.

    Returns the feature names, the parsed float64 matrix in file order, and
    for each clinical row (``row_of`` maps sample id -> row) the file row
    that holds it, or -1. A file row whose sample is not in the clinical
    table raises.
    """
    columns, ids, values = _cached_parse(path)
    rows = [row_of.get(sid) for sid in ids]
    if None in rows:
        raise DataError(f"{Path(path).name}: sample {ids[rows.index(None)]!r} "
                        "not in clinical table")
    file_row = np.full(len(row_of), -1, dtype=np.intp)
    file_row[rows] = np.arange(len(ids))
    return tuple(columns), values, file_row


class ClinicalTable(NamedTuple):
    """A clinical file by column, in file order."""

    sample_ids: list[str]
    patient_ids: list[str]
    time: np.ndarray
    event: np.ndarray
    grade: np.ndarray


def _read_table(path, columns, numbers, rules=()) -> list:
    """Read a sample table whose header is ``columns``: one list of strings
    per column, in file order, except that each column ``numbers`` names
    (column -> np.float64 or np.int64) is one array, converted in one call,
    finite, and within ``rules`` (see ``_LABEL_RULES``).

    Any fault, be it a malformed row, a token that does not convert or is
    not finite, or a broken rule, is raised for the first faulty row in
    file order as ``NAME:LINE: ...``: a malformed row first, then the row's
    numeric tokens left to right, then ``rules`` in order.
    """
    reader = _sample_rows(path, columns)
    next(reader)
    # Every row's tokens end to end, a column being a strided slice: one
    # list kept per row made a 12,000-row risk file slower to read.
    tokens: list[str] = []
    linenos: list[int] = []
    width = len(columns)
    fault = None
    try:
        for lineno, row in reader:
            tokens += row
            linenos.append(lineno)
        table = {column: tokens[j::width] for j, column in enumerate(columns)}
        for column, dtype in numbers.items():
            table[column] = np.array(table[column], dtype=dtype)
        if (all(np.isfinite(table[column]).all() for column in numbers)
                and not any(test(table[column]).any()
                            for column, test, _ in rules)):
            return list(table.values())
    except (DataError, ValueError, OverflowError) as exc:
        fault = exc
    # The one failure path, which fails wherever the column checks did: the
    # rows read, in file order, then the malformed row that ended the read.
    name = Path(path).name
    for k, lineno in enumerate(linenos):
        row = tokens[k * width:(k + 1) * width]
        where = f"{name}:{lineno}"
        values = {column: _PARSERS[numbers[column]](token, where)
                  for column, token in zip(columns, row) if column in numbers}
        broken = _broken_rule(values, rules)
        if broken is not None:
            raise DataError(f"{where}: {broken}")
    raise fault


def read_clinical(path) -> ClinicalTable:
    """Parse a clinical table into columns, in file order."""
    return ClinicalTable(*_read_table(
        path, _CLINICAL_COLUMNS,
        {"time_days": np.float64, "event": np.int64, "grade": np.int64},
        _LABEL_RULES))


def read_risks(path) -> tuple[dict[str, int], np.ndarray]:
    """Parse a ``sample_id,risk`` file: sample id -> row, and the risks as
    one float64 array."""
    ids, risks = _read_table(path, _RISK_COLUMNS, {"risk": np.float64})
    return dict(zip(ids, range(len(ids)))), risks


def load_cohort(clinical_path, expression_path=None, embedding_path=None) -> Cohort:
    """Join the clinical table with whichever modality files are given.

    Modality rows must reference known sample ids. The clinical rows that
    every given file fills are kept, in clinical order; the others go to
    ``Cohort.dropped``, also in clinical order. This is the one place that
    drops a sample for a missing modality. A file whose rows are the kept
    rows, in order, hands over its parsed matrix uncopied.
    """
    table = read_clinical(clinical_path)
    row_of = {sid: i for i, sid in enumerate(table.sample_ids)}
    files = {name: _read_feature_csv(path, row_of)
             for name, path in (("expression", expression_path),
                                ("embedding", embedding_path))
             if path is not None}
    keep = np.ones(len(row_of), dtype=bool)
    for _, _, file_row in files.values():
        keep &= file_row >= 0
    matrices = {}
    for name, (_, values, file_row) in files.items():
        rows = file_row[keep]
        matrices[name] = (values if np.array_equal(rows, np.arange(len(values)))
                          else values[rows])
    genes = files["expression"][0] if "expression" in files else ()
    kept = np.flatnonzero(keep)
    return Cohort(sample_ids=[table.sample_ids[i] for i in kept],
                  sample_patients=[table.patient_ids[i] for i in kept],
                  time=table.time[kept], event=table.event[kept],
                  grade=table.grade[kept], gene_order=genes,
                  dropped=[table.sample_ids[i] for i in np.flatnonzero(~keep)],
                  **matrices)


def save_cohort(cohort: Cohort, clinical_path, expression_path=None,
                embedding_path=None) -> None:
    with open(clinical_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CLINICAL_COLUMNS)
        writer.writerows(zip(cohort.sample_ids, cohort.sample_patients,
                             map(repr, cohort.time.tolist()),
                             cohort.event.tolist(), cohort.grade.tolist()))
    for path, features, matrix in (
            (expression_path, cohort.gene_order, cohort.expression),
            (embedding_path, map(str, range(cohort.embedding.shape[1])),
             cohort.embedding)):
        if path is None:
            continue
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_id", *features])
            for sid, values in zip(cohort.sample_ids, matrix):
                writer.writerow([sid, *map(repr, values.tolist())])


# ---------------------------------------------------------------------------
# Standardization
# ---------------------------------------------------------------------------

def standardize_expression(cohort: Cohort, train_ids) -> Cohort:
    """Per-gene z-score fitted on the training samples only and applied to
    every sample; zero-variance genes map to 0 everywhere. A cohort without
    expression holds an n x 0 matrix, which this leaves as it is, so every
    variant's run is standardized the same way."""
    train_ids = list(train_ids)
    if not train_ids:
        raise ConfigError("standardization needs non-empty training ids")
    # The moments are taken over a C-contiguous copy of the training rows,
    # and the transform is elementwise, so every bit matches a per-sample
    # z-score.
    x = cohort.expression[cohort.rows(train_ids)]
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    live = std > 0
    z = cohort.expression - mean
    z /= np.where(live, std, 1.0)
    z[:, ~live] = 0.0
    return replace(cohort, expression=z)


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitSet:
    """Train/test sample-id partitions for each repetition."""

    repetitions: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    seed: int
    train_frac: float
    grouping: str

    def save(self, path) -> None:
        payload = {
            "seed": self.seed,
            "train_frac": self.train_frac,
            "grouping": self.grouping,
            "repetitions": [
                {"train": list(tr), "test": list(te)}
                for tr, te in self.repetitions],
        }
        write_json(path, payload)

    @classmethod
    def load(cls, path) -> "SplitSet":
        try:
            payload = json.loads(read_text(path, DataError))
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid JSON in split file {path}: {exc}") from None

        def sides(k, rep):
            seen: set[str] = set()
            for side in ("train", "test"):
                value = rep[side]
                if not isinstance(value, list):
                    raise ValueError(f"{side} side {value!r} is not a list of "
                                     "sample ids")
                for sid in value:
                    if not isinstance(sid, str):
                        raise ValueError(f"{side} side holds {sid!r}, not a "
                                         "sample id string")
                    if sid in seen:
                        raise ValueError(f"repetition {k}: sample {sid!r} is "
                                         "listed twice")
                    seen.add(sid)
            return tuple(rep["train"]), tuple(rep["test"])

        try:
            reps = tuple(sides(k, rep)
                         for k, rep in enumerate(payload["repetitions"]))
            if not reps:
                raise ValueError("no repetitions")
            return cls(repetitions=reps, seed=int(payload["seed"]),
                       train_frac=float(payload["train_frac"]),
                       grouping=str(payload["grouping"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed split file {path}: {exc}") from None


def gen_splits(pairs, reps: int, train_frac: float = 0.8,
               grouping: str = "patient", seed: int = 0) -> SplitSet:
    """Random train/test partitions of ``(sample_id, patient_id)`` pairs,
    one per repetition.

    Units are patients by default so no patient straddles a split; pass
    grouping='sample' to shuffle raw samples instead. The cut point is
    round(train_frac * units), half away from zero.
    """
    if not 0.0 < train_frac < 1.0:
        raise ConfigError(f"train_frac must be in (0, 1), got {train_frac}")
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    if grouping not in ("patient", "sample"):
        raise ConfigError(f"grouping must be 'patient' or 'sample', got {grouping!r}")
    pairs = [(str(sid), str(pid)) for sid, pid in pairs]
    if grouping == "patient":
        seen: dict[str, None] = {}
        for _, pid in pairs:
            seen.setdefault(pid, None)
        units = tuple(seen)
    else:
        units = tuple(sid for sid, _ in pairs)
    n_train = int(math.floor(train_frac * len(units) + 0.5))
    if n_train == 0 or n_train == len(units):
        raise ConfigError(
            f"train_frac {train_frac} yields an empty side for "
            f"{len(units)} {grouping} units")
    stream = RngStream(seed, _STREAM_SPLITS)
    repetitions = []
    for rep in range(reps):
        perm = stream.generator(rep).permutation(len(units))
        train_units = {units[i] for i in perm[:n_train]}

        def unit_of(sid: str, pid: str) -> str:
            return pid if grouping == "patient" else sid

        train_ids = tuple(sid for sid, pid in pairs
                          if unit_of(sid, pid) in train_units)
        test_ids = tuple(sid for sid, pid in pairs
                         if unit_of(sid, pid) not in train_units)
        repetitions.append((train_ids, test_ids))
    return SplitSet(repetitions=tuple(repetitions), seed=seed,
                    train_frac=train_frac, grouping=grouping)


# ---------------------------------------------------------------------------
# Synthetic cohorts
# ---------------------------------------------------------------------------

# Distance between adjacent subtype activity means, in within-subtype
# standard deviations.
_SUBTYPE_SEPARATION = 4.0
_CAUSAL_COEXPRESSION = 0.8        # causal gene vs module activity correlation
_RISK_SCALE = 10.0                # norm of the planted hazard weights
_BACKGROUND_EDGES_PER_GENE = 3.0  # random edges drawn per gene
_MODULE_PROJECTION_GAIN = 5.0     # module rows' gain in the image projection
_EMBEDDING_NOISE = 0.3            # sd of the noise on each embedding value


@dataclass(frozen=True)
class SynthTruth:
    """Ground truth behind a synthetic cohort, for oracle checks."""

    risk: np.ndarray
    beta: np.ndarray
    causal_index: np.ndarray
    event_time: np.ndarray
    censor_time: np.ndarray


def _solve_censor_rate(hazards: np.ndarray, target: float) -> float:
    """Censoring-time rate mu such that the expected censored fraction,
    mean(mu / (hazard + mu)) for exponential death and censoring times,
    equals the target. Monotone in mu, solved by bisection in log space."""
    lo, hi = 1e-300, 1e300

    def frac(mu: float) -> float:
        return float(np.mean(mu / (hazards + mu)))

    for _ in range(300):
        mid = math.sqrt(lo * hi)
        if frac(mid) < target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def synth_gen(patients: int, genes: int, causal_genes: int,
              censor_rate: float, label_noise: float, seed: int,
              embedding_dim: int = 1000) -> tuple[Cohort, GeneGraph, SynthTruth]:
    """Cohort with a planted linear hazard signal on a known gene subgraph.

    The causal genes behave like a co-expressed pathway module: each one
    loads on a shared per-patient activity factor (three subtypes
    ``_SUBTYPE_SEPARATION`` apart) with correlation ``_CAUSAL_COEXPRESSION``,
    the rest of the expression matrix is iid standard normal, and the module
    forms a random tree in the interaction graph buried among
    ``_BACKGROUND_EDGES_PER_GENE`` random background edges per gene. True
    risk is a positively weighted linear score over the module, with weights
    of norm ``_RISK_SCALE``; survival times are exponential with rate
    exp(risk), censoring times are exponential with a rate solved to hit the
    target censored fraction in expectation, grade is the within-cohort risk
    tertile with optional label corruption, and the image embedding is a
    random linear projection of expression plus noise of standard deviation
    ``_EMBEDDING_NOISE``, in which the module rows carry
    ``_MODULE_PROJECTION_GAIN`` times the background weight (morphology
    reads the disease program more directly than any single transcript).
    Deterministic per seed.
    """
    if patients < 3:
        raise ConfigError(f"need >= 3 patients, got {patients}")
    if genes < 1 or causal_genes < 1 or causal_genes > genes:
        raise ConfigError(
            f"need 1 <= causal_genes <= genes, got {causal_genes}/{genes}")
    if not 0.0 <= censor_rate < 1.0:
        raise ConfigError(f"censor_rate must be in [0, 1), got {censor_rate}")
    if not 0.0 <= label_noise < 1.0:
        raise ConfigError(f"label_noise must be in [0, 1), got {label_noise}")
    if embedding_dim < 1:
        raise ConfigError(f"embedding_dim must be >= 1, got {embedding_dim}")

    stream = RngStream(seed, _STREAM_SYNTH)
    gen_graph = stream.generator(0)
    gen_x = stream.generator(1)
    gen_beta = stream.generator(2)
    gen_time = stream.generator(3)
    gen_censor = stream.generator(4)
    gen_label = stream.generator(5)
    gen_embed = stream.generator(6)

    width = max(4, len(str(genes)))
    names = tuple(f"G{i + 1:0{width}d}" for i in range(genes))
    causal = np.sort(gen_graph.choice(genes, size=causal_genes, replace=False))

    # Spanning tree keeps the causal genes in one connected component.
    tree = [(causal[k], causal[gen_graph.integers(0, k)])
            for k in range(1, causal_genes)]
    n_background = int(round(_BACKGROUND_EDGES_PER_GENE * genes))
    background = gen_graph.integers(0, genes, size=(n_background, 2))
    graph = GeneGraph(genes=names, pairs=canonical_pairs(
        np.concatenate([np.array(tree, dtype=np.intp).reshape(-1, 2),
                        background]), genes))

    x = gen_x.standard_normal((patients, genes))
    # Module activity is trimodal (three expression subtypes, the way tumor
    # grades behave) and standardized so per-gene variance stays 1 after
    # mixing.
    subtype = gen_x.integers(0, 3, size=patients)
    raw = (_SUBTYPE_SEPARATION * (subtype - 1.0)
           + gen_x.standard_normal(patients))
    activity = raw / math.sqrt(1.0 + _SUBTYPE_SEPARATION ** 2 * 2.0 / 3.0)
    rho = _CAUSAL_COEXPRESSION
    x[:, causal] = (rho * activity[:, None]
                    + math.sqrt(1.0 - rho * rho) * x[:, causal])
    # One-directional module: higher activity means higher hazard.
    beta_vals = np.abs(gen_beta.standard_normal(causal_genes))
    beta_vals *= _RISK_SCALE / np.linalg.norm(beta_vals)
    beta = np.zeros(genes)
    beta[causal] = beta_vals
    risk = x @ beta

    hazards = np.exp(risk)
    event_time = gen_time.exponential(1.0, size=patients) / hazards
    if censor_rate > 0.0:
        mu = _solve_censor_rate(hazards, censor_rate)
        censor_time = gen_censor.exponential(1.0, size=patients) / mu
    else:
        censor_time = np.full(patients, np.inf)
    observed = np.minimum(event_time, censor_time)
    event = (event_time <= censor_time).astype(np.int64)

    p33, p66 = np.percentile(risk, 33), np.percentile(risk, 66)
    grade = np.where(risk <= p33, 0, np.where(risk <= p66, 1, 2)).astype(np.int64)
    if label_noise > 0.0:
        corrupt = gen_label.random(patients) < label_noise
        offset = gen_label.integers(1, 3, size=patients)
        grade = np.where(corrupt, (grade + offset) % 3, grade)

    projection = gen_embed.standard_normal((genes, embedding_dim)) / math.sqrt(genes)
    projection[causal] *= _MODULE_PROJECTION_GAIN
    embedding = x @ projection + _EMBEDDING_NOISE * gen_embed.standard_normal(
        (patients, embedding_dim))

    patient_ids = [f"P{i + 1:04d}" for i in range(patients)]
    cohort = Cohort(sample_ids=[f"{pid}-S01" for pid in patient_ids],
                    sample_patients=patient_ids, time=observed, event=event,
                    grade=grade, gene_order=names, expression=x,
                    embedding=embedding)
    truth = SynthTruth(risk=risk, beta=beta, causal_index=causal,
                       event_time=event_time, censor_time=censor_time)
    return cohort, graph, truth
