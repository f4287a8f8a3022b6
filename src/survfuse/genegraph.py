"""Gene interaction graphs and the sparse adjacency masks derived from them.

An edge list (UTF-8, two whitespace-separated gene symbols per line; ``#``
comments, blank lines and a header line of header words skipped) becomes a
``GeneGraph``: its symbols in order of first appearance and one integer
array of edges from ``canonical_pairs``, the one rule that merges a pair's
two orientations and drops self-pairs. Intersecting the graph with the
expression panel and adding self-loops yields the binary ``AdjacencyMask``
that restricts the first network layer to known gene-gene interactions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ParseError

# Column names commonly used in interaction-file headers; a first line made
# only of these (case-insensitive) is treated as a header, not an edge.
_HEADER_WORDS = {
    "gene1", "gene2", "genea", "geneb", "gene_a", "gene_b",
    "protein1", "protein2", "proteina", "proteinb", "protein_a", "protein_b",
    "source", "target", "node1", "node2", "from", "to",
    "symbol1", "symbol2", "interactor_a", "interactor_b",
}


def canonical_pairs(pairs, n: int) -> np.ndarray:
    """The edge array of ``(k, 2)`` endpoint ids below ``n``: each pair as
    ``(min, max)``, self-pairs dropped, rows sorted by their row-major key
    ``i * n + j`` and repeats dropped."""
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    # Row-major keys, sorted and deduplicated; np.unique does the same but
    # took 17x longer (numpy 2.4) on the 62,435 keys of a paper-scale graph.
    keys = np.sort((lo * n + hi)[lo != hi])
    keys = keys[np.diff(keys, prepend=-1) != 0]
    return np.stack(np.divmod(keys, n), axis=1)


@dataclass
class GeneGraph:
    """Undirected interaction graph over named genes.

    ``pairs`` is an ``(m, 2)`` ``intp`` array of indices into ``genes``, as
    ``canonical_pairs`` returns it: each row ``i < j`` (self-loops only
    appear when the adjacency mask is built), rows strictly increasing in
    row-major order, so no edge is stored twice.
    """

    genes: tuple[str, ...]
    pairs: np.ndarray

    def __post_init__(self):
        n = len(self.genes)
        if len(set(self.genes)) != n:
            raise DataError("duplicate gene symbols in graph")
        self.pairs = pairs = np.asarray(self.pairs, dtype=np.intp)
        i, j = pairs.T
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            raise DataError(f"edge endpoint out of range [0, {n})")
        if np.any(i >= j) or np.any(np.diff(i * n + j) <= 0):
            raise DataError("edge pairs are not (i < j) rows strictly "
                            "increasing in row-major order")


def text_lines(path, error):
    """The physical lines of ``path`` as text mode reads them, line endings
    kept (LF, CRLF or a lone CR ends a line). At the first byte that is not
    UTF-8, every line before it is still yielded, then ``error`` (an
    exception class) is raised naming the line that holds the byte."""
    n = 0
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            for n, line in enumerate(fh, start=1):
                yield line
            return
        except UnicodeDecodeError:
            pass
    # Text mode decodes in blocks, so the lines before the bad byte that
    # share its block are read again here, from the file's bytes.
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[:exc.start]
    # A stand-in for the bad byte makes the last line the one that holds it.
    lines = io.StringIO(data.decode("utf-8") + "?", newline="").readlines()
    yield from lines[n:-1]
    raise error(f"{Path(path).name}:{len(lines)}: not UTF-8 text")


def read_text(path, error) -> str:
    """The text of ``path``, every line ending made LF; a byte that is not
    UTF-8 raises ``error`` (an exception class) naming its line, as in
    ``text_lines``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        for _ in text_lines(path, error):
            pass
        raise


def file_sha256(path) -> str:
    """The sha256 of the bytes of the file at ``path``."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 18), b""):
            digest.update(block)
    return digest.hexdigest()


def write_json(path, payload) -> None:
    """Write ``payload`` to ``path`` as JSON indented by 2 with sorted keys,
    and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_edge_list(path) -> GeneGraph:
    """Read an interaction edge list (format in the module docstring).

    Errors name the file and its physical line: non-UTF-8 bytes, or a line
    that is not exactly two symbols. A list with no edge left warns.
    """
    path = Path(path)
    index: dict[str, int] = {}
    ids: list[int] = []
    header_checked = False
    lines = text_lines(path, ParseError)
    with contextlib.closing(lines):
        for lineno, line in enumerate(lines, start=1):
            tokens = line.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            if len(tokens) != 2:
                raise ParseError(f"{path.name}:{lineno}: expected 2 columns, "
                                 f"got {len(tokens)}")
            if not header_checked:
                header_checked = True
                if all(t.lower() in _HEADER_WORDS for t in tokens):
                    continue
            for t in tokens:
                ids.append(index.setdefault(t, len(index)))
    pairs = canonical_pairs(ids, len(index))
    if not len(pairs):
        warnings.warn(f"{path.name}: no edges parsed", stacklevel=2)
    return GeneGraph(genes=tuple(index), pairs=pairs)


def serialize_graph(graph: GeneGraph, path) -> None:
    """Write the graph back out as a two-column edge list: each pair in
    symbol order, the lines sorted."""
    genes = graph.genes
    lines = sorted(tuple(sorted((genes[i], genes[j])))
                   for i, j in graph.pairs.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        for a, b in lines:
            fh.write(f"{a}\t{b}\n")


def intersect_features(graph: GeneGraph, panel: list[str] | tuple[str, ...]) -> tuple[GeneGraph, tuple[str, ...]]:
    """Restrict graph and expression panel to their shared genes.

    Returns (subgraph, kept_panel) where kept_panel preserves the panel's
    own ordering, and the subgraph's vertex order follows it; edges touching
    a dropped gene are dropped. Raises ConfigError when the intersection is
    empty, DataError when a kept gene is in the panel twice.
    """
    position = {g: i for i, g in enumerate(graph.genes)}
    kept = tuple(g for g in panel if g in position)
    if not kept:
        raise ConfigError(
            "no overlap between interaction graph and expression panel")
    # new_id[old] is a gene's index in ``kept``, or -1 once it is dropped.
    new_id = np.full(len(graph.genes), -1, dtype=np.intp)
    new_id[[position[g] for g in kept]] = np.arange(len(kept))
    pairs = new_id[graph.pairs]
    pairs = pairs[pairs.min(axis=1) >= 0]
    return GeneGraph(genes=kept, pairs=canonical_pairs(pairs, len(kept))), kept


@dataclass
class AdjacencyMask:
    """Binary p x p mask with self-loops, aligned to a fixed gene order.

    ``rows``/``cols`` list the coordinates of the nonzeros. The constructor
    takes them only inside [0, dim) and strictly increasing in row-major
    order, which also rules out duplicates, so each weight stays aligned
    with its coordinate. The row-major order also fixes the masked layer's
    summation order: each output column adds its terms in ascending row
    order (see ``netmodel.MaskedSparseLayer``).
    """

    genes: tuple[str, ...]
    rows: np.ndarray
    cols: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rows, dtype=np.intp)
        c = np.asarray(self.cols, dtype=np.intp)
        if r.shape != c.shape or r.ndim != 1:
            raise DataError("mask rows/cols must be equal-length vectors")
        dim = len(self.genes)
        if r.size and (min(r.min(), c.min()) < 0
                       or max(r.max(), c.max()) >= dim):
            raise DataError(f"coordinates out of range [0, {dim})")
        if np.any(np.diff(r * dim + c) <= 0):
            raise DataError("coordinates are not strictly increasing in "
                            "row-major order")
        self.rows, self.cols = r, c

    @property
    def dim(self) -> int:
        return len(self.genes)

    @property
    def nnz(self) -> int:
        return len(self.rows)


def build_adjacency(graph: GeneGraph) -> AdjacencyMask:
    """Binary adjacency in the graph's vertex order, with every diagonal
    entry forced to 1 so each gene always sees itself."""
    n = len(graph.genes)
    i, j = graph.pairs.T
    diagonal = np.arange(n, dtype=np.intp)
    # The pairs are distinct with i < j, so the three key sets are disjoint.
    keys = np.sort(np.concatenate([i * n + j, j * n + i, diagonal * (n + 1)]))
    rows, cols = np.divmod(keys, n)
    return AdjacencyMask(genes=graph.genes, rows=rows, cols=cols)
