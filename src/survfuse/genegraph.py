"""Gene interaction graphs and the sparse adjacency masks derived from them.

An edge list (one interaction per line, two whitespace-separated gene
symbols) becomes a ``GeneGraph``; intersecting its vertex set with the
expression panel and adding self-loops yields the binary ``AdjacencyMask``
that restricts the first network layer to known gene-gene interactions.
"""

from __future__ import annotations

import copy
import itertools
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


@dataclass
class GeneGraph:
    """Undirected interaction graph over named genes.

    ``edges`` holds deduplicated, canonically ordered (min, max) symbol
    pairs; self-pairs are never stored (self-loops only appear when the
    adjacency mask is built).
    """

    genes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        known = set(self.genes)
        if len(known) != len(self.genes):
            raise DataError("duplicate gene symbols in graph")
        for a, b in self.edges:
            if a == b:
                raise DataError(f"self-pair ({a!r}, {b!r}) in edge set")
            if a not in known or b not in known:
                raise DataError(f"edge endpoint not in gene list: ({a!r}, {b!r})")

    def subgraph(self, keep: list[str] | tuple[str, ...]) -> "GeneGraph":
        """Restrict to ``keep`` (order preserved); edges touching dropped
        genes are removed."""
        keep = tuple(keep)
        keep_set = set(keep)
        missing = keep_set - set(self.genes)
        if missing:
            raise KeyError(f"genes not in graph: {sorted(missing)[:5]}")
        if len(keep_set) == len(keep) == len(self.genes):
            # Every gene, reordered: the edges and their checks still hold,
            # and copy.copy skips __post_init__.
            reordered = copy.copy(self)
            reordered.genes = keep
            return reordered
        edges = frozenset(
            (a, b) for a, b in self.edges if a in keep_set and b in keep_set)
        return GeneGraph(genes=keep, edges=edges)


def _canonical(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def parse_edge_list(path) -> GeneGraph:
    """Read an interaction edge list.

    Each non-blank, non-comment ('#'-prefixed) line must hold exactly two
    whitespace-separated symbols. Duplicate pairs (either orientation)
    collapse to one undirected edge and self-pairs are dropped, though
    their symbols still count as genes. A leading line made only of header
    vocabulary (``gene1 gene2``, ``source target``, ...) is skipped.
    """
    path = Path(path)
    genes: list[str] = []
    seen: set[str] = set()
    edges: set[tuple[str, str]] = set()
    first_data_line = True
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise ParseError(
                    f"{path.name}:{lineno}: expected 2 columns, got {len(tokens)}")
            if first_data_line:
                first_data_line = False
                if all(t.lower() in _HEADER_WORDS for t in tokens):
                    continue
            a, b = tokens
            for g in (a, b):
                if g not in seen:
                    seen.add(g)
                    genes.append(g)
            if a != b:
                edges.add(_canonical(a, b))
    if not edges:
        warnings.warn(f"{path.name}: no edges parsed", stacklevel=2)
    return GeneGraph(genes=tuple(genes), edges=frozenset(edges))


def serialize_graph(graph: GeneGraph, path) -> None:
    """Write the graph back out as a two-column edge list (sorted)."""
    with open(path, "w", encoding="utf-8") as fh:
        for a, b in sorted(graph.edges):
            fh.write(f"{a}\t{b}\n")


def intersect_features(graph: GeneGraph, panel: list[str] | tuple[str, ...]) -> tuple[GeneGraph, tuple[str, ...]]:
    """Restrict graph and expression panel to their shared genes.

    Returns (subgraph, kept_panel) where kept_panel preserves the panel's
    own ordering, and the subgraph's vertex order follows it. Raises
    ConfigError when the intersection is empty.
    """
    graph_set = set(graph.genes)
    kept = tuple(g for g in panel if g in graph_set)
    if not kept:
        raise ConfigError(
            "no overlap between interaction graph and expression panel")
    return graph.subgraph(list(kept)), kept


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
    genes = graph.genes
    n = len(genes)
    index = {g: i for i, g in enumerate(genes)}
    i, j = np.fromiter(
        map(index.__getitem__, itertools.chain.from_iterable(graph.edges)),
        dtype=np.intp, count=2 * len(graph.edges)).reshape(-1, 2).T
    diagonal = np.arange(n, dtype=np.intp)
    # Row-major keys, sorted and deduplicated; np.unique does the same but
    # took 30x longer (numpy 2.4) on the 135,543 keys of a paper-scale graph.
    keys = np.sort(np.concatenate([i * n + j, j * n + i, diagonal * (n + 1)]))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    rows, cols = np.divmod(keys, n)
    return AdjacencyMask(genes=genes, rows=rows, cols=cols)
