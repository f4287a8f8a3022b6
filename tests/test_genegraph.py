import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from helpers import graph_of, neighbors, symbol_pairs
from survfuse.errors import ConfigError, DataError, ParseError
from survfuse.genegraph import (
    AdjacencyMask,
    GeneGraph,
    build_adjacency,
    intersect_features,
    parse_edge_list,
    serialize_graph,
)


def write(tmp_path, text, name="edges.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_undirected_dedup(tmp_path):
    g = parse_edge_list(write(tmp_path, "g1\tg2\ng2\tg1\n"))
    assert len(g.genes) == 2
    assert g.pairs.dtype == np.intp
    assert g.pairs.tolist() == [[0, 1]]
    assert symbol_pairs(g) == [("g1", "g2")]


def test_parse_drops_self_pairs(tmp_path):
    with pytest.warns(UserWarning, match="no edges"):
        g = parse_edge_list(write(tmp_path, "g1\tg1\n"))
    assert g.genes == ("g1",)
    assert g.pairs.shape == (0, 2)


def test_parse_skips_comments_and_blanks(tmp_path):
    text = "# interactions\n\na\tb\n   \nb\tc\n"
    g = parse_edge_list(write(tmp_path, text))
    assert g.genes == ("a", "b", "c")
    assert len(g.pairs) == 2


def test_parse_accepts_space_separation(tmp_path):
    g = parse_edge_list(write(tmp_path, "a b\nc   d\n"))
    assert len(g.pairs) == 2


def test_parse_bad_column_count_reports_line(tmp_path):
    path = write(tmp_path, "a\tb\nx\ty\tz\n")
    with pytest.raises(ParseError, match="edges.tsv:2"):
        parse_edge_list(path)


@pytest.mark.parametrize("first, later, message", [
    (b"x\ty\tz", b"c\td\xff", "edges.tsv:2: expected 2 columns, got 3"),
    (b"c\td\xff", b"x\ty\tz", "edges.tsv:2: not UTF-8 text"),
    (b"x\ty\xff\tz", b"c\td", "edges.tsv:2: not UTF-8 text"),
], ids=["width-first", "byte-first", "same-line"])
@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"],
                         ids=["lf", "crlf", "cr"])
def test_parse_reports_the_first_bad_line(tmp_path, first, later, message,
                                          ending):
    # The later bad line lies past the first 8 KB of the file.
    lines = [b"a\tb", first] + [b"a\tb"] * 5000 + [later]
    path = tmp_path / "edges.tsv"
    path.write_bytes(ending.join(lines) + ending)
    with pytest.raises(ParseError) as exc:
        parse_edge_list(path)
    assert str(exc.value) == message


def test_parse_header_autodetect(tmp_path):
    g = parse_edge_list(write(tmp_path, "Gene1\tGene2\na\tb\n"))
    assert g.genes == ("a", "b")


def test_parse_empty_input_warns(tmp_path):
    with pytest.warns(UserWarning, match="no edges"):
        g = parse_edge_list(write(tmp_path, "# nothing\n"))
    assert len(g.genes) == 0


def test_serialize_parse_round_trip(tmp_path):
    g = parse_edge_list(write(tmp_path, "b\ta\nc\tb\na\tc\n"))
    out = tmp_path / "ser.tsv"
    serialize_graph(g, out)
    again = parse_edge_list(out)
    assert sorted(symbol_pairs(again)) == sorted(symbol_pairs(g))
    serialize_graph(again, tmp_path / "ser2.tsv")
    assert (tmp_path / "ser2.tsv").read_bytes() == out.read_bytes()


# Symbols that collide in case, share prefixes, sort differently from their
# first appearance, or are header words away from the first data line.
_SYMBOLS = ("a", "b", "B", "g1", "g10", "G2", "\u00e9", "to", "Source")
_HEADERS = ("gene1\tgene2", "Source Target", "from to", "PROTEIN_A  protein_b")
_SPACE = st.sampled_from(["", " ", "\t"])


@st.composite
def _edge_lists(draw):
    """Edge-list text: an optional header line, then edges joined by tabs or
    spaces, edges repeated reversed, self-pairs, comments, blank lines and
    now and then a line of the wrong width, each ended by LF, CRLF or CR."""
    lines = [draw(st.sampled_from(_HEADERS))] if draw(st.booleans()) else []
    drawn = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(
            ["edge"] * 6 + ["reverse"] * 2 + ["self", "comment", "blank",
                                              "width"]))
        a, b = draw(st.sampled_from(_SYMBOLS)), draw(st.sampled_from(_SYMBOLS))
        if kind == "reverse" and drawn:
            b, a = drawn[draw(st.integers(0, len(drawn) - 1))]
        elif kind == "self":
            b = a
        drawn.append((a, b))
        sep = draw(st.sampled_from(["\t", " ", "  \t "]))
        line = f"{draw(_SPACE)}{a}{sep}{b}{draw(_SPACE)}"
        if kind == "comment":
            line = f"{draw(_SPACE)}#{line}"
        elif kind == "blank":
            line = draw(_SPACE)
        elif kind == "width":
            line = draw(st.sampled_from([a, f"{line} {a}"]))
        lines.append(line)
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                            min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, endings))


@settings(max_examples=200, deadline=None)
@given(text=_edge_lists(), data=st.data())
def test_edge_path_matches_the_set_oracle(text, data):
    """Parse, intersect with a shuffled panel that adds and drops genes,
    serialize and build the mask; compare each step with the literal
    set-of-tuples route."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.tsv"
        path.write_bytes(text.encode("utf-8"))
        genes, edges, error = oracles.edge_list_sets(path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                graph = parse_edge_list(path)
            except ParseError as exc:
                assert str(exc) == error
                return
        assert error is None
        assert [str(w.message) for w in caught] == (
            [] if edges else ["edges.tsv: no edges parsed"])
        assert graph.genes == genes
        assert sorted(symbol_pairs(graph)) == sorted(edges)
        serialize_graph(graph, Path(tmp) / "out.tsv")
        assert (Path(tmp) / "out.tsv").read_bytes() == "".join(
            f"{a}\t{b}\n" for a, b in sorted(edges)).encode("utf-8")

    kept_genes = data.draw(st.lists(st.sampled_from(genes), unique=True)) \
        if genes else []
    panel = data.draw(st.permutations(kept_genes + ["x1", "x2"]))
    kept = tuple(g for g in panel if g in genes)
    if not kept:
        with pytest.raises(ConfigError):
            intersect_features(graph, panel)
        return
    sub, got_kept = intersect_features(graph, panel)
    sub_edges = [(a, b) for a, b in edges if a in kept and b in kept]
    assert got_kept == sub.genes == kept
    assert sorted(symbol_pairs(sub)) == sorted(sub_edges)
    mask = build_adjacency(sub)
    assert (mask.rows.tolist(), mask.cols.tolist()) == \
        oracles.adjacency_set_sort(kept, sub_edges)


# ---------------------------------------------------------------------------
# Graph structure
# ---------------------------------------------------------------------------


def test_graph_neighbors_and_subgraph():
    g = graph_of(("a", "b", "c", "d"), [("a", "b"), ("c", "b")])
    assert neighbors(g, "b") == frozenset({"a", "c"})
    assert neighbors(g, "d") == frozenset()
    with pytest.raises(KeyError):
        neighbors(g, "zzz")
    sub, kept = intersect_features(g, ["c", "b"])
    assert sub.genes == kept == ("c", "b")
    assert sub.pairs.tolist() == [[0, 1]]
    assert symbol_pairs(sub) == [("b", "c")]


def test_subgraph_of_every_gene_reordered_equals_the_rebuilt_subgraph():
    gen = np.random.default_rng(7)
    names = [f"g{i}" for i in range(40)]
    drawn = [(names[i], names[j])
             for i, j in gen.integers(0, 40, size=(90, 2))]
    graph = graph_of(names, drawn)
    edges = symbol_pairs(graph)
    for keep in (names[::-1], list(gen.permutation(names))):
        sub, _ = intersect_features(graph, keep)
        rebuilt = graph_of(keep, drawn)
        assert sub.genes == rebuilt.genes == tuple(keep)
        assert np.array_equal(sub.pairs, rebuilt.pairs)
        assert graph.genes == tuple(names)
        mask = build_adjacency(sub)
        assert (mask.rows.tolist(), mask.cols.tolist()) == \
            oracles.adjacency_set_sort(keep, edges)
    # As many genes as the graph, but one twice: still rejected.
    with pytest.raises(DataError, match="duplicate gene symbols"):
        intersect_features(graph, names[:-1] + names[:1])


def test_graph_rejects_invariant_violations():
    genes = ("a", "b", "c")
    unordered = r"not \(i < j\) rows strictly increasing in row-major order"
    for pairs, message in (
            ([[0, 3]], r"out of range \[0, 3\)"),
            ([[-1, 1]], r"out of range \[0, 3\)"),
            ([[1, 1]], unordered),  # a self-pair
            ([[1, 0]], unordered),
            ([[1, 2], [0, 1]], unordered),  # unsorted rows
            ([[0, 1], [0, 1]], unordered)):  # a repeated row
        with pytest.raises(DataError, match=message):
            GeneGraph(genes=genes, pairs=np.array(pairs, dtype=np.intp))
    with pytest.raises(DataError, match="duplicate gene symbols"):
        GeneGraph(genes=("a", "a"), pairs=np.empty((0, 2), dtype=np.intp))


def test_intersect_orders_by_panel():
    g = graph_of(("a", "b", "c"), [("a", "b")])
    sub, kept = intersect_features(g, ["c", "a", "x"])
    assert kept == ("c", "a")
    assert sub.genes == ("c", "a")
    assert sub.pairs.shape == (0, 2)


def test_intersect_disjoint_is_config_error():
    g = graph_of(("a", "b"))
    with pytest.raises(ConfigError):
        intersect_features(g, ["x", "y"])


def test_intersect_rejects_duplicate_panel():
    g = graph_of(("a", "b"))
    with pytest.raises(DataError):
        intersect_features(g, ["a", "a"])


# ---------------------------------------------------------------------------
# Adjacency mask
# ---------------------------------------------------------------------------


def test_build_adjacency_hand_example():
    g = graph_of(("g1", "g2", "g3"), [("g1", "g2")])
    mask = build_adjacency(g)
    coords = set(zip(mask.rows.tolist(), mask.cols.tolist()))
    assert coords == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)}


def test_build_adjacency_no_edges_is_identity():
    g = graph_of(("a", "b", "c"))
    mask = build_adjacency(g)
    assert np.array_equal(oracles.mask_dense(mask), np.eye(3))


def test_build_adjacency_respects_order():
    g = graph_of(("c", "b", "a"), [("a", "c")])
    mask = build_adjacency(g)
    assert mask.genes == ("c", "b", "a")
    dense = oracles.mask_dense(mask)
    assert dense[0, 2] == 1.0 and dense[2, 0] == 1.0
    assert dense[0, 1] == 0.0


def test_mask_coordinates_sorted_row_major():
    mask = AdjacencyMask(genes=("a", "b"), rows=np.array([0, 0, 1, 1]),
                         cols=np.array([0, 1, 0, 1]))
    assert mask.rows.tolist() == [0, 0, 1, 1]
    assert mask.cols.tolist() == [0, 1, 0, 1]
    # Coordinates are taken as given, never re-sorted.
    for rows, cols in (([1, 0, 0, 1], [1, 1, 0, 0]), ([0, 0], [1, 0])):
        with pytest.raises(DataError, match="not strictly increasing in "
                                            "row-major order"):
            AdjacencyMask(genes=("a", "b"), rows=np.array(rows),
                          cols=np.array(cols))
    for rows, cols in (([0, 2], [0, 0]), ([0, 1], [-1, 0]), ([0], [2])):
        with pytest.raises(DataError, match=r"out of range \[0, 2\)"):
            AdjacencyMask(genes=("a", "b"), rows=np.array(rows),
                          cols=np.array(cols))


def test_mask_rejects_duplicates():
    with pytest.raises(DataError):
        AdjacencyMask(genes=("a", "b"), rows=np.array([0, 0]),
                      cols=np.array([1, 1]))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 8), st.sets(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=12))
def test_adjacency_symmetric_with_full_diagonal(n, raw_pairs):
    genes = tuple(f"g{i}" for i in range(n))
    edges = {frozenset((genes[i], genes[j])) for i, j in raw_pairs
             if i < n and j < n and i != j}
    mask = build_adjacency(graph_of(genes, [tuple(e) for e in edges]))
    dense = oracles.mask_dense(mask)
    assert np.array_equal(dense, dense.T)
    assert np.array_equal(np.diag(dense), np.ones(n))
    # edges dropped by the vertex set never appear
    assert dense.sum() == n + 2 * len(edges)


@settings(max_examples=60, deadline=None)
@given(order=st.permutations(range(10)), n=st.integers(0, 10),
       pairs=st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                     max_size=25))
@example(order=list(range(10)), n=0, pairs=set())
@example(order=list(range(9, -1, -1)), n=10, pairs=set())
@example(order=[3, 0, 9, 1, 8, 2, 7, 4, 6, 5], n=10,
         pairs={(3, 9), (9, 3), (0, 1), (6, 5)})
def test_build_adjacency_matches_set_and_sort_oracle(order, n, pairs):
    """Genes in a shuffled order, isolated ones included; a pair given in
    both orientations gives one edge."""
    genes = tuple(f"g{k}" for k in order[:n])
    edges = [(genes[i], genes[j])
             for i, j in pairs if i < n and j < n and i != j]
    mask = build_adjacency(graph_of(genes, edges))
    rows, cols = oracles.adjacency_set_sort(genes, edges)
    assert mask.rows.dtype == mask.cols.dtype == np.intp
    assert (mask.rows.tolist(), mask.cols.tolist()) == (rows, cols)


# ---------------------------------------------------------------------------
# Full-scale fixture
# ---------------------------------------------------------------------------

FULL_GENES = 10673
FULL_EDGES = 62435


def _full_scale_file(tmp_path):
    """Edge list with exactly FULL_EDGES distinct unordered pairs over
    FULL_GENES symbols, plus a header and some reversed duplicates."""
    gen = np.random.default_rng(20240817)
    names = [f"GENE{i:05d}" for i in range(FULL_GENES)]
    pairs = set()
    while len(pairs) < FULL_EDGES:
        draw = gen.integers(0, FULL_GENES, size=(FULL_EDGES, 2))
        for i, j in draw:
            if i != j:
                pairs.add((min(i, j), max(i, j)))
                if len(pairs) == FULL_EDGES:
                    break
    lines = ["gene1\tgene2"]
    ordered = sorted(pairs)
    lines.extend(f"{names[i]}\t{names[j]}" for i, j in ordered)
    # orientation duplicates must not inflate the count
    lines.extend(f"{names[j]}\t{names[i]}" for i, j in ordered[:500])
    path = tmp_path / "full.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, names, pairs


def test_full_scale_parse_and_mask(tmp_path):
    path, names, pairs = _full_scale_file(tmp_path)

    # independent set-dedup oracle straight from the file text
    seen = set()
    for line in path.read_text().splitlines()[1:]:
        a, b = line.split("\t")
        seen.add(frozenset((a, b)))
    assert len(seen) == FULL_EDGES

    graph = parse_edge_list(path)
    assert len(graph.pairs) == len(seen) == FULL_EDGES
    assert len(graph.genes) <= FULL_GENES

    # the expression panel covers every symbol, so the intersection is the
    # full gene set and the mask is FULL_GENES x FULL_GENES
    panel = list(names)
    missing = set(names) - set(graph.genes)
    sub, kept = intersect_features(graph, panel)
    assert len(kept) == FULL_GENES - len(missing)
    mask = build_adjacency(sub)
    assert mask.dim == len(kept)
    kept_edges = sum(1 for a, b in symbol_pairs(graph)
                     if a not in missing and b not in missing)
    assert mask.nnz == mask.dim + 2 * kept_edges
