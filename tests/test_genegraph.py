import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from helpers import neighbors
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
    assert len(g.edges) == 1
    assert g.edges == frozenset({("g1", "g2")})


def test_parse_drops_self_pairs(tmp_path):
    with pytest.warns(UserWarning, match="no edges"):
        g = parse_edge_list(write(tmp_path, "g1\tg1\n"))
    assert g.genes == ("g1",)
    assert len(g.edges) == 0


def test_parse_skips_comments_and_blanks(tmp_path):
    text = "# interactions\n\na\tb\n   \nb\tc\n"
    g = parse_edge_list(write(tmp_path, text))
    assert g.genes == ("a", "b", "c")
    assert len(g.edges) == 2


def test_parse_accepts_space_separation(tmp_path):
    g = parse_edge_list(write(tmp_path, "a b\nc   d\n"))
    assert len(g.edges) == 2


def test_parse_bad_column_count_reports_line(tmp_path):
    path = write(tmp_path, "a\tb\nx\ty\tz\n")
    with pytest.raises(ParseError, match="edges.tsv:2"):
        parse_edge_list(path)


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
    assert again.edges == g.edges
    serialize_graph(again, tmp_path / "ser2.tsv")
    assert (tmp_path / "ser2.tsv").read_bytes() == out.read_bytes()


# ---------------------------------------------------------------------------
# Graph structure
# ---------------------------------------------------------------------------


def test_graph_neighbors_and_subgraph():
    g = GeneGraph(genes=("a", "b", "c", "d"),
                  edges=frozenset({("a", "b"), ("b", "c")}))
    assert neighbors(g, "b") == frozenset({"a", "c"})
    assert neighbors(g, "d") == frozenset()
    with pytest.raises(KeyError):
        neighbors(g, "zzz")
    sub = g.subgraph(["c", "b"])
    assert sub.genes == ("c", "b")
    assert sub.edges == frozenset({("b", "c")})


def test_subgraph_of_every_gene_reordered_equals_the_rebuilt_subgraph():
    gen = np.random.default_rng(7)
    names = [f"g{i}" for i in range(40)]
    edges = frozenset(tuple(sorted((names[i], names[j])))
                      for i, j in gen.integers(0, 40, size=(90, 2)) if i != j)
    graph = GeneGraph(genes=tuple(names), edges=edges)
    for keep in (names[::-1], list(gen.permutation(names))):
        sub = graph.subgraph(keep)
        rebuilt = GeneGraph(genes=tuple(keep), edges=frozenset(
            (a, b) for a, b in graph.edges if a in keep and b in keep))
        assert (sub.genes, sub.edges) == (rebuilt.genes, rebuilt.edges)
        assert sub.edges is graph.edges
        assert graph.genes == tuple(names)
        mask = build_adjacency(sub)
        assert (mask.rows.tolist(), mask.cols.tolist()) == \
            oracles.adjacency_set_sort(rebuilt)
    # As many genes as the graph, but one twice: still rejected.
    with pytest.raises(DataError, match="duplicate gene symbols"):
        graph.subgraph(names[:-1] + names[:1])


def test_graph_rejects_invariant_violations():
    with pytest.raises(DataError):
        GeneGraph(genes=("a",), edges=frozenset({("a", "a")}))
    with pytest.raises(DataError):
        GeneGraph(genes=("a",), edges=frozenset({("a", "b")}))
    with pytest.raises(DataError):
        GeneGraph(genes=("a", "a"), edges=frozenset())


def test_intersect_orders_by_panel():
    g = GeneGraph(genes=("a", "b", "c"), edges=frozenset({("a", "b")}))
    sub, kept = intersect_features(g, ["c", "a", "x"])
    assert kept == ("c", "a")
    assert sub.genes == ("c", "a")
    assert len(sub.edges) == 0


def test_intersect_disjoint_is_config_error():
    g = GeneGraph(genes=("a", "b"), edges=frozenset())
    with pytest.raises(ConfigError):
        intersect_features(g, ["x", "y"])


def test_intersect_rejects_duplicate_panel():
    g = GeneGraph(genes=("a", "b"), edges=frozenset())
    with pytest.raises(DataError):
        intersect_features(g, ["a", "a"])


# ---------------------------------------------------------------------------
# Adjacency mask
# ---------------------------------------------------------------------------


def test_build_adjacency_hand_example():
    g = GeneGraph(genes=("g1", "g2", "g3"), edges=frozenset({("g1", "g2")}))
    mask = build_adjacency(g)
    coords = set(zip(mask.rows.tolist(), mask.cols.tolist()))
    assert coords == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)}


def test_build_adjacency_no_edges_is_identity():
    g = GeneGraph(genes=("a", "b", "c"), edges=frozenset())
    mask = build_adjacency(g)
    assert np.array_equal(oracles.mask_dense(mask), np.eye(3))


def test_build_adjacency_respects_order():
    g = GeneGraph(genes=("c", "b", "a"), edges=frozenset({("a", "c")}))
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
    edges = set()
    for i, j in raw_pairs:
        if i < n and j < n and i != j:
            a, b = genes[i], genes[j]
            edges.add((a, b) if a <= b else (b, a))
    mask = build_adjacency(GeneGraph(genes=genes, edges=frozenset(edges)))
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
    """Genes in a shuffled order, isolated ones included; GeneGraph also
    takes a pair in both orientations, which gives one edge."""
    genes = tuple(f"g{k}" for k in order[:n])
    edges = frozenset((genes[i], genes[j])
                      for i, j in pairs if i < n and j < n and i != j)
    graph = GeneGraph(genes=genes, edges=edges)
    mask = build_adjacency(graph)
    rows, cols = oracles.adjacency_set_sort(graph)
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
    assert len(graph.edges) == len(seen) == FULL_EDGES
    assert len(graph.genes) <= FULL_GENES

    # the expression panel covers every symbol, so the intersection is the
    # full gene set and the mask is FULL_GENES x FULL_GENES
    panel = list(names)
    missing = set(names) - set(graph.genes)
    sub, kept = intersect_features(graph, panel)
    assert len(kept) == FULL_GENES - len(missing)
    mask = build_adjacency(sub)
    assert mask.dim == len(kept)
    kept_edges = sum(1 for a, b in graph.edges
                     if a not in missing and b not in missing)
    assert mask.nnz == mask.dim + 2 * kept_edges
