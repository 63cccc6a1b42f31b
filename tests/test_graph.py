import itertools
import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path as scipy_shortest_path

from addspan import (
    UNREACHABLE,
    Graph,
    GraphFormatError,
    NoPathError,
    apsp,
    build_spanner,
    default_cap,
    gen_gnp,
    gen_named,
    parse_edge_list,
    run_sweep,
    seed_degree_capped,
    serialize_edge_list,
    shortest_path,
    verify_spanner,
)
from addspan import graph
from addspan.graph import MAX_NODES, _splitmix64_floats, check_k, insert_edge

from conftest import broom, clique_chain, disjoint_union, random_tree
from oracles import (SplitMix64, floyd_warshall, dist_matrix_to_float, largest_parity_sum,
                     naive_exceeds, naive_neighbors, parse_outcome)


def rect_grid(rows: int, cols: int) -> Graph:
    """rows x cols grid, row-major ids: diameter rows + cols - 2."""
    right = ((v, v + 1) for v in range(rows * cols) if v % cols < cols - 1)
    down = ((v, v + cols) for v in range(rows * cols - cols))
    return Graph.from_edges(rows * cols, itertools.chain(right, down))


def scipy_apsp(g: Graph) -> np.ndarray:
    """All-pairs hop distances by scipy, inf mapped to UNREACHABLE."""
    m = csr_matrix((np.ones(g.indices.size), g.indices, g.indptr), shape=(g.n, g.n))
    d = scipy_shortest_path(m, directed=False, unweighted=True)
    return np.where(np.isinf(d), UNREACHABLE, d).astype(np.int64)


# apsp inputs: no square at all (n = 0 and 1, complete graphs), diameters
# 1 to 9, 16, 17 and 64, dense and sparse random graphs, then shapes with
# several components, bridges or isolated nodes
APSP_CASES = [
    ("empty-0", Graph.from_edges(0, [])),
    ("single-1", Graph.from_edges(1, [])),
    *((f"complete-{n}", gen_named("complete", n)) for n in (2, 12)),
    ("star-9", gen_named("star", 9)),
    *((f"path-{d + 1}", gen_named("path", d + 1)) for d in (*range(1, 10), 16, 17, 64)),
    *((f"gnp-{n}-{p}", gen_gnp(n, p, 1)) for n, p in ((60, 0.5), (150, 0.05))),
    *((f"cycle-{n}", gen_named("cycle", n)) for n in (14, 15, 16, 17, 18, 19, 32, 35, 128, 129)),
    *((f"grid-{r}x{c}", rect_grid(r, c)) for r, c in ((4, 5), (5, 5), (5, 6), (9, 9), (9, 10),
                                                     (2, 64))),
    *((f"chain-{t}x{s}", clique_chain(t, s)) for t, s in ((3, 4), (5, 3), (9, 2), (12, 5))),
    *((f"tree-{n}-{seed}", random_tree(n, seed)) for n, seed in ((30, 1), (100, 2), (300, 3))),
    # its squaring stops because a square adds no pair, not at a complete square,
    # so the first step down reads a top level of two components
    ("two-paths-15", disjoint_union(gen_named("path", 15), gen_named("path", 15))),
    # the same stop with a component complete from the start beside one that squares
    ("complete-6-path-7-isolated-2", disjoint_union(gen_named("complete", 6),
                                                    gen_named("path", 7),
                                                    Graph.from_edges(2, []))),
    ("path-40-cycle-9-tree-50", disjoint_union(gen_named("path", 40), gen_named("cycle", 9),
                                               random_tree(50, 4))),
    ("grid-6-and-isolated", disjoint_union(Graph.from_edges(3, []), gen_named("grid", 6),
                                           Graph.from_edges(2, []))),
    ("path-15-isolated-between", Graph.from_edges(30, [(2 * i, 2 * i + 2) for i in range(14)])),
    ("edgeless-5", Graph.from_edges(5, [])),
]

# ``_bfs`` packs 64 sources per word: paths and cycles that end just below, at
# and just above a word boundary, and isolated nodes on either side of one
WORD_BOUNDARY_CASES = [
    *((f"{family}-{n}", gen_named(family, n)) for family in ("path", "cycle")
      for n in (63, 64, 65, 127, 128, 129)),
    ("isolated-63-and-64", Graph.from_edges(
        130, [(u, u + 1) for u in range(129) if not {u, u + 1} & {63, 64}] + [(62, 65)])),
]


def bfs_each_layout(g: Graph) -> list[np.ndarray]:
    """``_bfs`` run to its last level with its gather forced each way: a
    ``_PAD_RATIO`` of -1 sends every graph, an edgeless one too, to the CSR's
    segments, and one of inf sends every graph to the padded table."""
    matrices = []
    for pad_ratio in (-1, math.inf):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph, "_PAD_RATIO", pad_ratio)
            matrices.append(graph._bfs(g, math.inf))
    return matrices


@st.composite
def small_graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n < 2:
        return Graph.from_edges(n, [])
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=len(candidates)))
    return Graph.from_edges(n, edges)


@st.composite
def edge_inputs(draw, max_n=10):
    """(n, pairs): pairs may repeat an edge in either direction, and nodes
    may be left isolated."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    return n, draw(st.lists(pair, max_size=2 * n))


# the forms of edge input ``Graph.from_edges`` accepts
EDGE_FORMS = {
    "list": list,
    "generator": lambda pairs: (p for p in pairs),
    "array": lambda pairs: np.array(pairs, dtype=np.int64).reshape(-1, 2),
}


class TestParsing:
    def test_basic(self):
        g = parse_edge_list("n 3\n0 1\n1 2")
        assert g.n == 3
        assert g.sorted_edges() == [(0, 1), (1, 2)]

    def test_duplicate_and_reverse_collapse(self):
        g = parse_edge_list("0 1\n1 0")
        assert g.n == 2
        assert g.sorted_edges() == [(0, 1)]

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("0 0")

    def test_malformed_token_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_edge_list("0 1\n0 x")

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# comment\n\nn 4\n0 1\n# trailing\n2 3\n")
        assert g.n == 4
        assert g.sorted_edges() == [(0, 1), (2, 3)]

    def test_n_inferred_from_ids(self):
        assert parse_edge_list("0 7").n == 8

    @pytest.mark.parametrize("text, where", [
        ("0 1\n1 " + "2" * 5000, "line 2: an id or count of 5000 digits"),
        ("n " + "9" * 5000, "line 1: an id or count of 5000 digits"),
        ("0 " + "0" * 5000 + "12345", "line 1: an id or count of 5 digits"),
    ], ids=["id", "header", "zero-padded"])
    def test_long_number_rejected_unread(self, text, where):
        # int() would refuse 4300 digits with advice to raise an interpreter limit
        with pytest.raises(GraphFormatError) as info:
            parse_edge_list(text)
        assert str(info.value) == f"{where} would exceed the limit of {MAX_NODES} nodes"

    @pytest.mark.parametrize("text, prefix", [
        ("# c\nn " + "x" * 4998, "line 2: malformed header "),
        ("0 1\n0 1 " + "2" * 4996, "line 2: expected 'u v', got "),
        ("0 1\n1 2\n0 " + "x" * 4998, "line 3: node ids must be ASCII digits 0-9, got "),
    ], ids=["header", "three-tokens", "non-digit-id"])
    def test_long_bad_line_quoted_short(self, text, prefix):
        line = text.splitlines()[-1]
        assert len(line) == 5000
        with pytest.raises(GraphFormatError) as info:
            parse_edge_list(text)
        assert str(info.value) == f"{prefix}{line[:80]!r}... (5000 characters)"

    def test_bad_line_within_bound_quoted_whole(self):
        line = "0 " + "x" * 78
        with pytest.raises(GraphFormatError) as info:
            parse_edge_list(line)
        assert str(info.value) == f"line 1: node ids must be ASCII digits 0-9, got {line!r}"

    @pytest.mark.parametrize("text", [
        "0 1\u20282 3\n", "0 1\x852 3\n", "0 1\v2 3\n", "0 1\f2 3\n", "0 1\x1c2 3\n",
        "0\u30001\n", "0 1\r2 3",
    ], ids=["line-separator", "next-line", "vertical-tab", "form-feed", "file-separator",
            "ideographic-space", "cr-between-pairs"])
    def test_only_newline_ends_a_line(self, text):
        # str.splitlines ends a line at each of these but the ideographic
        # space, and str.split splits at that one
        line = text.split("\n")[0]
        with pytest.raises(GraphFormatError) as info:
            parse_edge_list(text)
        assert str(info.value) == f"line 1: expected 'u v', got {line!r}"

    def test_carriage_return_is_a_blank(self, tmp_path):
        assert parse_edge_list("0\r1") == Graph.from_edges(2, [(0, 1)])
        assert parse_edge_list("n 3\r\n0 1\r\n\r\n1 2\r\n") == \
            Graph.from_edges(3, [(0, 1), (1, 2)])
        path = tmp_path / "g.txt"
        path.write_bytes(b"n\r3\r\n0\r1\r\n")  # read untranslated: no "\r" ends a line
        assert graph.read_edge_list(str(path)) == Graph.from_edges(3, [(0, 1)])

    def test_leading_zeros_parse(self):
        assert parse_edge_list("n 0003\n" + "0" * 5000 + " " + "0" * 5000 + "2") == \
            Graph.from_edges(3, [(0, 2)])

    def test_serialize_simple(self):
        assert serialize_edge_list(Graph.from_edges(2, [(0, 1)])) == "n 2\n0 1\n"

    def test_serialize_empty(self):
        assert serialize_edge_list(Graph.from_edges(3, [])) == "n 3\n"

    @given(small_graphs())
    def test_roundtrip_identity(self, g):
        assert parse_edge_list(serialize_edge_list(g)) == g

    @given(small_graphs())
    def test_serialize_is_canonical_fixpoint(self, g):
        s = serialize_edge_list(g)
        assert serialize_edge_list(parse_edge_list(s)) == s


SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t "])
PADDING = st.sampled_from(["", " ", "\t", "\r"])
# what a mutation writes into a text: every byte class the parsers tell apart
MUTATION_CHARS = "#n\r\t\vx-\u00b2 \n0123456789"


@st.composite
def regular_texts(draw):
    """Edge lists in the form the vectorised pass reads: ids zero-padded to
    at most _MAX_DIGITS digits, spaces, tabs and "\\r" around them, blank lines,
    "\\n" or "\\r\\n" line ends, a header or none, and a last line with or
    without its line end."""
    n = draw(st.integers(0, 14) | st.integers(0, MAX_NODES))
    pair = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    pairs = draw(st.lists(pair.filter(lambda p: p[0] != p[1]), max_size=10)) if n > 1 else []

    def token(x: int) -> str:
        return str(x).zfill(draw(st.integers(1, graph._MAX_DIGITS)))

    lines = [draw(PADDING) + token(u) + draw(SEPARATORS) + token(v) + draw(PADDING)
             for u, v in pairs]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(PADDING))
    if draw(st.booleans()):
        lines.insert(0, "n" + draw(SEPARATORS) + token(draw(st.integers(0, 16))) + draw(PADDING))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


class TestRegularParsing:
    """The vectorised pass against the line reader: the same graph, or the
    same exception with the same message."""

    @given(regular_texts())
    @settings(max_examples=75)
    def test_regular_text_parses_as_line_reader(self, text):
        assert graph._regular_edges(text) is not None
        assert parse_edge_list(text) == graph._parse_lines(text)

    @given(regular_texts(), st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 1),
                                               st.sampled_from(["", *MUTATION_CHARS])),
                                     min_size=1, max_size=3))
    @settings(max_examples=150)
    def test_mutated_text_parses_or_fails_as_line_reader(self, text, edits):
        for at, cut, char in edits:  # replace, insert or delete one character
            at %= len(text) + 1
            text = text[:at] + char + text[at + cut:]
        assert parse_outcome(parse_edge_list, text) == parse_outcome(graph._parse_lines, text)

    @pytest.mark.parametrize("text, regular", [
        ("# c\n0 1\n", False),
        ("n 3\r\n0 1\r\n\r\n1 2\r\n", True),
        ("0\r1\n", True),  # a lone \r is a blank
        ("\nn 3\n0 1\n", False),
        ("0 1\nn 3\n", False),
        ("n5\n0 1\n", False),
        ("n 3 4\n0 1\n", False),
        ("n\n", False),
        ("0 1\n2\n", False),
        ("0 1 2\n", False),
        ("0 1 2 3\n", False),
        ("0 1\n1 1\n", False),
        ("0 00001\n", False),
        ("n 00004\n0 1\n", False),
        ("0 0001\n", True),
        ("0 9000\n", True),  # beyond MAX_NODES: from_edges raises for both
        ("n 9000\n", True),
        ("0 \u0661\n", False),
        ("0 1\v2 3\n", False),
        ("", True),
        (" \t\n\n", True),
        ("n 4", True),
        ("n 4\n0 1\n2 3", True),
    ], ids=["comment", "crlf", "lone-cr", "header-after-blank-line", "header-after-edge",
            "header-without-space", "header-two-counts", "header-no-count", "one-token",
            "three-tokens", "four-tokens", "self-loop", "five-digit-padded-id",
            "five-digit-padded-count", "four-digit-padded-id", "id-over-limit",
            "count-over-limit", "non-ascii-digit", "vertical-tab", "empty", "blank",
            "header-only", "no-final-line-end"])
    def test_fallback_triggers(self, text, regular):
        assert (graph._regular_edges(text) is not None) == regular
        assert parse_outcome(parse_edge_list, text) == parse_outcome(graph._parse_lines, text)

    def test_every_digit_in_every_place(self):
        ids = [d * 10 ** p for p in range(graph._MAX_DIGITS) for d in range(1, 10)
               if d * 10 ** p < MAX_NODES] + [300, 999, 4567, MAX_NODES - 1]
        text = "".join(f"{x} 0\n" for x in ids)
        n, pairs = graph._regular_edges(text)
        assert (n, pairs[:, 0].tolist()) == (MAX_NODES, ids)
        assert parse_edge_list("0 300\n") == graph._parse_lines("0 300\n")

    def test_serialized_text_skips_line_reader(self, monkeypatch):
        def refuse(text):
            raise AssertionError("the line reader ran")

        monkeypatch.setattr(graph, "_parse_lines", refuse)
        for g in (Graph.from_edges(0, []), Graph.from_edges(MAX_NODES, [(0, MAX_NODES - 1)]),
                  gen_named("path", 1500), gen_named("grid", 7), gen_gnp(200, 0.3, 2)):
            assert parse_edge_list(serialize_edge_list(g)) == g

    def test_parse_peak_memory(self):
        text = serialize_edge_list(gen_gnp(384, 0.5, 3))
        parse_edge_list(text)
        tracemalloc.start()
        try:
            parse_edge_list(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 9.1 bytes per input byte, the line reader's 13.4; an int64 per byte adds 8
        assert peak <= 11 * len(text)


class TestGenerators:
    def test_gnp_p_zero(self):
        assert gen_gnp(5, 0.0, 123).edge_count == 0

    def test_gnp_p_one_is_complete(self):
        assert gen_gnp(5, 1.0, 99).edge_count == 10

    def test_gnp_reproducible(self):
        a = gen_gnp(100, 0.1, 42)
        b = gen_gnp(100, 0.1, 42)
        assert a == b
        assert 0 <= a.edge_count <= 4950

    def test_gnp_seed_changes_graph(self):
        assert gen_gnp(30, 0.5, 1) != gen_gnp(30, 0.5, 2)

    def test_gnp_p_out_of_range(self):
        with pytest.raises(ValueError):
            gen_gnp(5, 1.5, 0)

    def test_splitmix_scalar_matches_vectorized(self):
        rng = SplitMix64(987654321)
        scalar = [rng.next_float() for _ in range(200)]
        vec = _splitmix64_floats(987654321, 200)
        assert scalar == vec.tolist()

    def test_named_cycle(self):
        g = gen_named("cycle", 5)
        assert g.n == 5 and g.edge_count == 5

    def test_named_complete(self):
        assert gen_named("complete", 4).edge_count == 6

    def test_named_star(self):
        assert gen_named("star", 4).sorted_edges() == [(0, 1), (0, 2), (0, 3)]

    def test_named_complete_peak_memory(self):
        tracemalloc.start()
        try:
            g = gen_named("complete", 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 64 bytes per edge, 16 of them the CSR's; pairs made as tuples took 160
        assert peak <= 80 * g.edge_count

    def test_named_grid(self):
        g = gen_named("grid", 3)
        assert g.n == 9 and g.edge_count == 12

    def test_named_minimums(self):
        with pytest.raises(ValueError):
            gen_named("cycle", 2)
        with pytest.raises(ValueError):
            gen_named("unknown", 4)


class TestGraphInvariants:
    @given(edge_inputs(), st.sampled_from(sorted(EDGE_FORMS)))
    @example((0, []), "array")
    @example((2, []), "list")
    @example((6, [(3, 1), (1, 3), (1, 3), (4, 0)]), "generator")
    def test_adjacency_consistent(self, case, form):
        n, pairs = case
        g = Graph.from_edges(n, EDGE_FORMS[form](pairs))
        neighbors = naive_neighbors(n, pairs)
        rows = [sorted(neighbors[v]) for v in range(n)]
        indptr = [0, *itertools.accumulate(len(row) for row in rows)]
        indices = list(itertools.chain(*rows))
        assert [g.indptr.tolist(), g.indices.tolist()] == [indptr, indices]
        assert g.sorted_edges() == sorted((v, w) for v in range(n) for w in neighbors[v] if v < w)
        # the path walk and the slot lookup read the rows through memoryviews
        views = [*memoryview(g.indptr), *memoryview(g.indices),
                 *itertools.chain(*g.sorted_edges())]
        assert all(type(x) is int for x in views)
        assert g.edge_count == len(g.sorted_edges())
        assert g == Graph(n, np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64))
        assert g.indptr.dtype == g.indices.dtype == np.int64  # also with no edges
        assert g != Graph.from_edges(n + 1, pairs)
        if pairs:
            assert g != Graph.from_edges(n, g.sorted_edges()[1:])

    def test_equal_degrees_different_neighbors(self):
        assert Graph.from_edges(4, [(0, 1), (2, 3)]) != Graph.from_edges(4, [(0, 2), (1, 3)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(3, [(0, 5)])

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (2, 2), (0, 5)], r"self-loop on node 2$"),
        ([(0, 1), (0, 5), (2, 2)], r"edge \(0, 5\) outside node range 0\.\.2$"),
        ([(7, 7), (0, 5)], r"self-loop on node 7$"),
        ([(2, -1)], r"edge \(2, -1\) outside"),
        ([(1, 0), (0, 10 ** 40)], r"edge \(0, 10{40}\) outside"),
        (np.array([[0, 1], [1, 3], [4, 4]]), r"edge \(1, 3\) outside"),
        # numpy infers float64 for these two; they must not read as non-integers
        ([(0, 2 ** 63)], r"edge \(0, 9223372036854775808\) outside"),
        ([(0, 2 ** 64 - 1)], r"edge \(0, 18446744073709551615\) outside"),
        # an int64 cast would read (0.5, 2) as (0, 2) and "1" as 1
        ([(0.5, 2)], r"node id 0\.5 is not an integer$"),
        ([(1.9, 0)], r"node id 1\.9 is not an integer$"),
        ([("1", "2")], r"node id '1' is not an integer$"),
        (np.array([[0.0, 1.0], [1.0, 2.0]]), r"node id 0\.0 is not an integer$"),
        ([(1, 2), (0.5, 10 ** 40)], r"node id 0\.5 is not an integer$"),
        # numpy infers bool: a cast would read (True, False) as the edge (0, 1)
        ([(True, False)], r"node id True is not an integer$"),
        (np.array([[1, 2], [0, 1]]) > 0, r"node id True is not an integer$"),
        # numpy infers int64 for a bool among ints: a cast would read (True, 2) as (1, 2)
        ([(True, 2)], r"node id True is not an integer$"),
        ([(1, 2), (0, True)], r"node id True is not an integer$"),
    ], ids=["loop-first", "range-first", "loop-out-of-range", "negative", "beyond-int64", "array",
            "2^63", "2^64-1", "half", "near-int", "strings", "float-array", "float-beyond-int64",
            "bools", "bool-array", "bool-among-ints", "bool-after-ints"])
    def test_first_bad_edge_reported(self, edges, message):
        with pytest.raises(GraphFormatError, match=message):
            Graph.from_edges(3, edges)

    @pytest.mark.parametrize("node", ["x" * 80, "x" * 81, "x" * 5000])
    def test_string_id_quoted_short(self, node):
        # the parser's rule: an id beyond 80 characters is cut and its length given
        shown = repr(node) if len(node) <= 80 else f"{node[:80]!r}... ({len(node)} characters)"
        with pytest.raises(GraphFormatError) as info:
            Graph.from_edges(3, [(node, 1)])
        assert str(info.value) == f"node id {shown} is not an integer"

    @pytest.mark.parametrize("node, shown", [
        (b"x", "b'x'"),
        (b"x" * 77, "b'" + "x" * 77 + "'"),
        (b"x" * 78, "b'" + "x" * 78 + "... (81 characters)"),
        (b"x" * 5000, "b'" + "x" * 78 + "... (5003 characters)"),
        (Decimal("1.5"), "Decimal('1.5')"),
        (Decimal("1" * 5000), "Decimal('" + "1" * 71 + "... (5011 characters)"),
    ], ids=["bytes-short", "bytes-80", "bytes-81", "bytes-5000", "object-short", "object-5011"])
    def test_other_id_quoted_short(self, node, shown):
        # any other id has its repr cut after 80 characters and the repr's length given
        with pytest.raises(GraphFormatError) as info:
            Graph.from_edges(3, [(node, 1)])
        assert str(info.value) == f"node id {shown} is not an integer"

    def test_node_ceiling(self):
        assert Graph.from_edges(MAX_NODES, []).n == MAX_NODES
        with pytest.raises(GraphFormatError, match="limit"):
            Graph.from_edges(MAX_NODES + 1, [])

    @pytest.mark.parametrize("call", [
        lambda: Graph.from_edges(-1, []),
        lambda: gen_gnp(-1, 0.5, 0),
    ], ids=["from_edges", "gen_gnp"])
    def test_negative_node_count(self, call):
        with pytest.raises(ValueError, match="^n must be non-negative$"):
            call()

    # one rule for every count: a bool is not 1, and a float is not rounded
    @pytest.mark.parametrize("call", [
        lambda: check_k(True),
        lambda: verify_spanner(gen_named("cycle", 8), gen_named("path", 8), True),
        lambda: Graph.from_edges(3.5, [(0, 1)]),
        lambda: gen_gnp(4.0, 0.5, 1),
        lambda: gen_gnp(5, 0.5, True),
        lambda: gen_gnp(5, 0.5, 1.5),
        lambda: gen_named("path", True),
        lambda: gen_named("grid", True),
        lambda: default_cap(2.5),
        lambda: seed_degree_capped(gen_named("path", 4), True),
        lambda: run_sweep("gnp", [8], [0.5], True, 2),
        # node ids too: False read as 0 and then met an empty array, 4.0 a memoryview
        lambda: shortest_path(gen_named("path", 5), False, 4, np.arange(5, dtype=np.int16)),
        lambda: shortest_path(gen_named("path", 5), 0, 4.0, np.arange(5, dtype=np.int16)),
        # (True, False) flagged the edge (0, 1) but added 1 to every degree
        lambda: seed_degree_capped(gen_named("path", 5), 0).add_edge(True, False),
        lambda: seed_degree_capped(gen_named("path", 5), 0).add_edge(0.5, 1),
    ], ids=["check_k", "verify_spanner", "from_edges", "gen_gnp", "gen_gnp-bool-seed",
            "gen_gnp-float-seed", "gen_named", "grid", "default_cap", "seed_degree_capped",
            "run_sweep", "shortest_path-bool", "shortest_path-float", "add_edge-bool",
            "add_edge-float"])
    def test_counts_must_be_integers(self, call):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call()

    def test_numpy_integer_counts_pass(self):
        g = Graph.from_edges(np.int64(4), [(0, 1), (1, 2)])
        assert type(g.n) is int and g == Graph.from_edges(4, [(0, 1), (1, 2)])
        assert gen_gnp(np.int32(5), 1.0, 0) == gen_named("complete", 5)
        assert default_cap(np.int64(27)) == 3
        assert seed_degree_capped(gen_named("path", 4), np.int64(1)).edge_count == 3
        g = gen_named("path", 5)
        p = shortest_path(g, np.int64(0), np.int32(4), apsp(g).dist[0])
        assert p.nodes == (0, 1, 2, 3, 4) and {type(x) for x in p.nodes} == {int}
        h = seed_degree_capped(g, 0)
        h.add_edge(np.int64(0), np.int32(1))
        assert h.deg.tolist() == [1, 1, 0, 0, 0] and h.edges() == {(0, 1)}


class TestDistances:
    def test_bfs_path(self):
        assert apsp(gen_named("path", 3)).dist[0].tolist() == [0, 1, 2]

    def test_bfs_unreachable(self):
        assert apsp(Graph.from_edges(2, [])).dist[0].tolist() == [0, UNREACHABLE]

    def test_bfs_cycle(self):
        assert apsp(gen_named("cycle", 5)).dist[0].tolist() == [0, 1, 2, 2, 1]

    def test_apsp_k3(self):
        d = apsp(gen_named("complete", 3)).dist
        assert all(d[u, v] == 1 for u in range(3) for v in range(3) if u != v)

    def test_apsp_disconnected(self):
        d = apsp(Graph.from_edges(2, [])).dist
        assert d[0, 1] == UNREACHABLE and d[0, 0] == 0

    def test_apsp_p4(self):
        assert apsp(gen_named("path", 4)).dist[0, 3] == 3

    @pytest.mark.parametrize("g", [Graph.from_edges(0, []), gen_named("path", 4),
                                   Graph.from_edges(3, [(0, 1)])], ids=["n-0", "path-4", "split"])
    def test_apsp_is_c_contiguous_int16(self, g):
        d = apsp(g).dist
        assert d.dtype == np.int16 and d.flags.c_contiguous

    @given(small_graphs())
    @settings(max_examples=60)
    def test_apsp_matches_floyd_warshall(self, g):
        assert dist_matrix_to_float(apsp(g).dist) == floyd_warshall(g)

    @given(st.integers(2, 40), st.integers(0, 2 ** 32))
    @settings(max_examples=40)
    def test_apsp_on_random_trees_matches_floyd_warshall(self, n, seed):
        g = random_tree(n, seed)
        assert dist_matrix_to_float(apsp(g).dist) == floyd_warshall(g)

    @pytest.mark.parametrize("label, g", APSP_CASES, ids=[label for label, _ in APSP_CASES])
    def test_apsp_matches_scipy(self, label, g):
        # apsp sends most of these small graphs to Seidel, so each kernel also runs by itself
        expected = scipy_apsp(g)
        assert np.array_equal(apsp(g).dist, expected)
        for bfs in bfs_each_layout(g):
            assert np.array_equal(bfs, expected)
        assert np.array_equal(graph._seidel(g), expected)

    @pytest.mark.parametrize("label, g", WORD_BOUNDARY_CASES,
                             ids=[label for label, _ in WORD_BOUNDARY_CASES])
    def test_kernels_match_scipy_at_word_boundaries(self, label, g):
        expected = scipy_apsp(g)
        for bfs in bfs_each_layout(g):
            assert np.array_equal(bfs, expected)
            assert bfs.dtype == np.int16 and bfs.flags.c_contiguous
        assert np.array_equal(graph._seidel(g), expected)

    def test_apsp_in_small_blocks_matches_scipy(self, monkeypatch):
        # above 1024 nodes Seidel's products and the BFS's unpacking span
        # several row blocks; forced here on small graphs
        monkeypatch.setattr(graph, "_BLOCK_ROWS", 7)
        for label, g in APSP_CASES + WORD_BOUNDARY_CASES:
            expected = scipy_apsp(g)
            assert np.array_equal(graph._seidel(g), expected), label
            assert np.array_equal(graph._bfs(g, math.inf), expected), label

    @pytest.mark.parametrize("gather_bytes", [8, 8 * 2 * 129, graph._GATHER_BYTES])
    def test_bfs_gathers(self, monkeypatch, gather_bytes):
        # every graph with one word, a few, or all of them per gather, in each layout
        monkeypatch.setattr(graph, "_GATHER_BYTES", gather_bytes)
        for label, g in APSP_CASES + WORD_BOUNDARY_CASES:
            for bfs in bfs_each_layout(g):
                assert np.array_equal(bfs, scipy_apsp(g)), label

    @given(small_graphs(max_n=12))
    @settings(max_examples=200)
    def test_bfs_equals_seidel(self, g):
        for bfs in bfs_each_layout(g):
            assert np.array_equal(bfs, graph._seidel(g))

    # the benchmark's graphs: the BFS's gather ("padded" or "segments") or Seidel
    @pytest.mark.parametrize("g, kernel", [
        (gen_named("grid", 18), "padded"),
        # m = 2639, but one node of degree 216: a padded table would hold 82,944 entries
        (seed_degree_capped(gen_gnp(384, 0.5, 3), default_cap(384)).to_graph(), "segments"),
        (gen_gnp(150, 0.05, 3), "segments"),
        (gen_gnp(384, 0.5, 3), "seidel"),
        # all 160 levels on the BFS, where Seidel would make 15 products
        (gen_named("path", 160), "padded"),
        # m = 584 and a node of degree 197: a padded table would hold 75,648 entries
        (build_spanner(gen_gnp(384, 0.5, 3), 2)[0].to_graph(), "segments"),
    ], ids=["grid-18", "gnp-384-0.5-k6-seed", "gnp-150-0.05", "gnp-384-0.5", "path-160",
            "gnp-384-0.5-k2-spanner"])
    def test_route(self, monkeypatch, g, kernel):
        kernels = []
        seidel, take = graph._seidel, np.take

        class Numpy:  # numpy, with ``take`` noting its index's rank: 2 is the padded table
            def __getattr__(self, name):
                return getattr(np, name)

            def take(self, a, indices, **kwargs):
                kernels.append("padded" if np.ndim(indices) == 2 else "segments")
                return take(a, indices, **kwargs)

        monkeypatch.setattr(graph, "np", Numpy())
        monkeypatch.setattr(graph, "_seidel", lambda h: kernels.append("seidel") or seidel(h))
        assert np.array_equal(apsp(g).dist, scipy_apsp(g))
        assert set(kernels) == {kernel}

    @pytest.mark.parametrize("n", [0, 1, 2, 150])
    def test_apsp_of_edgeless_graph_runs_no_kernel(self, monkeypatch, n):
        # the empty seed of every k != 6 build
        for kernel in ("_bfs", "_seidel"):
            monkeypatch.setattr(graph, kernel, None)  # a call raises TypeError
        g = Graph.from_edges(n, [])
        d = apsp(g).dist
        assert np.array_equal(d, scipy_apsp(g))
        assert d.dtype == np.int16 and d.flags.c_contiguous

    @pytest.mark.parametrize("g", [
        *(broom(60, leaves) for leaves in range(58)),
        *(broom(300, leaves) for leaves in (1, 100, 149, 150, 151, 152, 200, 297)),
        *(gen_gnp(n, p, seed) for n, p, seed in ((60, 0.05, 1), (200, 0.02, 2), (200, 0.1, 3))),
        gen_named("grid", 12), gen_named("path", 200), gen_named("star", 200),
        gen_named("cycle", 201), gen_named("complete", 30), clique_chain(12, 5),
    ])
    def test_parity_sums_within_bound(self, g):
        # the bound of _seidel's docstring, which keeps its float32 products exact
        assert largest_parity_sum(scipy_apsp(g)) <= (g.n + 3) ** 2 / 8

    def test_broom_nearly_reaches_parity_bound(self):
        # the bound is tight, and the oracle above does not pass by reading low
        assert largest_parity_sum(scipy_apsp(broom(300, 151))) > 0.99 * 303 ** 2 / 8

    # Seidel takes 13 bytes per cell on G(400, 0.5); the BFS, which the sparse
    # graphs take, 7.1 on the grid and 7.0 on G(400, 0.05), most of it the int16
    # matrix and one block of unpacked bit planes
    @pytest.mark.parametrize("g, bytes_per_cell", [
        (gen_named("grid", 20), 8), (gen_gnp(400, 0.05, 1), 8), (gen_gnp(400, 0.5, 1), 20),
    ], ids=["grid-20", "gnp-400-0.05", "gnp-400-0.5"])
    def test_apsp_peak_memory(self, g, bytes_per_cell):
        apsp(g)  # numpy's and BLAS's one-time set-up stays out of the measurement
        tracemalloc.start()
        try:
            apsp(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bytes_per_cell * g.n ** 2

    @given(small_graphs())
    @settings(max_examples=40)
    def test_matrix_symmetric_and_triangle(self, g):
        d = apsp(g).dist
        assert (d == d.T).all()
        f = np.where(d < 0, math.inf, d.astype(float))
        for k in range(g.n):
            assert (f <= f[:, [k]] + f[[k], :] + 1e-9).all()

    @given(small_graphs(), st.data())
    @settings(max_examples=80)
    def test_insert_edge_matches_apsp(self, g, data):
        # from no edges, every insertion either joins two components or
        # closes a cycle inside one
        order = data.draw(st.permutations(g.sorted_edges()))
        flips = data.draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
        dist = apsp(Graph.from_edges(g.n, [])).dist
        for i, ((a, b), flip) in enumerate(zip(order, flips)):
            insert_edge(dist, *((b, a) if flip else (a, b)))
            assert (dist == dist.T).all()
            assert dist.tolist() == apsp(Graph.from_edges(g.n, order[:i + 1])).dist.tolist()

    @given(small_graphs(), st.data())
    @settings(max_examples=80)
    def test_insert_edge_returns_changed_cells(self, g, data):
        # the returned pairs and their mirrors are exactly the changed cells,
        # each unordered pair once, with the values before and after
        order = data.draw(st.permutations(g.sorted_edges()))
        flips = data.draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
        dist = apsp(Graph.from_edges(g.n, [])).dist
        for (a, b), flip in zip(order, flips):
            before = dist.copy()
            x, y, old, new = insert_edge(dist, *((b, a) if flip else (a, b)))
            cells = np.concatenate((x * g.n + y, y * g.n + x))
            assert np.sort(cells).tolist() == np.flatnonzero(before != dist).tolist()
            assert len({(min(p), max(p)) for p in zip(x.tolist(), y.tolist())}) == x.size
            assert old.tolist() == before[x, y].tolist()
            assert new.tolist() == dist[x, y].tolist()

    @pytest.mark.parametrize("a, b", [(0, 3), (3, 0)])
    def test_insert_edge_between_joined_ends(self, a, b):
        # d(a, b) = 3 is finite, so the uint16 near sets are {0, 3} each, and
        # the block also holds (0, 0), (3, 3) and the mirror (3, 0): none may
        # be returned, and the one pair that changes is returned once
        dist = apsp(gen_named("path", 4)).dist
        x, y, old, new = insert_edge(dist, a, b)
        assert [(min(p), max(p)) for p in zip(x.tolist(), y.tolist())] == [(0, 3)]
        assert old.tolist() == [3] and new.tolist() == [1]
        assert np.array_equal(dist, apsp(gen_named("cycle", 4)).dist)

    # path 0-1-2-3, then 4 and 5 isolated, 6-7 an edge: b = 4 joins a's
    # component or another isolated node, in either order of a and b
    @pytest.mark.parametrize("a, b", [(1, 4), (3, 4), (5, 4), (4, 5), (7, 4), (4, 1)])
    def test_insert_edge_attaching_an_isolated_node(self, a, b):
        # the edge joins two components, so every cell between them changes
        # from UNREACHABLE: with b isolated that block is column b over a's
        # component, written without the gather, and returned the same way
        edges = [(0, 1), (1, 2), (2, 3), (6, 7)]
        dist = apsp(Graph.from_edges(8, edges)).dist
        d = dist.tolist()
        x, y, old, new = insert_edge(dist, a, b)
        assert np.array_equal(dist, apsp(Graph.from_edges(8, [*edges, (a, b)])).dist)
        # the brute-force block: each unordered pair once, a's side first, row-major
        block = [(p, q) for p in range(8) for q in range(8)
                 if d[a][p] != UNREACHABLE and d[b][q] != UNREACHABLE]
        assert list(zip(x.tolist(), y.tolist())) == block
        assert old.tolist() == [UNREACHABLE] * len(block)
        assert new.tolist() == [d[a][p] + 1 + d[b][q] for p, q in block]
        assert (x.dtype, y.dtype, old.dtype, new.dtype) == (np.intp, np.intp, np.int16, np.int16)

    @pytest.mark.parametrize("edges", [[], [(0, 1), (1, 2)], [(0, 1), (1, 2), (2, 0)]])
    def test_insert_edge_self_loop_changes_nothing(self, edges):
        dist = apsp(Graph.from_edges(4, edges)).dist
        before = dist.copy()
        for a in range(4):
            x, y, old, new = insert_edge(dist, a, a)
            assert x.size == y.size == old.size == new.size == 0
            assert np.array_equal(dist, before)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16, np.uint64, np.float64])
    def test_insert_edge_refuses_other_dtypes(self, dtype):
        # the rows are read through a uint16 view, which only int16 cells fit
        dist = apsp(Graph.from_edges(4, [(0, 1), (2, 3)])).dist.astype(dtype)
        before = dist.copy()
        with pytest.raises(ValueError, match="int16"):
            insert_edge(dist, 1, 2)
        assert np.array_equal(dist, before)

    @pytest.mark.parametrize("layout", [np.asfortranarray, np.transpose,
                                        lambda d: np.pad(d, ((0, 0), (0, 3)))[:, :-3]],
                             ids=["fortran", "transposed-view", "column-slice"])
    def test_insert_edge_refuses_other_layouts(self, layout):
        # a flat view of these would be a copy, so a repair there would be lost
        dist = layout(apsp(Graph.from_edges(4, [(0, 1), (2, 3)])).dist)
        before = dist.copy()
        with pytest.raises(ValueError, match="C-contiguous"):
            insert_edge(dist, 1, 2)
        assert np.array_equal(dist, before)


def two_source_column(d: np.ndarray, z: int, w: int) -> np.ndarray:
    """``d`` with column z read as a BFS from both z and w: every local
    condition of the certificate holds, but the column has two zeros."""
    e = d.copy()
    e[:, z] = np.minimum(d[:, z].view(np.uint16), d[:, w].view(np.uint16)).view(np.int16)
    return e


#: the one-cell changes the certificate must reject, as functions of the value
ONE_CELL_CHANGES = {
    "plus-one": lambda v: v + 1, "minus-one": lambda v: v - 1, "doubled": lambda v: 2 * v,
    "unreachable": lambda v: UNREACHABLE, "zero": lambda v: 0,
}


@st.composite
def certificate_cases(draw):
    """(H, D): H a union of up to three small graphs, so it may have several
    components and isolated nodes, and D its hop-distance matrix, either as
    ``apsp`` gives it or with one corruption."""
    h = disjoint_union(*draw(st.lists(small_graphs(max_n=6), min_size=1, max_size=3)))
    d = apsp(h).dist
    off_diagonal = ~np.eye(h.n, dtype=bool)
    kind = draw(st.sampled_from(["exact", "one-cell", "unreachable-flip", "two-sources"]))
    if kind == "exact" or h.n < 2:
        return h, d
    if kind == "two-sources":
        z, w = draw(st.permutations(range(h.n)))[:2]
        return h, two_source_column(d, z, w)
    if kind == "one-cell":
        x, z = draw(st.permutations(range(h.n)))[:2]
        value = ONE_CELL_CHANGES[draw(st.sampled_from(sorted(ONE_CELL_CHANGES)))](int(d[x, z]))
    else:  # a connected pair made UNREACHABLE, or a disconnected one given a distance
        cells = np.argwhere(off_diagonal & ((d == UNREACHABLE) == draw(st.booleans())))
        if not cells.size:
            return h, d
        x, z = cells[draw(st.integers(0, len(cells) - 1))].tolist()
        value = UNREACHABLE if d[x, z] != UNREACHABLE else draw(st.integers(1, h.n))
    d[x, z] = value
    if draw(st.booleans()):  # the mirrored pair
        d[z, x] = value
    return h, d


class TestHopDistanceCertificate:
    """``graph._is_hop_distance``, which certifies the build's repaired d_H
    without an APSP, accepts a matrix exactly when it is ``apsp``'s."""

    @given(certificate_cases())
    @settings(max_examples=400)
    @example((Graph.from_edges(0, []), np.zeros((0, 0), dtype=np.int16)))
    @example((Graph.from_edges(1, []), np.zeros((1, 1), dtype=np.int16)))
    @example((Graph.from_edges(1, []), np.ones((1, 1), dtype=np.int16)))
    @example((Graph.from_edges(2, []), np.zeros((2, 2), dtype=np.int16)))
    # isolated nodes that reach each other
    @example((Graph.from_edges(2, []), apsp(gen_named("path", 2)).dist))
    # n zeros, but column 0 reads as the BFS from 1: one 0 off the diagonal
    @example((gen_named("path", 2), np.array([[1, 1], [0, 0]], dtype=np.int16)))
    # column 0 reads 0 1 2 1 0, the BFS from both 0 and 4
    @example((gen_named("path", 5), two_source_column(apsp(gen_named("path", 5)).dist, 0, 4)))
    # matrices of another size
    @example((gen_named("path", 4), apsp(gen_named("path", 5)).dist))
    @example((gen_named("path", 4), apsp(gen_named("path", 4)).dist[:3]))
    def test_accepts_exactly_the_hop_distances(self, case):
        h, d = case
        assert graph._is_hop_distance(h, d) == np.array_equal(d, apsp(h).dist)

    @pytest.mark.parametrize("block_rows", [7, graph._BLOCK_ROWS])
    def test_accepts_every_apsp_case(self, monkeypatch, block_rows):
        monkeypatch.setattr(graph, "_BLOCK_ROWS", block_rows)
        for label, g in APSP_CASES:
            assert graph._is_hop_distance(g, apsp(g).dist), label

    @pytest.mark.parametrize("block_rows", [3, graph._BLOCK_ROWS])
    @pytest.mark.parametrize("change", sorted(ONE_CELL_CHANGES))
    def test_rejects_every_one_cell_change(self, monkeypatch, block_rows, change):
        # two components, an isolated node between them, and uneven degrees,
        # so the degree order crosses the blocks of three rows
        h = disjoint_union(gen_named("star", 4), Graph.from_edges(1, []),
                           Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]))
        monkeypatch.setattr(graph, "_BLOCK_ROWS", block_rows)
        d = apsp(h).dist
        for x, z in itertools.permutations(range(h.n), 2):
            value = ONE_CELL_CHANGES[change](int(d[x, z]))
            if value == d[x, z]:
                continue
            for cells in ([x], [z]), ([x, z], [z, x]):  # one cell, then the mirrored pair
                e = d.copy()
                e[cells] = value
                assert not graph._is_hop_distance(h, e), (x, z, cells)

    @pytest.mark.parametrize("g", [gen_named("grid", 20), gen_gnp(400, 0.5, 1)],
                             ids=["grid-20", "gnp-400-0.5"])
    def test_peak_memory_bounded_by_row_blocks(self, monkeypatch, g):
        # blocks of 40 rows: one more n x n int16 matrix would be 2 n**2 = 320,000 bytes
        h = seed_degree_capped(g, 3).to_graph()
        d = apsp(h).dist
        monkeypatch.setattr(graph, "_BLOCK_ROWS", 40)
        graph._is_hop_distance(h, d)  # numpy's one-time set-up stays out of the measurement
        tracemalloc.start()
        try:
            assert graph._is_hop_distance(h, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 5.57 bytes per block cell measured on both: the step block, and d's rows
        # copied beside it with their comparison's mask
        assert peak <= 7 * 40 * g.n

    @pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.float64])
    def test_refuses_other_dtypes(self, dtype):
        h = gen_named("path", 4)
        with pytest.raises(ValueError, match="int16"):
            graph._is_hop_distance(h, apsp(h).dist.astype(dtype))


@st.composite
def pair_rule_cases(draw):
    """(dg, dh, k): a graph's distances and those of a random subgraph, and a
    k from 0 to MAX_K, around n and MAX_NODES among them."""
    g = draw(small_graphs(max_n=12))
    h = draw(st.lists(st.sampled_from(g.sorted_edges()), unique=True)) if g.edge_count else []
    k = draw(st.sampled_from((0, 1, 2, 6, max(g.n - 1, 0), g.n, MAX_NODES, graph.MAX_K)))
    return apsp(g).dist, apsp(Graph.from_edges(g.n, h)).dist, k


def swept(dg: np.ndarray, dh: np.ndarray, k: int, block_rows: int):
    """``_pair_blocks``'s masks and limits in blocks of ``block_rows`` rows,
    put back together as n x n arrays, and the blocks' first rows."""
    n = dg.shape[0]
    mask, limits, starts = np.zeros((n, n), bool), np.zeros((n, n), np.uint16), []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "_BLOCK_ROWS", block_rows)
        for r, block_limits, block_mask in graph._pair_blocks(dg, dh, k):
            starts.append(r)
            limits[r:r + len(block_limits)] = block_limits
            mask[r:r + len(block_mask)] = block_mask
    return mask, limits, starts


class TestPairRule:
    @given(pair_rule_cases(), st.integers(1, 13), st.data())
    @settings(max_examples=120)
    def test_matches_naive_rule(self, case, block_rows, data):
        # the sweep in blocks of 1 to 13 rows, the last one full or short, holds the
        # naive rule on the pairs x < y and their limits, and 0xFFFF, which no
        # d_H exceeds, at y <= x; ``_pair_limit`` alone holds the rule on offset
        # submatrices, rows and offset slices of rows
        dg, dh, k = case
        n = dg.shape[0]
        mask, limits, starts = swept(dg, dh, k, block_rows)
        assert starts == list(range(0, n, block_rows))
        assert np.array_equal(mask, np.triu(naive_exceeds(dg, dh, k), 1))
        limit = np.where(dg == UNREACHABLE, 0xFFFF, dg.astype(np.int64) + min(k, MAX_NODES))
        assert np.array_equal(limits, np.where(np.tri(n, n, 0, dtype=bool), 0xFFFF, limit))
        r = data.draw(st.integers(0, max(n - 1, 0)))
        lo = data.draw(st.integers(0, n))
        hi = data.draw(st.integers(lo, n))
        rows = (np.s_[r], np.s_[r, lo:hi]) if n else ()
        for at in (np.s_[lo:, lo:hi], *rows):
            expected = naive_exceeds(dg[at], dh[at], k)
            assert np.array_equal(dh[at].view(np.uint16) > graph._pair_limit(dg[at], k), expected)

    def test_k_is_not_clamped_to_the_slice_length(self):
        # d_H = 7 is within d_G + 5 = 8 on a slice of 2 cells as on any other
        assert graph._pair_limit(np.full(2, 3, dtype=np.int16), 5).tolist() == [8, 8]
        dg, dh = np.int16([[0, 3], [3, 0]]), np.int16([[0, 7], [7, 0]])
        [(_, _, within)] = graph._pair_blocks(dg, dh, 5)
        [(_, _, beyond)] = graph._pair_blocks(dg, dh, 3)
        assert not within.any() and beyond.tolist() == [[False, True], [False, False]]

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16, np.float64])
    def test_refuses_other_dtypes(self, dtype):
        # a uint16 view of wider cells would compare each cell's 16-bit pieces
        dist = apsp(gen_named("path", 4)).dist
        other = dist.astype(dtype)
        for dg, dh in ((other, dist), (dist, other)):
            with pytest.raises(ValueError, match="int16"):
                list(graph._pair_blocks(dg, dh, 2))
        with pytest.raises(ValueError, match="int16"):
            graph._pair_limit(other, 2)

    def test_limit_is_uint16(self):
        # numpy integer k of any width: the limit, and the sweep's, stays uint16
        # and never promotes
        dg = apsp(Graph.from_edges(3, [(0, 1)])).dist
        for k in (2, np.int64(2), np.uint8(2), graph.MAX_K):
            [(_, limits, _)] = graph._pair_blocks(dg, dg, k)
            assert graph._pair_limit(dg, k).dtype == limits.dtype == np.uint16
        assert graph._pair_limit(dg, 2).tolist() == [[2, 3, 0xFFFF], [3, 2, 0xFFFF],
                                                    [0xFFFF, 0xFFFF, 2]]


class TestShortestPath:
    def test_unique_path(self):
        g = gen_named("path", 3)
        assert shortest_path(g, 0, 2, apsp(g).dist[0]).nodes == (0, 1, 2)

    def test_c4_tie_break_prefers_low_parent(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert shortest_path(g, 0, 2, apsp(g).dist[0]).nodes == (0, 1, 2)

    def test_no_path_error(self):
        with pytest.raises(NoPathError):
            g = Graph.from_edges(4, [(0, 1), (2, 3)])
            shortest_path(g, 0, 3, apsp(g).dist[0])

    def test_trivial_path(self):
        g = gen_named("path", 3)
        assert shortest_path(g, 1, 1, apsp(g).dist[1]).nodes == (1,)

    @pytest.mark.parametrize("row, message", [
        ([0, 2, 1], "node 2 at distance 1 has no neighbor at distance 0: "
                    "the distances are not the row of 0"),
        ([0, 2, 2], "node 2 at distance 2 has no neighbor at distance 1"),
    ])
    def test_row_without_predecessor_raises(self, row, message):
        # without the check the walk kept node 2 and returned the "path" (2, 2)
        g = gen_named("path", 3)
        with pytest.raises(ValueError, match=f"^{message}") as exc:
            shortest_path(g, 0, 2, np.array(row, dtype=np.int16))
        assert type(exc.value) is ValueError

    def test_row_of_another_node_raises(self):
        # v's own row puts v at 0: the walk used to stop there and return (4,)
        g = gen_named("path", 5)
        with pytest.raises(ValueError, match="^distances put node 0 at distance 4, not 0"):
            shortest_path(g, 0, 4, apsp(g).dist[4])

    @pytest.mark.parametrize("rows", [
        lambda d: d[0, :3],  # an IndexError at v = 4
        lambda d: np.append(d[0], 0),
        lambda d: d,  # a NotImplementedError from the 2-D memoryview
    ])
    def test_row_of_wrong_shape_raises(self, rows):
        g = gen_named("path", 5)
        with pytest.raises(ValueError, match="are not a row of 5 nodes") as exc:
            shortest_path(g, 0, 4, rows(apsp(g).dist))
        assert type(exc.value) is ValueError

    @given(small_graphs(), st.integers(0, 9), st.integers(0, 9))
    @settings(max_examples=80)
    def test_path_properties(self, g, u, v):
        if g.n == 0:
            return
        u %= g.n
        v %= g.n
        dist = apsp(g).dist[u]
        if dist[v] == UNREACHABLE:
            with pytest.raises(NoPathError):
                shortest_path(g, u, v, dist)
            return
        p = shortest_path(g, u, v, dist)
        assert p.nodes[0] == u and p.nodes[-1] == v
        assert p.length == dist[v]
        assert len(set(p.nodes)) == len(p.nodes)
        edges = set(g.sorted_edges())
        for a, b in p.hops():
            assert (min(a, b), max(a, b)) in edges
        # shortest-path adjacency limits: off-path nodes touch <= 3 path
        # nodes, on-path nodes touch <= 2 other path nodes
        on_path = set(p.nodes)
        for x in range(g.n):
            touched = sum(1 for w in p.nodes if w != x and (min(x, w), max(x, w)) in edges)
            assert touched <= (2 if x in on_path else 3)

    @given(small_graphs(), st.integers(0, 9), st.integers(0, 9))
    @settings(max_examples=30)
    def test_deterministic(self, g, u, v):
        if g.n == 0:
            return
        u %= g.n
        v %= g.n
        dist = apsp(g).dist[u]
        if dist[v] == UNREACHABLE:
            return
        assert shortest_path(g, u, v, dist) == shortest_path(g, u, v, dist)
