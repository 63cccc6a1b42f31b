import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addspan import (
    UNREACHABLE,
    Graph,
    GraphFormatError,
    NoPathError,
    apsp,
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
from addspan.graph import MAX_NODES, _splitmix64_floats, check_k, insert_edge

from oracles import SplitMix64, floyd_warshall, dist_matrix_to_float, naive_neighbors


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
        adjacency = tuple(tuple(sorted(neighbors[v])) for v in range(n))
        assert g.adjacency == adjacency
        assert g.sorted_edges() == sorted((v, w) for v in range(n) for w in neighbors[v] if v < w)
        views = [*itertools.chain(*g.adjacency), *itertools.chain(*g.sorted_edges())]
        assert all(type(x) is int for x in views)
        indptr = [0, *itertools.accumulate(len(a) for a in adjacency)]
        indices = list(itertools.chain(*adjacency))
        assert [a.tolist() for a in g.csr] == [indptr, indices]
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
    ], ids=["loop-first", "range-first", "loop-out-of-range", "negative", "beyond-int64", "array",
            "2^63", "2^64-1", "half", "near-int", "strings", "float-array", "float-beyond-int64"])
    def test_first_bad_edge_reported(self, edges, message):
        with pytest.raises(GraphFormatError, match=message):
            Graph.from_edges(3, edges)

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
        lambda: gen_named("path", True),
        lambda: gen_named("grid", True),
        lambda: default_cap(2.5),
        lambda: seed_degree_capped(gen_named("path", 4), True),
        lambda: run_sweep("gnp", [8], [0.5], True, 2),
    ], ids=["check_k", "verify_spanner", "from_edges", "gen_gnp", "gen_named", "grid",
            "default_cap", "seed_degree_capped", "run_sweep"])
    def test_counts_must_be_integers(self, call):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call()

    def test_numpy_integer_counts_pass(self):
        g = Graph.from_edges(np.int64(4), [(0, 1), (1, 2)])
        assert type(g.n) is int and g == Graph.from_edges(4, [(0, 1), (1, 2)])
        assert gen_gnp(np.int32(5), 1.0, 0) == gen_named("complete", 5)
        assert default_cap(np.int64(27)) == 3
        assert seed_degree_capped(gen_named("path", 4), np.int64(1)).edge_count == 3


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

    @given(small_graphs())
    @settings(max_examples=60)
    def test_apsp_matches_floyd_warshall(self, g):
        assert dist_matrix_to_float(apsp(g).dist) == floyd_warshall(g)

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
