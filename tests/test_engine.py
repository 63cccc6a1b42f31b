import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addspan import (
    UNREACHABLE,
    Graph,
    SubgraphState,
    apsp,
    build_2_spanner,
    build_6_spanner,
    complete,
    default_cap,
    gen_gnp,
    gen_named,
    seed_degree_capped,
    seed_empty,
    verify_spanner,
)
from addspan import engine
from addspan.engine import build_spanner
from addspan.graph import MAX_K, insert_edge

from conftest import clique_chain, random_tree
from oracles import capped_seed, reference_complete


def disjoint_union(a: Graph, b: Graph) -> Graph:
    return Graph.from_edges(
        a.n + b.n, [*a.sorted_edges(), *((u + a.n, v + a.n) for u, v in b.sorted_edges())]
    )


_small_gnp = st.builds(
    gen_gnp, st.integers(0, 14), st.sampled_from((0.15, 0.3, 0.6)), st.integers(0, 2 ** 32)
)
completion_graphs = st.one_of(
    _small_gnp,
    st.builds(random_tree, st.integers(1, 16), st.integers(0, 2 ** 32)),
    st.builds(disjoint_union, _small_gnp, _small_gnp),
)


class TestSeeds:
    def test_seed_empty(self):
        h = seed_empty(gen_named("complete", 4))
        assert h.n == 4 and h.edge_count == 0

    def test_seed_empty_trivial_graph(self):
        assert seed_empty(Graph.from_edges(0, [])).edge_count == 0

    def test_degree_capped_k4_cap1(self):
        h = seed_degree_capped(gen_named("complete", 4), 1)
        assert h.edges() == frozenset({(0, 1), (0, 2), (0, 3)})

    def test_degree_capped_cap_at_least_max_degree(self):
        g = gen_gnp(20, 0.4, 7)
        h = seed_degree_capped(g, int(np.diff(g.indptr).max(initial=0)))
        assert h.edges() == set(g.sorted_edges())

    def test_degree_capped_zero(self):
        assert seed_degree_capped(gen_gnp(10, 0.5, 3), 0).edge_count == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_low_degree_nodes_keep_all_edges(self, seed):
        g = gen_gnp(25, 0.25, seed)
        cap = default_cap(g.n)
        h = seed_degree_capped(g, cap)
        edges = h.edges()
        for v in range(g.n):
            if h.deg[v] < cap:
                assert all((min(v, w), max(v, w)) in edges for w in g.adjacency[v])

    @given(completion_graphs)
    @settings(max_examples=80, deadline=None)
    def test_matches_capped_seed_oracle(self, g):
        max_degree = int(np.diff(g.indptr).max(initial=0))
        for cap in range(max_degree + 2):
            h = seed_degree_capped(g, cap)
            expected = capped_seed(g, cap)
            assert h.edges() == expected
            assert h.deg == [sum(v in e for e in expected) for v in range(g.n)]
            assert h.edge_count == len(expected)

    def test_seed_size_bound(self):
        for seed in range(5):
            g = gen_gnp(40, 0.6, seed)
            cap = default_cap(g.n)
            assert seed_degree_capped(g, cap).edge_count <= g.n * cap


class TestDefaultCap:
    @pytest.mark.parametrize("n,expected", [(1, 1), (8, 2), (26, 2), (27, 3), (1000, 10)])
    def test_examples(self, n, expected):
        assert default_cap(n) == expected

    def test_zero_gives_zero_negative_raises(self):
        # cap 0 is the empty seed, so the pipeline needs no n = 0 case
        assert default_cap(0) == 0
        with pytest.raises(ValueError, match="non-negative"):
            default_cap(-1)

    @given(st.integers(0, 10 ** 9))
    def test_exact_integer_cube_root(self, n):
        c = default_cap(n)
        assert c ** 3 <= n < (c + 1) ** 3


class TestSubgraphState:
    def test_rejects_non_host_edge(self):
        h = seed_empty(gen_named("path", 4))
        with pytest.raises(ValueError):
            h.add_edge(0, 2)

    def test_add_edge_idempotent(self):
        h = seed_empty(gen_named("path", 4))
        assert h.add_edge(0, 1) is True
        assert h.add_edge(1, 0) is False
        assert h.deg[0] == 1 and h.deg[1] == 1

    def test_bfs_row_respects_subset(self):
        g = gen_named("path", 4)
        h = SubgraphState(g, [(0, 1), (2, 3)])
        assert h.bfs_row(0).tolist() == [0, 1, UNREACHABLE, UNREACHABLE]

    @pytest.mark.parametrize("source", [-1, 4])
    def test_bfs_row_source_out_of_range(self, source):
        # numpy would read row -1 as node 3's, and row 4 raise IndexError
        h = SubgraphState(gen_named("path", 4), [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match=r"^node -?\d out of range 0\.\.3$"):
            h.bfs_row(source)

    @given(completion_graphs, st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_edge_set_oracle(self, g, data):
        host = g.sorted_edges()
        ids = st.integers(-2, g.n + 1)
        pairs = st.tuples(ids, ids)
        if host:  # host edges in either direction, besides arbitrary pairs
            flips = st.tuples(st.sampled_from(host), st.booleans())
            pairs = st.one_of(pairs, flips.map(lambda x: x[0][::-1] if x[1] else x[0]))
        drawn = data.draw(st.lists(pairs, max_size=3 * g.n + 3))
        h, edges, deg = SubgraphState(g), set(), [0] * g.n
        for u, v in drawn:
            e = (min(u, v), max(u, v))
            if e not in host:
                with pytest.raises(ValueError) as exc:
                    h.add_edge(u, v)
                assert str(exc.value) == f"edge {e} is not an edge of the host graph"
                continue
            assert h.add_edge(u, v) is (e not in edges)
            if e not in edges:
                edges.add(e)
                deg[u] += 1
                deg[v] += 1
        assert h.edges() == edges
        assert h.deg == deg
        assert h.edge_count == len(edges)
        assert h.to_graph() == Graph.from_edges(g.n, h.edges())
        c = SubgraphState(g, h.edges())
        assert c.edges() == edges and c.deg == deg
        missing = sorted(set(host) - edges)
        if missing:
            c.add_edge(*missing[0])
            assert c.edge_count == len(edges) + 1
            assert h.edges() == edges and h.deg == deg


class TestComplete:
    def test_k4_k2_trace(self):
        g = gen_named("complete", 4)
        h, trace = complete(g, seed_empty(g), 2)
        assert h.edges() == frozenset({(0, 1), (0, 2), (0, 3)})
        assert len(trace.steps) == 3
        assert all(s.new_edges == 1 for s in trace.steps)
        assert [s.pair for s in trace.steps] == [(0, 1), (0, 2), (0, 3)]

    @pytest.mark.parametrize("k", [0, 2, 6])
    @pytest.mark.parametrize("seed", range(4))
    def test_tree_completes_to_itself(self, k, seed):
        t = random_tree(12, seed)
        h, _ = complete(t, seed_empty(t), k)
        assert h.edges() == set(t.sorted_edges())

    def test_c5_k2_needs_all_edges(self):
        g = gen_named("cycle", 5)
        h, _ = build_2_spanner(g)
        assert h.edge_count == 5

    def test_no_proper_subgraph_of_c5_is_2_spanner(self):
        # brute-force oracle behind the C_5 fixture
        g = gen_named("cycle", 5)
        edges = g.sorted_edges()
        for r in range(len(edges)):
            for subset in itertools.combinations(edges, r):
                h = SubgraphState(g, subset)
                assert verify_spanner(g, h.to_graph(), 2), subset

    def test_disconnected_pairs_skipped(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        h, trace = build_2_spanner(g)
        assert h.edges() == set(g.sorted_edges())
        assert verify_spanner(g, h.to_graph(), 2) == []

    def test_rejects_foreign_state(self):
        g1, g2 = gen_named("path", 3), gen_named("path", 4)
        with pytest.raises(ValueError):
            complete(g1, seed_empty(g2), 2)

    def test_rejects_negative_k(self):
        g = gen_named("path", 3)
        with pytest.raises(ValueError):
            complete(g, seed_empty(g), -1)

    def test_rejects_k_above_ceiling(self):
        g = gen_named("path", 3)
        with pytest.raises(ValueError, match="at most"):
            complete(g, seed_empty(g), MAX_K + 1)

    def test_rejects_non_integer_k(self):
        g = gen_named("path", 5)
        for k in (1.5, float("nan"), "2"):
            # rejected up front, not by whichever numpy call first meets k
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                complete(g, seed_empty(g), k, record_potentials=True)
        h, trace = complete(g, seed_empty(g), np.int64(2), record_potentials=True)
        assert h.edge_count == 4 and len(trace.steps) == 4

    @pytest.mark.parametrize("seed", range(6))
    def test_idempotent_and_single_pass_sound(self, seed):
        g = gen_gnp(18, 0.3, seed)
        h, _ = build_2_spanner(g)
        again, trace = complete(g, SubgraphState(g, h.edges()), 2)
        assert not trace.steps
        assert again.edges() == h.edges()
        assert verify_spanner(g, h.to_graph(), 2) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_spanner_contract(self, seed):
        g = gen_gnp(22, 0.25, seed)
        for k, builder in ((2, build_2_spanner), (6, build_6_spanner)):
            h, trace = builder(g)
            assert verify_spanner(g, h.to_graph(), k) == []
            assert h.edges() <= set(g.sorted_edges())
            assert h.edge_count == trace.seed_edge_count + sum(
                s.new_edges for s in trace.steps
            )

    def test_step_invariants(self):
        g = gen_gnp(20, 0.3, 11)
        _, trace = build_2_spanner(g)
        for s in trace.steps:
            assert s.new_edges >= 1
            assert s.path.length == s.d_g
            assert s.d_h_before == UNREACHABLE or s.d_h_before > s.d_g + trace.k

    def test_deterministic(self):
        g = gen_gnp(25, 0.4, 3)
        h1, t1 = build_2_spanner(g)
        h2, t2 = build_2_spanner(g)
        assert h1.edges() == h2.edges()
        assert [s.pair for s in t1.steps] == [s.pair for s in t2.steps]
        assert [s.path for s in t1.steps] == [s.path for s in t2.steps]

    def test_monotone_distances_small(self):
        g = gen_gnp(10, 0.3, 5)
        h, trace = build_2_spanner(g)
        state = seed_empty(g)
        prev = apsp(state.to_graph()).dist
        for s in trace.steps:
            for a, b in s.path.hops():
                state.add_edge(a, b)
            cur = apsp(state.to_graph()).dist
            prev_f = [[math.inf if x < 0 else x for x in row] for row in prev.tolist()]
            cur_f = [[math.inf if x < 0 else x for x in row] for row in cur.tolist()]
            assert all(
                cur_f[i][j] <= prev_f[i][j] for i in range(g.n) for j in range(g.n)
            )
            prev = cur
        assert state.edges() == h.edges()


class TestReferenceCompletion:
    @given(completion_graphs, st.sampled_from((0, 1, 2, 4, 6)), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_complete(self, g, k, capped):
        seed = seed_degree_capped(g, default_cap(g.n)) if capped else seed_empty(g)
        ref_edges, ref_steps = reference_complete(g, seed.edges(), k)
        h, trace = complete(g, seed, k, record_potentials=True)
        assert h.edges() == ref_edges
        assert [
            (s.pair, s.d_g, math.inf if s.d_h_before == UNREACHABLE else s.d_h_before,
             s.path.nodes, s.new_edges, s.v_before, s.v_after, s.c_before, s.c_after)
            for s in trace.steps
        ] == ref_steps
        if capped == (k == 6):  # the pipeline's own seed: capped for k = 6 only
            built, built_trace = build_spanner(g, k, record_potentials=True)
            assert built.edges() == ref_edges
            assert built_trace == trace

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_at_k_ceiling(self, seed):
        # slack k - 1 is largest here; potentials must not wrap in int64
        g = disjoint_union(gen_gnp(7, 0.4, seed), gen_named("path", 5))
        ref_edges, ref_steps = reference_complete(g, frozenset(), MAX_K)
        h, trace = complete(g, seed_empty(g), MAX_K, record_potentials=True)
        assert h.edges() == ref_edges
        assert [(s.pair, s.v_before, s.v_after) for s in trace.steps] == [
            (r[0], r[5], r[6]) for r in ref_steps
        ]

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    @pytest.mark.parametrize("s", [4, 5, 6, 7])
    def test_matches_reference_on_clique_chains(self, t, s):
        # the capped seed drops every bridge, so each one costs a k=6 step
        g = clique_chain(t, s)
        assert s > default_cap(g.n) + 1
        seed = seed_degree_capped(g, default_cap(g.n))
        ref_edges, ref_steps = reference_complete(g, seed.edges(), 6)
        h, trace = complete(g, seed, 6, record_potentials=True)
        assert len(trace.steps) == t - 1
        assert h.edges() == ref_edges
        assert [
            (x.pair, x.d_g, math.inf if x.d_h_before == UNREACHABLE else x.d_h_before,
             x.path.nodes, x.new_edges, x.v_before, x.v_after, x.c_before, x.c_after)
            for x in trace.steps
        ] == ref_steps

    def test_stale_distances_raise_instead_of_looping(self, monkeypatch):
        monkeypatch.setattr(engine, "insert_edge", lambda dist, a, b: None)
        g = gen_named("cycle", 5)
        with pytest.raises(RuntimeError, match="stale"):
            complete(g, seed_empty(g), 2)

    @pytest.mark.parametrize("g", [gen_named("cycle", 7), gen_gnp(30, 0.2, 0)],
                             ids=["cycle-7", "gnp-30"])
    def test_undercut_distances_raise_at_first_step(self, monkeypatch, g):
        # every path edge is still new, so only the d_H = d_G check sees this
        def undercut(dist, a, b):
            insert_edge(dist, a, b)
            dist[a, b] = dist[b, a] = 0

        monkeypatch.setattr(engine, "insert_edge", undercut)
        # the first pair scanned: 0 and the lowest node it can reach
        first = int(np.flatnonzero(apsp(g).dist[0] > 0)[0])
        with pytest.raises(RuntimeError, match=rf"^pair \(0, {first}\) .* stale"):
            complete(g, seed_empty(g), 2)


class TestBuilders:
    def test_build_2_k4(self):
        h, _ = build_2_spanner(gen_named("complete", 4))
        assert h.edge_count == 3

    def test_build_2_p5_is_tree(self):
        h, _ = build_2_spanner(gen_named("path", 5))
        assert h.edge_count == 4

    def test_build_2_k5_verifies(self):
        g = gen_named("complete", 5)
        h, _ = build_2_spanner(g)
        assert verify_spanner(g, h.to_graph(), 2) == []

    def test_build_6_p5(self):
        g = gen_named("path", 5)
        h, _ = build_6_spanner(g)
        assert h.edge_count == 4

    def test_build_6_k8(self):
        g = gen_named("complete", 8)
        h, _ = build_6_spanner(g)
        assert verify_spanner(g, h.to_graph(), 6) == []

    def test_build_6_seed_bound(self):
        for seed in range(5):
            g = gen_gnp(30, 0.5, seed)
            _, trace = build_6_spanner(g)
            assert trace.seed_edge_count <= g.n * default_cap(g.n)
