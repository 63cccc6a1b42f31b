import collections
import dataclasses
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addspan import (
    UNREACHABLE,
    Graph,
    SubgraphState,
    apsp,
    build_spanner,
    complete,
    default_cap,
    gen_gnp,
    gen_named,
    seed_degree_capped,
    shortest_path,
    verify_spanner,
)
from addspan import engine, graph
from addspan.engine import potential_from_matrices
from addspan.graph import MAX_K, canonical_edge, insert_edge

from conftest import (MUTANT_CORPUS, clique_chain, disjoint_union, leafed_core,
                      projective_plane_incidence, random_tree)
from oracles import capped_seed, potential_triu, reference_complete, reference_rows


_small_gnp = st.builds(
    gen_gnp, st.integers(0, 14), st.sampled_from((0.15, 0.3, 0.6)), st.integers(0, 2 ** 32)
)
completion_graphs = st.one_of(
    _small_gnp,
    st.builds(random_tree, st.integers(1, 16), st.integers(0, 2 ** 32)),
    st.builds(disjoint_union, _small_gnp, _small_gnp),
)


class TestSeeds:
    def test_seed_cap_zero(self):
        h = seed_degree_capped(gen_named("complete", 4), 0)
        assert h.host.n == 4 and h.edge_count == 0

    def test_seed_cap_zero_trivial_graph(self):
        assert seed_degree_capped(Graph.from_edges(0, []), 0).edge_count == 0

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
        # each input has nodes of degree 0 or 1: G(25, 0.08), and a core whose
        # nodes each hold cap = 2 pendant leaves
        for g in (gen_gnp(25, 0.08, seed), leafed_core(8, 0.5, seed)):
            cap = default_cap(g.n)
            h = seed_degree_capped(g, cap)
            edges = h.edges()
            low = [v for v in range(g.n) if h.deg[v] < cap]
            assert any(g.indptr[v] < g.indptr[v + 1] for v in low)  # a node with edges is checked
            for v in low:
                row = g.indices[g.indptr[v]:g.indptr[v + 1]].tolist()
                assert all((min(v, w), max(v, w)) in edges for w in row)

    @given(completion_graphs)
    @settings(max_examples=80, deadline=None)
    def test_matches_capped_seed_oracle(self, g):
        max_degree = int(np.diff(g.indptr).max(initial=0))
        for cap in range(max_degree + 2):
            h = seed_degree_capped(g, cap)
            expected = capped_seed(g, cap)
            assert h.edges() == expected
            assert h.deg.tolist() == [sum(v in e for e in expected) for v in range(g.n)]
            assert h.edge_count == len(expected)

    # the seed's array form against the naive union at the edges of its input
    @pytest.mark.parametrize("g, cap", [
        (Graph.from_edges(0, []), 3),
        (Graph.from_edges(9, [(1, 4), (4, 7), (1, 7), (7, 8)]), 1),  # 0, 2, 3, 5, 6 isolated
        (gen_gnp(30, 0.3, 4), 30),  # above every degree: H = G
        (gen_gnp(30, 0.3, 4), 2 ** 70),  # beyond int64
        (gen_gnp(30, 0.3, 4), np.int64(2)),
        (gen_gnp(30, 0.3, 4), np.uint8(3)),
    ], ids=["n-0", "isolated-nodes", "cap-above-degrees", "cap-2-70", "int64-cap", "uint8-cap"])
    def test_edge_cases_match_capped_seed_oracle(self, g, cap):
        h = seed_degree_capped(g, cap)
        expected = capped_seed(g, int(cap))
        assert h.edges() == expected
        assert h.deg.dtype == np.int64
        assert h.deg.tolist() == [sum(v in e for e in expected) for v in range(g.n)]
        if cap >= g.n:
            assert h.edges() == set(g.sorted_edges())

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

    # beyond the float range, where n ** (1/3) overflows or is far from exact
    @given(st.integers(0, 10 ** 9))
    @example(10 ** 400)
    @example(2 ** 3000 - 1)
    @example(10 ** 150)
    @example(10 ** 150 - 1)
    def test_exact_integer_cube_root(self, n):
        c = default_cap(n)
        assert c ** 3 <= n < (c + 1) ** 3


class TestSubgraphState:
    def test_rejects_non_host_edge(self):
        h = seed_degree_capped(gen_named("path", 4), 0)
        with pytest.raises(ValueError):
            h.add_edge(0, 2)

    def test_add_edge_idempotent(self):
        h = seed_degree_capped(gen_named("path", 4), 0)
        h.add_edge(0, 1)
        h.add_edge(1, 0)
        assert h.deg[0] == 1 and h.deg[1] == 1

    def test_path_and_slot_reads_copy_no_graph(self):
        # shortest_path and add_edge read the host's CSR arrays in place: no per-row
        # tuples of Python ints (4 MiB here), and nothing cached on the graph
        g = gen_gnp(1024, 0.1, 1)
        dist = apsp(g).dist[0]
        h = SubgraphState(g)
        tracemalloc.start()
        try:
            path = shortest_path(g, 0, g.n - 1, dist)
            h.add_edge(*path.nodes[:2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10
        small = gen_gnp(128, 0.1, 1)
        h, trace = build_spanner(small, 2)
        assert trace.steps
        assert vars(small).keys() == {"n", "indptr", "indices"}

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

    @pytest.mark.parametrize("source", [True, 1.0])
    def test_bfs_row_source_is_a_count(self, source):
        # numpy would read True as a bool index, the whole matrix as a 1 x n x n
        # array, and 1.0 raise IndexError; a numpy integer is a node id
        h = SubgraphState(gen_named("path", 4), [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(TypeError):
            h.bfs_row(source)
        assert h.bfs_row(np.int64(1)).tolist() == [1, 0, 1, 2]

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
            h.add_edge(u, v)
            if e not in edges:
                edges.add(e)
                deg[u] += 1
                deg[v] += 1
        assert h.edges() == edges
        assert h.deg.tolist() == deg
        assert h.edge_count == len(edges)
        assert h.to_graph() == Graph.from_edges(g.n, h.edges())
        c = SubgraphState(g, h.edges())
        assert c.edges() == edges and c.deg.tolist() == deg
        missing = sorted(set(host) - edges)
        if missing:
            c.add_edge(*missing[0])
            assert c.edge_count == len(edges) + 1
            assert h.edges() == edges and h.deg.tolist() == deg


class TestComplete:
    def test_k4_k2_trace(self):
        g = gen_named("complete", 4)
        h, trace = complete(g, seed_degree_capped(g, 0), 2)
        assert h.edges() == frozenset({(0, 1), (0, 2), (0, 3)})
        assert len(trace.steps) == 3
        assert all(s.new_edges == 1 for s in trace.steps)
        assert [s.pair for s in trace.steps] == [(0, 1), (0, 2), (0, 3)]

    @pytest.mark.parametrize("record", [True, False])
    def test_trace_stores_each_fact_once(self, record):
        # a step holds no potential or cost and no v: the trace holds each series
        # once, the seed's value first, and v ends the step's walked path
        assert [f.name for f in dataclasses.fields(engine.CompletionStep)] == [
            "u", "d_g", "d_h_before", "path", "new_edges"]
        assert [f.name for f in dataclasses.fields(engine.CompletionTrace)] == [
            "k", "seed_edge_count", "steps", "potentials", "costs"]
        g = gen_named("cycle", 9)
        _, trace = build_spanner(g, 2, record_potentials=record)
        assert [s.pair for s in trace.steps] == [(s.u, s.path.nodes[-1]) for s in trace.steps] \
            == [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (2, 5)]
        if record:
            assert len(trace.potentials) == len(trace.costs) == len(trace.steps) + 1
        else:
            assert trace.potentials is None and trace.costs is None
        assert trace.potentials_recorded is record
        with pytest.raises(AttributeError):
            trace.potentials_recorded = not record

    @pytest.mark.parametrize("k", [0, 2, 6])
    @pytest.mark.parametrize("seed", range(4))
    def test_tree_completes_to_itself(self, k, seed):
        t = random_tree(12, seed)
        h, _ = complete(t, seed_degree_capped(t, 0), k)
        assert h.edges() == set(t.sorted_edges())

    def test_c5_k2_needs_all_edges(self):
        g = gen_named("cycle", 5)
        h, _ = build_spanner(g, 2)
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
        h, trace = build_spanner(g, 2)
        assert h.edges() == set(g.sorted_edges())
        assert verify_spanner(g, h.to_graph(), 2) == []

    def test_rejects_foreign_state(self):
        g1, g2 = gen_named("path", 3), gen_named("path", 4)
        with pytest.raises(ValueError):
            complete(g1, seed_degree_capped(g2, 0), 2)

    def test_rejects_negative_k(self):
        g = gen_named("path", 3)
        with pytest.raises(ValueError):
            complete(g, seed_degree_capped(g, 0), -1)

    def test_rejects_k_above_ceiling(self):
        g = gen_named("path", 3)
        with pytest.raises(ValueError, match="at most"):
            complete(g, seed_degree_capped(g, 0), MAX_K + 1)

    def test_rejects_non_integer_k(self):
        g = gen_named("path", 5)
        for k in (1.5, float("nan"), "2"):
            # rejected up front, not by whichever numpy call first meets k
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                complete(g, seed_degree_capped(g, 0), k, record_potentials=True)
        h, trace = complete(g, seed_degree_capped(g, 0), np.int64(2), record_potentials=True)
        assert h.edge_count == 4 and len(trace.steps) == 4

    @pytest.mark.parametrize("k", [np.uint8(7), np.int16(7), np.uint8(2)])
    def test_narrow_numpy_k_records_the_same_potentials(self, k):
        # slack k - 1 times n (here 200) would wrap in the width of a numpy k
        g = gen_gnp(200, 0.05, 1)
        _, trace = build_spanner(g, k, record_potentials=True)
        assert trace == build_spanner(g, int(k), record_potentials=True)[1]

    @pytest.mark.parametrize("seed", range(6))
    def test_idempotent_and_single_pass_sound(self, seed):
        g = gen_gnp(18, 0.3, seed)
        h, _ = build_spanner(g, 2)
        again, trace = complete(g, SubgraphState(g, h.edges()), 2)
        assert not trace.steps
        assert again.edges() == h.edges()
        assert verify_spanner(g, h.to_graph(), 2) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_spanner_contract(self, seed):
        g = gen_gnp(22, 0.25, seed)
        for k in (2, 6):
            h, trace = build_spanner(g, k)
            assert verify_spanner(g, h.to_graph(), k) == []
            assert h.edges() <= set(g.sorted_edges())
            assert h.edge_count == trace.seed_edge_count + sum(
                s.new_edges for s in trace.steps
            )

    def test_step_invariants(self):
        g = gen_gnp(20, 0.3, 11)
        _, trace = build_spanner(g, 2)
        for s in trace.steps:
            assert s.new_edges >= 1
            assert s.d_h_before == UNREACHABLE or s.d_h_before > s.d_g + trace.k
            assert 1 <= s.path.length <= s.d_g

    def test_deterministic(self):
        g = gen_gnp(25, 0.4, 3)
        h1, t1 = build_spanner(g, 2)
        h2, t2 = build_spanner(g, 2)
        assert h1.edges() == h2.edges()
        assert [s.pair for s in t1.steps] == [s.pair for s in t2.steps]
        assert [s.path for s in t1.steps] == [s.path for s in t2.steps]

    def test_monotone_distances_small(self):
        g = gen_gnp(10, 0.3, 5)
        h, trace = build_spanner(g, 2)
        state = seed_degree_capped(g, 0)
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
        seed = seed_degree_capped(g, default_cap(g.n) if capped else 0)
        ref_edges, ref_trace = reference_complete(g, seed.edges(), k)
        h, trace = complete(g, seed, k, record_potentials=True)
        assert h.edges() == ref_edges
        assert reference_rows(trace) == ref_trace
        if capped == (k == 6):  # the pipeline's own seed: capped for k = 6 only
            built, built_trace = build_spanner(g, k, record_potentials=True)
            assert built.edges() == ref_edges
            assert built_trace == trace

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_at_k_ceiling(self, seed):
        # slack k - 1 is largest here; potentials must not wrap in int64
        g = disjoint_union(gen_gnp(7, 0.4, seed), gen_named("path", 5))
        ref_edges, (ref_steps, ref_potentials, _) = reference_complete(g, frozenset(), MAX_K)
        h, trace = complete(g, seed_degree_capped(g, 0), MAX_K, record_potentials=True)
        assert h.edges() == ref_edges
        assert [s.pair for s in trace.steps] == [r[0] for r in ref_steps]
        assert trace.potentials == ref_potentials

    @pytest.mark.parametrize("core", [12, 16])
    def test_matches_reference_on_leafed_cores(self, core):
        # the capped seed keeps only the leaf edges, so the core's paths are all steps
        g = leafed_core(core, 0.3, 0)
        seed = seed_degree_capped(g, default_cap(g.n))
        assert seed.edge_count == g.n - core
        ref_edges, ref_trace = reference_complete(g, seed.edges(), 6)
        h, trace = complete(g, seed, 6, record_potentials=True)
        assert trace.steps and h.edges() == ref_edges
        assert reference_rows(trace) == ref_trace

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    @pytest.mark.parametrize("s", [4, 5, 6, 7])
    def test_matches_reference_on_clique_chains(self, t, s):
        # the capped seed drops every bridge, so each one costs a k=6 step
        g = clique_chain(t, s)
        assert s > default_cap(g.n) + 1
        seed = seed_degree_capped(g, default_cap(g.n))
        ref_edges, ref_trace = reference_complete(g, seed.edges(), 6)
        h, trace = complete(g, seed, 6, record_potentials=True)
        assert len(trace.steps) == t - 1
        assert h.edges() == ref_edges
        assert reference_rows(trace) == ref_trace

    def test_stale_distances_raise_instead_of_looping(self, monkeypatch):
        monkeypatch.setattr(engine, "insert_edge", lambda dist, a, b: None)
        g = gen_named("cycle", 5)
        with pytest.raises(RuntimeError, match="stale"):
            complete(g, seed_degree_capped(g, 0), 2)

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
            complete(g, seed_degree_capped(g, 0), 2)


_TREE_GRAPHS = {
    **{f"mutant-corpus-{i}": g for i, g in enumerate(MUTANT_CORPUS)},
    "path-160": gen_named("path", 160),
    "cycle-200": gen_named("cycle", 200),
    "grid-18": gen_named("grid", 18),
}


class TestRowTree:
    """Each row of the scan walks and records only the hops of a path that
    its tree of walked nodes does not hold."""

    @pytest.mark.parametrize("name, k", [
        *itertools.product(_TREE_GRAPHS, (2, 6)),
        # G(60, 0.3) alone makes no k=6 step; with private leaves its capped seed
        # holds the leaf edges, which begin the paths of a leaf's row
        ("leafed-core-60", 6),
    ])
    def test_steps_keep_paths_and_new_edge_counts(self, name, k):
        g = _TREE_GRAPHS.get(name) or leafed_core(60, 0.3, 0)
        seed = seed_degree_capped(g, default_cap(g.n) if k == 6 else 0)
        edges = set(seed.edges())
        h, trace = build_spanner(g, k)
        dg = apsp(g).dist
        walked = {}  # row u -> u and the nodes its steps walked
        for step in trace.steps:
            u, v = step.pair
            path, tail = shortest_path(g, u, v, dg[u]), step.path.nodes
            assert step.d_g == path.length and path.nodes[-len(tail):] == tail
            # the walk stops at the first node the row holds, u or one walked before
            row = walked.setdefault(u, {u})
            assert tail[0] in row and row.isdisjoint(tail[1:])
            row.update(tail)
            hops = {canonical_edge(a, b) for a, b in path.hops()}
            assert step.new_edges == len(hops - edges)
            edges |= hops
        assert edges == h.edges()
        if name == "leafed-core-60":
            # a row's first step walks its whole path, which in a leaf's row
            # starts with the leaf's seeded edge
            firsts = {s.pair[0]: s for s in reversed(trace.steps)}.values()
            assert any(canonical_edge(*s.path.nodes[:2]) in seed.edges() for s in firsts)

    def test_rows_walk_at_most_n_minus_1_hops(self):
        for name, g in _TREE_GRAPHS.items():
            _, trace = build_spanner(g, 2)
            walked = collections.Counter()
            for s in trace.steps:
                walked[s.pair[0]] += s.path.length
            assert max(walked.values(), default=0) <= g.n - 1, name
            if name == "path-160":
                # one row, 159 steps: the full paths have 1 + 2 + ... + 159 hops
                assert sum(s.d_g for s in trace.steps) == 12_720
                assert walked == {0: 159}

    def test_trace_holds_no_full_paths(self):
        # path-1500's 1499 steps have 1,124,250 full-path hops and walk 1499:
        # a trace that kept its full paths held about 6.2 KiB per step, this one 0.25
        g = gen_named("path", 1500)
        tracemalloc.start()
        try:
            trace = build_spanner(g, 2)[1]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(trace.steps) == 1499
        assert held <= 1024 * len(trace.steps)

    def test_steps_and_paths_have_no_instance_dict(self):
        # slotted: an instance dict each added about 80 B to a step of about 230
        _, trace = build_spanner(gen_named("path", 5), 2)
        assert trace.steps
        for step in trace.steps:
            assert not hasattr(step, "__dict__") and not hasattr(step.path, "__dict__")


_HANDED_BACK_GRAPHS = {
    "gnp-60": gen_gnp(60, 0.08, 3),
    "path-15": gen_named("path", 15),
    "clique-chain-4x5": clique_chain(4, 5),
}


class TestRowBlocks:
    """Above _BLOCK_ROWS nodes the scan and the self-check sweep the pairs in
    several row blocks; forced here with blocks of 7 rows, on graphs whose n is
    no multiple of 7, and on one of 6 nodes, which is one block."""

    @pytest.mark.parametrize("k", [0, 2, 6])
    def test_builds_match_one_block(self, monkeypatch, k):
        graphs = [*MUTANT_CORPUS, leafed_core(20, 0.3, 0)]
        builds = [build_spanner(g, k, record_potentials=True) for g in graphs]
        assert sum(len(trace.steps) for _, trace in builds) >= 15
        monkeypatch.setattr(graph, "_BLOCK_ROWS", 7)
        for g, (h, trace) in zip(graphs, builds):
            h7, trace7 = build_spanner(g, k, record_potentials=True)
            assert h7.edges() == h.edges() and trace7 == trace


def spied_build(monkeypatch, g: Graph, k: int) -> tuple[SubgraphState, np.ndarray, np.ndarray]:
    """``build_spanner(g, k)`` with spies on ``engine.apsp`` and the certificate
    ``engine._is_hop_distance``: H, the d_G that apsp returned and the repaired
    d_H that the certificate received."""
    seen = []
    real_apsp, real_certificate = engine.apsp, engine._is_hop_distance

    def apsp_spy(graph):
        d = real_apsp(graph)
        seen.append(d.dist)
        return d

    def certificate_spy(h, d):
        seen.append(d)
        return real_certificate(h, d)

    monkeypatch.setattr(engine, "apsp", apsp_spy)
    monkeypatch.setattr(engine, "_is_hop_distance", certificate_spy)
    h, _ = build_spanner(g, k)
    dg, _, dh = seen  # apsp of G, apsp of the seed, then the certificate's
    return h, dg, dh


class TestHandedBackDistances:
    """``complete`` checks its H with its own d_G and repaired d_H, which it
    hands to the certificate, and keeps neither."""

    @pytest.mark.parametrize("name", _HANDED_BACK_GRAPHS)
    @pytest.mark.parametrize("k", [0, 2, 6, MAX_K])
    def test_equal_fresh_apsps(self, monkeypatch, name, k):
        g = _HANDED_BACK_GRAPHS[name]
        h, dg, dh = spied_build(monkeypatch, g, k)
        assert np.array_equal(dg, apsp(g).dist)
        assert np.array_equal(dh, apsp(h.to_graph()).dist)

    @pytest.mark.parametrize("name", _HANDED_BACK_GRAPHS)
    def test_are_c_contiguous_int16(self, monkeypatch, name):
        # the layout insert_edge repairs and the pair rule reads as uint16
        _, dg, dh = spied_build(monkeypatch, _HANDED_BACK_GRAPHS[name], 2)
        for d in (dg, dh):
            assert d.dtype == np.int16 and d.flags.c_contiguous

    def test_dg_is_read_only(self, monkeypatch):
        _, dg, dh = spied_build(monkeypatch, gen_named("path", 15), 2)
        assert not dg.flags.writeable and dh.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            dg[0, 1] = 1

    @pytest.mark.parametrize("name", _HANDED_BACK_GRAPHS)
    def test_self_check_passes_and_takes_them(self, name):
        h, _ = build_spanner(_HANDED_BACK_GRAPHS[name], 2)  # a failed check raises
        assert vars(h).keys() == {"host", "deg", "_in_h"}

    def test_library_build_keeps_no_distances(self, monkeypatch):
        # d_G is freed before the certificate runs, and the caller that keeps H
        # keeps no n x n matrix with it (4 MiB for the two here)
        dg_refs, dg_alive = [], []
        real_apsp, real_certificate = engine.apsp, engine._is_hop_distance

        def apsp_spy(graph):
            d = real_apsp(graph)
            owner = d.dist  # the array that holds the cells, which a row view keeps alive
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
            dg_refs.append(weakref.ref(owner))
            return d

        def certificate_spy(h, d):
            dg_alive.append(dg_refs[0]() is not None)
            return real_certificate(h, d)

        monkeypatch.setattr(engine, "apsp", apsp_spy)
        monkeypatch.setattr(engine, "_is_hop_distance", certificate_spy)
        h, trace = build_spanner(gen_gnp(1024, 0.02, 1), 2)
        assert trace.steps and dg_alive == [False]
        assert vars(h).keys() == {"host", "deg", "_in_h"}

    @staticmethod
    def star_build_peak(n: int) -> int:
        """The peak of a k=2 build of the n-node star, whose n - 1 inserts each
        attach an isolated node, so that its matrices outweigh the rest of the build."""
        build_spanner(gen_named("star", 64), 2)  # numpy's one-time set-up stays out
        g = gen_named("star", n)
        tracemalloc.start()
        try:
            _, trace = build_spanner(g, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace.steps) == n - 1
        return peak

    def test_build_peak_per_cell(self):
        # two blocks of 1024 rows, each written over the one before: 6.13 B measured,
        # set by a pair sweep's block beside d_G and d_H, where a sweep's block made
        # beside the previous one held 7.14; the certificate runs beside d_H alone
        n = 2048
        assert self.star_build_peak(n) <= 6.2 * n * n

    def test_build_peak_per_cell_in_small_blocks(self, monkeypatch):
        # blocks of 128 rows make the sweeps' 3 B per cell of a block a sixteenth
        # of that: 4.36 B measured, where n x n limits and masks held 7.13
        monkeypatch.setattr(graph, "_BLOCK_ROWS", 128)
        n = 2048
        assert self.star_build_peak(n) <= 6 * n * n


_RUNNING_POTENTIAL_GRAPHS = {
    "gnp-200": gen_gnp(200, 0.05, 1),
    "gnp-60-and-path-15": disjoint_union(gen_gnp(60, 0.08, 2), gen_named("path", 15)),
    "clique-chain-5x6": clique_chain(5, 6),
}


class TestRunningPotential:
    # every k on the small hosts; G(200, 0.05) at k = 0 and 1 takes about a
    # thousand steps, each with a fresh APSP, so it runs the other three
    @pytest.mark.parametrize("name, k", [
        *(("gnp-200", k) for k in (2, 6, MAX_K)),
        *((name, k) for name in ("gnp-60-and-path-15", "clique-chain-5x6")
          for k in (0, 1, 2, 6, MAX_K)),
    ])
    def test_equals_full_recompute(self, name, k):
        g = _RUNNING_POTENTIAL_GRAPHS[name]
        # each potential snapshot, a running sum over the repaired cells, must equal the
        # int64 pairwise sum over a fresh APSP of that step's H, and each cost must equal
        # the one counted off H's replayed edge set: neither shares code with the engine
        slack = {2: 3, 6: 5}.get(k, max(k - 1, 0))
        edges = capped_seed(g, default_cap(g.n) if k == 6 else 0)  # the pipeline's seed
        _, trace = build_spanner(g, k, record_potentials=True)
        assert trace.steps or k == 6  # the capped seed is already a 6-spanner of these G(n, p)
        dg = apsp(g).dist

        def snapshot() -> tuple[int, int]:
            h = Graph.from_edges(g.n, sorted(edges))
            deg = np.diff(h.indptr)
            cost = int((deg ** 2).sum()) if k == 2 else h.edge_count
            return potential_triu(dg, apsp(h).dist, slack), cost

        snapshots = [snapshot()]
        for s in trace.steps:
            edges.update((min(a, b), max(a, b)) for a, b in s.path.hops())
            snapshots.append(snapshot())
        assert (trace.potentials, trace.costs) == tuple(map(list, zip(*snapshots)))

    @pytest.mark.parametrize("slack", [3, 5, MAX_K - 1])
    def test_change_over_unreachable_old_cells(self, slack):
        # H is two paths of the 6-cycle; the edge joining them makes the cells
        # between them finite, some with d_H - d_G above slack, and a slack
        # above MAX_NODES exceeds the uint16 cap that the change sums with
        g = gen_named("cycle", 6)
        dg = apsp(g).dist
        dh = apsp(Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])).dist
        before = potential_from_matrices(dg, dh, slack)
        cells = insert_edge(dh, 2, 3)
        assert (cells[2] == UNREACHABLE).all() and cells[2].size == 9
        change = engine.potential_change(dg, cells, slack)
        assert before + change == potential_from_matrices(dg, dh, slack) == \
            potential_triu(dg, dh, slack)

    def test_full_sum_peak_memory(self):
        # the pair limit, the gain and one uint16 temporary: 6 bytes per cell, where
        # the int64 difference with its UNREACHABLE mask took 10
        n = 1024
        g = gen_gnp(n, 4 / n, 1)  # a third of H's pairs are UNREACHABLE
        dg, dh = apsp(g).dist, apsp(Graph.from_edges(n, g.sorted_edges()[::2])).dist
        for slack in (3, MAX_K - 1):  # the second also counts the finite cells
            potential_from_matrices(dg, dh, slack)  # numpy's one-time set-up stays out
            tracemalloc.start()
            try:
                potential_from_matrices(dg, dh, slack)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 6 * n * n + (64 << 10), slack  # and one reduction buffer at most

    def test_one_full_potential_sum_per_build(self, monkeypatch):
        # every later snapshot comes from the repaired cells, not an n x n sum
        calls = []

        def counted(dg, dh, slack):
            calls.append(dg.shape)
            return potential_from_matrices(dg, dh, slack)

        monkeypatch.setattr(engine, "potential_from_matrices", counted)
        gnp = gen_gnp(80, 0.08, 4)
        for g, k in ((gnp, 2), (gnp, 1), (clique_chain(4, 6), 6)):
            calls.clear()
            _, trace = build_spanner(g, k, record_potentials=True)
            assert len(trace.steps) > 1 and calls == [(g.n, g.n)]
        calls.clear()
        build_spanner(gnp, 2)
        assert calls == []


class TestBuilders:
    def test_build_2_k4(self):
        h, _ = build_spanner(gen_named("complete", 4), 2)
        assert h.edge_count == 3

    def test_build_2_p5_is_tree(self):
        h, _ = build_spanner(gen_named("path", 5), 2)
        assert h.edge_count == 4

    def test_build_2_k5_verifies(self):
        g = gen_named("complete", 5)
        h, _ = build_spanner(g, 2)
        assert verify_spanner(g, h.to_graph(), 2) == []

    def test_build_6_p5(self):
        g = gen_named("path", 5)
        h, _ = build_spanner(g, 6)
        assert h.edge_count == 4

    def test_build_6_k8(self):
        g = gen_named("complete", 8)
        h, _ = build_spanner(g, 6)
        assert verify_spanner(g, h.to_graph(), 6) == []

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_projective_plane_keeps_every_edge(self, q, k):
        # girth 6: without its edge, a point and a line are 5 apart, more than 1 + k
        g = projective_plane_incidence(q)
        points = q * q + q + 1
        assert (g.n, g.edge_count) == (2 * points, (q + 1) * points)
        h, _ = build_spanner(g, k)
        assert h.edges() == set(g.sorted_edges())

    def test_build_6_seed_bound(self):
        for seed in range(5):
            g = gen_gnp(30, 0.5, seed)
            _, trace = build_spanner(g, 6)
            assert trace.seed_edge_count <= g.n * default_cap(g.n)
