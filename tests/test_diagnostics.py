import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addspan import (
    UNREACHABLE,
    Graph,
    SubgraphState,
    TraceContractError,
    apsp,
    build_spanner,
    check_2spanner_step_law,
    check_cauchy_bound,
    cost_degsq,
    cost_edges,
    gen_gnp,
    gen_named,
    measure_6spanner_step_ratio,
    verify_spanner,
)
from addspan import graph
from addspan.engine import potential_from_matrices
from addspan.graph import MAX_K, MAX_NODES

from conftest import (MUTANT_CORPUS, clique_chain, gnp_corpus_params, leafed_core,
                      named_corpus_graphs, projective_plane_incidence)
from oracles import matrix_power_distances, potential_triu, potential_v, random_order_step_law


def _star4_state():
    g = gen_named("complete", 4)
    return g, SubgraphState(g, [(0, 1), (0, 2), (0, 3)])


class TestVerify:
    def test_k4_star_valid(self):
        g, h = _star4_state()
        assert verify_spanner(g, h.to_graph(), 2) == []

    def test_c5_minus_edge(self):
        g = gen_named("cycle", 5)
        h = SubgraphState(g, set(g.sorted_edges()) - {(0, 4)})
        violations = verify_spanner(g, h.to_graph(), 2)
        assert len(violations) == 1
        x = violations[0]
        assert (x.u, x.v, x.d_g, x.d_h, x.excess) == (0, 4, 1, 4, 3.0)

    def test_rows_hold_python_numbers(self):
        # a half spanner has finite and infinite excesses; no field is a numpy scalar
        g = gen_gnp(60, 0.1, 1)
        h = Graph.from_edges(g.n, g.sorted_edges()[::2])
        violations = verify_spanner(g, h, 0)
        assert {x.excess == math.inf for x in violations} == {False, True}
        for x in violations:
            assert [type(f) for f in x] == [int, int, int, int, float]

    def test_identity_subgraph(self):
        g = gen_gnp(15, 0.3, 1)
        assert verify_spanner(g, SubgraphState(g, g.sorted_edges()).to_graph(), 0) == []

    def test_disconnected_subgraph_reports_infinite_excess(self):
        g = gen_named("path", 3)
        h = SubgraphState(g, [(0, 1)])
        violations = verify_spanner(g, h.to_graph(), 2)
        assert violations
        assert all(v.d_h == UNREACHABLE and v.excess == math.inf for v in violations)

    def test_k_range(self):
        # beyond MAX_K, d_G + k could wrap in int64 and flag pairs of a valid spanner
        g = gen_named("path", 3)
        h = SubgraphState(g, g.sorted_edges())
        assert verify_spanner(g, h.to_graph(), MAX_K) == []
        for k in (-1, MAX_K + 1, 2 ** 63 - 1, 10 ** 20):
            with pytest.raises(ValueError):
                verify_spanner(g, h.to_graph(), k)

    def test_k_must_be_an_integer(self):
        # NaN compares false with every bound, so unchecked it reads as "no violations"
        g, h = gen_named("cycle", 8), gen_named("path", 8)
        assert len(verify_spanner(g, h, 0)) == 6
        assert verify_spanner(g, h, np.int64(6)) == []
        for k in (float("nan"), 2.0, "2"):
            with pytest.raises(TypeError):
                verify_spanner(g, h, k)

    # H has a non-edge of G at distance 2, an edge between two components
    # of G, or more nodes than G
    @pytest.mark.parametrize("g, h", [
        (gen_named("path", 3), gen_named("complete", 3)),
        (gen_named("path", 3), Graph.from_edges(3, [(0, 2)])),
        (Graph.from_edges(4, [(0, 1), (2, 3)]), Graph.from_edges(4, [(1, 2)])),
        (gen_named("path", 3), gen_named("path", 4)),
    ], ids=["triangle-on-path", "distance-2", "across-components", "more-nodes"])
    def test_not_subgraph_rejected(self, g, h):
        with pytest.raises(ValueError, match="^spanner is not a subgraph of the input graph$"):
            verify_spanner(g, h, 0)

    def test_fewer_nodes_are_isolated(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert verify_spanner(g, gen_named("path", 3), 0) == verify_spanner(
            g, Graph.from_edges(5, [(0, 1), (1, 2)]), 0
        ) != []
        assert verify_spanner(Graph.from_edges(5, [(0, 1)]), Graph.from_edges(2, [(0, 1)]), 0) == []

    def test_sorted_lexicographically(self):
        g = gen_named("star", 6)
        violations = verify_spanner(g, SubgraphState(g, []).to_graph(), 2)
        pairs = [(v.u, v.v) for v in violations]
        assert pairs == sorted(pairs)

    @pytest.mark.parametrize("seed", range(10))
    def test_against_matrix_power_oracle(self, seed):
        g = gen_gnp(10, 0.3, seed)
        h = SubgraphState(g, [e for i, e in enumerate(g.sorted_edges()) if i % 2 == 0])
        k = 2
        oracle_g = matrix_power_distances(g)
        oracle_h = matrix_power_distances(h.to_graph())
        expected = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if oracle_g[u][v] < math.inf and oracle_h[u][v] > oracle_g[u][v] + k
        ]
        assert [(x.u, x.v) for x in verify_spanner(g, h.to_graph(), k)] == expected


class TestVerifyInRowBlocks:
    """Above _BLOCK_ROWS nodes ``verify_spanner`` sweeps the pairs in several
    row blocks; forced here with small blocks."""

    def test_rows_match_one_block(self, monkeypatch):
        # blocks of 7 rows, on graphs whose n is no multiple of 7, and on one of 6
        # nodes, which is one block: spanners of no edges, every other edge and all
        cases = [(g, h, k) for g in MUTANT_CORPUS for k in (0, 1, 2)
                 for h in (Graph.from_edges(g.n, []),
                           Graph.from_edges(g.n, g.sorted_edges()[::2]), g)]
        expected = [verify_spanner(g, h, k) for g, h, k in cases]
        assert sum(map(len, expected)) > 0
        monkeypatch.setattr(graph, "_BLOCK_ROWS", 7)
        assert [verify_spanner(g, h, k) for g, h, k in cases] == expected

    @staticmethod
    def valid_spanner_peak(n: int) -> int:
        """The peak of verifying G(n, 0.01) as its own spanner: no violation."""
        g = gen_gnp(n, 0.01, 1)
        verify_spanner(gen_named("star", 64), gen_named("star", 64), 2)  # numpy's set-up
        tracemalloc.start()
        try:
            violations = verify_spanner(g, g, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert violations == []
        return peak

    def test_valid_spanner_peak_per_cell(self):
        # two blocks of 1024 rows, each written over the one before: 6.39 B measured,
        # set by apsp(H) beside d_G, where a block made beside the previous one held 7.01
        n = 2048
        assert self.valid_spanner_peak(n) <= 6.45 * n * n

    def test_valid_spanner_peak_per_cell_in_small_blocks(self, monkeypatch):
        # d_G and d_H hold 4 B per cell; in blocks of 128 rows the sweep's limits and
        # mask add little: 5.33 B measured, where its n x n limit, mask and triangle
        # held 7.00
        monkeypatch.setattr(graph, "_BLOCK_ROWS", 128)
        n = 2048
        assert self.valid_spanner_peak(n) <= 6 * n * n


class TestPotential:
    def test_full_k3(self):
        g = gen_named("complete", 3)
        assert potential_v(g, SubgraphState(g, g.sorted_edges()), 3) == 9

    def test_empty_subgraph(self):
        g = gen_named("complete", 3)
        assert potential_v(g, SubgraphState(g, []), 3) == 0

    def test_p3_single_edge(self):
        g = gen_named("path", 3)
        assert potential_v(g, SubgraphState(g, [(0, 1)]), 3) == 3

    def test_upper_bound(self):
        for seed in range(5):
            g = gen_gnp(12, 0.4, seed)
            h = SubgraphState(g, g.sorted_edges())
            assert 0 <= potential_v(g, h, 3) <= 3 * g.n * (g.n - 1) // 2

    def test_full_graph_counts_connected_pairs(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert potential_v(g, SubgraphState(g, g.sorted_edges()), 5) == 2 * 5

    @given(
        st.builds(gen_gnp, st.integers(0, 12), st.sampled_from((0.1, 0.3, 0.7)),
                  st.integers(0, 2 ** 32)),
        st.sampled_from((0, 1, 3, 5, 9, MAX_NODES - 1, MAX_NODES, MAX_NODES + 1, MAX_K - 1)),
        st.data(),
    )
    @settings(max_examples=80)
    def test_full_matrix_sum_matches_pairwise(self, g, slack, data):
        # sparse G and random subsets H cover pairs unreachable in one or both; a slack
        # above MAX_NODES reaches potential_change's rest above the pair rule's cap
        edges = g.sorted_edges()
        h = data.draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []
        dg, dh = apsp(g).dist, apsp(Graph.from_edges(g.n, h)).dist
        assert potential_from_matrices(dg, dh, slack) == potential_triu(dg, dh, slack)

    def test_negative_slack_rejected(self):
        g = gen_named("path", 3)
        with pytest.raises(ValueError):
            potential_v(g, SubgraphState(g, []), -1)


class TestCosts:
    def test_cost_edges(self):
        g = gen_named("cycle", 5)
        assert cost_edges(SubgraphState(g, g.sorted_edges())) == 5
        assert cost_edges(SubgraphState(g, [])) == 0

    def test_cost_degsq_star(self):
        _, h = _star4_state()
        assert cost_degsq(h) == 12

    def test_cost_degsq_cycle(self):
        g = gen_named("cycle", 5)
        assert cost_degsq(SubgraphState(g, g.sorted_edges())) == 20


class TestCauchyBound:
    def test_regular_graph_tight(self):
        g = gen_named("cycle", 5)
        h = SubgraphState(g, g.sorted_edges())
        assert g.n * cost_degsq(h) == 4 * cost_edges(h) ** 2
        assert check_cauchy_bound(h)

    def test_star(self):
        _, h = _star4_state()
        assert check_cauchy_bound(h)

    def test_empty(self):
        assert check_cauchy_bound(SubgraphState(gen_named("path", 3), []))

    @given(st.integers(0, 2 ** 32), st.integers(5, 14))
    @settings(max_examples=60)
    def test_always_holds(self, seed, n):
        g = gen_gnp(n, 0.5, seed)
        assert check_cauchy_bound(SubgraphState(g, g.sorted_edges()))


# every 4th G(n, p) graph of the acceptance corpus, its named graphs, one
# clique chain, and PG(2, 2) and PG(2, 3), whose every edge a 2-spanner keeps
_ANY_ORDER_GRAPHS = dict([
    *((f"gnp-n{n}-p{p}-s{s}", gen_gnp(n, p, s)) for n, p, s in gnp_corpus_params()[::4]),
    *named_corpus_graphs(),
    ("chain-4x6", clique_chain(4, 6)),
    *((f"pg-2-{q}", projective_plane_incidence(q)) for q in (2, 3)),
])


class TestStepLaw:
    @pytest.mark.parametrize("name", _ANY_ORDER_GRAPHS)
    def test_never_increases_for_any_pair_and_path(self, name):
        # the law is the paper's, not a by-product of the engine's pair order
        # and lowest-id predecessors: each step draws both from a seeded stream
        deltas = random_order_step_law(_ANY_ORDER_GRAPHS[name], random.Random(name))
        assert all(d <= 0 for d in deltas), max(deltas)

    def test_k4_first_step_delta(self):
        g = gen_named("complete", 4)
        _, trace = build_spanner(g, 2, record_potentials=True)
        deltas = check_2spanner_step_law(trace)
        assert deltas[0] == -34

    def test_empty_trace(self):
        g0 = Graph.from_edges(3, [])
        _, trace0 = build_spanner(g0, 2, record_potentials=True)
        assert check_2spanner_step_law(trace0) == []

    def test_wrong_trace_kind_rejected(self):
        g = gen_named("complete", 6)
        _, trace6 = build_spanner(g, 6, record_potentials=True)
        with pytest.raises(TraceContractError):
            check_2spanner_step_law(trace6)

    def test_unrecorded_trace_rejected(self):
        g = gen_named("complete", 4)
        _, trace = build_spanner(g, 2)
        with pytest.raises(TraceContractError):
            check_2spanner_step_law(trace)

    @pytest.mark.parametrize("seed", range(8))
    def test_never_increases_on_random_graphs(self, seed):
        g = gen_gnp(14, 0.3, seed)
        _, trace = build_spanner(g, 2, record_potentials=True)
        assert all(d <= 0 for d in check_2spanner_step_law(trace))


class TestStepRatio:
    def test_p5_seed_cap_completion(self):
        g = gen_named("path", 5)
        _, trace = build_spanner(g, 6, record_potentials=True)
        ratios = measure_6spanner_step_ratio(trace)
        assert len(ratios) == len(trace.steps)
        assert all(r >= 0 and math.isfinite(r) for r in ratios)

    def test_one_ratio_per_step(self):
        # a 3-clique chain takes 2 completion steps at k=6, one new edge each
        _, trace = build_spanner(clique_chain(3, 4), 6, record_potentials=True)
        v = trace.potentials
        assert measure_6spanner_step_ratio(trace) == [
            (after - before) / s.new_edges for s, before, after in zip(trace.steps, v, v[1:])
        ] == [72.0, 144.0]

    def test_leafed_cores_make_the_completion_work(self):
        # the capped seed keeps only the leaf edges, so each core's paths are
        # completion steps; the ratio is reported, not asserted, since the
        # analysis's constant is not known here
        lows = []
        for core in (12, 16, 20, 60):
            g = leafed_core(core, 0.3, 0)
            h, trace = build_spanner(g, 6, record_potentials=True)
            assert trace.seed_edge_count == g.n - core and trace.steps
            assert verify_spanner(g, h.to_graph(), 6) == []
            lows.append(min(measure_6spanner_step_ratio(trace)) / g.n ** (2 / 3))
        print(f"\nleafed cores, k=6: min step ratio / n^(2/3) = "
              f"{', '.join(f'{x:.2f}' for x in lows)} for N = 12, 16, 20, 60")

    def test_potential_gain_nonnegative(self):
        for seed in range(6):
            g = gen_gnp(16, 0.2, seed)
            _, trace = build_spanner(g, 6, record_potentials=True)
            for before, after in zip(trace.potentials, trace.potentials[1:]):
                assert after >= before

    def test_single_step_ratio_definition(self):
        g = gen_named("path", 2)
        _, trace = build_spanner(g, 2, record_potentials=True)
        assert len(trace.steps) == 1
        gain = trace.potentials[1] - trace.potentials[0]
        assert gain / trace.steps[0].new_edges == gain

    def test_wrong_trace_kind_rejected(self):
        g = gen_named("complete", 4)
        _, trace2 = build_spanner(g, 2, record_potentials=True)
        with pytest.raises(TraceContractError):
            measure_6spanner_step_ratio(trace2)

    def test_potential_monotone_along_trace(self):
        g = gen_gnp(14, 0.3, 2)
        _, trace = build_spanner(g, 2, record_potentials=True)
        for i in range(len(trace.steps)):
            assert trace.potentials[i + 1] >= trace.potentials[i]
            assert trace.costs[i + 1] >= trace.costs[i]
