import math

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
    build_2_spanner,
    build_6_spanner,
    check_2spanner_step_law,
    check_cauchy_bound,
    cost_degsq,
    cost_edges,
    gen_gnp,
    gen_named,
    measure_6spanner_step_ratio,
    verify_spanner,
)
from addspan.engine import potential_from_matrices
from addspan.graph import MAX_K

from conftest import clique_chain
from oracles import matrix_power_distances, potential_triu, potential_v


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
        st.sampled_from((0, 1, 3, 5, 9)),
        st.data(),
    )
    @settings(max_examples=80)
    def test_full_matrix_sum_matches_pairwise(self, g, slack, data):
        # sparse G and random subsets H cover pairs unreachable in one or both
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


class TestStepLaw:
    def test_k4_first_step_delta(self):
        g = gen_named("complete", 4)
        _, trace = build_2_spanner(g, record_potentials=True)
        deltas = check_2spanner_step_law(trace)
        assert deltas[0] == -34

    def test_empty_trace(self):
        g0 = Graph.from_edges(3, [])
        _, trace0 = build_2_spanner(g0, record_potentials=True)
        assert check_2spanner_step_law(trace0) == []

    def test_wrong_trace_kind_rejected(self):
        g = gen_named("complete", 6)
        _, trace6 = build_6_spanner(g, record_potentials=True)
        with pytest.raises(TraceContractError):
            check_2spanner_step_law(trace6)

    def test_unrecorded_trace_rejected(self):
        g = gen_named("complete", 4)
        _, trace = build_2_spanner(g)
        with pytest.raises(TraceContractError):
            check_2spanner_step_law(trace)

    @pytest.mark.parametrize("seed", range(8))
    def test_never_increases_on_random_graphs(self, seed):
        g = gen_gnp(14, 0.3, seed)
        _, trace = build_2_spanner(g, record_potentials=True)
        assert all(d <= 0 for d in check_2spanner_step_law(trace))


class TestStepRatio:
    def test_p5_seed_cap_completion(self):
        g = gen_named("path", 5)
        _, trace = build_6_spanner(g, record_potentials=True)
        ratios = measure_6spanner_step_ratio(trace)
        assert len(ratios) == len(trace.steps)
        assert all(r >= 0 and math.isfinite(r) for r in ratios)

    def test_one_ratio_per_step(self):
        # a 3-clique chain takes 2 completion steps at k=6, one new edge each
        _, trace = build_6_spanner(clique_chain(3, 4), record_potentials=True)
        assert measure_6spanner_step_ratio(trace) == [
            (s.v_after - s.v_before) / s.new_edges for s in trace.steps
        ] == [72.0, 144.0]

    def test_potential_gain_nonnegative(self):
        for seed in range(6):
            g = gen_gnp(16, 0.2, seed)
            _, trace = build_6_spanner(g, record_potentials=True)
            for s in trace.steps:
                assert s.v_after >= s.v_before

    def test_single_step_ratio_definition(self):
        g = gen_named("path", 2)
        _, trace = build_2_spanner(g, record_potentials=True)
        assert len(trace.steps) == 1
        s = trace.steps[0]
        assert (s.v_after - s.v_before) / s.new_edges == s.v_after - s.v_before

    def test_wrong_trace_kind_rejected(self):
        g = gen_named("complete", 4)
        _, trace2 = build_2_spanner(g, record_potentials=True)
        with pytest.raises(TraceContractError):
            measure_6spanner_step_ratio(trace2)

    def test_potential_monotone_along_trace(self):
        g = gen_gnp(14, 0.3, 2)
        _, trace = build_2_spanner(g, record_potentials=True)
        for s in trace.steps:
            assert s.v_after >= s.v_before
            assert s.c_after >= s.c_before
