"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  The shared corpus (200 seeded G(n, p) graphs, named families and
three clique chains) is built once per session in conftest.
"""
import math

import pytest

from addspan import (
    SubgraphState,
    apsp,
    build_2_spanner,
    build_6_spanner,
    check_2spanner_step_law,
    check_cauchy_bound,
    complete,
    default_cap,
    gen_gnp,
    gen_named,
    run_sweep,
    fit_exponent,
    seed_degree_capped,
    seed_empty,
    verify_spanner,
)
from addspan.cli import main as cli_main

from conftest import random_tree
from oracles import floyd_warshall, dist_matrix_to_float


def report(num, name, ok):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_spanner_correctness(built_corpus):
    failures = []
    for case in built_corpus:
        if verify_spanner(case.graph, case.h2.to_graph(), 2):
            failures.append((case.label, 2))
        if verify_spanner(case.graph, case.h6.to_graph(), 6):
            failures.append((case.label, 6))
    report(1, "spanner correctness (k=2 and k=6, zero violations)", not failures)


def test_criterion_2_step_law(built_corpus):
    worst = 0
    for case in built_corpus:
        deltas = check_2spanner_step_law(case.trace2)
        if deltas:
            worst = max(worst, max(deltas))
    report(2, "2-spanner step law: cost - 12*potential never increases", worst <= 0)


def test_criterion_3_cauchy_bound(built_corpus):
    states = []
    for case in built_corpus:
        states.extend([case.h2, case.h6, seed_empty(case.graph),
                       seed_degree_capped(case.graph, default_cap(case.graph.n))])
    report(3, "Cauchy-Schwarz degree bound on every subgraph state",
           all(check_cauchy_bound(h) for h in states))


def test_criterion_4_seed_size_bound(built_corpus):
    ok = all(case.trace6.seed_edge_count <= case.graph.n * default_cap(case.graph.n)
             for case in built_corpus)
    report(4, "6-spanner seed has at most n * floor(n^(1/3)) edges", ok)


def test_criterion_5_empirical_size_scaling():
    # G(n, 0.5) gives a 2-spanner of about 1.5 n edges; p = 2 / sqrt(n) keeps
    # it near n^{3/2}, where the k=2 bound bites.  p differs per n, so the
    # sparse points take one sweep per n.
    ok = True
    for k, bound in ((2, 1.60), (6, 1.45)):
        dense = run_sweep("gnp", [64, 128, 256, 512, 1024], [0.5], seeds=3, k=k)
        sparse = [r for n in (64, 128, 256, 512)
                  for r in run_sweep("gnp", [n], [2 / math.sqrt(n)], seeds=2, k=k)]
        for label, records in (("p=0.5", dense), ("p=2/sqrt(n)", sparse)):
            fit = fit_exponent([(r.n, r.final_edges) for r in records])
            ok = ok and fit.slope <= bound
            print(f"\n  k={k} {label}: fitted exponent {fit.slope:.4f} (required <= {bound}), "
                  f"r2={fit.r2:.4f}, max ratio_32={max(r.ratio_32 for r in records):.4f}, "
                  f"max ratio_43={max(r.ratio_43 for r in records):.4f}")
    report(5, "size-scaling exponents on G(n, 0.5) and G(n, 2/sqrt(n)) "
              "(k=2 <= 1.60, k=6 <= 1.45)", ok)


def test_criterion_6_monotonicity_and_idempotence(built_corpus):
    ok = True
    checked = 0
    for case in built_corpus:
        g = case.graph
        if g.n > 12:
            continue
        checked += 1
        for k, h_final, trace, seeder in (
            (2, case.h2, case.trace2, lambda: seed_empty(g)),
            (6, case.h6, case.trace6,
             lambda: seed_degree_capped(g, default_cap(g.n))),
        ):
            state = seeder()
            prev = apsp(state.to_graph()).dist
            for s in trace.steps:
                for a, b in s.path.hops():
                    state.add_edge(a, b)
                cur = apsp(state.to_graph()).dist
                for i in range(g.n):
                    for j in range(g.n):
                        p = math.inf if prev[i, j] < 0 else prev[i, j]
                        c = math.inf if cur[i, j] < 0 else cur[i, j]
                        ok = ok and c <= p
                ok = ok and check_cauchy_bound(state)
                prev = cur
            ok = ok and state.edges() == h_final.edges()
            _, rerun = complete(g, SubgraphState(g, h_final.edges()), k)
            ok = ok and not rerun.steps
    report(6, f"per-step distance monotonicity + idempotence ({checked} graphs, n <= 12)",
           ok and checked > 0)


def test_criterion_7_oracle_equivalence():
    ok = True
    for i in range(500):
        n = 2 + i % 11
        g = gen_gnp(n, (0.15, 0.35, 0.55, 0.8)[i % 4], 10_000 + i)
        ok = ok and dist_matrix_to_float(apsp(g).dist) == floyd_warshall(g)
    report(7, "APSP matches Floyd-Warshall on 500 random graphs (n <= 12)", ok)


def test_criterion_8_determinism(tmp_path):
    graph_file = tmp_path / "g.txt"
    outputs = []
    for run in ("a", "b"):
        gen_out = tmp_path / f"gen-{run}.txt"
        assert cli_main(["gen", "--family", "gnp", "--n", "40", "--p", "0.3",
                         "--seed", "7", "--out", str(gen_out)]) == 0
        span_out = tmp_path / f"span-{run}.txt"
        trace_out = tmp_path / f"trace-{run}.csv"
        assert cli_main(["build", "--input", str(gen_out), "--k", "2",
                         "--out", str(span_out), "--trace-out", str(trace_out)]) == 0
        outputs.append((gen_out.read_bytes(), span_out.read_bytes(), trace_out.read_bytes()))
    report(8, "byte-identical graph, spanner and trace files across reruns",
           outputs[0] == outputs[1])


def test_criterion_9_hand_verified_fixtures():
    ok = True
    h, _ = build_2_spanner(gen_named("complete", 4))
    ok = ok and h.edge_count == 3
    h, _ = build_2_spanner(gen_named("cycle", 5))
    ok = ok and h.edge_count == 5
    for seed in range(5):
        t = random_tree(10, seed)
        h2, _ = build_2_spanner(t)
        h6, _ = build_6_spanner(t)
        ok = ok and h2.edges() == set(t.sorted_edges()) and h6.edges() == set(t.sorted_edges())
    for fam, n in (("path", 7), ("star", 9)):
        t = gen_named(fam, n)
        h2, _ = build_2_spanner(t)
        h6, _ = build_6_spanner(t)
        ok = ok and h2.edges() == set(t.sorted_edges()) and h6.edges() == set(t.sorted_edges())
    report(9, "hand-verified fixtures (K_4, C_5, trees)", ok)
