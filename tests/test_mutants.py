"""Committed mutants: each is a buggy copy of one library function, made by
replacing one exact snippet of its source, and each names a deterministic
detector on a small corpus that must fail on the mutant and pass on the
unmutated code.

A mutant is compiled from ``inspect.getsource`` of the target in a copy of
its defining module's globals, then patched into every namespace of the
package bound to the original, the way the benchmark's tracer swaps names.
The snippet must occur exactly once, so a rewrite of a target has to update
this table rather than silently skip its mutant.  Mutants that can loop (such
as ``row[v] > dg_row[v]`` in ``complete``'s stale-d_H check) are left out, and
no detector runs a mutant where it could loop: ``exceeds`` with ``>=`` would
make ``complete`` loop at k = 0, so its detector is ``verify_spanner``.
"""
import __future__

import inspect
import math
import textwrap

import pytest

import addspan
from addspan import UNREACHABLE, cli, diagnostics, engine, gen_gnp, gen_named, graph, sweep

from conftest import clique_chain
from oracles import capped_seed, naive_neighbors, reference_complete

NAMESPACES = (graph, graph.Graph, engine, diagnostics, sweep, cli, addspan)

CORPUS = [
    *(gen_gnp(n, p, seed) for n, p, seed in ((6, 0.5, 1), (9, 0.3, 2), (11, 0.4, 3))),
    gen_named("cycle", 6),
    gen_named("grid", 3),
    clique_chain(3, 4),
]


def install(monkeypatch, owner, name: str, old: str, new: str) -> None:
    """Replace ``old`` by ``new`` in the source of ``owner.name`` and patch
    the result in wherever the package binds the original."""
    original = vars(owner)[name]
    function = getattr(original, "__func__", original)  # a classmethod's function
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"snippet of the {name} mutant is not in its source once"
    namespace = dict(function.__globals__)
    code = compile(source.replace(old, new), f"<mutant of {name}>", "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, namespace)
    for space in NAMESPACES:
        for attr, value in list(vars(space).items()):
            if value is original:
                monkeypatch.setattr(space, attr, namespace[name])


def insert_edge_matches_apsp() -> None:
    """Edge by edge from no edges, the repaired matrix equals a fresh APSP."""
    for g in CORPUS:
        edges = g.sorted_edges()
        dist = graph.apsp(graph.Graph.from_edges(g.n, [])).dist
        for i, (a, b) in enumerate(edges):
            graph.insert_edge(dist, *((b, a) if i % 2 else (a, b)))
            prefix = graph.Graph.from_edges(g.n, edges[:i + 1])
            assert dist.tolist() == graph.apsp(prefix).dist.tolist()


def from_edges_matches_naive_neighbors() -> None:
    """Repeated and reversed pairs collapse to the dict-of-sets adjacency."""
    for g in CORPUS:
        pairs = [*g.sorted_edges(), *((v, u) for u, v in g.sorted_edges()), *g.sorted_edges()[:3]]
        neighbors = naive_neighbors(g.n, pairs)
        adjacency = graph.Graph.from_edges(g.n, pairs).adjacency
        assert adjacency == tuple(tuple(sorted(neighbors[v])) for v in range(g.n))


def host_is_exact_0_spanner() -> None:
    """H = G has d_H = d_G on every pair, so it is a valid 0-spanner."""
    for g in CORPUS:
        assert diagnostics.verify_spanner(g, g, 0) == []


def verify_rejects_larger_spanner() -> None:
    """path-4 has a node that path-3 lacks: not a subgraph, and no IndexError."""
    try:
        diagnostics.verify_spanner(gen_named("path", 3), gen_named("path", 4), 2)
    except Exception as exc:  # any other exception is the defect itself
        assert type(exc) is ValueError, repr(exc)
        assert str(exc) == "spanner is not a subgraph of the input graph"
    else:
        raise AssertionError("a spanner on more nodes than its graph passed")


def seed_matches_capped_seed() -> None:
    """The degree-capped seed equals the naive union of each node's ``cap``
    lowest-id neighbors, for caps 0 to 3."""
    for g in CORPUS:
        for cap in range(4):
            assert engine.seed_degree_capped(g, cap).edges() == capped_seed(g, cap)


def complete_matches_reference() -> None:
    """Each build's edges and steps, potentials included, equal the naive
    reference completion's, for k = 2 from no edges and k = 6 from the
    capped seed."""
    for g in CORPUS:
        for k, cap in ((2, 0), (6, engine.default_cap(g.n))):
            seed = engine.seed_degree_capped(g, cap)
            ref_edges, ref_steps = reference_complete(g, seed.edges(), k)
            h, trace = engine.complete(g, seed, k, record_potentials=True)
            assert h.edges() == ref_edges
            assert [
                (s.pair, s.d_g, math.inf if s.d_h_before == UNREACHABLE else s.d_h_before,
                 s.path.nodes, s.new_edges, s.v_before, s.v_after, s.c_before, s.c_after)
                for s in trace.steps
            ] == ref_steps


# name -> (owner, function, snippet, replacement, detector)
MUTANTS = {
    "insert_edge-one-block": (
        graph, "insert_edge", "    dist[np.ix_(near_b, near_a)] = block.T\n", "",
        insert_edge_matches_apsp,
    ),
    "insert_edge-no-unreachable-clause": (
        graph, "insert_edge", "(block == UNREACHABLE) | (via < block)", "via < block",
        insert_edge_matches_apsp,
    ),
    "potential-frozen": (
        engine, "complete", "v_after, c_after = snapshot()",
        "v_after, c_after = v_cur, snapshot()[1]", complete_matches_reference,
    ),
    "exceeds-ge": (
        graph, "exceeds", "(dh > dg + k)", "(dh >= dg + k)", host_is_exact_0_spanner,
    ),
    "shortest_path-highest-predecessor": (
        graph, "shortest_path", "for x in g.adjacency[cur]:",
        "for x in reversed(g.adjacency[cur]):", complete_matches_reference,
    ),
    "from_edges-dedupe-mask": (
        graph.Graph, "from_edges", "np.diff(codes, prepend=-1) != 0",
        "np.diff(codes, prepend=-1) >= 0", from_edges_matches_naive_neighbors,
    ),
    "potential-no-unreachable-zeroing": (
        engine, "potential_from_matrices",
        "    vals[(dg == UNREACHABLE) | (dh == UNREACHABLE)] = 0\n", "",
        complete_matches_reference,
    ),
    "potential-no-diagonal-correction": (
        engine, "potential_from_matrices", " - dg.shape[0] * slack", "",
        complete_matches_reference,
    ),
    "seed_degree_capped-one-more": (
        engine, "seed_degree_capped", "g.adjacency[v][:cap]", "g.adjacency[v][:cap + 1]",
        seed_matches_capped_seed,
    ),
    "verify_spanner-no-size-guard": (
        diagnostics, "verify_spanner", "apsp(g).dist if h.n <= g.n else None", "apsp(g).dist",
        verify_rejects_larger_spanner,
    ),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_caught(monkeypatch, name):
    owner, function, old, new, detector = MUTANTS[name]
    detector()
    install(monkeypatch, owner, function, old, new)
    with pytest.raises(AssertionError):
        detector()
