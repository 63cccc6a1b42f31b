from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import pytest

from addspan import (
    CompletionTrace,
    Graph,
    SubgraphState,
    build_spanner,
    default_cap,
    gen_gnp,
    gen_named,
)
from addspan.graph import insert_edge

GNP_PS = (0.1, 0.3, 0.5, 0.9)


def gnp_corpus_params(count: int = 200) -> list[tuple[int, float, int]]:
    """Deterministic (n, p, seed) grid: n in [5, 60], p cycling over GNP_PS."""
    return [(5 + (i * 13) % 56, GNP_PS[i % 4], i) for i in range(count)]


def named_corpus_graphs(max_n: int = 30) -> list[tuple[str, Graph]]:
    out: list[tuple[str, Graph]] = []
    sizes = (2, 3, 5, 9, 16, max_n)
    for fam in ("path", "star", "complete"):
        out.extend((f"{fam}-{n}", gen_named(fam, n)) for n in sizes)
    out.extend((f"cycle-{n}", gen_named("cycle", n)) for n in sizes if n >= 3)
    out.extend((f"grid-{s}", gen_named("grid", s)) for s in (2, 3, 4, 5))
    return out


def stale_insert_edge(dist, a, b):
    """``insert_edge`` that leaves one repaired cell one too high, for path-5
    built from no edges at k = 2: its last step inserts (3, 4), which repairs
    (2, 4) from UNREACHABLE to 2.  At 3 that pair stays within d_G + 2, so no
    scan notices it, and H is still a valid 2-spanner."""
    cells = insert_edge(dist, a, b)
    if (a, b) == (3, 4):
        dist[2, 4] += 1
        dist[4, 2] += 1
    return cells


def random_tree(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph.from_edges(n, ((rng.randrange(i), i) for i in range(1, n)))


def disjoint_union(*graphs: Graph) -> Graph:
    """The graphs side by side, each one's ids shifted past those of the ones before."""
    shift = list(itertools.accumulate((g.n for g in graphs), initial=0))
    pairs = [(u + s, v + s) for g, s in zip(graphs, shift) for u, v in g.sorted_edges()]
    return Graph.from_edges(shift[-1], pairs)


def broom(n: int, leaves: int) -> Graph:
    """A path 0..h ending in the hub h = n - leaves - 1, whose ``leaves``
    leaves take the ids above it.  With about n / 2 leaves it makes the
    largest partial sums of ``_seidel``'s parity products, near (n + 3)**2 / 8."""
    hub = n - leaves - 1
    path = ((i, i + 1) for i in range(hub))
    return Graph.from_edges(n, itertools.chain(path, ((hub, v) for v in range(hub + 1, n))))


def clique_chain(t: int, s: int) -> Graph:
    """t cliques of s nodes in a row, each joined to the next by a bridge
    between their gateways.  Gateways take the top ids (clique i's is
    n - 1 - i), the other members ids from 0 up, clique by clique.  With
    s > cap + 1 every node's cap lowest-id neighbors lie in its own clique,
    so the capped seed drops every bridge and the 6-spanner completion has
    to put each one back: t - 1 steps."""
    n = t * s

    def node(i: int, j: int) -> int:  # member j of clique i; j = s - 1 is the gateway
        return n - 1 - i if j == s - 1 else i * (s - 1) + j

    pairs = list(itertools.combinations(range(s), 2))
    cliques = ((node(i, a), node(i, b)) for i in range(t) for a, b in pairs)
    bridges = ((node(i, s - 1), node(i + 1, s - 1)) for i in range(t - 1))
    return Graph.from_edges(n, itertools.chain(cliques, bridges))


def projective_plane_incidence(q: int) -> Graph:
    """Point-line incidence graph of PG(2, q) for prime q.  Points and lines
    are the normalised triples over GF(q) (first nonzero coordinate 1):
    points take ids 0..N-1 and lines N..2N-1, N = q^2 + q + 1, and a point
    lies on a line iff their dot product is 0 mod q.  Its girth is 6, so
    every additive k-spanner with k <= 3 is the whole graph."""
    triples = [(1, a, b) for a in range(q) for b in range(q)]
    triples += [(0, 1, b) for b in range(q)] + [(0, 0, 1)]
    n = len(triples)
    return Graph.from_edges(2 * n, (
        (i, n + j) for i, p in enumerate(triples) for j, line in enumerate(triples)
        if sum(x * y for x, y in zip(p, line)) % q == 0
    ))


def leafed_core(N: int, p: float, seed: int) -> Graph:
    """A G(N, p) core on the top ids, each core node with c private leaves
    on the low ids (core node i's are i*c .. i*c + c - 1), where c is the
    least count with c = floor(n^(1/3)) for n = N(1 + c), the k=6 seed's cap.
    Each core node's c lowest-id neighbors are its leaves, so the capped seed
    keeps no core edge and the 6-spanner completion has to build the core's
    paths itself."""
    c = 0
    while default_cap(N * (1 + c)) > c:
        c += 1
    n = N * (1 + c)
    assert default_cap(n) == c
    top = N * c
    core = ((u + top, v + top) for u, v in gen_gnp(N, p, seed).sorted_edges())
    leaves = ((i * c + j, top + i) for i in range(N) for j in range(c))
    return Graph.from_edges(n, itertools.chain(core, leaves))


#: the small graphs of the committed mutants' detectors
MUTANT_CORPUS = [
    *(gen_gnp(n, p, seed) for n, p, seed in ((6, 0.5, 1), (9, 0.3, 2), (11, 0.4, 3))),
    gen_named("cycle", 6),
    gen_named("grid", 3),
    clique_chain(3, 4),
    # diameters 19 and 14, so apsp squares five times on each
    gen_named("path", 20),
    Graph.from_edges(30, [(i, i + 1) for i in range(29) if i != 14]),
]


# (t, s) of the chains in the shared corpus
CHAIN_SHAPES = ((4, 6), (8, 6), (10, 5))


@dataclass
class BuiltCase:
    label: str
    graph: Graph
    h2: SubgraphState
    trace2: CompletionTrace
    h6: SubgraphState
    trace6: CompletionTrace


@pytest.fixture(scope="session")
def corpus_graphs() -> list[tuple[str, Graph]]:
    graphs = [
        (f"gnp-n{n}-p{p}-s{s}", gen_gnp(n, p, s)) for n, p, s in gnp_corpus_params()
    ]
    graphs.extend(named_corpus_graphs())
    graphs.extend((f"chain-{t}x{s}", clique_chain(t, s)) for t, s in CHAIN_SHAPES)
    return graphs


@pytest.fixture(scope="session")
def built_corpus(corpus_graphs) -> list[BuiltCase]:
    """Both spanner pipelines over the whole corpus; 2-spanner traces carry
    potentials for the step-law check.  Each build checks its own H."""
    out = []
    for label, g in corpus_graphs:
        h2, tr2 = build_spanner(g, 2, record_potentials=True)
        h6, tr6 = build_spanner(g, 6)
        out.append(BuiltCase(label, g, h2, tr2, h6, tr6))
    return out
