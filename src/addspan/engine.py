"""Seed subgraphs, the additive-spanner completion loop, and the potential
and cost functions of its per-k convention.

``complete`` scans all unordered pairs in lexicographic order once; adding
path edges never increases any subgraph distance, so a single pass leaves no
violating pair behind.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .graph import (
    UNREACHABLE,
    Edge,
    Graph,
    Path,
    _hop_distances,
    _index,
    apsp,
    canonical_edge,
    check_k,
    exceeds,
    insert_edge,
    shortest_path,
)


class SubgraphState:
    """Mutable edge subset H of a fixed host graph G with degree bookkeeping.

    The node set always equals the host's; edges may only be host edges.  H
    is one flag per slot of ``host.indices``: an edge's two slots (v in the
    row of u, u in the row of v) are flagged together, so ``to_graph`` is the
    host's CSR with the unflagged slots dropped.  ``deg`` holds the H-degrees.
    """

    def __init__(self, host: Graph, edges: Iterable[tuple[int, int]] = ()):
        self.host = host
        self.deg: list[int] = [0] * host.n
        self._in_h = bytearray(host.indices.size)
        for u, v in edges:
            self.add_edge(u, v)

    @property
    def n(self) -> int:
        return self.host.n

    @property
    def edge_count(self) -> int:
        return sum(self.deg) // 2

    def _slot(self, u: int, v: int) -> int:
        """Index of v in the row of u in ``host.indices``, or -1 if (u, v) is
        not a host edge.  Called twice per seed edge and per new edge only."""
        if not 0 <= u < self.host.n:  # a negative u would pick a row from the end
            return -1
        row = self.host.adjacency[u]
        i = bisect_left(row, v)
        return int(self.host.indptr[u]) + i if i < len(row) and row[i] == v else -1

    def edges(self) -> frozenset[Edge]:
        return frozenset(self.to_graph().sorted_edges())

    def add_edge(self, u: int, v: int) -> bool:
        """Insert a host edge into H; returns True iff it was new."""
        i = self._slot(u, v)
        if i < 0:
            raise ValueError(f"edge {canonical_edge(u, v)} is not an edge of the host graph")
        if self._in_h[i]:
            return False
        self._in_h[i] = self._in_h[self._slot(v, u)] = 1
        self.deg[u] += 1
        self.deg[v] += 1
        return True

    def bfs_row(self, source: int) -> np.ndarray:
        """Hop distances within H from ``source``."""
        if not 0 <= source < self.n:  # numpy would read a negative source from the end
            raise ValueError(f"node {source} out of range 0..{self.n - 1}")
        return _hop_distances(self.to_graph(), np.array([source]))[0]

    def to_graph(self) -> Graph:
        indptr = np.concatenate(([0], np.cumsum(self.deg, dtype=np.int64)))
        return Graph(self.n, indptr, self.host.indices[np.frombuffer(self._in_h, dtype=bool)])


@dataclass(frozen=True)
class CompletionStep:
    """One completion insertion: the violating pair and what it cost.

    ``d_h_before`` is UNREACHABLE when the pair was disconnected in H.
    Potential/cost snapshots are None unless the run recorded them.
    """

    pair: Edge
    d_g: int
    d_h_before: int
    path: Path
    new_edges: int
    v_before: Optional[int] = None
    v_after: Optional[int] = None
    c_before: Optional[int] = None
    c_after: Optional[int] = None


@dataclass
class CompletionTrace:
    """Ordered record of all completion steps of one run.  The graph's n and
    H's final edge count are read off ``g`` and ``h``, not copied here."""

    k: int
    seed_edge_count: int
    potentials_recorded: bool
    steps: list[CompletionStep] = field(default_factory=list)


def default_cap(n: int) -> int:
    """Exact integer floor of the cube root: largest c with c**3 <= n."""
    if _index(n) < 0:
        raise ValueError("n must be non-negative")
    c = round(n ** (1 / 3))
    while c ** 3 > n:
        c -= 1
    while (c + 1) ** 3 <= n:
        c += 1
    return c


def seed_empty(g: Graph) -> SubgraphState:
    """H with all nodes of g and no edges."""
    return SubgraphState(g)


def seed_degree_capped(g: Graph, cap: int) -> SubgraphState:
    """For each node pick its min(cap, deg) lowest-id incident edges; H is
    the union.  Guarantee: any node with H-degree below ``cap`` has all of
    its host edges present.  Cap 0 is the empty seed."""
    if _index(cap) < 0:
        raise ValueError("cap must be non-negative")
    return SubgraphState(g, ((v, w) for v in range(g.n) for w in g.adjacency[v][:cap]))


def potential_from_matrices(dg: np.ndarray, dh: np.ndarray, slack: int) -> int:
    """Sum over unordered distinct pairs of max(0, d_G - d_H + slack); pairs
    unreachable in either graph contribute 0.  ``slack`` must be >= 0."""
    # one n x n temporary, updated in place: with two more per call, some
    # process memory layouts faulted their pages in afresh at every step
    # (about 18k page faults per build of a G(150, 0.05) spanner)
    vals = dg - dh
    vals += slack
    np.maximum(vals, 0, out=vals)
    vals[(dg == UNREACHABLE) | (dh == UNREACHABLE)] = 0
    # each diagonal entry holds slack and every pair is counted twice
    return (int(vals.sum()) - dg.shape[0] * slack) // 2


def cost_edges(h: SubgraphState) -> int:
    """Edge-count cost of H."""
    return h.edge_count


def cost_degsq(h: SubgraphState) -> int:
    """Sum of squared H-degrees."""
    return sum(d * d for d in h.deg)


#: The potential convention, k -> (slack, cost): the 2- and 6-spanner analyses
#: use slack 3 with the squared-degree cost and slack 5 with the edge count;
#: any other k falls back to (max(k - 1, 0), edge count), reported only.
#: These two k are also the only ones whose seed carries a size guarantee.
CONVENTIONS = {2: (3, cost_degsq), 6: (5, cost_edges)}


def complete(
    g: Graph,
    h: SubgraphState,
    k: int,
    *,
    record_potentials: bool = False,
) -> tuple[SubgraphState, CompletionTrace]:
    """k-spanner completion: while some pair (u, v) has
    d_H(u, v) > d_G(u, v) + k, insert the deterministic shortest u-v path
    of G into H.

    Pairs are scanned lexicographically in a single pass; disconnected pairs
    of G are skipped (H never connects what G does not).  d_H is one APSP of
    the seed, repaired in place by ``insert_edge`` for every new edge.
    Mutates and returns ``h`` together with the step trace.  With
    ``record_potentials`` every step snapshots the potential and cost of
    ``CONVENTIONS``, read off the same d_H at the price of one O(n^2)
    potential sum per step.  After every step d_H(u, v) must equal d_G(u, v);
    a repaired d_H that breaks this raises RuntimeError.
    """
    check_k(k)
    if h.host != g:
        raise ValueError("subgraph state does not belong to this graph")

    slack, cost = CONVENTIONS.get(k, (max(k - 1, 0), cost_edges))
    dg = apsp(g).dist
    dh = apsp(h.to_graph()).dist
    seed_edges = h.edge_count
    steps: list[CompletionStep] = []

    def snapshot() -> tuple[Optional[int], Optional[int]]:
        if not record_potentials:
            return None, None
        return potential_from_matrices(dg, dh, slack), cost(h)

    v_cur, c_cur = snapshot()
    for u in range(g.n):
        dg_row, row = dg[u], dh[u]
        while True:
            viol = np.nonzero(exceeds(dg_row, row, k))[0]
            viol = viol[viol > u]
            if viol.size == 0:
                break
            v = int(viol[0])
            d_h_before = int(row[v])
            path = shortest_path(g, u, v, distances=dg_row)
            added = 0
            for a, b in path.hops():
                # the repaired d_H is exact: d_H(a, b) = 1 iff (a, b) is in H
                if dh[a, b] != 1 and h.add_edge(a, b):
                    insert_edge(dh, a, b)
                    added += 1
            # H now holds a shortest u-v path of G; a longer d_H would make the
            # scan repeat the pair, and a shorter one is below what G allows
            if row[v] != dg_row[v]:
                raise RuntimeError(
                    f"pair ({u}, {v}) has d_H = {row[v]} but d_G = {dg_row[v]} after "
                    "its shortest path was inserted: the repaired d_H is stale"
                )
            v_after, c_after = snapshot()
            steps.append(CompletionStep(
                pair=(u, v), d_g=int(dg_row[v]), d_h_before=d_h_before, path=path,
                new_edges=added, v_before=v_cur, v_after=v_after, c_before=c_cur, c_after=c_after,
            ))
            v_cur, c_cur = v_after, c_after

    return h, CompletionTrace(
        k=k, seed_edge_count=seed_edges, potentials_recorded=record_potentials, steps=steps,
    )


def build_spanner(
    g: Graph, k: int, *, record_potentials: bool = False
) -> tuple[SubgraphState, CompletionTrace]:
    """The additive k-spanner pipeline, the only place that picks a seed: the
    degree-capped seed, cap floor(n^(1/3)) for k = 6 and 0 (no edges) for any
    other k, then completion.  Only k = 2 and k = 6 carry a size guarantee."""
    h = seed_degree_capped(g, default_cap(g.n) if k == 6 else 0)
    return complete(g, h, k, record_potentials=record_potentials)


def build_2_spanner(
    g: Graph, *, record_potentials: bool = False
) -> tuple[SubgraphState, CompletionTrace]:
    """Additive 2-spanner: ``build_spanner`` with k=2."""
    return build_spanner(g, 2, record_potentials=record_potentials)


def build_6_spanner(
    g: Graph, *, record_potentials: bool = False
) -> tuple[SubgraphState, CompletionTrace]:
    """Additive 6-spanner: ``build_spanner`` with k=6."""
    return build_spanner(g, 6, record_potentials=record_potentials)
