"""Seed subgraphs, the additive-spanner completion loop, and the potential
and cost functions of its per-k convention.

``complete`` scans the unordered pairs in lexicographic order in one forward
pass: each row's scan resumes after the pair it just repaired, so the pass
visits at most n(n-1)/2 pairs whatever a repair does.  Adding path edges never
increases any subgraph distance, so the pass leaves no violating pair behind.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .graph import (
    MAX_NODES,
    UNREACHABLE,
    Edge,
    Graph,
    Path,
    _index,
    _is_hop_distance,
    _is_subgraph,
    _pair_limit,
    _walk_to_tree,
    apsp,
    canonical_edge,
    check_k,
    exceeds,
    insert_edge,
)


class SubgraphState:
    """Mutable edge subset H of a fixed host graph G with degree bookkeeping.

    The node set always equals the host's; edges may only be host edges.  H
    is one flag per slot of ``host.indices``: an edge's two slots (v in the
    row of u, u in the row of v) are flagged together, so ``to_graph`` is the
    host's CSR with the unflagged slots dropped.  ``deg`` is H's int64 degree array.
    """

    def __init__(self, host: Graph, edges: Iterable[tuple[int, int]] = ()):
        self.host = host
        self.deg = np.zeros(host.n, dtype=np.int64)
        self._in_h = bytearray(host.indices.size)
        for u, v in edges:
            self.add_edge(u, v)

    @property
    def edge_count(self) -> int:
        return int(self.deg.sum()) // 2

    def _slot(self, ptr: memoryview, indices: memoryview, u: int, v: int) -> int:
        """Index of v in the row of u in ``host.indices``, or -1 if (u, v) is
        not a host edge: a bisection of the row through memoryviews of the
        host's ``indptr`` and ``indices``, which read Python ints with no copy.
        Called twice per ``add_edge`` only, which makes the views once."""
        if not 0 <= u < self.host.n:  # a negative u would pick a row from the end
            return -1
        end = ptr[u + 1]
        i = bisect_left(indices, v, ptr[u], end)
        return i if i < end and indices[i] == v else -1

    def edges(self) -> frozenset[Edge]:
        return frozenset(self.to_graph().sorted_edges())

    def add_edge(self, u: int, v: int) -> None:
        """Insert a host edge into H; an edge already in H is left as it is."""
        u, v = _index(u), _index(v)
        ptr, indices = memoryview(self.host.indptr), memoryview(self.host.indices)
        i = self._slot(ptr, indices, u, v)
        if i < 0:
            raise ValueError(f"edge {canonical_edge(u, v)} is not an edge of the host graph")
        if not self._in_h[i]:
            self._in_h[i] = self._in_h[self._slot(ptr, indices, v, u)] = 1
            self.deg[u] += 1
            self.deg[v] += 1

    def bfs_row(self, source: int) -> np.ndarray:
        """Hop distances within H from ``source``: its row of the APSP of H."""
        if not 0 <= source < self.host.n:  # numpy would read a negative source from the end
            raise ValueError(f"node {source} out of range 0..{self.host.n - 1}")
        return apsp(self.to_graph()).dist[source]

    def to_graph(self) -> Graph:
        indptr = np.concatenate(([0], np.cumsum(self.deg)))
        return Graph(self.host.n, indptr, self.host.indices[np.frombuffer(self._in_h, dtype=bool)])


@dataclass(frozen=True, slots=True)
class CompletionStep:
    """One completion insertion: row u's violating pair and what it cost.

    ``path`` holds only the hops the step walked, ending at v: the tail of the
    pair's ``shortest_path`` from the first node its row's earlier steps
    reached, or from u.  ``d_h_before`` is UNREACHABLE when H did not connect the pair.
    """

    u: int
    d_g: int
    d_h_before: int
    path: Path
    new_edges: int

    @property
    def pair(self) -> Edge:
        return self.u, self.path.nodes[-1]


@dataclass
class CompletionTrace:
    """Ordered record of all completion steps of one run.  The graph's n and
    H's final edge count are read off ``g`` and ``h``, not copied here.
    ``potentials`` and ``costs`` are None unless recorded, else the seed's
    value and then one per step: step i goes from index i to i + 1."""

    k: int
    seed_edge_count: int
    steps: list[CompletionStep] = field(default_factory=list)
    potentials: Optional[list[int]] = None
    costs: Optional[list[int]] = None

    @property
    def potentials_recorded(self) -> bool:
        return self.potentials is not None


def default_cap(n: int) -> int:
    """Exact integer floor of the cube root: largest c with c**3 <= n."""
    n = _index(n)
    if n < 0:
        raise ValueError("n must be non-negative")
    # c has at most ceil(bits / 3) bits: keep each, from the top, whose cube fits
    c = 0
    for bit in reversed(range(n.bit_length() // 3 + 1)):
        if (c | 1 << bit) ** 3 <= n:
            c |= 1 << bit
    return c


def seed_degree_capped(g: Graph, cap: int) -> SubgraphState:
    """For each node pick its min(cap, deg) lowest-id incident edges; H is
    the union.  Guarantee: any node with H-degree below ``cap`` has all of
    its host edges present.  Cap 0 is the empty seed.

    Row v's first min(cap, deg) slots are picked, and each picked slot's
    mirror, found among the sorted slot codes v*n + w, is flagged with it."""
    cap = _index(cap)
    if cap < 0:
        raise ValueError("cap must be non-negative")
    n, indptr, indices = g.n, g.indptr, g.indices
    row_deg = np.diff(indptr)
    # a row has at most n - 1 slots, so a cap above n, even beyond int64, takes them all
    take = np.minimum(row_deg, min(cap, n))
    rows = np.repeat(np.arange(n), take)
    # row v's picks start at indptr[v] in the slots and after the earlier rows' in ``picked``
    picked = np.arange(rows.size) + np.repeat(indptr[:-1] - (np.cumsum(take) - take), take)
    codes = np.repeat(np.arange(n) * n, row_deg) + indices
    mirror = np.searchsorted(codes, indices[picked] * n + rows)
    h = SubgraphState(g)
    in_h = np.frombuffer(h._in_h, dtype=bool)
    in_h[picked] = in_h[mirror] = True
    # H is symmetric, so v's H-degree is the number of flagged slots that hold v
    h.deg = np.bincount(indices[in_h], minlength=n).astype(np.int64, copy=False)
    return h


def potential_change(dg: np.ndarray, cells: tuple, slack: int) -> int:
    """Change of the potential when the d_H cells (x, y) go from ``old`` to
    ``new``, as ``insert_edge`` returns ``cells``: each changed unordered pair
    appears there once, so its mirror cell is not counted again.  H must be a
    subgraph of G, so G connects every pair with a finite d_H.

    With L = d_G + slack and d_H read as uint16, where UNREACHABLE is above
    every L, a pair's term is L - min(d_H, L), and the change is the sum of
    min(old, L) - min(new, L).  L is the pair rule's ``_pair_limit`` at
    k = slack, which caps slack at MAX_NODES.  The cap takes slack - MAX_NODES
    off every finite term and nothing off an UNREACHABLE one, so that much is
    added per finite new value and taken off per finite old one."""
    x, y, old, new = cells
    limit = _pair_limit(dg[x, y], slack)
    gain = np.minimum(old.view(np.uint16), limit)
    gain -= np.minimum(new.view(np.uint16), limit)  # new <= old: no wrap
    change = int(gain.sum())
    if slack > MAX_NODES:
        change += (slack - MAX_NODES) * (
            np.count_nonzero(new != UNREACHABLE) - np.count_nonzero(old != UNREACHABLE))
    return change


def potential_from_matrices(dg: np.ndarray, dh: np.ndarray, slack: int) -> int:
    """Sum over unordered distinct pairs of max(0, d_G - d_H + slack), 0 where H
    does not connect the pair, for slack >= 0 and H a subgraph of G: the change
    from every cell UNREACHABLE, which connects no pair and sums to 0, to ``dh``,
    less the slack each diagonal cell adds, halved since each pair counts twice."""
    every_cell = (slice(None), slice(None), np.int16(UNREACHABLE), dh)
    return (potential_change(dg, every_cell, slack) - dg.shape[0] * slack) // 2


def cost_edges(h: SubgraphState) -> int:
    """Edge-count cost of H."""
    return h.edge_count


def cost_degsq(h: SubgraphState) -> int:
    """Sum of squared H-degrees; n <= MAX_NODES keeps it below 2**40, exact in int64."""
    return int(h.deg @ h.deg)


#: The potential convention, k -> (slack, cost): the 2- and 6-spanner analyses
#: use slack 3 with the squared-degree cost and slack 5 with the edge count;
#: any other k falls back to (max(k - 1, 0), edge count), reported only.
#: These two k are also the only ones whose seed carries a size guarantee.
CONVENTIONS = {2: (3, cost_degsq), 6: (5, cost_edges)}


class SelfCheckError(RuntimeError):
    """A build found a fault in the H it made: the engine's, not the input's."""


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

    Pairs u < v are scanned lexicographically in one forward pass: row u's
    scan resumes after the pair it just repaired, so the loop ends after at
    most n(n-1)/2 steps.  Disconnected pairs of G are skipped (H never
    connects what G does not).  The pair limit is made once, for all of d_G,
    and a row is scanned only if it holds a violating pair at the start: d_H
    never grows, so no other row gets one.  d_H is one APSP of the seed,
    repaired in place by ``insert_edge`` for every new edge.  Each row keeps
    the tree of nodes its steps walked, from u: a step walks back from v only
    to the first tree node (``graph._walk_to_tree``), whose path prefix is
    already in H, and checks, inserts and records only the hops it walked.  A
    violating v is never in the tree, so each step walks a new node, and a row
    n - 1 hops at most.
    Mutates and returns ``h`` together with the step trace.  With
    ``record_potentials`` the trace gets the seed's potential and cost of
    ``CONVENTIONS`` and each step's: one O(n^2) potential sum for the seed,
    then each new edge adds the change of its pair terms over the cells
    ``insert_edge`` repaired, and each step reads ``cost`` of its H.  After
    every step d_H(u, v) must equal d_G(u, v), or SelfCheckError is raised.

    The build then drops the scan's limit matrix and checks its own result
    with limits of its own, so a wrong scan limit fails the check too.  It
    raises SelfCheckError unless every edge of H has d_G = 1, no pair exceeds
    d_G + k, and the repaired d_H is H's hop-distance matrix.  That last
    check is ``graph._is_hop_distance``, a local certificate in O(m_H n) time
    and row-block memory, run after every reference to d_G is dropped: it
    runs no APSP of H.  Neither matrix outlives the call.
    """
    check_k(k)
    if h.host != g:
        raise ValueError("subgraph state does not belong to this graph")

    # a Python int slack: a narrow numpy k would wrap slack * n in the full sum
    slack, cost = CONVENTIONS.get(k, (max(_index(k) - 1, 0), cost_edges))
    dg = apsp(g).dist
    dg.setflags(write=False)  # the final checks trust it: a stray write raises
    dh = apsp(h.to_graph()).dist
    seed_edges = h.edge_count
    steps: list[CompletionStep] = []

    potentials = [potential_from_matrices(dg, dh, slack)] if record_potentials else None
    costs = [cost(h)] if record_potentials else None
    ptr, indices = memoryview(g.indptr), memoryview(g.indices)
    # the pair rule of ``exceeds``, d_H read as uint16 above a limit made once; d_H
    # never grows, so a row with no violating pair now never gets one
    dh_u16, limits = dh.view(np.uint16), _pair_limit(dg, k)
    for u in np.flatnonzero((dh_u16 > limits).any(axis=1)).tolist():
        # the nodes the row's steps walked, from u: H holds the path from u to each
        tree = {u}
        dg_row, row, row_u16, limit = dg[u], dh[u], dh_u16[u], limits[u]
        # v is the last column checked: each pair (u, w) with w <= v holds, and keeps
        # holding since d_H never grows (for w < u, row w settled it)
        v = u
        while (viol := (row_u16[v + 1:] > limit[v + 1:]).nonzero()[0]).size:
            v += 1 + int(viol[0])
            d_h_before = int(row[v])
            # the path up to nodes[0] is in H: only the hops after it are walked
            nodes = _walk_to_tree(ptr, indices, memoryview(dg_row), tree, v)
            tree.update(nodes)
            added = gain = 0
            for a, b in zip(nodes, nodes[1:]):
                # the repaired d_H is exact: d_H(a, b) = 1 iff (a, b) is in H
                if dh[a, b] == 1:
                    continue
                h.add_edge(a, b)
                cells = insert_edge(dh, a, b)
                added += 1
                if record_potentials:
                    gain += potential_change(dg, cells, slack)
            if record_potentials:
                potentials.append(potentials[-1] + gain)
                costs.append(cost(h))
            # H now holds a shortest u-v path of G, so any other d_H is a stale
            # repair; the scan moves past the pair whether or not it holds
            if row[v] != dg_row[v]:
                raise SelfCheckError(
                    f"pair ({u}, {v}) has d_H = {row[v]} but d_G = {dg_row[v]} after "
                    "its shortest path was inserted: the repaired d_H is stale"
                )
            steps.append(CompletionStep(
                u=u, d_g=int(dg_row[v]), d_h_before=d_h_before, path=Path(nodes), new_edges=added,
            ))

    # the self-check makes its own limit, so a wrong scan limit fails it too
    limits = limit = None
    spanner = h.to_graph()
    if not _is_subgraph(dg, spanner):
        raise SelfCheckError("spanner is not a subgraph of the input graph")
    violations = np.count_nonzero(np.triu(exceeds(dg, dh, k), 1))
    dg = dg_row = None  # the certificate runs beside d_H alone
    if violations:
        raise SelfCheckError(f"self-check found {violations} violations")
    if not _is_hop_distance(spanner, dh):
        raise SelfCheckError("self-check found that the repaired d_H is not the "
                             "hop-distance matrix of H")
    return h, CompletionTrace(k, seed_edges, steps, potentials, costs)


def build_spanner(
    g: Graph, k: int, *, record_potentials: bool = False
) -> tuple[SubgraphState, CompletionTrace]:
    """The additive k-spanner pipeline, the only place that picks a seed: the
    degree-capped seed, cap floor(n^(1/3)) for k = 6 and 0 (no edges) for any
    other k, then completion.  Only k = 2 and k = 6 carry a size guarantee."""
    h = seed_degree_capped(g, default_cap(g.n) if k == 6 else 0)
    return complete(g, h, k, record_potentials=record_potentials)


# perfbench/tracing.py looks these three up by name; ROADMAP item 1 deletes them.
def seed_empty(g: Graph) -> SubgraphState:
    """H with all nodes of g and no edges."""
    return SubgraphState(g)


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
