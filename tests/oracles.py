"""Independent reference implementations used only to cross-check results."""
from __future__ import annotations

import math
import random

import numpy as np

from addspan import UNREACHABLE, Graph, SubgraphState, apsp, verify_spanner
from addspan.engine import CONVENTIONS
from addspan.graph import exceeds


def largest_parity_sum(dist: np.ndarray) -> int:
    """The largest magnitude that a partial sum of ``_seidel``'s parity product
    t (A_j - D_j) can reach at any level j, in int64, from exact hop distances
    ``dist``: per cell (x, y), the larger of t summed over y's A_j-neighbors
    and t[x, y] times y's A_j-degree.  A_j = (0 < d <= 2**j), and
    t = ceil(d / 2**(j + 1)), 0 where d is 0 or UNREACHABLE."""
    d = dist.astype(np.int64)
    finite = d > 0
    largest, j = 0, 0
    while 1 << j < d.max(initial=0):
        a = (finite & (d <= 1 << j)).astype(np.int64)
        t = np.where(finite, -(-d // (2 << j)), 0)
        largest = max(largest, int((t @ a).max()), int((t * a.sum(axis=0)).max()))
        j += 1
    return largest


def naive_neighbors(n: int, edges) -> dict[int, set[int]]:
    """Dict-of-sets adjacency of the simple undirected graph on 0..n-1 with
    the given pairs, in either direction and possibly repeated."""
    neighbors: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    return neighbors


def capped_seed(g: Graph, cap: int) -> set[tuple[int, int]]:
    """The degree-capped seed: each node's ``cap`` lowest-id neighbors,
    unioned, as pairs u < v."""
    neighbors = naive_neighbors(g.n, g.sorted_edges())
    return {
        (min(v, w), max(v, w))
        for v in range(g.n) for w in sorted(neighbors[v])[:cap]
    }


def parse_outcome(parse, text: str):
    """The graph a parser returns for ``text``, or the type and message of
    what it raises, so two parsers can be compared on bad input too."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


class SplitMix64:
    """Scalar splitmix64 stream, the reference for the vectorised one that
    ``gen_gnp`` draws from.  Floats are 53-bit mantissas in [0, 1)."""

    MASK64 = (1 << 64) - 1
    GOLDEN = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self._state = seed & self.MASK64

    def next_u64(self) -> int:
        self._state = (self._state + self.GOLDEN) & self.MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53


def potential_v(g: Graph, h: SubgraphState, slack: int) -> int:
    """Potential of H against its host, the int64 pairwise sum of
    ``potential_triu``, which shares no code with the engine's."""
    if slack < 0:
        raise ValueError("slack must be non-negative")
    return potential_triu(apsp(g).dist, apsp(h.to_graph()).dist, slack)


def potential_triu(dg: np.ndarray, dh: np.ndarray, slack: int) -> int:
    """max(0, d_G - d_H + slack) summed over the pairs u < v of the upper
    triangle, skipping pairs unreachable in either graph."""
    n = dg.shape[0]
    if n < 2:
        return 0
    iu, iv = np.triu_indices(n, k=1)
    a, b = dg[iu, iv].astype(np.int64), dh[iu, iv].astype(np.int64)
    ok = (a != UNREACHABLE) & (b != UNREACHABLE)
    return int(np.maximum(a - b + slack, 0)[ok].sum())


def naive_exceeds(dg: np.ndarray, dh: np.ndarray, k: int) -> np.ndarray:
    """The pair rule in int64 with k unclamped: pairs connected in G with
    d_H UNREACHABLE or above d_G + k."""
    dg, dh = dg.astype(np.int64), dh.astype(np.int64)
    return (dg != UNREACHABLE) & ((dh == UNREACHABLE) | (dh > dg + k))


def floyd_warshall(g: Graph) -> list[list[float]]:
    """Textbook O(n^3) all-pairs distances; math.inf where unreachable."""
    n = g.n
    d = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0.0
    for u, v in g.sorted_edges():
        d[u][v] = 1.0
        d[v][u] = 1.0
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == math.inf:
                continue
            di = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return d


def matrix_power_distances(g: Graph) -> list[list[float]]:
    """Distances by repeated boolean adjacency powers: d(u, v) is the first
    exponent whose power has a nonzero (u, v) entry."""
    n = g.n
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in g.sorted_edges():
        a[u, v] = 1
        a[v, u] = 1
    d = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0.0
    power = np.eye(n, dtype=np.int64)
    for step in range(1, n):
        power = (power @ a > 0).astype(np.int64)
        hit = False
        for i in range(n):
            for j in range(n):
                if power[i, j] and d[i][j] == math.inf:
                    d[i][j] = float(step)
                    hit = True
        if not hit:
            break
    return d


def dist_matrix_to_float(dist: np.ndarray) -> list[list[float]]:
    """Convert an UNREACHABLE-marked int matrix to math.inf convention."""
    return [
        [math.inf if x < 0 else float(x) for x in row]
        for row in dist.tolist()
    ]


def reference_path(neighbors, dg: list[list[float]], u: int, v: int) -> tuple[int, ...]:
    """The lowest-id shortest u-v path: from v, each hop goes to the lowest-id
    neighbor one step nearer u.  ``dg`` is ``floyd_warshall``'s, and G must
    connect u and v."""
    nodes = [v]
    while nodes[-1] != u:
        nodes.append(min(x for x in neighbors[nodes[-1]] if dg[u][x] == dg[u][nodes[-1]] - 1))
    return tuple(reversed(nodes))


def reference_complete(g: Graph, seed_edges, k: int) -> tuple[frozenset, tuple]:
    """Naive completion: one lexicographic pass over pairs u < v, inserting
    the lowest-id shortest G-path whenever d_H(u, v) > d_G(u, v) + k, with a
    fresh Floyd-Warshall of H after every insertion.

    Returns H's final edges and its trace: the list of one tuple per step,
    (pair, d_g, d_h_before, walked nodes, new_edges), with d_h_before =
    math.inf for pairs disconnected in H, then the potential and the cost of
    the seed and after each step, two lists.  The walked nodes are the path's
    tail from its last node that an earlier path of row u holds, or from u
    itself; new_edges counts the whole path's hops not in H.
    """
    n = g.n
    slack = {2: 3, 6: 5}.get(k, max(k - 1, 0))
    neighbors = [set() for _ in range(n)]
    for a, b in g.sorted_edges():
        neighbors[a].add(b)
        neighbors[b].add(a)
    dg = floyd_warshall(g)
    h = {(min(a, b), max(a, b)) for a, b in seed_edges}

    def dist_h() -> list[list[float]]:
        return floyd_warshall(Graph.from_edges(n, h))

    def potential(dh) -> int:
        return sum(
            max(0, int(dg[u][v] - dh[u][v]) + slack)
            for u in range(n) for v in range(u + 1, n)
            if dg[u][v] != math.inf and dh[u][v] != math.inf
        )

    def cost() -> int:
        if k != 2:
            return len(h)
        deg = [0] * n
        for a, b in h:
            deg[a] += 1
            deg[b] += 1
        return sum(d * d for d in deg)

    dh = dist_h()
    potentials, costs = [potential(dh)], [cost()]
    steps = []
    for u in range(n):
        row = {u}  # the nodes of the paths inserted for row u
        for v in range(u + 1, n):
            if dg[u][v] == math.inf or dh[u][v] <= dg[u][v] + k:
                continue
            nodes = reference_path(neighbors, dg, u, v)
            walked = nodes[max(i for i, x in enumerate(nodes) if x in row):]
            row.update(nodes)
            hops = {(min(a, b), max(a, b)) for a, b in zip(nodes, nodes[1:])}
            new_edges = len(hops - h)
            h |= hops
            d_h_before, dh = dh[u][v], dist_h()
            steps.append(((u, v), int(dg[u][v]), d_h_before, walked, new_edges))
            potentials.append(potential(dh))
            costs.append(cost())
    return frozenset(h), (steps, potentials, costs)


def reference_rows(trace) -> tuple:
    """A library trace's steps and series as ``reference_complete`` lists them."""
    steps = [
        (s.pair, s.d_g, math.inf if s.d_h_before == UNREACHABLE else s.d_h_before,
         s.path.nodes, s.new_edges)
        for s in trace.steps
    ]
    return steps, trace.potentials, trace.costs


def random_order_step_law(g: Graph, rng: random.Random) -> list[int]:
    """2-spanner completion from the empty seed that draws each step's
    violating pair under the library's pair rule, and at each hop of its path
    back from v a predecessor one level closer to u, from ``rng``, with a fresh
    APSP of H after every insertion.  Asserts at each step that the pair
    violates by the rule written out and that the path is a shortest G-path,
    and at the end that H is a valid 2-spanner.  Returns the per-step change
    of cost - 12 * potential under the library's ``CONVENTIONS[2]``, the
    potential summed by ``potential_triu``, apart from the engine's sum."""
    slack, cost = CONVENTIONS[2]
    neighbors = naive_neighbors(g.n, g.sorted_edges())
    dg = apsp(g).dist
    h = SubgraphState(g)
    dh = apsp(h.to_graph()).dist
    before = cost(h) - 12 * potential_triu(dg, dh, slack)
    deltas = []
    while (pairs := np.argwhere(np.triu(exceeds(dg, dh, 2), 1))).size:
        u, v = (int(x) for x in rng.choice(pairs))
        assert dg[u, v] != UNREACHABLE and (dh[u, v] == UNREACHABLE or dh[u, v] > dg[u, v] + 2)
        nodes = [v]
        while nodes[-1] != u:
            nodes.append(rng.choice(sorted(
                x for x in neighbors[nodes[-1]] if dg[u, x] == dg[u, nodes[-1]] - 1)))
        assert len(nodes) - 1 == dg[u, v]
        assert all(b in neighbors[a] for a, b in zip(nodes, nodes[1:]))
        for a, b in zip(nodes, nodes[1:]):
            h.add_edge(a, b)
        dh = apsp(h.to_graph()).dist
        after = cost(h) - 12 * potential_triu(dg, dh, slack)
        deltas.append(after - before)
        before = after
    assert verify_spanner(g, h.to_graph(), 2) == []
    return deltas
