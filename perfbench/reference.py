"""A fixed reference computation that measures how fast the machine runs now.

On a shared host the same call can take 1.6 times as long from one minute
to the next: CPU time rises with wall time and no steal is reported, so the
slowdown is in the CPU itself.  The harness runs ``reference_work`` right
before and right after each timed operation, on the same CPU, and scales the
operation's wall time by ``REFERENCE_S / reference time`` (``speed_adjusted``).
That reports seconds at one fixed machine speed.

The reference does the kinds of work ``addspan`` does, in similar shares:
parsing an edge list in pure Python, set and dict updates, level-synchronous
BFS over a CSR adjacency with numpy, and a dense matrix product.  It never
calls ``addspan``, so a change to the program cannot move it.
"""
from __future__ import annotations

import time

import numpy as np

from perfbench.inputs import gnp

# Nominal reference time: the reference's median on a 2-core Xeon VM
# (2.0 GHz) with one BLAS thread, in its slower and more common state.
REFERENCE_S = 0.05

_GRAPH = gnp(300, 0.06, seed=12345, stream=7)
_TEXT = _GRAPH.to_text()
_DENSE = np.zeros((_GRAPH.n, _GRAPH.n))
_DENSE[_GRAPH.edges[:, 0], _GRAPH.edges[:, 1]] = 1.0
_DENSE += _DENSE.T


def _bfs(indptr: np.ndarray, indices: np.ndarray, source: int) -> np.ndarray:
    dist = np.full(indptr.size - 1, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source])
    level = 0
    while frontier.size:
        starts, ends = indptr[frontier], indptr[frontier + 1]
        neigh = np.concatenate([indices[a:b] for a, b in zip(starts.tolist(), ends.tolist())])
        frontier = np.unique(neigh[dist[neigh] < 0])
        level += 1
        dist[frontier] = level
    return dist


def reference_work() -> int:
    """One fixed unit of work; returns a checksum that never changes."""
    lines = _TEXT.splitlines()
    n = int(lines[0].split()[1])
    adjacency: dict[int, set[int]] = {v: set() for v in range(n)}
    for line in lines[1:]:
        u, v = map(int, line.split())
        adjacency[u].add(v)
        adjacency[v].add(u)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(adjacency[v]) for v in range(n)])
    indices = np.array([w for v in range(n) for w in sorted(adjacency[v])], dtype=np.int64)
    checksum = sum(int(_bfs(indptr, indices, s).sum()) for s in range(0, n, 3))
    reach = _DENSE.copy()
    for _ in range(3):
        reach = np.minimum(reach @ _DENSE + reach, 1.0)
    return checksum + int(reach.sum())


def time_reference() -> float:
    """Wall time of one ``reference_work``."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def speed_adjusted(wall: float, reference_before: float, reference_after: float) -> float:
    """``wall`` rescaled to the nominal reference speed."""
    return wall * REFERENCE_S / ((reference_before + reference_after) / 2.0)
