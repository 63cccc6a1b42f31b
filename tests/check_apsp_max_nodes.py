"""Both APSP kernels near n = MAX_NODES, against scipy's unweighted BFS.

First the 90 x 90 grid (8100 nodes, diameter 178): ``apsp`` takes the
bit-parallel BFS with its padded gather, a 4 x n neighbor table.  Then the
broom of MAX_NODES nodes whose hub has degree MAX_NODES / 2.  ``graph._seidel``
runs by itself, since the float32 parity bound is that kernel's: this
broom's parity products reach the largest partial sums.  The routed ``apsp``
runs too (a sparse tree, so it takes the bit-parallel BFS, whose gather keeps
the CSR's segments: a table padded to the hub's degree would take 256 MiB per
word of sources).  Then the self-check's certificate,
``graph._is_hop_distance``, must accept that exact matrix, in which d equals
its BFS step at the largest distances an n = MAX_NODES graph holds.  It must
reject it with its longest distance, from the path's end to a leaf, one too
high, and with the hub's cell of that leaf UNREACHABLE, which each other
leaf's step, capped at 0xFFFE below it, saturates to UNREACHABLE.  Prints
the wall times and the peak RSS after each graph, and exits 1 on the first
row block that differs or a wrong verdict.  Peaks near
730 MiB, in Seidel's products; the BFS takes about half Seidel's time.

    PYTHONPATH=src python tests/check_apsp_max_nodes.py
"""
import resource
import sys
import time

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from addspan import UNREACHABLE, Graph, apsp, gen_named
from addspan.graph import MAX_NODES, _is_hop_distance, _seidel

from conftest import broom

ROWS = 512  # scipy's float64 rows per block: 32 MiB at n = MAX_NODES


def differs_from_scipy(g: Graph, dist: np.ndarray, kernel: str) -> bool:
    m = csr_matrix((np.ones(g.indices.size), g.indices, g.indptr), shape=(g.n, g.n))
    for r in range(0, dist.shape[0], ROWS):
        rows = np.arange(r, min(r + ROWS, dist.shape[0]))
        d = shortest_path(m, directed=False, unweighted=True, indices=rows)
        if not np.array_equal(dist[r:r + ROWS], np.where(np.isinf(d), UNREACHABLE, d)):
            print(f"{kernel} differs from scipy's BFS in rows {r}..{r + ROWS - 1}")
            return True
    return False


def peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def main() -> int:
    grid = gen_named("grid", 90)
    start = time.perf_counter()
    dist = apsp(grid).dist
    routed = time.perf_counter() - start
    if differs_from_scipy(grid, dist, "apsp on grid-90"):
        return 1
    print(f"grid-90, n={grid.n}, diameter {dist.max()}: apsp equals scipy's BFS; "
          f"apsp {routed:.1f} s, peak {peak_mib():.0f} MiB", flush=True)
    del dist
    g = broom(MAX_NODES, MAX_NODES // 2 - 1)
    start = time.perf_counter()
    dist = _seidel(g)
    seidel = time.perf_counter() - start
    if differs_from_scipy(g, dist, "_seidel"):
        return 1
    del dist
    start = time.perf_counter()
    dist = apsp(g).dist
    routed = time.perf_counter() - start
    if differs_from_scipy(g, dist, "apsp"):
        return 1
    start = time.perf_counter()
    if not _is_hop_distance(g, dist):
        print("the certificate rejects apsp's exact matrix")
        return 1
    certify = time.perf_counter() - start
    far = tuple(int(i) for i in np.unravel_index(np.argmax(dist), dist.shape))
    hub = int(np.argmax(np.diff(g.indptr)))
    for cell, value, what in ((far, dist[far] + 1, "one too high"),
                              ((hub, far[1]), UNREACHABLE, "UNREACHABLE")):
        e = dist.copy()
        e[cell] = value
        if _is_hop_distance(g, e):
            print(f"the certificate accepts the matrix with cell {cell} {what}")
            return 1
    print(f"broom n={g.n}, hub degree {MAX_NODES // 2}: _seidel and apsp equal scipy's BFS, "
          f"and the certificate accepts it and rejects two one-cell changes; _seidel "
          f"{seidel:.1f} s, apsp {routed:.1f} s, certificate {certify:.2f} s, "
          f"peak {peak_mib():.0f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
