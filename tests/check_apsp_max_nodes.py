"""Both APSP kernels at n = MAX_NODES on the broom whose hub has degree
MAX_NODES / 2, against scipy's unweighted BFS.  ``graph._seidel`` runs by
itself, since the float32 parity bound is that kernel's: this broom's parity
products reach the largest partial sums.  The routed ``apsp`` runs too (a
sparse tree, so it takes the bit-parallel BFS).  Then the self-check's
certificate, ``graph._is_hop_distance``, must accept that exact matrix and
reject it with its longest distance one too high, which takes its uint16
f - 1 and f + 1 to the largest n.  Prints the wall times and the peak RSS,
and exits 1 on the first row block that differs or a wrong verdict.  Peaks
near 730 MiB, in Seidel's products; the BFS takes about half Seidel's time.

    PYTHONPATH=src python tests/check_apsp_max_nodes.py
"""
import resource
import sys
import time

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from addspan import UNREACHABLE, apsp
from addspan.graph import MAX_NODES, _is_hop_distance, _seidel

from conftest import broom

ROWS = 512  # scipy's float64 rows per block: 32 MiB at n = MAX_NODES


def differs_from_scipy(m: csr_matrix, dist: np.ndarray, kernel: str) -> bool:
    for r in range(0, dist.shape[0], ROWS):
        rows = np.arange(r, min(r + ROWS, dist.shape[0]))
        d = shortest_path(m, directed=False, unweighted=True, indices=rows)
        if not np.array_equal(dist[r:r + ROWS], np.where(np.isinf(d), UNREACHABLE, d)):
            print(f"{kernel} differs from scipy's BFS in rows {r}..{r + ROWS - 1}")
            return True
    return False


def main() -> int:
    g = broom(MAX_NODES, MAX_NODES // 2 - 1)
    m = csr_matrix((np.ones(g.indices.size), g.indices, g.indptr), shape=(g.n, g.n))
    start = time.perf_counter()
    dist = _seidel(g)
    seidel = time.perf_counter() - start
    if differs_from_scipy(m, dist, "_seidel"):
        return 1
    del dist
    start = time.perf_counter()
    dist = apsp(g).dist
    routed = time.perf_counter() - start
    if differs_from_scipy(m, dist, "apsp"):
        return 1
    start = time.perf_counter()
    if not _is_hop_distance(g, dist):
        print("the certificate rejects apsp's exact matrix")
        return 1
    certify = time.perf_counter() - start
    far = tuple(int(i) for i in np.unravel_index(np.argmax(dist), dist.shape))
    dist[far] += 1  # the longest distance, from the path's end to a leaf
    if _is_hop_distance(g, dist):
        print(f"the certificate accepts the matrix with cell {far} one too high")
        return 1
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"broom n={g.n}, hub degree {MAX_NODES // 2}: _seidel and apsp equal scipy's BFS, "
          f"and the certificate accepts it and rejects one cell off; _seidel {seidel:.1f} s, "
          f"apsp {routed:.1f} s, certificate {certify:.2f} s, peak {peak:.0f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
