"""``apsp`` at n = MAX_NODES on the broom whose hub has degree MAX_NODES / 2,
the shape whose parity products reach the largest partial sums, against
scipy's unweighted BFS.  Then the self-check's certificate,
``graph._is_hop_distance``, must accept that exact matrix and reject it with
its longest distance one too high, which takes its uint16 f - 1 and f + 1 to
the largest n.  Prints the wall times and the peak RSS, and exits 1 on the
first row block that differs or a wrong verdict.  Peaks near 800 MiB.

    PYTHONPATH=src python tests/check_apsp_max_nodes.py
"""
import resource
import sys
import time

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from addspan import UNREACHABLE, apsp
from addspan.graph import MAX_NODES, _is_hop_distance

from conftest import broom

ROWS = 512  # scipy's float64 rows per block: 32 MiB at n = MAX_NODES


def main() -> int:
    g = broom(MAX_NODES, MAX_NODES // 2 - 1)
    start = time.perf_counter()
    dist = apsp(g).dist
    wall = time.perf_counter() - start
    m = csr_matrix((np.ones(g.indices.size), g.indices, g.indptr), shape=(g.n, g.n))
    for r in range(0, g.n, ROWS):
        rows = np.arange(r, min(r + ROWS, g.n))
        d = shortest_path(m, directed=False, unweighted=True, indices=rows)
        if not np.array_equal(dist[r:r + ROWS], np.where(np.isinf(d), UNREACHABLE, d)):
            print(f"apsp differs from scipy's BFS in rows {r}..{r + ROWS - 1}")
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
    print(f"broom n={g.n}, hub degree {MAX_NODES // 2}: apsp equals scipy's BFS, and the "
          f"certificate accepts it and rejects one cell off; apsp {wall:.1f} s, "
          f"certificate {certify:.2f} s, peak {peak:.0f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
