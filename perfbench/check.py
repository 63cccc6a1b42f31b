"""Output checks that share no code with ``addspan``.

Distances come from ``scipy.sparse.csgraph``; files are parsed here.  Every
function returns a list of problems, empty when the output is correct.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

TRACE_COLUMNS = [
    "step", "u", "v", "d_g", "d_h_before", "new_edges",
    "v_before", "v_after", "c_before", "c_after",
]
STEP_LAW_WEIGHT = 12
POTENTIAL_SLACK = 3  # slack of the k=2 potential

DIGESTS_FILE = Path(__file__).with_name("digests.json")


def read_edge_list(text: str) -> tuple[int, np.ndarray]:
    """(n, (m, 2) int array) from the canonical ``n <count>`` edge-list form."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("n "):
        raise ValueError("missing 'n <count>' header")
    n = int(lines[0][2:])
    edges = np.array([line.split() for line in lines[1:]], dtype=np.int64).reshape(-1, 2)
    return n, edges


def hop_distances(n: int, edges: np.ndarray) -> np.ndarray:
    """All-pairs hop counts; ``inf`` where unreachable."""
    adj = coo_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n)
    ).tocsr()
    return shortest_path(adj, directed=False, unweighted=True)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_spanner(g_text: str, h_text: str, k: int) -> list[str]:
    """H is a subgraph of G on the same nodes, and d_H <= d_G + k on every
    pair connected in G."""
    n, g_edges = read_edge_list(g_text)
    n_h, h_edges = read_edge_list(h_text)
    if n_h != n:
        return [f"spanner has {n_h} nodes, graph has {n}"]
    g_codes = g_edges[:, 0] * n + g_edges[:, 1]
    lo, hi = np.minimum(h_edges[:, 0], h_edges[:, 1]), np.maximum(h_edges[:, 0], h_edges[:, 1])
    h_codes = lo * n + hi
    if not np.isin(h_codes, g_codes).all():
        return ["spanner has an edge that is not in the graph"]
    dg = hop_distances(n, g_edges)
    dh = hop_distances(n, h_edges)
    bad = np.isfinite(dg) & (dh > dg + k)
    if bad.any():
        u, v = np.argwhere(bad)[0]
        return [f"{int(bad.sum()) // 2} pairs violate d_H <= d_G + {k}, e.g. ({u}, {v})"]
    return []


def check_trace(g_text: str, h_text: str, k: int, trace_text: str) -> list[str]:
    """Recompute the trace's claims from its own columns: steps number from
    0, each pair was a real violation with the right d_G, rows chain, the
    step law ``c - 12 v`` never increases, and the last row's cost and
    potential match the spanner file."""
    rows = list(csv.reader(io.StringIO(trace_text)))
    if not rows or rows[0] != TRACE_COLUMNS:
        return ["trace header differs from the expected columns"]
    try:
        body = [[int(x) for x in r] for r in rows[1:]]
    except ValueError:
        return ["trace has a non-integer or empty cell"]
    n, g_edges = read_edge_list(g_text)
    _, h_edges = read_edge_list(h_text)
    dg = hop_distances(n, g_edges)
    problems = []
    prev = None
    for i, (step, u, v, d_g, d_h, new, v_b, v_a, c_b, c_a) in enumerate(body):
        if step != i or new < 1:
            problems.append(f"row {i}: bad step number or new_edges")
        if dg[u, v] != d_g or not (d_h == -1 or d_h > d_g + k):
            problems.append(f"row {i}: ({u}, {v}) was not a violating pair")
        if c_a - STEP_LAW_WEIGHT * v_a > c_b - STEP_LAW_WEIGHT * v_b:
            problems.append(f"row {i}: c - 12 v increased")
        if prev is not None and (v_b, c_b) != (prev[7], prev[9]):
            problems.append(f"row {i}: potential/cost do not chain from row {i - 1}")
        prev = body[i]
    if k == 2 and body:
        deg = np.bincount(h_edges.ravel(), minlength=n)
        dh = hop_distances(n, h_edges)
        both = np.isfinite(dg) & np.isfinite(dh)
        both[np.tril_indices(n)] = False
        potential = int(np.maximum(dg[both] - dh[both] + POTENTIAL_SLACK, 0).sum())
        if (body[0][6], body[0][8]) != (0, 0):
            problems.append("first row does not start from the empty seed")
        if body[-1][9] != int((deg ** 2).sum()) or body[-1][7] != potential:
            problems.append("last row's cost/potential do not match the spanner")
        if sum(r[5] for r in body) != len(h_edges):
            problems.append("new_edges do not sum to the spanner's edge count")
    return problems[:5]


def check_verify(returncode: int, stdout: str, k: int) -> list[str]:
    """``verify`` of an independently checked spanner must accept it."""
    if returncode != 0 or stdout.strip() != f"valid additive {k}-spanner":
        return [f"verify exited {returncode} with {stdout.strip()[:80]!r}"]
    return []


class DigestTable:
    """Expected output digests, keyed by the call and its input's digest.

    Keys recorded in ``digests.json`` pin the output bytes the program must
    keep producing.  A key not in the file is pinned by its first output in
    the run, so later rounds must repeat it byte for byte.
    """

    def __init__(self, path: Optional[Path] = DIGESTS_FILE):
        self.recorded: dict[str, str] = {}
        if path is not None and path.exists():
            self.recorded = json.loads(path.read_text(encoding="utf-8"))
        self.seen: dict[str, str] = {}

    @staticmethod
    def key(input_digest: str, k: int, output: str) -> str:
        """Key of ``output`` ("spanner" or "trace") of a k-build of an input."""
        return f"{input_digest[:16]}:build-k{k}:{output}"

    def check(self, key: str, digest: str) -> list[str]:
        expected = self.recorded.get(key) or self.seen.setdefault(key, digest)
        if digest != expected:
            source = "recorded" if key in self.recorded else "first-round"
            return [f"{key}: output digest differs from the {source} digest"]
        return []
