"""Immutable unweighted undirected graphs: construction, generators, edge-list
I/O and unweighted shortest-path machinery (BFS, APSP, repair of an APSP
matrix after an edge insertion, deterministic paths).

Nodes are dense integer ids 0..n-1.  Distances are hop counts; unreachable
pairs carry the sentinel :data:`UNREACHABLE`.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional

import numpy as np

#: Sentinel stored in distance rows/matrices for unreachable pairs.
UNREACHABLE = -1

#: Largest node count accepted, checked before anything sized by n is
#: allocated: a build keeps int64 n x n distance matrices, 512 MiB each here.
MAX_NODES = 1 << 13

#: Largest additive constant k accepted.  For n <= MAX_NODES, d_G + k and the
#: potential sum (n^2 terms of at most n + k + 1 each) fit in int64.
MAX_K = 2 ** 31 - 1

Edge = tuple[int, int]


class GraphFormatError(ValueError):
    """Malformed or oversized input: bad tokens, self-loops, ids out of range."""


class NoPathError(ValueError):
    """A path was requested between nodes in different components."""


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _index(x: int) -> int:
    """The one rule for counts (n, k, cap, seeds): an int, numpy's included."""
    if isinstance(x, bool):  # operator.index(True) is 1
        raise TypeError("'bool' object cannot be interpreted as an integer")
    return operator.index(x)


def _check_node_count(n: int) -> int:
    n = _index(n)
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > MAX_NODES:
        raise GraphFormatError(f"{n} nodes exceed the limit of {MAX_NODES}")
    return n


def check_k(k: int) -> None:
    """Reject an additive constant that is not an integer (a float, even NaN,
    a string or a bool) with a TypeError, and one outside 0..MAX_K with a ValueError."""
    k = _index(k)
    if k < 0:
        raise ValueError("additive constant k must be non-negative")
    if k > MAX_K:
        raise ValueError(f"additive constant k must be at most {MAX_K}")


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected unweighted graph in CSR form.

    The neighbors of node v are ``indices[indptr[v]:indptr[v + 1]]``, sorted
    ascending.  ``sorted_edges()`` (pairs u < v) and ``adjacency`` (the rows
    as tuples of Python ints) are views derived from the arrays.  Nothing
    writes the arrays after construction, so instances are safe for
    concurrent reads.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> "Graph":
        """Graph on nodes 0..n-1 from integer pairs (u, v) in any order;
        duplicate and reversed pairs collapse.  ``edges`` may be an (m, 2) array."""
        n = _check_node_count(n)
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        pairs = np.asarray(edges)  # dtype inferred: a float or string id is not cast
        if pairs.dtype.kind not in "iu":
            # no edges, or ids beyond int64: keep them exact for the range check
            pairs = np.array(edges, dtype=object)
            for x in pairs.flat:
                if not isinstance(x, (int, np.integer)):
                    raise GraphFormatError(f"node id {x!r} is not an integer")
        pairs = pairs.reshape(len(edges), 2)
        u, v = pairs[:, 0], pairs[:, 1]
        bad = np.flatnonzero((u == v) | (u < 0) | (v < 0) | (u >= n) | (v >= n))
        if bad.size:
            a, b = int(u[bad[0]]), int(v[bad[0]])
            if a == b:
                raise GraphFormatError(f"self-loop on node {a}")
            raise GraphFormatError(f"edge ({a}, {b}) outside node range 0..{n - 1}")
        u, v = u.astype(np.int64, copy=False), v.astype(np.int64, copy=False)
        # sort and drop repeats: np.unique's hash path is many times slower
        codes = np.sort(np.concatenate((u * n + v, v * n + u)))
        codes = codes[np.diff(codes, prepend=-1) != 0]
        return cls(n, np.searchsorted(codes, np.arange(n + 1) * n), codes % n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    def sorted_edges(self) -> list[Edge]:
        src = np.repeat(np.arange(self.n), np.diff(self.indptr))
        keep = src < self.indices
        return list(zip(src[keep].tolist(), self.indices[keep].tolist()))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        ptr, flat = self.indptr.tolist(), self.indices.tolist()
        return tuple(tuple(flat[ptr[v]:ptr[v + 1]]) for v in range(self.n))

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency in CSR form: (indptr, indices), neighbors sorted."""
        return self.indptr, self.indices

    @cached_property
    def edge_slots(self) -> dict[Edge, tuple[int, int]]:
        """Map each edge to its two directed positions in ``csr`` indices."""
        indptr, indices = self.csr
        first: dict[Edge, int] = {}
        slots: dict[Edge, tuple[int, int]] = {}
        for v in range(self.n):
            for i in range(int(indptr[v]), int(indptr[v + 1])):
                e = canonical_edge(v, int(indices[i]))
                if e in first:
                    slots[e] = (first[e], i)
                else:
                    first[e] = i
        return slots


@dataclass(frozen=True)
class DistanceMatrix:
    """n x n table of hop distances; UNREACHABLE marks disconnected pairs."""

    n: int
    dist: np.ndarray


@dataclass(frozen=True)
class Path:
    """A simple path as a node sequence; consecutive nodes are adjacent."""

    nodes: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.nodes) - 1

    def hops(self) -> Iterator[Edge]:
        return zip(self.nodes, self.nodes[1:])


# ---------------------------------------------------------------------------
# Parsing / serialization
# ---------------------------------------------------------------------------

_MAX_DIGITS = len(str(MAX_NODES))
_QUOTED_CHARS = 80


def _quote(line: str) -> str:
    """repr of a line for an error message, cut after _QUOTED_CHARS characters."""
    if len(line) <= _QUOTED_CHARS:
        return repr(line)
    return f"{line[:_QUOTED_CHARS]!r}... ({len(line)} characters)"


def _significant_digits(token: str, lineno: int) -> str:
    """An ASCII-digit id or count without its leading zeros.  One with more digits
    than MAX_NODES has is rejected unread: int() refuses 4300 digits or more."""
    digits = token.lstrip("0") or "0"
    if len(digits) > _MAX_DIGITS:
        raise GraphFormatError(f"line {lineno}: an id or count of {len(digits)} digits "
                               f"would exceed the limit of {MAX_NODES} nodes")
    return digits


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: optional header ``n <count>``, one edge
    ``u v`` per line, ``#`` comments.  The count and node ids are ASCII
    decimal digits; n is max(header n, 1 + max id).  Duplicate and reversed
    duplicate edges collapse; self-loops are rejected.
    """
    header_n: Optional[int] = None
    ids: list[int] = []  # u0, v0, u1, v1, ...
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "n" and header_n is None and not ids:
            # str.isdigit alone admits "²" and "١", and int() admits "١" and "1_0"
            if len(tokens) != 2 or not (tokens[1].isascii() and tokens[1].isdigit()):
                raise GraphFormatError(f"line {lineno}: malformed header {_quote(line)}")
            header_n = int(_significant_digits(tokens[1], lineno))
            continue
        if len(tokens) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {_quote(line)}")
        a, b = tokens
        if not (a.isascii() and a.isdigit() and b.isascii() and b.isdigit()):
            raise GraphFormatError(
                f"line {lineno}: node ids must be ASCII digits 0-9, got {_quote(line)}"
            )
        if len(a) > _MAX_DIGITS or len(b) > _MAX_DIGITS:  # short ids need no stripping
            a, b = _significant_digits(a, lineno), _significant_digits(b, lineno)
        u, v = int(a), int(b)
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop on node {u}")
        ids += (u, v)
    n = max(header_n or 0, max(ids, default=-1) + 1)
    return Graph.from_edges(n, np.array(ids, dtype=np.int64).reshape(-1, 2))


def read_edge_list(path: str) -> Graph:
    """Parse an edge-list file: UTF-8 text, a leading byte-order mark skipped."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_edge_list(text)


def serialize_edge_list(g: Graph) -> str:
    """Canonical text form: header line, then edges u < v in sorted order."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Deterministic generators
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64_floats(seed: int, count: int) -> np.ndarray:
    """The first ``count`` floats of the splitmix64 stream of ``seed``, each
    a 53-bit mantissa in [0, 1); a fixed algorithm, so a seed reproduces the
    same graph on every platform and Python version."""
    with np.errstate(over="ignore"):
        states = np.uint64(seed & _MASK64) + np.arange(
            1, count + 1, dtype=np.uint64
        ) * np.uint64(_GOLDEN)
        z = states
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each candidate pair (u, v), u < v, scanned in lexicographic
    order, is included iff the next splitmix64 float is below p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability p={p} outside [0, 1]")
    n = _check_node_count(n)
    count = n * (n - 1) // 2
    draws = _splitmix64_floats(seed, count)
    iu, iv = np.triu_indices(n, k=1)
    keep = draws < p
    return Graph.from_edges(n, np.column_stack((iu[keep], iv[keep])))


def gen_named(family: str, n: int) -> Graph:
    """Standard families with canonical numbering: path, cycle, complete,
    star (center 0), grid (n = side length, n*n nodes row-major).  Edges are
    generated lazily, so ``from_edges`` checks the node count (grid: n) first."""
    if family == "path":
        if n < 1:
            raise ValueError("path requires n >= 1")
        return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))
    if family == "cycle":
        if n < 3:
            raise ValueError("cycle requires n >= 3")
        return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))
    if family == "complete":
        if n < 1:
            raise ValueError("complete requires n >= 1")
        return Graph.from_edges(n, ((u, v) for u in range(n) for v in range(u + 1, n)))
    if family == "star":
        if n < 1:
            raise ValueError("star requires n >= 1")
        return Graph.from_edges(n, ((0, i) for i in range(1, n)))
    if family == "grid":
        if n < 1:
            raise ValueError("grid requires side length n >= 1")
        right = ((v, v + 1) for v in range(n * n) if v % n < n - 1)
        down = ((v, v + n) for v in range(n * n - n))
        return Graph.from_edges(_index(n) * n, itertools.chain(right, down))
    raise ValueError(f"unknown family {family!r}")


NAMED_FAMILIES = ("path", "cycle", "complete", "star", "grid")


# ---------------------------------------------------------------------------
# BFS / APSP / deterministic shortest paths
# ---------------------------------------------------------------------------

def _hop_distances(g: Graph, sources: np.ndarray) -> np.ndarray:
    """Hop distances from each node of ``sources`` (one row each) to every
    node, UNREACHABLE where none, by dense level-synchronous frontier
    expansion: one boolean matrix product per BFS level."""
    dist = np.full((sources.size, g.n), UNREACHABLE, dtype=np.int64)
    dist[np.arange(sources.size), sources] = 0
    adj = np.zeros((g.n, g.n), dtype=np.float32)
    adj[np.repeat(np.arange(g.n), np.diff(g.indptr)), g.indices] = 1.0
    reached = dist == 0
    frontier = (adj[sources] > 0) & ~reached
    d = 0
    while frontier.any():
        d += 1
        dist[frontier] = d
        reached |= frontier
        frontier = (frontier.astype(np.float32) @ adj > 0) & ~reached
    return dist


def apsp(g: Graph) -> DistanceMatrix:
    """All-pairs hop distances: ``dist[u]`` is the hop-distance row of u."""
    return DistanceMatrix(g.n, _hop_distances(g, np.arange(g.n)))


def insert_edge(dist: np.ndarray, a: int, b: int) -> None:
    """Repair the all-pairs matrix ``dist`` in place after the edge (a, b)
    joins the graph it describes.

    A shortest path crosses the new edge at most once, so the new d(x, y) is
    min(d(x, y), d(x, a) + 1 + d(b, y)) or the same with a and b swapped.  The
    a-to-b crossing can only shorten pairs with d(x, a) + 1 < d(x, b) and
    d(b, y) + 1 < d(a, y) (Ramalingam & Reps 1996), so only that block and
    its transpose are written; both are computed from the rows of a and b as
    they were before the insertion, which keeps ``dist`` symmetric.
    """
    da, db = dist[a].copy(), dist[b].copy()
    near_a = np.nonzero((da != UNREACHABLE) & ((db == UNREACHABLE) | (da + 1 < db)))[0]
    near_b = np.nonzero((db != UNREACHABLE) & ((da == UNREACHABLE) | (db + 1 < da)))[0]
    block = dist[np.ix_(near_a, near_b)]
    via = da[near_a, None] + 1 + db[None, near_b]
    block = np.where((block == UNREACHABLE) | (via < block), via, block)
    dist[np.ix_(near_a, near_b)] = block
    dist[np.ix_(near_b, near_a)] = block.T


def exceeds(dg: np.ndarray, dh: np.ndarray, k: int) -> np.ndarray:
    """The additive-spanner pair rule: mask of the pairs connected in G with
    d_H UNREACHABLE or d_H > d_G + k.  ``dg`` and ``dh`` are matching
    distance rows or matrices; ``k`` is at most MAX_K, so d_G + k fits int64."""
    return (dg != UNREACHABLE) & ((dh == UNREACHABLE) | (dh > dg + k))


def shortest_path(g: Graph, u: int, v: int, distances: np.ndarray) -> Path:
    """Deterministic shortest u-v path.

    Tie-break: level-synchronous BFS from u whose parent rule picks, for each
    node, the lowest-id neighbor on the previous level.  Equivalently the
    path is reconstructed backwards from v choosing the smallest predecessor
    at each hop.  ``distances`` is the hop-distance row of u,
    ``apsp(g).dist[u]``.
    """
    for x in (u, v):
        if not 0 <= x < g.n:
            raise ValueError(f"node {x} out of range 0..{g.n - 1}")
    if distances[v] == UNREACHABLE:
        raise NoPathError(f"no path from {u} to {v}")
    nodes = [v]
    cur, d = v, int(distances[v])
    while d > 0:
        for x in g.adjacency[cur]:
            if distances[x] == d - 1:
                cur = x
                break
        nodes.append(cur)
        d -= 1
    return Path(tuple(reversed(nodes)))
