"""Immutable unweighted undirected graphs: construction, generators, edge-list
I/O and unweighted shortest-path machinery (APSP, repair of an APSP matrix
after an edge insertion, deterministic paths).

Nodes are dense integer ids 0..n-1.  Distances are hop counts; unreachable
pairs carry the sentinel :data:`UNREACHABLE`.
"""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional

import numpy as np

#: Sentinel stored in distance rows/matrices for unreachable pairs.
UNREACHABLE = -1

#: Largest node count accepted, checked before anything sized by n is
#: allocated: a build keeps int16 n x n distance matrices, 128 MiB each here.
#: A finite distance is at most MAX_NODES - 1, so d(x, a) + 1 + d(b, y) and
#: d_G + min(k, MAX_NODES) fit int16, and UNREACHABLE read as uint16 exceeds both.
#: (n + 3)**2 / 8 < 2**24 keeps ``_seidel``'s float32 products exact: n <= 11,582.
MAX_NODES = 1 << 13

#: Largest additive constant k accepted.  The pair rule clamps k to MAX_NODES,
#: which gives the same answers; the potential (n^2 / 2 terms of at most n + k
#: each) fits int64, and its sum adds back what the clamp takes off.
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
    ascending; the arrays are the only copy of the graph, and ``sorted_edges()``
    (pairs u < v) is derived from them.  Nothing writes the arrays after
    construction, so instances are safe for concurrent reads.
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
        if isinstance(edges, list) or pairs.dtype.kind not in "iu":
            # each id of a list (numpy casts a bool among ints), exact beyond int64
            pairs = np.array(edges, dtype=object)
            for x in pairs.flat:
                if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                    raise GraphFormatError(f"node id {_quote(x)} is not an integer")
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


@dataclass(frozen=True, slots=True)
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
#: The blanks between the tokens of a line; a line ends only at "\n".
_BLANKS = " \t\r"
_BLANK_RUN = re.compile(f"[{_BLANKS}]+")


def _quote(x: object) -> str:
    """A line or id for an error message: the repr of a string cut after
    _QUOTED_CHARS of its characters, or the repr of anything else cut after
    _QUOTED_CHARS characters."""
    text, show = (x, repr) if isinstance(x, str) else (repr(x), str)
    if len(text) <= _QUOTED_CHARS:
        return show(text)
    return f"{show(text[:_QUOTED_CHARS])}... ({len(text)} characters)"


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

    A regular text is tokenised in one vectorised pass; any other goes
    through the line reader, which gives the same graph or names the line at
    fault.
    """
    regular = _regular_edges(text)
    if regular is None:
        return _parse_lines(text)
    return Graph.from_edges(*regular)  # the scan's per-byte arrays are freed by now


def _regular_edges(text: str) -> Optional[tuple[int, np.ndarray]]:
    """The node count and (m, 2) int64 id pairs of a regular text, else None.

    A regular text is ASCII digits, blanks (space, tab, ``\\r``) and ``\\n``
    line ends in lines that hold two ids of at most _MAX_DIGITS digits or
    nothing, after an optional first line ``n <count>``, and has no
    self-loop; the line reader gives the same graph for it.  No per-byte
    array is wider than uint16, and there is no per-byte Python loop."""
    if not text.isascii():
        return None
    body = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    header = body.size > 1 and body[0] == ord("n") and body[1] in b" \t\r"
    if header:
        body = body[1:]
    digit = (body >= ord("0")) & (body <= ord("9"))
    line_end = body == ord("\n")
    if not np.all(digit | line_end | (body == ord(" ")) | (body == ord("\t"))
                  | (body == ord("\r"))):  # the blanks of _BLANKS
        return None
    last = digit.copy()  # the last digit of each run of digits
    last[:-1] &= ~digit[1:]
    # number the run ends and line ends in text order; runs[i] is run i's number
    runs = np.flatnonzero(np.compress(last | line_end, digit))
    if header:  # the count is line 0's only token
        if runs.size == 0 or runs[0] != 0 or (runs.size > 1 and runs[1] == 1):
            return None
        runs = runs[1:]
    # the other runs pair up: no line end inside a pair, one or more between pairs
    if runs.size % 2:
        return None
    at = runs.reshape(-1, 2)
    if np.any(at[:, 1] != at[:, 0] + 1) or np.any(at[1:, 0] == at[:-1, 1] + 1):
        return None
    units = body - ord("0")
    del body, line_end, runs, at  # the value pass below sets the memory peak
    # the value of the run ending at each byte, one decimal place at a time
    value = units.astype(np.uint16)
    inside = digit.copy()  # the digits with ``place`` more digits of their run before them
    for place in range(1, _MAX_DIGITS + 1):
        inside[place:] &= digit[:-place]
        inside[:place] = False
        if place < _MAX_DIGITS:
            # dtype fixed: numpy 1 would keep uint8 * np.uint16(100) in uint8 and wrap
            value[place:] += np.multiply(inside[place:] * units[:-place], 10 ** place,
                                         dtype=np.uint16)
    if inside.any():  # a run longer than _MAX_DIGITS
        return None
    ids = np.compress(last, value).astype(np.int64)
    header_n = int(ids[0]) if header else 0
    pairs = ids[int(header):].reshape(-1, 2)
    if np.any(pairs[:, 0] == pairs[:, 1]):
        return None  # the line reader names the self-loop's line
    return max(header_n, int(pairs.max(initial=-1)) + 1), pairs


def _parse_lines(text: str) -> Graph:
    """``parse_edge_list`` line by line; a malformed line raises a
    GraphFormatError that names it."""
    header_n: Optional[int] = None
    ids: list[int] = []  # u0, v0, u1, v1, ...
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip(_BLANKS)
        if not line or line.startswith("#"):
            continue
        tokens = _BLANK_RUN.split(line)
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
    """Parse an edge-list file: UTF-8 text, a leading byte-order mark skipped.
    The text is read untranslated, so a lone ``\\r`` stays a blank."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as f:
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
    draws = _splitmix64_floats(_index(seed), count)
    iu, iv = np.triu_indices(n, k=1)
    keep = draws < p
    return Graph.from_edges(n, np.column_stack((iu[keep], iv[keep])))


def gen_named(family: str, n: int) -> Graph:
    """Standard families with canonical numbering: path, cycle, complete,
    star (center 0), grid (n = side length, n*n nodes row-major).  The pairs
    are made as arrays once the node count (grid: n*n) passes ``_check_node_count``."""
    if family not in NAMED_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    least = 3 if family == "cycle" else 1
    if n < least:
        what = "side length n" if family == "grid" else "n"
        raise ValueError(f"{family} requires {what} >= {least}")
    nodes = _check_node_count(_index(n) * n if family == "grid" else n)
    v = np.arange(nodes)
    if family == "path":
        pairs = np.column_stack((v[:-1], v[1:]))
    elif family == "cycle":
        pairs = np.column_stack((v, np.roll(v, -1)))
    elif family == "complete":
        pairs = np.column_stack(np.triu_indices(nodes, 1))
    elif family == "star":
        pairs = np.column_stack((0 * v[1:], v[1:]))
    else:  # grid: each node's right neighbor, then its lower one
        v = v.reshape(n, n)
        pairs = np.column_stack((np.concatenate((v[:, :-1], v[:-1]), axis=None),
                                 np.concatenate((v[:, 1:], v[1:]), axis=None)))
    return Graph.from_edges(nodes, pairs)


NAMED_FAMILIES = ("path", "cycle", "complete", "star", "grid")


# ---------------------------------------------------------------------------
# APSP / deterministic shortest paths
# ---------------------------------------------------------------------------

#: Rows per block of Seidel's products, of ``_bfs``'s unpacking and of
#: ``_is_hop_distance``, which bounds their temporaries.
_BLOCK_ROWS = 1024
#: Bytes of frontier words that one gather of a ``_bfs`` level reads at most.
_GATHER_BYTES = 32 << 20
#: ``apsp``'s cost model, in Seidel's float32 multiply-adds: one gathered
#: frontier word of a ``_bfs`` level, and the fixed cost of a level.
_WORD_COST = 200
_LEVEL_COST = 500_000


def apsp(g: Graph) -> DistanceMatrix:
    """All-pairs hop distances: ``dist[u]`` is the hop-distance row of u, a
    C-contiguous int16 matrix, exact since a distance is at most n - 1 < MAX_NODES.

    Two kernels give the same matrix, and the route reads only n, m and the
    levels run, never a clock.  ``_bfs`` runs one BFS from all n sources at
    once; a level costs c = _WORD_COST (2m + n) ceil(n / 64) + _LEVEL_COST
    multiply-adds, its gathered frontier words and its fixed cost.
    ``_seidel`` spends at least 2 ceil(log2(L + 1)) - 1 products of n**3
    multiply-adds on any graph of diameter above L.  After L levels, ``_bfs``
    runs the next one only while (L + 1) c is below that, and otherwise
    ``apsp`` returns ``_seidel``'s matrix; when the second level already fails,
    before any BFS allocation.  So by the model ``apsp`` costs at most about
    twice the cheaper kernel: levels given up after L cost less than Seidel's
    own bill on a graph of diameter at least L, and a finished BFS of a graph
    of diameter D, D + 1 levels, costs less than Seidel's bill for D + 1.

    The weights were checked by timing both kernels with one BLAS thread on
    a 2-core x86-64 VM, on 18 grids, paths, cycles, G(n, p) graphs and a k=6
    seed with n = 64 to 2048, a level's time counted in its graph's Seidel
    product time over n**3: a level took 0.24 to 1.7 times c, 1.2 in the
    median.  c errs high on paths and cycles of up to 200 nodes, whose levels
    are mostly numpy's per-call cost, and on G(n, p) graphs of mean degree
    38 or more: so a path that the BFS cannot win gives up early."""
    dist = _bfs(g, g.n ** 3)
    return DistanceMatrix(g.n, _seidel(g) if dist is None else dist)


def _bfs(g: Graph, budget: float) -> Optional[np.ndarray]:
    """All-pairs hop distances by one level-synchronous BFS from all n sources
    at once, 64 sources per uint64 word, or None as soon as ``apsp``'s rule
    stops it, ``budget`` being the multiply-adds of one of Seidel's products
    (math.inf runs every level).

    Bit i of row w, column v, stands for source 64 w + i at node v; a row of
    words is contiguous, so a block of words is a slice.  The frontier starts
    at each node's own bit.  A level gathers the frontier columns of each
    node's neighbors with ``np.take``, in blocks of words that read at most
    _GATHER_BYTES, and ORs them over the CSR with ``np.bitwise_or.reduceat``.
    That has no empty segment, so an isolated node's segment is the node
    itself, whose column holds only its own bit, reached at level 0.  It keeps
    the bits not yet reached and adds its level number to the bit planes of
    the pairs it reached, plane b holding bit b of the distance.  The planes,
    at most ceil(log2 n), are unpacked into the int16 matrix in blocks of
    _BLOCK_ROWS sources, the rows of the symmetric matrix."""
    n = g.n
    words = -(-n // 64)
    level_cost = _WORD_COST * (g.indices.size + n) * words + _LEVEL_COST

    def affordable(levels: int) -> bool:  # the next level, against Seidel on diameter > levels
        return (levels + 1) * level_cost < (2 * levels.bit_length() - 1) * budget

    if not affordable(1):
        return None
    lonely = np.flatnonzero(np.diff(g.indptr) == 0)
    src = np.insert(g.indices, g.indptr[lonely], lonely)  # an isolated node reads its own column
    starts = g.indptr[:n] + np.searchsorted(lonely, np.arange(n))
    block = max(1, _GATHER_BYTES // (8 * src.size or 1))  # words per gather; no src at n = 0
    ids = np.arange(n)
    front = np.zeros((words, n), dtype=np.uint64)
    front[ids >> 6, ids] = np.left_shift(np.uint64(1), (ids & 63).astype(np.uint64))
    unreached = ~front
    new = np.empty_like(front)
    planes: list[np.ndarray] = []
    for level in range(1, n + 1):  # level n at the latest reaches no pair
        for w in range(0, words, block):
            np.bitwise_or.reduceat(np.take(front[w:w + block], src, axis=1), starts,
                                   axis=1, out=new[w:w + block])
        new &= unreached
        if not np.count_nonzero(new):
            break
        unreached ^= new
        if level == 1 << len(planes):
            planes.append(np.zeros_like(front))
        for b, plane in enumerate(planes):
            if level >> b & 1:
                plane |= new
        front, new = new, front
        if not affordable(level):
            return None
    step = max(1, _BLOCK_ROWS // 64)

    def bits(x: np.ndarray, w: int) -> np.ndarray:  # [word, i, node]: source 64 word + i
        part = x[w:w + step].astype("<u8", copy=False)  # bit i in byte i >> 3, as unpacked
        return np.unpackbits(part.view(np.uint8).reshape(len(part), n, 8), axis=2,
                             bitorder="little").transpose(0, 2, 1)

    # whole words of rows, so that each block is a (words, 64, n) view
    dist = np.empty((64 * words, n), dtype=np.int16)
    for w in range(0, words, step):
        rows = dist[64 * w:64 * (w + step)].reshape(-1, 64, n)
        np.negative(bits(unreached, w), out=rows, dtype=np.int16)  # UNREACHABLE or 0
        for b, plane in enumerate(planes):
            rows += np.left_shift(bits(plane, w), b, dtype=np.int16)
    return dist[:n]


def _seidel(g: Graph) -> np.ndarray:
    """All-pairs hop distances by Seidel's doubling (JCSS 1995) over the
    bit-packed rows of A_j = (0 < d <= 2**j), A_0 being the adjacency matrix.
    Going up, A_{j+1} = A_j + A_j A_j, squared only while A_j has a pair but
    not all of them, so an edgeless or complete graph makes no product.
    Squaring stops when A_{j+1} is complete, so its distances are all 1, or
    adds no pair, so A_j's are.  Going down, t = d_{A_{j+1}} = ceil(d_{A_j} / 2),
    and d_{A_j} is 2t, less one where the row of t summed over the neighbors
    of the column node falls below t times its degree: where t (A_j - D_j) < 0,
    D_j holding A_j's degrees on the diagonal.  The top level is 0/1 (all
    pairs, or the pairs of each component), and there that product falls
    below exactly where A_j has the pair, so the first step down is
    2t - A_j, elementwise, with no product.  A pair of different components
    keeps t = 0, as does the diagonal.  A graph of diameter D > 1 costs
    2 ceil(log2 D) - 1 products of n**3 multiply-adds when connected.

    Every product is float32, exact while its partial sums are integers below
    2**24.  Going up they are at most n.  Going down, a shortest x-y path of
    A_j, of length d, has d - 1 nodes outside N_j(y) and y, so d + D <= n for
    D = deg_j(y); with t = ceil(d / 2), each w in N_j(y) has t[x, w] <= t + 1,
    so the partial sums of (t (A_j - D_j))[x, y] lie in [-D t, D (t + 1)],
    within D (n - D + 3) / 2 <= (n + 3)**2 / 8: 8,394,753 at n = MAX_NODES.
    Other components sum to 0, and the diagonal to D."""
    n = g.n
    a = np.zeros((n, n), dtype=np.float32)
    a[np.repeat(np.arange(n), np.diff(g.indptr)), g.indices] = 1.0
    b = a > 0
    levels = [np.packbits(b, axis=1)]
    pairs = g.indices.size
    # a, b and the product block are reused at every level, and no view of them is
    # kept: a fresh n x n temporary per level was handed back and faulted in again
    prod = np.empty((min(n, _BLOCK_ROWS), n), dtype=np.float32)
    while 0 < pairs < n * (n - 1):
        for r in range(0, n, _BLOCK_ROWS):
            m = min(_BLOCK_ROWS, n - r)
            np.matmul(a[r:r + m], a, out=prod[:m])
            prod[:m] += a[r:r + m]
            np.greater(prod[:m], 0, out=b[r:r + m])
        np.fill_diagonal(b, False)
        count = np.count_nonzero(b)
        if count == pairs:
            break
        levels.append(np.packbits(b, axis=1))
        a[...] = b
        pairs = count
    del b, levels[-1]
    t = a.copy()  # the top level, which the squaring leaves in a
    for step in range(len(levels)):
        packed = levels.pop()
        for r in range(0, n, _BLOCK_ROWS):  # in row blocks: no n x n uint8 temporary
            a[r:r + _BLOCK_ROWS] = np.unpackbits(packed[r:r + _BLOCK_ROWS], axis=1, count=n)
        if step == 0:  # the top level is 0/1: 2t - A_j, with no product (see above)
            t *= 2
            t -= a
            continue
        # A_j - D_j: float32 holds every partial sum of t . a (see above)
        np.fill_diagonal(a, -a.sum(axis=1))
        for r in range(0, n, _BLOCK_ROWS):
            tr = t[r:r + _BLOCK_ROWS]  # a view: t . A reads only these rows of t
            odd = np.matmul(tr, a, out=prod[:len(tr)]) < 0
            tr *= 2
            tr -= odd
    del a, prod
    dist = t.astype(np.int16)
    dist[dist == 0] = UNREACHABLE
    np.fill_diagonal(dist, 0)
    return dist


def insert_edge(
    dist: np.ndarray, a: int, b: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Repair the all-pairs matrix ``dist`` in place after the edge (a, b)
    joins the graph it describes, and return the pairs it changed.

    A shortest path crosses the new edge at most once, so the new d(x, y) is
    min(d(x, y), d(x, a) + 1 + d(b, y)) or the same with a and b swapped.  The
    a-to-b crossing can only shorten pairs with d(x, a) + 1 < d(x, b) and
    d(b, y) + 1 < d(a, y) (Ramalingam & Reps 1996).  Every cell of that
    near_a x near_b block is computed from the rows of a and b as they were
    before the insertion, and only the cells that change are written, each
    with its mirror cell, which keeps ``dist`` symmetric.

    The rows are compared as uint16, where UNREACHABLE (-1) is the largest
    value, so one comparison per near set and one for the changed cells
    handle it.  There d(b, b) - 1 wraps too, which also puts b into near_a
    (and a into near_b) when d(a, b) is finite.  None of those cells changes:
    row b's new distances d(b, a) + 1 + d(b, y) exceed d(b, y), and column
    a's exceed d(x, a), both finite.  So each unordered pair that changes
    appears once, in the block of the exact near sets, which are disjoint.
    The near sets hold finite distances only, so a new one is at most
    2 (MAX_NODES - 1) + 1, which int16 holds.

    When b is isolated and a is not b (near_b is {b} and d(a, b) is
    UNREACHABLE; a neighbor of b would join near_b), the block is column b
    over a's component.  Every cell of it goes from UNREACHABLE to
    d(x, a) + 1, so column b and row b are written with no gather or compare.
    A self-loop (a = b) has near sets {a} and changes nothing.

    Returns ``(x, y, old, new)``: the changed pairs (x[i], y[i]) with their
    distances before and after.  ``dist`` must be a C-contiguous int16
    matrix, as ``apsp`` returns, since the cells are written through its flat
    view and the rows read through a uint16 view; any other raises
    ValueError, where the flat view would be a copy that takes the writes
    instead, or the uint16 view would split each cell.
    """
    if not dist.flags.c_contiguous or dist.dtype != np.int16:
        raise ValueError("insert_edge needs a C-contiguous int16 distance matrix")
    n = dist.shape[0]
    flat = dist.reshape(-1)
    da, db = dist[a], dist[b]
    ua, ub = da.view(np.uint16), db.view(np.uint16)
    near_a = (ua < ub - 1).nonzero()[0]
    near_b = (ub < ua - 1).nonzero()[0]
    if near_b.size == 1 and ub[a] == 0xFFFF:
        # b is isolated: the block is column b over a's component, all UNREACHABLE
        new = da[near_a] + 1
        cells = (near_a, np.full_like(near_a, b), db[near_a], new)
        dist[near_a, b] = new
        db[near_a] = new
        return cells
    cells = np.add.outer(near_a * n, near_b)
    old = flat[cells]
    via = np.add.outer(da[near_a] + 1, db[near_b])
    shorter = via.view(np.uint16) < old.view(np.uint16)
    cells, old, new = cells[shorter], old[shorter], via[shorter]
    x, y = np.divmod(cells, n)
    flat[cells] = new
    flat[y * n + x] = new
    return x, y, old, new


def _as_uint16(d: np.ndarray) -> np.ndarray:
    """An int16 distance array read as uint16, where UNREACHABLE is 0xFFFF,
    above every finite distance and every pair limit.  Any other dtype
    raises ValueError: a uint16 view of wider cells would compare each
    cell's 16-bit pieces instead."""
    if d.dtype != np.int16:
        raise ValueError(f"distances must be int16, as apsp returns, not {d.dtype}")
    return d.view(np.uint16)


def _pair_limit(dg: np.ndarray, k: int) -> np.ndarray:
    """The largest d_H the additive-spanner pair rule allows, one uint16 per
    cell of the int16 distances ``dg``: d_G + min(k, MAX_NODES) where G
    connects the pair, 0xFFFF where it does not.  Clamping k to MAX_NODES
    changes no answer, since a finite d_H is below MAX_NODES, and it is not
    clamped to the array's length, which may be a slice of a row."""
    slack = min(_index(k), MAX_NODES)
    # UNREACHABLE (0xFFFF) is first lowered by slack, so adding it back saturates;
    # both Python ints fit uint16, so numpy 1's value-based casting and numpy 2's
    # weak scalars alike keep uint16
    limit = np.minimum(_as_uint16(dg), 0xFFFF - slack)
    limit += slack
    return limit


def exceeds(dg: np.ndarray, dh: np.ndarray, k: int) -> np.ndarray:
    """The additive-spanner pair rule: mask of the pairs connected in G with
    d_H UNREACHABLE or d_H > d_G + k.  ``dg`` and ``dh`` are matching int16
    distance rows, slices or matrices, compared as uint16 against
    ``_pair_limit``; ``k`` is in 0..MAX_K."""
    return _as_uint16(dh) > _pair_limit(dg, k)


def _is_subgraph(dg: np.ndarray, h: Graph) -> bool:
    """Whether every edge (x, y) of H, on at most ``len(dg)`` nodes, has d_G(x, y) = 1."""
    return not (dg[np.repeat(np.arange(h.n), np.diff(h.indptr)), h.indices] != 1).any()


def _is_hop_distance(h: Graph, d: np.ndarray) -> bool:
    """Whether the int16 matrix ``d`` is H's hop-distance matrix, certified
    column by column in O(m_H n) with no APSP.  Read as uint16, with lo the
    least d(y, z) over the neighbors y of x (UNREACHABLE if x has none), it is
    exactly when:

    - the diagonal is 0 and no other cell is 0;
    - every finite d(x, z) > 0 has lo = d(x, z) - 1;
    - every UNREACHABLE d(x, z) has lo UNREACHABLE.

    Following lo from a finite d(x, z) walks that many edges down to the one 0
    of column z, so d(x, z) is at least the distance.  Along a shortest x-z
    path, each node's d is finite, since its neighbor toward z has a finite d,
    and at most 1 above that neighbor's, since it is lo + 1; so d(x, z) is at
    most the distance.  Both ends of an edge hold lo = d - 1, so its two cells
    are within 1 with no bound on the neighbors' largest d.

    Rows go in blocks of _BLOCK_ROWS in order of falling H-degree, so the rows
    with a neighbor of rank j are a prefix of their block: one gather and one
    minimum per rank, and no temporary larger than a block."""
    n, indptr, indices = h.n, h.indptr, h.indices
    if d.shape != (n, n) or d.diagonal().any():
        return False
    du = _as_uint16(d)
    deg = np.diff(indptr)
    order = np.argsort(-deg, kind="stable")
    zeros = 0
    for r in range(0, n, _BLOCK_ROWS):
        rows = order[r:r + _BLOCK_ROWS]
        rank, start = deg[rows], indptr[rows]
        lo = np.full((rows.size, n), 0xFFFF, dtype=np.uint16)
        for j in range(int(rank[0])):
            c = np.count_nonzero(rank > j)
            np.minimum(lo[:c], du[indices[start[:c] + j]], out=lo[:c])
        f = du[rows]
        zero = f == 0
        zeros += np.count_nonzero(zero)
        # f - 1 wraps only at f = 0, which needs nothing of lo
        if not np.where(f != 0xFFFF, (lo == f - 1) | zero, lo == 0xFFFF).all():
            return False
    return zeros == n


def _walk_to_tree(ptr: memoryview, indices: memoryview, dist: memoryview,
                  tree: set, v: int) -> tuple[int, ...]:
    """The tail of the deterministic shortest path to v from the root of
    ``dist``, the root's hop-distance row: the walk back from v, from the first
    node of ``tree`` it reaches.  ``tree`` holds nodes on such paths, and the
    path to a node is the path to its lowest-id neighbor one level closer plus
    one hop, so the path to v is the path to that node followed by the tail.
    ``ptr`` and ``indices`` are the CSR arrays as memoryviews, which read
    Python ints with no copy.
    """
    nodes = [v]
    cur, d = v, dist[v]
    while cur not in tree:
        d -= 1
        for x in indices[ptr[cur]:ptr[cur + 1]]:
            if dist[x] == d:
                cur = x
                break
        else:
            raise ValueError(f"node {cur} at distance {d + 1} has no neighbor at distance {d}")
        nodes.append(cur)
    return tuple(reversed(nodes))


def shortest_path(g: Graph, u: int, v: int, distances: np.ndarray) -> Path:
    """Deterministic shortest u-v path.

    Tie-break: level-synchronous BFS from u whose parent rule picks, for each
    node, the lowest-id neighbor on the previous level.  Equivalently the
    path is reconstructed backwards from v choosing the smallest predecessor
    at each hop: ``_walk_to_tree`` from the one-node tree {u}.  ``distances``
    is the hop-distance row of u, ``apsp(g).dist[u]``.  A row that is not
    1-D of length n, that does not put u at distance 0, or where some node
    has no neighbor one level closer, is not u's and raises ValueError.
    """
    u, v = _index(u), _index(v)
    for x in (u, v):
        if not 0 <= x < g.n:
            raise ValueError(f"node {x} out of range 0..{g.n - 1}")
    if distances.shape != (g.n,):
        raise ValueError(f"distances of shape {distances.shape} are not a row of {g.n} nodes")
    if distances[u] != 0:
        raise ValueError(f"distances put node {u} at distance {distances[u]}, "
                         f"not 0: they are not the row of {u}")
    dist = memoryview(distances)
    if dist[v] == UNREACHABLE:
        raise NoPathError(f"no path from {u} to {v}")
    try:
        return Path(_walk_to_tree(memoryview(g.indptr), memoryview(g.indices), dist, {u}, v))
    except ValueError as exc:
        raise ValueError(f"{exc}: the distances are not the row of {u}") from None
