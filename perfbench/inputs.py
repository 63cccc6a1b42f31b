"""Workload definitions and seeded input generation.

The benchmark makes its own graphs (it never calls ``addspan`` to generate
them) and hands the program only edge-list files.  Run as a module to set up
one workload's inputs in a fresh process:

    python3 -m perfbench.inputs <workload> <seed> <directory>
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def uniform_stream(seed: int, stream: int, count: int) -> np.ndarray:
    """``count`` floats in [0, 1) from a counter-based splitmix64 stream.

    The starting state hashes (seed, stream), so every stream of every seed
    is independent and identical on every platform and numpy version.
    """
    start = _mix64(_mix64(seed) ^ (stream * _GOLDEN))
    with np.errstate(over="ignore"):
        z = np.uint64(start) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


@dataclass(frozen=True)
class EdgeList:
    """Graph on nodes 0..n-1; ``edges`` is an (m, 2) array, u < v, sorted."""

    n: int
    edges: np.ndarray

    def to_text(self) -> str:
        lines = [f"n {self.n}"]
        lines.extend(f"{u} {v}" for u, v in self.edges.tolist())
        return "\n".join(lines) + "\n"


def _sorted(n: int, u: np.ndarray, v: np.ndarray) -> EdgeList:
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    codes = np.unique(lo.astype(np.int64) * n + hi)
    return EdgeList(n, np.stack([codes // n, codes % n], axis=1))


def gnp(n: int, p: float, seed: int, stream: int) -> EdgeList:
    """G(n, p): candidate pairs u < v in lexicographic order, each kept
    iff its draw is below p."""
    iu, iv = np.triu_indices(n, k=1)
    keep = uniform_stream(seed, stream, iu.size) < p
    return _sorted(n, iu[keep], iv[keep])


def path(n: int) -> EdgeList:
    i = np.arange(n - 1)
    return _sorted(n, i, i + 1)


def cycle(n: int) -> EdgeList:
    i = np.arange(n)
    return _sorted(n, i, (i + 1) % n)


def grid(side: int) -> EdgeList:
    ids = np.arange(side * side).reshape(side, side)
    u = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    v = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    return _sorted(side * side, u, v)


@dataclass(frozen=True)
class Build:
    """One ``addspan build`` call; every build is later verified once."""

    graph: str
    k: int
    trace_csv: bool = False

    @property
    def label(self) -> str:
        return f"{self.graph}.k{self.k}"


@dataclass(frozen=True)
class Workload:
    """A round is every build in order, then one verify per build."""

    name: str
    why: str
    make_graphs: Callable[[int], dict[str, EdgeList]]
    builds: tuple[Build, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gnp-dense",
            "G(384, 0.5), diameter 2: time sits in parsing 37k edges and in the scan's "
            "masked BFS over all host edges, not in APSP",
            lambda seed: {"gnp": gnp(384, 0.5, seed, 0)},
            (Build("gnp", 2), Build("gnp", 6)),
        ),
        Workload(
            "high-diameter",
            "18x18 grid, cycle-200, path-160 (diameter 34-159): per-level APSP matmuls "
            "and level-synchronous BFS dominate",
            lambda seed: {"grid": grid(18), "cycle": cycle(200), "path": path(160)},
            (Build("grid", 2), Build("cycle", 2), Build("path", 2)),
        ),
        Workload(
            "potentials",
            "sparse G(150, 0.05) built with --trace-out: one APSP of H per insertion "
            "makes potential recording dominate",
            lambda seed: {"sparse": gnp(150, 0.05, seed, 1)},
            (Build("sparse", 2, trace_csv=True),),
        ),
    )
}


def write_inputs(workload: Workload, seed: int, directory: Path) -> dict[str, Path]:
    """Write ``<graph>.txt`` for each graph of the workload; returns the paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, g in workload.make_graphs(seed).items():
        paths[name] = directory / f"{name}.txt"
        paths[name].write_text(g.to_text(), encoding="utf-8")
    return paths


if __name__ == "__main__":
    name, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    write_inputs(WORKLOADS[name], seed, directory)
