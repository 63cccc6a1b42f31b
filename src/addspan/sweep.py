"""Size-scaling sweeps: one spanner per (n, p, seed) point, timed, and a
log-log least-squares fit of spanner size against n."""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .engine import build_spanner
from .graph import _index, gen_gnp, gen_named


class SweepRecord(NamedTuple):
    """One benchmark row of a size-scaling sweep, and a row of its CSV."""

    family: str
    n: int
    p_or_param: str
    seed: int
    k: int
    input_edges: int
    seed_edges: int
    final_edges: int
    ratio_32: float
    ratio_43: float
    steps: int
    wall_time_ms: float


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares fit of log(m) against log(n)."""

    slope: float
    intercept: float
    r2: float
    points: int


def fit_exponent(points: Sequence[tuple[int, int]]) -> ExponentFit:
    """Ordinary least squares on (log n, log m); needs >= 3 points with
    >= 3 distinct n, all n >= 1 and all m >= 1."""
    if len(points) < 3 or len({n for n, _ in points}) < 3:
        raise ValueError("exponent fit needs at least 3 points with distinct n")
    if any(n < 1 for n, _ in points):
        raise ValueError("exponent fit needs all node counts >= 1")
    if any(m < 1 for _, m in points):
        raise ValueError("exponent fit needs all edge counts >= 1")
    x = np.log([n for n, _ in points])
    y = np.log([m for _, m in points])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ExponentFit(float(slope), float(intercept), r2, len(points))


def run_sweep(
    family: str,
    n_values: Sequence[int],
    p_values: Sequence[float],
    seeds: int,
    k: int,
) -> list[SweepRecord]:
    """Build one spanner per distinct (n, p, seed) point, n ascending and p
    in first-seen order.  For gnp, p_values must be non-empty.  seeds is an
    int (not a bool) of at least 1.  The named families are deterministic:
    they ignore p and seeds and emit one row per n.  A value outside these
    ranges raises ValueError; a value of the wrong type raises TypeError.
    A build checks its own result, so ``wall_time_ms`` includes that check,
    and a fault it finds raises its SelfCheckError."""
    if any(n < 1 for n in n_values):  # the size ratios divide by n
        raise ValueError("sweep node counts must be at least 1")
    if _index(seeds) < 1:
        raise ValueError("sweep seeds must be at least 1")
    gnp = family == "gnp"
    if gnp and not p_values:
        raise ValueError("sweep p list must be non-empty for family gnp")
    ns = sorted(set(n_values))
    if gnp:
        points = [(n, p, s) for n in ns for p in dict.fromkeys(p_values) for s in range(seeds)]
    else:
        points = [(n, None, 0) for n in ns]
    records = []
    for n, p, seed in points:
        g = gen_gnp(n, p, seed) if gnp else gen_named(family, n)
        t0 = time.perf_counter()
        h, trace = build_spanner(g, k)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        m = h.edge_count
        records.append(SweepRecord(
            family=family,
            n=g.n,
            p_or_param=repr(p) if gnp else "",
            seed=seed,
            k=k,
            input_edges=g.edge_count,
            seed_edges=trace.seed_edge_count,
            final_edges=m,
            ratio_32=m / g.n ** 1.5,
            ratio_43=m / g.n ** (4 / 3),
            steps=len(trace.steps),
            wall_time_ms=wall_ms,
        ))
    return records
