"""Brute-force spanner verification and trace-level invariant checks."""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .engine import CompletionTrace, SubgraphState, cost_degsq
# unused here: perfbench's tracer looks the potential up as a name of this module
from .engine import potential_from_matrices  # noqa: F401
from .graph import UNREACHABLE, Graph, _is_subgraph, _pair_blocks, apsp, check_k


class TraceContractError(ValueError):
    """Trace is of the wrong k or was recorded without potentials."""


class Violation(NamedTuple):
    """A pair whose subgraph distance exceeds the additive budget, and a row
    of ``verify``'s table.

    ``d_h`` is UNREACHABLE when the pair is disconnected in H; ``excess`` is
    then infinite.
    """

    u: int
    v: int
    d_g: int
    d_h: int
    excess: float


def verify_spanner(g: Graph, h: Graph, k: int) -> list[Violation]:
    """Exact check that H is an additive k-spanner of G via full APSP on both
    graphs: ValueError unless H is a subgraph of G (H may lack trailing
    isolated nodes of G), else the pairs with d_H(u, v) > d_G(u, v) + k, empty
    when H is valid.  Pairs disconnected in G are skipped; k lies in 0..MAX_K.
    Both APSPs stay: unlike the build's self-check, which certifies the d_H
    that ``complete`` repaired, this has no d_H to certify.  The rows hold
    Python ints and floats, and the pairs H disconnects share one inf."""
    check_k(k)
    dg = apsp(g).dist if h.n <= g.n else None  # no APSP for an H on more nodes
    if dg is None or not _is_subgraph(dg, h):
        raise ValueError("spanner is not a subgraph of the input graph")
    indptr = np.concatenate((h.indptr, np.full(g.n - h.n, h.indptr[-1])))  # isolated tail
    dh = apsp(Graph(g.n, indptr, h.indices)).dist
    violations = []
    for r, _, viol in _pair_blocks(dg, dh, k):
        u, v = viol.nonzero()
        u += r
        rows = zip(u.tolist(), v.tolist(), dg[u, v].tolist(), dh[u, v].tolist())
        violations += (Violation(a, b, d_g, d_h, math.inf if d_h == UNREACHABLE else
                                 float(d_h - d_g)) for a, b, d_g, d_h in rows)
    return violations


def check_cauchy_bound(h: SubgraphState) -> bool:
    """n * (sum of squared degrees) >= 4 * m**2; exact algebra, so a False
    result signals an implementation bug."""
    return h.host.n * cost_degsq(h) >= 4 * h.edge_count ** 2


def _step_changes(trace: CompletionTrace, k: int, use: str) -> np.ndarray:
    """Each step's int64 change of the potential, then of the cost, which its
    new edges raise; TraceContractError unless ``trace`` is a k-trace with potentials."""
    if trace.k != k:
        raise TraceContractError(f"{use} needs a k={k} trace")
    if not trace.potentials_recorded:
        raise TraceContractError("trace was recorded without potentials")
    return np.diff(np.array([trace.potentials, trace.costs], dtype=np.int64))


def check_2spanner_step_law(trace: CompletionTrace) -> list[int]:
    """Per-step change of (squared-degree cost - 12 * potential) along a
    2-spanner trace.  The companion assertion is that every delta is <= 0."""
    dv, dc = _step_changes(trace, 2, "step law")
    return (dc - 12 * dv).tolist()


def measure_6spanner_step_ratio(trace: CompletionTrace) -> list[float]:
    """Per-step potential gain per new edge along a 6-spanner trace; reported,
    never asserted (the analysis hides its constant)."""
    dv, dc = _step_changes(trace, 6, "ratio report")
    return (dv / dc).tolist()
