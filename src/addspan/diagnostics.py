"""Brute-force spanner verification and trace-level invariant checks."""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .engine import CompletionTrace, SubgraphState, cost_degsq
# unused here: perfbench's tracer looks the potential up as a name of this module
from .engine import potential_from_matrices  # noqa: F401
from .graph import UNREACHABLE, Graph, _is_subgraph, apsp, check_k, exceeds


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
    that ``complete`` repaired, this has no d_H to certify."""
    check_k(k)
    dg = apsp(g).dist if h.n <= g.n else None  # no APSP for an H on more nodes
    if dg is None or not _is_subgraph(dg, h):
        raise ValueError("spanner is not a subgraph of the input graph")
    indptr = np.concatenate((h.indptr, np.full(g.n - h.n, h.indptr[-1])))  # isolated tail
    dh = apsp(Graph(g.n, indptr, h.indices)).dist
    u, v = np.triu(exceeds(dg, dh, k), 1).nonzero()
    rows = zip(u.tolist(), v.tolist(), dg[u, v].tolist(), dh[u, v].tolist())
    # Python ints and floats, not int16 scalars; the pairs H disconnects share one inf
    return [Violation(a, b, d_g, d_h, math.inf if d_h == UNREACHABLE else float(d_h - d_g))
            for a, b, d_g, d_h in rows]


def check_cauchy_bound(h: SubgraphState) -> bool:
    """n * (sum of squared degrees) >= 4 * m**2; exact algebra, so a False
    result signals an implementation bug."""
    return h.host.n * cost_degsq(h) >= 4 * h.edge_count ** 2


def check_2spanner_step_law(trace: CompletionTrace) -> list[int]:
    """Per-step change of (squared-degree cost - 12 * potential) along a
    2-spanner trace.  The companion assertion is that every delta is <= 0."""
    if trace.k != 2:
        raise TraceContractError("step law needs a k=2 trace")
    if not trace.potentials_recorded:
        raise TraceContractError("trace was recorded without potentials")
    v, c = trace.potentials, trace.costs
    return [(c[i + 1] - 12 * v[i + 1]) - (c[i] - 12 * v[i]) for i in range(len(trace.steps))]


def measure_6spanner_step_ratio(trace: CompletionTrace) -> list[float]:
    """Per-step potential gain per new edge along a 6-spanner trace; reported,
    never asserted (the analysis hides its constant)."""
    if trace.k != 6:
        raise TraceContractError("ratio report needs a k=6 trace")
    if not trace.potentials_recorded:
        raise TraceContractError("trace was recorded without potentials")
    v, c = trace.potentials, trace.costs
    return [(v[i + 1] - v[i]) / (c[i + 1] - c[i]) for i in range(len(trace.steps))]
