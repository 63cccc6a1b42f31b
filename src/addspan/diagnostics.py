"""Brute-force spanner verification and trace-level invariant checks."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import CompletionTrace, SubgraphState, cost_degsq
# unused here: perfbench's tracer looks the potential up as a name of this module
from .engine import potential_from_matrices  # noqa: F401
from .graph import UNREACHABLE, Graph, apsp, check_k, exceeds


class TraceContractError(ValueError):
    """Trace is of the wrong k or was recorded without potentials."""


@dataclass(frozen=True)
class Violation:
    """A pair whose subgraph distance exceeds the additive budget.

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
    when H is valid.  Pairs disconnected in G are skipped; k lies in 0..MAX_K."""
    check_k(k)
    dg = apsp(g).dist if h.n <= g.n else None  # no APSP for an H on more nodes
    _require_subgraph(dg, h)
    indptr = np.concatenate((h.indptr, np.full(g.n - h.n, h.indptr[-1])))  # isolated tail
    dh = apsp(Graph(g.n, indptr, h.indices)).dist
    out = []
    for u, v in np.argwhere(np.triu(exceeds(dg, dh, k), 1)):
        u, v = int(u), int(v)
        d_g, d_h = int(dg[u, v]), int(dh[u, v])  # Python ints, not int16 scalars
        excess = math.inf if d_h == UNREACHABLE else float(d_h - d_g)
        out.append(Violation(u, v, d_g, d_h, excess))
    return out


def _require_subgraph(dg: Optional[np.ndarray], h: Graph) -> None:
    """ValueError unless d_G is given and every edge (x, y) of H has d_G(x, y) = 1."""
    if dg is None or (dg[np.repeat(np.arange(h.n), np.diff(h.indptr)), h.indices] != 1).any():
        raise ValueError("spanner is not a subgraph of the input graph")


def _self_check(h: SubgraphState, k: int) -> Optional[str]:
    """The build's check of the H that ``complete`` returned, from the d_G and
    the repaired d_H that it left in ``h``, which this takes.  ValueError
    unless H is a subgraph of G, checked through d_G.  Else one line naming
    what failed: pairs that exceed d_G + k, or cells of the repaired d_H that
    a fresh APSP of H does not match; None when neither.  d_G is dropped
    before that APSP, which so runs beside one n x n matrix, as the second
    APSP of ``verify_spanner`` does."""
    dg, dh = h._distances
    h._distances = None
    spanner = h.to_graph()
    _require_subgraph(dg, spanner)
    violations = np.count_nonzero(np.triu(exceeds(dg, dh, k), 1))
    del dg
    if violations:
        return f"self-check found {violations} violations"
    stale = np.count_nonzero(apsp(spanner).dist != dh)
    if stale:
        return (f"self-check found {stale} cells of the repaired d_H "
                "that a fresh APSP of H does not match")
    return None


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
    return [
        (s.c_after - 12 * s.v_after) - (s.c_before - 12 * s.v_before)
        for s in trace.steps
    ]


def measure_6spanner_step_ratio(trace: CompletionTrace) -> list[float]:
    """Per-step potential gain per new edge along a 6-spanner trace; reported,
    never asserted (the analysis hides its constant)."""
    if trace.k != 6:
        raise TraceContractError("ratio report needs a k=6 trace")
    if not trace.potentials_recorded:
        raise TraceContractError("trace was recorded without potentials")
    return [(s.v_after - s.v_before) / (s.c_after - s.c_before) for s in trace.steps]
