"""Brute-force spanner verification, potential/cost functions and trace-level
invariant checks."""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graph import UNREACHABLE, Graph, apsp, check_k, exceeds

if TYPE_CHECKING:
    from .engine import CompletionTrace, SubgraphState


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


@dataclass(frozen=True)
class StepRatioReport:
    """Per-step potential-gain per edge for a 6-spanner trace; reported,
    never asserted (the analysis hides its constant)."""

    ratios: list[float]
    minimum: float
    median: float
    n_two_thirds: float


def verify_spanner(g: Graph, h: Graph, k: int) -> list[Violation]:
    """Exact check that H is an additive k-spanner of G via full APSP on both
    graphs: ValueError unless H is a subgraph of G (H may lack trailing
    isolated nodes of G), else the pairs with d_H(u, v) > d_G(u, v) + k, empty
    when H is valid.  Pairs disconnected in G are skipped; k lies in 0..MAX_K."""
    check_k(k)
    dg = apsp(g).dist if h.n <= g.n else None  # no APSP for an H on more nodes
    if dg is None or (dg[np.repeat(np.arange(h.n), np.diff(h.indptr)), h.indices] != 1).any():
        raise ValueError("spanner is not a subgraph of the input graph")
    indptr = np.concatenate((h.indptr, np.full(g.n - h.n, h.indptr[-1])))  # isolated tail
    dh = apsp(Graph(g.n, indptr, h.indices)).dist
    out = []
    for u, v in np.argwhere(np.triu(exceeds(dg, dh, k), 1)):
        u, v = int(u), int(v)
        d_h = int(dh[u, v])
        excess = math.inf if d_h == UNREACHABLE else float(d_h - dg[u, v])
        out.append(Violation(u, v, int(dg[u, v]), d_h, excess))
    return out


def potential_from_matrices(dg: np.ndarray, dh: np.ndarray, slack: int) -> int:
    """Sum over unordered distinct pairs of max(0, d_G - d_H + slack); pairs
    unreachable in either graph contribute 0.  ``slack`` must be >= 0."""
    # one n x n temporary, updated in place: with two more per call, some
    # process memory layouts faulted their pages in afresh at every step
    # (about 18k page faults per build of a G(150, 0.05) spanner)
    vals = dg - dh
    vals += slack
    np.maximum(vals, 0, out=vals)
    vals[(dg == UNREACHABLE) | (dh == UNREACHABLE)] = 0
    # each diagonal entry holds slack and every pair is counted twice
    return (int(vals.sum()) - dg.shape[0] * slack) // 2


def cost_edges(h: "SubgraphState") -> int:
    """Edge-count cost of H."""
    return h.edge_count


def cost_degsq(h: "SubgraphState") -> int:
    """Sum of squared H-degrees."""
    return sum(d * d for d in h.deg)


def check_cauchy_bound(h: "SubgraphState") -> bool:
    """n * (sum of squared degrees) >= 4 * m**2; exact algebra, so a False
    result signals an implementation bug."""
    return h.n * cost_degsq(h) >= 4 * h.edge_count ** 2


def check_2spanner_step_law(trace: "CompletionTrace") -> list[int]:
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


def measure_6spanner_step_ratio(trace: "CompletionTrace") -> StepRatioReport:
    """Per-step potential gain per new edge on a 6-spanner trace, with
    n**(2/3) for context."""
    if trace.k != 6:
        raise TraceContractError("ratio report needs a k=6 trace")
    if not trace.potentials_recorded:
        raise TraceContractError("trace was recorded without potentials")
    ratios = [
        (s.v_after - s.v_before) / (s.c_after - s.c_before) for s in trace.steps
    ]
    return StepRatioReport(
        ratios=ratios,
        minimum=min(ratios) if ratios else math.nan,
        median=statistics.median(ratios) if ratios else math.nan,
        n_two_thirds=trace.n ** (2 / 3),
    )
