"""Traced-run mode: spans around the calls into each ``addspan`` layer.

The spans are recorded from the benchmark's side by temporarily replacing
the public functions of ``addspan.graph``, ``engine``, ``diagnostics`` and
``cli`` with timing wrappers; the program itself is unchanged.  Spans stay in
memory (name, start, end, parent, op id) and are written out at the end.

Functions called thousands of times per build (``shortest_path``,
``SubgraphState.add_edge`` and ``bfs_row``) get no span, which would distort
what it measures; after each CLI call they are timed by replaying the
build's own calls (see :func:`replay_build`).
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterator

import addspan
from addspan import cli, diagnostics, engine, graph

# Per-layer metrics, each with its unit and better direction.  Function
# times (``<layer>.<function>_s``) are summed inclusive span durations;
# ``<layer>.self_s`` is the time inside the layer's spans minus their child
# spans, so the four self times partition the traced CLI time.
PER_LAYER = {
    "graph.parse_s": ("s", "lower"),
    "graph.from_edges_s": ("s", "lower"),
    "graph.serialize_s": ("s", "lower"),
    "graph.csr_s": ("s", "lower"),
    "graph.edge_slots_s": ("s", "lower"),
    "graph.apsp_s": ("s", "lower"),
    "graph.apsp_calls": ("count", "lower"),
    "graph.apsp_levels": ("count", "lower"),
    "graph.apsp_flops": ("flop", "lower"),
    "graph.shortest_path_s": ("s", "lower"),
    "graph.self_s": ("s", "lower"),
    "engine.seed_s": ("s", "lower"),
    "engine.complete_s": ("s", "lower"),
    "engine.complete_self_s": ("s", "lower"),
    "engine.bfs_row_s": ("s", "lower"),
    "engine.add_edge_s": ("s", "lower"),
    "engine.bfs_calls": ("count", "lower"),
    "engine.steps": ("count", "lower"),
    "engine.path_edges": ("count", "lower"),
    "engine.new_edges": ("count", "lower"),
    "engine.new_edge_ratio": ("ratio", "higher"),
    "engine.self_s": ("s", "lower"),
    "diagnostics.verify_s": ("s", "lower"),
    "diagnostics.violations": ("count", "lower"),
    "diagnostics.potential_s": ("s", "lower"),
    "diagnostics.potential_calls": ("count", "lower"),
    "diagnostics.step_law_s": ("s", "lower"),
    "diagnostics.step_law_max_delta": ("count", "lower"),
    "diagnostics.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# span name -> per-layer metric it is summed into
_SPAN_METRICS = {
    "graph.parse_edge_list": "graph.parse_s",
    "graph.from_edges": "graph.from_edges_s",
    "graph.serialize_edge_list": "graph.serialize_s",
    "graph.csr": "graph.csr_s",
    "graph.edge_slots": "graph.edge_slots_s",
    "graph.apsp": "graph.apsp_s",
    "engine.seed_empty": "engine.seed_s",
    "engine.seed_degree_capped": "engine.seed_s",
    "engine.complete": "engine.complete_s",
    "diagnostics.verify_spanner": "diagnostics.verify_s",
}


@dataclass
class BuildRecord:
    """What one ``complete`` call needs to be replayed."""

    g: graph.Graph
    seed_edges: frozenset
    h: engine.SubgraphState
    trace: engine.CompletionTrace
    span: int


class Tracer:
    """In-memory span recorder; ``counts`` collects work counted at spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self._stack: list[int] = []
        self._round_start = 0
        self.op = 0
        self.builds: list[BuildRecord] = []
        self.counts = {"graph.apsp_calls": 0, "graph.apsp_levels": 0,
                       "graph.apsp_flops": 0, "diagnostics.violations": 0}

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if after is not None:
                after(result)
            return result
        return traced

    def _after_apsp(self, result: graph.DistanceMatrix) -> None:
        levels = int(result.dist.max()) + 1 if result.n else 0
        self.counts["graph.apsp_calls"] += 1
        self.counts["graph.apsp_levels"] += levels
        self.counts["graph.apsp_flops"] += 2 * result.n ** 3 * levels

    def _after_verify(self, result: list) -> None:
        self.counts["diagnostics.violations"] += len(result)

    def _traced_complete(self, complete: Callable) -> Callable:
        @functools.wraps(complete)
        def traced(g, h, k, *, record_potentials=False):
            seed_edges = h.edges()
            span = len(self.spans)
            h, trace = complete(g, h, k, record_potentials=record_potentials)
            self.builds.append(BuildRecord(g, seed_edges, h, trace, span))
            return h, trace
        return traced

    @contextmanager
    def instrument(self, op: int) -> Iterator[None]:
        """Swap in timing wrappers for the duration of one CLI call."""
        self.op = op
        functions = [
            (graph, "parse_edge_list", None), (graph, "serialize_edge_list", None),
            (graph, "apsp", self._after_apsp), (engine, "seed_empty", None),
            (engine, "seed_degree_capped", None), (engine, "complete", None),
            (engine, "build_2_spanner", None), (engine, "build_6_spanner", None),
            (diagnostics, "verify_spanner", self._after_verify),
            (diagnostics, "potential_from_matrices", None), (cli, "main", None),
        ]
        swaps = []  # (namespace, attribute, original)
        for module, attr, after in functions:
            original = getattr(module, attr)
            wrapped = self.wrap(f"{module.__name__.split('.')[-1]}.{attr}", original, after)
            if attr == "complete":
                wrapped = self._traced_complete(wrapped)
            for namespace in (graph, engine, diagnostics, cli, addspan):
                for name, value in list(vars(namespace).items()):
                    if value is original:
                        swaps.append((namespace, name, value))
                        setattr(namespace, name, wrapped)
        from_edges = vars(graph.Graph)["from_edges"]
        swaps.append((graph.Graph, "from_edges", from_edges))
        graph.Graph.from_edges = classmethod(self.wrap("graph.from_edges", from_edges.__func__))
        to_graph = engine.SubgraphState.to_graph
        swaps.append((engine.SubgraphState, "to_graph", to_graph))
        engine.SubgraphState.to_graph = self.wrap("engine.to_graph", to_graph)
        for attr in ("csr", "edge_slots"):
            prop = vars(graph.Graph)[attr]
            swaps.append((graph.Graph, attr, prop))
            traced = cached_property(self.wrap(f"graph.{attr}", prop.func))
            traced.__set_name__(graph.Graph, attr)
            setattr(graph.Graph, attr, traced)
        try:
            yield
        finally:
            for namespace, name, value in reversed(swaps):
                setattr(namespace, name, value)

    def take_round(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_s``, from the spans
        and builds recorded since the previous call."""
        metrics = span_metrics(self.spans, self._round_start)
        metrics.update(self.counts)
        max_deltas = []
        for record in self.builds:
            _, start, end, _, _ = self.spans[record.span]
            replay = replay_build(record, end - start)
            if "diagnostics.step_law_max_delta" in replay:
                max_deltas.append(replay.pop("diagnostics.step_law_max_delta"))
            for name, value in replay.items():
                metrics[name] += value
        metrics["diagnostics.step_law_max_delta"] = max(max_deltas, default=0)
        paths = metrics["engine.path_edges"]
        metrics["engine.new_edge_ratio"] = metrics["engine.new_edges"] / paths if paths else 0.0
        self.counts = dict.fromkeys(self.counts, 0)
        self.builds.clear()
        self._round_start = len(self.spans)
        return metrics

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")


def span_metrics(all_spans: list[list], first_span: int) -> dict[str, float]:
    """Function times and layer self times of ``all_spans[first_span:]``;
    the per-layer metrics measured elsewhere start at 0."""
    spans = all_spans[first_span:]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= first_span:
            child_time[parent - first_span] += end - start
    out = {name: 0.0 if unit == "s" else 0 for name, (unit, _) in PER_LAYER.items()}
    for i, (name, start, end, _, _) in enumerate(spans):
        duration = end - start
        metric = _SPAN_METRICS.get(name)
        if metric:
            out[metric] += duration
        if name == "engine.complete":
            out["engine.complete_self_s"] += duration - child_time[i]
        out[name.split(".")[0] + ".self_s"] += duration - child_time[i]
    out["trace.spans"] = len(spans)
    return out


def replay_build(record: BuildRecord, complete_duration: float) -> dict[str, float]:
    """Time the build's hot inner calls by replaying them outside the CLI.

    ``graph.shortest_path_s``: each step's path query against d_G.
    ``engine.add_edge_s``: every step's path inserted into a fresh seed.
    ``engine.bfs_row_s``: one ``bfs_row`` per node on the final H.
    ``diagnostics.potential_s``: the traced ``complete`` minus the same
    completion without potentials.
    """
    g, trace, k = record.g, record.trace, record.trace.k
    steps = trace.steps
    out = {
        "engine.steps": len(steps),
        "engine.bfs_calls": g.n + len(steps),
        "engine.path_edges": sum(s.path.length for s in steps),
        "engine.new_edges": sum(s.new_edges for s in steps),
        "diagnostics.potential_calls": len(steps) + 1 if trace.potentials_recorded else 0,
    }
    dg = graph.apsp(g).dist
    t0 = time.perf_counter()
    for s in steps:
        graph.shortest_path(g, s.pair[0], s.pair[1], distances=dg[s.pair[0]])
    out["graph.shortest_path_s"] = time.perf_counter() - t0

    fresh = engine.SubgraphState(g, record.seed_edges)
    t0 = time.perf_counter()
    for s in steps:
        for a, b in s.path.hops():
            fresh.add_edge(a, b)
    out["engine.add_edge_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for u in range(g.n):
        record.h.bfs_row(u)
    out["engine.bfs_row_s"] = time.perf_counter() - t0

    out["diagnostics.potential_s"] = 0.0
    out["diagnostics.step_law_s"] = 0.0
    if trace.potentials_recorded:
        t0 = time.perf_counter()
        engine.complete(g, engine.SubgraphState(g, record.seed_edges), k)
        out["diagnostics.potential_s"] = complete_duration - (time.perf_counter() - t0)
        if k == 2:
            t0 = time.perf_counter()
            deltas = diagnostics.check_2spanner_step_law(trace)
            out["diagnostics.step_law_s"] = time.perf_counter() - t0
            out["diagnostics.step_law_max_delta"] = max(deltas, default=0)
    return out
