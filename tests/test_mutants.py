"""Committed mutants: each is a buggy copy of one library function or
module constant, made by replacing one exact snippet of its source, and each
names a deterministic detector on a small corpus that must fail on the mutant
and pass on the unmutated code.

A mutant is compiled from ``inspect.getsource`` of the target, or of a
constant's one assignment line, in a copy of its defining module's globals,
then patched into every namespace of the
package bound to the original, the way the benchmark's tracer swaps names,
and into the rows of tables that hold it, such as ``engine.CONVENTIONS``.
The snippet must occur exactly once, so a rewrite of a target has to update
this table rather than silently skip its mutant.  Each row's scan in
``complete`` moves strictly forward whatever its repair, its stale-d_H check
or its pair rule returns, so mutants of those end, and ``_bfs`` runs at most
n levels, so a mutant whose frontier never empties ends too.  Mutants that can
loop, such as a Seidel stop rule that tests only for a complete square, are
left out.
Dropping the ``0 < pairs`` guard of ``_seidel``'s squaring is no mutant either:
the square of an edgeless graph adds no pair, so the loop stops after one
product with the same answer; the guard only saves that product.
``_is_hop_distance`` has no upper bound over the neighbors to drop: the
edges are symmetric, so d = step at each end of an edge already keeps its two
cells within 1, and a certificate with that bound gives the same verdict; its
``>=`` mutant, which lets a cell sit above its step, is the one that loses it.
"""
import __future__

import contextlib
import inspect
import io
import itertools
import math
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest

import addspan
from addspan import Graph, cli, diagnostics, engine, gen_named, graph, sweep

from conftest import MUTANT_CORPUS as CORPUS, stale_insert_edge
from oracles import (capped_seed, dist_matrix_to_float, floyd_warshall, naive_exceeds,
                     naive_neighbors, parse_outcome, potential_triu, reference_complete,
                     reference_path, reference_rows)

NAMESPACES = (graph, graph.Graph, engine, engine.SubgraphState, engine.CompletionStep, diagnostics,
              sweep, cli, addspan)


# edge lists for the parser: regular texts first, then each kind of line the
# vectorised pass must leave to the line reader
REGULAR_TEXTS = [
    "", "n 4", "0 1", "n 3\n0 1\n1 2\n", "n 2\n0 5\n", "n\t12\n\n 10\t2 \r\n3 0011\r\n",
    "12 345\n6789 10\n", "0 300\n", *(graph.serialize_edge_list(g) for g in CORPUS),
]
OTHER_TEXTS = ["0 1 2 3\n", "0\n1\n", "n 3 4\n", "0 1\n1 1\n", "# c\n0 1\n", "00001 2\n"]


def install(monkeypatch, owner, name: str, old: str, new: str) -> None:
    """Replace ``old`` by ``new`` in the source of ``owner.name`` and patch
    the result in wherever the package binds the original, rows of its
    function tables included."""
    original = vars(owner)[name]
    # a classmethod's function, or a property's getter
    function = getattr(original, "__func__", getattr(original, "fget", original))
    if inspect.isfunction(function):
        source = textwrap.dedent(inspect.getsource(function))
        namespace = dict(function.__globals__)
    else:  # a module constant: its assignment line
        [source] = [line for line in inspect.getsource(owner).splitlines()
                    if line.startswith(f"{name} = ")]
        namespace = dict(vars(owner))
    assert source.count(old) == 1, f"snippet of the {name} mutant is not in its source once"
    code = compile(source.replace(old, new), f"<mutant of {name}>", "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, namespace)
    mutant = namespace[name]
    for space in NAMESPACES:
        for attr, value in list(vars(space).items()):
            if value is original:
                monkeypatch.setattr(space, attr, mutant)
            elif isinstance(value, dict):  # a table of functions, like engine.CONVENTIONS
                for key, row in list(value.items()):
                    if isinstance(row, tuple) and any(x is original for x in row):
                        monkeypatch.setitem(
                            value, key, tuple(mutant if x is original else x for x in row))


def regular_parse_matches_line_reader() -> None:
    """The vectorised pass takes every regular text, and each text parses
    to the line reader's graph or fails with its exception and message."""
    for text in REGULAR_TEXTS:
        assert graph._regular_edges(text) is not None, repr(text)
    for text in REGULAR_TEXTS + OTHER_TEXTS:
        assert parse_outcome(graph.parse_edge_list, text) == \
            parse_outcome(graph._parse_lines, text), repr(text)


def insert_edge_matches_apsp() -> None:
    """Edge by edge from no edges, the repaired matrix equals a fresh APSP."""
    for g in CORPUS:
        edges = g.sorted_edges()
        dist = graph.apsp(graph.Graph.from_edges(g.n, [])).dist
        for i, (a, b) in enumerate(edges):
            graph.insert_edge(dist, *((b, a) if i % 2 else (a, b)))
            prefix = graph.Graph.from_edges(g.n, edges[:i + 1])
            assert dist.tolist() == graph.apsp(prefix).dist.tolist()


def insert_edge_self_loop_changes_nothing() -> None:
    """A self-loop (a, a) shortens no path: no cell changes and no pair is
    returned, with no edges inserted yet and with all of them."""
    for g in CORPUS:
        for dist in (graph.apsp(graph.Graph.from_edges(g.n, [])).dist, graph.apsp(g).dist):
            before = dist.copy()
            for a in range(g.n):
                assert graph.insert_edge(dist, a, a)[0].size == 0, a
                assert (dist == before).all(), a


def insert_edge_repairs_only_c_contiguous() -> None:
    """A Fortran-order or strided matrix is refused and left as it was: its
    flat view would be a copy that takes the repair instead."""
    g = CORPUS[0]
    for layout in (np.asfortranarray, lambda d: np.pad(d, ((0, 0), (0, 1)))[:, :-1]):
        dist = layout(graph.apsp(graph.Graph.from_edges(g.n, [])).dist)
        try:
            graph.insert_edge(dist, *g.sorted_edges()[0])
        except ValueError:
            assert (dist == graph.apsp(graph.Graph.from_edges(g.n, [])).dist).all()
        else:
            raise AssertionError("a matrix that is not C-contiguous was accepted")


def seidel_matches_floyd_warshall() -> None:
    """Seidel's doubling by itself equals the textbook all-pairs distances,
    UNREACHABLE as inf, whichever kernel apsp would pick."""
    for g in CORPUS:
        assert dist_matrix_to_float(graph._seidel(g)) == floyd_warshall(g)


def bfs_matches_floyd_warshall() -> None:
    """The bit-parallel BFS by itself, run to its last level with its gather
    forced to the CSR's segments and then to the padded table, equals the
    textbook all-pairs distances; with isolated nodes after the edges of a
    path and of a star, and with sources in two words."""
    for pad_ratio in (-1, math.inf):
        with pytest.MonkeyPatch.context() as patch:
            # the globals that the installed ``_bfs``, a mutant too, reads
            patch.setitem(graph._bfs.__globals__, "_PAD_RATIO", pad_ratio)
            for g in (*CORPUS, Graph.from_edges(7, [(0, 1), (1, 2), (2, 3)]),
                      Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]),
                      gen_named("cycle", 70)):
                assert dist_matrix_to_float(graph._bfs(g, math.inf)) == floyd_warshall(g)


def max_nodes_keeps_parity_sums_in_float32() -> None:
    """_seidel's float32 parity products are exact while (n + 3)**2 / 8 < 2**24
    (see its docstring), so raising MAX_NODES past 11,582 fails this."""
    assert (graph.MAX_NODES + 3) ** 2 / 8 < 1 << 24


def from_edges_matches_naive_neighbors() -> None:
    """Repeated and reversed pairs collapse to the dict-of-sets adjacency:
    each CSR row holds its node's neighbors once, ascending."""
    for g in CORPUS:
        pairs = [*g.sorted_edges(), *((v, u) for u, v in g.sorted_edges()), *g.sorted_edges()[:3]]
        neighbors = naive_neighbors(g.n, pairs)
        built = graph.Graph.from_edges(g.n, pairs)
        rows = [built.indices[built.indptr[v]:built.indptr[v + 1]].tolist() for v in range(g.n)]
        assert rows == [sorted(neighbors[v]) for v in range(g.n)]


def host_is_exact_0_spanner() -> None:
    """H = G has d_H = d_G on every pair, so it is a valid 0-spanner."""
    for g in CORPUS:
        assert diagnostics.verify_spanner(g, g, 0) == []


def pair_limit_matches_naive_rule() -> None:
    """Against ``_pair_limit``, d_H read as uint16 violates as the int64 rule with
    k unclamped says, on matrices, rows and offset slices of rows, k up to
    MAX_K; any exception is a defect."""
    try:
        for g in CORPUS:
            dg = graph.apsp(g).dist
            dh = graph.apsp(graph.Graph.from_edges(g.n, g.sorted_edges()[::2])).dist
            for k in (0, 1, 2, 6, g.n - 1, g.n, graph.MAX_NODES, graph.MAX_K):
                for at in (np.s_[:, :], np.s_[0], np.s_[g.n - 1, 1:], np.s_[1, 2:4]):
                    violating = dh[at].view(np.uint16) > graph._pair_limit(dg[at], k)
                    assert (violating == naive_exceeds(dg[at], dh[at], k)).all(), (k, at)
        # a 2-cell slice: d_H = 7 is within d_G + 5 = 8, whatever the slice's length
        assert graph._pair_limit(np.int16([3, 3]), 5).tolist() == [8, 8]
    except AssertionError:
        raise
    except Exception as exc:
        raise AssertionError(f"the pair rule raised {exc!r}") from None


def pair_blocks_match_naive_rule() -> None:
    """In blocks of 7 rows and in one block, the sweep's masks, put back
    together, are the naive rule on the pairs x < y, and its blocks start every
    _BLOCK_ROWS rows, for each graph's d_G against the d_H of every other edge
    and a d_H UNREACHABLE in every cell, the diagonal too."""
    for block_rows in (7, graph._BLOCK_ROWS):
        with pytest.MonkeyPatch.context() as patch:
            # the name ``_pair_blocks`` itself reads, which a mutant copies
            patch.setitem(graph._pair_blocks.__globals__, "_BLOCK_ROWS", block_rows)
            for g in CORPUS:
                dg = graph.apsp(g).dist
                for dh in (graph.apsp(graph.Graph.from_edges(g.n, g.sorted_edges()[::2])).dist,
                           np.full_like(dg, graph.UNREACHABLE)):
                    mask, starts = np.zeros(dg.shape, bool), []
                    for r, _, viol in graph._pair_blocks(dg, dh, 2):
                        starts.append(r)
                        mask[r:r + len(viol)] |= viol
                    assert starts == list(range(0, g.n, block_rows)), (block_rows, starts)
                    assert (mask == np.triu(naive_exceeds(dg, dh, 2), 1)).all(), block_rows


def potential_matches_full_sums() -> None:
    """Edge by edge from no edges, the full potential sum and the running sum
    of ``potential_change`` equal the int64 pairwise sum, for slacks up to
    MAX_K - 1, where an UNREACHABLE old cell's term exceeds the uint16 cap;
    any exception is a defect."""
    try:
        for g in CORPUS:
            dg = graph.apsp(g).dist
            for slack in (0, 3, 5, graph.MAX_NODES + 2, graph.MAX_K - 1):
                dist = graph.apsp(graph.Graph.from_edges(g.n, [])).dist
                v = engine.potential_from_matrices(dg, dist, slack)
                assert v == potential_triu(dg, dist, slack), slack
                for a, b in g.sorted_edges():
                    v += engine.potential_change(dg, graph.insert_edge(dist, a, b), slack)
                    assert v == potential_triu(dg, dist, slack), (slack, a, b)
                assert v == engine.potential_from_matrices(dg, dist, slack), slack
    except AssertionError:
        raise
    except Exception as exc:
        raise AssertionError(f"the potential raised {exc!r}") from None


def verify_rejects_larger_spanner() -> None:
    """path-4 has a node that path-3 lacks: not a subgraph, and no IndexError."""
    try:
        diagnostics.verify_spanner(gen_named("path", 3), gen_named("path", 4), 2)
    except Exception as exc:  # any other exception is the defect itself
        assert type(exc) is ValueError, repr(exc)
        assert str(exc) == "spanner is not a subgraph of the input graph"
    else:
        raise AssertionError("a spanner on more nodes than its graph passed")


def verify_matches_floyd_warshall() -> None:
    """The rows are the pairs u < v with d_H > d_G + k in lexicographic order,
    each with its excess d_H - d_G, inf where H disconnects the pair, for
    spanners of no edges, every other edge and all edges, k from 0 to 2, and
    the pairs swept in blocks of 7 rows and in one block."""
    for g in CORPUS:
        dg = floyd_warshall(g)
        for h in (graph.Graph.from_edges(g.n, []),
                  graph.Graph.from_edges(g.n, g.sorted_edges()[::2]), g):
            dh = floyd_warshall(h)
            for k, block_rows in itertools.product((0, 1, 2), (7, graph._BLOCK_ROWS)):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setitem(graph._pair_blocks.__globals__, "_BLOCK_ROWS", block_rows)
                    rows = diagnostics.verify_spanner(g, h, k)
                assert rows == [
                    (u, v, dg[u][v], graph.UNREACHABLE if dh[u][v] == math.inf else dh[u][v],
                     dh[u][v] - dg[u][v])
                    for u in range(g.n) for v in range(u + 1, g.n)
                    if dg[u][v] < math.inf and dh[u][v] > dg[u][v] + k], block_rows


def seed_matches_capped_seed() -> None:
    """The degree-capped seed, and its edges inserted one by one through
    ``add_edge``, each a second time reversed, equal the naive union of each
    node's ``cap`` lowest-id neighbors, H-degrees included, for caps 0 to 3."""
    for g in CORPUS:
        for cap in range(4):
            expected = capped_seed(g, cap)
            degrees = [sum(v in e for e in expected) for v in range(g.n)]
            inserted = engine.SubgraphState(g, [*expected, *((v, u) for u, v in expected)])
            for h in (engine.seed_degree_capped(g, cap), inserted):
                # degrees first: ``edges`` reads them, and wrong ones make it raise
                assert h.deg.tolist() == degrees
                assert h.edges() == expected


def complete_matches_reference() -> None:
    """Each build's edges and steps, potentials included, equal the naive
    reference completion's, for k = 2 from no edges and k = 6 from the
    capped seed; any exception is a defect."""
    for g in CORPUS:
        for k, cap in ((2, 0), (6, engine.default_cap(g.n))):
            seed = engine.seed_degree_capped(g, cap)
            ref_edges, ref_trace = reference_complete(g, seed.edges(), k)
            try:
                h, trace = engine.complete(g, seed, k, record_potentials=True)
            except Exception as exc:
                raise AssertionError(f"the build raised {exc!r}") from None
            assert h.edges() == ref_edges
            assert reference_rows(trace) == ref_trace


def trace_csv_matches_reference() -> None:
    """The trace CSV of each k=2 build from no edges holds the reference
    completion's steps, each with the potential and cost before and after it."""
    with tempfile.TemporaryDirectory() as tmp:
        for g in CORPUS:
            _, (steps, v, c) = reference_complete(g, frozenset(), 2)
            expected = [
                [i, *pair, d_g, graph.UNREACHABLE if d_h == math.inf else d_h, new_edges,
                 v[i], v[i + 1], c[i], c[i + 1]]
                for i, (pair, d_g, d_h, _, new_edges) in enumerate(steps)
            ]
            _, trace = engine.complete(g, engine.SubgraphState(g), 2, record_potentials=True)
            cli._write_trace_csv(f"{tmp}/trace.csv", trace)
            header, *rows = Path(f"{tmp}/trace.csv").read_text().splitlines()
            assert header.split(",") == cli.TRACE_COLUMNS
            assert [[int(x) for x in row.split(",")] for row in rows] == expected


def add_edge_rejects_non_host_edges() -> None:
    """``add_edge`` raises ValueError on every pair that is not a host edge,
    first on a graph whose row 0 is followed by a row that starts with 3."""
    for g in (graph.Graph.from_edges(4, [(0, 2), (1, 3)]), *CORPUS):
        edges = set(g.sorted_edges())
        for u, v in itertools.combinations(range(g.n), 2):
            if (u, v) in edges:
                continue
            try:
                engine.SubgraphState(g).add_edge(u, v)
            except ValueError:
                continue
            raise AssertionError(f"({u}, {v}) is no host edge but add_edge took it")


def shortest_path_matches_reference() -> None:
    """Every connected pair's path is the naive lowest-id shortest path; a
    walk that finds no predecessor in u's own row is a defect too."""
    for g in CORPUS:
        neighbors, dg = naive_neighbors(g.n, g.sorted_edges()), floyd_warshall(g)
        dist = graph.apsp(g).dist
        for u, v in itertools.product(range(g.n), repeat=2):
            if dg[u][v] != math.inf:
                try:
                    path = graph.shortest_path(g, u, v, dist[u])
                except ValueError as exc:
                    raise AssertionError(f"({u}, {v}): {exc}") from None
                assert path.nodes == reference_path(neighbors, dg, u, v)


def shortest_path_refuses_other_rows() -> None:
    """A row that puts u at a distance other than 0 is not u's, and is refused
    for every v, though the walk back from v to u along it is a shortest path
    whenever it passes through u."""
    for g in CORPUS:
        dist = graph.apsp(g).dist
        for u, s, v in itertools.product(range(g.n), repeat=3):
            if s == u:
                continue
            try:
                graph.shortest_path(g, u, v, dist[s])
            except ValueError:
                continue
            raise AssertionError(f"({u}, {v}) took the row of {s}")


def hop_distance_certificate_matches_apsp() -> None:
    """The certificate accepts a matrix exactly when it is apsp's, on each
    graph's matrix and these changes of its column 0: its finite cells one
    higher, one cell one off or UNREACHABLE, and the column read as the BFS
    from another node (n zeros, one off the diagonal) or from node 0 and
    another (two zeros)."""
    for g in CORPUS:
        d = graph.apsp(g).dist
        assert graph._is_hop_distance(g, d)
        e = d.copy()
        e[:, 0] += d[:, 0] != graph.UNREACHABLE
        changed = [e]
        for x in range(1, g.n):
            for value in (d[x, 0] + 1, d[x, 0] - 1, graph.UNREACHABLE):
                e = d.copy()
                e[x, 0] = value
                changed.append(e)
            e = d.copy()
            e[:, 0] = d[:, x]
            changed.append(e)
            e = d.copy()
            e[:, 0] = np.minimum(d[:, 0].view(np.uint16), d[:, x].view(np.uint16)).view(np.int16)
            changed.append(e)
        for e in changed:
            assert graph._is_hop_distance(g, e) == np.array_equal(e, d)


def stale_repair_raises() -> None:
    """With a repair that changes nothing, the first step of a build from no
    edges leaves its pair UNREACHABLE in d_H, and ``complete`` says so."""
    g = gen_named("cycle", 5)
    with pytest.MonkeyPatch.context() as patch:
        # the name ``complete`` itself reads, which a mutant copies
        patch.setitem(engine.complete.__globals__, "insert_edge", lambda dist, a, b: None)
        try:
            engine.complete(g, engine.SubgraphState(g), 0)
        except RuntimeError as exc:
            assert "the repaired d_H is stale" in str(exc), str(exc)
        else:
            raise AssertionError("a stale repair went unreported")


def complete_keeps_dg_read_only() -> None:
    """Each build's d_G, as ``apsp`` returns it, is left read-only and equal to
    a fresh APSP of G, so a write into it raises instead of passing unseen."""
    for g in CORPUS:
        dists = []

        def kept_apsp(g_or_h):
            d = graph.apsp(g_or_h)
            dists.append(d.dist)
            return d

        with pytest.MonkeyPatch.context() as patch:
            # the name ``complete`` itself reads, which a mutant copies
            patch.setitem(engine.complete.__globals__, "apsp", kept_apsp)
            try:
                engine.complete(g, engine.seed_degree_capped(g, 0), 2)
            except ValueError as exc:  # numpy's "assignment destination is read-only"
                raise AssertionError(f"complete wrote into d_G: {exc}") from None
        dg = dists[0]
        assert not dg.flags.writeable
        assert (dg == graph.apsp(g).dist).all()


def complete_outcome(g: graph.Graph, k: int, **names):
    """The H that ``complete`` builds from no edges, with ``names`` patched
    into the globals it reads, or the message of the SelfCheckError it raises."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in names.items():
            patch.setitem(engine.complete.__globals__, name, value)
        try:
            return engine.complete(g, engine.SubgraphState(g), k)[0]
        except engine.SelfCheckError as exc:
            return str(exc)


def builds_pass_own_self_check() -> None:
    """Every build of the corpus from no edges, at k = 0 and k = 2, passes its
    own self-check.  Nothing else is compared, so a scan fault that this
    catches is one the self-check finds by itself."""
    for g in CORPUS:
        for k in (0, 2):
            outcome = complete_outcome(g, k)
            assert isinstance(outcome, engine.SubgraphState), (k, outcome)


def complete_catches_stale_repair() -> None:
    """A repaired cell left one too high where no scan looks fails the build's
    self-check, though H itself is a valid spanner; the true d_H passes."""
    g = gen_named("path", 5)
    for repair, passes in ((graph.insert_edge, True), (stale_insert_edge, False)):
        outcome = complete_outcome(g, 2, insert_edge=repair)
        assert isinstance(outcome, engine.SubgraphState) == passes, outcome


def complete_counts_violations() -> None:
    """A scan whose sweep yields no block keeps the empty seed of C5, which
    leaves all 10 pairs unspanned, and the build's final count, with a sweep of
    its own, says so."""
    sweeps = iter([lambda dg, dh, k: iter(()), graph._pair_blocks])
    outcome = complete_outcome(gen_named("cycle", 5), 2,
                               _pair_blocks=lambda dg, dh, k: next(sweeps)(dg, dh, k))
    assert outcome == "self-check found 10 violations", outcome


def build_fault_exits_1() -> None:
    """A build whose repair changes nothing stops at its first step, and
    ``cli.main`` reports that with exit code 1 and one ``error:`` line, not a
    traceback; any exception is a defect."""
    with (pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp,
          contextlib.redirect_stderr(io.StringIO()) as err):
        patch.setitem(engine.complete.__globals__, "insert_edge", lambda dist, a, b: None)
        tmp = Path(tmp)
        (tmp / "c5.txt").write_text(graph.serialize_edge_list(gen_named("cycle", 5)))
        try:
            code = cli.main(["build", "--input", str(tmp / "c5.txt"), "--k", "2",
                             "--out", str(tmp / "sp.txt")])
        except Exception as exc:
            raise AssertionError(f"the build raised {exc!r}") from None
        assert code == 1 and err.getvalue().count("\n") == 1, (code, err.getvalue())
        assert err.getvalue().startswith("error: pair (0, 1) "), err.getvalue()


# name -> (owner, function, snippet, replacement, detector)
MUTANTS = {
    "insert_edge-one-block": (
        graph, "insert_edge", "    flat[y * n + x] = new\n", "", insert_edge_matches_apsp,
    ),
    "insert_edge-no-unreachable-clause": (
        graph, "insert_edge", "via.view(np.uint16) < old.view(np.uint16)", "via < old",
        insert_edge_matches_apsp,
    ),
    # d(x, a) + 2 = d(x, b) puts x in near_a; d(x, a) + 1 = d(x, b) would change nothing
    "insert_edge-near-set-off-by-one": (
        graph, "insert_edge", "(ua < ub - 1)", "(ua < ub - 2)", insert_edge_matches_apsp,
    ),
    "insert_edge-isolated-column-no-mirror": (
        graph, "insert_edge", "        db[near_a] = new\n", "", insert_edge_matches_apsp,
    ),
    # near sets {a} of a self-loop then look like an isolated b, and d(a, a) becomes 1
    "insert_edge-isolated-guard-size-only": (
        graph, "insert_edge", "near_b.size == 1 and ub[a] == 0xFFFF", "near_b.size == 1",
        insert_edge_self_loop_changes_nothing,
    ),
    "insert_edge-no-contiguity-guard": (
        graph, "insert_edge", "if not dist.flags.c_contiguous or dist.dtype != np.int16:",
        "if False:",
        insert_edge_repairs_only_c_contiguous,
    ),
    "potential-frozen": (
        engine, "complete", "gain += potential_change(dg, cells, slack)", "gain += 0",
        complete_matches_reference,
    ),
    "potential-change-counts-mirror": (
        engine, "potential_change", "change = int(gain.sum())", "change = 2 * int(gain.sum())",
        complete_matches_reference,
    ),
    # slack > MAX_NODES: an UNREACHABLE old cell turning finite would gain the cap, not slack
    "potential-change-no-cap-correction": (
        engine, "potential_change",
        "    if slack > MAX_NODES:\n        change += (slack - MAX_NODES)",
        "    if False:\n        change += 0",
        potential_matches_full_sums,
    ),
    "cost_degsq-sums-degrees": (
        engine, "cost_degsq", "int(h.deg @ h.deg)", "int(h.deg.sum())", complete_matches_reference,
    ),
    "complete-cost-kept": (
        engine, "complete", "costs.append(cost(h))", "costs.append(costs[-1])",
        complete_matches_reference,
    ),
    # the cost series then holds one value per step, each read after the step
    "complete-series-without-seed": (
        engine, "complete", "costs = [cost(h)] if", "costs = [] if", complete_matches_reference,
    ),
    # the first step of a row walks from u itself
    "step-pair-reads-path-start": (
        engine.CompletionStep, "pair", "self.path.nodes[-1]", "self.path.nodes[0]",
        complete_matches_reference,
    ),
    "trace-csv-v_before-is-v_after": (
        cli, "_write_trace_csv", "v[i], v[i + 1]", "v[i + 1], v[i + 1]",
        trace_csv_matches_reference,
    ),
    "add_edge-one-end": (
        engine.SubgraphState, "add_edge", "    self.deg[v] += 1\n", "", seed_matches_capped_seed,
    ),
    "add_edge-counts-edge-in-h": (
        engine.SubgraphState, "add_edge", "if not self._in_h[i]:", "if True:",
        seed_matches_capped_seed,
    ),
    "complete-no-membership-test": (
        engine, "complete", "                if dh[a, b] == 1:\n                    continue\n", "",
        complete_matches_reference,
    ),
    "complete-stale-check-only-above": (
        engine, "complete", "if row[v] != dg_row[v]:", "if row[v] > dg_row[v]:",
        stale_repair_raises,
    ),
    "complete-scan-resumes-one-late": (
        engine, "complete", "[v + 1:] > limit[v + 1:]).nonzero()[0]).size:\n            v += 1 +",
        "[v + 2:] > limit[v + 2:]).nonzero()[0]).size:\n            v += 2 +",
        complete_matches_reference,
    ),
    # the scan's own sweep: pairs with d_H = d_G + k + 1 stay, and only the
    # self-check's sweep, at k, counts them
    "complete-scan-limit-k-plus-1": (
        engine, "complete", "viol in _pair_blocks(dg, dh, k)\n",
        "viol in _pair_blocks(dg, dh, k + 1)\n", builds_pass_own_self_check,
    ),
    # no row has every pair x < y violating (y <= x never does), so the scan visits none
    "complete-row-filter-all": (
        engine, "complete", "viol.any(axis=1)", "viol.all(axis=1)", complete_matches_reference,
    ),
    # the sweep's compare, which ``graph.exceeds`` made before the sweep had its own
    "exceeds-ge": (
        graph, "_pair_blocks", "np.greater(", "np.greater_equal(", host_is_exact_0_spanner,
    ),
    # d(x, x) = 0 never violates, but an UNREACHABLE diagonal cell of d_H does
    "pair-blocks-diagonal-leak": (
        graph, "_pair_blocks", "np.tri(*limits.shape, r, dtype=bool)",
        "np.tri(*limits.shape, r - 1, dtype=bool)", pair_blocks_match_naive_rule,
    ),
    # right in the first block only: later blocks keep their pairs y < x
    "pair-blocks-lower-leak": (
        graph, "_pair_blocks", "np.tri(*limits.shape, r, dtype=bool)",
        "np.tri(*limits.shape, 0, dtype=bool)", pair_blocks_match_naive_rule,
    ),
    # one row between blocks is never swept
    "pair-blocks-stride": (
        graph, "_pair_blocks", "range(0, dg.shape[0], _BLOCK_ROWS)",
        "range(0, dg.shape[0], _BLOCK_ROWS + 1)", pair_blocks_match_naive_rule,
    ),
    # d_G + k in int16: numpy 2 refuses a k beyond int16, numpy 1 wraps it
    "pair-limit-formed-in-int16": (
        graph, "_pair_limit",
        "limit = np.minimum(_as_uint16(dg), 0xFFFF - slack, out=out)\n    limit += slack",
        "limit = np.where(dg == UNREACHABLE, -1, dg + k).astype(np.int16).view(np.uint16)",
        pair_limit_matches_naive_rule,
    ),
    "pair-limit-unclamped": (
        graph, "_pair_limit", "slack = min(_index(k), MAX_NODES)", "slack = k",
        pair_limit_matches_naive_rule,
    ),
    # exact on whole rows, where a finite d_H is below the length, but not on slices
    "pair-limit-clamped-to-length": (
        graph, "_pair_limit", "min(_index(k), MAX_NODES)", "min(_index(k), dg.shape[-1])",
        pair_limit_matches_naive_rule,
    ),
    "shortest_path-highest-predecessor": (
        graph, "_walk_to_tree", "indices[ptr[cur]:ptr[cur + 1]]:",
        "indices[ptr[cur]:ptr[cur + 1]][::-1]:", complete_matches_reference,
    ),
    "shortest_path-same-level": (
        graph, "_walk_to_tree", "dist[x] == d:", "dist[x] == d + 1:",
        shortest_path_matches_reference,
    ),
    "shortest_path-no-source-check": (
        graph, "shortest_path", "if distances[u] != 0:", "if False:",
        shortest_path_refuses_other_rows,
    ),
    # a later row's walks stop at an earlier row's nodes, whose paths H may lack
    "complete-tree-once-per-build": (
        engine, "complete", "tree = {u}", "tree = tree if u else {u}",
        complete_matches_reference,
    ),
    # a later walk passes the step's v and records hops the row already holds
    "complete-walked-v-not-in-tree": (
        engine, "complete", "tree.update(nodes)", "tree.update(nodes[:-1])",
        complete_matches_reference,
    ),
    # the hop from the tree node is never inserted, so the pair's d_H stays stale
    "walk-returns-without-tree-node": (
        graph, "_walk_to_tree", "return tuple(reversed(nodes))",
        "return tuple(reversed(nodes[:-1]))", complete_matches_reference,
    ),
    "complete-d_g-is-walked-length": (
        engine, "complete", "d_g=int(dg_row[v])", "d_g=len(nodes) - 1",
        complete_matches_reference,
    ),
    # (0, 3) on edges {(0, 2), (1, 3)}: row 0 ends where row 1 starts with 3
    "slot-reads-past-row-end": (
        engine.SubgraphState, "_slot", "i < end", "i <= end", add_edge_rejects_non_host_edges,
    ),
    "from_edges-dedupe-mask": (
        graph.Graph, "from_edges", "np.diff(codes, prepend=-1) != 0",
        "np.diff(codes, prepend=-1) >= 0", from_edges_matches_naive_neighbors,
    ),
    # the full sum from d_H = 0 in every cell: each UNREACHABLE cell's uint16 gain wraps
    "potential-start-at-zero": (
        engine, "potential_from_matrices", "np.int16(UNREACHABLE), dh)", "np.int16(0), dh)",
        potential_matches_full_sums,
    ),
    "potential-no-diagonal-correction": (
        engine, "potential_from_matrices", " - dg.shape[0] * slack", "",
        complete_matches_reference,
    ),
    # right for a repair, whose new cells are all finite, but the full sum, from a
    # scalar UNREACHABLE old, then adds back slack - MAX_NODES once, not per finite d_H
    "potential-rest-counts-unreachable-old": (
        engine, "potential_change",
        "(\n            np.count_nonzero(new != UNREACHABLE)"
        " - np.count_nonzero(old != UNREACHABLE))",
        "np.count_nonzero(old == UNREACHABLE)", potential_matches_full_sums,
    ),
    "seed_degree_capped-one-more": (
        engine, "seed_degree_capped", "min(cap, n)", "min(cap + 1, n)", seed_matches_capped_seed,
    ),
    "seed_degree_capped-no-mirror-flags": (
        engine, "seed_degree_capped", "in_h[picked] = in_h[mirror] = True", "in_h[picked] = True",
        seed_matches_capped_seed,
    ),
    "seidel-free-step-without-a_j": (
        graph, "_seidel", "            t -= a\n", "",
        seidel_matches_floyd_warshall,
    ),
    "seidel-free-step-subtracts-top": (
        graph, "_seidel", "            t -= a\n", "            t -= t > 0\n",
        seidel_matches_floyd_warshall,
    ),
    "complete-writes-dg": (
        engine, "complete", " = dg[u], dh[u], dh_u16[u]\n",
        " = dg[u], dh[u], dh_u16[u]\n        dg_row[u] = 0\n",
        complete_keeps_dg_read_only,
    ),
    "self-check-no-fresh-comparison": (
        engine, "complete", "not _is_hop_distance(spanner, dh)", "False",
        complete_catches_stale_repair,
    ),
    # the zeros taken where d has them: a column read as the BFS from two sources,
    # or from another node, is then a fixed point
    "hop-distance-no-zero-count": (
        graph, "_is_hop_distance", "step[np.arange(rows.size), rows] = 0",
        "step[du[rows] == 0] = 0", hop_distance_certificate_matches_apsp,
    ),
    # the diagonal read from d: column 0 one higher, its own cell 1, is then a fixed point
    "hop-distance-no-diagonal-check": (
        graph, "_is_hop_distance", "rows] = 0", "rows] = du[rows, rows]",
        hop_distance_certificate_matches_apsp,
    ),
    # d = step is also the upper bound: with >=, a cell may sit any height above
    "hop-distance-lo-at-most": (
        graph, "_is_hop_distance", "np.array_equal(du[rows], step)", "(du[rows] >= step).all()",
        hop_distance_certificate_matches_apsp,
    ),
    # an UNREACHABLE cell then passes whatever its step
    "hop-distance-no-unreachable-row": (
        graph, "_is_hop_distance", "np.array_equal(du[rows], step)",
        "((du[rows] == step) | (du[rows] == 0xFFFF)).all()",
        hop_distance_certificate_matches_apsp,
    ),
    # uncapped, a cell that reaches nothing steps from 0xFFFF to 0
    "hop-distance-uncapped": (
        graph, "_is_hop_distance", "n), 0xFFFE,", "n), 0xFFFF,",
        hop_distance_certificate_matches_apsp,
    ),
    # a block's i-th row is node rows[i] of the degree order, not node r + i
    "hop-distance-diagonal-at-block-positions": (
        graph, "_is_hop_distance", "step[np.arange(rows.size), rows]",
        "step[np.arange(rows.size), np.arange(r, r + rows.size)]",
        hop_distance_certificate_matches_apsp,
    ),
    "hop-distance-no-increment": (
        graph, "_is_hop_distance", "        step += 1\n", "",
        hop_distance_certificate_matches_apsp,
    ),
    "self-check-no-violation-count": (
        engine, "complete",
        "sum(np.count_nonzero(viol) for _, _, viol in _pair_blocks(dg, dh, k))", "0",
        complete_counts_violations,
    ),
    "cli-main-without-self-check-clause": (
        cli, "main", "(OSError, ValueError, SelfCheckError)", "(OSError, ValueError)",
        build_fault_exits_1,
    ),
    "seidel-no-parity-correction": (
        graph, "_seidel", "            tr -= odd\n", "", seidel_matches_floyd_warshall,
    ),
    # without -deg on the diagonal, t . a < 0 never holds and no parity step subtracts
    "seidel-no-degree-diagonal": (
        graph, "_seidel", "        np.fill_diagonal(a, -a.sum(axis=1))\n", "",
        seidel_matches_floyd_warshall,
    ),
    "seidel-square-without-a_j": (
        graph, "_seidel", "            prod[:m] += a[r:r + m]\n", "", seidel_matches_floyd_warshall,
    ),
    "seidel-diagonal-kept": (
        graph, "_seidel", "        np.fill_diagonal(b, False)\n", "", seidel_matches_floyd_warshall,
    ),
    # a level's OR keeps reached pairs, which its XOR then marks unreached again
    "bfs-no-unreached-mask": (
        graph, "_bfs", "        new &= unreached\n", "", bfs_matches_floyd_warshall,
    ),
    # the planes XORed after ``unreached ^= new``, with unreached & ~new: they then
    # count the levels after a pair's first, its distance less one
    "bfs-records-level-minus-one": (
        graph, "_bfs", "plane ^= unreached\n", "plane ^= unreached & ~new\n",
        bfs_matches_floyd_warshall,
    ),
    # a pair of two components then reads the count of every level run, not UNREACHABLE
    "bfs-planes-not-masked": (
        graph, "_bfs", "        plane &= reached  # a pair never reached counted every level\n",
        "        pass\n", bfs_matches_floyd_warshall,
    ),
    # a node below the largest degree then ORs the frontier of node 0 into its own
    "bfs-pad-reads-node-0": (
        graph, "_bfs", "np.tile(ids, (width, 1))", "np.zeros((width, n), dtype=ids.dtype)",
        bfs_matches_floyd_warshall,
    ),
    # an isolated node then ORs the frontier of node 0 into its own
    "bfs-isolated-reads-a-real-column": (
        graph, "_bfs", "np.insert(src, starts[lonely], lonely)",
        "np.insert(src, starts[lonely], 0)", bfs_matches_floyd_warshall,
    ),
    # no own column: reduceat gives an isolated node the next node's first neighbor
    "bfs-isolated-segment-left-empty": (
        graph, "_bfs", "        if lonely.size:\n", "        if False:\n",
        bfs_matches_floyd_warshall,
    ),
    # 16,384 nodes would let a parity sum reach 2**24, where float32 rounds
    "max-nodes-2**14": (
        graph, "MAX_NODES", "1 << 13", "1 << 14", max_nodes_keeps_parity_sums_in_float32,
    ),
    "regular-no-two-per-line-check": (
        graph, "_regular_edges",
        "if np.any(at[:, 1] != at[:, 0] + 1) or np.any(at[1:, 0] == at[:-1, 1] + 1):",
        "if False:", regular_parse_matches_line_reader,
    ),
    "regular-place-values-reversed": (
        graph, "_regular_edges", "10 ** place,", "10 ** (_MAX_DIGITS - 1 - place),",
        regular_parse_matches_line_reader,
    ),
    "regular-self-loop-taken": (
        graph, "_regular_edges",
        "    if np.any(pairs[:, 0] == pairs[:, 1]):\n        return None", "",
        regular_parse_matches_line_reader,
    ),
    "regular-header-n-only": (
        graph, "_regular_edges", "max(header_n, int(pairs.max(initial=-1)) + 1)",
        "header_n if header else int(pairs.max(initial=-1)) + 1",
        regular_parse_matches_line_reader,
    ),
    "verify_spanner-no-size-guard": (
        diagnostics, "verify_spanner", "apsp(g).dist if h.n <= g.n else None", "apsp(g).dist",
        verify_rejects_larger_spanner,
    ),
    # the sweep's triangle, which ``verify_spanner`` cut itself before the sweep had its own
    "verify_spanner-no-triu": (
        graph, "_pair_blocks", "        limits[np.tri(*limits.shape, r, dtype=bool)] = 0xFFFF\n",
        "", verify_matches_floyd_warshall,
    ),
    "verify_spanner-excess-reversed": (
        diagnostics, "verify_spanner", "float(d_h - d_g)", "float(d_g - d_h)",
        verify_matches_floyd_warshall,
    ),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_caught(monkeypatch, name):
    owner, function, old, new, detector = MUTANTS[name]
    detector()
    install(monkeypatch, owner, function, old, new)
    with pytest.raises(AssertionError):
        detector()
