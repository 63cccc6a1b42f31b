"""Command-line surface: generate graphs, build/verify spanners, dump traces
and run size-scaling sweeps with a log-log exponent fit.

Exit codes: 0 success, 1 verification failure, 2 input contract failure.
Commands signal an input contract failure by raising ValueError (bad
arguments or file contents) or OSError (unreadable input, unwritable output),
which ``main`` turns into one ``error:`` line and exit code 2; a fault that a
build finds in its own result, a SelfCheckError, gets one and exit code 1.
"""
from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from pathlib import Path as FilePath
from typing import Sequence

from .diagnostics import Violation, verify_spanner
from .engine import CompletionTrace, SelfCheckError, build_spanner
from .graph import (
    NAMED_FAMILIES,
    check_k,
    gen_gnp,
    gen_named,
    read_edge_list,
    serialize_edge_list,
)
from .sweep import SweepRecord, fit_exponent, run_sweep

TRACE_COLUMNS = [
    "step", "u", "v", "d_g", "d_h_before", "new_edges",
    "v_before", "v_after", "c_before", "c_after",
]


def _write_trace_csv(path: str, trace: CompletionTrace) -> None:
    v, c = trace.potentials, trace.costs
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for i, s in enumerate(trace.steps):
            writer.writerow([
                i, *s.pair, s.d_g, s.d_h_before, s.new_edges, v[i], v[i + 1], c[i], c[i + 1],
            ])


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "gnp":
        if args.p is None:
            raise ValueError("--p is required for family gnp")
        g = gen_gnp(args.n, args.p, args.seed)
    else:
        g = gen_named(args.family, args.n)
    FilePath(args.out).write_text(serialize_edge_list(g), encoding="utf-8")
    print(f"n={g.n} m={g.edge_count}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    # one file cannot hold both outputs: the spanner, written last, would replace the trace;
    # two existing names are one file when they share an inode, as hard links do
    if args.trace_out is not None and (
            os.path.samefile(args.trace_out, args.out)
            if os.path.exists(args.trace_out) and os.path.exists(args.out)
            else os.path.realpath(args.trace_out) == os.path.realpath(args.out)):
        raise ValueError(f"--trace-out and --out name the same file '{args.out}'")
    g = read_edge_list(args.input)
    h, trace = build_spanner(g, args.k, record_potentials=args.trace_out is not None)
    spanner = h.to_graph()
    if args.trace_out is not None:
        _write_trace_csv(args.trace_out, trace)
    # the spanner is written last, so its file exists only after a build that exits 0
    try:
        FilePath(args.out).write_text(serialize_edge_list(spanner), encoding="utf-8")
    except OSError:
        # nor does the trace file; a device or a link named by --trace-out stays
        if args.trace_out is not None:
            trace_out = FilePath(args.trace_out)
            if trace_out.is_file() and not trace_out.is_symlink():
                trace_out.unlink()
        raise
    print(
        f"n={g.n} m_in={g.edge_count} m_seed={trace.seed_edge_count} "
        f"m_out={spanner.edge_count} steps={len(trace.steps)}"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    violations = verify_spanner(read_edge_list(args.graph), read_edge_list(args.spanner), args.k)
    if violations:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(Violation._fields)
        writer.writerows(violations)
        return 1
    print(f"valid additive {args.k}-spanner")
    return 0


def _parse_list(flag: str, text: str, kind: type) -> list:
    try:
        return [kind(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(
            f"{flag} must be a comma-separated list of {kind.__name__} values, got {text!r}"
        ) from None


def _cmd_sweep(args: argparse.Namespace) -> int:
    n_values = _parse_list("--n", args.n, int)
    if args.family == "gnp" and not args.p:
        raise ValueError("--p is required for family gnp")
    p_values = _parse_list("--p", args.p, float) if args.family == "gnp" else []
    records = run_sweep(args.family, n_values, p_values, args.seeds, args.k)
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(SweepRecord._fields)
        writer.writerows(r._replace(ratio_32=f"{r.ratio_32:.6f}", ratio_43=f"{r.ratio_43:.6f}",
                                    wall_time_ms=f"{r.wall_time_ms:.3f}") for r in records)
    for p in dict.fromkeys(r.p_or_param for r in records):
        group = [r for r in records if r.p_or_param == p]
        label = f"family={args.family}" + (f" p={p}" if p else "")
        points = [(r.n, r.final_edges) for r in group]
        try:
            fit = fit_exponent(points)
        except ValueError as exc:
            print(f"{label} k={args.k}: fit omitted ({exc})")
            continue
        print(
            f"{label} k={args.k}: slope={fit.slope:.4f} intercept={fit.intercept:.4f} "
            f"r2={fit.r2:.4f} points={fit.points} "
            f"max_ratio_32={max(r.ratio_32 for r in group):.4f} "
            f"max_ratio_43={max(r.ratio_43 for r in group):.4f}"
        )
    return 0


@functools.cache  # main parses with one parser per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addspan",
        description="Additive spanners of unweighted graphs by shortest-path completion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a graph and write its edge list")
    p_gen.add_argument("--family", required=True, choices=("gnp",) + NAMED_FAMILIES)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=float, default=None, help="edge probability (gnp only)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_build = sub.add_parser("build", help="build a spanner from an edge-list file")
    p_build.add_argument("--input", required=True)
    p_build.add_argument("--k", type=int, required=True,
                         help="additive constant; only k=2 and k=6 carry a size guarantee")
    p_build.add_argument("--out", required=True)
    p_build.add_argument("--trace-out", default=None, help="write per-step CSV trace")
    p_build.set_defaults(func=_cmd_build)

    p_verify = sub.add_parser("verify", help="verify a spanner file against a graph file")
    p_verify.add_argument("--graph", required=True)
    p_verify.add_argument("--spanner", required=True)
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="size-scaling sweep with log-log exponent fit")
    p_sweep.add_argument("--family", required=True, choices=("gnp",) + NAMED_FAMILIES)
    p_sweep.add_argument("--n", required=True, help="comma-separated node counts")
    p_sweep.add_argument("--p", default=None, help="comma-separated probabilities (gnp)")
    p_sweep.add_argument("--seeds", type=int, default=1, help="seeds per point (gnp)")
    p_sweep.add_argument("--k", type=int, default=2)
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # build, verify and sweep take --k; check it before reading any input
        check_k(getattr(args, "k", 0))
        return args.func(args)
    except (OSError, ValueError, SelfCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, SelfCheckError) else 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
