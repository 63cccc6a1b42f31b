"""Run one benchmark workload against the ``addspan`` CLI of this checkout.

    python3 perfbench/run.py --workload gnp-dense --seed 0 --seconds 40 --trace 0

One client in a closed loop: each round runs the workload's ``build`` calls,
then one ``verify`` per build, one call at a time, until ``--seconds`` of
rounds have run.  With ``--trace 0`` the calls run in one client process
(``worker.py``) after an untimed warm-up round, every round also times a
fresh client's set-up, and the end-to-end metrics are printed; each time is
scaled to a fixed machine speed by a reference computation run next to it
(``reference.py``).  With
``--trace 1`` the calls run in this process, traced rounds alternate with
untraced ones, and the per-layer metrics are printed.  Every output is
checked by ``check.py``.  The last line of standard output is a JSON
summary; ``--label L`` also writes it, with the machine facts, to
``BENCH_L.json`` at the checkout root.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: the client starts faster and steadier, and a 2-core
# machine shared with this harness stays uncontended.
BLAS_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
if __name__ == "__main__":
    os.environ.update(BLAS_ENV)  # before numpy sizes its thread pool
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

from perfbench import check  # noqa: E402
from perfbench.inputs import WORKLOADS, Workload, write_inputs  # noqa: E402
from perfbench.reference import speed_adjusted, time_reference  # noqa: E402

WORK_DIR = ROOT / ".perfbench_run"
CALL_TIMEOUT_S = 120

# End-to-end metrics (tracing off): name -> (unit, better).  Times are
# speed-adjusted (``reference.speed_adjusted``).  ``build_s`` and ``verify_s``
# sum, over the round's calls of that kind, each call's median over the timed
# rounds; ``setup_s`` is the median set-up of a fresh client.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "build_s": ("s", "lower"),
    "verify_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "spanner_edges": ("count", "lower"),
}


@dataclass
class Call:
    kind: str  # "build" or "verify"
    label: str
    argv: list[str]
    input_path: Path
    k: int
    out_path: Path
    trace_path: Path | None = None


@dataclass
class RunState:
    """Everything one run accumulates; ``problems`` lists failed checks."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    rounds: list[dict[str, float]] = field(default_factory=list)
    checked: set[str] = field(default_factory=set)


def workload_calls(workload: Workload, inputs: dict[str, Path], out_dir: Path) -> list[Call]:
    """The calls of one round: every build, then a verify of each build."""
    builds, verifies = [], []
    for b in workload.builds:
        out = out_dir / f"{b.label}.spanner.txt"
        trace = out_dir / f"{b.label}.trace.csv" if b.trace_csv else None
        argv = ["build", "--input", str(inputs[b.graph]), "--k", str(b.k), "--out", str(out)]
        if trace is not None:
            argv += ["--trace-out", str(trace)]
        builds.append(Call("build", b.label, argv, inputs[b.graph], b.k, out, trace))
        verifies.append(Call(
            "verify", b.label,
            ["verify", "--graph", str(inputs[b.graph]), "--spanner", str(out), "--k", str(b.k)],
            inputs[b.graph], b.k, out,
        ))
    return builds + verifies


class Client:
    """A ``worker.py`` process for one workload and seed; ``setup_s`` is the
    wall time from starting it until it is ready for the first call."""

    def __init__(self, workload: Workload, seed: int, directory: Path):
        shutil.rmtree(directory, ignore_errors=True)
        env = dict(os.environ, **BLAS_ENV)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT), str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.worker", workload.name, str(seed), str(directory)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        try:
            if self._reply() != "ready":
                raise RuntimeError("benchmark client did not start")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _reply(self) -> str:
        # one request is outstanding at a time, so nothing waits in the buffer
        if not select.select([self.proc.stdout], [], [], CALL_TIMEOUT_S)[0]:
            raise TimeoutError(f"benchmark client silent for {CALL_TIMEOUT_S} s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"benchmark client exited with code {self.proc.wait()}")
        return line.rstrip("\n")

    def call(self, argv: list[str]) -> tuple[int, str, float]:
        """One ``addspan`` call in the client: (exit code, stdout, wall s)."""
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self._reply())
        return reply["code"], reply["stdout"], reply["wall"]

    def finish(self) -> float:
        """End the client; returns its peak resident memory in MB."""
        self.proc.stdin.close()
        peak_kb = json.loads(self._reply())["peak_rss_kb"]
        self.proc.wait(CALL_TIMEOUT_S)
        return peak_kb / 1024.0

    def stop(self) -> None:
        """Kill the client if it still runs, and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            with contextlib.suppress(OSError):
                pipe.close()


def run_cli_in_process(argv: list[str]) -> tuple[int, str, float]:
    """One ``addspan`` call through ``cli.main`` in this process."""
    from perfbench.worker import run_cli_in_process as call

    return call(argv)


def check_call(call: Call, code: int, stdout: str, digests: check.DigestTable,
               state: RunState) -> int:
    """Check one call's output; returns the spanner's edge count (builds)."""
    state.attempted += 1
    problems = [] if code == 0 else [f"exit code {code}"]
    edges = 0
    if call.kind == "verify":
        problems += check.check_verify(code, stdout, call.k)
    elif code == 0:
        g_bytes = call.input_path.read_bytes()
        h_bytes = call.out_path.read_bytes()
        edges = h_bytes.count(b"\n") - 1
        outputs = {"spanner": h_bytes}
        if call.trace_path is not None:
            outputs["trace"] = call.trace_path.read_bytes()
        input_digest = check.sha256(g_bytes)
        for name, data in outputs.items():
            problems += digests.check(digests.key(input_digest, call.k, name), check.sha256(data))
        # identical bytes were already checked in full in an earlier round
        fingerprint = check.sha256(g_bytes + b"".join(outputs.values()))
        if fingerprint not in state.checked:
            try:
                g_text, h_text = g_bytes.decode(), h_bytes.decode()
                problems += check.check_spanner(g_text, h_text, call.k)
                if "trace" in outputs:
                    problems += check.check_trace(g_text, h_text, call.k,
                                                  outputs["trace"].decode())
            except (ValueError, IndexError) as exc:  # malformed output files
                problems.append(f"unreadable output: {exc}")
            if not problems:
                state.checked.add(fingerprint)
    if problems:
        state.failed += 1
        state.problems += [f"{call.kind} {call.label}: {p}" for p in problems]
    return edges


def run_round(calls: list[Call], runner: Callable[[list[str]], tuple[int, str, float]],
              digests: check.DigestTable, state: RunState,
              adjust: bool = False) -> dict[str, float]:
    """Run every call once, one at a time, through ``runner`` (a client's
    ``call`` or ``run_cli_in_process``); returns each call's time, keyed
    ``<kind> <label>``, the round's ``build_s``/``verify_s`` totals, its
    ``spanner_edges`` and its wall-clock ``build_wall_s``/``verify_wall_s``.
    With ``adjust`` the reference runs between calls and the times are
    speed-adjusted; otherwise they are wall times."""
    times = {f"{call.kind} {call.label}": 0.0 for call in calls}
    totals = {"build_s": 0.0, "verify_s": 0.0, "spanner_edges": 0,
              "build_wall_s": 0.0, "verify_wall_s": 0.0}
    reference_before = time_reference() if adjust else 0.0
    for call in calls:
        code, stdout, wall = runner(call.argv)
        if adjust:
            reference_after = time_reference()
            seconds = speed_adjusted(wall, reference_before, reference_after)
            reference_before = reference_after
        else:
            seconds = wall
        times[f"{call.kind} {call.label}"] = seconds
        totals[f"{call.kind}_s"] += seconds
        totals[f"{call.kind}_wall_s"] += wall
        totals["spanner_edges"] += check_call(call, code, stdout, digests, state)
    return {**times, **totals}


def run_untraced(calls: list[Call], seconds: float, client: Client,
                 set_up: Callable[[], float], digests: check.DigestTable,
                 state: RunState) -> dict[str, float]:
    """After an untimed warm-up round, run rounds of calls in ``client``
    until ``seconds`` are used.  Every round also times one fresh client's
    set-up (``set_up``), so that its median, like the calls', samples the
    whole run.  The first client's set-up is not used: it may compile the
    sources."""
    setup_times = []
    start = time.perf_counter()
    run_round(calls, client.call, digests, state, adjust=True)
    last = time.perf_counter() - start
    while not state.rounds or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        reference_before = time_reference()
        wall = set_up()
        setup_times.append(speed_adjusted(wall, reference_before, time_reference()))
        state.rounds.append(run_round(calls, client.call, digests, state, adjust=True))
        last = time.perf_counter() - t0
    per_call = {key: statistics.median(r[key] for r in state.rounds)
                for key in state.rounds[0] if " " in key}
    return {
        "build_s": sum(v for key, v in per_call.items() if key.startswith("build ")),
        "verify_s": sum(v for key, v in per_call.items() if key.startswith("verify ")),
        "peak_rss_mb": client.finish(),
        "spanner_edges": state.rounds[0]["spanner_edges"],
        "setup_s": statistics.median(setup_times),
    }


def run_traced(calls: list[Call], seconds: float,
               digests: check.DigestTable, state: RunState, spans_path: Path) -> dict[str, float]:
    """Alternate untraced and traced in-process rounds; per-layer metrics
    are medians over the traced rounds."""
    from perfbench import tracing

    tracer = tracing.Tracer()
    plain_build, traced_build = [], []

    def run_cli_traced(argv: list[str]) -> tuple[int, str, float]:
        with tracer.instrument(op=state.attempted):
            return run_cli_in_process(argv)

    start = time.perf_counter()
    last = 0.0
    while not state.rounds or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        plain_build.append(run_round(calls, run_cli_in_process, digests, state)["build_s"])
        traced_build.append(run_round(calls, run_cli_traced, digests, state)["build_s"])
        state.rounds.append(tracer.take_round())
        last = time.perf_counter() - t0
    tracer.write(spans_path)
    out = {name: statistics.median(r[name] for r in state.rounds) for name in tracing.PER_LAYER}
    out["trace.overhead_s"] = statistics.median(traced_build) - statistics.median(plain_build)
    return out


def machine_facts() -> dict[str, object]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"])}


def run(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: Path,
        digests: check.DigestTable) -> dict[str, object]:
    """Run one workload; returns the summary (without the machine facts)."""
    state = RunState()
    inputs_dir = work_dir / "inputs"
    inputs = {b.graph: inputs_dir / f"{b.graph}.txt" for b in workload.builds}
    calls = workload_calls(workload, inputs, work_dir / "outputs")
    (work_dir / "outputs").mkdir(parents=True, exist_ok=True)

    if trace:
        from perfbench import tracing

        write_inputs(workload, seed, inputs_dir)
        metrics = run_traced(calls, seconds, digests, state,
                             work_dir / f"spans-{workload.name}-{seed}.jsonl")
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    else:
        client = Client(workload, seed, inputs_dir)
        try:
            first_files = {name: path.read_bytes() for name, path in inputs.items()}

            def set_up() -> float:
                again = work_dir / "inputs-again"
                other = Client(workload, seed, again)
                try:
                    other.finish()
                finally:
                    other.stop()
                if any((again / path.name).read_bytes() != first_files[name]
                       for name, path in inputs.items()):
                    state.problems.append("set-up wrote other input files than the first time")
                return other.setup_s

            metrics = run_untraced(calls, seconds, client, set_up, digests, state)
        finally:
            client.stop()
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    return {
        "correct": state.failed == 0 and not state.problems,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "rounds": len(state.rounds),
        "per_round": {} if trace else {
            name: [r[name] for r in state.rounds]
            for name in ("build_s", "build_wall_s", "verify_s", "verify_wall_s")},
        "problems": state.problems[:20],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default=None, help="also write BENCH_<label>.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "addspan" / "cli.py").is_file():
        print(f"error: no addspan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One CPU for the harness and its clients, so that each time and the
    # reference runs around it see the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    time_reference()  # warm-up
    work_dir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     work_dir, check.DigestTable())
    finally:
        for name in ("inputs", "inputs-again"):
            shutil.rmtree(work_dir / name, ignore_errors=True)
        shutil.rmtree(work_dir / "outputs", ignore_errors=True)
        with contextlib.suppress(OSError):  # kept when it holds a spans file
            work_dir.rmdir()
    facts = machine_facts()
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={result['rounds']} "
          + " ".join(f"{k}={v}" for k, v in facts.items()))
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    for name, values in result["per_round"].items():
        print(f"{name} per round: " + " ".join(f"{v:.4f}" for v in values))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    if args.label:
        bench = {"label": args.label, "workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace, "rounds": result["rounds"],
                 "per_round": result["per_round"], "machine": facts,
                 "problems": result["problems"], **summary}
        (ROOT / f"BENCH_{args.label}.json").write_text(json.dumps(bench, indent=2) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
