"""The benchmark's client process: set-up, then ``addspan`` CLI calls.

    python3 -m perfbench.worker <workload> <seed> <directory>

Set-up is everything from interpreter start to the first call: importing
``addspan`` and numpy, generating the workload's graphs from the seed and
writing their edge-list files to <directory>.  The worker then prints
``ready`` and serves one call per line of standard input (a JSON list of CLI
arguments), answering each with one JSON line: the exit code, the captured
standard output and the wall time of ``addspan.cli.main``.  At the end of
its input it prints its peak resident memory and exits.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import TextIO

from addspan import cli
from perfbench.inputs import WORKLOADS, write_inputs


def run_cli_in_process(argv: list[str]) -> tuple[int, str, float]:
    """One ``addspan`` call through ``cli.main``: (exit code, stdout, wall s)."""
    out = io.StringIO()
    gc.collect()  # every call starts from an empty collector
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this call, as a crashed process would
            traceback.print_exc(file=sys.__stderr__)
            code = -1
    return code, out.getvalue(), time.perf_counter() - t0


def serve(requests: TextIO, replies: TextIO) -> None:
    for line in requests:
        code, stdout, wall = run_cli_in_process(json.loads(line))
        replies.write(json.dumps({"code": code, "stdout": stdout, "wall": wall}) + "\n")
        replies.flush()


def main() -> None:
    name, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    write_inputs(WORKLOADS[name], seed, directory)
    replies = sys.stdout
    replies.write("ready\n")
    replies.flush()
    serve(sys.stdin, replies)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    replies.write(json.dumps({"peak_rss_kb": peak_kb}) + "\n")
    replies.flush()


if __name__ == "__main__":
    main()
