"""Record the output digests of the current ``addspan`` into digests.json.

    python3 -m perfbench.record_digests 0 99

Runs every build of every workload for seeds 0..99 in this process, checks
each output with ``check.py`` and stores the digests of the outputs that
pass.  Run it only on a commit whose outputs are meant to change.
"""
from __future__ import annotations

import json
import shutil
import sys

from perfbench import check, run
from perfbench.inputs import WORKLOADS, write_inputs


def main(first: int, last: int) -> int:
    table = check.DigestTable(path=None)
    state = run.RunState()
    work_dir = run.WORK_DIR / "record"
    try:
        for workload in WORKLOADS.values():
            for seed in range(first, last + 1):
                inputs = write_inputs(workload, seed, work_dir / "inputs")
                calls = run.workload_calls(workload, inputs, work_dir / "outputs")
                (work_dir / "outputs").mkdir(parents=True, exist_ok=True)
                for call in calls:
                    key = table.key(check.sha256(call.input_path.read_bytes()), call.k, "spanner")
                    if call.kind != "build" or key in table.seen:
                        continue  # high-diameter inputs repeat across seeds
                    code, stdout, _ = run.run_cli_in_process(call.argv)
                    run.check_call(call, code, stdout, table, state)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if state.failed:
        print("\n".join(state.problems), file=sys.stderr)
        return 1
    recorded = json.dumps(dict(sorted(table.seen.items())), indent=0)
    check.DIGESTS_FILE.write_text(recorded + "\n", encoding="utf-8")
    print(f"recorded {len(table.seen)} digests from {state.attempted} builds")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(run.ROOT / "src"))
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
