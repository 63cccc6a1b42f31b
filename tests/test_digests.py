"""One round of each benchmark workload, its outputs compared with the
digests recorded in ``perfbench/digests.json``.

The benchmark harness is used read-only: its inputs, its calls and its
output checks, run through ``addspan.cli.main`` in this process.
"""
import pytest

from perfbench import check, run
from perfbench.inputs import WORKLOADS, write_inputs


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_round_matches_recorded_digests(tmp_path, name, seed):
    workload = WORKLOADS[name]
    inputs = write_inputs(workload, seed, tmp_path / "inputs")
    calls = run.workload_calls(workload, inputs, tmp_path / "outputs")
    (tmp_path / "outputs").mkdir()
    table, state = check.DigestTable(), run.RunState()
    run.run_round(calls, run.run_cli_in_process, table, state)
    assert (state.attempted, state.failed, state.problems) == (len(calls), 0, [])
    assert table.seen == {}  # every output had a recorded digest
