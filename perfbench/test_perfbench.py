"""Tests of the benchmark harness itself, on tiny inputs."""
from __future__ import annotations

import json

import pytest

from perfbench import check, reference, run, tracing
from perfbench.inputs import WORKLOADS, Build, Workload, gnp, path, write_inputs

TINY = Workload(
    "tiny",
    "two small graphs, one built with a trace",
    lambda seed: {"line": path(6), "g": gnp(14, 0.4, seed, 0)},
    (Build("line", 2), Build("g", 2, trace_csv=True)),
)


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_gives_byte_identical_inputs(tmp_path, name):
    write_inputs(WORKLOADS[name], 7, tmp_path / "a")
    write_inputs(WORKLOADS[name], 7, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


@pytest.mark.parametrize("name", ["gnp-dense", "potentials"])
def test_gnp_inputs_differ_across_seeds(tmp_path, name):
    write_inputs(WORKLOADS[name], 0, tmp_path / "a")
    write_inputs(WORKLOADS[name], 1, tmp_path / "b")
    a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert a.keys() == b.keys()
    assert all(a[f] != b[f] for f in a)


def _tiny_round(tmp_path):
    inputs = write_inputs(TINY, 3, tmp_path / "inputs")
    calls = run.workload_calls(TINY, inputs, tmp_path / "outputs")
    (tmp_path / "outputs").mkdir()
    digests, state = check.DigestTable(path=None), run.RunState()
    run.run_round(calls, run.run_cli_in_process, digests, state)
    return calls, digests, state


def test_clean_round_passes_every_check(tmp_path):
    _, _, state = _tiny_round(tmp_path)
    assert (state.attempted, state.failed, state.problems) == (4, 0, [])


def test_spanner_with_one_edge_removed_counts_as_failed(tmp_path):
    calls, digests, state = _tiny_round(tmp_path)
    build = calls[0]  # the path: its 2-spanner is the path itself
    lines = build.out_path.read_text().splitlines()
    build.out_path.write_text("\n".join(lines[:2] + lines[3:]) + "\n")
    run.check_call(build, 0, "", digests, state)
    assert state.failed == 1
    assert any("digest differs" in p for p in state.problems)
    assert any("violate" in p for p in state.problems)


def test_malformed_spanner_counts_as_failed(tmp_path):
    calls, digests, state = _tiny_round(tmp_path)
    calls[0].out_path.write_text("n 6\n0 1 2\n")
    run.check_call(calls[0], 0, "", digests, state)
    assert state.failed == 1
    assert any("unreadable output" in p for p in state.problems)


def test_trace_check_catches_broken_step_law(tmp_path):
    calls, _, _ = _tiny_round(tmp_path)
    build = calls[1]
    g, h = build.input_path.read_text(), build.out_path.read_text()
    rows = build.trace_path.read_text().splitlines()
    assert check.check_trace(g, h, 2, "\n".join(rows) + "\n") == []
    cells = rows[1].split(",")
    cells[9] = str(int(cells[9]) + 10_000)  # c_after of the first step
    rows[1] = ",".join(cells)
    problems = check.check_trace(g, h, 2, "\n".join(rows) + "\n")
    assert any("increased" in p for p in problems)
    assert any("chain" in p for p in problems)


class _InProcessClient:
    """Stands in for ``run.Client`` where the workload is not in WORKLOADS."""

    def __init__(self, workload, seed, directory):
        write_inputs(workload, seed, directory)
        self.setup_s = 0.1

    call = staticmethod(run.run_cli_in_process)

    def finish(self):
        return 50.0

    def stop(self):
        pass


def test_client_process_serves_calls_and_ends(tmp_path):
    graph = write_inputs(TINY, 3, tmp_path / "tiny")["line"]
    client = run.Client(WORKLOADS["potentials"], 3, tmp_path / "inputs")
    try:
        assert client.setup_s > 0
        assert (tmp_path / "inputs" / "sparse.txt").is_file()
        out = tmp_path / "line.spanner.txt"
        code, _, wall = client.call(["build", "--input", str(graph), "--k", "2", "--out", str(out)])
        assert code == 0 and wall > 0
        assert out.read_text() == graph.read_text()  # a path is its own 2-spanner
        missing = str(tmp_path / "missing.txt")
        assert client.call(["verify", "--graph", str(graph), "--spanner", missing, "--k", "2"])[0] == 2
        assert client.call(["verify", "--graph", str(graph)])[0] == 2  # rejected by argparse
        assert client.finish() > 0
    finally:
        client.stop()
    assert client.proc.returncode == 0


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_are_declared(tmp_path, monkeypatch, trace):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]

    monkeypatch.setattr(run, "Client", _InProcessClient)
    result = run.run(TINY, 3, 0.0, trace, tmp_path, check.DigestTable(path=None))
    assert result["correct"], result["problems"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in section}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    table = tracing.PER_LAYER if trace else run.END_TO_END
    assert {m["name"]: m["better"] for m in section} == {k: b for k, (_, b) in table.items()}


def test_benchmark_json_lists_every_workload():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]


def test_reference_work_is_fixed_and_adjusts_by_its_time():
    assert reference.reference_work() == reference.reference_work()
    assert reference.time_reference() > 0
    nominal = reference.REFERENCE_S
    assert reference.speed_adjusted(2.0, nominal, nominal) == pytest.approx(2.0)
    # a machine running at half speed doubles both the call and the reference
    assert reference.speed_adjusted(4.0, 2 * nominal, 2 * nominal) == pytest.approx(2.0)
