import math
import os
import re
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import addspan
from addspan import (
    build_spanner,
    fit_exponent,
    read_edge_list,
    run_sweep,
    serialize_edge_list,
)
from addspan.cli import TRACE_COLUMNS, main
from addspan.graph import MAX_K

from conftest import stale_insert_edge

SWEEP_HEADER = ("family,n,p_or_param,seed,k,input_edges,seed_edges,final_edges,"
                "ratio_32,ratio_43,steps,wall_time_ms")


def run(args):
    return main(args)


def write_graph(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestFitExponent:
    def test_exact_power_law(self):
        points = [(10, round(10 ** 1.5)), (100, round(100 ** 1.5)), (1000, round(1000 ** 1.5))]
        fit = fit_exponent(points)
        assert fit.slope == pytest.approx(1.5, abs=0.01)
        assert fit.r2 == pytest.approx(1.0, abs=1e-4)

    def test_constant(self):
        fit = fit_exponent([(10, 5), (100, 5), (1000, 5)])
        assert fit.slope == pytest.approx(0.0, abs=0.01)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_exponent([(10, 5), (100, 7)])

    def test_needs_distinct_n(self):
        with pytest.raises(ValueError):
            fit_exponent([(10, 5), (10, 6), (10, 7)])

    def test_rejects_zero_edges(self):
        with pytest.raises(ValueError):
            fit_exponent([(10, 0), (100, 5), (1000, 7)])

    def test_rejects_zero_nodes(self):
        # unchecked, log(0) warns and then fails inside the least-squares solver
        with pytest.raises(ValueError, match="node counts"):
            fit_exponent([(0, 1), (2, 4), (4, 16)])


class TestGen:
    def test_complete(self, tmp_path, capsys):
        out = str(tmp_path / "k4.txt")
        assert run(["gen", "--family", "complete", "--n", "4", "--out", out]) == 0
        assert capsys.readouterr().out.strip() == "n=4 m=6"
        text = (tmp_path / "k4.txt").read_text()
        assert text.splitlines()[0] == "n 4"
        assert len(text.splitlines()) == 7

    def test_gnp_reproducible_files(self, tmp_path):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        args = ["gen", "--family", "gnp", "--n", "100", "--p", "0.1", "--seed", "42"]
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_bad_params(self, tmp_path):
        out = str(tmp_path / "x.txt")
        assert run(["gen", "--family", "cycle", "--n", "2", "--out", out]) != 0
        assert run(["gen", "--family", "gnp", "--n", "5", "--p", "2.0",
                    "--seed", "1", "--out", out]) != 0

    def test_negative_n(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert run(["gen", "--family", "gnp", "--n", "-1", "--p", "0.5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: n must be non-negative\n"
        assert not out.exists()


class TestBuild:
    def test_k4_k2(self, tmp_path, capsys):
        g = write_graph(tmp_path, "k4.txt", "n 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        out = str(tmp_path / "sp.txt")
        assert run(["build", "--input", g, "--k", "2", "--out", out]) == 0
        assert "m_out=3" in capsys.readouterr().out
        assert len((tmp_path / "sp.txt").read_text().splitlines()) == 4

    def test_p5_k6(self, tmp_path, capsys):
        g = write_graph(tmp_path, "p5.txt", "n 5\n0 1\n1 2\n2 3\n3 4\n")
        out = str(tmp_path / "sp.txt")
        assert run(["build", "--input", g, "--k", "6", "--out", out]) == 0
        assert "m_out=4" in capsys.readouterr().out

    # k -> (m_out, steps) on C5 from the empty seed: below 2 the seed-free scan
    # needs all 5 edges, from 2 on a 4-edge path is enough
    @pytest.mark.parametrize("k, m_out, steps", [(0, 5, 4), (1, 5, 4), (4, 4, 3), (7, 4, 3)])
    def test_any_k_builds_from_empty_seed(self, tmp_path, capsys, k, m_out, steps):
        g = write_graph(tmp_path, "c5.txt", "0 1\n1 2\n2 3\n3 4\n0 4\n")
        out = tmp_path / "sp.txt"
        assert run(["build", "--input", g, "--k", str(k), "--out", str(out)]) == 0
        assert capsys.readouterr() == (f"n=5 m_in=5 m_seed=0 m_out={m_out} steps={steps}\n", "")
        h, _ = build_spanner(read_edge_list(g), k)
        assert out.read_text() == serialize_edge_list(h.to_graph())

    def test_unsafe_k_is_gone(self, tmp_path, capsys):
        g = write_graph(tmp_path, "p3.txt", "0 1\n1 2\n")
        out = tmp_path / "sp.txt"
        with pytest.raises(SystemExit) as exc:
            run(["build", "--input", g, "--k", "7", "--out", str(out), "--unsafe-k"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --unsafe-k" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input(self, tmp_path):
        assert run(["build", "--input", str(tmp_path / "nope.txt"),
                    "--k", "2", "--out", str(tmp_path / "o.txt")]) == 2

    def test_trace_csv(self, tmp_path):
        g = write_graph(tmp_path, "k4.txt", "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        out = str(tmp_path / "sp.txt")
        trace = str(tmp_path / "trace.csv")
        assert run(["build", "--input", g, "--k", "2", "--out", out,
                    "--trace-out", trace]) == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[:6] == ["0", "0", "1", "1", "-1", "1"]

    def test_self_check_failure_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # a scan whose sweep yields no block keeps the empty seed of C5, and the
        # build's final count, through a sweep of its own, finds all 10 pairs unspanned
        sweeps = iter([lambda dg, dh, k: iter(()), addspan.engine._pair_blocks])
        monkeypatch.setattr(addspan.engine, "_pair_blocks",
                            lambda dg, dh, k: next(sweeps)(dg, dh, k))
        g = write_graph(tmp_path, "c5.txt", "0 1\n1 2\n2 3\n3 4\n0 4\n")
        out, trace = tmp_path / "sp.txt", tmp_path / "trace.csv"
        assert run(["build", "--input", g, "--k", "2", "--out", str(out),
                    "--trace-out", str(trace)]) == 1
        assert capsys.readouterr() == ("", "error: self-check found 10 violations\n")
        assert not out.exists() and not trace.exists()

    def test_stale_repair_fails_self_check(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(addspan.engine, "insert_edge", stale_insert_edge)
        g = write_graph(tmp_path, "p5.txt", "0 1\n1 2\n2 3\n3 4\n")
        out, trace = tmp_path / "sp.txt", tmp_path / "trace.csv"
        assert run(["build", "--input", g, "--k", "2", "--out", str(out),
                    "--trace-out", str(trace)]) == 1
        assert capsys.readouterr() == ("", "error: self-check found that the repaired d_H "
                                           "is not the hop-distance matrix of H\n")
        assert not out.exists() and not trace.exists()

    def test_stale_repair_mid_scan_exits_1(self, tmp_path, capsys, monkeypatch):
        # a repair that changes no cell leaves the first pair's d_H UNREACHABLE,
        # which ``complete`` finds right after inserting its path
        no_cells = (np.empty(0, np.intp),) * 2 + (np.empty(0, np.int16),) * 2
        monkeypatch.setattr(addspan.engine, "insert_edge", lambda dist, a, b: no_cells)
        g = write_graph(tmp_path, "c5.txt", "0 1\n1 2\n2 3\n3 4\n0 4\n")
        out, trace = tmp_path / "sp.txt", tmp_path / "trace.csv"
        assert run(["build", "--input", g, "--k", "2", "--out", str(out),
                    "--trace-out", str(trace)]) == 1
        assert capsys.readouterr() == ("", "error: pair (0, 1) has d_H = -1 but d_G = 1 after "
                                           "its shortest path was inserted: the repaired d_H "
                                           "is stale\n")
        assert not out.exists() and not trace.exists()

    def test_edge_off_handed_back_dg_exits_1(self, tmp_path, capsys, monkeypatch):
        # the engine's d_G says 2 at the edge (0, 1) of C5, which the k = 6 seed
        # keeps and no step touches: the engine is at fault, not the input, so
        # the build exits 1 where ``verify`` exits 2
        real_apsp = addspan.engine.apsp

        def off_at_0_1(g):
            d = real_apsp(g)
            if g.edge_count == 5:  # G itself, not the seed's 4 edges
                d.dist[0, 1] = d.dist[1, 0] = 2
            return d

        monkeypatch.setattr(addspan.engine, "apsp", off_at_0_1)
        g = write_graph(tmp_path, "c5.txt", "0 1\n1 2\n2 3\n3 4\n0 4\n")
        out, trace = tmp_path / "sp.txt", tmp_path / "trace.csv"
        assert run(["build", "--input", g, "--k", "6", "--out", str(out),
                    "--trace-out", str(trace)]) == 1
        assert capsys.readouterr() == ("", "error: spanner is not a subgraph of the input graph\n")
        assert not out.exists() and not trace.exists()

    def test_byte_identical_reruns(self, tmp_path):
        g = write_graph(tmp_path, "g.txt", "\n".join(
            f"{u} {v}" for u in range(12) for v in range(u + 1, 12) if (u + v) % 3
        ))
        files = []
        for tag in ("one", "two"):
            out = str(tmp_path / f"sp-{tag}.txt")
            trace = str(tmp_path / f"tr-{tag}.csv")
            assert run(["build", "--input", g, "--k", "2", "--out", out,
                        "--trace-out", trace]) == 0
            files.append((out, trace))
        assert Path(files[0][0]).read_bytes() == Path(files[1][0]).read_bytes()
        assert Path(files[0][1]).read_bytes() == Path(files[1][1]).read_bytes()


class TestInputContract:
    @pytest.mark.parametrize("text", [
        "n \u00b2\n0 1\n",  # superscript two passes str.isdigit
        "\u0661 2\n",  # Arabic-Indic one is accepted by int()
        "0 1_0\n",  # int() reads 1_0 as 10
    ], ids=["superscript-header", "arabic-indic-id", "underscore-id"])
    def test_non_ascii_digits_rejected(self, tmp_path, capsys, text):
        g = tmp_path / "g.txt"
        g.write_text(text, encoding="utf-8")
        assert run(["build", "--input", str(g), "--k", "2",
                    "--out", str(tmp_path / "sp.txt")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_non_utf8_file_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff")
        good = write_graph(tmp_path, "p2.txt", "0 1\n")
        assert run(["build", "--input", str(bad), "--k", "2",
                    "--out", str(tmp_path / "sp.txt")]) == 2
        assert run(["verify", "--graph", str(bad), "--spanner", good, "--k", "2"]) == 2
        assert run(["verify", "--graph", good, "--spanner", str(bad), "--k", "2"]) == 2
        assert capsys.readouterr().err.count("not UTF-8") == 3

    def test_byte_order_mark_skipped(self, tmp_path, capsys):
        text = "".join(f"{u} {v}\n" for u in range(10) for v in range(u + 1, 10) if (u * v) % 4)
        plain = write_graph(tmp_path, "plain.txt", text)
        bom = tmp_path / "bom.txt"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        outputs = []
        for name, g in (("plain", plain), ("bom", str(bom))):
            out, trace = tmp_path / f"{name}.sp", tmp_path / f"{name}.csv"
            assert run(["build", "--input", g, "--k", "2", "--out", str(out),
                        "--trace-out", str(trace)]) == 0
            outputs.append((capsys.readouterr(), out.read_bytes(), trace.read_bytes()))
        assert outputs[0] == outputs[1]
        spanner = tmp_path / "bom.sp"
        spanner.write_bytes(b"\xef\xbb\xbf" + spanner.read_bytes())
        assert run(["verify", "--graph", str(bom), "--spanner", str(spanner), "--k", "2"]) == 0

    @pytest.mark.parametrize("text", [
        "0 1000000000000\n",
        "n 99999999999\n",
        "0 " + "9" * 40 + "\n",
        "0 " + "1" * 5000 + "\n",
        "n " + "9" * 5000 + "\n",
    ], ids=["huge-id", "huge-header", "40-digit-id", "5000-digit-id", "5000-digit-header"])
    def test_node_ceiling(self, tmp_path, capsys, text):
        g = write_graph(tmp_path, "g.txt", text)
        good = write_graph(tmp_path, "p2.txt", "0 1\n")
        t0 = time.perf_counter()
        assert run(["build", "--input", g, "--k", "2", "--out", str(tmp_path / "sp.txt")]) == 2
        assert run(["verify", "--graph", g, "--spanner", good, "--k", "2"]) == 2
        assert run(["verify", "--graph", good, "--spanner", g, "--k", "2"]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err.count("exceed the limit") == 3

    def test_negative_k_rejected(self, tmp_path, capsys):
        g = write_graph(tmp_path, "p3.txt", "0 1\n1 2\n")
        out = tmp_path / "out"
        for argv in (["build", "--input", g, "--out", str(out)],
                     ["verify", "--graph", g, "--spanner", g],
                     ["sweep", "--family", "path", "--n", "3", "--out", str(out)]):
            assert run([*argv, "--k", "-1"]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: additive constant k must be non-negative\n" * 3

    def test_k_ceiling(self, tmp_path, capsys):
        g = write_graph(tmp_path, "p3.txt", "0 1\n1 2\n")
        out = str(tmp_path / "out")
        huge = str(10 ** 20)  # beyond int64
        # 2**55 fits int64, but on a few hundred nodes the potential sum would wrap
        for argv in (["verify", "--graph", g, "--spanner", g, "--k", huge],
                     ["build", "--input", g, "--out", out, "--k", huge],
                     ["build", "--input", g, "--out", out, "--trace-out", out,
                      "--k", str(2 ** 55)]):
            assert run(argv) == 2
        assert not Path(out).exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: additive constant k must be at most {MAX_K}\n" * 3

    @pytest.mark.parametrize("spelling", ["same.txt", "./same.txt"])
    def test_trace_out_same_file_as_out(self, tmp_path, capsys, monkeypatch, spelling):
        # the spanner, written last, would replace the trace: the build is refused
        monkeypatch.chdir(tmp_path)
        write_graph(tmp_path, "p3.txt", "0 1\n1 2\n")
        assert run(["build", "--input", "p3.txt", "--k", "2", "--out", "same.txt",
                    "--trace-out", spelling]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --trace-out and --out name the same file 'same.txt'\n"
        assert os.listdir(tmp_path) == ["p3.txt"]

    def test_trace_out_hard_link_of_out(self, tmp_path, capsys, monkeypatch):
        # two paths that differ can still name one inode; both names keep their bytes
        monkeypatch.chdir(tmp_path)
        write_graph(tmp_path, "p3.txt", "0 1\n1 2\n")
        Path("a.txt").write_bytes(b"old\n")
        os.link("a.txt", "b.txt")
        assert run(["build", "--input", "p3.txt", "--k", "2", "--out", "a.txt",
                    "--trace-out", "b.txt"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --trace-out and --out name the same file 'a.txt'\n"
        assert Path("a.txt").read_bytes() == Path("b.txt").read_bytes() == b"old\n"

    @pytest.mark.parametrize("command", ["build-out", "build-trace-out", "gen", "sweep"])
    def test_unwritable_output(self, tmp_path, capsys, command):
        g = write_graph(tmp_path, "p3.txt", "0 1\n1 2\n")
        missing = str(tmp_path / "missing" / "x.txt")
        argv = {
            "build-out": ["build", "--input", g, "--k", "2", "--out", missing,
                          "--trace-out", str(tmp_path / "trace.csv")],
            "build-trace-out": ["build", "--input", g, "--k", "2",
                                "--out", str(tmp_path / "sp.txt"), "--trace-out", missing],
            "gen": ["gen", "--family", "path", "--n", "3", "--out", missing],
            "sweep": ["sweep", "--family", "path", "--n", "3", "--out", missing],
        }[command]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and f"{missing}'" in err
        # a failed build leaves neither output, nor a temporary file
        assert os.listdir(tmp_path) == ["p3.txt"]

    def test_empty_trace_out_rejected(self, tmp_path, capsys):
        # an empty --trace-out names no file: the build must fail, not skip the trace
        g = write_graph(tmp_path, "p3.txt", "0 1\n1 2\n")
        assert run(["build", "--input", g, "--k", "2", "--out", str(tmp_path / "sp.txt"),
                    "--trace-out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert os.listdir(tmp_path) == ["p3.txt"]

    def test_out_is_directory(self, tmp_path, capsys):
        g = write_graph(tmp_path, "p3.txt", "0 1\n1 2\n")
        out = tmp_path / "out"
        out.mkdir()
        assert run(["build", "--input", g, "--k", "2", "--out", str(out),
                    "--trace-out", str(tmp_path / "trace.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and f"{out}'" in err
        assert sorted(os.listdir(tmp_path)) == ["out", "p3.txt"] and not os.listdir(out)

    def test_outputs_through_device_and_link(self, tmp_path, capsys):
        g = write_graph(tmp_path, "p3.txt", "0 1\n1 2\n")
        # a device is written through, not replaced
        assert run(["build", "--input", g, "--k", "2", "--out", os.devnull]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        # a failed build removes its trace file, but not a link named by --trace-out
        link = tmp_path / "trace-link.csv"
        link.symlink_to(tmp_path / "trace.csv")
        assert run(["build", "--input", g, "--k", "2", "--out", str(tmp_path / "missing" / "x"),
                    "--trace-out", str(link)]) == 2
        assert link.is_symlink()
        capsys.readouterr()

    def test_gen_node_ceiling(self, tmp_path, capsys):
        out = str(tmp_path / "g.txt")
        t0 = time.perf_counter()
        assert run(["gen", "--family", "grid", "--n", "100000", "--out", out]) == 2
        assert run(["gen", "--family", "gnp", "--n", "100000", "--p", "0.5", "--out", out]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err.count("exceed the limit") == 2


class TestModuleEntry:
    def test_no_warnings_as_main_module(self, tmp_path):
        # the package must not import addspan.cli, or runpy warns that the
        # module was already imported before running it as __main__
        env = dict(os.environ, PYTHONPATH=str(Path(addspan.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "addspan.cli", "gen", "--family", "path",
             "--n", "3", "--out", str(tmp_path / "p3.txt")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")


class TestVerify:
    def test_valid(self, tmp_path):
        g = write_graph(tmp_path, "k4.txt", "n 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        s = write_graph(tmp_path, "star.txt", "n 4\n0 1\n0 2\n0 3\n")
        assert run(["verify", "--graph", g, "--spanner", s, "--k", "2"]) == 0

    def test_violation_csv(self, tmp_path, capsys):
        g = write_graph(tmp_path, "c5.txt", "n 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
        s = write_graph(tmp_path, "sub.txt", "n 5\n0 1\n1 2\n2 3\n3 4\n")
        assert run(["verify", "--graph", g, "--spanner", s, "--k", "2"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "u,v,d_g,d_h,excess"
        assert lines[1] == "0,4,1,4,3.0"

    def test_violation_csv_infinite_excess(self, tmp_path, capsys):
        # node 2 is isolated in H: its pairs have d_H UNREACHABLE and an inf excess
        g = write_graph(tmp_path, "p3.txt", "n 3\n0 1\n1 2\n")
        s = write_graph(tmp_path, "sub.txt", "n 3\n0 1\n")
        assert run(["verify", "--graph", g, "--spanner", s, "--k", "2"]) == 1
        assert capsys.readouterr().out == "u,v,d_g,d_h,excess\n0,2,2,-1,inf\n1,2,1,-1,inf\n"

    def test_not_subgraph(self, tmp_path):
        g = write_graph(tmp_path, "k4.txt", "n 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        s = write_graph(tmp_path, "bad.txt", "n 5\n0 4\n")
        assert run(["verify", "--graph", g, "--spanner", s, "--k", "2"]) == 2

    # an in-range edge that g lacks; every edge in g but more nodes
    @pytest.mark.parametrize("spanner", ["n 3\n0 2\n", "n 4\n0 1\n"])
    def test_not_subgraph_message(self, tmp_path, capsys, spanner):
        g = write_graph(tmp_path, "p3.txt", "n 3\n0 1\n1 2\n")
        s = write_graph(tmp_path, "bad.txt", spanner)
        assert run(["verify", "--graph", g, "--spanner", s, "--k", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: spanner is not a subgraph of the input graph\n"
        assert captured.out == ""


class TestSweep:
    def test_small_sweep_csv_and_fit(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        assert run(["sweep", "--family", "gnp", "--n", "8,12,16", "--p", "0.5",
                    "--seeds", "2", "--k", "2", "--out", out]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 1 + 3 * 2
        printed = capsys.readouterr().out
        assert "slope=" in printed and "max_ratio_32=" in printed

    def test_named_family_sweep(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        assert run(["sweep", "--family", "path", "--n", "4,8,16",
                    "--k", "2", "--out", out]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4
        # a path is its own spanner: m = n - 1, slope just under 1
        assert "slope=" in capsys.readouterr().out

    def test_row_formats(self, tmp_path):
        # the ratios to six places, the wall time to three, no p for a named family
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--family", "path", "--n", "4,8,16", "--k", "2",
                    "--out", str(out)]) == 0
        *row, wall_time_ms = out.read_text().splitlines()[1].split(",")
        # m = 3: 3 / 4**1.5 and 3 / 4**(4/3)
        assert row == ["path", "4", "", "0", "2", "3", "0", "3", "0.375000", "0.472470", "3"]
        assert re.fullmatch(r"\d+\.\d{3}", wall_time_ms)

    def test_fit_omitted_when_too_small(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        assert run(["sweep", "--family", "gnp", "--n", "8,12", "--p", "0.5",
                    "--seeds", "1", "--k", "2", "--out", out]) == 0
        assert "fit omitted" in capsys.readouterr().out

    def test_self_check_fault_exits_1(self, tmp_path, capsys, monkeypatch):
        # a certificate that rejects every d_H: each spanner a sweep counts is checked
        monkeypatch.setattr(addspan.engine, "_is_hop_distance", lambda h, d: False)
        out = tmp_path / "s.csv"
        assert run(["sweep", "--family", "path", "--n", "4,8,16", "--k", "2",
                    "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: self-check found that the repaired d_H "
                                           "is not the hop-distance matrix of H\n")
        assert not out.exists()

    def test_gnp_requires_p(self, tmp_path):
        assert run(["sweep", "--family", "gnp", "--n", "8,12,16",
                    "--out", str(tmp_path / "s.csv")]) == 2

    @pytest.mark.parametrize("n, p, message", [
        ("8,abc", "0.5", "--n must be a comma-separated list of int values, got '8,abc'"),
        ("8,12,16", "abc", "--p must be a comma-separated list of float values, got 'abc'"),
        ("0,4,8", "0.5", "sweep node counts must be at least 1"),
        ("8,12,16", "0.5,", "--p must be a comma-separated list of float values"),
    ], ids=["bad-n", "bad-p", "zero-n", "empty-p-item"])
    def test_bad_lists_rejected(self, tmp_path, capsys, n, p, message):
        out = tmp_path / "s.csv"
        assert run(["sweep", "--family", "gnp", "--n", n, "--p", p, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_repeated_p_builds_once(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--family", "gnp", "--n", "8,12,16", "--p", "0.5,0.3,0.5",
                    "--seeds", "1", "--k", "2", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(r[1], r[2]) for r in rows] == [
            (n, p) for n in ("8", "12", "16") for p in ("0.5", "0.3")
        ]
        labels = [line.split(" k=")[0] for line in capsys.readouterr().out.splitlines()]
        assert labels == ["family=gnp p=0.5", "family=gnp p=0.3"]

    @pytest.mark.parametrize("family", ["gnp", "path"])
    def test_zero_seeds_rejected(self, tmp_path, capsys, family):
        out = tmp_path / "s.csv"
        assert run(["sweep", "--family", family, "--n", "8,12,16", "--p", "0.5",
                    "--seeds", "0", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: sweep seeds must be at least 1\n"

    def test_named_family_ignores_p_and_seeds(self):
        records = run_sweep("path", [4, 8, 16], [0.5, 0.3], 3, 2)
        assert [(r.n, r.p_or_param, r.seed) for r in records] == [(n, "", 0) for n in (4, 8, 16)]
        assert [r.final_edges for r in records] == [3, 7, 15]

    def test_library_rejects_empty_p_list(self):
        with pytest.raises(ValueError, match="p list"):
            run_sweep("gnp", [8], [], 1, 2)

    def test_library_rejects_non_integer_seeds(self):
        with pytest.raises(TypeError):
            run_sweep("path", [4, 8], [], 1.5, 2)

    def test_library_repeats_build_once(self):
        records = run_sweep("gnp", [12, 8, 12], [0.5, 0.3, 0.5], 2, 2)
        assert [(r.n, r.p_or_param, r.seed) for r in records] == [
            (n, p, seed) for n in (8, 12) for p in ("0.5", "0.3") for seed in (0, 1)
        ]

    def test_records_are_consistent(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--family", "gnp", "--n", "10,14,18", "--p", "0.3",
                    "--seeds", "1", "--k", "6", "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            row = dict(zip(SWEEP_HEADER.split(","), line.split(",")))
            assert int(row["final_edges"]) <= int(row["input_edges"])
            assert int(row["seed_edges"]) <= int(row["final_edges"])
            n, m = int(row["n"]), int(row["final_edges"])
            assert float(row["ratio_32"]) == pytest.approx(m / n ** 1.5, rel=1e-4)
            assert float(row["ratio_43"]) == pytest.approx(m / n ** (4 / 3), rel=1e-4)
