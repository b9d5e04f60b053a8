"""Exit codes and outputs of the subcommands, what importing the CLI
loads, and that every subcommand runs without scipy."""

import codecs
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qaoa_maxcut import bench, cli, encoding, graphs
from qaoa_maxcut.circuits import STRATEGIES
from qaoa_maxcut.graphs import Graph, generate_random_graph, save_graph
from qaoa_maxcut.seeding import mix64
from qaoa_maxcut.simulator import DEFAULT_MAX_QUBITS, CapacityError

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args: str) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter that imports the package from src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)


def write_instance(directory: Path, n: int) -> Path:
    path = directory / f"MC_{n}.txt"
    save_graph(generate_random_graph(n, 0.5, mix64(11, n)), path)
    return path


def test_cli_import_loads_neither_scipy_nor_process_pools():
    code = (
        "import sys, qaoa_maxcut, qaoa_maxcut.cli\n"
        "print(sorted(m for m in ('scipy', 'concurrent.futures.process') if m in sys.modules))"
    )
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("command", [
    ["bench", "--mode", "exact"],
    ["bench", "--mode", "sampled", "--shots", "64"],
    ["depth"],
    ["verify"],
], ids=["bench-exact", "bench-sampled", "depth", "verify"])
def test_every_command_runs_without_scipy(command, tmp_path):
    instance = write_instance(tmp_path, 8)
    argv = [command[0], str(instance), *command[1:]]
    if command[0] == "bench":
        argv += ["--layers", "1", "3", "--runs", "2", "--budget", "12", "--out", str(tmp_path / "r.jsonl")]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from qaoa_maxcut import cli\n"
        "raise SystemExit(cli.main(sys.argv[1:]))"
    )
    done = run_python("-c", code, *argv)
    assert done.returncode == 0, done.stderr


def test_module_entry_point_exits_with_the_commands_status(tmp_path):
    # `python -m qaoa_maxcut.cli` reaches main() through the module's __main__ block.
    instance = str(write_instance(tmp_path, 8))
    done = run_python("-m", "qaoa_maxcut.cli", "depth", instance, "--layers", "0")
    assert (done.returncode, done.stderr, done.stdout) == (2, "error: layer count must be >= 1, got 0\n", "")
    done = run_python("-m", "qaoa_maxcut.cli", "verify", instance)
    assert done.returncode == 0, done.stderr
    # A file that is not UTF-8 is refused like any other bad file, without a traceback.
    latin1 = tmp_path / "MC_LATIN1.txt"
    latin1.write_bytes(b"# caf\xe9\n2 1\n0 1\n")
    done = run_python("-m", "qaoa_maxcut.cli", "depth", str(latin1))
    assert (done.returncode, done.stderr, done.stdout) == (2, f"error: {latin1}:1: not valid UTF-8\n", "")


def test_bench_refuses_a_missing_out_directory_before_any_run(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("run_benchmark was called")

    monkeypatch.setattr(bench, "run_benchmark", never)
    out = tmp_path / "nodir" / "r.jsonl"
    assert cli.main(["bench", str(write_instance(tmp_path, 8)), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not out.parent.exists()


def test_depth_refuses_a_missing_out_directory_before_printing(tmp_path, capsys):
    out = tmp_path / "nodir" / "d.csv"
    assert cli.main(["depth", str(write_instance(tmp_path, 8)), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not out.parent.exists()


@pytest.mark.parametrize("out, directory", [
    ("r.jsonl", "r.jsonl"), ("r.jsonl", "r.summary.csv"), (".", "."),
], ids=["records", "summary", "cwd"])
def test_bench_refuses_an_out_file_that_is_a_directory_before_any_run(out, directory, tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("run_benchmark was called")

    monkeypatch.setattr(bench, "run_benchmark", never)
    monkeypatch.chdir(tmp_path)
    write_instance(tmp_path, 8)
    Path(directory).mkdir(exist_ok=True)
    assert cli.main(["bench", "MC_8.txt", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: output file {Path(directory)} is a directory\n" and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({"MC_8.txt", directory} - {"."})


def test_depth_refuses_an_out_file_that_is_a_directory_before_printing(tmp_path, capsys):
    out = tmp_path / "d.csv"
    out.mkdir()
    assert cli.main(["depth", str(write_instance(tmp_path, 8)), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: output file {out} is a directory\n" and captured.out == ""
    assert list(out.iterdir()) == []


def no_work(*args, **kwargs):
    raise AssertionError("an optimum or a compiled metric was computed before the refusal")


@pytest.mark.parametrize("command, instance, out, link, clash", [
    ("depth", "MC_8.txt", "MC_8.txt", None, "MC_8.txt"),
    ("bench", "MC_8.txt", "MC_8.txt", None, "MC_8.txt"),
    ("bench", "r.summary.csv", "r.jsonl", None, "r.summary.csv"),
    ("depth", "MC_8.txt", "link.txt", os.symlink, "link.txt"),
    ("bench", "MC_8.txt", "link.txt", os.link, "link.txt"),
], ids=["depth", "bench-records", "bench-summary", "symlink", "hardlink"])
def test_an_out_that_is_an_instance_file_is_refused_before_any_work(command, instance, out, link, clash,
                                                                   tmp_path, capsys, monkeypatch):
    # `clash` is the output path that names the instance: --out itself, or
    # for bench the summary beside it.
    monkeypatch.setattr(bench, "brute_force_optimum", no_work)
    monkeypatch.setattr(bench, "compiled_metrics", no_work)
    monkeypatch.chdir(tmp_path)
    save_graph(generate_random_graph(8, 0.5, mix64(11, 8)), Path(instance))
    if link is not None:
        link(instance, out)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    argv = [command, instance, "--layers", "1", "--out", out]
    if command == "bench":
        argv += ["--runs", "1", "--budget", "4", "--shots", "10"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: output file {clash} is one of the instance files\n" and captured.out == ""
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("refusal", [cli.Refusal("x"), CapacityError("x"), bench.BenchArgumentError("x")],
                         ids=["refusal", "capacity", "bench-argument"])
def test_main_prints_a_refusal_as_one_error_line_and_exits_2(refusal, capsys, monkeypatch):
    def refuse(args):
        raise refusal

    monkeypatch.setattr(cli, "cmd_depth", refuse)
    assert cli.main(["depth", "MC_8.txt"]) == 2
    assert capsys.readouterr() == ("", "error: x\n")


@pytest.mark.parametrize("bug", [ValueError("x"), OSError("x")], ids=["value-error", "os-error"])
def test_main_lets_any_other_error_propagate(bug, capsys, monkeypatch):
    # A bug, or a write failing after the run, is never reported as refused input.
    def fail(args):
        raise bug

    monkeypatch.setattr(cli, "cmd_depth", fail)
    with pytest.raises(type(bug), match="^x$"):
        cli.main(["depth", "MC_8.txt"])
    assert capsys.readouterr() == ("", "")


def test_generate_writes_the_seeded_instances(tmp_path):
    out = tmp_path / "inst"
    assert cli.main(["generate", "--sizes", "8", "10", "--seed", "11", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["MC_10.txt", "MC_8.txt"]
    for n in (8, 10):
        expected = tmp_path / f"expected_{n}.txt"
        save_graph(generate_random_graph(n, 0.5, mix64(11, n)), expected)
        assert (out / f"MC_{n}.txt").read_bytes() == expected.read_bytes()


def test_generate_with_empty_sizes_exits_2(tmp_path, capsys):
    out = tmp_path / "inst"
    with pytest.raises(SystemExit) as exc:
        cli.main(["generate", "--sizes", "--out", str(out)])
    assert exc.value.code == 2
    assert "--sizes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", [["--sizes", "1"], ["--sizes", "8", "--density", "1.5"]], ids=["sizes", "density"])
def test_generate_refuses_bad_arguments_before_writing(bad, tmp_path, capsys):
    out = tmp_path / "inst"
    assert cli.main(["generate", *bad, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["is-a-file", "under-a-file"])
def test_generate_refuses_an_out_that_is_or_lies_under_a_file(out, tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    assert cli.main(["generate", "--sizes", "8", "--out", str(tmp_path / out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot make output directory {tmp_path / out}: ") and captured.out == ""
    assert afile.read_text() == "kept\n" and [p.name for p in tmp_path.iterdir()] == ["afile"]


def test_verify_reports_a_malformed_file(tmp_path, capsys):
    path = tmp_path / "MC_BAD.txt"
    path.write_text("3 2\n0 1\n")
    assert cli.main(["verify", str(path)]) == 1
    assert capsys.readouterr().out.startswith("check parse: FAIL")


def test_verify_compares_the_optimal_assignments(tmp_path, capsys, monkeypatch):
    real_optimum = graphs.exhaustive_optimum

    def complemented(g):
        solution = real_optimum(g)
        return graphs.CutSolution(tuple(1 - b for b in solution.assignment), solution.value)

    monkeypatch.setattr(graphs, "exhaustive_optimum", complemented)
    assert cli.main(["verify", str(write_instance(tmp_path, 8))]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("check optimum-oracle: FAIL (optimum = ")
    assert all(": ok (" in line for line in lines[:2] + lines[3:])


def test_an_instance_with_a_byte_order_mark_runs_as_the_plain_file(tmp_path, capsys):
    plain = write_instance(tmp_path, 8)
    (tmp_path / "marked").mkdir()
    marked = tmp_path / "marked" / plain.name
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    for path, out in ((plain, "plain.csv"), (marked, "marked.csv")):
        assert cli.main(["depth", str(path), "--layers", "1", "3", "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "marked.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert cli.main(["verify", str(marked)]) == 0


@pytest.mark.parametrize("instance", ["MC_10", "MC_14", "W_9"])
def test_verify_passes_on_good_instances(instance, tmp_path, capsys):
    # MC_14 takes the n > 12 branches: random half entries, no optimum oracle.
    path = GOLDEN / "W_9.txt" if instance == "W_9" else write_instance(tmp_path, int(instance[3:]))
    assert cli.main(["verify", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and all(": ok (" in line for line in lines)
    wide = instance == "MC_14"
    assert lines[1].endswith("512 random half entries)" if wide else "every half entry)")
    assert (lines[2] == "check optimum-oracle: ok (skipped (n > 12))") == wide


def test_verify_checks_the_same_entries_however_the_path_is_spelled(tmp_path, monkeypatch):
    # MC_14 takes the sampled branch: 512 random half entries.
    (tmp_path / "d").mkdir()
    path = write_instance(tmp_path / "d", 14)
    monkeypatch.chdir(tmp_path)
    real_cut_value = graphs.cut_value
    checked = []

    def spy(g, assignment):
        checked[-1].append(tuple(assignment))
        return real_cut_value(g, assignment)

    monkeypatch.setattr(graphs, "cut_value", spy)
    for spelling in ("d/MC_14.txt", "./d/MC_14.txt", str(path)):
        checked.append([])
        assert cli.main(["verify", spelling]) == 0
    assert len(checked[0]) == 512 and checked[1] == checked[0] and checked[2] == checked[0]


def test_verify_reads_the_objectives_own_table(tmp_path, capsys, monkeypatch):
    real_table = encoding.energy_table

    def off_by_half(g):
        table = real_table(g)
        table[5] += 0.5
        return table

    monkeypatch.setattr(encoding, "energy_table", off_by_half)
    assert cli.main(["verify", str(write_instance(tmp_path, 8))]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "check encoding-roundtrip: FAIL (max |E+cut| = 5.00e-01 over every half entry)"
    assert all(": ok (" in line for line in lines[:1] + lines[2:])


def test_verify_requires_the_table_to_be_exact(tmp_path, capsys, monkeypatch):
    # Every energy of an integer-weight graph is an exact integer, so an
    # entry one ulp off fails the round trip.
    real_table = encoding.energy_table

    def one_ulp_off(g):
        table = real_table(g)
        table[5] = np.nextafter(table[5], -np.inf)
        return table

    monkeypatch.setattr(encoding, "energy_table", one_ulp_off)
    assert cli.main(["verify", str(write_instance(tmp_path, 8))]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("check encoding-roundtrip: FAIL (max |E+cut| = ")


def test_verify_skips_the_table_above_the_simulator_width(tmp_path, capsys, monkeypatch):
    def no_table(g):
        raise AssertionError("energy table built for an instance no run could use")

    monkeypatch.setattr(encoding, "energy_table", no_table)
    path = tmp_path / "E_27.txt"
    save_graph(Graph(DEFAULT_MAX_QUBITS + 1), path)
    assert cli.main(["verify", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"check encoding-roundtrip: ok (skipped (n > {DEFAULT_MAX_QUBITS}))"


def test_printed_depth_table_has_one_column_per_strategy_with_the_csv_numbers(tmp_path, capsys):
    files = [str(write_instance(tmp_path, n)) for n in (8, 10)] + [str(GOLDEN / "W_9.txt")]
    out = tmp_path / "depth.csv"
    assert cli.main(["depth", *files, "--layers", "1", "3", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == f"wrote {out}"
    # The dashed rule under the header marks each column's span.
    spans = [m.span() for m in re.finditer(r"-+", printed[1])]
    cells = [[line[start:end].strip() for start, end in spans] for line in printed[:-1]]
    assert cells[0] == ["instance", "n", "layers", *(f"{s} depth" for s in STRATEGIES)]
    rows = [line.split(",") for line in out.read_text().splitlines()]
    assert rows[0] == ["instance", "n", "layers", *(f"{s}_depth" for s in STRATEGIES)]
    assert cells[2:] == rows[1:] and len(rows) == 1 + 3 * 2
