import pytest

from qaoa_maxcut import bench, cli
from qaoa_maxcut.graphs import CutSolution, generate_random_graph, save_graph
from qaoa_maxcut.simulator import DEFAULT_MAX_QUBITS, CapacityError

SMALL = generate_random_graph(5, 0.6, seed=1)
WIDE = generate_random_graph(DEFAULT_MAX_QUBITS + 1, 0.5, seed=2)


def no_optimum(g):
    raise AssertionError("an optimum was computed before the width check")


class TestTooWide:
    def test_fails_before_any_optimum(self, monkeypatch):
        monkeypatch.setattr(bench, "brute_force_optimum", no_optimum)
        with pytest.raises(CapacityError, match=f"MC_{WIDE.num_nodes} \\({WIDE.num_nodes} nodes\\)"):
            bench.run_benchmark([("MC_5", SMALL), (f"MC_{WIDE.num_nodes}", WIDE)], [1], 1, budget=4)

    def test_cli_reports_error_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bench, "brute_force_optimum", no_optimum)
        files = []
        for name, g in (("MC_5", SMALL), ("MC_WIDE", WIDE)):
            save_graph(g, tmp_path / f"{name}.txt")
            files.append(str(tmp_path / f"{name}.txt"))
        out = tmp_path / "results.jsonl"
        code = cli.main(["bench", *files, "--layers", "1", "--budget", "4", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "MC_WIDE" in err
        assert not out.exists()

    def test_widest_simulable_instance_is_accepted(self, monkeypatch):
        # A zero optimum makes run_benchmark skip the instance, so no run starts.
        monkeypatch.setattr(bench, "brute_force_optimum", lambda g: CutSolution((0,) * g.num_nodes, 0.0))
        widest = generate_random_graph(DEFAULT_MAX_QUBITS, 0.5, seed=3)
        records, warnings = bench.run_benchmark([("MC_MAX", widest)], [1], 1)
        assert records == [] and warnings == ["skipped MC_MAX: optimum cut is 0 (edgeless graph?)"]
