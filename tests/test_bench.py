import pytest

from qaoa_maxcut import bench, cli
from qaoa_maxcut.graphs import CutSolution, generate_random_graph, save_graph
from qaoa_maxcut.seeding import mix64
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


class TestBadArguments:
    CASES = {
        "shots": (dict(shots=0), "shots must be >= 1, got 0"),
        "runs": (dict(runs=0), "runs must be >= 1, got 0"),
        "layers": (dict(layer_counts=[1, 0]), "layer count must be >= 1, got 0"),
        "workers": (dict(workers=0), "workers must be >= 1, got 0"),
        "budget": (dict(layer_counts=[1, 3], budget=7), "budget 7 is below 8"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_fails_before_any_optimum(self, case, monkeypatch):
        monkeypatch.setattr(bench, "brute_force_optimum", no_optimum)
        override, message = self.CASES[case]
        kwargs = dict(layer_counts=[1], runs=1, shots=10, budget=8, workers=1) | override
        with pytest.raises(ValueError, match=message):
            bench.run_benchmark([("MC_5", SMALL)], **kwargs)

    def test_budget_at_the_minimum_is_accepted(self, monkeypatch):
        monkeypatch.setattr(bench, "brute_force_optimum", lambda g: CutSolution((0,) * g.num_nodes, 0.0))
        records, warnings = bench.run_benchmark([("MC_5", SMALL)], [1, 3], 1, budget=8)
        assert records == [] and warnings == ["skipped MC_5: optimum cut is 0 (edgeless graph?)"]

    @pytest.mark.parametrize("flags, message", [
        (["--shots", "0"], "shots must be >= 1"),
        (["--runs", "0"], "runs must be >= 1"),
        (["--layers", "0"], "layer count must be >= 1"),
        (["--workers", "0"], "workers must be >= 1"),
        (["--layers", "1", "3", "--budget", "6"], "budget 6 is below 8"),
    ])
    def test_cli_reports_error_and_writes_nothing(self, flags, message, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bench, "brute_force_optimum", no_optimum)
        save_graph(SMALL, tmp_path / "MC_5.txt")
        out = tmp_path / "results.jsonl"
        assert cli.main(["bench", str(tmp_path / "MC_5.txt"), "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()


class TestBadInstanceFiles:
    @pytest.fixture
    def inf_weight(self, tmp_path):
        path = tmp_path / "MC_BAD.txt"
        path.write_text("3 2\n0 1 1.0\n1 2 inf\n")
        return path

    @pytest.mark.parametrize("command", ["bench", "depth"])
    def test_non_finite_weight_is_reported_with_its_line(self, command, inf_weight, capsys):
        assert cli.main([command, str(inf_weight), "--layers", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{inf_weight}:3:" in err and "non-finite" in err

    @pytest.mark.parametrize("command", ["bench", "depth"])
    def test_missing_file_is_reported(self, command, tmp_path, capsys):
        missing = tmp_path / "MC_NONE.txt"
        assert cli.main([command, str(missing), "--layers", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_repeated_bench_writes_identical_records(mode, tmp_path, capsys):
    files = []
    for n in (8, 10):
        save_graph(generate_random_graph(n, 0.5, mix64(11, n)), tmp_path / f"MC_{n}.txt")
        files.append(str(tmp_path / f"MC_{n}.txt"))
    outputs = []
    for attempt in ("a", "b"):
        out = tmp_path / f"{attempt}.jsonl"
        argv = ["bench", *files, "--layers", "1", "3", "--runs", "2", "--budget", "12", "--mode", mode]
        assert cli.main([*argv, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 2 * 2 * 2
