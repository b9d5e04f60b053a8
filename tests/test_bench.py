import concurrent.futures
import json
from pathlib import Path

import pytest

from qaoa_maxcut import bench, cli, engine
from qaoa_maxcut.circuits import Barrier, build_qaoa_ansatz, decompose, depth, gate_counts
from qaoa_maxcut.encoding import maxcut_problem
from qaoa_maxcut.engine import EXACT, SAMPLED
from qaoa_maxcut.graphs import CutSolution, generate_random_graph, graph_from_pairs, load_graph, save_graph
from qaoa_maxcut.seeding import mix64
from qaoa_maxcut.simulator import DEFAULT_MAX_QUBITS, CapacityError

SMALL = generate_random_graph(5, 0.6, seed=1)
WIDE = generate_random_graph(DEFAULT_MAX_QUBITS + 1, 0.5, seed=2)


def no_optimum(g):
    raise AssertionError("an optimum was computed before the width check")


def no_circuit(*args, **kwargs):
    raise AssertionError("a circuit was built before the layer counts were checked")


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
        # Exactly one run's memory at this width, whatever this machine has free.
        monkeypatch.setattr(bench, "available_memory", lambda: bench.BYTES_PER_AMPLITUDE << DEFAULT_MAX_QUBITS)
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
        "mode": (dict(mode="bogus"), "unknown objective mode 'bogus'"),
        "strategy": (dict(strategy="bogus"), "unknown strategy 'bogus'"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_fails_before_any_optimum(self, case, monkeypatch):
        monkeypatch.setattr(bench, "brute_force_optimum", no_optimum)
        override, message = self.CASES[case]
        kwargs = dict(layer_counts=[1], runs=1, shots=10, budget=8, workers=1) | override
        with pytest.raises(bench.BenchArgumentError, match=message):
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


class TestRepeatedInstanceName:
    # Names key the run seeds and the optima, so a second MC_5 would be
    # scored against the first one's optimum or the other way round.
    OTHER = generate_random_graph(5, 0.6, seed=2)

    def test_fails_before_any_optimum(self, monkeypatch):
        monkeypatch.setattr(bench, "brute_force_optimum", no_optimum)
        with pytest.raises(bench.BenchArgumentError, match="instance name given more than once: MC_5$"):
            bench.run_benchmark([("MC_5", SMALL), ("MC_6", SMALL), ("MC_5", self.OTHER)], [1], 1, budget=4)

    def test_cli_reports_error_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bench, "brute_force_optimum", no_optimum)
        files = []
        for directory, g in (("a", SMALL), ("b", self.OTHER)):
            (tmp_path / directory).mkdir()
            save_graph(g, tmp_path / directory / "MC_5.txt")
            files.append(str(tmp_path / directory / "MC_5.txt"))
        out = tmp_path / "results.jsonl"
        assert cli.main(["bench", *files, "--layers", "1", "--budget", "4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: instance name given more than once: MC_5\n"
        assert not out.exists() and not out.with_suffix(".summary.csv").exists()


class TestDepthRepeatedInstanceName:
    # Two depth rows named MC_8 with different depths could not be told apart.
    GRAPHS = [generate_random_graph(8, 0.5, seed) for seed in (11, 23)]

    def test_fails_before_any_circuit(self, monkeypatch):
        monkeypatch.setattr(bench, "build_qaoa_ansatz", no_circuit)
        with pytest.raises(bench.BenchArgumentError, match="instance name given more than once: MC_8$"):
            bench.depth_table([("MC_8", self.GRAPHS[0]), ("MC_5", SMALL), ("MC_8", self.GRAPHS[1])], [1])

    def test_cli_reports_error_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bench, "build_qaoa_ansatz", no_circuit)
        files = []
        for directory, g in zip("ab", self.GRAPHS):
            (tmp_path / directory).mkdir()
            save_graph(g, tmp_path / directory / "MC_8.txt")
            files.append(str(tmp_path / directory / "MC_8.txt"))
        out = tmp_path / "depth.csv"
        assert cli.main(["depth", *files, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: instance name given more than once: MC_8\n"
        assert captured.out == "" and not out.exists()


class TestMemoryGate:
    INSTANCES = [("MC_8", generate_random_graph(8, 0.5, seed=4)), ("MC_10", generate_random_graph(10, 0.5, seed=5))]
    NEED = 2 * bench.BYTES_PER_AMPLITUDE << 10  # two workers at the widest, 10 qubits

    def test_fails_before_any_optimum(self, monkeypatch):
        monkeypatch.setattr(bench, "brute_force_optimum", no_optimum)
        monkeypatch.setattr(bench, "available_memory", lambda: self.NEED - 1)
        with pytest.raises(CapacityError, match=r"2 worker\(s\) at 10 qubits need"):
            bench.run_benchmark(self.INSTANCES, [1], 1, budget=4, workers=2)

    def test_exactly_enough_is_accepted(self, monkeypatch):
        monkeypatch.setattr(bench, "brute_force_optimum", lambda g: CutSolution((0,) * g.num_nodes, 0.0))
        monkeypatch.setattr(bench, "available_memory", lambda: self.NEED)
        records, warnings = bench.run_benchmark(self.INSTANCES, [1], 1, budget=4, workers=2)
        assert records == [] and len(warnings) == 2

    def test_more_workers_than_runs_start_no_pool_and_budget_one_run(self, monkeypatch):
        instances = self.INSTANCES[:1]
        expected, _ = bench.run_benchmark(instances, [1], 1, budget=4)

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started for a single run")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        # Exactly one run's memory at 8 qubits, whatever this machine has free.
        monkeypatch.setattr(bench, "available_memory", lambda: bench.BYTES_PER_AMPLITUDE << 8)
        records, warnings = bench.run_benchmark(instances, [1], 1, budget=4, workers=3)
        assert records == expected and len(records) == 1 and warnings == []

    def test_cli_reports_error_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bench, "brute_force_optimum", no_optimum)
        monkeypatch.setattr(bench, "available_memory", lambda: self.NEED - 1)
        files = []
        for name, g in self.INSTANCES:
            save_graph(g, tmp_path / f"{name}.txt")
            files.append(str(tmp_path / f"{name}.txt"))
        out = tmp_path / "results.jsonl"
        assert cli.main(["bench", *files, "--layers", "1", "--budget", "4", "--workers", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "use fewer --workers" in err
        assert not out.exists()


class TestAvailableMemory:
    @pytest.fixture
    def files(self, tmp_path, monkeypatch):
        meminfo, limit = tmp_path / "meminfo", tmp_path / "memory.max"
        meminfo.write_text("MemTotal:       8000 kB\nMemFree:        1000 kB\nMemAvailable:   3000 kB\n")
        monkeypatch.setattr(bench, "_MEMINFO", meminfo)
        monkeypatch.setattr(bench, "_CGROUP_MEMORY_MAX", limit)
        return meminfo, limit

    def test_reads_mem_available_without_a_cgroup_limit(self, files):
        assert bench.available_memory() == 3000 * 1024
        files[1].write_text("max\n")
        assert bench.available_memory() == 3000 * 1024

    def test_a_lower_cgroup_limit_caps_it(self, files):
        files[1].write_text("1048576\n")
        assert bench.available_memory() == 1048576
        files[1].write_text(f"{1 << 40}\n")
        assert bench.available_memory() == 3000 * 1024

    def test_falls_back_to_free_pages_without_meminfo(self, files):
        files[0].unlink()
        assert bench.available_memory() > 0

    def test_this_machine_reports_some_memory(self):
        assert bench.available_memory() > 0


class TestDepthBadLayers:
    @pytest.mark.parametrize("layers, message", [
        ([0, 1], "layer count must be >= 1, got 0"),
        ([1, -2], "layer count must be >= 1, got -2"),
        ([], "need at least one layer count"),
    ])
    def test_fails_before_any_circuit(self, layers, message, monkeypatch):
        monkeypatch.setattr(bench, "build_qaoa_ansatz", no_circuit)
        with pytest.raises(bench.BenchArgumentError, match=message):
            bench.depth_table([("MC_5", SMALL)], layers)

    @pytest.mark.parametrize("bad", ["0", "-2"])
    def test_cli_reports_error_and_writes_nothing(self, bad, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bench, "build_qaoa_ansatz", no_circuit)
        save_graph(SMALL, tmp_path / "MC_5.txt")
        out = tmp_path / "depth.csv"
        assert cli.main(["depth", str(tmp_path / "MC_5.txt"), "--layers", "1", bad, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: layer count must be >= 1, got {bad}\n"
        assert captured.out == "" and not out.exists()


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


def test_repeated_layer_counts_run_once(tmp_path, capsys):
    save_graph(generate_random_graph(6, 0.5, seed=1), tmp_path / "g6.txt")
    outputs = []
    for layers in (["1"], ["1", "1"]):
        out = tmp_path / f"{len(layers)}.jsonl"
        argv = ["bench", str(tmp_path / "g6.txt"), "--layers", *layers, "--runs", "2", "--budget", "12"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        outputs.append((out.read_bytes(), out.with_suffix(".summary.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][0].splitlines()) == 2


@pytest.mark.parametrize("workers", ["1", "2"])
def test_argument_order_does_not_change_the_files(workers, tmp_path, capsys):
    # Records come out in the order the tasks are built, so the canonical
    # order must come from the front end, not from a sort of the records.
    files = []
    for n in (6, 7, 8):
        save_graph(generate_random_graph(n, 0.5, mix64(11, n)), tmp_path / f"MC_{n}.txt")
        files.append(str(tmp_path / f"MC_{n}.txt"))
    outputs = []
    for name, instances, layers in (("sorted", files, ["1", "3"]), ("reversed", files[::-1], ["3", "1", "3"])):
        out = tmp_path / f"{name}-{workers}.jsonl"
        argv = ["bench", *instances, "--layers", *layers, "--runs", "2", "--budget", "12", "--workers", workers]
        assert cli.main([*argv, "--out", str(out)]) == 0
        outputs.append((out.read_bytes(), out.with_suffix(".summary.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][0].splitlines()) == 3 * 2 * 2


def test_library_and_cli_share_every_default(tmp_path, capsys):
    # Strategy, shots, mode and seed are left to each entry point's default.
    g = generate_random_graph(6, 0.5, seed=1)
    save_graph(g, tmp_path / "g6.txt")
    cli_out = tmp_path / "cli.jsonl"
    argv = ["bench", str(tmp_path / "g6.txt"), "--layers", "1", "--runs", "1", "--budget", "12"]
    assert cli.main([*argv, "--out", str(cli_out)]) == 0
    capsys.readouterr()
    records, _ = bench.run_benchmark([("g6", g)], [1], 1, budget=12)
    bench.write_records(records, tmp_path / "library.jsonl")
    assert (tmp_path / "library.jsonl").read_bytes() == cli_out.read_bytes()
    assert records[0].strategy == "scheduled"


@pytest.mark.parametrize("mode", [EXACT, SAMPLED], ids=["exact_expectation", "sampled_expectation"])
def test_process_pool_writes_the_same_records(mode, tmp_path):
    instances = [(f"MC_{n}", generate_random_graph(n, 0.5, mix64(11, n))) for n in (8, 10)]
    outputs = []
    for workers in (1, 2):
        records, _ = bench.run_benchmark(instances, [1, 3], 2, budget=12, mode=mode, workers=workers)
        bench.write_records(records, tmp_path / f"{workers}.jsonl")
        outputs.append((tmp_path / f"{workers}.jsonl").read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 2 * 2 * 2


def record(instance, n, layers, run, ar):
    return bench.BenchRecord(
        instance=instance, n=n, layers=layers, run=run, seed=1000 + run, ar_expectation=ar, ar_best=1.0,
        expected_cost=-ar * 5, optimum=5.0, evaluations=12, compiled_depth=7,
        gate_counts={"RX": n, "CX": 2, "H": n}, strategy="naive",
    )


class TestSummary:
    # Out of order on purpose: two instances share n = 10, and MC_a lacks p = 3.
    RECORDS = [
        record("MC_b", 10, 1, 0, 0.5),
        record("MC_b", 10, 3, 0, 0.9),
        record("MC_a", 10, 1, 0, 0.6),
        record("MC_b", 10, 1, 1, 0.75),
        record("MC_z", 8, 1, 0, 1 / 3),
    ]

    def test_population_std_and_runs_per_instance_and_layers(self):
        rows = bench.summarize(self.RECORDS)
        assert [(row["instance"], row["n"]) for row in rows] == [("MC_z", 8), ("MC_a", 10), ("MC_b", 10)]
        assert rows[2]["layers"] == {
            1: {"mean": 0.625, "std": 0.125, "runs": 2},
            3: {"mean": 0.9, "std": 0.0, "runs": 1},
        }
        assert list(rows[1]["layers"]) == [1]

    def test_table_marks_missing_layer_counts(self):
        table = bench.format_summary_table(bench.summarize(self.RECORDS), [1, 3])
        assert table == (
            "instance  n   1-layer mean  1-layer std  3-layer mean  3-layer std\n"
            "--------  --  ------------  -----------  ------------  -----------\n"
            "MC_z      8   0.3333        0.0000       -             -\n"
            "MC_a      10  0.6000        0.0000       -             -\n"
            "MC_b      10  0.6250        0.1250       0.9000        0.0000\n"
        )

    def test_csv_has_one_line_per_instance_and_layers(self):
        assert bench.summary_csv(bench.summarize(self.RECORDS)) == (
            "instance,n,layers,mean_ar,std_ar,runs\n"
            "MC_z,8,1,0.333333333333,0,1\n"
            "MC_a,10,1,0.6,0,1\n"
            "MC_b,10,1,0.625,0.125,2\n"
            "MC_b,10,3,0.9,0,1\n"
        )


def test_record_keys_follow_the_golden_files():
    r = record("MC_b", 10, 3, 1, 0.9)
    golden = Path(__file__).resolve().parent / "golden" / "exact_naive.jsonl"
    first = golden.read_text().splitlines()[0]
    line = bench.record_to_json(r)
    assert list(json.loads(line)) == list(json.loads(first))
    assert list(json.loads(line)["gate_counts"]) == ["CX", "H", "RX"]
    assert bench.record_from_json(line) == r


DEPTH_GRAPHS = {
    **{f"random_{n}_{density}": generate_random_graph(n, density, mix64(5, n)) for n, density in
       [(2, 1.0), (4, 0.3), (6, 0.5), (9, 0.7), (11, 0.4), (12, 0.9)]},
    "W_9": load_graph(Path(__file__).resolve().parent / "golden" / "W_9.txt"),
    "edgeless": graph_from_pairs(5, []),
    "complete": generate_random_graph(8, 1.0, 0),
}


@pytest.mark.parametrize("name", DEPTH_GRAPHS)
def test_depth_table_matches_full_circuits(name):
    """The one-layer identities against the depth and gate counts of every
    full p-layer circuit."""
    g = DEPTH_GRAPHS[name]
    layer_counts = list(range(1, 7))
    rows = bench.depth_table([(name, g)], layer_counts)
    assert [row["layers"] for row in rows] == layer_counts
    model = maxcut_problem(g)
    metrics = {strategy: bench.compiled_metrics(model, strategy, layer_counts) for strategy in ("naive", "scheduled")}
    for row in rows:
        p = row["layers"]
        gammas, betas = [0.1 * (k + 1) for k in range(p)], [0.9 - 0.1 * k for k in range(p)]
        for strategy in ("naive", "scheduled"):
            full = decompose(build_qaoa_ansatz(model, gammas, betas, strategy))
            assert row[strategy] == depth(full), (p, strategy)
            assert metrics[strategy][p] == (depth(full), gate_counts(full)), (p, strategy)


def test_no_run_decomposes_a_multi_layer_circuit(monkeypatch):
    instances = [("MC_8", generate_random_graph(8, 0.5, mix64(11, 8)))]
    expected, _ = bench.run_benchmark(instances, [3], 1, budget=12)

    def refuse(*args, **kwargs):
        raise AssertionError("run_qaoa measured a circuit")

    for name in ("decompose", "depth", "gate_counts"):
        monkeypatch.setattr(engine, name, refuse)
    decomposed = []

    def one_layer_only(c):
        assert not any(isinstance(g, Barrier) for g in c.gates), "a circuit of more than one layer was decomposed"
        decomposed.append(c)
        return decompose(c)

    monkeypatch.setattr(bench, "decompose", one_layer_only)
    records, _ = bench.run_benchmark(instances, [3], 1, budget=12)
    assert records == expected and records[0].layers == 3
    assert len(decomposed) == 1
