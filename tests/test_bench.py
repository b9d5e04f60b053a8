import concurrent.futures
import json
from pathlib import Path

import pytest

from qaoa_maxcut import bench, circuits, cli, engine
from qaoa_maxcut.circuits import build_qaoa_ansatz, decompose, depth, gate_counts
from qaoa_maxcut.engine import EXACT, SAMPLED
from qaoa_maxcut.graphs import CutSolution, Graph, generate_random_graph, load_graph, save_graph
from qaoa_maxcut.seeding import mix64
from qaoa_maxcut.simulator import DEFAULT_MAX_QUBITS, CapacityError

SMALL = generate_random_graph(5, 0.6, seed=1)
WIDE = generate_random_graph(DEFAULT_MAX_QUBITS + 1, 0.5, seed=2)


def no_optimum(g):
    raise AssertionError("an optimum was computed before the width check")


def no_metric(*args, **kwargs):
    raise AssertionError("a compiled metric was computed before the arguments were checked")


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
        # Exactly one run's memory at this width and the default shots, whatever this machine has free.
        one_run = (bench.BYTES_PER_AMPLITUDE << DEFAULT_MAX_QUBITS) + bench.BYTES_PER_SHOT * bench.DEFAULT_SHOTS
        monkeypatch.setattr(bench, "available_memory", lambda: one_run)
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

    def test_fails_before_any_metric(self, monkeypatch):
        monkeypatch.setattr(bench, "compiled_metrics", no_metric)
        with pytest.raises(bench.BenchArgumentError, match="instance name given more than once: MC_8$"):
            bench.depth_table([("MC_8", self.GRAPHS[0]), ("MC_5", SMALL), ("MC_8", self.GRAPHS[1])], [1])

    def test_cli_reports_error_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bench, "compiled_metrics", no_metric)
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
    # Two workers at the widest, 10 qubits, and the default shots.
    NEED = 2 * ((bench.BYTES_PER_AMPLITUDE << 10) + bench.BYTES_PER_SHOT * bench.DEFAULT_SHOTS)

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

    @pytest.mark.parametrize("shots", [bench.DEFAULT_SHOTS + 1, 10**9])
    def test_shots_alone_fail_before_any_optimum(self, shots, monkeypatch):
        # Exactly enough for both workers at the default shots, so one more shot is refused.
        monkeypatch.setattr(bench, "brute_force_optimum", no_optimum)
        monkeypatch.setattr(bench, "available_memory", lambda: self.NEED)
        with pytest.raises(CapacityError, match=rf"2 worker\(s\) at 10 qubits need .* per shot of {shots} each"):
            bench.run_benchmark(self.INSTANCES, [1], 1, shots=shots, budget=4, workers=2)

    def test_more_workers_than_runs_start_no_pool_and_budget_one_run(self, monkeypatch):
        instances = self.INSTANCES[:1]
        expected, _ = bench.run_benchmark(instances, [1], 1, budget=4)

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started for a single run")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        # Exactly one run's memory at 8 qubits and the default shots, whatever this machine has free.
        one_run = (bench.BYTES_PER_AMPLITUDE << 8) + bench.BYTES_PER_SHOT * bench.DEFAULT_SHOTS
        monkeypatch.setattr(bench, "available_memory", lambda: one_run)
        records, warnings = bench.run_benchmark(instances, [1], 1, budget=4, workers=3)
        assert records == expected and len(records) == 1 and warnings == []

    @pytest.mark.parametrize("edgeless", [1, 2])
    def test_runs_of_skipped_instances_start_no_pool(self, edgeless, monkeypatch):
        # With one edgeless instance beside MC_8 one run is left; with two and no MC_8, none.
        instances = [(f"MC_E{k}", Graph(4)) for k in range(edgeless)] + self.INSTANCES[: 2 - edgeless]
        expected, _ = bench.run_benchmark(instances, [1], 1, budget=4)

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started for fewer than two runs")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        records, warnings = bench.run_benchmark(instances, [1], 1, budget=4, workers=2)
        assert records == expected and len(records) == 2 - edgeless
        assert warnings == [f"skipped MC_E{k}: optimum cut is 0 (edgeless graph?)" for k in range(edgeless)]

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

    def test_cli_refuses_too_many_shots_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # 1 GiB holds one run's amplitudes at 10 qubits many times over, but not 10^9 shots.
        monkeypatch.setattr(bench, "brute_force_optimum", no_optimum)
        monkeypatch.setattr(bench, "available_memory", lambda: 1 << 30)
        files = []
        for name, g in self.INSTANCES:
            save_graph(g, tmp_path / f"{name}.txt")
            files.append(str(tmp_path / f"{name}.txt"))
        out = tmp_path / "results.jsonl"
        assert cli.main(["bench", *files, "--layers", "1", "--budget", "4", "--shots", str(10**9), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "per shot of 1000000000 each" in err and "--shots" in err
        assert not out.exists() and not out.with_suffix(".summary.csv").exists()


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
    def test_fails_before_any_metric(self, layers, message, monkeypatch):
        monkeypatch.setattr(bench, "compiled_metrics", no_metric)
        with pytest.raises(bench.BenchArgumentError, match=message):
            bench.depth_table([("MC_5", SMALL)], layers)

    @pytest.mark.parametrize("bad", ["0", "-2"])
    def test_cli_reports_error_and_writes_nothing(self, bad, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bench, "compiled_metrics", no_metric)
        save_graph(SMALL, tmp_path / "MC_5.txt")
        out = tmp_path / "depth.csv"
        assert cli.main(["depth", str(tmp_path / "MC_5.txt"), "--layers", "1", bad, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: layer count must be >= 1, got {bad}\n"
        assert captured.out == "" and not out.exists()


# (file bytes, the place its error names after the path, the error) for
# weights that are not positive integers, or that reach a total of 2^16.
BAD_WEIGHT_FILES = {
    **{w: (f"2 1\n0 1 {w}\n".encode(), ":2:", f"edge (0,1) has weight {float(w)}, not a positive integer")
       for w in ("0.5", "1.5", "0", "-1", "inf", "nan")},
    "65536": (b"2 1\n0 1 65536\n", ":2:", "edge (0,1) brings the total weight to 65536, not below 65536"),
    "total-2^16": (b"3 2\n0 1 65535\n1 2 1\n", ":3:", "edge (1,2) brings the total weight to 65536, not below 65536"),
}

# The same for files with a byte that is not UTF-8 (a Latin-1 comment, a
# 0xff byte), refused on its line.
NON_UTF8_FILES = {
    "latin-1-comment": (b"# caf\xe9\n2 1\n0 1\n", ":1:", "not valid UTF-8"),
    "0xff-edge": (b"3 2\n0 1\n\n1 2\xff\n", ":4:", "not valid UTF-8"),
}
BAD_FILES = {**BAD_WEIGHT_FILES, **NON_UTF8_FILES}


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
        assert err == f"error: {inf_weight}:3: edge (1,2) has weight inf, not a positive integer\n"

    @pytest.mark.parametrize("name", sorted(BAD_FILES))
    @pytest.mark.parametrize("command", ["bench", "depth"])
    def test_bad_weights_exit_2_and_write_nothing(self, command, name, tmp_path, capsys):
        data, where, message = BAD_FILES[name]
        path = tmp_path / "MC_BAD.txt"
        path.write_bytes(data)
        out = tmp_path / "out" / "results"
        out.parent.mkdir()
        assert cli.main([command, str(path), "--layers", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}{where} {message}\n" and captured.out == ""
        assert not any(out.parent.iterdir())

    @pytest.mark.parametrize("name", sorted(BAD_FILES))
    def test_verify_fails_the_parse_check_on_bad_weights(self, name, tmp_path, capsys):
        data, where, message = BAD_FILES[name]
        path = tmp_path / "MC_BAD.txt"
        path.write_bytes(data)
        assert cli.main(["verify", str(path)]) == 1
        assert capsys.readouterr().out == f"check parse: FAIL ({path}{where} {message})\n"

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
        outputs.append((out.read_bytes(), out.with_suffix(".summary.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][0].splitlines()) == 2 * 2 * 2


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


@pytest.mark.parametrize("g", [load_graph(Path(__file__).resolve().parent / "golden" / "W_9.txt"),
                               generate_random_graph(11, 0.4, mix64(5, 11))], ids=["W_9", "random_11_0.4"])
def test_depth_table_matches_full_circuits(g):
    """One row per layer count, each strategy's column the depth of the
    full decomposed circuit (`compiled_metrics` is tested in test_circuits)."""
    layer_counts = list(range(1, 7))
    rows = bench.depth_table([("g", g)], layer_counts)
    assert [row["layers"] for row in rows] == layer_counts
    for row in rows:
        p = row["layers"]
        for strategy in ("naive", "scheduled"):
            assert row[strategy] == depth(decompose(build_qaoa_ansatz(g, [0.1] * p, [0.9] * p, strategy))), (p, strategy)


@pytest.mark.parametrize("strategy", ["naive", "scheduled"])
def test_no_run_builds_or_measures_a_circuit_for_its_metrics(strategy, monkeypatch):
    """Records' compiled depth and gate counts come from the RZZ order
    alone; the final draw's circuit (`engine.build_ansatz`) is the only
    one a run builds."""
    g = generate_random_graph(8, 0.5, mix64(11, 8))
    instances = [("MC_8", g)]
    expected, _ = bench.run_benchmark(instances, [1, 3], 1, budget=12, strategy=strategy)

    def refuse(*args, **kwargs):
        raise AssertionError("a run built or measured a circuit for its metrics")

    for name in ("build_qaoa_ansatz", "decompose", "depth"):
        monkeypatch.setattr(bench, name, refuse)
    for name in ("decompose", "depth", "gate_counts"):
        monkeypatch.setattr(engine, name, refuse)
    # `compiled_metrics` lives in `circuits`; `engine` keeps its own
    # reference to the ansatz builder for the final draw.
    for name in ("build_qaoa_ansatz", "decompose", "depth", "gate_counts"):
        monkeypatch.setattr(circuits, name, refuse)
    records, _ = bench.run_benchmark(instances, [1, 3], 1, budget=12, strategy=strategy)
    assert records == expected and [r.layers for r in records] == [1, 3]
    for r in records:
        full = decompose(build_qaoa_ansatz(g, [0.2] * r.layers, [0.4] * r.layers, strategy))
        assert (r.compiled_depth, r.gate_counts) == (depth(full), gate_counts(full)), r.layers
