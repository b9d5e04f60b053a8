"""Tests of the benchmark's own machinery: span arithmetic, output checks
and wrapper restoration. They run the package only on tiny instances."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import layers
import run
from child import RECORDS
from tracing import Site, Span, Tracer, resolve, self_times
from workloads import GATED, Workload

from qaoa_maxcut import cli, graphs
from qaoa_maxcut.seeding import mix64

HERE = Path(__file__).resolve().parent
TINY = Workload("tiny", (5, 6), (1, 2), "sampled", 8, ("scheduled",))


def _write_instances(workload: Workload, directory: Path) -> list[str]:
    files = []
    for n in workload.sizes:
        path = directory / f"MC_{n}.txt"
        graphs.save_graph(graphs.generate_random_graph(n, 0.5, mix64(11, n)), path)
        files.append(str(path))
    return files


def _run_tiny_bench(directory: Path) -> None:
    files = _write_instances(TINY, directory)
    assert cli.main(TINY.bench_argv(files, 11, str(directory / RECORDS))) == 0


def test_self_time_subtracts_direct_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_nested_wrappers_record_parents():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: [inner(), inner()])
    outer()
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert sum(self_times(tracer.spans)) == tracer.spans[0].end - tracer.spans[0].start


def test_tampered_record_counts_as_failed(tmp_path):
    _run_tiny_bench(tmp_path)
    ref = checks.build_reference(TINY, tmp_path)
    clean = checks.bench_operations(TINY, tmp_path, ref)
    assert checks.tally([clean]) == (4, 0, [])

    lines = (tmp_path / RECORDS).read_text().splitlines()
    record = json.loads(lines[0])
    record["gate_counts"]["CX"] += 1
    lines[0] = json.dumps(record)
    (tmp_path / RECORDS).write_text("\n".join(lines) + "\n")
    tampered = checks.bench_operations(TINY, tmp_path, ref)
    attempted, failed, notes = checks.tally([clean, tampered])
    assert (attempted, failed) == (8, 1)
    assert "gate_counts" in notes[0] and "differs from the first run" in notes[0]


def test_missing_record_counts_as_failed(tmp_path):
    _run_tiny_bench(tmp_path)
    ref = checks.build_reference(TINY, tmp_path)
    lines = (tmp_path / RECORDS).read_text().splitlines()
    (tmp_path / RECORDS).write_text("\n".join(lines[1:]) + "\n")
    assert checks.tally([checks.bench_operations(TINY, tmp_path, ref)])[:2] == (4, 1)


def test_traced_run_restores_wrappers(tmp_path):
    targets = [t for site in layers.SITES for t in site.targets]
    before = {}
    for target in targets:
        owner, attr = resolve(target)
        before[target] = vars(owner)[attr]
    removed = Site("engine.removed", ("qaoa_maxcut.engine:no_such_function", "qaoa_maxcut.no_such_module:f"))
    tracer = Tracer()
    tracer.install(layers.SITES + [removed])
    try:
        _run_tiny_bench(tmp_path)
    finally:
        tracer.restore()
    for target in targets:
        owner, attr = resolve(target)
        assert vars(owner)[attr] is before[target], target

    metrics = layers.per_layer_metrics(tracer.spans, TINY, 1.0, 1.0)
    assert metrics["simulator.simulate.calls"] > 0
    assert metrics["bench.depth_table.calls"] == 0
    assert not any(span.name == "engine.removed" for span in tracer.spans)
    assert set(metrics) == set(layers.metric_units())


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(GATED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    for metric in spec["per_layer"]:
        assert (metric["better"] == "higher") == (metric["name"] in layers.HIGHER_IS_BETTER)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-prep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
