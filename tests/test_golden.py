"""Golden `bench` records: the equivalence gate for hot-path refactors.

The suite is MC_6..MC_10 as `qaoa-maxcut generate --seed 11` writes
them, plus the 9-node instance in `golden/W_9.txt` with integer weights
2..8, at
p in {1, 3}, 2 runs, budget 40 and 10k shots, in two modes. Each mode is
one `bench` call; `golden/<mode>.jsonl` holds the records it wrote
before the refactors it guards. Regenerate a golden file only for a
change that is meant to alter records, and say why in CHANGES.md.

Integer-weight Max-Cut energies are small integers, so every sum over
them is exact in any order and every record must match byte for byte.
No record may have an approximation ratio above 1.

`golden/wide.jsonl` holds the records of MC_16 and MC_17, as
`generate --seed 11` writes them, at p in {1, 3}, one run, budget 8 and
10k shots: the exact naive call's records, then the sampled scheduled
call's. Their states span 2^16 and 2^17 amplitudes, more than the
simulator's runs of 2^15, so they cover the slicing that the smaller
suite never reaches. They too must match byte for byte.

`golden/depth_suite.csv` is the `depth --layers 1 3 5` CSV over the
15-instance study suite (MC_8..MC_25 as `generate` writes them with its
defaults) plus W_9. Depths are integers and do not depend on the
angles, so it must match byte for byte.

`golden/optima_suite.jsonl` holds `brute_force_optimum`'s instance,
value and assignment over the same instances, one JSON object per line.
The assignment is the tie-broken lowest one and the value its
edge-order `cut_value`, so it must match byte for byte too.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from qaoa_maxcut import bench, cli
from qaoa_maxcut.graphs import brute_force_optimum, generate_random_graph, load_graph, save_graph
from qaoa_maxcut.seeding import mix64

GOLDEN = Path(__file__).resolve().parent / "golden"
SIZES = (6, 7, 8, 9, 10)
WEIGHTED = "W_9"
WIDE_SIZES = (16, 17)
MODES = {
    "sampled_scheduled": ["--mode", "sampled", "--strategy", "scheduled"],
    "exact_naive": ["--mode", "exact", "--strategy", "naive"],
}


def write_suite(directory: Path, sizes: tuple[int, ...] = SIZES, weighted: bool = True) -> list[str]:
    files = []
    for n in sizes:
        path = directory / f"MC_{n}.txt"
        save_graph(generate_random_graph(n, 0.5, mix64(11, n)), path)
        files.append(str(path))
    if weighted:
        files.append(str(GOLDEN / f"{WEIGHTED}.txt"))
    return files


def bench_argv(files: list[str], mode: str, out: Path, runs: int = 2, budget: int = 40) -> list[str]:
    return [
        "bench", *files,
        "--layers", "1", "3",
        "--runs", str(runs),
        "--budget", str(budget),
        "--shots", "10000",
        "--seed", "11",
        "--out", str(out),
        *MODES[mode],
    ]


@pytest.mark.parametrize("mode", sorted(MODES))
def test_records_match_golden(mode, tmp_path, capsys):
    out = tmp_path / "results.jsonl"
    assert cli.main(bench_argv(write_suite(tmp_path), mode, out)) == 0
    capsys.readouterr()
    got = out.read_text().splitlines()
    want = (GOLDEN / f"{mode}.jsonl").read_text().splitlines()
    assert len(got) == len(want) == (len(SIZES) + 1) * 2 * 2
    assert got == want


def test_wide_records_match_golden(tmp_path, capsys):
    files = write_suite(tmp_path, WIDE_SIZES, weighted=False)
    got = []
    for mode in ("exact_naive", "sampled_scheduled"):
        out = tmp_path / f"{mode}.jsonl"
        assert cli.main(bench_argv(files, mode, out, runs=1, budget=8)) == 0
        got.append(out.read_text())
    capsys.readouterr()
    assert len("".join(got).splitlines()) == 2 * len(WIDE_SIZES) * 2
    assert "".join(got) == (GOLDEN / "wide.jsonl").read_text()


@pytest.mark.parametrize("mode", [*sorted(MODES), "wide"])
def test_golden_ratios_lie_in_0_1(mode):
    for line in (GOLDEN / f"{mode}.jsonl").read_text().splitlines():
        record = json.loads(line)
        assert 0 < record["ar_expectation"] <= record["ar_best"] <= 1, line


@pytest.mark.parametrize("mode", [*sorted(MODES), "wide"])
def test_records_read_back_and_rewrite_the_golden_bytes(mode, tmp_path):
    out = tmp_path / "rewritten.jsonl"
    bench.write_records(bench.read_records(GOLDEN / f"{mode}.jsonl"), out)
    assert out.read_bytes() == (GOLDEN / f"{mode}.jsonl").read_bytes()


def study_suite(directory: Path) -> list[Path]:
    """MC_8..MC_25 as `generate` writes them with its defaults, by size."""
    assert cli.main(["generate", "--out", str(directory)]) == 0
    files = sorted(directory.glob("MC_*.txt"), key=lambda p: int(p.stem.split("_")[1]))
    assert len(files) == 15
    return files


def test_depth_table_matches_golden(tmp_path, capsys):
    files = sorted(str(p) for p in study_suite(tmp_path / "inst"))
    out = tmp_path / "depth.csv"
    argv = ["depth", *files, str(GOLDEN / f"{WEIGHTED}.txt"), "--layers", "1", "3", "5", "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / "depth_suite.csv").read_bytes()


def test_optima_match_golden(tmp_path, capsys):
    files = study_suite(tmp_path / "inst") + [GOLDEN / f"{WEIGHTED}.txt"]
    capsys.readouterr()
    lines = []
    for path in files:
        sol = brute_force_optimum(load_graph(path))
        lines.append(json.dumps({"instance": path.stem, "value": sol.value, "assignment": list(sol.assignment)}))
    assert "\n".join(lines) + "\n" == (GOLDEN / "optima_suite.jsonl").read_text()
