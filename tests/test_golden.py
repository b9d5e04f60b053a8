"""Golden `bench` records: the equivalence gate for hot-path refactors.

The suite is MC_6..MC_10 as `qaoa-maxcut generate --seed 11` writes
them, plus the weighted 9-node instance in `golden/W_9.txt`, at
p in {1, 3}, 2 runs, budget 40 and 10k shots, in two modes. Each mode is
one `bench` call; `golden/<mode>.jsonl` holds the records it wrote
before the refactors it guards. Regenerate a golden file only for a
change that is meant to alter records, and say why in CHANGES.md.

Unit-weight Max-Cut energies are small integers, so every sum over them
is exact and those records must match byte for byte. Weighted energies
are not: a change in summation order may move `expected_cost` and the
ratios derived from it by a few ulps, so those are compared to 1e-12
relative while everything else must still match exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from qaoa_maxcut import cli
from qaoa_maxcut.graphs import generate_random_graph, save_graph
from qaoa_maxcut.seeding import mix64

GOLDEN = Path(__file__).resolve().parent / "golden"
SIZES = (6, 7, 8, 9, 10)
WEIGHTED = "W_9"
MODES = {
    "sampled_scheduled": ["--mode", "sampled", "--strategy", "scheduled"],
    "exact_naive": ["--mode", "exact", "--strategy", "naive"],
}
FLOAT_FIELDS = ("expected_cost", "ar_expectation", "ar_best")
REL_TOL = 1e-12


def write_suite(directory: Path) -> list[str]:
    files = []
    for n in SIZES:
        path = directory / f"MC_{n}.txt"
        save_graph(generate_random_graph(n, 0.5, mix64(11, n)), path)
        files.append(str(path))
    files.append(str(GOLDEN / f"{WEIGHTED}.txt"))
    return files


def bench_argv(files: list[str], mode: str, out: Path) -> list[str]:
    return [
        "bench", *files,
        "--layers", "1", "3",
        "--runs", "2",
        "--budget", "40",
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

    for got_line, want_line in zip(got, want):
        if json.loads(want_line)["instance"] != WEIGHTED:
            assert got_line == want_line
            continue
        g, w = json.loads(got_line), json.loads(want_line)
        for name in FLOAT_FIELDS:
            assert math.isclose(g.pop(name), w.pop(name), rel_tol=REL_TOL, abs_tol=0.0), name
        assert g == w
