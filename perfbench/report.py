"""Run every workload and print every metric by name with its unit.

    python3 perfbench/report.py [--seeds 11 17] [--seconds 45] [--out FILE]

Per workload: one untraced run per seed (end-to-end metrics; the second
seed is one nobody tuned on) and one traced run on the first seed
(per-layer metrics). With --out, the results are also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(environment, result) of one run.py invocation."""
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    environment = next(json.loads(line)["environment"] for line in lines if line.startswith('{"environment"'))
    return environment, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 17])
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    results = []
    for workload in WORKLOADS:
        for trace, seeds in ((0, args.seeds), (1, args.seeds[:1])):
            for seed in seeds:
                environment, result = run(workload, seed, args.seconds, trace)
                results.append({"workload": workload, "seed": seed, "trace": trace, "environment": environment, **result})
                print(
                    f"{workload} seed={seed} trace={trace}: "
                    f"{result['attempted']} operations, {result['failed']} failed"
                )
                for name, metric in result["metrics"].items():
                    print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if all(r["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
