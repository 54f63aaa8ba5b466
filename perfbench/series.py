"""Run the benchmark over several seeds and record every result.

    python3 perfbench/series.py --seeds 1-10 --out base.jsonl [--workload W ...] [--trace 1]

Runs `run.py` once per workload and seed, one after another, from the
current directory (a source checkout), with BENCHMARK.json's
`run_seconds`, and appends each result to `--out` for `compare.py`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", action="append",
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        for seed in args.seeds:
            proc = subprocess.run([
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace), "--record", args.out,
            ], capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no result)"]
            print(f"{workload} seed {seed}: exit {proc.returncode} {last[0]}", flush=True)
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
