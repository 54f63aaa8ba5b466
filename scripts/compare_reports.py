"""Check that two source trees write byte-identical `report.json` files.

For every benchmark workload in `perfbench/workloads.py` of this checkout
and every given seed, each of the workload's configs is run through
`uwoc_relay_sim.cli.main(["run", ..., "--format", "json", "--threads",
"1", "--seed", <cli seed>])`, with the configs and CLI seed that a
benchmark run with that seed uses in its first round. Each tree runs every
config in one fresh process that imports the package from the tree's
`src/`. The script prints the sha256 of every `report.json` from both
trees and exits 1 if any pair differs or a run does not exit 0. When
reports differ, it also prints the size of the change: for each workload,
config and curve, the largest relative change |new / old - 1| of any BER
over the given seeds, matching points by power.

    python scripts/compare_reports.py PARENT_TREE CHANGE_TREE --seeds 1 2 3

The three workloads take about 7 s per tree and seed on a 2-vCPU Xeon VM.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys
from uwoc_relay_sim import cli
codes = [cli.main(["run", "--config", config, "--out", out, "--format", "json",
                   "--threads", "1", "--seed", str(seed)])
         for config, out, seed in json.load(sys.stdin)]
print(json.dumps({"codes": codes, "package": cli.__file__}))
"""


def load_workloads():
    """`perfbench/workloads.py` as a module, imported without writing bytecode."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module.WORKLOADS


def run_tree(tree: Path, jobs: list, scratch: Path) -> list[int]:
    """Run every (config, out, seed) job with the package of `tree`; returns the exit codes."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("UWOC_RELAY_SIM_LOG", None)
    proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(jobs), env=env,
                          cwd=scratch, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{tree}: the run process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not Path(result["package"]).resolve().is_relative_to((tree / "src").resolve()):
        sys.exit(f"{tree}: imported {result['package']}, not the package under {tree / 'src'}")
    return result["codes"]


def largest_changes(old: dict, new: dict) -> dict[str, float]:
    """The largest relative change of any BER per curve of two reports.

    Points are matched by power; a BER that leaves or reaches 0, or a point
    that only one report has, counts as an infinite change.
    """
    changes = {}
    new_curves = {curve["method"]: curve for curve in new["curves"]}
    for curve in old["curves"]:
        old_bers = {p["power_dbm"]: p["ber"] for p in curve["points"]}
        other = new_curves.get(curve["method"], {"points": []})
        new_bers = {p["power_dbm"]: p["ber"] for p in other["points"]}
        largest = 0.0 if old_bers.keys() == new_bers.keys() else math.inf
        for power in old_bers.keys() & new_bers.keys():
            a, b = old_bers[power], new_bers[power]
            if a != b:
                largest = max(largest, abs(b / a - 1.0) if a else math.inf)
        changes[curve["method"]] = largest
    return changes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs=2, type=Path, help="two source checkouts")
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--workloads", nargs="+", help="default: every workload")
    args = parser.parse_args(argv)
    workloads = load_workloads()
    names = args.workloads or list(workloads)

    with tempfile.TemporaryDirectory(prefix="compare-reports-") as tmp:
        scratch = Path(tmp)
        runs = []  # (label, config path, cli seed, (workload, config name))
        for name in names:
            workload = workloads[name]
            for seed in args.seeds:
                cli_seed = workload.cli_seed(seed, 0)
                for config_name, config in workload.configs_for(seed).items():
                    label = f"{name} seed {seed} {config_name}"
                    path = scratch / f"{name}-{seed}-{config_name}.json"
                    path.write_text(json.dumps(config, indent=2))
                    runs.append((label, path, cli_seed, (name, config_name)))
        digests, reports = [], []
        for t, tree in enumerate(args.trees):
            outs = [scratch / f"tree{t}" / path.stem for _, path, _, _ in runs]
            jobs = [[str(path), str(out), seed] for (_, path, seed, _), out in zip(runs, outs)]
            codes = run_tree(tree.resolve(), jobs, scratch)
            payloads = [(out / "report.json").read_bytes() if code == 0 else None
                        for code, out in zip(codes, outs)]
            digests.append([
                hashlib.sha256(payload).hexdigest() if payload is not None else f"exit {code}"
                for code, payload in zip(codes, payloads)
            ])
            reports.append([None if payload is None else json.loads(payload) for payload in payloads])

    differ = 0
    changes = {}  # (workload, config name, curve) -> largest relative BER change
    for (label, _, cli_seed, key), a, b, old, new in zip(runs, *digests, *reports):
        same = a == b and not a.startswith("exit")
        differ += not same
        print(f"{'same' if same else 'DIFFERS'}  {label} (--seed {cli_seed})  {a}  {b}")
        if not same and old is not None and new is not None:
            for curve, change in largest_changes(old, new).items():
                changes[(*key, curve)] = max(changes.get((*key, curve), 0.0), change)
    print(f"{len(runs) - differ} of {len(runs)} reports byte-identical")
    for (name, config_name, curve), change in changes.items():
        print(f"largest relative BER change  {name} {config_name} {curve}: {change:.2g}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
