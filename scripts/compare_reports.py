"""Check that two source trees write byte-identical `report.json` files.

For every benchmark workload in `perfbench/workloads.py` of this checkout
and every given seed, each of the workload's configs is run through
`uwoc_relay_sim.cli.main(["run", ..., "--format", "json", "--threads",
"1", "--seed", <cli seed>])`, with the configs and CLI seed that a
benchmark run with that seed uses in its first round. Each tree runs every
config in one fresh process that imports the package from the tree's
`src/`. The script prints the sha256 of every `report.json` from both
trees and exits 1 if any pair differs or a run does not exit 0.

    python scripts/compare_reports.py PARENT_TREE CHANGE_TREE --seeds 1 2 3

The three workloads take about 7 s per tree and seed on a 2-vCPU Xeon VM.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
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
        runs = []  # (label, config path, cli seed)
        for name in names:
            workload = workloads[name]
            for seed in args.seeds:
                cli_seed = workload.cli_seed(seed, 0)
                for config_name, config in workload.configs_for(seed).items():
                    label = f"{name} seed {seed} {config_name}"
                    path = scratch / f"{name}-{seed}-{config_name}.json"
                    path.write_text(json.dumps(config, indent=2))
                    runs.append((label, path, cli_seed))
        digests = []
        for t, tree in enumerate(args.trees):
            outs = [scratch / f"tree{t}" / path.stem for _, path, _ in runs]
            jobs = [[str(path), str(out), seed] for (_, path, seed), out in zip(runs, outs)]
            codes = run_tree(tree.resolve(), jobs, scratch)
            digests.append([
                hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
                if code == 0 else f"exit {code}"
                for code, out in zip(codes, outs)
            ])

    differ = 0
    for (label, _, cli_seed), a, b in zip(runs, *digests):
        same = a == b and not a.startswith("exit")
        differ += not same
        print(f"{'same' if same else 'DIFFERS'}  {label} (--seed {cli_seed})  {a}  {b}")
    print(f"{len(runs) - differ} of {len(runs)} reports byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
