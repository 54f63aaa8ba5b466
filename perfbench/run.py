"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload paper-gain-1g --seed 1 --seconds 42 --trace 0

Run from the root of a source checkout of uwoc-relay-sim; the program is
imported from `src/` there. Each round is a fresh process that imports
the package, validates the workload's configs and runs
`uwoc-relay-sim run --threads 1` on each of them in-process, with the
round's seed. Rounds repeat until the next one would end after
`--seconds`. The outputs are then checked (see `checks.py`).

`--trace 0` reports the end-to-end metrics: `sweep_s`, `setup_s` and
`peak_rss_mb`, each the median over rounds. `--trace 1` traces the
program's public functions from outside (see `tracing.py`) and reports
the per-layer metrics, each the median over rounds. Scratch files go to
`.perfbench/runs/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
from tracing import layer_metrics
from workloads import WORKLOADS, points_per_round

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not run the program; no result is printed."""


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # One BLAS thread: with two, the 10 Gbps sweep ran 20% faster or not at
    # all depending on whether the host left the second CPU free.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("UWOC_RELAY_SIM_LOG", None)
    return env


def run_process(argv: list[str], env: dict[str, str], root: Path) -> str:
    proc = subprocess.run(argv, env=env, cwd=root, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def spawn_child(args: list[str], env: dict[str, str], root: Path) -> dict:
    """One fresh child process; `setup_s` is from spawn to package imported and configs valid."""
    start = perf_counter()
    stdout = run_process(
        [sys.executable, str(HERE / "child.py"), "--src", str(root / "src"), *args], env, root)
    result = json.loads(stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def write_impulse_responses(config: Path, out: Path, seed: int, env, root: Path) -> None:
    run_process([
        sys.executable, "-c",
        "import sys; from uwoc_relay_sim.cli import main; sys.exit(main(sys.argv[1:]))",
        "channel", "--config", str(config), "--out", str(out), "--seed", str(seed),
    ], env, root)


def metric_units(section: str) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        root: Path) -> tuple[dict, list[dict]]:
    """Run one workload; returns the result object and per-round details."""
    workload = WORKLOADS[workload_name]
    env = child_env(root)
    rundir = root / ".perfbench" / "runs" / f"{workload_name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    configs = workload.configs_for(seed)
    config_paths = {}
    for name, config in configs.items():
        config_paths[name] = rundir / f"{name}.json"
        config_paths[name].write_text(json.dumps(config, indent=2))
    # Warm-up, not timed: writes the package's bytecode and fills the page cache.
    spawn_child([a for path in config_paths.values() for a in ("--config", str(path))]
                + ["--setup-only"], env, root)

    rounds = []
    started = perf_counter()
    while True:
        r = len(rounds)
        round_seed = workload.cli_seed(seed, r)
        outs = {name: rundir / f"round{r}" / name for name in config_paths}
        args = ["--seed", str(round_seed)]
        for name, path in config_paths.items():
            args += ["--config", str(path), "--out", str(outs[name])]
        if trace:
            args += ["--spans", str(rundir / f"round{r}-spans.json")]
        result = spawn_child(args, env, root)
        if any(code != 0 for code in result["codes"]):
            raise BenchError(f"uwoc-relay-sim run exit codes {result['codes']} (seed {round_seed})")
        result["seed"] = round_seed
        result["reports"] = {name: json.loads((out / "report.json").read_text())
                             for name, out in outs.items()}
        rounds.append(result)
        elapsed = perf_counter() - started
        if elapsed * (r + 2) / (r + 1) > seconds:
            break

    problems = []
    for result in rounds:
        problems += [f"seed {result['seed']}: {p}"
                     for p in checks.check_round(workload_name, configs, result["reports"])]
    if workload_name in checks.REFERENCED_WORKLOADS:
        response_dirs = {name: rundir / "responses" / name for name in config_paths}
        for name, path in config_paths.items():
            write_impulse_responses(path, response_dirs[name], rounds[0]["seed"], env, root)
        problems += [f"seed {rounds[0]['seed']}: {p}" for p in
                     checks.check_references(workload_name, configs, rounds[0]["reports"],
                                             response_dirs)]

    failed = sum(len(curve["metadata"]["failed_points"])
                 for result in rounds for report in result["reports"].values()
                 for curve in report["curves"])
    sweep_s = statistics.median(r["sweep_s"] for r in rounds)
    if trace:
        units = metric_units("per_layer")
        per_round = [layer_metrics(json.loads((rundir / f"round{i}-spans.json").read_text()))
                     for i in range(len(rounds))]
        values = {name: statistics.median(m[name] for m in per_round) for name in units}
    else:
        units = metric_units("end_to_end")
        values = {
            "sweep_s": sweep_s,
            "setup_s": statistics.median(r["setup_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
    summary = [{
        "seed": r["seed"], "sweep_s": r["sweep_s"], "cpu_s": r["cpu_s"], "setup_s": r["setup_s"],
        "peak_rss_mb": r["peak_rss_mb"],
        "memory_per_hop": [report["curves"][0]["metadata"]["memory_per_hop"]
                           for report in r["reports"].values()],
    } for r in rounds]
    for r in summary:
        print(f"perfbench: {workload_name} round seed {r['seed']}: sweep_s {r['sweep_s']:.3f} "
              f"({'traced' if trace else 'untraced'}), peak_rss_mb {r['peak_rss_mb']:.1f}, "
              f"channel memory per hop {r['memory_per_hop']}", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": points_per_round(workload) * len(rounds),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also append the result, with workload and seed, "
                                         "as a JSON line to this file")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    root = Path.cwd()
    if not (root / "src" / "uwoc_relay_sim" / "cli.py").is_file():
        print(f"perfbench: {root} is not a uwoc-relay-sim checkout (no src/uwoc_relay_sim)",
              file=sys.stderr)
        return 2
    try:
        result, rounds = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, **result, "rounds": rounds}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
