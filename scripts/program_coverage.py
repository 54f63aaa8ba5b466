"""List the package's statements that the benchmark's program paths never execute.

In one process, with a `sys.settrace` line trace on the package's own
files, the script runs every seed-1 config that `perfbench/workloads.py`
generates, plus one config that reaches `relay_count`, `power_shares` and
all four methods, through `uwoc_relay_sim.cli.main` as `run --format
json`, `run --format csv`, `channel` and `validate`. It then prints, per
module, each outermost statement that never ran, with its line range and
first line. A statement counts as run when a line event hit one of its
own lines (its header, for a compound statement) or any statement nested
in it; docstrings and statements that compile to no code are skipped.

    python scripts/program_coverage.py

It needs no coverage package. The whole run takes about a minute on a
2-vCPU Xeon VM.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uwoc_relay_sim"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

from compare_reports import load_workloads  # noqa: E402

SEED = 1

EXTRA_CONFIG = {
    "water": {"preset": "coastal"},
    "hops": {"relay_count": 1, "end_to_end_distance_m": 20.0},
    "data_rates_bps": [1e9],
    "power_sweep_dbm": {"start": 0.0, "stop": 4.0, "step": 4.0},
    "methods": ["awgn_ghqf", "saddle_point", "gaussian", "montecarlo"],
    "power_shares": [0.6, 0.4],
    "mc": {"n_photons": 100_000, "n_bits": 100_000, "seed": 0},
}
"""Reaches what the benchmark's configs leave out: a relay count, a power split, all methods."""


def executable_lines(code) -> set[int]:
    """Lines that some instruction of `code` or of a code object nested in it sits on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(
        node.value.value, str)


def own_lines(node: ast.stmt) -> range:
    """A simple statement's lines, or a compound statement's header lines."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        return range(start, body[0].lineno)
    return range(start, node.end_lineno + 1)


def unexecuted(path: Path, hit: set[int]) -> tuple[int, list[list]]:
    """Count of statements never run, and the outermost runs of them as [start, end, scope].

    Consecutive statements of one block that never ran form one run, so a
    function that was never called shows as one run over its body.
    """
    source = path.read_text()
    code_lines = executable_lines(compile(source, str(path), "exec"))
    missed = 0
    runs = []

    def visit_block(nodes, scope: str) -> list:
        results, current = [], None
        for node in nodes:
            if is_docstring(node):
                continue
            ran = visit(node, scope)
            results.append(ran)
            if ran is False:
                if current is None:
                    current = [own_lines(node).start, node.end_lineno, scope]
                    runs.append(current)
                current[1] = node.end_lineno
            elif ran:
                current = None
        return results

    def visit(node: ast.stmt, scope: str) -> bool | None:
        """True if the statement ran, False if not, None if it compiles to no code."""
        nonlocal missed
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        else:
            inner = scope
        children = [child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
        results = visit_block(children, inner)
        own = set(own_lines(node)) & code_lines
        if not own and all(ran is None for ran in results):
            return None
        ran = bool(own & hit) or any(results)
        missed += not ran
        return ran

    visit_block(ast.parse(source).body, "")
    outermost, end = [], 0
    for run in sorted(runs, key=lambda run: (run[0], -run[1])):
        if run[0] > end:
            outermost.append(run)
            end = run[1]
    return missed, outermost


def run_program(scratch: Path) -> None:
    from uwoc_relay_sim import cli

    configs = []
    for name, workload in load_workloads().items():
        for config_name, config in workload.configs_for(SEED).items():
            configs.append((f"{name}-{config_name}", config, workload.cli_seed(SEED, 0)))
    configs.append(("extra", EXTRA_CONFIG, SEED))
    for label, config, seed in configs:
        path = scratch / f"{label}.json"
        path.write_text(json.dumps(config))
        out = str(scratch / label)
        for argv in (
            ["run", "--format", "json", "--threads", "1", "--out", out, "--seed", str(seed)],
            ["run", "--format", "csv", "--threads", "1", "--out", out, "--seed", str(seed)],
            ["channel", "--out", out, "--seed", str(seed)],
            ["validate"],
        ):
            with contextlib.redirect_stdout(io.StringIO()):  # the written paths, the echo
                code = cli.main([*argv, "--config", str(path)])
            print(f"{label}: {argv[0]} {' '.join(argv[1:3])} exited {code}", file=sys.stderr)


def main() -> int:
    package = str(PACKAGE)
    hits: dict[str, set[int]] = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(package):
            return None
        hits.setdefault(filename, set())
        return trace_lines

    with tempfile.TemporaryDirectory(prefix="program-coverage-") as tmp:
        threading.settrace(trace_calls)
        sys.settrace(trace_calls)
        try:
            run_program(Path(tmp))
        finally:
            sys.settrace(None)
            threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed, spans = unexecuted(path, hits.get(str(path), set()))
        total += missed
        lines = path.read_text().splitlines()
        print(f"{path.relative_to(ROOT)}: {missed} statements never executed")
        for start, end, scope in spans:
            where = f"{start}" if start == end else f"{start}-{end}"
            print(f"  {where:>9}  {scope or '<module>'}: {lines[start - 1].strip()}")
    print(f"{total} statements never executed in all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
