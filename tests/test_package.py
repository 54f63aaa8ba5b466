"""The package's public surface: the names the six library modules export."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import re
import types
from pathlib import Path

import pytest

import uwoc_relay_sim as u
from uwoc_relay_sim import ber, channel, cli, errors, relay, simulate, turbulence

ROOT = Path(__file__).resolve().parents[1]
MODULES = (ber, channel, errors, relay, simulate, turbulence)

PUBLIC_NAMES = [
    "__version__",
    "BER_METHODS",
    "BitEnergies",
    "ConfigError",
    "ConvergenceError",
    "FadingModel",
    "HISTORY_CAP",
    "HopBerInputs",
    "ISI_ENUMERATION_CAP",
    "ImpulseResponse",
    "LinkGeometry",
    "NoiseModel",
    "RelayChain",
    "SaddlePointResult",
    "SimResult",
    "TurbulenceParams",
    "WATER_PRESETS",
    "WaterProperties",
    "bit_frame_energies",
    "chain_average_ber",
    "channel_memory",
    "e2e_ber_exact",
    "e2e_ber_upper",
    "fading_pdf",
    "ghq_rule",
    "hop_average_ber",
    "photons_per_bit",
    "run_bit_simulation",
    "saddle_point_ber",
    "sample_fading",
    "scintillation_index_plane_wave",
    "sigma_x_sq_from_si",
    "simulate_impulse_response",
]


def test_public_names_are_pinned():
    assert u.__all__ == PUBLIC_NAMES


def test_public_names_are_the_modules_exports():
    exported = {name for module in MODULES for name in module.__all__}
    assert u.__all__ == ["__version__", *sorted(exported)]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(u, name) is getattr(module, name)


@pytest.mark.parametrize(
    "function", [u.simulate_impulse_response, u.run_bit_simulation, u.scintillation_index_plane_wave]
)
def test_estimators_take_no_result_changing_options(function):
    # Batch and block sizes, the weight floor, the Poisson/Gaussian switch
    # and the integration tolerance are module constants: a result depends
    # on its inputs and seed alone.
    removed = {"batch_size", "weight_floor", "block_size", "poisson_gaussian_switch", "rel_tol"}
    assert removed.isdisjoint(inspect.signature(function).parameters)


def test_bit_frame_energies_requires_the_bit_duration():
    bit_duration = inspect.signature(u.bit_frame_energies).parameters["bit_duration"]
    assert bit_duration.default is inspect.Parameter.empty


def test_hop_path_takes_the_order_and_no_rate():
    # The fading quadrature is named by its order, and a chain's bit rate
    # is its noise model's.
    for function in (u.hop_average_ber, u.chain_average_ber):
        assert list(inspect.signature(function).parameters)[2] == "ghq_order"
    assert "data_rate" not in inspect.signature(u.RelayChain.assemble).parameters


def test_src_imports_no_scipy():
    # At module level or inside a function: numpy is the run path's only
    # numerical dependency.
    imported = set()
    for path in Path(u.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
    assert "numpy" in imported
    assert {name for name in imported if name.split(".")[0] == "scipy"} == set()


def test_no_module_imports_another_modules_private_name():
    # A rule has one home: a module that needs another's underscore name
    # asks that module for what the name computes instead.
    imported = []
    for path in sorted(Path(u.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "uwoc_relay_sim"
            ):
                imported += [
                    f"{path.name}: {alias.name}" for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                ]
    assert imported == []


def test_readme_library_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed[:3]] == list(u.BER_METHODS)
    assert printed[4].startswith("end-to-end:") and printed[6].startswith("simulated:")


def test_benchmark_trace_points_resolve():
    # The benchmark patches these (module, attribute) pairs by name; one
    # that no longer resolves would read 0 in every per-layer metric.
    # Its source is executed without importing it, so nothing is written.
    path = ROOT / "perfbench" / "tracing.py"
    tracing = types.ModuleType("tracing")
    exec(compile(path.read_text(), str(path), "exec"), tracing.__dict__)
    for module_name, attr, *_ in tracing.TRACE_POINTS:
        module = importlib.import_module(f"uwoc_relay_sim.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_a_sweep_reaches_every_benchmark_trace_point(tmp_path, monkeypatch):
    # A point that resolves but that no program path calls reads 0 too.
    # One sweep with every method and the turbulence spectrum must pass
    # through each of them. The source is executed as in the test above.
    path = ROOT / "perfbench" / "tracing.py"
    tracing = types.ModuleType("tracing")
    exec(compile(path.read_text(), str(path), "exec"), tracing.__dict__)
    calls = {}

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    for module_name, attr, *_ in tracing.TRACE_POINTS:
        module = importlib.import_module(f"uwoc_relay_sim.{module_name}")
        key = f"{module_name}.{attr}"
        calls[key] = 0
        monkeypatch.setattr(module, attr, counting(key, getattr(module, attr)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "water": {"preset": "coastal"},
        "hops": {"lengths_m": [9.0]},
        "data_rates_bps": [1e9],
        "power_sweep_dbm": {"start": 10.0, "stop": 20.0, "step": 10.0},
        "methods": ["awgn_ghqf", "saddle_point", "gaussian", "montecarlo"],
        "mc": {"n_photons": 20_000, "n_bits": 2_000, "seed": 7},
    }))
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "out"),
            "--format", "json", "--threads", "1", "--seed", "1"]
    assert cli.main(argv) == 0
    assert cli.load_config(config).sigma_x_sq is None  # the spectrum route
    assert [key for key, n in calls.items() if n == 0] == []
