"""Configuration, sweep orchestration, and CLI entry-point tests.

Sweeps here use deliberately tiny photon/bit counts: the goal is the
plumbing contract (defaults, validation, determinism, file formats, exit
codes), not statistical quality.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import uwoc_relay_sim as u
from uwoc_relay_sim import channel, cli
from uwoc_relay_sim.cli import load_config, main, run_sweep, emit_curves
from uwoc_relay_sim.errors import ConfigError

from conftest import read_impulse_response


MINIMAL = {
    "water": {"preset": "coastal"},
    "hops": {"lengths_m": [9.0]},
    "turbulence": {"sigma_x_sq": 0.05},
    "data_rates_bps": [1e9],
}

TINY_SWEEP = {
    **MINIMAL,
    "power_sweep_dbm": {"start": 10.0, "stop": 30.0, "step": 10.0},
    "methods": ["awgn_ghqf", "saddle_point", "gaussian", "montecarlo"],
    "mc": {"n_photons": 20_000, "n_bits": 20_000, "seed": 7},
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def load(tmp_path, data):
    return load_config(write_config(tmp_path, data))


# ---------------------------------------------------------------------------
# Config parsing and validation
# ---------------------------------------------------------------------------


def test_minimal_config_fills_defaults(tmp_path):
    cfg = load(tmp_path, MINIMAL)
    assert cfg.water_preset == "coastal"
    assert (cfg.absorption, cfg.scattering) == (0.179, 0.219)
    assert cfg.hg_asymmetry == 0.924
    assert cfg.refractive_index == 1.331
    assert cfg.aperture_diameter_m == 0.2
    assert cfg.half_angle_fov_deg == 40.0
    assert cfg.beam_divergence_full_deg == 0.02
    assert cfg.wavelength_m == 532e-9
    assert cfg.hop_lengths_m == (9.0,)
    assert cfg.sigma_x_sq == (0.05,)
    assert cfg.chi_t is None  # explicit sigma supersedes the spectrum route
    assert cfg.methods == ("awgn_ghqf",)
    assert cfg.ghq_order == 30
    assert cfg.tail_epsilon == 1e-6
    assert (cfg.sweep_start_dbm, cfg.sweep_stop_dbm, cfg.sweep_step_db) == (-10.0, 50.0, 1.0)
    assert cfg.mc_n_photons == 1_000_000
    assert cfg.mc_seed == 12345
    assert cfg.power_shares is None
    assert cfg.background_rate_per_s == pytest.approx(1.8094e8)


def test_spectrum_turbulence_default(tmp_path):
    data = dict(MINIMAL)
    data.pop("turbulence")
    cfg = load(tmp_path, data)
    assert cfg.sigma_x_sq is None
    assert (cfg.chi_t, cfg.epsilon_diss, cfg.w_ratio) == (2e-7, 1.5e-5, -2.5)


def test_violations_are_collected_not_first_error(tmp_path):
    bad = {
        "water": {"preset": "ocean"},
        "hops": {"lengths_m": []},
        "data_rates_bps": [-1.0],
        "ghq_order": 99,
        "bogus_section": {},
    }
    with pytest.raises(ConfigError) as err:
        load(tmp_path, bad)
    v = "; ".join(err.value.violations)
    assert len(err.value.violations) >= 5
    for fragment in (
        "water.preset",
        "hops.lengths_m",
        "data_rates_bps",
        "ghq_order",
        "config.bogus_section: unknown field",
    ):
        assert fragment in v


def test_unknown_nested_key(tmp_path):
    data = {**MINIMAL, "geometry": {"aperture_m": 0.2}}
    with pytest.raises(ConfigError, match="geometry.aperture_m: unknown field"):
        load(tmp_path, data)


def test_water_preset_conflict(tmp_path):
    data = {**MINIMAL, "water": {"preset": "coastal", "absorption": 0.5}}
    with pytest.raises(ConfigError, match="conflicts with preset"):
        load(tmp_path, data)
    # Matching explicit values are allowed alongside the preset.
    ok = {**MINIMAL, "water": {"preset": "coastal", "absorption": 0.179, "scattering": 0.219}}
    assert load(tmp_path, ok).absorption == 0.179


def test_water_requires_preset_or_coefficients(tmp_path):
    data = {**MINIMAL, "water": {}}
    with pytest.raises(ConfigError, match="either a preset or absorption"):
        load(tmp_path, data)
    custom = {**MINIMAL, "water": {"absorption": 0.1, "scattering": 0.02}}
    cfg = load(tmp_path, custom)
    assert cfg.water_preset is None
    assert (cfg.absorption, cfg.scattering) == (0.1, 0.02)


def test_hops_relay_count_route_and_conflicts(tmp_path):
    data = {
        **MINIMAL,
        "hops": {"relay_count": 3, "end_to_end_distance_m": 105.0},
        "turbulence": {"sigma_x_sq": [0.05, 0.05, 0.05, 0.05]},
    }
    cfg = load(tmp_path, data)
    assert cfg.hop_lengths_m == (26.25, 26.25, 26.25, 26.25)

    conflict = {**MINIMAL, "hops": {"lengths_m": [9.0], "relay_count": 3}}
    with pytest.raises(ConfigError, match="relay_count"):
        load(tmp_path, conflict)

    missing = {**MINIMAL, "hops": {"relay_count": 1}}
    with pytest.raises(ConfigError, match="hops"):
        load(tmp_path, missing)


def test_hops_bad_relay_count_is_its_only_violation(tmp_path):
    # Both keys are given, so the route is not in question.
    data = {**MINIMAL, "hops": {"relay_count": 100_000, "end_to_end_distance_m": 18.0}}
    with pytest.raises(ConfigError) as err:
        load(tmp_path, data)
    assert err.value.violations == ["hops.relay_count: must be <= 99, got 100000"]


def test_turbulence_either_or_and_broadcast(tmp_path):
    both = {**MINIMAL, "turbulence": {"sigma_x_sq": 0.05, "chi_t": 1e-7}}
    with pytest.raises(ConfigError, match="not both"):
        load(tmp_path, both)

    two_hop = {
        **MINIMAL,
        "hops": {"lengths_m": [9.0, 9.0]},
        "turbulence": {"sigma_x_sq": 0.03},
    }
    cfg = load(tmp_path, two_hop)
    assert cfg.sigma_x_sq == (0.03, 0.03)

    wrong_len = {
        **MINIMAL,
        "hops": {"lengths_m": [9.0, 9.0]},
        "turbulence": {"sigma_x_sq": [0.03]},
    }
    with pytest.raises(ConfigError, match="list of 2"):
        load(tmp_path, wrong_len)


def test_power_shares_validation(tmp_path):
    data = {
        **MINIMAL,
        "hops": {"lengths_m": [9.0, 9.0]},
        "turbulence": {"sigma_x_sq": 0.05},
        "power_shares": [0.25, 0.75],
    }
    assert load(tmp_path, data).power_shares == (0.25, 0.75)
    bad_sum = {**data, "power_shares": [0.25, 0.25]}
    with pytest.raises(ConfigError, match="sum to 1"):
        load(tmp_path, bad_sum)


def test_round_trip_is_a_fixed_point(tmp_path):
    cfg = load(tmp_path, TINY_SWEEP)
    again = load(tmp_path, cfg.to_dict())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_config_hash_tracks_content(tmp_path):
    a = load(tmp_path, TINY_SWEEP)
    b = load(tmp_path, {**TINY_SWEEP, "ghq_order": 20})
    assert a.config_hash() != b.config_hash()
    assert len(a.config_hash()) == 16


def test_power_points_grid(tmp_path):
    cfg = load(tmp_path, TINY_SWEEP)
    assert list(cfg.power_points_dbm()) == [10.0, 20.0, 30.0]
    dflt = load(tmp_path, MINIMAL)
    pts = dflt.power_points_dbm()
    assert pts.size == 61 and pts[0] == -10.0 and pts[-1] == 50.0


def test_config_parse_error_names_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"water": }')
    with pytest.raises(ConfigError, match="line 1"):
        load_config(path)


def test_config_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"water": {"preset": "côtier"}}'.encode("latin-1"))
    with pytest.raises(ConfigError, match=re.escape(f"config parse error in {path}: ")):
        load_config(path)
    assert main(["validate", "--config", str(path)]) == 1
    assert "configuration error: config parse error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run_sweep and emit_curves
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_curves(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cfg")
    cfg = load(tmp, TINY_SWEEP)
    return cfg, run_sweep(cfg)


def test_sweep_produces_one_curve_per_method(tiny_curves):
    cfg, curves = tiny_curves
    assert [c.method for c in curves] == list(cfg.methods)
    for curve in curves:
        assert curve.x == (10.0, 20.0, 30.0)
        assert all(0.0 <= y for y in curve.y)
        assert curve.metadata["config_hash"] == cfg.config_hash()
        assert curve.metadata["failed_points"] == []
        if curve.method == "montecarlo":
            assert curve.ci_low is not None
            assert all(lo <= y <= hi for lo, y, hi in zip(curve.ci_low, curve.y, curve.ci_high))
        else:
            assert curve.ci_low is None
            # BER decreases with power for the analytical methods.
            assert curve.y[0] > curve.y[-1]


def test_sweep_methods_mutually_consistent(tiny_curves):
    _, curves = tiny_curves
    by_method = {c.method: c for c in curves}
    # At the low-power end every model sits near chance; compare there.
    for method in ("saddle_point", "gaussian"):
        assert by_method[method].y[0] == pytest.approx(by_method["awgn_ghqf"].y[0], rel=0.2)
    mc = by_method["montecarlo"]
    assert mc.ci_low[0] - 0.05 <= by_method["awgn_ghqf"].y[0] <= mc.ci_high[0] + 0.05


def test_sweep_ghq_order_reaches_the_quadrature(tiny_curves, tmp_path):
    _, order_30 = tiny_curves
    cfg = load(tmp_path, {**TINY_SWEEP, "ghq_order": 12})
    curves = {c.method: c for c in run_sweep(cfg)}
    bit_duration = 1.0 / cfg.data_rates_bps[0]
    responses = cli._impulse_responses(cfg)
    energies = [
        u.bit_frame_energies(responses[d], bit_duration=bit_duration,
                             tail_epsilon=cfg.tail_epsilon)
        for d in cfg.hop_lengths_m
    ]
    fading = [u.FadingModel(sigma_x_sq=s) for s in cfg.sigma_x_sq]
    noise = cfg.noise_model(bit_duration)
    for method in u.BER_METHODS:
        expected = [
            u.e2e_ber_exact(u.chain_average_ber(
                u.RelayChain.assemble(energies, fading, noise, cli._dbm_to_watts(dbm),
                                      quantum_efficiency=cfg.quantum_efficiency,
                                      wavelength=cfg.wavelength_m),
                method,
                12,
            ))
            for dbm in cfg.power_points_dbm()
        ]
        assert list(curves[method].y) == expected
        assert curves[method].y != next(c.y for c in order_30 if c.method == method)


def cli_process(*argv, timeout=120):
    """Run `python -m uwoc_relay_sim` on `argv` in a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(Path(u.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "uwoc_relay_sim", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=timeout)


@pytest.mark.parametrize("start", [3040.0, 3290.0], ids=["count overflow", "watts overflow"])
def test_cli_run_fails_only_the_points_whose_power_overflows(tmp_path, start):
    # At 3040-3050 dBm the photon count per bit overflows; at 3290-3300
    # the power in watts does. Either fails its points, not the run.
    data = {**MINIMAL, "power_sweep_dbm": {"start": start, "stop": start + 10.0, "step": 10.0},
            "methods": list(cli.SWEEP_METHODS), "mc": {"n_photons": 2000}}
    out = tmp_path / "out"
    proc = cli_process("run", "--config", write_config(tmp_path, data), "--out", out,
                       "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert [c["method"] for c in report["curves"]] == list(cli.SWEEP_METHODS)
    for curve in report["curves"]:
        assert curve["points"] == []
        failed = curve["metadata"]["failed_points"]
        assert [f["power_dbm"] for f in failed] == [start, start + 10.0]


def test_cli_run_fails_cleanly_when_no_photon_reaches_a_hop(tmp_path):
    # Ballistic light through 400 m of harbor water underflows to 0 and
    # none of the 1000 traced photons arrives: `run` has no slot energies
    # to work with, while `channel` still writes the all-zero response.
    data = {"water": {"preset": "harbor"}, "hops": {"lengths_m": [400.0]},
            "data_rates_bps": [1e9], "methods": ["awgn_ghqf"],
            "mc": {"n_photons": 1000, "seed": 1}}
    path = write_config(tmp_path, data)
    run = cli_process("run", "--config", path, "--out", tmp_path / "run")
    assert run.returncode == 2, run.stderr
    assert "Traceback" not in run.stderr
    assert run.stderr.splitlines()[-1] == (
        "numerical failure: hop length 400 m: no photons reached the receiver in 1000 "
        "traced; raise mc.n_photons"
    )
    assert not (tmp_path / "run").exists()
    channel = cli_process("channel", "--config", path, "--out", tmp_path / "ir")
    assert channel.returncode == 0, channel.stderr
    text = (tmp_path / "ir" / "impulse_response_0.csv").read_text()
    rows = text.splitlines()
    assert rows[0] == "bin_start_s,energy_fraction"
    assert [row.split(",")[1] for row in rows[1:]] == ["0.0"]
    # One bin gives no width; it comes from the config (a tenth of the shortest bit).
    ir = read_impulse_response(text, 1.0 / max(data["data_rates_bps"]) / 10.0)
    assert ir.is_empty and ir.to_csv() == text


def test_cli_water_that_never_absorbs_is_refused_before_tracing(tmp_path):
    # The catalogue records this config as valid, so `validate` accepts
    # it; but at albedo 1 no photon loses weight, and only the receiver
    # plane would end its trace.
    path = write_config(tmp_path, _with(_COEFFICIENTS, "water", "absorption", 0))
    assert cli_process("validate", "--config", path).returncode == 0
    for command in ("run", "channel"):
        proc = cli_process(command, "--config", path, "--out", tmp_path / command, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == (
            "configuration error: invalid configuration: water: albedo b/(a+b) = 1 keeps a "
            "photon above 1e-06 of its weight for more than 10000 interactions; raise the "
            "absorption\n"
        )
        assert not (tmp_path / command).exists()


def test_sweep_deterministic_and_thread_invariant(tiny_curves, tmp_path, capsys):
    # Reruns through the CLI reproduce the in-process sweep byte for byte,
    # whatever --threads says: curves.csv, and report.json with the curve
    # metadata and the config. --threads below 1 is a usage error.
    _, curves = tiny_curves
    cfg_path = write_config(tmp_path, TINY_SWEEP)
    for threads, fmt in (("1", "csv"), ("2", "json")):
        (expected,) = emit_curves(curves, fmt, tmp_path / f"expected_{fmt}")
        out = tmp_path / f"threads{threads}"
        argv = ["run", "--config", str(cfg_path), "--out", str(out), "--threads", threads, "--format", fmt]
        assert main(argv) == 0
        assert (out / expected.name).read_bytes() == expected.read_bytes()
    out = tmp_path / "threads0"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--threads", "0"]) == 1
    assert "--threads: expected an integer >= 1, got '0'" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_builds_each_isi_distribution_once(tmp_path, monkeypatch):
    # Every method and power point of a hop averages over the same ISI
    # distribution, built once per (hop length, rate) and cached on the
    # slot energies; without the cache each hop average builds its own,
    # and the outputs are the same bytes.
    data = {
        **MINIMAL,
        "hops": {"lengths_m": [9.0, 12.0, 9.0]},
        "data_rates_bps": [1e9, 2e9],
        "power_sweep_dbm": {"start": 10.0, "stop": 30.0, "step": 10.0},
        "methods": ["awgn_ghqf", "saddle_point", "gaussian"],
        "mc": {"n_photons": 20_000, "seed": 7},
    }
    path = write_config(tmp_path, data)
    build = channel._isi_distribution
    built = []

    def counting(e_isi, grid_points=None):
        built.append(e_isi.size)
        return build(e_isi, grid_points)

    monkeypatch.setattr(channel, "_isi_distribution", counting)
    outputs = {}
    for name in ("cached", "uncached"):
        if name == "uncached":
            monkeypatch.setattr(channel.BitEnergies, "isi_distribution",
                                property(lambda self: channel._isi_distribution(self.e_isi)))
        built.clear()
        out = tmp_path / name
        assert main(["run", "--config", str(path), "--out", str(out), "--format", "json"]) == 0
        outputs[name] = (out / "report.json").read_bytes()
        report = json.loads(outputs[name])
        assert all(not curve["metadata"]["failed_points"] for curve in report["curves"])
        # Two distinct lengths at two rates; uncached, one build per hop
        # average: 2 rates x 3 methods x 3 powers x 2 distinct hops.
        assert len(built) == (4 if name == "cached" else 36)
    assert outputs["cached"] == outputs["uncached"]


def test_emitted_files_are_byte_stable(tiny_curves, tmp_path):
    _, curves = tiny_curves
    (a,) = emit_curves(curves, "csv", tmp_path / "a")
    (b,) = emit_curves(curves, "csv", tmp_path / "b")
    assert a.read_bytes() == b.read_bytes()

    lines = a.read_text().splitlines()
    assert lines[0] == "method,power_dBm,ber,ci_low,ci_high"
    assert len(lines) == 1 + 4 * 3  # header + 4 methods x 3 powers
    mc_rows = [ln for ln in lines[1:] if ln.startswith("montecarlo,")]
    analytic_rows = [ln for ln in lines[1:] if not ln.startswith("montecarlo,")]
    assert all(ln.count(",") == 4 and not ln.endswith(",,") for ln in mc_rows)
    assert all(ln.endswith(",,") for ln in analytic_rows)
    # Every numeric field must round-trip through float().
    for ln in lines[1:]:
        for field in ln.split(",")[1:]:
            if field:
                float(field)


def test_emit_json_report(tiny_curves, tmp_path):
    cfg, curves = tiny_curves
    (path,) = emit_curves(curves, "json", tmp_path / "j")
    report = json.loads(path.read_text())
    assert report["version"] == u.__version__
    assert report["config"] == cfg.to_dict()
    assert len(report["curves"]) == 4
    point = report["curves"][0]["points"][0]
    assert set(point) == {"power_dbm", "ber", "ci_low", "ci_high"}
    assert "memory_per_hop" in report["curves"][0]["metadata"]


def test_emit_validation(tiny_curves, tmp_path):
    _, curves = tiny_curves
    with pytest.raises(ValueError, match="unknown format"):
        emit_curves(curves, "xml", tmp_path)
    with pytest.raises(ValueError, match="at least one curve"):
        emit_curves([], "csv", tmp_path)


BER_CURVE_FIELDS = {
    "method": "gaussian", "x": (0.0, 1.0), "y": (0.1, 0.01),
    "ci_low": None, "ci_high": None, "metadata": {},
}


@pytest.mark.parametrize(
    "change,message",
    [
        ({"y": (0.1,)}, "^x and y must have equal length$"),
        ({"x": (1.0, 1.0)}, "^x must be strictly increasing$"),
        ({"y": (0.1, 0.6)}, r"^y values must lie in \[0, 0.5\]$"),
        ({"y": (0.1, 1.2), "ci_low": (0.0, 0.0), "ci_high": (1.0, 1.0)},
         r"^y values must lie in \[0, 1.0\]$"),
        ({"ci_low": (0.0, 0.0)}, "^ci_low and ci_high must be given together$"),
        ({"ci_low": (0.0,), "ci_high": (1.0,)}, "^ci bounds must match x in length$"),
    ],
)
def test_ber_curve_validation(change, message):
    assert cli.BerCurve(**BER_CURVE_FIELDS).y == (0.1, 0.01)
    with pytest.raises(ValueError, match=message):
        cli.BerCurve(**{**BER_CURVE_FIELDS, **change})


# ---------------------------------------------------------------------------
# CLI entry point
# ---------------------------------------------------------------------------


def test_cli_validate_echoes_canonical_config(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL)
    assert main(["validate", "--config", str(path)]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["water"]["preset"] == "coastal"
    assert echoed["hops"]["relay_count"] == 0
    assert echoed["ghq_order"] == 30


def test_cli_exit_code_bad_config(tmp_path, capsys):
    path = write_config(tmp_path, {"water": {"preset": "ocean"}})
    assert main(["validate", "--config", str(path)]) == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("water", "hg_asymmetry", 10 ** 400, "water.hg_asymmetry: must be finite"),
        ("hops", "lengths_m", [10 ** 400], "hops.lengths_m: expected a nonempty list"),
    ],
    ids=["number field", "number list"],
)
def test_cli_integer_beyond_float_range_is_a_config_error(
    tmp_path, capsys, section, key, value, message
):
    data = {**MINIMAL, section: {**MINIMAL[section], key: value}}
    path = write_config(tmp_path, data)
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert message in err


@pytest.mark.parametrize(
    "text",
    [
        '{"water": ' + "[" * 100_000 + "]" * 100_000 + "}",
        '{"ghq_order": 1' + "0" * 5000 + "}",
    ],
    ids=["nested 1e5 deep", "5001-digit integer"],
)
def test_cli_json_beyond_parser_limits_is_a_config_error(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"configuration error: config parse error in {path}: ")


def test_cli_exit_code_missing_file(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 3
    assert "I/O error" in capsys.readouterr().err


def test_cli_exit_code_usage(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()  # swallow argparse noise


def test_cli_run_seed_override_lands_in_report(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TINY_SWEEP)
    out = tmp_path / "out"
    code = main([
        "run", "--config", str(cfg_path), "--out", str(out),
        "--format", "json", "--seed", "999",
    ])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("report.json")
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["mc"]["seed"] == 999


@pytest.mark.parametrize("command", ["run", "channel"])
def test_cli_negative_seed_is_a_config_error(tmp_path, capsys, command):
    cfg_path = write_config(tmp_path, TINY_SWEEP)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "mc.seed: must be >= 0, got -1" in err
    assert not out.exists()


def test_cli_channel_writes_parseable_responses(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TINY_SWEEP)
    out = tmp_path / "chan"
    assert main(["channel", "--config", str(cfg_path), "--out", str(out)]) == 0
    listed = capsys.readouterr().out.split()
    target = out / "impulse_response_0.csv"
    assert [str(target)] == listed
    ir = read_impulse_response(target.read_text(), 1.0 / max(TINY_SWEEP["data_rates_bps"]) / 10.0)
    assert ir.energy_fraction.size >= 2
    assert 0.0 < ir.total_fraction <= 1.0


@pytest.mark.parametrize(
    "key, value",
    [("n_photons", 10 ** 30), ("n_bits", 10 ** 29), ("n_bits", 10 ** 10 + 1)],
    ids=["n_photons 1e30", "n_bits 1e29", "n_bits 1e10+1"],
)
def test_cli_count_above_cap_is_a_config_error(tmp_path, capsys, key, value):
    path = write_config(tmp_path, {**MINIMAL, "mc": {key: value}})
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert f"mc.{key}: must be <= 10000000000, got {value}" in err
    assert load(tmp_path, {**MINIMAL, "mc": {key: 10 ** 10}}).config_hash()


@pytest.mark.parametrize(
    "sweep, ratio",
    [({"step": 1e-300}, "6e+301"), ({"start": 0.0, "stop": 10.0, "step": 0.0009}, "11111.1")],
    ids=["step 1e-300", "11112 points"],
)
def test_cli_sweep_above_point_cap_is_a_config_error(tmp_path, capsys, sweep, ratio):
    path = write_config(tmp_path, {**MINIMAL, "power_sweep_dbm": sweep})
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert main([*command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert f"power_sweep_dbm.step: (stop - start) / step must be <= 10000, got {ratio}" in err
    assert not (tmp_path / "out").exists()
    at_cap = {"start": 0.0, "stop": 10.0, "step": 0.001}
    assert load(tmp_path, {**MINIMAL, "power_sweep_dbm": at_cap}).power_points_dbm().size == 10_001


@pytest.fixture
def address_space_cap():
    """Cap this process's address space at its current size plus 1 GiB for
    the test, so a config that asks for gigabytes fails at once instead of
    filling memory."""
    statm = Path("/proc/self/statm")
    if not statm.exists():
        pytest.skip("needs /proc/self/statm to size the address-space cap")
    in_use = int(statm.read_text().split()[0]) * resource.getpagesize()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = in_use + 2**30
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    yield
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def assert_config_error(tmp_path, capsys, data, message, commands):
    """Each command exits 1 with a configuration-error line holding `message`."""
    path = write_config(tmp_path, data)
    for command in commands:
        args = [command, "--config", str(path)]
        if command != "validate":
            args += ["--out", str(tmp_path / "out")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "change, message, at_cap",
    [
        ({"hops": {"relay_count": 10**9, "end_to_end_distance_m": 18.0}},
         "hops.relay_count: must be <= 99, got 1000000000",
         {"hops": {"relay_count": 99, "end_to_end_distance_m": 18.0}}),
        ({"hops": {"relay_count": 10**5, "end_to_end_distance_m": 18.0}},
         "hops.relay_count: must be <= 99, got 100000",
         {"hops": {"relay_count": 99, "end_to_end_distance_m": 18.0}}),
        ({"hops": {"lengths_m": [0.09] * 101}}, "hops.lengths_m: at most 100 hops, got 101",
         {"hops": {"lengths_m": [0.09] * 100}}),
        ({"data_rates_bps": [1e20]}, "data_rates_bps: each rate must be <= 1e+12, got 1e+20",
         {"data_rates_bps": [1e12]}),
        ({"data_rates_bps": [1e14]}, "data_rates_bps: each rate must be <= 1e+12, got 1e+14",
         {"data_rates_bps": [1e12]}),
        ({"data_rates_bps": [1e9, 1e300]},
         "data_rates_bps: each rate must be <= 1e+12, got 1e+300",
         {"data_rates_bps": [1e9, 1e12]}),
        ({"mc": {"bin_width_s": 1e-20}}, "mc.bin_width_s: must be >= 1e-13, got 1e-20",
         {"mc": {"bin_width_s": 1e-13}}),
    ],
    ids=["relay_count 1e9", "relay_count 1e5", "101 lengths",
         "rate 1e20", "rate 1e14", "rate 1e300", "bin 1e-20"],
)
def test_cli_value_beyond_a_memory_cap_is_a_config_error(
    tmp_path, capsys, address_space_cap, change, message, at_cap
):
    assert_config_error(tmp_path, capsys, {**MINIMAL, **change}, message,
                        ("validate", "channel", "run"))
    load(tmp_path, {**MINIMAL, **at_cap})


@pytest.mark.parametrize("bin_width", [1.0, 1e-5])
def test_cli_run_rejects_a_bin_wider_than_the_shortest_bit(
    tmp_path, capsys, monkeypatch, bin_width
):
    data = {**MINIMAL, "data_rates_bps": [5e8, 1e9],
            "power_sweep_dbm": {"start": 10.0, "stop": 20.0, "step": 10.0},
            "mc": {"n_photons": 20_000, "bin_width_s": bin_width}}
    # `channel` needs no bit slots, so it traces at any bin width.
    path = write_config(tmp_path, data)
    assert main(["channel", "--config", str(path), "--out", str(tmp_path / "ir")]) == 0
    capsys.readouterr()

    def no_trace(*args, **kwargs):
        raise AssertionError("photons traced before mc.bin_width_s was checked")

    monkeypatch.setattr(cli, "simulate_impulse_response", no_trace)
    message = f"mc.bin_width_s: must be <= 1 / max(data_rates_bps) = 1e-09 s, got {bin_width}"
    assert_config_error(tmp_path, capsys, data, message, ("run",))
    monkeypatch.undo()
    at_cap = write_config(tmp_path, {**data, "mc": {"n_photons": 20_000, "bin_width_s": 1e-9}})
    assert main(["run", "--config", str(at_cap), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("module", ["uwoc_relay_sim", "uwoc_relay_sim.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    path = write_config(tmp_path, MINIMAL)
    env = {**os.environ, "PYTHONPATH": str(Path(u.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", module, "validate", "--config", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert json.loads(proc.stdout)["water"]["preset"] == "coastal"


def test_commands_import_no_scipy(tmp_path):
    # The run path needs numpy alone; importing even scipy.special costs
    # about 0.1 s and 22 MB in every process.
    path = write_config(tmp_path, TINY_SWEEP)
    script = (
        "import sys\n"
        "from uwoc_relay_sim.cli import main\n"
        f"for argv in (['validate'], ['channel', '--out', {str(tmp_path / 'ir')!r}],\n"
        f"             ['run', '--out', {str(tmp_path / 'run')!r}]):\n"
        f"    assert main([argv[0], '--config', {str(path)!r}, *argv[1:]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(u.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "run" / "curves.csv").read_text().count("montecarlo") == 3


RELAY_SWEEP = {
    "water": {"preset": "coastal"},
    "hops": {"relay_count": 1, "end_to_end_distance_m": 18.0},
    "turbulence": {"sigma_x_sq": 0.05},
    "data_rates_bps": [1e9],
    "power_shares": [0.25, 0.75],
    "power_sweep_dbm": {"start": 0.0, "stop": 30.0, "step": 10.0},
    "methods": ["awgn_ghqf", "montecarlo"],
    "mc": {"n_photons": 20_000, "n_bits": 20_000, "seed": 7},
}

# Byte pins for every file the CLI writes and for the `validate` echo:
# a single-hop sweep with every method, and a two-hop relay chain given by
# relay count and distance with an unequal power split and a Monte Carlo
# curve. Any change to a value, to the order of random draws or to the
# output format moves a digest. Like the trace pins in test_channel, the
# digests hold for one numpy build on one CPU family. The four `run` pins
# were last re-recorded when the log-BER interpolant of the 65-point
# ISI-count grid became a cubic Hermite with fourth-order slopes
# (`ber._hermite`): the 7 awgn_ghqf BERs moved by at most 2.2e-11 relative,
# to within 5.1e-15 of direct per-value evaluation, and the 6 gaussian and
# saddle-point ones by at most 8.9e-16; every Monte Carlo count stayed the
# same. Before that, the grid rule itself (every method's conditional BER
# interpolated by PCHIP) had moved the 7 awgn_ghqf BERs by 2.2e-11 the
# other way, and SciPy's erfc and erfcx had given way to the package's own
# kernel (`ber._erfc`), moving 10 of the 13 by at most 4.1e-15 relative.
FROZEN_OUTPUTS = {
    # name: (config, CLI arguments after --config, file written or None for stdout, sha256)
    "tiny-csv": (TINY_SWEEP, ["run", "--format", "csv"], "curves.csv", "cca66eb841a28340aed81e975cd9d67f3403c3a3a549add0f6aa3fc6075a0e44"),
    "tiny-json": (TINY_SWEEP, ["run", "--format", "json"], "report.json", "5109cc125eef1a12ed55d9547ee80dcc890a978f7716076100a34620030923ab"),
    "relay-csv": (RELAY_SWEEP, ["run", "--format", "csv"], "curves.csv", "9292eb499f637f55bd0ab0e3bb880e1c357b98897b76246d8601d5ea48c40447"),
    "relay-json": (RELAY_SWEEP, ["run", "--format", "json"], "report.json", "f324db2ff601bb609857bd317b71025794d9f4554d0113893a60c2fe25b88cdb"),
    "tiny-channel": (TINY_SWEEP, ["channel"], "impulse_response_0.csv", "8f4b986dcace361f7e2444851351cade38be984525d25e6261c99313721a3f78"),
    "relay-validate": (RELAY_SWEEP, ["validate"], None, "ee41cf31a8d4efe2d4b4cdef3f18cf27471d71b4f0a202bd373e6b3dbf535746"),
}


@pytest.mark.parametrize("name", list(FROZEN_OUTPUTS))
def test_cli_output_bytes_are_frozen(name, tmp_path, capsys):
    data, (command, *options), filename, digest = FROZEN_OUTPUTS[name]
    argv = [command, "--config", str(write_config(tmp_path, data)), *options]
    if filename is not None:
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    payload = stdout.encode() if filename is None else (tmp_path / "out" / filename).read_bytes()
    assert hashlib.sha256(payload).hexdigest() == digest


def test_cli_log_env_var_is_tolerated(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("UWOC_RELAY_SIM_LOG", "debug")
    path = write_config(tmp_path, MINIMAL)
    assert main(["validate", "--config", str(path)]) == 0
    monkeypatch.setenv("UWOC_RELAY_SIM_LOG", "not-a-level")
    assert main(["validate", "--config", str(path)]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Characterization: the exact violations, or the config hash, of each input
# ---------------------------------------------------------------------------

CATALOGUE_PATH = Path(__file__).with_name("cli_config_catalogue.json")
"""Expected outcome per catalogue input: a config hash, or the violations.

Recorded once from the hand-written validator that the field table
replaced; a change to the validator must reproduce it, never re-record it.
"""

_SPECTRUM = {k: v for k, v in MINIMAL.items() if k != "turbulence"}
_COEFFICIENTS = {**MINIMAL, "water": {"absorption": 0.1, "scattering": 0.02}}
_RELAYS = {**MINIMAL, "hops": {"relay_count": 1, "end_to_end_distance_m": 18.0}}
_TWO_HOPS = {**MINIMAL, "hops": {"lengths_m": [9.0, 9.0]}}

SCALAR_FIELDS = (
    ("water", "absorption", _COEFFICIENTS),
    ("water", "scattering", _COEFFICIENTS),
    ("water", "hg_asymmetry", MINIMAL),
    ("water", "refractive_index", MINIMAL),
    ("geometry", "aperture_diameter_m", MINIMAL),
    ("geometry", "half_angle_fov_deg", MINIMAL),
    ("geometry", "beam_divergence_full_deg", MINIMAL),
    ("geometry", "wavelength_m", MINIMAL),
    ("hops", "relay_count", _RELAYS),
    ("hops", "end_to_end_distance_m", _RELAYS),
    ("turbulence", "chi_t", _SPECTRUM),
    ("turbulence", "epsilon_diss", _SPECTRUM),
    ("turbulence", "w_ratio", _SPECTRUM),
    ("noise", "background_rate_per_s", MINIMAL),
    ("noise", "dark_current_a", MINIMAL),
    ("noise", "receiver_temperature_k", MINIMAL),
    ("noise", "load_resistance_ohm", MINIMAL),
    ("noise", "quantum_efficiency", MINIMAL),
    ("power_sweep_dbm", "start", MINIMAL),
    ("power_sweep_dbm", "stop", MINIMAL),
    ("power_sweep_dbm", "step", MINIMAL),
    (None, "ghq_order", MINIMAL),
    (None, "tail_epsilon", MINIMAL),
    ("mc", "n_photons", MINIMAL),
    ("mc", "n_bits", MINIMAL),
    ("mc", "seed", MINIMAL),
    ("mc", "bin_width_s", MINIMAL),
)
"""(section, or None at the top level; key; a valid document to set it in)."""

PROBES = ("x", True, None, math.inf, math.nan, -1, 0, 0.5, 1, 1.5, 64, 65, 90, 91)
"""A string, a bool, null, non-finite values, and both sides of every bound."""

SECTIONS = ("water", "geometry", "hops", "turbulence", "noise", "power_sweep_dbm", "mc")


def _with(base, section, key, value):
    if section is None:
        return {**base, key: value}
    return {**base, section: {**base.get(section, {}), key: value}}


def _without(base, key):
    return {k: v for k, v in base.items() if k != key}


CROSS_FIELD_CASES = {
    "minimal": MINIMAL,
    "tiny sweep": TINY_SWEEP,
    "root is a list": [],
    "root is a number": 5,
    "config.bogus": {**MINIMAL, "bogus": 1},
    "several sections": {
        "water": {"preset": "ocean"},
        "hops": {"lengths_m": []},
        "data_rates_bps": [-1.0],
        "ghq_order": 99,
        "bogus_section": {},
    },
    # water: preset against coefficients
    "water missing": _without(MINIMAL, "water"),
    "water empty": {**MINIMAL, "water": {}},
    "water.preset clear": {**MINIMAL, "water": {"preset": "clear"}},
    "water.preset harbor": {**MINIMAL, "water": {"preset": "harbor"}},
    "water.preset unknown": {**MINIMAL, "water": {"preset": "ocean"}},
    "water.preset number": {**MINIMAL, "water": {"preset": 5}},
    "water.preset list": {**MINIMAL, "water": {"preset": ["coastal"]}},
    "water.preset object": {**MINIMAL, "water": {"preset": {"a": 1}}},
    "water.preset null": {**MINIMAL, "water": {"preset": None, "absorption": 0.1,
                                               "scattering": 0.02}},
    "water.preset matching coefficients": {
        **MINIMAL, "water": {"preset": "coastal", "absorption": 0.179, "scattering": 0.219}},
    "water.preset conflicting absorption": {
        **MINIMAL, "water": {"preset": "coastal", "absorption": 0.5}},
    "water.preset conflicting scattering": {
        **MINIMAL, "water": {"preset": "coastal", "scattering": 0.5}},
    "water.preset conflicting both": {
        **MINIMAL, "water": {"preset": "coastal", "absorption": 0.5, "scattering": 0.5}},
    "water.preset unknown with absorption": {
        **MINIMAL, "water": {"preset": "ocean", "absorption": 0.1}},
    "water.preset unknown with coefficients": {
        **MINIMAL, "water": {"preset": "ocean", "absorption": 0.1, "scattering": 0.02}},
    "water.preset unknown and hg_asymmetry": {
        **MINIMAL, "water": {"preset": "ocean", "hg_asymmetry": 2}},
    "water.preset conflict and refractive_index": {
        **MINIMAL, "water": {"preset": "coastal", "absorption": 0.5, "refractive_index": 0}},
    "water.absorption only": {**MINIMAL, "water": {"absorption": 0.1}},
    "water.scattering only": {**MINIMAL, "water": {"scattering": 0.1}},
    "water.absorption and scattering bad": {
        **MINIMAL, "water": {"absorption": -1, "scattering": "x"}},
    # hops: lengths against relay_count and end_to_end_distance_m
    "hops missing": _without(MINIMAL, "hops"),
    "hops empty": {**MINIMAL, "hops": {}},
    "hops.lengths_m empty": {**MINIMAL, "hops": {"lengths_m": []}},
    "hops.lengths_m zero": {**MINIMAL, "hops": {"lengths_m": [0]}},
    "hops.lengths_m negative": {**MINIMAL, "hops": {"lengths_m": [9.0, -1.0]}},
    "hops.lengths_m string": {**MINIMAL, "hops": {"lengths_m": ["9"]}},
    "hops.lengths_m bool": {**MINIMAL, "hops": {"lengths_m": [True]}},
    "hops.lengths_m inf": {**MINIMAL, "hops": {"lengths_m": [math.inf]}},
    "hops.lengths_m number": {**MINIMAL, "hops": {"lengths_m": 9.0}},
    "hops.lengths_m with matching relays": {
        **MINIMAL, "hops": {"lengths_m": [9.0, 9.0], "relay_count": 1,
                            "end_to_end_distance_m": 18.0}},
    "hops.lengths_m with conflicting relay_count": {
        **MINIMAL, "hops": {"lengths_m": [9.0], "relay_count": 3}},
    "hops.lengths_m with conflicting distance": {
        **MINIMAL, "hops": {"lengths_m": [9.0], "end_to_end_distance_m": 10.0}},
    "hops.lengths_m with both conflicting": {
        **MINIMAL, "hops": {"lengths_m": [9.0], "relay_count": 2,
                            "end_to_end_distance_m": 10.0}},
    "hops.relay_count only": {**MINIMAL, "hops": {"relay_count": 1}},
    "hops.end_to_end_distance_m only": {**MINIMAL, "hops": {"end_to_end_distance_m": 18.0}},
    "hops four equal": {
        **MINIMAL, "hops": {"relay_count": 3, "end_to_end_distance_m": 105.0}},
    # turbulence: sigma_x_sq against the spectrum
    "turbulence missing": _SPECTRUM,
    "turbulence empty": {**MINIMAL, "turbulence": {}},
    "turbulence.sigma_x_sq and chi_t": {
        **MINIMAL, "turbulence": {"sigma_x_sq": 0.05, "chi_t": 1e-7}},
    "turbulence.sigma_x_sq and null spectrum": {
        **MINIMAL, "turbulence": {"sigma_x_sq": 0.05, "chi_t": None, "w_ratio": None}},
    "turbulence.sigma_x_sq null and chi_t": {
        **MINIMAL, "turbulence": {"sigma_x_sq": None, "chi_t": 1e-7}},
    "turbulence.sigma_x_sq zero": {**MINIMAL, "turbulence": {"sigma_x_sq": 0}},
    "turbulence.sigma_x_sq negative": {**MINIMAL, "turbulence": {"sigma_x_sq": -0.1}},
    "turbulence.sigma_x_sq string": {**MINIMAL, "turbulence": {"sigma_x_sq": "x"}},
    "turbulence.sigma_x_sq bool": {**MINIMAL, "turbulence": {"sigma_x_sq": True}},
    "turbulence.sigma_x_sq list of bool": {**MINIMAL, "turbulence": {"sigma_x_sq": [True]}},
    "turbulence.sigma_x_sq list with inf": {
        **MINIMAL, "turbulence": {"sigma_x_sq": [math.inf]}},
    "turbulence.sigma_x_sq and bad chi_t": {
        **MINIMAL, "turbulence": {"sigma_x_sq": "x", "chi_t": "y"}},
    "turbulence.sigma_x_sq broadcast": {**_TWO_HOPS, "turbulence": {"sigma_x_sq": 0.03}},
    "turbulence.sigma_x_sq per hop": {
        **_TWO_HOPS, "turbulence": {"sigma_x_sq": [0.03, 0.04]}},
    "turbulence.sigma_x_sq wrong length": {
        **_TWO_HOPS, "turbulence": {"sigma_x_sq": [0.03]}},
    "turbulence.w_ratio and chi_t bad": {
        **_SPECTRUM, "turbulence": {"chi_t": -1, "w_ratio": 1}},
    # data rates
    "data_rates_bps missing": _without(MINIMAL, "data_rates_bps"),
    "data_rates_bps empty": {**MINIMAL, "data_rates_bps": []},
    "data_rates_bps number": {**MINIMAL, "data_rates_bps": 1e9},
    "data_rates_bps zero": {**MINIMAL, "data_rates_bps": [0]},
    "data_rates_bps negative": {**MINIMAL, "data_rates_bps": [1e9, -1e9]},
    "data_rates_bps string": {**MINIMAL, "data_rates_bps": ["1e9"]},
    "data_rates_bps bool": {**MINIMAL, "data_rates_bps": [True]},
    "data_rates_bps inf": {**MINIMAL, "data_rates_bps": [math.inf]},
    "data_rates_bps duplicate": {**MINIMAL, "data_rates_bps": [1e9, 1e9]},
    "data_rates_bps two": {**MINIMAL, "data_rates_bps": [1e9, 2e9]},
    # power sweep: start < stop
    "power_sweep_dbm start equals stop": {
        **MINIMAL, "power_sweep_dbm": {"start": 5, "stop": 5}},
    "power_sweep_dbm start above stop": {
        **MINIMAL, "power_sweep_dbm": {"start": 30, "stop": 10}},
    "power_sweep_dbm start above stop, step negative": {
        **MINIMAL, "power_sweep_dbm": {"start": 30, "stop": 10, "step": -1}},
    "power_sweep_dbm start above stop, step string": {
        **MINIMAL, "power_sweep_dbm": {"start": 30, "stop": 10, "step": "x"}},
    "power_sweep_dbm bad start against stop": {
        **MINIMAL, "power_sweep_dbm": {"start": "x", "stop": -20}},
    # power shares
    "power_shares one hop": {**MINIMAL, "power_shares": [1.0]},
    "power_shares null": {**_TWO_HOPS, "power_shares": None},
    "power_shares two hops": {**_TWO_HOPS, "power_shares": [0.25, 0.75]},
    "power_shares sum": {**_TWO_HOPS, "power_shares": [0.25, 0.25]},
    "power_shares wrong length": {**_TWO_HOPS, "power_shares": [1.0]},
    "power_shares negative": {**_TWO_HOPS, "power_shares": [-0.5, 1.5]},
    "power_shares string": {**_TWO_HOPS, "power_shares": "x"},
    "power_shares bool": {**_TWO_HOPS, "power_shares": [True, 0]},
    "power_shares inf": {**_TWO_HOPS, "power_shares": [0.5, math.inf]},
    "power_shares with bad hops": {**MINIMAL, "hops": {}, "power_shares": [0.5, 0.5]},
    # methods
    "methods null": {**MINIMAL, "methods": None},
    "methods empty": {**MINIMAL, "methods": []},
    "methods string": {**MINIMAL, "methods": "awgn_ghqf"},
    "methods unknown": {**MINIMAL, "methods": ["bogus"]},
    "methods number": {**MINIMAL, "methods": [5]},
    "methods duplicate": {**MINIMAL, "methods": ["awgn_ghqf", "awgn_ghqf"]},
    "methods duplicate unknown": {**MINIMAL, "methods": ["bogus", "bogus"]},
    "methods object": {**MINIMAL, "methods": [{"a": 1}]},
    "methods nested list": {**MINIMAL, "methods": [["awgn_ghqf"]]},
    "methods duplicate object": {**MINIMAL, "methods": [{"a": 1}, {"a": 1}]},
    "methods unknown among known": {**MINIMAL, "methods": ["gaussian", "bogus", "montecarlo"]},
    "methods montecarlo": {**MINIMAL, "methods": ["montecarlo"]},
}


def _catalogue() -> dict:
    cases = dict(CROSS_FIELD_CASES)
    for section in SECTIONS:
        cases[f"{section} is a number"] = {**MINIMAL, section: 5}
        cases[f"{section} is a list"] = {**MINIMAL, section: []}
        cases[f"{section}.bogus"] = _with(MINIMAL, section, "bogus", 1)
    for section, key, base in SCALAR_FIELDS:
        name = key if section is None else f"{section}.{key}"
        for probe in PROBES:
            cases[f"{name}={probe!r}"] = _with(base, section, key, probe)
    return cases


CATALOGUE = _catalogue()


def config_outcome(tmp_path, data):
    """The input's config hash, or the messages of the ConfigError it raises."""
    try:
        return load(tmp_path, data).config_hash()
    except ConfigError as exc:
        return exc.violations or [str(exc)]


@pytest.fixture(scope="module")
def recorded_outcomes():
    return json.loads(CATALOGUE_PATH.read_text())


def test_catalogue_matches_recorded_inputs(recorded_outcomes):
    assert sorted(recorded_outcomes) == sorted(CATALOGUE)


@pytest.mark.parametrize("name", list(CATALOGUE))
def test_config_characterization(tmp_path, recorded_outcomes, name):
    assert config_outcome(tmp_path, CATALOGUE[name]) == recorded_outcomes[name]


def test_config_hash_pins(tmp_path):
    assert load(tmp_path, MINIMAL).config_hash() == "5620d4ec72d6874b"
    assert load(tmp_path, TINY_SWEEP).config_hash() == "0e216e6b9bfb1070"
    assert load(tmp_path, _SPECTRUM).config_hash() == "44b64b6874fbef78"
