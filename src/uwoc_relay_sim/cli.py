"""Configuration loading, sweep orchestration, and curve emission.

A single JSON document describes water, geometry, hops, turbulence,
noise, methods, and sweep ranges; `run_sweep` turns it into plot-ready
BER-vs-power curves (one per method and data rate), reusing channel
impulse responses and scintillation integrals across power points, since
transmit power only enters through the per-bit photon count.

Outputs are byte-stable: identical configs and seeds give identical
files, with no timestamps or environment-dependent content.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .ber import (
    BER_METHODS,
    ISI_ENUMERATION_CAP,
    CountScale,
    NoiseModel,
)
from .channel import (
    WATER_PRESETS,
    ImpulseResponse,
    LinkGeometry,
    WaterProperties,
    bit_frame_energies,
    simulate_impulse_response,
)
from .errors import ConfigError, ConvergenceError
from .relay import RelayChain, chain_average_ber
from .simulate import run_bit_simulation
from .turbulence import (
    FadingModel,
    TurbulenceParams,
    ghq_rule,
    scintillation_index_plane_wave,
    sigma_x_sq_from_si,
)

__all__ = [
    "RunConfig",
    "BerCurve",
    "load_config",
    "run_sweep",
    "emit_curves",
    "main",
    "SWEEP_METHODS",
]

logger = logging.getLogger(__name__)

SWEEP_METHODS = BER_METHODS + ("montecarlo",)

BER_CLAMP_FLOOR = 1e-300
"""Computed BERs below this are clamped to 0 and the point is flagged."""

_LOG_ENV_VAR = "UWOC_RELAY_SIM_LOG"

_DEFAULTS = {
    "geometry": {
        "aperture_diameter_m": 0.2,
        "half_angle_fov_deg": 40.0,
        "beam_divergence_full_deg": 0.02,
        "wavelength_m": 532e-9,
    },
    "turbulence": {"chi_t": 2e-7, "epsilon_diss": 1.5e-5, "w_ratio": -2.5},
    "noise": {
        "background_rate_per_s": 1.8094e8,
        "dark_current_a": 1.226e-9,
        "receiver_temperature_k": 290.0,
        "load_resistance_ohm": 100.0,
        "quantum_efficiency": 0.8,
    },
    "power_sweep_dbm": {"start": -10.0, "stop": 50.0, "step": 1.0},
    "methods": ["awgn_ghqf"],
    "ghq_order": 30,
    "tail_epsilon": 1e-6,
    "mc": {"n_photons": 1_000_000, "n_bits": 1_000_000, "seed": 12345, "bin_width_s": None},
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description (all defaults filled in)."""

    water_preset: str | None
    absorption: float
    scattering: float
    hg_asymmetry: float
    refractive_index: float
    aperture_diameter_m: float
    half_angle_fov_deg: float
    beam_divergence_full_deg: float
    wavelength_m: float
    hop_lengths_m: tuple[float, ...]
    chi_t: float | None
    epsilon_diss: float | None
    w_ratio: float | None
    sigma_x_sq: tuple[float, ...] | None
    background_rate_per_s: float
    dark_current_a: float
    receiver_temperature_k: float
    load_resistance_ohm: float
    quantum_efficiency: float
    data_rates_bps: tuple[float, ...]
    sweep_start_dbm: float
    sweep_stop_dbm: float
    sweep_step_db: float
    power_shares: tuple[float, ...] | None
    methods: tuple[str, ...]
    ghq_order: int
    tail_epsilon: float
    mc_n_photons: int
    mc_n_bits: int
    mc_seed: int
    mc_bin_width_s: float | None

    def to_dict(self) -> dict:
        """Canonical nested form; `load_config` of this dict is a fixed point."""
        return {
            "water": {
                "preset": self.water_preset,
                "absorption": self.absorption,
                "scattering": self.scattering,
                "hg_asymmetry": self.hg_asymmetry,
                "refractive_index": self.refractive_index,
            },
            "geometry": {
                "aperture_diameter_m": self.aperture_diameter_m,
                "half_angle_fov_deg": self.half_angle_fov_deg,
                "beam_divergence_full_deg": self.beam_divergence_full_deg,
                "wavelength_m": self.wavelength_m,
            },
            "hops": {
                "lengths_m": list(self.hop_lengths_m),
                "relay_count": len(self.hop_lengths_m) - 1,
                "end_to_end_distance_m": float(sum(self.hop_lengths_m)),
            },
            "turbulence": {
                "chi_t": self.chi_t,
                "epsilon_diss": self.epsilon_diss,
                "w_ratio": self.w_ratio,
                "sigma_x_sq": None if self.sigma_x_sq is None else list(self.sigma_x_sq),
            },
            "noise": {
                "background_rate_per_s": self.background_rate_per_s,
                "dark_current_a": self.dark_current_a,
                "receiver_temperature_k": self.receiver_temperature_k,
                "load_resistance_ohm": self.load_resistance_ohm,
                "quantum_efficiency": self.quantum_efficiency,
            },
            "data_rates_bps": list(self.data_rates_bps),
            "power_sweep_dbm": {
                "start": self.sweep_start_dbm,
                "stop": self.sweep_stop_dbm,
                "step": self.sweep_step_db,
            },
            "power_shares": None if self.power_shares is None else list(self.power_shares),
            "methods": list(self.methods),
            "ghq_order": self.ghq_order,
            "tail_epsilon": self.tail_epsilon,
            "mc": {
                "n_photons": self.mc_n_photons,
                "n_bits": self.mc_n_bits,
                "seed": self.mc_seed,
                "bin_width_s": self.mc_bin_width_s,
            },
        }

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def water_properties(self) -> WaterProperties:
        return WaterProperties(
            absorption=self.absorption,
            scattering=self.scattering,
            hg_asymmetry=self.hg_asymmetry,
            refractive_index=self.refractive_index,
        )

    def link_geometry(self, distance: float) -> LinkGeometry:
        return LinkGeometry(
            distance=distance,
            aperture_diameter=self.aperture_diameter_m,
            half_angle_fov=self.half_angle_fov_deg,
            beam_divergence_full=self.beam_divergence_full_deg,
            wavelength=self.wavelength_m,
        )

    def noise_model(self, bit_duration: float) -> NoiseModel:
        return NoiseModel.typical(
            bit_duration,
            background_rate=self.background_rate_per_s,
            dark_current=self.dark_current_a,
            receiver_temperature=self.receiver_temperature_k,
            load_resistance=self.load_resistance_ohm,
        )

    def power_points_dbm(self) -> np.ndarray:
        n = int(math.floor((self.sweep_stop_dbm - self.sweep_start_dbm) / self.sweep_step_db + 1e-9))
        return self.sweep_start_dbm + self.sweep_step_db * np.arange(n + 1)


@dataclass(frozen=True)
class BerCurve:
    """One plot-ready BER curve: power sweep of a single method and rate."""

    method: str
    x: tuple[float, ...]
    y: tuple[float, ...]
    ci_low: tuple[float, ...] | None
    ci_high: tuple[float, ...] | None
    metadata: dict

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have equal length")
        if any(b <= a for a, b in zip(self.x, self.x[1:])):
            raise ValueError("x must be strictly increasing")
        # Analytical methods are capped at chance; the Monte Carlo
        # estimator can statistically exceed 0.5 at zero SNR.
        limit = 0.5 if self.ci_low is None else 1.0
        if any(not (0.0 <= v <= limit) for v in self.y):
            raise ValueError(f"y values must lie in [0, {limit}]")
        if (self.ci_low is None) != (self.ci_high is None):
            raise ValueError("ci_low and ci_high must be given together")
        if self.ci_low is not None and (
            len(self.ci_low) != len(self.x) or len(self.ci_high) != len(self.x)
        ):
            raise ValueError("ci bounds must match x in length")


def _require_mapping(node, field: str, violations: list) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        violations.append(f"{field}: expected an object")
        return {}
    return node


def _take_number(
    node: dict,
    key: str,
    field: str,
    violations: list,
    *,
    default=None,
    minimum=None,
    maximum=None,
    exclusive_min=False,
    allow_none=False,
    integer=False,
):
    if key not in node or node[key] is None:
        if key in node and node[key] is None and allow_none:
            return None
        if default is not None or allow_none:
            return default
        violations.append(f"{field}: missing required value")
        return None
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        violations.append(f"{field}: expected a number, got {value!r}")
        return default
    if integer and not isinstance(value, int):
        violations.append(f"{field}: expected an integer, got {value!r}")
        return default
    value = int(value) if integer else float(value)
    if not math.isfinite(value):
        violations.append(f"{field}: must be finite")
        return default
    if minimum is not None and (value <= minimum if exclusive_min else value < minimum):
        op = ">" if exclusive_min else ">="
        violations.append(f"{field}: must be {op} {minimum}, got {value}")
        return default
    if maximum is not None and value > maximum:
        violations.append(f"{field}: must be <= {maximum}, got {value}")
        return default
    return value


def _check_unknown_keys(node: dict, known, field: str, violations: list) -> None:
    for key in node:
        if key not in known:
            violations.append(f"{field}.{key}: unknown field")


def _parse_water(node, violations: list):
    node = _require_mapping(node, "water", violations)
    _check_unknown_keys(
        node, {"preset", "absorption", "scattering", "hg_asymmetry", "refractive_index"},
        "water", violations,
    )
    preset = node.get("preset")
    absorption = _take_number(node, "absorption", "water.absorption", violations,
                              default=None, minimum=0.0, allow_none=True)
    scattering = _take_number(node, "scattering", "water.scattering", violations,
                              default=None, minimum=0.0, allow_none=True)
    if preset is not None:
        if preset not in WATER_PRESETS:
            known = ", ".join(sorted(WATER_PRESETS))
            violations.append(f"water.preset: unknown preset {preset!r}; expected one of: {known}")
            preset = None
        else:
            a0, b0 = WATER_PRESETS[preset]
            if absorption is not None and absorption != a0:
                violations.append(
                    f"water.absorption: {absorption} conflicts with preset {preset!r} ({a0})"
                )
            if scattering is not None and scattering != b0:
                violations.append(
                    f"water.scattering: {scattering} conflicts with preset {preset!r} ({b0})"
                )
            absorption, scattering = a0, b0
    if absorption is None or scattering is None:
        if preset is None:
            violations.append("water: give either a preset or absorption and scattering")
        absorption = absorption if absorption is not None else 0.0
        scattering = scattering if scattering is not None else 0.0
    hg = _take_number(node, "hg_asymmetry", "water.hg_asymmetry", violations, default=0.924)
    if hg is not None and not (-1.0 < hg < 1.0):
        violations.append(f"water.hg_asymmetry: must be in (-1, 1), got {hg}")
        hg = 0.924
    refr = _take_number(node, "refractive_index", "water.refractive_index", violations,
                        default=1.331, minimum=1.0)
    return preset, absorption, scattering, hg, refr


def _parse_hops(node, violations: list) -> tuple[float, ...]:
    node = _require_mapping(node, "hops", violations)
    if not node:
        violations.append("hops: missing (give lengths_m or relay_count + end_to_end_distance_m)")
        return (1.0,)
    _check_unknown_keys(
        node, {"lengths_m", "relay_count", "end_to_end_distance_m"}, "hops", violations
    )
    lengths = node.get("lengths_m")
    relay_count = _take_number(node, "relay_count", "hops.relay_count", violations,
                               default=None, minimum=0, allow_none=True, integer=True)
    distance = _take_number(node, "end_to_end_distance_m", "hops.end_to_end_distance_m",
                            violations, default=None, exclusive_min=True, minimum=0.0,
                            allow_none=True)
    if lengths is not None:
        if (not isinstance(lengths, list) or not lengths
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) or v <= 0
                       or not math.isfinite(float(v)) for v in lengths)):
            violations.append("hops.lengths_m: expected a nonempty list of positive numbers")
            return (1.0,)
        lengths = tuple(float(v) for v in lengths)
        if relay_count is not None and relay_count != len(lengths) - 1:
            violations.append(
                f"hops.relay_count: {relay_count} conflicts with {len(lengths)} hop lengths"
            )
        if distance is not None and not math.isclose(sum(lengths), distance, rel_tol=1e-9):
            violations.append(
                f"hops.end_to_end_distance_m: {distance} conflicts with lengths summing "
                f"to {sum(lengths)}"
            )
        return lengths
    if relay_count is None or distance is None:
        violations.append("hops: give lengths_m, or both relay_count and end_to_end_distance_m")
        return (1.0,)
    n_hops = relay_count + 1
    return tuple([distance / n_hops] * n_hops)


def _parse_turbulence(node, n_hops: int, violations: list):
    node = _require_mapping(node, "turbulence", violations)
    _check_unknown_keys(
        node, {"chi_t", "epsilon_diss", "w_ratio", "sigma_x_sq"}, "turbulence", violations
    )
    sigma = node.get("sigma_x_sq")
    has_spectrum = any(node.get(k) is not None for k in ("chi_t", "epsilon_diss", "w_ratio"))
    if sigma is not None:
        if has_spectrum:
            violations.append("turbulence: give either sigma_x_sq or spectrum parameters, not both")
        if isinstance(sigma, (int, float)) and not isinstance(sigma, bool):
            sigma = [float(sigma)] * n_hops
        if (not isinstance(sigma, list) or len(sigma) != n_hops
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) or v < 0
                       or not math.isfinite(float(v)) for v in sigma)):
            violations.append(
                f"turbulence.sigma_x_sq: expected a number or a list of {n_hops} numbers >= 0"
            )
            return None, None, None, (0.0,) * n_hops
        return None, None, None, tuple(float(v) for v in sigma)
    defaults = _DEFAULTS["turbulence"]
    chi_t = _take_number(node, "chi_t", "turbulence.chi_t", violations,
                         default=defaults["chi_t"], minimum=0.0)
    eps = _take_number(node, "epsilon_diss", "turbulence.epsilon_diss", violations,
                       default=defaults["epsilon_diss"], minimum=0.0, exclusive_min=True)
    w = _take_number(node, "w_ratio", "turbulence.w_ratio", violations,
                     default=defaults["w_ratio"])
    if w is not None and w >= 0.0:
        violations.append(f"turbulence.w_ratio: must be < 0, got {w}")
        w = defaults["w_ratio"]
    return chi_t, eps, w, None


def _parse_methods(value, violations: list) -> tuple[str, ...]:
    if value is None:
        return tuple(_DEFAULTS["methods"])
    if not isinstance(value, list) or not value:
        violations.append("methods: expected a nonempty list")
        return tuple(_DEFAULTS["methods"])
    bad = [m for m in value if m not in SWEEP_METHODS]
    if bad:
        known = ", ".join(SWEEP_METHODS)
        violations.append(f"methods: unknown entries {bad}; expected among: {known}")
    if len(set(value)) != len(value):
        violations.append("methods: duplicate entries")
    methods = tuple(m for m in value if m in SWEEP_METHODS)
    return methods or tuple(_DEFAULTS["methods"])


def _config_from_dict(data: dict) -> RunConfig:
    violations: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    known_top = {
        "water", "geometry", "hops", "turbulence", "noise", "data_rates_bps",
        "power_sweep_dbm", "power_shares", "methods", "ghq_order", "tail_epsilon", "mc",
    }
    _check_unknown_keys(data, known_top, "config", violations)

    preset, absorption, scattering, hg, refr = _parse_water(data.get("water"), violations)

    geo = _require_mapping(data.get("geometry"), "geometry", violations)
    gdef = _DEFAULTS["geometry"]
    _check_unknown_keys(geo, set(gdef), "geometry", violations)
    aperture = _take_number(geo, "aperture_diameter_m", "geometry.aperture_diameter_m",
                            violations, default=gdef["aperture_diameter_m"],
                            minimum=0.0, exclusive_min=True)
    fov = _take_number(geo, "half_angle_fov_deg", "geometry.half_angle_fov_deg",
                       violations, default=gdef["half_angle_fov_deg"],
                       minimum=0.0, exclusive_min=True, maximum=90.0)
    divergence = _take_number(geo, "beam_divergence_full_deg",
                              "geometry.beam_divergence_full_deg", violations,
                              default=gdef["beam_divergence_full_deg"], minimum=0.0)
    wavelength = _take_number(geo, "wavelength_m", "geometry.wavelength_m", violations,
                              default=gdef["wavelength_m"], minimum=0.0, exclusive_min=True)

    hop_lengths = _parse_hops(data.get("hops"), violations)
    chi_t, eps_diss, w_ratio, sigma_x_sq = _parse_turbulence(
        data.get("turbulence"), len(hop_lengths), violations
    )

    noise = _require_mapping(data.get("noise"), "noise", violations)
    ndef = _DEFAULTS["noise"]
    _check_unknown_keys(noise, set(ndef), "noise", violations)
    background = _take_number(noise, "background_rate_per_s", "noise.background_rate_per_s",
                              violations, default=ndef["background_rate_per_s"], minimum=0.0)
    dark = _take_number(noise, "dark_current_a", "noise.dark_current_a", violations,
                        default=ndef["dark_current_a"], minimum=0.0)
    temperature = _take_number(noise, "receiver_temperature_k", "noise.receiver_temperature_k",
                               violations, default=ndef["receiver_temperature_k"],
                               minimum=0.0, exclusive_min=True)
    resistance = _take_number(noise, "load_resistance_ohm", "noise.load_resistance_ohm",
                              violations, default=ndef["load_resistance_ohm"],
                              minimum=0.0, exclusive_min=True)
    efficiency = _take_number(noise, "quantum_efficiency", "noise.quantum_efficiency",
                              violations, default=ndef["quantum_efficiency"],
                              minimum=0.0, exclusive_min=True, maximum=1.0)

    rates = data.get("data_rates_bps")
    if rates is None:
        violations.append("data_rates_bps: missing required list of data rates")
        rates = (1e9,)
    elif (not isinstance(rates, list) or not rates
          or any(isinstance(v, bool) or not isinstance(v, (int, float)) or v <= 0
                 or not math.isfinite(float(v)) for v in rates)):
        violations.append("data_rates_bps: expected a nonempty list of positive numbers")
        rates = (1e9,)
    else:
        if len(set(rates)) != len(rates):
            violations.append("data_rates_bps: duplicate entries")
        rates = tuple(float(v) for v in rates)

    sweep = _require_mapping(data.get("power_sweep_dbm"), "power_sweep_dbm", violations)
    sdef = _DEFAULTS["power_sweep_dbm"]
    _check_unknown_keys(sweep, set(sdef), "power_sweep_dbm", violations)
    start = _take_number(sweep, "start", "power_sweep_dbm.start", violations,
                         default=sdef["start"])
    stop = _take_number(sweep, "stop", "power_sweep_dbm.stop", violations,
                        default=sdef["stop"])
    step = _take_number(sweep, "step", "power_sweep_dbm.step", violations,
                        default=sdef["step"])
    if start is not None and stop is not None and start >= stop:
        violations.append(f"power_sweep_dbm.start: must be < stop, got {start} >= {stop}")
    if step is not None and step <= 0.0:
        violations.append(f"power_sweep_dbm.step: must be > 0, got {step}")
        step = sdef["step"]

    shares = data.get("power_shares")
    if shares is not None:
        if (not isinstance(shares, list) or len(shares) != len(hop_lengths)
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) or v < 0
                       or not math.isfinite(float(v)) for v in shares)):
            violations.append(
                f"power_shares: expected a list of {len(hop_lengths)} numbers >= 0"
            )
            shares = None
        elif abs(sum(float(v) for v in shares) - 1.0) > 1e-9:
            violations.append(f"power_shares: must sum to 1, got {sum(shares)}")
            shares = None
        else:
            shares = tuple(float(v) for v in shares)

    methods = _parse_methods(data.get("methods"), violations)
    ghq_order = _take_number({"v": data.get("ghq_order")}, "v", "ghq_order", violations,
                             default=_DEFAULTS["ghq_order"], minimum=1, maximum=64,
                             integer=True)
    tail_eps = _take_number({"v": data.get("tail_epsilon")}, "v", "tail_epsilon", violations,
                            default=_DEFAULTS["tail_epsilon"], minimum=0.0,
                            exclusive_min=True)
    if tail_eps is not None and tail_eps >= 1.0:
        violations.append(f"tail_epsilon: must be < 1, got {tail_eps}")
        tail_eps = _DEFAULTS["tail_epsilon"]

    mc = _require_mapping(data.get("mc"), "mc", violations)
    mdef = _DEFAULTS["mc"]
    _check_unknown_keys(mc, set(mdef), "mc", violations)
    n_photons = _take_number(mc, "n_photons", "mc.n_photons", violations,
                             default=mdef["n_photons"], minimum=1, integer=True)
    n_bits = _take_number(mc, "n_bits", "mc.n_bits", violations,
                          default=mdef["n_bits"], minimum=1, integer=True)
    seed = _take_number(mc, "seed", "mc.seed", violations,
                        default=mdef["seed"], minimum=0, integer=True)
    bin_width = _take_number(mc, "bin_width_s", "mc.bin_width_s", violations,
                             default=None, minimum=0.0, exclusive_min=True, allow_none=True)

    if violations:
        raise ConfigError("invalid configuration: " + "; ".join(violations), violations)

    return RunConfig(
        water_preset=preset,
        absorption=absorption,
        scattering=scattering,
        hg_asymmetry=hg,
        refractive_index=refr,
        aperture_diameter_m=aperture,
        half_angle_fov_deg=fov,
        beam_divergence_full_deg=divergence,
        wavelength_m=wavelength,
        hop_lengths_m=hop_lengths,
        chi_t=chi_t,
        epsilon_diss=eps_diss,
        w_ratio=w_ratio,
        sigma_x_sq=sigma_x_sq,
        background_rate_per_s=background,
        dark_current_a=dark,
        receiver_temperature_k=temperature,
        load_resistance_ohm=resistance,
        quantum_efficiency=efficiency,
        data_rates_bps=rates,
        sweep_start_dbm=start,
        sweep_stop_dbm=stop,
        sweep_step_db=step,
        power_shares=shares,
        methods=methods,
        ghq_order=ghq_order,
        tail_epsilon=tail_eps,
        mc_n_photons=n_photons,
        mc_n_bits=n_bits,
        mc_seed=seed,
        mc_bin_width_s=bin_width,
    )


def load_config(path) -> RunConfig:
    """Read and validate a JSON run configuration.

    All semantic violations are collected and reported together, each
    naming the offending field.
    """
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return _config_from_dict(data)


def _derived_seed(base: int, *key: int) -> int:
    """Stable per-task seed; independent of thread scheduling."""
    return int(np.random.SeedSequence(base, spawn_key=key).generate_state(1, np.uint64)[0])


def _dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _hop_sigmas(cfg: RunConfig) -> list[float]:
    """Per-hop log-amplitude variances, computed once per distinct length."""
    if cfg.sigma_x_sq is not None:
        return list(cfg.sigma_x_sq)
    cache: dict[float, float] = {}
    for d in sorted(set(cfg.hop_lengths_m)):
        params = TurbulenceParams(
            chi_t=cfg.chi_t,
            epsilon_diss=cfg.epsilon_diss,
            w_ratio=cfg.w_ratio,
            wavelength=cfg.wavelength_m,
            distance=d,
        )
        cache[d] = sigma_x_sq_from_si(scintillation_index_plane_wave(params))
    logger.info("scintillation cache: %d distinct hop lengths", len(cache))
    return [cache[d] for d in cfg.hop_lengths_m]


def _impulse_responses(cfg: RunConfig, bin_width: float) -> dict[float, ImpulseResponse]:
    """One impulse response per distinct hop length (power-independent)."""
    water = cfg.water_properties()
    cache: dict[float, ImpulseResponse] = {}
    for i, d in enumerate(sorted(set(cfg.hop_lengths_m))):
        cache[d] = simulate_impulse_response(
            cfg.link_geometry(d),
            water,
            cfg.mc_n_photons,
            bin_width,
            _derived_seed(cfg.mc_seed, 1, i),
        )
        logger.info(
            "impulse response d=%g m: %d bins, captured fraction %.4g",
            d, cache[d].energy_fraction.size, cache[d].total_fraction,
        )
    logger.info(
        "impulse response cache: %d distinct lengths serve %d hops across %d power points",
        len(cache), len(cfg.hop_lengths_m), cfg.power_points_dbm().size,
    )
    return cache


def _curve_tag(method: str, rate: float, single_rate: bool) -> str:
    return method if single_rate else f"{method}@{rate:g}bps"


def run_sweep(cfg: RunConfig, *, threads: int = 1) -> list[BerCurve]:
    """Produce one BER-vs-power curve per (data rate, method).

    Channel impulse responses and scintillation integrals are computed
    once per distinct hop length and shared by every power point, since
    transmit power enters only through the per-bit photon count. Each
    Monte Carlo point draws its seed deterministically from the config
    seed and its (rate, power) position.

    `threads` is validated (>= 1) and otherwise reserved: the points run
    one after another, since the work holds the interpreter lock and a
    thread pool measured no faster, and every number is independent of it.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    sigmas = _hop_sigmas(cfg)
    fading = [FadingModel(sigma_x_sq=s) for s in sigmas]
    min_bit_duration = 1.0 / max(cfg.data_rates_bps)
    bin_width = cfg.mc_bin_width_s if cfg.mc_bin_width_s is not None else min_bit_duration / 10.0
    responses = _impulse_responses(cfg, bin_width)
    ghq = ghq_rule(cfg.ghq_order)
    shares = (
        list(cfg.power_shares)
        if cfg.power_shares is not None
        else [1.0 / len(cfg.hop_lengths_m)] * len(cfg.hop_lengths_m)
    )
    powers_dbm = cfg.power_points_dbm()
    single_rate = len(cfg.data_rates_bps) == 1
    base_metadata = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "seed": cfg.mc_seed,
        "sigma_x_sq_per_hop": [float(s) for s in sigmas],
    }

    curves: list[BerCurve] = []
    for rate_idx, rate in enumerate(cfg.data_rates_bps):
        bit_duration = 1.0 / rate
        energies = {
            d: bit_frame_energies(
                responses[d], bit_duration=bit_duration, tail_epsilon=cfg.tail_epsilon
            )
            for d in responses
        }
        hop_energies = [energies[d] for d in cfg.hop_lengths_m]
        noise = cfg.noise_model(bit_duration)
        memories = [e.memory for e in hop_energies]

        def chain_at(power_w: float) -> RelayChain:
            return RelayChain.assemble(
                hop_energies,
                fading,
                noise,
                total_power_per_bit=power_w,
                data_rate=rate,
                power_shares=shares,
                quantum_efficiency=cfg.quantum_efficiency,
                wavelength=cfg.wavelength_m,
            )

        for method in cfg.methods:
            def point(idx: int):
                dbm = float(powers_dbm[idx])
                chain = chain_at(_dbm_to_watts(dbm))
                try:
                    if method == "montecarlo":
                        sim = run_bit_simulation(
                            chain,
                            cfg.mc_n_bits,
                            _derived_seed(cfg.mc_seed, 2, rate_idx, idx),
                        )
                        return dbm, sim.ber_hat, sim.ci95_low, sim.ci95_high, None
                    result = chain_average_ber(chain, method, ghq)
                    return dbm, result.exact, None, None, None
                except (ConvergenceError, ValueError) as exc:
                    return dbm, None, None, None, str(exc)

            results = [point(i) for i in range(powers_dbm.size)]

            xs, ys, lows, highs = [], [], [], []
            failed, clamped = [], []
            for dbm, ber, lo, hi, reason in results:
                if reason is not None:
                    failed.append({"power_dbm": dbm, "reason": reason})
                    continue
                if 0.0 < ber < BER_CLAMP_FLOOR:
                    clamped.append(dbm)
                    ber = 0.0
                xs.append(dbm)
                ys.append(float(ber))
                lows.append(lo)
                highs.append(hi)
            metadata = dict(base_metadata)
            metadata.update(
                data_rate_bps=rate,
                memory_per_hop=[int(m) for m in memories],
                isi_pattern_sampling_per_hop=[m > ISI_ENUMERATION_CAP for m in memories],
                failed_points=failed,
                clamped_points_dbm=clamped,
            )
            is_mc = method == "montecarlo"
            curves.append(
                BerCurve(
                    method=_curve_tag(method, rate, single_rate),
                    x=tuple(xs),
                    y=tuple(ys),
                    ci_low=tuple(lows) if is_mc else None,
                    ci_high=tuple(highs) if is_mc else None,
                    metadata=metadata,
                )
            )
            logger.info(
                "curve %s at %g bps: %d points, %d failed, %d clamped",
                method, rate, len(xs), len(failed), len(clamped),
            )
    return curves


def _format_float(value: float) -> str:
    return repr(float(value))


def emit_curves(curves: list[BerCurve], format: str, out_path) -> list[Path]:
    """Write curves to `out_path` (a directory) in the requested format.

    CSV: a single `curves.csv` with schema method,power_dBm,ber,ci_low,ci_high
    (ci fields empty for analytical methods). JSON: a single `report.json`
    embedding the full configuration, per-curve metadata, and the tool
    version. Identical inputs produce byte-identical files.
    """
    if not curves:
        raise ValueError("emit_curves needs at least one curve")
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format {format!r}; expected 'csv' or 'json'")
    out_dir = Path(out_path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir}: {exc}") from exc

    if format == "csv":
        lines = ["method,power_dBm,ber,ci_low,ci_high"]
        for curve in curves:
            lows = curve.ci_low if curve.ci_low is not None else [None] * len(curve.x)
            highs = curve.ci_high if curve.ci_high is not None else [None] * len(curve.x)
            for x, y, lo, hi in zip(curve.x, curve.y, lows, highs):
                lo_s = _format_float(lo) if lo is not None else ""
                hi_s = _format_float(hi) if hi is not None else ""
                lines.append(
                    f"{curve.method},{_format_float(x)},{_format_float(y)},{lo_s},{hi_s}"
                )
        target = out_dir / "curves.csv"
        payload = "\n".join(lines) + "\n"
    else:
        config = curves[0].metadata.get("config")
        report = {
            "version": __version__,
            "config": config,
            "curves": [
                {
                    "method": curve.method,
                    "points": [
                        {
                            "power_dbm": x,
                            "ber": y,
                            "ci_low": None if curve.ci_low is None else curve.ci_low[i],
                            "ci_high": None if curve.ci_high is None else curve.ci_high[i],
                        }
                        for i, (x, y) in enumerate(zip(curve.x, curve.y))
                    ],
                    "metadata": {k: v for k, v in curve.metadata.items() if k != "config"},
                }
                for curve in curves
            ],
        }
        target = out_dir / "report.json"
        payload = json.dumps(report, sort_keys=True, indent=2) + "\n"

    try:
        target.write_text(payload)
    except OSError as exc:
        raise OSError(f"cannot write {target}: {exc}") from exc
    return [target]


def _emit_impulse_responses(cfg: RunConfig, out_path) -> list[Path]:
    min_bit_duration = 1.0 / max(cfg.data_rates_bps)
    bin_width = cfg.mc_bin_width_s if cfg.mc_bin_width_s is not None else min_bit_duration / 10.0
    responses = _impulse_responses(cfg, bin_width)
    out_dir = Path(out_path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir}: {exc}") from exc
    written = []
    for i, d in enumerate(sorted(responses)):
        target = out_dir / f"impulse_response_{i}.csv"
        try:
            target.write_text(responses[d].to_csv())
        except OSError as exc:
            raise OSError(f"cannot write {target}: {exc}") from exc
        written.append(target)
    return written


def _configure_logging() -> None:
    level_name = os.environ.get(_LOG_ENV_VAR)
    if not level_name:
        return
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        level = logging.INFO
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    """Console entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="uwoc-relay-sim",
        description="End-to-end BER curves for multi-hop underwater optical links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run the configured BER sweep")
    chan_p = sub.add_parser("channel", help="compute channel impulse responses only")
    val_p = sub.add_parser("validate", help="validate a configuration and echo it")
    for p in (run_p, chan_p, val_p):
        p.add_argument("--config", required=True, help="path to the JSON configuration")
    for p in (run_p, chan_p):
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--seed", type=int, default=None, help="override mc.seed")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default: csv)")
    run_p.add_argument("--threads", type=int, default=1,
                       help="reserved; must be >= 1 (default: 1). Sweep points run "
                            "one after another and outputs do not depend on it")

    _configure_logging()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    try:
        cfg = load_config(args.config)
        if getattr(args, "seed", None) is not None:
            cfg = replace(cfg, mc_seed=args.seed)
        if args.command == "validate":
            print(json.dumps(cfg.to_dict(), sort_keys=True, indent=2))
            return 0
        if args.command == "channel":
            for path in _emit_impulse_responses(cfg, args.out):
                print(path)
            return 0
        curves = run_sweep(cfg, threads=args.threads)
        for path in emit_curves(curves, args.format, args.out):
            print(path)
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
