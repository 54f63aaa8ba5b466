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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .ber import (
    BER_METHODS,
    DEFAULT_BACKGROUND_RATE,
    DEFAULT_DARK_CURRENT,
    DEFAULT_GHQ_ORDER,
    DEFAULT_LOAD_RESISTANCE,
    DEFAULT_QUANTUM_EFFICIENCY,
    DEFAULT_RECEIVER_TEMPERATURE,
    NoiseModel,
)
from .channel import (
    DEFAULT_HG_ASYMMETRY,
    DEFAULT_REFRACTIVE_INDEX,
    DEFAULT_TAIL_EPSILON,
    WATER_PRESETS,
    ImpulseResponse,
    LinkGeometry,
    WaterProperties,
    bit_frame_energies,
    simulate_impulse_response,
)
from .errors import ConfigError, ConvergenceError, bound_violation, is_finite
from .relay import RelayChain, chain_average_ber
from .simulate import run_bit_simulation
from .turbulence import (
    GHQ_MAX_ORDER,
    FadingModel,
    TurbulenceParams,
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


@dataclass(frozen=True)
class _Field:
    """One scalar config value: where it sits in the JSON, and how it is checked.

    `default` stands in when the key is absent or null, and after a
    violation, so that later cross-field checks still see a number.
    `bounds` are (op, limit) pairs, checked in order by
    `errors.bound_violation`.
    """

    section: str | None  # None: a top-level key
    key: str
    attr: str  # the RunConfig attribute it fills
    default: float | int | None
    bounds: tuple = ()
    integer: bool = False

    @property
    def name(self) -> str:
        return self.key if self.section is None else f"{self.section}.{self.key}"


_NONNEGATIVE = ((">=", 0.0),)
_POSITIVE = ((">", 0.0),)
# Photon and bit counts: 1e10 is 1e4 tracer batches or simulator blocks
# of 1e6, so at most 1e4 child seeds are spawned.
_COUNT = ((">=", 1), ("<=", 10**10))
_LINK_DEFAULTS = {f.name: f.default for f in fields(LinkGeometry)}
MAX_SWEEP_STEPS = 10_000
"""Largest (stop - start) / step of the power sweep: at most 10001 points."""
MAX_HOPS = 100
"""Most hops in a chain; the end-to-end combine is O(hops^2) per power point."""
MAX_DATA_RATE_BPS = 1e12
"""Fastest data rate: its default bins, a tenth of a bit, are 0.1 ps wide."""
MIN_BIN_WIDTH_S = 1e-13
"""Narrowest `mc.bin_width_s`: a tenth of the shortest bit MAX_DATA_RATE_BPS allows."""

_FIELDS = (
    _Field("water", "absorption", "absorption", None, _NONNEGATIVE),
    _Field("water", "scattering", "scattering", None, _NONNEGATIVE),
    _Field("water", "hg_asymmetry", "hg_asymmetry", DEFAULT_HG_ASYMMETRY, (("in", (-1, 1)),)),
    _Field("water", "refractive_index", "refractive_index", DEFAULT_REFRACTIVE_INDEX,
           ((">=", 1.0),)),
    _Field("geometry", "aperture_diameter_m", "aperture_diameter_m",
           _LINK_DEFAULTS["aperture_diameter"], _POSITIVE),
    _Field("geometry", "half_angle_fov_deg", "half_angle_fov_deg",
           _LINK_DEFAULTS["half_angle_fov"], _POSITIVE + (("<=", 90.0),)),
    _Field("geometry", "beam_divergence_full_deg", "beam_divergence_full_deg",
           _LINK_DEFAULTS["beam_divergence_full"], _NONNEGATIVE),
    _Field("geometry", "wavelength_m", "wavelength_m", _LINK_DEFAULTS["wavelength"], _POSITIVE),
    _Field("turbulence", "chi_t", "chi_t", 2e-7, _NONNEGATIVE),
    _Field("turbulence", "epsilon_diss", "epsilon_diss", 1.5e-5, _POSITIVE),
    _Field("turbulence", "w_ratio", "w_ratio", -2.5, (("<", 0),)),
    _Field("noise", "background_rate_per_s", "background_rate_per_s",
           DEFAULT_BACKGROUND_RATE, _NONNEGATIVE),
    _Field("noise", "dark_current_a", "dark_current_a", DEFAULT_DARK_CURRENT, _NONNEGATIVE),
    _Field("noise", "receiver_temperature_k", "receiver_temperature_k",
           DEFAULT_RECEIVER_TEMPERATURE, _POSITIVE),
    _Field("noise", "load_resistance_ohm", "load_resistance_ohm",
           DEFAULT_LOAD_RESISTANCE, _POSITIVE),
    _Field("noise", "quantum_efficiency", "quantum_efficiency",
           DEFAULT_QUANTUM_EFFICIENCY, _POSITIVE + (("<=", 1.0),)),
    _Field("power_sweep_dbm", "start", "sweep_start_dbm", -10.0),
    _Field("power_sweep_dbm", "stop", "sweep_stop_dbm", 50.0),
    # step > 0 is checked in code after start < stop, keeping the order violations are listed in.
    _Field("power_sweep_dbm", "step", "sweep_step_db", 1.0),
    _Field(None, "ghq_order", "ghq_order", DEFAULT_GHQ_ORDER,
           ((">=", 1), ("<=", GHQ_MAX_ORDER)), integer=True),
    _Field(None, "tail_epsilon", "tail_epsilon", DEFAULT_TAIL_EPSILON, _POSITIVE + (("<", 1),)),
    _Field("mc", "n_photons", "mc_n_photons", 1_000_000, _COUNT, integer=True),
    _Field("mc", "n_bits", "mc_n_bits", 1_000_000, _COUNT, integer=True),
    _Field("mc", "seed", "mc_seed", 12345, ((">=", 0),), integer=True),
    _Field("mc", "bin_width_s", "mc_bin_width_s", None,
           _POSITIVE + ((">=", MIN_BIN_WIDTH_S),)),
)
"""Every scalar RunConfig field; it drives parsing, unknown-key checks and `to_dict`."""

# Not RunConfig attributes: hops resolve to `hop_lengths_m`.
_RELAY_COUNT = _Field("hops", "relay_count", "", None, ((">=", 0), ("<=", MAX_HOPS - 1)),
                      integer=True)
_DISTANCE = _Field("hops", "end_to_end_distance_m", "", None, _POSITIVE)

_TOP_LEVEL_KEYS = {f.section or f.key for f in _FIELDS} | {
    "hops", "data_rates_bps", "power_shares", "methods",
}
_DEFAULT_METHODS = ("awgn_ghqf",)


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
        out = {
            "water": {"preset": self.water_preset},
            "hops": {
                "lengths_m": list(self.hop_lengths_m),
                "relay_count": len(self.hop_lengths_m) - 1,
                "end_to_end_distance_m": float(sum(self.hop_lengths_m)),
            },
            "turbulence": {
                "sigma_x_sq": None if self.sigma_x_sq is None else list(self.sigma_x_sq),
            },
            "data_rates_bps": list(self.data_rates_bps),
            "power_shares": None if self.power_shares is None else list(self.power_shares),
            "methods": list(self.methods),
        }
        for f in _FIELDS:
            node = out if f.section is None else out.setdefault(f.section, {})
            node[f.key] = getattr(self, f.attr)
        return out

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


def _check_unknown_keys(node: dict, known, field: str, violations: list) -> None:
    for key in node:
        if key not in known:
            violations.append(f"{field}.{key}: unknown field")


def _section(data: dict, name: str, violations: list, extra=()) -> dict:
    """`data[name]` checked for unknown keys; empty when absent or not an object."""
    node = data.get(name)
    if node is None:
        return {}
    if not isinstance(node, dict):
        violations.append(f"{name}: expected an object")
        return {}
    known = {f.key for f in _FIELDS if f.section == name}.union(extra)
    _check_unknown_keys(node, known, name, violations)
    return node


def _take_number(node: dict, field: _Field, violations: list):
    """`field`'s value in `node`; its default when absent, null or in violation."""
    value = node.get(field.key)
    if value is None:
        return field.default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problem = f"expected a number, got {value!r}"
    elif field.integer and not isinstance(value, int):
        problem = f"expected an integer, got {value!r}"
    elif not is_finite(value):
        problem = "must be finite"
    else:
        value = int(value) if field.integer else float(value)
        problem = bound_violation(value, field.bounds)
        if problem is None:
            return value
    violations.append(f"{field.name}: {problem}")
    return field.default


def _take_fields(node: dict, section: str | None, violations: list, keys=None) -> dict:
    """RunConfig values of the table's fields in `section` (only `keys`, if given)."""
    return {
        f.attr: _take_number(node, f, violations)
        for f in _FIELDS
        if f.section == section and (keys is None or f.key in keys)
    }


def _is_number_list(value, length: int | None = None, *, positive: bool) -> bool:
    """A list of `length` (or any nonzero count of) finite numbers > 0, or >= 0."""
    return (
        isinstance(value, list)
        and (len(value) == length if length is not None else bool(value))
        and all(
            not isinstance(v, bool) and isinstance(v, (int, float))
            and (v > 0 if positive else v >= 0) and is_finite(v)
            for v in value
        )
    )


def _parse_water(data: dict, violations: list) -> dict:
    node = _section(data, "water", violations, extra=("preset",))
    coefficients = _take_fields(node, "water", violations, keys=("absorption", "scattering"))
    absorption, scattering = coefficients["absorption"], coefficients["scattering"]
    preset = node.get("preset")
    if preset is not None:
        if not isinstance(preset, str) or preset not in WATER_PRESETS:
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
    if preset is None and (absorption is None or scattering is None):
        violations.append("water: give either a preset or absorption and scattering")
    return {
        "water_preset": preset,
        "absorption": absorption,
        "scattering": scattering,
        **_take_fields(node, "water", violations, keys=("hg_asymmetry", "refractive_index")),
    }


def _parse_hops(data: dict, violations: list) -> tuple[float, ...]:
    node = _section(data, "hops", violations,
                    extra=("lengths_m", _RELAY_COUNT.key, _DISTANCE.key))
    if not node:
        violations.append("hops: missing (give lengths_m or relay_count + end_to_end_distance_m)")
        return (1.0,)
    lengths = node.get("lengths_m")
    relay_count = _take_number(node, _RELAY_COUNT, violations)
    distance = _take_number(node, _DISTANCE, violations)
    if lengths is not None:
        if isinstance(lengths, list) and len(lengths) > MAX_HOPS:
            violations.append(f"hops.lengths_m: at most {MAX_HOPS} hops, got {len(lengths)}")
            return (1.0,)
        if not _is_number_list(lengths, positive=True):
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
    if node.get(_RELAY_COUNT.key) is None or node.get(_DISTANCE.key) is None:
        violations.append("hops: give lengths_m, or both relay_count and end_to_end_distance_m")
    if relay_count is None or distance is None:
        return (1.0,)
    n_hops = relay_count + 1
    return tuple([distance / n_hops] * n_hops)


def _parse_turbulence(data: dict, n_hops: int, violations: list) -> dict:
    node = _section(data, "turbulence", violations, extra=("sigma_x_sq",))
    sigma = node.get("sigma_x_sq")
    if sigma is None:
        return {"sigma_x_sq": None, **_take_fields(node, "turbulence", violations)}
    spectrum = [f for f in _FIELDS if f.section == "turbulence"]
    if any(node.get(f.key) is not None for f in spectrum):
        violations.append("turbulence: give either sigma_x_sq or spectrum parameters, not both")
    if isinstance(sigma, (int, float)) and not isinstance(sigma, bool):
        sigma = [sigma] * n_hops
    if not _is_number_list(sigma, n_hops, positive=False):
        violations.append(
            f"turbulence.sigma_x_sq: expected a number or a list of {n_hops} numbers >= 0"
        )
        sigma = ()
    return {"sigma_x_sq": tuple(float(v) for v in sigma), **{f.attr: None for f in spectrum}}


def _config_from_dict(data: dict) -> RunConfig:
    violations: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    _check_unknown_keys(data, _TOP_LEVEL_KEYS, "config", violations)

    values = _parse_water(data, violations)
    values.update(_take_fields(_section(data, "geometry", violations), "geometry", violations))
    hop_lengths = _parse_hops(data, violations)
    values.update(_parse_turbulence(data, len(hop_lengths), violations))
    values.update(_take_fields(_section(data, "noise", violations), "noise", violations))

    rates = data.get("data_rates_bps")
    if rates is None:
        violations.append("data_rates_bps: missing required list of data rates")
    elif not _is_number_list(rates, positive=True):
        violations.append("data_rates_bps: expected a nonempty list of positive numbers")
    elif len(set(rates)) != len(rates):
        violations.append("data_rates_bps: duplicate entries")
    elif max(rates) > MAX_DATA_RATE_BPS:
        violations.append(
            f"data_rates_bps: each rate must be <= {MAX_DATA_RATE_BPS:g}, got {max(rates):g}"
        )

    sweep = _take_fields(
        _section(data, "power_sweep_dbm", violations), "power_sweep_dbm", violations
    )
    start, stop, step = sweep["sweep_start_dbm"], sweep["sweep_stop_dbm"], sweep["sweep_step_db"]
    if start >= stop:
        violations.append(f"power_sweep_dbm.start: must be < stop, got {start} >= {stop}")
    if step <= 0.0:
        violations.append(f"power_sweep_dbm.step: must be > 0, got {step}")
    elif (stop - start) / step > MAX_SWEEP_STEPS:
        violations.append(
            f"power_sweep_dbm.step: (stop - start) / step must be <= {MAX_SWEEP_STEPS}, "
            f"got {(stop - start) / step}"
        )
    values.update(sweep)

    shares = data.get("power_shares")
    if shares is not None:
        if not _is_number_list(shares, len(hop_lengths), positive=False):
            violations.append(
                f"power_shares: expected a list of {len(hop_lengths)} numbers >= 0"
            )
        elif abs(sum(float(v) for v in shares) - 1.0) > 1e-9:
            violations.append(f"power_shares: must sum to 1, got {sum(shares)}")
        else:
            shares = tuple(float(v) for v in shares)

    methods = data.get("methods")
    if methods is None:
        methods = _DEFAULT_METHODS
    elif not isinstance(methods, list) or not methods:
        violations.append("methods: expected a nonempty list")
    else:
        unknown = [m for m in methods if m not in SWEEP_METHODS]
        if unknown:
            known = ", ".join(SWEEP_METHODS)
            violations.append(f"methods: unknown entries {unknown}; expected among: {known}")
        if any(methods.count(m) > 1 for m in methods):
            violations.append("methods: duplicate entries")

    values.update(_take_fields(data, None, violations))
    values.update(_take_fields(_section(data, "mc", violations), "mc", violations))

    if violations:
        raise ConfigError("invalid configuration: " + "; ".join(violations), violations)
    return RunConfig(
        hop_lengths_m=hop_lengths,
        data_rates_bps=tuple(float(v) for v in rates),
        power_shares=shares,
        methods=tuple(methods),
        **values,
    )


def load_config(path) -> RunConfig:
    """Read and validate a JSON run configuration.

    All semantic violations are collected and reported together, each
    naming the offending field.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (RecursionError, ValueError) as exc:
        # Nesting deeper than the recursion limit, or an integer longer
        # than the interpreter's digit limit for int conversion.
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    return _config_from_dict(data)


def _derived_seed(base: int, *key: int) -> int:
    """Stable per-task seed; independent of thread scheduling."""
    return int(np.random.SeedSequence(base, spawn_key=key).generate_state(1, np.uint64)[0])


def _dbm_to_watts(dbm: float) -> float:
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        raise ValueError(f"{dbm} dBm overflows a float in watts") from None


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


def _impulse_responses(cfg: RunConfig) -> dict[float, ImpulseResponse]:
    """One impulse response per distinct hop length (power-independent).

    Bins are `mc.bin_width_s` wide, or a tenth of the shortest bit. Water
    the tracer refuses is a configuration error.
    """
    bin_width = cfg.mc_bin_width_s
    if bin_width is None:
        bin_width = (1.0 / max(cfg.data_rates_bps)) / 10.0
    water = cfg.water_properties()
    cache: dict[float, ImpulseResponse] = {}
    for i, d in enumerate(sorted(set(cfg.hop_lengths_m))):
        geometry = cfg.link_geometry(d)
        try:
            cache[d] = simulate_impulse_response(
                geometry,
                water,
                cfg.mc_n_photons,
                bin_width,
                _derived_seed(cfg.mc_seed, 1, i),
            )
        except ValueError as exc:
            problem = f"water: {exc}"
            raise ConfigError("invalid configuration: " + problem, [problem]) from exc
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


def run_sweep(cfg: RunConfig) -> list[BerCurve]:
    """Produce one BER-vs-power curve per (data rate, method).

    Channel impulse responses and scintillation integrals are computed
    once per distinct hop length and shared by every power point, since
    transmit power enters only through the per-bit photon count. Each
    Monte Carlo point draws its seed deterministically from the config
    seed and its (rate, power) position.
    """
    shortest_bit = 1.0 / max(cfg.data_rates_bps)
    if cfg.mc_bin_width_s is not None and cfg.mc_bin_width_s > shortest_bit:
        # Checked here, not at load: `channel` needs no bit slots and accepts any width.
        problem = (
            f"mc.bin_width_s: must be <= 1 / max(data_rates_bps) = {shortest_bit:g} s, "
            f"got {cfg.mc_bin_width_s}"
        )
        raise ConfigError("invalid configuration: " + problem, [problem])
    sigmas = _hop_sigmas(cfg)
    fading = [FadingModel(sigma_x_sq=s) for s in sigmas]
    responses = _impulse_responses(cfg)
    for d, response in responses.items():
        if response.is_empty:
            raise ConvergenceError(
                f"hop length {d:g} m: no photons reached the receiver in "
                f"{cfg.mc_n_photons} traced; raise mc.n_photons"
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

        for method in cfg.methods:
            xs, ys, lows, highs = [], [], [], []
            failed, clamped = [], []
            for idx, dbm in enumerate(powers_dbm.tolist()):
                lo = hi = None
                try:
                    chain = RelayChain.assemble(
                        hop_energies,
                        fading,
                        noise,
                        total_power_per_bit=_dbm_to_watts(dbm),
                        power_shares=cfg.power_shares,
                        quantum_efficiency=cfg.quantum_efficiency,
                        wavelength=cfg.wavelength_m,
                    )
                    if method == "montecarlo":
                        sim = run_bit_simulation(
                            chain,
                            cfg.mc_n_bits,
                            _derived_seed(cfg.mc_seed, 2, rate_idx, idx),
                        )
                        ber, lo, hi = sim.ber_hat, sim.ci95_low, sim.ci95_high
                    else:
                        ber = chain_average_ber(chain, method, cfg.ghq_order).exact
                except (ConvergenceError, ValueError) as exc:
                    failed.append({"power_dbm": dbm, "reason": str(exc)})
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
                memory_per_hop=[e.memory for e in hop_energies],
                isi_average_per_hop=[e.isi_average for e in hop_energies],
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
        name = "curves.csv"
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
        name = "report.json"
        payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return _write_files(out_path, {name: payload})


def _emit_impulse_responses(cfg: RunConfig, out_path) -> list[Path]:
    responses = _impulse_responses(cfg)
    texts = {
        f"impulse_response_{i}.csv": responses[d].to_csv()
        for i, d in enumerate(sorted(responses))
    }
    return _write_files(out_path, texts)


def _write_files(out_path, payloads: dict[str, str]) -> list[Path]:
    """Write each text to its file name in directory `out_path`, creating it if needed."""
    out_dir = Path(out_path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir}: {exc}") from exc
    written = []
    for name, text in payloads.items():
        target = out_dir / name
        try:
            target.write_text(text)
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


def _thread_count(text: str) -> int:
    """argparse type of --threads: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


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
    run_p.add_argument("--threads", type=_thread_count, default=1,
                       help="accepted for compatibility; must be >= 1 (default: 1). "
                            "Sweep points run one after another and outputs do not "
                            "depend on it")

    _configure_logging()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    try:
        cfg = load_config(args.config)
        if getattr(args, "seed", None) is not None:
            # Validated like mc.seed in the file: the override is a config value.
            data = cfg.to_dict()
            data["mc"]["seed"] = args.seed
            cfg = _config_from_dict(data)
        if args.command == "validate":
            print(json.dumps(cfg.to_dict(), sort_keys=True, indent=2))
            return 0
        if args.command == "channel":
            for path in _emit_impulse_responses(cfg, args.out):
                print(path)
            return 0
        curves = run_sweep(cfg)
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
