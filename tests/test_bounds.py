"""The library's scalar bound checks: every message, word for word.

Each site below rejects a non-finite value and a finite value beyond its
bound with `ValueError("<name> must be <op> <limit>, got <value>")`. The
messages are pinned exactly, so that a change to how the checks are
written cannot change what a caller reads.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

import uwoc_relay_sim as u

NOISE = dict(
    background_rate=1e6, dark_rate=1e6, receiver_temperature=290.0,
    load_resistance=50.0, bit_duration=1e-9,
)
TURBULENCE = dict(chi_t=2e-7, epsilon_diss=1.5e-5, w_ratio=-2.5, wavelength=532e-9, distance=10.0)
ENERGIES = u.BitEnergies(e_signal=1e-4, e_isi=np.zeros(0))
FADING = u.FadingModel(sigma_x_sq=0.05)


def _hop(photons=1e4):
    return u.HopBerInputs(
        energies=ENERGIES, fading=FADING, noise=u.NoiseModel(**NOISE), photons_per_bit=photons
    )


def _ir(x):
    return u.ImpulseResponse(bin_width=1e-10, t_start=0.0, energy_fraction=np.ones(1) * x)


# (id, call with the value, name, op, limit as printed, a finite value out of bounds)
SITES = [
    ("WaterProperties.absorption", lambda x: u.WaterProperties(x, 0.2),
     "absorption", ">=", "0", -0.5),
    ("WaterProperties.scattering", lambda x: u.WaterProperties(0.1, x),
     "scattering", ">=", "0", -0.5),
    ("WaterProperties.hg_asymmetry", lambda x: u.WaterProperties(0.1, 0.2, hg_asymmetry=x),
     "hg_asymmetry", "in", "(-1, 1)", 1.0),
    ("WaterProperties.refractive_index", lambda x: u.WaterProperties(0.1, 0.2, refractive_index=x),
     "refractive_index", ">=", "1", 0.5),
    ("LinkGeometry.distance", lambda x: u.LinkGeometry(distance=x), "distance", ">", "0", 0.0),
    ("LinkGeometry.aperture_diameter", lambda x: u.LinkGeometry(1.0, aperture_diameter=x),
     "aperture_diameter", ">", "0", -0.2),
    ("LinkGeometry.beam_divergence_full", lambda x: u.LinkGeometry(1.0, beam_divergence_full=x),
     "beam_divergence_full", ">=", "0", -0.01),
    ("LinkGeometry.wavelength", lambda x: u.LinkGeometry(1.0, wavelength=x), "wavelength", ">", "0",
     0.0),
    ("ImpulseResponse.bin_width",
     lambda x: u.ImpulseResponse(bin_width=x, t_start=0.0, energy_fraction=np.ones(1)),
     "bin_width", ">", "0", 0.0),
    ("ImpulseResponse.t_start",
     lambda x: u.ImpulseResponse(bin_width=1e-10, t_start=x, energy_fraction=np.ones(1)),
     "t_start", ">=", "0", -1e-9),
    ("BitEnergies.e_signal", lambda x: u.BitEnergies(e_signal=x, e_isi=np.zeros(0)),
     "e_signal", ">=", "0", -1e-4),
    ("simulate_impulse_response.bin_width",
     lambda x: u.simulate_impulse_response(
         u.LinkGeometry(1.0), u.WaterProperties(0.1, 0.2), 1, x, 1),
     "bin_width", ">", "0", -1e-10),
    ("bit_frame_energies.bit_duration", lambda x: u.bit_frame_energies(_ir(0.5), x),
     "bit_duration", ">", "0", 0.0),
    ("bit_frame_energies.tail_epsilon", lambda x: u.bit_frame_energies(_ir(0.5), 1e-9, x),
     "tail_epsilon", "in", "(0, 1)", 1.0),
    ("channel_memory.tail_epsilon", lambda x: u.channel_memory([1.0, 0.5], x),
     "tail_epsilon", "in", "(0, 1)", 0.0),
    ("NoiseModel.background_rate", lambda x: u.NoiseModel(**{**NOISE, "background_rate": x}),
     "background_rate", ">=", "0", -1.0),
    ("NoiseModel.dark_rate", lambda x: u.NoiseModel(**{**NOISE, "dark_rate": x}),
     "dark_rate", ">=", "0", -1.0),
    ("NoiseModel.receiver_temperature",
     lambda x: u.NoiseModel(**{**NOISE, "receiver_temperature": x}),
     "receiver_temperature", ">", "0", 0.0),
    ("NoiseModel.load_resistance", lambda x: u.NoiseModel(**{**NOISE, "load_resistance": x}),
     "load_resistance", ">", "0", -50.0),
    ("NoiseModel.bit_duration", lambda x: u.NoiseModel(**{**NOISE, "bit_duration": x}),
     "bit_duration", ">", "0", 0.0),
    ("photons_per_bit.power", lambda x: u.photons_per_bit(x, 1e-9), "power", ">=", "0", -1e-3),
    ("photons_per_bit.bit_duration", lambda x: u.photons_per_bit(1e-3, x),
     "bit_duration", ">", "0", -1e-9),
    ("photons_per_bit.wavelength", lambda x: u.photons_per_bit(1e-3, 1e-9, wavelength=x),
     "wavelength", ">", "0", 0.0),
    ("HopBerInputs.photons_per_bit", _hop, "photons_per_bit", ">=", "0", -1.0),
    ("conditional_ber_awgn.h", lambda x: u.conditional_ber_awgn(1, [], x, _hop()), "h", ">", "0",
     0.0),
    ("poisson_means.h", lambda x: u.poisson_means(1, [], x, _hop()), "h", ">", "0", -0.5),
    ("saddle_point_ber.sigma_th_sq", lambda x: u.saddle_point_ber(1.0, 2.0, x),
     "sigma_th_sq", ">", "0", 0.0),
    ("gaussian_ber.sigma_th_sq", lambda x: u.gaussian_ber(1.0, 2.0, x),
     "sigma_th_sq", ">=", "0", -1.0),
    ("gaussian_ber.m0", lambda x: u.gaussian_ber(x, 2.0, 1.0), "m0", ">=", "0", -1.0),
    ("TurbulenceParams.chi_t", lambda x: u.TurbulenceParams(**{**TURBULENCE, "chi_t": x}),
     "chi_t", ">=", "0", -1e-7),
    ("TurbulenceParams.epsilon_diss",
     lambda x: u.TurbulenceParams(**{**TURBULENCE, "epsilon_diss": x}),
     "epsilon_diss", ">", "0", 0.0),
    ("TurbulenceParams.wavelength", lambda x: u.TurbulenceParams(**{**TURBULENCE, "wavelength": x}),
     "wavelength", ">", "0", -532e-9),
    ("TurbulenceParams.distance", lambda x: u.TurbulenceParams(**{**TURBULENCE, "distance": x}),
     "distance", ">", "0", 0.0),
    ("FadingModel.sigma_x_sq", lambda x: u.FadingModel(sigma_x_sq=x), "sigma_x_sq", ">=", "0",
     -0.05),
    ("sigma_x_sq_from_si", u.sigma_x_sq_from_si, "scintillation index", ">=", "0", -0.1),
    ("RelayChain.assemble.total_power_per_bit",
     lambda x: u.RelayChain.assemble([ENERGIES], [FADING], u.NoiseModel(**NOISE), x),
     "total_power_per_bit", ">=", "0", -1e-3),
]


@pytest.mark.parametrize("kind", ["nan", "inf", "-inf", "out of bounds"])
@pytest.mark.parametrize("call, name, op, limit, beyond", [s[1:] for s in SITES],
                         ids=[s[0] for s in SITES])
def test_bound_message_is_exact(call, name, op, limit, beyond, kind):
    value = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}.get(kind, beyond)
    msg = f"{name} must be {op} {limit}, got {value}"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        call(value)


HUGE = 10**400  # a Python integer too large for a float


@pytest.mark.parametrize("call, name, op, limit", [s[1:5] for s in SITES],
                         ids=[s[0] for s in SITES])
def test_integer_too_large_for_a_float_breaks_every_bound(call, name, op, limit):
    # Not finite, so a ValueError like any other bad value, not an OverflowError.
    msg = f"{name} must be {op} {limit}, got {HUGE}"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        call(HUGE)


@pytest.mark.parametrize("call, msg", [
    (lambda: u.LinkGeometry(1.0, half_angle_fov=HUGE),
     f"half_angle_fov must be in (0, 90], got {HUGE}"),
    (lambda: u.TurbulenceParams(**{**TURBULENCE, "w_ratio": HUGE}),
     f"w_ratio must be negative, got {HUGE}"),
    (lambda: u.gaussian_ber(0.0, HUGE, 1.0), f"m1 must be >= m0, got m0=0.0, m1={HUGE}"),
], ids=["LinkGeometry.half_angle_fov", "TurbulenceParams.w_ratio", "gaussian_ber.m1"])
def test_hand_written_checks_share_the_finiteness_rule(call, msg):
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        call()


def test_power_share_too_large_for_a_float_is_not_finite():
    # The shares are checked before float(), which would raise OverflowError.
    with pytest.raises(ValueError, match=r"^power shares must be finite and >= 0$"):
        u.RelayChain.assemble([ENERGIES] * 2, [FADING] * 2, u.NoiseModel(**NOISE), 1e-3,
                              power_shares=[HUGE, 0.5])
