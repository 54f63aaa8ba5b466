"""Shared fixtures: Monte Carlo impulse responses reused across test modules.

The photon-traced responses are the expensive shared inputs (tens of
seconds each at 1e7 photons), so they are session-scoped and generated
once with a pinned seed. Expected totals/bin counts are frozen regression
values for that exact (seed, batch size, algorithm) combination.

Also shared: test-side code that shares none with the library, namely
the conditional BER of the fixed-threshold receiver on SciPy's erfc and a
reader for `ImpulseResponse.to_csv` output.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import erfc

import uwoc_relay_sim as u

MC_SEED = 7
N_PHOTONS = 10_000_000

# Log-amplitude variances for coastal-water hop lengths, precomputed with
# scintillation_index_plane_wave at chi_t=2e-7 K^2/s, epsilon=1.5e-5 m^2/s^3,
# w=-2.5, lambda=532 nm (test_turbulence re-derives these against a dense
# quadrature oracle; everything else treats them as fixed inputs).
TURB = dict(chi_t=2e-7, epsilon_diss=1.5e-5, w_ratio=-2.5)
SIGMA_X_SQ = {
    9.0: 0.009862627877,
    11.25: 0.015581388554,
    22.5: 0.057880102055,
    25.0: 0.069397921518,
    27.5: 0.081378662742,
    30.0: 0.093709853570,
    45.0: 0.170503058065,
}


def make_ir(distance: float, bin_width: float) -> u.ImpulseResponse:
    return u.simulate_impulse_response(
        u.LinkGeometry(distance=distance),
        u.WaterProperties.preset("coastal"),
        N_PHOTONS,
        bin_width,
        MC_SEED,
    )


@pytest.fixture(scope="session")
def ir_coastal_11p25() -> u.ImpulseResponse:
    return make_ir(11.25, 1e-10)


@pytest.fixture(scope="session")
def ir_coastal_22p5() -> u.ImpulseResponse:
    return make_ir(22.5, 1e-10)


@pytest.fixture(scope="session")
def ir_coastal_45() -> u.ImpulseResponse:
    return make_ir(45.0, 1e-10)


@pytest.fixture(scope="session")
def fine_irs() -> dict[float, u.ImpulseResponse]:
    """Responses for the 105 m four-hop chain, binned finely enough that
    a 10 Gbps slot (1e-10 s) still spans ten bins."""
    return {d: make_ir(d, 1e-11) for d in (22.5, 25.0, 27.5, 30.0)}


@pytest.fixture(scope="session")
def noise_1ns() -> u.NoiseModel:
    return u.NoiseModel.typical(1e-9)


def synthetic_hop(
    power_dbm: float,
    e_isi=(),
    sigma_x_sq: float = 0.05,
    e_signal: float = 1.7e-4,
    bit_duration: float = 1e-9,
) -> u.HopBerInputs:
    """Single hop with hand-picked slot energies; no channel MC involved."""
    e_isi = np.asarray(e_isi, dtype=float)
    return u.HopBerInputs(
        energies=u.BitEnergies(e_signal=e_signal, e_isi=e_isi),
        fading=u.FadingModel(sigma_x_sq=sigma_x_sq),
        noise=u.NoiseModel.typical(bit_duration),
        photons_per_bit=u.photons_per_bit(10 ** ((power_dbm - 30.0) / 10.0), bit_duration),
    )


def isi_patterns(memory: int) -> np.ndarray:
    """All 2^memory ISI bit patterns, one per row."""
    return (np.arange(1 << memory)[:, None] >> np.arange(memory)) & 1


def conditional_ber_awgn(b0: int, isi_bits, h, hop: u.HopBerInputs):
    """Error probability of the fixed-threshold Gaussian receiver.

    Given the transmitted bit b0, the previous bits (the last axis of
    isi_bits, of length L) and the fading coefficient h, the decision
    statistic is Gaussian around the count mean with variance
    sigma_Tb^2 = sigma_th^2 + n_bd, and the threshold sits at
    h N_ph e_signal / 2. ISI shifts both hypotheses the same way, so it
    helps a transmitted one and hurts a transmitted zero. Evaluated on
    scipy.special.erfc, so it shares no kernel with the library's `_q`;
    broadcasts h against the patterns.
    """
    n_ph = hop.photons_per_bit
    gamma_isi = n_ph * (np.asarray(isi_bits, dtype=float) @ hop.energies.e_isi)
    sign = 1.0 if b0 == 1 else -1.0
    v = h * (n_ph * hop.energies.e_signal + sign * 2.0 * gamma_isi) / (2.0 * hop.noise.sigma_tb)
    return 0.5 * erfc(v / math.sqrt(2.0))


def read_impulse_response(text: str, bin_width: float) -> u.ImpulseResponse:
    """Read back what `ImpulseResponse.to_csv` wrote; the bin width comes
    from the writer's configuration, since a one-bin response has no other."""
    header, *rows = text.splitlines()
    assert header == "bin_start_s,energy_fraction"
    starts, fractions = np.array([row.split(",") for row in rows], dtype=float).T
    return u.ImpulseResponse(bin_width=bin_width, t_start=float(starts[0]), energy_fraction=fractions)
