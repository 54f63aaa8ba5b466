"""Shared fixtures: Monte Carlo impulse responses reused across test modules.

The photon-traced responses are the expensive shared inputs (tens of
seconds each at 1e7 photons), so they are session-scoped and generated
once with a pinned seed. Expected totals/bin counts are frozen regression
values for that exact (seed, batch size, algorithm) combination.
"""

from __future__ import annotations

import numpy as np
import pytest

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
