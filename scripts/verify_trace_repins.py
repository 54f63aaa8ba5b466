"""Compare the tracer pins under the old weight floor and under Russian roulette.

Until the roulette replaced it, a photon was traced until its weight fell
below a floor of 1e-6 of its launch weight. That floor is exactly the
roulette with survival chance 0 at a threshold of 1e-6, so this script
rebuilds each pinned quantity both ways from the same seeds: the frozen
1e7-photon fixtures (`test_frozen_impulse_response_regression`), the trace
pin `coastal-9m-isotropic`, and the 105 m chain values of acceptance
criterion 7 (`CHAIN_105M_EXPECTED`).

Every 1e7-photon trace is its ten batches of `channel.TRACE_BATCH`
photons, each traced from the next child of the seed and merged in order,
as `simulate_impulse_response` does. For each quantity the script prints
the floor value, the roulette value, their difference, and the
batch-means Monte Carlo standard error of the roulette value: the
standard deviation of the quantity over the ten batches divided by the
square root of ten. For a 20000-photon trace pin, which is one batch, the
error is the standard deviation over ten such batches (the pinned trace
and the next nine children of its seed). A bin count has no standard
error; beside it the script prints the floor trace's energy beyond the
roulette trace's last bin. Takes about three minutes on one core.

    PYTHONPATH=src python scripts/verify_trace_repins.py
"""

from __future__ import annotations

import contextlib
import sys
from pathlib import Path

import numpy as np

import uwoc_relay_sim as u
from uwoc_relay_sim import channel
from uwoc_relay_sim.constants import SPEED_OF_LIGHT

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import MC_SEED, N_PHOTONS, SIGMA_X_SQ  # noqa: E402
from test_acceptance import CHAIN_105M_EXPECTED  # noqa: E402
from test_channel import FROZEN_TRACES  # noqa: E402

COASTAL = u.WaterProperties.preset("coastal")
N_BATCHES = 10
FIXTURES = [(11.25, 1e-10), (22.5, 1e-10), (45.0, 1e-10)]
CHAIN_LENGTHS = [22.5, 25.0, 27.5, 30.0]
CHAIN_RATES = [2e7, 1e8, 1e9, 5e9, 1e10]


@contextlib.contextmanager
def weight_floor():
    """Trace as the tracer did before the roulette: stop below 1e-6."""
    saved = channel.ROULETTE_THRESHOLD, channel.ROULETTE_CHANCE
    channel.ROULETTE_THRESHOLD, channel.ROULETTE_CHANCE = 1e-6, 0.0
    try:
        yield
    finally:
        channel.ROULETTE_THRESHOLD, channel.ROULETTE_CHANCE = saved


def response(hist: np.ndarray, n: int, geometry: u.LinkGeometry, water, bin_width: float):
    """The normalised, trimmed response of a histogram, as simulate_impulse_response builds it."""
    frac = hist / float(n)
    nonzero = np.flatnonzero(frac)
    frac = frac[: nonzero[-1] + 1] if nonzero.size else frac[:1]
    t_start = geometry.distance * water.refractive_index / SPEED_OF_LIGHT
    return u.ImpulseResponse(bin_width=bin_width, t_start=t_start, energy_fraction=frac)


def batched_trace(geometry, water, bin_width, seed, batch, **options):
    """The merged response of N_BATCHES batches of `batch` photons, and each batch's own."""
    hists = [
        channel._trace_batch(np.random.default_rng(child), batch, geometry, water, bin_width, **options)
        for child in np.random.SeedSequence(seed).spawn(N_BATCHES)
    ]
    merged = np.zeros(1)
    for hist in hists:
        merged = channel._add_histograms(merged, hist.copy())
    parts = [response(h, batch, geometry, water, bin_width) for h in hists]
    return response(merged, batch * N_BATCHES, geometry, water, bin_width), parts


def chain_values(irs: dict[float, u.ImpulseResponse]) -> dict[tuple, float]:
    """Criterion 7's end-to-end BER for every method, power and data rate."""
    fading = [u.FadingModel(sigma_x_sq=SIGMA_X_SQ[d]) for d in CHAIN_LENGTHS]
    values = {}
    for rate in CHAIN_RATES:
        bit_duration = 1.0 / rate
        energies = [u.bit_frame_energies(irs[d], bit_duration=bit_duration) for d in CHAIN_LENGTHS]
        noise = u.NoiseModel.typical(bit_duration)
        for method, dbm in CHAIN_105M_EXPECTED:
            chain = u.RelayChain.assemble(
                energies, fading, noise, total_power_per_bit=10 ** ((dbm - 30.0) / 10.0)
            )
            values[(method, dbm, rate)] = u.e2e_ber_exact(u.chain_average_ber(chain, method))
    return values


def batch_means_se(values) -> float:
    return float(np.std(values, ddof=1)) / np.sqrt(len(values))


def row(name: str, floor: float, roulette: float, se: float) -> None:
    diff = roulette - floor
    print(
        f"{name:<38} {floor:>14.7e} {roulette:>14.7e} {diff:>+12.3e} {se:>11.3e} "
        f"{diff / se if se else float('nan'):>+7.2f}",
        flush=True,
    )


def bins_row(name: str, floor: u.ImpulseResponse, roulette: u.ImpulseResponse) -> None:
    tail = floor.energy_fraction[roulette.energy_fraction.size :].sum()
    print(
        f"{name:<38} {floor.energy_fraction.size:>14d} {roulette.energy_fraction.size:>14d} "
        f"{roulette.energy_fraction.size - floor.energy_fraction.size:>+12d}   floor energy "
        f"beyond the last roulette bin {tail:.3e} ({tail / floor.total_fraction:.2e} relative)",
        flush=True,
    )


def main() -> None:
    batch = N_PHOTONS // N_BATCHES
    print(f"{'quantity':<38} {'floor 1e-6':>14} {'roulette':>14} {'difference':>12} {'SE':>11} {'z':>7}")
    for distance, bin_width in FIXTURES:
        geometry = u.LinkGeometry(distance=distance)
        with weight_floor():
            floor, _ = batched_trace(geometry, COASTAL, bin_width, MC_SEED, batch, ballistic_splitting=True)
        roulette, parts = batched_trace(geometry, COASTAL, bin_width, MC_SEED, batch, ballistic_splitting=True)
        bins_row(f"fixture {distance:g} m bins", floor, roulette)
        row(f"fixture {distance:g} m total", floor.total_fraction, roulette.total_fraction,
            batch_means_se([p.total_fraction for p in parts]))

    name = "coastal-9m-isotropic"
    water_name, geometry, seed, options, _, _ = FROZEN_TRACES[name]
    geometry = u.LinkGeometry(**geometry)
    water = u.WaterProperties.preset(water_name, hg_asymmetry=options["hg_asymmetry"])
    with weight_floor():
        floor, floor_parts = batched_trace(geometry, water, 1e-10, seed, 20_000, ballistic_splitting=True)
    roulette, parts = batched_trace(geometry, water, 1e-10, seed, 20_000, ballistic_splitting=True)
    # The pinned trace is the first batch; its error is one batch's spread.
    bins_row(f"trace {name} bins", floor_parts[0], parts[0])
    row(f"trace {name} total", floor_parts[0].total_fraction, parts[0].total_fraction,
        float(np.std([p.total_fraction for p in parts], ddof=1)))

    chains = {}
    for arm in ("floor", "roulette"):
        with weight_floor() if arm == "floor" else contextlib.nullcontext():
            traced = {
                d: batched_trace(u.LinkGeometry(distance=d), COASTAL, 1e-11, MC_SEED, batch,
                                 ballistic_splitting=True)
                for d in CHAIN_LENGTHS
            }
        whole = chain_values({d: traced[d][0] for d in CHAIN_LENGTHS})
        per_batch = [chain_values({d: traced[d][1][i] for d in CHAIN_LENGTHS}) for i in range(N_BATCHES)]
        chains[arm] = whole, per_batch
    floor_off = roulette_off = 0.0
    for (method, dbm), pinned in CHAIN_105M_EXPECTED.items():
        for rate, pin in zip(CHAIN_RATES, pinned):
            key = (method, dbm, rate)
            floor_value, roulette_value = chains["floor"][0][key], chains["roulette"][0][key]
            floor_off = max(floor_off, abs(floor_value - pin) / pin)
            roulette_off = max(roulette_off, abs(roulette_value - pin) / pin)
            row(f"chain {method} {dbm:g} dBm {rate:.0e} bps", floor_value, roulette_value,
                batch_means_se([b[key] for b in chains["roulette"][1]]))
    print(f"largest relative distance from a CHAIN_105M_EXPECTED value: floor {floor_off:.2e}, "
          f"roulette {roulette_off:.2e}")


if __name__ == "__main__":
    main()
