"""Bit-level Monte Carlo simulator tests.

The simulator is the package's independent check on the analytical BER
models, so these tests pin its determinism contract and verify that its
Wilson intervals cover the analytical values at operating points chosen
to give hundreds of errors per run.
"""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import uwoc_relay_sim as u
from uwoc_relay_sim import simulate
from uwoc_relay_sim.simulate import _wilson_interval

from conftest import synthetic_hop

SIM_SEED = 20240817


def single_hop_chain(hop: u.HopBerInputs) -> u.RelayChain:
    return u.RelayChain(hops=(hop,))


def wilson(k: int, n: int) -> tuple[float, float]:
    z = 1.959963984540054
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# Determinism and result contract
# ---------------------------------------------------------------------------


def test_bit_exact_determinism():
    chain = single_hop_chain(synthetic_hop(17.0))
    a = u.run_bit_simulation(chain, 200_000, seed=42)
    b = u.run_bit_simulation(chain, 200_000, seed=42)
    assert a == b  # frozen dataclass: field-wise equality
    c = u.run_bit_simulation(chain, 200_000, seed=43)
    assert c.n_errors != a.n_errors


def test_multi_block_determinism_and_bookkeeping(monkeypatch):
    monkeypatch.setattr(simulate, "SIM_BLOCK", 50_000)
    chain = single_hop_chain(synthetic_hop(17.0))
    a = u.run_bit_simulation(chain, 150_000, seed=5)
    b = u.run_bit_simulation(chain, 150_000, seed=5)
    assert a == b
    assert a.n_bits == 150_000
    assert a.per_hop_error_counts == (a.n_errors,)  # single hop: same events
    lo, hi = wilson(a.n_errors, a.n_bits)
    assert a.ci95_low == pytest.approx(lo, rel=1e-12)
    assert a.ci95_high == pytest.approx(hi, rel=1e-12)


def three_hop_isi_chain() -> u.RelayChain:
    # Different taps, powers and fading per hop; the 15 dBm hop crosses
    # the Poisson-Gaussian switch, the unfaded 13 dBm hop does not.
    return u.RelayChain(hops=(
        synthetic_hop(12.0, e_isi=(8e-6, 4e-6)),
        synthetic_hop(15.0, e_isi=(2e-5,), sigma_x_sq=0.1),
        synthetic_hop(13.0, e_isi=(1e-5, 5e-6, 2e-6), sigma_x_sq=0.0),
    ))


# Exact results of 1e5-bit runs: any change to the simulator's arithmetic
# or to the order of its random draws moves them.
FROZEN_SIMULATIONS = {
    # name: (chain, simulate constants replaced, seed, n_errors, per-hop errors, Gaussian draws)
    "poisson-only": (lambda: single_hop_chain(synthetic_hop(8.0, sigma_x_sq=0.02)), {}, 31,
                     25996, (25996,), False),
    "mixed": (lambda: single_hop_chain(synthetic_hop(17.0)), {}, 32, 230, (230,), True),
    "all-gaussian": (lambda: single_hop_chain(synthetic_hop(17.0)),
                     {"POISSON_GAUSSIAN_SWITCH": 0.0}, 33, 222, (222,), True),
    "three-hop-isi": (three_hop_isi_chain, {}, 34, 13809, (9045, 3644, 2210), True),
    "no-fading": (lambda: single_hop_chain(synthetic_hop(12.0, sigma_x_sq=0.0)), {}, 35,
                  5058, (5058,), False),
    "multi-block": (three_hop_isi_chain, {"SIM_BLOCK": 30_001}, 36,
                    13678, (8929, 3711, 2168), True),
}


@pytest.mark.parametrize("name", list(FROZEN_SIMULATIONS))
def test_simulation_results_are_frozen(name, monkeypatch):
    make_chain, constants, seed, n_errors, per_hop, gaussian = FROZEN_SIMULATIONS[name]
    for constant, value in constants.items():
        monkeypatch.setattr(simulate, constant, value)
    res = u.run_bit_simulation(make_chain(), 100_000, seed=seed)
    assert (res.n_errors, res.per_hop_error_counts, res.gaussian_draws_used) == (
        n_errors, per_hop, gaussian)


# Exact results of 3e5-bit runs of an equal-split two-hop ISI chain, from
# chance through Poisson-only counts to counts past the Gaussian switch.
FROZEN_TWO_HOP_POWERS = {
    # total dBm: (n_errors, per-hop errors, Gaussian draws)
    -20.0: (150241, (150195, 150010), False),
    -5.0: (150068, (148248, 147968), False),
    5.0: (147184, (130825, 130369), False),
    15.0: (48882, (26636, 26982), True),
}


@pytest.mark.parametrize("power_dbm", list(FROZEN_TWO_HOP_POWERS))
def test_two_hop_simulation_is_frozen_across_powers(power_dbm):
    hop = synthetic_hop(0.0, e_isi=[8e-6, 4e-6])
    chain = u.RelayChain.assemble(
        [hop.energies, hop.energies],
        [hop.fading, hop.fading],
        hop.noise,
        total_power_per_bit=10 ** ((power_dbm - 30.0) / 10.0),
    )
    res = u.run_bit_simulation(chain, 300_000, seed=7)
    assert (res.n_errors, res.per_hop_error_counts, res.gaussian_draws_used) == (
        FROZEN_TWO_HOP_POWERS[power_dbm])


def test_simulate_block_peak_memory_per_bit():
    # Three hops, one past the Poisson-Gaussian switch: each hop's arrays
    # are computed in place and freed after their last use.
    n = 200_000
    chain = three_hop_isi_chain()
    warmup = sum(hop.energies.memory for hop in chain.hops)
    tracemalloc.start()
    try:
        simulate._simulate_block(np.random.default_rng(1), chain, n, warmup)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 70.0, f"peak {peak / n:.1f} bytes per bit"


def test_validation_errors():
    chain = single_hop_chain(synthetic_hop(17.0))
    with pytest.raises(ValueError, match="n_bits"):
        u.run_bit_simulation(chain, 0, seed=1)


def test_history_cap_rejects_huge_memory():
    deep = u.BitEnergies(e_signal=1.7e-4, e_isi=np.full(u.HISTORY_CAP + 1, 1e-12))
    hop = dataclasses.replace(synthetic_hop(17.0), energies=deep)
    with pytest.raises(ValueError, match=r"hop\(s\) \[0\]"):
        u.run_bit_simulation(single_hop_chain(hop), 10, seed=1)


def test_sim_result_validation():
    with pytest.raises(ValueError, match="exceed"):
        u.SimResult(10, 11, (11,), False)


# ---------------------------------------------------------------------------
# Degenerate regimes
# ---------------------------------------------------------------------------


def test_error_free_at_high_power():
    # 40 dBm, no fading: the count separation is hundreds of sigma.
    chain = single_hop_chain(synthetic_hop(40.0, sigma_x_sq=0.0))
    res = u.run_bit_simulation(chain, 100_000, seed=3)
    assert res.n_errors == 0
    assert res.ber_hat == 0.0
    assert res.ci95_low == 0.0
    assert res.gaussian_draws_used  # Poisson means ~3.6e6 >> 1e4 switch


@pytest.mark.parametrize("n", [1_000_000, 10_000_000])
def test_wilson_interval_is_exact_at_zero_and_all_errors(n):
    # center - half rounds to ~1e-22 instead of 0 at k = 0 for large n,
    # which would not bracket ber_hat = 0.
    low, high = _wilson_interval(0, n)
    assert low == 0.0 and 0.0 < high < 10.0 / n
    low, high = _wilson_interval(n, n)
    assert high == 1.0 and 1.0 - 10.0 / n < low < 1.0


def test_error_free_at_high_power_million_bits():
    chain = single_hop_chain(synthetic_hop(40.0, sigma_x_sq=0.0))
    res = u.run_bit_simulation(chain, 1_000_000, seed=3)
    assert res.n_errors == 0
    assert res.ci95_low == 0.0 == res.ber_hat < res.ci95_high


def test_coin_flip_at_zero_signal():
    # -100 dBm: detection is independent of the transmitted bit.
    chain = single_hop_chain(synthetic_hop(-100.0))
    res = u.run_bit_simulation(chain, 100_000, seed=8)
    assert abs(res.ber_hat - 0.5) < 5.0 * math.sqrt(0.25 / res.n_bits)
    assert not res.gaussian_draws_used  # means ~ n_bd << switch


def test_gaussian_switch_flag(monkeypatch):
    chain = single_hop_chain(synthetic_hop(17.0))
    monkeypatch.setattr(simulate, "POISSON_GAUSSIAN_SWITCH", 0.0)
    forced = u.run_bit_simulation(chain, 100_000, seed=4)
    assert forced.gaussian_draws_used
    monkeypatch.setattr(simulate, "POISSON_GAUSSIAN_SWITCH", 1e18)
    never = u.run_bit_simulation(chain, 100_000, seed=4)
    assert not never.gaussian_draws_used
    # At these counts (~2e4 per mark) the two count models agree closely.
    assert forced.ber_hat == pytest.approx(never.ber_hat, rel=0.2)


# ---------------------------------------------------------------------------
# Coverage of the analytical models (frozen operating points)
# ---------------------------------------------------------------------------


def check_covers(hop: u.HopBerInputs, n_bits: int, expected_errors: int) -> None:
    analytic = u.hop_average_ber(hop, "awgn_ghqf")
    res = u.run_bit_simulation(single_hop_chain(hop), n_bits, seed=SIM_SEED)
    assert res.n_errors == expected_errors  # regression pin for this seed
    assert res.ci95_low <= analytic <= res.ci95_high


def test_ci_covers_analytic_memoryless():
    check_covers(synthetic_hop(17.762), 1_000_000, expected_errors=1028)


def test_ci_covers_analytic_with_isi():
    check_covers(synthetic_hop(17.858, e_isi=(8e-6, 4e-6)), 1_000_000, expected_errors=1041)


def test_ci_covers_analytic_lower_ber():
    check_covers(synthetic_hop(19.0), 4_000_000, expected_errors=783)


# ---------------------------------------------------------------------------
# Chain consistency with the parity combiner
# ---------------------------------------------------------------------------


def test_two_hop_chain_matches_parity_model():
    hop = synthetic_hop(0.0)
    chain = u.RelayChain.assemble(
        [hop.energies, hop.energies],
        [hop.fading, hop.fading],
        hop.noise,
        total_power_per_bit=10 ** ((21.0 - 30.0) / 10.0),
    )
    analytic = u.e2e_ber_exact(u.chain_average_ber(chain, "awgn_ghqf"))
    res = u.run_bit_simulation(chain, 2_000_000, seed=99)

    # The simulated end-to-end BER must cover the analytical parity value.
    assert res.ci95_low <= analytic <= res.ci95_high

    # Hop errors are independent events, so composing the empirical
    # per-hop rates through the same parity formula must land on the
    # empirical end-to-end rate (up to shared-sample noise).
    p_hat = [k / res.n_bits for k in res.per_hop_error_counts]
    parity_of_empirical = u.e2e_ber_exact(p_hat)
    assert parity_of_empirical == pytest.approx(res.ber_hat, rel=0.02)

    # End-to-end errors need an odd number of hop errors.
    assert res.n_errors <= sum(res.per_hop_error_counts)

    again = u.run_bit_simulation(chain, 2_000_000, seed=99)
    assert again == res
