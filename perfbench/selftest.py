"""Self-tests of the benchmark's reference computations on cases with a closed form.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

The file name keeps the repository's default test run from collecting it.
"""

from __future__ import annotations

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
from tracing import layer_metrics  # noqa: E402


def q_closed_form(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


@pytest.mark.parametrize("gamma_s", [1e3, 8e3, 2e4])
def test_no_fading_no_isi_is_the_q_function(gamma_s):
    n_bd, sigma_th_sq = oracle.noise_terms(1e-9)
    awgn = oracle.hop_ber("awgn_ghqf", [0.0], gamma_s, n_bd, sigma_th_sq, 0.0)
    assert awgn == pytest.approx(q_closed_form(gamma_s / (2.0 * math.sqrt(sigma_th_sq + n_bd))),
                                 rel=1e-12)
    gauss = oracle.hop_ber("gaussian", [0.0], gamma_s, n_bd, sigma_th_sq, 0.0)
    margin = gamma_s / (math.sqrt(n_bd + gamma_s + sigma_th_sq) + math.sqrt(n_bd + sigma_th_sq))
    assert gauss == pytest.approx(q_closed_form(margin), rel=1e-12)


@pytest.mark.parametrize("sigma_x_sq", [1e-3, 0.05, 0.25])
def test_fading_average_moments(sigma_x_sq):
    # Unit-mean log-normal: E[h] = 1, E[h^2] = exp(4 s2), E[1/h] = exp(4 s2).
    assert oracle.fading_average(lambda h: h, sigma_x_sq) == pytest.approx(1.0, rel=1e-9)
    assert oracle.fading_average(lambda h: h * h, sigma_x_sq) == pytest.approx(
        math.exp(4.0 * sigma_x_sq), rel=1e-9)
    assert oracle.fading_average(lambda h: 1.0 / h, sigma_x_sq) == pytest.approx(
        math.exp(4.0 * sigma_x_sq), rel=1e-9)


def test_deep_tail_fading_average_against_a_dense_sum():
    # An average BER near 1e-12 comes from deep fades, far out in the tail.
    s2 = 0.05
    t = np.linspace(-15.0, 15.0, 300_001)
    h = np.exp(2.0 * (math.sqrt(s2) * t - s2))
    phi = np.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    dense = integrate.trapezoid(oracle.q_tail(60.0 * h) * phi, t)
    assert 1e-13 < dense < 1e-11
    assert oracle.fading_average(lambda x: oracle.q_tail(60.0 * x), s2) == pytest.approx(
        dense, rel=1e-7)


@pytest.mark.parametrize("p", [(1e-3, 0.2), (0.5, 0.1), (1e-14, 3e-13), (0.1, 0.2, 0.3),
                               (1e-12, 0.05, 0.49)])
def test_parity_matches_flip_pattern_enumeration(p):
    brute = 0.0
    for flips in itertools.product((0, 1), repeat=len(p)):
        if sum(flips) % 2:
            brute += math.prod(pi if f else 1.0 - pi for pi, f in zip(p, flips))
    assert oracle.parity(p) == pytest.approx(brute, rel=1e-12)


def test_enumerated_sums_are_every_pattern():
    taps = np.array([0.5, 0.25, 0.125, 3.0])
    brute = sorted(sum(b * e for b, e in zip(bits, taps))
                   for bits in itertools.product((0, 1), repeat=taps.size))
    assert sorted(oracle.enumerated_isi_sums(taps)) == pytest.approx(brute, abs=0.0)


@pytest.mark.parametrize("memory", [1, 5, 12])
def test_isi_distribution_on_grid_taps_is_exact(memory):
    # Taps that are whole grid steps are placed without splitting: the
    # convolved distribution equals the enumerated one point for point.
    rng = np.random.default_rng(memory)
    steps = rng.integers(1, 40, size=memory)
    n_grid = int(steps.sum()) + 1
    values, probs = oracle.isi_distribution(steps * 0.01, n_grid=n_grid)
    sums = np.rint(oracle.enumerated_isi_sums(steps)).astype(int)
    expected = np.bincount(sums, minlength=probs.size) / sums.size
    assert values[: n_grid] == pytest.approx(np.arange(n_grid) * 0.01, rel=1e-12)
    assert probs == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("memory", [3, 8, 12])
def test_isi_distribution_expectations_match_enumeration(memory):
    rng = np.random.default_rng(100 + memory)
    taps = rng.exponential(1e-3, size=memory) * 0.5 ** np.arange(memory)
    sums = oracle.enumerated_isi_sums(taps)
    values, probs = oracle.isi_distribution(taps)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert probs @ values == pytest.approx(sums.mean(), rel=1e-12)
    # A smooth, steep function of the ISI energy, like a BER tail.
    f = lambda s: oracle.q_tail(5.0 - 2e3 * s)  # noqa: E731
    assert probs @ f(values) == pytest.approx(f(sums).mean(), rel=1e-4)


def test_slot_energies_of_single_bins():
    # One bin in the middle of slot 0 of a 10-bin slot: its triangle
    # weights are 1 - |x - m| at the bin midpoint x.
    frac = np.zeros(30)
    frac[3] = 0.4
    slots = oracle.slot_energies(frac, 10)
    assert slots[:3] == pytest.approx([0.4 * 0.65, 0.4 * 0.35, 0.0], abs=1e-15)
    assert slots.sum() == pytest.approx(0.4, rel=1e-15)
    assert oracle.channel_memory(slots, 1e-6) == 1


def test_layer_metrics_self_time_and_counts():
    spans = [
        ["cli.run_sweep", 0.0, 10.0, None, None],
        ["channel.simulate_impulse_response", 0.0, 2.0, 0, {"photons": 1000}],
        ["relay.chain_average_ber", 2.0, 6.0, 0, None],
        ["ber.hop_average_ber", 2.0, 5.0, 2, {"method": "saddle_point", "memory": 20}],
        ["ber.saddle_point_ber", 2.0, 4.0, 3, None],
        ["simulate.run_bit_simulation", 6.0, 9.0, 0, {"bit_hops": 300}],
    ]
    m = layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["relay.combine_s"] == pytest.approx(1.0)
    assert m["channel.photons_per_s"] == pytest.approx(500.0)
    assert m["ber.saddle_point.hop_s"] == pytest.approx(3.0)
    assert (m["ber.hop_calls"], m["ber.saddle_solves"], m["ber.isi_patterns"]) == (1, 1, 65536)
    assert m["ber.isi_pattern_mb"] == pytest.approx(65536 * 20 * 8 / 1e6)
    assert m["simulate.bit_hops_per_s"] == pytest.approx(100.0)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
