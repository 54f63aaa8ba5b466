"""Receiver BER model tests.

The saddle-point solver is checked against an exact Poisson (+) Gaussian
tail oracle (direct pmf summation against the normal CDF at the solved
threshold), closed-form limits, and frozen regression points; the array
Newton solver also against nested scalar Brent solves of the same
equations, element by element; the fading and ISI averaging against
hand-rolled per-pattern/per-node loops, and the convolved ISI
distribution of long channel memories against all 2^L patterns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq
from scipy.special import erfc, erfcx
from scipy.stats import norm, poisson

import uwoc_relay_sim as u
import uwoc_relay_sim.ber as ber_module
import uwoc_relay_sim.channel as channel_module
from uwoc_relay_sim.ber import _fading_nodes
from uwoc_relay_sim.constants import (
    BOLTZMANN,
    ELEMENTARY_CHARGE,
    PLANCK,
    SPEED_OF_LIGHT,
)
from uwoc_relay_sim.errors import ConvergenceError

from conftest import SIGMA_X_SQ, synthetic_hop

Q5 = 0.5 * math.erfc(5.0 / math.sqrt(2.0))  # Gaussian tail at 5 sigma


def q(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# NoiseModel / photons_per_bit / HopBerInputs
# ---------------------------------------------------------------------------


def test_noise_model_typical_frozen_values():
    noise = u.NoiseModel.typical(1e-9)
    expected_sigma = 2.0 * BOLTZMANN * 290.0 * 1e-9 / (100.0 * ELEMENTARY_CHARGE**2)
    assert noise.sigma_th_sq == pytest.approx(expected_sigma, rel=1e-14)
    assert noise.sigma_th_sq == pytest.approx(3121020.696663502, rel=1e-12)
    assert noise.n_bd == pytest.approx(7.833873832709114, rel=1e-12)
    # Both scale linearly with the bit duration.
    slow = u.NoiseModel.typical(5e-8)
    assert slow.sigma_th_sq == pytest.approx(50.0 * noise.sigma_th_sq, rel=1e-12)
    assert slow.n_bd == pytest.approx(50.0 * noise.n_bd, rel=1e-12)


def test_noise_model_validation_lists_all_problems():
    with pytest.raises(ValueError) as exc:
        u.NoiseModel(
            background_rate=-1.0,
            dark_rate=-2.0,
            receiver_temperature=0.0,
            load_resistance=100.0,
            bit_duration=1e-9,
        )
    msg = str(exc.value)
    assert "background_rate" in msg and "dark_rate" in msg and "receiver_temperature" in msg


def test_photons_per_bit_from_power():
    expected = 0.8 * 1e-3 * 1e-9 * 532e-9 / (PLANCK * SPEED_OF_LIGHT)
    assert u.photons_per_bit(1e-3, 1e-9) == pytest.approx(expected, rel=1e-14)
    assert u.photons_per_bit(0.0, 1e-9) == 0.0
    with pytest.raises(ValueError, match="power"):
        u.photons_per_bit(-1.0, 1e-9)
    with pytest.raises(ValueError, match="quantum_efficiency"):
        u.photons_per_bit(1e-3, 1e-9, quantum_efficiency=0.0)
    hop = synthetic_hop(17.0)
    for bad in (-5.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^photons_per_bit must be >= 0, got"):
            dataclasses.replace(hop, photons_per_bit=bad)


@pytest.mark.parametrize("bad", [0.0, -1e-9, math.inf, math.nan])
def test_photons_per_bit_rejects_a_bad_duration_or_wavelength(bad):
    with pytest.raises(ValueError, match=r"^bit_duration must be > 0, got"):
        u.photons_per_bit(1e-3, bad)
    with pytest.raises(ValueError, match=r"^wavelength must be > 0, got"):
        u.photons_per_bit(1e-3, 1e-9, wavelength=bad)


def test_hop_ber_inputs_type_checks():
    hop = synthetic_hop(17.0)
    assert hop.energies.memory == 0
    with pytest.raises(TypeError, match="energies"):
        dataclasses.replace(hop, energies=None)
    with pytest.raises(TypeError, match="fading"):
        dataclasses.replace(hop, fading=0.05)


def test_hop_ber_inputs_rejects_a_noise_of_another_type():
    hop = synthetic_hop(17.0)
    with pytest.raises(TypeError, match=r"^noise must be NoiseModel, got float$"):
        dataclasses.replace(hop, noise=hop.noise.sigma_th_sq)


# ---------------------------------------------------------------------------
# Conditional AWGN receiver
# ---------------------------------------------------------------------------


def five_sigma_hop() -> u.HopBerInputs:
    """No-ISI hop tuned so the decision margin is exactly 5 sigma."""
    noise = u.NoiseModel.typical(1e-9)
    sigma_tb = math.sqrt(noise.sigma_th_sq + noise.n_bd)
    return u.HopBerInputs(
        energies=u.BitEnergies(e_signal=1.0, e_isi=np.array([])),
        fading=u.FadingModel(sigma_x_sq=0.0),
        noise=noise,
        photons_per_bit=10.0 * sigma_tb,
    )


def test_conditional_awgn_five_sigma_point():
    hop = five_sigma_hop()
    assert u.conditional_ber_awgn(1, [], 1.0, hop) == pytest.approx(Q5, rel=1e-13)
    assert Q5 == pytest.approx(2.866515719235352e-07, rel=1e-12)


def test_conditional_awgn_symmetry_without_isi():
    hop = synthetic_hop(18.0)
    for h in (0.3, 1.0, 2.7):
        assert u.conditional_ber_awgn(1, [], h, hop) == u.conditional_ber_awgn(0, [], h, hop)


def test_conditional_awgn_isi_helps_ones_hurts_zeros():
    hop = synthetic_hop(18.0, e_isi=[2e-5])
    base1 = u.conditional_ber_awgn(1, [0], 1.0, hop)
    base0 = u.conditional_ber_awgn(0, [0], 1.0, hop)
    assert u.conditional_ber_awgn(1, [1], 1.0, hop) < base1
    assert u.conditional_ber_awgn(0, [1], 1.0, hop) > base0


def test_conditional_awgn_validation():
    hop = synthetic_hop(18.0, e_isi=[2e-5])
    with pytest.raises(ValueError, match="b0"):
        u.conditional_ber_awgn(2, [0], 1.0, hop)
    with pytest.raises(ValueError, match="length 1"):
        u.conditional_ber_awgn(1, [0, 1], 1.0, hop)
    with pytest.raises(ValueError, match="0 or 1"):
        u.conditional_ber_awgn(1, [0.5], 1.0, hop)
    with pytest.raises(ValueError, match="h"):
        u.conditional_ber_awgn(1, [0], 0.0, hop)


# ---------------------------------------------------------------------------
# Poisson means
# ---------------------------------------------------------------------------


def test_poisson_means_hand_values():
    hop = synthetic_hop(20.0, e_isi=[8e-6, 4e-6])
    n_ph = hop.photons_per_bit
    n_bd = hop.noise.n_bd
    assert u.poisson_means(0, [0, 0], 1.0, hop) == pytest.approx(n_bd, rel=1e-14)
    assert u.poisson_means(1, [0, 0], 2.0, hop) == pytest.approx(
        n_bd + 2.0 * n_ph * 1.7e-4, rel=1e-14
    )
    assert u.poisson_means(1, [1, 1], 1.0, hop) == pytest.approx(
        n_bd + n_ph * (1.7e-4 + 1.2e-5), rel=1e-14
    )
    # Linearity in h of the signal part.
    m1 = u.poisson_means(1, [1, 0], 1.0, hop) - n_bd
    m3 = u.poisson_means(1, [1, 0], 3.0, hop) - n_bd
    assert m3 == pytest.approx(3.0 * m1, rel=1e-12)


@pytest.mark.parametrize("h", [0.0, -1.0, math.nan])
def test_poisson_means_rejects_a_nonpositive_h(h):
    with pytest.raises(ValueError, match=r"^h must be > 0, got"):
        u.poisson_means(1, [0, 0], h, synthetic_hop(20.0, e_isi=[8e-6, 4e-6]))


# ---------------------------------------------------------------------------
# Exact Poisson (+) Gaussian oracle
# ---------------------------------------------------------------------------


def poisson_gaussian_tail(m: float, sigma_sq: float, beta: float) -> float:
    """P(N + Z > beta) with N ~ Poisson(m), Z ~ Normal(0, sigma_sq), exactly
    (to float precision) by summing the pmf over an 18-sigma window."""
    lo = max(0, int(m - 18.0 * math.sqrt(m) - 40.0))
    hi = int(m + 18.0 * math.sqrt(m) + 80.0)
    ks = np.arange(lo, hi + 1)
    pk = poisson.pmf(ks, m)
    assert abs(pk.sum() - 1.0) < 1e-12, "pmf window too narrow"
    sigma = math.sqrt(sigma_sq)
    return float(pk @ norm.sf((beta - ks) / sigma))


def exact_ber_at(m0: float, m1: float, sigma_sq: float, beta: float) -> float:
    miss = 1.0 - poisson_gaussian_tail(m1, sigma_sq, beta)
    false_alarm = poisson_gaussian_tail(m0, sigma_sq, beta)
    return 0.5 * (false_alarm + miss)


# ---------------------------------------------------------------------------
# Saddle-point solver
# ---------------------------------------------------------------------------


def test_saddle_point_frozen_regression():
    r = u.saddle_point_ber(2.0, 20.0, 1.0)
    assert r.ber == pytest.approx(0.001728342412171052, rel=1e-12)
    assert r.s0 == pytest.approx(1.3187807407632313, rel=1e-12)
    assert r.s1 == pytest.approx(-0.9298127566178696, rel=1e-12)
    assert r.beta == pytest.approx(8.038224492743312, rel=1e-12)
    assert 2.0 < r.beta < 20.0 and r.s0 > 0.0 > r.s1


@pytest.mark.parametrize(
    "m0,m1,sigma_sq",
    [(2.0, 20.0, 1.0), (5.0, 100.0, 100.0), (20.0, 400.0, 1e4), (1.0, 100.0, 1.0)],
)
def test_saddle_point_close_to_exact_oracle(m0, m1, sigma_sq):
    r = u.saddle_point_ber(m0, m1, sigma_sq)
    exact = exact_ber_at(m0, m1, sigma_sq, r.beta)
    if 1e-9 <= exact <= 0.1:
        assert r.ber == pytest.approx(exact, rel=0.15)


def test_saddle_point_thermal_limit():
    # With sigma^2 >> m1 and a genuine tail, the count granularity washes
    # out and the error approaches the matched-threshold Gaussian value
    # Q((m1 - m0) / (2 sigma)).
    for m0, m1, s2, tol in ((10.0, 410.0, 1e4, 0.05), (5.0, 805.0, 4e4, 0.05)):
        r = u.saddle_point_ber(m0, m1, s2)
        limit = q((m1 - m0) / (2.0 * math.sqrt(s2)))
        assert r.ber == pytest.approx(limit, rel=tol)


def test_saddle_point_quantum_corner():
    # Nearly-noiseless photon counting: m0 = 0, vanishing Gaussian part.
    # The exact error at the optimal (0-count) threshold is ~exp(-m1)/2;
    # the saddle point tracks it closely while the Gaussian model can only
    # produce Q(sqrt(m1)) -- orders of magnitude off in the deep quantum
    # regime, which is exactly why both models are kept.
    m1 = 25.0
    saddle = u.saddle_point_ber(0.0, m1, 1e-6)
    exact = exact_ber_at(0.0, m1, 1e-6, saddle.beta)
    gauss = u.gaussian_ber(0.0, m1, 1e-6)
    assert saddle.ber == pytest.approx(exact, rel=0.15)
    assert saddle.ber == pytest.approx(0.5 * math.exp(-m1), rel=0.15)
    assert gauss == pytest.approx(q(math.sqrt(m1)), rel=0.01)
    assert saddle.ber < 1e-4 * gauss


def test_saddle_point_monotone_in_separation():
    vals = [u.saddle_point_ber(5.0, m1, 100.0).ber for m1 in (10.0, 20.0, 40.0, 80.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_saddle_point_large_count_thermal_regime():
    # Regression for the relative residual check: multi-million-count
    # means with a huge thermal variance used to trip a spurious
    # convergence failure because one ulp of beta moves the log-domain
    # threshold residual by ~1e-8. The error itself is a ~500-sigma tail,
    # so the correct output is an exact-zero underflow, not an exception.
    r = u.saddle_point_ber(585.1243452584741, 12130310.075963056, 156051034.83317512)
    assert r.ber == 0.0
    assert r.s0 > 0.0 > r.s1
    # Same regime at a representable separation: thermal noise dominates
    # the count granularity, so the saddle point lands on the Gaussian
    # model's answer.
    m0, s2 = 585.1243452584741, 156051034.83317512
    m1 = m0 + 12.0 * math.sqrt(s2)
    assert u.saddle_point_ber(m0, m1, s2).ber == pytest.approx(
        u.gaussian_ber(m0, m1, s2), rel=0.02
    )


# ---------------------------------------------------------------------------
# Array saddle-point solver against an independent scalar oracle
# ---------------------------------------------------------------------------


def _phi(s: float, m: float, beta: float, sigma_sq: float) -> float:
    return m * math.exp(min(s, 709.0)) + sigma_sq * s - beta - 1.0 / s


def _stationary_point(m: float, beta: float, sigma_sq: float, positive: bool) -> float:
    """Root of _phi on one half-line by a doubling bracket and Brent's method."""
    if m == 0.0:
        disc = math.sqrt(beta * beta + 4.0 * sigma_sq)
        return (beta + disc) / (2.0 * sigma_sq) if positive else (beta - disc) / (2.0 * sigma_sq)
    if positive:
        lo = 1.0
        while _phi(lo, m, beta, sigma_sq) > 0.0:
            lo *= 0.5
        hi = max(1.0, lo)
        while _phi(hi, m, beta, sigma_sq) < 0.0:
            hi *= 2.0
    else:
        hi = -1.0
        while _phi(hi, m, beta, sigma_sq) < 0.0:
            hi *= 0.5
        lo = min(-1.0, hi)
        while _phi(lo, m, beta, sigma_sq) > 0.0:
            lo *= 2.0
    return brentq(_phi, lo, hi, args=(m, beta, sigma_sq), xtol=1e-15, rtol=8.9e-16)


def _log_q(m: float, s: float, beta: float, sigma_sq: float) -> float:
    exp_term = m * math.expm1(s) if m > 0.0 else 0.0
    curv = (m * math.exp(min(s, 709.0)) if m > 0.0 else 0.0) + sigma_sq + 1.0 / (s * s)
    return (
        exp_term
        + 0.5 * s * s * sigma_sq
        - s * beta
        - math.log(abs(s))
        - 0.5 * math.log(2.0 * math.pi * curv)
    )


def brentq_saddle_oracle(m0: float, m1: float, sigma_sq: float) -> tuple[float, float]:
    """(BER, beta) by nested scalar Brent solves: beta outside, s0 and s1 inside."""

    def stationary(beta: float) -> tuple[float, float]:
        return (
            _stationary_point(m0, beta, sigma_sq, positive=True),
            _stationary_point(m1, beta, sigma_sq, positive=False),
        )

    def threshold_residual(beta: float) -> float:
        s0, s1 = stationary(beta)
        return (
            _log_q(m0, s0, beta, sigma_sq) + math.log(s0)
            - _log_q(m1, s1, beta, sigma_sq) - math.log(-s1)
        )

    span = m1 - m0
    beta = brentq(
        threshold_residual, m0 + 1e-9 * span, m1 - 1e-9 * span, xtol=1e-15, rtol=8.9e-16
    )
    s0, s1 = stationary(beta)
    ber = 0.5 * (
        math.exp(_log_q(m0, s0, beta, sigma_sq)) + math.exp(_log_q(m1, s1, beta, sigma_sq))
    )
    return min(max(ber, 0.0), 0.5), beta


def assert_solver_matches_oracle(m0, m1, sigma_sq: float) -> None:
    m0, m1 = np.broadcast_arrays(np.asarray(m0, dtype=float), np.asarray(m1, dtype=float))
    sol = u.saddle_point_ber(m0, m1, sigma_sq)
    oracle = np.array(
        [brentq_saddle_oracle(a, b, sigma_sq) for a, b in zip(m0.ravel(), m1.ravel())]
    )
    assert sol.ber.ravel() == pytest.approx(oracle[:, 0], rel=1e-12, abs=0.0)
    assert sol.beta.ravel() == pytest.approx(oracle[:, 1], rel=1e-12, abs=0.0)


LARGE_COUNT = (585.1243452584741, 12130310.075963056, 156051034.83317512)


@pytest.mark.parametrize(
    "m0,m1,sigma_sq",
    [
        pytest.param(0.0, [1.0, 5.0, 25.0, 60.0], 1e-6, id="quantum-corner"),
        pytest.param([10.0, 5.0], [410.0, 805.0], 1e4, id="thermal-limit-1e4"),
        pytest.param(5.0, 805.0, 4e4, id="thermal-limit-4e4"),
        pytest.param(
            LARGE_COUNT[0],
            [LARGE_COUNT[1], LARGE_COUNT[0] + 12.0 * math.sqrt(LARGE_COUNT[2])],
            LARGE_COUNT[2],
            id="large-count-underflow",
        ),
        pytest.param([2.0, 5.0, 1.0], [20.0, 100.0, 100.0], 1.0, id="frozen-and-oracle-points"),
    ],
)
def test_saddle_solver_matches_nested_brentq_oracle(m0, m1, sigma_sq):
    assert_solver_matches_oracle(m0, m1, sigma_sq)


@pytest.mark.parametrize("power_dbm", [10.0, 22.5, 40.0])
def test_saddle_solver_matches_oracle_on_hop_grid(ir_coastal_22p5, noise_1ns, power_dbm):
    # Every (fading node, ISI grid point) element hop_average_ber solves
    # for a 22.5 m coastal hop at 1 Gbps. At 10 dBm the threshold
    # residual sits at its rounding floor for part of the grid.
    hop = u.HopBerInputs(
        energies=u.bit_frame_energies(ir_coastal_22p5, bit_duration=1e-9),
        fading=u.FadingModel(sigma_x_sq=SIGMA_X_SQ[22.5]),
        noise=noise_1ns,
        photons_per_bit=u.photons_per_bit(10 ** ((power_dbm - 30.0) / 10.0), 1e-9),
    )
    h, _ = _fading_nodes(hop, "saddle_point", 30)
    n_ph = hop.photons_per_bit
    values, _ = hop.energies.isi_distribution
    grid = np.linspace(0.0, values.max() * n_ph, 65)
    m0 = noise_1ns.n_bd + np.outer(h, grid)
    m1 = m0 + (h * n_ph * hop.energies.e_signal)[:, None]
    assert m0.shape == (30, 65)
    assert_solver_matches_oracle(m0, m1, noise_1ns.sigma_th_sq)


def test_hop_average_saddle_failure_names_quadrature_node(monkeypatch):
    monkeypatch.setattr(ber_module, "_RESIDUAL_TOL", 0.0)
    with pytest.raises(ConvergenceError, match=r"quadrature node \d+ \(h=[0-9.e+-]+\)"):
        u.hop_average_ber(synthetic_hop(17.0, e_isi=[8e-6, 4e-6]), "saddle_point")


def test_hop_average_saddle_names_the_node_where_the_signal_rounds_away():
    # At -170 dBm the signal count is below half an ulp of the noise count,
    # so m1 == m0 at every node.
    with pytest.raises(ConvergenceError,
                       match=r"quadrature node 0 \(h=[0-9.e+-]+\): the signal count rounds away"):
        u.hop_average_ber(synthetic_hop(-170.0), "saddle_point")


def test_saddle_point_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(ber_module, "_MAX_ITERATIONS", 1)
    with pytest.raises(ConvergenceError, match="did not converge in 1 iterations"):
        u.saddle_point_ber(2.0, 20.0, 1.0)


def test_saddle_point_validation():
    with pytest.raises(ValueError, match="m1"):
        u.saddle_point_ber(10.0, 10.0, 1.0)
    with pytest.raises(ValueError, match="m0"):
        u.saddle_point_ber(-1.0, 10.0, 1.0)
    with pytest.raises(ValueError, match="sigma_th_sq"):
        u.saddle_point_ber(1.0, 10.0, 0.0)


@pytest.mark.parametrize(
    "args,expected",
    [
        ((2.0, 20.0, 1.0),
         (0.0017283424121710563, 1.3187807407632306, -0.9298127566178699, 8.03822449274331)),
        ((0.0, 25.0, 1e-6),
         (7.529666385056086e-12, 7348.989144306013, -136.07313609587212, 0.007212916008210173)),
    ],
)
def test_saddle_point_scalar_means_give_numpy_scalars(args, expected):
    # Bit-exact: the values these one-element solves have always given.
    r = u.saddle_point_ber(*args)
    got = (r.ber, r.s0, r.s1, r.beta)
    assert all(type(v) is np.float64 for v in got)
    assert [float(v).hex() for v in got] == [v.hex() for v in expected]


def saddle_means(shape, seed=5):
    """Means like a hop's grid: m0 from the noise floor up, m1 a signal above."""
    rng = np.random.default_rng(seed)
    m0 = 7.8 + rng.uniform(0.0, 50.0, shape)
    return m0, m0 + 10.0 ** rng.uniform(1.0, 3.5, shape)


@pytest.mark.parametrize("shape", [(1,), (7,), (30, 65)])
def test_saddle_point_arrays_are_elementwise(shape):
    m0, m1 = saddle_means(shape)
    r = u.saddle_point_ber(m0, m1, 3e3)
    fields = (r.ber, r.s0, r.s1, r.beta)
    assert all(f.shape == shape for f in fields)
    for i in np.ndindex(*shape):
        one = u.saddle_point_ber(m0[i], m1[i], 3e3)
        assert [f[i].tobytes() for f in fields] == [
            np.float64(v).tobytes() for v in (one.ber, one.s0, one.s1, one.beta)
        ]


def test_saddle_point_broadcasts_the_means():
    m1 = np.array([[20.0], [40.0]])
    r = u.saddle_point_ber(2.0, m1, 1.0)
    assert r.ber.shape == (2, 1)
    assert r.ber[0, 0] == u.saddle_point_ber(2.0, 20.0, 1.0).ber


@pytest.mark.parametrize(
    "where,m0,m1,message",
    [
        ((4,), 5.0, 5.0, r"^m1 must exceed m0, got m0=5.0, m1=5.0 at index \(4,\)$"),
        ((2, 3), 6.0, 1.0, r"^m1 must exceed m0, got m0=6.0, m1=1.0 at index \(2, 3\)$"),
        ((1, 0), -0.5, 9.0, r"^m0 must be >= 0, got -0.5 at index \(1, 0\)$"),
        ((0, 5), math.nan, 9.0, r"^m0 must be >= 0, got nan at index \(0, 5\)$"),
    ],
)
def test_saddle_point_array_validation_names_the_element(where, m0, m1, message):
    shape = (7,) if len(where) == 1 else (3, 6)
    means = saddle_means(shape)
    means[0][where], means[1][where] = m0, m1
    with pytest.raises(ValueError, match=message):
        u.saddle_point_ber(*means, 3e3)


def test_saddle_point_failure_index_is_the_flat_position():
    # (1.7e-4, 0.263) at sigma^2 = 3.5e-3 fails the threshold check, a
    # known weakness of the tail prefactor near s = 0; (0, 25) solves.
    m0 = np.zeros((3, 4))
    m1 = np.full((3, 4), 25.0)
    m0[1, 2], m1[1, 2] = 1.7e-4, 0.263
    threshold = "^saddle-point threshold equation residual too large$"
    with pytest.raises(ConvergenceError, match=threshold) as exc:
        u.saddle_point_ber(m0, m1, 3.5e-3)
    assert exc.value.index == 6
    with pytest.raises(ConvergenceError) as exc:
        u.saddle_point_ber(1.7e-4, 0.263, 3.5e-3)
    assert exc.value.index == 0


def test_saddle_point_stationary_failure_names_the_on_mean(monkeypatch):
    # Perturb every s1 the solver finds: beta still converges, s0 still
    # passes, and the m1 stationary check is the first to fail.
    solve = ber_module._stationary_points

    def perturbed(m, beta, sigma_sq, start, positive):
        s, iterations, unconverged = solve(m, beta, sigma_sq, start, positive)
        return (s if positive else s * (1.0 + 1e-6)), iterations, unconverged

    monkeypatch.setattr(ber_module, "_stationary_points", perturbed)
    message = r"^saddle-point stationary equation residual too large at m=20.0, s=-0.9"
    with pytest.raises(ConvergenceError, match=message):
        u.saddle_point_ber(2.0, 20.0, 1.0)


def test_saddle_point_logs_one_line_per_call(caplog):
    m0, m1 = saddle_means((30, 65))
    with caplog.at_level(logging.DEBUG, logger="uwoc_relay_sim.ber"):
        u.saddle_point_ber(m0, m1, 3e3)
    lines = [r.getMessage() for r in caplog.records]
    assert len(lines) == 1
    assert lines[0].startswith("saddle point: 1950 elements, at most ")


# ---------------------------------------------------------------------------
# Gaussian approximation
# ---------------------------------------------------------------------------


def test_gaussian_ber_closed_form():
    m0, m1, s2 = 100.0, 400.0, 100.0
    expected = q((m1 - m0) / (math.sqrt(m1 + s2) + math.sqrt(m0 + s2)))
    got = u.gaussian_ber(m0, m1, s2)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(1.0299420302622718e-16, rel=1e-12)


def test_gaussian_ber_edges_and_validation():
    assert u.gaussian_ber(5.0, 5.0, 10.0) == 0.5
    assert u.gaussian_ber(0.0, 25.0, 0.0) == pytest.approx(q(5.0), rel=1e-14)
    with pytest.raises(ValueError, match="m1"):
        u.gaussian_ber(10.0, 5.0, 1.0)
    with pytest.raises(ValueError, match="sigma_th_sq"):
        u.gaussian_ber(1.0, 10.0, -1.0)


@pytest.mark.parametrize("m0", [-1.0, math.inf, math.nan])
def test_gaussian_ber_rejects_a_negative_m0(m0):
    with pytest.raises(ValueError, match=r"^m0 must be >= 0, got"):
        u.gaussian_ber(m0, 10.0, 1.0)


# ---------------------------------------------------------------------------
# Fading/ISI averaging
# ---------------------------------------------------------------------------


def test_hop_average_zero_signal_is_coin_flip():
    hop = synthetic_hop(-300.0)  # effectively zero photons
    dark = u.HopBerInputs(
        energies=hop.energies,
        fading=hop.fading,
        noise=hop.noise,
        photons_per_bit=0.0,
    )
    for method in u.BER_METHODS:
        assert u.hop_average_ber(dark, method) == 0.5


def test_hop_average_degenerate_fading_no_isi_equals_conditional():
    hop = synthetic_hop(17.762, sigma_x_sq=0.0)
    expected = u.conditional_ber_awgn(1, [], 1.0, hop)
    assert u.hop_average_ber(hop, "awgn_ghqf") == pytest.approx(expected, rel=1e-14)


def test_hop_average_zero_isi_energies_match_memoryless():
    base = synthetic_hop(18.0)
    padded = synthetic_hop(18.0, e_isi=[0.0, 0.0])
    for method in u.BER_METHODS:
        assert u.hop_average_ber(padded, method) == pytest.approx(
            u.hop_average_ber(base, method), rel=1e-12
        )


def test_hop_average_zero_taps_past_the_cap_average_like_no_memory():
    # Past ISI_ENUMERATION_CAP, taps that are all zero give the one-point
    # distribution at 0, so the average is the memoryless one to the bit.
    base = synthetic_hop(18.0)
    padded = synthetic_hop(18.0, e_isi=np.zeros(u.ISI_ENUMERATION_CAP + 1))
    assert padded.energies.isi_average == "convolved"
    values, probabilities = padded.energies.isi_distribution
    assert (values.tolist(), probabilities.tolist()) == ([0.0], [1.0])
    for method in u.BER_METHODS:
        assert u.hop_average_ber(padded, method).hex() == u.hop_average_ber(base, method).hex()


def test_fading_mode_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(ber_module, "_MAX_ITERATIONS", 1)
    with pytest.raises(ConvergenceError, match=r"^fading-average mode did not converge in 1 "):
        u.hop_average_ber(synthetic_hop(18.0), "awgn_ghqf")


def brentq_mode_oracle(hop: u.HopBerInputs, method: str) -> tuple[float, float]:
    """Mode t_hat of log g and sigma_hat = (-(log g)''(t_hat))^(-1/2) for
    one hop's fading average, with the mode found by Brent's method on
    (log g)' in scalar Python arithmetic, independently of the package's
    Newton iteration."""
    fading, noise = hop.fading, hop.noise
    sigma_x = math.sqrt(fading.sigma_x_sq)
    gamma_s = hop.photons_per_bit * hop.energies.e_signal
    c = noise.n_bd + noise.sigma_th_sq

    def margin(h):
        if method == "awgn_ghqf":
            v = gamma_s * h / (2.0 * math.sqrt(noise.sigma_th_sq + noise.n_bd))
            return v, v, v
        root = math.sqrt(c + gamma_s * h)
        v_s = gamma_s * h / (2.0 * root)
        return root - math.sqrt(c), v_s, v_s * (1.0 - gamma_s * h / (2.0 * root * root))

    def slopes(t):
        v, v_s, v_ss = margin(math.exp(2.0 * (fading.mu_x + sigma_x * t)))
        mills = math.sqrt(2.0 / math.pi) / float(erfcx(v / math.sqrt(2.0)))
        first = -2.0 * sigma_x * mills * v_s - t
        second = -4.0 * fading.sigma_x_sq * mills * ((mills - v) * v_s * v_s + v_ss) - 1.0
        return first, second

    lo = -1.0
    while slopes(lo)[0] <= 0.0:
        lo *= 2.0
    t_hat = brentq(lambda t: slopes(t)[0], lo, 0.0, xtol=1e-12, rtol=8.9e-16)
    return t_hat, 1.0 / math.sqrt(-slopes(t_hat)[1])


@pytest.mark.parametrize("sigma_x_sq", [0.01, 0.06, 0.25])
@pytest.mark.parametrize("method", u.BER_METHODS)
def test_fading_mode_matches_brentq_oracle(method, sigma_x_sq):
    # From BER near 1/2 down to deep tails, at 1 and 10 Gbps. A one-node
    # rule puts its node at the mode: h = exp(2 mu_x + 2 sigma_x t_hat)
    # with weight sigma_hat exp(-t_hat^2 / 2).
    sigma_x = math.sqrt(sigma_x_sq)
    for bit_duration in (1e-9, 1e-10):
        for power_dbm in (-10.0, 5.0, 15.0, 25.0, 40.0):
            hop = synthetic_hop(power_dbm, sigma_x_sq=sigma_x_sq, bit_duration=bit_duration)
            h, weight = _fading_nodes(hop, method, 1)
            t_hat = (0.5 * math.log(h[0]) + sigma_x_sq) / sigma_x
            t_ref, sigma_ref = brentq_mode_oracle(hop, method)
            assert abs(t_hat - t_ref) <= 1e-10, (bit_duration, power_dbm)
            assert weight[0] == pytest.approx(sigma_ref * math.exp(-0.5 * t_ref**2), rel=1e-9)


def test_fading_mode_without_fading_or_signal():
    # No fading: the one node h = 1 of weight 1. No signal: log g = -t^2/2,
    # whose mode is 0 and curvature 1, so the rule is the fixed one.
    hop = synthetic_hop(18.0, sigma_x_sq=0.0)
    for method in u.BER_METHODS:
        h, w = _fading_nodes(hop, method, 30)
        assert h.tolist() == [1.0] and w.tolist() == [1.0]
    hop = synthetic_hop(18.0)
    dark = u.HopBerInputs(energies=hop.energies, fading=hop.fading, noise=hop.noise,
                          photons_per_bit=0.0)
    nodes, rule_weights = u.ghq_rule(30)
    sigma_x = math.sqrt(hop.fading.sigma_x_sq)
    for method in u.BER_METHODS:
        h, w = _fading_nodes(dark, method, 30)
        t = math.sqrt(2.0) * nodes
        np.testing.assert_allclose(h, np.exp(2.0 * (hop.fading.mu_x + sigma_x * t)), rtol=1e-15)
        np.testing.assert_allclose(w, rule_weights / math.sqrt(math.pi), rtol=1e-14)


def test_fading_mode_logs_its_newton_iterations(caplog):
    with caplog.at_level(logging.DEBUG, logger="uwoc_relay_sim.ber"):
        u.hop_average_ber(synthetic_hop(18.0), "awgn_ghqf")
    iterations = re.findall(r"fading mode \(awgn_ghqf\): t=\S+ after (\d+) Newton iterations",
                            caplog.text)
    assert len(iterations) == 1 and 0 < int(iterations[0]) < 20


def cubic_rows(knots: int, step: float, rng):
    """Three random cubics sampled on the knots 0, step, ...; returns the
    knots, the rows of samples and the coefficients (highest degree first)."""
    x = step * np.arange(knots)
    coefficients = rng.normal(0.0, 1.0, (3, 4)) * [1e-3, 1e-1, 1.0, 10.0]
    return x, np.array([np.polyval(c, x) for c in coefficients]), coefficients


@pytest.mark.parametrize("knots,step", [(5, 1.0), (6, 0.37), (65, 1e4 / 64), (65, 3e-3)])
def test_hermite_reproduces_cubics(knots, step):
    # Fourth-order slopes are exact on a cubic, at the ends too, so the
    # Hermite cubic of every interval is the row's own cubic.
    rng = np.random.default_rng(knots)
    x, y, coefficients = cubic_rows(knots, step, rng)
    points = np.concatenate([x, rng.uniform(0.0, x[-1], 300), x[:-1] + 0.5 * step])
    expected = np.array([np.polyval(c, points) for c in coefficients])
    got = ber_module._hermite(step, y)(points)
    assert got.shape == expected.shape
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13 * np.abs(y).max())


def test_hermite_clamps_points_to_the_knots():
    # The first knot is exact (a hop without ISI sits there); points beyond
    # either end get the end knot's value, not an extrapolated cubic.
    x, y, _ = cubic_rows(5, 0.5, np.random.default_rng(3))
    got = ber_module._hermite(0.5, y)(np.array([0.0, -1.0, x[-1], x[-1] * (1.0 + 1e-9), 10.0]))
    np.testing.assert_array_equal(got[:, :2], y[:, [0, 0]])
    np.testing.assert_allclose(got[:, 2], y[:, -1], rtol=0.0, atol=1e-13 * np.abs(y).max())
    np.testing.assert_array_equal(got[:, 3:], got[:, [2, 2]])


def test_hermite_needs_five_knots():
    _, y, _ = cubic_rows(5, 1.0, np.random.default_rng(4))
    assert ber_module._hermite(1.0, y)(np.array([0.5, 3.5])).shape == (3, 2)
    with pytest.raises(ValueError):
        ber_module._hermite(1.0, y[:, :4])


def mpmath_erfc(x, scaled: bool) -> np.ndarray:
    """erfc, or erfcx if `scaled`, at 40 digits, rounded to floats."""
    with mpmath.workdps(40):
        values = []
        for v in np.asarray(x, dtype=float):
            v = mpmath.mpf(float(v))
            values.append(float(mpmath.exp(v * v) * mpmath.erfc(v) if scaled else mpmath.erfc(v)))
    return np.array(values)


def ulp_errors(got, exact):
    """|got - exact| in units of the float spacing at exact, where exact is a normal float."""
    normal = np.isfinite(exact) & (np.abs(exact) >= np.finfo(float).tiny)
    return np.abs(got[normal] - exact[normal]) / np.spacing(np.abs(exact[normal]))


@pytest.mark.parametrize("scaled,lo,hi,bound", [(False, -6.0, 26.5, 6), (True, -3.0, 1e4, 3)],
                         ids=["erfc", "erfcx"])
def test_erfc_kernel_matches_mpmath(scaled, lo, hi, bound):
    # A 1/100 grid, its midpoints shifted off round numbers, and random
    # points; erfcx also on a geometric grid out to 1e4.
    rng = np.random.default_rng(3)
    top = min(hi, 10.0)
    x = np.concatenate([np.arange(lo, top, 0.01), np.arange(lo, top, 0.01) + 0.0047,
                        rng.uniform(lo, top, 3000)])
    if hi > top:
        x = np.concatenate([x, np.geomspace(top, hi, 1000)])
    if not scaled:
        x = np.concatenate([x, rng.uniform(top, hi, 2000)])
    errors = ulp_errors(ber_module._erfc(x, scaled), mpmath_erfc(x, scaled))
    assert errors.size > 0.9 * x.size
    assert errors.max() <= bound


def test_erfc_kernel_agrees_with_scipy():
    # SciPy's erfc rounds x^2 before its exponential, so its own relative
    # error grows like eps x^2; its erfcx has no such term.
    eps = np.finfo(float).eps
    x = np.linspace(-6.0, 26.5, 20001)
    x = x[erfc(x) >= np.finfo(float).tiny]
    expected = erfc(x)
    assert np.all(np.abs(ber_module._erfc(x) - expected) <= 8.0 * eps * (1.0 + x * x) * expected)
    x = np.concatenate([np.linspace(-3.0, 10.0, 20001), np.geomspace(10.0, 1e4, 2000)])
    np.testing.assert_allclose(ber_module._erfc(x, scaled=True), erfcx(x), rtol=8.0 * eps, atol=0.0)


def test_erfc_kernel_special_values():
    inf = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plain = ber_module._erfc(np.array([0.0, -0.0, inf, -inf, np.nan, 27.5, -1e300]))
        scaled = ber_module._erfc(np.array([0.0, -0.0, inf, -inf, np.nan, -26.7, -1e300, 1e300]),
                                  scaled=True)
    assert plain.tolist()[:4] == [1.0, 1.0, 0.0, 2.0] and np.isnan(plain[4])
    assert plain.tolist()[5:] == [0.0, 2.0]
    assert scaled.tolist()[:4] == [1.0, 1.0, 0.0, inf] and np.isnan(scaled[4])
    assert scaled.tolist()[5:7] == [inf, inf]
    assert scaled[7] == pytest.approx(1.0 / (1e300 * math.sqrt(math.pi)), rel=1e-15)


def test_erfc_kernel_keeps_the_shape_and_is_elementwise():
    value = ber_module._erfc(0.5)
    assert isinstance(value, np.float64) and value == pytest.approx(math.erfc(0.5), rel=1e-15)
    assert ber_module._erfc(np.array(0.5), scaled=True).shape == ()
    # Five rows of 4000 fill more than two blocks; a row is in one block.
    x = np.random.default_rng(5).normal(0.0, 6.0, (5, 4000))
    for scaled in (False, True):
        whole = ber_module._erfc(x, scaled)
        assert whole.shape == x.shape
        assert whole.tobytes() == np.stack([ber_module._erfc(row, scaled) for row in x]).tobytes()
        assert ber_module._erfc(x.T, scaled).tobytes() == np.ascontiguousarray(whole.T).tobytes()


ERFC_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 27.5, 28.1, 1e300, -1e300]
EB = ber_module._ERFC_BLOCK
# sha256 of _erfc(x) and _erfc(x, scaled=True) on `erfc_pin_grid(size)`.
# The accuracy tests allow a few ulp; these pins catch any moved bit, as
# the CLI digests would. They hold for one numpy build on one CPU family.
FROZEN_ERFC = {
    0: ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    1: ("3f710ac088db33363087de2b9a657541fe5447821debaa9fe5cbd538eb1a5f29",
        "9402bb655bc3b7331a00f1219ef647565bbe517c74aa0e41026885785867d1cd"),
    EB - 1: ("1e96fb6e04d219263d5195742740f813e06442c130fa9b4e7d593f6575a3565c",
             "b7779aa8537dde6fbb706c18e91caeac90bd4cebaf45f596263dbc45bcf2e353"),
    EB + 1: ("d61266f86eea3b114175483ae46d758cda092aeec3ffca79f0afa10ee3d96881",
             "c6fc05b6c8fc111f06819be081d4ba6bc6d2f52adad24565078b11fbf037bc1e"),
    3 * EB + 17: ("80f2c11780402b3e1443d02d12baca5effaa8a2b2f89832ce43bde4127731e5f",
                  "430da9b82db1588d999ec5f6b8dccebf2b5d65980e49df2fcc5d9d04d0963c8e"),
}


def erfc_pin_grid(size):
    """`size` points from -30 to 1e4, dense near 0, with the special
    values spread over the interior once they fit."""
    x = np.sinh(np.linspace(math.asinh(-30.0), math.asinh(1e4), size))
    if size > len(ERFC_SPECIALS):
        x[np.linspace(1, size - 2, len(ERFC_SPECIALS)).astype(int)] = ERFC_SPECIALS
    return x


@pytest.mark.parametrize("size", list(FROZEN_ERFC))
def test_erfc_kernel_bytes_are_frozen(size):
    x = erfc_pin_grid(size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        digests = tuple(hashlib.sha256(ber_module._erfc(x, scaled).tobytes()).hexdigest()
                        for scaled in (False, True))
    assert digests == FROZEN_ERFC[size]


def erfcx_fit():
    """Re-fit the kernel's table: (x + 1/2) erfcx(x) as a degree-24
    polynomial in t = (x - K) / (x + K), with its fit error."""
    k = mpmath.mpf(ber_module._ERFCX_K)

    def f(t):
        if t == 1:
            return 1 / mpmath.sqrt(mpmath.pi)  # the limit as x -> inf
        x = k * (1 + t) / (1 - t)
        return (x + mpmath.mpf(0.5)) * mpmath.exp(x * x) * mpmath.erfc(x)

    with mpmath.workdps(40):
        poly, error = mpmath.chebyfit(f, [-1, 1], 25, error=True)
        tail = poly[-1] - mpmath.mpf(float(poly[-1]))
    return tuple(float(c) for c in poly), float(tail), float(error)


def test_erfc_kernel_table_is_the_chebyfit():
    poly, tail, error = erfcx_fit()
    assert len(poly) == 25
    assert poly == ber_module._ERFCX_POLY
    assert tail == ber_module._ERFCX_POLY_TAIL
    assert error < 1e-17


def ghqf_oracle_awgn(hop: u.HopBerInputs, order: int = 30) -> float:
    """Hand-rolled pattern average of the conditional AWGN model, summed
    over the library's fading nodes (criterion 2 checks their placement
    against adaptive quadrature)."""
    memory = hop.energies.memory
    patterns = (
        [[]]
        if memory == 0
        else [list(map(int, np.binary_repr(i, memory))) for i in range(2**memory)]
    )
    total = 0.0
    for h, w in zip(*_fading_nodes(hop, "awgn_ghqf", order)):
        cond = np.mean(
            [
                0.5 * (u.conditional_ber_awgn(1, b, h, hop) + u.conditional_ber_awgn(0, b, h, hop))
                for b in patterns
            ]
        )
        total += w * cond
    return total


@pytest.mark.parametrize("e_isi", [(), (8e-6, 4e-6)])
def test_hop_average_awgn_matches_hand_rolled_loop(e_isi):
    hop = synthetic_hop(17.762, e_isi=e_isi)
    assert u.hop_average_ber(hop, "awgn_ghqf") == pytest.approx(
        ghqf_oracle_awgn(hop), rel=1e-12, abs=0.0
    )


def saddle_hop_oracle(hop: u.HopBerInputs, order: int = 30) -> float:
    """Per-pattern, per-node exact saddle solves (no interpolation grid) at
    the library's fading nodes."""
    memory = hop.energies.memory
    patterns = (
        np.zeros((1, 0))
        if memory == 0
        else np.array([[int(c) for c in np.binary_repr(i, memory)] for i in range(2**memory)])
    )
    isi_sums = patterns @ hop.energies.e_isi * hop.photons_per_bit
    total = 0.0
    for h, w in zip(*_fading_nodes(hop, "saddle_point", order)):
        vals = []
        for s in np.atleast_1d(isi_sums):
            m0 = hop.noise.n_bd + h * s
            m1 = m0 + h * hop.photons_per_bit * hop.energies.e_signal
            vals.append(u.saddle_point_ber(m0, m1, hop.noise.sigma_th_sq).ber)
        total += w * float(np.mean(vals))
    return total


@pytest.mark.parametrize("power_dbm", [13.0, 17.0, 19.0])
def test_hop_average_saddle_grid_matches_exact_solves(power_dbm):
    # The production path evaluates the saddle solver on a 65-point
    # monotone grid per fading node and interpolates the 2^L pattern
    # values; it must agree with per-pattern exact solves to rounding.
    hop = synthetic_hop(power_dbm, e_isi=[8e-6, 4e-6])
    grid = u.hop_average_ber(hop, "saddle_point")
    exact = saddle_hop_oracle(hop)
    assert grid == pytest.approx(exact, rel=1e-12, abs=0.0)


def quad_fading_oracle(hop: u.HopBerInputs, method: str) -> float:
    """Adaptive-quadrature fading average of a method's pattern average.

    Integrates F(t) phi(t) over the standard normal t, where F is the
    fading-free hop average at h = exp(2 mu_x + 2 sigma_x t), obtained by
    folding h into the count scale; no quadrature node is shared with
    the library's rule.
    """
    sigma = math.sqrt(hop.fading.sigma_x_sq)
    no_fading = u.FadingModel(sigma_x_sq=0.0)

    def integrand(t: float) -> float:
        h = math.exp(2.0 * (hop.fading.mu_x + sigma * t))
        faded = u.HopBerInputs(
            energies=hop.energies,
            fading=no_fading,
            noise=hop.noise,
            photons_per_bit=h * hop.photons_per_bit,
        )
        return u.hop_average_ber(faded, method) * math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

    value, _ = quad(
        integrand, -15.0, 15.0,
        epsabs=1e-30, epsrel=1e-11, limit=2000,
        points=[-12, -10, -8, -6, -4, -2, 0, 2, 4],
    )
    return value


@pytest.mark.parametrize("sigma_x_sq", [0.05, 0.25])
@pytest.mark.parametrize("power_dbm", [14.0, 22.0, 30.0, 40.0])
def test_hop_average_gaussian_matches_adaptive_quadrature(power_dbm, sigma_x_sq):
    # The Gaussian (and saddle-point) average centres its rule on the
    # Gaussian-approximation tail; it must track quad from BER ~0.1 down
    # to the deep tail, where fixed nodes are off by percent.
    hop = synthetic_hop(power_dbm, e_isi=[8e-6, 4e-6], sigma_x_sq=sigma_x_sq)
    assert u.hop_average_ber(hop, "gaussian") == pytest.approx(
        quad_fading_oracle(hop, "gaussian"), rel=1e-5
    )


def test_hop_average_monotone_in_power_and_fading():
    bers = [u.hop_average_ber(synthetic_hop(p), "awgn_ghqf") for p in (10.0, 14.0, 18.0, 22.0)]
    assert all(a > b for a, b in zip(bers, bers[1:]))
    by_fading = [
        u.hop_average_ber(synthetic_hop(19.0, sigma_x_sq=s2), "awgn_ghqf")
        for s2 in (0.0, 0.05, 0.15, 0.25)
    ]
    assert all(a < b for a, b in zip(by_fading, by_fading[1:]))


def enumerated_hop_oracle(hop: u.HopBerInputs, method: str) -> float:
    """Average over all 2^L ISI patterns, listed one by one, at the library's
    fading nodes. awgn_ghqf and gaussian are evaluated at every pattern. The
    saddle point is solved on a 65-point grid spanning the exact ISI range
    and interpolated in log-BER by SciPy's PCHIP, an interpolant that shares
    no code with hop_average_ber's (which
    test_hop_average_grid_matches_direct_evaluation checks against per-value
    solves)."""
    sums = np.zeros(1)
    for e in hop.energies.e_isi:
        sums = np.concatenate([sums, sums + e])
    n_ph = hop.photons_per_bit
    counts = n_ph * sums
    gamma_s = n_ph * hop.energies.e_signal
    noise = hop.noise
    h_nodes, weights = _fading_nodes(hop, method, 30)
    if method == "saddle_point":
        grid = np.linspace(0.0, counts.max(), 65)
        m0 = noise.n_bd + np.outer(h_nodes, grid)
        sol = u.saddle_point_ber(m0, m0 + (h_nodes * gamma_s)[:, None], noise.sigma_th_sq)
        log_ber = np.log(sol.ber.reshape(m0.shape))
    total = 0.0
    for i, (h, w) in enumerate(zip(h_nodes, weights)):
        if method == "awgn_ghqf":
            sigma = 2.0 * math.sqrt(noise.sigma_th_sq + noise.n_bd)
            one = norm.sf(h * (gamma_s + 2.0 * counts) / sigma)
            zero = norm.sf(h * (gamma_s - 2.0 * counts) / sigma)
            pattern_bers = 0.5 * (one + zero)
        elif method == "gaussian":
            m0 = noise.n_bd + h * counts
            m1 = m0 + h * gamma_s
            pattern_bers = norm.sf(
                (m1 - m0) / (np.sqrt(m1 + noise.sigma_th_sq) + np.sqrt(m0 + noise.sigma_th_sq))
            )
        else:
            pattern_bers = np.exp(PchipInterpolator(grid, log_ber[i])(counts))
        total += w * pattern_bers.mean()
    return total


def channel_like_taps(memory: int) -> np.ndarray:
    """Unequal ISI taps shaped like a traced 10 Gbps 22.5 m coastal response:
    one leading tap of 7% of the signal slot, then a decaying, uneven tail;
    about 10% of the signal in all."""
    k = np.arange(memory)
    return 1.7e-4 * np.where(k == 0, 0.07, 0.01 * 0.75**k * (1.0 + 0.5 * np.cos(1.7 * k)))


@pytest.mark.parametrize("method", u.BER_METHODS)
@pytest.mark.parametrize("power_dbm", [18.0, 28.0])
@pytest.mark.parametrize("memory", [17, 20])
def test_hop_average_long_memory_matches_enumeration(memory, power_dbm, method):
    # Beyond ISI_ENUMERATION_CAP the ISI sum is convolved on a grid; it
    # must reproduce the exact 2^L-pattern average at BER ~1e-3 (18 dBm)
    # and in the deep tail (28 dBm, BER ~1e-12 to 1e-13).
    assert memory > u.ISI_ENUMERATION_CAP
    hop = synthetic_hop(power_dbm, e_isi=channel_like_taps(memory))
    got = u.hop_average_ber(hop, method)
    assert got == pytest.approx(enumerated_hop_oracle(hop, method), rel=1e-7)


@pytest.mark.parametrize("method", u.BER_METHODS)
def test_hop_average_debug_diagnostics_leave_the_value_unchanged(method, caplog):
    # At DEBUG level a long-memory average also logs the change from halving
    # its ISI grid, and the saddle point its iterations and residuals; the
    # returned BER must be the same bits as without them.
    hop = synthetic_hop(18.0, e_isi=channel_like_taps(20))
    with caplog.at_level(logging.WARNING, logger="uwoc_relay_sim.ber"):
        quiet = u.hop_average_ber(hop, method)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="uwoc_relay_sim.ber"):
        loud = u.hop_average_ber(hop, method)
    messages = [record.getMessage() for record in caplog.records]
    assert any("L=20 convolved on 16384 grid points" in m for m in messages)
    saddle = [m for m in messages if re.match(r"saddle point: \d+ elements", m)]
    assert len(saddle) == (1 if method == "saddle_point" else 0)
    assert loud.hex() == quiet.hex()


def test_hop_average_debug_line_names_the_grid_in_use(monkeypatch, caplog):
    monkeypatch.setattr(channel_module, "_ISI_GRID_POINTS", 4 * channel_module._ISI_GRID_POINTS)
    hop = synthetic_hop(18.0, e_isi=channel_like_taps(20))
    with caplog.at_level(logging.DEBUG, logger="uwoc_relay_sim.ber"):
        u.hop_average_ber(hop, "awgn_ghqf")
    assert "L=20 convolved on 65536 grid points" in caplog.text


def test_hop_average_debug_builds_each_isi_distribution_once(monkeypatch, caplog):
    # The full and the half grid are both cached on the energies, so the
    # DEBUG grid line costs one extra build per hop, not one per average.
    build = channel_module._isi_distribution
    built = []

    def counting(e_isi, grid_points=None):
        built.append(grid_points)
        return build(e_isi, grid_points)

    monkeypatch.setattr(channel_module, "_isi_distribution", counting)
    hop = synthetic_hop(18.0, e_isi=channel_like_taps(20))
    louder = dataclasses.replace(hop, photons_per_bit=2.0 * hop.photons_per_bit)
    with caplog.at_level(logging.DEBUG, logger="uwoc_relay_sim.ber"):
        for inputs, method in ((hop, "awgn_ghqf"), (louder, "gaussian")):
            u.hop_average_ber(inputs, method)
    assert caplog.text.count("halving the grid changes it") == 2
    assert built == [None, channel_module._ISI_GRID_POINTS // 2]
    values, weights = hop.energies.coarse_isi_distribution[1:]
    assert not values.flags.writeable and not weights.flags.writeable


def test_hop_average_longest_memory_is_bounded_and_deterministic():
    # The simulator's largest history, with taps decaying over all of it
    # (30% of the signal slot in all); listing or sampling patterns of
    # this length would take gigabytes.
    # Each average runs on a new hop, so that each builds its own ISI
    # distribution rather than reading the one cached on the energies.
    taps = np.exp(-np.arange(u.HISTORY_CAP) / 500.0)
    e_isi = 0.3 * 1.7e-4 * taps / taps.sum()
    for method in u.BER_METHODS:
        tracemalloc.start()
        try:
            first = u.hop_average_ber(synthetic_hop(19.0, e_isi=e_isi), method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6, f"{method}: peak {peak / 1e6:.1f} MB"
        assert 0.0 < first <= 0.5
        assert u.hop_average_ber(synthetic_hop(19.0, e_isi=e_isi), method) == first


@pytest.mark.parametrize("power_dbm", [24.0, 27.0, 30.0, 33.0])
def test_hop_average_convolved_isi_converges_in_grid(fine_irs, monkeypatch, power_dbm):
    # A real 10 Gbps hop, whose memory is in the hundreds: a grid four
    # times finer moves the average by less than 1e-6 relative.
    energies = u.bit_frame_energies(fine_irs[22.5], bit_duration=1e-10)
    assert energies.memory > 100
    hop = u.HopBerInputs(
        energies=energies,
        fading=u.FadingModel(sigma_x_sq=SIGMA_X_SQ[22.5]),
        noise=u.NoiseModel.typical(1e-10),
        photons_per_bit=u.photons_per_bit(10 ** ((power_dbm - 30.0) / 10.0), 1e-10),
    )
    methods = ("awgn_ghqf", "gaussian")
    default = [u.hop_average_ber(hop, m) for m in methods]
    monkeypatch.setattr(channel_module, "_ISI_GRID_POINTS", 4 * channel_module._ISI_GRID_POINTS)
    # New energies, since the distribution is cached on the old ones.
    hop = dataclasses.replace(hop, energies=dataclasses.replace(energies))
    finer = [u.hop_average_ber(hop, m) for m in methods]
    assert default != finer
    assert default == pytest.approx(finer, rel=1e-6)


def direct_hop_average(hop: u.HopBerInputs, method: str) -> float:
    """The hop average with the conditional BER evaluated at every (fading
    node, ISI value) pair, on no grid: the library's fading nodes and ISI
    distribution, SciPy's normal tail for awgn_ghqf and gaussian, and one
    saddle-point solve per pair."""
    values, weights = hop.energies.isi_distribution
    counts = hop.photons_per_bit * values
    gamma_s = hop.photons_per_bit * hop.energies.e_signal
    noise = hop.noise
    total = 0.0
    for h, w in zip(*_fading_nodes(hop, method, 30)):
        m0 = noise.n_bd + h * counts
        m1 = m0 + h * gamma_s
        if method == "awgn_ghqf":
            sigma = 2.0 * math.sqrt(noise.sigma_th_sq + noise.n_bd)
            conditional = 0.5 * (norm.sf(h * (gamma_s + 2.0 * counts) / sigma)
                                 + norm.sf(h * (gamma_s - 2.0 * counts) / sigma))
        elif method == "gaussian":
            conditional = norm.sf(
                (m1 - m0) / (np.sqrt(m1 + noise.sigma_th_sq) + np.sqrt(m0 + noise.sigma_th_sq))
            )
        else:
            conditional = u.saddle_point_ber(m0, m1, noise.sigma_th_sq).ber
        total += w * float(conditional @ weights)
    return total


GRID_RTOL = {"awgn_ghqf": 2e-12, "gaussian": 1e-14, "saddle_point": 1e-14}
"""How far the grid-interpolated hop average may sit from direct evaluation.
awgn_ghqf's terms fall and rise fastest in the ISI count, so its bound is
the loosest; with a 5-point grid every method breaks its bound."""


def grid_error(hop: u.HopBerInputs, method: str) -> float:
    return abs(u.hop_average_ber(hop, method) / direct_hop_average(hop, method) - 1.0)


def quiet_receiver_hop(power_dbm: float, memory: int) -> u.HopBerInputs:
    """A 10 kOhm load: thermal noise 100 times lower than the default, so that
    the ISI counts move the gaussian and saddle-point BERs as well."""
    hop = synthetic_hop(power_dbm, e_isi=channel_like_taps(memory))
    return dataclasses.replace(hop, noise=u.NoiseModel.typical(1e-9, load_resistance=1e4))


@pytest.mark.parametrize("method,memory,power_dbm,load", [
    (method, memory, power_dbm, load)
    for method in u.BER_METHODS
    for load, memories, powers in (("default", (0, 10, 16, 20), (18.0, 28.0)),
                                   ("quiet", (10, 20), (10.0, 18.0)))
    for memory in memories
    for power_dbm in powers
    # Per-value saddle solves of all 65536 values at L = 16 take seconds.
    if not (method == "saddle_point" and memory == 16)
])
def test_hop_average_grid_matches_direct_evaluation(method, memory, power_dbm, load):
    # Every method interpolates its conditional BER from a 65-point grid of
    # ISI counts; the average must match evaluating it at every ISI value.
    hop = (synthetic_hop(power_dbm, e_isi=channel_like_taps(memory)) if load == "default"
           else quiet_receiver_hop(power_dbm, memory))
    assert grid_error(hop, method) <= GRID_RTOL[method]


@pytest.mark.parametrize("method", ["awgn_ghqf", "gaussian"])
@pytest.mark.parametrize("power_dbm", [24.0, 33.0])
def test_hop_average_grid_matches_direct_evaluation_on_a_traced_hop(fine_irs, method, power_dbm):
    # A 10 Gbps hop with a memory in the hundreds, averaged over the
    # convolved ISI distribution.
    energies = u.bit_frame_energies(fine_irs[22.5], bit_duration=1e-10)
    assert energies.memory > 100
    hop = u.HopBerInputs(
        energies=energies,
        fading=u.FadingModel(sigma_x_sq=SIGMA_X_SQ[22.5]),
        noise=u.NoiseModel.typical(1e-10),
        photons_per_bit=u.photons_per_bit(10 ** ((power_dbm - 30.0) / 10.0), 1e-10),
    )
    assert grid_error(hop, method) <= GRID_RTOL[method]


@pytest.mark.parametrize("method", u.BER_METHODS)
def test_a_coarse_conditional_grid_breaks_the_direct_evaluation_bound(monkeypatch, method):
    # The check above is sharp enough to see a grid of 5 points.
    monkeypatch.setattr(ber_module, "_CONDITIONAL_GRID_POINTS", 5)
    assert grid_error(quiet_receiver_hop(18.0, 10), method) > GRID_RTOL[method]


@pytest.mark.parametrize("method", u.BER_METHODS)
def test_hop_average_memory_is_bounded_at_the_enumeration_cap(method):
    # 65536 ISI values at 30 fading nodes. The distribution is built (and
    # cached on the energies) first, so the peak is the average's alone.
    hop = synthetic_hop(18.0, e_isi=channel_like_taps(u.ISI_ENUMERATION_CAP))
    assert hop.energies.isi_distribution[0].size == 65536
    tracemalloc.start()
    try:
        u.hop_average_ber(hop, method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6, f"{method}: peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("method", u.BER_METHODS)
@pytest.mark.parametrize("power_dbm", [18.0, 28.0])
def test_hop_average_does_not_depend_on_the_block_size(monkeypatch, method, power_dbm):
    # 1024 ISI values: one block, two, 147, or one value at a time.
    hop = synthetic_hop(power_dbm, e_isi=channel_like_taps(10))
    results = []
    for block in (1, 7, 512, 1 << 20):
        monkeypatch.setattr(ber_module, "_ISI_BLOCK", block)
        results.append(u.hop_average_ber(hop, method))
    assert results == pytest.approx([results[2]] * 4, rel=1e-15, abs=0.0)


def test_hop_average_validation():
    hop = synthetic_hop(18.0)
    with pytest.raises(ValueError, match="method"):
        u.hop_average_ber(hop, "midpoint")


@pytest.mark.parametrize("order", [True, 2.5, 0, 65, "thirty"])
def test_hop_average_rejects_a_bad_ghq_order(order):
    hop = synthetic_hop(18.0)
    no_signal = u.HopBerInputs(energies=hop.energies, fading=hop.fading, noise=hop.noise,
                               photons_per_bit=0.0)
    for inputs in (hop, no_signal):
        with pytest.raises(ValueError, match="order"):
            u.hop_average_ber(inputs, "awgn_ghqf", ghq_order=order)
    assert u.hop_average_ber(no_signal, "awgn_ghqf") == 0.5
