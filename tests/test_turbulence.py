"""Turbulence model tests.

The scintillation-index integral is checked against SciPy's adaptive
quadrature (QUADPACK, with the QAWO sine-weighted rule on the oscillatory
tail) to 1e-12 and against an independent dense log-grid trapezoid
oracle (same spectrum, different numerics); the log-normal fading
machinery against closed-form moments.
"""

from __future__ import annotations

import itertools
import logging
import math
import re

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.integrate import quad

import uwoc_relay_sim as u
from uwoc_relay_sim import turbulence
from uwoc_relay_sim.turbulence import KOLMOGOROV_MICROSCALE, _nikishov_spectrum

from conftest import SIGMA_X_SQ, TURB

WAVELENGTH = 532e-9


def table_params(distance: float) -> u.TurbulenceParams:
    return u.TurbulenceParams(wavelength=WAVELENGTH, distance=distance, **TURB)


# ---------------------------------------------------------------------------
# Scintillation index
# ---------------------------------------------------------------------------


def dense_si_oracle(p: u.TurbulenceParams, n: int = 4_000_000) -> float:
    """Brute-force scintillation index: uniform trapezoid in log(kappa).

    Independent of the adaptive split-interval scheme in the package; the
    grid is fine enough (~100 points per oscillation of sin(alpha kappa^2)
    where the spectrum still has mass) that the trapezoid error sits well
    below the comparison tolerance.
    """
    a_t, a_s, a_ts = 1.863e-2, 1.9e-4, 9.41e-3
    eta = KOLMOGOROV_MICROSCALE
    k = 2.0 * math.pi / p.wavelength
    alpha = p.distance / k

    kappa = np.exp(np.linspace(math.log(1e-3), math.log(200.0 / eta), n))
    ke = kappa * eta
    delta = 8.284 * ke ** (4.0 / 3.0) + 12.978 * ke**2
    ts = (p.chi_t / p.w_ratio**2) * (
        p.w_ratio**2 * np.exp(-a_t * delta)
        + np.exp(-a_s * delta)
        - 2.0 * p.w_ratio * np.exp(-a_ts * delta)
    )
    phi = 0.388e-8 * p.epsilon_diss ** (-1.0 / 3.0) * kappa ** (-11.0 / 3.0) * (
        1.0 + 2.35 * ke ** (2.0 / 3.0)
    ) * ts
    c = alpha * kappa**2
    small = c < 1e-4
    xi_factor = np.where(small, c**2 / 6.0 - c**4 / 120.0, 1.0 - np.sin(c) / np.maximum(c, 1e-300))
    f = kappa * phi * xi_factor * kappa  # extra kappa: d(kappa) = kappa d(log kappa)
    h = math.log(200.0 / eta / 1e-3) / (n - 1)
    integral = (0.5 * (f[0] + f[-1]) + f[1:-1].sum()) * h
    return 8.0 * math.pi**2 * k * k * p.distance * integral


def quad_si_oracle(p: u.TurbulenceParams) -> float:
    """Scintillation index by five adaptive QUADPACK integrals.

    The kappa axis is split at kappa_osc, where the kernel starts
    oscillating: four panels of the smooth kernel below it, and above it
    the 1 term by `quad` and the sin(c)/c term by QAWO's sine-weighted
    rule under u = kappa^2, each to 5e-13 relative. No node, panel or tail
    rule is shared with the package's fixed-panel integral.
    """
    k = 2.0 * math.pi / p.wavelength
    alpha = p.distance / k
    eta = KOLMOGOROV_MICROSCALE
    kappa_max = 200.0 / eta
    kappa_osc = min(math.sqrt(50.0 / alpha), kappa_max)
    epsrel = 5e-13

    def smooth_kernel(kappa):
        c = alpha * kappa * kappa
        if c < 1e-4:
            xi_factor = c * c / 6.0 - c ** 4 / 120.0
        else:
            xi_factor = 1.0 - math.sin(c) / c
        return kappa * _nikishov_spectrum(kappa, p.chi_t, p.epsilon_diss, p.w_ratio) * xi_factor

    value = 0.0
    prev = 0.0
    for edge in (kappa_osc * 1e-6, kappa_osc * 1e-3, kappa_osc * 0.1, kappa_osc):
        v, e = quad(smooth_kernel, prev, edge, epsabs=0.0, epsrel=epsrel, limit=300)
        value += v
        prev = edge

    if kappa_osc < kappa_max:
        v, e = quad(
            lambda kp: kp * _nikishov_spectrum(kp, p.chi_t, p.epsilon_diss, p.w_ratio),
            kappa_osc,
            kappa_max,
            epsabs=0.0,
            epsrel=epsrel,
            limit=300,
        )
        value += v

        def oscillatory(u):
            return _nikishov_spectrum(math.sqrt(u), p.chi_t, p.epsilon_diss, p.w_ratio) / (
                2.0 * alpha * u
            )

        v, e = quad(
            oscillatory,
            kappa_osc ** 2,
            kappa_max ** 2,
            weight="sin",
            wvar=alpha,
            epsabs=1e-300,
            epsrel=epsrel,
            limit=600,
        )
        value -= v

    return 8.0 * math.pi ** 2 * k * k * p.distance * value


# 24 paths: every distance with every wavelength, the other three inputs
# cycled through their ranges (the S.I. is linear in chi_t and in
# epsilon^(-1/3), so those two only scale it).
QUAD_CASES = [
    (d, lam, chi_t, eps, w)
    for (d, lam), chi_t, eps, w in zip(
        itertools.product((0.5, 3.0, 9.0, 22.5, 45.0, 60.0, 105.0, 200.0), (450e-9, 532e-9, 650e-9)),
        itertools.cycle((1e-9, 2e-7, 1e-5)),
        itertools.cycle((1e-8, 1.5e-5, 1e-4, 1e-2)),
        itertools.cycle((-0.5, -1.0, -2.5, -3.5, -5.0)),
    )
]


@pytest.mark.filterwarnings("ignore:scintillation index")
@pytest.mark.parametrize("distance,wavelength,chi_t,epsilon_diss,w_ratio", QUAD_CASES)
def test_si_matches_quad_oracle(distance, wavelength, chi_t, epsilon_diss, w_ratio):
    p = u.TurbulenceParams(chi_t=chi_t, epsilon_diss=epsilon_diss, w_ratio=w_ratio,
                           wavelength=wavelength, distance=distance)
    assert u.scintillation_index_plane_wave(p) == pytest.approx(quad_si_oracle(p), rel=1e-12)


@pytest.mark.filterwarnings("ignore:scintillation index")
def test_si_panels_are_converged(monkeypatch):
    # Twice the panels, twice the tail and four more Euler levels move the
    # integral by rounding only; the QUADPACK oracle is up to 7e-14 off,
    # from the cancellation in its 1 - sin(c)/c just above c = 1e-4.
    cases = [u.TurbulenceParams(chi_t=2e-7, epsilon_diss=1.5e-5, w_ratio=w, wavelength=lam,
                                distance=d)
             for d, lam, w in itertools.product((0.5, 22.5, 200.0), (450e-9, 650e-9), (-0.5, -5.0))]
    default = [u.scintillation_index_plane_wave(p) for p in cases]
    monkeypatch.setattr(turbulence, "_PANELS_PER_DECADE", 2 * turbulence._PANELS_PER_DECADE)
    monkeypatch.setattr(turbulence, "_TAIL_HALF_PERIODS", 2 * turbulence._TAIL_HALF_PERIODS)
    monkeypatch.setattr(turbulence, "_EULER_LEVELS", turbulence._EULER_LEVELS + 4)
    finer = [u.scintillation_index_plane_wave(p) for p in cases]
    assert default == pytest.approx(finer, rel=2e-15)


def test_si_logs_its_error_estimate_and_node_count(caplog):
    p = table_params(22.5)
    quiet = u.scintillation_index_plane_wave(p)
    with caplog.at_level(logging.DEBUG, logger="uwoc_relay_sim.turbulence"):
        assert u.scintillation_index_plane_wave(p) == quiet
    match = re.search(r"(\d+) nodes, estimated relative error (\S+)", caplog.text)
    assert match, caplog.text
    # The estimate reads at least its rounding floor and far below the tolerance.
    assert int(match[1]) > 0
    assert 1e-15 < float(match[2]) < 1e-12


@pytest.mark.parametrize("distance", [9.0, 22.5])
def test_si_matches_dense_oracle(distance):
    p = table_params(distance)
    adaptive = u.scintillation_index_plane_wave(p)
    dense = dense_si_oracle(p)
    assert adaptive == pytest.approx(dense, rel=1e-5)


def test_si_frozen_values_and_monotone_in_distance():
    computed = {}
    for d, expected in SIGMA_X_SQ.items():
        si = u.scintillation_index_plane_wave(table_params(d))
        computed[d] = u.sigma_x_sq_from_si(si)
        assert computed[d] == pytest.approx(expected, rel=1e-5, abs=5e-9)
    ds = sorted(computed)
    assert all(computed[a] < computed[b] for a, b in zip(ds, ds[1:]))


def test_si_zero_when_no_temperature_fluctuations():
    p = u.TurbulenceParams(
        chi_t=0.0, epsilon_diss=1e-2, w_ratio=-2.5, wavelength=WAVELENGTH, distance=22.5
    )
    assert u.scintillation_index_plane_wave(p) == 0.0


def test_si_tolerance_is_read_at_call_time(monkeypatch):
    # No quadrature meets a relative tolerance of 1e-30, so the integral
    # must report that it did not converge.
    monkeypatch.setattr(turbulence, "SCINT_REL_TOL", 1e-30)
    with pytest.raises(u.ConvergenceError, match="rel_tol=1e-30"):
        u.scintillation_index_plane_wave(table_params(22.5))


def test_si_scales_with_chi_t():
    # The spectrum is linear in chi_t, so the whole integral is too.
    base = u.scintillation_index_plane_wave(table_params(22.5))
    doubled = u.scintillation_index_plane_wave(
        u.TurbulenceParams(
            chi_t=2 * TURB["chi_t"],
            epsilon_diss=TURB["epsilon_diss"],
            w_ratio=TURB["w_ratio"],
            wavelength=WAVELENGTH,
            distance=22.5,
        )
    )
    assert doubled == pytest.approx(2.0 * base, rel=1e-9)


def test_si_above_one_warns():
    with pytest.warns(UserWarning, match="exceeds 1.0"):
        u.scintillation_index_plane_wave(table_params(60.0))


def test_turbulence_params_validation():
    with pytest.raises(ValueError, match="chi_t"):
        u.TurbulenceParams(chi_t=-1e-7, epsilon_diss=1e-2, w_ratio=-2.5,
                           wavelength=WAVELENGTH, distance=10.0)
    with pytest.raises(ValueError, match="epsilon_diss"):
        u.TurbulenceParams(chi_t=1e-7, epsilon_diss=0.0, w_ratio=-2.5,
                           wavelength=WAVELENGTH, distance=10.0)
    with pytest.raises(ValueError, match="w_ratio"):
        u.TurbulenceParams(chi_t=1e-7, epsilon_diss=1e-2, w_ratio=0.5,
                           wavelength=WAVELENGTH, distance=10.0)
    with pytest.raises(ValueError, match="wavelength"):
        u.TurbulenceParams(chi_t=1e-7, epsilon_diss=1e-2, w_ratio=-2.5,
                           wavelength=0.0, distance=10.0)
    with pytest.raises(ValueError, match="distance"):
        u.TurbulenceParams(chi_t=1e-7, epsilon_diss=1e-2, w_ratio=-2.5,
                           wavelength=WAVELENGTH, distance=-1.0)


# ---------------------------------------------------------------------------
# sigma_x_sq <-> scintillation index
# ---------------------------------------------------------------------------


def test_sigma_x_sq_from_si_inverts_model_si():
    for s2 in (0.0, 0.01, 0.1, 0.25):
        assert u.sigma_x_sq_from_si(math.expm1(4.0 * s2)) == pytest.approx(s2, abs=1e-15)
    assert u.sigma_x_sq_from_si(0.0) == 0.0
    with pytest.raises(ValueError):
        u.sigma_x_sq_from_si(-0.1)
    with pytest.raises(ValueError):
        u.sigma_x_sq_from_si(float("nan"))


def test_fading_model_unit_mean_parameterization():
    f = u.FadingModel(sigma_x_sq=0.1)
    assert f.mu_x == -0.1
    with pytest.raises(ValueError):
        u.FadingModel(sigma_x_sq=-0.01)


# ---------------------------------------------------------------------------
# Fading pdf and samples
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("s2", [0.05, 0.1, 0.3])
def test_fading_pdf_moments_by_quadrature(s2):
    f = u.FadingModel(sigma_x_sq=s2)
    for k, expected in ((0, 1.0), (1, 1.0), (2, math.exp(4.0 * s2))):
        val, _ = quad(lambda h: h**k * u.fading_pdf(h, f), 0.0, np.inf, limit=200)
        assert val == pytest.approx(expected, rel=1e-6)


def test_fading_pdf_rejects_degenerate_and_nonpositive():
    with pytest.raises(ValueError, match="point mass"):
        u.fading_pdf(1.0, u.FadingModel(sigma_x_sq=0.0))
    with pytest.raises(ValueError, match="h > 0"):
        u.fading_pdf([0.5, 0.0], u.FadingModel(sigma_x_sq=0.1))


def test_sample_fading_statistics():
    f = u.FadingModel(sigma_x_sq=0.1)
    rng = np.random.default_rng(2024)
    h = u.sample_fading(f, rng, size=1_000_000)
    mean = h.mean()
    si = h.var() / mean**2
    assert abs(mean - 1.0) < 0.01
    assert abs(si - math.expm1(0.4)) < 0.05 * math.expm1(0.4)


def test_sample_fading_degenerate_and_scalar():
    f0 = u.FadingModel(sigma_x_sq=0.0)
    rng = np.random.default_rng(1)
    assert np.all(u.sample_fading(f0, rng, size=17) == 1.0)


def test_sample_fading_matches_pdf_histogram():
    # Coarse shape agreement between empirical quantiles and the pdf's CDF.
    f = u.FadingModel(sigma_x_sq=0.1)
    rng = np.random.default_rng(7)
    h = u.sample_fading(f, rng, size=200_000)
    for q in (0.1, 0.5, 0.9):
        hq = np.quantile(h, q)
        cdf, _ = quad(lambda x: u.fading_pdf(x, f), 0.0, hq, limit=200)
        assert cdf == pytest.approx(q, abs=5e-3)


# ---------------------------------------------------------------------------
# Gauss-Hermite rules
# ---------------------------------------------------------------------------


def test_ghq_rule_basics():
    nodes, weights = u.ghq_rule(30)
    assert nodes.shape == weights.shape == (30,)
    assert weights.sum() == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert np.allclose(nodes, -nodes[::-1], atol=1e-12)
    assert np.all(weights > 0.0)


@pytest.mark.parametrize("order", [1, 30, 64])
def test_ghq_rule_is_hermgauss_computed_once(order):
    nodes, weights = u.ghq_rule(order)
    expected_nodes, expected_weights = hermgauss(order)
    assert nodes.tobytes() == expected_nodes.tobytes()
    assert weights.tobytes() == expected_weights.tobytes()
    again = u.ghq_rule(order)
    assert again[0] is nodes and again[1] is weights
    assert not nodes.flags.writeable and not weights.flags.writeable


def test_ghq_polynomial_exactness():
    # An order-V rule integrates exp(-x^2) x^(2k) exactly for 2k <= 2V-1.
    nodes, weights = u.ghq_rule(5)
    for k in range(5):
        exact = math.gamma(k + 0.5)  # = sqrt(pi) (2k-1)!! / 2^k
        approx = float(weights @ nodes ** (2 * k))
        assert approx == pytest.approx(exact, rel=1e-12)
        odd = float(weights @ nodes ** (2 * k + 1))
        assert abs(odd) < 1e-12


def test_ghq_lognormal_mean_identity():
    # E[h] under the unit-mean log-normal is 1; the transformed integrand
    # exp(2 sqrt(2 s2) x + 2 mu) is entire, so a 30-node rule is at
    # machine accuracy for every strength used in the package.
    nodes, weights = u.ghq_rule(30)
    for s2 in (0.01, 0.05, 0.25):
        f = u.FadingModel(sigma_x_sq=s2)
        h = np.exp(2.0 * math.sqrt(2.0 * s2) * nodes + 2.0 * f.mu_x)
        mean = float(weights @ h) / math.sqrt(math.pi)
        assert mean == pytest.approx(1.0, rel=1e-12)


def test_ghq_rule_validation():
    with pytest.raises(ValueError):
        u.ghq_rule(0)
    with pytest.raises(ValueError):
        u.ghq_rule(65)
    with pytest.raises(ValueError):
        u.ghq_rule(2.5)
    u.ghq_rule(1)  # a cached order 1 must not let True through
    with pytest.raises(ValueError, match="integer"):
        u.ghq_rule(True)
