"""Weak-turbulence fading model for underwater optical links.

Scintillation index of a plane wave propagating through oceanic
turbulence, the matching unit-mean log-normal fading distribution, and
the Gauss-Hermite quadrature rules used to average receiver metrics over
that distribution.

The spatial power spectrum of refractive-index fluctuations is the
oceanic temperature/salinity spectrum of Nikishov and Nikishov, with the
standard constants from that literature.

References
----------
V. V. Nikishov and V. I. Nikishov, "Spectrum of turbulent fluctuations
of the sea-water refraction index," Int. J. Fluid Mech. Res. 27 (2000).
L. C. Andrews and R. L. Phillips, "Laser Beam Propagation through Random
Media," SPIE Press, 2005 (plane-wave weak-fluctuation theory).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.integrate import quad

from .errors import ConvergenceError

__all__ = [
    "TurbulenceParams",
    "FadingModel",
    "scintillation_index_plane_wave",
    "sigma_x_sq_from_si",
    "fading_pdf",
    "sample_fading",
    "ghq_rule",
]

KOLMOGOROV_MICROSCALE = 1e-3
"""Kolmogorov inner scale eta of oceanic turbulence (m)."""

# Nikishov spectrum constants.
_A_T = 1.863e-2
_A_S = 1.9e-4
_A_TS = 9.41e-3

_GHQ_MAX_ORDER = 64

SCINT_REL_TOL = 1e-6
"""Target relative tolerance of the scintillation-index integration."""


@dataclass(frozen=True)
class TurbulenceParams:
    """Oceanic turbulence strength parameters for one propagation path.

    Parameters
    ----------
    chi_t : float
        Dissipation rate of mean-square temperature (K^2/s).
    epsilon_diss : float
        Dissipation rate of turbulent kinetic energy (m^2/s^3).
    w_ratio : float
        Relative strength of temperature vs. salinity fluctuations;
        physical range is negative, typically in [-5, 0).
    wavelength : float
        Optical wavelength in water-facing vacuum units (m).
    distance : float
        Propagation distance (m).
    """

    chi_t: float
    epsilon_diss: float
    w_ratio: float
    wavelength: float
    distance: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.chi_t) and self.chi_t >= 0.0):
            raise ValueError(f"chi_t must be >= 0, got {self.chi_t}")
        if not (math.isfinite(self.epsilon_diss) and self.epsilon_diss > 0.0):
            raise ValueError(f"epsilon_diss must be > 0, got {self.epsilon_diss}")
        if not (math.isfinite(self.w_ratio) and self.w_ratio < 0.0):
            raise ValueError(f"w_ratio must be negative, got {self.w_ratio}")
        if not (math.isfinite(self.wavelength) and self.wavelength > 0.0):
            raise ValueError(f"wavelength must be > 0, got {self.wavelength}")
        if not (math.isfinite(self.distance) and self.distance > 0.0):
            raise ValueError(f"distance must be > 0, got {self.distance}")


@dataclass(frozen=True)
class FadingModel:
    """Unit-mean log-normal fading for one hop.

    The fading coefficient is h = exp(2X) with X ~ Normal(mu_x, sigma_x_sq)
    and mu_x = -sigma_x_sq, which pins E[h] = 1 so fading redistributes
    energy without creating or destroying it.
    """

    sigma_x_sq: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma_x_sq) and self.sigma_x_sq >= 0.0):
            raise ValueError(f"sigma_x_sq must be >= 0, got {self.sigma_x_sq}")

    @property
    def mu_x(self) -> float:
        """Log-amplitude mean -sigma_x_sq, which makes E[h] = 1."""
        return -self.sigma_x_sq

    @property
    def scintillation_index(self) -> float:
        """S.I. implied by the log-amplitude variance: exp(4 sigma_x_sq) - 1."""
        return math.expm1(4.0 * self.sigma_x_sq)


def _nikishov_spectrum(kappa, chi_t, epsilon_diss, w_ratio, eta=KOLMOGOROV_MICROSCALE):
    """Oceanic refractive-index spectrum Phi_n(kappa) (vectorized in kappa)."""
    ke = kappa * eta
    delta = 8.284 * ke ** (4.0 / 3.0) + 12.978 * ke ** 2
    ts = (chi_t / w_ratio ** 2) * (
        w_ratio ** 2 * np.exp(-_A_T * delta)
        + np.exp(-_A_S * delta)
        - 2.0 * w_ratio * np.exp(-_A_TS * delta)
    )
    return (
        0.388e-8
        * epsilon_diss ** (-1.0 / 3.0)
        * kappa ** (-11.0 / 3.0)
        * (1.0 + 2.35 * ke ** (2.0 / 3.0))
        * ts
    )


def scintillation_index_plane_wave(p: TurbulenceParams) -> float:
    """Plane-wave scintillation index over a horizontal oceanic path.

    Evaluates the weak-fluctuation double integral

        S.I. = 8 pi^2 k^2 d * int_0^1 int_0^inf kappa Phi_n(kappa)
               * [1 - cos(d kappa^2 xi / k)] dkappa dxi

    with the xi integral reduced analytically to 1 - sin(c)/c,
    c = d kappa^2 / k. The kappa axis is split at the scale where the
    kernel starts oscillating; the oscillatory tail is integrated with a
    sine-weighted rule under the substitution u = kappa^2, which makes
    the phase linear in the integration variable. The adaptive
    integration targets a relative tolerance of `SCINT_REL_TOL`.

    Parameters
    ----------
    p : TurbulenceParams

    Returns
    -------
    float
        Scintillation index, >= 0. A value above 1.0 is outside the weak
        regime the log-normal model assumes and triggers a warning.
    """
    if p.chi_t == 0.0:
        return 0.0

    k = 2.0 * math.pi / p.wavelength
    alpha = p.distance / k
    eta = KOLMOGOROV_MICROSCALE
    kappa_max = 200.0 / eta
    kappa_osc = min(math.sqrt(50.0 / alpha), kappa_max)
    # Headroom so piecewise sums still meet SCINT_REL_TOL; floor keeps quad clear
    # of pure-roundoff territory.
    epsrel = max(SCINT_REL_TOL * 1e-3, 5e-13)

    def smooth_kernel(kappa):
        c = alpha * kappa * kappa
        if c < 1e-4:
            xi_factor = c * c / 6.0 - c ** 4 / 120.0
        else:
            xi_factor = 1.0 - math.sin(c) / c
        return kappa * _nikishov_spectrum(kappa, p.chi_t, p.epsilon_diss, p.w_ratio) * xi_factor

    value = 0.0
    err_budget = 0.0
    prev = 0.0
    for edge in (kappa_osc * 1e-6, kappa_osc * 1e-3, kappa_osc * 0.1, kappa_osc):
        v, e = quad(smooth_kernel, prev, edge, epsabs=0.0, epsrel=epsrel, limit=300)
        value += v
        err_budget += e
        prev = edge

    if kappa_osc < kappa_max:
        # Beyond kappa_osc the 1 term and the sin(c)/c term are integrated
        # separately: the first is smooth, the second oscillatory.
        v, e = quad(
            lambda kp: kp * _nikishov_spectrum(kp, p.chi_t, p.epsilon_diss, p.w_ratio),
            kappa_osc,
            kappa_max,
            epsabs=0.0,
            epsrel=epsrel,
            limit=300,
        )
        value += v
        err_budget += e

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
        err_budget += e

    scale = 8.0 * math.pi ** 2 * k * k * p.distance
    si = scale * value
    if not math.isfinite(si) or scale * err_budget > max(SCINT_REL_TOL * abs(si), 1e-300):
        raise ConvergenceError(
            f"scintillation index integral did not converge to rel_tol={SCINT_REL_TOL} "
            f"(value={si!r}, error estimate={scale * err_budget!r})"
        )
    if si > 1.0:
        warnings.warn(
            f"scintillation index {si:.3g} exceeds 1.0; the log-normal weak-"
            "turbulence model is not justified at this strength",
            stacklevel=2,
        )
    return si


def sigma_x_sq_from_si(si: float) -> float:
    """Log-amplitude variance from the scintillation index.

    Inverts S.I. = exp(4 sigma_x_sq) - 1.
    """
    if not (math.isfinite(si) and si >= 0.0):
        raise ValueError(f"scintillation index must be >= 0, got {si}")
    return math.log1p(si) / 4.0


def fading_pdf(h, f: FadingModel):
    """Log-normal fading density at h (> 0), vectorized over h.

    Valid for sigma_x_sq > 0; the degenerate sigma_x_sq = 0 case is a
    point mass at h = 1 and must be special-cased by callers.
    """
    if f.sigma_x_sq <= 0.0:
        raise ValueError("fading_pdf requires sigma_x_sq > 0; sigma_x_sq = 0 is a point mass at h = 1")
    h = np.asarray(h, dtype=float)
    if np.any(h <= 0.0):
        raise ValueError("fading_pdf requires h > 0")
    s2 = f.sigma_x_sq
    out = (
        1.0
        / (2.0 * h * np.sqrt(2.0 * np.pi * s2))
        * np.exp(-((np.log(h) - 2.0 * f.mu_x) ** 2) / (8.0 * s2))
    )
    return out if out.ndim else float(out)


def sample_fading(f: FadingModel, rng: np.random.Generator, size=None):
    """Draw unit-mean log-normal fading coefficients h = exp(2X).

    With size=None a single float is returned, otherwise an array.
    sigma_x_sq = 0 yields the constant 1.
    """
    if f.sigma_x_sq == 0.0:
        if size is None:
            return 1.0
        return np.ones(size)
    x = rng.normal(f.mu_x, math.sqrt(f.sigma_x_sq), size)
    if size is None:
        return np.exp(2.0 * x)
    x *= 2.0
    return np.exp(x, out=x)


def ghq_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite rule of the given order (1..64): read-only (nodes, weights).

    The integral of exp(-x^2) g(x) dx is approximately sum w_q g(x_q).
    Weights sum to sqrt(pi); nodes are symmetric about zero. Orders above
    64 are rejected: the highest-order weights underflow and add nothing.
    Each order's rule is computed once and shared by every caller.
    """
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        raise ValueError(f"order must be an integer, got {order!r}")
    if order < 1 or order > _GHQ_MAX_ORDER:
        raise ValueError(f"order must be in 1..{_GHQ_MAX_ORDER}, got {order}")
    return _hermgauss(int(order))


@functools.cache
def _hermgauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = hermgauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights
