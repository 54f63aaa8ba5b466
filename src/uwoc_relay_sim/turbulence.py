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
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import ConvergenceError, check_bound, is_finite

logger = logging.getLogger(__name__)

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

GHQ_MAX_ORDER = 64
"""Highest Gauss-Hermite order `ghq_rule` accepts."""

SCINT_REL_TOL = 1e-6
"""Largest estimated relative error the scintillation-index integral accepts."""

_GAUSS_LEGENDRE = tuple(np.polynomial.legendre.leggauss(n) for n in (12, 24))
_PANELS_PER_DECADE = 16
_TAIL_HALF_PERIODS = 40
_EULER_LEVELS = 10


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
        check_bound("chi_t", self.chi_t, ">=", 0)
        check_bound("epsilon_diss", self.epsilon_diss, ">", 0)
        if not (is_finite(self.w_ratio) and self.w_ratio < 0.0):
            raise ValueError(f"w_ratio must be negative, got {self.w_ratio}")
        check_bound("wavelength", self.wavelength, ">", 0)
        check_bound("distance", self.distance, ">", 0)


@dataclass(frozen=True)
class FadingModel:
    """Unit-mean log-normal fading for one hop.

    The fading coefficient is h = exp(2X) with X ~ Normal(mu_x, sigma_x_sq)
    and mu_x = -sigma_x_sq, which pins E[h] = 1 so fading redistributes
    energy without creating or destroying it.
    """

    sigma_x_sq: float

    def __post_init__(self) -> None:
        check_bound("sigma_x_sq", self.sigma_x_sq, ">=", 0)

    @property
    def mu_x(self) -> float:
        """Log-amplitude mean -sigma_x_sq, which makes E[h] = 1."""
        return -self.sigma_x_sq


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


def _one_minus_sinc(c):
    """1 - sin(c) / c for c >= 0, by its Taylor series below c = 1, where the
    difference cancels."""
    small = np.minimum(c, 1.0)
    c2 = small * small
    term = c2 / 6.0
    series = term.copy()
    for n in range(2, 10):
        term *= -c2 / (2.0 * n * (2.0 * n + 1.0))
        series += term
    return np.where(c < 1.0, series, 1.0 - np.sin(c) / np.maximum(c, 1.0))


def _gauss_legendre_panels(edges, integrand):
    """Integrals of `integrand` over the panels between consecutive `edges`.

    Each panel is integrated by the 24-point Gauss-Legendre rule. Returns
    the panel integrals, the summed differences from the 12-point rule (an
    error estimate of the panels), the summed magnitudes of the weighted
    node values (the scale of their rounding error) and the node count.
    """
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    (x_lo, w_lo), (x_hi, w_hi) = _GAUSS_LEGENDRE
    terms = half * w_hi * integrand(mid + half * x_hi)
    panels = terms.sum(axis=1)
    coarse = (half * w_lo * integrand(mid + half * x_lo)).sum(axis=1)
    nodes = half.size * (x_lo.size + x_hi.size)
    return panels, float(np.abs(panels - coarse).sum()), float(np.abs(terms).sum()), nodes


def scintillation_index_plane_wave(p: TurbulenceParams) -> float:
    """Plane-wave scintillation index over a horizontal oceanic path.

    Evaluates the weak-fluctuation double integral

        S.I. = 8 pi^2 k^2 d * int_0^1 int_0^inf kappa Phi_n(kappa)
               * [1 - cos(d kappa^2 xi / k)] dkappa dxi

    with the xi integral reduced analytically to 1 - sin(c)/c,
    c = d kappa^2 / k. The kappa axis is split at kappa_osc, where c = 50
    and the kernel starts oscillating. Below it the integrand is smooth in
    log kappa and is summed over fixed Gauss-Legendre panels, 16 to a
    decade, from eight decades below kappa_osc. Above it the 1 term and
    the sin(c)/c term are integrated apart: the first over the same log
    panels up to 200 / eta, where the spectrum has vanished; the second,
    under u = kappa^2, over panels half a period of sin(d u / k) long.
    Those panel integrals alternate in sign with a slowly shrinking
    magnitude, so their partial sums are summed to infinity by Euler's
    transform (repeated averaging of the last partial sums).

    The error estimate adds the differences from a 12-point rule on every
    panel, the change of the Euler sum over its last panel, and a rounding
    floor of 50 machine epsilons of the summed magnitudes. Above
    `SCINT_REL_TOL` relative it raises `ConvergenceError`; at DEBUG level
    it is logged with the node count.

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
    kappa_max = 200.0 / KOLMOGOROV_MICROSCALE
    kappa_osc = min(math.sqrt(50.0 / alpha), kappa_max)

    def spectrum(kappa):
        return _nikishov_spectrum(kappa, p.chi_t, p.epsilon_diss, p.w_ratio)

    def log_kappa_panels(lo, hi, kernel):
        edges = np.linspace(
            math.log(lo), math.log(hi), math.ceil(_PANELS_PER_DECADE * math.log10(hi / lo)) + 1
        )

        def integrand(t):
            kappa = np.exp(t)
            return kappa * kappa * spectrum(kappa) * kernel(alpha * kappa * kappa)

        panels, err, magnitude, nodes = _gauss_legendre_panels(edges, integrand)
        return float(panels.sum()), err, magnitude, nodes

    parts = [log_kappa_panels(kappa_osc * 1e-8, kappa_osc, _one_minus_sinc)]
    if kappa_osc < kappa_max:
        parts.append(log_kappa_panels(kappa_osc, kappa_max, np.ones_like))
        u_osc = kappa_osc * kappa_osc
        period = math.pi / alpha
        zeros = (math.ceil(u_osc / period) + np.arange(_TAIL_HALF_PERIODS + 1)) * period
        panels, err, magnitude, nodes = _gauss_legendre_panels(
            np.concatenate([[u_osc], zeros]),
            lambda u: spectrum(np.sqrt(u)) * np.sin(alpha * u) / (2.0 * alpha * u),
        )
        sums = np.cumsum(panels)[-(_EULER_LEVELS + 2):]
        for _ in range(_EULER_LEVELS):
            sums = 0.5 * (sums[1:] + sums[:-1])
        parts.append((-float(sums[1]), err + abs(float(sums[1] - sums[0])), magnitude, nodes))
    value, err, magnitude, nodes = (sum(column) for column in zip(*parts))

    err += 50.0 * math.ulp(1.0) * magnitude
    scale = 8.0 * math.pi ** 2 * k * k * p.distance
    si = scale * value
    rel_err = err / abs(value) if value else math.inf
    logger.debug(
        "scintillation index %.6g at d=%g m: %d nodes, estimated relative error %.3g",
        si, p.distance, nodes, rel_err,
    )
    if not (math.isfinite(si) and rel_err <= SCINT_REL_TOL):
        raise ConvergenceError(
            f"scintillation index integral did not converge to rel_tol={SCINT_REL_TOL} "
            f"(value={si!r}, error estimate={scale * err!r})"
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
    check_bound("scintillation index", si, ">=", 0)
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
    if order < 1 or order > GHQ_MAX_ORDER:
        raise ValueError(f"order must be in 1..{GHQ_MAX_ORDER}, got {order}")
    return _hermgauss(int(order))


@functools.cache
def _hermgauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = hermgauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights
