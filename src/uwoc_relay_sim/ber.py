"""Single-hop BER models for an OOK integrate-and-dump receiver.

Three analyses share one set of inputs (slot energies, fading, noise,
photons per bit), and they model two receivers:

* awgn_ghqf: Gaussian signal-independent noise of variance sigma_Tb^2
  and an ISI-blind threshold, the midpoint h N_ph e_signal / 2 + n_bd of
  the isolated 0/1 count means, as in `run_bit_simulation`;
* saddle_point (`saddle_point_ber`): a saddle-point approximation to the
  exact Poisson-plus-Gaussian decision error;
* gaussian: the Poisson counts replaced by normals of matching mean and
  variance.

saddle_point and gaussian set a threshold for each (fading node, ISI
count) pair: their receiver knows h and the ISI sum of the L previous
bits (at a relay, decision feedback without error propagation).

`hop_average_ber` averages any of the three over the log-normal fading
coefficient and over equiprobable ISI bit patterns of the channel memory.
The fading average is a Gauss-Hermite rule of the caller's order,
re-centred on the integrand's mode for each hop and method. The ISI
average is a weighted sum over the values of the ISI energy: all 2^L
patterns up to ISI_ENUMERATION_CAP, and beyond it the exact distribution
of the sum convolved tap by tap on a fixed grid. Every method follows one
rule over those values: its conditional BER is evaluated on a uniform
65-point grid of ISI counts at each fading node, and its log is
interpolated to the values by cubic Hermite pieces with fourth-order
slopes and averaged in blocks of 512 values, so the cost and memory stay
bounded at any channel memory.

All models work in the photoelectron-count domain: the detector
responsivity is folded into the per-bit count scale N_ph, so one number
carries power, bit duration, quantum efficiency, and photon energy.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .channel import DEFAULT_WAVELENGTH, BitEnergies
from .constants import BOLTZMANN, ELEMENTARY_CHARGE, PLANCK, SPEED_OF_LIGHT
from .errors import ConvergenceError, bound_violation, check_bound
from .turbulence import FadingModel, ghq_rule

logger = logging.getLogger(__name__)

__all__ = [
    "NoiseModel",
    "HopBerInputs",
    "SaddlePointResult",
    "saddle_point_ber",
    "hop_average_ber",
    "photons_per_bit",
    "BER_METHODS",
]

BER_METHODS = ("awgn_ghqf", "saddle_point", "gaussian")

DEFAULT_GHQ_ORDER = 30
"""Gauss-Hermite order of the fading average when the caller gives none."""

_CONDITIONAL_GRID_POINTS = 65
"""ISI counts at which `hop_average_ber` evaluates the conditional BER."""
_ISI_BLOCK = 512
"""ISI values per block of `hop_average_ber`'s average, whose temporaries stay in cache."""
_RESIDUAL_TOL = 1e-10
_STEP_RTOL = 1e-12
"""A Newton step this small (relative) leaves an error at rounding level."""
_MAX_ITERATIONS = 100
_BER_FLOOR = 1e-300

DEFAULT_BACKGROUND_RATE = 1.8094e8
DEFAULT_DARK_CURRENT = 1.226e-9
DEFAULT_RECEIVER_TEMPERATURE = 290.0
DEFAULT_LOAD_RESISTANCE = 100.0
DEFAULT_QUANTUM_EFFICIENCY = 0.8


_ERFCX_K = 3.75
_ERFCX_POLY = (
    2.217479535004814e-10, 1.5551553599195826e-10, -2.64214348981571e-09,
    -1.8717840168172915e-09, 1.9482726274492983e-08, 1.1630956638348283e-08,
    -1.295534843898329e-07, -2.8607986279954937e-08, 8.76028985083159e-07,
    -4.867809507591331e-07, -5.722206219585861e-06, 1.1192120157112218e-05,
    2.5824605695351427e-05, -0.00014507704048976355, 0.00014685681714250406,
    0.0008778129265008629, -0.004873289776252122, 0.014181138709470333,
    -0.029346699295106183, 0.04615216058018938, -0.054401965070858926,
    0.04113836924507258, 0.0017927077427318874, -0.07012029929277348,
    0.6187563154189137,
)
"""Coefficients, highest degree first, of the degree-24 polynomial P with
(x + 1/2) erfcx(x) = P(t), t = (x - K) / (x + K), K = _ERFCX_K, on x >= 0
(Schonfelder's form, Math. Comp. 32, 1978). Fitted by
`mpmath.chebyfit` at 40 digits (fit error 3.2e-18); a test re-fits them."""
_ERFCX_POLY_TAIL = 5.273080124862724e-17
"""The rounding error of P's constant term, added on its own: the term sets
P(-1) = 1/2 at the foot of its binade, where its rounding would be 0.5 ulp."""


def _exp_square(a, sign: float):
    """exp(sign a^2) for a >= 0, with a^2 formed exactly as sq + err.

    Rounding a^2 before `exp` would cost a relative error of about a^2 ulp
    (SciPy's erfc drifts by hundreds of ulp near x = 25 that way), so a is
    split into two 26-bit halves (Dekker, Numer. Math. 18, 1971), whose
    products are exact, and exp(sign sq) is corrected to first order in
    err. Past a = 28 every result is 0 or inf, so larger a are clipped.
    Most intermediates are updated in place; a new array for each step
    made 8320-element calls about a third slower.
    """
    clipped = np.minimum(a, 28.0)
    high = clipped * 134217729.0  # 2^27 + 1
    high -= high - clipped  # the top 26 bits of a
    low = clipped - high
    sq = np.multiply(clipped, clipped, out=clipped)
    err = high * high - sq
    err += (2.0 * high) * low
    err += low * low
    e = np.exp(np.multiply(sq, sign, out=sq), out=sq)
    # corrected = e + e (sign err)
    err *= sign
    err *= e
    err += e
    if sign > 0.0:
        # Once exp(a^2) overflows, e * err is inf * 0 or -inf.
        np.copyto(err, e, where=np.isinf(e))
    return err


@np.errstate(over="ignore", invalid="ignore")
def _erfc(x, scaled: bool = False):
    """erfc(x), or erfcx(x) = exp(x^2) erfc(x) if `scaled`, elementwise.

    For x >= 0, erfcx(x) = P(t) / (x + 1/2) with P from _ERFCX_POLY, and
    erfc(x) = exp(-x^2) erfcx(x) (see `_exp_square`); x < 0 reflects, as
    erfc(x) = 2 - erfc(-x) and erfcx(x) = 2 exp(x^2) - erfcx(-x). Against
    mpmath, erfc is within 4 ulp on [-6, 26.5] where the result is a
    normal float and erfcx within 2 ulp on [-3, 1e4]. erfc(inf) =
    erfcx(inf) = 0, erfc(-inf) = 2, and erfcx is inf, without a warning,
    once exp(x^2) overflows. Works on the whole array at once: the largest
    input, `hop_average_ber`'s awgn_ghqf terms, has at most
    2 x GHQ_MAX_ORDER x 65 = 8320 elements. Returns an array of x's shape
    (a NumPy scalar for a scalar).
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)  # at least 1-d, so that the in-place updates work
    a = np.abs(flat)
    # At a = inf, (a - K) / (a + K) is nan; P(1) / inf is the 0 wanted.
    t = np.minimum(a, 1e300)
    t = (t - _ERFCX_K) / (t + _ERFCX_K)
    r = np.full(t.shape, _ERFCX_POLY[0])
    for c in _ERFCX_POLY[1:-1]:
        r *= t
        r += c
    r = (r * t + _ERFCX_POLY_TAIL + _ERFCX_POLY[-1]) / (a + 0.5)
    neg = flat < 0.0
    if scaled:
        if neg.any():
            e2 = _exp_square(a, 1.0)
            np.subtract(np.multiply(e2, 2.0, out=e2), r, out=r, where=neg)
    else:
        r *= _exp_square(a, -1.0)
        np.subtract(2.0, r, out=r, where=neg)
    return r.reshape(x.shape)[()]


def _q(x):
    """Gaussian tail probability Q(x) = 0.5 erfc(x / sqrt(2))."""
    return 0.5 * _erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


@dataclass(frozen=True)
class NoiseModel:
    """Receiver noise description for one hop.

    Rates are photoelectrons per second; `sigma_th_sq` is the thermal
    noise variance expressed as a photoelectron-count variance over one
    bit, and `n_bd` the mean signal-independent count per bit.
    """

    background_rate: float
    dark_rate: float
    receiver_temperature: float
    load_resistance: float
    bit_duration: float

    def __post_init__(self) -> None:
        bad = [
            f"{name} {problem}"
            for name, op in (("background_rate", ">="), ("dark_rate", ">="),
                             ("receiver_temperature", ">"), ("load_resistance", ">"),
                             ("bit_duration", ">"))
            if (problem := bound_violation(getattr(self, name), ((op, 0),))) is not None
        ]
        if bad:
            raise ValueError("; ".join(bad))

    @property
    def sigma_th_sq(self) -> float:
        """Thermal count variance per bit: 2 k_B T_r T_b / (R_L q^2)."""
        return (
            2.0
            * BOLTZMANN
            * self.receiver_temperature
            * self.bit_duration
            / (self.load_resistance * ELEMENTARY_CHARGE**2)
        )

    @property
    def n_bd(self) -> float:
        """Mean background-plus-dark photoelectron count per bit."""
        return (self.background_rate + self.dark_rate) * self.bit_duration

    @property
    def sigma_tb(self) -> float:
        """Standard deviation of the signal-independent count per bit: sqrt(sigma_th^2 + n_bd)."""
        return math.sqrt(self.sigma_th_sq + self.n_bd)

    @classmethod
    def typical(
        cls,
        bit_duration: float,
        *,
        background_rate: float = DEFAULT_BACKGROUND_RATE,
        dark_current: float = DEFAULT_DARK_CURRENT,
        receiver_temperature: float = DEFAULT_RECEIVER_TEMPERATURE,
        load_resistance: float = DEFAULT_LOAD_RESISTANCE,
    ) -> "NoiseModel":
        """Representative 532 nm underwater receiver front end.

        The dark current (A) is converted to a photoelectron rate by the
        elementary charge.
        """
        return cls(
            background_rate=background_rate,
            dark_rate=dark_current / ELEMENTARY_CHARGE,
            receiver_temperature=receiver_temperature,
            load_resistance=load_resistance,
            bit_duration=bit_duration,
        )


def photons_per_bit(
    power: float,
    bit_duration: float,
    *,
    quantum_efficiency: float = DEFAULT_QUANTUM_EFFICIENCY,
    wavelength: float = DEFAULT_WAVELENGTH,
) -> float:
    """Mean signal photoelectron count N_ph of a fully captured bit.

    N_ph = eta P T_b / (h f) with f = c / wavelength, for a transmit
    power P (W) and bit duration T_b (s). Multiplied by a slot's energy
    fraction it gives that slot's Poisson mean, so responsivity never
    appears elsewhere.
    """
    check_bound("power", power, ">=", 0)
    check_bound("bit_duration", bit_duration, ">", 0)
    if not (0.0 < quantum_efficiency <= 1.0):
        raise ValueError(f"quantum_efficiency must be in (0, 1], got {quantum_efficiency}")
    check_bound("wavelength", wavelength, ">", 0)
    photon_energy = PLANCK * SPEED_OF_LIGHT / wavelength
    return quantum_efficiency * power * bit_duration / photon_energy


@dataclass(frozen=True)
class HopBerInputs:
    """Everything the receiver models need to know about one hop.

    `photons_per_bit` is the hop's count scale N_ph (see `photons_per_bit`).
    """

    energies: BitEnergies
    fading: FadingModel
    noise: NoiseModel
    photons_per_bit: float

    def __post_init__(self) -> None:
        if not isinstance(self.energies, BitEnergies):
            raise TypeError(f"energies must be BitEnergies, got {type(self.energies).__name__}")
        if not isinstance(self.fading, FadingModel):
            raise TypeError(f"fading must be FadingModel, got {type(self.fading).__name__}")
        if not isinstance(self.noise, NoiseModel):
            raise TypeError(f"noise must be NoiseModel, got {type(self.noise).__name__}")
        check_bound("photons_per_bit", self.photons_per_bit, ">=", 0)


@dataclass(frozen=True)
class SaddlePointResult:
    """Saddle-point BER together with the solved stationary points.

    Each field has the broadcast shape of the means it was solved for.
    """

    ber: np.ndarray
    s0: np.ndarray
    s1: np.ndarray
    beta: np.ndarray


class _SaddleFailure(ConvergenceError):
    """A saddle-point element failed; `index` is its flat position in the means."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _quadratic_root(a, c, positive: bool):
    """Root of a s^2 - c s - 1 = 0 (a > 0) on one half-line, free of cancellation."""
    t = np.abs(c) + np.sqrt(c * c + 4.0 * a)
    big = c >= 0.0 if positive else c <= 0.0
    root = np.where(big, t / (2.0 * a), 2.0 / t)
    return root if positive else -root


def _bracketed_newton(x, lo, hi, evaluate, active):
    """Safeguarded Newton iteration, elementwise, on increasing functions.

    `evaluate(active, x_active)` returns the function values at the active
    iterates (only their signs are used) and their Newton iterates. Each
    bracket [lo, hi] closes onto the iterate on the side its sign gives.
    A Newton iterate outside the bracket, or one whose step is not under
    half the step before last (a stall or a rounding-level cycle), is
    replaced by the bracket midpoint. An element stops once its step falls
    below _STEP_RTOL relative, after which its error is at rounding level,
    or its value is exactly zero. `x`, `lo` and `hi` are updated in place.
    Returns x, the iterations used, and the mask of elements still running
    at the iteration cap.
    """
    last = np.full(x.size, np.inf)
    before_last = last.copy()
    iterations = 0
    while active.size and iterations < _MAX_ITERATIONS:
        iterations += 1
        x_a = x[active]
        value, newton = evaluate(active, x_a)
        lo_a = np.where(value < 0.0, x_a, lo[active])
        hi_a = np.where(value > 0.0, x_a, hi[active])
        ok = (newton >= lo_a) & (newton <= hi_a)
        ok &= np.abs(newton - x_a) <= 0.5 * np.abs(before_last[active])
        new = np.where(ok, newton, 0.5 * (lo_a + hi_a))
        x[active], lo[active], hi[active] = new, lo_a, hi_a
        before_last[active] = last[active]
        last[active] = new - x_a
        done = (value == 0.0) | (np.abs(new - x_a) <= _STEP_RTOL * np.abs(new))
        active = active[~done]
    unconverged = np.zeros(x.size, dtype=bool)
    unconverged[active] = True
    return x, iterations, unconverged


def _stationary_points(m, beta, sigma_sq: float, start, positive: bool):
    """Roots of phi(s) = m e^s - r(s), r(s) = beta + 1/s - sigma^2 s, on one half-line.

    phi is strictly increasing on each side of zero. Replacing e^s by its
    lower bound 1 + s gives a quadratic whose root bounds the root of phi
    from above on either side; replacing it by its upper bound (e^s_hi on
    s > 0, 1 on s < 0) gives one whose root bounds it from below. With
    m = 0 both bounds are the closed-form root, which is returned as is.
    Otherwise the bracketed Newton iteration runs on G(s) = s + log m -
    log r(s), which shares its root and sign with phi and is nearly linear
    where the exponential dominates (Newton on phi itself crawls there,
    one unit of s per step), from `start` clipped into the bracket (an
    infinite start means the upper bound).
    """
    hi = _quadratic_root(m + sigma_sq, beta - m, positive)
    lo_shift = m * np.exp(np.minimum(hi, 709.0)) if positive else m
    lo = _quadratic_root(sigma_sq, beta - lo_shift, positive)

    def evaluate(active, x):
        e = m[active] * np.exp(np.minimum(x, 709.0))
        r = beta[active] + 1.0 / x - sigma_sq * x
        return e - r, x - np.log(e / r) * r / (r + sigma_sq + 1.0 / (x * x))

    return _bracketed_newton(np.clip(start, lo, hi), lo, hi, evaluate, np.flatnonzero(m > 0.0))


def _tail_exponent(m, s, beta, sigma_sq: float):
    """log q + log|s| of one tail mass and its total derivative in beta.

    The tail mass is q = exp(m (e^s - 1) + s^2 sigma^2 / 2 - s beta)
    / (|s| sqrt(2 pi curv)) with curv = m e^s + sigma^2 + 1/s^2. At a
    stationary s the exponent's s-derivative is 1/s and ds/dbeta =
    1/curv, so the beta-derivative is -s + (1/s - curv' / (2 curv)) / curv
    with curv' = m e^s - 2/s^3.
    """
    e = m * np.exp(np.minimum(s, 709.0))
    curv = e + sigma_sq + 1.0 / (s * s)
    value = (
        m * np.expm1(np.minimum(s, 709.0))
        + 0.5 * s * s * sigma_sq
        - s * beta
        - 0.5 * np.log(2.0 * math.pi * curv)
    )
    slope = -s + (1.0 / s - 0.5 * (e - 2.0 / s**3) / curv) / curv
    return value, slope


def _check_means(m0: np.ndarray, m1: np.ndarray) -> None:
    """Raise ValueError at the first element where m0 < 0 or m1 <= m0 (or either is not finite)."""
    bad0 = ~(np.isfinite(m0) & (m0 >= 0.0))
    bad = bad0 | ~(np.isfinite(m1) & (m1 > m0))
    if not bad.any():
        return
    i = int(np.argmax(bad))
    where = f" at index {tuple(int(k) for k in np.unravel_index(i, m0.shape))}" if m0.ndim else ""
    if bad0.flat[i]:
        raise ValueError(f"m0 must be >= 0, got {m0.flat[i]}{where}")
    raise ValueError(f"m1 must exceed m0, got m0={m0.flat[i]}, m1={m1.flat[i]}{where}")


# Overflow, a log of a non-positive r, or 0/0 only makes a Newton iterate
# non-finite, which the bracket replaces by bisection; the closing residual
# checks reject any non-finite result.
@np.errstate(all="ignore")
def saddle_point_ber(m0, m1, sigma_th_sq: float) -> SaddlePointResult:
    """Saddle-point approximation of the photon-counting error probability.

    The decision statistic under each hypothesis is Poisson(m) plus
    zero-mean Gaussian thermal noise of variance sigma_th_sq. For a
    threshold beta the two tail masses q+(beta, s0) and q-(beta, s1) are
    evaluated at the stationary points s0 > 0 (miss of the OFF tail above
    beta) and s1 < 0 (ON mass below beta); beta itself solves the
    stationarity of the summed exponent, making the threshold the one the
    approximation considers optimal. Returns the averaged error
    0.5 (q+ + q-) together with s0, s1, beta.

    m0 and m1 may be arrays of any shapes that broadcast together, and
    every element is solved on its own: a result field has the broadcast
    shape (a NumPy scalar for scalar means), and each element equals the
    solve of that element alone. beta solves R(beta) = log q0 + log s0 -
    log q1 - log(-s1) = 0 in (m0, m1), where R decreases in beta. Each
    element runs a Newton iteration on beta from the Gaussian-approximation
    threshold, kept inside its shrinking bracket by bisection, with s0 and
    s1 re-solved by bracketed Newton iterations at every iterate
    (warm-started from the previous one), and stops once its step falls
    below _STEP_RTOL relative. The iteration counts and worst residuals of
    the call are logged at DEBUG level.

    Raises
    ------
    ValueError
        If m1 <= m0, m0 < 0, or sigma_th_sq <= 0; for array means the
        message names the first such element.
    ConvergenceError
        If an iteration does not converge or the stationary or threshold
        residual exceeds 1e-10 relative, at the first element that fails;
        its `index` attribute is that element's flat position.
    """
    m0, m1 = np.broadcast_arrays(np.asarray(m0, dtype=float), np.asarray(m1, dtype=float))
    shape = m0.shape
    _check_means(m0, m1)
    check_bound("sigma_th_sq", sigma_th_sq, ">", 0)
    m0, m1 = m0.ravel(), m1.ravel()
    span = m1 - m0
    lo = m0 + 1e-9 * span
    hi = m1 - 1e-9 * span
    root0, root1 = np.sqrt(m0 + sigma_th_sq), np.sqrt(m1 + sigma_th_sq)
    beta = np.clip(m0 + span * root0 / (root0 + root1), lo, hi)
    s0 = np.full(m0.size, np.inf)
    s1 = np.full(m0.size, np.inf)
    unconverged = np.zeros(m0.size, dtype=bool)
    inner = 0

    def evaluate(active, b):
        # -R, which increases in beta, and the Newton iterate on R.
        nonlocal inner
        s0[active], n0, bad0 = _stationary_points(m0[active], b, sigma_th_sq, s0[active], True)
        s1[active], n1, bad1 = _stationary_points(m1[active], b, sigma_th_sq, s1[active], False)
        inner = max(inner, n0, n1)
        unconverged[active] |= bad0 | bad1
        v0, d0 = _tail_exponent(m0[active], s0[active], b, sigma_th_sq)
        v1, d1 = _tail_exponent(m1[active], s1[active], b, sigma_th_sq)
        return v1 - v0, b - (v0 - v1) / (d0 - d1)

    beta, outer, stalled = _bracketed_newton(beta, lo, hi, evaluate, np.arange(m0.size))
    unconverged |= stalled

    s0, n0, bad0 = _stationary_points(m0, beta, sigma_th_sq, s0, True)
    s1, n1, bad1 = _stationary_points(m1, beta, sigma_th_sq, s1, False)
    unconverged |= bad0 | bad1
    v0, _ = _tail_exponent(m0, s0, beta, sigma_th_sq)
    v1, _ = _tail_exponent(m1, s1, beta, sigma_th_sq)

    def stationary_residual(m, s):
        e = m * np.exp(np.minimum(s, 709.0))
        scale = np.maximum.reduce([e, sigma_th_sq * np.abs(s), np.abs(beta), 1.0 / np.abs(s)])
        return np.abs(e + sigma_th_sq * s - beta - 1.0 / s) / scale

    res0 = stationary_residual(m0, s0)
    res1 = stationary_residual(m1, s1)
    # The threshold equation equates two log-domain tail exponents whose
    # magnitude grows with the means, so its residual is meaningful only
    # relative to the terms being matched (one beta ulp already moves the
    # residual by ~eps * |log q| in the large-count regime).
    res_t = np.abs(v0 - v1) / np.maximum.reduce([np.ones_like(v0), np.abs(v0), np.abs(v1)])
    # Written as ~(res <= tol) so that a NaN residual fails too.
    bad = unconverged | ~(res0 <= _RESIDUAL_TOL) | ~(res1 <= _RESIDUAL_TOL)
    bad |= ~(res_t <= _RESIDUAL_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        if unconverged[i]:
            message = (
                f"saddle-point solve did not converge in {_MAX_ITERATIONS} iterations "
                f"at m0={m0[i]}, m1={m1[i]}"
            )
        elif not res0[i] <= _RESIDUAL_TOL:
            message = f"saddle-point stationary equation residual too large at m={m0[i]}, s={s0[i]}"
        elif not res1[i] <= _RESIDUAL_TOL:
            message = f"saddle-point stationary equation residual too large at m={m1[i]}, s={s1[i]}"
        else:
            message = "saddle-point threshold equation residual too large"
        raise _SaddleFailure(message, i)

    ber = 0.5 * (np.exp(v0 - np.log(s0)) + np.exp(v1 - np.log(-s1)))
    logger.debug(
        "saddle point: %d elements, at most %d outer and %d inner iterations, "
        "worst residual / tolerance: stationary %.3g, threshold %.3g",
        m0.size, outer, max(inner, n0, n1),
        max(res0.max(), res1.max()) / _RESIDUAL_TOL, res_t.max() / _RESIDUAL_TOL,
    )
    return SaddlePointResult(
        *(a.reshape(shape)[()] for a in (np.clip(ber, 0.0, 0.5), s0, s1, beta))
    )


def _gaussian_ber_array(m0, m1, sigma_th_sq):
    """Gaussian approximation of the photon-counting error probability.

    Both hypotheses are normal with the Poisson mean and variance plus
    thermal variance; the threshold where the two error probabilities
    match gives BER = Q((m1 - m0) / (sqrt(m1 + sigma^2) + sqrt(m0 + sigma^2))).
    """
    denom = np.sqrt(m1 + sigma_th_sq) + np.sqrt(m0 + sigma_th_sq)
    return _q((m1 - m0) / denom)


def _fading_nodes(inputs: HopBerInputs, method: str, ghq_order: int):
    """Fading coefficients and probability weights for one hop's average.

    With h = exp(2 mu_x + 2 sigma_x t) and t standard normal, the average
    is the integral of F(t) phi(t). At high power F is a deep Gaussian
    tail and the integrand's mass sits far out at low h, where a rule
    with fixed nodes t = sqrt(2) x_i samples it poorly. The rule is
    therefore re-centred and re-scaled for each hop and method (Liu and
    Pierce, Biometrika 81, 1994): with f the method's ISI-free
    conditional BER Q(v(h)) and g = f phi, the nodes are
    t_i = t_hat + sqrt(2) sigma_hat x_i around the mode t_hat of log g,
    sigma_hat = (-(log g)''(t_hat))^(-1/2), and the weights are
    sqrt(2) sigma_hat w_i exp(x_i^2) phi(t_i). Because f decreases in t
    the mode lies at t <= 0; it is the root of (log g)', which needs only
    the Mills ratio phi(v) / Q(v) = sqrt(2 / pi) / erfcx(v / sqrt(2)) and
    so never underflows in the deep tail. log g is strictly concave, so
    `_bracketed_newton` finds the root on -(log g)' with the analytic
    -(log g)'' as its slope, inside a bracket [lo, 0] whose lower end
    doubles until (log g)' turns positive; the iterations are logged at
    DEBUG level. sigma_hat = 1 and t_hat = 0 give back the fixed rule of
    order `ghq_order`.
    """
    nodes, rule_weights = ghq_rule(ghq_order)
    fading = inputs.fading
    if fading.sigma_x_sq == 0.0:
        return np.ones(1), np.ones(1)
    sigma_x = math.sqrt(fading.sigma_x_sq)
    gamma_s = inputs.photons_per_bit * inputs.energies.e_signal
    noise = inputs.noise
    # margin(h) returns the Q argument v of the ISI-free conditional BER
    # and its first two derivatives in log h.
    if method == "awgn_ghqf":
        gain = gamma_s / (2.0 * noise.sigma_tb)

        def margin(h):
            v = gain * h
            return v, v, v

    else:
        # Gaussian approximation: v = sqrt(c + gamma_s h) - sqrt(c) with
        # c = n_bd + sigma_th^2.
        c = noise.n_bd + noise.sigma_th_sq

        def margin(h):
            root = np.sqrt(c + gamma_s * h)
            v_s = gamma_s * h / (2.0 * root)
            return root - math.sqrt(c), v_s, v_s * (1.0 - gamma_s * h / (2.0 * root * root))

    def log_g_slopes(t):
        """First and second t-derivatives of log f(t) - t^2 / 2."""
        v, v_s, v_ss = margin(np.exp(2.0 * (fading.mu_x + sigma_x * t)))
        mills = math.sqrt(2.0 / math.pi) / _erfc(v / math.sqrt(2.0), scaled=True)
        first = -2.0 * sigma_x * mills * v_s - t
        second = -4.0 * fading.sigma_x_sq * mills * ((mills - v) * v_s * v_s + v_ss) - 1.0
        return first, second

    def evaluate(active, t):
        # -(log g)', which increases in t, and its Newton iterate.
        first, second = log_g_slopes(t)
        return -first, t - first / second

    lo = -1.0
    while log_g_slopes(lo)[0] <= 0.0:
        lo *= 2.0
    t_hat, iterations, unconverged = _bracketed_newton(
        np.array([0.5 * lo]), np.array([lo]), np.zeros(1), evaluate, np.arange(1)
    )
    if unconverged[0]:
        raise ConvergenceError(
            f"fading-average mode did not converge in {_MAX_ITERATIONS} iterations"
        )
    t_hat = float(t_hat[0])
    logger.debug("fading mode (%s): t=%.6g after %d Newton iterations", method, t_hat, iterations)
    sigma_hat = 1.0 / math.sqrt(-float(log_g_slopes(t_hat)[1]))
    t = t_hat + math.sqrt(2.0) * sigma_hat * nodes
    h = np.exp(2.0 * (fading.mu_x + sigma_x * t))
    weights = sigma_hat / math.sqrt(math.pi) * rule_weights * np.exp(nodes**2 - 0.5 * t * t)
    return h, weights


_END_SLOPES = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0], [-3.0, -10.0, 18.0, -6.0, 1.0]]) / 12.0
"""Five-point one-sided differences of fourth order: the slopes at the first
two knots of a unit-step grid from its first five values."""


def _hermite(step: float, y):
    """Cubic Hermite interpolant of each row of y over the knots 0, step, 2 step, ...

    The slope at each knot is a five-point difference of fourth order:
    (y[i-2] - 8 y[i-1] + 8 y[i+1] - y[i+2]) / (12 step) inside, and the
    one-sided five-point formulas at the first two and last two knots, so
    y needs at least 5 columns. Returns a function of the points giving an
    array of shape (rows, points); points are clamped into [0, last knot],
    so nothing is extrapolated.
    """
    last = y.shape[1] - 1
    d = np.empty_like(y)  # slopes per knot step
    d[:, 2:-2] = (y[:, :-4] - 8.0 * y[:, 1:-3] + 8.0 * y[:, 3:-1] - y[:, 4:]) / 12.0
    d[:, :2] = y[:, :5] @ _END_SLOPES.T
    d[:, -2:] = -(y[:, :-6:-1] @ _END_SLOPES.T)[:, ::-1]
    rise = np.diff(y, axis=1)
    c2 = 3.0 * rise - 2.0 * d[:, :-1] - d[:, 1:]
    c3 = d[:, :-1] + d[:, 1:] - 2.0 * rise

    def interpolate(points):
        u = np.clip(points / step, 0.0, last)
        i = np.minimum(u.astype(np.intp), last - 1)
        t = u - i
        return y[:, i] + t * (d[:, i] + t * (c2[:, i] + t * c3[:, i]))

    return interpolate


def hop_average_ber(
    inputs: HopBerInputs,
    method: str,
    ghq_order: int = DEFAULT_GHQ_ORDER,
) -> float:
    """Average BER of one hop over fading and ISI bit patterns.

    The conditional BER of the chosen method is averaged over all
    equiprobable ISI patterns (both transmitted-bit hypotheses weighted
    1/2 where the method distinguishes them) and over the log-normal
    fading coefficient via Gauss-Hermite quadrature: the same order for
    every method, re-centred on the integrand's mode for each hop and
    method (see `_fading_nodes`).

    The conditional BER depends on a pattern only through its ISI energy,
    so the pattern average is a weighted sum over that energy's values
    (see `BitEnergies.isi_distribution`, computed once per hop): every
    pattern for memories up to ISI_ENUMERATION_CAP, and beyond it the
    distribution convolved on a grid of 2^14 points, which is
    deterministic, needs O(2^14) memory at any L, and differs from the
    exact average by an error second order in the grid step (below 1e-6
    relative against a 4x finer grid on a 10 Gbps 22.5 m coastal hop, L
    in the hundreds). At `debug` level the change from halving that grid
    is logged per call.

    Every method weights those values by one rule. Its conditional BER is
    a sum of terms monotone in the ISI count s (for awgn_ghqf the two
    hypotheses' 0.5 Q((gamma_s h +- 2 h s) / (2 sigma_Tb)), one term for
    the others), each evaluated at every fading node on
    _CONDITIONAL_GRID_POINTS evenly spaced counts from 0 to the largest
    ISI count (5 counts without ISI, where only the first is read). Their
    logs are interpolated by `_hermite` and averaged in blocks of
    _ISI_BLOCK values, so a call holds about 1.5 MB at L = 16 (65536
    values). Every method agrees with evaluating every (node, value) pair
    within 2e-12 relative.

    Parameters
    ----------
    inputs : HopBerInputs
    method : str
        One of "awgn_ghqf", "saddle_point", "gaussian".
    ghq_order : int, optional
        Node count of the Gauss-Hermite fading average, 1..64.

    Raises
    ------
    ValueError
        On an unknown method or an invalid quadrature order.
    ConvergenceError
        If the saddle-point solver fails, or rounding loses the signal
        count against the noise count (m1 == m0) at some node; the
        message names the quadrature node.
    """
    if method not in BER_METHODS:
        known = ", ".join(BER_METHODS)
        raise ValueError(f"unknown method {method!r}; expected one of: {known}")
    # Before the no-signal return, so that every call checks the order.
    h_nodes, node_weights = _fading_nodes(inputs, method, ghq_order)

    energies = inputs.energies
    noise = inputs.noise
    gamma_s = inputs.photons_per_bit * energies.e_signal
    if gamma_s == 0.0:
        # No signal: the receiver decides at chance whatever the method.
        return 0.5

    values, weights = energies.isi_distribution
    counts = inputs.photons_per_bit * values
    # Without ISI every count is 0, the first knot, which the cubic gives
    # exactly, so the grid needs only the 5 knots `_hermite` takes.
    s_max = float(counts.max())
    grid = np.linspace(0.0, s_max or 1.0, _CONDITIONAL_GRID_POINTS if s_max else 5)
    isi = np.outer(h_nodes, grid)
    m0, signal = noise.n_bd + isi, (h_nodes * gamma_s)[:, None]
    if method == "awgn_ghqf":
        shift = 2.0 * isi
        terms = 0.5 * _q((signal + np.stack([shift, -shift])) / (2.0 * noise.sigma_tb))
    elif method == "gaussian":
        terms = _gaussian_ber_array(m0, m0 + signal, noise.sigma_th_sq)
    else:
        m1 = m0 + signal
        lost = np.flatnonzero(m1 == m0)
        try:
            if lost.size:
                # Fail here, not in saddle_point_ber's check, to name the node.
                i = lost[0]
                raise _SaddleFailure(f"the signal count rounds away against m0={m0.flat[i]}", i)
            terms = saddle_point_ber(m0, m1, noise.sigma_th_sq).ber
        except _SaddleFailure as exc:
            node = exc.index // grid.size
            raise ConvergenceError(
                f"saddle-point average failed at quadrature node {node} "
                f"(h={h_nodes[node]:.6g}): {exc}"
            ) from exc
    log_terms = np.log(np.maximum(terms, _BER_FLOOR)).reshape(-1, grid.size)
    log_term = _hermite(grid[1], log_terms)

    def average(counts, weights):
        total = np.zeros(log_terms.shape[0])
        for lo in range(0, counts.size, _ISI_BLOCK):
            total += np.exp(log_term(counts[lo:lo + _ISI_BLOCK])) @ weights[lo:lo + _ISI_BLOCK]
        return float(node_weights @ total.reshape(-1, h_nodes.size).sum(axis=0))

    avg = average(counts, weights)
    if energies.isi_average == "convolved" and logger.isEnabledFor(logging.DEBUG):
        # The grid error is second order in the step, so doubling the
        # step moves the average by about three times the error.
        grid_points, coarse_values, coarse_weights = energies.coarse_isi_distribution
        coarse = average(inputs.photons_per_bit * coarse_values, coarse_weights)
        logger.debug(
            "ISI average (%s): L=%d convolved on %d grid points (%d of nonzero "
            "probability); halving the grid changes it by %.3g relative",
            method, energies.memory, grid_points, values.size,
            abs(coarse - avg) / avg if avg > 0.0 else 0.0,
        )
    return min(max(avg, 0.0), 0.5)
