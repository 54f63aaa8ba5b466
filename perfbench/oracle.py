"""Reference BER computations for the benchmark's checks, made without the program.

Everything here starts from an impulse response read from the CSV that
`uwoc-relay-sim channel` writes and from the documented link model:

* slot energies: a full-slot rectangular pulse through the binned
  response puts into slot m the bin energy times the unit triangle
  max(0, 1 - |x - m|) averaged over the bin, with x in bit periods; bins
  are a whole fraction of a bit, so the triangle is linear on each bin
  and the bin average is its value at the bin midpoint;
* fading: h = exp(2X), X ~ N(-s2, s2), integrated with `scipy.integrate.quad`
  over the normal variable of log h;
* ISI: the equiprobable pattern sums, either all 2^L of them or their
  exact distribution built by convolving the taps one at a time;
* relays: the end-to-end error is an odd number of hop errors.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

# Link-budget constants in the rounded forms the simulator's model uses.
ELEMENTARY_CHARGE = 1.602e-19
PLANCK = 6.626e-34
BOLTZMANN = 1.381e-23
SPEED_OF_LIGHT = 2.99792458e8

# Receiver defaults of a configuration that leaves `noise` and `geometry` out.
BACKGROUND_RATE = 1.8094e8
DARK_CURRENT = 1.226e-9
RECEIVER_TEMPERATURE = 290.0
LOAD_RESISTANCE = 100.0
QUANTUM_EFFICIENCY = 0.8
WAVELENGTH = 532e-9


def q_tail(x):
    """Standard normal upper tail."""
    return special.ndtr(-np.asarray(x, dtype=float))


def read_response(path) -> np.ndarray:
    """Energy fractions of an impulse-response CSV (`bin_start_s,energy_fraction`)."""
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=1, ndmin=1)


def slot_energies(fractions, bins_per_bit: int) -> np.ndarray:
    """Energy each bit slot receives from one transmitted bit (slot 0 is its own)."""
    fractions = np.asarray(fractions, dtype=float)
    mid = (np.arange(fractions.size) + 0.5) / bins_per_bit
    slots = np.arange(int(math.ceil(fractions.size / bins_per_bit)) + 2)
    triangle = np.clip(1.0 - np.abs(mid[None, :] - slots[:, None]), 0.0, None)
    return triangle @ fractions


def channel_memory(slots, tail_epsilon: float = 1e-6) -> int:
    """Smallest L whose energy beyond slot L is below tail_epsilon of the total."""
    total = slots.sum()
    tail = total - np.cumsum(slots)
    return int(np.argmax(tail < tail_epsilon * total))


def noise_terms(bit_duration: float) -> tuple[float, float]:
    """(mean background-plus-dark count, thermal count variance) per bit."""
    n_bd = (BACKGROUND_RATE + DARK_CURRENT / ELEMENTARY_CHARGE) * bit_duration
    sigma_th_sq = (
        2.0 * BOLTZMANN * RECEIVER_TEMPERATURE * bit_duration
        / (LOAD_RESISTANCE * ELEMENTARY_CHARGE ** 2)
    )
    return n_bd, sigma_th_sq


def photons_per_bit(power_w: float, bit_duration: float) -> float:
    """Photoelectrons of a fully captured bit: eta P T_b lambda / (h c)."""
    return QUANTUM_EFFICIENCY * power_w * bit_duration * WAVELENGTH / (PLANCK * SPEED_OF_LIGHT)


def enumerated_isi_sums(taps) -> np.ndarray:
    """ISI energy of all 2^L bit patterns, built by doubling the list per tap."""
    sums = np.zeros(1)
    for e in np.asarray(taps, dtype=float):
        sums = np.concatenate([sums, sums + e])
    return sums


def isi_distribution(taps, n_grid: int = 1 << 14) -> tuple[np.ndarray, np.ndarray]:
    """Distribution of the ISI energy sum_k b_k e_k over fair independent bits.

    Built by convolving the taps one at a time on a uniform grid. A tap
    between two grid points puts its mass on both in the proportion that
    keeps its value exact on average, so no pattern is ever sampled.
    Returns (grid values, probabilities).
    """
    taps = np.asarray(taps, dtype=float)
    if taps.size == 0 or taps.sum() == 0.0:
        return np.zeros(1), np.ones(1)
    step = taps.sum() / (n_grid - 1)
    size = n_grid + taps.size + 1
    pmf = np.zeros(size)
    pmf[0] = 1.0
    for e in taps:
        x = e / step
        j = int(math.floor(x))
        frac = x - j
        nxt = 0.5 * pmf
        nxt[j:] += 0.5 * (1.0 - frac) * pmf[: size - j]
        nxt[j + 1:] += 0.5 * frac * pmf[: size - j - 1]
        pmf = nxt
    return np.arange(size) * step, pmf


def fading_average(conditional, sigma_x_sq: float) -> float:
    """E[conditional(h)] over unit-mean log-normal fading, by adaptive quadrature.

    With h = exp(2(-s2 + s t)) and t standard normal the integrand is
    conditional(h(t)) phi(t). Its peak is located on a coarse grid first,
    so that quad works on a window that holds all of the mass even when
    the BER is a deep tail.
    """
    if sigma_x_sq == 0.0:
        return float(conditional(1.0))
    s = math.sqrt(sigma_x_sq)

    def integrand(t: float) -> float:
        return float(conditional(math.exp(2.0 * (s * t - sigma_x_sq)))) * math.exp(
            -0.5 * t * t) / math.sqrt(2.0 * math.pi)

    grid = np.arange(-40.0, 10.0, 0.25)
    values = np.array([integrand(t) for t in grid])
    peak = float(grid[np.argmax(values)])
    value, _ = integrate.quad(
        integrand, peak - 12.0, peak + 12.0, points=[peak - 2.0, peak, peak + 2.0],
        epsabs=0.0, epsrel=1e-11, limit=500,
    )
    return value


def hop_ber(method: str, isi_counts, gamma_s: float, n_bd: float, sigma_th_sq: float,
            sigma_x_sq: float, weights=None) -> float:
    """Average BER of one hop over fading and ISI.

    `isi_counts` are ISI photoelectron counts at h = 1 (one per pattern,
    or grid values with `weights` their probabilities); `gamma_s` is the
    signal count at h = 1.
    """
    isi_counts = np.asarray(isi_counts, dtype=float)
    weights = (np.full(isi_counts.size, 1.0 / isi_counts.size) if weights is None
               else np.asarray(weights, dtype=float))
    keep = weights > 0.0
    isi_counts, weights = isi_counts[keep], weights[keep]
    if method == "awgn_ghqf":
        # Fixed threshold at h gamma_s / 2 over signal-independent noise:
        # ISI widens the margin of a one and narrows that of a zero.
        sigma = math.sqrt(sigma_th_sq + n_bd)

        def conditional(h):
            one = q_tail(h * (gamma_s + 2.0 * isi_counts) / (2.0 * sigma))
            zero = q_tail(h * (gamma_s - 2.0 * isi_counts) / (2.0 * sigma))
            return 0.5 * weights @ (one + zero)
    elif method == "gaussian":
        # Poisson counts replaced by normals of equal mean and variance.
        def conditional(h):
            m0 = h * isi_counts + n_bd
            m1 = m0 + h * gamma_s
            return weights @ q_tail((m1 - m0) / (np.sqrt(m1 + sigma_th_sq) + np.sqrt(m0 + sigma_th_sq)))
    else:
        raise ValueError(f"no reference for method {method!r}")
    return fading_average(conditional, sigma_x_sq)


def parity(hop_bers) -> float:
    """Probability of an odd number of independent hop errors: (1 - prod(1 - 2p)) / 2."""
    p = np.asarray(hop_bers, dtype=float)
    with np.errstate(divide="ignore"):  # p = 1/2 gives log(0) = -inf, hence 1/2
        return float(-np.expm1(np.log1p(-2.0 * p).sum()) / 2.0)
