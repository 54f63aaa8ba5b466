"""Bit-level Monte Carlo simulation of a relay chain.

Random bits travel hop by hop: each receiver sees Poisson photoelectron
counts (signal of the current bit plus ISI leakage of the previously
detected bits, scaled by a per-bit fading draw) plus Gaussian thermal
noise, thresholds the sum, and forwards the detected bit. The empirical
end-to-end BER with a Wilson 95% interval validates the analytical
models, which is the sole purpose of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .relay import RelayChain
from .turbulence import sample_fading

__all__ = ["SimResult", "run_bit_simulation", "HISTORY_CAP"]

HISTORY_CAP = 4096
"""Largest per-hop channel memory the simulator accepts."""

SIM_BLOCK = 1_000_000
"""Scored bits per independent block, each with its own child seed; bounds peak
memory at about 50 bytes per bit of a block, whatever the number of hops."""

POISSON_GAUSSIAN_SWITCH = 1e4
"""Count mean above which a Poisson draw is replaced by its normal approximation."""

_WILSON_Z = 1.959963984540054
"""Two-sided 97.5% standard normal quantile, for the 95% interval."""


@dataclass(frozen=True)
class SimResult:
    """Outcome of one bit-level simulation run.

    `n_bits` counts only bits scored for errors (the cold-start warmup of
    each block is excluded); `per_hop_error_counts[i]` counts bits hop i
    detected differently from what its transmitter sent it. The estimate
    and its Wilson 95% interval follow from `n_errors` and `n_bits`.
    """

    n_bits: int
    n_errors: int
    per_hop_error_counts: tuple[int, ...]
    gaussian_draws_used: bool

    def __post_init__(self) -> None:
        if self.n_errors > self.n_bits:
            raise ValueError("n_errors cannot exceed n_bits")

    @property
    def ber_hat(self) -> float:
        """Empirical end-to-end BER n_errors / n_bits."""
        return self.n_errors / self.n_bits

    @property
    def ci95_low(self) -> float:
        """Lower end of the Wilson 95% interval of `ber_hat`."""
        return _wilson_interval(self.n_errors, self.n_bits)[0]

    @property
    def ci95_high(self) -> float:
        """Upper end of the Wilson 95% interval of `ber_hat`."""
        return _wilson_interval(self.n_errors, self.n_bits)[1]


def _wilson_interval(k: int, n: int) -> tuple[float, float]:
    z = _WILSON_Z
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    # At k = 0 (k = n) the exact bound is 0 (1), but center - half rounds
    # to a few 1e-22 at n = 1e6, which would not bracket k/n = 0.
    low = 0.0 if k == 0 else max(0.0, center - half)
    high = 1.0 if k == n else min(1.0, center + half)
    return low, high


def _simulate_block(
    rng: np.random.Generator,
    chain: RelayChain,
    n_scored: int,
    warmup: int,
) -> tuple[int, np.ndarray, bool]:
    """One independent block; returns (e2e errors, per-hop errors, switch hit).

    Each hop computes in place, in the order of the plain formulas, and
    frees each array after its last use. Its counts are drawn on one path
    whatever the means: Poisson up to `POISSON_GAUSSIAN_SWITCH`, and above
    it sqrt(m) z + m from standard normals z, the values that
    `rng.normal(m, sqrt(m))` would give, with less overhead.
    """
    n_total = n_scored + warmup
    tx = rng.integers(0, 2, size=n_total).astype(np.float64)
    bits = tx
    per_hop_errors = np.zeros(len(chain.hops), dtype=np.int64)
    used_gaussian = False
    for i, hop in enumerate(chain.hops):
        energies = hop.energies
        noise = hop.noise
        # h * N_ph scales both the count mean and the threshold.
        threshold = sample_fading(hop.fading, rng, size=n_total)
        threshold *= hop.photons_per_bit
        kernel = np.concatenate(([energies.e_signal], energies.e_isi))
        m = np.convolve(bits, kernel)[:n_total]
        m *= threshold
        m += noise.n_bd
        threshold *= energies.e_signal
        threshold /= 2.0
        threshold += noise.n_bd

        # Each mean is overwritten by its draw.
        small = m <= POISSON_GAUSSIAN_SWITCH
        counts = m
        counts[small] = rng.poisson(m[small])
        large = ~small
        big = m[large]
        counts[large] = np.sqrt(big) * rng.standard_normal(big.size) + big
        used_gaussian |= big.size > 0
        del m, small, large, big
        y = rng.normal(0.0, math.sqrt(noise.sigma_th_sq), size=n_total)
        y += counts
        del counts

        detected = np.greater(y, threshold, out=y)
        del threshold
        per_hop_errors[i] = int(np.count_nonzero(detected[warmup:] != bits[warmup:]))
        bits = detected
    n_errors = int(np.count_nonzero(bits[warmup:] != tx[warmup:]))
    return n_errors, per_hop_errors, used_gaussian


def run_bit_simulation(
    chain: RelayChain,
    n_bits: int,
    seed: int,
) -> SimResult:
    """Estimate the end-to-end BER of a chain by direct bit simulation.

    Bits are processed in independent blocks of at most `SIM_BLOCK`, each
    with its own child seed spawned from `seed` in a fixed order, so the
    result is bit-identical for a given seed regardless of execution
    order. Peak memory scales with `SIM_BLOCK`, not with `n_bits`: a block
    holds about 50 bytes per bit at its peak (about 50 MB for a full
    block). Every block starts cold (all-zero ISI history) and its first
    sum-of-memories bits are excluded from error counting to remove the
    transient.

    Per bit and per hop the fading coefficient is drawn independently,
    matching the analytical average, and the photoelectron count is
    Poisson with the mean implied by the hop's detected bit history
    (Gaussian-approximated above `POISSON_GAUSSIAN_SWITCH`, which only
    matters when thermal noise dwarfs the Poisson granularity anyway).

    The detection threshold uses perfect CSI but is ISI-blind:
    h N_ph e_signal / 2 + n_bd, the midpoint of the isolated 0/1 count
    means, as in `awgn_ghqf`. So the simulation checks that model, not
    `saddle_point` or `gaussian`, whose receiver also knows the ISI sum of
    the L previous bits and sets its threshold for it.
    """
    if not isinstance(n_bits, (int, np.integer)) or n_bits < 1:
        raise ValueError(f"n_bits must be a positive integer, got {n_bits!r}")
    memories = [hop.energies.memory for hop in chain.hops]
    too_deep = [i for i, m in enumerate(memories) if m > HISTORY_CAP]
    if too_deep:
        raise ValueError(
            f"hop(s) {too_deep} exceed the ISI history cap of {HISTORY_CAP} slots"
        )
    warmup = sum(memories)

    n_blocks = -(-int(n_bits) // SIM_BLOCK)
    total_errors = 0
    per_hop = np.zeros(len(chain.hops), dtype=np.int64)
    used_gaussian = False
    remaining = int(n_bits)
    for child in np.random.SeedSequence(seed).spawn(n_blocks):
        n_scored = min(SIM_BLOCK, remaining)
        remaining -= n_scored
        errs, hop_errs, used = _simulate_block(
            np.random.default_rng(child), chain, n_scored, warmup
        )
        total_errors += errs
        per_hop += hop_errs
        used_gaussian = used_gaussian or used

    return SimResult(
        n_bits=int(n_bits),
        n_errors=total_errors,
        per_hop_error_counts=tuple(int(e) for e in per_hop),
        gaussian_draws_used=used_gaussian,
    )
