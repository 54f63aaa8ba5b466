"""End-to-end BER of a serial bit detect-and-forward relay chain.

Each relay hard-detects its received bit and retransmits it, so the final
bit is wrong exactly when an odd number of hops flipped it. With
independent per-hop error probabilities the number of flips U follows a
Poisson-binomial distribution, evaluated here by the standard iterative
convolution dynamic program instead of subset enumeration.

Also provides the all-hops-correct upper bound. `chain_average_ber` gives
a chain's per-hop BERs as a 1-d array, and `e2e_ber_exact` and
`e2e_ber_upper` combine any such sequence end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ber import (
    DEFAULT_GHQ_ORDER, DEFAULT_QUANTUM_EFFICIENCY, HopBerInputs, hop_average_ber, photons_per_bit,
)
from .channel import DEFAULT_WAVELENGTH
from .errors import ConvergenceError, check_bound, is_finite

__all__ = [
    "RelayChain",
    "e2e_ber_exact",
    "e2e_ber_upper",
    "chain_average_ber",
]


@dataclass(frozen=True)
class RelayChain:
    """A source-to-destination chain of N+1 hops at one bit rate.

    Every hop's `photons_per_bit` already holds that hop's share of the
    transmit power; `assemble` builds a chain from a total power and a split.
    """

    hops: tuple[HopBerInputs, ...]

    def __post_init__(self) -> None:
        hops = tuple(self.hops)
        if not hops:
            raise ValueError("chain needs at least one hop")
        for i, hop in enumerate(hops):
            if not isinstance(hop, HopBerInputs):
                raise TypeError(f"hop {i} must be HopBerInputs, got {type(hop).__name__}")
            bit_duration = hops[0].noise.bit_duration
            if not math.isclose(hop.noise.bit_duration, bit_duration, rel_tol=1e-9):
                raise ValueError(
                    f"hop {i} noise bit_duration {hop.noise.bit_duration} does not match "
                    f"hop 0's {bit_duration}"
                )
        object.__setattr__(self, "hops", hops)

    @classmethod
    def assemble(
        cls,
        hop_energies,
        hop_fading,
        noise,
        total_power_per_bit: float,
        power_shares=None,
        *,
        quantum_efficiency: float = DEFAULT_QUANTUM_EFFICIENCY,
        wavelength: float = DEFAULT_WAVELENGTH,
    ) -> "RelayChain":
        """Build a chain whose photons per bit follow from the power split.

        `hop_energies` and `hop_fading` are per-hop sequences; `noise` is
        one NoiseModel shared by every receiver, whose bit duration sets
        the chain's bit rate. Hop i transmits `power_shares[i]` of
        `total_power_per_bit`; omitted `power_shares` means an equal split.
        """
        n_hops = len(hop_energies)
        if len(hop_fading) != n_hops:
            raise ValueError("hop_energies and hop_fading must have equal length")
        if power_shares is None:
            power_shares = [1.0 / n_hops] * n_hops
        shares = tuple(power_shares)
        if len(shares) != n_hops:
            raise ValueError(f"power_shares length {len(shares)} does not match {n_hops} hops")
        # Before float(), which overflows on an integer too large for a float.
        if any(not (is_finite(s) and s >= 0.0) for s in shares):
            raise ValueError("power shares must be finite and >= 0")
        shares = tuple(float(s) for s in shares)
        if abs(sum(shares) - 1.0) > 1e-9:
            raise ValueError(f"power shares must sum to 1, got {sum(shares)}")
        check_bound("total_power_per_bit", total_power_per_bit, ">=", 0)
        return cls(
            tuple(
                HopBerInputs(
                    energies=energies,
                    fading=fading,
                    noise=noise,
                    photons_per_bit=photons_per_bit(
                        share * total_power_per_bit,
                        noise.bit_duration,
                        quantum_efficiency=quantum_efficiency,
                        wavelength=wavelength,
                    ),
                )
                for energies, fading, share in zip(hop_energies, hop_fading, shares)
            )
        )


def _probs(p) -> np.ndarray:
    """Per-hop BERs as a validated 1-d float array."""
    probs = np.asarray(p, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise ValueError("p must be a nonempty 1-d array")
    if np.any(~np.isfinite(probs)) or np.any(probs < 0.0) or np.any(probs > 0.5):
        raise ValueError("per-hop BERs must lie in [0, 0.5]")
    return probs


def _flip_count_pmf(probs: np.ndarray) -> np.ndarray:
    """Poisson-binomial PMF of the number of hop errors.

    Iteratively convolves each hop's two-point distribution; O(n^2) in
    the hop count, exact to float precision.
    """
    pmf = np.array([1.0])
    for p in probs:
        nxt = np.zeros(pmf.size + 1)
        nxt[: pmf.size] += pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt
    return pmf


def e2e_ber_exact(p) -> float:
    """Exact end-to-end BER: probability of an odd number of hop errors.

    Summing the odd terms of the flip-count PMF equals one minus the even
    sum but avoids the cancellation when the even mass is close to 1.
    """
    pmf = _flip_count_pmf(_probs(p))
    return float(pmf[1::2].sum())


def e2e_ber_upper(p) -> float:
    """Upper bound: probability that not every hop detects correctly.

    1 - prod(1 - p_i), computed in log space so tiny per-hop BERs do not
    round away. Tight when at most one hop dominates.
    """
    probs = _probs(p)
    return float(-np.expm1(np.log1p(-probs).sum()))


def chain_average_ber(
    chain: RelayChain, method: str, ghq_order: int = DEFAULT_GHQ_ORDER
) -> np.ndarray:
    """Average BER of every hop of a chain, in hop order.

    Hops fade independently, so each hop's average BER is computed on its
    own; `e2e_ber_exact` or `e2e_ber_upper` combines them end to end. Hops
    with the same slot energies (the same object), fading, noise and
    photons per bit have the same average, which is computed once.
    """
    per_hop = np.empty(len(chain.hops))
    solved: dict[tuple, float] = {}
    for i, hop in enumerate(chain.hops):
        key = (id(hop.energies), hop.fading, hop.noise, hop.photons_per_bit)
        if key not in solved:
            try:
                solved[key] = hop_average_ber(hop, method, ghq_order)
            except ConvergenceError as exc:
                raise ConvergenceError(f"hop {i}: {exc}") from exc
        per_hop[i] = solved[key]
    return per_hop
