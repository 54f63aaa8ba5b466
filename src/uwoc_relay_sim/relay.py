"""End-to-end BER of a serial bit detect-and-forward relay chain.

Each relay hard-detects its received bit and retransmits it, so the final
bit is wrong exactly when an odd number of hops flipped it. With
independent per-hop error probabilities the number of flips U follows a
Poisson-binomial distribution, evaluated here by the standard iterative
convolution dynamic program instead of subset enumeration.

Also provides the all-hops-correct upper bound and the identical-hop
binomial special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ber import DEFAULT_QUANTUM_EFFICIENCY, CountScale, GhqRule, HopBerInputs, hop_average_ber
from .channel import DEFAULT_WAVELENGTH
from .errors import ConvergenceError

__all__ = [
    "RelayChain",
    "HopBerVector",
    "ChainBerResult",
    "prob_u_incorrect",
    "e2e_ber_exact",
    "e2e_ber_upper",
    "e2e_ber_identical",
    "chain_average_ber",
]


@dataclass(frozen=True)
class HopBerVector:
    """Per-hop average BERs of a relay chain (one entry per hop)."""

    p: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("p must be a nonempty 1-d array")
        if np.any(~np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 0.5):
            raise ValueError("per-hop BERs must lie in [0, 0.5]")
        object.__setattr__(self, "p", p)

    def __len__(self) -> int:
        return self.p.size


@dataclass(frozen=True)
class RelayChain:
    """A source-to-destination chain of N+1 hops at one bit rate.

    Every hop's CountScale already holds that hop's share of the transmit
    power; `assemble` builds a chain from a total power and a split.
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

    @property
    def n_relays(self) -> int:
        """Number of intermediate relays N (hops minus one)."""
        return len(self.hops) - 1

    @classmethod
    def assemble(
        cls,
        hop_energies,
        hop_fading,
        noise,
        total_power_per_bit: float,
        data_rate: float,
        power_shares=None,
        *,
        quantum_efficiency: float = DEFAULT_QUANTUM_EFFICIENCY,
        wavelength: float = DEFAULT_WAVELENGTH,
    ) -> "RelayChain":
        """Build a chain whose count scales follow from the power split.

        `hop_energies` and `hop_fading` are per-hop sequences; `noise` is
        one NoiseModel shared by every receiver, and its bit duration must
        be 1/`data_rate`. Hop i transmits `power_shares[i]` of
        `total_power_per_bit`; omitted `power_shares` means an equal split.
        """
        n_hops = len(hop_energies)
        if len(hop_fading) != n_hops:
            raise ValueError("hop_energies and hop_fading must have equal length")
        if power_shares is None:
            power_shares = [1.0 / n_hops] * n_hops
        shares = tuple(float(s) for s in power_shares)
        if len(shares) != n_hops:
            raise ValueError(f"power_shares length {len(shares)} does not match {n_hops} hops")
        if any(not (math.isfinite(s) and s >= 0.0) for s in shares):
            raise ValueError("power shares must be finite and >= 0")
        if abs(sum(shares) - 1.0) > 1e-9:
            raise ValueError(f"power shares must sum to 1, got {sum(shares)}")
        if not (math.isfinite(total_power_per_bit) and total_power_per_bit >= 0.0):
            raise ValueError(f"total_power_per_bit must be >= 0, got {total_power_per_bit}")
        if not (math.isfinite(data_rate) and data_rate > 0.0):
            raise ValueError(f"data_rate must be > 0, got {data_rate}")
        bit_duration = 1.0 / data_rate
        if not math.isclose(noise.bit_duration, bit_duration, rel_tol=1e-9):
            raise ValueError(
                f"noise bit_duration {noise.bit_duration} does not match "
                f"1/data_rate = {bit_duration}"
            )
        return cls(
            tuple(
                HopBerInputs(
                    energies=energies,
                    fading=fading,
                    noise=noise,
                    scale=CountScale.from_power(
                        share * total_power_per_bit,
                        bit_duration,
                        quantum_efficiency=quantum_efficiency,
                        wavelength=wavelength,
                    ),
                )
                for energies, fading, share in zip(hop_energies, hop_fading, shares)
            )
        )


@dataclass(frozen=True)
class ChainBerResult:
    """Chain-level BER figures plus the per-hop averages behind them."""

    exact: float
    upper: float
    per_hop: HopBerVector


def _probs(p) -> np.ndarray:
    if isinstance(p, HopBerVector):
        return p.p
    return HopBerVector(np.asarray(p, dtype=float)).p


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


def prob_u_incorrect(p, u: int) -> float:
    """Probability that exactly u of the hops detect incorrectly."""
    probs = _probs(p)
    if not isinstance(u, (int, np.integer)) or u < 0 or u > probs.size:
        raise ValueError(f"u must be an integer in [0, {probs.size}], got {u!r}")
    return float(_flip_count_pmf(probs)[u])


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


def e2e_ber_identical(p: float, n_links: int) -> float:
    """Exact end-to-end BER when every hop has the same average BER.

    Binomial odd-term sum; equals e2e_ber_exact on a constant vector but
    costs O(n) with exact binomial coefficients.
    """
    if not (math.isfinite(p) and 0.0 <= p <= 0.5):
        raise ValueError(f"p must be in [0, 0.5], got {p}")
    if not isinstance(n_links, (int, np.integer)) or n_links < 1:
        raise ValueError(f"n_links must be a positive integer, got {n_links!r}")
    return float(
        sum(
            math.comb(n_links, u) * p**u * (1.0 - p) ** (n_links - u)
            for u in range(1, n_links + 1, 2)
        )
    )


def chain_average_ber(chain: RelayChain, method: str, ghq: GhqRule | None = None) -> ChainBerResult:
    """Average per-hop BERs of a chain and combine them end to end.

    Hops fade independently, so each hop's average BER is computed on its
    own and the chain figures follow from the parity combinatorics. Hops
    with the same slot energies (the same object), fading, noise and count
    scale have the same average, which is computed once.
    """
    per_hop = np.empty(len(chain.hops))
    solved: dict[tuple, float] = {}
    for i, hop in enumerate(chain.hops):
        key = (id(hop.energies), hop.fading, hop.noise, hop.scale)
        if key not in solved:
            try:
                solved[key] = hop_average_ber(hop, method, ghq)
            except ConvergenceError as exc:
                raise ConvergenceError(f"hop {i}: {exc}") from exc
        per_hop[i] = solved[key]
    vec = HopBerVector(per_hop)
    return ChainBerResult(
        exact=e2e_ber_exact(vec),
        upper=e2e_ber_upper(vec),
        per_hop=vec,
    )
