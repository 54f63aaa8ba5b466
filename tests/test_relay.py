"""Relay-chain parity combinatorics tests.

The dynamic-program flip-count PMF is checked against the closed-form
parity product (1 - prod(1 - 2p)) / 2 and brute-force enumeration of all
error patterns.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import uwoc_relay_sim as u

from conftest import synthetic_hop


def parity_closed_form(p: np.ndarray) -> float:
    return 0.5 * (1.0 - np.prod(1.0 - 2.0 * np.asarray(p)))


def brute_force_e2e(p: np.ndarray) -> float:
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=len(p)):
        if sum(pattern) % 2 == 1:
            total += math.prod(pi if e else 1.0 - pi for pi, e in zip(p, pattern))
    return total


# ---------------------------------------------------------------------------
# Hand values
# ---------------------------------------------------------------------------


def test_hand_values():
    assert u.e2e_ber_exact([0.1, 0.2]) == pytest.approx(0.26, abs=1e-15)
    assert u.e2e_ber_upper([0.1, 0.1]) == pytest.approx(0.19, abs=1e-15)
    assert u.e2e_ber_exact([0.1, 0.1]) == pytest.approx(0.18, abs=1e-15)
    assert u.e2e_ber_exact([0.3]) == pytest.approx(0.3, abs=1e-15)
    assert u.e2e_ber_upper([0.3]) == pytest.approx(0.3, abs=1e-15)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def constant_vectors():
    """Every hop with the same BER, including both ends of [0, 0.5]."""
    for p in (0.0, 1e-6, 0.01, 0.3, 0.5):
        for n in (1, 2, 5, 9):
            yield np.full(n, p)


def test_exact_matches_closed_form_parity_product():
    rng = np.random.default_rng(314)
    for _ in range(1000):
        n = rng.integers(1, 11)
        p = rng.random(n) * 0.5
        assert u.e2e_ber_exact(p) == pytest.approx(parity_closed_form(p), abs=1e-12)
    for p in constant_vectors():
        assert u.e2e_ber_exact(p) == pytest.approx(parity_closed_form(p), abs=1e-14)


def test_exact_matches_brute_force_enumeration():
    rng = np.random.default_rng(2718)
    for n in (1, 2, 3, 4, 5):
        for _ in range(20):
            p = rng.random(n) * 0.5
            assert u.e2e_ber_exact(p) == pytest.approx(brute_force_e2e(p), abs=1e-14)
    for p in constant_vectors():
        assert u.e2e_ber_exact(p) == pytest.approx(brute_force_e2e(p), abs=1e-14)


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------


def test_e2e_never_exceeds_half_and_is_monotone():
    rng = np.random.default_rng(55)
    for _ in range(200):
        p = rng.random(rng.integers(1, 8)) * 0.5
        ber = u.e2e_ber_exact(p)
        assert 0.0 <= ber <= 0.5
        # Raising any single hop's BER cannot lower the end-to-end BER.
        i = rng.integers(len(p))
        worse = p.copy()
        worse[i] = worse[i] + (0.5 - worse[i]) * rng.random()
        assert u.e2e_ber_exact(worse) >= ber - 1e-15


def test_e2e_permutation_invariance():
    rng = np.random.default_rng(77)
    p = rng.random(6) * 0.5
    base = u.e2e_ber_exact(p)
    for _ in range(10):
        assert u.e2e_ber_exact(rng.permutation(p)) == pytest.approx(base, abs=1e-15)


def test_upper_bounds_exact():
    rng = np.random.default_rng(123)
    for _ in range(500):
        p = rng.random(rng.integers(1, 10)) * 0.5
        assert u.e2e_ber_upper(p) >= u.e2e_ber_exact(p) - 1e-16


def test_upper_equals_exact_iff_at_most_one_hop_errs():
    assert u.e2e_ber_upper([0.0, 0.3, 0.0]) == pytest.approx(
        u.e2e_ber_exact([0.0, 0.3, 0.0]), abs=1e-16
    )
    assert u.e2e_ber_upper([0.1, 0.1]) > u.e2e_ber_exact([0.1, 0.1])


def test_upper_bound_no_underflow_at_tiny_p():
    p = np.full(3, 1e-14)
    upper = u.e2e_ber_upper(p)
    assert upper == pytest.approx(3e-14, rel=1e-9)
    assert u.e2e_ber_exact(p) == pytest.approx(3e-14, rel=1e-9)


def test_per_hop_ber_validation():
    assert u.e2e_ber_exact([0.0, 0.5, 0.25]) == 0.5
    for function in (u.e2e_ber_exact, u.e2e_ber_upper):
        with pytest.raises(ValueError, match=r"^per-hop BERs must lie in \[0, 0.5\]$"):
            function([0.6])
        with pytest.raises(ValueError, match=r"^per-hop BERs must lie in \[0, 0.5\]$"):
            function([0.1, math.nan])
        with pytest.raises(ValueError, match="^p must be a nonempty 1-d array$"):
            function([])
        with pytest.raises(ValueError, match="^p must be a nonempty 1-d array$"):
            function([[0.1]])


# ---------------------------------------------------------------------------
# RelayChain and chain_average_ber
# ---------------------------------------------------------------------------


def two_hop_chain(power_dbm: float = 21.0) -> u.RelayChain:
    hop = synthetic_hop(0.0)  # energies/fading template; photons per bit rebuilt by assemble
    return u.RelayChain.assemble(
        [hop.energies, hop.energies],
        [hop.fading, hop.fading],
        hop.noise,
        total_power_per_bit=10 ** ((power_dbm - 30.0) / 10.0),
    )


def test_relay_chain_assemble_splits_power_equally():
    chain = two_hop_chain(21.0)
    assert len(chain.hops) == 2
    per_hop_power = 0.5 * 10 ** ((21.0 - 30.0) / 10.0)
    expected = u.photons_per_bit(per_hop_power, 1e-9)
    for hop in chain.hops:
        assert hop.photons_per_bit == pytest.approx(expected, rel=1e-14)


def test_relay_chain_validation():
    hop = synthetic_hop(18.0)
    two = ([hop.energies] * 2, [hop.fading] * 2, hop.noise)
    with pytest.raises(ValueError, match="at least one hop"):
        u.RelayChain(hops=())
    with pytest.raises(ValueError, match="sum to 1"):
        u.RelayChain.assemble(*two, 1e-3, power_shares=(0.7, 0.7))
    with pytest.raises(ValueError, match="power_shares length"):
        u.RelayChain.assemble(*two, 1e-3, power_shares=(1.0,))
    with pytest.raises(ValueError, match="hop 1 noise bit_duration"):
        # Hop 0 at 1 ns, hop 1 at 0.5 ns.
        u.RelayChain(hops=(hop, synthetic_hop(18.0, bit_duration=5e-10)))
    with pytest.raises(TypeError, match="hop 0"):
        u.RelayChain(hops=("hop",))
    with pytest.raises(ValueError, match="equal length"):
        u.RelayChain.assemble([hop.energies], [], hop.noise, 1e-3)


@pytest.mark.parametrize("shares", [(math.nan, 1.0), (math.inf, 0.0), (1.5, -0.5)])
def test_relay_chain_assemble_rejects_a_bad_share(shares):
    hop = synthetic_hop(18.0)
    with pytest.raises(ValueError, match="^power shares must be finite and >= 0$"):
        u.RelayChain.assemble([hop.energies] * 2, [hop.fading] * 2, hop.noise, 1e-3,
                              power_shares=shares)


@pytest.mark.parametrize("power", [-1e-3, math.inf, math.nan])
def test_relay_chain_assemble_rejects_a_bad_total_power(power):
    hop = synthetic_hop(18.0)
    with pytest.raises(ValueError, match="^total_power_per_bit must be >= 0, got"):
        u.RelayChain.assemble([hop.energies], [hop.fading], hop.noise, power)


def test_chain_average_single_hop_exact_equals_upper():
    hop = synthetic_hop(18.0)
    chain = u.RelayChain(hops=(hop,))
    per_hop = u.chain_average_ber(chain, "awgn_ghqf")
    exact = u.e2e_ber_exact(per_hop)
    assert exact == pytest.approx(u.e2e_ber_upper(per_hop), rel=1e-12)
    assert exact == pytest.approx(float(per_hop[0]), rel=1e-12)
    assert exact == pytest.approx(u.hop_average_ber(hop, "awgn_ghqf"), rel=1e-14)


def test_chain_average_combines_hops_by_parity():
    chain = two_hop_chain(21.0)
    p = u.chain_average_ber(chain, "awgn_ghqf")
    exact = u.e2e_ber_exact(p)
    assert exact == pytest.approx(parity_closed_form(p), rel=1e-12)
    assert u.e2e_ber_upper(p) >= exact
    # Two identical hops: per-hop BERs match and e2e is nearly double one.
    assert p[0] == pytest.approx(p[1], rel=1e-14)
    assert exact == pytest.approx(2.0 * p[0] * (1.0 - p[0]), rel=1e-12)


def three_hop_chain_with_repeat() -> u.RelayChain:
    """Hops 0 and 1 share energies, fading, noise and photons per bit; hop 2 differs."""
    chain = two_hop_chain(21.0)
    return u.RelayChain(hops=chain.hops + (synthetic_hop(19.0),))


def test_chain_average_solves_each_distinct_hop_once(monkeypatch):
    import uwoc_relay_sim.relay as relay

    chain = three_hop_chain_with_repeat()
    solved = []

    def counting(hop, method, ghq_order):
        solved.append(hop)
        return u.hop_average_ber(hop, method, ghq_order)

    monkeypatch.setattr(relay, "hop_average_ber", counting)
    per_hop = u.chain_average_ber(chain, "gaussian")
    assert solved == [chain.hops[0], chain.hops[2]]
    expected = [u.hop_average_ber(hop, "gaussian") for hop in chain.hops]
    assert per_hop.tolist() == expected


def test_chain_average_names_the_failing_hop(monkeypatch):
    import uwoc_relay_sim.relay as relay

    chain = three_hop_chain_with_repeat()

    def failing_last(hop, method, ghq_order):
        if hop is chain.hops[2]:
            raise u.ConvergenceError("no root")
        return u.hop_average_ber(hop, method, ghq_order)

    monkeypatch.setattr(relay, "hop_average_ber", failing_last)
    with pytest.raises(u.ConvergenceError, match=r"^hop 2: no root$"):
        u.chain_average_ber(chain, "gaussian")
