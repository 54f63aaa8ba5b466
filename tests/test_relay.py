"""Relay-chain parity combinatorics tests.

The dynamic-program flip-count PMF is checked against the closed-form
parity product (1 - prod(1 - 2p)) / 2, brute-force enumeration of all
error patterns, and subset enumeration of the Poisson-binomial PMF.
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


def brute_force_pmf(p: np.ndarray, count: int) -> float:
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=len(p)):
        if sum(pattern) == count:
            total += math.prod(pi if e else 1.0 - pi for pi, e in zip(p, pattern))
    return total


# ---------------------------------------------------------------------------
# Hand values
# ---------------------------------------------------------------------------


def test_hand_values():
    assert u.e2e_ber_exact([0.1, 0.2]) == pytest.approx(0.26, abs=1e-15)
    assert u.e2e_ber_upper([0.1, 0.1]) == pytest.approx(0.19, abs=1e-15)
    assert u.e2e_ber_identical(0.1, 2) == pytest.approx(0.18, abs=1e-15)
    assert u.e2e_ber_exact([0.3]) == pytest.approx(0.3, abs=1e-15)
    assert u.e2e_ber_upper([0.3]) == pytest.approx(0.3, abs=1e-15)


def test_prob_u_incorrect_hand_values():
    p = [0.1, 0.2]
    assert u.prob_u_incorrect(p, 0) == pytest.approx(0.72, abs=1e-15)
    assert u.prob_u_incorrect(p, 1) == pytest.approx(0.26, abs=1e-15)
    assert u.prob_u_incorrect(p, 2) == pytest.approx(0.02, abs=1e-15)
    total = sum(u.prob_u_incorrect(p, k) for k in range(3))
    assert total == pytest.approx(1.0, abs=1e-14)


def test_prob_u_validation():
    with pytest.raises(ValueError, match="u must be"):
        u.prob_u_incorrect([0.1], 2)
    with pytest.raises(ValueError, match="u must be"):
        u.prob_u_incorrect([0.1], -1)
    with pytest.raises(ValueError, match="u must be"):
        u.prob_u_incorrect([0.1], 0.5)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def test_exact_matches_closed_form_parity_product():
    rng = np.random.default_rng(314)
    for _ in range(1000):
        n = rng.integers(1, 11)
        p = rng.random(n) * 0.5
        assert u.e2e_ber_exact(p) == pytest.approx(parity_closed_form(p), abs=1e-12)


def test_exact_matches_brute_force_enumeration():
    rng = np.random.default_rng(2718)
    for n in (1, 2, 3, 4, 5):
        for _ in range(20):
            p = rng.random(n) * 0.5
            assert u.e2e_ber_exact(p) == pytest.approx(brute_force_e2e(p), abs=1e-14)


def test_pmf_matches_subset_enumeration():
    rng = np.random.default_rng(99)
    for n in (1, 4, 8, 12):
        p = rng.random(n) * 0.5
        for count in range(n + 1):
            assert u.prob_u_incorrect(p, count) == pytest.approx(
                brute_force_pmf(p, count), abs=1e-13
            )


def test_identical_matches_exact_on_constant_vector():
    for p in (0.0, 1e-6, 0.01, 0.3, 0.5):
        for n in (1, 2, 5, 9):
            assert u.e2e_ber_identical(p, n) == pytest.approx(
                u.e2e_ber_exact(np.full(n, p)), abs=1e-14
            )


def test_identical_validation():
    with pytest.raises(ValueError, match="p must"):
        u.e2e_ber_identical(0.6, 2)
    with pytest.raises(ValueError, match="n_links"):
        u.e2e_ber_identical(0.1, 0)


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


def test_hop_ber_vector_validation():
    v = u.HopBerVector(np.array([0.0, 0.5, 0.25]))
    assert len(v) == 3
    with pytest.raises(ValueError, match="0, 0.5"):
        u.HopBerVector(np.array([0.6]))
    with pytest.raises(ValueError, match="nonempty"):
        u.HopBerVector(np.array([]))
    with pytest.raises(ValueError):
        u.HopBerVector(np.array([[0.1]]))


# ---------------------------------------------------------------------------
# RelayChain and chain_average_ber
# ---------------------------------------------------------------------------


def two_hop_chain(power_dbm: float = 21.0) -> u.RelayChain:
    hop = synthetic_hop(0.0)  # energies/fading template; scale rebuilt by assemble
    return u.RelayChain.assemble(
        [hop.energies, hop.energies],
        [hop.fading, hop.fading],
        hop.noise,
        total_power_per_bit=10 ** ((power_dbm - 30.0) / 10.0),
        data_rate=1e9,
    )


def test_relay_chain_assemble_splits_power_equally():
    chain = two_hop_chain(21.0)
    assert chain.n_relays == 1
    per_hop_power = 0.5 * 10 ** ((21.0 - 30.0) / 10.0)
    expected = u.CountScale.from_power(per_hop_power, 1e-9).photons_per_bit
    for hop in chain.hops:
        assert hop.scale.photons_per_bit == pytest.approx(expected, rel=1e-14)


def test_relay_chain_validation():
    hop = synthetic_hop(18.0)
    two = ([hop.energies] * 2, [hop.fading] * 2, hop.noise)
    with pytest.raises(ValueError, match="at least one hop"):
        u.RelayChain(hops=())
    with pytest.raises(ValueError, match="sum to 1"):
        u.RelayChain.assemble(*two, 1e-3, 1e9, power_shares=(0.7, 0.7))
    with pytest.raises(ValueError, match="power_shares length"):
        u.RelayChain.assemble(*two, 1e-3, 1e9, power_shares=(1.0,))
    with pytest.raises(ValueError, match="bit_duration"):
        # Hop noise says 1 ns, chain says 2 Gbps.
        u.RelayChain.assemble(*two, 1e-3, 2e9)
    with pytest.raises(ValueError, match="data_rate must be > 0"):
        u.RelayChain.assemble(*two, 1e-3, 0.0)
    with pytest.raises(ValueError, match="hop 1 noise bit_duration"):
        # Hop 0 at 1 ns, hop 1 at 0.5 ns.
        u.RelayChain(hops=(hop, synthetic_hop(18.0, bit_duration=5e-10)))
    with pytest.raises(TypeError, match="hop 0"):
        u.RelayChain(hops=("hop",))
    with pytest.raises(ValueError, match="equal length"):
        u.RelayChain.assemble([hop.energies], [], hop.noise, 1e-3, 1e9)


def test_chain_average_single_hop_exact_equals_upper():
    hop = synthetic_hop(18.0)
    chain = u.RelayChain(hops=(hop,))
    result = u.chain_average_ber(chain, "awgn_ghqf")
    assert result.exact == pytest.approx(result.upper, rel=1e-12)
    assert result.exact == pytest.approx(float(result.per_hop.p[0]), rel=1e-12)
    assert result.exact == pytest.approx(u.hop_average_ber(hop, "awgn_ghqf"), rel=1e-14)


def test_chain_average_combines_hops_by_parity():
    chain = two_hop_chain(21.0)
    result = u.chain_average_ber(chain, "awgn_ghqf")
    p = result.per_hop.p
    assert result.exact == pytest.approx(parity_closed_form(p), rel=1e-12)
    assert result.upper >= result.exact
    # Two identical hops: per-hop BERs match and e2e is nearly double one.
    assert p[0] == pytest.approx(p[1], rel=1e-14)
    assert result.exact == pytest.approx(2.0 * p[0] * (1.0 - p[0]), rel=1e-12)


def three_hop_chain_with_repeat() -> u.RelayChain:
    """Hops 0 and 1 share energies, fading, noise and scale; hop 2 differs."""
    chain = two_hop_chain(21.0)
    return u.RelayChain(hops=chain.hops + (synthetic_hop(19.0),))


def test_chain_average_solves_each_distinct_hop_once(monkeypatch):
    import uwoc_relay_sim.relay as relay

    chain = three_hop_chain_with_repeat()
    solved = []

    def counting(hop, method, ghq=None):
        solved.append(hop)
        return u.hop_average_ber(hop, method, ghq)

    monkeypatch.setattr(relay, "hop_average_ber", counting)
    result = u.chain_average_ber(chain, "gaussian")
    assert solved == [chain.hops[0], chain.hops[2]]
    expected = [u.hop_average_ber(hop, "gaussian") for hop in chain.hops]
    assert result.per_hop.p.tolist() == expected


def test_chain_average_names_the_failing_hop(monkeypatch):
    import uwoc_relay_sim.relay as relay

    chain = three_hop_chain_with_repeat()

    def failing_last(hop, method, ghq=None):
        if hop is chain.hops[2]:
            raise u.ConvergenceError("no root")
        return u.hop_average_ber(hop, method, ghq)

    monkeypatch.setattr(relay, "hop_average_ber", failing_last)
    with pytest.raises(u.ConvergenceError, match=r"^hop 2: no root$"):
        u.chain_average_ber(chain, "gaussian")
