"""Acceptance suite: one test per release criterion.

Each test prints a single line with the measured quantities behind its
verdict (visible with `pytest -rA` or `-s`). Criteria with a stated wall
-clock budget assert it on the test body; the shared photon-traced
impulse responses are session fixtures built once (about 40 s each at
1e7 photons), which keeps even a cold run far inside every budget.

Criterion 2 measures the deviation map of the 30-node fading average
against an adaptive-quadrature oracle over the BER range [1e-12, 0.5].
The rule is re-centred on the integrand's mode for each hop, so it holds
1e-3 even in the deep tail at the larger fading variances, where a rule
with fixed nodes does not; its companion test pins the narrower envelope
that the fixed-node rule used to meet.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import uwoc_relay_sim as u

from conftest import SIGMA_X_SQ, conditional_ber_awgn, isi_patterns, synthetic_hop
from test_ber import exact_ber_at

SPEED_OF_LIGHT = 299_792_458.0


def parity_closed_form(p: np.ndarray) -> float:
    return 0.5 * (1.0 - np.prod(1.0 - 2.0 * np.asarray(p)))


def brute_force_e2e(p: np.ndarray) -> float:
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=len(p)):
        if sum(pattern) % 2 == 1:
            total += math.prod(pi if e else 1.0 - pi for pi, e in zip(p, pattern))
    return total


def report(line: str) -> None:
    print(f"\n{line}")


# ---------------------------------------------------------------------------
# Criterion 1: exact serial-relay parity combination
# ---------------------------------------------------------------------------


def test_criterion_01_parity_closed_form_and_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260817)
    worst_closed = 0.0
    for _ in range(1000):
        p = rng.random(rng.integers(1, 11)) * 0.5
        worst_closed = max(worst_closed, abs(u.e2e_ber_exact(p) - parity_closed_form(p)))
    worst_brute = 0.0
    for n_links in (1, 2, 3, 4, 5):
        for _ in range(40):
            p = rng.random(n_links) * 0.5
            worst_brute = max(worst_brute, abs(u.e2e_ber_exact(p) - brute_force_e2e(p)))
    elapsed = time.perf_counter() - t0
    report(
        f"criterion 1 (parity combination): closed-form dev {worst_closed:.2e} "
        f"(<=1e-12), enumeration dev {worst_brute:.2e} (<=1e-14), {elapsed:.2f} s (<1 s)"
    )
    assert worst_closed <= 1e-12
    assert worst_brute <= 1e-14
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Criterion 2: 30-node quadrature fidelity of the fading average
# ---------------------------------------------------------------------------


def quad_fading_average(hop: u.HopBerInputs) -> float:
    """Adaptive-quadrature average of the conditional BER over fading.

    Integrates the test-side conditional_ber_awgn, on SciPy's erfc and
    vectorized over the 2^L patterns, against the log-normal density via
    the substitution h = exp(2 X), X Gaussian, so this shares neither the
    rule nor the erfc kernel with the library's quadrature-rule average.
    """
    sig = math.sqrt(hop.fading.sigma_x_sq)
    mu = hop.fading.mu_x
    patterns = isi_patterns(hop.energies.memory)

    def integrand(t: float) -> float:
        h = math.exp(2.0 * (mu + sig * t))
        phi = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        cond = 0.5 * (conditional_ber_awgn(0, patterns, h, hop)
                      + conditional_ber_awgn(1, patterns, h, hop))
        return float(cond.mean()) * phi

    value, _ = quad(
        integrand, -15.0, 15.0,
        epsabs=1e-30, epsrel=1e-11, limit=2000,
        points=[-12, -10, -8, -6, -4, -2, 0, 2, 4],
    )
    return value


@pytest.fixture(scope="module")
def fading_average_deviation_map():
    """(sigma_x_sq, L, oracle BER, relative deviation) across power grids
    chosen so the oracle BER spans [1e-12, 0.5] for every variance."""
    grids = {
        0.01: np.arange(-2.0, 22.01, 1.0),
        0.05: np.arange(-2.0, 28.01, 1.0),
        0.25: np.arange(-2.0, 44.01, 1.0),
    }
    rows = []
    for sigma, powers in grids.items():
        for e_isi in ((), (8e-6, 4e-6)):
            for dbm in powers:
                hop = synthetic_hop(float(dbm), e_isi=e_isi, sigma_x_sq=sigma)
                ghqf = u.hop_average_ber(hop, "awgn_ghqf")
                if not (1e-13 <= ghqf <= 0.5):
                    continue
                oracle = quad_fading_average(hop)
                if not (1e-12 <= oracle <= 0.5):
                    continue
                rows.append((sigma, len(e_isi), oracle, abs(ghqf - oracle) / oracle))
    return rows


def test_criterion_02_quadrature_fidelity_of_fading_average(fading_average_deviation_map):
    t0 = time.perf_counter()
    lines = []
    failed = []
    for sigma in (0.01, 0.05, 0.25):
        rows = [r for r in fading_average_deviation_map if r[0] == sigma]
        assert min(r[2] for r in rows) < 1e-10  # the grid truly probes the deep tail
        assert max(r[2] for r in rows) > 0.4
        sigma_worst = max(rows, key=lambda r: r[3])
        verdict = "ok" if sigma_worst[3] <= 1e-3 else "EXCEEDS 1e-3"
        lines.append(
            f"sigma_x_sq={sigma}: worst rel dev {sigma_worst[3]:.3e} "
            f"at BER={sigma_worst[2]:.3e} (L={sigma_worst[1]}) {verdict}"
        )
        if sigma_worst[3] > 1e-3:
            failed.append(lines[-1])
    elapsed = time.perf_counter() - t0
    report("criterion 2 (30-node fading average vs adaptive quadrature): " + "; ".join(lines))
    assert elapsed < 60.0
    if failed:
        pytest.fail(
            "30-node Gauss-Hermite averaging cannot hold 1e-3 relative accuracy over "
            "the full BER range [1e-12, 0.5] at the larger fading variances; measured: "
            + "; ".join(failed)
            + ". The companion envelope test pins where the rule is accurate."
        )


def test_criterion_02_companion_accuracy_envelope(fading_average_deviation_map):
    """The envelope where a fixed-node 30-point rule was already accurate
    to 1e-3, kept as a guard: the full BER range at sigma_x_sq=0.01,
    BER >= 1e-10 at 0.05, and BER >= 1e-2 at 0.25. Outside it, fixed
    nodes miss the integrand's mass as the fading variance pushes it into
    their tail; the mode-centred rule covers the whole range
    (criterion 2)."""
    floors = {0.01: 1e-12, 0.05: 1e-10, 0.25: 1e-2}
    lines = []
    for sigma, floor in floors.items():
        rows = [r for r in fading_average_deviation_map if r[0] == sigma and r[2] >= floor]
        assert len(rows) >= 5
        worst = max(r[3] for r in rows)
        lines.append(f"sigma_x_sq={sigma}, BER>={floor:g}: worst {worst:.3e}")
        assert worst <= 1e-3
    report("criterion 2 companion (accuracy envelope): " + "; ".join(lines))


# ---------------------------------------------------------------------------
# Criterion 3: saddle-point accuracy against the exact mixed tail
# ---------------------------------------------------------------------------


def test_criterion_03_saddle_point_within_15pct_of_exact_oracle():
    t0 = time.perf_counter()
    worst = (0.0, None)
    n_in_range = 0
    for m0 in (1.0, 5.0, 20.0):
        for ratio in (5.0, 20.0, 100.0):
            for sigma_sq in (1.0, 100.0, 1e4):
                m1 = m0 * ratio
                sp = u.saddle_point_ber(m0, m1, sigma_sq)
                exact = exact_ber_at(m0, m1, sigma_sq, sp.beta)
                if not (1e-9 <= exact <= 0.1):
                    continue
                n_in_range += 1
                rel = abs(sp.ber - exact) / exact
                if rel > worst[0]:
                    worst = (rel, (m0, m1, sigma_sq, exact))
    elapsed = time.perf_counter() - t0
    report(
        f"criterion 3 (saddle point vs exact Poisson+Gaussian tail): {n_in_range} grid "
        f"points with BER in [1e-9, 0.1], worst rel dev {worst[0]:.3e} at "
        f"(m0={worst[1][0]}, m1={worst[1][1]}, sigma_th_sq={worst[1][2]:g}, "
        f"BER={worst[1][3]:.3e}), {elapsed:.2f} s (<1 min)"
    )
    assert n_in_range >= 8
    assert worst[0] <= 0.15
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Criterion 4: Gaussian and saddle-point models agree along a power sweep
# ---------------------------------------------------------------------------


def test_criterion_04_gaussian_tracks_saddle_point_over_sweep(ir_coastal_22p5, noise_1ns):
    t0 = time.perf_counter()
    energies = u.bit_frame_energies(ir_coastal_22p5, bit_duration=1e-9)
    fading = u.FadingModel(sigma_x_sq=SIGMA_X_SQ[22.5])
    ratios = []
    for dbm in np.arange(10.0, 40.01, 1.0):
        hop = u.HopBerInputs(
            energies=energies,
            fading=fading,
            noise=noise_1ns,
            photons_per_bit=u.photons_per_bit(10 ** ((dbm - 30.0) / 10.0), 1e-9),
        )
        g = u.hop_average_ber(hop, "gaussian")
        s = u.hop_average_ber(hop, "saddle_point")
        if g > 1e-300 and s > 1e-300:
            ratios.append(g / s)
    elapsed = time.perf_counter() - t0
    report(
        f"criterion 4 (gaussian/saddle agreement, 22.5 m coastal, 1 Gbps): "
        f"{len(ratios)} powers, ratio in [{min(ratios):.4f}, {max(ratios):.4f}] "
        f"(required [0.5, 2]), {elapsed:.1f} s body (<5 min incl. the session's "
        f"1e7-photon channel build)"
    )
    assert len(ratios) >= 20
    assert min(ratios) >= 0.5
    assert max(ratios) <= 2.0
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# Criterion 5: bit-level simulator confirms the analytical hop BER
# ---------------------------------------------------------------------------


def test_criterion_05_simulator_ci_covers_analytical_hop_ber():
    t0 = time.perf_counter()
    cases = [
        ("L=0", synthetic_hop(17.762), 1_000_000),
        ("L=2", synthetic_hop(17.858, e_isi=(8e-6, 4e-6)), 1_000_000),
        ("L=0 low-BER", synthetic_hop(19.0), 4_000_000),
    ]
    lines = []
    for label, hop, n_bits in cases:
        analytic = u.hop_average_ber(hop, "awgn_ghqf")
        assert 1e-4 <= analytic <= 1e-2
        chain = u.RelayChain(hops=(hop,))
        res = u.run_bit_simulation(chain, n_bits, seed=20240817)
        lines.append(
            f"{label}: analytic {analytic:.4e}, simulated {res.ber_hat:.4e} "
            f"CI [{res.ci95_low:.4e}, {res.ci95_high:.4e}] ({res.n_errors} errors)"
        )
        assert res.ci95_low <= analytic <= res.ci95_high
    elapsed = time.perf_counter() - t0
    report(
        f"criterion 5 (simulator vs analytical hop BER): {'; '.join(lines)}, "
        f"{elapsed:.1f} s (<10 min)"
    )
    assert elapsed < 600.0


def simulate_isi_aware_receiver(hop: u.HopBerInputs, n_bits: int, seed: int) -> int:
    """Bit errors of the receiver that `gaussian` models, simulated here.

    Each bit's count is Poisson(m_b) plus N(0, sigma_th^2), with h drawn
    per bit, m0 = n_bd + h N_ph (ISI energy of the L previous transmitted
    bits) and m1 = m0 + h N_ph e_signal. The receiver knows h and that ISI
    sum, and decides 1 above beta = (m0 s1 + m1 s0) / (s0 + s1), with
    s_i = sqrt(m_i + sigma_th^2). It reads the hop's inputs and takes no
    threshold or error probability from `ber` or `simulate`.
    """
    energies, noise, fading = hop.energies, hop.noise, hop.fading
    memory = energies.e_isi.size
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, n_bits + memory)
    sent = bits[memory:] == 1
    isi = np.convolve(bits, np.concatenate(([0.0], energies.e_isi)))[memory:memory + n_bits]
    gain = hop.photons_per_bit * np.exp(
        2.0 * rng.normal(fading.mu_x, math.sqrt(fading.sigma_x_sq), n_bits)
    )
    m0 = noise.n_bd + gain * isi
    m1 = m0 + gain * energies.e_signal
    s0, s1 = np.sqrt(m0 + noise.sigma_th_sq), np.sqrt(m1 + noise.sigma_th_sq)
    beta = (m0 * s1 + m1 * s0) / (s0 + s1)
    counts = rng.poisson(np.where(sent, m1, m0)) + rng.normal(
        0.0, math.sqrt(noise.sigma_th_sq), n_bits
    )
    return int(np.count_nonzero((counts > beta) != sent))


@pytest.mark.parametrize("e_isi", [(), (8e-6, 4e-6), (4e-5, 2e-5, 1e-5)],
                         ids=["L=0", "L=2", "L=3"])
def test_gaussian_hop_ber_matches_an_isi_aware_bit_simulation(e_isi):
    # The companion of criterion 5 for the receiver that knows the ISI sum:
    # at L = 3 the ISI is 41% of the signal, and the ISI-blind midpoint
    # threshold would count hundreds of sigma more errors.
    hop = synthetic_hop(17.8, e_isi=e_isi)
    n_bits = 1_000_000
    analytic = u.hop_average_ber(hop, "gaussian")
    assert 1e-4 <= analytic <= 1e-2
    errors = simulate_isi_aware_receiver(hop, n_bits, seed=20240817)
    z = (errors - n_bits * analytic) / math.sqrt(n_bits * analytic * (1.0 - analytic))
    report(f"gaussian vs ISI-aware simulation, L={len(e_isi)}: analytic {analytic:.4e}, "
           f"{errors} errors in {n_bits} bits ({z:+.2f} sigma)")
    assert abs(z) <= 4.0


# ---------------------------------------------------------------------------
# Criterion 6: horizontal gain of dual-hop over single-hop at BER 1e-6
# ---------------------------------------------------------------------------


def _e2e_curve(ir, sigma_x_sq, noise, total_powers_dbm, n_hops):
    energies = u.bit_frame_energies(ir, bit_duration=1e-9)
    fading = u.FadingModel(sigma_x_sq=sigma_x_sq)
    bers = []
    for total_dbm in total_powers_dbm:
        per_hop_w = 10 ** ((total_dbm - 30.0) / 10.0) / n_hops
        hop = u.HopBerInputs(
            energies=energies,
            fading=fading,
            noise=noise,
            photons_per_bit=u.photons_per_bit(per_hop_w, 1e-9),
        )
        p = u.hop_average_ber(hop, "gaussian")
        bers.append(u.e2e_ber_exact([p] * n_hops))
    return np.asarray(bers)


def _crossing_dbm(powers, bers, target=1e-6):
    logs = np.log10(np.maximum(bers, 1e-300))
    lt = math.log10(target)
    for i in range(len(powers) - 1):
        if (logs[i] - lt) * (logs[i + 1] - lt) <= 0.0 and logs[i] != logs[i + 1]:
            f = (lt - logs[i]) / (logs[i + 1] - logs[i])
            return float(powers[i] + f * (powers[i + 1] - powers[i]))
    raise AssertionError(
        f"BER curve does not cross {target:g} inside the power grid "
        f"[{powers[0]}, {powers[-1]}] dBm: range [{bers.min():.3e}, {bers.max():.3e}]"
    )


def test_criterion_06_dual_hop_horizontal_gain_at_1e6(
    ir_coastal_11p25, ir_coastal_22p5, ir_coastal_45, noise_1ns
):
    t0 = time.perf_counter()
    curves = {
        "single 22.5 m": (ir_coastal_22p5, SIGMA_X_SQ[22.5], np.arange(16.0, 29.01, 0.25), 1),
        "dual 2x11.25 m": (ir_coastal_11p25, SIGMA_X_SQ[11.25], np.arange(-4.0, 10.01, 0.25), 2),
        "single 45 m": (ir_coastal_45, SIGMA_X_SQ[45.0], np.arange(62.0, 78.01, 0.25), 1),
        "dual 2x22.5 m": (ir_coastal_22p5, SIGMA_X_SQ[22.5], np.arange(19.0, 33.01, 0.25), 2),
    }
    crossing = {}
    for name, (ir, sigma, powers, n_hops) in curves.items():
        bers = _e2e_curve(ir, sigma, noise_1ns, powers, n_hops)
        assert np.all(np.diff(bers) < 0.0), f"{name}: BER not strictly decreasing in power"
        crossing[name] = _crossing_dbm(powers, bers)
    gap_22 = crossing["single 22.5 m"] - crossing["dual 2x11.25 m"]
    gap_45 = crossing["single 45 m"] - crossing["dual 2x22.5 m"]
    elapsed = time.perf_counter() - t0
    report(
        f"criterion 6 (dual-hop gain at BER 1e-6, equal split): 22.5 m end-to-end gap "
        f"{gap_22:.2f} dB (>=10), 45 m end-to-end gap {gap_45:.2f} dB (>=25); crossings "
        + ", ".join(f"{k} {v:.2f} dBm" for k, v in crossing.items())
        + f"; {elapsed:.1f} s"
    )
    assert gap_22 >= 10.0
    assert gap_45 >= 25.0
    # Regression pins for this deterministic pipeline (seeded channel MC).
    assert gap_22 == pytest.approx(19.92, abs=0.05)
    assert gap_45 == pytest.approx(43.77, abs=0.05)


# ---------------------------------------------------------------------------
# Criterion 7: end-to-end BER nondecreasing in data rate (ISI penalty)
# ---------------------------------------------------------------------------

# Frozen values for the four-hop 105 m chain below (deterministic given the
# session channel seed); data rates 20M/100M/1G/5G/10G bps. Every per-hop
# average behind them agrees with an adaptive-quadrature fading oracle to
# 3e-9 relative (scripts/verify_chain_105m_pins.py); the channel's share of
# them is compared with a weight-floor trace by scripts/verify_trace_repins.py.
CHAIN_105M_EXPECTED = {
    ("gaussian", 24.0): (5.103879e-02, 1.886498e-01, 4.262346e-01, 4.887622e-01, 4.962605e-01),
    ("gaussian", 28.0): (3.981956e-03, 4.004988e-02, 2.488745e-01, 4.181640e-01, 4.611248e-01),
    ("gaussian", 32.0): (7.201265e-05, 2.663633e-03, 6.939511e-02, 2.355420e-01, 3.241769e-01),
    ("saddle_point", 24.0): (4.963097e-02, 1.818916e-01, 4.125712e-01, 4.810893e-01, 4.916904e-01),
    ("saddle_point", 28.0): (3.909170e-03, 3.899512e-02, 2.395713e-01, 4.043412e-01, 4.489948e-01),
    ("saddle_point", 32.0): (7.115080e-05, 2.617412e-03, 6.735919e-02, 2.267744e-01, 3.119527e-01),
}


def test_criterion_07_ber_nondecreasing_in_data_rate(fine_irs):
    t0 = time.perf_counter()
    lengths = [22.5, 25.0, 27.5, 30.0]  # three relays, 105 m end to end
    rates = [2e7, 1e8, 1e9, 5e9, 1e10]
    fading = [u.FadingModel(sigma_x_sq=SIGMA_X_SQ[d]) for d in lengths]
    per_rate = []
    for rate in rates:
        bit_duration = 1.0 / rate
        energies = [u.bit_frame_energies(fine_irs[d], bit_duration=bit_duration) for d in lengths]
        per_rate.append((energies, u.NoiseModel.typical(bit_duration)))

    lines = []
    moved = []
    for method in ("gaussian", "saddle_point"):
        for dbm in (24.0, 28.0, 32.0):
            vals = []
            for energies, noise in per_rate:
                chain = u.RelayChain.assemble(
                    energies,
                    fading,
                    noise,
                    total_power_per_bit=10 ** ((dbm - 30.0) / 10.0),
                )
                vals.append(u.e2e_ber_exact(u.chain_average_ber(chain, method)))
            assert all(b >= a for a, b in zip(vals, vals[1:])), (
                f"{method} at {dbm} dBm: BER decreased with data rate: {vals}"
            )
            expected = CHAIN_105M_EXPECTED[(method, dbm)]
            if vals != pytest.approx(expected, rel=1e-6):
                moved.append(f"{method} at {dbm:g} dBm: {vals} != pinned {expected}")
            lines.append(f"{method}@{dbm:g}dBm {vals[0]:.3e}->{vals[-1]:.3e}")
    # Every row that left the pins is named, not only the first.
    assert not moved, "CHAIN_105M_EXPECTED rows moved beyond 1e-6 relative:\n" + "\n".join(moved)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 7 (105 m four-hop chain, BER vs rate 20M..10G): nondecreasing for "
        + "; ".join(lines)
        + f"; {elapsed:.1f} s (<15 min)"
    )
    assert elapsed < 900.0


# ---------------------------------------------------------------------------
# Criterion 8: closed-form upper bound dominates and tightens
# ---------------------------------------------------------------------------


def test_criterion_08_upper_bound_dominates_and_tightens():
    rng = np.random.default_rng(88)
    for _ in range(10_000):
        p = rng.random(rng.integers(1, 11)) * 0.5
        assert u.e2e_ber_upper(p) >= u.e2e_ber_exact(p) - 1e-16
    worst_gap = 0.0
    for _ in range(10_000):
        p = rng.random(rng.integers(1, 11)) * 1e-3
        exact = u.e2e_ber_exact(p)
        if exact == 0.0:
            continue
        worst_gap = max(worst_gap, (u.e2e_ber_upper(p) - exact) / exact)
    report(
        f"criterion 8 (union-style upper bound): dominates exact on 1e4 vectors; "
        f"worst relative gap at p<=1e-3 is {worst_gap:.3e} (<1e-2)"
    )
    assert worst_gap < 0.01


# ---------------------------------------------------------------------------
# Criterion 9: pure-absorption water obeys Beer-Lambert; causality
# ---------------------------------------------------------------------------


def test_criterion_09_beer_lambert_and_causality():
    t0 = time.perf_counter()
    pure = u.WaterProperties(absorption=0.179, scattering=0.0)
    n = 1_000_000
    emitted = []
    lines = []
    for d in (9.0, 45.0):
        expected = math.exp(-pure.absorption * d)
        geometry = u.LinkGeometry(distance=d)

        analog = u.simulate_impulse_response(
            geometry, pure, n, 1e-10, rng_seed=7, ballistic_splitting=False
        )
        count = analog.total_fraction * n  # unit weights: an integer survivor count
        z = (count - n * expected) / math.sqrt(n * expected * (1.0 - expected))
        assert abs(z) <= 3.0, f"d={d}: {z:.2f} MC standard errors from Beer-Lambert"

        split = u.simulate_impulse_response(geometry, pure, n, 1e-10, rng_seed=7)
        rel = abs(split.total_fraction - expected) / expected
        assert rel < 1e-6
        # The launch cone only lengthens the path to the receiver plane.
        assert split.total_fraction <= expected

        emitted += [(analog, d), (split, d)]
        lines.append(f"d={d:g} m: analog z={z:+.2f}, split rel dev {rel:.2e}")

    # One scattering response joins the causality check.
    scatter = u.simulate_impulse_response(
        u.LinkGeometry(distance=9.0), u.WaterProperties.preset("coastal"), 200_000, 1e-10, 7
    )
    emitted.append((scatter, 9.0))
    for ir, d in emitted:
        ballistic = d * 1.331 / SPEED_OF_LIGHT  # straight-line flight in water
        assert ir.t_start == ballistic  # no energy bin opens earlier
    elapsed = time.perf_counter() - t0
    report(
        f"criterion 9 (Beer-Lambert, 1e6 photons): {'; '.join(lines)}; causality holds "
        f"on all {len(emitted)} emitted responses; {elapsed:.1f} s (<1 min)"
    )
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Criterion 10: log-normal fading statistics
# ---------------------------------------------------------------------------


def test_criterion_10_fading_statistics():
    fading = u.FadingModel(sigma_x_sq=0.1)
    rng = np.random.default_rng(123)
    h = u.sample_fading(fading, rng, size=1_000_000)
    mean = float(h.mean())
    si_hat = float(h.var() / mean**2)
    si_true = math.exp(0.4) - 1.0
    assert abs(mean - 1.0) <= 0.01
    assert abs(si_hat - si_true) / si_true <= 0.05

    moments = []
    for k in (0, 1, 2):
        val, _ = quad(
            lambda x, k=k: x**k * u.fading_pdf(x, fading),
            0.0, 60.0, epsabs=1e-14, epsrel=1e-12, limit=400, points=[0.5, 1.0, 2.0, 5.0],
        )
        moments.append(val)
    expected = [1.0, 1.0, math.exp(0.4)]
    for got, want in zip(moments, expected):
        assert got == pytest.approx(want, rel=1e-6)
    report(
        f"criterion 10 (fading statistics, 1e6 draws at sigma_x_sq=0.1): mean {mean:.5f} "
        f"(within 1%), S.I. {si_hat:.5f} vs {si_true:.5f} (within 5%); quadrature moments "
        f"[{moments[0]:.9f}, {moments[1]:.9f}, {moments[2]:.9f}] match [1, 1, e^0.4] to 1e-6"
    )
