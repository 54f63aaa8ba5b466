"""Checks of the program's sweep outputs; each returns a list of problems.

`check_round` tests properties every round's curves must have.
`check_references` compares curves with `oracle` computations made from
the impulse responses `uwoc-relay-sim channel` writes for the same
config and seed; it runs on the first round of a run.
"""

from __future__ import annotations

import math
from pathlib import Path

import oracle
from workloads import power_points

WILSON_MESSAGE = "confidence bounds must bracket ber_hat"
BINS_PER_BIT = 10
"""Response bins per bit: the program's bin width is the shortest bit period / 10."""
TAIL_EPSILON = 1e-6
MIN_CHECKED = 2
ENUMERATION_CAP = 16
SAMPLED_RTOL = 1e-2
"""Tolerance for a curve whose hops' ISI average the program samples."""


def _curves(report: dict) -> dict[str, dict]:
    return {curve["method"]: curve for curve in report["curves"]}


def _xy(curve: dict) -> tuple[list[float], list[float]]:
    return [p["power_dbm"] for p in curve["points"]], [p["ber"] for p in curve["points"]]


def _crossing(xs, ys, target: float = 1e-6) -> float | None:
    """Power where a curve falls through `target`, log-linear between grid points."""
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        if y0 >= target > y1 > 0.0:
            frac = (math.log(y0) - math.log(target)) / (math.log(y0) - math.log(y1))
            return x0 + frac * (x1 - x0)
    return None


def curve_problems(name: str, report: dict, config: dict) -> list[str]:
    """Every curve covers the grid, lies in [0, 0.5] and is nonincreasing in power."""
    problems = []
    grid = power_points(config)
    curves = _curves(report)
    if sorted(curves) != sorted(config["methods"]):
        problems.append(f"{name}: curves {sorted(curves)} != methods {sorted(config['methods'])}")
    for method, curve in curves.items():
        xs, ys = _xy(curve)
        failed = [f["power_dbm"] for f in curve["metadata"]["failed_points"]]
        if sorted(xs + failed) != grid:
            problems.append(f"{name}/{method}: points {xs} + failed {failed} != grid {grid}")
        if any(not 0.0 <= y <= 0.5 for y in ys):
            problems.append(f"{name}/{method}: BER outside [0, 0.5]: {ys}")
        if any(b > a for a, b in zip(ys, ys[1:])):
            problems.append(f"{name}/{method}: BER increases with power: {ys}")
    return problems


def check_round(workload: str, configs: dict[str, dict], reports: dict[str, dict]) -> list[str]:
    problems = []
    for name, config in configs.items():
        problems += curve_problems(name, reports[name], config)
    if problems:
        return problems
    if workload == "paper-gain-1g":
        problems += _paper_gain_round(reports)
    elif workload == "isi-10g":
        problems += _no_failures(reports)
    elif workload == "mc-validation":
        problems += _mc_round(configs["chain"], reports["chain"])
    return problems


def _no_failures(reports: dict[str, dict]) -> list[str]:
    return [
        f"{name}/{curve['method']}: failed points {curve['metadata']['failed_points']}"
        for name, report in reports.items()
        for curve in report["curves"]
        if curve["metadata"]["failed_points"]
    ]


def _paper_gain_round(reports: dict[str, dict]) -> list[str]:
    problems = _no_failures(reports)
    if problems:
        return problems
    for name, report in reports.items():
        curves = _curves(report)
        _, sp = _xy(curves["saddle_point"])
        xs, ga = _xy(curves["gaussian"])
        for x, a, b in zip(xs, sp, ga):
            if not (b > 0.0 and 0.5 <= a / b <= 2.0):
                problems.append(f"{name}: saddle_point {a:.4g} vs gaussian {b:.4g} at {x} dBm")
    single, dual = _curves(reports["single"]), _curves(reports["dual"])
    for method in single:
        x1 = _crossing(*_xy(single[method]))
        x2 = _crossing(*_xy(dual[method]))
        if x1 is None or x2 is None:
            problems.append(f"{method}: a power grid does not straddle BER 1e-6")
        elif x1 - x2 < 10.0:
            problems.append(f"{method}: dual-hop gain at BER 1e-6 is {x1 - x2:.2f} dB < 10 dB")
    return problems


def _mc_round(config: dict, report: dict) -> list[str]:
    """Simulated BER against `awgn_ghqf`; zero-error points may fail only by the Wilson fault."""
    problems = []
    n_bits = config["mc"]["n_bits"]
    curves = _curves(report)
    analytic = dict(zip(*_xy(curves["awgn_ghqf"])))
    if curves["awgn_ghqf"]["metadata"]["failed_points"]:
        problems.append(f"awgn_ghqf: failed points {curves['awgn_ghqf']['metadata']['failed_points']}")
    sim = curves["montecarlo"]
    simulated = dict(zip(*_xy(sim)))
    failed = {f["power_dbm"]: f["reason"] for f in sim["metadata"]["failed_points"]}
    compared = zero_error = 0
    for x, p in analytic.items():
        expect_none = n_bits * p < 1e-3
        if x in failed:
            if not expect_none or WILSON_MESSAGE not in failed[x]:
                problems.append(f"montecarlo at {x} dBm failed ({failed[x]!r}), "
                                f"expected {n_bits * p:.3g} errors")
            zero_error += 1
            continue
        ber = simulated[x]
        if expect_none:
            if ber != 0.0:
                problems.append(f"montecarlo at {x} dBm: BER {ber:.3g} where awgn_ghqf gives {p:.3g}")
            zero_error += 1
        elif round(ber * n_bits) >= 100:
            se = math.sqrt(p * (1.0 - p) / n_bits)
            if abs(ber - p) > 4.0 * se:
                problems.append(f"montecarlo at {x} dBm: {ber:.5g} vs awgn_ghqf {p:.5g} "
                                f"is {abs(ber - p) / se:.1f} standard errors off")
            compared += 1
    if compared < MIN_CHECKED or zero_error < MIN_CHECKED:
        problems.append(f"montecarlo: {compared} points with >= 100 errors and {zero_error} "
                        f"zero-error points; the workload needs {MIN_CHECKED} of each")
    return problems


REFERENCED_WORKLOADS = ("paper-gain-1g", "isi-10g")
"""Workloads whose curves `check_references` compares with the impulse responses."""


def check_references(workload: str, configs: dict[str, dict], reports: dict[str, dict],
                     response_dirs: dict[str, Path]) -> list[str]:
    """Compare `awgn_ghqf`/`gaussian` curves with reference values from the impulse responses."""
    if workload == "paper-gain-1g":
        return sum((
            _reference(name, configs[name], reports[name], response_dirs[name],
                       methods=("awgn_ghqf", "gaussian"), ber_range=(1e-12, 1e-2), rtol=1e-5)
            for name in configs
        ), [])
    if workload == "isi-10g":
        return _reference("link", configs["link"], reports["link"],
                          response_dirs["link"], methods=("awgn_ghqf", "gaussian"),
                          ber_range=(1e-9, 1e-2), rtol=SAMPLED_RTOL)
    return []


def _reference(name, config, report, response_dir, *, methods, ber_range, rtol) -> list[str]:
    """Reference values use every ISI pattern: enumerated up to memory 16, else convolved.

    Beyond memory 16 the program averages a fixed sample of 2^16 patterns,
    so its values carry a sampling error and are held to `SAMPLED_RTOL`.
    """
    problems = []
    rate = config["data_rates_bps"][0]
    bit_duration = 1.0 / rate
    lengths = config["hops"]["lengths_m"]
    curves = _curves(report)
    metadata = curves[methods[0]]["metadata"]
    sigmas = metadata["sigma_x_sq_per_hop"]
    n_bd, sigma_th_sq = oracle.noise_terms(bit_duration)

    taps = {}
    for i, d in enumerate(sorted(set(lengths))):
        slots = oracle.slot_energies(
            oracle.read_response(response_dir / f"impulse_response_{i}.csv"), BINS_PER_BIT)
        memory = oracle.channel_memory(slots, TAIL_EPSILON)
        taps[d] = (slots[0], slots[1: memory + 1])
    memories = [taps[d][1].size for d in lengths]
    if memories != metadata["memory_per_hop"]:
        return [f"{name}: channel memory {metadata['memory_per_hop']} != reference {memories}"]

    isi = {}
    for d, (_, e_isi) in taps.items():
        isi[d] = ((oracle.enumerated_isi_sums(e_isi), None) if e_isi.size <= ENUMERATION_CAP
                  else oracle.isi_distribution(e_isi))
    if max(memories) > ENUMERATION_CAP:
        rtol = max(rtol, SAMPLED_RTOL)
    for method in methods:
        checked = 0
        for x, y in zip(*_xy(curves[method])):
            n_ph = oracle.photons_per_bit(10.0 ** ((x - 30.0) / 10.0) / len(lengths), bit_duration)
            per_length = {}
            hop_bers = []
            for d, s2 in zip(lengths, sigmas):
                if (d, s2) not in per_length:
                    values, weights = isi[d]
                    per_length[d, s2] = oracle.hop_ber(
                        method, n_ph * values, n_ph * taps[d][0], n_bd, sigma_th_sq, s2, weights)
                hop_bers.append(per_length[d, s2])
            ref = oracle.parity(hop_bers)
            if not ber_range[0] <= ref <= ber_range[1]:
                continue
            checked += 1
            if abs(y / ref - 1.0) > rtol:
                problems.append(f"{name}/{method} at {x} dBm: {y:.8g} vs reference {ref:.8g} "
                                f"({abs(y / ref - 1.0):.2g} relative > {rtol:g})")
        if checked < MIN_CHECKED:
            problems.append(f"{name}/{method}: only {checked} points with reference BER in "
                            f"{ber_range}")
    return problems
