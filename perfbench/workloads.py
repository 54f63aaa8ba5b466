"""The benchmark's workloads: generated `uwoc-relay-sim run` configurations.

A workload is one or more configurations that one round of the benchmark
runs, each with its own `uwoc-relay-sim run` call, and the `--seed` each
round passes to the CLI. The CLI seed drives the photon tracer and the
bit simulator.

The channel memory L that the tracer's last few photons decide (2 to 4
late bins) sets the cost of the ISI average, and it moves several-fold
between seeds. `paper-gain-1g` and `isi-10g` measure the ISI average at a
known memory, so they trace with a fixed CLI seed and the benchmark seed
shifts their power grids instead. `mc-validation` passes a seed derived
from the benchmark seed and the round to the CLI.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

ROUND_SEED_STRIDE = 1000
"""Round r of a run with seed s passes `--seed s * ROUND_SEED_STRIDE + r`, unless pinned."""
GRID_SHIFT_DB = 0.2
"""A pinned-channel workload shifts its power grid by (seed mod 4) times this."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: dict[str, dict]
    channel_seed: int | None = None
    """Fixed CLI seed, or None to derive one from the benchmark seed per round."""

    def configs_for(self, seed: int) -> dict[str, dict]:
        if self.channel_seed is None:
            return self.configs
        shift = GRID_SHIFT_DB * (seed % 4)
        configs = copy.deepcopy(self.configs)
        for config in configs.values():
            config["power_sweep_dbm"]["start"] += shift
            config["power_sweep_dbm"]["stop"] += shift
        return configs

    def cli_seed(self, seed: int, round_index: int) -> int:
        if self.channel_seed is not None:
            return self.channel_seed
        return seed * ROUND_SEED_STRIDE + round_index


def _config(lengths_m, rate_bps, methods, start, stop, step, n_photons, n_bits=1000):
    return {
        "water": {"preset": "coastal"},
        "hops": {"lengths_m": list(lengths_m)},
        "data_rates_bps": [rate_bps],
        "power_sweep_dbm": {"start": start, "stop": stop, "step": step},
        "methods": list(methods),
        "mc": {"n_photons": n_photons, "n_bits": n_bits, "seed": 0},
    }


ANALYTIC = ("awgn_ghqf", "gaussian", "saddle_point")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-gain-1g",
            "saddle-point solves dominate a 1 Gbps single-hop vs dual-hop comparison "
            "straddling BER 1e-6; two identical hops; L = 6 and 10, so ISI is enumerated",
            {
                # With CLI seed 1 the 22.5 m hop crosses BER 1e-6 at 22.4-22.6 dBm
                # and the 2 x 11.25 m chain at 2.8-2.9 dBm, inside both grids
                # for every grid shift.
                "single": _config([22.5], 1e9, ANALYTIC, 21.5, 23.5, 2.0, 200_000),
                "dual": _config([11.25, 11.25], 1e9, ANALYTIC, 1.5, 3.5, 2.0, 200_000),
            },
            channel_seed=1,
        ),
        Workload(
            "isi-10g",
            "2 x 22.5 m at 10 Gbps with channel memory L = 301: the sampled 65536-pattern "
            "ISI average takes the time and the peak memory; no saddle point, no simulation",
            {"link": _config([22.5, 22.5], 1e10, ANALYTIC[:2], 24.0, 33.0, 3.0, 200_000)},
            channel_seed=11001,
        ),
        Workload(
            "mc-validation",
            "three distinct hops at 1 Gbps: 1e6-photon traces and 1e6-bit simulations "
            "dominate; two zero-error points hit the Wilson-interval fault",
            {
                # Points at 2 and 9.5 dBm see hundreds of errors or more; 17 and
                # 24.5 dBm are below 1e-12 BER, so the simulator counts none.
                "chain": _config(
                    [10.0, 12.5, 15.0], 1e9, ("awgn_ghqf", "montecarlo"),
                    2.0, 24.5, 7.5, 1_000_000, n_bits=1_000_000,
                ),
            },
        ),
    )
}


def power_points(config: dict) -> list[float]:
    sweep = config["power_sweep_dbm"]
    n = int((sweep["stop"] - sweep["start"]) / sweep["step"] + 1e-9)
    return [sweep["start"] + k * sweep["step"] for k in range(n + 1)]


def points_per_round(workload: Workload) -> int:
    """Curve points (method, rate, power cells) one round attempts."""
    return sum(
        len(c["methods"]) * len(c["data_rates_bps"]) * len(power_points(c))
        for c in workload.configs.values()
    )
