"""Spans around the program's public functions, recorded from outside it.

`Tracer.install` replaces each traced function under the name its caller
looks it up by (for example `cli.simulate_impulse_response`, not
`channel.simulate_impulse_response`), so the program itself is unchanged.
Spans stay in memory as (name, start, end, parent, attrs) and are written
out once, when the traced sweep ends. `layer_metrics` turns one round's
spans into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

ISI_ENUMERATION_CAP = 16
ISI_SAMPLE_COUNT = 1 << 16
"""The program averages all 2^L ISI patterns up to the cap, and this many beyond it."""


def _photons(args, kwargs):
    return {"photons": int(kwargs.get("n_photons", args[2] if len(args) > 2 else 0))}


def _hop(args, kwargs):
    inputs = args[0]
    method = kwargs.get("method", args[1] if len(args) > 1 else None)
    return {"method": method, "memory": int(inputs.energies.memory)}


def _bits(args, kwargs):
    chain = args[0]
    n_bits = kwargs.get("n_bits", args[1] if len(args) > 1 else 0)
    return {"bit_hops": int(n_bits) * len(chain.hops)}


# (module looked up by the caller, attribute, span name, attribute recorder)
TRACE_POINTS = (
    ("cli", "run_sweep", "cli.run_sweep", None),
    ("cli", "emit_curves", "cli.emit_curves", None),
    ("cli", "simulate_impulse_response", "channel.simulate_impulse_response", _photons),
    ("cli", "bit_frame_energies", "channel.bit_frame_energies", None),
    ("cli", "scintillation_index_plane_wave", "turbulence.scintillation_index_plane_wave", None),
    ("cli", "chain_average_ber", "relay.chain_average_ber", None),
    ("cli", "run_bit_simulation", "simulate.run_bit_simulation", _bits),
    ("relay", "hop_average_ber", "ber.hop_average_ber", _hop),
    ("ber", "saddle_point_ber", "ber.saddle_point_ber", None),
)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, record_attrs=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    record_attrs(args, kwargs) if record_attrs else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "uwoc_relay_sim") -> None:
        """Patch every trace point; one the program lacks is skipped with a warning."""
        for module_name, attr, name, record_attrs in TRACE_POINTS:
            module = importlib.import_module(f"{package}.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"perfbench: {module_name}.{attr} not found; its metrics read 0",
                      file=sys.stderr)
                continue
            setattr(module, attr, self.wrap(fn, name, record_attrs))


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one round from its spans.

    Times are seconds summed over calls; a `self` time excludes the time
    of the span's direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start

    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    photons = bit_hops = patterns = 0
    pattern_mb = 0.0
    hop_s = {"awgn_ghqf": 0.0, "gaussian": 0.0, "saddle_point": 0.0}
    for i, (name, start, end, _, attrs) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        if name == "channel.simulate_impulse_response":
            photons += attrs["photons"]
        elif name == "simulate.run_bit_simulation":
            bit_hops += attrs["bit_hops"]
        elif name == "ber.hop_average_ber":
            hop_s[attrs["method"]] = hop_s.get(attrs["method"], 0.0) + (end - start)
            memory = attrs["memory"]
            rows = 1 << memory if memory <= ISI_ENUMERATION_CAP else ISI_SAMPLE_COUNT
            patterns += rows
            pattern_mb = max(pattern_mb, rows * memory * 8 / 1e6)

    trace_s = total.get("channel.simulate_impulse_response", 0.0)
    sim_s = total.get("simulate.run_bit_simulation", 0.0)
    return {
        "channel.trace_s": trace_s,
        "channel.photons_per_s": photons / trace_s if trace_s else 0.0,
        "channel.frame_s": total.get("channel.bit_frame_energies", 0.0),
        "turbulence.scint_s": total.get("turbulence.scintillation_index_plane_wave", 0.0),
        "ber.hop_calls": calls.get("ber.hop_average_ber", 0),
        "ber.saddle_point.hop_s": hop_s["saddle_point"],
        "ber.saddle_solves": calls.get("ber.saddle_point_ber", 0),
        "ber.saddle_solve_s": total.get("ber.saddle_point_ber", 0.0),
        "ber.gaussian.hop_s": hop_s["gaussian"],
        "ber.awgn_ghqf.hop_s": hop_s["awgn_ghqf"],
        "ber.isi_patterns": patterns,
        "ber.isi_pattern_mb": pattern_mb,
        "relay.combine_s": self_time.get("relay.chain_average_ber", 0.0),
        "simulate.sim_s": sim_s,
        "simulate.bit_hops_per_s": bit_hops / sim_s if sim_s else 0.0,
        "cli.self_s": self_time.get("cli.run_sweep", 0.0),
        "cli.emit_s": total.get("cli.emit_curves", 0.0),
    }
