"""Check the 105 m four-hop chain pins of acceptance criterion 7.

Rebuilds the criterion's seeded impulse responses, then for every method,
power and data rate compares each hop's `hop_average_ber` with an
adaptive-quadrature (`scipy.integrate.quad`) fading oracle, and prints the
end-to-end values in the layout of `CHAIN_105M_EXPECTED`.

The oracle (`quad_fading_oracle` in tests/test_ber.py) integrates the
library's fading-free pattern average against the log-normal density, so
it shares no node with the quadrature rule under test. Takes about an
hour and a half on one core.

    PYTHONPATH=src python scripts/verify_chain_105m_pins.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import uwoc_relay_sim as u

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import SIGMA_X_SQ, make_ir  # noqa: E402
from test_ber import quad_fading_oracle  # noqa: E402

LENGTHS = [22.5, 25.0, 27.5, 30.0]
RATES = [2e7, 1e8, 1e9, 5e9, 1e10]


def main() -> None:
    irs = {d: make_ir(d, 1e-11) for d in LENGTHS}
    fading = [u.FadingModel(sigma_x_sq=SIGMA_X_SQ[d]) for d in LENGTHS]
    worst = 0.0
    for method in ("gaussian", "saddle_point"):
        for dbm in (24.0, 28.0, 32.0):
            vals = []
            for rate in RATES:
                bit_duration = 1.0 / rate
                chain = u.RelayChain.assemble(
                    [u.bit_frame_energies(irs[d], bit_duration=bit_duration) for d in LENGTHS],
                    fading,
                    u.NoiseModel.typical(bit_duration),
                    total_power_per_bit=10 ** ((dbm - 30.0) / 10.0),
                )
                per_hop = u.chain_average_ber(chain, method)
                for i, hop in enumerate(chain.hops):
                    p = float(per_hop[i])
                    oracle = quad_fading_oracle(hop, method)
                    rel = abs(p - oracle) / oracle
                    worst = max(worst, rel)
                    print(
                        f"{method} {dbm:g} dBm {rate:.0e} bps hop {i}: "
                        f"rule {p:.12e} quad {oracle:.12e} rel {rel:.2e}",
                        flush=True,
                    )
                vals.append(u.e2e_ber_exact(per_hop))
            print(f'    ("{method}", {dbm}): ({", ".join(f"{v:.6e}" for v in vals)}),', flush=True)
    print(f"worst per-hop relative deviation from quad: {worst:.2e}")


if __name__ == "__main__":
    main()
