"""Multi-hop underwater wireless optical link BER simulation.

End-to-end bit error rate of serial bit detect-and-forward relay chains
over turbulent, absorbing, scattering seawater: Monte Carlo channel
impulse responses, log-normal fading, three single-hop receiver models,
exact relay parity combinatorics, and a bit-level validation simulator,
driven either as a library or through the `uwoc-relay-sim` CLI.

The configuration and sweep API (`RunConfig`, `load_config`, `run_sweep`,
`emit_curves`, `main`) lives in `uwoc_relay_sim.cli`, which importing the
package does not load, so `python -m uwoc_relay_sim.cli` runs it once.
"""

__version__ = "0.1.0"

from .ber import (
    BER_METHODS,
    ISI_ENUMERATION_CAP,
    CountScale,
    HopBerInputs,
    NoiseModel,
    SaddlePointResult,
    conditional_ber_awgn,
    gaussian_ber,
    hop_average_ber,
    poisson_means,
    saddle_point_ber,
)
from .channel import (
    WATER_PRESETS,
    BitEnergies,
    ImpulseResponse,
    LinkGeometry,
    WaterProperties,
    bit_frame_energies,
    channel_memory,
    simulate_impulse_response,
)
from .errors import ConfigError, ConvergenceError
from .relay import (
    ChainBerResult,
    HopBerVector,
    RelayChain,
    chain_average_ber,
    e2e_ber_exact,
    e2e_ber_identical,
    e2e_ber_upper,
    prob_u_incorrect,
)
from .simulate import HISTORY_CAP, SimResult, run_bit_simulation
from .turbulence import (
    FadingModel,
    GhqRule,
    TurbulenceParams,
    fading_pdf,
    ghq_rule,
    sample_fading,
    scintillation_index_plane_wave,
    sigma_x_sq_from_si,
)

__all__ = [
    "__version__",
    "BER_METHODS",
    "BitEnergies",
    "ChainBerResult",
    "ConfigError",
    "ConvergenceError",
    "CountScale",
    "FadingModel",
    "GhqRule",
    "HISTORY_CAP",
    "HopBerInputs",
    "HopBerVector",
    "ISI_ENUMERATION_CAP",
    "ImpulseResponse",
    "LinkGeometry",
    "NoiseModel",
    "RelayChain",
    "SaddlePointResult",
    "SimResult",
    "TurbulenceParams",
    "WATER_PRESETS",
    "WaterProperties",
    "bit_frame_energies",
    "chain_average_ber",
    "channel_memory",
    "conditional_ber_awgn",
    "e2e_ber_exact",
    "e2e_ber_identical",
    "e2e_ber_upper",
    "fading_pdf",
    "gaussian_ber",
    "ghq_rule",
    "hop_average_ber",
    "poisson_means",
    "prob_u_incorrect",
    "run_bit_simulation",
    "sample_fading",
    "saddle_point_ber",
    "scintillation_index_plane_wave",
    "sigma_x_sq_from_si",
    "simulate_impulse_response",
]
