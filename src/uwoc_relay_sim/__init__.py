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

from . import ber, channel, errors, relay, simulate, turbulence
from .ber import *  # noqa: F403
from .channel import *  # noqa: F403
from .errors import *  # noqa: F403
from .relay import *  # noqa: F403
from .simulate import *  # noqa: F403
from .turbulence import *  # noqa: F403

__all__ = [
    "__version__",
    *sorted(
        name
        for module in (ber, channel, errors, relay, simulate, turbulence)
        for name in module.__all__
    ),
]
