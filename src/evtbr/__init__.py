"""Event-camera stream encoding with temporal binary codes and spiking filters.

An event stream is sliced into N binary frames of Δt each; a pixel's slice
bits, read as a base-2 number, give one integer code per accumulation
window ΔT = N·Δt. The spiking variants put a grid of leaky
integrate-and-fire neurons between the events and the bit stack, so
isolated (noise) events die out in the membrane while persistent activity
still sets bits.

The package re-exports every name in its submodules' ``__all__`` lists.
"""

from . import encoder, events, io, metrics, neurons, noise, synth
from .encoder import *  # noqa: F401,F403
from .events import *  # noqa: F401,F403
from .io import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .neurons import *  # noqa: F401,F403
from .noise import *  # noqa: F401,F403
from .synth import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *encoder.__all__,
    *events.__all__,
    *io.__all__,
    *metrics.__all__,
    *neurons.__all__,
    *noise.__all__,
    *synth.__all__,
]
