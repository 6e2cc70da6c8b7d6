"""Blind data detection for sparse massive-MIMO channels.

Recovers transmitted symbol frames from the angular-domain received block
alone by maximizing the entrywise cubed l3 norm of the projected signal over
the complex Stiefel manifold, then resolving the inherent phase-permutation
ambiguity from one reference symbol and short user-ID headers.

The public names are each module's ``__all__``, re-exported here.
"""

from . import channel, detector, harness, manifold, metrics, signal
from .channel import *
from .detector import *
from .harness import *
from .manifold import *
from .metrics import *
from .signal import *

__all__ = [*channel.__all__, *detector.__all__, *harness.__all__,
           *manifold.__all__, *metrics.__all__, *signal.__all__]

__version__ = "0.1.0"
