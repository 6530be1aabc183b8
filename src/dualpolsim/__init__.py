"""Link-level simulator for dual-polarization 2x2 MIMO in indoor small cells.

The package maps a dual-polarized antenna's cross-polarization
discrimination (XPD) to transmit correlation, converts correlation to
equivalent omnidirectional antenna spacing, and evaluates zero-forcing
throughput distributions over synthetic user populations.

Each layer module's ``__all__`` is the one statement of its public API;
the package re-exports every name in it, and its own ``__all__`` is
``__version__`` followed by those lists in layer order.
"""

__version__ = "0.1.0"  # bound before the layers: harness imports it

from . import correlation, pattern, chanmodel, link, harness
from .correlation import *  # noqa: F403
from .pattern import *  # noqa: F403
from .chanmodel import *  # noqa: F403
from .link import *  # noqa: F403
from .harness import *  # noqa: F403

__all__ = ["__version__", *correlation.__all__, *pattern.__all__, *chanmodel.__all__,
           *link.__all__, *harness.__all__]
