"""Scheduling service order for items whose success probability decays while waiting.

Each of n items starts with a success probability; serving them one per
stage, an item's probability has decayed by the time its turn comes, either
additively with clamping at zero or multiplicatively.  This package
evaluates service orders (success-count distribution, expected successes,
all-success probability), finds optimal orders exhaustively or by provably
optimal sorting strategies, and analyzes populations with uniform random
initial probabilities (probability that no item decays to zero, by closed
forms and by Monte Carlo, and a seeded draw's stage-by-item table).  The
command line, which reads scenario documents and renders every output
format, lives in ``decaysched.cli`` and is not imported here; run it as
``decaysched`` or ``python -m decaysched``.
"""

from . import analysis, decay, distribution, scheduler
from .analysis import *
from .decay import *
from .distribution import *
from .scheduler import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *distribution.__all__,
    *decay.__all__,
    *scheduler.__all__,
    *analysis.__all__,
]
