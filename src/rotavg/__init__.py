"""Rotation averaging on SO(3) via dissipative flow on the unit-quaternion sphere."""

from . import control, costs, geometry, solvers, sweep
from .control import *  # noqa: F403
from .costs import *  # noqa: F403
from .geometry import *  # noqa: F403
from .solvers import *  # noqa: F403
from .sweep import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*control.__all__, *costs.__all__, *geometry.__all__, *solvers.__all__, *sweep.__all__, "__version__"]
