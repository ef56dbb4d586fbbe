"""Rotation averaging on SO(3) via dissipative flow on the unit-quaternion sphere."""

from . import control, costs, geometry, solvers
from .control import *  # noqa: F403
from .costs import *  # noqa: F403
from .geometry import *  # noqa: F403
from .solvers import *  # noqa: F403

__version__ = "0.1.0"


def __getattr__(name):
    """Import :mod:`rotavg.sweep` on first use (PEP 562).

    ``average`` and ``distance`` never run the three-rotation family, so a
    process that only averages does not compile or execute it. The first
    access to ``sweep``, to ``__all__`` or to any other name not yet bound
    here imports the module and binds ``sweep``, its exported names and
    ``__all__`` as eager imports would have; from then on they are read like
    every other root name. Other dunder probes, such as doctest's ``__test__``,
    import nothing.
    """
    if name.startswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # an import statement, which -X importtime lists (importlib.import_module
    # is not listed); ``from . import sweep`` would first ask this function
    # for ``sweep``, and recurse. Importing binds ``sweep`` here, as it binds
    # every submodule on its package.
    from .sweep import __all__ as exported

    root = globals()
    if "__all__" not in root:  # first use: bind once, so a root name rebound later stays
        root.update((n, getattr(root["sweep"], n)) for n in exported)
        modules = (control, costs, geometry, solvers)
        root["__all__"] = [*(n for m in modules for n in m.__all__), *exported, "__version__"]
    if name in root:
        return root[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    """Every root name, the sweep's among them: listing them imports it."""
    __getattr__("__all__")
    return sorted(globals())
