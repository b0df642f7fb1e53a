"""altcausal: alternating causal order, echo links, event-counted clocks.

Six building blocks:

* ``qcore``       dense operators, states, channels
* ``process``     process matrices, duality families, the order switch
* ``photonclock`` bouncing-photon clock, tick ledger, recurrence cascade
* ``absorber``    the absorber reflection identity, without numpy
* ``piflink``     echoed slice link and its information accounting
* ``cli``         experiment runner producing JSON / CSV / SVG reports

Each layer is imported on first access (``altcausal.qcore`` or
``from altcausal import qcore``), so a run loads only the layers it uses.
"""

import importlib

__version__ = "0.1.0"

__all__ = ["qcore", "process", "photonclock", "absorber", "piflink", "__version__"]


def __getattr__(name: str):
    if name in __all__:   # a layer; importing it binds it here, so this runs once per layer
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
