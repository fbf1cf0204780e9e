"""Grover quantum walks on spidernets S(a, b, c).

Three independent routes to the same transition amplitudes, one module
each:

* explicit evolution on the graph (:mod:`spiderwalk.graph` builds it,
  :mod:`spiderwalk.walk` steps it),
* a one-dimensional three-component reduction, with the Cesaro averages
  and amplitude series it drives (:mod:`spiderwalk.reduction`),
* a spectral integral against a free Meixner law, whose atom decides
  localization, with the exact classification that the atom's constants
  come from (:mod:`spiderwalk.meixner`),

plus the cross-validation battery (:mod:`spiderwalk.verify`), the command
line (:mod:`spiderwalk.cli`) and the error classes
(:mod:`spiderwalk.errors`).  The package exports the error classes,
the size caps, the names of the README's library example and the
computations that the command line runs; the rest is importable from its
submodule.
"""

from .errors import (
    ConvergenceFailureError,
    DimensionMismatchError,
    InvalidParamsError,
    ParamsOutOfRangeError,
    RadiusTooSmallError,
    SpiderwalkError,
    UnrealizableWiringError,
)
from .graph import MAX_HALF_EDGES, SpidernetParams, build_spidernet
from .meixner import (
    MAX_QUADRATURE_NODES,
    amplitude_series,
    classify,
    law_from_pq,
    law_from_spidernet,
    quadrature_nodes,
    random_walk_return_series,
)
from .reduction import (
    MAX_CUTOFF,
    MAX_LADDER_CELLS,
    PqParams,
    ReducedEvolver,
    ReducedState,
    cesaro_strata,
    embed,
    origin_amplitude_series,
    params_from_spidernet,
    u_eigensystem,
)
from .walk import (
    GraphEvolver,
    evolve,
    isotropic_initial_state,
    light_cone_radius,
    vertex_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "SpiderwalkError",
    "InvalidParamsError",
    "UnrealizableWiringError",
    "DimensionMismatchError",
    "RadiusTooSmallError",
    "ConvergenceFailureError",
    "ParamsOutOfRangeError",
    "MAX_HALF_EDGES",
    "MAX_CUTOFF",
    "MAX_LADDER_CELLS",
    "MAX_QUADRATURE_NODES",
    "SpidernetParams",
    "build_spidernet",
    "isotropic_initial_state",
    "evolve",
    "light_cone_radius",
    "vertex_distribution",
    "GraphEvolver",
    "PqParams",
    "params_from_spidernet",
    "ReducedState",
    "ReducedEvolver",
    "embed",
    "u_eigensystem",
    "law_from_pq",
    "law_from_spidernet",
    "quadrature_nodes",
    "amplitude_series",
    "classify",
    "cesaro_strata",
    "random_walk_return_series",
    "origin_amplitude_series",
]
