"""Grover quantum walks on spidernets S(a, b, c).

Three independent routes to the same transition amplitudes:

* explicit evolution on the graph (:mod:`spiderwalk.walk`),
* a one-dimensional three-component reduction (:mod:`spiderwalk.reduction`),
* a spectral integral against a free Meixner law (:mod:`spiderwalk.meixner`),

plus closed-form localization constants and bounds
(:mod:`spiderwalk.localization`).  The package exports the error classes,
the size caps, the names of the README's library example and the
computations that the command line runs; the rest is importable from its
submodule.
"""

from .errors import (
    ConvergenceFailureError,
    DimensionMismatchError,
    InvalidParamsError,
    NotLocalizedError,
    OutOfDomainError,
    ParamsOutOfRangeError,
    RadiusTooSmallError,
    SpiderwalkError,
    UnrealizableWiringError,
)
from .graph import MAX_HALF_EDGES, SpidernetParams, build_spidernet
from .localization import (
    amplitude,
    asymptotic_amplitude,
    cesaro_origin,
    cesaro_strata,
    classify,
    exp_localization_bound,
    origin_amplitude_series,
    random_walk_return,
)
from .meixner import MAX_QUADRATURE_NODES, integrate, law_from_pq, quadrature_nodes
from .reduction import (
    MAX_CUTOFF,
    PqParams,
    ReducedEvolver,
    ReducedState,
    embed,
    params_from_spidernet,
    stratum_state,
    u_eigensystem,
)
from .walk import GraphEvolver, evolve, isotropic_initial_state, vertex_distribution

__version__ = "0.1.0"

__all__ = [
    "SpiderwalkError",
    "InvalidParamsError",
    "UnrealizableWiringError",
    "DimensionMismatchError",
    "RadiusTooSmallError",
    "ConvergenceFailureError",
    "ParamsOutOfRangeError",
    "OutOfDomainError",
    "NotLocalizedError",
    "MAX_HALF_EDGES",
    "MAX_CUTOFF",
    "MAX_QUADRATURE_NODES",
    "SpidernetParams",
    "build_spidernet",
    "isotropic_initial_state",
    "evolve",
    "vertex_distribution",
    "GraphEvolver",
    "PqParams",
    "params_from_spidernet",
    "ReducedState",
    "ReducedEvolver",
    "stratum_state",
    "embed",
    "u_eigensystem",
    "law_from_pq",
    "quadrature_nodes",
    "integrate",
    "amplitude",
    "asymptotic_amplitude",
    "classify",
    "cesaro_origin",
    "cesaro_strata",
    "exp_localization_bound",
    "random_walk_return",
    "origin_amplitude_series",
]
