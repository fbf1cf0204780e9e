"""Exception types raised across the package.

All of these derive from :class:`ValueError` so that callers who do not
care about the fine-grained category can still catch misuse the usual way.
"""

import operator

__all__ = [
    "SpiderwalkError",
    "InvalidParamsError",
    "UnrealizableWiringError",
    "DimensionMismatchError",
    "RadiusTooSmallError",
    "ConvergenceFailureError",
    "ParamsOutOfRangeError",
]


class SpiderwalkError(ValueError):
    """Base class for all errors raised by this package."""


class InvalidParamsError(SpiderwalkError):
    """Parameters violate a structural constraint (a >= 1, b >= 2, 1 <= c <= b-1, ...)."""


class UnrealizableWiringError(SpiderwalkError):
    """No simple graph realizes the requested intra-stratum wiring."""


class DimensionMismatchError(SpiderwalkError):
    """A state vector does not match the half-edge space it is used with."""


class RadiusTooSmallError(SpiderwalkError):
    """The truncated graph is too small for the requested evolution horizon."""


class ConvergenceFailureError(SpiderwalkError):
    """An eigensolver failed, or its output failed a residual check."""


class ParamsOutOfRangeError(SpiderwalkError):
    """Walk parameters lie outside the admissible region: p, q > 0, r >= 0
    and p + q + r = 1, with q <= p < 1 for the spectral law and pq > 0 for
    it and for the cutoff spectrum; or a spidernet's b has no float."""


def checked_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as an int, which must lie in lo .. hi, or from lo on when
    ``hi`` is None.  A value that is not an integer (a float, say) or lies
    out of range raises :class:`InvalidParamsError`; numpy integers pass,
    through ``operator.index``."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or index < lo or (hi is not None and index > hi):
        span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise InvalidParamsError(f"{name} must be an integer {span}, got {value!r}")
    return index
