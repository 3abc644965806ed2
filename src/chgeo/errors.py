"""Exception types shared across the package, and its checks of integer and real arguments."""

import numbers
import operator

__all__ = [
    "DegeneratePlaneError",
    "FocalPointError",
    "FocalRadiusError",
    "OpenCaseError",
    "UnresolvedSpectrumError",
    "UnsupportedModelError",
    "ValidationError",
    "as_int",
    "as_real",
]


def as_int(name: str, value) -> int:
    """``value`` as a plain int; a float, string or bool raises ValueError naming ``name``.

    Numpy integers are accepted and stored as plain ints, so they reach JSON.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_real(name: str, value) -> float:
    """``value`` as a float; a bool or a non-real value raises ValueError naming ``name``.

    Numpy floats and integers are accepted and stored as plain floats, so they reach JSON.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


class DegeneratePlaneError(ValueError):
    """A sectional curvature was requested for a degenerate 2-plane."""


class ValidationError(ValueError):
    """Constructed data violates a structural invariant."""


class UnresolvedSpectrumError(ValueError):
    """Two distinct principal curvatures lie closer than MERGE_TOL.

    ``job`` is the index of the tube in its ``tube_spectra`` call, when
    the tube engine raised it, else None.
    """

    def __init__(self, message: str, job: int | None = None):
        super().__init__(message)
        self.job = job


class UnsupportedModelError(ValueError):
    """The requested computation is not defined for this model."""


class FocalPointError(RuntimeError):
    """A map differential is singular at the requested distance."""


class FocalRadiusError(FocalPointError):
    """A tube/equidistant construction hit a focal distance."""


class OpenCaseError(ValueError):
    """The requested classification is not available in this dimension."""
