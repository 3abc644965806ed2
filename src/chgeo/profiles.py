"""Principal-curvature profiles shared by the engine modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HopfAttitude",
    "PrincipalProfile",
    "MERGE_TOL",
    "eigenspaces",
    "merge_spectrum",
]

# neighbouring eigenvalues of a spectrum closer than this share one eigenspace
MERGE_TOL = 1e-9


@dataclass(frozen=True)
class HopfAttitude:
    """Projection data of the tangential part of J(normal).

    b1, b2 are the (positive) lengths of the projections onto the
    principal distributions of lam1 and lam2; the remaining distinct
    curvature is the axis class whose distribution contains the
    distinguished geodesic direction.
    """

    b1: float
    b2: float
    lam1: float
    lam2: float

    def __post_init__(self):
        if self.b1 < 0 or self.b2 < 0:
            raise ValueError("projection lengths must be non-negative")
        if abs(self.b1**2 + self.b2**2 - 1.0) > 1e-12:
            raise ValueError("projection lengths must satisfy b1^2 + b2^2 = 1")


@dataclass(frozen=True)
class PrincipalProfile:
    """Distinct principal curvatures with multiplicities.

    ``entries`` is sorted ascending by curvature; multiplicities sum to
    ``total_dim``.  ``hopf is None`` means the model is Hopf: J(normal)
    is a principal direction.  Otherwise ``hopf`` holds the two
    distributions the tangential part of J(normal) splits over; the
    tube engine raises UnsupportedModelError for a non-Hopf tube with
    any other number of such carriers.
    """

    entries: tuple[tuple[float, int], ...]
    total_dim: int
    hopf: HopfAttitude | None = None

    def __post_init__(self):
        if sum(m for _, m in self.entries) != self.total_dim:
            raise ValueError("multiplicities do not sum to the total dimension")
        vals = [lam for lam, _ in self.entries]
        if any(b - a < MERGE_TOL for a, b in zip(vals, vals[1:])):
            raise ValueError("profile entries are not separated; merge first")

    @property
    def g(self) -> int:
        """Number of distinct principal curvatures."""
        return len(self.entries)

    def multiplicity(self, lam: float) -> int:
        """Multiplicity of the entry within MERGE_TOL/2 of lam; entries lie MERGE_TOL apart."""
        for value, mult in self.entries:
            if abs(value - lam) <= MERGE_TOL / 2:
                return mult
        raise KeyError(f"{lam} is not a principal curvature of this profile")

    def axis_value(self) -> float:
        """The distinct curvature not carrying a Hopf projection."""
        if self.hopf is None:
            raise ValueError("profile carries no Hopf attitude")
        rest = [
            lam
            for lam, _ in self.entries
            if min(abs(lam - self.hopf.lam1), abs(lam - self.hopf.lam2)) > MERGE_TOL / 2
        ]
        if len(rest) != 1:
            raise ValueError("profile does not have a unique axis curvature")
        return rest[0]


def eigenspaces(vals):
    """Merged spectrum and eigenspace index runs of an ascending spectrum.

    A run ends where the next value is at least MERGE_TOL above the
    previous one.  The merged spectrum holds each run's (mean value,
    multiplicity), in ascending order.
    """
    cuts = (np.flatnonzero(np.diff(vals) >= MERGE_TOL) + 1).tolist()
    bounds = [0, *cuts, len(vals)]
    groups = [slice(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]
    return tuple((float(np.mean(vals[g])), g.stop - g.start) for g in groups), groups


def merge_spectrum(eigenvalues) -> tuple[tuple[float, int], ...]:
    """Distinct values of an eigenvalue array, ascending, with multiplicities."""
    return eigenspaces(np.sort(np.asarray(eigenvalues, dtype=float)))[0]
