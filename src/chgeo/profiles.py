"""Principal-curvature profiles shared by the engine modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HopfAttitude",
    "PrincipalProfile",
    "MERGE_TOL",
    "make_profile",
    "merge_spectrum",
]

# gap below which two numerically computed principal curvatures are one
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
        for value, mult in self.entries:
            if abs(value - lam) <= 1e-8:
                return mult
        raise KeyError(f"{lam} is not a principal curvature of this profile")

    def axis_value(self) -> float:
        """The distinct curvature not carrying a Hopf projection."""
        if self.hopf is None:
            raise ValueError("profile carries no Hopf attitude")
        rest = [
            lam
            for lam, _ in self.entries
            if abs(lam - self.hopf.lam1) > 1e-10 and abs(lam - self.hopf.lam2) > 1e-10
        ]
        if len(rest) != 1:
            raise ValueError("profile does not have a unique axis curvature")
        return rest[0]


def merge_spectrum(eigenvalues):
    """Cluster a sorted/unsorted eigenvalue array into (value, mult) pairs."""
    vals = np.sort(np.asarray(eigenvalues, dtype=float))
    groups: list[list[float]] = []
    for v in vals:
        if groups and v - groups[-1][-1] < MERGE_TOL:
            groups[-1].append(v)
        else:
            groups.append([v])
    return [(float(np.mean(g)), len(g)) for g in groups]


def make_profile(eigenvalues, hopf: HopfAttitude | None = None):
    entries = tuple((lam, m) for lam, m in merge_spectrum(eigenvalues))
    return PrincipalProfile(entries=entries, total_dim=int(len(np.asarray(eigenvalues))), hopf=hopf)
