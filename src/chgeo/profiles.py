"""Principal-curvature profiles shared by the engine modules, and their one grouping rule.

``merge_spectrum`` groups a spectrum given as (value, multiplicity[,
squared weight]) items into eigenspaces.  The tube engine and the focal
image hand it their groups with their multiplicities, never repeated out
to one item per row; the frame route and the structural residuals hand
it one item per eigenvalue of an ``eigh``.  Per tube row, it and
``PrincipalProfile``'s checks are one pass each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .errors import UnresolvedSpectrumError, as_int

__all__ = [
    "HopfAttitude",
    "PrincipalProfile",
    "MERGE_TOL",
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
        # a NaN fails each check
        if not (self.b1 >= 0 and self.b2 >= 0):
            raise ValueError("projection lengths must be non-negative")
        if not abs(self.b1**2 + self.b2**2 - 1.0) <= 1e-12:
            raise ValueError("projection lengths must satisfy b1^2 + b2^2 = 1")
        for name, lam in (("lam1", self.lam1), ("lam2", self.lam2)):
            if not math.isfinite(lam):
                raise ValueError(f"{name} must be finite, got {lam!r}")


@dataclass(frozen=True)
class PrincipalProfile:
    """Distinct principal curvatures with multiplicities.

    ``entries`` is ascending by finite curvature, MERGE_TOL apart;
    multiplicities are at least 1 and sum to ``total_dim``.  ``hopf is
    None`` means the model is Hopf: J(normal) is a principal direction.
    Otherwise ``hopf`` holds the two distributions the tangential part of
    J(normal) splits over; the tube engine raises UnsupportedModelError
    for a non-Hopf tube with any other number of such carriers.
    """

    entries: tuple[tuple[float, int], ...]
    total_dim: int
    hopf: HopfAttitude | None = None

    def __post_init__(self):
        if type(self.total_dim) is not int or any(type(m) is not int for _, m in self.entries):
            # store numpy counts as plain ints; anything else that is not an integer raises
            entries = tuple((lam, as_int("multiplicity", m)) for lam, m in self.entries)
            object.__setattr__(self, "entries", entries)
            object.__setattr__(self, "total_dim", as_int("total_dim", self.total_dim))
        total, fault, a = 0, None, -math.inf
        for b, m in self.entries:
            if m < 1:
                raise ValueError(f"every multiplicity must be at least 1, got {self.entries}")
            total += m
            # passes a finite b at least MERGE_TOL above a
            if fault is None and not (b - a >= MERGE_TOL and b < math.inf):
                if not math.isfinite(b):
                    fault = ValueError(f"principal curvature {b!r} is not finite")
                elif b < a:
                    fault = ValueError(f"entries must be sorted ascending, got {a!r} before {b!r}")
                else:
                    fault = UnresolvedSpectrumError(
                        f"principal curvatures {a!r} and {b!r} lie within MERGE_TOL = "
                        f"{MERGE_TOL:g} of each other and cannot be told apart"
                    )
            a = b
        if total != self.total_dim:
            raise ValueError("multiplicities do not sum to the total dimension")
        if fault:
            raise fault

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


def merge_spectrum(items):
    """Eigenspaces of a spectrum given as (value, multiplicity[, squared weight]) items.

    The one grouping rule of the package, on Python floats: sorted by
    value, a run ends where the next value is at least MERGE_TOL above.
    Each run is an eigenspace with value sum(m v) / sum(m), multiplicity
    sum(m) and length sqrt(sum(w)), the length of a vector's projection
    onto it when w is the squared length on each item (0 when omitted).
    Returns (entries, lengths): ``entries`` the runs' (value,
    multiplicity) in ascending order, ``lengths`` a list of their lengths.
    One pass keeps the open run's sums, left to right from 0.0 on
    purpose: another order would move digits.
    """
    ordered = sorted(items, key=itemgetter(0))
    if not ordered:
        return (), []
    entries, lengths = [], []
    total, count, square = 0.0, 0, 0.0
    last = ordered[0][0]
    for item in ordered:
        value = item[0]
        if value - last >= MERGE_TOL:
            entries.append((total / count, count))
            lengths.append(math.sqrt(square))
            total, count, square = 0.0, 0, 0.0
        total += item[1] * value
        count += item[1]
        if len(item) > 2:
            square += item[2]
        last = value
    entries.append((total / count, count))
    lengths.append(math.sqrt(square))
    return tuple(entries), lengths
