"""Principal-curvature profiles shared by the engine modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnresolvedSpectrumError, as_int

__all__ = [
    "HopfAttitude",
    "PrincipalProfile",
    "MERGE_TOL",
    "eigenspace_sums",
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

    ``entries`` is sorted ascending by curvature; multiplicities are at
    least 1 and sum to ``total_dim``.  ``hopf is None`` means the model is
    Hopf: J(normal) is a principal direction.  Otherwise ``hopf`` holds the
    two distributions the tangential part of J(normal) splits over; the tube
    engine raises UnsupportedModelError for a non-Hopf tube with any other
    number of such carriers.
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
        if any(m < 1 for _, m in self.entries):
            raise ValueError(f"every multiplicity must be at least 1, got {self.entries}")
        if sum(m for _, m in self.entries) != self.total_dim:
            raise ValueError("multiplicities do not sum to the total dimension")
        vals = [lam for lam, _ in self.entries]
        for a, b in zip(vals, vals[1:]):
            if b - a < MERGE_TOL:
                raise UnresolvedSpectrumError(
                    f"principal curvatures {a!r} and {b!r} lie within MERGE_TOL = "
                    f"{MERGE_TOL:g} of each other and cannot be told apart"
                )

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


def _run_ends(vals: np.ndarray) -> np.ndarray:
    """The grouping rule: a run ends where the next value is at least MERGE_TOL above."""
    return vals[..., 1:] - vals[..., :-1] >= MERGE_TOL


def eigenspaces(vals):
    """Merged spectra and eigenspace masks of a (B, m) stack of ascending spectra, in one pass.

    In each row a run ends where the next value is at least MERGE_TOL
    above the previous one.  Returns (entries, masks): ``masks[b, j]``
    marks the indices of row b's j-th run, a (B, G, m) boolean array
    with G the most runs of any row (a row's masks past its last run
    are empty), and ``entries[b]`` is row b's merged spectrum, each
    run's (mean value, multiplicity) in ascending order.  One spectrum
    is read as a one-row stack.
    """
    vals = np.asarray(vals, dtype=float)
    label = np.zeros(vals.shape, dtype=np.intp)
    np.cumsum(_run_ends(vals), axis=-1, out=label[:, 1:])
    masks = label[:, None, :] == np.arange(label.max(initial=-1) + 1)[:, None]
    entries = [
        tuple((total / count, count) for total, count in zip(row_sums, row_counts) if count)
        for row_sums, row_counts in zip(
            eigenspace_sums(vals, masks).tolist(), masks.sum(axis=-1).tolist()
        )
    ]
    return entries, masks


def eigenspace_sums(x, masks):
    """Sums (B, G) of a (B, m) stack x over every run of ``eigenspaces``.

    Each run is summed as one contiguous reduction, so a run's sum over
    its count is bit-identical to ``np.mean`` of its values.
    """
    x = np.asarray(x, dtype=float)[..., None, :]
    return np.add.reduce(x.repeat(masks.shape[-2], axis=-2), axis=-1, where=masks)


def merge_spectrum(eigenvalues) -> tuple[tuple[float, int], ...]:
    """Distinct values of an eigenvalue array, ascending, with multiplicities.

    The one-row reading of ``eigenspaces``, without its mask stack: each
    run's mean is ``np.add.reduce`` of its slice over its count, the same
    contiguous sum, so the entries are bit-identical.
    """
    vals = np.sort(np.asarray(eigenvalues, dtype=float))
    if not vals.size:
        return ()
    bounds = [0, *(i + 1 for i, end in enumerate(_run_ends(vals).tolist()) if end), len(vals)]
    return tuple(
        (float(np.add.reduce(vals[a:b])) / (b - a), b - a) for a, b in zip(bounds, bounds[1:])
    )
