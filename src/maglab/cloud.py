"""Finite-sample lower approximation of the magnitude of compact domains.

The magnitude of a compact positive-definite space is the supremum of the
magnitudes of its finite subsets, so sampling a domain on nested cubic
lattices produces a nondecreasing sequence of lower approximations whose
limit is the magnitude.  ``refinement_sequence`` runs the lattice cascade
and ``extrapolate`` fits a Richardson-style model to accelerate it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import ArgumentError, DiagnosticError, ResourceError
from .metric import FiniteMetricSpace, magnitude, read_point_rows

#: default cap on sample point counts; it bounds the N x N distance matrix
#: (8 N^2 bytes) of a dense sample and the K x N orbit representatives' rows
#: (8 K N bytes) of a lattice
DEFAULT_POINT_CAP = 20000

#: slack allowed when asserting monotone refinement
MONOTONE_SLACK = 1e-12


@dataclass(frozen=True)
class DomainShape:
    """A compact domain to be sampled: ball, shell, box or explicit points.

    ``kind`` is one of ``"ball"``, ``"shell"``, ``"box"``, ``"points"``;
    ``params`` carries (dimension, radius), (inner, outer, dimension),
    (side lengths...) respectively, and ``points`` the explicit coordinate
    array for the ``"points"`` kind.
    """

    kind: str
    params: tuple
    points: tuple = ()

    def __post_init__(self):
        if self.kind not in ("ball", "shell", "box", "points"):
            raise ArgumentError(f"unknown domain kind {self.kind!r}")

    @classmethod
    def ball(cls, dimension: int, radius: float = 1.0):
        if dimension < 1:
            raise ArgumentError("ball dimension must be >= 1")
        if radius <= 0:
            raise ArgumentError("ball radius must be positive")
        return cls("ball", (int(dimension), float(radius)))

    @classmethod
    def shell(cls, inner: float, outer: float, dimension: int = 3):
        if not (0 < inner < outer):
            raise ArgumentError("shell radii must satisfy 0 < inner < outer")
        if dimension < 1:
            raise ArgumentError("shell dimension must be >= 1")
        return cls("shell", (float(inner), float(outer), int(dimension)))

    @classmethod
    def box(cls, *sides: float):
        if not sides or any(s <= 0 for s in sides):
            raise ArgumentError("box needs positive side lengths")
        return cls("box", tuple(float(s) for s in sides))

    @classmethod
    def from_point_file(cls, path):
        """Explicit point set read from a coordinate file.

        Non-finite and duplicate points are rejected when the set is sampled.
        """
        n, rows = read_point_rows(path)
        if n is not None:
            raise ArgumentError("a domain point file must list coordinates, not a distance matrix")
        coords = np.asarray(rows, dtype=float)
        return cls("points", (coords.shape[1],), tuple(map(tuple, coords)))

    @property
    def dimension(self) -> int:
        if self.kind == "ball":
            return self.params[0]
        if self.kind == "shell":
            return self.params[2]
        if self.kind == "box":
            return len(self.params)
        return self.params[0]

    def bounding_radius(self) -> float:
        if self.kind == "ball":
            return self.params[1]
        if self.kind == "shell":
            return self.params[1]
        if self.kind == "box":
            return float(max(self.params))
        pts = np.asarray(self.points, dtype=float)
        return float(np.abs(pts).max()) if pts.size else 0.0

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Vectorized membership test for an (N, n) array of points."""
        x = np.atleast_2d(x)
        if self.kind == "ball":
            _, radius = self.params
            return (x**2).sum(axis=1) <= radius**2 + 1e-12
        if self.kind == "shell":
            inner, outer, _ = self.params
            r2 = (x**2).sum(axis=1)
            return (r2 >= inner**2 - 1e-12) & (r2 <= outer**2 + 1e-12)
        if self.kind == "box":
            sides = np.asarray(self.params)
            return np.all(np.abs(x) <= sides / 2 + 1e-12, axis=1)
        raise ArgumentError("membership test is undefined for explicit point sets")


def sample_domain(
    shape: DomainShape, spacing: float, *, cap: int = DEFAULT_POINT_CAP
) -> FiniteMetricSpace:
    """Origin-aligned cubic-lattice sample of the domain at the given spacing.

    Lattice sites are integer multiples of ``spacing``, so the lattice at
    spacing h/2 contains the lattice at spacing h exactly (bit-identical
    coordinates), which makes the refinement sequence genuinely nested.

    Balls, shells and boxes are symmetric under sign flips of the coordinates,
    and all but boxes with unequal sides under their permutations too.  The
    sample carries that orbit labelling when every orbit is complete, so its
    weighting is solved on orbits.
    """
    if spacing <= 0:
        raise ArgumentError("spacing must be positive")
    if shape.kind == "points":
        coords = np.asarray(shape.points, dtype=float)
        if len(coords) > cap:
            raise ResourceError(f"{len(coords)} points exceed the cap of {cap}")
        return FiniteMetricSpace.from_coordinates(coords)
    n = shape.dimension
    kmax = int(np.floor(shape.bounding_radius() / spacing + 1e-9))
    # reject early when the full bounding lattice already exceeds the cap
    if (2 * kmax + 1) ** n > 100 * cap:
        raise ResourceError(
            f"bounding lattice of {(2 * kmax + 1) ** n} sites is far above the cap {cap}"
        )
    # integer indices in itertools.product order (last axis fastest)
    ks = np.arange(-kmax, kmax + 1)
    index = np.stack(np.meshgrid(*[ks] * n, indexing="ij"), axis=-1).reshape(-1, n)
    grid = index * spacing
    inside = shape.contains(grid)
    coords, index = grid[inside], index[inside]
    if len(coords) == 0:
        raise ArgumentError(f"spacing {spacing} yields no lattice point inside the domain")
    if len(coords) > cap:
        raise ResourceError(f"{len(coords)} points exceed the cap of {cap}")
    permute = shape.kind != "box" or len(set(shape.params)) == 1
    return FiniteMetricSpace.from_coordinates(coords, orbits=_lattice_orbits(index, permute))


def _lattice_orbits(index, permute):
    """Orbit labels of lattice indices under sign flips (and permutations).

    The key of an index is its absolute values, sorted when coordinates may
    be permuted.  The labelling is returned only when every orbit holds its
    full group size, 2^(nonzeros) times n!/prod(multiplicities!) with
    permutations; a float membership test may break the symmetry at the
    boundary, and the sample then gets None.
    """
    keys = np.abs(index)
    if permute:
        keys = np.sort(keys, axis=1)
    uniq, orbits, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    n = index.shape[1]
    for key, count in zip(uniq.tolist(), counts.tolist()):
        size = 2 ** sum(1 for k in key if k)
        if permute:
            size *= factorial(n)
            for m in Counter(key).values():
                size //= factorial(m)
        if count != size:
            return None
    return orbits.reshape(-1)


@dataclass(frozen=True)
class RefinementReport:
    """Nested-lattice magnitudes plus the extrapolated limit estimate."""

    shape: DomainShape
    scale: float
    resolutions: tuple
    counts: tuple
    magnitudes: tuple
    extrapolated: float
    uncertainty: float


def refinement_sequence(
    shape: DomainShape,
    scale: float,
    levels: int,
    *,
    base_spacing: float | None = None,
    cap: int = DEFAULT_POINT_CAP,
) -> RefinementReport:
    """Magnitudes of the domain on lattices h, h/2, ..., h/2^(levels-1).

    The samples are nested, so the magnitudes are nondecreasing and converge
    to the magnitude of the compact domain from below.
    """
    if levels < 3:
        raise ArgumentError("refinement needs at least 3 levels (Richardson uses the last three)")
    if scale <= 0:
        raise ArgumentError("scale must be positive")
    if base_spacing is None:
        base_spacing = shape.bounding_radius() / 2
    hs, counts, mags = [], [], []
    for level in range(levels):
        h = base_spacing / 2**level
        space = sample_domain(shape, h, cap=cap)
        value = magnitude(space, scale)
        if mags and value < mags[-1] - MONOTONE_SLACK * max(1.0, abs(value)):
            raise DiagnosticError(
                f"magnitude decreased under refinement at h={h}: {value} < {mags[-1]}"
            )
        hs.append(h)
        counts.append(len(space))
        mags.append(value)
    estimate, uncertainty = _richardson(hs, mags)
    return RefinementReport(
        shape=shape,
        scale=float(scale),
        resolutions=tuple(hs),
        counts=tuple(counts),
        magnitudes=tuple(mags),
        extrapolated=estimate,
        uncertainty=uncertainty,
    )


def extrapolate(report: RefinementReport):
    """Richardson-style limit estimate for a refinement report.

    Fits m(h) = m* - C h^p on the last three levels (p from the ratio of
    successive corrections) and returns (estimate, uncertainty) with the
    uncertainty taken as the magnitude of the last correction.
    """
    if len(report.magnitudes) < 3:
        raise ArgumentError("extrapolation needs at least 3 levels")
    mags = list(report.magnitudes)
    for a, b in zip(mags, mags[1:]):
        if b < a - MONOTONE_SLACK * max(1.0, abs(b)):
            raise DiagnosticError("refinement values are not monotone; cannot extrapolate")
    return _richardson(list(report.resolutions), mags)


def _richardson(hs, mags):
    m1, m2, m3 = mags[-3:]
    d1, d2 = m2 - m1, m3 - m2
    if abs(d2) <= 1e-14 * max(1.0, abs(m3)):
        # converged (or constant) sequence: the last value is the estimate
        return float(m3), 0.0
    ratio = d1 / d2
    if ratio <= 1.0:
        # corrections are not decaying; refuse to extrapolate beyond the data
        return float(m3), float(abs(d2))
    # spacing halves between levels, so ratio = 2^p; a fitted exponent below 1
    # is a pre-asymptotic artifact -- the lattice error of a compact domain
    # with smooth boundary decays at least linearly in h -- and extrapolating
    # with it wildly over-corrects, so clamp to p >= 1
    ratio = max(ratio, 2.0)
    correction = d2 / (ratio - 1.0)
    return float(m3 + correction), float(abs(correction))
