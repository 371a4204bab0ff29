"""Pole and zero location for magnitude functions in the complex plane.

``count_in_region`` counts zeros minus poles of a meromorphic function in a
rectangle by the argument principle; ``find_roots`` subdivides a rectangle
until each cell isolates one root and polishes it with Newton iteration.
``ball_pole_zero_census`` and ``shell_pole_survey`` apply these to the
rational ball magnitude functions and to the transcendental denominator of
the spherical-shell magnitude.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
import numpy as np

from .errors import ArgumentError, DiagnosticError, PrecisionError
from .radial import (
    _exact_ball_rational,
    _gaussian_horner,
    _integer_coefficients,
    _polygcd,
    rational_reconstruct,
)

#: default contour quadrature points per rectangle side
DEFAULT_CONTOUR_POINTS = 256

#: default maximum quadrisection depth
DEFAULT_MAX_DEPTH = 12

#: residual bound certified for every reported root
RESIDUAL_TOL = 1e-10

#: digits for the cancellation-free sums in the census backward errors
BACKWARD_ERROR_DPS = 40

#: pairing tolerance for conjugation-symmetry checks
CONJUGATION_TOL = 1e-9


@dataclass(frozen=True)
class SearchRegion:
    """Axis-aligned rectangle [x0, x1] x [y0, y1] in the complex plane."""

    x0: float
    x1: float
    y0: float
    y1: float
    max_depth: int = DEFAULT_MAX_DEPTH
    contour_points: int = DEFAULT_CONTOUR_POINTS

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ArgumentError("search rectangle is degenerate")
        if self.max_depth < 0 or self.contour_points < 8:
            raise ArgumentError("max_depth must be >= 0 and contour_points >= 8")

    @property
    def center(self) -> complex:
        return complex((self.x0 + self.x1) / 2, (self.y0 + self.y1) / 2)

    @property
    def diagonal(self) -> float:
        return math.hypot(self.x1 - self.x0, self.y1 - self.y0)

    def contains(self, z: complex, margin: float = 0.0) -> bool:
        return (
            self.x0 - margin <= z.real <= self.x1 + margin
            and self.y0 - margin <= z.imag <= self.y1 + margin
        )

    def shifted(self, dz: complex) -> "SearchRegion":
        return SearchRegion(
            self.x0 + dz.real,
            self.x1 + dz.real,
            self.y0 + dz.imag,
            self.y1 + dz.imag,
            self.max_depth,
            self.contour_points,
        )

    def quadrisect(self, overlap: float = 0.0) -> tuple:
        """Four half-size subrectangles, optionally widened by a relative
        overlap so roots on the shared cut lines belong to some child even
        after per-cell contour nudging."""
        xm = (self.x0 + self.x1) / 2
        ym = (self.y0 + self.y1) / 2
        gx = overlap * (self.x1 - self.x0) / 2
        gy = overlap * (self.y1 - self.y0) / 2
        mk = lambda a, b, c, d: SearchRegion(a, b, c, d, self.max_depth, self.contour_points)
        return (
            mk(self.x0, xm + gx, self.y0, ym + gy),
            mk(xm - gx, self.x1, self.y0, ym + gy),
            mk(self.x0, xm + gx, ym - gy, self.y1),
            mk(xm - gx, self.x1, ym - gy, self.y1),
        )


@dataclass(frozen=True)
class Root:
    """One located root: position, multiplicity, kind ('zero'|'pole'), residual.

    The residual is |f| at zeros and |1/f| at poles; in the ball census it
    is the backward error as a root of the numerator or the denominator.
    """

    location: complex
    multiplicity: int
    kind: str
    residual: float


@dataclass(frozen=True)
class RootSet:
    """Roots found in a region, canonically ordered by (Im, Re).

    ``unresolved`` lists (region, count) pairs for cells where Newton
    iteration failed to certify a root.
    """

    roots: tuple
    region: SearchRegion
    function_id: str
    unresolved: tuple = field(default=())

    def __iter__(self):
        return iter(self.roots)

    def __len__(self):
        return len(self.roots)

    def locations(self) -> list:
        return [r.location for r in self.roots]

    def of_kind(self, kind: str) -> list:
        return [r for r in self.roots if r.kind == kind]

    def is_conjugation_symmetric(self, tol: float = CONJUGATION_TOL) -> bool:
        locs = self.locations()
        scale = max([1.0] + [abs(z) for z in locs])
        return all(
            min(abs(z.conjugate() - w) for w in locs) <= tol * scale for z in locs
        )


def _sorted_roots(roots) -> tuple:
    return tuple(sorted(roots, key=lambda r: (r.location.imag, r.location.real)))


class _ContourHit(PrecisionError):
    """A root lies on (or too close to) the contour; nudge and retry."""

    def __init__(self):
        super().__init__("a root lies on the integration contour")


def _winding_raw(f, region: SearchRegion, per_side: int) -> float:
    xs = np.linspace(region.x0, region.x1, per_side, endpoint=False)
    ys = np.linspace(region.y0, region.y1, per_side, endpoint=False)
    pts = np.concatenate(
        [
            xs + 1j * region.y0,
            region.x1 + 1j * ys,
            xs[::-1] + (region.x1 - region.x0) / per_side + 1j * region.y1,
            region.x0 + 1j * (ys[::-1] + (region.y1 - region.y0) / per_side),
        ]
    )
    vals = np.array([complex(f(z)) for z in pts])
    mags = np.abs(vals)
    if not np.all(np.isfinite(vals)) or mags.min() == 0.0:
        raise _ContourHit
    # huge dynamic range along the contour signals a root essentially on it
    if mags.min() < 1e-13 * np.median(mags):
        raise _ContourHit
    # total argument change, tracking the branch step by step; each ratio of
    # consecutive samples must stay off the negative real axis for the
    # per-step phase increment to be unambiguous, which refinement ensures
    steps = np.angle(np.roll(vals, -1) / vals)
    return (
        float(steps.sum() / (2 * math.pi)),
        float(np.abs(steps).max()),
        float(np.abs(steps).sum()),
    )


def _phase_variation(f, region: SearchRegion) -> float:
    """Total unsigned argument change of f along the region boundary.

    A cell with winding zero can still hold a cancelling zero/pole pair; the
    pair leaves a large phase swing on the contour even though the signed
    total vanishes, so this is used to decide whether such a cell is worth
    subdividing.
    """
    try:
        _, _, variation = _winding_raw(f, region, region.contour_points)
    except _ContourHit:
        return math.inf
    return variation


def count_in_region(f, region: SearchRegion) -> int:
    """Zeros minus poles of f in the region, counted with multiplicity.

    Trapezoidal winding of f along the rectangle boundary; the quadrature
    point count is doubled until the winding is within 0.25 of an integer
    and every per-step phase increment is safely below pi.  A near-pi step
    that survives refinement means a root lies on the contour itself -- the
    winding can then round to a wrong integer -- and is reported as a
    contour hit so the caller can nudge the rectangle.
    """
    per_side = region.contour_points
    for _ in range(6):
        w, max_step, _ = _winding_raw(f, region, per_side)
        nearest = round(w)
        if abs(w - nearest) <= 0.25 and max_step <= 2.8:
            return int(nearest)
        per_side *= 2
    if max_step > 2.8:
        raise _ContourHit
    raise PrecisionError(
        f"winding {w:.4f} did not settle to an integer on {region} "
        f"(refined to {per_side} points per side)"
    )


def _count_with_nudge(f, region: SearchRegion):
    """Count in the region, nudging it when a root sits on the contour.

    Returns (count, possibly-shifted region).  The shift is at most 5e-3 of
    the diagonal, so roots strictly inside stay inside for practical spacing.
    """
    step = 1e-3 * region.diagonal
    current = region
    for attempt in range(6):
        try:
            return count_in_region(f, current), current
        except _ContourHit:
            current = current.shifted(complex(step, step * 0.618))
    raise PrecisionError(f"contour keeps hitting a root near {region}")


def _newton(f, z0: complex, *, max_iter: int = 200):
    """Finite-difference Newton iteration; returns the root or None."""
    z = complex(z0)
    for _ in range(max_iter):
        h = 1e-7 * max(1.0, abs(z))
        fz = complex(f(z))
        df = (complex(f(z + h)) - complex(f(z - h))) / (2 * h)
        if df == 0 or not np.isfinite(df) or not np.isfinite(fz):
            return None
        step = fz / df
        z -= step
        if abs(step) <= 1e-12 * max(1.0, abs(z)):
            return z
    # multiple roots converge linearly; accept if the value is already tiny
    return z if abs(complex(f(z))) <= RESIDUAL_TOL else None


def find_roots(f, region: SearchRegion, function_id: str = "f") -> RootSet:
    """All zeros and poles of f in the region, polished to RESIDUAL_TOL.

    The rectangle is quadrisected (with slight child overlap, so roots on
    the cut lines are claimed by some child) until each cell carries winding
    count of magnitude <= 1 or the depth limit is hit, then Newton iteration
    runs from the cell center -- on f for zeros, on 1/f for poles.  Each
    polished root's multiplicity is certified by the winding of a small
    square around it, which also deduplicates roots claimed by overlapping
    cells.  Cells where Newton fails to certify the residual bound are
    reported as unresolved.
    """
    roots, unresolved = [], []

    def resolve(cell: SearchRegion, count: int) -> bool:
        # Newton from the cell center must land inside the cell it was
        # counted in -- otherwise it slid to some other root and the cell
        # needs further subdivision
        kind = "zero" if count > 0 else "pole"
        g = f if count > 0 else (lambda z: 1.0 / complex(f(z)))
        z = _newton(g, cell.center)
        if z is None or not cell.contains(z, margin=0.01 * cell.diagonal):
            return False
        residual = abs(complex(g(z)))
        if residual > RESIDUAL_TOL:
            return False
        roots.append(Root(z, abs(count), kind, residual))
        return True

    def recurse(cell: SearchRegion, depth: int):
        try:
            count, cell = _count_with_nudge(f, cell)
        except PrecisionError:
            unresolved.append((cell, None))
            return
        at_limit = depth >= cell.max_depth or cell.diagonal < 1e-9
        if count == 0:
            # zero winding can hide a cancelling zero/pole pair; a large
            # phase swing on the contour betrays one, so keep subdividing
            if not at_limit and _phase_variation(f, cell) > math.pi:
                for child in cell.quadrisect(overlap=0.02):
                    recurse(child, depth + 1)
            return
        if abs(count) == 1 or at_limit:
            if resolve(cell, count):
                return
            if at_limit:
                unresolved.append((cell, count))
                return
        for child in cell.quadrisect(overlap=0.02):
            recurse(child, depth + 1)

    recurse(region, 0)
    return RootSet(
        _certified_roots(f, roots, region), region, function_id, tuple(unresolved)
    )


def _certified_roots(f, roots, region: SearchRegion) -> tuple:
    """Deduplicate polished roots and certify each multiplicity.

    Overlapping cells (and the several cells a multiple root dominates) can
    each deliver the same polished location, so coincident same-kind roots
    collapse to one, whose multiplicity is the winding of a small square
    centered on it.
    """
    tol = max(1e-7, 1e-7 * region.diagonal)
    unique = []
    for r in _sorted_roots(roots):
        if any(s.kind == r.kind and abs(s.location - r.location) <= tol for s in unique):
            continue
        unique.append(r)
    certified = []
    for r in unique:
        h = max(1e-4 * max(1.0, abs(r.location)), 2 * tol)
        box = SearchRegion(
            r.location.real - h,
            r.location.real + h,
            r.location.imag - h,
            r.location.imag + h,
            region.max_depth,
            64,
        )
        try:
            count, _ = _count_with_nudge(f, box)
        except PrecisionError:
            count = r.multiplicity if r.kind == "zero" else -r.multiplicity
        mult = abs(count) if count != 0 else r.multiplicity
        certified.append(Root(r.location, mult, r.kind, r.residual))
    return _sorted_roots(certified)


def _is_hurwitz(coeffs) -> bool:
    """True when every root of the real polynomial lies in Re z < 0.

    Routh's criterion on descending coefficients, exact for integer or
    Fraction input: the first column of the Routh array must hold no zero
    and no sign change.  A zero there means a root on the imaginary axis or
    to its right.
    """
    prev = [Fraction(c) for c in coeffs[0::2]]
    row = [Fraction(c) for c in coeffs[1::2]]
    positive = prev[0] > 0
    for _ in range(len(coeffs) - 1):
        if row[0] == 0 or (row[0] > 0) != positive:
            return False
        lower = row + [Fraction(0)] * (len(prev) - len(row))
        prev, row = row, [a - prev[0] / row[0] * b for a, b in zip(prev[1:], lower[1:])]
    return True


def _is_squarefree(poly) -> bool:
    """True when the ascending Fraction polynomial has no repeated root."""
    derivative = [k * c for k, c in enumerate(poly)][1:]
    return len(_polygcd(poly, derivative)) == 1


def _certify_simple_left_roots(poly, name: str) -> None:
    """Raise DiagnosticError unless every root of poly is simple and has Re < 0.

    Exact over the rationals: gcd(P, P') is a constant, and Routh's array
    on P has a first column of one sign.
    """
    if not _is_squarefree(poly):
        raise DiagnosticError(f"{name} has a repeated root")
    if not _is_hurwitz(poly[::-1]):
        raise DiagnosticError(f"{name} has a root in the closed right half plane")


def _backward_errors(coeffs, points) -> list:
    """Normwise backward error |P(z)| / sum |P_k| |z|^k of each z as a root of P.

    ``coeffs`` are P's exact integer coefficients, descending.  A complex
    double z is (x + iy)/q with integers x, y and q a power of two, so
    q^deg P(z) is summed exactly over the Gaussian integers
    (``_gaussian_horner``).  Only the cancellation-free |P(z)| and
    sum |P_k| |z|^k are rounded, in mpmath at BACKWARD_ERROR_DPS digits, so
    even errors far below 1e-16 keep their leading digits.
    """
    deg = len(coeffs) - 1
    errors = []
    with mp.workdps(BACKWARD_ERROR_DPS):
        sizes = [abs(c) for c in coeffs]
        for z in points:
            hr, hi, q = _gaussian_horner(coeffs, z)
            value = mp.sqrt(hr * hr + hi * hi) / mp.mpf(q) ** deg
            errors.append(float(value / mp.polyval(sizes, abs(mp.mpc(z)))))
    return errors


def ball_pole_zero_census(n: int, region: SearchRegion | None = None):
    """(poles, zeros) of the rational ball magnitude function M_{B_n}.

    Roots are those of the exact rational form N/D from
    ``rational_reconstruct``, extracted by verified ``polyroots``.  Exact
    certificates on N and D prove every root simple (gcd(P, P') = 1 over the
    rationals) and in the open left half plane (Routh-Hurwitz).  The census
    also checks the structural bounds -- at most (n-1)(n-3)/8 poles and
    (n+3)(n+1)/8 zeros, conjugation symmetry, and every pole outside the
    sector |arg R| < pi/(n+1) -- and raises DiagnosticError on violation.
    Each root's residual is its normwise backward error as a root of N
    (zeros) or D (poles), and must be at most RESIDUAL_TOL.
    """
    rf = rational_reconstruct(n)
    num, den = _exact_ball_rational(n)
    _certify_simple_left_roots(num, f"the numerator of M_B{n}")
    _certify_simple_left_roots(den, f"the denominator of M_B{n}")
    poles = [complex(p) for p in rf.poles]
    zeros = [complex(z) for z in rf.zeros]
    if region is None:
        extent = 1.25 * max([1.0] + [abs(z) for z in poles + zeros])
        region = SearchRegion(-extent, extent, -extent, extent)
    poles = [p for p in poles if region.contains(p)]
    zeros = [z for z in zeros if region.contains(z)]
    max_poles = (n - 1) * (n - 3) // 8
    max_zeros = (n + 3) * (n + 1) // 8
    if len(poles) > max_poles or len(zeros) > max_zeros:
        raise DiagnosticError(
            f"census bounds violated for n={n}: {len(poles)} poles "
            f"(max {max_poles}), {len(zeros)} zeros (max {max_zeros})"
        )
    sector = math.pi / (n + 1)
    for p in poles:
        if p.real >= 0 or abs(np.angle(p)) < sector:
            raise DiagnosticError(f"pole {p} of M_B{n} inside the sector |arg R| < pi/{n + 1}")
    sets = []
    for kind, found, poly in (("pole", poles, den), ("zero", zeros, num)):
        located = []
        for z, residual in zip(found, _backward_errors(_integer_coefficients(poly), found)):
            if residual > RESIDUAL_TOL:
                raise DiagnosticError(f"{kind} {z} of M_B{n} has backward error {residual:.3e}")
            located.append(Root(z, 1, kind, residual))
        rs = RootSet(_sorted_roots(located), region, f"ball-magnitude-{n}")
        if not rs.is_conjugation_symmetric():
            raise DiagnosticError(f"root set of M_B{n} is not conjugation-symmetric")
        sets.append(rs)
    return tuple(sets)


# -- spherical shell pole survey -------------------------------------------
#
# The poles of the (1, 2)-shell magnitude lie among the nonzero roots of
# sinh(2R) = 2R.  The function is evaluated in the scaled form
#   h(R) = e^{-2R} (sinh 2R - 2R) = (1 - e^{-4R})/2 - 2R e^{-2R},
# which is O(1) in the right half plane, and the roots are seeded from the
# asymptotic form of e^{2R} ~ 4R: 2R = Log(4R) + 2 pi i k.


def _shell_scaled(R: complex) -> complex:
    return (1.0 - np.exp(-4 * R)) / 2.0 - 2 * R * np.exp(-2 * R)


def _shell_scaled_prime(R: complex) -> complex:
    return 2 * np.exp(-4 * R) - (2 - 4 * R) * np.exp(-2 * R)


def shell_denominator_residual(R: complex) -> float:
    """|sinh(2R) - 2R|, evaluated through the scaled form."""
    return float(abs(np.exp(2 * R)) * abs(_shell_scaled(R)))


@dataclass(frozen=True)
class ShellPoleSurvey:
    """Shell magnitude poles with 0 < Im <= ymax plus the accumulation fit.

    ``slope``/``intercept`` are the least-squares fit Re(R) ~ slope *
    log(Im(R)) + intercept along the pole sequence.
    """

    roots: RootSet
    slope: float
    intercept: float


def shell_pole_survey(ymax: float = 40.0) -> ShellPoleSurvey:
    """Locate all roots of sinh(2R) = 2R with 0 < Im(R) <= ymax.

    Each root is polished by Newton iteration on the scaled denominator and
    certified to |sinh(2R) - 2R| <= 1e-10.  There are no nonzero roots on
    either axis (sinh x > x for x > 0 and sin t < t for t > 0), so the
    survey only walks the upper half plane branches k = 1, 2, ...
    """
    if ymax < 10:
        raise ArgumentError("survey needs ymax >= 10 to see the accumulation trend")
    roots = []
    kmax = int(ymax / math.pi) + 2
    for k in range(1, kmax + 1):
        # fixed-point warm-up of 2R = Log(4R) + 2 pi i k, then Newton
        z = complex(1.0, math.pi * k)
        for _ in range(40):
            z = (np.log(4 * z) + 2j * math.pi * k) / 2
        for _ in range(60):
            step = _shell_scaled(z) / _shell_scaled_prime(z)
            z -= step
            if abs(step) <= 1e-14 * abs(z):
                break
        residual = shell_denominator_residual(z)
        if residual > RESIDUAL_TOL:
            raise PrecisionError(f"shell pole near branch k={k} stagnated at residual {residual:.3e}")
        if 0 < z.imag <= ymax:
            roots.append(Root(z, 1, "pole", residual))
    if len(roots) < 2:
        raise DiagnosticError(f"only {len(roots)} shell poles found below Im = {ymax}")
    ordered = _sorted_roots(roots)
    res = [r.location.real for r in ordered]
    ims = [math.log(r.location.imag) for r in ordered]
    slope, intercept = np.polyfit(ims, res, 1)
    region = SearchRegion(0.0, max(res) + 1.0, 0.0, float(ymax))
    return ShellPoleSurvey(
        roots=RootSet(ordered, region, "shell-denominator-1-2"),
        slope=float(slope),
        intercept=float(intercept),
    )


def write_roots_csv(rootset: RootSet, path) -> None:
    """Write (kind, Re, Im, multiplicity, residual) rows, 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "re", "im", "multiplicity", "residual"])
        for r in rootset.roots:
            writer.writerow(
                [
                    r.kind,
                    format(r.location.real, ".17g"),
                    format(r.location.imag, ".17g"),
                    r.multiplicity,
                    format(r.residual, ".17g"),
                ]
            )
