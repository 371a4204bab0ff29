"""Pole and zero location for magnitude functions in the complex plane.

``ball_pole_zero_census`` takes the zeros and poles of the rational ball
magnitude functions from their exact form N/D and certifies them over the
rationals; ``shell_pole_survey`` finds the poles of the spherical-shell
magnitude, the roots of its transcendental denominator sinh 2R - 2R, by
seeded Newton iteration on each branch.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ArgumentError, DiagnosticError, PrecisionError
from .radial import (
    _exact_ball_rational,
    _gaussian_horner,
    _integer_coefficients,
    _polygcd,
    rational_reconstruct,
)

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

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ArgumentError("search rectangle is degenerate")

    def contains(self, z: complex) -> bool:
        return self.x0 <= z.real <= self.x1 and self.y0 <= z.imag <= self.y1


@dataclass(frozen=True)
class Root:
    """One located root: position, multiplicity, kind ('zero'|'pole'), residual.

    In the ball census the residual is the backward error as a root of the
    numerator (zeros) or the denominator (poles); in the shell survey it is
    |sinh(2R) - 2R|.
    """

    location: complex
    multiplicity: int
    kind: str
    residual: float


@dataclass(frozen=True)
class RootSet:
    """Roots found in a region, canonically ordered by (Im, Re)."""

    roots: tuple
    region: SearchRegion
    function_id: str

    def __iter__(self):
        return iter(self.roots)

    def __len__(self):
        return len(self.roots)

    def locations(self) -> list:
        return [r.location for r in self.roots]

    def is_conjugation_symmetric(self, tol: float = CONJUGATION_TOL) -> bool:
        locs = self.locations()
        scale = max([1.0] + [abs(z) for z in locs])
        return all(
            min(abs(z.conjugate() - w) for w in locs) <= tol * scale for z in locs
        )


def _sorted_roots(roots) -> tuple:
    return tuple(sorted(roots, key=lambda r: (r.location.imag, r.location.real)))


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
    import mpmath as mp

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
    rationals) and in the open left half plane (Routh-Hurwitz).  There are
    at most (n-1)(n-3)/8 poles and (n+3)(n+1)/8 zeros by construction: N/D
    exists only with deg D <= (n-1)(n-3)/8 and deg N = deg D + n.  The
    census checks conjugation symmetry and that every pole lies outside the
    sector |arg R| < pi/(n+1), and raises DiagnosticError on violation.
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
