"""Exact algebra of exponential-Laurent polynomials at a fixed complex rate.

Elements are finite sums of terms c * r**k * exp(s*R*r) with integer powers k
and modes s in {-1, 0, +1}, all sharing one rate R.  Differentiation, the
radial Helmholtz-type operator (R^2 - d^2/dr^2 - (n-1)/r d/dr) and the
dimension-raising ladder -(1/r) d/dr are closed, coefficient-exact operations
on this class, which is precisely the kernel algebra of (R^2 - Delta)^m on
radial functions in odd dimensions.

Coefficients and the rate may be Python complex numbers or mpmath values;
all operations are arithmetic-generic, so high-precision pipelines work
unchanged.  This module never imports mpmath: the caller that builds the
first mpmath number loads it, and double-precision arithmetic runs in
processes that never do.
"""

from __future__ import annotations

import cmath
import sys
from dataclasses import dataclass

from .errors import ArgumentError

#: relative tolerance used when merging/dropping coefficients
CANON_RTOL = 1e-14
#: |R*r| below which evaluation switches to the power-series form
SERIES_THRESHOLD = 1e-2
#: number of series terms kept in the fallback evaluation
SERIES_TERMS = 48


def _mpmath_of(*values):
    """The mpmath module if any of ``values`` is an mpmath number, else None.

    It reads ``sys.modules`` and imports nothing: no mpmath number exists
    before mpmath is imported.
    """
    mp = sys.modules.get("mpmath")
    if mp is not None and any(isinstance(v, (mp.mpf, mp.mpc)) for v in values):
        return mp
    return None


def _exp(x):
    mp = _mpmath_of(x)
    return mp.exp(x) if mp else cmath.exp(x)


def _factorial_like(t, x):
    # x**t / t! computed stably for generic scalar types
    out = 1
    for i in range(1, t + 1):
        out = out * x / i
    return out


@dataclass(frozen=True)
class RadialOperatorSpec:
    """Odd dimension n = 2m - 1 with power m = (n+1)/2 and rate R."""

    dimension: int
    rate: complex

    def __post_init__(self):
        n = self.dimension
        if n < 3 or n % 2 == 0:
            raise ArgumentError(f"dimension must be odd and >= 3, got {n}")

    @property
    def power(self):
        return (self.dimension + 1) // 2


class ExpoPoly:
    """Finite sum of c * r**k * exp(s*R*r) terms at a shared rate R.

    Immutable; ``terms`` maps (k, s) -> coefficient with zero coefficients
    dropped on construction.
    """

    __slots__ = ("terms", "rate")

    def __init__(self, terms, rate):
        merged = {}
        for (k, s), c in (terms.items() if isinstance(terms, dict) else terms):
            if s not in (-1, 0, 1):
                raise ArgumentError(f"mode must be -1, 0 or +1, got {s}")
            key = (int(k), int(s))
            merged[key] = merged.get(key, 0) + c
        scale = max((abs(c) for c in merged.values()), default=0)
        # drop round-off residue relative to the working precision: double
        # unless any coefficient or the rate is an mpmath value
        mp = _mpmath_of(rate, *merged.values())
        if mp:
            tol = mp.mpf(10) ** (-(mp.mp.dps + 15)) * scale
        else:
            tol = CANON_RTOL * scale
        object.__setattr__(self, "terms", {ks: c for ks, c in merged.items() if abs(c) > tol})
        object.__setattr__(self, "rate", rate)

    def __setattr__(self, name, value):
        raise AttributeError("ExpoPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rate):
        return cls({}, rate)

    @classmethod
    def term(cls, rate, coeff=1.0, power=0, mode=0):
        return cls({(power, mode): coeff}, rate)

    @classmethod
    def decaying_exp(cls, rate, power=0):
        """r**power * exp(-R r)."""
        return cls({(power, -1): 1.0}, rate)

    # -- ring-ish operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ExpoPoly):
            return NotImplemented
        merged = dict(self.terms)
        for ks, c in other.terms.items():
            merged[ks] = merged.get(ks, 0) + c
        return ExpoPoly(merged, self.rate)

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, scalar):
        return ExpoPoly({ks: c * scalar for ks, c in self.terms.items()}, self.rate)

    __rmul__ = __mul__

    def shift_power(self, dk):
        """Multiply by r**dk."""
        return ExpoPoly({(k + dk, s): c for (k, s), c in self.terms.items()}, self.rate)

    def is_zero(self, reference=None):
        """Canonical zero test, relative to an optional reference magnitude."""
        if not self.terms:
            return True
        if reference is None:
            return False
        scale = max(abs(c) for c in self.terms.values())
        return scale <= 1e-10 * max(1.0, float(abs(reference)))

    def max_abs_coeff(self):
        return max((abs(c) for c in self.terms.values()), default=0.0)

    # -- calculus ----------------------------------------------------------

    def differentiate(self):
        """d/dr, termwise: c r^k e^{sRr} -> c k r^{k-1} e^{sRr} + c s R r^k e^{sRr}."""
        out = {}
        R = self.rate
        for (k, s), c in self.terms.items():
            if k != 0:
                key = (k - 1, s)
                out[key] = out.get(key, 0) + c * k
            if s != 0:
                key = (k, s)
                out[key] = out.get(key, 0) + c * s * R
        return ExpoPoly(out, R)

    def helmholtz_apply(self, spec: RadialOperatorSpec):
        """(R^2 - d^2/dr^2 - (n-1)/r d/dr) applied exactly."""
        n = spec.dimension
        d1 = self.differentiate()
        d2 = d1.differentiate()
        return self * (self.rate * self.rate) - d2 - d1.shift_power(-1) * (n - 1)

    def dimension_shift(self):
        """Ladder map -(1/r) d/dr, raising the radial dimension by two."""
        return self.differentiate().shift_power(-1) * -1

    # -- evaluation --------------------------------------------------------

    def __call__(self, r):
        return self.evaluate(r)

    def evaluate(self, r):
        """Value at radius r > 0.

        Near the origin (|R r| small) a truncated power series in r is used:
        mode-cancelling combinations such as sinh(Rr)/r suffer catastrophic
        cancellation in the direct exponential form.
        """
        if not (r > 0):
            raise ArgumentError("evaluation radius must be positive")
        R = self.rate
        if not self.terms:
            return 0 * R
        if abs(R) * r < SERIES_THRESHOLD and any(s != 0 for _, s in self.terms):
            return self._evaluate_series(r)
        e = {s: _exp(s * R * r) for s in {s for _, s in self.terms}}
        return sum(c * r**k * e[s] for (k, s), c in self.terms.items())

    def _evaluate_series(self, r):
        R = self.rate
        kmin = min(k for k, _ in self.terms)
        kmax = max(k for k, _ in self.terms)
        # coefficient of r^q is sum over terms of c * (sR)^{q-k} / (q-k)!
        coeffs = {}
        for (k, s), c in self.terms.items():
            if s == 0:
                coeffs[k] = coeffs.get(k, 0) + c
                continue
            x = s * R
            for t in range(SERIES_TERMS):
                q = k + t
                coeffs[q] = coeffs.get(q, 0) + c * _factorial_like(t, x)
        qmax = kmin + SERIES_TERMS - 1
        total = 0 * R
        scale = self.max_abs_coeff()
        for q in sorted(coeffs):
            if q > qmax and q > kmax:
                break
            a = coeffs[q]
            if q < 0 and abs(a) <= 1e-9 * max(1.0, float(scale)):
                # cancelled singular part: exact zero up to round-off
                continue
            total = total + a * r**q
        return total

    def __repr__(self):
        body = " + ".join(
            f"({self.terms[(k, s)]})*r^{k}*e^{{{s}Rr}}" for (k, s) in sorted(self.terms)
        ) or "0"
        return f"ExpoPoly[{body}; R={self.rate}]"


def decaying_basis(spec: RadialOperatorSpec) -> list:
    """Basis of exterior-decaying solutions of (R^2 - Delta_n)^m u = 0.

    The 3-dimensional kernel elements r^{j-1} e^{-Rr}, j = 0..m-1, are lifted
    to dimension n = 2m-1 by m-2 applications of the ladder map.  Each result
    is annihilated by m applications of the Helmholtz-type operator.
    """
    m = spec.power
    basis = []
    for j in range(m):
        p = ExpoPoly.decaying_exp(spec.rate, power=j - 1)
        for _ in range(m - 2):
            p = p.dimension_shift()
        basis.append(p)
    return basis


def regular_basis_3d(m: int, rate) -> list:
    """Radial solutions of (R^2 - Delta_3)^m u = 0 that are smooth at r = 0.

    Built as w_j / r with w_j = r^j sinh(Rr) for even j and r^j cosh(Rr) for
    odd j, j = 0..m-1, expressed through the +-1 exponential modes.
    """
    if m < 1:
        raise ArgumentError("m must be >= 1")
    basis = []
    for j in range(m):
        half = 0.5
        if j % 2 == 0:  # r^{j-1} sinh(Rr)
            terms = {(j - 1, +1): half, (j - 1, -1): -half}
        else:  # r^{j-1} cosh(Rr)
            terms = {(j - 1, +1): half, (j - 1, -1): half}
        basis.append(ExpoPoly(terms, rate))
    return basis
