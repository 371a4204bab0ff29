"""Exact magnitude functions for odd-dimensional balls and 3D spherical shells.

The magnitude of a scaled smooth domain is the volume term plus boundary
integrals of odd-order traces of the solution to an exterior boundary value
problem for (R^2 - Delta)^m, m = (n+1)/2.  For radial domains that problem
collapses to an m x m linear system over exponential-polynomial kernel bases,
so every value of the magnitude function, at any complex scale away from the
resonances of the trace system, is computed in closed form.

The trace solve is generic over Python complex / mpmath; shells use it in
doubles, balls only in mpmath (``ball_magnitude(..., dps=...)``), where it is
the independent reference.  mpmath is imported by the first call that needs
it, a ``dps=`` solve or a root extraction, so double-precision ball and
shell values never load it.  In doubles a ball magnitude is its exact rational
form N/D evaluated by Horner's rule under an error bound: a value either
meets the bound or is computed from the exact N/D.  N and D come from one
fraction-free elimination of the trace system over integer polynomials in R.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

import numpy as np

from .errors import ArgumentError, ReconstructionError, ResonanceError
from .expopoly import ExpoPoly, RadialOperatorSpec, _mpmath_of, decaying_basis, regular_basis_3d

#: trace-matrix condition estimate above which R is flagged as a resonance
RESONANCE_CONDITION_LIMIT = 1e12
#: accepted trace residual, relative to max(1, |data|)
TRACE_RTOL = 1e-9
#: running relative error bound above which a double-precision ball value is
#: taken from the exact N/D instead
HORNER_RTOL = 1e-12

EXTERIOR = "exterior"
INTERIOR = "interior"


@dataclass(frozen=True)
class RadialSolution:
    """Coefficients over a kernel basis solving a radial boundary problem."""

    coefficients: tuple
    basis: tuple
    spec: RadialOperatorSpec
    radius: float
    side: str
    condition: float

    def combination(self) -> ExpoPoly:
        out = ExpoPoly.zero(self.spec.rate)
        for c, b in zip(self.coefficients, self.basis):
            out = out + b * c
        return out


def trace_value(u: ExpoPoly, j: int, spec: RadialOperatorSpec, rho, side=EXTERIOR):
    """Boundary trace of order j at radius rho.

    Even j: evaluate (R^2 - Delta)^{j/2} u at rho.  Odd j: apply the operator
    (j-1)/2 times, differentiate, evaluate, and orient by the outward normal
    of the complement component: -d/dr on the exterior side, +d/dr on the
    interior side.
    """
    if j < 0 or j > spec.dimension:
        raise ArgumentError(f"trace order {j} outside 0..{spec.dimension}")
    g = u
    for _ in range(j // 2):
        g = g.helmholtz_apply(spec)
    if j % 2 == 0:
        return g.evaluate(rho)
    sign = -1 if side == EXTERIOR else +1
    return sign * g.differentiate().evaluate(rho)


def _solve_linear(rows, data):
    """Solve a small dense system in whatever scalar type the entries carry."""
    mp = _mpmath_of(*(v for row in rows for v in row))
    if mp:
        A = mp.matrix(rows)
        b = mp.matrix(data)
        x = mp.lu_solve(A, b)
        return [x[i] for i in range(len(data))]
    A = np.array(rows, dtype=complex)
    b = np.array(data, dtype=complex)
    return list(np.linalg.solve(A, b))


def _condition_estimate(rows):
    A = np.array([[complex(v) for v in row] for row in rows], dtype=complex)
    with np.errstate(all="ignore"):
        # equilibrate rows and columns first: trace rows carry power-of-R
        # scale factors that inflate the raw condition number without making
        # the solve any harder
        rs = np.abs(A).max(axis=1)
        rs[rs == 0] = 1.0
        A = A / rs[:, None]
        cs = np.abs(A).max(axis=0)
        cs[cs == 0] = 1.0
        A = A / cs[None, :]
        try:
            return float(np.linalg.cond(A))
        except np.linalg.LinAlgError:
            return float("inf")


def _solve_traces(spec, rho, data, basis, side):
    m = spec.power
    if len(data) != m:
        raise ArgumentError(f"expected {m} boundary data values, got {len(data)}")
    rows = [[trace_value(b, j, spec, rho, side) for b in basis] for j in range(m)]
    cond = _condition_estimate(rows)
    # in mpmath arithmetic the solve stays accurate well past the double limit
    limit = RESONANCE_CONDITION_LIMIT
    mp = _mpmath_of(spec.rate)
    if mp:
        limit = max(limit, 10.0 ** (mp.mp.dps - 6))
    if not np.isfinite(cond) or cond > limit:
        raise ResonanceError(
            f"trace system singular at R={spec.rate} (cond ~ {cond:.3e})",
            scale=spec.rate,
            condition=cond,
        )
    coeffs = _solve_linear(rows, data)
    sol = RadialSolution(
        coefficients=tuple(coeffs),
        basis=tuple(basis),
        spec=spec,
        radius=float(rho),
        side=side,
        condition=cond,
    )
    # trace residual guard, judged row by row against the terms that cancel
    # to produce the residual (a global scale would flag benign rounding in
    # rows whose entries dwarf the data, e.g. high-order traces at large R)
    u = sol.combination()
    for j, g in enumerate(data):
        res = float(abs(trace_value(u, j, spec, rho, side) - g))
        ref = max(
            1.0,
            float(abs(g)),
            sum(float(abs(rows[j][i]) * abs(c)) for i, c in enumerate(coeffs)),
        )
        if res > TRACE_RTOL * ref:
            raise ResonanceError(
                f"trace residual {res:.3e} too large at R={spec.rate}",
                scale=spec.rate,
                condition=cond,
            )
    return sol


def solve_exterior(spec: RadialOperatorSpec, rho, data) -> RadialSolution:
    """Unique decaying solution outside radius rho with prescribed traces."""
    if spec.rate == 0:
        raise ArgumentError("rate must be nonzero")
    return _solve_traces(spec, rho, data, decaying_basis(spec), EXTERIOR)


def solve_interior(spec: RadialOperatorSpec, rho, data) -> RadialSolution:
    """Regular solution inside radius rho (3D only) with prescribed traces."""
    if spec.dimension != 3:
        raise ArgumentError("interior solves are implemented for dimension 3 only")
    return _solve_traces(spec, rho, data, regular_basis_3d(spec.power, spec.rate), INTERIOR)


def exterior_trace_determinant(n: int, R, *, rho=1.0, dps=None):
    """Determinant of the exterior trace system, with e^{-R rho} factored out.

    Its zeros are the resonances of the boundary value problem; the poles of
    the magnitude function are contained among them.
    """
    spec_cls = RadialOperatorSpec
    if dps is not None:
        import mpmath as mp

        with mp.workdps(dps):
            spec = spec_cls(n, mp.mpc(R))
            rows = _stripped_trace_rows(spec, rho)
            return complex(mp.det(mp.matrix(rows)))
    spec = spec_cls(n, complex(R))
    rows = _stripped_trace_rows(spec, rho)
    return complex(np.linalg.det(np.array(rows, dtype=complex)))


def _stripped_trace_rows(spec, rho):
    # each decaying basis element carries a global e^{-R r}; dividing it out
    # at r = rho keeps the determinant zeros while taming the scale
    m = spec.power
    basis = decaying_basis(spec)
    grow = _cexp(spec.rate * rho)
    return [
        [trace_value(b, j, spec, rho, EXTERIOR) * grow for b in basis] for j in range(m)
    ]


def _magnitude_data(m, R):
    # boundary data of the magnitude problem: R^j for even j, 0 for odd j
    return [R**j if j % 2 == 0 else 0 * R for j in range(m)]


def _boundary_term(spec, sol, rho, R):
    """Contribution of one boundary sphere of radius rho to the magnitude.

    Equals (1/(n! w_n)) * sum_{m/2 < j <= m} R^{n-2j} * area(S_rho) * D^{2j-1}h,
    using that the integrand is constant on the sphere and
    area(S_rho^{n-1}) = n w_n rho^{n-1}.
    """
    n = spec.dimension
    m = spec.power
    h = sol.combination()
    total = 0 * R
    for j in range(m // 2 + 1, m + 1):
        total = total + R ** (n - 2 * j) * trace_value(h, 2 * j - 1, spec, rho, sol.side)
    return total * (n * rho ** (n - 1) / math.factorial(n))


def ball_magnitude(n: int, R, *, dps=None):
    """Magnitude of the radius-R rescaling of the unit n-ball, n odd.

    n = 1 is the classical closed form R + 1.  For n >= 3 the value is the
    exact rational form N/D evaluated in doubles (``_ball_value``), returned
    as a Python complex.  With ``dps`` set it is instead the exterior trace
    solve in mpmath arithmetic at that precision, which shares no code with
    N/D and serves as the reference for it.
    """
    if n < 1 or n % 2 == 0:
        raise ArgumentError(f"dimension must be odd and >= 1, got {n}")
    if R == 0:
        raise ArgumentError("R must be nonzero (the limit at 0 is 1)")
    if n == 1:
        return R + 1
    if dps is not None:
        import mpmath as mp

        with mp.workdps(dps):
            val = _ball_magnitude_at(n, mp.mpc(R))
            return complex(val)
    return _ball_value(n, complex(R))


def _ball_magnitude_at(n, R):
    spec = RadialOperatorSpec(n, R)
    m = spec.power
    sol = solve_exterior(spec, 1.0, _magnitude_data(m, R))
    return R**n / math.factorial(n) + _boundary_term(spec, sol, 1.0, R)


# -- cached integer-polynomial form of the unit-ball trace system ----------
#
# Writing each decaying basis element as p(r, R) e^{-R r} with an integer
# polynomial p, every trace at rho = 1 is an integer polynomial in R times
# e^{-R}.  The exponential cancels between the trace solve and the boundary
# term, so the magnitude is a quotient of determinants of these cached
# integer polynomials: the exact rational form below.


def _ipoly_diff(p):
    # d/dr of p e^{-Rr} = (p_r - R p) e^{-Rr}; keys are (k_r, j_R) -> int
    out = {}
    for (k, j), c in p.items():
        if k != 0:
            key = (k - 1, j)
            out[key] = out.get(key, 0) + c * k
        key = (k, j + 1)
        out[key] = out.get(key, 0) - c
    return {key: c for key, c in out.items() if c != 0}


def _ipoly_trace(p, order, n):
    # order-th trace at rho = 1 on the exterior side, as ascending R-coeffs
    g = p
    for _ in range(order // 2):
        d1 = _ipoly_diff(g)
        d2 = _ipoly_diff(d1)
        out = {}
        for (k, j), c in g.items():
            out[(k, j + 2)] = out.get((k, j + 2), 0) + c
        for (k, j), c in d2.items():
            out[(k, j)] = out.get((k, j), 0) - c
        for (k, j), c in d1.items():
            out[(k - 1, j)] = out.get((k - 1, j), 0) - (n - 1) * c
        g = {key: c for key, c in out.items() if c != 0}
    sign = 1
    if order % 2 == 1:
        g = _ipoly_diff(g)
        sign = -1  # outward normal of the complement: nu = -e_r
    coeffs = {}
    for (_, j), c in g.items():
        coeffs[j] = coeffs.get(j, 0) + sign * c
    top = max(coeffs, default=0)
    return tuple(coeffs.get(j, 0) for j in range(top + 1))


@lru_cache(maxsize=None)
def _ball_trace_polys(n):
    """Integer-polynomial trace rows of the exterior unit-ball problem.

    Returns (system_rows, boundary_rows): the m x m matrix of traces
    D^i of the decaying basis (orders 0..m-1) and the odd-order rows
    D^{2j-1}, m/2 < j <= m, entering the magnitude boundary term.
    """
    m = (n + 1) // 2
    basis = []
    for j in range(m):
        p = {(j - 1, 0): 1}
        for _ in range(m - 2):
            # ladder map -(1/r) d/dr
            p = {(k - 1, jj): -c for (k, jj), c in _ipoly_diff(p).items()}
        basis.append(p)
    system = tuple(tuple(_ipoly_trace(b, i, n) for b in basis) for i in range(m))
    boundary = tuple(
        tuple(_ipoly_trace(b, 2 * j - 1, n) for b in basis)
        for j in range(m // 2 + 1, m + 1)
    )
    return system, boundary


def shell_magnitude(a: float, b: float, R, *, dps=None):
    """Magnitude function of the 3D spherical shell {a <= |x| <= b}.

    The complement has two components: the exterior of the b-sphere (solved
    over the decaying basis) and the open a-ball (solved over the basis of
    solutions regular at the origin).  Both contribute boundary terms on top
    of the volume term.
    """
    if not (0 < a < b):
        raise ArgumentError("shell radii must satisfy 0 < a < b")
    if R == 0:
        raise ArgumentError("R must be nonzero (the limit at 0 is 1)")
    if dps is not None:
        import mpmath as mp

        with mp.workdps(dps):
            return complex(_shell_magnitude_at(a, b, mp.mpc(R)))
    return _shell_magnitude_at(a, b, complex(R))


def _shell_magnitude_at(a, b, R):
    spec = RadialOperatorSpec(3, R)
    data = _magnitude_data(2, R)
    outer = solve_exterior(spec, b, data)
    inner = solve_interior(spec, a, data)
    vol_term = (b**3 - a**3) * R**3 / 6.0
    return vol_term + _boundary_term(spec, outer, b, R) + _boundary_term(spec, inner, a, R)


def paper_shell_closed_form(R):
    """Literal transcription of the published closed form for the (1,2) shell.

    Kept for comparison reporting only; see ``shell_deviation_report``.  The
    quotient is evaluated in a form that avoids overflow of exp(2R) for large
    real parts.
    """
    R = complex(R)
    em2 = _cexp(-2 * R)
    den = 2 * em2 * (2 * R - _csinh(2 * R))
    if abs(den) < 1e-300:
        raise ArgumentError(f"denominator vanishes at R={R} (pole of the printed formula)")
    num = (em2 - 1) ** 2 * (R * R + 3 * R + 3) + 6 * R * (em2 - 1)
    poly = 7.0 / 3.0 * R**3 + 4 * R**2 + 4 * R + 1
    return poly - num / den


def _cexp(z):
    mp = _mpmath_of(z)
    return mp.exp(z) if mp else np.exp(z)


def _csinh(z):
    mp = _mpmath_of(z)
    return mp.sinh(z) if mp else np.sinh(z)


def shell_deviation_report(Rs, a=1.0, b=2.0):
    """Rows (R, ours, printed, |difference|) comparing the two shell formulas.

    The published closed form for the (1,2) shell disagrees with the
    boundary-value assembly beyond the shared pole family; the deviation is
    reported, never gated on.
    """
    rows = []
    for R in Rs:
        ours = shell_magnitude(a, b, R)
        printed = paper_shell_closed_form(R)
        rows.append((complex(R), ours, printed, abs(ours - printed)))
    return rows




# -- exact rational form of the ball magnitude ------------------------------
#
# The cached trace system S, its data column d (R^j for even j, 0 for odd j)
# and the boundary row beta = sum_j R^(n+1-2j) (boundary row j) are integer
# polynomials in R.  Cramer's rule on B = [[S, d], [beta, 0]] gives
# R n! det S M_{B_n} = R^(n+1) det S - n det B, and one fraction-free
# elimination of B over Z[R] yields det S and det B; their quotient, reduced
# by its gcd, is M_{B_n} = N/D exactly.


@dataclass(frozen=True)
class RationalFunction:
    """The zeros and poles of M_{B_n} = N/D, each multiset sorted by (Im, Re).

    The record is not evaluated: ``ball_magnitude`` evaluates M_{B_n} with an
    error guard.
    """

    zeros: tuple
    poles: tuple


def _trim(poly):
    # ascending coefficients without trailing zeros; the zero polynomial is []
    poly = list(poly)
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _bareiss_entry(pivot, a, b, c, prev):
    """(pivot a - b c) / prev over Z[R], ascending integer coefficients.

    Sylvester's identity makes the division by the previous pivot exact, so
    it runs in Python integers.
    """
    out = [0] * max(len(pivot) + len(a), len(b) + len(c))
    for x, y, sign in ((pivot, a, 1), (b, c, -1)):
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                out[i + j] += sign * xi * yj
    out = _trim(out)
    quotient = [0] * (len(out) - len(prev) + 1)
    for s in reversed(range(len(quotient))):
        q = quotient[s] = out[s + len(prev) - 1] // prev[-1]
        for i, pc in enumerate(prev):
            out[s + i] -= q * pc
    return quotient


def _ball_determinants(n):
    """(det S, det B) of the ball trace system, up to one common sign.

    Bareiss elimination of B = [[S, d], [beta, 0]] over Z[R] with pivots
    taken from the rows of S only: the pivot of column m - 1 is +-det S and
    that of column m is +-det B, signed alike by the row swaps.
    """
    system, boundary = _ball_trace_polys(n)
    m = (n + 1) // 2
    beta = []
    for k in range(m):
        terms = [[0] * (n + 1 - 2 * j) + list(row[k]) for row, j in zip(boundary, range(m // 2 + 1, m + 1))]
        beta.append(_trim(map(sum, zip_longest(*terms, fillvalue=0))))
    data = [[0] * i + [1] if i % 2 == 0 else [] for i in range(m)]
    A = [[_trim(p) for p in row] + [d] for row, d in zip(system, data)] + [beta + [[]]]
    prev = [1]
    for k in range(m):
        piv = next((r for r in range(k, m) if A[r][k]), None)
        if piv is None:
            raise ReconstructionError(f"trace system of M_B{n} is singular")
        A[k], A[piv] = A[piv], A[k]
        for i in range(k + 1, m + 1):
            A[i] = [[]] * (k + 1) + [
                _bareiss_entry(A[k][k], A[i][j], A[i][k], A[k][j], prev)
                for j in range(k + 1, m + 1)
            ]
        prev = A[k][k]
    return A[m - 1][m - 1], A[m][m]


def _polydivmod(a, b):
    """Quotient and remainder of ascending Fraction polynomials."""
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    for s in reversed(range(len(a) - len(b) + 1)):
        f = a[s + len(b) - 1] / b[-1]
        q[s] = f
        for i, c in enumerate(b):
            a[s + i] -= f * c
    return _trim(q), _trim(a[: len(b) - 1])


def _polygcd(a, b):
    """Monic gcd of two Fraction polynomials (Euclid's algorithm)."""
    while any(b):
        b = [c / b[-1] for c in b]
        a, b = b, _polydivmod(a, b)[1]
    return [c / a[-1] for c in a]


@lru_cache(maxsize=None)
def _exact_ball_rational(n):
    """(N, D), ascending Fraction coefficients with D monic and N/D = M_{B_n}.

    N/D is (R^(n+1) det S - n det B) / (R n! det S) from ``_ball_determinants``,
    reduced by its gcd.  Cached per n, as tuples, for ``rational_reconstruct``
    and the census certificates.  Raises ReconstructionError unless
    deg D <= (n-1)(n-3)/8 and deg N = deg D + n.
    """
    det_s, det_b = _ball_determinants(n)
    lifted = [0] * (n + 1) + det_s
    num = [Fraction(c) for c in _trim(x - n * y for x, y in zip_longest(lifted, det_b, fillvalue=0))]
    den = [Fraction(math.factorial(n) * c) for c in [0] + det_s]
    common = _polygcd(num, den)
    num, den = _polydivmod(num, common)[0], _polydivmod(den, common)[0]
    num = [c / den[-1] for c in num]
    den = [c / den[-1] for c in den]
    d_den = (n - 1) * (n - 3) // 8
    if len(den) - 1 > d_den or len(num) != len(den) + n:
        raise ReconstructionError(
            f"M_B{n} reduced to degrees {len(num) - 1}/{len(den) - 1}; expected "
            f"deg D <= {d_den} and deg N = deg D + {n}"
        )
    return tuple(num), tuple(den)


# -- M_{B_n} = N/D in double precision ---------------------------------------
#
# Horner's rule in doubles on coefficients rounded to doubles has relative
# error at most 8 (d + 1) u sum |c_k||x|^k / |p(x)|, u = 2^-53, for a degree-d
# polynomial (Higham, Accuracy and Stability of Numerical Algorithms, 5.1);
# the factor 8 covers the rounding of complex products and quotients.  The
# Horner pass computes this running bound alongside the value.  For odd
# n <= 21 every coefficient of N and D is positive, so on R > 0 no term
# cancels, sum |c_k||x|^k = p(x) and the bound of N/D is the constant
# 8 (deg N + deg D + 2) u, 1.0e-13 at n = 21: such values always stay in
# doubles, within (2 deg N + 2 deg D + 3) u plus about 3u for the factor
# R^(deg N - deg D) = R^n.  Where terms cancel the bound grows; above
# HORNER_RTOL the value is taken from the exact N/D instead.


@lru_cache(maxsize=None)
def _ball_rational_doubles(n):
    """(N, D): ``_exact_ball_rational(n)`` rounded to doubles."""
    num, den = _exact_ball_rational(n)
    return tuple(map(float, num)), tuple(map(float, den))


def _horner_scaled(coeffs, x):
    """(p, s) with p = sum c_k x^k and s = sum |c_k| |x|^k by Horner's rule.

    For |x| > 1 both are divided by x^deg (s by |x|^deg), evaluated in 1/x
    over the reversed coefficients by dividing by x at each step, so no power
    of x is formed and none overflows.
    """
    r = abs(x)
    p, s = 0 * x, 0 * r
    if r <= 1:
        for c in reversed(coeffs):
            p = p * x + c
            s = s * r + abs(c)
    else:
        for c in coeffs:
            p = p / x + c
            s = s / r + abs(c)
    return p, s


def _running_bound(coeffs, p, s):
    # relative error bound of Horner's double-precision value p
    return 8 * len(coeffs) * 2.0**-53 * s / abs(p) if p else math.inf


def _ball_value(n, R):
    """M_{B_n}(R) for a nonzero finite complex R, from N/D in doubles.

    A value whose running bound exceeds HORNER_RTOL is taken from the exact
    N/D by ``_ball_value_exact``.  A value beyond the double range is an
    ArgumentError.
    """
    if not cmath.isfinite(R):
        raise ArgumentError(f"R must be finite, got {R}")
    num, den = _ball_rational_doubles(n)
    x = R.real if R.imag == 0 else R
    try:
        (pn, sn), (pd, sd) = _horner_scaled(num, x), _horner_scaled(den, x)
        if _running_bound(num, pn, sn) + _running_bound(den, pd, sd) <= HORNER_RTOL:
            value = _quotient(pn, pd, x, len(num) - len(den))
        else:
            value = _ball_value_exact(n, R)
    except OverflowError:
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise ArgumentError(f"M_B{n} exceeds the double range at R={R}")
    return value


def _quotient(pn, pd, x, k):
    """N/D from Horner's values; in the 1/x form, times x^k, k = deg N - deg D.

    With |x| = f 2^e, 1/2 <= f < 1, x^k is (x 2^-e)^k 2^(ek): the power
    cannot overflow, and only a value beyond the double range raises
    OverflowError, in ``ldexp``.
    """
    value = complex(pn / pd)
    if abs(x) > 1:
        e = math.frexp(abs(x))[1]
        value *= (x * 2.0**-e) ** k
        value = complex(math.ldexp(value.real, e * k), math.ldexp(value.imag, e * k))
    return value


def _ball_value_exact(n, R):
    """M_{B_n}(R) from the exact N/D at the complex double R.

    N(R) and D(R) are summed exactly over the Gaussian integers
    (``_gaussian_horner``) and each part of their quotient is rounded once,
    correctly; beyond the double range that raises OverflowError.  An exact
    zero of D is a pole: ResonanceError.
    """
    num, den = _exact_ball_rational(n)
    scale = math.lcm(*(c.denominator for c in num + den))
    (nr, ni, q), (dr, di, _) = (
        _gaussian_horner([int(c * scale) for c in reversed(poly)], R) for poly in (num, den)
    )
    if dr == di == 0:
        raise ResonanceError(f"M_B{n} has a pole at R={R}", scale=R)
    # N/D = (nr + i ni)(dr - i di) / ((dr^2 + di^2) q^(deg N - deg D))
    size = (dr * dr + di * di) * q ** (len(num) - len(den))
    return complex((nr * dr + ni * di) / size, (ni * dr - nr * di) / size)


def _gaussian_horner(coeffs, z):
    """(hr, hi, q) with q^deg P(z) = hr + i hi exactly.

    ``coeffs`` are P's integer coefficients, descending.  A complex double z
    is (x + iy)/q with integers x, y and q a power of two, so Horner's rule
    on q^deg P(z) runs over the Gaussian integers without rounding.
    """
    re, im = Fraction(z.real), Fraction(z.imag)
    q = max(re.denominator, im.denominator)
    x, y = int(re * q), int(im * q)
    hr, hi, qj = 0, 0, 1
    for c in coeffs:
        hr, hi = hr * x - hi * y + c * qj, hr * y + hi * x
        qj *= q
    return hr, hi, q


def _integer_coefficients(poly):
    """Descending, content-free integer coefficients of a Fraction polynomial."""
    scale = math.lcm(*(c.denominator for c in poly))
    ints = [int(c * scale) for c in reversed(poly)]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _verified_polyroots(coeffs, max_attempts=4):
    """All roots of an integer polynomial (descending coefficients), verified.

    ``mp.polyroots`` (Durand-Kerner) starts from the ``numpy.roots`` values
    of the coefficients divided by the largest one, which no degree or
    coefficient size can overflow; the seeds only shorten the iteration.
    Iterative root-finders can silently stagnate on clustered roots while
    reporting convergence, so the root multiset is only accepted once
    multiplying it back out reproduces the input coefficients; otherwise, or
    when the iteration does not converge, the computation is repeated at
    doubled precision.  The starting precision grows with the coefficients'
    size.
    """
    import mpmath as mp

    deg = len(coeffs) - 1
    if deg <= 0:
        return []
    big = max(abs(c) for c in coeffs)
    seeds = [mp.mpc(z) for z in np.roots([c / big for c in coeffs]) if np.isfinite(z)]
    # with about as many digits as the largest coefficient has, the iteration
    # stalls on the clustered roots of the census polynomials; twice that
    # converges
    work = 2 * len(str(big)) + 20
    worst = mp.inf
    for _ in range(max_attempts):
        with mp.workdps(work):
            try:
                roots = mp.polyroots(
                    coeffs, maxsteps=50 * deg + 500, extraprec=work, roots_init=seeds
                )
            except mp.mp.NoConvergence:
                pass  # one failed attempt
            else:
                poly = [mp.mpf(1)]
                for r in roots:
                    nxt = [mp.mpc(0)] * (len(poly) + 1)
                    for i, c in enumerate(poly):
                        nxt[i + 1] += c
                        nxt[i] -= c * r
                    poly = nxt
                lead = mp.mpf(coeffs[0])
                worst = max(
                    abs(poly[deg - i] - c / lead) / max(1, abs(c / lead))
                    for i, c in enumerate(coeffs)
                )
                if worst < mp.mpf(10) ** (-(work // 2)):
                    return roots
        work *= 2
    raise ReconstructionError(
        f"root verification stalled at {float(worst):.3e} for degree {deg}"
    )


def rational_reconstruct(n: int) -> RationalFunction:
    """Zeros and poles of the n-ball magnitude function N/D, n odd >= 3.

    N and D are exact (``_exact_ball_rational``): one fraction-free
    elimination of the trace system over integer polynomials in R gives
    them, with deg D <= (n-1)(n-3)/8, deg N = deg D + n and D monic.  Only
    the roots come from mpmath, by ``polyroots`` on the integer
    coefficients, seeded from ``numpy.roots``, with a multiply-back check.
    Raises ReconstructionError when a check fails.
    """
    if n < 3 or n % 2 == 0:
        raise ArgumentError("rational reconstruction needs odd n >= 3")
    num, den = _exact_ball_rational(n)
    order = lambda c: (c.imag, c.real)
    zeros = sorted((complex(z) for z in _verified_polyroots(_integer_coefficients(num))), key=order)
    poles = sorted((complex(p) for p in _verified_polyroots(_integer_coefficients(den))), key=order)
    return RationalFunction(tuple(zeros), tuple(poles))
