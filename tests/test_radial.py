import hashlib
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from maglab import radial
from maglab.cloud import DomainShape
from maglab.errors import ArgumentError, ReconstructionError, ResonanceError
from maglab.invariants import asymptotic_polynomial, invariants_analytic
from maglab.radial import (
    ball_magnitude,
    exterior_trace_determinant,
    paper_shell_closed_form,
    rational_reconstruct,
    shell_deviation_report,
    shell_magnitude,
)


def _horner(coeffs, x):
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def b3_closed_form(R):
    return R**3 / 6 + R**2 + 2 * R + 1


def b5_closed_form(R):
    num = R**6 / 120 + 3 * R**5 / 20 + 9 * R**4 / 8 + 35 * R**3 / 8 + 9 * R**2 + 9 * R + 3
    return num / (R + 3)


def test_ball_one_dimensional():
    assert ball_magnitude(1, 2.5) == pytest.approx(3.5)


def test_ball3_matches_cubic():
    for R in (0.01, 0.5, 1.0, 7.0, 100.0):
        assert complex(ball_magnitude(3, R)).real == pytest.approx(
            b3_closed_form(R), rel=1e-12
        )


def test_ball5_matches_rational_closed_form():
    for R in (0.1, 1.0, 2.0, 10.0, 60.0):
        assert complex(ball_magnitude(5, R)).real == pytest.approx(
            b5_closed_form(R), rel=1e-10
        )


def test_ball_magnitude_at_complex_scale():
    R = 2.0 + 1.0j
    assert complex(ball_magnitude(3, R)) == pytest.approx(b3_closed_form(R), rel=1e-12)


def test_ball_magnitude_conjugate_symmetry():
    R = 1.5 + 0.7j
    v = complex(ball_magnitude(5, R))
    w = complex(ball_magnitude(5, R.conjugate()))
    assert w == pytest.approx(v.conjugate(), rel=1e-12)


def test_ball_high_precision_path_agrees():
    for n in (3, 5, 7):
        a = complex(ball_magnitude(n, 2.0))
        b = complex(ball_magnitude(n, 2.0, dps=50))
        assert a == pytest.approx(b, rel=1e-12)


def test_ball_large_scale_stays_accurate_in_doubles():
    # N/D in 1/R forms no power of R, and the dps = 60 trace solve is the
    # independent reference
    for n in (3, 5, 7, 9, 11, 13):
        val = complex(ball_magnitude(n, 150.0)).real
        ref = complex(ball_magnitude(n, 150.0, dps=60)).real
        assert val == pytest.approx(ref, rel=1e-12)


def test_ball_doubles_meet_the_a_priori_bound_on_the_positive_axis():
    u = 2.0**-53
    grid = [float(R) for R in np.linspace(0.1, 20.0, 400)] + [1e3]
    for n in range(3, 22, 2):
        num, den = radial._exact_ball_rational(n)
        bound = (2 * (len(num) - 1) + 2 * (len(den) - 1) + 1) * u
        for R in grid:
            x = Fraction(R)
            exact = _horner(num, x) / _horner(den, x)
            val = complex(ball_magnitude(n, R))
            assert val.imag == 0
            assert abs(Fraction(val.real) - exact) <= bound * exact, (n, R)


def _mp_horner_value(n, R, dps=80):
    num, den = radial._exact_ball_rational(n)
    with mpmath.workdps(dps):
        x = mpmath.mpc(R)
        at = lambda poly: _horner([mpmath.mpf(c.numerator) / c.denominator for c in poly], x)
        return complex(at(num) / at(den))


def _spy_on_exact_values(monkeypatch):
    calls = []
    plain = radial._ball_value_exact

    def spy(n, R):
        calls.append((n, R))
        return plain(n, R)

    monkeypatch.setattr(radial, "_ball_value_exact", spy)
    return calls


def test_ball_off_the_positive_axis_meets_its_running_bound(monkeypatch):
    recomputed = _spy_on_exact_values(monkeypatch)
    for n in (9, 21):
        for R in (-2.5 + 0.5j, 2 + 3j, 0.5 + 0.5j, 10 - 4j, -1.0, -0.4 + 0.1j):
            exact = _mp_horner_value(n, R)
            assert abs(complex(ball_magnitude(n, R)) - exact) <= 1e-13 * abs(exact), (n, R)
        # Horner in doubles is 7e-3 off at n = 21 here; the bound must catch it
        assert (n, -2.5 + 0.5j) in recomputed


def test_ball_pole_raises_resonance():
    with pytest.raises(ResonanceError) as info:
        ball_magnitude(5, -3.0)
    assert info.value.scale == -3.0
    assert complex(ball_magnitude(5, -3.0 + 1e-9)) == pytest.approx(b5_closed_form(-3.0 + 1e-9), rel=1e-9)


def test_ball_guard_holds_with_a_negative_coefficient(monkeypatch):
    # N - N(2) has a negative constant term and a root at R = 2, so Horner
    # cancels on the positive axis; the running bound must send those values
    # to the exact N/D
    num, den = radial._exact_ball_rational(7)
    shifted = (num[0] - _horner(num, Fraction(2)),) + num[1:]
    monkeypatch.setattr(radial, "_exact_ball_rational", lambda n: (shifted, den))
    recomputed = _spy_on_exact_values(monkeypatch)
    # the rounded coefficients are cached per n; the exact ones are not touched
    radial._ball_rational_doubles.cache_clear()
    try:
        assert ball_magnitude(7, 2.0) == 0
        for R in (0.5, 2.0 + 1e-9, 2.5, 40.0):
            x = Fraction(R)
            exact = _horner(shifted, x) / _horner(den, x)
            val = complex(ball_magnitude(7, R))
            assert val.imag == 0
            assert abs(Fraction(val.real) - exact) <= 1e-13 * abs(exact), R
        assert (7, 2.0) in recomputed and (7, 2.0 + 1e-9) in recomputed
    finally:
        radial._ball_rational_doubles.cache_clear()


def test_ball_at_the_edge_of_the_double_range():
    for R in (float("inf"), float("nan"), complex(1.0, float("inf"))):
        with pytest.raises(ArgumentError, match="finite"):
            ball_magnitude(5, R)
    for n, R in ((9, 1e40), (9, 1e36), (9, 1e36 + 1e36j), (9, -1e40), (21, 5e15)):
        with pytest.raises(ArgumentError, match="double range"):
            ball_magnitude(n, R)
    # here R^n overflows a double but M ~ R^n / n! does not
    for n, R in ((21, 5e14), (9, 3e34), (9, -3e34), (9, 2e34 + 1e34j)):
        exact = _mp_horner_value(n, R)
        assert abs(exact) > 1e250
        assert abs(complex(ball_magnitude(n, R)) - exact) <= 1e-13 * abs(exact), (n, R)


def test_ball_quotient_leads_with_the_asymptotic_coefficients():
    # N div D is the whole large-R expansion up to O(1/R); its top three
    # coefficients are the theorem's c0, c1 and c2 (Barcelo-Carbery)
    for n in range(3, 18, 2):
        quotient, _ = radial._polydivmod(*radial._exact_ball_rational(n))
        assert len(quotient) == n + 1
        theorem = asymptotic_polynomial(invariants_analytic(DomainShape.ball(n, 1.0)))
        for got, want in zip(reversed(quotient), theorem.coefficients):
            assert float(got) == pytest.approx(want, rel=1e-14), n


def test_ball_argument_validation():
    with pytest.raises(ArgumentError):
        ball_magnitude(4, 1.0)
    with pytest.raises(ArgumentError):
        ball_magnitude(3, 0.0)


def test_ball_small_scale_tends_to_one():
    assert complex(ball_magnitude(3, 1e-8)).real == pytest.approx(1.0, abs=1e-7)


def test_shell_golden_value():
    assert complex(shell_magnitude(1, 2, 1.0)).real == pytest.approx(
        10.333042690797358, rel=1e-12
    )


def test_shell_argument_validation():
    with pytest.raises(ArgumentError):
        shell_magnitude(2, 1, 1.0)
    with pytest.raises(ArgumentError):
        shell_magnitude(1, 2, 0.0)


def test_shell_thin_limit_approaches_sphere_area_scaling():
    # as a -> b the volume term vanishes; magnitude stays finite and exceeds 1
    val = complex(shell_magnitude(1.0, 1.01, 1.0)).real
    assert 1.0 < val < 20.0


def test_shell_small_scale_linear_slope():
    # M - 1 ~ (area-driven) 4R for the (1,2) shell as R -> 0
    for R in (1e-3, 1e-4):
        excess = complex(shell_magnitude(1, 2, R)).real - 1.0
        assert excess / R == pytest.approx(4.0, rel=1e-2)


def test_shell_high_precision_path_agrees():
    a = complex(shell_magnitude(1, 2, 3.0))
    b = complex(shell_magnitude(1, 2, 3.0, dps=50))
    assert a == pytest.approx(b, rel=1e-11)


def test_paper_shell_closed_form_golden():
    assert complex(paper_shell_closed_form(1.0)).real == pytest.approx(
        11.436723605775988, rel=1e-12
    )


def test_shell_deviation_report_rows():
    rows = shell_deviation_report([1.0, 2.0])
    assert len(rows) == 2
    for R, ours, printed, diff in rows:
        assert diff == pytest.approx(abs(ours - printed), rel=1e-12)
        assert diff > 1e-3  # the two formulas genuinely disagree


def test_exterior_trace_determinant_resonances_in_left_half_plane():
    # the determinant is nonzero on the positive real axis
    for R in (0.5, 1.0, 5.0, 25.0):
        assert abs(exterior_trace_determinant(7, R)) > 1e-12


def test_rational_reconstruct_b3_polynomial():
    model = rational_reconstruct(3)
    assert len(model.poles) == 0
    assert len(model.zeros) == 3


def test_rational_reconstruct_b5_pole():
    model = rational_reconstruct(5)
    assert len(model.poles) == 1
    assert abs(model.poles[0] + 3) <= 1e-8
    # a record of the roots of N/D, not an evaluator
    assert not callable(model)


def test_rational_reconstruct_b7_pole_goldens():
    model = rational_reconstruct(7)
    poles = sorted(model.poles, key=lambda p: p.imag)
    assert len(poles) == 3
    assert poles[1] == pytest.approx(-2.41259894803180 + 0j, abs=1e-8)
    assert poles[2] == pytest.approx(-4.7937005259841 + 1.3747296369986j, abs=1e-8)


def test_rational_reconstruct_argument_validation():
    with pytest.raises(ArgumentError):
        rational_reconstruct(4)
    with pytest.raises(ArgumentError):
        rational_reconstruct(2)


def test_exact_b5_coefficients():
    # (R^6+18R^5+135R^4+525R^3+1080R^2+1080R+360) / (120 (R+3)), D monic
    num, den = radial._exact_ball_rational(5)
    assert num == tuple(Fraction(c, 120) for c in (360, 1080, 1080, 525, 135, 18, 1))
    assert den == (3, 1)


def test_exact_rational_is_cached_and_immutable():
    assert radial._exact_ball_rational(7) is radial._exact_ball_rational(7)
    num, den = radial._exact_ball_rational(7)
    assert isinstance(num, tuple) and isinstance(den, tuple)


def test_exact_denominator_degree_meets_census_bound():
    for n in range(3, 22, 2):
        num, den = radial._exact_ball_rational(n)
        assert len(den) - 1 == (n - 1) * (n - 3) // 8
        assert len(num) - 1 == len(den) - 1 + n


def test_exact_model_matches_high_precision_trace_solve():
    # the double-precision N/D evaluator against the mpmath trace solve
    for n in (9, 11, 13):
        for R in (0.7 + 0.4j, 3.0 - 2.0j, 1.5 + 6.0j, 12.0):
            exact = complex(ball_magnitude(n, R, dps=50))
            assert abs(complex(ball_magnitude(n, R)) - exact) <= 1e-12 * abs(exact)


# sha256 of repr(_exact_ball_rational(n)), taken when N/D was interpolated
# from exact integer samples of the trace solve
EXACT_BALL_RATIONAL_SHA256 = {
    3: "39d89b165e11f4ccfa2b04c6517998080033166c2d09698bb236dc5e36b9cedd",
    5: "f6e6209c3d2a964231dbc5741ac8138f780707d879f712fadd6d6f6e5ddb95c4",
    7: "702a4cbe6dcf103fc3d2682b00cb0569f91758c947c7859d7302a323c495ab45",
    9: "a4215d818d032ce1c96deff872d065841cd6e6c7007d5542a07e49add15cf723",
    11: "c85b26e16806ae1908bc037a6e70dc324786854b4de699f47fb7d27238acc258",
    13: "f46d448bda636b07477bdc945a345475658038670132c57ce6df27954af9b43c",
    15: "24743ba1e508ed0f192fbd7e5f09d8d12e8a038bf2a9d635d28e73fff0c8ca98",
    17: "e63dc40fe095b42c49c0566707b2add8f27d8f5ca95536585a0dd6e691b03609",
    19: "588dd10f76b9653881a03914a69b1a4118966fa851d237fe5f97ae196300bb84",
    21: "b2ca8de406fe1ff2bd54ea6d952151c527aba561b07dc0d10447fc50025d1367",
}


def test_exact_rational_matches_the_sampled_reconstruction():
    for n, digest in EXACT_BALL_RATIONAL_SHA256.items():
        got = hashlib.sha256(repr(radial._exact_ball_rational(n)).encode()).hexdigest()
        assert got == digest, n


_TRACE_POLYS = radial._ball_trace_polys


def _with_trace_rows(monkeypatch, n, change):
    system, boundary = _TRACE_POLYS(n)
    monkeypatch.setattr(radial, "_ball_trace_polys", lambda k: (change(system), boundary))
    radial._exact_ball_rational.cache_clear()  # a cached N/D would hide the change


def test_exact_reconstruction_raises_on_a_corrupted_trace_row(monkeypatch):
    # 1 more in the constant term of the first system entry gives an N/D
    # whose reduced denominator is too high: degree 4 > 3 at n = 7, 7 > 6 at n = 9
    bump = lambda system: (((system[0][0][0] + 1,) + system[0][0][1:],) + system[0][1:],) + system[1:]
    try:
        for n in (7, 9):
            _with_trace_rows(monkeypatch, n, bump)
            with pytest.raises(ReconstructionError, match="reduced to degrees"):
                rational_reconstruct(n)
        # a zero first column leaves no pivot
        _with_trace_rows(monkeypatch, 7, lambda system: tuple(((0,),) + row[1:] for row in system))
        with pytest.raises(ReconstructionError, match="singular"):
            rational_reconstruct(7)
    finally:
        radial._exact_ball_rational.cache_clear()


# -- seeded, verified root extraction ----------------------------------------


def _unseeded_polyroots(monkeypatch):
    """Make mp.polyroots ignore roots_init, as before it was seeded."""
    plain = mpmath.polyroots

    def without_seeds(*args, roots_init=None, **kwargs):
        return plain(*args, **kwargs)

    monkeypatch.setattr(mpmath, "polyroots", without_seeds)


def _census_coefficients(n):
    return [radial._integer_coefficients(p) for p in radial._exact_ball_rational(n)]


def test_seeded_roots_equal_unseeded_roots(monkeypatch):
    key = lambda z: (z.imag, z.real)
    for n in (5, 7, 9, 11):
        for coeffs in _census_coefficients(n):
            seeded = sorted((complex(z) for z in radial._verified_polyroots(coeffs)), key=key)
            with monkeypatch.context() as m:
                _unseeded_polyroots(m)
                plain = sorted((complex(z) for z in radial._verified_polyroots(coeffs)), key=key)
            assert seeded == plain  # bit for bit, as complex doubles


def test_polyroots_starts_from_one_seed_per_root(monkeypatch):
    calls = []
    plain = mpmath.polyroots

    def spy(coeffs, **kwargs):
        calls.append(kwargs)
        return plain(coeffs, **kwargs)

    monkeypatch.setattr(mpmath, "polyroots", spy)
    num, _ = _census_coefficients(9)
    radial._verified_polyroots(num)
    assert calls
    for kwargs in calls:
        seeds = kwargs["roots_init"]
        assert len(seeds) == len(num) - 1
        assert all(isinstance(z, mpmath.mpc) for z in seeds)


def test_perturbed_roots_fail_verification(monkeypatch):
    plain = mpmath.polyroots
    monkeypatch.setattr(
        mpmath, "polyroots", lambda *a, **k: [z * (1 + mpmath.mpf(10) ** -12) for z in plain(*a, **k)]
    )
    _, den = _census_coefficients(9)
    with pytest.raises(ReconstructionError):
        radial._verified_polyroots(den)


def test_huge_coefficients_do_not_overflow_the_seeds():
    # (x + 1)(x + 2)(x + 3) times 10^400, plus one in the constant term: no
    # coefficient fits a double, yet the seeds and the roots must come out
    big = 10**400
    coeffs = [big, 6 * big, 11 * big, 6 * big + 1]
    roots = sorted(complex(z).real for z in radial._verified_polyroots(coeffs))
    assert roots == pytest.approx([-3.0, -2.0, -1.0], abs=1e-12)
