from fractions import Fraction

import numpy as np
import pytest

from maglab import radial, roots
from maglab.errors import ArgumentError, DiagnosticError
from maglab.roots import (
    SearchRegion,
    ball_pole_zero_census,
    shell_denominator_residual,
    shell_pole_survey,
    write_roots_csv,
)


def shell_den(z):
    return np.sinh(2 * z) - 2 * z


def winding_count(f, x0, x1, y0, y1, per_side=4000):
    """Zeros minus poles of f in [x0, x1] x [y0, y1], with multiplicity.

    The trapezoidal winding number of f along the rectangle's boundary at a
    fixed per_side points a side, f evaluated on numpy arrays.  A zero or
    non-finite sample, or a phase step of pi/2 or more between neighbours,
    means the contour runs through or too near a root: ValueError.
    """
    t = np.linspace(0.0, 1.0, per_side, endpoint=False)
    dx, dy = x1 - x0, y1 - y0
    z = np.concatenate(
        [x0 + dx * t + 1j * y0, x1 + 1j * (y0 + dy * t), x1 - dx * t + 1j * y1, x0 + 1j * (y1 - dy * t)]
    )
    w = f(z)
    if not np.all(np.isfinite(w)) or np.any(w == 0):
        raise ValueError("f vanishes or is infinite on the contour")
    steps = np.angle(np.roll(w, -1) / w)
    if np.abs(steps).max() >= np.pi / 2:
        raise ValueError("a root lies on or near the contour")
    return round(steps.sum() / (2 * np.pi))


def test_region_validation():
    with pytest.raises(ArgumentError):
        SearchRegion(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ArgumentError):
        SearchRegion(0.0, 1.0, 1.0, 1.0)


# the winding count is the oracle of the shell survey's completeness test


def test_count_simple_zero():
    assert winding_count(lambda z: z - (1 + 1j), 0, 2, 0, 2) == 1


def test_count_simple_pole():
    assert winding_count(lambda z: 1 / (z - 1), 0, 2, -1, 1) == -1


def test_count_zero_minus_pole_cancels():
    assert winding_count(lambda z: (z - 0.5) / (z + 0.5), -1, 1, -1, 1) == 0


def test_count_with_multiplicity():
    assert winding_count(lambda z: z**3, -1, 1, -1, 1) == 3


def test_count_empty_region():
    assert winding_count(lambda z: z - 10, -1, 1, -1, 1) == 0


def test_count_root_on_contour_is_flagged():
    with pytest.raises(ValueError):
        winding_count(lambda z: z - 1, -1, 1, -1, 1)


def test_census_b5():
    poles, zeros = ball_pole_zero_census(5)
    assert len(poles) == 1 and len(zeros) == 6
    assert poles.roots[0].location == pytest.approx(-3.0 + 0j, abs=1e-8)
    assert poles.is_conjugation_symmetric()
    assert zeros.is_conjugation_symmetric()


def _ascending(*descending):
    return tuple(Fraction(c) for c in reversed(descending))


def test_census_certificates_reject_bad_roots():
    right = _ascending(1, -1, 1)  # x^2 - x + 1: roots in Re > 0
    axis = _ascending(1, 1, 1, 1)  # x^3 + x^2 + x + 1: roots -1 and +-i
    double = _ascending(1, 2, 1)  # (x + 1)^2: a double root at -1
    assert not roots._is_hurwitz(right[::-1]) and roots._is_squarefree(right)
    assert not roots._is_hurwitz(axis[::-1]) and roots._is_squarefree(axis)
    assert roots._is_hurwitz(double[::-1]) and not roots._is_squarefree(double)
    for poly in (right, axis, double):
        with pytest.raises(DiagnosticError):
            roots._certify_simple_left_roots(poly, "P")
    roots._certify_simple_left_roots(_ascending(1, 3, 2), "P")  # (x + 1)(x + 2)


def test_census_certificates_hold_for_ball_rationals():
    for n in (3, 5, 7, 9, 11, 13):
        for poly in radial._exact_ball_rational(n):
            assert roots._is_squarefree(poly)
            assert roots._is_hurwitz(poly[::-1])


def test_census_residuals_are_backward_errors():
    poles, zeros = ball_pole_zero_census(9)
    for rs in (poles, zeros):
        assert len(rs) > 0
        assert all(0 < r.residual < 1e-12 for r in rs)
    # a root moved by 1e-10 of its size has a much larger backward error
    num, _ = radial._exact_ball_rational(9)
    z = zeros.roots[0].location
    coeffs = radial._integer_coefficients(num)
    moved = roots._backward_errors(coeffs, [z * (1 + 1e-10)])[0]
    assert moved > 1e3 * zeros.roots[0].residual


def test_census_rejects_a_root_with_a_large_backward_error(monkeypatch):
    rf = radial.rational_reconstruct(7)
    off = rf.poles[0] * (1 + 1e-6)
    spoiled = type(rf)(rf.zeros, (off,) + rf.poles[1:])
    monkeypatch.setattr(roots, "rational_reconstruct", lambda n: spoiled)
    with pytest.raises(DiagnosticError, match="backward error"):
        ball_pole_zero_census(7)


def test_census_b3_has_no_poles():
    poles, zeros = ball_pole_zero_census(3)
    assert len(poles) == 0 and len(zeros) == 3


def test_census_respects_region_filter():
    region = SearchRegion(-3.5, -2.5, -0.5, 0.5)
    poles, zeros = ball_pole_zero_census(5, region)
    assert len(poles) == 1 and len(zeros) == 0


def test_rootset_ordering_is_canonical():
    _, zeros = ball_pole_zero_census(5)
    keys = [(r.location.imag, r.location.real) for r in zeros]
    assert keys == sorted(keys)


def test_shell_survey_properties():
    survey = shell_pole_survey(40.0)
    roots = survey.roots
    assert len(roots) >= 10
    for r in roots:
        assert 0 < r.location.imag <= 40
        assert r.location.real > 0  # no roots on the imaginary axis
        assert r.residual <= 1e-10
    res = [r.location.real for r in roots]
    assert all(b > a for a, b in zip(res, res[1:]))
    assert 0.4 <= survey.slope <= 0.6


def test_shell_survey_misses_no_root():
    # the scaled denominator e^{-2R} (sinh 2R - 2R) has the same roots and no
    # poles; the survey's roots all have 0.05 < Re < 5 below Im = 40
    survey = shell_pole_survey(40.0)
    assert winding_count(roots._shell_scaled, 0.05, 5.0, 0.5, 40.0) == len(survey.roots)


def test_shell_survey_residual_scaled_form():
    survey = shell_pole_survey(12.0)
    z = survey.roots.roots[0].location
    assert shell_denominator_residual(z) == pytest.approx(abs(shell_den(z)), rel=1e-6)


def test_shell_survey_validation():
    with pytest.raises(ArgumentError):
        shell_pole_survey(5.0)


def test_write_roots_csv(tmp_path):
    _, zeros = ball_pole_zero_census(5)
    path = tmp_path / "roots.csv"
    write_roots_csv(zeros, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "kind,re,im,multiplicity,residual"
    assert len(lines) == 1 + len(zeros)
