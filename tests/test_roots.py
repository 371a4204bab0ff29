from fractions import Fraction

import numpy as np
import pytest

from maglab import radial, roots
from maglab.errors import ArgumentError, DiagnosticError, PrecisionError
from maglab.roots import (
    SearchRegion,
    ball_pole_zero_census,
    count_in_region,
    find_roots,
    shell_denominator_residual,
    shell_pole_survey,
    write_roots_csv,
)


def shell_den(z):
    return np.sinh(2 * z) - 2 * z


def test_region_validation():
    with pytest.raises(ArgumentError):
        SearchRegion(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ArgumentError):
        SearchRegion(0.0, 1.0, 0.0, 1.0, contour_points=4)


def test_count_simple_zero():
    assert count_in_region(lambda z: z - (1 + 1j), SearchRegion(0, 2, 0, 2)) == 1


def test_count_simple_pole():
    assert count_in_region(lambda z: 1 / (z - 1), SearchRegion(0, 2, -1, 1)) == -1


def test_count_zero_minus_pole_cancels():
    f = lambda z: (z - 0.5) / (z + 0.5)
    assert count_in_region(f, SearchRegion(-1, 1, -1, 1)) == 0


def test_count_with_multiplicity():
    assert count_in_region(lambda z: z**3, SearchRegion(-1, 1, -1, 1)) == 3


def test_count_empty_region():
    assert count_in_region(lambda z: z - 10, SearchRegion(-1, 1, -1, 1)) == 0


def test_count_root_on_contour_is_flagged():
    with pytest.raises(PrecisionError):
        count_in_region(lambda z: z - 1, SearchRegion(-1, 1, -1, 1))


def test_find_roots_polynomial():
    f = lambda z: (z - 0.5) * (z + 0.25 - 0.5j) * (z + 0.25 + 0.5j)
    rs = find_roots(f, SearchRegion(-2, 2, -2, 2))
    assert len(rs) == 3 and not rs.unresolved
    locs = sorted(rs.locations(), key=lambda c: (c.imag, c.real))
    assert locs[0] == pytest.approx(-0.25 - 0.5j, abs=1e-10)
    assert locs[1] == pytest.approx(0.5, abs=1e-10)
    assert all(r.kind == "zero" for r in rs)


def test_find_roots_mixed_kinds():
    f = lambda z: (z - 0.5) / (z + 0.5)
    rs = find_roots(f, SearchRegion(-1, 1, -1, 1))
    kinds = {r.kind: r.location for r in rs}
    assert kinds["zero"] == pytest.approx(0.5, abs=1e-10)
    assert kinds["pole"] == pytest.approx(-0.5, abs=1e-10)


def test_find_roots_triple_zero_multiplicity():
    # sinh(2R) - 2R has a triple zero at the origin
    rs = find_roots(shell_den, SearchRegion(-0.5, 0.5, -0.5, 0.5))
    assert len(rs) == 1
    root = rs.roots[0]
    assert abs(root.location) < 1e-6
    assert root.multiplicity == 3 and root.kind == "zero"


def test_find_roots_cross_oracle_with_count():
    region = SearchRegion(0.1, 3, 0.1, 10)
    rs = find_roots(shell_den, region)
    tally = sum(r.multiplicity if r.kind == "zero" else -r.multiplicity for r in rs)
    assert tally == count_in_region(shell_den, region)
    assert not rs.unresolved


def test_find_roots_handles_roots_on_cut_lines():
    # roots placed exactly on the quadrisection lines of the region
    f = lambda z: z * (z - 1) * (z + 1) * (z - 1j)
    rs = find_roots(f, SearchRegion(-2, 2, -2, 2))
    assert len(rs) == 4 and not rs.unresolved
    assert all(r.residual <= 1e-10 for r in rs)


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
    spoiled = type(rf)(rf.numerator, rf.denominator, rf.zeros, (off,) + rf.poles[1:], rf.lead)
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
