import numpy as np
import pytest

from maglab import metric
from maglab.cloud import (
    DomainShape,
    RefinementReport,
    extrapolate,
    refinement_sequence,
    sample_domain,
)
from maglab.errors import ArgumentError, DiagnosticError, ResourceError, SolveError


def test_shape_validation():
    with pytest.raises(ArgumentError):
        DomainShape.ball(0, 1.0)
    with pytest.raises(ArgumentError):
        DomainShape.ball(3, -1.0)
    with pytest.raises(ArgumentError):
        DomainShape.shell(2.0, 1.0)
    with pytest.raises(ArgumentError):
        DomainShape.box()
    with pytest.raises(ArgumentError):
        DomainShape("blob", ())


def test_shape_dimensions_and_bounds():
    assert DomainShape.ball(5, 2.0).dimension == 5
    assert DomainShape.ball(5, 2.0).bounding_radius() == 2.0
    assert DomainShape.shell(1, 2).dimension == 3
    assert DomainShape.box(1.0, 2.0, 3.0).dimension == 3
    assert DomainShape.box(1.0, 2.0, 3.0).bounding_radius() == 3.0


def test_membership():
    shell = DomainShape.shell(1, 2)
    inside = shell.contains(np.array([[1.5, 0, 0], [0.5, 0, 0], [2.5, 0, 0]]))
    assert list(inside) == [True, False, False]


def test_lattice_is_origin_aligned_and_nested():
    ball = DomainShape.ball(2, 1.0)
    coarse = sample_domain(ball, 0.5)
    fine = sample_domain(ball, 0.25)
    coarse_pts = {p for p in coarse.points}
    fine_pts = {p for p in fine.points}
    assert coarse_pts <= fine_pts  # bit-identical nesting
    assert (0.0, 0.0) in coarse_pts


def test_sample_counts_scale_with_resolution():
    ball = DomainShape.ball(3, 1.0)
    n1 = len(sample_domain(ball, 0.5))
    n2 = len(sample_domain(ball, 0.25))
    assert n1 == 33 and n2 > 4 * n1


def test_sample_cap_enforced():
    with pytest.raises(ResourceError):
        sample_domain(DomainShape.ball(3, 1.0), 0.01, cap=1000)


def test_sample_spacing_validation():
    with pytest.raises(ArgumentError):
        sample_domain(DomainShape.ball(3, 1.0), 0.0)


def test_refinement_monotone_for_ball():
    report = refinement_sequence(DomainShape.ball(3, 1.0), 1.0, 3, base_spacing=0.4)
    assert len(report.magnitudes) == 3
    assert all(b >= a for a, b in zip(report.magnitudes, report.magnitudes[1:]))
    assert report.extrapolated >= report.magnitudes[-1]


def test_refinement_validation():
    with pytest.raises(ArgumentError):
        refinement_sequence(DomainShape.ball(3, 1.0), 1.0, 1)
    with pytest.raises(ArgumentError, match="3 levels"):
        refinement_sequence(DomainShape.ball(3, 1.0), 1.0, 2)
    with pytest.raises(ArgumentError):
        refinement_sequence(DomainShape.ball(3, 1.0), -1.0, 3)


def _synthetic_report(mags, hs=None):
    hs = hs or [0.4 / 2**k for k in range(len(mags))]
    return RefinementReport(
        shape=DomainShape.ball(1, 1.0),
        scale=1.0,
        resolutions=tuple(hs),
        counts=tuple(1 for _ in mags),
        magnitudes=tuple(mags),
        extrapolated=0.0,
        uncertainty=0.0,
    )


def test_richardson_exact_on_geometric_sequence():
    # m(h) = 5 - h^2 halves twice: extrapolation recovers 5 exactly
    hs = [0.4, 0.2, 0.1]
    mags = [5 - h**2 for h in hs]
    est, unc = extrapolate(_synthetic_report(mags, hs))
    assert est == pytest.approx(5.0, abs=1e-12)
    assert unc > 0


def test_richardson_constant_sequence():
    est, unc = extrapolate(_synthetic_report([7.0, 7.0, 7.0]))
    assert est == 7.0 and unc == 0.0


def test_extrapolate_needs_three_levels():
    with pytest.raises(ArgumentError):
        extrapolate(_synthetic_report([1.0, 2.0]))


def test_extrapolate_rejects_nonmonotone():
    with pytest.raises(DiagnosticError):
        extrapolate(_synthetic_report([1.0, 3.0, 2.0]))


def test_one_dimensional_interval():
    # the magnitude of a scaled interval [-1, 1] at R=1 is 1 + length/2 = 2
    report = refinement_sequence(DomainShape.ball(1, 1.0), 1.0, 4, base_spacing=0.25)
    assert report.extrapolated == pytest.approx(2.0, rel=1e-3)


def test_point_file_shape(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("0 0\n1 0\n0 1\n")
    shape = DomainShape.from_point_file(str(path))
    assert shape.kind == "points" and shape.dimension == 2
    space = sample_domain(shape, 1.0)
    assert len(space) == 3
    with pytest.raises(ArgumentError):
        shape.contains(np.zeros((1, 2)))
    assert space.orbits is None
    path.write_text("matrix 2\n0 1\n1 0\n")
    with pytest.raises(ArgumentError, match="distance matrix"):
        DomainShape.from_point_file(str(path))
    for text, message in (("0 0\n1 0 0\n", "differing"), ("0 0\n1 x\n", "non-numeric")):
        path.write_text(text)
        with pytest.raises(ArgumentError, match=message):
            DomainShape.from_point_file(str(path))
    # non-finite and duplicate points are rejected where the space is built
    for text, message in (("0 0\n1 nan\n", "non-finite"), ("0 0\n1 0\n0 0\n", "duplicate")):
        path.write_text(text)
        shape = DomainShape.from_point_file(str(path))
        with pytest.raises(ArgumentError, match=message):
            sample_domain(shape, 1.0)


# lattices with their symmetry group: hyperoctahedral, or sign flips for the 1x2x3 box
SYMMETRIC_LATTICES = [
    (DomainShape.ball(2, 1.0), 0.25),
    (DomainShape.ball(3, 1.0), 0.25),
    (DomainShape.shell(1, 2), 0.5),
    (DomainShape.box(1.0, 1.0, 1.0), 0.25),
    (DomainShape.box(1.0, 2.0, 3.0), 0.5),
]


@pytest.mark.parametrize("shape, h", SYMMETRIC_LATTICES, ids=["ball2", "ball3", "shell", "cube", "box123"])
def test_orbit_weighting_matches_dense_solve(shape, h):
    space = sample_domain(shape, h)
    assert space.orbits is not None and space.orbits.max() + 1 < len(space)
    keys = np.sort(np.abs(np.asarray(space.points)), axis=1)
    if shape.kind == "box" and len(set(shape.params)) > 1:
        keys = np.abs(np.asarray(space.points))
    for label in range(space.orbits.max() + 1):  # one key per orbit
        assert len(np.unique(keys[space.orbits == label], axis=0)) == 1
    twin = metric.FiniteMetricSpace.from_coordinates(np.asarray(space.points))
    _, reps = np.unique(space.orbits, return_index=True)
    assert space.dist is None and twin.orbits is None
    assert np.array_equal(space.rows, twin.dist[reps])
    for scale in (0.5, 2.0, 8.0):
        z = metric.similarity_matrix(twin, scale)
        dense, _ = metric._solve_similarity(z, np.ones(len(space)))
        w = metric.weighting(space, scale)
        assert np.abs(w.weights - dense).max() <= 1e-12 * np.abs(dense).max()
        assert w.weights.sum() == pytest.approx(dense.sum(), rel=1e-12, abs=0)
        assert np.abs(z @ w.weights - 1.0).max() <= metric.RESIDUAL_RTOL * len(space)


def test_orbit_and_dense_solves_both_reject_a_singular_lattice():
    # at scale 1e-12 every entry of Z is 1 - O(1e-12): numerically rank one;
    # at 1e-9 the 1-norm condition numbers are still about 2e12
    space = sample_domain(DomainShape.shell(1, 2), 0.5)
    dense = metric.FiniteMetricSpace.from_coordinates(np.asarray(space.points))
    assert space.orbits is not None and dense.orbits is None
    for scale in (1e-9, 1e-12):
        for each in (space, dense):
            with pytest.raises(SolveError, match="singular") as caught:
                metric.magnitude(each, scale)
            assert caught.value.scale == scale and caught.value.condition > metric.CONDITION_LIMIT


def test_broken_symmetry_takes_the_dense_path(monkeypatch):
    ball = DomainShape.ball(2, 1.0)
    full = sample_domain(ball, 0.25)

    def lopsided(self, x):  # drops (-1, 0) from the orbit of (1, 0)
        return (x**2).sum(axis=1) <= 1.0 + 1e-12 - (x[:, 0] < -0.9)

    monkeypatch.setattr(DomainShape, "contains", lopsided)
    space = sample_domain(ball, 0.25)
    assert len(space) == len(full) - 1 and space.orbits is None
    dense = np.linalg.solve(metric.similarity_matrix(space, 1.0), np.ones(len(space)))
    assert metric.magnitude(space, 1.0) == pytest.approx(dense.sum(), rel=1e-12)


def test_lattice_refinement_never_forms_the_dense_similarity_matrix(monkeypatch):
    def refuse(space, scale):
        raise AssertionError(f"dense {len(space)} x {len(space)} similarity matrix formed")

    monkeypatch.setattr(metric, "similarity_matrix", refuse)
    report = refinement_sequence(DomainShape.shell(1, 2), 1.0, 3, base_spacing=0.6)
    assert report.counts == (152, 1066, 8606)


def test_lattice_refinement_never_forms_the_dense_distance_matrix(monkeypatch):
    built = []
    distances = metric._distances

    def refuse_dense(a, b):
        if len(a) == len(b):
            raise AssertionError("dense N x N distances formed for a lattice")
        built.append(len(b))
        return distances(a, b)

    monkeypatch.setattr(metric, "_distances", refuse_dense)
    report = refinement_sequence(DomainShape.shell(1, 2), 1.0, 3, base_spacing=0.6)
    assert report.counts == (152, 1066, 8606)
    assert built == list(report.counts)
