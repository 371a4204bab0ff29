import math

import numpy as np
import pytest

from maglab import metric
from maglab.errors import ArgumentError, SolveError
from maglab.metric import (
    CONDITION_LIMIT,
    DISTANCE_BLOCK_BYTES,
    TRIANGLE_BLOCK_BYTES,
    FiniteMetricSpace,
    is_positive_definite,
    load_point_file,
    magnitude,
    magnitude_sweep,
    similarity_matrix,
    weighting,
)


def test_two_point_closed_form():
    # M = 2 / (1 + e^{-d}) for a two-point space at distance d
    for d in (0.1, 1.0, math.log(3), 7.5):
        space = FiniteMetricSpace.from_coordinates([[0.0], [d]])
        assert magnitude(space, 1.0) == pytest.approx(2 / (1 + math.exp(-d)), abs=1e-12)


def test_two_point_log3_is_three_halves():
    space = FiniteMetricSpace.from_coordinates([[0.0], [math.log(3)]])
    assert magnitude(space, 1.0) == pytest.approx(1.5, abs=1e-12)


def test_single_point_magnitude_is_one():
    space = FiniteMetricSpace.from_coordinates([[0.0, 0.0]])
    assert magnitude(space, 2.0) == pytest.approx(1.0, abs=1e-14)


def test_scale_equals_rescaling_distances():
    rng = np.random.default_rng(5)
    space = FiniteMetricSpace.from_coordinates(rng.normal(size=(12, 3)))
    assert magnitude(space, 2.5) == pytest.approx(
        magnitude(space.rescaled(2.5), 1.0), rel=1e-12
    )


def test_weighting_residual_recorded():
    rng = np.random.default_rng(11)
    space = FiniteMetricSpace.from_coordinates(rng.normal(size=(40, 2)))
    w = weighting(space, 1.0)
    assert w.residual <= 1e-10 * len(space)
    z = similarity_matrix(space, 1.0)
    assert np.abs(z @ w.weights - 1).max() == pytest.approx(w.residual, abs=1e-15)


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    coords = rng.normal(size=(25, 3))
    perm = rng.permutation(25)
    a = magnitude(FiniteMetricSpace.from_coordinates(coords), 1.7)
    b = magnitude(FiniteMetricSpace.from_coordinates(coords[perm]), 1.7)
    assert a == pytest.approx(b, abs=1e-12)


def test_isometry_invariance():
    rng = np.random.default_rng(4)
    coords = rng.normal(size=(20, 3))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    moved = coords @ q.T + np.array([5.0, -2.0, 0.25])
    a = magnitude(FiniteMetricSpace.from_coordinates(coords), 0.9)
    b = magnitude(FiniteMetricSpace.from_coordinates(moved), 0.9)
    assert a == pytest.approx(b, abs=1e-12)


def test_positive_definite_on_euclidean_points():
    rng = np.random.default_rng(8)
    space = FiniteMetricSpace.from_coordinates(rng.normal(size=(30, 4)))
    flag, lam_min = is_positive_definite(space, 1.0)
    assert flag and lam_min > 0


def test_magnitude_increases_with_scale():
    # growing a Euclidean set (positive definite Z) cannot shrink its magnitude
    rng = np.random.default_rng(9)
    space = FiniteMetricSpace.from_coordinates(rng.normal(size=(15, 2)))
    values = magnitude_sweep(space, [0.5, 1.0, 2.0, 4.0])
    assert np.all(np.diff(values) > 0)


def test_magnitude_limits():
    space = FiniteMetricSpace.from_coordinates([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert magnitude(space, 50.0) == pytest.approx(3.0, abs=1e-6)
    assert magnitude(space, 1e-4) == pytest.approx(1.0, abs=1e-3)


def test_validation_rejects_bad_matrices():
    with pytest.raises(ArgumentError):
        FiniteMetricSpace([0, 1], [[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(ArgumentError):
        FiniteMetricSpace([0, 1], [[0.5, 1.0], [1.0, 0.0]])  # nonzero diagonal
    with pytest.raises(ArgumentError):
        FiniteMetricSpace([0, 1], [[0.0, 0.0], [0.0, 0.0]])  # duplicate points
    with pytest.raises(ArgumentError):
        # 10 > 1 + 1: triangle inequality fails
        FiniteMetricSpace(
            [0, 1, 2],
            [[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]],
        )
    # the triangle check runs in row blocks; put the one violation past the first
    n = 200
    block = max(1, TRIANGLE_BLOCK_BYTES // (8 * n * n))
    assert block < n - 2
    dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
    dist[n - 1, n - 3] = dist[n - 3, n - 1] = 10.0  # > d(n-1, n-2) + d(n-2, n-3)
    with pytest.raises(ArgumentError, match="triangle inequality"):
        FiniteMetricSpace(list(range(n)), dist)
    # non-finite input is named as such, wherever it enters
    for build, message in (
        (lambda: FiniteMetricSpace([0, 1], [[0.0, np.nan], [np.nan, 0.0]]), "non-finite"),
        (lambda: FiniteMetricSpace([0, 1], [[0.0, np.inf], [np.inf, 0.0]]), "non-finite"),
        (lambda: FiniteMetricSpace.from_coordinates([[0.0, 0.0], [1.0, np.nan]]), "non-finite"),
        (lambda: FiniteMetricSpace.from_coordinates([[np.inf, 0.0]]), "non-finite"),
        (lambda: FiniteMetricSpace.from_coordinates([[0.0, 1.0], [2.0, 3.0], [0.0, 1.0]]), "duplicate"),
        # the distances are built in row blocks; the copy's row lies past the first
        (lambda: FiniteMetricSpace.from_coordinates(np.r_[np.arange(300.0), 0.0][:, None]), "duplicate"),
        (lambda: FiniteMetricSpace.from_coordinates([[0.0], [1.0]], labels=["a"]), "labels"),
        # an empty space, on every construction path
        (lambda: FiniteMetricSpace([], np.zeros((0, 0))), "at least one point"),
        (lambda: FiniteMetricSpace.from_coordinates(np.zeros((0, 3))), "at least one point"),
        (lambda: FiniteMetricSpace.from_coordinates([]), "at least one point"),
        (lambda: FiniteMetricSpace.from_coordinates(np.zeros((0, 3)), orbits=[]), "at least one point"),
        (lambda: FiniteMetricSpace.from_coordinates([[0.0], [1.0]]).rescaled(np.nan), "finite and positive"),
        (lambda: FiniteMetricSpace.from_coordinates([[0.0], [1.0]]).rescaled(np.inf), "finite and positive"),
        (lambda: FiniteMetricSpace.from_coordinates([[0.0], [1.0]]).rescaled(0.0), "finite and positive"),
        (lambda: FiniteMetricSpace.from_coordinates([[0.0], [1e-5]]).rescaled(1e-320), "underflows"),
        (lambda: FiniteMetricSpace.from_coordinates([[-1e-5], [1e-5]], orbits=[0, 0]).rescaled(1e-320), "underflows"),
        # duplicates under the symmetry: at the representative, and away from it
        (lambda: FiniteMetricSpace.from_coordinates([[-1.0], [1.0], [1.0], [-1.0]], orbits=[0] * 4), "duplicate"),
        (
            lambda: FiniteMetricSpace.from_coordinates([[0.0], [-1.0], [1.0], [1.0], [-1.0]], orbits=[0, 1, 1, 1, 1]),
            "duplicate",
        ),
        (lambda: FiniteMetricSpace.from_coordinates([[-1.0], [1.0]], orbits=[0]), "orbits"),
        (lambda: FiniteMetricSpace.from_coordinates([[-1.0], [1.0]], orbits=[0, -1]), "orbits"),
        (lambda: FiniteMetricSpace.from_coordinates([[-1.0], [1.0]], orbits=[1, 1]), "orbits"),
    ):
        with pytest.raises(ArgumentError, match=message):
            build()


def test_distances_match_scipy_bit_for_bit():
    from scipy.spatial.distance import cdist, pdist, squareform

    from maglab.cloud import DomainShape, sample_domain

    rng = np.random.default_rng(11)
    # 700 x 300 and 300 x 700 both span several row blocks
    assert 300 > 2 * DISTANCE_BLOCK_BYTES // (8 * 700) and 700 > 2 * DISTANCE_BLOCK_BYTES // (8 * 300)
    for dim in range(1, 8):
        # coordinates over ten decades, so rounding differs between summation orders
        cloud = rng.standard_normal((1000, dim)) * 10.0 ** rng.uniform(-5, 5, (1000, dim))
        a, b = cloud[:700], cloud[700:]
        assert np.array_equal(metric._distances(a, b), cdist(a, b))
        assert np.array_equal(metric._distances(b, a), cdist(b, a))
        assert np.array_equal(metric._distances(cloud[:3], b[:1]), cdist(cloud[:3], b[:1]))
        dense = FiniteMetricSpace.from_coordinates(cloud)
        assert np.array_equal(dense.dist, squareform(pdist(cloud)))
    assert np.array_equal(metric._distances(np.empty((3, 0)), np.empty((2, 0))), cdist(np.empty((3, 0)), np.empty((2, 0))))
    lattice = sample_domain(DomainShape.shell(1, 2), 0.15)
    assert len(lattice) == 8606 and lattice.orbits is not None
    coords = np.asarray(lattice.points)
    _, reps = np.unique(lattice.orbits, return_index=True)
    assert np.array_equal(lattice.rows, cdist(coords[reps], coords))


def test_products_on_z_match_numpy_bit_for_bit():
    # every Z x goes through scipy's BLAS dgemv; numpy's @ is the reference
    from maglab.cloud import DomainShape, sample_domain

    rng = np.random.default_rng(17)
    for n in (1, 2, 50, 1000):
        space = FiniteMetricSpace.from_coordinates(rng.standard_normal((n, 3)))
        for scale in (0.3, 3.0):
            z, x = similarity_matrix(space, scale), rng.standard_normal(n)
            assert np.array_equal(metric._matvec(z, x), z @ x)
    # the orbit residual: K x N representative rows of a shell lattice
    lattice = sample_domain(DomainShape.shell(1, 2), 0.15)
    assert lattice.rows.shape == (248, 8606)
    z, w = np.exp(-2.0 * lattice.rows), weighting(lattice, 2.0).weights
    assert np.array_equal(metric._matvec(z, w), z @ w)


def test_lapack_calls_match_scipy_linalg():
    # maglab calls scipy's LAPACK wrappers directly; scipy.linalg itself is the reference
    import scipy.linalg as sla

    rng = np.random.default_rng(13)
    for n in (1, 2, 50, 300, 1000):
        space = FiniteMetricSpace.from_coordinates(rng.standard_normal((n, 3)))
        for scale in (0.3, 3.0):
            z, rhs = similarity_matrix(space, scale), np.ones(n)
            x, cond = metric._solve_similarity(z, rhs)
            factor = sla.cho_factor(z, check_finite=False)
            want = sla.cho_solve(factor, rhs, check_finite=False)
            want += sla.cho_solve(factor, rhs - z @ want, check_finite=False)
            rcond, info = sla.lapack.dpocon(factor[0], z.sum(axis=0).max(), uplo="L" if factor[1] else "U")
            assert info == 0 and np.array_equal(x, want)
            # dpocon's last bits follow OpenBLAS's state between calls, not the arguments:
            # two processes running the same calls differ by up to a few ulps
            assert cond == pytest.approx(1 / rcond, rel=1e-14, abs=0)
            assert is_positive_definite(space, scale) == (True, sla.eigvalsh(z, subset_by_index=[0, 0])[0])
    # the complete bipartite graph K_{3,3} (distance 1 across, 2 within a side) is
    # not positive definite at small scales: the solve falls back to pivoted LU
    d = np.where(np.arange(6)[:, None] // 3 == np.arange(6) // 3, 2.0, 1.0) - 2 * np.eye(6)
    k33 = FiniteMetricSpace(list(range(6)), d)
    for scale in (0.1, 0.3):
        z, rhs = similarity_matrix(k33, scale), np.ones(6)
        with pytest.raises(sla.LinAlgError):
            sla.cho_factor(z, check_finite=False)
        x, cond = metric._solve_similarity(z, rhs)
        lu = sla.lu_factor(z, check_finite=False)
        want = sla.lu_solve(lu, rhs, check_finite=False)
        want += sla.lu_solve(lu, rhs - z @ want, check_finite=False)
        assert np.array_equal(x, want) and cond == np.linalg.cond(z, 1)
        assert is_positive_definite(k33, scale) == (False, sla.eigvalsh(z, subset_by_index=[0, 0])[0])
    # an exact zero pivot leaves the condition number infinite, which weighting rejects
    assert metric._solve_similarity(np.ones((2, 2)), np.ones(2))[1] == np.inf


def test_spaces_are_frozen_and_own_their_matrix():
    dist = np.array([[0.0, 2.0], [2.0, 0.0]])
    outside = FiniteMetricSpace([0, 1], dist)
    dist[0, 1] = 5.0
    assert outside.dist[0, 1] == 2.0
    labels = np.array([0, 0])
    coords = FiniteMetricSpace.from_coordinates([[-2.0, 0.0], [2.0, 0.0]], orbits=labels)
    labels[1] = 1
    scaled = coords.rescaled(0.5)
    # a space with orbits holds its representative's row of distances, no matrix
    assert coords.dist is None and coords.rows.tolist() == [[0.0, 4.0]]
    assert scaled.points == coords.points and scaled.dist is None and scaled.rows[0, 1] == 2.0
    assert scaled.orbits.tolist() == coords.orbits.tolist() == [0, 0]
    for held in (outside.dist, coords.rows, scaled.rows):
        assert not held.flags.writeable
        with pytest.raises(ValueError):
            held[0, 1] = 1.0
    for space in (coords, scaled):
        assert not space.orbits.flags.writeable


def test_orbit_spaces_have_no_dense_matrix():
    space = FiniteMetricSpace.from_coordinates([[-1.0], [1.0]], orbits=[0, 0])
    for dense in (similarity_matrix, is_positive_definite):
        with pytest.raises(ArgumentError, match="orbits"):
            dense(space, 1.0)


def test_scale_must_be_positive():
    for space in (
        FiniteMetricSpace.from_coordinates([[0.0], [1.0]]),
        FiniteMetricSpace.from_coordinates([[-1.0], [1.0]], orbits=[0, 0]),
    ):
        for scale in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ArgumentError, match="finite and positive"):
                magnitude(space, scale)


def test_orbit_weighting_of_two_points():
    # both points of {-d/2, d/2} form one orbit under x -> -x: w = 1 / (1 + e^{-d})
    d = 0.7
    space = FiniteMetricSpace.from_coordinates([[-d / 2], [d / 2]], orbits=[0, 0])
    w = weighting(space, 1.0)
    assert w.weights.tolist() == pytest.approx([1 / (1 + math.exp(-d))] * 2, rel=1e-14)
    assert magnitude(space.rescaled(2.0), 1.0) == pytest.approx(2 / (1 + math.exp(-2 * d)), rel=1e-14)


def test_solve_errors_carry_scale_condition_and_residual(monkeypatch):
    rng = np.random.default_rng(12)
    spaces = (
        FiniteMetricSpace.from_coordinates(rng.normal(size=(30, 2))),
        FiniteMetricSpace.from_coordinates([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], orbits=[0, 1, 0]),
    )
    for space in spaces:  # the condition guard: three points or more are near-singular at 1e-12
        with pytest.raises(SolveError, match="singular") as caught:
            weighting(space, 1e-12)
        assert caught.value.scale == 1e-12 and caught.value.condition > CONDITION_LIMIT
        assert caught.value.residual is not None and caught.value.residual >= 0.0
    solve = metric._solve_similarity

    def inexact(z, rhs):  # a solve 1e-6 off, which the residual guard must catch
        x, cond = solve(z, rhs)
        return x * (1 + 1e-6), cond

    monkeypatch.setattr(metric, "_solve_similarity", inexact)
    for space in spaces:
        with pytest.raises(SolveError, match="residual") as caught:
            weighting(space, 2.0)
        assert caught.value.scale == 2.0 and 1 <= caught.value.condition <= CONDITION_LIMIT
        assert 1e-7 < caught.value.residual < 1e-5


def test_load_point_file_coordinates(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("# a comment\n0 0\n1, 0\n0 1\n")
    space = load_point_file(str(path))
    assert len(space) == 3
    assert space.dist[0, 1] == pytest.approx(1.0)


def test_load_point_file_matrix_block():
    space = load_point_file(["matrix 2", "0 1.5", "1.5 0"])
    assert len(space) == 2
    assert space.dist[0, 1] == 1.5


def test_load_point_file_empty_is_error():
    with pytest.raises(ArgumentError):
        load_point_file(["# nothing"])
    for lines, message in (
        (["0 0", "1 0 0"], "differing numbers of coordinates"),
        (["matrix"], "matrix header"),
        (["matrix 2", "0 1", "1"], "wrong shape"),
        (["0 0", "1 x"], "non-numeric"),
        (["0 0", "1 nan"], "non-finite"),
    ):
        with pytest.raises(ArgumentError, match=message):
            load_point_file(lines)
