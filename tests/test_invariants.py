import math
import warnings

import numpy as np
import pytest

from maglab import invariants
from maglab.cloud import DomainShape
from maglab.errors import ArgumentError, MeshError
from maglab.invariants import (
    asymptotic_polynomial,
    conjecture_polynomial,
    cube_mesh,
    fit_leading_coefficients,
    icosphere,
    intrinsic_volumes_ball,
    invariants_analytic,
    invariants_from_mesh,
    read_off,
    unit_ball_volume,
    write_off,
)
from maglab.radial import ball_magnitude


def test_unit_ball_volumes():
    assert unit_ball_volume(0) == pytest.approx(1.0)
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)


def test_ball_invariants_analytic():
    inv = invariants_analytic(DomainShape.ball(3, 1.0))
    assert inv.volume == pytest.approx(4 * math.pi / 3)
    assert inv.area == pytest.approx(4 * math.pi)
    assert inv.total_mean_curvature == pytest.approx(4 * math.pi)


def test_shell_invariants_analytic():
    inv = invariants_analytic(DomainShape.shell(1, 2))
    assert inv.volume == pytest.approx(4 * math.pi / 3 * 7)
    assert inv.area == pytest.approx(20 * math.pi)
    # the inner sphere contributes negatively (outward normal points inward)
    assert inv.total_mean_curvature == pytest.approx(4 * math.pi)


def test_box_invariants_rejected():
    with pytest.raises(ArgumentError):
        invariants_analytic(DomainShape.box(1.0, 1.0, 1.0))


def test_asymptotic_polynomial_ball3():
    poly = asymptotic_polynomial(invariants_analytic(DomainShape.ball(3, 1.0)))
    assert poly.coefficients[0] == pytest.approx(1 / 6)
    assert poly.coefficients[1] == pytest.approx(1.0)
    assert poly.coefficients[2] == pytest.approx(2.0)
    assert poly.provenance == "theorem-asymptotic"


def test_asymptotic_polynomial_shell():
    poly = asymptotic_polynomial(invariants_analytic(DomainShape.shell(1, 2)))
    assert poly.coefficients == pytest.approx((7 / 6, 5.0, 2.0))


def test_asymptotic_general_identity():
    # n! M_Bn ~ R^n + n(n+1)/2 R^{n-1} + n (n+1)^2 (n-1)/8 R^{n-2}
    for n in (3, 5, 7, 9, 11):
        poly = asymptotic_polynomial(invariants_analytic(DomainShape.ball(n, 1.0)))
        scale = math.factorial(n)
        assert scale * poly.coefficients[0] == pytest.approx(1.0, rel=1e-12)
        assert scale * poly.coefficients[1] == pytest.approx(n * (n + 1) / 2, rel=1e-12)
        assert scale * poly.coefficients[2] == pytest.approx(
            n * (n + 1) ** 2 * (n - 1) / 8, rel=1e-12
        )


def test_intrinsic_volumes_ball3():
    v = intrinsic_volumes_ball(3)
    assert v[0] == pytest.approx(1.0)
    assert v[1] == pytest.approx(4.0)  # C(3,1) omega_3 / omega_2
    assert v[2] == pytest.approx(2 * math.pi)
    assert v[3] == pytest.approx(4 * math.pi / 3)


def test_conjecture_polynomial_ball3():
    poly = conjecture_polynomial(DomainShape.ball(3, 1.0))
    assert poly.provenance == "convex-conjecture"
    assert poly.full == pytest.approx((1.0, 2.0, 1.0, 1 / 6), rel=1e-12)
    # for B3 the conjectured polynomial reproduces the exact magnitude
    for R in (0.5, 1.0, 4.0):
        exact = complex(ball_magnitude(3, R)).real
        assert poly(R) == pytest.approx(exact, rel=1e-12)


def test_conjecture_polynomial_rejects_nonconvex():
    with pytest.raises(ArgumentError):
        conjecture_polynomial(DomainShape.shell(1, 2))


def test_icosphere_invariants():
    inv = invariants_from_mesh(icosphere(3))
    # the inscribed polyhedral volume carries an intrinsic ~0.9% deficit at
    # this vertex count; area and total mean curvature converge faster
    assert inv.volume == pytest.approx(4 * math.pi / 3, rel=1e-2)
    assert inv.area == pytest.approx(4 * math.pi, rel=5e-3)
    assert inv.total_mean_curvature == pytest.approx(4 * math.pi, rel=2e-3)


def test_icosphere_convergence_order():
    errors = []
    for sub in (1, 2, 3):
        inv = invariants_from_mesh(icosphere(sub))
        errors.append(abs(inv.volume - 4 * math.pi / 3))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 1.5


def test_cube_mesh_invariants():
    with pytest.warns(UserWarning):
        inv = invariants_from_mesh(cube_mesh(2.0))
    assert inv.volume == pytest.approx(8.0, rel=1e-12)
    assert inv.area == pytest.approx(24.0, rel=1e-12)
    # total mean curvature of a cuboid: pi * (sum of edge lengths) / 4 = 3 pi l
    assert inv.total_mean_curvature == pytest.approx(6 * math.pi, rel=1e-12)


def _loop_total_mean_curvature(mesh):
    """Reference: pair the directed edges by a dict and sum edge by edge."""
    v = mesh.vertices
    cross = np.cross(v[mesh.triangles[:, 1]] - v[mesh.triangles[:, 0]],
                     v[mesh.triangles[:, 2]] - v[mesh.triangles[:, 0]])
    normals = cross / np.linalg.norm(cross, axis=1)[:, None]
    owner = {}
    for f, (a, b, c) in enumerate(mesh.triangles.tolist()):
        owner.update({(a, b): f, (b, c): f, (c, a): f})
    total = 0.0
    for (i, j), f in owner.items():
        if i < j:
            g = owner[(j, i)]
            edge = v[j] - v[i]
            length = np.linalg.norm(edge)
            theta = math.atan2(np.dot(np.cross(normals[f], normals[g]), edge / length),
                               np.dot(normals[f], normals[g]))
            total += 0.5 * length * theta
    return total


def test_mesh_edge_table_matches_loop_reference():
    from maglab.invariants import SurfaceMesh

    # a non-convex mesh: icosphere vertices moved radially at random
    base = icosphere(2)
    radii = 1 + 0.3 * np.random.default_rng(2).random(len(base.vertices))
    bumpy = SurfaceMesh(base.vertices * radii[:, None], base.triangles)
    for mesh in (icosphere(3), bumpy):
        tails, heads = mesh.triangles.ravel(), mesh.triangles[:, [1, 2, 0]].ravel()
        assert np.array_equal(tails[mesh.twin], heads) and np.array_equal(heads[mesh.twin], tails)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            total_h = invariants_from_mesh(mesh).total_mean_curvature
        assert total_h == pytest.approx(_loop_total_mean_curvature(mesh), rel=1e-12)


def _loop_icosphere(subdivisions):
    """Reference: subdivide face by face, numbering each midpoint at its first use."""
    phi = (1 + math.sqrt(5)) / 2
    verts = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [np.array(p, dtype=float) for p in verts]
    for _ in range(subdivisions):
        cache = {}
        new_faces = []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                verts.append((verts[i] + verts[j]) / 2)
                cache[key] = len(verts) - 1
            return cache[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    pts = np.array(verts)
    return pts / np.linalg.norm(pts, axis=1)[:, None], np.array(faces)


def _loop_off_text(mesh):
    """Reference: the OFF file written line by line."""
    lines = ["OFF", f"{len(mesh.vertices)} {len(mesh.triangles)} 0"]
    lines += [f"{vx:.17g} {vy:.17g} {vz:.17g}" for vx, vy, vz in mesh.vertices]
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    return "\n".join(lines) + "\n"


def test_icosphere_matches_loop_reference():
    for k in range(6):
        vertices, triangles = _loop_icosphere(k)
        mesh = icosphere(k)
        assert np.array_equal(mesh.vertices, vertices) and np.array_equal(mesh.triangles, triangles)


def test_write_off_matches_loop_reference(tmp_path):
    # icosphere(4) has 2562 vertices and 5120 triangles, so the faces span two blocks
    assert 5120 > invariants.OFF_BLOCK_ROWS
    for mesh in [icosphere(k) for k in range(5)] + [cube_mesh(1), cube_mesh(2)]:
        path = tmp_path / "mesh.off"
        write_off(mesh, path)
        assert path.read_bytes() == _loop_off_text(mesh).encode()


def test_mesh_owns_frozen_arrays():
    from maglab.invariants import SurfaceMesh

    base = icosphere(1)
    vertices, triangles = base.vertices.copy(), base.triangles.copy()
    mesh = SurfaceMesh(vertices, triangles)
    before = invariants_from_mesh(mesh)
    vertices *= 2.0
    triangles[0] = triangles[0, ::-1]
    assert invariants_from_mesh(mesh) == before
    for a in (mesh.vertices, mesh.triangles, mesh.twin, mesh.cross):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_inward_mesh_rejected():
    mesh = cube_mesh(1.0)
    flipped = mesh.triangles[:, ::-1]
    from maglab.invariants import SurfaceMesh

    with pytest.raises(MeshError, match="inward"):
        SurfaceMesh(mesh.vertices, flipped)
    # one flipped face repeats the directed edges of its neighbours
    one_flipped = mesh.triangles.copy()
    one_flipped[0] = one_flipped[0, ::-1]
    with pytest.raises(MeshError, match=r"directed edge \(\d+, \d+\) repeated"):
        SurfaceMesh(mesh.vertices, one_flipped)


def test_open_mesh_rejected():
    from maglab.invariants import SurfaceMesh

    with pytest.raises(MeshError, match=r"edge \(\d+, \d+\) has no partner"):
        SurfaceMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])


def test_off_roundtrip(tmp_path):
    mesh = icosphere(1)
    path = tmp_path / "sphere.off"
    write_off(mesh, str(path))
    back = read_off(str(path))
    assert np.allclose(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)


def test_read_off_validation(tmp_path):
    with pytest.raises(MeshError):
        read_off(["NOFF", "0 0 0"])
    for lines in (
        ["OFF", "4 4 0", "0 0 0", "1 0 0"],  # truncated vertex block
        ["OFF", "4 x 0"],  # non-integer count
        ["OFF", "3 1 0", "0 0 0", "1 0 0", "0 1 0", "3 0 1"],  # short face row
    ):
        with pytest.raises(MeshError):
            read_off(lines)
    # a tetrahedron with one nan vertex
    tetra = ["OFF", "4 4 0", "0 0 0", "1 0 0", "0 1 0", "0 0 nan"]
    tetra += ["3 0 2 1", "3 0 1 3", "3 1 2 3", "3 0 3 2"]
    with pytest.raises(MeshError, match="finite"):
        read_off(tetra)
    tetra[5] = "0 0 1"
    assert read_off(tetra).volume == pytest.approx(1 / 6)
    # a missing path or a directory is named in an ArgumentError
    for path in (str(tmp_path / "missing.off"), str(tmp_path)):
        with pytest.raises(ArgumentError, match="cannot read OFF file"):
            read_off(path)


def test_fit_recovers_polynomial_coefficients():
    Rs = np.geomspace(50, 200, 20)
    vals = Rs**3 / 6 + Rs**2 + 2 * Rs + 1
    c = fit_leading_coefficients(Rs, vals, 3, terms=4)
    assert c == pytest.approx((1 / 6, 1.0, 2.0), rel=1e-9)


def test_fit_needs_enough_samples():
    with pytest.raises(ArgumentError):
        fit_leading_coefficients([1.0, 2.0], [1.0, 2.0], 3, terms=4)
