"""Geometric invariants and the large-scale magnitude asymptotics.

For a smooth compact domain X in odd dimension n the magnitude function
satisfies n! omega_n M_X(R) ~ c_0 R^n + c_1 R^{n-1} + c_2 R^{n-2} with

    c_0 = vol_n(X),  c_1 = m vol_{n-1}(dX),  c_2 = (m^2/2)(n-1) int_dX H dS,

m = (n+1)/2 and H the average of the principal curvatures with respect to
the outward normal of X.  The module computes the invariants analytically
for balls and shells, numerically from triangle meshes, and also builds the
full convex-body comparison polynomial sum_i V_i(X) R^i / (i! omega_i) from
intrinsic volumes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .cloud import DomainShape
from .errors import ArgumentError, MeshError, PrecisionError
from .metric import _read_lines

#: dihedral deviation (radians) beyond which a mesh is flagged as non-smooth
SMOOTHNESS_ANGLE = 0.8
#: rows of an OFF file formatted by one string operation
OFF_BLOCK_ROWS = 4096


def unit_ball_volume(n: int) -> float:
    """omega_n, the volume of the unit ball in R^n (omega_0 = 1)."""
    if n < 0:
        raise ArgumentError("dimension must be nonnegative")
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


@dataclass(frozen=True)
class GeometricInvariants:
    """Volume, boundary area and total mean curvature of an n-domain."""

    dimension: int
    volume: float
    area: float
    total_mean_curvature: float


@dataclass(frozen=True)
class AsymptoticPolynomial:
    """Leading magnitude coefficients (R^n, R^{n-1}, R^{n-2}, descending).

    ``full`` optionally carries a complete ascending coefficient tuple (only
    the conjectured convex-body polynomial has meaningful lower terms).
    """

    dimension: int
    coefficients: tuple
    provenance: str
    full: tuple | None = None

    def __call__(self, R):
        if self.full is not None:
            return sum(c * R**i for i, c in enumerate(self.full))
        n = self.dimension
        return sum(c * R ** (n - j) for j, c in enumerate(self.coefficients))


def invariants_analytic(shape: DomainShape) -> GeometricInvariants:
    """Exact invariants for balls and 3D shells.

    A sphere of radius r bounding its ball from outside has H = +1/r; as the
    inner boundary of a shell the outward normal of the domain points toward
    the origin and H = -1/r, so the inner boundary contributes negatively to
    the total mean curvature.
    """
    if shape.kind == "ball":
        n, r = shape.params
        wn = unit_ball_volume(n)
        return GeometricInvariants(n, wn * r**n, n * wn * r ** (n - 1), n * wn * r ** (n - 2))
    if shape.kind == "shell":
        a, b, n = shape.params
        if n != 3:
            raise ArgumentError("analytic shell invariants are implemented for n = 3")
        volume = 4 * math.pi / 3 * (b**3 - a**3)
        area = 4 * math.pi * (a**2 + b**2)
        total_h = 4 * math.pi * (b - a)
        return GeometricInvariants(3, volume, area, total_h)
    raise ArgumentError(
        f"invariants of {shape.kind!r} domains are unsupported: the asymptotic "
        "theory requires a smooth boundary"
    )


def asymptotic_polynomial(inv: GeometricInvariants) -> AsymptoticPolynomial:
    """Leading three asymptotic magnitude coefficients from the invariants."""
    n = inv.dimension
    if n % 2 == 0:
        raise ArgumentError("the asymptotic expansion is stated for odd n")
    m = (n + 1) // 2
    norm = math.factorial(n) * unit_ball_volume(n)
    coeffs = (
        inv.volume / norm,
        m * inv.area / norm,
        (m**2 / 2) * (n - 1) * inv.total_mean_curvature / norm,
    )
    return AsymptoticPolynomial(n, coeffs, "theorem-asymptotic")


def intrinsic_volumes_ball(n: int, r: float = 1.0) -> tuple:
    """(V_0, ..., V_n) of the radius-r ball: V_j = C(n,j) omega_n / omega_{n-j} r^j."""
    if n < 1:
        raise ArgumentError("dimension must be >= 1")
    wn = unit_ball_volume(n)
    return tuple(
        math.comb(n, j) * wn / unit_ball_volume(n - j) * r**j for j in range(n + 1)
    )


def conjecture_polynomial(shape: DomainShape) -> AsymptoticPolynomial:
    """Convex-body magnitude polynomial sum_i V_i(X) R^i / (i! omega_i).

    Implemented for balls (the convex case with closed-form intrinsic
    volumes); shells are non-convex and rejected.
    """
    if shape.kind != "ball":
        raise ArgumentError("the convex-body polynomial requires a convex shape (ball)")
    n, r = shape.params
    vols = intrinsic_volumes_ball(n, r)
    full = tuple(
        vols[i] / (math.factorial(i) * unit_ball_volume(i)) for i in range(n + 1)
    )
    top3 = (full[n], full[n - 1], full[n - 2]) if n >= 2 else (full[n], full[0], 0.0)
    return AsymptoticPolynomial(n, top3, "convex-conjecture", full=full)


# -- triangle meshes -------------------------------------------------------


class SurfaceMesh:
    """Closed, consistently oriented triangle mesh in R^3.

    Validation: finite vertices, every directed edge once (consistent winding)
    and paired with its reverse (closed), no triangle with area below 1e-14,
    and positive enclosed ``volume`` (outward orientation).  The mesh keeps,
    all read-only, copies of its input, the face cross products ``cross`` and
    ``twin[e]``, the reverse of edge e = 3 f + k starting at ``triangles[f, k]``.
    """

    def __init__(self, vertices, triangles):
        v = self.vertices = np.array(vertices, dtype=float)
        t = self.triangles = np.array(triangles, dtype=int)
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshError("vertices must be an (N, 3) array")
        if not np.isfinite(v).all():
            raise MeshError("vertex coordinates must be finite")
        if t.ndim != 2 or t.shape[1] != 3:
            raise MeshError("triangles must be an (M, 3) index array")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise MeshError("triangle indices out of range")
        tails, heads = t.ravel(), t[:, [1, 2, 0]].ravel()
        keys = tails * len(v) + heads
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        repeated = order[1:][ranked[1:] == ranked[:-1]]
        if repeated.size:
            e = repeated[0]
            raise MeshError(f"directed edge ({tails[e]}, {heads[e]}) repeated: inconsistent orientation")
        reverse = heads * len(v) + tails
        rank = np.searchsorted(ranked, reverse)
        unpaired = np.flatnonzero(np.take(ranked, rank, mode="clip") != reverse)
        if unpaired.size:
            e = unpaired[0]
            raise MeshError(f"edge ({tails[e]}, {heads[e]}) has no partner: mesh is not closed")
        self.twin = order[rank]
        self.cross = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
        areas = 0.5 * np.linalg.norm(self.cross, axis=1)
        if areas.size and areas.min() <= 1e-14:
            raise MeshError("degenerate triangle (area <= 1e-14)")
        # signed enclosed volume by the divergence theorem
        self.volume = float(np.einsum("ij,ij->i", v[t[:, 0]], np.cross(v[t[:, 1]], v[t[:, 2]])).sum() / 6.0)
        if self.volume <= 0:
            raise MeshError("non-positive enclosed volume: mesh is inward-oriented")
        for a in (v, t, self.twin, self.cross):
            a.flags.writeable = False


def invariants_from_mesh(mesh: SurfaceMesh) -> GeometricInvariants:
    """Discrete invariants of a closed surface mesh.

    Volume by the divergence theorem, area as the triangle-area sum and the
    total mean curvature by the lumped edge formula (1/2) sum_e l_e theta_e
    with theta_e the signed dihedral deviation (positive at convex edges).
    Volume, face cross products and edge pairing are those the mesh validated.
    Volume and area are exactly those of the polyhedron itself.  A mesh
    inscribed in a smooth surface therefore under-estimates the surface's
    volume and area by O(h^2) in the edge length h: about 0.86 % in volume
    for ``icosphere(3)``, falling by about 4 per subdivision.
    Meshes with sharp edges are outside the smooth-boundary hypothesis of the
    asymptotic theory; they are computed but flagged with a warning.
    """
    norms = np.linalg.norm(mesh.cross, axis=1)
    area = float(0.5 * norms.sum())

    normals = mesh.cross / norms[:, None]
    tails, heads = mesh.triangles.ravel(), mesh.triangles.ravel()[mesh.twin]
    e = np.flatnonzero(tails < heads)  # each undirected edge once
    nf, ng = normals[e // 3], normals[mesh.twin[e] // 3]
    edge = mesh.vertices[heads[e]] - mesh.vertices[tails[e]]
    length = np.linalg.norm(edge, axis=1)
    # signed dihedral deviation between the two face normals, positive when
    # the edge is convex for the outward orientation
    theta = np.arctan2(
        np.einsum("ij,ij->i", np.cross(nf, ng), edge / length[:, None]),
        np.einsum("ij,ij->i", nf, ng),
    )
    total_h = float(0.5 * (length * theta).sum())
    max_angle = float(np.abs(theta).max())
    if max_angle > SMOOTHNESS_ANGLE:
        warnings.warn(
            f"mesh has a dihedral deviation of {max_angle:.2f} rad; the "
            "asymptotic theory assumes a smooth boundary",
            stacklevel=2,
        )
    return GeometricInvariants(3, mesh.volume, area, total_h)


def icosphere(subdivisions: int = 3, radius: float = 1.0) -> SurfaceMesh:
    """Geodesic sphere mesh: subdivided icosahedron projected to the sphere."""
    if subdivisions < 0:
        raise ArgumentError("subdivisions must be nonnegative")
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
    verts = np.array(verts, dtype=float)
    faces = np.array(faces)
    for _ in range(subdivisions):
        # edges ab, bc, ca of each face in turn; each new midpoint gets the next
        # index at its edge's first occurrence
        ends = np.stack([faces, np.roll(faces, -1, axis=1)], axis=2).reshape(-1, 2)
        ends.sort(axis=1)
        _, first, inverse = np.unique(ends[:, 0] * len(verts) + ends[:, 1], return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        edges = ends[first[order]]
        mids = (len(verts) + rank[inverse]).reshape(-1, 3)
        verts = np.concatenate([verts, (verts[edges[:, 0]] + verts[edges[:, 1]]) / 2])
        (a, b, c), (ab, bc, ca) = faces.T, mids.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    pts = verts / np.linalg.norm(verts, axis=1)[:, None] * radius
    return SurfaceMesh(pts, faces)


def cube_mesh(side: float = 1.0) -> SurfaceMesh:
    """Axis-aligned cube of the given side, centered at the origin."""
    if side <= 0:
        raise ArgumentError("side must be positive")
    h = side / 2
    verts = [
        (-h, -h, -h), (h, -h, -h), (h, h, -h), (-h, h, -h),
        (-h, -h, h), (h, -h, h), (h, h, h), (-h, h, h),
    ]
    quads = [
        (0, 3, 2, 1),  # bottom (z = -h), outward -z
        (4, 5, 6, 7),  # top
        (0, 1, 5, 4),  # front (y = -h)
        (2, 3, 7, 6),  # back
        (1, 2, 6, 5),  # right (x = +h)
        (0, 4, 7, 3),  # left
    ]
    faces = []
    for a, b, c, d in quads:
        faces += [(a, b, c), (a, c, d)]
    return SurfaceMesh(verts, faces)


# -- OFF mesh files --------------------------------------------------------


def read_off(path_or_lines) -> SurfaceMesh:
    """Read a triangle mesh from the OFF subset (triangular faces only)."""
    if isinstance(path_or_lines, (str,)) and "\n" not in path_or_lines:
        lines = _read_lines(path_or_lines, "OFF file")
    elif isinstance(path_or_lines, str):
        lines = path_or_lines.splitlines()
    else:
        lines = [str(l) for l in path_or_lines]
    rows = [l.split("#")[0].strip() for l in lines]
    rows = [r for r in rows if r]
    if not rows or rows[0] != "OFF":
        raise MeshError("missing OFF header")
    try:
        nv, nf, _ = (int(x) for x in rows[1].split())
    except (IndexError, ValueError) as exc:
        raise MeshError(f"malformed OFF counts: {exc}") from exc
    if nv < 1 or nf < 1:
        raise MeshError(f"OFF counts must be positive, got {nv} vertices and {nf} faces")
    if len(rows) < 2 + nv + nf:
        raise MeshError(f"OFF file promises {nv} vertices and {nf} faces but has {len(rows) - 2} rows")
    try:
        verts = np.loadtxt(rows[2 : 2 + nv], ndmin=2)
        faces = np.loadtxt(rows[2 + nv : 2 + nv + nf], dtype=int, ndmin=2)
    except ValueError as exc:
        raise MeshError(f"malformed OFF rows: {exc}") from exc
    if verts.shape[1] != 3:
        raise MeshError("OFF vertex rows must hold three coordinates")
    if faces.shape[1] < 4 or (faces[:, 0] != 3).any():
        raise MeshError("only triangular faces '3 i j k' are supported")
    return SurfaceMesh(verts, faces[:, 1:4])


def write_off(mesh: SurfaceMesh, path) -> None:
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(mesh.vertices)} {len(mesh.triangles)} 0\n")
        for rows, line in ((mesh.vertices, "%.17g %.17g %.17g\n"), (mesh.triangles, "3 %d %d %d\n")):
            for i in range(0, len(rows), OFF_BLOCK_ROWS):
                block = rows[i : i + OFF_BLOCK_ROWS]
                fh.write(line * len(block) % tuple(block.ravel().tolist()))


# -- large-R coefficient fit ----------------------------------------------


def fit_leading_coefficients(Rs, values, n: int, terms: int = 10, *, dps: int = 80) -> tuple:
    """Fit sum_j c_j R^{n-j} (j < terms) to magnitude samples at large R.

    Returns the fitted (c_0, c_1, c_2).  Rows are scaled by R^{-n} so the fit
    is relative; extra lower-order terms absorb the tail of the expansion.
    The monomial columns are nearly collinear on a narrow R range, so the
    least-squares solve runs in extended precision with column equilibration
    -- in doubles the conditioning caps the recovered coefficients around
    four digits for n = 9.
    """
    Rs = np.asarray(Rs, dtype=float)
    vals = np.asarray(values, dtype=float)
    if len(Rs) < terms:
        raise ArgumentError("need at least as many samples as fitted terms")
    with mp.workdps(dps):
        rows, rhs = [], []
        for R, v in zip(Rs, vals):
            R = mp.mpf(R)
            w = R ** (-n)
            rows.append([R ** (n - j) * w for j in range(terms)])
            rhs.append(mp.mpf(v) * w)
        norms = [mp.sqrt(mp.fsum(row[j] ** 2 for row in rows)) for j in range(terms)]
        A = mp.matrix([[row[j] / norms[j] for j in range(terms)] for row in rows])
        b = mp.matrix(rhs)
        try:
            y = mp.lu_solve(A.T * A, A.T * b)
        except ZeroDivisionError as exc:
            raise PrecisionError(
                f"least-squares system singular with {terms} terms at dps={dps}"
            ) from exc
        return tuple(float(y[j] / norms[j]) for j in range(3))
