"""Magnitude of finite metric spaces via weightings.

A finite metric space is held as a symmetric distance matrix.  At scale R the
similarity matrix is Z = exp(-R * dist); a weighting is a solution of
Z w = 1 and the magnitude is sum(w).  Scale enters only through the exponent,
which is the same as rescaling all distances by R.

Z is positive definite on Euclidean spaces, so the weighting is unique and
hence constant on the orbits of any isometry group that maps the space onto
itself.  A space that carries such an orbit labelling holds only the K x N
distance rows of one representative per orbit, never the N x N matrix, and
is solved with one unknown per orbit (see ``weighting``).

The dense LAPACK work (Cholesky factor, condition estimate and solve, the LU
fallback, the smallest eigenvalue) calls scipy's compiled f2py wrappers in
``scipy.linalg._flapack`` directly, with the arguments ``scipy.linalg`` would
pass, so the results are the ones it would return.  That module is loaded
from its file: importing the ``scipy.linalg`` package would first load
scipy's array-API layer (``numpy.f2py``, ``numpy.testing``, ``numpy.ma``),
which costs every maglab process about 0.2 s before it computes anything.

Every product with Z (the refinement step's Z x and the residual Z w) goes
through scipy's BLAS wrapper ``dgemv`` in ``scipy.linalg._fblas`` too, never
numpy's ``@``.  numpy and scipy each ship their own OpenBLAS build, and each
build keeps its own thread pool.  After a numpy product numpy's threads keep
spinning for a while, so on a 2-core machine they take a core from the
2-thread Cholesky factor that follows (N = 1000 on a 2-vCPU VM: dpotrf
takes 11 ms right after a scipy product, 19 ms right after a numpy
``z @ x``).  With all dense kernels of a weighting on scipy's build, one
pool does all the work.  Both wrappers are loaded at their first call, so a
process that never solves does not map scipy's OpenBLAS at all.

Temporaries that grow with the space are built in blocks of about
BLOCK_BYTES each: the distance rows built from coordinates, the rows of Z
of the orbit path, and the slack of the triangle-inequality check (a slack
block is at least one n x n slice of an n-point matrix).  So the
dense path of an N-point space holds the N x N distances, Z and its
Cholesky factor (about 24 N^2 bytes) and nothing else of that size; the
orbit path holds the K x N distance rows of the space, the K x K reduced
matrix and its factor, and two blocks: no K x N similarity rows and no
K x N index ever exist.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, SolveError

#: distances are validated (symmetry, triangle inequality) to this slack
METRIC_TOL = 1e-12
#: relative residual tolerance for accepted weightings
RESIDUAL_RTOL = 1e-10
#: 1-norm condition-number estimate above which a solve is declared singular
CONDITION_LIMIT = 1e12
#: bytes of each block of a temporary that grows with the space: distance
#: rows, orbit-path rows of Z and triangle-inequality slack
BLOCK_BYTES = 2**19


def _load_linalg_extension(name):
    """scipy's compiled ``scipy.linalg.<name>`` extension, without running ``scipy/linalg/__init__.py``.

    The module is registered in ``sys.modules`` under its full name, so a
    later ``import scipy.linalg`` in the same process shares it, and a second
    call returns it from there.
    """
    qualified = f"scipy.linalg.{name}"
    if qualified in sys.modules:
        return sys.modules[qualified]
    scipy = importlib.util.find_spec("scipy")
    for location in scipy.submodule_search_locations if scipy else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(location, "linalg", name + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(qualified, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[qualified] = module
                return module
    raise ImportError(f"maglab needs scipy's compiled wrappers {qualified}, which were not found", name=qualified)


def _matvec(z, x):
    """``z @ x`` for an (M, N) ``z``, by scipy's BLAS ``dgemv``.

    For the C-ordered matrices maglab builds, ``z.T`` is a Fortran-ordered
    view, so nothing is copied, and the transposed gemv is the kernel
    numpy's row-major ``@`` reaches as well.
    """
    return _load_linalg_extension("_fblas").dgemv(1.0, z.T, x, trans=1)


def _lapack_info(routine, info):
    """Raise on a negative LAPACK ``info``: an illegal argument, a maglab bug."""
    if info < 0:
        raise ValueError(f"LAPACK {routine}: illegal value in argument {-info}")


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Point labels plus their distances.

    ``points`` may carry coordinates (arrays) or any hashable labels; only the
    distances enter the computations.  ``dist`` is the N x N distance matrix.
    A matrix from outside is copied and checked: finite, symmetric, zero
    diagonal, positive off the diagonal, triangle inequality.
    ``from_coordinates`` and ``rescaled`` check only what construction cannot
    guarantee and pass fresh distances with ``_trusted``.

    ``orbits`` is None or a read-only integer array labelling each point with
    its orbit 0..K-1 under an isometry group of the space (see
    ``from_coordinates``).  Such a space has no ``dist``; it holds ``rows``,
    the read-only K x N distances from the first point of each orbit (its
    representative) to every point, which the symmetry extends to all pairs.
    """

    points: tuple
    dist: np.ndarray | None = field(repr=False)
    orbits: np.ndarray | None = field(default=None, repr=False)
    rows: np.ndarray | None = field(default=None, repr=False)

    def __init__(self, points, dist, *, _trusted=False, _orbits=None, _rows=None):
        if not _trusted:
            dist = np.array(dist, dtype=float)
            n = len(points)
            if not n:
                raise ArgumentError("a metric space needs at least one point")
            if dist.shape != (n, n):
                raise ArgumentError(f"distance matrix shape {dist.shape} does not match {n} points")
            if not np.isfinite(dist).all():
                raise ArgumentError("distance matrix has non-finite entries")
            if not np.allclose(dist, dist.T, atol=METRIC_TOL, rtol=0.0):
                raise ArgumentError("distance matrix is not symmetric")
            if np.any(np.abs(np.diag(dist)) > METRIC_TOL):
                raise ArgumentError("distance matrix has a nonzero diagonal")
            off = dist[~np.eye(n, dtype=bool)]
            if off.size and off.min() <= 0.0:
                raise ArgumentError("duplicate or negatively separated points (nonpositive off-diagonal)")
            if n >= 3:
                # d(i,k) <= d(i,j) + d(j,k) for all j; vectorized over j and k,
                # blocked over i in one buffer of about BLOCK_BYTES, at least one
                # n x n slice
                block = max(1, BLOCK_BYTES // (8 * n * n))
                buffer = np.empty((min(block, n), n, n))
                for i in range(0, n, block):
                    rows = dist[i : i + block]
                    slack = buffer[: len(rows)]
                    np.add(rows[:, :, None], dist[None, :, :], out=slack)
                    np.subtract(rows[:, None, :], slack, out=slack)
                    if slack.max() > METRIC_TOL:
                        raise ArgumentError("triangle inequality violated beyond tolerance")
        for array in (dist, _orbits, _rows):
            if array is not None:
                array.flags.writeable = False
        object.__setattr__(self, "points", tuple(points))
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "orbits", _orbits)
        object.__setattr__(self, "rows", _rows)

    def __len__(self):
        return len(self.points)

    @classmethod
    def from_coordinates(cls, coords, *, labels=None, orbits=None):
        """Euclidean space on the rows of ``coords`` (N, n), a metric by construction.

        ``orbits``, if given, labels row i with its orbit 0..K-1 under a group of
        isometries that maps the rows onto themselves; every label must occur.
        Only its form is checked here: the caller vouches for the symmetry,
        as ``cloud.sample_domain`` does for its lattices.  The space then keeps
        only the K representative rows of the distance matrix.
        """
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        if not coords.size:  # no rows, or [] read as one row of no coordinates
            raise ArgumentError("a metric space needs at least one point")
        if not np.isfinite(coords).all():
            raise ArgumentError("coordinates have non-finite entries")
        pts = labels if labels is not None else [tuple(row) for row in coords]
        if len(pts) != len(coords):
            raise ArgumentError(f"{len(pts)} labels for {len(coords)} points")
        if orbits is not None:
            orbits = np.array(orbits, dtype=np.intp)
            if orbits.shape != (len(coords),) or orbits.min() < 0 or not np.bincount(orbits).all():
                raise ArgumentError("orbits must label every point with one of 0..K-1, each label used")
            _, reps = np.unique(orbits, return_index=True)
        rows = _distances(coords if orbits is None else coords[reps], coords)
        # zero off the diagonal is a duplicate pair; in an orbit space the group
        # element taking such a pair to its representative puts a second zero
        # in that representative's row
        if np.count_nonzero(rows) < len(rows) * (len(coords) - 1):
            raise ArgumentError("duplicate points (zero distance)")
        if orbits is None:
            return cls(pts, rows, _trusted=True)
        return cls(pts, None, _trusted=True, _orbits=orbits, _rows=rows)

    def rescaled(self, factor):
        """Same space with all distances multiplied by ``factor`` > 0."""
        if not (np.isfinite(factor) and factor > 0):
            raise ArgumentError(f"rescale factor must be finite and positive, got {factor!r}")
        scaled = (self.dist if self.rows is None else self.rows) * factor
        if np.count_nonzero(scaled) < len(scaled) * (len(self) - 1):  # one 0 a row, at its own point
            raise ArgumentError(f"rescale factor {factor!r} underflows a distance to zero")
        if self.rows is None:
            return type(self)(self.points, scaled, _trusted=True)
        return type(self)(self.points, None, _trusted=True, _orbits=self.orbits, _rows=scaled)


def _distances(a, b):
    """Euclidean distances from each row of ``a`` (M, n) to each row of ``b`` (N, n).

    The arithmetic is scipy's ``cdist``: squared coordinate differences added
    in coordinate order, then the square root, so the M x N result is
    bit-identical to it (and, for ``a is b``, to ``squareform(pdist(a))``).
    Rows are built in blocks whose difference temporary stays near
    BLOCK_BYTES.
    """
    shape = (len(a), len(b))
    out = np.empty(shape) if b.shape[1] else np.zeros(shape)  # no coordinates: all points coincide
    sources, columns = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    block = max(1, BLOCK_BYTES // (8 * len(b)))
    diff = np.empty((min(block, len(a)), len(b)))
    for i in range(0, len(a), block):
        rows = out[i : i + block]
        for k, column in enumerate(columns):
            step = rows if k == 0 else diff[: len(rows)]
            np.subtract(sources[k, i : i + block, None], column, out=step)
            np.multiply(step, step, out=step)
            if k:
                rows += step
        np.sqrt(rows, out=rows)
    return out


@dataclass(frozen=True)
class Weighting:
    """Weight vector w with Z w = 1 at a fixed scale, plus its residual."""

    weights: np.ndarray
    scale: float
    residual: float


def _check_scale(scale):
    """Reject a scale that is not finite and positive: inf * 0 puts NaN in Z, which LAPACK takes."""
    if not (np.isfinite(scale) and scale > 0):
        raise ArgumentError(f"scale must be finite and positive, got {scale!r}")


def similarity_matrix(space: FiniteMetricSpace, scale) -> np.ndarray:
    """Z with entries exp(-scale * d(x, y)); symmetric with unit diagonal.

    A space with orbits holds no N x N distances and so has no dense Z; its
    orbit-free twin is ``FiniteMetricSpace.from_coordinates(space.points)``.
    """
    if space.dist is None:
        raise ArgumentError("a space with orbits has no dense similarity matrix")
    _check_scale(scale)
    return np.exp(-scale * space.dist)


def _solve_similarity(z, rhs):
    """Solve Z x = rhs and return (x, 1-norm condition number of Z).

    Z is positive definite for Euclidean inputs: it is Cholesky-factored and
    LAPACK's dpocon estimates the condition number from the factor.  General
    user data that is not positive definite falls back to a pivoted LU solve
    and the exact 1-norm condition number.  One step of iterative refinement
    keeps the residual at the round-off floor.  The caller judges the
    condition number.
    """
    lapack = _load_linalg_extension("_flapack")
    # upper factor, lower triangle left as it was: scipy's cho_factor
    factor, info = lapack.dpotrf(z, lower=0, clean=0)
    _lapack_info("dpotrf", info)
    if info == 0:
        # Z's entries are exponentials, so its 1-norm is its largest column sum
        rcond, info = lapack.dpocon(factor, z.sum(axis=0).max(), uplo="U")
        _lapack_info("dpocon", info)
        cond = 1.0 / rcond if rcond > 0 else np.inf

        def solve(b):
            x, info = lapack.dpotrs(factor, b, lower=0)
            _lapack_info("dpotrs", info)
            return x

    else:  # a leading minor is not positive definite
        # a positive info is an exact zero pivot: cond is then inf, which the caller rejects
        lu, piv, info = lapack.dgetrf(z)
        _lapack_info("dgetrf", info)
        cond = np.linalg.cond(z, 1)

        def solve(b):
            x, info = lapack.dgetrs(lu, piv, b)
            _lapack_info("dgetrs", info)
            return x

    x = solve(rhs)
    x += solve(rhs - _matvec(z, x))
    return x, cond


def _orbit_similarity_rows(rows, scale, block):
    """Yield (i, exp(-scale * rows[i : i + block])) for i = 0, block, 2 block, ...

    Every block is computed into the same buffer, so each is valid only until
    the next one is drawn.
    """
    buffer = np.empty((min(block, len(rows)), rows.shape[1]))
    for i in range(0, len(rows), block):
        chunk = rows[i : i + block]
        z = buffer[: len(chunk)]
        np.multiply(chunk, -scale, out=z)
        np.exp(z, out=z)
        yield i, z


def weighting(space: FiniteMetricSpace, scale) -> Weighting:
    """Solve Z w = 1 and record the max-norm residual.

    A space with ``orbits`` is solved on the orbits: w = P v with P the N x K
    point-to-orbit indicator, and Pᵀ Z P v = Pᵀ 1 = |O|.  Only the K rows of Z
    at one representative per orbit enter, from the space's ``rows``; within
    an orbit the rows of Z P agree, so Pᵀ Z P = diag(|O|) Z[reps] P.  Z[reps] P
    is summed from blocks of about BLOCK_BYTES of those rows, one ``bincount``
    a block, so neither the K x N rows of Z nor a K x N index is ever formed;
    each entry is summed in the same order as from the whole rows.  The
    system is solved in the orthonormal scaling Qᵀ Z Q u = sqrt|O|,
    Q = P diag(|O|)^(-1/2): its eigenvalues lie between Z's extreme ones, so
    its condition number is at most Z's and the same guard applies.  The
    residual is that of the representative rows of Z, recomputed block by
    block against the rows themselves, so an error in forming Pᵀ Z P shows in
    it.

    Raises SolveError, carrying the scale, condition number and residual,
    when the condition number exceeds CONDITION_LIMIT or the residual its
    tolerance.
    """
    if space.orbits is None:
        z = similarity_matrix(space, scale)
        w, cond = _solve_similarity(z, np.ones(len(space)))
        blocks = (z,)
    else:
        _check_scale(scale)
        orbits = space.orbits
        sizes = np.bincount(orbits)
        k = len(sizes)
        block = max(1, BLOCK_BYTES // (8 * len(orbits)))
        # s[i, j] = sum of Z over representative row i and the points of orbit j:
        # the bincount cells of a block's row r are offset by r k
        cells = (orbits + k * np.arange(min(block, k))[:, None]).ravel()
        s = np.empty((k, k))
        for i, z in _orbit_similarity_rows(space.rows, scale, block):
            s[i : i + len(z)] = np.bincount(cells[: z.size], weights=z.ravel(), minlength=len(z) * k).reshape(-1, k)
        del cells
        root = np.sqrt(sizes)
        s *= root[:, None]
        s /= root
        s = s + s.T
        s /= 2
        v, cond = _solve_similarity(s, root)
        w = (v / root)[orbits]
        blocks = (z for _, z in _orbit_similarity_rows(space.rows, scale, block))
    residual = float(np.max([np.abs(_matvec(z, w) - 1.0).max() for z in blocks]))
    if not cond <= CONDITION_LIMIT:
        message = f"similarity matrix numerically singular (cond ~ {cond:.3e})"
    elif residual > RESIDUAL_RTOL * max(1, len(space)):
        message = f"weighting residual {residual:.3e} above tolerance"
    else:
        return Weighting(weights=w, scale=float(scale), residual=residual)
    raise SolveError(message, cond, scale=float(scale), residual=residual)


def magnitude(space: FiniteMetricSpace, scale) -> float:
    """Sum of the weights at the given scale."""
    return float(weighting(space, scale).weights.sum())


def is_positive_definite(space: FiniteMetricSpace, scale):
    """Whether Z is positive definite, with a smallest-eigenvalue estimate.

    Returns (flag, lambda_min).  The flag is decided by attempting a Cholesky
    factorization; the eigenvalue estimate comes from a symmetric eigensolve
    of the (small, dense) matrix.
    """
    z = similarity_matrix(space, scale)
    lapack = _load_linalg_extension("_flapack")
    # scipy's eigvalsh(z, subset_by_index=[0, 0]): dsyevr on the lower triangle
    lwork, liwork, info = lapack.dsyevr_lwork(len(z), lower=1)
    _lapack_info("dsyevr_lwork", info)
    w, *_, info = lapack.dsyevr(
        z, compute_v=0, range="I", lower=1, il=1, iu=1, lwork=int(lwork), liwork=int(liwork)
    )
    _lapack_info("dsyevr", info)
    if info > 0:
        raise SolveError(f"symmetric eigensolve failed to converge (LAPACK dsyevr info {info})", scale=float(scale))
    _, info = lapack.dpotrf(z, lower=0, clean=0)
    _lapack_info("dpotrf", info)
    return info == 0, float(w[0])


def magnitude_sweep(space: FiniteMetricSpace, scales):
    """Magnitude at each scale of an iterable; returns an array."""
    return np.array([magnitude(space, s) for s in scales])


def load_point_file(path_or_lines):
    """Read a point set from text.

    Either one point per line (whitespace/comma separated coordinates,
    Euclidean metric) or an explicit matrix block introduced by a header
    line ``matrix N`` followed by N rows of N entries.
    """
    n, rows = read_point_rows(path_or_lines)
    if n is not None:
        return FiniteMetricSpace(list(range(n)), rows)
    return FiniteMetricSpace.from_coordinates(rows)


def read_point_rows(path_or_lines):
    """The rows of a point file, parsed and shape-checked but not validated.

    Returns ``(N, rows)`` for a ``matrix N`` block and ``(None, rows)`` for
    coordinate rows, which all have the same length.  A path that is missing
    or names a directory is an ArgumentError.
    """
    if isinstance(path_or_lines, (str, bytes)):
        lines = _read_lines(path_or_lines, "point file")
    else:
        lines = list(path_or_lines)
    rows = [ln.strip() for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
    if not rows:
        raise ArgumentError("empty point file")
    first = rows[0].split()
    if first and first[0].lower() == "matrix":
        if len(first) != 2 or not first[1].isdigit() or int(first[1]) < 1:
            raise ArgumentError(f"matrix header must read 'matrix N' with N >= 1, got {rows[0]!r}")
        n = int(first[1])
        if len(rows) - 1 < n:
            raise ArgumentError(f"matrix block promises {n} rows, found {len(rows) - 1}")
        mat = [_parse_row(r) for r in rows[1 : n + 1]]
        if any(len(r) != n for r in mat):
            raise ArgumentError("matrix block has wrong shape")
        return n, mat
    coords = [_parse_row(r) for r in rows]
    if len({len(r) for r in coords}) != 1:
        raise ArgumentError("point rows have differing numbers of coordinates")
    return None, coords


def _read_lines(path, kind):
    """Lines of the text file at ``path``; a missing path or a directory is an
    ArgumentError naming the ``kind`` of file and the path."""
    try:
        with open(path) as fh:
            return fh.read().splitlines()
    except (FileNotFoundError, NotADirectoryError, IsADirectoryError) as exc:
        raise ArgumentError(f"cannot read {kind} {path!r}: {exc.strerror}") from exc


def _parse_row(text):
    """Floats of one whitespace/comma separated point-file row."""
    try:
        return [float(v) for v in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ArgumentError(f"non-numeric entry in point-file row {text!r}") from exc
