"""The benchmark's workloads: inputs from a seed, timed operations, checks.

A workload's build function makes its inputs from the seed during set-up
and returns the operations of one pass.  Each operation's ``run`` is timed;
its ``check`` runs after the pass, outside the timed region, and compares
the output with an independent oracle or with the seed commit's reference
in ``refs/`` under a tolerance, never byte for byte, so an exact or
vectorised rewrite that changes last bits does not count as failing.  Byte
identity of the CLI's CSVs is counted separately, as a diagnostic, through
``digests``.

Every workload is closed-loop with one caller: the next operation starts
when the previous one returns.  ``maglab`` functions are looked up on their
modules at call time, so the traced run's wrappers see every call.

``maglab`` must be importable (the entry points put the checkout's ``src``
first on ``sys.path``).
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from maglab import cli, cloud, invariants, metric, radial, roots

REFS = Path(__file__).resolve().parent / "refs"

#: what each workload runs and how it uses the seed; why it is in the set is
#: written in BENCHMARK.json
ABOUT = {
    "census": {
        "operations": "ball_pole_zero_census(n) for n = 9, 11, 13; one operation per n",
        "seed": "ignored: the census has no random input",
    },
    "lattice": {
        "operations": "refinement_sequence(shell(1, 2), R, 3, base_spacing=0.6) for R = 0.5, 1, 2",
        "seed": "ignored: the lattices are fixed",
    },
    "sweep": {
        "operations": (
            "cli ball --n 9 (400 R), shell (400 R), compare --n 7 (100 R), asymptote ball n 9, "
            "asymptote shell, poles shell --ymax 200; read_off + invariants_from_mesh of icosphere(5)"
        ),
        "seed": "ignored: the grids are fixed",
    },
    "finite": {
        "operations": (
            "200 acceptance-suite trials (weighting, magnitude of the space, a permutation and an "
            "isometric copy, positive definiteness); cli finite on 1000 points and a 300-point matrix"
        ),
        "seed": "draws the trials' point sets and scales and both point files",
    },
}


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]  # problems found in the output; empty when correct


@dataclass
class Workload:
    ops: list
    digests: dict = field(default_factory=dict)  # "op/file.csv" -> sha256 of the reference CSV


def build(name: str, seed: int, size: str, work: Path) -> Workload:
    """Set up workload ``name`` at ``size`` ("full" or "tiny"); files go to ``work``."""
    return BUILDERS[name](seed, size, work)


def load_ref(name: str) -> dict:
    path = REFS / f"{name}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def csv_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def identical_csvs(wl: Workload, outputs: dict) -> int:
    """CSVs the CLI operations wrote that are byte-identical to the reference."""
    return sum(
        csv_digest(text) == wl.digests.get(f"{op}/{fname}")
        for op, out in outputs.items()
        if isinstance(out, dict) and "files" in out
        for fname, text in out["files"].items()
        if fname.endswith(".csv")
    )


# -- comparison helpers -------------------------------------------------------


def _close(label, got, want, rtol) -> list:
    """Elementwise |got - want| <= rtol * max(1, |want|), in order."""
    if want is None:
        return [f"{label}: no reference"]
    if len(got) != len(want):
        return [f"{label}: {len(got)} values, expected {len(want)}"]
    return [
        f"{label}[{i}]: {g!r} vs {w!r}"
        for i, (g, w) in enumerate(zip(got, want))
        if not abs(g - w) <= rtol * max(1.0, abs(w))
    ]


def _close_sets(label, got, want, rtol) -> list:
    """Like ``_close`` for unordered multisets, matching nearest values."""
    if want is None:
        return [f"{label}: no reference"]
    if len(got) != len(want):
        return [f"{label}: {len(got)} values, expected {len(want)}"]
    free, problems = list(got), []
    for w in want:
        i = min(range(len(free)), key=lambda k: abs(free[k] - w))
        if not abs(free[i] - w) <= rtol * max(1.0, abs(w)):
            problems.append(f"{label}: {w!r} nearest {free[i]!r}")
        free.pop(i)
    return problems


def _conjugation_closed(values, tol=1e-9) -> bool:
    scale = max([1.0] + [abs(z) for z in values])
    return all(min(abs(z.conjugate() - w) for w in values) <= tol * scale for z in values)


def _pairs(values) -> list:
    return [[complex(z).real, complex(z).imag] for z in values]


def _complexes(pairs) -> list:
    return [complex(a, b) for a, b in pairs]


# -- census -------------------------------------------------------------------

CENSUS = {"full": (9, 11, 13), "tiny": (5,)}


def census(seed, size, work) -> Workload:
    ref = load_ref(f"census-{size}")
    return Workload(
        [
            Op(f"census-{n}", partial(_census_run, n), partial(_census_check, n, ref.get(f"census-{n}")))
            for n in CENSUS[size]
        ]
    )


def _census_run(n):
    poles, zeros = roots.ball_pole_zero_census(n)
    return {"poles": _pairs(poles.locations()), "zeros": _pairs(zeros.locations())}


def _census_check(n, ref, out) -> list:
    problems = []
    bounds = {"poles": (n - 1) * (n - 3) // 8, "zeros": (n + 3) * (n + 1) // 8}
    for kind, bound in bounds.items():
        found = _complexes(out[kind])
        if len(found) != bound:
            problems.append(f"{kind}: {len(found)} found, degree bound {bound}")
        if not _conjugation_closed(found):
            problems.append(f"{kind} are not closed under conjugation")
        problems += _close_sets(kind, found, _complexes(ref[kind]) if ref else None, 1e-8)
    sector = math.pi / (n + 1)
    for p in _complexes(out["poles"]):
        if p.real >= 0 or abs(cmath.phase(p)) < sector:
            problems.append(f"pole {p} outside the left half plane or inside |arg R| < pi/{n + 1}")
    return problems


# -- lattice ------------------------------------------------------------------

#: scales and base spacing; three levels halve the spacing twice
LATTICE = {"full": ((0.5, 1.0, 2.0), 0.6), "tiny": ((1.0,), 1.0)}


def lattice(seed, size, work) -> Workload:
    scales, spacing = LATTICE[size]
    ref = load_ref(f"lattice-{size}")
    return Workload(
        [
            Op(f"shell-R{R}", partial(_lattice_run, R, spacing), partial(_lattice_check, R, ref.get(f"shell-R{R}")))
            for R in scales
        ]
    )


def _lattice_run(R, spacing):
    report = cloud.refinement_sequence(cloud.DomainShape.shell(1.0, 2.0), R, 3, base_spacing=spacing)
    return {
        "counts": list(report.counts),
        "magnitudes": list(report.magnitudes),
        "extrapolated": report.extrapolated,
        "uncertainty": report.uncertainty,
    }


def _lattice_check(R, ref, out) -> list:
    mags, est, unc = out["magnitudes"], out["extrapolated"], out["uncertainty"]
    exact = complex(radial.shell_magnitude(1.0, 2.0, R)).real
    problems = []
    if any(b < a for a, b in zip(mags, mags[1:])):
        problems.append(f"magnitudes decrease under refinement: {mags}")
    if not mags[-1] < exact:
        problems.append(f"finest lattice {mags[-1]!r} is not below the exact {exact!r}")
    if not abs(est - exact) <= unc:
        problems.append(f"|extrapolated - exact| = {abs(est - exact):.3e} exceeds uncertainty {unc:.3e}")
    if ref is None:
        return problems + ["no reference"]
    if out["counts"] != ref["counts"]:
        problems.append(f"lattice counts {out['counts']} differ from {ref['counts']}")
    want = ref["magnitudes"] + [ref["extrapolated"], ref["uncertainty"]]
    return problems + _close("lattice values", mags + [est, unc], want, 1e-10)


# -- sweep --------------------------------------------------------------------

SWEEP = {
    "full": {"ball": "0.1:20:400", "shell": "0.1:20:400", "compare": ("7", "1:20:100"),
             "asymptote_n": "9", "ymax": "200", "icosphere": 5},
    "tiny": {"ball": "0.1:20:20", "shell": "0.1:20:20", "compare": ("3", "1:20:10"),
             "asymptote_n": "3", "ymax": "20", "icosphere": 2},
}

#: double-precision ball values against dps=40 ones; the seed code is within
#: 3e-9 at n = 9 and 3e-13 at n = 7 on the checked rows
BALL_RTOL = 2e-8
#: values compared with the seed commit's CSVs and mesh invariants
REF_RTOL = 1e-9
#: rows of an R sweep checked against a high-precision oracle
ORACLE_ROWS = 5


def sweep(seed, size, work) -> Workload:
    cfg = SWEEP[size]
    ref = load_ref(f"sweep-{size}")
    off = work / "icosphere.off"
    invariants.write_off(invariants.icosphere(cfg["icosphere"]), off)
    n_cmp, grid_cmp = cfg["compare"]
    ymax = float(cfg["ymax"])

    def cli_op(name, argv, check):
        return Op(name, partial(_cli_run, argv, work / name), partial(_cli_check, check, ref.get(name)))

    ops = [
        cli_op("ball", ["ball", "--n", "9", "--r-grid", cfg["ball"]], partial(_ball_check, 9)),
        cli_op("shell", ["shell", "--r-grid", cfg["shell"]], _shell_check),
        cli_op("compare", ["compare", "--n", n_cmp, "--r-grid", grid_cmp], partial(_compare_check, int(n_cmp))),
        cli_op("asymptote-ball", ["asymptote", "--shape", "ball", "--n", cfg["asymptote_n"]], _asymptote_check),
        cli_op("asymptote-shell", ["asymptote", "--shape", "shell"], _asymptote_check),
        cli_op("poles-shell", ["poles", "--model", "shell", "--ymax", cfg["ymax"]], partial(_poles_check, ymax)),
        Op("mesh", partial(_mesh_run, off), partial(_mesh_check, ref.get("mesh"))),
    ]
    digests = {
        f"{op}/{fname}": csv_digest(text)
        for op, out in ref.items()
        for fname, text in out.get("files", {}).items()
        if fname.endswith(".csv")
    }
    return Workload(ops, digests)


def _cli_run(argv, out_dir):
    rc = cli.main([*argv, "--out", str(out_dir)])
    files = {p.name: p.read_text() for p in sorted(out_dir.iterdir())} if out_dir.is_dir() else {}
    return {"rc": rc, "files": files}


def _cli_check(check, ref, out) -> list:
    if out["rc"] != 0:
        return [f"exit code {out['rc']}"]
    return check(out, ref)


def _table(out, fname) -> list:
    """Rows of a CSV the CLI wrote, numeric cells as floats."""

    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    return [{k: cell(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(out["files"][fname]))]


def _table_close(out, ref, fname, rtol) -> list:
    """Every cell of a CSV within rtol of the reference CSV's cell."""
    if ref is None or fname not in ref["files"]:
        return [f"{fname}: no reference"]
    got, want = _table(out, fname), _table(ref, fname)
    if len(got) != len(want) or (got and got[0].keys() != want[0].keys()):
        return [f"{fname}: shape differs from the reference"]
    problems = []
    for i, (g, w) in enumerate(zip(got, want)):
        for key, value in w.items():
            if isinstance(value, str):
                ok = g[key] == value
            else:
                ok = not isinstance(g[key], str) and abs(g[key] - value) <= rtol * max(1.0, abs(value))
            if not ok:
                problems.append(f"{fname} row {i} {key}: {g[key]!r} vs {value!r}")
    return problems


def _oracle_rows(rows) -> list:
    return rows[:: max(1, len(rows) // ORACLE_ROWS)]


def _ball_oracle(n, rows, column) -> list:
    problems = []
    for row in _oracle_rows(rows):
        exact = complex(radial.ball_magnitude(n, row["R"], dps=40)).real
        if not abs(row[column] - exact) <= BALL_RTOL * abs(exact):
            problems.append(f"M_B{n}({row['R']!r}) = {row[column]!r}, dps=40 gives {exact!r}")
    return problems


def _ball_check(n, out, ref) -> list:
    return _ball_oracle(n, _table(out, "ball.csv"), "M")


def _shell_check(out, ref) -> list:
    return _table_close(out, ref, "shell.csv", REF_RTOL)


def _conjecture_ball(n, R) -> float:
    """sum_i V_i(B_n) R^i / (i! w_i), with V_i(B_n) = C(n, i) w_n / w_{n-i}.

    For n = 3 this is R^3/6 + R^2 + 2R + 1, the exact magnitude of B_3.
    """
    w = [math.pi ** (k / 2) / math.gamma(k / 2 + 1) for k in range(n + 1)]
    return sum(math.comb(n, i) * w[n] / w[n - i] * R**i / (math.factorial(i) * w[i]) for i in range(n + 1))


def _compare_check(n, out, ref) -> list:
    rows = _table(out, "compare.csv")
    problems = _ball_oracle(n, rows, "exact_M")
    for row in rows:
        want = _conjecture_ball(n, row["R"])
        columns = ("conjecture_M", "exact_M") if n == 3 else ("conjecture_M",)
        for column in columns:
            if not abs(row[column] - want) <= 1e-10 * abs(want):
                problems.append(f"{column}({row['R']!r}) = {row[column]!r}, closed form {want!r}")
    return problems + _table_close(out, ref, "deviation.csv", REF_RTOL)


def _asymptote_check(out, ref) -> list:
    return [
        f"c{int(row['j'])} relative error {row['relative_error']!r} above 1e-6"
        for row in _table(out, "asymptote.csv")
        if not row["relative_error"] <= 1e-6
    ]


def _poles_check(ymax, out, ref) -> list:
    slope = json.loads(out["files"]["poles_config.json"])["slope"]
    problems = [] if 0.4 <= slope <= 0.6 else [f"accumulation slope {slope!r} outside [0.4, 0.6]"]
    for row in _table(out, "poles.csv"):
        if not (row["kind"] == "pole" and row["residual"] <= 1e-10 and 0 < row["im"] <= ymax):
            problems.append(f"bad shell pole row {row}")
    return problems + _table_close(out, ref, "poles.csv", REF_RTOL)


def _mesh_run(path):
    inv = invariants.invariants_from_mesh(invariants.read_off(str(path)))
    return {"volume": inv.volume, "area": inv.area, "total_mean_curvature": float(inv.total_mean_curvature)}


def _mesh_check(ref, out) -> list:
    keys = ("volume", "area", "total_mean_curvature")
    return _close("mesh invariants", [out[k] for k in keys], [ref[k] for k in keys] if ref else None, REF_RTOL)


# -- finite -------------------------------------------------------------------

#: (trials, points in the coordinate file, points behind the matrix file)
FINITE = {"full": (200, 1000, 300), "tiny": (10, 60, 30)}
FINITE_GRID = "0.1:10:50"  # np.linspace(0.1, 10.0, 50)
#: magnitudes against numpy.linalg.solve on Z built from the raw inputs
FINITE_RTOL = 1e-9


def _acceptance_trials(rng, count) -> list:
    """Trials of the acceptance suite's finite-space property loop.

    Point sets, scales, permutations and isometries are drawn as the suite
    draws them.  Sizes 2..300 and dimensions 1..4 are spread evenly over the
    trials in a seeded order instead of drawn independently: the dense
    solves cost ~N^3, so independent sizes would make the work of a pass
    differ by several percent between seeds.
    """
    sizes = rng.permutation(np.linspace(2, 300, count).round().astype(int))
    dims = rng.permutation(np.resize([1, 2, 3, 4], count))
    trials = []
    for n, dim in zip(sizes.tolist(), dims.tolist()):
        coords = rng.uniform(-1.0, 1.0, size=(n, dim)) * rng.uniform(0.5, 3.0)
        coords = np.unique(coords.round(6), axis=0)
        if len(coords) < 2:
            continue
        scale = float(rng.uniform(0.5, 2.0))
        perm = rng.permutation(len(coords))
        theta = float(rng.uniform(0.0, 2 * math.pi))
        rot = np.eye(dim)
        if dim >= 2:
            rot[:2, :2] = [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        moved = coords @ rot.T + rng.uniform(-1.0, 1.0, size=dim)
        trials.append((coords, scale, perm, moved))
    return trials


def _euclidean(coords) -> np.ndarray:
    return np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=-1))


def _oracle_magnitude(dist, scale) -> float:
    return float(np.linalg.solve(np.exp(-scale * dist), np.ones(len(dist))).sum())


def finite(seed, size, work) -> Workload:
    count, n_points, n_matrix = FINITE[size]
    rng = np.random.default_rng(seed)
    trials = _acceptance_trials(rng, count)
    points = rng.uniform(-2.0, 2.0, size=(n_points, 3))
    points_file = work / "points.txt"
    np.savetxt(points_file, points, fmt="%.17g")
    dist = _euclidean(rng.uniform(-2.0, 2.0, size=(n_matrix, 3)))
    matrix_file = work / "matrix.txt"
    np.savetxt(matrix_file, dist, fmt="%.17g", header=f"matrix {n_matrix}", comments="")
    ops = [
        Op(f"trial-{i}", partial(_trial_run, *t), partial(_trial_check, t[0], t[1], i % 5 == 0))
        for i, t in enumerate(trials)
    ]
    for name, path in (("cli-points", points_file), ("cli-matrix", matrix_file)):
        argv = ["finite", "--points", str(path), "--r-grid", FINITE_GRID]
        check = partial(_cli_check, partial(_finite_cli_check, path), None)
        ops.append(Op(name, partial(_cli_run, argv, work / name), check))
    return Workload(ops, load_ref(f"finite-{size}").get(str(seed), {}))


def _trial_run(coords, scale, perm, moved):
    space = metric.FiniteMetricSpace.from_coordinates(coords)
    w = metric.weighting(space, scale)
    mag = metric.magnitude(space, scale)
    mag_perm = metric.magnitude(metric.FiniteMetricSpace.from_coordinates(coords[perm]), scale)
    mag_iso = metric.magnitude(metric.FiniteMetricSpace.from_coordinates(moved), scale)
    flag, lam_min = metric.is_positive_definite(space, scale)
    return {
        "n": len(space), "residual": w.residual, "magnitude": mag, "permuted": mag_perm,
        "isometric": mag_iso, "positive_definite": bool(flag), "lambda_min": lam_min,
    }


def _trial_check(coords, scale, with_oracle, out) -> list:
    mag, problems = out["magnitude"], []
    if not out["residual"] <= 1e-10 * out["n"]:
        problems.append(f"weighting residual {out['residual']:.3e}")
    for key in ("permuted", "isometric"):
        if not abs(out[key] - mag) <= 1e-12 * max(1.0, abs(mag)):
            problems.append(f"{key} magnitude {out[key]!r} differs from {mag!r}")
    if not (out["positive_definite"] and out["lambda_min"] > 0):
        problems.append(f"Z not positive definite (lambda_min {out['lambda_min']!r})")
    if with_oracle:
        want = _oracle_magnitude(_euclidean(coords), scale)
        if not abs(mag - want) <= FINITE_RTOL * abs(want):
            problems.append(f"magnitude {mag!r}, numpy solve gives {want!r}")
    return problems


def _file_distances(path) -> np.ndarray:
    """Distances in a point file as written: a matrix block or coordinates."""
    with open(path) as fh:
        is_matrix = fh.readline().startswith("matrix")
    if is_matrix:
        return np.loadtxt(path, skiprows=1, ndmin=2)
    return _euclidean(np.loadtxt(path, ndmin=2))


def _finite_cli_check(path, out, ref) -> list:
    dist = _file_distances(path)
    rows = _table(out, "finite.csv")
    if [row["R"] for row in rows] != list(np.linspace(0.1, 10.0, 50)):
        return [f"finite.csv R column differs from the grid {FINITE_GRID}"]
    problems = []
    for row in rows:
        want = _oracle_magnitude(dist, row["R"])
        if not abs(row["magnitude"] - want) <= FINITE_RTOL * abs(want):
            problems.append(f"magnitude at R={row['R']!r}: {row['magnitude']!r}, numpy solve gives {want!r}")
    return problems


BUILDERS = {"census": census, "lattice": lattice, "sweep": sweep, "finite": finite}
