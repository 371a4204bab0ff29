"""Command-line entry point: reproducible experiments emitting CSV/JSON.

Subcommands: ``finite`` (point-set magnitude sweep), ``cloud`` (lattice
refinement report), ``ball``/``shell`` (exact magnitudes over an R grid),
``asymptote`` (invariants, polynomials and large-R fit comparison),
``poles`` (pole/zero census CSV), ``compare`` (conjecture vs asymptotics
vs exact values, including the shell deviation report).

Every run writes a CSV per result table plus a JSON sidecar echoing the
resolved configuration and the library version.  Outputs are deterministic:
identical configurations produce byte-identical files.  Exit codes: 0 ok,
1 computation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cloud import DEFAULT_POINT_CAP, DomainShape, refinement_sequence
from .errors import ArgumentError, MaglabError
from .invariants import (
    asymptotic_polynomial,
    conjecture_polynomial,
    fit_leading_coefficients,
    invariants_analytic,
)
from .metric import load_point_file, magnitude
from .radial import ball_magnitude, shell_deviation_report, shell_magnitude
from .roots import SearchRegion, ball_pole_zero_census, shell_pole_survey, write_roots_csv


def _finite_fields(flag: str, text: str, fields) -> list[float]:
    """The colon-separated ``fields`` of option ``flag`` as finite floats."""
    try:
        values = [float(field) for field in fields]
    except ValueError:
        raise ArgumentError(f"{flag} fields must be numbers, got {text!r}") from None
    if not all(np.isfinite(values)):
        raise ArgumentError(f"{flag} fields must be finite, got {text!r}")
    return values


def _parse_r_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ArgumentError(f"--r-grid expects start:stop:count[:log], got {text!r}")
    start, stop = _finite_fields("--r-grid", text, parts[:2])
    try:
        count = int(parts[2])
    except ValueError:
        raise ArgumentError(f"--r-grid count must be an integer, got {parts[2]!r}") from None
    if count < 1:
        raise ArgumentError("--r-grid count must be >= 1")
    if len(parts) == 4:
        if parts[3] != "log":
            raise ArgumentError(f"--r-grid modifier must be 'log', got {parts[3]!r}")
        if start <= 0:
            raise ArgumentError("--r-grid log spacing needs start > 0")
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def _parse_rect(text: str) -> SearchRegion:
    parts = text.split(":")
    if len(parts) != 4:
        raise ArgumentError(f"--rect expects x0:x1:y0:y1, got {text!r}")
    return SearchRegion(*_finite_fields("--rect", text, parts))


#: per --shape, the shape options it reads and their defaults
_SHAPE_OPTIONS = {"ball": {"radius": 1.0}, "shell": {"inner": 1.0, "outer": 2.0}}
#: per poles --model, the model options it reads and their defaults
_MODEL_OPTIONS = {"ball": {"n": 5, "rect": None}, "shell": {"ymax": 40.0}}


def _resolve_options(args, key: str, options) -> None:
    """Fill in the defaults of the options that the ``--key`` choice reads.

    An option that only another choice reads would be ignored, so giving it
    is a usage error.  The parser gives these options a None default, which
    tells an option left out from one given.
    """
    choice = getattr(args, key)
    for dest in sorted(set().union(*options.values()) - options[choice].keys()):
        if getattr(args, dest) is not None:
            raise ArgumentError(f"--{dest} does not apply to --{key} {choice}")
    for dest, default in options[choice].items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)


def _fmt(value) -> str:
    return format(float(value), ".17g")


def emit_report(rows, header, path, fmt: str = "csv") -> None:
    """Write a result table; floats get 17 significant digits.

    Complex values must be pre-split into Re/Im columns by the caller.
    Empty result sets are an error and produce no file.
    """
    rows = list(rows)
    if not rows:
        raise ArgumentError(f"refusing to write empty result table {path}")
    if fmt == "json":
        payload = [dict(zip(header, [c if isinstance(c, str) else float(c) for c in row])) for row in rows]
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([c if isinstance(c, str) else _fmt(c) for c in row])


def _write_sidecar(out: Path, name: str, args: argparse.Namespace, extra=None) -> None:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    payload = {"command": name, "config": config, "version": __version__}
    if extra:
        payload.update(extra)
    (out / f"{name}_config.json").write_text(json.dumps(payload, indent=2, default=str) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- subcommands ------------------------------------------------------------


def _cmd_finite(args) -> None:
    out = _out_dir(args)
    space = load_point_file(args.points)
    grid = _parse_r_grid(args.r_grid) if args.r_grid else np.array([args.scale])
    mags = [magnitude(space, R) for R in grid]
    emit_report(
        zip(grid, mags), ["R", "magnitude"], out / "finite.csv", args.format
    )
    _write_sidecar(out, "finite", args, {"points": len(space)})


def _make_shape(args) -> DomainShape:
    _resolve_options(args, "shape", _SHAPE_OPTIONS)
    if args.shape == "ball":
        return DomainShape.ball(args.n, args.radius)
    return DomainShape.shell(args.inner, args.outer, args.n)


def _cmd_cloud(args) -> None:
    out = _out_dir(args)
    report = refinement_sequence(_make_shape(args), args.scale, args.levels, cap=args.cap)
    rows = [
        (level, h, count, m)
        for level, (h, count, m) in enumerate(
            zip(report.resolutions, report.counts, report.magnitudes)
        )
    ]
    emit_report(rows, ["level", "spacing", "points", "magnitude"], out / "cloud.csv", args.format)
    _write_sidecar(
        out,
        "cloud",
        args,
        {"extrapolated": report.extrapolated, "uncertainty": report.uncertainty},
    )


def _cmd_ball(args) -> None:
    out = _out_dir(args)
    grid = _parse_r_grid(args.r_grid)
    vals = [complex(ball_magnitude(args.n, R)).real for R in grid]
    emit_report(zip(grid, vals), ["R", "M"], out / "ball.csv", args.format)
    _write_sidecar(out, "ball", args)


def _cmd_shell(args) -> None:
    out = _out_dir(args)
    grid = _parse_r_grid(args.r_grid)
    vals = [complex(shell_magnitude(args.inner, args.outer, R)).real for R in grid]
    emit_report(zip(grid, vals), ["R", "M"], out / "shell.csv", args.format)
    _write_sidecar(out, "shell", args)


def _cmd_asymptote(args) -> None:
    out = _out_dir(args)
    shape = _make_shape(args)
    inv = invariants_analytic(shape)
    poly = asymptotic_polynomial(inv)
    n = inv.dimension
    grid = np.geomspace(50.0, 200.0, 20)
    if shape.kind == "ball":
        if n < 3:
            raise ArgumentError("asymptote --shape ball needs n >= 3: for n = 1 the analytic c2 is 0")
        # the radius-r ball at scale R is the unit ball at scale r R
        _, radius = shape.params
        vals = [complex(ball_magnitude(n, radius * R, dps=60)).real for R in grid]
    else:
        vals = [complex(shell_magnitude(args.inner, args.outer, R)).real for R in grid]
    fitted = fit_leading_coefficients(grid, vals, n)
    rows = [
        (j, poly.coefficients[j], fitted[j], abs(fitted[j] - poly.coefficients[j]) / abs(poly.coefficients[j]))
        for j in range(3)
    ]
    emit_report(
        rows,
        ["j", "analytic_cj", "fitted_cj", "relative_error"],
        out / "asymptote.csv",
        args.format,
    )
    _write_sidecar(
        out,
        "asymptote",
        args,
        {
            "volume": inv.volume,
            "area": inv.area,
            "total_mean_curvature": inv.total_mean_curvature,
        },
    )


def _cmd_poles(args) -> None:
    _resolve_options(args, "model", _MODEL_OPTIONS)
    region = _parse_rect(args.rect) if args.rect else None
    out = _out_dir(args)
    if args.model == "shell":
        survey = shell_pole_survey(args.ymax)
        write_roots_csv(survey.roots, out / "poles.csv")
        _write_sidecar(
            out, "poles", args, {"slope": survey.slope, "intercept": survey.intercept}
        )
        return
    poles, zeros = ball_pole_zero_census(args.n, region)
    roots = poles.roots + zeros.roots
    merged = type(poles)(
        tuple(sorted(roots, key=lambda r: (r.location.imag, r.location.real))),
        poles.region,
        poles.function_id,
    )
    write_roots_csv(merged, out / "poles.csv")
    _write_sidecar(out, "poles", args)


def _cmd_compare(args) -> None:
    out = _out_dir(args)
    shape = DomainShape.ball(args.n, 1.0)
    asym = asymptotic_polynomial(invariants_analytic(shape))
    conj = conjecture_polynomial(shape)
    grid = _parse_r_grid(args.r_grid)
    exact = [complex(ball_magnitude(args.n, R)).real for R in grid]
    rows = [
        (R, ex, asym(R), conj(R)) for R, ex in zip(grid, exact)
    ]
    emit_report(
        rows,
        ["R", "exact_M", "asymptotic_M", "conjecture_M"],
        out / "compare.csv",
        args.format,
    )
    dev = shell_deviation_report(grid, args.inner, args.outer)
    dev_rows = [
        (R.real, ours.real, printed.real, diff / abs(ours))
        for R, ours, printed, diff in dev
    ]
    emit_report(
        dev_rows,
        ["R", "boundary_value_M", "paper_closed_form_M", "relative_deviation"],
        out / "deviation.csv",
        args.format,
    )
    _write_sidecar(
        out, "compare", args, {"max_relative_deviation": max(r[3] for r in dev_rows)}
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maglab", description="Magnitude-function experiments"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def shape_options(p):
        p.add_argument("--radius", type=float, help="ball radius (default 1)")
        p.add_argument("--inner", type=float, help="shell inner radius (default 1)")
        p.add_argument("--outer", type=float, help="shell outer radius (default 2)")

    p = sub.add_parser("finite", help="magnitude sweep of a point-file metric space")
    p.add_argument("--points", required=True, help="whitespace-separated coordinate file")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--r-grid", help="start:stop:count[:log]")
    common(p)
    p.set_defaults(func=_cmd_finite)

    p = sub.add_parser("cloud", help="nested-lattice refinement report")
    p.add_argument("--shape", choices=("ball", "shell"), default="ball")
    p.add_argument("--n", type=int, default=3, help="ambient dimension")
    shape_options(p)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--cap", type=int, default=DEFAULT_POINT_CAP)
    common(p)
    p.set_defaults(func=_cmd_cloud)

    p = sub.add_parser("ball", help="exact odd-ball magnitude over an R grid")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--r-grid", default="0.1:10:100", help="start:stop:count[:log]")
    common(p)
    p.set_defaults(func=_cmd_ball)

    p = sub.add_parser("shell", help="exact 3d shell magnitude over an R grid")
    p.add_argument("--inner", type=float, default=1.0)
    p.add_argument("--outer", type=float, default=2.0)
    p.add_argument("--r-grid", default="0.1:10:100")
    common(p)
    p.set_defaults(func=_cmd_shell)

    p = sub.add_parser("asymptote", help="invariants, polynomial, large-R fit check")
    p.add_argument("--shape", choices=("ball", "shell"), default="ball")
    p.add_argument("--n", type=int, default=3)
    shape_options(p)
    common(p)
    p.set_defaults(func=_cmd_asymptote)

    p = sub.add_parser("poles", help="pole/zero census CSV")
    p.add_argument("--model", choices=("ball", "shell"), default="ball")
    p.add_argument("--n", type=int, help="ball dimension (default 5)")
    p.add_argument("--rect", help="x0:x1:y0:y1 search rectangle")
    p.add_argument("--ymax", type=float, help="shell survey Im bound (default 40)")
    common(p)
    p.set_defaults(func=_cmd_poles)

    p = sub.add_parser("compare", help="conjecture vs asymptotics vs exact")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--r-grid", default="1:20:20")
    p.add_argument("--inner", type=float, default=1.0)
    p.add_argument("--outer", type=float, default=2.0)
    common(p)
    p.set_defaults(func=_cmd_compare)

    return parser


def _glue_negative_values(argv):
    # values like "-10:1:-5:5" after --rect look like options to argparse;
    # fold them into --flag=value form
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in ("--rect", "--r-grid") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_glue_negative_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MaglabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
