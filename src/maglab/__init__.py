"""maglab: the magnitude function M_X(R) of metric spaces, exactly and numerically.

Submodules:

- ``metric``: magnitude and weightings of finite metric spaces;
- ``expopoly``: the exponential-polynomial kernel algebra behind the
  radial boundary-value solver;
- ``radial``: exact magnitudes of odd-dimensional balls and 3d spherical
  shells, plus high-precision rational reconstruction of M_{B_n};
- ``cloud``: lattice lower approximations of compact domains with
  Richardson extrapolation;
- ``invariants``: geometric invariants (volume, area, total mean
  curvature) from closed forms or triangle meshes, and the asymptotic /
  conjectured magnitude polynomials built from them;
- ``roots``: the certified pole/zero census of the ball magnitude
  functions and the pole survey of the spherical shell;
- ``cli``: the ``maglab`` command-line tool.
"""

__version__ = "1.0.0"

from .cloud import DomainShape, RefinementReport, extrapolate, refinement_sequence, sample_domain
from .errors import (
    ArgumentError,
    DiagnosticError,
    MaglabError,
    MeshError,
    PrecisionError,
    ReconstructionError,
    ResonanceError,
    ResourceError,
    SolveError,
)
from .expopoly import ExpoPoly, RadialOperatorSpec, decaying_basis, regular_basis_3d
from .invariants import (
    AsymptoticPolynomial,
    GeometricInvariants,
    SurfaceMesh,
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
from .metric import (
    FiniteMetricSpace,
    Weighting,
    is_positive_definite,
    load_point_file,
    magnitude,
    magnitude_sweep,
    similarity_matrix,
    weighting,
)
from .radial import (
    RationalFunction,
    ball_magnitude,
    exterior_trace_determinant,
    paper_shell_closed_form,
    rational_reconstruct,
    shell_deviation_report,
    shell_magnitude,
    solve_exterior,
    solve_interior,
)
from .roots import (
    Root,
    RootSet,
    SearchRegion,
    ShellPoleSurvey,
    ball_pole_zero_census,
    shell_pole_survey,
    write_roots_csv,
)
