"""Exact stability and bifurcation analysis for the planar competitive
Lotka-Volterra system.

The short version: two competing species, six positive parameters, and
three determinants whose signs decide the whole phase portrait.  This
package computes the equilibria and their eigenvalues in exact rational
(or quadratic-surd) arithmetic, classifies stability in the quadrant and
in the full plane — including the non-hyperbolic and fully degenerate
cases — and scans straight paths through parameter space for the
transcritical exchanges between the interior and axis equilibria.  A
numerical layer (adaptive RK integration, Lyapunov-function sampling,
ring probes around each equilibrium) independently corroborates every
exact verdict.
"""

from .exact import (
    ExactNumber,
    QuadraticSurd,
    Sign,
    exact_real_part_sign,
    exact_to_complex,
    exact_to_json,
    rational_sqrt,
    sign_of,
)
from .model import (
    ContradictionFamily,
    DeterminantTriple,
    NotRealizable,
    ParameterError,
    SignCase,
    SystemParams,
    all_sign_cases,
    as_fraction,
    compute_determinants,
    feasible_sign_triples,
    rhs_exact,
    sample_params,
    sign_case,
    sign_census,
)
from .equilibria import (
    Direction,
    EigenPair,
    Equilibrium,
    EquilibriumKind,
    EquilibriumLine,
    NullclineBranch,
    NullclineCurve,
    NullclineSet,
    find_equilibria,
    jacobian_at,
    nullclines,
)
from .classifier import (
    QUADRANT_REPRESENTATIVE,
    Basis,
    ClassificationReport,
    ConsistencyVerdict,
    InfeasibleSignCase,
    Scope,
    StabilityClass,
    Verdict,
    classify,
    cross_check_theorems,
    is_asymptotically_stable,
    is_unstable,
    thm_axis1_asymptotically_stable,
    thm_axis1_unstable,
    thm_axis2_asymptotically_stable,
    thm_axis2_unstable,
    thm_interior_class,
    thm_no_open_quadrant_equilibrium,
)
from .gallery import PORTRAIT_GALLERY, GalleryEntry, gallery_entry, gallery_labels
from .dynamics import (
    EmpiricalVerdict,
    EmpiricalVerdictKind,
    IntegratorOptions,
    LyapunovCheck,
    LyapunovTarget,
    NotApplicable,
    ProbeOutcome,
    ProbeProtocol,
    ProbeResult,
    ProbeScope,
    TerminalStatus,
    Trajectory,
    empirical_matches,
    empirical_stability,
    integrate,
    lyapunov_verify,
    vector_field,
)
from .bifurcation import (
    BifurcationEvent,
    CatalogEntry,
    EventKind,
    ParameterPath,
    PathScan,
    SwapSummary,
    WhichDeterminant,
    four_case_catalog,
    scan_path,
)
from .portrait import PortraitSpec, render_portrait

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # exact arithmetic
    "ExactNumber", "QuadraticSurd", "Sign", "exact_real_part_sign",
    "exact_to_complex", "exact_to_json", "rational_sqrt", "sign_of",
    # model
    "ContradictionFamily", "DeterminantTriple", "NotRealizable", "ParameterError",
    "SignCase", "SystemParams", "all_sign_cases", "as_fraction",
    "compute_determinants", "feasible_sign_triples", "rhs_exact", "sample_params",
    "sign_case", "sign_census",
    # equilibria and nullclines
    "Direction", "EigenPair", "Equilibrium", "EquilibriumKind", "EquilibriumLine",
    "NullclineBranch", "NullclineCurve", "NullclineSet", "find_equilibria",
    "jacobian_at", "nullclines",
    # classification
    "QUADRANT_REPRESENTATIVE", "Basis", "ClassificationReport", "ConsistencyVerdict",
    "InfeasibleSignCase", "Scope", "StabilityClass", "Verdict", "classify",
    "cross_check_theorems",
    "is_asymptotically_stable", "is_unstable",
    "thm_axis1_asymptotically_stable", "thm_axis1_unstable",
    "thm_axis2_asymptotically_stable", "thm_axis2_unstable",
    "thm_interior_class", "thm_no_open_quadrant_equilibrium",
    # gallery
    "PORTRAIT_GALLERY", "GalleryEntry", "gallery_entry", "gallery_labels",
    # dynamics
    "EmpiricalVerdict", "EmpiricalVerdictKind", "IntegratorOptions", "LyapunovCheck",
    "LyapunovTarget", "NotApplicable", "ProbeOutcome", "ProbeProtocol", "ProbeResult",
    "ProbeScope", "TerminalStatus", "Trajectory", "empirical_matches",
    "empirical_stability", "integrate", "lyapunov_verify", "vector_field",
    # bifurcation
    "BifurcationEvent", "CatalogEntry", "EventKind", "ParameterPath", "PathScan",
    "SwapSummary", "WhichDeterminant", "four_case_catalog", "scan_path",
    # portraits
    "PortraitSpec", "render_portrait",
]
