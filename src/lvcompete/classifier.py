"""Stability classification for every equilibrium and the whole portrait.

The sign triple of the determinants fixes the portrait completely.  Nine
qualitatively different portraits exist on the plane; on the closed first
quadrant several of them merge (a semi-stable axis equilibrium cannot be
distinguished from an asymptotically stable one by trajectories that stay in
the quadrant), leaving five.  A classification therefore always carries two
scopes, and each verdict records the argument that establishes it, because
the degenerate cases are decided by nullcline geometry and a Lyapunov
function rather than by linearization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .exact import Sign
from .model import (
    DeterminantTriple,
    SignCase,
    SystemParams,
    compute_determinants,
    sign_case,
)
from .equilibria import (
    Equilibrium,
    EquilibriumKind,
    EquilibriumLine,
    find_equilibria,
)

__all__ = [
    "Verdict",
    "Scope",
    "Basis",
    "StabilityClass",
    "ClassificationReport",
    "InfeasibleSignCase",
    "ConsistencyVerdict",
    "classify",
    "is_asymptotically_stable",
    "is_unstable",
    "thm_axis1_asymptotically_stable",
    "thm_axis2_asymptotically_stable",
    "thm_axis1_unstable",
    "thm_axis2_unstable",
    "thm_no_open_quadrant_equilibrium",
    "thm_interior_class",
    "cross_check_theorems",
    "QUADRANT_REPRESENTATIVE",
]


class Verdict(Enum):
    UNSTABLE_NODE = "unstable node"
    SADDLE = "saddle"
    STABLE_NODE = "stable node"
    UNSTABLE = "unstable"
    ASYMPTOTICALLY_STABLE = "asymptotically stable"
    SEMI_STABLE = "semi-stable"
    NON_ISOLATED = "non-isolated"

    @property
    def coarse_label(self) -> str:
        """The U/AS/SS/NI label this verdict carries in the stability table."""
        return _COARSE_LABEL[self]


class Scope(Enum):
    FULL_NEIGHBORHOOD = "full neighborhood"
    FIRST_QUADRANT_CLOSED = "closed first quadrant"
    INTERIOR_ONLY = "open first quadrant"


class Basis(Enum):
    LINEARIZATION = "linearization"
    NULLCLINE_ARGUMENT = "nullcline argument"
    LYAPUNOV_FUNCTION = "Lyapunov function"
    LINE_OF_EQUILIBRIA = "line of equilibria"


@dataclass(frozen=True)
class StabilityClass:
    verdict: Verdict
    scope: Scope
    basis: Basis

    def __post_init__(self) -> None:
        if self.verdict is Verdict.SEMI_STABLE and self.scope is not Scope.FULL_NEIGHBORHOOD:
            raise ValueError("a semi-stable verdict is a full-neighborhood statement")

    def to_json_dict(self) -> dict:
        return {"verdict": self.verdict.value, "scope": self.scope.value,
                "basis": self.basis.value}


#: Verdicts that certify convergence of nearby trajectories.
_AS_VERDICTS = frozenset({Verdict.STABLE_NODE, Verdict.ASYMPTOTICALLY_STABLE})
#: Verdicts with a genuinely repelling direction.
_UNSTABLE_VERDICTS = frozenset({Verdict.UNSTABLE_NODE, Verdict.SADDLE, Verdict.UNSTABLE})

_COARSE_LABEL = {
    Verdict.UNSTABLE_NODE: "U",
    Verdict.SADDLE: "U",
    Verdict.UNSTABLE: "U",
    Verdict.STABLE_NODE: "AS",
    Verdict.ASYMPTOTICALLY_STABLE: "AS",
    Verdict.SEMI_STABLE: "SS",
    Verdict.NON_ISOLATED: "NI",
}


def is_asymptotically_stable(sc: Union[StabilityClass, Verdict, None]) -> bool:
    if sc is None:
        return False
    verdict = sc if isinstance(sc, Verdict) else sc.verdict
    return verdict in _AS_VERDICTS


def is_unstable(sc: Union[StabilityClass, Verdict, None]) -> bool:
    if sc is None:
        return False
    verdict = sc if isinstance(sc, Verdict) else sc.verdict
    return verdict in _UNSTABLE_VERDICTS


class InfeasibleSignCase(RuntimeError):
    """Internal consistency failure: exact signs matched an impossible triple.

    Unreachable from validated positive parameters; if it ever fires, the
    sign tables and the rational arithmetic disagree and the result must not
    be trusted.
    """


#: Serial merges on the closed first quadrant: portraits 2, 3 and 6 share
#: quadrant dynamics, as do 4, 5 and 7.
QUADRANT_REPRESENTATIVE: Dict[int, int] = {
    1: 1, 2: 2, 3: 2, 4: 4, 5: 4, 6: 2, 7: 4, 8: 8, 9: 9,
}

ScopedVerdicts = Dict[Scope, StabilityClass]


@dataclass(frozen=True)
class ClassificationReport:
    params: SystemParams
    determinants: DeterminantTriple
    sign_case: SignCase
    #: kind -> scope -> class; INTERIOR appears only when it lies strictly
    #: inside the quadrant, LINE_MEMBER only in the degenerate case.
    verdicts: Dict[EquilibriumKind, ScopedVerdicts]
    equilibria: List[Union[Equilibrium, EquilibriumLine]]
    portrait_class_full: int
    portrait_class_quadrant: int

    @property
    def line(self) -> Optional[EquilibriumLine]:
        for entry in self.equilibria:
            if isinstance(entry, EquilibriumLine):
                return entry
        return None

    @property
    def gallery_reference(self) -> str:
        return f"case{self.portrait_class_full}"

    def verdict_at(self, kind: EquilibriumKind,
                   scope: Scope = Scope.FIRST_QUADRANT_CLOSED) -> Optional[StabilityClass]:
        scoped = self.verdicts.get(kind)
        return None if scoped is None else scoped.get(scope)

    def pattern(self, scope: Scope = Scope.FULL_NEIGHBORHOOD) -> Tuple[str, str, str, str, str]:
        """Coarse U/AS/SS/NI labels in the order (origin, axis1, axis2,
        interior, line), with "/" for equilibria absent from the portrait."""
        labels = []
        for kind in EquilibriumKind:
            sc = self.verdict_at(kind, scope)
            labels.append("/" if sc is None else sc.verdict.coarse_label)
        return tuple(labels)  # type: ignore[return-value]

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json_dict(),
            "determinants": self.determinants.to_json_dict(),
            "sign_case": self.sign_case.to_json_dict(),
            "portrait_class_full": self.portrait_class_full,
            "portrait_class_quadrant": self.portrait_class_quadrant,
            "gallery_reference": self.gallery_reference,
            "pattern_full": list(self.pattern(Scope.FULL_NEIGHBORHOOD)),
            "pattern_quadrant": list(self.pattern(Scope.FIRST_QUADRANT_CLOSED)),
            "verdicts": {
                kind.value: {
                    scope.name.lower(): sc.to_json_dict() for scope, sc in scoped.items()
                }
                for kind, scoped in self.verdicts.items()
            },
            "equilibria": [entry.to_json_dict() for entry in self.equilibria],
        }


def _both_scopes(sc_full: StabilityClass, sc_quadrant: StabilityClass) -> ScopedVerdicts:
    return {Scope.FULL_NEIGHBORHOOD: sc_full, Scope.FIRST_QUADRANT_CLOSED: sc_quadrant}


def _same_both_scopes(verdict: Verdict, basis: Basis) -> ScopedVerdicts:
    return _both_scopes(
        StabilityClass(verdict, Scope.FULL_NEIGHBORHOOD, basis),
        StabilityClass(verdict, Scope.FIRST_QUADRANT_CLOSED, basis),
    )


def linearization_verdict(eq: Equilibrium) -> Optional[Verdict]:
    """Node or saddle from the exact eigenvalue real-part signs; None when
    an eigenvalue has zero real part and linearization decides nothing."""
    s1, s2 = eq.eigenvalues.realpart_signs
    if Sign.ZERO in (s1, s2):
        return None
    if s1 is Sign.NEG and s2 is Sign.NEG:
        return Verdict.STABLE_NODE
    if s1 is Sign.POS and s2 is Sign.POS:
        return Verdict.UNSTABLE_NODE
    return Verdict.SADDLE


def _nonhyperbolic_axis_verdicts(d12: Fraction) -> ScopedVerdicts:
    # One eigenvalue is exactly zero.  The flow on the center direction is
    # quadratic with coefficient proportional to -d12, so the sign of d12
    # decides between one-side attraction (semi-stable on the plane, but
    # asymptotically stable as seen from the quadrant) and outright escape.
    if d12 > 0:
        return _both_scopes(
            StabilityClass(Verdict.SEMI_STABLE, Scope.FULL_NEIGHBORHOOD,
                           Basis.NULLCLINE_ARGUMENT),
            StabilityClass(Verdict.ASYMPTOTICALLY_STABLE, Scope.FIRST_QUADRANT_CLOSED,
                           Basis.LYAPUNOV_FUNCTION),
        )
    return _same_both_scopes(Verdict.UNSTABLE, Basis.NULLCLINE_ARGUMENT)


def classify(params: SystemParams) -> ClassificationReport:
    """Full stability report for one parameter set.

    Hyperbolic equilibria are classified from the exact signs of their
    eigenvalue real parts; the non-hyperbolic axis cases fall back on the
    sign of ``d12``, and the fully degenerate case marks the whole segment
    as non-isolated.
    """
    dets = compute_determinants(params)
    case = sign_case(dets)
    if not case.feasible:
        raise InfeasibleSignCase(
            f"sign triple ({case.glyphs}) is provably unrealizable; "
            "exact arithmetic and the feasibility table disagree"
        )
    equilibria = find_equilibria(params)

    verdicts: Dict[EquilibriumKind, ScopedVerdicts] = {
        EquilibriumKind.ORIGIN: _same_both_scopes(Verdict.UNSTABLE_NODE, Basis.LINEARIZATION)
    }

    line = next((e for e in equilibria if isinstance(e, EquilibriumLine)), None)
    if line is not None:
        ni = _same_both_scopes(Verdict.NON_ISOLATED, Basis.LINE_OF_EQUILIBRIA)
        verdicts[EquilibriumKind.AXIS1] = ni
        verdicts[EquilibriumKind.AXIS2] = ni
        verdicts[EquilibriumKind.LINE_MEMBER] = ni
    else:
        for eq in equilibria:
            assert isinstance(eq, Equilibrium)
            if eq.kind is EquilibriumKind.ORIGIN:
                continue
            verdict = linearization_verdict(eq)
            if verdict is not None:
                verdicts[eq.kind] = _same_both_scopes(verdict, Basis.LINEARIZATION)
            else:
                verdicts[eq.kind] = _nonhyperbolic_axis_verdicts(dets.d12)

    serial = case.table6_serial
    assert serial is not None
    return ClassificationReport(
        params=params,
        determinants=dets,
        sign_case=case,
        verdicts=verdicts,
        equilibria=equilibria,
        portrait_class_full=serial,
        portrait_class_quadrant=QUADRANT_REPRESENTATIVE[serial],
    )


# --------------------------------------------------------------------------
# Quadrant-stability criteria expressed directly on the determinant signs.
# Each predicate is a finite disjunction over three named sign clauses and
# their species-swap images; together they tile the thirteen realizable
# triples.  None of them looks at an eigenvalue.

def _species_swap(triple: DeterminantTriple) -> DeterminantTriple:
    """Swapping the species maps (d12, d112, d122) to (d12, -d122, -d112)
    and trades the axis-1 and axis-2 equilibria."""
    return DeterminantTriple(d12=triple.d12, d112=-triple.d122, d122=-triple.d112)


def _axis1_dominance(triple: DeterminantTriple) -> bool:
    """Axis-1 equilibrium attracts the closed quadrant and nothing lies in
    the open quadrant (the two zero-minor clauses are the non-hyperbolic
    boundary cases)."""
    d12, d112, d122 = triple.d12, triple.d112, triple.d122
    return (
        (d112 < 0 and d122 < 0)
        or (d12 < 0 and d112 < 0 and d122 == 0)
        or (d12 > 0 and d112 == 0 and d122 < 0)
    )


def _coexistence(triple: DeterminantTriple) -> bool:
    """(+,+,-): a stable interior equilibrium; both axes are unstable."""
    return triple.d12 > 0 and triple.d112 > 0 and triple.d122 < 0


def _bistability(triple: DeterminantTriple) -> bool:
    """(-,-,+): an interior saddle separates two attracting axes."""
    return triple.d12 < 0 and triple.d112 < 0 and triple.d122 > 0


def thm_axis1_asymptotically_stable(triple: DeterminantTriple) -> bool:
    """Axis-1 equilibrium attracts the closed quadrant iff species 1
    dominates or the picture is bistable."""
    return _axis1_dominance(triple) or _bistability(triple)


def thm_axis1_unstable(triple: DeterminantTriple) -> bool:
    """Axis-1 equilibrium is unstable iff species 2 dominates or the two
    coexist."""
    return _axis1_dominance(_species_swap(triple)) or _coexistence(triple)


def thm_axis2_asymptotically_stable(triple: DeterminantTriple) -> bool:
    return thm_axis1_asymptotically_stable(_species_swap(triple))


def thm_axis2_unstable(triple: DeterminantTriple) -> bool:
    return thm_axis1_unstable(_species_swap(triple))


def thm_no_open_quadrant_equilibrium(triple: DeterminantTriple) -> bool:
    """No equilibrium lies in the open quadrant iff one of the species
    dominates outright."""
    return _axis1_dominance(triple) or _axis1_dominance(_species_swap(triple))


def thm_interior_class(triple: DeterminantTriple) -> Optional[StabilityClass]:
    """Interior-equilibrium verdict: a sink for (+,+,-), a saddle for
    (-,-,+), absent otherwise."""
    if _coexistence(triple):
        return StabilityClass(Verdict.ASYMPTOTICALLY_STABLE, Scope.INTERIOR_ONLY,
                              Basis.LINEARIZATION)
    if _bistability(triple):
        return StabilityClass(Verdict.SADDLE, Scope.FULL_NEIGHBORHOOD, Basis.LINEARIZATION)
    return None


@dataclass(frozen=True)
class ConsistencyVerdict:
    params: SystemParams
    disagreements: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements


def cross_check_theorems(params: SystemParams) -> ConsistencyVerdict:
    """Check the sign-condition predicates against the table-driven report.

    The two routes are independent: the predicates never look at
    eigenvalues, the report never looks at the predicate disjunctions.
    Any mismatch is collected rather than raised.
    """
    report = classify(params)
    triple = report.determinants
    problems: List[str] = []

    def check(label: str, predicted: bool, actual: bool) -> None:
        if predicted != actual:
            problems.append(f"{label}: predicate says {predicted}, report says {actual}")

    e1 = report.verdict_at(EquilibriumKind.AXIS1)
    e2 = report.verdict_at(EquilibriumKind.AXIS2)
    check("axis1 attracting", thm_axis1_asymptotically_stable(triple), is_asymptotically_stable(e1))
    check("axis1 unstable", thm_axis1_unstable(triple), is_unstable(e1))
    check("axis2 attracting", thm_axis2_asymptotically_stable(triple), is_asymptotically_stable(e2))
    check("axis2 unstable", thm_axis2_unstable(triple), is_unstable(e2))

    interior = [
        e for e in report.equilibria
        if isinstance(e, Equilibrium) and e.kind is EquilibriumKind.INTERIOR
    ]
    strictly_interior = [e for e in interior if e.x1 > 0 and e.x2 > 0]
    line = report.line
    has_open_quadrant_equilibrium = bool(strictly_interior) or line is not None
    check("no open-quadrant equilibrium", thm_no_open_quadrant_equilibrium(triple),
          not has_open_quadrant_equilibrium)

    predicted_e12 = thm_interior_class(triple)
    actual_e12 = report.verdict_at(EquilibriumKind.INTERIOR)
    if predicted_e12 is None:
        if actual_e12 is not None:
            problems.append("interior verdict present but no interior class predicted")
    else:
        if actual_e12 is None:
            problems.append("interior class predicted but report has no interior verdict")
        else:
            check("interior attracting", is_asymptotically_stable(predicted_e12),
                  is_asymptotically_stable(actual_e12))
            check("interior unstable", is_unstable(predicted_e12), is_unstable(actual_e12))

    return ConsistencyVerdict(params=params, disagreements=problems)
