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
from operator import attrgetter
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

from .exact import Sign, sign_of
from .model import (
    DeterminantTriple,
    SignCase,
    SystemParams,
    _triple_key,
    compute_determinants,
    feasible_sign_triples,
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

_COARSE_LABEL = {**dict.fromkeys(_UNSTABLE_VERDICTS, "U"), **dict.fromkeys(_AS_VERDICTS, "AS"),
                 Verdict.SEMI_STABLE: "SS", Verdict.NON_ISOLATED: "NI"}


def is_asymptotically_stable(sc: Union[StabilityClass, Verdict, None]) -> bool:
    return getattr(sc, "verdict", sc) in _AS_VERDICTS


def is_unstable(sc: Union[StabilityClass, Verdict, None]) -> bool:
    return getattr(sc, "verdict", sc) in _UNSTABLE_VERDICTS


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

ScopedVerdicts = Mapping[Scope, StabilityClass]


class _Row(NamedTuple):
    """Everything that depends on a feasible sign triple alone, built once
    at import and shared by every report of that triple: the paper's table
    row.  The verdicts are read-only at both levels.  A named tuple is as
    immutable as a frozen dataclass and a quarter of its import time."""

    case: SignCase
    portrait_class_full: int
    portrait_class_quadrant: int
    #: kind -> scope -> class; INTERIOR appears only when it lies strictly
    #: inside the quadrant, LINE_MEMBER only in the degenerate case.
    verdicts: Mapping[EquilibriumKind, ScopedVerdicts]
    pattern_full: Tuple[str, ...]
    pattern_quadrant: Tuple[str, ...]
    #: The JSON "verdicts" object; ``to_json_dict`` copies it.
    verdicts_json: Dict[str, Dict[str, dict]]

    def __reduce__(self):
        # A copy or an unpickled report points at this import's shared row.
        return _row_of, (self.case.triple,)


@dataclass(frozen=True)
class ClassificationReport:
    """One system's parameters and equilibria, and the row of its sign
    triple, which holds everything else the report says."""

    params: SystemParams
    equilibria: List[Union[Equilibrium, EquilibriumLine]]
    _row: _Row

    # Reads of the shared row.
    sign_case = property(attrgetter("_row.case"))
    verdicts = property(attrgetter("_row.verdicts"))
    portrait_class_full = property(attrgetter("_row.portrait_class_full"))
    portrait_class_quadrant = property(attrgetter("_row.portrait_class_quadrant"))

    @property
    def determinants(self) -> DeterminantTriple:
        return compute_determinants(self.params)

    @property
    def line(self) -> Optional[EquilibriumLine]:
        return next((e for e in self.equilibria if isinstance(e, EquilibriumLine)), None)

    @property
    def gallery_reference(self) -> str:
        return f"case{self.portrait_class_full}"

    def verdict_at(self, kind: EquilibriumKind,
                   scope: Scope = Scope.FIRST_QUADRANT_CLOSED) -> Optional[StabilityClass]:
        scoped = self._row.verdicts.get(kind)
        return None if scoped is None else scoped.get(scope)

    def pattern(self, scope: Scope = Scope.FULL_NEIGHBORHOOD) -> Tuple[str, str, str, str, str]:
        """Coarse U/AS/SS/NI labels in the order (origin, axis1, axis2,
        interior, line), with "/" for equilibria absent from the portrait."""
        return _pattern(self._row.verdicts, scope)

    def to_json_dict(self) -> dict:
        """The row's parts are built once per row and copied into new
        containers on every call."""
        row = self._row
        return {
            "params": self.params.to_json_dict(),
            "determinants": self.determinants.to_json_dict(),
            "sign_case": row.case.to_json_dict(),
            "portrait_class_full": row.portrait_class_full,
            "portrait_class_quadrant": row.portrait_class_quadrant,
            "gallery_reference": self.gallery_reference,
            "pattern_full": list(row.pattern_full),
            "pattern_quadrant": list(row.pattern_quadrant),
            "verdicts": {kind: {scope: dict(sc) for scope, sc in scoped.items()}
                         for kind, scoped in row.verdicts_json.items()},
            "equilibria": [entry.to_json_dict() for entry in self.equilibria],
        }


def _pattern(verdicts: Mapping[EquilibriumKind, ScopedVerdicts],
             scope: Scope) -> Tuple[str, str, str, str, str]:
    return tuple("/" if sc is None else sc.verdict.coarse_label  # type: ignore[return-value]
                 for sc in (verdicts.get(kind, {}).get(scope) for kind in EquilibriumKind))


def linearization_verdict(s1: Sign, s2: Sign) -> Optional[Verdict]:
    """Node or saddle from the exact signs of the two eigenvalue real parts;
    None when one is zero and linearization decides nothing."""
    if Sign.ZERO in (s1, s2):
        return None
    if s1 is Sign.NEG and s2 is Sign.NEG:
        return Verdict.STABLE_NODE
    if s1 is Sign.POS and s2 is Sign.POS:
        return Verdict.UNSTABLE_NODE
    return Verdict.SADDLE


#: The two scopes of each report entry, in their JSON order.
_REPORT_SCOPES = (Scope.FULL_NEIGHBORHOOD, Scope.FIRST_QUADRANT_CLOSED)


def _scoped_verdicts(s1: Sign, s2: Sign, s12: Sign) -> ScopedVerdicts:
    """The report entry of an equilibrium whose eigenvalue real parts have
    the signs s1 and s2, in a system where d12 has the sign s12."""
    verdict = linearization_verdict(s1, s2)
    if verdict is not None:
        return {scope: StabilityClass(verdict, scope, Basis.LINEARIZATION)
                for scope in _REPORT_SCOPES}
    # One eigenvalue is exactly zero.  The flow on the center direction is
    # quadratic with coefficient proportional to -d12, so the sign of d12
    # decides between one-side attraction (semi-stable on the plane, but
    # asymptotically stable as seen from the quadrant) and outright escape.
    # With d12 = 0 a zero eigenvalue needs d112 = d122 = 0: a line of equilibria.
    if s12 > 0:
        full = StabilityClass(Verdict.SEMI_STABLE, Scope.FULL_NEIGHBORHOOD,
                              Basis.NULLCLINE_ARGUMENT)
        quadrant = StabilityClass(Verdict.ASYMPTOTICALLY_STABLE, Scope.FIRST_QUADRANT_CLOSED,
                                  Basis.LYAPUNOV_FUNCTION)
        return {full.scope: full, quadrant.scope: quadrant}
    verdict, basis = ((Verdict.UNSTABLE, Basis.NULLCLINE_ARGUMENT) if s12 < 0 else
                      (Verdict.NON_ISOLATED, Basis.LINE_OF_EQUILIBRIA))
    return {scope: StabilityClass(verdict, scope, basis) for scope in _REPORT_SCOPES}


def _build_row(signs: Tuple[Sign, Sign, Sign]) -> _Row:
    """The row of a feasible sign triple.  The eigenvalue real parts have
    signs (+, +) at the origin, (-, s112) at axis 1, (-s122, -) at axis 2
    and (0, -) along a line of equilibria.  The interior equilibrium is in
    the open quadrant iff s112 = s12 = -s122 != 0; there det J = x1*x2*d12
    and the trace is negative, so its signs are (-, -s12)."""
    s12, s112, s122 = signs
    real_parts = {
        EquilibriumKind.ORIGIN: (Sign.POS, Sign.POS),
        EquilibriumKind.AXIS1: (Sign.NEG, s112),
        EquilibriumKind.AXIS2: (Sign(-s122), Sign.NEG),
    }
    if s12 and s112 == s12 and s122 == -s12:
        real_parts[EquilibriumKind.INTERIOR] = (Sign.NEG, Sign(-s12))
    if not (s12 or s112 or s122):
        real_parts[EquilibriumKind.LINE_MEMBER] = (Sign.ZERO, Sign.NEG)
    verdicts = {kind: _scoped_verdicts(s1, s2, s12) for kind, (s1, s2) in real_parts.items()}
    case = sign_case(signs)
    serial = case.table6_serial
    assert serial is not None
    return _Row(
        case=case,
        portrait_class_full=serial,
        portrait_class_quadrant=QUADRANT_REPRESENTATIVE[serial],
        verdicts=MappingProxyType({kind: MappingProxyType(scoped)
                                   for kind, scoped in verdicts.items()}),
        pattern_full=_pattern(verdicts, Scope.FULL_NEIGHBORHOOD),
        pattern_quadrant=_pattern(verdicts, Scope.FIRST_QUADRANT_CLOSED),
        verdicts_json={kind.value: {scope.name.lower(): sc.to_json_dict()
                                    for scope, sc in scoped.items()}
                       for kind, scoped in verdicts.items()},
    )


#: One row per feasible sign triple, keyed by ``model._triple_key``.
_ROWS: Dict[int, _Row] = {_triple_key(t): _build_row(t) for t in feasible_sign_triples()}


def _row_of(signs: Tuple[Sign, Sign, Sign]) -> Optional[_Row]:
    return _ROWS.get(_triple_key(signs))


def classify(params: SystemParams) -> ClassificationReport:
    """Full stability report for one parameter set.

    The verdicts depend on the determinants' sign triple alone, as in the
    paper's tables: the report points at its triple's shared, read-only row
    and reads no eigenvalue.  The report's equilibria are the system's own.
    """
    dets = compute_determinants(params)
    row = _row_of(dets.signs)
    if row is None:
        raise InfeasibleSignCase(
            f"sign triple ({sign_case(dets).glyphs}) is provably unrealizable; "
            "exact arithmetic and the feasibility table disagree"
        )
    return ClassificationReport(params=params, equilibria=find_equilibria(params), _row=row)


# --------------------------------------------------------------------------
# Quadrant-stability criteria expressed directly on the determinant signs.
# Each predicate is a finite disjunction over three named sign clauses and
# their species-swap images; together they tile the thirteen realizable
# triples.  None of them looks at an eigenvalue, and the clauses read only the
# sign triple (an int -1, 0 or +1 each).

_SignTriple = Tuple[int, int, int]


def _species_swap(signs: _SignTriple) -> _SignTriple:
    """Swapping the species maps (d12, d112, d122) to (d12, -d122, -d112),
    so their signs to (s12, -s122, -s112), and trades the axis-1 and axis-2
    equilibria."""
    s12, s112, s122 = signs
    return (s12, -s122, -s112)


def _axis1_dominance(signs: _SignTriple) -> bool:
    """Axis-1 equilibrium attracts the closed quadrant and nothing lies in
    the open quadrant (the two zero-minor clauses are the non-hyperbolic
    boundary cases)."""
    s12, s112, s122 = signs
    return (
        (s112 < 0 and s122 < 0)
        or (s12 < 0 and s112 < 0 and s122 == 0)
        or (s12 > 0 and s112 == 0 and s122 < 0)
    )


def _coexistence(signs: _SignTriple) -> bool:
    """(+,+,-): a stable interior equilibrium; both axes are unstable."""
    return signs == (1, 1, -1)


def _bistability(signs: _SignTriple) -> bool:
    """(-,-,+): an interior saddle separates two attracting axes."""
    return signs == (-1, -1, 1)


def _axis1_attracting(signs: _SignTriple) -> bool:
    return _axis1_dominance(signs) or _bistability(signs)


def _axis1_repelling(signs: _SignTriple) -> bool:
    return _axis1_dominance(_species_swap(signs)) or _coexistence(signs)


def thm_axis1_asymptotically_stable(triple: DeterminantTriple) -> bool:
    """Axis-1 equilibrium attracts the closed quadrant iff species 1
    dominates or the picture is bistable."""
    return _axis1_attracting(triple.signs)


def thm_axis1_unstable(triple: DeterminantTriple) -> bool:
    """Axis-1 equilibrium is unstable iff species 2 dominates or the two
    coexist."""
    return _axis1_repelling(triple.signs)


def thm_axis2_asymptotically_stable(triple: DeterminantTriple) -> bool:
    return _axis1_attracting(_species_swap(triple.signs))


def thm_axis2_unstable(triple: DeterminantTriple) -> bool:
    return _axis1_repelling(_species_swap(triple.signs))


def thm_no_open_quadrant_equilibrium(triple: DeterminantTriple) -> bool:
    """No equilibrium lies in the open quadrant iff one of the species
    dominates outright."""
    signs = triple.signs
    return _axis1_dominance(signs) or _axis1_dominance(_species_swap(signs))


_SINK = StabilityClass(Verdict.ASYMPTOTICALLY_STABLE, Scope.INTERIOR_ONLY, Basis.LINEARIZATION)
_SADDLE = StabilityClass(Verdict.SADDLE, Scope.FULL_NEIGHBORHOOD, Basis.LINEARIZATION)


def thm_interior_class(triple: DeterminantTriple) -> Optional[StabilityClass]:
    """Interior-equilibrium verdict: a sink for (+,+,-), a saddle for
    (-,-,+), absent otherwise."""
    if _coexistence(triple.signs):
        return _SINK
    if _bistability(triple.signs):
        return _SADDLE
    return None


@dataclass(frozen=True)
class ConsistencyVerdict:
    #: The report the predicates were checked against.
    report: ClassificationReport
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

    has_open_quadrant_equilibrium = report.line is not None or any(
        isinstance(e, Equilibrium) and e.kind is EquilibriumKind.INTERIOR
        and sign_of(e.x1) > 0 and sign_of(e.x2) > 0 for e in report.equilibria)
    check("no open-quadrant equilibrium", thm_no_open_quadrant_equilibrium(triple),
          not has_open_quadrant_equilibrium)

    predicted_e12 = thm_interior_class(triple)
    actual_e12 = report.verdict_at(EquilibriumKind.INTERIOR)
    if predicted_e12 is None:
        if actual_e12 is not None:
            problems.append("interior verdict present but no interior class predicted")
    elif actual_e12 is None:
        problems.append("interior class predicted but report has no interior verdict")
    else:
        check("interior attracting", is_asymptotically_stable(predicted_e12),
              is_asymptotically_stable(actual_e12))
        check("interior unstable", is_unstable(predicted_e12), is_unstable(actual_e12))

    return ConsistencyVerdict(report=report, disagreements=problems)
