"""Bifurcation scanning along straight-line paths in parameter space.

Move the six parameters affinely from one positive configuration to
another and every one of the three classifying determinants becomes an
exact quadratic polynomial in the path coordinate s.  Everything here is
rational arithmetic: roots are either exact fractions or irrational roots
confined to sign-change brackets narrower than 2**-64, so no event can be
missed or invented by floating-point noise.

A root of a minor determinant (with d12 != 0 there) is a transcritical
exchange: the interior equilibrium passes through an axis equilibrium and
the two trade their full-plane stability classes.  A root of d12 alone
sends the interior point to infinity and merely renumbers the sign case.
All three vanishing together produces the degenerate line of equilibria.
A double root that touches zero without crossing changes nothing on
either side.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Tuple

from .exact import Sign, rational_sqrt, sign_of
from .model import SignCase, SystemParams, compute_determinants, sign_case
from .equilibria import Equilibrium, EquilibriumKind, find_equilibria
from .classifier import linearization_verdict

__all__ = [
    "ParameterPath",
    "QuadraticPoly",
    "PathRoot",
    "WhichDeterminant",
    "EventKind",
    "SwapSummary",
    "BifurcationEvent",
    "PathScan",
    "scan_path",
    "CatalogEntry",
    "four_case_catalog",
]

#: Brackets for irrational roots are refined below this width.
DEFAULT_BRACKET_WIDTH = Fraction(1, 2 ** 64)


class WhichDeterminant(Enum):
    D12 = "d12"
    D112 = "d112"
    D122 = "d122"


@dataclass(frozen=True)
class ParameterPath:
    """Affine segment between two positive parameter sets, s in [0, 1]."""

    start: SystemParams
    end: SystemParams

    def at(self, s) -> SystemParams:
        s = Fraction(s)
        if not 0 <= s <= 1:
            raise ValueError(f"path coordinate must lie in [0, 1], got {s}")

        def lerp(u: Fraction, v: Fraction) -> Fraction:
            return u + (v - u) * s

        return SystemParams(
            b1=lerp(self.start.b1, self.end.b1),
            b2=lerp(self.start.b2, self.end.b2),
            a11=lerp(self.start.a11, self.end.a11),
            a12=lerp(self.start.a12, self.end.a12),
            a21=lerp(self.start.a21, self.end.a21),
            a22=lerp(self.start.a22, self.end.a22),
        )


@dataclass(frozen=True)
class _Affine:
    c0: Fraction
    c1: Fraction

    @staticmethod
    def between(u: Fraction, v: Fraction) -> "_Affine":
        return _Affine(c0=u, c1=v - u)


def _affine_product(u: _Affine, v: _Affine) -> Tuple[Fraction, Fraction, Fraction]:
    return (u.c0 * v.c0, u.c0 * v.c1 + u.c1 * v.c0, u.c1 * v.c1)


@dataclass(frozen=True)
class QuadraticPoly:
    """c0 + c1*s + c2*s**2 with exact rational coefficients."""

    c0: Fraction
    c1: Fraction
    c2: Fraction

    def __call__(self, s) -> Fraction:
        s = Fraction(s)
        return self.c0 + s * (self.c1 + s * self.c2)

    @property
    def is_identically_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0 and self.c2 == 0

    def proportional_to(self, other: "QuadraticPoly") -> bool:
        return (self.c0 * other.c1 == self.c1 * other.c0
                and self.c0 * other.c2 == self.c2 * other.c0
                and self.c1 * other.c2 == self.c2 * other.c1)

    def to_json_dict(self) -> dict:
        return {"c0": str(self.c0), "c1": str(self.c1), "c2": str(self.c2)}


@dataclass(frozen=True)
class PathRoot:
    """A root of one determinant polynomial inside the open interval (0, 1).

    Rational roots carry their exact value; irrational ones carry a
    sign-change bracket of width <= the scan's refinement width.
    """

    poly: QuadraticPoly
    exact: Optional[Fraction]
    bracket: Optional[Tuple[Fraction, Fraction]]
    multiplicity: int
    sign_change: bool

    @property
    def approx(self) -> float:
        if self.exact is not None:
            return float(self.exact)
        lo, hi = self.bracket
        return float((lo + hi) / 2)

    @property
    def representative(self) -> Fraction:
        """An exact rational stand-in: the root itself, or the bracket midpoint."""
        if self.exact is not None:
            return self.exact
        lo, hi = self.bracket
        return (lo + hi) / 2

    def same_location(self, other: "PathRoot") -> bool:
        if self.exact is not None and other.exact is not None:
            return self.exact == other.exact
        if self.exact is not None or other.exact is not None:
            # A rational root can never coincide with an irrational one.
            return False
        if not self.poly.proportional_to(other.poly):
            return False
        (a_lo, a_hi), (b_lo, b_hi) = self.bracket, other.bracket
        return max(a_lo, b_lo) <= min(a_hi, b_hi)

    def to_json_dict(self) -> dict:
        return {
            "exact": None if self.exact is None else str(self.exact),
            "bracket": None if self.bracket is None else [str(self.bracket[0]),
                                                          str(self.bracket[1])],
            "approx": self.approx,
            "multiplicity": self.multiplicity,
            "sign_change": self.sign_change,
        }


def _bisect(poly: QuadraticPoly, lo: Fraction, hi: Fraction,
            width: Fraction) -> Tuple[Fraction, Fraction]:
    s_lo = sign_of(poly(lo))
    while hi - lo > width:
        mid = (lo + hi) / 2
        s_mid = sign_of(poly(mid))
        if s_mid is Sign.ZERO:  # cannot happen for an irrational root, but be safe
            return (mid, mid)
        if s_mid is s_lo:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


def _roots_in_open_unit_interval(
    poly: QuadraticPoly, width: Fraction
) -> List[PathRoot]:
    if poly.is_identically_zero:
        return []
    c0, c1, c2 = poly.c0, poly.c1, poly.c2
    roots: List[PathRoot] = []

    def keep(value: Fraction, multiplicity: int, sign_change: bool) -> None:
        if 0 < value < 1:
            roots.append(PathRoot(poly=poly, exact=value, bracket=None,
                                  multiplicity=multiplicity, sign_change=sign_change))

    if c2 == 0:
        if c1 != 0:
            keep(-c0 / c1, 1, True)
        return roots

    disc = c1 * c1 - 4 * c0 * c2
    if disc < 0:
        return roots
    if disc == 0:
        keep(-c1 / (2 * c2), 2, False)
        return roots
    sq = rational_sqrt(disc)
    if sq is not None:
        keep((-c1 - sq) / (2 * c2), 1, True)
        keep((-c1 + sq) / (2 * c2), 1, True)
        return roots

    # Irrational pair.  The vertex splits the interval into monotone pieces;
    # because the discriminant is not a perfect square, the polynomial is
    # nonzero at every rational point, so endpoint signs are decisive.
    vertex = -c1 / (2 * c2)
    cuts = sorted({Fraction(0), Fraction(1), *([vertex] if 0 < vertex < 1 else [])})
    for lo, hi in zip(cuts, cuts[1:]):
        if sign_of(poly(lo)) is not sign_of(poly(hi)):
            bracket = _bisect(poly, lo, hi, width)
            roots.append(PathRoot(poly=poly, exact=None, bracket=bracket,
                                  multiplicity=1, sign_change=True))
    return roots


class EventKind(Enum):
    TRANSCRITICAL = "transcritical exchange"
    DEGENERATE_LINE = "degenerate line of equilibria"
    SIGN_CASE_CHANGE_ONLY = "sign case change only"
    TANGENTIAL_TOUCH = "tangential touch"


@dataclass(frozen=True)
class SwapSummary:
    """Full-plane stability classes of the colliding pair on either side."""

    axis_before: str
    interior_before: str
    axis_after: str
    interior_after: str

    @property
    def swapped(self) -> bool:
        return (self.axis_before == self.interior_after
                and self.interior_before == self.axis_after
                and self.axis_before != self.interior_before)

    def to_json_dict(self) -> dict:
        return {
            "axis_before": self.axis_before,
            "interior_before": self.interior_before,
            "axis_after": self.axis_after,
            "interior_after": self.interior_after,
            "swapped": self.swapped,
        }


@dataclass(frozen=True)
class BifurcationEvent:
    root: PathRoot
    vanishing: Tuple[WhichDeterminant, ...]
    kind: EventKind
    sign_case_at: Optional[SignCase]
    serial_before: Optional[int]
    serial_after: Optional[int]
    colliding_pair: Optional[Tuple[EquilibriumKind, EquilibriumKind]] = None
    collision_point: Optional[Tuple[Fraction, Fraction]] = None
    swap: Optional[SwapSummary] = None
    trace_condition_held: Optional[bool] = None

    @property
    def s_star(self) -> float:
        return self.root.approx

    def to_json_dict(self) -> dict:
        return {
            "root": self.root.to_json_dict(),
            "vanishing": [w.value for w in self.vanishing],
            "kind": self.kind.value,
            "sign_case_at": None if self.sign_case_at is None
            else self.sign_case_at.to_json_dict(),
            "serial_before": self.serial_before,
            "serial_after": self.serial_after,
            "colliding_pair": None if self.colliding_pair is None
            else [k.value for k in self.colliding_pair],
            "collision_point": None if self.collision_point is None
            else [str(c) for c in self.collision_point],
            "swap": None if self.swap is None else self.swap.to_json_dict(),
            "trace_condition_held": self.trace_condition_held,
        }


@dataclass(frozen=True)
class PathScan:
    path: ParameterPath
    polys: Dict[WhichDeterminant, QuadraticPoly]
    identically_zero: FrozenSet[WhichDeterminant]
    events: Tuple[BifurcationEvent, ...]

    def to_json_dict(self) -> dict:
        return {
            "start": self.path.start.to_json_dict(),
            "end": self.path.end.to_json_dict(),
            "polys": {w.value: p.to_json_dict() for w, p in self.polys.items()},
            "identically_zero": [w.value for w in sorted(self.identically_zero,
                                                         key=lambda w: w.value)],
            "events": [e.to_json_dict() for e in self.events],
        }


def determinant_polys(path: ParameterPath) -> Dict[WhichDeterminant, QuadraticPoly]:
    """The three determinants as exact quadratics in the path coordinate."""
    s, e = path.start, path.end
    b1 = _Affine.between(s.b1, e.b1)
    b2 = _Affine.between(s.b2, e.b2)
    a11 = _Affine.between(s.a11, e.a11)
    a12 = _Affine.between(s.a12, e.a12)
    a21 = _Affine.between(s.a21, e.a21)
    a22 = _Affine.between(s.a22, e.a22)

    def minus(p, q) -> QuadraticPoly:
        return QuadraticPoly(c0=p[0] - q[0], c1=p[1] - q[1], c2=p[2] - q[2])

    return {
        WhichDeterminant.D12: minus(_affine_product(a11, a22), _affine_product(a12, a21)),
        WhichDeterminant.D112: minus(_affine_product(a11, b2), _affine_product(a21, b1)),
        WhichDeterminant.D122: minus(_affine_product(a12, b2), _affine_product(a22, b1)),
    }


def _sign_at_root(poly: QuadraticPoly, root: PathRoot) -> Sign:
    """Sign of another determinant polynomial at this root's location."""
    if root.exact is not None:
        return sign_of(poly(root.exact))
    lo, hi = root.bracket
    s_lo, s_hi = sign_of(poly(lo)), sign_of(poly(hi))
    if s_lo is s_hi:
        return s_lo
    # The bracket straddles a root of the *other* polynomial as well; shave
    # the bracket until the spectator's sign stabilizes.
    for _ in range(80):
        lo, hi = _bisect(root.poly, lo, hi, (hi - lo) / 4)
        s_lo, s_hi = sign_of(poly(lo)), sign_of(poly(hi))
        if s_lo is s_hi:
            return s_lo
    raise ArithmeticError("could not separate two distinct irrational roots")


def _side_classes(
    params: SystemParams, axis_kind: EquilibriumKind
) -> Tuple[Optional[str], Optional[str]]:
    """Full-plane classes of the axis and interior equilibria, as the
    verdict strings a SwapSummary compares ("degenerate" if non-hyperbolic)."""
    classes: Dict[EquilibriumKind, str] = {}
    for eq in find_equilibria(params, include_off_quadrant=True):
        if isinstance(eq, Equilibrium) and eq.kind in (axis_kind, EquilibriumKind.INTERIOR):
            verdict = linearization_verdict(eq)
            classes[eq.kind] = "degenerate" if verdict is None else verdict.value
    return classes.get(axis_kind), classes.get(EquilibriumKind.INTERIOR)


def scan_path(
    path: ParameterPath,
    bracket_width: Fraction = DEFAULT_BRACKET_WIDTH,
) -> PathScan:
    """Find and classify every determinant zero along the open path.

    Roots at s = 0 or s = 1 exactly are not events: there is no sign change
    inside the domain.  Co-located roots are grouped by exact equality (or,
    for irrational roots, by proportionality of the irreducible quadratics
    plus overlapping brackets) — three determinants vanishing together is
    the degenerate-line event.  Side samples for the before/after analysis
    sit at s* +- min(gap to the nearest other event or endpoint, 1/1024)/2,
    close enough that no further root can slip between sample and event.
    """
    polys = determinant_polys(path)
    identically_zero = frozenset(w for w, p in polys.items() if p.is_identically_zero)

    located: List[Tuple[WhichDeterminant, PathRoot]] = []
    for which, poly in polys.items():
        for root in _roots_in_open_unit_interval(poly, bracket_width):
            located.append((which, root))

    # Group co-located roots.
    groups: List[List[Tuple[WhichDeterminant, PathRoot]]] = []
    for which, root in sorted(located, key=lambda wr: wr[1].approx):
        for group in groups:
            if group[0][1].same_location(root):
                group.append((which, root))
                break
        else:
            groups.append([(which, root)])

    # Conservative exact gaps between neighboring groups (and the endpoints)
    # for side-sample placement.
    def hull(group) -> Tuple[Fraction, Fraction]:
        los, his = [], []
        for _, root in group:
            if root.exact is not None:
                los.append(root.exact)
                his.append(root.exact)
            else:
                los.append(root.bracket[0])
                his.append(root.bracket[1])
        return (min(los), max(his))

    hulls = [hull(g) for g in groups]
    events: List[BifurcationEvent] = []
    for idx, group in enumerate(groups):
        lo, hi = hulls[idx]
        gap = min(lo - (hulls[idx - 1][1] if idx > 0 else Fraction(0)),
                  (hulls[idx + 1][0] if idx + 1 < len(hulls) else Fraction(1)) - hi)
        delta = min(gap, Fraction(1, 1024)) / 2
        primary = group[0][1]
        vanishing = frozenset(w for w, _ in group) | identically_zero
        ordered = tuple(sorted(vanishing, key=lambda w: w.value))

        s_rep = primary.representative
        s_left, s_right = s_rep - delta, s_rep + delta
        before = compute_determinants(path.at(s_left))
        after = compute_determinants(path.at(s_right))
        case_before = sign_case(before)
        case_after = sign_case(after)

        at_signs = tuple(
            Sign.ZERO if w in vanishing else _sign_at_root(polys[w], primary)
            for w in (WhichDeterminant.D12, WhichDeterminant.D112, WhichDeterminant.D122)
        )
        case_at = sign_case(at_signs)

        if len(vanishing) == 3:
            kind = EventKind.DEGENERATE_LINE
        elif len(vanishing) == 2:
            # b2(s) > 0 along the whole path, so the linear identity
            # b2*d12 = a22*d112 - a21*d122 forces any two simultaneous zeros
            # to be three.
            raise ArithmeticError(
                f"two determinants vanish at s ~ {primary.approx} without the third; "
                "this contradicts the determinant identity"
            )
        elif not primary.sign_change:
            kind = EventKind.TANGENTIAL_TOUCH
        elif vanishing == {WhichDeterminant.D12}:
            kind = EventKind.SIGN_CASE_CHANGE_ONLY
        else:
            kind = EventKind.TRANSCRITICAL

        colliding_pair = collision_point = swap = None
        trace_held = None
        if kind in (EventKind.TRANSCRITICAL, EventKind.TANGENTIAL_TOUCH) \
                and vanishing != {WhichDeterminant.D12}:
            which = ordered[0]
            axis_kind = (EquilibriumKind.AXIS2 if which is WhichDeterminant.D122
                         else EquilibriumKind.AXIS1)
            colliding_pair = (EquilibriumKind.INTERIOR, axis_kind)
            params_star = path.at(s_rep)
            if axis_kind is EquilibriumKind.AXIS2:
                collision_point = (Fraction(0), params_star.b2 / params_star.a22)
            else:
                collision_point = (params_star.b1 / params_star.a11, Fraction(0))
            trace_value = (params_star.a11 * collision_point[0]
                           + params_star.a22 * collision_point[1])
            trace_held = trace_value > 0
            axis_b, int_b = _side_classes(path.at(s_left), axis_kind)
            axis_a, int_a = _side_classes(path.at(s_right), axis_kind)
            if None not in (axis_b, int_b, axis_a, int_a):
                swap = SwapSummary(axis_before=axis_b, interior_before=int_b,
                                   axis_after=axis_a, interior_after=int_a)

        events.append(BifurcationEvent(
            root=primary,
            vanishing=ordered,
            kind=kind,
            sign_case_at=case_at,
            serial_before=case_before.table6_serial,
            serial_after=case_after.table6_serial,
            colliding_pair=colliding_pair,
            collision_point=collision_point,
            swap=swap,
            trace_condition_held=trace_held,
        ))

    return PathScan(path=path, polys=polys, identically_zero=identically_zero,
                    events=tuple(events))


# ---------------------------------------------------------------------------
# Catalog of exchange scenarios


@dataclass(frozen=True)
class CatalogEntry:
    label: str
    description: str
    path: ParameterPath
    s_star: Fraction
    which: WhichDeterminant
    axis: EquilibriumKind
    serial_before: int
    serial_after: int


def four_case_catalog() -> List[CatalogEntry]:
    """Four hand-picked paths, one per transcritical exchange scenario.

    Each path crosses exactly one minor-determinant zero, with the other
    two determinants sign-constant, so the scan must report exactly one
    transcritical event whose collision coordinates and serial change are
    known in closed form.
    """
    return [
        CatalogEntry(
            label="coexistence-to-axis2-dominance",
            description=(
                "With stable coexistence, raising species 2's advantage pushes "
                "the interior point into the axis-2 equilibrium and out of the "
                "quadrant; the axis-2 monoculture inherits stability."
            ),
            path=ParameterPath(
                start=SystemParams.from_pairs((3, 4), ((1, 1), (1, 2))),
                end=SystemParams.from_pairs((2, 6), ((1, 1), (1, 2))),
            ),
            s_star=Fraction(1, 2),
            which=WhichDeterminant.D122,
            axis=EquilibriumKind.AXIS2,
            serial_before=1,
            serial_after=3,
        ),
        CatalogEntry(
            label="coexistence-to-axis1-dominance",
            description=(
                "The mirror exchange through the axis-1 equilibrium: the "
                "interior point leaves through the horizontal axis and species "
                "1's monoculture becomes the global attractor."
            ),
            path=ParameterPath(
                start=SystemParams.from_pairs((3, 4), ((1, 1), (1, 2))),
                end=SystemParams.from_pairs((6, 2), ((2, 1), (1, 1))),
            ),
            s_star=Fraction(1, 2),
            which=WhichDeterminant.D112,
            axis=EquilibriumKind.AXIS1,
            serial_before=1,
            serial_after=5,
        ),
        CatalogEntry(
            label="bistability-to-axis2-dominance",
            description=(
                "From the bistable picture, the separatrix saddle crosses the "
                "axis-1 equilibrium, which loses stability; only the axis-2 "
                "monoculture remains attracting."
            ),
            path=ParameterPath(
                start=SystemParams.from_pairs((Fraction(1, 4), Fraction(5, 8)),
                                              ((1, 2), (3, 4))),
                end=SystemParams.from_pairs((Fraction(1, 4), 2), ((1, 2), (3, 4))),
            ),
            s_star=Fraction(1, 11),
            which=WhichDeterminant.D112,
            axis=EquilibriumKind.AXIS1,
            serial_before=8,
            serial_after=3,
        ),
        CatalogEntry(
            label="bistability-to-axis1-dominance",
            description=(
                "The mirror loss of bistability: the interior saddle crosses "
                "the axis-2 equilibrium, leaving the axis-1 monoculture as the "
                "only attractor."
            ),
            path=ParameterPath(
                start=SystemParams.from_pairs((1, 3), ((1, 2), (4, 5))),
                end=SystemParams.from_pairs((1, 2), ((1, 2), (4, 5))),
            ),
            s_star=Fraction(1, 2),
            which=WhichDeterminant.D122,
            axis=EquilibriumKind.AXIS2,
            serial_before=8,
            serial_after=5,
        ),
    ]
