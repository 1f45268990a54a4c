"""Bifurcation scanning along straight-line paths in parameter space.

Move the six parameters affinely from one positive configuration to
another and every one of the three classifying determinants becomes an
exact quadratic polynomial in the path coordinate s.  Everything here is
decided on integers: each quadratic is scaled to integer coefficients, and
its roots (P +- sqrt(D)) / M are located, ordered and signed by integer sign
tests, so no event can be missed, merged, reordered or invented by
floating-point noise.  The JSON prints an irrational root as its cell of the 2**-64 grid
that bisection of its monotone piece would end in.

A root of a minor determinant (with d12 != 0 there) is a transcritical
exchange: the interior equilibrium passes through an axis equilibrium and
the two trade their full-plane stability classes.  A root of d12 alone
sends the interior point to infinity and merely renumbers the sign case.
All three vanishing together produces the degenerate line of equilibria.
A double root that touches zero without crossing changes nothing on
either side.  Nothing is sampled beside a root: the determinants' signs on
either side, and from them the serials and the classes the colliding pair
trades, follow from exact signs at the root itself.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, cmp_to_key
from typing import Dict, FrozenSet, List, Optional, Tuple

from .exact import (ExactNumber, QuadraticSurd, Sign, _compare_forms, _floor_of_form,
                    _integer_form, _sign_of_sum, sign_of)
from .model import SignCase, SystemParams, compute_determinants, sign_case
from .equilibria import EquilibriumKind
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

#: Irrational roots are printed as a grid cell no wider than this.
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
        start, end = self.start, self.end
        return SystemParams(
            b1=_lerp(start.b1, end.b1, s),
            b2=_lerp(start.b2, end.b2, s),
            a11=_lerp(start.a11, end.a11, s),
            a12=_lerp(start.a12, end.a12, s),
            a21=_lerp(start.a21, end.a21, s),
            a22=_lerp(start.a22, end.a22, s),
        )


def _lerp(u: Fraction, v: Fraction, s: Fraction) -> Fraction:
    return u + (v - u) * s


_PARAMS = operator.attrgetter("b1", "b2", "a11", "a12", "a21", "a22")


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

    @cached_property
    def _integers(self) -> Tuple[int, ...]:
        """The coefficients times their common denominator: same roots and signs."""
        lcm = math.lcm(self.c0.denominator, self.c1.denominator, self.c2.denominator)
        return tuple(c.numerator * lcm // c.denominator for c in (self.c0, self.c1, self.c2))

    def to_json_dict(self) -> dict:
        return {"c0": str(self.c0), "c1": str(self.c1), "c2": str(self.c2)}


@dataclass(frozen=True)
class PathRoot:
    """A root of one determinant polynomial inside the open interval (0, 1).

    ``value`` is the root exactly: a fraction, or the irrational surd
    vertex +- sqrt(q) of ``poly``, ordered and signed through its integer
    form ``_form``.  The print forms are derived from it:
    ``exact`` for a rational root, and for an irrational one the
    ``bracket``, a grid cell of width <= ``DEFAULT_BRACKET_WIDTH``, derived
    on its first read and kept.
    """

    poly: QuadraticPoly
    value: ExactNumber
    multiplicity: int
    sign_change: bool

    @property
    def exact(self) -> Optional[Fraction]:
        return None if isinstance(self.value, QuadraticSurd) else self.value

    @cached_property
    def _form(self) -> Tuple[int, int, int, int]:
        return _integer_form(self.value)

    @cached_property
    def bracket(self) -> Optional[Tuple[Fraction, Fraction]]:
        return _bracket(self._form) if isinstance(self.value, QuadraticSurd) else None

    @property
    def representative(self) -> Fraction:
        """An exact rational stand-in: the root itself, or the bracket midpoint."""
        bracket = self.bracket
        if bracket is None:
            return self.value
        lo, hi = bracket
        return (lo + hi) / 2

    @property
    def approx(self) -> float:
        return float(self.representative)

    def to_json_dict(self) -> dict:
        bracket = self.bracket
        return {
            "exact": None if self.exact is None else str(self.exact),
            "bracket": None if bracket is None else [str(bracket[0]), str(bracket[1])],
            "approx": self.approx,
            "multiplicity": self.multiplicity,
            "sign_change": self.sign_change,
        }


def _bracket(form: Tuple[int, int, int, int]) -> Tuple[Fraction, Fraction]:
    """The grid cell of an irrational root (P + t*sqrt(D)) / M inside (0, 1).

    The cell is the one that bisecting the root's monotone piece
    [lo, hi] = [L/M, H/M] (between the cuts 0, the vertex P/M and 1) ends in:
    after the fewest halvings n that leave w = (hi - lo) / 2**n <=
    ``DEFAULT_BRACKET_WIDTH``, it is [lo + k*w, lo + (k+1)*w] with
    k = floor((root - lo) / w) = floor(((P - L)*2**n + t*sqrt(D*4**n)) / (H - L)).
    """
    p, t, d, m = form
    low, high = (0, min(p, m)) if t < 0 else (max(p, 0), m)
    gap = high - low
    width = DEFAULT_BRACKET_WIDTH
    n = (-(-gap * width.denominator // (m * width.numerator)) - 1).bit_length()
    k = _floor_of_form((p - low) << n, t, d << 2 * n, gap)
    return (Fraction((low << n) + k * gap, m << n), Fraction((low << n) + (k + 1) * gap, m << n))


def _roots_in_open_unit_interval(poly: QuadraticPoly) -> List[PathRoot]:
    """The roots in (0, 1), decided on the integer coefficients (A0, A1, A2):
    -A0/A1 for a line, and otherwise (P +- sqrt(D)) / M with P = -A1*sgn(A2),
    M = 2*|A2| and D = A1**2 - 4*A0*A2, which lies in (0, 1) iff
    P +- sqrt(D) > 0 and P - M +- sqrt(D) < 0."""
    a0, a1, a2 = poly._integers
    if not a2:
        p, m = (-a0, a1) if a1 > 0 else (a0, -a1)
        return [PathRoot(poly=poly, value=Fraction(p, m), multiplicity=1,
                         sign_change=True)] if 0 < p < m else []
    p, m, disc = (-a1 if a2 > 0 else a1), 2 * abs(a2), a1 * a1 - 4 * a0 * a2
    if disc == 0 and 0 < p < m:
        return [PathRoot(poly=poly, value=Fraction(p, m), multiplicity=2, sign_change=False)]
    if disc <= 0:
        return []
    root = math.isqrt(disc)
    roots: List[PathRoot] = []
    for t in (-1, 1):
        if _sign_of_sum(p, t, disc) is Sign.POS and _sign_of_sum(p - m, t, disc) is Sign.NEG:
            value = (Fraction(p + t * root, m) if root * root == disc else
                     QuadraticSurd(p=Fraction(p, m), q=Fraction(disc, m * m), r=Fraction(1),
                                   branch=t))
            roots.append(PathRoot(poly=poly, value=value, multiplicity=1, sign_change=True))
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
    """One event of a path scan.

    ``collision_point`` is the axis equilibrium at the root's
    ``representative``.  For an irrational root that is the bracket
    midpoint, so the point is a rational stand-in, not the exact point.
    """

    root: PathRoot
    vanishing: Tuple[WhichDeterminant, ...]
    kind: EventKind
    sign_case_at: Optional[SignCase]
    serial_before: Optional[int]
    serial_after: Optional[int]
    colliding_pair: Optional[Tuple[EquilibriumKind, EquilibriumKind]] = None
    collision_point: Optional[Tuple[Fraction, Fraction]] = None
    swap: Optional[SwapSummary] = None

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
    """The three determinants as exact quadratics in the path coordinate.

    Each determinant x*y - u*v is a product difference of parameters affine
    in s, so it is c0 + c1*s + c2*s**2 with c0 its value at the start, c2 the
    same product difference of the end-minus-start steps and
    c1 = (value at the end) - c0 - c2.  The steps and c2 stay unreduced
    (numerator, denominator) pairs; each coefficient is reduced once.
    """
    start, end = path.start, path.end
    d0, d1 = compute_determinants(start), compute_determinants(end)
    b1, b2, a11, a12, a21, a22 = (
        (v.numerator * u.denominator - u.numerator * v.denominator, u.denominator * v.denominator)
        for u, v in zip(_PARAMS(start), _PARAMS(end)))

    def poly(v0: Fraction, v1: Fraction, x, y, u, v) -> QuadraticPoly:
        (nx, qx), (ny, qy), (nu, qu), (nv, qv) = x, y, u, v
        n2, q2 = nx * ny * qu * qv - nu * nv * qx * qy, qx * qy * qu * qv
        n0, q0, n1, q1 = v0.numerator, v0.denominator, v1.numerator, v1.denominator
        return QuadraticPoly(c0=v0, c1=Fraction((n1 * q0 - n0 * q1) * q2 - n2 * q0 * q1,
                                                q0 * q1 * q2), c2=Fraction(n2, q2))

    return {
        WhichDeterminant.D12: poly(d0.d12, d1.d12, a11, a22, a12, a21),
        WhichDeterminant.D112: poly(d0.d112, d1.d112, a11, b2, a21, b1),
        WhichDeterminant.D122: poly(d0.d122, d1.d122, a12, b2, a22, b1),
    }


def _sign_at_root(poly: QuadraticPoly, root: PathRoot) -> Sign:
    """Exact sign of another determinant polynomial at this root's location.

    With the root s = (P + t*sqrt(D)) / M and the polynomial's integer
    coefficients (B0, B1, B2), M**2 times its value is X + t*Y*sqrt(D) with
    X = B0*M**2 + B1*M*P + B2*(P**2 + D) and Y = B1*M + 2*B2*P.
    """
    b0, b1, b2 = poly._integers
    p, t, d, m = root._form
    return _sign_of_sum(b0 * m * m + b1 * m * p + b2 * (p * p + d), t * (b1 * m + 2 * b2 * p), d)


def _signs_beside(poly: QuadraticPoly, root: PathRoot) -> Tuple[Sign, Sign, Sign]:
    """Exact signs of a determinant just before, at and just after a root.
    One that vanishes there has -+ the sign of its slope c1 + 2*c2*s beside a
    simple root and the sign of c2 beside a double one; any other keeps its
    sign.  M times the slope is (B1*M + 2*B2*P) + t*2*B2*sqrt(D)."""
    at = _sign_at_root(poly, root)
    if at is not Sign.ZERO:
        return at, at, at
    _, b1, b2 = poly._integers
    p, t, d, m = root._form
    slope = _sign_of_sum(b1 * m + 2 * b2 * p, 2 * t * b2, d)
    if slope is Sign.ZERO:
        return sign_of(b2), at, sign_of(b2)
    return Sign(-slope), at, slope


def _classes_beside(which: WhichDeterminant, signs: Tuple[Sign, Sign, Sign]) -> Tuple[str, str]:
    """Full-plane classes of the colliding axis and interior equilibria beside
    the collision, from the nonzero signs of (d12, d112, d122) there.  The axis
    eigenvalues are (-b1, d112/a11) or (-d122/a22, -b2); the interior Jacobian
    has determinant -d112*d122/d12 and a trace that tends to -b1 or -b2."""
    s12, s112, s122 = signs
    axis = (Sign.NEG, s112) if which is WhichDeterminant.D112 else (Sign(-s122), Sign.NEG)
    interior = (Sign.NEG, Sign(s12 * s112 * s122))
    return linearization_verdict(*axis).value, linearization_verdict(*interior).value


def scan_path(path: ParameterPath) -> PathScan:
    """Find and classify every determinant zero along the open path.

    Roots at s = 0 or s = 1 exactly are not events: there is no sign change
    inside the domain.  Roots are sorted by exact comparison and equal ones
    form one event — three determinants vanishing together is the
    degenerate-line event.  Only the collision point evaluates the path,
    and only the two coordinates it needs.
    """
    polys = determinant_polys(path)
    identically_zero = frozenset(w for w, p in polys.items() if p.is_identically_zero)

    located = [(which, root)
               for which, poly in polys.items()
               for root in _roots_in_open_unit_interval(poly)]
    located.sort(key=cmp_to_key(lambda x, y: _compare_forms(x[1]._form, y[1]._form)))
    events: List[BifurcationEvent] = []
    # An irrational root has one form vertex +- sqrt(q), so equal roots are ==.
    for _, run in itertools.groupby(located, key=lambda x: x[1].value):
        group = list(run)
        primary = group[0][1]
        vanishing = frozenset(w for w, _ in group) | identically_zero
        ordered = tuple(sorted(vanishing, key=lambda w: w.value))
        before, at_signs, after = zip(*(
            _signs_beside(polys[w], primary)
            for w in (WhichDeterminant.D12, WhichDeterminant.D112, WhichDeterminant.D122)
        ))

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
        if kind in (EventKind.TRANSCRITICAL, EventKind.TANGENTIAL_TOUCH) \
                and vanishing != {WhichDeterminant.D12}:
            which = ordered[0]
            axis_kind = (EquilibriumKind.AXIS2 if which is WhichDeterminant.D122
                         else EquilibriumKind.AXIS1)
            colliding_pair = (EquilibriumKind.INTERIOR, axis_kind)
            s, start, end = primary.representative, path.start, path.end
            if axis_kind is EquilibriumKind.AXIS2:
                collision_point = (Fraction(0), _lerp(start.b2, end.b2, s)
                                   / _lerp(start.a22, end.a22, s))
            else:
                collision_point = (_lerp(start.b1, end.b1, s)
                                   / _lerp(start.a11, end.a11, s), Fraction(0))
            axis_b, int_b = _classes_beside(which, before)
            axis_a, int_a = _classes_beside(which, after)
            swap = SwapSummary(axis_before=axis_b, interior_before=int_b,
                               axis_after=axis_a, interior_after=int_a)

        events.append(BifurcationEvent(
            root=primary,
            vanishing=ordered,
            kind=kind,
            sign_case_at=sign_case(at_signs),
            serial_before=sign_case(before).table6_serial,
            serial_after=sign_case(after).table6_serial,
            colliding_pair=colliding_pair,
            collision_point=collision_point,
            swap=swap,
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
