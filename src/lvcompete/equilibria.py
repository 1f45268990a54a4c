"""Equilibria of the planar system, with exact coordinates and eigenvalues.

There are at most four isolated equilibria: the origin, one on each positive
half-axis, and (when the interaction determinant ``d12`` is nonzero) the
intersection of the two oblique nullclines at ``(-d122/d12, d112/d12)``.
When all three determinants vanish the oblique nullclines coincide and the
system carries a whole segment of equilibria instead.  The four nullcline
branches are split at exact breakpoints into segments tagged with the
direction in which the flow crosses them.

Everything here is computed in rational arithmetic; eigenvalues that are not
rational are returned as exact quadratic surds so stability decisions never
depend on floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .exact import (
    ExactNumber,
    QuadraticSurd,
    Sign,
    exact_real_part_sign,
    exact_to_json,
    rational_sqrt,
    sign_of,
)
from .model import SystemParams, compute_determinants, rhs_exact

__all__ = [
    "EquilibriumKind",
    "EigenPair",
    "Equilibrium",
    "EquilibriumLine",
    "jacobian_at",
    "find_equilibria",
    "Direction",
    "NullclineBranch",
    "NullclineSegment",
    "NullclineCurve",
    "NullclineSet",
    "nullclines",
]

RationalPair = Tuple[Fraction, Fraction]
_ZERO, _TWO = Fraction(0), Fraction(2)


class EquilibriumKind(Enum):
    ORIGIN = "origin"
    AXIS1 = "axis1"
    AXIS2 = "axis2"
    INTERIOR = "interior"
    LINE_MEMBER = "line_member"


@dataclass(frozen=True)
class EigenPair:
    """Both eigenvalues of a 2x2 Jacobian, kept exact.

    Each entry is a rational or a quadratic surd ``(p + branch*sqrt(q))/r``.
    A complex-conjugate pair is represented by the two branches of a surd
    with negative radicand; its common real-part sign is still exact.
    """

    lambda1: ExactNumber
    lambda2: ExactNumber

    @property
    def realpart_signs(self) -> Tuple[Sign, Sign]:
        return (exact_real_part_sign(self.lambda1), exact_real_part_sign(self.lambda2))

    def to_json_dict(self) -> dict:
        return {"lambda1": exact_to_json(self.lambda1), "lambda2": exact_to_json(self.lambda2)}


@dataclass(frozen=True)
class Equilibrium:
    kind: EquilibriumKind
    x1: Fraction
    x2: Fraction
    eigenvalues: EigenPair
    #: Set when a degenerate parameter choice makes two equilibria share a
    #: point (the interior one landing exactly on an axis equilibrium, or a
    #: line member sitting at a segment endpoint).
    coincides_with: Optional[EquilibriumKind] = None
    #: Line parameter for LINE_MEMBER equilibria (their x2 coordinate).
    alpha: Optional[Fraction] = None

    @property
    def position(self) -> RationalPair:
        return (self.x1, self.x2)

    @property
    def float_position(self) -> Tuple[float, float]:
        return (float(self.x1), float(self.x2))

    def to_json_dict(self) -> dict:
        out: dict = {
            "kind": self.kind.value,
            "x1": str(self.x1),
            "x2": str(self.x2),
            "eigenvalues": self.eigenvalues.to_json_dict(),
        }
        if self.coincides_with is not None:
            out["coincides_with"] = self.coincides_with.value
        if self.alpha is not None:
            out["alpha"] = str(self.alpha)
        return out


@dataclass(frozen=True)
class EquilibriumLine:
    """Segment of non-isolated equilibria, present iff d12 = d112 = d122 = 0.

    Parametrized by the x2 coordinate: ``member(alpha)`` sits at
    ``((b1 - a12*alpha)/a11, alpha)`` for ``alpha`` between 0 and ``b1/a12``.
    The endpoints are the two axis equilibria.
    """

    params: SystemParams
    alpha_min: Fraction = field(init=False)
    alpha_max: Fraction = field(init=False)

    def __post_init__(self) -> None:
        if any(compute_determinants(self.params).signs):
            raise ValueError("equilibrium line requires all three determinants to vanish")
        object.__setattr__(self, "alpha_min", Fraction(0))
        object.__setattr__(self, "alpha_max", self.params.b1 / self.params.a12)

    def member(self, alpha) -> Equilibrium:
        alpha = Fraction(alpha)
        if not (self.alpha_min <= alpha <= self.alpha_max):
            raise ValueError(
                f"alpha={alpha} outside the equilibrium segment "
                f"[{self.alpha_min}, {self.alpha_max}]"
            )
        p = self.params
        x1 = (p.b1 - p.a12 * alpha) / p.a11
        coincides = None
        if alpha == self.alpha_min:
            coincides = EquilibriumKind.AXIS1
        elif alpha == self.alpha_max:
            coincides = EquilibriumKind.AXIS2
        return Equilibrium(
            kind=EquilibriumKind.LINE_MEMBER,
            x1=x1,
            x2=alpha,
            # With d12 = 0 one eigenvalue vanishes along the line; the
            # transverse one is the Jacobian trace, negative on the segment.
            eigenvalues=EigenPair(_ZERO, -p.a11 * x1 - p.a22 * alpha),
            coincides_with=coincides,
            alpha=alpha,
        )

    def endpoints(self) -> Tuple[Equilibrium, Equilibrium]:
        return (self.member(self.alpha_min), self.member(self.alpha_max))

    def to_json_dict(self) -> dict:
        return {
            "kind": "line",
            "alpha_min": str(self.alpha_min),
            "alpha_max": str(self.alpha_max),
            "x1_of_alpha": f"({self.params.b1} - {self.params.a12}*alpha)/{self.params.a11}",
        }


def jacobian_at(params: SystemParams, point: Sequence) -> Tuple[RationalPair, RationalPair]:
    """Jacobian of the vector field at an arbitrary point, exactly."""
    x1, x2 = (Fraction(point[0]), Fraction(point[1]))
    p = params
    return (
        (p.b1 - 2 * p.a11 * x1 - p.a12 * x2, -p.a12 * x1),
        (-p.a21 * x2, p.b2 - p.a21 * x1 - 2 * p.a22 * x2),
    )


def find_equilibria(
    params: SystemParams,
    include_off_quadrant: bool = False,
) -> List[Union[Equilibrium, EquilibriumLine]]:
    """All equilibria of the system.

    Returns ``[origin, axis1, axis2]`` plus the interior equilibrium when the
    oblique nullclines cross.  The crossing is included if it has strictly
    positive coordinates, or regardless of position when
    ``include_off_quadrant`` is set (the probes keep clear of it wherever it
    lies).  When it lands exactly on an axis equilibrium (one minor zero,
    ``d12 != 0``) it is not listed twice: the axis equilibrium is tagged with
    ``coincides_with=INTERIOR`` instead.  In the fully degenerate case the
    result is ``[origin, EquilibriumLine]``.

    The equilibria are built once per ``params`` object and kept on it; each
    call returns a new list of those (immutable) entries.
    """
    kept = params._equilibria
    # Entries of another import of this module (a re-imported package) are
    # other classes: they are rebuilt rather than handed to this import.
    if kept is None or type(kept[0][0]) is not Equilibrium:
        kept = _all_equilibria(params)
        object.__setattr__(params, "_equilibria", kept)
    entries, in_quadrant = kept
    return list(entries if include_off_quadrant else entries[:in_quadrant])


def _all_equilibria(
    params: SystemParams,
) -> Tuple[Tuple[Union[Equilibrium, EquilibriumLine], ...], int]:
    """Every equilibrium, the interior one wherever it lies, and how many of
    them (a prefix) lie in the closed quadrant.  Each test reads the exact
    signs of the determinants; each value is one cross-multiplied ``Fraction(n, d)``."""
    p = params
    d = compute_determinants(params)
    s12, s112, s122 = d.signs

    origin = Equilibrium(
        kind=EquilibriumKind.ORIGIN, x1=_ZERO, x2=_ZERO,
        eigenvalues=EigenPair(p.b1, p.b2),
    )

    if not (s12 or s112 or s122):
        return (origin, EquilibriumLine(params=params)), 2

    (n11, q11), (n22, q22) = p.a11.as_integer_ratio(), p.a22.as_integer_ratio()
    (n112, q112), (n122, q122) = d.d112.as_integer_ratio(), d.d122.as_integer_ratio()
    axis1 = Equilibrium(
        kind=EquilibriumKind.AXIS1, x1=Fraction(p.b1.numerator * q11, p.b1.denominator * n11),
        x2=_ZERO, eigenvalues=EigenPair(-p.b1, Fraction(n112 * q11, q112 * n11)),
        coincides_with=EquilibriumKind.INTERIOR if (not s112 and s12) else None,
    )
    axis2 = Equilibrium(
        kind=EquilibriumKind.AXIS2, x1=_ZERO,
        x2=Fraction(p.b2.numerator * q22, p.b2.denominator * n22),
        eigenvalues=EigenPair(Fraction(-n122 * q22, q122 * n22), -p.b2),
        coincides_with=EquilibriumKind.INTERIOR if (not s122 and s12) else None,
    )
    if not (s12 and s112 and s122):
        return (origin, axis1, axis2), 3

    # At (-d122/d12, d112/d12), det J = x1*x2*d12 and trace J = -u/(v*d12) with
    # u/v = a22*d112 - a11*d122: the discriminant is (u**2 + 4*v**2*d112*d122*d12)/(v*d12)**2.
    n12, q12 = d.d12.as_integer_ratio()
    u = n22 * q11 * n112 * q122 - n11 * q22 * n122 * q112
    v = q11 * q22 * q112 * q122
    trace = Fraction(-u * q12, v * n12)
    disc = Fraction(q12 * (u * u * q12 + 4 * n112 * n122 * n12 * q11 * q22 * v), (v * n12) ** 2)
    root = rational_sqrt(disc) if sign_of(disc) >= 0 else None
    eigenvalues = (EigenPair((trace + root) / 2, (trace - root) / 2) if root is not None else
                   EigenPair(*[QuadraticSurd(p=trace, q=disc, r=_TWO, branch=b) for b in (1, -1)]))
    interior = Equilibrium(
        kind=EquilibriumKind.INTERIOR, eigenvalues=eigenvalues,
        x1=Fraction(-n122 * q12, q122 * n12), x2=Fraction(n112 * q12, q112 * n12),
    )
    # x1 = -d122/d12 > 0 and x2 = d112/d12 > 0.
    inside = s122 != s12 and s112 == s12
    return (origin, axis1, axis2, interior), 4 if inside else 3


def _order_limit(params: SystemParams, x1: Fraction, x2: Fraction) -> Optional[Equilibrium]:
    """The quadrant equilibrium that the orbit of (x1, x2) tends to, if the
    competitive order decides it, else None.

    On the closed quadrant the flow is monotone for x <=_K y iff x1 <= y1 and
    x2 >= y2: the off-diagonal Jacobian entries -a12*x1, -a21*x2 are <= 0
    (Hirsch, SIAM J. Math. Anal. 16, 1985; Smith, Monotone Dynamical Systems,
    1995, ch. 3).  If f1 >= 0 >= f2 at p, the orbit is K-nondecreasing and
    bounded by every equilibrium q >=_K p, so it tends to the K-least one; if
    f1 <= 0 <= f2, to the K-greatest one K-below p.  No line rule yet.
    """
    f1, f2 = rhs_exact(params, x1, x2)
    s = 1 if f1 >= 0 >= f2 else -1 if f1 <= 0 <= f2 else 0
    entries = find_equilibria(params)
    if not s or x1 < 0 or x2 < 0 or isinstance(entries[-1], EquilibriumLine):
        return None
    # With s = -1 the comparisons mirror: "K-above" reads "K-below".
    above = [q for q in entries if s * (q.x1 - x1) >= 0 >= s * (q.x2 - x2)]
    return next((q for q in above
                 if all(s * (r.x1 - q.x1) >= 0 >= s * (r.x2 - q.x2) for r in above)), None)


# ---------------------------------------------------------------------------
# Nullclines


class Direction(Enum):
    UP = "up"
    DOWN = "down"
    LEFT = "left"
    RIGHT = "right"
    #: The nullcline consists of equilibria (fully degenerate case).
    STATIONARY = "stationary"


class NullclineBranch(Enum):
    VERTICAL_AXIS = "x1 = 0"
    OBLIQUE_X1 = "x2 = (b1 - a11*x1)/a12"
    HORIZONTAL_AXIS = "x2 = 0"
    OBLIQUE_X2 = "x2 = (b2 - a21*x1)/a22"


#: Which coordinate of the field vanishes on each branch: the flow crosses
#: an x1-nullcline vertically and an x2-nullcline horizontally.
_VERTICAL_FLOW = {NullclineBranch.VERTICAL_AXIS, NullclineBranch.OBLIQUE_X1}


@dataclass(frozen=True)
class NullclineSegment:
    lo: Fraction
    hi: Optional[Fraction]  # None = unbounded above
    direction: Direction

    def to_json_dict(self) -> dict:
        return {"lo": str(self.lo), "hi": None if self.hi is None else str(self.hi),
                "direction": self.direction.value}


@dataclass(frozen=True)
class NullclineCurve:
    """One nullcline branch, parametrized by x2 on the vertical axis and by
    x1 everywhere else, restricted to parameter values >= 0."""

    params: SystemParams
    branch: NullclineBranch
    segments: Tuple[NullclineSegment, ...]

    @property
    def breakpoints(self) -> Tuple[Fraction, ...]:
        return tuple(seg.lo for seg in self.segments)

    def point_at(self, value) -> RationalPair:
        v = Fraction(value)
        p = self.params
        if self.branch is NullclineBranch.VERTICAL_AXIS:
            return (Fraction(0), v)
        if self.branch is NullclineBranch.HORIZONTAL_AXIS:
            return (v, Fraction(0))
        if self.branch is NullclineBranch.OBLIQUE_X1:
            return (v, (p.b1 - p.a11 * v) / p.a12)
        return (v, (p.b2 - p.a21 * v) / p.a22)

    def direction_at(self, value) -> Direction:
        v = Fraction(value)
        for seg in self.segments:
            if seg.lo < v and (seg.hi is None or v < seg.hi):
                return seg.direction
        raise ValueError(f"{v} is a breakpoint or outside the parametrized range")

    def to_json_dict(self) -> dict:
        return {
            "branch": self.branch.value,
            "breakpoints": [str(b) for b in self.breakpoints],
            "segments": [seg.to_json_dict() for seg in self.segments],
        }


@dataclass(frozen=True)
class NullclineSet:
    params: SystemParams
    curves: Tuple[NullclineCurve, NullclineCurve, NullclineCurve, NullclineCurve]

    def curve(self, branch: NullclineBranch) -> NullclineCurve:
        for c in self.curves:
            if c.branch is branch:
                return c
        raise KeyError(branch)

    def to_json_dict(self) -> dict:
        return {"params": self.params.to_json_dict(),
                "curves": [c.to_json_dict() for c in self.curves]}


#: Tags indexed by the crossing sign: tags[-1] is the last entry.
_UP_DOWN = (Direction.STATIONARY, Direction.UP, Direction.DOWN)
_RIGHT_LEFT = (Direction.STATIONARY, Direction.RIGHT, Direction.LEFT)


def nullclines(params: SystemParams) -> NullclineSet:
    """All four nullcline branches with exact breakpoints and crossing tags.

    Along each branch, parametrized by v >= 0, the field component that
    crosses it has one sign just right of v = 0, which flips at each of its
    positive roots.  On both axes that sign starts at +1 and flips at b2/a22
    (vertical) or b1/a11 (horizontal).  On the oblique x1-nullcline,
    x2' = x2*(d12*v + d122)/a12 with x2 = (b1 - a11*v)/a12, so it starts at
    s0 = sign d122, or sign d12 when d122 = 0, and flips at b1/a11 and at
    c = -d122/d12 when c > 0; b1/a11 - c = a12*d112/(a11*d12), so c comes
    first iff s12*s112 > 0, and the two are one breakpoint with two flips
    iff d112 = 0.  On the oblique x2-nullcline, x1' = -v*(d12*v + d122)/a22
    starts at -s0 and flips at c.  A starting sign of 0 (d12 = d122 = 0)
    makes the branch STATIONARY.  So the signs give the order, with no sort
    and no ``Fraction`` comparison; b2/a22, b1/a11 and c are each one
    ``Fraction(n, d)`` of cross-multiplied integers, and no equilibria are built.
    """
    p = params
    d = compute_determinants(params)
    s12, s112, s122 = d.signs
    b1_over_a11 = Fraction(p.b1.numerator * p.a11.denominator, p.b1.denominator * p.a11.numerator)
    # Every breakpoint is positive, and two on one branch are equal only when
    # d112 = 0 puts c at b1/a11: c is then that same object, found by identity.
    crossing = [Fraction(-d.d122.numerator * d.d12.denominator, d.d122.denominator * d.d12.numerator)
                if s112 else b1_over_a11] if s12 * s122 < 0 else []
    s0 = s122 or s12
    curves = []
    for branch, sign, roots in (
        (NullclineBranch.VERTICAL_AXIS, 1,
         [Fraction(p.b2.numerator * p.a22.denominator, p.b2.denominator * p.a22.numerator)]),
        (NullclineBranch.OBLIQUE_X1, s0,
         [*crossing, b1_over_a11] if s12 * s112 > 0 else [b1_over_a11, *crossing]),
        (NullclineBranch.HORIZONTAL_AXIS, 1, [b1_over_a11]),
        (NullclineBranch.OBLIQUE_X2, -s0, crossing),
    ):
        tags = _UP_DOWN if branch in _VERTICAL_FLOW else _RIGHT_LEFT
        segments = []
        lo = _ZERO
        for root in roots:
            if root is not lo:
                segments.append(NullclineSegment(lo=lo, hi=root, direction=tags[sign]))
                lo = root
            sign = -sign
        segments.append(NullclineSegment(lo=lo, hi=None, direction=tags[sign]))
        curves.append(NullclineCurve(params=params, branch=branch, segments=tuple(segments)))
    return NullclineSet(params=params, curves=tuple(curves))
