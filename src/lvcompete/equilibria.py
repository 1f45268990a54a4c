"""Equilibria of the planar system, with exact coordinates and eigenvalues.

There are at most four isolated equilibria: the origin, one on each positive
half-axis, and (when the interaction determinant ``d12`` is nonzero) the
intersection of the two oblique nullclines at ``(-d122/d12, d112/d12)``.
When all three determinants vanish the oblique nullclines coincide and the
system carries a whole segment of equilibria instead.

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
)
from .model import SystemParams, compute_determinants

__all__ = [
    "EquilibriumKind",
    "EigenPair",
    "Equilibrium",
    "EquilibriumLine",
    "jacobian_at",
    "interior_point",
    "find_equilibria",
]

RationalPair = Tuple[Fraction, Fraction]


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

    @property
    def is_hyperbolic(self) -> bool:
        return Sign.ZERO not in self.realpart_signs

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
    alpha_min: Fraction = Fraction(0)
    alpha_max: Fraction = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        triple = compute_determinants(self.params)
        if (triple.d12, triple.d112, triple.d122) != (0, 0, 0):
            raise ValueError("equilibrium line requires all three determinants to vanish")
        if self.alpha_max is None:
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
            eigenvalues=_interior_eigenpair(p, Fraction(0), x1, alpha),
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


def interior_point(params: SystemParams) -> Optional[RationalPair]:
    """Intersection of the two oblique nullclines, or None when parallel.

    The point is returned wherever it lies in the plane; callers decide
    whether a non-positive coordinate disqualifies it.
    """
    d = compute_determinants(params)
    if d.d12 == 0:
        return None
    return (-d.d122 / d.d12, d.d112 / d.d12)


def _interior_eigenpair(params: SystemParams, d12: Fraction,
                        x1: Fraction, x2: Fraction) -> EigenPair:
    """Eigenvalues at a point on both oblique nullclines, kept exact."""
    t = params.a11 * x1 + params.a22 * x2        # = -trace of the Jacobian
    det = x1 * x2 * d12                          # = its determinant
    disc = t * t - 4 * det

    def collapse(surd: QuadraticSurd) -> ExactNumber:
        rational = surd.as_rational()
        return surd if rational is None else rational

    plus = QuadraticSurd(p=-t, q=disc, r=Fraction(2), branch=+1)
    minus = QuadraticSurd(p=-t, q=disc, r=Fraction(2), branch=-1)
    return EigenPair(collapse(plus), collapse(minus))


def find_equilibria(
    params: SystemParams,
    include_off_quadrant: bool = False,
) -> List[Union[Equilibrium, EquilibriumLine]]:
    """All equilibria of the system.

    Returns ``[origin, axis1, axis2]`` plus the interior equilibrium when the
    oblique nullclines cross.  The crossing is included if it has strictly
    positive coordinates, or regardless of position when
    ``include_off_quadrant`` is set (the bifurcation scan tracks it through
    the axes).  When it lands exactly on an axis equilibrium (one minor zero,
    ``d12 != 0``) it is not listed twice: the axis equilibrium is tagged with
    ``coincides_with=INTERIOR`` instead.  In the fully degenerate case the
    result is ``[origin, EquilibriumLine]``.
    """
    p = params
    d = compute_determinants(params)
    zero = Fraction(0)

    origin = Equilibrium(
        kind=EquilibriumKind.ORIGIN, x1=zero, x2=zero,
        eigenvalues=EigenPair(p.b1, p.b2),
    )

    if d.d12 == 0 and d.d112 == 0 and d.d122 == 0:
        return [origin, EquilibriumLine(params=params)]

    axis1 = Equilibrium(
        kind=EquilibriumKind.AXIS1, x1=p.b1 / p.a11, x2=zero,
        eigenvalues=EigenPair(-p.b1, d.d112 / p.a11),
        coincides_with=EquilibriumKind.INTERIOR if (d.d112 == 0 and d.d12 != 0) else None,
    )
    axis2 = Equilibrium(
        kind=EquilibriumKind.AXIS2, x1=zero, x2=p.b2 / p.a22,
        eigenvalues=EigenPair(-d.d122 / p.a22, -p.b2),
        coincides_with=EquilibriumKind.INTERIOR if (d.d122 == 0 and d.d12 != 0) else None,
    )
    result: List[Union[Equilibrium, EquilibriumLine]] = [origin, axis1, axis2]

    if d.d12 != 0 and d.d112 != 0 and d.d122 != 0:
        x1, x2 = -d.d122 / d.d12, d.d112 / d.d12
        if (x1 > 0 and x2 > 0) or include_off_quadrant:
            result.append(
                Equilibrium(
                    kind=EquilibriumKind.INTERIOR, x1=x1, x2=x2,
                    eigenvalues=_interior_eigenpair(params, d.d12, x1, x2),
                )
            )
    return result
