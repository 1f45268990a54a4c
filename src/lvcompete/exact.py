"""Exact scalar helpers: three-valued signs and quadratic surds.

Everything that decides a phase portrait in this package reduces to the sign
of a rational number or of a root of a rational quadratic.  Keeping those two
operations exact (no floats anywhere) is what makes the classifier immune to
borderline cases such as a determinant that is exactly zero.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from typing import Optional, Tuple, Union


class Sign(IntEnum):
    """Sign of an exact quantity; compares naturally with 0."""

    NEG = -1
    ZERO = 0
    POS = 1

    @property
    def glyph(self) -> str:
        return {Sign.NEG: "-", Sign.ZERO: "0", Sign.POS: "+"}[self]

    @classmethod
    def from_glyph(cls, glyph: str) -> "Sign":
        try:
            return {"-": cls.NEG, "0": cls.ZERO, "+": cls.POS}[glyph]
        except KeyError:
            raise ValueError(f"not a sign glyph: {glyph!r}") from None


#: ``sign_of``'s answer, indexed by (value > 0) - (value < 0).
_SIGN_BY_COMPARISON = (Sign.ZERO, Sign.POS, Sign.NEG)


def sign_of(value: Union[int, Fraction, float]) -> Sign:
    """Exact sign of an int, a float or a Fraction; a Fraction's sign is that
    of its numerator, an int, so no rational comparison is made."""
    if type(value) is Fraction:
        value = value.numerator
    return _SIGN_BY_COMPARISON[(value > 0) - (value < 0)]


def rational_sqrt(value: Fraction) -> Optional[Fraction]:
    """Exact square root of a non-negative rational, or ``None`` if irrational."""
    sign = sign_of(value)
    if sign < 0:
        raise ValueError("rational_sqrt of a negative value")
    if not sign:
        return Fraction(0)
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _sign_of_sum(p: int, q: int, d: int) -> Sign:
    """Exact sign of p + q*sqrt(d) for integers p, q and d >= 0: if the two
    terms differ in sign, the sign of p**2 - q**2*d decides."""
    p_sign = (p > 0) - (p < 0)
    q_sign = ((q > 0) - (q < 0)) if d else 0
    if p_sign * q_sign >= 0:
        return _SIGN_BY_COMPARISON[p_sign or q_sign]
    gap = p * p - q * q * d
    return _SIGN_BY_COMPARISON[p_sign * ((gap > 0) - (gap < 0))]


@dataclass(frozen=True)
class QuadraticSurd:
    """Exact number of the form (p + branch*sqrt(q)) / r.

    ``p``, ``q`` and ``r`` are rationals with ``r > 0`` (normalised on
    construction) and ``branch`` is +1 or -1.  When ``q < 0`` the value is one
    member of a complex-conjugate pair whose real part is ``p / r``; sign
    queries then refer to the real part.
    """

    p: Fraction
    q: Fraction
    r: Fraction
    branch: int = 1

    def __post_init__(self) -> None:
        if self.branch not in (-1, 1):
            raise ValueError("branch must be +1 or -1")
        r_sign = sign_of(self.r)
        if not r_sign:
            raise ValueError("zero denominator in surd")
        if r_sign < 0:
            object.__setattr__(self, "p", -self.p)
            object.__setattr__(self, "r", -self.r)
            object.__setattr__(self, "branch", -self.branch)

    @property
    def is_real(self) -> bool:
        return sign_of(self.q) >= 0

    def real_part_sign(self) -> Sign:
        """Exact sign of the real part (the value itself when it is real); with
        p = a/b and q = m/n >= 0 it is the sign of a*n + branch*b*sqrt(m*n)."""
        p, q = self.p, self.q
        if not self.is_real:
            return sign_of(p)  # r > 0 after normalisation
        return _sign_of_sum(p.numerator * q.denominator, self.branch * p.denominator,
                            q.numerator * q.denominator)

    def as_rational(self) -> Optional[Fraction]:
        """Collapse to a plain rational when q is a perfect square."""
        if not self.is_real:
            return None
        root = rational_sqrt(self.q)
        if root is None:
            return None
        return (self.p + self.branch * root) / self.r

    def to_complex(self) -> complex:
        return (float(self.p) + self.branch * cmath.sqrt(float(self.q))) / float(self.r)

    def to_float(self) -> float:
        if not self.is_real:
            raise ValueError("to_float() of a complex surd")
        return (float(self.p) + self.branch * math.sqrt(float(self.q))) / float(self.r)

    def to_json_dict(self) -> dict:
        return {
            "p": str(self.p),
            "q": str(self.q),
            "r": str(self.r),
            "branch": self.branch,
        }


def _integer_form(value: "ExactNumber") -> Tuple[int, int, int, int]:
    """(P, t, D, M) with the real value = (P + t*sqrt(D)) / M for integers
    D >= 0 and M > 0 and t = +-1.  A surd (a/b + t*sqrt(m/n)) / (e/f) is
    (a*n*f + t*sqrt((b*f)**2*m*n)) / (b*n*e)."""
    if not isinstance(value, QuadraticSurd):
        return value.numerator, 1, 0, value.denominator
    a, b = value.p.numerator, value.p.denominator
    m, n = value.q.numerator, value.q.denominator
    e, f = value.r.numerator, value.r.denominator
    if m < 0:
        raise ValueError("a complex surd has no floor or order")
    return a * n * f, value.branch, (b * f) ** 2 * m * n, b * n * e


def _floor_of_form(p: int, t: int, d: int, m: int) -> int:
    """floor((p + t*sqrt(d)) / m) for integers d >= 0 and m > 0: it is
    floor((p + floor(t*sqrt(d))) / m), with floor(-sqrt(d)) = -ceil(sqrt(d))."""
    root = math.isqrt(d)
    if t < 0 and root * root != d:
        root += 1
    return (p + t * root) // m


def _compare_forms(x: Tuple[int, int, int, int], y: Tuple[int, int, int, int]) -> Sign:
    """Exact sign of x - y for two ``_integer_form`` tuples (P, t, D, M).

    M1*M2*(x - y) = d + e with d = P1*M2 - P2*M1 and e = t1*sqrt(e1) -
    t2*sqrt(e2), e1 = M2**2*D1, e2 = M1**2*D2.  The sign of e follows from e1
    and e2; if d and e differ in sign, the sign of d**2 - e**2 =
    d**2 - e1 - e2 + 2*t1*t2*M1*M2*sqrt(D1*D2) decides.
    """
    (p1, t1, d1, m1), (p2, t2, d2, m2) = x, y
    d = p1 * m2 - p2 * m1
    e1, e2 = m2 * m2 * d1, m1 * m1 * d2
    e = e1 - e2 if t1 == t2 else e1 + e2
    d_sign, e_sign = (d > 0) - (d < 0), t1 * ((e > 0) - (e < 0))
    if d_sign * e_sign >= 0:
        return _SIGN_BY_COMPARISON[d_sign or e_sign]
    gap = _sign_of_sum(d * d - e1 - e2, 2 * t1 * t2 * m1 * m2, d1 * d2)
    return _SIGN_BY_COMPARISON[d_sign * gap]


def exact_compare(a: "ExactNumber", b: "ExactNumber") -> Sign:
    """Exact sign of a - b for real rationals or surds, in two squarings at most."""
    return _compare_forms(_integer_form(a), _integer_form(b))


#: An exact eigenvalue: either rational or a quadratic surd.
ExactNumber = Union[Fraction, QuadraticSurd]


def exact_real_part_sign(value: ExactNumber) -> Sign:
    if isinstance(value, QuadraticSurd):
        return value.real_part_sign()
    return sign_of(value)


def exact_to_complex(value: ExactNumber) -> complex:
    if isinstance(value, QuadraticSurd):
        return value.to_complex()
    return complex(float(value))


def exact_to_json(value: ExactNumber) -> Union[str, dict]:
    if isinstance(value, QuadraticSurd):
        rational = value.as_rational()
        if rational is not None:
            return str(rational)
        return value.to_json_dict()
    return str(value)
