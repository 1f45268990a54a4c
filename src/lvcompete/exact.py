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


def _sign_of_p_plus_t_root_q(p: Fraction, t: int, q: Fraction) -> Sign:
    """Exact sign of p + t*sqrt(q) for rational p, q >= 0 and t in {-1, +1}."""
    p_sign = sign_of(p)
    if not sign_of(q):
        return p_sign
    if t > 0:
        if p_sign >= 0:
            return Sign.POS
        return sign_of(q - p * p)  # p < 0: compare |p| against sqrt(q)
    if p_sign <= 0:
        return Sign.NEG
    return sign_of(p * p - q)


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
        """Exact sign of the real part (the value itself when it is real)."""
        if not self.is_real:
            return sign_of(self.p)  # r > 0 after normalisation
        return _sign_of_p_plus_t_root_q(self.p, self.branch, self.q)

    def sign(self) -> Sign:
        if not self.is_real:
            raise ValueError("sign() of a complex surd; use real_part_sign()")
        return self.real_part_sign()

    def as_rational(self) -> Optional[Fraction]:
        """Collapse to a plain rational when q is a perfect square."""
        if not self.is_real:
            return None
        root = rational_sqrt(self.q)
        if root is None:
            return None
        return (self.p + self.branch * root) / self.r

    def __floor__(self) -> int:
        """Exact ``math.floor`` of a real surd: with p/r = a/c and q/r**2 = m/n it
        is floor((a*n + floor(branch*sqrt(c*c*m*n))) / (c*n))."""
        offset, _, spread = _offset_spread(self)
        a, c, m, n = offset.numerator, offset.denominator, spread.numerator, spread.denominator
        root = math.isqrt(c * c * m * n)
        if self.branch < 0 and root * root != c * c * m * n:
            root += 1  # floor(-sqrt(x)) = -ceil(sqrt(x))
        return (a * n + self.branch * root) // (c * n)

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


def _offset_spread(value: "ExactNumber") -> Tuple[Fraction, int, Fraction]:
    """(u, t, q) with the real value = u + t*sqrt(q), q >= 0 and t = +-1."""
    if not isinstance(value, QuadraticSurd):
        return Fraction(value), 1, Fraction(0)
    if not value.is_real:
        raise ValueError("a complex surd has no floor or order")
    return value.p / value.r, value.branch, value.q / (value.r * value.r)


def exact_compare(a: "ExactNumber", b: "ExactNumber") -> Sign:
    """Exact sign of a - b for real rationals or surds, in two squarings at most.

    a - b = d + e with d = u1 - u2 and e = t1*sqrt(q1) - t2*sqrt(q2).  The
    sign of e follows from q1 and q2; if d and e differ in sign, the sign of
    d**2 - e**2 = d**2 - q1 - q2 + 2*t1*t2*sqrt(q1*q2) decides.
    """
    (u1, t1, q1), (u2, t2, q2) = _offset_spread(a), _offset_spread(b)
    d = u1 - u2
    d_sign, e_sign = sign_of(d), Sign(t1 * sign_of(q1 - q2 if t1 == t2 else q1 + q2))
    if d_sign * e_sign >= 0:
        return d_sign or e_sign
    return Sign(d_sign * _sign_of_p_plus_t_root_q(d * d - q1 - q2, t1 * t2, 4 * q1 * q2))


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
