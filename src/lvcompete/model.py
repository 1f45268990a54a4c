"""Exact parameter model for the planar competitive Lotka-Volterra system.

The system is

    x1' = x1 * (b1 - a11*x1 - a12*x2)
    x2' = x2 * (b2 - a21*x1 - a22*x2)

with all six parameters strictly positive.  Its qualitative behaviour is
decided entirely by the signs of three 2x2 determinants: the interaction
determinant ``d12 = a11*a22 - a12*a21`` and the two growth-rate minors
``d112 = a11*b2 - a21*b1`` and ``d122 = a12*b2 - a22*b1``.  This module keeps
parameters as exact rationals so those signs are computed without rounding.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from .exact import Sign, sign_of

__all__ = [
    "ParameterError",
    "SystemParams",
    "DeterminantTriple",
    "ContradictionFamily",
    "SignCase",
    "NotRealizable",
    "compute_determinants",
    "rhs_exact",
    "sign_case",
    "all_sign_cases",
    "feasible_sign_triples",
    "sample_params",
    "sign_census",
    "DEFAULT_CENSUS_GRID",
]


class ParameterError(ValueError):
    """Raised for parameter sets outside the competitive regime (> 0 each)."""


RationalLike = Union[Fraction, int, str, float]

_PARAM_NAMES = ("b1", "b2", "a11", "a12", "a21", "a22")


def as_fraction(value: RationalLike) -> Fraction:
    """Convert to an exact rational.

    Strings may be integers ("3"), fractions ("1/2") or decimals ("0.25");
    decimals convert exactly, digit for digit.  Floats are converted through
    their shortest decimal representation so that e.g. 0.1 becomes 1/10 rather
    than the binary expansion.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParameterError(f"not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        value = repr(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParameterError(f"not a rational value: {value!r}") from exc
    raise ParameterError(f"not a rational value: {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """The six positive rational parameters of the system."""

    b1: Fraction
    b2: Fraction
    a11: Fraction
    a12: Fraction
    a21: Fraction
    a22: Fraction

    #: Facts computed once per parameter set and kept on the instance by
    #: ``compute_determinants`` and ``equilibria.find_equilibria``.  They are
    #: not fields: equality, hashing, repr and pickling never see them.
    _determinants = None
    _equilibria = None

    def __post_init__(self) -> None:
        for name in _PARAM_NAMES:
            value = getattr(self, name)
            if type(value) is not Fraction:
                value = as_fraction(value)
                object.__setattr__(self, name, value)
            if value.numerator <= 0:
                raise ParameterError(f"{name} must be positive (got {value})")

    @classmethod
    def from_pairs(
        cls,
        b: Sequence[RationalLike],
        a: Sequence[Sequence[RationalLike]],
    ) -> "SystemParams":
        (b1, b2) = b
        ((a11, a12), (a21, a22)) = a
        return cls(b1=as_fraction(b1), b2=as_fraction(b2),
                   a11=as_fraction(a11), a12=as_fraction(a12),
                   a21=as_fraction(a21), a22=as_fraction(a22))

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SystemParams":
        try:
            b = data["b"]
            a = data["a"]
        except (KeyError, TypeError) as exc:
            raise ParameterError('expected keys "b" (pair) and "a" (2x2 matrix)') from exc

        def is_pair(value) -> bool:
            # A string has a length too, but its characters are no numbers.
            return not isinstance(value, str) and len(value) == 2

        try:
            shaped = is_pair(b) and is_pair(a) and all(is_pair(row) for row in a)
        except TypeError:  # an entry without a length, e.g. "a": 5
            shaped = False
        if not shaped:
            raise ParameterError('"b" must have 2 entries and "a" must be 2x2')
        return cls.from_pairs(b, a)

    def __getstate__(self) -> dict:
        # The six fields only; an unpickled copy recomputes the kept facts.
        return {name: getattr(self, name) for name in _PARAM_NAMES}

    def to_json_dict(self) -> dict:
        return {
            "b": [str(self.b1), str(self.b2)],
            "a": [[str(self.a11), str(self.a12)], [str(self.a21), str(self.a22)]],
        }

    def as_float_tuple(self) -> Tuple[float, float, float, float, float, float]:
        """(b1, b2, a11, a12, a21, a22) as floats, for the numerical layer."""
        return (float(self.b1), float(self.b2), float(self.a11),
                float(self.a12), float(self.a21), float(self.a22))

    def __str__(self) -> str:
        return (f"b=({self.b1},{self.b2}) "
                f"a=(({self.a11},{self.a12}),({self.a21},{self.a22}))")


@dataclass(frozen=True)
class DeterminantTriple:
    """The three determinants that decide the portrait, as exact rationals."""

    d12: Fraction
    d112: Fraction
    d122: Fraction
    #: (sign d12, sign d112, sign d122), read once on construction.
    signs: Tuple[Sign, Sign, Sign] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "signs",
                           (sign_of(self.d12), sign_of(self.d112), sign_of(self.d122)))

    def to_json_dict(self) -> dict:
        return {"d12": str(self.d12), "d112": str(self.d112), "d122": str(self.d122)}


def compute_determinants(params: SystemParams) -> DeterminantTriple:
    """Interaction determinant and the two growth-rate minors.

    ``d122`` carries the sign convention that makes the interior equilibrium
    come out as ``(-d122/d12, d112/d12)``.  The triple is computed once per
    ``params`` object and kept on it.
    """
    kept = params._determinants
    # A triple of another import of this module (a re-imported package) is
    # another class: it is recomputed rather than handed to this import.
    if type(kept) is DeterminantTriple:
        return kept
    p = params
    # Each minor a*b - c*d by integer cross-multiplication, normalised once;
    # each parameter's numerator and denominator are read once.
    nb1, qb1 = p.b1.numerator, p.b1.denominator
    nb2, qb2 = p.b2.numerator, p.b2.denominator
    n11, q11 = p.a11.numerator, p.a11.denominator
    n12, q12 = p.a12.numerator, p.a12.denominator
    n21, q21 = p.a21.numerator, p.a21.denominator
    n22, q22 = p.a22.numerator, p.a22.denominator
    kept = DeterminantTriple(
        d12=Fraction(n11 * n22 * q12 * q21 - n12 * n21 * q11 * q22, q11 * q22 * q12 * q21),
        d112=Fraction(n11 * nb2 * q21 * qb1 - n21 * nb1 * q11 * qb2, q11 * qb2 * q21 * qb1),
        d122=Fraction(n12 * nb2 * q22 * qb1 - n22 * nb1 * q12 * qb2, q12 * qb2 * q22 * qb1),
    )
    object.__setattr__(params, "_determinants", kept)
    return kept


def rhs_exact(params: SystemParams, x1: Fraction, x2: Fraction) -> Tuple[Fraction, Fraction]:
    """Right-hand side evaluated in exact rational arithmetic."""
    return (
        x1 * (params.b1 - params.a11 * x1 - params.a12 * x2),
        x2 * (params.b2 - params.a21 * x1 - params.a22 * x2),
    )


class ContradictionFamily(Enum):
    """Why a sign triple cannot be realised by positive parameters.

    Each member names the algebraic obstruction, keyed by the shape of the
    triple (interaction determinant sign, minor signs).
    """

    #: (+,-,+) / (-,+,-): cross-multiplying the two minor inequalities by the
    #: positive coefficients contradicts the sign of d12.
    CROSS_MULTIPLIED_MINORS = "cross-multiplied minors"
    #: d122 = 0 forces sgn(d112) = sgn(d12), ruling out (+,-,0) and (-,+,0).
    ZERO_D122_LINKS_SIGNS = "zero d122 links d112 to d12"
    #: d112 = 0 forces sgn(d122) = -sgn(d12), ruling out (+,0,+) and (-,0,-).
    ZERO_D112_LINKS_SIGNS = "zero d112 links d122 to d12"
    #: both minors zero forces d12 = 0, ruling out (+,0,0) and (-,0,0).
    BOTH_MINORS_ZERO_FORCES_SINGULAR = "both minors zero forces d12 = 0"
    #: d12 = 0 makes the minor ratio equal the row ratio, so the minors
    #: cannot have opposite signs.
    SINGULAR_WITH_OPPOSITE_MINORS = "d12 = 0 with opposite-sign minors"
    #: d12 = 0 ties the minors together: one vanishes iff both do.
    SINGULAR_WITH_LONE_ZERO_MINOR = "d12 = 0 with exactly one zero minor"


@dataclass(frozen=True)
class SignCase:
    """Feasibility verdict for one of the 27 sign triples."""

    triple: Tuple[Sign, Sign, Sign]
    feasible: bool
    table6_serial: Optional[int] = None
    contradiction: Optional[ContradictionFamily] = None

    #: The JSON document, built once on construction; ``to_json_dict`` copies it.
    _json: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        out: dict = {"signs": [s.glyph for s in self.triple], "feasible": self.feasible}
        if self.table6_serial is not None:
            out["table6_serial"] = self.table6_serial
        if self.contradiction is not None:
            out["contradiction"] = self.contradiction.value
        object.__setattr__(self, "_json", out)

    @property
    def glyphs(self) -> str:
        return "".join(s.glyph for s in self.triple)

    def to_json_dict(self) -> dict:
        return {**self._json, "signs": list(self._json["signs"])}


_P, _Z, _N = Sign.POS, Sign.ZERO, Sign.NEG

# The 13 realisable triples and their portrait serial (1-9).  Triples sharing
# a serial have the same qualitative portrait on the full plane.
_SERIAL_BY_TRIPLE: Dict[Tuple[Sign, Sign, Sign], int] = {
    (_P, _P, _N): 1,
    (_P, _P, _Z): 2,
    (_P, _P, _P): 3,
    (_N, _P, _P): 3,
    (_Z, _P, _P): 3,
    (_P, _Z, _N): 4,
    (_P, _N, _N): 5,
    (_N, _N, _N): 5,
    (_Z, _N, _N): 5,
    (_N, _Z, _P): 6,
    (_N, _N, _Z): 7,
    (_N, _N, _P): 8,
    (_Z, _Z, _Z): 9,
}


def _contradiction_for(triple: Tuple[Sign, Sign, Sign]) -> ContradictionFamily:
    s12, s112, s122 = triple
    if s12 is Sign.ZERO:
        if s112 is not Sign.ZERO and s122 is not Sign.ZERO:
            return ContradictionFamily.SINGULAR_WITH_OPPOSITE_MINORS
        return ContradictionFamily.SINGULAR_WITH_LONE_ZERO_MINOR
    if s112 is Sign.ZERO and s122 is Sign.ZERO:
        return ContradictionFamily.BOTH_MINORS_ZERO_FORCES_SINGULAR
    if s122 is Sign.ZERO:
        return ContradictionFamily.ZERO_D122_LINKS_SIGNS
    if s112 is Sign.ZERO:
        return ContradictionFamily.ZERO_D112_LINKS_SIGNS
    return ContradictionFamily.CROSS_MULTIPLIED_MINORS


def sign_case(
    source: Union[DeterminantTriple, Tuple[Sign, Sign, Sign]],
) -> SignCase:
    """Feasibility and portrait serial for a determinant sign triple; only
    values that are not ``Sign`` members are checked with ``Sign(s)``."""
    if isinstance(source, DeterminantTriple):
        return _SIGN_CASES[_triple_key(source.signs)]
    triple = tuple(source)
    if len(triple) != 3:
        raise ValueError("expected a triple of signs")
    if not type(triple[0]) is type(triple[1]) is type(triple[2]) is Sign:
        triple = tuple(Sign(s) for s in triple)
    return _SIGN_CASES[_triple_key(triple)]


def _triple_key(signs: Tuple[Sign, Sign, Sign]) -> int:
    """The key 9*s12 + 3*s112 + s122 of a sign triple in ``_SIGN_CASES`` and
    ``classifier._ROWS``: an int hashes faster than three enum members."""
    s12, s112, s122 = signs
    return 9 * s12 + 3 * s112 + s122


def _build_sign_case(triple: Tuple[Sign, Sign, Sign]) -> SignCase:
    serial = _SERIAL_BY_TRIPLE.get(triple)
    if serial is not None:
        return SignCase(triple=triple, feasible=True, table6_serial=serial)
    return SignCase(triple=triple, feasible=False,
                    contradiction=_contradiction_for(triple))


#: All 27 verdicts, built once and keyed by ``_triple_key``; ``SignCase`` is
#: frozen, so they are shared.
_SIGN_CASES: Dict[int, SignCase] = {
    _triple_key(t): _build_sign_case(t)
    for t in itertools.product((Sign.POS, Sign.ZERO, Sign.NEG), repeat=3)
}


def all_sign_cases() -> Tuple[SignCase, ...]:
    """All 27 triples, classified."""
    return tuple(_SIGN_CASES.values())


def feasible_sign_triples() -> Tuple[Tuple[Sign, Sign, Sign], ...]:
    return tuple(_SERIAL_BY_TRIPLE)


class NotRealizable(Exception):
    """Requested sign triple was not hit within the sampling budget.

    For the provably impossible triples this is the expected outcome; the
    exception records how much work was spent before giving up.
    """

    def __init__(self, triple: Tuple[Sign, Sign, Sign], attempts: int):
        self.triple = triple
        self.attempts = attempts
        glyphs = "".join(s.glyph for s in triple)
        super().__init__(f"no parameters with sign triple ({glyphs}) after {attempts} attempts")


#: Rejection budget of :func:`sample_params`.
_SAMPLE_ATTEMPTS = 100_000


def sample_params(target: Tuple[Sign, Sign, Sign], rng_seed: int = 0) -> SystemParams:
    """Rejection-sample positive rationals realising a target sign triple.

    Each parameter is drawn as n/d with n in 1..12 and d in 1..4.  Zero
    targets are honoured constructively (a determinant is pinned to zero
    by solving for one parameter) and the remaining signs by rejection.
    Raises :class:`NotRealizable` after 100,000 attempts
    (``_SAMPLE_ATTEMPTS``), which is the guaranteed outcome for the 14
    impossible triples.
    """
    triple = tuple(Sign(s) for s in target)
    s12, s112, s122 = triple
    rng = random.Random(rng_seed)

    def draw() -> Fraction:
        return Fraction(rng.randint(1, 12), rng.randint(1, 4))

    for _ in range(_SAMPLE_ATTEMPTS):
        b1, b2, a11, a12, a21, a22 = (draw() for _ in range(6))
        if s12 is Sign.ZERO:
            a21 = a11 * a22 / a12
        if s112 is Sign.ZERO:
            b2 = a21 * b1 / a11
        if s122 is Sign.ZERO and not (s112 is Sign.ZERO and s12 is Sign.ZERO):
            # With d12 = d112 = 0 already pinned, d122 = 0 holds identically.
            b1 = a12 * b2 / a22
        params = SystemParams(b1=b1, b2=b2, a11=a11, a12=a12, a21=a21, a22=a22)
        if compute_determinants(params).signs == triple:
            return params
    raise NotRealizable(triple, _SAMPLE_ATTEMPTS)


#: Grid used by :func:`sign_census`; chosen so that every realisable triple
#: has a witness with all six parameters on the grid.
DEFAULT_CENSUS_GRID: Tuple[Fraction, ...] = (
    Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4),
)


def sign_census() -> Dict[Tuple[Sign, Sign, Sign], SystemParams]:
    """Exhaustively enumerate ``DEFAULT_CENSUS_GRID`` and collect realised triples.

    Returns one witness parameter set per distinct sign triple: exactly the
    13 feasible triples appear.
    """
    grid = DEFAULT_CENSUS_GRID
    witnesses: Dict[Tuple[Sign, Sign, Sign], SystemParams] = {}
    for a11, a12, a21, a22 in itertools.product(grid, repeat=4):
        d12 = a11 * a22 - a12 * a21
        s12 = sign_of(d12)
        for b1, b2 in itertools.product(grid, repeat=2):
            triple = (s12, sign_of(a11 * b2 - a21 * b1), sign_of(a12 * b2 - a22 * b1))
            if triple not in witnesses:
                witnesses[triple] = SystemParams(
                    b1=b1, b2=b2, a11=a11, a12=a12, a21=a21, a22=a22
                )
    return witnesses
