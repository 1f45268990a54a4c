"""Exact sign and surd arithmetic.

These helpers underpin every classification decision, so they get checked
against plain float evaluation on a wide sweep of rational inputs.
"""

from __future__ import annotations

import ast
import dataclasses
import decimal
import inspect
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lvcompete import (
    ExactNumber,
    QuadraticSurd,
    Sign,
    exact_real_part_sign,
    exact_to_complex,
    exact_to_json,
    rational_sqrt,
    sign_of,
)
import lvcompete
from lvcompete.exact import _floor_of_form, _integer_form, exact_compare

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


def test_sign_glyph_round_trip():
    for s in Sign:
        assert Sign.from_glyph(s.glyph) is s
    assert Sign.NEG.glyph == "-"
    assert Sign.ZERO.glyph == "0"
    assert Sign.POS.glyph == "+"


def test_sign_from_bad_glyph():
    with pytest.raises(ValueError):
        Sign.from_glyph("±")


def test_sign_compares_with_zero():
    assert Sign.NEG < 0 < Sign.POS
    assert Sign.ZERO == 0


@given(rationals)
def test_sign_of_matches_comparison(x):
    s = sign_of(x)
    assert (s is Sign.POS) == (x > 0)
    assert (s is Sign.NEG) == (x < 0)
    assert (s is Sign.ZERO) == (x == 0)


@pytest.mark.parametrize("value, expected", [
    (Fraction(10**400 + 1, 10**400), Sign.POS),
    (Fraction(-1, 10**400), Sign.NEG),
    (-(10**400), Sign.NEG),
    (Fraction(0), Sign.ZERO),
    (0, Sign.ZERO),
    (-7, Sign.NEG),
    (2.5e-300, Sign.POS),
    (-1e300, Sign.NEG),
    (-0.0, Sign.ZERO),
    (float("inf"), Sign.POS),
])
def test_sign_of_huge_negative_zero_and_float_inputs(value, expected):
    assert sign_of(value) is expected


def test_rational_sqrt_exact_cases():
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(4, 9)) == Fraction(2, 3)
    assert rational_sqrt(Fraction(49)) == 7
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(8, 2)) == 2  # normalises to 4/1 first


def test_rational_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        rational_sqrt(Fraction(-1))


@given(st.fractions(min_value=Fraction(0), max_value=Fraction(30), max_denominator=12))
def test_rational_sqrt_agrees_with_float(x):
    r = rational_sqrt(x)
    if r is not None:
        assert r >= 0
        assert r * r == x
    else:
        # irrational: the float root must not be a representable exact root
        assert Fraction(math.isqrt(x.numerator), max(1, math.isqrt(x.denominator))) ** 2 != x


def test_surd_normalises_negative_denominator():
    s = QuadraticSurd(Fraction(1), Fraction(2), Fraction(-3), branch=1)
    assert s.r == 3
    assert s.p == -1
    assert s.branch == -1
    assert s.to_float() == pytest.approx((1 + math.sqrt(2)) / -3)


def test_surd_validation():
    with pytest.raises(ValueError):
        QuadraticSurd(Fraction(1), Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        QuadraticSurd(Fraction(1), Fraction(1), Fraction(1), branch=2)


def test_surd_known_value():
    # (-4 + sqrt(8)) / 2 = -2 + sqrt(2): negative
    s = QuadraticSurd(Fraction(-4), Fraction(8), Fraction(2), branch=1)
    assert s.is_real
    assert s.real_part_sign() is Sign.NEG
    assert s.to_float() == pytest.approx(-2 + math.sqrt(2))
    assert s.as_rational() is None


def test_surd_collapses_to_rational():
    s = QuadraticSurd(Fraction(1), Fraction(4), Fraction(1), branch=1)
    assert s.as_rational() == 3
    assert exact_to_json(s) == "3"


def test_complex_surd_sign_queries():
    s = QuadraticSurd(Fraction(-3), Fraction(-4), Fraction(2), branch=1)
    assert not s.is_real
    assert s.real_part_sign() is Sign.NEG
    with pytest.raises(ValueError):
        exact_compare(s, Fraction(0))
    with pytest.raises(ValueError):
        s.to_float()
    z = s.to_complex()
    assert z.real == pytest.approx(-1.5)
    assert abs(z.imag) == pytest.approx(1.0)


@given(rationals, rationals.filter(lambda q: q != 0), st.sampled_from([-1, 1]))
def test_surd_sign_matches_float(p, q, branch):
    r = Fraction(2)
    s = QuadraticSurd(p, abs(q), r, branch=branch)
    value = (float(p) + branch * math.sqrt(float(abs(q)))) / float(r)
    if abs(value) > 1e-9:  # away from the float round-off zone
        assert s.real_part_sign() == sign_of(Fraction(1) if value > 0 else Fraction(-1))
    assert s.to_float() == pytest.approx(value)


def floor_of(s: QuadraticSurd) -> int:
    return _floor_of_form(*_integer_form(s))


@given(rationals, rationals, rationals.filter(lambda r: r != 0), st.sampled_from([-1, 1]))
def test_surd_floor_brackets_the_value_exactly(p, q, r, branch):
    s = QuadraticSurd(p, abs(q), r, branch=branch)
    k = floor_of(s)
    # s - j = (p - j*r + branch*sqrt(q)) / r, signed exactly.
    assert QuadraticSurd(p - k * r, abs(q), r, branch=branch).real_part_sign() >= 0
    assert QuadraticSurd(p - (k + 1) * r, abs(q), r, branch=branch).real_part_sign() < 0
    if s.as_rational() is not None:
        assert k == math.floor(s.as_rational())


def test_surd_floor_known_values():
    assert floor_of(QuadraticSurd(Fraction(-4), Fraction(8), Fraction(2))) == -1
    assert floor_of(QuadraticSurd(Fraction(-4), Fraction(8), Fraction(2), branch=-1)) == -4
    assert floor_of(QuadraticSurd(Fraction(1), Fraction(4), Fraction(1), branch=-1)) == -1
    with pytest.raises(ValueError):
        floor_of(QuadraticSurd(Fraction(1), Fraction(-4), Fraction(1)))


@given(rationals)
def test_exact_helpers_on_rationals(x):
    assert exact_real_part_sign(x) is sign_of(x)
    assert exact_to_complex(x) == complex(float(x))
    assert exact_to_json(x) == str(x)


def test_exact_json_for_irrational_surd():
    s = QuadraticSurd(Fraction(-4), Fraction(8), Fraction(2))
    d = exact_to_json(s)
    assert d == {"p": "-4", "q": "8", "r": "2", "branch": 1}


real_surds = st.builds(
    lambda p, q, r, branch: QuadraticSurd(p, abs(q), r, branch=branch),
    rationals, rationals, rationals.filter(lambda r: r != 0), st.sampled_from([-1, 1]),
)
exact_numbers = st.one_of(rationals, real_surds)


def as_float(x: ExactNumber) -> float:
    return x.to_float() if isinstance(x, QuadraticSurd) else float(x)


@given(exact_numbers, exact_numbers)
def test_exact_compare_is_antisymmetric(x, y):
    assert exact_compare(x, y) is Sign(-exact_compare(y, x))


@given(real_surds, st.integers(-9, 9).filter(lambda k: k != 0))
def test_exact_compare_is_zero_exactly_for_equal_values(s, k):
    # (k*p + branch*sqrt(k**2*q)) / (k*r) is the same number written otherwise.
    twin = QuadraticSurd(k * s.p, k * k * s.q, k * s.r, branch=s.branch if k > 0 else -s.branch)
    assert exact_compare(s, s) is Sign.ZERO
    assert exact_compare(s, twin) is Sign.ZERO
    rational = s.as_rational()
    if rational is not None:
        assert exact_compare(s, rational) is Sign.ZERO
    else:
        assert exact_compare(s, Fraction(s.to_float())) is not Sign.ZERO


@given(exact_numbers, exact_numbers)
def test_exact_compare_agrees_with_float_order(x, y):
    fx, fy = as_float(x), as_float(y)
    if abs(fx - fy) > 1e-9:
        assert exact_compare(x, y) is (Sign.POS if fx > fy else Sign.NEG)


@given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6), st.sampled_from([-1, 1]),
       st.sampled_from([-1, 1]), st.integers(1, 10 ** 9), st.integers(-2, 2))
def test_exact_compare_when_the_differences_nearly_cancel(a, b, t1, t2, scale, nudge):
    """x = u + t1*sqrt(a) and y = t2*sqrt(b) with u a rational within about
    1/scale of t2*sqrt(b) - t1*sqrt(a): the rational and surd parts of x - y
    differ in sign and nearly cancel, so the cross term of the second
    squaring decides.  A 60-digit decimal evaluation is the reference."""
    u = Fraction(round((t2 * math.sqrt(b) - t1 * math.sqrt(a)) * scale) + nudge, scale)
    x = QuadraticSurd(u, Fraction(a), Fraction(1), branch=t1)
    y = QuadraticSurd(Fraction(0), Fraction(b), Fraction(1), branch=t2)
    with decimal.localcontext(decimal.Context(prec=60)):
        gap = (decimal.Decimal(u.numerator) / u.denominator
               + t1 * decimal.Decimal(a).sqrt() - t2 * decimal.Decimal(b).sqrt())
    assert exact_compare(x, y) is Sign((gap > 0) - (gap < 0))
    assert exact_compare(y, x) is Sign((gap < 0) - (gap > 0))


def test_exact_compare_orders_roots_that_floats_tie():
    # 1/2 -+ sqrt(2e-40) and 1/2 + 1e-30 all round to 0.5.
    half, eps, delta = Fraction(1, 2), Fraction(2, 10 ** 40), Fraction(1, 10 ** 30)
    low, high = (QuadraticSurd(half, eps, Fraction(1), branch=t) for t in (-1, 1))
    assert low.to_float() == high.to_float() == float(half + delta) == 0.5
    assert exact_compare(low, half + delta) is Sign.NEG
    assert exact_compare(high, half + delta) is Sign.POS
    assert exact_compare(low, high) is Sign.NEG


# ---------------------------------------------------------------------------
# The exact layer stays float-free

#: The only places in the exact layer that call the builtin ``float``: print
#: forms and hand-offs to the numerical layer.
FLOAT_HELPERS = {
    ("exact.py", "QuadraticSurd.to_complex"),
    ("exact.py", "QuadraticSurd.to_float"),
    ("exact.py", "exact_to_complex"),
    ("model.py", "SystemParams.as_float_tuple"),
    ("equilibria.py", "Equilibrium.float_position"),
    ("bifurcation.py", "PathRoot.approx"),
}


def _float_calls(tree: ast.AST, scope: str = ""):
    """Qualified names of the functions that call ``float(...)`` directly."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _float_calls(node, f"{scope}.{node.name}".lstrip("."))
            continue
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"):
            yield scope or "<module>"
        yield from _float_calls(node, scope)


def test_exact_layer_calls_float_only_in_print_and_hand_off_helpers():
    package = Path(lvcompete.__file__).parent
    found = {
        (name, scope)
        for name in ("exact.py", "model.py", "equilibria.py", "classifier.py", "bifurcation.py")
        for scope in _float_calls(ast.parse((package / name).read_text()))
    }
    assert found == FLOAT_HELPERS


# ---------------------------------------------------------------------------
# The settable surface only changes on purpose

#: Every field of the option records, and every parameter of the entry points
#: that take numerical or sampling settings.  A new knob or exported name
#: shows up as an edit here.
OPTION_FIELDS = {
    "IntegratorOptions": ("rel_tol", "abs_tol", "conv_tol", "escape_bound",
                          "fixed_step", "stop_condition", "sample_every"),
    "ProbeProtocol": ("probe_count", "scope", "settle_tol"),
    "PortraitSpec": ("scope",),
}
ENTRY_POINT_PARAMETERS = {
    "integrate": ("params", "initial", "horizon", "opts"),
    "empirical_stability": ("params", "eq", "protocol"),
    "lyapunov_verify": ("params", "which", "sample_count", "seed"),
    "sample_params": ("target", "rng_seed"),
    "find_equilibria": ("params", "include_off_quadrant"),
    "render_portrait": ("params", "spec"),
}


def test_settable_surface_is_pinned():
    for name, expected in OPTION_FIELDS.items():
        fields = dataclasses.fields(getattr(lvcompete, name))
        assert tuple(f.name for f in fields) == expected, name
    for name, expected in ENTRY_POINT_PARAMETERS.items():
        signature = inspect.signature(getattr(lvcompete, name))
        assert tuple(signature.parameters) == expected, name
    exported = lvcompete.__all__
    assert len(exported) == len(set(exported)) == 84
    assert all(hasattr(lvcompete, name) for name in exported)
