"""Path scanning: determinant quadratics, roots, and exchange events."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lvcompete import SystemParams, compute_determinants
from lvcompete.bifurcation import (
    DEFAULT_BRACKET_WIDTH,
    EventKind,
    ParameterPath,
    PathRoot,
    QuadraticPoly,
    WhichDeterminant,
    _roots_in_open_unit_interval,
    _sign_at_root,
    _signs_beside,
    determinant_polys,
    four_case_catalog,
    scan_path,
)
from lvcompete.equilibria import EquilibriumKind
from lvcompete.exact import QuadraticSurd, Sign, _compare_forms, exact_compare


rationals = st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=6)
param_sets = st.builds(
    SystemParams,
    b1=rationals, b2=rationals, a11=rationals,
    a12=rationals, a21=rationals, a22=rationals,
)

# The acceptance distribution: numerators 1-12 over denominators 1-4.
acceptance_rationals = st.builds(Fraction, st.integers(1, 12), st.integers(1, 4))
acceptance_params = st.builds(SystemParams, *[acceptance_rationals] * 6)


@given(start=param_sets, end=param_sets,
       s=st.fractions(min_value=0, max_value=1, max_denominator=128))
def test_determinant_polys_match_pointwise_evaluation(start, end, s):
    """The path quadratics must agree exactly with computing the
    determinants at the interpolated parameters — same rationals, no
    approximation anywhere."""
    path = ParameterPath(start=start, end=end)
    polys = determinant_polys(path)
    direct = compute_determinants(path.at(s))
    assert polys[WhichDeterminant.D12](s) == direct.d12
    assert polys[WhichDeterminant.D112](s) == direct.d112
    assert polys[WhichDeterminant.D122](s) == direct.d122


def test_path_coordinate_is_validated():
    path = ParameterPath(
        start=SystemParams.from_pairs((3, 4), ((1, 1), (1, 2))),
        end=SystemParams.from_pairs((2, 6), ((1, 1), (1, 2))),
    )
    assert path.at(0) == path.start
    assert path.at(1) == path.end
    for bad in (Fraction(-1, 100), Fraction(101, 100)):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            path.at(bad)


def test_rational_and_irrational_roots_never_coincide():
    poly = QuadraticPoly(c0=Fraction(-1, 2), c1=Fraction(2), c2=Fraction(1))
    rational = PathRoot(poly=poly, value=Fraction(1, 4), multiplicity=1, sign_change=True)
    # -1 + sqrt(3/2), the root of poly in (0, 1)
    bracketed = PathRoot(poly=poly, value=QuadraticSurd(Fraction(-1), Fraction(3, 2), Fraction(1)),
                         multiplicity=1, sign_change=True)
    assert rational.value != bracketed.value
    assert rational.value == rational.value
    assert bracketed.value == bracketed.value


# ---------------------------------------------------------------------------
# the four catalog exchanges

CATALOG_EXPECTATIONS = {
    "coexistence-to-axis2-dominance": dict(
        s_star=Fraction(1, 2), which=WhichDeterminant.D122,
        axis=EquilibriumKind.AXIS2, serials=(1, 3),
        collision=(Fraction(0), Fraction(5, 2)),
        axis_classes=("saddle", "stable node"),
    ),
    "coexistence-to-axis1-dominance": dict(
        s_star=Fraction(1, 2), which=WhichDeterminant.D112,
        axis=EquilibriumKind.AXIS1, serials=(1, 5),
        collision=(Fraction(3), Fraction(0)),
        axis_classes=("saddle", "stable node"),
    ),
    "bistability-to-axis2-dominance": dict(
        s_star=Fraction(1, 11), which=WhichDeterminant.D112,
        axis=EquilibriumKind.AXIS1, serials=(8, 3),
        collision=(Fraction(1, 4), Fraction(0)),
        axis_classes=("stable node", "saddle"),
    ),
    "bistability-to-axis1-dominance": dict(
        s_star=Fraction(1, 2), which=WhichDeterminant.D122,
        axis=EquilibriumKind.AXIS2, serials=(8, 5),
        collision=(Fraction(0), Fraction(1, 2)),
        axis_classes=("stable node", "saddle"),
    ),
}


@pytest.mark.parametrize("entry", four_case_catalog(), ids=lambda e: e.label)
def test_catalog_paths_cross_exactly_one_exchange(entry):
    expect = CATALOG_EXPECTATIONS[entry.label]
    assert entry.s_star == expect["s_star"]
    assert entry.which is expect["which"]
    assert (entry.serial_before, entry.serial_after) == expect["serials"]

    scan = scan_path(entry.path)
    assert len(scan.events) == 1
    event = scan.events[0]
    assert event.kind is EventKind.TRANSCRITICAL
    assert event.root.exact == expect["s_star"]  # exact collision parameter
    assert event.vanishing == (expect["which"],)
    assert (event.serial_before, event.serial_after) == expect["serials"]
    assert event.colliding_pair == (EquilibriumKind.INTERIOR, expect["axis"])
    assert event.collision_point == expect["collision"]


@pytest.mark.parametrize("entry", four_case_catalog(), ids=lambda e: e.label)
def test_catalog_exchanges_swap_stability(entry):
    """On either side of the collision the axis point and the interior point
    carry each other's full-plane class — the signature of a transcritical
    exchange, not a fold."""
    event = scan_path(entry.path).events[0]
    swap = event.swap
    expect = CATALOG_EXPECTATIONS[entry.label]
    assert swap is not None and swap.swapped
    assert (swap.axis_before, swap.axis_after) == expect["axis_classes"]
    assert (swap.interior_before, swap.interior_after) == \
        (expect["axis_classes"][1], expect["axis_classes"][0])


# ---------------------------------------------------------------------------
# other event kinds


def test_double_root_touch_changes_nothing():
    # d122 = (2s - 1)^2: grazes zero at s = 1/2 without a sign change.
    path = ParameterPath(
        start=SystemParams.from_pairs((1, 2), ((4, 2), (1, 3))),
        end=SystemParams.from_pairs((5, 4), ((4, 4), (1, 3))),
    )
    scan = scan_path(path)
    assert len(scan.events) == 1
    event = scan.events[0]
    assert event.kind is EventKind.TANGENTIAL_TOUCH
    assert event.root.exact == Fraction(1, 2)
    assert event.root.multiplicity == 2
    assert not event.root.sign_change
    assert event.serial_before == event.serial_after == 3
    assert event.sign_case_at.table6_serial == 2
    assert event.collision_point == (0, 1)
    assert event.swap is not None and not event.swap.swapped


def test_singular_interaction_matrix_hits_the_line_case():
    """With proportional interaction rows, d12 vanishes along the whole path
    and both minors cross zero together: the crossing is the fully
    degenerate portrait, flanked by the two one-species outcomes."""
    path = ParameterPath(
        start=SystemParams.from_pairs((Fraction(1, 2), 2), ((1, 2), (2, 4))),
        end=SystemParams.from_pairs((Fraction(3, 2), 2), ((1, 2), (2, 4))),
    )
    scan = scan_path(path)
    assert scan.identically_zero == {WhichDeterminant.D12}
    assert scan.polys[WhichDeterminant.D12].is_identically_zero
    assert len(scan.events) == 1
    event = scan.events[0]
    assert event.kind is EventKind.DEGENERATE_LINE
    assert event.root.exact == Fraction(1, 2)
    assert set(event.vanishing) == set(WhichDeterminant)
    assert event.sign_case_at.table6_serial == 9
    assert (event.serial_before, event.serial_after) == (3, 5)


def test_irrational_crossing_gets_a_tight_bracket():
    # d122 = s^2 + 2s - 1/2, whose positive root sqrt(3/2) - 1 is irrational.
    path = ParameterPath(
        start=SystemParams.from_pairs((Fraction(3, 2), 1), ((2, 1), (Fraction(1, 2), 1))),
        end=SystemParams.from_pairs((Fraction(3, 2), 2), ((2, 2), (Fraction(1, 2), 1))),
    )
    scan = scan_path(path)
    assert len(scan.events) == 1
    event = scan.events[0]
    assert event.kind is EventKind.TRANSCRITICAL
    root = event.root
    assert root.exact is None
    lo, hi = root.bracket
    assert hi - lo <= DEFAULT_BRACKET_WIDTH
    # Exact containment: the polynomial changes sign across the bracket.
    poly = scan.polys[WhichDeterminant.D122]
    assert poly(lo) * poly(hi) < 0
    assert root.approx == pytest.approx(math.sqrt(1.5) - 1.0, abs=1e-12)
    assert (event.serial_before, event.serial_after) == (1, 3)


@given(start=acceptance_params, end=acceptance_params)
def test_root_print_forms_derive_from_the_exact_value(start, end):
    """An irrational root prints as a grid cell that holds it and its
    midpoint; a rational one as itself.  Events run in exact order."""
    events = scan_path(ParameterPath(start=start, end=end)).events
    for event in events:
        root = event.root
        if root.exact is None:
            value = root.value
            assert isinstance(value, QuadraticSurd) and value.is_real
            assert value.as_rational() is None
            lo, hi = root.bracket
            assert exact_compare(lo, value) is Sign.NEG
            assert exact_compare(value, hi) is Sign.NEG
            assert hi - lo <= DEFAULT_BRACKET_WIDTH
            assert root.approx == float((lo + hi) / 2)
        else:
            assert root.bracket is None
            assert root.poly(root.exact) == 0
            assert root.approx == float(root.exact)
    for first, second in zip(events, events[1:]):
        assert exact_compare(first.root.value, second.root.value) is Sign.NEG


@pytest.mark.parametrize("spectator_root,expected", [
    (Fraction(705, 1000), Sign.POS),
    (Fraction(708, 1000), Sign.NEG),
], ids=["below", "above"])
def test_sign_at_root_shaves_a_bracket_that_straddles_the_spectator(spectator_root, expected):
    # sqrt(1/2) = 0.70711 lies in [0.7, 0.71], and so does the spectator's
    # root, so the bracket's end points cannot settle the spectator's sign;
    # the exact value at the surd sqrt(1/2) does.
    root = PathRoot(poly=QuadraticPoly(Fraction(-1, 2), Fraction(0), Fraction(1)),
                    value=QuadraticSurd(Fraction(0), Fraction(1, 2), Fraction(1)),
                    multiplicity=1, sign_change=True)
    spectator = QuadraticPoly(-spectator_root, Fraction(1), Fraction(0))
    assert _sign_at_root(spectator, root) is expected


def test_crossings_closer_than_the_bracket_width_stay_apart():
    """d122 = (s - 1/2)**2 - eps has the irrational roots 1/2 +- sqrt(eps),
    about 1.4e-20 from the vertex: both land in the 2**-64 cells that touch
    at 1/2.  They are two exchanges, out of and back into bistability, each
    with its own exact value and its own serials on either side."""
    eps = Fraction(2, 10 ** 40)
    path = ParameterPath(
        start=SystemParams.from_pairs((Fraction(3, 4) + eps, 1), ((1, 1), (1, 1))),
        end=SystemParams.from_pairs((Fraction(15, 4) + eps, 2), ((1, 2), (1, 1))),
    )
    poly = determinant_polys(path)[WhichDeterminant.D122]
    assert (poly.c1, poly.c2) == (-1, 1) and poly(Fraction(1, 2)) == -eps
    events = scan_path(path).events
    assert len(events) == 3
    assert events[0].vanishing == (WhichDeterminant.D112,)
    half, w = Fraction(1, 2), DEFAULT_BRACKET_WIDTH
    left, right = events[1:]
    for event, bracket, serials in ((left, (half - w, half), (8, 5)),
                                    (right, (half, half + w), (5, 8))):
        assert event.kind is EventKind.TRANSCRITICAL
        assert event.vanishing == (WhichDeterminant.D122,)
        assert event.root.bracket == bracket
        assert (event.serial_before, event.serial_after) == serials
    assert left.root.value != right.root.value


def test_roots_within_float_resolution_keep_their_exact_order():
    """d122 = (s - 1/2)**2 - eps as above, and a21 = c moves the d112 root to
    1/2 + delta and the d12 root just beyond it.  The four roots all print
    as 0.5; only exact comparison orders them, and only then do the serials
    chain."""
    eps, delta = Fraction(2, 10 ** 40), Fraction(1, 10 ** 30)
    c = (Fraction(3, 2) + delta) / (Fraction(9, 4) + eps + 3 * delta)
    events = scan_path(ParameterPath(
        start=SystemParams.from_pairs((Fraction(3, 4) + eps, 1), ((1, 1), (c, 1))),
        end=SystemParams.from_pairs((Fraction(15, 4) + eps, 2), ((1, 2), (c, 1))),
    )).events
    assert [ev.vanishing for ev in events] == [(WhichDeterminant.D122,), (WhichDeterminant.D112,),
                                              (WhichDeterminant.D12,), (WhichDeterminant.D122,)]
    assert [(ev.serial_before, ev.serial_after) for ev in events] == [(3, 1), (1, 5), (5, 5), (5, 8)]
    for event in events:
        if event.kind is EventKind.TRANSCRITICAL:
            assert event.swap.swapped


def test_exchange_reads_the_interior_class_at_the_root():
    """At the d112 root s ~ 0.00794 the interior trace changes sign less than
    1/2048 before the root; next to the root the interior point is still the
    stable node that the axis-1 saddle becomes."""
    path = ParameterPath(
        start=SystemParams.from_pairs((Fraction(1, 3), Fraction(3, 2)),
                                      ((Fraction(11, 3), 1), (Fraction(77, 6), Fraction(7, 2)))),
        end=SystemParams.from_pairs((12, Fraction(1, 2)),
                                    ((Fraction(2, 3), 5), (Fraction(7, 2), 4))),
    )
    event = next(ev for ev in scan_path(path).events
                 if ev.vanishing == (WhichDeterminant.D112,))
    assert event.swap.interior_before == "stable node"
    assert event.swap.swapped


def test_constant_path_has_no_events():
    p = SystemParams.from_pairs((3, 4), ((1, 1), (1, 2)))
    scan = scan_path(ParameterPath(start=p, end=p))
    assert scan.events == ()
    assert scan.identically_zero == frozenset()


def test_root_at_the_endpoint_is_not_an_event():
    # d122 = 2s vanishes exactly at s = 0; nothing changes sign inside (0, 1).
    path = ParameterPath(
        start=SystemParams.from_pairs((2, 4), ((1, 1), (1, 2))),
        end=SystemParams.from_pairs((2, 6), ((1, 1), (1, 2))),
    )
    assert scan_path(path).events == ()


def test_scan_serializes_to_plain_json_types():
    import json

    entry = four_case_catalog()[0]
    doc = scan_path(entry.path).to_json_dict()
    text = json.dumps(doc)
    assert "transcritical" in text
    assert doc["events"][0]["root"]["exact"] == "1/2"
    assert doc["events"][0]["collision_point"] == ["0", "5/2"]


# ---------------------------------------------------------------------------
# the integer root core against 300-digit decimals

#: Decimal results closer than this are ties: the families below keep every
#: distinct pair of roots, and every nonzero value at a root, far above it.
TIE = Decimal(10) ** -250
#: Beside a root means this far from it: distinct roots lie 10**-60 apart or more.
BESIDE = Decimal(10) ** -100

centres = st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2)]),
                    st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(3, 2),
                                 max_denominator=8))
small = st.fractions(min_value=-3, max_value=3, max_denominator=8)
tiny = st.builds(lambda j, e: Fraction(j, 10 ** e), st.integers(-9, 9),
                 st.sampled_from([20, 30, 40, 60]))


def product(k, *roots):
    """k times the product of (s - r) over one or two roots."""
    if len(roots) == 1:
        return QuadraticPoly(-k * roots[0], k, Fraction(0))
    r1, r2 = roots
    return QuadraticPoly(k * r1 * r2, -k * (r1 + r2), k)


@st.composite
def quadratics(draw, centre):
    """Linear, double-root, perfect-square, irrational and near-tie quadratics,
    most with a root at or within 10**-20 of the shared centre."""
    kind = draw(st.sampled_from(["any", "linear", "double", "rational", "irrational", "near"]))
    k = draw(small.filter(bool))
    if kind == "any":
        return QuadraticPoly(draw(small), draw(small), draw(small))
    if kind == "linear":
        return product(k, centre + draw(tiny))
    if kind == "double":
        return product(k, centre, centre)
    if kind == "rational":
        return product(k, centre, draw(small))
    # k*((s - c)**2 - q) about c at, within 10**-20 of, or near the centre:
    # irrational roots for a non-square q > 0, and roots 10**-10 to 10**-30
    # from c for a tiny q, so that two roots can differ in both parts.
    c = centre + draw(st.one_of(st.just(Fraction(0)), tiny, small.map(lambda x: x / 8)))
    q = draw(small) / 16 if kind == "irrational" else draw(tiny)
    double = product(k, c, c)
    return QuadraticPoly(double.c0 - k * q, double.c1, double.c2)


def to_decimal(x) -> Decimal:
    if isinstance(x, QuadraticSurd):
        return (to_decimal(x.p) + x.branch * to_decimal(x.q).sqrt()) / to_decimal(x.r)
    return Decimal(x.numerator) / Decimal(x.denominator)


def decimal_sign(x: Decimal) -> Sign:
    return Sign.ZERO if abs(x) < TIE else (Sign.POS if x > 0 else Sign.NEG)


def evaluate(poly: QuadraticPoly, s: Decimal) -> Decimal:
    return to_decimal(poly.c0) + s * (to_decimal(poly.c1) + s * to_decimal(poly.c2))


def decimal_roots(poly: QuadraticPoly):
    """The real roots of poly as (decimal value, multiplicity, is rational)."""
    c0, c1, c2 = poly.c0, poly.c1, poly.c2
    if c2 == 0:
        return [] if c1 == 0 else [(to_decimal(-c0 / c1), 1, True)]
    disc = c1 * c1 - 4 * c0 * c2
    if disc < 0:
        return []
    if disc == 0:
        return [(to_decimal(-c1) / to_decimal(2 * c2), 2, True)]
    square = disc.numerator * disc.denominator
    rational = math.isqrt(square) ** 2 == square
    root = to_decimal(disc).sqrt()
    return sorted(((to_decimal(-c1) + t * root) / to_decimal(2 * c2), 1, rational)
                  for t in (-1, 1))


def check_against_decimals(polys):
    """Roots in (0, 1), their order and the signs of every determinant at and
    beside them, decided on integers, agree with 300-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 300
        located = []
        for poly in polys:
            roots = _roots_in_open_unit_interval(poly)
            expected = [r for r in decimal_roots(poly) if TIE < r[0] < 1 - TIE]
            assert len(roots) == len(expected)
            for root, (value, multiplicity, rational) in zip(roots, expected):
                assert abs(to_decimal(root.value) - value) < TIE
                assert (root.multiplicity, root.sign_change) == (multiplicity, multiplicity == 1)
                assert (root.exact is not None) == rational
            located += [(root, to_decimal(root.value)) for root in roots]
        for root, value in located:
            for other, other_value in located:
                assert _compare_forms(root._form, other._form) is decimal_sign(value - other_value)
            for poly in polys:
                signs = tuple(decimal_sign(evaluate(poly, value + h)) for h in (-BESIDE, 0, BESIDE))
                assert _sign_at_root(poly, root) is signs[1]
                assert _signs_beside(poly, root) == signs


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_integer_root_core_agrees_with_300_digit_decimals(data):
    centre = data.draw(centres)
    check_against_decimals(data.draw(st.lists(quadratics(centre), min_size=1, max_size=3)))


EPS, DELTA = Fraction(2, 10 ** 40), Fraction(1, 10 ** 30)


@pytest.mark.parametrize("polys", [
    # 1/2 + sqrt(1/50) ~ 0.641 against 3/10 + sqrt(1/10) ~ 0.616: the rational
    # parts and the surds disagree, and only the second squaring orders them.
    [QuadraticPoly(Fraction(23, 100), Fraction(-1), Fraction(1)),
     QuadraticPoly(Fraction(-1, 100), Fraction(-3, 5), Fraction(1))],
    # 1/2 -+ sqrt(eps) and 1/2 + delta, all 0.5 as floats.
    [QuadraticPoly(Fraction(1, 4) - EPS, Fraction(-1), Fraction(1)),
     QuadraticPoly(-Fraction(1, 2) - DELTA, Fraction(1), Fraction(0))],
], ids=["second-squaring", "float-ties"])
def test_integer_root_core_on_fixed_near_ties(polys):
    check_against_decimals(polys)
