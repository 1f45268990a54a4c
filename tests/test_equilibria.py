"""Equilibrium coordinates, exact eigenvalues and degeneracy tagging."""

from __future__ import annotations

import importlib
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lvcompete as lv
from lvcompete import (
    EigenPair,
    Equilibrium,
    EquilibriumKind,
    EquilibriumLine,
    NullclineBranch,
    QuadraticSurd,
    Sign,
    SystemParams,
    find_equilibria,
    jacobian_at,
    nullclines,
    rhs_exact,
)
from lvcompete.equilibria import _order_limit
from lvcompete.exact import rational_sqrt

positive = st.fractions(
    min_value=Fraction(1, 8), max_value=Fraction(8), max_denominator=8
)
params_strategy = st.builds(
    SystemParams, b1=positive, b2=positive,
    a11=positive, a12=positive, a21=positive, a22=positive,
)

K = EquilibriumKind


def by_kind(params, kind, **kwargs):
    for e in find_equilibria(params, **kwargs):
        if isinstance(e, Equilibrium) and e.kind is kind:
            return e
    raise AssertionError(f"no {kind} equilibrium")


def exact_sum_and_product(pair: EigenPair):
    """Exact trace/determinant reconstruction from an eigenvalue pair."""
    l1, l2 = pair.lambda1, pair.lambda2
    if isinstance(l1, Fraction) and isinstance(l2, Fraction):
        return l1 + l2, l1 * l2
    assert isinstance(l1, QuadraticSurd) and isinstance(l2, QuadraticSurd)
    assert (l1.p, l1.q, l1.r) == (l2.p, l2.q, l2.r) and l1.branch == -l2.branch
    return 2 * l1.p / l1.r, (l1.p * l1.p - l1.q) / (l1.r * l1.r)


@given(params_strategy)
def test_every_reported_equilibrium_is_a_rest_point(p):
    for e in find_equilibria(p):
        if isinstance(e, EquilibriumLine):
            alphas = [e.alpha_min, (e.alpha_min + e.alpha_max) / 2, e.alpha_max]
            members = [e.member(a) for a in alphas]
        else:
            members = [e]
        for m in members:
            assert rhs_exact(p, m.x1, m.x2) == (0, 0)


@given(params_strategy)
def test_eigenvalues_match_jacobian_trace_and_determinant(p):
    for e in find_equilibria(p, include_off_quadrant=True):
        if isinstance(e, EquilibriumLine):
            continue
        (j11, j12), (j21, j22) = jacobian_at(p, e.position)
        s, prod = exact_sum_and_product(e.eigenvalues)
        assert s == j11 + j22
        assert prod == j11 * j22 - j12 * j21


@given(params_strategy)
def test_interior_eigenvalues_in_quadrant_are_real(p):
    # With both coordinates positive the discriminant is a sum of squares
    # plus a positive cross term, so spirals cannot occur inside the quadrant.
    for e in find_equilibria(p):
        if isinstance(e, Equilibrium) and e.kind is K.INTERIOR:
            for lam in (e.eigenvalues.lambda1, e.eigenvalues.lambda2):
                if isinstance(lam, QuadraticSurd):
                    assert lam.is_real


class TestCoexistenceExample:
    p = SystemParams.from_pairs((3, 4), ((1, 1), (1, 2)))

    def test_all_four_present_with_known_coordinates(self):
        eqs = find_equilibria(self.p)
        positions = {e.kind: e.position for e in eqs}
        assert positions == {
            K.ORIGIN: (0, 0),
            K.AXIS1: (3, 0),
            K.AXIS2: (0, 2),
            K.INTERIOR: (2, 1),
        }

    def test_axis_eigenvalues(self):
        e1 = by_kind(self.p, K.AXIS1)
        assert (e1.eigenvalues.lambda1, e1.eigenvalues.lambda2) == (-3, 1)
        e2 = by_kind(self.p, K.AXIS2)
        assert (e2.eigenvalues.lambda1, e2.eigenvalues.lambda2) == (1, -4)
        e0 = by_kind(self.p, K.ORIGIN)
        assert (e0.eigenvalues.lambda1, e0.eigenvalues.lambda2) == (3, 4)

    def test_interior_eigenvalues_are_conjugate_surds(self):
        e = by_kind(self.p, K.INTERIOR)
        l1, l2 = e.eigenvalues.lambda1, e.eigenvalues.lambda2
        # trace -4, determinant 2: lambda = (-4 +/- sqrt(8)) / 2
        assert l1 == QuadraticSurd(Fraction(-4), Fraction(8), Fraction(2), branch=+1)
        assert l2 == QuadraticSurd(Fraction(-4), Fraction(8), Fraction(2), branch=-1)
        assert e.eigenvalues.realpart_signs == (Sign.NEG, Sign.NEG)
        assert Sign.ZERO not in e.eigenvalues.realpart_signs

    def test_no_coincidences(self):
        assert all(
            e.coincides_with is None
            for e in find_equilibria(self.p)
            if isinstance(e, Equilibrium)
        )


class TestDegenerateAxisContact:
    # a12*b2 = a22*b1 puts the nullcline crossing exactly on the x2 axis
    p = SystemParams.from_pairs((2, 4), ((1, 1), (1, 2)))

    def test_interior_absorbed_into_axis2(self):
        eqs = find_equilibria(self.p)
        kinds = [e.kind for e in eqs if isinstance(e, Equilibrium)]
        assert K.INTERIOR not in kinds
        e2 = by_kind(self.p, K.AXIS2)
        assert e2.coincides_with is K.INTERIOR
        assert (e2.eigenvalues.lambda1, e2.eigenvalues.lambda2) == (0, -4)
        assert Sign.ZERO in e2.eigenvalues.realpart_signs

    def test_off_quadrant_flag_does_not_resurrect_it(self):
        eqs = find_equilibria(self.p, include_off_quadrant=True)
        assert all(e.kind is not K.INTERIOR for e in eqs if isinstance(e, Equilibrium))


class TestOffQuadrantCrossing:
    p = SystemParams.from_pairs((2, 6), ((1, 1), (1, 2)))

    def test_hidden_by_default(self):
        kinds = [e.kind for e in find_equilibria(self.p) if isinstance(e, Equilibrium)]
        assert K.INTERIOR not in kinds

    def test_included_on_request(self):
        e = by_kind(self.p, K.INTERIOR, include_off_quadrant=True)
        assert e.position == (-2, 4)

    def test_parallel_nullclines_never_cross(self):
        parallel = SystemParams.from_pairs((1, 1), ((1, 2), (2, 4)))
        eqs = find_equilibria(parallel, include_off_quadrant=True)
        assert all(e.kind is not K.INTERIOR for e in eqs if isinstance(e, Equilibrium))


class TestKeptEquilibria:
    """find_equilibria builds the list once per params object."""

    def test_each_call_returns_a_new_list(self):
        p = TestOffQuadrantCrossing.p
        first = find_equilibria(p, include_off_quadrant=True)
        first.append("mutated")
        first[0] = None
        full = find_equilibria(p, include_off_quadrant=True)
        assert full is not first and len(full) == 4
        assert isinstance(full[0], Equilibrium) and full[0].kind is K.ORIGIN
        quadrant = find_equilibria(p)
        assert quadrant == full[:3]
        quadrant.clear()
        assert len(find_equilibria(p)) == 3

    @given(params_strategy)
    def test_kept_list_equals_a_fresh_one(self, p):
        find_equilibria(p)
        twin = SystemParams(b1=p.b1, b2=p.b2, a11=p.a11, a12=p.a12, a21=p.a21, a22=p.a22)
        for flag in (False, True):
            assert find_equilibria(p, include_off_quadrant=flag) \
                == find_equilibria(twin, include_off_quadrant=flag)

    def test_objects_kept_by_another_import_are_rebuilt(self):
        """A re-imported package defines new classes; it must not be handed
        the objects the first import kept on a shared params object."""
        p = SystemParams.from_pairs((3, 4), ((1, 1), (1, 2)))
        assert lv.cross_check_theorems(p).ok  # fills p with this import's objects
        saved = {name: module for name, module in sys.modules.items()
                 if name == "lvcompete" or name.startswith("lvcompete.")}
        try:
            for name in saved:
                del sys.modules[name]
            fresh = importlib.import_module("lvcompete")
            assert fresh.DeterminantTriple is not lv.DeterminantTriple
            verdict = fresh.cross_check_theorems(p)
            assert verdict.ok
            assert type(verdict.report.determinants) is fresh.DeterminantTriple
            assert all(type(e) is fresh.Equilibrium for e in fresh.find_equilibria(p))
            assert fresh.nullclines(p).to_json_dict() == lv.nullclines(p).to_json_dict()
        finally:
            for name in [n for n in sys.modules if n == "lvcompete" or n.startswith("lvcompete.")]:
                del sys.modules[name]
            sys.modules.update(saved)
        assert type(lv.compute_determinants(p)) is lv.DeterminantTriple
        assert type(find_equilibria(p)[0]) is Equilibrium


def test_off_quadrant_crossing_can_spiral():
    p = SystemParams.from_pairs(("1/2", 1), (("1/2", 1), ("1/2", "1/2")))
    e = by_kind(p, K.INTERIOR, include_off_quadrant=True)
    assert e.position == (3, -1)
    l1 = e.eigenvalues.lambda1
    assert isinstance(l1, QuadraticSurd) and not l1.is_real
    assert e.eigenvalues.realpart_signs == (Sign.NEG, Sign.NEG)


class TestEquilibriumLine:
    p = SystemParams.from_pairs((1, 2), ((1, 2), (2, 4)))

    def test_present_only_in_fully_degenerate_case(self):
        eqs = find_equilibria(self.p)
        assert len(eqs) == 2
        assert isinstance(eqs[1], EquilibriumLine)
        with pytest.raises(ValueError):
            EquilibriumLine(params=SystemParams.from_pairs((3, 4), ((1, 1), (1, 2))))

    def test_segment_endpoints_are_the_axis_points(self):
        line = find_equilibria(self.p)[1]
        lo, hi = line.endpoints()
        assert lo.position == (1, 0) and lo.coincides_with is K.AXIS1
        assert hi.position == (0, Fraction(1, 2)) and hi.coincides_with is K.AXIS2

    @pytest.mark.parametrize("bound", ["alpha_min", "alpha_max"])
    def test_segment_bounds_are_not_constructor_arguments(self, gallery_params, bound):
        p = gallery_params["case9"]
        with pytest.raises(TypeError):
            EquilibriumLine(params=p, **{bound: Fraction(100)})
        lo, hi = EquilibriumLine(params=p).endpoints()
        assert lo.position == (p.b1 / p.a11, 0)
        assert hi.position == (0, p.b1 / p.a12)

    def test_member_coordinates_and_eigenvalues(self):
        line = find_equilibria(self.p)[1]
        m = line.member(Fraction(1, 4))
        assert m.position == (Fraction(1, 2), Fraction(1, 4))
        assert m.alpha == Fraction(1, 4)
        assert m.eigenvalues.lambda1 == 0
        assert m.eigenvalues.lambda2 == Fraction(-3, 2)
        assert m.coincides_with is None

    def test_member_range_check(self):
        line = find_equilibria(self.p)[1]
        with pytest.raises(ValueError, match="outside the equilibrium segment"):
            line.member(Fraction(3, 4))

    @given(st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=16))
    def test_members_really_are_equilibria(self, alpha):
        line = find_equilibria(self.p)[1]
        m = line.member(alpha)
        assert rhs_exact(self.p, m.x1, m.x2) == (0, 0)
        assert m.eigenvalues.lambda2 < 0  # transverse direction always decays


def test_json_serialisation_is_exact():
    p = SystemParams.from_pairs((3, 4), ((1, 1), (1, 2)))
    e = by_kind(p, K.INTERIOR)
    d = e.to_json_dict()
    assert d["x1"] == "2" and d["x2"] == "1"
    assert d["eigenvalues"]["lambda1"] == {"p": "-4", "q": "8", "r": "2", "branch": 1}

    degenerate = SystemParams.from_pairs((2, 4), ((1, 1), (1, 2)))
    e2 = by_kind(degenerate, K.AXIS2)
    assert e2.to_json_dict()["coincides_with"] == "interior"


# ---------------------------------------------------------------------------
# Oracles for the cross-multiplied coordinates, eigenvalues and breakpoints:
# every feasible sign triple (the zero-minor boundaries included), the
# acceptance distribution and the small-fraction draws above.

acceptance_rationals = st.builds(Fraction, st.integers(1, 12), st.integers(1, 4))
triple_params = st.builds(lambda triple, seed: lv.sample_params(triple, rng_seed=seed),
                          st.sampled_from(lv.feasible_sign_triples()), st.integers(0, 2 ** 32 - 1))
oracle_params = st.one_of(
    triple_params,
    st.builds(SystemParams, *[acceptance_rationals] * 6),
    params_strategy,
)


def reference_interior_eigenpair(p, x1, x2) -> EigenPair:
    """Eigenvalues at a point on both oblique nullclines, by Fraction
    arithmetic: -trace t = a11*x1 + a22*x2, det = x1*x2*d12."""
    t = p.a11 * x1 + p.a22 * x2
    disc = t * t - 4 * x1 * x2 * (p.a11 * p.a22 - p.a12 * p.a21)
    root = rational_sqrt(disc) if disc >= 0 else None
    if root is None:
        return EigenPair(QuadraticSurd(p=-t, q=disc, r=Fraction(2), branch=+1),
                         QuadraticSurd(p=-t, q=disc, r=Fraction(2), branch=-1))
    return EigenPair((root - t) / 2, (-t - root) / 2)


@settings(max_examples=300)
@given(oracle_params)
# d112 = 0, d122 = 0, and perfect-square discriminants inside the quadrant,
# off it and equal to zero.
@example(SystemParams.from_pairs((1, 1), ((1, 2), (1, 3))))
@example(SystemParams.from_pairs((1, 1), ((2, 1), (1, 1))))
@example(SystemParams.from_pairs((3, 3), ((2, 1), (1, 2))))
@example(SystemParams.from_pairs(("9/4", "9/4"), (("1/4", 3), ("5/4", "1/4"))))
@example(SystemParams.from_pairs((2, 2), (("5/2", 3), (4, "11/2"))))
@example(SystemParams.from_pairs(("7/3", "7/3"), (("5/2", 6), ("3/2", 2))))
def test_coordinates_and_eigenvalues_equal_their_quotients(p):
    """Each cross-multiplied coordinate and eigenvalue equals the quotient
    computed by Fraction arithmetic from the parameters."""
    d112 = p.a11 * p.b2 - p.a21 * p.b1
    d122 = p.a12 * p.b2 - p.a22 * p.b1
    d12 = p.a11 * p.a22 - p.a12 * p.a21
    entries = find_equilibria(p, include_off_quadrant=True)
    if isinstance(entries[1], EquilibriumLine):
        return
    origin, axis1, axis2, *interior = entries
    assert (axis1.x1, axis1.eigenvalues) == (p.b1 / p.a11, EigenPair(-p.b1, d112 / p.a11))
    assert (axis2.x2, axis2.eigenvalues) == (p.b2 / p.a22, EigenPair(-d122 / p.a22, -p.b2))
    assert len(interior) == (1 if d12 and d112 and d122 else 0)
    for e in interior:
        assert e.position == (-d122 / d12, d112 / d12)
        assert e.eigenvalues == reference_interior_eigenpair(p, e.x1, e.x2)
    assert all(type(v) is Fraction for e in entries for v in e.position)


@settings(max_examples=300)
@given(oracle_params)
@example(SystemParams.from_pairs((1, 1), ((1, 2), (1, 3))))
@example(SystemParams.from_pairs((1, 1), ((2, 1), (1, 1))))
def test_nullcline_breakpoints_are_equilibrium_coordinates_in_order(p):
    """The vertical, horizontal and crossing breakpoints are axis2.x2,
    axis1.x1 and the x1 of the oblique crossing where it is positive (an
    axis equilibrium when the crossing lands on it), and each branch lists
    its breakpoints in increasing order."""
    entries = find_equilibria(p, include_off_quadrant=True)
    if isinstance(entries[1], EquilibriumLine):
        axis1, axis2 = entries[1].endpoints()
    else:
        axis1, axis2 = entries[1:3]
    crossing = [e.x1 for e in entries if isinstance(e, Equilibrium)
                and K.INTERIOR in (e.kind, e.coincides_with) and e.x1 > 0]
    ns = nullclines(p)
    assert ns.curve(NullclineBranch.VERTICAL_AXIS).breakpoints == (0, axis2.x2)
    assert ns.curve(NullclineBranch.HORIZONTAL_AXIS).breakpoints == (0, axis1.x1)
    assert ns.curve(NullclineBranch.OBLIQUE_X2).breakpoints == (0, *crossing)
    assert ns.curve(NullclineBranch.OBLIQUE_X1).breakpoints \
        == tuple(sorted({0, axis1.x1, *crossing}))
    for curve in ns.curves:
        assert list(curve.breakpoints) == sorted(set(curve.breakpoints)), curve.branch
        assert [s.hi for s in curve.segments] == [*curve.breakpoints[1:], None]


@given(oracle_params)
def test_cold_nullclines_equal_warm_ones(p):
    """nullclines on a fresh params object gives what it gives once the
    equilibria are built, and builds no equilibria itself."""
    cold = SystemParams(b1=p.b1, b2=p.b2, a11=p.a11, a12=p.a12, a21=p.a21, a22=p.a22)
    got = nullclines(cold)
    assert cold._equilibria is None
    lv.classify(p)
    assert got.curves == nullclines(p).curves
    assert got.to_json_dict() == nullclines(p).to_json_dict()


# ---------------------------------------------------------------------------
# The competitive order: a quadrant point whose field lies in a cone has an
# exact limit, which an integration from that point must reach.

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=1000)


def cone_point(p: SystemParams, u: Fraction, w: Fraction):
    """The float-exact point at fraction u of [0, max(b1/a11, b2/a21)] and
    fraction w of the band between the two oblique nullclines above it
    (clipped to x2 >= 0), where f1 and f2 differ in sign."""
    x1 = u * max(p.b1 / p.a11, p.b2 / p.a21)
    n1, n2 = (p.b1 - p.a11 * x1) / p.a12, (p.b2 - p.a21 * x1) / p.a22
    lo, hi = max(0, min(n1, n2)), max(0, n1, n2)
    return Fraction(float(x1)), Fraction(float(lo + w * (hi - lo)))


@settings(max_examples=200)
@given(triple_params, unit_fractions, unit_fractions)
def test_order_limit_is_where_integration_ends(p, u, w):
    """For every feasible triple the rule names an equilibrium (a line of
    equilibria has no rule, so None), and an integration from the point at
    the probes' tolerances ends closer to it than to any other quadrant
    equilibrium, also where the approach is algebraic.  With no zero
    determinant it ends within 1e-6 of it."""
    x1, x2 = cone_point(p, u, w)
    f1, f2 = rhs_exact(p, x1, x2)
    assume(f1 * f2 <= 0)
    limit = _order_limit(p, x1, x2)
    entries = find_equilibria(p)
    if isinstance(entries[-1], EquilibriumLine):
        assert limit is None
        return
    assert limit in entries
    traj = lv.integrate(p, (float(x1), float(x2)), 1e4,
                        lv.IntegratorOptions(rel_tol=1e-8, abs_tol=1e-11))
    fx1, fx2 = traj.final_point
    gap = {e.position: math.hypot(fx1 - e.x1, fx2 - e.x2) for e in entries}
    assert all(gap[limit.position] < d for q, d in gap.items() if q != limit.position), \
        (limit.kind, traj.final_point, traj.terminal_status)
    if all(lv.compute_determinants(p).signs):
        assert gap[limit.position] <= 1e-6, (limit.kind, gap[limit.position])


@pytest.mark.parametrize("x1,x2", [(0, 0), (3, 4), (-1, 1), (1, -1)])
def test_order_limit_outside_both_cones_or_the_quadrant_is_none(x1, x2):
    """case1 (interior sink (2, 1)): the origin is its own limit; (3, 4) lies
    above both oblique nullclines, so f1 < 0 and f2 < 0; a point off the
    quadrant has no rule."""
    p = lv.gallery_entry("case1").params
    expected = by_kind(p, K.ORIGIN) if (x1, x2) == (0, 0) else None
    assert _order_limit(p, Fraction(x1), Fraction(x2)) is expected
