"""Parameter handling, determinant signs and the sign-case taxonomy."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import lvcompete as lv
from lvcompete import (
    ContradictionFamily,
    NotRealizable,
    ParameterError,
    Sign,
    SystemParams,
    as_fraction,
    compute_determinants,
    sign_case,
)

positive = st.fractions(
    min_value=Fraction(1, 8), max_value=Fraction(8), max_denominator=8
)


def any_params(draw):
    return SystemParams(
        b1=draw(positive), b2=draw(positive),
        a11=draw(positive), a12=draw(positive),
        a21=draw(positive), a22=draw(positive),
    )


params_strategy = st.builds(
    SystemParams, b1=positive, b2=positive,
    a11=positive, a12=positive, a21=positive, a22=positive,
)


class TestAsFraction:
    def test_accepts_common_forms(self):
        assert as_fraction(3) == 3
        assert as_fraction("1/2") == Fraction(1, 2)
        assert as_fraction("0.25") == Fraction(1, 4)
        assert as_fraction(Fraction(7, 3)) == Fraction(7, 3)

    def test_float_goes_through_decimal_repr(self):
        # 0.1 is not representable in binary; the shortest-repr route keeps it 1/10
        assert as_fraction(0.1) == Fraction(1, 10)

    @pytest.mark.parametrize("bad", ["abc", "1/0", None, True, [1]])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(ParameterError):
            as_fraction(bad)


class TestSystemParams:
    def test_positivity_enforced(self):
        with pytest.raises(ParameterError, match="b1 must be positive"):
            SystemParams.from_pairs((0, 1), ((1, 1), (1, 1)))
        with pytest.raises(ParameterError, match="a21 must be positive"):
            SystemParams.from_pairs((1, 1), ((1, 1), (-2, 1)))

    def test_json_round_trip(self):
        p = SystemParams.from_pairs(("3/2", 4), ((1, "0.5"), (2, 3)))
        again = SystemParams.from_json_dict(p.to_json_dict())
        assert again == p

    def test_from_json_dict_shape_errors(self):
        with pytest.raises(ParameterError):
            SystemParams.from_json_dict({"b": [1, 2]})
        with pytest.raises(ParameterError):
            SystemParams.from_json_dict({"b": [1, 2, 3], "a": [[1, 1], [1, 1]]})
        with pytest.raises(ParameterError):
            SystemParams.from_json_dict({"b": [1, 2], "a": 5})
        with pytest.raises(ParameterError):
            SystemParams.from_json_dict({"b": [1, 2], "a": [[1, 1], 5]})
        # Strings have a length of their own but are no pairs of numbers.
        with pytest.raises(ParameterError):
            SystemParams.from_json_dict({"b": "34", "a": ["12", "12"]})
        with pytest.raises(ParameterError):
            SystemParams.from_json_dict({"b": [1, 2], "a": ["12", "12"]})

    def test_float_tuple_order(self):
        p = SystemParams.from_pairs((1, 2), ((3, 4), (5, 6)))
        assert p.as_float_tuple() == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)


class TestDeterminants:
    def test_known_triple(self):
        p = SystemParams.from_pairs((3, 4), ((1, 1), (1, 2)))
        d = compute_determinants(p)
        assert (d.d12, d.d112, d.d122) == (1, 1, -2)
        assert d.signs == (Sign.POS, Sign.POS, Sign.NEG)

    @given(params_strategy)
    def test_defining_formulas(self, p):
        d = compute_determinants(p)
        assert d.d12 == p.a11 * p.a22 - p.a12 * p.a21
        assert d.d112 == p.a11 * p.b2 - p.a21 * p.b1
        assert d.d122 == p.a12 * p.b2 - p.a22 * p.b1

    @given(params_strategy)
    def test_linear_identity_ties_the_three_together(self, p):
        # b2*d12 = a22*d112 - a21*d122 holds identically; it is the reason
        # two of the three can never vanish without the third.
        d = compute_determinants(p)
        assert p.b2 * d.d12 == p.a22 * d.d112 - p.a21 * d.d122

    @given(params_strategy)
    def test_rhs_exact_at_carrying_capacities(self, p):
        f1, f2 = lv.rhs_exact(p, p.b1 / p.a11, Fraction(0))
        assert f1 == 0 and f2 != 0 or f2 == 0
        f1, f2 = lv.rhs_exact(p, Fraction(0), Fraction(0))
        assert (f1, f2) == (0, 0)


class TestKeptDeterminants:
    """The triple is computed once and kept on the params object; nothing
    about the params themselves may show it."""

    p = SystemParams.from_pairs(("3/2", 4), ((1, "1/3"), (2, 5)))

    def fresh(self):
        return SystemParams(**{name: getattr(self.p, name)
                               for name in ("b1", "b2", "a11", "a12", "a21", "a22")})

    def test_kept_triple_equals_a_fresh_computation(self):
        kept = compute_determinants(self.p)
        assert compute_determinants(self.p) is kept
        other = compute_determinants(self.fresh())
        assert other == kept and other is not kept
        assert other.signs == kept.signs

    def test_params_look_the_same_once_filled(self):
        before = self.fresh()
        stamp = (repr(before), hash(before), pickle.dumps(before), before.to_json_dict())
        lv.cross_check_theorems(before)
        lv.find_equilibria(before, include_off_quadrant=True)
        lv.nullclines(before)
        assert (repr(before), hash(before), pickle.dumps(before),
                before.to_json_dict()) == stamp
        assert before == self.fresh() and self.fresh() == before
        for clone in (pickle.loads(pickle.dumps(before)), copy.deepcopy(before)):
            assert clone == before and hash(clone) == hash(before)
            assert compute_determinants(clone) == compute_determinants(before)

    @given(params_strategy)
    def test_signs_are_the_signs_of_the_determinants(self, p):
        d = compute_determinants(p)
        assert d.signs == tuple(Sign((v > 0) - (v < 0)) for v in (d.d12, d.d112, d.d122))


class TestSignCases:
    def test_the_27_split(self):
        cases = lv.all_sign_cases()
        assert len(cases) == 27
        feasible = [c for c in cases if c.feasible]
        infeasible = [c for c in cases if not c.feasible]
        assert len(feasible) == 13
        assert len(infeasible) == 14
        for c in feasible:
            assert c.table6_serial in range(1, 10)
            assert c.contradiction is None
        for c in infeasible:
            assert c.table6_serial is None
            assert isinstance(c.contradiction, ContradictionFamily)

    def test_serial_assignments(self):
        expected = {
            "++-": 1, "++0": 2, "+++": 3, "-++": 3, "0++": 3,
            "+0-": 4, "+--": 5, "---": 5, "0--": 5,
            "-0+": 6, "--0": 7, "--+": 8, "000": 9,
        }
        for glyphs, serial in expected.items():
            triple = tuple(Sign.from_glyph(g) for g in glyphs)
            case = sign_case(triple)
            assert case.feasible, glyphs
            assert case.table6_serial == serial, glyphs

    def test_every_infeasible_case_has_a_family(self):
        families = {
            c.glyphs: c.contradiction for c in lv.all_sign_cases() if not c.feasible
        }
        assert len(families) == 14
        # spot-check one representative of each contradiction family
        assert families["+-+"] is ContradictionFamily.CROSS_MULTIPLIED_MINORS
        assert families["-+0"] is ContradictionFamily.ZERO_D122_LINKS_SIGNS
        assert families["-0-"] is ContradictionFamily.ZERO_D112_LINKS_SIGNS
        assert families["+00"] is ContradictionFamily.BOTH_MINORS_ZERO_FORCES_SINGULAR
        assert families["0+-"] is ContradictionFamily.SINGULAR_WITH_OPPOSITE_MINORS
        assert families["00+"] is ContradictionFamily.SINGULAR_WITH_LONE_ZERO_MINOR

    def test_sign_case_accepts_triple_object(self):
        p = SystemParams.from_pairs((3, 4), ((1, 1), (1, 2)))
        assert sign_case(compute_determinants(p)).table6_serial == 1

    @given(params_strategy)
    def test_random_params_always_land_on_a_feasible_case(self, p):
        case = sign_case(compute_determinants(p))
        assert case.feasible

    def test_json_shape(self):
        c = sign_case((Sign.POS, Sign.POS, Sign.NEG))
        assert c.to_json_dict() == {
            "signs": ["+", "+", "-"], "feasible": True, "table6_serial": 1,
        }
        c = sign_case((Sign.POS, Sign.NEG, Sign.POS))
        d = c.to_json_dict()
        assert d["feasible"] is False and "contradiction" in d


class TestSampling:
    @pytest.mark.parametrize("triple", [t for t in lv.feasible_sign_triples()])
    def test_sample_params_hits_every_feasible_triple(self, triple):
        p = lv.sample_params(triple, rng_seed=7)
        assert compute_determinants(p).signs == triple

    def test_sample_params_rejects_infeasible_target(self):
        with pytest.raises(NotRealizable):
            lv.sample_params((Sign.POS, Sign.NEG, Sign.POS))

    def test_sample_params_is_deterministic_per_seed(self):
        t = (Sign.POS, Sign.POS, Sign.NEG)
        assert lv.sample_params(t, rng_seed=3) == lv.sample_params(t, rng_seed=3)

    def test_census_realises_all_13(self):
        census = lv.sign_census()
        assert len(census) == 13
        assert set(census) == set(lv.feasible_sign_triples())
        for triple, params in census.items():
            assert compute_determinants(params).signs == triple
