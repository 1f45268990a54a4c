"""Stability verdicts: table-driven report vs. sign-condition predicates."""

from __future__ import annotations

import copy
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lvcompete as lv
from lvcompete import (
    Basis,
    DeterminantTriple,
    EquilibriumKind,
    InfeasibleSignCase,
    Scope,
    Sign,
    StabilityClass,
    SystemParams,
    Verdict,
    classify,
    cross_check_theorems,
    is_asymptotically_stable,
    is_unstable,
)
from lvcompete.classifier import linearization_verdict

K = EquilibriumKind

positive = st.fractions(
    min_value=Fraction(1, 8), max_value=Fraction(8), max_denominator=8
)
params_strategy = st.builds(
    SystemParams, b1=positive, b2=positive,
    a11=positive, a12=positive, a21=positive, a22=positive,
)


# The acceptance distribution (numerators 1-12 over denominators 1-4), and
# every feasible triple, the zero-determinant boundaries included.
acceptance_rationals = st.builds(Fraction, st.integers(1, 12), st.integers(1, 4))
acceptance_params = st.builds(SystemParams, *[acceptance_rationals] * 6)
triple_params = st.builds(
    lambda triple, seed: lv.sample_params(triple, rng_seed=seed),
    st.sampled_from(lv.feasible_sign_triples()),
    st.integers(0, 2 ** 32 - 1),
)
SCOPES = (Scope.FULL_NEIGHBORHOOD, Scope.FIRST_QUADRANT_CLOSED)


def triple_from_glyphs(glyphs: str) -> DeterminantTriple:
    """A representative determinant triple with the requested signs."""
    p = lv.sample_params(tuple(Sign.from_glyph(g) for g in glyphs), rng_seed=1)
    return lv.compute_determinants(p)


class TestGalleryAgreement:
    def test_full_plane_patterns(self, gallery):
        for label, entry in gallery.items():
            rep = classify(entry.params)
            assert rep.pattern() == entry.expected_pattern, label
            assert rep.portrait_class_full == entry.table6_serial, label
            assert rep.gallery_reference == label
            assert rep.sign_case.glyphs == entry.sign_glyphs, label

    def test_quadrant_serial_merges(self, gallery):
        for label, entry in gallery.items():
            rep = classify(entry.params)
            expected = lv.QUADRANT_REPRESENTATIVE[entry.table6_serial]
            assert rep.portrait_class_quadrant == expected, label

    def test_merged_portraits_share_quadrant_patterns(self, gallery_params):
        quadrant = Scope.FIRST_QUADRANT_CLOSED
        pat = {
            label: classify(p).pattern(quadrant) for label, p in gallery_params.items()
        }
        assert pat["case2"] == pat["case3"] == pat["case6"] == ("U", "U", "AS", "/", "/")
        assert pat["case4"] == pat["case5"] == pat["case7"] == ("U", "AS", "U", "/", "/")
        assert pat["case1"] == ("U", "U", "U", "AS", "/")
        assert pat["case8"] == ("U", "AS", "AS", "U", "/")
        assert pat["case9"] == ("U", "NI", "NI", "/", "NI")


class TestVerdictDetail:
    def test_coexistence_interior_is_a_stable_node(self, gallery_params):
        rep = classify(gallery_params["case1"])
        sc = rep.verdict_at(K.INTERIOR, Scope.FULL_NEIGHBORHOOD)
        assert sc.verdict is Verdict.STABLE_NODE
        assert sc.basis is Basis.LINEARIZATION

    def test_bistable_interior_is_a_saddle(self, gallery_params):
        rep = classify(gallery_params["case8"])
        assert rep.verdict_at(K.INTERIOR).verdict is Verdict.SADDLE

    def test_origin_always_an_unstable_node(self, gallery_params):
        for p in gallery_params.values():
            sc = classify(p).verdict_at(K.ORIGIN)
            assert sc.verdict is Verdict.UNSTABLE_NODE

    def test_semi_stable_case_scope_split(self, gallery_params):
        rep = classify(gallery_params["case2"])
        full = rep.verdict_at(K.AXIS2, Scope.FULL_NEIGHBORHOOD)
        quad = rep.verdict_at(K.AXIS2, Scope.FIRST_QUADRANT_CLOSED)
        assert full.verdict is Verdict.SEMI_STABLE
        assert full.basis is Basis.NULLCLINE_ARGUMENT
        assert quad.verdict is Verdict.ASYMPTOTICALLY_STABLE
        assert quad.basis is Basis.LYAPUNOV_FUNCTION

    def test_degenerate_repelling_side(self):
        # one minor zero but d12 < 0: the touching axis point repels instead
        p = lv.sample_params(
            (Sign.NEG, Sign.NEG, Sign.ZERO), rng_seed=2
        )
        rep = classify(p)
        sc = rep.verdict_at(K.AXIS2, Scope.FULL_NEIGHBORHOOD)
        assert sc.verdict is Verdict.UNSTABLE
        assert sc.basis is Basis.NULLCLINE_ARGUMENT

    def test_line_case_marks_everything_non_isolated(self, gallery_params):
        rep = classify(gallery_params["case9"])
        assert rep.line is not None
        for kind in (K.AXIS1, K.AXIS2, K.LINE_MEMBER):
            sc = rep.verdict_at(kind)
            assert sc.verdict is Verdict.NON_ISOLATED
            assert sc.basis is Basis.LINE_OF_EQUILIBRIA
        assert rep.verdict_at(K.INTERIOR) is None

    def test_semi_stable_is_full_neighborhood_only(self):
        with pytest.raises(ValueError):
            StabilityClass(Verdict.SEMI_STABLE, Scope.FIRST_QUADRANT_CLOSED,
                           Basis.NULLCLINE_ARGUMENT)

    def test_coarse_predicates_accept_verdicts_and_none(self):
        assert is_asymptotically_stable(Verdict.STABLE_NODE)
        assert not is_asymptotically_stable(None)
        assert is_unstable(Verdict.SADDLE)
        assert not is_unstable(Verdict.SEMI_STABLE)
        assert not is_asymptotically_stable(Verdict.NON_ISOLATED)


# Expected predicate values for each realizable sign triple, in the order
# (axis1 attracting, axis1 unstable, axis2 attracting, axis2 unstable,
#  no equilibrium in the open quadrant).
PREDICATE_TABLE = {
    "++-": (False, True, False, True, False),
    "++0": (False, True, True, False, True),
    "+++": (False, True, True, False, True),
    "-++": (False, True, True, False, True),
    "0++": (False, True, True, False, True),
    "+0-": (True, False, False, True, True),
    "+--": (True, False, False, True, True),
    "---": (True, False, False, True, True),
    "0--": (True, False, False, True, True),
    "-0+": (False, True, True, False, True),
    "--0": (True, False, False, True, True),
    "--+": (True, False, True, False, False),
    "000": (False, False, False, False, False),
}


class TestSignPredicates:
    def test_table_covers_exactly_the_feasible_triples(self):
        feasible = {
            "".join(s.glyph for s in t) for t in lv.feasible_sign_triples()
        }
        assert set(PREDICATE_TABLE) == feasible

    @pytest.mark.parametrize("glyphs", sorted(PREDICATE_TABLE))
    def test_predicate_truth_table(self, glyphs):
        t = triple_from_glyphs(glyphs)
        expected = PREDICATE_TABLE[glyphs]
        actual = (
            lv.thm_axis1_asymptotically_stable(t),
            lv.thm_axis1_unstable(t),
            lv.thm_axis2_asymptotically_stable(t),
            lv.thm_axis2_unstable(t),
            lv.thm_no_open_quadrant_equilibrium(t),
        )
        assert actual == expected

    @pytest.mark.parametrize("glyphs", sorted(PREDICATE_TABLE))
    def test_attraction_and_instability_exclude_each_other(self, glyphs):
        t = triple_from_glyphs(glyphs)
        assert not (lv.thm_axis1_asymptotically_stable(t) and lv.thm_axis1_unstable(t))
        assert not (lv.thm_axis2_asymptotically_stable(t) and lv.thm_axis2_unstable(t))
        # away from the fully degenerate case each axis point gets a verdict
        if glyphs != "000":
            assert lv.thm_axis1_asymptotically_stable(t) or lv.thm_axis1_unstable(t)
            assert lv.thm_axis2_asymptotically_stable(t) or lv.thm_axis2_unstable(t)

    def test_interior_class_only_for_crossing_triples(self):
        sink = lv.thm_interior_class(triple_from_glyphs("++-"))
        assert sink is not None and is_asymptotically_stable(sink)
        saddle = lv.thm_interior_class(triple_from_glyphs("--+"))
        assert saddle is not None and saddle.verdict is Verdict.SADDLE
        for glyphs in sorted(set(PREDICATE_TABLE) - {"++-", "--+"}):
            assert lv.thm_interior_class(triple_from_glyphs(glyphs)) is None


class TestCrossChecks:
    @given(params_strategy)
    def test_random_parameters_agree(self, p):
        assert cross_check_theorems(p).ok

    def test_census_parameters_agree(self):
        for params in lv.sign_census().values():
            verdict = cross_check_theorems(params)
            assert verdict.ok, verdict.disagreements

    def test_gallery_parameters_agree(self, gallery_params):
        for p in gallery_params.values():
            assert cross_check_theorems(p).ok


def test_infeasible_sign_case_guard(monkeypatch, gallery_params):
    # force the (provably impossible) (+,-,+) triple through the classifier
    fake = DeterminantTriple(Fraction(1), Fraction(-1), Fraction(1))
    monkeypatch.setattr("lvcompete.classifier.compute_determinants", lambda _: fake)
    with pytest.raises(InfeasibleSignCase, match=r"\+-\+"):
        classify(gallery_params["case1"])


def test_report_serialises_to_json(gallery_params):
    for label in ("case1", "case2", "case9"):
        rep = classify(gallery_params[label])
        blob = json.dumps(rep.to_json_dict())
        data = json.loads(blob)
        assert data["gallery_reference"] == label
        assert len(data["pattern_full"]) == 5


def test_verdict_lookup_for_absent_kind(gallery_params):
    rep = classify(gallery_params["case3"])
    assert rep.verdict_at(K.INTERIOR) is None
    assert rep.verdict_at(K.LINE_MEMBER) is None
    assert rep.line is None


def per_system_verdicts(p: SystemParams) -> dict:
    """The verdicts read from each equilibrium of this one system: the exact
    signs of its eigenvalue real parts, the sign of d12 when one is zero,
    and NON_ISOLATED along a line of equilibria."""
    s12 = lv.compute_determinants(p).signs[0]

    def same(verdict: Verdict, basis: Basis) -> dict:
        return {scope: StabilityClass(verdict, scope, basis) for scope in SCOPES}

    verdicts = {}
    for eq in lv.find_equilibria(p):
        if isinstance(eq, lv.EquilibriumLine):
            for kind in (K.AXIS1, K.AXIS2, K.LINE_MEMBER):
                verdicts[kind] = same(Verdict.NON_ISOLATED, Basis.LINE_OF_EQUILIBRIA)
            continue
        verdict = linearization_verdict(*eq.eigenvalues.realpart_signs)
        if verdict is not None:
            verdicts[eq.kind] = same(verdict, Basis.LINEARIZATION)
        elif s12 > 0:
            verdicts[eq.kind] = {
                Scope.FULL_NEIGHBORHOOD: StabilityClass(
                    Verdict.SEMI_STABLE, Scope.FULL_NEIGHBORHOOD, Basis.NULLCLINE_ARGUMENT),
                Scope.FIRST_QUADRANT_CLOSED: StabilityClass(
                    Verdict.ASYMPTOTICALLY_STABLE, Scope.FIRST_QUADRANT_CLOSED,
                    Basis.LYAPUNOV_FUNCTION),
            }
        else:
            verdicts[eq.kind] = same(Verdict.UNSTABLE, Basis.NULLCLINE_ARGUMENT)
    return verdicts


@settings(max_examples=300)
@given(st.one_of(acceptance_params, triple_params))
def test_verdict_rows_match_each_systems_eigenvalues(p):
    """The row of the sign triple equals the verdicts read from the system's
    own equilibria, in the same order."""
    verdicts = classify(p).verdicts
    expected = per_system_verdicts(p)
    assert verdicts == expected
    assert list(verdicts) == list(expected)
    assert all(list(scoped) == list(SCOPES) for scoped in verdicts.values())


def test_reports_share_no_mutable_verdicts(gallery_params):
    """Two reports of one sign triple share one read-only row: an edit at
    either level of the verdicts raises TypeError and changes no report's
    JSON."""
    for label in ("case1", "case2", "case9"):
        p = gallery_params[label]
        twin = lv.sample_params(lv.compute_determinants(p).signs, rng_seed=3)
        report, twin_report = classify(p), classify(twin)
        assert report.verdicts is twin_report.verdicts, label
        before = [json.dumps(r.to_json_dict(), sort_keys=True) for r in (report, twin_report)]
        saddle = StabilityClass(Verdict.SADDLE, Scope.FULL_NEIGHBORHOOD, Basis.LINEARIZATION)
        with pytest.raises(TypeError):
            report.verdicts[K.AXIS2][Scope.FULL_NEIGHBORHOOD] = saddle
        with pytest.raises(TypeError):
            del report.verdicts[K.AXIS2][Scope.FULL_NEIGHBORHOOD]
        with pytest.raises(TypeError):
            report.verdicts[K.INTERIOR] = {}
        with pytest.raises(TypeError):
            del report.verdicts[K.ORIGIN]
        after = [json.dumps(r.to_json_dict(), sort_keys=True) for r in (report, twin_report)]
        assert after == before, label


def test_reports_copy_and_pickle_to_the_same_json():
    """A deep copy or an unpickled report serialises like the original and
    points at the same shared row."""
    for label in ("case1", "case2", "case9"):
        # Parameters from this module's import of the package, not from the
        # session fixture: pickle finds each class by its module's name.
        report = classify(lv.gallery_entry(label).params)
        for copied in (copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
            assert copied.to_json_dict() == report.to_json_dict(), label
            assert copied.verdicts is report.verdicts, label


def test_report_json_shares_no_container(gallery_params):
    """Mutating a nested dict and a list of one report's JSON leaves a second
    call on that report, and the report of another system with the same sign
    triple, serialising to their original bytes."""
    for label in ("case1", "case2", "case9"):
        p = gallery_params[label]
        twin = lv.sample_params(lv.compute_determinants(p).signs, rng_seed=3)
        report, twin_report = classify(p), classify(twin)
        before = json.dumps(report.to_json_dict(), sort_keys=True)
        twin_before = json.dumps(twin_report.to_json_dict(), sort_keys=True)
        doc = report.to_json_dict()
        for scoped in doc["verdicts"].values():
            for verdict in scoped.values():
                verdict["verdict"] = "tampered"
            scoped["extra"] = {}
        doc["verdicts"]["origin"].clear()
        doc["pattern_full"].append("tampered")
        doc["pattern_quadrant"][0] = "tampered"
        assert json.dumps(report.to_json_dict(), sort_keys=True) == before, label
        assert json.dumps(twin_report.to_json_dict(), sort_keys=True) == twin_before, label


def test_session_fixtures_hold_the_live_import(gallery_params):
    """The session fixtures are built from the package imported when the
    tests run, so their reports pickle: pickle finds each class by its
    module's name."""
    for label, p in gallery_params.items():
        assert type(p) is lv.SystemParams, label
        report = classify(p)
        assert pickle.loads(pickle.dumps(report)).to_json_dict() == report.to_json_dict(), label


def test_cross_check_reports_a_report_that_disagrees(monkeypatch):
    """Negative control: with the interior equilibrium of a coexistence
    system dropped from its report, the cross-check names the mismatch."""
    coexistence = (Sign.POS, Sign.POS, Sign.NEG)
    assert cross_check_theorems(lv.sample_params(coexistence, rng_seed=7)).ok
    found = lv.classifier.find_equilibria
    monkeypatch.setattr("lvcompete.classifier.find_equilibria",
                        lambda params: [e for e in found(params) if e.kind is not K.INTERIOR])
    verdict = cross_check_theorems(lv.sample_params(coexistence, rng_seed=7))
    assert not verdict.ok
    assert verdict.disagreements == [
        "no open-quadrant equilibrium: predicate says False, report says True"]
