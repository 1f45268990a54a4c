"""Symmetry oracles for the exact layers.

Swapping the two species, sigma(b1, b2, a11, a12, a21, a22) =
(b2, b1, a22, a21, a12, a11), maps the determinant triple
(d12, d112, d122) to (d12, -d122, -d112) and trades the two axis
equilibria.  Scaling every a_ij by c > 0, or all six parameters by k > 0,
multiplies each determinant by a positive factor.  Neither property
depends on a frozen table, so both check the classifier, the equilibrium
finder, the sign-condition predicates and the path scanner against the
model itself.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvcompete import (
    DeterminantTriple,
    Equilibrium,
    EquilibriumKind,
    EquilibriumLine,
    ParameterPath,
    Sign,
    SystemParams,
    WhichDeterminant,
    classify,
    compute_determinants,
    cross_check_theorems,
    feasible_sign_triples,
    find_equilibria,
    four_case_catalog,
    sample_params,
    scan_path,
    thm_axis1_asymptotically_stable,
    thm_axis1_unstable,
    thm_axis2_asymptotically_stable,
    thm_axis2_unstable,
    thm_interior_class,
    thm_no_open_quadrant_equilibrium,
)

K = EquilibriumKind
W = WhichDeterminant

SERIAL_SWAP = {1: 1, 2: 4, 3: 5, 4: 2, 5: 3, 6: 7, 7: 6, 8: 8, 9: 9}
KIND_SWAP = {K.ORIGIN: K.ORIGIN, K.AXIS1: K.AXIS2, K.AXIS2: K.AXIS1,
             K.INTERIOR: K.INTERIOR, K.LINE_MEMBER: K.LINE_MEMBER}
WHICH_SWAP = {W.D12: W.D12, W.D112: W.D122, W.D122: W.D112}

PROFILE = settings(max_examples=150)


def swap(p: SystemParams) -> SystemParams:
    return SystemParams(b1=p.b2, b2=p.b1, a11=p.a22, a12=p.a21, a21=p.a12, a22=p.a11)


def swap_path(path: ParameterPath) -> ParameterPath:
    return ParameterPath(start=swap(path.start), end=swap(path.end))


# The acceptance distribution: numerators 1-12 over denominators 1-4.
rationals = st.builds(Fraction, st.integers(1, 12), st.integers(1, 4))
uniform_params = st.builds(SystemParams, rationals, rationals, rationals,
                           rationals, rationals, rationals)
# Every feasible triple, including the zero-determinant boundaries that
# uniform draws almost never hit.
triple_params = st.builds(
    lambda triple, seed: sample_params(triple, rng_seed=seed),
    st.sampled_from(feasible_sign_triples()),
    st.integers(0, 2 ** 32 - 1),
)
systems = st.one_of(uniform_params, triple_params)
paths = st.builds(lambda start, end: ParameterPath(start=start, end=end), systems, systems)
positive_factors = st.builds(Fraction, st.integers(1, 50), st.integers(1, 50))


# ---------------------------------------------------------------------------
# Species swap


@PROFILE
@given(systems)
def test_swap_maps_the_determinant_triple(p):
    d = compute_determinants(p)
    assert compute_determinants(swap(p)) == DeterminantTriple(d.d12, -d.d122, -d.d112)


@PROFILE
@given(systems)
def test_swap_maps_serials_and_trades_axis_verdicts(p):
    report, mirrored = classify(p), classify(swap(p))
    assert mirrored.portrait_class_full == SERIAL_SWAP[report.portrait_class_full]
    assert mirrored.portrait_class_quadrant == SERIAL_SWAP[report.portrait_class_quadrant]
    assert mirrored.verdicts == {KIND_SWAP[k]: v for k, v in report.verdicts.items()}


@PROFILE
@given(systems)
def test_swap_exchanges_the_axis_predicates(p):
    d, ds = compute_determinants(p), compute_determinants(swap(p))
    assert thm_axis1_asymptotically_stable(ds) == thm_axis2_asymptotically_stable(d)
    assert thm_axis2_asymptotically_stable(ds) == thm_axis1_asymptotically_stable(d)
    assert thm_axis1_unstable(ds) == thm_axis2_unstable(d)
    assert thm_axis2_unstable(ds) == thm_axis1_unstable(d)
    assert thm_no_open_quadrant_equilibrium(ds) == thm_no_open_quadrant_equilibrium(d)
    assert thm_interior_class(ds) == thm_interior_class(d)
    assert cross_check_theorems(swap(p)).ok


@PROFILE
@given(systems)
def test_swap_exchanges_equilibrium_coordinates(p):
    def by_kind(entries):
        return {e.kind: e for e in entries if isinstance(e, Equilibrium)}

    entries = find_equilibria(p, include_off_quadrant=True)
    mirrored_entries = find_equilibria(swap(p), include_off_quadrant=True)
    eqs, mirrored = by_kind(entries), by_kind(mirrored_entries)
    assert set(mirrored) == {KIND_SWAP[k] for k in eqs}
    for kind, eq in eqs.items():
        twin = mirrored[KIND_SWAP[kind]]
        assert twin.position == (eq.x2, eq.x1)
        assert twin.coincides_with == (None if eq.coincides_with is None
                                       else KIND_SWAP[eq.coincides_with])
        pair = (eq.eigenvalues.lambda1, eq.eigenvalues.lambda2)
        twin_pair = (twin.eigenvalues.lambda1, twin.eigenvalues.lambda2)
        assert twin_pair == (pair if kind is K.INTERIOR else pair[::-1])

    lines = [e for e in entries if isinstance(e, EquilibriumLine)]
    mirrored_lines = [e for e in mirrored_entries if isinstance(e, EquilibriumLine)]
    assert len(lines) == len(mirrored_lines)
    for line, twin in zip(lines, mirrored_lines):
        (a, b), (ta, tb) = line.endpoints(), twin.endpoints()
        assert (ta.position, tb.position) == ((b.x2, b.x1), (a.x2, a.x1))


def assert_scans_mirror(path: ParameterPath) -> None:
    scan, mirrored = scan_path(path), scan_path(swap_path(path))
    assert mirrored.identically_zero == {WHICH_SWAP[w] for w in scan.identically_zero}
    assert mirrored.polys[W.D12] == scan.polys[W.D12]
    for which in (W.D112, W.D122):
        poly, twin = scan.polys[which], mirrored.polys[WHICH_SWAP[which]]
        assert (twin.c0, twin.c1, twin.c2) == (-poly.c0, -poly.c1, -poly.c2)
    assert len(mirrored.events) == len(scan.events)
    for ev, twin in zip(scan.events, mirrored.events):
        assert (twin.root.exact, twin.root.bracket) == (ev.root.exact, ev.root.bracket)
        assert (twin.root.multiplicity, twin.root.sign_change) == \
            (ev.root.multiplicity, ev.root.sign_change)
        assert set(twin.vanishing) == {WHICH_SWAP[w] for w in ev.vanishing}
        assert twin.kind is ev.kind
        for mine, theirs in ((ev.serial_before, twin.serial_before),
                             (ev.serial_after, twin.serial_after)):
            assert theirs == (None if mine is None else SERIAL_SWAP[mine])
        if ev.sign_case_at is None:
            assert twin.sign_case_at is None
        else:
            s12, s112, s122 = ev.sign_case_at.triple
            assert twin.sign_case_at.triple == (s12, Sign(-s122), Sign(-s112))
        if ev.colliding_pair is None:
            assert twin.colliding_pair is None
        else:
            assert twin.colliding_pair == tuple(KIND_SWAP[k] for k in ev.colliding_pair)
        if ev.collision_point is None:
            assert twin.collision_point is None
        else:
            assert twin.collision_point == ev.collision_point[::-1]
        assert twin.swap == ev.swap
        assert twin.trace_condition_held == ev.trace_condition_held


@settings(max_examples=60)
@given(paths)
def test_swap_mirrors_path_scans(path):
    assert_scans_mirror(path)


@pytest.mark.parametrize("entry", four_case_catalog(), ids=lambda e: e.label)
def test_swap_mirrors_catalog_scans(entry):
    assert_scans_mirror(entry.path)


# ---------------------------------------------------------------------------
# Positive rescaling


def scale_interactions(p: SystemParams, c: Fraction) -> SystemParams:
    return SystemParams(b1=p.b1, b2=p.b2, a11=p.a11 * c, a12=p.a12 * c,
                        a21=p.a21 * c, a22=p.a22 * c)


def scale_all(p: SystemParams, k: Fraction) -> SystemParams:
    return SystemParams(b1=p.b1 * k, b2=p.b2 * k, a11=p.a11 * k, a12=p.a12 * k,
                        a21=p.a21 * k, a22=p.a22 * k)


@PROFILE
@given(systems, positive_factors, st.sampled_from([scale_interactions, scale_all]))
def test_positive_rescaling_keeps_signs_and_verdicts(p, factor, rescale):
    report, scaled = classify(p), classify(rescale(p, factor))
    assert scaled.determinants.signs == report.determinants.signs
    assert scaled.sign_case == report.sign_case
    assert scaled.portrait_class_full == report.portrait_class_full
    assert scaled.portrait_class_quadrant == report.portrait_class_quadrant
    assert scaled.verdicts == report.verdicts
