"""Symmetry oracles for the exact layers.

Swapping the two species, sigma(b1, b2, a11, a12, a21, a22) =
(b2, b1, a22, a21, a12, a11), maps the determinant triple
(d12, d112, d122) to (d12, -d122, -d112) and trades the two axis
equilibria.  Scaling every a_ij by c > 0, or all six parameters by k > 0,
multiplies each determinant by a positive factor.  Neither property
depends on a frozen table, so both check the classifier, the equilibrium
finder, the sign-condition predicates and the path scanner against the
model itself.  The swap also checks the probes' wedge starts, whose axis-1
points must mirror the axis-2 points of the swapped system, the two Lyapunov
constructions, the probe verdicts on the gallery systems, the competitive
order's limit rule and all four nullcline branches; the rescalings check the breakpoints and tags of all four
nullcline branches and every event of a path scan.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvcompete import (
    DeterminantTriple,
    Direction,
    Equilibrium,
    EquilibriumKind,
    EquilibriumLine,
    LyapunovTarget,
    NotApplicable,
    NullclineBranch,
    ParameterPath,
    PORTRAIT_GALLERY,
    ProbeProtocol,
    ProbeScope,
    Sign,
    SystemParams,
    WhichDeterminant,
    classify,
    compute_determinants,
    cross_check_theorems,
    empirical_stability,
    feasible_sign_triples,
    find_equilibria,
    four_case_catalog,
    lyapunov_verify,
    nullclines,
    rhs_exact,
    sample_params,
    scan_path,
    sign_case,
    thm_axis1_asymptotically_stable,
    thm_axis1_unstable,
    thm_axis2_asymptotically_stable,
    thm_axis2_unstable,
    thm_interior_class,
    thm_no_open_quadrant_equilibrium,
)
from lvcompete.dynamics import _wedge_starts
from lvcompete.equilibria import _order_limit

K = EquilibriumKind
W = WhichDeterminant

SERIAL_SWAP = {1: 1, 2: 4, 3: 5, 4: 2, 5: 3, 6: 7, 7: 6, 8: 8, 9: 9}
KIND_SWAP = {K.ORIGIN: K.ORIGIN, K.AXIS1: K.AXIS2, K.AXIS2: K.AXIS1,
             K.INTERIOR: K.INTERIOR, K.LINE_MEMBER: K.LINE_MEMBER}
WHICH_SWAP = {W.D12: W.D12, W.D112: W.D122, W.D122: W.D112}
TAG_SWAP = {Direction.UP: Direction.RIGHT, Direction.RIGHT: Direction.UP,
            Direction.DOWN: Direction.LEFT, Direction.LEFT: Direction.DOWN,
            Direction.STATIONARY: Direction.STATIONARY}

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


@settings(max_examples=60)
@given(paths)
def test_swap_mirrors_path_scans(path):
    assert_scans_mirror(path)


def float_tied_path() -> ParameterPath:
    """Four roots within 1e-19 of s = 1/2, in the exact order d122, d112, d12, d122."""
    eps, delta = Fraction(2, 10 ** 40), Fraction(1, 10 ** 30)
    c = (Fraction(3, 2) + delta) / (Fraction(9, 4) + eps + 3 * delta)
    return ParameterPath(
        start=SystemParams.from_pairs((Fraction(3, 4) + eps, 1), ((1, 1), (c, 1))),
        end=SystemParams.from_pairs((Fraction(15, 4) + eps, 2), ((1, 2), (c, 1))),
    )


@pytest.mark.parametrize("path", [pytest.param(e.path, id=e.label) for e in four_case_catalog()]
                         + [pytest.param(float_tied_path(), id="float-tied-roots")])
def test_swap_mirrors_catalog_scans(path):
    assert_scans_mirror(path)


@settings(max_examples=60)
@given(paths)
def test_scan_serials_chain_from_start_to_end(path):
    """Each event starts in the portrait the previous one left, and the chain
    begins and ends in the portraits of the path's end points unless a
    determinant vanishes there."""
    scan = scan_path(path)
    events = scan.events
    for event, following in zip(events, events[1:]):
        assert event.serial_after == following.serial_before
    start, end = (sign_case(compute_determinants(p)).table6_serial
                  for p in (path.start, path.end))
    clear_at_start, clear_at_end = (all(poly(s) != 0 for poly in scan.polys.values())
                                    for s in (0, 1))
    if not events:
        if clear_at_start and clear_at_end:
            assert start == end
        return
    if clear_at_start:
        assert events[0].serial_before == start
    if clear_at_end:
        assert events[-1].serial_after == end


# Systems with an escaping wedge beside an axis equilibrium (d12 > 0 and one
# minor zero), which the other draws hit only now and then.
wedge_systems = st.builds(
    lambda triple, seed: sample_params(triple, rng_seed=seed),
    st.sampled_from([t for t in feasible_sign_triples() if t[0] > 0 and 0 in t]),
    st.integers(0, 2 ** 32 - 1),
)


@PROFILE
@given(st.one_of(systems, wedge_systems),
       st.builds(Fraction, st.integers(1, 100), st.integers(1, 10_000)))
def test_swap_mirrors_the_wedge_starts(p, radius):
    mirrored = {e.kind: e for e in find_equilibria(swap(p), include_off_quadrant=True)
                if isinstance(e, Equilibrium)}
    for eq in find_equilibria(p, include_off_quadrant=True):
        if isinstance(eq, Equilibrium):
            twin = mirrored[KIND_SWAP[eq.kind]]
            assert [(x2, x1) for x1, x2 in _wedge_starts(swap(p), twin, radius)] == \
                _wedge_starts(p, eq, radius)


def lyapunov_or_none(p: SystemParams, which: LyapunovTarget):
    try:
        return lyapunov_verify(p, which, sample_count=50)
    except NotApplicable:
        return None


@PROFILE
@given(systems)
def test_swap_trades_the_lyapunov_constructions(p):
    """V = x1**a22 * x2**(-a12) for d122 = 0 is the mirror image of
    V = x1**(-a21) * x2**a11 for d112 = 0, so each check on p and the other
    on the swapped system apply together and reach the same result."""
    for which, mirrored_which in ((LyapunovTarget.FOR_AXIS1, LyapunovTarget.FOR_AXIS2),
                                  (LyapunovTarget.FOR_AXIS2, LyapunovTarget.FOR_AXIS1)):
        check, twin = lyapunov_or_none(p, which), lyapunov_or_none(swap(p), mirrored_which)
        assert (twin is None) == (check is None)
        if check is not None:
            assert twin.d12_sign is check.d12_sign
            assert twin.passed() == check.passed()
            assert twin.exponents == check.exponents[::-1]


def segment_table(curve, tag=lambda direction: direction):
    return [(s.lo, s.hi, tag(s.direction)) for s in curve.segments]


@PROFILE
@given(systems)
def test_swap_trades_the_axis_nullclines(p):
    """The vertical axis of the swapped system is the horizontal axis of p,
    with the same breakpoints; the flow that crosses one upward crosses
    the other rightward."""
    ns, mirrored = nullclines(p), nullclines(swap(p))
    for branch, twin_branch in ((NullclineBranch.VERTICAL_AXIS, NullclineBranch.HORIZONTAL_AXIS),
                                (NullclineBranch.HORIZONTAL_AXIS, NullclineBranch.VERTICAL_AXIS)):
        curve, twin = ns.curve(branch), mirrored.curve(twin_branch)
        assert twin.breakpoints == curve.breakpoints
        assert segment_table(twin, TAG_SWAP.get) == segment_table(curve)


@PROFILE
@given(systems)
def test_swap_trades_the_oblique_nullclines(p):
    """sigma maps p's oblique x1-nullcline at v in (0, b1/a11) to the swapped
    system's oblique x2-nullcline at w = (b1 - a11*v)/a12, and p's oblique
    x2-nullcline at v in (0, b2/a21) to the oblique x1-nullcline at
    w = (b2 - a21*v)/a22.  Off the breakpoints of both, the flow that
    crosses one upward crosses the other rightward."""
    ns, mirrored = nullclines(p), nullclines(swap(p))
    for branch, twin_branch, end, image in (
        (NullclineBranch.OBLIQUE_X1, NullclineBranch.OBLIQUE_X2, p.b1 / p.a11,
         lambda v: (p.b1 - p.a11 * v) / p.a12),
        (NullclineBranch.OBLIQUE_X2, NullclineBranch.OBLIQUE_X1, p.b2 / p.a21,
         lambda v: (p.b2 - p.a21 * v) / p.a22),
    ):
        curve, twin = ns.curve(branch), mirrored.curve(twin_branch)
        # A grid, plus the middle of every segment inside (0, end), so that
        # short segments are sampled too.
        values = {end * Fraction(k, 64) for k in range(1, 64)}
        values |= {(s.lo + min(end, s.hi or end)) / 2 for s in curve.segments if s.lo < end}
        for v in values:
            w = image(v)
            x1, x2 = curve.point_at(v)
            assert twin.point_at(w) == (x2, x1)
            if v not in curve.breakpoints and w not in twin.breakpoints:
                assert twin.direction_at(w) is TAG_SWAP[curve.direction_at(v)]


def probe_targets(p: SystemParams):
    """Every isolated quadrant equilibrium, plus both ends and the midpoint
    of a line of equilibria, keyed by position."""
    targets = []
    for entry in find_equilibria(p):
        if isinstance(entry, Equilibrium):
            targets.append(entry)
        else:
            mid = (entry.alpha_min + entry.alpha_max) / 2
            targets.extend(entry.member(a) for a in (entry.alpha_min, mid, entry.alpha_max))
    return {eq.position: eq for eq in targets}


@pytest.mark.parametrize("scope", list(ProbeScope), ids=lambda s: s.value)
@pytest.mark.parametrize("label", list(PORTRAIT_GALLERY))
def test_swap_keeps_the_probe_verdicts(label, scope):
    p = PORTRAIT_GALLERY[label].params
    protocol = ProbeProtocol(probe_count=8, scope=scope)
    targets, mirrored = probe_targets(p), probe_targets(swap(p))
    assert set(mirrored) == {(x2, x1) for x1, x2 in targets}
    for (x1, x2), eq in targets.items():
        twin = mirrored[(x2, x1)]
        assert twin.kind is KIND_SWAP[eq.kind]
        assert empirical_stability(swap(p), twin, protocol).verdict is \
            empirical_stability(p, eq, protocol).verdict


@PROFILE
@given(triple_params, *[st.fractions(min_value=0, max_value=1, max_denominator=1000)] * 2)
def test_swap_mirrors_the_order_limit(p, u, w):
    """A point at fraction u of [0, max(b1/a11, b2/a21)] and fraction w of
    the band between the oblique nullclines (clipped to x2 >= 0) has f1 and
    f2 of opposite signs.  sigma maps the field to (f2, f1), one cone onto
    the other, and the K-least equilibrium K-above x onto the K-greatest one
    K-below sigma(x): limit(sigma p, sigma x) = sigma limit(p, x)."""
    x1 = u * max(p.b1 / p.a11, p.b2 / p.a21)
    n1, n2 = (p.b1 - p.a11 * x1) / p.a12, (p.b2 - p.a21 * x1) / p.a22
    lo, hi = max(0, min(n1, n2)), max(0, n1, n2)
    x2 = lo + w * (hi - lo)
    f1, f2 = rhs_exact(p, x1, x2)
    assert f1 * f2 <= 0
    limit, twin = _order_limit(p, x1, x2), _order_limit(swap(p), x2, x1)
    assert (limit is None) == (twin is None) == (not any(compute_determinants(p).signs))
    if limit is not None:
        assert twin.position == (limit.x2, limit.x1) and twin.kind is KIND_SWAP[limit.kind]


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


@PROFILE
@given(systems, positive_factors, st.sampled_from([scale_interactions, scale_all]))
def test_positive_rescaling_divides_the_nullcline_breakpoints(p, factor, rescale):
    """Scaling the a_ij by c divides every root b_i/a_ii and -d122/d12 by c,
    and scaling all six parameters keeps them; either way each factor that
    decides a tag only gains a positive multiple, so every tag stays."""
    c = factor if rescale is scale_interactions else 1
    ns, scaled = nullclines(p), nullclines(rescale(p, factor))
    for curve, twin in zip(ns.curves, scaled.curves):
        assert twin.branch is curve.branch
        assert twin.breakpoints == tuple(b / c for b in curve.breakpoints)
        assert segment_table(twin) == [(lo / c, None if hi is None else hi / c, tag)
                                       for lo, hi, tag in segment_table(curve)]


@PROFILE
@given(paths, positive_factors, st.sampled_from([scale_interactions, scale_all]))
def test_positive_rescaling_keeps_the_path_events(path, factor, rescale):
    """Along the rescaled path each determinant gains a constant positive
    factor, so every root and event stays; a collision point b_i/a_ii is
    divided by c when the a_ij scale by c and kept when all six scale."""
    c = factor if rescale is scale_interactions else 1
    scan = scan_path(path)
    scaled = scan_path(ParameterPath(start=rescale(path.start, factor),
                                     end=rescale(path.end, factor)))
    assert len(scaled.events) == len(scan.events)
    for ev, twin in zip(scan.events, scaled.events):
        assert (twin.root.value, twin.root.bracket) == (ev.root.value, ev.root.bracket)
        assert (twin.root.multiplicity, twin.root.sign_change) == \
            (ev.root.multiplicity, ev.root.sign_change)
        assert twin.kind is ev.kind
        assert set(twin.vanishing) == set(ev.vanishing)
        assert (twin.serial_before, twin.serial_after) == (ev.serial_before, ev.serial_after)
        assert twin.sign_case_at == ev.sign_case_at
        assert twin.colliding_pair == ev.colliding_pair
        assert twin.swap == ev.swap
        assert twin.collision_point == (None if ev.collision_point is None
                                        else tuple(x / c for x in ev.collision_point))
