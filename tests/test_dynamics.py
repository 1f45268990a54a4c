"""Numerical layer: integrator, nullclines, wedge starts, Lyapunov, probes.

Expected values come from three kinds of oracle: closed-form solutions
(logistic flow, the conserved ratio of the degenerate case), exact rational
geometry recomputed by hand, and frozen outputs of independent spot runs.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lvcompete import (
    Direction,
    EquilibriumKind,
    IntegratorOptions,
    LyapunovTarget,
    NotApplicable,
    ProbeProtocol,
    ProbeScope,
    SystemParams,
    classify,
    empirical_matches,
    empirical_stability,
    feasible_sign_triples,
    find_equilibria,
    integrate,
    lyapunov_verify,
    nullclines,
    rhs_exact,
    sample_params,
    vector_field,
)
from lvcompete.classifier import Scope
from lvcompete.dynamics import (
    EmpiricalVerdictKind,
    ProbeOutcome,
    TerminalStatus,
    _PROBE_INTEGRATOR,
    _probe_radius,
    _wedge_starts,
)
from lvcompete.equilibria import _order_limit
from lvcompete.equilibria import _VERTICAL_FLOW, Equilibrium, EquilibriumLine, NullclineBranch
from lvcompete.exact import Sign


positive_rationals = st.fractions(
    min_value=Fraction(1, 8), max_value=Fraction(8), max_denominator=8
)
random_params = st.builds(
    SystemParams,
    b1=positive_rationals, b2=positive_rationals,
    a11=positive_rationals, a12=positive_rationals,
    a21=positive_rationals, a22=positive_rationals,
)


def _interior(report):
    return next(e for e in report.equilibria
                if isinstance(e, Equilibrium) and e.kind is EquilibriumKind.INTERIOR)


# ---------------------------------------------------------------------------
# vector field


def test_vector_field_vanishes_at_rest_points(gallery_params):
    p = gallery_params["case1"]
    for pt in [(0.0, 0.0), (3.0, 0.0), (0.0, 2.0), (2.0, 1.0)]:
        assert vector_field(p, pt) == (0.0, 0.0)


def test_vector_field_known_value(gallery_params):
    # (3 - 1 - 1, 4 - 1 - 2) component-wise times the coordinates
    assert vector_field(gallery_params["case1"], (1.0, 1.0)) == (1.0, 1.0)


@given(params=random_params,
       x1=st.fractions(0, 4, max_denominator=16),
       x2=st.fractions(0, 4, max_denominator=16))
def test_vector_field_matches_exact_rhs(params, x1, x2):
    f1, f2 = vector_field(params, (float(x1), float(x2)))
    g1, g2 = rhs_exact(params, x1, x2)
    assert f1 == pytest.approx(float(g1), rel=1e-12, abs=1e-12)
    assert f2 == pytest.approx(float(g2), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# integrate: terminal statuses


def test_stationary_start_is_a_single_converged_sample(gallery_params):
    traj = integrate(gallery_params["case1"], (2.0, 1.0), 50.0)
    assert traj.terminal_status is TerminalStatus.CONVERGED
    assert traj.samples == [(0.0, 2.0, 1.0)]


def test_case1_interior_attracts_generic_start(gallery_params):
    traj = integrate(gallery_params["case1"], (1.0, 1.0), 100.0)
    assert traj.terminal_status is TerminalStatus.CONVERGED
    x1, x2 = traj.final_point
    assert math.hypot(x1 - 2.0, x2 - 1.0) < 1e-6


def test_degenerate_case_lands_on_the_line_where_conservation_says(gallery_params):
    """With proportional rows, x2/x1^2 is a first integral; the landing point
    on the equilibrium line is therefore known in closed form."""
    traj = integrate(gallery_params["case9"], (0.2, 0.2), 200.0)
    assert traj.terminal_status is TerminalStatus.CONVERGED
    x1, x2 = traj.final_point
    # x2 = 5*x1^2 intersected with 1 - x1 - 2*x2 = 0
    x1_star = (-1.0 + math.sqrt(41.0)) / 20.0
    x2_star = (21.0 - math.sqrt(41.0)) / 40.0
    assert math.hypot(x1 - x1_star, x2 - x2_star) < 1e-6
    assert abs(1.0 - x1 - 2.0 * x2) < 1e-8


def test_horizon_is_hit_exactly_when_nothing_else_stops_the_run(gallery_params):
    traj = integrate(gallery_params["case1"], (1.0, 1.0), 7.5,
                     IntegratorOptions(conv_tol=0.0))
    assert traj.terminal_status is TerminalStatus.REACHED_HORIZON
    assert traj.final_time == 7.5


def test_off_quadrant_blowup_leaves_the_domain(gallery_params):
    traj = integrate(gallery_params["case1"], (-0.01, 0.5), 100.0,
                     IntegratorOptions(escape_bound=100.0))
    assert traj.terminal_status is TerminalStatus.LEFT_DOMAIN
    assert max(abs(c) for c in traj.final_point) > 100.0


#: Coexistence at (1.8, 0.4); (2, 0) and (0, 1) are saddles.
EDGE_PARAMS = SystemParams.from_pairs((2, 1), ((1, Fraction(1, 2)), (Fraction(1, 3), 1)))
#: The options of the portrait's trajectories (``portrait._draw_trajectories``).
PORTRAIT_OPTIONS = IntegratorOptions(rel_tol=1e-7, abs_tol=1e-10, conv_tol=1e-7,
                                     escape_bound=1e4)


@pytest.mark.parametrize("start,status,accepted", [
    pytest.param((math.nan, 1.0), TerminalStatus.STEP_FAILURE, 0, id="nan"),
    pytest.param((math.inf, 1.0), TerminalStatus.LEFT_DOMAIN, 0, id="inf"),
    pytest.param((-1e4, 0.0), TerminalStatus.LEFT_DOMAIN, 1, id="minus-bound"),
    pytest.param((1e4, 0.0), TerminalStatus.CONVERGED, None, id="plus-bound"),
    pytest.param((1.0, -0.0), TerminalStatus.CONVERGED, None, id="minus-zero"),
])
def test_edge_starts_keep_their_terminal_status(start, status, accepted):
    """NaN, infinite, signed-zero and on-the-bound starts, frozen from the
    loop that tested |x| with ``abs`` and ``max``.  A NaN start is not an
    escape: its field is NaN, so every step is rejected until the step
    floor.  A start exactly on the escape bound is inside the ball; one
    step outward leaves it.  A zero coordinate, of either sign, stays zero
    all the way to the axis equilibrium (2, 0)."""
    traj = integrate(EDGE_PARAMS, start, 80.0, PORTRAIT_OPTIONS)
    assert traj.terminal_status is status
    if accepted is not None:
        assert traj.n_accepted == accepted
    if status is TerminalStatus.CONVERGED:
        assert traj.samples[0] == (0.0, *start)
        assert all(x2 == 0.0 for _, _, x2 in traj.samples)
        assert abs(traj.final_point[0] - 2.0) < 1e-6


def test_an_infinite_state_leaves_the_domain():
    """A fixed step of 100 from far off the quadrant overflows both
    coordinates in one accepted step."""
    traj = integrate(EDGE_PARAMS, (-1e4, 1.0), 1e4,
                     IntegratorOptions(fixed_step=100.0, escape_bound=1e4))
    assert traj.terminal_status is TerminalStatus.LEFT_DOMAIN
    assert traj.n_accepted == 1
    assert traj.final_point == (-math.inf, math.inf)


@pytest.mark.parametrize("start", [(0.0, 0.5), (0.0, 7.0), (0.5, 0.0), (9.0, 0.0),
                                   (1.0, -0.0), (-0.0, 3.0), (2.0, 0.0)])
def test_probe_options_keep_the_axes_exactly_invariant(start):
    """With convergence detection off, as in every probe, a run on an axis
    steps to the horizon and never moves its zero coordinate, even from an
    exact rest point."""
    traj = integrate(EDGE_PARAMS, start, 1e4, _PROBE_INTEGRATOR)
    assert traj.terminal_status is TerminalStatus.REACHED_HORIZON
    frozen_index = 1 if start[0] == 0.0 else 2
    assert all(s[frozen_index] == 0.0 for s in traj.samples)
    limit = (0.0, 1.0) if start[0] == 0.0 else (2.0, 0.0)
    assert math.hypot(traj.final_point[0] - limit[0], traj.final_point[1] - limit[1]) < 1e-6


def test_absurd_step_floor_fails_fast():
    """At b1 = 1e12 the stable RKF45 step, about 3.7e-12, lies below the
    minimum step, 1e-14 of the 1e4 horizon."""
    p = SystemParams.from_pairs((10 ** 12, 1), ((1, 1), (1, 1)))
    traj = integrate(p, (1.0, 1.0), 1e4, IntegratorOptions(conv_tol=0.0))
    assert traj.terminal_status is TerminalStatus.STEP_FAILURE
    assert traj.n_accepted == 0


@pytest.mark.parametrize("horizon", [0.0, -3.0, math.inf, math.nan])
def test_nonpositive_horizon_rejected(gallery_params, horizon):
    with pytest.raises(ValueError, match="horizon must be positive"):
        integrate(gallery_params["case1"], (1.0, 1.0), horizon)


@pytest.mark.parametrize("step", [0.0, -0.02, math.nan, math.inf])
def test_nonpositive_or_infinite_fixed_step_rejected(gallery_params, step):
    """A step that is not positive and finite never advances toward the
    horizon, so the run would append samples without end."""
    with pytest.raises(ValueError, match="fixed_step must be positive"):
        integrate(gallery_params["case1"], (1.0, 1.0), 2.0, IntegratorOptions(fixed_step=step))


def test_stop_condition_checked_before_stepping(gallery_params):
    traj = integrate(gallery_params["case1"], (1.0, 1.0), 10.0,
                     IntegratorOptions(stop_condition=lambda t, x: True))
    assert traj.terminal_status is TerminalStatus.STOPPED
    assert traj.n_accepted == 0
    assert traj.final_time == 0.0


# ---------------------------------------------------------------------------
# integrate: invariance


@pytest.mark.parametrize("label,start,expected_limit,conv_tol", [
    pytest.param("case1", (0.0, 3.7), (0.0, 2.0), 1e-9, id="start0-expected_limit0"),
    pytest.param("case1", (0.0, 0.4), (0.0, 2.0), 1e-9, id="start1-expected_limit1"),
    pytest.param("case1", (2.6, 0.0), (3.0, 0.0), 1e-9, id="start2-expected_limit2"),
    # Stiff: with convergence detection off, the run sits at case2's axis-2
    # equilibrium, where the eigenvalue -4 pins RKF45 at its stability limit
    # until ROS3 takes over.
    pytest.param("case2", (0.0, 2.001), (0.0, 2.0), 0.0, id="stiff-case2-axis2"),
])
def test_axes_are_exactly_invariant(gallery_params, label, start, expected_limit, conv_tol):
    """A coordinate that starts at 0.0 must stay at 0.0 bitwise: the factored
    right-hand side guarantees it for RKF45, the triangular Jacobian on the
    axis for ROS3, and the single-species limit confirms the run still goes
    somewhere sensible."""
    traj = integrate(gallery_params[label], start, 1e4, IntegratorOptions(conv_tol=conv_tol))
    frozen_index = 0 if start[0] == 0.0 else 1
    assert all(s[1 + frozen_index] == 0.0 for s in traj.samples)
    if conv_tol:
        assert traj.terminal_status is TerminalStatus.CONVERGED
    else:
        assert traj.terminal_status is TerminalStatus.REACHED_HORIZON
        # RKF45 alone needs 1e4 * 4 / 3.68 > 10,000 steps to get here.
        assert traj.n_accepted < 1000
    assert math.hypot(traj.final_point[0] - expected_limit[0],
                      traj.final_point[1] - expected_limit[1]) < 1e-6


@settings(max_examples=40, deadline=None)
@given(params=random_params, x2=st.floats(0.01, 10.0, allow_nan=False))
def test_vertical_axis_invariant_for_random_systems(params, x2):
    traj = integrate(params, (0.0, x2), 20.0)
    assert all(s[1] == 0.0 for s in traj.samples)


@settings(max_examples=40, deadline=None)
@given(params=random_params,
       x1=st.floats(0.05, 10.0), x2=st.floats(0.05, 10.0))
def test_open_quadrant_is_forward_invariant(params, x1, x2):
    # A dying coordinate may overshoot zero by less than the absolute
    # tolerance once it falls below it; anything past -1e-9 is a real leak.
    traj = integrate(params, (x1, x2), 20.0)
    assert all(s[1] >= -1e-9 and s[2] >= -1e-9 for s in traj.samples)


# ---------------------------------------------------------------------------
# integrate: stiff runs

#: The integrator settings of a probe run, with the velocity detector on.
PROBE_OPTIONS = IntegratorOptions(rel_tol=1e-8, abs_tol=1e-11, conv_tol=1e-9)


@pytest.mark.parametrize("b,a,start,horizon", [
    # The line-endpoint target of `verify --b 3,12 --a 2,2,8,8`.
    pytest.param((3, 12), ((2, 2), (8, 8)), (1e-3, 1.501), 1e3, id="line-endpoint"),
    pytest.param((Fraction(11, 3), 12),
                 ((6, Fraction(4, 3)), (Fraction(5, 4), Fraction(11, 2))),
                 (0.62, 0.001), 1e4, id="interior-sink"),
])
def test_runs_that_reach_a_stiff_sink_converge(b, a, start, horizon):
    """At RKF45's stability limit the step jitter keeps the speed above the
    detector's 1e-9, so these runs used to reach the horizon (3,280 and
    32,461 steps); ROS3 lets them settle and stop."""
    params = SystemParams.from_pairs(b, a)
    traj = integrate(params, start, horizon, PROBE_OPTIONS)
    assert traj.terminal_status is TerminalStatus.CONVERGED
    assert traj.n_accepted < 1000
    assert max(abs(v) for v in vector_field(params, traj.final_point)) <= 1e-9


def _slow_manifold_probes(params):
    """Full-plane probes, 4 on the ring, of the zero-eigenvalue axis
    equilibrium of ``params``, as the benchmark runs them."""
    eq = next(e for e in classify(params).equilibria
              if isinstance(e, Equilibrium)
              and e.kind in (EquilibriumKind.AXIS1, EquilibriumKind.AXIS2)
              and Sign.ZERO in e.eigenvalues.realpart_signs)
    return empirical_stability(params, eq, ProbeProtocol(probe_count=4,
                                                         scope=ProbeScope.FULL_PLANE))


@pytest.mark.parametrize("label", ["case2", "case4", "case6", "case7"])
def test_stiff_probe_run_matches_a_radau_reference(gallery_params, label):
    """The first probe that converges to the zero-eigenvalue axis
    equilibrium crawls along the centre manifold, most of the way on the
    ROS3 path; scipy's Radau IIA at rtol 1e-10 is the reference for its
    states."""
    from scipy.integrate import solve_ivp

    p = gallery_params[label]
    start = next(probe.start for probe in _slow_manifold_probes(p).probes
                 if probe.outcome is ProbeOutcome.CONVERGED_TO_TARGET)
    b1, b2, a11, a12, a21, a22 = p.as_float_tuple()
    times = [1e1, 1e2, 1e3, 1e4, 1e5]
    ref = solve_ivp(
        lambda t, x: [x[0] * (b1 - a11 * x[0] - a12 * x[1]),
                      x[1] * (b2 - a21 * x[0] - a22 * x[1])],
        (0.0, times[-1]), start, method="Radau", rtol=1e-10, atol=1e-14, t_eval=times,
        jac=lambda t, x: [[b1 - 2 * a11 * x[0] - a12 * x[1], -a12 * x[0]],
                          [-a21 * x[1], b2 - a21 * x[0] - 2 * a22 * x[1]]])
    assert ref.success
    options = replace(PROBE_OPTIONS, conv_tol=0.0)
    for i, horizon in enumerate(times):
        traj = integrate(p, start, horizon, options)
        assert traj.terminal_status is TerminalStatus.REACHED_HORIZON
        assert traj.final_point == pytest.approx(tuple(ref.y[:, i]), rel=1e-7, abs=1e-10), horizon


def test_slow_manifold_probes_stay_under_a_step_ceiling(gallery_params):
    """The full-plane probes of the four zero-eigenvalue axis equilibria
    took 7.44 M accepted RKF45 steps at the stability limit, and 153,902
    with the switch to the second-order ROS2; ROS3 brings them to 16,753.
    The ceiling keeps the switch on and the stiff stepper third order.

    The escaping probes need the switch back to RKF45 for their fast
    transient: with it they finish in 446-1,101 steps; without it, case7's
    take about 195 k steps and case2's about 210 k, ending on step-size
    underflow."""
    total = 0
    for label in ("case4", "case7", "case6", "case2"):
        emp = _slow_manifold_probes(gallery_params[label])
        assert emp.verdict is not EmpiricalVerdictKind.INCONCLUSIVE, label
        for probe in emp.probes:
            if probe.outcome is ProbeOutcome.ESCAPED:
                assert probe.status in (TerminalStatus.LEFT_DOMAIN, TerminalStatus.STOPPED), \
                    (label, probe.label, probe.status)
                assert probe.n_accepted <= 5_000, (label, probe.label, probe.n_accepted)
        total += sum(probe.n_accepted for probe in emp.probes)
    assert total < 40_000


@pytest.mark.parametrize("label,start", [
    pytest.param("case2", (0.0014142, 2.0014142), id="case2"),
    pytest.param("case4", (1.0014142, 0.0014142), id="case4"),
])
def test_centre_manifold_approach_stays_on_the_stiff_stepper(gallery_params, label, start):
    """On the approach to a zero-eigenvalue axis equilibrium RKF45 sits at
    its stability limit.  ROS2's first-order error estimate cut h*rho below
    the exit threshold of 1, so these runs cycled between the steppers and
    took 19,239 and 3,321 steps; with ROS3 they switch once and take 730
    and 642."""
    traj = integrate(gallery_params[label], start, 1e4)
    assert traj.terminal_status is TerminalStatus.REACHED_HORIZON
    assert traj.n_accepted < 1_500


# ---------------------------------------------------------------------------
# integrate: accuracy


def test_fixed_step_takes_the_prescribed_grid(gallery_params):
    traj = integrate(gallery_params["case1"], (1.0, 1.0), 2.0,
                     IntegratorOptions(fixed_step=0.02, conv_tol=0.0))
    assert traj.terminal_status is TerminalStatus.REACHED_HORIZON
    assert traj.n_accepted == 100
    assert traj.n_rejected == 0
    assert traj.final_time == 2.0


def test_observed_convergence_rate_is_fifth_order(gallery_params):
    """Halving a fixed step should divide the endpoint error by about 2^5.

    The step ladder stays coarse enough that the smallest error (~1e-11)
    sits far above the roundoff floor of the reference run.
    """
    p = gallery_params["case1"]
    ref = integrate(p, (1.0, 1.0), 2.0,
                    IntegratorOptions(rel_tol=1e-13, abs_tol=1e-15, conv_tol=0.0))
    errors = []
    for h in (0.16, 0.08, 0.04, 0.02):
        traj = integrate(p, (1.0, 1.0), 2.0,
                         IntegratorOptions(fixed_step=h, conv_tol=0.0))
        errors.append(math.hypot(traj.final_point[0] - ref.final_point[0],
                                 traj.final_point[1] - ref.final_point[1]))
    rates = [math.log2(errors[i] / errors[i + 1]) for i in range(3)]
    assert all(4.5 <= rate <= 5.5 for rate in rates), rates


def test_tighter_tolerance_gives_tighter_answer(gallery_params):
    p = gallery_params["case1"]
    ref = integrate(p, (1.0, 1.0), 5.0,
                    IntegratorOptions(rel_tol=1e-13, abs_tol=1e-15, conv_tol=0.0))

    def endpoint_error(rel, abso):
        traj = integrate(p, (1.0, 1.0), 5.0,
                         IntegratorOptions(rel_tol=rel, abs_tol=abso, conv_tol=0.0))
        return math.hypot(traj.final_point[0] - ref.final_point[0],
                          traj.final_point[1] - ref.final_point[1])

    assert endpoint_error(1e-9, 1e-12) <= endpoint_error(1e-6, 1e-9)


def test_sample_thinning_does_not_change_the_dynamics(gallery_params):
    p = gallery_params["case1"]
    dense = integrate(p, (1.0, 1.0), 20.0, IntegratorOptions(conv_tol=0.0))
    thin = integrate(p, (1.0, 1.0), 20.0,
                     IntegratorOptions(conv_tol=0.0, sample_every=8))
    assert thin.final_point == dense.final_point  # same step sequence, bitwise
    assert thin.n_accepted == dense.n_accepted
    assert len(thin.samples) < len(dense.samples)
    assert thin.samples[-1] == dense.samples[-1]


def test_csv_round_trips_through_repr_precision(gallery_params):
    traj = integrate(gallery_params["case1"], (1.0, 1.0), 3.0,
                     IntegratorOptions(conv_tol=0.0))
    text = traj.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "t,x1,x2"
    parsed = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    assert parsed == traj.samples


# ---------------------------------------------------------------------------
# nullclines


def test_case1_crossing_table(gallery_params):
    ns = nullclines(gallery_params["case1"])

    def table(branch):
        c = ns.curve(branch)
        return (c.breakpoints,
                tuple((s.lo, s.hi, s.direction) for s in c.segments))

    assert table(NullclineBranch.VERTICAL_AXIS) == (
        (0, 2), ((0, 2, Direction.UP), (2, None, Direction.DOWN)))
    assert table(NullclineBranch.OBLIQUE_X1) == (
        (0, 2, 3), ((0, 2, Direction.DOWN), (2, 3, Direction.UP),
                    (3, None, Direction.DOWN)))
    assert table(NullclineBranch.HORIZONTAL_AXIS) == (
        (0, 3), ((0, 3, Direction.RIGHT), (3, None, Direction.LEFT)))
    assert table(NullclineBranch.OBLIQUE_X2) == (
        (0, 2), ((0, 2, Direction.RIGHT), (2, None, Direction.LEFT)))


def test_degenerate_axis_flips_the_oblique_tag(gallery_params):
    """Between the two semi-stable portraits the flow along the x1-nullcline
    inside the strip points up for d12 > 0 and down for d12 < 0."""
    up = nullclines(gallery_params["case2"]).curve(NullclineBranch.OBLIQUE_X1)
    assert [s.direction for s in up.segments] == [Direction.UP, Direction.DOWN]
    down = nullclines(gallery_params["case7"]).curve(NullclineBranch.OBLIQUE_X1)
    assert [s.direction for s in down.segments] == [Direction.DOWN, Direction.UP]


def test_proportional_rows_make_stationary_obliques(gallery_params):
    ns = nullclines(gallery_params["case9"])
    for branch in (NullclineBranch.OBLIQUE_X1, NullclineBranch.OBLIQUE_X2):
        assert all(s.direction is Direction.STATIONARY
                   for s in ns.curve(branch).segments)
    # the axis branches of the same system still carry real crossings
    vertical = ns.curve(NullclineBranch.VERTICAL_AXIS)
    assert vertical.breakpoints == (0, Fraction(1, 2))


def test_point_at_evaluates_the_curve_equation(gallery_params):
    ns = nullclines(gallery_params["case1"])
    assert ns.curve(NullclineBranch.OBLIQUE_X1).point_at(1) == (1, 2)
    assert ns.curve(NullclineBranch.OBLIQUE_X2).point_at(1) == (1, Fraction(3, 2))
    assert ns.curve(NullclineBranch.VERTICAL_AXIS).point_at(Fraction(7, 3)) == \
        (0, Fraction(7, 3))
    assert ns.curve(NullclineBranch.HORIZONTAL_AXIS).point_at(5) == (5, 0)


def test_direction_at_rejects_breakpoints_and_negatives(gallery_params):
    curve = nullclines(gallery_params["case1"]).curve(NullclineBranch.OBLIQUE_X1)
    assert curve.direction_at(Fraction(5, 2)) is Direction.UP
    for bad in (2, 3, 0, -1):
        with pytest.raises(ValueError, match="breakpoint or outside"):
            curve.direction_at(bad)


def test_nullcline_json_keeps_fractions_as_strings(gallery_params):
    doc = nullclines(gallery_params["case9"]).to_json_dict()
    vertical = next(c for c in doc["curves"] if c["branch"] == "x1 = 0")
    assert vertical["breakpoints"] == ["0", "1/2"]
    assert vertical["segments"][0] == {"lo": "0", "hi": "1/2", "direction": "up"}


@settings(max_examples=120, deadline=None)
@given(params=random_params,
       which=st.sampled_from(list(NullclineBranch)),
       value=st.fractions(min_value=Fraction(1, 64), max_value=20,
                          max_denominator=64))
def test_crossing_tags_agree_with_the_exact_field(params, which, value):
    """On an x1-nullcline the first component vanishes identically and the
    tag is the sign of the second (mirror statement for x2-nullclines) —
    checked in rational arithmetic, so agreement is exact, not approximate."""
    curve = nullclines(params).curve(which)
    if value in curve.breakpoints:
        return
    point = curve.point_at(value)
    f1, f2 = rhs_exact(params, point[0], point[1])
    vanishing, moving = (f1, f2) if which in _VERTICAL_FLOW else (f2, f1)
    assert vanishing == 0
    tag = curve.direction_at(value)
    if tag is Direction.STATIONARY:
        assert moving == 0
    elif tag in (Direction.UP, Direction.RIGHT):
        assert moving > 0
    else:
        assert moving < 0


_TAG_SIGN = {Direction.UP: 1, Direction.RIGHT: 1, Direction.DOWN: -1,
             Direction.LEFT: -1, Direction.STATIONARY: 0}


def _assert_tags_match_the_field_inside_each_segment(params):
    """Each segment's tag is the exact sign of the crossing field component
    at one interior point: the midpoint, or lo + 1 past the last breakpoint."""
    for curve in nullclines(params).curves:
        for seg in curve.segments:
            value = seg.lo + 1 if seg.hi is None else (seg.lo + seg.hi) / 2
            f1, f2 = rhs_exact(params, *curve.point_at(value))
            vanishing, moving = (f1, f2) if curve.branch in _VERTICAL_FLOW else (f2, f1)
            assert vanishing == 0
            assert _TAG_SIGN[seg.direction] == (moving > 0) - (moving < 0), \
                (curve.branch, seg)


@pytest.mark.parametrize("triple", feasible_sign_triples(),
                         ids=lambda t: "".join(s.glyph for s in t))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_segment_tags_match_the_field_for_every_sign_triple(triple, seed):
    _assert_tags_match_the_field_inside_each_segment(sample_params(triple, rng_seed=seed))


uniform_rationals = st.builds(Fraction, st.integers(1, 12), st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(params=st.builds(SystemParams, b1=uniform_rationals, b2=uniform_rationals,
                        a11=uniform_rationals, a12=uniform_rationals,
                        a21=uniform_rationals, a22=uniform_rationals))
def test_segment_tags_match_the_field_for_uniform_draws(params):
    _assert_tags_match_the_field_inside_each_segment(params)


# ---------------------------------------------------------------------------
# wedge starts


def _growth_factors(p: SystemParams, point):
    x1, x2 = point
    return (p.b1 - p.a11 * x1 - p.a12 * x2, p.b2 - p.a21 * x1 - p.a22 * x2)


def _axis_equilibrium(p: SystemParams, kind: EquilibriumKind) -> Equilibrium:
    return next(e for e in find_equilibria(p) if e.kind is kind)


#: The triples whose degenerate axis equilibrium has an escaping wedge:
#: d12 > 0 and one minor zero.
WEDGE_TRIPLES = [t for t in feasible_sign_triples() if t[0] is Sign.POS and Sign.ZERO in t]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(WEDGE_TRIPLES), st.integers(0, 2 ** 32 - 1),
       st.builds(Fraction, st.integers(1, 100), st.integers(1, 10_000)))
def test_wedge_starts_lie_strictly_inside_the_escaping_wedge(triple, seed, radius):
    """Four exact points on the line x1 = -r/2 with F1 > 0 > F2 beside a
    degenerate axis-2 equilibrium; the mirror image beside axis 1."""
    p = sample_params(triple, rng_seed=seed)
    kind = EquilibriumKind.AXIS2 if triple[2] is Sign.ZERO else EquilibriumKind.AXIS1
    points = _wedge_starts(p, _axis_equilibrium(p, kind), radius)
    assert len(points) == 4 and len(set(points)) == 4
    for point in points:
        assert all(type(c) is Fraction for c in point)
        f1, f2 = _growth_factors(p, point)
        if kind is EquilibriumKind.AXIS2:
            assert point[0] == -radius / 2
            assert f1 > 0 > f2
        else:
            assert point[1] == -radius / 2
            assert f2 > 0 > f1


def test_wedge_starts_are_empty_without_an_escaping_wedge(gallery_params):
    # case6 and case7 have a degenerate axis equilibrium but d12 < 0: their
    # wedge lies inside the quadrant and nothing escapes on the far side.
    for label in ("case6", "case7"):
        p = gallery_params[label]
        for eq in find_equilibria(p, include_off_quadrant=True):
            assert _wedge_starts(p, eq, 1e-3) == [], label
    # case2 has d12 > 0, but only its axis-2 minor vanishes.
    p = gallery_params["case2"]
    assert _wedge_starts(p, _axis_equilibrium(p, EquilibriumKind.AXIS1), 1e-3) == []
    assert _wedge_starts(p, _axis_equilibrium(p, EquilibriumKind.ORIGIN), 1e-3) == []


def test_wedge_starts_at_the_probe_radius_are_pinned(gallery_params):
    """The exact points ``empirical_stability`` plants beside the
    semi-stable axis equilibria of case2 and case4, at its probe radius."""
    expected = {
        "case2": (EquilibriumKind.AXIS2, [
            ("-1152921504606847/1152921504606846976", "11532673810582290301/5764607523034234880"),
            ("-1152921504606847/1152921504606846976", "23066500542669187449/11529215046068469760"),
            ("-1152921504606847/1152921504606846976", "2883456683021724287/1441151880758558720"),
            ("-1152921504606847/1152921504606846976", "23068806385678401143/11529215046068469760"),
        ]),
        "case4": (EquilibriumKind.AXIS1, [
            ("2885762526030937981/2882303761517117440", "-1152921504606847/2305843009213693952"),
            ("5772677973566482809/5764607523034234880", "-1152921504606847/2305843009213693952"),
            ("721728861883886207/720575940379279360", "-1152921504606847/2305843009213693952"),
            ("5774983816575696503/5764607523034234880", "-1152921504606847/2305843009213693952"),
        ]),
    }
    for label, (kind, points) in expected.items():
        p = gallery_params[label]
        eq = _axis_equilibrium(p, kind)
        assert _wedge_starts(p, eq, _probe_radius(p, eq)) == [
            (Fraction(x1), Fraction(x2)) for x1, x2 in points], label


# ---------------------------------------------------------------------------
# Lyapunov certificates


def test_monomial_certificate_for_the_contested_axis(gallery_params):
    check = lyapunov_verify(gallery_params["case2"], LyapunovTarget.FOR_AXIS2)
    assert check.exponents == (2, -1)  # V = x1^2 / x2
    assert check.d12_sign is Sign.POS
    assert check.max_rel_gap <= 1e-8
    assert check.all_signs_match and check.all_positive
    assert check.passed()
    # Without samples there is nothing to check, not a vacuous pass.
    for count in (0, -1):
        with pytest.raises(ValueError, match="sample_count must be at least 1"):
            lyapunov_verify(gallery_params["case2"], LyapunovTarget.FOR_AXIS2,
                            sample_count=count)


def test_mirror_certificate_for_axis1(gallery_params):
    check = lyapunov_verify(gallery_params["case4"], LyapunovTarget.FOR_AXIS1)
    assert check.exponents == (-1, 1)
    assert check.passed()


def test_reversed_d12_reverses_the_derivative_sign(gallery_params):
    check = lyapunov_verify(gallery_params["case7"], LyapunovTarget.FOR_AXIS2)
    assert check.d12_sign is Sign.NEG
    assert check.passed()


def test_certificate_requires_the_matching_minor_to_vanish(gallery_params):
    p = gallery_params["case1"]
    with pytest.raises(NotApplicable, match="requires d112 = 0, got 1"):
        lyapunov_verify(p, LyapunovTarget.FOR_AXIS1)
    with pytest.raises(NotApplicable, match="requires d122 = 0, got -2"):
        lyapunov_verify(p, LyapunovTarget.FOR_AXIS2)


def test_fully_degenerate_system_conserves_v(gallery_params):
    """d12 = 0 makes the closed-form derivative identically zero; the
    chain-rule route must agree to rounding, judged against the size of
    the dot product's terms."""
    for which in (LyapunovTarget.FOR_AXIS1, LyapunovTarget.FOR_AXIS2):
        check = lyapunov_verify(gallery_params["case9"], which, sample_count=200)
        assert check.d12_sign is Sign.ZERO and check.all_signs_match
        assert check.max_rel_gap <= 1e-10
        assert check.passed()


def test_v_decreases_along_simulated_flow(gallery_params):
    p = gallery_params["case2"]
    for start in [(0.5, 0.5), (3.0, 1.0), (0.2, 2.5)]:
        traj = integrate(p, start, 50.0, IntegratorOptions(sample_every=16))
        values = [x1 * x1 / x2 for _, x1, x2 in traj.samples if x2 > 0]
        for before, after in zip(values, values[1:]):
            assert after <= before + 1e-10 * max(1.0, abs(before))


# ---------------------------------------------------------------------------
# empirical probes


def test_probe_ring_confirms_interior_sink(gallery_params):
    report = classify(gallery_params["case1"])
    emp = empirical_stability(gallery_params["case1"], _interior(report),
                              ProbeProtocol(probe_count=6))
    assert emp.verdict is EmpiricalVerdictKind.ATTRACTING
    assert emp.radius == pytest.approx(1e-3 * math.hypot(2.0, 1.0))
    assert len(emp.probes) == 6
    assert all(r.outcome is ProbeOutcome.CONVERGED_TO_TARGET for r in emp.probes)
    assert max(r.final_distance for r in emp.probes) <= 1e-6
    assert empirical_matches(report.verdict_at(EquilibriumKind.INTERIOR), emp)


def test_probe_runs_are_deterministic(gallery_params):
    report = classify(gallery_params["case1"])
    first = empirical_stability(gallery_params["case1"], _interior(report))
    second = empirical_stability(gallery_params["case1"], _interior(report))
    assert first.to_json_dict() == second.to_json_dict()


#: Its axis-1 sink is strongly non-normal: some ring probes leave the
#: escape ball and come back before converging.
REENTRY_PARAMS = SystemParams.from_pairs((10, 7), ((Fraction(1, 3), 11),
                                                   (Fraction(1, 4), Fraction(7, 2))))


@pytest.mark.parametrize("label", ["case1", "reentry"])
def test_probe_ball_tracking_sees_every_accepted_step(gallery_params, monkeypatch, label):
    """max_distance and the exit/re-entry flags must cover every point the
    stop condition is shown, not only the thinned stored samples."""
    import lvcompete.dynamics as dynamics

    seen = []
    original = dynamics.integrate

    def recording_integrate(params, initial, horizon, opts=None):
        points = []
        seen.append(points)

        def stop(t, x):
            points.append(x)
            return opts.stop_condition(t, x)

        return original(params, initial, horizon, replace(opts, stop_condition=stop))

    monkeypatch.setattr(dynamics, "integrate", recording_integrate)
    p = REENTRY_PARAMS if label == "reentry" else gallery_params[label]
    reentries = 0
    for eq in classify(p).equilibria:
        seen.clear()
        emp = empirical_stability(p, eq, ProbeProtocol(probe_count=8))
        tx, ty = eq.float_position
        ball = 10.0 * emp.radius
        assert len(seen) == len(emp.probes) > 0
        for probe, points in zip(emp.probes, seen):
            dists = [math.hypot(x1 - tx, x2 - ty) for x1, x2 in points]
            outside = [d > ball for d in dists]
            assert probe.max_distance == max(dists)
            assert probe.exited_ball == any(outside)
            assert probe.reentered_after_exit == any(
                before and not after for before, after in zip(outside, outside[1:]))
            reentries += probe.reentered_after_exit
    assert (reentries > 0) == (label == "reentry")


def _gallery_quadrant_probes(gallery_params):
    """Quadrant-scope rings of 16 probes around every isolated quadrant
    equilibrium of the gallery (27 targets), as (label, params, target,
    verdict)."""
    for label, p in gallery_params.items():
        for eq in find_equilibria(p):
            if isinstance(eq, Equilibrium):
                yield label, p, eq, empirical_stability(p, eq, ProbeProtocol(probe_count=16))


def test_escaped_quadrant_probes_stop_at_their_certified_limit(gallery_params):
    """Outside the escape ball, a quadrant probe whose field lies in a cone
    of the competitive order stops once the order names another
    equilibrium as its limit; the certificate holds at its final point.
    Probes that converge carry no limit.  case9's line of equilibria has no
    order rule, so its origin's probes escape the old way."""
    escaped = 0
    for label, p, eq, emp in _gallery_quadrant_probes(gallery_params):
        for probe in emp.probes:
            where = (label, eq.kind, probe.label)
            if probe.outcome is not ProbeOutcome.ESCAPED or label == "case9":
                assert probe.limit is None, where
                continue
            escaped += 1
            assert probe.status is TerminalStatus.STOPPED, where
            assert probe.limit is not None and probe.limit.position != eq.position, where
            assert probe.limit is _order_limit(p, *map(Fraction, probe.final_point)), where
    assert escaped == 112


def test_a_rule_that_names_the_target_lets_the_probes_run_on(gallery_params, monkeypatch):
    """Negative control: with the rule patched to name the target, every
    probe keeps running as it did before the rule, to the same outcomes,
    with no limit and more steps."""
    import lvcompete.dynamics as dynamics

    certified = list(_gallery_quadrant_probes(gallery_params))
    steps = sum(r.n_accepted for *_, emp in certified for r in emp.probes)
    patched_steps = 0
    for label, p, eq, emp in certified:
        monkeypatch.setattr(dynamics, "_order_limit", lambda *_: eq)
        run_on = empirical_stability(p, eq, ProbeProtocol(probe_count=16))
        assert run_on.verdict is emp.verdict, (label, eq.kind)
        assert [(r.outcome, r.exited_ball) for r in run_on.probes] == \
            [(r.outcome, r.exited_ball) for r in emp.probes], (label, eq.kind)
        assert all(r.limit is None for r in run_on.probes), (label, eq.kind)
        patched_steps += sum(r.n_accepted for r in run_on.probes)
    assert patched_steps > 2 * steps


def test_gallery_quadrant_probes_stay_under_a_step_ceiling(gallery_params):
    """The 27 gallery quadrant targets took 67,296 accepted steps when an
    escaped probe ran on until it settled at another equilibrium, and
    24,683 with the stop at a certified limit; the ceiling is about 10%
    above that."""
    total = sum(r.n_accepted for *_, emp in _gallery_quadrant_probes(gallery_params)
                for r in emp.probes)
    assert total < 27_000


def test_probe_ring_confirms_interior_saddle(gallery_params):
    p = gallery_params["case8"]
    report = classify(p)
    emp = empirical_stability(p, _interior(report), ProbeProtocol(probe_count=8))
    assert emp.verdict is EmpiricalVerdictKind.REPELLING
    assert emp.has_escape
    assert empirical_matches(report.verdict_at(EquilibriumKind.INTERIOR), emp)
    for kind in (EquilibriumKind.AXIS1, EquilibriumKind.AXIS2):
        eq = next(e for e in report.equilibria
                  if isinstance(e, Equilibrium) and e.kind is kind)
        emp_axis = empirical_stability(p, eq, ProbeProtocol(probe_count=6))
        assert emp_axis.verdict is EmpiricalVerdictKind.ATTRACTING
        assert empirical_matches(report.verdict_at(kind), emp_axis)


def test_line_member_probes_settle_on_neighbors(gallery_params):
    p = gallery_params["case9"]
    report = classify(p)
    line = next(e for e in report.equilibria if isinstance(e, EquilibriumLine))
    member = line.member(line.alpha_max / 2)
    emp = empirical_stability(p, member, ProbeProtocol(probe_count=6))
    assert emp.verdict is EmpiricalVerdictKind.MIXED
    assert not emp.has_escape
    settled = [r for r in emp.probes if r.outcome is ProbeOutcome.SETTLED_ELSEWHERE]
    assert settled, "expected probes parked at nearby line points"
    assert empirical_matches(report.verdict_at(EquilibriumKind.LINE_MEMBER), emp)


def test_semi_stable_axis_full_plane_picture(gallery_params):
    """Quadrant-side probes of the degenerate axis point must crawl home
    along the center manifold; wedge-side probes must leave for good."""
    p = gallery_params["case4"]
    report = classify(p)
    eq = next(e for e in report.equilibria
              if isinstance(e, Equilibrium) and e.kind is EquilibriumKind.AXIS1)
    emp = empirical_stability(
        p, eq, ProbeProtocol(probe_count=8, scope=ProbeScope.FULL_PLANE))
    assert emp.verdict is EmpiricalVerdictKind.MIXED
    quadrant = emp.quadrant_probes
    wedge = emp.wedge_probes
    assert quadrant and wedge
    assert all(r.outcome is ProbeOutcome.CONVERGED_TO_TARGET for r in quadrant)
    assert all(r.outcome is ProbeOutcome.ESCAPED for r in wedge)
    assert all(r.exited_ball and not r.reentered_after_exit for r in wedge)
    analytic = report.verdict_at(EquilibriumKind.AXIS1, Scope.FULL_NEIGHBORHOOD)
    assert empirical_matches(analytic, emp)
    # the same probes do NOT corroborate semi-stability if any wedge probe
    # were to come home
    tampered = replace(emp, probes=[
        replace(r, outcome=ProbeOutcome.CONVERGED_TO_TARGET) if r.in_wedge else r
        for r in emp.probes
    ])
    assert not empirical_matches(analytic, tampered)


def test_radius_guard_refuses_to_probe_blind(gallery_params):
    report = classify(gallery_params["case1"])
    emp = empirical_stability(gallery_params["case1"], _interior(report),
                              ProbeProtocol(probe_count=6, settle_tol=1e-2))
    assert emp.verdict is EmpiricalVerdictKind.INCONCLUSIVE
    assert emp.probes == []
    assert "settle tolerance" in emp.note


def test_undecided_probes_yield_inconclusive_never_a_match():
    """Every probe of the b1 = 1e12 axis-1 sink ends undecided (as in
    test_undecided_probes_are_counted_with_their_statuses); the INCONCLUSIVE
    verdict matches neither the sink's nor the source's analytic verdict."""
    p = SystemParams.from_pairs((10 ** 12, 1), ((1, 1), (1, 1)))
    report = classify(p)
    axis1 = next(e for e in report.equilibria if e.kind is EquilibriumKind.AXIS1)
    emp = empirical_stability(p, axis1, ProbeProtocol(probe_count=6))
    assert emp.verdict is EmpiricalVerdictKind.INCONCLUSIVE
    assert {r.outcome for r in emp.probes} == {ProbeOutcome.UNDECIDED}
    for kind in (EquilibriumKind.AXIS1, EquilibriumKind.ORIGIN):
        assert not empirical_matches(report.verdict_at(kind), emp)


def test_ring_starts_keep_clear_of_the_axis_lines(gallery_params):
    """A start on an axis line through the target can slide into a saddle
    along its stable axis, so no ring angle is a multiple of pi/2: every
    start lies at least radius*sin(pi/4n) from both lines, and the first
    lies above and to the right of the target."""
    p = gallery_params["case1"]
    target = _interior(classify(p))
    tx, ty = target.float_position
    for n in range(1, 33):
        emp = empirical_stability(
            p, target, ProbeProtocol(probe_count=n, scope=ProbeScope.FULL_PLANE))
        assert len(emp.probes) == n
        clearance = (1 - 1e-9) * emp.radius * math.sin(math.pi / (4 * n))
        for probe in emp.probes:
            sx, sy = probe.start
            assert abs(sx - tx) >= clearance and abs(sy - ty) >= clearance, (n, probe.label)
        sx, sy = emp.probes[0].start
        assert sx > tx and sy > ty, n


def test_a_ring_needs_a_probe():
    """With no probes the aggregate verdict would read ATTRACTING."""
    with pytest.raises(ValueError, match="probe_count must be at least 1"):
        ProbeProtocol(probe_count=0)


def test_undecided_probes_are_counted_with_their_statuses():
    """At b1 = 1e12 the step the controller asks for falls below the
    minimum step (1e-14 of the horizon) at every ring start."""
    p = SystemParams(b1=Fraction(10 ** 12), b2=Fraction(1), a11=Fraction(1),
                     a12=Fraction(1), a21=Fraction(1), a22=Fraction(1))
    for eq in find_equilibria(p):
        emp = empirical_stability(p, eq)
        n = len(emp.probes)
        assert emp.verdict is EmpiricalVerdictKind.INCONCLUSIVE and n > 0
        assert {r.status for r in emp.probes} == {TerminalStatus.STEP_FAILURE}
        assert emp.note == f"{n} of {n} probes undecided: {n} step size underflow"


def test_attracting_claim_contradicts_unstable_analytics(gallery_params):
    report = classify(gallery_params["case1"])
    emp = empirical_stability(gallery_params["case1"], _interior(report),
                              ProbeProtocol(probe_count=4))
    origin_verdict = report.verdict_at(EquilibriumKind.ORIGIN)
    assert not empirical_matches(origin_verdict, emp)


def test_probe_verdicts_agree_with_classifier_across_random_draws():
    """Oracle cross-check: classify() analytically, then probe every
    equilibrium numerically and insist the verdicts corroborate each other
    at quadrant scope.  Zero-eigenvalue targets get a relaxed settle
    tolerance — convergence along a center manifold is algebraic, and the
    probe only needs to identify the behavior, not race it home."""
    rng = random.Random(20240811)
    fast = ProbeProtocol(probe_count=6)
    slow = ProbeProtocol(probe_count=6, settle_tol=1e-4)
    total = conclusive = 0
    mismatches = []
    serials = set()
    for draw in range(500):
        vals = [Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(6)]
        params = SystemParams(b1=vals[0], b2=vals[1], a11=vals[2],
                              a12=vals[3], a21=vals[4], a22=vals[5])
        report = classify(params)
        serials.add(report.sign_case.table6_serial)
        targets = []
        for entry in report.equilibria:
            if isinstance(entry, EquilibriumLine):
                targets.append(entry.member(entry.alpha_max / 2))
            else:
                targets.append(entry)
        for eq in targets:
            analytic = report.verdict_at(eq.kind)
            if analytic is None:
                continue
            degenerate = (Sign.ZERO in eq.eigenvalues.realpart_signs
                          and eq.kind is not EquilibriumKind.LINE_MEMBER)
            emp = empirical_stability(params, eq, slow if degenerate else fast)
            total += 1
            if emp.verdict is EmpiricalVerdictKind.INCONCLUSIVE:
                continue
            conclusive += 1
            if not empirical_matches(analytic, emp):
                mismatches.append((draw, params, eq.kind,
                                   analytic.verdict, emp.verdict))
    assert mismatches == []
    assert conclusive >= 0.9 * total
    assert serials.issuperset({1, 2, 3, 4, 5, 6, 7, 8})
