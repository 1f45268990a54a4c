"""Numerical side of the analysis: simulation and empirical verification.

Everything in this module works in floating point and exists to check the
exact classification from the outside.  The main pieces are

* an adaptive integrator with PI step control that keeps the coordinate
  axes exactly invariant: one stepping loop runs embedded
  Runge-Kutta-Fehlberg 4(5) by default and the third-order L-stable
  Rosenbrock method ROS3 while a stiffness test on the exact Jacobian finds
  the run pinned at RKF45's stability limit,
* a Lyapunov-function checker that differentiates the candidate function
  numerically (complex step) and compares against its closed-form derivative,
* an empirical stability probe: launch trajectories in a ring around an
  equilibrium and grade what comes back.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .exact import Sign, sign_of
from .model import SystemParams, compute_determinants
from .equilibria import Equilibrium, EquilibriumKind, _order_limit, find_equilibria
from .classifier import StabilityClass, Verdict, is_asymptotically_stable, is_unstable

__all__ = [
    "vector_field",
    "IntegratorOptions",
    "TerminalStatus",
    "Trajectory",
    "integrate",
    "LyapunovTarget",
    "NotApplicable",
    "LyapunovCheck",
    "lyapunov_verify",
    "ProbeScope",
    "ProbeOutcome",
    "ProbeProtocol",
    "ProbeResult",
    "EmpiricalVerdictKind",
    "EmpiricalVerdict",
    "empirical_stability",
    "empirical_matches",
]

Point = Tuple[float, float]


def vector_field(params: SystemParams, point: Sequence[float]) -> Point:
    """Right-hand side of the system at a point, in floating point."""
    b1, b2, a11, a12, a21, a22 = params.as_float_tuple()
    x1, x2 = float(point[0]), float(point[1])
    # Factored form: an exactly-zero coordinate has an exactly-zero
    # derivative, so the axes stay invariant step after step.
    return (x1 * (b1 - a11 * x1 - a12 * x2), x2 * (b2 - a21 * x1 - a22 * x2))


# ---------------------------------------------------------------------------
# Adaptive integration


class TerminalStatus(Enum):
    REACHED_HORIZON = "reached horizon"
    CONVERGED = "converged to a point"
    LEFT_DOMAIN = "left the domain"
    STEP_FAILURE = "step size underflow"
    STOPPED = "stop condition met"


#: Trailing time span over which a converging run must also have stopped
#: moving (see ``IntegratorOptions.conv_tol``).
_CONV_WINDOW = 1.0
#: A run ends with STEP_FAILURE when the controller needs a step below this
#: fraction of the horizon.
_MIN_STEP_FACTOR = 1e-14


@dataclass(frozen=True)
class IntegratorOptions:
    """Tuning knobs for :func:`integrate`.

    ``conv_tol`` gates the convergence detector (velocity below the
    tolerance *and* total displacement over the trailing 1.0 time units,
    ``_CONV_WINDOW``, below it); set it to 0 to disable detection entirely.
    ``fixed_step`` (positive and finite) disables adaptivity and the switch
    to ROS3 — used by the order-measurement tests.  Otherwise the first
    step is guessed from the initial speed and steps are never clamped from
    above.
    ``stop_condition`` is checked on the initial point and after every
    accepted step and ends the run with status STOPPED.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    conv_tol: float = 1e-9
    escape_bound: float = 1e6
    fixed_step: Optional[float] = None
    stop_condition: Optional[Callable[[float, Point], bool]] = None
    #: Store every n-th accepted step (plus the first and last).  Long probe
    #: runs on a slow manifold take millions of steps; keeping them all
    #: would dominate memory without adding information.
    sample_every: int = 1


@dataclass
class Trajectory:
    samples: List[Tuple[float, float, float]]
    terminal_status: TerminalStatus
    n_accepted: int = 0
    n_rejected: int = 0

    @property
    def final_time(self) -> float:
        return self.samples[-1][0]

    @property
    def final_point(self) -> Point:
        _, x1, x2 = self.samples[-1]
        return (x1, x2)

    def to_csv(self) -> str:
        lines = ["t,x1,x2"]
        for t, x1, x2 in self.samples:
            lines.append(f"{t:.17g},{x1:.17g},{x2:.17g}")
        return "\n".join(lines) + "\n"


# Fehlberg 4(5) coefficients.  The fifth-order weights are propagated (local
# extrapolation); _E is the difference against the embedded fourth-order
# weights and gives the local error estimate.
_A21 = 1 / 4
_A31, _A32 = 3 / 32, 9 / 32
_A41, _A42, _A43 = 1932 / 2197, -7200 / 2197, 7296 / 2197
_A51, _A52, _A53, _A54 = 439 / 216, -8.0, 3680 / 513, -845 / 4104
_A61, _A62, _A63, _A64, _A65 = -8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40
_B1, _B3, _B4, _B5, _B6 = 16 / 135, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55
_E1, _E3, _E4, _E5, _E6 = 1 / 360, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55

# ROS3 (Sandu, Verwer, Blom, Spee, Carmichael & Potra, Atmos. Environ. 31,
# 1997), in their unscaled-stage form: a three-stage linearly implicit
# method of order 3 with an embedded order-2 solution, L-stable, with two
# field evaluations per step.  The new point is x + K1 + M2*K2 + M3*K3 and
# the error estimate E1*K1 + E2*K2 + E3*K3.
_ROS3_GAMMA = 0.43586652150845899942
_ROS3_C21 = -1.0156171083877702092
_ROS3_C31, _ROS3_C32 = 4.0759956452537699825, 9.2076794298330791242
_ROS3_M2, _ROS3_M3 = 6.1697947043828245593, -0.42772256543218573326
_ROS3_E1, _ROS3_E2, _ROS3_E3 = 0.5, -2.9079558716805469822, 0.22354069897811569627

# Stiffness test (Hairer & Wanner, Solving ODEs II, IV.2) on the exact
# Jacobian: every _STIFF_CHECK_EVERY accepted adaptive steps, h*rho(J) is
# compared with RKF45's real stability interval, which is [-3.68, 0].  A
# check costs about as much as a tenth of a step, so checking every 16
# steps slowed short runs by about 1%.
_STIFF_CHECK_EVERY = 32
#: Switch to ROS3 after h*rho > _STIFF_ENTER at this many consecutive
#: checks, 256 steps at the limit: a short run that reaches a sink and
#: stops soon after stays on RKF45, which needs fewer steps there.
_STIFF_ENTER = 3.0
_STIFF_CHECKS = 8
#: Switch back to RKF45 after h*rho < _NONSTIFF_EXIT at this many checks.
_NONSTIFF_EXIT = 1.0
_NONSTIFF_CHECKS = 2
#: What changes with the stepper: the reject exponent, the PI controller's
#: exponents on this and the previous error, and the checks to switch out.
#: The exponents follow the order of each error estimate, 5 and 3.
_RKF45_CONTROL = (-0.2, -0.14, 0.08, _STIFF_CHECKS)
_ROS3_CONTROL = (-1 / 3, -0.7 / 3, 0.4 / 3, _NONSTIFF_CHECKS)


def _spectral_radius(j11: float, j12: float, j21: float, j22: float) -> float:
    """Largest eigenvalue modulus of the 2x2 matrix ((j11, j12), (j21, j22))."""
    half_trace = 0.5 * (j11 + j22)
    det = j11 * j22 - j12 * j21
    disc = half_trace * half_trace - det
    if disc < 0.0:  # complex pair: |lambda|^2 = det
        return math.sqrt(det)
    return abs(half_trace) + math.sqrt(disc)


def _max_drift(window: deque, x1: float, x2: float) -> float:
    """Largest sup-norm distance from (x1, x2) to a point of ``window``."""
    return max(max(abs(x1 - w1), abs(x2 - w2)) for _, w1, w2 in window)


def integrate(
    params: SystemParams,
    initial: Sequence[float],
    horizon: float,
    opts: Optional[IntegratorOptions] = None,
) -> Trajectory:
    """Integrate forward from ``initial`` for up to ``horizon`` time units.

    Accepted steps keep the weighted RMS of the embedded error estimate
    below one, with scale ``abs_tol + rel_tol*max(|x|, |x_next|)`` per
    component.  Runs end early on convergence, on leaving the escape ball,
    on a caller-supplied stop condition, or with STEP_FAILURE if the
    controller would need a step below ``1e-14 * horizon``
    (``_MIN_STEP_FACTOR``).

    The stepper is RKF45 (Fehlberg 4(5), fifth order propagated).  Every
    32 accepted adaptive steps (``_STIFF_CHECK_EVERY``) the run compares
    h*rho, with rho the spectral radius of the closed-form Jacobian, against
    RKF45's real stability interval [-3.68, 0].  After 8 consecutive checks
    with h*rho > 3 (``_STIFF_CHECKS``, ``_STIFF_ENTER``) at the newly
    accepted point the run is stability-limited, and it continues with ROS3,
    a three-stage linearly implicit L-stable Rosenbrock method of order 3
    (Sandu et al., 1997) on the exact Jacobian, with two field evaluations
    per step and an embedded order-2 error estimate.  After 2 consecutive
    checks with h*rho < 1 (``_NONSTIFF_CHECKS``, ``_NONSTIFF_EXIT``), each
    on the Jacobian that ROS3 built at the start of the step just taken, it
    returns to RKF45.  On an axis the Jacobian is triangular, so ROS3 keeps
    the axes exactly invariant too.

    One loop on scalar locals serves both steppers: a ``stiff`` flag picks
    the stage block, and all that follows is shared.  Only the reject and
    controller exponents and the switch count change with the stepper
    (``_RKF45_CONTROL``, ``_ROS3_CONTROL``); a switching step keeps its h.
    """
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    opts = opts or IntegratorOptions()
    if opts.fixed_step is not None and not 0 < opts.fixed_step < math.inf:
        raise ValueError(f"fixed_step must be positive and finite, got {opts.fixed_step}")
    b1, b2, a11, a12, a21, a22 = params.as_float_tuple()
    rel_tol, abs_tol = opts.rel_tol, opts.abs_tol
    conv_tol = opts.conv_tol
    escape_bound = opts.escape_bound
    stop_condition = opts.stop_condition
    sample_every = max(1, opts.sample_every)
    fixed = opts.fixed_step

    t = 0.0
    x1, x2 = float(initial[0]), float(initial[1])
    samples = [(t, x1, x2)]
    window: deque = deque([(t, x1, x2)])
    n_accepted = n_rejected = 0

    # ``finish`` takes the final state as arguments: a closure over t, x1 and
    # x2 would turn them into cell variables, which are slower to read in
    # the stepping loop.
    def finish(status: TerminalStatus, t: float, x1: float, x2: float) -> Trajectory:
        if samples[-1][0] != t:
            samples.append((t, x1, x2))
        return Trajectory(samples=samples, terminal_status=status,
                          n_accepted=n_accepted, n_rejected=n_rejected)

    if stop_condition is not None and stop_condition(t, (x1, x2)):
        return finish(TerminalStatus.STOPPED, t, x1, x2)
    if max(abs(x1), abs(x2)) > escape_bound:
        return finish(TerminalStatus.LEFT_DOMAIN, t, x1, x2)
    # Stage-1 slopes; reused across rejected retries and carried over from
    # the convergence check of the previous accepted step.
    k11 = x1 * (b1 - a11 * x1 - a12 * x2)
    k12 = x2 * (b2 - a21 * x1 - a22 * x2)
    if conv_tol > 0 and max(abs(k11), abs(k12)) <= conv_tol:
        return finish(TerminalStatus.CONVERGED, t, x1, x2)

    min_step = _MIN_STEP_FACTOR * horizon
    if fixed is not None:
        h = fixed
    else:
        # Crude but serviceable starting guess; the controller corrects it
        # within a step or two.
        speed = max(abs(k11), abs(k12))
        h = min(horizon * 0.1, 0.01 * (max(abs(x1), abs(x2)) + 1.0) / (speed + 1e-12))
        h = max(h, min_step)
    since_sample = 0
    check = _STIFF_CHECK_EVERY
    # The stepper in use, what changes with it, and how many stiffness
    # checks in a row have pointed to the other one.
    stiff = False
    reject_exp, ctrl_exp, prev_exp, switch_after = _RKF45_CONTROL
    streak, err_prev = 0, 1.0

    while t < horizon:
        if h > horizon - t:
            h = horizon - t

        if stiff:
            # ROS3 in the unscaled-stage form: every stage solves with
            # M = I/(gamma*h) - J on the exact Jacobian J at x.  On an axis J
            # is triangular and the zero coordinate of every right-hand side
            # is 0, so Cramer's rule gives that coordinate's stages exactly
            # 0.0.
            j11 = b1 - 2.0 * a11 * x1 - a12 * x2
            j12 = -a12 * x1
            j21 = -a21 * x2
            j22 = b2 - a21 * x1 - 2.0 * a22 * x2
            hinv = 1.0 / h
            g = hinv / _ROS3_GAMMA
            m11 = g - j11
            m22 = g - j22
            det = m11 * m22 - j12 * j21
            if not det:
                det = math.nan  # singular stage matrix: the step is rejected
            s1 = (k11 * m22 + j12 * k12) / det
            s2 = (m11 * k12 + j21 * k11) / det
            y1 = x1 + s1
            y2 = x2 + s2
            f1 = y1 * (b1 - a11 * y1 - a12 * y2)
            f2 = y2 * (b2 - a21 * y1 - a22 * y2)
            c = _ROS3_C21 * hinv
            r1 = f1 + c * s1
            r2 = f2 + c * s2
            u1 = (r1 * m22 + j12 * r2) / det
            u2 = (m11 * r2 + j21 * r1) / det
            # The third stage reuses the second stage's field value.
            r1 = f1 + (_ROS3_C31 * s1 + _ROS3_C32 * u1) * hinv
            r2 = f2 + (_ROS3_C31 * s2 + _ROS3_C32 * u2) * hinv
            w1 = (r1 * m22 + j12 * r2) / det
            w2 = (m11 * r2 + j21 * r1) / det
            x1n = x1 + s1 + _ROS3_M2 * u1 + _ROS3_M3 * w1
            x2n = x2 + s2 + _ROS3_M2 * u2 + _ROS3_M3 * w2
            # Against the embedded second-order solution.
            e1 = _ROS3_E1 * s1 + _ROS3_E2 * u1 + _ROS3_E3 * w1
            e2 = _ROS3_E1 * s2 + _ROS3_E2 * u2 + _ROS3_E3 * w2
        else:
            # RKF45, the default stepper.
            y1 = x1 + h * (_A21 * k11)
            y2 = x2 + h * (_A21 * k12)
            k21 = y1 * (b1 - a11 * y1 - a12 * y2)
            k22 = y2 * (b2 - a21 * y1 - a22 * y2)
            y1 = x1 + h * (_A31 * k11 + _A32 * k21)
            y2 = x2 + h * (_A31 * k12 + _A32 * k22)
            k31 = y1 * (b1 - a11 * y1 - a12 * y2)
            k32 = y2 * (b2 - a21 * y1 - a22 * y2)
            y1 = x1 + h * (_A41 * k11 + _A42 * k21 + _A43 * k31)
            y2 = x2 + h * (_A41 * k12 + _A42 * k22 + _A43 * k32)
            k41 = y1 * (b1 - a11 * y1 - a12 * y2)
            k42 = y2 * (b2 - a21 * y1 - a22 * y2)
            y1 = x1 + h * (_A51 * k11 + _A52 * k21 + _A53 * k31 + _A54 * k41)
            y2 = x2 + h * (_A51 * k12 + _A52 * k22 + _A53 * k32 + _A54 * k42)
            k51 = y1 * (b1 - a11 * y1 - a12 * y2)
            k52 = y2 * (b2 - a21 * y1 - a22 * y2)
            y1 = x1 + h * (_A61 * k11 + _A62 * k21 + _A63 * k31 + _A64 * k41 + _A65 * k51)
            y2 = x2 + h * (_A61 * k12 + _A62 * k22 + _A63 * k32 + _A64 * k42 + _A65 * k52)
            k61 = y1 * (b1 - a11 * y1 - a12 * y2)
            k62 = y2 * (b2 - a21 * y1 - a22 * y2)

            x1n = x1 + h * (_B1 * k11 + _B3 * k31 + _B4 * k41 + _B5 * k51 + _B6 * k61)
            x2n = x2 + h * (_B1 * k12 + _B3 * k32 + _B4 * k42 + _B5 * k52 + _B6 * k62)
            e1 = h * (_E1 * k11 + _E3 * k31 + _E4 * k41 + _E5 * k51 + _E6 * k61)
            e2 = h * (_E1 * k12 + _E3 * k32 + _E4 * k42 + _E5 * k52 + _E6 * k62)

        a1 = abs(x1n)
        v = abs(x1)
        sc1 = abs_tol + rel_tol * (a1 if a1 > v else v)
        a2 = abs(x2n)
        v = abs(x2)
        sc2 = abs_tol + rel_tol * (a2 if a2 > v else v)
        q1 = e1 / sc1
        q2 = e2 / sc2
        err = math.sqrt(0.5 * (q1 * q1 + q2 * q2))

        if fixed is None and not err <= 1.0:  # catches NaN as well
            n_rejected += 1
            h *= max(0.1, 0.9 * err ** reject_exp) if err <= 1e12 else 0.1
            if h < min_step:
                return finish(TerminalStatus.STEP_FAILURE, t, x1, x2)
            continue

        t += h
        x1, x2 = x1n, x2n
        n_accepted += 1
        since_sample += 1
        if since_sample >= sample_every:
            samples.append((t, x1, x2))
            since_sample = 0

        if stop_condition is not None and stop_condition(t, (x1, x2)):
            return finish(TerminalStatus.STOPPED, t, x1, x2)
        if not (abs(x1) <= escape_bound and abs(x2) <= escape_bound):
            # non-finite coordinates land here too
            return finish(TerminalStatus.LEFT_DOMAIN, t, x1, x2)

        # Next step's stage-1 slopes, doubling as the convergence velocity.
        k11 = x1 * (b1 - a11 * x1 - a12 * x2)
        k12 = x2 * (b2 - a21 * x1 - a22 * x2)
        if conv_tol > 0:
            window.append((t, x1, x2))
            while len(window) >= 2 and window[1][0] <= t - _CONV_WINDOW:
                window.popleft()
            if (max(abs(k11), abs(k12)) <= conv_tol
                    and window[0][0] <= t - _CONV_WINDOW):
                if _max_drift(window, x1, x2) <= conv_tol:
                    return finish(TerminalStatus.CONVERGED, t, x1, x2)

        if fixed is None:
            check -= 1
            if not check:
                check = _STIFF_CHECK_EVERY
                if not stiff:  # ROS3 reuses the J of its stage matrix
                    j11 = b1 - 2.0 * a11 * x1 - a12 * x2
                    j12 = -a12 * x1
                    j21 = -a21 * x2
                    j22 = b2 - a21 * x1 - 2.0 * a22 * x2
                hr = h * _spectral_radius(j11, j12, j21, j22)
                if (hr < _NONSTIFF_EXIT) if stiff else (hr > _STIFF_ENTER):
                    streak += 1
                    if streak == switch_after:
                        # Change stepper and go on with the same step.
                        stiff = not stiff
                        reject_exp, ctrl_exp, prev_exp, switch_after = (
                            _ROS3_CONTROL if stiff else _RKF45_CONTROL)
                        streak, err_prev = 0, 1.0
                        continue
                else:
                    streak = 0
            e = err if err > 1e-10 else 1e-10
            fac = 0.9 * e ** ctrl_exp * err_prev ** prev_exp
            if fac > 5.0:
                fac = 5.0
            elif fac < 0.2:
                fac = 0.2
            h *= fac
            err_prev = e
            if h < min_step and t < horizon:
                return finish(TerminalStatus.STEP_FAILURE, t, x1, x2)

    return finish(TerminalStatus.REACHED_HORIZON, t, x1, x2)


# ---------------------------------------------------------------------------
# Lyapunov verification


class LyapunovTarget(Enum):
    FOR_AXIS2 = "axis2"   # applicable when d122 = 0
    FOR_AXIS1 = "axis1"   # applicable when d112 = 0


class NotApplicable(ValueError):
    """The Lyapunov construction needs the matching minor to vanish."""


@dataclass(frozen=True)
class LyapunovCheck:
    """Summary over the sample points: the largest relative gap between the
    two routes to dV/dt, and whether every sample had the expected sign of
    dV/dt and V > 0."""

    which: LyapunovTarget
    exponents: Tuple[Fraction, Fraction]
    d12_sign: Sign
    max_rel_gap: float
    all_signs_match: bool
    all_positive: bool

    def passed(self, chain_rule_tol: float = 1e-8) -> bool:
        return (self.max_rel_gap <= chain_rule_tol
                and self.all_signs_match and self.all_positive)


#: Both coordinates of the Lyapunov sample points range over this interval.
_LYAPUNOV_BOX = (0.1, 5.0)

_PLASTIC = 1.32471795724474602596  # real root of x^3 = x + 1; drives the R2 sequence


def _r2_sequence(n: int, offset: int = 0):
    a1 = 1.0 / _PLASTIC
    a2 = 1.0 / (_PLASTIC * _PLASTIC)
    for k in range(offset, offset + n):
        yield ((0.5 + a1 * (k + 1)) % 1.0, (0.5 + a2 * (k + 1)) % 1.0)


def lyapunov_verify(
    params: SystemParams,
    which: LyapunovTarget,
    sample_count: int = 1000,
    seed: int = 0,
) -> LyapunovCheck:
    """Check the monomial Lyapunov candidate on quasi-random interior points.

    The candidate for the axis-2 case is V = x1^a22 * x2^(-a12), whose
    derivative along the flow collapses to -d12 * x1^(a22+1) * x2^(-a12)
    when d122 = 0 (mirror formulas for the axis-1 case).  Two independent
    routes to dV/dt are compared at every sample: the closed form, and a
    complex-step gradient of V dotted with the vector field.
    The sign of dV/dt must equal -sign(d12) throughout the open quadrant.
    The ``sample_count`` points, at least one, fill the fixed box (0.1, 5)^2
    (``_LYAPUNOV_BOX``); ``seed`` offsets the quasi-random sequence.
    """
    if sample_count < 1:
        raise ValueError(f"sample_count must be at least 1, got {sample_count}")
    d = compute_determinants(params)
    # dV/dt is -d12*V*x1 for the axis-2 candidate and -d12*V*x2 for the
    # axis-1 one: (s1, s2) is the extra power of x1 and x2 in the closed form.
    if which is LyapunovTarget.FOR_AXIS2:
        rule, minor = "axis-2 construction requires d122", d.d122
        p_exp, q_exp, s1, s2 = params.a22, -params.a12, 1.0, 0.0
    else:
        rule, minor = "axis-1 construction requires d112", d.d112
        p_exp, q_exp, s1, s2 = -params.a21, params.a11, 0.0, 1.0
    if minor != 0:
        raise NotApplicable(f"{rule} = 0, got {minor}")

    lo, hi = _LYAPUNOV_BOX
    pf, qf = float(p_exp), float(q_exp)
    d12f = float(d.d12)
    b1, b2, a11, a12, a21, a22 = params.as_float_tuple()
    h = 1e-200
    expected_sign = sign_of(-d.d12)
    max_gap = 0.0
    all_signs = True
    all_positive = True
    for u, w in _r2_sequence(sample_count, offset=seed):
        x1 = lo + u * (hi - lo)
        x2 = lo + w * (hi - lo)
        v = math.exp(pf * math.log(x1) + qf * math.log(x2))
        vdot_closed = -d12f * math.exp((pf + s1) * math.log(x1) + (qf + s2) * math.log(x2))
        # Complex-step partial derivatives of V, dotted with the field.
        dv1 = cmath.exp(pf * cmath.log(complex(x1, h))
                        + qf * cmath.log(complex(x2, 0.0))).imag / h
        dv2 = cmath.exp(pf * cmath.log(complex(x1, 0.0))
                        + qf * cmath.log(complex(x2, h))).imag / h
        f1 = x1 * (b1 - a11 * x1 - a12 * x2)
        f2 = x2 * (b2 - a21 * x1 - a22 * x2)
        vdot_chain = dv1 * f1 + dv2 * f2
        # When the closed form vanishes identically (conserved case) the gap
        # must be judged against the size of the dot product's terms, not
        # against zero.
        scale = max(abs(vdot_closed), abs(dv1 * f1) + abs(dv2 * f2), 1e-300)
        gap = abs(vdot_chain - vdot_closed) / scale
        sign_ok = sign_of(vdot_closed) is expected_sign
        max_gap = max(max_gap, gap)
        all_signs = all_signs and sign_ok
        all_positive = all_positive and v > 0
    return LyapunovCheck(which=which, exponents=(p_exp, q_exp), d12_sign=sign_of(d.d12),
                         max_rel_gap=max_gap,
                         all_signs_match=all_signs, all_positive=all_positive)


# ---------------------------------------------------------------------------
# Empirical stability probing


class ProbeScope(Enum):
    FIRST_QUADRANT = "first_quadrant"
    FULL_PLANE = "full_plane"


class ProbeOutcome(Enum):
    CONVERGED_TO_TARGET = "converged to target"
    ESCAPED = "escaped"
    SETTLED_ELSEWHERE = "settled elsewhere"
    UNDECIDED = "undecided"


class EmpiricalVerdictKind(Enum):
    ATTRACTING = "attracting"
    REPELLING = "repelling in some direction"
    MIXED = "mixed"
    INCONCLUSIVE = "inconclusive"


#: Ring radius per unit of ``max(1, |eq|)``.
_PROBE_RADIUS_FACTOR = 1e-3
#: Speed below which a probe counts as having stopped moving.
_SETTLE_VELOCITY = 1e-9
#: Radius of the escape ball, in ring radii.
_ESCAPE_FACTOR = 10.0
#: Extra probes planted inside an escaping wedge.
_WEDGE_PROBE_COUNT = 4
#: Time limit of every probe run, raised to 5e7 for a target with a zero
#: eigenvalue.
_PROBE_HORIZON = 1e4
#: Integrator settings of every probe run; :func:`empirical_stability` adds
#: the stop condition, the convergence gate and the escape bound.
_PROBE_INTEGRATOR = IntegratorOptions(rel_tol=1e-8, abs_tol=1e-11, conv_tol=0.0,
                                      sample_every=64)


@dataclass(frozen=True)
class ProbeProtocol:
    """How to surround an equilibrium with test trajectories.

    ``probe_count`` probes, at least one, start on a ring of radius
    ``1e-3 * max(1, |eq|)`` (``_PROBE_RADIUS_FACTOR``; shrunk if another
    equilibrium is nearby) at the angles 2*pi*(k + c)/n, with c = 1/2 when
    4 divides n and c = 1/8 otherwise.  No angle is then a multiple of
    pi/2, so no probe starts on an axis line through the target, where it
    could slide into a saddle along the saddle's stable axis; the first
    angle lies in (0, pi/2), so every target keeps a start in the
    quadrant.  A probe converges if it comes within ``settle_tol`` of the
    target before the horizon of 1e4 (``_PROBE_HORIZON``), escapes if it
    leaves the ball of 10 ring radii (``_ESCAPE_FACTOR``) and stays out, and
    settles elsewhere if it stops moving (speed at most 1e-9,
    ``_SETTLE_VELOCITY``) anywhere else.  "Stays out" is proven, not waited
    for, when the start lies in the closed quadrant and the equilibria are
    isolated: the run stops at the first point outside the ball whose exact
    field lies in a cone of the competitive order, if the equilibrium the
    order names as its limit is not the target.  For full-plane probing of
    a degenerate axis equilibrium with d12 > 0, four extra probes
    (``_WEDGE_PROBE_COUNT``) are planted inside the escaping wedge, which can
    be too thin for angular sampling to hit.  Every probe integrates with
    rtol 1e-8 and atol 1e-11 and stores every 64th step (``_PROBE_INTEGRATOR``).
    """

    probe_count: int = 16
    scope: ProbeScope = ProbeScope.FIRST_QUADRANT
    settle_tol: float = 1e-6

    def __post_init__(self) -> None:
        # With no probes the aggregate verdict would read ATTRACTING.
        if self.probe_count < 1:
            raise ValueError(f"probe_count must be at least 1, got {self.probe_count}")


@dataclass(frozen=True)
class ProbeResult:
    label: str
    start: Point
    in_wedge: bool
    outcome: ProbeOutcome
    status: TerminalStatus
    final_point: Point
    final_distance: float
    max_distance: float
    exited_ball: bool
    reentered_after_exit: bool
    #: Accepted and rejected integrator steps of the probe run.
    n_accepted: int
    n_rejected: int
    #: Another equilibrium, the limit that stopped the run (see ProbeProtocol).
    limit: Optional[Equilibrium] = None

    @property
    def started_in_quadrant(self) -> bool:
        return self.start[0] >= 0.0 and self.start[1] >= 0.0

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "start": list(self.start),
            "in_wedge": self.in_wedge,
            "outcome": self.outcome.value,
            "status": self.status.value,
            "final_point": list(self.final_point),
            "final_distance": self.final_distance,
            "max_distance": self.max_distance,
            "n_accepted": self.n_accepted,
            "n_rejected": self.n_rejected,
            "limit": None if self.limit is None else [str(self.limit.x1), str(self.limit.x2)],
        }


@dataclass(frozen=True)
class EmpiricalVerdict:
    target: Equilibrium
    scope: ProbeScope
    verdict: EmpiricalVerdictKind
    probes: List[ProbeResult]
    radius: float
    horizon: float
    note: Optional[str] = None

    def _count(self, outcome: ProbeOutcome) -> int:
        return sum(1 for p in self.probes if p.outcome is outcome)

    @property
    def has_escape(self) -> bool:
        return self._count(ProbeOutcome.ESCAPED) > 0

    @property
    def quadrant_probes(self) -> List[ProbeResult]:
        return [p for p in self.probes if p.started_in_quadrant and not p.in_wedge]

    @property
    def wedge_probes(self) -> List[ProbeResult]:
        return [p for p in self.probes if p.in_wedge]

    def to_json_dict(self) -> dict:
        return {
            "target": self.target.to_json_dict(),
            "scope": self.scope.value,
            "verdict": self.verdict.value,
            "radius": self.radius,
            "horizon": self.horizon,
            "note": self.note,
            "probes": [p.to_json_dict() for p in self.probes],
        }


def _isolated_positions(params: SystemParams) -> List[Tuple[Fraction, Fraction]]:
    positions = []
    for entry in find_equilibria(params, include_off_quadrant=True):
        if isinstance(entry, Equilibrium):
            positions.append(entry.position)
        else:
            positions.append(entry.member(entry.alpha_min).position)
            positions.append(entry.member(entry.alpha_max).position)
    return positions


def _probe_radius(params: SystemParams, eq: Equilibrium) -> float:
    ex, ey = eq.float_position
    scale = max(1.0, math.hypot(ex, ey))
    r = _PROBE_RADIUS_FACTOR * scale
    if eq.kind is not EquilibriumKind.LINE_MEMBER:
        for pos in _isolated_positions(params):
            dx = float(pos[0]) - ex
            dy = float(pos[1]) - ey
            dist = math.hypot(dx, dy)
            if dist > 0:
                r = min(r, dist / 20.0)
    return r


def _wedge_starts(
    params: SystemParams, eq: Equilibrium, radius: float
) -> List[Tuple[Fraction, Fraction]]:
    """Exact escape-side wedge points for a degenerate axis equilibrium.

    With d12 > 0 and d122 = 0 the axis-2 equilibrium repels the thin wedge
    b1 - a11*x1 - a12*x2 > 0 > b2 - a21*x1 - a22*x2.  At x1 = u = -radius/2 it
    is the open interval of offsets from b2/a22 between -(a21/a22)*u and
    -(a11/a12)*u.  The axis-1 mirror (d112 = 0) swaps the species.
    """
    d = compute_determinants(params)
    if d.d12 <= 0:
        return []
    u = -Fraction(radius) / 2
    if eq.kind is EquilibriumKind.AXIS2 and d.d122 == 0:
        lo, hi = -(params.a21 / params.a22) * u, -(params.a11 / params.a12) * u
    elif eq.kind is EquilibriumKind.AXIS1 and d.d112 == 0:
        lo, hi = -(params.a12 / params.a11) * u, -(params.a22 / params.a21) * u
    else:
        return []
    n = _WEDGE_PROBE_COUNT
    offsets = [lo + (hi - lo) * Fraction(i, n + 1) for i in range(1, n + 1)]
    if eq.kind is EquilibriumKind.AXIS2:
        return [(u, params.b2 / params.a22 + v) for v in offsets]
    return [(params.b1 / params.a11 + v, u) for v in offsets]


def empirical_stability(
    params: SystemParams,
    eq: Equilibrium,
    protocol: Optional[ProbeProtocol] = None,
) -> EmpiricalVerdict:
    """Probe an equilibrium with a ring of trajectories and grade the result.

    Verdicts: ATTRACTING when every admissible probe returns to the target;
    REPELLING when probes leave the escape ball for good and none return;
    MIXED when both behaviors (or quiet settling elsewhere) coexist;
    INCONCLUSIVE when any probe times out undecided.  Probing an
    equilibrium with a zero eigenvalue automatically extends the horizon:
    convergence along a center direction is algebraic, not exponential.
    A quadrant probe outside the escape ball whose field lies in a cone
    (f1*f2 <= 0 in floats, then exactly) stops once ``equilibria._order_limit``
    certifies a limit other than the target, and reports ESCAPED with it.
    """
    protocol = protocol or ProbeProtocol()
    target = eq.float_position
    radius = _probe_radius(params, eq)
    if radius < 10.0 * protocol.settle_tol:
        return EmpiricalVerdict(
            target=eq, scope=protocol.scope, verdict=EmpiricalVerdictKind.INCONCLUSIVE,
            probes=[], radius=radius, horizon=_PROBE_HORIZON,
            note="probe radius collides with settle tolerance; equilibria too close",
        )
    ball = _ESCAPE_FACTOR * radius

    horizon = 5e7 if Sign.ZERO in eq.eigenvalues.realpart_signs else _PROBE_HORIZON

    starts: List[Tuple[str, Point, bool]] = []
    n = protocol.probe_count
    offset = 0.5 if n % 4 == 0 else 0.125
    for k in range(n):
        theta = 2.0 * math.pi * (k + offset) / n
        sx = target[0] + radius * math.cos(theta)
        sy = target[1] + radius * math.sin(theta)
        if protocol.scope is ProbeScope.FIRST_QUADRANT and (sx < 0.0 or sy < 0.0):
            continue
        starts.append((f"angle-{k}", (sx, sy), False))
    if protocol.scope is ProbeScope.FULL_PLANE:
        for i, pt in enumerate(_wedge_starts(params, eq, radius)):
            starts.append((f"wedge-{i}", (float(pt[0]), float(pt[1])), True))

    # Velocity-based convergence detection would misfire on a slow
    # (center-manifold) approach: the speed drops below any tolerance while
    # the probe is still far from the target.  Probes of such targets rely
    # on the distance stop alone; everything else keeps the velocity
    # detector so runs ending at some *other* attractor terminate early.
    slow_target = (Sign.ZERO in eq.eigenvalues.realpart_signs
                   and eq.kind is not EquilibriumKind.LINE_MEMBER)
    opts = replace(
        _PROBE_INTEGRATOR,
        conv_tol=0.0 if slow_target else _SETTLE_VELOCITY,
        escape_bound=max(1e3, 1e3 * max(1.0, math.hypot(*target))),
    )
    settle = protocol.settle_tol
    stop_dist = 0.99 * settle
    vel_floor = _SETTLE_VELOCITY
    tx, ty = target
    b1f, b2f, a11f, a12f, a21f, a22f = params.as_float_tuple()
    # Rounding noise in the field near a rest point scales with the terms
    # that cancel there; an absolute velocity threshold can sit permanently
    # below that noise when the rest point has large coordinates.
    noise = 16.0 * 2.220446049250313e-16

    def run_probe(label: str, start: Point, in_wedge: bool) -> ProbeResult:
        # The stop condition sees the start and every accepted step, so it
        # also keeps the distance record: the maximum, whether the probe
        # left the escape ball, and whether it came back in.
        max_dist = low = 0.0
        exited = reentered = False
        # The order is monotone on the closed quadrant; a line has no rule yet.
        certify = start[0] >= 0.0 and start[1] >= 0.0 and any(compute_determinants(params).signs)
        limit = None

        def stop_condition(t: float, x: Point) -> bool:
            nonlocal max_dist, low, exited, reentered, certify, limit
            x1, x2 = x
            dist = math.hypot(x1 - tx, x2 - ty)
            if dist <= ball:
                # ``low`` is the running maximum until the first exit, -1
                # while outside and +inf once back in: inside the ball the
                # record costs one comparison per step.
                if dist > low:
                    if exited:
                        reentered = True
                        low = math.inf
                    else:
                        max_dist = low = dist
                return dist <= stop_dist and t > 0.0
            if dist > max_dist:
                max_dist = dist
            exited = True
            low = -1.0
            if t <= 0.0:
                return False
            f1 = x1 * (b1f - a11f * x1 - a12f * x2)
            f2 = x2 * (b2f - a21f * x1 - a22f * x2)
            # Out here a limit other than the target, 20 ring radii away, means
            # the probe has escaped for good; once it is the target, stop asking.
            if certify and f1 * f2 <= 0.0 and dist < math.inf:
                found = _order_limit(params, Fraction(x1), Fraction(x2))
                if found is not None and found.position != eq.position:
                    limit = found
                    return True
                certify = found is None
            # Else halt once the probe has settled elsewhere, against a
            # scale-aware noise floor: a zero-eigenvalue target's probe (no
            # velocity detector, long horizon) would grind on at a neighbor sink.
            lim1 = max(vel_floor, noise * abs(x1) * (b1f + a11f * abs(x1) + a12f * abs(x2)))
            lim2 = max(vel_floor, noise * abs(x2) * (b2f + a21f * abs(x1) + a22f * abs(x2)))
            return abs(f1) <= lim1 and abs(f2) <= lim2

        traj = integrate(params, start, horizon, replace(opts, stop_condition=stop_condition))
        fx1, fx2 = traj.final_point
        final_dist = math.hypot(fx1 - tx, fx2 - ty)
        # STOPPED alone does not mean success: the stop condition also halts
        # probes that have settled at some other attractor far from the target.
        if final_dist <= settle:
            outcome = ProbeOutcome.CONVERGED_TO_TARGET
        elif exited and (final_dist > ball or traj.terminal_status is TerminalStatus.LEFT_DOMAIN):
            outcome = ProbeOutcome.ESCAPED
        elif math.isfinite(fx1) and math.isfinite(fx2) and max(
                abs(fx1 * (b1f - a11f * fx1 - a12f * fx2)),
                abs(fx2 * (b2f - a21f * fx1 - a22f * fx2))) <= vel_floor:
            outcome = ProbeOutcome.SETTLED_ELSEWHERE
        else:
            outcome = ProbeOutcome.UNDECIDED
        return ProbeResult(
            label=label, start=start, in_wedge=in_wedge, outcome=outcome,
            status=traj.terminal_status, final_point=traj.final_point,
            final_distance=final_dist, max_distance=max_dist,
            exited_ball=exited, reentered_after_exit=reentered,
            n_accepted=traj.n_accepted, n_rejected=traj.n_rejected, limit=limit,
        )

    results = [run_probe(*entry) for entry in starts]
    outcomes = [r.outcome for r in results]
    note = None
    if ProbeOutcome.UNDECIDED in outcomes:
        verdict = EmpiricalVerdictKind.INCONCLUSIVE
        statuses = [r.status.value for r in results if r.outcome is ProbeOutcome.UNDECIDED]
        note = f"{len(statuses)} of {len(results)} probes undecided: " + ", ".join(
            f"{statuses.count(s)} {s}" for s in dict.fromkeys(statuses))
    elif all(o is ProbeOutcome.CONVERGED_TO_TARGET for o in outcomes):
        verdict = EmpiricalVerdictKind.ATTRACTING
    elif ProbeOutcome.ESCAPED in outcomes:
        if ProbeOutcome.CONVERGED_TO_TARGET in outcomes:
            verdict = EmpiricalVerdictKind.MIXED
        else:
            verdict = EmpiricalVerdictKind.REPELLING
    else:
        verdict = EmpiricalVerdictKind.MIXED

    return EmpiricalVerdict(target=eq, scope=protocol.scope, verdict=verdict,
                            probes=results, radius=radius, horizon=horizon, note=note)


def empirical_matches(analytic: StabilityClass, empirical: EmpiricalVerdict) -> bool:
    """Does the probe verdict corroborate the analytic one?

    The correspondence: attracting <-> asymptotically stable; repelling (or
    mixed with a genuine escape) <-> unstable; semi-stable expects the
    two-sided full-plane picture (quadrant-side probes all return, wedge
    probes all escape); non-isolated expects quiet settling with no
    escapes.  INCONCLUSIVE never corroborates anything.
    """
    verdict = analytic.verdict
    kind = empirical.verdict
    if kind is EmpiricalVerdictKind.INCONCLUSIVE:
        return False
    if is_asymptotically_stable(verdict):
        return kind is EmpiricalVerdictKind.ATTRACTING
    if is_unstable(verdict):
        return kind is EmpiricalVerdictKind.REPELLING or (
            kind is EmpiricalVerdictKind.MIXED and empirical.has_escape
        )
    if verdict is Verdict.SEMI_STABLE:
        quadrant = empirical.quadrant_probes
        wedge = empirical.wedge_probes
        return (
            kind is EmpiricalVerdictKind.MIXED
            and bool(quadrant) and bool(wedge)
            and all(p.outcome is ProbeOutcome.CONVERGED_TO_TARGET for p in quadrant)
            and all(p.outcome is ProbeOutcome.ESCAPED for p in wedge)
        )
    if verdict is Verdict.NON_ISOLATED:
        return (kind in (EmpiricalVerdictKind.MIXED, EmpiricalVerdictKind.ATTRACTING)
                and not empirical.has_escape)
    return False
