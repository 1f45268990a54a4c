"""Numerical side of the analysis: simulation and empirical verification.

Everything in this module works in floating point and exists to check the
exact classification from the outside.  The main pieces are

* an embedded Runge-Kutta 4(5) integrator with PI step control that keeps
  the coordinate axes exactly invariant,
* nullcline geometry with per-segment crossing directions,
* the wedge regions between the oblique nullclines used by the semi-stable
  analysis, with exact membership tests,
* a Lyapunov-function checker that differentiates the candidate function
  numerically (complex step) and compares against its closed-form derivative,
* an empirical stability probe: launch trajectories in a ring around an
  equilibrium and grade what comes back.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .exact import Sign, sign_of
from .model import SystemParams, compute_determinants
from .equilibria import Equilibrium, EquilibriumKind, find_equilibria
from .classifier import StabilityClass, Verdict, is_asymptotically_stable, is_unstable

__all__ = [
    "vector_field",
    "IntegratorOptions",
    "TerminalStatus",
    "Trajectory",
    "integrate",
    "Direction",
    "NullclineBranch",
    "NullclineSegment",
    "NullclineCurve",
    "NullclineSet",
    "nullclines",
    "WedgeSide",
    "ProbeRegion",
    "nullcline_wedge",
    "LyapunovTarget",
    "NotApplicable",
    "LyapunovSample",
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


@lru_cache(maxsize=512)
def _float_params(params: SystemParams) -> Tuple[float, float, float, float, float, float]:
    return params.as_float_tuple()


def _field_function(params: SystemParams) -> Callable[[Point], Point]:
    b1, b2, a11, a12, a21, a22 = _float_params(params)

    def f(x: Point) -> Point:
        x1, x2 = x
        # Factored form: an exactly-zero coordinate has an exactly-zero
        # derivative, so the axes stay invariant step after step.
        return (x1 * (b1 - a11 * x1 - a12 * x2), x2 * (b2 - a21 * x1 - a22 * x2))

    return f


def vector_field(params: SystemParams, point: Sequence[float]) -> Point:
    """Right-hand side of the system at a point, in floating point."""
    return _field_function(params)((float(point[0]), float(point[1])))


# ---------------------------------------------------------------------------
# Adaptive integration


class TerminalStatus(Enum):
    REACHED_HORIZON = "reached horizon"
    CONVERGED = "converged to a point"
    LEFT_DOMAIN = "left the domain"
    STEP_FAILURE = "step size underflow"
    STOPPED = "stop condition met"


@dataclass(frozen=True)
class IntegratorOptions:
    """Tuning knobs for :func:`integrate`.

    ``conv_tol`` gates the convergence detector (velocity below the
    tolerance *and* total displacement over the trailing ``conv_window``
    time units below it); set it to 0 to disable detection entirely.
    ``fixed_step`` disables adaptivity — used by the order-measurement
    tests.  ``stop_condition`` is checked after every accepted step and
    ends the run with status STOPPED.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    conv_tol: float = 1e-9
    conv_window: float = 1.0
    escape_bound: float = 1e6
    min_step_factor: float = 1e-14
    first_step: Optional[float] = None
    max_step: Optional[float] = None
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
    terminal_point: Optional[Point] = None
    terminal_tolerance: Optional[float] = None
    terminal_bound: Optional[float] = None
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


def _norm_inf(x: Point) -> float:
    return max(abs(x[0]), abs(x[1]))


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
    controller would need a step below ``min_step_factor * horizon``.

    The stage arithmetic is written out on scalar locals: trajectories
    crawling along a slow manifold are stability-limited to millions of
    steps, and this loop is the package's hot spot.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    opts = opts or IntegratorOptions()
    b1, b2, a11, a12, a21, a22 = _float_params(params)
    rel_tol, abs_tol = opts.rel_tol, opts.abs_tol
    conv_tol, conv_window = opts.conv_tol, opts.conv_window
    escape_bound = opts.escape_bound
    stop_condition = opts.stop_condition
    sample_every = max(1, opts.sample_every)
    fixed = opts.fixed_step

    t = 0.0
    x1, x2 = float(initial[0]), float(initial[1])
    samples = [(t, x1, x2)]
    window: deque = deque([(t, x1, x2)])
    n_accepted = n_rejected = 0

    def finish(status: TerminalStatus, **extra) -> Trajectory:
        if samples[-1][0] != t:
            samples.append((t, x1, x2))
        return Trajectory(samples=samples, terminal_status=status,
                          n_accepted=n_accepted, n_rejected=n_rejected, **extra)

    if stop_condition is not None and stop_condition(t, (x1, x2)):
        return finish(TerminalStatus.STOPPED, terminal_point=(x1, x2))
    if max(abs(x1), abs(x2)) > escape_bound:
        return finish(TerminalStatus.LEFT_DOMAIN, terminal_bound=escape_bound)
    # Stage-1 slopes; reused across rejected retries and carried over from
    # the convergence check of the previous accepted step.
    k11 = x1 * (b1 - a11 * x1 - a12 * x2)
    k12 = x2 * (b2 - a21 * x1 - a22 * x2)
    if conv_tol > 0 and max(abs(k11), abs(k12)) <= conv_tol:
        return finish(TerminalStatus.CONVERGED, terminal_point=(x1, x2),
                      terminal_tolerance=conv_tol)

    min_step = opts.min_step_factor * horizon
    if fixed is not None:
        h = fixed
    elif opts.first_step is not None:
        h = opts.first_step
    else:
        # Crude but serviceable starting guess; the controller corrects it
        # within a step or two.
        speed = max(abs(k11), abs(k12))
        h = min(horizon * 0.1, 0.01 * (max(abs(x1), abs(x2)) + 1.0) / (speed + 1e-12))
        h = max(h, min_step)
    max_step = opts.max_step
    err_prev = 1.0
    since_sample = 0

    while t < horizon:
        if max_step is not None and h > max_step:
            h = max_step
        if h > horizon - t:
            h = horizon - t

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
            h *= max(0.1, 0.9 * err ** -0.2) if err <= 1e12 else 0.1
            if h < min_step:
                return finish(TerminalStatus.STEP_FAILURE)
            continue

        t += h
        x1, x2 = x1n, x2n
        n_accepted += 1
        since_sample += 1
        if since_sample >= sample_every:
            samples.append((t, x1, x2))
            since_sample = 0

        if stop_condition is not None and stop_condition(t, (x1, x2)):
            return finish(TerminalStatus.STOPPED, terminal_point=(x1, x2))
        if not (abs(x1) <= escape_bound and abs(x2) <= escape_bound):
            # non-finite coordinates land here too
            return finish(TerminalStatus.LEFT_DOMAIN, terminal_bound=escape_bound)

        # Next step's stage-1 slopes, doubling as the convergence velocity.
        k11 = x1 * (b1 - a11 * x1 - a12 * x2)
        k12 = x2 * (b2 - a21 * x1 - a22 * x2)
        if conv_tol > 0:
            window.append((t, x1, x2))
            while len(window) >= 2 and window[1][0] <= t - conv_window:
                window.popleft()
            if (max(abs(k11), abs(k12)) <= conv_tol
                    and window[0][0] <= t - conv_window):
                drift = max(max(abs(x1 - w1), abs(x2 - w2)) for _, w1, w2 in window)
                if drift <= conv_tol:
                    return finish(TerminalStatus.CONVERGED, terminal_point=(x1, x2),
                                  terminal_tolerance=conv_tol)

        if fixed is None:
            e = err if err > 1e-10 else 1e-10
            fac = 0.9 * e ** -0.14 * err_prev ** 0.08
            if fac > 5.0:
                fac = 5.0
            elif fac < 0.2:
                fac = 0.2
            h *= fac
            err_prev = e
            if h < min_step and t < horizon:
                return finish(TerminalStatus.STEP_FAILURE)

    return finish(TerminalStatus.REACHED_HORIZON)


# ---------------------------------------------------------------------------
# Nullclines


class Direction(Enum):
    UP = "up"
    DOWN = "down"
    LEFT = "left"
    RIGHT = "right"
    #: The nullcline consists of equilibria (fully degenerate case).
    STATIONARY = "stationary"


class NullclineBranch(Enum):
    VERTICAL_AXIS = "x1 = 0"
    OBLIQUE_X1 = "x2 = (b1 - a11*x1)/a12"
    HORIZONTAL_AXIS = "x2 = 0"
    OBLIQUE_X2 = "x2 = (b2 - a21*x1)/a22"


#: Which coordinate of the field vanishes on each branch: the flow crosses
#: an x1-nullcline vertically and an x2-nullcline horizontally.
_VERTICAL_FLOW = {NullclineBranch.VERTICAL_AXIS, NullclineBranch.OBLIQUE_X1}


@dataclass(frozen=True)
class NullclineSegment:
    lo: Fraction
    hi: Optional[Fraction]  # None = unbounded above
    direction: Direction

    def to_json_dict(self) -> dict:
        return {"lo": str(self.lo), "hi": None if self.hi is None else str(self.hi),
                "direction": self.direction.value}


@dataclass(frozen=True)
class NullclineCurve:
    """One nullcline branch, parametrized by x2 on the vertical axis and by
    x1 everywhere else, restricted to parameter values >= 0."""

    params: SystemParams
    branch: NullclineBranch
    breakpoints: Tuple[Fraction, ...]
    segments: Tuple[NullclineSegment, ...]

    def point_at(self, value) -> Tuple[Fraction, Fraction]:
        v = Fraction(value)
        p = self.params
        if self.branch is NullclineBranch.VERTICAL_AXIS:
            return (Fraction(0), v)
        if self.branch is NullclineBranch.HORIZONTAL_AXIS:
            return (v, Fraction(0))
        if self.branch is NullclineBranch.OBLIQUE_X1:
            return (v, (p.b1 - p.a11 * v) / p.a12)
        return (v, (p.b2 - p.a21 * v) / p.a22)

    def direction_at(self, value) -> Direction:
        v = Fraction(value)
        for seg in self.segments:
            if seg.lo < v and (seg.hi is None or v < seg.hi):
                return seg.direction
        raise ValueError(f"{v} is a breakpoint or outside the parametrized range")

    def to_json_dict(self) -> dict:
        return {
            "branch": self.branch.value,
            "breakpoints": [str(b) for b in self.breakpoints],
            "segments": [seg.to_json_dict() for seg in self.segments],
        }


@dataclass(frozen=True)
class NullclineSet:
    params: SystemParams
    curves: Tuple[NullclineCurve, NullclineCurve, NullclineCurve, NullclineCurve]

    def curve(self, branch: NullclineBranch) -> NullclineCurve:
        for c in self.curves:
            if c.branch is branch:
                return c
        raise KeyError(branch)

    def to_json_dict(self) -> dict:
        return {"params": self.params.to_json_dict(),
                "curves": [c.to_json_dict() for c in self.curves]}


def _segment_signs(
    params: SystemParams,
    branch: NullclineBranch,
    roots: List[Fraction],
    residual_sign_at: Callable[[Fraction], Sign],
) -> NullclineCurve:
    points = sorted({Fraction(0), *[r for r in roots if r > 0]})
    spans: List[Tuple[Fraction, Optional[Fraction]]] = []
    for lo, hi in zip(points, points[1:]):
        spans.append((lo, hi))
    spans.append((points[-1], None))

    vertical = branch in _VERTICAL_FLOW
    segments = []
    for lo, hi in spans:
        mid = (lo + hi) / 2 if hi is not None else lo + 1
        s = residual_sign_at(mid)
        if s is Sign.ZERO:
            direction = Direction.STATIONARY
        elif vertical:
            direction = Direction.UP if s is Sign.POS else Direction.DOWN
        else:
            direction = Direction.RIGHT if s is Sign.POS else Direction.LEFT
        segments.append(NullclineSegment(lo=lo, hi=hi, direction=direction))
    return NullclineCurve(params=params, branch=branch,
                          breakpoints=tuple(points), segments=tuple(segments))


def nullclines(params: SystemParams) -> NullclineSet:
    """All four nullcline branches with exact breakpoints and crossing tags.

    Tags come from the sign of the non-vanishing field component with the
    curve equation substituted in, evaluated exactly at rational segment
    midpoints — never from floating point, and never from a case table.
    """
    p = params
    d = compute_determinants(params)

    # x1 = 0 (x2 parametrizes): residual is x2' = x2*(b2 - a22*x2).
    vertical_axis = _segment_signs(
        params, NullclineBranch.VERTICAL_AXIS,
        [p.b2 / p.a22],
        lambda v: sign_of(v * (p.b2 - p.a22 * v)),
    )
    # x2 = 0: residual is x1' = x1*(b1 - a11*x1).
    horizontal_axis = _segment_signs(
        params, NullclineBranch.HORIZONTAL_AXIS,
        [p.b1 / p.a11],
        lambda v: sign_of(v * (p.b1 - p.a11 * v)),
    )
    # x2 = (b1 - a11*x1)/a12: substitution gives
    # x2' = x2*(d12*x1 + d122)/a12 with x2 = (b1 - a11*x1)/a12.
    oblique1_roots = [p.b1 / p.a11]
    if d.d12 != 0:
        oblique1_roots.append(-d.d122 / d.d12)
    oblique_x1 = _segment_signs(
        params, NullclineBranch.OBLIQUE_X1,
        oblique1_roots,
        lambda v: sign_of((p.b1 - p.a11 * v) / p.a12 * (d.d12 * v + d.d122) / p.a12),
    )
    # x2 = (b2 - a21*x1)/a22: substitution gives
    # x1' = -x1*(d12*x1 + d122)/a22.
    oblique2_roots: List[Fraction] = []
    if d.d12 != 0:
        oblique2_roots.append(-d.d122 / d.d12)
    oblique_x2 = _segment_signs(
        params, NullclineBranch.OBLIQUE_X2,
        oblique2_roots,
        lambda v: sign_of(-v * (d.d12 * v + d.d122) / p.a22),
    )
    return NullclineSet(params=params,
                        curves=(vertical_axis, oblique_x1, horizontal_axis, oblique_x2))


# ---------------------------------------------------------------------------
# Wedge regions between the oblique nullclines


class WedgeSide(Enum):
    #: growth factor of species 1 positive, of species 2 negative — the
    #: wedge hugging the axis-2 equilibrium.
    NEAR_AXIS2 = "near_axis2"
    #: the mirror wedge hugging the axis-1 equilibrium.
    NEAR_AXIS1 = "near_axis1"


@dataclass(frozen=True)
class ProbeRegion:
    """Open region cut out by strict signs of the two growth factors.

    The growth factors are F1 = b1 - a11*x1 - a12*x2 and
    F2 = b2 - a21*x1 - a22*x2; membership is decided in exact rational
    arithmetic.  Near a degenerate axis equilibrium the region degenerates
    to a thin wedge — the side it lives on flips with the sign of d12,
    which is exactly what makes these the right probe sets for the
    semi-stability analysis.
    """

    params: SystemParams
    side: WedgeSide
    anchor: Tuple[Fraction, Fraction]

    def growth_factors(self, x1, x2) -> Tuple[Fraction, Fraction]:
        p = self.params
        x1, x2 = Fraction(x1), Fraction(x2)
        return (p.b1 - p.a11 * x1 - p.a12 * x2, p.b2 - p.a21 * x1 - p.a22 * x2)

    def contains(self, point: Sequence) -> bool:
        f1, f2 = self.growth_factors(point[0], point[1])
        if self.side is WedgeSide.NEAR_AXIS2:
            return f1 > 0 and f2 < 0
        return f1 < 0 and f2 > 0

    def sample_near(self, radius, count: int = 4,
                    transverse_sign: Sign = Sign.NEG) -> List[Tuple[Fraction, Fraction]]:
        """Points of the wedge at distance ~radius from the anchor.

        ``transverse_sign`` picks the side of the axis: NEG is the
        off-quadrant side (the escaping side when d12 > 0).  Raises
        ValueError when the wedge is empty on the requested side.
        """
        if transverse_sign is Sign.ZERO:
            raise ValueError("transverse_sign must be POS or NEG")
        p = self.params
        d = compute_determinants(p)
        r = Fraction(radius)
        u = r / 2 if transverse_sign is Sign.POS else -r / 2
        if self.side is WedgeSide.NEAR_AXIS2:
            v_a = (-d.d122 / p.a22 - p.a11 * u) / p.a12   # F1 = 0 boundary
            v_b = -(p.a21 / p.a22) * u                    # F2 = 0 boundary
        else:
            v_a = -(p.a12 / p.a11) * u                    # F1 = 0 boundary
            v_b = (d.d112 / p.a11 - p.a22 * u) / p.a21    # F2 = 0 boundary
        lo, hi = min(v_a, v_b), max(v_a, v_b)
        points: List[Tuple[Fraction, Fraction]] = []
        for i in range(1, count + 1):
            w = Fraction(i, count + 1)
            offset = lo + (hi - lo) * w
            if self.side is WedgeSide.NEAR_AXIS2:
                candidate = (self.anchor[0] + u, self.anchor[1] + offset)
            else:
                candidate = (self.anchor[0] + offset, self.anchor[1] + u)
            if not self.contains(candidate):
                raise ValueError(
                    f"wedge {self.side.value} is empty on the "
                    f"{'positive' if transverse_sign is Sign.POS else 'negative'} side "
                    f"for these parameters (d12 has the wrong sign)"
                )
            points.append(candidate)
        return points


def nullcline_wedge(params: SystemParams, side: WedgeSide) -> ProbeRegion:
    if side is WedgeSide.NEAR_AXIS2:
        anchor = (Fraction(0), params.b2 / params.a22)
    else:
        anchor = (params.b1 / params.a11, Fraction(0))
    return ProbeRegion(params=params, side=side, anchor=anchor)


# ---------------------------------------------------------------------------
# Lyapunov verification


class LyapunovTarget(Enum):
    FOR_AXIS2 = "axis2"   # applicable when d122 = 0
    FOR_AXIS1 = "axis1"   # applicable when d112 = 0


class NotApplicable(ValueError):
    """The Lyapunov construction needs the matching minor to vanish."""


@dataclass(frozen=True)
class LyapunovSample:
    x1: float
    x2: float
    v: float
    vdot_closed: float
    vdot_chain: float
    rel_gap: float
    sign_matches: bool


@dataclass(frozen=True)
class LyapunovCheck:
    which: LyapunovTarget
    exponents: Tuple[Fraction, Fraction]
    d12_sign: Sign
    samples: List[LyapunovSample]
    max_rel_gap: float
    all_signs_match: bool
    all_positive: bool

    def passed(self, chain_rule_tol: float = 1e-8) -> bool:
        return (self.max_rel_gap <= chain_rule_tol
                and self.all_signs_match and self.all_positive)


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
    domain_bounds: Tuple[Tuple[float, float], Tuple[float, float]] = ((0.1, 5.0), (0.1, 5.0)),
    seed: int = 0,
) -> LyapunovCheck:
    """Check the monomial Lyapunov candidate on quasi-random interior points.

    The candidate for the axis-2 case is V = x1^a22 * x2^(-a12), whose
    derivative along the flow collapses to -d12 * x1^(a22+1) * x2^(-a12)
    when d122 = 0 (mirror formulas for the axis-1 case).  Two independent
    routes to dV/dt are compared at every sample: the closed form, and a
    complex-step gradient of the V closure dotted with the vector field.
    The sign of dV/dt must equal -sign(d12) throughout the open quadrant.
    """
    d = compute_determinants(params)
    if which is LyapunovTarget.FOR_AXIS2:
        if d.d122 != 0:
            raise NotApplicable(f"axis-2 construction requires d122 = 0, got {d.d122}")
        p_exp, q_exp = params.a22, -params.a12
    else:
        if d.d112 != 0:
            raise NotApplicable(f"axis-1 construction requires d112 = 0, got {d.d112}")
        p_exp, q_exp = -params.a21, params.a11

    (lo1, hi1), (lo2, hi2) = domain_bounds
    if lo1 <= 0 or lo2 <= 0:
        raise ValueError("domain bounds must keep both coordinates strictly positive")

    pf, qf = float(p_exp), float(q_exp)
    d12f = float(d.d12)
    f = _field_function(params)

    def v_closure(z1: complex, z2: complex) -> complex:
        return cmath.exp(pf * cmath.log(z1) + qf * cmath.log(z2))

    h = 1e-200
    expected_sign = sign_of(-d.d12)
    samples: List[LyapunovSample] = []
    max_gap = 0.0
    all_signs = True
    all_positive = True
    for u, w in _r2_sequence(sample_count, offset=seed):
        x1 = lo1 + u * (hi1 - lo1)
        x2 = lo2 + w * (hi2 - lo2)
        v = math.exp(pf * math.log(x1) + qf * math.log(x2))
        if which is LyapunovTarget.FOR_AXIS2:
            vdot_closed = -d12f * math.exp((pf + 1.0) * math.log(x1) + qf * math.log(x2))
        else:
            vdot_closed = -d12f * math.exp(pf * math.log(x1) + (qf + 1.0) * math.log(x2))
        dv1 = v_closure(complex(x1, h), complex(x2, 0.0)).imag / h
        dv2 = v_closure(complex(x1, 0.0), complex(x2, h)).imag / h
        f1, f2 = f((x1, x2))
        vdot_chain = dv1 * f1 + dv2 * f2
        # When the closed form vanishes identically (conserved case) the gap
        # must be judged against the size of the dot product's terms, not
        # against zero.
        scale = max(abs(vdot_closed), abs(dv1 * f1) + abs(dv2 * f2), 1e-300)
        gap = abs(vdot_chain - vdot_closed) / scale
        sample_sign = Sign.POS if vdot_closed > 0 else Sign.NEG if vdot_closed < 0 else Sign.ZERO
        sign_ok = sample_sign is expected_sign
        max_gap = max(max_gap, gap)
        all_signs = all_signs and sign_ok
        all_positive = all_positive and v > 0
        samples.append(LyapunovSample(x1=x1, x2=x2, v=v, vdot_closed=vdot_closed,
                                      vdot_chain=vdot_chain, rel_gap=gap,
                                      sign_matches=sign_ok))
    return LyapunovCheck(which=which, exponents=(p_exp, q_exp), d12_sign=sign_of(d.d12),
                         samples=samples, max_rel_gap=max_gap,
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


@dataclass(frozen=True)
class ProbeProtocol:
    """How to surround an equilibrium with test trajectories.

    Probes start on a ring of radius ``radius_factor * max(1, |eq|)``
    (shrunk if another equilibrium is nearby) at equally spaced angles
    offset by half a slot so that no probe starts exactly on an axis.
    A probe converges if it comes within ``settle_tol`` of the target,
    escapes if it leaves the ball of ``escape_factor`` radii and stays out,
    and settles elsewhere if it stops moving anywhere else.  For
    full-plane probing of a degenerate axis equilibrium with d12 > 0,
    extra probes are planted inside the escaping wedge, which can be too
    thin for angular sampling to hit.
    """

    radius_factor: float = 1e-3
    probe_count: int = 16
    horizon: float = 1e4
    scope: ProbeScope = ProbeScope.FIRST_QUADRANT
    settle_tol: float = 1e-6
    settle_velocity: float = 1e-9
    escape_factor: float = 10.0
    wedge_probe_count: int = 4
    integrator: IntegratorOptions = field(
        default_factory=lambda: IntegratorOptions(rel_tol=1e-8, abs_tol=1e-11,
                                                  conv_tol=0.0, sample_every=64)
    )


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
    elapsed: float

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


def _probe_radius(params: SystemParams, eq: Equilibrium, protocol: ProbeProtocol) -> float:
    ex, ey = eq.float_position
    scale = max(1.0, math.hypot(ex, ey))
    r = protocol.radius_factor * scale
    if eq.kind is not EquilibriumKind.LINE_MEMBER:
        for pos in _isolated_positions(params):
            dx = float(pos[0]) - ex
            dy = float(pos[1]) - ey
            dist = math.hypot(dx, dy)
            if dist > 0:
                r = min(r, dist / 20.0)
    return r


def _grade_probe(
    label: str,
    start: Point,
    in_wedge: bool,
    traj: Trajectory,
    target: Point,
    ball: float,
    settle_tol: float,
    settle_velocity: float,
    f: Callable[[Point], Point],
) -> ProbeResult:
    tx, ty = target
    max_dist = 0.0
    exited = False
    outside = False
    reentered = False
    for _, x1, x2 in traj.samples:
        dist = math.hypot(x1 - tx, x2 - ty)
        max_dist = max(max_dist, dist)
        if dist > ball:
            exited = True
            outside = True
        elif outside:
            outside = False
            reentered = True
    fx1, fx2 = traj.final_point
    final_dist = math.hypot(fx1 - tx, fx2 - ty)

    # STOPPED alone does not mean success: the stop condition also halts
    # probes that have settled at some other attractor far from the target.
    if final_dist <= settle_tol:
        outcome = ProbeOutcome.CONVERGED_TO_TARGET
    elif exited and (final_dist > ball or traj.terminal_status is TerminalStatus.LEFT_DOMAIN):
        outcome = ProbeOutcome.ESCAPED
    elif (math.isfinite(fx1) and math.isfinite(fx2)
          and _norm_inf(f((fx1, fx2))) <= settle_velocity):
        outcome = ProbeOutcome.SETTLED_ELSEWHERE
    else:
        outcome = ProbeOutcome.UNDECIDED
    return ProbeResult(
        label=label, start=start, in_wedge=in_wedge, outcome=outcome,
        status=traj.terminal_status, final_point=traj.final_point,
        final_distance=final_dist, max_distance=max_dist,
        exited_ball=exited, reentered_after_exit=reentered,
        elapsed=traj.final_time,
    )


def _wedge_starts(
    params: SystemParams, eq: Equilibrium, radius: float, count: int
) -> List[Tuple[Fraction, Fraction]]:
    """Escape-side wedge points for a degenerate axis equilibrium, if any."""
    d = compute_determinants(params)
    if d.d12 <= 0:
        return []
    if (eq.kind is EquilibriumKind.AXIS2 or eq.coincides_with is EquilibriumKind.AXIS2) \
            and d.d122 == 0:
        side = WedgeSide.NEAR_AXIS2
    elif (eq.kind is EquilibriumKind.AXIS1 or eq.coincides_with is EquilibriumKind.AXIS1) \
            and d.d112 == 0:
        side = WedgeSide.NEAR_AXIS1
    else:
        return []
    wedge = nullcline_wedge(params, side)
    return wedge.sample_near(Fraction(radius), count=count, transverse_sign=Sign.NEG)


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
    """
    protocol = protocol or ProbeProtocol()
    target = eq.float_position
    radius = _probe_radius(params, eq, protocol)
    if radius < 10.0 * protocol.settle_tol:
        return EmpiricalVerdict(
            target=eq, scope=protocol.scope, verdict=EmpiricalVerdictKind.INCONCLUSIVE,
            probes=[], radius=radius, horizon=protocol.horizon,
            note="probe radius collides with settle tolerance; equilibria too close",
        )
    ball = protocol.escape_factor * radius

    horizon = protocol.horizon
    if Sign.ZERO in eq.eigenvalues.realpart_signs:
        horizon = max(horizon, 5e7)

    starts: List[Tuple[str, Point, bool]] = []
    n = protocol.probe_count
    for k in range(n):
        theta = 2.0 * math.pi * (k + 0.5) / n
        sx = target[0] + radius * math.cos(theta)
        sy = target[1] + radius * math.sin(theta)
        if protocol.scope is ProbeScope.FIRST_QUADRANT and (sx < 0.0 or sy < 0.0):
            continue
        starts.append((f"angle-{k}", (sx, sy), False))
    if protocol.scope is ProbeScope.FULL_PLANE:
        for i, pt in enumerate(_wedge_starts(params, eq, radius, protocol.wedge_probe_count)):
            starts.append((f"wedge-{i}", (float(pt[0]), float(pt[1])), True))

    settle = protocol.settle_tol
    stop_dist = 0.99 * settle
    vel_floor = protocol.settle_velocity
    b1f, b2f, a11f, a12f, a21f, a22f = _float_params(params)
    # Rounding noise in the field near a rest point scales with the terms
    # that cancel there; an absolute velocity threshold can sit permanently
    # below that noise when the rest point has large coordinates.
    noise = 16.0 * 2.220446049250313e-16

    def stop_condition(t: float, x: Point) -> bool:
        if t <= 0.0:
            return False
        x1, x2 = x
        dist = math.hypot(x1 - target[0], x2 - target[1])
        if dist <= stop_dist:
            return True
        if dist <= ball:
            return False
        # Outside the escape ball: halt once the probe has settled at some
        # other attractor, judged against a scale-aware noise floor.  Without
        # this, a probe of a zero-eigenvalue target (which disables the
        # velocity detector, and extends the horizon) would grind out tens of
        # millions of steps parked at a neighboring sink.
        f1 = x1 * (b1f - a11f * x1 - a12f * x2)
        f2 = x2 * (b2f - a21f * x1 - a22f * x2)
        lim1 = max(vel_floor, noise * abs(x1) * (b1f + a11f * abs(x1) + a12f * abs(x2)))
        lim2 = max(vel_floor, noise * abs(x2) * (b2f + a21f * abs(x1) + a22f * abs(x2)))
        return abs(f1) <= lim1 and abs(f2) <= lim2

    # Velocity-based convergence detection would misfire on a slow
    # (center-manifold) approach: the speed drops below any tolerance while
    # the probe is still far from the target.  Probes of such targets rely
    # on the distance stop alone; everything else keeps the velocity
    # detector so runs ending at some *other* attractor terminate early.
    slow_target = (Sign.ZERO in eq.eigenvalues.realpart_signs
                   and eq.kind is not EquilibriumKind.LINE_MEMBER)
    opts = replace(
        protocol.integrator,
        stop_condition=stop_condition,
        conv_tol=0.0 if slow_target else protocol.settle_velocity,
        escape_bound=max(1e3, 1e3 * max(1.0, math.hypot(*target))),
    )
    f = _field_function(params)

    results = [
        _grade_probe(label, start, in_wedge,
                     integrate(params, start, horizon, opts),
                     target, ball, settle, protocol.settle_velocity, f)
        for label, start, in_wedge in starts
    ]

    outcomes = [r.outcome for r in results]
    if not results:
        verdict = EmpiricalVerdictKind.INCONCLUSIVE
    elif ProbeOutcome.UNDECIDED in outcomes:
        verdict = EmpiricalVerdictKind.INCONCLUSIVE
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
                            probes=results, radius=radius, horizon=horizon)


def empirical_matches(
    analytic: Union[StabilityClass, Verdict],
    empirical: EmpiricalVerdict,
) -> bool:
    """Does the probe verdict corroborate the analytic one?

    The correspondence: attracting <-> asymptotically stable; repelling (or
    mixed with a genuine escape) <-> unstable; semi-stable expects the
    two-sided full-plane picture (quadrant-side probes all return, wedge
    probes all escape); non-isolated expects quiet settling with no
    escapes.  INCONCLUSIVE never corroborates anything.
    """
    verdict = analytic.verdict if isinstance(analytic, StabilityClass) else analytic
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
