"""Portrait structure, and the trajectory text against a plain rebuild.

The structure tests compare the canvas size, the equilibrium fills and the
legend, never frozen coordinates: those come from floating-point
integration and depend on the platform's libm.  The expected labels come
from the gallery's verdict patterns.  The trajectory oracle rebuilds each
trajectory's polyline and arrow glyphs on the same machine, point by point
through the canvas transforms, from a run with no stop cut at its
certified end, so it pins every coordinate digit without a
platform-dependent digest.  Crafted samples on the window's edges and at
``.2f`` rounding boundaries hold the window test and the pixel transforms
to the canvas's own.  The dropped-tail oracle runs each trajectory on
with no stop and checks that nothing left out would show.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import replace
from fractions import Fraction

import pytest

from lvcompete import (PORTRAIT_GALLERY, Equilibrium, EquilibriumKind, IntegratorOptions,
                        PortraitSpec, Scope, SystemParams, TerminalStatus, Trajectory, Verdict,
                        classify, find_equilibria, integrate, portrait, render_portrait,
                        vector_field)
from lvcompete.equilibria import _order_limit
from lvcompete.portrait import (_SEEDS, _SIZE, _TRAJECTORY_HORIZON, DEFAULT_COLORS,
                                _auto_viewport, _Canvas, _fmt)

SVG = "{http://www.w3.org/2000/svg}"
LEGEND_ORDER = ("AS", "SS", "NI", "U")
LEGEND_TEXT = {"AS": "asymptotically stable", "SS": "semi-stable",
               "NI": "non-isolated", "U": "unstable"}


def marker_labels(entry, scope):
    """Coarse labels of the equilibrium markers: one per isolated
    equilibrium, two for the ends of a line of equilibria.  A quadrant-scope
    verdict falls back to the full-neighborhood one where the quadrant
    scope has none."""
    report = classify(entry.params)
    by_slot = [s if s != "/" else f
               for s, f in zip(report.pattern(scope), entry.expected_pattern)]
    slots = list(EquilibriumKind)
    labels = [by_slot[slots.index(eq.kind)]
              for eq in report.equilibria if isinstance(eq, Equilibrium)]
    return labels + (["NI", "NI"] if report.line is not None else [])


@pytest.mark.parametrize("scope", [Scope.FIRST_QUADRANT_CLOSED, Scope.FULL_NEIGHBORHOOD],
                         ids=["quadrant", "plane"])
@pytest.mark.parametrize("label", list(PORTRAIT_GALLERY))
def test_legend_and_fills_match_the_verdicts(label, scope):
    entry = PORTRAIT_GALLERY[label]
    root = ET.fromstring(render_portrait(entry.params, PortraitSpec(scope=scope)))
    assert root.tag == SVG + "svg"
    assert (root.get("width"), root.get("height")) == ("640", "640")

    elements = list(root)
    markers = [e.get("fill") for e in elements
               if e.tag == SVG + "circle" and e.get("stroke-width") == "1.2"]
    legend = [(e.get("fill"), elements[i + 1].text) for i, e in enumerate(elements)
              if e.tag == SVG + "circle" and e.get("stroke-width") == "1"]

    labels = marker_labels(entry, scope)
    assert sorted(markers) == sorted(DEFAULT_COLORS[lbl] for lbl in labels)
    assert legend == [(DEFAULT_COLORS[lbl], LEGEND_TEXT[lbl])
                      for lbl in LEGEND_ORDER if lbl in labels]


#: The portrait's integrator settings (``portrait._draw_trajectories``),
#: without its stop condition.
OPTIONS = IntegratorOptions(rel_tol=1e-7, abs_tol=1e-10, escape_bound=1e4)


def portrait_canvas(params):
    x_max, y_max = _auto_viewport(params)
    return _Canvas((-x_max / 20.0, x_max), (-y_max / 20.0, y_max))


def seed_starts(params):
    x_max, y_max = _auto_viewport(params)
    return [((i + 0.5) / _SEEDS * x_max * 0.92, (j + 0.5) / _SEEDS * y_max * 0.92)
            for i in range(_SEEDS) for j in range(_SEEDS)]


def half_pixel_from(canvas, x, y, e1, e2):
    """Whether (x, y) lies within half a pixel per axis of (e1, e2), in
    world units."""
    usable = _SIZE - 2 * canvas.pad
    return (abs(x - e1) <= 0.5 * (canvas.x_max - canvas.x_min) / usable
            and abs(y - e2) <= 0.5 * (canvas.y_max - canvas.y_min) / usable)


def certified_prefix(params, canvas, samples):
    """``samples`` up to the first one within half a pixel per axis of a
    quadrant equilibrium L, where the float field lies in a cone of the
    competitive order and ``_order_limit`` names L."""
    ends = [e for e in find_equilibria(params) if isinstance(e, Equilibrium)]
    for k, (_, x, y) in enumerate(samples):
        for eq in ends:
            if half_pixel_from(canvas, x, y, *eq.float_position):
                f1, f2 = vector_field(params, (x, y))
                limit = f1 * f2 <= 0.0 and _order_limit(params, Fraction(x), Fraction(y))
                if limit and limit.position == eq.position:
                    return samples[:k + 1]
    return samples


def rebuilt_trajectory_elements(params, runs):
    """The trajectory polylines and arrow glyphs of the sample lists
    ``runs``, built sample by sample: the canvas's ``inside`` filter,
    ``px``/``py`` and ``_fmt`` for every point, four transforms per segment
    for the pixel arc length, and each arrow at the first sample whose arc
    length reaches its fraction."""
    canvas = portrait_canvas(params)
    elements = []
    for samples in runs:
        pts = [(x, y) for _, x, y in samples if canvas.inside(x, y)]
        if len(pts) < 2:
            continue
        coords = " ".join(f"{_fmt(canvas.px(x))},{_fmt(canvas.py(y))}" for x, y in pts)
        elements.append(f'<polyline points="{coords}" fill="none" stroke="#8ab0d9" '
                        f'stroke-width="0.9" />')
        cum = [0.0]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            cum.append(cum[-1] + math.hypot(canvas.px(x1) - canvas.px(x0),
                                            canvas.py(y1) - canvas.py(y0)))
        if cum[-1] < 30.0:
            continue
        for frac in (0.35, 0.75):
            target = cum[-1] * frac
            x, y = pts[next(k for k, c in enumerate(cum) if c >= target)]
            vx, vy = vector_field(params, (x, y))
            if vx == 0.0 and vy == 0.0:
                continue
            a = -math.atan2(vy, vx)
            cx, cy = canvas.px(x), canvas.py(y)
            tips = " ".join(f"{_fmt(cx + 5.0 * math.cos(a + da))},"
                            f"{_fmt(cy + 5.0 * math.sin(a + da))}"
                            for da in (0.0, 2.6, -2.6))
            elements.append(f'<polygon points="{tips}" fill="#4a6fa5" />')
    return elements


def drawn_trajectory_elements(svg):
    return [line for line in svg.splitlines()
            if line.startswith("<polygon") or 'stroke="#8ab0d9"' in line]


@pytest.mark.parametrize("scope", [Scope.FIRST_QUADRANT_CLOSED, Scope.FULL_NEIGHBORHOOD],
                         ids=["quadrant", "plane"])
@pytest.mark.parametrize("label", list(PORTRAIT_GALLERY))
def test_trajectories_match_a_point_by_point_rebuild(label, scope):
    """Each trajectory is rebuilt from a run to the horizon with no stop,
    cut after its first certified sample."""
    params = PORTRAIT_GALLERY[label].params
    svg = render_portrait(params, PortraitSpec(scope=scope))
    canvas = portrait_canvas(params)
    runs = [certified_prefix(params, canvas,
                             integrate(params, start, _TRAJECTORY_HORIZON, OPTIONS).samples)
            for start in seed_starts(params)]
    expected = rebuilt_trajectory_elements(params, runs)
    assert sum(e.startswith("<polygon") for e in expected) >= 2
    assert drawn_trajectory_elements(svg) == expected


def _window_edge_samples(canvas):
    """Samples exactly on each edge of the window and one ulp outside it."""
    lo_x, hi_x, lo_y, hi_y = canvas.x_min, canvas.x_max, canvas.y_min, canvas.y_max
    mid_x, mid_y = 0.5 * (lo_x + hi_x), 0.5 * (lo_y + hi_y)
    points = [(lo_x, mid_y), (hi_x, mid_y), (mid_x, lo_y), (mid_x, hi_y),
              (lo_x, lo_y), (hi_x, hi_y), (lo_x, hi_y), (hi_x, lo_y),
              (math.nextafter(lo_x, -math.inf), mid_y), (math.nextafter(hi_x, math.inf), mid_y),
              (mid_x, math.nextafter(lo_y, -math.inf)), (mid_x, math.nextafter(hi_y, math.inf))]
    return [p for q in points for p in ((mid_x, mid_y), q)]


def _rounding_boundary_samples(canvas):
    """Samples whose pixel coordinates fall on or next to a ``.2f`` rounding
    boundary k/100 + 1/200: the world coordinate that maps there, and its
    neighbors a few ulps away."""
    usable = _SIZE - 2 * canvas.pad
    xs, ys = [], []
    for k in range(60):
        u = canvas.pad + 0.005 + 9.37 * k
        for lo, hi, out in ((canvas.x_min, canvas.x_max, xs), (canvas.y_min, canvas.y_max, ys)):
            v = lo + (u - canvas.pad) / usable * (hi - lo)
            for _ in range(4):
                v = math.nextafter(v, -math.inf)
            for _ in range(9):
                out.append(v)
                v = math.nextafter(v, math.inf)
    # ys run from the top of the canvas: u is measured down from it.
    ys = [canvas.y_min + canvas.y_max - y for y in ys]
    mid_x, mid_y = 0.5 * (canvas.x_min + canvas.x_max), 0.5 * (canvas.y_min + canvas.y_max)
    return [(x, mid_y) for x in xs] + [(mid_x, y) for y in ys] + list(zip(xs, ys))


@pytest.mark.parametrize("craft", [_window_edge_samples, _rounding_boundary_samples],
                         ids=["window-edges", "rounding-boundaries"])
def test_crafted_samples_match_the_rebuild(craft, monkeypatch):
    """Fed crafted samples in place of integration, the portrait draws what
    the point-by-point rebuild draws: samples on the window's edges are
    drawn and those one ulp outside are not, and every pixel coordinate
    prints the digits of ``_Canvas.px``/``py``."""
    params = PORTRAIT_GALLERY["case1"].params
    points = craft(portrait_canvas(params))
    samples = [(float(k), x, y) for k, (x, y) in enumerate(points)]
    runs = ([samples[k::3] for k in range(3)] + [samples]) * (_SEEDS ** 2 // 4)
    calls = iter(runs)
    monkeypatch.setattr(portrait, "integrate",
                        lambda *args: Trajectory(next(calls), TerminalStatus.REACHED_HORIZON))
    svg = render_portrait(params)
    assert drawn_trajectory_elements(svg) == rebuilt_trajectory_elements(params, runs)


def recorded_portrait_runs(params, scope, monkeypatch):
    """The portrait's ``integrate`` calls, as (start, options, trajectory)."""
    calls = []

    def recording_integrate(params, initial, horizon, opts):
        traj = integrate(params, initial, horizon, opts)
        calls.append((initial, opts, traj))
        return traj

    monkeypatch.setattr(portrait, "integrate", recording_integrate)
    render_portrait(params, PortraitSpec(scope=scope))
    assert len(calls) == _SEEDS ** 2
    return calls


@pytest.mark.parametrize("scope", [Scope.FIRST_QUADRANT_CLOSED, Scope.FULL_NEIGHBORHOOD],
                         ids=["quadrant", "plane"])
@pytest.mark.parametrize("label", list(PORTRAIT_GALLERY))
def test_dropped_tails_stay_within_half_a_pixel(label, scope, monkeypatch):
    """A run to the horizon with no stop starts with every drawn sample,
    and each sample after the last drawn one lies within half a pixel per
    axis of it: the certified stop leaves out nothing that would show."""
    params = PORTRAIT_GALLERY[label].params
    canvas = portrait_canvas(params)
    stopped = 0
    for start, opts, traj in recorded_portrait_runs(params, scope, monkeypatch):
        full = integrate(params, start, _TRAJECTORY_HORIZON, replace(opts, stop_condition=None))
        drawn = traj.samples
        assert full.samples[:len(drawn)] == drawn, start
        if traj.terminal_status is not TerminalStatus.STOPPED:
            assert full.samples == drawn, start
            continue
        stopped += 1
        _, x0, y0 = drawn[-1]
        assert canvas.inside(x0, y0), start
        for _, x, y in full.samples[len(drawn):]:
            assert abs(canvas.px(x) - canvas.px(x0)) <= 0.5, (start, x, x0)
            assert abs(canvas.py(y) - canvas.py(y0)) <= 0.5, (start, y, y0)
    # case2 and case4 approach a zero-eigenvalue sink algebraically, too
    # slowly to come within half a pixel by the horizon; case9's line of
    # equilibria has no order rule.  Every other run stops certified.
    assert stopped == (0 if label in ("case2", "case4", "case9") else _SEEDS ** 2)


def test_no_trajectory_ends_at_a_saddle(monkeypatch):
    """Bistable system (-, -, +) with the interior saddle (36/13, 5/13).  Its
    seed-grid start (4.554, 0.6325) passes close by the saddle; a trajectory
    ends only at the horizon, or stopped within half a pixel of a sink.
    Which sink a start near the separatrix reaches is left to rounding."""
    params = SystemParams.from_pairs((3, 3), ((Fraction(1, 4), 6), (Fraction(2, 3), 3)))
    report = classify(params)
    canvas = portrait_canvas(params)
    sinks = [eq.float_position for eq in report.equilibria
             if report.verdict_at(eq.kind, Scope.FIRST_QUADRANT_CLOSED).verdict
             is Verdict.STABLE_NODE]
    assert len(sinks) == 2
    saddle = (36 / 13, 5 / 13)
    for start, _, traj in recorded_portrait_runs(params, Scope.FIRST_QUADRANT_CLOSED,
                                                 monkeypatch):
        assert not half_pixel_from(canvas, *traj.final_point, *saddle), start
        assert traj.terminal_status in (TerminalStatus.STOPPED,
                                        TerminalStatus.REACHED_HORIZON), start
        if traj.terminal_status is TerminalStatus.STOPPED:
            assert any(half_pixel_from(canvas, *traj.final_point, *e) for e in sinks), start
