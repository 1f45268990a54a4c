"""Portrait structure, and the trajectory text against a plain rebuild.

The structure tests compare the canvas size, the equilibrium fills and the
legend, never frozen coordinates: those come from floating-point
integration and depend on the platform's libm.  The expected labels come
from the gallery's verdict patterns.  The trajectory oracle rebuilds each
trajectory's polyline and arrow glyphs on the same machine, point by point
through the canvas transforms, so it pins every coordinate digit without
a platform-dependent digest.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import pytest

from lvcompete import (PORTRAIT_GALLERY, Equilibrium, EquilibriumKind, IntegratorOptions,
                        PortraitSpec, Scope, classify, integrate, render_portrait,
                        vector_field)
from lvcompete.portrait import (_SEEDS, _TRAJECTORY_HORIZON, DEFAULT_COLORS, _auto_viewport,
                                _Canvas, _fmt)

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


def rebuilt_trajectory_elements(params):
    """The trajectory polylines and arrow glyphs, built sample by sample:
    the canvas's ``inside`` filter, ``px``/``py`` and ``_fmt`` for every
    point, four transforms per segment for the pixel arc length, and each
    arrow at the first sample whose arc length reaches its fraction."""
    x_max, y_max = _auto_viewport(params)
    canvas = _Canvas((-x_max / 20.0, x_max), (-y_max / 20.0, y_max))
    opts = IntegratorOptions(rel_tol=1e-7, abs_tol=1e-10, conv_tol=1e-7, escape_bound=1e4)
    elements = []
    for i in range(_SEEDS):
        for j in range(_SEEDS):
            start = ((i + 0.5) / _SEEDS * x_max * 0.92, (j + 0.5) / _SEEDS * y_max * 0.92)
            traj = integrate(params, start, _TRAJECTORY_HORIZON, opts)
            pts = [(x, y) for _, x, y in traj.samples if canvas.inside(x, y)]
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


@pytest.mark.parametrize("scope", [Scope.FIRST_QUADRANT_CLOSED, Scope.FULL_NEIGHBORHOOD],
                         ids=["quadrant", "plane"])
@pytest.mark.parametrize("label", list(PORTRAIT_GALLERY))
def test_trajectories_match_a_point_by_point_rebuild(label, scope):
    params = PORTRAIT_GALLERY[label].params
    svg = render_portrait(params, PortraitSpec(scope=scope))
    drawn = [line for line in svg.splitlines()
             if line.startswith("<polygon") or 'stroke="#8ab0d9"' in line]
    expected = rebuilt_trajectory_elements(params)
    assert sum(e.startswith("<polygon") for e in expected) >= 2
    assert drawn == expected
