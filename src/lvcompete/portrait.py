"""Deterministic SVG phase portraits.

The portrait is a pure function of the parameters and the drawing spec:
no randomness, no timestamps, no dict-order dependence — rendering the
same system twice yields byte-identical files, which the snapshot tests
rely on.  Drawn are the four nullclines (dashed), a grid of forward
trajectories with direction arrows, the equilibria colored by their
stability verdict, and — in the fully degenerate case — the segment of
non-isolated equilibria.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .model import SystemParams
from .equilibria import Equilibrium
from .classifier import ClassificationReport, Scope, classify
from .dynamics import IntegratorOptions, integrate, vector_field

__all__ = ["PortraitSpec", "render_portrait"]

#: Fill colors keyed by coarse verdict: unstable yellow, attracting red,
#: semi-stable orange, non-isolated pink.
DEFAULT_COLORS: Dict[str, str] = {
    "U": "#f2c230",
    "AS": "#d7261e",
    "SS": "#f08c00",
    "NI": "#f5a3c7",
}

_LEGEND_TEXT = {
    "U": "unstable",
    "AS": "asymptotically stable",
    "SS": "semi-stable",
    "NI": "non-isolated",
}


#: Width and height of the SVG canvas, in pixels.
_SIZE = 640
#: Forward trajectories start on a _SEEDS x _SEEDS grid and run for
#: _TRAJECTORY_HORIZON time units.
_SEEDS = 4
_TRAJECTORY_HORIZON = 80.0


@dataclass(frozen=True)
class PortraitSpec:
    """Which scope's verdicts color the equilibria.

    Everything else is fixed: a 640 x 640 canvas (``_SIZE``), a viewing
    window from the nullcline intercepts with a 10% margin, forward
    trajectories from a 4 x 4 seed grid (``_SEEDS``) over 80 time units
    (``_TRAJECTORY_HORIZON``), and the fills of ``DEFAULT_COLORS``.
    """

    scope: Scope = Scope.FIRST_QUADRANT_CLOSED


def _auto_viewport(params: SystemParams) -> Tuple[float, float]:
    x_ext = max(params.b1 / params.a11, params.b2 / params.a21)
    y_ext = max(params.b1 / params.a12, params.b2 / params.a22)
    x_max, y_max = float(x_ext) * 1.1, float(y_ext) * 1.1
    if not (0.0 < x_max < math.inf and 0.0 < y_max < math.inf):
        raise ValueError("the portrait's viewing window is outside the floating-point "
                         f"range (x up to {x_max}, y up to {y_max})")
    return x_max, y_max


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Canvas:
    """World-to-pixel transform plus an element buffer."""

    def __init__(self, x_range: Tuple[float, float], y_range: Tuple[float, float]):
        self.x_min, self.x_max = x_range
        self.y_min, self.y_max = y_range
        self.pad = 34.0
        self.elements: List[str] = []

    def px(self, x: float) -> float:
        usable = _SIZE - 2 * self.pad
        return self.pad + (x - self.x_min) / (self.x_max - self.x_min) * usable

    def py(self, y: float) -> float:
        usable = _SIZE - 2 * self.pad
        return _SIZE - self.pad - (y - self.y_min) / (self.y_max - self.y_min) * usable

    def inside(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def line(self, x1, y1, x2, y2, stroke, width="1", dash: Optional[str] = None):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<line x1="{_fmt(self.px(x1))}" y1="{_fmt(self.py(y1))}" '
            f'x2="{_fmt(self.px(x2))}" y2="{_fmt(self.py(y2))}" '
            f'stroke="{stroke}" stroke-width="{width}"{dash_attr} />'
        )

    def polyline(self, points: Sequence[Tuple[float, float]], stroke, width="1",
                 dash: Optional[str] = None):
        if len(points) < 2:
            return
        coords = " ".join(f"{_fmt(self.px(x))},{_fmt(self.py(y))}" for x, y in points)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"{dash_attr} />'
        )

    def circle(self, x, y, r_px, fill, stroke="#222222"):
        self.elements.append(
            f'<circle cx="{_fmt(self.px(x))}" cy="{_fmt(self.py(y))}" r="{r_px}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="1.2" />'
        )

    def text(self, x_px, y_px, content, size=12, anchor="start", color="#333333"):
        self.elements.append(
            f'<text x="{_fmt(x_px)}" y="{_fmt(y_px)}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}" fill="{color}">'
            f"{content}</text>"
        )

    def arrow_glyph(self, x, y, angle, color="#4a6fa5"):
        cx, cy = self.px(x), self.py(y)
        # Pixel-space angle: the y axis is flipped.
        a = -angle
        size = 5.0
        tips = []
        for da in (0.0, 2.6, -2.6):
            tips.append((cx + size * math.cos(a + da), cy + size * math.sin(a + da)))
        pts = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in tips)
        self.elements.append(f'<polygon points="{pts}" fill="{color}" />')


def _clip_oblique(canvas: _Canvas, slope: float, intercept: float
                  ) -> Optional[Tuple[Tuple[float, float], Tuple[float, float]]]:
    """Clip y = slope*x + intercept to the viewing box.

    Both nullcline slopes, -a11/a12 and -a21/a22, are negative; one can
    still round to -0.0 when the quotient underflows.
    """
    lo, hi = canvas.x_min, canvas.x_max
    if slope < 0:
        lo = max(lo, (canvas.y_max - intercept) / slope)
        hi = min(hi, (canvas.y_min - intercept) / slope)
    else:
        if not canvas.y_min <= intercept <= canvas.y_max:
            return None
    if lo >= hi:
        return None
    return ((lo, slope * lo + intercept), (hi, slope * hi + intercept))


def _draw_nullclines(canvas: _Canvas, params: SystemParams) -> None:
    b1, b2, a11, a12, a21, a22 = params.as_float_tuple()
    # Species-1 nullclines in blue: the vertical axis and its oblique line.
    canvas.line(0.0, canvas.y_min, 0.0, canvas.y_max, "#1f77b4", "1.4", dash="6,4")
    seg = _clip_oblique(canvas, -a11 / a12, b1 / a12)
    if seg:
        canvas.polyline(seg, "#1f77b4", "1.4", dash="6,4")
    # Species-2 nullclines in green: the horizontal axis and its oblique line.
    canvas.line(canvas.x_min, 0.0, canvas.x_max, 0.0, "#2ca02c", "1.4", dash="6,4")
    seg = _clip_oblique(canvas, -a21 / a22, b2 / a22)
    if seg:
        canvas.polyline(seg, "#2ca02c", "1.4", dash="6,4")


def _draw_axes(canvas: _Canvas) -> None:
    canvas.line(canvas.x_min, 0.0, canvas.x_max, 0.0, "#999999", "0.8")
    canvas.line(0.0, canvas.y_min, 0.0, canvas.y_max, "#999999", "0.8")
    canvas.text(canvas.px(canvas.x_max) - 4, canvas.py(0.0) + 16, "x1",
                anchor="end")
    canvas.text(canvas.px(0.0) + 6, canvas.py(canvas.y_max) + 12, "x2")


def _draw_trajectories(canvas: _Canvas, params: SystemParams) -> None:
    opts = IntegratorOptions(rel_tol=1e-7, abs_tol=1e-10, conv_tol=1e-7,
                             escape_bound=1e4)
    n = _SEEDS
    for i in range(n):
        for j in range(n):
            sx = (i + 0.5) / n * canvas.x_max * 0.92
            sy = (j + 0.5) / n * canvas.y_max * 0.92
            traj = integrate(params, (sx, sy), _TRAJECTORY_HORIZON, opts)
            pts = [(x, y) for _, x, y in traj.samples if canvas.inside(x, y)]
            if len(pts) < 2:
                continue
            canvas.polyline(pts, "#8ab0d9", "0.9")
            _place_arrows(canvas, params, pts)


def _place_arrows(canvas: _Canvas, params: SystemParams, pts: List[Tuple[float, float]]) -> None:
    # Arc length in pixel space so the glyph spacing looks uniform.
    cum = [0.0]
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        dx = canvas.px(x1) - canvas.px(x0)
        dy = canvas.py(y1) - canvas.py(y0)
        cum.append(cum[-1] + math.hypot(dx, dy))
    total = cum[-1]
    if total < 30.0:
        return
    for frac in (0.35, 0.75):
        target = total * frac
        k = next(i for i, c in enumerate(cum) if c >= target)
        x, y = pts[k]
        vx, vy = vector_field(params, (x, y))
        if vx == 0.0 and vy == 0.0:
            continue
        canvas.arrow_glyph(x, y, math.atan2(vy, vx))


def _draw_equilibria(canvas: _Canvas, report: ClassificationReport,
                     scope: Scope) -> None:
    line = report.line
    if line is not None:
        a, b = line.endpoints()
        canvas.polyline([tuple(map(float, a.position)), tuple(map(float, b.position))],
                        DEFAULT_COLORS["NI"], "4")
    seen_labels = []
    for eq in report.equilibria:
        if not isinstance(eq, Equilibrium):
            continue
        sc = report.verdict_at(eq.kind, scope)
        if sc is None:
            sc = report.verdict_at(eq.kind, Scope.FULL_NEIGHBORHOOD)
        label = sc.verdict.coarse_label
        x, y = eq.float_position
        if canvas.inside(x, y):
            canvas.circle(x, y, 5, DEFAULT_COLORS[label])
            if label not in seen_labels:
                seen_labels.append(label)
    if line is not None:
        for member in line.endpoints():
            x, y = member.float_position
            canvas.circle(x, y, 5, DEFAULT_COLORS["NI"])
        if "NI" not in seen_labels:
            seen_labels.append("NI")
    _draw_legend(canvas, seen_labels)


def _draw_legend(canvas: _Canvas, labels: List[str]) -> None:
    order = [lbl for lbl in ("AS", "SS", "NI", "U") if lbl in labels]
    if not order:
        return
    x0 = _SIZE - 190.0
    y0 = 18.0
    for i, lbl in enumerate(order):
        cy = y0 + 18.0 * i
        canvas.elements.append(
            f'<circle cx="{_fmt(x0)}" cy="{_fmt(cy)}" r="5" fill="{DEFAULT_COLORS[lbl]}" '
            f'stroke="#222222" stroke-width="1" />'
        )
        canvas.text(x0 + 12, cy + 4, _LEGEND_TEXT[lbl])


def render_portrait(params: SystemParams, spec: Optional[PortraitSpec] = None) -> str:
    """Render the quadrant phase portrait as an SVG document string."""
    spec = spec or PortraitSpec()
    report = classify(params)
    x_max, y_max = _auto_viewport(params)
    canvas = _Canvas((-x_max / 20.0, x_max), (-y_max / 20.0, y_max))

    _draw_axes(canvas)
    _draw_nullclines(canvas, params)
    _draw_trajectories(canvas, params)
    _draw_equilibria(canvas, report, spec.scope)

    signs = report.determinants.signs
    title = (f"b = ({params.b1}, {params.b2}), "
             f"a = (({params.a11}, {params.a12}), ({params.a21}, {params.a22})); "
             f"determinant signs ({signs[0].glyph}, {signs[1].glyph}, "
             f"{signs[2].glyph})")
    header = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f"<title>{title}</title>",
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="#ffffff" />',
    ]
    return "\n".join(header + canvas.elements + ["</svg>"]) + "\n"
