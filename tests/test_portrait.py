"""Portrait structure: canvas size, equilibrium fills and the legend.

Only the document structure is compared, never coordinates: those come
from floating-point integration and depend on the platform's libm.  The
expected labels come from the gallery's verdict patterns.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from lvcompete import (PORTRAIT_GALLERY, Equilibrium, EquilibriumKind, PortraitSpec, Scope,
                        classify, render_portrait)
from lvcompete.portrait import DEFAULT_COLORS

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
