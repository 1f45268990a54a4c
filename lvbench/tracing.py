"""In-memory spans around the public lvcompete calls a workload makes.

A span is ``[name, start, end, parent, system, counts]``: ``parent`` is the
index of the enclosing span (``None`` at the root), ``system`` the id of the
system being processed, and ``counts`` an optional dict of work counts read
off the call's result.  Spans are only appended during a run and written out
once at the end, so the recorder adds no I/O to the traced region.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.system: Optional[str] = None

    def wrap(self, name: str, fn: Callable,
             counts: Optional[Callable[[object], Dict[str, int]]] = None) -> Callable:
        """``fn`` with a span named ``name`` recorded around every call."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.system, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts is not None:
                span[5] = counts(result)
            return result

        return traced

    def self_times(self) -> List[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def by_name(self, systems: Optional[set] = None) -> Dict[str, dict]:
        """Per span name: call durations, self times and summed counts,
        restricted to the given system ids when ``systems`` is set."""
        out: Dict[str, dict] = defaultdict(
            lambda: {"durations": [], "self": [], "counts": defaultdict(int)})
        for span, own in zip(self.spans, self.self_times()):
            if systems is not None and span[4] not in systems:
                continue
            entry = out[span[0]]
            entry["durations"].append(span[2] - span[1])
            entry["self"].append(own)
            for key, value in (span[5] or {}).items():
                entry["counts"][key] += value
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "system", "counts"],
                       "spans": self.spans}, fh)
