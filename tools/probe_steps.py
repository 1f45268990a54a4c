"""Print the ring probes' accepted steps and wall time by target kind and outcome.

    python3 tools/probe_steps.py

Run it from any directory; it imports lvcompete from ``src/`` and the
workload from ``lvbench/workloads.py`` of the same checkout.  Two groups of
probes are counted: those of the first 240 systems of the seed-5
``verify_hyperbolic`` stream, run through the workload's own ``work`` with
the portrait left out, and the gallery's quadrant probes, 16 for each
target of ``verify``: every isolated quadrant equilibrium, and both ends
and the midpoint of case9's line of equilibria.  Each probe is one ``integrate`` run, timed around
the call; the table sums the probes, their accepted steps and their seconds
for each group, target kind and outcome.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SYSTEMS, SEED, GALLERY_PROBES = 240, 5, 16


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "lvbench")]
    import lvcompete as lv
    import workloads
    from lvcompete.cli import _verification_targets

    clock = time.perf_counter
    runs = []  # (seconds, accepted steps) of each integrate call of one ring
    integrate = lv.dynamics.integrate

    def timed_integrate(*args, **kwargs):
        start = clock()
        traj = integrate(*args, **kwargs)
        runs.append((clock() - start, traj.n_accepted))
        return traj

    lv.dynamics.integrate = timed_integrate
    totals = defaultdict(lambda: [0, 0, 0.0])  # probes, steps, seconds
    group = "verify_hyperbolic"

    def probe(params, eq, protocol=None):
        runs.clear()
        emp = lv.empirical_stability(params, eq, protocol)
        for result, (seconds, steps) in zip(emp.probes, runs, strict=True):
            row = totals[(group, eq.kind.value, result.outcome.value)]
            row[0] += 1
            row[1] += steps
            row[2] += seconds
        return emp

    replaced = {"dynamics.empirical_stability": probe,
                "portrait.render_portrait": lambda *args, **kwargs: ""}
    lib = workloads.Lib(lv, lambda name, fn, counts=None: replaced.get(name, fn))
    workload = workloads.VerifyHyperbolic()
    for item in islice(workload.inputs(lv, SEED), SYSTEMS):
        workload.work(lv, lib, item, SEED)
    group = "gallery"
    ring = lv.ProbeProtocol(probe_count=GALLERY_PROBES)
    for label in lv.gallery_labels():
        params = lv.gallery_entry(label).params
        for eq in _verification_targets(params):
            probe(params, eq, ring)

    print(f"{'group':<18} {'target':<11} {'outcome':<20} {'probes':>7} {'steps':>9} "
          f"{'steps/probe':>11} {'seconds':>8}")
    for name in ("verify_hyperbolic", "gallery"):
        rows = sorted((key, row) for key, row in totals.items() if key[0] == name)
        for (_, kind, outcome), (probes, steps, seconds) in rows:
            print(f"{name:<18} {kind:<11} {outcome:<20} {probes:>7} {steps:>9} "
                  f"{steps / probes:>11.1f} {seconds:>8.3f}")
        probes, steps, seconds = (sum(row[i] for _, row in rows) for i in range(3))
        print(f"{name:<18} {'all':<11} {'all':<20} {probes:>7} {steps:>9} "
              f"{steps / probes:>11.1f} {seconds:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
