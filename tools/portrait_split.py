"""Print where ``render_portrait`` spends its time: integrating or drawing.

    python3 tools/portrait_split.py

Run it from any directory; it imports lvcompete from ``src/`` and the
workload from ``lvbench/workloads.py`` of the same checkout.  It renders the
quadrant-scope portraits of the first 240 systems of the seed-5
``verify_hyperbolic`` stream, as the workload does, each after a
``classify`` call that warms the system's exact numbers as the workload's
own ``classify`` does.  Each ``integrate`` call of the portrait is timed
around the call; drawing is the rest of ``render_portrait``.  Three passes
are timed, one line each.  Then come the accepted steps and samples of the
portraits' trajectories and the sha256 of the 240 SVG documents joined
together, which must not change with a change that only makes drawing
faster.
"""

from __future__ import annotations

import hashlib
import sys
import time
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SYSTEMS, SEED, PASSES = 240, 5, 3


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "lvbench")]
    import lvcompete as lv
    import workloads

    clock = time.perf_counter
    integrate = lv.portrait.integrate
    spent = [0.0, 0, 0]  # integrate seconds, accepted steps, samples

    def timed_integrate(*args, **kwargs):
        start = clock()
        traj = integrate(*args, **kwargs)
        spent[0] += clock() - start
        spent[1] += traj.n_accepted
        spent[2] += len(traj.samples)
        return traj

    lv.portrait.integrate = timed_integrate
    systems = [item.params for item in
               islice(workloads.VerifyHyperbolic().inputs(lv, SEED), SYSTEMS)]
    spec = lv.PortraitSpec(scope=lv.Scope.FIRST_QUADRANT_CLOSED)
    for params in systems:
        lv.classify(params)

    print(f"{'pass':<5} {'render_s':>9} {'integrate_s':>12} {'drawing_s':>10} "
          f"{'ms/portrait':>12}")
    digests = set()
    for n in range(1, PASSES + 1):
        spent[:] = [0.0, 0, 0]
        svgs = []
        total = 0.0
        for params in systems:
            start = clock()
            svgs.append(lv.render_portrait(params, spec))
            total += clock() - start
        digests.add(hashlib.sha256("".join(svgs).encode()).hexdigest())
        print(f"{n:<5} {total:>9.3f} {spent[0]:>12.3f} {total - spent[0]:>10.3f} "
              f"{1e3 * total / SYSTEMS:>12.2f}")
    print(f"portraits {SYSTEMS}, accepted steps {spent[1]}, samples {spent[2]}")
    print(f"svg sha256 {' '.join(sorted(digests))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
