"""Print cold per-call medians of the exact spans of the ``exact_explore`` workload.

    python3 tools/layer_times.py

Run it from any directory; it imports lvcompete from ``src/`` and the
workload from ``lvbench/workloads.py`` of the same checkout.  Three times
over, each of the first 4,000 systems of the seed-5 stream goes through the workload's own ``work`` on a fresh copy of its
parameters, so each span starts from what an untraced benchmark run gives
it: ``sign_screen`` computes the determinants, the first ``classify`` builds
the equilibria, and ``cross_check`` and ``find_equilibria`` read them back.
A traced lvbench run cannot show this: it runs each system twice on one
parameters object, so its medians mix cold and warm calls.  Each span is
timed around the call alone; the table gives the median over all calls.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import time
from collections import defaultdict
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SYSTEMS, REPEATS, SEED = 4000, 3, 5


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "lvbench")]
    import lvcompete as lv
    import workloads

    durations = defaultdict(list)
    clock = time.perf_counter

    def wrap(name, fn, counts=None):
        spent = durations[name]

        def timed(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            spent.append(clock() - start)
            return result

        return timed

    workload = workloads.ExactExplore()
    lib = workloads.Lib(lv, wrap)
    items = list(islice(workload.inputs(lv, SEED), SYSTEMS))
    for _ in range(REPEATS):
        for item in items:
            fresh = lv.SystemParams(**item.params.__getstate__())
            workload.work(lv, lib, dataclasses.replace(item, params=fresh), SEED)

    print(f"{'span':<30} {'calls':>7} {'median_us':>10}")
    for name, spent in durations.items():
        if spent:  # spans of the other workloads are wrapped but never called
            print(f"{name:<30} {len(spent):>7} {statistics.median(spent) * 1e6:>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
