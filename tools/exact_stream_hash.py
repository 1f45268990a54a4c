"""Print one hash over the exact layers' JSON for the ``exact_explore`` stream.

    python3 tools/exact_stream_hash.py

Run it from any directory; it imports lvcompete from ``src/`` and the input
stream from ``lvbench/workloads.py`` of the same checkout.  For the first 800
systems of each of the seeds 1-5 it serialises the ``classify`` report, the
equilibria with and without the off-quadrant ones, the nullclines, the
``cross_check_theorems`` verdict and the path scan (or None), and prints the
sha256 of those documents.  A change that must keep every output byte shows
the same hash before and after.
"""

from __future__ import annotations

import hashlib
import json
import sys
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 6)
SYSTEMS_PER_SEED = 800


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "lvbench")]
    import lvcompete as lv
    import workloads

    digest = hashlib.sha256()
    for seed in SEEDS:
        for item in islice(workloads.ExactExplore().inputs(lv, seed), SYSTEMS_PER_SEED):
            p = item.params
            scan = None
            if item.path_end is not None:
                scan = lv.scan_path(lv.ParameterPath(start=p, end=item.path_end)).to_json_dict()
            doc = [
                lv.classify(p).to_json_dict(),
                [e.to_json_dict() for e in lv.find_equilibria(p, include_off_quadrant=True)],
                [e.to_json_dict() for e in lv.find_equilibria(p)],
                lv.nullclines(p).to_json_dict(),
                lv.cross_check_theorems(p).ok,
                scan,
            ]
            digest.update(json.dumps(doc, sort_keys=True).encode("utf-8"))
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
