"""Regenerate hyperbolic_population.json, the input population of the
verify_hyperbolic workload.

The population is a fixed set of uniform draws with all three determinants
nonzero.  Each entry carries the RKF45 steps (accepted plus rejected) that
its verify-and-portrait work takes; the workload sorts the population by
that count into equal strata and every block of its input stream takes one
system from each stratum.  The counts only shape the strata: any fixed
partition keeps the sample unbiased, and a partition by cost removes most
of the run-to-run spread that a few very slow systems would otherwise cause.

Run from the repository root (takes a few minutes):

    python3 lvbench/make_population.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import lvcompete as lv  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (PARAM_NAMES, POPULATION_FILE, POPULATION_SIZE, Item,  # noqa: E402
                       Lib, VerifyHyperbolic, traced_integrate, uniform_system)


def main() -> None:
    rng = random.Random("verify_hyperbolic:population")
    workload = VerifyHyperbolic()
    tracer = Tracer()
    lib = Lib(lv)
    entries = []
    with traced_integrate(lv, tracer.wrap):
        while len(entries) < POPULATION_SIZE:
            p = uniform_system(lv, rng)
            d = lv.compute_determinants(p)
            if d.d12 == 0 or d.d112 == 0 or d.d122 == 0:
                continue
            tracer.spans.clear()
            workload.work(lv, lib, Item(sid="population", params=p), seed=0)
            steps = sum(s[5]["steps_accepted"] + s[5]["steps_rejected"]
                        for s in tracer.spans)
            entries.append([[str(getattr(p, n)) for n in PARAM_NAMES], steps])
            if len(entries) % 200 == 0:
                print(f"{len(entries)} / {POPULATION_SIZE}", file=sys.stderr, flush=True)
    with open(HERE / POPULATION_FILE, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["b1 b2 a11 a12 a21 a22", "rkf45_steps"],
                   "systems": entries}, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
