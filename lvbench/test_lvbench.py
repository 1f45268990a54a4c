"""Checks on the benchmark harness itself: determinism, input generation,
output checks and metric names.  Run from the repository root:

    python3 -m pytest -q lvbench/test_lvbench.py
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (WORKLOADS, Lib, load_population,  # noqa: E402
                       traced_integrate)

lv = run.load_library()
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def first_items(name, seed, n):
    return list(itertools.islice(WORKLOADS[name].inputs(lv, seed), n))


def traced_counts(name, seed, n):
    """Summed span counts (steps, calls, brackets, ...) over the first n systems."""
    workload = WORKLOADS[name]
    tracer = Tracer()
    lib = Lib(lv, tracer.wrap)
    with traced_integrate(lv, tracer.wrap):
        for item in first_items(name, seed, n):
            workload.work(lv, lib, item, seed)
    totals = {}
    for entry in tracer.by_name().values():
        totals.update(entry["counts"])
    return totals


def test_same_seed_gives_identical_inputs():
    for name in WORKLOADS:
        assert first_items(name, 7, 120) == first_items(name, 7, 120), name


def test_other_seed_changes_the_seeded_inputs():
    for name in ("exact_explore", "verify_hyperbolic"):
        a = [item.params for item in first_items(name, 1, 64)]
        b = [item.params for item in first_items(name, 2, 64)]
        assert a != b, name


def test_hyperbolic_inputs_never_have_a_zero_determinant():
    systems = [p for p, _ in load_population(lv)]
    systems += [item.params for item in first_items("verify_hyperbolic", 3, 200)]
    for p in systems:
        d = lv.compute_determinants(p)
        assert 0 not in (d.d12, d.d112, d.d122), p


def test_same_seed_gives_identical_counts():
    exact = traced_counts("exact_explore", 11, 200)
    assert exact["bracketed_roots"] > 0
    assert exact == traced_counts("exact_explore", 11, 200)
    for name, n in (("verify_hyperbolic", 2), ("verify_slow_manifold", 1)):
        counts = traced_counts(name, 11, n)
        assert counts["steps_accepted"] > 0 and counts["integrate_calls"] > 0, name
        assert counts == traced_counts(name, 11, n), name


def test_checks_catch_wrong_outputs():
    workload = WORKLOADS["exact_explore"]
    item = first_items("exact_explore", 1, 1)[0]
    out = workload.work(lv, Lib(lv), item, 1)
    assert workload.check(lv, item, out) == []
    disagreeing = replace(out["cross"], disagreements=["axis1 attracting"])
    assert workload.check(lv, item, dict(out, cross=disagreeing))

    workload = WORKLOADS["verify_hyperbolic"]
    item = first_items("verify_hyperbolic", 1, 1)[0]
    out = workload.work(lv, Lib(lv), item, 1)
    assert workload.check(lv, item, out) == []
    assert workload.check(lv, item, dict(out, svg=out["svg"][:-8]))
    eq, analytic, emp, _ = out["probed"][0]
    inconclusive = replace(emp, verdict=lv.EmpiricalVerdictKind.INCONCLUSIVE)
    assert workload.check(lv, item, dict(out, probed=[(eq, analytic, inconclusive, False)]))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "exact_explore",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
