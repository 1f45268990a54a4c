"""Run one lvcompete benchmark workload and print its metrics.

    python3 lvbench/run.py --workload exact_explore --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports lvcompete from ``src/`` of the
same checkout and exits with code 2 if that is missing.  ``--trace 0``
measures the end-to-end metrics with tracing off.  ``--trace 1`` is the
separate traced run: it records spans around every library call, prints the
per-layer table and writes the spans to ``.bench_build/lvbench/``.  Either
way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (machine, commit, seed and sample counts).

README.md in this directory says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Item, Lib, traced_integrate  # noqa: E402

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("systems_per_s", "1/s"),
    ("system_ms_p50", "ms"),
    ("system_ms_tail", "ms"),
    ("ok_ratio", "1"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit, span it is read from); the span decides applicability.
PER_LAYER = (
    ("model.sign_screen_us", "us", "model.sign_screen"),
    ("equilibria.find_equilibria_us", "us", "equilibria.find_equilibria"),
    ("classifier.classify_us", "us", "classifier.classify"),
    ("classifier.cross_check_us", "us", "classifier.cross_check"),
    ("dynamics.nullclines_us", "us", "dynamics.nullclines"),
    ("bifurcation.scan_path_ms", "ms", "bifurcation.scan_path"),
    ("bifurcation.bracketed_roots", "count", "bifurcation.scan_path"),
    ("dynamics.empirical_stability_ms", "ms", "dynamics.empirical_stability"),
    ("dynamics.integrate_calls", "count", "dynamics.integrate"),
    ("dynamics.steps_accepted", "count", "dynamics.integrate"),
    ("dynamics.steps_rejected", "count", "dynamics.integrate"),
    ("dynamics.step_us", "us", "dynamics.integrate"),
    ("dynamics.reject_ratio", "1", "dynamics.integrate"),
    ("dynamics.probes_undecided", "count", "dynamics.empirical_stability"),
    ("dynamics.lyapunov_verify_ms", "ms", "dynamics.lyapunov_verify"),
    ("portrait.render_portrait_ms", "ms", "portrait.render_portrait"),
    ("portrait.svg_bytes", "bytes", "portrait.render_portrait"),
    ("trace.overhead_ratio", "1", "system"),
)


# ---------------------------------------------------------------------------
# Set-up


def load_library():
    """A fresh import of lvcompete from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "lvcompete" or m.startswith("lvcompete.")]:
        del sys.modules[name]
    lv = importlib.import_module("lvcompete")
    if Path(lv.__file__).resolve().parent != (SRC / "lvcompete").resolve():
        raise ImportError(f"lvcompete was imported from {lv.__file__}, not from {SRC}")
    return lv


def set_up(workload, seed: int, repeats: int = SETUP_REPEATS):
    """Import lvcompete and generate the workload's first inputs, ``repeats``
    times; returns the last library and input stream and every duration."""
    durations = []
    for _ in range(repeats):
        start = time.perf_counter()
        lv = load_library()
        stream = workload.inputs(lv, seed)
        first = [next(stream) for _ in range(workload.prefetch)]
        durations.append(time.perf_counter() - start)
    return lv, itertools.chain(first, stream), durations


# ---------------------------------------------------------------------------
# The closed loop


def drive(items: Iterable[Item], work: Callable, check: Callable,
          stop: Callable[[int], bool], cycle: int):
    """Run ``work`` on one item after another; only ``work`` is timed.

    ``check`` runs after the clock stops.  A system fails when ``work`` or
    ``check`` raises or ``check`` reports a problem.  The loop ends at the
    first multiple of ``cycle`` systems at which ``stop(count)`` is true.
    """
    latencies = array("d")
    failures: List[Tuple[str, List[str]]] = []
    for item in items:
        start = time.perf_counter()
        try:
            out = work(item)
        except Exception:
            out, problems = None, [traceback.format_exc(limit=4)]
        latencies.append(time.perf_counter() - start)
        if out is not None:
            try:
                problems = check(item, out)
            except Exception:
                problems = [traceback.format_exc(limit=4)]
        if problems:
            failures.append((item.sid, problems))
        if len(latencies) % cycle == 0 and stop(len(latencies)):
            break
    return latencies, failures


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def run_plain(workload, seed: int, seconds: float):
    lv, items, setup_times = set_up(workload, seed)
    lib = Lib(lv)
    deadline = time.perf_counter() + seconds
    latencies, failures = drive(
        items, lambda item: workload.work(lv, lib, item, seed),
        lambda item, out: workload.check(lv, item, out),
        lambda n: n >= workload.min_systems and time.perf_counter() >= deadline,
        workload.cycle)

    n = len(latencies)
    q = workload.tail_percentile
    beyond = n - max(1, math.ceil(q / 100.0 * n))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "systems_per_s": n / sum(latencies),
        "system_ms_p50": statistics.median(latencies) * 1e3,
        "system_ms_tail": percentile(latencies, q) * 1e3,
        "ok_ratio": 1.0 - len(failures) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "setup_s": {"n": len(setup_times)},
        "systems_per_s": {"n": n, "timed_s": sum(latencies)},
        "system_ms_p50": {"n": n},
        "system_ms_tail": {"n": n, "percentile": q, "beyond": beyond},
        "ok_ratio": {"n": n, "failed": len(failures)},
        "peak_rss_mb": {"n": 1},
    }
    table = [f"{name:<16} {metrics[name]:>14.6g} {unit:<5} {json.dumps(samples[name])}"
             for name, unit in END_TO_END]
    units = dict(END_TO_END)
    return metrics, units, samples, n, failures, table, {}


def run_traced(workload, seed: int, seconds: float):
    """Every system runs twice back to back, traced and untraced, in
    alternating order, so the tracing overhead is priced on the same inputs
    under the same machine load.  Runs for about ``seconds`` and at least
    ``min_systems`` systems."""
    lv, items, _ = set_up(workload, seed, repeats=1)
    tracer = Tracer()
    lib, plain_lib = Lib(lv, tracer.wrap), Lib(lv)
    traced_work = tracer.wrap("system", lambda item: workload.work(lv, lib, item, seed))
    traced, plain = array("d"), array("d")
    done: List[Item] = []

    def both(item: Item):
        tracer.system = item.sid
        done.append(item)
        for with_spans in ((True, False) if len(done) % 2 else (False, True)):
            start = time.perf_counter()
            if with_spans:
                with traced_integrate(lv, tracer.wrap):
                    out = traced_work(item)
                traced.append(time.perf_counter() - start)
            else:
                workload.work(lv, plain_lib, item, seed)
                plain.append(time.perf_counter() - start)
        return out

    deadline = time.perf_counter() + seconds
    _, failures = drive(
        items, both, lambda item, out: workload.check(lv, item, out),
        lambda n: n >= workload.min_systems and time.perf_counter() >= deadline,
        workload.cycle)

    spans_dir = ROOT / ".bench_build" / "lvbench"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / f"spans-{workload.name}-seed{seed}.json"
    tracer.write(spans_path)

    counted = {item.sid for item in done[:workload.min_systems]}
    every = tracer.by_name()
    prefix = tracer.by_name(counted)
    overhead = sum(traced) / sum(plain)
    metrics, notes = per_layer_metrics(every, prefix, overhead)
    for name, span in [(n, s) for n, _, s in PER_LAYER if s not in every]:
        notes[name] = f"not applicable: {workload.name} makes no {span} call; reported as 0"

    units = {name: unit for name, unit, _ in PER_LAYER}
    samples = {name: {"calls": len(every.get(span, {}).get("durations", []))}
               for name, _, span in PER_LAYER}
    table = [f"{name:<32} {metrics[name]:>14.6g} {units[name]:<5} "
             f"{notes.get(name, '')}" for name, _, _ in PER_LAYER]
    traced_total = sum(traced)
    table.append("self time by span (traced pass):")
    for name, entry in sorted(every.items(), key=lambda kv: -sum(kv[1]["self"])):
        own = sum(entry["self"])
        table.append(f"  {name:<30} calls {len(entry['self']):>8}  self {own:>10.4f} s  "
                     f"{100.0 * own / traced_total:6.2f}%")
    extra = {"spans_file": str(spans_path.relative_to(ROOT)),
             "counted_systems": len(counted), "traced_systems": len(done),
             "notes": notes}
    return metrics, units, samples, len(done), failures, table, extra


def per_layer_metrics(every: Dict[str, dict], prefix: Dict[str, dict],
                      overhead: float) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Per-call timings are medians over the whole traced pass; counts are
    sums over the first ``min_systems`` systems, so they repeat per seed."""

    def call_p50(span: str, scale: float) -> float:
        return statistics.median(every[span]["durations"]) * scale if span in every else 0.0

    def count(span: str, key: str) -> int:
        return prefix[span]["counts"][key] if span in prefix else 0

    accepted = count("dynamics.integrate", "steps_accepted")
    rejected = count("dynamics.integrate", "steps_rejected")
    portraits = len(prefix.get("portrait.render_portrait", {}).get("durations", []))
    integrate = every.get("dynamics.integrate")
    all_accepted = integrate["counts"]["steps_accepted"] if integrate else 0
    metrics = {
        "model.sign_screen_us": call_p50("model.sign_screen", 1e6),
        "equilibria.find_equilibria_us": call_p50("equilibria.find_equilibria", 1e6),
        "classifier.classify_us": call_p50("classifier.classify", 1e6),
        "classifier.cross_check_us": call_p50("classifier.cross_check", 1e6),
        "dynamics.nullclines_us": call_p50("dynamics.nullclines", 1e6),
        "bifurcation.scan_path_ms": call_p50("bifurcation.scan_path", 1e3),
        "bifurcation.bracketed_roots": count("bifurcation.scan_path", "bracketed_roots"),
        "dynamics.empirical_stability_ms": call_p50("dynamics.empirical_stability", 1e3),
        "dynamics.integrate_calls": count("dynamics.integrate", "integrate_calls"),
        "dynamics.steps_accepted": accepted,
        "dynamics.steps_rejected": rejected,
        "dynamics.step_us": (sum(integrate["self"]) / all_accepted * 1e6
                             if all_accepted else 0.0),
        "dynamics.reject_ratio": (rejected / (accepted + rejected)
                                  if accepted + rejected else 0.0),
        "dynamics.probes_undecided": count("dynamics.empirical_stability", "probes_undecided"),
        "dynamics.lyapunov_verify_ms": call_p50("dynamics.lyapunov_verify", 1e3),
        "portrait.render_portrait_ms": call_p50("portrait.render_portrait", 1e3),
        "portrait.svg_bytes": (count("portrait.render_portrait", "svg_bytes") / portraits
                               if portraits else 0),
        "trace.overhead_ratio": overhead,
    }
    notes = {
        "bifurcation.bracketed_roots": "scan_path events with a bisection bracket, counted systems",
        "dynamics.integrate_calls": "counted systems",
        "dynamics.steps_accepted": "counted systems",
        "dynamics.steps_rejected": "counted systems",
        "dynamics.step_us": "integrate self time / accepted steps, whole traced pass",
        "dynamics.reject_ratio": "rejected / attempted steps, counted systems",
        "dynamics.probes_undecided": "counted systems",
        "portrait.svg_bytes": "mean per portrait, counted systems",
        "trace.overhead_ratio": "traced / untraced time on the same systems",
    }
    return metrics, notes


# ---------------------------------------------------------------------------
# Run record


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine() -> dict:
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lvcompete" / "__init__.py").is_file():
        print(f"error: no lvcompete sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    runner = run_traced if args.trace else run_plain
    metrics, units, samples, attempted, failures, table, extra = runner(
        workload, args.seed, args.seconds)

    print(f"lvbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for line in table:
        print(line)
    for sid, problems in failures[:5]:
        print(f"FAILED {sid}: {' | '.join(p.strip() for p in problems)}")
    record = {"machine": machine(), "workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "samples": samples,
              "failed_ratio": len(failures) / attempted, **extra}
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
