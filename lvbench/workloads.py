"""The three benchmark workloads: input streams, timed work and output checks.

Every workload is a closed loop with one caller.  ``inputs`` turns the seed
into a stream of systems, ``work`` is the timed part and makes only public
lvcompete calls (through :class:`Lib`, so a traced run can put spans around
them), and ``check`` validates the outputs afterwards, outside the timed
region.  ``check`` returns a list of problems; an empty list means correct.

Why each workload exists, and which layer metric should move which
end-to-end metric, is written up in README.md next to this file.
"""

from __future__ import annotations

import json
import random
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class Item:
    """One system of a workload's input stream."""

    sid: str
    params: Any
    #: exact_explore: end point of the straight path scanned from ``params``.
    path_end: Any = None
    #: verify_slow_manifold: the gallery label.
    label: Optional[str] = None


class Lib:
    """The public lvcompete calls the workloads make, one attribute per span.

    Attribute ``x`` of span ``layer.x`` is the call itself, or the call
    wrapped by ``wrap(name, fn, counts)`` when a tracer is given.
    """

    def __init__(self, lv, wrap: Optional[Callable] = None) -> None:
        def sign_screen(params):
            d = lv.compute_determinants(params)
            return d, lv.sign_case(d)

        calls = {
            "model.sign_screen": sign_screen,
            "classifier.classify": lv.classify,
            "classifier.to_json_dict": lambda report: report.to_json_dict(),
            "classifier.cross_check": lv.cross_check_theorems,
            "equilibria.find_equilibria": lv.find_equilibria,
            "dynamics.nullclines": lv.nullclines,
            "bifurcation.scan_path": lv.scan_path,
            "dynamics.empirical_stability": lv.empirical_stability,
            "dynamics.empirical_matches": lv.empirical_matches,
            "dynamics.lyapunov_verify": lv.lyapunov_verify,
            "portrait.render_portrait": lv.render_portrait,
        }
        undecided = lv.ProbeOutcome.UNDECIDED
        counts = {
            "bifurcation.scan_path": lambda scan: {
                "bracketed_roots": sum(e.root.bracket is not None for e in scan.events)},
            "dynamics.empirical_stability": lambda emp: {
                "probes": len(emp.probes),
                "probes_undecided": sum(p.outcome is undecided for p in emp.probes)},
            "portrait.render_portrait": lambda svg: {"svg_bytes": len(svg.encode("utf-8"))},
        }
        for name, fn in calls.items():
            if wrap is not None:
                fn = wrap(name, fn, counts.get(name))
            setattr(self, name.split(".", 1)[1], fn)


def integrate_counts(traj) -> Dict[str, int]:
    return {"integrate_calls": 1, "steps_accepted": traj.n_accepted,
            "steps_rejected": traj.n_rejected}


@contextmanager
def traced_integrate(lv, wrap: Callable):
    """Route every ``integrate`` call through ``wrap``, including the calls
    the probes make inside ``dynamics`` and the name ``portrait`` imported,
    so step counts cover probes and portraits alike."""
    original = lv.dynamics.integrate
    traced = wrap("dynamics.integrate", original, integrate_counts)
    lv.dynamics.integrate = lv.portrait.integrate = traced
    try:
        yield
    finally:
        lv.dynamics.integrate = lv.portrait.integrate = original


def uniform_system(lv, rng: random.Random):
    """Six positive rationals, numerators 1-12 and denominators 1-4, the
    distribution the acceptance tests draw from."""
    b1, b2, a11, a12, a21, a22 = (
        Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(6))
    return lv.SystemParams(b1=b1, b2=b2, a11=a11, a12=a12, a21=a21, a22=a22)


def swap_species(lv, p):
    """The species swap sigma: (b1,b2,a11,a12,a21,a22) -> (b2,b1,a22,a21,a12,a11)."""
    return lv.SystemParams(b1=p.b2, b2=p.b1, a11=p.a22, a12=p.a21, a21=p.a12, a22=p.a11)


def verification_targets(lib: Lib, lv, params) -> list:
    """The equilibria the CLI's ``verify`` probes: every isolated one, plus
    both ends and the midpoint of a line of equilibria."""
    targets = []
    for entry in lib.find_equilibria(params):
        if isinstance(entry, lv.EquilibriumLine):
            mid = (entry.alpha_min + entry.alpha_max) / 2
            targets.extend(entry.member(a) for a in (entry.alpha_min, mid, entry.alpha_max))
        else:
            targets.append(entry)
    return targets


def probe_problems(lv, probed) -> List[str]:
    """Shared numerical checks: a verdict that is INCONCLUSIVE or that does
    not corroborate the analytic one is a failure."""
    problems = []
    for eq, analytic, emp, matched in probed:
        where = f"{eq.kind.value} @ ({eq.x1}, {eq.x2})"
        if emp.verdict is lv.EmpiricalVerdictKind.INCONCLUSIVE:
            problems.append(f"{where}: probes inconclusive ({emp.note})")
        elif not matched:
            problems.append(f"{where}: analytic {analytic.verdict.value}, "
                            f"probes {emp.verdict.value}")
    return problems


# ---------------------------------------------------------------------------
# exact_explore


#: Species swap on sign-case serials: 2<->4, 3<->5, 6<->7; 1, 8, 9 are fixed.
SWAP_SERIAL = {1: 1, 2: 4, 3: 5, 4: 2, 5: 3, 6: 7, 7: 6, 8: 8, 9: 9}
#: Uniform draws per block of the exact_explore stream; the other 13 systems
#: of a block are one sample_params draw for each feasible sign triple.
UNIFORM_PER_BLOCK = 51


class ExactExplore:
    name = "exact_explore"
    cycle = 1
    tail_percentile = 99.0
    #: Every run measures at least this many systems, enough for ten beyond
    #: the tail percentile; a traced run sums its counts over exactly these
    #: first systems, so the counts repeat for a given seed.
    min_systems = 1000
    prefetch = 256

    def inputs(self, lv, seed: int) -> Iterator[Item]:
        rng = random.Random(f"exact_explore:{seed}")
        triples = lv.feasible_sign_triples()

        def systems():
            while True:
                block = [uniform_system(lv, rng) for _ in range(UNIFORM_PER_BLOCK)]
                block += [lv.sample_params(t, rng_seed=rng.getrandbits(32)) for t in triples]
                rng.shuffle(block)
                yield from block

        stream = systems()
        current = next(stream)
        index = 0
        while True:
            following = next(stream)
            end = None
            if index % 4 == 3:
                # Alternate paths that move only b (rational roots) with paths
                # that move all six parameters (certified bisection brackets).
                if (index // 4) % 2 == 0:
                    end = lv.SystemParams(b1=following.b1, b2=following.b2,
                                          a11=current.a11, a12=current.a12,
                                          a21=current.a21, a22=current.a22)
                else:
                    end = following
            yield Item(sid=f"e{index}", params=current, path_end=end)
            current = following
            index += 1

    def work(self, lv, lib: Lib, item: Item, seed: int) -> dict:
        p = item.params
        _, case = lib.sign_screen(p)
        report = lib.classify(p)
        out = {
            "case": case,
            "report": report,
            "json": lib.to_json_dict(report),
            "cross": lib.cross_check(p),
            "equilibria": lib.find_equilibria(p, include_off_quadrant=True),
            "nullclines": lib.nullclines(p),
            "path": None,
            "scan": None,
        }
        if item.path_end is not None:
            out["path"] = lv.ParameterPath(start=p, end=item.path_end)
            out["scan"] = lib.scan_path(out["path"])
        return out

    def check(self, lv, item: Item, out: dict) -> List[str]:
        p = item.params
        problems = []
        case, report = out["case"], out["report"]
        if not case.feasible or case.table6_serial != report.sign_case.table6_serial:
            problems.append(f"sign triple {case.glyphs} infeasible or disagrees with classify")
        if not out["cross"].ok:
            problems.append(f"cross_check_theorems: {out['cross'].disagreements}")
        if json.loads(json.dumps(out["json"]))["sign_case"].get("table6_serial") \
                != report.sign_case.table6_serial:
            problems.append("to_json_dict serial disagrees with the report")
        for eq in out["equilibria"]:
            if isinstance(eq, lv.Equilibrium) and lv.rhs_exact(p, eq.x1, eq.x2) != (0, 0):
                problems.append(f"{eq.kind.value} ({eq.x1}, {eq.x2}) is not a rest point")
        if len(out["nullclines"].curves) != 4:
            problems.append("nullclines did not return four branches")
        if out["scan"] is not None:
            for event in out["scan"].events:
                if event.root.exact is None:
                    continue
                at = lv.compute_determinants(out["path"].at(event.root.exact))
                nonzero = [w.value for w in event.vanishing if getattr(at, w.value) != 0]
                if nonzero:
                    problems.append(f"scan_path root {event.root.exact} leaves {nonzero} nonzero")
        mirrored = lv.classify(swap_species(lv, p))
        if mirrored.sign_case.table6_serial != SWAP_SERIAL[report.sign_case.table6_serial]:
            problems.append(f"swap maps serial {report.sign_case.table6_serial} to "
                            f"{mirrored.sign_case.table6_serial}")
        swap_kind = {lv.EquilibriumKind.AXIS1: lv.EquilibriumKind.AXIS2,
                     lv.EquilibriumKind.AXIS2: lv.EquilibriumKind.AXIS1}
        expected = {swap_kind.get(k, k): v for k, v in report.verdicts.items()}
        if mirrored.verdicts != expected:
            problems.append("species swap does not trade the AXIS1/AXIS2 verdicts")
        return problems


# ---------------------------------------------------------------------------
# verify_hyperbolic


#: The verify_hyperbolic population: uniform draws with all three
#: determinants nonzero (degenerate draws, about 3.5%, belong to
#: verify_slow_manifold), regenerated by make_population.py.
POPULATION_FILE = "hyperbolic_population.json"
POPULATION_SIZE = 2400
#: Equal strata of the population by RKF45 step count.  About 9% of the
#: systems have probes that settle at a stiff sink without being detected and
#: run to the 1e4 horizon; they take 0.3-2 s against a 25 ms median.  Drawn
#: freely, the number of them in a run swings systems_per_s by about 20%
#: from seed to seed; one draw per stratum per block brings the part of the
#: spread that comes from the inputs down to about 2%.
STRATA = 120
PARAM_NAMES = ("b1", "b2", "a11", "a12", "a21", "a22")


def load_population(lv) -> List[Tuple[Any, int]]:
    """(params, steps) for every system of the verify_hyperbolic population."""
    with open(Path(__file__).resolve().parent / POPULATION_FILE, encoding="utf-8") as fh:
        entries = json.load(fh)["systems"]
    return [(lv.SystemParams(**{n: Fraction(v) for n, v in zip(PARAM_NAMES, values)}), steps)
            for values, steps in entries]


class VerifyHyperbolic:
    name = "verify_hyperbolic"
    #: A run measures whole blocks, one system from each stratum.
    cycle = STRATA
    tail_percentile = 95.0
    min_systems = 2 * STRATA
    prefetch = STRATA

    def inputs(self, lv, seed: int) -> Iterator[Item]:
        rng = random.Random(f"verify_hyperbolic:{seed}")
        ranked = [p for _, p in sorted(
            ((steps, i), p) for i, (p, steps) in enumerate(load_population(lv)))]
        size = len(ranked) // STRATA
        index = 0
        while True:
            strata = [rng.sample(ranked[k * size:(k + 1) * size], size) for k in range(STRATA)]
            for draw in range(size):
                block = [stratum[draw] for stratum in strata]
                rng.shuffle(block)
                for p in block:
                    yield Item(sid=f"h{index}", params=p)
                    index += 1

    def work(self, lv, lib: Lib, item: Item, seed: int) -> dict:
        p = item.params
        report = lib.classify(p)
        cross = lib.cross_check(p)
        protocol = lv.ProbeProtocol(scope=lv.ProbeScope.FIRST_QUADRANT, probe_count=8)
        probed = []
        for eq in verification_targets(lib, lv, p):
            analytic = report.verdict_at(eq.kind, lv.Scope.FIRST_QUADRANT_CLOSED)
            if analytic is None:
                continue
            emp = lib.empirical_stability(p, eq, protocol)
            probed.append((eq, analytic, emp, lib.empirical_matches(analytic, emp)))
        svg = lib.render_portrait(p, lv.PortraitSpec(scope=lv.Scope.FIRST_QUADRANT_CLOSED))
        return {"report": report, "cross": cross, "probed": probed, "svg": svg}

    def check(self, lv, item: Item, out: dict) -> List[str]:
        problems = []
        if not out["report"].sign_case.feasible:
            problems.append("infeasible sign triple")
        if not out["cross"].ok:
            problems.append(f"cross_check_theorems: {out['cross'].disagreements}")
        if not out["probed"]:
            problems.append("no equilibrium was probed")
        problems += probe_problems(lv, out["probed"])
        try:
            root = ET.fromstring(out["svg"])
        except ET.ParseError as exc:
            problems.append(f"SVG does not parse: {exc}")
        else:
            if root.tag != "{http://www.w3.org/2000/svg}svg":
                problems.append(f"SVG root element is {root.tag}")
        return problems


# ---------------------------------------------------------------------------
# verify_slow_manifold


#: Gallery systems whose axis equilibrium has a zero eigenvalue, cheapest
#: first (accepted RKF45 steps at full-plane scope: 0.62 M, 0.78 M, 1.13 M
#: and 4.92 M).  Full-neighbourhood verdicts: semi-stable for case2 and
#: case4, unstable for case6 and case7.
SLOW_MANIFOLD_CASES = ("case4", "case7", "case6", "case2")
_COARSE = {"SEMI_STABLE": "SS", "UNSTABLE": "U"}


class VerifySlowManifold:
    name = "verify_slow_manifold"
    #: A run measures whole passes over the four systems, so every run does
    #: the same work whatever its length.
    cycle = len(SLOW_MANIFOLD_CASES)
    tail_percentile = 100.0
    min_systems = len(SLOW_MANIFOLD_CASES)
    prefetch = len(SLOW_MANIFOLD_CASES)

    def inputs(self, lv, seed: int) -> Iterator[Item]:
        entries = [lv.gallery_entry(label) for label in SLOW_MANIFOLD_CASES]
        index = 0
        while True:
            for entry in entries:
                yield Item(sid=f"s{index}", params=entry.params, label=entry.label)
                index += 1

    def work(self, lv, lib: Lib, item: Item, seed: int) -> dict:
        p = item.params
        d, _ = lib.sign_screen(p)
        report = lib.classify(p)
        eq = next(e for e in lib.find_equilibria(p)
                  if isinstance(e, lv.Equilibrium)
                  and e.kind in (lv.EquilibriumKind.AXIS1, lv.EquilibriumKind.AXIS2)
                  and lv.Sign.ZERO in e.eigenvalues.realpart_signs)
        analytic = report.verdict_at(eq.kind, lv.Scope.FULL_NEIGHBORHOOD)
        protocol = lv.ProbeProtocol(scope=lv.ProbeScope.FULL_PLANE, probe_count=4)
        emp = lib.empirical_stability(p, eq, protocol)
        matched = lib.empirical_matches(analytic, emp)
        which = lv.LyapunovTarget.FOR_AXIS2 if d.d122 == 0 else lv.LyapunovTarget.FOR_AXIS1
        lyapunov = lib.lyapunov_verify(p, which, sample_count=300, seed=seed)
        return {"probed": [(eq, analytic, emp, matched)], "lyapunov": lyapunov}

    def check(self, lv, item: Item, out: dict) -> List[str]:
        (eq, analytic, _, _), = out["probed"]
        problems = probe_problems(lv, out["probed"])
        slot = {lv.EquilibriumKind.AXIS1: 1, lv.EquilibriumKind.AXIS2: 2}[eq.kind]
        expected = lv.gallery_entry(item.label).expected_pattern[slot]
        if _COARSE.get(analytic.verdict.name) != expected:
            problems.append(f"{item.label}: analytic verdict {analytic.verdict.value}, "
                            f"gallery expects {expected}")
        if not out["lyapunov"].passed():
            problems.append(f"{item.label}: Lyapunov check failed "
                            f"(max relative gap {out['lyapunov'].max_rel_gap:.3e})")
        return problems


WORKLOADS = {w.name: w for w in (ExactExplore(), VerifyHyperbolic(), VerifySlowManifold())}
