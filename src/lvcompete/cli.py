"""Command-line interface.

Exit codes: 0 on success, 2 on bad input (non-positive parameters, numbers
that are non-finite, out of range or outside the floating-point range, an
unreadable file), 3 when the ``verify`` subcommand finds a disagreement or
an inconclusive probe.  Comma lists may start with '-', as in --start -0.5,1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .exact import QuadraticSurd
from .model import ParameterError, SystemParams, as_fraction, compute_determinants, sign_case
from .equilibria import Equilibrium, EquilibriumKind, find_equilibria, nullclines
from .classifier import Scope, classify, cross_check_theorems
from .dynamics import (
    IntegratorOptions,
    LyapunovTarget,
    ProbeProtocol,
    ProbeScope,
    empirical_matches,
    empirical_stability,
    integrate,
    lyapunov_verify,
)
from .bifurcation import ParameterPath, scan_path
from .gallery import PORTRAIT_GALLERY, gallery_entry
from .portrait import PortraitSpec, render_portrait

__all__ = ["main", "entry_point"]

_SCOPE_BY_NAME = {
    "quadrant": (Scope.FIRST_QUADRANT_CLOSED, ProbeScope.FIRST_QUADRANT),
    "plane": (Scope.FULL_NEIGHBORHOOD, ProbeScope.FULL_PLANE),
}


def _parse_values(text: str, expected: int, flag: str) -> Tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != expected:
        raise ParameterError(f"{flag} expects {expected} comma-separated values, got {len(parts)}")
    try:
        return tuple(as_fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"could not parse {flag}={text!r}: {exc}") from None


def _system(b_text: str, a_text: str, b_flag: str = "--b", a_flag: str = "--a") -> SystemParams:
    b = _parse_values(b_text, 2, b_flag)
    a = _parse_values(a_text, 4, a_flag)
    return SystemParams(b1=b[0], b2=b[1], a11=a[0], a12=a[1], a21=a[2], a22=a[3])


def _params_from_args(args: argparse.Namespace) -> SystemParams:
    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as fh:
            return SystemParams.from_json_dict(json.load(fh))
    if args.b is None or args.a is None:
        raise ParameterError("provide both --b and --a, or --input FILE")
    return _system(args.b, args.a)


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args: argparse.Namespace, payload) -> None:
    _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _fmt_exact(value) -> str:
    if isinstance(value, QuadraticSurd):
        op = "+" if value.branch > 0 else "-"
        return f"({value.p} {op} sqrt({value.q}))/{value.r}"
    return str(value)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_classify(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    report = classify(params)
    if args.json:
        _emit_json(args, report.to_json_dict())
        return 0
    d = report.determinants
    lines = [
        f"parameters: {params}",
        f"determinants: d12 = {d.d12} ({d.signs[0].glyph}), "
        f"d112 = {d.d112} ({d.signs[1].glyph}), d122 = {d.d122} ({d.signs[2].glyph})",
        f"sign case ({', '.join(report.sign_case.glyphs)}): "
        f"serial {report.sign_case.table6_serial}",
    ]
    if args.table6:
        full = report.pattern(Scope.FULL_NEIGHBORHOOD)
        quad = report.pattern(Scope.FIRST_QUADRANT_CLOSED)
        lines.append(f"pattern (full neighborhood): ({', '.join(full)})")
        lines.append(f"pattern (closed quadrant):   ({', '.join(quad)})")
    lines.append("verdicts:")
    for kind in EquilibriumKind:
        per_scope = report.verdicts.get(kind)
        if not per_scope:
            continue
        parts = []
        for scope in Scope:
            sc = per_scope.get(scope)
            if sc is not None:
                parts.append(f"{scope.value}: {sc.verdict.value} [{sc.basis.value}]")
        lines.append(f"  {kind.value}: " + "; ".join(parts))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_equilibria(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    entries = find_equilibria(params, include_off_quadrant=args.include_off_quadrant)
    if args.json:
        _emit_json(args, [e.to_json_dict() for e in entries])
        return 0
    lines = [f"parameters: {params}"]
    for e in entries:
        if isinstance(e, Equilibrium):
            lam1 = _fmt_exact(e.eigenvalues.lambda1)
            lam2 = _fmt_exact(e.eigenvalues.lambda2)
            extra = f" (coincides with {e.coincides_with.value})" if e.coincides_with else ""
            lines.append(f"  {e.kind.value}: ({e.x1}, {e.x2}); "
                         f"eigenvalues {lam1}, {lam2}{extra}")
        else:
            lines.append(f"  line of equilibria: alpha in [{e.alpha_min}, {e.alpha_max}], "
                         f"member(alpha) = ((b1 - a12*alpha)/a11, alpha)")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_nullclines(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    ncs = nullclines(params)
    if args.json:
        _emit_json(args, ncs.to_json_dict())
        return 0
    lines = [f"parameters: {params}"]
    for curve in ncs.curves:
        lines.append(f"  {curve.branch.value}:")
        for seg in curve.segments:
            hi = "inf" if seg.hi is None else str(seg.hi)
            lines.append(f"    {seg.lo} .. {hi}: {seg.direction.value}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    start = _parse_values(args.start, 2, "--start")
    if not 0 < args.horizon < math.inf:
        raise ParameterError(f"--horizon must be positive and finite, got {args.horizon}")
    traj = integrate(params, (float(start[0]), float(start[1])), args.horizon,
                     IntegratorOptions())
    _emit(args, traj.to_csv())
    print(f"status: {traj.terminal_status.value} at t = {traj.final_time:.6g} "
          f"({len(traj.samples)} samples)", file=sys.stderr)
    return 0


def _cmd_portrait(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    scope, _ = _SCOPE_BY_NAME[args.scope]
    svg = render_portrait(params, PortraitSpec(scope=scope))
    out = args.out or "portrait.svg"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {out}")
    return 0


def _verification_targets(params: SystemParams) -> List[Equilibrium]:
    targets: List[Equilibrium] = []
    for entry in find_equilibria(params):
        if isinstance(entry, Equilibrium):
            targets.append(entry)
        else:
            mid = (entry.alpha_min + entry.alpha_max) / 2
            targets.extend([entry.member(entry.alpha_min), entry.member(mid),
                            entry.member(entry.alpha_max)])
    return targets


def _verify_one(params: SystemParams, label: str, scope_name: str, seed: int,
                probe_count: int, emit, record) -> bool:
    analytic_scope, probe_scope = _SCOPE_BY_NAME[scope_name]
    ok = True
    cross = cross_check_theorems(params)
    report = cross.report
    emit(f"== {label}: {params} (serial {report.sign_case.table6_serial}, "
         f"scope {scope_name})")
    if cross.ok:
        emit("PASS criteria check: closed-form stability criteria agree with eigenvalues")
    else:
        ok = False
        emit(f"FAIL criteria check: {cross.disagreements}")

    d = report.determinants
    if d.d12 != 0 and (d.d122 == 0 or d.d112 == 0):
        which = LyapunovTarget.FOR_AXIS2 if d.d122 == 0 else LyapunovTarget.FOR_AXIS1
        check = lyapunov_verify(params, which, sample_count=300, seed=seed)
        if check.passed():
            emit(f"PASS lyapunov[{which.value}]: max relative gap "
                 f"{check.max_rel_gap:.3e}, signs consistent")
        else:
            ok = False
            emit(f"FAIL lyapunov[{which.value}]: max relative gap "
                 f"{check.max_rel_gap:.3e}, signs "
                 f"{'ok' if check.all_signs_match else 'WRONG'}")

    protocol = ProbeProtocol(scope=probe_scope, probe_count=probe_count)
    for eq in _verification_targets(params):
        verdict = report.verdict_at(eq.kind, analytic_scope)
        if verdict is None:
            continue
        emp = empirical_stability(params, eq, protocol)
        agreed = empirical_matches(verdict, emp)
        tag = "PASS" if agreed else "FAIL"
        if not agreed:
            ok = False
        note = f" ({emp.note})" if emp.note else ""
        emit(f"{tag} empirical[{eq.kind.value} @ ({eq.x1}, {eq.x2})]: "
             f"analytic = {verdict.verdict.value}, probes = {emp.verdict.value}{note}")
        record({"system": label, "analytic": verdict.verdict.value, "agreed": agreed,
                **emp.to_json_dict()})
    return ok


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.probes < 1:
        raise ParameterError(f"--probes must be at least 1, got {args.probes}")
    if args.gallery is None:
        jobs = [("params", _params_from_args(args))]
    elif args.gallery == "all":
        jobs = [(label, entry.params) for label, entry in PORTRAIT_GALLERY.items()]
    else:
        jobs = [(args.gallery, gallery_entry(args.gallery).params)]

    lines: List[str] = []
    empirical: List[dict] = []
    all_ok = True
    for label, params in jobs:
        all_ok &= _verify_one(params, label, args.scope, args.seed,
                              args.probes, lines.append, empirical.append)
    lines.append("verification " + ("PASSED" if all_ok else "FAILED"))
    if args.json:
        _emit_json(args, {"passed": all_ok, "log": lines, "empirical": empirical})
    else:
        _emit(args, "\n".join(lines) + "\n")
    return 0 if all_ok else 3


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.steps < 0:
        raise ParameterError(f"--steps must not be negative, got {args.steps}")
    start = _params_from_args(args)
    end = _system(args.end_b, args.end_a, "--end-b", "--end-a")
    path = ParameterPath(start=start, end=end)
    scan = scan_path(path)
    samples = [Fraction(k, args.steps) for k in range(args.steps + 1)] if args.steps else []
    profile = [(s, sign_case(compute_determinants(path.at(s))).table6_serial) for s in samples]
    if args.json:
        doc = scan.to_json_dict()
        if profile:
            doc["serial_profile"] = [{"s": str(s), "serial": serial} for s, serial in profile]
        _emit_json(args, doc)
        return 0
    lines = [f"path: {start}  ->  {end}"]
    if scan.identically_zero:
        names = ", ".join(sorted(w.value for w in scan.identically_zero))
        lines.append(f"identically zero along the path: {names}")
    if not scan.events:
        lines.append("no determinant sign events in (0, 1)")
    for ev in scan.events:
        s_text = (str(ev.root.exact) if ev.root.exact is not None
                  else f"~{ev.root.approx:.12f}")
        lines.append(f"  s* = {s_text}: {ev.kind.value} "
                     f"[{', '.join(w.value for w in ev.vanishing)}], "
                     f"serial {ev.serial_before} -> {ev.serial_after}")
        if ev.collision_point is not None:
            lines.append(f"    collision at ({ev.collision_point[0]}, "
                         f"{ev.collision_point[1]})")
        if ev.swap is not None:
            lines.append(f"    classes (axis, interior): "
                         f"({ev.swap.axis_before}, {ev.swap.interior_before}) -> "
                         f"({ev.swap.axis_after}, {ev.swap.interior_after}); "
                         f"swapped: {ev.swap.swapped}")
    if profile:
        lines.append("serial profile:")
        lines.extend(f"  s = {s}: serial {serial}" for s, serial in profile)
    _emit(args, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly


def _add_system_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--b", help="intrinsic growth rates, e.g. --b 3,4")
    sub.add_argument("--a", help="competition matrix row-major, e.g. --a 1,1,1,2")
    sub.add_argument("--input", help="JSON file with keys 'b' and 'a'")
    sub.add_argument("--out", help="write output to this file instead of stdout")


def _add_json_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def _add_scope_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scope", choices=("quadrant", "plane"), default="quadrant",
                     help="analysis scope for verdicts and probes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lvcompete",
        description="Exact stability and bifurcation analysis for planar "
                    "competitive Lotka-Volterra systems.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("classify", help="sign case, serial and stability verdicts")
    _add_system_options(p)
    _add_json_option(p)
    p.add_argument("--table6", action="store_true",
                   help="also print the five-slot stability pattern")
    p.set_defaults(handler=_cmd_classify)

    p = subs.add_parser("equilibria", help="exact equilibria and eigenvalues")
    _add_system_options(p)
    _add_json_option(p)
    p.add_argument("--include-off-quadrant", action="store_true",
                   help="include an interior point with negative coordinates")
    p.set_defaults(handler=_cmd_equilibria)

    p = subs.add_parser("nullclines", help="nullcline segments and flow directions")
    _add_system_options(p)
    _add_json_option(p)
    p.set_defaults(handler=_cmd_nullclines)

    p = subs.add_parser("simulate", help="integrate one trajectory, emit CSV")
    _add_system_options(p)
    p.add_argument("--start", required=True, help="initial point, e.g. --start 1,1")
    p.add_argument("--horizon", type=float, default=100.0)
    p.set_defaults(handler=_cmd_simulate)

    p = subs.add_parser("portrait", help="render an SVG phase portrait")
    _add_system_options(p)
    _add_scope_option(p)
    p.set_defaults(handler=_cmd_portrait)

    p = subs.add_parser("verify", help="cross-check analysis against simulation")
    _add_system_options(p)
    _add_json_option(p)
    _add_scope_option(p)
    p.add_argument("--seed", type=int, default=0, help="seed offset for sampled checks")
    p.add_argument("--gallery", nargs="?", const="all",
                   help="verify a gallery case by label, or all of them")
    p.add_argument("--probes", type=int, default=8,
                   help="ring probes per equilibrium")
    p.set_defaults(handler=_cmd_verify)

    p = subs.add_parser("sweep", help="scan a straight parameter path for exchanges")
    _add_system_options(p)
    _add_json_option(p)
    p.add_argument("--end-b", required=True, help="growth rates at s = 1")
    p.add_argument("--end-a", required=True, help="competition matrix at s = 1")
    p.add_argument("--steps", type=int, default=0,
                   help="also print the sign-case serial at this many+1 sample points")
    p.set_defaults(handler=_cmd_sweep)

    return parser


#: Flags that take a comma list.  argparse reads a value such as
#: "-0.5,1" as an option, so ``main`` joins it to its flag ("--start=-0.5,1").
_LIST_FLAGS = frozenset({"--b", "--a", "--start", "--end-b", "--end-a"})


def main(argv: Optional[Sequence[str]] = None) -> int:
    joined: List[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        if joined and joined[-1] in _LIST_FLAGS and token[:1] == "-" and token[:2] != "--":
            joined[-1] += "=" + token
        else:
            joined.append(token)
    args = build_parser().parse_args(joined)
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError:
        # Exact parameters can exceed what the numerical layer's floats hold.
        print("error: parameter values are outside the floating-point range",
              file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))
