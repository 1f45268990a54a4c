"""End-to-end checks of the command-line surface via main(argv)."""

import json

import pytest

from lvcompete.cli import main


CASE1 = ["--b", "3,4", "--a", "1,1,1,2"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_human_output(capsys):
    code, out, _ = run(capsys, "classify", *CASE1)
    assert code == 0
    assert "d12 = 1 (+)" in out
    assert "d112 = 1 (+)" in out
    assert "d122 = -2 (-)" in out
    assert "serial 1" in out
    assert "interior: " in out


def test_classify_pattern_flag(capsys):
    code, out, _ = run(capsys, "classify", "--table6", *CASE1)
    assert code == 0
    assert "pattern (full neighborhood): (U, U, U, AS, /)" in out
    assert "pattern (closed quadrant):   (U, U, U, AS, /)" in out


def test_classify_json_is_machine_readable(capsys):
    code, out, _ = run(capsys, "classify", "--json", *CASE1)
    assert code == 0
    doc = json.loads(out)
    assert doc["sign_case"]["table6_serial"] == 1
    assert doc["determinants"]["d12"] == "1"
    verdicts = doc["verdicts"]["interior"]
    assert verdicts["first_quadrant_closed"]["verdict"] == "stable node"
    assert doc["pattern_quadrant"] == ["U", "U", "U", "AS", "/"]
    interior = next(e for e in doc["equilibria"] if e["kind"] == "interior")
    assert interior["x1"] == "2"
    assert interior["eigenvalues"]["lambda1"]["q"] == "8"


def test_rejects_nonpositive_parameters(capsys):
    code, out, err = run(capsys, "classify", "--b", "0,4", "--a", "1,1,1,2")
    assert code == 2
    assert out == ""
    assert "b1 must be positive" in err


def test_requires_a_parameter_source(capsys):
    code, _, err = run(capsys, "classify")
    assert code == 2
    assert "provide both --b and --a, or --input FILE" in err


def test_reads_parameters_from_json_file(tmp_path, capsys):
    doc = {"b": ["3", "4"], "a": [["1", "1"], ["1", "2"]]}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "classify", "--input", str(path))
    assert code == 0
    assert "serial 1" in out


def test_missing_input_file(capsys):
    code, _, err = run(capsys, "classify", "--input", "/nonexistent/params.json")
    assert code == 2
    assert "error:" in err


def test_equilibria_json_keeps_exact_values(capsys):
    code, out, _ = run(capsys, "equilibria", "--json", "--b", "2,4", "--a", "1,1,1,2")
    assert code == 0
    entries = json.loads(out)
    axis2 = next(e for e in entries if e["kind"] == "axis2")
    assert (axis2["x1"], axis2["x2"]) == ("0", "2")
    assert axis2["coincides_with"] == "interior"
    assert axis2["eigenvalues"] == {"lambda1": "0", "lambda2": "-4"}


def test_equilibria_human_output_formats_surds(capsys):
    code, out, _ = run(capsys, "equilibria", *CASE1)
    assert code == 0
    assert "interior: (2, 1)" in out
    assert "(-4 + sqrt(8))/2" in out


def test_off_quadrant_flag_reveals_hidden_interior(capsys):
    args = ["--b", "2,6", "--a", "1,1,1,2"]
    code, out, _ = run(capsys, "equilibria", "--json", *args)
    assert json.loads(out) is not None
    assert all(e["kind"] != "interior" for e in json.loads(out))
    code, out, _ = run(capsys, "equilibria", "--json", "--include-off-quadrant", *args)
    assert code == 0
    interior = next(e for e in json.loads(out) if e["kind"] == "interior")
    assert (interior["x1"], interior["x2"]) == ("-2", "4")


def test_nullclines_json_exact_breakpoints(capsys):
    code, out, _ = run(capsys, "nullclines", "--json", "--b", "1,2", "--a", "1,2,2,4")
    assert code == 0
    doc = json.loads(out)
    vertical = next(c for c in doc["curves"] if c["branch"] == "x1 = 0")
    assert vertical["breakpoints"] == ["0", "1/2"]
    oblique = next(c for c in doc["curves"] if c["branch"].startswith("x2 = (b1"))
    assert all(seg["direction"] == "stationary" for seg in oblique["segments"])


def test_simulate_stationary_start_emits_one_row(capsys):
    code, out, err = run(capsys, "simulate", *CASE1, "--start", "2,1")
    assert code == 0
    assert out == "t,x1,x2\n0,2,1\n"
    assert "converged" in err


def test_simulate_trajectory_runs_to_the_sink(capsys):
    code, out, err = run(capsys, "simulate", *CASE1, "--start", "1,1",
                         "--horizon", "100")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,x1,x2"
    final = [float(v) for v in lines[-1].split(",")]
    assert abs(final[1] - 2.0) < 1e-6 and abs(final[2] - 1.0) < 1e-6
    assert "status: converged" in err


def test_simulate_validates_horizon(capsys):
    code, _, err = run(capsys, "simulate", *CASE1, "--start", "1,1",
                       "--horizon", "-5")
    assert code == 2
    assert "--horizon must be positive" in err


def test_portrait_rendering_is_deterministic(tmp_path, capsys):
    first = tmp_path / "one.svg"
    second = tmp_path / "two.svg"
    assert run(capsys, "portrait", *CASE1, "--out", str(first))[0] == 0
    assert run(capsys, "portrait", *CASE1, "--out", str(second))[0] == 0
    a, b = first.read_bytes(), second.read_bytes()
    assert a == b
    assert b"<svg" in a and b"</svg>" in a


def test_verify_gallery_case_passes(capsys):
    code, out, _ = run(capsys, "verify", "--gallery", "case1")
    assert code == 0
    assert "verification PASSED" in out
    assert "FAIL" not in out
    assert "PASS criteria check" in out


def test_verify_json_records_every_probe_with_its_step_counts(capsys):
    """The end points of this system's line of equilibria have eigenvalues
    (0, -12); probes that settle at such a stiff sink used to run for
    minutes to hours at RKF45's stability limit."""
    for scope in ("quadrant", "plane"):
        code, out, _ = run(capsys, "verify", "--b", "3,12", "--a", "2,2,8,8",
                           "--scope", scope, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] and doc["log"][-1] == "verification PASSED"
        assert len(doc["empirical"]) == 4  # origin, both line ends, midpoint
        for record in doc["empirical"]:
            assert record["system"] == "params" and record["agreed"]
            assert record["probes"]
            for probe in record["probes"]:
                assert probe["n_accepted"] > 0 and probe["n_rejected"] >= 0


def test_verify_json_gives_each_probe_its_certified_limit(capsys):
    """Every probe record has a ``limit`` key; each escaped probe of case1's
    origin and of its two axis saddles was stopped at the interior sink
    (2, 1), in exact strings, and each converging probe has null."""
    code, out, _ = run(capsys, "verify", "--gallery", "case1", "--json")
    assert code == 0
    records = json.loads(out)["empirical"]
    kinds = {record["target"]["kind"]: record["probes"] for record in records}
    assert set(kinds) == {"origin", "axis1", "axis2", "interior"}
    for kind, probes in kinds.items():
        assert probes and all("limit" in probe for probe in probes)
        for probe in probes:
            expected = None if kind == "interior" else ["2", "1"]
            assert probe["outcome"] == ("converged to target" if expected is None else "escaped")
            assert probe["limit"] == expected, (kind, probe["label"])


def test_verify_says_why_a_probe_is_inconclusive(capsys):
    """At b1 = 1e-300 the origin and the axis-1 point are too close to
    probe; the FAIL lines must give that reason, not only the verdict."""
    code, out, _ = run(capsys, "verify", "--b", "1e-300,1", "--a", "1,1,1,1")
    assert code == 3
    assert "probes = inconclusive (" in out
    assert "equilibria too close" in out


@pytest.mark.parametrize("probes", ["1", "2"])
@pytest.mark.parametrize("scope", ["quadrant", "plane"])
def test_verify_passes_with_small_rings(capsys, probes, scope):
    """Rings of one or two probes keep every start off the axis lines
    through the target, where a start could slide into a saddle along its
    stable axis and give a false FAIL."""
    code, out, _ = run(capsys, "verify", "--gallery", "all", "--probes", probes,
                       "--scope", scope)
    assert code == 0
    assert "FAIL" not in out


def test_verify_unknown_gallery_label(capsys):
    code, _, err = run(capsys, "verify", "--gallery", "case42")
    assert code == 2
    assert "case42" in err


def test_sweep_reports_the_exchange(capsys):
    code, out, _ = run(capsys, "sweep", *CASE1,
                       "--end-b", "2,6", "--end-a", "1,1,1,2")
    assert code == 0
    assert "s* = 1/2: transcritical exchange [d122], serial 1 -> 3" in out
    assert "collision at (0, 5/2)\n" in out
    assert "swapped: True" in out


def test_sweep_json_round_trips(capsys):
    code, out, _ = run(capsys, "sweep", *CASE1, "--json",
                       "--end-b", "2,6", "--end-a", "1,1,1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["events"][0]["root"]["exact"] == "1/2"
    assert doc["events"][0]["kind"] == "transcritical exchange"


def test_sweep_serial_profile(capsys):
    code, out, _ = run(capsys, "sweep", *CASE1, "--steps", "4",
                       "--end-b", "2,6", "--end-a", "1,1,1,2")
    assert code == 0
    assert "s = 0: serial 1" in out
    assert "s = 1/2: serial 2" in out
    assert "s = 1: serial 3" in out


def test_sweep_json_carries_the_serial_profile(capsys):
    argv = ["sweep", "--b", "2,1", "--a", "1,1,1,1", "--end-b", "1,2", "--end-a", "1,1,1,1"]
    code, out, _ = run(capsys, *argv, "--steps", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["serial_profile"] == [{"s": s, "serial": serial} for s, serial in (
        ("0", 5), ("1/4", 5), ("1/2", 9), ("3/4", 3), ("1", 3))]
    del doc["serial_profile"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out) == doc  # without --steps, the same document and no profile


def test_output_redirects_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "classify", "--json", "--out", str(target), *CASE1)
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["sign_case"]["table6_serial"] == 1


def test_malformed_values_are_parameter_errors(capsys, tmp_path):
    code, _, err = run(capsys, "classify", "--b", "3", "--a", "1,1,1,2")
    assert code == 2
    assert "--b expects 2 comma-separated values" in err
    code, _, err = run(capsys, "classify", "--b", "3,x", "--a", "1,1,1,2")
    assert code == 2
    assert "could not parse" in err
    # Exact parameters too large for a float reach the numerical layer.
    huge = ["--b", "1e400,1", "--a", "1,1,1,1"]
    for argv in (["simulate", "--start", "1,1", *huge],
                 ["verify", *huge],
                 ["portrait", "--out", str(tmp_path / "huge.svg"), *huge]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err == "error: parameter values are outside the floating-point range\n", argv
    # A viewing window that rounds to zero or to infinity as a float.
    for b, a in (("1e-400,1e-400", "1,1,1,1"), ("1,1", "1,1e400,1,1e400"),
                 ("1.7e308,1", "1,1,1,1")):
        code, out, err = run(capsys, "portrait", "--out", str(tmp_path / "edge.svg"),
                             "--b", b, "--a", a)
        assert code == 2, b
        assert out == "" and err.startswith("error: the portrait's viewing window"), b
        assert err.count("\n") == 1, b
    # Numbers argparse accepts but the command cannot use, and unreadable
    # or ill-shaped input files.
    not_a_system = tmp_path / "not_a_system.json"
    not_a_system.write_text(json.dumps({"b": [1, 2], "a": 5}))
    strings = tmp_path / "strings.json"
    strings.write_text(json.dumps({"b": "34", "a": ["12", "12"]}))
    for argv, message in (
            (["simulate", *CASE1, "--start", "1,1", "--horizon", "inf"], "--horizon must be"),
            (["simulate", *CASE1, "--start", "1,1", "--horizon", "nan"], "--horizon must be"),
            (["verify", *CASE1, "--probes", "0"], "--probes must be at least 1"),
            (["sweep", *CASE1, "--end-b", "2,6", "--end-a", "1,1,1,2", "--steps", "-1"],
             "--steps must not be negative"),
            (["classify", "--input", str(not_a_system)], '"a" must be 2x2'),
            (["classify", "--input", str(strings)], '"a" must be 2x2'),
            (["classify", "--input", str(tmp_path)], "error: ")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and message in err, argv


def test_comma_lists_may_start_with_a_minus(capsys):
    spaced = run(capsys, "simulate", *CASE1, "--horizon", "1", "--start", "-0.001,2.0006")
    joined = run(capsys, "simulate", *CASE1, "--horizon", "1", "--start=-0.001,2.0006")
    assert spaced[0] == 0
    assert spaced == joined
    code, _, err = run(capsys, "classify", "--b", "-1,2", "--a", "1,1,1,2")
    assert code == 2
    assert "b1 must be positive" in err


JSON, SCOPE, SEED = ("--json",), ("--scope", "plane"), ("--seed", "1")
RETIRED_FLAGS = [
    *[(command, flag) for command in ("classify", "equilibria", "nullclines", "sweep")
      for flag in (SCOPE, SEED)],
    ("simulate", JSON), ("simulate", SCOPE), ("simulate", SEED),
    ("portrait", JSON), ("portrait", SEED),
]
REQUIRED = {"simulate": ["--start", "1,1"], "sweep": ["--end-b", "2,6", "--end-a", "1,1,1,2"]}


@pytest.mark.parametrize("command,flag", RETIRED_FLAGS,
                         ids=[f"{c} {f[0]}" for c, f in RETIRED_FLAGS])
def test_flags_a_command_never_reads_are_usage_errors(capsys, monkeypatch, tmp_path,
                                                     command, flag):
    monkeypatch.chdir(tmp_path)  # where a portrait that ran would land
    with pytest.raises(SystemExit) as exc:
        main([command, *CASE1, *REQUIRED.get(command, []), *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
