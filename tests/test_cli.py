"""End-to-end checks of the command-line surface via main(argv)."""

import json

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


def test_verify_unknown_gallery_label(capsys):
    code, _, err = run(capsys, "verify", "--gallery", "case42")
    assert code == 2
    assert "case42" in err


def test_sweep_reports_the_exchange(capsys):
    code, out, _ = run(capsys, "sweep", *CASE1,
                       "--end-b", "2,6", "--end-a", "1,1,1,2")
    assert code == 0
    assert "s* = 1/2: transcritical exchange [d122], serial 1 -> 3" in out
    assert "collision at (0, 5/2); trace condition held: True" in out
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
