import contextlib
import io
import json
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from siegeljacobi import checks, cli, groups, linalg, reduction, spaces
from siegeljacobi.checks import CheckRow
from siegeljacobi.errors import ConvergenceError, DomainError


def run_process(args):
    """(exit code, stdout, stderr) of ``python -m siegeljacobi.cli``: the real
    entry point, where numpy's warnings print to stderr."""
    proc = subprocess.run([sys.executable, "-m", "siegeljacobi.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli(args):
    """(exit code, stdout, stderr) of ``cli.main(args)`` run in-process; each
    warning raised on the way counts as one more stderr line, as it would
    print in a process of its own."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(args)
        except SystemExit as exc:       # argparse's usage errors
            code = exc.code
    lines = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), err.getvalue() + lines


def test_scalar_complex_parsing():
    assert cli.parse_scalar_complex("i") == 1j
    assert cli.parse_scalar_complex("2i") == 2j
    assert cli.parse_scalar_complex("-i") == -1j
    assert cli.parse_scalar_complex("1.5,2.0") == 1.5 + 2.0j
    assert cli.parse_scalar_complex("3.25") == 3.25
    assert cli.parse_scalar_complex("+i") == 1j
    assert cli.parse_scalar_complex("0.3+1.2i") == 0.3 + 1.2j
    assert cli.parse_scalar_complex("1-i") == 1 - 1j
    assert cli.parse_scalar_complex("1e15i") == 1e15j
    for text in ("1 + 2i", "abc", "1,2,3", "[[1]]", ""):
        with pytest.raises(DomainError, match=r"^.* is not a scalar: write a real number, "
                                              r"'a,b', 'bi' or 'a\+bi'$"):
            cli.parse_scalar_complex(text)


@pytest.mark.parametrize("text", ["1,2,3", "[[1]]"])
def test_a_malformed_scalar_is_refused_by_name(text):
    code, out, err = run_cli(["theta", "--M", text, "--tau", "0,1", "--phi", "0.3"])
    assert (code, out) == (2, "")
    assert err == f"input error: {text!r} is not a scalar: write a real number, " \
        "'a,b', 'bi' or 'a+bi'\n"


def test_distance_command():
    code, out, _ = run_process(["distance", "--p0", '{"omega": "i"}', "--p1", '{"omega": "2i"}'])
    assert code == 0
    assert abs(json.loads(out)["distance"] - np.log(2.0)) < 1e-12


def test_distance_far_points(capsys):
    # the cross-ratio eigenvalue rounds to 1 here, yet the distance is finite
    assert cli.main(["distance", "--p0", "i", "--p1", "1e15i"]) == 0
    rho = json.loads(capsys.readouterr().out)["distance"]
    assert abs(rho - np.log(1e15)) <= 1e-13 * np.log(1e15)


def test_distance_emit_eigs(capsys):
    code, out, _ = run_cli(["distance", "--p0", "i", "--p1", "2i", "--emit-eigs"])
    assert code == 0
    assert out.splitlines()[0] == "eigenvalue"
    # the far spectrum rounds to 1 and is printed, as plain numbers
    assert cli.main(["distance", "--p0", "i", "--p1", "1e15i", "--emit-eigs"]) == 0
    far = capsys.readouterr().out
    for text in (out, far):
        lines = text.splitlines()
        assert lines[0] == "eigenvalue" and len(lines) == 3
        assert 0.0 < float(lines[1]) <= 1.0
        assert json.loads(lines[2])["distance"] > 0.0


def _far_pair_args():
    """--p0 iI and --p1 i R diag(e^25, e^-25) t(R), R the rotation by 0.3 rad:
    a pair whose disk image has a singular value that rounds above 1."""
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    far = 1j * rot @ np.diag([np.exp(25.0), np.exp(-25.0)]) @ rot.T
    return ["--p0", json.dumps({"omega": linalg.matrix_to_json(1j * np.eye(2))}),
            "--p1", json.dumps({"omega": linalg.matrix_to_json(far)})]


def test_distance_writes_nothing_when_a_value_fails():
    for extra in ([], ["--emit-eigs"]):
        code, out, err = run_cli(["distance", *_far_pair_args(), *extra])
        assert code == 1 and out == ""
        assert err.splitlines() == [err.strip()] and err.startswith("numeric error:")


def test_theta_command_value():
    code, out, _ = run_cli(["theta", "--M", "1", "--tau", "0,1", "--phi", "0",
                            "--lam", "[[0.0]]", "--mu", "[[0.0]]", "--kappa", "[[0.0]]"])
    assert code == 0
    direct = sum(np.exp(-np.pi * w * w) for w in range(-8, 9))
    assert abs(json.loads(out)["re"] - direct) < 1e-10
    # --M as matrix JSON is the scalar form
    flags = ["--tau", "0.2,1.1", "--phi", "0.4"]
    scalar = run_cli(["theta", "--M", "1", *flags])
    matrix = run_cli(["theta", "--M", '{"rows": 1, "cols": 1, "data": [[1, 0]]}', *flags])
    assert scalar[0] == 0 and matrix == scalar


def test_reduce_command_identity_certificate(tmp_path):
    cert = tmp_path / "cert.json"
    code, out, _ = run_cli(["reduce", "--space", "hn",
                            "--point", '{"omega": "0.2,1.5"}', "--cert", str(cert)])
    assert code == 0
    payload = json.loads(cert.read_text())
    assert payload["iterations"] >= 1
    gamma = payload["gamma"]["mat"]["data"]
    assert [entry[0] for entry in gamma] == [1.0, 0.0, 0.0, 1.0]


def test_reduce_jacobi_point_into_the_toroidal_cell(tmp_path):
    cert_path = tmp_path / "cert.json"
    point = '{"omega": "0.3,1.2", "z": "2.7,1.9"}'
    code, out, _ = run_cli(["reduce", "--space", "hnm", "--point", point,
                            "--cert", str(cert_path)])
    assert code == 0
    reduced = spaces.point_from_json(json.loads(out))
    lam, mu = reduction.toroidal_coefficients(reduced)
    assert np.all((0.0 <= lam) & (lam < 1.0)) and np.all((0.0 <= mu) & (mu < 1.0))
    cert = json.loads(cert_path.read_text())
    assert cert["checks"] and all(cert["checks"].values())
    gamma = groups.element_from_json(cert["gamma"])
    replay = groups.act_jacobi(gamma, cli.parse_point_arg(point, "hnm"))
    for a, b in zip(replay.parts(), reduced.parts()):
        assert np.max(np.abs(a - b)) <= 1e-9


def test_cayley_command_round_trip():
    code, out, _ = run_cli(["cayley", "--dir", "inv", "--point", '{"omega": "i"}'])
    assert code == 0
    w = json.loads(out)["w"]["data"][0]
    assert abs(w[0]) < 1e-14 and abs(w[1]) < 1e-14
    # a Jacobi point goes to (w, eta) and back
    point = '{"omega": "0.3,1.2", "z": "0.5,0.4"}'
    code, out, _ = run_cli(["cayley", "--dir", "inv", "--point", point])
    assert code == 0 and sorted(json.loads(out)) == ["eta", "w"]
    code, back, _ = run_cli(["cayley", "--dir", "fwd", "--point", out])
    assert code == 0
    back = spaces.point_from_json(json.loads(back))
    for a, b in zip(back.parts(), cli.parse_point_arg(point, "hnm").parts()):
        assert np.max(np.abs(a - b)) <= 1e-12


def test_cayley_bare_point_is_the_source_part():
    for direction, key, text in (("fwd", "w", "0.3"), ("inv", "omega", "0.3i")):
        short = run_cli(["cayley", "--dir", direction, "--point", text])
        full = run_cli(["cayley", "--dir", direction, "--point", json.dumps({key: text})])
        assert short == full and short[0] == 0
    omega = json.loads(run_cli(["cayley", "--dir", "fwd", "--point", "0.3"])[1])["omega"]
    assert omega["data"][0][0] == 0.0 and abs(omega["data"][0][1] - 13 / 7) <= 1e-15
    # a JSON point keeps its own model, and a point of the target model is refused
    code, out, err = run_cli(["cayley", "--dir", "fwd", "--point", '{"omega": "i"}'])
    assert code == 2 and out == ""
    assert err == "input error: no half-space model for SiegelPoint\n"


@pytest.mark.parametrize("direction, point, reason", [
    # 1 - |w| is below the float spacing at 1, so w reads exactly 1
    ("inv", "1e17i", "I - conj(W) W is not positive definite"),
    ("inv", '{"omega": "1e17i", "z": "0"}', "I - conj(W) W is not positive definite"),
    # 1 - |w|^2 is just above 1e-10, but Im(omega) = (1 + w) / (1 - w) is 2.5e-11
    ("fwd", "-0.99999999995", "Im(omega) is not positive definite")])
def test_cayley_refuses_an_image_that_is_not_a_valid_point(direction, point, reason):
    code, out, err = run_cli(["cayley", "--dir", direction, f"--point={point}"])
    assert (code, out) == (1, "")
    assert err == f"numeric error: the image is not a valid point: {reason}\n"


def test_cayley_image_near_the_boundary_is_printed():
    code, out, err = run_cli(["cayley", "--dir", "inv", "--point", "1e9i"])
    assert (code, err) == (0, "")
    w = json.loads(out)["w"]["data"]
    assert w[0][1] == 0.0 and abs(w[0][0] - (1e9 - 1) / (1e9 + 1)) < 1e-15


def test_overflowing_disk_point_is_not_positive_definite():
    # finite W, but I - conj(W) W overflows
    code, out, err = run_cli(["cayley", "--dir", "fwd", "--point", "1e200"])
    assert (code, out) == (2, "")
    assert err == "input error: I - conj(W) W is not positive definite\n"


def test_metric_command():
    code, out, _ = run_cli(["metric", "--space", "hn", "--A", "1", "--point", "i",
                            "--t1", "1", "--t2", "1"])
    assert code == 0
    assert abs(json.loads(out)["re"] - 1.0) < 1e-12
    code2, out2, _ = run_cli(["metric", "--space", "hnm", "--point",
                              '{"omega": "i", "z": "0,0"}',
                              "--t1", '{"domega": "1", "dz": "0,0"}',
                              "--t2", '{"domega": "1", "dz": "0,0"}'])
    assert code2 == 0
    assert abs(json.loads(out2)["re"] - 1.0) < 1e-12
    # t = (1, 1) at the base point, moved far out in the fibre by a Heisenberg
    # translation: the squared lengths stay exactly 2 and 8
    for space, point, dz, expected in (
            ("hnm", '{"omega": "i", "z": "1e12i"}', "1000000000001", 2.0),
            ("dnm", '{"w": "0", "eta": "1e12,1e12"}', "1000000000001,-1000000000000", 8.0)):
        tangent = json.dumps({"domega": "1", "dz": dz})
        code, out, _ = run_cli(["metric", "--space", space, "--point", point,
                                "--t1", tangent, "--t2", tangent])
        assert code == 0 and json.loads(out) == {"re": expected, "im": 0.0}


def test_element_command():
    code, out, _ = run_cli(["element", "--word", "t(0.5);s", "--n", "1"])
    assert code == 0
    data = json.loads(out)["mat"]["data"]
    assert [e[0] for e in data] == [0.5, -1.0, 1.0, 0.0]
    # g(x) at degree n dilates by I + (x / n) ones
    code, out, _ = run_cli(["element", "--word", "g(0.5)", "--n", "2"])
    assert code == 0
    g = groups.element_from_json(json.loads(out))
    alpha = np.eye(2) + 0.25 * np.ones((2, 2))
    assert np.max(np.abs(g.mat - groups.dilation(alpha).mat)) <= 1e-15


def test_no_subcommand_is_usage_error():
    code, out, _ = run_cli([])
    assert code == 2 and out.startswith("usage:")


def test_laplacian_command():
    code, out, _ = run_cli(["laplacian", "--space", "hnm", "--field", "y^s", "--s", "1.7",
                            "--point", '{"omega": "0.3,1.2", "z": "0.1,0.4"}'])
    assert code == 0
    value = json.loads(out)
    expected = 1.7 * 0.7 * 1.2 ** 1.7
    assert abs(value["re"] - expected) < 1e-6


def test_check_suite_deterministic_and_exit_codes():
    code1, out1, _ = run_cli(["check", "--suite", "cayley", "--seed", "11"])
    code2, out2, _ = run_cli(["check", "--suite", "cayley", "--seed", "11"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "case,lhs,rhs,residual,tol,pass"
    code3, _, err = run_cli(["check", "--suite", "nope"])
    assert code3 == 2 and "unknown suite" in err


def test_check_failing_row_is_numeric_failure(monkeypatch):
    row = CheckRow("forced_00", 1.0, 0.0, 1.0, 0.5)
    monkeypatch.setitem(checks.SUITES, "cayley", lambda seed: [row])
    code, out, err = run_cli(["check", "--suite", "cayley"])
    assert code == 1
    assert out.splitlines() == ["case,lhs,rhs,residual,tol,pass", row.csv()]
    assert err == "FAIL forced_00: residual 1.000e+00 > tol 5.000e-01\n"


@pytest.mark.parametrize("seed", [94, 99])
def test_nonannihilation_is_relative_to_the_series_size(seed):
    # |M-operator| of the mixed series is 3.1e-7 and 5.3e-8 at these seeds,
    # correct values that an absolute 1e-6 threshold refused
    code, out, err = run_cli(["check", "--suite", "jacobiforms", "--seed", str(seed)])
    assert code == 0 and err == ""


def test_nonannihilation_catches_an_annihilating_operator(monkeypatch):
    m_operator = checks.jacobiforms.apply_m_operator
    monkeypatch.setattr(checks.jacobiforms, "apply_m_operator",
                        lambda s, p: 1e-8 * m_operator(s, p))
    code, out, err = run_cli(["check", "--suite", "jacobiforms", "--seed", "2026"])
    assert code == 1
    failed = [line for line in err.splitlines() if line.startswith("FAIL nonannihilation_")]
    assert len(failed) == 10


def test_check_has_no_tolerance_flag():
    # the check tolerances are fixed: no flag widens them
    code, out, err = run_cli(["check", "--suite", "distance", "--seed", "1",
                              "--tol-scale", "inf"])
    assert code == 2 and out == ""
    assert "--tol-scale" in err


def test_malformed_json_is_usage_error():
    code, _, err = run_cli(["distance", "--p0", "{bad json", "--p1", "i"])
    assert code == 2
    assert "input error" in err


def test_invalid_point_is_usage_error():
    code, _, _ = run_cli(["distance", "--p0", '{"omega": "0,-1"}', "--p1", "i"])
    assert code == 2


def test_non_finite_point_is_usage_error():
    for args, part in (
            (["reduce", "--space", "hn", "--point", '{"omega": "0.7,nan"}'], "omega"),
            (["distance", "--p0", "nan", "--p1", "i"], "omega"),
            (["reduce", "--space", "hnm", "--point", '{"omega": "i", "z": "nan"}'], "z"),
            (["metric", "--space", "hnm", "--point", '{"omega": "i", "z": "nan"}',
              "--t1", "1", "--t2", "1"], "z"),
            (["cayley", "--dir", "inv", "--point", '{"omega": "i", "z": "inf"}'], "z"),
            (["cayley", "--dir", "fwd", "--point", '{"w": "0.1", "eta": "nan"}'], "eta")):
        code, out, err = run_cli(args)
        assert code == 2 and out == ""
        assert err.startswith("input error:") and "non-finite" in err
        assert len(err.strip().splitlines()) == 1
        assert err == f"input error: {part} has non-finite entries\n"


@pytest.mark.parametrize("args, named", [
    (["metric", "--space", "hn", "--point", "i", "--t1", "nan", "--t2", "1"], "domega"),
    (["metric", "--space", "hn", "--point", "i", "--t1", '{"domega": "1", "dz": "inf"}',
      "--t2", "1"], "dz"),
    (["metric", "--space", "hnm", "--point", '{"omega": "i", "z": "0"}',
      "--t1", '{"domega": "1", "dz": "inf"}', "--t2", "1"], "dz"),
    (["metric", "--space", "hn", "--A", "inf", "--point", "i", "--t1", "1", "--t2", "1"],
     "weight"),
    (["metric", "--space", "hnm", "--B", "nan", "--point", '{"omega": "i", "z": "0"}',
      "--t1", "1", "--t2", "1"], "weight"),
    (["metric", "--space", "dn", "--A", "inf", "--point", "0.1", "--t1", "1", "--t2", "1"],
     "weight"),
    (["laplacian", "--space", "hn", "--field", "y", "--A", "inf", "--point", "i"], "weight"),
    (["theta", "--M", "1", "--tau", "nan,1", "--phi", "0"], "tau"),
    (["theta", "--M", "1", "--tau", "0,nan", "--phi", "0"], "tau"),
    (["theta", "--M", "1", "--tau", "0,1", "--phi", "inf"], "phi"),
    (["theta", "--M", "1", "--tau", "0,1", "--phi", "0", "--lam", "[[NaN]]"], "lam"),
    (["theta", "--M", "1", "--tau", "0,1", "--phi", "0", "--mu", "[[Infinity]]"], "mu"),
    (["theta", "--M", "1", "--tau", "0,1", "--phi", "0", "--kappa", "[[-Infinity]]"], "kappa"),
    (["metric", "--space", "hnm", "--point", '{"omega": "i", "z": "0"}',
      "--t1", '{"dz": "1"}', "--t2", "1"], "domega"),
    (["metric", "--space", "hn", "--point", "i",
      "--t1", '{"rows": 2, "cols": 2, "data": [[1, 0], [0, 0], [0, 0], [1, 0]]}', "--t2", "1"],
     "domega"),
    (["element", "--word", "s", "--n", "0"], "degree"),
    (["element", "--word", "s", "--n", "-1"], "degree"),
    (["element", "--word", "t(1)", "--n", "100000"], "degree"),
    (["theta", "--M", "1", "--tau", "0,1", "--phi", "0", "--n-cut", "100000000"], "n_cut"),
    (["distance", "--p0", "i", "--p1",
      '{"omega": {"rows": 2, "cols": 2, "data": [[0, 1], [0, 0], [0, 0], [0, 1]]}}'],
     "degrees 1 and 2"),
    (["element", "--word", "t(nan)", "--n", "1"], "'t(nan)'"),
    (["element", "--word", "t(inf)", "--n", "1"], "'t(inf)'"),
    (["element", "--word", "g(nan)", "--n", "1"], "'g(nan)'"),
    (["element", "--word", "s;g(inf)", "--n", "1"], "'g(inf)'"),
    (["theta", "--M", "1", "--tau", "0,1", "--phi", "0.3", "--lam", '{"a": 1}'], "lam"),
    (["theta", "--M", "1", "--tau", "0,1", "--phi", "0.3", "--mu", "{}"], "mu"),
    (["theta", "--M", "1", "--tau", "0,1", "--phi", "0.3", "--kappa", "[[{}]]"], "kappa"),
    (["theta", "--M", "1,1", "--tau", "0,1", "--phi", "0.3"],
     "index matrix has nonzero imaginary entries"),
    *((["theta", "--M", m, "--tau", "0,1", "--phi", "0.3"], "index matrix has non-finite entries")
      for m in ("nan", "inf", "inf,0", '{"rows": 1, "cols": 1, "data": [[NaN, 0]]}')),
])
def test_non_finite_or_mismatched_number_is_usage_error(args, named):
    code, out, err = run_cli(args)
    assert code == 2 and out == ""
    assert err.startswith("input error:") and len(err.splitlines()) == 1
    assert named in err


@pytest.mark.parametrize("args", [
    ["metric", "--space", "dn", "--point", "i", "--t1", "1", "--t2", "1"],
    ["metric", "--space", "hnm", "--point", "i", "--t1", "1", "--t2", "1"],
    ["reduce", "--space", "hnm", "--point", "i"],
    ["laplacian", "--space", "hnm", "--field", "y", "--point", "i"],
    ["reduce", "--space", "hn", "--point", '{"omega": "i", "z": "0.3"}'],
    ["metric", "--space", "hn", "--point", '{"omega": "i", "z": "0.3"}',
     "--t1", "1", "--t2", "1"],
    ["laplacian", "--space", "hn", "--field", "y", "--point", '{"omega": "2i", "z": "1"}'],
    ["distance", "--p0", '{"omega": "i", "z": "1"}', "--p1", "i"],
    ["metric", "--space", "dnm", "--point", "0.3", "--t1", "1", "--t2", "1"],
])
def test_point_outside_space_is_usage_error(args):
    code, out, err = run_cli(args)
    assert code == 2 and out == ""
    assert err.startswith("input error:") and len(err.splitlines()) == 1


def test_bare_point_is_the_one_part_of_the_space():
    for space, key in (("hn", "omega"), ("dn", "w")):
        tangents = ["--t1", "1", "--t2", "1"]
        short = run_cli(["metric", "--space", space, "--point", "0.3,0.2", *tangents])
        full = run_cli(["metric", "--space", space, "--point", json.dumps({key: "0.3,0.2"}),
                        *tangents])
        assert short == full and short[0] == 0
    for space, missing in (("hnm", "z"), ("dnm", "eta")):
        code, _, err = run_cli(["metric", "--space", space, "--point", "i",
                                "--t1", "1", "--t2", "1"])
        assert code == 2 and err.startswith("input error:") and len(err.splitlines()) == 1
        assert err.rstrip().endswith(f"also needs {missing}")


def test_overflow_writes_one_stderr_line():
    code, out, err = run_process(["element", "--word", "t(1e308);t(1e308)", "--n", "2"])
    assert code == 1 and out == ""
    assert err == "numeric error: result has non-finite entries\n"


def test_numeric_error_is_one_line_at_process_level():
    code, out, err = run_process(["theta", "--M", "1", "--tau", "0,1e-4", "--phi", "0.3"])
    assert code == 1 and out == ""
    assert err.startswith("numeric error: ") and len(err.splitlines()) == 1


def test_non_finite_output_is_numeric_failure(capsys):
    with np.errstate(over="ignore", invalid="ignore"):    # t(1e308) t(1e308) overflows
        assert cli.main(["element", "--word", "t(1e308);t(1e308)", "--n", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numeric error: result has non-finite entries\n"


# Z so far out that an ulp of its cell coefficients is 0.5 (at 3e15) or 16 (at
# 1e17): the Heisenberg step cannot land in the cell
FAR_Z = ['{"omega": "0.3+1.1i", "z": "0.1+1e17i"}',
         '{"omega": "0.3+1.1i", "z": "3.3e15+1.1e15i"}']


@pytest.mark.parametrize("point", FAR_Z)
def test_failed_certificate_is_one_numeric_error(tmp_path, point):
    cert = tmp_path / "cert.json"
    code, out, err = run_cli(["reduce", "--space", "hnm", "--point", point, "--cert", str(cert)])
    assert (code, out) == (1, "")
    assert err == "numeric error: certificate checks failed: cell_coefficients\n"
    checks = json.loads(cert.read_text())["checks"]
    assert [k for k, ok in checks.items() if not ok] == ["cell_coefficients"]


def test_far_real_part_passes_its_certificate(tmp_path):
    """At Re Omega = 1e8 gamma's entries are near 1e8, and tgamma J gamma = J,
    which its float products round by more than GROUP_TOL, holds in integers."""
    cert = tmp_path / "cert.json"
    code, out, err = run_cli(["reduce", "--space", "hn", "--point",
                              '{"omega": "100000000.37+0.05i"}', "--cert", str(cert)])
    assert (code, err) == (0, "")
    assert all(json.loads(cert.read_text())["checks"].values())


def _refuse_constant(name):
    raise AssertionError(f"non-finite JSON constant {name}")


@st.composite
def _reduce_inputs(draw):
    """(space, point JSON): Omega of degree 1-3 with Im Omega's eigenvalues in
    [1e-3, 1e3] about a random frame, and on hnm Z with entries up to 1e18."""
    space = draw(st.sampled_from(["hn", "hnm"]))
    n = draw(st.integers(1, 3))
    eigs = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    x = rng.uniform(-5.0, 5.0, (n, n))
    y = q * eigs @ q.T
    omega = 0.5 * (x + x.T) + 0.5j * (y + y.T)
    obj = {"omega": linalg.matrix_to_json(omega)}
    if space == "hnm":
        m = draw(st.integers(1, 2))
        z = draw(hnp.arrays(float, (m, n, 2), elements=st.floats(-1e18, 1e18)))
        obj["z"] = linalg.matrix_to_json(z @ [1.0, 1j])
    return space, json.dumps(obj)


@settings(max_examples=60, deadline=None)
@given(_reduce_inputs())
@example(("hnm", FAR_Z[0]))
@example(("hnm", FAR_Z[1]))
def test_reduce_is_finite_or_refused(case):
    """Every reduce either exits 0 with finite JSON and a certificate whose
    checks all hold, or exits 1 or 2 with one stderr line and no stdout."""
    space, point = case
    with tempfile.TemporaryDirectory() as tmp:
        cert = pathlib.Path(tmp) / "cert.json"
        code, out, err = run_cli(["reduce", "--space", space, "--point", point,
                                  "--cert", str(cert)])
        if code == 0:
            assert err == "" and out.count("\n") == 1
            reduced = spaces.point_from_json(json.loads(out, parse_constant=_refuse_constant))
            assert all(np.isfinite(a).all() for a in reduced.parts())
            assert all(json.loads(cert.read_text())["checks"].values())
        else:
            assert code in (1, 2) and out == "", (code, out, err)
            assert err.count("\n") == 1 and err.endswith("\n"), err


def test_convergence_error_is_numeric_failure(monkeypatch, capsys):
    def capped(p):
        raise ConvergenceError("highest-point iteration hit the cap")

    monkeypatch.setattr(reduction, "siegel_reduce", capped)
    assert cli.main(["reduce", "--space", "hn", "--point", "i"]) == 1
    err = capsys.readouterr().err
    assert err == "numeric error: highest-point iteration hit the cap\n"


@pytest.mark.parametrize("argv", [
    ["check", "--suite", "theta", "--seed", "40"],
    ["theta", "--M", "1", "--tau", "0,1", "--phi", "1e-9"],
    ["theta", "--M", "1", "--tau", "0,1e-4", "--phi", "0.3"]])
def test_accuracy_error_is_numeric_failure(argv, capsys):
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numeric error: ") and len(err.splitlines()) == 1


def test_too_fine_a_grid_names_its_node_count_and_cap():
    code, out, err = run_cli(["check", "--suite", "theta", "--seed", "40"])
    assert (code, out) == (1, "")
    assert err == ("numeric error: oscillatory kernel would need too fine a grid: "
                   "949679 nodes per axis, above the cap of 400001 per axis\n")


def test_theta_at_large_real_part(capsys):
    # the kernel at N(u) A(v) and the kernel at K(phi) each pass the
    # determinant check at |Re tau| = 1e7, where their product would not
    assert cli.main(["theta", "--M", "1", "--tau", "1e7,1", "--phi", "1"]) == 0
    value = json.loads(capsys.readouterr().out)
    assert np.isfinite(value["re"]) and np.isfinite(value["im"])


def test_check_out_file(tmp_path):
    out_file = tmp_path / "rows.csv"
    code, out, _ = run_cli(["check", "--suite", "distance", "--seed", "3",
                            "--out", str(out_file)])
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("case,lhs,rhs,residual,tol,pass")
    assert all(line.endswith(("true", "false")) or line.startswith("case")
               for line in text.strip().splitlines())
    # numpy scalars print as np.float64(...) unless converted
    row = CheckRow("case", np.float64(1.5), np.float64(2.0), np.float64(1e-8), 1e-6)
    for line in text.strip().splitlines()[1:] + [row.csv()]:
        for field in line.split(",")[1:5]:
            float(field)


def test_singular_dilation_names_the_block():
    code, out, err = run_cli(["element", "--word", "g(-1)", "--n", "1"])
    assert (code, out) == (2, "")
    assert err == "input error: dilation block must be invertible n x n\n"


# successive commands in one process, each default-taking call after one that
# set the option, and the usage errors
SUCCESSIVE = [
    ["element", "--word", "t(0.5);s", "--n", "2"],
    ["element", "--word", "g(0.5)"],
    ["metric", "--space", "hn", "--A", "2", "--point", "i", "--t1", "1", "--t2", "1"],
    ["metric", "--space", "hn", "--point", "i", "--t1", "1", "--t2", "1"],
    ["distance", "--p0", "i", "--p1", "2i", "--emit-eigs"],
    ["distance", "--p0", "i", "--p1", "3i"],
    ["reduce", "--space", "hn", "--point", "0.3+0.5i"],
    ["check", "--suite", "cayley", "--seed", "3"],
    ["check", "--suite", "cayley"],
    ["element", "--word", "g(-1)"],
    [],
    ["distance", "--p0", "i"],
]


def test_one_parser_serves_successive_calls():
    in_turn = [run_cli(args) for args in SUCCESSIVE]
    fresh = []
    for args in SUCCESSIVE:
        cli._parser.cache_clear()
        fresh.append(run_cli(args))
    assert in_turn == fresh
    assert [code for code, _, _ in in_turn] == [0] * 9 + [2] * 3
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("args, y", [
    (["reduce", "--space", "hn", "--point", "1e155i"], 1e155),
    (["reduce", "--space", "hn", "--point", "1e300i"], 1e300),
    (["reduce", "--space", "hnm", "--point", '{"omega": "1e300i", "z": "0.5"}'], 1e300),
])
def test_far_reduced_point_is_printed(args, y):
    code, out, err = run_cli(args)
    assert (code, err) == (0, "")
    assert json.loads(out)["omega"]["data"] == [[0.0, y]]
