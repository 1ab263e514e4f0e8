import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import berwald
from berwald.cli import (EXIT_FAIL, EXIT_OK, EXIT_UNDETERMINED, EXIT_USAGE,
                         ConfigError, load_config, main)
from berwald.geodesic_engine import ChartExit
from berwald.geometry_core import TangentPoint

from conftest import exponential_example
from generators import make_class3

_EX1_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "ex1.cfg")

EX1_CFG = """
# power-law connection, non-symmetric Ricci
[connection]
k1 = 2*r*(alpha-2)
k4 = 4*alpha*r^3*(alpha-1)
k6 = -2*alpha*r
k8 = -2*r
k10 = alpha*r

[params]
alpha = 3

[grid]
t = 0.5:2.5:8
r = 0.5:2.5:8

[samples]
count = 40
seed = 20240601
require = tdot
require = 4*alpha*r^2*tdot^2 - 4*tdot*rdot - alpha*(thetadot^2 + phidot^2*sin(theta)^2)
"""

EX2_CFG = """
[connection]
k1 = r
k5 = t/3
k9 = t/3
k10 = t/3

[grid]
t = 0.5:2.5:8
r = 0.5:2.5:8

[samples]
count = 40
seed = 11
require = tdot
require = rdot^2 - thetadot^2 - phidot^2*sin(theta)^2
"""

FLAT_CFG = """
[grid]
t = 0.5:2.5:6
r = 0.5:2.5:6

[task]
signature = lorentzian
"""

C5_BROKEN_CFG = """
[connection]
k2 = r
k4 = r*exp(r^2)
k6 = 0.1*r

[grid]
t = 0.5:2.5:6
r = 0.5:2.5:6
"""


@pytest.fixture
def cfg_file(tmp_path):
    def write(text, name="job.cfg"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


class TestConfig:
    def test_round_trip(self, cfg_file):
        cfg = load_config(cfg_file(EX1_CFG))
        assert cfg.connection["k1"] == "2*r*(alpha-2)"
        assert cfg.params == {"alpha": 3.0}
        assert cfg.t_n == 8 and cfg.t_range == (0.5, 2.5)
        assert len(cfg.requires) == 2
        assert cfg.seed == 20240601

    def test_unknown_section(self, cfg_file):
        with pytest.raises(ConfigError) as exc:
            load_config(cfg_file("[conn]\nk1 = 1\n"))
        assert exc.value.line_no == 1

    def test_bad_expression_reports_line(self, cfg_file):
        with pytest.raises(ConfigError) as exc:
            load_config(cfg_file("[connection]\nk1 = 2*\n"))
        assert exc.value.line_no == 2

    def test_theta_choice_is_a_builtin_or_an_expression_in_z(self, cfg_file):
        for text in ("identity", "square", "exp(z) - 1", "z^3 / 3"):
            cfg = load_config(cfg_file("[task]\ntheta_choice = %s\n" % text))
            assert cfg.theta_choice == text

    def test_unknown_coefficient(self, cfg_file):
        with pytest.raises(ConfigError):
            load_config(cfg_file("[connection]\nk13 = 1\n"))

    def test_sample_count_below_one(self, cfg_file):
        with pytest.raises(ConfigError) as exc:
            load_config(cfg_file("[samples]\nseed = 3\ncount = 0\n"))
        assert exc.value.line_no == 3
        assert "count" in str(exc.value)

    def test_negative_seed(self, cfg_file):
        with pytest.raises(ConfigError, match=r"job\.cfg:19: sample seed must be a "
                                              r"non-negative integer"):
            load_config(cfg_file(EX1_CFG.replace("seed = 20240601", "seed = -1")))

    def test_predicate(self, cfg_file):
        cfg = load_config(cfg_file(EX1_CFG))
        pred = cfg.predicate()
        from berwald.geometry_core import TangentPoint
        good = TangentPoint(1, 0.6, math.pi / 2, 0, 1, 0.01, 0.01, 0.01)
        bad = TangentPoint(1, 0.6, math.pi / 2, 0, -1, 0.01, 0.01, 0.01)
        assert pred(good) and not pred(bad)


class TestClassifyCommand:
    def test_example1(self, cfg_file, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(["classify", cfg_file(EX1_CFG), "--json", str(out), "--quiet"])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        cls = doc["classification"]
        assert cls["class"] == 1
        assert cls["riemann_metrizable"] == "no"
        assert cls["holonomy_rank"] == 3
        assert cls["ricci_asymmetry"] == pytest.approx(-8.0)
        assert doc["schema"] == "berwald-report/1"

    def test_flat_class4(self, cfg_file, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(["classify", cfg_file(FLAT_CFG), "--json", str(out), "--quiet"])
        assert rc == EXIT_OK
        cls = json.loads(out.read_text())["classification"]
        assert cls["class"] == 4
        assert cls["riemann_metrizable"] == "yes"
        assert cls["holonomy_rank"] == 1

    def test_k11_guard(self, cfg_file, capsys):
        rc = main(["classify", cfg_file("[connection]\nk11 = 1\n")])
        assert rc == EXIT_FAIL
        assert "UnsupportedConnection" in capsys.readouterr().err

    def test_singular_coefficient_is_located(self, cfg_file, capsys):
        rc = main(["classify", cfg_file("[connection]\nk2 = 1/(r-1.5)\n[grid]\n"
                                        "t = 0.5:2.5:5\nr = 0.5:2.5:5\n"), "--quiet"])
        assert rc == EXIT_FAIL
        err = capsys.readouterr().err
        assert "k2 at (t, r) = (0.5, 1.5): division by zero" in err
        # interior nodes: the first failing node in grid order (t-major)
        for k1, message in (("1/(t-1.5)", "k1 at (t, r) = (1.5, 0.5): division by zero"),
                            ("(1.2-t)^0.5", "k1 at (t, r) = (1.5, 0.5): fractional power "
                                            "of non-positive base")):
            rc = main(["classify", cfg_file("[connection]\nk1 = %s\nk10 = r\n[grid]\n"
                                            "t = 0.5:2.5:5\nr = 0.5:2.5:5\n" % k1), "--quiet"])
            assert rc == EXIT_FAIL
            assert capsys.readouterr().err == "expression error: %s\n" % message

    def test_non_finite_coefficient_is_typed(self, cfg_file, capsys):
        rc = main(["classify", cfg_file(EX1_CFG.replace("alpha = 3", "alpha = 1e308")),
                   "--quiet"])
        assert rc == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("NonFiniteData: k1 is not finite at (t, r) = (0.5, 0.5)")
        rc = main(["classify", cfg_file("[connection]\nk1 = exp(1000*t)\n"), "--quiet"])
        assert rc == EXIT_FAIL
        assert capsys.readouterr().err.startswith("NonFiniteData: k1 overflows at (t, r)")
        rc = main(["classify", cfg_file("[connection]\nk1 = exp(400*t)\nk10 = r\n[grid]\n"
                                        "t = 0.5:2.5:5\nr = 0.5:2.5:5\n"), "--quiet"])
        assert rc == EXIT_FAIL
        assert capsys.readouterr().err.startswith(
            "NonFiniteData: k1 overflows at (t, r) = (2, 0.5)")

    def test_huge_finite_curvature_is_typed(self, cfg_file, capsys):
        # every k_i is finite, but the round-off floor squares the curvature scale
        rc = main(["classify", cfg_file("[connection]\nk1 = exp(300)*exp(300)*t\nk10 = r\n"
                                        "[grid]\nt = 0.5:2.5:5\nr = 0.5:2.5:5\n"), "--quiet"])
        assert rc == EXIT_FAIL
        err = capsys.readouterr().err
        assert err == ("NonFiniteData: squared curvature scale overflows at (t, r) = "
                       "(0.5, 0.5)\n")

    def test_usage_error(self, cfg_file):
        with pytest.raises(SystemExit) as exc:
            main(["classify", cfg_file(EX1_CFG), "--badflag"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_config(self):
        assert main(["classify", "/nonexistent/x.cfg"]) == EXIT_FAIL

    def test_reports_are_byte_identical(self, cfg_file, tmp_path):
        path = cfg_file(EX1_CFG)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["classify", path, "--json", str(out1), "--quiet"])
        main(["classify", path, "--json", str(out2), "--quiet"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_grid_and_seed_overrides(self, cfg_file, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(["classify", cfg_file(EX1_CFG), "--grid", "5x5", "--seed", "99",
                   "--json", str(out), "--quiet"])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["seed"] == 99
        assert doc["config"]["grid"]["t"][2] == 5


class TestMetrizeCommand:
    def test_example2_form_and_checks(self, cfg_file, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(["metrize", cfg_file(EX2_CFG), "--json", str(out), "--quiet"])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["checks"]["passed"] is True
        assert doc["classification"]["evidence"]["lambda"] == pytest.approx(0.75)
        form = doc["forms"]["finsler"]
        assert form["description"]["kind"] == "power-law"
        assert form["description"]["lambda"] == pytest.approx(0.75)
        assert len(form["table"]["scale"]) == 64

    def test_class4_flat_metric_table(self, cfg_file, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(["metrize", cfg_file(FLAT_CFG), "--json", str(out), "--quiet"])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        coeffs = doc["forms"]["riemann"]["table"]["coefficients"]
        assert all(v == pytest.approx(1.0) for v in coeffs["att"])
        assert all(v == pytest.approx(0.0) for v in coeffs["atr"])
        assert all(v == pytest.approx(-1.0) for v in coeffs["arr"])
        assert all(v == pytest.approx(-1.0) for v in coeffs["aw"])

    def test_broken_class5_refused(self, cfg_file, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(["metrize", cfg_file(C5_BROKEN_CFG), "--json", str(out), "--quiet"])
        assert rc == EXIT_FAIL
        doc = json.loads(out.read_text())
        assert doc["classification"]["riemann_metrizable"] == "no"
        assert "forms" not in doc

    def test_tol_override_parse(self, cfg_file):
        assert main(["metrize", cfg_file(FLAT_CFG), "--tol-override", "nonsense",
                     "--quiet"]) == EXIT_USAGE

    @pytest.mark.parametrize("item", ["hessian_det=nan", "horiz=inf", "zero=-1", "berwald=0"])
    def test_tol_override_must_be_finite_and_positive(self, cfg_file, capsys, item):
        name, value = item.split("=")
        assert main(["verify", cfg_file(FLAT_CFG), "--tol-override", item,
                     "--quiet"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: tolerance %s must be finite and > 0, not %s\n" % (name, value))

    def test_negative_seed_is_a_usage_error(self, cfg_file, capsys):
        assert main(["verify", cfg_file(FLAT_CFG), "--seed", "-1", "--quiet"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, not -1\n"

    def test_tol_override_unknown_name(self, cfg_file, capsys):
        assert main(["metrize", cfg_file(FLAT_CFG), "--tol-override", "zer0=1",
                     "--quiet"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "zer0" in err
        for name in ("zero", "nonzero", "rank_svd", "ricci", "horiz", "lc_roundtrip",
                     "hessian_det", "berwald", "geodesic"):
            assert name in err

    def test_grid_side_below_two(self, cfg_file):
        assert main(["classify", cfg_file(EX1_CFG), "--grid", "1x1",
                     "--quiet"]) == EXIT_USAGE
        assert main(["classify", cfg_file(EX1_CFG), "--grid", "5x1",
                     "--quiet"]) == EXIT_USAGE


class TestGeodesicCommand:
    def test_flat_endpoint(self, cfg_file, tmp_path):
        out = tmp_path / "traj.txt"
        rc = main(["geodesic", cfg_file(FLAT_CFG), "--state",
                   "1,2,1.5707963267948966,0,1,1,0,0", "--T", "1.0",
                   "--n-out", "11", "--out", str(out), "--quiet"])
        assert rc == EXIT_OK
        rows = np.loadtxt(str(out), skiprows=1)
        assert rows[-1][1] == pytest.approx(2.0, abs=1e-10)   # t0 + 1
        assert rows[-1][2] == pytest.approx(3.0, abs=1e-10)   # r0 + 1

    def test_chart_exit_reported(self, cfg_file, tmp_path, capsys):
        rc = main(["geodesic", cfg_file(EX1_CFG), "--state",
                   "1,2,1.5707963267948966,0,1,0.1,0.05,0.02", "--T", "0.5",
                   "--out", str(tmp_path / "t.txt")])
        assert rc == EXIT_FAIL
        assert "chart exit" in capsys.readouterr().out

    def test_non_finite_state_is_a_chart_exit(self, tmp_path, capsys):
        """phidot = 1e200 throws theta to inf in the first steps: a chart exit
        with its report, not a math domain error from sin(theta).  The report
        is strict JSON: the infinite component of the state is null."""
        flat = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                            "flat_cartesian.cfg")
        rc = main(["geodesic", flat, "--state", "1,1,1.5,0,1,0,0,1e200", "--T", "0.1",
                   "--n-out", "5", "--out", str(tmp_path / "X.traj"),
                   "--json", str(tmp_path / "g.json")])
        assert rc == EXIT_FAIL

        def strict(token):
            raise ValueError("not strict JSON: %s" % token)
        doc = json.loads((tmp_path / "g.json").read_text(), parse_constant=strict)
        assert doc["chart_exit"]["reason"] == "state not finite"
        assert doc["chart_exit"]["last_state"][6] is None
        assert all(math.isfinite(x) for i, x in enumerate(doc["chart_exit"]["last_state"])
                   if i != 6)
        assert doc["exit_status"] == EXIT_FAIL
        out, err = capsys.readouterr()
        assert "(state not finite) at state [" in out and "'inf'" in out
        assert not any(line.startswith("Traceback") for line in err.splitlines())

    def test_finsler_chart_exit_is_reported(self, cfg_file, tmp_path, monkeypatch):
        """A chart exit of the Finsler flow of --both ends as the spray's does."""
        import berwald.cli as cli

        def leaves(form, p0, T, n_out):
            raise ChartExit(0.05, p0.state(), "r < 0.001")

        monkeypatch.setattr(cli, "integrate_finsler", leaves)
        rc = main(["geodesic", cfg_file(EX2_CFG), "--state",
                   "1,1,1.5707963267948966,0,1,0.5,0.1,0.05", "--T", "0.1", "--n-out", "5",
                   "--out", str(tmp_path / "t.txt"), "--both", "--quiet",
                   "--json", str(tmp_path / "g.json")])
        assert rc == EXIT_FAIL
        doc = json.loads((tmp_path / "g.json").read_text())
        assert doc["chart_exit"] == {"s": 0.05, "reason": "r < 0.001",
                                     "last_state": [1.0, 1.0, 1.5707963267948966, 0.0,
                                                    1.0, 0.5, 0.1, 0.05]}
        assert "finsler_trajectory_file" not in doc and doc["exit_status"] == EXIT_FAIL

    def test_bad_state(self, cfg_file, tmp_path, capsys):
        cfg, out = cfg_file(FLAT_CFG), tmp_path / "t.txt"
        for state, T, n_out, message in (
                ("1,2,3", "1.0", "100", "--state needs 8 comma-separated numbers"),
                ("1,1,0,0,1,0,0,0", "1.0", "100", "--state: sin(theta) = 0"),
                ("1,1,1,0,0,0,0,0", "1.0", "100", "--state: zero velocity"),
                ("1,1,1,0,nan,0,0,0", "1.0", "100", "--state components must be finite"),
                ("1,2,1.5,0,1,1,0,0", "0", "100", "--T must be finite and nonzero"),
                ("1,2,1.5,0,1,1,0,0", "inf", "100", "--T must be finite and nonzero"),
                ("1,2,1.5,0,1,1,0,0", "nan", "100", "--T must be finite and nonzero"),
                ("1,2,1.5,0,1,1,0,0", "1.0", "1", "--n-out must be at least 2")):
            assert main(["geodesic", cfg, "--state", state, "--T", T, "--n-out", n_out,
                         "--out", str(out)]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("error: " + message) and "Traceback" not in err
            assert not out.exists()

    def test_both_without_a_finsler_form_writes_its_report(self, cfg_file, tmp_path):
        rc = main(["geodesic", cfg_file(FLAT_CFG), "--state",
                   "1,2,1.5707963267948966,0,1,1,0,0", "--T", "1.0", "--n-out", "11",
                   "--out", str(tmp_path / "t.txt"), "--both", "--quiet",
                   "--json", str(tmp_path / "g.json")])
        assert rc == EXIT_FAIL
        doc = json.loads((tmp_path / "g.json").read_text())
        assert doc["exit_status"] == EXIT_FAIL
        assert "finsler_trajectory_file" not in doc

    def test_both_classifies_with_the_tolerance_overrides(self, cfg_file, tmp_path, capsys):
        """zero=1e6 reads every residual as zero: metrize and geodesic --both
        both meet the same inconsistent verdict."""
        cfg = cfg_file(EX1_CFG.replace("0.5:2.5:8", "0.5:2.5:6"))
        tol = ["--tol-override", "zero=1e6", "--quiet"]
        assert main(["metrize", cfg] + tol) == EXIT_FAIL
        metrize_err = capsys.readouterr().err
        assert metrize_err.startswith("InternalInconsistency: ")
        rc = main(["geodesic", cfg, "--state", "1.0,2.0,1.5707963267948966,0,0.2,0.02,0.01,0.004",
                   "--T", "0.1", "--n-out", "5", "--both", "--out", str(tmp_path / "t.txt")] + tol)
        assert rc == EXIT_FAIL
        assert capsys.readouterr().err == metrize_err

    def test_geodesic_both_refuses_a_start_outside_the_certified_box(self, tmp_path, capsys):
        """The Finsler form's potentials are certified on the grid's box only."""
        report = tmp_path / "g.json"
        rc = main(["geodesic", _EX1_GOLDEN, "--state",
                   "1e17,2,1.5707963267948966,0,0.2,0.02,0.01,0.004", "--T", "0.1",
                   "--n-out", "5", "--both", "--out", str(tmp_path / "t.traj"),
                   "--json", str(report), "--quiet"])
        assert rc == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("error: --both: start (t, r) = (1e+17, 2.0) lies outside the "
                              "certified box [0.5, 2.5] x [0.5, 2.5]")
        doc = json.loads(report.read_text())
        assert doc["exit_status"] == EXIT_FAIL and "outside the certified box" in doc["refused"]
        assert not (tmp_path / "t.traj").exists()

    def test_geodesic_both_accepts_a_start_on_the_box_edge(self, tmp_path):
        rc = main(["geodesic", _EX1_GOLDEN, "--state",
                   "0.5,2.5,1.5707963267948966,0,0.2,0.02,0.01,0.004", "--T", "0.1",
                   "--n-out", "5", "--both", "--out", str(tmp_path / "t.traj"), "--quiet"])
        assert rc == EXIT_OK
        assert (tmp_path / "t.traj.finsler").exists()

    def test_spray_geodesic_ignores_the_box(self, tmp_path):
        """The spray reads no potential: it runs from anywhere in the chart."""
        rc = main(["geodesic", _EX1_GOLDEN, "--state",
                   "3,2,1.5707963267948966,0,0.2,0.02,0.01,0.004", "--T", "0.1",
                   "--n-out", "5", "--out", str(tmp_path / "t.traj"), "--quiet"])
        assert rc == EXIT_OK

    def test_both_integrators(self, cfg_file, tmp_path):
        out = tmp_path / "traj.txt"
        rc = main(["geodesic", cfg_file(EX2_CFG), "--state",
                   "1,1,1.5707963267948966,0,1,0.5,0.1,0.05", "--T", "0.3",
                   "--n-out", "31", "--out", str(out), "--both", "--quiet",
                   "--json", str(tmp_path / "g.json")])
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "g.json").read_text())
        assert doc["discrepancy"] < 1e-6
        assert (tmp_path / "traj.txt.finsler").exists()


class TestVerifyCommand:
    def test_one_jet_per_sample_and_form(self, cfg_file, tmp_path, monkeypatch):
        """The four form checks read one jet per sample, from one run of each
        form's program on arrays of all its samples: the number of points of
        each run is recorded."""
        from berwald.metrizer import ExpressionForm
        calls = {}
        jet = ExpressionForm.jet

        def counted(self, p, vals=None):
            n = 1 if isinstance(p, TangentPoint) else len(p)
            calls.setdefault(type(self).__name__, []).append(n)
            return jet(self, p, vals)
        monkeypatch.setattr(ExpressionForm, "jet", counted)
        text = EX1_CFG.replace("0.5:2.5:8", "0.5:2.5:15").replace("count = 40", "count = 50")
        rc = main(["verify", cfg_file(text), "--json", str(tmp_path / "v.json"), "--quiet"])
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "v.json").read_text())
        assert list(doc["forms"]) == ["finsler"]
        assert [c["name"] for c in doc["checks"]["checks"]] == [
            "horizontal-constancy", "euler-homogeneity", "hessian-nondegeneracy",
            "berwald-spray"]
        assert calls == {"PowerLawForm": [50]}
        calls.clear()
        assert main(["verify", cfg_file(FLAT_CFG), "--quiet"]) == EXIT_OK
        assert calls == {"RiemannForm": [25]}


class TestReportCommand:
    def test_full_pipeline_document(self, cfg_file, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(["report", cfg_file(FLAT_CFG), "--json", str(out), "--quiet"])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["command"] == "report"
        names = [c["name"] for c in doc["checks"]["checks"]]
        assert "levi-civita-roundtrip" in names
        assert doc["forms"]["riemann"]["description"]["kind"] == "class-4"

    def test_verify_document_names_verify(self, cfg_file, tmp_path):
        out = tmp_path / "ver.json"
        rc = main(["verify", cfg_file(FLAT_CFG), "--json", str(out), "--quiet"])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["command"] == "verify"


def test_import_leaves_scipy_out():
    """`import berwald.cli` (half of the benchmark's set-up time) loads none of
    the heavy optional modules."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(berwald.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    heavy = ("scipy", "sympy", "hypothesis", "numpy.polynomial")
    out = subprocess.run([sys.executable, "-c", "import sys, berwald.cli; "
                          "print(sorted(m for m in %r if m in sys.modules))" % (heavy,)],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


_JOB_NODES = """import gc, json, os, sys
gc.disable()
from berwald import cli, scalar_field
base, golden, out = len(scalar_field._INTERNED), sys.argv[1], sys.argv[2]
rules, after = [], []

def count(frame, event, _arg):
    code = frame.f_code
    rules[-1] += event == "call" and code.co_name == "rule" and code.co_filename == scalar_field.__file__

for name in ("class3", "class3", "ex1", "exponential", "flat_cartesian", "class4_general"):
    rules.append(0)
    sys.setprofile(count)
    rc = cli.main(["verify", os.path.join(golden, name + ".cfg"), "--grid", "7x7",
                   "--json", out, "--quiet"])
    sys.setprofile(None)
    after.append((name, rc, len(scalar_field._INTERNED)))
print(json.dumps({"base": base, "after": after, "rules": rules}))
"""


def test_job_nodes_are_freed_by_reference_counting(tmp_path):
    """With the cycle collector off, every node that a `verify` job makes is
    freed when the job ends: the intern table returns to its size after
    import, also with the leaf sets that nodes keep.  The same job run twice
    applies as many derivative rules, so no saving comes from state that
    outlives a job."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(berwald.__file__)))
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
    out = subprocess.run([sys.executable, "-c", _JOB_NODES, golden, str(tmp_path / "r.json")],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
                         check=True)
    got = json.loads(out.stdout)
    assert [(rc, size) for _name, rc, size in got["after"]] == [(EXIT_OK, got["base"])] * 6
    assert got["rules"][0] == got["rules"][1] > 0


def test_coefficient_jet_outside_the_domain_is_located(cfg_file, capsys):
    rc = main(["classify", cfg_file("[connection]\nk2 = 1/t\n[grid]\n"
                                    "t = 1e-170:1e-169:2\nr = 0.5:2.5:2\n"), "--quiet"])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    # d k2/dt = -(1/t)/t leaves the floats
    assert err == "expression error: k2 at (t, r) = (1e-170, 0.5): quotient overflows\n"
    assert "Traceback" not in err
    rc = main(["classify", cfg_file("[connection]\nk2 = sin(t*1e308*10)\n"), "--quiet"])
    assert rc == EXIT_FAIL
    assert "k2 at (t, r) = (0.5, 0.5): math domain error" in capsys.readouterr().err


def test_verify_runs_in_one_process_do_not_share_state(cfg_file, tmp_path):
    """A, B, A in turn: the second A report is byte-identical to the first."""
    outs = []
    for i, text in enumerate((EX2_CFG, EX1_CFG, EX2_CFG)):
        out = tmp_path / ("%d.json" % i)
        rc = main(["verify", cfg_file(text, "job%d.cfg" % i), "--json", str(out), "--quiet"])
        assert rc == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[2] != outs[1]


def test_verify_runs_leave_no_interned_nodes(cfg_file, tmp_path):
    """The expression nodes of a job die with it: after in-process `verify`
    runs and a gc pass, the intern tables are as large as before."""
    import gc
    from berwald import scalar_field

    def interned():
        gc.collect()
        return len(scalar_field._INTERNED)

    before = interned()
    for i, text in enumerate((EX2_CFG, EX1_CFG, EX2_CFG)):
        cfg = cfg_file(text, "job%d.cfg" % i)
        assert main(["verify", cfg, "--json", str(tmp_path / "out.json"), "--quiet"]) == EXIT_OK
    assert interned() == before


def test_readme_job_configuration_loads(tmp_path):
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("### Job configuration", 1)[1]
    block = section.split("```\n", 2)[1]
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    cfg = load_config(str(path))
    assert (cfg.signature, cfg.c1, cfg.theta_choice) == ("lorentzian", 1.0, "identity")
    out = tmp_path / "readme.json"
    assert main(["classify", str(path), "--json", str(out), "--quiet"]) == EXIT_OK
    assert json.loads(out.read_text())["classification"]["class"] == 1


def test_overflowing_require_is_a_config_error(cfg_file, capsys):
    text = EX2_CFG.replace("require = tdot\n", "require = exp(1000*tdot)\n")
    rc = main(["metrize", cfg_file(text), "--quiet"])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("config error: [samples] require = exp(1000*tdot): overflows at "
                          "(t, r, theta, phi, tdot, rdot, thetadot, phidot) = (")
    assert "Traceback" not in err


def test_require_with_unbound_parameter_is_a_config_error(cfg_file, capsys):
    text = EX2_CFG.replace("require = tdot\n", "require = foo*tdot\n")
    rc = main(["metrize", cfg_file(text), "--quiet"])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("config error: [samples] require = foo*tdot: "
                          "parameter 'foo' is not set in [params]")
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["t", "r", "pi", "exp"])
def test_params_key_that_is_not_a_parameter_is_a_config_error(cfg_file, capsys, name):
    """Expressions read t and r as variables, pi as a number and exp as a
    function, so such a [params] line could never bind; on k2 = t*r,
    t = 5 would reach some programs and not others."""
    path = cfg_file("[connection]\nk2 = t*r\nk10 = 1\n\n[params]\n%s = 5\n" % name)
    assert main(["classify", path, "--quiet"]) == EXIT_FAIL
    assert capsys.readouterr().err.startswith(
        "config error: %s:6: %r is not a parameter name: t and r are variables" % (path, name))


@pytest.mark.parametrize("section, line, message", [
    ("grid", "t = 0:inf:3", "range bounds must be finite"),
    ("grid", "t = nan:1:3", "range bounds must be finite"),
    ("grid", "r = 2.5:0.5:3", "range needs hi > lo and n >= 2"),
    ("grid", "r = 0.5:2.5:1", "range needs hi > lo and n >= 2"),
    ("task", "signature = foo", "signature must be one of lorentzian, euclidean"),
    ("task", "c1 = 0", "c1 must be a finite, nonzero number"),
    ("task", "c1 = nan", "c1 must be a finite, nonzero number"),
    ("task", "c2 = inf", "c2 must be a finite, nonzero number"),
    ("task", "c2 = -0.0", "c2 must be a finite, nonzero number"),
    ("task", "theta_choice = z^(", "bad expression: syntax error at offset 3: found 'end of "
                                   "input', expected one of number, identifier, (, -"),
    ("task", "theta_choice = q*z", "theta_choice must be identity, square or an expression "
                                   "in z alone: it reads parameter 'q'"),
    ("task", "theta_choice = squared", "theta_choice must be identity, square or an "
                                       "expression in z alone: it reads parameter 'squared'"),
    ("task", "theta_choice = z*(1 + 0.1*t)", "theta_choice must be identity, square or an "
                                             "expression in z alone: it reads variable 't'"),
    ("task", "theta_choice = z + r^2", "theta_choice must be identity, square or an "
                                       "expression in z alone: it reads variable 'r'")])
def test_bad_grid_and_task_values_are_config_errors(cfg_file, capsys, section, line, message):
    """A value no construction can use is refused where it is read: a class-4
    signature that does not exist, a class-5 constant that is zero or not
    finite, a grid range with a bound that is not finite (NaN passes hi <= lo),
    a class-3 Theta that does not parse or reads anything but z (a parameter,
    t or r), also on a job that is not class 3."""
    path = cfg_file("[connection]\nk2 = r\nk4 = r*exp(r^2)\n\n[%s]\n%s\n" % (section, line))
    assert main(["verify", path, "--quiet"]) == EXIT_FAIL
    assert capsys.readouterr().err == "config error: %s:6: %s\n" % (path, message)


class TestOutputPaths:
    STATE = ["--state", "1.0,1.0,1.5707963267948966,0,1.0,0.5,0.0,0.0", "--T", "0.5"]

    def test_unopenable_json_path_fails_before_any_work(self, cfg_file, capsys, monkeypatch):
        import berwald.cli as cli
        monkeypatch.setattr(cli, "load_config", lambda path: pytest.fail("work began"))
        for command in (["verify"], ["geodesic"] + self.STATE):
            rc = main(command[:1] + [cfg_file(FLAT_CFG), "--json", "/nonexistent/dir/x.json",
                                     "--quiet"] + command[1:])
            assert rc == EXIT_FAIL
            assert capsys.readouterr().err == ("OutputError: cannot write /nonexistent/dir/x.json:"
                                               " no such directory /nonexistent/dir\n")

    def test_bad_arguments_come_before_unopenable_outputs(self, cfg_file, capsys):
        bad = ["--json", "/nonexistent/dir/x.json", "--out", "/nonexistent/t.traj", "--quiet"]
        assert main(["verify", cfg_file(FLAT_CFG), "--grid", "1x3"] + bad[:2]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: --grid needs at least 2 points per side\n"
        assert main(["geodesic", cfg_file(FLAT_CFG), "--state", "1,2,3", "--T", "1"]
                    + bad) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: --state needs 8 comma-separated")

    def test_unopenable_trajectory_path(self, cfg_file, tmp_path, capsys):
        rc = main(["geodesic", cfg_file(FLAT_CFG), "--out", "/nonexistent/t.traj",
                   "--quiet"] + self.STATE)
        assert rc == EXIT_FAIL
        assert capsys.readouterr().err == ("OutputError: cannot write /nonexistent/t.traj: "
                                           "no such directory /nonexistent\n")
        rc = main(["geodesic", cfg_file(FLAT_CFG), "--out", str(tmp_path), "--quiet"] + self.STATE)
        assert rc == EXIT_FAIL
        assert capsys.readouterr().err == "OutputError: cannot write %s: is a directory\n" % tmp_path


def _config_of(conn) -> str:
    ks = ["k%d = %s" % (i, conn.k_field(i).source()) for i in range(1, 13)
          if not conn.k_field(i).is_structural_zero()]
    return "\n".join(["[connection]"] + ks + ["[grid]", "t = 0.5:2.5:5", "r = 0.5:2.5:5",
                                                "[samples]", "count = 30", "seed = 5"]) + "\n"


@pytest.mark.parametrize("conn", [exponential_example(), make_class3(41)[0]],
                         ids=["exponential", "class3"])
def test_verify_reports_do_not_depend_on_the_hash_seed(conn, tmp_path):
    """The same job in two processes whose str hashes differ (so do set and
    dict orders keyed on names): byte-identical JSON reports."""
    cfg = tmp_path / "job.cfg"
    cfg.write_text(_config_of(conn))
    src = os.path.dirname(os.path.dirname(os.path.abspath(berwald.__file__)))
    reports = []
    for seed in ("0", "1"):
        out = tmp_path / ("%s.json" % seed)
        subprocess.run([sys.executable, "-m", "berwald.cli", "verify", str(cfg), "--json",
                        str(out), "--quiet"], check=True,
                       env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["exit_status"] == EXIT_OK


def test_params_keys_keep_their_case(cfg_file, tmp_path):
    """Expressions are case-sensitive, so a [params] key is too: Alpha binds
    Alpha.  Section names and the other sections' keys are read in any case."""
    text = "[Connection]\nK1 = Alpha*r\nk10 = r\n\n[params]\nAlpha = 3\n\n[Grid]\nT = 0.5:2.5:5\n"
    cfg = load_config(cfg_file(text))
    assert cfg.params == {"Alpha": 3.0} and cfg.connection == {"k1": "Alpha*r", "k10": "r"}
    out = tmp_path / "case.json"
    assert main(["classify", cfg_file(text), "--json", str(out), "--quiet"]) == EXIT_OK
    assert json.loads(out.read_text())["config"]["params"] == {"Alpha": 3.0}


def test_each_config_expression_is_parsed_once(cfg_file, monkeypatch):
    """A `verify` parses each [connection], [params] and require line once:
    the expressions `load_config` parses are the ones the job runs."""
    from berwald import cli, scalar_field
    sources = []

    def counted(parse):
        return lambda source: sources.append(source) or parse(source)
    monkeypatch.setattr(cli, "parse", counted(cli.parse))
    monkeypatch.setattr(scalar_field, "parse", counted(scalar_field.parse))
    assert main(["verify", cfg_file(EX1_CFG), "--quiet"]) == EXIT_OK
    config = [line.split("=", 1)[1].strip() for line in EX1_CFG.splitlines()
              if line.startswith(("k", "require"))] + ["alpha"]
    assert len(config) == 8
    assert sorted(s for s in sources if s in config) == sorted(config)


def test_parser_is_built_once_per_process(cfg_file):
    """After a first call, `main` builds no argparse parser: a new one is a
    reference cycle, garbage until a cyclic gc pass."""
    import gc
    path = cfg_file(EX2_CFG)
    assert main(["classify", path, "--quiet"]) == EXIT_OK
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(3):
            assert main(["classify", path, "--quiet"]) == EXIT_OK
        gc.collect()
        argparse_garbage = [o for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert argparse_garbage == []


def test_tol_overrides_do_not_carry_over_between_calls(cfg_file, monkeypatch):
    from berwald import cli
    seen = []
    monkeypatch.setattr(cli, "cmd_classify", lambda cfg, args, overrides: seen.append(overrides)
                        or EXIT_OK)
    path = cfg_file(EX2_CFG)
    assert main(["classify", path, "--tol-override", "zero=1e-9", "--quiet"]) == EXIT_OK
    assert main(["classify", path, "--quiet"]) == EXIT_OK
    assert main(["classify", path, "--tol-override", "ricci=1e-7", "--quiet"]) == EXIT_OK
    assert seen == [{"zero": 1e-9}, {}, {"ricci": 1e-7}]
