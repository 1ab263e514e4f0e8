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

    def test_unknown_coefficient(self, cfg_file):
        with pytest.raises(ConfigError):
            load_config(cfg_file("[connection]\nk13 = 1\n"))

    def test_sample_count_below_one(self, cfg_file):
        with pytest.raises(ConfigError) as exc:
            load_config(cfg_file("[samples]\nseed = 3\ncount = 0\n"))
        assert exc.value.line_no == 3
        assert "count" in str(exc.value)

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

    def test_non_finite_coefficient_is_typed(self, cfg_file, capsys):
        rc = main(["classify", cfg_file(EX1_CFG.replace("alpha = 3", "alpha = 1e308")),
                   "--quiet"])
        assert rc == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("NonFiniteData: k1 is not finite at (t, r) = (0.5, 0.5)")
        rc = main(["classify", cfg_file("[connection]\nk1 = exp(1000*t)\n"), "--quiet"])
        assert rc == EXIT_FAIL
        assert capsys.readouterr().err.startswith("NonFiniteData: k1 overflows at (t, r)")

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

    def test_bad_state(self, cfg_file):
        assert main(["geodesic", cfg_file(FLAT_CFG), "--state", "1,2,3",
                     "--T", "1.0"]) == EXIT_USAGE

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
    src = os.path.dirname(os.path.dirname(os.path.abspath(berwald.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c",
                          "import sys, berwald.cli; print('scipy' in sys.modules)"],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def test_coefficient_jet_outside_the_domain_is_located(cfg_file, capsys):
    rc = main(["classify", cfg_file("[connection]\nk2 = 1/t\n[grid]\n"
                                    "t = 1e-170:1e-169:2\nr = 0.5:2.5:2\n"), "--quiet"])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert "k2 at (t, r) = (1e-170, 0.5): reciprocal jet underflows" in err
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
