"""Property test of the command line: configs and flags drawn from a small
grammar of bad and good input, run in-process through `main`.

Whatever it is given, the program must end with a documented exit code (0
pass, 1 failure or error, 2 undetermined, 64 usage) and never with an
exception; a failure or usage exit says why on its output.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings, strategies as st

from berwald.cli import main

# connection profiles the package can certify (so that the checks run),
# and coefficients that misbehave on the grid: poles, overflow, ln and sqrt
# of negatives, abs kinks, unbound parameters
PROFILES = {
    "example1": {"k1": "2*r*(alpha-2)", "k4": "4*alpha*r^3*(alpha-1)", "k6": "-2*alpha*r",
                 "k8": "-2*r", "k10": "alpha*r"},
    "flat": {},
    "spherical": {"k9": "1/r", "k10": "-r"},
    "class5": {"k2": "r", "k4": "r*exp(r^2)"},
}
BAD_FIELDS = ["1/(t - 1)", "1/(r - 1.5)", "exp(1000*r)", "1e308*t*r", "ln(t - 2)",
              "sqrt(r - 1.5)", "abs(t - 1.3)", "abs(r - 1)*t", "beta*r", "t^0.5", "0*t",
              "(t - 1)^(-2)", "tan(t)"]
REQUIRES = ["tdot", "rdot - 5", "exp(1000*tdot)", "sqrt(-tdot)", "foo*tdot", "1/(rdot)",
            "abs(rdot) - 0.1", "4*alpha*r^2*tdot^2 - 4*tdot*rdot - alpha*thetadot^2"]
TOLERANCES = ["zero", "nonzero", "rank_svd", "ricci", "horiz", "lc_roundtrip",
              "hessian_det", "berwald", "geodesic", "bogus"]
VALUES = ["nan", "inf", "-inf", "-1", "0", "1e-6", "1e300", "abc"]


def mostly(good, *bad):
    """``good`` four times in five, else one of ``bad``."""
    return st.sampled_from([good] * 4 * len(bad) + list(bad))


@st.composite
def configs(draw) -> str:
    fields = dict(PROFILES[draw(st.sampled_from(sorted(PROFILES)))])
    for _ in range(draw(mostly(0, 1, 2))):
        fields["k%d" % draw(st.integers(1, 12))] = draw(st.sampled_from(BAD_FIELDS))
    lines = ["[connection]"] + ["%s = %s" % kv for kv in sorted(fields.items())]
    lines += ["[params]", "alpha = %s" % draw(mostly("3", "1", "0", "-2"))]
    lines.append("[grid]")
    for var in "tr":
        lo, hi = draw(mostly((0.5, 2.5), (1.0, 2.0), (2.5, 0.5), (1.0, 1.0 + 1e-300),
                             (-1.0, 0.0), (0.0, 2.5)))
        lines.append("%s = %r:%r:%d" % (var, lo, hi, draw(mostly(4, 2, 3, 1))))
    lines += ["[samples]", "count = %d" % draw(mostly(20, 1, 5, 0)),
              "seed = %d" % draw(st.integers(0, 3))]
    lines += ["require = %s" % r for r in draw(mostly([], *([r] for r in REQUIRES)))]
    if draw(st.booleans()):
        lines += ["[task]", "signature = %s" % draw(mostly("lorentzian", "euclidean", "bogus"))]
    return "\n".join(lines) + "\n"


@st.composite
def arguments(draw, config: str, json_path: str, out_path: str, missing: str) -> list:
    command = draw(st.sampled_from(["classify", "metrize", "verify", "report", "geodesic"]))
    argv = [command, config]
    if draw(st.booleans()):
        argv += ["--grid", draw(mostly("3x3", "4x2", "1x5", "2x", "axb", "3X3"))]
    if draw(st.booleans()):
        argv += ["--seed", draw(mostly("7", "0", "-1", "x"))]
    for _ in range(draw(mostly(0, 1, 2))):
        argv += ["--tol-override", "%s=%s" % (draw(st.sampled_from(TOLERANCES)),
                                               draw(st.sampled_from(VALUES)))]
    if draw(st.booleans()):
        argv += ["--json", draw(mostly(json_path, missing + "/x.json"))]
    if command == "geodesic":
        state = draw(mostly("1,2,1.57,0,0.2,0.02,0.01,0.004", "1,1,1.57,0,1,0.5,0,0",
                            "1,1,0,0,1,0,0,0", "1,1,1,0,0,0,0,0", "1,2,3", "1,nan,1,0,1,0,0,0"))
        argv += ["--state", state, "--T", draw(mostly("0.05", "0", "nan", "-0.05")),
                 "--n-out", draw(mostly("5", "1")),
                 "--out", draw(mostly(out_path, missing + "/t.traj"))]
        if draw(st.booleans()):
            argv.append("--both")
    return argv


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_input_ends_in_a_documented_exit(tmp_path, data):
    config = tmp_path / "job.cfg"
    config.write_text(data.draw(configs()))
    argv = data.draw(arguments(str(config), str(tmp_path / "out.json"),
                               str(tmp_path / "traj.txt"), str(tmp_path / "missing")))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as stop:   # argparse's usage errors end here, with 64
            rc = stop.code
    assert rc in (0, 1, 2, 64), (argv, rc)
    if rc in (1, 64):
        assert (out.getvalue() + err.getvalue()).strip(), (argv, rc)
