"""`verify --json` and `geodesic --both` on fixed jobs against golden
outputs, byte for byte.

The reports under ``golden/`` pin the default JSON output: Example 1 (with
its parameter and require lines), the exponential example, a class-3
fixture (``make_class3(41)``), the flat class-4 connection, whose
potential reads itself, and the class-4 connection k1 = 1, k5 = 1/r, the
one whose transport of h redoes lines gap by gap and bisects gaps, each at
``--grid 7x7`` with 20 samples.  A change that moves any number, key or
verdict in them fails here; one that means to do so regenerates the reports
and says why.  The reports hold no path, so they are also the same under
every PYTHONHASHSEED.

The Finsler examples also pin `geodesic --both` over T = 0.1 at 20 states:
both trajectory files (``<name>.traj``, ``<name>.traj.finsler``) and the
JSON report less its two path keys (``<name>.geodesic.json``).  The
class-3 one carries three potentials, G, K and M, in its ODE state.
"""

import json
import os

import pytest

from berwald.cli import EXIT_OK, main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@pytest.mark.parametrize("name", ["ex1", "exponential", "class3", "flat_cartesian",
                                  "class4_general"])
def test_verify_report_is_byte_identical(name, tmp_path):
    out = tmp_path / ("%s.json" % name)
    rc = main(["verify", os.path.join(GOLDEN, name + ".cfg"), "--grid", "7x7",
               "--json", str(out), "--quiet"])
    assert rc == EXIT_OK
    with open(os.path.join(GOLDEN, name + ".json"), "rb") as fh:
        assert out.read_bytes() == fh.read()


# the start states of the perfbench geodesic jobs (theta = pi/2)
GEODESIC_STATES = {"ex1": "1,2,1.5707963267948966,0,0.2,0.02,0.01,0.004",
                   "exponential": "1,1,1.5707963267948966,0,1,0.5,0.1,0.05",
                   "class3": "1,1,1.5707963267948966,0,1,0.5,0.1,0.05"}


@pytest.mark.parametrize("name", sorted(GEODESIC_STATES))
def test_geodesic_both_is_byte_identical(name, tmp_path):
    traj, report = tmp_path / (name + ".traj"), tmp_path / "geodesic.json"
    rc = main(["geodesic", os.path.join(GOLDEN, name + ".cfg"), "--state",
               GEODESIC_STATES[name], "--T", "0.1", "--n-out", "20", "--both",
               "--out", str(traj), "--json", str(report), "--quiet"])
    assert rc == EXIT_OK
    for suffix in (".traj", ".traj.finsler"):
        with open(os.path.join(GOLDEN, name + suffix), "rb") as fh:
            assert (tmp_path / (name + suffix)).read_bytes() == fh.read()
    doc = json.loads(report.read_text())
    assert doc.pop("trajectory_file") == str(traj)
    assert doc.pop("finsler_trajectory_file") == str(traj) + ".finsler"
    with open(os.path.join(GOLDEN, name + ".geodesic.json"), "rb") as fh:
        assert (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode() == fh.read()
