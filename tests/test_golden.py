"""`verify --json` on fixed jobs against golden reports, byte for byte.

The reports under ``golden/`` pin the default JSON output: Example 1 (with
its parameter and require lines), the exponential example, a class-3
fixture (``make_class3(41)``) and the flat class-4 connection, whose
potential reads itself, each at ``--grid 7x7`` with 20 samples.  A
change that moves any number, key or verdict in them fails here; one that
means to do so regenerates the reports and says why.  The reports hold no
path, so they are also the same under every PYTHONHASHSEED.
"""

import os

import pytest

from berwald.cli import EXIT_OK, main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@pytest.mark.parametrize("name", ["ex1", "exponential", "class3", "flat_cartesian"])
def test_verify_report_is_byte_identical(name, tmp_path):
    out = tmp_path / ("%s.json" % name)
    rc = main(["verify", os.path.join(GOLDEN, name + ".cfg"), "--grid", "7x7",
               "--json", str(out), "--quiet"])
    assert rc == EXIT_OK
    with open(os.path.join(GOLDEN, name + ".json"), "rb") as fh:
        assert out.read_bytes() == fh.read()
