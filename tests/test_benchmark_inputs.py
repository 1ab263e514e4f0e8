"""The benchmark's inputs are pinned: the config texts that perfbench/jobs.py
generates for each workload and seed.  The generated class-3 and class-5
profiles are built with the field algebra and printed with
``ScalarField.source()``, so a change to how fields compose or print could
move a benchmark input unnoticed.  A change that moves a digest says which
configs moved and why, as it changes what the benchmark measures."""

import hashlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
sys.path.insert(0, PERFBENCH)
import jobs  # noqa: E402

# SHA-256 of the workload's config texts, in job order, concatenated
DIGESTS = {
    ("certify", 3): "75ffd9887dd9d45cf437b42afd6f1b4a1b53d2ea17e35d52186aad157bfdb826",
    ("certify", 7): "c3a5347251b3c196aa3faeee733f2945e42418e443ea3f793f2d01d3e8aec264",
    ("certify", 11): "0d26bfb329cc8bca3b4884cd407e86069b5163ebcca1281c9bde3ab1efa36c68",
    ("certify", 23): "d49d08359e1b16e87b6f2c9dbc9c8e0efddee89e99960b2caa3deebc4836def3",
    ("certify", 37): "c682d69dd4a101b8922c108ef38f528589e91d4d32a9b1d97567204de9fe8b18",
    ("classify_sweep", 3): "1670107ded06a80064bde4b26714b076319c73445c4397743d0b9fa7a6234aa8",
    ("classify_sweep", 7): "9a48c5dad8249a4a0141ca6e9e0c1276230fd349d77c7b914f486e71c34d853c",
    ("classify_sweep", 11): "5a2079bc45b4dbc316aa483e29da08f8bb58c33add1d2c89914d36cb2a8f9842",
    ("classify_sweep", 23): "9a3342d97c25c8bffb37f66d5779dfcb77147248a3dabbb51f82e7ed2e248528",
    ("classify_sweep", 37): "040067093713a11e3c7bf2ac995344e029e839eac7bb5c4b9ef0256a722cf6d0",
    ("geodesic", 3): "0ca82c30be684b23533a29444bc697cc1ac92fddf3d563b91b99ad9f1ec4a87d",
    ("geodesic", 7): "bb1963c23d3059db012b47c62709f029dafef379e52d56d7c8b7462d78211b9f",
    ("geodesic", 11): "e157b249ed19a2f67c052b0645b01f62e98751f5de4d724415d19c9a98d330a3",
    ("geodesic", 23): "6495cd88a3531fc193399ca6a8d030792610e29919d81bd5e0d5ade2c5762c5a",
    ("geodesic", 37): "dc06443fdcdefb3fd65fc24a5a5961835723bc614535dbf3d691cb34c80c613a",
}


@pytest.mark.parametrize("workload, seed", sorted(DIGESTS))
def test_generated_configs_are_pinned(workload, seed):
    digest = hashlib.sha256()
    for job in jobs.WORKLOADS[workload](seed):
        digest.update(job.config.encode())
    assert digest.hexdigest() == DIGESTS[workload, seed]
