"""Run files pinned across commits: three short runs through the command
line must write the same bytes as they did when their digests below were
recorded, at commit 5a8df1a.

A change that means to alter run outputs updates these digests and says
why.  The digests hold only for the numpy and scipy they were recorded
with; under any other version the test skips.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
import scipy

from srfgo.cli import main

RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}

RUNS = {
    "sr-fgo": ("--mode", "sr-fgo", "--duration", "200", "--ramp-rate", "1",
               "--window-size", "20"),
    "naive-fgo": ("--mode", "naive-fgo", "--duration", "180", "--window-size", "20"),
    "odometry-only": ("--mode", "odometry-only", "--duration", "180"),
}

# sha256 of every file of each run directory except timing.json, at seed 1.
DIGESTS = {
    "sr-fgo": {
        "auth.csv": "63e77dedb47bf061be14a836ce4ec6b9e24006968f3db345f32b75aa1c59ae80",
        "detections.csv": "4f5a345ff4b46d6e75a6d291876d064da3a0af94b6f3afbb7b58166aa764322f",
        "errors.csv": "d67f71bea06d2fd86648145eb2ca2f7aaa3b26d94be50de30c434cc67f80790d",
        "smoothed.csv": "c6c48d1b3761804d8293369ec2d96fc9ba1b7d476f0f95da8c928f73a19515a1",
        "summary.json": "f9236a3dd086db201b69a66b01ad84fb4956a575944a8b922464269b38255927",
        "trajectory.csv": "5ba8fb8f80e33b3b4a88271280219b8b8023e3e64618925c0cad708a03b95921",
    },
    "naive-fgo": {
        "auth.csv": "0066b5ae184f1dff40876394f63e5e869d5cea84e467a19f712a370696667544",
        "detections.csv": "c2d41df7fea2200796e769f5c2f28b65c071338cda173c44a88ed74313c23e1b",
        "errors.csv": "c1520ccbc7c3fd22296a370680ec7604a9405f82d291e000a180f9dfa3679f68",
        "smoothed.csv": "d57f65f8a9f318a80aa2b5c90cbb458503a7189253d73a1409b0e176090a558c",
        "summary.json": "f9971ae9bd3306433b1b5f2aab905c92c376f25b9f28dfc282d965c27fdb1bc8",
        "trajectory.csv": "945d7c884f21b011159038e8eed4e9700bdf720c467654ce55d5cbc79df5fa11",
    },
    "odometry-only": {
        "auth.csv": "0066b5ae184f1dff40876394f63e5e869d5cea84e467a19f712a370696667544",
        "detections.csv": "b997b60864efea86ad43cca90dfc4dcb36047ed71c7b2e45d2945ce8bcbf1c68",
        "errors.csv": "d34f7b299a5d9b34807907011df86babf480709c763e94684231fe831ba83354",
        "smoothed.csv": "23f1a0ad007e55845c319ba53b462510c3535491da32e44d07867715a603cd28",
        "summary.json": "c3cfccd4bb34fa20e880fc1c5431fe391aa7524356fefb0947ab4efac0feb040",
        "trajectory.csv": "9edec614942b5e8fda641d8dc88d4e141bff98526ffb1714365f4979f90f3ba7",
    },
}


@pytest.mark.skipif(
    {"numpy": np.__version__, "scipy": scipy.__version__} != RECORDED_WITH,
    reason=f"digests recorded with numpy {RECORDED_WITH['numpy']} and "
           f"scipy {RECORDED_WITH['scipy']}")
@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_files_match_recorded_digests(tmp_path, name):
    out = tmp_path / name
    assert main(["run", *RUNS[name], "--seed", "1", "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir()) if p.name != "timing.json"}
    assert got == DIGESTS[name]
