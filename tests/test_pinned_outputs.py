"""Run files pinned across commits: three short runs through the command
line must write the same bytes as they did when their digests below were
recorded, at commit 5a8df1a.  The sr-fgo digests of errors.csv,
smoothed.csv, summary.json and trajectory.csv were re-recorded in the commit
after 0b9b13d, when mitigation stopped solving the GPS-stripped window and
began to dead-reckon it from the anchor's prior, its exact optimum: the
estimates moved by about 1e-9 m, and auth.csv and detections.csv kept their
bytes.

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
        "errors.csv": "c531a15fcc413a4ca885c5a6538ed1332049fed715a4c0e90927ba5505b2a439",
        "smoothed.csv": "db2b661f86bfea8e2d6f0ca6aed3e8de718b6664a15d39e3f1b9ce2565357350",
        "summary.json": "c81b0a968d366f6e5464edfb38fed08350cc72896178d2999b65304f051321d3",
        "trajectory.csv": "93c3c797dd9f5fd38f1ea37971f85d2f14594c182397d78b1ab9b0924c5e49e7",
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
