"""Pinned report bytes for a few small jobs."""

import hashlib

import pytest

from crysred.pipeline import JobConfig, run_pipeline

GOLDEN = {
    "f1-p5-k4": (
        {"p": 5, "f": 1, "r": 1, "weights": [[4, 0]],
         "params": [{"type": "I", "a1": 1, "a2": {"coeffs": [1], "pexp": 2}}]},
        "4aa296d331673d1e7ef7e5afbf3c5c13c8092008d0da0697d0e911cf010aa095"),
    "f2-r2-mixed": (
        {"p": 3, "f": 2, "r": 2, "weights": [[1, 0], [2, 0]],
         "params": [
             {"type": "I", "a1": {"coeffs": [1, 1]},
              "a2": {"coeffs": [2, 1], "pexp": 1}},
             {"type": "II", "a1": {"coeffs": [2, 1]},
              "a2": {"coeffs": [1, 2], "pexp": 2}}]},
        "309ac3c20c2db6bb2a11576bc602814b76b17b5388a74db1b05d06a7de6719d6"),
    # the p = 5, k = 3 Type I job with a2 = 10 under the parabolic
    # transform x = 3
    "f1-explicit": (
        {"p": 5, "f": 1, "weights": [[3, 0]],
         "params": [{"matrix": [[3, -1094], [1, -365]]}]},
        "1af90d67e027a262d3d5eb2c75ea67c59533e926a008625561a4ed0257aae05b"),
    "gate-stop": (
        {"p": 5, "f": 1, "weights": [[4, 0]],
         "params": [{"type": "I", "a1": 1, "a2": {"coeffs": [1], "pexp": 1}}]},
        "e039702c31676a2da3db31da6e291b5a7ae567ff14534aac8a8316c2c4089f30"),
    "equal-weights": (
        {"p": 5, "f": 1, "weights": [[2, 2]],
         "params": [{"type": "I", "a1": 1, "a2": 25}]},
        "e36209516c4858a691be7af6a7a1b6ef091257b9d0b3083dd114afb1457f3512"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_are_pinned(name):
    """The deterministic report JSON is byte-identical to the pinned one.

    A refactor must keep these hashes.  A deliberate change of the report
    (new field, different answer, different message) updates the hash here
    and explains the change in CHANGES.md.
    """
    data, digest = GOLDEN[name]
    report_json = run_pipeline(JobConfig.from_dict(data)).to_json()
    assert hashlib.sha256(report_json.encode()).hexdigest() == digest
