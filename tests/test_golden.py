"""Pinned report bytes for a few small jobs."""

import hashlib

import pytest

from crysred.pipeline import JobConfig, run_pipeline

GOLDEN = {
    "f1-p5-k4": (
        {"p": 5, "f": 1, "r": 1, "weights": [[4, 0]],
         "params": [{"type": "I", "a1": 1, "a2": {"coeffs": [1], "pexp": 2}}]},
        "2cd986d52efa27c6dd225d1e60e1affc14b1f8815422b37bf781cbb5709e738d"),
    "f2-r2-mixed": (
        {"p": 3, "f": 2, "r": 2, "weights": [[1, 0], [2, 0]],
         "params": [
             {"type": "I", "a1": {"coeffs": [1, 1]},
              "a2": {"coeffs": [2, 1], "pexp": 1}},
             {"type": "II", "a1": {"coeffs": [2, 1]},
              "a2": {"coeffs": [1, 2], "pexp": 2}}]},
        "1a7c836c87c38ce7b3faf2af1a3a107b6d7e2ed66c203f1c2532caae9d279d8d"),
    # the p = 5, k = 3 Type I job with a2 = 10 under the parabolic
    # transform x = 3
    "f1-explicit": (
        {"p": 5, "f": 1, "weights": [[3, 0]],
         "params": [{"matrix": [[3, -1094], [1, -365]]}]},
        "647b93675b668ba7cef04347e750e1c3d16571e6666793c6db9c5a7afc98022d"),
    "gate-stop": (
        {"p": 5, "f": 1, "weights": [[4, 0]],
         "params": [{"type": "I", "a1": 1, "a2": {"coeffs": [1], "pexp": 1}}]},
        "cadb2c6ba2ef013921dddf4c05c7160e8669478958736a2dcd8ff6df222001e4"),
    "equal-weights": (
        {"p": 5, "f": 1, "weights": [[2, 2]],
         "params": [{"type": "I", "a1": 1, "a2": 25}]},
        "0ebef962c0f5e27ea0428fb7435c2a85014b28f01c841410fb19b639d801b5f4"),
    # long E-adic support: M = 208, so S_F elements fill many slots
    "f1-p13-k14": (
        {"p": 13, "f": 1, "r": 1, "weights": [[14, 0]],
         "params": [{"type": "I", "a1": 1, "a2": {"coeffs": [3], "pexp": 2}}]},
        "c6cf96489ea41b63c7a5cf86152a38c2f83af8c8cf0e3b2adaeabdfe646ad45a"),
    # r = 4 > f: every O_F product goes through the residue-polynomial fold
    "f2-r4-p7": (
        {"p": 7, "f": 2, "r": 4, "weights": [[3, 0], [3, 0]],
         "params": [
             {"type": "I", "a1": {"coeffs": [1, 2, 0, 1]},
              "a2": {"coeffs": [1, 3], "pexp": 1}},
             {"type": "I", "a1": {"coeffs": [2, 0, 1]},
              "a2": {"coeffs": [3, 0, 0, 1], "pexp": 1}}]},
        "1ee705eb487b4c6b6b2162c223ca759e64eec4170c06cec54fb2b29fc4648772"),
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
