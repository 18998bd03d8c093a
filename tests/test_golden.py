"""Pinned report bytes for a few small jobs."""

import hashlib

import pytest

from crysred.pipeline import JobConfig, run_pipeline

GOLDEN = {
    "f1-p5-k4": (
        {"p": 5, "f": 1, "r": 1, "weights": [[4, 0]],
         "params": [{"type": "I", "a1": 1, "a2": {"coeffs": [1], "pexp": 2}}]},
        "a2a86f55a98d5c6847ff7a19e17ceb94b81b05f09f152afae4e6dae7fbe28108"),
    "f2-r2-mixed": (
        {"p": 3, "f": 2, "r": 2, "weights": [[1, 0], [2, 0]],
         "params": [
             {"type": "I", "a1": {"coeffs": [1, 1]},
              "a2": {"coeffs": [2, 1], "pexp": 1}},
             {"type": "II", "a1": {"coeffs": [2, 1]},
              "a2": {"coeffs": [1, 2], "pexp": 2}}]},
        "e98e8d6e0b4ff3291736477d8f1f1220ab834a4deba84651fbbe4adea2a4be69"),
    # the p = 5, k = 3 Type I job with a2 = 10 under the parabolic
    # transform x = 3
    "f1-explicit": (
        {"p": 5, "f": 1, "weights": [[3, 0]],
         "params": [{"matrix": [[3, -1094], [1, -365]]}]},
        "ab90e90a853103e7baada580a8eb3659b6cab2fdb5faac12bf1c2c60eb34b1f8"),
    "gate-stop": (
        {"p": 5, "f": 1, "weights": [[4, 0]],
         "params": [{"type": "I", "a1": 1, "a2": {"coeffs": [1], "pexp": 1}}]},
        "9ab075ecb8d1f3aa03e83097201ce3faf76ced4db183bc139588546475ebe5bd"),
    "equal-weights": (
        {"p": 5, "f": 1, "weights": [[2, 2]],
         "params": [{"type": "I", "a1": 1, "a2": 25}]},
        "0ebef962c0f5e27ea0428fb7435c2a85014b28f01c841410fb19b639d801b5f4"),
    # long E-adic support: the override M = 208 (the default is 48), so
    # S_F elements fill many slots
    "f1-p13-k14": (
        {"p": 13, "f": 1, "r": 1, "weights": [[14, 0]], "precision": [208, 16],
         "params": [{"type": "I", "a1": 1, "a2": {"coeffs": [3], "pexp": 2}}]},
        "f33d7bd24d808e04ec145ba2deb30305c883e1296ed84414d2cb55fd70faf795"),
    # r = 1 at p = 3 (M = 96, nwork = 62): the deepest carry factors of a
    # single-value slot
    "f1-p3-k4": (
        {"p": 3, "f": 1, "r": 1, "weights": [[4, 0]],
         "params": [{"type": "I", "a1": 2, "a2": {"coeffs": [1], "pexp": 4}}]},
        "87f17ed13a80087729e9d65b4605d3bde94b47e08abd2fb8b4c135766a59edda"),
    # r = 4 > f: every O_F product goes through the residue-polynomial fold
    "f2-r4-p7": (
        {"p": 7, "f": 2, "r": 4, "weights": [[3, 0], [3, 0]],
         "params": [
             {"type": "I", "a1": {"coeffs": [1, 2, 0, 1]},
              "a2": {"coeffs": [1, 3], "pexp": 1}},
             {"type": "I", "a1": {"coeffs": [2, 0, 1]},
              "a2": {"coeffs": [3, 0, 0, 1], "pexp": 1}}]},
        "6d8fc1866c482e32d4792d3d2230915e4301e39dfa9983f33036fc77ba174385"),
    # p = 3, f = r = 3 (M = 57, nwork = 37): the deepest carry padding
    # and two fold rows in every S_F product
    "f3-r3-p3-mixed": (
        {"p": 3, "f": 3, "r": 3, "weights": [[2, 0], [1, 0], [1, 0]],
         "params": [
             {"type": "II", "a1": {"coeffs": [1, 2, 1]},
              "a2": {"coeffs": [2, 0, 1], "pexp": 2}},
             {"type": "I", "a1": {"coeffs": [2, 1]},
              "a2": {"coeffs": [1, 1, 2], "pexp": 1}},
             {"type": "II", "a1": {"coeffs": [1, 0, 2]},
              "a2": {"coeffs": [2, 2], "pexp": 1}}]},
        "c9bcd5e06bcdf4dbe1a2124d4f756e412cc118bb58c6b4331f486ea9f63f5e6a"),
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
