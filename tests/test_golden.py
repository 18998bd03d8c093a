"""Pinned report bytes for a few small jobs."""

import hashlib

import pytest

from crysred.pipeline import JobConfig, run_pipeline

GOLDEN = {
    "f1-p5-k4": (
        {"p": 5, "f": 1, "r": 1, "weights": [[4, 0]],
         "params": [{"type": "I", "a1": 1, "a2": {"coeffs": [1], "pexp": 2}}]},
        "c2c2aa6551c77eec99a790f3207555e0f59058d43736f666a3e026ea45953762"),
    "f2-r2-mixed": (
        {"p": 3, "f": 2, "r": 2, "weights": [[1, 0], [2, 0]],
         "params": [
             {"type": "I", "a1": {"coeffs": [1, 1]},
              "a2": {"coeffs": [2, 1], "pexp": 1}},
             {"type": "II", "a1": {"coeffs": [2, 1]},
              "a2": {"coeffs": [1, 2], "pexp": 2}}]},
        "e2aeaff9deeec48cd5902c67138e29ea51807e22dcd69fad28125c24575c701c"),
    # the p = 5, k = 3 Type I job with a2 = 10 under the parabolic
    # transform x = 3
    "f1-explicit": (
        {"p": 5, "f": 1, "weights": [[3, 0]],
         "params": [{"matrix": [[3, -1094], [1, -365]]}]},
        "d83365ab93f04b4e911481647d64b571a952d39f51667cf7e94c3a0f7d8ea520"),
    "gate-stop": (
        {"p": 5, "f": 1, "weights": [[4, 0]],
         "params": [{"type": "I", "a1": 1, "a2": {"coeffs": [1], "pexp": 1}}]},
        "9582e7a29ce16c8386f98b38ea9c33ec9b22d01875f8c9e1d817f2b727947c68"),
    "equal-weights": (
        {"p": 5, "f": 1, "weights": [[2, 2]],
         "params": [{"type": "I", "a1": 1, "a2": 25}]},
        "0ebef962c0f5e27ea0428fb7435c2a85014b28f01c841410fb19b639d801b5f4"),
    # long E-adic support: the override M = 208 (the default is 46), so
    # S_F elements fill many slots
    "f1-p13-k14": (
        {"p": 13, "f": 1, "r": 1, "weights": [[14, 0]], "precision": [208, 16],
         "params": [{"type": "I", "a1": 1, "a2": {"coeffs": [3], "pexp": 2}}]},
        "bc2896413d69529345d41562c1e4bd7f228667ff141c65c1dc11654236f05653"),
    # r = 1 at p = 3 (M = 50, nwork = 31): the deepest carry factors of a
    # single-value slot
    "f1-p3-k4": (
        {"p": 3, "f": 1, "r": 1, "weights": [[4, 0]],
         "params": [{"type": "I", "a1": 2, "a2": {"coeffs": [1], "pexp": 4}}]},
        "ddf4bf955b61e4d7650debbc11cfb2783f1d51d283d753d1834fc0fd979054f5"),
    # r = 4 > f: every O_F product goes through the residue-polynomial fold
    "f2-r4-p7": (
        {"p": 7, "f": 2, "r": 4, "weights": [[3, 0], [3, 0]],
         "params": [
             {"type": "I", "a1": {"coeffs": [1, 2, 0, 1]},
              "a2": {"coeffs": [1, 3], "pexp": 1}},
             {"type": "I", "a1": {"coeffs": [2, 0, 1]},
              "a2": {"coeffs": [3, 0, 0, 1], "pexp": 1}}]},
        "ae298ae6e42df8056defa4505007b7f6f3b4aaf7c3c5325e8454849a267f762e"),
    # p = 3, f = r = 3 (M = 30, nwork = 19): the deepest carry padding
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
        "b74da3f23fa3890c24c2961063d74d3c79a8bc168249f12deb972f787b2bf686"),
    # explicit matrices, one of each Type, so normalization brings a Type II
    # slot to [[a1, 0], [a2, 1]]; the answer is f2-r2-mixed's ind w_4^55
    "f2-explicit-mixed": (
        {"p": 3, "f": 2, "r": 2, "weights": [[1, 0], [2, 0]],
         "params": [
             {"matrix": [[{"coeffs": [1, 1], "pexp": 1}, {"coeffs": [1, 1]}],
                         [1, {"coeffs": [2, 1], "pexp": 1}]]},
             {"matrix": [[{"coeffs": [2, 1]}, 4],
                         [{"coeffs": [1, 2], "pexp": 2}, 7]]}]},
        "a0ecd3a61dff5e09c76493a26d8db7e09a1dc6040e4057b45c0696134c188906"),
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
