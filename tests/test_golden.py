"""Pinned report bytes for a few small jobs."""

import hashlib

import pytest

from crysred.pipeline import JobConfig, run_pipeline

GOLDEN = {
    "f1-p5-k4": (
        {"p": 5, "f": 1, "r": 1, "weights": [[4, 0]],
         "params": [{"type": "I", "a1": 1, "a2": {"coeffs": [1], "pexp": 2}}]},
        "3f418e44569545c1917413b31c959c328125f078f37c9bc68d900fa0187dfcd4"),
    "f2-r2-mixed": (
        {"p": 3, "f": 2, "r": 2, "weights": [[1, 0], [2, 0]],
         "params": [
             {"type": "I", "a1": {"coeffs": [1, 1]},
              "a2": {"coeffs": [2, 1], "pexp": 1}},
             {"type": "II", "a1": {"coeffs": [2, 1]},
              "a2": {"coeffs": [1, 2], "pexp": 2}}]},
        "02d941ce2005c6acd1f44b77d0267e22d7ae8b2381394d089400b91360850591"),
    # the p = 5, k = 3 Type I job with a2 = 10 under the parabolic
    # transform x = 3
    "f1-explicit": (
        {"p": 5, "f": 1, "weights": [[3, 0]],
         "params": [{"matrix": [[3, -1094], [1, -365]]}]},
        "d83365ab93f04b4e911481647d64b571a952d39f51667cf7e94c3a0f7d8ea520"),
    "gate-stop": (
        {"p": 5, "f": 1, "weights": [[4, 0]],
         "params": [{"type": "I", "a1": 1, "a2": {"coeffs": [1], "pexp": 1}}]},
        "3c7353daf8a4490195ad2e498734b7601b11f70edc767e7222ecf3b1f2320793"),
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
        "45ef87b378e2421fc28e9accc21e93a2c2a916ba38c21f13f943002fe602483c"),
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
        "f32244e825a422446b8c3fc0881a67a4d8895ef2b6da75e0d86fd95ba948c6b2"),
    # explicit matrices, one of each Type, so normalization brings a Type II
    # slot to [[a1, 0], [a2, 1]]; the answer is f2-r2-mixed's ind w_4^55
    "f2-explicit-mixed": (
        {"p": 3, "f": 2, "r": 2, "weights": [[1, 0], [2, 0]],
         "params": [
             {"matrix": [[{"coeffs": [1, 1], "pexp": 1}, {"coeffs": [1, 1]}],
                         [1, {"coeffs": [2, 1], "pexp": 1}]]},
             {"matrix": [[{"coeffs": [2, 1]}, 4],
                         [{"coeffs": [1, 2], "pexp": 2}, 7]]}]},
        "071232d519a4f276f2d94998e6dcf5a9f59a9ba2828aeb01dba7950a2ef310e2"),
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
