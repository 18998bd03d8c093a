"""Known-answer tests for the benchmark's oracle.

    python3 -m pytest perfbench/test_oracle.py
"""

import pytest

from oracle import (DEFECT_SPLIT, DEFECT_T, INDUCED, OK, SPLIT, base_change,
                    classical, equivalent, explain, gate_bounds, judge)


@pytest.mark.parametrize("p, f, k, expected", [
    (5, 1, 4, (INDUCED, (4,))),
    (5, 1, 6, (SPLIT, (1, 1))),
    (3, 1, 4, (SPLIT, (1, 1))),
    (5, 3, 3, (INDUCED, (1953,))),
    (5, 4, 3, (SPLIT, (78, 390))),
])
def test_known_answers(p, f, k, expected):
    got = base_change(classical(p, k), p, f)
    assert got == expected
    assert equivalent(got, expected, p, f)


def test_equivalence_is_up_to_a_common_power_of_p():
    assert equivalent((SPLIT, (390, 78)), (SPLIT, (78, 390)), 5, 4)
    assert equivalent((INDUCED, (4 * 5,)), (INDUCED, (4,)), 5, 1)
    assert not equivalent((SPLIT, (78, 78)), (SPLIT, (78, 390)), 5, 4)
    assert not equivalent((SPLIT, (1, 1)), (INDUCED, (4,)), 5, 1)


def test_gate_bounds():
    assert gate_bounds([3, 3], 7) == [0, 0]
    assert gate_bounds([14], 13) == [1]
    assert gate_bounds([1, 2], 3) == [0, 1]


def _outcome(char, raw, odd):
    return {"char": char, "raw_sums": raw, "odd": odd}


def test_defect_attribution():
    # f = 1, p = 5, k = 4: t = 4 is read as split because 4 | t
    assert explain(_outcome((SPLIT, (1, 1)), (4, 0), True), 5, 1) == DEFECT_SPLIT
    # f = 3, p = 3, k = 1: (V, W) = (10, 3) gives t = 19 instead of 91
    assert explain(_outcome((INDUCED, (19,)), (10, 3), True), 3, 3) == DEFECT_T
    assert explain(_outcome((INDUCED, (91,)), (10, 3), True), 3, 3) == OK
    assert explain(_outcome((INDUCED, (20,)), (10, 3), True), 3, 3) == "wrong"


def _job(check, p=5, f=2):
    return {"config": {"p": p, "f": f}, "check": dict({"gate": True}, **check)}


def test_judge_relations():
    ind = _outcome((INDUCED, (7,)), (7, 0), True)
    other = _outcome((INDUCED, (8,)), (8, 0), True)
    jobs = [_job({}), _job({"rotation_of": 0}), _job({"same_as": 0}),
            _job({"gate": False})]
    gate_stop = {"error": ("gate", "GateFailed"), "char": None}
    assert judge(jobs, [ind, dict(ind, char=(INDUCED, (35,))), ind, gate_stop]) \
        == [OK, OK, OK, OK]
    assert judge(jobs, [ind, other, other, ind]) == ["wrong"] * 4
