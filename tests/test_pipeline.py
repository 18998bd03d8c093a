"""End-to-end runs of `run_pipeline` against known answers."""

import pytest

from crysred.descent import compute_budget
from crysred.errors import ConfigError
from crysred.lattices import normalize_weights
from crysred.pipeline import (
    EXIT_CONFIG,
    EXIT_CONVERGENCE,
    JobConfig,
    exit_code_for,
    run_pipeline,
)


P5_K4 = {"p": 5, "f": 1, "weights": [[4, 0]],
         "params": [{"type": "I", "a1": 1, "a2": {"coeffs": [1], "pexp": 2}}]}


def with_a2(a2):
    return dict(P5_K4, params=[{"type": "I", "a1": 1, "a2": a2}])


def f1_type_i_job(p, k):
    """f = r = 1, Type I, v(a2) one above the large-valuation gate bound."""
    c = compute_budget(normalize_weights([[k, 0]]), p).c_max
    return JobConfig.from_dict({
        "p": p, "f": 1, "r": 1, "weights": [[k, 0]],
        "params": [{"type": "I", "a1": 1, "a2": {"coeffs": [1], "pexp": c}}],
    })


class TestClassicalF1:
    # Berger-Li-Zhu (Math. Ann. 329, 2004): at large slope the reduction is
    # ind omega_2^k, which splits as omega^(k/(p+1)) twice iff (p+1) | k.
    @pytest.mark.parametrize("p, k, shape, exponents", [
        (5, 4, "Induced", (4,)),
        (7, 6, "Induced", (6,)),
        (5, 6, "Split", (1, 1)),
        (7, 8, "Split", (1, 1)),
        (3, 4, "Split", (1, 1)),
    ])
    def test_large_slope_answer(self, p, k, shape, exponents):
        report = run_pipeline(f1_type_i_job(p, k))
        assert report.error is None
        gate = report.stages["gate"]
        assert gate["valuations"] == [b + 1 for b in gate["bounds"]]
        assert report.result["shape"] == shape
        assert tuple(report.result["exponents"]) == exponents
        assert report.result["oracle_agrees"]


class TestBadInputs:
    def test_non_prime_p_is_config_error(self):
        with pytest.raises(ConfigError):
            JobConfig.from_dict({
                "p": 9, "f": 1, "weights": [[3, 0]],
                "params": [{"type": "I", "a1": 1, "a2": 9}],
            })

    def test_equal_weights_give_stage_tagged_error(self):
        report = run_pipeline(JobConfig.from_dict({
            "p": 5, "f": 1, "weights": [[2, 2]],
            "params": [{"type": "I", "a1": 1, "a2": 25}],
        }))
        assert report.result is None
        assert report.error["stage"] == "preflight"
        assert report.error["type"] == "IrregularWeights"
        assert exit_code_for(report) == EXIT_CONFIG

    @pytest.mark.parametrize("data", [
        dict(P5_K4, weights=[[2.5, 0]]),
        dict(P5_K4, weights=[["4", 0]]),
        dict(P5_K4, precision=[30.5, 8]),
        dict(P5_K4, precision=[30, 1.5]),
        dict(P5_K4, precision=30),
        dict(P5_K4, precision=[30, 8, 1]),
        dict(P5_K4, weights=4),
        dict(P5_K4, r=0),
        dict(P5_K4, r=-1),
        dict(P5_K4, r=1.0),
        dict(P5_K4, target_iterations=2.5),
        dict(P5_K4, target_iterations=0),
        dict(P5_K4, params=[{"matrix": 3}]),
    ])
    def test_malformed_fields_are_config_errors(self, data):
        with pytest.raises(ConfigError):
            JobConfig.from_dict(data)

    @pytest.mark.parametrize("data, stage, etype, code", [
        (with_a2({"coeffs": [1], "pexp": -1}), "config", "ConfigError", EXIT_CONFIG),
        (with_a2({"coeffs": [1], "pexp": 1.5}), "config", "ConfigError", EXIT_CONFIG),
        (dict(P5_K4, precision=[3, 1]), "det_normalize", "PrecisionExhausted",
         EXIT_CONVERGENCE),
    ])
    def test_stage_tagged_errors(self, data, stage, etype, code):
        report = run_pipeline(JobConfig.from_dict(data))
        assert report.result is None
        assert (report.error["stage"], report.error["type"]) == (stage, etype)
        assert exit_code_for(report) == code
