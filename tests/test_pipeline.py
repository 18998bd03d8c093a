"""End-to-end runs of `run_pipeline` against known answers."""

import gc
import itertools
import json
import math
import random
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crysred.descent
import crysred.kisin
import crysred.lattices
import crysred.reduction
from crysred import pipeline
from crysred.descent import compute_budget, estimate_iterations, read_off_window
from crysred.errors import ConfigError, PrecisionExhausted
from crysred.lattices import normalize_weights
from crysred.pipeline import (
    EXIT_CONFIG,
    EXIT_CONVERGENCE,
    EXIT_INTERNAL,
    EXIT_REDUCIBLE,
    JobConfig,
    exit_code_for,
    preflight_precision,
    run_pipeline,
)
from crysred.arith import PrimeContext
from crysred.sring import PhiExpPoly, SElem, s_frobenius

from conftest import benchmark_workloads
from test_golden import GOLDEN
from test_sring import agreement
from useries_ref import e_pow


P5_K4 = {"p": 5, "f": 1, "weights": [[4, 0]],
         "params": [{"type": "I", "a1": 1, "a2": {"coeffs": [1], "pexp": 2}}]}


def with_a2(a2):
    return dict(P5_K4, params=[{"type": "I", "a1": 1, "a2": a2}])


def f1_type_i_job(p, k, a2=None):
    """f = r = 1, Type I; by default v(a2) is one above the large-valuation
    gate bound."""
    if a2 is None:
        c = compute_budget(normalize_weights([[k, 0]]), p).c_max
        a2 = {"coeffs": [1], "pexp": c}
    return JobConfig.from_dict({
        "p": p, "f": 1, "r": 1, "weights": [[k, 0]],
        "params": [{"type": "I", "a1": 1, "a2": a2}],
    })


# Berger-Li-Zhu (Math. Ann. 329, 2004): at large slope, a_p = 0 included,
# the reduction is ind omega_2^k, which splits as omega^(k/(p+1)) twice iff
# (p+1) | k.
CLASSICAL_F1 = [
    (5, 4, "Induced", (4,)),
    (7, 6, "Induced", (6,)),
    (5, 6, "Split", (1, 1)),
    (7, 8, "Split", (1, 1)),
    (3, 4, "Split", (1, 1)),
]


class TestClassicalF1:
    def check(self, report, shape, exponents, valuations):
        assert report.error is None
        gate = report.stages["gate"]
        assert gate["valuations"] == valuations(gate["bounds"])
        assert report.result["shape"] == shape
        assert tuple(report.result["exponents"]) == exponents

    @pytest.mark.parametrize("p, k, shape, exponents", CLASSICAL_F1)
    def test_large_slope_answer(self, p, k, shape, exponents):
        self.check(run_pipeline(f1_type_i_job(p, k)), shape, exponents,
                   lambda bounds: [b + 1 for b in bounds])

    @pytest.mark.parametrize("p, k, shape, exponents", CLASSICAL_F1)
    def test_zero_a2_answer(self, p, k, shape, exponents):
        self.check(run_pipeline(f1_type_i_job(p, k, a2=0)), shape, exponents,
                   lambda bounds: ["inf"])

    # BLZ holds for every k; these weights lie above p + 1, at the default
    # precision
    @pytest.mark.parametrize("p, k", [(5, 12), (5, 14), (7, 20), (11, 24), (13, 13)])
    def test_weight_above_p_plus_one(self, p, k):
        assert answer(run_pipeline(f1_type_i_job(p, k))) == classical(p, k)


# Oracle helpers, copied from the benchmark's oracle so that these tests do
# not depend on it.  A character is ("Split", (a, b)) for
# omega_f^a + omega_f^b or ("Induced", (t,)) for ind omega_2f^t.

def classical(p, k):
    """Berger-Li-Zhu at large slope: ind omega_2^k, split iff (p+1) | k."""
    if k % (p + 1) == 0:
        e = (k // (p + 1)) % (p - 1)
        return "Split", (e, e)
    return "Induced", (k % (p * p - 1),)


def twisted_f1(char, s, p):
    """char (x) omega^s at f = 1; omega = omega_2^(p+1)."""
    shape, ex = char
    if shape == "Split":
        return shape, tuple((e + s) % (p - 1) for e in ex)
    return shape, ((ex[0] + s * (p + 1)) % (p * p - 1),)


def base_change(char, p, f, f0=1):
    """Restrict a character of the unramified field of degree f0 to the one
    of degree f, a multiple of f0."""
    shape, ex = char
    mod_f = p ** f - 1
    if shape == "Split":
        s = mod_f // (p ** f0 - 1)
        return "Split", tuple(e * s % mod_f for e in ex)
    (t,) = ex
    if (f // f0) % 2:
        mod_2f = p ** (2 * f) - 1
        return "Induced", (t * (mod_2f // (p ** (2 * f0) - 1)) % mod_2f,)
    q = mod_f // (p ** (2 * f0) - 1)
    return "Split", (t * q % mod_f, t * q * p ** f0 % mod_f)


def equivalent(a, b, p, f):
    """Same character up to a common factor p^j on the exponents."""
    if a[0] != b[0]:
        return False
    if a[0] == "Split":
        mod = p ** f - 1
        target = sorted(e % mod for e in b[1])
        return any(sorted(e * p ** j % mod for e in a[1]) == target
                   for j in range(f))
    mod = p ** (2 * f) - 1
    (t,), (u,) = a[1], b[1]
    return any(t * p ** j % mod == u % mod for j in range(2 * f))


def type_i_job(p, pairs):
    """All-Type-I job with a1 = 1 and v(a2) one above the gate bound."""
    c = compute_budget(normalize_weights(pairs), p).c_max
    slot = {"type": "I", "a1": 1, "a2": {"coeffs": [1], "pexp": c}}
    return JobConfig.from_dict({"p": p, "f": len(pairs), "weights": pairs,
                                "params": [slot] * len(pairs)})


def answer(report):
    assert report.error is None
    return report.result["shape"], tuple(report.result["exponents"])


def mixed_job(p, ks, types):
    """Lower weights 0, a1 = 1 and v(a2) one above the gate bound."""
    pairs = [[k, 0] for k in ks]
    c = compute_budget(normalize_weights(pairs), p).c_max
    return {"p": p, "f": len(pairs), "weights": pairs,
            "params": [{"type": t, "a1": 1, "a2": {"coeffs": [1], "pexp": c}}
                       for t in types]}


def rotate(config):
    """The same job with every per-slot list moved one slot round."""
    out = dict(config)
    out["weights"] = config["weights"][1:] + config["weights"][:1]
    out["params"] = config["params"][1:] + config["params"][:1]
    return out


def least_certifying_m(p, k, n):
    """The least M whose phi truncation leaves N exact digits after a
    division by E^k, (M - k) - floor((M - k)/p) >= N, and that reaches
    the read-off window L."""
    m = k + 1
    while (m - k) - (m - k) // p < n:
        m += 1
    return max(m, read_off_window(p, k))


class TestSmallEAdicPrecision:
    """f = 1 Type I jobs with an E-adic precision override far below the
    default.  An M that leaves fewer than N exact digits of phi after the
    E^k division, or that lies below the read-off window L, stops at
    `preflight`; every other M reaches the lambda closed form and gives
    the Berger-Li-Zhu answer, or stops honestly.
    At the first ten windows a truncated Frobenius once built lambda_b
    wrongly and the jobs stopped with DetCheckFailed.  At (3, 4, 15) the
    descended entries once lacked the digits to read u-coordinates of
    every slot below M, and the job stopped at `descend`; the read-off
    window L = 8 needs fewer.  (5, 8, 15), (5, 12, 25) and (7, 20, 44)
    stopped at `preflight` while the default N was max(k + 2, c_max + 4),
    10, 14 and 22 there; N is now sized by its readers and is 5 at all
    three, so these windows certify and give the BLZ answer.  At (11, 24)
    N was 6 while the reducibility need counted nwork > k_max for every
    job; that need holds only where an a2 vanishes at nwork, so N is 5 and
    the least certifying M moves from 30 to 29.  Each least
    certifying M is listed with the window one below it, which stops."""

    # windows that stop, with the stage; every other window gives BLZ
    STOPS = {(3, 1, 4): "preflight", (3, 4, 5): "preflight",
             (5, 12, 13): "preflight",
             (3, 1, 7): "preflight", (3, 2, 8): "preflight",
             (3, 4, 10): "preflight", (5, 4, 9): "preflight",
             (5, 8, 13): "preflight", (5, 12, 17): "preflight",
             (7, 6, 10): "preflight", (7, 20, 24): "preflight",
             (11, 12, 16): "preflight", (11, 24, 28): "preflight",
             (13, 13, 17): "preflight", (13, 14, 18): "preflight"}

    @pytest.mark.parametrize("p, k, m", [
        (3, 1, 4), (3, 1, 9), (3, 4, 5), (3, 4, 28), (5, 8, 15), (5, 8, 25),
        (5, 12, 13), (5, 12, 25), (7, 20, 44), (7, 20, 49),
        # windows above the least certifying M
        (3, 2, 10), (3, 4, 15), (5, 4, 11), (5, 8, 20), (5, 12, 29),
        (7, 6, 15), (7, 20, 45), (11, 12, 27), (11, 24, 30), (11, 24, 52),
        (13, 13, 29), (13, 14, 31),
        # the least certifying M, and the window one below it
        (3, 1, 7), (3, 1, 8), (3, 2, 8), (3, 2, 9), (3, 4, 10), (3, 4, 11),
        (5, 4, 9), (5, 4, 10), (5, 8, 13), (5, 8, 14), (5, 12, 17),
        (5, 12, 18), (7, 6, 10), (7, 6, 11), (7, 20, 24), (7, 20, 25),
        (11, 12, 16), (11, 12, 17), (11, 24, 28), (11, 24, 29),
        (13, 13, 17), (13, 13, 18), (13, 14, 18), (13, 14, 19)])
    def test_blz_answer(self, p, k, m):
        cfg = f1_type_i_job(p, k)
        n = preflight_precision(cfg)["N"]
        report = run_pipeline(JobConfig.from_dict(dict(cfg.serial(), precision=[m, n])))
        stage = self.STOPS.get((p, k, m))
        if stage is None:
            assert answer(report) == classical(p, k)
        else:
            assert report.result is None
            assert (report.error["stage"], report.error["type"]) == (
                stage, "PrecisionExhausted")
        assert (stage == "preflight") == (m < least_certifying_m(p, k, n))


def phi_agreement(p, m, nwork, k, rng):
    """(claimed, agreed): the precision of phi(x) for x known only mod
    Fil^(M - k) at (M, nwork), and the digits in which it agrees with phi,
    in a 3M-slot context, of the same x with random slots from M - k on
    (least over a few random x)."""
    small = PrimeContext(p=p, f=1, n=1, m=m, nwork=nwork)
    big = PrimeContext(p=p, f=1, n=1, m=3 * m, nwork=nwork)
    mod = small.ppow(nwork)
    claimed, agreed = nwork, nwork
    for _ in range(3):
        head = [rng.randrange(mod) for _ in range(m - k)]
        got = s_frobenius(SElem(small, head))
        want = s_frobenius(SElem(big, head + [rng.randrange(mod)
                                              for _ in range(2 * m + k)]))
        claimed = min(claimed, got.prec)
        agreed = min(agreed, agreement(got, want, m, nwork))
    return claimed, agreed


class TestCertifiedPrecision:
    """The preflight's default (M, nwork) keeps every digit that phi
    claims exact, for the inputs the pipeline gives phi: elements just
    divided by E^k, so known only mod Fil^(M - k)."""

    @pytest.mark.parametrize("p, k", [(3, 1), (3, 4), (5, 1), (5, 6), (7, 8),
                                      (7, 20), (13, 1), (13, 14)])
    def test_phi_exact_at_default_precision(self, p, k):
        pf = preflight_precision(f1_type_i_job(p, k))
        claimed, agreed = phi_agreement(p, pf["M"], pf["nwork"], k,
                                        random.Random(p * 100 + k))
        assert claimed == pf["nwork"] <= agreed

    def test_old_default_overclaimed(self):
        # the old rule M = 2 p c_max 4 gave (M, nwork) = (24, 24) at
        # p = 3, k = 1; phi is exact there in only 16 digits
        assert phi_agreement(3, 24, 24, 1, random.Random(1))[1] == 16

    def test_default_m_is_least(self):
        # p = 5, k = 4: the window is L = 7 and N = 5, so nwork(M) = 16
        # at M = 21..24 (one iteration), and b(M) = (M - 4) - floor((M - 4)/5)
        # reaches 16 first at M = 23; at M = 22 the override's nwork is
        # capped at b(22) = 15
        cfg = f1_type_i_job(5, 4)
        pf = preflight_precision(cfg)
        assert (pf["M"], pf["N"], pf["nwork"]) == (23, 5, 16)
        lower = dict(cfg.serial(), precision=[22, 5])
        assert preflight_precision(JobConfig.from_dict(lower))["nwork"] == 15

    def test_override_below_the_window_stops(self):
        # p = 3, k = 4: L = 8, and M = 7 leaves b(7) = 2 >= N = 1 digits
        cfg = dict(f1_type_i_job(3, 4).serial(), precision=[7, 1])
        with pytest.raises(PrecisionExhausted, match="window L = 8"):
            preflight_precision(JobConfig.from_dict(cfg))
        report = run_pipeline(JobConfig.from_dict(cfg))
        assert (report.error["stage"], report.error["type"]) == (
            "preflight", "PrecisionExhausted")
        cfg["precision"] = [8, 1]
        assert preflight_precision(JobConfig.from_dict(cfg))["M"] == 8

    def test_override_keeps_m_and_n_and_caps_nwork(self):
        cfg = JobConfig.from_dict(dict(f1_type_i_job(5, 4).serial(),
                                       precision=[20, 6]))
        # (20 - 4) - floor(16/5) = 13 exact digits
        assert preflight_precision(cfg) == {
            "M": 20, "N": 6, "nwork": 13, "iterations_estimate": 1}


class TestReadOffWindow:
    """The answer does not depend on the E-adic truncation past the
    read-off window: a default run gives the `result` block of a run at
    the (M, N) that the preflight chose when it reserved digits for
    u-coordinates of every slot below M.  The default N of each job is
    `n`; at p3-k4 and p3-k12-mixed it is below the earlier N."""

    @pytest.mark.parametrize("data, old, n", [
        (f1_type_i_job(3, 1).serial(), (51, 5), 5),
        (f1_type_i_job(3, 4).serial(), (96, 8), 5),
        (f1_type_i_job(5, 3).serial(), (27, 5), 5),
        (mixed_job(3, (1, 2), ("I", "II")), (57, 6), 5),
        (mixed_job(5, (2, 3), ("II", "I")), (27, 5), 5),
    ], ids=["p3-k1", "p3-k4", "p5-k3", "p3-k12-mixed", "p5-k23-mixed"])
    def test_result_matches_the_earlier_default(self, data, old, n):
        got = run_pipeline(JobConfig.from_dict(data))
        wide = run_pipeline(JobConfig.from_dict(dict(data, precision=list(old))))
        assert got.preflight["M"] < old[0] and got.preflight["N"] == n
        assert got.error is None and wide.error is None
        assert got.result == wide.result


def parabolic_twin(config, xs):
    """Explicit matrices equivalent to an all-Type-I job: slot i becomes
    C_i A_i [[1, -p^k_(i-1) x_(i-1)], [0, 1]] with A_i = [[0, a1], [1, a2]]
    and C_i = [[1, x_i], [0, 1]], for integers x_i.  A copy of the
    benchmark oracle's transform, so these tests do not depend on it."""
    p = config["p"]
    ks = [max(w) - min(w) for w in config["weights"]]

    def coords(spec, n):
        if isinstance(spec, int):
            spec = {"coeffs": [spec]}
        c = [v * p ** spec.get("pexp", 0) for v in spec["coeffs"]]
        return c + [0] * (n - len(c))

    n = config.get("r") or config["f"]
    mats = []
    for i, slot in enumerate(config["params"]):
        a1, a2 = coords(slot["a1"], n), coords(slot["a2"], n)
        x, y = xs[i], -(p ** ks[i - 1]) * xs[i - 1]
        top_right = [u + x * w for u, w in zip(a1, a2)]
        top_right[0] += x * y
        bottom_right = list(a2)
        bottom_right[0] += y
        mats.append({"matrix": [[x, {"coeffs": top_right}],
                                [1, {"coeffs": bottom_right}]]})
    return dict(config, params=mats)


class TestExplicitMatrixPrecision:
    """`verify_parabolic_equiv` reads the explicit input at element
    precision nwork and needs nwork > k_max.  At high weight the guard
    alone does not give that, so N must: an N of c_max + 4 gives nwork 29
    at p = 13, k = 39, and the twin stops at `normalize`."""

    @pytest.mark.parametrize("p, k", [(5, 15), (7, 21), (13, 39)])
    def test_twin_gives_the_shorthand_answer(self, p, k):
        data = f1_type_i_job(p, k).serial()
        twin = run_pipeline(JobConfig.from_dict(parabolic_twin(data, [3])))
        assert twin.preflight["nwork"] > k
        assert answer(twin) == answer(run_pipeline(JobConfig.from_dict(data)))
        assert answer(twin) == classical(p, k)


def reducibility_decides(nwork, ks, vals):
    """Whether `reducibility_detect` decides at nwork on Type I slots of
    weights ks and a2 valuations vals (inf for 0): an a2 with v >= nwork
    vanishes there and counts nwork in the sum."""
    return (all(v < nwork for v in vals)
            or sum(min(v, nwork) for v in vals) > sum(ks))


def preflight_needs(p, pairs):
    """Check every need `preflight_precision` names on the default
    (M, N, nwork) of Type I jobs with a2 nonzero, zero and (f > 1) mixed,
    and of an explicit twin."""
    weights = normalize_weights(pairs)
    budget = compute_budget(weights, p)
    k_max, c_max, f = weights.k_max, budget.c_max, len(pairs)
    window = read_off_window(p, k_max)
    inf = float("inf")
    jobs = [[c_max] * f, [inf] * f] + ([[inf] + [c_max] * (f - 1)] if f > 1 else [])
    for vals in jobs + ["twin"]:
        if vals == "twin":
            params = [{"matrix": [[0, 1], [1, p ** c_max]]}] * f
        else:
            params = [{"type": "I", "a1": 1, "a2": 0 if v == inf else p ** v}
                      for v in vals]
        pf = preflight_precision(JobConfig.from_dict(
            {"p": p, "f": f, "weights": pairs, "params": params}))
        m, n, nwork, iters = pf["M"], pf["N"], pf["nwork"], pf["iterations_estimate"]
        j = m - k_max
        # the digits the preparation and the descent may spend
        spend = c_max + -(-k_max // p) * (iters + 2)
        assert m >= window
        assert j - j // p >= nwork
        assert nwork - spend >= (window - 1) // p + 1
        assert nwork - spend - (window - 1) // p >= 10 and n >= 5
        assert nwork >= c_max
        if vals == "twin":
            assert nwork > k_max
            # normalization adds p^(k_(i-1)) x to the bottom-right entry
            # p^c_max, so a2 is exact below k_(i-1) and else anything from
            # there on, 0 included
            options = [[c_max] if c_max < weights.k_prev(i)
                       else [weights.k_prev(i), inf] for i in range(f)]
            for choice in itertools.product(*options):
                assert reducibility_decides(nwork, weights.k, choice)
        else:
            assert reducibility_decides(nwork, weights.k, vals)
        assert iters == estimate_iterations(weights, budget, p, m, nwork)
        assert iters <= estimate_iterations(weights, budget, p, m)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_preflight_meets_every_need(p):
    for k in range(1, 3 * p + 1):
        preflight_needs(p, [[k, 0]])
        for k2 in range(1, 3 * p + 1):
            preflight_needs(p, [[k, 0], [k2, 0]])


def gate_edge_job(p, ks, types):
    """Lower weights 0, a1 = 1, and each v(a2) the least the gate lets
    through at its own slot, max(c_i, c_max - c_i)."""
    pairs = [[k, 0] for k in ks]
    budget = compute_budget(normalize_weights(pairs), p)
    return {"p": p, "f": len(ks), "weights": pairs,
            "params": [{"type": t, "a1": 1,
                        "a2": {"coeffs": [1], "pexp": max(c, budget.c_max - c)}}
                       for t, c in zip(types, budget.c)]}


def check_within_the_preflight(report):
    pf, descent = report.preflight, report.stages["descent"]
    assert report.error is None
    assert descent["iterations"] <= pf["iterations_estimate"]
    assert descent["final_prec"] >= pf["N"] + 5


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_descent_stays_within_the_preflight(p):
    """The descent runs at most the iterations the guard charged, and keeps
    the N + 5 digits past the read that the certificate promises."""
    for k in (1, p, 2 * p, 3 * p):
        for a2 in (None, 0):
            report = run_pipeline(f1_type_i_job(p, k, a2))
            assert answer(report) == classical(p, k)
            check_within_the_preflight(report)


# f = 2 and 3 with unequal weights, Type II slots and v(a2) at the gate's
# edge: chains cross slots of different weight, and at the slot after a
# lighter one max(c, c_max - c) is c_max - c
MULTI_SLOT = [
    (3, (1, 4), "I I"), (3, (4, 1), "II I"), (3, (1, 4), "I II"),
    (3, (3, 1, 1), "II I II"), (3, (1, 6, 2), "I II I"),
    (5, (1, 7), "I I"), (5, (7, 1), "I II"), (5, (2, 10), "II I"),
    (5, (1, 5, 12), "I II I"), (7, (1, 11), "II I"), (7, (14, 1), "I I"),
    (7, (5, 2, 12), "II I II"), (13, (1, 23), "I II"), (13, (34, 1), "I I"),
]


@pytest.mark.parametrize("p, ks, pattern", MULTI_SLOT)
def test_multi_slot_descent_stays_within_the_preflight(p, ks, pattern):
    data = gate_edge_job(p, ks, pattern.split())
    report = run_pipeline(JobConfig.from_dict(data))
    check_within_the_preflight(report)
    budget = compute_budget(normalize_weights(data["weights"]), p)
    assert any(budget.c_max - c > c for c in budget.c)
    for rotated in (rotate(data), mixed_job(p, ks, pattern.split())):
        check_within_the_preflight(run_pipeline(JobConfig.from_dict(rotated)))
    if "II" not in pattern:
        twin = parabolic_twin(data, [3] * len(ks))
        got = run_pipeline(JobConfig.from_dict(twin))
        check_within_the_preflight(got)
        assert answer(got) == answer(report)


@pytest.mark.parametrize("name", ["f2-r2-mixed", "f3-r3-p3-mixed",
                                  "f2-explicit-mixed", "f2-r4-p7"])
def test_golden_descent_stays_within_the_preflight(name):
    check_within_the_preflight(run_pipeline(JobConfig.from_dict(GOLDEN[name][0])))


class TestMixedVanishingA2:
    """Type I tuples where some a2 vanish at nwork and others do not: the
    reducibility sum decides only when nwork exceeds sum_S k_i less the
    nonzero valuations, which the preflight charges."""

    def test_p13_k10_10(self):
        data = {"p": 13, "f": 2, "weights": [[10, 0]] * 2,
                "params": [{"type": "I", "a1": 1, "a2": 0},
                           {"type": "I", "a1": 1, "a2": 13 ** 2}]}
        report = run_pipeline(JobConfig.from_dict(data))
        assert report.preflight["nwork"] > 20 - 2
        assert answer(report) == ("Split", (10, 130))
        twin = run_pipeline(JobConfig.from_dict(parabolic_twin(data, [3, 5])))
        assert answer(twin) == ("Split", (10, 130))

    def test_p13_k20_20_matches_a_wide_run(self):
        data = {"p": 13, "f": 2, "weights": [[20, 0]] * 2,
                "params": [{"type": "I", "a1": 1, "a2": 0},
                           {"type": "I", "a1": 1, "a2": 13 ** 3}]}
        report = run_pipeline(JobConfig.from_dict(data))
        wide = run_pipeline(JobConfig.from_dict(dict(data, precision=[150, 60])))
        assert report.preflight["nwork"] > 40 - 3
        assert answer(report) == answer(wide)


class TestRotation:
    """A one-slot rotation of a mixed tuple gives the same character up to
    p^j on the exponents."""

    @pytest.mark.parametrize("p, ks, types", [(3, (1, 2), ("I", "II")),
                                              (5, (2, 3), ("II", "I"))])
    def test_rotation_is_equivalent(self, p, ks, types):
        data = mixed_job(p, ks, types)
        got = answer(run_pipeline(JobConfig.from_dict(data)))
        rotated = answer(run_pipeline(JobConfig.from_dict(rotate(data))))
        assert equivalent(got, rotated, p, len(ks))


class TestPeriodicBaseChange:
    """A period-2 tuple repeated twice gives the base change to degree 4 of
    the period job's answer."""

    @pytest.mark.parametrize("p, ks, types", [(3, (1, 2), ("I", "II")),
                                              (5, (2, 3), ("II", "I")),
                                              (5, (1, 3), ("I", "I"))])
    def test_repeated_tuple_is_base_change(self, p, ks, types):
        period = answer(run_pipeline(JobConfig.from_dict(mixed_job(p, ks, types))))
        got = answer(run_pipeline(JobConfig.from_dict(mixed_job(p, ks * 2, types * 2))))
        assert equivalent(got, base_change(period, p, 4, f0=2), p, 4)


class TestLowerWeightTwist:
    """Weights (k + s, s) give the (k, 0) answer twisted by omega^s."""

    @pytest.mark.parametrize("pair, want", [
        ([6, 2], ("Induced", (16,))),
        ([5, 1], ("Induced", (10,))),
        ([0, 4], ("Induced", (4,))),
    ])
    def test_p5_k4_examples(self, pair, want):
        assert answer(run_pipeline(type_i_job(5, [pair]))) == want

    @pytest.mark.parametrize("p, k, s", [(5, 4, 2), (5, 6, 1), (7, 3, 3),
                                         (3, 4, 1), (3, 2, 1)])
    def test_f1_classical_twisted(self, p, k, s):
        got = answer(run_pipeline(type_i_job(p, [[k + s, s]])))
        assert got == twisted_f1(classical(p, k), s, p)

    @pytest.mark.parametrize("p, k, s", [(5, 3, 1), (3, 1, 1), (7, 2, 3)])
    def test_f2_base_change_of_twisted(self, p, k, s):
        got = answer(run_pipeline(type_i_job(p, [[k + s, s]] * 2)))
        want = base_change(twisted_f1(classical(p, k), s, p), p, 2)
        assert equivalent(got, want, p, 2)

    def test_only_exponents_change(self):
        plain = run_pipeline(type_i_job(5, [[4, 0]])).result
        shifted = run_pipeline(type_i_job(5, [[6, 2]])).result
        assert shifted.pop("exponents") != plain.pop("exponents")
        assert shifted == plain


class TestSlopesAreReportOnly:
    """Period-1 all-Type-I tuples whose sum of weights reaches nwork.  The
    product's determinant then reads as 0 at the working precision; its
    valuation is sum k_i by construction, and the job goes on."""

    # the smallest such k below 3p for every (p, f) of p <= 13, f <= 5
    # that has one; the first nine were that list when the preflight
    # reserved digits for u-coordinates of every slot below M, so nwork
    # was larger
    @pytest.mark.parametrize("p, f, k", [
        (5, 5, 5), (7, 4, 5), (7, 5, 4), (11, 3, 7), (11, 4, 4), (11, 5, 3),
        (13, 3, 6), (13, 4, 4), (13, 5, 3),
        (5, 3, 14), (5, 4, 5), (5, 5, 3), (7, 3, 7), (7, 4, 4), (7, 5, 3),
        (11, 2, 16), (11, 3, 6), (13, 2, 13)])
    def test_answer_is_the_base_change(self, p, f, k):
        report = run_pipeline(type_i_job(p, [[k, 0]] * f))
        assert f * k >= report.context["N_work"]
        assert report.stages["slopes"]["det_valuation"] == f * k
        assert answer(report) == base_change(classical(p, k), p, f)


class TestReducibilityPrecision:
    """Each v(a_2) that is nonzero at its precision is exact, so their sum
    decides the subset-sum test even when it reaches nwork."""

    @pytest.mark.parametrize("v", range(11, 24))
    def test_p5_f2_k4_at_every_valuation(self, v):
        # nwork is 16; from v = 16 on, a_2 is zero at precision
        slot = {"type": "I", "a1": 1, "a2": {"coeffs": [1], "pexp": v}}
        report = run_pipeline(JobConfig.from_dict(
            {"p": 5, "f": 2, "weights": [[4, 0]] * 2, "params": [slot] * 2}))
        assert report.context["N_work"] == 16
        assert report.stages["reducibility"]["kind"] == "NotDetected"
        assert answer(report) == ("Split", (4, 20))


@st.composite
def gated_mixed_configs(draw):
    """Type patterns with a Type I slot, lower-weight shifts in either pair
    order, units a1 and a2 / p^v, and v one above the gate bound."""
    p = draw(st.sampled_from([3, 5, 7]))
    f = draw(st.integers(1, 3))
    ks = draw(st.lists(st.integers(1, 2 * p), min_size=f, max_size=f))
    shifts = draw(st.lists(st.integers(0, p), min_size=f, max_size=f))
    types = draw(st.lists(st.sampled_from(["I", "II"]), min_size=f, max_size=f)
                 .filter(lambda ts: "I" in ts))
    unit = st.integers(1, p ** 3).filter(lambda x: x % p)
    pairs = [[k + s, s] if draw(st.booleans()) else [s, k + s]
             for k, s in zip(ks, shifts)]
    budget = compute_budget(normalize_weights(pairs), p)
    params = [{"type": t, "a1": draw(unit),
               "a2": {"coeffs": [draw(unit)],
                      "pexp": max(c - 1, budget.c_max - c - 1) + 1}}
              for t, c in zip(types, budget.c)]
    return {"p": p, "f": f, "weights": pairs, "params": params}


@settings(max_examples=8, derandomize=True, deadline=None)
@given(gated_mixed_configs())
def test_determinant_matches_the_weights(data):
    """det of the reduction on inertia is omega_f^(sum_i (k_i + 2 s_i) p^i),
    in the labelling `characterize` uses: e1 + e2 (split) or t (induced),
    since omega_2f^(t (1 + p^f)) = omega_f^t."""
    p, f = data["p"], data["f"]
    shape, exponents = answer(run_pipeline(JobConfig.from_dict(data)))
    weights = normalize_weights(data["weights"])
    want = sum((k + 2 * s) * p ** i
               for i, (k, s) in enumerate(zip(weights.k, weights.shifts)))
    assert sum(exponents) % (p ** f - 1) == want % (p ** f - 1)


class TestAllII:
    """A tuple with no Type I slot is reducible from its tags alone."""

    @staticmethod
    def explicit(*mats):
        return JobConfig.from_dict({"p": 5, "f": 2, "weights": [[2, 0]] * 2,
                                    "params": [{"matrix": m} for m in mats]})

    def test_explicit_stops_at_reducibility(self):
        report = run_pipeline(self.explicit([[3, 7], [5, 1]], [[1, 2], [10, 1]]))
        assert (report.error["stage"], report.error["type"]) == (
            "reducibility", "ReducibleStop")
        assert report.stages["reducibility"]["kind"] == "ReducibleAllII"
        assert [t["kind"] for t in report.stages["normalize"]["tags"]] == ["II", "II"]
        assert exit_code_for(report) == EXIT_REDUCIBLE

    def test_non_invertible_explicit_is_a_config_error(self):
        report = run_pipeline(self.explicit([[5, 7], [5, 1]], [[1, 2], [10, 1]]))
        assert (report.error["stage"], report.error["type"]) == (
            "normalize", "Degenerate")
        assert exit_code_for(report) == EXIT_CONFIG


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
        dict(P5_K4, mode="full"),
        dict(P5_K4, seed=0),
    ])
    def test_malformed_fields_are_config_errors(self, data):
        with pytest.raises(ConfigError):
            JobConfig.from_dict(data)

    # only a missing key or null means "no override", and a JSON true or
    # false is not a number
    @pytest.mark.parametrize("data", [
        dict(P5_K4, precision=[]),
        dict(P5_K4, precision=0),
        dict(P5_K4, precision=False),
        dict(P5_K4, precision=""),
        dict(P5_K4, precision=[True, 8]),
        dict(P5_K4, p=True),
        dict(P5_K4, f=True),
        dict(P5_K4, r=True),
        dict(P5_K4, weights=[[True, False]]),
        dict(P5_K4, weights=[[4, False]]),
    ])
    def test_empty_precision_and_bools_are_config_errors(self, data):
        with pytest.raises(ConfigError):
            JobConfig.from_dict(data)

    # a misspelt or extra key inside a params entry or a coordinate table
    @pytest.mark.parametrize("data, where", [
        (with_a2({"coeffs": [1], "pexp": 2, "pexpp": 5}), "coordinate"),
        (dict(P5_K4, params=[dict(P5_K4["params"][0], typo=0)]), "params[0]"),
        (dict(P5_K4, params=[dict(P5_K4["params"][0], matrix=[[0, 1], [1, 25]])]),
         "params[0]"),
    ])
    def test_unknown_keys_are_config_errors(self, data, where):
        try:
            report = run_pipeline(JobConfig.from_dict(data))
        except ConfigError as exc:
            message = str(exc)
        else:
            assert report.result is None
            assert (report.error["stage"], report.error["type"]) == ("config", "ConfigError")
            assert exit_code_for(report) == EXIT_CONFIG
            message = report.error["message"]
        assert message.startswith(f"{where}: unknown config keys: [")

    def test_null_precision_is_no_override(self):
        plain = run_pipeline(JobConfig.from_dict(P5_K4))
        null = run_pipeline(JobConfig.from_dict(dict(P5_K4, precision=None)))
        assert null.to_json() == plain.to_json()

    @pytest.mark.parametrize("data, stage, etype, code", [
        (with_a2({"coeffs": [1], "pexp": -1}), "config", "ConfigError", EXIT_CONFIG),
        (with_a2({"coeffs": [1], "pexp": 1.5}), "config", "ConfigError", EXIT_CONFIG),
        # M = 3 and M = 4 do not exceed k = 4
        (dict(P5_K4, precision=[3, 1]), "preflight", "PrecisionExhausted",
         EXIT_CONVERGENCE),
        (dict(P5_K4, precision=[4, 8]), "preflight", "PrecisionExhausted",
         EXIT_CONVERGENCE),
        (with_a2({"coeffs": [1], "pexp": True}), "config", "ConfigError", EXIT_CONFIG),
        (with_a2({"coeffs": [True]}), "config", "ConfigError", EXIT_CONFIG),
        (with_a2(True), "config", "ConfigError", EXIT_CONFIG),
        (dict(P5_K4, params=[{"matrix": [[0, 1], [True, 25]]}]), "config",
         "ConfigError", EXIT_CONFIG),
        # [[2, 0], [1, 1]] is Type I: the shorthand would run as a slot the
        # config never gave
        ({"p": 5, "f": 2, "weights": [[2, 0], [2, 0]],
          "params": [{"type": "I", "a1": 1, "a2": {"coeffs": [1], "pexp": 3}},
                     {"type": "II", "a1": 2, "a2": {"coeffs": [1], "pexp": 0}}]},
         "config", "ConfigError", EXIT_CONFIG),
    ])
    def test_stage_tagged_errors(self, data, stage, etype, code):
        report = run_pipeline(JobConfig.from_dict(data))
        assert report.result is None
        assert (report.error["stage"], report.error["type"]) == (stage, etype)
        assert exit_code_for(report) == code

    def test_huge_pexp_is_zero_at_precision(self):
        # p^pexp is never formed: the coordinate is 0 mod p^nwork either way
        start = time.perf_counter()
        huge = run_pipeline(JobConfig.from_dict(with_a2({"coeffs": [1], "pexp": 10 ** 7})))
        assert time.perf_counter() - start < 2
        nwork = huge.context["N_work"]
        plain = run_pipeline(JobConfig.from_dict(with_a2({"coeffs": [1], "pexp": nwork})))
        assert (huge.stages, huge.result, huge.error) == (
            plain.stages, plain.result, plain.error)


class TestStageTimings:
    # the preflight normalizes the weights, so they have no stage of their own
    STAGES = ["preflight", "config", "reducibility", "slopes", "gate",
              "build", "det_normalize", "prepare", "assumptions", "descend",
              "reduce", "extract", "characterize"]

    @pytest.mark.parametrize("data, stages", [
        (P5_K4, STAGES),
        (with_a2({"coeffs": [1], "pexp": 1}), STAGES[:STAGES.index("gate") + 1]),
        ({"p": 5, "f": 1, "weights": [[3, 0]],
          "params": [{"matrix": [[3, -1094], [1, -365]]}]},
         STAGES[:2] + ["normalize"] + STAGES[2:]),
    ])
    def test_keys_are_the_stages_that_ran(self, data, stages):
        report = run_pipeline(JobConfig.from_dict(data))
        assert sorted(report.timings) == sorted(stages)
        assert all(v >= 0 for v in report.timings.values())

    def test_timings_only_on_request(self):
        report = run_pipeline(JobConfig.from_dict(P5_K4))
        assert "timings" not in json.loads(report.to_json())
        assert json.loads(report.to_json(include_timings=True))["timings"] == report.timings


# str with the characters json escapes: quotes, backslashes, control
# characters and non-ASCII, astral plane included
JSON_STRS = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\n\x1f\x7fé\u2028😀'),
                              st.characters()), max_size=6)
JSON_LEAVES = st.one_of(
    JSON_STRS, st.none(), st.booleans(),
    st.integers(), st.integers(min_value=2 ** 64, max_value=2 ** 80),
    st.integers(min_value=-2 ** 80, max_value=-2 ** 64),
    st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.just(()), st.dictionaries(JSON_STRS, inner, max_size=4)),
    max_leaves=24)


def dumps(x) -> str:
    return json.dumps(x, sort_keys=True, indent=2)


class TestReportWriter:
    """`RunReport.to_json` writes the bytes of json.dumps(serial(...),
    sort_keys=True, indent=2) without calling it."""

    @settings(max_examples=200, deadline=None)
    @given(JSON_TREES)
    def test_matches_json_dumps(self, tree):
        assert pipeline._json_text(tree, "\n") == dumps(tree)

    @pytest.mark.parametrize("bad", [{1, 2}, Fraction(1, 3), {"a": [Fraction(1, 2)]},
                                     {"a": {2: 1}}, [{"s": {"x"}}]])
    def test_rejects_what_json_does_not_hold(self, bad):
        with pytest.raises(TypeError):
            pipeline._json_text(bad, "\n")

    @staticmethod
    def check(report):
        for timings in (False, True):
            assert report.to_json(timings) == dumps(report.serial(timings))

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_reports(self, name):
        self.check(run_pipeline(JobConfig.from_dict(GOLDEN[name][0])))

    @pytest.mark.parametrize("workload", ["f1-sweep", "embeddings", "family-scan"])
    def test_benchmark_reports(self, workload):
        for job in benchmark_workloads().WORKLOADS[workload](1):
            self.check(run_pipeline(JobConfig.from_dict(job["config"])))

    def test_leaves_no_garbage(self):
        report = run_pipeline(JobConfig.from_dict(P5_K4))
        for timings in (False, True):
            gc.collect()
            report.to_json(timings)
            assert gc.collect() == 0


class TestReduceStage:
    def test_residues_read_once(self, monkeypatch):
        # the 4 descended entries' residues, below the window; the reduce
        # stage reuses them, and A0 is compared without residues
        calls = []
        residue = SElem.residue
        monkeypatch.setattr(SElem, "residue", lambda self, window: calls.append(
            window) or residue(self, window))
        assert run_pipeline(JobConfig.from_dict(P5_K4)).error is None
        assert calls == [read_off_window(5, 4)] * 4


def bump_first_h(b, pairs, anchors):
    (g, h), rest = pairs[0], pairs[1:]
    return b, ((g, h + PhiExpPoly.const(1)),) + rest, anchors


# (module, name, broken, stage, etype): a self-check made to fail
SELF_CHECK_BREAKS = [
    # v and w swapped: the monomial-product oracle disagrees
    (crysred.reduction, "assign_vw",
     lambda orig: lambda mu: orig(mu)[::-1], "characterize", "DetCheckFailed"),
    # a determinant unit off by a sign
    (crysred.descent, "_det_over_e_pow",
     lambda orig: lambda a, k: -orig(a, k), "descend", "SplitFailed"),
    # slot 0's lambda-exponent h one too large: the twisted conjugation
    # no longer gives the closed forms
    (crysred.kisin, "solve_exponent_system",
     lambda orig: lambda tags, weights: bump_first_h(*orig(tags, weights)),
     "det_normalize", "DetCheckFailed"),
]


def corner_gains_e10(m):
    """m with E^10 added to its upper-right entry."""
    return ((m[0][0], m[0][1] + e_pow(m[0][1].ctx, 10)), m[1])


class TestSelfChecks:
    @pytest.mark.parametrize("module, name, broken, stage, etype", SELF_CHECK_BREAKS)
    def test_failed_check_stops_the_job(self, monkeypatch, module, name, broken,
                                        stage, etype):
        monkeypatch.setattr(module, name, broken(getattr(module, name)))
        report = run_pipeline(JobConfig.from_dict(P5_K4))
        assert report.result is None
        assert (report.error["stage"], report.error["type"]) == (stage, etype)
        assert exit_code_for(report) == EXIT_INTERNAL

    def test_descended_matrix_off_mod_p_past_the_window_stops(self, monkeypatch):
        # every absorption factor I + D1 gains E^10 in its upper-right
        # entry, and the certifier declines every step, so that every
        # absorption takes its products.  E^10 lies in p*S_F, so the mod-p
        # stability and det checks pass; mod p it is u^10, past the window
        # L = 7 that the residues read, so only the comparison with A0 on
        # every slot sees it
        add = crysred.descent.mat_add

        def broken(a, b):
            out = add(a, b)
            if all(e == int(i == j) for i, row in enumerate(a) for j, e in enumerate(row)):
                out = corner_gains_e10(out)
            return out

        monkeypatch.setattr(crysred.descent, "_certified_empty", lambda c, a, unit: None)
        monkeypatch.setattr(crysred.descent, "mat_add", broken)
        self.assert_stops_past_the_window()

    def test_empty_absorption_off_mod_p_past_the_window_stops(self, monkeypatch):
        # P5_K4's only step is certified empty; its absorption's new A
        # gains E^10 in its upper-right entry, which again only the
        # comparison with A0 sees
        absorb = crysred.descent._absorb_nothing

        def broken(*args):
            new_a, unit, det = absorb(*args)
            return corner_gains_e10(new_a), unit, det

        monkeypatch.setattr(crysred.descent, "_absorb_nothing", broken)
        self.assert_stops_past_the_window()

    @staticmethod
    def assert_stops_past_the_window():
        report = run_pipeline(JobConfig.from_dict(P5_K4))
        assert report.result is None
        assert report.error == {"stage": "descend", "type": "SplitFailed",
                                "message": "slot 0: descended matrix != "
                                           "prepared part mod p"}

    def test_wrong_witness_inverse_stops_the_explicit_job(self, monkeypatch):
        # the inverse the normalization applies is off by 1 in its
        # upper-right entry; the check takes no inverse, so it sees this
        from test_golden import GOLDEN

        witness = crysred.lattices._single_slot_witness

        def broken(a, ell):
            c, ((one, x), low) = witness(a, ell)
            return c, ((one, x + 1), low)

        monkeypatch.setattr(crysred.lattices, "_single_slot_witness", broken)
        report = run_pipeline(JobConfig.from_dict(GOLDEN["f2-explicit-mixed"][0]))
        assert report.result is None
        assert (report.error["stage"], report.error["type"]) == ("normalize",
                                                                 "DetCheckFailed")
        assert exit_code_for(report) == EXIT_INTERNAL


@st.composite
def small_configs(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    f = draw(st.sampled_from([1, 2]))
    r = draw(st.sampled_from([f, 2 * f]))
    coord = st.one_of(
        st.just(0), st.integers(0, p ** 3),
        st.fixed_dictionaries({
            "coeffs": st.lists(st.integers(0, p ** 2), min_size=1, max_size=r),
            "pexp": st.integers(0, 4)}))

    def entry():
        if draw(st.integers(0, 2)):
            return {"type": draw(st.sampled_from(["I", "II"])),
                    "a1": draw(coord), "a2": draw(coord)}
        return {"matrix": [[draw(coord), draw(coord)], [draw(coord), draw(coord)]]}

    data = {"p": p, "f": f, "r": r,
            "weights": [[draw(st.integers(0, p + 1)), draw(st.integers(0, 1))]
                        for _ in range(f)],
            "params": [entry() for _ in range(f)]}
    if draw(st.booleans()):
        data["precision"] = [draw(st.integers(2, 60)), draw(st.integers(1, 12))]
    return data


@settings(max_examples=20, derandomize=True, deadline=None)
@given(small_configs())
def test_every_config_gives_a_report(data):
    """Every input gives a ConfigError or a report (result or stage-tagged
    error), and the same config gives the same report bytes."""
    try:
        cfg = JobConfig.from_dict(data)
    except ConfigError:
        return
    first = run_pipeline(cfg).to_json()
    assert run_pipeline(JobConfig.from_dict(data)).to_json() == first


def same_datum(config, **slot):
    """The config with `slot`'s keys replacing those of every params entry."""
    return dict(config, params=[dict(entry, **slot) for entry in config["params"]])


def fresh_report(config):
    pipeline._prime_context.cache_clear()
    return run_pipeline(JobConfig.from_dict(config)).to_json()


class TestContextReuse:
    """A job that reuses the previous job's context, and the values cached
    on it, gives the report of a fresh process, whatever ran before it."""

    def test_reports_do_not_depend_on_earlier_jobs(self):
        from test_golden import GOLDEN

        a = GOLDEN["f2-r4-p7"][0]
        a_ii = same_datum(a, type="II")
        explicit = dict(a, params=[{"matrix": [[0, e["a1"]], [1, e["a2"]]]}
                                   for e in a["params"]])
        mixed = GOLDEN["f2-r2-mixed"][0]
        jobs = [
            # the rotation partner shares the context, not the weights
            a, mixed, rotate(mixed), a,
            # new coefficients, the explicit twin and a gate stop on A's context
            same_datum(a, a1={"coeffs": [3, 1, 4, 1]}, a2={"coeffs": [5, 9], "pexp": 2}),
            explicit,
            same_datum(a, a2={"coeffs": [2, 6], "pexp": 0}),
            a_ii,
        ]
        pipeline._prime_context.cache_clear()
        reports = [run_pipeline(JobConfig.from_dict(job)) for job in jobs]
        assert len({json.dumps(r.context, sort_keys=True) for r in reports}) == 2
        assert [r.error and r.error["stage"] for r in reports] == [
            None, None, None, None, None, None, "gate", "reducibility"]
        assert pipeline._prime_context.hits == 5
        assert [r.to_json() for r in reports] == [fresh_report(job) for job in jobs]

    @pytest.mark.parametrize("case", range(len(SELF_CHECK_BREAKS)))
    def test_failed_job_leaves_no_poisoned_cache(self, monkeypatch, case):
        # the broken job fills a fresh context's cache; the next job reuses it
        module, name, broken, stage, _ = SELF_CHECK_BREAKS[case]
        monkeypatch.setattr(module, name, broken(getattr(module, name)))
        pipeline._prime_context.cache_clear()
        assert run_pipeline(JobConfig.from_dict(P5_K4)).error["stage"] == stage
        monkeypatch.undo()
        got = run_pipeline(JobConfig.from_dict(P5_K4)).to_json()
        assert pipeline._prime_context.hits == 1
        assert got == fresh_report(P5_K4)

    def test_replaced_context_is_freed_without_the_collector(self):
        # the cached elements refer to their context; once a job replaces
        # the context, reference counting alone must free it
        pipeline._prime_context.cache_clear()
        pf = run_pipeline(JobConfig.from_dict(P5_K4)).preflight
        old = weakref.ref(pipeline._prime_context(5, 1, pf["N"], pf["M"], 1, pf["nwork"]))
        assert old()._caches
        gc.disable()
        try:
            assert run_pipeline(JobConfig.from_dict(GOLDEN["f2-r4-p7"][0])).error is None
            assert old() is None
        finally:
            gc.enable()

    def test_second_same_context_job_builds_no_context(self, monkeypatch):
        built = []
        init = PrimeContext.__init__
        monkeypatch.setattr(PrimeContext, "__init__",
                            lambda self, *a, **k: built.append(1) or init(self, *a, **k))
        pipeline._prime_context.cache_clear()
        run_pipeline(JobConfig.from_dict(P5_K4))
        assert len(built) == 1
        run_pipeline(JobConfig.from_dict(with_a2({"coeffs": [2], "pexp": 3})))
        assert len(built) == 1
