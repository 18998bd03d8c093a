"""Kisin Frobenius construction and determinant normalization."""

import dataclasses
import sys

import pytest

import crysred.kisin
import crysred.sring
from crysred.arith import OFElem, PrimeContext, mat_det
from crysred.descent import check_descent_assumptions, prepare
from crysred.errors import AssumptionViolated, DetCheckFailed
from crysred.lattices import (
    TypeTag,
    WeightData,
    classify_lattice,
    classify_type,
    normalize_weights,
    parabolic_normalize,
)
from crysred.kisin import build_kisin_frobenius, det_normalize, solve_exponent_system
from crysred.pipeline import JobConfig, _build_lattice, preflight_precision, run_pipeline
from crysred.sring import (
    PhiExpPoly,
    SElem,
    lambda_power,
    s_frobenius,
    s_invert,
    s_mul,
)

from test_descent import PERIODIC, PERIODS, as_stored, outputs, stage_inputs, stored_mats
from test_golden import GOLDEN
from test_lattices import mat, random_gl2
from test_sring import gamma
from useries_ref import e_pow


@pytest.fixture(scope="module")
def kctx():
    return PrimeContext(p=5, f=1, n=8, m=25)


def type_i(ctx, a1, a2):
    return mat(ctx, [[0, a1], [1, a2]])


def type_ii(ctx, a1, a2):
    return mat(ctx, [[a1, 0], [a2, 1]])


class TestBuild:
    def test_type_i_weight_zero_prev(self, kctx):
        # k_(i-1) = 0 means gamma^0 = 1 in the lower-left slot
        wd = WeightData((0,), (0,))
        mats, _ = build_kisin_frobenius((type_i(kctx, 3, 5),), (TypeTag("I"),), wd)
        m = mats[0]
        assert m[0][0].is_zero()
        assert m[0][1] == SElem.from_of(kctx, OFElem.from_int(kctx, 3))
        assert m[1][0] == SElem.one(kctx)
        assert m[1][1] == SElem.from_int(kctx, 5)

    def test_type_ii_weight_zero_prev(self, kctx):
        wd = WeightData((0,), (0,))
        mats, _ = build_kisin_frobenius((type_ii(kctx, 3, 5),), (TypeTag("II"),), wd)
        m = mats[0]
        assert m[0][0] == SElem.from_int(kctx, 3)
        assert m[0][1].is_zero() and m[1][1] == SElem.one(kctx)

    def test_f1_type_i_determinant(self, kctx):
        # det = -E^k a1 gamma^(-k)
        k = 2
        wd = WeightData((k,), (0,))
        mats, _ = build_kisin_frobenius((type_i(kctx, 3, 5),), (TypeTag("I"),), wd)
        det = mat_det(mats[0])
        gk_inv = s_invert(s_mul(gamma(kctx), gamma(kctx)))
        expected = -s_mul(e_pow(kctx, k) * OFElem.from_int(kctx, 3), gk_inv)
        assert det == expected


class TestExponentSystem:
    def test_f1_type_i(self):
        wd = WeightData((3,), (0,))
        b, pairs, anchors = solve_exponent_system((TypeTag("I"),), wd)
        g, h = pairs[0]
        assert b == 2
        assert g.c == (0, 3)                 # k0 * phi
        assert h.c == (3,)                   # k0
        assert (h - g).c == (3, -3)
        assert anchors == ((0, 1),)

    def test_f1_type_ii(self):
        wd = WeightData((3,), (0,))
        b, pairs, _ = solve_exponent_system((TypeTag("II"),), wd)
        g, h = pairs[0]
        assert b == 1
        assert g.c == (3,)
        assert h.c == ()

    def test_zero_weights_give_zero_exponents(self):
        wd = WeightData((0, 0), (0, 0))
        _, pairs, _ = solve_exponent_system((TypeTag("I"), TypeTag("II")), wd)
        assert all(g.c == () and h.c == () for g, h in pairs)

    @pytest.mark.parametrize("tags", [
        ("I",), ("II",), ("I", "I"), ("I", "II"), ("II", "II"),
        ("I", "II", "I"), ("II", "I", "II"),
    ])
    def test_b_parity_law(self, tags):
        f = len(tags)
        wd = WeightData(tuple(range(1, f + 1)), (0,) * f)
        n_type_i = sum(1 for t in tags if t == "I")
        b, _, _ = solve_exponent_system(tuple(TypeTag(t) for t in tags), wd)
        assert b == (f if n_type_i % 2 == 0 else 2 * f)

    @pytest.mark.parametrize("tags,ks", [
        (("I",), (2,)),
        (("II",), (3,)),
        (("I", "II"), (2, 3)),
        (("I", "I"), (2, 1)),
    ])
    def test_recursion_closes_in_s_ring(self, tags, ks):
        """Materialize x_j^(i) = lambda^(exponent) and substitute back."""
        ctx = PrimeContext(p=5, f=len(tags), n=6, m=20)
        wd = WeightData(ks, (0,) * len(ks))
        tag_objs = tuple(TypeTag(t) for t in tags)
        b, pairs, _ = solve_exponent_system(tag_objs, wd)
        f = len(tags)
        xs = [(lambda_power(g, b, ctx), lambda_power(h, b, ctx)) for g, h in pairs]
        gam = gamma(ctx)
        for i in range(f):
            x1, x2 = xs[i]
            x1p, x2p = xs[(i - 1) % f]
            gk = SElem.one(ctx)
            for _ in range(wd.k_prev(i)):
                gk = s_mul(gk, gam)
            if tags[i] == "I":
                assert x1 == s_frobenius(x2p)
                assert x2 == s_mul(gk, s_frobenius(x1p))
            else:
                assert x1 == s_mul(gk, s_frobenius(x1p))
                assert x2 == s_frobenius(x2p)


class TestDetNormalize:
    @pytest.mark.parametrize("tags,ks", [
        (("I",), (2,)),
        (("I", "II"), (2, 3)),
        (("I", "I"), (3, 2)),
    ])
    def test_closed_forms_and_verification(self, tags, ks):
        ctx = PrimeContext(p=5, f=len(tags), n=6, m=25)
        wd = WeightData(ks, (0,) * len(ks))
        lattice = []
        for t in tags:
            if t == "I":
                lattice.append(type_i(ctx, 3, 5))
            else:
                lattice.append(type_ii(ctx, 2, 10))
        tag_objs = tuple(TypeTag(t) for t in tags)
        raw, period = build_kisin_frobenius(tuple(lattice), tag_objs, wd)
        kf = det_normalize(raw, period, tag_objs, wd, tuple(lattice))
        for i, t in enumerate(tags):
            m = kf.amat[i]
            e_a1 = e_pow(ctx, ks[i]) * kf.a1[i]
            if t == "I":
                assert m[0][0].is_zero() and m[1][0] == SElem.one(ctx)
                assert m[0][1] == e_a1
                assert m[1][1] == s_mul(kf.lam_e[i], SElem.from_of(ctx, kf.a2[i]))
            else:
                assert m[0][1].is_zero() and m[1][1] == SElem.one(ctx)
                assert m[0][0] == e_a1
            det = mat_det(m)
            expected = e_a1 if kf.tags[i].det_sign > 0 else -e_a1
            assert det == expected

    def test_det_exact_e_pow_pattern(self, kctx):
        # fil-membership style check: det - sign*E^k*a1 is exactly zero
        wd = WeightData((2,), (0,))
        lattice = (type_i(kctx, 3, 5),)
        tags = (TypeTag("I"),)
        raw, period = build_kisin_frobenius(lattice, tags, wd)
        kf = det_normalize(raw, period, tags, wd, lattice)
        det = mat_det(kf.amat[0])
        assert (det + e_pow(kctx, 2) * OFElem.from_int(kctx, 3)).is_zero()

    def test_full_pipeline_from_random_lattice(self, kctx, rng):
        wd = WeightData((2,), (0,))
        lattice = (random_gl2(kctx, rng),)
        norm, _, tags = parabolic_normalize(lattice, classify_lattice(lattice, wd), wd)
        raw, period = build_kisin_frobenius(norm, tags, wd)
        kf = det_normalize(raw, period, tags, wd, norm)
        assert kf.b in (1, 2)


def test_kisin_stages_take_no_inverse(monkeypatch):
    """`build` and `det_normalize` of a golden job, on a fresh context, finish
    while s_invert raises: every unit there is a binomial sum
    (`sring._unit_power`), and the stage data are the pipeline's."""
    cfg = JobConfig.from_dict(GOLDEN["f2-r2-mixed"][0])
    want = run_pipeline(cfg).stages["kisin"]
    pf = preflight_precision(cfg)
    ctx = PrimeContext(p=cfg.p, f=cfg.f, n=pf["N"], m=pf["M"], r=cfg.r, nwork=pf["nwork"])
    weights = normalize_weights(cfg.weights)
    lattice, _ = _build_lattice(ctx, cfg)
    tags = tuple(classify_type(m) for m in lattice)

    def no_inverse(*args, **kwargs):
        raise AssertionError("s_invert called")

    monkeypatch.setattr(crysred.sring, "s_invert", no_inverse)
    monkeypatch.setattr(crysred.kisin, "s_invert", no_inverse, raising=False)
    raw, period = build_kisin_frobenius(lattice, tags, weights)
    kf = det_normalize(raw, period, tags, weights, lattice)
    assert kf.serial() == want


def kisin_inputs(config, monkeypatch):
    """(normalized, tags, weights), the input that `run_pipeline` hands to
    `build_kisin_frobenius`."""
    import crysred.pipeline as pipeline

    seen = []
    build = pipeline.build_kisin_frobenius
    monkeypatch.setattr(pipeline, "build_kisin_frobenius",
                        lambda *args: seen.append(args) or build(*args))
    assert pipeline.run_pipeline(JobConfig.from_dict(config)).error is None
    monkeypatch.undo()
    return seen[0]


def kisin_fields(normalized, tags, weights):
    """Everything `build` and `det_normalize` return, with S_F elements as
    (c, d, prec) and O_F elements as (c, prec)."""
    raw, period = build_kisin_frobenius(normalized, tags, weights)
    kf = det_normalize(raw, period, tags, weights, normalized)
    return {
        "raw": stored_mats(raw), "amat": stored_mats(kf.amat),
        "lam_e": [as_stored(x) for x in kf.lam_e],
        "a1": [(a.c, a.prec) for a in kf.a1], "a2": [(a.c, a.prec) for a in kf.a2],
        "expo": [(g.c, h.c) for g, h in kf.expo], "e": [e.c for e in kf.e],
        "tags": kf.tags, "heights": kf.heights, "b": kf.b, "anchors": kf.anchors,
        "lambda_nstar": kf.lambda_nstar, "serial": kf.serial(),
    }


def conjugation_products(monkeypatch, *inputs):
    """The products `_verify_conjugation` takes in `build` + `det_normalize`."""
    calls, product = [], crysred.kisin.s_mul

    def counted(x, y):
        if sys._getframe(1).f_code.co_name == "_verify_conjugation":
            calls.append(1)
        return product(x, y)

    with monkeypatch.context() as patch:
        patch.setattr(crysred.kisin, "s_mul", counted)
        kisin_fields(*inputs)
    return len(calls)


def bump_h(slots):
    """solve_exponent_system with h^(i) one larger on each slot of `slots`."""
    solve = solve_exponent_system

    def broken(tags, weights):
        b, pairs, anchors = solve(tags, weights)
        pairs = tuple((g, h + PhiExpPoly.const(1) if i in slots else h)
                      for i, (g, h) in enumerate(pairs))
        return b, pairs, anchors

    return broken


# p = 7, f = 2, k = (3, 3), all Type I with a different a2 in each slot,
# the shape of the family-scan workload: the exponent pairs repeat with
# period 1, the lattice only with period 2
TWO_A2 = {"p": 7, "f": 2, "r": 2, "weights": [[3, 0], [3, 0]], "params": [
    {"type": "I", "a1": {"coeffs": [3, 1]}, "a2": {"coeffs": a2, "pexp": 1}}
    for a2 in ([2, 5], [1, 3])]}


class TestKisinRotation:
    """`build`, `det_normalize` and clause (c) of the assumption check run
    slots 0..d-1 of the rotation period d and return what the full loop
    (the period patched, or the carried period set, to f) returns, with the
    same checks."""

    def test_pairs_refine_the_lattice_period(self, monkeypatch):
        inputs = kisin_inputs(TWO_A2, monkeypatch)
        pairs = [(g.c, h.c) for g, h in solve_exponent_system(*inputs[1:])[1]]
        assert pairs[0] == pairs[1]
        kf, budget = stage_inputs(TWO_A2, monkeypatch)
        assert kf.period == prepare(kf, budget).period == 2
        short = kisin_fields(*inputs)
        with monkeypatch.context() as patch:
            patch.setattr(crysred.kisin, "_rotation_period", len)
            assert kisin_fields(*inputs) == short
        assert outputs(dataclasses.replace(kf, period=kf.f), budget) == outputs(kf, budget)

    @pytest.mark.parametrize("name", sorted(PERIODIC))
    def test_period_path_equals_the_full_loop(self, name, monkeypatch):
        inputs = kisin_inputs(PERIODIC[name], monkeypatch)
        periods, find = [], crysred.kisin._rotation_period
        monkeypatch.setattr(crysred.kisin, "_rotation_period",
                            lambda keys: periods.append(find(keys)) or periods[-1])
        short = kisin_fields(*inputs)
        assert periods == [PERIODS[name]] * 2
        monkeypatch.setattr(crysred.kisin, "_rotation_period", len)
        assert kisin_fields(*inputs) == short

    @pytest.mark.parametrize("name", sorted(PERIODIC))
    def test_assumption_checks_on_the_period(self, name, monkeypatch):
        # clause (c) reassembles d slots, and f on the full loop; a broken
        # last slot breaks the period and fails with the full loop's message
        kf, budget = stage_inputs(PERIODIC[name], monkeypatch)
        split = prepare(kf, budget)
        full, d = dataclasses.replace(split, period=split.f), PERIODS[name]
        calls, add = [], crysred.descent.mat_add
        monkeypatch.setattr(crysred.descent, "mat_add",
                            lambda a, b: calls.append(1) or add(a, b))
        ctx = kf.amat[0][0][0].ctx
        eye = ((SElem.one(ctx), SElem.zero(ctx)),) * 2

        def broken(s, slots):
            return dataclasses.replace(s, conjugated=tuple(
                crysred.descent.mat_sub(m, eye) if i in slots else m
                for i, m in enumerate(s.conjugated)))

        messages = []
        for s, slots in ((split, d), (full, kf.f)):
            calls.clear()
            assert check_descent_assumptions(s, budget) is None
            assert len(calls) == slots
            # slot d - 1 broken in every copy keeps the period
            with pytest.raises(AssumptionViolated) as info:
                check_descent_assumptions(broken(s, range(d - 1, kf.f, d)), budget)
            messages.append(str(info.value))
        assert messages[0] == messages[1] and f"slot {d - 1}:" in messages[0]
        with pytest.raises(AssumptionViolated, match=f"slot {kf.f - 1}:"):
            check_descent_assumptions(broken(full, {kf.f - 1}), budget)

    @pytest.mark.parametrize("name", ["base-change-2", "I II x 3", "I II I x 2"])
    def test_conjugation_check_runs_d_slots(self, name, monkeypatch):
        inputs = kisin_inputs(PERIODIC[name], monkeypatch)
        short = conjugation_products(monkeypatch, *inputs)
        monkeypatch.setattr(crysred.kisin, "_rotation_period", len)
        full = conjugation_products(monkeypatch, *inputs)
        f = inputs[2].f
        assert short > 0 and full * PERIODS[name] == short * f

    def test_aperiodic_tuple_runs_every_slot(self, monkeypatch):
        inputs = kisin_inputs(GOLDEN["f3-r3-p3-mixed"][0], monkeypatch)
        periods, find = [], crysred.kisin._rotation_period
        monkeypatch.setattr(crysred.kisin, "_rotation_period",
                            lambda keys: periods.append(find(keys)) or periods[-1])
        short = conjugation_products(monkeypatch, *inputs)
        assert periods == [3, 3]
        monkeypatch.setattr(crysred.kisin, "_rotation_period", len)
        assert conjugation_products(monkeypatch, *inputs) == short

    @pytest.mark.parametrize("slots", [{3}, {0, 1, 2, 3}])
    def test_broken_exponent_pair_fails_alike(self, slots, monkeypatch):
        # one broken pair breaks the period (d = f); a pair broken on every
        # slot keeps d = 1; either way the message is the full loop's
        inputs = kisin_inputs(PERIODIC["base-change-2"], monkeypatch)
        assert inputs[2].f == 4
        monkeypatch.setattr(crysred.kisin, "solve_exponent_system", bump_h(slots))
        periods, find = [], crysred.kisin._rotation_period
        messages = []
        for period in (lambda keys: periods.append(find(keys)) or periods[-1], len):
            monkeypatch.setattr(crysred.kisin, "_rotation_period", period)
            with pytest.raises(DetCheckFailed) as info:
                kisin_fields(*inputs)
            messages.append(str(info.value))
        assert periods == [1, 4 if len(slots) == 1 else 1]
        assert messages[0] == messages[1]
