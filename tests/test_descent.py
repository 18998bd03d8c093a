"""Preparation, descent assumptions and the successive approximation."""

import sys

import pytest

from crysred.arith import OFElem, PrimeContext, mat_det, mat_mul
from crysred.errors import AssumptionViolated, GateFailed, HeightMismatch, SplitFailed
from crysred.descent import (
    check_descent_assumptions,
    compute_budget,
    descend,
    estimate_iterations,
    height_partner,
    prepare,
    valuation_gate,
)
from crysred.kisin import build_kisin_frobenius, det_normalize
from crysred.lattices import TypeTag, WeightData
from crysred.sring import SElem, fil_membership, s_invert, s_mul

from test_lattices import mat


def make_ctx(p, f, ks, m=None, n=None):
    from crysred.pipeline import JobConfig, preflight_precision

    cfg = JobConfig(p=p, f=f, weights=[[k, 0] for k in ks],
                    params=[{"type": "I", "a1": 1, "a2": p}] * f,
                    precision=(m, n) if m else None)
    pf = preflight_precision(cfg)
    ctx = PrimeContext(p=p, f=f, n=pf["N"], m=pf["M"], nwork=pf["nwork"])
    return ctx


def make_kisin(ctx, ks, specs):
    """specs: list of (type, a1, a2) integer triples."""
    wd = WeightData(tuple(ks), (0,) * len(ks))
    lattice, tags = [], []
    for kind, a1, a2 in specs:
        zero, one = OFElem.zero(ctx), OFElem.one(ctx)
        a1e, a2e = OFElem.from_int(ctx, a1), OFElem.from_int(ctx, a2)
        if kind == "I":
            lattice.append(((zero, a1e), (one, a2e)))
        else:
            lattice.append(((a1e, zero), (a2e, one)))
        tags.append(TypeTag(kind))
    lattice, tags = tuple(lattice), tuple(tags)
    raw = build_kisin_frobenius(lattice, tags, wd)
    return det_normalize(raw, tags, wd, lattice), wd


class TestBudget:
    @pytest.mark.parametrize("p,k,c", [(5, 3, 1), (5, 4, 2), (3, 7, 7), (7, 5, 1)])
    def test_examples(self, p, k, c):
        wd = WeightData((k,), (0,))
        assert compute_budget(wd, p).c == (c,)

    def test_cmax(self):
        wd = WeightData((3, 4), (0, 0))
        b = compute_budget(wd, 5)
        assert b.c == (1, 2) and b.c_max == 2


class TestGate:
    def test_f1_pass(self, ctx5):
        wd = WeightData((3,), (0,))
        budget = compute_budget(wd, 5)
        rep = valuation_gate((OFElem.from_int(ctx5, 5),), wd, budget)
        assert rep.passed and rep.bounds == (0,)

    def test_f2_bounds(self, ctx5):
        # p=5, k=(3,4): bounds max{0, 1-0-1}=0 and max{1, -1}=1
        wd = WeightData((3, 4), (0, 0))
        budget = compute_budget(wd, 5)
        rep = valuation_gate(
            (OFElem.from_int(ctx5, 5), OFElem.from_int(ctx5, 25)), wd, budget)
        assert rep.bounds == (0, 1)

    def test_boundary_fails(self, ctx5):
        wd = WeightData((4,), (0,))
        budget = compute_budget(wd, 5)  # bound = c - 1 = 1
        with pytest.raises(GateFailed):
            valuation_gate((OFElem.from_int(ctx5, 5),), wd, budget)

    def test_zero_a2_passes(self, ctx5):
        wd = WeightData((3,), (0,))
        budget = compute_budget(wd, 5)
        rep = valuation_gate((OFElem.zero(ctx5),), wd, budget)
        assert rep.passed


def assert_height_identity(a, b, h):
    """A B = E^h * Id, compared at the precision of the product."""
    ctx = a[0][0].ctx
    prod = mat_mul(a, b)
    assert prod[0][0] == SElem.e_pow(ctx, h) and prod[1][1] == SElem.e_pow(ctx, h)
    assert prod[0][1].is_zero() and prod[1][0].is_zero()


class TestHeightPartner:
    def test_diagonal(self, ctx5):
        a = ((SElem.e_pow(ctx5, 3), SElem.zero(ctx5)),
             (SElem.zero(ctx5), SElem.one(ctx5)))
        b, _ = height_partner(a, 3)
        assert b[0][0] == SElem.one(ctx5) and b[1][1] == SElem.e_pow(ctx5, 3)

    def test_type_i_shape(self, ctx5):
        a = ((SElem.zero(ctx5), SElem.e_pow(ctx5, 2) * OFElem.from_int(ctx5, 3)),
             (SElem.one(ctx5), SElem.from_int(ctx5, 5)))
        b, _ = height_partner(a, 2)
        assert_height_identity(a, b, 2)

    def test_unit_det_height_zero(self, ctx5):
        # det = 1: the partner is the inverse
        a = ((SElem.from_int(ctx5, 2), SElem.one(ctx5)),
             (SElem.one(ctx5), SElem.from_int(ctx5, 1)))
        b, inv = height_partner(a, 0)
        assert inv == SElem.one(ctx5)
        assert_height_identity(a, b, 0)

    def test_seed_claims_no_extra_digits(self, ctx5):
        # det(A) = E^3 (1 + E^2): dividing by E^3 undoes a carry, so the unit
        # has one digit less than A.  The seed inverts the unit only to the
        # unit's precision and is held one digit above it.
        h, p = 3, ctx5.p
        unit = SElem(ctx5, [1, 0, 1])
        a = ((SElem.e_pow(ctx5, h), SElem.zero(ctx5)), (SElem.zero(ctx5), unit))
        unit_prec = mat_det(a).div_e_pow(h).prec
        assert unit_prec == ctx5.nwork - 1
        seed = s_invert(unit + SElem.from_int(ctx5, p ** unit_prec))
        b, inv = height_partner(a, h, seed=seed)
        assert inv.prec <= unit_prec
        assert all(e.prec <= unit_prec for row in b for e in row)
        assert_height_identity(a, b, h)

    def test_mismatch(self, ctx5):
        a = ((SElem.one(ctx5), SElem.zero(ctx5)),
             (SElem.zero(ctx5), SElem.one(ctx5)))
        with pytest.raises(HeightMismatch):
            height_partner(a, 1)


class TestPrepare:
    def test_f1_k3_monomial_mod_p(self):
        ctx = make_ctx(5, 1, [3])
        kf, wd = make_kisin(ctx, [3], [("I", 3, 5)])
        budget = compute_budget(wd, 5)
        split = prepare(kf, budget)
        a0 = split.a0[0]
        # A0 = [[0, E^3 a1], [1, a2*alpha_0]]; mod p: [[0, u^3 a1], [1, 0]]
        assert a0[0][0].is_zero()
        assert a0[0][1] == SElem.e_pow(ctx, 3) * OFElem.from_int(ctx, 3)
        assert a0[1][0] == SElem.one(ctx)
        assert a0[1][1].is_integral(margin=1)   # in p * O_F[[u]]
        red = a0[1][1].residue()
        assert red.is_zero()
        top = a0[0][1].residue()
        assert top.u_order() == 3

    def test_zero_a2_trivial_split(self):
        ctx = make_ctx(5, 1, [3])
        kf, wd = make_kisin(ctx, [3], [("I", 2, 0)])
        budget = compute_budget(wd, 5)
        split = prepare(kf, budget)
        assert split.x1[0].is_zero()
        for row in split.c_mats[0]:
            for e in row:
                assert e.is_zero()

    def test_type_ii_form(self):
        ctx = make_ctx(5, 2, [3, 3])
        kf, wd = make_kisin(ctx, [3, 3], [("I", 3, 5), ("II", 2, 10)])
        budget = compute_budget(wd, 5)
        split = prepare(kf, budget)
        a0 = split.a0[1]
        assert a0[0][1].is_zero() and a0[1][1] == SElem.one(ctx)
        assert a0[0][0] == SElem.e_pow(ctx, 3) * OFElem.from_int(ctx, 2)
        # mod p: [[u^3 a1, 0], [0, 1]]
        assert a0[1][0].residue().is_zero()

    def test_assumptions_pass(self):
        ctx = make_ctx(5, 1, [3])
        kf, wd = make_kisin(ctx, [3], [("I", 3, 5)])
        budget = compute_budget(wd, 5)
        split = prepare(kf, budget)
        assert check_descent_assumptions(split, budget) is None

    def test_assumption_a_boundary(self):
        ctx = make_ctx(5, 1, [3])
        kf, wd = make_kisin(ctx, [3], [("I", 3, 5)])
        budget = compute_budget(wd, 5)
        split = prepare(kf, budget)
        from crysred.descent import HeightBudget

        bad = HeightBudget((1,), 0)   # c_max(p-2) = 0 < 3
        with pytest.raises(AssumptionViolated):
            check_descent_assumptions(split, bad)


class TestDescend:
    def test_zero_remainder_fixed_point(self):
        ctx = make_ctx(5, 1, [3])
        kf, wd = make_kisin(ctx, [3], [("I", 2, 0)])
        budget = compute_budget(wd, 5)
        split = prepare(kf, budget)
        cert = descend(split, budget)
        assert cert.iterations == 0
        assert cert.chains == [[]]

    def test_gain_law_f1(self):
        # p=5, k=3, c=1: h-chain 5 -> 10 -> 30 -> 110 -> ...
        ctx = make_ctx(5, 1, [3])
        kf, wd = make_kisin(ctx, [3], [("I", 3, 5)])
        budget = compute_budget(wd, 5)
        split = prepare(kf, budget)
        cert = descend(split, budget)
        hs = [row["h"] for row in cert.chains[0]]
        expected = [5]
        while expected[-1] <= ctx.m:
            h = expected[-1]
            expected.append(5 * (h - 3 - h // 5 + 1))
        assert hs == expected[:len(hs)]
        for row in cert.chains[0]:
            assert row["next_h"] == 5 * (row["h"] - row["k_slot"]
                                         - row["h"] // 5 + 1)
            assert row["next_h"] > row["h"]

    def test_mod_p_equality_and_dets(self):
        ctx = make_ctx(5, 1, [3])
        kf, wd = make_kisin(ctx, [3], [("I", 3, 5)])
        budget = compute_budget(wd, 5)
        split = prepare(kf, budget)
        cert = descend(split, budget)
        for i in range(1):
            for r in range(2):
                for c in range(2):
                    assert cert.a_final[i][r][c].residue() == split.a0[i][r][c].residue()
        assert cert.final_prec >= ctx.n
        assert cert.final_prec == min(e.to_useries().prec for m in cert.a_final
                                      for row in m for e in row)

    def test_det_mismatch_raises(self, monkeypatch):
        # a determinant unit off by a sign must fail the iterate det check
        import crysred.descent as descent_mod

        over = descent_mod._det_over_e_pow
        monkeypatch.setattr(descent_mod, "_det_over_e_pow",
                            lambda a, k: -over(a, k))
        ctx = make_ctx(5, 1, [3])
        kf, wd = make_kisin(ctx, [3], [("I", 3, 5)])
        budget = compute_budget(wd, 5)
        with pytest.raises(SplitFailed, match="det != E"):
            descend(prepare(kf, budget), budget)

    def test_f2_mixed_types(self):
        ctx = make_ctx(5, 2, [2, 3])
        kf, wd = make_kisin(ctx, [2, 3], [("I", 3, 5), ("II", 2, 10)])
        budget = compute_budget(wd, 5)
        split = prepare(kf, budget)
        cert = descend(split, budget)
        # chains interleave the two weights
        for chain in cert.chains:
            for row in chain:
                assert row["next_h"] == 5 * (row["h"] - row["k_slot"]
                                             - row["h"] // 5 + 1)

    @pytest.mark.parametrize("name", ["f2-r2-mixed", "f3-r3-p3-mixed"])
    def test_clean_neighbour_makes_no_products(self, name, monkeypatch):
        # each step costs one product (W) and its absorption two; a slot
        # whose left neighbour is clean is left as it is
        import crysred.descent as descent_mod
        from crysred.pipeline import JobConfig, run_pipeline
        from test_golden import GOLDEN

        calls = []
        monkeypatch.setattr(descent_mod, "mat_mul",
                            lambda a, b: calls.append(1) or mat_mul(a, b))
        report = run_pipeline(JobConfig.from_dict(GOLDEN[name][0]))
        rows = sum(len(chain) for chain in report.stages["descent"]["chains"])
        assert report.error is None and rows > 0
        assert len(calls) == 3 * rows

    @pytest.mark.parametrize("name", ["f2-r2-mixed", "f3-r3-p3-mixed"])
    def test_unchanged_slots_skip_the_det_check(self, name, monkeypatch):
        # det(A) is taken once per initial unit, height partner and absorbed
        # factor, and once per slot and check; from iteration 1 on, a slot
        # whose left neighbour was clean is not checked again
        import crysred.descent as descent_mod
        from crysred.pipeline import JobConfig, run_pipeline
        from test_golden import GOLDEN

        calls, checked = [], []

        def counted(a):
            calls.append(1)
            if sys._getframe(1).f_code.co_name == "check_dets":
                checked.append(a)
            return mat_det(a)

        monkeypatch.setattr(descent_mod, "mat_det", counted)
        config = GOLDEN[name][0]
        descent = run_pipeline(JobConfig.from_dict(config)).stages["descent"]
        f, iterations = config["f"], descent["iterations"]
        rows = sum(len(chain) for chain in descent["chains"])
        clean_neighbours = f * iterations - rows
        assert clean_neighbours > 0
        every_slot = f + 2 * rows + f * (iterations + 1)
        assert len(calls) == every_slot - clean_neighbours
        # each check sees a matrix no earlier check saw: every slot at
        # iteration 0, then each absorbing slot's new matrix
        assert len({id(a) for a in checked}) == len(checked) == f + rows

    def test_estimate_iterations_sane(self):
        wd = WeightData((3,), (0,))
        budget = compute_budget(wd, 5)
        assert 2 <= estimate_iterations(wd, budget, 5, 40) <= 6
