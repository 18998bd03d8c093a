"""Preparation, descent assumptions and the successive approximation."""

import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from crysred.arith import OFElem, PrimeContext, _entries, _mat_map, mat_det, mat_mul
from crysred.errors import (AssumptionViolated, GateFailed, HeightMismatch, NoConvergence,
                            SplitFailed)
import crysred.arith as arith_mod
import crysred.descent as descent_mod
import crysred.sring as sring_mod
from crysred.descent import (
    _certified_empty,
    _det_over_e_pow,
    _times_partner,
    check_descent_assumptions,
    compute_budget,
    descend,
    estimate_iterations,
    prepare,
    read_off_window,
    valuation_gate,
)
from crysred.kisin import _rotation_period, build_kisin_frobenius, det_normalize
from crysred.lattices import TypeTag, WeightData
from crysred.sring import SElem, fil_membership, s_frobenius, s_invert, s_mul, s_sums

from conftest import benchmark_workloads
from test_golden import GOLDEN
from test_lattices import mat
from useries_ref import e_pow


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
    raw, period = build_kisin_frobenius(lattice, tags, wd)
    return det_normalize(raw, period, tags, wd, lattice), wd


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
    assert prod[0][0] == e_pow(ctx, h) and prod[1][1] == e_pow(ctx, h)
    assert prod[0][1].is_zero() and prod[1][0].is_zero()


def height_partner(a, h, seed=None):
    """(B, inverse): the height partner B = adj(A) inverse of A, formed by
    `_times_partner` from C = Id, and the inverse of det(A)/E^h."""
    ctx = a[0][0].ctx
    inv = s_invert(_det_over_e_pow(descent_mod.mat_det(a), h), seed=seed)
    eye = ((SElem.one(ctx), SElem.zero(ctx)), (SElem.zero(ctx), SElem.one(ctx)))
    return _times_partner(eye, a, inv), inv


def assert_absorbs(a, h, c):
    """W A = C for W = `_times_partner(C / E^h, A, inverse)`, as `descend`
    forms W from a remainder C in Fil^h."""
    _, inv = height_partner(a, h)
    w = _times_partner(_mat_map(lambda e: e.div_e_pow(h), c), a, inv)
    assert all(x == y for x, y in zip(_entries(mat_mul(w, a)), _entries(c)))


class TestHeightPartner:
    def test_diagonal(self, ctx5):
        a = ((e_pow(ctx5, 3), SElem.zero(ctx5)),
             (SElem.zero(ctx5), SElem.one(ctx5)))
        b, _ = height_partner(a, 3)
        assert b[0][0] == SElem.one(ctx5) and b[1][1] == e_pow(ctx5, 3)
        c = ((e_pow(ctx5, 4), SElem.zero(ctx5)),
             (e_pow(ctx5, 3) * OFElem.from_int(ctx5, 7), SElem.zero(ctx5)))
        assert_absorbs(a, 3, c)

    def test_type_i_shape(self, ctx5):
        a = ((SElem.zero(ctx5), e_pow(ctx5, 2) * OFElem.from_int(ctx5, 3)),
             (SElem.one(ctx5), SElem.from_int(ctx5, 5)))
        b, _ = height_partner(a, 2)
        assert_height_identity(a, b, 2)
        e2 = e_pow(ctx5, 2)
        c = ((e2 * OFElem.from_int(ctx5, 4), e_pow(ctx5, 5)),
             (SElem.zero(ctx5), e2 * SElem(ctx5, [1, 2, 3])))
        assert_absorbs(a, 2, c)

    def test_unit_det_height_zero(self, ctx5):
        # det = 1: the partner is the inverse
        a = ((SElem.from_int(ctx5, 2), SElem.one(ctx5)),
             (SElem.one(ctx5), SElem.from_int(ctx5, 1)))
        b, inv = height_partner(a, 0)
        assert inv == SElem.one(ctx5)
        assert_height_identity(a, b, 0)
        assert_absorbs(a, 0, ((SElem(ctx5, [3, 1]), SElem.zero(ctx5)),
                              (SElem.one(ctx5), SElem.from_int(ctx5, 2))))

    def test_seed_claims_no_extra_digits(self, ctx5):
        # det(A) = E^3 (1 + E^2): dividing by E^3 undoes a carry, so the unit
        # has one digit less than A.  The seed inverts the unit only to the
        # unit's precision and is held one digit above it.
        h, p = 3, ctx5.p
        unit = SElem(ctx5, [1, 0, 1])
        a = ((e_pow(ctx5, h), SElem.zero(ctx5)), (SElem.zero(ctx5), unit))
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

    def test_non_unit_quotient(self, ctx5):
        # det(A) / E^h = p divides exactly but is not a unit
        h = 2
        a = ((SElem.from_int(ctx5, ctx5.p), SElem.zero(ctx5)),
             (SElem.zero(ctx5), e_pow(ctx5, h)))
        with pytest.raises(HeightMismatch, match="not a unit"):
            _det_over_e_pow(descent_mod.mat_det(a), h)


class TestPrepare:
    def test_f1_k3_monomial_mod_p(self):
        ctx = make_ctx(5, 1, [3])
        kf, wd = make_kisin(ctx, [3], [("I", 3, 5)])
        budget = compute_budget(wd, 5)
        split = prepare(kf, budget)
        a0 = split.a0[0]
        # A0 = [[0, E^3 a1], [1, a2*alpha_0]]; mod p: [[0, u^3 a1], [1, 0]]
        assert a0[0][0].is_zero()
        assert a0[0][1] == e_pow(ctx, 3) * OFElem.from_int(ctx, 3)
        assert a0[1][0] == SElem.one(ctx)
        assert a0[1][1].is_integral(margin=1)   # in p * O_F[[u]]
        red = a0[1][1].residue(ctx.m)
        assert red.is_zero()
        top = a0[0][1].residue(ctx.m)
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
        assert a0[0][0] == e_pow(ctx, 3) * OFElem.from_int(ctx, 2)
        # mod p: [[u^3 a1, 0], [0, 1]]
        assert a0[1][0].residue(ctx.m).is_zero()

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
        window = read_off_window(5, 3)
        for i in range(1):
            for r in range(2):
                for c in range(2):
                    got, want = cert.a_final[i][r][c], split.a0[i][r][c]
                    assert got.residue(ctx.m) == want.residue(ctx.m)
                    assert cert.a_final_mod_p[i][r][c] == want.residue(window)
        assert cert.final_prec >= ctx.n
        # the digits left after reading u-coordinates below the window
        assert cert.final_prec == min(e.prec - (window - 1) // ctx.p for m in cert.a_final
                                      for row in m for e in row)

    def test_det_mismatch_raises(self, monkeypatch):
        # a determinant unit off by a sign must fail the iterate det check
        import crysred.descent as descent_mod

        over = descent_mod._det_over_e_pow
        monkeypatch.setattr(descent_mod, "_det_over_e_pow",
                            lambda det, k: -over(det, k))
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
        # each live step costs one product (W) and its absorption two, an
        # empty step none (its term lists only give shapes); a slot whose
        # left neighbour is clean is left as it is
        import crysred.descent as descent_mod
        from crysred.pipeline import JobConfig, run_pipeline
        from test_golden import GOLDEN

        calls, batch = [], descent_mod._product_sums

        def counted(a, bs):
            if sys._getframe(1).f_code.co_name in ("mat_mul", "descend"):
                calls.extend(bs)
            return batch(a, bs)

        monkeypatch.setattr(descent_mod, "_product_sums", counted)
        certified = count_certified(monkeypatch)
        report = run_pipeline(JobConfig.from_dict(GOLDEN[name][0]))
        rows = sum(len(chain) for chain in report.stages["descent"]["chains"])
        assert report.error is None and rows > len(certified) > 0
        assert len(calls) == 3 * (rows - len(certified))

    @pytest.mark.parametrize("name", ["f2-r2-mixed", "f3-r3-p3-mixed"])
    def test_unchanged_slots_skip_the_det_check(self, name, monkeypatch):
        # det(A) is taken once per initial unit and absorbed live factor,
        # and once per slot and check (the height partner inverts the
        # checked unit), except that the first iterate's det(A) serves both
        # its unit and the check at iteration 0; an empty step's absorption
        # takes no determinant.  From iteration 1 on, a slot whose left
        # neighbour was clean is not checked again
        import crysred.descent as descent_mod
        from crysred.pipeline import JobConfig, run_pipeline
        from test_golden import GOLDEN

        calls, checked = [], []
        det_sum, eq = descent_mod._det_sum, SElem.__eq__

        def compared(x, y):
            if sys._getframe(1).f_code.co_name == "check_dets":
                checked.append(x)
            return eq(x, y)

        def counted(a):
            # an empty step's absorption takes only the shapes of its pairs
            if sys._getframe(1).f_code.co_name != "_absorb_nothing":
                calls.append(1)
            return det_sum(a)

        monkeypatch.setattr(descent_mod, "_det_sum", counted)
        monkeypatch.setattr(SElem, "__eq__", compared)
        certified = count_certified(monkeypatch)
        config = GOLDEN[name][0]
        descent = run_pipeline(JobConfig.from_dict(config)).stages["descent"]
        f, iterations = config["f"], descent["iterations"]
        rows = sum(len(chain) for chain in descent["chains"])
        clean_neighbours = f * iterations - rows
        assert clean_neighbours > 0 and certified
        every_slot = f + rows + f * (iterations + 1)
        assert len(calls) == every_slot - clean_neighbours - f - 2 * len(certified)
        # every slot is checked at iteration 0, then each absorbing slot; a
        # live absorption's determinant is one no earlier check saw (an
        # empty one keeps det(A), at most at a new precision)
        assert len(checked) == f + rows
        assert len({id(a) for a in checked}) >= f + rows - len(certified)

    def test_products_per_slot_iteration(self, monkeypatch):
        # A guard on the products `descend` asks for on a golden job: the
        # first iterate's det(A) per slot (2 pairs), then per live step
        # inv C on the nonzero entries of C/E^k, W (8), the absorption's
        # A (I + D1), A D2 and det(I + D1) in one batch (18), and
        # unit det(I + D1) with det(new A) in another (3).  E^k unit is a
        # shift, the height partner is never formed, and an empty step asks
        # for no product
        from test_golden import GOLDEN

        kf, budget = stage_inputs(GOLDEN["f3-r3-p3-mixed"][0], monkeypatch)
        pairs, nonzero = [], []
        batch, times_partner = descent_mod.s_sums, descent_mod._times_partner
        monkeypatch.setattr(descent_mod, "s_sums",
                            lambda sums: pairs.extend(t for s in sums for t in s) or batch(sums))
        monkeypatch.setattr(descent_mod, "_times_partner", lambda c, a, inv: nonzero.append(
            sum(1 for e in _entries(c) if e.c)) or times_partner(c, a, inv))
        certified = count_certified(monkeypatch)
        cert = descend(prepare(kf, budget), budget)
        rows = sum(len(chain) for chain in cert.chains)
        assert rows == 8 and cert.iterations == 3
        assert len(nonzero) == rows - len(certified) == 5
        assert len(pairs) == 2 * kf.f + 29 * len(nonzero) + sum(nonzero) == 158

    def test_estimate_iterations_sane(self):
        wd = WeightData((3,), (0,))
        budget = compute_budget(wd, 5)
        assert 2 <= estimate_iterations(wd, budget, 5, 40) <= 6


# p in {3, 5}, r in {1, 2, 3}; M = 12 keeps first slots >= M within reach
FUSED_CTXS = {(p, r): PrimeContext(p=p, f=r, n=3, m=12, r=r, nwork=8)
              for p in (3, 5) for r in (1, 2, 3)}


def fused_entry(ctx, rng):
    """An entry of one of the shapes the fused products must handle: dense,
    zero, with leading zero slots (`slice_from`), sparse, or with every
    value a multiple of p^t, so that the rescaled operand divides by a
    power of p; at a random precision and d in {0, 1, 2}."""
    kind = rng.choice(("dense", "zero", "tail", "sparse", "p-power"))
    prec, d = rng.randint(1, ctx.nwork), rng.choice((0, 0, 1, 2))
    if kind == "zero":
        return SElem(ctx, (), d, prec)
    mod = ctx.ppow(prec)
    slots = [[rng.randrange(mod) for _ in range(ctx.r)] for _ in range(rng.randint(1, ctx.m))]
    if kind == "sparse":
        slots = [s if rng.random() < 0.3 else [0] * ctx.r for s in slots]
    if kind == "p-power":
        q = ctx.ppow(rng.randint(1, ctx.dmax + 1))
        slots = [[v * q for v in s] for s in slots]
    x = SElem(ctx, [tuple(s) for s in slots], d, prec)
    return x.slice_from(rng.randint(1, ctx.m - 1)) if kind == "tail" else x


def fused_case(ctx, seed):
    rng = random.Random(seed)
    a, b = (((e[0], e[1]), (e[2], e[3]))
            for e in ([fused_entry(ctx, rng) for _ in range(4)] for _ in range(2)))
    return a, b, [fused_entry(ctx, rng) for _ in range(3)]


def as_stored(x):
    return x.c, x.d, x.prec


class TestFusedProducts:
    """`descent.mat_mul`/`mat_det` and `s_sums` against the products and
    sums taken one `s_mul` and one `_plus` at a time."""

    @pytest.mark.parametrize("p, r", sorted(FUSED_CTXS))
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_same_values_d_and_prec(self, p, r, seed):
        ctx = FUSED_CTXS[p, r]
        a, b, (x, y, z) = fused_case(ctx, seed)
        got, want = descent_mod.mat_mul(a, b), mat_mul(a, b)
        for i in range(2):
            for j in range(2):
                assert as_stored(got[i][j]) == as_stored(want[i][j])
        assert as_stored(descent_mod.mat_det(a)) == as_stored(mat_det(a))
        # two products that share a, in one batch, as the absorption forms
        # A (I + D1) and A D2
        both = descent_mod._as_mats(s_sums(descent_mod._product_sums(a, (b, a))))
        for got, b2 in zip(both, (b, a)):
            want = mat_mul(a, b2)
            assert [as_stored(e) for row in got for e in row] == \
                [as_stored(e) for row in want for e in row]
        # three products in one sum, with an operand shared between them
        # and a negated one, as check_dets forms det(A) - E^k * unit
        got = s_sums([((x, y), (-z, x), (y, y))])[0]
        assert as_stored(got) == as_stored(s_mul(x, y) + s_mul(-z, x) + s_mul(y, y))

    @pytest.mark.parametrize("p, r", sorted(FUSED_CTXS))
    @given(seed=st.integers(0, 2 ** 32 - 1), zeros=st.sampled_from([(), (1, 3), (0, 1, 2)]))
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_reassociated_w_equals_c_times_the_partner(self, p, r, seed, zeros):
        # W = (inv C) adj(A) against C B with B = adj(A) inv formed first,
        # as one batch of four products; `zeros` empties entries of C, as
        # the first iteration's zero column 2 does
        ctx = FUSED_CTXS[p, r]
        a, c, (inv, _, _) = fused_case(ctx, seed)
        c = [e for row in c for e in row]
        c = [SElem(ctx, (), e.d, e.prec) if n in zeros else e for n, e in enumerate(c)]
        c = ((c[0], c[1]), (c[2], c[3]))
        v = s_sums([((e, inv),) for e in (a[1][1], a[0][1], a[1][0], a[0][0])])
        partner = ((v[0], -v[1]), (-v[2], v[3]))
        got, want = _times_partner(c, a, inv), descent_mod.mat_mul(c, partner)
        assert stored_mats([got]) == stored_mats([want])

    @pytest.mark.parametrize("p, r", sorted(FUSED_CTXS))
    def test_cases_cover_the_branches(self, p, r, monkeypatch):
        # the generated cases reach entries with d > 0, zero entries,
        # leading zero slots, products whose first slot is >= M, and slots
        # that the kernel's sum exactly divides (e_k < 0)
        ctx = FUSED_CTXS[p, r]
        descaled, divided = sring_mod._descaled, []

        def spy(ctx, raw, base, lo, prec):
            divided.append(raw and p * -base > lo)
            return descaled(ctx, raw, base, lo, prec)

        monkeypatch.setattr(sring_mod, "_descaled", spy)
        seen = set()
        for seed in range(200):
            a, b, _ = fused_case(ctx, seed)
            descent_mod.mat_mul(a, b)
            entries = [e for m in (a, b) for row in m for e in row]
            seen.update({"d > 0"} if any(e.d for e in entries) else ())
            seen.update({"zero"} if any(not e.c for e in entries) else ())
            seen.update({"leading zeros"} if any(e.c and not any(e.c[:ctx.r])
                                                 for e in entries) else ())
            for i in range(2):
                for j in range(2):
                    for k in range(2):
                        x, y = a[i][k], b[k][j]
                        if x.c and y.c and (first_slot(x) + first_slot(y) >= ctx.m):
                            seen.add("first slot >= M")
        assert any(divided)
        assert seen == {"d > 0", "zero", "leading zeros", "first slot >= M"}


def dense_entry(ctx, rng):
    return SElem(ctx, [tuple(rng.randrange(ctx.ppow(ctx.nwork)) for _ in range(ctx.r))
                       for _ in range(ctx.m)])


class TestOnePlanPerBatch:
    """`s_sums` plans a batch once: each distinct operand is rescaled once
    and packed once, however many sums share it, and a lone pair goes to
    `_conv2_raw` with no plan."""

    @pytest.mark.parametrize("p, r", sorted(FUSED_CTXS))
    def test_shared_operands_are_rescaled_and_packed_once(self, p, r, monkeypatch):
        ctx = FUSED_CTXS[p, r]
        x, y, z, w = (dense_entry(ctx, random.Random(10 * p + r + i)) for i in range(4))
        # w and x are first used squared
        sums = [((w, w),), ((x, x), (x, y), (z, w)), ((x, w), (y, z))]
        want = [sum((s_mul(a, b) for a, b in terms[1:]), s_mul(*terms[0])) for terms in sums]
        s_sums(sums)  # fills `_fold_pack`, which packs through `_pack` too
        rescaled, packed = [], []
        rescale, pack = sring_mod._rescaled, arith_mod._pack
        monkeypatch.setattr(sring_mod, "_rescaled",
                            lambda *args: rescaled.append(args[1]) or rescale(*args))
        monkeypatch.setattr(arith_mod, "_pack", lambda *args: packed.append(args) or pack(*args))
        got = s_sums(sums)
        assert len(rescaled) == len(set(rescaled)) == 4
        assert len(packed) == 4
        assert [as_stored(e) for e in got] == [as_stored(e) for e in want]

    @pytest.mark.parametrize("p, r", sorted(FUSED_CTXS))
    def test_lone_pair_makes_one_kernel_call_and_no_plan(self, p, r, monkeypatch):
        ctx = FUSED_CTXS[p, r]
        x, y = (dense_entry(ctx, random.Random(10 * p + r + i)) for i in range(2))
        want = as_stored(s_mul(x, y))
        calls, kernel = [], sring_mod._conv2_raw

        def planned(*args):
            raise AssertionError("a lone pair built a plan")

        monkeypatch.setattr(sring_mod, "_conv2_raw",
                            lambda *args: calls.append(args) or kernel(*args))
        monkeypatch.setattr(sring_mod, "_conv2_sums", planned)
        monkeypatch.setattr(sring_mod, "_operand", planned)
        assert as_stored(s_sums([((x, y),)])[0]) == want
        assert len(calls) == 1


def count_certified(monkeypatch):
    """The list of W that `_certified_empty` returns, one per step it
    certifies empty, from now on."""
    certified, certify = [], descent_mod._certified_empty

    def counted(c, a, unit):
        w = certify(c, a, unit)
        if w is not None:
            certified.append(w)
        return w

    monkeypatch.setattr(descent_mod, "_certified_empty", counted)
    return certified


def first_slot(x):
    return next(i for i, v in enumerate(x.c) if v) // x.ctx.r


def base_change_configs():
    """The ten period-1 base-change jobs of the embeddings workload, seed 1."""
    workloads = benchmark_workloads()
    n = len(workloads.BASE_CHANGE)
    return {f"base-change-{i}": job["config"]
            for i, job in enumerate(workloads.embeddings(1)[:n])}


def periodic(p, ks, slots, copies):
    """The tuple of weights `ks` and Type slots `slots`, (type, a1, a2,
    v(a2)), repeated `copies` times; r = f."""
    params = [{"type": t, "a1": {"coeffs": a1}, "a2": {"coeffs": a2, "pexp": v}}
              for t, a1, a2, v in slots]
    f = len(ks) * copies
    return {"p": p, "f": f, "r": f, "weights": [[k, 0] for k in ks] * copies,
            "params": params * copies}


# p = 7, c = (2, 1, 1): v(a2) one above the gate bounds (1, 0, 0)
I_II = ([6, 2], [("I", [3, 1], [2, 5], 2), ("II", [1, 4], [6, 1], 1)])
I_II_I = ([6, 2, 4], [("I", [3, 1], [2, 5], 2), ("II", [1, 4], [6, 1], 1),
                      ("I", [5], [1, 3], 1)])
PERIODIC = dict(base_change_configs(),
                **{"I II x 2": periodic(7, *I_II, 2), "I II x 3": periodic(7, *I_II, 3),
                   "I II I x 2": periodic(7, *I_II_I, 2)})
# the least period of each
PERIODS = dict.fromkeys(PERIODIC, 1) | {"I II x 2": 2, "I II x 3": 2, "I II I x 2": 3}


def stage_inputs(config, monkeypatch):
    """(kisin, budget), the input that `run_pipeline` hands to `prepare`."""
    import crysred.pipeline as pipeline
    from crysred.pipeline import JobConfig

    seen = []
    monkeypatch.setattr(pipeline, "prepare",
                        lambda kf, budget: seen.append((kf, budget)) or prepare(kf, budget))
    report = pipeline.run_pipeline(JobConfig.from_dict(config))
    assert report.error is None
    return seen[0]


def stored_mats(mats):
    return [as_stored(e) for m in mats for row in m for e in row]


def outputs(kf, budget):
    """Everything `prepare` and `descend` return, as stored values."""
    split = prepare(kf, budget)
    cert = descend(split, budget)
    return {
        "split": [stored_mats(mats) for mats in (split.a0, split.c_mats, split.conjugated)]
        + [[as_stored(x) for x in split.x1]],
        "a_final": stored_mats(cert.a_final),
        "residues": [(e.c, e.prec) for m in cert.a_final_mod_p for row in m for e in row],
        "chains": cert.chains,
        "iterations": cert.iterations,
        "final_prec": cert.final_prec,
    }


class TestRotationPeriod:
    @pytest.mark.parametrize("keys, period", [
        ([1], 1), ([1, 1, 1, 1], 1), ([1, 2, 1, 2], 2), ([1, 2, 3, 1, 2, 3], 3),
        ([1, 2, 1, 2, 1], 5), ([1, 1, 2, 1, 1, 2], 3), ([1, 2, 2, 1], 4),
        ([1, 1, 1, 2], 4)])
    def test_least_period_dividing_f(self, keys, period):
        assert _rotation_period(keys) == period

    @pytest.mark.parametrize("name", sorted(PERIODIC))
    def test_period_path_equals_the_full_loop(self, name, monkeypatch):
        # the full loop is the same input with the period set to f
        kf, budget = stage_inputs(PERIODIC[name], monkeypatch)
        short = outputs(kf, budget)
        assert kf.period == prepare(kf, budget).period == PERIODS[name]
        assert short["iterations"] > 0
        assert outputs(replace(kf, period=kf.f), budget) == short

    @pytest.mark.parametrize("name", ["base-change-2", "I II x 3", "I II I x 2"])
    def test_one_height_partner_per_computed_slot(self, name, monkeypatch):
        # a live iteration computes d steps on a tuple of period d, and f
        # on the full loop; every slot of these tuples is live until the
        # end.  Each height partner is the inverse of one unit, and every
        # step that is not certified empty takes one
        kf, budget = stage_inputs(PERIODIC[name], monkeypatch)
        calls, partner = [], descent_mod.s_invert
        monkeypatch.setattr(descent_mod, "s_invert",
                            lambda *args, **kw: calls.append(1) or partner(*args, **kw))
        certified = count_certified(monkeypatch)
        cert = descend(prepare(kf, budget), budget)
        rows = sum(len(chain) for chain in cert.chains)
        assert rows == kf.f * cert.iterations and certified
        assert len(calls) + len(certified) == PERIODS[name] * cert.iterations
        calls.clear()
        certified.clear()
        cert = descend(prepare(replace(kf, period=kf.f), budget), budget)
        assert len(calls) + len(certified) == kf.f * cert.iterations == rows

    def test_aperiodic_tuple_runs_every_slot(self, monkeypatch):
        from test_golden import GOLDEN

        kf, budget = stage_inputs(GOLDEN["f3-r3-p3-mixed"][0], monkeypatch)
        assert kf.period == 3
        calls, partner = [], descent_mod.s_invert
        monkeypatch.setattr(descent_mod, "s_invert",
                            lambda *args, **kw: calls.append(1) or partner(*args, **kw))
        certified = count_certified(monkeypatch)
        cert = descend(prepare(kf, budget), budget)
        rows = sum(len(chain) for chain in cert.chains)
        assert len(calls) + len(certified) == rows > cert.iterations
        assert calls and certified

    @pytest.mark.parametrize("name", ["base-change-0", "I II x 2", "I II I x 2"])
    def test_no_convergence_message_lists_every_depth(self, name, monkeypatch):
        kf, budget = stage_inputs(PERIODIC[name], monkeypatch)
        monkeypatch.setattr(descent_mod, "estimate_iterations", lambda *args: -6)
        messages = []
        for kisin in (kf, replace(kf, period=kf.f)):
            with pytest.raises(NoConvergence, match="in 0 iterations") as info:
                descend(prepare(kisin, budget), budget)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert f"depths {[budget.c_max * PERIODIC[name]['p']] * kf.f}," in messages[0]


def checked_shortcuts(monkeypatch):
    """The list of W that `_certified_empty` returns, one per step it
    certifies empty, from now on.  Each such step is also taken the full
    way (`assert_empty_as_certified`), and each empty absorption too: the
    products A (I + D1), det(I + D1), unit det(I + D1) and det(new A) must
    give what `_absorb_nothing` gives, values, d and prec."""
    certified, certify = [], descent_mod._certified_empty
    absorb = descent_mod._absorb_nothing

    def checked(c, a, unit):
        w = certify(c, a, unit)
        if w is not None:
            assert_empty_as_certified(w, _times_partner(c, a, s_invert(unit)))
            certified.append(w)
        return w

    def absorbed(a, unit, det, factor):
        got = absorb(a, unit, det, factor)
        v = s_sums(descent_mod._product_sums(a, (factor,)) + [descent_mod._det_sum(factor)])
        new_a = descent_mod._as_mats(v[:4])[0]
        want = (new_a, *s_sums([((unit, v[4]),), descent_mod._det_sum(new_a)]))
        assert stored_mats([got[0]]) == stored_mats([want[0]])
        assert [as_stored(x) for x in got[1:]] == [as_stored(x) for x in want[1:]]
        return got

    monkeypatch.setattr(descent_mod, "_certified_empty", checked)
    monkeypatch.setattr(descent_mod, "_absorb_nothing", absorbed)
    return certified


def assert_empty_as_certified(w, full):
    """The full path's W has the (d, prec) of the certified zeros w, and
    its phi is zero, as stored, like theirs."""
    for got, want in zip(_entries(w), _entries(full)):
        assert (got.c, got.d, got.prec) == ((), want.d, want.prec)
        assert as_stored(s_frobenius(want)) == as_stored(s_frobenius(got))


def random_entry(ctx, rng, d_max):
    """Zero or a random element whose values are multiples of a random
    power of p, with leading zero slots (mostly few), at a random d and
    mostly full precision."""
    prec = rng.choice((ctx.nwork, ctx.nwork, rng.randint(1, ctx.nwork)))
    d = rng.randint(0, d_max)
    if rng.random() < 0.3:
        return SElem(ctx, (), d, prec)
    q, lo = ctx.ppow(rng.randint(0, prec)), rng.randrange(rng.choice((3, ctx.m)))
    slots = [(0,) * ctx.r] * lo + [tuple(rng.randrange(ctx.ppow(prec)) * q
                                         for _ in range(ctx.r))
                                   for _ in range(rng.randint(1, ctx.m - lo))]
    return SElem(ctx, slots, d, prec)


# the golden jobs that reach the descent
DESCENDING = sorted(set(GOLDEN) - {"gate-stop", "equal-weights"})


@st.composite
def mixed_tuples(draw):
    """p in {3, 5, 7}, f = r <= 3, mixed Types (at least one Type I slot),
    each v(a2) one or two above the gate's bound."""
    p = draw(st.sampled_from([3, 5, 7]))
    f = draw(st.integers(1, 3))
    ks = [draw(st.integers(1, p + 1)) for _ in range(f)]
    types = [draw(st.sampled_from(["I", "II"])) for _ in range(f)]
    types[draw(st.integers(0, f - 1))] = "I"
    budget = compute_budget(WeightData(tuple(ks), (0,) * f), p)

    def unit():
        rest = [draw(st.integers(0, p ** 2)) for _ in range(f - 1)]
        return [draw(st.integers(1, p - 1)) + p * draw(st.integers(0, p))] + rest

    params = [{"type": t, "a1": {"coeffs": unit()},
               "a2": {"coeffs": unit(), "pexp": max(c - 1, budget.c_max - c - 1)
                      + draw(st.integers(1, 2))}}
              for t, c in zip(types, budget.c)]
    return {"p": p, "f": f, "r": f, "weights": [[k, 0] for k in ks], "params": params}


class TestCertifiedEmptySteps:
    """`_certified_empty` is sound, and declining it changes nothing: the
    full path gives every certified step the same zeros, the products of
    its absorption give what `_absorb_nothing` gives, and `descend` gives
    the same certificate."""

    @staticmethod
    def assert_declining_changes_nothing(config, monkeypatch):
        kf, budget = stage_inputs(config, monkeypatch)
        certified = checked_shortcuts(monkeypatch)
        default = outputs(kf, budget)
        monkeypatch.setattr(descent_mod, "_certified_empty", lambda c, a, unit: None)
        assert outputs(kf, budget) == default
        return certified

    @pytest.mark.parametrize("name", DESCENDING)
    def test_golden_jobs(self, name, monkeypatch):
        self.assert_declining_changes_nothing(GOLDEN[name][0], monkeypatch)

    @pytest.mark.parametrize("name", sorted(PERIODIC))
    def test_periodic_tuples(self, name, monkeypatch):
        self.assert_declining_changes_nothing(PERIODIC[name], monkeypatch)

    @given(mixed_tuples())
    @settings(max_examples=15, derandomize=True, deadline=None)
    def test_mixed_tuples(self, config):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.assert_declining_changes_nothing(config, monkeypatch)

    @pytest.mark.parametrize("p", [3, 5])
    def test_bound_is_exact_on_one_slot(self, p):
        # C has one nonzero entry, p^t at slot s, and A = Diag(p^v, 1), so
        # W_ij = C_il p^(v_l) and phi(W) = p^(t + v_l + g(s)) gamma^s, zero
        # exactly when the bound holds
        ctx = PrimeContext(p=p, f=1, n=4, m=20, nwork=9)
        one, zero = SElem.one(ctx), SElem.zero(ctx)
        inv = s_invert(one)
        verdicts = set()
        for v in (0, 2):
            a = ((SElem.from_int(ctx, p ** v), zero), (zero, one))
            for pos in range(4):
                for s in range(ctx.m):
                    for t in range(ctx.nwork):
                        entries = [zero] * 4
                        entries[pos] = SElem(ctx, [0] * s + [p ** t])
                        c = ((entries[0], entries[1]), (entries[2], entries[3]))
                        w = _certified_empty(c, a, one)
                        full = _times_partner(c, a, inv)
                        empty = all(not s_frobenius(x).c for x in _entries(full))
                        assert (w is not None) == empty
                        verdicts.add(empty)
                        if empty:
                            assert_empty_as_certified(w, full)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("p, r", [(3, 1), (3, 2), (5, 1), (7, 2)])
    def test_certified_steps_are_empty(self, p, r):
        # random C, A and unit, with entries of random valuation, leading
        # zero slots and d; C/E^k may carry d up to 2, A up to 1
        ctx = PrimeContext(p=p, f=r, n=3, m=16, r=r, nwork=10)
        rng = random.Random(100 * p + r)
        kinds = [0, 0]
        for _ in range(300):
            c = _mat_map(lambda _: random_entry(ctx, rng, 2), ((0, 0), (0, 0)))
            a = _mat_map(lambda _: random_entry(ctx, rng, 1), ((0, 0), (0, 0)))
            unit = SElem(ctx, [rng.randrange(1, p)] + [
                rng.randrange(ctx.ppow(ctx.nwork)) for _ in range(rng.randrange(ctx.m))])
            w = _certified_empty(c, a, unit)
            kinds[w is not None] += 1
            if w is not None:
                assert_empty_as_certified(w, _times_partner(c, a, s_invert(unit)))
        assert min(kinds) >= 30

    def test_unit_with_a_denominator_is_declined(self):
        ctx = PrimeContext(p=5, f=1, n=3, m=12, nwork=8)
        zero = SElem.zero(ctx)
        eye = ((SElem.one(ctx), zero), (zero, SElem.one(ctx)))
        assert _certified_empty(((zero, zero), (zero, zero)), eye, SElem.one(ctx)) is not None
        assert _certified_empty(((zero, zero), (zero, zero)), eye,
                                SElem(ctx, (5,), 1, 8)) is None
