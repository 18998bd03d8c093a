"""Canonical S_F arithmetic: gamma, the Frobenius, the units (1 + w_e)^c,
lambda units, ideals."""

import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from crysred.arith import (
    OFElem,
    PrimeContext,
    _of_add_raw,
    _of_mul_raw,
    _of_sub_raw,
    _of_val_raw,
)
from crysred.errors import NotAUnit, NotIntegral, PrecisionExhausted
from crysred.pipeline import JobConfig, preflight_precision
from crysred.sring import (
    PhiExpPoly,
    SElem,
    _rescaled,
    _unit_power,
    _w_power,
    _w_powers,
    fil_membership,
    in_p_pow_s,
    lambda_factor_count,
    lambda_power,
    s_frobenius,
    s_invert,
    s_mul,
)

from conftest import benchmark_workloads, random_of, random_useries
from useries_ref import (at_prec, e_pow, from_useries, frobenius, mul, residue, series,
                         unit_power, w_power)


def gamma(ctx):
    """Reference: gamma = phi(E)/p = 1 + w_1."""
    return SElem.one(ctx) + _w_power(ctx, 1, 1)


def random_selem(ctx, rng, d=0, prec=None):
    prec = ctx.n if prec is None else prec
    return SElem(ctx, [[rng.randrange(ctx.ppow(prec)) for _ in range(ctx.r)]
                       for _ in range(ctx.m)], d, prec)


def slots(z):
    """z's stored coefficients as one r-tuple per slot."""
    return tuple(zip(*[iter(z.c)] * z.ctx.r))


def naive_s_mul(x, y):
    """Schoolbook product from the definition: slot i + j gets
    c_i d_j p^(floor((i+j)/p) - floor(i/p) - floor(j/p)), over O_F mod p^prec."""
    ctx, p = x.ctx, x.ctx.p
    prec = min(x.prec, y.prec)
    out = [OFElem.zero(ctx, prec) for _ in range(ctx.m)]
    for i in range(ctx.m):
        for j in range(ctx.m - i):
            carry = (i + j) // p - i // p - j // p
            term = OFElem(ctx, x.coeff(i).c, prec) * OFElem(ctx, y.coeff(j).c, prec)
            out[i + j] = out[i + j] + term * ctx.ppow(carry)
    slots = [v.c for v in out]
    while slots and not any(slots[-1]):
        slots.pop()
    return tuple(slots), x.d + y.d, prec


class TestPhiExpPoly:
    def test_arithmetic(self):
        a = PhiExpPoly((1, 2))
        b = PhiExpPoly((0, 0, 3))
        assert (a + b).c == (1, 2, 3)
        assert (a - a).c == ()
        assert a.phi_shifted(2).c == (0, 0, 1, 2)

    def test_terms(self):
        assert PhiExpPoly((0, 5)).terms() == [(1, 5)]


class TestGamma:
    def test_p3_expansion(self, ctx3):
        # (u^3 + 3)/3 with u = E - 3: E^3/3 - 3E^2 + 9E - 8
        g = gamma(ctx3)
        assert g.coeff(0) == -8
        assert g.coeff(1) == 9
        assert g.coeff(2) == -3
        assert g.coeff(3) == 1
        assert all(not any(g.coeff(j).c) for j in range(4, ctx3.m))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_constant_term(self, p):
        ctx = PrimeContext(p=p, f=1, n=6, m=2 * p + 2)
        g = gamma(ctx)
        assert g.coeff(0) == 1 - p ** (p - 1)

    def test_is_unit(self, ctx5):
        assert gamma(ctx5).is_unit()

    def test_matches_u_substitution(self, ctx5):
        # gamma * p == u^p + p as elements of S_F
        ctx = ctx5
        lhs = gamma(ctx) * ctx.p
        u_poly = series(ctx, [ctx.p] + [0] * (ctx.p - 1) + [1])
        assert lhs == from_useries(u_poly)


class TestSMul:
    def test_identity(self, ctx5, rng):
        x = random_selem(ctx5, rng)
        assert s_mul(x, SElem.one(ctx5)) == x

    def test_carry_exponent_e_times_e_pminus1(self, ctx3):
        # E * E^(p-1) = p * (E^p / p): canonical c_p = p
        x = e_pow(ctx3, 1)
        y = e_pow(ctx3, ctx3.p - 1)
        prod = s_mul(x, y)
        assert prod.coeff(ctx3.p) == ctx3.p
        assert all(not any(prod.coeff(j).c) for j in range(ctx3.m) if j != ctx3.p)

    def test_e2_squared_p3(self, ctx3):
        # brute-force oracle: E^4 = (u+3)^4 expanded, re-expanded in E
        prod = s_mul(e_pow(ctx3, 2), e_pow(ctx3, 2))
        assert prod.coeff(4) == 3
        assert all(not any(prod.coeff(j).c) for j in range(ctx3.m) if j != 4)

    def test_matches_useries_mul(self, ctx5r2, rng):
        # embed two integral polynomials of degree < M/2 (so the product is
        # truncation-free) and multiply both ways
        ctx = ctx5r2
        for _ in range(4):
            a, b = (series(ctx, [[rng.randrange(ctx.ppow(ctx.n))
                                  for _ in range(ctx.r)]
                                 for _ in range(ctx.m // 2)])
                    for _ in range(2))
            lhs = s_mul(from_useries(a), from_useries(b))
            assert lhs == from_useries(mul(a, b))

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_ring_axioms(self, ctx3, data):
        ctx = ctx3
        mod = ctx.ppow(ctx.n)
        coeffs = data.draw(st.lists(
            st.lists(st.integers(0, mod - 1), min_size=ctx.m, max_size=ctx.m),
            min_size=3, max_size=3))
        x, y, z = (SElem(ctx, [(v,) for v in cs], 0, ctx.n) for cs in coeffs)
        assert s_mul(s_mul(x, y), z) == s_mul(x, s_mul(y, z))
        assert s_mul(x, y + z) == s_mul(x, y) + s_mul(x, z)
        assert s_mul(x, y) == s_mul(y, x)

    def test_canonical_uniqueness_roundtrip(self, ctx5, rng):
        u = random_useries(ctx5, rng)
        x = from_useries(u)
        assert from_useries(x.to_useries()) == x


class TestSMulExact:
    """s_mul against the definition: identical coefficients, d and precision."""

    @pytest.mark.parametrize("name", ["ctx3", "ctx5", "ctx5r2", "ctx3r4"])
    def test_matches_definition(self, name, request, rng):
        ctx = request.getfixturevalue(name)
        n, top, m = ctx.n, ctx.nwork + 2, ctx.m
        pairs = [
            (random_selem(ctx, rng), random_selem(ctx, rng)),
            (random_selem(ctx, rng, d=1), random_selem(ctx, rng, d=2, prec=ctx.nwork)),
            (random_selem(ctx, rng, prec=top), random_selem(ctx, rng, prec=n + 1)),
            (random_selem(ctx, rng, prec=top), random_selem(ctx, rng, prec=top)),
            (SElem.from_of(ctx, random_of(ctx, rng)), random_selem(ctx, rng, prec=top)),
            (e_pow(ctx, m - 2), random_selem(ctx, rng, d=1)),
            (e_pow(ctx, m - ctx.p - 1), e_pow(ctx, ctx.p)),
            (e_pow(ctx, m - 1), e_pow(ctx, 1)),
            (SElem.zero(ctx), random_selem(ctx, rng)),
        ]
        for x, y in pairs:
            for a, b in ((x, y), (y, x)):
                prod = s_mul(a, b)
                assert (slots(prod), prod.d, prod.prec) == naive_s_mul(a, b)

    @pytest.mark.parametrize("name", ["ctx3", "ctx5r2", "ctx3r4"])
    def test_sized_operands_match_definition(self, name, request, rng):
        # operands that drop carry digits (s > 0), products that vanish at
        # prec, supports that skip slots, and elements held above nwork
        ctx = request.getfixturevalue(name)
        m, n, dmax = ctx.m, ctx.n, ctx.dmax

        def integral():
            x = from_useries(random_useries(ctx, rng))
            # at r > 1 the operand drops all its carry padding
            assert ctx.r == 1 or _rescaled(ctx, x.c, 0, m)[1] >= dmax
            return x

        def times_p(x, v):
            return SElem(ctx, [[c * ctx.ppow(v) for c in cj] for cj in slots(x)], x.d, x.prec)

        dense = random_selem(ctx, rng, d=1, prec=ctx.nwork)
        half = n // 2 + 1
        pairs = [
            (integral(), integral()),
            (integral(), dense),
            (at_prec(integral(), n), random_selem(ctx, rng)),
            (times_p(integral(), 2), integral()),
            (times_p(integral(), half), times_p(at_prec(integral(), n), half)),
            (times_p(integral(), n - 1), at_prec(integral(), n)),
            (times_p(integral(), n), at_prec(integral(), n)),
            (dense.slice_from(m // 2), random_selem(ctx, rng).slice_from(m - m // 2)),
            (dense.slice_from(m // 2), random_selem(ctx, rng).slice_from(m - m // 2 - 1)),
            (dense.slice_from(m - 1), dense.slice_from(1)),
            (dense.slice_from(3), integral().slice_from(ctx.p + 1)),
            (integral()._lift_d(3), dense),
            (dense._lift_d(2), integral()._lift_d(1)),
            (times_p(integral(), 1)._lift_d(4), dense.slice_from(2)._lift_d(3)),
        ]
        for x, y in pairs:
            for a, b in ((x, y), (y, x)):
                prod = s_mul(a, b)
                assert (slots(prod), prod.d, prod.prec) == naive_s_mul(a, b)

    def test_above_nwork_matches_larger_context(self, rng):
        # elements held above nwork (as _lift_d makes them) must multiply
        # as they do in a context whose nwork covers their precision
        small = PrimeContext(p=5, f=2, r=2, n=8, m=12, nwork=11)
        large = PrimeContext(p=5, f=2, r=2, n=8, m=12, nwork=17)
        prec = 14
        for _ in range(20):
            cs = [[[rng.randrange(5 ** prec) for _ in range(2)] for _ in range(12)]
                  for _ in range(2)]
            lo = s_mul(*(SElem(small, c, 0, prec) for c in cs))
            hi = s_mul(*(SElem(large, c, 0, prec) for c in cs))
            assert (lo.c, lo.prec) == (hi.c, hi.prec)
            lo = OFElem(small, cs[0][0], prec) * OFElem(small, cs[1][0], prec)
            hi = OFElem(large, cs[0][0], prec) * OFElem(large, cs[1][0], prec)
            assert (lo.c, lo.prec) == (hi.c, hi.prec)


class TestReducedConstructor:
    """Results built without re-reduction are what the checked constructor
    would store."""

    @pytest.mark.parametrize("name", ["ctx3", "ctx5", "ctx5r2"])
    def test_results_are_canonical(self, name, request, rng):
        ctx = request.getfixturevalue(name)
        for _ in range(3):
            x = random_selem(ctx, rng, d=rng.randrange(2), prec=ctx.nwork + 2)
            y = random_selem(ctx, rng, d=rng.randrange(2))
            for z in (s_mul(x, y), s_mul(y, SElem.zero(ctx)), s_frobenius(x),
                      s_frobenius(s_frobenius(y)), x + y, x - y, y - x):
                assert SElem(ctx, slots(z), z.d, z.prec).c == z.c


def w_powers_by_products(ctx, e):
    """Reference for `_w_power`: w = phi^(e-1)(gamma) - 1, then
    repeated s_mul until the power vanishes at (M, nwork)."""
    g = gamma(ctx)
    for _ in range(e - 1):
        g = s_frobenius(g)
    w = g - SElem.one(ctx)
    powers = [SElem.one(ctx)]
    while True:
        nxt = s_mul(powers[-1], w)
        if nxt.is_zero():
            return powers
        powers.append(nxt)


def w_powers_closed_form(ctx, e):
    """`_w_power(ctx, e, l)` for l = 0, 1, ... until it vanishes."""
    powers = [_w_power(ctx, e, 0)]
    while not powers[-1].is_zero():
        powers.append(_w_power(ctx, e, len(powers)))
    return powers[:-1]


def phi_prec(ctx):
    """The precision of s_frobenius's image of an element held at nwork:
    the truncation at E^M leaves M - floor(M/p) digits exact."""
    return min(ctx.nwork, ctx.m - ctx.m // ctx.p)


def capped(ctx, triple, prec):
    """A (c, d, prec) triple reduced to precision min(prec, its own) and
    trimmed."""
    c, d, q = triple
    q = min(q, prec)
    mod = ctx.ppow(q)
    out = [tuple(v % mod for v in x) for x in c]
    while out and not any(out[-1]):
        out.pop()
    return tuple(out), d, q


def agreement(x, y, m, prec):
    """Leading p-adic digits, up to prec, in which slots 0 .. m-1 of x and
    y agree; the two may live in contexts with different M."""
    ctx = x.ctx
    mod = ctx.ppow(prec)
    vals = [_of_val_raw(ctx, _of_sub_raw(a, b, mod), prec)
            for a, b in zip(padded(x)[:m], padded(y)[:m])]
    return min((v for v in vals if v is not None), default=prec)


class TestWPowers:
    @pytest.mark.parametrize("r", [1, 4])
    @pytest.mark.parametrize("p,m,e", [(3, 24, 1), (3, 24, 2), (3, 24, 3),
                                       (5, 40, 1), (5, 40, 2), (7, 56, 2)])
    def test_closed_form_matches_products(self, p, m, e, r):
        # for e >= 2 the products start from phi(gamma), which is exact to
        # phi_prec digits; at (3, 24) that is 16 of nwork = 18, so compare
        # there, and the closed-form powers past the products' end vanish
        ctx = PrimeContext(p=p, f=1, n=6, m=m, r=r)
        got = w_powers_closed_form(ctx, e)
        want = w_powers_by_products(PrimeContext(p=p, f=1, n=6, m=m, r=r), e)
        prec = ctx.nwork if e == 1 else phi_prec(ctx)
        assert len(got) >= len(want) > 1
        assert all(w.prec == prec for w in want[1:])
        for x in got[len(want):]:
            assert capped(ctx, (slots(x), x.d, x.prec), prec)[0] == ()
        assert [(x.c, x.prec) for x in _w_powers(ctx, e)] == [(x.c, x.prec) for x in got]
        if e == 1:
            assert len(got) == len(want)
        for x, y in zip(got, want):
            assert capped(ctx, (slots(x), x.d, x.prec), y.prec) == (slots(y), y.d, y.prec)

    @pytest.mark.parametrize("r", [1, 4])
    @pytest.mark.parametrize("m,e", [(8, 1), (14, 2)])
    def test_only_the_unit_power(self, m, e, r):
        # w = u^(p^e)/p is zero at (M, nwork) already: the list is just [1]
        ctx = PrimeContext(p=13, f=1, n=1, m=m, r=r, nwork=5)
        got = w_powers_closed_form(ctx, e)
        want = w_powers_by_products(PrimeContext(p=13, f=1, n=1, m=m, r=r, nwork=5), e)
        assert len(got) == len(want) == 1
        assert (got[0].c, got[0].d, got[0].prec) == (want[0].c, want[0].d, want[0].prec)


def benchmark_contexts():
    """The distinct contexts (p, f, r, N, M, nwork) of the f1-sweep and
    embeddings jobs at seed 1."""
    workloads, out = benchmark_workloads(), set()
    for make in (workloads.f1_sweep, workloads.embeddings):
        for job in make(1):
            cfg = JobConfig.from_dict(job["config"])
            pf = preflight_precision(cfg)
            out.add((cfg.p, cfg.f, cfg.r or cfg.f, pf["N"], pf["M"], pf["nwork"]))
    return sorted(out)


class TestWPowerRecurrence:
    """`_w_power`, which walks the slots down from the top by the binomial
    recurrence, and `_unit_power` over it, against `useries_ref`'s
    slot-by-slot `w_power` and `unit_power`: every l until the power
    vanishes, and four exponents c of each unit."""

    def check(self, ctx, e):
        """Compare every power of w_e and the units; return which of
        M <= n and M > n + 1 the nonzero powers with l >= 1 met."""
        kinds, l = set(), 0
        while True:
            got, want = _w_power(ctx, e, l), w_power(ctx, e, l)
            assert (got.c, got.d, got.prec) == (want.c, want.d, want.prec), (e, l)
            if want.is_zero():
                break
            n = ctx.p ** e * l
            if l and ctx.m <= n:
                kinds.add("M <= n")
            if l and ctx.m > n + 1:
                kinds.add("M > n + 1")
            l += 1
        for c in (-36, -1, 1, 5):
            got, want = _unit_power(ctx, e, c), unit_power(ctx, e, c)
            assert (got.c, got.d, got.prec) == (want.c, want.d, want.prec), (e, c)
        return kinds

    def check_every_e(self, ctx):
        """`check` at e = 1, 2, ... up to the first e with w_e = 0."""
        kinds, e = set(), 1
        while True:
            kinds |= self.check(ctx, e)
            if len(_w_powers(ctx, e)) == 1:
                return kinds
            e += 1

    @pytest.mark.parametrize("r", [1, 2, 4])
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_grid(self, p, r):
        # M = p^e + 2 keeps w_e nonzero; M = 4p + 10, a small job's size,
        # lies below p^e for the larger e
        kinds = set()
        for e in (1, 2, 3):
            for m in (p ** e + 2, 4 * p + 10):
                kinds |= self.check(PrimeContext(p=p, f=1, n=4, m=m, r=r), e)
        assert kinds == {"M <= n", "M > n + 1"}

    def test_benchmark_contexts(self):
        contexts = benchmark_contexts()
        assert len({c[0] for c in contexts}) == 5 and max(c[2] for c in contexts) == 5
        for p, f, r, n, m, nwork in contexts:
            self.check_every_e(PrimeContext(p=p, f=f, n=n, m=m, r=r, nwork=nwork))

    def test_high_weight_context(self):
        # p = 3, k = 36 one above the gate: (M, nwork) = (185, 100)
        ctx = PrimeContext(p=3, f=1, n=5, m=185, nwork=100)
        assert self.check_every_e(ctx) == {"M <= n", "M > n + 1"}


class TestFrobenius:
    def test_phi_e_is_p_gamma(self, ctx5):
        assert s_frobenius(e_pow(ctx5, 1)) == gamma(ctx5) * ctx5.p

    def test_phi_fixes_constants(self, ctx5):
        x = SElem.from_int(ctx5, 42)
        assert s_frobenius(x) == x

    def test_phi_of_ep_over_p(self, ctx5):
        # phi(E^p/p) = p^(p-1) gamma^p
        ctx = ctx5
        x = SElem(ctx, [0] * ctx.p + [1])
        g = gamma(ctx)
        expected = g
        for _ in range(ctx.p - 1):
            expected = s_mul(expected, g)
        expected = expected * ctx.p ** (ctx.p - 1)
        assert s_frobenius(x) == expected

    def test_phi_is_ring_hom(self, ctx3, rng):
        for _ in range(4):
            x, y = random_selem(ctx3, rng), random_selem(ctx3, rng)
            assert s_frobenius(s_mul(x, y)) == s_mul(s_frobenius(x), s_frobenius(y))

    def test_phi_matches_u_substitution(self, ctx5r2, rng):
        # for integral polynomials of degree < M/p (truncation-free image),
        # phi is u -> u^p on u-coordinates
        ctx = ctx5r2
        for _ in range(3):
            u = series(ctx, [[rng.randrange(ctx.ppow(ctx.n))
                              for _ in range(ctx.r)]
                             for _ in range(ctx.m // ctx.p)])
            via_s = s_frobenius(from_useries(u))
            via_u = from_useries(frobenius(u))
            assert via_s == via_u

    def test_phi_iterated_equals_phi_power(self, ctx3, ctx5):
        # the closed form of phi^j(lambda_b) against j applications of phi,
        # at the precision phi keeps (16 of nwork = 18 digits for ctx3)
        for ctx in (ctx3, ctx5):
            for b in (1, 2):
                lam = lambda_power(PhiExpPoly((1,)), b, ctx)
                for j in range(4):
                    got = lambda_power(PhiExpPoly((0,) * j + (1,)), b, ctx)
                    assert got.prec == ctx.nwork
                    assert lam.prec == (ctx.nwork if j == 0 else phi_prec(ctx))
                    assert capped(ctx, (slots(got), got.d, got.prec), lam.prec) == (
                        slots(lam), lam.d, lam.prec)
                    lam = s_frobenius(lam)

    @pytest.mark.parametrize("p, m", [(3, 24), (5, 30), (7, 20)])
    def test_claimed_digits_match_a_longer_context(self, p, m, rng):
        # slots M .. 3M - 1, which the truncation drops, change the image
        # only from digit M - floor(M/p) on, and do change it there
        small = PrimeContext(p=p, f=1, n=6, m=m, nwork=m)
        big = PrimeContext(p=p, f=1, n=6, m=3 * m, nwork=m)
        exact = m - m // p
        lowest = m
        for _ in range(4):
            head = [rng.randrange(small.ppow(m)) for _ in range(m)]
            got = s_frobenius(SElem(small, head))
            want, other = (s_frobenius(SElem(big, head + [
                rng.randrange(big.ppow(m)) for _ in range(2 * m)]))
                for _ in range(2))
            assert got.prec == exact
            assert agreement(got, want, m, exact) == exact
            lowest = min(lowest, agreement(want, other, m, m))
        assert lowest == exact


class TestInvert:
    def test_one(self, ctx5):
        assert s_invert(SElem.one(ctx5)) == SElem.one(ctx5)

    def test_gamma_inverse(self, ctx5):
        g = gamma(ctx5)
        assert s_mul(g, s_invert(g)) == SElem.one(ctx5)

    def test_eisenstein_not_unit(self, ctx5):
        with pytest.raises(NotAUnit):
            s_invert(e_pow(ctx5, 1))

    def test_bad_seed_falls_back_to_unseeded(self, ctx5):
        # Newton's map fixes y = 0 and cannot repair a seed whose product
        # with x is a unit other than 1 mod (p, E); both start unseeded
        g = gamma(ctx5)
        want = s_invert(g)
        for seed in (SElem.zero(ctx5), s_mul(want, SElem.from_int(ctx5, 2))):
            got = s_invert(g, seed=seed)
            assert (got.c, got.d, got.prec) == (want.c, want.d, want.prec)

    def test_seed_above_precision_is_not_trusted(self, ctx5, rng):
        # a seed held to more digits than x must not lend them to the result
        g = gamma(ctx5)
        seed = s_invert(g)
        for prec in (ctx5.n, ctx5.n + 1, ctx5.nwork - 1):
            nudge = SElem.from_int(ctx5, 1 + ctx5.p * rng.randrange(1, 99), prec)
            for x in (at_prec(g, prec), s_mul(g, nudge)):
                assert seed.prec > x.prec
                y = s_invert(x, seed=seed)
                assert y.prec <= x.prec
                assert s_mul(x, y) == SElem.one(ctx5)


class TestNewtonCertificate:
    """`s_invert` against `useries_ref.newton_invert`, the loop that
    confirms every step with a product: the same inverse in (c, d, prec),
    and one product fewer exactly on the calls whose last update had an
    error err certified to square to 0 (every value divisible by p^v with
    2v >= prec, or the first nonzero slot a with 2a >= M)."""

    @staticmethod
    def units(ctx, rng):
        """Units of five shapes: 1 + p^v c with 2v >= prec, which the
        valuation certifies; 1 + E^a c with 2a >= M, which the slots
        certify, and with 2a = M - 1, which they do not; 1 + p^v E^(p-1) at
        precision 2v + 1, whose error squares to 0 only through the carry p
        of E^(p-1) E^(p-1), so the loop confirms it; and dense units at
        random precisions."""
        m, r = ctx.m, ctx.r

        def values(prec, count):
            return [[rng.randrange(ctx.ppow(prec)) for _ in range(r)] for _ in range(count)]

        for prec in (2, ctx.n, ctx.nwork):
            v = -(-prec // 2)
            yield SElem(ctx, [[1 + ctx.ppow(v) * c[0]] + c[1:] if j == 0 else
                              [ctx.ppow(v) * x for x in c]
                              for j, c in enumerate(values(prec, m))], 0, prec)
            for a in (-(-m // 2), (m - 1) // 2):
                yield SElem(ctx, [1] + [0] * (a - 1) + values(prec, m - a), 0, prec)
            yield SElem(ctx, [1] + [0] * (ctx.p - 2) + [ctx.ppow(prec // 2)], 0,
                        prec // 2 * 2 + 1)
            for d in (0, 0, 1):
                # at d = 1 the unit is stored over p^-1; s_invert divides first
                dense = values(prec, rng.randint(1, m))
                dense[0][0] = rng.randrange(1, ctx.p) + ctx.p * dense[0][0]
                yield SElem(ctx, [[ctx.ppow(d) * v for v in c] for c in dense], d, prec + d)

    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_same_inverse_one_product_fewer(self, r, monkeypatch):
        import crysred.sring as sring_mod
        from useries_ref import newton_invert

        ctx = PrimeContext(p=3, f=r, n=6, m=21, r=r, nwork=12)
        rng = random.Random(r)
        products, product = [], sring_mod.s_mul
        monkeypatch.setattr(sring_mod, "s_mul", lambda x, y: products.append(1) or product(x, y))
        kinds = set()
        for x in self.units(ctx, rng):
            near = x + SElem(ctx, [[ctx.ppow(2)] * r], 0, x.prec)
            for seed in (None, s_invert(near)):
                ys, count = newton_invert(x, seed)
                kind = "no update"
                if len(ys) > 1:
                    unit = x.normalize_d()
                    err = SElem.one(ctx, unit.prec) - product(unit, ys[-2])
                    first = next(i for i, v in enumerate(err.c) if v) // r
                    half = ctx.ppow(-(-err.prec // 2))
                    kind = ("slots" if 2 * first >= ctx.m else
                            "valuation" if all(v % half == 0 for v in err.c) else "confirmed")
                products.clear()
                got = s_invert(x, seed=seed)
                assert (got.c, got.d, got.prec) == (ys[-1].c, ys[-1].d, ys[-1].prec)
                assert len(products) == count - (kind in ("slots", "valuation"))
                kinds.add(kind)
        assert kinds == {"no update", "confirmed", "slots", "valuation"}


class TestUnitPower:
    """`_unit_power(ctx, e, c)`, the binomial sum for (1 + w_e)^c, against
    the c-fold product of 1 + w_e, and s_invert of it for c < 0."""

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("e", [1, 2, 3])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_products_and_inverses(self, p, e, r):
        # M = p^e + 2 keeps w_e = u^(p^e)/p nonzero at (M, nwork)
        ctx = PrimeContext(p=p, f=r, n=4, m=p ** e + 2, r=r)
        base = SElem.one(ctx) + _w_power(ctx, e, 1)
        assert base != SElem.one(ctx)
        power = SElem.one(ctx)
        for c in range(1, 5):
            power = s_mul(power, base)
            for got, want in ((_unit_power(ctx, e, c), power),
                              (_unit_power(ctx, e, -c), s_invert(power))):
                assert (got.c, got.d, got.prec) == (want.c, want.d, want.prec)

    @pytest.mark.parametrize("name", ["ctx3", "ctx5", "ctx5r2"])
    def test_first_power_is_gamma(self, name, request):
        ctx = request.getfixturevalue(name)
        got, want = _unit_power(ctx, 1, 1), gamma(ctx)
        assert (got.c, got.d, got.prec) == (want.c, want.d, want.prec)
        assert _unit_power(ctx, 1, 0).c == SElem.one(ctx).c


def lambda_by_iteration(ctx, b):
    """Reference for `lambda_power` at e = 1 and for `lambda_factor_count`:
    lambda_b = gamma * phi^b(gamma) ...,
    each factor by b more applications of s_frobenius, until a factor is 1;
    also the number of factors kept."""
    lam = fac = gamma(ctx)
    count = 1
    while True:
        for _ in range(b):
            fac = s_frobenius(fac)
        if fac == SElem.one(ctx):
            return lam, count
        lam = s_mul(lam, fac)
        count += 1


class TestLambda:
    # M - floor(M/p) >= nwork in each context, so s_frobenius is exact there
    @pytest.mark.parametrize("b", [1, 2, 3])
    @pytest.mark.parametrize("p, m", [(3, 40), (5, 30), (7, 56)])
    def test_closed_form_matches_iterated_frobenius(self, p, m, b):
        ctx = PrimeContext(p=p, f=1, n=6, m=m)
        assert m - m // p >= ctx.nwork
        lam, count = lambda_by_iteration(ctx, b)
        got, got_count = lambda_power(PhiExpPoly((1,)), b, ctx), lambda_factor_count(ctx, b)
        assert (got.c, got.d, got.prec) == (lam.c, lam.d, lam.prec)
        assert got_count == count
        if (p, b) == (3, 1):
            assert count == 3

    @pytest.mark.parametrize("b", [1, 2])
    def test_functional_equation(self, ctx5, b):
        lam = lambda_power(PhiExpPoly((1,)), b, ctx5)
        phi_b = lam
        for _ in range(b):
            phi_b = s_frobenius(phi_b)
        assert s_mul(gamma(ctx5), phi_b) == lam

    def test_leading_factor_is_gamma(self, ctx5):
        # lambda_b = gamma * (factors fixed by higher phi-powers)
        lam, count = lambda_power(PhiExpPoly((1,)), 2, ctx5), lambda_factor_count(ctx5, 2)
        rest = s_mul(lam, s_invert(gamma(ctx5)))
        # the functional equation lambda_b = gamma * phi^b(lambda_b)
        assert rest == s_frobenius(s_frobenius(lam))
        assert count >= 1

    def test_stabilization_finite(self, ctx3):
        assert lambda_factor_count(ctx3, 1) < 30

    def test_lambda_power_zero_and_one(self, ctx5):
        assert lambda_power(PhiExpPoly(), 2, ctx5) == SElem.one(ctx5)
        assert lambda_power(PhiExpPoly((1,)), 2, ctx5) == lambda_by_iteration(ctx5, 2)[0]

    def test_lambda_power_is_cached_under_b_and_e(self):
        # one context answers every (e, b) as a fresh context does, and a
        # repeat returns the cached element
        ctx = PrimeContext(p=5, f=1, n=8, m=30)
        cases = [(PhiExpPoly((1, -1)), 1), (PhiExpPoly((1, -1)), 2),
                 (PhiExpPoly((2, -1)), 2), (PhiExpPoly((0, 1)), 2)]
        for e, b in cases:
            got = lambda_power(e, b, ctx)
            want = lambda_power(e, b, PrimeContext(p=5, f=1, n=8, m=30))
            assert (got.c, got.d, got.prec) == (want.c, want.d, want.prec)
            assert lambda_power(PhiExpPoly(e.c), b, ctx) is got

    def test_lambda_power_two_evaluation_orders(self, ctx5):
        # e = k(1 - phi): lambda^k * phi(lambda)^(-k) computed directly
        k = 3
        e = PhiExpPoly((k, -k))
        lam = lambda_by_iteration(ctx5, 2)[0]
        direct = lambda_power(e, 2, ctx5)
        lk = SElem.one(ctx5)
        for _ in range(k):
            lk = s_mul(lk, lam)
        phik_inv = s_invert(s_frobenius(lam))
        other = lk
        for _ in range(k):
            other = s_mul(other, phik_inv)
        assert direct == other


class TestFiltration:
    def test_e_pow_members(self, ctx5, rng):
        x = random_selem(ctx5, rng)
        for j in [1, 3, ctx5.p, ctx5.p + 2]:
            assert fil_membership(s_mul(e_pow(ctx5, j), x), j)

    def test_one_not_in_fil1(self, ctx5):
        assert not fil_membership(SElem.one(ctx5), 1)

    def test_ep_over_p_not_in_fil_p(self, ctx5):
        x = SElem(ctx5, [0] * ctx5.p + [1])
        assert not fil_membership(x, ctx5.p)
        assert fil_membership(x, 0)

    def test_monotone(self, ctx5, rng):
        x = s_mul(e_pow(ctx5, 4), random_selem(ctx5, rng))
        levels = [j for j in range(8) if fil_membership(x, j)]
        assert levels == list(range(levels[-1] + 1)) if levels else True


# p in {3, 5, 7}, r in {1, 2, 3}; M = 12 holds a carry at every p
SHIFT_CTXS = {(p, r): PrimeContext(p=p, f=r, n=3, m=12, r=r, nwork=8)
              for p in (3, 5, 7) for r in (1, 2, 3)}


@st.composite
def shift_cases(draw, ctx):
    """(x, k): x zero, dense or sparse, some values multiples of a power of
    p (so a carry can take them to 0), d in {0, 1, 2}, prec <= nwork; and
    0 <= k <= M + 1."""
    prec = draw(st.integers(1, ctx.nwork))
    mod = ctx.ppow(prec)
    value = st.one_of(st.just(0), st.integers(0, mod - 1),
                      st.integers(0, mod - 1).map(lambda v: v * ctx.p ** 2 % mod))
    slots = draw(st.lists(st.lists(value, min_size=ctx.r, max_size=ctx.r), max_size=ctx.m))
    x = SElem(ctx, [tuple(v) for v in slots], draw(st.integers(0, 2)), prec)
    return x, draw(st.integers(0, ctx.m + 1))


class TestMulEPow:
    @pytest.mark.parametrize("p, r", sorted(SHIFT_CTXS))
    @given(data=st.data())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_equals_the_product_by_e_pow(self, p, r, data):
        ctx = SHIFT_CTXS[p, r]
        x, k = data.draw(shift_cases(ctx))
        got, want = x.mul_e_pow(k), s_mul(e_pow(ctx, k), x)
        assert (got.c, got.d, got.prec) == (want.c, want.d, want.prec)

    def test_edge_cases(self):
        ctx = SHIFT_CTXS[3, 2]
        p, m = ctx.p, ctx.m
        dense = SElem(ctx, [(v, v + 1) for v in range(1, m + 1)], 2, 5)
        for x, k in [(SElem.zero(ctx), 3), (SElem(ctx, (), 1, 4), 0), (dense, 0),
                     (dense, 1), (dense, p), (dense, m - 1), (dense, m), (dense, m + 1),
                     (SElem(ctx, [0, 0, (p ** 2, 1)], 0, 3), 2)]:
            got, want = x.mul_e_pow(k), s_mul(e_pow(ctx, k), x)
            assert (got.c, got.d, got.prec) == (want.c, want.d, want.prec)
            assert_trimmed(got)
        # the carry takes p^2 at slot 2 to p^3 at slot 4, 0 mod p^3
        assert SElem(ctx, [0, 0, (p ** 2, 0)], 0, 3).mul_e_pow(2).c == ()
        assert dense.mul_e_pow(m).c == () and dense.mul_e_pow(m).d == 2


class TestConversions:
    def test_div_mul_e_pow_roundtrip(self, ctx5, rng):
        for k in [1, 2, ctx5.p, ctx5.p + 3]:
            # support below M - k so the upward shift loses nothing
            x = SElem(ctx5, [[rng.randrange(ctx5.ppow(ctx5.n))]
                             for _ in range(ctx5.m - k)], 0, ctx5.n)
            shifted = s_mul(e_pow(ctx5, k), x)
            back = shifted.div_e_pow(k)
            assert back == at_prec(x, min(back.prec, x.prec))
            assert x.mul_e_pow(k).div_e_pow(k) == back

    def test_integrality_detection(self, ctx5, rng):
        u = random_useries(ctx5, rng)
        assert from_useries(u).is_integral()
        non_integral = SElem(ctx5, [0] * ctx5.p + [1])  # E^p/p
        assert not non_integral.is_integral()

    def test_p_pow_membership(self, ctx5):
        assert in_p_pow_s(SElem.from_int(ctx5, 25), 2)
        assert not in_p_pow_s(SElem.from_int(ctx5, 5), 2)


class TestDenominators:
    """Membership counts the denominator p^d: x = p^(-d) * numerator."""

    def test_p_pow_membership(self, ctx5):
        p = ctx5.p
        x = SElem(ctx5, [p * p * 3], 1)              # p*3 written over p
        assert in_p_pow_s(x, 1)
        assert not in_p_pow_s(x, 2)
        assert not in_p_pow_s(SElem(ctx5, [1], 1), 0)  # 1/p

    def test_fil_membership(self, ctx5):
        p, j = ctx5.p, 6
        assert not fil_membership(SElem(ctx5, [0] * j + [p], 1), j)  # E^j/p
        assert fil_membership(SElem(ctx5, [0] * j + [p * p], 1), j)  # p E^j/p

    def test_zero_below_its_denominator_is_a_member(self, ctx5):
        z = SElem(ctx5, [], 2, 1)
        assert z.is_integral() and in_p_pow_s(z, 0) and fil_membership(z, 3)

    def test_invert(self, ctx5):
        p = ctx5.p
        y = s_invert(SElem(ctx5, [p * 3], 1))
        assert y.d == 0 and s_mul(SElem.from_int(ctx5, 3), y) == SElem.one(ctx5)
        with pytest.raises(NotAUnit):
            s_invert(SElem(ctx5, [3], 1))


# ---------------------------------------------------------------------------
# Trimmed storage
# ---------------------------------------------------------------------------


def padded(x):
    """x's slots padded with zero slots to length M."""
    return list(slots(x)) + [(0,) * x.ctx.r] * (x.ctx.m - len(slots(x)))


def assert_trimmed(z):
    """The storage invariant: at most M slots, the last one nonzero, every
    value in [0, p^prec)."""
    ctx = z.ctx
    mod = ctx.ppow(z.prec)
    assert len(z.c) % ctx.r == 0 and len(z.c) <= ctx.m * ctx.r
    assert len(slots(z)) <= ctx.m
    assert not z.c or any(slots(z)[-1])
    assert all(len(x) == ctx.r and all(0 <= v < mod for v in x) for x in slots(z))


def short_selem(ctx, rng, length, d=0, prec=None):
    prec = ctx.n if prec is None else prec
    return SElem(ctx, [[rng.randrange(ctx.ppow(prec)) for _ in range(ctx.r)]
                       for _ in range(length)], d, prec)


class TestTrimmedInvariant:
    @pytest.mark.parametrize("name", ["ctx3", "ctx5", "ctx5r2"])
    def test_constructors(self, name, request, rng):
        ctx = request.getfixturevalue(name)
        mod = ctx.ppow(ctx.n)
        made = [
            SElem(ctx, [[5] + [0] * (ctx.r - 1), -1, mod, 2 * mod, 0, 0], 0, ctx.n),
            SElem(ctx, [0] * (ctx.m + 3)),
            SElem(ctx, [1] * (ctx.m + 3)),
            SElem.zero(ctx), SElem.one(ctx), SElem.from_int(ctx, -7),
            SElem.from_int(ctx, mod, ctx.n),
            SElem.from_of(ctx, random_of(ctx, rng)),
            e_pow(ctx, 3), e_pow(ctx, ctx.m - 1), e_pow(ctx, ctx.m),
            from_useries(random_useries(ctx, rng)),
            from_useries(series(ctx, [0, 0, 1])),
            from_useries(series(ctx)),
            gamma(ctx),
        ]
        made += list(_w_powers(ctx, 1)) + [_w_power(ctx, e, l) for e in (1, 2, 5)
                                             for l in range(4)]
        for z in made:
            assert_trimmed(z)
        assert SElem.from_int(ctx, mod, ctx.n).c == ()
        assert SElem(ctx, [0] * (ctx.m + 3)).c == ()

    @pytest.mark.parametrize("name", ["ctx3", "ctx5", "ctx5r2"])
    def test_operations(self, name, request, rng):
        ctx = request.getfixturevalue(name)
        p, m = ctx.p, ctx.m
        x = short_selem(ctx, rng, m // 2)
        y = short_selem(ctx, rng, m - 3, d=1, prec=ctx.nwork)
        u = from_useries(random_useries(ctx, rng))
        tail = short_selem(ctx, rng, 2)
        cancel = x + tail
        e4 = s_mul(e_pow(ctx, 4), u)
        unit = s_mul(gamma(ctx), SElem.from_int(ctx, 1 + p))
        results = [
            x + y, x - y, y - x, x - x, x + (-x), cancel - x, -y, x + 3, x - 3,
            x * y, x * random_of(ctx, rng), x * 2, x * p ** ctx.n,
            y._lift_d(3),
            e4.div_e_pow(4), SElem.zero(ctx).div_e_pow(3), u.mul_e_pow(4), x.mul_e_pow(m - 2), e_pow(ctx, p).div_e_pow(p),
            SElem(ctx, slots(u * p), 1, u.prec).normalize_d(),
            at_prec(x, 2), at_prec(x, 1),
            x.slice_below(3), x.slice_below(0), x.slice_from(3), x.slice_from(m // 2),
            x.slice_from(m), SElem.zero(ctx).slice_from(0),
            s_mul(x, y), s_mul(x, SElem.zero(ctx)), s_mul(e_pow(ctx, m - 1), x),
            s_frobenius(x), s_frobenius(s_frobenius(y)), s_frobenius(SElem.zero(ctx)),
            s_invert(unit), s_invert(unit, seed=SElem.one(ctx)),
            _unit_power(ctx, 1, -3), _unit_power(ctx, 2, 3),
            lambda_power(PhiExpPoly((1,)), 1, ctx), lambda_power(PhiExpPoly((0, 0, 0, 1)), 2, ctx),
            lambda_power(PhiExpPoly((2, -1)), 1, ctx),
        ]
        for z in results:
            assert_trimmed(z)
        assert (x - x).c == () and (x + (-x)).c == ()
        assert (cancel - x).c == tail.c
        assert x.slice_from(m // 2).is_zero()

    def test_past_the_end(self, ctx5, rng):
        x = short_selem(ctx5, rng, 4)
        assert len(x.c) <= 4
        j = ctx5.m - 1
        assert not any(x.coeff(j).c) and x.coeff(j).prec == x.prec
        assert x.slot_val(j) is None
        assert x.slot_val_at_least(j, 10 ** 6)


def scaled_values(a, s, mod):
    """Reference: the r values of one slot times the integer s, mod `mod`."""
    return tuple((v * s) % mod for v in a)


def padded_to_useries(x):
    """Reference: the u-conversion summed over all M slots of the padded
    coefficient list, every term reduced, no early stop."""
    x = x.normalize_d()
    ctx = x.ctx
    c = padded(x)
    dmax = (ctx.m - 1) // ctx.p
    if x.prec <= dmax:
        raise PrecisionExhausted("precision too low for u-coordinates")
    prec = x.prec - dmax
    bigmod = ctx.ppow(x.prec + dmax)
    pd = ctx.ppow(dmax)
    out = []
    for l in range(ctx.m):
        acc = (0,) * ctx.r
        for j in range(l, ctx.m):
            if any(c[j]):
                s = (comb(j, l) * ctx.ppow(j - l + dmax - j // ctx.p)) % bigmod
                if s:
                    acc = _of_add_raw(acc, scaled_values(c[j], s, bigmod), bigmod)
        if any(v % pd for v in acc):
            raise NotIntegral("element is not in O_F[[u]]")
        out.append(tuple((v // pd) % ctx.ppow(prec) for v in acc))
    return series(ctx, out, prec)


def outcome(fn, x):
    """(coefficients, precision) of fn(x), or the type of its error."""
    try:
        z = fn(x)
    except (NotIntegral, PrecisionExhausted) as exc:
        return type(exc)
    return z.c, z.prec


class TestUConversion:
    @pytest.mark.parametrize("name", ["ctx3", "ctx5", "ctx5r2"])
    def test_matches_padded_loop(self, name, request, rng):
        ctx = request.getfixturevalue(name)
        dmax = (ctx.m - 1) // ctx.p
        ints = [from_useries(random_useries(ctx, rng)) for _ in range(3)]
        ints.append(from_useries(series(ctx, [0] * 5 + [1])))
        cases = [(z, None) for z in ints]
        cases += [
            (ints[0]._lift_d(2), None),                  # d > 0, integral
            (ints[1] * ctx.p, None),
            (at_prec(ints[0], dmax + 1), None),           # prec = dmax + 1
            (at_prec(ints[1], dmax + 2), None),
            (at_prec(ints[0], dmax), PrecisionExhausted),  # prec = dmax
            (SElem(ctx, [0] * ctx.p + [1]), NotIntegral),   # E^p/p
            (random_selem(ctx, rng, d=1), NotIntegral),
            (SElem.zero(ctx), None),
            (s_mul(ints[0], ints[1]), None),
        ]
        # support to M - 1: only the last slot one digit short of integral,
        # and prec = dmax + 1
        head = ints[2].slice_below(ctx.m - 1)
        short = SElem(ctx, [0] * (ctx.m - 1) + [ctx.ppow(dmax - 1)])
        edges = [(head + short, NotIntegral),
                 (at_prec(head + e_pow(ctx, ctx.m - 1), dmax + 1), None)]
        assert all(len(slots(x)) == ctx.m for x, _ in edges)
        cases += edges
        for x, err in cases:
            want = outcome(padded_to_useries, x)
            assert outcome(SElem.to_useries, x) == want
            if err is not None:
                assert want is err
            want_res = outcome(lambda z: residue(padded_to_useries(z)), x)
            assert outcome(lambda z: z.residue(ctx.m), x) == want_res


def window_residue(y, window):
    """Reference: the residue of the O_F[[u]] series y, zero from slot
    `window` on."""
    r = y.ctx.r
    return residue(series(y.ctx, [y.c[j * r:(j + 1) * r] for j in range(window)], 1))


class TestWindowedResidue:
    """`SElem.residue(L)` on the embedding of a series y of O_F[[u]] (by
    `from_useries`, the opposite direction): the residue of y on the slots
    below L, and PrecisionExhausted exactly when prec <= floor((L-1)/p)."""

    @pytest.mark.parametrize("name", ["ctx3", "ctx5", "ctx5r2"])
    def test_matches_reference_below_the_window(self, name, request, rng):
        ctx = request.getfixturevalue(name)
        for window in (1, 2, ctx.p, ctx.p + 1, 2 * ctx.p + 2, ctx.m - 1, ctx.m):
            need = (window - 1) // ctx.p
            for prec in range(1, need + 3):
                y = series(ctx, [[rng.randrange(ctx.ppow(prec)) for _ in range(ctx.r)]
                                 for _ in range(ctx.m)], prec)
                x = from_useries(y)
                for z in (x, x._lift_d(2)):
                    if prec <= need:
                        with pytest.raises(PrecisionExhausted):
                            z.residue(window)
                    else:
                        got = z.residue(window)
                        assert got == window_residue(y, window)
                        assert got.prec == 1

    def test_slots_past_the_window_are_not_read(self, ctx5, rng):
        window = 7
        x = from_useries(random_useries(ctx5, rng))
        # E^10 / p^2 is not in O_F[[u]], and lies past the window
        beyond = x + SElem(ctx5, [0] * 10 + [1])
        assert beyond.residue(window) == x.residue(window)
        with pytest.raises(NotIntegral):
            beyond.residue(ctx5.m)
        # inside the window it is read: E^6 / p
        with pytest.raises(NotIntegral):
            (x + SElem(ctx5, [0] * 6 + [1])).residue(window)


def frobenius_reference(x):
    """Reference: phi through _of_mul_raw on every padded w-power slot."""
    ctx = x.ctx
    powers = _w_powers(ctx, 1)
    mod = ctx.ppow(x.prec)
    c = padded(x)
    T = [(0,) * ctx.r for _ in powers]
    for j in range(ctx.m):
        pw = ctx.ppow(j - j // ctx.p) % mod
        if not any(c[j]) or pw == 0:
            continue
        scaled = scaled_values(c[j], pw, mod)
        for l in range(min(j, len(powers) - 1) + 1):
            b = comb(j, l) % mod
            T[l] = _of_add_raw(T[l], scaled_values(scaled, b, mod), mod)
    out = [(0,) * ctx.r for _ in range(ctx.m)]
    for tl, w in zip(T, powers):
        for j, wj in enumerate(padded(w)):
            out[j] = _of_add_raw(out[j], _of_mul_raw(ctx, wj, tl, mod), mod)
    while out and not any(out[-1]):
        out.pop()
    return tuple(out), x.d, x.prec


class TestFrobeniusReference:
    @pytest.mark.parametrize("times", [1, 2])
    @pytest.mark.parametrize("r", [1, 4])
    @pytest.mark.parametrize("p, m", [(3, 24), (5, 30)])
    def test_matches_padded_products(self, p, m, r, times, rng):
        ctx = PrimeContext(p=p, f=1, n=6, m=m, r=r)
        xs = [random_selem(ctx, rng), random_selem(ctx, rng, d=1, prec=ctx.nwork),
              random_selem(ctx, rng, prec=2), short_selem(ctx, rng, 3),
              random_selem(ctx, rng)._lift_d(2), SElem.zero(ctx), gamma(ctx)]
        for x in xs:
            # `times` applications, each against the reference
            # the reference keeps x's precision; s_frobenius keeps the
            # digits the truncation leaves exact (16 of 18 at (3, 24))
            z = x
            for _ in range(times):
                want = capped(ctx, frobenius_reference(z), m - m // p)
                z = s_frobenius(z)
                assert (slots(z), z.d, z.prec) == want
