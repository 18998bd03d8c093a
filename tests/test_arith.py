"""Core ring arithmetic: O_F elements, u-series and their residues."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from crysred.arith import (
    OFElem,
    PrimeContext,
    USeries,
    find_residue_poly,
)
from crysred.errors import NotAUnit
from crysred.sring import SElem

from conftest import random_of, random_useries
from useries_ref import add, frobenius, mul, residue, series


def naive_conv2(ctx, a, b, mod, out_len):
    """Schoolbook reference for the packed convolution kernel: exact
    w-polynomial sums per u-slot, then long division by the residue
    polynomial, then reduction mod `mod`."""
    r, g = ctx.r, ctx.residue_poly
    out = [[0] * (2 * r - 1) for _ in range(min(len(a) + len(b) - 1, out_len))]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < len(out):
                for s, xs in enumerate(x):
                    for t, yt in enumerate(y):
                        out[i + j][s + t] += xs * yt
    for slot in out:
        for top in range(2 * r - 2, r - 1, -1):
            c, slot[top] = slot[top], 0
            for t in range(r):
                slot[top - r + t] -= c * g[t]
    return [tuple(v % mod for v in slot[:r]) for slot in out]


class TestResiduePoly:
    def test_degree_one(self):
        assert find_residue_poly(5, 1) == (0, 1)

    @pytest.mark.parametrize("r", [0, -2])
    def test_context_rejects_nonpositive_degree(self, r):
        # no residue polynomial of degree r < 1 exists; the search must not start
        with pytest.raises(ValueError):
            PrimeContext(p=5, f=1, n=4, m=8, r=r)

    @pytest.mark.parametrize("p,r", [(3, 2), (5, 2), (5, 3), (7, 2), (3, 4)])
    def test_is_monic_and_irreducible(self, p, r):
        from crysred.arith import _is_irreducible

        g = find_residue_poly(p, r)
        assert len(g) == r + 1 and g[-1] == 1
        assert _is_irreducible(list(g), p)

    def test_deterministic(self):
        assert find_residue_poly(5, 2) == find_residue_poly(5, 2)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_first_without_a_small_factor(self, p, r):
        # independent of the search's own test: trial division by every
        # monic polynomial of degree <= r/2 over F_p, in base-p counting order
        def digits(m, n):
            return [m // p ** i % p for i in range(n)]

        def divides(h, g):
            g = list(g)
            for top in range(len(g) - 1, len(h) - 2, -1):
                c = g[top]
                for i, hi in enumerate(h):
                    g[top - len(h) + 1 + i] = (g[top - len(h) + 1 + i] - c * hi) % p
            return not any(g)

        def has_small_factor(g):
            return any(divides(digits(m, d) + [1], g)
                       for d in range(1, r // 2 + 1) for m in range(p ** d))

        m = 0
        while has_small_factor(digits(m, r) + [1]):
            m += 1
        assert find_residue_poly(p, r) == tuple(digits(m, r) + [1])


@pytest.mark.parametrize("make", [
    lambda ctx: OFElem.one(ctx),
    lambda ctx: USeries(ctx, [1], 1),
    lambda ctx: SElem.one(ctx),
], ids=["OFElem", "USeries", "SElem"])
def test_precision_values_are_unhashable(ctx5, make):
    # equality holds only up to precision, so no hash can agree with it
    with pytest.raises(TypeError):
        hash(make(ctx5))


class TestOFElem:
    def test_valuation_unit(self, ctx5):
        assert OFElem.one(ctx5).valuation() == 0

    def test_valuation_p_power_times_unit(self, ctx5):
        x = OFElem.from_int(ctx5, 25 * 3, 5)
        assert x.valuation() == 2

    def test_valuation_zero(self, ctx5):
        x = OFElem.zero(ctx5, 4)
        assert x.valuation() is None  # ">= 4"

    def test_invert_one(self, ctx5):
        assert OFElem.one(ctx5).unit_inverse() == OFElem.one(ctx5)

    def test_invert_known_value(self):
        # p=5, r=1, N=3: 2 * 63 = 126 = 1 mod 125
        ctx = PrimeContext(p=5, f=1, n=3, m=4, nwork=3)
        x = OFElem.from_int(ctx, 2, 3)
        inv = x.unit_inverse()
        assert inv.c[0] == 63

    def test_invert_extended_euclid_oracle(self, ctx5, rng):
        # cross-check Newton lifting against brute force over Z/p^N
        for _ in range(20):
            x = random_of(ctx5, rng, unit=True)
            assert (x * x.unit_inverse()) == OFElem.one(ctx5)

    def test_invert_nonunit(self, ctx5):
        with pytest.raises(NotAUnit):
            OFElem.from_int(ctx5, 5).unit_inverse()

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms(self, ctx5r2, data):
        ctx = ctx5r2
        mod = ctx.ppow(ctx.n)
        elems = data.draw(st.lists(
            st.lists(st.integers(0, mod - 1), min_size=ctx.r, max_size=ctx.r),
            min_size=3, max_size=3))
        x, y, z = (OFElem(ctx, e, ctx.n) for e in elems)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x

    def test_valuation_multiplicative(self, ctx5r2, rng):
        ctx = ctx5r2
        for _ in range(30):
            x = random_of(ctx, rng) * OFElem.from_int(ctx, ctx.p ** rng.randrange(3))
            y = random_of(ctx, rng) * OFElem.from_int(ctx, ctx.p ** rng.randrange(3))
            vx, vy = x.valuation(), y.valuation()
            if vx is None or vy is None or vx + vy >= ctx.n:
                continue
            assert (x * y).valuation() == vx + vy


class TestPackedConvolution:
    @staticmethod
    def check(ctx, a, b, mod, out_len):
        from crysred.arith import _conv2_raw

        # the kernel takes and returns r values per slot, flat
        flat = _conv2_raw(ctx, [v for x in a for v in x], [v for y in b for v in y],
                          mod, out_len)
        got = list(zip(*[iter(flat)] * ctx.r))
        assert len(got) * ctx.r == len(flat)
        assert got == naive_conv2(ctx, a, b, mod, out_len)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_matches_naive(self, r, rng):
        ctx = PrimeContext(p=5, f=1, n=6, m=12, r=r)
        mod = ctx.ppow(ctx.nwork)
        for _ in range(5):
            a = [tuple(rng.randrange(mod) for _ in range(r)) for _ in range(ctx.m)]
            b = [tuple(rng.randrange(mod) for _ in range(r)) for _ in range(ctx.m)]
            self.check(ctx, a, b, mod, ctx.m)

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_all_coefficients_mod_minus_one(self, r):
        # every slot sum reaches min(la, lb) * r * (mod - 1)^2, the widest case
        ctx = PrimeContext(p=5, f=1, n=6, m=12, r=r)
        mod = ctx.ppow(ctx.nwork)
        top = [(mod - 1,) * r] * ctx.m
        self.check(ctx, top, top, mod, ctx.m)
        self.check(ctx, top, top, mod, 2 * ctx.m - 1)

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_negative_rows_do_not_borrow(self, r):
        # w-coefficients at mod - 1 in the upper half only: the folded
        # positions then hold little but the reduction rows' terms, so a
        # negative row entry would borrow from the neighbouring position
        ctx = PrimeContext(p=5, f=1, n=6, m=12, r=r)
        mod = ctx.ppow(ctx.nwork)
        high = (0,) * (r // 2) + (mod - 1,) * (r - r // 2)
        top = (mod - 1,) * r
        for a, b in ((high, high), (high, top)):
            self.check(ctx, [a] * ctx.m, [b] * ctx.m, mod, ctx.m)
            self.check(ctx, [a] * 3, [b] * ctx.m, mod, 2 * ctx.m)

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_unequal_lengths_short_out_len(self, r, rng):
        ctx = PrimeContext(p=5, f=1, n=6, m=12, r=r)
        mod = ctx.ppow(ctx.nwork)
        a = [tuple(rng.randrange(mod) for _ in range(r)) for _ in range(9)]
        b = [tuple(rng.randrange(mod) for _ in range(r)) for _ in range(4)]
        for out_len in (1, 5, 11):
            self.check(ctx, a, b, mod, out_len)
            self.check(ctx, b, a, mod, out_len)

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_operands_stored_above_mod(self, r, rng):
        ctx = PrimeContext(p=5, f=1, n=6, m=12, r=r)
        mod = ctx.ppow(ctx.n)
        a = [tuple(rng.randrange(mod * 5 ** 4) for _ in range(r)) for _ in range(ctx.m)]
        b = [tuple(mod * rng.randrange(1, 5 ** 4) + rng.randrange(2) for _ in range(r))
             for _ in range(ctx.m)]
        self.check(ctx, a, b, mod, ctx.m)

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_short_small_operand(self, r, rng):
        # the width follows the small operand, not the modulus
        ctx = PrimeContext(p=5, f=1, n=6, m=12, r=r)
        mod = ctx.ppow(ctx.nwork)
        a = [tuple(rng.randrange(mod) for _ in range(r)) for _ in range(ctx.m)]
        b = [tuple(rng.randrange(3) for _ in range(r)) for _ in range(2)]
        b[0] = (1,) + b[0][1:]
        self.check(ctx, a, b, mod, ctx.m)
        self.check(ctx, b, a, mod, ctx.m)


class TestUSeries:
    """The reference ring of `useries_ref`, which the S_F tests compare
    against."""

    def test_mul_truncates(self, ctx5):
        u = series(ctx5, [0] * (ctx5.m - 1) + [1])
        assert mul(u, u).is_zero()

    def test_frobenius_on_u(self, ctx5):
        u = series(ctx5, [0, 1])
        assert frobenius(u) == series(ctx5, [0] * ctx5.p + [1])

    def test_frobenius_fixes_constants(self, ctx5, rng):
        c = series(ctx5, [random_of(ctx5, rng)])
        assert frobenius(c) == c

    def test_frobenius_on_eisenstein(self, ctx5):
        e = series(ctx5, [ctx5.p, 1])  # E = u + p
        expected = series(ctx5, [ctx5.p] + [0] * (ctx5.p - 1) + [1])
        assert frobenius(e) == expected

    def test_frobenius_is_ring_hom(self, ctx5r2, rng):
        for _ in range(5):
            s, t = random_useries(ctx5r2, rng), random_useries(ctx5r2, rng)
            assert frobenius(mul(s, t)) == mul(frobenius(s), frobenius(t))

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_ring_axioms(self, ctx3, data):
        ctx = ctx3
        mod = ctx.ppow(ctx.n)
        coeffs = data.draw(st.lists(
            st.lists(st.integers(0, mod - 1), min_size=ctx.m, max_size=ctx.m),
            min_size=3, max_size=3))
        x, y, z = (series(ctx, [(v,) for v in cs], ctx.n) for cs in coeffs)
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))

    def test_residue_commutes_with_mul(self, ctx5r2, rng):
        for _ in range(5):
            s, t = random_useries(ctx5r2, rng), random_useries(ctx5r2, rng)
            assert residue(mul(s, t)) == mul(residue(s), residue(t))


class TestResidueSeries:
    """Residue images in k_F[[u]]: USeries at precision 1."""

    def test_u_order(self, ctx5):
        s = residue(series(ctx5, [5, 10, 3 + 5], 2))
        assert s.prec == 1
        assert s.u_order() == 2
        assert s.leading_unit() == (3,)

    def test_frobenius(self, ctx5):
        s = series(ctx5, [0, 1], 1)
        assert frobenius(s) == series(ctx5, [0] * ctx5.p + [1], 1)
