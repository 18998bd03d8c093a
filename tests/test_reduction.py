"""Reduction data extraction, v/w assignment and character output."""

import random

import pytest

from crysred.arith import PrimeContext
from crysred.errors import DetCheckFailed, NonMonomial
from crysred.reduction import (
    CAVEAT_INDUCED,
    CAVEAT_SPLIT,
    ReductionData,
    assign_vw,
    character_output,
    characterize,
    extract_reduction_data,
    monomial_product,
)

from useries_ref import series


def rs(ctx, order, unit=1):
    return series(ctx, [0] * order + [unit], 1)


def zero(ctx):
    return series(ctx, (), 1)


def mono(*pairs):
    return ReductionData(tuple(pairs), tuple(((1,), (1,)) for _ in pairs))


class TestExtract:
    def test_s_shape(self, ctx5):
        m = ((zero(ctx5), rs(ctx5, 3, 2)), (rs(ctx5, 0), zero(ctx5)))
        data = extract_reduction_data((m,))
        assert data.mu == (("S", (0, 3)),)
        assert data.units[0] == ((1,), (2,))

    def test_i_shape(self, ctx5):
        m = ((rs(ctx5, 2, 3), zero(ctx5)), (zero(ctx5), rs(ctx5, 0)))
        data = extract_reduction_data((m,))
        assert data.mu == (("I", (2, 0)),)

    def test_non_monomial(self, ctx5):
        full = series(ctx5, [0, 1, 1], 1)
        one = rs(ctx5, 0)
        m = ((full, one), (one, one))
        with pytest.raises(NonMonomial):
            extract_reduction_data((m,))


class TestAssignVW:
    def test_f1_s_shape(self):
        v, w = assign_vw(mono(("S", (0, 4))))
        assert v == (4,) and w == (0,)

    def test_f2_two_s_shapes(self):
        v, w = assign_vw(mono(("S", (0, 2)), ("S", (0, 3))))
        assert v == (2, 0) and w == (0, 3)

    def test_all_i(self):
        v, w = assign_vw(mono(("I", (2, 0)), ("I", (3, 0)), ("I", (1, 0))))
        assert v == (2, 3, 1) and w == (0, 0, 0)


class TestMonomialProduct:
    def test_f1_antidiagonal(self):
        prod = monomial_product(mono(("S", (0, 4))), 5)
        assert prod == ((None, 4), (0, None))

    def test_f2_diagonal(self):
        prod = monomial_product(mono(("S", (0, 2)), ("S", (0, 3))), 5)
        assert prod == ((2, None), (None, 5 * 3))

    def test_parity_matches_shape(self):
        data = mono(("S", (0, 1)), ("I", (2, 0)), ("S", (0, 3)))
        prod = monomial_product(data, 5)
        assert prod[0][0] is not None  # even number of S: diagonal

    @pytest.mark.parametrize("f", [1, 2, 3, 4, 5])
    def test_oracle_equivalence_exhaustive(self, f):
        rng = random.Random(900 + f)
        for combo in range(2 ** f):
            shapes = ["S" if (combo >> i) & 1 else "I" for i in range(f)]
            pairs = []
            for s in shapes:
                k = rng.randrange(1, 21)
                pairs.append((s, (0, k) if s == "S" else (k, 0)))
            data = mono(*pairs)
            v, w = assign_vw(data)
            prod = monomial_product(data, 5)
            big_v = sum(5 ** j * x for j, x in enumerate(v))
            big_w = sum(5 ** j * x for j, x in enumerate(w))
            if shapes.count("S") % 2 == 0:
                assert prod == ((big_v, None), (None, big_w))
            else:
                assert prod == ((None, big_v), (big_w, None))


class TestCharacterOutput:
    def test_f1_induced(self):
        desc = character_output((4,), (0,), 5, 1, parity_odd=True)
        assert desc.shape == "Induced"
        assert desc.exponents == (4,)
        assert desc.t_raw == 4
        assert CAVEAT_INDUCED in desc.caveats

    def test_f2_split(self):
        desc = character_output((2, 0), (0, 3), 5, 2, parity_odd=False)
        assert desc.shape == "Split"
        assert desc.exponents == (2 % 24, 15 % 24)
        assert CAVEAT_SPLIT in desc.caveats

    def test_divisible_t_splits(self):
        # f=1: t = p + 1 exactly -> ind omega_2^t = omega^1 (+) omega^1
        for p, t in ((5, 6), (3, 4)):
            desc = character_output((t,), (0,), p, 1, parity_odd=True)
            assert desc.shape == "Split"
            assert desc.exponents == (1, 1)
            assert desc.t_raw == t

    def test_f2_divisible_t_splits(self):
        # p=3, f=2: t = V + p^2 W = 1 + 9 = 10 = p^2 + 1 -> omega_2 twice
        desc = character_output((1, 0), (1, 0), 3, 2, parity_odd=True)
        assert desc.t_raw == 10
        assert desc.shape == "Split"
        assert desc.exponents == (1, 1)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("f", [1, 2, 3, 4])
    def test_t_is_phi_f_square_exponent(self, p, f):
        # t is the top-left exponent of M * phi^f(M) for the odd-parity
        # product M = [[0, u^V], [u^W, 0]]: the oracle over 2f slots.
        rng = random.Random(100 * p + f)
        for combo in range(2 ** f):
            shapes = ["S" if (combo >> i) & 1 else "I" for i in range(f)]
            if shapes.count("S") % 2 == 0:
                continue
            pairs = [(s, (rng.randrange(0, 2 * p), rng.randrange(1, 2 * p)))
                     for s in shapes]
            data = mono(*pairs)
            desc = characterize(data, p)
            assert desc.parity_odd
            assert desc.t_raw == monomial_product(mono(*pairs, *pairs), p)[0][0]

    def test_characterize_cross_checks(self, monkeypatch):
        data = mono(("S", (0, 2)), ("S", (0, 3)))
        desc = characterize(data, 5)
        assert desc.shape == "Split"
        assert desc.raw_sums == (2, 15)
        import crysred.reduction as reduction_mod

        monkeypatch.setattr(reduction_mod, "assign_vw",
                            lambda mu: assign_vw(mu)[::-1])
        with pytest.raises(DetCheckFailed):
            characterize(data, 5)
