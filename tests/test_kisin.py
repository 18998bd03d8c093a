"""Kisin Frobenius construction and determinant normalization."""

import pytest

from crysred.arith import OFElem, PrimeContext, mat_det
from crysred.errors import DetCheckFailed
from crysred.lattices import TypeTag, WeightData, classify_lattice, parabolic_normalize
from crysred.kisin import build_kisin_frobenius, det_normalize, solve_exponent_system
from crysred.sring import (
    PhiExpPoly,
    SElem,
    gamma,
    lambda_power,
    s_frobenius,
    s_invert,
    s_mul,
)

from test_lattices import mat, random_gl2


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
        mats = build_kisin_frobenius((type_i(kctx, 3, 5),), (TypeTag("I"),), wd)
        m = mats[0]
        assert m[0][0].is_zero()
        assert m[0][1] == SElem.from_of(kctx, OFElem.from_int(kctx, 3))
        assert m[1][0] == SElem.one(kctx)
        assert m[1][1] == SElem.from_int(kctx, 5)

    def test_type_ii_weight_zero_prev(self, kctx):
        wd = WeightData((0,), (0,))
        mats = build_kisin_frobenius((type_ii(kctx, 3, 5),), (TypeTag("II"),), wd)
        m = mats[0]
        assert m[0][0] == SElem.from_int(kctx, 3)
        assert m[0][1].is_zero() and m[1][1] == SElem.one(kctx)

    def test_f1_type_i_determinant(self, kctx):
        # det = -E^k a1 gamma^(-k)
        k = 2
        wd = WeightData((k,), (0,))
        mats = build_kisin_frobenius((type_i(kctx, 3, 5),), (TypeTag("I"),), wd)
        det = mat_det(mats[0])
        gk_inv = s_invert(s_mul(gamma(kctx), gamma(kctx)))
        expected = -s_mul(SElem.e_pow(kctx, k) * OFElem.from_int(kctx, 3), gk_inv)
        assert det == expected


class TestExponentSystem:
    def test_f1_type_i(self):
        wd = WeightData((3,), (0,))
        b, pairs, anchors = solve_exponent_system((TypeTag("I"),), wd)
        g, h = pairs[0]
        assert b == 2
        assert g == PhiExpPoly((0, 3))       # k0 * phi
        assert h == PhiExpPoly((3,))         # k0
        assert (h - g) == PhiExpPoly((3, -3))
        assert anchors == ((0, 1),)

    def test_f1_type_ii(self):
        wd = WeightData((3,), (0,))
        b, pairs, _ = solve_exponent_system((TypeTag("II"),), wd)
        g, h = pairs[0]
        assert b == 1
        assert g == PhiExpPoly((3,))
        assert h.is_zero()

    def test_zero_weights_give_zero_exponents(self):
        wd = WeightData((0, 0), (0, 0))
        _, pairs, _ = solve_exponent_system((TypeTag("I"), TypeTag("II")), wd)
        assert all(g.is_zero() and h.is_zero() for g, h in pairs)

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
        raw = build_kisin_frobenius(tuple(lattice), tag_objs, wd)
        kf = det_normalize(raw, tag_objs, wd, tuple(lattice))
        for i, t in enumerate(tags):
            m = kf.amat[i]
            e_a1 = SElem.e_pow(ctx, ks[i]) * kf.a1[i]
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
        raw = build_kisin_frobenius(lattice, tags, wd)
        kf = det_normalize(raw, tags, wd, lattice)
        det = mat_det(kf.amat[0])
        assert (det + SElem.e_pow(kctx, 2) * OFElem.from_int(kctx, 3)).is_zero()

    def test_full_pipeline_from_random_lattice(self, kctx, rng):
        wd = WeightData((2,), (0,))
        lattice = (random_gl2(kctx, rng),)
        norm, _, tags = parabolic_normalize(lattice, classify_lattice(lattice, wd), wd)
        raw = build_kisin_frobenius(norm, tags, wd)
        kf = det_normalize(raw, tags, wd, norm)
        assert kf.b in (1, 2)
