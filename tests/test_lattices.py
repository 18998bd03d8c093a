"""Type classification, parabolic normalization and reducibility."""

import random
from fractions import Fraction

import pytest

from crysred.arith import OFElem, PrimeContext, mat_det, mat_mul
from crysred.errors import Degenerate, DetCheckFailed, IrregularWeights, PrecisionExhausted
from crysred.lattices import (
    TypeTag,
    WeightData,
    classify_lattice,
    classify_type,
    frobenius_f_product,
    normalize_weights,
    parabolic_normalize,
    reducibility_detect,
    verify_parabolic_equiv,
)

from conftest import random_of


def of(ctx, v, prec=None):
    return OFElem.from_int(ctx, v, prec)


def mat(ctx, rows, prec=None):
    return tuple(tuple(of(ctx, v, prec) for v in row) for row in rows)


def random_gl2(ctx, rng, prec=None):
    while True:
        m = tuple(tuple(OFElem(ctx, [rng.randrange(ctx.ppow(ctx.n))
                                     for _ in range(ctx.r)], prec)
                        for _ in range(2)) for _ in range(2))
        if mat_det(m).is_unit():
            return m


def random_parabolic(ctx, rng, prec=None):
    while True:
        diag = [OFElem(ctx, [rng.randrange(ctx.ppow(ctx.n)) for _ in range(ctx.r)], prec)
                for _ in range(2)]
        if all(d.is_unit() for d in diag):
            break
    top = OFElem(ctx, [rng.randrange(ctx.ppow(ctx.n)) for _ in range(ctx.r)], prec)
    z = OFElem.zero(ctx, prec)
    return ((diag[0], top), (z, diag[1]))


def normalize(lattice, weights):
    return parabolic_normalize(lattice, classify_lattice(lattice, weights), weights)


def apply_parabolic(witness, lattice, weights):
    """Reference implementation of the twisted conjugation (test oracle)."""
    from crysred.lattices import _delta_conj_upper, _upper_inv

    f = weights.f
    out = []
    for i in range(f):
        m = mat_mul(witness[i], lattice[i])
        adj = _delta_conj_upper(_upper_inv(witness[(i - 1) % f]), weights.k_prev(i))
        out.append(mat_mul(m, adj))
    return tuple(out)


class TestNormalizeWeights:
    def test_shift(self):
        wd = normalize_weights([(5, 2)])
        assert wd.k == (3,) and wd.shifts == (2,)

    def test_identity(self):
        wd = normalize_weights([(4, 0), (0, 7)])
        assert wd.k == (4, 7) and wd.shifts == (0, 0)

    def test_irregular(self):
        with pytest.raises(IrregularWeights):
            normalize_weights([(3, 3)])


class TestClassifyType:
    def test_antidiagonal(self, ctx5):
        assert classify_type(mat(ctx5, [[0, 1], [1, 0]])).kind == "I"

    def test_lower_triangular(self, ctx5):
        assert classify_type(mat(ctx5, [[1, 0], [5, 1]])).kind == "II"

    def test_tie_break_to_i(self, ctx5):
        assert classify_type(mat(ctx5, [[1, 1], [1, 6]])).kind == "I"

    def test_degenerate(self, ctx5):
        with pytest.raises(Degenerate):
            classify_type(mat(ctx5, [[1, 0], [5, 10]]))


@pytest.mark.parametrize("kind, sign", [("I", -1), ("II", 1)])
def test_type_form_round_trip(ctx5r2, rng, kind, sign):
    tag = TypeTag(kind)
    a1, a2 = random_of(ctx5r2, rng, unit=True), random_of(ctx5r2, rng)
    m = tag.form(a1, a2, OFElem.zero(ctx5r2), OFElem.one(ctx5r2))
    got1, got2 = tag.params(m)
    assert got1 == a1 and got2 == a2
    assert tag.det_sign == sign
    assert mat_det(m) == a1 * OFElem.from_int(ctx5r2, sign)


class TestParabolicNormalize:
    def test_fixed_point(self, ctx5):
        wd = WeightData((2,), (0,))
        lattice = (mat(ctx5, [[0, 3], [1, 0]]),)
        out, wit, tags = normalize(lattice, wd)
        assert out[0] == lattice[0]
        assert wit[0] == mat(ctx5, [[1, 0], [0, 1]])
        assert tags[0].kind == "I"

    def test_f1_type_i_killing(self, ctx5):
        # A = [[x, a], [1, y]] -> B = [[0, a - x y], [1, y + p^k x]]
        x_v, a_v, y_v, k = 7, 3, 11, 2
        wd = WeightData((k,), (0,))
        lattice = (mat(ctx5, [[x_v, a_v], [1, y_v]]),)
        out, wit, tags = normalize(lattice, wd)
        b = out[0]
        assert b[0][0].is_zero() and b[1][0] == 1
        assert b[0][1] == a_v - x_v * y_v
        assert b[1][1] == y_v + ctx5.p ** k * x_v
        assert verify_parabolic_equiv(lattice, out, wit, wd) is None

    def test_normal_form_shape_mixed(self, ctx5, rng):
        wd = WeightData((2, 3, 1), (0, 0, 0))
        lattice = tuple(random_gl2(ctx5, rng) for _ in range(3))
        out, wit, tags = normalize(lattice, wd)
        for m, t in zip(out, tags):
            if t.kind == "I":
                assert m[0][0].is_zero() and m[1][0] == 1
                assert m[0][1].is_unit()
            else:
                assert m[0][1].is_zero() and m[1][1] == 1
                assert m[0][0].is_unit() and not m[1][0].is_unit()
        assert verify_parabolic_equiv(lattice, out, wit, wd) is None

    def test_idempotent_mixed(self, ctx5, rng):
        wd = WeightData((2, 1), (0, 0))
        lattice = (random_gl2(ctx5, rng), random_gl2(ctx5, rng))
        out, _, _ = normalize(lattice, wd)
        out2, _, _ = normalize(out, wd)
        for a, b in zip(out, out2):
            for r in range(2):
                for c in range(2):
                    assert a[r][c] == b[r][c]

    def test_bottom_row_invariance(self, ctx5, rng):
        wd = WeightData((3, 2), (0, 0))
        for _ in range(10):
            lattice = (random_gl2(ctx5, rng), random_gl2(ctx5, rng))
            wit = (random_parabolic(ctx5, rng), random_parabolic(ctx5, rng))
            moved = apply_parabolic(wit, lattice, wd)
            for a, b in zip(lattice, moved):
                assert a[1][0].is_unit() == b[1][0].is_unit()
                assert a[1][1].is_unit() == b[1][1].is_unit()

    def test_type_is_equivalence_invariant(self, ctx5, rng):
        wd = WeightData((2, 2), (0, 0))
        for _ in range(5):
            lattice = (random_gl2(ctx5, rng), random_gl2(ctx5, rng))
            _, _, tags = normalize(lattice, wd)
            wit = (random_parabolic(ctx5, rng), random_parabolic(ctx5, rng))
            moved = apply_parabolic(wit, lattice, wd)
            _, _, tags2 = normalize(moved, wd)
            assert [t.kind for t in tags] == [t.kind for t in tags2]

    def test_perturbed_witness_fails(self, ctx5, rng):
        wd = WeightData((2,), (0,))
        lattice = (random_gl2(ctx5, rng),)
        out, wit, _ = normalize(lattice, wd)
        bad = (((wit[0][0][0] + 1, wit[0][0][1]), wit[0][1]),)
        with pytest.raises(DetCheckFailed):
            verify_parabolic_equiv(lattice, out, bad, wd)

    def test_verify_needs_precision(self, ctx5):
        wd = WeightData((ctx5.nwork + 1,), (0,))
        lattice = (mat(ctx5, [[0, 1], [1, 0]]),)
        with pytest.raises(PrecisionExhausted):
            verify_parabolic_equiv(lattice, lattice,
                                   (mat(ctx5, [[1, 0], [0, 1]]),), wd)

    def test_det_valuation_preserved(self, ctx5, rng):
        wd = WeightData((2, 3), (0, 0))
        lattice = (random_gl2(ctx5, rng), random_gl2(ctx5, rng))
        out, _, _ = normalize(lattice, wd)
        for a, b in zip(lattice, out):
            assert mat_det(a).valuation() == mat_det(b).valuation() == 0


class TestReducibility:
    def test_all_ii(self, ctx5, rng):
        wd = WeightData((2, 2), (0, 0))
        lat = (mat(ctx5, [[3, 0], [5, 1]]), mat(ctx5, [[1, 0], [10, 1]]))
        tags = classify_lattice(lat, wd)
        assert reducibility_detect(lat, tags, wd).kind == "ReducibleAllII"

    def test_f1_unit_a2(self, ctx5):
        wd = WeightData((2,), (0,))
        lat = (mat(ctx5, [[0, 1], [1, 3]]),)
        tags = classify_lattice(lat, wd)
        verdict = reducibility_detect(lat, tags, wd)
        assert verdict.kind == "ReducibleSubsetSum"
        assert verdict.w == 0 and verdict.subset == ()

    def test_f2_not_detected(self, ctx5):
        # k = (2, 3); val(a2 product) = 4 not in {0, 2, 3, 5}
        wd = WeightData((2, 3), (0, 0))
        lat = (mat(ctx5, [[0, 1], [1, 5]]), mat(ctx5, [[0, 1], [1, 125]]))
        tags = classify_lattice(lat, wd)
        assert reducibility_detect(lat, tags, wd).kind == "NotDetected"

    def test_planted_subset_sum(self, ctx5, rng):
        # plant val(prod a2) = k_0 with J = {0}
        wd = WeightData((2, 3), (0, 0))
        lat = (mat(ctx5, [[0, 1], [1, 25]]), mat(ctx5, [[0, 1], [1, 7]]))
        tags = classify_lattice(lat, wd)
        verdict = reducibility_detect(lat, tags, wd)
        assert verdict.kind == "ReducibleSubsetSum" and verdict.w == 2

    def test_precision_exhausted(self, ctx5):
        # a2 = 0 known to one digit: val(a2) >= 1 could still equal k = 2
        wd = WeightData((2,), (0,))
        lat = (((of(ctx5, 0), of(ctx5, 1)), (of(ctx5, 1), of(ctx5, 0, prec=1))),)
        tags = classify_lattice(lat, wd)
        with pytest.raises(PrecisionExhausted):
            reducibility_detect(lat, tags, wd)

    def test_zero_a2_not_detected(self, ctx5):
        # a_p = 0: val(a2) >= its precision, above every subset sum of k
        wd = WeightData((2,), (0,))
        lat = (mat(ctx5, [[0, 1], [1, 0]]),)
        tags = classify_lattice(lat, wd)
        assert reducibility_detect(lat, tags, wd).kind == "NotDetected"


class TestFrobeniusProduct:
    def test_f1_antidiagonal(self, ctx5):
        wd = WeightData((2,), (0,))
        lat = (mat(ctx5, [[0, 1], [1, 0]]),)
        prod, slopes = frobenius_f_product(lat, wd)
        assert prod[0][0].is_zero() and prod[0][1] == 1
        assert prod[1][0] == 25 and prod[1][1].is_zero()
        assert slopes == (Fraction(1), Fraction(1))

    def test_f1_unit_trace(self, ctx5):
        wd = WeightData((2,), (0,))
        lat = (mat(ctx5, [[0, 1], [1, 7]]),)
        _, slopes = frobenius_f_product(lat, wd)
        assert slopes == (Fraction(0), Fraction(2))

    def test_identity_k1(self, ctx5):
        wd = WeightData((1,), (0,))
        lat = (mat(ctx5, [[1, 0], [0, 1]]),)
        _, slopes = frobenius_f_product(lat, wd)
        assert slopes == (Fraction(0), Fraction(1))
