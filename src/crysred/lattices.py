"""Weight normalization, Type classification and parabolic equivalence.

Lattice data is an f-tuple of invertible 2x2 matrices over O_F indexed by
Z/fZ; the twisted conjugation

    B^(i) = C^(i) A^(i) Delta_(i-1) (C^(i-1))^(-1) Delta_(i-1)^(-1),
    Delta_i = Diag(p^(k_i), 1),  C upper triangular with unit diagonal,

is the equivalence the normal forms live under.  The normalization routine
produces exact Type I and Type II representatives (`TypeTag` owns their
shapes) together with the witness tuple (C).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence, Tuple

from .arith import OFElem, mat_det, mat_mul
from .errors import Degenerate, DetCheckFailed, IrregularWeights, PrecisionExhausted


@dataclass(frozen=True)
class WeightData:
    """Largest labeled weights per embedding, the second normalized to 0."""

    k: Tuple[int, ...]
    shifts: Tuple[int, ...]

    @property
    def f(self):
        return len(self.k)

    def k_prev(self, i: int) -> int:
        return self.k[(i - 1) % len(self.k)]

    @property
    def k_max(self):
        return max(self.k)

    def serial(self):
        return {"k": list(self.k), "shifts": list(self.shifts)}


@dataclass(frozen=True)
class TypeTag:
    """Per-embedding Type: "I" or "II" (with the latter's diagonal scalar).

    The Type I normal form is [[0, a1], [1, a2]], with determinant -a1; the
    Type II normal form is [[a1, 0], [a2, 1]], with determinant +a1.  Later
    stages keep these shapes with other entries (E^(k_i) a1 for a1, say),
    build them only through `form` and read a1, a2 only through `params`.
    """

    kind: str
    alpha: Optional[OFElem] = None

    @property
    def det_sign(self) -> int:
        return -1 if self.kind == "I" else 1

    def params(self, m):
        """(a1, a2) of a matrix of this Type's normal form."""
        if self.kind == "I":
            return m[0][1], m[1][1]
        return m[0][0], m[1][0]

    def form(self, a1, a2, zero, one):
        """This Type's normal form with entries a1, a2, zero and one."""
        if self.kind == "I":
            return ((zero, a1), (one, a2))
        return ((a1, zero), (a2, one))

    def serial(self):
        out = {"kind": self.kind}
        if self.alpha is not None:
            out["alpha"] = self.alpha.serial()
        return out


def normalize_weights(raw: Sequence[Sequence[int]]) -> WeightData:
    """Shift each embedding's weight pair so the smaller weight is 0.

    Raises IrregularWeights when a pair is equal (k_i = 0 is excluded).
    """
    ks, shifts = [], []
    for i, pair in enumerate(raw):
        if len(pair) != 2:
            raise IrregularWeights(f"embedding {i}: expected a weight pair")
        lo, hi = sorted(pair)
        if hi == lo:
            raise IrregularWeights(f"embedding {i}: equal weights give k_i = 0")
        ks.append(hi - lo)
        shifts.append(lo)
    return WeightData(tuple(ks), tuple(shifts))


def classify_type(a) -> TypeTag:
    """Type I iff the lower-left entry is a unit (ties break to I)."""
    a21, a22 = a[1][0], a[1][1]
    if a21.is_unit():
        return TypeTag("I")
    if not a22.is_unit():
        raise Degenerate("neither bottom-row entry is a unit")
    return TypeTag("II", alpha=a22)


def _check_invertible(mats):
    for i, a in enumerate(mats):
        if not mat_det(a).is_unit():
            raise Degenerate(f"matrix {i} is not invertible over O_F")


def _upper_inv(c):
    """Inverse of an upper-triangular 2x2 with unit diagonal entries."""
    a, b, d = c[0][0], c[0][1], c[1][1]
    ai, di = a.unit_inverse(), d.unit_inverse()
    return ((ai, -(ai * b * di)), (OFElem.zero(a.ctx, a.prec), di))


def _delta_conj_upper(m, k: int):
    """Delta_k M Delta_k^(-1) for upper-triangular M: scales the upper-right
    entry by p^k; stays integral."""
    return ((m[0][0], m[0][1].times_p_pow(k)), (m[1][0], m[1][1]))


def _single_slot_witness(a, ell: int):
    """The elementary parabolic matrix clearing column ell of a."""
    a1 = a[0][ell - 1]
    a2 = a[1][ell - 1]
    inv = a2.unit_inverse()
    one = OFElem.one(a1.ctx, a1.prec)
    zero = OFElem.zero(a1.ctx, a1.prec)
    return ((one, -(a1 * inv)), (zero, inv))


def classify_lattice(lattice: Sequence, weights: WeightData):
    """Check an explicit lattice tuple and tag each slot's Type.

    The tuple must have one invertible matrix per embedding and every k_i
    must be positive (IrregularWeights otherwise); a non-invertible matrix
    or a slot with no unit in its bottom row raises Degenerate.
    """
    if len(lattice) != weights.f:
        raise ValueError("lattice tuple length must equal f")
    if any(k <= 0 for k in weights.k):
        raise IrregularWeights("normalization requires k_i > 0 for all i")
    _check_invertible(lattice)
    return tuple(classify_type(a) for a in lattice)


def parabolic_normalize(lattice: Sequence, tags, weights: WeightData):
    """Produce the Type-normal representative of a checked lattice tuple.

    `tags` are `classify_lattice`'s, and at least one slot must be Type I:
    a tuple with none is reducible (`reducibility_detect` says so from the
    tags alone) and has no normal form here.  One pass of length f starting
    at the first Type I index yields exact Type I / Type II_1 forms.
    Returns (normalized tuple, witness tuple, their `classify_type` tags).
    """
    f = weights.f
    start = next((i for i in range(f) if tags[i].kind == "I"), None)
    if start is None:
        raise ValueError("an all-II tuple has no Type I slot to normalize from")
    mats = list(lattice)
    witness = [None] * f
    for step in range(f):
        i = (start + step) % f
        ell = 1 if tags[i].kind == "I" else 2
        c = _single_slot_witness(mats[i], ell)
        mats[i] = mat_mul(c, mats[i])
        nxt = (i + 1) % f
        adj = _delta_conj_upper(_upper_inv(c), weights.k[i])
        mats[nxt] = mat_mul(mats[nxt], adj)
        witness[i] = c
    return tuple(mats), tuple(witness), tuple(classify_type(a) for a in mats)


def verify_parabolic_equiv(a_in, b_out, witness, weights: WeightData) -> None:
    """Check B = C A Delta C'^(-1) Delta^(-1) entrywise per embedding.

    The right side is evaluated with the final Delta^(-1) column division
    performed on representatives, so the comparison runs at reduced
    precision N - k_(i-1) per slot.  Raises DetCheckFailed on a mismatch;
    a column that p^k does not divide raises NotIntegral.
    """
    f = weights.f
    n_eff = min(x.prec for m in a_in for row in m for x in row)
    if n_eff <= weights.k_max:
        raise PrecisionExhausted(
            f"verification needs N > max k_i = {weights.k_max}, have {n_eff}")
    for i in range(f):
        k = weights.k_prev(i)
        rhs = mat_mul(witness[i], a_in[i])
        # multiply by Delta on the right: scales column 1 by p^k
        rhs = ((rhs[0][0].times_p_pow(k), rhs[0][1]),
               (rhs[1][0].times_p_pow(k), rhs[1][1]))
        rhs = mat_mul(rhs, _upper_inv(witness[(i - 1) % f]))
        # multiply by Delta^(-1): divides column 1 representatives by p^k
        rhs = ((rhs[0][0].div_p_pow(k), rhs[0][1]),
               (rhs[1][0].div_p_pow(k), rhs[1][1]))
        cmp_prec = n_eff - k
        for r in range(2):
            for c in range(2):
                if rhs[r][c].at_prec(min(cmp_prec, rhs[r][c].prec)) != \
                        b_out[i][r][c].at_prec(min(cmp_prec, b_out[i][r][c].prec)):
                    raise DetCheckFailed(
                        f"slot {i} entry ({r},{c}): B != C A Delta C'^(-1) Delta^(-1)")


@dataclass(frozen=True)
class ReducibilityVerdict:
    kind: str  # "ReducibleAllII" | "ReducibleSubsetSum" | "NotDetected"
    w: Optional[int] = None
    subset: Optional[Tuple[int, ...]] = None

    def serial(self):
        out = {"kind": self.kind}
        if self.kind == "ReducibleSubsetSum":
            out["w"] = self.w
            out["subset"] = list(self.subset)
        return out


def reducibility_detect(normalized, tags, weights: WeightData) -> ReducibilityVerdict:
    """Sufficient reducibility conditions on a Type-normal tuple.

    Fires ReducibleAllII when no slot is Type I, from the tags alone;
    fires ReducibleSubsetSum when val(prod of the Type I slots' a_2
    entries) equals a subset sum of their weights.  Each a_2 that is
    nonzero at its precision contributes its exact valuation, so the sum is
    exact whatever its size.  An a_2 that is 0 at its precision (a_p = 0)
    counts as valuation >= its precision; the sum is then a lower bound,
    which decides only when it exceeds every subset sum, and otherwise
    raises PrecisionExhausted.  NotDetected is not a proof of
    irreducibility.
    """
    s_set = [i for i, t in enumerate(tags) if t.kind == "I"]
    if not s_set:
        return ReducibilityVerdict("ReducibleAllII")
    total = 0
    undecided = []
    for i in s_set:
        a2 = tags[i].params(normalized[i])[1]
        v = a2.valuation()
        if v is None:
            undecided.append(f"val(a_2^({i})) >= {a2.prec}")
            v = a2.prec
        total += v
    if undecided:
        if total > sum(weights.k[i] for i in s_set):
            return ReducibilityVerdict("NotDetected")
        raise PrecisionExhausted(f"{undecided[0]}; cannot decide reducibility")
    for size in range(len(s_set) + 1):
        for subset in combinations(s_set, size):
            if sum(weights.k[i] for i in subset) == total:
                return ReducibilityVerdict("ReducibleSubsetSum", w=total,
                                           subset=subset)
    return ReducibilityVerdict("NotDetected")


def frobenius_f_product(lattice, weights: WeightData):
    """The ordered product prod_i A^(i) Delta_(i-1) and its Newton slopes.

    Every det A^(i) is a unit (the Type forms have det -a1 or a1, and
    `classify_lattice` checks explicit matrices), so det(phi^f) has
    valuation exactly sum_i k_i; it is taken from the weights, not read off
    the product, whose entries stop at the working precision.  The slopes
    come from the characteristic polygon: (v(tr), sum k - v(tr)) when
    2 v(tr) <= sum k, both sum k / 2 when the trace is known to be at least
    that divisible.  Returns (matrix over O_F, (slope_low, slope_high)), or
    (matrix, None) when the trace's precision cannot decide between the
    two; nothing downstream reads the slopes, so that is not an error.
    """
    prod = None
    for i in range(weights.f):
        k = weights.k_prev(i)
        m = lattice[i]
        m = ((m[0][0].times_p_pow(k), m[0][1]),
             (m[1][0].times_p_pow(k), m[1][1]))
        prod = m if prod is None else mat_mul(prod, m)
    v_det = sum(weights.k)
    tr = prod[0][0] + prod[1][1]
    v_tr = tr.valuation()
    if v_tr is not None and 2 * v_tr <= v_det:
        return prod, (Fraction(v_tr), Fraction(v_det - v_tr))
    # balanced polygon; requires knowing tr up to v_det/2
    if 2 * (v_tr if v_tr is not None else tr.prec) < v_det:
        return prod, None
    return prod, (Fraction(v_det, 2), Fraction(v_det, 2))
