"""Preparation and finite-precision descent to integral coefficients.

The preparation row operation strips the infinite tail of the unit
lambda_b^(h-g) off the surviving matrix entry, leaving an integral part
and a remainder certified in I_c; the descent then runs the successive
approximation of the reduction algorithm, absorbing the remainder through
height-partner factorizations whose E-adic depth h_n grows by the gain law

    h_(n+1) = p * (h_n - k_i - floor(h_n / p) + 1)

at every step.  The result is an integral matrix tuple congruent to the
prepared part mod p, packaged with the full iteration log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .arith import _entries, _mat_map, mat_add, mat_sub
from .errors import (
    AssumptionViolated,
    GateFailed,
    HeightMismatch,
    NoConvergence,
    NotIntegral,
    PrecisionExhausted,
    SplitFailed,
)
from .kisin import KisinFrobenius
from .lattices import WeightData
from .sring import (SElem, _first_nonzero, _frobenius_scales, _least_valuation, _sum_shape,
                    fil_membership, in_p_pow_s, s_frobenius, s_invert, s_sums)


@dataclass(frozen=True)
class HeightBudget:
    """Minimal c^(i) with k_i <= c^(i)(p-2), and their maximum."""

    c: Tuple[int, ...]
    c_max: int

    def serial(self):
        return {"c": list(self.c), "c_max": self.c_max}


def compute_budget(weights: WeightData, p: int) -> HeightBudget:
    if p < 3:
        raise ValueError("budget requires p >= 3")
    cs = tuple((k - 1) // (p - 2) + 1 for k in weights.k)
    return HeightBudget(cs, max(cs))


@dataclass(frozen=True)
class GateReport:
    bounds: Tuple[int, ...]
    valuations: Tuple[Optional[int], ...]
    passed: bool
    diagnostics: Tuple[str, ...]

    def serial(self):
        return {
            "bounds": list(self.bounds),
            "valuations": ["inf" if v is None else v for v in self.valuations],
            "passed": self.passed,
            "diagnostics": list(self.diagnostics),
        }


def valuation_gate(a2_params, weights: WeightData, budget: HeightBudget) -> GateReport:
    """Check val(a_2^(i)) > max(c^(i)-1, c_max - c^(i) - 1) per embedding.

    Raises GateFailed (with the per-embedding diagnostics attached) on any
    violation; the strict inequality is the large-valuation hypothesis.
    """
    bounds, vals, diags = [], [], []
    ok = True
    for i, a2 in enumerate(a2_params):
        c_i = budget.c[i]
        bound = max(c_i - 1, budget.c_max - c_i - 1)
        v = a2.valuation()
        bounds.append(bound)
        vals.append(v)
        if v is not None and v <= bound:
            ok = False
            diags.append(
                f"embedding {i}: val(a2) = {v} <= bound {bound} "
                f"(needs strict >)")
    report = GateReport(tuple(bounds), tuple(vals), ok, tuple(diags))
    if not ok:
        raise GateFailed("; ".join(diags), diagnostics=report.serial())
    return report


Mat2 = Tuple[Tuple[SElem, SElem], Tuple[SElem, SElem]]


@dataclass(frozen=True)
class PreparedSplit:
    """Exact decomposition (X_1 *_phi B)^(i) = A0^(i) + C^(i)."""

    a0: Tuple[Mat2, ...]              # integral part, entries in O_F[[u]]
    c_mats: Tuple[Mat2, ...]          # remainder, entries in I_(c_max)
    conjugated: Tuple[Mat2, ...]      # the full X_1 *_phi B matrices
    x1: Tuple[SElem, ...]             # applied row-operation entries x^(i)
    weights: WeightData
    period: int                       # `KisinFrobenius.period`

    @property
    def f(self):
        return self.weights.f


def prepare(kisin: KisinFrobenius, budget: HeightBudget) -> PreparedSplit:
    """Strip the lambda tails via X_1 = [[1, 0], [x, 1]] and split.

    x^(i) = -(a2/a1)^(i) * (tail of lambda^(h-g) past block c^(i)) / E^(k_i);
    the conjugated matrix splits exactly into the integral head A0 and a
    remainder whose entries are multiples of phi(x^(i-1)) in I_(c_max).
    A0's surviving entry a2 (head of lambda^(h-g)) is the matrix's entry
    a2 lambda^(h-g) below slot c^(i) p, taken with no product: a2 is a
    constant of O_F, so its product with lambda^(h-g) has no carries.

    Only slots 0..d-1 of d = `kisin.period` are computed (the `kisin`
    module docstring).
    """
    ctx = kisin.amat[0][0][0].ctx
    weights, f, period = kisin.heights, kisin.f, kisin.period
    xs, phis = [], []
    for i in range(period):
        c_i = budget.c[i]
        tail = kisin.lam_e[i].slice_from(c_i * ctx.p)
        if tail.is_zero():
            xs.append(SElem.zero(ctx))
            phis.append(SElem.zero(ctx))
            continue
        scale = -(kisin.a2[i] * kisin.a1[i].unit_inverse())
        x = tail.div_e_pow(weights.k[i]) * scale
        xs.append(x)
        phi = s_frobenius(x)
        try:
            phi = phi.normalize_d()
        except NotIntegral as exc:
            raise SplitFailed(f"phi(x^({i})) not integral: {exc}") from exc
        if not in_p_pow_s(phi, budget.c_max):
            raise SplitFailed(
                f"phi(x^({i})) not in p^{budget.c_max} S_F; gate miscalculation?")
        phis.append(phi)

    a0s, cs, conjs = [], [], []
    e_zero = SElem.zero(ctx)
    for i in range(period):
        k_i, c_i = weights.k[i], budget.c[i]
        b_mat = kisin.amat[i]
        x, phi_prev = xs[i], phis[i - 1]
        # X_1 B: add x * (row 1) to row 2
        m = ((b_mat[0][0], b_mat[0][1]),
             (b_mat[1][0] + x * b_mat[0][0], b_mat[1][1] + x * b_mat[0][1]))
        # ... phi(X_1^(i-1))^(-1): subtract phi(x') * (column 2) from column 1
        m = ((m[0][0] - m[0][1] * phi_prev, m[0][1]),
             (m[1][0] - m[1][1] * phi_prev, m[1][1]))
        conjs.append(m)

        tag = kisin.tags[i]
        b_a1, b_a2 = tag.params(b_mat)
        t_entry = b_a2.slice_below(c_i * ctx.p)
        a0 = tag.form(b_a1, t_entry, e_zero, SElem.one(ctx))
        a0s.append(a0)
        try:
            cs.append(_mat_map(lambda e: e.normalize_d(), mat_sub(m, a0)))
        except NotIntegral as exc:
            raise SplitFailed(
                f"slot {i}: remainder entry has a denominator: {exc}") from exc

        for r in range(2):
            for c in range(2):
                if not a0[r][c].is_integral():
                    raise SplitFailed(f"slot {i}: A0 entry ({r},{c}) not integral")
                if not in_p_pow_s(cs[i][r][c], budget.c_max):
                    raise SplitFailed(
                        f"slot {i}: remainder entry ({r},{c}) not in I_{budget.c_max}")
        if not t_entry.is_integral(margin=1):
            raise SplitFailed(
                f"slot {i}: surviving entry not in p*O_F[[u]] (gate margin)")

    copies = f // period
    return PreparedSplit(
        a0=tuple(a0s) * copies, c_mats=tuple(cs) * copies,
        conjugated=tuple(conjs) * copies, x1=tuple(xs) * copies, weights=weights,
        period=period)


def check_descent_assumptions(split: PreparedSplit, budget: HeightBudget) -> None:
    """Re-validate the three descent clauses on a prepared split.

    (a) height bound c_max(p-2) >= k_i; (b) the applied base change is
    unipotent (det 1) over S_F[1/p]; (c) the split reassembles exactly.
    A0 integral and C in I_(c_max) are not re-tested: `prepare` raises
    SplitFailed on each entry that fails them.  Raises AssumptionViolated
    on failure.

    Clause (c) runs on slots 0..d-1 of d = `split.period` only (the
    `kisin` module docstring); (a) and (b) compare integers and run on
    every slot.
    """
    ctx = split.a0[0][0][0].ctx
    p = ctx.p
    for i, k in enumerate(split.weights.k):
        if budget.c_max * (p - 2) < k:
            raise AssumptionViolated("a", f"c_max(p-2) < k_{i} = {k}")
    for i, x in enumerate(split.x1):
        # X_1 = [[1,0],[x,1]] has det 1 by shape; x must have bounded denominator
        if x.d > budget.c_max:
            raise AssumptionViolated(
                "b", f"x^({i}) has denominator p^{x.d} > p^{budget.c_max}")
    for i in range(split.period):
        if mat_add(split.a0[i], split.c_mats[i]) != split.conjugated[i]:
            raise AssumptionViolated("c", f"slot {i}: reassembly mismatch")


def _product_sums(a: Mat2, bs) -> list:
    """The `s_sums` entries of the 2x2 products a b for each b of `bs`,
    row by row: each entry is one sum of two products.  In one batch, each
    entry of a is rescaled and packed once for all of `bs`."""
    return [((a[i][0], b[0][j]), (a[i][1], b[1][j]))
            for b in bs for i in (0, 1) for j in (0, 1)]


def _det_sum(a: Mat2) -> tuple:
    """det(a) as one `s_sums` entry."""
    return ((a[0][0], a[1][1]), (-a[0][1], a[1][0]))


def _as_mats(v) -> List[Mat2]:
    """Values of `_product_sums`, four per matrix, as matrices."""
    return [((v[k], v[k + 1]), (v[k + 2], v[k + 3])) for k in range(0, len(v), 4)]


def mat_mul(a: Mat2, b: Mat2) -> Mat2:
    """The 2x2 product over S_F, each entry one packed sum of two products,
    all in one `s_sums` batch, so each entry of a is rescaled and packed
    once: the values, d and prec of `arith.mat_mul`."""
    return _as_mats(s_sums(_product_sums(a, (b,))))[0]


def mat_det(a: Mat2) -> SElem:
    """det(a) over S_F as one packed sum: the values, d and prec of
    `arith.mat_det`."""
    return s_sums((_det_sum(a),))[0]


def _det_over_e_pow(det: SElem, k: int) -> SElem:
    """The unit det / E^k at d = 0, for det = det(A); HeightMismatch when
    the division or the denominator cannot be certified, or the quotient
    is not a unit."""
    try:
        unit = det.div_e_pow(k).normalize_d()
    except (NotIntegral, PrecisionExhausted) as exc:
        raise HeightMismatch(f"det(A) is not divisible by E^{k}: {exc}") from exc
    if not unit.is_unit():
        raise HeightMismatch(f"det / E^{k} is not a unit")
    return unit


def _times_partner(c: Mat2, a: Mat2, inv: SElem) -> Mat2:
    """W = C B for the height partner B = adj(A) inv of A, where inv is the
    inverse of the unit det(A) / E^h, so that A B = B A = E^h Id and
    W A = E^h C.  The identity needs no separate check: the caller
    certifies the unit against det(A), and s_invert certifies inv at the
    unit's precision.

    W is formed as (inv C) adj(A), and B never is: only the nonzero entries
    of C are multiplied by inv, in one batch.  A zero entry of C still
    counts as the product it stands for, with d = d_C + d_inv and
    prec = min(prec_C, prec_inv), so every entry of W has the values, d and
    prec of `mat_mul(C, B)`: both sides are the same sums of the same
    triple products under the rule of `s_sums`, and S_F/Fil^M is a ring.
    """
    nonzero = [e for e in _entries(c) if e.c]
    scaled = iter(s_sums([((e, inv),) for e in nonzero]) if nonzero else ())
    x = _mat_map(lambda e: next(scaled) if e.c else
                 SElem._reduced(inv.ctx, (), e.d + inv.d, min(e.prec, inv.prec)), c)
    return mat_mul(x, ((a[1][1], -a[0][1]), (-a[1][0], a[0][0])))


def _certified_empty(c: Mat2, a: Mat2, unit: SElem) -> Optional[Mat2]:
    """W = (inv C) adj(A) of `_times_partner`, inv the inverse of `unit`, as
    zeros at W's (d, prec) when phi(W) is certified to vanish at its
    precision; else None.  It takes no inverse and no product.

    The shapes.  For a unit at d = 0, s_invert gives inv at (0, prec_unit),
    so inv C_il has (d_C, min(prec_C, prec_unit)) and W_ij the (d_ij, P_ij)
    that `_sum_shape` gives the pairs (inv C_il, adj_lj); phi(W_ij) keeps
    d_ij and has precision need_ij = min(P_ij, M - floor(M/p)).

    The bound.  Let g(j) = j - floor(j/p), v(x) the least valuation of x's
    numerator values and j0(x) its first nonzero slot.  phi(W) is zero when
    for every i, j, l with C_il != 0 and adj_lj != 0, every nonzero slot s
    of C_il has v(C_il[s]) + v(adj_lj) + g(s + j0(adj_lj)) >= need_ij.

    Why.  Mod p^(P_ij), slot t of W_ij's numerator is a sum of terms
    inv[a] C_il[s] adj_lj[b] p^e with a + s + b = t and e >= 0: the carries
    of `s_sums` and its multipliers p^(d_ij - d_(inv C_il) - d_adj) are
    powers of p, inv is integral, reducing inv C_il mod its precision adds
    multiples of p^(P_ij) only, and the truncation at E^M drops terms.  phi
    takes E^t/p^floor(t/p) to p^g(t) gamma^t with gamma in S_F, and g never
    decreases, so g(t) >= g(s + j0(adj_lj)).  So every term of every
    numerator value of phi(W_ij) is 0 mod p^(need_ij).

    Each (l, j) is one pass over C_il's slots from its first nonzero one:
    slot s passes when its values times p^g(s + j0(adj_lj)) vanish mod
    p^(need_ij - v(adj_lj)), and the pass ends where g alone reaches that.
    """
    ctx = unit.ctx
    if unit.d:
        return None
    p, r = ctx.p, ctx.r
    x = [[SElem._reduced(ctx, (), e.d, min(e.prec, unit.prec)) for e in row] for row in c]
    adj = ((a[1][1], a[0][1]), (a[1][0], a[0][0]))     # adj(A) up to signs
    w = [SElem._reduced(ctx, (), *_sum_shape(t)) for t in _product_sums(x, (adj,))]
    top, gains = ctx.m - ctx.m // p, _frobenius_scales(ctx)
    for l in (0, 1):
        col = [(i, e, _least_valuation(p, e.c), _first_nonzero(e.c) // r)
               for i, e in enumerate((c[0][l], c[1][l])) if e.c]
        for j in (0, 1):
            y = adj[l][j]
            if not col or not y.c:
                continue
            v, j0 = _least_valuation(p, y.c), _first_nonzero(y.c) // r
            for i, e, ve, lo in col:
                n = min(w[2 * i + j].prec, top) - v
                # g(s + j0) >= n from slot s = n + floor((n-1)/(p-1)) - j0 on
                hi = n + (n - 1) // (p - 1) - j0
                if ve + lo + j0 - (lo + j0) // p < n and lo < hi:
                    mod = ctx.ppow(n)
                    if any([z * q % mod for z, q in zip(e.c[lo * r:hi * r],
                                                      gains[(lo + j0) * r:])]):
                        return None
    return _as_mats(w)[0]


def _absorb_nothing(a: Mat2, unit: SElem, det: SElem, factor: Mat2):
    """(new A, unit, det(new A)) of an empty step's absorption, where
    I + D1 = `factor` is I and D2 is 0 as values, with no product taken.

    Each keeps its value at the (d, prec) that `_sum_shape` gives the
    absorption's products: entry (r, c) of A (I + D1) is A_rc 1 + A_r(1-c) 0,
    det(I + D1) is 1, unit det(I + D1) is the unit, and det(new A) is
    det(A) over the new denominators.  A sum's d is at least each of its
    terms' d and its prec - d at most theirs, so `SElem._at` gives exactly
    the values the products would."""
    def det_shape(m):
        # the pairs of `_det_sum(m)`; a sign does not change a shape
        return _sum_shape(((m[0][0], m[1][1]), (m[0][1], m[1][0])))

    terms = _product_sums(a, (factor,))
    new_a = _as_mats([e._at(*_sum_shape(t)) for e, t in zip(_entries(a), terms)])[0]
    fdet = SElem.one(unit.ctx)._at(*det_shape(factor))
    return new_a, unit._at(*_sum_shape(((unit, fdet),))), det._at(*det_shape(new_a))


@dataclass
class DescentCertificate:
    """Output of `descend`: the integral tuple plus the iteration log."""

    a_final: Tuple                      # tuple of 2x2 integral SElem matrices
    a_final_mod_p: Tuple                # their residues below the window L
    chains: List[List[dict]]            # per-chain (slot, h, ell, next_h) rows
    iterations: int
    final_prec: int

    def serial(self):
        return {
            "iterations": self.iterations,
            "chains": self.chains,
            "final_prec": self.final_prec,
        }


def _gain_step(h: int, k: int, p: int) -> Tuple[int, int]:
    """The gain law at depth h and weight k: ell = h - k - floor(h/p) and
    the next depth p * (ell + 1)."""
    ell = h - k - h // p
    return ell, p * (ell + 1)


def read_off_window(p: int, k_max: int) -> int:
    """L = floor(p k_max / (p - 1)) + 2, the u-adic window that the
    reduction is read off: the least integer above p k_max / (p - 1), plus
    one.  `preflight_precision` proves that the answer depends on the
    descended matrices only mod (p, u^L)."""
    return p * k_max // (p - 1) + 2


def estimate_iterations(weights: WeightData, budget: HeightBudget, p: int, m: int,
                        nwork: Optional[int] = None) -> int:
    """A bound on `descend`'s iterations: the steps until every chain's
    remainder is zero, u-adically (the gain law takes its depth past m)
    or, when nwork is given, p-adically, whichever comes first per chain.

    The p-adic half.  phi(E) = p gamma with gamma a unit, and phi takes
    c_j E^j / p^floor(j/p) to c_j p^(j - floor(j/p)) gamma^j, where
    j - floor(j/p) never decreases in j; so an element of p^v S_F that is
    zero below slot h has its phi in p^(v + h - floor(h/p)) S_F, and
    phi(Fil^h) lies there too.  The chain that `descend` starts at slot i
    begins with the remainder C = -(column 2 of A0) phi(x') in column 1,
    x' = x^(i-1) of `prepare` (X_1 B = A0 for both Type forms).  There
    x' = -(a2/a1) (tail from slot c p) / E^k at the previous slot, with
    v(a2) > the gate's bound, so v(a2) >= max(c, c_max - c), and
    phi(x') = phi(-(a2/a1) tail) / (p^k gamma^k); hence C lies in p^(v_0)
    S_F with v_0 = max(c, c_max - c) + c (p - 1) - k, and in
    I_(c_max) = p^(c_max) S_F, which `prepare` checks.  `descend` keeps
    its slots from h_0 = p c_max on.  A step at a slot of weight k takes
    W = C/E^k B with B the integral height partner, so
    phi(W) = phi(C) phi(B) / (p^k gamma^k), keeps the tail of phi(W) from
    the next depth and multiplies it by the integral A: the next remainder
    is zero below the next depth and lies in p^(v + h - floor(h/p) - k)
    S_F.  Every element the descent holds has prec - d <= nwork, so a
    remainder in p^nwork S_F is zero at its precision.  Each chain is
    counted until the first step where h > m or v >= nwork, and `descend`
    iterates until every remainder is zero: at most the largest count.
    """
    f, c_max = weights.f, budget.c_max
    top = float("inf") if nwork is None else nwork
    chains = []
    for i in range(f):
        c, k = budget.c[i - 1], weights.k[i - 1]
        chains.append((c_max * p, max(c_max, max(c, c_max - c) + c * (p - 1) - k)))
    steps = 0
    while any(h <= m and v < top for h, v in chains) and steps < 10_000:
        nxt = [(float("inf"), 0)] * f
        for i, (h, v) in enumerate(chains):
            if h <= m and v < top:
                k = weights.k[i]
                nxt[(i + 1) % f] = (_gain_step(h, k, p)[1], v + h - h // p - k)
        chains = nxt
        steps += 1
    return steps


def descend(split: PreparedSplit, budget: HeightBudget) -> DescentCertificate:
    """Successive approximation to an integral Frobenius tuple.

    Runs the ideal re-split, the absorption step, and then the gain-law
    iteration until the remainder vanishes at precision (NoConvergence
    after six iterations beyond `estimate_iterations` at (M, nwork)).
    Each iteration records one step per slot: None when the slot's
    remainder is clean, else (D1, D2, threshold), the head and the
    Fil^threshold tail of phi(C/E^k B).  Slot i then absorbs its left
    neighbour's step; a clean neighbour leaves its matrix, unit and depth
    as they are.
    Per slot the unit det(A)/E^(k_i) of the first iterate is tracked, each
    absorption multiplying it by det(I + D1), and det(A) is checked against
    E^(k_i) times it, a shift (`SElem.mul_e_pow`): every slot before the
    first iteration, then every slot that changed.  A failed check raises
    SplitFailed.  The height partner inverts this tracked unit, so det(A)
    is not taken again; it stays a unit because each det(I + D1) is
    checked to be 1 mod p.  No value is computed twice: the first
    iterate's det(A) gives both its unit and the first check; W is
    (inv C/E^k) adj(A) (`_times_partner`), with no height partner formed;
    det(I + D1) is one more sum in the batch of A (I + D1) and A D2, and
    unit det(I + D1) and det(new A) share one batch.

    Empty steps take no inverse and no product.  A step is empty when
    phi(W) vanishes at its precision, so D1 = D2 = 0.  `_certified_empty`
    decides it from C/E^k and A before anything is inverted:
    phi(E^j/p^floor(j/p)) = p^g(j) gamma^j with g(j) = j - floor(j/p)
    nondecreasing and gamma in S_F, the carries of a product are powers of
    p and the inverse is integral, so when every slot s of C/E^k has
    v(C_il[s]) + v(adj(A)_lj) + g(s + j0(adj(A)_lj)) >= the precision of
    phi(W_ij), every numerator value of phi(W) is 0 there (the proof is in
    `_certified_empty`).  W is then zeros at the (d, prec) the products
    would give it, and goes through the same `s_frobenius`, `normalize_d`,
    slices and checks, so D1, D2, the chain row and every raise are those
    of the full path.  Its absorption (`_absorb_nothing`) keeps A, the unit
    and det(A) and gives them the (d, prec) of the products (`_sum_shape`);
    the slot's remainder is then clean.  `check_dets` still checks the slot.
    The skipped `s_invert` could not have raised: it raises only on a
    non-unit (Newton's iteration converges on every unit), the unit is
    certified a unit at creation (`_det_over_e_pow`), and every update
    multiplies it by det(I + D1), checked to be 1 mod p, or (empty step) by
    1.  A slot's inverse seed is then left from its last full step.  It is
    only a starting guess, which `s_invert` checks, so no inverse changes,
    but the next inversion may take more Newton steps.

    Each final entry must differ from A0's in p*O_F[[u]], checked on every
    slot at the entry's precision.  Its residue is read off the slots
    below the window L = `read_off_window(p, k_max)`; `final_prec` is the
    least precision of the final entries less the floor((L-1)/p) digits
    that u-coordinates below L cost.

    Slot i's update reads its own state (matrix, unit, remainder, depth,
    inverse seed) and its left neighbour's step, so only slots 0..d-1 of
    d = `split.period` are computed (the `kisin` module docstring).  Each
    step's chain row is written for every slot it stands for, and the
    NoConvergence message lists all f depths.
    """
    ctx = split.a0[0][0][0].ctx
    p, f, period = ctx.p, split.f, split.period
    weights = split.weights
    copies = f // period
    max_iter = estimate_iterations(weights, budget, p, ctx.m, ctx.nwork) + 6
    one, zero = SElem.one(ctx), SElem.zero(ctx)
    eye = ((one, zero), (zero, one))

    # (1) re-split C in I_c into p*integral + Fil^(cp) tail; fold the head in
    h0 = budget.c_max * p
    a_mats, c_mats = [], []
    for a0, c_mat in zip(split.a0[:period], split.c_mats[:period]):
        head = _mat_map(lambda e: e.slice_below(h0), c_mat)
        if not all(e.is_integral(margin=1) for e in _entries(head)):
            raise SplitFailed("re-split head not in p*O_F[[u]]")
        a_mats.append(mat_add(a0, head))
        c_mats.append(_mat_map(lambda e: e.slice_from(h0), c_mat))

    # det(A) of the first iterate gives the initial unit and the first check
    dets = [mat_det(a) for a in a_mats]
    units = [_det_over_e_pow(det, k) for det, k in zip(dets, weights.k)]

    chains = [[] for _ in range(f)]
    hs = [h0] * period
    inv_seeds = [None] * period

    def check_dets(n, steps=None):
        # a slot whose left neighbour was clean kept its matrix and unit,
        # which the previous check already compared
        for i in range(period):
            if steps is not None and steps[i - 1] is None:
                continue
            if not dets[i] == units[i].mul_e_pow(weights.k[i]):
                raise SplitFailed(f"iteration {n}, slot {i}: det != E^k*unit")

    def clean(c):
        return c is None or all(e.is_zero() for e in _entries(c))

    check_dets(0)

    iteration = 0
    while not all(clean(c) for c in c_mats):
        if iteration >= max_iter:
            raise NoConvergence(
                f"descent did not terminate in {max_iter} iterations; "
                f"depths {hs * copies}, precision may be exhausted")
        n = iteration + 1
        steps = []
        for i, c in enumerate(c_mats):
            if clean(c):
                steps.append(None)
                continue
            k_i = weights.k[i]
            ell, threshold = _gain_step(hs[i], k_i, p)
            c = _mat_map(lambda e: e.div_e_pow(k_i), c)       # C/E^k
            w = _certified_empty(c, a_mats[i], units[i])
            empty = w is not None
            if not empty:
                inv_seeds[i] = s_invert(units[i], seed=inv_seeds[i])
                w = _times_partner(c, a_mats[i], inv_seeds[i])
            phi_w = _mat_map(lambda e: s_frobenius(e).normalize_d(), w)
            d1 = _mat_map(lambda e: e.slice_below(threshold), phi_w)
            d2 = _mat_map(lambda e: e.slice_from(threshold), phi_w)
            if not all(e.is_integral(margin=1) for e in _entries(d1)):
                raise SplitFailed(f"iteration {n}, slot {i}: head of "
                                  f"phi(C'B) not in p*O_F[[u]]")
            if not all(fil_membership(e, threshold) for e in _entries(d2)):
                raise SplitFailed(f"iteration {n}, slot {i}: tail of "
                                  f"phi(C'B) not in Fil^{threshold}")
            steps.append((d1, d2, threshold, empty))
            # chain j started at slot j and moves one slot per iteration
            for slot in range(i, f, period):
                chains[(slot - iteration) % f].append({
                    "step": n, "slot": slot, "h": hs[i], "ell": ell,
                    "next_h": threshold, "k_slot": k_i,
                })
        # The absorption factor (I + W^(i))^(-1) clears slot i's own
        # remainder; slot i takes in its left neighbour's split instead.
        for i in range(period):
            step = steps[i - 1]
            if step is None:
                # nothing arrives, and slot i's own remainder has moved on
                c_mats[i] = None
                continue
            d1, d2, threshold, empty = step
            factor = mat_add(eye, d1)
            hs[i] = threshold
            if empty:
                # D1 = D2 = 0: nothing arrives, and A, the unit and det(A)
                # change only in (d, prec)
                a_mats[i], units[i], dets[i] = _absorb_nothing(
                    a_mats[i], units[i], dets[i], factor)
                c_mats[i] = None
                continue
            v = s_sums(_product_sums(a_mats[i], (factor, d2)) + [_det_sum(factor)])
            (new_a, c_mats[i]), fdet = _as_mats(v[:8]), v[8]
            if not in_p_pow_s(fdet - SElem.one(ctx, fdet.prec), 1):
                raise SplitFailed(f"iteration {n}: det(I + D1) != 1 mod p")
            units[i], dets[i] = s_sums([((units[i], fdet),), _det_sum(new_a)])
            diff = mat_sub(new_a, a_mats[i])
            if not all(in_p_pow_s(e, 1) for e in _entries(diff)):
                raise SplitFailed(f"iteration {n}: mod-p stability broken")
            a_mats[i] = new_a
        iteration = n
        check_dets(iteration, steps)

    window = read_off_window(p, weights.k_max)
    residues = []
    for m in a_mats:
        try:
            residues.append(_mat_map(lambda e: e.residue(window), m))
        except (NotIntegral, PrecisionExhausted) as exc:
            raise PrecisionExhausted(
                f"descended entry not certifiably integral: {exc}") from exc
    for i, (a, a0) in enumerate(zip(a_mats, split.a0)):
        if not all(e.is_integral(margin=1) for e in _entries(mat_sub(a, a0))):
            raise SplitFailed(f"slot {i}: descended matrix != prepared part mod p")
    # residue() has just certified each normalize_d()
    a_final = tuple(_mat_map(lambda e: e.normalize_d(), m) for m in a_mats)
    final_prec = min(e.prec for m in a_final for e in _entries(m))
    return DescentCertificate(
        a_final=a_final * copies,
        a_final_mod_p=tuple(residues) * copies,
        chains=chains,
        iterations=iteration,
        final_prec=final_prec - (window - 1) // p,
    )
