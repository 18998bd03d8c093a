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

from .arith import _entries, _mat_map, mat_add, mat_adj, mat_det, mat_mul, mat_sub
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
from .sring import SElem, fil_membership, in_p_pow_s, s_frobenius, s_invert, s_mul


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

    @property
    def f(self):
        return self.weights.f


def prepare(kisin: KisinFrobenius, budget: HeightBudget) -> PreparedSplit:
    """Strip the lambda tails via X_1 = [[1, 0], [x, 1]] and split.

    x^(i) = -(a2/a1)^(i) * (tail of lambda^(h-g) past block c^(i)) / E^(k_i);
    the conjugated matrix splits exactly into the integral head A0 and a
    remainder whose entries are multiples of phi(x^(i-1)) in I_(c_max).
    """
    ctx = kisin.amat[0][0][0].ctx
    weights, f = kisin.heights, kisin.f
    xs, phis = [], []
    for i in range(f):
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
    for i in range(f):
        k_i, c_i = weights.k[i], budget.c[i]
        b_mat = kisin.amat[i]
        x, phi_prev = xs[i], phis[(i - 1) % f]
        # X_1 B: add x * (row 1) to row 2
        m = ((b_mat[0][0], b_mat[0][1]),
             (b_mat[1][0] + x * b_mat[0][0], b_mat[1][1] + x * b_mat[0][1]))
        # ... phi(X_1^(i-1))^(-1): subtract phi(x') * (column 2) from column 1
        m = ((m[0][0] - m[0][1] * phi_prev, m[0][1]),
             (m[1][0] - m[1][1] * phi_prev, m[1][1]))
        conjs.append(m)

        head = kisin.lam_e[i].slice_below(c_i * ctx.p)
        t_entry = s_mul(head, SElem.from_of(ctx, kisin.a2[i]))
        tag = kisin.tags[i]
        a0 = tag.form(tag.params(b_mat)[0], t_entry, e_zero, SElem.one(ctx))
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

    return PreparedSplit(
        a0=tuple(a0s), c_mats=tuple(cs), conjugated=tuple(conjs),
        x1=tuple(xs), weights=weights)


def check_descent_assumptions(split: PreparedSplit, budget: HeightBudget) -> None:
    """Re-validate the three descent clauses on a prepared split.

    (a) height bound c_max(p-2) >= k_i; (b) the applied base change is
    unipotent (det 1) over S_F[1/p]; (c) the split reassembles exactly.
    A0 integral and C in I_(c_max) are not re-tested: `prepare` raises
    SplitFailed on each entry that fails them.  Raises AssumptionViolated
    on failure.
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
    for i in range(split.f):
        if mat_add(split.a0[i], split.c_mats[i]) != split.conjugated[i]:
            raise AssumptionViolated("c", f"slot {i}: reassembly mismatch")


def _det_over_e_pow(a: Mat2, k: int) -> SElem:
    """The unit det(A) / E^k at d = 0; HeightMismatch when the division or
    the denominator cannot be certified, or the quotient is not a unit."""
    try:
        unit = mat_det(a).div_e_pow(k).normalize_d()
    except (NotIntegral, PrecisionExhausted) as exc:
        raise HeightMismatch(f"det(A) is not divisible by E^{k}: {exc}") from exc
    if not unit.is_unit():
        raise HeightMismatch(f"det / E^{k} is not a unit")
    return unit


def height_partner(a: Mat2, unit: SElem, seed: Optional[SElem] = None):
    """(B, inverse) with A B = B A = E^h * Id, via the unit-scaled adjugate.

    `unit` is det(A) / E^h, as `_det_over_e_pow` gives it; B = adj(A) *
    inverse, where inverse is the inverse of `unit`, and `seed`
    warm-starts its Newton iteration.  The identity needs no separate
    check: the caller certifies `unit` against det(A), and s_invert
    certifies the inverse at the unit's precision.
    """
    inv = s_invert(unit, seed=seed)
    b = tuple(tuple(s_mul(entry, inv) for entry in row) for row in mat_adj(a))
    return b, inv


@dataclass
class DescentCertificate:
    """Output of `descend`: the integral tuple plus the iteration log."""

    a_final: Tuple                      # tuple of 2x2 integral SElem matrices
    a_final_mod_p: Tuple                # their residues, checked against A0's
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


def estimate_iterations(weights: WeightData, budget: HeightBudget, p: int, m: int) -> int:
    """Simulate the gain map until the slowest chain clears depth m."""
    f = weights.f
    hs = [budget.c_max * p] * f
    steps = 0
    while min(hs) <= m and steps < 10_000:
        nxt = [0] * f
        for i in range(f):
            nxt[(i + 1) % f] = _gain_step(hs[i], weights.k[i], p)[1]
        hs = nxt
        steps += 1
    return steps


def descend(split: PreparedSplit, budget: HeightBudget) -> DescentCertificate:
    """Successive approximation to an integral Frobenius tuple.

    Runs the ideal re-split, the absorption step, and then the gain-law
    iteration until the remainder vanishes at precision (NoConvergence
    after six iterations beyond `estimate_iterations`).  Each iteration
    records one step per slot: None when the slot's remainder is clean,
    else (D1, D2, threshold), the head and the Fil^threshold tail of
    phi(C/E^k B).  Slot i then absorbs its left neighbour's step; a clean
    neighbour leaves its matrix, unit and depth as they are.
    Per slot the unit det(A)/E^(k_i) of the first iterate is tracked, each
    absorption multiplying it by det(I + D1), and det(A) is checked against
    E^(k_i) times it: every slot before the first iteration, then every
    slot that changed.  A failed check raises SplitFailed.  The height
    partner inverts this tracked unit, so det(A) is not taken again; it
    stays a unit because each det(I + D1) is checked to be 1 mod p.

    The final entries are certified integral and their residues, read off
    the slots, must equal A0's; `final_prec` is their least precision less
    the floor((M-1)/p) digits that u-coordinates would cost.
    """
    ctx = split.a0[0][0][0].ctx
    p, f = ctx.p, split.f
    weights = split.weights
    max_iter = estimate_iterations(weights, budget, p, ctx.m) + 6
    one, zero = SElem.one(ctx), SElem.zero(ctx)
    eye = ((one, zero), (zero, one))

    # (1) re-split C in I_c into p*integral + Fil^(cp) tail; fold the head in
    h0 = budget.c_max * p
    a_mats, c_mats = [], []
    for a0, c_mat in zip(split.a0, split.c_mats):
        head = _mat_map(lambda e: e.slice_below(h0), c_mat)
        if not all(e.is_integral(margin=1) for e in _entries(head)):
            raise SplitFailed("re-split head not in p*O_F[[u]]")
        a_mats.append(mat_add(a0, head))
        c_mats.append(_mat_map(lambda e: e.slice_from(h0), c_mat))

    units = [_det_over_e_pow(a, k) for a, k in zip(a_mats, weights.k)]

    chains = [[] for _ in range(f)]
    hs = [h0] * f
    inv_seeds = [None] * f

    def check_dets(n, steps=None):
        # a slot whose left neighbour was clean kept its matrix and unit,
        # which the previous check already compared
        for i in range(f):
            if steps is not None and steps[i - 1] is None:
                continue
            target = s_mul(SElem.e_pow(ctx, weights.k[i]), units[i])
            if not mat_det(a_mats[i]) == target:
                raise SplitFailed(f"iteration {n}, slot {i}: det != E^k*unit")

    def clean(c):
        return c is None or all(e.is_zero() for e in _entries(c))

    check_dets(0)
    a0_residue = [_mat_map(SElem.residue, m) for m in split.a0]

    iteration = 0
    while not all(clean(c) for c in c_mats):
        if iteration >= max_iter:
            raise NoConvergence(
                f"descent did not terminate in {max_iter} iterations; "
                f"depths {hs}, precision may be exhausted")
        n = iteration + 1
        steps = []
        for i, c in enumerate(c_mats):
            if clean(c):
                steps.append(None)
                continue
            k_i = weights.k[i]
            ell, threshold = _gain_step(hs[i], k_i, p)
            b_i, inv_seeds[i] = height_partner(a_mats[i], units[i], inv_seeds[i])
            w = mat_mul(_mat_map(lambda e: e.div_e_pow(k_i), c), b_i)
            phi_w = _mat_map(lambda e: s_frobenius(e).normalize_d(), w)
            d1 = _mat_map(lambda e: e.slice_below(threshold), phi_w)
            d2 = _mat_map(lambda e: e.slice_from(threshold), phi_w)
            if not all(e.is_integral(margin=1) for e in _entries(d1)):
                raise SplitFailed(f"iteration {n}, slot {i}: head of "
                                  f"phi(C'B) not in p*O_F[[u]]")
            if not all(fil_membership(e, threshold) for e in _entries(d2)):
                raise SplitFailed(f"iteration {n}, slot {i}: tail of "
                                  f"phi(C'B) not in Fil^{threshold}")
            steps.append((d1, d2, threshold))
            # chain j started at slot j and moves one slot per iteration
            chains[(i - iteration) % f].append({
                "step": n, "slot": i, "h": hs[i], "ell": ell,
                "next_h": threshold, "k_slot": k_i,
            })
        # The absorption factor (I + W^(i))^(-1) clears slot i's own
        # remainder; slot i takes in its left neighbour's split instead.
        for i in range(f):
            step = steps[i - 1]
            if step is None:
                # nothing arrives, and slot i's own remainder has moved on
                c_mats[i] = None
                continue
            d1, d2, threshold = step
            factor = mat_add(eye, d1)
            new_a = mat_mul(a_mats[i], factor)
            c_mats[i] = mat_mul(a_mats[i], d2)
            fdet = mat_det(factor)
            if not in_p_pow_s(fdet - SElem.one(ctx, fdet.prec), 1):
                raise SplitFailed(f"iteration {n}: det(I + D1) != 1 mod p")
            units[i] = s_mul(units[i], fdet)
            diff = mat_sub(new_a, a_mats[i])
            if not all(in_p_pow_s(e, 1) for e in _entries(diff)):
                raise SplitFailed(f"iteration {n}: mod-p stability broken")
            a_mats[i], hs[i] = new_a, threshold
        iteration = n
        check_dets(iteration, steps)

    residues = []
    for m in a_mats:
        try:
            residues.append(_mat_map(SElem.residue, m))
        except (NotIntegral, PrecisionExhausted) as exc:
            raise PrecisionExhausted(
                f"descended entry not certifiably integral: {exc}") from exc
    for i, (got, want) in enumerate(zip(residues, a0_residue)):
        if got != want:
            raise SplitFailed(f"slot {i}: descended matrix != prepared part mod p")
    # residue() has just certified each normalize_d()
    a_final = tuple(_mat_map(lambda e: e.normalize_d(), m) for m in a_mats)
    final_prec = min(e.prec for m in a_final for e in _entries(m))
    return DescentCertificate(
        a_final=a_final,
        a_final_mod_p=tuple(residues),
        chains=chains,
        iterations=iteration,
        final_prec=final_prec - ctx.dmax,
    )
