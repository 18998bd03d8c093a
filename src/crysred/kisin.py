"""Construction of the semilinear Frobenius matrices over S_F.

From a Type-normal lattice tuple with weights k the partial Frobenius
matrices are

    Type I :  [[0, E^(k_i) a1], [gamma^(-k_(i-1)), a2]]
    Type II:  [[gamma^(-k_(i-1)) E^(k_i) a1, 0], [gamma^(-k_(i-1)) a2, 1]]

and a diagonal phi-twisted base change Diag(lambda_b^g, lambda_b^h) makes
every determinant exactly +-E^(k_i) a1^(i).  The exponents g, h solve a
recursion around the slot permutation; they are accumulated symbolically
in Z[phi] and materialized once, which avoids precision loss from repeated
unit inversions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .arith import OFElem
from .errors import Degenerate, DetCheckFailed
from .lattices import TypeTag, WeightData
from .sring import (
    PhiExpPoly,
    SElem,
    _lambda_data,
    _s_int_pow,
    gamma,
    lambda_power,
    s_invert,
    s_mul,
)

Mat2S = Tuple[Tuple[SElem, SElem], Tuple[SElem, SElem]]


@dataclass(frozen=True)
class KisinFrobenius:
    """Determinant-normalized partial Frobenius data over S_F."""

    amat: Tuple[Mat2S, ...]          # the normalized matrices
    heights: WeightData
    b: int                           # lambda level: f or 2f
    expo: Tuple[Tuple[PhiExpPoly, PhiExpPoly], ...]   # (g^(i), h^(i))
    tags: Tuple[TypeTag, ...]
    a1: Tuple[OFElem, ...]
    a2: Tuple[OFElem, ...]
    lam_e: Tuple[SElem, ...]         # lambda_b^(h-g) per slot
    anchors: Tuple[Tuple[int, int], ...]
    lambda_nstar: int

    @property
    def f(self):
        return self.heights.f

    def exponent(self, i: int) -> PhiExpPoly:
        g, h = self.expo[i]
        return h - g

    def serial(self):
        return {
            "b": self.b,
            "heights": self.heights.serial(),
            "tags": [t.serial() for t in self.tags],
            "g": [g.serial() for g, _ in self.expo],
            "h": [h.serial() for _, h in self.expo],
            "e": [self.exponent(i).serial() for i in range(self.f)],
            "det_signs": [t.det_sign for t in self.tags],
            "anchors": [list(a) for a in self.anchors],
            "lambda_truncation_index": self.lambda_nstar,
        }


def _extract_params(normalized, tags):
    """(a1, a2) of each Type-normal matrix, as its tag reads them;
    Degenerate unless every a1 is a unit and every Type II slot is II_1."""
    a1s, a2s = [], []
    for i, (mat, tag) in enumerate(zip(normalized, tags)):
        a1, a2 = tag.params(mat)
        if tag.kind == "II" and not (mat[1][1] == 1):
            raise Degenerate(
                f"slot {i}: Type II_alpha with alpha != 1 is outside the "
                "irreducible pipeline (all-II tuples are reducible)")
        if not a1.is_unit():
            raise Degenerate(f"slot {i}: a1 must be a unit")
        a1s.append(a1)
        a2s.append(a2)
    return tuple(a1s), tuple(a2s)


def build_kisin_frobenius(normalized, tags, weights: WeightData):
    """The raw partial Frobenius matrices over S_F (spec's first stage)."""
    ctx = normalized[0][0][0].ctx
    a1s, a2s = _extract_params(normalized, tags)

    def ginv(k):
        gam_inv = ctx.cache(("gamma_inv",), lambda: s_invert(gamma(ctx)))
        return ctx.cache(("gamma_inv_pow", k), lambda: _s_int_pow(gam_inv, k))

    out = []
    zero, one = SElem.zero(ctx), SElem.one(ctx)
    for i, tag in enumerate(tags):
        g = ginv(weights.k_prev(i))
        e_a1 = SElem.e_pow(ctx, weights.k[i]) * a1s[i]
        # gamma^(-k_(i-1)) scales the first column: in Type I that is the 1
        if tag.kind == "I":
            out.append(tag.form(e_a1, SElem.from_of(ctx, a2s[i]), zero, g))
        else:
            out.append(tag.form(s_mul(g, e_a1), g * a2s[i], zero, one))
    return tuple(out)


def solve_exponent_system(tags, weights: WeightData):
    """Solve the diagonal base-change recursion symbolically.

    Nodes (i, comp) with comp in {1, 2} form a permutation graph: a Type I
    slot swaps components, a Type II slot keeps them, and each step into
    slot i picks up gamma^(k_(i-1)) on the component that the weight
    multiplies.  Walking each cycle from its lexicographically smallest
    node (the recorded anchor) yields lambda-exponents g, h in Z[phi].

    Returns (b, ((g^(0), h^(0)), ...), anchors).
    """
    f = weights.f
    n_type_i = sum(1 for t in tags if t.kind == "I")
    b = f if n_type_i % 2 == 0 else 2 * f

    def successor(node):
        i, comp = node
        nxt = (i + 1) % f
        # the weight multiplies the first column of slot nxt, so the step
        # out of component 1 carries it, whichever component it enters
        new_comp = 3 - comp if tags[nxt].kind == "I" else comp
        wgt = weights.k_prev(nxt) if comp == 1 else 0
        return (nxt, new_comp), wgt

    nodes = [(i, comp) for i in range(f) for comp in (1, 2)]
    expo = {}
    anchors = []
    seen = set()
    for node in sorted(nodes):
        if node in seen:
            continue
        # trace the cycle containing `node` (node is its smallest element
        # because iteration is in sorted order)
        anchors.append(node)
        path = [node]
        polys = [PhiExpPoly()]
        cur = node
        poly = PhiExpPoly()
        while True:
            nxt, wgt = successor(cur)
            poly = poly.phi_shifted(1) + PhiExpPoly.const(wgt)
            if nxt == node:
                break
            path.append(nxt)
            polys.append(poly)
            cur = nxt
        cycle_len = len(path)
        if cycle_len != b:
            raise DetCheckFailed(
                f"cycle length {cycle_len} != b = {b}; parity law violated")
        q = poly  # x_anchor^(phi^b - 1) = gamma^(-q)
        for dist, (n, p_n) in enumerate(zip(path, polys)):
            if dist == 0:
                expo[n] = q
            else:
                # x_n = gamma^(P_n) phi^dist(x_anchor); gamma = lambda^(1-phi^b)
                expo[n] = (p_n - p_n.phi_shifted(b)) + q.phi_shifted(dist)
            seen.add(n)
    pairs = tuple((expo[(i, 1)], expo[(i, 2)]) for i in range(f))
    return b, pairs, tuple(anchors)


def det_normalize(raw, tags, weights: WeightData,
                  normalized_lattice) -> KisinFrobenius:
    """Apply the diagonal base change Diag(lambda^g, lambda^h).

    The output matrices are the closed forms

        Type I :  [[0, E^(k_i) a1], [1, a2 lambda_b^(h-g)]]
        Type II:  [[E^(k_i) a1, 0], [a2 lambda_b^(h-g), 1]]

    The full twisted conjugation X^(i) A^(i) phi(X^(i-1))^(-1) is
    evaluated through lambda-power identities and compared entrywise;
    disagreement raises DetCheckFailed (the identity is exact, so failure
    indicates an arithmetic bug).
    Their determinant is +-E^(k_i) a1^(i) by shape alone, so it is not
    re-checked; the conjugation check is what guards the closed forms.
    """
    ctx = raw[0][0][0].ctx
    f = weights.f
    a1s, a2s = _extract_params(normalized_lattice, tags)
    b, pairs, anchors = solve_exponent_system(tags, weights)

    lam_es, mats = [], []
    zero, one = SElem.zero(ctx), SElem.one(ctx)
    for i in range(f):
        g, h = pairs[i]
        lam_e = lambda_power(h - g, b, ctx)
        lam_es.append(lam_e)
        e_a1 = SElem.e_pow(ctx, weights.k[i]) * a1s[i]
        low = s_mul(lam_e, SElem.from_of(ctx, a2s[i]))
        mats.append(tags[i].form(e_a1, low, zero, one))

    _verify_conjugation(raw, mats, pairs, b, weights)

    return KisinFrobenius(
        amat=tuple(mats),
        heights=weights,
        b=b,
        expo=pairs,
        tags=tuple(tags),
        a1=a1s,
        a2=a2s,
        lam_e=tuple(lam_es),
        anchors=anchors,
        lambda_nstar=_lambda_data(ctx, b)[1],
    )


def _verify_conjugation(raw, target, pairs, b, weights):
    """Entrywise check of X *_phi raw == target with X = Diag(l^g, l^h)."""
    ctx = raw[0][0][0].ctx
    f = weights.f
    for i in range(f):
        gi, hi = pairs[i]
        gp, hp = pairs[(i - 1) % f]
        row_exp = (gi, hi)
        col_exp = (gp, hp)
        for a in range(2):
            for c in range(2):
                entry = raw[i][a][c]
                if entry.is_zero():
                    if not target[i][a][c].is_zero():
                        raise DetCheckFailed(f"slot {i} entry ({a},{c}): zero mismatch")
                    continue
                # unit factor lambda^(row_a - phi*col_c)
                u = lambda_power(row_exp[a] - col_exp[c].phi_shifted(1), b, ctx)
                got = s_mul(entry, u)
                if not (got == target[i][a][c]):
                    raise DetCheckFailed(
                        f"slot {i} entry ({a},{c}): twisted conjugation mismatch")
