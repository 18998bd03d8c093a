"""Canonical-form arithmetic in S_F = O_F[[u, E^p/p]] and its helpers.

An element is stored in the canonical expansion

    x  =  p^(-d) * sum_j  c_j * E^j / p^floor(j/p),      c_j in O_F,

truncated at E-precision M.  The exponent d >= 0 tracks bounded
denominators (x in p^(-d) S_F); d = 0 is the ring itself.  The
coefficients are stored in the kernel's flat layout, r values per slot
(see `arith`), stop at the last nonzero slot (zero is the empty tuple)
and lie in [0, p^prec), so every loop runs over an element's support,
not over M.

Canonical coefficients multiply by plain convolution with a carry factor
p^(floor((i+j)/p) - floor(i/p) - floor(j/p)) in {1, p}.  `s_sums`
evaluates sums of such products, and `s_mul` is its one-pair case.  Each
operand is rescaled once, c_j -> c_j p^(D - floor(j/p)) with
D = floor((M-1)/p) = `ctx.dmax`, and at r > 1 divided by the largest
power p^s of p common to its rescaled values, so an element of O_F[[u]]
(s >= D) carries no padding digits.  Each product of a sum is then a
Kronecker convolution over the operands' supports, brought to the sum's
common scale by an integer power of p; the products are added packed,
folded and unpacked once, and an exact division or a multiplication by a
power of p finishes each slot.  d and prec follow the rule of `+`.  The
packed layout and the w-fold belong to `arith` (`_conv2_sums`,
`_conv2_raw`, `_pack`, `_unpack`).

The Frobenius phi fixes coefficients, sends u to u^p, and therefore sends
E^j/p^floor(j/p) to p^(j - floor(j/p)) * gamma^j with gamma = phi(E)/p.
Writing gamma = 1 + w with w = u^p/p, phi becomes a finite linear
combination of cached powers of w, which is how it is evaluated here.

Since E = u + p is u mod p, `SElem.residue` reads the image in k_F[[u]]
straight off the slots, with no change of coordinates to O_F[[u]].  It
reads only the slots below a window L, which costs floor((L-1)/p) digits
of precision, not floor((M-1)/p); `descent.read_off_window` gives the L
that the answer needs.

Every power w_e^l of w_e = phi^(e-1)(gamma) - 1 = u^(p^e)/p has a closed
canonical form (`_w_power`), and only finitely many are nonzero at
(M, nwork).  So every unit (1 + w_e)^c, c in Z, is a finite binomial sum
(`_unit_power`): gamma^(-k) = (1 + w_1)^(-k), and the powers of
lambda_b = prod_n phi^(bn)(gamma) with exponents in Z[phi] (PhiExpPoly)
are products of them, with no inverse and no iterated phi.
"""

from __future__ import annotations

from math import comb, gcd
from typing import Iterable, List, Optional, Tuple

from .arith import (
    OFElem,
    PrimeContext,
    USeries,
    _conv2_raw,
    _conv2_sums,
    _of_val_raw,
    _operand,
    _pack,
    _unpack,
)
from .errors import NoConvergence, NotAUnit, NotIntegral, PrecisionExhausted


class PhiExpPoly:
    """Integer polynomial in the formal Frobenius symbol phi.

    Records exponent data like g(phi) in identities g^(f(phi)) =
    prod_j phi^j(g)^(c_j); all operations are exact integer arithmetic.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

    @classmethod
    def const(cls, n: int) -> "PhiExpPoly":
        return cls((n,))

    def __add__(self, other):
        n = max(len(self.c), len(other.c))
        a = list(self.c) + [0] * (n - len(self.c))
        b = list(other.c) + [0] * (n - len(other.c))
        return PhiExpPoly(x + y for x, y in zip(a, b))

    def __sub__(self, other):
        n = max(len(self.c), len(other.c))
        a = list(self.c) + [0] * (n - len(self.c))
        b = list(other.c) + [0] * (n - len(other.c))
        return PhiExpPoly(x - y for x, y in zip(a, b))

    def phi_shifted(self, j: int = 1) -> "PhiExpPoly":
        """Multiply by phi^j (composition with the Frobenius shift)."""
        if not self.c:
            return self
        return PhiExpPoly((0,) * j + self.c)

    def terms(self) -> List[Tuple[int, int]]:
        return [(j, cj) for j, cj in enumerate(self.c) if cj]

    def serial(self) -> list:
        return list(self.c)

    def __repr__(self):
        if not self.c:
            return "PhiExpPoly(0)"
        parts = []
        for j, cj in self.terms():
            if j == 0:
                parts.append(str(cj))
            else:
                e = "phi" if j == 1 else f"phi^{j}"
                parts.append(f"{cj}*{e}" if cj != 1 else e)
        return "PhiExpPoly(" + " + ".join(parts) + ")"


# ---------------------------------------------------------------------------
# SElem
# ---------------------------------------------------------------------------


def _flat_values(ctx, coeffs, mod) -> list:
    """Per-slot entries (an int, an OFElem or r values) as one flat list
    of values mod `mod`, r per slot."""
    r = ctx.r
    pad = (0,) * (r - 1)
    out = []
    for cj in coeffs:
        if isinstance(cj, OFElem):
            cj = cj.c
        elif isinstance(cj, int):
            cj = (cj,) + pad
        out += [v % mod for v in cj]
    if len(out) != r * len(coeffs):
        raise ValueError(f"every slot takes r = {r} values")
    return out


def _trimmed(values, r) -> tuple:
    """The values up to the end of the last nonzero r-value slot, as a
    tuple."""
    n = len(values)
    while n and not values[n - 1]:
        n -= 1
    return tuple(values[:-(-n // r) * r])


class SElem:
    """Element of p^(-d) S_F in canonical E-expansion at precision (M, prec).

    The constructor takes one entry per slot (an int, an OFElem or r
    values).  `c` stores the canonical coefficients c_0 .. c_n flat, r
    values in [0, p^prec) per slot, so c_j is c[j*r:(j+1)*r], with n < M
    the last nonzero slot; the zero element has `c == ()`.  Slots past the
    end of `c` are zero.
    """

    __slots__ = ("ctx", "c", "d", "prec")

    def __init__(self, ctx: PrimeContext, coeffs, d: int = 0, prec: Optional[int] = None):
        self.ctx = ctx
        self.d = d
        self.prec = ctx.nwork if prec is None else prec
        if self.prec < 1:
            raise PrecisionExhausted("SElem constructed at precision < 1")
        if d < 0:
            raise ValueError("denominator exponent must be >= 0")
        self.c = _trimmed(_flat_values(ctx, coeffs[:ctx.m], ctx.ppow(self.prec)), ctx.r)

    @classmethod
    def _reduced(cls, ctx: PrimeContext, coeffs: tuple, d: int, prec: int) -> "SElem":
        """Internal: wrap a trimmed flat tuple already reduced mod p^prec,
        with prec >= 1 and d >= 0; nothing is checked or reduced."""
        out = object.__new__(cls)
        out.ctx, out.c, out.d, out.prec = ctx, coeffs, d, prec
        return out

    @classmethod
    def _flat(cls, ctx: PrimeContext, values, d: int, prec: int) -> "SElem":
        """Internal: at most M*r flat values, reduced mod p^prec and
        trimmed; d >= 0 is not checked."""
        if prec < 1:
            raise PrecisionExhausted("SElem constructed at precision < 1")
        mod = ctx.ppow(prec)
        return cls._reduced(ctx, _trimmed([v % mod for v in values], ctx.r), d, prec)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx, prec=None):
        return cls(ctx, (), 0, prec)

    @classmethod
    def one(cls, ctx, prec=None):
        return cls(ctx, (1,), 0, prec)

    @classmethod
    def from_int(cls, ctx, n, prec=None):
        return cls(ctx, (n,), 0, prec)

    @classmethod
    def from_of(cls, ctx, x: OFElem):
        return cls(ctx, (x,), 0, x.prec)

    # -- basic queries -------------------------------------------------------

    def _slot(self, j: int) -> tuple:
        """c_j as r values; empty past the end of `c`."""
        r = self.ctx.r
        return self.c[j * r:(j + 1) * r]

    def coeff(self, j: int) -> OFElem:
        return OFElem(self.ctx, self._slot(j), self.prec)

    def is_zero(self) -> bool:
        return not self.c

    def slot_val(self, j: int) -> Optional[int]:
        """p-adic valuation of the canonical coefficient c_j (None = >= prec)."""
        return _of_val_raw(self.ctx, self._slot(j), self.prec)

    def slot_val_at_least(self, j: int, t: int) -> bool:
        """True when c_j is indistinguishable from a p^t-multiple."""
        mod = self.ctx.ppow(min(t, self.prec))
        return all(v % mod == 0 for v in self._slot(j))

    def is_unit(self) -> bool:
        return self.d == 0 and self.slot_val(0) == 0

    def is_integral(self, margin: int = 0) -> bool:
        """Membership test for p^margin * O_F[[u]] inside p^(-d) S_F."""
        for j in range(len(self.c) // self.ctx.r):
            if not self.slot_val_at_least(j, j // self.ctx.p + self.d + margin):
                return False
        return True

    # -- arithmetic ----------------------------------------------------------

    def _lift_d(self, d_new: int) -> "SElem":
        """Rescale the numerator so the element is expressed over p^(-d_new)."""
        if d_new == self.d:
            return self
        if d_new < self.d:
            raise ValueError("use normalize_d to lower d")
        t = d_new - self.d
        s = self.ctx.ppow(t)
        # v < p^self.prec, so v * p^t < p^(prec + t): reduced, and nonzero
        # when v is
        return SElem._reduced(self.ctx, tuple([v * s for v in self.c]), d_new,
                              self.prec + t)

    def _plus(self, other, sign):
        """self + sign * other, sign = 1 or -1."""
        if isinstance(other, int):
            other = SElem.from_int(self.ctx, other, self.prec)
        if not isinstance(other, SElem):
            return NotImplemented
        d = max(self.d, other.d)
        a, b = self._lift_d(d), other._lift_d(d)
        prec = min(a.prec, b.prec)
        mod = self.ctx.ppow(prec)
        n = min(len(a.c), len(b.c))
        out = [(x + sign * y) % mod for x, y in zip(a.c, b.c)]
        out += [v % mod for v in a.c[n:]] + [sign * v % mod for v in b.c[n:]]
        return SElem._reduced(self.ctx, _trimmed(out, self.ctx.r), d, prec)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        mod = self.ctx.ppow(self.prec)
        # -v is 0 mod p^prec exactly when v is, so the end slot stays nonzero
        return SElem._reduced(self.ctx, tuple([-v % mod for v in self.c]),
                              self.d, self.prec)

    def __mul__(self, other):
        if isinstance(other, int):
            other = SElem.from_int(self.ctx, other, self.prec)
        elif isinstance(other, OFElem):
            other = SElem.from_of(self.ctx, other)
        if not isinstance(other, SElem):
            return NotImplemented
        return s_mul(self, other)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = SElem.from_int(self.ctx, other, self.prec)
        if not isinstance(other, SElem):
            return NotImplemented
        return (self - other).is_zero()

    def mul_e_pow(self, k: int) -> "SElem":
        """Exact multiplication by E^k, the inverse of `div_e_pow`: slot j
        moves to slot j + k times the carry p^(floor((j+k)/p) - floor(j/p)),
        slots from M on are cut, and d and prec are kept.  For
        prec <= nwork these are the values, d and prec of `s_mul(E^k, self)`,
        E^k as `tests/useries_ref.e_pow` builds it, but no product is taken."""
        ctx, r, p = self.ctx, self.ctx.r, self.ctx.p
        if not k:
            return self
        mod = ctx.ppow(self.prec)
        vals = [0] * (k * r)
        for j in range(min(len(self.c) // r, ctx.m - k)):
            q = ctx.ppow((j + k) // p - j // p)
            vals += [v * q % mod for v in self.c[j * r:(j + 1) * r]]
        return SElem._reduced(ctx, _trimmed(vals, r), self.d, self.prec)

    def div_e_pow(self, k: int) -> "SElem":
        """Exact division by E^k, raising d when the carries demand it.

        Requires the slots below k to vanish at precision.  The undone
        carries p^(floor((j+k)/p) - floor(j/p)) cost their maximum over the
        occupied slots in precision; elements with the full Fil^k profile
        lose only that bounded amount (<= ceil(k/p)).
        """
        ctx, r = self.ctx, self.ctx.r
        if k == 0:
            return self
        for j in range(min(k, len(self.c) // r)):
            if any(self._slot(j)):
                raise NotIntegral(f"slot {j} nonzero; element not divisible by E^{k}")
        # delta_j = floor((j+k)/p) - floor(j/p) is the carry to undo at slot j
        extra = 0
        dmax_used = 0
        n = len(self.c) // r - k
        for j in range(n):
            if any(self._slot(j + k)):
                delta = (j + k) // ctx.p - j // ctx.p
                dmax_used = max(dmax_used, delta)
                if delta:
                    v = self.slot_val(j + k)
                    extra = max(extra, delta - (v if v is not None else self.prec))
        prec = self.prec + extra - dmax_used
        if prec < 1:
            raise PrecisionExhausted(f"division by E^{k} exhausts precision")
        out = []
        for j in range(n):
            x = self._slot(j + k)
            scale = extra - ((j + k) // ctx.p - j // ctx.p)
            if scale >= 0:
                q = ctx.ppow(scale)
                out += [v * q for v in x]
            else:
                pt = ctx.ppow(-scale)
                if any(v % pt for v in x):
                    raise NotIntegral("internal: deficit scan missed a slot")
                out += [v // pt for v in x]
        return SElem._flat(ctx, out, self.d + extra, prec)

    def normalize_d(self) -> "SElem":
        """Divide the numerator by p^d; an honest precision drop.

        Raises NotIntegral when the element genuinely lies outside S_F,
        PrecisionExhausted when the question is undecidable.
        """
        t = self.d
        if t <= 0:
            return self
        if self.prec <= t:
            raise PrecisionExhausted(
                f"cannot certify division by p^{t} at precision {self.prec}")
        pt = self.ctx.ppow(t)
        if any(v % pt for v in self.c):
            raise NotIntegral(f"denominator p^{t} does not divide the numerator")
        # exact quotients of values below p^prec: below p^(prec - t), and
        # nonzero where the values are
        return SElem._reduced(self.ctx, tuple([v // pt for v in self.c]), 0,
                              self.prec - t)

    # -- slicing (canonical slots) -------------------------------------------

    def slice_below(self, j0: int) -> "SElem":
        r = self.ctx.r
        return SElem._reduced(self.ctx, _trimmed(self.c[:j0 * r], r), self.d, self.prec)

    def slice_from(self, j0: int) -> "SElem":
        i0 = j0 * self.ctx.r
        if i0 >= len(self.c):
            return SElem._reduced(self.ctx, (), self.d, self.prec)
        return SElem._reduced(self.ctx, (0,) * i0 + self.c[i0:], self.d, self.prec)

    # -- conversions ----------------------------------------------------------

    def to_useries(self) -> USeries:
        """Convert an integral element to O_F[[u]] coordinates.

        Costs floor((M-1)/p) digits of precision: canonical coefficients
        over-weight high slots by exactly that much.  The pipeline reads
        `residue` instead.  This conversion stays in the package only
        because the benchmark tracer binds it by name (`METHOD_SPANS` in
        `perfbench/tracing.py`); once the benchmark stops binding it, it
        moves to the tests.
        """
        x = self.normalize_d()
        ctx, p, r = self.ctx, self.ctx.p, self.ctx.r
        dmax = ctx.dmax
        if x.prec <= dmax:
            raise PrecisionExhausted("precision too low for u-coordinates")
        prec = x.prec - dmax
        bigmod = ctx.ppow(x.prec + dmax)
        pd = ctx.ppow(dmax)
        n = len(x.c) // r
        out = []
        for l in range(n):
            acc = [0] * r
            for j in range(l, n):
                # term binom(j,l) p^(j-l) c_j / p^floor(j/p); common den p^dmax.
                # j - l - floor(j/p) never decreases in j, so once the term
                # is 0 mod p^(x.prec + dmax) every later one is too
                if j - l - j // p >= x.prec:
                    break
                s = comb(j, l) * ctx.ppow(j - l + dmax - j // p)
                acc = [a + s * v for a, v in zip(acc, x._slot(j))]
            acc = [v % bigmod for v in acc]
            if any(v % pd for v in acc):
                raise NotIntegral("element is not in O_F[[u]]")
            out += [v // pd for v in acc]
        return USeries(ctx, out, prec)

    def residue(self, window: int) -> USeries:
        """Mod-p image in k_F[[u]] of the slots below `window`, read off the
        slots; the record holds zeros from slot `window` on.

        With E = u + p, u-coordinate l of an integral x is
        sum_(j>=l) binom(j, l) p^(j-l) c_j / p^floor(j/p), and every j > l
        term is a multiple of p^(j-l); so slot l of the residue is
        c_l / p^floor(l/p) mod p.  Only slots l < window are read: they
        need precision above floor((window-1)/p), else PrecisionExhausted,
        and must be integral, else NotIntegral.  On those slots the values
        are those of `to_useries()` reduced mod p, without its change of
        coordinates.  The pipeline passes `descent.read_off_window`.
        """
        x = self.normalize_d()
        ctx, p, r = self.ctx, self.ctx.p, self.ctx.r
        if x.prec <= (window - 1) // p:
            raise PrecisionExhausted("precision too low for u-coordinates "
                                     f"below u^{window}")
        head = x.slice_below(window)
        if not head.is_integral():
            raise NotIntegral("element is not in O_F[[u]]")
        return USeries(ctx, [v // ctx.ppow(i // r // p) for i, v in enumerate(head.c)], 1)

    def __repr__(self):
        nz = [(j, list(self._slot(j))) for j in range(len(self.c) // self.ctx.r)
              if any(self._slot(j))]
        body = ", ".join(f"E^{j}:{x}" for j, x in nz[:5])
        more = "..." if len(nz) > 5 else ""
        return f"SElem({body}{more}; d={self.d}, prec={self.prec})"


# ---------------------------------------------------------------------------
# Multiplication
# ---------------------------------------------------------------------------


def s_sums(sums) -> List[SElem]:
    """For each sum, a sequence of pairs (x, y) of one context, the
    element sum of x y: values, d and prec as `s_mul` of each pair added
    with `+`, from one packed sum of products folded and unpacked once.

    (E^a/p^floor(a/p)) (E^b/p^floor(b/p)) = p^car E^(a+b)/p^floor((a+b)/p)
    with car = floor((a+b)/p) - floor(a/p) - floor(b/p) >= 0, so slot k of
    a product is the integer T_k = sum_(i+j=k) c_i c'_j p^car.

    Each distinct operand is rescaled once, c_j -> c_j p^(D - floor(j/p))
    with D = `ctx.dmax`, and divided by p^s, a power of p that divides all
    its rescaled values (`_rescaled`; the largest at r > 1, where an
    element of O_F[[u]] has s >= D and carries no padding digits).  What
    follows holds for any such s.  With s_x, s_y for the two operands,
    every term of slot k of the plain convolution of the rescaled operands is
    c_i c'_j p^(2D - floor(i/p) - floor(j/p) - s_x - s_y), so that slot is
    conv_k = T_k p^(2D - floor(k/p) - s_x - s_y).

    `+` follows `_plus`: the sum has d = max d_i, with d_i = d_x + d_y,
    and prec P = min(prec_i + d - d_i), with prec_i = min(prec_x, prec_y);
    the product i enters as T_i p^(d - d_i), known modulo p^P.  So slot k
    of the sum is S_k = sum_i T_(i,k) p^(d - d_i) = Q_k p^(e_k), with
    g_i = s_x + s_y - 2D + d - d_i, beta = min_i g_i, e_k = beta + floor(k/p)
    and Q_k = sum_i conv_(i,k) p^(g_i - beta): the products are brought to
    the sum's common scale p^beta by the integer multipliers p^(g_i - beta)
    and shifted to their first slot.  A product with g_i >= P is 0 mod p^P
    and drops out, as do zero products, but each pair counts towards d and
    P.

    The kernel works mod p^K, K = P - beta, and reduces the operands of
    product i mod p^(K - (g_i - beta)): p^(g_i - beta) times the product is
    then right mod p^K, and these moduli divide one another, so each
    operand is reduced once, modulo the largest.  When e_k >= 0, Q_k p^(e_k)
    is right mod p^(K + e_k) = p^(P + floor(k/p)), a multiple of p^P.
    When e_k < 0, p^(-e_k) divides the exact Q_k, since S_k is an integer;
    it divides p^K too, as -e_k <= -beta < K, so it also divides the
    kernel's value, and the quotient is right mod p^(K + e_k), again
    p^(P + floor(k/p)).  The kernel folds the sum mod the residue
    polynomial; the fold is linear over Z with integer rows, so the folded
    values keep that divisibility.

    Only the supports count: leading zero slots (which `slice_from` keeps)
    are skipped, and an operand's slots at or above M minus its partners'
    least first nonzero slot reach no product slot below M.

    A batch is planned in one pass: one record per distinct operand (first
    slot, partners' reach, rescaled values and s, and the largest modulus
    exponent P - g_i of its products, by which `arith._operand` reduces it
    once), and each product as the indices of its two records, so
    `_conv2_sums` keys nothing on an operand and computes no modulus.  One
    pair (`s_mul`) builds no plan and calls `_conv2_raw`, the one-term plan.
    """
    ctx = sums[0][0][0].ctx
    r, m, two_d = ctx.r, ctx.m, 2 * ctx.dmax
    if len(sums) == 1 and len(sums[0]) == 1:
        # one pair (`s_mul`): nothing is shared, beta = g, so the multiplier
        # is 1 and the shift 0, and the kernel is `_conv2_raw`
        (x, y), = sums[0]
        d, prec = x.d + y.d, min(x.prec, y.prec)
        vals = ()
        if x.c and y.c:
            lx, ly = _first_nonzero(x.c) // r, _first_nonzero(y.c) // r
            if lx + ly < m:
                a, sx = _rescaled(ctx, x.c, lx, m - ly)
                b, sy = _rescaled(ctx, y.c, ly, m - lx)
                beta = sx + sy - two_d
                if beta < prec:
                    raw = _conv2_raw(ctx, a, b, ctx.ppow(prec - beta), m - lx - ly)
                    vals = _trimmed(_descaled(ctx, raw, beta, lx + ly, prec), r)
        return [SElem._reduced(ctx, vals, d, prec)]
    # a record: [first slot, partners' least first slot, element], then
    # [values, s] in place of the element, then the modulus exponent
    index, recs, plans = {}, [], []
    for terms in sums:
        d = max([x.d + y.d for x, y in terms])
        prec = d + min([min(x.prec, y.prec) - x.d - y.d for x, y in terms])
        pairs = []
        for x, y in terms:
            if x.c and y.c:
                i = index.get(id(x))
                if i is None:
                    i = index[id(x)] = len(recs)
                    recs.append([_first_nonzero(x.c) // r, m, x])
                j = index.get(id(y))
                if j is None:
                    j = index[id(y)] = len(recs)
                    recs.append([_first_nonzero(y.c) // r, m, y])
                a, b = recs[i], recs[j]
                a[1], b[1] = min(a[1], b[0]), min(b[1], a[0])
                pairs.append((i, j, d - x.d - y.d))
        plans.append((d, prec, pairs))
    for rec in recs:
        lo, reach, x = rec
        # an operand past its partners' reach makes no slot below M
        rec[2:] = _rescaled(ctx, x.c, lo, m - reach) if lo + reach < m else (None, 0)
        rec.append(0)

    heads, jobs = [], []
    for d, prec, pairs in plans:
        live, beta, lo = [], prec, m
        for i, j, dd in pairs:
            a, b = recs[i], recs[j]
            k = a[0] + b[0]
            g = a[3] + b[3] - two_d + dd
            if k < m and g < prec:
                a[4], b[4] = max(a[4], prec - g), max(b[4], prec - g)
                beta, lo = min(beta, g), min(lo, k)
                live.append((i, j, k, g))
        if live:
            jobs.append(([(i, j, ctx.ppow(g - beta), k - lo) for i, j, k, g in live],
                         ctx.ppow(prec - beta), m - lo))
        heads.append((d, prec, beta if live else None, lo))
    ops = [_operand(vals, ctx.ppow(e)) if e else None for _, _, vals, _, e in recs]
    raws = iter(_conv2_sums(ctx, ops, jobs))
    out = []
    for d, prec, beta, lo in heads:
        vals = () if beta is None else _trimmed(_descaled(ctx, next(raws), beta, lo, prec), r)
        out.append(SElem._reduced(ctx, vals, d, prec))
    return out


def s_mul(x: SElem, y: SElem) -> SElem:
    """Canonical-form product by one Kronecker convolution: the one-pair
    case of `s_sums`, whose docstring has the exactness argument.  With one
    pair, d = d_x + d_y, prec = min(prec_x, prec_y) and
    beta = s_x + s_y - 2D, so the kernel works mod p^(prec - beta) and slot
    k is divided exactly by, or multiplied with, p^|beta + floor(k/p)|."""
    return s_sums((((x, y),),))[0]


def _first_nonzero(c) -> int:
    """Index of the first nonzero value of a nonzero trimmed tuple."""
    i = 0
    while not c[i]:
        i += 1
    return i


def _rescaled(ctx: PrimeContext, c, lo: int, hi: int) -> tuple:
    """The values of slots lo..hi-1 of c times p^(D - floor(j/p)), divided
    by p^s, and s.  Slot lo is nonzero.  With t = floor(j/p) for the last
    slot j in range, p^(D - t) divides every such value, so slot j is only
    multiplied by p^(t - floor(j/p)), and s = D - t + e, where p^e is the
    largest power of p dividing the products at r > 1, and e = 0 at r = 1:
    there the gcd and the division pass cost more than they save."""
    r, p = ctx.r, ctx.p
    end = min(hi * r, len(c))
    t = (end // r - 1) // p
    vals = [v * u for v, u in zip(c[lo * r:end], _scales(ctx, -t)[lo * r:end])]
    if r == 1:
        return vals, ctx.dmax - t
    g, e = gcd(*vals), 0
    while g % p == 0:
        g //= p
        e += 1
    if e:
        q = ctx.ppow(e)
        vals = [v // q for v in vals]
    return vals, ctx.dmax - t + e


def _descaled(ctx: PrimeContext, raw, base: int, lo: int, prec: int) -> list:
    """The flat values of slots lo.. of a product or sum at scale p^base:
    slot k of `raw` times p^(base + floor(k/p)), exactly divided where the
    exponent is negative, mod p^prec, after lo * r zeros."""
    r, mod = ctx.r, ctx.ppow(prec)
    # the exponent is negative exactly for the slots k < p * (-base)
    split = min(max(ctx.p * -base - lo, 0) * r, len(raw))
    scale = _scales(ctx, base)[lo * r:]
    vals = [0] * (lo * r) + [v // q % mod for v, q in zip(raw[:split], scale)]
    vals += [v * q % mod for v, q in zip(raw[split:], scale[split:])]
    return vals


def _scales(ctx: PrimeContext, base: int) -> tuple:
    """p^|base + floor(k/p)| for the M*r values of slots k < M.  At
    base = -D these are the rescale factors p^(D - floor(k/p)) of
    `s_sums`; otherwise the exact divisor (exponent < 0) or the multiplier
    that `s_sums` applies to slot k of a packed sum at scale p^base."""
    return ctx.cache(("scale", base), lambda: tuple(
        ctx.ppow(abs(base + i // ctx.r // ctx.p)) for i in range(ctx.m * ctx.r)))


# ---------------------------------------------------------------------------
# w-powers, the units (1 + w_e)^c and the Frobenius
# ---------------------------------------------------------------------------


def _w_power(ctx: PrimeContext, e: int, l: int) -> SElem:
    """w_e^l at (M, nwork), where w_e = phi^(e-1)(gamma) - 1 = u^(p^e)/p;
    `_w_powers` caches them and `_unit_power` sums them.

    With n = p^e l and u = E - p, the canonical slot i of w_e^l holds
    binom(n, i) (-p)^(n-i) p^(floor(i/p) - l), for i <= n.  Its exponent
    t(i) = n - i + floor(i/p) - l is never negative and never increases
    with i, since each step up in i lowers n - i by 1 and raises
    floor(i/p) by at most 1.  So the slots run from the top, min(n, M-1),
    downwards: binom(n, i-1) = binom(n, i) i / (n - i + 1) exactly, the
    sign flips at each step, and the walk stops at the first slot with
    t(i) >= nwork, below which every slot is 0 mod p^nwork.
    """
    p, r, nwork = ctx.p, ctx.r, ctx.nwork
    mod = ctx.ppow(nwork)
    n = p ** e * l
    top = i = min(n, ctx.m - 1)
    b = comb(n, i)
    if (n - i) & 1:
        b = -b
    t = n - i + i // p - l
    vals = []
    while t < nwork:
        vals.append(b * ctx.ppow(t) % mod)
        if not i:
            break
        b = -b * i // (n - i + 1)
        i -= 1
        t = n - i + i // p - l
    # vals holds slots top, top-1, ... down to the lowest slot below nwork
    flat = [0] * ((top + 1) * r)
    flat[(top + 1 - len(vals)) * r::r] = vals[::-1]
    return SElem._reduced(ctx, _trimmed(flat, r), 0, nwork)


def _w_powers(ctx: PrimeContext, e: int) -> Tuple[SElem, ...]:
    """w_e^0 = 1, w_e, w_e^2, ... until they vanish at (M, nwork); the
    truncation's kernel is an ideal, so every higher power does too."""
    def build():
        powers = [SElem.one(ctx)]
        while True:
            w = _w_power(ctx, e, len(powers))
            if w.is_zero():
                return tuple(powers)
            powers.append(w)

    return ctx.cache(("wpow", e), build)


def _unit_power(ctx: PrimeContext, e: int, c: int) -> SElem:
    """(1 + w_e)^c = sum_l binom(c, l) w_e^l at (M, nwork) for any integer
    c, cached per context.  w_e is nilpotent at (M, nwork), so the sum over
    `_w_powers` is exact; at c < 0, binom(c, l) = c (c-1) ... (c-l+1) / l!
    is still an integer and the sum is the inverse of (1 + w_e)^(-c)."""
    def build():
        acc = [0] * (ctx.m * ctx.r)
        coef = 1
        for l, w in enumerate(_w_powers(ctx, e)):
            if not coef:
                break
            acc[:len(w.c)] = [a + coef * v for a, v in zip(acc, w.c)]
            coef = coef * (c - l) // (l + 1)
        return SElem._flat(ctx, acc, 0, ctx.nwork)

    return ctx.cache(("unit", e, c), build)


def _w_end(ctx: PrimeContext) -> int:
    """The least e >= 1 with w_e = 0 at (M, nwork).  Every later w_e is 0
    too: for 0 < i <= p^e, slot i of w_e has valuation
    e - v(i) + p^e - i + floor(i/p) - 1, which grows with e and is at least
    floor(i/p) - 1, and slot 0 has p^e - 1."""
    e = 1
    while len(_w_powers(ctx, e)) > 1:
        e += 1
    return e


def _packed_w_powers(ctx: PrimeContext, width: int) -> tuple:
    """The powers w^l of `_w_powers(ctx, 1)` as integers: slot j of w^l in the
    `width`-byte digit j*r, so that scaling by an integer with r such
    digits puts coordinate i of slot j at digit j*r + i.  Also the longest
    power's slot count."""
    def build():
        powers = _w_powers(ctx, 1)
        packed = tuple(_pack(w.c[::ctx.r], width, 1, ctx.r - 1) for w in powers)
        return packed, max(len(w.c) for w in powers) // ctx.r

    return ctx.cache(("wpack", width), build)


def _frobenius_scales(ctx: PrimeContext) -> tuple:
    """p^(j - floor(j/p)) for the M*r values of slots j < M: the factor
    that takes c_j to a_j in `s_frobenius`."""
    return ctx.cache(("frobscale",), lambda: tuple(
        ctx.ppow(i // ctx.r - i // ctx.r // ctx.p) for i in range(ctx.m * ctx.r)))


def s_frobenius(x: SElem) -> SElem:
    """phi on S_F: phi(E^j/p^floor(j/p)) = p^(j - floor(j/p)) gamma^j.

    Contract: x is known modulo Fil^M, and the slots j >= M that the
    truncation dropped would add p^(j - floor(j/p)) gamma^j, a multiple of
    p^(M - floor(M/p)).  So the result has precision
    min(x.prec, M - floor(M/p)), keeps x's d, and every digit it claims is
    exact.  (An x known only mod Fil^J, J < M, gives an image known mod
    p^(J - floor(J/p)); `preflight_precision` keeps nwork within that.)

    With a_j = c_j p^(j - floor(j/p)) and gamma = 1 + w,
    phi(x) = a(1 + w) = sum_l T_l w^l, where T_l is the coefficient of X^l
    in a(X + 1).  One Horner pass computes a(X + 1) on integers packed
    with r digits per power of X, and phi(x) is the sum of the packed
    powers of w, cached per context, scaled by the packed T_l.
    """
    ctx, p, r = x.ctx, x.ctx.p, x.ctx.r
    prec = min(x.prec, ctx.m - ctx.m // p)
    mod = ctx.ppow(prec)
    # a_j = 0 mod p^prec from the first j with j - floor(j/p) >= prec on
    n = len(x.c) // r
    while n and (n - 1) - (n - 1) // p >= prec:
        n -= 1
    if not n:
        return SElem._reduced(ctx, (), x.d, prec)
    L = len(_w_powers(ctx, 1))
    # every Horner partial of T_l is at most (mod - 1) binom(n, l + 1)
    digit = (((mod - 1) * comb(n, max(1, min(L, n // 2)))).bit_length() + 7) // 8
    shift = 8 * digit * r
    mask, low = (1 << shift * L) - 1, (1 << shift) - 1
    # the a_j, packed once: a_j is digits j*r .. j*r + r - 1
    a = _pack([v * q % mod for v, q in zip(x.c[:n * r], _frobenius_scales(ctx))], digit)
    acc = 0
    for j in range(n - 1, -1, -1):
        acc = ((acc + (acc << shift)) & mask) + ((a >> shift * j) & low)
    T = [t % mod for t in _unpack(acc, digit, r * L)]
    # digit j*r + i of the sum is sum_l T_l[i] (slot j of w^l): L terms,
    # each below top^2, as T_l < p^prec and w^l is stored mod p^nwork
    top = ctx.ppow(max(prec, ctx.nwork))
    width = ((L * (top - 1) ** 2).bit_length() + 7) // 8
    packed, wlen = _packed_w_powers(ctx, width)
    total = 0
    for l, wl in enumerate(packed):
        tl = T[l * r:(l + 1) * r]
        if any(tl):
            total += wl * _pack(tl, width)
    vals = [v % mod for v in _unpack(total, width, r * wlen)]
    return SElem._reduced(ctx, _trimmed(vals, r), x.d, prec)


def s_invert(x: SElem, seed: Optional[SElem] = None) -> SElem:
    """Inverse of a unit of S_F by Newton iteration (multiplications only).

    `seed` warm-starts the iteration (useful when inverting a slowly
    changing unit repeatedly, as the descent loop does).  The seed is only
    a starting guess: it is taken at x's precision, so the result never
    claims more digits than x carries.  Newton's step squares 1 - x*y, so
    it converges exactly when slot 0 of x*y is 1 mod p; other seeds are
    ignored, and the iteration starts from x's constant-term inverse.

    Each step takes err = 1 - x y and updates y <- y (1 + err).  Products
    are exact in the ring S_F/(Fil^M, p^prec), so there the new y has
    x y = (1 - err)(1 + err) = 1 - err^2.  So the loop returns the new y,
    which a confirming product would accept, when err^2 is certified to
    vanish: every value of err divisible by p^v with 2v >= prec (err^2 in
    p^prec S_F), or err's first nonzero slot a with 2a >= M (err^2 in Fil^M).
    """
    try:
        x = x.normalize_d()
    except (NotIntegral, PrecisionExhausted) as exc:
        raise NotAUnit("s_invert: element is not a unit of S_F") from exc
    if x.slot_val(0) != 0:
        raise NotAUnit("s_invert: element is not a unit of S_F")
    ctx = x.ctx
    x0 = x.coeff(0)
    if seed is not None and seed.d == 0 and \
            (x0 * seed.coeff(0)).residue() == OFElem.one(ctx).residue():
        y = SElem._flat(ctx, seed.c, 0, x.prec)
    else:
        y = SElem.from_of(ctx, x0.unit_inverse())
    one = SElem.one(ctx, x.prec)
    half = ctx.ppow(-(-x.prec // 2))
    for _ in range(ctx.m.bit_length() + x.prec.bit_length() + 4):
        err = one - s_mul(x, y)
        if not err.c:
            return y
        y = s_mul(y, one + err)
        if 2 * (_first_nonzero(err.c) // ctx.r) >= ctx.m or all(v % half == 0 for v in err.c):
            return y
    raise NoConvergence("s_invert: Newton iteration did not converge")


# ---------------------------------------------------------------------------
# lambda_b and phi-polynomial powers
# ---------------------------------------------------------------------------


def lambda_factor_count(ctx: PrimeContext, b: int) -> int:
    """The number of factors phi^(bn)(gamma) = 1 + w_(bn+1) of
    lambda_b = prod_(n>=0) phi^(bn)(gamma) that are not 1 at (M, nwork)."""
    return len(range(1, _w_end(ctx), b))


def lambda_power(e: PhiExpPoly, b: int, ctx: PrimeContext) -> SElem:
    """lambda_b^(e(phi)) = prod_j phi^j(lambda_b)^(e_j) = prod_m (1 + w_m)^(c_m)
    with c_m = sum_n e_(m-1-bn), as phi^j(lambda_b) = prod_n (1 + w_(bn+j+1)),
    over the m with w_m != 0; always a unit.  Cached per context."""
    def build():
        out = None
        for m in range(1, _w_end(ctx)):
            cm = sum(e.c[j] for j in range(m - 1, -1, -b) if j < len(e.c))
            if cm:
                unit = _unit_power(ctx, m, cm)
                out = unit if out is None else s_mul(out, unit)
        return SElem.one(ctx) if out is None else out

    return ctx.cache(("lambda_power", b, e.c), build)


# ---------------------------------------------------------------------------
# Filtration and ideal membership
# ---------------------------------------------------------------------------


def fil_membership(x: SElem, j: int) -> bool:
    """Membership in Fil^j S_F = E^j S_F, decided on the visible window.

    Canonical criterion for x = p^(-d) sum c_i E^i: c_i = 0 for i < j and
    val(c_i) >= floor(i/p) - floor((i-j)/p) + d for i >= j.
    """
    p, r = x.ctx.p, x.ctx.r
    if any(x.c[:j * r]):
        return False
    for i in range(j, len(x.c) // r):
        need = i // p - (i - j) // p + x.d
        if not x.slot_val_at_least(i, need):
            return False
    return True


def in_p_pow_s(x: SElem, t: int) -> bool:
    """Membership in p^t S_F: every numerator value divisible by p^(t + d).

    For unramified F this is also membership in the ideal I_t.
    """
    mod = x.ctx.ppow(min(t + x.d, x.prec))
    return all(v % mod == 0 for v in x.c)
