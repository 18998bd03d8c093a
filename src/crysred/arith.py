"""Exact truncated arithmetic in unramified p-adic coefficient rings.

O_F, the unramified extension of Z_p of degree r, is represented as
Z[w]/(g(w), p^prec) for a fixed monic degree-r lift g of an irreducible
polynomial over F_p; the lift is chosen deterministically per context and
recorded in reports.  `USeries` records a series of O_F[[u]] truncated at
u^M, or at precision 1 its residue image in k_F[[u]]; it has no arithmetic,
and S_F (`sring`) is the only series ring.

Precision is absolute and per element: an element stored at precision q is
known modulo p^q.  Binary operations take the minimum of the operand
precisions; division by p lowers precision.  Contexts carry a working
precision `nwork` = N + guard: the guard pays for the digits the divisions
downstream spend, and N for what the reads of the run need beyond it.

All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul
from struct import Struct
from typing import Optional, Sequence

from .errors import NotAUnit, PrecisionExhausted

# ---------------------------------------------------------------------------
# F_p[x] helpers (residue polynomial search)
# ---------------------------------------------------------------------------


def _fp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mul(a, b, p):
    """Product of two coefficient lists over F_p."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _fp_sub(a, b, p):
    """a - b over F_p, trimmed."""
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _fp_trim([(x - y) % p for x, y in zip(a, b)])


def _fp_mulmod(a, b, g, p):
    # a, b, g: coefficient lists over F_p, g monic
    return _fp_divmod(_fp_mul(a, b, p), g, p)[1]


def _fp_divmod(a, g, p):
    a = list(a)
    dg = len(g) - 1
    q = [0] * max(len(a) - dg, 0)
    inv_lead = pow(g[-1], -1, p)
    for i in range(len(a) - 1, dg - 1, -1):
        c = a[i] % p
        if c:
            c = (c * inv_lead) % p
            q[i - dg] = c
            for j, gj in enumerate(g):
                a[i - dg + j] = (a[i - dg + j] - c * gj) % p
    return _fp_trim(q), _fp_trim(a[:dg])


def _fp_powmod(base, e, g, p):
    result = [1]
    acc = _fp_divmod(base, g, p)[1]
    while e:
        if e & 1:
            result = _fp_mulmod(result, acc, g, p)
        acc = _fp_mulmod(acc, acc, g, p)
        e >>= 1
    return result


def _fp_gcd(a, b, p):
    a, b = _fp_trim(list(a)), _fp_trim(list(b))
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    return a


def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(g, p):
    """Rabin's test: x^(p^r) = x mod g, and x^(p^(r/q)) - x is prime to g
    for every prime q dividing r = deg g."""
    r = len(g) - 1
    x = [0, 1]
    if _fp_sub(_fp_powmod(x, p ** r, g, p), x, p):
        return False
    for q in _prime_factors(r):
        if len(_fp_gcd(_fp_sub(_fp_powmod(x, p ** (r // q), g, p), x, p), g, p)) > 1:
            return False
    return True


def find_residue_poly(p: int, r: int) -> tuple:
    """Deterministically pick the monic degree-r lift used for O_F.

    Enumerates lower coefficient tuples in base-p counting order and takes
    the first irreducible polynomial; the choice is recorded in reports so
    runs are reproducible.
    """
    if r == 1:
        return (0, 1)
    m = 0
    while True:
        coeffs = []
        t = m
        for _ in range(r):
            coeffs.append(t % p)
            t //= p
        g = coeffs + [1]
        if g[0] != 0 and _is_irreducible(g, p):
            return tuple(g)
        m += 1


# ---------------------------------------------------------------------------
# Prime context
# ---------------------------------------------------------------------------


def _is_prime(n):
    return n >= 2 and _prime_factors(n) == [n]


class PrimeContext:
    """Shared parameters: p, f, r, precisions, and the residue polynomial.

    `n` is N, the part of `nwork` that `preflight_precision` sizes to the
    reads of the run (the valuation gate, the reducibility sum, the
    residue read, the explicit-matrix check and the certified precision
    the report states) beyond the guard; `m` is the u/E-adic truncation
    order.
    `dmax` = floor((m-1)/p) is the largest canonical-form denominator
    exponent of a slot below m, so u-coordinates of every slot cost dmax
    digits; it is also the rescale exponent D of `sring.s_sums` and
    `s_mul`, which take slot j to c_j p^(D - floor(j/p)).  `nwork` is the
    internal construction precision.  Its default
    is n + dmax + 1 + 4, so an element held at nwork converts to O_F[[u]]
    at precision n + 5, and its residue can be read off any window.  The
    pipeline passes the nwork that `preflight_precision` chooses: it
    reserves only the floor((L-1)/p) + 1 digits that a residue read below
    the window L needs, adds the descent's division depth and stays within
    the digits of phi that the truncation at E^m leaves exact.
    """

    def __init__(self, p: int, f: int, n: int, m: int, r: Optional[int] = None,
                 nwork: Optional[int] = None):
        if not _is_prime(p) or p < 3:
            raise ValueError(f"p must be an odd prime, got {p}")
        if f < 1:
            raise ValueError("f must be >= 1")
        r = f if r is None else r
        if r < 1 or r % f != 0:
            raise ValueError(f"r = {r} must be a positive multiple of f = {f}")
        if n < 1 or m < 1:
            raise ValueError("precisions N, M must be >= 1")
        self.p = p
        self.f = f
        self.r = r
        self.n = n
        self.m = m
        self.dmax = (m - 1) // p
        self.nwork = nwork if nwork is not None else n + self.dmax + 1 + 4
        if self.nwork < n:
            raise ValueError("nwork must be >= n")
        self.residue_poly = find_residue_poly(p, r)
        # p^0 .. p^(nwork + 2 dmax), what products reach; `ppow` extends it
        self._ppows = list(accumulate(repeat(p, self.nwork + 2 * self.dmax), mul, initial=1))
        # reduction rows: w^(r+t) mod g over Z for t = 0..r-2; for the fold,
        # each column's negative mass, their largest, and the largest |row| sum
        rows = self._red_rows = self._build_red_rows()
        neg = tuple(sum(max(0, -row[i]) for row in rows) for i in range(r))
        self._fold = neg, max(neg), max(sum(abs(row[i]) for row in rows) for i in range(r))
        self._caches = {}

    def ppow(self, k: int) -> int:
        try:
            return self._ppows[k]
        except IndexError:
            while len(self._ppows) <= k:
                self._ppows.append(self._ppows[-1] * self.p)
            return self._ppows[k]

    def _build_red_rows(self):
        """Reduction rows for w^(r+t), t = 0..r-2, exact over Z.

        Exact rows keep products of elements held above nwork correct;
        the kernels reduce their results mod the product's own modulus.
        """
        r, g = self.r, self.residue_poly
        if r == 1:
            return ()
        base = [-g[i] for i in range(r)]  # w^r
        rows = [tuple(base)]
        cur = base
        for _ in range(r - 2):
            carry = cur[-1]
            nxt = [0] + cur[:-1]
            if carry:
                for i in range(r):
                    nxt[i] += carry * base[i]
            rows.append(tuple(nxt))
            cur = nxt
        return tuple(rows)

    def cache(self, key, builder):
        """The value stored under `key`, built by `builder()` on first use.

        Every job that reuses this context shares its cache, so a key names
        everything its value depends on beyond the context, and a cached
        value is never mutated: tables are tuples and elements immutable.
        """
        if key not in self._caches:
            self._caches[key] = builder()
        return self._caches[key]

    def fingerprint(self) -> dict:
        """The context as the report records it: N is `n`, the part of
        N_work = `nwork` beyond the guard (see `preflight_precision`)."""
        return {
            "p": self.p,
            "f": self.f,
            "r": self.r,
            "N": self.n,
            "M": self.m,
            "N_work": self.nwork,
            "residue_poly": list(self.residue_poly),
        }

    def __repr__(self):
        return (f"PrimeContext(p={self.p}, f={self.f}, r={self.r}, "
                f"N={self.n}, M={self.m}, nwork={self.nwork})")


# ---------------------------------------------------------------------------
# Raw coefficient kernels (tuples of ints, length r)
# ---------------------------------------------------------------------------


def _of_mul_raw(ctx, a, b, mod):
    """Product in O_F: the schoolbook product of the w-polynomials, folded
    by `_fold_w`."""
    out = [0] * (2 * ctx.r - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _fold_w(ctx, out, mod)


def _of_add_raw(a, b, mod):
    return tuple([(x + y) % mod for x, y in zip(a, b)])


def _of_sub_raw(a, b, mod):
    return tuple([(x - y) % mod for x, y in zip(a, b)])


def _of_val_raw(ctx, a, prec):
    """Minimum p-adic valuation of the coefficients; None when >= prec."""
    best = None
    for x in a:
        x %= ctx.ppow(prec)
        if x == 0:
            continue
        v = 0
        while x % ctx.p == 0:
            x //= ctx.p
            v += 1
            if best is not None and v >= best:
                break
        best = v if best is None else min(best, v)
        if best == 0:
            return 0
    return best


# ---------------------------------------------------------------------------
# OFElem
# ---------------------------------------------------------------------------


class OFElem:
    """An element of O_F at an absolute p-adic precision."""

    __slots__ = ("ctx", "c", "prec")

    def __init__(self, ctx: PrimeContext, coeffs: Sequence[int], prec: Optional[int] = None):
        self.ctx = ctx
        self.prec = prec = ctx.nwork if prec is None else prec
        if prec < 1:
            raise PrecisionExhausted("OFElem constructed at precision < 1")
        mod = ctx.ppow(prec)
        c = [v % mod for v in coeffs]
        if len(c) > ctx.r:
            raise ValueError("coefficient vector longer than the residue degree")
        if len(c) < ctx.r:
            c += [0] * (ctx.r - len(c))
        # tuples of values are built from lists here and in `sring`:
        # tuple() of a generator allocates 10 slots and resizes, so the
        # free list of the final size grows until a full collection
        self.c = tuple(c)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_int(cls, ctx, value, prec=None):
        return cls(ctx, (value,), prec)

    @classmethod
    def zero(cls, ctx, prec=None):
        return cls(ctx, (), prec)

    @classmethod
    def one(cls, ctx, prec=None):
        return cls(ctx, (1,), prec)

    # -- arithmetic ---------------------------------------------------------

    def _join(self, other):
        if isinstance(other, int):
            other = OFElem.from_int(self.ctx, other, self.prec)
        if other.ctx is not self.ctx:
            raise ValueError("mixed contexts")
        prec = min(self.prec, other.prec)
        return other, prec, self.ctx.ppow(prec)

    def __add__(self, other):
        if not isinstance(other, (int, OFElem)):
            return NotImplemented
        other, prec, mod = self._join(other)
        return OFElem(self.ctx, _of_add_raw(self.c, other.c, mod), prec)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (int, OFElem)):
            return NotImplemented
        other, prec, mod = self._join(other)
        return OFElem(self.ctx, _of_sub_raw(self.c, other.c, mod), prec)

    def __mul__(self, other):
        if not isinstance(other, (int, OFElem)):
            return NotImplemented
        other, prec, mod = self._join(other)
        return OFElem(self.ctx, _of_mul_raw(self.ctx, self.c, other.c, mod), prec)

    __rmul__ = __mul__

    def __neg__(self):
        mod = self.ctx.ppow(self.prec)
        return OFElem(self.ctx, tuple([(-x) % mod for x in self.c]), self.prec)

    def __eq__(self, other):
        if isinstance(other, int):
            other = OFElem.from_int(self.ctx, other, self.prec)
        if not isinstance(other, OFElem):
            return NotImplemented
        prec = min(self.prec, other.prec)
        mod = self.ctx.ppow(prec)
        return all((x - y) % mod == 0 for x, y in zip(self.c, other.c))

    def valuation(self) -> Optional[int]:
        """p-adic valuation; None means indistinguishable from 0 (>= prec)."""
        return _of_val_raw(self.ctx, self.c, self.prec)

    def is_unit(self) -> bool:
        return self.valuation() == 0

    def unit_inverse(self) -> "OFElem":
        """Inverse of a unit, exact at this element's precision."""
        if not self.is_unit():
            raise NotAUnit("of_invert: element has positive valuation")
        ctx, p = self.ctx, self.ctx.p
        # invert mod p via extended Euclid in F_p[x], then Hensel-lift
        g = list(ctx.residue_poly)
        a = _fp_trim([x % p for x in self.c])
        inv = _fp_poly_invmod(a, g, p)
        y = OFElem(ctx, tuple(inv) + (0,) * (ctx.r - len(inv)), 1)
        known = 1
        while known < self.prec:
            known = min(2 * known, self.prec)
            y = OFElem(ctx, y.c, known)
            y = y * (OFElem.from_int(ctx, 2, known) - OFElem(ctx, self.c, known) * y)
        return y

    def times_p_pow(self, t: int) -> "OFElem":
        """Multiply by p^t (t >= 0); gains t digits up to nwork."""
        prec = min(self.prec + t, self.ctx.nwork)
        s = self.ctx.ppow(t)
        mod = self.ctx.ppow(prec)
        return OFElem(self.ctx, tuple([(x * s) % mod for x in self.c]), prec)

    def residue(self) -> tuple:
        """Image in k_F as a coefficient tuple mod p."""
        return tuple([x % self.ctx.p for x in self.c])

    def serial(self) -> dict:
        return {"c": list(self.c), "prec": self.prec}

    def __repr__(self):
        return f"OFElem({list(self.c)} @p^{self.prec})"


def _fp_poly_invmod(a, g, p):
    """Inverse of a mod (g, p) by extended Euclid over F_p[x]."""
    # maintain r_i = s_i * a (mod g), starting from r0 = g, r1 = a
    r0, r1 = list(g), _fp_trim(list(a))
    s0, s1 = [], [1]
    while len(r1) > 1:
        q, rem = _fp_divmod(r0, r1, p)
        r0, r1 = r1, rem
        s0, s1 = s1, _fp_sub(s0, _fp_mul(q, s1, p), p)
    if not r1:
        raise NotAUnit("not invertible mod p")
    lead_inv = pow(r1[0], -1, p)
    return [(x * lead_inv) % p for x in s1]


# ---------------------------------------------------------------------------
# Packed convolution kernel
# ---------------------------------------------------------------------------
#
# Series store their coefficients flat, r values per u-slot: slot j of `c`
# is c[j*r:(j+1)*r], the w-coefficients of c_j from w^0 up (an OFElem is
# one slot).  `_conv2_sums` evaluates sums of products of such sequences,
# each product a full 2D convolution over O_F: the u-index and the w-index
# are flattened into one big integer (Kronecker substitution; Schoenhage,
# 1982) so a single Python bignum multiplication performs a whole
# convolution.  Each u-slot takes 2r-1 positions: a product has w-degree
# <= 2r-2, so it never bleeds into the next u-slot.  The products of one
# sum are added as packed integers, each times its multiplier and shifted
# up to its first slot, so a sum is folded and unpacked once however many
# products it has.  Every position of a sum is at most
# cap = sum of mult * min(la, lb) * r * max(a) * max(b) over its products,
# with la, lb the operands' slot counts below the sum's last slot and the
# maxima taken after reduction.  The plan is indexed: the caller hands over
# the distinct operands once, as a list, each already reduced (`_operand`)
# modulo the largest mod // mult of its products (a multiple of the others,
# since moduli and multipliers are powers of one prime, so each product is
# right modulo its own mod // mult and, times mult, modulo `mod`), and each
# product names its operands by their indices.  Each operand is packed
# once, at one width for the whole batch.  `sring.s_sums` plans the batch:
# its multipliers p^(g_i - beta) bring each product of a sum to the sum's
# common scale p^beta, and it sets the sum's d and prec by the rule of
# `SElem._plus`, so a sum has the values of its products added with `+`.
# `_conv2_raw`, which a lone `s_mul` calls, is the one-term plan, reduced.
#
# The w-fold runs on the packed sum as well (the multipoint layout of
# Harvey, J. Symbolic Comput. 44, 2009).  For each reduction row t, the row
# of w^(r+t) mod g over Z, one shift and one periodic mask move position
# r+t of every u-slot to position 0, and one multiply by the row, packed as
# a signed integer, adds c * row[i] to position i of the same slot.  Rows
# have negative entries, so position i also gets the offset neg_i * m',
# where neg_i is the negative mass of column i over the rows and m' is the
# least multiple of `mod` that is >= cap: no position goes negative, so
# none borrows from its neighbour.  The offset is a multiple of `mod`, so
# it changes nothing mod `mod`, and it keeps a value's divisibility by
# every divisor of `mod`, which `s_sums` divides by.  A position then holds
# at most cap * (1 + norm) + neg * mod, with norm and neg the largest
# column sums of |row| and of the negative entries; the untouched positions
# r..2r-2 stay below cap.  At r = 1 there are no rows, norm and neg are 0
# and the slots are the positions.  The lift mask, the negative-mass
# pattern and the packed rows depend only on the residue polynomial, M and
# the width: they are packed once (`_fold_pack`, a bounded cache) for M
# slots and shifted down to a product's slots.
# Only the r folded positions of each slot are unpacked.  `_pack` and
# `_unpack` are the only conversions between integers and bytes;
# `s_frobenius` packs through them and shifts and masks its own packed
# Horner accumulator.


def _pack(values, width, group=1, pad=0, times=1):
    """Pack `values` as little-endian digits of `width` bytes, with `pad`
    zero digits after every `group` values (len(values) is a multiple of
    `group`), the whole layout repeated `times` times."""
    if width == 8:
        raw = _layout(8, len(values), group, pad).pack(*values)
    else:
        # a list, not an iterator: `pack(*chunks)` then takes an argument
        # tuple of the exact size, and no resized tuple fills a free list
        chunks = list(map(int.to_bytes, values, repeat(width), repeat("little")))
        raw = _layout(width, len(values), group, pad).pack(*chunks) if pad else b"".join(chunks)
    return int.from_bytes(raw * times, "little")


@lru_cache(maxsize=64)
def _layout(width, count, group, pad):
    """The struct layout of `count` digits of `width` bytes with `pad`
    padding digits after every `group` of them: byte strings, or at width 8
    integers, converted with no Python call per digit.  A layout depends on
    no context.  The cache is bounded because a run meets hundreds of
    (width, count) pairs, and a miss costs one format compile."""
    field = ("Q" if width == 8 else f"{width}s") * group + (f"{width * pad}x" if pad else "")
    return Struct("<" + field * (count // group))


def _unpack(n, width, count, group=None, pad=0):
    """`count` little-endian digits of `width` bytes of n >= 0, read from
    the lowest up, skipping `pad` digits after every `group` digits read
    (`count` >= 1 is a multiple of `group`; without padding all `count`
    digits form one group), split by one cached struct layout."""
    layout = _layout(width, count, group if pad else count, pad)
    raw = n.to_bytes(max(layout.size, (n.bit_length() + 7) // 8), "little")
    if width == 8:
        return list(layout.unpack_from(raw))
    return list(map(int.from_bytes, layout.unpack_from(raw), repeat("little")))


@lru_cache(maxsize=16)
def _fold_pack(red_rows, neg, width, slots):
    """The lift mask (position 0 of every slot) and the negative-mass
    pattern (neg_i at position i of every slot), `slots` slots long, and
    the reduction rows as signed integers, at `width`.  Packed once per
    residue polynomial, width and slot count (M, or more only for a direct
    `_conv2_raw` call with out_len > M), and shifted down to a product's
    slots.  The cache is not kept on the context, whose cache lives as
    long as the context and every element that refers to it; 16 entries
    hold the widths of a job."""
    r = len(neg)
    pad, bits = r - 1, 8 * width
    return (_pack([(1 << bits) - 1] + [0] * pad, width, r, pad, slots),
            _pack(neg, width, r, pad, slots),
            tuple(sum(v << bits * i for i, v in enumerate(row)) for row in red_rows))


def _fold_unpack(ctx, acc, cap, mod, n_u, width):
    """The first n_u slots of the packed sum `acc`, whose positions lie in
    [0, cap], folded mod the residue polynomial: n_u * r values, each
    congruent mod `mod` to the folded exact sum and not reduced."""
    r = ctx.r
    if ctx._red_rows:
        bits = 8 * width
        slots = max(n_u, ctx.m)
        lift, neg, rows = _fold_pack(ctx._red_rows, ctx._fold[0], width, slots)
        drop = bits * (2 * r - 1) * (slots - n_u)
        lift, neg = lift >> drop, neg >> drop
        prod = acc
        acc += neg * (-(-cap // mod) * mod)
        for t, row in enumerate(rows):
            acc += ((prod >> bits * (r + t)) & lift) * row
    return _unpack(acc, width, n_u * r, r, r - 1)


def _operand(values, q):
    """A kernel operand: the flat values (>= 0) reduced mod q when one of
    them reaches q, and their largest value, 0 when all are 0 mod q."""
    top = max(values)
    if top >= q:
        values = [v % q for v in values]
        top = max(values)
    return values, top


def _conv2_sums(ctx, ops, sums):
    """Sums of products by an indexed plan, each sum folded and unpacked
    once.  `ops` holds operands as `_operand` gives them, each reduced
    modulo the largest mod // mult of the terms that name it (None where no
    term does); `sums` holds (terms, mod, out_len), each term
    (i, j, mult, shift): two indices into `ops`, a multiplier dividing mod
    (both powers of one prime) and a slot shift below out_len.  A sum's
    result is the first min(out_len, last product slot + 1) slots of
    sum(mult * ops[i] ops[j], moved up `shift` slots), flat, folded mod the
    residue polynomial, each value congruent mod `mod` to the exact folded
    sum but not reduced."""
    r = ctx.r
    # a term whose operand is 0 drops out; every other operand value is at
    # most its product's share of the cap
    plans, cap_max, mod_max = [], 0, 0
    for terms, mod, out_len in sums:
        cap = n_u = 0
        live = []
        for term in terms:
            i, j, mult, shift = term
            va, ma = ops[i]
            vb, mb = ops[j]
            la, lb = len(va) // r, len(vb) // r
            n_u = max(n_u, shift + la + lb - 1)
            if ma and mb:
                cap += mult * min(la, lb, out_len - shift) * r * ma * mb
                live.append(term)
        plans.append((live, cap, min(n_u, out_len)))
        cap_max, mod_max = max(cap_max, cap), max(mod_max, mod)

    # one width holds a folded position of every sum (see above), and is at
    # least 8 bytes, which `_pack` and `_unpack` convert fastest
    _, neg_max, norm = ctx._fold
    width = max(8, ((cap_max * (1 + norm) + neg_max * mod_max).bit_length() + 7) // 8)
    packed = [None] * len(ops)
    slot_bits = 8 * width * (2 * r - 1)
    out = []
    for (_, mod, _), (live, cap, n_u) in zip(sums, plans):
        acc = 0
        for i, j, mult, shift in live:
            pa = packed[i]
            if pa is None:
                pa = packed[i] = _pack(ops[i][0], width, r, r - 1)
            pb = packed[j]
            if pb is None:
                pb = packed[j] = _pack(ops[j][0], width, r, r - 1)
            keep = slot_bits * (n_u - shift)
            if pa.bit_length() > keep:
                pa &= (1 << keep) - 1
            if pb.bit_length() > keep:
                pb &= (1 << keep) - 1
            acc += (pa * pb * mult) << slot_bits * shift
        out.append(_fold_unpack(ctx, acc, cap, mod, n_u, width) if live else [0] * (n_u * r))
    return out


def _conv2_raw(ctx, a, b, mod, out_len):
    """a, b: flat coefficient sequences of values >= 0, r values per
    u-slot.  Returns their product, capped at out_len slots, as a flat list
    mod `mod`, folded mod the residue polynomial on the packed product; the
    fold is linear over Z with integer rows, so the values keep the exact
    sums' divisibility, which `s_sums` uses.  The one-term plan of
    `_conv2_sums`, reduced."""
    if not a or not b:
        return []
    ops = (_operand(a, mod), _operand(b, mod))
    return [v % mod for v in _conv2_sums(ctx, ops, ((((0, 1, 1, 0),), mod, out_len),))[0]]


def _fold_w(ctx, slot, mod):
    """Reduce a (2r-1)-sequence of w-coefficients mod the residue polynomial."""
    r = ctx.r
    if r == 1:
        return (slot[0] % mod,)
    out = list(slot[:r])
    rows = ctx._red_rows
    for t in range(r - 1):
        c = slot[r + t]
        if c:
            row = rows[t]
            for i in range(r):
                out[i] += c * row[i]
    return tuple([v % mod for v in out])


# ---------------------------------------------------------------------------
# USeries: a series in O_F[[u]] / u^M, as a record
# ---------------------------------------------------------------------------


class USeries:
    """A truncated series in O_F[[u]], or at precision 1 its residue image
    in k_F[[u]], as `SElem.residue` and `SElem.to_useries` return it.

    `c` holds M*r values in [0, p^prec), slot j being c[j*r:(j+1)*r], the
    w-coefficients of the coefficient of u^j.  A residue read below a
    window L < M holds zeros from slot L on.  A record compares and
    reports its u-order; it has no arithmetic.
    """

    __slots__ = ("ctx", "c", "prec")

    def __init__(self, ctx: PrimeContext, values, prec: int):
        """At most M*r flat values, reduced mod p^prec and padded to M
        slots."""
        if prec < 1:
            raise PrecisionExhausted("USeries at precision < 1")
        mod = ctx.ppow(prec)
        self.ctx, self.prec = ctx, prec
        self.c = tuple([v % mod for v in values]) + (0,) * (ctx.m * ctx.r - len(values))

    def __eq__(self, other):
        if not isinstance(other, USeries):
            return NotImplemented
        mod = self.ctx.ppow(min(self.prec, other.prec))
        return all((x - y) % mod == 0 for x, y in zip(self.c, other.c))

    def is_zero(self) -> bool:
        return not any(self.c)

    def u_order(self) -> Optional[int]:
        """Lowest u-exponent with a nonzero coefficient; None if zero."""
        for i, v in enumerate(self.c):
            if v:
                return i // self.ctx.r
        return None

    def leading_unit(self) -> Optional[tuple]:
        """Coefficient of the lowest nonzero u-power, as r values; None if
        zero."""
        j, r = self.u_order(), self.ctx.r
        return None if j is None else self.c[j * r:(j + 1) * r]

    def __repr__(self):
        r = self.ctx.r
        head = [list(self.c[i:i + r]) for i in range(0, len(self.c), r)][:4]
        return f"USeries({head}... @p^{self.prec}, M={self.ctx.m})"


# ---------------------------------------------------------------------------
# Matrix helpers (2x2 over any ring with +, -, *)
# ---------------------------------------------------------------------------


def mat_mul(a, b):
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0],
             a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0],
             a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def mat_add(a, b):
    return ((a[0][0] + b[0][0], a[0][1] + b[0][1]),
            (a[1][0] + b[1][0], a[1][1] + b[1][1]))


def mat_sub(a, b):
    return ((a[0][0] - b[0][0], a[0][1] - b[0][1]),
            (a[1][0] - b[1][0], a[1][1] - b[1][1]))


def mat_det(a):
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


def _entries(m):
    """The four entries, row by row."""
    return (m[0][0], m[0][1], m[1][0], m[1][1])


def _mat_map(fn, m):
    """fn applied to each entry, row by row."""
    return ((fn(m[0][0]), fn(m[0][1])), (fn(m[1][0]), fn(m[1][1])))
