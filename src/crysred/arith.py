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
precision `nwork` >= the reporting precision N so that the divisions
performed downstream still leave N certified digits.

All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

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

    `n` is the reporting p-precision, `m` the u/E-adic truncation order.
    `dmax` = floor((m-1)/p) is the largest canonical-form denominator
    exponent of a slot below m, so u-coordinates of every slot cost dmax
    digits.  `nwork` is the internal construction precision.  Its default
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
        self._ppows = [1]
        # reduction rows: w^(r+t) mod g over Z for t = 0..r-2
        self._red_rows = self._build_red_rows()
        self._caches = {}

    def ppow(self, k: int) -> int:
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
            return []
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
        return rows

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
    return tuple((x + y) % mod for x, y in zip(a, b))


def _of_sub_raw(a, b, mod):
    return tuple((x - y) % mod for x, y in zip(a, b))


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
        self.prec = ctx.nwork if prec is None else prec
        if self.prec < 1:
            raise PrecisionExhausted("OFElem constructed at precision < 1")
        mod = ctx.ppow(self.prec)
        c = list(coeffs)
        if len(c) > ctx.r:
            raise ValueError("coefficient vector longer than the residue degree")
        c += [0] * (ctx.r - len(c))
        self.c = tuple(v % mod for v in c)

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
        return OFElem(self.ctx, tuple((-x) % mod for x in self.c), self.prec)

    def __eq__(self, other):
        if isinstance(other, int):
            other = OFElem.from_int(self.ctx, other, self.prec)
        if not isinstance(other, OFElem):
            return NotImplemented
        prec = min(self.prec, other.prec)
        mod = self.ctx.ppow(prec)
        return all((x - y) % mod == 0 for x, y in zip(self.c, other.c))

    def is_zero(self) -> bool:
        mod = self.ctx.ppow(self.prec)
        return all(x % mod == 0 for x in self.c)

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
        return OFElem(self.ctx, tuple((x * s) % mod for x in self.c), prec)

    def residue(self) -> tuple:
        """Image in k_F as a coefficient tuple mod p."""
        return tuple(x % self.ctx.p for x in self.c)

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
# one slot).  `_conv2_raw` multiplies two such sequences as a full 2D
# convolution over O_F: the u-index and the w-index are flattened into one
# big integer (Kronecker substitution) so a single Python bignum
# multiplication performs the whole convolution.  Each u-slot takes 2r-1
# positions: a product has w-degree <= 2r-2, so it never bleeds into the
# next u-slot.  Every position sum is at most
# cap = min(la, lb) * r * max(a) * max(b), with la, lb the operands' slot
# counts and the maxima taken over the operands after reduction mod `mod`;
# `s_mul`, the one caller, passes the slots of the operands' supports.
#
# The w-fold runs on the packed product as well (the multipoint layout of
# Harvey, J. Symbolic Comput. 44, 2009).  For each reduction row t, the row
# of w^(r+t) mod g over Z, one shift and one periodic mask move position
# r+t of every u-slot to position 0, and one multiply by the row, packed as
# a signed integer, adds c * row[i] to position i of the same slot.  Rows
# have negative entries, so position i also gets the offset neg_i * m',
# where neg_i is the negative mass of column i over the rows and m' is the
# least multiple of `mod` that is >= cap: no position goes negative, so
# none borrows from its neighbour.  The offset is a multiple of `mod`, so
# it changes nothing mod `mod`, and it keeps a value's divisibility by
# every divisor of `mod`, which `s_mul` divides by.  A position then holds
# at most cap * (1 + norm) + neg * mod, with norm and neg the largest
# column sums of |row| and of the negative entries; the untouched positions
# r..2r-2 stay below cap.  At r = 1 there are no rows, norm and neg are 0
# and the slots are the positions.  Only the r folded positions of each
# slot are unpacked.  `_pack` and `_unpack` are the only conversions
# between integers and bytes; `s_frobenius` packs through them and shifts
# and masks its own packed Horner accumulator.


def _pack(values, width, group=1, pad=0, times=1):
    """Pack `values` as little-endian digits of `width` bytes, with `pad`
    zero digits after every `group` values (len(values) is a multiple of
    `group`), the whole layout repeated `times` times."""
    chunks = [v.to_bytes(width, "little") for v in values]
    if pad:
        spaced = [bytes(width * pad)] * (len(chunks) // group * (group + 1))
        for i in range(group):
            spaced[i::group + 1] = chunks[i::group]
        chunks = spaced
    return int.from_bytes(b"".join(chunks) * times, "little")


def _unpack(n, width, count, group=None, pad=0):
    """`count` little-endian digits of `width` bytes of n >= 0, read from
    the lowest up, skipping `pad` digits after every `group` digits read
    (`count` >= 1 is a multiple of `group`; without padding all `count`
    digits form one group)."""
    group = group if pad else count
    step = width * (group + pad)
    need = step * (count // group)
    raw = n.to_bytes(max(need, (n.bit_length() + 7) // 8), "little")
    return [int.from_bytes(raw[j:j + width], "little")
            for i in range(0, need, step) for j in range(i, i + width * group, width)]


def _fold_rows(ctx):
    """Column sums of the reduction rows: the negative mass of each column,
    its largest value, and the largest sum of absolute values."""
    def build():
        rows, r = ctx._red_rows, ctx.r
        neg = tuple(sum(max(0, -row[i]) for row in rows) for i in range(r))
        norm = max(sum(abs(row[i]) for row in rows) for i in range(r))
        return neg, max(neg), norm

    return ctx.cache(("fold",), build)


def _conv2_raw(ctx, a, b, mod, out_len):
    """a, b: flat coefficient sequences, r values per u-slot.  Returns
    their product, capped at out_len slots, as a flat list mod `mod`,
    folded mod the residue polynomial on the packed product; the fold is
    linear over Z with integer rows, so the values keep the exact sums'
    divisibility, which `s_mul` uses."""
    r = ctx.r
    la, lb = len(a) // r, len(b) // r
    if la == 0 or lb == 0:
        return []
    # coefficients may be stored at a higher precision than the product's
    # modulus; reduce before sizing so the width bounds the true sums
    fa = [v % mod for v in a]
    fb = [v % mod for v in b]
    n_u = min(la + lb - 1, out_len)
    ma, mb = max(fa), max(fb)
    if not ma or not mb:
        return [0] * (n_u * r)
    # with both maxima >= 1 the width also holds every operand value
    cap = min(la, lb) * r * ma * mb
    neg, neg_max, norm = _fold_rows(ctx)
    width = ((cap * (1 + norm) + neg_max * mod).bit_length() + 7) // 8
    pad, bits = r - 1, 8 * width
    acc = prod = _pack(fa, width, r, pad) * _pack(fb, width, r, pad)
    if ctx._red_rows:
        m_cap = -(-cap // mod) * mod
        acc += _pack([v * m_cap for v in neg], width, r, pad, n_u)
        lift = _pack([(1 << bits) - 1] + [0] * pad, width, r, pad, n_u)
        for t, row in enumerate(ctx._red_rows):
            acc += ((prod >> bits * (r + t)) & lift) * \
                sum(v << bits * i for i, v in enumerate(row))
    return [v % mod for v in _unpack(acc, width, n_u * r, r, pad)]


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
    return tuple(v % mod for v in out)


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
        self.c = tuple(v % mod for v in values) + (0,) * (ctx.m * ctx.r - len(values))

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


def mat_adj(a):
    return ((a[1][1], -a[0][1]), (-a[1][0], a[0][0]))


def _entries(m):
    """The four entries, row by row."""
    return (m[0][0], m[0][1], m[1][0], m[1][1])


def _mat_map(fn, m):
    """fn applied to each entry, row by row."""
    return ((fn(m[0][0]), fn(m[0][1])), (fn(m[1][0]), fn(m[1][1])))
