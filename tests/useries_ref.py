"""Reference arithmetic on O_F[[u]] / u^M for the tests.

The package keeps `USeries` only as the record that `SElem.residue` and
`SElem.to_useries` return.  The ring operations that the tests check
against live here, on those records.  The product is a schoolbook sum of
`OFElem` products, so it shares nothing with the packed kernel
`_conv2_raw` or with `s_mul`.  `newton_invert`, the reference for
`s_invert`'s certificate, is the Newton loop on `s_mul` that confirms every
step with a product.
"""

from math import comb

from crysred.arith import OFElem, USeries
from crysred.errors import NoConvergence, PrecisionExhausted
from crysred.sring import SElem, s_mul


def series(ctx, coeffs=(), prec=None):
    """The series with one entry per u-slot (an int, an OFElem or r
    values), truncated at u^M, at precision `prec` (default nwork)."""
    prec = ctx.nwork if prec is None else prec
    flat = []
    for cj in coeffs[:ctx.m]:
        if isinstance(cj, OFElem):
            cj = cj.c
        elif isinstance(cj, int):
            cj = (cj,) + (0,) * (ctx.r - 1)
        if len(cj) != ctx.r:
            raise ValueError(f"every slot takes r = {ctx.r} values")
        flat += cj
    return USeries(ctx, flat, prec)


def add(x, y):
    return USeries(x.ctx, [a + b for a, b in zip(x.c, y.c)], min(x.prec, y.prec))


def mul(x, y):
    """Schoolbook product truncated at u^M: slot k is the sum over
    i + j = k of the OFElem products of slots i and j."""
    ctx, prec, r = x.ctx, min(x.prec, y.prec), x.ctx.r
    a, b = ([OFElem(ctx, z.c[j * r:(j + 1) * r], prec) for j in range(ctx.m)]
            for z in (x, y))
    out = [OFElem.zero(ctx, prec) for _ in range(ctx.m)]
    for i in range(ctx.m):
        for j in range(ctx.m - i):
            out[i + j] = out[i + j] + a[i] * b[j]
    return USeries(ctx, [v for z in out for v in z.c], prec)


def frobenius(x):
    """u -> u^p; coefficients are fixed (the embedding shift carries the
    semilinearity)."""
    ctx, r = x.ctx, x.ctx.r
    out = [0] * (ctx.m * r)
    for j in range(0, ctx.m, ctx.p):
        i = j // ctx.p
        out[j * r:(j + 1) * r] = x.c[i * r:(i + 1) * r]
    return USeries(ctx, out, x.prec)


def residue(x):
    """Image in k_F[[u]]: the series at precision 1."""
    return USeries(x.ctx, x.c, 1)


def from_useries(x):
    """Embed O_F[[u]] into S_F (E-expansion; multiplies up, no division)."""
    ctx, r = x.ctx, x.ctx.r
    mod = ctx.ppow(x.prec)
    # b_j = sum_{l>=j} binom(l, j) (-p)^(l-j) a_l ; c_j = b_j p^floor(j/p)
    out = []
    for j in range(ctx.m):
        acc = [0] * r
        sign = 1
        ppow = 1
        for l in range(j, ctx.m):
            a = x.c[l * r:(l + 1) * r]
            if any(a):
                s = (comb(l, j) * sign * ppow) % mod
                if s:
                    acc = [(u + s * v) % mod for u, v in zip(acc, a)]
            sign = -sign
            ppow *= ctx.p
            if ppow % mod == 0 and l >= j + x.prec:
                break
        scale = ctx.ppow(j // ctx.p)
        out.append([v * scale for v in acc])
    return SElem(ctx, out, 0, x.prec)


def e_pow(ctx, k, prec=None):
    """Canonical form of E^k in S_F: coefficient p^floor(k/p) in slot k."""
    if k >= ctx.m:
        return SElem.zero(ctx, prec)
    return SElem(ctx, [0] * k + [ctx.ppow(k // ctx.p)], 0, prec)


def at_prec(x, prec):
    """The SElem x, known to the lower precision `prec`."""
    if prec > x.prec:
        raise PrecisionExhausted("cannot raise precision")
    r = x.ctx.r
    return SElem(x.ctx, [x.c[j:j + r] for j in range(0, len(x.c), r)], x.d, prec)


def w_power(ctx, e, l):
    """w_e^l at (M, nwork), slot by slot: slot i holds
    binom(n, i) (-p)^(n-i) p^(floor(i/p) - l) with n = p^e l, one `comb`
    per slot whose exponent is below nwork."""
    p, nwork = ctx.p, ctx.nwork
    mod = ctx.ppow(nwork)
    n = p ** e * l
    coeffs = []
    for i in range(min(n + 1, ctx.m)):
        t = n - i + i // p - l
        c = 0
        if t < nwork:
            c = (-1) ** (n - i) * comb(n, i) * ctx.ppow(t) % mod
        coeffs.append(c)
    return SElem(ctx, coeffs, 0, nwork)


def unit_power(ctx, e, c):
    """(1 + w_e)^c = sum_l binom(c, l) w_e^l over the powers `w_power`
    gives until one vanishes."""
    acc = [0] * (ctx.m * ctx.r)
    coef, l = 1, 0
    while coef:
        w = w_power(ctx, e, l)
        if w.is_zero():
            break
        for i, v in enumerate(w.c):
            acc[i] += coef * v
        coef = coef * (c - l) // (l + 1)
        l += 1
    return SElem(ctx, [acc[j:j + ctx.r] for j in range(0, len(acc), ctx.r)], 0, ctx.nwork)


def newton_invert(x, seed=None):
    """The inverse of the unit x by the Newton loop that confirms every
    step: each step takes the product x y and stops when it is 1, else
    updates y <- y (2 - x y).  The seed rule is `s_invert`'s.  Returns the
    iterates y, the last one the inverse, and the number of products."""
    x = x.normalize_d()
    ctx, r = x.ctx, x.ctx.r
    x0 = x.coeff(0)
    if seed is not None and seed.d == 0 and \
            (x0 * seed.coeff(0)).residue() == OFElem.one(ctx).residue():
        ys = [SElem(ctx, [seed.c[j:j + r] for j in range(0, len(seed.c), r)], 0, x.prec)]
    else:
        ys = [SElem.from_of(ctx, x0.unit_inverse())]
    two, products = SElem.from_int(ctx, 2, x.prec), 0
    for _ in range(ctx.m.bit_length() + x.prec.bit_length() + 4):
        prod = s_mul(x, ys[-1])
        products += 1
        if prod == SElem.one(ctx, x.prec):
            return ys, products
        ys.append(s_mul(ys[-1], two - prod))
        products += 1
    raise NoConvergence("newton_invert did not converge")
