"""Reference arithmetic on O_F[[u]] / u^M for the tests.

The package keeps `USeries` only as the record that `SElem.residue` and
`SElem.to_useries` return.  The ring operations that the tests check
against live here, on those records.  The product is a schoolbook sum of
`OFElem` products, so it shares nothing with the packed kernel
`_conv2_raw` or with `s_mul`.
"""

from math import comb

from crysred.arith import OFElem, USeries
from crysred.errors import PrecisionExhausted
from crysred.sring import SElem


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


def at_prec(x, prec):
    """The SElem x, known to the lower precision `prec`."""
    if prec > x.prec:
        raise PrecisionExhausted("cannot raise precision")
    r = x.ctx.r
    return SElem(x.ctx, [x.c[j:j + r] for j in range(0, len(x.c), r)], x.d, prec)

