"""From the descended integral tuple to the fundamental-character answer.

The mod-p Frobenius matrices of a gated instance are monomial: each slot
is I*u^lambda or S*u^lambda up to k_F scalars, with u^lambda =
Diag(u^n, u^m) and S the antidiagonal swap.  The per-slot data mu_i =
(shape, (n_i, m_i)) determines the reduction: the ordered product
prod phi^j(matrix_j) collapses to a single monomial matrix whose exponents
are read off either by the block-alternation rule (assign_vw) or by brute
force (monomial_product); the two routes are kept independent and a
disagreement raises DetCheckFailed.  The output is symbolic: a split pair
of level-f characters or an induced power of the level-2f character, with
the standard caveats.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from .errors import DetCheckFailed, NonMonomial
from .descent import DescentCertificate

CAVEAT_SPLIT = "restricted to inertia"
CAVEAT_INDUCED = "up to unramified twist"


@dataclass(frozen=True)
class ReductionData:
    """Per-embedding monomial shapes and u-exponent pairs."""

    mu: Tuple[Tuple[str, Tuple[int, int]], ...]   # ("I"|"S", (n_i, m_i))
    units: Tuple[tuple, ...]                      # leading k_F coefficients

    @property
    def f(self):
        return len(self.mu)

    def p_set(self) -> Tuple[int, ...]:
        """Indices whose shape is the antidiagonal S."""
        return tuple(i for i, (shape, _) in enumerate(self.mu) if shape == "S")

    def serial(self):
        return {
            "mu": [{"shape": s, "lambda": list(lam)} for s, lam in self.mu],
            "units": [[list(u) for u in us] for us in self.units],
        }


@dataclass(frozen=True)
class CharDesc:
    """Symbolic description of the semisimplified reduction."""

    shape: str                     # "Split" | "Induced"
    exponents: Tuple[int, ...]     # (a, b) mod p^f-1, or (t,) mod p^(2f)-1
    v: Tuple[int, ...]
    w: Tuple[int, ...]
    raw_sums: Tuple[int, int]      # (V, W) before reduction
    t_raw: Optional[int]
    parity_odd: bool
    caveats: Tuple[str, ...]

    def serial(self):
        return {
            "shape": self.shape,
            "exponents": list(self.exponents),
            "v": list(self.v),
            "w": list(self.w),
            "raw_sums": list(self.raw_sums),
            "t": self.t_raw,
            "parity": "odd" if self.parity_odd else "even",
            "caveats": list(self.caveats),
        }


def reduce_mod_varpi(cert: DescentCertificate):
    """Coefficientwise mod-p reduction of the descended matrices: the
    residues that `descend` certified and compared with A0's."""
    return cert.a_final_mod_p


def extract_reduction_data(reduced) -> ReductionData:
    """Read the monomial shape and exponents off each reduced matrix.

    Expects each slot to be diagonal or antidiagonal with nonzero entries
    of the form unit * u^n; anything else raises NonMonomial (outside this
    pipeline's regime; silently normalizing would hide bugs).
    """
    mus, units = [], []
    for i, m in enumerate(reduced):
        nz = [[not m[r][c].is_zero() for c in range(2)] for r in range(2)]
        if nz[0][0] and nz[1][1] and not nz[0][1] and not nz[1][0]:
            # I * Diag(u^n, u^m)
            n, mm = m[0][0].u_order(), m[1][1].u_order()
            mus.append(("I", (n, mm)))
            units.append((m[0][0].leading_unit(), m[1][1].leading_unit()))
        elif nz[0][1] and nz[1][0] and not nz[0][0] and not nz[1][1]:
            # S * Diag(u^n, u^m) = [[0, u^m], [u^n, 0]]
            n, mm = m[1][0].u_order(), m[0][1].u_order()
            mus.append(("S", (n, mm)))
            units.append((m[1][0].leading_unit(), m[0][1].leading_unit()))
        else:
            raise NonMonomial(
                f"slot {i}: matrix is not monomial (zero pattern {nz})")
    return ReductionData(tuple(mus), tuple(units))


def assign_vw(mu: ReductionData) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Block-alternating (v, w) assignment.

    v_i = n_i when the number of antidiagonal slots at index <= i is even,
    m_i otherwise; w_i is the complement.  This is the resolved form of the
    block rule; monomial_product is the normative oracle.
    """
    p_set = set(mu.p_set())
    v, w = [], []
    count = 0
    for i, (_, (n_i, m_i)) in enumerate(mu.mu):
        if i in p_set:
            count += 1
        if count % 2 == 0:
            v.append(n_i)
            w.append(m_i)
        else:
            v.append(m_i)
            w.append(n_i)
    return tuple(v), tuple(w)


def monomial_product(mu: ReductionData, p: int):
    """Brute-force ordered product prod_j phi^j(M_j u^(lambda_j)).

    Returns the 2x2 exponent matrix (entries None for zero); the
    independent oracle for assign_vw.
    """
    def slot_matrix(shape, lam, scale):
        n, m = lam
        if shape == "I":
            return ((n * scale, None), (None, m * scale))
        return ((None, m * scale), (n * scale, None))

    def mono_mul(a, b):
        out = [[None, None], [None, None]]
        for r in range(2):
            for c in range(2):
                acc = None
                for k in range(2):
                    if a[r][k] is not None and b[k][c] is not None:
                        term = a[r][k] + b[k][c]
                        if acc is not None:
                            raise NonMonomial("product of monomials collided")
                        acc = term
                out[r][c] = acc
        return tuple(tuple(row) for row in out)

    prod = None
    scale = 1
    for shape, lam in mu.mu:
        m = slot_matrix(shape, lam, scale)
        prod = m if prod is None else mono_mul(prod, m)
        scale *= p
    return prod


def character_output(v, w, p: int, f: int, parity_odd: bool) -> CharDesc:
    """Assemble the fundamental-character description from (v, w).

    Even parity: a split pair of level-f character powers.  Odd parity:
    the product [[0, u^V], [u^W, 0]] times its phi^f-twist has top-left
    exponent t = V + p^f*W, and the answer is ind omega_2f^t.  That is
    reducible iff omega_2f^t = omega_2f^(p^f t), i.e. iff p^f + 1 divides
    t, in which case it splits with both exponents t/(p^f + 1) mod p^f - 1.
    """
    big_v = sum(p ** j * vj for j, vj in enumerate(v))
    big_w = sum(p ** j * wj for j, wj in enumerate(w))
    mod_f = p ** f - 1
    t = None
    if not parity_odd:
        shape, exponents = "Split", (big_v % mod_f, big_w % mod_f)
    else:
        t = big_v + p ** f * big_w
        if t % (p ** f + 1) == 0:
            e = (t // (p ** f + 1)) % mod_f
            shape, exponents = "Split", (e, e)
        else:
            shape, exponents = "Induced", (t % (p ** (2 * f) - 1),)
    return CharDesc(
        shape=shape,
        exponents=exponents,
        v=tuple(v), w=tuple(w),
        raw_sums=(big_v, big_w),
        t_raw=t,
        parity_odd=parity_odd,
        caveats=(CAVEAT_SPLIT if shape == "Split" else CAVEAT_INDUCED,),
    )


def characterize(mu: ReductionData, p: int, shifts: Sequence[int] = ()) -> CharDesc:
    """assign_vw + character_output, cross-checked against monomial_product,
    then twisted back by the lower weights.

    `shifts` are the lower weights s_i that weight normalization took off
    each pair; the representation with weights (k_i + s_i, s_i) is the
    normalized one twisted by a character that reduces to omega_f^a with
    a = sum_i s_i p^i (the labelling of V = sum_j p^j v_j).  So a split
    pair (e1, e2) becomes (e1 + a, e2 + a) mod p^f - 1, and an induced t
    becomes t + a (p^f + 1) mod p^(2f) - 1, since omega_f = omega_2f^(p^f+1).
    Only the exponents change; v, w, the raw sums and t stay as read off.

    Raises DetCheckFailed when the brute-force product is not the monomial
    matrix with exponents (V, W) that the block rule gives.
    """
    v, w = assign_vw(mu)
    parity_odd = len(mu.p_set()) % 2 == 1
    desc = character_output(v, w, p, len(mu.mu), parity_odd)
    big_v, big_w = desc.raw_sums
    if parity_odd:
        expected = ((None, big_v), (big_w, None))
    else:
        expected = ((big_v, None), (None, big_w))
    prod = monomial_product(mu, p)
    if prod != expected:
        raise DetCheckFailed(
            f"monomial product {prod} != {expected} from assign_vw")
    a = sum(s * p ** i for i, s in enumerate(shifts))
    if not a:
        return desc
    f = len(mu.mu)
    if desc.shape == "Split":
        exponents = tuple((e + a) % (p ** f - 1) for e in desc.exponents)
    else:
        (t,) = desc.exponents
        exponents = ((t + a * (p ** f + 1)) % (p ** (2 * f) - 1),)
    return replace(desc, exponents=exponents)
