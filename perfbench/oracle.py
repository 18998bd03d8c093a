"""Answers the benchmark checks job outcomes against.

Nothing here imports `crysred`: every expected answer comes from the
classical f = 1 result and from relations between jobs, so a defect in
the pipeline cannot hide itself by also shaping the check.

A character is a pair ``(shape, exponents)``:

* ``("Split", (a, b))``   means omega_f^a + omega_f^b, exponents mod p^f - 1;
* ``("Induced", (t,))``   means ind omega_2f^t, exponent mod p^2f - 1.

Both are read restricted to inertia and up to the choice of embedding,
which multiplies every exponent by the same power of p.
"""

from __future__ import annotations

SPLIT, INDUCED = "Split", "Induced"


def gate_bounds(ks, p):
    """Per-slot bound the large-valuation gate needs v(a2) to exceed.

    bound_i = max(c_i - 1, c_max - c_i - 1) with c_i = ceil(k_i / (p - 2)).
    """
    cs = [-(-k // (p - 2)) for k in ks]
    c_max = max(cs)
    return [max(c - 1, c_max - c - 1) for c in cs]


def gate_passes(ks, vs, p):
    return all(v > b for v, b in zip(vs, gate_bounds(ks, p)))


def classical(p, k):
    """The f = 1 reduction at large slope (Berger-Li-Zhu, Math. Ann. 329).

    ind omega_2^k, which splits as omega^(k/(p+1)) twice when (p+1) | k.
    Here k is the normalized weight, k_BL - 1.
    """
    if k % (p + 1) == 0:
        e = (k // (p + 1)) % (p - 1)
        return SPLIT, (e, e)
    return INDUCED, (k % (p * p - 1),)


def base_change(char, p, f):
    """Restrict an f = 1 character to the unramified field of degree f.

    omega_1 = omega_f^((p^f-1)/(p-1)); for odd f the level-2 character
    becomes omega_2f^((p^2f-1)/(p^2-1)) and stays induced, for even f it is
    omega_f^((p^f-1)/(p^2-1)) and the induced character splits.
    """
    shape, ex = char
    mod_f = p ** f - 1
    if shape == SPLIT:
        s = mod_f // (p - 1)
        return SPLIT, tuple(e * s % mod_f for e in ex)
    (t,) = ex
    if f % 2:
        return INDUCED, (t * ((p ** (2 * f) - 1) // (p * p - 1)) % (p ** (2 * f) - 1),)
    q = mod_f // (p * p - 1)
    return SPLIT, (t * q % mod_f, t * q * p % mod_f)


def equivalent(a, b, p, f):
    """Same character up to a common factor p^j on the exponents."""
    if a[0] != b[0]:
        return False
    if a[0] == SPLIT:
        mod, turns = p ** f - 1, f
        target = sorted(e % mod for e in b[1])
        return any(sorted(e * p ** j % mod for e in a[1]) == target
                   for j in range(turns))
    mod = p ** (2 * f) - 1
    (t,), (u,) = a[1], b[1]
    return any(t * p ** j % mod == u % mod for j in range(2 * f))


def rotate(config):
    """The same job with every per-slot list moved one slot round."""
    out = dict(config)
    out["weights"] = config["weights"][1:] + config["weights"][:1]
    out["params"] = config["params"][1:] + config["params"][:1]
    return out


def parabolic_transform(config, xs):
    """Explicit matrices equivalent to an all-Type-I job under C (x) Delta.

    Slot i becomes B_i = C_i A_i [[1, -p^k_(i-1) x_(i-1)], [0, 1]] with
    A_i = [[0, a1], [1, a2]] and C_i = [[1, x_i], [0, 1]].  The x_i are
    integers, so the products need no residue-field arithmetic; the
    pipeline's normalization must undo the transform exactly.
    """
    p, f = config["p"], config["f"]
    ks = [max(w) - min(w) for w in config["weights"]]
    mats = []
    for i, slot in enumerate(config["params"]):
        if slot["type"] != "I":
            raise ValueError("parabolic_transform expects Type I slots")
        a1 = _coord_vector(slot["a1"], p)
        a2 = _coord_vector(slot["a2"], p)
        x = xs[i]
        y = -(p ** ks[i - 1]) * xs[i - 1]
        top_right = [u + x * w for u, w in zip(a1, a2)]
        top_right[0] += x * y
        bottom_right = list(a2)
        bottom_right[0] += y
        mats.append({"matrix": [[x, {"coeffs": top_right}],
                                [1, {"coeffs": bottom_right}]]})
    out = dict(config)
    out["params"] = mats
    return out


def _coord_vector(spec, p):
    if isinstance(spec, int):
        return [spec]
    return [c * p ** spec.get("pexp", 0) for c in spec["coeffs"]]


# ---------------------------------------------------------------------------
# Known defects of `reduction.character_output`
# ---------------------------------------------------------------------------
#
# The seed pipeline reads the induced exponent as t = p*W + V and splits
# when (p^f - 1) | t.  The right rule is t = V + p^f*W, split iff
# (p^f + 1) | t, with both exponents t / (p^f + 1).  The two agree on t only
# at f = 1.  A wrong answer counts as one of these defects only when the
# report reproduces the defective formula exactly from its own raw sums and
# the corrected formula satisfies the same check.

DEFECT_SPLIT = "split-criterion"
DEFECT_T = "t-formula"
OK, WRONG, RAW = "ok", "wrong", "raw-exception"
EXPLAINED = (OK, DEFECT_SPLIT, DEFECT_T)


def seed_formula(raw, odd, p, f):
    """The character the defective read-off produces from (V, W)."""
    v, w = raw
    mod_f, mod_2f = p ** f - 1, p ** (2 * f) - 1
    if not odd:
        return SPLIT, (v % mod_f, w % mod_f)
    t = p * w + v
    if t % mod_f == 0:
        e = (t // mod_f) % mod_f
        return SPLIT, (e, e)
    return INDUCED, (t % mod_2f,)


def corrected_formula(raw, odd, p, f):
    """The character the right read-off gives from the same (V, W)."""
    v, w = raw
    mod_f, mod_2f = p ** f - 1, p ** (2 * f) - 1
    if not odd:
        return SPLIT, (v % mod_f, w % mod_f)
    t = v + p ** f * w
    if t % (p ** f + 1) == 0:
        e = (t // (p ** f + 1)) % mod_f
        return SPLIT, (e, e)
    return INDUCED, (t % mod_2f,)


def explain(outcome, p, f):
    """OK when the defects leave this answer alone, the defect's name when
    the answer is exactly what the defective read-off makes of the raw
    sums, WRONG otherwise."""
    got = outcome["char"]
    raw, odd = outcome["raw_sums"], outcome["odd"]
    if got == corrected_formula(raw, odd, p, f):
        return OK
    if got != seed_formula(raw, odd, p, f):
        return WRONG
    v, w = raw
    return DEFECT_T if odd and p * w != p ** f * w else DEFECT_SPLIT


# ---------------------------------------------------------------------------
# Judging a job list
# ---------------------------------------------------------------------------

def judge(jobs, outcomes):
    """Classify each job's outcome: ok, a named known defect, wrong or raw.

    An outcome is a dict with ``char`` (a character tuple or None),
    ``raw_sums``, ``odd``, ``error`` ((stage, type) or None) and
    ``raw_exception`` (None unless an exception escaped `run_pipeline`).

    `jobs[i]["check"]` says what job i must satisfy:

    * ``gate``     -- the gate outcome predicted from weights and v(a2);
    * ``answer``   -- an absolute character (classical or base change);
    * ``same_as``  -- index of a job whose character must be identical;
    * ``rotation_of`` -- index of a job whose character must be equivalent.
    """
    verdicts = [_judge_one(job, out, outcomes) for job, out in zip(jobs, outcomes)]
    for i, job in enumerate(jobs):
        j = job["check"].get("rotation_of")
        if j is None:
            continue
        for idx, verdict in zip((j, i), _judge_pair(job, outcomes[j], outcomes[i])):
            if verdicts[idx] == OK:
                verdicts[idx] = verdict
    return verdicts


def _judge_one(job, out, outcomes):
    cfg, check = job["config"], job["check"]
    p, f = cfg["p"], cfg["f"]
    if out.get("raw_exception"):
        return RAW
    if not check["gate"]:
        ok = out.get("error") == ("gate", "GateFailed")
        return OK if ok else WRONG
    if out.get("error") is not None or out.get("char") is None:
        return WRONG
    j = check.get("same_as")
    if j is not None and out["char"] != outcomes[j].get("char"):
        return WRONG
    answer = check.get("answer")
    if answer is None or equivalent(out["char"], answer, p, f):
        return OK
    if equivalent(corrected_formula(out["raw_sums"], out["odd"], p, f),
                  answer, p, f):
        return explain(out, p, f)
    return WRONG


def _judge_pair(job, out_a, out_b):
    """Verdicts for a job and its rotation, which must be equivalent."""
    p, f = job["config"]["p"], job["config"]["f"]
    pair = (out_a, out_b)
    if any(o.get("char") is None for o in pair):
        return WRONG, WRONG
    if equivalent(out_a["char"], out_b["char"], p, f):
        return OK, OK
    fixed = [corrected_formula(o["raw_sums"], o["odd"], p, f) for o in pair]
    if equivalent(*fixed, p, f):
        return tuple(explain(o, p, f) for o in pair)
    return WRONG, WRONG
