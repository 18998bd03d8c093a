"""Seeded job lists.  The seed draws the O_F coefficients and, in
family-scan, the valuations of a2; the shape of each list (primes, degrees,
weights, Type patterns, how many gate stops and explicit-matrix jobs) is
fixed, so runs with different seeds do the same kind and amount of work.

Each job is ``{"config": <JobConfig dict>, "check": <what the oracle
expects>}``; only ``config`` reaches the pipeline.
"""

from __future__ import annotations

import random

from oracle import (base_change, classical, gate_bounds, gate_passes,
                    parabolic_transform, rotate)

COEFF_DIGITS = 6


def _unit(rng, p, r):
    while True:
        c = [rng.randrange(p ** COEFF_DIGITS) for _ in range(r)]
        if any(x % p for x in c):
            return c


def _type_job(rng, p, ks, types, vs, r=None):
    f = len(ks)
    r = f if r is None else r
    params = [{"type": t,
               "a1": {"coeffs": _unit(rng, p, r), "pexp": 0},
               "a2": {"coeffs": _unit(rng, p, r), "pexp": v}}
              for t, v in zip(types, vs)]
    return {"p": p, "f": f, "r": r, "weights": [[k, 0] for k in ks],
            "params": params}


def _above_gate(ks, p):
    return [b + 1 for b in gate_bounds(ks, p)]


def f1_sweep(seed):
    """f = r = 1, every k = 1..p+1 for p in {3, 5, 7, 11, 13}, Type I,
    v(a2) one above the gate bound."""
    rng = random.Random(seed)
    jobs = []
    for p in (3, 5, 7, 11, 13):
        for k in range(1, p + 2):
            cfg = _type_job(rng, p, [k], ["I"], _above_gate([k], p))
            jobs.append({"config": cfg,
                         "check": {"gate": True, "answer": classical(p, k)}})
    return jobs


# (p, f, k): period-1 all-Type-I tuples whose answer is a base change.
BASE_CHANGE = ((3, 2, 1), (3, 3, 1), (3, 4, 1), (3, 5, 1), (5, 2, 3),
               (5, 3, 2), (5, 4, 1), (7, 2, 5), (7, 3, 2), (7, 4, 1))
# (p, weights, Type pattern): mixed tuples, each followed by its one-slot
# rotation.
MIXED = ((3, (1, 2), "I II"), (3, (2, 1, 1), "II I II"),
         (3, (1, 1, 2, 1), "I II I I"), (5, (1, 3, 2), "I II II"),
         (5, (2, 3), "II I"), (5, (3, 1, 2, 3), "I II I II"),
         (7, (5, 2, 4), "II I II"))


def embeddings(seed):
    """r = f in 2..5, p in {3, 5, 7}: base-change tuples plus mixed
    Type I/II tuples with mixed weights next to their rotations."""
    rng = random.Random(seed)
    jobs = []
    for p, f, k in BASE_CHANGE:
        slot = _type_job(rng, p, [k], ["I"], _above_gate([k], p), r=f)
        cfg = dict(slot, f=f, weights=slot["weights"] * f,
                   params=slot["params"] * f)
        jobs.append({"config": cfg, "check": {
            "gate": True, "answer": base_change(classical(p, k), p, f)}})
    for p, ks, pattern in MIXED:
        cfg = _type_job(rng, p, list(ks), pattern.split(), _above_gate(ks, p))
        first = len(jobs)
        jobs.append({"config": cfg, "check": {"gate": True}})
        jobs.append({"config": rotate(cfg),
                     "check": {"gate": True, "rotation_of": first}})
    return jobs


FAMILY_P, FAMILY_R, FAMILY_K = 7, 4, (3, 3)
FAMILY_PASS, FAMILY_EXPLICIT, FAMILY_GATE = 12, 6, 6


def family_scan(seed):
    """One datum (p = 7, f = 2, r = 4, k = (3, 3), all Type I) with fresh
    residue-field coefficients per job; v(a2) drawn around the gate bound.

    Per list: FAMILY_PASS jobs that clear the gate, FAMILY_EXPLICIT of them
    again as explicit matrices (a unipotent parabolic transform), and
    FAMILY_GATE jobs that stop at the gate.
    """
    rng = random.Random(seed)
    p, ks = FAMILY_P, list(FAMILY_K)
    bounds = gate_bounds(ks, p)
    answer = base_change(classical(p, ks[0]), p, len(ks))
    jobs = []
    for _ in range(FAMILY_PASS):
        vs = [b + rng.randint(1, 2) for b in bounds]
        cfg = _type_job(rng, p, ks, ["I", "I"], vs, r=FAMILY_R)
        jobs.append({"config": cfg, "check": {"gate": True, "answer": answer}})
    for j in range(FAMILY_EXPLICIT):
        xs = [rng.randrange(p ** COEFF_DIGITS) for _ in ks]
        cfg = parabolic_transform(jobs[j]["config"], xs)
        jobs.append({"config": cfg, "check": {"gate": True, "answer": answer,
                                              "same_as": j}})
    for _ in range(FAMILY_GATE):
        vs = [b + rng.randint(-1, 2) for b in bounds]
        i = rng.randrange(len(vs))
        vs[i] = rng.randint(bounds[i] - 1, bounds[i])
        vs = [max(v, 0) for v in vs]
        cfg = _type_job(rng, p, ks, ["I", "I"], vs, r=FAMILY_R)
        jobs.append({"config": cfg,
                     "check": {"gate": gate_passes(ks, vs, p), "answer": answer}})
    return jobs


WORKLOADS = {"f1-sweep": f1_sweep, "embeddings": embeddings,
             "family-scan": family_scan}
