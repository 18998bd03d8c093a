"""Time f = 1 jobs of high weight and check their answers.

    python3 scripts/high_weight.py

For p in {3, 5, 7, 13} and k in {p, 2p, 3p}, and at p = 3 also for
k in {12, 24, 36}, where (M, nwork) grows fastest, it runs three jobs: a
Type I shorthand with v(a2) one above the valuation gate's bound
("gate+1"), its explicit twin under a parabolic transform ("explicit"),
and the same shorthand with a2 = 0 ("a_p=0").  The benchmark workloads stop at
k = p + 1, so they do not show how precision grows with the weight.

Each answer is checked against `classical` below, a copy of the
Berger-Li-Zhu answer that does not import crysred.  Per job the script
prints the preflight's (M, N, nwork), the descent's iteration bound and
the iterations run, final_prec, and the least wall time of five runs.
Each run starts from an empty prime-context cache, as a job does when the
job before it had another context.
It exits 1 if any job gives another answer or stops.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from crysred.pipeline import JobConfig, _prime_context, run_pipeline  # noqa: E402

PRIMES = (3, 5, 7, 13)
RUNS = 5


def classical(p, k):
    """Berger-Li-Zhu at large slope: ind omega_2^k, which splits as
    omega^(k/(p+1)) twice iff (p+1) | k."""
    if k % (p + 1) == 0:
        e = (k // (p + 1)) % (p - 1)
        return "Split", (e, e)
    return "Induced", (k % (p * p - 1),)


def shorthand(p, k, a2):
    return {"p": p, "f": 1, "r": 1, "weights": [[k, 0]],
            "params": [{"type": "I", "a1": 1, "a2": a2}]}


def explicit_twin(p, k, v, x=2):
    """[[x, 1 + x (a2 + y)], [1, a2 + y]] with a2 = p^v and y = -p^k x:
    C A [[1, y], [0, 1]] for A = [[0, 1], [1, a2]] and C = [[1, x], [0, 1]],
    which the pipeline's normalization must undo."""
    a2 = p ** v - p ** k * x
    return {"p": p, "f": 1, "r": 1, "weights": [[k, 0]],
            "params": [{"matrix": [[x, 1 + x * a2], [1, a2]]}]}


def weights(p):
    return (p, 2 * p, 3 * p) + ((12, 24, 36) if p == 3 else ())


def jobs():
    for p in PRIMES:
        for k in weights(p):
            v = (k - 1) // (p - 2) + 1          # c_max: one above the bound
            yield p, k, "gate+1", shorthand(p, k, {"coeffs": [1], "pexp": v})
            yield p, k, "explicit", explicit_twin(p, k, v)
            yield p, k, "a_p=0", shorthand(p, k, 0)


def main():
    print(f"{'p':>3} {'k':>3} {'job':<9} {'M':>4} {'N':>4} {'nwork':>5} "
          f"{'bound':>5} {'run':>4} {'final':>5} {'min s':>8}")
    wrong = 0
    for p, k, kind, data in jobs():
        best = float("inf")
        for _ in range(RUNS):
            _prime_context.cache_clear()
            start = time.perf_counter()
            report = run_pipeline(JobConfig.from_dict(data))
            best = min(best, time.perf_counter() - start)
        pf, descent = report.preflight, report.stages.get("descent", {})
        got = report.result and (report.result["shape"],
                                 tuple(report.result["exponents"]))
        ok = got == classical(p, k)
        wrong += not ok
        note = "" if ok else f"  WRONG: {got or report.error}"
        print(f"{p:>3} {k:>3} {kind:<9} {pf.get('M', '-'):>4} {pf.get('N', '-'):>4} "
              f"{pf.get('nwork', '-'):>5} {pf.get('iterations_estimate', '-'):>5} "
              f"{descent.get('iterations', '-'):>4} {descent.get('final_prec', '-'):>5} "
              f"{best:>8.4f}{note}")
    sys.exit(1 if wrong else 0)


if __name__ == "__main__":
    main()
