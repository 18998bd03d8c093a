"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py BASE CHANGE --workload NAME --seed N \
        --pairs N [--seconds S]

Each pair runs ``perfbench/run.py --workload NAME --seed N --seconds S
--trace 0`` once in each checkout, from that checkout's root, and reads
the metrics from the last line of its stdout.  The order flips from one
pair to the next (base first, then change first), so a drift in machine
speed falls on both sides.  Each run's values go to stderr as it ends.

For every end-to-end metric that BENCHMARK.json of BASE declares, the
script prints each side's median and quartiles, the number of pairs in
which the change was better (by the metric's ``better`` direction; a tie
is no win) and the median of the change/base ratios.  It exits 1 if any
run does not end with ``"correct": true``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    return last["correct"], {k: v["value"] for k, v in last["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35)
    args = ap.parse_args(argv)

    with open(os.path.join(args.base, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    sides = {"base": args.base, "change": args.change}
    results = {"base": [], "change": []}
    all_correct = True
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            correct, metrics = run(sides[side], args.workload, args.seed, args.seconds)
            all_correct &= correct
            results[side].append(metrics)
            print(json.dumps({"pair": i + 1, "side": side, "correct": correct,
                              "metrics": metrics}), file=sys.stderr, flush=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s")
    print(f"{'metric':<16} {'base median [q1, q3]':>32} {'change median [q1, q3]':>32}"
          f" {'won':>6} {'ratio':>7}")
    for name, direction in better.items():
        base = [m[name] for m in results["base"] if name in m]
        change = [m[name] for m in results["change"] if name in m]
        if len(base) != args.pairs or len(change) != args.pairs:
            continue
        sign = 1 if direction == "higher" else -1
        won = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        ratios = [c / b for b, c in zip(base, change) if b]
        ratio = f"{statistics.median(ratios):.3f}" if ratios else "-"
        cols = []
        for values in (base, change):
            q1, q2, q3 = quartiles(values)
            cols.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}]")
        print(f"{name:<16} {cols[0]:>32} {cols[1]:>32} {won:>3}/{args.pairs:<2} {ratio:>7}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
