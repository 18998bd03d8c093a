"""Benchmark for the crysred pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The seeded job list of the workload goes
through the pipeline in a child process, one job after another (a closed
loop with one client), and every outcome is checked against `oracle.py`.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the list
once untraced and once with spans around the layer entry points, prints
the per-layer metrics and writes the spans to ``.bench_out/``.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it gives the details (report digest,
verdict counts, tail percentile, context repeat share).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, HERE)
import oracle  # noqa: E402
from speed import scaled, time_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 15
TAIL_BEYOND = 10
MIN_COVERAGE = 0.95


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    return env


def measure_setup():
    """Median wall time of a fresh interpreter importing crysred.pipeline,
    speed-scaled like the job times."""
    cmd = [sys.executable, "-c", "import crysred.pipeline"]
    # the first import also compiles the bytecode cache
    subprocess.run(cmd, env=child_env(), check=True, cwd=ROOT)
    times = []
    ref_before = time_reference()
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(cmd, env=child_env(), check=True, cwd=ROOT)
        wall = time.perf_counter() - start
        ref_after = time_reference()
        times.append(scaled(wall, ref_before, ref_after))
        ref_before = ref_after
    return statistics.median(times)


def run_worker(configs, seconds, trace, spans_path=None):
    """Run the job list in a child process and return its output."""
    spec = json.dumps({"configs": configs, "seconds": seconds, "trace": trace,
                       "spans_path": spans_path})
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    try:
        stdout, _ = proc.communicate(spec.encode())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(stdout)


def outcomes_of(records, n_jobs):
    out = [None] * n_jobs
    for rec in records:
        if rec["pass"] == 0:
            o = dict(rec["outcome"])
            if o.get("char") is not None:
                o["char"] = (o["char"][0], tuple(o["char"][1]))
                o["raw_sums"] = tuple(o["raw_sums"])
            if o.get("error") is not None:
                o["error"] = tuple(o["error"])
            out[rec["job"]] = o
    return out


def context_repeat_share(records):
    seen, repeats, n = set(), 0, 0
    for rec in records:
        if rec["pass"] != 0:
            continue
        n += 1
        key = tuple(rec["context"]) if rec.get("context") else None
        if key is not None and key in seen:
            repeats += 1
        seen.add(key)
    return repeats / n


def tail(times):
    """Highest order statistic with TAIL_BEYOND samples above it."""
    xs = sorted(times)
    n = len(xs)
    if n <= TAIL_BEYOND:
        raise SystemExit(f"{n} job samples; the tail needs more than {TAIL_BEYOND}")
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def metric(value, unit):
    return {"value": value, "unit": unit}


def scaled_seconds(rec):
    return scaled(rec["seconds"], rec["ref_before"], rec["ref_after"])


def job_times(records, n_jobs):
    """Each job's speed-scaled wall time, averaged over the passes."""
    sums, counts = [0.0] * n_jobs, [0] * n_jobs
    for rec in records:
        sums[rec["job"]] += scaled_seconds(rec)
        counts[rec["job"]] += 1
    return [s / c for s, c in zip(sums, counts)]


def end_to_end(jobs, seconds):
    setup_s = measure_setup()
    out = run_worker([j["config"] for j in jobs], seconds, False)
    times = job_times(out["records"], len(jobs))
    tail_s, tail_q = tail(times)
    final = [r["final_prec"] for r in out["records"]
             if r["pass"] == 0 and r.get("final_prec") is not None]
    metrics = {
        "jobs_per_s": metric(len(times) / sum(times), "1/s"),
        "job_p50_s": metric(statistics.median(times), "s"),
        "job_tail_s": metric(tail_s, "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(out["peak_rss_kb"] / 1024.0, "MB"),
        "final_prec_min": metric(min(final) if final else 0, "digits"),
    }
    detail = {"samples": len(times), "tail_percentile": tail_q}
    return out, metrics, detail


def per_layer(jobs, name, seed):
    configs = [j["config"] for j in jobs]
    plain = run_worker(configs, 0, False)
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{name}-{seed}.json")
    traced = run_worker(configs, 0, True, spans_path)
    tr = traced["trace"]
    stats, counts = tr["stats"], tr["counts"]
    records = traced["records"]

    def calls(key):
        return stats.get(key, [0, 0.0, 0.0])[0]

    def self_s(key):
        return stats.get(key, [0, 0.0, 0.0])[1]

    m = {}
    for key in ("arith.conv2", "arith.fold_w", "arith.of_mul", "arith.context",
                "sring.s_mul", "sring.s_frobenius", "sring.s_invert",
                "sring.lambda_power", "sring.to_useries"):
        m[key + ".calls"] = metric(calls(key), "count")
        m[key + ".self_s"] = metric(self_s(key), "s")
    m["arith.conv2.packed_bytes"] = metric(
        counts.get("arith.conv2.packed_bytes", 0), "B-computed")
    m["arith.ctx_cache.hits"] = metric(counts.get("arith.ctx_cache.hits", 0), "count")
    m["arith.ctx_cache.builds"] = metric(counts.get("arith.ctx_cache.builds", 0), "count")
    m["arith.ctx_cache.build_s"] = metric(
        stats.get("arith.ctx_cache", [0, 0.0, 0.0])[2], "s")
    m["sring.s_invert.newton_steps"] = metric(
        counts.get("sring.s_invert.newton_steps", 0), "count")
    for key in ("lattices.parabolic_normalize", "lattices.reducibility_detect",
                "lattices.frobenius_f_product", "kisin.build_kisin_frobenius",
                "kisin.det_normalize", "descent.prepare",
                "descent.check_descent_assumptions", "descent.descend",
                "pipeline.preflight_precision", "pipeline.run_pipeline",
                "pipeline.to_json"):
        m[key + ".self_s"] = metric(self_s(key), "s")
    m["kisin.lambda_truncation_index"] = metric(
        sum(r.get("lambda_nstar") or 0 for r in records), "count")
    m["descent.iterations"] = metric(
        sum(r.get("iterations") or 0 for r in records), "count")
    m["reduction.self_s"] = metric(
        sum(self_s("reduction." + f) for f in
            ("reduce_mod_varpi", "extract_reduction_data", "characterize")), "s")
    m["pipeline.stops"] = metric(
        sum(1 for r in records if (r["outcome"].get("error") is not None)), "count")
    m["pipeline.raw_exceptions"] = metric(
        sum(1 for r in records if r["outcome"].get("raw_exception")), "count")
    m["trace.overhead_ratio"] = metric(
        sum(map(scaled_seconds, records))
        / sum(map(scaled_seconds, plain["records"])), "ratio")
    m["trace.stage_coverage"] = metric(tr["stage_coverage"], "ratio")
    detail = {"spans": tr["n_spans"],
              "spans_file": os.path.relpath(spans_path, ROOT),
              "untraced_digest": plain["digests"][0]}
    checks_ok = (tr["stage_coverage"] >= MIN_COVERAGE
                 and plain["digests"] == traced["digests"])
    return traced, m, detail, checks_ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "crysred", "pipeline.py")):
        print(f"no crysred sources under {SRC}", file=sys.stderr)
        return 2

    jobs = WORKLOADS[args.workload](args.seed)
    if args.trace:
        out, metrics, detail, checks_ok = per_layer(jobs, args.workload, args.seed)
    else:
        out, metrics, detail = end_to_end(jobs, args.seconds)
        checks_ok = True

    verdicts = oracle.judge(jobs, outcomes_of(out["records"], len(jobs)))
    n_passes = len(out["digests"])
    attempted = len(jobs) * n_passes
    failed = sum(v != oracle.OK for v in verdicts) * n_passes
    unexplained = [i for i, v in enumerate(verdicts) if v not in oracle.EXPLAINED]
    deterministic = len(set(out["digests"])) == 1
    if not args.trace:
        metrics["ok_ratio"] = metric(1.0 - failed / attempted, "ratio")

    detail.update({
        "workload": args.workload, "seed": args.seed, "jobs": len(jobs),
        "passes": n_passes,
        "report_sha256": out["digests"][0],
        "deterministic": deterministic,
        "context_repeat_share": context_repeat_share(out["records"]),
        "verdicts": Counter(verdicts),
        "unexplained_jobs": unexplained,
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not unexplained and deterministic and checks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
