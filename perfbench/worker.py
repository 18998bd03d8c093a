"""Child process that runs one job list: JobConfig.from_dict -> run_pipeline
-> RunReport.to_json, one job after another, in this single process.

Reads ``{"configs", "seconds", "trace", "spans_path"}`` as JSON on stdin and
writes one JSON object on stdout.  Judging the outcomes is left to the
parent, which never imports the program.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import resource
import sys
import time

from speed import time_reference


def outcome_of(report):
    out = {"error": None, "char": None, "raw_sums": None, "odd": None,
           "raw_exception": None}
    if report.error is not None:
        out["error"] = [report.error["stage"], report.error["type"]]
    res = report.result
    if res is not None and "shape" in res:
        out["char"] = [res["shape"], res["exponents"]]
        out["raw_sums"] = res["raw_sums"]
        out["odd"] = res["parity"] == "odd"
    return out


def run(configs, budget_s, tracer=None):
    """Run the list once, then again while another pass is expected to end
    within `budget_s`; time each job and the reference kernel between jobs."""
    from crysred.pipeline import JobConfig, run_pipeline

    perf = time.perf_counter
    records, digests = [], []
    run_start = perf()
    for n in itertools.count():
        digest = hashlib.sha256()
        ref_before = time_reference()
        for j, config in enumerate(configs):
            if tracer is not None:
                tracer.job = n * len(configs) + j
            start = perf()
            try:
                report = run_pipeline(JobConfig.from_dict(config))
                text = report.to_json()
            except Exception as exc:  # a raw exception is a failed job, not a crash
                seconds = perf() - start
                text = f"raw exception: {type(exc).__name__}: {exc}"
                rec = {"outcome": {"raw_exception": text}}
            else:
                seconds = perf() - start
                descent = report.stages.get("descent", {})
                ctx = report.context
                rec = {
                    "outcome": outcome_of(report),
                    "context": [ctx.get(k) for k in ("p", "f", "r", "M", "N", "N_work")],
                    "final_prec": descent.get("final_prec"),
                    "iterations": descent.get("iterations"),
                    "lambda_nstar": report.stages.get("kisin", {}).get(
                        "lambda_truncation_index"),
                }
            digest.update(text.encode())
            digest.update(b"\n")
            ref_after = time_reference()
            rec.update({"pass": n, "job": j, "seconds": seconds,
                        "ref_before": ref_before, "ref_after": ref_after})
            records.append(rec)
            ref_before = ref_after
        digests.append(digest.hexdigest())
        elapsed = perf() - run_start
        if elapsed + elapsed / (n + 1) > budget_s:
            return {"records": records, "digests": digests}


def main():
    spec = json.load(sys.stdin)
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    out = run(spec["configs"], spec["seconds"], tracer)
    if tracer is not None:
        tracer.job = None
        out["trace"] = tracer.summary()
        tracer.write_spans(spec["spans_path"])
    # ru_maxrss is in KiB on Linux
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
