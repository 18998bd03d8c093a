"""Run the benchmark's traced check on every workload at seeds 1-3.

    python3 scripts/trace_check.py

Each run is ``perfbench/run.py --workload NAME --seed N --trace 1`` from
the repository root.  The traced run is judged incorrect when a verdict is
unexplained, the passes differ, the traced report digest differs from the
untraced one, or the spans cover less than the benchmark's floor of
`run_pipeline` time (``trace.stage_coverage``).  The script prints one line
per run with ``correct`` and the coverage, and exits 1 if any run is not
``"correct": true``.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("f1-sweep", "embeddings", "family-scan")
SEEDS = (1, 2, 3)


def traced_run(workload, seed):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    return last["correct"], last["metrics"]["trace.stage_coverage"]["value"]


def main():
    all_correct = True
    for workload in WORKLOADS:
        for seed in SEEDS:
            correct, coverage = traced_run(workload, seed)
            all_correct &= correct
            print(f"{workload:<12} seed {seed}  correct {str(correct).lower():<5}  "
                  f"stage_coverage {coverage:.4f}", flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
