"""Print the job count and one SHA-256 over every benchmark report.

Runs the job lists of perfbench/workloads.py at seeds 1-3 through
JobConfig.from_dict -> run_pipeline -> to_json and hashes the reports
concatenated in order, so a refactor can show that no report byte moved.

Usage: python3 scripts/report_digest.py
"""

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from crysred.pipeline import JobConfig, run_pipeline  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

digest, count = hashlib.sha256(), 0
for make in WORKLOADS.values():
    for seed in (1, 2, 3):
        for job in make(seed):
            report = run_pipeline(JobConfig.from_dict(job["config"]))
            digest.update(report.to_json().encode())
            count += 1
print(count, digest.hexdigest())
