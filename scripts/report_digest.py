"""Print the job count and two SHA-256 digests over every benchmark report,
the descent steps certified empty, then the line counts of the package and
of the tests.

Runs the job lists of perfbench/workloads.py at seeds 1-3 through
JobConfig.from_dict -> run_pipeline -> to_json.  The first line hashes the
reports concatenated in order, so a refactor can show that no report byte
moved.  The second line hashes only the answers: each report's `result`
block and its error `stage` and `type`.  A change that moves `context`,
`preflight` or `final_prec` changes the first line; the second shows
whether any answer moved.  scripts/reports.sha256 and
scripts/answers.sha256 pin the two lines for the tier-1 workflow.  Each list then runs again in reverse order in
the same process; when a report differs from its forward-order run, the
script names the first such job on stderr and exits 1, since a report must
not depend on the jobs run before it.  The third line counts, over the
forward runs, the descent steps that `descent._certified_empty` certifies
empty and all the steps it was asked about (each computed step once);
scripts/certified_steps.txt pins it, so losing the shortcut fails the
tier-1 workflow even when no report byte moves.  The fourth line counts
the lines of src/crysred/*.py and of tests/*.py, so a refactor reports its
size with its digests.

Usage: python3 scripts/report_digest.py
"""

import glob
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import crysred.descent  # noqa: E402
from crysred.pipeline import JobConfig, run_pipeline  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

steps = {"counting": True, "asked": 0, "certified": 0}
certify = crysred.descent._certified_empty


def counted(c, a, unit):
    w = certify(c, a, unit)
    if steps["counting"]:
        steps["asked"] += 1
        steps["certified"] += w is not None
    return w


crysred.descent._certified_empty = counted


def report(job):
    return run_pipeline(JobConfig.from_dict(job["config"])).to_json()


def line_count(pattern):
    total = 0
    for path in glob.glob(os.path.join(ROOT, pattern)):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def answer(text):
    out = json.loads(text)
    error = out["error"] and {k: out["error"][k] for k in ("stage", "type")}
    return json.dumps({"result": out["result"], "error": error}, sort_keys=True)


digest, answers, count, differs = hashlib.sha256(), hashlib.sha256(), 0, None
for name, make in WORKLOADS.items():
    for seed in (1, 2, 3):
        jobs = make(seed)
        steps["counting"] = True
        forward = [report(job) for job in jobs]
        steps["counting"] = False
        for text in forward:
            digest.update(text.encode())
            answers.update(answer(text).encode())
        count += len(forward)
        backward = [report(job) for job in reversed(jobs)][::-1]
        if differs is None:
            differs = next((f"{name} seed {seed} job {j}"
                            for j, (a, b) in enumerate(zip(forward, backward))
                            if a != b), None)
print(count, digest.hexdigest())
print(count, answers.hexdigest(), "answers")
print(f"{steps['certified']} of {steps['asked']} descent steps certified empty")
print(", ".join(f"{line_count(part)} lines in {part}"
                for part in ("src/crysred/*.py", "tests/*.py")))
if differs is not None:
    print(f"report differs in reverse order: {differs}", file=sys.stderr)
    sys.exit(1)
