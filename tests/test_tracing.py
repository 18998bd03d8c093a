"""The benchmark's tracer binds program names by string; each must exist,
and installing it must leave every report byte as it is."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from test_descent import PERIODIC

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    # loaded from its file and never installed, so nothing gets wrapped
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def crysred_module(name):
    return importlib.import_module("crysred." + name)


def test_modules_import(tracing):
    for name in tracing.MODULES:
        crysred_module(name)


def test_functions_resolve(tracing):
    for mod, fn_name, _ in tracing.SPANS + tracing.LEAVES:
        assert mod in tracing.MODULES
        assert callable(getattr(crysred_module(mod), fn_name, None)), (mod, fn_name)


def test_methods_resolve(tracing):
    for mod, cls_name, meth, _ in tracing.METHOD_SPANS:
        cls = getattr(crysred_module(mod), cls_name, None)
        assert callable(getattr(cls, meth, None)), (mod, cls_name, meth)


def test_every_nonzero_product_reaches_the_kernel(tracing, monkeypatch):
    # the tracer counts `arith.conv2` by wrapping `sring._conv2_raw`, so a
    # product that bypassed that name would hide where its time went
    from crysred.pipeline import JobConfig, run_pipeline

    sring = crysred_module("sring")
    kernel, product = sring._conv2_raw, sring.s_mul
    captured, misses, nonzero = [], [], []

    def counted(*args):
        out = kernel(*args)
        captured.append((args, out))
        return out

    def checked(x, y):
        before = len(captured)
        z = product(x, y)
        if not z.is_zero():
            nonzero.append(z)
            if len(captured) != before + 1:
                misses.append((x, y))
        return z

    monkeypatch.setattr(sring, "_conv2_raw", counted)
    for name in tracing.MODULES:
        module = crysred_module(name)
        if getattr(module, "s_mul", None) is product:
            monkeypatch.setattr(module, "s_mul", checked)
    report = run_pipeline(JobConfig.from_dict(
        {"p": 3, "f": 2, "r": 2, "weights": [[1, 0], [2, 0]],
         "params": [{"type": "I", "a1": {"coeffs": [1, 1]},
                     "a2": {"coeffs": [2, 1], "pexp": 1}},
                    {"type": "II", "a1": {"coeffs": [2, 1]},
                     "a2": {"coeffs": [1, 2], "pexp": 2}}]}))
    assert report.error is None
    assert nonzero and not misses
    for args, out in captured:
        size = tracing.conv2_packed_bytes(*args)
        assert isinstance(size, int) and size > 0
        # flat operands and result: r values per slot
        ctx, a, b, _, out_len = args
        r = ctx.r
        assert len(a) % r == 0 and len(b) % r == 0
        assert len(out) == r * min(len(a) // r + len(b) // r - 1, out_len)


def test_leaf_accepts_every_kernel_call(tracing, monkeypatch):
    # `--trace 1` wraps `_conv2_raw` in the tracer's own leaf, which takes
    # positional arguments only and applies `conv2_packed_bytes` to them;
    # a kernel call that the leaf or the size rule rejected would stop the
    # traced run, so run jobs at r = 1 and r > 1 through that leaf
    from crysred.pipeline import JobConfig, run_pipeline

    tracer = tracing.Tracer()
    leaf = tracer.leaf("arith.conv2", crysred_module("arith")._conv2_raw,
                       tracing.conv2_packed_bytes)
    for name in tracing.MODULES:
        module = crysred_module(name)
        if getattr(module, "_conv2_raw", None) is not None:
            monkeypatch.setattr(module, "_conv2_raw", leaf)
    for config in ({"p": 5, "f": 1, "weights": [[3, 0]],
                    "params": [{"type": "I", "a1": 1, "a2": {"coeffs": [1], "pexp": 2}}]},
                   {"p": 3, "f": 2, "r": 2, "weights": [[1, 0], [2, 0]],
                    "params": [{"type": "I", "a1": {"coeffs": [1, 1]},
                                "a2": {"coeffs": [2, 1], "pexp": 1}},
                               {"type": "II", "a1": {"coeffs": [2, 1]},
                                "a2": {"coeffs": [1, 2], "pexp": 2}}]}):
        before = tracer.stats["arith.conv2"][0]
        report = run_pipeline(JobConfig.from_dict(config))
        assert report.error is None
        assert tracer.stats["arith.conv2"][0] > before
    assert tracer.counts["arith.conv2.packed_bytes"] > 0


# Each job list runs in a fresh interpreter, with or without the tracer
# installed, and prints its reports as one JSON list.
REPORTS_SCRIPT = """
import json, sys
if sys.argv[1] == "traced":
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
from crysred.pipeline import JobConfig, run_pipeline
reports = [run_pipeline(JobConfig.from_dict(c)).to_json() for c in json.load(sys.stdin)]
spans = len(tracer.spans) if sys.argv[1] == "traced" else 0
json.dump({"reports": reports, "spans": spans}, sys.stdout)
"""


TRACED_JOBS = {
    "f = 1": {"p": 5, "f": 1, "r": 1, "weights": [[4, 0]],
              "params": [{"type": "I", "a1": 1, "a2": {"coeffs": [1], "pexp": 2}}]},
    # a base change from Q_3 to Q_(3^4): every slot the same
    "period 1, f = 4": PERIODIC["base-change-2"],
    "period 2, f = 4": PERIODIC["I II x 2"],
    "explicit": {"p": 5, "f": 1, "weights": [[3, 0]],
                 "params": [{"matrix": [[3, -1094], [1, -365]]}]},
    "gate stop": {"p": 5, "f": 1, "weights": [[4, 0]],
                  "params": [{"type": "I", "a1": 1, "a2": {"coeffs": [1], "pexp": 1}}]},
}


def run_reports(mode):
    perfbench = os.path.dirname(TRACING)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(perfbench), "src"), perfbench]))
    out = subprocess.run([sys.executable, "-c", REPORTS_SCRIPT, mode],
                         input=json.dumps(list(TRACED_JOBS.values())),
                         capture_output=True, text=True, env=env, check=True)
    return json.loads(out.stdout)


def test_tracer_leaves_report_bytes_unchanged():
    # `perfbench/run.py --trace 1` compares the digest of a traced run with
    # an untraced one; the tracer only wraps, so every byte must agree
    plain, traced = run_reports("plain"), run_reports("traced")
    assert traced["spans"] > 0
    for name, a, b in zip(TRACED_JOBS, plain["reports"], traced["reports"]):
        assert a == b, name
    errors = [json.loads(text)["error"] for text in plain["reports"]]
    assert [e and e["stage"] for e in errors] == [None] * 4 + ["gate"]
