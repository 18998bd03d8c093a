"""Spans around the program's layer entry points, installed from outside.

`install` replaces each entry point with a timing wrapper in every
`crysred` module that binds it (``sring`` imports the ``arith`` kernels by
name, so patching ``arith`` alone would miss most calls).  Nothing in the
program changes on disk.

Two kinds of wrapper:

* a *span* records (name, start, end, parent span, job) in memory and adds
  its own time to the open parent's child time, so self time is span time
  minus child time;
* a *leaf* (the arith kernels, called up to ~3 x 10^5 times per job) keeps only
  a call count and total time, which it adds to the parent's child time.
  Its bookkeeping after the call is charged to no layer, which keeps the
  parent's self time from absorbing the tracing cost.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

MODULES = ("arith", "sring", "lattices", "kisin", "descent", "reduction",
           "pipeline")

# (defining module, function, span name): module-level entry points.  The
# stage functions beyond the reported ones are spanned so that the stage
# spans account for the time `run_pipeline` spends.
SPANS = (
    ("sring", "s_mul", "sring.s_mul"),
    ("sring", "s_frobenius", "sring.s_frobenius"),
    ("sring", "s_invert", "sring.s_invert"),
    ("sring", "lambda_power", "sring.lambda_power"),
    ("lattices", "normalize_weights", "lattices.normalize_weights"),
    ("lattices", "classify_type", "lattices.classify_type"),
    ("lattices", "parabolic_normalize", "lattices.parabolic_normalize"),
    ("lattices", "verify_parabolic_equiv", "lattices.verify_parabolic_equiv"),
    ("lattices", "reducibility_detect", "lattices.reducibility_detect"),
    ("lattices", "frobenius_f_product", "lattices.frobenius_f_product"),
    ("kisin", "build_kisin_frobenius", "kisin.build_kisin_frobenius"),
    ("kisin", "det_normalize", "kisin.det_normalize"),
    ("descent", "compute_budget", "descent.compute_budget"),
    ("descent", "valuation_gate", "descent.valuation_gate"),
    ("descent", "prepare", "descent.prepare"),
    ("descent", "check_descent_assumptions", "descent.check_descent_assumptions"),
    ("descent", "descend", "descent.descend"),
    ("reduction", "reduce_mod_varpi", "reduction.reduce_mod_varpi"),
    ("reduction", "extract_reduction_data", "reduction.extract_reduction_data"),
    ("reduction", "characterize", "reduction.characterize"),
    ("pipeline", "preflight_precision", "pipeline.preflight_precision"),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline"),
)
# (module, class, method, span name)
METHOD_SPANS = (
    ("arith", "PrimeContext", "__init__", "arith.context"),
    ("sring", "SElem", "to_useries", "sring.to_useries"),
    ("pipeline", "RunReport", "to_json", "pipeline.to_json"),
)
LEAVES = (
    ("arith", "_conv2_raw", "arith.conv2"),
    ("arith", "_fold_w", "arith.fold_w"),
    ("arith", "_of_mul_raw", "arith.of_mul"),
)


def conv2_packed_bytes(ctx, a, b, mod, out_len=None):
    """Bytes of the two Kronecker-packed operands of one `_conv2_raw` call,
    computed from the operand sizes with the kernel's slot-width rule."""
    la, lb = len(a), len(b)
    if not la or not lb:
        return 0
    cap = min(la, lb) * ctx.r * (mod - 1) * (mod - 1) + 1
    width = (cap.bit_length() + 7) // 8
    return width * (la + lb) * 2 * ctx.r


class Tracer:
    def __init__(self):
        self.spans = []                       # (name, start, end, parent, job)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, self, total
        self.counts = defaultdict(int)
        self.stack = []                       # [child seconds, span index, n children]
        self.job = None

    # -- wrappers -------------------------------------------------------------

    def span(self, name, fn, on_close=None):
        spans, stack, stats = self.spans, self.stack, self.stats
        perf = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            if stack:
                parent = stack[-1]
                parent[2] += 1
                parent_idx = parent[1]
            else:
                parent_idx = -1
            frame = [0.0, idx, 0]
            spans.append(None)
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                st = stats[name]
                st[0] += 1
                st[1] += dur - frame[0]
                st[2] += dur
                if stack:
                    stack[-1][0] += dur
                spans[idx] = (name, start, end, parent_idx, self.job)
                if on_close is not None:
                    on_close(frame)

        return traced

    def leaf(self, name, fn, size=None):
        stack, st, counts = self.stack, self.stats[name], self.counts
        perf = time.perf_counter

        def traced(*args):
            start = perf()
            try:
                return fn(*args)
            finally:
                dur = perf() - start
                st[0] += 1
                st[1] += dur
                st[2] += dur
                if size is not None:
                    counts[name + ".packed_bytes"] += size(*args)
                if stack:
                    stack[-1][0] += perf() - start

        return traced

    # -- installation -------------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module("crysred." + m) for m in MODULES}
        replace = {}
        for mod, fn_name, name in SPANS:
            fn = getattr(mods[mod], fn_name)
            on_close = self._newton_steps if name == "sring.s_invert" else None
            replace[id(fn)] = self.span(name, fn, on_close)
        for mod, fn_name, name in LEAVES:
            fn = getattr(mods[mod], fn_name)
            size = conv2_packed_bytes if name == "arith.conv2" else None
            replace[id(fn)] = self.leaf(name, fn, size)
        # rebind every module-level name that refers to a wrapped function
        for module in mods.values():
            for attr, value in list(vars(module).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        for mod, cls_name, meth, name in METHOD_SPANS:
            cls = getattr(mods[mod], cls_name)
            setattr(cls, meth, self.span(name, getattr(cls, meth)))
        self._install_cache(mods["arith"].PrimeContext)

    def _install_cache(self, cls):
        """Count context-cache hits and builds; a build is a span."""
        original, counts = cls.cache, self.counts
        build = self.span("arith.ctx_cache", lambda make: make())

        def cache(ctx, key, make):
            built = []

            def timed_make():
                built.append(True)
                return build(make)

            out = original(ctx, key, timed_make)
            counts["arith.ctx_cache.builds" if built else "arith.ctx_cache.hits"] += 1
            return out

        cls.cache = cache

    def _newton_steps(self, frame):
        # each Newton step is a check product and an update product; the
        # converged step stops after its check
        self.counts["sring.s_invert.newton_steps"] += (frame[2] + 1) // 2

    # -- results ------------------------------------------------------------------

    def stage_coverage(self):
        """Share of `run_pipeline` time covered by its direct child spans."""
        total = covered = 0.0
        roots = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            if name == "pipeline.run_pipeline":
                roots[idx] = end - start
                total += end - start
        for name, start, end, parent, _ in self.spans:
            if parent in roots:
                covered += end - start
        return covered / total if total else 0.0

    def summary(self):
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts),
                "stage_coverage": self.stage_coverage(),
                "n_spans": len(self.spans)}

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh, separators=(",", ":"))
