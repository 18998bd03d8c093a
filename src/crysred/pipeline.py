"""Job configuration, precision preflight and pipeline orchestration.

A job fixes (p, f, r), the raw weight pairs, and per-embedding parameters
(Type shorthand or explicit matrices).  `run_pipeline` executes the stages

    preflight -> weights -> config -> normalize -> reducibility -> slopes ->
    gate -> build -> det_normalize -> prepare -> assumptions -> descend ->
    reduce -> extract -> characterize

stopping with a stage-tagged error at the first hard failure, and returns
a deterministic report: an identical config gives byte-identical JSON
(timings are only embedded on request).  A failed built-in self-check
stops the job like any other failure, with exit code EXIT_INTERNAL.

Consecutive jobs with the same context (p, f, r, N, M, nwork) share one
`PrimeContext` and with it the work cached on it: gamma^(-1) and its
powers, the lambda_b powers, the w-powers and the product tables.  Every
cached value depends on the context and its key alone, so a report does
not depend on the jobs run before it or on their order.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from . import __version__
from .arith import OFElem, PrimeContext, _is_prime
from .errors import ConfigError, CrysredError, PrecisionExhausted
from .descent import (
    check_descent_assumptions,
    compute_budget,
    descend,
    estimate_iterations,
    prepare,
    valuation_gate,
)
from .kisin import build_kisin_frobenius, det_normalize
from .lattices import (
    ReducibilityVerdict,
    TypeTag,
    classify_lattice,
    classify_type,
    frobenius_f_product,
    normalize_weights,
    parabolic_normalize,
    reducibility_detect,
    verify_parabolic_equiv,
)
from .reduction import characterize, extract_reduction_data, reduce_mod_varpi


@dataclass
class JobConfig:
    p: int
    f: int
    weights: List[List[int]]
    params: List[dict]
    r: Optional[int] = None
    precision: Optional[Tuple[int, int]] = None   # (M, N) override

    @classmethod
    def from_dict(cls, data: dict) -> "JobConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a table/object")
        required = {"p", "f", "weights", "params"}
        missing = required - set(data)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        _reject_unknown(data, required | {"r", "precision"})
        precision = data.get("precision")
        cfg = cls(
            p=data["p"], f=data["f"],
            weights=data["weights"], params=data["params"],
            r=data.get("r"),
            precision=tuple(precision) if isinstance(precision, list) else precision,
        )
        cfg.validate()
        return cfg

    def validate(self):
        if not _is_int(self.p) or self.p < 3 or not _is_prime(self.p):
            raise ConfigError("p must be an odd prime >= 3")
        if not _is_int(self.f) or self.f < 1:
            raise ConfigError("f must be a positive integer")
        if self.r is not None and (not _is_int(self.r) or self.r < 1
                                   or self.r % self.f != 0):
            raise ConfigError("r must be a positive multiple of f")
        if not isinstance(self.weights, list) or len(self.weights) != self.f:
            raise ConfigError(f"weights must be a list of {self.f} pairs")
        if not all(_is_int_seq(pair) for pair in self.weights):
            raise ConfigError("weights must be lists of integers")
        if not isinstance(self.params, list) or len(self.params) != self.f:
            raise ConfigError(f"params must be a list of {self.f} entries")
        if self.precision is not None:
            if not _is_int_seq(self.precision) or len(self.precision) != 2:
                raise ConfigError("precision override (M, N) must be two integers")
            m, n = self.precision
            if m < 2 or n < 1:
                raise ConfigError("precision override (M, N) must be >= (2, 1)")
        for i, entry in enumerate(self.params):
            if not isinstance(entry, dict):
                raise ConfigError(f"params[{i}] must be a table")
            if "matrix" in entry:
                _reject_unknown(entry, {"matrix"}, f"params[{i}]: ")
                mat = entry["matrix"]
                if not isinstance(mat, list) or len(mat) != 2 or any(
                        not isinstance(row, list) or len(row) != 2 for row in mat):
                    raise ConfigError(f"params[{i}].matrix must be 2x2")
            elif "type" in entry:
                _reject_unknown(entry, {"type", "a1", "a2"}, f"params[{i}]: ")
                if entry["type"] not in ("I", "II"):
                    raise ConfigError(f"params[{i}].type must be 'I' or 'II'")
                if "a1" not in entry or "a2" not in entry:
                    raise ConfigError(f"params[{i}] needs a1 and a2")
            else:
                raise ConfigError(f"params[{i}] needs 'type' or 'matrix'")

    def serial(self):
        return {
            "p": self.p, "f": self.f, "r": self.r,
            "weights": [list(w) for w in self.weights],
            "params": self.params,
            "precision": list(self.precision) if self.precision else None,
        }


def preflight_precision(cfg: JobConfig) -> dict:
    """Choose (M, N) and the working precision nwork from (p, k, c_max).

    Certificate.  The pipeline applies phi in two places, `prepare`'s
    phi(x^(i)) and `descend`'s phi(C/E^(k_i) B).  In both the input has
    just been divided by E^(k_i), so it is known only modulo
    Fil^(M - k_i), not Fil^M.  Since phi(Fil^j) lies in
    p^(j - floor(j/p)) S_F and j - floor(j/p) never decreases in j, the
    image is exact modulo p^b with b = (M - k_max) - floor((M - k_max)/p).
    Elements start at precision nwork and only lose digits from there (a
    raised denominator p^d multiplies the numerator by the p^t it adds to
    the precision, and phi commutes with it), so nwork <= b means that no
    digit the run claims is one the truncation at E^M could reach.  Sums,
    products and multiplication by E^k stay exact modulo Fil^M.

    nwork(M) = N + floor((M-1)/p) + 1 + c_max + ceil(k_max/p) (iters + 2) + 4:
    `residue()` needs precision above floor((M-1)/p), the preparation's
    x^(i) carry denominators up to p^(c_max), each E^(k_i) division of the
    `iters` descent steps (`estimate_iterations` at M) costs at most
    ceil(k_max/p) digits, and 4 digits are spare.

    Default: N = max(k_max + 2, c_max + 4) and the least
    M > max(k_max, p c_max) with b(M) >= nwork(M).  An override (M, N)
    keeps its M and N and gets nwork = min(nwork(M), b(M)); it stops with
    PrecisionExhausted when b(M) < N.  That covers M <= k_max, where
    E^(k_i) = 0 mod E^M and b(M) <= 0.
    """
    weights = normalize_weights(cfg.weights)
    budget = compute_budget(weights, cfg.p)
    p, k_max, c_max = cfg.p, weights.k_max, budget.c_max

    def exact_digits(m):
        j = m - k_max
        return j - j // p

    def nwork_at(m, n):
        iters = estimate_iterations(weights, budget, p, m)
        guard = (m - 1) // p + 1 + c_max + -(-k_max // p) * (iters + 2) + 4
        return n + guard, iters

    if cfg.precision is not None:
        m, n = cfg.precision
        if exact_digits(m) < n:
            raise PrecisionExhausted(
                f"E-adic precision M = {m} leaves {max(exact_digits(m), 0)} "
                f"exact digits of phi after division by E^{k_max}; N = {n}")
        nwork, iters = nwork_at(m, n)
        nwork = min(nwork, exact_digits(m))
    else:
        n = max(k_max + 2, c_max + 4)
        m = max(k_max, p * c_max) + 1
        nwork, iters = nwork_at(m, n)
        while exact_digits(m) < nwork:
            m += 1
            nwork, iters = nwork_at(m, n)
    return {"M": m, "N": n, "nwork": nwork, "iterations_estimate": iters}


def _coord_to_of(ctx: PrimeContext, spec, prec=None) -> OFElem:
    """Parse a coordinate: an int, or {coeffs: [...], pexp: t} meaning
    p^t * (polynomial in the residue generator)."""
    if _is_int(spec):
        return OFElem.from_int(ctx, spec, prec)
    if isinstance(spec, dict):
        _reject_unknown(spec, {"coeffs", "pexp"}, "coordinate: ")
        coeffs = spec.get("coeffs")
        pexp = spec.get("pexp", 0)
        if not _is_int_seq(coeffs):
            raise ConfigError("coordinate coeffs must be a list of integers")
        if not _is_int(pexp) or pexp < 0:
            raise ConfigError(f"coordinate pexp must be an integer >= 0, got {pexp!r}")
        if len(coeffs) > ctx.r:
            raise ConfigError(f"coordinate has {len(coeffs)} coeffs but r = {ctx.r}")
        x = OFElem(ctx, coeffs, prec)
        # p^pexp is 0 mod p^prec once pexp >= prec
        return x * OFElem.from_int(ctx, ctx.ppow(min(pexp, x.prec)), prec)
    raise ConfigError(f"cannot parse coordinate {spec!r}")


@functools.lru_cache(maxsize=1)
def _prime_context(p, f, n, m, r, nwork) -> PrimeContext:
    """The context of the last job, kept so that the next job with the
    same parameters reuses it and its cache."""
    return PrimeContext(p=p, f=f, n=n, m=m, r=r, nwork=nwork)


def _build_lattice(ctx, cfg) -> tuple:
    mats = []
    explicit = False
    for entry in cfg.params:
        if "matrix" in entry:
            explicit = True
            mats.append(tuple(tuple(_coord_to_of(ctx, v) for v in row)
                              for row in entry["matrix"]))
        else:
            a1 = _coord_to_of(ctx, entry["a1"])
            a2 = _coord_to_of(ctx, entry["a2"])
            if not a1.is_unit():
                raise ConfigError("a1 must be a unit of O_F")
            mats.append(TypeTag(entry["type"]).form(
                a1, a2, OFElem.zero(ctx), OFElem.one(ctx)))
    return tuple(mats), explicit


@dataclass
class RunReport:
    config: dict
    context: dict = field(default_factory=dict)
    preflight: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)
    result: Optional[dict] = None
    error: Optional[dict] = None
    timings: dict = field(default_factory=dict)   # seconds, summed per stage
    version: str = __version__

    def serial(self, include_timings=False):
        out = {
            "version": self.version,
            "config": self.config,
            "context": self.context,
            "preflight": self.preflight,
            "stages": self.stages,
            "result": self.result,
            "error": self.error,
        }
        if include_timings:
            out["timings"] = self.timings
        return out

    def to_json(self, include_timings=False) -> str:
        return json.dumps(self.serial(include_timings), sort_keys=True, indent=2)


class PipelineStop(CrysredError):
    """Internal: wraps a stage error with its stage name."""

    def __init__(self, stage, exc):
        super().__init__(f"[{stage}] {exc}")
        self.stage = stage
        self.exc = exc


def run_pipeline(cfg: JobConfig) -> RunReport:
    """Execute the stages in order; see the module docstring.

    `normalize` runs only on explicit matrices: it checks and classifies
    them and, when a slot is Type I, brings the tuple to Type-normal form
    and verifies the witness.  An all-II tuple (explicit or shorthand) is
    not normalized; it stops at `reducibility` with ReducibleAllII, its
    lattice block holding the matrices as given.  `slopes` is report-only:
    a trace too imprecise to decide the Newton slopes is recorded as
    undecided and the job goes on.  Hard failures (IrregularWeights,
    Degenerate, ReducibleAllII, GateFailed, NoConvergence, NonMonomial, a
    failed self-check, ...) abort with the stage recorded in the report's
    error block.

    A job whose context equals the previous job's reuses that context and
    the work cached on it; the report is the same in any job order.
    """
    report = RunReport(config=cfg.serial())
    try:
        pf = _stage(report, "preflight", lambda: preflight_precision(cfg))
        report.preflight = pf
        weights = _stage(report, "weights", lambda: normalize_weights(cfg.weights))
        report.stages["weights"] = weights.serial()
        ctx = _prime_context(cfg.p, cfg.f, pf["N"], pf["M"], cfg.r or cfg.f,
                             pf["nwork"])
        report.context = ctx.fingerprint()

        lattice, explicit = _stage(report, "config",
                                   lambda: _build_lattice(ctx, cfg))
        normalized = lattice
        if explicit:
            tags = _stage(report, "normalize",
                          lambda: classify_lattice(lattice, weights))
            if any(t.kind == "I" for t in tags):
                normalized, witness, tags = _stage(
                    report, "normalize",
                    lambda: parabolic_normalize(lattice, tags, weights))
                _stage(report, "normalize", lambda: verify_parabolic_equiv(
                    lattice, normalized, witness, weights))
        else:
            tags = tuple(classify_type(m) for m in lattice)
        report.stages["normalize"] = {"tags": [t.serial() for t in tags]}
        report.stages["lattice"] = {
            "normalized": [[[e.serial() for e in row] for row in m]
                           for m in normalized],
        }

        verdict = _stage(report, "reducibility",
                         lambda: reducibility_detect(normalized, tags, weights))
        report.stages["reducibility"] = dict(
            verdict.serial(),
            note="NotDetected is not a proof of irreducibility; the detector "
                 "implements sufficient conditions only.")
        if verdict.kind == "ReducibleAllII":
            raise PipelineStop("reducibility", ReducibleStop(verdict))

        _, slopes = _stage(report, "slopes",
                           lambda: frobenius_f_product(normalized, weights))
        report.stages["slopes"] = {
            "newton_slopes": ("undecided at precision" if slopes is None
                              else [str(s) for s in slopes]),
            "det_valuation": sum(weights.k),
        }

        budget = compute_budget(weights, cfg.p)
        report.stages["budget"] = budget.serial()
        a2_params = tuple(t.params(m)[1] for m, t in zip(normalized, tags))
        gate = _stage(report, "gate",
                      lambda: valuation_gate(a2_params, weights, budget))
        report.stages["gate"] = gate.serial()

        raw = _stage(report, "build",
                     lambda: build_kisin_frobenius(normalized, tags, weights))
        kf = _stage(report, "det_normalize",
                    lambda: det_normalize(raw, tags, weights, normalized))
        report.stages["kisin"] = kf.serial()

        split = _stage(report, "prepare", lambda: prepare(kf, budget))
        report.stages["prepare"] = {"x_denominators": [x.d for x in split.x1]}
        _stage(report, "assumptions",
               lambda: check_descent_assumptions(split, budget))

        cert = _stage(report, "descend", lambda: descend(split, budget))
        report.stages["descent"] = cert.serial()

        reduced = _stage(report, "reduce", lambda: reduce_mod_varpi(cert))
        mu = _stage(report, "extract", lambda: extract_reduction_data(reduced))
        report.stages["reduction_data"] = mu.serial()
        char = _stage(report, "characterize",
                      lambda: characterize(mu, cfg.p, weights.shifts))
        report.stages["character"] = char.serial()
        report.result = dict(char.serial(), reducibility=verdict.serial())
        return report
    except PipelineStop as stop:
        report.error = {
            "stage": stop.stage,
            "type": type(stop.exc).__name__,
            "message": str(stop.exc),
        }
        return report


class ReducibleStop(CrysredError):
    def __init__(self, verdict: ReducibilityVerdict):
        super().__init__(f"classified reducible: {verdict.kind}")
        self.verdict = verdict


def _stage(report, name, fn):
    """Run one stage; its wall time is added to report.timings[name]."""
    start = time.perf_counter()
    try:
        return fn()
    except CrysredError as exc:
        raise PipelineStop(name, exc) from exc
    finally:
        report.timings[name] = report.timings.get(name, 0.0) + time.perf_counter() - start


def _reject_unknown(table: dict, allowed: set, where: str = ""):
    unknown = set(table) - allowed
    if unknown:
        raise ConfigError(f"{where}unknown config keys: {sorted(unknown)}")


def _is_int(v) -> bool:
    """An integer that is not a bool (JSON true/false are not numbers here)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_seq(xs) -> bool:
    return isinstance(xs, (list, tuple)) and all(_is_int(v) for v in xs)


EXIT_OK = 0
EXIT_REDUCIBLE = 2
EXIT_GATE = 3
EXIT_CONVERGENCE = 4
EXIT_CONFIG = 5
EXIT_INTERNAL = 6


def exit_code_for(report: RunReport) -> int:
    """Stable CLI exit codes per the interface contract."""
    if report.error is None:
        return EXIT_OK
    etype = report.error["type"]
    if etype in ("ReducibleStop",):
        return EXIT_REDUCIBLE
    if etype in ("GateFailed",):
        return EXIT_GATE
    if etype in ("IrregularWeights", "ConfigError", "Degenerate"):
        return EXIT_CONFIG
    if etype in ("DetCheckFailed", "SplitFailed", "AssumptionViolated"):
        return EXIT_INTERNAL
    return EXIT_CONVERGENCE
