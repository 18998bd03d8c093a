"""Job configuration, precision preflight and pipeline orchestration.

A job fixes (p, f, r), the raw weight pairs, and per-embedding parameters
(Type shorthand or explicit matrices).  `run_pipeline` executes the stages

    preflight -> config -> normalize -> reducibility -> slopes ->
    gate -> build -> det_normalize -> prepare -> assumptions -> descend ->
    reduce -> extract -> characterize

stopping with a stage-tagged error at the first hard failure, and returns
a deterministic report: an identical config gives byte-identical JSON
(timings are only embedded on request).  A failed built-in self-check
stops the job like any other failure, with exit code EXIT_INTERNAL.

Consecutive jobs with the same context (p, f, r, N, M, nwork) share one
`PrimeContext` and with it the work cached on it: the w-powers, the units
(1 + w_e)^c, the lambda_b powers and the product tables.  Every
cached value depends on the context and its key alone, so a report does
not depend on the jobs run before it or on their order.
"""

from __future__ import annotations

import functools
from time import perf_counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import List, Optional, Tuple

from . import __version__
from .arith import OFElem, PrimeContext, _is_prime
from .errors import ConfigError, CrysredError, PrecisionExhausted
from .descent import (
    HeightBudget,
    check_descent_assumptions,
    compute_budget,
    descend,
    estimate_iterations,
    prepare,
    read_off_window,
    valuation_gate,
)
from .kisin import build_kisin_frobenius, det_normalize
from .lattices import (
    ReducibilityVerdict,
    TypeTag,
    WeightData,
    classify_lattice,
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

    @functools.cached_property
    def heights(self) -> WeightData:
        """The normalized weights, computed once per config; IrregularWeights
        when a pair is equal."""
        return normalize_weights(self.weights)

    @functools.cached_property
    def budget(self) -> HeightBudget:
        """The height budget of `heights`, computed once per config."""
        return compute_budget(self.heights, self.p)

    def serial(self):
        return {
            "p": self.p, "f": self.f, "r": self.r,
            "weights": [list(w) for w in self.weights],
            "params": self.params,
            "precision": list(self.precision) if self.precision else None,
        }


def preflight_precision(cfg: JobConfig) -> dict:
    """Choose (M, N) and the working precision nwork = N + guard(iters).

    Read-off window.  The answer is read off the descended Frobenius tuple
    mod (p, u^L) with L = `read_off_window(p, k_max)` > p k_max / (p-1).
    Proof that this suffices: let (A_i) and (A'_i) be tuples over
    k_F[[u]] of E-height <= h (E = u mod p), so A_i B_i = u^h for some
    B_i, with A'_i = A_i + u^L D_i and L > p h / (p-1).  The phi-modules
    they define are isomorphic if X_i A_i = A'_i phi(X_(i-1)) for some
    X_i = I + Y_i, that is Y_i = (u^L D_i + A'_i phi(Y_(i-1))) B_i u^(-h).
    If every Y_j lies in u^(L-h), then phi(Y_(i-1)) lies in u^(p(L-h)),
    which is inside u^L since (p-1) L > p h, so the right side lies in
    u^(L-h) again.  The map is a contraction: two choices of Y that differ
    in u^t, t >= L - h, give right sides that differ in u^(pt-h), and
    pt - h > t since (p-1) t >= (p-1)(L-h) > p h - (p-1) h = h.  Only
    A_i's height is used, through B_i.  So the successive
    approximation converges u-adically, and X_i is invertible since
    L - h >= 1.  L also exceeds every exponent n_i, m_i <= k_i that
    `extract_reduction_data` reads: if A_i mod u^L has monomial shape with
    exponents n_i, m_i < L, then dropping the entries that vanish mod u^L
    gives a monomial matrix with determinant of u-order n_i + m_i = k_i
    (det A_i is a unit times u^(k_i), k_i < L), so of E-height k_i <= h,
    and it agrees with A_i mod u^L.  With h = k_max the shape and the
    exponents read mod u^L therefore decide the answer, and
    `SElem.residue` reads only the slots below L.  So the default M is at
    least L, a term of its own below, and an override M < L stops with
    PrecisionExhausted.

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

    Guard.  guard(iters) = spend + floor((L-1)/p) + 1 + 4 with
    spend = c_max + ceil(k_max/p) (iters + 2), the digits the stages can
    lose before the last read: the preparation's x^(i) carry denominators
    up to p^(c_max), and each E^(k_i) division (x^(i), det(A)/E^(k_i) and
    one per descent iteration) costs at most ceil(k_max/p).  So the
    descended entries keep nwork - spend = N + floor((L-1)/p) + 5 digits.

    Needs.  Each line names a read of the run and what it asks of N:
      - gate decision: `valuation_gate` reads v(a2^(i)) at nwork and
        decides v > bound_i, bound_i <= c_max - 1, so it needs
        nwork >= c_max, which the spend's c_max already gives: N >= 0;
      - reducibility subset sum: `reducibility_detect` reads v(a2^(i))
        at nwork on the Type I slots S.  An a2 nonzero at nwork gives its
        exact valuation; one that vanishes there (v >= nwork, a_p = 0
        among them) counts nwork, and then the verdict is decided only when
        the sum, sum over S of min(v_i, nwork), exceeds sum over S of k_i.
        So it needs the least nwork at which every v_i < nwork or that sum
        exceeds sum_S k_i, `_reducibility_need`: N >= that - guard.  A
        shorthand gives S and every v_i.  Explicit matrices give S (the
        slots whose bottom-left entry c is a unit) but a2 only after
        `normalize`, which makes slot i's a2 p^(k_(i-1)) x + d y / c, with
        d the bottom-right entry, x integral and y a unit: v_i = v(d) when
        v(d) < k_(i-1), and else only v_i >= k_(i-1) is known.  So the need
        is taken over every a2 that such a bound allows, at least one of
        them vanishing;
      - residue read: `SElem.residue` needs the descended entries above
        floor((L-1)/p), and they keep N + floor((L-1)/p) + 5: N >= 0;
      - explicit-matrix check: `verify_parabolic_equiv` compares the
        first columns mod p^(n_eff - k_(i-1)), n_eff the element
        precision nwork of the explicit input, so it needs n_eff > k_max:
        `_reducibility_need` starts its search there for explicit input;
      - the certificate: the report's `final_prec`, the digits certified
        past the residue read, is at least N + 5 (the read's extra digit
        and the 4 spare); N >= 5 holds it at 10 or more, the floor every
        weight-1 job has had and the one `final_prec_min` tracks.
    N is the largest of these: 5, until the reducibility need exceeds
    5 + guard and sets it.  No read needs nwork > k_max of a shorthand
    whose Type I a2 are nonzero below nwork.

    Iterations.  iters = `estimate_iterations` at (M, nwork): the smaller,
    chain by chain, of the u-adic gain-law count and the p-adic count
    from phi's gain (proof there).  The count depends on nwork and nwork
    on the count, each nondecreasing in the other, so the preflight starts
    at iters = 0 and recomputes nwork and the count until the count
    repeats: the counts increase and the u-adic count caps them, so the
    loop stops, at the least fixed point.  There the descent, run at that
    nwork, takes at most iters iterations, the number the guard charged.

    Default: the least M > max(k_max, p c_max, L - 1) with b(M) >= nwork.
    nwork never decreases in M, so the search steps from each M to the
    least M' with b(M') >= nwork(M), k_max + nwork + floor((nwork-1)/(p-1)),
    until nwork holds still.  An override (M, N) keeps its M and N and gets
    nwork = min(N + guard, b(M)); it stops with PrecisionExhausted when
    b(M) < N or M < L.  That covers M <= k_max, where E^(k_i) = 0 mod E^M
    and b(M) <= 0.
    """
    weights, budget = cfg.heights, cfg.budget
    p, k_max, c_max = cfg.p, weights.k_max, budget.c_max
    window = read_off_window(p, k_max)
    need = _reducibility_need(cfg, weights)

    def exact_digits(m):
        j = m - k_max
        return j - j // p

    def settle(m, n=None):
        """(N, nwork, iters) at the least fixed point of the count."""
        iters = 0
        while True:
            guard = c_max + -(-k_max // p) * (iters + 2) + (window - 1) // p + 5
            n_at = max(5, need - guard) if n is None else n
            nwork = n_at + guard
            bound = estimate_iterations(weights, budget, p, m, nwork)
            if bound == iters:
                return n_at, nwork, iters
            iters = bound

    if cfg.precision is not None:
        m, n = cfg.precision
        if exact_digits(m) < n:
            raise PrecisionExhausted(
                f"E-adic precision M = {m} leaves {max(exact_digits(m), 0)} "
                f"exact digits of phi after division by E^{k_max}; N = {n}")
        if m < window:
            raise PrecisionExhausted(
                f"E-adic precision M = {m} is below the read-off window "
                f"L = {window}")
        _, nwork, iters = settle(m, n)
        nwork = min(nwork, exact_digits(m))
    else:
        m = max(k_max, p * c_max, window - 1) + 1
        n, nwork, iters = settle(m)
        while exact_digits(m) < nwork:
            m = k_max + nwork + (nwork - 1) // (p - 1)
            n, nwork, iters = settle(m)
    return {"M": m, "N": n, "nwork": nwork, "iterations_estimate": iters}


def _coord_valuation(p: int, spec):
    """v_p of a coordinate as `_coord_to_of` reads it: inf for 0, and for a
    spec it rejects (the config stage stops that job)."""
    if _is_int(spec):
        coeffs, pexp = [spec], 0
    elif (isinstance(spec, dict) and _is_int_seq(spec.get("coeffs"))
          and _is_int(spec.get("pexp", 0))):
        coeffs, pexp = spec["coeffs"], spec.get("pexp", 0)
    else:
        return float("inf")
    vals = []
    for x in coeffs:
        v = 0
        while x and x % p == 0:
            x //= p
            v += 1
        if x:
            vals.append(v)
    return pexp + min(vals) if vals else float("inf")


def _reducibility_need(cfg: JobConfig, weights) -> int:
    """The least nwork at which `reducibility_detect` decides whatever the
    valuations the config leaves open are; see the needs in
    `preflight_precision`."""
    explicit = any("matrix" in entry for entry in cfg.params)
    slots = []                     # (k_i, v_i or its lower bound, exact)
    for i, entry in enumerate(cfg.params):
        if "matrix" in entry:
            c, d = entry["matrix"][1]
        elif entry["type"] == "I":
            c, d = 1, entry["a2"]
        else:
            continue
        if _coord_valuation(cfg.p, c) != 0:
            continue
        v, k_prev = _coord_valuation(cfg.p, d), weights.k_prev(i)
        exact = not explicit or v < k_prev
        slots.append((weights.k[i], v if exact else k_prev, exact))
    total = sum(k for k, _, _ in slots)
    n = weights.k_max + 1 if explicit else 1
    while True:
        low = sum(min(v, n) for _, v, _ in slots)
        if not any(exact and v >= n for _, v, exact in slots):
            bounds = [v for _, v, exact in slots if not exact]
            if not bounds:
                return n
            # one of the bounded a2 vanishes, and counts n
            low += n - min(max(bounds), n)
        if low > total:
            return n
        n += 1


def _coord_to_of(ctx: PrimeContext, spec) -> OFElem:
    """Parse a coordinate: an int, or {coeffs: [...], pexp: t} meaning
    p^t * (polynomial in the residue generator)."""
    if _is_int(spec):
        return OFElem.from_int(ctx, spec)
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
        # p^pexp is 0 mod p^nwork once pexp >= nwork
        t = ctx.ppow(min(pexp, ctx.nwork))
        return OFElem(ctx, [v * t for v in coeffs])
    raise ConfigError(f"cannot parse coordinate {spec!r}")


class _LastContext:
    """`_prime_context(p, f, n, m, r, nwork)`: the context of the last job,
    kept so that the next job with the same parameters reuses it and its
    cache.  A replaced context's cache, whose elements refer to the context,
    is emptied, so the context is freed without the cyclic collector.
    `hits` counts reuses since `cache_clear()`."""

    key = ctx = None
    hits = 0

    def __call__(self, *key) -> PrimeContext:
        if key == self.key:
            self.hits += 1
        else:
            ctx, hits = PrimeContext(*key), self.hits
            self.cache_clear()
            self.key, self.ctx, self.hits = key, ctx, hits
        return self.ctx

    def cache_clear(self):
        if self.ctx is not None:
            self.ctx._caches.clear()
        self.key = self.ctx = None
        self.hits = 0


_prime_context = _LastContext()


# a Type I tag carries no data, and tags are frozen, so every slot shares one
_TYPE_I = TypeTag("I")


def _build_lattice(ctx, cfg) -> tuple:
    """The config's matrices, and their Type tags when every slot is a
    shorthand (None when a slot is explicit).  A shorthand's Type is the
    one `classify_type` gives its matrix: [[0, a1], [1, a2]] has the unit 1
    bottom left, and [[a1, 0], [a2, 1]] a non-unit a2 there and 1 beside
    it."""
    mats, tags = [], []
    zero = one = None
    for entry in cfg.params:
        if "matrix" in entry:
            tags = None
            mats.append(tuple(tuple(_coord_to_of(ctx, v) for v in row)
                              for row in entry["matrix"]))
            continue
        a1 = _coord_to_of(ctx, entry["a1"])
        a2 = _coord_to_of(ctx, entry["a2"])
        if not a1.is_unit():
            raise ConfigError("a1 must be a unit of O_F")
        # [[a1, 0], [a2, 1]] with a unit a2 is Type I, not II
        if entry["type"] == "II" and a2.is_unit():
            raise ConfigError("a Type II shorthand's a2 must not be a unit of O_F")
        if zero is None:
            zero, one = OFElem.zero(ctx), OFElem.one(ctx)
        tag = _TYPE_I if entry["type"] == "I" else TypeTag("II", alpha=one)
        mats.append(tag.form(a1, a2, zero, one))
        if tags is not None:
            tags.append(tag)
    return tuple(mats), None if tags is None else tuple(tags)


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
        """The text json.dumps(self.serial(include_timings),
        sort_keys=True, indent=2) gives, byte for byte, written by
        `_json_text` without json's encoder.

        The writer holds what `serial` can hold: dicts with str keys,
        lists, tuples, str (ASCII-escaped by json's own
        `encode_basestring_ascii`), int, bool, None, and float for the
        timings (NaN and the infinities as json writes them).  Anything
        else raises TypeError.  With an indent, json.dumps runs json's
        pure-Python encoder, which is slower and leaves a reference cycle
        of closures on every call; the writer keeps no state, so a call
        leaves no garbage."""
        return _json_text(self.serial(include_timings), "\n")


_INF = float("inf")


def _json_text(x, nl: str) -> str:
    """x as json.dumps(x, sort_keys=True, indent=2) writes it, for the
    types `RunReport.to_json` lists.  `nl` is a newline and the current
    indent; a nested container's items go two spaces deeper."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x == _INF:
            return "Infinity"
        if x == -_INF:
            return "-Infinity"
        return float.__repr__(x)
    inner = nl + "  "
    if isinstance(x, dict):
        if not x:
            return "{}"
        items = []
        for key in sorted(x):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + _json_text(x[key], inner))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        return ("[" + inner + ("," + inner).join([_json_text(v, inner) for v in x])
                + nl + "]")
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


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
        pf = _stage(report, "preflight", preflight_precision, cfg)
        report.preflight = pf
        # the preflight has normalized the weights and sized the budget
        weights, budget = cfg.heights, cfg.budget
        report.stages["weights"] = weights.serial()
        ctx = _prime_context(cfg.p, cfg.f, pf["N"], pf["M"], cfg.r or cfg.f,
                             pf["nwork"])
        report.context = ctx.fingerprint()

        lattice, tags = _stage(report, "config", _build_lattice, ctx, cfg)
        normalized = lattice
        if tags is None:
            tags = _stage(report, "normalize", classify_lattice, lattice, weights)
            if any(t.kind == "I" for t in tags):
                normalized, witness, tags = _stage(
                    report, "normalize", parabolic_normalize, lattice, tags, weights)
                _stage(report, "normalize", verify_parabolic_equiv,
                       lattice, normalized, witness, weights)
        report.stages["normalize"] = {"tags": [t.serial() for t in tags]}
        report.stages["lattice"] = {
            "normalized": [[[e.serial() for e in row] for row in m]
                           for m in normalized],
        }

        verdict = _stage(report, "reducibility", reducibility_detect, normalized, tags, weights)
        verdict_serial = verdict.serial()
        report.stages["reducibility"] = dict(
            verdict_serial,
            note="NotDetected is not a proof of irreducibility; the detector "
                 "implements sufficient conditions only.")
        if verdict.kind == "ReducibleAllII":
            raise PipelineStop("reducibility", ReducibleStop(verdict))

        _, slopes = _stage(report, "slopes", frobenius_f_product, normalized, weights)
        report.stages["slopes"] = {
            "newton_slopes": ("undecided at precision" if slopes is None
                              else [str(s) for s in slopes]),
            "det_valuation": sum(weights.k),
        }

        report.stages["budget"] = budget.serial()
        a2_params = tuple(t.params(m)[1] for m, t in zip(normalized, tags))
        gate = _stage(report, "gate", valuation_gate, a2_params, weights, budget)
        report.stages["gate"] = gate.serial()

        raw, period = _stage(report, "build", build_kisin_frobenius, normalized, tags, weights)
        kf = _stage(report, "det_normalize", det_normalize, raw, period, tags, weights,
                    normalized)
        report.stages["kisin"] = kf.serial()

        split = _stage(report, "prepare", prepare, kf, budget)
        report.stages["prepare"] = {"x_denominators": [x.d for x in split.x1]}
        _stage(report, "assumptions", check_descent_assumptions, split, budget)

        cert = _stage(report, "descend", descend, split, budget)
        report.stages["descent"] = cert.serial()

        reduced = _stage(report, "reduce", reduce_mod_varpi, cert)
        mu = _stage(report, "extract", extract_reduction_data, reduced)
        report.stages["reduction_data"] = mu.serial()
        char = _stage(report, "characterize", characterize, mu, cfg.p, weights.shifts)
        report.stages["character"] = char.serial()
        report.result = dict(report.stages["character"], reducibility=verdict_serial)
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


def _stage(report, name, fn, *args):
    """Run one stage, fn(*args); its wall time is added to
    report.timings[name]."""
    start = perf_counter()
    try:
        return fn(*args)
    except CrysredError as exc:
        raise PipelineStop(name, exc) from exc
    finally:
        report.timings[name] = report.timings.get(name, 0.0) + perf_counter() - start


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
