"""Per-layer tracer for the benchmark's traced run.

It wraps public functions of the polyapprox modules from inside the benchmark
process; nothing in the package is edited.  A function bound into another
module with ``from ... import`` is replaced there too, because the wrapper
is installed wherever the original object is bound.  Each call records a span
(name, start, end, parent span, op id) in memory; self time is a span's
duration minus the time its child spans cover.
"""

import cProfile
import functools
import importlib
import pstats
import sys
import time
from collections import defaultdict
from fractions import Fraction

STRUCT_KINDS = ("SDense", "SProd", "SSum", "SScale", "SPow", "SComp",
                "SBinomTail")

# (module, attribute, span name).  A span name of None means "module.attribute".
SPANS = [
    ("numcore", "UniPoly.__mul__", "numcore.UniPoly.mul"),
    ("numcore", "UniPoly.compose", None),
    ("numcore", "lagrange_interpolate", None),
    ("numcore", "poly_from_json", None),
    ("chebyshev", "cheb_poly", None),
    ("chebyshev", "cheb_eval", None),
    ("oracle", "minimax_lp", None),
    ("oracle", "lp_min", None),
    ("blocks", "interval_indicator", None),
    ("blocks", "or_continuous_approx", None),
    ("blocks", "reciprocal_corollary", None),
    ("blocks", "binom_tail", None),
    ("symmetric", "and_or_approx", None),
    ("symmetric", "exact_weight_approx", None),
    ("symmetric", "single_zero_factor", None),
    ("symmetric", "restricted_disjunction_approx", None),
    ("symmetric", "sampling_approx", None),
    ("extension", "extend_approx", None),
    ("composed", "surjectivity_approx", None),
    ("composed", "BlockSymApprox.eval", None),
    ("cli", "cmd_construct", None),
    ("cli", "cmd_verify", None),
    ("cli", "_emit", "cli.emit"),
] + [("numcore", kind + ".eval", "numcore.StructPoly.eval." + kind)
     for kind in STRUCT_KINDS]

# Calls that are only counted: their time stays in the caller's self time.
COUNTERS = [
    ("numcore", "SBinomTail._eval", "numcore.SBinomTail._eval"),
    ("oracle", "_pivot", "oracle._pivot"),
]


def _calls_self(name):
    return [(name + ".calls", "count"), (name + ".self_s", "s")]


# Every per-layer metric of the traced run, in output order.
PER_LAYER = (
    _calls_self("numcore.UniPoly.mul")
    + [("numcore.UniPoly.compose.self_s", "s")]
    + _calls_self("numcore.UniPoly.eval.float")
    + _calls_self("numcore.UniPoly.eval.rational")
    + _calls_self("numcore.lagrange_interpolate")
    + [m for kind in STRUCT_KINDS
       for m in _calls_self("numcore.StructPoly.eval." + kind)]
    + [("numcore.SBinomTail.memo_hit_ratio", "ratio"),
       ("numcore.recheck.calls", "count"),
       ("numcore.recheck.base_s", "s"),
       ("numcore.recheck.doubled_s", "s"),
       ("numcore.recheck.rejections", "count"),
       ("numcore.recheck.min_margin_bits", "bits"),
       ("numcore.poly_from_json.self_s", "s")]
    + _calls_self("chebyshev.cheb_poly")
    + _calls_self("chebyshev.cheb_eval")
    + _calls_self("oracle.minimax_lp")
    + [("oracle.lp_min.self_s", "s"), ("oracle.lp_min.pivots", "count")]
    + _calls_self("blocks.interval_indicator")
    + [("blocks.interval_indicator.hit_ratio", "ratio"),
       ("blocks.or_continuous_approx.self_s", "s"),
       ("blocks.reciprocal_corollary.self_s", "s"),
       ("blocks.binom_tail.calls", "count")]
    + _calls_self("symmetric.and_or_approx")
    + _calls_self("symmetric.exact_weight_approx")
    + [("symmetric.single_zero_factor.calls", "count")]
    + _calls_self("symmetric.restricted_disjunction_approx")
    + [("symmetric.sampling_approx.self_s", "s")]
    + _calls_self("extension.extend_approx")
    + [("composed.surjectivity_approx.self_s", "s")]
    + _calls_self("composed.BlockSymApprox.eval")
    + [("cli.cmd_construct.self_s", "s"), ("cli.cmd_verify.self_s", "s"),
       ("cli.emit.self_s", "s"),
       ("trace.overhead_ratio", "ratio")]
)


def _mpf(x, mpmath):
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index, op id)
        self.counts = defaultdict(int)
        self.op = None           # id of the operation being run
        self.rechecks = []       # (base result, doubled result, prec)
        self.rejections = 0
        self.wrapped = []        # (original function, names its calls count under)
        self._stack = []

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        spans = self.spans
        idx = len(spans)
        spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            spans[idx] = (name, start, end, parent, self.op)

    def _span(self, name):
        def make(orig):
            def wrapper(*args, **kwargs):
                return self._call(name, orig, args, kwargs)
            return wrapper, [name]
        return make

    def _counter(self, name):
        def make(orig):
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return orig(*args, **kwargs)
            return wrapper, [name]
        return make

    def _unipoly_eval(self, orig):
        def wrapper(poly, *args, **kwargs):
            return self._call("numcore.UniPoly.eval." + poly.backend, orig,
                              (poly,) + args, kwargs)
        return wrapper, ["numcore.UniPoly.eval.float",
                         "numcore.UniPoly.eval.rational"]

    def _recheck(self, orig, precision_error):
        # Wraps the build argument to time the base and doubled builds apart
        # and to keep both results for the agreement margin.
        default = orig.__defaults__[-1] if orig.__defaults__ else None

        def wrapper(build, prec=default):
            got = {}

            def timed_build(p):
                kind = "base" if p == prec else "doubled"
                got[kind] = self._call("numcore.recheck." + kind, build, (p,), {})
                return got[kind]

            try:
                return self._call("numcore.recheck", orig, (timed_build, prec), {})
            except precision_error:
                self.rejections += 1
                raise
            finally:
                if len(got) == 2:
                    self.rechecks.append((got["base"], got["doubled"], prec))
        return wrapper, ["numcore.recheck"]

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced function of the imported polyapprox package.
        Functions absent from this version of the program are skipped; their
        metrics read 0."""
        numcore = importlib.import_module("polyapprox.numcore")
        for mod, attr, name in SPANS:
            self._wrap(mod, attr, self._span(name or mod + "." + attr))
        for mod, attr, name in COUNTERS:
            self._wrap(mod, attr, self._counter(name))
        self._wrap("numcore", "UniPoly.eval", self._unipoly_eval)
        self._wrap("numcore", "recheck",
                   lambda orig: self._recheck(orig, numcore.PrecisionError))

    def _wrap(self, modname, path, make):
        owner = importlib.import_module("polyapprox." + modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if isinstance(owner, type):
            orig = owner.__dict__.get(attr)
        else:
            orig = getattr(owner, attr, None)
        if orig is None:
            return
        wrapper, names = make(orig)
        wrapper = functools.wraps(orig)(wrapper)
        self.wrapped.append((orig, names))
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            return
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("polyapprox"):
                continue
            for key in [k for k, v in vars(mod).items() if v is orig]:
                setattr(mod, key, wrapper)

    # -- results -----------------------------------------------------------

    def _aggregate(self):
        child_s = [0.0] * len(self.spans)
        children = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
                children[parent] += 1
        calls, self_s, total_s, leaves = (defaultdict(int), defaultdict(float),
                                          defaultdict(float), defaultdict(int))
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_s[i]
            total_s[name] += end - start
            leaves[name] += children[i] == 0
        return calls, self_s, total_s, leaves

    def min_margin_bits(self):
        """Smallest -log2(|a-b|/max(1,|a|)) over every rechecked scalar pair;
        exact agreement counts as the doubled precision."""
        import mpmath
        best = None
        for a, b, prec in self.rechecks:
            xs = a if isinstance(a, (list, tuple)) else [a]
            ys = b if isinstance(b, (list, tuple)) else [b]
            with mpmath.mp.workprec(2 * prec):
                for x, y in zip(xs, ys):
                    x, y = _mpf(x, mpmath), _mpf(y, mpmath)
                    diff = abs(x - y)
                    bits = (float(2 * prec) if diff == 0 else
                            float(-mpmath.log(diff / max(1, abs(x)), 2)))
                    best = bits if best is None else min(best, bits)
        return best if best is not None else 0.0

    def layer_metrics(self):
        """Every per-layer metric except trace.overhead_ratio, as
        {name: value}."""
        calls, self_s, total_s, leaves = self._aggregate()

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for metric, _ in PER_LAYER:
            base, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls[base]
            elif stat == "self_s":
                out[metric] = self_s[base]
        binom = "numcore.StructPoly.eval.SBinomTail"
        out["numcore.SBinomTail.memo_hit_ratio"] = ratio(
            calls[binom] - self.counts["numcore.SBinomTail._eval"], calls[binom])
        out["numcore.recheck.base_s"] = total_s["numcore.recheck.base"]
        out["numcore.recheck.doubled_s"] = total_s["numcore.recheck.doubled"]
        out["numcore.recheck.rejections"] = self.rejections
        out["numcore.recheck.min_margin_bits"] = self.min_margin_bits()
        out["oracle.lp_min.pivots"] = self.counts["oracle._pivot"]
        # A cached indicator returns without calling any traced function.
        out["blocks.interval_indicator.hit_ratio"] = ratio(
            leaves["blocks.interval_indicator"], calls["blocks.interval_indicator"])
        return out

    def _calls_per_function(self):
        calls = self._aggregate()[0]
        return {id(orig): sum(calls[n] + self.counts[n] for n in names)
                for orig, names in self.wrapped}

    def profile_check(self, run):
        """Run ``run()`` under cProfile and compare, for every wrapped
        function, the traced call count with cProfile's ncalls of the
        original.  Returns (functions compared, list of mismatches)."""
        before = self._calls_per_function()
        prof = cProfile.Profile()
        prof.enable()
        try:
            run()
        finally:
            prof.disable()
        stats = pstats.Stats(prof).stats
        after = self._calls_per_function()
        problems = []
        for orig, _ in self.wrapped:
            code = orig.__code__
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            profiled = stats[key][1] if key in stats else 0
            traced = after[id(orig)] - before[id(orig)]
            if traced != profiled:
                problems.append("%s: traced %d, cProfile %d"
                                % (orig.__qualname__, traced, profiled))
        return len(self.wrapped), problems
