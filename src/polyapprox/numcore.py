"""Exact-rational and big-float scalar backends, dense univariate polynomials,
and structured (factored) polynomials for constructions whose dense monomial
expansion is out of reach.

Two backends only: "rational" (fractions.Fraction, exact) and "float"
(mpmath mpf at an explicit precision).  Mixed-backend arithmetic is an
error, never a silent coercion.  A float construction builds its polynomial
once, at its working precision, and certifies its error with
checked_max_abs: the error is evaluated at that precision and again at
doubled precision, and disagreement raises PrecisionError.  Most
constructions measure the polynomial they return; the damped AND/OR
measures its undamped base and derives its error from that maximum.
"""

from fractions import Fraction
import math

import mpmath
from mpmath import mp

RATIONAL = "rational"
FLOAT = "float"

DEFAULT_PREC = 256


class BackendMismatchError(TypeError):
    pass


class PrecisionError(ArithmeticError):
    """Doubled-precision recheck disagreed with the base computation."""
    pass


def as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise BackendMismatchError("expected an exact rational, got %r" % type(x))


def to_mpf(x, prec):
    """Round an int/Fraction/mpf to an mpf at the given precision."""
    with mp.workprec(prec):
        if isinstance(x, Fraction):
            return mpmath.mpf(x.numerator) / x.denominator
        return mpmath.mpf(x)


def mpf_to_hex(x):
    tup = x._mpf_ if isinstance(x, mpmath.mpf) else mpmath.mpf(x)._mpf_
    sign, man, exp, _ = tup
    if man == 0:
        return "0x0p0"
    return "%s0x%xp%d" % ("-" if sign else "", man, exp)


def mpf_from_hex(s):
    neg = s.startswith("-")
    if neg:
        s = s[1:]
    mant_s, exp_s = s[2:].split("p")
    man = int(mant_s, 16)
    exp = int(exp_s)
    with mp.workprec(max(man.bit_length(), 1) + 8):
        v = mpmath.ldexp(mpmath.mpf(man), exp)
        return -v if neg else v


def scalar_to_json(x):
    if isinstance(x, (int, Fraction)):
        f = Fraction(x)
        return "%d/%d" % (f.numerator, f.denominator)
    return mpf_to_hex(x)


def scalar_from_json(s, backend):
    if backend == RATIONAL:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return mpf_from_hex(s)


def _trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


class UniPoly:
    """Dense univariate polynomial over one backend.

    coeffs[i] is the coefficient of t^i; the zero polynomial has degree -1.
    Coefficient lists are never mutated after construction, so a rational
    polynomial caches its denominator-cleared integer form for eval.
    """

    __slots__ = ("coeffs", "backend", "prec", "_int_form")

    def __init__(self, coeffs, backend=RATIONAL, prec=DEFAULT_PREC):
        if backend == RATIONAL:
            coeffs = [as_fraction(c) for c in coeffs]
        elif backend == FLOAT:
            coeffs = [to_mpf(c, prec) for c in coeffs]
        else:
            raise ValueError("unknown backend %r" % backend)
        self.coeffs = _trim(list(coeffs))
        self.backend = backend
        self.prec = prec if backend == FLOAT else None
        self._int_form = None

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, backend=RATIONAL, prec=DEFAULT_PREC):
        return cls([], backend, prec)

    @classmethod
    def constant(cls, c, backend=RATIONAL, prec=DEFAULT_PREC):
        return cls([c], backend, prec)

    @classmethod
    def from_roots(cls, roots, backend=RATIONAL, prec=DEFAULT_PREC):
        p = cls.constant(1, backend, prec)
        for r in roots:
            p = p * cls([-r, 1], backend, prec)
        return p

    def _check(self, other):
        if self.backend != other.backend:
            raise BackendMismatchError(
                "cannot mix %s and %s polynomials" % (self.backend, other.backend))
        if self.backend == FLOAT and self.prec != other.prec:
            raise BackendMismatchError("mixed float precisions %r / %r"
                                       % (self.prec, other.prec))

    def _make(self, coeffs):
        p = UniPoly.__new__(UniPoly)
        p.coeffs = _trim(list(coeffs))
        p.backend = self.backend
        p.prec = self.prec
        p._int_form = None
        return p

    def __eq__(self, other):
        return (isinstance(other, UniPoly) and self.backend == other.backend
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return "UniPoly(deg=%d, %s)" % (self.degree, self.backend)

    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [0] * (n - len(self.coeffs))
        b = other.coeffs + [0] * (n - len(other.coeffs))
        if self.backend == FLOAT:
            with mp.workprec(self.prec):
                return self._make([x + y for x, y in zip(a, b)])
        return self._make([x + y for x, y in zip(a, b)])

    def __neg__(self):
        if self.backend == FLOAT:
            with mp.workprec(self.prec):
                return self._make([-c for c in self.coeffs])
        return self._make([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        if not self.coeffs or not other.coeffs:
            return self._make([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        if self.backend == FLOAT:
            with mp.workprec(self.prec):
                for i, a in enumerate(self.coeffs):
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
        else:
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return self._make(out)

    def scale(self, c):
        if self.backend == FLOAT:
            c = to_mpf(c, self.prec)
            with mp.workprec(self.prec):
                return self._make([c * a for a in self.coeffs])
        c = as_fraction(c)
        return self._make([c * a for a in self.coeffs])

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = self._make([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def eval(self, t, prec=None):
        """Horner evaluation.  Rational backend with rational t is exact.
        prec overrides the stored float working precision."""
        if self.backend == FLOAT:
            wp = prec or self.prec
            with mp.workprec(wp):
                tt = to_mpf(t, wp)
                acc = mpmath.mpf(0)
                for c in reversed(self.coeffs):
                    acc = acc * tt + c
                return acc
        t = as_fraction(t)
        if not self.coeffs:
            return Fraction(0)
        # With c_j = N_j / L and t = a/b, p(t) = sum_j N_j a^j b^(deg-j) /
        # (L b^deg): homogeneous Horner in integers, one reduction at the end.
        # Fraction is canonical, so the value equals term-by-term Horner's.
        if self._int_form is None:
            lcm = math.lcm(*(c.denominator for c in self.coeffs))
            self._int_form = ([c.numerator * (lcm // c.denominator)
                               for c in self.coeffs], lcm)
        nums, lcm = self._int_form
        a, b = t.numerator, t.denominator
        acc = nums[-1]
        bpow = 1
        for n in reversed(nums[:-1]):
            bpow *= b
            acc = acc * a + n * bpow
        return Fraction(acc, lcm * bpow)

    def compose(self, inner):
        """self(inner(t)) by Horner over polynomials."""
        self._check(inner)
        acc = self._make([])
        for c in reversed(self.coeffs):
            acc = acc * inner + self._make([c])
        return acc

    def compose_affine(self, a, b):
        """self(a*t + b)."""
        return self.compose(self._make([b, a]))

    def norm(self):
        """Sum of absolute coefficient values."""
        if self.backend == FLOAT:
            with mp.workprec(self.prec):
                return sum((abs(c) for c in self.coeffs), mpmath.mpf(0))
        return sum((abs(c) for c in self.coeffs), Fraction(0))

    def derivative(self):
        terms = list(enumerate(self.coeffs))[1:]
        if self.backend == FLOAT:
            with mp.workprec(self.prec):
                return self._make([i * c for i, c in terms])
        return self._make([i * c for i, c in terms])

    def to_float(self, prec=DEFAULT_PREC):
        return UniPoly(self.coeffs, FLOAT, prec)

    def to_json(self):
        d = {"backend": self.backend, "coeffs": [scalar_to_json(c) for c in self.coeffs]}
        if self.backend == FLOAT:
            d["precision_bits"] = self.prec
        return d

    @classmethod
    def from_json(cls, d):
        backend = d["backend"]
        prec = d.get("precision_bits", DEFAULT_PREC)
        coeffs = [scalar_from_json(s, backend) for s in d["coeffs"]]
        return cls(coeffs, backend, prec)


def lagrange_interpolate(nodes, values):
    """Unique degree <= len(nodes)-1 polynomial through the given points,
    exact over Fraction.  A node whose value is 0 adds nothing to the sum,
    so its basis polynomial is never built."""
    if len(set(nodes)) != len(nodes):
        raise ValueError("repeated interpolation node")
    out = UniPoly.zero()
    for i, (ti, fi) in enumerate(zip(nodes, values)):
        if fi == 0:
            continue
        num = UniPoly.constant(1)
        den = 1
        for j, tj in enumerate(nodes):
            if j == i:
                continue
            num = num * UniPoly([-tj, 1])
            den = den * (ti - tj)
        out = out + num.scale(as_fraction(fi) / as_fraction(den))
    return out


# ---------------------------------------------------------------------------
# Structured polynomials.
#
# Some constructions (interval indicators, amplified decay products, sampled
# node reparametrizations) have degrees in the thousands; their dense
# monomial form is numerically useless and expensive.  These nodes keep the
# factored form, track the formal degree, and evaluate on demand.


class StructPoly:
    """A factored polynomial node.  Its backend is derived from its children:
    rational when all of them are (for SScale, also c), float otherwise."""

    def eval(self, t, prec=None):
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError


def _backend_of(*parts):
    return RATIONAL if all(p.backend == RATIONAL for p in parts) else FLOAT


def _as_num(v, prec):
    if isinstance(v, Fraction):
        return to_mpf(v, prec)
    return v


class SDense(StructPoly):
    def __init__(self, poly):
        self.poly = poly
        self.degree = poly.degree
        self.backend = poly.backend
        self.prec = poly.prec

    def eval(self, t, prec=None):
        return self.poly.eval(t, prec)

    def to_json(self):
        return {"kind": "dense", "poly": self.poly.to_json()}


class SProd(StructPoly):
    def __init__(self, parts):
        self.parts = parts
        self.degree = sum(p.degree for p in parts)
        self.backend = _backend_of(*parts)

    def eval(self, t, prec=None):
        vals = [p.eval(t, prec) for p in self.parts]
        if prec is None:
            acc = 1
            for v in vals:
                acc = acc * v
            return acc
        with mp.workprec(prec):
            acc = mpmath.mpf(1)
            for v in vals:
                acc = acc * _as_num(v, prec)
            return acc

    def to_json(self):
        return {"kind": "prod", "parts": [p.to_json() for p in self.parts]}


class SScale(StructPoly):
    def __init__(self, c, base):
        self.c = c
        self.base = base
        self.degree = base.degree
        self.backend = (base.backend if isinstance(c, (int, Fraction))
                        else FLOAT)

    def eval(self, t, prec=None):
        if prec is None:
            return self.c * self.base.eval(t, prec)
        with mp.workprec(prec):
            return _as_num(self.c, prec) * _as_num(self.base.eval(t, prec), prec)

    def to_json(self):
        return {"kind": "scale", "c": scalar_to_json(self.c), "base": self.base.to_json()}


class SPow(StructPoly):
    def __init__(self, base, k):
        self.base = base
        self.k = k
        self.degree = base.degree * k
        self.backend = base.backend

    def eval(self, t, prec=None):
        v = self.base.eval(t, prec)
        if prec is None:
            return v ** self.k
        with mp.workprec(prec):
            return _as_num(v, prec) ** self.k

    def to_json(self):
        return {"kind": "pow", "k": self.k, "base": self.base.to_json()}


class SComp(StructPoly):
    """outer(inner(t)); outer may itself be structured."""

    def __init__(self, outer, inner):
        self.outer = outer
        self.inner = inner
        self.degree = outer.degree * inner.degree
        self.backend = _backend_of(outer, inner)

    def eval(self, t, prec=None):
        return self.outer.eval(self.inner.eval(t, prec), prec)

    def to_json(self):
        return {"kind": "comp", "outer": self.outer.to_json(),
                "inner": self.inner.to_json()}


class SBinomTail(StructPoly):
    """sum_{i=lo}^{d} C(d,i) t^i (1-t)^{d-i}, evaluated term by term."""

    backend = FLOAT

    def __init__(self, d, lo, prec=DEFAULT_PREC):
        self.d = d
        self.lo = lo
        self.prec = prec
        self.degree = d
        self._memo = {}

    def eval(self, t, prec=None):
        prec = prec or self.prec
        key = (t, prec) if isinstance(t, (int, Fraction, mpmath.mpf)) else None
        if key is not None and key in self._memo:
            return self._memo[key]
        out = self._eval(t, prec)
        if key is not None:
            if len(self._memo) > 4096:
                self._memo.clear()
            self._memo[key] = out
        return out

    def _eval(self, t, prec):
        d, lo = self.d, self.lo
        with mp.workprec(prec):
            u = to_mpf(t, prec)
            v = 1 - u
            if u == 0:
                return mpmath.mpf(1 if lo <= 0 else 0)
            if v == 0:
                return mpmath.mpf(1)
            term = mpmath.mpf(math.comb(d, lo)) * u ** lo * v ** (d - lo)
            acc = term
            r = u / v
            abs_r = abs(r)
            past_mode = False
            may_exit = 3 * d < 2 ** (prec - 1)
            for i in range(lo, d):
                term = term * r * (d - i) / (i + 1)
                acc += term
                # Early exit that leaves acc bit-for-bit as the full loop
                # would.  Past the mode, every later exact ratio
                # |r| (d-j)/(j+1), j > i, is <= 1, so a later term exceeds
                # |term| only through its three roundings per step: by less
                # than (1 + 2^-prec)^(3d) < 2 while 3d < 2^(prec-1).  With
                # |term| < 2^(mag(acc) - prec - 3), each later term is below
                # 2^(mag(acc) - prec - 2), half an ulp of the binade under
                # |acc|'s, so round-to-nearest returns acc unchanged at every
                # later add.  Nothing assumes a sign: it holds for u outside
                # [0, 1], where the terms alternate.
                if may_exit and not past_mode:
                    past_mode = mpmath.fmul(abs_r, d - i - 1, exact=True) <= i + 2
                if past_mode and (not term or
                                  mpmath.mag(term) <= mpmath.mag(acc) - prec - 3):
                    break
            return acc

    def to_json(self):
        return {"kind": "binom_tail", "d": self.d, "lo": self.lo,
                "precision_bits": self.prec}


def struct_from_json(d):
    k = d["kind"]
    if k == "dense":
        return SDense(UniPoly.from_json(d["poly"]))
    if k == "prod":
        return SProd([poly_from_json(p) for p in d["parts"]])
    if k == "scale":
        c = d["c"]
        c = scalar_from_json(c, RATIONAL if "/" in c else FLOAT)
        return SScale(c, poly_from_json(d["base"]))
    if k == "pow":
        return SPow(poly_from_json(d["base"]), d["k"])
    if k == "comp":
        return SComp(poly_from_json(d["outer"]), poly_from_json(d["inner"]))
    if k == "binom_tail":
        return SBinomTail(d["d"], d["lo"], d["precision_bits"])
    raise ValueError("unknown structured polynomial kind %r" % k)


def poly_to_json(p):
    return p.to_json()


def poly_from_json(d):
    if "kind" in d:
        return struct_from_json(d)
    return UniPoly.from_json(d)


# ---------------------------------------------------------------------------
# Doubled-precision verification policy.


def recheck(build, prec=DEFAULT_PREC):
    """Run build(prec) and build(2*prec); the results (scalars or flat lists,
    mpf or exact) must agree to 2^-(prec/2) relative, else PrecisionError.
    Returns the base-precision result."""
    a = build(prec)
    b = build(2 * prec)
    scalars_a = a if isinstance(a, (list, tuple)) else [a]
    scalars_b = b if isinstance(b, (list, tuple)) else [b]
    tol = mpmath.mpf(2) ** (-(prec // 2))
    with mp.workprec(2 * prec):
        for x, y in zip(scalars_a, scalars_b, strict=True):
            x, y = to_mpf(x, 2 * prec), to_mpf(y, 2 * prec)
            if abs(x - y) > tol * max(1, abs(x)):
                raise PrecisionError(
                    "doubled-precision recheck failed: %s vs %s at %d bits"
                    % (mpmath.nstr(x, 20), mpmath.nstr(y, 20), prec))
    return a


def min_degree(build, eps, hi):
    """build(d) at the smallest d in [1, hi] with certified_eps <= eps, for
    an error that falls with d: gallop up from 1, then bisect, building no d
    twice.  Raises ArithmeticError if d = hi misses eps."""

    def probe(d):
        obj = build(d)
        return obj if float(obj.certified_eps) <= float(eps) else None

    bad, d, step = 0, 1, 1
    while (best := probe(d)) is None:
        if d == hi:
            raise ArithmeticError("no degree up to %d meets the target" % hi)
        bad, d = d, min(d + step, hi)
        step *= 2
    while d - bad > 1:
        mid = (bad + d) // 2
        obj = probe(mid)
        if obj is None:
            bad = mid
        else:
            d, best = mid, obj
    return best


def checked_max_abs(evaluate, points, prec=DEFAULT_PREC):
    """max |evaluate(t, prec)| over points, each point verified against
    evaluate(t, 2*prec).  evaluate(t, p) runs under workprec(p)."""

    def build(p):
        with mp.workprec(p):      # abs() rounds to the working precision
            return [abs(evaluate(t, p)) for t in points]

    vals = recheck(build, prec)
    return max(vals) if vals else mpmath.mpf(0)


# ---------------------------------------------------------------------------
# Deterministic counter-based pseudo randomness (splitmix64).  Used wherever
# reproducible corpora are needed; immune to interpreter hash/seed drift.


class SplitMix64:
    MASK = (1 << 64) - 1

    def __init__(self, seed):
        self.state = seed & self.MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def randint(self, a, b):
        """Uniform integer in [a, b]."""
        span = b - a + 1
        lim = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.next_u64()
            if u < lim:
                return a + u % span

    def fraction(self, denom=2 ** 16):
        """Uniform Fraction in [-1, 1] with the given denominator."""
        return Fraction(self.randint(-denom, denom), denom)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]
