"""Exact and dyadic polynomials: dense univariate ones, and structured
(factored) ones for constructions whose dense expansion is out of reach.

Precision is the one scalar knob: None is exact (fractions.Fraction), an
integer is a dyadic float of that many significant bits, and only this
module names the derived backend, "rational" or "float".  Mixing
precisions is an error, never a silent coercion.  A UniPoly is one exact
integer form at any precision, set only by UniPoly._from_ints, which every
construction ends in; its arithmetic runs in integers, and a float result
rounds once per coefficient.  Every scalar this module takes or returns is
an int or a Fraction; a rounded one, or one read from hex, is a Dyadic,
which JSON spells in hex.  A float construction builds its polynomial once
and certifies it exactly.

Every polynomial, dense or structured, has one evaluation: ints(t), the
unreduced integer pair (numerator, denominator) of its exact value at a
rational t, and eval(t) is that pair's Fraction.  A composition's inner is
dense and evaluates exactly, a product multiplies its parts' pairs, and the
binomial tail is summed exactly in integers.  max_error() takes the exact
maximum over the measured points, comparing integer pairs, and the points
where the error is 0 in the same pass; certify() rounds a float
construction's maximum up to prec significant bits.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
import math
import operator
import re

RATIONAL = "rational"
FLOAT = "float"

DEFAULT_PREC = 256

# 2^20 bits (128 KB) bounds a hex |exponent| and a float polynomial's
# exponent spread; 2^22 bits (512 KB) bounds its numerators over one
# denominator, in total.  Float constructions write exponents of ~2 x prec.
MAX_EXP, MAX_BITS = 1 << 20, 1 << 22


class BackendMismatchError(TypeError):
    pass


class PrecisionError(ArithmeticError):
    """The certified error of a construction exceeds the requested eps; for
    a float construction, a higher working precision may meet it."""
    pass


def as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise BackendMismatchError("expected an exact rational, got %r" % type(x))


def _over_lcm(xs):
    """(L, [x L for x in xs]), L the lcm of the rationals' denominators."""
    L = math.lcm(*(x.denominator for x in xs))
    return L, [x.numerator * (L // x.denominator) for x in xs]


class Dyadic(Fraction):
    """A rounded Fraction, or one read from hex: JSON spells it in hex.
    Arithmetic on it returns a plain Fraction."""
    __slots__ = ()


def _dyadic(m, e):
    """m * 2**e as a Dyadic."""
    return Dyadic(m << e) if e >= 0 else Dyadic(m, 1 << -e)


def _round(n, den, prec, up=False):
    """(m, e) with m 2^e the prec-bit float nearest n / den, ties to even,
    or with up the least one at or above it.

    One divmod gives a quotient q of prec + 1 or prec + 2 bits, and the
    remainder as a sticky bit.  A cut of c bits from q is, to nearest,
    (q + 2^(c-1) - 1 + b) >> c, with b the last kept bit or the sticky bit:
    it carries past half a unit, or at half with an odd last bit.  Up, a
    positive q carries when anything is cut."""
    a = -n if n < 0 else n
    if not a:
        return 0, 0
    s = prec + 1 + den.bit_length() - a.bit_length()
    q, rem = divmod(a << s, den) if s >= 0 else divmod(a, den << -s)
    c = q.bit_length() - prec
    if up:
        q = (q >> c) + (n > 0 and bool(rem or q & (1 << c) - 1))
    else:
        q = (q + (1 << c - 1) - 1 + (q >> c & 1 | (rem != 0))) >> c
    return (-q if n < 0 else q), c - s


def to_dyadic(x, prec, up=False):
    """The prec-bit Dyadic nearest the rational x, ties to even, or with up
    the least one at or above x."""
    x = as_fraction(x)
    return _dyadic(*_round(x.numerator, x.denominator, prec, up))


def _to_hex(man, exp):
    """The hex spelling of man * 2**exp: an odd mantissa, "0x0p0" for 0."""
    if not man:
        return "0x0p0"
    tz = (man & -man).bit_length() - 1
    return "%s0x%xp%d" % ("-" if man < 0 else "", abs(man) >> tz, exp + tz)


def _from_hex(s):
    """(man, exp) of a hex string "[-]0x<hex digits>p<exp>", man odd, (0, 0)
    for zero; ValueError on any other spelling or an |exp| past MAX_EXP."""
    m = re.fullmatch(r"(-?)0x([0-9a-f]+)p(-?[0-9]+)", s)
    if m is None:
        raise ValueError("not a hex float: %r" % s)
    man, exp = int(m[2], 16), int(m[3])
    if not man:
        return 0, 0
    tz = (man & -man).bit_length() - 1
    if abs(exp + tz) > MAX_EXP:
        raise ValueError("hex exponent past %d: %.40s" % (MAX_EXP, s))
    return (-man if m[1] else man) >> tz, exp + tz


def scalar_to_json(x):
    """A Dyadic in hex, any other int or Fraction as "a/b", in hex past
    Python's 4300-digit int-to-str limit."""
    if isinstance(x, Dyadic):
        return _to_hex(x.numerator, 1 - x.denominator.bit_length())
    try:
        return "%d/%d" % (x.numerator, x.denominator)
    except ValueError:
        return "%#x/%#x" % (x.numerator, x.denominator)


def point_to_json(t):
    """str(t), in scalar_to_json's hex past the 4300-digit limit."""
    try:
        return str(t)
    except ValueError:
        return scalar_to_json(t)


def fraction_from_json(s):
    """The Fraction spelled "a/b": ASCII decimal, "-?[0-9]+/[0-9]+", or
    both in 0x hex, as scalar_to_json writes it; ValueError on any other
    spelling."""
    m = re.fullmatch(r"(-?[0-9]+)/([0-9]+)|(-?0x[0-9a-f]+)/(0x[0-9a-f]+)", s)
    if m is None:
        raise ValueError("not a fraction a/b: %r" % s)
    num, den = ((int(m[1]), int(m[2])) if m[1] else
                (int(m[3], 16), int(m[4], 16)))
    if den == 0:
        raise ValueError("zero denominator in %s" % s)
    return Fraction(num, den)


def scalar_from_json(s):
    """A Fraction from "a/b", a Dyadic from hex "[-]0x<hex>p<exp>"."""
    return fraction_from_json(s) if "/" in s else _dyadic(*_from_hex(s))


def json_array(doc, key):
    """doc[key], which must be a JSON array: an object there would be read
    as the list of its keys."""
    if type(doc[key]) is not list:
        raise ValueError("%s is not a JSON array" % key)
    return doc[key]


def _lowest(nums, den, prec):
    """(nums, den) for sum_i nums[i] / den t^i in lowest terms, with no
    trailing zero: exact if prec is None, else each coefficient rounded
    once, to nearest at prec bits (ties to even), over a power-of-two den.

    Over a den that is not a power of two each coefficient is _round's
    m 2^e.  Over a power-of-two den, the common case, _round's cut runs in
    line with no divmod, and the cut bits are shifted back in place.  The
    common power of two is stripped once at the end."""
    while nums and not nums[-1]:
        nums.pop()
    if prec is None:
        g = math.gcd(den, *nums)
        return ([n // g for n in nums], den // g) if g > 1 else (nums, den)
    if den & (den - 1):
        parts = [_round(n, den, prec) for n in nums]
        low = min([0] + [e for _, e in parts])
        nums = [m << e - low for m, e in parts]
        den = 1 << -low
    else:
        out = []
        for n in nums:
            a = -n if n < 0 else n
            c = a.bit_length() - prec
            if c > 0:
                a = (a + (1 << c - 1) - 1 + (a >> c & 1)) >> c << c
                n = -a if n < 0 else a
            out.append(n)
        nums = out
    g = den
    for n in nums:
        g |= n
    tz = (g & -g).bit_length() - 1
    if tz:
        nums = [n >> tz for n in nums]
        den >>= tz
    return nums, den


def horner_ints(nums, den, t):
    """(numerator, denominator) of sum_j nums[j] t^j / den at a rational
    t = a/b (an int or a Fraction), unreduced: homogeneous Horner in
    integers, sum_j nums[j] a^j b^(deg-j) / (den b^deg).  At an integer t
    the denominator is den itself."""
    if not nums:
        return 0, den
    a, b = t.numerator, t.denominator
    acc = nums[-1]
    if b == 1:
        for n in reversed(nums[:-1]):
            acc = acc * a + n
        return acc, den
    bpow = 1
    for n in reversed(nums[:-1]):
        bpow *= b
        acc = acc * a + n * bpow
    return acc, den * bpow


def _int_mul(a, b):
    """The coefficients of the product of two nonempty integer polynomials,
    in a fresh list: the longer factor times each coefficient of the other,
    added in at its offset."""
    b, a = sorted((a, b), key=len)
    la = len(a)
    out = [0] * (la + len(b) - 1)
    for j, y in enumerate(b):
        out[j:j + la] = map(operator.add, out[j:j + la], map(y.__mul__, a))
    return out


class UniPoly:
    """Dense univariate polynomial, exact (prec None) or float at prec bits.
    Coefficient i is nums[i] / den in lowest terms (den > 0, gcd(den, *nums)
    == 1) with no trailing zero, so the zero polynomial has degree -1; for
    floats den is a power of two.  The form is never mutated.  It is set in
    one place, _from_ints, which every construction ends in: UniPoly(coeffs,
    prec) on ints and Fractions, each operation on its exact integer result,
    from_json, to_float.  An exact form is reduced by one gcd, a float one
    rounds each coefficient once, to nearest at prec."""

    __slots__ = ("nums", "den", "prec")

    def __new__(cls, coeffs, prec=None):
        den, nums = _over_lcm([c if isinstance(c, int) else as_fraction(c)
                               for c in coeffs])
        return cls._from_ints(nums, den, prec)

    @staticmethod
    def _from_ints(nums, den, prec):
        """The polynomial sum_i nums[i] / den t^i, exact if prec is None,
        else each coefficient rounded once, to nearest at prec bits.  The
        list nums is consumed: the caller hands over a fresh one."""
        if prec is not None and prec < 1:
            raise ValueError("float precision must be at least 1 bit, got %r"
                             % (prec,))
        p = object.__new__(UniPoly)
        p.nums, p.den = _lowest(nums, den, prec)
        p.prec = prec
        return p

    def __reduce__(self):
        # copy and pickle rebuild through the constructor
        return UniPoly, (self.coeffs, self.prec)

    @property
    def backend(self):
        """Read-only, derived from prec: exact or float."""
        return RATIONAL if self.prec is None else FLOAT

    @property
    def coeffs(self):
        """Read-only: the exact values, Fractions on either backend."""
        return [Fraction(n, self.den) for n in self.nums]

    @property
    def degree(self):
        return len(self.nums) - 1

    @classmethod
    def from_roots(cls, roots, prec=None):
        p = cls([1], prec)
        for r in roots:
            p = p * cls([-as_fraction(r), 1], prec)
        return p

    def _check(self, other):
        if not isinstance(other, UniPoly):
            raise BackendMismatchError("expected a UniPoly, got %r; scale() "
                                       "takes a scalar" % type(other))
        if self.prec != other.prec:
            raise BackendMismatchError("mixed precisions %r / %r (None is "
                                       "exact)" % (self.prec, other.prec))

    def __eq__(self, other):
        return (isinstance(other, UniPoly) and self.backend == other.backend
                and (self.den, self.nums) == (other.den, other.nums))

    def __repr__(self):
        return "UniPoly(deg=%d, %s)" % (self.degree, self.backend)

    def __add__(self, other):
        self._check(other)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return self._from_ints([x * sa + y * sb for x, y in zip_longest(
            self.nums, other.nums, fillvalue=0)], den, self.prec)

    def __neg__(self):
        return self._from_ints([-n for n in self.nums], self.den, self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        if not self.nums or not other.nums:
            return self._from_ints([], 1, self.prec)
        return self._from_ints(_int_mul(self.nums, other.nums),
                               self.den * other.den, self.prec)

    def scale(self, c):
        c = as_fraction(c)
        return self._from_ints([n * c.numerator for n in self.nums],
                               self.den * c.denominator, self.prec)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = UniPoly([1], self.prec)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def ints(self, t):
        """The unreduced integer pair of the exact value at an int or
        Fraction t, for either backend."""
        return horner_ints(self.nums, self.den, t)

    def eval(self, t):
        """The exact value at a rational t, for either backend."""
        return Fraction(*self.ints(as_fraction(t)))

    def compose_affine(self, a, b):
        """self(a*t + b), exact, each float coefficient rounded once.  With
        a*t + b = (alpha*t + beta) / D in integers and coeffs[j] = N_j / L,
        self(a*t + b) = G(alpha*t + beta) / (L D^deg) for the integer
        polynomial G(y) = sum_j N_j D^(deg-j) y^j: an integer Taylor shift
        of G by beta (repeated synthetic division), then t scaled by alpha."""
        a, b = as_fraction(a), as_fraction(b)
        nums, den = self.nums, self.den
        if not nums:
            return self._from_ints([], 1, self.prec)
        deg = len(nums) - 1
        D, (alpha, beta) = _over_lcm((a, b))
        g = [n * D ** (deg - j) for j, n in enumerate(nums)]
        if beta:
            for i in range(deg):
                for j in range(deg - 1, i - 1, -1):
                    g[j] += beta * g[j + 1]
        return self._from_ints([c * alpha ** i for i, c in enumerate(g)],
                               den * D ** deg, self.prec)

    def norm(self):
        """Sum of absolute coefficient values, exact."""
        return Fraction(sum(map(abs, self.nums)), self.den)

    def derivative(self):
        return self._from_ints([i * n for i, n in enumerate(self.nums)][1:],
                               self.den, self.prec)

    def to_float(self, prec=DEFAULT_PREC):
        return self._from_ints(self.nums[:], self.den, prec)

    def to_json(self):
        if self.prec is None:
            return {"backend": RATIONAL,
                    "coeffs": [scalar_to_json(c) for c in self.coeffs]}
        exp = 1 - self.den.bit_length()
        return {"backend": FLOAT,
                "coeffs": [_to_hex(n, exp) for n in self.nums],
                "precision_bits": self.prec}

    @classmethod
    def from_json(cls, d):
        """The inverse of to_json.  A float coefficient is read as it is,
        never rounded: one with more than precision_bits significant bits
        is no polynomial at that precision, and raises ValueError."""
        backend, coeffs = d["backend"], json_array(d, "coeffs")
        if backend == RATIONAL:
            fs = [fraction_from_json(s) for s in coeffs]
            bits = math.lcm(*(f.denominator for f in fs)).bit_length()
            if sum(f.numerator.bit_length() + bits - f.denominator.bit_length()
                   for f in fs if f) > MAX_BITS:
                raise ValueError("numerators of more than %d bits" % MAX_BITS)
            return cls(fs)
        if backend != FLOAT:
            raise ValueError("unknown backend %r" % backend)
        prec = d["precision_bits"]
        if type(prec) is not int:
            raise ValueError("float precision must be an integer of at least "
                             "1 bit, got %r" % (prec,))
        if any("/" in s for s in coeffs):
            raise ValueError("float polynomial with a rational coefficient")
        parts = [_from_hex(s) for s in coeffs]
        exps = [e for _, e in parts]
        low = min([0] + exps)
        if max([0] + exps) - low > MAX_EXP:
            raise ValueError("exponents spread over more than %d" % MAX_EXP)
        if sum(m.bit_length() + e - low for m, e in parts if m) > MAX_BITS:
            raise ValueError("numerators of more than %d bits" % MAX_BITS)
        # built before the bit check, so a precision below 1 bit is the
        # constructor's error; a coefficient of more bits is rejected here
        p = cls._from_ints([m << e - low for m, e in parts], 1 << -low, prec)
        for (man, _), s in zip(parts, coeffs):
            if abs(man).bit_length() > prec:
                raise ValueError("coefficient %s has more than %d significant "
                                 "bits" % (s, prec))
        return p


def _interpolate_ints(s, nums):
    """(c, D): the integer polynomial sum_k c_k y^k / D with value nums[i]
    at y = s[i], s distinct integers.  With L(y) = prod_j (y - s_j), each
    basis polynomial B_i = L / (y - s_i) comes by synthetic division and
    B_i(s_i) = e_i = prod_{j != i} (s_i - s_j), so the sum of nums_i B_i / e_i
    is taken over D = lcm |e_i| in integers."""
    L = [1]
    for sj in s:
        L = [a - sj * b for a, b in zip([0] + L, L + [0])]
    e = [math.prod(si - sj for sj in s if sj != si) for si in s]
    D = math.lcm(*e)
    out = [0] * len(s)
    for si, ni, ei in zip(s, nums, e):
        if ni:
            c, b = ni * (D // ei), 1
            for k in range(len(s) - 1, -1, -1):
                out[k] += c * b
                b = L[k] + si * b
    return out, D


def _from_scaled(c, Q, den):
    """The exact UniPoly sum_k c_k (Q t)^k / den, from integers."""
    return UniPoly._from_ints([n * Q ** k for k, n in enumerate(c)], den,
                              None)


def lagrange_interpolate(nodes, values):
    """Unique degree <= len(nodes)-1 polynomial through the given points,
    exact: _interpolate_ints on the nodes and values over their lcms, with
    y = Q t."""
    nodes, values = ([as_fraction(x) for x in xs] for xs in (nodes, values))
    if len(values) != len(nodes) or len(set(nodes)) != len(nodes):
        raise ValueError("need distinct nodes and one value per node")
    (Q, s), (F, g) = _over_lcm(nodes), _over_lcm(values)
    c, D = _interpolate_ints(s, g)
    return _from_scaled(c, Q, D * F)


# ---------------------------------------------------------------------------
# Structured polynomials.
#
# Some constructions (interval indicators, amplified decay products, sampled
# node reparametrizations) have degrees in the thousands; their dense
# monomial form is numerically useless and expensive.  These nodes keep the
# factored form, track the formal degree, and evaluate on demand.


class StructPoly:
    """A factored polynomial node.  A child is a UniPoly or another node,
    written to JSON by its own to_json.  Like a UniPoly, a node evaluates
    through ints(t), the unreduced integer pair of its exact value at a
    rational t."""

    def eval(self, t):
        """The exact value at a rational t."""
        return Fraction(*self.ints(as_fraction(t)))


class SProd(StructPoly):
    def __init__(self, parts):
        self.parts = parts
        self.degree = sum(p.degree for p in parts)

    def ints(self, t):
        num, den = 1, 1
        for p in self.parts:
            n, d = p.ints(t)
            num *= n
            den *= d
        return num, den

    def to_json(self):
        return {"kind": "prod", "parts": [p.to_json() for p in self.parts]}


class SComp(StructPoly):
    """outer(inner(t)), inner dense and exact; outer may be structured."""

    def __init__(self, outer, inner):
        if not isinstance(inner, UniPoly):
            raise ValueError("a composition's inner must be dense")
        self.outer = outer
        self.inner = inner
        self.degree = outer.degree * inner.degree

    def ints(self, t):
        return self.outer.ints(self.inner.eval(t))

    def to_json(self):
        return {"kind": "comp", "outer": self.outer.to_json(),
                "inner": self.inner.to_json()}


@lru_cache(maxsize=4096)
def _tail_ints(d, lo, t):
    """(N, b^d) at t = a/b for the tail sum_{i>=lo} C(d,i) t^i (1-t)^(d-i),
    one memo for every tail, keyed by value: with c = b - a, the tail is
    N / b^d for N = sum_{i>=lo} C(d,i) a^i c^(d-i).  From i = d-1 down to
    lo, two big-by-small products and one addition a term, xd *= (i+1) c
    and xn = xd + (d-i) a xn, sum the terms' ratios to the term at lo as
    xn / xd, xd = c^(d-lo) d!/lo!.  So xn = (d-lo)! sum_k C(d,lo+k) a^k
    c^(d-lo-k), an identity of integer polynomials in a and c: xn alone is
    divisible by (d-lo)!, and N = a^lo (xn / (d-lo)!) divides before the
    multiply.  At c = 0 (t = 1) xd is 0 and N = a^d = b^d, the tail's
    value 1.  With lo > d no term is summed: (0, 1)."""
    a, b = t.numerator, t.denominator
    if lo > d:
        return 0, 1
    c = b - a
    xn = xd = 1
    for i in range(d - 1, lo - 1, -1):
        xd *= (i + 1) * c
        xn = xd + (d - i) * a * xn
    return a ** lo * (xn // math.factorial(d - lo)), b ** d


class SBinomTail(StructPoly):
    """sum_{i=lo}^{d} C(d,i) t^i (1-t)^{d-i}, summed exactly in integers."""

    def __init__(self, d, lo):
        for name, x in (("d", d), ("lo", lo)):
            if type(x) is not int or x < 0:
                raise ValueError("a binomial tail needs an integer %s >= 0, "
                                 "got %r" % (name, x))
        self.d = d
        self.lo = lo
        self.degree = d

    def ints(self, t):
        return _tail_ints(self.d, self.lo, t)

    def to_json(self):
        return {"kind": "binom_tail", "d": self.d, "lo": self.lo}


def poly_from_json(d):
    if not isinstance(d, dict):
        raise ValueError("a polynomial node is not a JSON object: %r" % (d,))
    k = d.get("kind")
    if k is None:
        return UniPoly.from_json(d)
    if k == "prod":
        return SProd([poly_from_json(p) for p in d["parts"]])
    if k == "comp":
        return SComp(poly_from_json(d["outer"]), poly_from_json(d["inner"]))
    if k == "binom_tail":
        return SBinomTail(d["d"], d["lo"])
    raise ValueError("unknown structured polynomial kind %r" % k)


def min_degree(build, eps, lo, hi, guess=None):
    """build(d) at the smallest d in [lo, hi] with certified_eps <= eps, for
    an error that falls with d: probe guess (clamped to [lo, hi], lo if
    None), gallop down from it while probes meet eps or up while they miss,
    then bisect, building no d twice.  Raises PrecisionError if d = hi
    misses eps."""

    def probe(d):
        obj = build(d)
        return obj if obj.certified_eps <= eps else None

    d = lo if guess is None else min(max(guess, lo), hi)
    bad, step = lo - 1, 1
    best = probe(d)
    while best is not None and d > lo:
        mid = max(d - step, lo)
        obj = probe(mid)
        if obj is None:
            bad = mid
            break
        d, best = mid, obj
        step *= 2
    while best is None:
        if d == hi:
            raise PrecisionError("no degree up to %d meets the target" % hi)
        bad, d = d, min(d + step, hi)
        step *= 2
        best = probe(d)
    while d - bad > 1:
        mid = (bad + d) // 2
        obj = probe(mid)
        if obj is None:
            bad = mid
        else:
            d, best = mid, obj
    return best


def max_error(poly, pairs, exact=None):
    """max |poly(t) - f| over the (t, f) pairs, ints or Fractions, as a
    Fraction: the exact maximum, for a dense polynomial or a node.  The t
    of every pair with error 0 is added to the set exact, if one is given.
    Each error stays an integer pair: at poly(t) = v / d,
    |poly(t) - f| = |v f.den - f.num d| / (d f.den).  Bit lengths bound a
    positive x / y strictly between 2^(bits(x) - bits(y) - 1) and
    2^(bits(x) - bits(y) + 1), so an error whose bound is 2 or more bits
    below (above) the largest so far is skipped (taken) as it is; only the
    others are compared by cross-multiplication.  The largest is reduced
    once."""
    wn, wd = 0, 1
    for t, f in pairs:
        v, d = poly.ints(t)
        e, ed = abs(v * f.denominator - f.numerator * d), d * f.denominator
        if not e:
            if exact is not None:
                exact.add(t)
            continue
        gap = (e.bit_length() - ed.bit_length()
               - wn.bit_length() + wd.bit_length())
        if not wn or gap >= 2 or (gap > -2 and e * wd > wn * ed):
            wn, wd = e, ed
    return Fraction(wn, wd)


def certify(err, prec):
    """The reported error of a construction: err itself if it is exact
    (prec None), else err rounded up to prec significant bits."""
    return err if prec is None else to_dyadic(err, prec, up=True)


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

    def fraction(self):
        """Uniform Fraction in [-1, 1] with denominator 2^16."""
        return Fraction(self.randint(-2 ** 16, 2 ** 16), 2 ** 16)
