"""Exact and big-float polynomials: dense univariate ones, and structured
(factored) ones for constructions whose dense expansion is out of reach.

Precision is the one scalar knob: None is exact (fractions.Fraction), an
integer is mpmath mpf at that many bits, and only this module names the
derived backend, "rational" or "float".  Mixing precisions is an error,
never a silent coercion.  Every mpf is a dyadic rational, so a UniPoly is
one exact integer form at any precision, its arithmetic runs in integers,
and a float result rounds once per coefficient.  A float construction
builds its polynomial once and certifies it exactly: eval() is the exact
value at a rational point.  Structured nodes, with UniPolys or nodes as
children, evaluate only through enclose(), at an exact rational point: a
composition's inner is dense and evaluates exactly.  The one inexact node,
SBinomTail, returns its prec-bit sum (summed on integer mantissas with
mpf's roundings) with a rigorous radius, and a product carries its
factors' (center, radius) exactly.  max_error() takes the maximum over
the measured points, for a UniPoly over integer numerators reduced once,
and certify() rounds a float construction's maximum up to its precision.
"""

from fractions import Fraction
from itertools import zip_longest
import math

import mpmath
from mpmath import libmp, mp

RATIONAL = "rational"
FLOAT = "float"

DEFAULT_PREC = 256


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


def exact_value(x):
    """The exact rational value of an int, Fraction or finite mpf: an mpf is
    man * 2**exp."""
    if isinstance(x, mpmath.mpf):
        sign, man, exp, _ = x._mpf_
        if not man and exp:
            raise ValueError("no exact value for %r" % x)
        v = Fraction(int(man) << exp) if exp >= 0 else Fraction(int(man), 1 << -exp)
        return -v if sign else v
    return as_fraction(x)


def round_up(x, prec):
    """The smallest prec-bit mpf >= the rational x.  make_mpf keeps the
    rounded value as it is; mpf(tuple) would round it again, to nearest at
    the ambient precision."""
    x = as_fraction(x)
    return mp.make_mpf(libmp.from_rational(x.numerator, x.denominator, prec,
                                           libmp.round_ceiling))


def to_mpf(x, prec):
    """The prec-bit mpf nearest an int, Fraction, float or mpf (ties to
    even), rounded once; the ambient precision never enters."""
    if isinstance(x, mpmath.mpf):
        return mp.make_mpf(libmp.mpf_pos(x._mpf_, prec, libmp.round_nearest))
    x = Fraction(x)
    return mp.make_mpf(libmp.from_rational(x.numerator, x.denominator, prec,
                                           libmp.round_nearest))


def _to_hex(man, exp):
    """The hex spelling of man * 2**exp: an odd mantissa, "0x0p0" for 0."""
    if not man:
        return "0x0p0"
    tz = (man & -man).bit_length() - 1
    return "%s0x%xp%d" % ("-" if man < 0 else "", abs(man) >> tz, exp + tz)


def _from_hex(s):
    """(man, exp) of a hex string, man odd, (0, 0) for zero."""
    neg = s.startswith("-")
    if neg:
        s = s[1:]
    mant_s, exp_s = s[2:].split("p")
    man, exp = int(mant_s, 16), int(exp_s)
    if not man:
        return 0, 0
    tz = (man & -man).bit_length() - 1
    return (-man if neg else man) >> tz, exp + tz


def mpf_to_hex(x):
    tup = x._mpf_ if isinstance(x, mpmath.mpf) else mpmath.mpf(x)._mpf_
    sign, man, exp, _ = tup
    return _to_hex(-int(man) if sign else int(man), exp)


def mpf_from_hex(s):
    return mp.make_mpf(libmp.from_man_exp(*_from_hex(s)))


def scalar_to_json(x):
    """A Fraction as "a/b", in hex past Python's 4300-digit int-to-str
    limit, and an mpf as hex."""
    if isinstance(x, (int, Fraction)):
        f = Fraction(x)
        try:
            return "%d/%d" % (f.numerator, f.denominator)
        except ValueError:
            return "%#x/%#x" % (f.numerator, f.denominator)
    return mpf_to_hex(x)


def scalar_from_json(s):
    """Parse "a/b" (decimal, or 0x hex) as a Fraction, mpf hex as an mpf."""
    if "/" in s:
        num, den = (int(x, 16) if x.lstrip("-").startswith("0x") else int(x)
                    for x in s.split("/"))
        if den == 0:
            raise ValueError("zero denominator in %s" % s)
        return Fraction(num, den)
    return mpf_from_hex(s)


def _lowest(nums, den, prec):
    """(nums, den) for sum_i nums[i] / den t^i in lowest terms, with no
    trailing zero: exact if prec is None, else each coefficient rounded
    once, to nearest at prec bits (ties to even), over a power-of-two den.

    A cut of c > 0 bits from a >= 0 is (a + 2^(c-1) - 1 + b) >> c, with b
    the last kept bit: it carries when the cut part exceeds half a unit,
    or equals it with an odd last bit.  Over a power-of-two den the cut
    bits are shifted back in place.  Over any other den one divmod gives a
    quotient of more than prec bits, cut with the remainder or-ed into b
    as a sticky bit, and each rounded value is m 2^e.  A correctly rounded
    value is unique, so the result is libmp's bit for bit.  The common
    power of two is stripped once at the end."""
    while nums and not nums[-1]:
        nums.pop()
    if prec is None:
        g = math.gcd(den, *nums)
        return ([n // g for n in nums], den // g) if g > 1 else (nums, den)
    if den & (den - 1):
        dbits = den.bit_length()
        parts = []
        for n in nums:
            a = -n if n < 0 else n
            if not a:
                parts.append((0, 0))
                continue
            s = prec + 1 + dbits - a.bit_length()
            q, rem = divmod(a << s, den) if s >= 0 else divmod(a, den << -s)
            c = q.bit_length() - prec
            q = (q + (1 << c - 1) - 1 + (q >> c & 1 | (rem != 0))) >> c
            parts.append((-q if n < 0 else q, c - s))
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


def _kronecker_mul(a, b):
    """The coefficients of the product of two nonempty integer polynomials,
    by Kronecker substitution: each is packed into one integer at a stride
    of w bytes, wide enough for every product coefficient, the two integers
    are multiplied once, and the product is unpacked.  Adding half a slot
    to every slot keeps each packed digit nonnegative."""
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + min(len(a), len(b)).bit_length())
    w = bits // 8 + 1                     # every |c| < 2^bits <= 2^(8w - 1)
    half = 1 << (8 * w - 1)
    halves = half.to_bytes(w, "little")

    def pack(c):
        digits = b"".join((x + half).to_bytes(w, "little") for x in c)
        return (int.from_bytes(digits, "little")
                - int.from_bytes(halves * len(c), "little"))

    n = len(a) + len(b) - 1
    pa = pack(a)
    prod = pa * (pa if b is a else pack(b))
    data = (prod + int.from_bytes(halves * n, "little")).to_bytes(n * w,
                                                                  "little")
    return [int.from_bytes(data[i:i + w], "little") - half
            for i in range(0, n * w, w)]


class UniPoly:
    """Dense univariate polynomial, exact (prec None) or float at prec bits.
    Coefficient i is nums[i] / den in lowest terms (den > 0, gcd(den, *nums)
    == 1) with no trailing zero, so the zero polynomial has degree -1; for
    floats den is a power of two.  The form is never mutated.  Every
    operation passes its exact integer result through _from_ints: an exact
    one is reduced by one gcd, a float one rounds each coefficient once, to
    nearest at prec."""

    __slots__ = ("nums", "den", "prec")

    def __init__(self, coeffs, prec=None):
        if prec is None:
            values = [as_fraction(c) for c in coeffs]
        else:
            if prec < 1:
                raise ValueError("float precision must be at least 1 bit, "
                                 "got %r" % prec)
            values = [exact_value(c) if isinstance(c, mpmath.mpf)
                      else Fraction(c) for c in coeffs]
        self.prec = prec
        den = math.lcm(*(v.denominator for v in values))
        nums = [v.numerator * (den // v.denominator) for v in values]
        self.nums, self.den = _lowest(nums, den, prec)

    @property
    def backend(self):
        """Read-only, derived from prec: exact or float."""
        return RATIONAL if self.prec is None else FLOAT

    @property
    def coeffs(self):
        """Read-only: Fractions, or mpfs holding the exact dyadic values."""
        if self.prec is None:
            return [Fraction(n, self.den) for n in self.nums]
        exp = 1 - self.den.bit_length()
        return [mp.make_mpf(libmp.from_man_exp(n, exp)) for n in self.nums]

    @property
    def degree(self):
        return len(self.nums) - 1

    @classmethod
    def zero(cls, prec=None):
        return cls([], prec)

    @classmethod
    def constant(cls, c, prec=None):
        return cls([c], prec)

    @classmethod
    def from_roots(cls, roots, prec=None):
        value = as_fraction if prec is None else exact_value
        p = cls.constant(1, prec)
        for r in roots:
            p = p * cls([-value(r), 1], prec)
        return p

    def _check(self, other):
        if self.prec != other.prec:
            raise BackendMismatchError("mixed precisions %r / %r (None is "
                                       "exact)" % (self.prec, other.prec))

    def _from_ints(self, nums, den):
        """The polynomial sum_i nums[i] / den t^i at this precision: exact,
        or each float coefficient rounded once, to nearest at prec."""
        p = UniPoly.__new__(UniPoly)
        p.prec = self.prec
        p.nums, p.den = _lowest(nums, den, self.prec)
        return p

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
            self.nums, other.nums, fillvalue=0)], den)

    def __neg__(self):
        return self._from_ints([-n for n in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        if not self.nums or not other.nums:
            return self._from_ints([], 1)
        return self._from_ints(_kronecker_mul(self.nums, other.nums),
                               self.den * other.den)

    def scale(self, c):
        c = as_fraction(c) if self.prec is None else exact_value(c)
        return self._from_ints([n * c.numerator for n in self.nums],
                               self.den * c.denominator)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = UniPoly.constant(1, self.prec)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def eval(self, t):
        """The exact value at a rational t, for either backend."""
        return Fraction(*horner_ints(self.nums, self.den, as_fraction(t)))

    def enclose(self, t):
        """(eval(t), 0): a dense polynomial is exact at a point."""
        return self.eval(t), Fraction(0)

    def compose_affine(self, a, b):
        """self(a*t + b), exact, each float coefficient rounded once.  With
        a*t + b = (alpha*t + beta) / D in integers and coeffs[j] = N_j / L,
        self(a*t + b) = G(alpha*t + beta) / (L D^deg) for the integer
        polynomial G(y) = sum_j N_j D^(deg-j) y^j: an integer Taylor shift
        of G by beta (repeated synthetic division), then t scaled by alpha."""
        value = as_fraction if self.prec is None else exact_value
        a, b = value(a), value(b)
        nums, den = self.nums, self.den
        if not nums:
            return self._from_ints([], 1)
        deg = len(nums) - 1
        D = math.lcm(a.denominator, b.denominator)
        alpha = a.numerator * (D // a.denominator)
        beta = b.numerator * (D // b.denominator)
        g = [n * D ** (deg - j) for j, n in enumerate(nums)]
        if beta:
            for i in range(deg):
                for j in range(deg - 1, i - 1, -1):
                    g[j] += beta * g[j + 1]
        return self._from_ints([c * alpha ** i for i, c in enumerate(g)],
                               den * D ** deg)

    def norm(self):
        """Sum of absolute coefficient values, exact."""
        return Fraction(sum(map(abs, self.nums)), self.den)

    def derivative(self):
        return self._from_ints([i * n for i, n in enumerate(self.nums)][1:],
                               self.den)

    def to_float(self, prec=DEFAULT_PREC):
        return UniPoly(self.coeffs, prec)

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
        backend = d["backend"]
        if backend == RATIONAL:
            coeffs = [scalar_from_json(s) for s in d["coeffs"]]
            if not all(isinstance(c, Fraction) for c in coeffs):
                raise ValueError("rational polynomial with a float "
                                 "coefficient")
            return cls(coeffs)
        if backend != FLOAT:
            raise ValueError("unknown backend %r" % backend)
        prec = d["precision_bits"]
        if type(prec) is not int or prec < 1:
            raise ValueError("float precision must be an integer of at least "
                             "1 bit, got %r" % (prec,))
        if any("/" in s for s in d["coeffs"]):
            raise ValueError("float polynomial with a rational coefficient")
        parts = [_from_hex(s) for s in d["coeffs"]]
        for (man, _), s in zip(parts, d["coeffs"]):
            if abs(man).bit_length() > prec:
                raise ValueError("coefficient %s has more than %d significant "
                                 "bits" % (s, prec))
        low = min([0] + [e for _, e in parts])
        p = cls.__new__(cls)
        p.prec = prec
        p.nums, p.den = [m << e - low for m, e in parts], 1 << -low
        while p.nums and not p.nums[-1]:
            p.nums.pop()
        return p


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
    rational when all of them are, float otherwise.  A child is a UniPoly or
    another node.

    A node evaluates only through enclose(t) at a rational t, as UniPoly
    does: an exact (center, radius) with |self(t) - center| <= radius, the
    radius 0 unless an SBinomTail, centered at its mpf sum, lies below."""

    def enclose(self, t):
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError


def _backend_of(*parts):
    return RATIONAL if all(p.backend == RATIONAL for p in parts) else FLOAT


def _child_json(p):
    """A node's child as JSON; a dense child is wrapped as a "dense" node."""
    if isinstance(p, UniPoly):
        return {"kind": "dense", "poly": p.to_json()}
    return p.to_json()


class SProd(StructPoly):
    def __init__(self, parts):
        self.parts = parts
        self.degree = sum(p.degree for p in parts)
        self.backend = _backend_of(*parts)

    def enclose(self, t):
        # |prod (c_i + e_i) - prod c_i| <= prod (|c_i| + r_i) - prod |c_i|,
        # carried factor by factor: with C and R the product and radius so
        # far, R' = (R + |C|) (|c| + r) - |C c| = R (|c| + r) + |C| r.
        center, radius = Fraction(1), Fraction(0)
        for p in self.parts:
            c, r = p.enclose(t)
            if r:
                radius = radius * (abs(c) + r) + abs(center) * r
            elif radius:
                radius *= abs(c)
            center *= c
        return center, radius

    def to_json(self):
        return {"kind": "prod", "parts": [_child_json(p) for p in self.parts]}


class SComp(StructPoly):
    """outer(inner(t)), inner dense and exact; outer may be structured."""

    def __init__(self, outer, inner):
        if not isinstance(inner, UniPoly):
            raise ValueError("a composition's inner must be dense")
        self.outer = outer
        self.inner = inner
        self.degree = outer.degree * inner.degree
        self.backend = _backend_of(outer, inner)

    def enclose(self, t):
        return self.outer.enclose(self.inner.eval(t))

    def to_json(self):
        return {"kind": "comp", "outer": _child_json(self.outer),
                "inner": _child_json(self.inner)}


class SBinomTail(StructPoly):
    """sum_{i=lo}^{d} C(d,i) t^i (1-t)^{d-i}, summed term by term at the
    node's precision: on integer mantissas, with the roundings of mpf
    arithmetic, bit for bit."""

    backend = FLOAT

    def __init__(self, d, lo, prec=DEFAULT_PREC):
        for name, x, least in (("d", d, 0), ("lo", lo, 0), ("prec", prec, 1)):
            if type(x) is not int or x < least:
                raise ValueError("a binomial tail needs an integer %s >= %d, "
                                 "got %r" % (name, least, x))
        self.d = d
        self.lo = lo
        self.prec = prec
        self.degree = d
        self._memo = {}
        self._comb = None               # C(d, lo) at prec bits, made once

    def eval(self, t):
        """The mpf sum at t, memoized: the center of enclose()."""
        if t not in self._memo:
            if len(self._memo) > 4096:
                self._memo.clear()
            self._memo[t] = self._eval(t)
        return self._memo[t]

    def _eval(self, t):
        """The sum of the mpf loop

            term = C(d, lo) * u**lo * v**(d - lo);  acc = term
            for i in lo..d-1:  term = term * r * (d - i) / (i + 1);  acc += term

        at u = t rounded to prec bits, v = 1 - u and r = u / v, with every
        operation rounded to nearest (ties to even) at prec bits.  The
        setup runs in libmp.  The loop holds |term| and acc as integer
        mantissas and exponents, and rounds each of its four operations
        exactly as libmp does: the exact result, cut to prec bits.  So it
        returns the mpf loop's sum bit for bit.

        A cut of n > 0 bits from a >= 0 is (a + 2^(n-1) - 1 + b) >> n, with
        b the last kept bit: it carries when the cut part exceeds half a
        unit, or equals it with an odd last bit.  Or-ing a sticky bit into
        b rounds a value just above a, as a division remainder says.  A
        mantissa that rounds up to 2^prec keeps its prec + 1 bits: the same
        value, a power of two."""
        d, lo, prec = self.d, self.lo, self.prec
        rnd = libmp.round_nearest
        u = to_mpf(t, prec)._mpf_
        v = libmp.mpf_sub(libmp.fone, u, prec, rnd)
        # at u = 0 only term 0 is nonzero, at u = 1 only term d: 1 if summed
        if u == libmp.fzero:
            return mp.make_mpf(libmp.fone if lo == 0 else libmp.fzero)
        if v == libmp.fzero:
            return mp.make_mpf(libmp.fone if lo <= d else libmp.fzero)
        if self._comb is None:
            self._comb = libmp.from_int(math.comb(d, lo), prec, rnd)
        term = libmp.mpf_mul(
            libmp.mpf_mul(self._comb, libmp.mpf_pow_int(u, lo, prec, rnd),
                          prec, rnd),
            libmp.mpf_pow_int(v, d - lo, prec, rnd), prec, rnd)
        ts, ta, te, _ = term                  # term = (-1)^ts ta 2^te
        rs, ra, re, _ = libmp.mpf_div(u, v, prec, rnd)
        ta, ra = int(ta), int(ra)
        am, ae = -ta if ts else ta, te        # acc = am 2^ae
        past_mode = False
        may_exit = 3 * d < 2 ** (prec - 1)
        for i in range(lo, d):
            # term * r, then * (d - i): exact products, cut to prec bits
            a, e = ta * ra, te + re
            n = a.bit_length() - prec
            if n > 0:
                a = (a + (1 << n - 1) - 1 + (a >> n & 1)) >> n
                e += n
            a *= d - i
            n = a.bit_length() - prec
            if n > 0:
                a = (a + (1 << n - 1) - 1 + (a >> n & 1)) >> n
                e += n
            # / (i + 1): a quotient of more than prec bits, cut with the
            # remainder as its sticky bit
            s = prec + 1 + (i + 1).bit_length() - a.bit_length()
            a, rem = divmod(a << s, i + 1)
            n = a.bit_length() - prec
            ta = (a + (1 << n - 1) - 1 + (a >> n & 1 | (rem != 0))) >> n
            te = e - s + n
            ts ^= rs
            # acc + term: the exact sum, cut to prec bits
            tm = -ta if ts else ta
            if ae >= te:
                m, e = (am << ae - te) + tm, te
            else:
                m, e = am + (tm << te - ae), ae
            n = m.bit_length() - prec
            if n > 0:
                a = -m if m < 0 else m
                a = (a + (1 << n - 1) - 1 + (a >> n & 1)) >> n
                m, e = -a if m < 0 else a, e + n
            am, ae = m, e
            # Early exit that leaves acc bit-for-bit as the full loop
            # would.  Past the mode, every later exact ratio
            # |r| (d-j)/(j+1), j > i, is <= 1, so a later term exceeds
            # |term| only through its three roundings per step: by less
            # than (1 + 2^-prec)^(3d) < 2 while 3d < 2^(prec-1).  With
            # |term| < 2^(mag(acc) - prec - 3), each later term is below
            # 2^(mag(acc) - prec - 2), half an ulp of the binade under
            # |acc|'s, so round-to-nearest returns acc unchanged at every
            # later add.  Nothing assumes a sign: it holds for u outside
            # [0, 1], where the terms alternate.  The mode test
            # |r| (d-i-1) <= i + 2 is exact, and mag(m 2^e) = e + bits(m).
            if may_exit and not past_mode:
                x = ra * (d - i - 1)
                past_mode = (x << re <= i + 2 if re >= 0
                             else x <= i + 2 << -re)
            if past_mode and am and (te + ta.bit_length()
                                     <= ae + am.bit_length() - prec - 3):
                break
        return mp.make_mpf(libmp.from_man_exp(am, ae))

    def enclose(self, t):
        """The prec-bit sum of _eval with a rigorous radius.  _eval makes
        the mpf loop's roundings, so they are counted here as mpf
        operations.  Rounding: at u in [0, 1] every term of _eval is >= 0,
        and the computed term i is its exact value at u times at most K
        factors (1 + delta)^(+-1), |delta| <= mu = 2^-prec:
          7      forming term lo: C(d, lo) rounded, u^lo and v^(d-lo) at 2
                 each (the final rounding, plus mpf_pow_int's guard-bit
                 truncations, which stay below one more unit), two products;
          d - i  the one rounding of v = 1 - u, raised to the power d - i;
          i - lo the one rounding of r = u / v, used once per step;
          3 (i - lo)  three roundings per step;
          d - i + 1   the additions into acc (d - lo for term lo).
        The largest count is the last term's, K = 4 (d - lo) + 8.  So
        |acc - S| <= gamma_K S for the exact tail S at u, and with
        S <= |acc| / (1 - gamma_K), |acc - S| <= K mu / (1 - 2 K mu) |acc|.
        The early exit of _eval returns the full loop's acc bit for bit.
        The input rounding t -> u adds d |t - u|: on [0, 1] the tail's
        derivative, d times a Bernstein basis polynomial of degree d - 1,
        lies in [0, d].  Outside [0, 1], where the terms alternate, or at
        a tiny prec, the tail is summed exactly instead."""
        t = as_fraction(t)
        d, lo, prec = self.d, self.lo, self.prec
        k = 4 * max(d - lo, 0) + 8
        if not (0 <= t <= 1 and 4 * k < 2 ** prec):
            exact = sum((math.comb(d, i) * t ** i * (1 - t) ** (d - i)
                         for i in range(lo, d + 1)), Fraction(0))
            return exact, Fraction(0)
        acc = exact_value(self.eval(t))
        u = exact_value(to_mpf(t, prec))
        mu = Fraction(1, 2 ** prec)
        return acc, k * mu / (1 - 2 * k * mu) * abs(acc) + d * abs(t - u)

    def to_json(self):
        return {"kind": "binom_tail", "d": self.d, "lo": self.lo,
                "precision_bits": self.prec}


def poly_from_json(d):
    k = d.get("kind")
    if k is None:
        return UniPoly.from_json(d)
    if k == "dense":
        return UniPoly.from_json(d["poly"])
    if k == "prod":
        return SProd([poly_from_json(p) for p in d["parts"]])
    if k == "comp":
        return SComp(poly_from_json(d["outer"]), poly_from_json(d["inner"]))
    if k == "binom_tail":
        return SBinomTail(d["d"], d["lo"], d["precision_bits"])
    raise ValueError("unknown structured polynomial kind %r" % k)


def min_degree(build, eps, lo, hi):
    """build(d) at the smallest d in [lo, hi] with certified_eps <= eps, for
    an error that falls with d: gallop up from lo, then bisect, building no
    d twice.  Raises PrecisionError if d = hi misses eps."""

    def probe(d):
        obj = build(d)
        return obj if exact_value(obj.certified_eps) <= eps else None

    bad, d, step = lo - 1, lo, 1
    while (best := probe(d)) is None:
        if d == hi:
            raise PrecisionError("no degree up to %d meets the target" % hi)
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


def max_error(poly, pairs):
    """max |poly(t) - f| + radius over the (t, f) pairs, ints or Fractions,
    as a Fraction: exact for a dense polynomial, a rigorous bound where a
    node encloses.
    A dense polynomial's errors stay integer pairs: at p(t) = v / d,
    |p(t) - f| = |v f.den - f.num d| / (d f.den).  They are compared by
    cross-multiplication, and the largest is reduced once."""
    if not isinstance(poly, UniPoly):
        worst = Fraction(0)
        for t, f in pairs:
            c, r = poly.enclose(t)
            worst = max(worst, abs(c - f) + r)
        return worst
    nums, den = poly.nums, poly.den
    wn, wd = 0, 1
    for t, f in pairs:
        v, d = horner_ints(nums, den, t)
        e, ed = abs(v * f.denominator - f.numerator * d), d * f.denominator
        if e * wd > wn * ed:
            wn, wd = e, ed
    return Fraction(wn, wd)


def certify(err, prec):
    """The reported error of a construction: err itself if it is exact
    (prec None), else err rounded up to a prec-bit mpf."""
    return err if prec is None else round_up(err, prec)


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

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]
