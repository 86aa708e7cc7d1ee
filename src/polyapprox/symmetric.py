"""Approximants for symmetric boolean functions: AND/OR, single-weight
indicators, general symmetric spectra and the sampled low-support
construction.

SymApprox, the one approximant class, measures every claim on its polynomial
over its domain (a SymSpec's weights or composed.SurjSpec's column weight
vectors): the exact maximum deviation, rounded up for a float polynomial,
never an asymptotic estimate, and the points where it is exact in one pass.
"""

from bisect import bisect_left
from fractions import Fraction
import math

from .numcore import (DEFAULT_PREC, SComp, UniPoly, as_fraction, certify,
                      fraction_from_json, json_array, lagrange_interpolate,
                      max_error, min_degree, poly_from_json, scalar_from_json,
                      scalar_to_json, to_dyadic)
from .chebyshev import cheb_eval, cheb_poly, cos_pi, pi_fixed


ZERO, ONE = Fraction(0), Fraction(1)
# the construction label of every SymApprox a construction builds
CONSTRUCTIONS = frozenset({
    "interpolant", "chebyshev-damped", "zeroed-chebyshev",
    "boundary-decomposition", "sampled-nodes", "extension",
    "extension-passthrough", "extension-point", "zero"})


class SymSpec:
    """Target symmetric function: values[w] on Hamming weight w, in [-1, 1]."""
    claims_exact_on = True       # and the construction: see SymApprox

    def __init__(self, n, values):
        if type(n) is not int or n < 0 or len(values) != n + 1:
            raise ValueError("need an integer n >= 0 and n+1 weight values")
        self.n = n
        self.values = [as_fraction(v) for v in values]
        if any(abs(v.numerator) > v.denominator for v in self.values):
            raise ValueError("spectrum values must lie in [-1, 1]")

    # The boolean spectra share two Fractions instead of making n + 1.

    @classmethod
    def and_spec(cls, n):
        return cls(n, [ZERO] * n + [ONE])

    @classmethod
    def or_spec(cls, n):
        return cls(n, [ZERO] + [ONE] * n)

    @classmethod
    def exact_spec(cls, n, w):
        v = [ZERO] * (n + 1)
        v[w] = ONE
        return cls(n, v)

    @property
    def top(self):
        """The highest weight of the support, -1 for the zero spectrum."""
        return max((w for w, v in enumerate(self.values) if v), default=-1)

    def pairs(self):
        return enumerate(self.values)

    def to_json(self):
        return {"target": "spectrum", "n": self.n,
                "values": [scalar_to_json(v) for v in self.values]}

    @classmethod
    def read(cls, doc):
        """(spec, poly, construction, exact_on) of a spectrum artifact."""
        spec = cls(doc["n"], [fraction_from_json(v)
                              for v in json_array(doc, "values")])
        exact = doc["exact_on"]
        if not (isinstance(exact, list) and len(set(exact)) == len(exact)
                and all(type(w) is int and 0 <= w <= spec.n for w in exact)):
            raise ValueError("exact_on must list distinct weights 0..n")
        label = doc["construction"]
        if type(label) is not str or label not in CONSTRUCTIONS:
            raise ValueError("unknown construction %.40r" % (label,))
        return spec, poly_from_json(doc), label, set(exact)


class SymApprox:
    def __init__(self, spec, poly, certified_eps, construction, exact_on):
        self.spec = spec         # the domain: SymSpec or composed.SurjSpec
        self.poly = poly         # UniPoly or a node, evaluated at its points
        self.certified_eps = certified_eps
        self.construction = construction    # both None where the domain
        self.exact_on = exact_on            # claims neither

    @classmethod
    def measured(cls, spec, poly, construction=None, prec=None):
        """poly, a dense polynomial or a node, as an approximant over the
        domain spec with every claim measured on it in one exact pass over
        spec.pairs(): the maximum error, certified at prec bits (exact for
        None), and exact_on, the points with error 0, if spec claims it."""
        exact = set() if spec.claims_exact_on else None
        err = max_error(poly, spec.pairs(), exact)
        return cls(spec, poly, certify(err, prec), construction, exact)

    @classmethod
    def interpolant(cls, spec):
        """The exact interpolant of spec on every weight 0..n: error 0."""
        p = lagrange_interpolate(range(spec.n + 1), spec.values)
        return cls.measured(spec, p, "interpolant")

    def remeasured(self):
        """measured again, exactly, on the fields from_json read."""
        return self.measured(self.spec, self.poly, self.construction)

    @property
    def degree(self):
        return self.poly.degree

    def to_json(self):
        d = self.poly.to_json()
        d.update(self.spec.to_json())
        d["degree"] = self.degree
        d["certified_eps"] = float(self.certified_eps)
        d["certified_eps_exact"] = scalar_to_json(self.certified_eps)
        if self.spec.claims_exact_on:
            d["construction"] = self.construction
            d["exact_on"] = sorted(self.exact_on)
        return d

    @classmethod
    def from_json(cls, doc, domain):
        """The inverse of to_json over the domain class doc is read as."""
        spec, poly, construction, exact = domain.read(doc)
        return cls(spec, poly, scalar_from_json(doc["certified_eps_exact"]),
                   construction, exact)


def single_zero_factor(n, m, prec=DEFAULT_PREC):
    """T restricted to one zero: value 1 at n, 0 at m, |.| <= 1 on [0, n].
    Degree ceil((pi/4) sqrt(n/(n-m))): the least d with d^2 >= x for
    x = pi^2 n / (16 (n - m)), which is never an integer, so
    d = isqrt(floor(x)) + 1, with floor(x) taken in integers from a pi
    within 2^(1 - bits)."""
    if not 0 <= m < n:
        raise ValueError("need 0 <= m < n")
    bits = 64 + 2 * n.bit_length()
    d = math.isqrt(pi_fixed(bits) ** 2 * n // (16 * (n - m) << 2 * bits)) + 1
    cm = cos_pi(1, 2 * d, prec)
    a = (1 - cm) / (n - m)
    return cheb_poly(d, prec).compose_affine(a, cm - a * m)


def _zeroed_bump(r, top, width, zeros, prec):
    """T_r(t / width) scaled to 1 at top, times a single_zero_factor for
    each weight in zeros: value 1 at top, 0 on zeros, Chebyshev damping on
    [0, width].  Caller measures the rest."""
    scale = to_dyadic(1 / cheb_eval(r, Fraction(top, width)), prec)
    p = cheb_poly(r, prec).compose_affine(Fraction(1, width), 0).scale(scale)
    for i in zeros:
        p = p * single_zero_factor(top, i, prec)
    return p


def _and_or_shape(n, d):
    """(r, ell) of and_or_approx at d < n: the bump's Chebyshev degree
    r = ceil(d/2) and its ell - 1 zeros below n."""
    return max(1, -(-d // 2)), min(d * d // (36 * n) + 1, n - 1)


def and_or_approx(n, d, which="and", prec=DEFAULT_PREC):
    """Approximant for AND_n (or OR_n by reflection) built at damping
    parameter d; certified error is the exact maximum over weights 0..n."""
    if which not in ("and", "or"):
        raise ValueError("which must be 'and' or 'or'")
    spec = SymSpec.and_spec(n) if which == "and" else SymSpec.or_spec(n)
    if d >= n:
        return SymApprox.interpolant(spec)
    r, ell = _and_or_shape(n, d)
    # value 1 at n, zeros at n-ell+1 .. n-1
    base = _zeroed_bump(r, n, n - ell, range(n - ell + 1, n), prec)
    # The damping factor M is the exact maximum below weight n; scale
    # divides by 1 + M exactly and rounds each coefficient once.
    M = max_error(base, ((w, 0) for w in range(n)))
    p = base.scale(1 / (1 + M))
    if which == "or":
        # OR reflects the AND polynomial: one basis polynomial, not n
        p = UniPoly([1], p.prec) - p.compose_affine(-1, n)
    return SymApprox.measured(spec, p, "chebyshev-damped", p.prec)


def _and_or_guess(n, eps):
    """The least d < n whose shape (r, ell) has the closed-form error
    1/(1 + T_r(n/m)) <= eps, m = n - ell, else n, decided in integers:
    U_k = m^k T_k(n/m) has U_0 = 1, U_1 = n, U_(k+1) = 2n U_k - m^2 U_(k-1),
    and the error meets eps when eps (U_r + m^r) >= m^r.  That error never
    rises with d, so this bisects over d.  The guess only steers the search:
    min_degree returns the same d from any guess wherever the certified
    error falls with d (ROADMAP item 11 has where it does not)."""

    def reaches(d):
        r, ell = _and_or_shape(n, d)
        m = n - ell
        u, v = 1, n
        for _ in range(r - 1):
            u, v = v, 2 * n * v - m * m * u
        return eps.numerator * (v + m ** r) >= eps.denominator * m ** r

    return bisect_left(range(1, n), True, key=reaches) + 1


def and_or_min_degree(n, which, eps, prec=DEFAULT_PREC):
    """and_or_approx at the smallest d whose certified error is <= eps.  The
    error falls with d, and d >= n is the exact interpolant.  The search
    starts at _and_or_guess."""
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("need eps > 0")
    return min_degree(lambda d: and_or_approx(n, d, which, prec), eps, 1,
                      max(n, 1), _and_or_guess(n, eps))


def exact_weight_approx(n, k, m, eps, prec=DEFAULT_PREC):
    """Approximate indicator of Hamming weight n-k: value 1 there, zero on
    weights <= ell and in [n-ell, n] \\ {n-k}, <= eps elsewhere."""
    eps = as_fraction(eps)
    if not (0 <= k <= m <= n) or eps <= 0:
        raise ValueError("need 0 <= k <= m <= n and eps > 0")
    spec = SymSpec.exact_spec(n, n - k)
    # log2(2 / eps), at least 0: an eps above 2 needs no damping
    lg = max(0, math.log2(2 * eps.denominator) - math.log2(eps.numerator))
    ell = math.ceil(m + lg)
    if 2 * ell >= n:
        return SymApprox.interpolant(spec)
    r = math.ceil(math.sqrt(n * lg))
    p = _zeroed_bump(r, n - k, n - ell,
                     [*range(ell + 1), *range(n - ell, n - k)], prec)
    one = UniPoly([1], p.prec)
    for i in range(n - k + 1, n + 1):
        f = single_zero_factor(i, n - k, prec)
        p = p * (one - f * f)
    return SymApprox.measured(spec, p, "zeroed-chebyshev", p.prec)


def symmetric_approx(spec, eps, prec=DEFAULT_PREC):
    """Any symmetric function: constant plus boundary-weight indicators,
    each approximated to eps/(2 ell + 2)."""
    eps = as_fraction(eps)
    n = spec.n
    ell = 0
    while True:
        middle = spec.values[ell + 1:n - ell]
        if len(set(middle)) <= 1:
            break
        ell += 1
    if 2 * ell + 2 > n:
        return SymApprox.interpolant(spec)
    lam = spec.values[ell + 1]
    slice_eps = eps / (2 * ell + 2)
    total = UniPoly([lam], prec)
    for i in range(ell + 1):
        hi = spec.values[n - i] - lam
        lo = spec.values[i] - lam
        if hi == lo == 0:
            continue
        q = exact_weight_approx(n, i, ell, slice_eps, prec).poly.to_float(prec)
        if hi != 0:
            total = total + q.scale(hi)
        if lo != 0:
            total = total + q.compose_affine(-1, n).scale(lo)
    return SymApprox.measured(spec, total, "boundary-decomposition",
                              total.prec)


def _sampling_exponent(spec, eps):
    """The paper's exponent 5 ceil(8k + ln(1/eps)), at least 0, with k the
    top of the support."""
    k = max(spec.top, 0)
    eps = as_fraction(eps)
    ln = math.log(eps.denominator) - math.log(eps.numerator)
    return max(0, 5 * math.ceil(8 * k + ln))


def sampling_approx(spec, eps):
    """Low-support symmetric functions (zero above weight k) through the
    sampled-node reparametrization at the paper's exponent."""
    return sampled_nodes_approx(spec, _sampling_exponent(spec, eps))


def sampling_min_degree(spec, eps):
    """sampled_nodes_approx at the smallest exponent d in [0, the paper's]
    whose exact error is <= eps.  The degree rises with d."""
    return min_degree(lambda d: sampled_nodes_approx(spec, d), eps, 0,
                      _sampling_exponent(spec, eps))


def sampled_nodes_approx(spec, d):
    """The sampled-node approximant at exponent d; exact rational, recording
    the coefficient norm of its dense factor as pq_norm.  Exact at weights
    <= 2k and >= n-k, with k the top of the support."""
    n, k = spec.n, spec.top
    if k <= 0 or 4 * k >= n:
        return SymApprox.interpolant(spec)
    E = n // (2 * k)
    t = [1 - (1 - Fraction(i, n)) ** E for i in range(n + 1)]
    p = UniPoly([1, -1]) ** d
    for i in range(n - k, n + 1):
        p = p * UniPoly([-t[i], 1])
    nodes = t[:2 * k + 1]
    vals = [spec.values[i] / p.eval(t[i]) for i in range(k + 1)] + [0] * k
    q = lagrange_interpolate(nodes, vals)
    pq = p * q
    # poly in the weight w is pq composed with w -> 1 - (1 - w/n)^E; kept
    # factored, the dense composition has astronomically large coefficients
    inner = UniPoly([1]) - (UniPoly([1, Fraction(-1, n)]) ** E)
    ap = SymApprox.measured(spec, SComp(pq, inner), "sampled-nodes")
    ap.pq_norm = pq.norm()
    return ap
