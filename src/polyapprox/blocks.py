"""Univariate building blocks: dyadic decay products, multiplicative
reciprocal approximants, reciprocal powers, threshold amplifiers, and the
interval indicator assembled from them.

The interval indicator is returned in factored form (StructPoly); its dense
monomial expansion is astronomically large at the degrees the error targets
force, while evaluation of the factored form is cheap.
"""

from fractions import Fraction
import math

from .numcore import (PrecisionError, SBinomTail, SComp, SProd, UniPoly,
                      as_fraction)
from .chebyshev import cheb_eval, cheb_poly


def dyadic_decay_poly(n, d):
    """p with p(0) = 1 and |p(t)| <= 1/t^d on [1, n]; degree <= 7 d sqrt(n).

    Product over dyadic scales 2^i of T_ceil(sqrt(n/2^i))(1 + (2^i - t)/n),
    all raised to the d-th power and normalized at 0.  Exact rational."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1, d >= 0")
    levels = (math.ceil(n) - 1).bit_length()
    prod = UniPoly([1])
    for i in range(levels + 1):
        c = math.isqrt(-(-n // 2 ** i) - 1) + 1
        prod = prod * cheb_poly(c).compose_affine(Fraction(-1, n),
                                                  1 + Fraction(2 ** i, n))
    prod = prod ** d
    return prod.scale(1 / prod.eval(0))


def reciprocal_approx(n, d):
    """(p, eps) with (1-eps)/t <= p(t) <= (1+eps)/t on [1, n], deg p = d,
    eps = 1/T_{d+1}((n+1)/(n-1)).  Exact rational for rational n > 1."""
    n = as_fraction(n)
    if n <= 1 or d < 0:
        raise ValueError("need n > 1, d >= 0")
    peak = cheb_eval(d + 1, (n + 1) / (n - 1))
    q = cheb_poly(d + 1).compose_affine(Fraction(-2, 1) / (n - 1),
                                        1 + Fraction(2, 1) / (n - 1))
    q = q.scale(Fraction(1) / peak)
    # q(0) = 1 exactly (the Chebyshev argument at t = 0 is the normalization
    # point), so 1 - q is divisible by t
    one_minus_q = UniPoly([1]) - q
    if one_minus_q.eval(0) != 0:
        raise ArithmeticError("reciprocal construction lost its root at 0")
    p = UniPoly._from_ints(one_minus_q.nums[1:], one_minus_q.den, None)
    return p, Fraction(1) / peak


def reciprocal_corollary(n):
    """(p, d) with 1/(2t) <= p(t) <= 1/t on [1, n], d = floor(sqrt(2(n-1)))."""
    n = as_fraction(n)
    # isqrt(floor(x)) == floor(sqrt(x)) for rational x >= 0
    d = math.isqrt(math.floor(2 * (n - 1))) if n > 1 else 0
    p, eps = reciprocal_approx(n, d)
    # tiny ranges: raise the degree until the sandwich 1/(2t)..1/t holds
    while eps > Fraction(1, 3):
        d += 1
        p, eps = reciprocal_approx(n, d)
    # (1-eps)/t >= 1/(2t) iff eps <= 1/2; scale down so p <= 1/t exactly
    p = p.scale(Fraction(1) / (1 + eps))
    return p, d


def reciprocal_power_approx(d, D):
    """p(t) = sum_{i<=D} C(i+d-1, i) (1-t)^i, the degree-D Taylor section of
    1/t^d at t = 1.  Integer coefficients: C(i+d-1, i) C(i, j) is
    C(j+d-1, j) C(i+d-1, i-j), and the hockey stick sums the second factor
    over i <= D to C(D+d, D-j), so t^j has (-1)^j C(j+d-1, j) C(D+d, D-j)."""
    if d < 1 or D < 0:
        raise ValueError("need d >= 1, D >= 0")
    return UniPoly([(-1) ** j * math.comb(j + d - 1, j) * math.comb(D + d, D - j)
                    for j in range(D + 1)])


def reciprocal_power_error_bound(d, D, u):
    """|1/t^d - p(t)| <= |1-t|^(D+1) C(D+d, d) d on [d/(d+D), 2-d/(d+D)]."""
    u = as_fraction(u)
    return abs(1 - u) ** (D + 1) * math.comb(D + d, d) * d


def _amplifier_degree(u_bad, u_good, eps):
    """The exact-threshold binomial tail that maps [0, u_bad] below eps and
    [u_good, 1] above 1 - eps (Hoeffding 1963), at the Chernoff-Hoeffding
    degree d = ln(1/eps)/KL + 1, at least 8, and checked once.  The
    estimate is in floats, with ln(1/eps) from eps's numerator and
    denominator so a tiny eps cannot underflow; a degree it puts too low
    raises PrecisionError."""
    mid = (u_bad + u_good) / 2

    def kl(a, b):
        a, b = float(a), float(b)
        return a * math.log(a / b) + (1 - a) * math.log((1 - a) / (1 - b))

    rate = min(kl(mid, u_bad), kl(mid, u_good))
    est = int((math.log(eps.denominator) - math.log(eps.numerator))
              / rate) + 1
    d = max(8, est)
    lo = int(math.ceil(mid * d))
    tail = SBinomTail(d, lo)
    # tail(u_bad) <= eps and 1 - tail(u_good) <= eps on the unreduced
    # pairs: reducing N / b^d would take a gcd of numbers of d digits
    (v, b), (w, c) = tail.ints(u_bad), tail.ints(u_good)
    if (v * eps.denominator > eps.numerator * b
            or (c - w) * eps.denominator > eps.numerator * c):
        raise PrecisionError("the degree-%d binomial amplifier misses its "
                             "target" % d)
    return tail


def or_continuous_approx(n, eps):
    """p with p([0,1]) in [1-eps, 1], |p| <= 1 on (1,2], 0 <= p <= eps on
    (2,n].  Chebyshev bump normalized by its exact maximum, then pushed
    through a binomial threshold amplifier.  Factored form."""
    n = as_fraction(n)
    if n <= 2:
        raise ValueError("need n > 2")
    c = math.isqrt(math.ceil(n) - 1) + 1      # ceil(sqrt(n)), in integers
    q = cheb_poly(c).compose_affine(Fraction(-1, 1) / n, 1 + Fraction(2, 1) / n)
    peak = q.eval(0)          # exact maximum of q on [0, n]
    qstar = (q + UniPoly([1])).scale(Fraction(1) / (peak + 1))
    u_bad = Fraction(2) / (peak + 1)
    u_good = Fraction(3) / (peak + 1)
    return SComp(_amplifier_degree(u_bad, u_good, eps), qstar)


def interval_indicator(n, d, eps):
    """p with |p - 1| <= eps on [0,1], |p| <= 1 + eps on (1,2], and
    |p(t)| <= eps/t^d on (2,n].  Factored form p1^d * p2(p1) * p3."""
    n = as_fraction(n)
    eps = as_fraction(eps)
    if n <= 2 or eps <= 0:
        raise ValueError("need n > 2, eps > 0")
    if d == 0:
        # no decay requirement; the amplified bump alone is the indicator
        return or_continuous_approx(n, eps)
    p1, _ = reciprocal_corollary(n + 1)
    p1 = p1.compose_affine(1, 1)       # sandwich 1/(2(t+1)) .. 1/(t+1) on [0,n]
    D = 5 * d + 1
    # the smallest D >= 5d + 1 with (5/6)^(D+1) C(D+d, d) d <= eps/2
    while reciprocal_power_error_bound(d, D, Fraction(1, 6)) > eps / 2:
        D += 1
    p2 = reciprocal_power_approx(d, D)
    eps3 = min(eps / (2 * math.comb(D + d, d)), eps / 4)
    p3 = or_continuous_approx(n, eps3)
    return SProd([p1 ** d, SComp(p2, p1), p3])
