"""Extending approximants certified on a short weight range to the full
hypercube, together with the coefficient-norm and extrapolation lemmas that
make leaving the certified range safe."""

from fractions import Fraction
import math

from .numcore import (DEFAULT_PREC, SComp, SProd, UniPoly, as_fraction,
                      max_error)
from .chebyshev import cheb_poly
from .blocks import interval_indicator
from .symmetric import SymApprox, SymSpec


def coeff_norm_bound(p):
    """8^d * max_i |p(i/d)| over i = 0..d, an upper bound on the coefficient
    1-norm of any degree-d polynomial.  Exact."""
    d = p.degree
    if d <= 0:
        return abs(p.eval(0))
    return Fraction(8) ** d * max_error(p, ((Fraction(i, d), 0)
                                            for i in range(d + 1)))


def sym_multilinear_norms(n, a):
    """Symmetric multilinear phi = sum_s a_s e_s(x) over n variables:
    returns (coefficient 1-norm, 8^deg * max over the cube)."""
    a = [as_fraction(v) for v in a]
    deg = max((s for s, v in enumerate(a) if v != 0), default=0)
    norm = sum(abs(v) * math.comb(n, s) for s, v in enumerate(a))
    peak = max(abs(sum(v * math.comb(w, s) for s, v in enumerate(a)))
               for w in range(n + 1))
    return norm, Fraction(8) ** deg * peak


def extrapolation_bound(d, m, weight):
    """|phi(x*)| <= 2^d C(ceil(|x*|/floor(m/d)), d) max_{|x|<=m} |phi| for
    multilinear phi of degree <= d, m >= d."""
    if d == 0:
        return Fraction(1)
    if m < d:
        raise ValueError("need m >= d")
    block = m // d
    return Fraction(2) ** d * math.comb(-(-weight // block), d)


def _log2_ceil(x):
    """The least j >= 0 with 2^j >= x, for a Fraction x > 0."""
    return (-(-x.numerator // x.denominator) - 1).bit_length()


def _zero_certified(approx, m):
    n_in = approx.spec.n
    for w in range(m + 1, n_in + 1):
        if approx.spec.values[w] != 0:
            raise ValueError("input spectrum must vanish on weights %d..%d"
                             % (m + 1, n_in))


def extend_approx(approx, n, delta, prec=DEFAULT_PREC):
    """Extend an approximant certified for F_{2m} (and vanishing above
    weight m) to all of {0,1}^n, adding at most delta certified error."""
    delta = as_fraction(delta)
    n_in = approx.spec.n
    if n_in % 2:
        raise ValueError("input range must be even (a 2m-weight slice)")
    m = n_in // 2
    _zero_certified(approx, m)
    target = SymSpec(n, [approx.spec.values[w] if w <= m else 0
                         for w in range(n + 1)])
    if n <= n_in:
        return SymApprox.measured(target, approx.poly, "extension-passthrough")
    if m == 0:
        return _extend_from_point(approx, target, n, delta)
    d = max(approx.degree, 1)
    alpha = delta / int(math.ceil((4 * math.e) ** (d + 1)))
    ind = interval_indicator(Fraction(n, m), d, alpha)
    return _extended(approx, target, m, ind, prec)


def _extended(approx, target, m, ind, prec):
    """approx times ind(w/m), certified by the exact measure on target,
    rounded up to prec bits: the tail's exact maximum is a fraction of
    thousands of bits."""
    full = SProd([approx.poly, SComp(ind, UniPoly([0, Fraction(1, m)]))])
    return SymApprox.measured(target, full, "extension", prec)


def _extend_from_point(approx, target, n, delta):
    # one certified weight only: damp with a normalized Chebyshev power
    reps = max(1, _log2_ceil(1 / delta))
    c = math.isqrt(n - 1) + 1
    T = cheb_poly(c).compose_affine(Fraction(-1, n), 1 + Fraction(1, n))
    T = T ** reps
    poly = T.scale(approx.spec.values[0] / T.eval(0))
    return SymApprox.measured(target, poly, "extension-point")


def small_support_approx(spec, eps, prec=DEFAULT_PREC):
    """Symmetric f vanishing above a low weight k: interpolate exactly on the
    2k-slice and extend, certified by the exact maximum rounded up to prec
    bits; only that rounding can take it above eps."""
    eps = as_fraction(eps)
    n, k = spec.n, spec.top
    if k < 0:
        return SymApprox.measured(spec, UniPoly.zero(), "zero")
    if 2 * k >= n:
        return SymApprox.interpolant(spec)
    base = SymApprox.interpolant(SymSpec(2 * k, spec.values[:2 * k + 1]))
    if k == 0:
        return extend_approx(base, n, eps, prec)
    # The recipe's alpha is a worst case.  base = f on 0..k, base = 0 on
    # k+1..2k and |base| <= B on 0..n, so an indicator within 2^-j of 1 on
    # [0, 1] and of 0 above 2 meets eps once B 2^-j <= eps.  The measure is
    # exact, so only the certificate's rounding to prec bits can miss eps.
    B = max_error(base.poly, ((w, 0) for w in range(n + 1)))
    j = _log2_ceil(B / eps)
    ind = interval_indicator(Fraction(n, k), 0, Fraction(1, 2 ** j))
    return _extended(base, spec, k, ind, prec)
