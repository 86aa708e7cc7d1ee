"""Chebyshev polynomials of the first kind: exact coefficients, stable
evaluation, node sets, and the growth facts the constructions lean on."""

from fractions import Fraction
from functools import lru_cache
import math

from .numcore import DEFAULT_PREC, UniPoly, to_dyadic


@lru_cache(maxsize=32)
def pi_fixed(bits):
    """An integer within 2 of pi 2^bits: Machin's pi = 16 atan(1/5) -
    4 atan(1/239), each arctangent's series summed in fixed point with
    guard bits above the one unit each of its terms may lose."""
    guard = bits.bit_length() + 8
    one = 1 << bits + guard

    def atan_inv(x):
        total, power, k = 0, one // x, 1
        while power:
            total += power // k if k % 4 == 1 else -(power // k)
            power //= x * x
            k += 2
        return total

    return 16 * atan_inv(5) - 4 * atan_inv(239) >> guard


@lru_cache(maxsize=256)
def cos_pi(p, q, prec):
    """cos(pi p/q) for integers p and q > 0, a prec-bit Dyadic from Python
    ints alone: a Taylor series in fixed point with 20 guard bits, far more
    than the truncation error its terms and pi gather, rounded once.
    Deterministic and within 2^-prec, but not always correctly rounded: a
    construction certifies whatever it returns by the exact measure."""
    p = min(p % (2 * q), -p % (2 * q))      # cos is even, of period 2 pi
    neg = 2 * p > q                         # cos(pi - x) = -cos(x)
    p = min(p, q - p)
    bits = prec + 20
    x = pi_fixed(bits) * p // q             # in [0, pi/2]
    x2 = x * x >> bits
    total = term = 1 << bits
    k = 0
    while term:
        k += 2
        term = (term * x2 >> bits) // (k * (k - 1))
        total += term if k % 4 == 0 else -term
    return to_dyadic(Fraction(-total if neg else total, 1 << bits), prec)


@lru_cache(maxsize=64)
def _cheb_coeffs(d):
    """T_d's integer coefficients, a tuple, by the recurrence on lists."""
    t0, t1 = [1], [0, 1]
    for _ in range(d - 1):
        t0, t1 = t1, [2 * b - a for a, b in zip(t0 + [0, 0], [0] + t1)]
    return tuple(t1 if d else t0)


def cheb_poly(d, prec=None):
    """T_d as a dense polynomial, exact when prec is None: a fresh list of
    _cheb_coeffs' integers, converted once (a float rounds once)."""
    if d < 0:
        raise ValueError("negative degree")
    return UniPoly._from_ints(list(_cheb_coeffs(d)), 1, prec)


def cheb_eval(d, t):
    """T_d(t) by the recurrence, in t's own arithmetic: exact for an int or
    a Fraction."""
    a, b = t ** 0, t
    for _ in range(d):
        a, b = b, 2 * t * b - a
    return a


def cheb_eval_closed(d, t):
    """((t - s)^d + (t + s)^d) / 2 with s = sqrt(t^2 - 1), binomially
    expanded: the odd powers of s cancel, so for a rational t it is
    sum_i C(d, 2i) t^(d-2i) (t^2 - 1)^i, exact."""
    return sum(math.comb(d, 2 * i) * t ** (d - 2 * i) * (t * t - 1) ** i
               for i in range(d // 2 + 1))


def cheb_roots(d, prec=DEFAULT_PREC):
    """cos((2i-1)pi/2d) for i = 1..d at prec bits, decreasing, exact."""
    return [cos_pi(2 * i - 1, 2 * d, prec) for i in range(1, d + 1)]


def cheb_extrema(d, prec=DEFAULT_PREC):
    """cos(i pi/d) for i = 0..d at prec bits, exact; T_d alternates +-1."""
    return [cos_pi(i, d, prec) for i in range(d + 1)]


def cheb_factored(d, prec=DEFAULT_PREC):
    """2^(d-1) * prod (t - r_i) over the d roots, as a dense float polynomial."""
    if d == 0:
        return UniPoly([1], prec)
    p = UniPoly.from_roots(cheb_roots(d, prec), prec)
    return p.scale(Fraction(2) ** (d - 1))


def growth_lower_bounds(d, delta):
    """Lower bounds on T_d(1 + delta) for delta in [0, 1]: the exact
    1 + d^2 delta and the float 2^(d sqrt(delta) - 1)."""
    return 1 + d * d * delta, 2 ** (d * math.sqrt(delta) - 1)
