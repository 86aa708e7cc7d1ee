"""Chebyshev polynomials of the first kind: exact coefficients, stable
evaluation, node sets, and the growth facts the constructions lean on."""

from fractions import Fraction

import mpmath
from mpmath import mp

from .numcore import DEFAULT_PREC, UniPoly


def to_mpf(x, prec):
    """The prec-bit mpf nearest an int, Fraction, float or mpf (ties to
    even), rounded once; the ambient precision never enters."""
    num, den = x.as_integer_ratio() if isinstance(x, Fraction) else (x, 1)
    return mpmath.fdiv(num, den, prec=prec, rounding="n")


def from_mpf(x):
    """The exact value of a finite mpf, a dyadic Fraction.  man_exp holds
    the absolute mantissa, so the sign is read off x."""
    man, exp = x.man_exp
    return (-1 if x < 0 else 1) * int(man) * Fraction(2) ** exp


def cheb_poly(d, prec=None):
    """T_d as a dense polynomial, exact when prec is None: the recurrence on
    integer coefficient lists, converted once (a float rounds once)."""
    if d < 0:
        raise ValueError("negative degree")
    t0, t1 = [1], [0, 1]
    for _ in range(d - 1):
        t0, t1 = t1, [2 * b - a for a, b in zip(t0 + [0, 0], [0] + t1)]
    return UniPoly(t1 if d else t0, prec)


def cheb_eval(d, t, prec=None):
    """T_d(t) by the recurrence; exact when t is rational and prec is None."""
    if prec is None:
        t = t if isinstance(t, Fraction) else Fraction(t)
        a, b = Fraction(1), t
        for _ in range(d):
            a, b = b, 2 * t * b - a
        return a
    with mp.workprec(prec):
        tt = to_mpf(t, prec)
        a, b = mpmath.mpf(1), tt
        for _ in range(d):
            a, b = b, 2 * tt * b - a
        return a


def cheb_eval_closed(d, t, prec=DEFAULT_PREC):
    """((t - sqrt(t^2-1))^d + (t + sqrt(t^2-1))^d) / 2, valid for |t| >= 1."""
    with mp.workprec(prec):
        tt = to_mpf(t, prec)
        s = mpmath.sqrt(tt * tt - 1)
        return ((tt - s) ** d + (tt + s) ** d) / 2


def cheb_roots(d, prec=DEFAULT_PREC):
    """cos((2i-1)pi/2d) for i = 1..d at prec bits, decreasing, exact."""
    with mp.workprec(prec):
        return [from_mpf(mpmath.cos((2 * i - 1) * mpmath.pi / (2 * d)))
                for i in range(1, d + 1)]


def cheb_extrema(d, prec=DEFAULT_PREC):
    """cos(i pi/d) for i = 0..d at prec bits, exact; T_d alternates +-1."""
    with mp.workprec(prec):
        return [from_mpf(mpmath.cos(i * mpmath.pi / d)) for i in range(d + 1)]


def cheb_factored(d, prec=DEFAULT_PREC):
    """2^(d-1) * prod (t - r_i) over the d roots, as a dense float polynomial."""
    if d == 0:
        return UniPoly([1], prec)
    p = UniPoly.from_roots(cheb_roots(d, prec), prec)
    return p.scale(Fraction(2) ** (d - 1))


def growth_lower_bounds(d, delta):
    """Lower bounds on T_d(1 + delta) for delta in [0, 1]:
    returns (1 + d^2 delta, 2^(d sqrt(delta) - 1)) at DEFAULT_PREC bits."""
    with mp.workprec(DEFAULT_PREC):
        dd = to_mpf(delta, DEFAULT_PREC)
        return (1 + d * d * dd, mpmath.mpf(2) ** (d * mpmath.sqrt(dd) - 1))
