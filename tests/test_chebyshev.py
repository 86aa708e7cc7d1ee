from fractions import Fraction

import mpmath
from mpmath import mp
from hypothesis import example, given, settings, strategies as st

from polyapprox.chebyshev import (cheb_eval, cheb_eval_closed, cheb_extrema,
                                  cheb_factored, cheb_poly, cheb_roots,
                                  from_mpf, growth_lower_bounds, to_mpf)
from polyapprox.numcore import to_dyadic


def test_known_coefficients():
    assert cheb_poly(0).coeffs == [Fraction(1)]
    assert cheb_poly(1).coeffs == [Fraction(0), Fraction(1)]
    assert cheb_poly(3).coeffs == [Fraction(0), Fraction(-3), Fraction(0),
                                   Fraction(4)]


@given(st.integers(min_value=0, max_value=200),
       st.sampled_from([24, 53, 256, 512]))
@settings(max_examples=40, deadline=None)
def test_float_cheb_poly_rounds_the_exact_coefficients_once(d, prec):
    got = cheb_poly(d, prec).coeffs
    assert got == cheb_poly(d).to_float(prec).coeffs
    assert got == [to_dyadic(c, prec) for c in cheb_poly(d).coeffs]


def test_cosine_identity():
    with mp.workprec(256):
        for d in (1, 2, 7, 16, 33, 64):
            for j in range(8):
                theta = mpmath.mpf(2 * j + 1) / 17
                lhs = cheb_eval(d, mpmath.cos(theta), 256)
                assert abs(lhs - mpmath.cos(d * theta)) < mpmath.mpf(2) ** -200


def test_composition_identity_exact():
    # T_m(T_n(t)) = T_mn(t), checked with exact rationals
    for m, n in ((2, 3), (3, 4), (5, 2)):
        for t in (Fraction(1, 3), Fraction(-7, 5), 2):
            assert cheb_eval(m, cheb_eval(n, t)) == cheb_eval(m * n, t)


def test_closed_form_matches_recurrence_outside_unit_interval():
    with mp.workprec(128):
        for d in (1, 5, 12, 40):
            for t in (Fraction(11, 10), Fraction(2), Fraction(7, 2)):
                a = cheb_eval_closed(d, t, 128)
                exact = cheb_eval(d, t)
                b = mpmath.mpf(exact.numerator) / exact.denominator
                assert abs(a - b) / abs(b) < mpmath.mpf(2) ** -100


def test_roots_and_extrema():
    # exact values of the 128-bit polynomial at the 128-bit nodes
    d = 9
    p = cheb_poly(d, prec=128)
    tol = Fraction(1, 2 ** 110)
    for r in cheb_roots(d, 128):
        assert type(r) is Fraction and abs(p.eval(r)) < tol
    for e in cheb_extrema(d, 128):
        assert type(e) is Fraction and abs(abs(p.eval(e)) - 1) < tol
    with mp.workprec(128):
        assert cheb_roots(d, 128)[0] == from_mpf(mpmath.cos(mpmath.pi / 18))


def test_factored_form_matches_dense():
    d = 8
    f = cheb_factored(d, 128)
    for t in (to_dyadic(Fraction(1, 3), 128), to_dyadic(Fraction(-4, 5), 128),
              2):
        assert abs(f.eval(t) - cheb_eval(d, t)) < Fraction(1, 2 ** 90)


@given(st.integers(min_value=1, max_value=50),
       st.fractions(min_value="1/1000", max_value=2, max_denominator=1000))
@settings(max_examples=80, deadline=None)
def test_growth_lower_bounds(d, delta):
    lin, expo = growth_lower_bounds(d, delta)
    val = cheb_eval(d, 1 + delta)
    # the linear bound 1 + d^2 delta is tight at d = 1, so allow float slop
    assert val >= 1 + d * d * delta - Fraction(1, 10 ** 12)
    assert float(val) >= float(lin) * (1 - 1e-12) - 1e-12
    assert float(val) >= float(expo) * (1 - 1e-12)


def test_growth_grid_zero_violations():
    bad = 0
    for d in range(1, 51):
        for j in range(1, 51):
            delta = Fraction(j, 25)
            if cheb_eval(d, 1 + delta) < 1 + d * d * delta:
                bad += 1
    assert bad == 0


def test_derivative_lower_bound_is_d_squared():
    for d in (1, 3, 10):
        p = cheb_poly(d).derivative()
        assert p.eval(1) == d * d


def test_from_mpf_keeps_the_sign():
    # man_exp holds the absolute mantissa: -0.375 is (3, -3)
    assert from_mpf(mpmath.mpf(-0.375)) == Fraction(-3, 8)
    assert from_mpf(mpmath.mpf(0.375)) == Fraction(3, 8)
    assert from_mpf(mpmath.mpf(-6)) == -6 and from_mpf(mpmath.mpf(0)) == 0


def test_to_mpf_rounds_a_fraction_once():
    # Rounding the numerator first turns 2^60 + 33 into 2^60 at 53 bits, and
    # the quotient then lands one ulp below the nearest float.
    x = Fraction(2 ** 60 + 33, 3)
    assert from_mpf(to_mpf(x, 53)) == to_dyadic(x, 53) == 384307168202282368
    with mp.workprec(256):
        wide = mpmath.mpf(x.numerator) / x.denominator
    assert from_mpf(to_mpf(wide, 53)) == to_dyadic(from_mpf(wide), 53)


@given(st.one_of(
           st.integers(min_value=-10 ** 6, max_value=10 ** 6),
           st.builds(Fraction, st.integers(min_value=-10 ** 40,
                                           max_value=10 ** 40),
                     st.integers(min_value=1, max_value=10 ** 40)),
           st.builds(lambda m, e: m * Fraction(2) ** e,
                     st.integers(min_value=-2 ** 600, max_value=2 ** 600),
                     st.integers(min_value=-700, max_value=700))),
       st.sampled_from([24, 53, 256, 512]), st.sampled_from([24, 53, 1024]))
@example(Fraction(2 ** 60 + 33, 3), 53, 53)
@settings(max_examples=100, deadline=None)
def test_to_mpf_is_the_nearest_float(x, prec, ambient):
    # numcore's nearest rounding is the reference; the ambient precision
    # never enters
    with mp.workprec(ambient):
        got = to_mpf(x, prec)
        again = to_mpf(got, prec)
    assert from_mpf(got) == to_dyadic(x, prec)
    assert from_mpf(again) == from_mpf(got)
