from fractions import Fraction

import mpmath
from mpmath import mp
from hypothesis import given, settings, strategies as st

from polyapprox.chebyshev import (_cheb_coeffs, cheb_eval, cheb_eval_closed,
                                  cheb_extrema, cheb_factored, cheb_poly,
                                  cheb_roots, cos_pi, growth_lower_bounds,
                                  pi_fixed)
from polyapprox.numcore import Dyadic, to_dyadic


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


def test_memoised_pieces_survive_the_arithmetic_built_on_them():
    # cheb_poly and single_zero_factor build on memoised T_d coefficients
    # and cosines: nothing done with a result may reach the memo
    p = cheb_poly(7, 256)
    c = cos_pi(1, 14, 256)
    for r in (p * p, p ** 3, p + p, -p, p.compose_affine(Fraction(1, 3), c),
              p.scale(c).derivative()):
        assert r.prec == 256
    again, c_again = cheb_poly(7, 256), cos_pi(1, 14, 256)
    assert type(_cheb_coeffs(7)) is tuple
    _cheb_coeffs.cache_clear()
    cos_pi.cache_clear()
    assert again == p == cheb_poly(7, 256)
    assert c_again == c == cos_pi(1, 14, 256)
    assert cheb_poly(7).coeffs == [Fraction(x) for x in _cheb_coeffs(7)]


def test_cosine_identity():
    with mp.workprec(256):
        for d in (1, 2, 7, 16, 33, 64):
            for j in range(8):
                theta = mpmath.mpf(2 * j + 1) / 17
                lhs = cheb_eval(d, mpmath.cos(theta))
                assert abs(lhs - mpmath.cos(d * theta)) < mpmath.mpf(2) ** -200


def test_composition_identity_exact():
    # T_m(T_n(t)) = T_mn(t), checked with exact rationals
    for m, n in ((2, 3), (3, 4), (5, 2)):
        for t in (Fraction(1, 3), Fraction(-7, 5), 2):
            assert cheb_eval(m, cheb_eval(n, t)) == cheb_eval(m * n, t)


def test_closed_form_matches_recurrence_outside_unit_interval():
    for d in (0, 1, 5, 12, 40):
        for t in (Fraction(11, 10), Fraction(2), Fraction(7, 2),
                  Fraction(-1, 3)):
            assert cheb_eval_closed(d, t) == cheb_eval(d, t)


def test_roots_and_extrema():
    # exact values of the 128-bit polynomial at the 128-bit nodes
    d = 9
    p = cheb_poly(d, prec=128)
    tol = Fraction(1, 2 ** 110)
    for r in cheb_roots(d, 128):
        assert type(r) is Dyadic and abs(p.eval(r)) < tol
    for e in cheb_extrema(d, 128):
        assert type(e) is Dyadic and abs(abs(p.eval(e)) - 1) < tol
    r = cheb_roots(d, 128)[0]
    with mp.workprec(256):
        assert abs(mpmath.mpf(r.numerator) / r.denominator
                   - mpmath.cos(mpmath.pi / 18)) <= mpmath.mpf(2) ** -128


def test_cos_pi_is_within_2_to_the_minus_prec():
    # mpmath is the reference: for every 0 <= p <= q <= 200 the integer
    # cosine is within 2^-prec of cos(pi p/q), though not always the
    # correctly rounded value.  The reference takes mpmath's cos(pi/q) to
    # cos(pi p/q) by the recurrence c_(p+1) = 2 c_1 c_p - c_(p-1), and
    # compares in integers at 2^-1100.
    bits = 1100
    with mp.workprec(bits + 32):
        for q in range(1, 201):
            c1 = mpmath.cospi(mpmath.mpf(1) / q)
            ref = [mpmath.mpf(1), c1]
            for _ in range(q - 1):
                ref.append(2 * c1 * ref[-1] - ref[-2])
            for p in range(q + 1):
                r = int(mpmath.nint(mpmath.ldexp(ref[p], bits)))
                for prec in (53, 256, 1024):
                    c = cos_pi(p, q, prec)
                    err = abs((c.numerator << bits) - r * c.denominator)
                    assert err <= c.denominator << bits - prec, (p, q, prec)


def test_cos_pi_reduces_its_argument():
    # cos is even with period 2 pi, so every p gives the value at p mod 2q
    # folded into [0, q]; an exact zero comes out within 2^-prec of 0
    for q in (1, 2, 7, 48):
        for p in range(-3 * q, 3 * q + 1):
            assert cos_pi(p, q, 64) == cos_pi(min(p % (2 * q), -p % (2 * q)),
                                             q, 64)
    assert cos_pi(0, 5, 64) == 1 and cos_pi(5, 5, 64) == -1
    assert abs(cos_pi(1, 2, 64)) < Fraction(1, 2 ** 64)


def test_cos_pi_folds_past_a_quarter_turn():
    # for 2p > q the series runs at pi - x and the rounded total is negated:
    # round to nearest even is symmetric, so the value is -cos_pi(q - p, q)
    for q in (1, 3, 7, 48, 200):
        for p in range(q // 2 + 1, q + 1):
            for prec in (53, 256):
                c = cos_pi(p, q, prec)
                assert type(c) is Dyadic and c == -cos_pi(q - p, q, prec)


def test_pi_fixed_is_within_2_units():
    for bits in (0, 1, 10, 64, 276, 1044, 5000):
        with mp.workprec(bits + 64):
            assert abs(pi_fixed(bits) - mpmath.ldexp(mpmath.pi, bits)) < 2


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
