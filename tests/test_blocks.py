import math
from fractions import Fraction

import pytest

from polyapprox import blocks
from polyapprox.blocks import (dyadic_decay_poly,
                               interval_indicator, or_continuous_approx,
                               reciprocal_approx, reciprocal_corollary,
                               reciprocal_power_approx,
                               reciprocal_power_error_bound)
from polyapprox.numcore import PrecisionError, SBinomTail, UniPoly

GRID_DENOM = 4


def _grid(lo, hi):
    return [Fraction(i, GRID_DENOM) for i in range(lo * GRID_DENOM,
                                                   hi * GRID_DENOM + 1)]


def test_dyadic_decay_properties():
    for n, d in ((16, 1), (16, 3), (32, 2)):
        p = dyadic_decay_poly(n, d)
        assert p.eval(0) == 1
        assert p.degree <= 7 * d * math.sqrt(n) + 1
        for t in _grid(1, n):
            assert abs(p.eval(t)) * t ** d <= 1, (n, d, t)


def test_reciprocal_sandwich():
    for n, d in ((8, 3), (20, 5)):
        p, eps = reciprocal_approx(n, d)
        assert p.degree == d
        assert 0 < eps < 1
        for t in _grid(1, n):
            v = p.eval(t)
            assert (1 - eps) <= v * t <= (1 + eps), (n, d, t)


def test_reciprocal_corollary_sandwich():
    for n in (5, 17, 64):
        p, d = reciprocal_corollary(n)
        assert p.degree <= d + 1
        for t in _grid(1, n):
            v = p.eval(t)
            assert Fraction(1, 2) <= v * t <= 1, (n, t)


def _guarded_corollary_degree(n):
    # The degree choice of reciprocal_corollary with explicit guards around
    # isqrt for non-integer 2(n - 1), then raised until eps <= 1/3.
    d = int(math.isqrt(int(2 * (n - 1)))) if n > 1 else 0
    while (d + 1) ** 2 <= 2 * (n - 1):
        d += 1
    while d ** 2 > 2 * (n - 1):
        d -= 1
    d = max(d, 0)
    while reciprocal_approx(n, d)[1] > Fraction(1, 3):
        d += 1
    return d


def test_reciprocal_corollary_degree_for_non_integer_n():
    for den in (2, 3, 7, 10):
        for num in range(den + 1, 40 * den, 3):
            n = Fraction(num, den)
            if n.denominator == 1:
                continue
            assert reciprocal_corollary(n)[1] == _guarded_corollary_degree(n), n


def test_reciprocal_power_taylor_section():
    d, D = 3, 20
    p = reciprocal_power_approx(d, D)
    assert p.degree == D
    assert p.eval(1) == 1
    for num in range(60, 141, 10):
        u = Fraction(num, 100)
        err = abs(p.eval(u) - Fraction(1) / u ** d)
        assert err <= reciprocal_power_error_bound(d, D, u)


def test_amplifier_is_monotone_tail():
    d = 40
    lo = int(math.ceil(2.5 * math.exp(-7) * d))
    for u in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
        direct = sum(Fraction(math.comb(d, i)) * u ** i * (1 - u) ** (d - i)
                     for i in range(lo, d + 1))
        assert SBinomTail(d, lo).eval(u) == direct


def test_amplifier_check_rejects_a_degree_too_low(monkeypatch):
    # Chernoff's degree meets eps on the exact tail; a quarter of it does
    # not, and the one check says so.
    u_bad, u_good, eps = Fraction(1, 4), Fraction(1, 2), Fraction(1, 1000)
    d, lo = blocks._amplifier_degree(u_bad, u_good, eps)
    tail = SBinomTail(d, lo)
    assert tail.eval(u_bad) <= eps and 1 - tail.eval(u_good) <= eps
    monkeypatch.setattr(blocks, "SBinomTail",
                        lambda d, lo: SBinomTail(d // 4, lo // 4))
    with pytest.raises(PrecisionError, match="degree-%d binomial amplifier "
                       "misses its target" % d):
        blocks._amplifier_degree(u_bad, u_good, eps)


def test_or_continuous_contract():
    n, eps = 64, Fraction(1, 8)
    p = or_continuous_approx(n, eps)
    for t in _grid(0, 1):
        assert 1 - eps <= p.eval(t) <= 1 + eps, t
    for t in _grid(1, 2):
        assert -1 - eps <= p.eval(t) <= 1 + eps, t
    for t in _grid(3, n):
        assert -eps <= p.eval(t) <= eps, t


@pytest.mark.parametrize("d", [0, 2])
def test_interval_indicator_contract(d):
    n, eps = 64, Fraction(1, 8)
    p = interval_indicator(n, d, eps)
    for t in _grid(0, 1):
        assert 1 - eps <= p.eval(t) <= 1 + eps, (d, t)
    for t in _grid(1, 2):
        assert -1 - eps <= p.eval(t) <= 1 + eps, (d, t)
    for t in _grid(3, n):
        assert abs(p.eval(t)) * t ** d <= eps, (d, t)


def test_interval_indicator_cached():
    a = interval_indicator(Fraction(32, 3), 2, Fraction(1, 8))
    b = interval_indicator(Fraction(32, 3), 2, Fraction(1, 8))
    assert a is b


def _reciprocal_power_by_poly_arithmetic(d, D):
    # Reference: the Taylor section summed as Fraction polynomials.
    base = UniPoly([1, -1])
    p = UniPoly.zero()
    pw = UniPoly([1])
    for i in range(D + 1):
        p = p + pw.scale(math.comb(i + d - 1, i))
        pw = pw * base
    return p


@pytest.mark.parametrize("d, D", [(1, 0), (1, 1), (2, 7), (3, 20), (4, 185),
                                  (7, 36)])
def test_reciprocal_power_matches_poly_arithmetic(d, D):
    got = reciprocal_power_approx(d, D)
    want = _reciprocal_power_by_poly_arithmetic(d, D)
    assert got == want
    assert got.degree == D
    assert all(type(c) is Fraction for c in got.coeffs)


def test_interval_indicator_cache_is_bounded(monkeypatch):
    built = []

    def fake_build(n, d, eps):
        built.append((n, d, eps))
        return object()

    monkeypatch.setattr(blocks, "_build_indicator", fake_build)
    monkeypatch.setattr(blocks, "_INDICATOR_CACHE", {})
    for i in range(10 * blocks._INDICATOR_CACHE_MAX):
        interval_indicator(3 + i, 1, Fraction(1, 8))
        assert len(blocks._INDICATOR_CACHE) <= blocks._INDICATOR_CACHE_MAX
    a = interval_indicator(1000, 2, Fraction(1, 8))
    assert interval_indicator(1000, 2, Fraction(1, 8)) is a
    assert len(built) == 10 * blocks._INDICATOR_CACHE_MAX + 1


def test_input_validation():
    with pytest.raises(ValueError):
        dyadic_decay_poly(0, 1)
    with pytest.raises(ValueError):
        reciprocal_approx(1, 2)
    with pytest.raises(ValueError):
        or_continuous_approx(2, Fraction(1, 8))
    with pytest.raises(ValueError):
        interval_indicator(10, 1, 0)
