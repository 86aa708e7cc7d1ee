import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from polyapprox import blocks
from polyapprox.blocks import (dyadic_decay_poly,
                               interval_indicator, or_continuous_approx,
                               reciprocal_approx, reciprocal_corollary,
                               reciprocal_power_approx,
                               reciprocal_power_error_bound)
from polyapprox.numcore import (PrecisionError, SBinomTail, UniPoly,
                                _tail_ints)

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


def test_dyadic_decay_ceilings_are_exact():
    # just past 16 there are levels 0..5 with Chebyshev degrees 5, 3, 3, 2,
    # 2, 1; the float ceilings of log2 and sqrt rounded to those of 16
    assert dyadic_decay_poly(16, 1).degree == 4 + 3 + 2 + 2 + 1
    assert dyadic_decay_poly(16 + Fraction(1, 10 ** 20), 1).degree == 16


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
    tail = blocks._amplifier_degree(u_bad, u_good, eps)
    assert tail.eval(u_bad) <= eps and 1 - tail.eval(u_good) <= eps
    d = tail.d
    monkeypatch.setattr(blocks, "SBinomTail",
                        lambda d, lo: SBinomTail(d // 4, lo // 4))
    with pytest.raises(PrecisionError, match="degree-%d binomial amplifier "
                       "misses its target" % d):
        blocks._amplifier_degree(u_bad, u_good, eps)


@pytest.mark.parametrize("bad, good, meets", [
    (1000, 999000, True), (1001, 999000, False), (1000, 998999, False)],
    ids=["at-eps", "above-eps-at-u_bad", "below-1-eps-at-u_good"])
def test_amplifier_check_reads_both_ends_exactly(monkeypatch, bad, good,
                                                 meets):
    # The check compares the tail's unreduced pairs, here over 10^6, with
    # eps = 1/1000: a tail at exactly eps at u_bad and 1 - eps at u_good
    # meets the target, and one unit more at either end misses it.
    u_bad, u_good, eps = Fraction(1, 4), Fraction(1, 2), Fraction(1, 1000)
    tail = SimpleNamespace(ints={u_bad: (bad, 10 ** 6),
                                 u_good: (good, 10 ** 6)}.get)
    monkeypatch.setattr(blocks, "SBinomTail", lambda d, lo: tail)
    if meets:
        assert blocks._amplifier_degree(u_bad, u_good, eps) is tail
    else:
        with pytest.raises(PrecisionError, match="misses its target"):
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


@pytest.mark.parametrize("n, c", [(16, 4), (16 + Fraction(1, 10 ** 20), 5),
                                  (Fraction(15999, 1000), 4), (17, 5)])
def test_or_continuous_bump_degree_is_the_exact_ceiling_of_sqrt_n(n, c):
    # float(16 + 10^-20) is 16.0, so a float square root took c = 4
    assert or_continuous_approx(Fraction(n), Fraction(1, 8)).inner.degree == c


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


@pytest.mark.parametrize("d", [1, 2, 6])
def test_interval_indicator_takes_the_smallest_taylor_degree(d):
    # D is the smallest degree from 5d + 1 up whose Taylor error bound at
    # distance 5/6 from 1 is at most eps/2, the reciprocal power's share.
    eps = Fraction(1, 8) / math.ceil((4 * math.e) ** (d + 1))
    D = interval_indicator(Fraction(32, 3), d, eps).parts[1].outer.degree

    def bound(D):
        return reciprocal_power_error_bound(d, D, Fraction(1, 6))

    assert bound(D) <= eps / 2
    assert D == 5 * d + 1 or bound(D - 1) > eps / 2


def test_interval_indicator_cached():
    # A second build of the same indicator reads its amplifier check and
    # its values from the one tail memo, keyed by value: it adds no miss.
    points = _grid(0, 4)
    a = interval_indicator(Fraction(32, 3), 2, Fraction(1, 8))
    first = [a.eval(t) for t in points]
    misses = _tail_ints.cache_info().misses
    b = interval_indicator(Fraction(32, 3), 2, Fraction(1, 8))
    assert b is not a
    assert [b.eval(t) for t in points] == first
    assert _tail_ints.cache_info().misses == misses


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


def test_binom_tails_built_apart_share_memo_entries():
    # A tail's value depends only on (d, lo, t): a tail built apart from
    # another reads the other's entries, and a different lo does not.
    _tail_ints.cache_clear()
    points = [Fraction(i, 7) for i in range(8)]
    first = [SBinomTail(11, 4).eval(t) for t in points]
    assert [SBinomTail(11, 4).eval(t) for t in points] == first
    info = _tail_ints.cache_info()
    assert (info.hits, info.misses) == (len(points), len(points))
    SBinomTail(11, 5).eval(points[1])
    info = _tail_ints.cache_info()
    assert (info.hits, info.misses) == (len(points), len(points) + 1)


def test_input_validation():
    with pytest.raises(ValueError):
        dyadic_decay_poly(0, 1)
    with pytest.raises(ValueError):
        reciprocal_approx(1, 2)
    with pytest.raises(ValueError):
        or_continuous_approx(2, Fraction(1, 8))
    with pytest.raises(ValueError):
        interval_indicator(10, 1, 0)
