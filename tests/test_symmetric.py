import collections
import json
import math
from fractions import Fraction

import mpmath
from mpmath import mp
import pytest

from polyapprox import symmetric
from polyapprox.chebyshev import cheb_eval
from polyapprox.composed import surjectivity_approx
from polyapprox.numcore import (FLOAT, RATIONAL, BackendMismatchError,
                                Dyadic, SplitMix64, min_degree,
                                poly_from_json)
from polyapprox.symmetric import (SymApprox, SymSpec, _sampling_exponent,
                                  and_or_approx, and_or_min_degree,
                                  exact_weight_approx, sampling_approx,
                                  single_zero_factor, symmetric_approx)


def _spec_and(n):
    return SymSpec(n, [0] * n + [1])


def _spec_or(n):
    return SymSpec(n, [0] + [1] * n)


def _check(approx):
    # the exact error of the returned polynomial is within its certificate
    spec = approx.spec
    worst = max(abs(approx.poly.eval(w) - spec.values[w])
                for w in range(spec.n + 1))
    assert worst <= approx.certified_eps


def test_spec_validation():
    with pytest.raises(ValueError):
        SymSpec(3, [0, 1])
    with pytest.raises(ValueError):
        SymSpec(2, [0, 2, 0])
    with pytest.raises(ValueError):
        SymSpec(2, [0, Fraction(-4, 3), 0])
    assert SymSpec(2, [-1, Fraction(-3, 4), 1]).values[0] == -1


def test_single_zero_factor_contract():
    n, m = 20, 15
    tol = Fraction(1, 2 ** 100)
    f = single_zero_factor(n, m, 128)
    assert abs(f.eval(n) - 1) < tol
    assert abs(f.eval(m)) < tol
    for w in range(n + 1):
        assert abs(f.eval(w)) <= 1 + tol


def test_single_zero_degree_matches_the_float_rule():
    # The integer rule, the least d with 16 d^2 (n - m) >= pi^2 n, against
    # ceil(pi/4 sqrt(n/(n - m))) in 256-bit mpmath floats, the rule it
    # replaced, for every m < n <= 128.
    with mp.workprec(256):
        for n in range(1, 129):
            for m in range(n):
                d = int(mpmath.ceil(mpmath.pi / 4 * mpmath.sqrt(
                    mpmath.mpf(n) / (n - m))))
                assert single_zero_factor(n, m, 24).degree == d, (n, m)


def test_and_approx_certified_error_is_honest():
    for n in (8, 16):
        d = 1
        while True:
            a = and_or_approx(n, d, "and")
            if float(a.certified_eps) <= 1 / 3:
                break
            d += 1
        assert a.spec.values == _spec_and(n).values
        _check(a)
        assert d <= 3 * math.isqrt(n) + 3


def test_or_is_reflected_and():
    n = 8
    a = and_or_approx(n, 5, "and")
    o = and_or_approx(n, 5, "or")
    assert o.spec.values == _spec_or(n).values
    _check(o)
    for w in range(n + 1):
        assert abs(o.poly.eval(w) - (1 - a.poly.eval(n - w))) < \
            Fraction(1, 2 ** 60)


def test_and_error_decreases_with_degree():
    n = 16
    errs = [float(and_or_approx(n, d, "and").certified_eps)
            for d in (2, 4, 8, 12)]
    assert errs[-1] < errs[0]
    assert errs[-1] <= 1 / 3


def test_exact_weight_construction():
    n, eps = 20, Fraction(1, 8)
    for k in (0, 2):
        a = exact_weight_approx(n, k, k, eps)
        _check(a)
        assert float(a.certified_eps) <= 1 / 8
        # structurally exact near the boundary, up to the float rounding:
        # zeros on weights <= ell and in [n - ell, n], with ell = k + lg(2/eps)
        ell = k + math.ceil(math.log2(2 / eps))
        for w in [*range(ell + 1), *range(n - ell, n + 1)]:
            assert abs(a.poly.eval(w) - a.spec.values[w]) < \
                Fraction(1, 2 ** 100)


def test_exact_weight_small_n_is_interpolant():
    a = exact_weight_approx(6, 1, 1, Fraction(1, 8))
    assert a.construction == "interpolant"
    assert a.certified_eps == 0
    for w in range(7):
        assert a.poly.eval(w) == a.spec.values[w]


def test_symmetric_approx_general_spectrum():
    n = 16
    rng = SplitMix64(5)
    vals = [rng.fraction() for _ in range(2)] + [Fraction(1, 2)] * (n - 3) + \
        [rng.fraction() for _ in range(2)]
    spec = SymSpec(n, vals)
    a = symmetric_approx(spec, Fraction(1, 4))
    _check(a)
    assert float(a.certified_eps) <= 1 / 4


def test_symmetric_approx_builds_each_slice_once(monkeypatch):
    # Both boundary values of every slice differ from the middle value, so
    # each slice feeds two terms; it must still be built once, and the
    # certified error must be the returned polynomial's exact error.
    n = 16
    vals = [Fraction(-1, 2), Fraction(1, 5)] + [Fraction(1, 2)] * (n - 3) + \
        [Fraction(3, 4), Fraction(-1, 3)]
    built = collections.Counter()
    real_build = symmetric.exact_weight_approx

    def build_spy(n, k, m, eps, prec):
        built[k, prec] += 1
        return real_build(n, k, m, eps, prec)

    monkeypatch.setattr(symmetric, "exact_weight_approx", build_spy)
    a = symmetric_approx(SymSpec(n, vals), Fraction(1, 4), 128)
    assert built == {(0, 128): 1, (1, 128): 1}
    assert _claim(a) == _rounded_up(_exact_error(a), 128)
    assert float(a.certified_eps) <= 1 / 4


def _linear_and_or_ladder(n, which, eps):
    d = 1
    while True:
        a = and_or_approx(n, d, which)
        if float(a.certified_eps) <= float(eps):
            return a
        d += 1


@pytest.mark.parametrize("n", [8, 12, 16, 24, 32])
def test_and_or_min_degree_matches_linear_ladder(n):
    for which in ("and", "or"):
        for eps in (Fraction(1, 3), Fraction(1, 6)):
            want = json.dumps(_linear_and_or_ladder(n, which, eps).to_json())
            got = json.dumps(and_or_min_degree(n, which, eps).to_json())
            assert got == want, (n, which, eps)


def test_and_or_min_degree_builds_each_shape_once(monkeypatch):
    # The search starts at the closed-form estimate d = 21, which meets eps,
    # and gallops down to d = 20, which misses.  From d = 1 it probes d = 1,
    # 2, 4, 8, 16, 32, 24, 20, 22, 21 and reaches the same artifact.
    eps = Fraction(1, 3)
    real = symmetric.and_or_approx
    want = min_degree(lambda d: real(128, d, "and", 256), eps, 1, 128)
    probed = []

    def spy(n, d, which, prec):
        probed.append(d)
        return real(n, d, which, prec)

    monkeypatch.setattr(symmetric, "and_or_approx", spy)
    got = and_or_min_degree(128, "and", eps, 256)
    assert probed == [21, 20]
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())


def test_symmetric_approx_constant():
    spec = SymSpec(8, [Fraction(1, 3)] * 9)
    a = symmetric_approx(spec, Fraction(1, 8))
    assert float(a.certified_eps) <= 1 / 8


def test_sampling_exact_at_ends_and_close_between():
    n, k = 32, 2
    rng = SplitMix64(9)
    vals = [rng.fraction() for _ in range(k + 1)] + [0] * (n - k)
    spec = SymSpec(n, vals)
    a = sampling_approx(spec, Fraction(1, 8))
    assert a.poly.outer.backend == a.poly.inner.backend == RATIONAL
    for w in range(n + 1):
        err = abs(a.poly.eval(w) - spec.values[w])
        if w <= k or w >= n - k:
            assert err == 0, w
        else:
            assert err <= Fraction(1, 8), w
    r = poly_from_json(json.loads(json.dumps(a.poly.to_json())))
    assert r.outer == a.poly.outer and r.inner == a.poly.inner


def test_sampling_passthrough_for_wide_support():
    spec = SymSpec(8, [Fraction(1, 2)] * 4 + [0] * 5)
    a = sampling_approx(spec, Fraction(1, 8))
    assert a.construction == "interpolant"
    assert a.certified_eps == 0


FLOAT_BUILDS = {
    "and_or": lambda prec: and_or_approx(40, 39, "and", prec),
    "exact_weight": lambda prec: exact_weight_approx(20, 2, 2, Fraction(1, 8),
                                                     prec),
    "or": lambda prec: and_or_approx(40, 39, "or", prec),
}


@pytest.mark.parametrize("name", sorted(FLOAT_BUILDS))
def test_float_builds_only_at_the_working_precision(name, monkeypatch):
    # The polynomial is built once, at prec; the doubled-precision pass
    # measures that same polynomial and builds nothing.
    seen = collections.defaultdict(list)
    real_bump, real_factor = symmetric._zeroed_bump, symmetric.single_zero_factor

    def bump_spy(r, top, width, zeros, prec):
        seen["_zeroed_bump"].append(prec)
        return real_bump(r, top, width, zeros, prec)

    def factor_spy(n, m, prec):
        seen["single_zero_factor"].append(prec)
        return real_factor(n, m, prec)

    monkeypatch.setattr(symmetric, "_zeroed_bump", bump_spy)
    monkeypatch.setattr(symmetric, "single_zero_factor", factor_spy)
    a = FLOAT_BUILDS[name](128)
    assert a.poly.backend == FLOAT and a.poly.prec == 128
    assert set(seen["single_zero_factor"]) == {128}
    assert seen["_zeroed_bump"] == [128]


def _hex_value(s):
    # The exact value of a serialized mpf, "[-]0x<man>p<exp>".
    man, exp = s.lstrip("-")[2:].split("p")
    v = int(man, 16) * Fraction(2) ** int(exp)
    return -v if s.startswith("-") else v


def _exact_error(approx):
    """max |p(w) - f(w)| of a dense approximant, from its serialized
    coefficients in Fraction arithmetic."""
    coeffs = [_hex_value(c) for c in approx.poly.to_json()["coeffs"]]
    return max(abs(sum(c * w ** i for i, c in enumerate(coeffs)) - f)
               for w, f in enumerate(approx.spec.values))


def _claim(approx):
    return _hex_value(approx.to_json()["certified_eps_exact"])


def _rounded_up(x, prec):
    """The smallest prec-bit dyadic >= x > 0."""
    e = x.numerator.bit_length() - x.denominator.bit_length() - prec
    while Fraction(2) ** (e + prec) <= x:
        e += 1
    while Fraction(2) ** (e + prec - 1) > x:
        e -= 1
    return math.ceil(x / Fraction(2) ** e) * Fraction(2) ** e


@pytest.mark.parametrize("build", [
    lambda prec: and_or_approx(40, 20, "and", prec),
    lambda prec: and_or_approx(24, 11, "or", prec),
    lambda prec: exact_weight_approx(20, 2, 2, Fraction(1, 8), prec),
    lambda prec: symmetric_approx(SymSpec(12, [Fraction(1, 3)] * 2 + [0] * 9
                                          + [Fraction(-1, 2)] * 2),
                                  Fraction(1, 4), prec)])
@pytest.mark.parametrize("prec", [64, 128, 512])
def test_float_certified_eps_is_the_rounded_up_exact_error(build, prec):
    a = build(prec)
    assert a.poly.backend == FLOAT
    claim, den = a.certified_eps, a.certified_eps.denominator
    assert type(claim) is Dyadic and den & (den - 1) == 0
    n = claim.numerator
    assert (n // (n & -n)).bit_length() <= prec     # at most prec bits
    assert claim == _claim(a) == _rounded_up(_exact_error(a), prec)


def test_sampling_exponent_at_an_eps_below_every_float():
    # 1/10^400 is 0.0 as a float; ln(1/eps) = 400 ln 10 = 921.03 is taken
    # from the numerator and the denominator.
    spec = SymSpec(16, [Fraction(1, 2), Fraction(1, 3)] + [0] * 15)
    assert _sampling_exponent(spec, Fraction(1, 10 ** 400)) == 5 * 930


def test_and_or_guess_at_an_eps_below_every_float():
    # No d < 16 reaches the closed form at eps = 1/10^400, which is 0.0 as
    # a float, so the search starts at the interpolant; the guess compares
    # integers and forms no float of eps.
    eps = Fraction(1, 10 ** 400)
    assert symmetric._and_or_guess(16, eps) == 16
    a = and_or_min_degree(16, "and", eps)
    assert (a.degree, a.certified_eps) == (16, 0)
    assert symmetric._and_or_guess(16, Fraction(1, 2)) == 1


def test_and_or_min_degree_takes_an_exact_positive_eps():
    # eps must be exact, as the estimate compares its numerator and
    # denominator as integers, and positive
    with pytest.raises(BackendMismatchError):
        and_or_min_degree(16, "or", 1e-3)
    for eps in (0, Fraction(-1, 3)):
        with pytest.raises(ValueError, match="eps > 0"):
            and_or_min_degree(16, "or", eps)


def test_and_or_guess_decides_the_tie_exactly():
    # at n = 2, d = 1 the closed form is 1/(1 + T_1(2)) = 1/3 exactly, so
    # eps = 1/3 is met there: a tie, which a rounded test can miss
    assert symmetric._and_or_guess(2, Fraction(1, 3)) == 1
    for which in ("and", "or"):
        a = and_or_min_degree(2, which, Fraction(1, 3))
        assert (a.degree, a.certified_eps) == (2, 0), which


def test_and_or_guess_is_the_least_d_whose_closed_form_meets_eps():
    # the closed form 1/(1 + T_r(n/(n - ell))) in exact Fractions, at
    # every d < n
    epss = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 8), Fraction(7, 100),
            Fraction(1, 100), Fraction(1, 10 ** 6), Fraction(1, 10 ** 12),
            Fraction(1, 2 ** 64), Fraction(1, 2 ** 300), Fraction(1, 10 ** 400)]
    for n in range(1, 65):
        errs = []
        for d in range(1, n):
            r, ell = symmetric._and_or_shape(n, d)
            errs.append(1 / (1 + cheb_eval(r, Fraction(n, n - ell))))
        for eps in epss:
            want = next((d for d, e in enumerate(errs, 1) if e <= eps), n)
            assert symmetric._and_or_guess(n, eps) == want, (n, eps)


@pytest.mark.parametrize("build", [
    lambda: and_or_approx(16, 9, "or"),
    lambda: exact_weight_approx(20, 2, 2, Fraction(1, 8)),
    lambda: sampling_approx(SymSpec(16, [Fraction(1, 2), Fraction(-1, 3)]
                                    + [0] * 15), Fraction(1, 8)),
    lambda: surjectivity_approx(8, 2),
    # r > n: the zero polynomial, written with "q": null
    lambda: surjectivity_approx(4, 6),
], ids=["float", "zeroed-chebyshev", "structured", "surjectivity",
        "surjectivity-r-above-n"])
def test_from_json_inverts_to_json(build):
    a = build()
    text = json.dumps(a.to_json(), sort_keys=True)
    b = SymApprox.from_json(json.loads(text), type(a.spec))
    assert json.dumps(b.to_json(), sort_keys=True) == text
    again = [SymApprox.measured(x.spec, x.poly, x.construction)
             for x in (a, b)]
    assert b.degree == a.degree
    assert again[1].certified_eps == again[0].certified_eps
    assert again[1].exact_on == again[0].exact_on == a.exact_on
