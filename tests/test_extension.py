import math
from fractions import Fraction

import pytest

from polyapprox.extension import (coeff_norm_bound, extend_approx,
                                  extrapolation_bound, small_support_approx,
                                  sym_multilinear_norms)
from polyapprox.numcore import (SplitMix64, UniPoly, lagrange_interpolate,
                                max_error)
from polyapprox.symmetric import SymApprox, SymSpec


def _low_support_spec(n, k, rng):
    vals = [rng.fraction() for _ in range(k + 1)] + [0] * (n - k)
    return SymSpec(n, vals)


def _interpolant_approx(spec):
    p = lagrange_interpolate(list(range(spec.n + 1)), spec.values)
    return SymApprox(spec, p, Fraction(0), "interpolant",
                     set(range(spec.n + 1)))


def test_coeff_norm_bound_random_polys():
    rng = SplitMix64(21)
    for trial in range(200):
        d = 1 + rng.randint(0, 11)
        p = UniPoly([rng.fraction() for _ in range(d + 1)])
        assert p.norm() <= coeff_norm_bound(p)


def test_sym_multilinear_norm_bound():
    rng = SplitMix64(22)
    for trial in range(50):
        n = 3 + rng.randint(0, 5)
        deg = 1 + rng.randint(0, min(3, n - 1))
        a = [rng.fraction() for _ in range(deg + 1)]
        norm, bound = sym_multilinear_norms(n, a)
        assert norm <= bound


def test_extrapolation_bound_on_symmetric_polys():
    rng = SplitMix64(23)
    for trial in range(60):
        m = 2 + rng.randint(0, 4)
        d = 1 + rng.randint(0, m - 1)
        n = m + 1 + rng.randint(0, 8)
        vals = [rng.fraction() for _ in range(d + 1)]
        # phi at weight w for symmetric multilinear phi of degree d
        def phi(w):
            return sum(v * math.comb(w, s) for s, v in enumerate(vals))
        peak = max(abs(phi(w)) for w in range(m + 1))
        for w in range(m + 1, n + 1):
            assert abs(phi(w)) <= extrapolation_bound(d, m, w) * peak + \
                Fraction(1, 10 ** 18)


def test_extend_rejects_bad_inputs():
    spec = SymSpec(5, [Fraction(1)] + [0] * 5)
    ap = _interpolant_approx(spec)
    with pytest.raises(ValueError):
        extend_approx(ap, 12, Fraction(1, 8))   # odd input range
    spec2 = SymSpec(4, [0, 0, 0, Fraction(1, 2), 0])
    with pytest.raises(ValueError):
        extend_approx(_interpolant_approx(spec2), 12, Fraction(1, 8))


def test_extend_passthrough():
    spec = SymSpec(6, [Fraction(1, 2), 0, 0, 0, 0, 0, 0])
    a = extend_approx(_interpolant_approx(spec), 6, Fraction(1, 8))
    assert a.construction == "extension-passthrough"
    assert a.certified_eps == 0


def test_extend_from_single_point():
    spec = SymSpec(0, [Fraction(1)])
    a = extend_approx(_interpolant_approx(spec), 16, Fraction(1, 8))
    assert a.poly.eval(0) == 1
    for w in range(1, 17):
        assert abs(a.poly.eval(w)) <= Fraction(1, 8)


def test_extend_certified_error_holds_exhaustively():
    rng = SplitMix64(31)
    n, delta = 24, Fraction(1, 8)
    spec = _low_support_spec(6, 3, rng)
    a = extend_approx(_interpolant_approx(spec), n, delta)
    assert float(a.certified_eps) <= 1 / 8
    targets = [(w, spec.values[w] if w <= 3 else Fraction(0))
               for w in range(n + 1)]
    assert max_error(a.poly, targets) <= a.certified_eps


def test_small_support_pipeline():
    rng = SplitMix64(33)
    n, k = 20, 2
    spec = _low_support_spec(n, k, rng)
    a = small_support_approx(spec, Fraction(1, 8))
    assert float(a.certified_eps) <= 1 / 8
    for w in range(n + 1):
        assert abs(a.poly.eval(w) - spec.values[w]) <= a.certified_eps


def test_small_support_zero_function():
    spec = SymSpec(6, [0] * 7)
    a = small_support_approx(spec, Fraction(1, 8))
    assert a.certified_eps == 0
    assert a.degree == -1
