import itertools
import math
from fractions import Fraction

import pytest

from polyapprox import composed
from polyapprox.composed import (MAX_MEASURE, PComp, PConj, PConst, PDisj,
                                 PProd, PScale, PSum, _count_weight_vectors,
                                 _measure_cost, _weight_vectors,
                                 expansion_eval,
                                 expansion_norm, selector_compose, sym_eval,
                                 surj_outer_eval, surj_value,
                                 surjectivity_approx, symmetrize)
from polyapprox.numcore import SplitMix64, UniPoly, max_error
from polyapprox.symmetric import and_or_min_degree


def _random_pi_expr(rng, nvars, depth):
    if depth == 0:
        kind = rng.randint(0, 2)
        if kind == 0:
            return PConst(rng.fraction())
        plain = frozenset({rng.randint(0, nvars - 1)})
        neg = frozenset({rng.randint(0, nvars - 1)}) - plain
        return PConj(plain, neg) if kind == 1 else PDisj(plain, neg)
    kind = rng.randint(0, 3)
    a = _random_pi_expr(rng, nvars, depth - 1)
    b = _random_pi_expr(rng, nvars, depth - 1)
    if kind == 0:
        return PSum([a, b])
    if kind == 1:
        return PScale(rng.fraction(), a)
    if kind == 2:
        return PProd([a, b])
    # a small exact polynomial of degree 0..2 over a random base
    poly = UniPoly([rng.fraction() for _ in range(rng.randint(1, 3))])
    return PComp(poly, a)


def test_pi_expansion_matches_pointwise():
    rng = SplitMix64(17)
    nvars = 4
    for trial in range(25):
        e = _random_pi_expr(rng, nvars, 2)
        for x in itertools.product((0, 1), repeat=nvars):
            assert expansion_eval(e.expansion, x) == e.value(x), trial


def test_pi_norm_bounds_expansion():
    rng = SplitMix64(19)
    for trial in range(25):
        e = _random_pi_expr(rng, 4, 2)
        assert expansion_norm(e.expansion) <= e.bound, trial


def _ordered_weight_vectors(r, n):
    return [v for v in itertools.product(range(n + 1), repeat=r)
            if sum(v) <= n]


def test_weight_vectors_enumeration():
    # Nonincreasing vectors only: one per multiset of column weights.
    vecs = list(_weight_vectors(2, 3))
    assert len(vecs) == len({v for v in vecs})
    assert all(sum(v) <= 3 for v in vecs)
    assert ((0, 0) in vecs) and ((3, 0) in vecs) and ((2, 1) in vecs)
    assert (1, 2) not in vecs and (2, 2) not in vecs
    for r, n in ((2, 3), (3, 5), (4, 16), (5, 7)):
        vecs = list(_weight_vectors(r, n))
        assert vecs == sorted({tuple(sorted(v, reverse=True))
                               for v in _ordered_weight_vectors(r, n)})
    assert len(list(_weight_vectors(4, 16))) == 359
    assert len(_ordered_weight_vectors(4, 16)) == 4845


def test_measure_cost_is_the_vectors_times_the_subsets():
    for r in range(1, 7):
        for n in range(13):
            vecs = len(list(_weight_vectors(r, n)))
            assert _count_weight_vectors(r, n, MAX_MEASURE) == vecs, (r, n)
            assert (_measure_cost(n, r, range(r + 1))
                    == vecs * (r + 2 ** r)), (r, n)
    assert _count_weight_vectors(6, 48, MAX_MEASURE) == 78701
    assert _measure_cost(48, 6, range(6)) == 5430369 <= MAX_MEASURE
    # past the cap a cost may stop early, but stays above it, and no
    # binomial or partition count runs to the end
    assert _count_weight_vectors(2, 4000, 10 ** 9) == 4004001
    for n, r, ells in ((4000, 2, [0, 1, 2]), (8, 40, [0, 1, 20]),
                       (10 ** 18, 10 ** 6, [1]), (8, 10 ** 18, [10 ** 17])):
        assert _measure_cost(n, r, ells) > MAX_MEASURE, (n, r)
    # the enumeration recurses only as deep as the nonzero weights
    assert list(_weight_vectors(5000, 1)) == [(0,) * 5000,
                                             (1,) + (0,) * 4999]


@pytest.mark.parametrize("n,r", [(8, 2), (12, 3), (16, 4)])
def test_sorted_maximum_equals_the_ordered_maximum(n, r):
    # SURJ and the block-symmetric form are invariant under permuting the
    # columns, so the maximum over nonincreasing vectors is the maximum.
    a = surjectivity_approx(n, r)
    ordered = max(abs(a.poly.eval(wv) - surj_value(wv))
                  for wv in _ordered_weight_vectors(r, n))
    assert max_error(a.poly, ((wv, surj_value(wv))
                         for wv in _weight_vectors(r, n))) == ordered
    assert a.certified_eps >= ordered


def test_surj_value():
    assert surj_value((1, 2)) == 1
    assert surj_value((0, 3)) == 0
    assert surj_value(()) == 1


@pytest.mark.parametrize("n,r", [(8, 2), (12, 3)])
def test_surjectivity_certified_exhaustively(n, r):
    a = surjectivity_approx(n, r)
    assert float(a.certified_eps) <= 1 / 3
    worst = max(abs(a.poly.eval(wv) - surj_value(wv))
                for wv in _ordered_weight_vectors(r, n))
    assert worst <= a.certified_eps + Fraction(1, 2 ** 100)


def test_surjectivity_more_columns_than_rows_is_constant_zero():
    a = surjectivity_approx(4, 6)
    assert a.certified_eps == 0
    for wv in _weight_vectors(6, 4):
        assert a.poly.eval(wv) == surj_value(wv) == 0


def test_surjectivity_general_epsilon_path():
    a = surjectivity_approx(12, 3, Fraction(1, 16))
    assert float(a.certified_eps) <= 1 / 16


def test_surjectivity_rejects_negative_rows():
    with pytest.raises(ValueError):
        surjectivity_approx(-1, 1)


@pytest.mark.parametrize("n,r,eps", [
    (8, 2, Fraction(1, 3)), (12, 3, Fraction(1, 3)), (16, 4, Fraction(1, 3)),
    (16, 6, Fraction(1, 3)), (8, 6, Fraction(1, 2)), (48, 6, Fraction(1, 3)),
    (24, 2, Fraction(1, 4)), (12, 2, Fraction(1, 4)), (32, 4, Fraction(1, 3))])
def test_surjectivity_degree_is_at_most_n(n, r, eps):
    # The emptiness indicator q is the OR on the n + 1 weights a column can
    # hold, so its exact interpolant has degree n and no search goes beyond.
    a = surjectivity_approx(n, r, eps)
    assert a.degree <= n
    assert a.certified_eps <= eps
    if (n, r) == (16, 4):
        assert a.degree == 16
    if (n, r) == (12, 2):
        # the budget needs the exact interpolant: 1 - OR on 0..n at degree n
        assert a.degree == n and a.certified_eps == 0
    if (n, r) == (24, 2):
        assert a.degree == 11 and a.poly.q.prec is not None


@pytest.mark.parametrize("r", [2, 3, 4])
def test_surjectivity_builds_one_conjunction_polynomial(r, monkeypatch):
    # Every column subset shares one emptiness indicator, built once.
    built = []
    original = composed._conjunction_poly

    def spy(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(composed, "_conjunction_poly", spy)
    a = surjectivity_approx(8, r)
    assert len(built) == 1
    assert len([ell for ell, _ in a.poly.terms if ell != 0]) >= 2
    assert a.poly.q is built[0]


def test_surjectivity_outer_cross_validation():
    # the outer stage alone, fed the exact per-column emptiness pattern,
    # must match the full evaluation on unanimous weight vectors
    n, r = 8, 2
    a = surjectivity_approx(n, r)
    for j in range(r + 1):
        wv = tuple([1] * (r - j) + [0] * j)
        full = a.poly.eval(wv)
        outer = surj_outer_eval(r, Fraction(1, 3), wv, 256)
        assert abs(full - outer) <= a.certified_eps + Fraction(1, 2 ** 60)


def test_or_subset_coefficients_keep_the_working_precision():
    # a_ell are the exact finite differences of the OR weight polynomial g,
    # so sum_ell C(w, ell) a_ell gives g(w) back exactly.
    k, eps, prec = 16, Fraction(1, 4), 512
    coeffs, _ = composed._or_symmetric_coeffs(k, eps, prec)
    g = and_or_min_degree(k, "or", eps / 2, prec).poly
    assert g.backend == "float" and len(coeffs) > 2
    assert all(type(a) is Fraction for a in coeffs)
    for w in range(len(coeffs)):
        back = sum(math.comb(w, ell) * coeffs[ell] for ell in range(w + 1))
        assert back == g.eval(w), w


def test_homogenize_matches_average():
    # averaging the z-variables over a fixed-weight slice is symmetrizing
    # over the z-block, with the other variable a block of its own
    p = {(frozenset(), frozenset()): Fraction(1, 3),
         (frozenset({0}), frozenset()): Fraction(2),
         (frozenset({0, 1}), frozenset()): Fraction(-1, 2),
         (frozenset({2}), frozenset()): Fraction(1)}
    zvars, nz = [0, 1], 2
    sym = symmetrize(p, [zvars, [2]])
    for t in range(nz + 1):
        slices = [z for z in itertools.product((0, 1), repeat=nz)
                  if sum(z) == t]
        for x2 in ((0,), (1,)):
            vals = []
            for z in slices:
                x = list(z) + list(x2)
                vals.append(expansion_eval(p, x))
            avg = sum(vals) / len(vals)
            got = sym_eval(sym, (t, x2[0]))
            assert got == avg, (t, x2)


def _random_tables(rng, M, count):
    cube = list(itertools.product((0, 1), repeat=M))
    return [{x: rng.randint(0, 1) for x in cube} for _ in range(count)]


def test_selector_compose_of_zero_functions_claims_degree_zero():
    # every f zero: the composed polynomial is the constant a_0
    zero = [lambda x: 0] * 4
    s = selector_compose(zero, 2, 4, 2, 1, Fraction(1, 4))
    assert s.degree == 0 and s.certified_eps <= Fraction(1, 4)


def test_selector_compose_exhaustive():
    rng = SplitMix64(3)
    M, N, n, b = 3, 4, 2, 1
    tables = _random_tables(rng, M, N)
    fs = [(lambda tb: (lambda x: tb[tuple(x)]))(tb) for tb in tables]
    s = selector_compose(fs, M, N, n, b, Fraction(1, 4))
    assert type(s.certified_eps) is Fraction and s.certified_eps <= Fraction(1, 4)
    assert s.degree >= 1
