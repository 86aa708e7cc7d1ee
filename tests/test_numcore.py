import json
import math
from fractions import Fraction

import mpmath
from mpmath import mp
import pytest
from hypothesis import given, settings, strategies as st

from polyapprox.numcore import (BackendMismatchError, PrecisionError, SplitMix64,
                                SBinomTail, SComp, SDense, SPow, SProd, SScale,
                                SSum, UniPoly, as_fraction, checked_max_abs,
                                lagrange_interpolate, mpf_from_hex, mpf_to_hex,
                                poly_from_json, poly_to_json, recheck,
                                scalar_from_json, scalar_to_json, to_mpf)

fracs = st.fractions(min_value=-10, max_value=10, max_denominator=64)


def test_as_fraction():
    assert as_fraction(2) == Fraction(2)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(BackendMismatchError):
        as_fraction(0.5)


def test_mpf_hex_round_trip_is_lossless_at_high_precision():
    with mp.workprec(256):
        x = mpmath.mpf(1) / 9
    y = mpf_from_hex(mpf_to_hex(x))
    assert x == y
    assert mpf_to_hex(mpmath.mpf(0)) == "0x0p0"
    assert mpf_from_hex("0x0p0") == 0
    neg = mpf_to_hex(mpmath.mpf(-1.5))
    assert mpf_from_hex(neg) == -1.5


def test_mpf_hex_not_rerounded_at_global_precision():
    # 256-bit values must survive serialization even when the ambient
    # context is the 53-bit default
    with mp.workprec(256):
        x = mpmath.mpf(1) / 3
    h = mpf_to_hex(x)
    with mp.workprec(256):
        assert abs(mpf_from_hex(h) - mpmath.mpf(1) / 3) < mpmath.mpf(2) ** -250


def test_scalar_json_round_trip():
    s = scalar_to_json(Fraction(-5, 9))
    assert scalar_from_json(s, "rational") == Fraction(-5, 9)
    with mp.workprec(128):
        x = mpmath.mpf(7) / 11
    assert scalar_from_json(scalar_to_json(x), "float") == x


@given(st.lists(fracs, max_size=6), st.lists(fracs, max_size=6), fracs)
@settings(max_examples=60, deadline=None)
def test_unipoly_ring_laws(a, b, t):
    p, q = UniPoly(a), UniPoly(b)
    assert (p + q).eval(t) == p.eval(t) + q.eval(t)
    assert (p * q).eval(t) == p.eval(t) * q.eval(t)
    assert (p - q).eval(t) == p.eval(t) - q.eval(t)
    assert p.scale(Fraction(3, 2)).eval(t) == Fraction(3, 2) * p.eval(t)


def test_unipoly_zero_degree_convention():
    assert UniPoly.zero().degree == -1
    assert UniPoly([0, 0]).degree == -1
    assert UniPoly([5]).degree == 0


def test_unipoly_compose_and_power():
    p = UniPoly([1, 2, 3])
    q = UniPoly([0, 1, 1])
    t = Fraction(2, 5)
    assert p.compose(q).eval(t) == p.eval(q.eval(t))
    assert (p ** 3).eval(t) == p.eval(t) ** 3
    assert p.compose_affine(Fraction(2), Fraction(-1)).eval(t) == \
        p.eval(2 * t - 1)


def test_unipoly_derivative_and_norm():
    p = UniPoly([1, -2, 3])
    assert p.derivative().coeffs == [Fraction(-2), Fraction(6)]
    assert p.norm() == 6


def test_backend_mismatch_raises():
    p = UniPoly([1, 2])
    q = UniPoly([1.0, 2.0], backend="float")
    with pytest.raises(BackendMismatchError):
        p + q
    with pytest.raises(BackendMismatchError):
        p * q


def test_lagrange_interpolation_reproduces_nodes():
    nodes = [0, 1, 2, 3]
    vals = [Fraction(1), Fraction(0), Fraction(1, 2), Fraction(-2)]
    p = lagrange_interpolate(nodes, vals)
    assert [p.eval(x) for x in nodes] == vals
    assert p.degree <= 3


def test_struct_poly_matches_dense_expansion():
    a = UniPoly([1, -1])
    b = UniPoly([0, 2, 1])
    dense = (a ** 3) * b + b.scale(Fraction(1, 2))
    s = SSum([SProd([SPow(SDense(a), 3), SDense(b)]),
              SScale(Fraction(1, 2), SDense(b))])
    for t in (0, 1, Fraction(3, 7), -2):
        assert s.eval(t) == dense.eval(t)
    assert s.degree == dense.degree


def test_struct_comp_matches_dense():
    outer = UniPoly([1, 0, -2])
    inner = UniPoly([0, 1, 1])
    s = SComp(SDense(outer), SDense(inner))
    for t in (0, Fraction(1, 3), 2):
        assert s.eval(t) == outer.eval(inner.eval(t))


def test_binom_tail_matches_direct_sum():
    d, lo = 12, 5
    tail = SBinomTail(d, lo, 128)
    for u in (Fraction(1, 3), Fraction(7, 8)):
        direct = sum(Fraction(math.comb(d, i)) * u ** i * (1 - u) ** (d - i)
                     for i in range(lo, d + 1))
        with mp.workprec(128):
            got = tail.eval(u, 128)
            assert abs(got - to_mpf(direct, 128)) < mpmath.mpf(2) ** -100


def test_binom_tail_endpoints():
    t = SBinomTail(9, 4, 64)
    assert t.eval(0, 64) == 0
    assert t.eval(1, 64) == 1
    assert SBinomTail(9, 0, 64).eval(0, 64) == 1


def test_poly_json_round_trip_dense():
    p = UniPoly([Fraction(1, 3), Fraction(-2)])
    q = poly_from_json(json.loads(json.dumps(poly_to_json(p))))
    assert q.coeffs == p.coeffs
    assert q.backend == p.backend


def test_poly_json_round_trip_struct():
    s = SProd([SPow(SDense(UniPoly([0, 1])), 2),
               SComp(SBinomTail(6, 3, 64), SDense(UniPoly([0, Fraction(1, 2)])))])
    r = poly_from_json(json.loads(json.dumps(poly_to_json(s))))
    for t in (0, Fraction(1, 2), 1):
        with mp.workprec(64):
            assert abs(r.eval(t, 64) - s.eval(t, 64)) < mpmath.mpf(2) ** -50


def test_poly_json_round_trip_every_struct_kind():
    dense = SDense(UniPoly([1, 2]))
    with mp.workprec(64):
        third = mpmath.mpf(1) / 3
    kinds = {
        "dense": dense,
        "prod": SProd([dense, SDense(UniPoly([Fraction(-1, 3), 0, 1]))]),
        "sum": SSum([dense, SDense(UniPoly([0, 1]).to_float(64))]),
        "scale-fraction": SScale(Fraction(1, 2), dense),
        "scale-mpf": SScale(third, dense),
        "pow": SPow(dense, 3),
        "comp": SComp(SBinomTail(5, 2, 64), SDense(UniPoly([0, Fraction(1, 2)]))),
        "binom_tail": SBinomTail(7, 3, 64),
    }
    for name, s in kinds.items():
        text = json.dumps(poly_to_json(s), sort_keys=True)
        r = poly_from_json(json.loads(text))
        assert type(r) is type(s), name
        assert json.dumps(poly_to_json(r), sort_keys=True) == text, name
        for t in (0, Fraction(1, 3), 1):
            assert r.eval(t, 64) == s.eval(t, 64), (name, t)
    r = poly_from_json(json.loads(json.dumps(poly_to_json(kinds["scale-fraction"]))))
    assert r.c == Fraction(1, 2) and isinstance(r.c, Fraction)
    assert r.eval(Fraction(1, 3)) == Fraction(5, 6)


def test_recheck_accepts_stable_builds():
    vals = recheck(lambda pr: [to_mpf(Fraction(1, 3), pr)], 128)
    with mp.workprec(128):
        assert abs(vals[0] - to_mpf(Fraction(1, 3), 128)) < mpmath.mpf(2) ** -100


def test_recheck_rejects_precision_dependent_builds():
    with pytest.raises(PrecisionError):
        recheck(lambda pr: [mpmath.mpf(pr)], 64)


def test_recheck_rejects_length_mismatch():
    with pytest.raises(ValueError):
        recheck(lambda pr: [to_mpf(1, pr)] * (pr // 64), 64)


def test_checked_max_abs():
    p = UniPoly([0, 1]).to_float(64)
    m = checked_max_abs(lambda t, pr: p.eval(t, pr), [0, Fraction(1, 2), -3], 64)
    assert float(m) == 3.0


def test_splitmix_deterministic():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    r = SplitMix64(7)
    draws = [r.randint(0, 9) for _ in range(100)]
    assert all(0 <= d <= 9 for d in draws)
    f = SplitMix64(7).fraction()
    assert -1 <= f <= 1 and isinstance(f, Fraction)
