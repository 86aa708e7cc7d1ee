import copy
import json
import math
import pickle
from fractions import Fraction
from types import SimpleNamespace

import mpmath
from mpmath import libmp, mp
import pytest
from hypothesis import example, given, settings, strategies as st

from polyapprox import numcore
from polyapprox.numcore import (BackendMismatchError, Dyadic, SplitMix64,
                                SBinomTail, SComp, SProd, StructPoly, UniPoly,
                                as_fraction, certify, lagrange_interpolate,
                                max_error, min_degree, poly_from_json,
                                scalar_from_json, scalar_to_json, to_dyadic)
from polyapprox.oracle import minimax_lp

fracs = st.fractions(min_value=-10, max_value=10, max_denominator=64)


def test_as_fraction():
    assert as_fraction(2) == Fraction(2)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(BackendMismatchError):
        as_fraction(0.5)


def _mpf_hex(x):
    # Reference: the dyadic x as mpmath normalizes it, an odd mantissa and
    # its exponent, spelled "[-]0x<man>p<exp>"; 0 is "0x0p0".
    sign, man, exp, _ = libmp.from_man_exp(
        x.numerator, 1 - x.denominator.bit_length())
    return "%s0x%xp%d" % ("-" if sign else "", man, exp)


def test_mpf_hex_round_trip_is_lossless_at_high_precision():
    with mp.workprec(256):
        x = mpmath.mpf(1) / 9
    # a 256-bit value is spelled as mpmath's mantissa and exponent, and
    # every bit comes back, with either sign
    for v in (to_dyadic(Fraction(1, 9), 256), to_dyadic(Fraction(-1, 9), 256)):
        s = scalar_to_json(v)
        assert s == _mpf_hex(v) and s.lstrip("-") == "0x%xp%d" % x.man_exp
        back = scalar_from_json(s)
        assert type(back) is Dyadic and back == v
    assert scalar_to_json(to_dyadic(0, 256)) == "0x0p0"
    assert scalar_from_json("0x0p0") == 0


@pytest.mark.parametrize("s", ["12ffp-8", "ffp-8", "-12ffp-8", "0x-ffp-8",
                               "--0xffp-8", "0Xffp-8", "0xffp", "0x ffp-8",
                               "0xffp-8 ", "0x1.8p0"])
def test_hex_reader_requires_the_0x_spelling(s):
    # "12ffp-8" was read as 0xffp-8, its first two characters dropped unread
    with pytest.raises(ValueError):
        numcore._from_hex(s)
    with pytest.raises(ValueError):
        scalar_from_json(s)


def test_hex_reader_reads_both_signs():
    for s, v in (("0xffp-8", Fraction(255, 256)), ("-0x3p1", -6),
                 ("-0x0p0", 0)):
        got = scalar_from_json(s)
        assert got == v and type(got) is Dyadic


def test_hex_reader_bounds_the_exponent():
    # the exponent is checked before any shift: 0x1p50000000 was a 6 MB
    # integer, 0x1p-100000000 a 12.5 MB denominator
    top = numcore.MAX_EXP
    for s, v in (("0x1p%d" % top, Fraction(2) ** top),
                 ("-0x3p-%d" % top, -3 / Fraction(2) ** top),
                 ("0x2p-%d" % (top + 1), 1 / Fraction(2) ** top),
                 ("0x0p%d" % (10 * top), 0)):
        assert scalar_from_json(s) == v, s
    for s in ("0x1p%d" % (top + 1), "-0x1p-%d" % (top + 1), "0x2p%d" % top,
              "0x1p50000000", "0x1p-100000000"):
        with pytest.raises(ValueError, match="hex exponent past"):
            scalar_from_json(s)


def test_mpf_hex_not_rerounded_at_global_precision():
    # 256-bit values must survive serialization even when the ambient
    # context is the 53-bit default
    assert mp.prec == 53
    for sign in (1, -1):
        x = to_dyadic(Fraction(sign, 3), 256)
        for ambient in (24, 53):
            with mp.workprec(ambient):
                assert scalar_from_json(scalar_to_json(x)) == x
        assert abs(x - Fraction(sign, 3)) < Fraction(1, 2 ** 257)


def test_scalar_json_round_trip():
    s = scalar_to_json(Fraction(-5, 9))
    assert scalar_from_json(s) == Fraction(-5, 9)
    # past Python's 4300-digit limit on decimal int strings, with either sign
    for x in (Fraction(10 ** 5000 + 1, 3), Fraction(-7, 10 ** 5000 + 3)):
        assert scalar_from_json(scalar_to_json(x)) == x
    # a Dyadic is spelled in hex and reads back as one
    x = to_dyadic(Fraction(7, 11), 128)
    assert "/" not in scalar_to_json(x)
    assert scalar_from_json(scalar_to_json(x)) == x


@given(st.lists(fracs, max_size=6), st.lists(fracs, max_size=6), fracs)
@settings(max_examples=60, deadline=None)
def test_unipoly_ring_laws(a, b, t):
    p, q = UniPoly(a), UniPoly(b)
    assert (p + q).eval(t) == p.eval(t) + q.eval(t)
    assert (p * q).eval(t) == p.eval(t) * q.eval(t)
    assert (p - q).eval(t) == p.eval(t) - q.eval(t)
    assert p.scale(Fraction(3, 2)).eval(t) == Fraction(3, 2) * p.eval(t)


def _fraction_horner(coeffs, t):
    # Reference: term-by-term Fraction Horner.
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


mixed_coeffs = st.one_of(
    st.integers(min_value=-10 ** 6, max_value=10 ** 6),
    st.fractions(max_denominator=10 ** 4),
    st.builds(Fraction, st.integers(min_value=-10 ** 40, max_value=10 ** 40),
              st.integers(min_value=1, max_value=10 ** 40)))
points = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-5, max_value=5, max_denominator=10 ** 6),
    st.builds(Fraction, st.integers(min_value=-10 ** 30, max_value=10 ** 30),
              st.integers(min_value=1, max_value=10 ** 30)))


@given(st.lists(mixed_coeffs, max_size=12), points)
@settings(max_examples=200, deadline=None)
def test_rational_eval_matches_fraction_horner(coeffs, t):
    p = UniPoly(coeffs)
    want = _fraction_horner(p.coeffs, Fraction(t))
    got = p.eval(t)
    assert type(got) is Fraction and got == want
    assert p.eval(t) == want         # again, from the cached integer form


def test_rational_eval_zero_and_constant():
    assert UniPoly([]).eval(Fraction(3, 7)) == 0
    assert type(UniPoly([]).eval(2)) is Fraction
    assert UniPoly([Fraction(-2, 9)]).eval(Fraction(10 ** 20, 3)) == Fraction(-2, 9)
    for p in (UniPoly([]), UniPoly([1, 2])):
        with pytest.raises(BackendMismatchError):
            p.eval(0.5)


def test_rational_eval_cache_never_stale():
    p = UniPoly([Fraction(1, 3), Fraction(-2, 5), 0, Fraction(7, 4)])
    q = UniPoly([Fraction(5, 6), 1])
    t = Fraction(-7, 11)
    assert p.eval(t) == _fraction_horner(p.coeffs, t)
    assert q.eval(t) == _fraction_horner(q.coeffs, t)
    derived = {
        "add": p + q,
        "sub": p - q,
        "mul": p * q,
        "pow": p ** 2,
        "scale": p.scale(Fraction(-3, 8)),
        "compose_affine_q": p.compose_affine(1, Fraction(5, 6)),   # p(q(t))
        "compose_affine": p.compose_affine(Fraction(1, 2), 3),
        "derivative": p.derivative(),
        "from_json": UniPoly.from_json(p.to_json()),
    }
    for name, r in derived.items():
        for x in (t, Fraction(2, 3), 5):
            assert r.eval(x) == _fraction_horner(r.coeffs, x), (name, x)


def _hex_value(s):
    # Reference: the exact value of a serialized mpf, "[-]0x<man>p<exp>".
    man, exp = s.lstrip("-")[2:].split("p")
    v = int(man, 16) * Fraction(2) ** int(exp)
    return -v if s.startswith("-") else v


@given(st.lists(mixed_coeffs, max_size=10), points,
       st.sampled_from([24, 53, 128, 256]))
@settings(max_examples=150, deadline=None)
def test_float_exact_eval_matches_hex_parsed_fraction_sum(coeffs, t, prec):
    p = UniPoly(coeffs, prec)
    ref = [_hex_value(c) for c in p.to_json()["coeffs"]]
    want = sum((c * Fraction(t) ** i for i, c in enumerate(ref)), Fraction(0))
    assert p.eval(t) == want
    assert Fraction(*p.ints(t)) == want
    assert p.coeffs == ref


def _mantissa_bits(x):
    # The significant bits of a dyadic: its numerator's odd part.
    n = abs(x.numerator)
    return (n // (n & -n)).bit_length() if n else 0


def test_certify_rounds_up_to_prec_bits():
    assert certify(Fraction(1, 3), None) == Fraction(1, 3)
    for v, prec in ((Fraction(1, 3), 24), (Fraction(10 ** 40 + 1, 7), 128),
                    (Fraction(3, 4), 8), (Fraction(0), 53),
                    (Fraction(1, 3), 256)):
        up = certify(v, prec)
        den = up.denominator
        assert type(up) is Dyadic and den & (den - 1) == 0
        assert _mantissa_bits(up) <= prec      # a prec-bit dyadic ...
        assert up >= v                          # ... at or above v ...
        if v:                                   # ... with none between
            ulp = Fraction(2) ** (up.numerator.bit_length()
                                  - den.bit_length() + 1 - prec)
            assert up - ulp < v


def _exact_tail(d, lo, t):
    return sum((math.comb(d, i) * t ** i * (1 - t) ** (d - i)
                for i in range(max(lo, 0), d + 1)), Fraction(0))


def test_binom_tail_ints_is_the_exact_sum():
    # Random d <= 60 and lo <= d + 2 (lo > d sums no term), at the ends of
    # [0, 1], inside it and outside it, at int and Fraction points.
    rng = SplitMix64(20261019)
    for _ in range(400):
        d = rng.randint(0, 60)
        lo = rng.randint(0, d + 2)
        den = rng.randint(1, 10 ** 6)
        for t in (0, 1, Fraction(0), Fraction(1), rng.randint(-3, 4),
                  Fraction(rng.randint(0, den), den),
                  Fraction(rng.randint(-3 * den, 4 * den), den)):
            tail = SBinomTail(d, lo)
            num, den_d = tail.ints(t)
            if lo <= d:
                assert den_d == Fraction(t).denominator ** d, (d, lo, t)
            assert Fraction(num, den_d) == _exact_tail(d, lo, Fraction(t)), \
                (d, lo, t)
            assert tail.eval(t) == Fraction(num, den_d)
            assert tail.ints(t) == (num, den_d)          # from the memo


def _tail_ints_reference(d, lo, t):
    # The tail at t = a/b as the direct integer sum over b^d, with c = b - a.
    a, b = t.numerator, t.denominator
    if lo > d:
        return 0, 1
    return (sum(math.comb(d, i) * a ** i * (b - a) ** (d - i)
                for i in range(lo, d + 1)), b ** d)


def test_binom_tail_early_exit_is_bit_identical():
    # The recursion's shortcuts (lo > d, t = 1 where its denominator xd is
    # 0, and the memo) return the same unreduced pair as the direct integer
    # sum, on the cases that once checked the float loop's early exit.
    rng = SplitMix64(20180601)
    edge_t = [0, 1, Fraction(1, 2), Fraction(-3, 2), Fraction(5, 2), 7,
              Fraction(1, 10 ** 6), Fraction(10 ** 6 - 1, 10 ** 6)]
    cases = []
    for d in (1, 2, 9, 40, 181):
        for lo in sorted({0, 1, d // 3, d // 2, d - 1, d}):
            cases += [(d, lo, t) for t in edge_t]
    for _ in range(400):
        d = rng.randint(1, 400)
        lo = rng.randint(0, d)
        cases.append((d, lo, Fraction(rng.randint(-3 * 2 ** 12, 4 * 2 ** 12),
                                      2 ** 12)))
    # non-dyadic t and lo above d
    for _ in range(300):
        d = rng.randint(1, 300)
        lo = rng.randint(0, d + 2)
        dens = (784 ** 2, 3 ** 13)
        den = dens[rng.randint(0, len(dens) - 1)]
        cases.append((d, lo, Fraction(rng.randint(-3 * den, 4 * den), den)))
    for d in (1, 5, 40):
        for t in (Fraction(1, 3), Fraction(-5, 3), Fraction(1, 784 ** 2)):
            cases += [(d, d + 1, t), (d, d + 2, t)]
    cases += [(40, lo, Fraction(k, 7)) for lo in (0, 13)
              for k in (-4, 1, 3, 6, 11)]
    # the amplifier of the paper's extension recipe (extend_approx from
    # weights 0..4 to n = 32), at t = k^2/784
    cases += [(1416, 755, Fraction(k * k, 784)) for k in range(29)]
    # the amplifiers of the small-support spectra at (32, 2), where a
    # numerator that shares primes with (d-lo)! (1296 = 2^4 3^4) and c < 0
    # (t = 3/2) meet the division before the multiply by a^lo
    cases += [(d, lo, t) for d, lo in ((545, 291), (575, 307), (605, 323),
                                       (635, 339), (666, 356))
              for t in (Fraction(1024, 2401), Fraction(1296, 2401), 0, 1,
                        Fraction(3, 2))]
    for d, lo, t in cases:
        tail = SBinomTail(d, lo)
        want = _tail_ints_reference(d, lo, Fraction(t))
        assert tail.ints(t) == want, (d, lo, t)
        assert tail.ints(t) == want, (d, lo, t)          # from the memo


def test_binom_tail_enclosure_contains_the_exact_tail():
    # Random d <= 64 and t in [0, 1]: the tail's value is the exact tail, so
    # its measured error against it is 0, and an error of 2^-600 is seen
    # whole -- no rounding radius is left to absorb it.
    rng = SplitMix64(20261018)
    tiny = Fraction(1, 2 ** 600)
    for _ in range(300):
        d = rng.randint(1, 64)
        lo = rng.randint(0, d)
        t = Fraction(rng.randint(0, 10 ** 6), 10 ** 6 + rng.randint(0, 7))
        tail, exact = SBinomTail(d, lo), _exact_tail(d, lo, t)
        assert tail.eval(t) == exact, (d, lo, t)
        assert max_error(tail, [(t, exact)]) == 0
        assert max_error(tail, [(t, exact + tiny)]) == tiny


def test_binom_tail_enclosure_outside_the_unit_interval_is_exact():
    for t in (Fraction(-1, 3), Fraction(7, 5), -2, 3):
        exact = _exact_tail(9, 4, Fraction(t))
        assert SBinomTail(9, 4).eval(t) == exact
        assert max_error(SBinomTail(9, 4), [(t, exact)]) == 0


@pytest.mark.parametrize("d, lo", [
    (10, -1), (-1, 0), (10.0, 2), (10, Fraction(2)), (True, 0)])
def test_binom_tail_rejects_what_it_cannot_evaluate(d, lo):
    with pytest.raises(ValueError):
        SBinomTail(d, lo)


def test_binom_tail_accepts_every_nonnegative_shape():
    assert SBinomTail(0, 0).eval(Fraction(1, 2)) == 1
    # lo > d sums no term: the tail is 0 everywhere, at t = 1 too
    for t in (0, Fraction(1, 2), 1, 3):
        assert SBinomTail(3, 5).eval(t) == 0
    assert SBinomTail(10, 0).eval(Fraction(1, 2)) == 1


def _tree_reference(node, t):
    """A node's value at t, one Fraction at a time."""
    if isinstance(node, UniPoly):
        return node.eval(t)
    if isinstance(node, SProd):
        return math.prod((_tree_reference(p, t) for p in node.parts),
                         start=Fraction(1))
    if isinstance(node, SComp):
        return _tree_reference(node.outer, node.inner.eval(t))
    return _exact_tail(node.d, node.lo, Fraction(t))


def test_max_error_on_node_trees_matches_a_fraction_reference():
    tail = SComp(SBinomTail(12, 5), UniPoly([Fraction(1, 5), Fraction(1, 2)]))
    dense = UniPoly([Fraction(-1, 3), 2, 0, Fraction(-5, 4)]).to_float(40)
    exact = UniPoly([Fraction(2, 3), -1, Fraction(1, 4)])
    trees = [tail, SProd([tail, dense]), SProd([exact, tail, dense, tail]),
             SComp(SProd([SBinomTail(6, 2), exact]), UniPoly([0, 1, -1])),
             SProd([SProd([tail, tail]), UniPoly([Fraction(-7, 2)])])]
    rng = SplitMix64(77)
    for tree in trees:
        for _ in range(20):
            pairs = []
            for _ in range(rng.randint(0, 9)):
                ts = (rng.randint(-3, 3), rng.fraction())
                pairs.append((ts[rng.randint(0, len(ts) - 1)], rng.fraction()))
            want = max((abs(_tree_reference(tree, t) - f) for t, f in pairs),
                       default=Fraction(0))
            got = max_error(tree, pairs)
            assert type(got) is Fraction and got == want, (tree, pairs)
    # Every error positive and below 1/4: at the first point the largest so
    # far is 0, and bit lengths alone would skip every error.
    small = SProd([UniPoly([Fraction(1, 8)]), SComp(SBinomTail(3, 1),
                                                    UniPoly([0, 1]))])
    pairs = [(Fraction(1, 4), 0), (Fraction(1, 2), 0), (Fraction(1, 3), 0)]
    errors = [_tree_reference(small, t) for t, _ in pairs]
    assert all(0 < e < Fraction(1, 4) for e in errors)
    assert max_error(small, pairs) == max(errors) > 0
    # errors far above and far below the largest so far, and one close
    assert max_error(small, [(Fraction(1, 100), 0), (Fraction(1, 2), 0),
                             (Fraction(1, 100), 0), (1, 0)]) == Fraction(1, 8)


def test_struct_enclosures_propagate_radii():
    # Each node kind's value is its exact value at the point, for a float
    # dense child too: measured against it, every node's error is 0.
    tail = SBinomTail(12, 5)
    inner = UniPoly([Fraction(1, 5), Fraction(1, 2)])
    dense = UniPoly([Fraction(-1, 3), 2, 0, Fraction(-5, 4)]).to_float(40)
    nodes = {
        "dense": (dense, lambda x: dense.eval(x)),
        "comp": (SComp(tail, inner),
                 lambda x: _exact_tail(12, 5, inner.eval(x))),
        "prod": (SProd([SComp(tail, inner), dense]),
                 lambda x: _exact_tail(12, 5, inner.eval(x)) * dense.eval(x)),
    }
    tiny = Fraction(1, 2 ** 300)
    for name, (node, exact) in nodes.items():
        for t in (Fraction(1, 3), Fraction(2, 7)):
            assert Fraction(*node.ints(t)) == node.eval(t) == exact(t), \
                (name, t)
            assert max_error(node, [(t, exact(t))]) == 0
            assert max_error(node, [(t, exact(t) - tiny)]) == tiny


def test_product_radii_match_the_reference_formulas():
    # A product's pair is its parts' pairs multiplied, unreduced, and its
    # value the product of theirs.
    tail = SComp(SBinomTail(12, 5), UniPoly([Fraction(1, 5), Fraction(1, 2)]))
    exact = UniPoly([Fraction(2, 3), -1, Fraction(1, 4)])
    flt = UniPoly([Fraction(-1, 3), 2, 0, Fraction(-5, 4)]).to_float(40)
    const = UniPoly([Fraction(-7, 2)])
    part_sets = [[exact, const], [tail], [exact, tail, const, flt],
                 [tail, SProd([tail, tail]), exact], [const, tail, tail], []]
    for t in (Fraction(1, 3), Fraction(2, 7), 0, -2):
        for parts in part_sets:
            pairs = [p.ints(t) for p in parts]
            assert SProd(parts).ints(t) == (
                math.prod(n for n, _ in pairs), math.prod(d for _, d in pairs))
            assert SProd(parts).eval(t) == math.prod(
                (p.eval(t) for p in parts), start=Fraction(1))


def test_max_error_is_exact_for_dense_polynomials():
    p = UniPoly([Fraction(1, 3), -1, Fraction(1, 7)]).to_float(30)
    pairs = [(w, Fraction(w % 2)) for w in range(6)]
    assert max_error(p, pairs) == max(abs(p.eval(w) - f)
                                      for w, f in pairs)
    assert max_error(UniPoly([Fraction(1, 2)]), [(0, 0), (3, 1)]) == Fraction(1, 2)
    # int and Fraction points and targets in one call, on both backends
    mixed = [(2, Fraction(1, 3)), (Fraction(1, 2), 1), (-3, -1),
             (Fraction(-7, 5), Fraction(2, 9))]
    for q in (UniPoly([Fraction(1, 3), -1, Fraction(1, 7)]), p):
        got = max_error(q, mixed)
        assert type(got) is Fraction
        assert got == max(abs(q.eval(t) - f) for t, f in mixed)
    assert max_error(UniPoly([]), mixed) == 1
    assert max_error(p, []) == 0


@given(st.lists(mixed_coeffs, max_size=10),
       st.lists(st.tuples(points, mixed_coeffs), max_size=12),
       st.sampled_from([None, 24, 128]))
@settings(max_examples=150, deadline=None)
# a later error with a smaller numerator but a larger value
@example([], [(0, Fraction(2, 7)), (1, Fraction(1, 2))], None)
@example([1, Fraction(1, 3)], [(Fraction(1, 3), 1), (2, 0)], 53)
@example([Fraction(1, 3)], [], 24)
def test_max_error_dense_path_matches_the_fraction_reference(coeffs, pairs,
                                                              prec):
    # The dense path compares integer numerators over their denominators;
    # the reference builds one Fraction per point.
    p = UniPoly(coeffs, prec)
    want = max((abs(p.eval(t) - f) for t, f in pairs), default=Fraction(0))
    got = max_error(p, pairs)
    assert type(got) is Fraction and got == want


@pytest.mark.parametrize("prec", [0, -3])
def test_float_precision_below_one_bit_is_rejected(prec):
    # At 0 bits the result depended on the inputs' denominators, and at
    # -3 bits libmp never returned.
    with pytest.raises(ValueError, match="at least 1 bit"):
        UniPoly([Fraction(1, 3), 5], prec)
    with pytest.raises(ValueError, match="at least 1 bit"):
        UniPoly([Fraction(1, 3)]).to_float(prec)
    doc = UniPoly([Fraction(1, 3), 5], 24).to_json()
    doc["precision_bits"] = prec
    with pytest.raises(ValueError, match="at least 1 bit"):
        UniPoly.from_json(doc)


@pytest.mark.parametrize("make", [
    lambda *a: UniPoly([Fraction(1, 3), 5], *a),
    pytest.param(lambda *a: UniPoly([], *a), id="zero"),
    lambda *a: UniPoly([3], *a), lambda *a: UniPoly.from_roots([2], *a)])
@pytest.mark.parametrize("stale", [("float", 128), ("float",), ("rational",)])
def test_a_backend_name_in_place_of_a_precision_is_a_type_error(make, stale,
                                                                monkeypatch):
    # The precision is the only scalar argument: None is exact, an int is a
    # float at that many bits.  A stale call fails before any coefficient is
    # reduced.
    reduced = []
    monkeypatch.setattr(numcore, "_lowest", lambda *a: reduced.append(a))
    with pytest.raises(TypeError):
        make(*stale)
    assert not reduced


def test_one_bit_float_precision_still_builds():
    p = UniPoly([Fraction(1, 3), 5], 1)
    assert p.coeffs == [Fraction(1, 4), 4]


def test_a_polynomial_copies_and_pickles():
    for p in (UniPoly([Fraction(1, 3), -2]), UniPoly([Fraction(1, 3), -2], 24),
              UniPoly([])):
        for q in (copy.copy(p), copy.deepcopy(p),
                  pickle.loads(pickle.dumps(p))):
            assert q == p and q.prec == p.prec and q is not p


def test_unipoly_zero_degree_convention():
    assert UniPoly([]).degree == -1
    assert UniPoly([0, 0]).degree == -1
    assert UniPoly([5]).degree == 0


def test_unipoly_compose_and_power():
    p = UniPoly([1, 2, 3])
    q = UniPoly([0, 1, 1])
    t = Fraction(2, 5)
    # p(q(t)) = 1 + 2 q + 3 q^2
    pq = UniPoly([1]) + q.scale(2) + (q ** 2).scale(3)
    assert pq.eval(t) == p.eval(q.eval(t))
    assert (p ** 3).eval(t) == p.eval(t) ** 3
    assert p.compose_affine(Fraction(2), Fraction(-1)).eval(t) == \
        p.eval(2 * t - 1)


def test_unipoly_derivative_and_norm():
    p = UniPoly([1, -2, 3])
    assert p.derivative().coeffs == [Fraction(-2), Fraction(6)]
    assert p.norm() == 6


def test_backend_mismatch_raises():
    p = UniPoly([1, 2])
    q = UniPoly([1, 2], 256)
    with pytest.raises(BackendMismatchError):
        p + q
    with pytest.raises(BackendMismatchError):
        p * q


def test_arithmetic_with_a_scalar_raises_and_points_to_scale():
    # a scalar operand is a TypeError naming scale(), not an AttributeError
    for p in (UniPoly([1, 2]), UniPoly([1, 2], 64)):
        for c in (3, Fraction(1, 2)):
            for op in (lambda: p * c, lambda: p + c, lambda: p - c):
                with pytest.raises(BackendMismatchError, match=r"scale\(\)"):
                    op()


def test_lagrange_interpolation_reproduces_nodes():
    nodes = [0, 1, 2, 3]
    vals = [Fraction(1), Fraction(0), Fraction(1, 2), Fraction(-2)]
    p = lagrange_interpolate(nodes, vals)
    assert [p.eval(x) for x in nodes] == vals
    assert p.degree <= 3


def _product_form_lagrange(nodes, values):
    # Reference: every basis polynomial multiplied out, zero values included.
    out = UniPoly([])
    for i, (ti, fi) in enumerate(zip(nodes, values)):
        term = UniPoly([fi])
        for j, tj in enumerate(nodes):
            if j != i:
                term = term * UniPoly([-tj, 1]).scale(1 / Fraction(ti - tj))
        out = out + term
    return out


@st.composite
def _interpolation_data(draw):
    nodes = draw(st.lists(st.fractions(min_value=-20, max_value=20,
                                       max_denominator=12),
                          min_size=1, max_size=12, unique=True))
    values = draw(st.lists(st.one_of(st.just(Fraction(0)), fracs),
                           min_size=len(nodes), max_size=len(nodes)))
    return nodes, values


@given(_interpolation_data())
@example(([Fraction(-3, 2), 0, Fraction(5, 7)], [0, 0, 0]))
@example(([-2, Fraction(1, 3), 4, 9], [0, Fraction(-5, 3), 0, 0]))
@settings(max_examples=100, deadline=None)
def test_lagrange_matches_product_form(data):
    nodes, values = data
    got = lagrange_interpolate(nodes, values)
    assert got.coeffs == _product_form_lagrange(nodes, values).coeffs
    assert [got.eval(t) for t in nodes] == [Fraction(v) for v in values]
    with pytest.raises(ValueError):
        lagrange_interpolate(nodes + [nodes[-1]], values + [0])


def test_lagrange_rejects_a_length_mismatch():
    # zip would invent a value of 0 at node 2, or drop the value 3
    for nodes, values in (([0, 1, 2], [1, 2]), ([0, 1], [1, 2, 3])):
        with pytest.raises(ValueError):
            lagrange_interpolate(nodes, values)


def _lagrange_shapes():
    rng = SplitMix64(23)
    return {
        "and_64": (list(range(65)), [0] * 64 + [1]),
        "random_41": (list(range(41)), [rng.fraction() for _ in range(41)]),
        # the sampled-node shape: denominators up to 16^4
        "sampled_nodes": ([1 - (1 - Fraction(i, 16)) ** 4 for i in range(17)],
                          [rng.fraction() for _ in range(17)]),
        "negative_unsorted": ([Fraction(-7, 3), Fraction(5, 2), -4,
                               Fraction(-1, 6), Fraction(9, 4),
                               Fraction(-5, 8)],
                              [Fraction(3, 5), 0, -2, Fraction(-1, 7), 1, 0]),
    }


@pytest.mark.parametrize("shape", sorted(_lagrange_shapes()))
def test_lagrange_matches_product_form_on_large_shapes(shape):
    nodes, values = _lagrange_shapes()[shape]
    got = lagrange_interpolate(nodes, values)
    want = _product_form_lagrange(nodes, values)
    assert (got.nums, got.den) == (want.nums, want.den)
    assert [got.eval(t) for t in nodes] == [Fraction(v) for v in values]


def test_interpolation_multiplies_no_polynomials(monkeypatch):
    # Interpolation and the exchange oracle run on integer vectors: a
    # product of UniPolys anywhere in them is a regression.
    def no_mul(self, other):
        raise AssertionError("UniPoly product in interpolation")

    monkeypatch.setattr(UniPoly, "__mul__", no_mul)
    with pytest.raises(AssertionError):
        UniPoly([1, 1]) * UniPoly([1, 1])
    nodes, values = list(range(17)), [0] * 16 + [1]
    p = lagrange_interpolate(nodes, values)
    assert [p.eval(t) for t in nodes] == values
    d = 0
    while minimax_lp(nodes, values, d).eps_star > Fraction(1, 3):
        d += 1
    assert d == 3


def test_struct_poly_matches_dense_expansion():
    a = UniPoly([1, -1])
    b = UniPoly([0, 2, 1])
    dense = ((a ** 3) * b).scale(Fraction(1, 2))
    s = SProd([UniPoly([Fraction(1, 2)]), SProd([a, a, a]), b])
    for t in (0, 1, Fraction(3, 7), -2):
        assert s.eval(t) == dense.eval(t)
        assert Fraction(*s.ints(t)) == dense.eval(t)
    assert s.degree == dense.degree


def test_struct_comp_matches_dense():
    outer = UniPoly([1, 0, -2])
    inner = UniPoly([0, 1, 1])
    s = SComp(outer, inner)
    for t in (0, Fraction(1, 3), 2):
        assert s.eval(t) == outer.eval(inner.eval(t))


def test_binom_tail_matches_direct_sum():
    d, lo = 12, 5
    tail = SBinomTail(d, lo)
    for u in (Fraction(1, 3), Fraction(7, 8)):
        direct = sum(Fraction(math.comb(d, i)) * u ** i * (1 - u) ** (d - i)
                     for i in range(lo, d + 1))
        assert tail.eval(u) == direct


def test_binom_tail_memo_holds_at_most_4096_points():
    # The one tail memo drops its least recently used point once it is
    # full, never grows past 4096 points, and a value taken again after
    # its point was dropped is the same exact sum.
    d, lo = 5, 2
    tail = SBinomTail(d, lo)
    numcore._tail_ints.cache_clear()
    points = [Fraction(i, 5000) for i in range(4999)]
    for u in points + points[:10]:
        direct = sum(math.comb(d, i) * u ** i * (1 - u) ** (d - i)
                     for i in range(lo, d + 1))
        assert tail.eval(u) == direct
        assert numcore._tail_ints.cache_info().currsize <= 4096
    info = numcore._tail_ints.cache_info()
    assert (info.currsize, info.hits, info.misses) == (4096, 0, 4999 + 10)


def test_binom_tail_endpoints():
    t = SBinomTail(9, 4)
    assert t.eval(0) == 0
    assert t.eval(1) == 1
    assert SBinomTail(9, 0).eval(0) == 1


def test_poly_json_round_trip_dense():
    p = UniPoly([Fraction(1, 3), Fraction(-2)])
    q = poly_from_json(json.loads(json.dumps(p.to_json())))
    assert q.coeffs == p.coeffs
    assert q.backend == p.backend


def test_poly_json_round_trip_struct():
    s = SProd([UniPoly([0, 0, 1]),
               SComp(SBinomTail(6, 3), UniPoly([0, Fraction(1, 2)]))])
    r = poly_from_json(json.loads(json.dumps(s.to_json())))
    for t in (0, Fraction(1, 2), 1):
        assert r.ints(t) == s.ints(t)


def test_poly_json_round_trip_every_struct_kind():
    # A node kind added without JSON support, or without a case here, fails.
    dense = UniPoly([1, 2])
    kinds = {
        SProd: SProd([dense, UniPoly([Fraction(-1, 3), 0, 1])]),
        SComp: SComp(SBinomTail(5, 2), UniPoly([0, Fraction(1, 2)])),
        SBinomTail: SBinomTail(7, 3),
    }
    assert set(kinds) == set(StructPoly.__subclasses__())
    for kind, s in kinds.items():
        text = json.dumps(s.to_json(), sort_keys=True)
        r = poly_from_json(json.loads(text))
        assert type(r) is kind
        assert json.dumps(r.to_json(), sort_keys=True) == text, kind
        for t in (0, Fraction(1, 3), 1):
            assert r.ints(t) == s.ints(t), (kind, t)
    # A dense child is written as a dense polynomial is at the top level,
    # and read back as a UniPoly.
    child = kinds[SProd].to_json()["parts"][0]
    assert child == dense.to_json()
    assert poly_from_json(child) == dense


def test_dense_child_enclosure_is_exact_at_its_precision():
    # A float polynomial built at 64 bits must not hand its measure a 64-bit
    # value: the value at 1/3 is exactly 1/3, alone and as a node's child.
    p = UniPoly([0, 1], 64)
    assert p.eval(Fraction(1, 3)) == Fraction(1, 3)
    assert SComp(p, UniPoly([0, 1])).eval(Fraction(1, 3)) == Fraction(1, 3)


@given(st.sampled_from([0, 1]), st.integers(min_value=1, max_value=100),
       st.integers(min_value=0, max_value=110),
       st.one_of(st.none(), st.integers(min_value=-10, max_value=120)))
@example(lo=0, hi=10, threshold=0, guess=None)   # answer at d = lo = 0
@example(lo=1, hi=10, threshold=1, guess=None)   # answer at d = lo = 1
@example(lo=0, hi=10, threshold=10, guess=None)  # answer at hi
@example(lo=1, hi=10, threshold=10, guess=None)
@example(lo=1, hi=1, threshold=1, guess=None)    # a single candidate
@example(lo=0, hi=10, threshold=11, guess=None)  # hi misses eps
@example(lo=1, hi=10, threshold=11, guess=None)
@example(lo=1, hi=10, threshold=11, guess=10)    # hi probed first, misses
@example(lo=0, hi=100, threshold=0, guess=100)   # gallop down to lo
@example(lo=1, hi=100, threshold=37, guess=37)   # the guess is the answer
@example(lo=1, hi=100, threshold=37, guess=36)   # one below it
@example(lo=1, hi=100, threshold=37, guess=-3)   # clamped up to lo
@example(lo=1, hi=100, threshold=37, guess=120)  # clamped down to hi
@settings(max_examples=150, deadline=None)
def test_min_degree_matches_linear_scan(lo, hi, threshold, guess):
    # certified_eps = max(threshold - d, 0) falls with d and meets eps = 0
    # exactly from d = threshold on; the answer does not depend on guess
    built = []

    def build(d):
        built.append(d)
        return SimpleNamespace(d=d, certified_eps=max(threshold - d, 0))

    linear = next((d for d in range(lo, hi + 1) if d >= threshold), None)
    if linear is None:
        with pytest.raises(numcore.PrecisionError):
            min_degree(build, 0, lo, hi, guess)
    else:
        assert min_degree(build, 0, lo, hi, guess).d == linear
    assert len(built) == len(set(built)) and all(lo <= d <= hi for d in built)


def test_float_neg_and_derivative_keep_the_working_precision():
    # Outside any workprec block the ambient precision is 53 bits; negating
    # or differentiating a 512-bit polynomial must still round at 512.
    p = UniPoly([1, Fraction(1, 3), Fraction(1, 3)], 512)
    assert (-p).coeffs[1] == to_dyadic(Fraction(-1, 3), 512)
    assert (UniPoly([1], 512) - p).coeffs[2] == to_dyadic(Fraction(-1, 3), 512)
    assert p.derivative().coeffs[1] == to_dyadic(Fraction(2, 3), 512)


def test_float_from_roots_keeps_the_working_precision():
    # A 512-bit root negated at the ambient 53 bits would keep 53 of them.
    assert mp.prec == 53
    r = to_dyadic(Fraction(1, 3), 512)
    p = UniPoly.from_roots([r, r], 512)
    assert p.coeffs == [_nearest(r * r, 512), -2 * r, 1]


def _nearest(x, prec):
    # Reference: the prec-bit float nearest the rational x, ties to even, as
    # a Fraction.
    if x == 0:
        return Fraction(0)
    e = abs(x).numerator.bit_length() - abs(x).denominator.bit_length()
    if Fraction(2) ** e > abs(x):
        e -= 1
    unit = Fraction(2) ** (e + 1 - prec)    # |x| / unit in [2^(prec-1), 2^prec)
    return round(x / unit) * unit


def _mul_ref(a, b):
    # Reference: the double-loop product of two Fraction coefficient lists.
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _compose_affine_ref(coeffs, a, b):
    # Reference: Horner over Fraction coefficient lists, p(a t + b).
    out = []
    for c in reversed(coeffs):
        out = _mul_ref(out, [b, a]) or [Fraction(0)]
        out[0] += c
    while out and out[-1] == 0:
        out.pop()
    return out


PRECS = [24, 53, 256, 512]


def _dyadics(prec):
    # m 2^e with |m| < 2^prec, exact at prec bits: zeros, both signs, and
    # exponents up to 960 bits apart within one list.
    coeff = st.one_of(st.just(0), st.builds(
        lambda m, e: m * Fraction(2) ** e,
        st.integers(min_value=1 - 2 ** prec, max_value=2 ** prec - 1),
        st.integers(min_value=-480, max_value=480)))
    return st.lists(coeff, max_size=7)


float_pairs = st.sampled_from(PRECS).flatmap(
    lambda prec: st.tuples(st.just(prec), _dyadics(prec), _dyadics(prec)))
scalars = st.one_of(fracs, st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                                     st.integers(1, 10 ** 30)))
# 127 coefficients, each exact at 256 bits, of both signs, with zeros.
LONG_DYADIC = [Fraction((-1) ** i * (3 ** 150 + 11 * i) * (i % 5 != 2),
                        2 ** (7 * i)) for i in range(127)]
LONG_RATIONAL = [Fraction((-1) ** i * (i * i + 1), 3 * i + 2)
                 for i in range(127)]
# 40 coefficients, each exact at 1024 bits, of both signs, with zeros.
WIDE_DYADIC = [Fraction((-1) ** i * (5 ** 440 + 13 * i) * (i % 7 != 3),
                        2 ** (9 * i)) for i in range(40)]
# Magnitudes 2^-478 to 2^455 within one polynomial, with a zero between.
SPREAD = [Fraction(3, 2 ** 450), 0, -(2 ** 455 + 1), Fraction(-5, 2 ** 480)]


@given(float_pairs, scalars, scalars, scalars)
@example((512, SPREAD, [Fraction(-1, 2 ** 460), 7]), Fraction(1, 3),
         Fraction(-7, 5), Fraction(24))
@example((53, SPREAD, [3]), Fraction(-2, 3), Fraction(1), Fraction(-1, 7))
@example((24, [], [1, 2]), Fraction(1, 3), Fraction(0), Fraction(5))
@example((256, [Fraction(1, 3)], [0, 0, -1]), Fraction(0), Fraction(0),
         Fraction(1, 2))
# a shorter factor of 16 and of 17 coefficients, and 127 x 2, as in the
# rational product
@example((256, LONG_DYADIC[:16], LONG_DYADIC[:20]), Fraction(1, 3),
         Fraction(-7, 5), Fraction(24))
@example((512, LONG_DYADIC[:17], LONG_DYADIC[5:22]), Fraction(1, 3),
         Fraction(1, 2), Fraction(-1, 7))
@example((256, [Fraction(-3, 2 ** 250), 7], LONG_DYADIC), Fraction(5),
         Fraction(2), Fraction(1, 3))
# 1024 bits: short x long, long x short and balanced, so the convolution
# runs over the shorter factor from either side
@example((1024, WIDE_DYADIC[:2], WIDE_DYADIC), Fraction(1, 3),
         Fraction(-7, 5), Fraction(24))
@example((1024, WIDE_DYADIC, WIDE_DYADIC[7:9]), Fraction(1, 3),
         Fraction(1, 2), Fraction(-1, 7))
@example((1024, WIDE_DYADIC, WIDE_DYADIC[::-1]), Fraction(5),
         Fraction(2), Fraction(1, 3))
@settings(max_examples=80, deadline=None)
def test_float_arithmetic_is_the_exact_result_rounded_once(pair, c, a, b):
    prec, xs, ys = pair
    p, q = UniPoly(xs, prec), UniPoly(ys, prec)
    ep, eq = p.coeffs, q.coeffs
    assert (p * q).coeffs == [_nearest(v, prec) for v in _mul_ref(ep, eq)]
    assert p.scale(c).coeffs == ([_nearest(c * v, prec) for v in ep]
                                 if c else [])
    want = [_nearest(v, prec) for v in _compose_affine_ref(ep, a, b)]
    assert p.compose_affine(a, b).coeffs == want
    ma, mb = to_dyadic(a, prec), to_dyadic(b, prec)   # Dyadic arguments
    want = [_nearest(v, prec) for v in _compose_affine_ref(ep, ma, mb)]
    assert p.compose_affine(ma, mb).coeffs == want


@given(float_pairs, scalars, scalars)
@settings(max_examples=40, deadline=None)
def test_float_arithmetic_ignores_the_ambient_precision(pair, a, b):
    prec, xs, ys = pair
    p, q = UniPoly(xs, prec), UniPoly(ys, prec)

    def results():
        return [r.coeffs
                for r in (p * q, p.scale(a), p.compose_affine(a, b), q ** 3)]

    want = results()
    for ambient in (24, 1024):
        with mp.workprec(ambient):
            assert results() == want


@given(st.lists(mixed_coeffs, max_size=10), st.lists(mixed_coeffs, max_size=10))
@example([], [1])
@example([Fraction(1, 3), 0, Fraction(-7, 2)], [0, 0, 5])
# 127 x 127 coefficients of 64 bits at either sign: the middle
# coefficient, 127 (2^64 - 1)^2, sums 127 equal products.
@example([2 ** 64 - 1] * 127, [2 ** 64 - 1] * 127)
@example([-(2 ** 64 - 1)] * 127, [2 ** 64 - 1] * 127)
# a shorter factor of 16 and of 17 coefficients, about where a packed
# product would start to beat the loop (ROADMAP item 1, step 6), and 127 x 2
@example(LONG_RATIONAL[:16], LONG_RATIONAL[:20])
@example(LONG_RATIONAL[:17], LONG_RATIONAL[3:20])
@example(LONG_RATIONAL, [Fraction(-1, 3), 7])
@settings(max_examples=60, deadline=None)
def test_rational_product_matches_the_double_loop(a, b):
    p, q = UniPoly(a), UniPoly(b)
    assert (p * q).coeffs == _mul_ref(p.coeffs, q.coeffs)
    assert (p * p).coeffs == _mul_ref(p.coeffs, p.coeffs)


backends = st.one_of(st.just(("rational", None)),
                     st.tuples(st.just("float"), st.sampled_from(PRECS)))


@given(backends, st.lists(mixed_coeffs, max_size=8),
       st.lists(mixed_coeffs, max_size=8), scalars, scalars, scalars,
       st.integers(min_value=0, max_value=3))
@example(("float", 24), [Fraction(1, 3), 4], [Fraction(-1, 3), -4], 0,
         Fraction(1, 2), 0, 2)
@example(("rational", None), [Fraction(3, 4), Fraction(5, 4)],
         [Fraction(1, 4), Fraction(-5, 4)], 4, 2, Fraction(-1, 3), 0)
@settings(max_examples=80, deadline=None)
def test_every_result_is_in_lowest_terms(backend, xs, ys, c, a, b, k):
    kind, prec = backend
    p, q = UniPoly(xs, prec), UniPoly(ys, prec)
    results = {
        "p": p, "q": q, "p + q": p + q, "q + p": q + p, "p - q": p - q,
        "-p": -p, "p - p": p - p, "p * q": p * q, "scale": p.scale(c),
        "pow": p ** k, "compose_affine": p.compose_affine(a, b),
        "derivative": p.derivative(),
        "from_json": UniPoly.from_json(json.loads(json.dumps(p.to_json()))),
    }
    for name, r in results.items():
        assert r.backend == kind and r.prec == prec, name
        assert r.den > 0 and math.gcd(r.den, *r.nums) == 1, name
        assert not r.nums or r.nums[-1] != 0, name
        values = r.coeffs
        assert values == [Fraction(n, r.den) for n in r.nums], name
        assert r.den == math.lcm(*(v.denominator for v in values)), name
        for other, s in results.items():
            assert (r == s) == (r.coeffs == s.coeffs), (name, other)
    assert results["from_json"] == p and results["p + q"] == results["q + p"]


def _lowest_reference(nums, den, prec):
    # Reference: each coefficient rounded by libmp, from_man_exp over a
    # power-of-two den and from_rational otherwise, then written over the
    # least common power of two.
    while nums and not nums[-1]:
        nums.pop()
    rnd = libmp.round_nearest
    if den & (den - 1):
        parts = [libmp.from_rational(n, den, prec, rnd) for n in nums]
    else:
        e = 1 - den.bit_length()
        parts = [libmp.from_man_exp(n, e, prec, rnd) for n in nums]
    low = min([exp for _, man, exp, _ in parts if man] + [0])
    return ([(-int(man) if sign else int(man)) << (exp - low)
             for sign, man, exp, _ in parts], 1 << -low)


@st.composite
def _rounding_cases(draw):
    """(nums, den, prec): den a power of two or not, and coefficients that
    are zero, random, exact ties at prec bits, or that carry to 2^prec."""
    prec = draw(st.integers(min_value=1, max_value=512))
    odd = draw(st.one_of(st.just(1), st.integers(1, 10 ** 6).map(
        lambda x: 2 * x + 1)))
    den = odd << draw(st.integers(min_value=0, max_value=600))
    cut = st.integers(min_value=1, max_value=300)
    top = (1 << prec) - 1
    coeff = st.one_of(
        st.just(0),
        st.integers(min_value=-2 ** 1100, max_value=2 ** 1100),
        st.integers(min_value=-2 ** 40, max_value=2 ** 40),
        # an exact tie: a mantissa, then one half unit
        st.builds(lambda m, c: odd * ((m << c) | 1 << c - 1),
                  st.integers(min_value=1, max_value=top), cut),
        # top mantissa and half a unit or more: rounds up to 2^prec
        st.builds(lambda c, low: odd * (top << c | 1 << c - 1
                                        | low % (1 << c - 1)),
                  cut, st.integers(min_value=0, max_value=2 ** 300)))
    signs = st.sampled_from([1, -1])
    nums = draw(st.lists(st.builds(lambda c, s: c * s, coeff, signs),
                         max_size=6))
    return nums, den, prec


@given(_rounding_cases())
@example(([], 1, 1))
@example(([0, 0], 3, 7))
@example(([3, -3, 5, -5, 7], 2, 1))          # ties at 1 bit, and carries
@example(([3, -3, 5, -5, 7], 6, 1))
@example(([2 ** 53 + 1, -(2 ** 53 + 3)], 1, 53))
@example(([3 * (2 ** 53 + 1), 3 * (2 ** 53 + 3)], 3 << 60, 53))
@example(([-(2 ** 512 - 1) * 2 - 1], 2, 512))   # a tie that carries to 2^512
@example(([2 ** 1100 + 1], 3, 2))            # |n| far above den: a wide den
@settings(max_examples=400, deadline=None)
def test_float_rounding_matches_libmp(case):
    nums, den, prec = case
    got = numcore._lowest(list(nums), den, prec)
    assert got == _lowest_reference(list(nums), den, prec)
    rnums, rden = got
    assert rden & (rden - 1) == 0 and math.gcd(rden, *rnums) == 1
    assert not rnums or rnums[-1]


@given(_rounding_cases())
@example(([1, -1, 3, -3], 3, 1))
@example(([2 ** 53 + 1, -(2 ** 53 + 1)], 1, 53))     # one bit past: a carry
@example(([(2 ** 512 - 1) * 2 + 1], 2, 512))          # carries to 2^512
@example(([2 ** 1100 + 1, -(2 ** 1100 + 1)], 3, 2))
@settings(max_examples=300, deadline=None)
def test_rounding_up_and_to_nearest_match_libmp(case):
    # The ceiling shares _lowest's divmod and sticky bit; both roundings
    # of each coefficient are libmp's, and to_dyadic makes a Dyadic.
    nums, den, prec = case
    for n in nums:
        for up, rnd in ((True, libmp.round_ceiling),
                        (False, libmp.round_nearest)):
            sign, man, exp, _ = libmp.from_rational(n, den, prec, rnd)
            want = (-1) ** sign * int(man) * Fraction(2) ** exp
            m, e = numcore._round(n, den, prec, up)
            assert m * Fraction(2) ** e == want
            got = to_dyadic(Fraction(n, den), prec, up)
            assert type(got) is Dyadic and got == want


def test_numcore_takes_no_mpf():
    # Every scalar numcore takes is an int or a Fraction: an mpf is a type
    # error, never read through its bits, and so is a float or a string
    # coefficient at either precision.
    x = mpmath.mpf(1) / 4
    p = UniPoly([1, 2], 53)
    for call in (lambda: UniPoly([x], 53), lambda: UniPoly([x]),
                 lambda: p.scale(x), lambda: p.compose_affine(x, 0),
                 lambda: UniPoly.from_roots([x], 53), lambda: certify(x, 53),
                 lambda: UniPoly([0.25], 53), lambda: UniPoly(["1/4"], 53)):
        with pytest.raises(TypeError):
            call()


@given(st.lists(mixed_coeffs, max_size=8), st.integers(min_value=1,
                                                       max_value=512))
@example([Fraction(1, 3), 0, -(2 ** 600 + 1), Fraction(-5, 2 ** 480)], 512)
@example([0, 4, 6], 1)
@settings(max_examples=150, deadline=None)
def test_float_json_is_mpf_hex_and_round_trips(coeffs, prec):
    p = UniPoly(coeffs, prec)
    doc = p.to_json()
    assert doc["coeffs"] == [_mpf_hex(c) for c in p.coeffs]
    assert doc["precision_bits"] == prec
    q = UniPoly.from_json(json.loads(json.dumps(doc)))
    assert q == p and q.prec == prec
    assert q.to_json() == doc


def test_float_from_json_reads_a_coefficient_as_it_is():
    # An odd mantissa of prec bits reads as it is, an even one is the same
    # value; one more bit is no coefficient at prec bits.
    doc = {"backend": "float", "precision_bits": 8,
           "coeffs": ["0xffp-8", "-0x10p0", "0x0p3"]}
    p = UniPoly.from_json(doc)
    assert p.coeffs == [Fraction(255, 256), -16]
    assert p.to_json()["coeffs"] == ["0xffp-8", "-0x1p4"]
    for s in ("0x1ffp-9", "-0x101p0"):
        with pytest.raises(ValueError, match="more than 8 significant bits"):
            UniPoly.from_json(dict(doc, coeffs=[s]))
    for prec in (True, 8.0, "8"):
        with pytest.raises(ValueError, match="at least 1 bit"):
            UniPoly.from_json(dict(doc, precision_bits=prec))
    # each exponent within MAX_EXP, the shift to one denominator is bounded
    # too: the spread of the exponents, 0 included
    top = numcore.MAX_EXP
    for coeffs in (["0x1p-%d" % top, "0x1p0"], ["0x1p%d" % top],
                   ["0x1p-%d" % top, "0x0p0"]):
        UniPoly.from_json(dict(doc, coeffs=coeffs))
    for coeffs in (["0x1p-%d" % top, "0x1p1"], ["0x1p-1", "0x1p%d" % top]):
        with pytest.raises(ValueError, match="exponents spread over more than"):
            UniPoly.from_json(dict(doc, coeffs=coeffs))
    with pytest.raises(ValueError, match="hex exponent past"):
        UniPoly.from_json(dict(doc, coeffs=["0x1p-%d" % (top + 1)]))
    # and so is their total: over the common denominator each numerator
    # below takes 2^20 + 1 bits, so three read and four are past MAX_BITS
    # (400 took 53 MB before anything bounded the total)
    big = "0x1p%d" % (top - 1)
    three = UniPoly.from_json(dict(doc, coeffs=["0x1p-1"] + 3 * [big]))
    assert three.degree == 3
    for k in (4, 400):
        with pytest.raises(ValueError, match="more than %d bits" %
                           numcore.MAX_BITS):
            UniPoly.from_json(dict(doc, coeffs=["0x1p-1"] + k * [big]))


def test_splitmix_deterministic():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    r = SplitMix64(7)
    draws = [r.randint(0, 9) for _ in range(100)]
    assert all(0 <= d <= 9 for d in draws)
    f = SplitMix64(7).fraction()
    assert -1 <= f <= 1 and isinstance(f, Fraction)
