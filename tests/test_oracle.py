import hashlib
import itertools
import json
from fractions import Fraction
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st
import pytest

from polyapprox import oracle
from polyapprox.numcore import (BackendMismatchError, SplitMix64, UniPoly,
                                min_degree, scalar_from_json)
from polyapprox.composed import (expansion_eval, incl_excl_expand,
                                 multilinear_interpolant, sym_eval,
                                 sym_to_unipoly, symmetrize)
from polyapprox.oracle import minimax_lp, minimax_reference

# sha256 over the sorted-key JSON of every probe of the AND n=16, OR n=16 and
# AND n=24 degree ladders, up to the first eps_star <= 1/3.  Recorded with the
# exact two-phase simplex this oracle replaced; the best approximation is
# unique, so any exact minimax solver must reproduce it byte for byte.
LADDER_SHA256 = "866260d72eced407ac701b96b5ceb0c79e8e2679a5a7ec382f6ccf70ed733ae4"


def _certificate_ok(nodes, vals, d, res):
    errs = [v - res.poly.eval(t) for t, v in zip(nodes, vals)]
    if res.poly.degree > d or max(map(abs, errs)) != res.eps_star:
        return False
    if res.eps_star == 0:
        return True
    signs = [e > 0 for _, e in sorted(zip(nodes, errs)) if abs(e) == res.eps_star]
    return 1 + sum(a != b for a, b in zip(signs, signs[1:])) >= d + 2


def test_or2_degree1_error_is_one_quarter():
    res = minimax_lp([0, 1, 2], [0, 1, 1], 1)
    assert res.eps_star == Fraction(1, 4)
    errs = [abs(res.poly.eval(t) - v) for t, v in zip([0, 1, 2], [0, 1, 1])]
    assert max(errs) == Fraction(1, 4)
    assert len(res.active_points) >= 3


def test_and1_degree0_error_is_one_half():
    res = minimax_lp([0, 1], [0, 1], 0)
    assert res.eps_star == Fraction(1, 2)


def test_lp_matches_alternation_reference_on_random_spectra():
    rng = SplitMix64(11)
    for trial in range(20):
        n = 2 + rng.randint(0, 4)
        d = rng.randint(0, min(3, n - 1))
        vals = [rng.fraction() for _ in range(n + 1)]
        nodes = list(range(n + 1))
        lp = minimax_lp(nodes, vals, d).eps_star
        ref = minimax_reference(nodes, vals, d)
        assert lp == ref, (n, d, vals)


def test_ladder_results_match_golden_hash():
    digest = hashlib.sha256()
    stops = []
    for which, n in (("and", 16), ("or", 16), ("and", 24)):
        nodes = list(range(n + 1))
        vals = [0] * n + [1] if which == "and" else [0] + [1] * n
        for d in range(n + 1):
            res = minimax_lp(nodes, vals, d)
            digest.update(json.dumps(res.to_json(), sort_keys=True).encode())
            if res.eps_star <= Fraction(1, 3):
                stops.append(d)
                break
    assert stops == [3, 3, 4]
    assert digest.hexdigest() == LADDER_SHA256


# sha256 over the sorted-key JSON of every result of _oracle_corpus(),
# recorded with the exchange that measured its residuals as Fractions: the
# best approximation is unique, so a faster exchange must keep every byte.
ORACLE_SHA256 = "d6d42dcc29da65bde442d313e6efc05cab205127f9c57a8d2ee7028a137a739d"


def _oracle_corpus():
    """(nodes, values, degree) of each solve: the AND and OR ladders at
    n = 16, 24 and 32 up to their first eps_star <= 1/3 (at degrees 3, 4
    and 4), seeded 2^-16 spectra at (n, d) = (16, 4), (16, 8) and (32, 8),
    shuffled rational nodes of mixed sign and denominator, and one
    interpolant (d >= N - 1)."""
    for n, stop in ((16, 3), (24, 4), (32, 4)):
        for vals in ([0] * n + [1], [0] + [1] * n):
            for d in range(stop + 1):
                yield list(range(n + 1)), vals, d
    rng = SplitMix64(2028)
    for n, d in ((16, 4), (16, 8), (32, 8)):
        yield list(range(n + 1)), [rng.fraction() for _ in range(n + 1)], d
    for trial in range(8):
        nodes = []
        while len(nodes) < 6 + trial:
            t = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
            if t not in nodes:
                nodes.append(t)
        vals = [rng.fraction() for _ in nodes]
        yield nodes, vals, rng.randint(1, len(nodes) - 2)
    yield nodes, vals, len(nodes) - 1


def test_oracle_corpus_matches_golden_hash():
    digest = hashlib.sha256()
    for nodes, vals, d in _oracle_corpus():
        res = minimax_lp(nodes, vals, d)
        digest.update(json.dumps(res.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == ORACLE_SHA256


def test_exchange_evaluates_no_unipoly(monkeypatch):
    # every residual of the exchange is one integer Horner sum: UniPoly.eval
    # is never called below the interpolation degree
    cases = [c for c in _oracle_corpus() if c[2] < len(c[0]) - 1][-10:]
    want = [minimax_lp(*c).to_json() for c in cases]

    def no_eval(self, t):
        raise AssertionError("UniPoly.eval called")

    monkeypatch.setattr(UniPoly, "eval", no_eval)
    assert [minimax_lp(*c).to_json() for c in cases] == want


def test_to_json_writes_a_point_past_the_int_to_str_limit():
    # str() raises past 4300 digits; the point is written in hex and reads
    # back exactly, and every other point keeps its str() spelling
    big = Fraction(10 ** 4400 + 1, 3)
    nodes = [0, Fraction(-1, 3), big]
    res = minimax_lp(nodes, [0, 1, 1], 1)
    points = json.loads(json.dumps(res.to_json()))["active_points"]
    assert points[:2] == ["0", "-1/3"]
    assert points[2].startswith("0x") and points[2].endswith("/0x3")
    assert scalar_from_json(points[2]) == big
    assert res.active_points == nodes


def test_exchange_certified_on_shuffled_fractional_nodes():
    rng = SplitMix64(29)
    for trial in range(40):
        n = 3 + rng.randint(0, 4)
        nodes = []
        while len(nodes) < n:
            t = Fraction(rng.randint(-30, 30), rng.randint(1, 6))
            if t not in nodes:
                nodes.append(t)
        d = rng.randint(0, n - 2)
        if trial % 4 == 0:
            # values on a line: eps_star is 0 below the interpolation degree
            vals = [3 * t - Fraction(1, 2) for t in nodes]
            d = max(d, 1)
        else:
            vals = [rng.fraction() for _ in nodes]
        res = minimax_lp(nodes, vals, d)
        assert res.eps_star == minimax_reference(nodes, vals, d), (nodes, vals, d)
        assert _certificate_ok(nodes, vals, d, res), (nodes, vals, d)
        assert res.active_points == [
            t for t, v in zip(nodes, vals)
            if abs(v - res.poly.eval(t)) == res.eps_star]


def test_exchange_raises_without_certificate(monkeypatch):
    nodes, vals = list(range(5)), [0, 0, 0, 0, 1]
    level = oracle._level

    def off_level(s, g, d):
        # C shifted by 1 / den: the reference no longer levels
        c, den, H = level(s, g, d)
        return [c[0] + 1] + c[1:], den, H

    def inflated_level(s, g, d):
        c, den, H = level(s, g, d)
        return c, den, 2 * H

    for fake, raised in ((off_level, "did not raise the levelled error"),
                         (inflated_level, "does not equioscillate")):
        monkeypatch.setattr(oracle, "_level", fake)
        with pytest.raises(ArithmeticError, match=raised):
            minimax_lp(nodes, vals, 1)
    # a reference one node short levels exactly but certifies nothing
    monkeypatch.setattr(oracle, "_level", level)
    exchange = oracle._exchange
    monkeypatch.setattr(oracle, "_exchange", lambda *a: exchange(*a)[:-1])
    with pytest.raises(ArithmeticError, match="does not equioscillate"):
        minimax_lp(list(range(7)), [0, 1, 0, 0, 1, 1, 0], 1)


def test_level_solves_its_defining_system():
    # sum_k c_k s_j^k + (-1)^j H = g_j den on d + 2 increasing integers,
    # len(c) = d + 1 and den > 0
    rng = SplitMix64(41)
    for trial in range(60):
        d = rng.randint(0, 5)
        s = set()
        while len(s) < d + 2:
            s.add(rng.randint(-300, 300))
        s = sorted(s)
        g = [rng.randint(-2 ** 16, 2 ** 16) for _ in s]
        c, den, H = oracle._level(s, g, d)
        assert len(c) == d + 1 and den > 0, trial
        assert all(sum(ck * sj ** k for k, ck in enumerate(c)) + (-1) ** j * H
                   == gj * den for j, (sj, gj) in enumerate(zip(s, g))), trial


def _spectrum(kind, n):
    """AND's weight spectrum, or exact k = 2: the indicator of weight n - 2."""
    return [0] * n + [1] if kind == "and" else [int(w == n - 2)
                                                for w in range(n + 1)]


def test_multiple_exchange_levels_a_few_times(monkeypatch):
    # a count, not a clock: a single-point exchange took 125 and 48
    level, calls = oracle._level, []

    def counted(s, g, d):
        calls.append(d)
        return level(s, g, d)

    monkeypatch.setattr(oracle, "_level", counted)
    for kind, n, d in (("exact", 256, 44), ("and", 256, 22)):
        del calls[:]
        minimax_lp(range(n + 1), _spectrum(kind, n), d)
        assert 1 <= len(calls) <= 8, (kind, len(calls))


def test_least_certified_degree_at_eps_one_eighth():
    # min_degree over the oracle: the degree-D solve certifies eps* <= 1/8
    # from above, the degree-(D - 1) one eps* > 1/8 from below
    for kind, n, D, above, below in (("exact", 64, 23, 0.1034, 0.1319),
                                     ("and", 64, 11, 0.1092, 0.1351)):
        nodes, vals = list(range(n + 1)), _spectrum(kind, n)
        solved = {}

        def build(d):
            solved[d] = minimax_lp(nodes, vals, d)
            return SimpleNamespace(d=d, certified_eps=solved[d].eps_star)

        assert min_degree(build, Fraction(1, 8), 0, n).d == D, kind
        assert D - 1 in solved, kind
        for d, want in ((D, above), (D - 1, below)):
            assert _certificate_ok(nodes, vals, d, solved[d]), (kind, d)
            assert round(float(solved[d].eps_star), 4) == want, (kind, d)
        assert solved[D].eps_star <= Fraction(1, 8) < solved[D - 1].eps_star


_fracs = st.fractions(min_value=-8, max_value=8, max_denominator=12)


@st.composite
def _minimax_cases(draw):
    """(nodes, values, d): at most 9 distinct mixed-sign rationals, and
    values that are arbitrary, on a polynomial of degree <= d (h = 0 at
    the start) or 0/1 (tied residuals)."""
    nodes = draw(st.lists(_fracs, min_size=2, max_size=9, unique=True))
    d = draw(st.integers(min_value=0, max_value=len(nodes) - 1))
    kind = draw(st.sampled_from(["any", "poly", "bits"]))
    if kind == "poly":
        q = UniPoly(draw(st.lists(_fracs, min_size=1, max_size=d + 1)))
        vals = [q.eval(t) for t in nodes]
    elif kind == "bits":
        vals = draw(st.lists(st.integers(0, 1), min_size=len(nodes),
                             max_size=len(nodes)))
    else:
        vals = draw(st.lists(_fracs, min_size=len(nodes),
                             max_size=len(nodes)))
    return nodes, vals, d


@given(_minimax_cases())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_exchange_matches_reference_on_random_node_sets(case):
    nodes, vals, d = case
    res = minimax_lp(nodes, vals, d)
    assert res.eps_star == minimax_reference(nodes, vals, d)
    assert _certificate_ok(nodes, vals, d, res)


def test_float_input_is_a_backend_mismatch():
    for nodes, vals in (([0, 0.5, 1], [0, 1, 1]), ([0, 1, 2], [0, 1.0, 1])):
        with pytest.raises(BackendMismatchError):
            minimax_lp(nodes, vals, 1)
        with pytest.raises(BackendMismatchError):
            minimax_reference(nodes, vals, 1)


def test_repeated_node_rejected():
    with pytest.raises(ValueError):
        minimax_lp([0, 1, 1, 2], [0, 1, 1, 0], 1)


def test_eps_profile_monotone():
    vals = [Fraction(0)] + [Fraction(1)] * 6
    prof = [minimax_lp(list(range(7)), vals, d).eps_star for d in range(7)]
    assert all(prof[i + 1] <= prof[i] for i in range(len(prof) - 1))
    assert prof[-1] == 0


def test_interpolation_degree_gives_zero_error():
    nodes = [0, 1, 2]
    vals = [Fraction(1), Fraction(-1), Fraction(2)]
    assert minimax_lp(nodes, vals, 2).eps_star == 0


def test_multilinear_interpolant_exact_on_cube():
    n = 4

    def f(x):
        return Fraction(sum(x) * x[0] - x[1] * x[2], 3)

    p = multilinear_interpolant(n, f)
    for x in itertools.product((0, 1), repeat=n):
        assert expansion_eval(p, x) == f(x)


def test_multilinear_low_weight_support():
    n = 5

    def f(x):
        return Fraction(1) if sum(x) == 0 else Fraction(0)

    p = multilinear_interpolant(n, f)
    assert all(len(s) <= n for s, _ in p)
    for x in itertools.product((0, 1), repeat=n):
        assert expansion_eval(p, x) == f(x)


def test_symmetrize_matches_permutation_average():
    n = 4
    p = {(frozenset(), frozenset()): Fraction(1, 2),
         (frozenset({0}), frozenset()): Fraction(2),
         (frozenset({0, 1}), frozenset()): Fraction(-1),
         (frozenset({2, 3}), frozenset()): Fraction(1, 3)}
    sym = symmetrize(p, [list(range(n))])
    for w in range(n + 1):
        xs = [x for x in itertools.product((0, 1), repeat=n) if sum(x) == w]
        avg = sum(expansion_eval(p, x) for x in xs) / len(xs)
        assert sym_eval(sym, (w,)) == avg


def test_sym_to_unipoly_consistency():
    n = 3
    p = {(frozenset({0}), frozenset()): Fraction(1),
         (frozenset({1, 2}), frozenset()): Fraction(1)}
    sym = symmetrize(p, [list(range(n))])
    u = sym_to_unipoly(sym)
    for w in range(n + 1):
        assert u.eval(w) == sym_eval(sym, (w,))


def test_incl_excl_expands_conjunction_into_disjunctions():
    for k in (1, 2, 3):
        terms = incl_excl_expand(k)
        for x in itertools.product((0, 1), repeat=k):
            got = sum(sign * (1 if any(x[i] for i in sub) else 0)
                      for sign, sub in terms)
            assert got == (1 if all(x) else 0)
