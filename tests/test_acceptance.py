"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Frozen constants, measured once on the reference implementation and pinned
here: K_EXT (extension degree-ratio ceiling), A_SAMPLING (sampling norm
exponent), K_SURJ (surjectivity degree constant), MAX_AND_RATIO (construction
vs oracle degree gap).  Tolerances are pinned next to each use.
"""

import itertools
import math
import time
from fractions import Fraction

import mpmath
from mpmath import mp

from polyapprox.bounds import C_SEL, consistency_sweep, ed_closed, kdnf_closed
from polyapprox.chebyshev import cheb_eval
from polyapprox.cli import main as cli_main
from polyapprox.composed import (_weight_vectors, selector_compose, surj_value,
                                 surjectivity_approx)
from polyapprox.extension import (coeff_norm_bound, extend_approx,
                                  extrapolation_bound, sym_multilinear_norms)
from polyapprox.numcore import (RATIONAL, SplitMix64, UniPoly,
                                lagrange_interpolate, max_error)
from polyapprox.oracle import minimax_lp, minimax_reference
from polyapprox.symmetric import (SymApprox, SymSpec, and_or_approx,
                                  exact_weight_approx, sampling_approx)

K_EXT = 1024          # measured max degree ratio 669.3 at the pinned shapes
A_SAMPLING = 48       # measured max log2|pq| / (k + log2(1/eps)) is 42.4
K_SURJ = 8            # measured max degree / (sqrt(n) r^(1/4)) is 2.83
MAX_AND_RATIO = 10


def _report(num, name, ok, t0, detail=""):
    line = "CRITERION %02d %s %s (%.1fs)%s" % (
        num, "PASS" if ok else "FAIL", name, time.time() - t0,
        " " + detail if detail else "")
    print(line)
    assert ok, line


def test_criterion_01_chebyshev():
    t0 = time.time()
    ok = True
    with mp.workprec(256):
        tol = mpmath.mpf(2) ** -120
        for d in range(1, 65):
            for j in range(100):
                theta = mpmath.mpf(2 * j + 1) / 100
                if abs(cheb_eval(d, mpmath.cos(theta))
                       - mpmath.cos(d * theta)) > tol:
                    ok = False
    growth_bad = 0
    for d in range(1, 51):
        for j in range(1, 51):
            delta = Fraction(j, 25)
            if cheb_eval(d, 1 + delta) < 1 + d * d * delta:
                growth_bad += 1
    ok = ok and growth_bad == 0
    _report(1, "chebyshev-identity-and-growth", ok, t0)


def test_criterion_02_oracle_exactness():
    t0 = time.time()
    ok = minimax_lp([0, 1, 2], [0, 1, 1], 1).eps_star == Fraction(1, 4)
    ok = ok and minimax_lp([0, 1], [0, 1], 0).eps_star == Fraction(1, 2)
    rng = SplitMix64(11)
    for trial in range(20):
        n = 2 + rng.randint(0, 4)
        d = rng.randint(0, min(3, n - 1))
        vals = [rng.fraction() for _ in range(n + 1)]
        nodes = list(range(n + 1))
        lp = minimax_lp(nodes, vals, d).eps_star
        ref = minimax_reference(nodes, vals, d)
        if lp != ref:
            ok = False
    _report(2, "minimax-oracle-exactness", ok, t0)


def _oracle_and_degree(n):
    vals = [Fraction(0)] * n + [Fraction(1)]
    for d in range(n + 1):
        if minimax_lp(list(range(n + 1)), vals, d).eps_star <= Fraction(1, 3):
            return d
    return n


def _min_and_construction(n):
    d = 1
    while True:
        a = and_or_approx(n, d, "and")
        if float(a.certified_eps) <= 1 / 3:
            return a
        d += 1


def test_criterion_03_and_vs_oracle():
    t0 = time.time()
    ok = True
    rows = []
    for n in (8, 16, 32, 64):
        a = _min_and_construction(n)
        worst = max(abs(a.poly.eval(w) - a.spec.values[w])
                    for w in range(n + 1))
        if worst > Fraction(1, 3):
            ok = False
        lower = _oracle_and_degree(n)
        rows.append((n, lower, a.degree, a.degree / lower))
        if not lower <= a.degree <= MAX_AND_RATIO * lower:
            ok = False
    table = "; ".join("n=%d oracle=%d built=%d ratio=%.2f" % r for r in rows)
    _report(3, "and-construction-vs-oracle", ok, t0, table)


def test_criterion_04_exact_weight():
    t0 = time.time()
    n, eps = 24, Fraction(1, 8)
    ok = True
    tol_exact = Fraction(1, 2 ** 100)
    for k in (0, 2, 4):
        m = k
        a = exact_weight_approx(n, k, m, eps)
        for w in range(n + 1):
            err = abs(a.poly.eval(w) - a.spec.values[w])
            if w <= m or w >= n - m:
                if err > tol_exact:
                    ok = False
            elif err > eps:
                ok = False
    _report(4, "exact-weight-indicator", ok, t0)


def test_criterion_05_extension():
    t0 = time.time()
    rng = SplitMix64(1)
    n, m, delta = 32, 3, Fraction(1, 8)
    ok = True
    worst_ratio = 0.0
    for trial in range(50):
        vals = [rng.fraction() for _ in range(m + 1)] + [0] * m
        spec = SymSpec(2 * m, vals)
        p = lagrange_interpolate(list(range(2 * m + 1)), spec.values)
        base = SymApprox(spec, p, Fraction(0), "interpolant",
                         set(range(2 * m + 1)))
        ext = extend_approx(base, n, delta)
        targets = ((w, spec.values[w] if w <= m else Fraction(0))
                   for w in range(n + 1))
        if max_error(ext.poly, targets) > delta:
            ok = False
        # degree / (sqrt(n/(m+1)) (input degree + log2(1/delta)))
        ratio = ext.degree / (math.sqrt(n / (m + 1)) * (base.degree + 3))
        worst_ratio = max(worst_ratio, ratio)
        if ratio > K_EXT:
            ok = False
    _report(5, "extension-theorem", ok, t0,
            "worst degree ratio %.1f (cap %d)" % (worst_ratio, K_EXT))


def test_criterion_06_sampling():
    t0 = time.time()
    n, eps = 32, Fraction(1, 8)
    ok = True
    details = []
    for k in (1, 2, 3):
        rng = SplitMix64(7 + k)
        vals = [rng.fraction() for _ in range(k + 1)] + [0] * (n - k)
        spec = SymSpec(n, vals)
        a = sampling_approx(spec, eps)
        if not a.poly.outer.backend == a.poly.inner.backend == RATIONAL:
            ok = False
        for w in range(n + 1):
            err = abs(a.poly.eval(w) - spec.values[w])
            if w <= k or w >= n - k:
                if err != 0:
                    ok = False
            elif err > eps:
                ok = False
        lg = math.log2(float(a.pq_norm))
        details.append("k=%d log2|pq|=%.1f" % (k, lg))
        if lg > A_SAMPLING * (k + 3):               # log2(1/eps) = 3
            ok = False
    _report(6, "sampling-construction", ok, t0, "; ".join(details))


def test_criterion_07_surjectivity():
    t0 = time.time()
    ok = True
    details = []
    for n, r in ((8, 2), (12, 3), (16, 4)):
        a = surjectivity_approx(n, r)
        worst = max(abs(a.poly.eval(wv) - surj_value(wv))
                    for wv in _weight_vectors(r, n))
        if worst > Fraction(1, 3):
            ok = False
        cap = K_SURJ * math.sqrt(n) * r ** 0.25
        details.append("(%d,%d) deg=%d cap=%.1f" % (n, r, a.degree, cap))
        if a.degree > cap:
            ok = False
    z = surjectivity_approx(4, 6)
    if z.degree != 0 or z.certified_eps != 0:
        ok = False
    g = surjectivity_approx(12, 3, Fraction(1, 16))
    if float(g.certified_eps) > 1 / 16:
        ok = False
    _report(7, "surjectivity", ok, t0, "; ".join(details))


def test_surjectivity_degree_constant_at_scale():
    # Criterion 07's K_SURJ bound at the larger shapes (32, 4) and (16, 6),
    # measured at 4.00 and 2.56.
    for n, r in ((32, 4), (16, 6)):
        a = surjectivity_approx(n, r, Fraction(1, 3))
        assert a.degree <= K_SURJ * math.sqrt(n) * r ** 0.25, (n, r, a.degree)
        assert a.certified_eps <= Fraction(1, 3), (n, r)


def test_criterion_08_selector_composition():
    t0 = time.time()
    rng = SplitMix64(3)
    M, N, n, b = 3, 4, 2, 1
    cube = list(itertools.product((0, 1), repeat=M))
    ok = True
    for trial in range(20):
        tables = [{x: rng.randint(0, 1) for x in cube} for _ in range(N)]
        fs = [(lambda tb: (lambda x: tb[tuple(x)]))(tb) for tb in tables]
        s = selector_compose(fs, M, N, n, b, Fraction(1, 4))
        if float(s.certified_eps) > 1 / 4:
            ok = False
    _report(8, "selector-composition", ok, t0)


def test_criterion_09_coefficient_lemmas():
    t0 = time.time()
    ok = True
    rng = SplitMix64(21)
    for trial in range(500):
        d = 1 + rng.randint(0, 11)
        p = UniPoly([rng.fraction() for _ in range(d + 1)])
        if p.norm() > coeff_norm_bound(p):
            ok = False
    rng = SplitMix64(22)
    for trial in range(100):
        nn = 3 + rng.randint(0, 5)
        deg = 1 + rng.randint(0, min(3, nn - 1))
        a = [rng.fraction() for _ in range(deg + 1)]
        norm, bound = sym_multilinear_norms(nn, a)
        if norm > bound:
            ok = False
    rng = SplitMix64(23)
    for trial in range(200):
        m = 2 + rng.randint(0, 4)
        d = 1 + rng.randint(0, m - 1)
        nn = m + 1 + rng.randint(0, 8)
        vals = [rng.fraction() for _ in range(d + 1)]

        def phi(w):
            return sum(v * math.comb(w, s) for s, v in enumerate(vals))

        peak = max(abs(phi(w)) for w in range(m + 1))
        for w in range(m + 1, nn + 1):
            if abs(phi(w)) > extrapolation_bound(d, m, w) * peak + \
                    Fraction(1, 10 ** 18):
                ok = False
    _report(9, "coefficient-and-extrapolation-lemmas", ok, t0)


def test_criterion_10_bounds_consistency():
    t0 = time.time()
    ok = consistency_sweep() == []
    ok = ok and kdnf_closed(64, 0, 0.5) == 0
    for nn in (64, 256):
        expect = min(nn, C_SEL * math.sqrt(nn * 2))
        if abs(ed_closed(nn, 1, 2) - expect) > 1e-9:
            ok = False
    _report(10, "bounds-consistency-sweep", ok, t0)


def test_criterion_11_determinism_and_precision(tmp_path, capsys):
    t0 = time.time()
    ok = True
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["construct", "--target", "sampling", "--n", "16", "--k", "2",
            "--seed", "9"]
    ok = ok and cli_main(argv + ["--out", str(a)]) == 0
    ok = ok and cli_main(argv + ["--out", str(b)]) == 0
    ok = ok and a.read_bytes() == b.read_bytes()
    s = tmp_path / "s.json"
    for cmd in (["construct", "--target", "surjectivity", "--n", "8", "--r",
                 "2", "--out", str(s)],
                ["verify", str(s)],
                ["construct", "--target", "exact", "--n", "20", "--k", "2",
                 "--eps", "1/8", "--out", str(s)],
                ["verify", str(s)]):
        rc = cli_main(cmd)
        if rc != 0:      # in particular never 4: no precision rejections
            ok = False
    capsys.readouterr()
    _report(11, "determinism-and-precision", ok, t0)
