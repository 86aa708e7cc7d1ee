"""Composed approximants: surjectivity over a column grid, disjunction
selectors over function families, and the conjunction-norm bookkeeping that
justifies symmetrization of composed constructions.  Its expansions are the
one form of a multilinear polynomial over the cube: interpolated from a
function, averaged over blocks of variables, and evaluated on weights."""

from collections import namedtuple
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations, product
import math

from .numcore import (DEFAULT_PREC, UniPoly, as_fraction, horner_ints,
                      scalar_from_json, scalar_to_json, to_dyadic)
from .chebyshev import cheb_eval, cheb_poly
from .symmetric import SymApprox, and_or_min_degree


# ---------------------------------------------------------------------------
# Conjunction-norm ledger.  Expressions over n boolean variables, one
# constructor per calculus rule: the bound follows the rule, the expansion
# witnesses it.


# A ledger entry: the conjunction-norm bound by the calculus rules, the
# witnessing decomposition {(plain, negated): coeff} into conjunctions, and
# the direct evaluator x -> Fraction.
Pi = namedtuple("Pi", "bound expansion value")


_EMPTY = frozenset()


def _merge(expansions):
    """The sum of expansions, zero coefficients dropped."""
    out = {}
    for ex in expansions:
        for k, v in ex.items():
            out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v != 0}


def _expand_mul(a, b):
    out = {}
    for (pa, na), ca in a.items():
        for (pb, nb), cb in b.items():
            p, q = pa | pb, na | nb
            if p & q:
                continue     # contradictory literal pair: the zero function
            key = (p, q)
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def PConst(c):
    c = as_fraction(c)
    return Pi(abs(c), {(_EMPTY, _EMPTY): c} if c else {}, lambda x: c)


def PConj(plain, negated):
    """AND of the plain literals and the negations of the negated ones:
    norm 1."""
    return Pi(Fraction(1), {(plain, negated): Fraction(1)},
              lambda x: Fraction(int(all(x[i] for i in plain)
                                     and not any(x[i] for i in negated))))


def PDisj(plain, negated):
    """OR of the literals, 1 - PConj(negated, plain) by De Morgan: norm 2,
    or the constant 0 with no literal.  Its value is read directly."""
    if not (plain or negated):
        return PConst(0)
    rule = PSum([PConst(1), PScale(-1, PConj(negated, plain))])
    return Pi(rule.bound, rule.expansion, lambda x: Fraction(int(
        any(x[i] for i in plain) or any(not x[i] for i in negated))))


def PSum(parts):
    return Pi(sum((p.bound for p in parts), Fraction(0)),
              _merge(p.expansion for p in parts),
              lambda x: sum((p.value(x) for p in parts), Fraction(0)))


def PScale(c, base):
    c = as_fraction(c)
    return Pi(abs(c) * base.bound,
              {k: c * v for k, v in base.expansion.items()} if c else {},
              lambda x: c * base.value(x))


def PProd(parts):
    return Pi(math.prod((p.bound for p in parts), start=Fraction(1)),
              reduce(_expand_mul, (p.expansion for p in parts),
                     {(_EMPTY, _EMPTY): Fraction(1)}),
              lambda x: math.prod((p.value(x) for p in parts),
                                  start=Fraction(1)))


def PComp(poly, base):
    """poly(base): norm at most |poly|_1 max(1, |base|)^deg; the expansion
    is Horner's rule on base's."""
    acc = {}
    for c in reversed(poly.coeffs):
        acc = _merge([_expand_mul(acc, base.expansion), {(_EMPTY, _EMPTY): c}])
    return Pi(max(Fraction(1), base.bound) ** max(poly.degree, 0)
              * poly.norm(), acc, lambda x: poly.eval(base.value(x)))


def expansion_eval(expansion, x):
    tot = Fraction(0)
    for (p, q), c in expansion.items():
        if all(x[i] for i in p) and not any(x[i] for i in q):
            tot += c
    return tot


def expansion_norm(expansion):
    return sum(map(abs, expansion.values()), Fraction(0))


# ---------------------------------------------------------------------------
# Multilinear polynomials over {0,1}^n: expansions whose every key is a
# monomial (S, frozenset()).


def multilinear_interpolant(nvars, f):
    """The unique multilinear polynomial agreeing with f on all 0/1 inputs.
    Built by the weight-ascending correction recursion."""
    p = {}
    for w in range(nvars + 1):
        for sup in combinations(range(nvars), w):
            x = [0] * nvars
            for i in sup:
                x[i] = 1
            delta = as_fraction(f(tuple(x))) - expansion_eval(p, x)
            if delta != 0:
                p[frozenset(sup), _EMPTY] = delta
    return p


def symmetrize(expansion, blocks):
    """Average of a monomial expansion over permutations acting within each
    block.

    Returns a dict mapping per-block monomial degree tuples (s_1..s_k) to
    coefficients; the symmetrized value at block weights (t_1..t_k) is
    sum coeff * prod C(t_b, s_b).  A monomial with s_b variables in block b
    contributes coeff / prod C(n_b, s_b)."""
    idx = {}
    for bi, blk in enumerate(blocks):
        for v in blk:
            idx[v] = bi
    out = {}
    for (s, _), c in expansion.items():
        sig = [0] * len(blocks)
        for v in s:
            sig[idx[v]] += 1
        sig = tuple(sig)
        w = c
        for bi, sb in enumerate(sig):
            w /= math.comb(len(blocks[bi]), sb)
        out[sig] = out.get(sig, Fraction(0)) + w
    return {k: v for k, v in out.items() if v != 0}


def sym_eval(sym, weights):
    tot = Fraction(0)
    for sig, c in sym.items():
        prod = c
        for sb, t in zip(sig, weights):
            prod *= math.comb(t, sb)
        tot += prod
    return tot


def sym_to_unipoly(sym):
    """Single-block symmetrization as a dense polynomial in the weight,
    using C(t, s) = t(t-1)...(t-s+1)/s!."""
    p = UniPoly([])
    for (s,), c in sym.items():
        binom = UniPoly([1])
        for i in range(s):
            binom = binom * UniPoly([-i, 1])
        p = p + binom.scale(Fraction(c, math.factorial(s)))
    return p


def incl_excl_expand(k):
    """prod_{i<k} f_i as a signed combination of disjunctions:
    returns [(sign, subset)] with sign = (-1)^(|S|+1) over nonempty S."""
    out = []
    for r in range(1, k + 1):
        for sub in combinations(range(k), r):
            out.append(((-1) ** (r + 1), frozenset(sub)))
    return out


# ---------------------------------------------------------------------------
# Surjectivity over an n x r grid of cell indicators, weight <= n.


class SurjSpec:
    """SURJ's domain: the nonincreasing column weight vectors with sum <= n
    of an n x r grid, which suffice by column symmetry.  A shape with no
    vector would measure 0, so n and r are checked."""
    claims_exact_on = False      # nor a construction: see README

    def __init__(self, n, r):
        if type(n) is not int or n < 0:
            raise ValueError("need n >= 0 rows, got %r" % (n,))
        if type(r) is not int or r < 1:
            raise ValueError("need r >= 1 columns, got %r" % (r,))
        self.n, self.r = n, r

    def pairs(self):
        return ((wv, surj_value(wv)) for wv in _weight_vectors(self.r, self.n))

    def to_json(self):
        return {"target": "surjectivity", "n": self.n, "r": self.r}

    @classmethod
    def read(cls, doc):
        """(spec, poly, None, None) of a surjectivity artifact."""
        if "exact_on" in doc or "construction" in doc:
            raise ValueError("surjectivity claims no exact_on or construction")
        spec = cls(doc["n"], doc["r"])
        q = UniPoly.from_json(doc["q"]) if doc["q"] is not None else None
        terms = [(t["ell"], scalar_from_json(t["mu"])) for t in doc["terms"]]
        return spec, SSubsets(spec, q, terms), None, None


class SSubsets:
    """sum_ell mu_ell sum_{|S|=ell} q(w_S) at a column weight vector w of
    spec, for terms (ell, mu): every column subset shares the one emptiness
    indicator q, None with only the constant term, ell = 0, left."""

    def __init__(self, spec, q, terms):
        n, r = spec.n, spec.r
        if not all(type(ell) is int and 0 <= ell <= r for ell, _ in terms):
            raise ValueError("every ell must be an integer in 0..r")
        if _measure_cost(n, r, [ell for ell, _ in terms]) > MAX_MEASURE:
            raise ValueError("(%d, %d) takes more than %d subset sums to "
                             "measure" % (n, r, MAX_MEASURE))
        self.spec, self.q, self.terms = spec, q, terms
        # q's degree, or 0 with only the constant term left
        self.degree = (0 if q is None or all(ell == 0 for ell, _ in terms)
                       else q.degree)
        # value(w) = (sum_ell M_ell sum_S T[w_S]) / den in integers, with
        # q(k) = T[k] / lq, mu_ell = M_ell / lm and den = lq * lm: at an
        # integer k every q(k) has the denominator lq = q.den.
        q = q if q is not None else UniPoly([])
        lq = q.den
        table = [horner_ints(q.nums, lq, k)[0] for k in range(n + 1)]
        lm = math.lcm(*(mu.denominator for _, mu in terms))
        self._integer_form = ([(ell, mu.numerator * (lm // mu.denominator),
                                list(combinations(range(r), ell)))
                               for ell, mu in terms], table, lq, lq * lm)

    def ints(self, weights):
        """The unreduced integer pair of the exact value at a column weight
        vector."""
        terms, table, lq, den = self._integer_form
        tot = 0
        for ell, m, subsets in terms:
            tot += m * (lq if ell == 0 else
                        sum(table[sum(weights[j] for j in S)] for S in subsets))
        return tot, den

    def eval(self, weights):
        """The exact value at a column weight vector."""
        if len(weights) != self.spec.r:
            raise ValueError("a weight vector of length %d for r = %d"
                             % (len(weights), self.spec.r))
        return Fraction(*self.ints(weights))

    def to_json(self):
        return {"q": self.q.to_json() if self.q is not None else None,
                "terms": [{"ell": ell, "mu": scalar_to_json(mu)}
                          for ell, mu in self.terms]}


# The most subset sums measuring a shape may take, its nonincreasing weight
# vectors times r plus its terms' column subsets, at about 0.7 us each.
# (48, 6) takes 5 430 369 and (32, 8) 4 858 254; (4000, 2) with the terms
# of (8, 2) takes 24 024 006, and (8, 40) with a term ell = 20 9.2 10^12.
MAX_MEASURE = 1 << 23


def _measure_cost(n, r, ells):
    """The subset sums measuring an SSubsets takes at (n, r) with terms
    of sizes ells, or some number above MAX_MEASURE once it passes it."""
    per = r
    for ell in ells:
        c = 1                                  # C(r, i) up to i = ell
        for i in range(min(ell, r - ell)):
            c = c * (r - i) // (i + 1)
            if c > MAX_MEASURE:
                break
        per += c
        if per > MAX_MEASURE:
            return per
    return _count_weight_vectors(r, n, MAX_MEASURE // per) * per


def _count_weight_vectors(r, n, cap):
    """The number of _weight_vectors(r, n), or some number above cap once it
    passes cap.  Its conjugate makes a nonincreasing vector with sum m a
    partition of m into parts of at most r; ways[m] counts those with the
    part sizes taken so far, one size a pass, in O(n r) steps."""
    if n + 1 > cap:
        return n + 1
    ways, total = [1] * (n + 1), n + 1           # parts of size 1
    for k in range(2, min(r, n) + 1):
        for m in range(k, n + 1):
            ways[m] += ways[m - k]
            total += ways[m - k]
        if total > cap:
            break
    return total


def _weight_vectors(r, n, cap=math.inf):
    """Nonincreasing weight vectors w_1 >= ... >= w_r >= 0 with sum <= n
    and w_1 <= cap."""
    if r == 0 or min(n, cap) == 0:              # recurse no deeper than
        yield (0,) * r                          # the nonzero weights
        return
    for w in range(min(n, cap) + 1):
        for rest in _weight_vectors(r - 1, n - w, w):
            yield (w,) + rest


def surj_value(weights):
    return 1 if all(w >= 1 for w in weights) else 0


def _outer_third(r):
    """Chebyshev outer polynomial for error target 1/3: exact rational,
    P(v) = T_m((1+v)/r)/T_m(1+1/r), m = ceil(sqrt(3r))."""
    m = math.isqrt(3 * r - 1) + 1
    peak = cheb_eval(m, 1 + Fraction(1, r))
    p = cheb_poly(m).compose_affine(Fraction(1, r), Fraction(1, r))
    return p.scale(Fraction(1) / peak)


def _outer(r, eps, prec):
    """Outer polynomial in the number of nonempty columns: the Chebyshev one
    at eps 1/3, else the damped AND with error <= eps/2 on {0..r-1}."""
    if eps == Fraction(1, 3):
        return _outer_third(r)
    return and_or_min_degree(r, "and", eps / 2, prec).poly


def _finite_differences(values):
    """The exact forward differences sum_i (-1)^(ell-i) C(ell, i) values[i]
    for ell = 0..len(values) - 1."""
    return [sum((-1) ** (ell - i) * math.comb(ell, i) * values[i]
                for i in range(ell + 1)) for ell in range(len(values))]


def surjectivity_approx(n, r, eps=Fraction(1, 3), prec=DEFAULT_PREC):
    """Approximant for SURJ on an n x r grid restricted to weight <= n,
    expanded into per-column-subset emptiness terms."""
    spec = SurjSpec(n, r)
    eps = as_fraction(eps)
    if r > n:
        # no map of n rows onto r > n columns is onto: the zero polynomial
        # is exact.  SurjSpec rejects every other shape outside 1 <= r <= n.
        return SymApprox.measured(spec, SSubsets(spec, None, [(0, 0)]))
    outer = _outer(r, eps, prec)
    h = [outer.eval(r - j) for j in range(r + 1)]
    outer_err = max(abs(h[j] - surj_value([1] * (r - j) + [0] * j))
                    for j in range(r + 1))
    # The exact finite differences vanish above the outer degree; a float
    # outer rounds each of them once.
    mu = _finite_differences(h)
    if outer.prec is not None:
        mu = [to_dyadic(m, outer.prec) for m in mu]
    weight = sum(abs(mu[ell]) * math.comb(r, ell)
                 for ell in range(1, r + 1))
    slack = eps - outer_err
    if slack <= 0:
        raise ArithmeticError("outer stage already exhausts the error budget")
    budget = slack / weight
    # SURJ is invariant under permuting the columns, so every subset size
    # shares one emptiness indicator q.
    live = [ell for ell in range(1, r + 1) if mu[ell] != 0]
    q = _conjunction_poly(n, budget, prec) if live else None
    terms = [(0, mu[0])] + [(ell, mu[ell]) for ell in live]
    exact = outer.prec is None and (q is None or q.prec is None)
    return SymApprox.measured(spec, SSubsets(spec, q, terms),
                              prec=None if exact else prec)


def _conjunction_poly(n, budget, prec):
    """Smallest-degree emptiness indicator for any nonempty set of columns:
    q(w) with q(0) ~ 1, q(w >= 1) ~ 0, max error <= budget, w = ones in the
    columns.  On the weight-<= n slice w takes every value in 0..n whatever
    the number of columns, so it is 1 - OR on n weights."""
    p = and_or_min_degree(n, "or", budget, prec).poly
    return UniPoly([1], p.prec) - p


def surj_outer_eval(r, eps, weights, prec=DEFAULT_PREC):
    """Unexpanded composition: outer polynomial applied to the number of
    nonempty columns.  Cross-validation target for the expanded form."""
    v = sum(1 for w in weights if w >= 1)
    return _outer(r, eps, prec).eval(v)


# ---------------------------------------------------------------------------
# Selector composition: F(x, y) = OR_i (y_i AND f_i(x)) on |y| = n.


SelectorApprox = namedtuple("SelectorApprox", "certified_eps degree")


def _or_symmetric_coeffs(k, eps, prec):
    """Subset-basis coefficients a_0..a_d of an OR_k approximant with error
    <= eps/2: a_ell is the ell-th finite difference of the weight poly."""
    a = and_or_min_degree(k, "or", eps / 2, prec)
    gv = [a.poly.eval(w) for w in range(min(a.degree, k) + 1)]
    return _finite_differences(gv), a.degree


def selector_compose(fs, M, N, n, b, eps):
    """Composed approximant for OR_i (y_i and f_i(x)); fs are N boolean
    functions of M variables given as callables on 0/1 tuples.  Toy scale:
    everything is enumerated exactly."""
    eps = as_fraction(eps)
    if n % b or N < n:
        raise ValueError("need b | n and N >= n")
    k = n // b
    a, d_out = _or_symmetric_coeffs(k, eps, DEFAULT_PREC)

    def f_union(S, x):
        return 1 if any(fs[i](x) for i in S) else 0

    # each f's multilinear degree, -1 for the zero polynomial
    inner_deg = max((max((len(p | q) for p, q in multilinear_interpolant(M, f)),
                         default=-1) for f in fs), default=0)

    # Built once per live ell: its ordered disjoint block tuples and unions,
    # and the inclusion-exclusion of a tuple's conjunction.
    blocks = list(combinations(range(N), b))
    live = []
    for ell in range(1, len(a)):
        if a[ell] != 0:
            tuples = [(set().union(*c), c) for c in permutations(blocks, ell)
                      if len(set().union(*c)) == b * ell]
            scale = (a[ell] * math.comb(k, ell) * math.comb(N, b * ell)
                     / Fraction(math.comb(n, b * ell) * len(tuples)))
            live.append((tuples, scale, incl_excl_expand(ell)))

    def evaluate(x, selected):
        tot = a[0] if a else Fraction(0)
        for tuples, scale, signed in live:
            acc = 0
            for union, tup in tuples:
                if union <= selected:
                    acc += sum(sign * f_union(set().union(*(tup[i] for i in S)),
                                              x) for sign, S in signed)
            tot += scale * acc
        return tot

    worst = max(abs(evaluate(x, selected) - f_union(selected, x))
                for x in product((0, 1), repeat=M)
                for selected in map(set, combinations(range(N), n)))
    # with every f zero the composed polynomial is the constant a_0
    degree = inner_deg + d_out * b if inner_deg >= 0 else 0
    return SelectorApprox(worst, degree)

