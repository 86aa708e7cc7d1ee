"""Independent ground truth: exact-rational minimax over finite node sets,
by exact exchange and by an alternation-based cross-check."""

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
import math

from .numcore import (BackendMismatchError, _from_scaled, _interpolate_ints,
                      _over_lcm, as_fraction, point_to_json, scalar_to_json)


class MinimaxResult:
    def __init__(self, eps_star, poly, active_points):
        self.eps_star = eps_star
        self.poly = poly
        self.active_points = active_points

    def to_json(self):
        d = self.poly.to_json()
        d["eps_star"] = scalar_to_json(self.eps_star)
        d["active_points"] = [point_to_json(t) for t in self.active_points]
        return d


def minimax_lp(nodes, values, degree):
    """Best uniform approximation by a degree <= degree polynomial over the
    given nodes, solved exactly by multiple exchange (discrete Remez).

    Polynomials on distinct real nodes satisfy the Haar condition, so the
    best approximation is unique.  The search levels the error on a
    (degree+2)-point reference, starting from the nodes nearest the
    Chebyshev extrema of the node range, and ends when the levelled |h|
    equals the maximum error over all nodes: the de la Vallee Poussin
    certificate that no polynomial of this degree does better.  Raises
    ArithmeticError rather than return a result without that certificate.
    It runs in integers end to end: with s_i = Q t_i and g_i = F f_i over
    the lcms, each level is C(y) / den in y = Q t, and r_i = g_i den - C(s_i)
    is F den times the residual f_i - p(t_i).  Only the result is made of
    Fractions."""
    nodes, values = list(nodes), list(values)
    (Q, s), (F, g) = _scaled(nodes), _scaled(values)
    if len(set(s)) != len(s):
        raise ValueError("repeated node")
    if len(g) != len(s) or degree < 0:
        raise ValueError("need one value per node and a degree >= 0")
    if degree >= len(s) - 1:
        c, D = _interpolate_ints(s, g)
        return MinimaxResult(Fraction(0), _from_scaled(c, Q, D * F),
                             [as_fraction(t) for t in nodes])
    d = degree
    order = sorted(range(len(s)), key=s.__getitem__)
    ref = [order[k] for k in _chebyshev_start([s[i] for i in order], d)]
    last = None
    while True:
        c, den, H = _level([s[i] for i in ref], [g[i] for i in ref], d)
        # |h| = |H| / den must rise strictly
        if last is not None and abs(H) * last[1] <= last[0] * den:
            raise ArithmeticError("exchange did not raise the levelled error")
        last = abs(H), den
        acc = [c[-1]] * len(s)
        for ck in reversed(c[:-1]):
            acc = [x * si + ck for x, si in zip(acc, s)]
        r = [gi * den - x for gi, x in zip(g, acc)]
        a = list(map(abs, r))
        E = max(a)
        if E <= abs(H):
            break
        ref = _exchange(ref, order, r, a, H, d)
    # certificate: the residual levels at +-H with alternating sign on d + 2
    # increasing nodes, and no node exceeds |H|
    if len(ref) != d + 2 or any(r[i] != (-1) ** j * H or (
            j and s[ref[j - 1]] >= s[i]) for j, i in enumerate(ref)):
        raise ArithmeticError("reference does not equioscillate")
    p = _from_scaled(c, Q, den * F)
    if p.degree > d or E != abs(H):
        raise ArithmeticError("exchange ended without a certificate")
    return MinimaxResult(Fraction(E, den * F), p,
                         [as_fraction(t) for t, x in zip(nodes, a) if x == E])


def _scaled(xs):
    """_over_lcm of ints and Fractions, read as they are."""
    if not all(isinstance(x, (int, Fraction)) for x in xs):
        raise BackendMismatchError("expected exact rationals")
    return _over_lcm(xs)


def _chebyshev_start(ss, d):
    """Positions in the increasing integers ss of the d + 2 nodes nearest
    the Chebyshev extrema of [ss[0], ss[-1]], made distinct and kept in
    order.  Floats only steer the path: any start reaches the same unique
    best approximation."""
    n, lo, span = len(ss), ss[0], ss[-1] - ss[0]
    out = []
    for j in range(d + 2):
        x = round((1 - math.cos(math.pi * j / (d + 1))) * 2 ** 52)
        T = lo + (span * x >> 53)
        k = bisect_left(ss, T)
        if k == n or (k and T - ss[k - 1] <= ss[k] - T):
            k -= 1
        out.append(min(max(k, out[-1] + 1 if out else 0), n - d - 2 + j))
    return out


def _exchange(ref, order, r, a, H, d):
    """The next reference of a multiple exchange.  Walk, in node order, the
    reference, whose residual at position j has the sign of (-1)^j H (any
    alternating pattern when H == 0), with every node whose |r| exceeds
    |H|; keep the largest |r| of each sign run, and trim the ends to d + 2
    points, never dropping the largest.  The old residual then alternates
    on the new reference with |r| >= |H| throughout and > |H| somewhere, and
    the new level is a positive-weight average of those |r|, so |h| rises
    strictly."""
    pos = {i: j for j, i in enumerate(ref)}
    bound, even_up = abs(H), H >= 0
    runs = []           # [positive, |r|, node index], one per sign run
    for i in order:
        if a[i] > bound:
            up, x = r[i] > 0, a[i]
        elif i in pos:
            up, x = (pos[i] % 2 == 0) == even_up, bound
        else:
            continue
        if not runs or runs[-1][0] != up:
            runs.append([up, x, i])
        elif x > runs[-1][1]:
            runs[-1] = [up, x, i]
    w = max(range(len(runs)), key=lambda j: runs[j][1])
    lo, hi = 0, len(runs)
    while hi - lo > d + 2:
        if lo != w and (hi - 1 == w or runs[lo][1] <= runs[hi - 1][1]):
            lo += 1
        else:
            hi -= 1
    return [i for _, _, i in runs[lo:hi]]


def minimax_reference(nodes, values, degree):
    """Alternation-based cross-check: the minimax error over a finite set
    equals the largest equioscillation error over its (degree+2)-point
    subsets.  Exponential in the node count; small instances only."""
    (_, s), (F, g) = _scaled(list(nodes)), _scaled(list(values))
    if degree >= len(s) - 1:
        return Fraction(0)
    order = sorted(range(len(s)), key=s.__getitem__)
    best = Fraction(0)
    for sub in combinations(order, degree + 2):
        _, den, H = _level([s[i] for i in sub], [g[i] for i in sub], degree)
        best = max(best, Fraction(abs(H), den))
    return best / F


def _level(s, g, d):
    """(c, den, H) with sum_k c_k s_j^k + (-1)^j H = g_j den on the d + 2
    increasing integers s and integers g, len(c) = d + 1: the level
    polynomial C(y) / den and level H / den, in closed form.  The (d+1)-th
    divided difference sum_j w_j u(s_j), w_j = 1 / prod_{k != j}
    (s_j - s_k), vanishes for u = C, and on increasing nodes w_j has the
    sign of (-1)^(d+1-j), so the level is sum_j (-1)^j |w_j| g_j /
    sum_j |w_j|.  Both sums scale alike: |w_j| = M / |prod_{k != j}
    (s_j - s_k)|, M the products' lcm, and the level is A / W in integers.
    C / D interpolates W g_j - (-1)^j A on the first d + 1 nodes, so
    den = D W and H = A D."""
    prods = [abs(math.prod(a - b for b in s if b != a)) for a in s]
    M = math.lcm(*prods)
    w = [M // p for p in prods]
    A = sum((-1) ** j * wj * gj for j, (wj, gj) in enumerate(zip(w, g)))
    W = sum(w)
    c, D = _interpolate_ints(s[:d + 1], [gj * W - (-1) ** j * A for j, gj
                                         in enumerate(g[:d + 1])])
    return c, D * W, A * D
