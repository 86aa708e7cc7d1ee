"""Independent ground truth: exact-rational minimax over finite node sets,
by exact exchange and by an alternation-based cross-check."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
import math

from .numcore import (UniPoly, _interpolate_ints, _over_lcm, as_fraction,
                      horner_ints, lagrange_interpolate, point_to_json,
                      scalar_to_json)


@dataclass
class MinimaxResult:
    eps_star: Fraction
    poly: UniPoly
    active_points: list

    def to_json(self):
        d = self.poly.to_json()
        d["eps_star"] = scalar_to_json(self.eps_star)
        d["active_points"] = [point_to_json(t) for t in self.active_points]
        return d


def minimax_lp(nodes, values, degree):
    """Best uniform approximation by a degree <= degree polynomial over the
    given nodes, solved exactly by single-point exchange (discrete Remez).

    Polynomials on distinct real nodes satisfy the Haar condition, so the
    best approximation is unique and each exchange strictly grows the
    levelled error |h| on a (degree+2)-point reference.  The search ends when
    |h| equals the maximum error over all nodes: the de la Vallee Poussin
    certificate that no polynomial of this degree does better.  Raises
    ArithmeticError rather than return a result without that certificate.
    Per node it runs in integers: with s_i = Q t_i, g_i = F f_i over lcms and
    p = nums/den, r_i = g_i den Q^d - F sum_k nums_k Q^(d-k) s_i^k."""
    nodes = [as_fraction(t) for t in nodes]
    values = [as_fraction(v) for v in values]
    if len(set(nodes)) != len(nodes):
        raise ValueError("repeated node")
    if len(values) != len(nodes) or degree < 0:
        raise ValueError("need one value per node and a degree >= 0")
    if degree >= len(nodes) - 1:
        p = lagrange_interpolate(nodes, values)
        return MinimaxResult(Fraction(0), p, list(nodes))
    d = degree
    (Q, s), (F, g) = _over_lcm(nodes), _over_lcm(values)
    order = sorted(range(len(s)), key=s.__getitem__)
    # reference: d+2 node indices in increasing node order, evenly spread
    ref = [order[j * (len(s) - 1) // (d + 1)] for j in range(d + 2)]
    last = None
    while True:
        p, h = _level([nodes[i] for i in ref], [values[i] for i in ref], d)
        if last is not None and abs(h) <= last:
            raise ArithmeticError("exchange did not raise the levelled error")
        last = abs(h)
        S = p.den * Q ** d          # r_i = S F (f_i - p(t_i))
        P = [F * n * Q ** (d - k) for k, n in enumerate(p.nums)]
        r = [gi * S - horner_ints(P, 1, si)[0] for si, gi in zip(s, g)]
        a = list(map(abs, r))
        worst = a.index(max(a))
        H = h * S * F               # an integer if the reference levels
        if a[worst] <= abs(H):
            break
        ref = _exchange(ref, worst, r, s, h)
    # certificate: the residual levels at +-eps with alternating sign on the
    # reference, and no node exceeds eps
    for j, i in enumerate(ref):
        if r[i] != (-1) ** j * H or (j and s[ref[j - 1]] >= s[i]):
            raise ArithmeticError("reference does not equioscillate")
    E = abs(H.numerator)            # H = r[ref[0]], an integer
    if p.degree > d or a[worst] != E:
        raise ArithmeticError("exchange ended without a certificate")
    return MinimaxResult(abs(h), p, [t for t, x in zip(nodes, a) if x == E])


def _exchange(ref, new, errs, nodes, h):
    """Swap node ``new`` into the reference so the residual signs still
    alternate.  The sign expected at reference position j is that of
    (-1)^j h; when h == 0 any alternating pattern will do."""
    up = errs[new] > 0
    sign = [(j % 2 == 0) == (h >= 0) for j in range(len(ref))]
    k = sum(nodes[i] < nodes[new] for i in ref)
    if k == 0:
        return [new] + (ref[1:] if sign[0] == up else ref[:-1])
    if k == len(ref):
        return (ref[:-1] if sign[-1] == up else ref[1:]) + [new]
    j = k if sign[k] == up else k - 1
    return ref[:j] + [new] + ref[j + 1:]


def minimax_reference(nodes, values, degree):
    """Alternation-based cross-check: the minimax error over a finite set
    equals the largest equioscillation error over its (degree+2)-point
    subsets.  Exponential in the node count; small instances only."""
    nodes = [as_fraction(t) for t in nodes]
    values = [as_fraction(v) for v in values]
    if degree >= len(nodes) - 1:
        return Fraction(0)
    order = sorted(range(len(nodes)), key=lambda i: nodes[i])
    best = Fraction(0)
    for sub in combinations(order, degree + 2):
        _, h = _level([nodes[i] for i in sub], [values[i] for i in sub], degree)
        best = max(best, abs(h))
    return best


def _level(ts, fs, d):
    """The degree <= d polynomial p and level h with p(t_j) + (-1)^j h = f_j
    on the d+2 increasing nodes ts, in closed form and in integers.  The
    (d+1)-th divided difference sum_j w_j g(t_j), w_j = 1 / prod_{k != j}
    (t_j - t_k), vanishes for g = p, and on increasing nodes w_j has the
    sign of (-1)^(d+1-j), so h = sum_j (-1)^j |w_j| f_j / sum_j |w_j|.  Both
    sums scale alike: on s_j = Q t_j and g_j = F f_j (Q, F the lcms of the
    denominators) |w_j| = M / |prod_{k != j} (s_j - s_k)|, M the products'
    lcm, and h = A / (F W) in integers."""
    (Q, s), (F, g) = _over_lcm(ts), _over_lcm(fs)
    prods = [abs(math.prod(a - b for b in s if b != a)) for a in s]
    M = math.lcm(*prods)
    w = [M // p for p in prods]
    A = sum((-1) ** j * wj * gj for j, (wj, gj) in enumerate(zip(w, g)))
    W = sum(w)
    p = _interpolate_ints(s[:d + 1], Q, [gj * W - (-1) ** j * A for j, gj
                                         in enumerate(g[:d + 1])], F * W)
    return p, Fraction(A, F * W)
