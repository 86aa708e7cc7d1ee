"""Degree-bound bookkeeping: closed forms for the main function families,
the recurrences they must dominate, and numeric consistency sweeps.

All quantities here are real-valued estimates (machine floats are enough;
nothing downstream consumes them at certification precision).  Delta always
means log2(1/eps).  Every closed form is clamped above by n, the trivial
interpolation degree.
"""

from itertools import product
import math

# The measured toy-scale selector/extension constant.  It seeds every other
# leading constant through the recurrence-solving relations
# c_kdnf = 2 (C_SEL + 1)^2 and c_ed = (4 C_SEL)^2, derived when a bound is
# evaluated.
C_SEL = 4.0


def entropy_binom_check(n, k):
    """sum_{i<=k} C(n,i) <= (en/k)^k for 1 <= k <= n."""
    lhs = sum(math.comb(n, i) for i in range(k + 1))
    return lhs <= (math.e * n / k) ** k


# ---------------------------------------------------------------------------
# Closed forms.


def symmetric_closed(n, k, delta):
    """Symmetric functions constant between weights k and n-k."""
    return min(n, C_SEL * (math.sqrt(n * max(k, 0))
                           + math.sqrt(n * max(delta, 0))))


def kdnf_closed(n, k, delta):
    if k == 0:
        return 0.0
    c = 2 * (C_SEL + 1) ** 2
    return min(n, c * math.sqrt(2) ** k * n ** (k / (k + 1))
               * delta ** (1 / (k + 1)))


def _ed_exponent(k):
    return 1 / (4 * (1 - 2.0 ** (-k)))


def ed_closed(n, k, delta):
    """Unbounded-range k-element distinctness."""
    if k == 1:
        return min(n, C_SEL * math.sqrt(n * delta))
    a = _ed_exponent(k)
    return min(n, ((4 * C_SEL) ** 2) ** k * math.sqrt(math.factorial(k))
               * n ** (1 - a) * delta ** a)


def ed_range_closed(n, r, k, delta):
    """Range [r]; reduces to ed_closed when kr >= n."""
    a = _ed_exponent(k)
    return min(n, ((4 * C_SEL) ** 2) ** k * math.sqrt(math.factorial(k))
               * (math.sqrt(n) * min(n, k * r) ** (0.5 - a) * delta ** a
                  + math.sqrt(n * delta)))


# ---------------------------------------------------------------------------
# Recurrence steps.  Each bound holds for every block size b >= 1, so the
# implied bound is the minimum over the grid; the grid always contains the
# analytic optimizer.


def _b_grid(n, extra):
    pts = {1.0, float(n)}
    b = 1.0
    step = 10 ** (1 / 64)
    while b < n:
        pts.add(b)
        b *= step
    for e in extra:
        if 1 <= e <= n:
            pts.add(e)
    return sorted(pts)


def kdnf_step(n, k, delta, inner):
    """min over b of C sqrt(n b Delta) + inner(n, k-1, Delta + C sqrt(n Delta / b)),
    clamped at n.  inner(n, k, delta) is the bound used for (k-1)-DNFs."""
    if k == 0:
        return 0.0
    C = C_SEL
    b_opt = (C + 1) ** 2 * 2 ** k * (n / max(delta, 1e-9)) ** (1 - 2 / (k + 1))
    best = float(n)
    for b in _b_grid(n, [b_opt]):
        v = C * math.sqrt(n * b * delta) + inner(n, k - 1,
                                                 delta + C * math.sqrt(n * delta / b))
        best = min(best, v)
    return best


def ed_small_range_step(n, r, k, delta, inner):
    """C sqrt(1 + n/(kr)) * (inner(2kr, r, k, Delta+1) + Delta)."""
    return min(n, C_SEL * math.sqrt(1 + n / (k * r))
               * (inner(2 * k * r, r, k, delta + 1) + delta))


def ed_large_range_step(n, k, delta, inner):
    """min over b of the two-stage split: solve b columns directly, recurse
    on the ~ C k sqrt(n b Delta) cells that survive."""
    C = C_SEL
    if k == 1:
        return min(n, C * math.sqrt(n * delta))
    best = float(n)
    for b in _b_grid(n, []):
        m = math.floor(C * k * math.sqrt(n * b * delta))
        inner_delta = C * math.sqrt(n * delta / b) + 1
        v = (C * math.sqrt(n * b * delta)
             + C * (1 + (n / (b * delta)) ** 0.25 / math.sqrt(k))
             * (inner(m, k - 1, inner_delta) + math.sqrt(n * delta / b)))
        best = min(best, v)
    return best


# ---------------------------------------------------------------------------
# Consistency sweeps: the closed form must dominate its own recurrence step
# with the (k-1)-closed form plugged in as inner.


def _violations(cases):
    """shape + (closed, step) for each (shape, closed, step) of cases whose
    closed form falls below its recurrence step, with 1e-12 slack."""
    return [shape + (closed, step) for shape, closed, step in cases
            if closed < step * (1 - 1e-12)]


def kdnf_sweep():
    return _violations(
        ((n, k, d), kdnf_closed(n, k, d), kdnf_step(n, k, d, kdnf_closed))
        for n, k, d in product((64, 256, 1024, 4096, 16384), (1, 2, 3, 4),
                               (1, 4, 16, 64)))


def ed_sweep():
    return _violations(
        ((n, k, d), ed_closed(n, k, d), ed_large_range_step(
            n, k, d, lambda nn, kk, dd: ed_closed(max(nn, 1), kk, dd)))
        for n, k, d in product((256, 1024, 4096, 16384), (2, 3, 4),
                               (1, 4, 16)))


def ed_range_sweep():
    return _violations(
        ((n, r, k, d), ed_range_closed(n, r, k, d), ed_small_range_step(
            n, r, k, d, lambda nn, rr, kk, dd: ed_closed(nn, kk, dd)))
        for n, r, k, d in product((1024, 4096), (8, 32, 128), (2, 3),
                                  (1, 4, 16)) if 2 * k * r <= n)


def consistency_sweep():
    """All families; returns the violation list (empty on success)."""
    return ([("kdnf",) + v for v in kdnf_sweep()]
            + [("ed",) + v for v in ed_sweep()]
            + [("ed-range",) + v for v in ed_range_sweep()])
