"""Operation lists of the benchmark workloads.

Shapes are fixed per workload; the seed only picks spectrum values.  An
operation is a dict with a ``kind``:

- ``cli``: ``construct`` with ``argv`` (the ``--out`` path is appended when
  it runs), then ``verify`` of the artifact at the same ``--prec``.  ``eps``
  is the requested error the certified error must not exceed.
- ``solve``: one ``minimax_lp`` over ``nodes``/``values`` at ``degree``.
- ``ladder``: ``minimax_lp`` at degree 0, 1, ... until ``eps_star <= eps``.

Operations marked ``check`` are the ones the traced run also profiles to
prove the tracer misses no call.
"""

from fractions import Fraction

WORKLOADS = ("float-sweep", "exact-batch", "oracle-ladder")


class SplitMix64:
    """splitmix64.  Kept in the benchmark, not imported from the program, so
    that the generated inputs stay the same when the program changes."""

    MASK = (1 << 64) - 1

    def __init__(self, seed):
        self.state = seed & self.MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def fraction(self, denom=2 ** 16):
        """A Fraction in [-1, 1] with the given denominator (modulo bias is
        below 2^-47 and irrelevant for input generation)."""
        return Fraction(self.next_u64() % (2 * denom + 1) - denom, denom)


def _cli(target, n, eps, prec=256, check=False, **extra):
    argv = ["--prec", str(prec), "construct", "--target", target,
            "--n", str(n), "--eps", eps]
    for key, value in extra.items():
        argv += ["--" + key, str(value)]
    shape = ["%s=%s" % kv for kv in extra.items() if kv[0] != "seed"]
    label = " ".join([target, "n=%d" % n] + shape + ["eps=" + eps, "prec=%d" % prec])
    return {"kind": "cli", "label": label, "argv": argv, "prec": prec,
            "eps": Fraction(eps), "check": check}


def _float_sweep(rng):
    # Every shape distinct; nothing here is seeded because AND/OR, exact-weight
    # and surjectivity targets have no free spectrum values.
    ops = [_cli("and", n, "1/3", check=n == 16) for n in (16, 32, 64, 128)]
    ops += [_cli("or", n, "1/3") for n in (24, 48, 96)]
    ops += [_cli("and", 40, "1/3", prec=128), _cli("or", 80, "1/3", prec=512)]
    for n in (20, 32, 48):
        ops += [_cli("exact", n, "1/8", k=k, check=(n, k) == (20, 2))
                for k in (0, 2, 4)]
    ops += [_cli("exact", 24, "1/8", prec=128, k=1),
            _cli("exact", 40, "1/8", prec=512, k=2)]
    # No (16,4): its construct alone takes 2.5 s, half the pass.
    ops += [_cli("surjectivity", n, "1/3", r=r) for n, r in ((8, 2), (12, 3))]
    ops.append(_cli("surjectivity", 12, "1/16", r=3, check=True))
    return ops


def _exact_batch(rng):
    # Small-support spectra repeat one shape with different seeded values: the
    # first builds the interval indicator, the others reuse it.  No sampling
    # (32,3): its construct and verify take 4.4 s, half the pass.
    ops = [_cli("sampling", n, "1/8", k=k, seed=rng.next_u64() >> 33,
                check=(n, k) == (16, 2))
           for n, k in ((16, 1), (16, 2), (16, 3), (32, 1))]
    ops += [_cli("small-support", 32, "1/8", k=2, seed=rng.next_u64() >> 33,
                 check=i == 0) for i in range(3)]
    return ops


def _oracle_ladder(rng):
    # Ladders dominate the pass and cost the same for every seed.  A pass is
    # kept near 3 s so that a run times each call about ten times.
    ops = []
    for which, n in (("and", 16), ("or", 16), ("and", 24)):
        values = [0] * n + [1] if which == "and" else [0] + [1] * n
        ops.append({"kind": "ladder", "label": "%s ladder n=%d" % (which, n),
                    "nodes": list(range(n + 1)),
                    "values": [Fraction(v) for v in values],
                    "eps": Fraction(1, 3), "check": (which, n) == ("and", 16)})
    # Few and small: the simplex's pivot count depends on the values (three
    # solves at n = 16 took 1.3 s to 2.4 s across ten seeds), so the random
    # solves are kept to about a quarter of the pass.
    for n, d in ((16, 4), (16, 8)):
        ops.append({"kind": "solve", "label": "random n=%d d=%d" % (n, d),
                    "nodes": list(range(n + 1)),
                    "values": [rng.fraction() for _ in range(n + 1)],
                    "degree": d, "check": False})
    return ops


_BUILDERS = {"float-sweep": _float_sweep, "exact-batch": _exact_batch,
             "oracle-ladder": _oracle_ladder}


def make_ops(workload, seed):
    """The operation list of one pass of ``workload`` for ``seed``."""
    return _BUILDERS[workload](SplitMix64(seed))
