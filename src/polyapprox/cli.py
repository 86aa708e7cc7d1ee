"""Command line front end.

Exit codes: 0 success, 2 invalid configuration, 3 verification failure,
4 certified error above --eps: the exact maximum error of the built
polynomial, rounded up to --prec bits for a float target or a binomial
tail, so a higher --prec may help.

verify reads an artifact with SymApprox.from_json over the domain ARTIFACTS
maps its "target" to, and measures it again with remeasured, the one exact
pass construct made (numcore.max_error, at the precisions the artifact
records).  It compares the exact maximum error with the exact claim,
certified_eps_exact, with no slack, the readable certified_eps with that
claim as a float, the claimed degree with the serialized polynomial's, and
a spectrum's exact_on with the weights where that pass found no error.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from .numcore import (DEFAULT_PREC, PrecisionError, SplitMix64,
                      fraction_from_json)
from .oracle import minimax_lp
from .symmetric import (SymApprox, SymSpec, and_or_approx, and_or_min_degree,
                        exact_weight_approx, sampling_min_degree)
from .extension import small_support_approx
from .composed import SurjSpec, surjectivity_approx


def _parse_fraction(s):
    return fraction_from_json(s) if "/" in s else Fraction(s)


def _precision(s):
    prec = int(s)
    if prec < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %s" % s)
    return prec


def _emit(obj, path):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _random_low_support(n, k, seed):
    if n >= 0 and not 0 <= k <= n:        # SymSpec rejects n < 0
        raise ValueError("--k must lie in 0..%d, got %d" % (n, k))
    rng = SplitMix64(seed)
    values = [rng.fraction() for _ in range(k + 1)] + [0] * (n - k)
    return SymSpec(n, values)


# construct's targets, each built from the parsed arguments and exact eps
TARGETS = {
    "and": lambda a, eps: and_or_min_degree(a.n, "and", eps, a.prec),
    "or": lambda a, eps: and_or_min_degree(a.n, "or", eps, a.prec),
    "exact": lambda a, eps: exact_weight_approx(a.n, a.k, a.k, eps, a.prec),
    "sampling": lambda a, eps: sampling_min_degree(
        _random_low_support(a.n, a.k, a.seed), eps),
    "small-support": lambda a, eps: small_support_approx(
        _random_low_support(a.n, a.k, a.seed), eps, a.prec),
    "surjectivity": lambda a, eps: surjectivity_approx(a.n, a.r, eps, a.prec),
}
# bounds' families, each a closed form at the parsed arguments
FAMILIES = {
    "symmetric": lambda a: bounds_mod.symmetric_closed(a.n, a.k, a.delta),
    "kdnf": lambda a: bounds_mod.kdnf_closed(a.n, a.k, a.delta),
    "ed": lambda a: bounds_mod.ed_closed(a.n, a.k, a.delta),
    "ed-range": lambda a: bounds_mod.ed_range_closed(a.n, a.r, a.k, a.delta),
}
# verify's domain for each artifact, by the "target" the artifact writes
ARTIFACTS = {"spectrum": SymSpec, "surjectivity": SurjSpec}


def cmd_construct(args):
    eps = _parse_fraction(args.eps)
    if eps <= 0:
        raise ValueError("--eps must be positive, got %s" % args.eps)
    a = TARGETS[args.target](args, eps)
    if a.certified_eps > eps:
        raise PrecisionError("certified error %.6g exceeds --eps %s at %d bits"
                             % (float(a.certified_eps), args.eps, args.prec))
    _emit(a.to_json(), args.out)
    return 0


def cmd_verify(args):
    with open(args.artifact) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("artifact is not a JSON object")
    target = doc.get("target")
    if type(target) is not str or target not in ARTIFACTS:
        raise ValueError("unrecognized artifact")
    if type(doc.get("degree")) is not int:
        raise ValueError("the claimed degree is not an integer")
    if type(doc.get("certified_eps")) is not float:
        raise ValueError("the readable certified_eps is not a float")
    try:
        approx = SymApprox.from_json(doc, ARTIFACTS[target])
        fresh = approx.remeasured()
    except TypeError as exc:
        # well-formed JSON with a field of the wrong type
        raise ValueError("artifact field of the wrong type: %s" % exc) from exc
    if doc["degree"] != approx.degree:
        print("FAIL: claimed degree %r, the polynomial has degree %d"
              % (doc["degree"], approx.degree))
        return 3
    if fresh.certified_eps > approx.certified_eps:
        print("FAIL: certified error claim does not hold")
        return 3
    if doc["certified_eps"] != float(approx.certified_eps):
        print("FAIL: certified_eps is not certified_eps_exact as a float")
        return 3
    if fresh.exact_on != approx.exact_on:
        print("FAIL: claimed exact_on %s, the polynomial is exact on %s"
              % (sorted(approx.exact_on), sorted(fresh.exact_on)))
        return 3
    print("OK")
    return 0


def cmd_oracle(args):
    nodes = [_parse_fraction(s) for s in args.nodes.split(",")]
    values = [_parse_fraction(s) for s in args.values.split(",")]
    res = minimax_lp(nodes, values, args.degree)
    _emit(res.to_json(), args.out)
    return 0


def cmd_bounds(args):
    if args.sweep:
        v = bounds_mod.consistency_sweep()
        print("violations: %d" % len(v))
        for row in v:
            print(row)
        return 0 if not v else 3
    fam = args.family
    for flag in ("n", "r", "k", "delta"):
        if not getattr(args, flag) >= 0:
            raise ValueError("--%s must be nonnegative, got %s"
                             % (flag, getattr(args, flag)))
    if fam in ("ed", "ed-range") and args.k < 1:
        raise ValueError("--family %s needs --k >= 1, got %d" % (fam, args.k))
    print("%.6f" % FAMILIES[fam](args))
    return 0


def cmd_table(args):
    rows = [["family", "n", "k", "delta", "bound"]]
    for n in (64, 256, 1024, 4096):
        for k in (1, 2, 3):
            for delta in (1, 8, 64):
                rows.append(["kdnf", n, k, delta,
                             "%.3f" % bounds_mod.kdnf_closed(n, k, delta)])
                rows.append(["ed", n, k, delta,
                             "%.3f" % bounds_mod.ed_closed(n, k, delta)])
    out = sys.stdout if not args.out else open(args.out, "w", newline="")
    out.writelines(",".join(map(str, row)) + "\r\n" for row in rows)
    if args.out:
        out.close()
    return 0


def cmd_selftest(args):
    checks = []

    def check(name, fn):
        try:
            ok = fn()
        except PrecisionError:
            raise
        except Exception as exc:      # present the failure, keep going
            checks.append((name, False, repr(exc)))
            return
        checks.append((name, bool(ok), ""))

    from .chebyshev import cheb_eval, cos_pi

    # T_16(cos(pi/48)) = cos(pi/3) = 1/2, from a 256-bit cosine
    check("chebyshev-identity",
          lambda: abs(cheb_eval(16, cos_pi(1, 48, 256)) - Fraction(1, 2))
          < Fraction(1, 2 ** 200))
    check("oracle-or2", lambda: minimax_lp([0, 1, 2], [0, 1, 1], 1).eps_star
          == Fraction(1, 4))
    check("and-approx", lambda: float(and_or_approx(8, 5).certified_eps) <= 1/3)
    check("exact-weight", lambda: float(
        exact_weight_approx(16, 2, 2, Fraction(1, 8)).certified_eps) <= 1/8)
    check("surjectivity", lambda: float(
        surjectivity_approx(8, 2).certified_eps) <= 1/3)
    check("bounds-sweep", lambda: not bounds_mod.consistency_sweep())
    ok = True
    for name, passed, note in checks:
        print("%s %s %s" % ("PASS" if passed else "FAIL", name, note))
        ok = ok and passed
    return 0 if ok else 3


@functools.cache
def make_parser():
    """The argument parser, built once per process.  It holds no handler:
    main looks cmd_<name> up when it runs, so a rebound handler is used."""
    ap = argparse.ArgumentParser(prog="polyapprox")
    ap.add_argument("--prec", type=_precision, default=DEFAULT_PREC)
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("construct")
    c.add_argument("--target", required=True, choices=list(TARGETS))
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", type=int, default=0)
    c.add_argument("--r", type=int, default=0)
    c.add_argument("--eps", default="1/3")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default=None)

    v = sub.add_parser("verify")
    v.add_argument("artifact")

    o = sub.add_parser("oracle")
    o.add_argument("--nodes", required=True)
    o.add_argument("--values", required=True)
    o.add_argument("--degree", type=int, required=True)
    o.add_argument("--out", default=None)

    b = sub.add_parser("bounds")
    what = b.add_mutually_exclusive_group(required=True)
    what.add_argument("--family", choices=list(FAMILIES))
    what.add_argument("--sweep", action="store_true")
    b.add_argument("--n", type=int, default=0)
    b.add_argument("--k", type=int, default=0)
    b.add_argument("--r", type=int, default=0)
    b.add_argument("--delta", type=float, default=1.0)

    t = sub.add_parser("table")
    t.add_argument("--out", default=None)

    sub.add_parser("selftest")
    return ap


def main(argv=None):
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return globals()["cmd_" + args.cmd](args)
    except PrecisionError as exc:
        print("rejected: %s" % exc, file=sys.stderr)
        return 4
    except (ValueError, OSError, KeyError, OverflowError) as exc:
        print("invalid configuration: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
