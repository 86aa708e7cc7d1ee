"""One pass of a workload in a fresh Python process: a closed loop with one
caller that runs every operation in order and checks every result.

    PYTHONPATH=src python3 benchmarks/session.py --workload exact-batch \\
        --seed 1 --mode plain

Modes: ``plain`` (no tracer), ``traced`` (per-layer spans) and
``check`` (only the operations marked ``check``, traced and under cProfile,
to prove the tracer misses no call).  The last line of standard output is a
JSON object; ``run.py`` starts this script and reads it.  Caches persist
across the operations of a pass, as in one user session.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from fractions import Fraction

from workloads import WORKLOADS, make_ops


def exact_scalar(s):
    """A serialized scalar ("a/b" or mpf hex "[-]0x<man>p<exp>") as an exact
    Fraction."""
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    neg = s.startswith("-")
    man, exp = s.lstrip("-")[2:].split("p")
    value = Fraction(int(man, 16)) * Fraction(2) ** int(exp)
    return -value if neg else value


def _horner(coeffs, t):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def artifact_degree(doc):
    """The certified degree of a construct artifact."""
    if "degree" in doc:
        return doc["degree"]
    return max((len(t["q"]["coeffs"]) - 1 for t in doc["terms"] if t["q"]),
               default=0)


def certificate_problem(nodes, values, degree, doc):
    """None when the serialized minimax result ``doc`` carries a valid
    certificate: its exact max error over the nodes equals eps_star, and
    degree+2 ordered nodes reach +-eps_star with alternating sign."""
    if doc.get("backend") != "rational":
        return "result is not exact rational"
    eps = exact_scalar(doc["eps_star"])
    coeffs = [exact_scalar(c) for c in doc["coeffs"]]
    if len(coeffs) > degree + 1:
        return "degree %d above %d" % (len(coeffs) - 1, degree)
    errs = [_horner(coeffs, t) - f for t, f in zip(nodes, values)]
    worst = max(abs(e) for e in errs)
    if worst != eps:
        return "max error %s differs from eps_star %s" % (worst, eps)
    if eps == 0:
        return None
    signs = [e > 0 for _, e in sorted(zip(nodes, errs)) if abs(e) == eps]
    alternation = 1 + sum(a != b for a, b in zip(signs, signs[1:]))
    if alternation < degree + 2:
        return "%d alternation points, need %d" % (alternation, degree + 2)
    return None


class PassRecord:
    def __init__(self):
        self.timings = []        # (operation key, category, seconds) per program call
        self.artifact_bytes = self.degree_sum = 0
        self.attempted = self.failed = 0
        self.failures = []
        self._sha = hashlib.sha256()

    def timed(self, key, category, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.timings.append((key, category, time.perf_counter() - start))

    def artifact(self, data):
        self._sha.update(data)
        self.artifact_bytes += len(data)

    def attempt(self, label, fn):
        """Run one operation; ``fn`` returns None or why it failed."""
        self.attempted += 1
        try:
            why = fn()
        except Exception as exc:  # a raising operation fails; the pass goes on
            why = "raised " + "".join(
                traceback.format_exception_only(type(exc), exc)).strip()
        if why:
            self.failed += 1
            self.failures.append("%s: %s" % (label, why))
        return why

    def to_json(self):
        return {"timings": self.timings, "artifact_bytes": self.artifact_bytes,
                "degree_sum": self.degree_sum, "digest": self._sha.hexdigest(),
                "attempted": self.attempted, "failed": self.failed,
                "failures": self.failures[:20]}


def _run_cli(rec, key, category, argv):
    from polyapprox import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = rec.timed(key, category, cli.main, argv)
    return rc, out.getvalue(), err.getvalue()


def _construct_verify(op, key, path, rec, tamper):
    rc, _, err = _run_cli(rec, key, "construct", op["argv"] + ["--out", path])
    if rc != 0:
        return "construct exited %d: %s" % (rc, err.strip()[-300:])
    with open(path, "rb") as fh:
        data = fh.read()
    rec.artifact(data)
    doc = json.loads(data)
    claimed = exact_scalar(doc["certified_eps_exact"])
    if claimed > op["eps"]:
        return "certified eps %s above requested %s" % (float(claimed), op["eps"])
    rec.degree_sum += artifact_degree(doc)
    if tamper is not None:
        tamper(path)
    rc, out, err = _run_cli(rec, key, "verify",
                            ["--prec", str(op["prec"]), "verify", path])
    if rc != 0 or out.strip() != "OK":
        return "verify exited %d: %s" % (rc, (out + err).strip()[-300:])
    return None


def _solve(key, nodes, values, degree, rec):
    from polyapprox import oracle
    res = rec.timed(key, "oracle", oracle.minimax_lp, nodes, values, degree)
    data = json.dumps(res.to_json(), sort_keys=True).encode()
    rec.artifact(data)
    doc = json.loads(data)
    return doc, certificate_problem(nodes, values, degree, doc)


def _ladder(op, key, rec):
    """Minimum-degree search; each probe is one attempted operation."""
    for d in range(len(op["nodes"])):
        found = []

        def probe():
            doc, problem = _solve("%s d=%d" % (key, d), op["nodes"],
                                  op["values"], d, rec)
            found.append(exact_scalar(doc["eps_star"]) <= op["eps"])
            return problem

        if rec.attempt("%s d=%d" % (op["label"], d), probe) is None and found[0]:
            rec.degree_sum += d
            return
    rec.attempt(op["label"], lambda: "no degree reached eps %s" % op["eps"])


def run_pass(ops, workdir, tracer=None, tamper=None):
    """Run ``ops`` in order, checking each result.  ``tamper(path)``, when
    given, rewrites each artifact between construct and verify."""
    rec = PassRecord()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        key = "%d %s" % (i, op["label"])
        if op["kind"] == "cli":
            path = os.path.join(workdir, "op%03d.json" % i)
            rec.attempt(op["label"],
                        lambda: _construct_verify(op, key, path, rec, tamper))
        elif op["kind"] == "solve":
            rec.attempt(op["label"], lambda: _solve(
                key, op["nodes"], op["values"], op["degree"], rec)[1])
            rec.degree_sum += op["degree"]
        else:
            _ladder(op, key, rec)
    return rec


def _import_program(root):
    import mpmath
    import polyapprox
    src = os.path.join(root, "src")
    if os.path.commonpath([os.path.abspath(polyapprox.__file__), src]) != src:
        raise SystemExit("polyapprox imported from %s, not from %s"
                         % (polyapprox.__file__, src))
    from polyapprox import cli, oracle  # noqa: F401  (import cost is set-up)
    return mpmath.libmp.BACKEND


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "traced", "check"),
                    default="plain")
    ap.add_argument("--cpu", type=int, help="pin the pass to this CPU")
    args = ap.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    root = os.getcwd()
    backend = _import_program(root)
    tracer = None
    if args.mode != "plain":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ops = make_ops(args.workload, args.seed)
    if args.mode == "check":
        ops = [op for op in ops if op["check"]]
    ready = time.perf_counter()
    work_root = os.path.join(root, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    out = {"ready_t": ready, "python": sys.version.split()[0],
           "mpmath_backend": backend}
    try:
        if args.mode == "check":
            recs = []
            compared, problems = tracer.profile_check(
                lambda: recs.append(run_pass(ops, workdir, tracer)))
            rec = recs[0]
            out.update(check_compared=compared, check_problems=problems)
        else:
            rec = run_pass(ops, workdir, tracer)
            if tracer is not None:
                out["layers"] = tracer.layer_metrics()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out.update(rec.to_json())
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
