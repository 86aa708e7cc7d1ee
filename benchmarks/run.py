"""polyapprox benchmark driver (stdlib only).

    python3 benchmarks/run.py --workload float-sweep --seed 1 --seconds 42 --trace 0

Run from the root of a source checkout.  Each pass of the workload runs in a
fresh ``python3 benchmarks/session.py`` process against ``src/``; passes
repeat for ``--seconds`` (at least three passes), two at a time on a machine
with two or more CPUs, each pinned to its own CPU.  Each timing is the sum
over program calls of the call's fastest time across passes; every other
metric is the median over passes.  ``--trace 1`` instead runs one untraced
pass, one traced pass and the tracer completeness check, and reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
# Passes of a timed run go two at a time, each pinned to its own CPU.  The
# two CPUs of a shared VM slow down independently of each other, and two
# pinned passes do not slow each other down, so this doubles the samples of
# each call that the fastest-time estimate picks from.
PARALLEL = 2
DEADLINE_S = 165        # every pass must end by then; the contract allows 180

# End-to-end metrics reported in the JSON result, with units.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("artifact_bytes", "count"), ("degree_sum", "count"))
# Printed but not in the JSON result: each is 0 on some workload.  fail_ratio
# is printed too; the result carries it as attempted/failed.
SPLITS = (("construct_s", "s"), ("verify_s", "s"), ("oracle_s", "s"))


class BenchError(Exception):
    pass


def _git_commit(root):
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return "none (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(root, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown"


def _source_digest(root):
    sha = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                sha.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    sha.update(fh.read())
    return sha.hexdigest()


def _start_session(root, workload, seed, mode, cpu=None):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "session.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    return proc, start


def run_sessions(root, workload, seed, mode, deadline, cpus=(None,)):
    """Run one pass per entry of ``cpus`` at the same time, each in a fresh
    process pinned to that CPU (None: not pinned).  Returns their JSON
    results with ``setup_s`` (process start to first operation ready) added.
    Every process has ended when this returns or raises."""
    started, outputs = [], []
    try:
        for cpu in cpus:
            started.append(_start_session(root, workload, seed, mode, cpu))
        for proc, start in started:
            try:
                out, err = proc.communicate(
                    timeout=max(1.0, deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                raise BenchError("%s pass did not finish before the deadline"
                                 % mode)
            outputs.append((proc.returncode, out, err, start,
                            time.perf_counter()))
    finally:
        for proc, _ in started:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    results = []
    for returncode, out, err, start, end in outputs:
        lines = out.strip().splitlines()
        if returncode != 0 or not lines:
            raise BenchError("%s pass exited %d: %s"
                             % (mode, returncode, err.strip()[-2000:]))
        res = json.loads(lines[-1])
        res["setup_s"] = res["ready_t"] - start
        res["elapsed_s"] = end - start
        results.append(res)
    return results


def run_session(root, workload, seed, mode, deadline):
    return run_sessions(root, workload, seed, mode, deadline)[0]


def call_seconds(passes):
    """Seconds per category (construct, verify, oracle), each the sum over
    program calls of that call's fastest time across passes: outside load
    only ever adds time."""
    keys = [t[:2] for t in passes[0]["timings"]]
    if any([t[:2] for t in p["timings"]] != keys for p in passes):
        raise BenchError("passes made different program calls")
    out = {"construct": 0.0, "verify": 0.0, "oracle": 0.0}
    for i, (_, category) in enumerate(keys):
        out[category] += min(p["timings"][i][2] for p in passes)
    return out


def timed_run(root, args, deadline):
    """Rounds of passes until the next round would end after ``--seconds``
    (at least MIN_PASSES passes, as long as they end before the deadline).
    A round runs one pass on each of up to PARALLEL CPUs at once."""
    cpus = sorted(os.sched_getaffinity(0))[:PARALLEL]
    if len(cpus) < 2:
        cpus = [None]
    passes = []
    rounds = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        mean = elapsed / rounds if rounds else 0.0
        longest = max((p["elapsed_s"] for p in passes), default=0.0)
        if passes and time.perf_counter() + 1.5 * longest > deadline:
            break
        if len(passes) >= MIN_PASSES and elapsed + mean > args.seconds:
            break
        passes += run_sessions(root, args.workload, args.seed, "plain",
                               deadline, cpus)
        rounds += 1
    return passes


def _stamp(root, args, first):
    print("env commit=%s src_sha256=%s python=%s mpmath_backend=%s nproc=%s "
          "seed=%d workload=%s"
          % (_git_commit(root), _source_digest(root)[:16], first["python"],
             first["mpmath_backend"], os.cpu_count(), args.seed, args.workload))


def _digests_agree(passes):
    digests = {p["digest"] for p in passes}
    for p in passes:
        for why in p["failures"]:
            print("FAILED %s" % why)
    print("artifact_sha256 %s" % passes[0]["digest"])
    if len(digests) > 1:
        print("FAILED artifact digests differ between passes: %s"
              % sorted(digests))
    return len(digests) == 1


def report_timed(root, args, passes):
    _stamp(root, args, passes[0])
    ok = _digests_agree(passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    split = call_seconds(passes)
    values = {"wall_s": sum(split.values())}
    values.update(("%s_s" % c, s) for c, s in split.items())
    for name in ("setup_s", "peak_rss_mb", "artifact_bytes", "degree_sum"):
        values[name] = statistics.median(p[name] for p in passes)
    print("passes %d" % len(passes))
    metrics = {}
    for name, unit in END_TO_END + SPLITS:
        print("metric %s %.6g %s" % (name, values[name], unit))
        if (name, unit) in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    print("metric fail_ratio %.6g ratio (%d of %d operations)"
          % (failed / attempted, failed, attempted))
    return {"correct": ok and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def traced_run(root, args, deadline):
    plain = run_session(root, args.workload, args.seed, "plain", deadline)
    traced = run_session(root, args.workload, args.seed, "traced", deadline)
    check = run_session(root, args.workload, args.seed, "check", deadline)
    _stamp(root, args, plain)
    ok = _digests_agree([plain, traced])
    print("tracer-check %d functions compared against cProfile on %d operations"
          % (check["check_compared"], check["attempted"]))
    for problem in check["check_problems"]:
        print("FAILED tracer-check %s" % problem)
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = (sum(call_seconds([traced]).values())
                                      / sum(call_seconds([plain]).values()))
    metrics = {}
    for name, unit in PER_LAYER:
        print("layer %s %.6g %s" % (name, layers[name], unit))
        metrics[name] = {"value": layers[name], "unit": unit}
    runs = (plain, traced, check)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    ok = ok and not check["check_problems"] and failed == 0
    return {"correct": ok, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "polyapprox", "__init__.py")):
        print("benchmark: no polyapprox source under %s/src; run from the root "
              "of a source checkout" % root, file=sys.stderr)
        return 2
    try:
        if args.trace:
            result = traced_run(root, args, deadline)
        else:
            result = report_timed(root, args, timed_run(root, args, deadline))
    except BenchError as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
