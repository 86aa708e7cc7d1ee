"""Checks that the benchmark's correctness gate and tracer are not vacuous.

    python3 -m pytest benchmarks/test_gate.py -q

Run from the repository root.  It is outside the package's ``testpaths``,
so the package's own test run does not collect it.
"""

import json
import os
import shutil
import sys
import tempfile
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import session  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import make_ops  # noqa: E402


@pytest.fixture
def workdir():
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(dir=base)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _op(label):
    ops = {op["label"]: op for wl in ("float-sweep", "exact-batch")
           for op in make_ops(wl, 1)}
    return ops[label]


def _first_coeffs(node):
    if isinstance(node, dict):
        if node.get("coeffs"):
            return node["coeffs"]
        node = [node[k] for k in sorted(node)]
    if isinstance(node, list):
        for child in node:
            found = _first_coeffs(child)
            if found:
                return found
    return None


def _plus_one(s):
    v = session.exact_scalar(s) + 1
    if "/" in s:
        return "%d/%d" % (v.numerator, v.denominator)
    shift = v.denominator.bit_length() - 1      # denominator is a power of 2
    return "%s0x%xp%d" % ("-" if v < 0 else "", abs(v.numerator), -shift)


def bump_first_coefficient(path):
    """Add 1 to the first serialized coefficient of an artifact."""
    with open(path) as fh:
        doc = json.load(fh)
    coeffs = _first_coeffs(doc)
    coeffs[0] = _plus_one(coeffs[0])
    with open(path, "w") as fh:
        json.dump(doc, fh)


@pytest.mark.parametrize("label", ["and n=16 eps=1/3 prec=256",
                                   "sampling n=16 k=1 eps=1/8 prec=256"])
def test_tampered_coefficient_is_a_failed_op(workdir, label):
    op = _op(label)
    clean = session.run_pass([op], workdir)
    assert (clean.attempted, clean.failed) == (1, 0), clean.failures
    tampered = session.run_pass([op], workdir, tamper=bump_first_coefficient)
    assert (tampered.attempted, tampered.failed) == (1, 1)
    assert "verify exited 3" in tampered.failures[0]


def test_claim_above_requested_eps_is_a_failed_op(workdir):
    op = dict(_op("and n=16 eps=1/3 prec=256"), eps=Fraction(1, 100))
    rec = session.run_pass([op], workdir)
    assert rec.failed == 1 and "above requested" in rec.failures[0]


def test_certificate_check():
    from polyapprox.oracle import minimax_lp
    nodes = list(range(9))
    values = [Fraction(0)] * 8 + [Fraction(1)]
    doc = minimax_lp(nodes, values, 2).to_json()
    assert session.certificate_problem(nodes, values, 2, doc) is None
    assert session.certificate_problem(
        nodes, values, 2, dict(doc, eps_star="1/3")) is not None
    bumped = dict(doc, coeffs=[_plus_one(doc["coeffs"][0])] + doc["coeffs"][1:])
    assert session.certificate_problem(nodes, values, 2, bumped) is not None
    # an interpolating result has zero error and needs no alternation
    exact = minimax_lp(nodes[:3], values[:3], 2).to_json()
    assert session.certificate_problem(nodes[:3], values[:3], 2, exact) is None


def test_profile_check_catches_a_missed_binding():
    from polyapprox import composed, numcore
    original = numcore.recheck
    tracer = Tracer()
    tracer.install()
    compared, problems = tracer.profile_check(
        lambda: composed.surjectivity_approx(8, 2))
    assert compared > 0 and problems == []
    composed.recheck = original          # a binding the tracer did not patch
    _, problems = tracer.profile_check(
        lambda: composed.surjectivity_approx(8, 2))
    assert any(p.startswith("recheck:") for p in problems)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
