import hashlib
import json
import os

from mpmath import mp
import pytest

from polyapprox.cli import main


def run(argv):
    return main(argv)


def test_invalid_arguments_exit_2(capsys):
    assert run(["construct", "--target", "nope", "--n", "4"]) == 2
    assert run(["bogus"]) == 2
    capsys.readouterr()


def test_invalid_configuration_exit_2(tmp_path, capsys):
    # or-continuous needs n > 2, surfaced as a configuration error
    out = tmp_path / "x.json"
    rc = run(["construct", "--target", "exact", "--n", "4", "--k", "6",
              "--out", str(out)])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("target", ["and", "or", "exact", "sampling",
                                    "small-support", "surjectivity"])
@pytest.mark.parametrize("eps", ["0", "-1/3"])
def test_non_positive_eps_exits_2(target, eps, tmp_path, capsys):
    out = tmp_path / "x.json"
    rc = run(["construct", "--target", target, "--n", "8", "--k", "1",
              "--r", "2", "--eps=" + eps, "--out", str(out)])
    assert rc == 2
    assert "--eps must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_zero_denominator_eps_exits_2(capsys):
    assert run(["construct", "--target", "and", "--n", "8",
                "--eps", "1/0"]) == 2
    assert "zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize("r_flag", [[], ["--r", "0"], ["--r", "-1"]])
def test_surjectivity_without_columns_exits_2(r_flag, tmp_path, capsys):
    out = tmp_path / "s.json"
    rc = run(["construct", "--target", "surjectivity", "--n", "8"] + r_flag
             + ["--out", str(out)])
    assert rc == 2
    assert "need r >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_construct_verify_round_trips(tmp_path, capsys):
    cases = [
        ["construct", "--target", "and", "--n", "12"],
        ["construct", "--target", "or", "--n", "12"],
        ["construct", "--target", "exact", "--n", "12", "--k", "2",
         "--eps", "1/8"],
        ["construct", "--target", "sampling", "--n", "16", "--k", "1",
         "--seed", "5"],
        ["construct", "--target", "small-support", "--n", "16", "--k", "2",
         "--eps", "1/8", "--seed", "5"],
        ["construct", "--target", "surjectivity", "--n", "8", "--r", "2"],
    ]
    for i, argv in enumerate(cases):
        out = tmp_path / ("a%d.json" % i)
        assert run(argv + ["--out", str(out)]) == 0, argv
        assert run(["verify", str(out)]) == 0, argv
    capsys.readouterr()


def test_verify_detects_tampering(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert run(["construct", "--target", "surjectivity", "--n", "8", "--r",
                "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert float(doc["certified_eps"]) > 0
    doc["certified_eps"] = 1e-30
    doc.pop("certified_eps_exact", None)
    out.write_text(json.dumps(doc))
    assert run(["verify", str(out)]) == 3
    capsys.readouterr()


def test_construct_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["construct", "--target", "sampling", "--n", "16", "--k", "2",
            "--seed", "9"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_oracle_subcommand(tmp_path, capsys):
    out = tmp_path / "o.json"
    rc = run(["oracle", "--nodes", "0,1,2", "--values", "0,1,1",
              "--degree", "1", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["eps_star"] == "1/4"


def test_bounds_sweep_and_table(tmp_path, capsys):
    assert run(["bounds", "--sweep"]) == 0
    text = capsys.readouterr().out
    assert "violations: 0" in text
    out = tmp_path / "t.csv"
    assert run(["table", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("family,")
    assert len(lines) > 1


def test_selftest_passes(capsys):
    assert run(["selftest"]) == 0
    text = capsys.readouterr().out
    assert "FAIL" not in text


GOLDEN_SHAPES = [("sampling", 16, 1, 11), ("sampling", 16, 2, 9),
                 ("sampling", 16, 3, 5), ("sampling", 32, 1, 11),
                 ("small-support", 32, 2, 9), ("small-support", 32, 2, 10)]
GOLDEN_SHA256 = "f8ca9b1ee38faa8a6ef588f63ec7ce336f981f239b6a0e06a86c31ab27048f59"


def test_construct_golden_artifact_bytes(tmp_path, capsys):
    # Pins the artifact bytes of the sampling and small-support targets, so
    # a change to exact evaluation or to the blocks must leave every
    # serialized coefficient and certified error unchanged.
    digest = hashlib.sha256()
    for i, (target, n, k, seed) in enumerate(GOLDEN_SHAPES):
        out = tmp_path / ("g%d.json" % i)
        assert run(["construct", "--target", target, "--n", str(n), "--k",
                    str(k), "--seed", str(seed), "--eps", "1/8",
                    "--out", str(out)]) == 0, (target, n, k, seed)
        digest.update(out.read_bytes())
    capsys.readouterr()
    assert digest.hexdigest() == GOLDEN_SHA256


FLOAT_GOLDEN_SHAPES = [
    ["--target", "and", "--n", "16"],
    ["--target", "and", "--n", "32"],
    ["--target", "or", "--n", "24"],
    ["--target", "exact", "--n", "20", "--k", "2", "--eps", "1/8"],
    ["--target", "surjectivity", "--n", "8", "--r", "2"],
    ["--target", "surjectivity", "--n", "12", "--r", "3", "--eps", "1/16"],
]
FLOAT_GOLDEN_SHA256 = \
    "c7d0d0e7144a954a96cc3573aaec409dddb44839f4bcd5be0dc17f4c1e0c0c2f"


def test_construct_golden_float_artifact_bytes(tmp_path, capsys):
    # Pins the artifact bytes of the float targets: the and/or degree search,
    # the exact-weight and restricted-disjunction builds, and the
    # surjectivity outer polynomial and conjunction search.
    digest = hashlib.sha256()
    for i, shape in enumerate(FLOAT_GOLDEN_SHAPES):
        out = tmp_path / ("f%d.json" % i)
        assert run(["construct"] + shape + ["--out", str(out)]) == 0, shape
        digest.update(out.read_bytes())
    capsys.readouterr()
    assert digest.hexdigest() == FLOAT_GOLDEN_SHA256


SURJ_GOLDEN_SHA256 = \
    "7195775bf33ca0c467a7f43c2e44a08382daa5b3337094a383e65a632bc4d9d4"


def test_construct_golden_surjectivity_16_4_bytes(tmp_path, capsys):
    # Four columns share one conjunction polynomial; building it once must
    # leave the artifact identical to building it for each subset size.
    out = tmp_path / "s.json"
    assert run(["construct", "--target", "surjectivity", "--n", "16", "--r",
                "4", "--eps", "1/3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SURJ_GOLDEN_SHA256


PREC_GOLDEN_SHAPES = [
    ["--target", "and", "--n", "24", "--eps", "1/16"],
    ["--target", "or", "--n", "24", "--eps", "1/16"],
    ["--target", "exact", "--n", "20", "--k", "2", "--eps", "1/16"],
    ["--target", "surjectivity", "--n", "10", "--r", "2", "--eps", "1/16"],
    ["--target", "surjectivity", "--n", "12", "--r", "2", "--eps", "1/4"],
]
# The (12, 2) eps-1/4 surjectivity artifacts carry float conjunction
# polynomials, q = 1 - OR, at the full working precision; these are the only
# bytes here that depend on float UniPoly negation staying inside the
# working precision (FLOAT_GOLDEN_SHA256 and the other shapes do not).
PREC_GOLDEN_SHA256 = \
    "7f723220b75e7a3cc0fae893f1bfbff90ef5c686bcf4ebfeaef80b07b15ff956"


def _prec_golden_digest(tmp_path):
    digest = hashlib.sha256()
    for prec in ("128", "512"):
        for i, shape in enumerate(PREC_GOLDEN_SHAPES):
            out = tmp_path / ("p%s_%d.json" % (prec, i))
            assert run(["--prec", prec, "construct"] + shape
                       + ["--out", str(out)]) == 0, (prec, shape)
            digest.update(out.read_bytes())
    return digest.hexdigest()


def test_construct_golden_float_artifact_bytes_at_128_and_512_bits(
        tmp_path, capsys):
    # Pins the float targets at working precisions other than the default,
    # so a change to how --prec reaches the build or the doubled-precision
    # measure must leave every serialized coefficient unchanged.
    digest = _prec_golden_digest(tmp_path)
    capsys.readouterr()
    assert digest == PREC_GOLDEN_SHA256


@pytest.mark.parametrize("ambient", [24, 1024])
def test_float_artifact_bytes_ignore_the_ambient_precision(
        ambient, tmp_path, capsys):
    # --prec alone sets the working precision: a caller's mpmath context,
    # coarser or finer, must not reach a single serialized bit.
    with mp.workprec(ambient):
        digest = _prec_golden_digest(tmp_path)
    capsys.readouterr()
    assert digest == PREC_GOLDEN_SHA256
