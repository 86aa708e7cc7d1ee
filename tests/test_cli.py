from fractions import Fraction
import hashlib
import json
from types import SimpleNamespace

from mpmath import mp
import pytest

from polyapprox import cli, symmetric
from polyapprox.cli import main
from polyapprox.extension import extend_approx
from polyapprox.numcore import scalar_from_json
from polyapprox.oracle import minimax_lp
from polyapprox.symmetric import SymApprox, SymSpec, sampling_approx


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


@pytest.mark.parametrize("prec", ["0", "-5"])
def test_non_positive_prec_exits_2(prec, tmp_path, capsys):
    # A float needs at least one significant bit to round to.
    out = tmp_path / "x.json"
    rc = run(["--prec", prec, "construct", "--target", "and", "--n", "8",
              "--out", str(out)])
    assert rc == 2
    assert "--prec: must be at least 1" in capsys.readouterr().err
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


@pytest.mark.parametrize("target", ["sampling", "small-support"])
@pytest.mark.parametrize("k", ["-1", "9"])
def test_k_outside_0_to_n_exits_2(target, k, tmp_path, capsys):
    # --k -1 wrote a zero spectrum of degree -1 with exit 0, and --k 9 on
    # 8 rows was reported as a wrong count of weight values
    out = tmp_path / "x.json"
    rc = run(["construct", "--target", target, "--n", "8", "--k", k,
              "--out", str(out)])
    assert rc == 2
    assert "--k must lie in 0..8, got " + k in capsys.readouterr().err
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


def test_surjectivity_with_a_float_outer_constructs_and_verifies(tmp_path,
                                                                 capsys):
    # At eps 1/2 and r = 6 the outer polynomial is the damped AND, built in
    # floats; every pinned surjectivity shape has a rational outer.  The
    # exact finite differences above its degree, 3, vanish.
    out = tmp_path / "s.json"
    assert run(["construct", "--target", "surjectivity", "--n", "8", "--r",
                "6", "--eps", "1/2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["verify", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "OK"
    doc = json.loads(out.read_text())
    assert [t["ell"] for t in doc["terms"]] == [0, 1, 2, 3]
    assert not any("/" in t["mu"] for t in doc["terms"])    # hex, rounded once
    assert doc["certified_eps"] <= 0.5


def test_verify_detects_tampering(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert run(["construct", "--target", "surjectivity", "--n", "8", "--r",
                "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert float(doc["certified_eps"]) > 0
    doc["certified_eps_exact"] = "1/" + "1" + "0" * 30
    out.write_text(json.dumps(doc))
    assert run(["verify", str(out)]) == 3
    capsys.readouterr()


def _wrap_q_in_a_product(doc):
    doc["q"] = {"kind": "prod", "parts": [doc["q"]]}


def _drop_two_values(doc):
    del doc["values"][-2:]


def _unknown_backend(doc):
    doc["backend"] = "decimal"


def _rational_coefficient_in_a_float_poly(doc):
    doc["coeffs"][0] = "1/3"


def _string_n(doc):
    doc["n"] = "8"


def _numeric_values(doc):
    doc["values"] = [0] * len(doc["values"])


def _numeric_coefficient(doc):
    doc["coeffs"][0] = 0


def _string_precision(doc):
    doc["precision_bits"] = "256"


def _string_r(doc):
    doc["r"] = "2"


def _numeric_mu(doc):
    doc["terms"][0]["mu"] = 0


def _numeric_exact_claim(doc):
    doc["certified_eps_exact"] = 0


def _negative_power(doc):
    # 1/(2 + w) is no polynomial, though its error is within the raised claim
    doc.update({"kind": "pow", "k": -1, "certified_eps_exact": "1/1",
                "base": {"backend": "rational", "coeffs": ["2/1", "1/1"]}})


def _zero_denominator_claim(doc):
    doc["certified_eps_exact"] = "1/0"


def _zero_denominator_coefficient(doc):
    doc["coeffs"][0] = "1/0"


def _zero_denominator_mu(doc):
    doc["terms"][0]["mu"] = "1/0"


def _no_precision(doc):
    del doc["precision_bits"]


def _binom_tail(**fields):
    # A binomial tail node with one field the tail cannot be evaluated with;
    # the degree and the claim are ones the node would otherwise meet.
    def tamper(doc):
        doc.update({"kind": "binom_tail", "d": 4, "lo": 0, "degree": 4,
                    "certified_eps_exact": "1/1"}, **fields)
    return tamper


def _tail_inside_a_composition(doc):
    # A composition's inner must be a dense polynomial, evaluated exactly
    # once per point; a binomial tail there is rejected.  The degree claim
    # is the node's.
    poly = {k: doc[k] for k in ("backend", "coeffs", "precision_bits")}
    doc.update({"kind": "comp", "outer": poly,
                "inner": {"kind": "binom_tail", "d": 4, "lo": 2},
                "degree": 4 * doc["degree"], "certified_eps_exact": "1/1"})


def _over_precise_coefficient(doc):
    # construct --prec 64 --target and --n 16, then 40 low bits appended to
    # a coefficient: rounded to 64 bits on reading, it was the built
    # polynomial again, and verify printed OK.
    doc.clear()
    doc.update(symmetric.and_or_min_degree(16, "and", Fraction(1, 3),
                                           64).to_json())
    assert doc["coeffs"][2] == "-0xb304d071ecf2bb67p-70"
    doc["coeffs"][2] = "-0xb304d071ecf2bb670000000001p-110"


def _boolean_precision(doc):
    # read as 1 bit, the claim failed to hold (exit 3)
    doc["precision_bits"] = True


def _hex_without_0x(doc):
    # read as 0xffp-8 with its first two characters dropped unread
    doc["coeffs"][0] = "12ffp-8"


def _exact_on_string(doc):
    # read as the set of its characters, verify printed OK
    doc["exact_on"] = "xyz"


def _exact_on_bool(doc):
    doc["exact_on"] = True


def _exact_on_fraction(doc):
    doc["exact_on"] = [0.5]


def _exact_on_out_of_range(doc):
    doc["exact_on"] = [doc["n"] + 1]


def _exact_on_repeated(doc):
    doc["exact_on"] = [0, 0]


def _set(field, value):
    def tamper(doc):
        doc[field] = value
    return tamper


def _as_an_object(field):
    # a JSON object where an array belongs was read as the list of its keys
    def tamper(doc):
        doc[field] = dict.fromkeys(doc[field], 0)
    return tamper


def _inner_coefficients_as_an_object(doc):
    poly = doc["inner"]
    poly["coeffs"] = dict.fromkeys(poly["coeffs"], 0)


def _set_last_ell(value):
    def tamper(doc):
        doc["terms"][-1]["ell"] = value(doc["r"])
    return tamper


def _empty_spectrum(doc):
    # n = -1 with no weight: the measure ran over no weight and read 0
    doc.update({"n": -1, "values": [], "exact_on": []})


def _spell_first_value(spelling):
    # weight 0's value, 0, in a spelling the writer never writes; int()
    # read each side of the "/" and accepted it
    def tamper(doc):
        doc["values"][0] = spelling
    return tamper


def _arabic_indic_last_value(doc):
    doc["values"][-1] = "\u0661/\u0661"


def _spaced_exact_claim(doc):
    num, den = doc["certified_eps_exact"].split("/")
    doc["certified_eps_exact"] = " +%s/ %s" % (num, den)


def _plus_mu(doc):
    doc["terms"][0]["mu"] = "+" + doc["terms"][0]["mu"]


def _mixed_hex_and_decimal_mu(doc):
    num, den = doc["terms"][0]["mu"].split("/")
    doc["terms"][0]["mu"] = "%#x/%s" % (int(num), den)


def _claim_past_every_float(doc):
    # no float holds it, so construct could not have written it
    doc["certified_eps_exact"] = "1" + "0" * 400 + "/1"


def _number_in_a_product(doc):
    # a child that is no JSON object ended in an AttributeError (exit 1)
    doc.update({"kind": "prod", "parts": [5], "certified_eps_exact": "1/1"})


def _number_as_an_outer(doc):
    poly = {k: doc[k] for k in ("backend", "coeffs", "precision_bits")}
    doc.update({"kind": "comp", "outer": 5, "inner": poly,
                "certified_eps_exact": "1/1"})


def _unrecognized_target(doc):
    doc["target"] = "cube"


def _dense_node(doc):
    # a dense child in the wrapper older artifacts wrote it in
    doc["inner"] = {"kind": "dense", "poly": doc["inner"]}


def _no_target(doc):
    # a surjectivity artifact written before it named its target
    del doc["target"]


def _surjectivity_on_4000_rows(doc):
    # (8, 2) edited to (4000, 2): 4 004 001 weight vectors, and verify took
    # 17.8 s to measure them
    doc["n"] = 4000


def _surjectivity_with_20_of_40_columns(doc):
    # C(40, 20) column subsets at each of 67 vectors: no memory holds them
    doc["r"] = 40
    doc["terms"][-1]["ell"] = 20


def _hex_coefficient_in_an_exact_poly(doc):
    assert doc["backend"] == "rational"
    doc["coeffs"][0] = "0x1p-1"


def _set_coefficients(*spellings):
    # hex exponents past MAX_EXP, or spread over more than it: each was
    # shifted into an integer of that many bits before anything read it
    def tamper(doc):
        assert doc["backend"] == "float"
        doc["coeffs"][:len(spellings)] = spellings
    return tamper


def _rational_coefficients_over_300_denominators(doc):
    # 300 odd 1000-bit denominators, coprime but for small common factors:
    # over their lcm the numerators take about 9 10^7 bits, and verify took
    # 8.3 s to build and measure them
    assert doc["backend"] == "rational"
    doc["coeffs"] = ["0x1/%#x" % ((1 << 999) + 2 * i + 1) for i in range(300)]


# The message of each tamper that must be rejected for its own reason, and
# not for a node spelling around it.
REASONS = {
    _negative_power: "unknown structured polynomial kind 'pow'",
    _tail_inside_a_composition: "a composition's inner must be dense",
    _number_as_an_outer: "a polynomial node is not a JSON object: 5",
    _inner_coefficients_as_an_object: "coeffs is not a JSON array",
    _dense_node: "unknown structured polynomial kind 'dense'",
    _no_target: "unrecognized artifact",
    _surjectivity_on_4000_rows: "more than 8388608 subset sums",
    _surjectivity_with_20_of_40_columns: "more than 8388608 subset sums",
    _rational_coefficients_over_300_denominators:
        "numerators of more than 4194304 bits",
}


AND_1 = ["--target", "and", "--n", "1"]
AND_4 = ["--target", "and", "--n", "4"]
AND_8 = ["--target", "and", "--n", "8"]
SURJ_8_2 = ["--target", "surjectivity", "--n", "8", "--r", "2"]
# 4k >= n: the exact interpolant, one dense rational polynomial
SAMPLING_8_2 = ["--target", "sampling", "--n", "8", "--k", "2", "--seed", "1"]
# 4k < n: the sampled-node composition, whose inner is dense
SAMPLING_16_1 = ["--target", "sampling", "--n", "16", "--k", "1", "--seed", "1"]


@pytest.mark.parametrize("argv, tamper", [
    (SURJ_8_2, _wrap_q_in_a_product),
    (AND_8, _drop_two_values),
    (AND_8, _unknown_backend),
    (AND_8, _rational_coefficient_in_a_float_poly),
    # well-formed JSON with a field of the wrong type
    (AND_8, _string_n),
    (AND_8, _numeric_values),
    (AND_8, _numeric_coefficient),
    (AND_8, _string_precision),
    (SURJ_8_2, _string_r),
    (SURJ_8_2, _numeric_mu),
    (AND_8, _numeric_exact_claim),
    (AND_4, _negative_power),
    (AND_4, _binom_tail(lo=-1)),
    (AND_4, _binom_tail(d=-1, degree=-1)),
    (AND_4, _binom_tail(d="4")),
    (AND_4, _binom_tail(lo=True)),
    (AND_8, _zero_denominator_claim),
    (AND_8, _zero_denominator_coefficient),
    (SURJ_8_2, _zero_denominator_mu),
    (AND_8, _no_precision),
    (AND_4, _tail_inside_a_composition),
    (AND_4, _over_precise_coefficient),
    (AND_8, _boolean_precision),
    (AND_8, _hex_without_0x),
    (AND_8, _exact_on_string),
    (AND_8, _exact_on_bool),
    (AND_8, _exact_on_fraction),
    (AND_8, _exact_on_out_of_range),
    (AND_8, _exact_on_repeated),
    # a boolean read as 1, where 1 is the true n and degree: verify said OK
    (AND_1, _set("n", True)),
    (AND_1, _set("degree", True)),
    (AND_8, _unrecognized_target),
    (SAMPLING_8_2, _hex_coefficient_in_an_exact_poly),
    # a surjectivity shape with no column weight vector measured 0, and
    # with r = 0 every term above ell = 0 sums over no column subset
    (SURJ_8_2, _set("r", 0)),
    (SURJ_8_2, _set("n", True)),
    (SURJ_8_2, _set("n", -1)),
    (SURJ_8_2, _set_last_ell(lambda r: r + 1)),
    (SURJ_8_2, _set_last_ell(lambda r: True)),
    (AND_4, _empty_spectrum),
    (AND_4, _number_in_a_product),
    (AND_4, _number_as_an_outer),
    # the readable certified_eps is no JSON float: verify printed OK
    (AND_4, _set("certified_eps", 5)),
    (AND_4, _set("certified_eps", -1)),
    (AND_4, _set("certified_eps", "x")),
    (AND_4, _set("certified_eps", None)),
    (AND_4, _set("certified_eps", [0.5])),
    (SURJ_8_2, _set("certified_eps", "0.25")),
    # scalar spellings the writer never writes, each read as the value
    (AND_4, _spell_first_value(" 0/1")),
    (AND_4, _spell_first_value("+0_0/1")),
    (AND_4, _spell_first_value("0/ 1")),
    (AND_4, _spell_first_value("0/-7")),
    (AND_4, _spell_first_value("0/1 ")),
    (AND_4, _spell_first_value("0X0/0X1")),
    (AND_4, _arabic_indic_last_value),
    (SAMPLING_8_2, _spaced_exact_claim),
    (SURJ_8_2, _plus_mu),
    (SURJ_8_2, _mixed_hex_and_decimal_mu),
    (AND_4, _claim_past_every_float),
    # hex exponents past numcore.MAX_EXP = 2^20
    (AND_4, _set("certified_eps_exact", "0x1p50000000")),
    (AND_4, _set("certified_eps_exact", "0x1p-100000000")),
    (AND_8, _set_coefficients("0x1p-1048577")),
    (AND_8, _set_coefficients("0x1p1048576", "0x1p-1")),
    # each exponent within MAX_EXP, but 400 numerators of 2^20 bits each
    # over the common denominator: 53 MB before numcore.MAX_BITS
    (AND_8, _set_coefficients("0x1p-1", *400 * ["0x1p1048575"])),
    # a label no construction writes: verify printed OK
    (AND_4, _set("construction", 5)),
    (AND_4, _set("construction", None)),
    (AND_4, _set("construction", [1])),
    (AND_4, _set("construction", "nonsense-label")),
    # each object's keys are the array it replaces: verify printed OK
    (SAMPLING_16_1, _inner_coefficients_as_an_object),
    (AND_4, _as_an_object("coeffs")),
    (AND_1, _as_an_object("values")),
    (SAMPLING_16_1, _dense_node),
    (SURJ_8_2, _no_target),
    (AND_4, _set("target", ["spectrum"])),
    (SURJ_8_2, _surjectivity_on_4000_rows),
    (SURJ_8_2, _surjectivity_with_20_of_40_columns),
    # claims surjectivity makes none of, each ignored: verify printed OK,
    # and exact_on [] is false, as (8, 2) is exact on 16 of 25 vectors
    (SURJ_8_2, _set("exact_on", [])),
    (SURJ_8_2, _set("construction", "interpolant")),
    # numcore.MAX_BITS on an exact polynomial's numerators over their lcm
    (SAMPLING_8_2, _rational_coefficients_over_300_denominators),
])
def test_verify_rejects_a_malformed_artifact_with_exit_2(argv, tamper,
                                                         tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run(["construct"] + argv + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    tamper(doc)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err
    assert REASONS.get(tamper, "") in err


@pytest.mark.parametrize("argv", [AND_4, SURJ_8_2])
def test_verify_rejects_a_readable_claim_that_is_not_the_exact_one(argv,
                                                                   tmp_path,
                                                                   capsys):
    # certified_eps is certified_eps_exact as a float; any other float is a
    # claim verify does not check, and the number a reader sees first
    out = tmp_path / "r.json"
    assert run(["construct"] + argv + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["certified_eps"] = 2 * doc["certified_eps"] + 1
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 3
    assert "FAIL: certified_eps" in capsys.readouterr().out


def test_verify_measures_a_surjectivity_artifact_with_5000_columns(
        tmp_path, capsys):
    # (0, 5000) has one weight vector, all zeros; enumerating it recursed
    # 5000 deep and ended in a RecursionError traceback (exit 1).
    out = tmp_path / "c.json"
    assert run(["construct"] + SURJ_8_2 + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc.update(n=0, r=5000, degree=0, terms=doc["terms"][:1])
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 3
    assert "FAIL: certified error" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [AND_4, SURJ_8_2])
def test_verify_rejects_a_wrong_degree_claim_with_exit_3(argv, tmp_path,
                                                         capsys):
    out = tmp_path / "d.json"
    assert run(["construct"] + argv + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["degree"] > 0
    doc["degree"] = 0
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 3
    assert "claimed degree 0" in capsys.readouterr().out


SMALL_SUPPORT_32_2 = ["--target", "small-support", "--n", "32", "--k", "2",
                      "--seed", "9", "--eps", "1/8"]


@pytest.mark.parametrize("argv, change", [
    (SMALL_SUPPORT_32_2, lambda exact: exact + [1]),
    (SMALL_SUPPORT_32_2, lambda exact: exact[:-1]),
    (AND_8, lambda exact: exact + [8]),
], ids=["add", "remove", "add-to-empty"])
def test_verify_rejects_a_wrong_exact_on_claim_with_exit_3(argv, change,
                                                           tmp_path, capsys):
    # exact_on is measured in the pass that measures the error: one weight
    # more or fewer than the polynomial is exact on is a false claim.
    out = tmp_path / "x.json"
    assert run(["construct"] + argv + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["exact_on"] = sorted(change(doc["exact_on"]))
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 3
    assert "FAIL: claimed exact_on" in capsys.readouterr().out


@pytest.mark.parametrize("target", list(cli.TARGETS))
def test_every_target_writes_the_target_verify_reads_it_as(target, tmp_path,
                                                           capsys):
    # verify finds an artifact's domain by its "target" alone
    a = cli.TARGETS[target](SimpleNamespace(n=8, k=1, r=2, seed=1, prec=64),
                            Fraction(1, 3))
    doc = a.to_json()
    assert cli.ARTIFACTS[doc["target"]] is type(a.spec)
    out = tmp_path / "a.json"
    out.write_text(json.dumps(doc))
    assert run(["verify", str(out)]) == 0
    assert capsys.readouterr().out == "OK\n"


@pytest.mark.parametrize("text", ["[1]", "null", "\"terms\""])
def test_verify_rejects_an_artifact_that_is_not_an_object(text, tmp_path,
                                                          capsys):
    out = tmp_path / "l.json"
    out.write_text(text)
    assert run(["verify", str(out)]) == 2
    assert "not a JSON object" in capsys.readouterr().err


def _one_step_below(s, prec):
    """The prec-bit dyadic just below the serialized positive mpf s."""
    man, exp = s[2:].split("p")
    man, exp = int(man, 16), int(exp)
    shift = prec - man.bit_length()
    man, exp = (man << shift) - 1, exp - shift
    if man.bit_length() < prec:            # s was a power of two
        man, exp = 2 * man + 1, exp - 1
    return "0x%xp%d" % (man, exp)


@pytest.mark.parametrize("argv", [
    ["construct", "--target", "and", "--n", "32"],
    ["--prec", "128", "construct", "--target", "or", "--n", "24"],
    ["construct", "--target", "exact", "--n", "20", "--k", "2", "--eps", "1/8"],
    ["construct", "--target", "small-support", "--n", "32", "--k", "2",
     "--eps", "1/8", "--seed", "9"],
    ["construct", "--target", "surjectivity", "--n", "24", "--r", "2",
     "--eps", "1/4"],
])
def test_verify_has_no_slack(argv, tmp_path, capsys):
    # The claim is the measured error rounded up to the working precision;
    # one step lower at that precision is already below it.
    out = tmp_path / "a.json"
    assert run(argv + ["--out", str(out)]) == 0
    assert run(["verify", str(out)]) == 0
    doc = json.loads(out.read_text())
    prec = 128 if "128" in argv else 256
    claim = doc["certified_eps_exact"]
    assert claim.startswith("0x") and claim != "0x0p0", claim
    doc["certified_eps_exact"] = _one_step_below(claim, prec)
    out.write_text(json.dumps(doc))
    assert run(["verify", str(out)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("n,k,rc", [(128, 4, 0), (256, 2, 0), (256, 4, 4)])
def test_exit_4_means_the_measured_error_misses_eps(n, k, rc, tmp_path, capsys):
    # At 256 bits the (128, 4) and (256, 2) builds meet eps = 1/8 (exact
    # errors 2.3e-5 and 2.4e-4), while the dense (256, 4) build has lost it.
    out = tmp_path / "e.json"
    assert run(["construct", "--target", "exact", "--n", str(n), "--k", str(k),
                "--eps", "1/8", "--out", str(out)]) == rc
    if rc:
        assert "exceeds --eps" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert run(["verify", str(out)]) == 0
        assert float(json.loads(out.read_text())["certified_eps"]) <= 1 / 8
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


def test_parser_is_built_once_and_holds_no_handler(tmp_path, monkeypatch,
                                                  capsys):
    argv = ["construct", "--target", "exact", "--n", "20", "--k", "2",
            "--eps", "1/8"]
    cli.make_parser.cache_clear()
    assert run(["construct", "--target", "nope", "--n", "4"]) == 2
    assert run(argv + ["--eps", "0"]) == 2
    assert run(argv + ["--out", str(tmp_path / "a.json")]) == 0
    assert run(["verify", str(tmp_path / "a.json")]) == 0
    assert cli.make_parser.cache_info().misses == 1
    # the cached parser writes the bytes a fresh one does
    cli.make_parser.cache_clear()
    assert run(argv + ["--out", str(tmp_path / "b.json")]) == 0
    assert ((tmp_path / "a.json").read_bytes()
            == (tmp_path / "b.json").read_bytes())
    # a handler rebound after the first call is the one that runs
    monkeypatch.setattr(cli, "cmd_verify", lambda args: 7)
    assert run(["verify", str(tmp_path / "a.json")]) == 7
    capsys.readouterr()


def test_every_subcommand_has_a_handler():
    sub = next(a for a in cli.make_parser()._actions if a.dest == "cmd")
    assert sorted(sub.choices) == ["bounds", "construct", "oracle",
                                   "selftest", "table", "verify"]
    for name in sub.choices:
        assert callable(getattr(cli, "cmd_" + name))


def test_oracle_subcommand(tmp_path, capsys):
    out = tmp_path / "o.json"
    rc = run(["oracle", "--nodes", "0,1,2", "--values", "0,1,1",
              "--degree", "1", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["eps_star"] == "1/4"


def test_oracle_writes_a_hex_node_it_was_given(tmp_path, capsys):
    # a node past the 4300-digit int-to-str limit, in hex, comes back in hex
    node = "%#x/0x3" % (10 ** 4400 + 1)
    out = tmp_path / "o.json"
    assert run(["oracle", "--nodes", "0,1," + node, "--values", "0,1,1",
                "--degree", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["active_points"] == ["0", "1", node]


@pytest.mark.parametrize("values, degree", [
    ("0,1,1", "-1"),        # a negative degree divided by zero
    ("0,1", "1"),           # fewer values than nodes indexed past the end
    ("0,1,1,1", "1"),       # zip dropped the extra value and exited 0
])
def test_oracle_rejects_a_bad_input_with_exit_2(values, degree, tmp_path,
                                                capsys):
    out = tmp_path / "o.json"
    assert run(["oracle", "--nodes", "0,1,2", "--values", values,
                "--degree", degree, "--out", str(out)]) == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not out.exists()


def test_bounds_sweep_and_table(tmp_path, capsys):
    assert run(["bounds", "--sweep"]) == 0
    text = capsys.readouterr().out
    assert "violations: 0" in text
    out = tmp_path / "t.csv"
    assert run(["table", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("family,")
    assert len(lines) > 1


# The printed bound for each family, and the sha256 of the table CSV.  The
# last three shapes are large enough that c_kdnf and c_ed, both derived from
# C_SEL, are not clamped at n.
BOUNDS_PRINTED = [
    (["symmetric", "--n", "1024", "--k", "3", "--r", "16", "--delta", "8"],
     "583.741175"),
    (["kdnf", "--n", "1024", "--k", "3", "--r", "16", "--delta", "8"],
     "1024.000000"),
    (["ed", "--n", "1024", "--k", "3", "--r", "16", "--delta", "8"],
     "1024.000000"),
    (["ed-range", "--n", "1024", "--k", "3", "--r", "16", "--delta", "8"],
     "1024.000000"),
    (["kdnf", "--n", str(10 ** 6), "--k", "1", "--delta", "1"],
     "70710.678119"),
    (["ed", "--n", str(10 ** 27), "--k", "3", "--delta", "1"],
     "793432173136092569177948160.000000"),
    (["ed-range", "--n", str(10 ** 17), "--r", "4", "--k", "3", "--delta",
      "1"], "35129001752753664.000000"),
]

TABLE_SHA256 = \
    "d9082da544c8a3aa2d9f610168f7f8f3bb99742f378c27adca871db1de432311"


@pytest.mark.parametrize("argv, printed", BOUNDS_PRINTED)
def test_bounds_prints_the_pinned_value(argv, printed, capsys):
    assert run(["bounds", "--family"] + argv) == 0
    assert capsys.readouterr().out == printed + "\n"


@pytest.mark.parametrize("argv, message", [
    (["--family", "ed", "--n", "64", "--k", "0"], "needs --k >= 1"),
    (["--family", "ed-range", "--n", "64", "--r", "4", "--k", "0"],
     "needs --k >= 1"),
    (["--family", "kdnf", "--n", "64", "--k", "2", "--delta", "-1"],
     "--delta must be nonnegative"),
    (["--family", "symmetric", "--n", "-1"], "--n must be nonnegative"),
    (["--family", "ed-range", "--n", "64", "--r", "-1", "--k", "2"],
     "--r must be nonnegative"),
    ([], "one of the arguments --family --sweep is required"),
])
def test_bounds_rejects_bad_input_with_exit_2(argv, message, capsys):
    assert run(["bounds"] + argv) == 2
    assert message in capsys.readouterr().err


def test_table_bytes_are_pinned(tmp_path):
    out = tmp_path / "t.csv"
    assert run(["table", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TABLE_SHA256


def test_selftest_passes(capsys):
    assert run(["selftest"]) == 0
    text = capsys.readouterr().out
    assert "FAIL" not in text


GOLDEN_SHAPES = [("sampling", 16, 1, 11), ("sampling", 16, 2, 9),
                 ("sampling", 16, 3, 5), ("sampling", 32, 1, 11),
                 ("small-support", 32, 2, 9), ("small-support", 32, 2, 10)]
FLOAT_GOLDEN_SHAPES = [
    ["--target", "and", "--n", "16"],
    ["--target", "and", "--n", "32"],
    ["--target", "or", "--n", "24"],
    ["--target", "exact", "--n", "20", "--k", "2", "--eps", "1/8"],
    ["--target", "surjectivity", "--n", "8", "--r", "2"],
    ["--target", "surjectivity", "--n", "12", "--r", "3", "--eps", "1/16"],
]
PREC_GOLDEN_SHAPES = [
    ["--target", "and", "--n", "24", "--eps", "1/16"],
    ["--target", "or", "--n", "24", "--eps", "1/16"],
    ["--target", "exact", "--n", "20", "--k", "2", "--eps", "1/16"],
    ["--target", "surjectivity", "--n", "10", "--r", "2", "--eps", "1/16"],
    ["--target", "surjectivity", "--n", "12", "--r", "2", "--eps", "1/4"],
    ["--target", "surjectivity", "--n", "24", "--r", "2", "--eps", "1/4"],
]
# The argv of every pinned artifact, by group.
GOLDEN_ARGV = {
    "exact": [["construct", "--target", target, "--n", str(n), "--k", str(k),
               "--seed", str(seed), "--eps", "1/8"]
              for target, n, k, seed in GOLDEN_SHAPES],
    "float": [["construct"] + shape for shape in FLOAT_GOLDEN_SHAPES],
    "surj": [["construct", "--target", "surjectivity", "--n", "16", "--r", "4",
              "--eps", "1/3"]],
    "prec": [["--prec", prec, "construct"] + shape
             for prec in ("128", "512") for shape in PREC_GOLDEN_SHAPES],
}

# sha256 of each group's artifact bytes, concatenated.  Re-recorded when the
# certificates became exact: every certified_eps_exact is now the exact
# measured error rounded up to the working precision (or an exact Fraction),
# and a surjectivity artifact stores its conjunction polynomial q once, with
# a top-level degree.  The coefficients are pinned apart from that, below.
# The float and prec groups were re-recorded again when float products,
# scaling and affine composition began to round each coefficient once, from
# the exact integer result; every degree and certified_eps float stayed.
# Their surjectivity artifacts, and the surj group, were re-recorded when the
# emptiness indicator q became the OR on the n + 1 column weights instead of
# on 2n literal counts: each one's degree fell to at most n, and every other
# artifact kept its bytes.  The exact group was re-recorded when sampling's
# exponent and small-support's indicator came to be sized by the exact
# measure: every degree fell (sampling 472/408/290/944 -> 32/28/26/64,
# small-support 6613 -> 2304/2424), and the float, surj and prec groups kept
# their bytes.  It was re-recorded (0f75cdbf... -> 2d064839...) when the
# binomial tail came to be summed exactly: its "binom_tail" nodes lost
# "precision_bits", and each small-support certificate became the exact
# maximum rounded up to 256 bits instead of an enclosure bound, with every
# degree and every other byte unchanged.  The exact, float and prec groups
# were re-recorded (exact 2d064839... -> 3ab2d69c..., float a4c51323... ->
# efba3abc..., prec e6e79c6f... -> d493fb3c...) when exact_on came to be
# measured on the returned polynomial: each small-support artifact now lists
# weights 0, 3 and 4, and the float exact-weight ones list [0] or [] instead
# of a hand-written boundary set, with every other byte unchanged.  The
# float and prec groups were re-recorded (float efba3abc... -> d707981b...,
# prec d493fb3c... -> 6730b014...) when each cosine and pi came to be
# computed in integers and single_zero_factor's affine map stayed exact
# until compose_affine rounds it once: last bits of the AND/OR and
# exact-weight coefficients moved, with every degree unchanged and no
# certificate moving by more than a relative 3.5e-27.  Every group was
# re-recorded (exact 3ab2d69c... -> 608d03d4..., float d707981b... ->
# 016d0643..., surj 8c8d9d86... -> 31f9b6c0..., prec 6730b014... ->
# 29847d17...) when a node's dense child came to be written as a dense
# polynomial is at the top level, without the {"kind": "dense", "poly": ...}
# wrapper, and a surjectivity artifact came to name its "target": every
# degree, certified error and exact_on unchanged.
GOLDEN_SHA256 = "608d03d49c54090d45a076f9ecb490134c6bdef13dc833de6b5609bbce8482ca"
FLOAT_GOLDEN_SHA256 = \
    "016d0643df8805e4d87f5ecad3175989510409d97145ced28d14cc07fcf68bab"
SURJ_GOLDEN_SHA256 = \
    "31f9b6c0facdc5718dcedca9a8fae6644dcc37c46099d37efa4c8d0c393d18da"
# The (24, 2) eps-1/4 surjectivity artifacts carry float conjunction
# polynomials, q = 1 - OR, at the full working precision; these are the only
# bytes here that depend on float UniPoly negation staying inside the
# working precision (FLOAT_GOLDEN_SHA256 and the other shapes do not).
PREC_GOLDEN_SHA256 = \
    "29847d173a5c94295334c481f077cdeb464087aedf1637cba822dacdb9102eae"

# sha256 of each group's _canonical() artifacts, recorded from the artifacts
# written before the certificates became exact (when each surjectivity term
# held its own copy of q); float and prec re-recorded with the once-rounded
# float coefficients, and float, prec and surj again with q on n weights;
# exact again with the measured sampling exponent and small-support indicator,
# and once more (065549e9... -> 5fdada2b...) when "binom_tail" nodes lost
# "precision_bits"; exact (5fdada2b... -> b21fd2bd...), float (a6656479... ->
# 9455a76e...) and prec (d016cfb4... -> 3164c19a...) when exact_on came to
# be measured; float (9455a76e... -> f9ab8450...) and prec (3164c19a... ->
# 0a2f44c0...) when the cosines came to be computed in integers; all four
# (exact b21fd2bd... -> 888986cd..., float f9ab8450... -> 5cd0d74f..., surj
# c6ddd99a... -> cc167424..., prec 0a2f44c0... -> 07a4df81...) when the
# "dense" wrapper went and surjectivity came to write its "target".
CANONICAL_SHA256 = {
    "exact": "888986cdf5eb8d01d2dc0b07e41c0902ce9db70684c7b7036e51bb0d95e2fa47",
    "float": "5cd0d74faa4dbd4eb94900db3e24cd012b9dd4d7c217fbd5ac220906592655cc",
    "surj": "cc1674248d95c89d955e40bdb49cbc857e3f850317848ed927c753ee1596aa0b",
    "prec": "07a4df81227224bbdbe95843541549f95c77e98d877397f8b544e93bb779f7e2",
}


def _build(argvs, tmp_path):
    out = []
    for i, argv in enumerate(argvs):
        path = tmp_path / ("a%d.json" % i)
        assert run(argv + ["--out", str(path)]) == 0, argv
        out.append(path.read_bytes())
    return out


def _digest(artifacts):
    digest = hashlib.sha256()
    for data in artifacts:
        digest.update(data)
    return digest.hexdigest()


def _canonical(doc):
    """The artifact without its certified error, with a surjectivity
    artifact's q stored once whichever layout holds it: an older artifact
    held one copy per term, and every copy must be the same."""
    doc = {k: v for k, v in doc.items()
           if k not in ("certified_eps", "certified_eps_exact")}
    if "terms" in doc:
        copies = [t.pop("q") for t in doc["terms"] if "q" in t]
        held = [q for q in copies if q is not None]
        assert all(q == held[0] for q in held)
        if copies:
            doc["q"] = held[0] if held else None
        if "degree" in doc:
            q = doc["q"]
            assert doc.pop("degree") == (len(q["coeffs"]) - 1 if q else 0)
    return json.dumps(doc, sort_keys=True)


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """The artifacts of one GOLDEN_ARGV group, built once per module."""
    built = {}

    def artifacts(name):
        if name not in built:
            built[name] = _build(GOLDEN_ARGV[name],
                                 tmp_path_factory.mktemp(name))
        return built[name]
    return artifacts


def test_construct_golden_artifact_bytes(golden):
    # Pins the artifact bytes of the sampling and small-support targets, so
    # a change to exact evaluation or to the blocks must leave every
    # serialized coefficient and certified error unchanged.
    assert _digest(golden("exact")) == GOLDEN_SHA256


def test_construct_golden_float_artifact_bytes(golden):
    # Pins the artifact bytes of the float targets: the and/or degree search,
    # the exact-weight build, and the surjectivity outer polynomial and
    # conjunction search.
    assert _digest(golden("float")) == FLOAT_GOLDEN_SHA256


def test_construct_golden_surjectivity_16_4_bytes(golden):
    # Four columns share one conjunction polynomial, stored once.
    assert _digest(golden("surj")) == SURJ_GOLDEN_SHA256


def test_construct_golden_float_artifact_bytes_at_128_and_512_bits(golden):
    # Pins the float targets at working precisions other than the default,
    # so a change to how --prec reaches the build or the measure must leave
    # every serialized coefficient unchanged.
    assert _digest(golden("prec")) == PREC_GOLDEN_SHA256


@pytest.mark.parametrize("ambient", [24, 1024])
def test_float_artifact_bytes_ignore_the_ambient_precision(ambient, tmp_path):
    # --prec alone sets the working precision: a caller's mpmath context,
    # coarser or finer, must not reach a single serialized bit.
    with mp.workprec(ambient):
        digest = _digest(_build(GOLDEN_ARGV["prec"], tmp_path))
    assert digest == PREC_GOLDEN_SHA256


def test_golden_and_or_searches_build_at_most_three_shapes(monkeypatch,
                                                          tmp_path):
    # and_or_min_degree starts at its closed-form estimate: a search that
    # builds more than 3 shapes means the estimate has drifted from
    # _and_or_shape.  A count, not a timing.
    real_search, real_build = symmetric.min_degree, symmetric.and_or_approx
    builds = []

    def search(*args):
        builds.append(0)
        return real_search(*args)

    def build(*args):
        builds[-1] += 1
        return real_build(*args)

    monkeypatch.setattr(symmetric, "min_degree", search)
    monkeypatch.setattr(symmetric, "and_or_approx", build)
    argvs = [argv for group in GOLDEN_ARGV.values() for argv in group
             if argv[argv.index("--target") + 1] in ("and", "or",
                                                     "surjectivity")]
    _build(argvs, tmp_path)
    assert len(argvs) == 16 and len(builds) >= 16
    assert max(builds) <= 3, builds


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
def test_golden_coefficients_match_the_recorded_artifacts(name, golden):
    # Every coeffs list, mu, structured node, degree and spectrum, with only
    # the certified error and the layout of q set aside.
    digest = hashlib.sha256()
    for data in golden(name):
        digest.update(_canonical(json.loads(data)).encode())
    assert digest.hexdigest() == CANONICAL_SHA256[name]


def test_symmetric_golden_artifacts_are_no_better_than_the_optimum(golden):
    # By de la Vallee Poussin no polynomial of degree D beats the minimax
    # error eps_star on the weights 0..n: a certified error below it is a
    # bug in the measure or in the oracle.
    covered = []
    for name in sorted(GOLDEN_ARGV):
        for data in golden(name):
            doc = json.loads(data)
            n, degree = doc["n"], doc["degree"]
            if "values" not in doc or degree >= n:
                continue
            values = [scalar_from_json(v) for v in doc["values"]]
            best = minimax_lp(range(n + 1), values, degree).eps_star
            assert scalar_from_json(doc["certified_eps_exact"]) >= best
            covered.append((name, n, degree))
    assert sorted(covered) == [("float", 16, 4), ("float", 24, 5),
                               ("float", 32, 6), ("prec", 24, 12),
                               ("prec", 24, 12), ("prec", 24, 12),
                               ("prec", 24, 12)]


def _recipe_degree(target, n, k, seed, eps):
    """The degree the paper's recipe gives the CLI's spectrum."""
    spec = cli._random_low_support(n, k, seed)
    if target == "sampling":
        return sampling_approx(spec, eps).degree
    base = SymApprox.interpolant(SymSpec(2 * k, spec.values[:2 * k + 1]))
    return extend_approx(base, n, eps).degree


SWEEP_SHAPES = [(target, n, k, seed) for target in ("sampling", "small-support")
                for n, k in ((16, 2), (32, 1), (32, 2)) for seed in range(21, 26)]


@pytest.mark.parametrize("target, n, k, seed", GOLDEN_SHAPES + SWEEP_SHAPES)
def test_measured_parameters_never_raise_the_recipe_degree(target, n, k, seed,
                                                           tmp_path, capsys):
    # sampling and small-support size their parameters by the exact measure,
    # with the paper's recipe as the upper end: no degree may rise, and what
    # is written meets eps and verifies with no slack.
    out = tmp_path / "a.json"
    assert run(["construct", "--target", target, "--n", str(n), "--k", str(k),
                "--seed", str(seed), "--eps", "1/8", "--out", str(out)]) == 0
    assert run(["verify", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert Fraction(doc["certified_eps"]) <= Fraction(1, 8)
    assert doc["degree"] <= _recipe_degree(target, n, k, seed, Fraction(1, 8))


def test_small_support_probe_miss_exits_4(monkeypatch, tmp_path, capsys):
    # Exactly, the indicator's error bound meets eps; a certificate made to
    # miss it is precision loss: exit 4, naming the precision, and no file.
    monkeypatch.setattr(symmetric, "certify", lambda err, prec: Fraction(1))
    out = tmp_path / "a.json"
    assert run(["--prec", "128", "construct", "--target", "small-support",
                "--n", "32", "--k", "2", "--seed", "9", "--eps", "1/8",
                "--out", str(out)]) == 4
    assert "exceeds --eps 1/8 at 128 bits" in capsys.readouterr().err
    assert not out.exists()


def test_sampling_with_no_exponent_meeting_eps_exits_4(monkeypatch, tmp_path,
                                                      capsys):
    # Up to the paper's exponent every probe misses eps: a certificate above
    # --eps, rejected with exit 4 like any other.
    monkeypatch.setattr(symmetric, "sampled_nodes_approx",
                        lambda spec, d: SimpleNamespace(certified_eps=1))
    out = tmp_path / "a.json"
    assert run(["construct", "--target", "sampling", "--n", "16", "--k", "1",
                "--eps", "1/8", "--out", str(out)]) == 4
    assert "no degree up to" in capsys.readouterr().err
    assert not out.exists()


# 1/10^400: 0.0 as a float
TINY_EPS = "1/1" + "0" * 400


def test_small_support_at_28_bits_builds_the_default_polynomial(tmp_path,
                                                                capsys):
    # --prec reaches small-support only through its certificate, the exact
    # maximum rounded up to --prec bits: at 28 bits the artifact holds the
    # default build's polynomial, and verifies.
    docs = []
    for prec in ("28", "256"):
        out = tmp_path / ("a%s.json" % prec)
        assert run(["--prec", prec, "construct", "--target", "small-support",
                    "--n", "32", "--k", "2", "--seed", "9", "--eps", "1/8",
                    "--out", str(out)]) == 0
        assert run(["verify", str(out)]) == 0
        docs.append(json.loads(out.read_text()))
    capsys.readouterr()
    assert _canonical(docs[0]) == _canonical(docs[1])
    coarse, fine = (scalar_from_json(d["certified_eps_exact"]) for d in docs)
    assert coarse.numerator.bit_length() <= 28 < fine.numerator.bit_length()
    assert coarse >= fine


def test_exact_at_an_eps_below_every_float(tmp_path, capsys):
    # ell = m + log2(2/eps) is taken from eps's numerator and denominator;
    # here 2 ell >= n, so the exact interpolant is written.
    out = tmp_path / "e.json"
    assert run(["construct", "--target", "exact", "--n", "32", "--k", "2",
                "--eps", TINY_EPS, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["construction"] == "interpolant"
    assert run(["verify", str(out)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("eps", ["4", "1000"])
def test_exact_at_an_eps_above_2_builds_undamped(eps, tmp_path, capsys):
    # log2(2/eps) < 0 is clamped at 0, the r = 0 build of --eps 2.
    out = tmp_path / "e.json"
    assert run(["construct", "--target", "exact", "--n", "20", "--k", "0",
                "--eps", eps, "--out", str(out)]) == 0
    assert run(["verify", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["construction"] == "zeroed-chebyshev"


def _weights_it_is_exact_on(a):
    return {w for w, v in enumerate(a.spec.values) if a.poly.eval(w) == v}


# surjectivity's domain, SurjSpec, claims no exact_on
@pytest.mark.parametrize("build", [
    *(lambda t=t: cli.TARGETS[t](SimpleNamespace(
        n=16, k=2, r=0, seed=9, prec=128), Fraction(1, 8))
      for t in cli.TARGETS if t != "surjectivity"),
    lambda: extend_approx(SymApprox.interpolant(
        SymSpec(4, [Fraction(1, 2), Fraction(1, 3), 0, 0, 0])), 16,
        Fraction(1, 8)),
    lambda: extend_approx(SymApprox.interpolant(SymSpec(0, [1])), 16,
                          Fraction(1, 8)),
    lambda: symmetric.symmetric_approx(SymSpec(16, [Fraction(1, 2), 0] + [
        Fraction(1, 4)] * 13 + [0, 1]), Fraction(1, 8), 128),
    lambda: symmetric.and_or_approx(8, 8, "or"),
], ids=[t for t in cli.TARGETS if t != "surjectivity"]
    + ["extension", "extension-point", "boundary-decomposition",
       "or-interpolant"])
def test_every_construction_claims_the_weights_it_is_exact_on(build):
    a = build()
    assert a.exact_on == _weights_it_is_exact_on(a)


# sha256 of the small-support (16, 0) seed-1 artifact at eps 1/8: the point
# extension of the value at weight 0, degree 12.
POINT_SMALL_SUPPORT_SHA256 = \
    "20c22193b9c6c06f929abd4a35cd0cead7e0e99052d8eb68812c3572d8ad3541"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_small_support_with_k_0_writes_the_point_extension(seed, tmp_path,
                                                           capsys):
    out = tmp_path / "a.json"
    assert run(["construct", "--target", "small-support", "--n", "16", "--k",
                "0", "--seed", str(seed), "--eps", "1/8", "--out",
                str(out)]) == 0
    assert run(["verify", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["construction"] == "extension-point" and doc["degree"] == 12
    if seed == 1:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            POINT_SMALL_SUPPORT_SHA256
