"""CLI surface: subcommands, exit codes, canonical JSON."""

import io
import json

import pytest

from mwslice.cli import main

pytestmark = pytest.mark.usefixtures("capsys")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def test_gw_table(capsys):
    code, out = run(capsys, "gw", "--field", "Fq(7)", "--form", "<2,3>")
    assert code == 0
    assert "rank 2" in out and "disc_dev 1" in out


def test_gw_json_round_trip(capsys):
    code, out = run(capsys, "--output", "json", "gw", "--field", "R", "--form", "<1,-1>")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == {"field": "R", "rank": 2, "signature": 0}
    # canonical serialization: parse + re-dump is byte identical
    again = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert again == out


def test_witt(capsys):
    code, out = run(capsys, "witt", "--field", "Fq(3)", "--form", "<1,1>")
    assert code == 0 and "2 in Z/4" in out


def test_mw_normalize(capsys):
    code, out = run(capsys, "mw-normalize", "--field", "R", "--expr", "eta*(2 + eta*[-1])")
    assert code == 0 and "0 (degree -1)" in out


def test_mw_derive_and_verify(capsys, tmp_path):
    code, out = run(capsys, "--output", "json", "mw-derive",
                    "--field", "Fq(7)", "--units", "3,3,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["verified"] is True
    rules = [s["rule"] for s in payload["result"]["steps"]]
    assert rules == ["R-sum", "R-steinberg"]
    path = tmp_path / "derivation.json"
    path.write_text(json.dumps(payload["result"]), encoding="utf-8")
    code, out = run(capsys, "mw-verify", "--derivation", str(path))
    assert code == 0 and "True" in out


def test_mw_verify_rejects_tampered(capsys, tmp_path):
    code, out = run(capsys, "--output", "json", "mw-derive",
                    "--field", "Fq(7)", "--units", "3,5")
    blob = json.loads(out)["result"]
    blob["end"] = "[3]"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    code, out = run(capsys, "mw-verify", "--derivation", str(path))
    assert code == 1


def test_filtration_real_ladder(capsys):
    code, out = run(capsys, "filtration", "--field", "R", "--n", "3", "--p", "0", "--q", "0")
    assert code == 0
    assert "N = 3" in out
    assert "(0, 4)" in out          # index-coordinate generator 2^(n-1)
    assert "signature in 8Z" in out


def test_filtration_json_schema(capsys):
    code, out = run(capsys, "--output", "json", "filtration",
                    "--field", "Fq(5)", "--n", "2", "--p", "0", "--q", "0")
    payload = json.loads(out)
    assert payload["command"] == "filtration"
    assert payload["result"]["N"] == 2
    assert payload["result"]["subgroup"]["size"] == "zero"


def test_graded(capsys):
    code, out = run(capsys, "graded", "--field", "Fq(5)", "--n", "1", "--p", "0", "--q", "0")
    assert code == 0 and "Z/2" in out


def test_convergence(capsys):
    code, out = run(capsys, "convergence", "--field", "Fq(7)", "--cutoff", "5")
    assert code == 0 and "I^2 = 0" in out


def test_moore(capsys):
    code, out = run(capsys, "moore", "--field", "R", "--ell", "3", "--n", "7")
    assert code == 0 and "Z/3" in out
    code, out = run(capsys, "moore", "--field", "Fq(5)", "--ell", "3", "--n", "2")
    assert code == 0 and out.endswith("0")


def test_transfer(capsys):
    code, out = run(capsys, "transfer", "--ext", "C/R", "--form", "<1>")
    assert code == 0 and "rank 2, signature 0" in out
    code, out = run(capsys, "transfer", "--ext", "Fq(9)/Fq(3)", "--check", "projection")
    assert code == 0 and "ok=True" in out


def test_parse_errors_exit_2(capsys):
    code, _ = run(capsys, "gw", "--field", "Fq(8)", "--form", "<1>")
    assert code == 2
    code, _ = run(capsys, "mw-normalize", "--field", "Fq(7)", "--expr", "[0]")
    assert code == 2


def test_out_file(capsys, tmp_path):
    path = tmp_path / "result.json"
    code, out = run(capsys, "--output", "json", "--out", str(path),
                    "moore", "--field", "R", "--ell", "5", "--n", "2")
    assert code == 0
    assert json.loads(path.read_text(encoding="utf-8")) == json.loads(out)


def test_check_all_quick(capsys):
    code, out = run(capsys, "check-all", "--profile", "quick")
    assert code == 0
    assert out.count("PASS ") == 11
    assert "ALL CHECKS PASSED" in out


def test_corrupted_rule_fails_naming_tuple(capsys, monkeypatch):
    import mwslice.rewriting as rw
    from mwslice.milnor_witt import MWExpression

    orig = rw.instantiate

    def corrupted(rule, fld, bindings):
        lhs, rhs = orig(rule, fld, bindings)
        if rule == "R-steinberg":
            return lhs, MWExpression(fld, (lhs.terms[0],))
        return lhs, rhs

    monkeypatch.setattr(rw, "instantiate", corrupted)
    code, out = run(capsys, "check-all", "--profile", "quick")
    assert code == 1
    assert "FAIL" in out and "tuple" in out


@pytest.mark.parametrize("content", [
    [1],
    "x",
    None,
    {"field": "Fq(7)", "start": "[3]*[5]", "end": "0", "steps": [1]},
    {"field": 7, "start": "0", "end": "0", "steps": []},
    {"field": "Fq(7)", "start": "[g^1]", "end": "[g^1]",
     "steps": [{"rule": "R-central", "position": {"term": 0, "factor": 0},
                "bindings": {"z": "1", "atom": "x3x", "side": "left"}}]},
], ids=["top-level-list", "top-level-string", "top-level-null", "step-not-object",
        "field-not-string", "atom-not-bracketed"])
def test_mw_verify_wrong_shape_exits_2(capsys, tmp_path, content):
    path = tmp_path / "derivation.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    assert main(["mw-verify", "--derivation", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed derivation") and "Traceback" not in err


def _step(rule, bindings=None, term=0):
    step = {"rule": rule, "position": {"term": term, "factor": 0}}
    if bindings is not None:
        step["bindings"] = bindings
    return step


@pytest.mark.parametrize("start, step, reason", [
    ("[3]", _step("R-foo"), "unknown rule 'R-foo'"),
    ("[3]", _step("R-steinberg", {"u": "1"}), "Steinberg relation needs u != 1"),
    ("[3]*[5]", _step("R-sum", {"u": "3"}), "missing binding 'v'"),
    ("[3]", _step("R-central", {"atom": "[3]"}),
     "R-central needs a degree-0 expression binding 'z'"),
    ("[3]", _step("R-central", {"z": "1"}), "R-central needs an atom binding 'atom'"),
    ("[3]", _step("R-central", {"z": "1", "atom": "[3]", "side": "up"}),
     "R-central side must be left or right, got 'up'"),
    ("[3]", _step("R-central", {"z": "0", "atom": "[3]"}),
     "R-central instantiates to an empty pattern"),
    ("[1]", _step("R-one", term=5), "term index 5 out of range"),
    ("eta", _step("R-eta-hyp"), "coefficient 1 is not a multiple of the pattern's 2"),
], ids=["unknown-rule", "steinberg-u-1", "sum-missing-v", "central-no-z", "central-no-atom",
        "central-side-up", "central-z-0", "term-out-of-range", "eta-hyp-coefficient"])
def test_mw_verify_reports_a_refused_step(capsys, tmp_path, start, step, reason):
    path = tmp_path / "derivation.json"
    path.write_text(json.dumps({"field": "Fq(7)", "start": start, "end": "0", "steps": [step]}),
                    encoding="utf-8")
    code, out = run(capsys, "--output", "json", "mw-verify", "--derivation", str(path))
    assert code == 1
    assert json.loads(out)["result"] == {"verified": False, "failed_step": 0, "reason": reason}


@pytest.mark.parametrize("argv, message", [
    (["gw", "--field", "Fq(9;poly=x^2+y)", "--form", "<1>"], "bad polynomial term 'y'"),
    (["transfer", "--ext", "Fq(9)", "--form", "<1>"],
     "extension literal must be top/base, got 'Fq(9)'"),
], ids=["polynomial-term", "extension-literal"])
def test_malformed_literals_exit_2(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_mw_verify_refuses_boolean_positions(capsys, tmp_path):
    assert main(["--output", "json", "mw-derive", "--field", "Fq(7)", "--units", "3,5"]) == 0
    cert = json.loads(capsys.readouterr().out)["result"]
    cert["steps"][0]["position"] = {"term": False, "factor": False}
    path = tmp_path / "derivation.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    assert main(["mw-verify", "--derivation", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: malformed derivation: each step needs a rule name"
                            " and an integer term and factor position\n")


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_mw_verify_refuses_json_nested_past_the_recursion_limit(capsys, tmp_path, monkeypatch,
                                                                source):
    text = "[" * 200_000 + "]" * 200_000
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["mw-verify", "--derivation", "-" if source == "stdin" else str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: derivation JSON nests too deeply\n")


def test_moore_large_prime_ell(capsys):
    code, out = run(capsys, "moore", "--field", "R", "--ell", "1000000007", "--n", "3")
    assert code == 0 and out.endswith("Z/1000000007")


def test_field_order_at_the_bound(capsys):
    # 999983 is the largest prime below MAX_FIELD_ORDER = 10**6
    code, out = run(capsys, "gw", "--field", "Fq(999983)", "--form", "<1>")
    assert code == 0 and out.endswith("(rank 1, disc_dev 0)")


@pytest.mark.parametrize("q", ["1000003", "1000000000000000003"])
def test_field_order_beyond_the_bound_exits_2(capsys, q):
    assert main(["gw", "--field", f"Fq({q})", "--form", "<1>"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: field order {q} exceeds the supported bound 1000000\n"


def test_moore_ell_at_the_bound(capsys):
    # 999999999989 is the largest prime below MAX_ELL = 10**12
    code, out = run(capsys, "moore", "--field", "R", "--ell", "999999999989", "--n", "1")
    assert code == 0 and out.endswith("Z/999999999989")


@pytest.mark.parametrize("ell", ["1000000000039", "1000000000000000003"])
def test_moore_ell_beyond_the_bound_exits_2(capsys, ell):
    assert main(["moore", "--field", "R", "--ell", ell, "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: ell {ell} exceeds the supported bound 1000000000000\n"


@pytest.mark.parametrize("expr", ["(" * 3000 + "[2]" + ")" * 3000, "-" * 3000 + "[2]"],
                         ids=["parentheses", "unary-minus"])
def test_deep_nesting_exits_2(capsys, expr):
    assert main(["mw-normalize", "--field", "R", f"--expr={expr}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: expression nests deeper than") and "Traceback" not in err


def test_nesting_at_the_bound_parses(capsys):
    from mwslice.milnor_witt import MAX_NESTING

    expr = "-(" * (MAX_NESTING // 2) + "[-1]" + ")" * (MAX_NESTING // 2)
    code, out = run(capsys, "mw-normalize", "--field", "R", f"--expr={expr}")
    assert code == 0 and out.endswith("1 * [-1]^1")


@pytest.mark.parametrize("argv", [
    ["filtration", "--field", "R", "--n", "1000", "--p", "0", "--q", "0"],
    ["filtration", "--field", "R", "--n", "1000", "--p", "-1000", "--q", "1000"],
    ["graded", "--field", "R", "--n", "1000", "--p", "0", "--q", "0"],
    ["graded", "--field", "Fq(9)", "--n", "-1000", "--p", "1000", "--q", "-1000"],
    ["convergence", "--field", "R", "--cutoff", "1000"],
    ["moore", "--field", "R", "--ell", "3", "--n", "1000"],
    ["transfer", "--ext", "Fq(9)/Fq(3)", "--check", "projection", "--rank-bound", "100"],
], ids=lambda argv: " ".join(argv[:1] + argv[3:]))
def test_indices_at_the_bound(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0, out


def test_filtration_at_the_bound_is_exact(capsys):
    code, out = run(capsys, "filtration", "--field", "R", "--n", "1000", "--p", "0", "--q", "0")
    assert code == 0 and f"signature in {2**1000}Z" in out


@pytest.mark.parametrize("argv,message", [
    (["filtration", "--field", "R", "--n", "1001", "--p", "0", "--q", "0"], "n = 1001"),
    (["filtration", "--field", "R", "--n", "100000", "--p", "0", "--q", "0"], "n = 100000"),
    (["filtration", "--field", "C", "--n", "0", "--p", "-1001", "--q", "0"], "p = -1001"),
    (["graded", "--field", "Fq(5)", "--n", "0", "--p", "0", "--q", "1001"], "q = 1001"),
    (["graded", "--field", "R", "--n", "-1001", "--p", "0", "--q", "0"], "n = -1001"),
    (["convergence", "--field", "R", "--cutoff", "1001"], "cutoff = 1001"),
    (["convergence", "--field", "R", "--cutoff", "20000"], "cutoff = 20000"),
    (["moore", "--field", "R", "--ell", "3", "--n", "1001"], "n = 1001"),
], ids=lambda v: " ".join(v[:1] + v[3:]) if isinstance(v, list) else v)
def test_indices_beyond_the_bound_exit_2(capsys, argv, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message} exceeds the supported bound 1000\n"


def test_rank_bound_beyond_the_bound_exits_2(capsys):
    argv = ["transfer", "--ext", "Fq(9)/Fq(3)", "--check", "projection", "--rank-bound", "101"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: rank bound 101 exceeds the supported bound 100\n"


def test_negative_rank_bound_exits_2(capsys):
    argv = ["transfer", "--ext", "Fq(9)/Fq(3)", "--check", "projection", "--rank-bound", "-5"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: rank bound -5 is negative\n"


def _units_summing_to_one(n: int, p: int) -> str:
    """n units of F_p, all 2 but the last, whose sum is 1."""
    return ",".join(["2"] * (n - 1) + [str((1 - 2 * (n - 1)) % p)])


# The parser keeps one (kind, text) pair per token, not its match object: the
# 3,000-atom word is refused in about 0.7 MB.
@pytest.mark.parametrize("argv, message, peak_bound", [
    (["mw-normalize", "--field", "Fq(7)", "--expr", "*".join(["([2]+[3])"] * 16)],
     "1024 monomials exceed the supported bound 1000", 2 << 20),
    (["mw-normalize", "--field", "Fq(7)", "--expr", "*".join(["[2]"] * 3000)],
     "a word of 1001 atoms exceeds the supported bound 1000", 1 << 20),
    (["mw-derive", "--field", "Fq(10007)", "--units", _units_summing_to_one(2000, 10007)],
     "a word of 2000 atoms exceeds the supported bound 1000", 2 << 20),
], ids=["product of sums", "long word", "many units"])
def test_milnor_witt_input_is_bounded_before_it_is_built(capsys, argv, message, peak_bound):
    import tracemalloc

    import mwslice.rewriting  # noqa: F401  (so that no import counts toward the peak)

    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert peak < peak_bound


@pytest.mark.parametrize("literal, message", [
    ("Fq(9;poly=x^5000000+1)", "error: term 'x^5000000' exceeds the field's degree 2\n"),
    ("Fq(9;poly=+)", "error: empty polynomial '+'\n"),
])
def test_bad_modulus_literal_exits_2(capsys, literal, message):
    assert main(["gw", "--field", literal, "--form", "<1>"]) == 2
    assert capsys.readouterr().err == message


def test_modulus_literal_is_bounded_before_it_is_built():
    import tracemalloc

    from mwslice.fields import parse_field

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the field's degree"):
            parse_field("Fq(9;poly=x^1000000+1)")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_mw_derive_over_a_large_prime_field_builds_no_tables(capsys):
    import tracemalloc

    import mwslice.rewriting  # noqa: F401  (so that no import counts toward the peak)
    from mwslice import fields

    field = fields.parse_field("Fq(100003)")
    fields._set(field, "_tables", None)  # as in a fresh process
    tracemalloc.start()
    try:
        code = main(["--output", "json", "mw-derive", "--field", "Fq(100003)",
                     "--units", "2,100002"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["certificate"] == {"verified": True}
    assert field._tables is None  # above TABLE_ORDER each log is a Pohlig-Hellman solve
    assert peak < 600_000


def test_mw_derive_over_the_largest_prime_field_builds_no_unit_table(capsys, monkeypatch):
    from mwslice import fields

    def refuse(field):
        raise AssertionError(f"built a table of the units of {field}")

    monkeypatch.setattr(fields, "enumerate_units", refuse)
    monkeypatch.setattr(fields, "discrete_log_table", refuse)
    argv = ["--output", "json", "mw-derive", "--field", "Fq(999983)", "--units", "2,999982"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        '{"certificate":{"verified":true},"command":"mw-derive",'
        '"input":{"field":"Fq(999983)","units":"2,999982"},'
        '"result":{"end":"0","field":"Fq(999983)","start":"[g^355214]*[g^499991]",'
        '"steps":[{"bindings":{"u":"g^355214"},"position":{"factor":0,"term":0},'
        '"rule":"R-steinberg"}]}}\n')


@pytest.mark.parametrize("literal", ["Fq(7;poly=2*x+1)", "Fq(7;poly=x^2+1)"])
def test_bad_prime_field_modulus_exits_2(capsys, literal):
    assert main(["gw", "--field", literal, "--form", "<1>"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


PROJECTION = ["transfer", "--ext", "Fq(9)/Fq(3)", "--check", "projection", "--rank-bound", "2"]


@pytest.fixture
def broken_pullback(monkeypatch):
    from mwslice import transfers

    orig = transfers.p_star
    monkeypatch.setattr(transfers, "p_star", lambda e, x: orig(e, x).scale(2))


BROKEN_PROJECTION = ("y=(rank -2, disc_dev 0), x=(rank 1, disc_dev 0): "
                     "(rank -8, disc_dev 0) != (rank -4, disc_dev 0)")


def test_failed_projection_check_json(capsys, broken_pullback):
    code, out = run(capsys, "--output", "json", *PROJECTION)
    assert code == 1
    assert json.loads(out)["result"] == {
        "cases": 1, "check": "projection_formula", "counterexample": BROKEN_PROJECTION,
        "extension": "Fq(9;poly=x^2+1)/Fq(3)", "ok": False}


def test_failed_projection_check_table(capsys, broken_pullback):
    code, out = run(capsys, *PROJECTION)
    assert code == 1
    assert out == ("projection formula over Fq(9;poly=x^2+1)/Fq(3): ok=False (1 cases)"
                   f"; first counterexample: {BROKEN_PROJECTION}")


@pytest.fixture
def broken_vanishing(monkeypatch):
    from mwslice.fields import FiniteField

    monkeypatch.setattr(FiniteField, "vanishing_power", 1)


def test_failed_convergence_json(capsys, broken_vanishing):
    code, out = run(capsys, "--output", "json", "convergence", "--field", "Fq(7)", "--cutoff", "12")
    assert code == 1
    assert '"separated":false' in out
    assert json.loads(out)["certificate"]["details"] == ["I^1 is not zero"]


def test_failed_convergence_table(capsys, broken_vanishing):
    code, out = run(capsys, "convergence", "--field", "Fq(7)", "--cutoff", "12")
    assert code == 1
    assert out == ("convergence over Fq(7) (cutoff 12): separated = False\n"
                   "  certificate: I^2 = 0")
