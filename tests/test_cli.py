"""CLI surface: subcommands, exit codes, canonical JSON."""

import json

import pytest

from mwslice.cli import main, to_jsonable

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
    again = json.dumps(to_jsonable(payload), sort_keys=True, separators=(",", ":"))
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


def test_rationals_serialize_as_strings():
    from fractions import Fraction

    data = to_jsonable({"x": Fraction(2, 3), "y": Fraction(4, 1), "z": [Fraction(-1, 2)]})
    assert data == {"x": "2/3", "y": "4", "z": ["-1/2"]}


def test_check_all_quick(capsys):
    code, out = run(capsys, "check-all", "--profile", "quick")
    assert code == 0
    assert out.count("PASS ") == 11
    assert "ALL CHECKS PASSED" in out


def test_corrupted_rule_fails_naming_tuple(capsys, monkeypatch):
    import mwslice.rewriting as rw
    from mwslice.milnor_witt import MWExpression

    orig = rw._instantiate

    def corrupted(rule, fld, bindings):
        lhs, rhs = orig(rule, fld, bindings)
        if rule == "R-steinberg":
            return lhs, MWExpression(fld, (lhs.terms[0],))
        return lhs, rhs

    monkeypatch.setattr(rw, "_instantiate", corrupted)
    code, out = run(capsys, "check-all", "--profile", "quick")
    assert code == 1
    assert "FAIL" in out and "tuple" in out


@pytest.mark.parametrize("content", [
    [1],
    "x",
    None,
    {"field": "Fq(7)", "start": "[3]*[5]", "end": "0", "steps": [1]},
    {"field": 7, "start": "0", "end": "0", "steps": []},
], ids=["top-level-list", "top-level-string", "top-level-null", "step-not-object",
        "field-not-string"])
def test_mw_verify_wrong_shape_exits_2(capsys, tmp_path, content):
    path = tmp_path / "derivation.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    assert main(["mw-verify", "--derivation", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed derivation") and "Traceback" not in err


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
