"""Derivation certificates: construction, replay, rejection, serialization."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwslice import fields
from mwslice import rewriting as rw
from mwslice.fields import (
    FieldMismatchError,
    enumerate_units,
    finite_field,
    one,
    parse_unit,
    unit,
    unit_add,
    unit_neg,
)
from mwslice.milnor_witt import (
    ETA,
    MAX_WORD_LENGTH,
    mw_symbols,
    mw_unit_form,
    mw_zero,
    normalize,
    parse_expression,
)
from mwslice.rewriting import (
    Derivation,
    PreconditionError,
    RuleConditionError,
    Step,
    apply_step,
    derivation_from_json,
    derive_extended_steinberg,
    instantiate,
    verify_derivation,
)

F3 = finite_field(3)
F5 = finite_field(5)
F7 = finite_field(7)
F9 = finite_field(9)


def test_single_unit_derivation():
    d = derive_extended_steinberg([one(F7)])
    assert [s.rule for s in d.steps] == ["R-one"]
    assert verify_derivation(d).ok


def test_steinberg_pair():
    d = derive_extended_steinberg([unit(F3, 2), unit(F3, 2)])
    assert [s.rule for s in d.steps] == ["R-steinberg"]
    assert verify_derivation(d).ok


def test_triple_with_nonzero_tail_sum():
    # 3 + 3 + 2 = 8 = 1 in F_7; 3 + 2 = 5 != 0 so the sum rule fires first
    d = derive_extended_steinberg([unit(F7, 3), unit(F7, 3), unit(F7, 2)])
    assert [s.rule for s in d.steps] == ["R-sum", "R-steinberg"]
    assert verify_derivation(d).ok


def test_triple_with_vanishing_tail_sum():
    # 1 + 2 + 1 = 4 = 1 in F_3 and 2 + 1 = 0, so [2][1] dies by [a][-a] = 0
    d = derive_extended_steinberg([unit(F3, 1), unit(F3, 2), unit(F3, 1)])
    assert [s.rule for s in d.steps] == ["R-negself"]
    assert verify_derivation(d).ok


def test_precondition_errors():
    with pytest.raises(PreconditionError):
        derive_extended_steinberg([unit(F7, 2)])
    with pytest.raises(PreconditionError):
        derive_extended_steinberg([unit(F7, 3), unit(F5, 3)])
    with pytest.raises(PreconditionError):
        derive_extended_steinberg([])


def test_too_many_units_are_refused_before_they_are_summed(monkeypatch):
    import mwslice.rewriting as rw

    def refuse(a, b):
        raise AssertionError("summed a unit")

    monkeypatch.setattr(rw, "unit_add", refuse)
    units = [unit(F7, 2)] * (MAX_WORD_LENGTH + 1)
    message = f"a word of {MAX_WORD_LENGTH + 1} atoms exceeds the supported bound {MAX_WORD_LENGTH}"
    with pytest.raises(ValueError, match=message):
        derive_extended_steinberg(units)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_exhaustive_certificates(q):
    from mwslice.checks import sum_to_one_tuples

    field = finite_field(q)
    for n in (2, 3, 4):
        for tup in sum_to_one_tuples(field, n):
            d = derive_extended_steinberg(list(tup))
            res = verify_derivation(d)
            assert res.ok, (tup, res.reason)
            assert not d.end.terms


def test_verify_rejects_wrong_side_condition():
    bad = Derivation(
        F7,
        parse_expression(F7, "[2]*[3]"),
        (Step("R-steinberg", 0, 0, {"u": unit(F7, 2)}),),
        mw_zero(F7),
    )
    res = verify_derivation(bad)
    assert not res.ok and res.failed_step == 0


def test_verify_rejects_wrong_end():
    d = derive_extended_steinberg([unit(F3, 2), unit(F3, 2)])
    tampered = Derivation(F3, d.start, d.steps, parse_expression(F3, "[2]"))
    res = verify_derivation(tampered)
    assert not res.ok and res.failed_step is None


def test_verify_rejects_out_of_range_position():
    bad = Derivation(
        F7,
        parse_expression(F7, "[2]*[6]"),
        (Step("R-steinberg", 0, 5, {"u": unit(F7, 2)}),),
        mw_zero(F7),
    )
    assert not verify_derivation(bad).ok


def test_eta_hyp_single_step():
    start = parse_expression(F7, "2*eta + eta*eta*[-1]")
    d = Derivation(F7, start, (Step("R-eta-hyp", 0, 0, {}),), mw_zero(F7))
    assert verify_derivation(d).ok


def test_eta_hyp_needs_companion_term():
    start = parse_expression(F7, "2*eta")
    d = Derivation(F7, start, (Step("R-eta-hyp", 0, 0, {}),), mw_zero(F7))
    res = verify_derivation(d)
    assert not res.ok and "companion" in res.reason


def test_product_rule_expansion():
    start = parse_expression(F7, "[6]")
    step = Step("R-product", 0, 0, {"u": unit(F7, 2), "v": unit(F7, 3)})
    out = apply_step(start, step)
    assert out.terms == parse_expression(F7, "[2] + [3] + eta*[2]*[3]").terms


def test_product_rule_requires_matching_product():
    start = parse_expression(F7, "[5]")
    step = Step("R-product", 0, 0, {"u": unit(F7, 2), "v": unit(F7, 3)})
    with pytest.raises(Exception):
        apply_step(start, step)


def test_central_rule_moves_unit_form():
    z = mw_unit_form(unit(F7, 3))
    start = parse_expression(F7, "[2] + eta*[3]*[2]")
    end = parse_expression(F7, "[2] + [2]*eta*[3]")
    d = Derivation(
        F7, start,
        (Step("R-central", 0, 0, {"z": z, "atom": unit(F7, 2), "side": "left"}),),
        end,
    )
    assert verify_derivation(d).ok


def test_central_steps_serialize_their_atoms():
    z = mw_unit_form(unit(F7, 3))
    start = parse_expression(F7, "[2] + eta*[3]*[2] + eta + eta*eta*[3]")
    end = parse_expression(F7, "[2] + [2]*eta*[3] + eta + eta*[3]*eta")
    steps = (Step("R-central", 0, 0, {"z": z, "atom": unit(F7, 2), "side": "left"}),
             Step("R-central", 2, 0, {"z": z, "atom": ETA, "side": "right"}))
    d = Derivation(F7, start, steps, end)
    assert verify_derivation(d).ok
    data = d.to_json()
    assert [json.dumps(s["bindings"], sort_keys=True) for s in data["steps"]] == [
        '{"atom": "[g^2]", "side": "left", "z": "1 + eta*[g^1]"}',
        '{"atom": "eta", "side": "right", "z": "1 + eta*[g^1]"}',
    ]
    again = derivation_from_json(json.loads(json.dumps(data)))
    assert again == d and verify_derivation(again).ok


def test_a_word_holds_its_units():
    u, v = unit(F7, 3), unit(F7, 5)
    assert mw_symbols([u, v]).terms[0] == ((u, v), 1)


def test_central_rule_rejects_nonzero_degree():
    z = parse_expression(F7, "[3]")
    with pytest.raises(RuleConditionError):
        instantiate("R-central", F7, {"z": z, "atom": unit(F7, 2), "side": "left"})


def test_sum_rule_side_condition():
    with pytest.raises(RuleConditionError):
        instantiate("R-sum", F7, {"u": unit(F7, 3), "v": unit(F7, 4)})


def test_rules_in_context_positions():
    # a zero rewrite strictly inside a longer word kills the whole monomial:
    # [2][5] = [2][-2] in F_7, so R-negself at offset 1 annihilates [5][2][5]
    start = parse_expression(F7, "[5]*[2]*[5]")
    step = Step("R-negself", 0, 1, {"a": unit(F7, 2)})
    out = apply_step(start, step)
    assert not out.terms


def test_serialization_round_trip_all_fields():
    from mwslice.checks import sum_to_one_tuples

    for field in (F7, F9):
        tup = next(iter(sum_to_one_tuples(field, 3)))
        d = derive_extended_steinberg(list(tup))
        blob = json.dumps(d.to_json())
        d2 = derivation_from_json(json.loads(blob))
        assert verify_derivation(d2).ok
        assert [s.rule for s in d2.steps] == [s.rule for s in d.steps]


@settings(max_examples=40, deadline=None)
@given(
    q=st.sampled_from([3, 5, 7, 9]),
    picks=st.lists(st.integers(0, 7), min_size=2, max_size=4),
)
def test_random_tuples_with_unit_completion(q, picks):
    """Pad any unit tuple to sum 1; the certificate must exist and verify."""
    field = finite_field(q)
    units = enumerate_units(field)
    chosen = [units[i % len(units)] for i in picks]
    total = None
    for u in chosen:
        total = u if total is None else unit_add(total, u)
    if total is None:
        tup = chosen + [one(field)]
    else:
        completion = unit_add(one(field), unit_neg(total))
        tup = chosen if completion is None else chosen + [completion]
    d = derive_extended_steinberg(tup)
    assert verify_derivation(d).ok
    assert normalize(mw_symbols(tup), degree=len(tup)).is_zero


def test_positions_must_be_integers_not_booleans():
    data = derive_extended_steinberg([unit(F7, 3), unit(F7, 5)]).to_json()
    assert verify_derivation(derivation_from_json(data)).ok
    for key in ("term", "factor"):
        bad = json.loads(json.dumps(data))
        bad["steps"][0]["position"][key] = False  # False == 0 would replay as position 0
        with pytest.raises(ValueError, match="^malformed derivation: .*integer term and factor"):
            derivation_from_json(bad)


@pytest.mark.parametrize("rule, bindings", [
    ("R-steinberg", {"u": unit(F5, 2)}),
    ("R-sum", {"u": unit(F7, 2), "v": unit(F5, 3)}),
    ("R-central", {"z": mw_unit_form(unit(F7, 3)), "atom": unit(F5, 2), "side": "left"}),
], ids=["unit", "second-unit", "central-atom"])
def test_a_binding_over_another_field_is_refused(rule, bindings):
    start = parse_expression(F7, "[2]*[6]")
    step = Step(rule, 0, 0, bindings)
    with pytest.raises(FieldMismatchError, match="is a unit over Fq\\(5\\), not Fq\\(7\\)$"):
        apply_step(start, step)
    res = verify_derivation(Derivation(F7, start, (step,), mw_zero(F7)))
    assert (res.ok, res.failed_step) == (False, 0) and "Fq(5)" in res.reason


def test_a_derivation_refuses_expressions_over_another_field():
    # its certificate would label Fq(5)'s g^k literals as Fq(7), where they are other units
    step = Step("R-steinberg", 0, 0, {"u": unit(F5, 2)})
    message = "^expressions over Fq\\({}\\) and Fq\\(5\\), not Fq\\(7\\)$"
    with pytest.raises(FieldMismatchError, match=message.format(5)):
        Derivation(F7, parse_expression(F5, "[2]*[4]"), (step,), mw_zero(F5))
    with pytest.raises(FieldMismatchError, match=message.format(7)):
        Derivation(F7, parse_expression(F7, "[2]*[6]"), (), mw_zero(F5))


def test_a_step_that_grows_a_word_past_the_bound_is_refused_before_it_is_built(monkeypatch):
    # [6] = [2] + [3] + eta*[2]*[3] turns the first atom of a full word into three
    start = parse_expression(F7, "*".join(["[6]"] + ["[2]"] * (MAX_WORD_LENGTH - 1)))
    built, real = [], rw.collect
    monkeypatch.setattr(rw, "collect",
                        lambda field, terms: built.extend(len(w) for w, _ in terms) or real(field, terms))
    step = Step("R-product", 0, 0, {"u": unit(F7, 2), "v": unit(F7, 3)})
    message = f"^a word of {MAX_WORD_LENGTH + 2} atoms exceeds the supported bound {MAX_WORD_LENGTH}$"
    with pytest.raises(ValueError, match=message):
        apply_step(start, step)
    assert max(built, default=0) <= MAX_WORD_LENGTH


def test_a_round_trip_over_tabulated_fields_rechecks_nothing(monkeypatch):
    """With the tables of the benchmark fields built, deriving, serializing,
    reading back and replaying a certificate of g^k literals checks no carrier
    and makes no packed product: every unit comes off the tables."""
    tuples = {}
    for q in (2187, 10007):
        field = finite_field(q)
        ks = [5, q // 3, q - 4]
        a, b, c = map(field.generator_power, ks)
        rest = unit_add(one(field), unit_neg(unit_add(unit_add(a, b), c)))  # a + b + c + rest = 1
        tuples[field] = [f"g^{k}" for k in ks] + [field.literal(rest)]  # builds the tables
    counts = {"check_carrier": 0, "_mul_packed": 0}
    for name in counts:
        real = getattr(fields.FiniteField, name)

        def counted(*args, real=real, name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(fields.FiniteField, name, counted)
    for field, literals in tuples.items():
        units = [parse_unit(field, text) for text in literals]
        data = json.loads(json.dumps(derive_extended_steinberg(units).to_json()))
        replayed = derivation_from_json(data)
        assert verify_derivation(replayed).ok and data["end"] == "0"
        assert len(replayed.steps) == 3, data  # two sums and a closing rule
    assert counts == {"check_carrier": 0, "_mul_packed": 0}


# -- failure details of criteria 4 and 5 -------------------------------------------


def _steinberg_detail() -> str:
    from mwslice import checks

    result = checks.check_extended_steinberg(checks._Run("4 extended_steinberg", "full"))
    assert not result.ok
    return result.detail


def test_extended_steinberg_names_a_tuple_whose_derivation_gets_stuck(monkeypatch):
    real = rw.instantiate

    def kept(rule, fld, bindings):  # the Steinberg relation leaves its symbol in place
        lhs, rhs = real(rule, fld, bindings)
        return (lhs, lhs) if rule == "R-steinberg" else (lhs, rhs)

    monkeypatch.setattr(rw, "instantiate", kept)
    assert _steinberg_detail() == "q=3 tuple ('2', '2'): derivation failed to reach 0, stuck at [2]*[2]"


def test_extended_steinberg_names_a_tuple_whose_certificate_does_not_replay(monkeypatch):
    from mwslice import checks

    def short(units):  # the certificate loses its last step
        d = derive_extended_steinberg(units)
        return Derivation(d.field, d.start, d.steps[:-1], d.end)

    monkeypatch.setattr(checks, "derive_extended_steinberg", short)
    assert _steinberg_detail() == "q=3 tuple ('2', '2'): derivation ends at [2]*[2], not 0"


def test_extended_steinberg_names_a_tuple_whose_symbol_does_not_vanish(monkeypatch):
    from mwslice import checks
    from mwslice.milnor_witt import normal_form_from_coords

    monkeypatch.setattr(checks, "normalize",
                        lambda e, degree=None: normal_form_from_coords(e.field, 1, (1,)))
    assert _steinberg_detail() == "q=3 tuple ('2', '2'): nonzero normal form"


def _soundness_detail() -> str:
    from mwslice import checks

    result = checks.check_relation_soundness(checks._Run("5 relation_soundness", "full"))
    assert not result.ok
    return result.detail


def test_relation_soundness_names_a_rule_whose_sides_differ(monkeypatch):
    from mwslice import checks
    from mwslice.milnor_witt import mw_eta

    def eta_hyp_to_eta(rule, fld, bindings):  # 2 eta + eta^2 [-1] = eta, not 0
        lhs, rhs = instantiate(rule, fld, bindings)
        return (lhs, mw_eta(fld)) if rule == "R-eta-hyp" else (lhs, rhs)

    monkeypatch.setattr(checks, "instantiate", eta_hyp_to_eta)
    assert _soundness_detail() == "R-eta-hyp over F3 with {}: normal forms differ"


def test_relation_soundness_names_a_rule_it_never_ran(monkeypatch):
    from mwslice import checks

    real = checks._rule_instances
    monkeypatch.setattr(checks, "_rule_instances",
                        lambda field: ((r, b) for r, b in real(field) if r != "R-sum"))
    assert _soundness_detail() == "rules not exercised: {'R-sum'}"
