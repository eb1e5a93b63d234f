"""Expressions, normal forms, theta0, eta images, the cartesian square."""

import functools
import itertools
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mwslice import checks, milnor_witt
from mwslice.abelian import Ambient
from mwslice.checks import cartesian_check, k2_brute_force_order

from mwslice.fields import (
    COMPLEXES,
    REALS,
    enumerate_units,
    finite_field,
    multiplicative_generator,
    one,
    unit,
    unit_mul,
    unit_pow,
)
from mwslice.filtration import FiltrationQuery, eta_image_subgroup, kmw_times_In
from mwslice.forms import (
    GWClass,
    WittClass,
    form,
    gw_of_form,
    gw_one,
    gw_zero,
    witt_zero,
)
from mwslice.milnor_witt import (
    DegreeError,
    InhomogeneousError,
    MWNormalForm,
    eta_coords,
    expression_literal,
    kmw_ambient,
    kmw_generating_expressions,
    mw_eta,
    mw_int,
    mw_symbol,
    mw_symbols,
    mw_unit_form,
    mw_zero,
    normal_form_from_coords,
    normalize,
    parse_expression,
    theta0,
    theta0_inverse,
    to_witt,
)

F3 = finite_field(3)
F5 = finite_field(5)
F7 = finite_field(7)
F9 = finite_field(9)
ALL_FIELDS = (F3, F5, F7, F9, REALS, COMPLEXES)


def test_eta_hyperbolic_relation_everywhere():
    for field in ALL_FIELDS:
        e = parse_expression(field, "eta*(2 + eta*[-1])")
        assert normalize(e).is_zero


def test_one_symbol_vanishes():
    for field in ALL_FIELDS:
        assert normalize(parse_expression(field, "[1]")).is_zero


def test_degree_two_symbols_vanish_over_finite_fields():
    assert normalize(parse_expression(F7, "[3]*[5]")).is_zero
    # independently certified by the Steinberg machinery since 3 + 5 = 1 in F_7


def test_degree_grading():
    e1 = parse_expression(F7, "[2]*[3]")
    e2 = parse_expression(F7, "eta*[5]")
    assert e1.degree() == 2 and e2.degree() == 0
    assert (e1 * e2).degree() == 2


def test_inhomogeneous_rejected():
    e = parse_expression(F7, "[2] + 1")
    with pytest.raises(InhomogeneousError):
        normalize(e)


def test_eta_commutation_normal_forms():
    for u in enumerate_units(F5):
        left = mw_eta(F5) * mw_symbol(u)
        right = mw_symbol(u) * mw_eta(F5)
        assert normalize(left) == normalize(right)


def test_product_relation_normal_forms():
    for field in (F5, F7, REALS):
        units = (
            enumerate_units(field)
            if field.is_finite
            else [unit(field, v) for v in (2, -3, -1, 5)]
        )
        for u in units:
            for v in units:
                uv = unit_mul(u, v)
                lhs = mw_symbol(uv)
                rhs = mw_symbol(u) + mw_symbol(v) + mw_eta(field) * mw_symbol(u) * mw_symbol(v)
                assert normalize(lhs) == normalize(rhs)


def test_unit_form_squares():
    # <u> * <u> = <u^2> = <1> after theta0
    for u in enumerate_units(F7):
        sq = theta0(mw_unit_form(u) * mw_unit_form(u))
        assert sq == theta0(mw_int(F7, 1))


def test_theta0_examples():
    for field in ALL_FIELDS:
        u = unit(field, -1)
        img = theta0(mw_eta(field) * mw_symbol(u))
        assert img == gw_of_form(form(field, -1)) - gw_of_form(form(field, 1))
        assert theta0(mw_unit_form(u)) == gw_of_form(form(field, -1))
    with pytest.raises(DegreeError):
        theta0(mw_symbol(unit(F7, 3)))


def test_theta0_ring_iso_small():
    units = enumerate_units(F5)
    exprs = [mw_int(F5, 1), mw_int(F5, -1)] + [mw_unit_form(u) for u in units]
    for e1 in exprs:
        for e2 in exprs:
            assert theta0(e1 * e2) == theta0(e1) * theta0(e2)
            assert theta0(e1 + e2) == theta0(e1) + theta0(e2)


def test_theta0_inverse_round_trip():
    boxes = {
        F5: [GWClass(F5, (r, d)) for r in range(-3, 4) for d in (0, 1)],
        REALS: [GWClass(REALS, (r, i)) for r in range(-3, 4) for i in range(-3, 4)],
        COMPLEXES: [GWClass(COMPLEXES, (r,)) for r in range(-3, 4)],
    }
    for field, box in boxes.items():
        for x in box:
            assert theta0(theta0_inverse(x)) == x


def test_to_witt_examples():
    for field in ALL_FIELDS:
        # eta maps to the unit class <1> of W(F), written out in Witt coordinates
        one = {F3: (1,), F5: (1, 0), F7: (1,), F9: (1, 0), REALS: (1,), COMPLEXES: (1,)}[field]
        assert to_witt(mw_eta(field)) == WittClass(field, one)
    assert to_witt(parse_expression(REALS, "eta*eta*[-1]")).coords == (-2,)
    assert to_witt(parse_expression(F5, "2*eta + eta*eta*[-1]")).is_zero
    with pytest.raises(DegreeError):
        to_witt(mw_int(F5, 1))


def test_the_zero_expression_is_zero_in_w_and_has_no_coordinates():
    assert to_witt(mw_zero(F7)) == witt_zero(F7)
    with pytest.raises(ValueError, match=r"^the zero normal form has no fixed degree$"):
        normalize(mw_zero(F7)).coords()


def test_negative_degree_collapse_matches_normalize():
    exprs = ["eta", "eta*eta", "eta*[2]*eta", "3*eta - eta*eta*[2]"]
    for field in (F3, F7, REALS):
        for text in exprs:
            e = parse_expression(field, text)
            if e.degree() is not None and e.degree() < 0:
                assert normalize(e).value == to_witt(e)


def test_eta_action_on_coordinates():
    # real: degree m+1 -> m multiplies the coordinate by -2
    assert eta_coords(REALS, 3, (1,)) == (-2,)
    # finite degree 1 -> 0 lands on the ideal bit
    g = multiplicative_generator(F7)
    img = eta_coords(F7, 1, normalize(mw_symbol(g)).coords())
    assert img == (0, 1)


def test_eta_on_the_zero_form_with_an_explicit_degree():
    for field in ALL_FIELDS:
        for m in (3, 2, 1, 0, -1):
            img = eta_coords(field, m, (0,) * kmw_ambient(field, m).dim)
            assert normal_form_from_coords(field, m - 1, img).is_zero


def test_coordinate_eta_agrees_with_the_presentation():
    # A sign error in a hook (say 2c for -2c over R) maps each subgroup onto
    # itself, so only a comparison of elements can see it.
    cases = 0
    for field in (F3, F7, F9, finite_field(25), REALS, COMPLEXES):
        for m in range(-3, 4):
            target = kmw_ambient(field, m - 1)
            for e in kmw_generating_expressions(field, m):
                got = eta_coords(field, m, normalize(e, degree=m).coords())
                want = normalize(mw_eta(field) * e, degree=m - 1).coords()
                assert target.reduce(got) == want, (str(field), m, str(e))
                cases += 1
    assert cases == 51


def test_eta_power_images_equal_ideal_powers():
    for field in ALL_FIELDS:
        for n in range(1, 9):
            image = eta_image_subgroup(FiltrationQuery(n, 0, 0, field))
            assert image == kmw_times_In(0, n, field)


def test_degree_one_finite_coordinates():
    g = multiplicative_generator(F9)
    nf = normalize(mw_symbol(g))
    assert nf.value == g and nf.ideal_bit == 1
    # addition is multiplicative on unit classes
    two = normalize(mw_symbol(g) + mw_symbol(g))
    assert two.value == unit_mul(g, g) and two.ideal_bit == 0
    assert normalize(mw_int(F9, 8) * mw_symbol(g), degree=1).is_zero  # g^8 = 1 in F_9


def test_real_degree_one_sign_coordinate():
    assert normalize(parse_expression(REALS, "[-1]")).value == 1
    assert normalize(parse_expression(REALS, "[2]")).value == 0
    assert normalize(parse_expression(REALS, "[-3]")).value == 1
    assert normalize(parse_expression(REALS, "[-1]*[-1]")).value == 1
    assert normalize(parse_expression(REALS, "[-1]*[2]"), degree=2).is_zero


def test_normalize_multiplicative_at_degree_zero():
    units = enumerate_units(F5)
    exprs = [mw_unit_form(u) for u in units] + [mw_int(F5, 2)]
    for e1 in exprs:
        for e2 in exprs:
            assert theta0(e1 * e2) == theta0(e1) * theta0(e2)


def test_degree_one_coordinates_need_no_unit_walk(monkeypatch):
    # coordinate k is g^k for the canonical generator g, by exponentiation
    from mwslice import fields

    def refuse(field):
        raise AssertionError(f"enumerated the units of {field}")

    monkeypatch.setattr(fields, "enumerate_units", refuse)
    monkeypatch.setattr(fields.FiniteField, "_tabulate", refuse)  # the walk behind a log
    field = finite_field(999983)
    tables = field._tables
    fields._set(field, "_tables", None)  # as in a fresh process: the field is interned
    try:
        g = multiplicative_generator(field)
        for k in (0, 1, field.order - 2, -1, 123457):
            nf = normal_form_from_coords(field, 1, (k,))
            assert nf.value == unit_pow(g, k)
            assert nf.ideal_bit == k % 2
    finally:
        fields._set(field, "_tables", tables)


def test_kmw_normalize_refuses_a_bit_that_is_not_the_square_class():
    g = multiplicative_generator(F7)  # a nonsquare: the true ideal bit is 1
    with pytest.raises(ValueError, match="cartesian-square"):
        F7.kmw_normalize(1, mw_symbol(g).terms, lambda word, coeff: gw_zero(F7))


@pytest.mark.parametrize("field", [F7, F9, finite_field(25), REALS, COMPLEXES], ids=str)
def test_normal_forms_round_trip_their_coordinates(field):
    # every residue of a torsion coordinate, some unreduced; -3..3 of a free one
    for m in range(-3, 4):
        amb = kmw_ambient(field, m)
        ranges = [range(-3, 4)] * amb.free_rank + [range(-3, t) for t in amb.torsion]
        by_coords = {}
        for x in itertools.product(*ranges):
            nf = normal_form_from_coords(field, m, x)
            reduced = amb.reduce(x)
            assert nf.coords() == reduced and nf.degree == m
            assert nf.is_zero == (not any(reduced))
            first = by_coords.setdefault(reduced, nf)
            assert nf == first and hash(nf) == hash(first)
        assert len(set(by_coords.values())) == len(by_coords)
        zero = MWNormalForm(field, None)
        assert by_coords[(0,) * amb.dim] == zero and hash(zero) == hash(by_coords[(0,) * amb.dim])



@pytest.mark.parametrize("field, degree, value", [
    (F7, 1, 5),
    (F7, 1, unit(F5, 2)),
    (F7, 2, unit(F7, 3)),
    (F7, 0, GWClass(F5, (1, 0))),
    (F7, -1, GWClass(F7, (1, 0))),
    (F7, None, unit(F7, 3)),
    (REALS, 0, 3),
    (REALS, 2, None),
    (REALS, 1, unit(REALS, -1)),
    (COMPLEXES, 1, 1),
    (COMPLEXES, 3, 0),
], ids=str)
def test_a_normal_form_refuses_a_value_of_the_wrong_type(field, degree, value):
    with pytest.raises(ValueError):
        MWNormalForm(field, degree, value)

def test_kmw_ambients():
    assert kmw_ambient(F7, 2).is_trivial
    assert kmw_ambient(F7, 1).torsion == (6,)
    assert kmw_ambient(F7, 0).free_rank == 1
    assert kmw_ambient(F7, -2).torsion == (4,)
    assert kmw_ambient(REALS, 4).free_rank == 1
    assert kmw_ambient(COMPLEXES, 3).is_trivial


@pytest.mark.parametrize("field", [F7, REALS, COMPLEXES], ids=str)
def test_a_coordinate_group_is_one_object_per_field_and_degree(field):
    for m in range(-2, 4):
        assert kmw_ambient(field, m) is kmw_ambient(field, m)


def test_generating_expressions_generate():
    for field in (F3, F5, F9):
        for m in range(-3, 4):
            gens = kmw_generating_expressions(field, m)
            amb = kmw_ambient(field, m)
            from mwslice.abelian import SubgroupDescription, full_subgroup

            coords = tuple(normalize(g, degree=m).coords() for g in gens)
            assert SubgroupDescription(amb, coords) == full_subgroup(amb)


def test_milnor_oracle():
    # K^M_2(F_q) = 0, brute-forced from the Steinberg presentation
    for q in (3, 5, 7, 9, 11, 13):
        assert k2_brute_force_order(finite_field(q)) == 1


def test_symbols_with_nonunit_sum_generate_degree_one():
    # V_n-style generation at n = 1: classes [u], u != 1, already span
    from mwslice.abelian import SubgroupDescription, full_subgroup

    for q in (5, 7, 9):
        field = finite_field(q)
        amb = kmw_ambient(field, 1)
        coords = tuple(
            normalize(mw_symbol(u)).coords()
            for u in enumerate_units(field)
            if u != one(field)
        )
        assert SubgroupDescription(amb, coords) == full_subgroup(amb)


@pytest.mark.parametrize("q,m,expected_fiber", [(3, 1, 2), (7, 1, 6), (13, 1, 12), (5, 2, 1), (9, 2, 1)])
def test_cartesian_check(q, m, expected_fiber):
    field = finite_field(q)
    cases, failure = cartesian_check(field, m)
    assert failure is None
    assert kmw_ambient(field, m).order() == expected_fiber
    assert cases == (q - 1) ** m


def test_cartesian_check_names_the_first_failing_symbol(monkeypatch):
    monkeypatch.setattr(checks, "pfister", lambda units: gw_one(units[0].field))
    assert cartesian_check(F7, 1) == (1, "the square does not commute at [1]")


def _cartesian_square_detail() -> str:
    return checks.check_cartesian_square(checks._Run("7 cartesian_square", "quick")).detail


def test_cartesian_square_prints_the_counterexample_alone(monkeypatch):
    monkeypatch.setattr(checks, "cartesian_check",
                        lambda field, m: (1, "fiber-product order 4 != coordinate order 2"))
    assert _cartesian_square_detail() == "q=3, m=1: fiber-product order 4 != coordinate order 2"


def test_cartesian_square_prints_a_wrong_coordinate_order_alone(monkeypatch):
    monkeypatch.setattr(checks, "cartesian_check", lambda field, m: (1, None))
    monkeypatch.setattr(checks, "kmw_ambient", lambda field, m: Ambient(0, (4,)))
    assert _cartesian_square_detail() == "q=3, m=1: coordinate order 4 != 2"


def test_parser_round_trip():
    texts = [
        "eta*(2 + eta*[-1])",
        "[2]*[3] - 4*eta",
        "-[g^2] + 7",
        "(1 + eta*[2])*(1 + eta*[3])",
    ]
    for text in texts:
        e = parse_expression(F7, text)
        again = parse_expression(F7, expression_literal(e))
        assert again.terms == e.terms


# Summands without a top-level + or -, chosen from few words so that sums repeat and cancel.
SUMMANDS = ("1", "2", "eta", "[2]", "[3]", "-[2]", "eta*[2]", "eta*[3]", "[2]*[3]",
            "3*[3]*[2]", "(1 + eta*[3])", "(eta*[2] - 2)")


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("+-"), st.sampled_from(SUMMANDS)),
                min_size=1, max_size=12))
def test_a_sum_parses_to_the_fold_of_its_summands(pairs):
    text = pairs[0][1] + "".join(f" {op} {summand}" for op, summand in pairs[1:])
    parts = [parse_expression(F7, pairs[0][1])] + [
        parse_expression(F7, summand) if op == "+" else mw_int(F7, -1) * parse_expression(F7, summand)
        for op, summand in pairs[1:]]
    assert parse_expression(F7, text).terms == functools.reduce(operator.add, parts).terms


# Unit literals per field for the expression trees below.
TREE_UNITS = {F7: ("3", "-1", "2/3", "g^2"), F9: ("1", "2", "g", "g^5"), REALS: ("-1", "2", "-3/4")}


def _tree_text(tree) -> tuple[str, int]:
    """The text of an expression tree and its grammar level: 0 a factor, 1 a
    product, 2 a sum.  A child above the level its place takes is parenthesized."""

    def at(child, level):
        text, own = _tree_text(child)
        return text if own <= level else f"({text})"

    kind, *args = tree
    if kind == "int":
        return str(args[0]), 0
    if kind == "eta":
        return "eta", 0
    if kind == "unit":
        return f"[{args[0]}]", 0
    if kind == "neg":
        return "-" + at(args[0], 0), 0
    if kind == "paren":
        return f"({_tree_text(args[0])[0]})", 0
    if kind == "mul":
        return f"{at(args[0], 1)}*{at(args[1], 0)}", 1
    first, rest = args
    return at(first, 2) + "".join(f" {op} {at(x, 1)}" for op, x in rest), 2


def _tree_value(field, tree):
    """The tree evaluated with ``+`` and ``*`` of ``MWExpression``, a unary
    minus as the product by -1 and a sum as the left fold of its summands."""
    kind, *args = tree
    if kind == "int":
        return mw_int(field, args[0])
    if kind == "eta":
        return mw_eta(field)
    if kind == "unit":
        return mw_symbol(unit(field, args[0]))
    if kind == "neg":
        return mw_int(field, -1) * _tree_value(field, args[0])
    if kind == "paren":
        return _tree_value(field, args[0])
    if kind == "mul":
        return _tree_value(field, args[0]) * _tree_value(field, args[1])
    first, rest = args
    out = _tree_value(field, first)
    for op, x in rest:
        value = _tree_value(field, x)
        out = out + (value if op == "+" else mw_int(field, -1) * value)
    return out


def _trees(units):
    atoms = st.one_of(st.tuples(st.just("int"), st.integers(0, 5)), st.just(("eta",)),
                      st.tuples(st.just("unit"), st.sampled_from(units)))
    return st.recursive(atoms, lambda children: st.one_of(
        st.tuples(st.just("neg"), children),
        st.tuples(st.just("paren"), children),
        st.tuples(st.just("mul"), children, children),
        st.tuples(st.just("sum"), children,
                  st.lists(st.tuples(st.sampled_from("+-"), children), min_size=1, max_size=5)),
    ), max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(TREE_UNITS)).flatmap(lambda f: st.tuples(st.just(f), _trees(TREE_UNITS[f]))))
@example((F7, ("sum", ("int", 1), [("+", ("eta",)), ("-", ("int", 1)), ("+", ("int", 1))])))
def test_a_parsed_expression_equals_its_tree_evaluated(case):
    """The example ``1 + eta - 1 + 1`` cancels a word and adds it back, last."""
    field, tree = case
    text = _tree_text(tree)[0]
    parsed = parse_expression(field, text)
    assert parsed.field is field
    assert parsed.terms == _tree_value(field, tree).terms, text


def test_a_trailing_blank_is_ignored():
    assert parse_expression(F7, "[3] ") == parse_expression(F7, "[3]")
    assert parse_expression(F7, "[3] ").terms == (((unit(F7, 3),), 1),)


def test_a_long_sum_is_collected_once_not_per_summand(monkeypatch):
    real, calls = milnor_witt.collect, []
    monkeypatch.setattr(milnor_witt, "collect", lambda field, terms: calls.append(terms) or real(field, terms))
    text = " + ".join(f"[g^{k}]" for k in range(1, 1000))
    assert len(parse_expression(finite_field(10007), text).terms) == 999
    assert len(calls) <= 1


def test_a_sum_is_refused_where_the_collected_terms_pass_the_bound():
    field = finite_field(10007)
    units = [f"[g^{k}]" for k in range(1, 1002)]
    with pytest.raises(ValueError, match="^1001 monomials exceed the supported bound 1000$"):
        parse_expression(field, " + ".join(units))
    # a cancelled word leaves room: 1,002 summands collect to 1,000 terms
    text = " + ".join(units[:999]) + " - [g^1] + [g^1000] + [g^1001]"
    assert len(parse_expression(field, text).terms) == 1000


def test_parser_rejects_garbage():
    with pytest.raises(ValueError):
        parse_expression(F7, "[2] & [3]")
    with pytest.raises(ValueError):
        parse_expression(F7, "(1 + eta")
    with pytest.raises(ValueError):
        parse_expression(F7, "[0]")


# Each refusal of the parser with its exact message.  A bad token anywhere in
# the text is reported before a bad literal ahead of it.
PARSER_REFUSALS = [
    ("bad-token", F7, "[3] + $ 2", "bad token at ' $ 2'"),
    ("trailing", F7, "[3] )", "trailing tokens in '[3] )'"),
    ("unbalanced", F7, "eta*(2 + [3]", "unbalanced parentheses in 'eta*(2 + [3]'"),
    ("end", F7, "[3] +", "unexpected end of expression in '[3] +'"),
    ("unexpected", F7, "2 + * [3]", "unexpected token '*' in '2 + * [3]'"),
    ("terms", REALS, " + ".join(f"[{n}]" for n in range(1, 1002)),
     "1001 monomials exceed the supported bound 1000"),
    ("product", F7, "*".join(["eta"] * 1001), "a word of 1001 atoms exceeds the supported bound 1000"),
    ("bad-literal", F7, "[x] + [y]", "unrecognised unit literal 'x'"),
    ("bad-token-after-bad-literal", F7, "[x] + $", "bad token at ' $'"),
]


@pytest.mark.parametrize("field, text, message", [case[1:] for case in PARSER_REFUSALS],
                         ids=[case[0] for case in PARSER_REFUSALS])
def test_parser_refusals_keep_their_messages(field, text, message):
    with pytest.raises(ValueError) as info:
        parse_expression(field, text)
    assert str(info.value) == message


def test_an_expression_built_from_outside_checks_its_units():
    from mwslice.fields import FieldMismatchError
    from mwslice.milnor_witt import ETA, MWExpression

    ok = MWExpression(F7, (((ETA, unit(F7, 3)), 2), ((), 1)))
    assert str(ok) == "2*eta*[3] + 1"
    for word in [(unit(F5, 2),), (ETA, unit(F7, 3), unit(F5, 2))]:
        with pytest.raises(FieldMismatchError, match="^symbol unit over the wrong field$"):
            MWExpression(F7, (((unit(F7, 3),), 1), (word, 1)))


def test_an_expression_built_from_outside_is_collected(monkeypatch):
    """Each word once, in first-occurrence order, with a nonzero coefficient;
    so a derivation's end, however built, is compared pair by pair."""
    from mwslice import rewriting
    from mwslice.milnor_witt import ETA, MWExpression
    from mwslice.rewriting import Derivation, verify_derivation

    u, v = unit(F7, 3), unit(F7, 5)
    e = MWExpression(F7, [((u,), 2), ((ETA, v), 1), ((), 4), ((u,), -2), ((ETA, v), 1), ((), 0)])
    assert e.terms == (((ETA, v), 2), ((), 4))
    assert MWExpression(F7, [((u,), 0)]).terms == ()
    start = parse_expression(F7, "2*eta*[5] + 4")
    d = Derivation(F7, start, (), e)
    real, calls = rewriting.collect, []
    monkeypatch.setattr(rewriting, "collect", lambda field, terms: calls.append(terms) or real(field, terms))
    assert verify_derivation(d).ok
    assert calls == []


def test_an_expression_past_the_bounds_is_refused_with_its_message():
    from mwslice.milnor_witt import MWExpression

    units = enumerate_units(F7)
    with pytest.raises(ValueError) as info:
        MWExpression(F7, (((units[1],) * 1001, 1),))
    assert str(info.value) == "a word of 1001 atoms exceeds the supported bound 1000"
    words = list(itertools.product(units, repeat=4))
    a, b = (MWExpression(F7, tuple((w, 1) for w in part))
            for part in (words[:600], words[600:1200]))
    with pytest.raises(ValueError) as info:
        a + b
    assert str(info.value) == "1200 monomials exceed the supported bound 1000"


def test_a_sum_over_two_fields_is_refused():
    from mwslice.fields import FieldMismatchError

    with pytest.raises(FieldMismatchError) as info:
        mw_symbol(unit(F5, 2)) + mw_symbol(unit(F7, 3))
    assert str(info.value) == "expressions over Fq(5) and Fq(7)"


def test_a_long_product_is_refused_before_its_word_is_built(monkeypatch):
    """Every product goes through ``_word_product``; the probe hands it words
    that record the length of each word joined from them."""
    joined, real = [], milnor_witt._word_product

    class Word(tuple):
        def __add__(self, other):
            joined.append(len(self) + len(other))
            return Word(tuple.__add__(self, other))

    monkeypatch.setattr(milnor_witt, "_word_product",
                        lambda left, right: real([(Word(w), c) for w, c in left], right))
    limit = milnor_witt.MAX_WORD_LENGTH
    message = f"^a word of {limit + 1} atoms exceeds the supported bound {limit}$"
    assert len(parse_expression(F7, "*".join(["[2]"] * limit)).terms[0][0]) == limit
    assert max(joined) == limit
    joined.clear()
    with pytest.raises(ValueError, match=message):
        parse_expression(F7, "*".join(["[2]"] * (limit + 1)))
    assert joined and max(joined) == limit
    joined.clear()
    u = unit(F7, 2)
    long_word = mw_symbols([u] * (limit - 499))
    for left in (mw_symbols([u] * 500), mw_symbols([u] * 500) + mw_int(F7, 1)):
        with pytest.raises(ValueError, match=message):
            left * long_word
    assert joined == []


def test_each_term_of_a_normal_form_builds_one_gw_class(monkeypatch):
    from mwslice.forms import pfister
    from mwslice.milnor_witt import ETA

    u7, u9, m1 = unit(F7, 3), unit(F9, (1, 1)), unit(REALS, -1)
    cases = [(F7, (ETA, u7), 4), (F7, (ETA, ETA, u7, u7), -3), (F7, (), 5),
             (F9, (u9, ETA, ETA, ETA), 2), (REALS, (ETA, m1, ETA, m1), -2), (COMPLEXES, (), 3)]
    symbols = [tuple(a for a in w if a is not ETA) for _, w, _ in cases]
    expected = [(pfister(s) if s else gw_one(f)).scale(c) for (f, _, c), s in zip(cases, symbols)]
    built, init = [], GWClass.__init__
    monkeypatch.setattr(GWClass, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    for (field, w, c), want in zip(cases, expected):
        built.clear()
        assert milnor_witt._term_gw_part(field, w, c) == want
        assert len(built) == 1, w


def test_a_degree_one_normal_form_reads_each_word_once(monkeypatch):
    """Each term's GW part is built once; a degree-1 word without eta is one unit atom."""
    real, parts = milnor_witt._term_gw_part, []
    monkeypatch.setattr(milnor_witt, "_term_gw_part",
                        lambda field, w, c: parts.append(w) or real(field, w, c))
    e = parse_expression(F7, "[3] + 2*[5] + [2]*[3]*eta + eta*[6]*[5] - [4]")
    nf = normalize(e)
    assert parts == [w for w, _ in e.terms]
    assert nf.value == unit(F7, "75/4")  # [3] + 2[5] - [4] = [3 * 5^2 / 4]
