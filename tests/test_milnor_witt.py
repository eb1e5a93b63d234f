"""Expressions, normal forms, theta0, eta images, the cartesian square."""

import pytest

from mwslice.fields import (
    COMPLEXES,
    REALS,
    enumerate_units,
    finite_field,
    multiplicative_generator,
    one,
    unit,
    unit_mul,
)
from mwslice.filtration import FiltrationQuery, eta_image_subgroup
from mwslice.forms import GWClass, fundamental_power_description, gw_of_form, form
from mwslice.milnor_witt import (
    DegreeError,
    InhomogeneousError,
    cartesian_check,
    eta_times,
    expression_literal,
    k2_brute_force_order,
    kmw_ambient,
    kmw_generating_expressions,
    milnor_ambient,
    mw_eta,
    mw_int,
    mw_product,
    mw_symbol,
    mw_unit_form,
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
    assert mw_product(e1, e2).degree() == 2


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
            if field.kind == "finite"
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
        F5: [GWClass(F5, r, d) for r in range(-3, 4) for d in (0, 1)],
        REALS: [GWClass(REALS, r, 0, s) for r in range(-3, 4) for s in range(-3, 4)
                if (r - s) % 2 == 0],
        COMPLEXES: [GWClass(COMPLEXES, r) for r in range(-3, 4)],
    }
    for field, box in boxes.items():
        for x in box:
            assert theta0(theta0_inverse(x)) == x


def test_to_witt_examples():
    for field in ALL_FIELDS:
        w = to_witt(mw_eta(field))
        from mwslice.forms import witt_one

        assert w == witt_one(field)
    assert to_witt(parse_expression(REALS, "eta*eta*[-1]")).coords == (-2,)
    assert to_witt(parse_expression(F5, "2*eta + eta*eta*[-1]")).is_zero
    with pytest.raises(DegreeError):
        to_witt(mw_int(F5, 1))


def test_negative_degree_collapse_matches_normalize():
    exprs = ["eta", "eta*eta", "eta*[2]*eta", "3*eta - eta*eta*[2]"]
    for field in (F3, F7, REALS):
        for text in exprs:
            e = parse_expression(field, text)
            if e.degree() is not None and e.degree() < 0:
                assert normalize(e).witt == to_witt(e)


def test_eta_action_on_coordinates():
    # real: degree m+1 -> m multiplies the coordinate by -2
    nf = normal_form_from_coords(REALS, 3, (1,))
    down = eta_times(nf)
    assert down.degree == 2 and down.real_coord == -2
    # finite degree 1 -> 0 lands on the ideal bit
    g = multiplicative_generator(F7)
    nf1 = normalize(mw_symbol(g))
    img = eta_times(nf1)
    assert img.gw == GWClass(F7, 0, 1)


def test_eta_on_the_zero_form_with_an_explicit_degree():
    from mwslice.milnor_witt import MWNormalForm

    for field in ALL_FIELDS:
        for m in (3, 2, 1, 0, -1):
            img = eta_times(MWNormalForm(field, None), field_degree=m)
            assert img.degree == m - 1 and img.is_zero


def test_eta_power_images_equal_ideal_powers():
    for field in ALL_FIELDS:
        for n in range(1, 9):
            image = eta_image_subgroup(FiltrationQuery(n, 0, 0, field))
            assert image == fundamental_power_description(field, n)


def test_degree_one_finite_coordinates():
    g = multiplicative_generator(F9)
    nf = normalize(mw_symbol(g))
    assert nf.milnor_unit == g and nf.ideal_bit == 1
    # addition is multiplicative on unit classes
    two = normalize(mw_symbol(g) + mw_symbol(g))
    assert two.milnor_unit == unit_mul(g, g) and two.ideal_bit == 0
    assert normalize(mw_symbol(g).scale(8), degree=1).is_zero  # g^8 = 1 in F_9


def test_real_degree_one_sign_coordinate():
    assert normalize(parse_expression(REALS, "[-1]")).real_coord == 1
    assert normalize(parse_expression(REALS, "[2]")).real_coord == 0
    assert normalize(parse_expression(REALS, "[-3]")).real_coord == 1
    assert normalize(parse_expression(REALS, "[-1]*[-1]")).real_coord == 1
    assert normalize(parse_expression(REALS, "[-1]*[2]"), degree=2).is_zero


def test_normalize_multiplicative_at_degree_zero():
    units = enumerate_units(F5)
    exprs = [mw_unit_form(u) for u in units] + [mw_int(F5, 2)]
    for e1 in exprs:
        for e2 in exprs:
            assert theta0(e1 * e2) == theta0(e1) * theta0(e2)


def test_kmw_ambients():
    assert kmw_ambient(F7, 2).is_trivial
    assert kmw_ambient(F7, 1).torsion == (6,)
    assert kmw_ambient(F7, 0).free_rank == 1
    assert kmw_ambient(F7, -2).torsion == (4,)
    assert kmw_ambient(REALS, 4).free_rank == 1
    assert kmw_ambient(COMPLEXES, 3).is_trivial


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
    assert milnor_ambient(F7, 1).torsion == (6,)


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
    rep = cartesian_check(finite_field(q), m)
    assert rep.ok
    assert rep.fiber_order == expected_fiber
    assert rep.symbols_checked == (q - 1) ** m


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


def test_parser_rejects_garbage():
    with pytest.raises(ValueError):
        parse_expression(F7, "[2] & [3]")
    with pytest.raises(ValueError):
        parse_expression(F7, "(1 + eta")
    with pytest.raises(ValueError):
        parse_expression(F7, "[0]")
