"""GW/Witt coordinate laws, validated against the brute-force isometry oracle."""

import itertools
from fractions import Fraction

import pytest

from mwslice.checks import (
    binary_isometric,
    brute_force_gw,
    rep_form,
    represents,
    witt_oracle_classes,
)
from mwslice.fields import (
    COMPLEXES,
    REALS,
    FieldMismatchError,
    enumerate_units,
    finite_field,
    multiplicative_generator,
    one,
    parse_field,
    unit,
    unit_mul,
)
from mwslice.filtration import kmw_times_In
from mwslice.forms import (
    GWClass,
    QuadraticForm,
    form,
    gw_of_form,
    gw_box,
    gw_of_unit,
    gw_one,
    gw_zero,
    hyperbolic,
    parse_form,
    pfister,
    witt_class,
    witt_zero,
)


def in_ideal_power(x: GWClass, n: int) -> bool:
    """x in I(F)^n: membership in the level K^MW_0 * I^n."""
    return kmw_times_In(0, n, x.field).contains(x.coords)


F3 = finite_field(3)
F5 = finite_field(5)
F7 = finite_field(7)
F9 = finite_field(9)
SMALL_Q = (3, 5, 7, 9, 11, 13)


def test_gw_of_form_examples():
    assert gw_of_form(form(REALS, 1, -1)) == GWClass(REALS, (2, 1))   # signature 0
    assert gw_of_form(form(F7, 2)) == GWClass(F7, (1, 0))          # 2 is a square mod 7
    assert gw_of_form(form(COMPLEXES, 5, 7)) == GWClass(COMPLEXES, (2,))


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_doubled_entries_collapse(q):
    # <a,a> = <1,1> for every a: equal rank and discriminant, and the
    # exhaustive isometry oracle confirms the binary isometry directly
    field = finite_field(q)
    e = one(field)
    for a in enumerate_units(field):
        assert gw_of_form(QuadraticForm(field, (a, a))) == gw_of_form(
            QuadraticForm(field, (e, e))
        )
        assert binary_isometric(a, a, e, e)


def test_hyperbolic_classes():
    assert hyperbolic(REALS) == GWClass(REALS, (2, 1))
    assert hyperbolic(F7) == GWClass(F7, (2, 1))   # -1 is a nonsquare mod 7
    assert hyperbolic(F5) == GWClass(F5, (2, 0))   # -1 is a square mod 5
    assert hyperbolic(COMPLEXES) == GWClass(COMPLEXES, (2,))


def test_rank_zero_form_is_zero_class():
    assert gw_of_form(QuadraticForm(F5, ())) == gw_zero(F5)


@pytest.mark.parametrize("q", SMALL_Q)
def test_gw_addition_law_against_oracle(q):
    """Concatenation of diagonal forms must match coordinate addition."""
    field = finite_field(q)
    for bits1 in itertools.product((0, 1), repeat=2):
        for bits2 in itertools.product((0, 1), repeat=2):
            f1, f2 = rep_form(field, bits1), rep_form(field, bits2)
            concat = QuadraticForm(field, f1.diagonal + f2.diagonal)
            assert gw_of_form(concat) == gw_of_form(f1) + gw_of_form(f2)


@pytest.mark.parametrize("q", SMALL_Q + ("R", "C"))
def test_gw_multiplication_law_against_oracle(q):
    """Tensor product of diagonal forms must match coordinate multiplication.

    Over F_q the diagonals are representative forms; over R and C their
    entries are -3, 3 and -2/3, and the product's JSON is also
    checked against (n, #positive - #negative) counted from the entries.
    """
    if isinstance(q, int):
        field = finite_field(q)
        diagonals = [rep_form(field, bits).diagonal
                     for bits in itertools.product((0, 1), repeat=2)]
    else:
        field = parse_field(q)
        grid = [unit(field, v) for v in (-3, 3, Fraction(-2, 3))]
        diagonals = [d for n in (1, 2, 3) for d in itertools.product(grid, repeat=n)]
    for d1, d2 in itertools.product(diagonals, repeat=2):
        tensor = QuadraticForm(field, tuple(unit_mul(a, b) for a in d1 for b in d2))
        product = gw_of_form(QuadraticForm(field, d1)) * gw_of_form(QuadraticForm(field, d2))
        assert gw_of_form(tensor) == product
        if not field.is_finite:
            signs = [1 if u.value > 0 else -1 for u in tensor.diagonal]
            expected = {"field": q, "rank": len(signs)}
            if field == REALS:
                expected["signature"] = sum(signs)
            assert product.to_json() == expected


def test_gw_mul_of_rank_one_forms():
    for a in enumerate_units(F7):
        for b in enumerate_units(F7):
            assert gw_of_unit(a) * gw_of_unit(b) == gw_of_unit(unit_mul(a, b))


def test_nonsquare_pfister_square_vanishes():
    for q in (3, 5, 7, 9):
        field = finite_field(q)
        s = multiplicative_generator(field)
        x = gw_of_unit(s) - gw_one(field)
        assert (x * x).is_zero


def test_pfister_examples():
    m1 = unit(REALS, -1)
    assert pfister([m1]) == GWClass(REALS, (0, 1))        # signature -2
    assert pfister([m1, m1]) == GWClass(REALS, (0, -2))   # signature 4
    # squares give the zero element
    assert pfister([unit(REALS, 4)]).is_zero
    assert pfister([unit(F7, 2)]).is_zero
    with pytest.raises(ValueError):
        pfister([])


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_pfister_lands_in_ideal_powers(q):
    field = finite_field(q)
    units = enumerate_units(field)
    for n in (1, 2, 3, 4):
        for tup in itertools.product(units, repeat=n):
            assert in_ideal_power(pfister(list(tup)), n)


def test_witt_class_examples():
    assert witt_class(hyperbolic(F3)).is_zero
    assert witt_class(hyperbolic(REALS)).is_zero
    g = witt_class(gw_one(F3))
    assert g.coords == (1,)
    assert (g + g).coords == (2,)
    assert (g + g + g + g).is_zero           # Z/4 for q = 3 mod 4
    h5 = witt_class(gw_one(F5))
    assert (h5 + h5).is_zero                 # Z/2 x Z/2 for q = 1 mod 4
    assert witt_class(GWClass(REALS, (3, 1))).coords == (1,)


@pytest.mark.parametrize("q", SMALL_Q)
def test_witt_ring_homomorphism(q):
    field = finite_field(q)
    box = [GWClass(field, (r, d)) for r in range(-3, 4) for d in (0, 1)]
    for x in box:
        for y in box:
            assert witt_class(x + y) == witt_class(x) + witt_class(y)
            assert witt_class(x * y) == witt_class(x) * witt_class(y)
    # kernel is exactly the subgroup generated by the hyperbolic class
    h = hyperbolic(field)
    kernel = [x for x in box if witt_class(x).is_zero]
    for x in kernel:
        # x = k*h for some integer k: rank determines k, the rest must match
        assert x.rank % 2 == 0
        assert x == h.scale(x.rank // 2)


@pytest.mark.parametrize("q", SMALL_Q)
def test_witt_structure_oracle(q):
    field = finite_field(q)
    classes = witt_oracle_classes(field, 6)
    assert len(classes) == 4
    zero_class = next(cls for cls in classes if () in cls)
    # <1,1> is Witt-trivial iff q = 1 mod 4 (Z/2 x Z/2 vs Z/4)
    assert ((0, 0) in zero_class) == (q % 4 == 1)


def test_in_fundamental_power_real():
    for n in range(1, 9):
        for k in (-3, -1, 1, 2):
            # rank 0, signature 2^n k: index -2^(n-1) k
            assert in_ideal_power(GWClass(REALS, (0, -(1 << (n - 1)) * k)), n)
        if n >= 2:
            assert not in_ideal_power(GWClass(REALS, (0, 1 - (1 << (n - 1)))), n)
    assert in_ideal_power(GWClass(REALS, (3, 1)), 0)
    assert not in_ideal_power(GWClass(REALS, (3, 1)), 1)


def test_in_fundamental_power_finite():
    s = multiplicative_generator(F5)
    x = gw_of_unit(s) - gw_one(F5)
    assert in_ideal_power(x, 1)
    assert not in_ideal_power(x, 2)
    assert in_ideal_power(x + x, 2)  # 2x = 0 over F_q


def test_fundamental_power_descriptions():
    d3 = kmw_times_In(0, 3, REALS)
    assert d3.canonical_generators() == ((0, 4),)       # (2^{n-1}) in the index coordinate
    assert d3.index_in_saturation() == 4
    assert kmw_times_In(0, 1, F5).order() == 2
    assert kmw_times_In(0, 2, F5).is_zero
    assert kmw_times_In(0, 1, COMPLEXES).is_zero
    assert kmw_times_In(0, 0, COMPLEXES).is_full


def test_ideal_powers_multiply_into_higher_powers():
    for field in (F3, F5, REALS):
        for a, b in itertools.product((1, 2, 3, 4, 5, 6), repeat=2):
            da = kmw_times_In(0, a, field)
            db = kmw_times_In(0, b, field)
            dab = kmw_times_In(0, a + b, field)
            for ga in da.basis:
                for gb in db.basis:
                    x = GWClass(field, ga) * GWClass(field, gb)
                    assert dab.contains(x.coords)


def test_ideal_power_injects_into_witt():
    # I^r -> W(F) is injective for r >= 1: orders agree
    for field in (F3, F5, F9, REALS):
        for r in (1, 2, 3):
            gw_side = kmw_times_In(0, r, field)
            witt_side = kmw_times_In(-1, r, field)
            assert gw_side.order() == witt_side.order() or (
                gw_side.order() is None and witt_side.order() is None
            )


@pytest.mark.parametrize("q", SMALL_Q)
def test_brute_force_classification(q):
    field = finite_field(q)
    classes = brute_force_gw(field, 6)
    assert [sum(len(cls[0]) == rank for cls in classes) for rank in range(7)] == [1] + [2] * 6
    # invariants constant on classes and distinct across classes of equal rank
    for cls in classes:
        coords = {gw_of_form(rep_form(field, bits)).coords for bits in cls}
        assert len(coords) == 1


def test_brute_force_f3_rank2():
    # over F_3, <1,1> = <s,s> (1 + 1 = s) while <1,s> has the other discriminant
    assert brute_force_gw(F3, 2) == (((),), ((0,),), ((1,),), ((0, 0), (1, 1)), ((0, 1),))


def test_represents_oracle():
    # x^2 + y^2 represents every unit mod 5 except nothing (it is universal)
    e = one(F5)
    for c in enumerate_units(F5):
        assert represents(F5, (e, e), c)


def test_binary_isometry_oracle_symmetry():
    units = enumerate_units(F7)
    for a, b in itertools.product(units[:4], repeat=2):
        assert binary_isometric(a, b, b, a)


def test_parse_form():
    f = parse_form(F7, "<1,-1,2>")
    assert gw_of_form(f).rank == 3
    assert parse_form(F7, "<>").rank == 0
    with pytest.raises(ValueError):
        parse_form(F7, "1,2")


def test_witt_scale_and_units():
    assert witt_class(gw_one(F3)).coords == (1,)
    assert witt_zero(REALS).is_zero
    assert witt_class(gw_one(F5)).scale(2).is_zero


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=60)
@given(
    q=st.sampled_from([3, 5, 7, 9]),
    coords=st.lists(st.tuples(st.integers(-9, 9), st.integers(0, 1)), min_size=3, max_size=3),
)
def test_gw_ring_laws_property(q, coords):
    field = finite_field(q)
    x, y, z = (GWClass(field, c) for c in coords)
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert x + (-x) == gw_zero(field)
    assert x * gw_one(field) == x


@settings(max_examples=60)
@given(
    ranks=st.lists(st.integers(-6, 6), min_size=3, max_size=3),
    sigs=st.lists(st.integers(-6, 6), min_size=3, max_size=3),
)
def test_gw_ring_laws_real_property(ranks, sigs):
    classes = [
        GWClass(REALS, (r, (r - s) // 2)) for r, s in zip(ranks, sigs)
    ]
    x, y, z = classes
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert witt_class(x * y) == witt_class(x) * witt_class(y)


RING_LAW_FIELDS = (F7, F9, finite_field(2187), REALS, COMPLEXES)


@st.composite
def field_and_units(draw):
    """A field and 1-4 units over it: coefficient tuples over F_q, rationals over R and C."""
    field = draw(st.sampled_from(RING_LAW_FIELDS))
    if field.is_finite:
        carrier = st.lists(st.integers(0, field.p - 1), min_size=field.degree,
                           max_size=field.degree).filter(any).map(tuple)
    else:
        carrier = st.fractions(-20, 20, max_denominator=9).filter(bool)
    return field, draw(st.lists(carrier.map(lambda c: unit(field, c)), min_size=1, max_size=4))


@settings(max_examples=120, deadline=None)
@given(field_and_units())
def test_pfister_and_gw_of_form_are_folds_of_the_class_laws(case):
    field, units = case
    product, total = gw_one(field), gw_zero(field)
    for u in units:
        product = product * (gw_of_unit(u) - gw_one(field))
        total = total + gw_of_unit(u)
    assert pfister(units) == product
    assert pfister(units, -3) == product.scale(-3)
    assert gw_of_form(QuadraticForm(field, tuple(units))) == total


def test_pfister_builds_one_class(monkeypatch):
    built, init = [], GWClass.__init__
    monkeypatch.setattr(GWClass, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    for units in ([unit(F7, 3)], [unit(F7, 3)] * 4, [unit(F9, (1, 1))] * 2,
                  [unit(REALS, -1)] * 3, [unit(COMPLEXES, 2)] * 2):
        built.clear()
        pfister(units)
        pfister(units, 5)
        assert len(built) == 2, units


@pytest.mark.parametrize("build, message", [
    (lambda: gw_one(F3) + gw_one(F5), "classes over Fq(3) and Fq(5)"),
    (lambda: pfister([unit(F3, 2), unit(F5, 2)]), "pfister units must share one field"),
    (lambda: QuadraticForm(F3, (unit(F5, 2),)), "diagonal entries must share the form's field"),
], ids=["gw-sum", "pfister", "form-entry"])
def test_two_fields_are_refused_with_their_message(build, message):
    with pytest.raises(FieldMismatchError) as info:
        build()
    assert str(info.value) == message


def test_witt_products_over_c_are_gw_products_mod_2():
    # W(C) = Z/2 by the rank, a ring map from GW(C) = Z
    box = gw_box(COMPLEXES, 3)
    assert [x.rank for x in box] == [-3, -2, -1, 0, 1, 2, 3]
    for x, y in itertools.product(box, repeat=2):
        product = witt_class(x) * witt_class(y)
        assert product == witt_class(x * y)
        assert product.coords == (x.rank * y.rank % 2,)
