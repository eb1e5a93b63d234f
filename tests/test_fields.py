"""Field kernel: exact arithmetic, square classes, enumeration, literals."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mwslice.fields import (
    COMPLEXES,
    REALS,
    FieldMismatchError,
    UnsupportedEnumerationError,
    default_modulus,
    enumerate_units,
    finite_field,
    multiplicative_generator,
    one,
    parse_field,
    parse_poly,
    parse_unit,
    square_class,
    square_class_bit,
    sum_to_one_tuples,
    unit,
    unit_add,
    unit_inv,
    unit_mul,
    unit_neg,
    unit_pow,
)

F3 = finite_field(3)
F5 = finite_field(5)
F7 = finite_field(7)
F9 = finite_field(9)


def test_unit_add_examples():
    assert unit_add(unit(F7, 3), unit(F7, 5)) == unit(F7, 1)
    assert unit_add(unit(REALS, 2), unit(REALS, -2)) is None


def test_unit_mul_inverse():
    for u in enumerate_units(F9):
        assert unit_mul(u, unit_inv(u)) == one(F9)


def test_mixed_field_error():
    with pytest.raises(FieldMismatchError):
        unit_mul(unit(F3, 1), unit(F5, 1))


def test_square_class_examples():
    # squares mod 7 are {1, 2, 4}
    assert square_class(unit(F7, 2)).label == "square"
    assert square_class(unit(F7, 3)).label == "nonsquare"
    assert square_class(unit(F7, -1)).label == "nonsquare"  # 7 = 3 mod 4
    assert square_class(unit(REALS, Fraction(-4))).label == "negative"
    assert square_class(unit(COMPLEXES, 5)).label == "trivial"


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_square_class_is_index_two_character(q):
    field = finite_field(q)
    units = enumerate_units(field)
    kernel = [u for u in units if square_class_bit(u) == 0]
    assert len(kernel) == (q - 1) // 2
    for a in units[:6]:
        for b in units[:6]:
            assert square_class_bit(unit_mul(a, b)) == (
                square_class_bit(a) + square_class_bit(b)
            ) % 2


def test_enumerate_units():
    assert [str(u) for u in enumerate_units(F3)] == ["1", "2"]
    u5 = enumerate_units(F5)
    assert len(u5) == 4 and u5[0] == one(F5)
    assert len(enumerate_units(F9)) == 8
    with pytest.raises(UnsupportedEnumerationError):
        enumerate_units(REALS)


def test_enumeration_order_is_generator_powers():
    g = multiplicative_generator(F7)
    assert [u for u in enumerate_units(F7)] == [unit_pow(g, k) for k in range(6)]


@pytest.mark.parametrize("q", [3, 5, 7, 9, 13])
def test_field_axioms_exhaustive_small(q):
    field = finite_field(q)
    units = enumerate_units(field)
    sample = units if q <= 7 else units[:6]
    for a, b, c in itertools.product(sample, repeat=3):
        assert unit_mul(unit_mul(a, b), c) == unit_mul(a, unit_mul(b, c))
        # distributivity: a*(b+c) == a*b + a*c, tracking the zero case
        s = unit_add(b, c)
        lhs = None if s is None else unit_mul(a, s)
        rhs = unit_add(unit_mul(a, b), unit_mul(a, c))
        assert lhs == rhs


def test_sum_to_one_f3():
    tuples = list(sum_to_one_tuples(F3, 2))
    assert tuples == [(unit(F3, 2), unit(F3, 2))]


def test_sum_to_one_forced_singleton():
    for field in (F3, F7, REALS, COMPLEXES):
        assert list(sum_to_one_tuples(field, 1)) == [(one(field),)]


def test_sum_to_one_f5_count():
    assert len(list(sum_to_one_tuples(F5, 2))) == 3


@pytest.mark.parametrize("q,n", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2)])
def test_sum_to_one_matches_naive_filter(q, n):
    field = finite_field(q)
    emitted = set(sum_to_one_tuples(field, n))
    naive = set()
    for tup in itertools.product(enumerate_units(field), repeat=n):
        total = None
        for u in tup:
            total = u if total is None else unit_add(total, u)
        if total == one(field):
            naive.add(tup)
    assert emitted == naive
    assert len(list(sum_to_one_tuples(field, n))) == len(emitted)  # duplicate-free


def test_sum_to_one_rational_family():
    for tup in itertools.islice(sum_to_one_tuples(REALS, 3, bound=2), 50):
        total = Fraction(0)
        for u in tup:
            assert u.value != 0
            total += u.value
        assert total == 1


def test_sum_to_one_rejects_bad_length():
    with pytest.raises(ValueError):
        list(sum_to_one_tuples(F3, 0))


def test_default_moduli():
    assert default_modulus(3, 2) == (1, 0, 1)       # x^2 + 1
    assert default_modulus(5, 2) == (2, 0, 1)       # x^2 + 2
    assert default_modulus(3, 3) == (1, 2, 0, 1)    # x^3 + 2x + 1


def test_field_literals():
    assert parse_field("Fq(7)") == F7
    assert parse_field("Fq(9;poly=x^2+1)") == F9
    assert parse_field("R") == REALS
    assert parse_field("C") == COMPLEXES
    with pytest.raises(ValueError):
        parse_field("Fq(8)")  # characteristic 2
    with pytest.raises(ValueError):
        parse_field("Q")


def test_poly_parsing():
    assert parse_poly("x^2+1") == (1, 0, 1)
    assert parse_poly("x^3+2*x+1") == (1, 2, 0, 1)
    assert parse_poly("x^2-x-1") == (-1, -1, 1)


def test_unit_literals():
    assert parse_unit(F7, "3") == unit(F7, 3)
    assert parse_unit(F7, "g^2") == unit_pow(multiplicative_generator(F7), 2)
    assert parse_unit(REALS, "-2/3") == unit(REALS, Fraction(-2, 3))
    with pytest.raises(ValueError):
        parse_unit(REALS, "g^2")
    with pytest.raises(ValueError):
        parse_unit(F7, "0")


def test_modulus_validation():
    with pytest.raises(ValueError):
        finite_field(9, modulus=(2, 0, 1))  # x^2 + 2 = (x+1)(x+2) over F_3


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
).filter(lambda f: f != 0)


@given(a=rationals, b=rationals)
def test_rational_units_exact(a, b):
    ua, ub = unit(REALS, a), unit(REALS, b)
    assert unit_mul(ua, ub).value == a * b
    s = unit_add(ua, ub)
    assert (s is None and a + b == 0) or s.value == a + b
    assert unit_neg(ua).value == -a
    assert unit_mul(ua, unit_inv(ua)) == one(REALS)


# -- exponentiation, square classes and the generator against oracles ----------

ODD_PRIME_POWERS = [
    q for q in range(3, 244, 2)
    if len({r for r in range(2, q + 1) if q % r == 0 and all(r % s for s in range(2, r))}) == 1
]


def _all_units(field):
    """Every unit, from its coefficient tuple, in increasing encoding order."""
    out = []
    for high in itertools.product(range(field.p), repeat=field.degree):
        if any(high):
            out.append(unit(field, high[::-1]))
    return out


def _pow_by_mul(a, n):
    """a^n for n >= 0 by square-and-multiply over unit_mul alone."""
    result, base = one(a.field), a
    while n:
        if n & 1:
            result = unit_mul(result, base)
        base = unit_mul(base, base)
        n >>= 1
    return result


def _order_by_counting(u):
    n, acc = 1, u
    while acc != one(u.field):
        acc = unit_mul(acc, u)
        n += 1
    return n


@pytest.mark.parametrize("q,sample", [(3, None), (9, None), (25, None), (27, None),
                                      (2187, 12), (10007, 12)])
def test_unit_pow_matches_multiplication_oracle(q, sample):
    field = finite_field(q)
    units = _all_units(field) if sample is None else [
        unit(field, [(7919 * k + i * i) % field.p for i in range(field.degree)])
        for k in range(1, sample + 1)
    ]
    for a in units:
        for n in (0, 1, q - 2, q - 1, q, -1, -(q + 3), 10**30 + 7):
            got = unit_pow(a, n)
            if n >= 0:
                assert got == _pow_by_mul(a, n), (a, n)
            else:
                assert unit_mul(got, _pow_by_mul(a, -n)) == one(field), (a, n)


@pytest.mark.parametrize("q", [3, 9, 25, 27, 10007])
def test_unit_pow_negative_is_inverse(q):
    field = finite_field(q)
    for a in _all_units(field)[:30]:
        for n in (1, 2, q - 2, q + 5, 10**30 + 7):
            assert unit_pow(a, -n) == unit_inv(unit_pow(a, n))


def test_rational_pow_negative_exponents():
    assert unit_pow(unit(REALS, Fraction(2, 3)), -3) == unit(REALS, Fraction(27, 8))
    assert unit_pow(unit(REALS, -2), -1) == unit(REALS, Fraction(-1, 2))
    assert unit_pow(unit(REALS, -2), 0) == one(REALS)
    assert unit_pow(unit(COMPLEXES, 5), -2) == unit(COMPLEXES, Fraction(1, 25))


@pytest.mark.parametrize("q", [q for q in ODD_PRIME_POWERS if q <= 125])
def test_square_class_is_membership_in_squares(q):
    field = finite_field(q)
    units = _all_units(field)
    squares = {unit_mul(u, u) for u in units}
    for u in units:
        assert square_class_bit(u) == (0 if u in squares else 1), u


def _oracle_generator(field):
    return next(u for u in _all_units(field) if _order_by_counting(u) == field.order - 1)


@pytest.mark.parametrize("q", ODD_PRIME_POWERS)
def test_generator_matches_order_counting(q):
    field = finite_field(q)
    assert multiplicative_generator(field) == _oracle_generator(field)


def _monic_irreducibles(p, d):
    """Monic polynomials of degree 2 or 3 over F_p without a root in F_p."""
    out = []
    for low in itertools.product(range(p), repeat=d):
        coeffs = low + (1,)
        if all(sum(c * x**i for i, c in enumerate(coeffs)) % p for x in range(p)):
            out.append(coeffs)
    return out


@pytest.mark.parametrize("p,d", [(3, 2), (5, 2), (3, 3)])
def test_generator_matches_order_counting_every_modulus(p, d):
    moduli = _monic_irreducibles(p, d)
    assert len(moduli) == (p**d - p) // d
    for mod in moduli:
        field = finite_field(p**d, modulus=mod)
        assert multiplicative_generator(field) == _oracle_generator(field), mod


def test_generator_known_large_fields():
    assert str(multiplicative_generator(finite_field(999983))) == "5"
    assert str(multiplicative_generator(finite_field(3**11))) == "x+2"
