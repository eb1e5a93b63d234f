"""Field kernel: exact arithmetic, square classes, enumeration, literals."""

import itertools
import random
from array import array
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mwslice import fields
from mwslice.checks import sum_to_one_tuples
from mwslice.fields import (
    COMPLEXES,
    REALS,
    ClosedField,
    FieldDescriptor,
    FieldMismatchError,
    FiniteField,
    RealField,
    Unit,
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
    assert square_class(unit(F7, 2)) == 0
    assert square_class(unit(F7, 3)) == 1
    assert square_class(unit(F7, -1)) == 1  # 7 = 3 mod 4
    assert square_class(unit(REALS, Fraction(4))) == 0
    assert square_class(unit(REALS, Fraction(-4))) == 1
    assert square_class(unit(COMPLEXES, -5)) == 0
    for u in (unit(F9, 2), unit(REALS, -1), unit(COMPLEXES, 5)):
        assert type(square_class(u)) is int


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_square_class_is_index_two_character(q):
    field = finite_field(q)
    units = enumerate_units(field)
    kernel = [u for u in units if square_class(u) == 0]
    assert len(kernel) == (q - 1) // 2
    for a in units[:6]:
        for b in units[:6]:
            assert square_class(unit_mul(a, b)) == (
                square_class(a) + square_class(b)
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
    for q, modulus in ((9, (2, 0, 1)), (9, (1, 0, 2)), (7, (3, 2)), (9, (1, 0, 0, 1))):
        with pytest.raises(ValueError):
            FiniteField(q, modulus)  # reducible, non-monic, or of the wrong degree


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
        assert square_class(u) == (0 if u in squares else 1), u


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


# -- packed multiplication against schoolbook multiply-and-divide --------------


def _coeffs(u):
    """The base-p digits (c_0, ..., c_(d-1)) of a finite-field carrier."""
    return _digits(u.field, u.value)


def _digits(field, code):
    return tuple(code // field.p**i % field.p for i in range(field.degree))


def _schoolbook_mul(field, a, b):
    """a * b mod (f, p) by long multiplication and division by the monic modulus."""
    p, f, d = field.p, field.modulus, field.degree
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(2 * d - 2, d - 1, -1):
        c = prod[top]
        for i in range(d + 1):
            prod[top - d + i] = (prod[top - d + i] - c * f[i]) % p
    return tuple(prod[:d])


def _schoolbook_pow(field, a, n):
    result, base = (1,) + (0,) * (field.degree - 1), a
    while n:
        if n & 1:
            result = _schoolbook_mul(field, result, base)
        base = _schoolbook_mul(field, base, base)
        n >>= 1
    return result


def _seeded_units(field, count, seed):
    rng = random.Random(seed)
    top = (field.p - 1,) * field.degree  # every lane at its largest value
    out = [unit(field, top)]
    while len(out) < count:
        c = tuple(rng.randrange(field.p) for _ in range(field.degree))
        if any(c):
            out.append(unit(field, c))
    return out


SMALL_EXTENSIONS = [9, 25, 27, 81, 243, 3**8]
LARGE_FIELDS = [2187, 3**12, 5**8, 7**7, 997**2]


@contextmanager
def _untabulated(field):
    """The field with its tables cleared for the duration, as before its first
    discrete log, so its arithmetic runs on the packed kernel; whatever tables
    earlier tests built come back afterwards."""
    tables = field._tables
    fields._set(field, "_tables", None)
    try:
        yield field
    finally:
        fields._set(field, "_tables", tables)


@pytest.mark.parametrize("q", [9, 25, 27])
def test_packed_mul_matches_schoolbook_on_every_pair(q):
    with _untabulated(finite_field(q)) as field:
        units = _all_units(field)
        for a in units:
            for b in units:
                assert _coeffs(unit_mul(a, b)) == _schoolbook_mul(field, _coeffs(a), _coeffs(b)), \
                    (a, b)
        assert field._tables is None  # no product read or built a table


@pytest.mark.parametrize("q", LARGE_FIELDS)
def test_packed_mul_matches_schoolbook_on_seeded_pairs(q):
    field = finite_field(q)
    left, right = _seeded_units(field, 2000, q), _seeded_units(field, 2000, q + 1)
    for a, b in zip(left, right):
        assert _coeffs(unit_mul(a, b)) == _schoolbook_mul(field, _coeffs(a), _coeffs(b)), (a, b)
    for a in left[:20]:
        for n in (2, q - 2, 10**30 + 7):
            assert _coeffs(unit_pow(a, n)) == _schoolbook_pow(field, _coeffs(a), n % (q - 1)), \
                (a, n)


def test_lane_width_of_the_widest_field():
    assert finite_field(997**2).lane == 31
    assert finite_field(2187).lane == 9


def test_generator_power_matches_unit_pow_for_every_exponent_small():
    field = finite_field(27)
    g = multiplicative_generator(field)
    for k in range(-60, 60):
        assert field.generator_power(k) == unit_pow(g, k), k


@pytest.mark.parametrize("q", SMALL_EXTENSIONS + LARGE_FIELDS + [10007, 999983])
def test_generator_power_matches_unit_pow_large(q):
    g = multiplicative_generator(finite_field(q))
    rng = random.Random(q)
    exponents = [0, 1, q - 2, q - 1, -1, 10**30 + 7]
    exponents += [rng.randrange(-10**12, 10**12) for _ in range(40)]
    with _untabulated(finite_field(q)) as field:  # the kernel power
        for k in exponents:
            got = field.generator_power(k)
            assert got == unit_pow(g, k), k
            assert _coeffs(got) == _schoolbook_pow(field, _coeffs(g), k % (q - 1)), k
        assert field._tables is None


def test_finite_fields_are_interned():
    for text in ("Fq(7)", "Fq(9)", "Fq(2187;poly=x^7+x^2+2)", "Fq(10007)"):
        assert parse_field(text) is parse_field(text)
    f9 = finite_field(9, (1, 0, 1))
    assert f9 is parse_field("Fq(9;poly=x^2+1)")
    assert f9 is finite_field(9) and f9 is finite_field(9, (4, 3, 7))
    assert finite_field(9, (2, 1, 1)) is not f9
    assert hash(f9) == object.__hash__(f9)


def test_each_constructor_returns_the_one_field():
    f7 = FiniteField(7, (3, 1))
    assert f7 is finite_field(7) and f7 is FiniteField(7)
    assert unit_mul(unit(f7, 3), unit(finite_field(7), 5)) == unit(f7, 1)
    assert FiniteField(9, (4, 3, 7)) is finite_field(9)
    assert RealField() is REALS and ClosedField() is COMPLEXES
    with pytest.raises(TypeError):
        FieldDescriptor()
    with pytest.raises(TypeError):
        fields._RationalField()  # the shared base of R and C is no field either


def test_a_linear_modulus_names_the_prime_field():
    from mwslice.rewriting import derivation_from_json, derive_extended_steinberg

    f7 = parse_field("Fq(7;poly=x+3)")
    assert f7 is parse_field("Fq(7)") and f7 is finite_field(7, (10, 8))
    d = derive_extended_steinberg([unit(f7, 3), unit(f7, 5)])
    assert derivation_from_json(d.to_json()) == d


# -- the kernel inverse and Euler's criterion against schoolbook arithmetic --------


def _kernel_cases(q):
    field = finite_field(q)
    units = _all_units(field) if q in SMALL_EXTENSIONS else _seeded_units(field, 2000, q + 2)
    return field, units


@pytest.mark.parametrize("q", SMALL_EXTENSIONS + LARGE_FIELDS)
def test_inverse_and_square_class_match_schoolbook_arithmetic(q):
    field, units = _kernel_cases(q)
    e = one(field)
    with _untabulated(field):
        for a in units:
            assert _schoolbook_mul(field, _coeffs(a), _coeffs(unit_inv(a))) == _coeffs(e), a
            euler = _schoolbook_pow(field, _coeffs(a), (q - 1) // 2)
            assert square_class(a) == (0 if euler == _coeffs(e) else 1), a
        assert field._tables is None


def _count_products(monkeypatch):
    calls = []
    real = fields.FiniteField._mul_packed

    def counted(field, x, y):
        calls.append(1)
        return real(field, x, y)

    monkeypatch.setattr(fields.FiniteField, "_mul_packed", counted)
    return calls


def _inverse_square(a):
    return unit_pow(a, -2)


@pytest.mark.parametrize("q", LARGE_FIELDS)
def test_kernel_operations_cost_two_products_per_bit(q, monkeypatch):
    field = finite_field(q)
    units = _seeded_units(field, 40, q + 3)
    rng = random.Random(q)
    exponents = [0, 1, q - 2, q - 1, -1, 10**30 + 7] + [rng.randrange(q - 1) for _ in range(40)]
    with _untabulated(field):
        multiplicative_generator(field)  # the search for g is set-up, not an operation
        budget = 2 * (q - 1).bit_length()
        calls = _count_products(monkeypatch)
        cases = [(op, a) for a in units for op in (unit_inv, square_class, _inverse_square)]
        cases += [(field.generator_power, k) for k in exponents]
        for op, x in cases:
            calls.clear()
            op(x)
            assert len(calls) <= budget, (op.__name__, x, len(calls))
        assert field._tables is None


# -- exp/log tables against the packed kernel -------------------------------------

TABLE_CASES = [(q, None) for q in ODD_PRIME_POWERS] + [
    (p**d, mod) for p, d in [(3, 2), (5, 2), (3, 3)] for mod in _monic_irreducibles(p, d)]


def _table_case_id(case):
    q, mod = case
    return str(q) if mod is None else f"{q}-{''.join(map(str, mod))}"


class _Kernel:
    """The methods of one field, each run with its tables cleared: the packed kernel."""

    def __init__(self, field):
        self.field = field

    def __getattr__(self, name):
        method = getattr(self.field, name)

        def kernel(*args):
            with _untabulated(self.field):
                return method(*args)

        setattr(self, name, kernel)
        return kernel


def _tabulated(field):
    """The field, its tables built by its first discrete log."""
    field.literal(field.one())
    assert field._tables is not None
    return field


def _unary_ops(ops, a, k):
    """The table-overridden operations of one unit and one exponent, as plain values."""
    q = a.field.order
    return (ops.inv(a).value, ops.neg(a).value, ops.square_class(a),
            ops.generator_power(k).value, ops.generator_power(k - 3 * (q - 1)).value,
            *(ops.pow(a, n).value for n in (-1, q - 1, -(q + 3), 10**30 + 7)))


@pytest.mark.parametrize("case", TABLE_CASES, ids=_table_case_id)
def test_table_holds_the_schoolbook_powers_of_g(case):
    field = _tabulated(finite_field(*case))
    exp, log = field._tables
    g = _coeffs(multiplicative_generator(field))
    power = (1,) + (0,) * (field.degree - 1)
    assert (type(exp), type(log), len(exp), len(log)) == (array, array, field.order - 1, field.order)
    for k in range(field.order - 1):
        assert _digits(field, exp[k]) == power, k
        assert log[exp[k]] == k, k
        assert field.literal(unit(field, power)) == f"g^{k}", k
        assert field.kmw_coords(unit(field, power)) == (k,), k
        power = _schoolbook_mul(field, power, g)
    assert power == (1,) + (0,) * (field.degree - 1)  # g^(q-1) = 1


@pytest.mark.parametrize("case", TABLE_CASES, ids=_table_case_id)
def test_table_operations_match_the_kernel_on_every_pair(case):
    field = _tabulated(finite_field(*case))
    assert type(field) is FiniteField
    kernel, units = _Kernel(field), _all_units(field)
    mul, pow_, add, kmul, kpow, kadd = (field.mul, field.pow, field.add,
                                        kernel.mul, kernel.pow, kernel.add)
    for k, a in enumerate(units):
        assert _unary_ops(field, a, k) == _unary_ops(kernel, a, k), a
        for n, b in enumerate(units):
            assert mul(a, b) == kmul(a, b), (a, b)
            assert pow_(a, n) == kpow(a, n), (a, n)
            assert add(a, b) == kadd(a, b), (a, b)  # None where b = -a


@pytest.mark.parametrize("q", [2187, 10007, 15625, 16381])
def test_table_operations_match_the_kernel_on_seeded_pairs(q):
    field = _tabulated(finite_field(q))
    assert type(field) is FiniteField
    kernel, rng = _Kernel(field), random.Random(q)
    left, right = _seeded_units(field, 2000, q + 4), _seeded_units(field, 2000, q + 5)
    for a, b in zip(left, right):
        k = rng.randrange(-q, 2 * q)
        assert _unary_ops(field, a, k) == _unary_ops(kernel, a, k), (a, k)
        assert field.mul(a, b) == kernel.mul(a, b), (a, b)
        assert field.pow(a, k) == kernel.pow(a, k), (a, k)
        assert field.add(a, b) == kernel.add(a, b), (a, b)
        assert field.add(a, field.neg(a)) is None, a


@pytest.mark.parametrize("q", [16411, 3**10, 999983])
def test_logs_above_the_table_order_invert_the_kernel_power(q):
    field = finite_field(q)
    assert type(field) is FiniteField
    rng = random.Random(q)
    for k in [0, 1, q - 2, -1, 10**30 + 7] + [rng.randrange(-q, 2 * q) for _ in range(200)]:
        u = _Kernel(field).generator_power(k)  # a kernel power: no table
        assert field.literal(u) == f"g^{k % (q - 1)}", k
        assert field.kmw_coords(u) == (k % (q - 1),), k


def test_a_tabulated_operation_makes_no_packed_product(monkeypatch):
    field = finite_field(2187)
    a, b = _seeded_units(field, 2, 2187)
    field.literal(a)  # builds the tables
    calls = _count_products(monkeypatch)
    for op in (lambda: unit_mul(a, b), lambda: unit_inv(a), lambda: unit_pow(a, -2),
               lambda: unit_neg(a), lambda: unit_add(a, b), lambda: square_class(a),
               lambda: field.generator_power(77), lambda: field.literal(a),
               lambda: field.kmw_coords(a)):
        op()
    assert calls == []


def test_no_table_is_built_before_a_discrete_log():
    field = finite_field(3125)
    fields._set(field, "_tables", None)  # forget the tables, should a test have built them
    kernel = _Kernel(field)
    a, b = _seeded_units(field, 2, 3125)
    ops = [lambda f: f.mul(a, b), lambda f: f.inv(a), lambda f: f.pow(a, -2),
           lambda f: f.neg(a), lambda f: f.add(a, b), lambda f: f.square_class(a),
           lambda f: f.generator_power(77)]
    assert [op(field) for op in ops] == [op(kernel) for op in ops]
    assert field._tables is None
    assert field.literal(field.generator_power(1)) == "g^1"
    assert field._tables is not None
    assert [op(field) for op in ops] == [op(kernel) for op in ops]


def test_the_benchmark_fields_tabulate_in_under_600_kb():
    import tracemalloc

    both = [finite_field(10007), finite_field(2187)]
    for field in both:
        multiplicative_generator(field)
    tracemalloc.start()
    try:
        tables = [field._tabulate() for field in both]
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [len(exp) for exp, _ in tables] == [10006, 2186]
    assert size <= 600_000


def test_zech_logs_come_with_the_tables_of_prime_power_fields_only():
    # the Zech table comes with the first sum over a tabulated F_(p^d)
    field, prime = _tabulated(finite_field(2187)), _tabulated(finite_field(10007))
    vars(field).pop("_zech", None)  # as in a fresh process, should a test have built it
    a, b = field.generator_power(1), field.generator_power(5)
    assert (field.mul(a, b), field.inv(a), field.neg(a), field.square_class(a)) \
        == (field.generator_power(6), field.generator_power(-1), field.generator_power(1094), 1)
    assert "_zech" not in vars(field)  # arithmetic without a sum builds none
    assert field.add(a, b) == _Kernel(field).add(a, b)
    exp, log = field._tables
    zech, n = vars(field)["_zech"], field.order - 1
    assert (zech.typecode, len(zech)) == ("H", n)  # 2 bytes per unit of Fq(2187)
    assert [k for k in range(n) if not zech[k]] == [n // 2]
    assert log[0] == 0  # no unit has code 0
    for k in range(n):
        c = _digits(field, exp[k])
        one_plus = ((c[0] + 1) % 3,) + c[1:]  # 1 + g^k
        if k == n // 2:
            assert not any(one_plus)  # g^k = -1
        else:
            assert _digits(field, exp[zech[k]]) == one_plus, k
    a = prime.generator_power(5)
    assert prime.add(a, prime.neg(a)) is None
    assert prime.add(a, a).value == 2 * a.value % 10007
    assert "_zech" not in vars(prime)  # a prime field adds mod p and keeps no Zech table


# -- the carrier: one integer code per finite-field unit ---------------------------


def test_a_finite_field_carrier_is_one_reduced_nonzero_integer():
    for value, message in [((1, 0), "finite-field units are integer codes sum(c_i p^i)"),
                           (True, "finite-field units are integer codes sum(c_i p^i)"),
                           (0, "zero is not a unit"), (9, "unreduced residue 9"),
                           (-1, "unreduced residue -1")]:
        with pytest.raises(ValueError) as info:
            Unit(F9, value)
        assert str(info.value) == message, value
    assert unit(F9, (1, 2)) == Unit(F9, 7)  # 1 + 2x is 1 + 2*3
    g = multiplicative_generator(finite_field(2187))
    assert type(g.value) is int and g.encoding == g.value


@pytest.mark.parametrize("q", [10007, 2187, 3**10])
def test_every_field_keeps_its_tables_in_two_16_bit_arrays(q):
    exp, log = _tabulated(finite_field(q))._tables
    assert (type(exp), type(log)) == (array, array)
    assert (exp.typecode, log.typecode) == ("H", "H")


def test_tabulating_a_prime_power_field_peaks_under_300_kb():
    import tracemalloc

    field = finite_field(3**10)
    multiplicative_generator(field)
    tracemalloc.start()
    try:
        exp, log = field._tabulate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(exp), len(log)) == (3**10 - 1, 3**10)
    assert peak < 300_000
