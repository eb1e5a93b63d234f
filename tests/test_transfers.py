"""Trace transfers: Gram computations, projection formula, the closure identity."""

import itertools

import pytest

from mwslice.fields import (
    COMPLEXES,
    REALS,
    canonical_nonsquare,
    enumerate_units,
    finite_field,
    one,
    square_class_bit,
    unit,
)
from mwslice.filtration import FiltrationQuery, tate_filtration
from mwslice.forms import GWClass, gw_of_unit, gw_one, hyperbolic, witt_class
from mwslice.milnor_witt import normalize, mw_symbol
from mwslice.transfers import (
    ExtensionError,
    FiniteExtension,
    embed_unit,
    filtration_preservation_check,
    norm_to_base,
    p_star,
    parse_extension,
    projection_formula_check,
    trace_to_base,
    trace_transfer_gw,
    trace_transfer_witt,
    transfer_closure_subgroup,
    transfer_kmw,
    transfer_of_unit_form,
)

F3 = finite_field(3)
F5 = finite_field(5)
F9 = finite_field(9)
F25 = finite_field(25)
F27 = finite_field(27)
EXT_93 = FiniteExtension(F3, F9)
EXT_273 = FiniteExtension(F3, F27)
EXT_255 = FiniteExtension(F5, F25)
EXT_CR = FiniteExtension(REALS, COMPLEXES)


def test_parse_extension():
    assert parse_extension("Fq(9)/Fq(3)") == EXT_93
    assert parse_extension("C/R") == EXT_CR
    with pytest.raises(ExtensionError):
        parse_extension("Fq(9)/Fq(5)")
    with pytest.raises(ExtensionError):
        parse_extension("R/C")


def test_complex_over_real_trace_of_one():
    # Gram of Tr(xy) in basis {1, i} is diag(2, -2): the hyperbolic class
    assert trace_transfer_gw(EXT_CR, gw_one(COMPLEXES)) == hyperbolic(REALS)
    assert trace_transfer_gw(EXT_CR, GWClass(COMPLEXES, 3)) == hyperbolic(REALS).scale(3)


def test_identity_extension_is_identity():
    ext = FiniteExtension(F5, F5)
    for r in range(-3, 4):
        for d in (0, 1):
            x = GWClass(F5, r, d)
            assert trace_transfer_gw(ext, x) == x


def test_f9_over_f3_gram_values():
    # hand Gram computation in basis {1, x}, x^2 = -1:
    # Tr(1) = 2, Tr(x) = 0, Tr(x^2) = -2 = 1, so Tr<1> = <2, 1>: rank 2, disc 2
    t1 = transfer_of_unit_form(EXT_93, one(F9))
    assert t1 == GWClass(F3, 2, 1)
    # trace of the embedded base field multiplies by the degree
    two_up = embed_unit(EXT_93, unit(F3, 2))
    assert trace_to_base(EXT_93, two_up) == unit(F3, 2 * 2)


def test_trace_of_base_elements_is_degree_multiple():
    from mwslice.fields import unit_add

    for ext in (EXT_93, EXT_255, EXT_273):
        for b in enumerate_units(ext.base)[:3]:
            t = trace_to_base(ext, embed_unit(ext, b))
            acc = None
            for _ in range(ext.degree):
                acc = b if acc is None else unit_add(acc, b)
            assert t == acc


def test_rank_multiplies_by_degree():
    for ext in (EXT_93, EXT_255, EXT_273):
        for a in enumerate_units(ext.top)[:6]:
            assert transfer_of_unit_form(ext, a).rank == ext.degree


def test_transfer_additivity():
    for ext in (EXT_93, EXT_255):
        box = [GWClass(ext.top, r, d) for r in range(-2, 3) for d in (0, 1)]
        for x in box:
            for y in box:
                assert trace_transfer_gw(ext, x + y) == \
                    trace_transfer_gw(ext, x) + trace_transfer_gw(ext, y)


def test_transfer_preserves_rank_zero_and_ideal_bit():
    # the determinant argument: disc(Tr<a>) = N(a) * disc(Tr<1>), so the
    # transfer restricted to I(top) preserves the square-class bit
    for ext in (EXT_93, EXT_255, EXT_273):
        s = canonical_nonsquare(ext.top)
        x = gw_of_unit(s) - gw_one(ext.top)
        image = trace_transfer_gw(ext, x)
        assert image.rank == 0
        assert image.disc_dev == 1
        assert square_class_bit(norm_to_base(ext, s)) == 1


def test_witt_transfer_well_defined():
    for ext in (EXT_93, EXT_255, EXT_273):
        h = hyperbolic(ext.top)
        assert witt_class(trace_transfer_gw(ext, h)).is_zero
        box = [GWClass(ext.top, r, d) for r in range(0, 3) for d in (0, 1)]
        for x in box:
            assert trace_transfer_witt(ext, witt_class(x)) == \
                witt_class(trace_transfer_gw(ext, x))


def test_p_star_extension_of_scalars():
    # the base nonsquare becomes a square in even-degree extensions
    s3 = canonical_nonsquare(F3)
    assert square_class_bit(embed_unit(EXT_93, s3)) == 0
    assert square_class_bit(embed_unit(EXT_273, s3)) == 1
    x = gw_of_unit(s3)
    assert p_star(EXT_93, x) == gw_one(F9)
    assert p_star(EXT_273, x).disc_dev == 1


@pytest.mark.parametrize("ext", [EXT_93, EXT_273, EXT_255, EXT_CR])
def test_projection_formula(ext):
    rep = projection_formula_check(ext, 4)
    assert rep.ok, rep.counterexample


def test_projection_formula_worked_examples():
    # y = <1>, x = <s>: both sides computed independently
    s3 = canonical_nonsquare(F3)
    y = gw_one(F9)
    x = gw_of_unit(s3)
    lhs = trace_transfer_gw(EXT_93, y * p_star(EXT_93, x))
    rhs = trace_transfer_gw(EXT_93, y) * x
    assert lhs == rhs
    # C/R: y = <1>, x = <-1>: both sides are the hyperbolic class
    xm = GWClass(REALS, 1, 0, -1)
    assert trace_transfer_gw(EXT_CR, gw_one(COMPLEXES) * p_star(EXT_CR, xm)) == \
        trace_transfer_gw(EXT_CR, gw_one(COMPLEXES)) * xm == hyperbolic(REALS)


@pytest.mark.parametrize("ext", [EXT_93, EXT_273, EXT_255])
def test_filtration_preservation_grid(ext):
    for m in range(-3, 4):
        for N in range(0, 4):
            rep = filtration_preservation_check(ext, m, N)
            assert rep.ok, (m, N, rep.counterexample)


def test_transfer_kmw_degree_one():
    g9 = canonical_nonsquare(F9)
    nf = normalize(mw_symbol(g9))
    down = transfer_kmw(EXT_93, nf)
    assert down.degree == 1
    assert down.milnor_unit == norm_to_base(EXT_93, g9)
    assert down.ideal_bit == 1


def test_transfer_closure_examples():
    # N = 0: the identity extension already yields the full group
    full = transfer_closure_subgroup(F5, 1, 0, 1, 2)
    assert full.is_full
    # n = 1, p = q = 0: the closure is exactly the fundamental ideal
    from mwslice.forms import fundamental_power_description

    assert transfer_closure_subgroup(F5, 0, 0, 1, 2) == \
        fundamental_power_description(F5, 1)
    # n <= min(p, q): full by stabilization
    assert transfer_closure_subgroup(F5, 2, 2, 1, 2).is_full


@pytest.mark.parametrize(
    "base", [F3, F5, finite_field(7), F9, finite_field(11)]
)
def test_transfer_closure_matches_filtration(base):
    for n, p, q in itertools.product(range(-3, 4), repeat=3):
        closure = transfer_closure_subgroup(base, q, p, n, 3)
        level = tate_filtration(FiltrationQuery(n, p, q, base))
        assert closure == level, (n, p, q)


def test_closure_rejects_bad_bound():
    with pytest.raises(ValueError):
        transfer_closure_subgroup(F5, 0, 0, 1, 0)


def test_non_prime_base_extension():
    # F81/F9: the embedding is found by root search, not the prime-field shortcut
    F81 = finite_field(81)
    ext = FiniteExtension(F9, F81)
    assert ext.degree == 2
    from mwslice.fields import multiplicative_generator, unit_add

    b = multiplicative_generator(F9)
    t = trace_to_base(ext, embed_unit(ext, b))
    assert t == unit_add(b, b)
    assert transfer_of_unit_form(ext, one(F81)).rank == 2
    assert projection_formula_check(ext, 2).ok
