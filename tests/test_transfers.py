"""Trace transfers: trace forms against their Gram matrices, projection formula,
the closure identity."""

import itertools
import json
from fractions import Fraction
from functools import reduce
from math import isqrt

import pytest

from mwslice import checks, fields, filtration, transfers
from mwslice.checks import _Run, check_transfers, trace_form_oracle
from mwslice.cli import main
from mwslice.fields import (
    COMPLEXES,
    REALS,
    Unit,
    enumerate_units,
    finite_field,
    multiplicative_generator,
    one,
    square_class,
    unit,
    unit_add,
    unit_mul,
    unit_pow,
)
from mwslice.filtration import FiltrationQuery, kmw_times_In, tate_filtration
from mwslice.forms import GWClass, gw_box, gw_of_unit, gw_one, hyperbolic, witt_class
from mwslice.milnor_witt import MWNormalForm, mw_symbol, mw_symbols, normalize
from mwslice.transfers import (
    ExtensionError,
    FiniteExtension,
    embed_unit,
    embedding_image_of_generator,
    filtration_preservation_check,
    norm_to_base,
    p_star,
    parse_extension,
    projection_formula_check,
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
    assert trace_transfer_gw(EXT_CR, GWClass(COMPLEXES, (3,))) == hyperbolic(REALS).scale(3)
    # one Scharlau law for every extension: every unit is a square over C, so
    # (d, sq(a) + [d even]) = (2, 1) is h, and p^* keeps only the rank
    for a in (1, -1, 2, Fraction(-1, 3)):
        assert transfer_of_unit_form(EXT_CR, unit(COMPLEXES, a)) == hyperbolic(REALS)
    for x in gw_box(REALS, 4):
        assert p_star(EXT_CR, x) == GWClass(COMPLEXES, (x.rank,))


def test_identity_extension_is_identity():
    # degree 1 keeps the coordinates, also between two moduli of F_9
    for ext in (FiniteExtension(F5, F5), FiniteExtension(F9, F9),
                FiniteExtension(F9, finite_field(9, (2, 1, 1)))):
        for a in enumerate_units(ext.top):
            assert trace_transfer_gw(ext, gw_of_unit(a)) == transfer_of_unit_form(ext, a)
        for r in range(-3, 4):
            for d in (0, 1):
                x = GWClass(ext.top, (r, d))
                assert trace_transfer_gw(ext, x).coords == x.coords
                assert p_star(ext, trace_transfer_gw(ext, x)) == x


def test_extension_of_scalars_to_the_same_field_searches_no_root(monkeypatch):
    # p^* over F/F is the identity; the canonical root would walk all q - 1 units
    def no_search(ext):
        raise AssertionError(f"root search over {ext}")
    monkeypatch.setattr(transfers, "embedding_image_of_generator", no_search)
    big = finite_field(994009)
    ext = FiniteExtension(big, big)
    for coords in ((3, 0), (3, 1), (-2, 1)):
        x = GWClass(big, coords)
        assert p_star(ext, x) == x


def test_f9_over_f3_gram_values():
    # hand Gram computation in basis {1, x}, x^2 = -1:
    # Tr(1) = 2, Tr(x) = 0, Tr(x^2) = -2 = 1, so Tr<1> = <2, 1>: rank 2, disc 2
    hand = GWClass(F3, (2, 1))
    assert transfer_of_unit_form(EXT_93, one(F9)) == hand
    assert trace_form_oracle(EXT_93, one(F9)) == hand


def test_rank_multiplies_by_degree():
    for ext in (EXT_93, EXT_255, EXT_273):
        for a in enumerate_units(ext.top)[:6]:
            assert transfer_of_unit_form(ext, a).rank == ext.degree


@pytest.mark.parametrize("top,base", [
    *(pytest.param(finite_field(t), finite_field(b), id=f"{t}-{b}")
      for t, b in [(9, 3), (27, 3), (25, 5), (49, 7), (81, 3), (81, 9)]),
    pytest.param(finite_field(9, (2, 1, 1)), F3, id="9(x^2+x+2)-3"),
])
def test_trace_form_class_matches_discriminant_formula(top, base):
    # Over F_q a form is classified by rank and discriminant.  disc Tr<a> is
    # N(a) * disc Tr<1>, the norm preserves square classes, and disc Tr<1> is
    # a square exactly when the degree d is odd.  The oracle reads the class
    # off the Gram matrix Tr(a X^(i+j)) instead.
    ext = FiniteExtension(base, top)
    d = ext.degree
    for a in enumerate_units(ext.top):
        expected = GWClass(ext.base, (d, square_class(a) + (d % 2 == 0)))
        assert transfer_of_unit_form(ext, a) == expected, a
        assert trace_form_oracle(ext, a) == expected, a


def test_transfer_criterion_catches_a_wrong_trace_form(monkeypatch):
    # dropping the [d even] term passes every property check on its own
    def no_degree_term(ext, a):
        return GWClass(ext.base, (ext.degree, square_class(a)))

    monkeypatch.setattr(transfers, "transfer_of_unit_form", no_degree_term)
    monkeypatch.setattr(checks, "transfer_of_unit_form", no_degree_term)
    result = check_transfers(_Run("11 transfers", "full"))
    assert not result.ok
    assert "Fq(9;poly=x^2+1)/Fq(3)" in result.detail


def test_transfer_additivity():
    for ext in (EXT_93, EXT_255):
        box = [GWClass(ext.top, (r, d)) for r in range(-2, 3) for d in (0, 1)]
        for x in box:
            for y in box:
                assert trace_transfer_gw(ext, x + y) == \
                    trace_transfer_gw(ext, x) + trace_transfer_gw(ext, y)


def test_transfer_preserves_rank_zero_and_ideal_bit():
    # the determinant argument: disc(Tr<a>) = N(a) * disc(Tr<1>), so the
    # transfer restricted to I(top) preserves the square-class bit
    for ext in (EXT_93, EXT_255, EXT_273):
        s = multiplicative_generator(ext.top)
        x = gw_of_unit(s) - gw_one(ext.top)
        image = trace_transfer_gw(ext, x)
        assert image.rank == 0
        assert image.disc_dev == 1
        assert square_class(norm_to_base(ext, s)) == 1


def test_witt_transfer_well_defined():
    for ext in (EXT_93, EXT_255, EXT_273, EXT_CR):
        h = hyperbolic(ext.top)
        assert witt_class(trace_transfer_gw(ext, h)).is_zero
        if ext is EXT_CR:
            box = gw_box(COMPLEXES, 3)
        else:
            box = [GWClass(ext.top, (r, d)) for r in range(0, 3) for d in (0, 1)]
        for x in box:
            assert trace_transfer_witt(ext, witt_class(x)) == \
                witt_class(trace_transfer_gw(ext, x))
    for x in gw_box(COMPLEXES, 3):
        # the trace of a rank-r class is r * h, of signature 0
        assert trace_transfer_gw(EXT_CR, x) == hyperbolic(REALS).scale(x.rank)
        assert trace_transfer_witt(EXT_CR, witt_class(x)).is_zero


def test_p_star_extension_of_scalars():
    # the base nonsquare becomes a square in even-degree extensions
    s3 = multiplicative_generator(F3)
    assert square_class(embed_unit(EXT_93, s3)) == 0
    assert square_class(embed_unit(EXT_273, s3)) == 1
    x = gw_of_unit(s3)
    assert p_star(EXT_93, x) == gw_one(F9)
    assert p_star(EXT_273, x).disc_dev == 1


@pytest.mark.parametrize("ext", [EXT_93, EXT_273, EXT_255, EXT_CR])
def test_projection_formula(ext):
    cases, counterexample = projection_formula_check(ext, 4)
    assert counterexample is None
    assert cases > 0


def test_projection_formula_worked_examples():
    # y = <1>, x = <s>: both sides computed independently
    s3 = multiplicative_generator(F3)
    y = gw_one(F9)
    x = gw_of_unit(s3)
    lhs = trace_transfer_gw(EXT_93, y * p_star(EXT_93, x))
    rhs = trace_transfer_gw(EXT_93, y) * x
    assert lhs == rhs
    # C/R: y = <1>, x = <-1>: both sides are the hyperbolic class
    xm = GWClass(REALS, (1, 1))  # <-1>: rank 1, signature -1
    assert trace_transfer_gw(EXT_CR, gw_one(COMPLEXES) * p_star(EXT_CR, xm)) == \
        trace_transfer_gw(EXT_CR, gw_one(COMPLEXES)) * xm == hyperbolic(REALS)


@pytest.mark.parametrize("ext", [EXT_93, EXT_273, EXT_255])
def test_filtration_preservation_grid(ext):
    for m in range(-3, 4):
        for N in range(0, 4):
            _, counterexample = filtration_preservation_check(ext, m, N)
            assert counterexample is None, (m, N)


def test_transfer_kmw_rejects_a_zero_form_over_another_field():
    for field in (finite_field(7), REALS):
        with pytest.raises(ExtensionError):
            transfer_kmw(EXT_93, MWNormalForm(field, None))


def test_transfer_kmw_degree_one():
    g9 = multiplicative_generator(F9)
    nf = normalize(mw_symbol(g9))
    down = transfer_kmw(EXT_93, nf)
    assert down.degree == 1
    assert down.value == norm_to_base(EXT_93, g9)
    assert down.ideal_bit == 1


@pytest.mark.parametrize("top, base", [(9, 3), (27, 3), (25, 5), (81, 9)])
def test_norm_is_the_product_of_the_conjugates(top, base):
    ext = FiniteExtension(finite_field(base), finite_field(top))
    for u in enumerate_units(ext.top):
        conjugates = [unit_pow(u, base**i) for i in range(ext.degree)]
        assert norm_to_base(ext, u) == transfers._down(ext, reduce(unit_mul, conjugates)), u


def test_transfer_closure_examples():
    # N = 0: the identity extension already yields the full group
    full = transfer_closure_subgroup(F5, 1, 0, 1, 2)
    assert full.is_full
    # n = 1, p = q = 0: the closure is exactly the fundamental ideal
    assert transfer_closure_subgroup(F5, 0, 0, 1, 2) == kmw_times_In(0, 1, F5)
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


def test_closure_criterion_sees_a_wrong_level_in_the_stabilization_regime(monkeypatch):
    # a level of I^1 where n <= p, in place of the whole group
    def shifted(a, b):
        return 1 if a <= 0 else max(0, min(a, b))

    monkeypatch.setattr(filtration, "shift_index", shifted)
    assert FiltrationQuery(-3, -3, -3, F3).N == 1
    result = check_transfers(_Run("11 transfers", "full"))
    assert not result.ok
    assert result.detail == "base Fq(3), (n,p,q)=(-3,-3,-3): closure != filtration"


def test_closure_rejects_bad_bound():
    with pytest.raises(ValueError):
        transfer_closure_subgroup(F5, 0, 0, 1, 0)


def test_non_prime_base_extension():
    # F81/F9: the embedding is found by root search, not the prime-field shortcut
    F81 = finite_field(81)
    ext = FiniteExtension(F9, F81)
    assert ext.degree == 2
    assert transfer_of_unit_form(ext, one(F81)).rank == 2
    assert projection_formula_check(ext, 2)[1] is None


def _exhaustive_root(ext: FiniteExtension):
    """The root search the subfield search replaced: every unit of the top
    field, by increasing encoding, until one is a root of the base modulus."""
    top = ext.top
    for code in range(1, top.order):
        x = Unit(top, code)
        value = None
        for i, c in enumerate(ext.base.modulus):
            if c % top.p:
                term = unit_mul(unit(top, c), unit_pow(x, i))
                value = term if value is None else unit_add(value, term)
        if value is None:
            return x
    raise AssertionError(f"no root in {top}")


def _proper_extensions(max_order: int):
    """Every F_{p^d}/F_{p^e} with 2 <= e < d and p^d <= max_order, default moduli."""
    for p in range(3, isqrt(max_order) + 1, 2):
        if any(p % r == 0 for r in range(3, isqrt(p) + 1, 2)):
            continue
        d = 3
        while p**d <= max_order:
            for e in range(2, d):
                if d % e == 0:
                    yield FiniteExtension(finite_field(p**e), finite_field(p**d))
            d += 1


def test_subfield_root_search_matches_the_exhaustive_one():
    exts = list(_proper_extensions(15625))
    assert {(e.top.order, e.base.order) for e in exts} == {
        (81, 9), (729, 9), (729, 27), (6561, 9), (6561, 81), (625, 25), (15625, 25),
        (15625, 125), (2401, 49), (14641, 121)}
    exts += [FiniteExtension(finite_field(9, (2, 1, 1)), finite_field(81))]
    exts += [FiniteExtension(finite_field(q), finite_field(q)) for q in (9, 25, 27, 243, 729)]
    for ext in exts:
        assert embedding_image_of_generator(ext) == _exhaustive_root(ext), ext


def test_largest_extension_never_enumerates_its_top_field(monkeypatch, capsys):
    real = fields.FiniteField._tabulate  # what enumerate_units runs

    def refuse_top(field):
        assert field.order != 531441, "enumerated the units of the top field"
        return real(field)

    def refuse_base_walk(ext):
        raise AssertionError(f"walked the base field of {ext}")

    monkeypatch.setattr(fields.FiniteField, "_tabulate", refuse_top)
    # a GW transfer reads the class off rank and discriminant: no embedding
    monkeypatch.setattr(transfers, "_embedding_inverse_table", refuse_base_walk)
    monkeypatch.setattr(transfers, "embedding_image_of_generator", refuse_base_walk)
    code = main(["--output", "json", "transfer", "--ext", "Fq(531441)/Fq(729)",
                 "--form", "<1,g>"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)["result"]
    # a quadratic extension takes <g^k> to a rank-2 form of discriminant dev 1 + k
    ks = (0, 1)
    assert (result["rank"], result["disc_dev"]) == (2 * len(ks), sum(1 + k for k in ks) % 2)


def test_a_positive_degree_transfer_from_c_to_r_is_zero():
    # K^MW_m(C) is divisible for m >= 1, and so is its image in K^MW_m(R)
    for m in (1, 2, 3):
        down = transfer_kmw(EXT_CR, normalize(mw_symbols([unit(COMPLEXES, 2)] * m)))
        assert down == MWNormalForm(REALS, m, 0)
        assert (down.degree, down.value, down.coords()) == (m, 0, (0,))


# Each refusal of the extension layer with its exact message.
EXTENSION_REFUSALS = [
    ("trace-wrong-field", lambda: trace_transfer_gw(EXT_93, gw_one(F3)),
     ExtensionError, "class over Fq(3) is not over Fq(9;poly=x^2+1)"),
    ("p-star-wrong-field", lambda: p_star(EXT_93, gw_one(F9)),
     ExtensionError, "class over Fq(9;poly=x^2+1) is not over Fq(3)"),
    ("kmw-wrong-field", lambda: transfer_kmw(EXT_93, normalize(mw_symbol(unit(F3, 2)))),
     ExtensionError, "normal form over Fq(3) is not over Fq(9;poly=x^2+1)"),
    ("degree-mismatch", lambda: FiniteExtension(F9, F27),
     ExtensionError, "Fq(27;poly=x^3+2*x+1) does not contain Fq(9;poly=x^2+1): degree mismatch"),
    ("preservation-over-c-r", lambda: filtration_preservation_check(EXT_CR, 1, 1),
     ExtensionError, "the exhaustive check runs over finite extensions"),
    ("preservation-negative-n", lambda: filtration_preservation_check(EXT_93, 1, -1),
     ValueError, "N must be a natural number"),
    ("closure-over-r", lambda: transfer_closure_subgroup(REALS, 1, 0, 1, 2),
     ExtensionError, "transfer closures are computed over finite base fields"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in EXTENSION_REFUSALS],
                         ids=[case[0] for case in EXTENSION_REFUSALS])
def test_extension_refusals_keep_their_messages(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
