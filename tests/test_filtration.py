"""Filtration subgroups, graded pieces, convergence, the Moore counterexample."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwslice.abelian import full_subgroup
from mwslice.fields import COMPLEXES, REALS, finite_field
from mwslice.filtration import (
    FiltrationQuery,
    convergence_check,
    eta_image_subgroup,
    filtration_in_degree_coords,
    graded_piece,
    kmw_times_In,
    moore_filtration,
    shift_index,
    tate_filtration,
)
from mwslice.forms import fundamental_power_description
from mwslice.milnor_witt import kmw_ambient

F3 = finite_field(3)
F5 = finite_field(5)
F7 = finite_field(7)
F9 = finite_field(9)
ALL_FIELDS = (REALS, F3, F5, F7, F9, COMPLEXES)


def test_shift_index_values():
    assert shift_index(3, 1) == 1
    assert shift_index(-1, 2) == 0
    assert shift_index(2, 5) == 2
    assert shift_index(0, 0) == 0
    assert shift_index(-4, -2) == 0


def test_tate_examples():
    assert tate_filtration(FiltrationQuery(0, 0, 0, REALS)).is_full
    d = tate_filtration(FiltrationQuery(3, 0, 0, REALS))
    assert d.canonical_generators() == ((0, 4),)  # signature in 8Z
    assert tate_filtration(FiltrationQuery(2, 0, 0, F5)).is_zero


def test_tate_equals_ideal_power_at_origin():
    for field in ALL_FIELDS:
        for n in range(-3, 9):
            assert tate_filtration(FiltrationQuery(n, 0, 0, field)) == \
                fundamental_power_description(field, max(n, 0))


def test_kmw_times_In_dichotomy():
    # m = -2, n = 3 over R: signature in 8Z inside W(R) = Z
    d = kmw_times_In(-2, 3, REALS)
    assert d.ambient.label == "W(R)"
    assert d.canonical_generators() == ((8,),)
    # m = 1, n = 1 over a finite field: I^2 = 0
    assert kmw_times_In(1, 1, F5).is_zero
    assert kmw_times_In(1, 1, F5).ambient.label == "K^MW_1(Fq(5))"
    # m = 1, n = 1 over R, in degree-1 coordinates: the ideal part 2 * Z
    d = kmw_times_In(1, 1, REALS)
    assert d.ambient.label == "K^MW_1(R) mod divisible"
    assert d.canonical_generators() == ((2,),)
    # n = 0: the full degree group
    assert kmw_times_In(5, 0, F5).is_full
    with pytest.raises(ValueError):
        kmw_times_In(0, -1, F5)


def test_stabilization_full_for_small_n():
    for field in (F3, REALS):
        for p in range(-2, 3):
            for q in range(-2, 3):
                for n in range(p - 2, p + 1):
                    d = tate_filtration(FiltrationQuery(n, p, q, field))
                    assert d == full_subgroup(kmw_ambient(field, q - p))


def test_shift_invariance():
    for field in ALL_FIELDS:
        for n, p, q in itertools.product(range(-3, 4), repeat=3):
            base = tate_filtration(FiltrationQuery(n, p, q, field))
            for r in (-2, -1, 1, 2):
                assert tate_filtration(FiltrationQuery(n + r, p + r, q + r, field)) == base


def test_monotone_decreasing_in_n():
    for field in ALL_FIELDS:
        for p, q in itertools.product(range(-3, 4), repeat=2):
            for n in range(-3, 6):
                cur = filtration_in_degree_coords(FiltrationQuery(n, p, q, field))
                nxt = filtration_in_degree_coords(FiltrationQuery(n + 1, p, q, field))
                assert nxt <= cur


def test_eta_image_consistency():
    for field in ALL_FIELDS:
        for n, p, q in itertools.product(range(-3, 4), repeat=3):
            if n <= p:
                continue
            assert eta_image_subgroup(FiltrationQuery(n, p, q, field)) == \
                filtration_in_degree_coords(FiltrationQuery(n, p, q, field))


def test_graded_pieces_finite():
    assert str(graded_piece(FiltrationQuery(0, 0, 0, F5))) == "Z"
    assert graded_piece(FiltrationQuery(1, 0, 0, F5)).order() == 2
    assert graded_piece(FiltrationQuery(2, 0, 0, F5)).order() == 1
    assert graded_piece(FiltrationQuery(5, 0, 0, F5)).order() == 1


def test_graded_pieces_real():
    assert str(graded_piece(FiltrationQuery(0, 0, 0, REALS))) == "Z"
    for n in range(1, 8):
        assert graded_piece(FiltrationQuery(n, 0, 0, REALS)).order() == 2


def test_graded_vanishes_in_stable_range():
    for field in (F5, REALS, COMPLEXES):
        assert graded_piece(FiltrationQuery(-2, 0, 0, field)).order() == 1


def test_convergence_reports():
    for field, cert in (
        (F7, "I^2 = 0"),
        (F9, "I^2 = 0"),
        (REALS, "nonzero signatures have bounded dyadic valuation"),
        (COMPLEXES, "I = 0"),
    ):
        rep = convergence_check(field, 12)
        assert rep.separated
        assert rep.certificate == cert
    with pytest.raises(ValueError):
        convergence_check(F7, 0)


def test_moore_filtration_real_constant():
    for ell in (3, 5, 7):
        assert moore_filtration(ell, REALS, 0).is_full
        images = [moore_filtration(ell, REALS, n) for n in range(1, 11)]
        assert all(img.order() == ell for img in images)
        assert len(set(images)) == 1


def test_moore_filtration_finite_vanishes():
    for q in (3, 5, 7, 9):
        field = finite_field(q)
        assert moore_filtration(3, field, 0).is_full
        for n in range(1, 11):
            assert moore_filtration(3, field, n).is_zero


def test_moore_rejects_bad_ell():
    with pytest.raises(ValueError):
        moore_filtration(2, REALS, 1)
    with pytest.raises(ValueError):
        moore_filtration(9, REALS, 1)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(-6, 6), p=st.integers(-6, 6), q=st.integers(-6, 6),
    which=st.integers(0, 5),
)
def test_filtration_law_property(n, p, q, which):
    field = ALL_FIELDS[which]
    query = FiltrationQuery(n, p, q, field)
    got = tate_filtration(query)
    if n <= p:
        assert got.is_full
    else:
        assert got == eta_image_subgroup(query)
