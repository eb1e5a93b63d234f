"""Filtration subgroups, graded pieces, convergence, the Moore counterexample."""

import importlib
import itertools
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwslice import checks, fields, filtration
from mwslice.abelian import SubgroupDescription, full_subgroup
from mwslice.cli import main
from mwslice.fields import COMPLEXES, REALS, finite_field
from mwslice.filtration import (
    FiltrationQuery,
    convergence_check,
    eta_image_subgroup,
    eta_power_image,
    filtration_in_degree_coords,
    graded_piece,
    kmw_times_In,
    moore_filtration,
    shift_index,
    tate_filtration,
)
from mwslice.checks import STANDARD_FIELDS, ideal_power_oracle
from mwslice.forms import GWClass
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
    # against the span of the n-fold Pfister elements, not the library's ladder
    for field in ALL_FIELDS:
        for n in range(-3, 9):
            level = tate_filtration(FiltrationQuery(n, 0, 0, field))
            if n <= 0:
                assert level == full_subgroup(field.gw_ambient)
            else:
                assert level == ideal_power_oracle(field, n)


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
        separated, details = convergence_check(field, 12)
        assert separated
        assert details == ("intersection of the chain is zero at the cutoff",)
        assert field.certificate == cert
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


def test_a_level_is_one_object_per_degree_and_index():
    for field in ALL_FIELDS:
        for n, p, q in ((3, 0, 1), (4, 1, -1), (5, 2, 2), (1, 3, 0)):
            level = tate_filtration(FiltrationQuery(n, p, q, field))
            N = shift_index(n - p, n - q)
            assert level is kmw_times_In(q - p, N, field)
            for r in (-2, 1, 3):
                assert tate_filtration(FiltrationQuery(n + r, p + r, q + r, field)) is level


def _count_built(monkeypatch) -> list:
    """Record every SubgroupDescription built from now on, with no level or
    eta image kept from earlier tests."""
    built, init = [], SubgroupDescription.__init__
    monkeypatch.setattr(SubgroupDescription, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    kmw_times_In.cache_clear()
    eta_power_image.cache_clear()
    return built


def test_a_repeated_level_builds_no_subgroup(monkeypatch):
    built = _count_built(monkeypatch)
    first = kmw_times_In(-1, 3, REALS)
    assert len(built) == 1
    for query in (FiltrationQuery(3, 0, -1, REALS), FiltrationQuery(4, 1, 0, REALS)):
        assert tate_filtration(query) is first
    assert kmw_times_In(-1, 3, REALS) is first
    assert len(built) == 1


def test_an_eta_image_is_one_object_per_degree_and_power():
    for field in ALL_FIELDS:
        for n, p, q in ((3, 0, 1), (4, 1, -1), (5, 2, 2), (2, 0, -3)):
            image = eta_image_subgroup(FiltrationQuery(n, p, q, field))
            m, N = q - p, shift_index(n - p, n - q)
            assert image is eta_power_image(m, N if m >= 0 else N - m, field)
            for r in (-2, 1, 3):
                assert eta_image_subgroup(FiltrationQuery(n + r, p + r, q + r, field)) is image
        # off a diagonal, equal (q - p, M) come from N = 0: every n <= max(p, q)
        for a, b in (((1, 1, 0), (-3, 1, 0)), ((0, 0, 2), (2, 1, 3)), ((1, 2, 2), (-2, 0, 0))):
            assert eta_image_subgroup(FiltrationQuery(*a, field)) is \
                eta_image_subgroup(FiltrationQuery(*b, field)), (field, a, b)


def test_a_repeated_eta_image_builds_no_subgroup(monkeypatch):
    built = _count_built(monkeypatch)
    first = eta_image_subgroup(FiltrationQuery(3, 1, 0, REALS))  # m = -1, M = 3
    count = len(built)
    assert built[-1][0] is kmw_ambient(REALS, -1)
    for query in (FiltrationQuery(3, 1, 0, REALS), FiltrationQuery(5, 3, 2, REALS)):
        assert eta_image_subgroup(query) is first
    assert eta_power_image(-1, 3, REALS) is first
    assert len(built) == count


def test_the_kept_eta_image_equals_a_fresh_build(monkeypatch):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    grid_fields = importlib.import_module("workloads").GRID_FIELDS
    assert len(grid_fields) == 8
    for label in grid_fields:
        field = fields.parse_field(label)
        for n, p, q in itertools.product(range(-4, 5), repeat=3):
            m, N = q - p, shift_index(n - p, n - q)
            M = N if m >= 0 else N - m
            assert eta_image_subgroup(FiltrationQuery(n, p, q, field)) == \
                eta_power_image.__wrapped__(m, M, field), (label, n, p, q)


def _refuse(*args):
    raise AssertionError(f"called with {args}")


@pytest.mark.parametrize("name", ["R", "C", "Fq(3)", "Fq(9)", "Fq(999983)"])
def test_the_eta_image_is_the_level_at_the_corners_of_the_index_box(monkeypatch, name):
    # each image takes well under 1 ms to build; over Fq(999983) it walks no units
    field = fields.parse_field(name)
    big = name == "Fq(999983)"
    if big:
        saved = field._tables
        fields._set(field, "_tables", None)  # as in a fresh process
        monkeypatch.setattr(fields.FiniteField, "_tabulate", _refuse)
    eta_power_image.cache_clear()
    try:
        for n, p, q in ((1000, 999, -1000), (1000, -1000, 999), (1000, -1000, -1000)):
            query = FiltrationQuery(n, p, q, field)
            assert eta_image_subgroup(query) == tate_filtration(query), (n, p, q)
    finally:
        if big:
            fields._set(field, "_tables", saved)


def test_the_eta_image_never_asks_for_a_level(monkeypatch):
    eta_power_image.cache_clear()
    points = list(itertools.product(range(-3, 4), repeat=3))
    with monkeypatch.context() as patch:
        patch.setattr(filtration, "kmw_times_In", _refuse)
        for cls in {type(field) for field in STANDARD_FIELDS}:
            patch.setattr(cls, "level_generators", _refuse)
        images = {(field, point): eta_image_subgroup(FiltrationQuery(*point, field))
                  for field in STANDARD_FIELDS for point in points}
    for (field, (n, p, q)), image in images.items():
        if n > p:
            assert image == tate_filtration(FiltrationQuery(n, p, q, field)), (field, n, p, q)


def test_a_negative_ideal_power_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError, match="indexed by naturals"):
            kmw_times_In(0, -1, F5)


def test_the_longest_real_convergence_check_is_bounded_in_memory(capsys):
    import tracemalloc

    kmw_times_In.cache_clear()  # as in a fresh process
    tracemalloc.start()
    try:
        code = main(["convergence", "--field", "R", "--cutoff", "1000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "separated = True" in capsys.readouterr().out
    assert peak < 3_000_000  # about 5,000 shared levels, 2.3 MB measured


def test_a_right_filtration_converges_at_every_cutoff():
    for field in (REALS, COMPLEXES, F3, F9):
        for cutoff in range(1, 11):
            assert convergence_check(field, cutoff) == (
                True, ("intersection of the chain is zero at the cutoff",)), (field, cutoff)


def _stalled(monkeypatch, stall):
    """Patch the filtration so that its ladder stops at I^stall; return the real levels."""
    from mwslice import filtration

    real = filtration.kmw_times_In
    monkeypatch.setattr(filtration, "kmw_times_In", lambda m, n, f: real(m, min(n, stall), f))
    return real


def _probe_catches(real, stall, cutoff, p, q):
    """Whether the probes of the earlier check, the elements 1, 2 and 4 in the
    last coordinate, see the stall at (p, q): one of them is held by the
    stalled level at n = cutoff and not by the right one."""
    N = shift_index(cutoff - p, cutoff - q)
    for c in (1, 2, 4):
        v = (0,) * (kmw_ambient(REALS, q - p).dim - 1) + (c,)
        if real(q - p, min(N, stall), REALS).contains(v) and not real(q - p, N, REALS).contains(v):
            return True
    return False


@pytest.mark.parametrize("stall", range(8))
def test_a_stalled_real_ladder_is_caught_once_the_right_one_has_left(monkeypatch, stall):
    # the level at n = cutoff is reported exactly when its least 2-adic
    # valuation, 0 for a full level and j - [p == q] for I^j, is below
    # k = cutoff - max(p, q) - [p == q]
    real = _stalled(monkeypatch, stall)
    first, probed = None, 0
    for cutoff in range(1, 9):
        expected = []
        for p, q in itertools.product(range(3), repeat=2):
            j = min(shift_index(cutoff - p, cutoff - q), stall)
            k = cutoff - max(p, q) - (p == q)
            caught = (j - (p == q) if j else 0) < k
            if caught:
                expected.append(f"level not in 2^{k} L at (p,q)=({p},{q})")
                first = first or cutoff
            if _probe_catches(real, stall, cutoff, p, q):
                assert caught, (cutoff, p, q)
                probed += 1
        separated, details = convergence_check(REALS, cutoff)
        assert details == (tuple(expected) or ("intersection of the chain is zero at the cutoff",))
        assert separated == (not expected)
    assert first == max(stall + 1, 2)
    assert bool(probed) == (stall <= 3)  # I(R)^3 = 4Z is the deepest stall a probe sees


@pytest.mark.parametrize("field", [F7, COMPLEXES], ids=str)
def test_a_stalled_tail_is_caught_once_the_certificate_kills_it(monkeypatch, field):
    # a tail is reported exactly when it is nonzero although I^N, N at the
    # cutoff, is already zero in GW coordinates; the stalled I^k itself is
    # reported at every cutoff
    real = _stalled(monkeypatch, 0)
    reported = []
    for cutoff in range(1, 6):
        expected = [
            f"tail not zero at (p,q)=({p},{q})"
            for p, q in itertools.product(range(3), repeat=2)
            if not real(q - p, 0, field).is_zero
            and real(0, shift_index(cutoff - p, cutoff - q), field).is_zero
        ]
        separated, details = convergence_check(field, cutoff)
        assert details == (*expected, f"I^{field.vanishing_power} is not zero")
        assert not separated
        reported += expected
    assert reported


# -- failure details of criteria 2 and 3 ------------------------------------------


def test_filtration_at_origin_names_the_first_level_off_its_oracle(monkeypatch):
    monkeypatch.setattr(checks, "ideal_power_oracle",
                        lambda field, n: ideal_power_oracle(field, n + 1))
    result = checks.check_filtration_at_origin(checks._Run("2 filtration_at_origin", "quick"))
    assert (result.ok, result.cases) == (False, 5)  # n = -3..0 want the whole group
    assert result.detail == "F=R, n=1: <(0, 1)> < GW(R) (index 1) != <(0, 2)> < GW(R) (index 2)"


def _one_deeper(query):
    return FiltrationQuery(query.n + 1, query.p, query.q, query.field)


def _grid_law_failure() -> tuple[int, str]:
    result = checks.check_grid_law(checks._Run("3 grid_law", "quick"))
    assert not result.ok
    return result.cases, result.detail


def test_grid_law_names_a_level_below_the_whole_group_in_the_stable_range(monkeypatch):
    def deeper_when_stable(query):  # I^1 where n <= p asks for the whole group
        return tate_filtration(_one_deeper(query) if query.n <= query.p else query)

    monkeypatch.setattr(checks, "tate_filtration", deeper_when_stable)
    assert _grid_law_failure() == (1, "R (-3, -3, -3): law fails")


def test_grid_law_names_a_level_off_the_eta_image(monkeypatch):
    monkeypatch.setattr(checks, "eta_image_subgroup",
                        lambda query: eta_image_subgroup(_one_deeper(query)))
    assert _grid_law_failure() == (50, "R (-2, -3, -3): level != eta-image")


def test_grid_law_names_a_level_off_the_paper_cases(monkeypatch):
    real = checks._case_index
    monkeypatch.setattr(checks, "_case_index", lambda n, p, q: real(n, p, q) + 1)
    assert _grid_law_failure() == (1, "R (-3, -3, -3): level != K^MW I^N by cases")


def test_grid_law_names_a_level_that_grows_with_n(monkeypatch):
    # past the quick grid's edge n = 3 the filtration is the whole group again,
    # which only the comparison with the next level sees
    def whole_past_the_edge(query):
        level = tate_filtration(query)
        return full_subgroup(level.ambient) if query.n > 3 else level

    monkeypatch.setattr(checks, "tate_filtration", whole_past_the_edge)
    assert _grid_law_failure() == (295, "R (3, -3, -3): not monotone")


# -- failure details of criteria 1, 9 and 10 --------------------------------------


def _ladder_failure() -> tuple[int, str]:
    result = checks.check_real_ideal_ladder(checks._Run("1 real_ideal_ladder", "full"))
    assert not result.ok
    return result.cases, result.detail


def test_real_ladder_names_a_level_zero_below_the_whole_group(monkeypatch):
    monkeypatch.setattr(checks, "kmw_times_In", lambda m, n, field: kmw_times_In(m, n + 1, field))
    assert _ladder_failure() == (1, "I^0 != GW at n=0")


def test_real_ladder_names_a_level_off_its_oracle(monkeypatch):
    monkeypatch.setattr(checks, "ideal_power_oracle",
                        lambda field, n: ideal_power_oracle(field, n + 1))
    assert _ladder_failure() == (2, "descriptor mismatch at n=1")


def test_real_ladder_names_a_generator_off_the_power_of_two(monkeypatch):
    # the level and its oracle both one power too deep from n = 1 on: they agree,
    # and only the generator's index sees it
    monkeypatch.setattr(checks, "kmw_times_In",
                        lambda m, n, field: kmw_times_In(m, n + (n > 0), field))
    monkeypatch.setattr(checks, "ideal_power_oracle",
                        lambda field, n: ideal_power_oracle(field, n + 1))
    assert _ladder_failure() == (2, "ideal generator != 2^0")


def test_real_ladder_names_a_signature_class_the_level_misses(monkeypatch):
    # a class of rank 1 lies in no power of I
    monkeypatch.setattr(checks, "GWClass",
                        lambda field, coords: GWClass(field, (coords[0] + 1, coords[1])))
    assert _ladder_failure() == (2, "2^1 signature missing at n=1")


def test_real_ladder_names_a_class_the_level_should_not_hold(monkeypatch):
    # index 2 (1 - 2) = -2 lies in I^2 = (2) in the index coordinate
    monkeypatch.setattr(checks, "GWClass",
                        lambda field, coords: GWClass(field, (coords[0], 2 * coords[1])))
    assert _ladder_failure() == (3, "spurious element at n=2")


def _moore_failure() -> tuple[int, str]:
    result = checks.check_moore_spectrum(checks._Run("9 moore_spectrum", "full"))
    assert not result.ok
    return result.cases, result.detail


def test_moore_check_names_a_level_zero_image_that_is_not_full(monkeypatch):
    monkeypatch.setattr(checks, "moore_filtration",
                        lambda ell, field, n: moore_filtration(ell, field, n + 1))
    assert _moore_failure() == (1, "ell=3: I^0 image not full")


def test_moore_check_names_a_real_image_of_the_wrong_order(monkeypatch):
    monkeypatch.setattr(checks, "moore_filtration",
                        lambda ell, field, n: moore_filtration(ell, F3 if field is REALS else field, n))
    assert _moore_failure() == (2, "ell=3, n=1: image order 1")


def test_moore_check_names_a_real_image_that_moves(monkeypatch):
    def rank_line_at_two(ell, field, n):  # order ell, but the rank line, not the index line
        image = moore_filtration(ell, field, n)
        return SubgroupDescription(image.ambient, ((1, 0),)) if field is REALS and n == 2 else image

    monkeypatch.setattr(checks, "moore_filtration", rank_line_at_two)
    assert _moore_failure() == (3, "ell=3, n=2: not constant")


def test_moore_check_names_a_finite_image_that_does_not_vanish(monkeypatch):
    monkeypatch.setattr(checks, "moore_filtration",
                        lambda ell, field, n: moore_filtration(ell, REALS, n))
    assert _moore_failure() == (12, "ell=3, q=3, n=1: image nonzero")


def _grows_at_the_cutoff(query):
    """The level, except the whole group at n = 12, p = q = 0."""
    level = tate_filtration(query)
    return full_subgroup(level.ambient) if (query.n, query.p, query.q) == (12, 0, 0) else level


def test_convergence_check_names_a_chain_that_grows(monkeypatch):
    monkeypatch.setattr(filtration, "tate_filtration", _grows_at_the_cutoff)
    assert convergence_check(F3, 12) == (
        False, ("monotonicity fails at (p,q)=(0,0)", "tail not zero at (p,q)=(0,0)"))


def _convergence_failure() -> tuple[int, str]:
    result = checks.check_convergence(checks._Run("10 convergence", "full"))
    assert not result.ok
    return result.cases, result.detail


def test_convergence_criterion_names_a_field_whose_chain_grows(monkeypatch):
    monkeypatch.setattr(filtration, "tate_filtration", _grows_at_the_cutoff)
    assert _convergence_failure() == (
        1, "R: ('monotonicity fails at (p,q)=(0,0)', 'level not in 2^11 L at (p,q)=(0,0)')")


def test_convergence_criterion_names_a_stalled_ladder_it_never_reports(monkeypatch):
    monkeypatch.setattr(checks, "certify_level", lambda *args: ())
    assert _convergence_failure() == (7, "R ladder stalled at I^0 reported at cutoffs []")
