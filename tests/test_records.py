"""The library's value classes and the package's lazily resolved exports."""

from __future__ import annotations

import pytest

import mwslice
from mwslice.abelian import Ambient, SubgroupDescription
from mwslice.checks import CheckResult
from mwslice.fields import (
    COMPLEXES,
    REALS,
    FiniteField,
    RealField,
    Unit,
    finite_field,
)
from mwslice.filtration import FiltrationQuery
from mwslice.forms import GWClass, QuadraticForm, WittClass, form
from mwslice.milnor_witt import MWExpression, MWNormalForm
from mwslice.rewriting import Derivation, Step, VerificationResult, derive_extended_steinberg
from mwslice.transfers import FiniteExtension

F3 = finite_field(3)
F7 = finite_field(7)
F9 = finite_field(9)
U3 = Unit(F7, 3)
U5 = Unit(F7, 5)
START = MWExpression(F7, (((Unit(F7, 1),), 1),))


def every_record():
    """One instance of each value class, by name."""
    return {
        "Ambient": Ambient(1, (2,)),
        "SubgroupDescription": SubgroupDescription(Ambient(1, (2,)), ((2, 1),)),
        "FiniteField": F7,
        "RealField": REALS,
        "ClosedField": COMPLEXES,
        "Unit": U3,
        "FiltrationQuery": FiltrationQuery(2, 0, 0, F7),
        "QuadraticForm": form(F7, 1, 3),
        "GWClass": GWClass(F7, (2, 0)),
        "WittClass": WittClass(F7, (1,)),
        "MWExpression": MWExpression(F7, ()),
        "MWNormalForm": MWNormalForm(F7, 1, U3),
        "Step": Step("R-one", 0, 0, {}),
        "Derivation": derive_extended_steinberg([Unit(F7, 3), Unit(F7, 5)]),
        "VerificationResult": VerificationResult(True),
        "FiniteExtension": FiniteExtension(F3, F9),
        "CheckResult": CheckResult("grid_law", True, 3, "ok", 0.5),
    }


def test_every_record_is_its_named_class():
    records = every_record()
    assert len(records) == 17
    for name, obj in records.items():
        assert type(obj).__name__ == name


@pytest.mark.parametrize("name", sorted(every_record()))
def test_assignment_raises(name):
    obj = every_record()[name]
    with pytest.raises(AttributeError):
        obj.field = None
    with pytest.raises(AttributeError):
        obj.new_attribute = 1
    with pytest.raises(AttributeError):
        del obj.field


# (make, the compared fields in order) for each class with field-wise equality
HASHED = {
    "Ambient": (lambda: Ambient(1, (2,), ("a", "b"), "A"), (1, (2,), ("a", "b"), "A")),
    "Unit": (lambda: Unit(F7, 3), (F7, 3)),
    "FiltrationQuery": (lambda: FiltrationQuery(3, 1, 2, F7), (3, 1, 2, F7)),
    "QuadraticForm": (lambda: form(F7, 1, 3), (F7, (Unit(F7, 1), U3))),
    "GWClass": (lambda: GWClass(F7, (2, 3)), (F7, (2, 1))),
    "WittClass": (lambda: WittClass(F7, (5,)), (F7, (1,))),
    "MWExpression": (lambda: MWExpression(F7, (((), 1),)), (F7, (((), 1),))),
    "VerificationResult": (lambda: VerificationResult(False, 2, "why"), (False, 2, "why")),
    "FiniteExtension": (lambda: FiniteExtension(F3, F9), (F3, F9)),
    "CheckResult": (lambda: CheckResult("n", True, 3, "d", 0.5), ("n", True, 3, "d", 0.5)),
    "Step": (lambda: Step("R-product", 0, 1, {"v": U5, "u": U3}),
             ("R-product", 0, 1, (("u", U3), ("v", U5)))),
    "Derivation": (lambda: Derivation(F7, START, (Step("R-one", 0, 0, {}),), MWExpression(F7, ())),
                   (F7, START, (Step("R-one", 0, 0, {}),), MWExpression(F7, ()))),
}


@pytest.mark.parametrize("name", sorted(HASHED))
def test_equal_fields_give_equal_objects_and_the_tuple_hash(name):
    make, values = HASHED[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(values)


def test_unequal_fields_give_unequal_objects():
    assert GWClass(F7, (2, 0)) != GWClass(F7, (2, 1))
    assert Unit(F7, 3) != Unit(F7, 5)
    assert Ambient(1) != Ambient(1, label="x")


def test_records_of_different_classes_with_the_same_fields_differ():
    expr, qf = MWExpression(F7, ()), QuadraticForm(F7, ())
    assert expr != qf and qf != expr
    assert Ambient(0, (2,)) != (0, (2,))


def test_custom_equality_is_kept():
    amb = Ambient(0, (4,))
    assert SubgroupDescription(amb, ((2,),)) == SubgroupDescription(amb, ((6,), (2,)))
    assert hash(SubgroupDescription(amb, ((2,),))) == hash(SubgroupDescription(amb, ((6,),)))
    assert MWNormalForm(F7, None) == MWNormalForm(F7, 2)


def test_a_normal_form_equals_only_normal_forms_over_its_field():
    nf = MWNormalForm(F7, 1, U3)
    assert nf.__eq__(U3) is NotImplemented and nf != U3 and MWNormalForm(F7, None) != 0
    # zero forms of any degree are equal over one field, and unequal across two
    assert (MWNormalForm(F7, None) == MWNormalForm(F3, None)) is False
    assert (MWNormalForm(F7, 2) == MWNormalForm(F3, 2)) is False
    assert MWNormalForm(F7, 0, GWClass(F7, (1, 0))) != MWNormalForm(F3, 0, GWClass(F3, (1, 0)))


def test_fields_are_compared_by_identity():
    for field in (F3, F7, F9, REALS, COMPLEXES):
        assert field == field and hash(field) == object.__hash__(field)
    assert F7 != F3 and F9 != FiniteField(9, (2, 1, 1)) and REALS != COMPLEXES


def test_keyword_construction_and_defaults():
    assert GWClass(F7, (2, 0)) == GWClass(field=F7, coords=(2, 0))
    nf = MWNormalForm(F7, 1, value=Unit(F7, 3))
    assert (nf.value, nf.ideal_bit) == (Unit(F7, 3), 1)
    assert MWNormalForm(F7, None).value is None
    amb = Ambient(1, label="L")
    assert (amb.torsion, amb.coord_names, str(amb)) == ((), ("c0",), "L")
    assert VerificationResult(ok=True).failed_step is None
    assert RealField() is REALS
    built = FiniteField(9, (1, 0, 1))
    assert built is F9 and built == F9 and not built != F9
    assert FiniteField(9, (2, 1, 1)) != F9
    with pytest.raises(TypeError):
        GWClass(F7)


def test_construction_checks_still_run():
    with pytest.raises(ValueError):
        GWClass(F7, (1, 0, 1))
    with pytest.raises(ValueError):
        Unit(F7, 7)
    with pytest.raises(ValueError):
        Ambient(1, (1,))
    with pytest.raises(ValueError):
        FiltrationQuery(1001, 0, 0, F7)
    with pytest.raises(ValueError):
        FiniteExtension(F7, F9)


def test_repr_names_the_class_and_fields():
    assert repr(Ambient(1, (2,))) == (
        "Ambient(free_rank=1, torsion=(2,), coord_names=('c0', 'c1'), label='')")
    assert repr(Step("R-one", 0, 1, {})) == (
        "Step(rule='R-one', term_index=0, factor_index=1, bindings=())")


def test_step_bindings_are_sorted_pairs_that_cannot_be_rebound():
    step = Step("R-product", 0, 0, {"v": U5, "u": U3})
    assert step.bindings == (("u", U3), ("v", U5))
    with pytest.raises(TypeError):
        step.bindings["u"] = U5  # type: ignore[index]
    assert step == Step("R-product", 0, 0, {"u": U3, "v": U5})


def test_exports_resolve_lazily():
    listed = dir(mwslice)
    for name in mwslice.__all__:
        assert getattr(mwslice, name) is not None
        assert name in listed
    assert mwslice.GWClass is GWClass
    with pytest.raises(AttributeError):
        mwslice.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from mwslice import no_such_name  # noqa: F401


def test_readme_import_style():
    from mwslice import finite_field as ff, gw_of_form, parse_form, tate_filtration

    assert gw_of_form(parse_form(ff(7), "<1,3>")).rank == 2
    assert tate_filtration(FiltrationQuery(1, 0, 0, F7)).order() == 2
