"""mw-slice: exact Grothendieck-Witt / Milnor-Witt computations and the slice filtration.

The package computes, over finite fields of odd characteristic, real closed
fields and quadratically closed fields:

* Grothendieck-Witt and Witt ring arithmetic in complete-invariant coordinates,
  Pfister elements, and the fundamental-ideal filtration (``mwslice.forms``);
* formal Milnor-Witt K-theory with certified term rewriting for the extended
  Steinberg identity (``mwslice.milnor_witt``, ``mwslice.rewriting``);
* the Tate/slice filtration subgroups K^MW_{q-p} I^{N(n-p,n-q)}, graded
  pieces, convergence certificates and the mod-ell Moore-spectrum
  counterexample (``mwslice.filtration``);
* Scharlau trace transfers with the projection formula and the
  transfer-closure description of the filtration (``mwslice.transfers``).

Everything is exact integer/rational arithmetic; there is no floating point
anywhere.
"""

from mwslice.abelian import Ambient, QuotientShape, SubgroupDescription
from mwslice.fields import (
    COMPLEXES,
    REALS,
    FieldDescriptor,
    Unit,
    enumerate_units,
    finite_field,
    parse_field,
    parse_unit,
    sum_to_one_tuples,
    unit,
)
from mwslice.filtration import (
    FiltrationQuery,
    convergence_check,
    graded_piece,
    kmw_times_In,
    moore_filtration,
    shift_index,
    tate_filtration,
)
from mwslice.forms import (
    GWClass,
    QuadraticForm,
    WittClass,
    brute_force_gw,
    form,
    fundamental_power_description,
    gw_of_form,
    hyperbolic,
    in_fundamental_power,
    parse_form,
    pfister,
    witt_class,
)
from mwslice.milnor_witt import (
    MWExpression,
    MWNormalForm,
    cartesian_check,
    normalize,
    parse_expression,
    theta0,
    to_witt,
)
from mwslice.rewriting import (
    Derivation,
    derive_extended_steinberg,
    verify_derivation,
)
from mwslice.transfers import (
    FiniteExtension,
    parse_extension,
    projection_formula_check,
    trace_transfer_gw,
    transfer_closure_subgroup,
)

__all__ = [
    "Ambient",
    "COMPLEXES",
    "Derivation",
    "FieldDescriptor",
    "FiltrationQuery",
    "FiniteExtension",
    "GWClass",
    "MWExpression",
    "MWNormalForm",
    "QuadraticForm",
    "QuotientShape",
    "REALS",
    "SubgroupDescription",
    "Unit",
    "WittClass",
    "brute_force_gw",
    "cartesian_check",
    "convergence_check",
    "derive_extended_steinberg",
    "enumerate_units",
    "finite_field",
    "form",
    "fundamental_power_description",
    "graded_piece",
    "gw_of_form",
    "hyperbolic",
    "in_fundamental_power",
    "kmw_times_In",
    "moore_filtration",
    "normalize",
    "parse_expression",
    "parse_extension",
    "parse_field",
    "parse_form",
    "parse_unit",
    "pfister",
    "projection_formula_check",
    "shift_index",
    "sum_to_one_tuples",
    "tate_filtration",
    "theta0",
    "to_witt",
    "trace_transfer_gw",
    "transfer_closure_subgroup",
    "unit",
    "verify_derivation",
    "witt_class",
]

__version__ = "0.1.0"
