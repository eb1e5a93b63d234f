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

The names in ``__all__`` are resolved on first use (PEP 562): ``import
mwslice`` loads no submodule, and ``from mwslice import X`` loads only the
submodule that defines X and what that submodule imports.
"""

import importlib

_EXPORTS = {
    "abelian": ("Ambient", "SubgroupDescription"),
    "checks": ("brute_force_gw", "cartesian_check", "sum_to_one_tuples"),
    "fields": (
        "COMPLEXES",
        "REALS",
        "FieldDescriptor",
        "Unit",
        "enumerate_units",
        "finite_field",
        "parse_field",
        "parse_unit",
        "unit",
    ),
    "filtration": (
        "FiltrationQuery",
        "convergence_check",
        "graded_piece",
        "kmw_times_In",
        "moore_filtration",
        "shift_index",
        "tate_filtration",
    ),
    "forms": (
        "GWClass",
        "QuadraticForm",
        "WittClass",
        "form",
        "gw_of_form",
        "hyperbolic",
        "parse_form",
        "pfister",
        "witt_class",
    ),
    "milnor_witt": (
        "MWExpression",
        "MWNormalForm",
        "normalize",
        "parse_expression",
        "theta0",
        "to_witt",
    ),
    "rewriting": ("Derivation", "derive_extended_steinberg", "verify_derivation"),
    "transfers": (
        "FiniteExtension",
        "parse_extension",
        "projection_formula_check",
        "trace_transfer_gw",
        "transfer_closure_subgroup",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
