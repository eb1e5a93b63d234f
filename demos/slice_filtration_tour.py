#!/usr/bin/env python3
"""A tour of the filtration identities: the main theorem, transfers, Moore spectra.

Evaluates F^n pi_{p,p} of twisted spheres in coordinates, checks the
transfer-closure description against the direct formula, and reproduces the
mod-ell non-convergence counterexample over the reals.
"""

import itertools

from mwslice.fields import REALS, finite_field
from mwslice.filtration import (
    FiltrationQuery,
    convergence_check,
    filtration_report,
    moore_filtration,
    shift_index,
    tate_filtration,
)
from mwslice.transfers import (
    FiniteExtension,
    projection_formula_check,
    transfer_closure_subgroup,
)

F3, F5 = finite_field(3), finite_field(5)

print("=== F^n pi_(p,p) Sigma^q S(F) = K^MW_(q-p) I^N,  N = max(0, min(n-p, n-q)) ===\n")
for field, name in ((REALS, "R"), (F5, "F_5")):
    for (n, p, q) in ((3, 0, 0), (2, 0, 1), (4, 1, -1), (0, 2, 2)):
        sub = filtration_report(FiltrationQuery(n, p, q, field)).subgroup
        n_shift = shift_index(n - p, n - q)
        print(f"{name}: (n,p,q)=({n},{p},{q})  N={n_shift}  ->  {sub}")
    print()

print("=== transfers: the projection formula, exhaustively ===\n")
for ext in (FiniteExtension(F3, finite_field(9)), FiniteExtension(F5, finite_field(25))):
    rep = projection_formula_check(ext, 4)
    print(f"{ext}: Tr(y * p^*x) = Tr(y) * x on {rep.checked} cases -> {rep.ok}")

print("\n=== the transfer closure recovers the filtration (base F_3) ===\n")
agree = 0
for n, p, q in itertools.product(range(-2, 3), repeat=3):
    closure = transfer_closure_subgroup(F3, q, p, n, 3)
    direct = tate_filtration(FiltrationQuery(n, p, q, F3))
    assert closure == direct
    agree += 1
print(f"closure = K^MW I^N at all {agree} grid points")

print("\n=== convergence, and how it fails for Moore spectra ===\n")
for field, name in ((F5, "F_5"), (REALS, "R")):
    rep = convergence_check(field, 12)
    print(f"{name}: I-adic filtration separated ({rep.certificate})")

print("\nmod-3 Moore spectrum over R: image of I^n in GW(R)/3")
for n in range(0, 7):
    desc = moore_filtration(3, REALS, n)
    tag = desc.order_or_index()
    label = "full (Z/3 + Z/3)" if tag == "full" else f"Z/{tag[1]}"
    print(f"  n = {n}:  {label}")
print("constant Z/3 for n >= 1: the filtration never reaches 0")

print("\nover F_5 the augmentation ideal is 2-primary, so the same filtration vanishes:")
print("  n >= 1:", moore_filtration(3, F5, 1).order_or_index())
