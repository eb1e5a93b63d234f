#!/usr/bin/env python3
"""Certified rewriting: [u_1]...[u_n] = 0 whenever the units sum to 1.

Walks the inductive derivation for a few tuples, prints each certified step,
replays the certificate through the verifier, and shows the JSON form.
"""

import json

from mwslice.checks import sum_to_one_tuples
from mwslice.fields import finite_field, unit
from mwslice.milnor_witt import mw_symbols, normalize
from mwslice.rewriting import apply_step, derive_extended_steinberg, verify_derivation

F7 = finite_field(7)

print("=== the tuple (3, 3, 2) over F_7:  3 + 3 + 2 = 8 = 1 ===\n")
derivation = derive_extended_steinberg([unit(F7, 3), unit(F7, 3), unit(F7, 2)])
expr = derivation.start
print("start:", expr)
for step in derivation.steps:
    expr = apply_step(expr, step)
    print(f"  --[{step.rule} @ term {step.term_index}, factor {step.factor_index}]-->", expr)
print("verified:", verify_derivation(derivation).ok)

print("\n=== a tuple that needs the [a][-a] = 0 escape ===\n")
F3 = finite_field(3)
derivation = derive_extended_steinberg([unit(F3, 1), unit(F3, 2), unit(F3, 1)])
print("start:", derivation.start, " (2 + 1 = 0, so the tail dies at once)")
print("rules:", [s.rule for s in derivation.steps])
print("verified:", verify_derivation(derivation).ok)

print("\n=== JSON certificate ===\n")
print(json.dumps(derivation.to_json(), indent=2))

print("\n=== exhaustive sweep: every sum-to-one tuple over F_5, n <= 3 ===\n")
count = 0
for n in (1, 2, 3):
    for tup in sum_to_one_tuples(finite_field(5), n):
        d = derive_extended_steinberg(list(tup))
        assert verify_derivation(d).ok
        assert normalize(mw_symbols(list(tup)), degree=n).is_zero
        count += 1
print(f"{count} tuples certified, all normal forms vanish")
