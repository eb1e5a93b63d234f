#!/usr/bin/env python3
"""The I-adic ladder of GW for the three field families.

Prints the fundamental-ideal powers I(F)^n in coordinates, the headline
identity I(R)^n = (2^(n-1)) in the index coordinate, and the graded pieces
of the induced filtration of pi_{0,0} of the sphere.
"""

from mwslice.fields import COMPLEXES, REALS, finite_field
from mwslice.filtration import FiltrationQuery, graded_piece, kmw_times_In

print("=== the ideal ladder over R ===")
print("GW(R) = Z x Z in (virtual rank, virtual index) coordinates\n")
for n in range(0, 9):
    desc = kmw_times_In(0, n, REALS)
    if desc.is_full:
        print(f"I^{n} = GW(R)")
    else:
        k = desc.index_in_saturation()
        print(f"I^{n} = ({k}) in the index coordinate   (signature in {2 * k}Z)")

print("\n=== finite fields: the ladder stops at once ===")
for q in (3, 5, 9):
    field = finite_field(q)
    sizes = []
    for n in range(0, 4):
        d = kmw_times_In(0, n, field)
        tag = d.order_or_index()
        sizes.append("GW" if tag == "full" else ("0" if tag == "zero" else f"order {tag[1]}"))
    print(f"F_{q}:  I^0 = {sizes[0]}, I^1 = {sizes[1]}, I^2 = {sizes[2]}, I^3 = {sizes[3]}")

print("\n=== quadratically closed: nothing to filter ===")
for n in range(0, 3):
    print(f"I^{n}(C) = {kmw_times_In(0, n, COMPLEXES).order_or_index()}")

print("\n=== graded pieces of F^n pi_00 S ===")
for field, name in ((REALS, "R"), (finite_field(5), "F_5")):
    row = [str(graded_piece(FiltrationQuery(n, 0, 0, field))) for n in range(0, 5)]
    print(f"{name}:  " + ", ".join(f"gr^{n} = {s}" for n, s in enumerate(row)))
