"""Trace-form transfers for finite extensions and the transfer-closure subgroup.

The transfer functional is the field trace (the Scharlau transfer): a rank-one
generator <a> over the top field maps to the class of the symmetric matrix
Tr(a x_i x_j) over a basis of the extension, diagonalized by exact symmetric
Gauss reduction.  Only properties the underlying theorems assert of the
geometric transfer are tested (projection formula, filtration preservation,
the closure identity); no equality with any other construction is claimed.

Degree-shifted transfers are induced through the eta tower: negative degrees
through Witt coordinates, degree one over a finite field by the norm on the
unit class together with the trace transfer on the ideal bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from mwslice.abelian import SubgroupDescription
from mwslice.fields import (
    COMPLEXES,
    REALS,
    FieldDescriptor,
    Unit,
    canonical_nonsquare,
    enumerate_units,
    finite_field,
    one,
    parse_field,
    square_class_bit,
    unit,
    unit_add,
    unit_inv,
    unit_mul,
    unit_neg,
    unit_pow,
)
from mwslice.filtration import FiltrationQuery, kmw_times_In, tate_filtration
from mwslice.forms import (
    GWClass,
    WittClass,
    _witt_lift,
    gw_box,
    gw_generators,
    gw_of_unit,
    gw_one,
    gw_zero,
    hyperbolic,
    witt_class,
)
from mwslice.milnor_witt import (
    MWNormalForm,
    kmw_ambient,
    kmw_generating_expressions,
    normal_form_from_coords,
    normalize,
)


class ExtensionError(ValueError):
    """The requested extension is not supported or ill-formed."""


@dataclass(frozen=True)
class FiniteExtension:
    """A separable extension: F_{q^d}/F_q or C/R."""

    base: FieldDescriptor
    top: FieldDescriptor

    def __post_init__(self) -> None:
        if (self.base, self.top) == (REALS, COMPLEXES):
            return
        if self.base.is_finite and self.top.is_finite:
            if self.base.p != self.top.p:
                raise ExtensionError("extension fields must share characteristic")
            if self.top.degree % self.base.degree != 0:
                raise ExtensionError(
                    f"{self.top} does not contain {self.base}: degree mismatch"
                )
            return
        raise ExtensionError(f"unsupported extension {self.top}/{self.base}")

    @property
    def degree(self) -> int:
        if not self.base.is_finite:
            return 2
        return self.top.degree // self.base.degree

    def __str__(self) -> str:
        return f"{self.top}/{self.base}"


def parse_extension(text: str) -> FiniteExtension:
    """Parse extension literals ``Fq(9)/Fq(3)`` and ``C/R``."""
    parts = text.strip().split("/")
    if len(parts) != 2:
        raise ExtensionError(f"extension literal must be top/base, got {text!r}")
    top, base = parse_field(parts[0]), parse_field(parts[1])
    return FiniteExtension(base, top)


@lru_cache(maxsize=None)
def embedding_image_of_generator(ext: FiniteExtension) -> Unit:
    """Canonical root of the base modulus in the top field (defines base -> top)."""
    assert ext.base.is_finite
    if ext.base.degree == 1:
        return one(ext.top)
    for cand in sorted(enumerate_units(ext.top), key=lambda u: u.encoding):
        if _evaluate(ext.top, ext.base.modulus, cand) is None:
            return cand
    raise ExtensionError(f"no root of the base modulus found in {ext.top}")


def _evaluate(field: FieldDescriptor, coeffs: Sequence[int], x: Unit) -> Unit | None:
    """sum(c_i * x^i) for integer coefficients c_i; None when the sum is 0."""
    acc: Unit | None = None
    for i, c in enumerate(coeffs):
        if c % field.p:
            term = unit_mul(unit(field, c), unit_pow(x, i))
            acc = term if acc is None else unit_add(acc, term)
    return acc


def embed_unit(ext: FiniteExtension, u: Unit) -> Unit:
    """Image of a base unit in the top field."""
    if not ext.base.is_finite:
        return Unit(ext.top, u.value)
    if ext.base.degree == 1:
        return Unit(ext.top, (u.value[0],) + (0,) * (ext.top.degree - 1))
    image = _evaluate(ext.top, u.value, embedding_image_of_generator(ext))
    assert image is not None
    return image


@lru_cache(maxsize=None)
def _embedding_inverse_table(ext: FiniteExtension) -> dict[Unit, Unit]:
    return {embed_unit(ext, u): u for u in enumerate_units(ext.base)}


def trace_to_base(ext: FiniteExtension, z: Unit | None) -> Unit | None:
    """Tr_{top/base}(z) = sum of Frobenius conjugates, expressed over the base."""
    assert ext.base.is_finite
    if z is None:
        return None
    qb = ext.base.order
    acc: Unit | None = None
    conj = z
    for i in range(ext.degree):
        acc = conj if acc is None else unit_add(acc, conj)
        conj = unit_pow(conj, qb)
    if acc is None:
        return None
    table = _embedding_inverse_table(ext)
    if acc not in table:
        raise ExtensionError(f"trace value {acc} is not in the embedded base field")
    return table[acc]


def _symmetric_diagonalize(field: FieldDescriptor, gram: list[list[Unit | None]]) -> list[Unit]:
    """Exact congruence diagonalization of a symmetric matrix over F_q."""
    n = len(gram)
    m = [row[:] for row in gram]
    diag: list[Unit] = []
    rows = list(range(n))

    def addmul(i: int, j: int, c: Unit) -> None:
        # row_i += c * row_j and col_i += c * col_j
        for k in range(n):
            term = None if m[j][k] is None else unit_mul(c, m[j][k])
            m[i][k] = term if m[i][k] is None else (
                m[i][k] if term is None else unit_add(m[i][k], term)
            )
        for k in range(n):
            term = None if m[k][j] is None else unit_mul(c, m[k][j])
            m[k][i] = term if m[k][i] is None else (
                m[k][i] if term is None else unit_add(m[k][i], term)
            )

    idx = 0
    while idx < n:
        if m[idx][idx] is None:
            pivot = next(
                (j for j in range(idx + 1, n) if m[idx][j] is not None), None
            )
            if pivot is None:
                raise ExtensionError("degenerate trace form: zero row encountered")
            # adding +/- row pivot puts +/-2*m[idx][pivot] + m[pivot][pivot] on
            # the diagonal; in odd characteristic at least one sign is nonzero
            two_off = unit_add(m[idx][pivot], m[idx][pivot])
            plus = (
                two_off
                if m[pivot][pivot] is None
                else unit_add(two_off, m[pivot][pivot])
            )
            c = one(field) if plus is not None else unit_neg(one(field))
            addmul(idx, pivot, c)
        a = m[idx][idx]
        diag.append(a)
        inv = unit_inv(a)
        for j in range(idx + 1, n):
            if m[idx][j] is None:
                continue
            c = unit_neg(unit_mul(m[idx][j], inv))
            addmul(j, idx, c)
        idx += 1
    return diag


@lru_cache(maxsize=None)
def transfer_of_unit_form(ext: FiniteExtension, a: Unit) -> GWClass:
    """Scharlau transfer of the rank-one form <a> along the field trace."""
    if not ext.base.is_finite:
        return hyperbolic(ext.base)  # Gram of Tr(a x y) in basis {1, i} is hyperbolic
    d = ext.degree
    x = _top_power_basis(ext)
    gram: list[list[Unit | None]] = []
    for i in range(d):
        row = []
        for j in range(d):
            row.append(trace_to_base(ext, unit_mul(a, unit_mul(x[i], x[j]))))
        gram.append(row)
    diag = _symmetric_diagonalize(ext.base, gram)
    out = gw_zero(ext.base)
    for entry in diag:
        out = out + gw_of_unit(entry)
    return out


@lru_cache(maxsize=None)
def _top_power_basis(ext: FiniteExtension) -> tuple[Unit, ...]:
    """Power basis 1, X, ..., X^{d-1} of top over base (X the polynomial class)."""
    d = ext.degree
    if ext.top.degree == 1:
        return (one(ext.top),)
    xgen = Unit(ext.top, (0, 1) + (0,) * (ext.top.degree - 2))
    return tuple(unit_pow(xgen, i) if i else one(ext.top) for i in range(d))


def trace_transfer_gw(ext: FiniteExtension, x: GWClass) -> GWClass:
    """Additive transfer GW(top) -> GW(base), computed on rank-one generators."""
    if x.field != ext.top:
        raise ExtensionError(f"class over {x.field} is not over {ext.top}")
    if not ext.base.is_finite:
        return hyperbolic(ext.base).scale(x.rank)  # every <a> over C transfers to h
    s = canonical_nonsquare(ext.top)
    dev = x.disc_dev
    t1 = transfer_of_unit_form(ext, one(ext.top))
    ts = transfer_of_unit_form(ext, s)
    return t1.scale(x.rank - dev) + ts.scale(dev)


def p_star(ext: FiniteExtension, x: GWClass) -> GWClass:
    """Extension of scalars GW(base) -> GW(top)."""
    if x.field != ext.base:
        raise ExtensionError(f"class over {x.field} is not over {ext.base}")
    if not ext.base.is_finite:
        return GWClass(ext.top, x.rank)
    s = canonical_nonsquare(ext.base)
    dev = x.disc_dev
    s_up = embed_unit(ext, s)
    return gw_one(ext.top).scale(x.rank - dev) + gw_of_unit(s_up).scale(dev)


def trace_transfer_witt(ext: FiniteExtension, w: WittClass) -> WittClass:
    """Induced transfer W(top) -> W(base); well-definedness is exercised in tests."""
    return witt_class(trace_transfer_gw(ext, _witt_lift(w)))


def norm_to_base(ext: FiniteExtension, u: Unit) -> Unit:
    """Field norm top -> base: the product of Frobenius conjugates."""
    assert ext.base.is_finite
    acc = one(ext.top)
    conj = u
    qb = ext.base.order
    for _ in range(ext.degree):
        acc = unit_mul(acc, conj)
        conj = unit_pow(conj, qb)
    table = _embedding_inverse_table(ext)
    return table[acc]


def transfer_kmw(ext: FiniteExtension, nf: MWNormalForm) -> MWNormalForm:
    """Transfer of a degree-m normal form, induced through the eta tower.

    Degree 0 is the trace transfer on GW; negative degrees go through Witt
    coordinates; degree >= 2 over a finite field is the zero group; degree 1
    combines the norm on the unit class with the trace transfer on the ideal
    bit (the two agree under the square-class compatibility).
    """
    m = nf.degree
    base, top = ext.base, ext.top
    if m is None:
        return MWNormalForm(base, None)
    if nf.field != top:
        raise ExtensionError(f"normal form over {nf.field} is not over {top}")
    if m == 0:
        return MWNormalForm(base, 0, gw=trace_transfer_gw(ext, nf.gw))
    if m < 0:
        return MWNormalForm(base, m, witt=trace_transfer_witt(ext, nf.witt))
    if not base.is_finite:
        raise ExtensionError("positive-degree transfers are implemented over finite fields")
    if m >= 2:
        return MWNormalForm(base, m)
    u_down = norm_to_base(ext, nf.milnor_unit)
    transferred = trace_transfer_gw(ext, GWClass(top, 0, nf.ideal_bit))
    if transferred.rank != 0 or transferred.disc_dev != square_class_bit(u_down):
        raise ExtensionError(
            "trace transfer on the ideal bit disagrees with the norm's square class"
        )
    return MWNormalForm(
        base, 1, milnor_unit=u_down, ideal_bit=square_class_bit(u_down)
    )


# -- property reports ---------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    name: str
    extension: str
    ok: bool
    checked: int
    counterexample: str | None = None

    def to_json(self) -> dict:
        out = {
            "check": self.name,
            "extension": self.extension,
            "ok": self.ok,
            "cases": self.checked,
        }
        if self.counterexample:
            out["counterexample"] = self.counterexample
        return out


def projection_formula_check(ext: FiniteExtension, rank_bound: int = 4) -> CheckReport:
    """Exhaustive Tr(y * p^*x) = Tr(y) * x over the coordinate boxes.

    y ranges over GW(top) classes with |rank| <= rank_bound, x over the
    rank-one generators of GW(base).
    """
    ys = gw_box(ext.top, rank_bound)
    xs = gw_generators(ext.base)
    checked = 0
    for y in ys:
        for x in xs:
            checked += 1
            lhs = trace_transfer_gw(ext, y * p_star(ext, x))
            rhs = trace_transfer_gw(ext, y) * x
            if lhs != rhs:
                return CheckReport(
                    "projection_formula", str(ext), False, checked,
                    f"y={y}, x={x}: {lhs} != {rhs}",
                )
    return CheckReport("projection_formula", str(ext), True, checked)


def filtration_preservation_check(
    ext: FiniteExtension, q_minus_p: int, N: int
) -> CheckReport:
    """Transfers map K^MW_{q-p}(top) * I^N into the same subgroup over the base.

    The source subgroup is finite in every nontrivial case (N >= 1); for N = 0
    both sides are the full group and the check is trivial.
    """
    if not ext.base.is_finite:
        raise ExtensionError("the exhaustive check runs over finite extensions")
    if N < 0:
        raise ValueError("N must be a natural number")
    m = q_minus_p
    name = "filtration_preservation"
    if N == 0:
        return CheckReport(name, str(ext), True, 0, None)
    source = kmw_times_In(m, N, ext.top)
    target = kmw_times_In(m, N, ext.base)
    checked = 0
    for coords in source.elements():
        image = transfer_kmw(ext, normal_form_from_coords(ext.top, m, coords))
        checked += 1
        if image.degree is not None and not target.contains(image.coords()):
            return CheckReport(
                name, str(ext), False, checked,
                f"element {coords} of degree {m} transfers outside I^{N}",
            )
    return CheckReport(name, str(ext), True, checked)


def transfer_closure_subgroup(
    base: FieldDescriptor, q: int, p: int, n: int, degree_bound: int
) -> SubgroupDescription:
    """Subgroup of K^MW_{q-p}(base) generated by transfers of split products.

    Generators are Tr_E(x * y) with x running over coordinate generators of
    K^MW_{q-n}(E), y over those of K^MW_{n-p}(E), and E over the extensions of
    degree <= degree_bound.  For n <= p the filtration level is the whole
    group by stabilization and no transfer computation is involved.
    """
    if not base.is_finite:
        raise ExtensionError("transfer closures are computed over finite base fields")
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    m = q - p
    if n <= p:
        return tate_filtration(FiltrationQuery(n, p, q, base))
    gens: list[MWNormalForm] = []
    for d in range(1, degree_bound + 1):
        top = base if d == 1 else finite_field(base.order**d)
        ext = FiniteExtension(base, top)
        for x in kmw_generating_expressions(top, q - n):
            for y in kmw_generating_expressions(top, n - p):
                product = normalize(x * y, degree=m)
                down = transfer_kmw(ext, product) if d > 1 else product
                gens.append(down)
    return SubgroupDescription(
        kmw_ambient(base, m), tuple(nf.coords() for nf in gens if nf.degree is not None)
    )
