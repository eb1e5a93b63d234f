"""Trace-form transfers for finite extensions and the transfer-closure subgroup.

The transfer functional is the field trace (the Scharlau transfer): a rank-one
generator <a> over the top field maps to the class of the symmetric form
Tr(a x y).  Over F_q that class is fixed by the classification of forms: rank d
and discriminant bit sq(a) + [d even].  The acceptance suite checks this
against the Gram matrix Tr(a X^(i+j)) built by its definition
(``checks.trace_form_oracle``), and checks the properties the underlying
theorems assert of the geometric transfer: the projection formula, filtration
preservation and the closure identity.

Degree-shifted transfers are induced through the eta tower: negative degrees
through Witt coordinates, degree one over a finite field by the norm on the
log coordinate together with the trace transfer on the ideal bit.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from mwslice.abelian import Record, SubgroupDescription, full_subgroup
from mwslice.fields import (
    COMPLEXES,
    REALS,
    FieldDescriptor,
    Unit,
    finite_field,
    multiplicative_generator,
    one,
    parse_field,
    square_class,
    unit,
    unit_add,
    unit_mul,
    unit_pow,
)
from mwslice.filtration import kmw_times_In
from mwslice.forms import (
    GWClass,
    WittClass,
    gw_box,
    gw_generators,
    gw_of_unit,
    witt_class,
    witt_lift,
)
from mwslice.milnor_witt import (
    MWNormalForm,
    kmw_ambient,
    kmw_generating_expressions,
    mw_symbol,
    normal_form_from_coords,
    normalize,
)


class ExtensionError(ValueError):
    """The requested extension is not supported or ill-formed."""


_set = object.__setattr__


class FiniteExtension(Record):
    """A separable extension: F_{q^d}/F_q or C/R."""

    __slots__ = _fields = ("base", "top")

    def __init__(self, base: FieldDescriptor, top: FieldDescriptor) -> None:
        if (base, top) != (REALS, COMPLEXES):
            if not (base.is_finite and top.is_finite):
                raise ExtensionError(f"unsupported extension {top}/{base}")
            if base.p != top.p:
                raise ExtensionError("extension fields must share characteristic")
            if top.degree % base.degree != 0:
                raise ExtensionError(f"{top} does not contain {base}: degree mismatch")
        _set(self, "base", base)
        _set(self, "top", top)

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
    """Canonical root of the base modulus in the top field (defines base -> top).

    The canonical root is the one of smallest encoding.  Every root lies in
    the subfield of order q_b, whose units are the q_b - 1 powers of
    h = g^((Q - 1)/(q_b - 1)) for the generator g of the top field of order
    Q, so only those are tested.
    """
    assert ext.base.is_finite
    top, qb = ext.top, ext.base.order
    h = unit_pow(multiplicative_generator(top), (top.order - 1) // (qb - 1))
    roots, x = [], one(top)
    for _ in range(qb - 1):
        if _evaluate(top, ext.base.modulus, x) is None:
            roots.append(x)
        x = unit_mul(x, h)
    if not roots:
        raise ExtensionError(f"no root of the base modulus found in {top}")
    return min(roots, key=lambda u: u.value)


def _evaluate(field: FieldDescriptor, coeffs: Sequence[int], x: Unit) -> Unit | None:
    """sum(c_i * x^i) for integer coefficients c_i, by Horner; None when the sum is 0."""
    acc: Unit | None = None
    for c in reversed(coeffs):
        if acc is not None:
            acc = unit_mul(acc, x)
        if c % field.p:
            term = unit(field, c)
            acc = term if acc is None else unit_add(acc, term)
    return acc


def embed_unit(ext: FiniteExtension, u: Unit) -> Unit:
    """Image of a base unit in the top field."""
    if ext.base == ext.top or not ext.base.is_finite or ext.base.degree == 1:
        return Unit(ext.top, u.value)  # u itself, a rational, or a constant code below p
    image = _evaluate(ext.top, ext.base.coefficients(u.value), embedding_image_of_generator(ext))
    assert image is not None
    return image


@lru_cache(maxsize=None)
def _norm_log_factor(ext: FiniteExtension) -> int:
    """j with N(G^k) = g^(k j) for the generators G of the top field and g of the base.

    The norm is u -> u^t, t = (Q - 1)/(q_b - 1), and the embedded g is
    G^(t e) for some e prime to q_b - 1, so N(G^k) = G^(t k) embeds g^(k / e):
    j = 1/e mod q_b - 1, from one log over the top field.
    """
    base, top = ext.base, ext.top
    (k,) = normalize(mw_symbol(embed_unit(ext, base.generator_power(1)))).coords()
    return pow(k // ((top.order - 1) // (base.order - 1)), -1, base.order - 1)


@lru_cache(maxsize=None)
def transfer_of_unit_form(ext: FiniteExtension, a: Unit) -> GWClass:
    """Scharlau transfer of the rank-one form <a> along the field trace.

    Over F_q a form is classified by rank and discriminant.  Tr_*<a> has rank
    d and determinant N(a) d_(E/F); the norm keeps square classes, and d_(E/F)
    is a square iff d is odd (Scharlau, *Quadratic and Hermitian Forms*,
    ch. 2.5; Serre, *Local Fields*, ch. III.2).  Over C/R every a is a square,
    so the class (2, 1) is the hyperbolic form, the Gram of Tr(a x y) in the
    basis {1, i}.  ``checks.trace_form_oracle`` builds the Gram matrix instead.
    The cache spares ``square_class`` its power.
    """
    d = ext.degree
    return GWClass(ext.base, (d, square_class(a) + (d % 2 == 0)))


def _on_generators(x: GWClass, image) -> GWClass:
    """The additive map <u> -> image(u) at x = (rank - sum c) <1> + sum c <u>, the c
    over the field's GW generator units (as in ``milnor_witt.theta0_inverse``)."""
    coeffs = x.coords[1:]
    out = image(one(x.field)).scale(x.rank - sum(coeffs))
    for c, u in zip(coeffs, x.field.gw_generator_units()):
        out = out + image(u).scale(c)
    return out


def trace_transfer_gw(ext: FiniteExtension, x: GWClass) -> GWClass:
    """Additive transfer GW(top) -> GW(base), computed on rank-one generators."""
    if x.field != ext.top:
        raise ExtensionError(f"class over {x.field} is not over {ext.top}")
    return _on_generators(x, lambda u: transfer_of_unit_form(ext, u))


def p_star(ext: FiniteExtension, x: GWClass) -> GWClass:
    """Extension of scalars GW(base) -> GW(top)."""
    if x.field != ext.base:
        raise ExtensionError(f"class over {x.field} is not over {ext.base}")
    return _on_generators(x, lambda u: gw_of_unit(embed_unit(ext, u)))


def trace_transfer_witt(ext: FiniteExtension, w: WittClass) -> WittClass:
    """Induced transfer W(top) -> W(base); well-definedness is exercised in tests."""
    return witt_class(trace_transfer_gw(ext, witt_lift(w)))


def transfer_kmw(ext: FiniteExtension, nf: MWNormalForm) -> MWNormalForm:
    """Transfer of a degree-m normal form, induced through the eta tower.

    Degree 0 is the trace transfer on GW; negative degrees go through Witt
    coordinates; a degree whose coordinate group over the top field is
    trivial (every m >= 2 over F_q, every m >= 1 over C) maps to zero;
    degree 1 over a finite field takes the coordinate log_G u to the base
    log k j of the norm of u, checked against the trace transfer on the ideal
    bit (the two agree under the square-class compatibility).
    """
    m = nf.degree
    base, top = ext.base, ext.top
    if nf.field != top:
        raise ExtensionError(f"normal form over {nf.field} is not over {top}")
    if m is None:
        return MWNormalForm(base, None)
    if m == 0:
        return MWNormalForm(base, 0, trace_transfer_gw(ext, GWClass(top, nf.value)).coords)
    if m < 0:
        return MWNormalForm(base, m, trace_transfer_witt(ext, WittClass(top, nf.value)).coords)
    if kmw_ambient(top, m).is_trivial:
        # the group is divisible (zero over F_q, K^M_m(C) over C), and the image
        # of a divisible group lies in the base's divisible part, which the
        # coordinates quotient out
        return normal_form_from_coords(base, m, (0,) * kmw_ambient(base, m).dim)
    (k,) = nf.value
    down = k * _norm_log_factor(ext) % (base.order - 1)
    transferred = trace_transfer_gw(ext, GWClass(top, (0, nf.ideal_bit)))
    if transferred.rank != 0 or transferred.disc_dev != down % 2:
        raise ExtensionError(
            "trace transfer on the ideal bit disagrees with the norm's square class"
        )
    return MWNormalForm(base, 1, (down,))


# -- exhaustive property checks ---------------------------------------------------


# The projection-formula check takes rank bounds 0..MAX_RANK_BOUND; the GW box
# it walks has about 4 * rank_bound classes.
MAX_RANK_BOUND = 100


def projection_formula_check(ext: FiniteExtension, rank_bound: int = 4) -> tuple[int, str | None]:
    """Exhaustive Tr(y * p^*x) = Tr(y) * x over the coordinate boxes.

    y ranges over GW(top) classes with |rank| <= rank_bound, x over the
    rank-one generators of GW(base).  Returns the cases checked and the
    first counterexample, or None when the formula holds on all of them.
    """
    if rank_bound > MAX_RANK_BOUND:
        raise ValueError(f"rank bound {rank_bound} exceeds the supported bound {MAX_RANK_BOUND}")
    if rank_bound < 0:
        raise ValueError(f"rank bound {rank_bound} is negative")
    ys = gw_box(ext.top, rank_bound)
    xs = gw_generators(ext.base)
    checked = 0
    for y in ys:
        for x in xs:
            checked += 1
            lhs = trace_transfer_gw(ext, y * p_star(ext, x))
            rhs = trace_transfer_gw(ext, y) * x
            if lhs != rhs:
                return checked, f"y={y}, x={x}: {lhs} != {rhs}"
    return checked, None


def filtration_preservation_check(
    ext: FiniteExtension, q_minus_p: int, N: int
) -> tuple[int, str | None]:
    """Transfers map K^MW_{q-p}(top) * I^N into the same subgroup over the base.

    The source subgroup is finite in every nontrivial case (N >= 1); for N = 0
    both sides are the full group and the check is trivial.  Returns the
    elements checked and the first one that leaves the target, or None.
    """
    if not ext.base.is_finite:
        raise ExtensionError("the exhaustive check runs over finite extensions")
    if N < 0:
        raise ValueError("N must be a natural number")
    m = q_minus_p
    if N == 0:
        return 0, None
    source = kmw_times_In(m, N, ext.top)
    target = kmw_times_In(m, N, ext.base)
    checked = 0
    for coords in source.elements():
        image = transfer_kmw(ext, normal_form_from_coords(ext.top, m, coords))
        checked += 1
        if not target.contains(image.coords()):
            return checked, f"element {coords} of degree {m} transfers outside I^{N}"
    return checked, None


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
        return full_subgroup(kmw_ambient(base, m))
    gens: list[MWNormalForm] = []
    for d in range(1, degree_bound + 1):
        top = base if d == 1 else finite_field(base.order**d)
        ext = FiniteExtension(base, top)
        for x in kmw_generating_expressions(top, q - n):
            for y in kmw_generating_expressions(top, n - p):
                product = normalize(x * y, degree=m)
                down = transfer_kmw(ext, product) if d > 1 else product
                gens.append(down)
    return SubgroupDescription(kmw_ambient(base, m), tuple(nf.coords() for nf in gens))
