"""Grothendieck-Witt and Witt ring arithmetic on coordinate vectors.

Over every supported field GW(F) is generated by <1> and, except over C,
e = <u> - <1> for one generator unit u (g over F_q, -1 over R), with
<u>^2 = <1> and so e^2 = -2e (Lam, *Introduction to Quadratic Forms over
Fields*, ch. II).  A GW class is its coordinate vector (rank, c) for
(rank - c)<1> + c<u>, reduced in ``field.gw_ambient``:

* finite F_q:  (rank, disc_dev) in Z x Z/2, where disc_dev is the square
  class of the product of diagonal entries.  W is Z/4 for q = 3 mod 4,
  Z/2 x Z/2 for q = 1 mod 4.
* real closed: (rank, index) in Z^2 with signature = rank - 2 index; W = Z
  via the signature.
* quadratically closed: (rank) in Z; W = rank mod 2.

One ring law serves all three: (r, c)(s, d) = (rs, rd + sc - 2cd), with the
c part absent over C.  It lives in one helper on coordinate tuples,
``_ring_mul``, which both the product of classes and ``pfister`` call, so a
Pfister element is folded on tuples and becomes one class at the end.  The
law is not taken on faith: the test suite validates it against the
brute-force isometry oracle in ``mwslice.checks`` and, over R and C, against
classes of tensor products of diagonal forms.
"""

from __future__ import annotations

import itertools

from mwslice.abelian import Record
from mwslice.fields import FieldDescriptor, FieldMismatchError, Unit, square_class, unit

_set = object.__setattr__


class QuadraticForm(Record):
    """A nondegenerate diagonal form <a_1, ..., a_n>."""

    __slots__ = _fields = ("field", "diagonal")

    def __init__(self, field: FieldDescriptor, diagonal: tuple[Unit, ...]) -> None:
        if any(u.field != field for u in diagonal):
            raise FieldMismatchError("diagonal entries must share the form's field")
        _set(self, "field", field)
        _set(self, "diagonal", diagonal)

    @property
    def rank(self) -> int:
        return len(self.diagonal)


def form(field: FieldDescriptor, *entries) -> QuadraticForm:
    return QuadraticForm(field, tuple(unit(field, e) for e in entries))


def parse_form(field: FieldDescriptor, text: str) -> QuadraticForm:
    """Parse form literals ``<a1,a2,...>``."""
    text = text.strip()
    if not (text.startswith("<") and text.endswith(">")):
        raise ValueError(f"form literal must look like <a,b,...>, got {text!r}")
    body = text[1:-1].strip()
    if not body:
        return QuadraticForm(field, ())
    return form(field, *[part.strip() for part in body.split(",")])


class _CoordinateClass(Record):
    """A ring element kept as its coordinate vector, reduced when built.

    The group operations work coordinate by coordinate; each ring writes
    its own ``__init__``, ``__add__`` and ``__mul__``.
    """

    __slots__ = _fields = ("field", "coords")

    def _check(self, other: "_CoordinateClass") -> None:
        if self.field != other.field:
            raise FieldMismatchError(f"classes over {self.field} and {other.field}")

    def __neg__(self):
        return type(self)(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, n: int):
        return type(self)(self.field, tuple(n * a for a in self.coords))

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)


class GWClass(_CoordinateClass):
    """An element of GW(F): its coordinates in ``field.gw_ambient``."""

    __slots__ = ()

    def __init__(self, field: FieldDescriptor, coords: tuple[int, ...]) -> None:
        _set(self, "field", field)
        _set(self, "coords", field.gw_ambient.reduce(coords))

    def __add__(self, other: "GWClass") -> "GWClass":
        self._check(other)
        return GWClass(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, other: "GWClass") -> "GWClass":
        self._check(other)
        return GWClass(self.field, _ring_mul(self.coords, other.coords))

    @property
    def rank(self) -> int:
        return self.coords[0]

    @property
    def disc_dev(self) -> int:
        """Square class of the discriminant's deviation from <1,...,1>; 0 off F_q."""
        return self.field.gw_invariants(self.coords).get("disc_dev", 0)

    @property
    def signature(self) -> int:
        """The signature over R; 0 elsewhere."""
        return self.field.gw_invariants(self.coords).get("signature", 0)

    def to_json(self) -> dict:
        return {"field": str(self.field), "rank": self.rank,
                **self.field.gw_invariants(self.coords)}

    def __str__(self) -> str:
        extra = self.field.gw_invariants(self.coords).items()
        return f"(rank {self.rank}" + "".join(f", {k} {v}" for k, v in extra) + ")"


def _ring_mul(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """(r, c)(s, d) = (rs, rd + sc - 2cd) on coordinate tuples, unreduced; (r)(s) = (rs) over C."""
    if len(x) == 1:
        return (x[0] * y[0],)
    (r, c), (s, d) = x, y
    return (r * s, r * d + s * c - 2 * c * d)


def gw_zero(field: FieldDescriptor) -> GWClass:
    return GWClass(field, (0, 0)[:field.gw_ambient.dim])


def gw_one(field: FieldDescriptor) -> GWClass:
    return GWClass(field, (1, 0)[:field.gw_ambient.dim])


def gw_of_unit(u: Unit) -> GWClass:
    """Class of the rank-one form <u>: <1> plus e when u is not a square."""
    return GWClass(u.field, (1, square_class(u))[:u.field.gw_ambient.dim])


def gw_of_form(qf: QuadraticForm) -> GWClass:
    """The sum of the classes <u>: the rank, then the count of nonsquare entries."""
    f = qf.field
    return GWClass(f, (qf.rank, sum(map(f.square_class, qf.diagonal)))[:f.gw_ambient.dim])


def gw_box(field: FieldDescriptor, rank_bound: int) -> list[GWClass]:
    """Every class with |rank| and |signature| at most rank_bound.

    By rank, then by the coordinate past it: disc_dev rising over F_q, the
    index falling (so the signature rising) over R.
    """
    span = range(-rank_bound, rank_bound + 1)
    ambient = field.gw_ambient
    tails = [*itertools.product(*[span[::-1]] * (ambient.free_rank - 1),
                                *(range(d) for d in ambient.torsion))]
    box = (GWClass(field, (r, *t)) for r in span for t in tails)
    return [x for x in box if abs(x.signature) <= rank_bound]


def gw_generators(field: FieldDescriptor) -> list[GWClass]:
    """Rank-one classes generating GW(F) as a group."""
    return [gw_one(field)] + [gw_of_unit(u) for u in field.gw_generator_units()]


def hyperbolic(field: FieldDescriptor) -> GWClass:
    return gw_of_form(form(field, 1, -1))


def pfister(units: list[Unit] | tuple[Unit, ...], coeff: int = 1) -> GWClass:
    """Rank-zero Pfister element: coeff times the product of (<u_i> - <1>).

    This normalization makes eta-symbols and Pfister elements coincide: the
    degree-zero evaluation of [u]*eta is exactly pfister([u]).  The fold
    starts at coeff * <1>, so a multiple is one class too.
    """
    if not units:
        raise ValueError("pfister requires at least one unit")
    f = units[0].field
    dim = f.gw_ambient.dim
    out = (coeff, 0)[:dim]
    for u in units:  # <u> - <1> = (0, square class of u)
        if u.field is not f:
            raise FieldMismatchError("pfister units must share one field")
        out = _ring_mul(out, (0, f.square_class(u))[:dim])
    return GWClass(f, out)


# -- Witt ring ------------------------------------------------------------------


class WittClass(_CoordinateClass):
    """An element of W(F) = GW(F)/(hyperbolic): its coordinates in ``field.witt_ambient``."""

    __slots__ = ()

    def __init__(self, field: FieldDescriptor, coords: tuple[int, ...]) -> None:
        _set(self, "field", field)
        _set(self, "coords", field.witt_ambient.reduce(coords))

    def __add__(self, other: "WittClass") -> "WittClass":
        self._check(other)
        return WittClass(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, other: "WittClass") -> "WittClass":
        self._check(other)
        # multiply on GW lifts, then project; well-definedness is oracle-tested
        return witt_class(witt_lift(self) * witt_lift(other))

    def __str__(self) -> str:
        return self.field.witt_str(self.coords)


def witt_class(x: GWClass) -> WittClass:
    return WittClass(x.field, x.field.witt_coords(x.coords))


def witt_lift(w: WittClass) -> GWClass:
    """A GW representative of a Witt class."""
    return GWClass(w.field, w.field.witt_lift(w.coords))


def witt_zero(field: FieldDescriptor) -> WittClass:
    return witt_class(gw_zero(field))

