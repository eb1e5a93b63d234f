"""Grothendieck-Witt and Witt ring arithmetic via complete invariants.

Coordinates per field family (the facts live on ``field.model``):

* finite F_q:  GW = (rank, disc_dev) in Z x Z/2, where disc_dev is the square
  class of the product of diagonal entries (deviation from the all-<1> form of
  the same rank).  W is Z/4 for q = 3 mod 4, Z/2 x Z/2 for q = 1 mod 4.
* real closed: GW = (rank, signature) with rank = signature mod 2; W = Z via
  the signature.  The free basis used for lattice work is (rank, index) with
  index = (rank - signature)/2.
* quadratically closed: GW = rank in Z; W = rank mod 2.

The coordinate ring laws are not taken on faith: the test suite validates
every one of them against the brute-force isometry oracle in this module.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from mwslice.abelian import Ambient, Record, SubgroupDescription, full_subgroup
from mwslice.fields import (
    FieldDescriptor,
    FieldMismatchError,
    Unit,
    canonical_nonsquare,
    enumerate_units,
    one,
    square_class_bit,
    unit,
    unit_add,
    unit_mul,
    unit_neg,
)

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

    def __str__(self) -> str:
        return "<" + ",".join(str(u) for u in self.diagonal) + ">"


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


class GWClass(Record):
    """An element of GW(F) in complete-invariant coordinates.

    ``disc_dev`` is used over finite fields only, ``signature`` over real
    closed fields only.
    """

    __slots__ = _fields = ("field", "rank", "disc_dev", "signature")

    def __init__(self, field: FieldDescriptor, rank: int, disc_dev: int = 0,
                 signature: int = 0) -> None:
        if not field.model.is_gw(rank, disc_dev, signature):
            raise ValueError(
                f"(rank, disc_dev, signature) = ({rank}, {disc_dev}, "
                f"{signature}) is not a class over {field}"
            )
        _set(self, "field", field)
        _set(self, "rank", rank)
        _set(self, "disc_dev", disc_dev)
        _set(self, "signature", signature)

    def _check(self, other: "GWClass") -> None:
        if self.field != other.field:
            raise FieldMismatchError(f"classes over {self.field} and {other.field}")

    def __add__(self, other: "GWClass") -> "GWClass":
        self._check(other)
        return GWClass(
            self.field,
            self.rank + other.rank,
            (self.disc_dev + other.disc_dev) % 2,
            self.signature + other.signature,
        )

    def __neg__(self) -> "GWClass":
        return GWClass(self.field, -self.rank, self.disc_dev, -self.signature)

    def __sub__(self, other: "GWClass") -> "GWClass":
        return self + (-other)

    def __mul__(self, other: "GWClass") -> "GWClass":
        self._check(other)
        dev = (self.rank * other.disc_dev + other.rank * self.disc_dev) % 2
        return GWClass(
            self.field, self.rank * other.rank, dev, self.signature * other.signature
        )

    def scale(self, n: int) -> "GWClass":
        return GWClass(self.field, n * self.rank, (n * self.disc_dev) % 2, n * self.signature)

    @property
    def is_zero(self) -> bool:
        return self.rank == 0 and self.disc_dev == 0 and self.signature == 0

    def coords(self) -> tuple[int, ...]:
        """Coordinates in ``gw_ambient(field)``; over R, (rank, index)."""
        return self.field.model.gw_coords(self)

    def to_json(self) -> dict:
        return {"field": str(self.field), "rank": self.rank,
                **self.field.model.gw_display(self)}

    def __str__(self) -> str:
        extra = self.field.model.gw_display(self).items()
        return f"(rank {self.rank}" + "".join(f", {k} {v}" for k, v in extra) + ")"


def gw_zero(field: FieldDescriptor) -> GWClass:
    return GWClass(field, 0)


def gw_one(field: FieldDescriptor) -> GWClass:
    return GWClass(field, 1, *field.model.one_invariants)


def gw_from_coords(field: FieldDescriptor, coords: tuple[int, ...]) -> GWClass:
    return GWClass(field, *field.model.gw_from_coords(coords))


def gw_of_unit(u: Unit) -> GWClass:
    """Class of the rank-one form <u>."""
    return GWClass(u.field, 1, *u.field.model.unit_invariants(u))


def gw_of_form(qf: QuadraticForm) -> GWClass:
    out = gw_zero(qf.field)
    for u in qf.diagonal:
        out = out + gw_of_unit(u)
    return out


def gw_box(field: FieldDescriptor, rank_bound: int) -> list[GWClass]:
    """Every class with |rank| and |signature| at most rank_bound."""
    span = range(-rank_bound, rank_bound + 1)
    return [
        GWClass(field, r, d, s)
        for r in span for d in (0, 1) for s in span if field.model.is_gw(r, d, s)
    ]


def gw_generators(field: FieldDescriptor) -> list[GWClass]:
    """Rank-one classes generating GW(F) as a group."""
    return [gw_one(field)] + [gw_of_unit(u) for u in field.model.gw_generator_units()]


def hyperbolic(field: FieldDescriptor) -> GWClass:
    return gw_of_form(form(field, 1, -1))


def pfister(units: list[Unit] | tuple[Unit, ...]) -> GWClass:
    """Rank-zero Pfister element: the product of (<u_i> - <1>).

    This normalization makes eta-symbols and Pfister elements coincide: the
    degree-zero evaluation of [u]*eta is exactly pfister([u]).
    """
    if not units:
        raise ValueError("pfister requires at least one unit")
    f = units[0].field
    out = gw_one(f)
    for u in units:
        if u.field != f:
            raise FieldMismatchError("pfister units must share one field")
        out = out * (gw_of_unit(u) - gw_one(f))
    return out


# -- Witt ring ------------------------------------------------------------------


class WittClass(Record):
    """An element of W(F) = GW(F)/(hyperbolic)."""

    __slots__ = _fields = ("field", "coords")

    def __init__(self, field: FieldDescriptor, coords: tuple[int, ...]) -> None:
        _set(self, "field", field)
        _set(self, "coords", field.model.witt_ambient.reduce(coords))

    def _check(self, other: "WittClass") -> None:
        if self.field != other.field:
            raise FieldMismatchError(f"classes over {self.field} and {other.field}")

    def __add__(self, other: "WittClass") -> "WittClass":
        self._check(other)
        return WittClass(
            self.field, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "WittClass":
        return WittClass(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other: "WittClass") -> "WittClass":
        return self + (-other)

    def scale(self, n: int) -> "WittClass":
        return WittClass(self.field, tuple(n * a for a in self.coords))

    def __mul__(self, other: "WittClass") -> "WittClass":
        self._check(other)
        # multiply on GW lifts, then project; well-definedness is oracle-tested
        return witt_class(_witt_lift(self) * _witt_lift(other))

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __str__(self) -> str:
        return self.field.model.witt_str(self.coords)


def witt_class(x: GWClass) -> WittClass:
    return WittClass(x.field, x.field.model.witt_coords(x))


def _witt_lift(w: WittClass) -> GWClass:
    """A GW representative of a Witt class."""
    return GWClass(w.field, *w.field.model.witt_lift(w.coords))


def witt_zero(field: FieldDescriptor) -> WittClass:
    return witt_class(gw_zero(field))


# -- fundamental ideal ------------------------------------------------------------


def in_fundamental_power(x: GWClass, n: int) -> bool:
    """Decide x in I(F)^n.  I^0 = GW."""
    return fundamental_power_description(x.field, n).contains(x.coords())


def gw_ambient(field: FieldDescriptor) -> Ambient:
    return field.model.gw_ambient


def witt_ambient(field: FieldDescriptor) -> Ambient:
    return field.model.witt_ambient


def fundamental_power_description(field: FieldDescriptor, n: int) -> SubgroupDescription:
    """I(F)^n as a subgroup of GW coordinates."""
    if n < 0:
        raise ValueError("fundamental powers are indexed by naturals")
    ambient = gw_ambient(field)
    if n == 0:
        return full_subgroup(ambient)
    return SubgroupDescription(ambient, field.model.ideal_generators(n))


def fundamental_power_in_witt(field: FieldDescriptor, n: int) -> SubgroupDescription:
    """Image of I(F)^n in Witt coordinates (an isomorphic image for n >= 1)."""
    if n < 0:
        raise ValueError("fundamental powers are indexed by naturals")
    ambient = witt_ambient(field)
    if n == 0:
        return full_subgroup(ambient)
    desc = fundamental_power_description(field, n)
    gens = tuple(
        witt_class(gw_from_coords(field, g)).coords for g in desc.generators
    )
    return SubgroupDescription(ambient, gens)


# -- brute-force oracle ------------------------------------------------------------


def represents(field: FieldDescriptor, entries: tuple[Unit, ...], c: Unit) -> bool:
    """Exhaustive test: does the diagonal form with these entries represent c?"""
    if not field.is_finite:
        raise ValueError("the exhaustive oracle only runs over finite fields")
    values = [None] + list(enumerate_units(field))
    for point in itertools.product(values, repeat=len(entries)):
        if all(x is None for x in point):
            continue
        total: Unit | None = None  # None stands for a zero running sum
        for a, x in zip(entries, point):
            if x is None:
                continue
            term = unit_mul(a, unit_mul(x, x))
            total = term if total is None else unit_add(total, term)
        if total == c:
            return True
    return False


def binary_isometric(a: Unit, b: Unit, c: Unit, d: Unit) -> bool:
    """<a,b> = <c,d> iff equal discriminants and <a,b> represents c."""
    field = a.field
    disc_ab = square_class_bit(unit_mul(a, b))
    disc_cd = square_class_bit(unit_mul(c, d))
    if disc_ab != disc_cd:
        return False
    return represents(field, (a, b), c)


class BruteForceTable(Record):
    """Chain-equivalence classes of diagonal forms with representative entries.

    Each class is a tuple of forms, each form a sorted tuple of square-class bits.
    """

    __slots__ = _fields = ("field", "max_rank", "classes")

    def __init__(self, field: FieldDescriptor, max_rank: int,
                 classes: tuple[tuple[tuple[int, ...], ...], ...]) -> None:
        _set(self, "field", field)
        _set(self, "max_rank", max_rank)
        _set(self, "classes", classes)

    def class_count(self, rank: int) -> int:
        return sum(1 for cls in self.classes if len(cls[0]) == rank)


MAX_BRUTE_RANK = 8


@lru_cache(maxsize=None)
def brute_force_gw(field: FieldDescriptor, max_rank: int) -> BruteForceTable:
    """Classify diagonal forms with entries in {1, s} by chain equivalence.

    Moves replace a pair of entries by another representative pair when the
    corresponding binary forms are isometric (equal discriminant plus an
    exhaustive representation search).  Completeness of the (rank, disc)
    invariants is checked against this table by the test suite, not assumed.
    """
    if not field.is_finite:
        raise ValueError("brute_force_gw runs over finite fields")
    if max_rank > MAX_BRUTE_RANK:
        raise ValueError(f"rank bound {max_rank} exceeds {MAX_BRUTE_RANK}")
    s = canonical_nonsquare(field)
    reps = (one(field), s)

    def entry(bit: int) -> Unit:
        return reps[bit]

    isometric_pairs: dict[tuple[int, int, int, int], bool] = {}
    for quad in itertools.product((0, 1), repeat=4):
        isometric_pairs[quad] = binary_isometric(*(entry(b) for b in quad))

    classes: list[set[tuple[int, ...]]] = []
    for rank in range(max_rank + 1):
        forms = {tuple(sorted(bits)) for bits in itertools.product((0, 1), repeat=rank)}
        assigned: set[tuple[int, ...]] = set()
        for start in sorted(forms):
            if start in assigned:
                continue
            cls = {start}
            frontier = [start]
            while frontier:
                cur = frontier.pop()
                for i, j in itertools.combinations(range(rank), 2):
                    for new_pair in itertools.product((0, 1), repeat=2):
                        if not isometric_pairs[(cur[i], cur[j], *new_pair)]:
                            continue
                        nxt = list(cur)
                        nxt[i], nxt[j] = new_pair
                        nxt_t = tuple(sorted(nxt))
                        if nxt_t not in cls:
                            cls.add(nxt_t)
                            frontier.append(nxt_t)
            assigned |= cls
            classes.append(cls)
    return BruteForceTable(
        field, max_rank, tuple(tuple(sorted(cls)) for cls in classes)
    )


def rep_form(field: FieldDescriptor, bits: tuple[int, ...]) -> QuadraticForm:
    s = canonical_nonsquare(field)
    reps = (one(field), s)
    return QuadraticForm(field, tuple(reps[b] for b in bits))


@lru_cache(maxsize=None)
def witt_oracle_classes(field: FieldDescriptor, max_rank: int = 6) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Witt classes of representative forms: chain equivalence + hyperbolic moves."""
    table = brute_force_gw(field, max_rank)
    h_bits = tuple(sorted((0, square_class_bit(unit_neg(one(field))))))
    parent: dict[tuple[int, ...], tuple[int, ...]] = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    all_forms = [f for cls in table.classes for f in cls]
    for cls in table.classes:
        for f in cls[1:]:
            union(cls[0], f)
    for f in all_forms:
        if len(f) + 2 <= max_rank:
            union(f, tuple(sorted(f + h_bits)))
    groups: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for f in all_forms:
        groups.setdefault(find(f), set()).add(f)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=lambda g: sorted(g)[0]))
