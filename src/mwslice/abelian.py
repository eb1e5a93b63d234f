"""Finitely generated abelian coordinate groups and their subgroups.

An :class:`Ambient` is Z^f + Z/d_1 + ... + Z/d_t with named coordinates.
Subgroups are handled as integer lattices in Z^(f+t) containing the torsion
relation vectors d_i * e_{f+i}; Hermite normal form gives a canonical basis,
so equality, membership, order and quotients are all exact integer
computations.  A quotient of two subgroups is again an :class:`Ambient`,
whose torsion is the Smith divisors above 1, read off Hermite forms taken
alternately of a matrix and of its transpose.  Every group appearing in the
library fits in f <= 2, t <= 2.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, lcm, prod
from operator import attrgetter
from typing import Iterable, Sequence

Vec = tuple[int, ...]

_set = object.__setattr__


class Record:
    """Base of the library's immutable value classes.

    A subclass names its compared fields in ``_fields`` and writes its own
    ``__init__``, which stores every attribute with ``object.__setattr__``.
    Afterwards assignment raises AttributeError.  ``repr`` shows the fields;
    equality holds between instances of one class with equal field tuples,
    and the hash is the hash of that tuple.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__:
            get = attrgetter(*cls._fields)
            cls._key = get if len(cls._fields) > 1 else staticmethod(lambda obj: (get(obj),))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))


class Ambient(Record):
    """Z^free_rank + Z/d_1 + ... + Z/d_t, with a name for each coordinate."""

    __slots__ = _fields = ("free_rank", "torsion", "coord_names", "label")

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = (),
                 coord_names: tuple[str, ...] = (), label: str = "") -> None:
        if any(d < 2 for d in torsion):
            raise ValueError("torsion moduli must be >= 2")
        dim = free_rank + len(torsion)
        names = coord_names or tuple(f"c{i}" for i in range(dim))
        if len(names) != dim:
            raise ValueError("coordinate names do not match dimension")
        _set(self, "free_rank", free_rank)
        _set(self, "torsion", torsion)
        _set(self, "coord_names", names)
        _set(self, "label", label)

    @property
    def dim(self) -> int:
        return self.free_rank + len(self.torsion)

    def reduce(self, v: Sequence[int]) -> Vec:
        if len(v) != self.dim:
            raise ValueError(f"vector {v} has wrong length for {self}")
        out = list(v)
        for i, d in enumerate(self.torsion):
            out[self.free_rank + i] %= d
        return tuple(out)

    def relation_rows(self) -> list[list[int]]:
        rows = []
        for i, d in enumerate(self.torsion):
            row = [0] * self.dim
            row[self.free_rank + i] = d
            rows.append(row)
        return rows

    @property
    def is_trivial(self) -> bool:
        return self.dim == 0

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        """The number of elements, or None if the group is infinite."""
        return prod(self.torsion) if self.is_finite else None

    def elements(self) -> Iterable[Vec]:
        if not self.is_finite:
            raise ValueError(f"{self} is infinite")
        return itertools.product(*(range(d) for d in self.torsion))

    def group_str(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.label or self.group_str()


def hnf(rows: Iterable[Sequence[int]], dim: int) -> list[list[int]]:
    """Row-style Hermite normal form; returns the canonical basis rows."""
    mat = [list(r) for r in rows if any(r)]
    basis: list[list[int]] = []
    col = 0
    while col < dim and mat:
        pivots = [r for r in mat if r[col] != 0]
        if not pivots:
            col += 1
            continue
        # euclidean elimination in this column
        while len([r for r in mat if r[col] != 0]) > 1:
            live = sorted((r for r in mat if r[col] != 0), key=lambda r: abs(r[col]))
            a, b = live[0], live[1]
            f = b[col] // a[col]
            for i in range(dim):
                b[i] -= f * a[i]
            mat = [r for r in mat if any(r)]
        pivot = next(r for r in mat if r[col] != 0)
        mat.remove(pivot)
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        basis.append(pivot)
        col += 1
    # reduce the entries above each pivot into [0, pivot); top-down, since
    # reducing by a row changes only the columns from its pivot on
    for i, row in enumerate(basis):
        pcol = next(j for j in range(dim) if row[j] != 0)
        for above in basis[:i]:
            f = above[pcol] // row[pcol]
            if f:
                for j in range(dim):
                    above[j] -= f * row[j]
    return basis


def solve_in_basis(basis: Sequence[Sequence[int]], v: Sequence[int]) -> list[int] | None:
    """Integer coordinates of v in the (HNF) basis, or None."""
    rem = list(v)
    coords = []
    for row in basis:
        pcol = next(j for j, x in enumerate(row) if x != 0)
        if rem[pcol] % row[pcol] != 0:
            return None
        f = rem[pcol] // row[pcol]
        coords.append(f)
        for j in range(len(rem)):
            rem[j] -= f * row[j]
    return coords if not any(rem) else None


def smith_normal_form(rows: Sequence[Sequence[int]], cols: int) -> list[int]:
    """Elementary divisors of an integer matrix (nonzero ones, in order).

    The Smith form is the fixpoint of Hermite forms taken alternately of the
    matrix and of its transpose (Kannan & Bachem, SIAM J. Comput. 8, 1979).
    The loop ends: the top-left pivot is a positive integer that never grows,
    since each pass makes it the gcd of a column holding it; once it stops
    shrinking it divides its row and column, which the next pass clears, and
    the same holds for the block below it.  A diagonal is then made a
    divisibility chain by one gcd/lcm pass.
    """
    mat = hnf(rows, cols)
    while any(x for i, row in enumerate(mat) for j, x in enumerate(row) if j != i):
        mat = hnf(list(zip(*mat)), len(mat))
    divisors = [row[i] for i, row in enumerate(mat)]
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            a, b = divisors[i], divisors[j]
            divisors[i], divisors[j] = gcd(a, b), lcm(a, b)
    return divisors


class SubgroupDescription(Record):
    """A subgroup of an ambient coordinate group, held as its HNF basis.

    It is built from any generators; equality and hash compare the ambient
    and the canonical basis, so equal subgroups are equal objects.
    """

    __slots__ = _fields = ("ambient", "basis")

    def __init__(self, ambient: Ambient, generators: tuple[Vec, ...]) -> None:
        _set(self, "ambient", ambient)
        self.__post_init__(generators)

    def __post_init__(self, generators: tuple[Vec, ...]) -> None:
        """Reduce the generators and take the HNF basis (a separately traced step)."""
        rows = [self.ambient.reduce(g) for g in generators] + self.ambient.relation_rows()
        _set(self, "basis", tuple(tuple(r) for r in hnf(rows, self.ambient.dim)))

    # -- structure ------------------------------------------------------------

    def contains(self, v: Sequence[int]) -> bool:
        return solve_in_basis(self.basis, self.ambient.reduce(v)) is not None

    def __le__(self, other: "SubgroupDescription") -> bool:
        if self.ambient != other.ambient:
            raise ValueError("subgroups live in different ambients")
        return all(other.contains(row) for row in self.basis)

    @property
    def is_full(self) -> bool:
        return self == full_subgroup(self.ambient)

    @property
    def is_zero(self) -> bool:
        return self.order() == 1

    def order(self) -> int | None:
        """Order of the subgroup, or None if infinite.

        Every torsion column has a pivot (the lattice contains the relation
        vectors), so a further basis row has its pivot in a free column.  The
        order of a finite subgroup is the index of the relation lattice in its
        own, prod(torsion moduli) / prod(HNF pivots).
        """
        torsion, f = self.ambient.torsion, self.ambient.free_rank
        if len(self.basis) > len(torsion):
            return None
        return prod(torsion) // prod(row[f + i] for i, row in enumerate(self.basis))

    def elements(self) -> list[Vec]:
        """All elements of a finite subgroup, sorted.

        They are the sums of a_i * row_i with 0 <= a_i < d_i / pivot_i, where
        row_i is the basis row with its pivot in the column of modulus d_i.
        """
        if self.order() is None:
            raise ValueError("cannot enumerate a subgroup with free directions")
        amb, rows, f = self.ambient, self.basis, self.ambient.free_rank
        ranges = [range(d // row[f + i]) for i, (d, row) in enumerate(zip(amb.torsion, rows))]
        return sorted(
            amb.reduce([sum(a * row[j] for a, row in zip(coeffs, rows)) for j in range(amb.dim)])
            for coeffs in itertools.product(*ranges)
        )

    def index_in_saturation(self) -> int:
        """Product of the elementary divisors of the basis.

        That is the index of the lattice in its saturation.  For a rank-one
        sublattice k*Z of a coordinate line of a free ambient it is |k|, the
        ideal generator (e.g. 2^(n-1) for the n-th fundamental power over the
        reals in the index coordinate).
        """
        return prod(smith_normal_form(self.basis, self.ambient.dim))

    def order_or_index(self) -> str | tuple[str, int]:
        if self.is_zero:
            return "zero"
        if self.is_full:
            return "full"
        n = self.order()
        if n is not None:
            return ("order", n)
        return ("index", self.index_in_saturation())

    def quotient_shape(self, other: "SubgroupDescription") -> Ambient:
        """The group self/other for other <= self, its torsion in ascending order."""
        if self.ambient != other.ambient:
            raise ValueError("subgroups live in different ambients")
        coords = [solve_in_basis(self.basis, row) for row in other.basis]
        if None in coords:
            raise ValueError("quotient requires a contained subgroup")
        divisors = smith_normal_form(coords, len(self.basis))
        torsion = tuple(d for d in divisors if d > 1)
        return Ambient(len(self.basis) - len(divisors), torsion)

    def canonical_generators(self) -> tuple[Vec, ...]:
        """HNF basis rows reduced into the ambient, zero rows dropped."""
        out = []
        for row in self.basis:
            v = self.ambient.reduce(row)
            if any(v) and v not in out:
                out.append(v)
        return tuple(out)

    def describe(self) -> dict:
        out: dict = {
            "ambient": str(self.ambient),
            "ambient_group": self.ambient.group_str(),
            "coords": list(self.ambient.coord_names),
            "generators": [list(g) for g in self.canonical_generators()],
        }
        tag = self.order_or_index()
        if isinstance(tag, str):
            out["size"] = tag
        else:
            out["size"] = {tag[0]: tag[1]}
        return out

    def __str__(self) -> str:
        tag = self.order_or_index()
        if tag == "zero":
            return f"0 < {self.ambient}"
        if tag == "full":
            return f"{self.ambient} (full)"
        kind, n = tag
        gens = ", ".join(str(tuple(g)) for g in self.canonical_generators())
        return f"<{gens}> < {self.ambient} ({kind} {n})"


@lru_cache(maxsize=None)
def full_subgroup(ambient: Ambient) -> SubgroupDescription:
    """The whole ambient, built (one HNF) once per ambient; both types are frozen."""
    gens = []
    for i in range(ambient.dim):
        v = [0] * ambient.dim
        v[i] = 1
        gens.append(tuple(v))
    return SubgroupDescription(ambient, tuple(gens))
