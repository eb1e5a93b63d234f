"""Finitely generated abelian coordinate groups and their subgroups.

An :class:`Ambient` is Z^f + Z/d_1 + ... + Z/d_t with named coordinates.
Subgroups are handled as integer lattices in Z^(f+t) containing the torsion
relation vectors d_i * e_{f+i}; Hermite normal form gives a canonical basis,
so equality, membership, order and quotient shapes are all exact integer
computations.  Every group appearing in the library fits in f <= 2, t <= 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

Vec = tuple[int, ...]


@dataclass(frozen=True)
class Ambient:
    free_rank: int
    torsion: tuple[int, ...] = ()
    coord_names: tuple[str, ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion moduli must be >= 2")
        names = self.coord_names or tuple(
            f"c{i}" for i in range(self.free_rank + len(self.torsion))
        )
        object.__setattr__(self, "coord_names", names)
        if len(self.coord_names) != self.dim:
            raise ValueError("coordinate names do not match dimension")

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
    # reduce entries above each pivot
    for i in range(len(basis) - 1, -1, -1):
        pcol = next(j for j in range(dim) if basis[i][j] != 0)
        for k in range(i):
            f = basis[k][pcol] // basis[i][pcol]
            if f:
                for j in range(dim):
                    basis[k][j] -= f * basis[i][j]
    return basis


def lattice_contains(basis: list[list[int]], v: Sequence[int]) -> bool:
    """Membership of v in the lattice spanned by HNF basis rows."""
    rem = list(v)
    for row in basis:
        pcol = next(j for j, x in enumerate(row) if x != 0)
        if rem[pcol] % row[pcol] == 0:
            f = rem[pcol] // row[pcol]
            for j in range(len(rem)):
                rem[j] -= f * row[j]
    return not any(rem)


def solve_in_basis(basis: list[list[int]], v: Sequence[int]) -> list[int] | None:
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
    """Elementary divisors of an integer matrix (nonzero ones, in order)."""
    mat = [list(r) for r in rows]
    divisors: list[int] = []
    top = 0
    while top < len(mat) and top < cols:
        if all(all(mat[i][j] == 0 for j in range(top, cols)) for i in range(top, len(mat))):
            break
        # move the nonzero entry of least absolute value to (top, top)
        while True:
            best = None
            for i in range(top, len(mat)):
                for j in range(top, cols):
                    if mat[i][j] != 0 and (best is None or abs(mat[i][j]) < abs(mat[best[0]][best[1]])):
                        best = (i, j)
            bi, bj = best
            mat[top], mat[bi] = mat[bi], mat[top]
            for row in mat:
                row[top], row[bj] = row[bj], row[top]
            p = mat[top][top]
            done = True
            for i in range(top + 1, len(mat)):
                f = mat[i][top] // p
                if f:
                    for j in range(cols):
                        mat[i][j] -= f * mat[top][j]
                if mat[i][top] != 0:
                    done = False
            for j in range(top + 1, cols):
                f = mat[top][j] // p
                if f:
                    for i in range(len(mat)):
                        mat[i][j] -= f * mat[i][top]
                if mat[top][j] != 0:
                    done = False
            if done:
                break
        d = abs(mat[top][top])
        divisors.append(d)
        top += 1
    # enforce divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(len(divisors) - 1):
            a, b = divisors[i], divisors[i + 1]
            if b % a != 0:
                g = gcd(a, b)
                divisors[i], divisors[i + 1] = g, a * b // g
                changed = True
    return divisors


@dataclass(frozen=True)
class SubgroupDescription:
    """A subgroup of an ambient coordinate group, canonicalized by HNF."""

    ambient: Ambient
    generators: tuple[Vec, ...]
    _basis: tuple[Vec, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        gens = [self.ambient.reduce(g) for g in self.generators]
        rows = [list(g) for g in gens] + self.ambient.relation_rows()
        basis = hnf(rows, self.ambient.dim)
        object.__setattr__(self, "_basis", tuple(tuple(r) for r in basis))
        object.__setattr__(self, "generators", tuple(gens))

    # -- structure ------------------------------------------------------------

    @property
    def basis(self) -> tuple[Vec, ...]:
        return self._basis

    def contains(self, v: Sequence[int]) -> bool:
        return lattice_contains([list(r) for r in self._basis], self.ambient.reduce(v))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubgroupDescription):
            return NotImplemented
        return self.ambient == other.ambient and self._basis == other._basis

    def __hash__(self) -> int:
        return hash((self.ambient, self._basis))

    def __le__(self, other: "SubgroupDescription") -> bool:
        if self.ambient != other.ambient:
            raise ValueError("subgroups live in different ambients")
        return all(other.contains(row) for row in self._basis)

    @property
    def is_full(self) -> bool:
        return self == full_subgroup(self.ambient)

    @property
    def is_zero(self) -> bool:
        return self == zero_subgroup(self.ambient)

    def order(self) -> int | None:
        """Order of the subgroup, or None if infinite.

        A finite subgroup lies in the torsion part, where its lattice contains
        the relation lattice; the order is the index of the one in the other,
        prod(torsion moduli) / prod(HNF pivots).
        """
        f = self.ambient.free_rank
        if any(any(g[:f]) for g in self.generators):
            return None
        out = 1
        for d in self.ambient.torsion:
            out *= d
        for row in self._basis:
            out //= next(x for x in row if x)
        return out

    def elements(self) -> list[Vec]:
        """All elements of a finite subgroup, sorted, by closure under the generators."""
        f = self.ambient.free_rank
        gens = [g for g in self.generators if any(g)]
        if any(any(g[:f]) for g in gens):
            raise ValueError("cannot enumerate a subgroup with free directions")
        seen = {(0,) * self.ambient.dim}
        frontier = list(seen)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.ambient.reduce(tuple(a + b for a, b in zip(x, g)))
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return sorted(seen)

    def index_in_saturation(self) -> int:
        """Product of the elementary divisors of the generator matrix.

        For a rank-one sublattice k*Z of a coordinate line this is |k|, the
        ideal generator (e.g. 2^(n-1) for the n-th fundamental power over the
        reals in the index coordinate).
        """
        rows = [list(g) for g in self.generators if any(g)]
        if not rows:
            return 1
        divisors = smith_normal_form(rows, self.ambient.dim)
        out = 1
        for d in divisors:
            out *= d
        return out

    def order_or_index(self) -> str | tuple[str, int]:
        if self.is_zero:
            return "zero"
        if self.is_full:
            return "full"
        n = self.order()
        if n is not None:
            return ("order", n)
        return ("index", self.index_in_saturation())

    def quotient_shape(self, other: "SubgroupDescription") -> "QuotientShape":
        """Shape of self/other for other <= self."""
        if not other <= self:
            raise ValueError("quotient requires a contained subgroup")
        big = [list(r) for r in self._basis]
        small = self.ambient.relation_rows() + [list(g) for g in other.generators]
        coords = []
        for row in small:
            c = solve_in_basis(big, row)
            assert c is not None
            coords.append(c + [0] * (len(big) - len(c)))
        divisors = smith_normal_form(coords, len(big)) if big else []
        free = len(big) - len(divisors)
        torsion = tuple(d for d in divisors if d > 1)
        return QuotientShape(free, torsion)

    def canonical_generators(self) -> tuple[Vec, ...]:
        """HNF basis rows reduced into the ambient, zero rows dropped."""
        out = []
        for row in self._basis:
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


@dataclass(frozen=True)
class QuotientShape:
    free_rank: int
    torsion: tuple[int, ...]

    def order(self) -> int | None:
        if self.free_rank:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in sorted(self.torsion)]
        return " + ".join(parts) if parts else "0"


def zero_subgroup(ambient: Ambient) -> SubgroupDescription:
    return SubgroupDescription(ambient, ())


@lru_cache(maxsize=None)
def full_subgroup(ambient: Ambient) -> SubgroupDescription:
    """The whole ambient, built (one HNF) once per ambient; both types are frozen."""
    gens = []
    for i in range(ambient.dim):
        v = [0] * ambient.dim
        v[i] = 1
        gens.append(tuple(v))
    return SubgroupDescription(ambient, tuple(gens))
