"""Exact arithmetic and the per-family facts of the three supported field families.

Three kinds of field are modelled, all of characteristic != 2:

* ``finite``  -- F_q with q an odd prime power.  Elements are polynomials over
  the prime field modulo a monic irreducible, stored as coefficient tuples.
* ``real``    -- a real closed field.  Unit carriers are nonzero rationals;
  only the sign of a unit is ever invariant-relevant.
* ``complex`` -- a quadratically closed field.  Unit carriers are nonzero
  rationals standing in for arbitrary units; all square classes are trivial.

Every :class:`FieldDescriptor` carries one frozen model object for its family
(:class:`FiniteModel`, :class:`RealModel`, :class:`ClosedModel`), built with
the descriptor.  The model is the one place where per-family facts live: unit
arithmetic and square classes, the GW and W coordinates from the
classification of forms (Lam, *Introduction to Quadratic Forms over Fields*,
ch. II-III), the generators of I^n, the K^MW and K^M coordinates in positive
degree with the eta action, and the convergence certificate.  Model methods
speak in units, integers, coordinate tuples and :class:`Ambient` groups; the
forms, milnor_witt and filtration modules wrap them in their own classes.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import ClassVar, Iterator, Sequence

from mwslice.abelian import Ambient

FINITE = "finite"
REAL = "real"
COMPLEX = "complex"

# Largest supported order q of a finite field.  Factoring q and searching for
# a generator are trial divisions up to sqrt(q), and the discrete-log table
# has q - 1 entries, so larger orders would run without useful bound.
MAX_FIELD_ORDER = 10**6


class FieldMismatchError(ValueError):
    """Operands belong to different fields."""


class UnsupportedEnumerationError(ValueError):
    """Exhaustive enumeration requested over an infinite field."""


def _prime_factors(n: int) -> Iterator[int]:
    """The distinct prime factors of n >= 2 in ascending order, by trial division."""
    r = 2
    while r * r <= n:
        if n % r == 0:
            yield r
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        yield n


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 3:
        raise ValueError(f"field order must be >= 3, got {q}")
    p = next(_prime_factors(q))
    d, m = 0, q
    while m % p == 0:
        m //= p
        d += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, d


# -- polynomial helpers over Z/p (coefficient tuples, low degree first) -------

def _ptrim(c: Sequence[int]) -> tuple[int, ...]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pmulmod(a: Sequence[int], b: Sequence[int], modulus: Sequence[int], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _prem(out, modulus, p)


def _prem(a: Sequence[int], modulus: Sequence[int], p: int) -> tuple[int, ...]:
    a = list(a)
    d = len(modulus) - 1
    while len(a) > d:
        lead = a[-1] % p
        if lead:
            shift = len(a) - 1 - d
            for i in range(d + 1):
                a[shift + i] = (a[shift + i] - lead * modulus[i]) % p
        a.pop()
    return _ptrim(a)


def _is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    d = len(modulus) - 1
    if d == 1:
        return True
    for e in range(1, d // 2 + 1):
        for coeffs in itertools.product(range(p), repeat=e):
            if _pdivides(list(coeffs) + [1], modulus, p):
                return False
    return True


def _pdivides(divisor: Sequence[int], poly: Sequence[int], p: int) -> bool:
    rem = list(_ptrim(poly))
    dd = len(divisor) - 1
    while len(rem) - 1 >= dd and rem:
        lead = rem[-1] % p
        shift = len(rem) - 1 - dd
        for i in range(dd + 1):
            rem[shift + i] = (rem[shift + i] - lead * divisor[i]) % p
        rem = list(_ptrim(rem))
    return not rem


@lru_cache(maxsize=None)
def default_modulus(p: int, d: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree d over Z/p.

    Candidates are ordered by the coefficient tuple (c_{d-1}, ..., c_1, c_0)
    of the non-leading terms.
    """
    if d == 1:
        return (0, 1)
    for high in itertools.product(range(p), repeat=d):
        coeffs = list(reversed(high)) + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError(f"no irreducible polynomial of degree {d} over F_{p}")


@dataclass(frozen=True)
class FieldDescriptor:
    """A concrete field of characteristic != 2, with its family model."""

    kind: str
    p: int = 0
    degree: int = 1
    modulus: tuple[int, ...] = ()
    model: FieldModel = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        family = _FAMILIES.get(self.kind)
        if family is None:
            raise ValueError(f"unknown field kind {self.kind!r}")
        object.__setattr__(self, "model", family(self))

    @property
    def order(self) -> int:
        return self.model.order

    @property
    def is_finite(self) -> bool:
        return self.kind == FINITE

    def __str__(self) -> str:
        return self.model.name


def finite_field(q: int, modulus: Sequence[int] | None = None) -> FieldDescriptor:
    if q > MAX_FIELD_ORDER:
        raise ValueError(f"field order {q} exceeds the supported bound {MAX_FIELD_ORDER}")
    p, d = _factor_prime_power(q)
    if p == 2:
        raise ValueError("characteristic 2 is out of scope")
    mod = tuple(m % p for m in modulus) if modulus is not None else default_modulus(p, d)
    return FieldDescriptor(FINITE, p, d, mod)


@dataclass(frozen=True)
class Unit:
    """A nonzero field element in canonical form."""

    field: FieldDescriptor
    value: tuple[int, ...] | Fraction

    def __post_init__(self) -> None:
        self.field.model.check_carrier(self.value)

    def __str__(self) -> str:
        return self.field.model.carrier_str(self.value)

    @property
    def encoding(self) -> int:
        """Integer encoding sum(c_i p^i); fixes the canonical residue order."""
        assert self.field.is_finite
        return sum(c * self.field.p**i for i, c in enumerate(self.value))


@dataclass(frozen=True)
class SquareClass:
    field: FieldDescriptor
    label: str  # square/nonsquare, positive/negative, trivial

    @property
    def bit(self) -> int:
        return 1 if self.label in ("nonsquare", "negative") else 0


def _check_same_field(a: Unit, b: Unit) -> None:
    if a.field is not b.field and a.field != b.field:
        raise FieldMismatchError(f"operands over {a.field} and {b.field}")


def unit(field: FieldDescriptor, value: int | Fraction | Sequence[int] | str) -> Unit:
    """Coerce an integer, rational, coefficient sequence or literal to a Unit."""
    if isinstance(value, str):
        return parse_unit(field, value)
    return field.model.coerce(value)


def one(field: FieldDescriptor) -> Unit:
    return field.model.one()


def unit_mul(a: Unit, b: Unit) -> Unit:
    _check_same_field(a, b)
    return a.field.model.mul(a, b)


def unit_inv(a: Unit) -> Unit:
    return a.field.model.inv(a)


def unit_pow(a: Unit, n: int) -> Unit:
    return a.field.model.pow(a, n)


def unit_neg(a: Unit) -> Unit:
    return a.field.model.neg(a)


def unit_add(a: Unit, b: Unit) -> Unit | None:
    """Exact sum; returns None when a + b = 0."""
    _check_same_field(a, b)
    return a.field.model.add(a, b)


def unit_sub(a: Unit, b: Unit) -> Unit | None:
    return unit_add(a, unit_neg(b))


def unit_div(a: Unit, b: Unit) -> Unit:
    return unit_mul(a, unit_inv(b))


def square_class(a: Unit) -> SquareClass:
    return SquareClass(a.field, a.field.model.square_class_label(a))


def square_class_bit(a: Unit) -> int:
    return square_class(a).bit


# -- per-family models ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FieldModel:
    """The facts of one field family; this base holds what the families share.

    GW classes are read through (rank, disc_dev, signature): the rank plus
    the family's extra invariant, disc_dev over F_q and the signature over R.
    Positive-degree K^MW normal forms are read through milnor_unit, ideal_bit
    and real_coord; models return keyword arguments for new normal forms.
    """

    field: FieldDescriptor

    extra_invariant: ClassVar[str | None] = None

    def check_kmw(self, nf) -> None:
        """Validate a positive-degree normal form (only F_q has a constraint)."""

    def ladder_row(self, n: int, level) -> str | None:
        """Extra CLI line for I^n = F^n pi_(0,0); only R has an infinite ladder."""
        return None

    def gw_display(self, x) -> dict:
        name = self.extra_invariant
        return {name: getattr(x, name)} if name else {}

    @cached_property
    def gw_ambient(self) -> Ambient:
        return Ambient(*self.gw_shape, f"GW({self.field})")

    @cached_property
    def witt_ambient(self) -> Ambient:
        return Ambient(*self.witt_shape, f"W({self.field})")


@dataclass(frozen=True, eq=False)
class FiniteModel(FieldModel):
    """F_q, q odd: GW = Z x Z/2 by (rank, disc_dev), W = Z/4 or Z/2 x Z/2."""

    order: int = dc_field(init=False)
    name: str = dc_field(init=False)

    extra_invariant = "disc_dev"
    one_invariants = (0, 0)
    gw_shape = (1, (2,), ("rank", "disc_dev"))
    certificate = "I^2 = 0"
    vanishing_power = 2

    def __post_init__(self) -> None:
        f = self.field
        if f.p < 3 or f.p % 2 == 0:
            raise ValueError("finite fields must have odd characteristic")
        if len(f.modulus) != f.degree + 1 or f.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree matching the field")
        if not _is_irreducible(f.modulus, f.p):
            raise ValueError(f"modulus {f.modulus} is reducible over F_{f.p}")
        q = f.p ** f.degree
        object.__setattr__(self, "order", q)
        name = f"Fq({q})" if f.degree == 1 else f"Fq({q};poly={poly_str(f.modulus)})"
        object.__setattr__(self, "name", name)

    # -- units: coefficient tuples modulo the field's modulus ------------------

    def check_carrier(self, value) -> None:
        f = self.field
        if not isinstance(value, tuple) or not value:
            raise ValueError("finite-field units are nonempty coefficient tuples")
        if len(value) != f.degree or any(not (0 <= c < f.p) for c in value):
            raise ValueError(f"unreduced residue {value}")
        if not any(value):
            raise ValueError("zero is not a unit")

    def carrier_str(self, value) -> str:
        return poly_str(value)

    def coerce(self, value) -> Unit:
        f = self.field
        if isinstance(value, Fraction):
            num = self._from_int(value.numerator)
            return unit_mul(num, unit_inv(self._from_int(value.denominator)))
        if isinstance(value, int):
            return self._from_int(value)
        coeffs = _prem([c % f.p for c in value], f.modulus, f.p)
        return Unit(f, coeffs + (0,) * (f.degree - len(coeffs)))

    def _from_int(self, n: int) -> Unit:
        return Unit(self.field, (n % self.field.p,) + (0,) * (self.field.degree - 1))

    def one(self) -> Unit:
        return self._from_int(1)

    def mul(self, a: Unit, b: Unit) -> Unit:
        f = self.field
        prod = _pmulmod(a.value, b.value, f.modulus, f.p)
        return Unit(f, prod + (0,) * (f.degree - len(prod)))

    def pow(self, a: Unit, n: int) -> Unit:
        """a^n for any integer n, reduced mod q - 1 (so n < 0 needs no inverse)."""
        return Unit(self.field, self.carrier_pow(a.value, n % (self.order - 1)))

    def carrier_pow(self, c: tuple[int, ...], n: int) -> tuple[int, ...]:
        """c^n on raw coefficient tuples for n >= 0, by square-and-multiply."""
        f = self.field
        if f.degree == 1:
            return (pow(c[0], n, f.p),)
        result: tuple[int, ...] = (1,)
        while n:
            if n & 1:
                result = _pmulmod(result, c, f.modulus, f.p)
            n >>= 1
            if n:
                c = _pmulmod(c, c, f.modulus, f.p)
        return result + (0,) * (f.degree - len(result))

    def inv(self, a: Unit) -> Unit:
        return self.pow(a, self.order - 2)

    def neg(self, a: Unit) -> Unit:
        return Unit(self.field, tuple((-c) % self.field.p for c in a.value))

    def add(self, a: Unit, b: Unit) -> Unit | None:
        coeffs = tuple((x + y) % self.field.p for x, y in zip(a.value, b.value))
        return Unit(self.field, coeffs) if any(coeffs) else None

    def square_class_label(self, a: Unit) -> str:
        """Euler's criterion: a is a square iff a^((q-1)/2) = 1."""
        is_one = self.carrier_pow(a.value, (self.order - 1) // 2) == self.one().value
        return "square" if is_one else "nonsquare"

    def literal(self, u: Unit) -> str:
        return f"g^{discrete_log_table(self.field)[u]}"

    # -- GW and W ----------------------------------------------------------------

    def unit_invariants(self, u: Unit) -> tuple[int, int]:
        return (square_class_bit(u), 0)

    def is_gw(self, rank: int, disc_dev: int, signature: int) -> bool:
        return disc_dev in (0, 1) and not signature

    def gw_coords(self, x) -> tuple[int, ...]:
        return (x.rank, x.disc_dev)

    def gw_from_coords(self, coords) -> tuple[int, int, int]:
        return (coords[0], coords[1] % 2, 0)

    def gw_generator_units(self) -> tuple[Unit, ...]:
        """Units u such that <1> and the <u> generate GW; g is a nonsquare."""
        return (multiplicative_generator(self.field),)

    def ideal_generators(self, n: int) -> tuple[tuple[int, ...], ...]:
        """I^n for n >= 1: I is the rank-zero line, I^2 = 0."""
        return ((0, 1),) if n == 1 else ()

    @property
    def _z4(self) -> bool:
        return self.order % 4 == 3

    @property
    def witt_shape(self) -> tuple:
        return (0, (4,), ("w",)) if self._z4 else (0, (2, 2), ("rank2", "disc_dev"))

    def witt_coords(self, x) -> tuple[int, ...]:
        return (x.rank + 2 * x.disc_dev,) if self._z4 else (x.rank, x.disc_dev)

    def witt_lift(self, coords) -> tuple[int, int, int]:
        if self._z4:
            v = coords[0]
            return (v % 2, (v - v % 2) // 2 % 2, 0)
        return (coords[0], coords[1], 0)

    def witt_str(self, coords) -> str:
        return f"{coords[0]} in Z/4" if self._z4 else f"{coords} in Z/2+Z/2"

    # -- K^MW_m and K^M_m, m >= 1: K^MW_1 = F_q^x by log_g, zero from m = 2 --------

    def kmw_ambient(self, m: int) -> Ambient:
        if m >= 2:
            return Ambient(0, (), (), f"K^MW_{m}({self.field}) = 0")
        return Ambient(0, (self.order - 1,), ("log_g",), f"K^MW_1({self.field})")

    def milnor_ambient(self, m: int) -> Ambient:
        if m == 1:
            return Ambient(0, (self.order - 1,), ("log_g",), f"K^M_1({self.field})")
        return Ambient(0, (), (), f"K^M_{m}({self.field}) = 0")

    def check_kmw(self, nf) -> None:
        if nf.degree != 1:
            return
        if nf.milnor_unit is None:
            raise ValueError("degree-1 normal forms carry a unit class")
        if square_class_bit(nf.milnor_unit) != nf.ideal_bit:
            raise ValueError(
                "cartesian-square compatibility violated: "
                f"unit {nf.milnor_unit} vs ideal bit {nf.ideal_bit}"
            )

    def kmw_is_zero(self, nf) -> bool:
        return nf.degree >= 2 or (nf.milnor_unit == self.one() and nf.ideal_bit == 0)

    def kmw_coords(self, nf) -> tuple[int, ...]:
        if nf.degree >= 2:
            return ()
        return (discrete_log_table(self.field)[nf.milnor_unit],)

    def kmw_str(self, nf) -> str:
        return f"(unit class {nf.milnor_unit}, ideal bit {nf.ideal_bit})"

    def kmw_json(self, nf) -> dict:
        if nf.degree >= 2:
            return {}
        return {"unit_class": str(nf.milnor_unit), "ideal_bit": nf.ideal_bit}

    def kmw_from_coords(self, m: int, coords) -> dict:
        if m >= 2:
            return {}
        u = enumerate_units(self.field)[coords[0] % (self.order - 1)]
        return {"milnor_unit": u, "ideal_bit": square_class_bit(u)}

    def kmw_normalize(self, d: int, terms, gw_part) -> dict:
        """Degree-d coordinates: the Milnor unit class and the ideal bit."""
        if d >= 2:
            return {}
        u_acc = self.one()
        bit = 0
        for t in terms:
            if t.eta_power == 0:
                u_acc = unit_mul(u_acc, unit_pow(t.symbol[0], t.coeff))
            bit = (bit + gw_part(t).disc_dev) % 2
        return {"milnor_unit": u_acc, "ideal_bit": bit}

    def eta_kmw(self, nf, m: int) -> dict:
        """eta from degree m >= 2 lands in degree m - 1 >= 1: the zero class."""
        return {} if m > 2 else {"milnor_unit": self.one(), "ideal_bit": 0}

    def eta_to_gw(self, nf) -> tuple[int, int]:
        return (nf.ideal_bit, 0)

    def level_generators(self, N: int) -> tuple[tuple[int, ...], ...]:
        """K^MW_m I^N for m, N >= 1 in degree-m coordinates: I^(N+m) = 0."""
        return ()


@dataclass(frozen=True, eq=False)
class _RationalModel(FieldModel):
    """Infinite fields whose unit carriers are nonzero rationals.

    Positive-degree normal forms keep one integer, ``real_coord``.
    """

    @property
    def order(self) -> int:
        raise UnsupportedEnumerationError(f"{self.field} is infinite")

    def check_carrier(self, value) -> None:
        if not isinstance(value, Fraction) or value == 0:
            raise ValueError("unit carriers over R and C are nonzero rationals")

    def carrier_str(self, value) -> str:
        return str(value)

    def coerce(self, value) -> Unit:
        return Unit(self.field, Fraction(value))

    def one(self) -> Unit:
        return Unit(self.field, Fraction(1))

    def mul(self, a: Unit, b: Unit) -> Unit:
        return Unit(self.field, a.value * b.value)

    def inv(self, a: Unit) -> Unit:
        return Unit(self.field, 1 / a.value)

    def pow(self, a: Unit, n: int) -> Unit:
        return Unit(self.field, a.value**n)

    def neg(self, a: Unit) -> Unit:
        return Unit(self.field, -a.value)

    def add(self, a: Unit, b: Unit) -> Unit | None:
        s = a.value + b.value
        return None if s == 0 else Unit(self.field, s)

    def literal(self, u: Unit) -> str:
        return str(u.value)

    def kmw_is_zero(self, nf) -> bool:
        return nf.real_coord == 0

    def kmw_str(self, nf) -> str:
        return f"{nf.real_coord} * [-1]^{nf.degree}"

    def kmw_json(self, nf) -> dict:
        return {"coord": nf.real_coord}


@dataclass(frozen=True, eq=False)
class RealModel(_RationalModel):
    """A real closed field: GW = (rank, signature), W = Z by the signature.

    The free basis used for lattice work is (rank, index) with
    index = (rank - signature)/2.  I^n is detected by the signature, and
    K^MW_m, m >= 1, is kept modulo its uniquely divisible part: c * [-1]^m.
    """

    name = "R"
    extra_invariant = "signature"
    one_invariants = (0, 1)
    gw_shape = (2, (), ("rank", "index"))
    witt_shape = (1, (), ("signature",))
    certificate = "nonzero signatures have bounded dyadic valuation"
    vanishing_power = None

    def square_class_label(self, a: Unit) -> str:
        return "positive" if a.value > 0 else "negative"

    def unit_invariants(self, u: Unit) -> tuple[int, int]:
        return (0, 1 if u.value > 0 else -1)

    def is_gw(self, rank: int, disc_dev: int, signature: int) -> bool:
        return not disc_dev and (rank - signature) % 2 == 0

    def gw_coords(self, x) -> tuple[int, ...]:
        return (x.rank, (x.rank - x.signature) // 2)

    def gw_from_coords(self, coords) -> tuple[int, int, int]:
        rank, idx = coords
        return (rank, 0, rank - 2 * idx)

    def gw_generator_units(self) -> tuple[Unit, ...]:
        return (self.coerce(-1),)

    def ideal_generators(self, n: int) -> tuple[tuple[int, ...], ...]:
        # generator <<-1,...,-1>> has signature (-2)^n, i.e. index 2^(n-1)
        return ((0, 1 << (n - 1)),)

    def witt_coords(self, x) -> tuple[int, ...]:
        return (x.signature,)

    def witt_lift(self, coords) -> tuple[int, int, int]:
        s = coords[0]
        return (abs(s), 0, s)

    def witt_str(self, coords) -> str:
        return f"signature {coords[0]}"

    def kmw_ambient(self, m: int) -> Ambient:
        return Ambient(1, (), ("c",), f"K^MW_{m}(R) mod divisible")

    def milnor_ambient(self, m: int) -> Ambient:
        return Ambient(0, (2,), ("sign",), f"K^M_{m}(R) mod divisible")

    def kmw_coords(self, nf) -> tuple[int, ...]:
        return (nf.real_coord,)

    def kmw_from_coords(self, m: int, coords) -> dict:
        return {"real_coord": coords[0]}

    def kmw_normalize(self, d: int, terms, gw_part) -> dict:
        """c normalized so that [-1]^d has c = 1: signature / (-2)^d."""
        c = 0
        for t in terms:
            q, r = divmod(gw_part(t).signature, (-2) ** d)
            assert r == 0, "ideal part of a degree-d monomial must lie in I^d"
            c += q
        return {"real_coord": c}

    def eta_kmw(self, nf, m: int) -> dict:
        return {"real_coord": -2 * nf.real_coord}

    def eta_to_gw(self, nf) -> tuple[int, int]:
        return (0, -2 * nf.real_coord)

    def level_generators(self, N: int) -> tuple[tuple[int, ...], ...]:
        return ((1 << N,),)

    def ladder_row(self, n: int, level) -> str | None:
        k = level.index_in_saturation()
        return f"  ladder row: I(R)^{n} = ({k}) in the index coordinate  (signature in {2 * k}Z)"


@dataclass(frozen=True, eq=False)
class ClosedModel(_RationalModel):
    """A quadratically closed field: GW = Z by the rank, W = Z/2, I = 0.

    In degree m >= 1 only the (always zero) ideal coordinate of K^MW is kept.
    """

    name = "C"
    one_invariants = (0, 0)
    gw_shape = (1, (), ("rank",))
    witt_shape = (0, (2,), ("rank2",))
    certificate = "I = 0"
    vanishing_power = 1

    def square_class_label(self, a: Unit) -> str:
        return "trivial"

    def unit_invariants(self, u: Unit) -> tuple[int, int]:
        return (0, 0)

    def is_gw(self, rank: int, disc_dev: int, signature: int) -> bool:
        return not (disc_dev or signature)

    def gw_coords(self, x) -> tuple[int, ...]:
        return (x.rank,)

    def gw_from_coords(self, coords) -> tuple[int, int, int]:
        return (coords[0], 0, 0)

    def gw_generator_units(self) -> tuple[Unit, ...]:
        return ()

    def ideal_generators(self, n: int) -> tuple[tuple[int, ...], ...]:
        return ()

    def witt_coords(self, x) -> tuple[int, ...]:
        return (x.rank,)

    def witt_lift(self, coords) -> tuple[int, int, int]:
        return (coords[0], 0, 0)

    def witt_str(self, coords) -> str:
        return f"{coords[0]} in Z/2"

    def kmw_ambient(self, m: int) -> Ambient:
        return Ambient(0, (), (), f"K^MW_{m}(C) ideal part = 0")

    def milnor_ambient(self, m: int) -> Ambient:
        return Ambient(0, (), (), f"K^M_{m}(C) mod divisible = 0")

    def kmw_coords(self, nf) -> tuple[int, ...]:
        return ()

    def kmw_from_coords(self, m: int, coords) -> dict:
        return {}

    def kmw_normalize(self, d: int, terms, gw_part) -> dict:
        return {}

    def eta_kmw(self, nf, m: int) -> dict:
        return {}

    def eta_to_gw(self, nf) -> tuple[int, int]:
        return (0, 0)

    def level_generators(self, N: int) -> tuple[tuple[int, ...], ...]:
        return ()


_FAMILIES = {FINITE: FiniteModel, REAL: RealModel, COMPLEX: ClosedModel}

REALS = FieldDescriptor(REAL)
COMPLEXES = FieldDescriptor(COMPLEX)


@lru_cache(maxsize=None)
def enumerate_units(field: FieldDescriptor) -> tuple[Unit, ...]:
    """All q - 1 units as powers of the canonical multiplicative generator."""
    if not field.is_finite:
        raise UnsupportedEnumerationError(f"cannot enumerate units of {field}")
    g = multiplicative_generator(field)
    units = [one(field)]
    for _ in range(field.order - 2):
        units.append(unit_mul(units[-1], g))
    return tuple(units)


@lru_cache(maxsize=None)
def multiplicative_generator(field: FieldDescriptor) -> Unit:
    """Smallest generator of F_q^x in the canonical residue order.

    Residues are tried by increasing ``Unit.encoding``, decoded from its base-p
    digits; u has order q - 1 iff u^((q-1)/r) != 1 for each prime r | q - 1.
    """
    exponents = [(field.order - 1) // r for r in _prime_factors(field.order - 1)]
    model = field.model
    e = model.one().value
    for code in range(1, field.order):
        c = tuple(code // field.p**i % field.p for i in range(field.degree))
        if all(model.carrier_pow(c, k) != e for k in exponents):
            return Unit(field, c)
    raise RuntimeError("no multiplicative generator found")


@lru_cache(maxsize=None)
def canonical_nonsquare(field: FieldDescriptor) -> Unit:
    return multiplicative_generator(field)


@lru_cache(maxsize=None)
def discrete_log_table(field: FieldDescriptor) -> dict[Unit, int]:
    return {u: k for k, u in enumerate(enumerate_units(field))}


def rational_grid(bound: int) -> tuple[Unit, ...]:
    """Deterministic family of nonzero rationals a/b, |a| <= bound, 1 <= b <= bound."""
    seen = []
    for b in range(1, bound + 1):
        for a in range(-bound, bound + 1):
            if a == 0:
                continue
            f = Fraction(a, b)
            u = Unit(REALS, f)
            if u not in seen:
                seen.append(u)
    return tuple(seen)


def sum_to_one_tuples(
    field: FieldDescriptor, n: int, bound: int = 2
) -> Iterator[tuple[Unit, ...]]:
    """Stream of n-tuples of units with sum 1.

    Over a finite field the stream is exhaustive and duplicate-free.  Over R
    (and C, with the same rational carriers) it is the deterministic family
    obtained by letting the first n - 1 entries range over the rational grid
    of ``rational_grid(bound)`` and solving for the last entry.
    """
    if n < 1:
        raise ValueError(f"tuple length must be >= 1, got {n}")
    if n == 1:
        yield (one(field),)
        return
    if field.is_finite:
        pool: Sequence[Unit] = enumerate_units(field)
    else:
        pool = [Unit(field, u.value) for u in rational_grid(bound)]
    e = one(field)
    for prefix in itertools.product(pool, repeat=n - 1):
        rest: Unit | None = e  # running value of 1 - sum(prefix); None is zero
        for u in prefix:
            rest = unit_sub(rest, u) if rest is not None else unit_neg(u)
        if rest is not None:
            yield prefix + (rest,)


# -- literal syntax ------------------------------------------------------------

_FIELD_RE = re.compile(r"^Fq\((\d+)(?:;poly=([^)]+))?\)$")


def parse_field(text: str) -> FieldDescriptor:
    """Parse field literals: ``Fq(7)``, ``Fq(9;poly=x^2+1)``, ``R``, ``C``."""
    text = text.strip()
    if text == "R":
        return REALS
    if text == "C":
        return COMPLEXES
    m = _FIELD_RE.match(text)
    if not m:
        raise ValueError(f"unrecognised field literal {text!r}")
    q = int(m.group(1))
    modulus = parse_poly(m.group(2)) if m.group(2) else None
    return finite_field(q, modulus)


def parse_poly(text: str) -> tuple[int, ...]:
    """Parse ``x^2+1`` style polynomials into low-first coefficient tuples."""
    text = text.replace(" ", "").replace("-", "+-")
    coeffs: dict[int, int] = {}
    for part in text.split("+"):
        if not part:
            continue
        m = re.match(r"^(-?\d*)\*?(x(?:\^(\d+))?)?$", part)
        if not m or (m.group(1) in ("", "-") and not m.group(2)):
            raise ValueError(f"bad polynomial term {part!r}")
        coeff = {"": 1, "-": -1}.get(m.group(1), None)
        if coeff is None:
            coeff = int(m.group(1))
        if m.group(2) is None:
            deg = 0
        elif m.group(3) is None:
            deg = 1
        else:
            deg = int(m.group(3))
        coeffs[deg] = coeffs.get(deg, 0) + coeff
    top = max(coeffs)
    return tuple(coeffs.get(i, 0) for i in range(top + 1))


def poly_str(coeffs: Sequence[int]) -> str:
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            x = "x" if i == 1 else f"x^{i}"
            parts.append(x if c == 1 else f"{c}*{x}")
    return "+".join(parts) if parts else "0"


def parse_unit(field: FieldDescriptor, text: str) -> Unit:
    """Parse unit literals: integers, rationals ``a/b``, powers ``g^k``."""
    text = text.strip()
    m = re.match(r"^g(?:\^(-?\d+))?$", text)
    if m:
        if not field.is_finite:
            raise ValueError("generator literals g^k only apply to finite fields")
        k = int(m.group(1)) if m.group(1) else 1
        return unit_pow(multiplicative_generator(field), k)
    m = re.match(r"^(-?\d+)(?:/(\d+))?$", text)
    if not m:
        raise ValueError(f"unrecognised unit literal {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    return unit(field, Fraction(num, den))
