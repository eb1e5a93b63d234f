"""Exact arithmetic and the per-family facts of the three supported field families.

Three families of field are modelled, all of characteristic != 2, each by a
subclass of :class:`FieldDescriptor`:

* :class:`FiniteField` -- F_q with q an odd prime power.  Elements are
  polynomials over the prime field modulo a monic irreducible; a unit's
  carrier is the integer sum c_i p^i of its coefficients, 0 < carrier < q.
  Its first discrete log builds exp/log arrays of the powers of its
  generator, which every later discrete log and its unit arithmetic then read.
* :class:`RealField` -- a real closed field.  Unit carriers are nonzero
  rationals; only the sign of a unit is ever invariant-relevant.
* :class:`ClosedField` -- a quadratically closed field.  Unit carriers are
  nonzero rationals standing in for arbitrary units; all square classes are
  trivial.

A field is one interned object, and its class is the one place where the
facts of its family live: unit arithmetic and square classes, the GW and W
coordinates from the classification of forms (Lam, *Introduction to
Quadratic Forms over Fields*, ch. II-III), the generators of each level
K^MW_m I^n, the K^MW coordinates in positive degree with the eta action, and
the convergence certificate.  Field methods speak in units, integers, coordinate tuples and
:class:`Ambient` groups; the forms, milnor_witt and filtration modules wrap
them in their own classes.
"""

from __future__ import annotations

import itertools
import re
from array import array
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

from mwslice.abelian import Ambient, Record

# Largest supported order q of a finite field.  Factoring q and searching for
# a generator are trial divisions up to sqrt(q), and the exp/log tables that
# the first discrete log builds have q - 1 entries, so larger orders would run
# without useful bound.
MAX_FIELD_ORDER = 10**6
# The degree d of a supported F_(p^d) is at most this: 3^d <= MAX_FIELD_ORDER.
MAX_FIELD_DEGREE = next(d for d in itertools.count() if 3 ** (d + 1) > MAX_FIELD_ORDER)


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


def _factor_order(q: int) -> tuple[int, int]:
    """(p, d) with q = p^d, for a supported field order q."""
    if q > MAX_FIELD_ORDER:
        raise ValueError(f"field order {q} exceeds the supported bound {MAX_FIELD_ORDER}")
    if q < 3:
        raise ValueError(f"field order must be >= 3, got {q}")
    p = next(_prime_factors(q))
    d, m = 0, q
    while m % p == 0:
        m //= p
        d += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    if p == 2:
        raise ValueError("characteristic 2 is out of scope")
    return p, d


# -- polynomial helpers over Z/p (coefficient tuples, low degree first) -------

def _ptrim(c: Sequence[int]) -> tuple[int, ...]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


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
            if not _prem(modulus, list(coeffs) + [1], p):
                return False
    return True


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


_set = object.__setattr__


class FieldDescriptor(Record):
    """A concrete field of characteristic != 2; this base holds what the families share.

    Each family is a subclass, and its constructor returns the one interned
    object for its field, so two fields are equal only when they are the
    same object.  The base class builds no field.

    GW classes are coordinate vectors in ``gw_ambient``: the rank, then (over
    F_q and R) the count c of e = <u> - <1> for the generator unit u, which is
    g over F_q and -1 over R; ``gw_invariants`` reads the family's named
    invariant off them.  A K^MW normal form in degree m >= 1 is (m, value).
    Where ``kmw_ambient(m)`` is trivial (over F_q from degree 2, over C from
    degree 1) the value is None and ``milnor_witt`` answers without the
    field; elsewhere it is the Milnor unit class over F_q in degree 1 and the
    integer c of c * [-1]^m over R.  The ``kmw_*`` methods take and return
    that value; ``kmw_normalize(d, terms, gw_part)`` reads it off the
    ``(word, coeff)`` pairs of a degree-d expression, where
    ``gw_part(word, coeff)`` is the GW class of one pair; ``eta_coords``
    maps the degree-m coordinates of a nontrivial ``kmw_ambient(m)`` to those
    of degree m - 1.
    """

    __eq__ = object.__eq__
    __hash__ = object.__hash__
    is_finite = False

    def __new__(cls, *args, **kwargs):
        raise TypeError("fields are built by FiniteField, RealField or ClosedField")

    @classmethod
    @lru_cache(maxsize=None)
    def _intern(cls, *key) -> FieldDescriptor:
        """The one field of this class with this key; ``_setup`` runs once per key."""
        field = object.__new__(cls)
        field._setup(*key)
        return field

    def _setup(self) -> None:
        pass

    def __str__(self) -> str:
        return self.name

    def ladder_row(self, n: int, level) -> str | None:
        """Extra CLI line for I^n = F^n pi_(0,0); only R has an infinite ladder."""
        return None

    def gw_invariants(self, coords) -> dict:
        """The invariants past the rank of the GW class with these coordinates."""
        return {}

    @cached_property
    def gw_ambient(self) -> Ambient:
        return Ambient(*self.gw_shape, f"GW({self})")

    @cached_property
    def witt_ambient(self) -> Ambient:
        return Ambient(*self.witt_shape, f"W({self})")


class Unit(Record):
    """A nonzero field element in canonical form."""

    __slots__ = ("field", "value", "_hash")
    _fields = ("field", "value")

    def __init__(self, field: FieldDescriptor, value: int | Fraction) -> None:
        field.check_carrier(value)
        _set(self, "field", field)
        _set(self, "value", value)
        _set(self, "_hash", hash((field, value)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.field.carrier_str(self.value)

    @property
    def encoding(self) -> int:
        """The integer sum(c_i p^i) that orders residues: over F_q, the carrier."""
        return self.value


def _kernel_unit(field: FieldDescriptor, value: int) -> Unit:
    """A Unit whose carrier the field's own kernel computed, so it skips ``check_carrier``."""
    u = object.__new__(Unit)
    _set(u, "field", field)
    _set(u, "value", value)
    _set(u, "_hash", hash((field, value)))
    return u


def _check_same_field(a: Unit, b: Unit) -> None:
    if a.field is not b.field:
        raise FieldMismatchError(f"operands over {a.field} and {b.field}")


def unit(field: FieldDescriptor, value: int | Fraction | Sequence[int] | str) -> Unit:
    """Coerce an integer, rational, coefficient sequence or literal to a Unit."""
    if isinstance(value, str):
        return parse_unit(field, value)
    return field.coerce(value)


def one(field: FieldDescriptor) -> Unit:
    return field.one()


def unit_mul(a: Unit, b: Unit) -> Unit:
    _check_same_field(a, b)
    return a.field.mul(a, b)


def unit_inv(a: Unit) -> Unit:
    return a.field.inv(a)


def unit_pow(a: Unit, n: int) -> Unit:
    return a.field.pow(a, n)


def unit_neg(a: Unit) -> Unit:
    return a.field.neg(a)


def unit_add(a: Unit, b: Unit) -> Unit | None:
    """Exact sum; returns None when a + b = 0."""
    _check_same_field(a, b)
    return a.field.add(a, b)


def unit_sub(a: Unit, b: Unit) -> Unit | None:
    return unit_add(a, unit_neg(b))


def unit_div(a: Unit, b: Unit) -> Unit:
    return unit_mul(a, unit_inv(b))


def square_class(a: Unit) -> int:
    """The square class of a as a bit: 0 for a square (or a positive real), else 1."""
    return a.field.square_class(a)


# -- the field families ------------------------------------------------------------


class FiniteField(FieldDescriptor):
    """F_q, q odd: GW = Z x Z/2 by (rank, disc_dev), W = Z/4 or Z/2 x Z/2.

    One object per (p, d, modulus): every monic linear modulus gives F_p the
    same arithmetic, so each names Fq(p).  A unit sum c_i x^i is carried by
    one integer, its code sum c_i p^i, 0 < code < q, which orders residues.

    Over F_{p^d} a product is one integer multiplication (Kronecker
    substitution; von zur Gathen and Gerhard, *Modern Computer Algebra*, 8.4).
    A code is packed as sum c_i 2^(k i), where the lane width k holds
    d (p-1)^2 (1 + (d-1)(p-1)): a product coefficient is at most
    d (p-1)^2, and folding the d-1 high lanes back through x^j mod f (whose
    coefficients are below p) adds at most (d-1)(p-1) times that to a low
    lane, so no lane carries into the next.  Beside the product the kernel
    has one operation, the power u^n by square-and-multiply on the exponent
    reduced mod q - 1: an inverse is u^(q-2), a square class is Euler's
    criterion u^((q-1)/2) = 1, and g^k is a power of g.  Each costs at most
    2 log2 q products.  Packed integers never leave the field's methods.

    The first discrete log, asked for by a ``g^k`` output or a K^MW_1
    coordinate, walks the q - 1 powers of the canonical generator g once on
    the packed kernel and keeps two arrays: ``exp`` (k -> the code of g^k)
    and ``log`` (code -> k), as systems for finite fields keep them (Lidl
    and Niederreiter, *Finite Fields*).  Every later discrete log is one
    lookup; ``enumerate_units`` reads ``exp``, ``discrete_log_table`` returns
    ``log`` and builds nothing else.  Then unit arithmetic is index arithmetic
    mod q - 1: a product adds logs (over F_p it stays one product mod p), an
    inverse negates one, a square has an even log (g is a nonsquare), and
    over F_(p^d), d >= 2, a sum is g^(a + Z(b - a)) = g^a + g^b by the Zech
    logs Z(k) = log(1 + g^k) (ibid. 10.3), which the first such sum
    tabulates.  A negation is the product by -1, whose code is p - 1.
    Before the tables, every operation but the F_p sum and product runs the
    kernel above, which the tests take as the reference for the tables.
    """

    _fields = ("order", "modulus")
    is_finite = True
    gw_shape = (1, (2,), ("rank", "disc_dev"))
    certificate = "I^2 = 0"
    vanishing_power = 2

    def __new__(cls, q: int, modulus: Sequence[int] | None = None) -> FiniteField:
        p, d = _factor_order(q)
        mod = tuple(m % p for m in modulus) if modulus is not None else default_modulus(p, d)
        if d == 1 and len(mod) == 2 and mod[1] == 1:
            mod = default_modulus(p, 1)
        return cls._intern(p, d, mod)

    def _setup(self, p: int, d: int, modulus: tuple[int, ...]) -> None:
        if len(modulus) != d + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree matching the field")
        if not _is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        q = p**d
        _set(self, "p", p)
        _set(self, "degree", d)
        _set(self, "modulus", modulus)
        _set(self, "order", q)
        _set(self, "name", f"Fq({q})" if d == 1 else f"Fq({q};poly={poly_str(modulus)})")
        k = (d * (p - 1) ** 2 * (1 + (d - 1) * (p - 1))).bit_length()
        _set(self, "lane", k)
        _set(self, "_lane_shifts", tuple(range(k * (d - 1), -1, -k)))  # top lane first
        # packed x^j mod f for j = d, ..., 2d - 2
        folds = (_prem((0,) * j + (1,), modulus, p) for j in range(d, 2 * d - 1))
        _set(self, "_folds", tuple(sum(c << k * i for i, c in enumerate(f)) for f in folds))
        _set(self, "_tables", None)  # (exp, log) from the first discrete log on
        _set(self, "_one", _kernel_unit(self, 1))
        _set(self, "_minus_one", _kernel_unit(self, p - 1))

    # -- units: integer codes of residues modulo the field's modulus -----------

    def check_carrier(self, value) -> None:
        if type(value) is not int:
            raise ValueError("finite-field units are integer codes sum(c_i p^i)")
        if not 0 < value < self.order:
            raise ValueError(f"unreduced residue {value}" if value else "zero is not a unit")

    def coefficients(self, value: int) -> tuple[int, ...]:
        """The d coefficients (c_0, ..., c_(d-1)) of the unit with this code."""
        return tuple(value // self.p**i % self.p for i in range(self.degree))

    def carrier_str(self, value) -> str:
        return poly_str(self.coefficients(value))

    def coerce(self, value) -> Unit:
        if isinstance(value, Fraction):
            num = self._from_int(value.numerator)
            if value.denominator == 1:
                return num
            return unit_mul(num, unit_inv(self._from_int(value.denominator)))
        if isinstance(value, int):
            return self._from_int(value)
        coeffs = _prem([c % self.p for c in value], self.modulus, self.p)
        return Unit(self, sum(c * self.p**i for i, c in enumerate(coeffs)))

    def _from_int(self, n: int) -> Unit:
        return Unit(self, n % self.p)

    def one(self) -> Unit:
        return self._one

    def _pack(self, code: int) -> int:
        """The packed lanes of a code: its base-p digits, k bits apart."""
        x, p, k = 0, self.p, self.lane
        for s in range(0, k * self.degree, k):
            code, c = divmod(code, p)
            x |= c << s
        return x

    def _unpack(self, x: int) -> int:
        """The code of a packed carrier whose lanes are reduced mod p."""
        p, mask = self.p, (1 << self.lane) - 1
        code = 0
        for s in self._lane_shifts:
            code = code * p + (x >> s & mask)
        return code

    def _reduce_lanes(self, r: int) -> int:
        """The packed carrier whose lanes are the d low lanes of r, each mod p."""
        k, p = self.lane, self.p
        mask = (1 << k) - 1
        out = 0
        for s in self._lane_shifts:
            out = out << k | (r >> s & mask) % p
        return out

    def _mul_packed(self, x: int, y: int) -> int:
        """The packed product of two packed carriers, reduced mod f and p."""
        k, d = self.lane, self.degree
        mask = (1 << k) - 1
        prod = x * y
        r = prod & ((1 << k * d) - 1)
        high = prod >> k * d
        for fold in self._folds:
            r += (high & mask) * fold
            high >>= k
        return self._reduce_lanes(r)

    def _pow_packed(self, x: int, n: int) -> int:
        """x^n for a packed x and n >= 0, by square-and-multiply."""
        result = 0  # no factor taken yet
        while n:
            if n & 1:
                result = self._mul_packed(result, x) if result else x
            n >>= 1
            if n:
                x = self._mul_packed(x, x)
        return result or 1

    def mul(self, a: Unit, b: Unit) -> Unit:
        if self.degree == 1:
            return _kernel_unit(self, a.value * b.value % self.p)
        if self._tables is not None:
            exp, log = self._tables
            return _kernel_unit(self, exp[(log[a.value] + log[b.value]) % (self.order - 1)])
        return Unit(self, self._unpack(self._mul_packed(self._pack(a.value), self._pack(b.value))))

    def pow(self, a: Unit, n: int) -> Unit:
        """a^n for any integer n, reduced mod q - 1."""
        if self._tables is not None:
            exp, log = self._tables
            return _kernel_unit(self, exp[log[a.value] * n % (self.order - 1)])
        return Unit(self, self.carrier_pow(a.value, n % (self.order - 1)))

    def carrier_pow(self, c: int, n: int) -> int:
        """c^n on raw codes for n >= 0, by square-and-multiply."""
        if self.degree == 1:
            return pow(c, n, self.p)
        return self._unpack(self._pow_packed(self._pack(c), n))

    def _tabulate(self) -> tuple[array, array]:
        """(exp, log) from one walk of the q - 1 powers of g, each from the one before.

        Both tables are ``array``s, indexed by k and by the code, of the
        narrowest unsigned type that holds q: 16 bits while q <= 2^16.  Over
        F_p a step is one product mod p; over F_(p^d) it is one packed product.
        """
        n, g = self.order - 1, multiplicative_generator(self).value
        typecode = next(c for c in "HIL" if array(c).itemsize * 8 >= self.order.bit_length())
        exp, log = array(typecode, [0]) * n, array(typecode, [0]) * self.order
        if self.degree == 1:
            x, p = 1, self.p
            for k in range(n):
                exp[k] = x
                log[x] = k
                x = x * g % p
            return exp, log
        x, step, mul, unpack = 1, self._pack(g), self._mul_packed, self._unpack
        for k in range(n):
            c = exp[k] = unpack(x)
            log[c] = k
            x = mul(x, step)
        return exp, log

    def _exp_log(self) -> tuple[array, array]:
        """The (exp, log) tables; the first call builds them."""
        if self._tables is None:
            _set(self, "_tables", self._tabulate())
        return self._tables

    def _log(self, a: Unit) -> int:
        """k with a = g^k, 0 <= k < q - 1."""
        return (self._tables or self._exp_log())[1][a.value]

    @cached_property
    def _zech(self) -> array:
        """Z(k) = log(1 + g^k) over F_(p^d), d >= 2, where 1 + c adds 1 to the constant
        digit of the code c; 0, which no Zech log takes, where g^k = -1 (``log[0]``)."""
        (exp, log), p = self._tables, self.p
        return array(exp.typecode, [log[c + 1 if (c + 1) % p else c + 1 - p] for c in exp])

    def generator_power(self, k: int) -> Unit:
        """g^k for the canonical generator g: an ``exp`` entry once tabulated,
        a kernel power before."""
        if self._tables is not None:
            return _kernel_unit(self, self._tables[0][k % (self.order - 1)])
        return self.pow(multiplicative_generator(self), k)

    def inv(self, a: Unit) -> Unit:
        return self.pow(a, -1)

    def neg(self, a: Unit) -> Unit:
        return self.mul(a, self._minus_one)

    def add(self, a: Unit, b: Unit) -> Unit | None:
        if self.degree == 1:
            s = (a.value + b.value) % self.p
            return _kernel_unit(self, s) if s else None
        if self._tables is not None:
            (exp, log), n = self._tables, self.order - 1
            i = log[a.value]
            z = self._zech[(log[b.value] - i) % n]
            return _kernel_unit(self, exp[(i + z) % n]) if z else None
        s = self._unpack(self._reduce_lanes(self._pack(a.value) + self._pack(b.value)))
        return Unit(self, s) if s else None

    def square_class(self, a: Unit) -> int:
        """The parity of log_g a once tabulated; before, Euler's criterion a^((q-1)/2) = 1."""
        if self._tables is not None:
            return self._tables[1][a.value] & 1
        return 0 if self.carrier_pow(a.value, (self.order - 1) // 2) == 1 else 1

    def literal(self, u: Unit) -> str:
        return f"g^{self._log(u)}"

    # -- GW and W ----------------------------------------------------------------

    def gw_invariants(self, coords) -> dict:
        return {"disc_dev": coords[1]}

    def gw_generator_units(self) -> tuple[Unit, ...]:
        """Units u such that <1> and the <u> generate GW; g is a nonsquare."""
        return (multiplicative_generator(self),)

    @property
    def _z4(self) -> bool:
        return self.order % 4 == 3

    @property
    def witt_shape(self) -> tuple:
        return (0, (4,), ("w",)) if self._z4 else (0, (2, 2), ("rank2", "disc_dev"))

    def witt_coords(self, gw) -> tuple[int, ...]:
        return (gw[0] + 2 * gw[1],) if self._z4 else gw

    def witt_lift(self, coords) -> tuple[int, int]:
        return (coords[0] % 2, coords[0] // 2) if self._z4 else coords

    def witt_str(self, coords) -> str:
        return f"{coords[0]} in Z/4" if self._z4 else f"{coords} in Z/2+Z/2"

    # -- K^MW_1 = F_q^x by log_g; zero from m = 2, where milnor_witt needs no hook ----

    def kmw_ambient(self, m: int) -> Ambient:
        if m >= 2:
            return Ambient(0, (), (), f"K^MW_{m}({self}) = 0")
        return Ambient(0, (self.order - 1,), ("log_g",), f"K^MW_1({self})")

    def kmw_value_fits(self, m: int, v) -> bool:
        return isinstance(v, Unit) and v.field is self

    def kmw_is_zero(self, v) -> bool:
        return v == self.one()

    def kmw_coords(self, v) -> tuple[int, ...]:
        return (self._log(v),)

    def kmw_str(self, m: int, v) -> str:
        return f"(unit class {v}, ideal bit {square_class(v)})"

    def kmw_json(self, v) -> dict:
        return {"unit_class": str(v), "ideal_bit": square_class(v)}

    def kmw_from_coords(self, m: int, coords) -> Unit:
        return self.generator_power(coords[0])

    def kmw_normalize(self, d: int, terms, gw_part) -> Unit:
        """The degree-1 Milnor unit class, checked against the ideal bit.

        The unit is the product of the degree-1 symbols; the bit is summed
        from the GW parts of all terms.  The cartesian square asks that the
        bit be the unit's square class.
        """
        u_acc = self.one()
        bit = 0
        for w, c in terms:
            if len(w) == 1:  # in degree 1, the words without eta: one unit [u]
                u_acc = unit_mul(u_acc, unit_pow(w[0], c))
            bit = (bit + gw_part(w, c).coords[1]) % 2
        if square_class(u_acc) != bit:
            raise ValueError(
                f"cartesian-square compatibility violated: unit {u_acc} vs ideal bit {bit}"
            )
        return u_acc

    def eta_coords(self, m: int, coords) -> tuple[int, ...]:
        """[g^k] to the ideal bit k mod 2 (g is a nonsquare)."""
        return (0, coords[0] % 2)

    def level_generators(self, m: int, n: int) -> tuple[tuple[int, ...], ...]:
        """K^MW_m I^n for n >= 1 in degree-m coordinates.

        I is the rank-zero line and I^2 = 0; from m = 1 on the level is I^(n+m) = 0.
        """
        if m > 0 or n > 1:
            return ()
        return (self.witt_coords((0, 1)) if m < 0 else (0, 1),)


def finite_field(q: int, modulus: Sequence[int] | None = None) -> FiniteField:
    """The field F_q, with the default modulus unless one is given."""
    return FiniteField(q, modulus)


class _RationalField(FieldDescriptor):
    """Infinite fields whose unit carriers are nonzero rationals; one object per class."""

    def __new__(cls) -> _RationalField:
        if cls is _RationalField:  # the base of R and C is no field
            return FieldDescriptor.__new__(cls)
        return cls._intern()

    @property
    def order(self) -> int:
        raise UnsupportedEnumerationError(f"{self} is infinite")

    def check_carrier(self, value) -> None:
        if not isinstance(value, Fraction) or value == 0:
            raise ValueError("unit carriers over R and C are nonzero rationals")

    def carrier_str(self, value) -> str:
        return str(value)

    def coerce(self, value) -> Unit:
        return Unit(self, Fraction(value))

    def one(self) -> Unit:
        return Unit(self, Fraction(1))

    def mul(self, a: Unit, b: Unit) -> Unit:
        return Unit(self, a.value * b.value)

    def inv(self, a: Unit) -> Unit:
        return Unit(self, 1 / a.value)

    def pow(self, a: Unit, n: int) -> Unit:
        return Unit(self, a.value**n)

    def neg(self, a: Unit) -> Unit:
        return Unit(self, -a.value)

    def add(self, a: Unit, b: Unit) -> Unit | None:
        s = a.value + b.value
        return None if s == 0 else Unit(self, s)

    def literal(self, u: Unit) -> str:
        return str(u.value)


class RealField(_RationalField):
    """A real closed field: GW = Z^2 by (rank, index), W = Z by the signature.

    The index counts <-1> - <1>, so signature = rank - 2 index.  I^n is
    detected by the signature, and K^MW_m, m >= 1, is kept modulo its
    uniquely divisible part: c * [-1]^m.
    """

    name = "R"
    gw_shape = (2, (), ("rank", "index"))
    witt_shape = (1, (), ("signature",))
    certificate = "nonzero signatures have bounded dyadic valuation"
    vanishing_power = None

    def square_class(self, a: Unit) -> int:
        return 0 if a.value > 0 else 1

    def gw_invariants(self, coords) -> dict:
        return {"signature": coords[0] - 2 * coords[1]}

    def gw_generator_units(self) -> tuple[Unit, ...]:
        return (self.coerce(-1),)

    def witt_coords(self, gw) -> tuple[int, ...]:
        return (gw[0] - 2 * gw[1],)

    def witt_lift(self, coords) -> tuple[int, int]:
        s = coords[0]
        return (abs(s), (abs(s) - s) // 2)

    def witt_str(self, coords) -> str:
        return f"signature {coords[0]}"

    def kmw_ambient(self, m: int) -> Ambient:
        return Ambient(1, (), ("c",), f"K^MW_{m}(R) mod divisible")

    def kmw_value_fits(self, m: int, v) -> bool:
        return type(v) is int

    def kmw_is_zero(self, v) -> bool:
        return v == 0

    def kmw_str(self, m: int, v) -> str:
        return f"{v} * [-1]^{m}"

    def kmw_json(self, v) -> dict:
        return {"coord": v}

    def kmw_coords(self, v) -> tuple[int, ...]:
        return (v,)

    def kmw_from_coords(self, m: int, coords) -> int:
        return coords[0]

    def kmw_normalize(self, d: int, terms, gw_part) -> int:
        """c normalized so that [-1]^d has c = 1: signature / (-2)^d."""
        c = 0
        for word, coeff in terms:
            q, r = divmod(gw_part(word, coeff).signature, (-2) ** d)
            assert r == 0, "ideal part of a degree-d monomial must lie in I^d"
            c += q
        return c

    def eta_coords(self, m: int, coords) -> tuple[int, ...]:
        """c [-1]^m to c (<-1> - <1>) in degree 1 and to -2c [-1]^(m-1) above."""
        return (0, coords[0]) if m == 1 else (-2 * coords[0],)

    def level_generators(self, m: int, n: int) -> tuple[tuple[int, ...], ...]:
        """K^MW_m I^n for n >= 1: 2^n [-1]^m from m = 1 on, I^n below.

        I^n is generated by <<-1,...,-1>>, of signature (-2)^n and index 2^(n-1).
        """
        if m > 0:
            return ((1 << n,),)
        gen = (0, 1 << (n - 1))
        return (self.witt_coords(gen) if m < 0 else gen,)

    def ladder_row(self, n: int, level) -> str | None:
        k = level.index_in_saturation()
        return f"  ladder row: I(R)^{n} = ({k}) in the index coordinate  (signature in {2 * k}Z)"


class ClosedField(_RationalField):
    """A quadratically closed field: GW = Z by the rank, W = Z/2, I = 0.

    In degree m >= 1, K^MW is kept modulo its uniquely divisible part, which
    leaves the ideal part I^m = 0: every coordinate group there is trivial.
    """

    name = "C"
    gw_shape = (1, (), ("rank",))
    witt_shape = (0, (2,), ("rank2",))
    certificate = "I = 0"
    vanishing_power = 1

    def square_class(self, a: Unit) -> int:
        return 0

    def gw_generator_units(self) -> tuple[Unit, ...]:
        return ()

    def witt_coords(self, gw) -> tuple[int, ...]:
        return gw

    def witt_lift(self, coords) -> tuple[int]:
        return coords

    def witt_str(self, coords) -> str:
        return f"{coords[0]} in Z/2"

    def kmw_ambient(self, m: int) -> Ambient:
        return Ambient(0, (), (), f"K^MW_{m}(C) ideal part = 0")

    def level_generators(self, m: int, n: int) -> tuple[tuple[int, ...], ...]:
        return ()


REALS = RealField()
COMPLEXES = ClosedField()


@lru_cache(maxsize=None)
def enumerate_units(field: FieldDescriptor) -> tuple[Unit, ...]:
    """All q - 1 units as powers of the canonical generator, read off ``exp``."""
    if not field.is_finite:
        raise UnsupportedEnumerationError(f"cannot enumerate units of {field}")
    exp = field._exp_log()[0]  # the first read builds the tables
    return tuple(_kernel_unit(field, c) for c in exp)


@lru_cache(maxsize=None)
def multiplicative_generator(field: FieldDescriptor) -> Unit:
    """Smallest generator of F_q^x in the canonical residue order.

    Residues are tried by increasing code (``Unit.encoding``); u has order
    q - 1 iff u^((q-1)/r) != 1 for each prime r | q - 1.
    """
    exponents = [(field.order - 1) // r for r in _prime_factors(field.order - 1)]
    for code in range(1, field.order):
        if all(field.carrier_pow(code, k) != 1 for k in exponents):
            return Unit(field, code)
    raise RuntimeError("no multiplicative generator found")


def discrete_log_table(field: FieldDescriptor) -> array:
    """The ``log`` table, code -> log_g (entry 0 unused); only ``perfbench`` set-up calls it."""
    if not field.is_finite:
        raise UnsupportedEnumerationError(f"cannot enumerate units of {field}")
    return field._exp_log()[1]


# -- literal syntax ------------------------------------------------------------

_FIELD_RE = re.compile(r"^Fq\((\d+)(?:;poly=([^)]+))?\)$")
_TERM_RE = re.compile(r"^(-?\d*)\*?(x(?:\^(\d+))?)?$")
_GENERATOR_RE = re.compile(r"^g(?:\^(-?\d+))?$")
_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


@lru_cache(maxsize=64)
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
    if not m.group(2):
        return finite_field(q)
    return finite_field(q, parse_poly(m.group(2), _factor_order(q)[1]))


def parse_poly(text: str, degree: int = MAX_FIELD_DEGREE) -> tuple[int, ...]:
    """Parse ``x^2+1`` style polynomials into low-first coefficient tuples.

    A term above ``degree`` is refused before any tuple is built.
    """
    coeffs: dict[int, int] = {}
    for part in text.replace(" ", "").replace("-", "+-").split("+"):
        if not part:
            continue
        m = _TERM_RE.match(part)
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
        if deg > degree:
            raise ValueError(f"term {part!r} exceeds the field's degree {degree}")
        coeffs[deg] = coeffs.get(deg, 0) + coeff
    if not coeffs:
        raise ValueError(f"empty polynomial {text!r}")
    return tuple(coeffs.get(i, 0) for i in range(max(coeffs) + 1))


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
    m = _GENERATOR_RE.match(text)
    if m:
        if not field.is_finite:
            raise ValueError("generator literals g^k only apply to finite fields")
        k = int(m.group(1)) if m.group(1) else 1
        return field.generator_power(k)
    m = _RATIONAL_RE.match(text)
    if not m:
        raise ValueError(f"unrecognised unit literal {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator in unit literal {text!r}")
    return unit(field, Fraction(num, den))
