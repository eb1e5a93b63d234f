"""Formal Milnor-Witt K-theory: expressions in [u] and eta, and normal forms.

An expression is a collected sum of monomials, held as ``(word, coeff)``
pairs: a word is a tuple whose atoms are the marker ``ETA`` for eta and units
u for [u], and coeff is a nonzero integer.  No commutativity beyond the
presented relations is ever assumed: normal forms are computed through
per-field invariants, which are insensitive to symbol order.

A normal form is a degree m and one value (the cartesian-square model):
a GW class for m = 0 and a Witt class for m < 0 over every field, and for
m >= 1 None wherever the coordinate group ``kmw_ambient(field, m)`` is
trivial (F_q from m = 2, C from m = 1), else

* finite F_q, m = 1: the Milnor unit class in F_q^x, whose square class is
  the ideal bit;
* real closed: the integer c of c * [-1]^m, taken modulo the uniquely
  divisible part.

The exhaustive checks of this model, the order of K^M_2(F_q) from the
Steinberg presentation and the cartesian square, live in ``mwslice.checks``.
"""

from __future__ import annotations

import re
from functools import lru_cache, partial
from typing import Sequence

from mwslice.abelian import Ambient, Record
from mwslice.fields import FieldDescriptor, FieldMismatchError, Unit, parse_unit, square_class
from mwslice.forms import GWClass, WittClass, gw_zero, pfister, witt_class, witt_zero


class InhomogeneousError(ValueError):
    """Operation requires a homogeneous expression."""


class DegreeError(ValueError):
    """Expression has the wrong degree for the requested map."""


# The atom eta of a word; every other atom is a unit u, standing for [u].
ETA = "eta"

# A word holds at most MAX_WORD_LENGTH atoms and an expression at most
# MAX_TERMS monomials; a product is checked before it is built.  Building a
# word atom by atom takes time quadratic in its length, and products of sums
# grow exponentially, so larger inputs would run and allocate without useful
# bound.
MAX_WORD_LENGTH = 1000
MAX_TERMS = 1000

_set = object.__setattr__


class MWExpression(Record):
    """A sum over one field of ``(word, coeff)`` pairs: each word once, each
    coeff a nonzero integer, in the order the words first occur.

    A word's degree is its number of unit atoms less its number of eta atoms.
    The constructor is the boundary for expressions built from outside: it
    collects the pairs it is given and checks that every unit atom lies over
    the field.  Expressions the module builds from checked ones (sums,
    products, ``collect``, and the parser's one expression from its words)
    skip that walk; every expression is held to the size bounds.
    """

    __slots__ = _fields = ("field", "terms")

    def __init__(self, field: FieldDescriptor, terms: Sequence[tuple[tuple, int]]) -> None:
        _bounded(terms)
        terms = collect(field, terms).terms
        for w, _ in terms:
            for a in w:
                if a is not ETA and a.field is not field:
                    raise FieldMismatchError("symbol unit over the wrong field")
        _set(self, "field", field)
        _set(self, "terms", terms)

    def degree(self) -> int | None:
        """Common degree of all terms; None for the empty expression."""
        degs = {len(w) - 2 * sum(a is ETA for a in w) for w, _ in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise InhomogeneousError(f"mixed degrees {sorted(degs)} in {self}")
        return degs.pop()

    def __add__(self, other: "MWExpression") -> "MWExpression":
        self._check(other)
        return collect(self.field, self.terms + other.terms)

    def __mul__(self, other: "MWExpression") -> "MWExpression":
        self._check(other)
        return _expression(self.field, tuple(_word_product(self.terms, other.terms).items()))

    def _check(self, other: "MWExpression") -> None:
        if self.field != other.field:
            raise FieldMismatchError(f"expressions over {self.field} and {other.field}")

    def __str__(self) -> str:
        return _render(self.terms, _atom_str)


def _expression(field: FieldDescriptor, terms: tuple[tuple[tuple, int], ...]) -> MWExpression:
    """An expression of collected pairs whose atoms already lie over field;
    only the size bounds are checked."""
    _bounded(terms)
    e = object.__new__(MWExpression)
    _set(e, "field", field)
    _set(e, "terms", terms)
    return e


def _bounded(terms: Sequence[tuple[tuple, int]]) -> None:
    """Refuse more than MAX_TERMS monomials or a word of more than MAX_WORD_LENGTH atoms."""
    if len(terms) > MAX_TERMS:  # compare first: every expression passes here
        _check_size(len(terms), 0)
    for w, _ in terms:
        if len(w) > MAX_WORD_LENGTH:
            check_word_length(len(w))


def _check_size(terms: int, longest_word: int) -> None:
    if terms > MAX_TERMS:
        raise ValueError(f"{terms} monomials exceed the supported bound {MAX_TERMS}")
    check_word_length(longest_word)


def check_word_length(length: int) -> None:
    """Refuse a word of more than MAX_WORD_LENGTH atoms, before it is built."""
    if length > MAX_WORD_LENGTH:
        raise ValueError(f"a word of {length} atoms exceeds the supported bound {MAX_WORD_LENGTH}")


def _word_product(left: Sequence[tuple[tuple, int]],
                  right: Sequence[tuple[tuple, int]]) -> dict[tuple, int]:
    """The collected product of two sums of (word, coeff) pairs: each word
    s + t at its first occurrence, zero coefficients dropped.

    The size bounds are checked before any word is joined.
    """
    if len(left) == 1 == len(right):  # nothing to merge
        ((s, c),), ((t, d),) = left, right
        check_word_length(len(s) + len(t))
        return {s + t: c * d} if c * d else {}
    _check_size(len(left) * len(right),
                max((len(s) for s, _ in left), default=0) + max((len(t) for t, _ in right), default=0))
    acc: dict[tuple, int] = {}
    for s, c in left:
        for t, d in right:
            w = s + t
            acc[w] = acc.get(w, 0) + c * d
    return {w: c for w, c in acc.items() if c}


def collect(field: FieldDescriptor, terms: Sequence[tuple[tuple, int]]) -> MWExpression:
    """The sum of these (word, coeff) pairs: identical words merged where each
    first occurs, zero coefficients dropped.

    The words come from checked expressions over field, as they are or
    spliced and joined, so their atoms are not walked again.
    """
    if len(terms) == 1:  # nothing to merge
        return _expression(field, tuple(terms) if terms[0][1] else ())
    acc: dict[tuple, int] = {}
    for w, c in terms:
        acc[w] = acc.get(w, 0) + c
    return _expression(field, tuple((w, c) for w, c in acc.items() if c))


def mw_zero(field: FieldDescriptor) -> MWExpression:
    return _expression(field, ())


def mw_int(field: FieldDescriptor, n: int) -> MWExpression:
    if n == 0:
        return mw_zero(field)
    return _expression(field, (((), n),))


def mw_eta(field: FieldDescriptor) -> MWExpression:
    return _expression(field, (((ETA,), 1),))


def mw_symbol(u: Unit) -> MWExpression:
    return _expression(u.field, (((u,), 1),))


def mw_symbols(units: Sequence[Unit]) -> MWExpression:
    return MWExpression(units[0].field, ((tuple(units), 1),))


def mw_unit_form(u: Unit) -> MWExpression:
    """<u> = 1 + eta*[u], the degree-zero unit form."""
    return _expression(u.field, (((), 1), ((ETA, u), 1)))


# -- normal forms ------------------------------------------------------------------


class MWNormalForm(Record):
    """Canonical coordinates of a homogeneous expression: a degree and a value.

    ``degree`` is None only for the identically-zero expression, which is a
    legal element of every degree; its value is None.  The degree sets the
    type of ``value``, checked when the form is built: a GWClass in degree 0,
    a WittClass in degree < 0, both over the same field, and in degree >= 1
    None where ``kmw_ambient(field, degree)`` is trivial, else the field's
    value (see :class:`~mwslice.fields.FieldDescriptor`).  So the value is
    None exactly when the form has no degree or a trivial coordinate group.
    """

    __slots__ = _fields = ("field", "degree", "value")

    def __init__(self, field: FieldDescriptor, degree: int | None, value=None) -> None:
        if degree is None or (degree >= 1 and kmw_ambient(field, degree).is_trivial):
            fits = value is None
        elif degree <= 0:
            fits = type(value) is (GWClass if degree == 0 else WittClass) and value.field is field
        else:
            fits = field.kmw_value_fits(degree, value)
        if not fits:
            raise ValueError(f"{value!r} is not a degree-{degree} value over {field}")
        _set(self, "field", field)
        _set(self, "degree", degree)
        _set(self, "value", value)

    @property
    def ideal_bit(self) -> int:
        """The square class of the unit over F_q in degree 1; 0 elsewhere."""
        return square_class(self.value) if isinstance(self.value, Unit) else 0

    @property
    def is_zero(self) -> bool:
        if self.value is None:
            return True
        if self.degree <= 0:
            return self.value.is_zero
        return self.field.kmw_is_zero(self.value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MWNormalForm):
            return NotImplemented
        if self.field != other.field:
            return False
        if self.is_zero and other.is_zero:
            return self.degree == other.degree or None in (self.degree, other.degree)
        return self.degree == other.degree and self.value == other.value

    def __hash__(self) -> int:
        if self.is_zero:
            return hash((self.field, "zero"))
        return hash((self.field, self.degree, self.value))

    def coords(self) -> tuple[int, ...]:
        """Coordinate vector in ``kmw_ambient(field, degree)``."""
        m = self.degree
        if m is None:
            raise ValueError("the zero normal form has no fixed degree")
        if m <= 0:
            return self.value.coords
        return () if self.value is None else self.field.kmw_coords(self.value)

    def __str__(self) -> str:
        m = self.degree
        if m is None or self.is_zero:
            return f"0 (degree {m if m is not None else 'any'})"
        if m <= 0:
            return str(self.value)
        return self.field.kmw_str(m, self.value)


@lru_cache(maxsize=None)
def kmw_ambient(field: FieldDescriptor, m: int) -> Ambient:
    """Coordinate group of K^MW_m normal forms, one shared object per (field, m).

    The keys are bounded per field: a filtration query asks for
    |m| <= 2 * ``filtration.MAX_INDEX``, and an expression for a degree of
    at most ``MAX_WORD_LENGTH`` in absolute value.
    """
    if m == 0:
        return field.gw_ambient
    if m < 0:
        return field.witt_ambient
    return field.kmw_ambient(m)


def normal_form_from_coords(
    field: FieldDescriptor, m: int, coords: tuple[int, ...]
) -> MWNormalForm:
    if m == 0:
        return MWNormalForm(field, 0, GWClass(field, coords))
    if m < 0:
        return MWNormalForm(field, m, WittClass(field, coords))
    if kmw_ambient(field, m).is_trivial:
        return MWNormalForm(field, m)
    return MWNormalForm(field, m, field.kmw_from_coords(m, coords))


def _term_gw_part(field: FieldDescriptor, word: tuple, coeff: int) -> GWClass:
    """coeff * prod(<u_i> - <1>) over the unit atoms u_i of the word, as one class."""
    symbol = tuple(a for a in word if a is not ETA)
    if symbol:
        return pfister(symbol, coeff)
    return GWClass(field, (coeff, 0)[:field.gw_ambient.dim])


def normalize(e: MWExpression, degree: int | None = None) -> MWNormalForm:
    """Canonical coordinates of a homogeneous expression.

    ``degree`` pins the degree of an identically-zero expression; for nonempty
    expressions it must agree with the computed degree.
    """
    d = e.degree()
    if d is None:
        d = degree
    elif degree is not None and degree != d:
        raise DegreeError(f"expression has degree {d}, not {degree}")
    field = e.field
    if d is None:
        return MWNormalForm(field, None)
    if d <= 0:  # GW in degree 0; below it the Witt class of the same sum
        acc = gw_zero(field)
        for w, c in e.terms:
            acc = acc + _term_gw_part(field, w, c)
        return MWNormalForm(field, d, acc if d == 0 else witt_class(acc))
    if kmw_ambient(field, d).is_trivial:
        return MWNormalForm(field, d)
    value = field.kmw_normalize(d, e.terms, partial(_term_gw_part, field))
    return MWNormalForm(field, d, value)


def theta0(e: MWExpression) -> GWClass:
    """The degree-zero evaluation: ring isomorphism onto GW coordinates."""
    return normalize(e, degree=0).value


def theta0_inverse(x: GWClass) -> MWExpression:
    """A degree-zero expression mapping to the given GW class under theta0.

    Past the rank, each GW coordinate counts copies of <u> - <1> = eta*[u] for
    the matching generator unit u of the field's model.
    """
    f = x.field
    e = mw_int(f, x.rank)
    for c, u in zip(x.coords[1:], f.gw_generator_units()):
        if c:
            e = e + _expression(f, (((ETA, u), c),))
    return e


def to_witt(e: MWExpression) -> WittClass:
    """Evaluate a negative-degree expression in W(F)."""
    nf = normalize(e)
    if nf.degree is None:
        return witt_zero(e.field)
    if nf.degree >= 0:
        raise DegreeError(f"to_witt needs degree < 0, got {nf.degree}")
    return nf.value


def eta_coords(field: FieldDescriptor, m: int, coords: tuple[int, ...]) -> tuple[int, ...]:
    """Multiplication by eta on degree-m coordinates, into degree m - 1 (unreduced):
    GW -> W in degree 0, the identity below it, and above it the zero vector
    from a trivial group and the field's hook otherwise."""
    if m == 0:
        return field.witt_coords(coords)
    if m < 0:
        return coords
    if kmw_ambient(field, m).is_trivial:
        return (0,) * kmw_ambient(field, m - 1).dim
    return field.eta_coords(m, coords)


def kmw_generating_expressions(field: FieldDescriptor, m: int) -> tuple[MWExpression, ...]:
    """Expressions whose normal forms generate the degree-m coordinate group."""
    units = field.gw_generator_units()
    if m >= 1:
        # where K^MW_m keeps coordinates, [u]^m generates them (u = g, resp. -1)
        if kmw_ambient(field, m).is_trivial:
            return ()
        return tuple(mw_symbols([u] * m) for u in units)
    # degree <= 0: eta-power times the GW generators
    gens0 = [mw_int(field, 1)] + [mw_unit_form(u) for u in units]
    if m == 0:
        return tuple(gens0)
    eta_pow = _expression(field, (((ETA,) * -m, 1),))
    return tuple(eta_pow * g for g in gens0)


def atom_literal(a) -> str:
    """``eta``, or ``[u]`` with the unit in its parseable literal syntax."""
    return "eta" if a is ETA else f"[{a.field.literal(a)}]"


def _atom_str(a) -> str:
    return "eta" if a is ETA else f"[{a}]"


def expression_literal(e: MWExpression) -> str:
    """Render an expression so that parse_expression reads it back verbatim."""
    return _render(e.terms, atom_literal)


def _render(terms: Sequence[tuple[tuple, int]], atom_str) -> str:
    """A signed sum of monomials coeff*atom*...*atom, atoms drawn by atom_str."""

    def term_str(w: tuple, c: int) -> str:
        if not w:
            return str(c)
        word = "*".join(atom_str(a) for a in w)
        if c in (1, -1):
            return word if c == 1 else f"-{word}"
        return f"{c}*{word}"

    if not terms:
        return "0"
    out = term_str(*terms[0])
    for t in terms[1:]:
        s = term_str(*t)
        out += f" - {s[1:]}" if s.startswith("-") else f" + {s}"
    return out


# -- expression parser ------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<eta>eta)|(?P<sym>\[[^\]]+\])|(?P<op>[-+*()]))"
)

# Parentheses and unary minus signs may nest at most this deep; the parser
# recurses once per level, so the bound keeps it inside the recursion limit.
MAX_NESTING = 100


def parse_expression(field: FieldDescriptor, text: str) -> MWExpression:
    """Parse expression syntax: ``[u]``, ``eta``, integers, ``*``, ``+``, ``-``.

    Example: ``eta*(2 + eta*[-1])``.  The text is read in one recursive
    descent over its tokens; each subexpression is a collected sum, an
    insertion-ordered ``{word: coeff}`` dict with no zero coefficient, and
    one expression is built from the whole.
    """
    items = []  # (kind, token text), then (kind, value); an operator is its own kind
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad token at {text[pos:]!r}")
            break
        items.append((m.lastgroup, m[m.lastgroup]))
        pos = m.end()

    # every token is read before any literal, so a bad token is reported first
    for i, (kind, token) in enumerate(items):
        if kind == "op":
            items[i] = (token, None)
        elif kind == "int":
            items[i] = (kind, int(token))
        else:  # an atom: ETA, or the unit u of [u]
            items[i] = (kind, ETA if kind == "eta" else parse_unit(field, token[1:-1]))

    idx = 0
    depth = 0

    def peek():
        return items[idx][0] if idx < len(items) else None

    def parse_expr() -> dict[tuple, int]:
        """A sum, collected as it is read: the terms of a left fold of ``+``, in linear time."""
        nonlocal idx
        acc = parse_term()  # word -> nonzero coeff, in order
        while peek() in ("+", "-"):
            sign = 1 if peek() == "+" else -1
            idx += 1
            rhs = parse_term()
            _check_size(len(acc) + len(rhs), 0)
            for w, c in rhs.items():  # a collected summand: each word once
                c = acc.get(w, 0) + sign * c
                if c:
                    acc[w] = c  # a word already there keeps its place
                else:
                    del acc[w]
        return acc

    def parse_term() -> dict[tuple, int]:
        nonlocal idx
        out = parse_factor()
        while peek() == "*":
            idx += 1
            out = _word_product(out.items(), parse_factor().items())
        return out

    def parse_factor() -> dict[tuple, int]:
        nonlocal idx, depth
        kind = peek()
        if kind is None:
            raise ValueError(f"unexpected end of expression in {text!r}")
        if kind in ("-", "("):
            if depth == MAX_NESTING:
                raise ValueError(f"expression nests deeper than {MAX_NESTING} levels")
            depth += 1
            idx += 1
            if kind == "-":
                inner = {w: -c for w, c in parse_factor().items()}
            else:
                inner = parse_expr()
                if peek() != ")":
                    raise ValueError(f"unbalanced parentheses in {text!r}")
                idx += 1
            depth -= 1
            return inner
        if kind in ("int", "eta", "sym"):
            value = items[idx][1]
            idx += 1
            if kind == "int":
                return {(): value} if value else {}
            return {(value,): 1}
        raise ValueError(f"unexpected token {kind!r} in {text!r}")

    out = parse_expr()
    if idx != len(items):
        raise ValueError(f"trailing tokens in {text!r}")
    return _expression(field, tuple(out.items()))
