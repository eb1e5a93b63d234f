"""Formal Milnor-Witt K-theory: expressions in [u] and eta, and normal forms.

Expressions are ordered sums of monomials; each monomial is an integer
coefficient times an ordered word in the atoms ``eta`` and ``[u]``.  No
commutativity beyond the presented relations is ever assumed: normal forms are
computed through per-field invariants, which are insensitive to symbol order.

Normal-form coordinates in degree m (the cartesian-square model):

* finite F_q:  m >= 2 trivial; m = 1 a pair (unit class in F_q^x, ideal bit)
  with the compatibility equation bit = square class of the unit;
  m = 0 a GW class; m < 0 a Witt class.
* real closed: m >= 1 a single integer c, normalized so that [-1]^m has c = 1,
  taken modulo the uniquely divisible part; m = 0 GW; m < 0 Witt.
* quadratically closed: m >= 1 only the (always zero) ideal coordinate is
  retained; m = 0 rank; m < 0 rank mod 2.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache, partial
from math import gcd
from typing import Sequence

from mwslice.abelian import Ambient
from mwslice.fields import (
    FieldDescriptor,
    FieldMismatchError,
    Unit,
    discrete_log_table,
    enumerate_units,
    one,
    parse_unit,
    unit_sub,
)
from mwslice.forms import (
    GWClass,
    WittClass,
    fundamental_power_description,
    gw_ambient,
    gw_from_coords,
    gw_of_unit,
    gw_one,
    gw_zero,
    in_fundamental_power,
    pfister,
    witt_ambient,
    witt_class,
    witt_zero,
)


class InhomogeneousError(ValueError):
    """Operation requires a homogeneous expression."""


class DegreeError(ValueError):
    """Expression has the wrong degree for the requested map."""


ETA = "eta"
SYM = "sym"


@dataclass(frozen=True)
class MWAtom:
    kind: str
    unit: Unit | None = None

    def __post_init__(self) -> None:
        if self.kind not in (ETA, SYM):
            raise ValueError(f"unknown atom kind {self.kind!r}")
        if (self.kind == SYM) != (self.unit is not None):
            raise ValueError("symbol atoms carry a unit; eta carries none")

    def __str__(self) -> str:
        return "eta" if self.kind == ETA else f"[{self.unit}]"


def eta_atom() -> MWAtom:
    return MWAtom(ETA)


def sym_atom(u: Unit) -> MWAtom:
    return MWAtom(SYM, u)


@dataclass(frozen=True)
class MWMonomial:
    """coeff times an ordered word in eta and [u] atoms."""

    coeff: int
    factors: tuple[MWAtom, ...]

    @property
    def eta_power(self) -> int:
        return sum(1 for a in self.factors if a.kind == ETA)

    @property
    def symbol(self) -> tuple[Unit, ...]:
        return tuple(a.unit for a in self.factors if a.kind == SYM)

    @property
    def degree(self) -> int:
        return len(self.factors) - 2 * self.eta_power  # = #sym - #eta

    def __str__(self) -> str:
        return _render((self,), str)


@dataclass(frozen=True)
class MWExpression:
    field: FieldDescriptor
    terms: tuple[MWMonomial, ...]

    def __post_init__(self) -> None:
        for t in self.terms:
            for a in t.factors:
                if a.kind == SYM and a.unit.field != self.field:
                    raise FieldMismatchError("symbol unit over the wrong field")

    def degree(self) -> int | None:
        """Common degree of all terms; None for the empty expression."""
        degs = {t.degree for t in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise InhomogeneousError(f"mixed degrees {sorted(degs)} in {self}")
        return degs.pop()

    def __add__(self, other: "MWExpression") -> "MWExpression":
        self._check(other)
        return collect(MWExpression(self.field, self.terms + other.terms))

    def __sub__(self, other: "MWExpression") -> "MWExpression":
        return self + (-other)

    def __neg__(self) -> "MWExpression":
        return MWExpression(
            self.field, tuple(MWMonomial(-t.coeff, t.factors) for t in self.terms)
        )

    def __mul__(self, other: "MWExpression") -> "MWExpression":
        self._check(other)
        terms = []
        for s in self.terms:
            for t in other.terms:
                terms.append(MWMonomial(s.coeff * t.coeff, s.factors + t.factors))
        return collect(MWExpression(self.field, tuple(terms)))

    def scale(self, n: int) -> "MWExpression":
        return collect(
            MWExpression(
                self.field, tuple(MWMonomial(n * t.coeff, t.factors) for t in self.terms)
            )
        )

    def _check(self, other: "MWExpression") -> None:
        if self.field != other.field:
            raise FieldMismatchError(f"expressions over {self.field} and {other.field}")

    def __str__(self) -> str:
        return _render(self.terms, str)


def collect(e: MWExpression) -> MWExpression:
    """Merge monomials with identical factor words; drop zero coefficients."""
    order: list[tuple[MWAtom, ...]] = []
    acc: dict[tuple[MWAtom, ...], int] = {}
    for t in e.terms:
        if t.factors not in acc:
            acc[t.factors] = 0
            order.append(t.factors)
        acc[t.factors] += t.coeff
    terms = tuple(MWMonomial(acc[f], f) for f in order if acc[f] != 0)
    return MWExpression(e.field, terms)


def mw_zero(field: FieldDescriptor) -> MWExpression:
    return MWExpression(field, ())


def mw_int(field: FieldDescriptor, n: int) -> MWExpression:
    if n == 0:
        return mw_zero(field)
    return MWExpression(field, (MWMonomial(n, ()),))


def mw_eta(field: FieldDescriptor) -> MWExpression:
    return MWExpression(field, (MWMonomial(1, (eta_atom(),)),))


def mw_symbol(u: Unit) -> MWExpression:
    return MWExpression(u.field, (MWMonomial(1, (sym_atom(u),)),))


def mw_symbols(units: Sequence[Unit]) -> MWExpression:
    field = units[0].field
    return MWExpression(field, (MWMonomial(1, tuple(sym_atom(u) for u in units)),))


def mw_unit_form(u: Unit) -> MWExpression:
    """<u> = 1 + eta*[u], the degree-zero unit form."""
    return mw_int(u.field, 1) + MWExpression(
        u.field, (MWMonomial(1, (eta_atom(), sym_atom(u))),)
    )


def mw_product(e1: MWExpression, e2: MWExpression) -> MWExpression:
    return e1 * e2


# -- normal forms ------------------------------------------------------------------


@dataclass(frozen=True)
class MWNormalForm:
    """Canonical per-field coordinates of a homogeneous expression.

    ``degree`` is None only for the identically-zero expression, which is a
    legal element of every degree.
    """

    field: FieldDescriptor
    degree: int | None
    milnor_unit: Unit | None = None  # finite fields, degree 1
    ideal_bit: int = 0               # finite fields, degree 1
    real_coord: int = 0              # real/complex, degree >= 1
    gw: GWClass | None = None        # degree 0
    witt: WittClass | None = None    # degree < 0

    def __post_init__(self) -> None:
        if self.degree is not None and self.degree > 0:
            self.field.model.check_kmw(self)

    @property
    def is_zero(self) -> bool:
        if self.degree is None:
            return True
        if self.degree == 0:
            return self.gw.is_zero
        if self.degree < 0:
            return self.witt.is_zero
        return self.field.model.kmw_is_zero(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MWNormalForm):
            return NotImplemented
        if self.field != other.field:
            return False
        if self.is_zero and other.is_zero:
            return self.degree == other.degree or None in (self.degree, other.degree)
        return (
            self.degree == other.degree
            and self.milnor_unit == other.milnor_unit
            and self.ideal_bit == other.ideal_bit
            and self.real_coord == other.real_coord
            and self.gw == other.gw
            and self.witt == other.witt
        )

    def __hash__(self) -> int:
        if self.is_zero:
            return hash((self.field, "zero"))
        return hash(
            (self.field, self.degree, self.milnor_unit, self.ideal_bit,
             self.real_coord, self.gw, self.witt)
        )

    def coords(self) -> tuple[int, ...]:
        """Coordinate vector in ``kmw_ambient(field, degree)``."""
        m = self.degree
        if m is None:
            raise ValueError("the zero normal form has no fixed degree")
        if m == 0:
            return self.gw.coords()
        if m < 0:
            return self.witt.coords
        return self.field.model.kmw_coords(self)

    def __str__(self) -> str:
        m = self.degree
        if m is None or self.is_zero:
            return f"0 (degree {m if m is not None else 'any'})"
        if m == 0:
            return str(self.gw)
        if m < 0:
            return str(self.witt)
        return self.field.model.kmw_str(self)


def kmw_ambient(field: FieldDescriptor, m: int) -> Ambient:
    """Coordinate group of K^MW_m normal forms."""
    if m == 0:
        return gw_ambient(field)
    if m < 0:
        return witt_ambient(field)
    return field.model.kmw_ambient(m)


def normal_form_from_coords(
    field: FieldDescriptor, m: int, coords: tuple[int, ...]
) -> MWNormalForm:
    if m == 0:
        return MWNormalForm(field, 0, gw=gw_from_coords(field, coords))
    if m < 0:
        return MWNormalForm(field, m, witt=WittClass(field, coords))
    return MWNormalForm(field, m, **field.model.kmw_from_coords(m, coords))


def _term_gw_part(field: FieldDescriptor, t: MWMonomial) -> GWClass:
    """c * prod(<u_i> - <1>) over the symbols of the monomial."""
    out = gw_one(field)
    for u in t.symbol:
        out = out * (gw_of_unit(u) - gw_one(field))
    return out.scale(t.coeff)


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
    if d == 0:
        acc = gw_zero(field)
        for t in e.terms:
            acc = acc + _term_gw_part(field, t)
        return MWNormalForm(field, 0, gw=acc)
    if d < 0:
        acc_w = witt_zero(field)
        for t in e.terms:
            acc_w = acc_w + witt_class(_term_gw_part(field, t))
        return MWNormalForm(field, d, witt=acc_w)
    coords = field.model.kmw_normalize(d, e.terms, partial(_term_gw_part, field))
    return MWNormalForm(field, d, **coords)


def theta0(e: MWExpression) -> GWClass:
    """The degree-zero evaluation: ring isomorphism onto GW coordinates."""
    nf = normalize(e, degree=0)
    if nf.degree not in (0, None):
        raise DegreeError(f"theta0 needs a degree-0 expression, got degree {nf.degree}")
    return nf.gw if nf.gw is not None else gw_zero(e.field)


def theta0_inverse(x: GWClass) -> MWExpression:
    """A degree-zero expression mapping to the given GW class under theta0.

    Past the rank, each GW coordinate counts copies of <u> - <1> = eta*[u] for
    the matching generator unit u of the field's model.
    """
    f = x.field
    e = mw_int(f, x.rank)
    for c, u in zip(x.coords()[1:], f.model.gw_generator_units()):
        if c:
            e = e + MWExpression(f, (MWMonomial(c, (eta_atom(), sym_atom(u))),))
    return e


def to_witt(e: MWExpression) -> WittClass:
    """Evaluate a negative-degree expression in W(F)."""
    nf = normalize(e)
    if nf.degree is None:
        return witt_zero(e.field)
    if nf.degree >= 0:
        raise DegreeError(f"to_witt needs degree < 0, got {nf.degree}")
    return nf.witt


def eta_times(nf: MWNormalForm, field_degree: int | None = None) -> MWNormalForm:
    """Multiplication by eta on normal-form coordinates (degree m -> m - 1)."""
    field = nf.field
    m = nf.degree if nf.degree is not None else field_degree
    if m is None:
        raise ValueError("eta action on the zero form needs an explicit degree")
    if m <= 0:  # into W: from GW by witt_class, within W the identity
        w = witt_zero(field) if nf.degree is None else witt_class(nf.gw) if m == 0 else nf.witt
        return MWNormalForm(field, m - 1, witt=w)
    if m == 1:
        return MWNormalForm(field, 0, gw=GWClass(field, 0, *field.model.eta_to_gw(nf)))
    return MWNormalForm(field, m - 1, **field.model.eta_kmw(nf, m))


def eta_power_times(nf: MWNormalForm, n: int) -> MWNormalForm:
    out = nf
    for _ in range(n):
        out = eta_times(out)
    return out


def kmw_generating_forms(field: FieldDescriptor, m: int) -> tuple[MWNormalForm, ...]:
    """Generators of the degree-m coordinate group as normal forms."""
    amb = kmw_ambient(field, m)
    gens = []
    for i in range(amb.dim):
        v = [0] * amb.dim
        v[i] = 1
        gens.append(normal_form_from_coords(field, m, tuple(v)))
    return tuple(gens)


def kmw_generating_expressions(field: FieldDescriptor, m: int) -> tuple[MWExpression, ...]:
    """Expressions whose normal forms generate the degree-m coordinate group."""
    units = field.model.gw_generator_units()
    if m >= 1:
        # where K^MW_m keeps coordinates, [u]^m generates them (u = g, resp. -1)
        if kmw_ambient(field, m).is_trivial:
            return ()
        return tuple(mw_symbols([u] * m) for u in units)
    # degree <= 0: eta-power times the GW generators
    gens0 = [mw_int(field, 1)] + [mw_unit_form(u) for u in units]
    if m == 0:
        return tuple(gens0)
    eta = mw_eta(field)
    eta_pow = mw_int(field, 1)
    for _ in range(-m):
        eta_pow = eta_pow * eta
    return tuple(eta_pow * g for g in gens0)


# -- Milnor K-theory of the implemented fields ----------------------------------


def milnor_ambient(field: FieldDescriptor, m: int) -> Ambient:
    """K^M_m coordinates (finite fields exactly; R and C modulo divisible)."""
    if m < 0:
        raise ValueError("Milnor K-theory lives in degrees >= 0")
    if m == 0:
        return Ambient(1, (), ("n",), f"K^M_0({field})")
    return field.model.milnor_ambient(m)


@lru_cache(maxsize=None)
def k2_brute_force_order(field: FieldDescriptor) -> int:
    """Order of K^M_2(F_q) computed from the Steinberg presentation.

    The group is cyclic, generated by {g, g}; each relation {u, 1-u} = 0
    contributes log(u)*log(1-u) to the annihilator of the generator.
    """
    if not field.is_finite:
        raise ValueError("the K_2 oracle runs over finite fields")
    q = field.order
    logs = discrete_log_table(field)
    ann = q - 1
    e = one(field)
    for u in enumerate_units(field):
        if u == e:
            continue
        w = unit_sub(e, u)
        if w is None:
            continue
        ann = gcd(ann, logs[u] * logs[w] % (q - 1))
    return ann


@dataclass(frozen=True)
class CartesianReport:
    field: FieldDescriptor
    m: int
    milnor_order: int
    ideal_order: int
    quotient_order: int
    fiber_order: int
    coordinate_order: int
    symbols_checked: int
    commutes: bool

    @property
    def cartesian(self) -> bool:
        return self.fiber_order == self.coordinate_order

    @property
    def ok(self) -> bool:
        return self.commutes and self.cartesian

    def to_json(self) -> dict:
        return {
            "field": str(self.field),
            "m": self.m,
            "milnor_order": self.milnor_order,
            "ideal_order": self.ideal_order,
            "quotient_order": self.quotient_order,
            "fiber_order": self.fiber_order,
            "coordinate_order": self.coordinate_order,
            "symbols_checked": self.symbols_checked,
            "commutes": self.commutes,
            "cartesian": self.cartesian,
        }


def cartesian_check(field: FieldDescriptor, m: int) -> CartesianReport:
    """Exhaustively verify the degree-m cartesian square over a finite field.

    (a) commutation: for every length-m symbol, the Pfister element of the
    Milnor image agrees with the ideal coordinate modulo I^(m+1);
    (b) cartesianness: the coordinate group has the fiber-product order.
    """
    if not field.is_finite:
        raise ValueError("cartesian_check runs over finite fields")
    if m not in (1, 2):
        raise ValueError("the decidable range is m in {1, 2}")
    q = field.order
    milnor_order = q - 1 if m == 1 else k2_brute_force_order(field)
    ideal = fundamental_power_description(field, m)
    ideal_next = fundamental_power_description(field, m + 1)
    ideal_order = ideal.order()
    quotient_order = ideal.quotient_shape(ideal_next).order()
    # fiber product order: both maps to I^m/I^(m+1) are onto for our fields
    denom = max(quotient_order, 1)
    fiber_order = milnor_order * ideal_order // denom
    coord = kmw_ambient(field, m)
    coordinate_order = 1
    for d in coord.torsion:
        coordinate_order *= d
    commutes = True
    checked = 0
    for symbol in itertools.product(enumerate_units(field), repeat=m):
        checked += 1
        pf = pfister(list(symbol))
        nf = normalize(mw_symbols(list(symbol)))
        if m == 1:
            ideal_part = GWClass(field, 0, nf.ideal_bit)
        else:
            ideal_part = gw_zero(field)
        diff = pf - ideal_part
        if not in_fundamental_power(diff, m + 1):
            commutes = False
            break
    return CartesianReport(
        field, m, milnor_order, ideal_order, quotient_order,
        fiber_order, coordinate_order, checked, commutes,
    )


def unit_literal(u: Unit) -> str:
    """Render a unit in the canonical parseable literal syntax (g^k over F_q)."""
    return u.field.model.literal(u)


def atom_literal(a: MWAtom) -> str:
    return "eta" if a.kind == ETA else f"[{unit_literal(a.unit)}]"


def expression_literal(e: MWExpression) -> str:
    """Render an expression so that parse_expression reads it back verbatim."""
    return _render(e.terms, atom_literal)


def _render(terms: Sequence[MWMonomial], atom_str) -> str:
    """A signed sum of monomials coeff*atom*...*atom, atoms drawn by atom_str."""

    def term_str(t: MWMonomial) -> str:
        if not t.factors:
            return str(t.coeff)
        word = "*".join(atom_str(a) for a in t.factors)
        if t.coeff in (1, -1):
            return word if t.coeff == 1 else f"-{word}"
        return f"{t.coeff}*{word}"

    if not terms:
        return "0"
    out = term_str(terms[0])
    for t in terms[1:]:
        s = term_str(t)
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

    Example: ``eta*(2 + eta*[-1])``.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad token at {text[pos:]!r}")
            break
        tokens.append(m)
        pos = m.end()

    items = []
    for m in tokens:
        if m.group("int"):
            items.append(("int", int(m.group("int"))))
        elif m.group("eta"):
            items.append(("eta", None))
        elif m.group("sym"):
            items.append(("sym", parse_unit(field, m.group("sym")[1:-1])))
        else:
            items.append((m.group("op"), None))

    idx = 0
    depth = 0

    def peek():
        return items[idx][0] if idx < len(items) else None

    def parse_expr() -> MWExpression:
        nonlocal idx
        out = parse_term()
        while peek() in ("+", "-"):
            op = peek()
            idx += 1
            rhs = parse_term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def parse_term() -> MWExpression:
        nonlocal idx
        out = parse_factor()
        while peek() == "*":
            idx += 1
            out = out * parse_factor()
        return out

    def parse_factor() -> MWExpression:
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
                inner = -parse_factor()
            else:
                inner = parse_expr()
                if peek() != ")":
                    raise ValueError(f"unbalanced parentheses in {text!r}")
                idx += 1
            depth -= 1
            return inner
        if kind == "int":
            n = items[idx][1]
            idx += 1
            return mw_int(field, n)
        if kind == "eta":
            idx += 1
            return mw_eta(field)
        if kind == "sym":
            u = items[idx][1]
            idx += 1
            return mw_symbol(u)
        raise ValueError(f"unexpected token {kind!r} in {text!r}")

    out = parse_expr()
    if idx != len(items):
        raise ValueError(f"trailing tokens in {text!r}")
    return out
