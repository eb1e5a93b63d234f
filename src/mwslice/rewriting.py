"""Certified term rewriting for the Milnor-Witt presentation.

A :class:`Derivation` is a sequence of steps, each citing a named relation,
a position (term index, factor offset) and the variable bindings that
instantiate the relation.  Replaying a step checks the side conditions and the
positional match exactly, so derivations double as machine-checkable
certificates.  The extended Steinberg derivation follows the explicit
induction: combine the last two symbols via [u][v] = [u+v][-v/u] while their
sum is nonzero, fall back to [a][-a] = 0 when it vanishes, and finish with the
Steinberg relation or [1] = 0.
"""

from __future__ import annotations

from typing import Sequence

from mwslice.abelian import Record
from mwslice.fields import (
    FieldDescriptor,
    FieldMismatchError,
    Unit,
    one,
    parse_field,
    parse_unit,
    unit_add,
    unit_div,
    unit_inv,
    unit_mul,
    unit_neg,
)
from mwslice.milnor_witt import (
    ETA,
    MWExpression,
    atom_literal,
    check_word_length,
    collect,
    expression_literal,
    mw_symbols,
    mw_zero,
    parse_expression,
)


class RuleConditionError(ValueError):
    """A rule instance violates its side conditions."""


class StepMismatchError(ValueError):
    """A step does not match the expression at its stated position."""


class PreconditionError(ValueError):
    """The derivation request violates its hypothesis."""


class SearchExhaustedError(RuntimeError):
    """The derivation did not end at 0."""


def _mono(coeff: int, *atoms) -> tuple[tuple, int]:
    return atoms, coeff


def _expr(fld: FieldDescriptor, *monos: tuple[tuple, int]) -> MWExpression:
    """A rule side, collected: its units are bindings checked over fld, and no
    side has words that cancel, so collecting it changes no step's result."""
    return collect(fld, monos)


def _check_field(v: Unit, fld: FieldDescriptor, name: str) -> None:
    if v.field is not fld:
        raise FieldMismatchError(f"binding {name!r} is a unit over {v.field}, not {fld}")


def _unit_binding(bindings: dict, name: str, fld: FieldDescriptor) -> Unit:
    try:
        v = bindings[name]
    except KeyError:
        raise RuleConditionError(f"missing binding {name!r}") from None
    if not isinstance(v, Unit):
        raise RuleConditionError(f"binding {name!r} must be a unit")
    _check_field(v, fld, name)
    return v


def instantiate(rule: str, fld: FieldDescriptor, bindings: dict) -> tuple[MWExpression, MWExpression]:
    """The (lhs, rhs) expressions of a rule instance; checks side conditions.

    Each unit binding is checked to lie over fld once, here; the sides built
    from them are then collected without a second walk.
    """
    if rule == "R-eta-comm":
        u = _unit_binding(bindings, "u", fld)
        return _expr(fld, _mono(1, ETA, u)), _expr(fld, _mono(1, u, ETA))
    if rule == "R-steinberg":
        u = _unit_binding(bindings, "u", fld)
        w = unit_add(one(fld), unit_neg(u))
        if w is None:
            raise RuleConditionError("Steinberg relation needs u != 1")
        return _expr(fld, _mono(1, u, w)), mw_zero(fld)
    if rule in ("R-product", "R-twisted"):
        a = _unit_binding(bindings, "u" if rule == "R-product" else "a", fld)
        b = _unit_binding(bindings, "v" if rule == "R-product" else "b", fld)
        ab = unit_mul(a, b)
        lhs = _expr(fld, _mono(1, ab))
        rhs = _expr(fld, _mono(1, a), _mono(1, b), _mono(1, ETA, a, b))
        return lhs, rhs
    if rule == "R-eta-hyp":
        minus_one = unit_neg(one(fld))
        lhs = _expr(fld, _mono(2, ETA), _mono(1, ETA, ETA, minus_one))
        return lhs, mw_zero(fld)
    if rule == "R-central":
        z = bindings.get("z")
        if not isinstance(z, MWExpression) or z.field != fld:
            raise RuleConditionError("R-central needs a degree-0 expression binding 'z'")
        if z.degree() not in (0, None):
            raise RuleConditionError("R-central: 'z' must be homogeneous of degree 0")
        atom = bindings.get("atom")
        if atom is not ETA and not isinstance(atom, Unit):
            raise RuleConditionError("R-central needs an atom binding 'atom'")
        if atom is not ETA:
            _check_field(atom, fld, "atom")
        side = bindings.get("side", "left")
        a = _expr(fld, _mono(1, atom))
        left, right = z * a, a * z
        if side == "left":
            return left, right
        if side == "right":
            return right, left
        raise RuleConditionError(f"R-central side must be left or right, got {side!r}")
    if rule == "R-inv":
        a = _unit_binding(bindings, "a", fld)
        ainv = unit_inv(a)
        lhs = _expr(fld, _mono(1, ainv))
        rhs = _expr(fld, _mono(-1, a), _mono(-1, ETA, ainv, a))
        return lhs, rhs
    if rule == "R-negself":
        a = _unit_binding(bindings, "a", fld)
        return _expr(fld, _mono(1, a, unit_neg(a))), mw_zero(fld)
    if rule == "R-one":
        return _expr(fld, _mono(1, one(fld))), mw_zero(fld)
    if rule == "R-neginv":
        a = _unit_binding(bindings, "a", fld)
        target = unit_neg(unit_inv(a))
        return _expr(fld, _mono(1, a, target)), mw_zero(fld)
    if rule == "R-sum":
        u = _unit_binding(bindings, "u", fld)
        v = _unit_binding(bindings, "v", fld)
        s = unit_add(u, v)
        if s is None:
            raise RuleConditionError("R-sum needs u + v != 0")
        t = unit_neg(unit_div(v, u))
        lhs = _expr(fld, _mono(1, u, v))
        rhs = _expr(fld, _mono(1, s, t))
        return lhs, rhs
    raise RuleConditionError(f"unknown rule {rule!r}")


RULE_NAMES = (
    "R-eta-comm",
    "R-steinberg",
    "R-product",
    "R-eta-hyp",
    "R-central",
    "R-twisted",
    "R-inv",
    "R-negself",
    "R-one",
    "R-neginv",
    "R-sum",
)


_set = object.__setattr__


class Step(Record):
    """One rule application; ``bindings`` holds the (name, value) pairs sorted by name."""

    __slots__ = _fields = ("rule", "term_index", "factor_index", "bindings")

    def __init__(self, rule: str, term_index: int, factor_index: int, bindings: dict) -> None:
        _set(self, "rule", rule)
        _set(self, "term_index", term_index)
        _set(self, "factor_index", factor_index)
        _set(self, "bindings", tuple(sorted(bindings.items())))


class Derivation(Record):
    __slots__ = _fields = ("field", "start", "steps", "end")

    def __init__(self, field: FieldDescriptor, start: MWExpression, steps: tuple[Step, ...],
                 end: MWExpression) -> None:
        if start.field is not field or end.field is not field:
            raise FieldMismatchError(f"expressions over {start.field} and {end.field}, not {field}")
        _set(self, "field", field)
        _set(self, "start", start)
        _set(self, "steps", steps)
        _set(self, "end", end)

    def to_json(self) -> dict:
        return {
            "field": str(self.field),
            "start": expression_literal(self.start),
            "steps": [
                {
                    "rule": s.rule,
                    "position": {"term": s.term_index, "factor": s.factor_index},
                    "bindings": _bindings_to_json(s.bindings),
                }
                for s in self.steps
            ],
            "end": expression_literal(self.end),
        }


def _bindings_to_json(bindings: tuple) -> dict:
    out = {}
    for k, v in bindings:
        if k == "atom":  # eta or a unit, written "[u]" as in an expression
            out[k] = atom_literal(v)
        elif isinstance(v, Unit):
            out[k] = v.field.literal(v)
        elif isinstance(v, MWExpression):
            out[k] = expression_literal(v)
        else:
            out[k] = v
    return out


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise ValueError(f"malformed derivation: {what}")


def derivation_from_json(data: dict) -> Derivation:
    """Rebuild a derivation; input of the wrong shape raises ValueError."""
    _require(isinstance(data, dict), "expected a JSON object")
    _require(all(isinstance(data.get(k), str) for k in ("field", "start", "end")),
             "field, start and end must be strings")
    _require(isinstance(data.get("steps"), list), "steps must be a list")
    fld = parse_field(data["field"])
    start = parse_expression(fld, data["start"])
    end = parse_expression(fld, data["end"])
    steps = []
    for s in data["steps"]:
        _require(isinstance(s, dict), "each step must be a JSON object")
        pos, raw = s.get("position"), s.get("bindings", {})
        _require(isinstance(s.get("rule"), str) and isinstance(pos, dict)
                 and all(type(pos.get(k)) is int for k in ("term", "factor")),
                 "each step needs a rule name and an integer term and factor position")
        _require(isinstance(raw, dict) and all(isinstance(v, str) for v in raw.values()),
                 "step bindings must map names to strings")
        bindings = {}
        for k, v in raw.items():
            if k == "z":
                bindings[k] = parse_expression(fld, v)
            elif k == "atom":  # eta, or [u] as atom_literal writes it
                _require(v == "eta" or (len(v) > 2 and v[0] + v[-1] == "[]"),
                         "an atom binding must be eta or [u]")
                bindings[k] = ETA if v == "eta" else parse_unit(fld, v[1:-1])
            elif k == "side":
                bindings[k] = v
            else:
                bindings[k] = parse_unit(fld, v)
        steps.append(Step(s["rule"], s["position"]["term"], s["position"]["factor"], bindings))
    return Derivation(fld, start, tuple(steps), end)


def apply_step(expr: MWExpression, step: Step) -> MWExpression:
    """Apply one certified step; raises on any mismatch."""
    lhs, rhs = instantiate(step.rule, expr.field, dict(step.bindings))
    if not lhs.terms:
        raise StepMismatchError(f"{step.rule} instantiates to an empty pattern")
    anchor, anchor_coeff = lhs.terms[0]
    if not (0 <= step.term_index < len(expr.terms)):
        raise StepMismatchError(f"term index {step.term_index} out of range")
    word, coeff = expr.terms[step.term_index]
    j = step.factor_index
    width = len(anchor)
    if not (0 <= j <= len(word) - width):
        raise StepMismatchError(f"factor index {j} out of range")
    if word[j : j + width] != anchor:
        raise StepMismatchError(
            f"{step.rule} does not match factors at term {step.term_index}, offset {j}"
        )
    if coeff % anchor_coeff != 0:  # coefficients of an expression are nonzero
        raise StepMismatchError(
            f"coefficient {coeff} is not a multiple of the pattern's {anchor_coeff}"
        )
    c = coeff // anchor_coeff
    prefix, suffix = word[:j], word[j + width :]
    if rhs.terms:  # the longest new word, refused before any is built
        check_word_length(len(word) - width + max(len(r) for r, _ in rhs.terms))

    remaining = list(expr.terms)
    remaining[step.term_index] = None  # anchor term consumed
    # consume the other monomials of a multi-term pattern
    for extra, extra_coeff in lhs.terms[1:]:
        want_word = prefix + extra + suffix
        want_coeff = c * extra_coeff
        for i, term in enumerate(remaining):
            if term is not None and term[0] == want_word:
                left = term[1] - want_coeff
                remaining[i] = (term[0], left) if left else None
                break
        else:
            raise StepMismatchError(
                f"{step.rule} needs a companion term {want_coeff} x {want_word}"
            )

    new_terms: list[tuple[tuple, int]] = []
    for i, term in enumerate(remaining):
        if i == step.term_index:
            for r, rc in rhs.terms:
                new_terms.append((prefix + r + suffix, c * rc))
        if term is not None:
            new_terms.append(term)
    return collect(expr.field, new_terms)


class VerificationResult(Record):
    __slots__ = _fields = ("ok", "failed_step", "reason")

    def __init__(self, ok: bool, failed_step: int | None = None,
                 reason: str | None = None) -> None:
        _set(self, "ok", ok)
        _set(self, "failed_step", failed_step)
        _set(self, "reason", reason)


def verify_derivation(d: Derivation) -> VerificationResult:
    """Replay every step; the result is ok iff the stated end expression is reached."""
    current = d.start
    for i, step in enumerate(d.steps):
        try:
            current = apply_step(current, step)
        except ValueError as exc:
            return VerificationResult(False, i, str(exc))
    if current.terms != d.end.terms:  # both collected, so equal sums are equal pairs
        return VerificationResult(False, None, f"derivation ends at {current}, not {d.end}")
    return VerificationResult(True)


def derive_extended_steinberg(units: Sequence[Unit]) -> Derivation:
    """A certificate that [u_1]...[u_n] rewrites to 0 when the units sum to 1."""
    if not units:
        raise PreconditionError("at least one unit is required")
    check_word_length(len(units))  # before any unit is summed
    fld = units[0].field
    total: Unit | None = None
    for u in units:
        if u.field != fld:
            raise PreconditionError("units must share one field")
        total = u if total is None else unit_add(total, u)
    if total != one(fld):
        raise PreconditionError(f"units must sum to 1, got {total}")

    start = mw_symbols(list(units))
    steps: list[Step] = []
    active = list(units)
    # merge the last two symbols while more than two remain and their sum is a unit
    while len(active) > 2 and (s := unit_add(active[-2], active[-1])) is not None:
        steps.append(Step("R-sum", 0, len(active) - 2, {"u": active[-2], "v": active[-1]}))
        active[-2:] = [s]
    if len(active) == 1:
        steps.append(Step("R-one", 0, 0, {}))
    elif len(active) == 2:
        steps.append(Step("R-steinberg", 0, 0, {"u": active[0]}))
    else:
        steps.append(Step("R-negself", 0, len(active) - 2, {"a": active[-2]}))
    expr = start
    for step in steps:
        expr = apply_step(expr, step)
    if expr.terms:
        raise SearchExhaustedError(f"derivation failed to reach 0, stuck at {expr}")
    return Derivation(fld, start, tuple(steps), mw_zero(fld))

