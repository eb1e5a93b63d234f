"""The acceptance suite: one named check per headline identity.

Each check returns a :class:`CheckResult`; ``run_all`` executes them in a
deterministic order.  The ``quick`` profile shrinks the largest grids, the
``full`` profile runs everything at the documented bounds.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable

from mwslice.abelian import SubgroupDescription, full_subgroup
from mwslice.fields import (
    COMPLEXES,
    REALS,
    FieldDescriptor,
    enumerate_units,
    finite_field,
    one,
    sum_to_one_tuples,
    unit_neg,
)
from mwslice.filtration import (
    FiltrationQuery,
    convergence_check,
    eta_image_subgroup,
    moore_filtration,
    tate_filtration,
)
from mwslice.forms import (
    GWClass,
    brute_force_gw,
    fundamental_power_description,
    gw_ambient,
    gw_box,
    gw_of_form,
    rep_form,
    witt_oracle_classes,
)
from mwslice.milnor_witt import (
    cartesian_check,
    eta_atom,
    mw_eta,
    mw_int,
    mw_symbols,
    mw_unit_form,
    normalize,
    sym_atom,
    theta0,
    theta0_inverse,
)
from mwslice.rewriting import (
    RULE_NAMES,
    RuleConditionError,
    _instantiate,
    derive_extended_steinberg,
    verify_derivation,
)
from mwslice.transfers import (
    FiniteExtension,
    filtration_preservation_check,
    projection_formula_check,
    transfer_closure_subgroup,
)

STANDARD_FIELDS = (
    REALS,
    finite_field(3),
    finite_field(5),
    finite_field(7),
    finite_field(9),
    COMPLEXES,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    cases: int
    detail: str
    seconds: float

    def line(self, with_timing: bool = False) -> str:
        status = "PASS" if self.ok else "FAIL"
        timing = f" [{self.seconds:.2f}s]" if with_timing else ""
        return f"{status} {self.name}: {self.detail} ({self.cases} cases){timing}"


class _Run:
    """The case count and timer of one check while it runs."""

    def __init__(self, name: str) -> None:
        self.name, self.cases, self.started = name, 0, time.perf_counter()

    def _done(self, ok: bool, detail: str) -> CheckResult:
        return CheckResult(self.name, ok, self.cases, detail, time.perf_counter() - self.started)

    def passed(self, detail: str) -> CheckResult:
        return self._done(True, detail)

    def fail(self, detail: str) -> CheckResult:
        return self._done(False, detail)


def check_real_ideal_ladder(profile: str = "full") -> CheckResult:
    """I(R)^n = (2^(n-1)) in the index coordinate, signature in 2^n Z, n = 0..12."""
    run = _Run("real_ideal_ladder")
    ambient = gw_ambient(REALS)
    for n in range(0, 13):
        desc = fundamental_power_description(REALS, n)
        run.cases += 1
        if n == 0:
            if not desc.is_full:
                return run.fail(f"I^0 != GW at n={n}")
            continue
        expected = SubgroupDescription(ambient, ((0, 1 << (n - 1)),))
        if desc != expected:
            return run.fail(f"descriptor mismatch at n={n}")
        if desc.index_in_saturation() != 1 << (n - 1):
            return run.fail(f"ideal generator != 2^{n-1}")
        sig_in = GWClass(REALS, 0, 0, 1 << n)
        sig_out = GWClass(REALS, 0, 0, (1 << n) - 2) if n >= 2 else None
        if not desc.contains(sig_in.coords()):
            return run.fail(f"2^{n} signature missing at n={n}")
        if sig_out is not None and desc.contains(sig_out.coords()):
            return run.fail(f"spurious element at n={n}")
    return run.passed("I(R)^n ladder exact for n = 0..12")


def _ideal_power_generators(field: FieldDescriptor, n: int) -> tuple[tuple[int, ...], ...]:
    """GW generators of I(F)^n, n >= 1, written from the classification of GW(F)."""
    if field == REALS:
        return ((0, 1 << (n - 1)),)  # signature in 2^n Z
    if field == COMPLEXES:
        return ()  # I(C) = 0
    return ((0, 1),) if n == 1 else ()  # over F_q, I = Z/2 and I^2 = 0


def check_filtration_at_origin(profile: str = "full") -> CheckResult:
    """tate_filtration(n, 0, 0, F) = I(F)^max(n,0) for -3 <= n <= 8."""
    run = _Run("filtration_at_origin")
    for field in STANDARD_FIELDS:
        ambient = gw_ambient(field)
        for n in range(-3, 9):
            run.cases += 1
            got = tate_filtration(FiltrationQuery(n, 0, 0, field))
            if n <= 0:
                want = full_subgroup(ambient)
            else:
                want = SubgroupDescription(ambient, _ideal_power_generators(field, n))
            if got != want:
                return run.fail(f"F={field}, n={n}: {got} != {want}")
    return run.passed("F^n pi_00 = I^max(n,0) over all six fields")


def check_grid_law(profile: str = "full") -> CheckResult:
    """tate = K^MW_{q-p} I^N with N = shift_index, shift-invariant under diagonal shifts.

    For n <= p the level must be the whole group (stabilization).  For n > p it
    must equal the image of eta^M computed from the generators of
    K^MW_{q-p+M}: the proof's identification of each level, computed
    independently of the level.
    """
    run = _Run("grid_law")
    bound = 6 if profile == "full" else 3
    shifts = (-2, -1, 1, 2)
    for field in STANDARD_FIELDS:
        for n, p, q in itertools.product(range(-bound, bound + 1), repeat=3):
            run.cases += 1
            query = FiltrationQuery(n, p, q, field)
            level = tate_filtration(query)
            if n <= p and not level.is_full:
                return run.fail(f"{field} {(n,p,q)}: law fails")
            if n > p and level != eta_image_subgroup(query):
                return run.fail(f"{field} {(n,p,q)}: level != eta-image")
            for r in shifts:
                shifted = tate_filtration(FiltrationQuery(n + r, p + r, q + r, field))
                if shifted != level:
                    return run.fail(f"{field} {(n,p,q)} shift r={r}: not invariant")
            nxt = tate_filtration(FiltrationQuery(n + 1, p, q, field))
            if not nxt <= level:
                return run.fail(f"{field} {(n,p,q)}: not monotone")
    return run.passed(
        f"filtration law + shift invariance + monotonicity on |n|,|p|,|q| <= {bound}"
    )


def check_extended_steinberg(profile: str = "full") -> CheckResult:
    """Every sum-to-one tuple (q <= 9, n <= 4) yields a verified derivation of 0."""
    run = _Run("extended_steinberg")
    for q in (3, 5, 7, 9):
        field = finite_field(q)
        for n in (2, 3, 4):
            for tup in sum_to_one_tuples(field, n):
                run.cases += 1
                label = tuple(str(u) for u in tup)
                try:
                    d = derive_extended_steinberg(list(tup))
                except Exception as exc:  # a corrupted rule must name its tuple
                    return run.fail(f"q={q} tuple {label}: {exc}")
                res = verify_derivation(d)
                if not res.ok:
                    return run.fail(f"q={q} tuple {label}: {res.reason}")
                if not normalize(mw_symbols(list(tup)), degree=n).is_zero:
                    return run.fail(f"q={q} tuple {label}: nonzero normal form")
    return run.passed("all sum-to-one tuples certified and vanish")


def _rule_instances(field: FieldDescriptor):
    """All bindings for each rule over a finite field (symbol length <= 3)."""
    units = enumerate_units(field)
    e1 = one(field)
    for u in units:
        yield "R-eta-comm", {"u": u}
        if u != e1:
            yield "R-steinberg", {"u": u}
        yield "R-inv", {"a": u}
        yield "R-negself", {"a": u}
        yield "R-neginv", {"a": u}
    yield "R-one", {}
    yield "R-eta-hyp", {}
    for u in units:
        for v in units:
            yield "R-product", {"u": u, "v": v}
            yield "R-twisted", {"a": u, "b": v}
            if unit_neg(u) != v:
                yield "R-sum", {"u": u, "v": v}
    for u in units:
        for z in (mw_int(field, 1), mw_int(field, -2), mw_unit_form(u)):
            yield "R-central", {"z": z, "atom": sym_atom(u), "side": "left"}
            yield "R-central", {"z": z, "atom": eta_atom(), "side": "right"}


def check_relation_soundness(profile: str = "full") -> CheckResult:
    """normalize(LHS) = normalize(RHS) for all eleven rules, exhaustively (q <= 9)."""
    run = _Run("relation_soundness")
    seen_rules: set[str] = set()
    for q in (3, 5, 7, 9):
        field = finite_field(q)
        contexts = [None] + [u for u in enumerate_units(field)[:2]]
        for rule, bindings in _rule_instances(field):
            seen_rules.add(rule)
            try:
                lhs, rhs = _instantiate(rule, field, bindings)
            except RuleConditionError:
                continue
            for ctx in contexts:
                left, right = lhs, rhs
                if ctx is not None:
                    width = max(
                        (len(t.symbol) for t in (lhs.terms + rhs.terms)), default=0
                    )
                    if width >= 3:
                        continue
                    ctx_expr = mw_symbols([ctx])
                    left, right = ctx_expr * lhs, ctx_expr * rhs
                run.cases += 1
                deg = left.degree() if left.terms else right.degree()
                if normalize(left, degree=deg) != normalize(right, degree=deg):
                    return run.fail(f"{rule} over F{q} with {bindings}: normal forms differ")
    missing = set(RULE_NAMES) - seen_rules
    if missing:
        return run.fail(f"rules not exercised: {missing}")
    return run.passed("all eleven rules preserve normal forms")


def check_theta0_and_eta_images(profile: str = "full") -> CheckResult:
    """theta0 is a ring isomorphism onto GW coordinates; eta^n image = I^n, n <= 8."""
    run = _Run("theta0_eta_images")
    for q in (3, 5, 7):
        field = finite_field(q)
        units = enumerate_units(field)
        exprs = [mw_int(field, 1), mw_int(field, -1)] + [mw_unit_form(u) for u in units]
        exprs += [mw_eta(field) * mw_symbols([u]) for u in units]
        for e1 in exprs:
            for e2 in exprs:
                run.cases += 1
                if theta0(e1 * e2) != theta0(e1) * theta0(e2):
                    return run.fail(f"theta0 not multiplicative over F{q}")
                if theta0(e1 + e2) != theta0(e1) + theta0(e2):
                    return run.fail(f"theta0 not additive over F{q}")
    for field in STANDARD_FIELDS:
        for x in gw_box(field, 4):
            run.cases += 1
            if theta0(theta0_inverse(x)) != x:
                return run.fail(f"theta0 not onto {x} over {field}")
        for n in range(1, 9):
            run.cases += 1
            image = eta_image_subgroup(FiltrationQuery(n, 0, 0, field))
            if image != fundamental_power_description(field, n):
                return run.fail(f"eta^{n} image != I^{n} over {field}")
    return run.passed("theta0 bijective ring map; eta-power images equal ideal powers")


def check_cartesian_square(profile: str = "full") -> CheckResult:
    """Cartesian square commutes and has fiber-product order, q <= 13, m <= 2."""
    run = _Run("cartesian_square")
    for q in (3, 5, 7, 9, 11, 13):
        field = finite_field(q)
        for m in (1, 2):
            run.cases += 1
            rep = cartesian_check(field, m)
            expected = q - 1 if m == 1 else 1
            if not rep.ok or rep.fiber_order != expected:
                return run.fail(f"q={q}, m={m}: {rep.to_json()}")
    return run.passed("fiber-product orders q-1 (m=1) and 1 (m=2), commutation exhaustive")


def check_oracle_equivalence(profile: str = "full") -> CheckResult:
    """Brute-force classification = (rank, disc); W(F_q) is Z/4 iff q = 3 mod 4."""
    run = _Run("oracle_equivalence")
    for q in (3, 5, 7, 9, 11, 13):
        field = finite_field(q)
        table = brute_force_gw(field, 6)
        for rank in range(0, 7):
            run.cases += 1
            expected = 1 if rank == 0 else 2
            if table.class_count(rank) != expected:
                return run.fail(f"q={q} rank {rank}: {table.class_count(rank)} classes")
        for cls in table.classes:
            invariants = {gw_of_form(rep_form(field, bits)).coords() for bits in cls}
            run.cases += 1
            if len(invariants) != 1:
                return run.fail(f"q={q}: invariants not constant on a class")
        witt_classes = witt_oracle_classes(field, 6)
        run.cases += 1
        if len(witt_classes) != 4:
            return run.fail(f"q={q}: W has {len(witt_classes)} classes, not 4")
        zero_class = next(cls for cls in witt_classes if () in cls)
        two_ones = (0, 0)
        is_z4 = two_ones not in zero_class
        run.cases += 1
        if is_z4 != (q % 4 == 3):
            return run.fail(f"q={q}: Z/4 structure is {is_z4}")
    return run.passed("(rank, disc) complete, Witt group structure matches q mod 4")


def check_moore_spectrum(profile: str = "full") -> CheckResult:
    """Moore filtration: constant Z/ell over R; zero over finite fields (n >= 1)."""
    run = _Run("moore_spectrum")
    for ell in (3, 5, 7):
        prev = None
        for n in range(0, 11):
            run.cases += 1
            desc = moore_filtration(ell, REALS, n)
            if n == 0:
                if not desc.is_full:
                    return run.fail(f"ell={ell}: I^0 image not full")
                continue
            if desc.order() != ell:
                return run.fail(f"ell={ell}, n={n}: image order {desc.order()}")
            if prev is not None and desc != prev:
                return run.fail(f"ell={ell}, n={n}: not constant")
            prev = desc
        for q in (3, 5, 7, 9):
            field = finite_field(q)
            for n in range(1, 11):
                run.cases += 1
                if not moore_filtration(ell, field, n).is_zero:
                    return run.fail(f"ell={ell}, q={q}, n={n}: image nonzero")
    return run.passed("constant Z/ell over R, vanishing over finite fields")


def check_convergence(profile: str = "full") -> CheckResult:
    """convergence_check passes with structural certificates, cutoff 12."""
    run = _Run("convergence")
    for field in STANDARD_FIELDS:
        run.cases += 1
        rep = convergence_check(field, 12)
        if not rep.separated:
            return run.fail(f"{field}: {rep.details}")
    return run.passed("I-adic filtration separated on all families")


def check_transfers(profile: str = "full") -> CheckResult:
    """Projection formula, filtration preservation, and the closure identity."""
    run = _Run("transfers")
    f3, f5 = finite_field(3), finite_field(5)
    extensions = [
        FiniteExtension(f3, finite_field(9)),
        FiniteExtension(f3, finite_field(27)),
        FiniteExtension(f5, finite_field(25)),
        FiniteExtension(REALS, COMPLEXES),
    ]
    for ext in extensions:
        rep = projection_formula_check(ext, 4)
        run.cases += rep.checked
        if not rep.ok:
            return run.fail(f"{ext}: {rep.counterexample}")
    for ext in extensions[:3]:
        for m in range(-3, 4):
            for N in range(0, 4):
                rep = filtration_preservation_check(ext, m, N)
                run.cases += max(rep.checked, 1)
                if not rep.ok:
                    return run.fail(f"{ext} m={m} N={N}: {rep.counterexample}")
    for base in (f3, f5):
        for n, p, q in itertools.product(range(-3, 4), repeat=3):
            run.cases += 1
            closure = transfer_closure_subgroup(base, q, p, n, 3)
            level = tate_filtration(FiltrationQuery(n, p, q, base))
            if closure != level:
                return run.fail(f"base {base}, (n,p,q)=({n},{p},{q}): closure != filtration")
    return run.passed("projection formula, preservation grid, closure identity all exact")


CRITERIA: tuple[tuple[str, Callable[[str], CheckResult]], ...] = (
    ("1 real_ideal_ladder", check_real_ideal_ladder),
    ("2 filtration_at_origin", check_filtration_at_origin),
    ("3 grid_law", check_grid_law),
    ("4 extended_steinberg", check_extended_steinberg),
    ("5 relation_soundness", check_relation_soundness),
    ("6 theta0_eta_images", check_theta0_and_eta_images),
    ("7 cartesian_square", check_cartesian_square),
    ("8 oracle_equivalence", check_oracle_equivalence),
    ("9 moore_spectrum", check_moore_spectrum),
    ("10 convergence", check_convergence),
    ("11 transfers", check_transfers),
)


def run_all(profile: str = "full") -> list[CheckResult]:
    out = []
    for name, func in CRITERIA:
        run = _Run(name.split(" ", 1)[1])
        try:
            out.append(func(profile))
        except Exception as exc:  # a crashing criterion is a failing criterion
            out.append(run.fail(f"crashed: {exc}"))
    return out
