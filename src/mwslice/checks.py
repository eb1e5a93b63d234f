"""The acceptance suite: one named check per headline identity.

Each check takes the run that ``run_all`` builds for it, which holds its name
and profile, and returns a :class:`CheckResult`; ``run_all`` executes them in a
deterministic order.  The ``quick`` profile shrinks the largest grids, the
``full`` profile runs everything at the documented bounds.

Every exhaustive oracle the criteria compare against lives here too: the
chain-equivalence classification of forms, the Steinberg presentation of
K^M_2, the cartesian-square check, the sum-to-one tuples, the span of the
Pfister elements and the Gram matrix of a trace form.  Only ``check-all`` and
the tests import this module, so no other command walks the units of a field.
"""

from __future__ import annotations

import itertools
import time
from functools import lru_cache, reduce
from math import gcd
from typing import Callable, Iterable, Iterator

from mwslice.abelian import Record, SubgroupDescription, full_subgroup
from mwslice.fields import (
    COMPLEXES,
    REALS,
    FieldDescriptor,
    Unit,
    enumerate_units,
    finite_field,
    multiplicative_generator,
    one,
    square_class,
    unit_add,
    unit_mul,
    unit_neg,
    unit_pow,
    unit_sub,
)
from mwslice.filtration import (
    FiltrationQuery,
    certify_level,
    convergence_check,
    eta_image_subgroup,
    kmw_times_In,
    moore_filtration,
    shift_index,
    tate_filtration,
)
from mwslice.forms import (
    GWClass,
    QuadraticForm,
    gw_box,
    gw_of_form,
    gw_zero,
    pfister,
)
from mwslice.milnor_witt import (
    ETA,
    kmw_ambient,
    mw_eta,
    mw_int,
    mw_symbols,
    mw_unit_form,
    normalize,
    theta0,
    theta0_inverse,
)
from mwslice.rewriting import (
    RULE_NAMES,
    RuleConditionError,
    derive_extended_steinberg,
    instantiate,
    verify_derivation,
)
from mwslice.transfers import (
    FiniteExtension,
    filtration_preservation_check,
    projection_formula_check,
    transfer_closure_subgroup,
    transfer_of_unit_form,
)

STANDARD_FIELDS = (
    REALS,
    finite_field(3),
    finite_field(5),
    finite_field(7),
    finite_field(9),
    COMPLEXES,
)


# -- exhaustive oracles ------------------------------------------------------------


def sum_to_one_tuples(field: FieldDescriptor, n: int) -> Iterator[tuple[Unit, ...]]:
    """Stream of n-tuples of units with sum 1, exhaustive and duplicate-free over F_q."""
    if n < 1:
        raise ValueError(f"tuple length must be >= 1, got {n}")
    e = one(field)
    if n == 1:
        yield (e,)
        return
    for prefix in itertools.product(enumerate_units(field), repeat=n - 1):
        rest: Unit | None = e  # running value of 1 - sum(prefix); None is zero
        for u in prefix:
            rest = unit_sub(rest, u) if rest is not None else unit_neg(u)
        if rest is not None:
            yield prefix + (rest,)


def _square_class_reps(field: FieldDescriptor) -> tuple[Unit, Unit]:
    """1 and a unit of every other square class: g over F_q, -1 over R (a square over C)."""
    e = one(field)
    return (e, multiplicative_generator(field) if field.is_finite else unit_neg(e))


def ideal_power_oracle(field: FieldDescriptor, n: int) -> SubgroupDescription:
    """I(F)^n, n >= 1, as the span of the n-fold Pfister elements in GW coordinates.

    The products of (<a_i> - <1>) generate I^n (Lam, *Introduction to Quadratic
    Forms over Fields*, ch. X), and each depends only on the square classes of
    the a_i, which run over one representative per class.
    """
    reps = itertools.combinations_with_replacement(_square_class_reps(field), n)
    return SubgroupDescription(field.gw_ambient, tuple(pfister(a).coords for a in reps))


def _unit_sum(units: Iterable[Unit]) -> Unit | None:
    """The sum of some units; None stands for 0."""
    total: Unit | None = None
    for u in units:
        total = u if total is None else unit_add(total, u)
    return total


def represents(field: FieldDescriptor, entries: tuple[Unit, ...], c: Unit) -> bool:
    """Exhaustive test: does the diagonal form with these entries represent c?"""
    values = [None] + list(enumerate_units(field))
    for point in itertools.product(values, repeat=len(entries)):
        terms = [unit_mul(a, unit_mul(x, x)) for a, x in zip(entries, point) if x is not None]
        if terms and _unit_sum(terms) == c:
            return True
    return False


def binary_isometric(a: Unit, b: Unit, c: Unit, d: Unit) -> bool:
    """<a,b> = <c,d> iff equal discriminants and <a,b> represents c."""
    field = a.field
    disc_ab = square_class(unit_mul(a, b))
    disc_cd = square_class(unit_mul(c, d))
    if disc_ab != disc_cd:
        return False
    return represents(field, (a, b), c)


MAX_BRUTE_RANK = 8


@lru_cache(maxsize=None)
def brute_force_gw(field: FieldDescriptor, max_rank: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Classify diagonal forms with entries in {1, s} by chain equivalence.

    Returns the classes of ranks 0..max_rank, in rank order; a class is a
    sorted tuple of forms, each form a sorted tuple of square-class bits.

    Moves replace a pair of entries by another representative pair when the
    corresponding binary forms are isometric (equal discriminant plus an
    exhaustive representation search).  Completeness of the (rank, disc)
    invariants is checked against this table by the test suite, not assumed.
    """
    if max_rank > MAX_BRUTE_RANK:
        raise ValueError(f"rank bound {max_rank} exceeds {MAX_BRUTE_RANK}")
    reps = _square_class_reps(field)
    isometric_pairs: dict[tuple[int, int, int, int], bool] = {}
    for quad in itertools.product((0, 1), repeat=4):
        isometric_pairs[quad] = binary_isometric(*(reps[b] for b in quad))

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
    return tuple(tuple(sorted(cls)) for cls in classes)


def rep_form(field: FieldDescriptor, bits: tuple[int, ...]) -> QuadraticForm:
    reps = _square_class_reps(field)
    return QuadraticForm(field, tuple(reps[b] for b in bits))


@lru_cache(maxsize=None)
def witt_oracle_classes(field: FieldDescriptor, max_rank: int = 6) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Witt classes of representative forms: chain equivalence + hyperbolic moves."""
    classes = brute_force_gw(field, max_rank)
    h_bits = tuple(sorted((0, square_class(unit_neg(one(field))))))
    parent: dict[tuple[int, ...], tuple[int, ...]] = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    all_forms = [f for cls in classes for f in cls]
    for cls in classes:
        for f in cls[1:]:
            union(cls[0], f)
    for f in all_forms:
        if len(f) + 2 <= max_rank:
            union(f, tuple(sorted(f + h_bits)))
    groups: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for f in all_forms:
        groups.setdefault(find(f), set()).add(f)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=lambda g: sorted(g)[0]))


@lru_cache(maxsize=None)
def k2_brute_force_order(field: FieldDescriptor) -> int:
    """Order of K^M_2(F_q) computed from the Steinberg presentation.

    The group is cyclic, generated by {g, g}; each relation {u, 1-u} = 0
    contributes log(u)*log(1-u) to the annihilator of the generator.
    """
    q = field.order
    ann = q - 1
    e = one(field)
    for u in enumerate_units(field):
        w = unit_sub(e, u)
        if w is None:  # u = 1
            continue
        ann = gcd(ann, field.kmw_coords(u)[0] * field.kmw_coords(w)[0] % (q - 1))
    return ann


def trace_form_oracle(ext: FiniteExtension, a: Unit) -> GWClass:
    """Tr_*<a> over a finite base, read off the Gram matrix of Tr(a x y).

    In the basis 1, X, ..., X^(d-1) over the base (X the polynomial class) the
    Gram matrix is Tr(a X^(i+j)), each trace the sum of the d conjugates
    z^(q_b^k).  Its Leibniz determinant lies in the base, so Euler's criterion
    with q_b decides its square class inside the top field.
    """
    top, d = ext.top, ext.degree
    x = Unit(top, top.p) if top.degree > 1 else one(top)
    zs = [unit_mul(a, unit_pow(x, i)) for i in range(2 * d - 1)]
    traces = [_unit_sum(unit_pow(z, ext.base.order**k) for k in range(d)) for z in zs]
    terms = []
    for perm in itertools.permutations(range(d)):
        entries = [traces[i + perm[i]] for i in range(d)]
        if all(t is not None for t in entries):
            term = reduce(unit_mul, entries)
            odd = sum(r > s for r, s in itertools.combinations(perm, 2)) % 2
            terms.append(unit_neg(term) if odd else term)
    det, e = _unit_sum(terms), one(top)
    euler = None if det is None else unit_pow(det, (ext.base.order - 1) // 2)
    if euler not in (e, unit_neg(e)):
        raise ValueError(f"{ext}: the Gram determinant of <{a}> is not a base unit")
    return GWClass(ext.base, (d, int(euler != e)))


def cartesian_check(field: FieldDescriptor, m: int) -> tuple[int, str | None]:
    """Exhaustively verify the degree-m cartesian square over a finite field.

    (a) commutation: for every length-m symbol, the Pfister element of the
    Milnor image agrees with the ideal coordinate modulo I^(m+1);
    (b) cartesianness: the coordinate group has the fiber-product order.
    Returns the number of symbols checked and None, or a counterexample that
    names the first failing symbol or the two orders.
    """
    if m not in (1, 2):
        raise ValueError("the decidable range is m in {1, 2}")
    checked = 0
    for symbol in itertools.product(enumerate_units(field), repeat=m):
        checked += 1
        word = mw_symbols(list(symbol))
        if m == 1:
            ideal_part = GWClass(field, (0, normalize(word).ideal_bit))
        else:
            ideal_part = gw_zero(field)
        if not kmw_times_In(0, m + 1, field).contains((pfister(list(symbol)) - ideal_part).coords):
            return checked, f"the square does not commute at {word}"
    milnor_order = field.order - 1 if m == 1 else k2_brute_force_order(field)
    ideal = kmw_times_In(0, m, field)
    # fiber product order: both maps to I^m/I^(m+1) are onto for our fields
    quotient_order = ideal.quotient_shape(kmw_times_In(0, m + 1, field)).order()
    fiber_order = milnor_order * ideal.order() // max(quotient_order, 1)
    coordinate_order = kmw_ambient(field, m).order()
    if fiber_order != coordinate_order:
        return checked, f"fiber-product order {fiber_order} != coordinate order {coordinate_order}"
    return checked, None


_set = object.__setattr__


class CheckResult(Record):
    __slots__ = _fields = ("name", "ok", "cases", "detail", "seconds")

    def __init__(self, name: str, ok: bool, cases: int, detail: str, seconds: float) -> None:
        _set(self, "name", name)
        _set(self, "ok", ok)
        _set(self, "cases", cases)
        _set(self, "detail", detail)
        _set(self, "seconds", seconds)

    def line(self, with_timing: bool = False) -> str:
        status = "PASS" if self.ok else "FAIL"
        timing = f" [{self.seconds:.2f}s]" if with_timing else ""
        return f"{status} {self.name}: {self.detail} ({self.cases} cases){timing}"


class _Run:
    """The name, profile, case count and timer of one criterion while it runs."""

    def __init__(self, label: str, profile: str) -> None:
        self.name, self.profile = label.split(" ", 1)[1], profile  # "3 grid_law" -> grid_law
        self.cases, self.started = 0, time.perf_counter()

    def _done(self, ok: bool, detail: str) -> CheckResult:
        return CheckResult(self.name, ok, self.cases, detail, time.perf_counter() - self.started)

    def passed(self, detail: str) -> CheckResult:
        return self._done(True, detail)

    def fail(self, detail: str) -> CheckResult:
        return self._done(False, detail)


def check_real_ideal_ladder(run: _Run) -> CheckResult:
    """I(R)^n = (2^(n-1)) in the index coordinate, signature in 2^n Z, n = 0..12."""
    for n in range(0, 13):
        desc = kmw_times_In(0, n, REALS)
        run.cases += 1
        if n == 0:
            if not desc.is_full:
                return run.fail(f"I^0 != GW at n={n}")
            continue
        if desc != ideal_power_oracle(REALS, n):
            return run.fail(f"descriptor mismatch at n={n}")
        if desc.index_in_saturation() != 1 << (n - 1):
            return run.fail(f"ideal generator != 2^{n-1}")
        # rank 0 and signature s: index -s/2
        sig_in = GWClass(REALS, (0, -(1 << n) // 2))
        sig_out = GWClass(REALS, (0, 1 - (1 << n) // 2)) if n >= 2 else None
        if not desc.contains(sig_in.coords):
            return run.fail(f"2^{n} signature missing at n={n}")
        if sig_out is not None and desc.contains(sig_out.coords):
            return run.fail(f"spurious element at n={n}")
    return run.passed("I(R)^n ladder exact for n = 0..12")


def check_filtration_at_origin(run: _Run) -> CheckResult:
    """tate_filtration(n, 0, 0, F) = I(F)^max(n,0) for -3 <= n <= 8."""
    for field in STANDARD_FIELDS:
        for n in range(-3, 9):
            run.cases += 1
            got = tate_filtration(FiltrationQuery(n, 0, 0, field))
            want = full_subgroup(field.gw_ambient) if n <= 0 else ideal_power_oracle(field, n)
            if got != want:
                return run.fail(f"F={field}, n={n}: {got} != {want}")
    return run.passed("F^n pi_00 = I^max(n,0) over all six fields")


def _case_index(n: int, p: int, q: int) -> int:
    """N at (n, p, q) by the paper's cases, apart from ``filtration.shift_index``."""
    if n <= p or n <= q:  # the stabilization range: the whole group
        return 0
    return n - p if p >= q else n - q


def check_grid_law(run: _Run) -> CheckResult:
    """tate = K^MW_{q-p} I^N with N = shift_index, shift-invariant under diagonal shifts.

    For n <= p the level must be the whole group (stabilization).  For n > p it
    must equal the image of eta^M computed from the generators of
    K^MW_{q-p+M}: the proof's identification of each level, computed
    independently of the level.  At every point the level must also be
    K^MW_{q-p} I^N with N read by the paper's cases, which see only n - p and
    n - q; so the level is constant along each diagonal (n + r, p + r, q + r)
    of the grid.
    """
    bound = 6 if run.profile == "full" else 3
    for field in STANDARD_FIELDS:
        for n, p, q in itertools.product(range(-bound, bound + 1), repeat=3):
            run.cases += 1
            query = FiltrationQuery(n, p, q, field)
            level = tate_filtration(query)
            if n <= p and not level.is_full:
                return run.fail(f"{field} {(n,p,q)}: law fails")
            if n > p and level != eta_image_subgroup(query):
                return run.fail(f"{field} {(n,p,q)}: level != eta-image")
            if kmw_times_In(q - p, _case_index(n, p, q), field) != level:
                return run.fail(f"{field} {(n,p,q)}: level != K^MW I^N by cases")
            nxt = tate_filtration(FiltrationQuery(n + 1, p, q, field))
            if not nxt <= level:
                return run.fail(f"{field} {(n,p,q)}: not monotone")
    return run.passed(
        f"filtration law + shift invariance + monotonicity on |n|,|p|,|q| <= {bound}"
    )


def check_extended_steinberg(run: _Run) -> CheckResult:
    """Every sum-to-one tuple (q <= 9, n <= 4) yields a verified derivation of 0."""
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
            yield "R-central", {"z": z, "atom": u, "side": "left"}
            yield "R-central", {"z": z, "atom": ETA, "side": "right"}


def check_relation_soundness(run: _Run) -> CheckResult:
    """normalize(LHS) = normalize(RHS) for all eleven rules, exhaustively (q <= 9)."""
    seen_rules: set[str] = set()
    for q in (3, 5, 7, 9):
        field = finite_field(q)
        contexts = [None] + [u for u in enumerate_units(field)[:2]]
        for rule, bindings in _rule_instances(field):
            seen_rules.add(rule)
            try:
                lhs, rhs = instantiate(rule, field, bindings)
            except RuleConditionError:
                continue
            for ctx in contexts:
                left, right = lhs, rhs
                if ctx is not None:
                    width = max((sum(a is not ETA for a in w)
                                 for w, _ in lhs.terms + rhs.terms), default=0)
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


def check_theta0_and_eta_images(run: _Run) -> CheckResult:
    """theta0 is a ring isomorphism onto GW coordinates; eta^n image = I^n, n <= 8."""
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
            if image != ideal_power_oracle(field, n):
                return run.fail(f"eta^{n} image != I^{n} over {field}")
    return run.passed("theta0 bijective ring map; eta-power images equal ideal powers")


def check_cartesian_square(run: _Run) -> CheckResult:
    """Cartesian square commutes and has fiber-product order, q <= 13, m <= 2."""
    for q in (3, 5, 7, 9, 11, 13):
        field = finite_field(q)
        for m in (1, 2):
            run.cases += 1
            _, failure = cartesian_check(field, m)
            if failure:
                return run.fail(f"q={q}, m={m}: {failure}")
            order = kmw_ambient(field, m).order()
            expected = q - 1 if m == 1 else 1
            if order != expected:
                return run.fail(f"q={q}, m={m}: coordinate order {order} != {expected}")
    return run.passed("fiber-product orders q-1 (m=1) and 1 (m=2), commutation exhaustive")


def check_oracle_equivalence(run: _Run) -> CheckResult:
    """Brute-force classification = (rank, disc); W(F_q) is Z/4 iff q = 3 mod 4."""
    for q in (3, 5, 7, 9, 11, 13):
        field = finite_field(q)
        classes = brute_force_gw(field, 6)
        for rank in range(0, 7):
            run.cases += 1
            count = sum(len(cls[0]) == rank for cls in classes)
            if count != (1 if rank == 0 else 2):
                return run.fail(f"q={q} rank {rank}: {count} classes")
        for cls in classes:
            invariants = {gw_of_form(rep_form(field, bits)).coords for bits in cls}
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


def check_moore_spectrum(run: _Run) -> CheckResult:
    """Moore filtration: constant Z/ell over R; zero over finite fields (n >= 1)."""
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


def check_convergence(run: _Run) -> CheckResult:
    """convergence_check passes with structural certificates, cutoff 12, and
    the certificate reports R ladders stalled at I^j from cutoff max(j + 1, 2) on."""
    for field in STANDARD_FIELDS:
        run.cases += 1
        separated, details = convergence_check(field, 12)
        if not separated:
            return run.fail(f"{field}: {details}")
    for j in range(8):  # the level at n = cutoff of the R ladder that stops at I^j
        run.cases += 1
        reported = [cutoff for cutoff in range(1, 9) if any(
            certify_level(REALS, cutoff, p, q,
                          kmw_times_In(q - p, min(shift_index(cutoff - p, cutoff - q), j), REALS))
            for p, q in itertools.product(range(3), repeat=2))]
        if reported != list(range(max(j + 1, 2), 9)):
            return run.fail(f"R ladder stalled at I^{j} reported at cutoffs {reported}")
    return run.passed("I-adic filtration separated on all families")


def check_transfers(run: _Run) -> CheckResult:
    """Gram oracle, projection formula, filtration preservation, closure identity."""
    f3, f5 = finite_field(3), finite_field(5)
    extensions = [
        FiniteExtension(f3, finite_field(9)),
        FiniteExtension(f3, finite_field(27)),
        FiniteExtension(f5, finite_field(25)),
        FiniteExtension(REALS, COMPLEXES),
    ]
    for ext in extensions[:3]:
        for a in enumerate_units(ext.top):
            run.cases += 1
            got, want = transfer_of_unit_form(ext, a), trace_form_oracle(ext, a)
            if got != want:
                return run.fail(f"{ext}: Tr<{a}> = {got}, Gram oracle {want}")
    for ext in extensions:
        cases, counterexample = projection_formula_check(ext, 4)
        run.cases += cases
        if counterexample is not None:
            return run.fail(f"{ext}: {counterexample}")
    for ext in extensions[:3]:
        for m in range(-3, 4):
            for N in range(0, 4):
                cases, counterexample = filtration_preservation_check(ext, m, N)
                run.cases += max(cases, 1)
                if counterexample is not None:
                    return run.fail(f"{ext} m={m} N={N}: {counterexample}")
    for base in (f3, f5):
        for n, p, q in itertools.product(range(-3, 4), repeat=3):
            run.cases += 1
            closure = transfer_closure_subgroup(base, q, p, n, 3)
            level = tate_filtration(FiltrationQuery(n, p, q, base))
            if closure != level:
                return run.fail(f"base {base}, (n,p,q)=({n},{p},{q}): closure != filtration")
    return run.passed("Gram oracle, projection formula, preservation grid, closure identity all exact")


CRITERIA: tuple[tuple[str, Callable[[_Run], CheckResult]], ...] = (
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
    for label, func in CRITERIA:
        run = _Run(label, profile)
        try:
            out.append(func(run))
        except Exception as exc:  # a crashing criterion is a failing criterion
            out.append(run.fail(f"crashed: {exc}"))
    return out
